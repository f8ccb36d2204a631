"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 validation error, 3 decode failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import anetf, codec, matrix as mx, pcheck
from .codespec import (
    capability,
    capability_to_string,
    dimension,
    layer_count,
    length,
    level_count,
    min_distance,
    spec_from_capability,
    spec_from_json,
)
from .gf import field
from .words import word_from_text, word_to_text

USAGE_ERROR = 1
VALIDATION_ERROR = 2
DECODE_FAILURE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_spec(args):
    if bool(args.spec) == bool(args.capability):
        raise UsageError("give exactly one spec source: --spec FILE or --capability TREE")
    if args.spec:
        return spec_from_json(Path(args.spec).read_text())
    if args.field is None or args.row_length is None:
        raise UsageError("--capability needs --field W and --n N")
    return spec_from_capability(field(args.field), args.capability, args.row_length)


def _write_output(args, text: str):
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="eii", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--spec", metavar="FILE", help="JSON code description")
    spec.add_argument("--capability", metavar="TREE",
                      help="capability string such as ((1,1,2),(1,2,3))")
    spec.add_argument("--field", type=int, metavar="W",
                      help="extension degree for --capability (GF(2^W))")
    spec.add_argument("--n", type=int, metavar="N", dest="row_length",
                      help="innermost row length for --capability")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", metavar="FILE")

    subs.add_parser("info", parents=[spec], help="print [N, k, d] and code structure")

    p = subs.add_parser("encode", parents=[spec, output], help="systematic encode a data file")
    p.add_argument("--data", required=True, metavar="FILE",
                   help="whitespace-separated data symbols, length k")

    p = subs.add_parser("decode", parents=[spec, output], help="erasure-decode a word file")
    p.add_argument("--word", required=True, metavar="FILE",
                   help="word file; ? marks an erasure")
    p.add_argument("--erasures", metavar="LIST",
                   help="extra erased positions, comma-separated zero-based indices")
    p.add_argument("--mode", choices=("alg", "pcheck"), default="alg")

    p = subs.add_parser("pcheck", parents=[spec, output], help="print the parity-check matrix")
    p.add_argument("--reduce", action="store_true", help="drop dependent rows")
    p.add_argument("--format", choices=("csv", "alist"), default="csv")

    subs.add_parser("density", parents=[spec], help="nonzero density of the parity-check matrix")

    p = subs.add_parser("anetf", parents=[spec, output],
                        help="Monte-Carlo average number of erasures to failure")
    p.add_argument("--trials", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=anetf.MODES, default=anetf.CAPABILITY)
    p.add_argument("--format", choices=("text", "json"), default="text")

    subs.add_parser("mindist-brute", parents=[spec], help="exhaustive minimum-distance check")

    return parser


def _cmd_info(args, spec) -> int:
    print(f"[{length(spec)}, {dimension(spec)}, {min_distance(spec)}]")
    print(f"field: GF(2^{spec.ctx.w})")
    print(f"layers: {layer_count(spec)}")
    print(f"levels: {level_count(spec)}")
    print(f"capability: {capability_to_string(capability(spec))}")
    return 0


def _cmd_encode(args, spec) -> int:
    data = [int(tok) for tok in Path(args.data).read_text().split()]
    word = codec.encode(spec, data)
    _write_output(args, word_to_text(word) + "\n")
    return 0


def _cmd_decode(args, spec) -> int:
    word = word_from_text(Path(args.word).read_text())
    if args.erasures:
        positions = [int(tok) for tok in args.erasures.split(",") if tok.strip()]
        word = word.with_erasures(positions)
    if args.mode == "alg":
        out, report = codec.decode(spec, word)
        if report.outcome != codec.RECOVERED:
            print("uncorrectable erasure pattern", file=sys.stderr)
            return DECODE_FAILURE
    else:
        out = pcheck.pc_decode(pcheck.build_parity_check(spec), word)
        if out is None:
            print("erased columns are dependent: undetermined", file=sys.stderr)
            return DECODE_FAILURE
    _write_output(args, word_to_text(out) + "\n")
    return 0


def _cmd_pcheck(args, spec) -> int:
    pc = pcheck.build_parity_check(spec)
    h = pc.reduced if args.reduce else pc.h
    text = mx.to_csv(h) if args.format == "csv" else mx.to_alist(h)
    _write_output(args, text)
    return 0


def _cmd_density(args, spec) -> int:
    pc = pcheck.build_parity_check(spec)
    nz = pc.h.nonzero_count()
    total = pc.h.rows * pc.h.cols
    density = pcheck.density(pc)
    print(f"{nz}/{total} = {density:.6f} ({100 * density:.2f}%)")
    return 0


def _cmd_anetf(args, spec) -> int:
    config = anetf.AnetfConfig(spec, args.mode, args.trials, args.seed)
    report = anetf.simulate(config)
    if args.format == "json":
        _write_output(args, anetf.report_to_json(report) + "\n")
    else:
        _write_output(args, anetf.report_to_text(report))
    return 0


def _cmd_mindist_brute(args, spec) -> int:
    weight = codec.brute_force_min_weight(spec)
    print(f"brute-force minimum distance: {weight}")
    print(f"formula minimum distance: {min_distance(spec)}")
    return 0 if weight == min_distance(spec) else VALIDATION_ERROR


_COMMANDS = {
    "info": _cmd_info,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "pcheck": _cmd_pcheck,
    "density": _cmd_density,
    "anetf": _cmd_anetf,
    "mindist-brute": _cmd_mindist_brute,
}


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args, _load_spec(args))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, ValueError) as exc:  # includes ValidationError, InconsistentWordError
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
