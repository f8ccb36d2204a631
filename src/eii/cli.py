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


def _add_spec_arguments(sub):
    sub.add_argument("--spec", metavar="FILE", help="JSON code description")
    sub.add_argument("--capability", metavar="TREE",
                     help="capability string such as ((1,1,2),(1,2,3))")
    sub.add_argument("--field", type=int, metavar="W",
                     help="extension degree for --capability (GF(2^W))")
    sub.add_argument("--n", type=int, metavar="N", dest="row_length",
                     help="innermost row length for --capability")


def _load_spec(args):
    if bool(args.spec) == bool(args.capability):
        raise UsageError("give exactly one spec source: --spec FILE or --capability TREE")
    if args.spec:
        return spec_from_json(Path(args.spec).read_text())
    if args.field is None or args.row_length is None:
        raise UsageError("--capability needs --field W and --n N")
    return spec_from_capability(field(args.field), args.capability, args.row_length)


def _write_output(args, text: str):
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="eii", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("info", help="print [N, k, d] and code structure")
    _add_spec_arguments(p)

    p = subs.add_parser("encode", help="systematic encode a data file")
    _add_spec_arguments(p)
    p.add_argument("--data", required=True, metavar="FILE",
                   help="whitespace-separated data symbols, length k")
    p.add_argument("--output", metavar="FILE")

    p = subs.add_parser("decode", help="erasure-decode a word file")
    _add_spec_arguments(p)
    p.add_argument("--word", required=True, metavar="FILE",
                   help="word file; ? marks an erasure")
    p.add_argument("--erasures", metavar="LIST",
                   help="extra erased positions, comma-separated zero-based indices")
    p.add_argument("--mode", choices=("alg", "pcheck"), default="alg")
    p.add_argument("--output", metavar="FILE")

    p = subs.add_parser("pcheck", help="print the parity-check matrix")
    _add_spec_arguments(p)
    p.add_argument("--reduce", action="store_true", help="drop dependent rows")
    p.add_argument("--format", choices=("csv", "alist"), default="csv")
    p.add_argument("--output", metavar="FILE")

    p = subs.add_parser("density", help="nonzero density of the parity-check matrix")
    _add_spec_arguments(p)

    p = subs.add_parser("anetf", help="Monte-Carlo average number of erasures to failure")
    _add_spec_arguments(p)
    p.add_argument("--trials", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=anetf.MODES, default=anetf.CAPABILITY)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", metavar="FILE")

    p = subs.add_parser("mindist-brute", help="exhaustive minimum-distance check")
    _add_spec_arguments(p)

    return parser


def _cmd_info(args) -> int:
    spec = _load_spec(args)
    print(f"[{length(spec)}, {dimension(spec)}, {min_distance(spec)}]")
    print(f"field: GF(2^{spec.ctx.w})")
    print(f"layers: {layer_count(spec)}")
    print(f"levels: {level_count(spec)}")
    print(f"capability: {capability_to_string(capability(spec))}")
    return 0


def _cmd_encode(args) -> int:
    spec = _load_spec(args)
    data = [int(tok) for tok in Path(args.data).read_text().split()]
    word = codec.encode(spec, data)
    _write_output(args, word_to_text(word) + "\n")
    return 0


def _cmd_decode(args) -> int:
    spec = _load_spec(args)
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


def _cmd_pcheck(args) -> int:
    spec = _load_spec(args)
    pc = pcheck.build_parity_check(spec)
    h = pc.reduced if args.reduce else pc.h
    text = mx.to_csv(h) if args.format == "csv" else mx.to_alist(h)
    _write_output(args, text)
    return 0


def _cmd_density(args) -> int:
    spec = _load_spec(args)
    pc = pcheck.build_parity_check(spec)
    nz = pc.h.nonzero_count()
    total = pc.h.rows * pc.h.cols
    density = pcheck.density(pc)
    print(f"{nz}/{total} = {density:.6f} ({100 * density:.2f}%)")
    return 0


def _cmd_anetf(args) -> int:
    spec = _load_spec(args)
    config = anetf.AnetfConfig(spec, args.mode, args.trials, args.seed)
    report = anetf.simulate(config)
    if args.format == "json":
        _write_output(args, anetf.report_to_json(report) + "\n")
    else:
        _write_output(args, anetf.report_to_text(report))
    return 0


def _cmd_mindist_brute(args) -> int:
    spec = _load_spec(args)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return _COMMANDS[args.command](args)
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
