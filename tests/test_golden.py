"""Golden outputs: encoder codewords, decoder results and ANETF reports,
frozen as files.

`tests/golden/encode.json` holds, for every acceptance example code and the
three [84,62] stripe shapes over GF(2^8), seeded data vectors and their
codewords.  `tests/golden/decode.json` holds, for the same codes, seeded
codewords erased along a random order at two correctable and two
uncorrectable prefix lengths, with the decoder's outcome, assignment, peel
order and output word.  `tests/golden/anetf.json` holds `report_to_json`
for the 13 Table 1 rows under both oracles at a fixed seed.
`tests/golden/pcheck.json` holds, for the same codes and four codes in
which a leaf or a node contributes no rows, the shape and sha256 of the
as-constructed and reduced parity-check matrices and their density.
`tests/golden/capability.json` holds, for every tree of the Table 1 design
space and the 13 Table 1 rows, the outcome of `spec_from_capability`: the
spec's JSON or the exception's type and message, as a sha256 and outcome
counts.  Any change to the encoder, the decoder, the ANETF simulator, the
parity-check synthesis or the capability-tree builder that moves a single
symbol, row, block, count or message fails here.

Regenerate (only when a behaviour change is intended and justified):

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import itertools
import json
import random
from collections import Counter, defaultdict
from pathlib import Path

from eii import anetf, codec, pcheck
from eii.codespec import NodeSpec, dimension, length, spec_from_capability, spec_to_json
from eii.gf import field
from eii.words import word_to_text

from test_acceptance import G8, L12, TABLE_1, example_codes

GOLDEN = Path(__file__).parent / "golden"
STRIPE_SHAPES = (
    "(1,1,1,1,1,2,2,2,2,3,3,3)",
    "((1,1,2),(1,2,3),(1,2,3),(1,2,3))",
    "(((1,1,2),(1,2,3)),((1,2,3),(1,2,3)))",
)
WORDS_PER_CODE = 3
ANETF_SEED = 20260810
ANETF_TRIALS = 2_000


def golden_codes():
    codes = dict(example_codes())
    for cap in STRIPE_SHAPES:
        codes[f"stripe-gf256-{cap}"] = spec_from_capability(field(8), cap, 7)
    return codes


def encode_outputs() -> dict:
    out = {}
    for label, spec in golden_codes().items():
        rng = random.Random(f"golden:{label}")
        entries = []
        for _ in range(WORDS_PER_CODE):
            data = [rng.randrange(spec.ctx.q) for _ in range(dimension(spec))]
            entries.append({"data": " ".join(map(str, data)),
                            "codeword": word_to_text(codec.encode(spec, data))})
        out[label] = entries
    return out


def _ints(values) -> str:
    return " ".join(map(str, values))


def decode_outputs() -> dict:
    out = {}
    for label, spec in golden_codes().items():
        rng = random.Random(f"golden-decode:{label}")
        n = length(spec)
        entries = []
        for _ in range(WORDS_PER_CODE):
            word = codec.encode(spec, [rng.randrange(spec.ctx.q) for _ in range(dimension(spec))])
            order = rng.sample(range(n), n)
            masks = ([i in order[:f] for i in range(n)] for f in range(n + 1))
            first_bad = next(f for f, mask in enumerate(masks) if not codec.correctable(spec, mask))
            for cut in (first_bad - 1, rng.randint(0, first_bad - 1),
                        first_bad, rng.randint(first_bad, n)):
                erased = word.with_erasures(order[:cut])
                got, report = codec.decode(spec, erased)
                entries.append({"input": word_to_text(erased),
                                "outcome": report.outcome,
                                "assignment": _ints(report.assignment),
                                "peel_order": _ints(report.peel_order),
                                "output": word_to_text(got)})
        out[label] = entries
    return out


def anetf_outputs() -> dict:
    out = {}
    for cap, w, n, _, _ in TABLE_1:
        spec = spec_from_capability(field(w), cap, n)
        for mode in (anetf.CAPABILITY, anetf.PCHECK):
            config = anetf.AnetfConfig(spec, mode, ANETF_TRIALS, ANETF_SEED)
            out[f"{cap} {mode}"] = anetf.report_to_json(anetf.simulate(config))
    return out


def pcheck_codes():
    codes = golden_codes()
    # u = 0 leaves, and a node whose blocks all use child 0, add no rows
    for cap in ("((0,0,0),(1,1,1))", "(0,0,0)", "((0,0,0),(0,0,0))"):
        codes[f"gf8-{cap}"] = spec_from_capability(G8, cap, 7)
    codes["all-in-child-0"] = NodeSpec(G8, L12, (4, 0, 0))
    return codes


def _digest(m) -> dict:
    return {"shape": list(m.data.shape), "sha256": hashlib.sha256(m.data.tobytes()).hexdigest()}


def pcheck_outputs() -> dict:
    out = {}
    for label, spec in pcheck_codes().items():
        pc = pcheck.build_parity_check(spec)
        out[label] = {"h": _digest(pc.h), "reduced": _digest(pc.reduced),
                      "density": pcheck.density(pc)}
    return out


def design_space():
    """Four 3-row blocks, rows 0..6 sorted within a block, blocks as a
    multiset, total redundancy 22: the Table 1 design space (23,828 trees)."""
    triples = list(itertools.combinations_with_replacement(range(7), 3))
    by_sum = defaultdict(list)
    for idx, t in enumerate(triples):
        by_sum[sum(t)].append(idx)
    out = []
    for a, b, c in itertools.combinations_with_replacement(range(len(triples)), 3):
        rest = 22 - sum(triples[a]) - sum(triples[b]) - sum(triples[c])
        out.extend((triples[a], triples[b], triples[c], triples[d])
                   for d in by_sum.get(rest, ()) if d >= c)
    return out


def capability_outputs() -> dict:
    cases = [(tree, 3, 7) for tree in design_space()] + [(cap, w, n) for cap, w, n, _, _ in TABLE_1]
    h = hashlib.sha256()
    outcomes = Counter()
    for tree, w, n in cases:
        try:
            outcome = spec_to_json(spec_from_capability(field(w), tree, n))
            outcomes["spec"] += 1
        except Exception as exc:
            outcome = f"{type(exc).__name__}: {exc}"
            outcomes[type(exc).__name__] += 1
        h.update((json.dumps([str(tree), w, n, outcome]) + "\n").encode())
    return {"trees": len(cases), "sha256": h.hexdigest(), "outcomes": dict(sorted(outcomes.items()))}


def _load(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text())


def test_encoder_golden():
    want = _load("encode.json")
    got = encode_outputs()
    assert sorted(got) == sorted(want)
    for label, entries in want.items():
        for i, entry in enumerate(entries):
            assert got[label][i]["data"] == entry["data"], label
            assert got[label][i]["codeword"] == entry["codeword"], label


def test_decoder_golden():
    want = _load("decode.json")
    got = decode_outputs()
    assert sorted(got) == sorted(want)
    for label, entries in want.items():
        assert len(got[label]) == len(entries), label
        for i, entry in enumerate(entries):
            assert got[label][i] == entry, (label, i)


def test_anetf_golden():
    want = _load("anetf.json")
    got = anetf_outputs()
    assert sorted(got) == sorted(want)
    for key, text in want.items():
        assert got[key] == text, key


def test_pcheck_golden():
    want = _load("pcheck.json")
    got = pcheck_outputs()
    assert sorted(got) == sorted(want)
    for label, entry in want.items():
        assert got[label] == entry, label


def test_capability_golden():
    assert capability_outputs() == _load("capability.json")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "encode.json").write_text(json.dumps(encode_outputs(), indent=1) + "\n")
    (GOLDEN / "decode.json").write_text(json.dumps(decode_outputs(), indent=1) + "\n")
    (GOLDEN / "anetf.json").write_text(json.dumps(anetf_outputs(), indent=1) + "\n")
    (GOLDEN / "pcheck.json").write_text(json.dumps(pcheck_outputs(), indent=1) + "\n")
    (GOLDEN / "capability.json").write_text(json.dumps(capability_outputs(), indent=1) + "\n")
