"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy Monte-Carlo checks live in criterion 8, about 25 s on a shared 2-core
x86-64 VM; criteria 6 and 4 take 4-16 s there, and the rest complete in
seconds.
"""

import random
import time

from eii import anetf, codec, pcheck
from eii.cli import run as cli_run
from eii.codespec import (
    LeafSpec,
    NodeSpec,
    dimension,
    length,
    min_distance,
    spec_from_capability,
)
from eii.gf import field

G4 = field(2)
G8 = field(3)
G16 = field(4)
G128 = field(7)

L12 = (LeafSpec(G8, 7, 1), LeafSpec(G8, 7, 2))
L123 = (LeafSpec(G8, 7, 1), LeafSpec(G8, 7, 2), LeafSpec(G8, 7, 3))

# the worked decode/encode examples use row codes [7,6],[7,5],[7,3],[7,2]
EX1_DECODE = NodeSpec(
    G8,
    (LeafSpec(G8, 7, 1), LeafSpec(G8, 7, 2), LeafSpec(G8, 7, 4), LeafSpec(G8, 7, 5)),
    (2, 1, 1, 2, 1),
)

EX1_GRID = {0: [1, 3, 4, 5, 6], 1: list(range(7)), 2: [2], 3: [1, 3, 5, 6],
            4: [0, 1, 3, 4, 6], 5: [5], 6: [3, 5]}


def example_codes():
    """The paper's example codes, keyed by a short label."""
    codes = {
        "ex1": EX1_DECODE,
        "ex3-c20": NodeSpec(G8, L12, (5, 1, 0)),
        "ex3-c21": NodeSpec(G8, L12, (4, 2, 0)),
        "ex3-c3": spec_from_capability(G8, "((1,1,1,1,1,2),(1,1,1,1,2,2))", 7),
        "ex4-c20": NodeSpec(G8, L123, (2, 1, 0, 0)),
        "ex4-c21": NodeSpec(G8, L123, (1, 1, 1, 0)),
        "ex4-c3": spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7),
        "ex4-flat": spec_from_capability(G16, "(1,1,1,1,1,2,2,2,2,3,3,3)", 7),
        "ex5-c21": NodeSpec(G8, L12, (1, 1, 1)),
        "ex5-c3": spec_from_capability(G8, "((1,1,2),(1,1,2),(1,1,2),(1,2,7))", 7),
        "ex6-c40": spec_from_capability(G8, "(((1,1,2),(1,2,3)),((1,2,3),(1,2,3)))", 7),
        "d6": spec_from_capability(G8, "(((1,1,2),(1,2,3)),((1,1,2),(1,2,5)))", 7),
        "d7": spec_from_capability(G8, "(((0,0,1),(1,1,3)),((1,1,3),(2,3,6)))", 7),
    }
    return codes


def _report(number, detail, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number}] {status} - {detail}")
    for f in failures:
        print(f"    {f}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def random_codeword(spec, rng):
    return codec.encode(spec, [rng.randrange(spec.ctx.q) for _ in range(dimension(spec))])


def sample_correctable_positions(spec, rng):
    """Random prefix of a random erasure order, cut before the first failure."""
    order = list(range(length(spec)))
    rng.shuffle(order)
    good = order[: anetf.erasures_to_failure(spec, anetf.CAPABILITY, order) - 1]
    return good[: rng.randint(0, len(good))]


# -- criterion 1: golden [N, k, d] table ---------------------------------------


def test_criterion_1_golden_table(capsys):
    golden = [
        # Example 1 with the printed dimension 25 pairs with row codes
        # [7,6],[7,5],[7,4],[7,2] (redundancies 1,2,3,5)
        ("(1,1,2,3,5,5,7)", 3, 7, "[49, 25, 12]"),
        ("(1,1,1,1,1,2)", 3, 7, "[42, 35, 3]"),
        ("(1,1,1,1,2,2)", 3, 7, "[42, 34, 3]"),
        ("((1,1,1,1,1,2),(1,1,1,1,2,2))", 3, 7, "[84, 69, 3]"),
        ("(1,1,2)", 3, 7, "[21, 17, 3]"),
        ("(1,2,3)", 3, 7, "[21, 15, 4]"),
        ("((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 3, 7, "[84, 62, 4]"),
        ("(1,2,7)", 3, 7, "[21, 11, 6]"),
        ("((1,1,2),(1,1,2),(1,1,2),(1,2,7))", 3, 7, "[84, 62, 6]"),
        ("((1,1,2),(1,2,3))", 3, 7, "[42, 32, 4]"),
        ("((1,2,3),(1,2,3))", 3, 7, "[42, 30, 4]"),
        ("(((1,1,2),(1,2,3)),((1,2,3),(1,2,3)))", 3, 7, "[84, 62, 4]"),
        ("(((1,1,2),(1,2,3)),((1,1,2),(1,2,5)))", 3, 7, "[84, 62, 6]"),
        ("(((0,0,1),(1,1,3)),((1,1,3),(2,3,6)))", 3, 7, "[84, 62, 7]"),
    ]
    start = time.time()
    failures = []
    for cap, w, n, expected in golden:
        code = cli_run(["info", "--capability", cap, "--field", str(w), "--n", str(n)])
        out = capsys.readouterr().out
        first = out.splitlines()[0] if out else "<no output>"
        if code != 0 or first != expected:
            failures.append(f"{cap}: got {first!r}, want {expected!r}")
    elapsed = time.time() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _report(1, f"golden [N,k,d] table, {len(golden)} codes in {elapsed:.2f}s", failures)


# -- criterion 2: parity-check shapes and ranks ------------------------------------


def test_criterion_2_parity_shapes():
    c20_e11 = NodeSpec(G8, L123, (4, 1, 0, 0))
    c21_e11 = NodeSpec(G8, L123, (3, 2, 0, 0))
    c22_e11 = NodeSpec(G8, L123, (3, 1, 1, 0))
    ex12 = NodeSpec(
        G8,
        (
            NodeSpec(G8, (c20_e11, c21_e11, c22_e11), (2, 2, 0, 0)),
            NodeSpec(G8, (c20_e11, c21_e11, c22_e11), (2, 1, 1, 0)),
            NodeSpec(G8, (c20_e11, c21_e11, c22_e11), (1, 2, 1, 0)),
        ),
        (1, 1, 1, 0),
    )
    shaped = [
        ("Ex7", spec_from_capability(G8, "((1,1,1,1,1,2),(1,1,1,1,2,2))", 7), (15, 84), None),
        ("Ex8", spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7), (22, 84), None),
        ("Ex9-2layer", NodeSpec(G8, L12, (1, 1, 1)), (12, 21), 10),
        ("Ex9-3layer", spec_from_capability(G8, "((1,1,2),(1,1,2),(1,1,2),(1,2,7))", 7), (24, 84), 22),
        ("Ex10", spec_from_capability(G8, "(((1,1,2),(1,2,3)),((1,2,3),(1,2,3)))", 7), (22, 84), None),
        ("Ex11-a", NodeSpec(G8, (c20_e11, c21_e11), (2, 2, 0)), (26, 140), None),
        ("Ex11-b", NodeSpec(G8, (c20_e11, c21_e11, c22_e11), (2, 1, 1, 0)), (27, 140), None),
        ("Ex11-c", NodeSpec(G8, (c20_e11, c21_e11, c22_e11), (1, 2, 1, 0)), (28, 140), None),
        ("Ex12", ex12, (81, 420), None),
    ]
    failures = []
    for name, spec, shape, rank_after in shaped:
        pc = pcheck.build_parity_check(spec)
        if (pc.h.rows, pc.h.cols) != shape:
            failures.append(f"{name}: shape {(pc.h.rows, pc.h.cols)} != {shape}")
        want_rank = length(spec) - dimension(spec)
        if pc.rank != want_rank:
            failures.append(f"{name}: rank {pc.rank} != N-k = {want_rank}")
        if rank_after is not None and pc.reduced.rows != rank_after:
            failures.append(f"{name}: reduced rows {pc.reduced.rows} != {rank_after}")
    for name, spec in example_codes().items():
        pc = pcheck.build_parity_check(spec)
        if pc.rank != length(spec) - dimension(spec):
            failures.append(f"{name}: rank != N-k")
    _report(2, "parity-check shapes, ranks and reductions", failures)


# -- criterion 3: density -----------------------------------------------------------


def test_criterion_3_density():
    c20 = NodeSpec(G8, L123, (4, 1, 0, 0))
    c21 = NodeSpec(G8, L123, (3, 2, 0, 0))
    c22 = NodeSpec(G8, L123, (3, 1, 1, 0))
    ex12 = NodeSpec(
        G8,
        (
            NodeSpec(G8, (c20, c21, c22), (2, 2, 0, 0)),
            NodeSpec(G8, (c20, c21, c22), (2, 1, 1, 0)),
            NodeSpec(G8, (c20, c21, c22), (1, 2, 1, 0)),
        ),
        (1, 1, 1, 0),
    )
    failures = []
    pc = pcheck.build_parity_check(ex12)
    if pc.h.nonzero_count() != 2940 or pc.h.rows * pc.h.cols != 34020:
        failures.append(
            f"81x420 density {pc.h.nonzero_count()}/{pc.h.rows * pc.h.cols} != 2940/34020"
        )
    trio = [
        ("2-layer", spec_from_capability(G16, "(0,0,1,1,1,1,1,2,3,3,3,6)", 7), 100.0),
        ("3-layer", spec_from_capability(G8, "((0,0,1),(1,1,3),(1,1,3),(2,3,6))", 7), 86.0),
        ("4-layer", spec_from_capability(G8, "(((0,0,1),(1,1,3)),((1,1,3),(2,3,6)))", 7), 56.0),
    ]
    for name, spec, expect_pct in trio:
        got = 100.0 * pcheck.density(pcheck.build_parity_check(spec))
        if abs(got - expect_pct) > 2.0:
            failures.append(f"{name} density {got:.2f}% outside {expect_pct}% +/- 2")
    _report(3, "density: 2940/34020 exact and the 100/86/56 trio", failures)


# -- criterion 4: decoder round-trips --------------------------------------------------


def test_criterion_4_round_trips():
    rng = random.Random(20260810)
    start = time.time()
    failures = []
    trials = 1000
    for name, spec in example_codes().items():
        bad = 0
        for _ in range(trials):
            word = random_codeword(spec, rng)
            positions = sample_correctable_positions(spec, rng)
            out, report = codec.decode(spec, word.with_erasures(positions))
            if report.outcome != codec.RECOVERED or out != word:
                bad += 1
        if bad:
            failures.append(f"{name}: {bad}/{trials} round-trip failures")
    elapsed = time.time() - start
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds 1 minute")
    _report(4, f"{trials} decode round-trips per code, {elapsed:.1f}s", failures)


# -- criterion 5: worked-example replay -------------------------------------------------


def test_criterion_5_worked_examples():
    failures = []
    rng = random.Random(49)
    word = random_codeword(EX1_DECODE, rng)
    erased = word.with_erasures(
        [r * 7 + c for r, cols in EX1_GRID.items() for c in cols]
    )
    out, report = codec.decode(EX1_DECODE, erased)
    if report.outcome != codec.RECOVERED or out != word:
        failures.append("Example 1 grid did not decode back to the codeword")
    if report.assignment != (3, 4, 0, 2, 3, 0, 1):
        failures.append(
            f"assignment {report.assignment} != S0={{2,5}} S1={{6}} S2={{3}} S3={{0,4}} S4={{1}}"
        )
    mask = codec.parity_mask(EX1_DECODE)
    grid = [tuple(mask[r * 7:(r + 1) * 7]) for r in range(7)]
    expected = [
        (False,) * 6 + (True,),
        (False,) * 6 + (True,),
        (False,) * 5 + (True,) * 2,
        (False,) * 3 + (True,) * 4,
        (False,) * 2 + (True,) * 5,
        (False,) * 2 + (True,) * 5,
        (True,) * 7,
    ]
    if grid != expected:
        failures.append("Example 2 data/parity layout does not match the printed grid")
    _report(5, "Example 1 partition replay and Example 2 layout", failures)


# -- criterion 6: decoder dominance -----------------------------------------------------


def test_criterion_6_dominance():
    rng = random.Random(606)
    failures = []
    masks_per_code = 10_000
    for name, spec in example_codes().items():
        n = length(spec)
        pc = pcheck.build_parity_check(spec)
        word = random_codeword(spec, rng)
        violations = 0
        accepted = 0
        for _ in range(masks_per_code):
            weight = rng.randint(0, n)
            positions = rng.sample(range(n), weight)
            mask = [False] * n
            for p in positions:
                mask[p] = True
            if not codec.correctable(spec, mask):
                continue
            accepted += 1
            if pcheck.pc_decode(pc, word.with_erasures(positions)) != word:
                violations += 1
        if violations:
            failures.append(f"{name}: {violations} capability-accepted masks failed pc_decode")
        if accepted == 0:
            failures.append(f"{name}: sampler produced no accepted masks")
    _report(6, f"dominance on {masks_per_code} random masks per code", failures)


# -- criterion 7: brute-force distance oracle --------------------------------------------


def test_criterion_7_brute_force_distance():
    failures = []
    desk = NodeSpec(G4, (LeafSpec(G4, 3, 1),), (1, 1))
    if dimension(desk) != 2:
        failures.append(f"desk-scale code dimension {dimension(desk)} != 2")
    words = set()
    import itertools
    for data in itertools.product(range(4), repeat=2):
        words.add(codec.encode(desk, list(data)).symbols)
    if len(words) != 16:
        failures.append(f"enumerated {len(words)} codewords, want 16")
    min_wt = min(sum(1 for s in w if s) for w in words if any(w))
    if min_wt != 4 or min_distance(desk) != 4:
        failures.append(f"desk-scale min weight {min_wt} vs formula {min_distance(desk)}")

    tiny = [
        NodeSpec(G4, (LeafSpec(G4, 3, 1), LeafSpec(G4, 3, 2)), (1, 1, 1)),
        NodeSpec(G4, (LeafSpec(G4, 3, 1), LeafSpec(G4, 3, 2)), (2, 1, 0)),
        NodeSpec(
            G4,
            (
                NodeSpec(G4, (LeafSpec(G4, 3, 1),), (2, 0)),
                NodeSpec(G4, (LeafSpec(G4, 3, 1),), (1, 1)),
            ),
            (1, 1, 0),
        ),
    ]
    for i, spec in enumerate(tiny):
        total = spec.ctx.q ** dimension(spec)
        if total > 1 << 16:
            failures.append(f"tiny spec {i}: q^k = {total} exceeds 2^16")
            continue
        brute = codec.brute_force_min_weight(spec)
        if brute != min_distance(spec):
            failures.append(f"tiny spec {i}: brute {brute} != formula {min_distance(spec)}")
    _report(7, "exhaustive minimum-distance oracle on desk-scale codes", failures)


# -- criterion 8: ANETF Table 1 -----------------------------------------------------------


TABLE_1 = [
    ("(22)", 7, 84, 23.0, 23.0),
    ("(1,1,1,1,1,2,2,2,2,3,3,3)", 4, 7, 16.6, 18.6),
    ("((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 3, 7, 15.0, 17.0),
    ("(((1,1,2),(1,2,3)),((1,2,3),(1,2,3)))", 3, 7, 15.0, 17.0),
    ("(1,1,1,1,1,1,2,2,2,3,3,4)", 4, 7, 18.8, 20.8),
    ("(1,1,1,1,1,1,2,2,2,2,3,5)", 4, 7, 18.0, 21.1),
    ("((1,1,2),(1,1,2),(1,2,3),(1,2,5))", 3, 7, 16.3, 20.5),
    ("(((1,1,2),(1,2,3)),((1,1,2),(1,2,5)))", 3, 7, 15.4, 19.9),
    ("((1,1,2),(1,1,2),(1,2,2),(1,3,5))", 3, 7, 15.0, 20.5),
    ("(((1,1,2),(1,2,2)),((1,1,2),(1,3,5)))", 3, 7, 14.6, 20.3),
    ("(0,0,1,1,1,1,1,2,3,3,3,6)", 4, 7, 17.5, 22.7),
    ("(((0,0,1),(1,1,3)),((1,1,3),(2,3,6)))", 3, 7, 11.8, 22.3),
    ("(0,0,1,1,1,1,1,1,2,3,4,7)", 4, 7, 15.9, 22.6),
]

TRIALS = 200_000
SEED = 20260810


def test_criterion_8_anetf_table():
    failures = []
    details = []
    for cap, w, n, want_cap, want_pc in TABLE_1:
        spec = spec_from_capability(field(w), cap, n)
        row_start = time.time()
        rep_c = anetf.simulate(anetf.AnetfConfig(spec, anetf.CAPABILITY, TRIALS, SEED))
        rep_p = anetf.simulate(anetf.AnetfConfig(spec, anetf.PCHECK, TRIALS, SEED))
        row_time = time.time() - row_start
        line = (f"{cap}: capability {rep_c.mean:.3f} (table {want_cap}), "
                f"pcheck {rep_p.mean:.3f} (table {want_pc}), {row_time:.0f}s")
        details.append(line)
        if abs(rep_c.mean - want_cap) > 0.2:
            failures.append(
                f"{cap}: capability mean {rep_c.mean:.3f} outside {want_cap} +/- 0.2"
            )
        if abs(rep_p.mean - want_pc) > 0.2:
            failures.append(f"{cap}: pcheck mean {rep_p.mean:.3f} outside {want_pc} +/- 0.2")
        if row_time >= 600:
            failures.append(f"{cap}: row runtime {row_time:.0f}s exceeds 10 minutes")
    for line in details:
        print("    " + line)
    _report(8, f"ANETF Table 1, {TRIALS} trials per row and mode", failures)


# -- criterion 9: determinism ---------------------------------------------------------------


def test_criterion_9_determinism(monkeypatch):
    failures = []
    spec = spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    for mode in (anetf.CAPABILITY, anetf.PCHECK):
        config = anetf.AnetfConfig(spec, mode, trials=2000, seed=99)
        texts = set()
        jsons = set()
        for batch in (2000, 128, 777):  # different internal batching
            monkeypatch.setattr(anetf, "_batch_trials", lambda spec, mode: batch)
            report = anetf.simulate(config)
            texts.add(anetf.report_to_text(report))
            jsons.add(anetf.report_to_json(report))
        if len(texts) != 1 or len(jsons) != 1:
            failures.append(f"{mode}: reports differ across internal batching")
    _report(9, "byte-identical reports for fixed (seed, trials, mode)", failures)
