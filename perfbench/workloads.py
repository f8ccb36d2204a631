"""The four benchmark workloads.

Each workload is a closed loop with one caller.  Its work is cut into
passes; pass ``p`` depends only on ``(seed, p)``, so a run of any length is
a prefix of one deterministic sequence, and a traced replay of the first
passes sees exactly the inputs the untraced run saw.  Every call into the
library goes through the public attribute of a module in ``lib``, the
namespace :func:`run.load_library` returns.

- ``anetf-table1``: the 13 rows of the paper's Table 1 under both
  ``anetf.simulate`` modes.  Time goes to permutation generation and oracle
  walks in ``anetf``; codec and field scalar paths do no work.
- ``stripes-degraded``: byte stripes over GF(2^8), encoded and repaired by
  ``codec.decode`` and ``pcheck.pc_decode``; masks come round-robin from a
  small fixed pool, as when a failed device repeats its mask.
- ``stripes-scattered``: the same, but every stripe draws a fresh mask, so
  per-mask solve and triangulation stay on the critical path.
- ``design-sweep``: a sample of capability trees from the Table 1 design
  space, each taken from spec through parity-check matrix to a
  minimum-weight witness, with library caches cleared every pass.  The
  trees that hit the known ``build_parity_check`` crash are left out of the
  sample; :func:`probe_known_defects` tries the crash on every run instead.

Every timed figure is in reference seconds (see :class:`RefClock`).
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import random
import time
import traceback
from collections import Counter, defaultdict
from types import SimpleNamespace

# bound before any tracer is installed, so the reference slice is never counted
from numpy.random import Generator, Philox

# Table 1 of the paper: (capability, w, n, capability-mode ANETF,
# parity-check-mode ANETF); the same rows as tests/test_acceptance.py.
TABLE_1 = (
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
)
PCHECK_TOLERANCE = 0.2

# [84,62] stripe shapes over GF(2^8) with n = 7: 2-, 3- and 4-layer
STRIPE_SHAPES = (
    "(1,1,1,1,1,2,2,2,2,3,3,3)",
    "((1,1,2),(1,2,3),(1,2,3),(1,2,3))",
    "(((1,1,2),(1,2,3)),((1,2,3),(1,2,3)))",
)
STRIPE_W = 8
ROW_N = 7

ANETF_TRIALS = 1000        # trials per simulate call
SELF_CHECK_TRIALS = 64
STRIPES_PER_PASS = 24      # 8 per stripe shape
PAYLOAD_STRIPES = 1024     # the payload is 1024 stripes of data, cycled
MASK_POOL = 16             # masks per shape in stripes-degraded
DESIGNS_PER_PASS = 400
DESIGN_ROW_MAX = 6
DESIGN_REDUNDANCY = 22

KNOWN_FAILURES = (
    "design-sweep: every totally ordered tree with an all-zero block makes "
    "pcheck.build_parity_check raise ValueError('nothing to stack') "
    "(1,786 of 6,108 ordered trees); they are left out of the sample and the "
    "minimal repro is tried on every run (report: known_defects). Minimal repro: "
    "`eii info --capability '((0,0,0),(1,1,1))' --field 3 --n 7` succeeds, while "
    "`eii density` and `eii anetf --mode pcheck` on the same tree exit 2.",
    "capability-mode ANETF means differ from Table 1 in 11 of 13 rows "
    "(acceptance criterion 8); recorded, not gated.",
)


# -- reference clock -----------------------------------------------------------------
#
# On a shared host the processor's speed drifts by a fifth over tens of
# seconds while the process keeps its core, so raw durations of the same
# work differ between runs by more than any bound worth setting.  Every
# timed figure is therefore the calling thread's CPU time, rescaled by a
# fixed reference slice (no eii code) that runs every REF_EVERY_S of wall
# time: a duration measured while the latest slices took a median of r
# CPU seconds counts as duration * REF_NOMINAL_S / r.  REF_NOMINAL_S is
# about what the slice takes on a 2-core x86-64 VM, so figures stay near
# CPU-time values there.

cpu = time.thread_time
REF_NOMINAL_S = 0.004
REF_EVERY_S = 0.1
REF_WINDOW = 5          # the scale uses the median of the latest slices
REF_TABLE = [(i * 29) % 255 + 1 for i in range(512)]


def reference_slice() -> float:
    """Fixed work like the library's: table lookups, small-int arithmetic,
    dict stores and small numpy permutations.  Returns its CPU seconds."""
    t0 = cpu()
    acc, seen = 1, {}
    for i in range(12_000):
        acc = (acc * 3 + REF_TABLE[(acc + i) & 511]) & 1023
        seen[acc & 63] = i
    for key in range(25):
        perm = Generator(Philox(key=key)).permutation(84)
        int((perm[:40] * 3 % 7).sum())
    return cpu() - t0


class RefClock:
    """Thread CPU time in reference seconds."""

    def __init__(self):
        self.slices = []
        self.cpu_s = 0.0    # totals over every since() call
        self.ref_s = 0.0
        self.calibrate()

    def calibrate(self):
        self.slices.append(reference_slice())
        recent = sorted(self.slices[-REF_WINDOW:])
        self.scale = REF_NOMINAL_S / recent[len(recent) // 2]
        self.due = time.perf_counter() + REF_EVERY_S

    def tick(self):
        """Between requests: re-run the reference slice when it is due."""
        if time.perf_counter() >= self.due:
            self.calibrate()

    def since(self, t0: float) -> float:
        """Reference seconds since thread CPU time `t0`."""
        d = cpu() - t0
        self.cpu_s += d
        self.ref_s += d * self.scale
        return d * self.scale

    def cpu_per_ref_s(self) -> float:
        """CPU seconds per reference second over every measured duration."""
        return self.cpu_s / self.ref_s if self.ref_s else 0.0


ref = RefClock()


def pass_seed(seed: int, p: int) -> int:
    return (seed * 1_000_003 + p) % (1 << 63)


def clear_caches(lib):
    """Empty every memo cache in codespec, codec and pcheck (not gf.field)."""
    for mod in (lib.codespec, lib.codec, lib.pcheck):
        for obj in vars(mod).values():
            clear = getattr(obj, "cache_clear", None)
            if clear is not None:
                clear()


def correctable_prefix(lib, spec, order) -> tuple:
    """Longest prefix of `order` that `codec.correctable` accepts, sorted.

    Correctability is monotone under adding erasures, so a binary search
    over the prefix length finds it.
    """
    n = len(order)
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        mask = [False] * n
        for pos in order[:mid]:
            mask[pos] = True
        if lib.codec.correctable(spec, mask):
            lo = mid
        else:
            hi = mid - 1
    return tuple(sorted(order[:lo]))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    xs = sorted(values)
    if not xs:
        return 0.0
    return xs[min(len(xs) - 1, max(0, math.ceil(q * len(xs)) - 1))]


class Results:
    """What one phase of a run did: counts, latencies, digests, gate errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.items = 0              # work units completed: trials, stripes or designs
        self.busy = 0.0             # reference seconds inside timed library calls
        self.latencies = []         # reference seconds per completed request
        self.op_time = Counter()    # op kind -> reference seconds
        self.op_count = Counter()   # op kind -> completed calls
        self.errors = []            # wrong outputs: any entry fails the run
        self.failures = Counter()   # exception type -> count
        self.pass_digests = []      # per pass: {label: sha256 hex}
        self.pass_wall = []
        self.pass_rates = []        # per pass: work units per busy second
        self.props = Counter()      # workload-specific sums
        self.per_row = defaultdict(Counter)
        self.seen_masks = set()

    def fail(self, kind: str, exc: BaseException, attempted: int = 1):
        self.attempted += attempted
        self.failed += attempted
        self.failures[f"{kind}: {type(exc).__name__}: {exc}"] += attempted

    def call(self, kind: str, fn, *args, busy: bool = True):
        """Time one library call; the caller handles exceptions.

        `busy=False` is for calls the benchmark makes only to check outputs.
        """
        t0 = cpu()
        out = fn(*args)
        dt = ref.since(t0)
        ref.tick()
        self.op_time[kind] += dt
        self.op_count[kind] += 1
        if busy:
            self.busy += dt
        return out, dt

    def error(self, message: str):
        if len(self.errors) < 50:
            self.errors.append(message)
        else:
            self.props["errors_dropped"] += 1


# -- set-up shared by every workload ------------------------------------------------


def build_code(lib, cap: str, w: int, n: int, rows: Counter):
    spec = lib.codespec.spec_from_capability(lib.gf.field(w), cap, n)
    lib.codespec.validate(spec)
    pc = lib.pcheck.build_parity_check(spec)
    rows["constructed"] += pc.h.rows
    rows["kept"] += pc.reduced.rows
    return spec, pc


def stripe_round_trip(lib, tr, res: Results, spec, pc, data, mask, op: int):
    """Encode, verify, erase, decode two ways; returns the codeword or None."""
    codec, pcheck = lib.codec, lib.pcheck
    try:
        tr.begin("encode", op)
        word, latency = res.call("encode", codec.encode, spec, data)
        tr.begin("verify", op)
        ok, _ = res.call("verify", codec.is_codeword, spec, word, busy=False)
    except Exception as exc:  # a library failure is counted, the run goes on
        res.fail("encode", exc, attempted=3)
        return None
    res.attempted += 1
    if not ok:
        res.error(f"encoded stripe is not a codeword (op {op})")
    erased = word.with_erasures(mask)
    done = 0
    for kind, fn, args in (("decode", codec.decode, (spec, erased)),
                           ("pc_decode", pcheck.pc_decode, (pc, erased))):
        tr.begin(kind, op)
        try:
            out, dt = res.call(kind, fn, *args)
        except Exception as exc:
            res.fail(kind, exc)
            continue
        res.attempted += 1
        latency += dt
        done += 1
        if kind == "decode":
            out, report = out
            res.props["blocks"] += len(report.assignment)
            res.props["global_blocks"] += sum(1 for a in report.assignment if a > 0)
        if out != word:
            res.error(f"{kind} did not return the encoded stripe (op {op})")
    if done == 2:
        res.items += 1
        res.latencies.append(latency)
    return word


def self_check(lib, tr, seed: int, rows: Counter) -> list:
    """One code per depth (Table 1 rows 1-4) through every public entry point.

    A broken library fails here, before timing, and every layer's spans and
    counters are live in every workload's trace.
    """
    res = Results()
    rng = random.Random(f"self-check:{seed}")
    for i, (cap, w, n, _, _) in enumerate(TABLE_1[:4]):
        try:
            spec, pc = build_code(lib, cap, w, n, rows)
            op = tr.new_op(code=cap, depth=lib.codespec.layer_count(spec))
            dim = lib.codespec.dimension(spec)
            data = [rng.randrange(spec.ctx.q) for _ in range(dim)]
            order = list(range(lib.codespec.length(spec)))
            rng.shuffle(order)
            mask = correctable_prefix(lib, spec, order)
            stripe_round_trip(lib, tr, res, spec, pc, data, mask, op)
            tr.begin("design", op)
            lib.pcheck.density(pc)
            witness = lib.codec.min_weight_codeword(spec)
            weight = sum(1 for x in witness.symbols if x)
            if weight != lib.codespec.min_distance(spec) or not lib.codec.is_codeword(spec, witness):
                res.error(f"self-check {cap}: bad minimum-weight witness")
            means = {}
            for mode in (lib.anetf.CAPABILITY, lib.anetf.PCHECK):
                op = tr.new_op(code=cap, depth=lib.codespec.layer_count(spec), mode=mode)
                tr.begin("simulate", op)
                rep = lib.anetf.simulate(
                    lib.anetf.AnetfConfig(spec, mode, SELF_CHECK_TRIALS, pass_seed(seed, i)))
                if op in tr.ops:
                    tr.ops[op]["steps"] = sum(k * f for k, f in rep.histogram.items())
                means[mode] = rep.mean
            if means[lib.anetf.CAPABILITY] > means[lib.anetf.PCHECK]:
                res.error(f"self-check {cap}: capability mean above pcheck mean")
        except Exception:
            res.error(f"self-check {cap}: " + traceback.format_exc(limit=3))
    tr.begin("setup", -1)
    errors = res.errors + [f"self-check failure {k}" for k in res.failures]
    return errors


# -- anetf-table1 ----------------------------------------------------------------------


class AnetfTable1:
    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, lib, tr):
        rows = Counter()
        errors = self_check(lib, tr, self.seed, rows)
        codes = []
        for cap, w, n, want_c, want_p in TABLE_1:
            spec, _ = build_code(lib, cap, w, n, rows)
            codes.append((cap, spec, want_c, want_p, lib.codespec.layer_count(spec)))
        return SimpleNamespace(lib=lib, codes=codes, rows=rows, errors=errors)

    def run_pass(self, st, p: int, res: Results, tr):
        anetf = st.lib.anetf
        seed = pass_seed(self.seed, p)
        digests = {}
        for cap, spec, _, _, depth in st.codes:
            means = {}
            for mode in (anetf.CAPABILITY, anetf.PCHECK):
                op = tr.new_op(code=cap, depth=depth, mode=mode)
                tr.begin("simulate", op)
                config = anetf.AnetfConfig(spec, mode, ANETF_TRIALS, seed)
                try:
                    rep, dt = res.call("simulate." + mode, anetf.simulate, config)
                except Exception as exc:
                    res.fail("simulate", exc)
                    continue
                res.attempted += 1
                res.items += ANETF_TRIALS
                res.latencies.append(dt)
                steps = sum(k * f for k, f in rep.histogram.items())
                if op in tr.ops:
                    tr.ops[op]["steps"] = steps
                row = res.per_row[(cap, mode)]
                row["steps"] += steps
                row["trials"] += rep.trials
                means[mode] = rep.mean
                text = anetf.report_to_json(rep)
                digests[f"{cap} {mode}"] = hashlib.sha256(text.encode()).hexdigest()
            if len(means) == 2 and means[anetf.CAPABILITY] > means[anetf.PCHECK]:
                res.error(f"{cap}: capability mean {means[anetf.CAPABILITY]} above "
                          f"pcheck mean {means[anetf.PCHECK]} (pass {p})")
        res.pass_digests.append(digests)

    def finish(self, st, res: Results) -> dict:
        """Pooled Table 1 gate over every pass; capability deviations are only recorded."""
        anetf = st.lib.anetf
        deviations = {}
        for cap, _, want_c, want_p, _ in st.codes:
            pc = res.per_row[(cap, anetf.PCHECK)]
            cp = res.per_row[(cap, anetf.CAPABILITY)]
            if not pc["trials"] or not cp["trials"]:
                continue
            mean_p = pc["steps"] / pc["trials"]
            mean_c = cp["steps"] / cp["trials"]
            if abs(mean_p - want_p) > PCHECK_TOLERANCE:
                res.error(f"{cap}: pooled pcheck mean {mean_p:.3f} outside "
                          f"{want_p} +/- {PCHECK_TOLERANCE} over {pc['trials']} trials")
            deviations[cap] = {"capability": round(mean_c - want_c, 4),
                               "pcheck": round(mean_p - want_p, 4),
                               "trials": pc["trials"]}
        cap_s = res.op_time["simulate." + anetf.CAPABILITY]
        pc_s = res.op_time["simulate." + anetf.PCHECK]
        n = ANETF_TRIALS
        return {
            "anetf.trials_per_s": res.items / res.busy if res.busy else 0.0,
            "anetf.capability.trials_per_s":
                n * res.op_count["simulate." + anetf.CAPABILITY] / cap_s if cap_s else 0.0,
            "anetf.pcheck.trials_per_s":
                n * res.op_count["simulate." + anetf.PCHECK] / pc_s if pc_s else 0.0,
            "table1_deviation": deviations,
        }


# -- stripes-degraded / stripes-scattered ---------------------------------------------


class Stripes:
    stripe_bytes = 62

    def __init__(self, seed: int, fresh_masks: bool):
        self.seed = seed
        self.fresh_masks = fresh_masks

    def setup(self, lib, tr):
        rows = Counter()
        errors = self_check(lib, tr, self.seed, rows)
        codes = [build_code(lib, cap, STRIPE_W, ROW_N, rows) for cap in STRIPE_SHAPES]
        for spec, _ in codes:
            if lib.codespec.dimension(spec) != self.stripe_bytes:
                raise ValueError("stripe shapes must all be [84,62] codes")
        payload = random.Random(f"payload:{self.seed}").randbytes(PAYLOAD_STRIPES * self.stripe_bytes)
        pool = []
        if not self.fresh_masks:
            rng = random.Random(f"pool:{self.seed}")
            for spec, _ in codes:
                masks = []
                for _ in range(MASK_POOL):
                    order = list(range(lib.codespec.length(spec)))
                    rng.shuffle(order)
                    masks.append(correctable_prefix(lib, spec, order))
                pool.append(masks)
        return SimpleNamespace(lib=lib, codes=codes, rows=rows, errors=errors,
                               payload=payload, pool=pool)

    def _mask(self, st, shape: int, g: int, tr):
        if not self.fresh_masks:
            return st.pool[shape][(g // len(STRIPE_SHAPES)) % MASK_POOL]
        tr.begin("input", -1)
        spec = st.codes[shape][0]
        order = list(range(st.lib.codespec.length(spec)))
        random.Random(f"mask:{self.seed}:{g}").shuffle(order)
        return correctable_prefix(st.lib, spec, order)

    def run_pass(self, st, p: int, res: Results, tr):
        hashes = [hashlib.sha256() for _ in STRIPE_SHAPES]
        for i in range(STRIPES_PER_PASS):
            g = p * STRIPES_PER_PASS + i
            shape = g % len(STRIPE_SHAPES)
            spec, pc = st.codes[shape]
            start = (g % PAYLOAD_STRIPES) * self.stripe_bytes
            data = list(st.payload[start:start + self.stripe_bytes])
            mask = self._mask(st, shape, g, tr)
            res.props["stripes"] += 1
            res.props["erasures"] += len(mask)
            if (shape, mask) in res.seen_masks:
                res.props["repeated_masks"] += 1
            res.seen_masks.add((shape, mask))
            op = tr.new_op(code=STRIPE_SHAPES[shape])
            word = stripe_round_trip(st.lib, tr, res, spec, pc, data, mask, op)
            if word is not None:
                hashes[shape].update(bytes(word.symbols))
        res.pass_digests.append({cap: h.hexdigest() for cap, h in zip(STRIPE_SHAPES, hashes)})

    def finish(self, st, res: Results) -> dict:
        n = res.props["stripes"] or 1
        mb = self.stripe_bytes / 1e6

        def mbps(kind):
            t = res.op_time[kind]
            return res.op_count[kind] * mb / t if t else 0.0

        return {
            "encode.MBps": mbps("encode"),
            "decode.MBps": mbps("decode"),
            "pc_decode.MBps": mbps("pc_decode"),
            "mean_erasures_per_stripe": res.props["erasures"] / n,
            "repeated_mask_share": res.props["repeated_masks"] / n,
            "global_repair_share": res.props["global_blocks"] / (res.props["blocks"] or 1),
        }


# -- design-sweep --------------------------------------------------------------------


def design_space():
    """Four 3-row blocks, rows 0..6 sorted within a block, blocks as a multiset,
    total redundancy 22: the Table 1 design space (23,828 trees)."""
    triples = list(itertools.combinations_with_replacement(range(DESIGN_ROW_MAX + 1), 3))
    by_sum = defaultdict(list)
    for idx, t in enumerate(triples):
        by_sum[sum(t)].append(idx)
    out = []
    for a in range(len(triples)):
        for b in range(a, len(triples)):
            for c in range(b, len(triples)):
                rest = DESIGN_REDUNDANCY - sum(triples[a]) - sum(triples[b]) - sum(triples[c])
                cands = by_sum.get(rest, ())
                for d in cands[bisect.bisect_left(cands, c):]:
                    out.append((triples[a], triples[b], triples[c], triples[d]))
    return out


def totally_ordered(tree) -> bool:
    """Whether the blocks form a chain under entrywise <=."""
    blocks = sorted(tree)
    return all(all(x <= y for x, y in zip(a, b)) for a, b in zip(blocks, blocks[1:]))


def hits_known_crash(tree) -> bool:
    """The known defect: build_parity_check raises on these trees."""
    return (0, 0, 0) in tree and totally_ordered(tree)


KNOWN_CRASH_TREE = ((0, 0, 0), (1, 1, 1))


def probe_known_defects(lib) -> dict:
    """Try the minimal repro of the known crash; outside timing and counts."""
    try:
        spec = lib.codespec.spec_from_capability(lib.gf.field(3), KNOWN_CRASH_TREE, ROW_N)
        lib.codespec.validate(spec)
        lib.pcheck.build_parity_check(spec)
    except Exception as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    else:
        outcome = "no error"
    return {f"build_parity_check{KNOWN_CRASH_TREE}": outcome}


class DesignSweep:
    def __init__(self, seed: int):
        self.seed = seed
        self.space = [t for t in design_space() if not hits_known_crash(t)]

    def setup(self, lib, tr):
        rows = Counter()
        errors = self_check(lib, tr, self.seed, rows)
        return SimpleNamespace(lib=lib, ctx=lib.gf.field(3), rows=rows, errors=errors)

    def run_pass(self, st, p: int, res: Results, tr):
        trees = random.Random(f"designs:{self.seed}:{p}").sample(self.space, DESIGNS_PER_PASS)
        clear_caches(st.lib)
        h = hashlib.sha256()
        for tree in trees:
            op = tr.new_op(tree=str(tree))
            tr.begin("design", op)
            line = self._design(st, tree, res)
            ref.tick()
            h.update(f"{tree} {line}\n".encode())
        res.pass_digests.append({"designs": h.hexdigest()})

    def _design(self, st, tree, res: Results) -> str:
        lib, ctx = st.lib, st.ctx
        cs, pcheck, codec = lib.codespec, lib.pcheck, lib.codec
        ordered = totally_ordered(tree)
        res.attempted += 1
        res.props["ordered"] += ordered
        res.props["zero_block"] += (0, 0, 0) in tree
        t0 = cpu()
        try:
            spec = cs.spec_from_capability(ctx, tree, ROW_N)
            cs.validate(spec)
        except cs.ValidationError as exc:
            dt = ref.since(t0)
            res.busy += dt
            if ordered:
                res.error(f"{tree}: totally ordered tree rejected: {exc}")
            res.items += 1
            res.latencies.append(dt)
            res.props["rejected"] += 1
            return "rejected"
        try:
            n, k, d = cs.length(spec), cs.dimension(spec), cs.min_distance(spec)
            again = cs.spec_from_capability(ctx, cs.capability(spec), ROW_N)
            pc = pcheck.build_parity_check(spec)
            density = pcheck.density(pc)
            witness = codec.min_weight_codeword(spec)
            witness_ok = codec.is_codeword(spec, witness)
        except Exception as exc:  # counted against the attempted designs
            res.busy += ref.since(t0)
            res.failed += 1
            res.failures[f"design: {type(exc).__name__}: {exc}"] += 1
            return f"failed {type(exc).__name__}"
        dt = ref.since(t0)
        res.busy += dt
        weight = sum(1 for x in witness.symbols if x)
        if not ordered:
            res.error(f"{tree}: incomparable tree accepted")
        if (n, k) != (84, 84 - DESIGN_REDUNDANCY) or pc.reduced.rows != n - k:
            res.error(f"{tree}: got [N,k] = [{n},{k}], rank {pc.reduced.rows}")
        if again != spec:
            res.error(f"{tree}: capability round trip changed the spec")
        if weight != d or not witness_ok:
            res.error(f"{tree}: witness weight {weight}, min_distance {d}, codeword {witness_ok}")
        if not 0 < density <= 1:
            res.error(f"{tree}: density {density}")
        res.props["rows_constructed"] += pc.h.rows
        res.props["rows_kept"] += pc.reduced.rows
        res.items += 1
        res.latencies.append(dt)
        res.props["completed"] += 1
        return f"[{n},{k},{d}] {density!r} {pc.h.rows}"

    def finish(self, st, res: Results) -> dict:
        n = res.attempted or 1
        return {
            "catalog.designs_per_s": res.props["completed"] / res.busy if res.busy else 0.0,
            "ordered_share": res.props["ordered"] / n,
            "zero_block_share": res.props["zero_block"] / n,
            "rejected_share": res.props["rejected"] / n,
        }


WORKLOADS = {
    "anetf-table1": AnetfTable1,
    "stripes-degraded": lambda seed: Stripes(seed, fresh_masks=False),
    "stripes-scattered": lambda seed: Stripes(seed, fresh_masks=True),
    "design-sweep": DesignSweep,
}
