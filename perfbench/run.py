"""Benchmark for the eii library.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload stripes-degraded --seed 1 --seconds 20 --trace 0

One process, one thread, one caller.  The library is imported from
``src/`` of the checkout and driven only through its public module
attributes.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is a JSON report with the output digests, the workload's
input properties, the machine and the metrics named by use case.

With ``--trace 1`` the run first does exactly what ``--trace 0`` does, then
installs the tracer and replays its first passes; the trace is written to
``.perfbench-out/`` in the checkout at exit.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("gf", "words", "matrix", "codespec", "codec", "pcheck", "anetf", "cli")
SETUP_REPS = 7
REPLAY_SHARE = 0.3   # traced replay covers passes worth this share of --seconds
OUT_DIR = ".perfbench-out"
# p90, not p99: on a shared 2-core machine the p99 of stripe latency moved by
# half between seeds, while p90 keeps over 30 requests beyond it (a 20 s run
# has about 300 simulate calls, 4,000 stripes or 30,000 designs)
TAIL_Q = 0.90


def load_library():
    """Import eii afresh, so each set-up pays import and cache fills again."""
    for name in [n for n in sys.modules if n == "eii" or n.startswith("eii.")]:
        del sys.modules[name]
    importlib.import_module("eii")
    return SimpleNamespace(**{m: importlib.import_module(f"eii.{m}") for m in MODULES})


def run_passes(wl, st, tr, res, *, seconds=None, count=None):
    start = time.perf_counter()
    p = 0
    while True:
        t = time.perf_counter()
        items, busy = res.items, res.busy
        wl.run_pass(st, p, res, tr)
        res.pass_wall.append(time.perf_counter() - t)
        if res.busy > busy:
            res.pass_rates.append((res.items - items) / (res.busy - busy))
        p += 1
        if count is not None:
            if p >= count:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return time.perf_counter() - start


def end_to_end(res, setup_times) -> dict:
    lat = res.latencies
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_MB": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "items_per_s": (statistics.median(res.pass_rates) if res.pass_rates else 0.0, "1/s"),
        "latency_p50_ms": (workloads.percentile(lat, 0.5) * 1e3, "ms"),
        "latency_tail_ms": (workloads.percentile(lat, TAIL_Q) * 1e3, "ms"),
    }


def per_layer(tr, st, traced, overhead) -> dict:
    """Per-layer metrics from the set-up and replay spans and counters."""
    by_name, by_kind, top = Counter(), Counter(), Counter()
    sim_mode, sim_depth, steps = Counter(), Counter(), Counter()
    decode_ms = []
    for name, module, parent, op, kind, dur, self_t in tr.self_times():
        by_name[name] += self_t
        by_kind[module, kind] += self_t
        if parent < 0:
            top[name, kind] += 1
        if name == "codec.decode" and kind == "decode":
            decode_ms.append(dur * 1e3)
        if name == "anetf.simulate":
            meta = tr.ops[op]
            sim_mode[meta["mode"]] += self_t
            sim_depth[meta["depth"]] += self_t
    for meta in tr.ops.values():
        if "steps" in meta:
            steps[meta["mode"]] += meta["steps"]
    n_enc = top["codec.encode", "encode"] or 1
    n_ver = top["codec.is_codeword", "verify"] or 1
    n_dec = top["codec.decode", "decode"] or 1
    n_pcd = top["pcheck.pc_decode", "pc_decode"] or 1
    rows_c = st.rows["constructed"] + traced.props["rows_constructed"]
    rows_k = st.rows["kept"] + traced.props["rows_kept"]
    times = os.times()
    out = {
        "anetf.simulate.capability.s": (sim_mode["capability"], "s"),
        "anetf.simulate.pcheck.s": (sim_mode["pcheck"], "s"),
        "anetf.steps.capability": (steps["capability"], "count"),
        "anetf.steps.pcheck": (steps["pcheck"], "count"),
    }
    for mode in ("capability", "pcheck"):
        ns = sim_mode[mode] * 1e9 / steps[mode] if steps[mode] else 0.0
        out[f"anetf.ns_per_step.{mode}"] = (ns, "ns")
    for depth in (1, 2, 3, 4):
        out[f"anetf.simulate.depth{depth}.s"] = (sim_depth[depth], "s")
    out.update({
        "anetf.rng.philox_constructed": (tr.count("numpy.random.Philox"), "count"),
        "gf.mul.calls_per_stripe.encode": (tr.count("gf.mul", ("encode",)) / n_enc, "count"),
        "gf.mul.calls_per_stripe.decode": (tr.count("gf.mul", ("decode",)) / n_dec, "count"),
        "gf.alpha_pow.calls_per_stripe":
            (tr.count("gf.alpha_pow", ("encode", "decode")) / n_enc, "count"),
        "gf.inv.calls": (tr.count("gf.inv"), "count"),
        "codec.encode.s": (by_kind["codec", "encode"], "s"),
        "codec.decode.s": (by_kind["codec", "decode"], "s"),
        "codec.correctable.calls_per_stripe":
            (tr.count("codec.correctable", ("decode",)) / n_dec, "count"),
        "codec.is_codeword.s_per_stripe": (by_kind["codec", "verify"] / n_ver, "s"),
        "codec.decode.p50_ms": (workloads.percentile(decode_ms, 0.5), "ms"),
        "codec.decode.p99_ms": (workloads.percentile(decode_ms, 0.99), "ms"),
        "matrix.solve_erasures.s_per_stripe":
            (by_kind["matrix", "pc_decode"] / n_pcd, "s"),
        "pcheck.pc_decode.s": (by_kind["pcheck", "pc_decode"], "s"),
    })
    for name in ("codespec.spec_from_capability", "codespec.validate",
                 "pcheck.build_parity_check", "matrix.kronecker", "matrix.vandermonde",
                 "matrix.stack", "pcheck.density", "codec.min_weight_codeword"):
        out[name + ".s"] = (by_name[name], "s")
    out.update({
        "pcheck.rows_kept_share": (rows_k / rows_c if rows_c else 0.0, "share"),
        "proc.cpu_s": (times.user + times.system, "s"),
        "trace.overhead_s": (overhead, "s"),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eii" / "__init__.py").is_file():
        print(f"perfbench: no eii sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    tr = Tracer()

    ref = workloads.ref
    setup_times = []
    for rep in range(SETUP_REPS):
        ref.calibrate()
        t0 = workloads.cpu()
        lib = load_library()
        if args.trace and rep == SETUP_REPS - 1:
            tr.install(lib, np.random)
        try:
            st = wl.setup(lib, tr)
        finally:
            tr.uninstall()
        setup_times.append(ref.since(t0))

    # both phases start from the same cache state
    workloads.clear_caches(lib)
    res = workloads.Results()
    wall = run_passes(wl, st, tr, res, seconds=args.seconds)
    named = wl.finish(st, res)
    errors = st.errors + res.errors
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(res.pass_wall),
        "timed_wall_s": wall,
        "setup_s_each": setup_times,
        "cpu_s_per_ref_s": ref.cpu_per_ref_s(),
        "reference_slices": len(ref.slices),
        "failed_share": res.failed / res.attempted if res.attempted else 0.0,
        "named_metrics": named,
        "failures": dict(res.failures),
        "digests_first_pass": res.pass_digests[0] if res.pass_digests else {},
        "digest_all_passes": hashlib.sha256(
            json.dumps(res.pass_digests, sort_keys=True).encode()).hexdigest(),
        "known_failures": workloads.KNOWN_FAILURES,
        "known_defects": workloads.probe_known_defects(lib),
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
    }

    if args.trace:
        budget = REPLAY_SHARE * args.seconds
        k, acc = 0, 0.0
        while k < len(res.pass_wall) and (k == 0 or acc + res.pass_wall[k] <= budget):
            acc += res.pass_wall[k]
            k += 1
        traced = workloads.Results()
        workloads.clear_caches(lib)
        tr.install(lib, np.random)
        try:
            traced_wall = run_passes(wl, st, tr, traced, count=k)
        finally:
            tr.uninstall()
        overhead = traced_wall - sum(res.pass_wall[:k])
        same = traced.pass_digests == res.pass_digests[:k]
        if not same:
            errors.append("traced replay produced different output digests")
        errors.extend(traced.errors)
        report.update({"replayed_passes": k, "digests_match": same,
                       "trace_overhead_s": overhead})
        metrics = per_layer(tr, st, traced, overhead)
        out_dir = ROOT / OUT_DIR
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(tr.to_json()))
        report["trace_file"] = str(path.relative_to(ROOT))
    else:
        metrics = end_to_end(res, setup_times)

    report["errors"] = errors[:20]
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": not errors,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    for line in errors[:20]:
        print("perfbench: " + line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
