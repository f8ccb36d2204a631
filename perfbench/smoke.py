"""Smoke test for the benchmark: short runs of every workload.

    python3 perfbench/smoke.py
    python -m pytest -q perfbench/smoke.py

Checks that each run exits 0 with a correct result whose metric names and
units match BENCHMARK.json, that a traced run replays with identical
digests, and that a tree without sources exits non-zero with no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root: Path, workload: str, trace: int, seconds: str = "1"):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc


def _check_result(proc, section: str):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0, report["failures"]
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if section == "end_to_end":
            assert m["value"] > 0, name
    return report


def test_untraced_every_workload():
    for wl in SPEC["workloads"]:
        report = _check_result(_run(ROOT, wl["name"], 0), "end_to_end")
        assert report["passes"] >= 1 and report["digests_first_pass"]


def test_traced_replay_matches():
    report = _check_result(_run(ROOT, "stripes-scattered", 1), "per_layer")
    assert report["digests_match"] is True
    assert (ROOT / report["trace_file"]).is_file()


def test_first_pass_digest_is_independent_of_run_length():
    a = json.loads(_run(ROOT, "design-sweep", 0, "0.1").stdout.splitlines()[-2])["report"]
    b = json.loads(_run(ROOT, "design-sweep", 0, "1").stdout.splitlines()[-2])["report"]
    assert a["digests_first_pass"] == b["digests_first_pass"]


def test_fails_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, root / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(root, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""


if __name__ == "__main__":
    for test in (test_untraced_every_workload, test_traced_replay_matches,
                 test_first_pass_digest_is_independent_of_run_length, test_fails_without_sources):
        test()
        print(f"ok {test.__name__}")
