"""Print the sha256 of the 26 Table 1 ANETF reports for one trials and seed.

The reports are `anetf.report_to_json` of `anetf.simulate` on each Table 1
row in both modes, capability first, fed in that order to one sha256.  The
first digest is taken with every order and stage `simulate` keeps between
calls kept, the second with `anetf._PERMS_BYTES` = 0, so that every one is
made afresh per batch.  The two must be equal, and equal from one commit to
the next when a change must keep reports byte-identical.

    python tools/table1_digest.py <trials> <seed>
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from eii import anetf  # noqa: E402
from eii.codespec import spec_from_capability  # noqa: E402
from eii.gf import field  # noqa: E402

# (capability, w, n) of the rows of Table 1, as in tests/test_acceptance.py
TABLE_1 = (
    ("(22)", 7, 84),
    ("(1,1,1,1,1,2,2,2,2,3,3,3)", 4, 7),
    ("((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 3, 7),
    ("(((1,1,2),(1,2,3)),((1,2,3),(1,2,3)))", 3, 7),
    ("(1,1,1,1,1,1,2,2,2,3,3,4)", 4, 7),
    ("(1,1,1,1,1,1,2,2,2,2,3,5)", 4, 7),
    ("((1,1,2),(1,1,2),(1,2,3),(1,2,5))", 3, 7),
    ("(((1,1,2),(1,2,3)),((1,1,2),(1,2,5)))", 3, 7),
    ("((1,1,2),(1,1,2),(1,2,2),(1,3,5))", 3, 7),
    ("(((1,1,2),(1,2,2)),((1,1,2),(1,3,5)))", 3, 7),
    ("(0,0,1,1,1,1,1,2,3,3,3,6)", 4, 7),
    ("(((0,0,1),(1,1,3)),((1,1,3),(2,3,6)))", 3, 7),
    ("(0,0,1,1,1,1,1,1,2,3,4,7)", 4, 7),
)


def digest(trials: int, seed: int) -> str:
    """sha256 of the 26 reports, from a record that keeps nothing yet."""
    anetf._kept_permutations.cache_clear()
    h = hashlib.sha256()
    for cap, w, n in TABLE_1:
        spec = spec_from_capability(field(w), cap, n)
        for mode in (anetf.CAPABILITY, anetf.PCHECK):
            h.update(anetf.report_to_json(anetf.simulate(anetf.AnetfConfig(spec, mode, trials, seed))).encode())
    return h.hexdigest()


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    trials, seed = int(argv[0]), int(argv[1])
    print(f"kept     {digest(trials, seed)}")
    anetf._PERMS_BYTES = 0
    print(f"streamed {digest(trials, seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
