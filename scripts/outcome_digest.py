"""One sha256 per benchmark workload and seed over every operation's outcome.

Usage, from the root of a checkout:

    python3 scripts/outcome_digest.py [--seeds 1,2,3]

Each workload's corpus is built from the seed as perfbench builds it, and
every case is solved once by perfbench's ``run_operation``.  The digest
covers, per operation in corpus order, the case name, the status, both
iteration counts, the objective and the max violation as float hex, and
whether the operation passed.  Two checkouts whose digests agree reached the
same outcomes bit for bit; wall times are not part of the digest.  Prints
one line ``<workload> seed=<n> ops=<count> <sha256>`` per pair.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the package from this checkout's src/, perfbench's modules as it imports them
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS, run_operation  # noqa: E402


def outcome_line(op) -> str:
    return " ".join((
        op.case, op.status, str(op.pdhg_iterations), str(op.ipm_iterations),
        float(op.objective).hex(), float(op.max_violation).hex(), str(op.ok),
    ))


def digest(name: str, seed: int) -> tuple[int, str]:
    """(operations, sha256 of their outcome lines) for one workload and seed."""
    wl = WORKLOADS[name]
    h = hashlib.sha256()
    cases = wl.build(seed)
    for case in cases:
        h.update((outcome_line(run_operation(case, wl)) + "\n").encode())
    return len(cases), h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1")
    args = parser.parse_args(argv)
    for seed in (int(s) for s in args.seeds.split(",")):
        for name in WORKLOADS:
            ops, sha = digest(name, seed)
            print(f"{name} seed={seed} ops={ops} {sha}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
