"""Chaos demonstration: the hostile-world scenario matrix, narrated.

The chaos engine drops seeded, deterministic faults into every trust
seam of the architecture -- the DSP's disk, the client transport, the
raw socket under ``RemoteDSP``, the card boundary -- while real
workloads run: pulls, carousel broadcasts, revocation storms, a
republish racing an in-flight session, a crash-reopened SQLite store
after concurrent writers, admission-control flapping.

The invariant every cell must satisfy:

* an injected failure surfaces as its documented ``repro.errors``
  type (``TransportError``, ``TamperDetected``, ``ResourceExhausted``,
  ``GenerationChanged``) -- never a bare ``OSError``, never a hang;
* any view that *is* delivered is byte-identical to the fault-free
  golden;
* the system recovers: the next clean operation is golden again.

Run with::

    python examples/chaos_demo.py [--quick] [--seed N]

The same seed replays the same faults, so any red cell reproduces
from its printed ``(scenario, fault, seed)`` coordinates.
"""

import argparse
import sys

from repro.chaos import run_matrix


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run the CI subset of the matrix instead of every cell",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="fault-plan seed (default 0)"
    )
    args = parser.parse_args()

    flavor = "quick" if args.quick else "full"
    print(f"chaos matrix ({flavor}, seed {args.seed})")
    print("=" * 64)
    results = run_matrix(seeds=(args.seed,), quick=args.quick, deadline=60.0)

    for result in results:
        print(result)
        for line in result.fault_log.splitlines():
            print(f"    {line}")

    failed = [r for r in results if not r.ok]
    print("=" * 64)
    print(
        f"{len(results) - len(failed)}/{len(results)} cells green; "
        f"faults injected at every seam surfaced as typed errors or "
        f"healed to golden views"
    )
    if failed:
        print("FAILED cells:")
        for result in failed:
            print(f"  {result}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
