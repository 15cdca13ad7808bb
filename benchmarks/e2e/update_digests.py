"""Record this checkout's digests for the default seed as the expected ones.

    python3 benchmarks/e2e/update_digests.py

For the change that alters simulated results on purpose; it says why they
moved.  Every panel member runs twice and the two runs have to agree, and
``digests.json`` is rewritten whole, so no stale entry survives.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    results = run.measure(
        WORKLOADS, run.DEFAULT_SEED, repeats=2 * run.PANEL, layers=False, expected={}
    )
    failures = [
        f"{result['workload']}: {failure}"
        for result in results for failure in result["failures"]
    ]
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    digests = {
        run.digest_key(workload, int(member), False): digest
        for workload, result in zip(WORKLOADS, results)
        for member, digest in result["digests"].items()
    }
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
