"""100k-node smoke: a short run, gated on reuse, CSR builds and memory.

Builds the same topology-dominated RPCC configuration as the scale
benchmarks at **100 000 peers**, runs five simulated seconds, and
reduces the result to a digest (event count plus the integer and
rounded-float metrics), the committed golden
``tests/golden/scale_100k.json``: :func:`scale_digest` computes it and
``python tools/adopt.py scale_100k`` compares it with the tree.  This
script runs the other gates.  Between them:

* a crash, hang or memory blow-up at 100k nodes fails the job outright
  — "completes at 100k" is the first claim being smoked;
* any behavioural drift (engine fire order, topology, protocol) shows
  up in that comparison, exactly like the 20-node golden matrix but
  at the scale where the event heap is deepest and the zero-allocation
  paths actually carry the load;
* a run whose topology refreshes never reused their candidate pairs
  (``pair_list_reuses == 0``) fails too: the reuse path must not die
  silently at the size it matters most;
* so does a run that builds any full CSR (``soa.build_csr``): this run
  only floods, and from ``soa.ARRAY_REFRESH_MIN_NODES`` peers a flood
  reads the candidate pairs around its source, never every edge;
* a run whose peak resident set exceeds :data:`MAX_RSS_MIB` fails: this
  is the size at which bytes per host are gigabytes, so the smoke is
  also the memory gate (``tests/test_world_memory.py`` is its 2 000-host
  tier-1 twin).
"""

from __future__ import annotations

import argparse
import pathlib
import resource
import sys
import time
from typing import Dict, Optional, Sequence, Tuple

BENCH_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR.parent))

N_PEERS = 100_000
SIM_TIME = 5.0

#: Ceiling on the process's peak resident set (``ru_maxrss``), MiB.
#: About 6 % above what the tree measured when it was set (460 MiB with
#: the pair list's candidates tested a block at a time; 518 with every
#: grid candidate expanded at once; 519 with
#: one clock per process kind and the unwritten protocol maps shared;
#: 607 with an event per arrival stream and switch, 634–635 before the
#: TTN clock, with each host's streams parked until they draw; 1 329 with a
#: generator kept per stream, 1 399 before the seeds were derived on the
#: built-in SHA-256, 1 447 before the world was frozen out of the cyclic
#: collector, and 1 757 with dict-backed per-host state).
MAX_RSS_MIB = 488

def run_smoke() -> Tuple[Dict[str, object], Dict[str, int], int]:
    """One 100k-node run: its digest, its topology counters and the
    number of full CSRs built from the start of the build to the end."""
    from benchmarks.bench_scale import SPEC, scale_config
    from repro.experiments.runner import build_simulation
    from repro.net import soa
    from tests.expectations import summary_digest

    csr_builds = 0
    build_csr = soa.build_csr

    def counted_build_csr(*args, **kwargs):
        nonlocal csr_builds
        csr_builds += 1
        return build_csr(*args, **kwargs)

    soa.build_csr = counted_build_csr
    try:
        built_at = time.perf_counter()
        simulation = build_simulation(
            scale_config(N_PEERS, sim_time=SIM_TIME), SPEC, scenario="single_source"
        )
        run_at = time.perf_counter()
        result = simulation.run()
        done_at = time.perf_counter()
    finally:
        soa.build_csr = build_csr
    print(
        f"100k smoke: built in {run_at - built_at:.1f}s, "
        f"ran {SIM_TIME:.0f} simulated seconds in {done_at - run_at:.1f}s, "
        f"{result.events_processed} events"
    )
    print(f"100k smoke: peak resident set {peak_rss_mib():.0f} MiB "
          f"(ceiling {MAX_RSS_MIB})")
    stats = result.topology_stats
    print(
        f"100k smoke: {stats['snapshots_built']} topology rebuilds; pair list "
        f"{stats['pair_list_builds']} built, {stats['pair_list_reuses']} reused, "
        f"{stats['pair_list_reanchored']} re-anchored; "
        f"{csr_builds} full CSRs built"
    )
    digest: Dict[str, object] = {
        "n_peers": N_PEERS,
        "sim_time": SIM_TIME,
        "events_processed": result.events_processed,
        **summary_digest(result.summary),
    }
    return digest, stats, csr_builds


def scale_digest() -> Dict[str, object]:
    """The content of ``tests/golden/scale_100k.json``."""
    return run_smoke()[0]


def peak_rss_mib() -> float:
    """Peak resident set of this process so far (Linux: KiB -> MiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    _, stats, csr_builds = run_smoke()
    if stats["pair_list_reuses"] == 0:
        print("FAIL: no topology refresh reused its candidate pairs",
              file=sys.stderr)
        return 1
    if csr_builds:
        print(f"FAIL: the flood-only run built {csr_builds} full CSRs",
              file=sys.stderr)
        return 1
    if peak_rss_mib() > MAX_RSS_MIB:
        print(f"FAIL: peak resident set {peak_rss_mib():.0f} MiB is above "
              f"the committed ceiling of {MAX_RSS_MIB} MiB", file=sys.stderr)
        return 1
    print("OK: the run reused its candidate pairs, built no full CSR and "
          "stayed under the memory ceiling")
    return 0


if __name__ == "__main__":
    sys.exit(main())
