"""repro — a full reproduction of RPCC (Cao, Zhang, Xie & Cao, ICDCS 2005).

*Consistency of Cooperative Caching in Mobile Peer-to-Peer Systems over
MANET* proposes **RPCC** (Relay Peer-based Cache Consistency): stable,
capable peers are promoted to *relay peers* that sit between each data
item's source host and its cache nodes; the source pushes invalidations
and updates to the relays while cache nodes pull from nearby relays,
serving strong/Δ/weak consistency adaptively.

This package contains everything needed to reproduce the paper end to end
on a laptop:

* :mod:`repro.sim` — deterministic discrete-event kernel (GloMoSim stand-in);
* :mod:`repro.mobility` — terrain + random-waypoint movement;
* :mod:`repro.net` — disc-model MANET with multi-hop routing and flooding;
* :mod:`repro.energy`, :mod:`repro.cache`, :mod:`repro.peers` — the
  per-host substrates;
* :mod:`repro.consistency` — the RPCC protocol plus the simple push/pull
  baselines it is evaluated against, and the variants for the paper's
  Section 6 future-work directions, registered as specs
  (``rpcc-controlled-sc``, ``push-uir``, ...) next to the stock ones;
* :mod:`repro.workload`, :mod:`repro.metrics` — load generation and
  measurement;
* :mod:`repro.experiments` — Table 1 configuration and one module per
  figure of the evaluation section;
* :mod:`repro.control` — the run-time adaptation direction.

Quickstart::

    from repro.experiments import SimulationConfig, run_simulation

    config = SimulationConfig(sim_time=1800.0, seed=7)
    result = run_simulation(config, "rpcc-sc")
    print(result.summary.mean_latency, result.summary.transmissions)
"""

import importlib
import sys

__version__ = "1.0.0"


def _lazy_exports(package, exports):
    """PEP 562 ``(__getattr__, __dir__)`` for ``exports``: public name -> the
    module that defines it, imported when the name is first read (``from
    package import name`` and ``import *`` included)."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(exports[name]), name)
        return value

    return __getattr__, lambda: sorted({*namespace, *exports})


# Resolved on first use, so ``import repro.net`` (or one plain run) does
# not load the campaign executor, the result store or the statistics.
_EXPORTS = {
    "ConsistencyLevel": "repro.consistency",
    "PushStrategy": "repro.consistency",
    "PullStrategy": "repro.consistency",
    "RPCCStrategy": "repro.consistency",
    "RPCCConfig": "repro.consistency",
    "SimulationConfig": "repro.experiments.config",
    "SimulationResult": "repro.experiments.runner",
    "STRATEGY_SPECS": "repro.experiments.runner",
    "build_simulation": "repro.experiments.runner",
    "run_simulation": "repro.experiments.runner",
}

__all__ = ["__version__", *_EXPORTS]

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
