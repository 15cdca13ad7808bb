"""Experiment harness: Table-1 config, runner, campaign executor, sweeps."""

from repro import _lazy_exports

# A plain run imports ``repro.experiments.runner`` and nothing else here.
_EXPORTS = {
    "SimulationConfig": "repro.experiments.config",
    "STRATEGY_SPECS": "repro.experiments.runner",
    "Simulation": "repro.experiments.runner",
    "SimulationResult": "repro.experiments.runner",
    "build_simulation": "repro.experiments.runner",
    "run_simulation": "repro.experiments.runner",
    "TrafficSplit": "repro.experiments.analysis",
    "rpcc_traffic_split": "repro.experiments.analysis",
    "CampaignExecutor": "repro.experiments.executor",
    "CampaignRunError": "repro.experiments.executor",
    "ResultStore": "repro.experiments.store",
    "env_jobs": "repro.experiments.executor",
    "run_key": "repro.experiments.executor",
    "Cell": "repro.experiments.sweep",
    "Group": "repro.experiments.sweep",
    "Sweep": "repro.experiments.sweep",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
