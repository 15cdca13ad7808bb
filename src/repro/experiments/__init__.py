"""Experiment harness: Table-1 config, runner, figure reproductions."""

from repro.experiments.analysis import TrafficSplit, rpcc_traffic_split
from repro.experiments.config import SimulationConfig
from repro.experiments.executor import (
    CampaignExecutor,
    CampaignRunError,
    env_jobs,
    run_key,
)
from repro.experiments.store import ResultStore, RunRecord
from repro.experiments.runner import (
    STRATEGY_SPECS,
    Simulation,
    SimulationResult,
    build_simulation,
    run_simulation,
)
from repro.experiments.stats import (
    MetricStats,
    aggregate,
    run_replicated,
    summarize_metric,
)

__all__ = [
    "SimulationConfig",
    "STRATEGY_SPECS",
    "Simulation",
    "SimulationResult",
    "build_simulation",
    "run_simulation",
    "MetricStats",
    "aggregate",
    "run_replicated",
    "summarize_metric",
    "TrafficSplit",
    "rpcc_traffic_split",
    "CampaignExecutor",
    "CampaignRunError",
    "ResultStore",
    "RunRecord",
    "env_jobs",
    "run_key",
]
