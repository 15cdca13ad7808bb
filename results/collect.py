"""Collect paper-scale reproduction numbers for EXPERIMENTS.md.

Runs go through the campaign executor: ``REPRO_JOBS=N`` fans them out
over N worker processes (bit-identical results), and the append-only
columnar store under ``results/.store`` makes an interrupted collection
resumable — already-finished points are read back instead of re-run.
"""
import json, time
from pathlib import Path
from repro.experiments import (
    CampaignExecutor, ResultStore, SimulationConfig, env_jobs,
)
from repro.experiments.figures.base import run_axis_sweep
from repro.experiments.figures.fig7 import UPDATE_INTERVALS, QUERY_INTERVALS, CACHE_NUMBERS
from repro.experiments.figures.fig9 import run_fig9
from repro.experiments.runner import STRATEGY_SPECS

RESULTS = Path(__file__).resolve().parent

t0 = time.time()
config = SimulationConfig(sim_time=1800.0, warmup=600.0, seed=1)
out = {"config": {"sim_time": 1800.0, "warmup": 600.0}}
executor = CampaignExecutor(
    jobs=env_jobs("REPRO_JOBS"), store=ResultStore(RESULTS / ".store")
)

def pack(result):
    s = result.summary
    return {
        "tx": s.transmissions, "lat": s.mean_latency, "hit_lat": s.mean_hit_latency,
        "answered": s.queries_answered, "issued": s.queries_issued,
        "stale": s.stale_ratio, "viol": s.violation_ratio,
        "relays": result.mean_relay_count,
    }

for axis, values, key in (
    ("update_interval", UPDATE_INTERVALS, "fig7a"),
    ("query_interval", QUERY_INTERVALS, "fig7b"),
    ("cache_num", tuple(CACHE_NUMBERS), "fig7c"),
):
    results = run_axis_sweep(config, axis, values, STRATEGY_SPECS, executor=executor)
    out[key] = {
        f"{spec}@{value}": pack(result) for (spec, value), result in results.items()
    }
    print(f"{key} done at {time.time()-t0:.0f}s", flush=True)

fig9_runs = {}
for seed in (1, 2, 3):
    payload = run_fig9(config.with_overrides(seed=seed), executor=executor)
    fig9_runs[seed] = {
        **{f"rpcc@{ttl}": pack(result) for ttl, result in payload["rpcc"].items()},
        "push": pack(payload["push"]),
        "pull": pack(payload["pull"]),
    }
    print(f"fig9 seed {seed} done at {time.time()-t0:.0f}s", flush=True)
out["fig9"] = fig9_runs

with open(RESULTS / "experiments.json", "w") as fh:
    json.dump(out, fh, indent=1)
print(f"ALL DONE in {time.time()-t0:.0f}s", flush=True)
