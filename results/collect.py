"""Collect paper-scale reproduction numbers for EXPERIMENTS.md.

Runs go through the campaign executor: ``REPRO_JOBS=N`` fans them out
over N worker processes (bit-identical results), and the SQLite result
store under ``results/.store`` makes an interrupted collection
resumable — already-finished points are read back instead of re-run.
"""
import json, time
from pathlib import Path
from repro.experiments import (
    CampaignExecutor, ResultStore, SimulationConfig, env_jobs,
)
from repro.experiments.figures import PANELS, reproduce

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

_, results = reproduce(("fig7a", "fig7b", "fig7c"), config, executor)
for key in ("fig7a", "fig7b", "fig7c"):
    panel = PANELS[key]
    out[key] = {
        f"{spec}@{value}": pack(results[(key, spec, value)])
        for value in panel.values for spec in panel.specs
    }
print(f"fig7 done at {time.time()-t0:.0f}s", flush=True)

fig9_runs = {}
for seed in (1, 2, 3):
    _, results = reproduce(("fig9a",), config.with_overrides(seed=seed), executor)
    fig9_runs[seed] = {
        **{f"rpcc@{int(ttl)}": pack(results[("fig9a", "rpcc-sc", ttl)])
           for ttl in PANELS["fig9a"].values},
        "push": pack(results[("fig9a", "push", None)]),
        "pull": pack(results[("fig9a", "pull", None)]),
    }
    print(f"fig9 seed {seed} done at {time.time()-t0:.0f}s", flush=True)
out["fig9"] = fig9_runs

with open(RESULTS / "experiments.json", "w") as fh:
    json.dump(out, fh, indent=1)
print(f"ALL DONE in {time.time()-t0:.0f}s", flush=True)
