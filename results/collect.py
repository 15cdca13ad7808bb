"""Collect paper-scale reproduction numbers for EXPERIMENTS.md.

Fig 7's three panels and Fig 9(a) over three seeds (a ``seed`` axis on
its sweep and on its push/pull references) run as one batch through the
campaign executor: ``REPRO_JOBS=N`` fans them out over N worker
processes (bit-identical results), and the SQLite result store under
``results/.store`` makes an interrupted collection resumable —
already-finished points are read back instead of re-run.
"""
import json, time
from dataclasses import replace
from pathlib import Path
from repro.experiments import (
    CampaignExecutor, ResultStore, SimulationConfig, env_jobs,
)
from repro.experiments.figures import PANELS

RESULTS = Path(__file__).resolve().parent

t0 = time.time()
config = SimulationConfig(sim_time=1800.0, warmup=600.0, seed=1)
out = {
    "config": {"sim_time": 1800.0, "warmup": 600.0},
    "fig7a": {}, "fig7b": {}, "fig7c": {}, "fig9": {},
}
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

fig9 = PANELS["fig9a"]
sweeps = [(key, PANELS[key].sweep) for key in ("fig7a", "fig7b", "fig7c")]
for sweep in (fig9.sweep, fig9.references):
    sweeps.append(("fig9", sweep.with_axis("seed", (1, 2, 3))))
cells = []
for key, sweep in sweeps:
    cells += [(key, cell) for cell in replace(sweep, base=config).cells()]
results = executor.run_many([cell.task for _, cell in cells])

for (key, cell), result in zip(cells, results):
    if key == "fig9":
        ttl = cell.values.get(fig9.axis)
        name = cell.spec if ttl is None else f"rpcc@{int(ttl)}"
        out["fig9"].setdefault(cell.values["seed"], {})[name] = pack(result)
    else:
        out[key][f"{cell.spec}@{cell.values[PANELS[key].axis]}"] = pack(result)
print(f"fig7 and fig9 done at {time.time()-t0:.0f}s", flush=True)

with open(RESULTS / "experiments.json", "w") as fh:
    json.dump(out, fh, indent=1)
print(f"ALL DONE in {time.time()-t0:.0f}s", flush=True)
