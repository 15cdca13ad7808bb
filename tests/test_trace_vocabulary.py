"""The trace vocabulary loads on first trace.

``repro.obs.events`` builds its event classes on the first lookup of one,
and the emit sites reach them through the module only when a run is
traced.  Each check runs in a fresh interpreter, where nothing else has
looked an event class up yet.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

WORLD = """
import json, pickle, sys
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import build_simulation

def event_classes():
    seen, stack = set(), [object]
    while stack:
        for cls in type.__subclasses__(stack.pop()):
            if cls not in seen:
                seen.add(cls)
                stack.append(cls)
    return sorted({cls.__name__ for cls in seen if cls.__module__ == "repro.obs.events"})

traced = sys.argv[1] == "traced"
bus = sink = None
if traced:
    import repro.obs as obs
    bus = obs.TraceBus()
    sink = bus.add_sink(obs.ListSink())
build_simulation(SimulationConfig(sim_time=60.0, warmup=30.0), "rpcc-hy", trace=bus).run()
report = {
    "event_classes": event_classes(),
    "imported": "repro.obs.events" in sys.modules,
}
if traced:
    from repro.obs import events
    from repro.obs.events import EVENT_TYPES, TraceEvent
    report["subclasses"] = sorted({cls.__name__ for cls in TraceEvent.__subclasses__()})
    report["registry"] = sorted(cls.__name__ for cls in EVENT_TYPES.values())
    report["names"] = sorted(
        (cls.__module__, cls.__qualname__) == ("repro.obs.events", name) and getattr(events, name) is cls
        for name, cls in events.vocabulary().items() if name != "EVENT_TYPES"
    )
    first = sink.events[0]
    report["pickled"] = pickle.loads(pickle.dumps(first)) == first and len(sink.events) > 100
print(json.dumps(report))
"""


def _world(mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), env.get("PYTHONPATH", "")])
    completed = subprocess.run(
        [sys.executable, "-c", WORLD, mode],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def test_untraced_world_builds_no_event_class():
    report = _world("untraced")
    assert report["event_classes"] == []
    assert report["imported"]  # the emit sites import the module, and no more


def test_traced_world_builds_every_event_class():
    report = _world("traced")
    registry = report["registry"]
    assert len(registry) == 23
    assert report["subclasses"] == registry
    assert report["event_classes"] == sorted(registry + ["TraceEvent"])
    assert report["names"] == [True] * 24  # module-level names, as pickle finds them
    assert report["pickled"]
