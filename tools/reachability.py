"""``python tools/reachability.py [--check]``: which ``src/`` functions the public entry points run.

Runs a closed list of entry points in one process under ``sys.setprofile`` (re-armed for each:
``run --profile``'s cProfile clears it; pool workers are not traced) and writes
``tools/reachability.json``: each function under ``src/``, keyed ``module:co_qualname``, maps to
the entry points that called it (index ranges) or to the one reason it stays anyway.
``declaration`` and ``seam`` are derived here; ``observer``, ``validation`` and
``reference`` are written into the map by hand, naming a test.  ``--check`` exits 1 on a stale map.
"""

import ast
import contextlib
import io
import itertools
import json
import multiprocessing
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC, MAP = ROOT / "src", ROOT / "tools" / "reachability.json"
HAND_REASONS = ("observer ", "validation ", "reference ")
SHORT, TINY = ("--sim-time", "60", "--warmup", "300"), ("--sim-time", "20", "--warmup", "10")
PLAN = "examples/faults/partition.json"
TMP = ""


def src_functions():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        def visit(node, prefix, module=".".join(path.relative_to(SRC).with_suffix("").parts)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.FunctionDef):
                    found[f"{module.removesuffix('.__init__')}:{prefix}{child.name}"] = child
                    visit(child, f"{prefix}{child.name}.<locals>.")
                else:
                    visit(child, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix)
        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def cli(*argv):
    def run():
        from repro.cli import main
        assert main([arg.format(tmp=TMP) for arg in argv]) == 0, argv
    return " ".join(("repro",) + argv), run


def simulate(name, spec="rpcc-hy", placement="standard", traced=False, **fields):
    def run():
        import repro.obs as obs
        from repro.experiments.config import SimulationConfig
        from repro.experiments.runner import build_simulation
        from repro.faults import FaultPlan
        plan = {"faults": FaultPlan.load(fields["faults"])} if "faults" in fields else {}
        config, bus = SimulationConfig(**{**fields, **plan}), obs.TraceBus() if traced else None
        sink = bus.add_sink(obs.JsonlSink(os.path.join(TMP, "t.jsonl"))) if traced else None
        build_simulation(config, spec, placement, trace=bus).run()
        if traced:  # as trace50 does: close, then replay the file through the checker
            bus.close()
            assert obs.check_events(obs.read_jsonl(sink.path), delta=config.ttp).ok, name
    return name, run


def entry_points():
    """The closed list, yielded lazily: the registries are read after ``list`` ran traced."""
    yield from (cli("list"), cli("table1"))
    yield from (cli(*TINY, "--store", "{tmp}/s", "run", "rpcc-hy") for _ in ("stored", "served"))
    yield cli(*TINY, "trace", "rpcc-sc", "--out", "{tmp}/r.jsonl", "--no-check", "--loss-rate", "0.05")
    yield cli(*TINY, "--no-store", "run", "push", "--profile", "{tmp}/p.pstats", "--profile-sort", "tottime")
    yield cli(*TINY, "trace", "rpcc-dc", "--out", "{tmp}/t.jsonl", "--delta", "300", "--slack", "2")
    yield cli(*TINY, "trace", "pull", "--out", "{tmp}/t.jsonl", "--no-check")
    yield cli(*TINY, "--no-store", "compare")
    yield cli(*TINY, "--store", "{tmp}/s", "all", "--out", "{tmp}/all")
    for figure in ("fig7a", "fig7b", "fig7c", "fig8a", "fig8b", "fig8c"):
        yield cli(*TINY, "--store", "{tmp}/s", figure, "--plot", "--csv", "{tmp}/f.csv")
    yield cli(*TINY, "--store", "{tmp}/s", "fig9", "--plot", "--csv", "{tmp}/f9", "--ttls", "1", "3")
    yield cli(*TINY, "--jobs", "2", "--store", "{tmp}/pool", "fig7a")
    for path in sorted((ROOT / "examples" / "matrix").glob("*.toml")):
        yield cli("matrix", f"examples/matrix/{path.name}", "--jobs", "2", "--store", "{tmp}/m", "--csv", "{tmp}/m.csv")
    yield cli("matrix", "examples/matrix/smoke.toml", "--no-store", "--controller", "hysteresis", "--check-invariants")
    yield cli(*SHORT, "trace", "rpcc-sc", "--faults", PLAN, "--out", "{tmp}/f.jsonl")
    from repro.scenarios.registry import CONTROLLERS, POLICIES, strategy_specs
    for controller, spec in itertools.product(CONTROLLERS.names(), ("rpcc-sc", "pull", "push-uir")):
        yield cli(*SHORT, "--no-store", "run", spec, "--controller", controller, "--controller-interval", "20",
                  "--faults", PLAN)
    for plan in sorted((ROOT / "examples" / "faults").glob("*.json")):  # relays elected before the plan strikes
        yield simulate(f"faults examples/faults/{plan.name}", "rpcc-sc", traced=True, faults=plan,
                       sim_time=180.0, warmup=60.0, switch_interval=60.0)
    for spec, placement in itertools.product(strategy_specs(), ("standard", "single_source", "hot_set")):
        yield cli(*SHORT, "--no-store", "run", spec, "--scenario", placement)
    for path in sorted((ROOT / "examples").glob("*.py")):
        yield f"examples/{path.name}", lambda path=path: runpy.run_path(str(path), run_name="__main__")
    values = [("mobility", "walk"), ("mobility", "trace"), ("cache_on_read", True),
              ("access_pattern", "zipf", ("zipf_theta", 0.8)),
              ("access_pattern", "flash-crowd", ("zipf_theta", 0.8), ("flash_crowd_at", 400.0))]
    # Only a read that caches a copy can fill a cache and call a policy's victim().
    values += [("replacement_policy", name, ("cache_on_read", True), ("cache_num", 2)) for name in POLICIES.names()]
    for field, value, *extra in values:
        yield simulate(f"config {field}={value}", sim_time=300.0, warmup=300.0, **{field: value}, **dict(extra))
    from workloads import WORKLOADS
    for load in WORKLOADS:
        yield simulate(f"benchmark {load.name}", load.spec, load.scenario, load.traced, **load.config_kwargs(seed=1))


def reason(key, node, seams, committed):
    body = [s for s in node.body if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
    empty = all(isinstance(s, ast.Pass) or isinstance(s, ast.Raise) and "NotImplementedError" in ast.unparse(s)
                for s in body)
    abstract = any("abstractmethod" in ast.unparse(decorator) for decorator in node.decorator_list)
    if empty or abstract or node.name[:2] == node.name[-2:] == "__":
        return "declaration"
    if key.replace(":", ".") in seams:
        return f"seam {seams[key.replace(':', '.')]}"
    return committed if committed.startswith(HAND_REASONS) else ""


def build_map():
    global TMP
    from seams import SEAMS
    seams = {dotted: seam.name for seam in SEAMS for dotted in seam.targets}
    committed = json.loads(MAP.read_text(encoding="utf-8"))["functions"] if MAP.exists() else {}
    modules = {os.path.realpath(p): ".".join(p.relative_to(SRC).with_suffix("").parts) for p in SRC.rglob("*.py")}
    names, reached = [], {}
    os.environ["REPRO_SMOKE"] = "1"  # the examples' seconds-long mode
    with tempfile.TemporaryDirectory() as TMP:
        for index, (name, run) in enumerate(entry_points()):
            names.append(name)
            codes = set()
            sys.setprofile(lambda frame, event, arg: event == "call" and codes.add(frame.f_code))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                run()
            sys.setprofile(None)
            for code in codes:
                if (module := modules.get(os.path.realpath(code.co_filename))) is not None:
                    reached.setdefault(f"{module.removesuffix('.__init__')}:{code.co_qualname}", set()).add(index)
    table = {}
    for key, node in sorted(src_functions().items()):
        ordered = enumerate(sorted(reached.get(key, ())))
        runs = [[i for _, i in run] for _, run in itertools.groupby(ordered, lambda pair: pair[1] - pair[0])]
        spans = ",".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in runs)
        table[key] = spans or reason(key, node, seams, committed.get(key, ""))
    return json.dumps({"entry_points": names, "functions": table}, indent=1) + "\n"


def main(argv):
    sys.path[:0] = [str(SRC), str(ROOT / "benchmarks" / "e2e")]
    os.chdir(ROOT)  # the entry points name example files relative to the root
    multiprocessing.set_start_method("forkserver")  # pool workers fork from a process outside the hook
    text = build_map()
    if "--check" in argv:
        stale = not MAP.exists() or MAP.read_text(encoding="utf-8") != text
        print("tools/reachability.json is stale: run tools/reachability.py" if stale else "map up to date")
        return int(stale)
    MAP.write_text(text, encoding="utf-8")
    print(f"{sum(not v for v in json.loads(text)['functions'].values())} functions with neither entry point nor reason")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
