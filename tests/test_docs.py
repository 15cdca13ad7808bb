"""Documentation integrity: the docs must not rot away from the code.

Checks that every module path, bench target and CLI command the Markdown
documents reference actually exists, so a refactor that breaks the docs
breaks the build.
"""

import ast
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


def tracked(pattern):
    """Repo files matching ``pattern``, minus VCS/tool state and bytecode."""
    for path in sorted(ROOT.rglob(pattern)):
        parts = path.relative_to(ROOT).parts
        if path.is_file() and not any(
            part.startswith(".") or part == "__pycache__"
            or part.endswith(".egg-info")
            for part in parts
        ):
            yield path


class TestDocPaths:
    """Every backticked repo path in the Markdown resolves, and so does
    every ``::name`` after it; history is exempt."""

    #: ``top/part/...`` with an optional ``::name::name`` tail; a glob
    #: (``tests/test_sim_engine*.py``) must match at least one file.
    PATH = re.compile(r"`([\w-]+(?:/[\w*-][\w.*-]*)+/?)((?:::\w+)*)`")

    def test_every_backticked_repo_path_resolves(self):
        top = {path.name for path in ROOT.iterdir()}
        exempt = TestOneCore.EXEMPT + ("docs/decisions/",)  # history
        checked = 0
        for doc in tracked("*.md"):
            name = doc.relative_to(ROOT).as_posix()
            if name.startswith(exempt):
                continue
            for path, names in self.PATH.findall(doc.read_text(encoding="utf-8")):
                if path.split("/")[0] not in top:
                    continue  # package-relative (``net/soa.py``), not a repo path
                hits = list(ROOT.glob(path.rstrip("/")))
                assert hits, f"{name} references missing {path}"
                if names:
                    text = "".join(hit.read_text() for hit in hits if hit.is_file())
                    for part in names.split("::")[1:]:
                        assert part in text, f"{path} lacks {part} referenced by {name}"
                checked += 1
        assert checked > 50


class TestDesignDoc:
    def test_exists_and_mentions_paper_check(self):
        text = read("DESIGN.md")
        assert "Consistency of Cooperative Caching" in text
        assert "RPCC" in text

    def test_every_package_in_inventory_importable(self):
        text = read("DESIGN.md")
        for module in set(re.findall(r"`(repro\.\w+)`", text)):
            __import__(module)


class TestReadme:
    def test_example_scripts_exist(self):
        text = read("README.md")
        for script in re.findall(r"python (examples/\w+\.py)", text):
            assert (ROOT / script).exists(), f"README references missing {script}"

    def test_architecture_modules_importable(self):
        text = read("README.md")
        for module in set(re.findall(r"^(repro\.\w+)", text, re.MULTILINE)):
            __import__(module)

    def test_cli_commands_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        text = read("README.md")
        for line in re.findall(r"python -m repro ([^\n`]+)", text):
            argv = line.split("#", 1)[0].strip().split()
            parser.parse_args(argv)


class TestExperimentsDoc:
    def test_covers_every_figure(self):
        text = read("EXPERIMENTS.md")
        for figure in ("Table 1", "Fig 7(a)", "Fig 7(b)", "Fig 7(c)",
                       "Fig 8", "Fig 9(a)", "Fig 9(b)"):
            assert figure in text, f"EXPERIMENTS.md misses {figure}"

    def test_quotes_paper_claims(self):
        text = read("EXPERIMENTS.md")
        assert text.count("> Paper:") >= 5

    def test_referenced_modules_exist(self):
        text = read("EXPERIMENTS.md")
        for module in set(re.findall(r"`(repro\.[\w.]+)`", text)):
            parts = module.split(".")
            # Either importable as a module or an attribute of its parent.
            try:
                __import__(module)
            except ImportError:
                parent = __import__(".".join(parts[:-1]),
                                    fromlist=[parts[-1]])
                assert hasattr(parent, parts[-1]), (
                    f"EXPERIMENTS.md references missing {module}"
                )


class TestProtocolDoc:
    def test_message_names_match_code(self):
        text = read("docs/PROTOCOL.md")
        from repro.consistency import messages

        for name in ("Invalidation", "Update", "GetNew", "SendNew",
                     "Apply", "ApplyAck", "Cancel", "Poll", "PollAckA",
                     "PollAckB", "PollHold"):
            assert hasattr(messages, name)

    def test_file_references_exist(self):
        text = read("docs/PROTOCOL.md")
        for path in set(re.findall(r"`((?:consistency|peers|rpcc)/[\w/]+\.py)`", text)):
            candidates = [
                ROOT / "src" / "repro" / path,
                ROOT / "src" / "repro" / "consistency" / path,
            ]
            assert any(c.exists() for c in candidates), (
                f"PROTOCOL.md references missing {path}"
            )


class TestRobustnessDoc:
    def test_exists_and_is_cross_linked(self):
        text = read("docs/ROBUSTNESS.md")
        assert "fault" in text.lower()
        assert "ROBUSTNESS.md" in read("README.md")
        assert "ROBUSTNESS.md" in read("DESIGN.md")
        assert "ROBUSTNESS.md" in read("docs/OBSERVABILITY.md")

    def test_example_plans_exist_and_load(self):
        from repro.faults import FaultPlan

        text = read("docs/ROBUSTNESS.md")
        plans = set(re.findall(r"examples/faults/(\w+\.json)", text))
        assert plans, "ROBUSTNESS.md references no example plans"
        for name in plans:
            FaultPlan.load(ROOT / "examples" / "faults" / name)

    def test_cli_examples_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        text = read("docs/ROBUSTNESS.md")
        lines = re.findall(r"python -m repro ([^\n]+?)(?:\s*\\\n\s*([^\n`]+))?$",
                           text, re.MULTILINE)
        assert lines
        for first, continuation in lines:
            argv = f"{first} {continuation}".split("#", 1)[0].split()
            parser.parse_args(argv)

    def test_documented_fault_kinds_match_code(self):
        from repro.faults.plan import FAULT_KINDS

        text = read("docs/ROBUSTNESS.md")
        for kind in FAULT_KINDS:
            assert f"`{kind}`" in text, f"ROBUSTNESS.md misses kind {kind}"

    def test_documented_fault_stats_match_code(self):
        text = read("docs/ROBUSTNESS.md")
        for key in ("availability", "partition_seconds", "reads_in_partition",
                    "stale_serve_rate_in_partition", "mean_time_to_reconverge",
                    "heals_observed"):
            assert f"`{key}`" in text, f"ROBUSTNESS.md misses stat {key}"

    def test_every_registered_control_policy_documented(self):
        from repro.scenarios.registry import CONTROLLERS

        text = read("docs/ROBUSTNESS.md")
        assert CONTROLLERS.names(), "control-policy registry is empty"
        for name in CONTROLLERS.names():
            assert f"`{name}`" in text, (
                f"ROBUSTNESS.md misses control policy {name}"
            )

    def test_adaptive_control_section_is_cross_linked(self):
        text = read("docs/ROBUSTNESS.md")
        assert "## Adaptive control" in text
        for path in ("README.md", "DESIGN.md", "docs/OBSERVABILITY.md"):
            assert "Adaptive control" in read(path), (
                f"{path} lacks the adaptive-control cross-link"
            )

    def test_controller_trace_events_documented(self):
        text = read("docs/OBSERVABILITY.md")
        for tag in ("controller_sampled", "controller_actuated"):
            assert f"`{tag}`" in text, f"OBSERVABILITY.md misses {tag}"


class TestScenariosDoc:
    def test_exists_and_is_cross_linked(self):
        text = read("docs/SCENARIOS.md")
        assert "registry" in text.lower()
        assert "SCENARIOS.md" in read("README.md")
        assert "SCENARIOS.md" in read("EXPERIMENTS.md")
        assert "SCENARIOS.md" in read("DESIGN.md")

    def test_every_registered_scenario_documented(self):
        from repro.scenarios.registry import SCENARIOS

        text = read("docs/SCENARIOS.md")
        for name in SCENARIOS.names():
            assert f"`{name}`" in text, f"SCENARIOS.md misses scenario {name}"

    def test_every_registered_policy_documented(self):
        from repro.scenarios.registry import POLICIES

        text = read("docs/SCENARIOS.md")
        for name in POLICIES.names():
            assert f"`{name}`" in text, f"SCENARIOS.md misses policy {name}"

    def test_cli_examples_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        text = read("docs/SCENARIOS.md")
        lines = re.findall(r"python -m repro ([^\n`]+)", text)
        assert lines
        for line in lines:
            argv = line.split("#", 1)[0].strip().split()
            parser.parse_args(argv)

    def test_referenced_matrix_files_load(self):
        from repro.scenarios.matrix import load_matrix

        text = read("docs/SCENARIOS.md")
        paths = set(re.findall(r"(examples/matrix/[\w.]+\.toml)", text))
        assert paths, "SCENARIOS.md references no matrix files"
        for path in paths:
            load_matrix(ROOT / path)

    def test_placement_scenarios_match_code(self):
        from repro.experiments.runner import PLACEMENT_SCENARIOS

        text = read("docs/SCENARIOS.md")
        for scenario in PLACEMENT_SCENARIOS:
            assert scenario in text, f"SCENARIOS.md misses placement {scenario}"


class TestOneCore:
    """The scalar per-quantum core, the timer-wheel engine, the pickle
    cache, the sharded transport, the second adaptation mechanism, the
    start-up batch collector, the delta-patch refresh, the options that
    selected them, the code no public path reached, the topology
    crossovers no benchmark row earned, the strategy and controller
    settings only tests set, the hand-built segment store, the config
    fields no public path set, the replica protocol, the absolute-seconds
    bench gate, the per-host period timer, §2's infrastructure baseline
    and the benches nothing ran are gone from the tree, not just from
    ``src/``."""

    #: Spelled in pieces so this file passes its own check.
    RETIRED = (
        "REPRO_" + "SOA", "soa_" + "enabled", "[" + "perf]",
        "REPRO_" + "WHEEL", "wheel_" + "enabled", "wheel_" + "sweeps",
        "Result" + "Cache", "CACHE_" + "FORMAT_VERSION",
        "Sharded" + "Transport", "shard" + "_of",
        "--no-" + "cache", "--cache" + "-dir", "--work" + "ers",
        "Adaptive" + "RPCCStrategy", "Adaptive" + "Config", "rpcc-" + "adaptive",
        "_run_with_" + "strategy",
        "Startup" + "Batch", "schedule" + "_batch", "adopt" + "=",
        "refresh_" + "patches", "PATCH_" + "FRACTION",
        "PATCH_" + "FLOOR", "verify_" + "retention", "component_" + "fingerprint",
        "bfs_trees_" + "retained", "online_" + "arrays",
        "Amnesic" + "Scheme", "AT" + "Client", "Signature" + "Scheme", "SIG" + "Client",
        "Group" + "Member", "make_" + "group", "mobility." + "group",
        "FixedInterval" + "Process", "Null" + "Sink", "write_" + "jsonl", "event_to_" + "dict",
        "config.remember_" + "relay", "immediate_update_" + "push", "eager_relay_" + "refresh",
        "run_" + "replicated", "summarize_" + "metric", "Metric" + "Stats", "experiments." + "stats",
        "make_" + "policy", "remove_" + "sink", "detach_" + "trace", "stop_period_" + "timer",
        "start_period_" + "timer",
        "on_" + "expire", "re" + "charge(", ".spa" + "wn(", "ScenarioSpec.from_" + "json",
        "Simulator." + "step", "sim." + "step()",
        "_FULL_BFS_" + "CSR_MIN", "PAIR_LIST_" + "NAP", "_CSR_EDGE_" + "QUERY_SHARE",
        "source_poll_" + "timeout", "max_source_poll_" + "attempts", "relay_hold_" + "notice",
        "update_repush_" + "attempts", "update_repush_" + "interval",
        "resync_on_" + "reconnect", "fast_relay_" + "failover",
        "max_" + "relays", "promote_" + "prob", "uir_" + "count",
        "Controlled" + "Config", "RandomSelection" + "Config",
        "wait_" + "factor", "max_poll_" + "attempts", "rate_" + "unit",
        "tighten_" + "scale", "backoff_" + "boost", "enter_" + "availability",
        "cooldown_" + "jitter", "ablation_hold_" + "notice",
        "Segment" + "Writer", "encode_" + "batch", "decode_" + "batch",
        "RECORD_" + "SCHEMA", "side" + "car", "fs_" + "writes",
        "fetch_" + "timeout", "retry_" + "backoff", "backoff_" + "cap", "backoff_" + "jitter",
        "Gossip" + "Replication", "Replicated" + "Register", "repro." + "extensions",
        "run_" + "bench", "profile_" + "diff",
        "run_axis" + "_sweep", "run_" + "fig9", "extract" + "_series", "cached_axis" + "_sweep",
        "repro." + "infrastructure", "Timestamp" + "Scheme", "MSS" + "Cell",
        "pytest-" + "benchmark", "--benchmark" + "-only",
        *("bench_" + stem for stem in (
            "infrastructure", "table1", "ablations", "extensions", "energy",
            "fig7", "fig8", "fig9",
        )),
        *("BENCH_" + suite for suite in (
            "kernel", "engine", "sweep", "trace", "faults", "scale", "campaign",
            "control",
        )),
    )
    #: History, the issue that retired them, and the read-only benchmark.
    EXEMPT = ("CHANGES.md", "ROADMAP.md", "ISSUE.md", "benchmarks/e2e/")
    EXEMPT += ("docs/decisions/03-public-settings.md",)  # the records of what went
    EXEMPT += ("docs/decisions/04-sqlite-store.md",)
    EXEMPT += ("docs/decisions/06-earned-settings.md",)
    EXEMPT += ("docs/decisions/08-one-benchmark-of-record.md",)
    EXEMPT += ("docs/decisions/09-one-period-clock.md",)
    EXEMPT += ("docs/decisions/10-what-nothing-runs.md",)
    EXEMPT += ("BENCHMARK.json",)  # the benchmark's declaration, read-only too

    def test_retired_names_appear_in_no_tracked_file(self):
        checked = 0
        workflows = sorted((ROOT / ".github" / "workflows").glob("*.yml"))
        assert workflows
        for path in [*tracked("*"), *workflows]:
            name = path.relative_to(ROOT).as_posix()
            if name.startswith(self.EXEMPT):
                continue
            text = path.read_text(encoding="utf-8", errors="ignore")
            checked += 1
            for retired in self.RETIRED:
                assert retired not in text, f"{name} still mentions {retired}"
        assert checked > 100

    def test_no_bench_takes_the_benchmark_fixture(self):
        """Every bench is plain pytest: no test asks for a timing fixture."""
        tests = []
        for path in sorted((ROOT / "benchmarks").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
                    arguments = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                    tests.append((path.name, node.name, {arg.arg for arg in arguments}))
        assert len(tests) > 10
        assert [(file, test) for file, test, names in tests if "benchmark" in names] == []

    def test_no_build_metadata_is_tracked(self):
        """``*.egg-info`` is ignored, so a tracked copy can only be stale."""
        if shutil.which("git") is None:
            pytest.skip("git is not installed")
        listing = subprocess.run(
            ["git", "ls-files"], cwd=ROOT, capture_output=True, text=True
        )
        if listing.returncode != 0:
            pytest.skip("not a git checkout")
        paths = listing.stdout.splitlines()
        assert paths
        assert [path for path in paths if ".egg-info" in path] == []


class TestEarnedConstants:
    """Every numeric module constant in ``src/`` has one row in the
    decision records, with its value and where the number comes from."""

    #: What a row may say its number comes from: Table 1, a protocol
    #: section, a measurement (``pinned`` is record 02's word for one),
    #: or "unmeasured".
    SOURCES = ("Table 1", "protocol", "§", "measure", "pinned")

    def constants(self):
        """Module-level numeric UPPER_CASE assignments, name -> [(module, value)]."""
        found = {}
        for path in sorted((ROOT / "src").rglob("*.py")):
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    target, value = node.target, node.value
                else:
                    continue
                if (
                    isinstance(target, ast.Name)
                    and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)
                    and isinstance(value, ast.Constant)
                    and type(value.value) in (int, float)
                ):
                    module = path.relative_to(ROOT).as_posix()
                    found.setdefault(target.id, []).append((module, value.value))
        return found

    def rows(self):
        """``| `NAME` | value | ...`` rows of every record: (name, value, rest)."""
        rows = []
        for record in sorted((ROOT / "docs" / "decisions").glob("*.md")):
            rows += re.findall(
                r"^\| `(_?[A-Z][A-Z0-9_]*)` \| ([^|]+) \|(.*)$",
                record.read_text(encoding="utf-8"), re.M,
            )
        return rows

    def test_every_constant_has_exactly_one_row_with_its_value(self):
        constants, rows = self.constants(), self.rows()
        assert len(constants) >= 25
        named = [name for name, _, _ in rows]
        for name, definitions in constants.items():
            assert len(definitions) == 1, f"{name} is defined in {definitions}"
            assert named.count(name) == 1, f"docs/decisions/ needs one row for {name}"
        for name, value, _ in rows:
            assert name in constants, f"docs/decisions/ has a row for gone {name}"
            ((module, code_value),) = constants[name]
            assert value.strip() == repr(code_value), (
                f"docs/decisions/ says {name} = {value.strip()}, "
                f"{module} says {code_value!r}"
            )

    def test_every_row_says_where_its_number_comes_from(self):
        for name, _, rest in self.rows():
            assert any(source in rest for source in self.SOURCES), name


class TestEarnedSettings:
    """A ``SimulationConfig`` field stays only if Table 1 lists it, a
    public path sets it, or record 06 names the controller knob or the
    ROADMAP figure that keeps it (``docs/decisions/06-earned-settings.md``)."""

    RECORD = "docs/decisions/06-earned-settings.md"
    #: Where a public path sets a field: scenario presets, figure sweeps,
    #: CLI flags, the matrix axes and committed matrix files, examples,
    #: and the benchmark workloads.
    PUBLIC = (
        "src/repro/scenarios/catalog.py", "src/repro/scenarios/matrix.py",
        "src/repro/cli.py", "src/repro/experiments/figures.py",
        "examples/*.py", "examples/matrix/*.toml", "benchmarks/e2e/workloads.py",
    )

    def fields(self):
        import dataclasses

        from repro.experiments.config import SimulationConfig

        return [field.name for field in dataclasses.fields(SimulationConfig)]

    def table1_fields(self):
        import inspect
        import textwrap

        from repro.experiments.config import SimulationConfig

        tree = ast.parse(textwrap.dedent(inspect.getsource(SimulationConfig.table1_rows)))
        return {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self"
        }

    def public_text(self):
        return "\n".join(
            path.read_text(encoding="utf-8")
            for pattern in self.PUBLIC for path in sorted(ROOT.glob(pattern))
        )

    def kept(self):
        """Record rows ``| `field` | controller knob `k` |`` or ``| `field` | ROADMAP item N ...``."""
        return {
            field: (knob, item)
            for field, knob, item in re.findall(
                r"^\| `([a-z]\w*)` \| (?:controller knob `(\w+)`|ROADMAP item (\d+))",
                read(self.RECORD), re.M,
            )
        }

    def test_every_field_is_in_table1_set_by_a_public_path_or_recorded(self):
        fields = self.fields()
        assert len(fields) == 38
        table1, text, kept = self.table1_fields(), self.public_text(), self.kept()
        for name in fields:
            assert (
                name in table1
                or re.search(rf"\b{name}\b", text)
                or name in kept
            ), (
                f"SimulationConfig.{name} is in no Table 1 row, set by no "
                f"public path, and not kept by {self.RECORD}"
            )

    def test_every_recorded_knob_is_one_the_controller_actuates(self):
        from repro.experiments.config import SimulationConfig
        from repro.experiments.runner import build_simulation
        from repro.faults import Crash, FaultPlan

        # A fault plan wires the retry backoff, whose factor is a knob too.
        config = SimulationConfig(
            n_peers=4, sim_time=10.0, warmup=0.0,
            faults=FaultPlan(faults=(Crash(node=1, at=5.0),)),
        )
        knobs = set()
        for spec in ("push", "pull", "rpcc-sc"):
            knobs |= set(build_simulation(config, spec).strategy.control_knobs())
        recorded = {knob for knob, _ in self.kept().values() if knob}
        assert recorded and recorded <= knobs
        for field, (knob, _) in self.kept().items():
            assert not knob or knob == field, field

    def test_every_recorded_figure_names_the_field(self):
        roadmap = read("ROADMAP.md").split("## Open items", 1)[1]
        for field, (_, item) in self.kept().items():
            if item:
                text = re.search(rf"^{item}\. .*?(?=^\d+\. |\Z)", roadmap, re.M | re.S)
                assert text and f"`{field}`" in text.group(0), field


class TestPublicSettings:
    """A strategy or controller takes only what its registered builder
    passes; a value that no public path sets is a module constant
    (``docs/decisions/03-public-settings.md``)."""

    def test_rpcc_config_fields_are_what_a_simulation_config_decides(self):
        import dataclasses

        from repro.consistency.rpcc import RPCCConfig
        from repro.experiments.config import SimulationConfig
        from repro.experiments.runner import _rpcc_kwargs

        fields = {field.name for field in dataclasses.fields(RPCCConfig)}
        assert fields == set(_rpcc_kwargs(SimulationConfig()))

    def test_no_defaulted_parameter_that_the_builder_does_not_pass(self):
        import inspect
        import textwrap

        from repro.experiments.config import SimulationConfig
        from repro.scenarios.registry import CONTROLLERS, STRATEGIES

        for name, entry in STRATEGIES.items():
            cls = type(entry.build(None, SimulationConfig()))
            tree = ast.parse(textwrap.dedent(inspect.getsource(entry.build)))
            (call,) = [
                node for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == cls.__name__
            ]
            assert all(keyword.arg for keyword in call.keywords), name
            signature = inspect.signature(cls)
            passed = signature.bind(
                *call.args, **{keyword.arg: keyword.value for keyword in call.keywords}
            ).arguments
            for parameter in signature.parameters.values():
                assert parameter.default is parameter.empty or parameter.name in passed, (
                    f"{cls.__name__}({parameter.name}=...) is set by no public "
                    f"path: the {name!r} builder does not pass it"
                )
        # The runner builds every policy as ``CONTROLLERS.get(name)()``.
        for name in CONTROLLERS.names():
            assert not inspect.signature(CONTROLLERS.get(name)).parameters, name

    def test_every_constant_in_the_record_has_its_value(self):
        import importlib

        rows = re.findall(
            r"^\| `[^`]+` \| `(repro\.[\w.]+)\.([A-Z_]+)`[^|]* \| ([^|]+) \|",
            read("docs/decisions/03-public-settings.md"), re.M,
        )
        assert len(rows) == 16
        for module, name, value in rows:
            constant = getattr(importlib.import_module(module), name)
            assert repr(constant) == value.strip(), f"{module}.{name}"


class TestFigureShapeGate:
    """The Figs 7–9 shape assertions live in one plain-pytest module that
    CI's ``campaign`` job runs; nothing else under ``benchmarks/`` times."""

    def test_campaign_job_runs_the_shape_module(self):
        workflow = read(".github/workflows/ci.yml")
        job = re.split(r"\n  [\w-]+:\n", workflow.split("\n  campaign:\n", 1)[1])[0]
        assert "pip install pytest" in job
        assert (
            "REPRO_BENCH_JOBS=2 python -m pytest -q benchmarks/bench_figures.py" in job
        )
        assert (ROOT / "benchmarks" / "bench_figures.py").is_file()

    def test_benchmarks_collect_without_the_timing_plugin(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
        collected = subprocess.run(
            [sys.executable, "-m", "pytest", "-p", "no:benchmark",
             "-p", "no:cacheprovider", "--co", "-q", "benchmarks/"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert collected.returncode == 0, collected.stdout + collected.stderr
        names = collected.stdout.splitlines()
        assert "benchmarks/bench_figures.py::test_fig9a" in names
        assert "benchmarks/bench_figures.py::test_energy_by_strategy" in names


class TestPythonFloor:
    def test_requires_python_is_what_every_ci_job_installs(self):
        """``dataclass(slots=True)`` and ``tomllib`` set the floor; CI
        must test the version the package promises."""
        floor = re.search(
            r'^requires-python = ">=([\d.]+)"$', read("pyproject.toml"), re.M
        ).group(1)
        workflow = read(".github/workflows/ci.yml")
        installed = re.findall(r'python-version: "([\d.]+)"', workflow)
        # One interpreter per job, and every one of them is the floor.
        assert len(installed) == workflow.count("runs-on:") > 0
        assert set(installed) == {floor}
        assert sys.version_info >= tuple(int(part) for part in floor.split("."))
