"""Public-API surface checks: imports, exports, and documentation.

Locks the package's public interface so refactors cannot silently drop
re-exports, and enforces the documentation bar: every public module,
class, and function carries a docstring.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.core.advisor",
    "repro.core.analysis",
    "repro.core.coefficient",
    "repro.core.config",
    "repro.core.diagnosis",
    "repro.core.filtering",
    "repro.core.multiqueue",
    "repro.core.printqueue",
    "repro.core.queries",
    "repro.core.queuemonitor",
    "repro.core.registers",
    "repro.core.taxonomy",
    "repro.core.timewindow",
    "repro.core.windowset",
    "repro.switch",
    "repro.switch.events",
    "repro.switch.fastpath",
    "repro.switch.packet",
    "repro.switch.port",
    "repro.switch.queue",
    "repro.switch.records",
    "repro.switch.scheduler",
    "repro.switch.switchsim",
    "repro.switch.telemetry",
    "repro.traffic",
    "repro.traffic.arrivals",
    "repro.traffic.distributions",
    "repro.traffic.generator",
    "repro.traffic.pcaplike",
    "repro.traffic.scenarios",
    "repro.traffic.trace",
    "repro.baselines",
    "repro.baselines.conquest",
    "repro.baselines.flowradar",
    "repro.baselines.hashpipe",
    "repro.baselines.interval",
    "repro.baselines.sampled",
    "repro.baselines.sketches",
    "repro.metrics",
    "repro.metrics.accuracy",
    "repro.metrics.overhead",
    "repro.engine",
    "repro.engine.ingest",
    "repro.engine.queryplan",
    "repro.faults",
    "repro.faults.plan",
    "repro.faults.injector",
    "repro.faults.resilience",
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.report",
    "repro.store",
    "repro.store.base",
    "repro.store.format",
    "repro.store.memory",
    "repro.store.mmapstore",
    "repro.store.replay",
    "repro.store.retention",
    "repro.service",
    "repro.service.admission",
    "repro.service.client",
    "repro.service.degrade",
    "repro.service.ingest",
    "repro.service.protocol",
    "repro.service.server",
    "repro.service.slo",
    "repro.experiments",
    "repro.experiments.evaluation",
    "repro.experiments.figures",
    "repro.experiments.reporting",
    "repro.experiments.runner",
    "repro.experiments.sampling",
    "repro.cli",
]


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_module_imports_and_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


def test_no_unknown_modules_slipped_in():
    """Every repro submodule is accounted for in the public list (or is a
    private helper starting with an underscore)."""
    found = {"repro"}
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.rsplit(".", 1)[-1].startswith("_"):
            continue
        found.add(info.name)
    missing = found - set(PUBLIC_MODULES) - {"repro.__main__", "repro.errors", "repro.units"}
    assert not missing, f"undocumented new modules: {sorted(missing)}"


def test_top_level_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_public_callables_documented(name):
    module = importlib.import_module(name)
    undocumented = []
    for attr_name, attr in vars(module).items():
        if attr_name.startswith("_"):
            continue
        if getattr(attr, "__module__", None) != name:
            continue  # re-export; documented at its home
        if inspect.isclass(attr) or inspect.isfunction(attr):
            if not inspect.getdoc(attr):
                undocumented.append(attr_name)
    assert not undocumented, f"{name}: missing docstrings on {undocumented}"


def test_public_classes_have_documented_methods():
    """Spot-check the flagship classes: public methods carry docstrings."""
    from repro.core.analysis import AnalysisProgram
    from repro.core.printqueue import PrintQueue, PrintQueuePort
    from repro.core.windowset import TimeWindowSet

    for cls in (AnalysisProgram, PrintQueuePort, PrintQueue, TimeWindowSet):
        for method_name, method in inspect.getmembers(cls, inspect.isfunction):
            if method_name.startswith("_"):
                continue
            assert inspect.getdoc(method), f"{cls.__name__}.{method_name}"


def test_retired_multiport_names_are_gone_not_aliased():
    """The process hop and its transport were deleted outright (PR 24)."""
    import repro.engine
    import repro.errors
    import repro.store
    from repro.obs.metrics import Metrics

    for module in ("repro.engine.sharded", "repro.core.wrapping"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    for name in ("ShardRunner", "Shard"):
        assert not hasattr(repro.engine, name), name
    assert not hasattr(repro.errors, "PoolTimeoutError")
    assert not hasattr(Metrics, "merge")
    assert not hasattr(repro.store, "replay_into")


def test_retired_sweep_pool_and_test_only_modules_are_gone_not_aliased():
    """The Fig. 15 process pool and the modules only tests reached were
    deleted outright."""
    import repro.baselines
    import repro.engine

    for module in (
        "repro.engine.parallel",
        "repro.experiments.sweep",
        "repro.metrics.flowstats",
        "repro.baselines.linear",
    ):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    for package in (repro, repro.engine, repro.baselines):
        for name in ("ParallelSweep", "SweepCell", "ResultCache", "LinearStorageModel"):
            assert not hasattr(package, name), (package.__name__, name)


def test_analyser_left_the_package_gone_not_aliased(capsys):
    """pqlint moved to ``tools/anlz``: the package has no ``anlz``
    subpackage and the CLI has no ``lint`` subcommand."""
    from repro.cli import build_parser

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(".anlz", package="repro")
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["lint"])
    assert exc.value.code == 2
    assert "invalid choice: 'lint'" in capsys.readouterr().err


def test_second_writer_and_cold_tier_are_gone_not_aliased(capsys):
    """``MmapStore`` is the one PQSTORE1 writer and the store has two
    tiers: the recorder, the compressed tier and the recording reader
    were deleted outright, and ``repro run`` records nothing."""
    import repro.store
    from repro.cli import build_parser
    from repro.store.base import SnapshotStore

    for module in ("repro.store.cold", "repro.store.recording"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    for package in (repro, repro.store):
        for name in ("Recorder", "CompressedStore", "read_recording"):
            assert not hasattr(package, name), (package.__name__, name)
    assert not hasattr(SnapshotStore, "attach_recorder")
    assert repro.store.BACKENDS == ("memory", "mmap")
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["run", "--store-path", "x.pqstore"])
    assert exc.value.code == 2
    assert "--store-path" in capsys.readouterr().err


def test_build_path_aliases_and_stats_command_are_gone_not_aliased(capsys):
    """One build path: the FIFO alias and the odd-one-out d accessor were
    deleted outright, and ``repro stats`` folded into ``repro run``."""
    import repro.experiments
    import repro.experiments.runner as runner
    from repro.cli import build_parser

    for module in (repro, repro.experiments, runner):
        assert not hasattr(module, "run_trace_through_fifo_batch"), module.__name__
    assert not hasattr(runner.ExperimentRun, "mean_packet_interval_ns")
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["stats"])
    assert exc.value.code == 2
    assert "invalid choice: 'stats'" in capsys.readouterr().err


def test_baselines_left_the_ingest_drivers_gone_not_aliased():
    """Baselines read no PrintQueue state, so no ingest driver feeds them:
    ``baselines=`` was deleted outright, with the evaluation helpers that
    re-derived a truth per call, and the drivers no longer import
    ``repro.baselines``."""
    import ast
    import inspect

    import repro.engine.ingest as ingest
    import repro.experiments
    import repro.experiments.evaluation as evaluation
    import repro.experiments.runner as runner

    for fn in (
        runner.simulate_workload,
        runner.drive_printqueue,
        runner.drive_printqueue_scalar,
        ingest.IngestPipeline,
    ):
        assert "baselines" not in inspect.signature(fn).parameters, fn
    for module in (repro.experiments, evaluation):
        for name in ("evaluate_baseline", "evaluate_dataplane_queries"):
            assert not hasattr(module, name), (module.__name__, name)
    for module in (ingest, runner):
        tree = ast.parse(inspect.getsource(module))
        imported = {
            node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        }
        assert not any(m and m.startswith("repro.baselines") for m in imported)
