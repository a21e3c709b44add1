"""Import hygiene: a run imports only the half of ``repro`` it uses.

Every ``python -m repro`` run is a fresh process, so import time is paid
once per figure.

The package's two halves -- the measurement testbed (``des``,
``cluster``, ``consensus``, ``failure_detectors``, ``core.measurement``)
and the SAN model (``san``, ``sanmodels``, ``core.simulation``) -- load
independently.  Every package ``__init__`` exports its names lazily
(PEP 562, :mod:`repro._lazy`), so importing a package or a light module
under it loads no submodule it does not need.  Experiment modules import
the simulation code inside the functions that compute points, so
discovering experiments loads neither half, importing the testbed loads
no SAN module, and importing the SAN stack loads no testbed module.

``scipy.stats`` alone costs about a second to import,
and ``scipy.special`` and ``scipy.sparse`` cost a few tenths each; the
package therefore imports scipy only inside the functions that need it,
and never ``scipy.stats``.  scipy loads only for a confidence interval
someone reads (testbed and SAN-simulation results compute theirs when
read, not when built) and for the analytic solver, so ``means`` and
``solvercompare`` are the only experiments that load it; a testbed or
SAN-simulation run that reads only means loads none.  A sweep that forks
workers imports scipy first, so the workers inherit it instead of each
importing it again.  A warm ``all`` is served from whole experiment
entries, so it loads neither scipy nor any point entry.  Each check runs
in a fresh interpreter because the test process itself has long since
loaded scipy.
"""
from __future__ import annotations

import ast
import importlib
import inspect
import json
import multiprocessing
import os
import pkgutil
import subprocess
import sys
import textwrap
from types import ModuleType
from typing import Dict, List, Sequence, Tuple

import pytest

import repro

SCIPY_MODULES = ("scipy", "scipy.stats", "scipy.sparse", "scipy.special")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_fresh(script: str, *args: str) -> List[str]:
    """Run ``script`` in a fresh interpreter on this checkout; return its output lines.

    ``args`` become the script's ``sys.argv[1:]``.
    """
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), environment.get("PYTHONPATH", "")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=environment,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip().splitlines()


def _loaded_at_each_stage(stages: Sequence[str], *args: str) -> list[dict[str, bool]]:
    """Run ``stages`` in order in one fresh interpreter; report the scipy modules after each.

    ``args`` become the script's ``sys.argv[1:]``.  A stage may print lines
    of its own; the reports are the last ``len(stages)`` lines.
    """
    report = textwrap.dedent(
        f"""
        import json, sys
        print(json.dumps({{name: name in sys.modules for name in {SCIPY_MODULES!r}}}))
        """
    )
    script = "".join(textwrap.dedent(stage) + report for stage in stages)
    lines = _run_fresh(script, *args)
    return [json.loads(line) for line in lines[len(lines) - len(stages):]]


def _loaded_after(script: str, *args: str) -> dict[str, bool]:
    """Run ``script`` in a fresh interpreter; report which scipy modules it loaded."""
    return _loaded_at_each_stage([script], *args)[-1]


#: What reading a Student-t interval loads: ``scipy.special`` and no other module.
INTERVAL_ONLY = {"scipy": True, "scipy.stats": False, "scipy.sparse": False, "scipy.special": True}


def test_importing_repro_and_discovering_experiments_loads_no_scipy():
    loaded = _loaded_after(
        """
        import repro
        from repro.experiments import registry

        registry.discover()
        """
    )
    assert loaded == dict.fromkeys(SCIPY_MODULES, False)


def test_no_module_of_the_package_imports_scipy_at_import_time():
    loaded = _loaded_after(
        """
        import importlib, pkgutil
        import repro

        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            if not module.name.endswith("__main__"):  # __main__ runs the CLI
                importlib.import_module(module.name)
        """
    )
    assert loaded == dict.fromkeys(SCIPY_MODULES, False)


def test_confidence_intervals_and_analytic_solves_never_load_scipy_stats():
    loaded = _loaded_after(
        """
        from repro.san.analytic import AnalyticSolver
        from repro.sanmodels.compare_suite import compare_model_spec
        from repro.stats.descriptive import confidence_interval

        confidence_interval([1.0, 2.0, 4.0])
        spec = compare_model_spec("fd-pair")  # horizon mode: uniformization
        AnalyticSolver(
            model_factory=spec.model_factory,
            reward_factory=spec.reward_factory,
            stop_predicate=spec.stop_predicate,
            max_time=spec.max_time,
        ).solve()
        """
    )
    # The lazy imports did run (so the check is not vacuous) ...
    assert loaded["scipy.special"] and loaded["scipy.sparse"]
    # ... and none of them pulled in scipy.stats.
    assert not loaded["scipy.stats"]


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="inheritance needs forked workers"
)
def test_pooled_sweep_workers_inherit_scipy_from_the_parent():
    loaded = _loaded_after(
        """
        import sys

        from repro.experiments.runner import ReplicationPlan, SweepPoint, execute_plan
        from repro.experiments.settings import ExperimentSettings

        def scipy_special_loaded():
            return "scipy.special" in sys.modules

        plan = ReplicationPlan(
            settings=ExperimentSettings(),
            points=tuple(
                SweepPoint.make(scipy_special_loaded, indices=(i,), seed_arg=None)
                for i in range(2)
            ),
        )
        assert execute_plan(plan, jobs=2) == [True, True]
        """
    )
    assert loaded["scipy.special"] and not loaded["scipy.stats"]


def test_a_warm_run_of_every_experiment_loads_no_scipy_and_no_point_entry(tmp_path):
    run_all = """
        import sys
        from repro import cli
        from repro.experiments.runner import ResultCache

        gets = []
        original = ResultCache.get
        ResultCache.get = lambda self, key: gets.append(key) or original(self, key)
        assert cli.main(["all", "--scale", "smoke", "--cache-dir", sys.argv[1]]) == 0
        print(len(gets), "cache reads")
        if sys.argv[2] == "warm":
            from repro.experiments import registry

            assert len(gets) == len(registry.names()), gets  # one entry each
        """
    cache_dir = str(tmp_path / "cache")
    cold = _loaded_after(run_all, cache_dir, "cold")
    assert cold["scipy.special"]  # the cold run does compute confidence intervals
    assert _loaded_after(run_all, cache_dir, "warm") == dict.fromkeys(SCIPY_MODULES, False)


@pytest.mark.parametrize(
    "scenario, options",
    [
        ("Scenario.no_failures()", "executions=20"),
        ("Scenario.coordinator_crash()", "executions=15"),
        (
            "Scenario.wrong_suspicions(timeout_ms=5.0)",
            "executions=15, sequential=True, max_instance_time_ms=300.0",
        ),
    ],
    ids=["class1", "class2", "class3"],
)
def test_a_testbed_run_loads_no_scipy_until_its_summary_is_read(scenario, options):
    run, read = _loaded_at_each_stage(
        [
            f"""
            from repro.cluster.config import ClusterConfig
            from repro.core.measurement import MeasurementConfig, MeasurementRunner
            from repro.core.scenarios import Scenario

            config = MeasurementConfig(
                cluster=ClusterConfig(n_processes=3, seed=1), scenario={scenario}, {options}
            )
            result = MeasurementRunner(config).run()
            assert len(result.latencies_ms) >= 2
            """,
            """
            assert result.summary.ci.n == len(result.latencies_ms)
            """,
        ]
    )
    assert run == dict.fromkeys(SCIPY_MODULES, False)
    assert read == INTERVAL_ONLY


def test_a_simulation_run_loads_no_scipy_until_its_summary_is_read():
    run, read = _loaded_at_each_stage(
        [
            """
            from repro.core.scenarios import Scenario
            from repro.core.simulation import SimulationConfig, SimulationRunner

            result = SimulationRunner(
                SimulationConfig(
                    n_processes=3, scenario=Scenario.no_failures(), replications=10, seed=1
                )
            ).run()
            assert len(result.latencies_ms) == 10
            """,
            """
            assert result.summary.ci.n == 10
            """,
        ]
    )
    assert run == dict.fromkeys(SCIPY_MODULES, False)
    assert read == INTERVAL_ONLY


def test_a_san_experiment_loads_no_scipy_until_its_interval_is_read():
    run, read = _loaded_at_each_stage(
        [
            """
            from repro.sanmodels.consensus_model import ConsensusSANExperiment

            result = ConsensusSANExperiment(3).run(replications=10)
            assert result.mean_ms > 0
            """,
            """
            assert result.interval.n == 10
            """,
        ]
    )
    assert run == dict.fromkeys(SCIPY_MODULES, False)
    assert read == INTERVAL_ONLY


def test_a_cold_figure8_run_without_a_cache_loads_no_scipy():
    loaded = _loaded_after(
        """
        from repro import cli

        assert cli.main(["figure8", "--scale", "smoke"]) == 0
        """
    )
    assert loaded == dict.fromkeys(SCIPY_MODULES, False)


# ----------------------------------------------------------------------
# The two halves load independently
# ----------------------------------------------------------------------
#: One module from deep inside each half: the batched SAN executor and the
#: composed consensus model, the DES calendar and the testbed transport.
SIMULATION_MODULES = (
    "repro.san.batched",
    "repro.sanmodels.consensus_model",
    "repro.des.simulator",
    "repro.cluster.transport",
)


def _repro_modules_after(script: str) -> List[str]:
    """Run ``script`` in a fresh interpreter; list the ``repro`` modules it loaded."""
    report = textwrap.dedent(
        """
        import json, sys
        print(json.dumps(sorted(name for name in sys.modules if name.startswith("repro"))))
        """
    )
    return json.loads(_run_fresh(textwrap.dedent(script) + report)[-1])


def test_discovering_experiments_loads_neither_simulation_half():
    loaded = _repro_modules_after(
        """
        from repro.experiments import registry

        registry.discover()
        assert len(registry.iter_specs()) == len(registry.names()) >= 10
        """
    )
    assert "repro.experiments.solver_compare" in loaded  # every experiment was imported
    assert [name for name in SIMULATION_MODULES if name in loaded] == []


def test_importing_the_testbed_loads_no_san_module():
    loaded = _repro_modules_after("import repro.core.measurement")
    assert "repro.cluster.transport" in loaded
    assert [name for name in loaded if name.startswith(("repro.san", "repro.sanmodels"))] == []


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="inheritance needs forked workers"
)
def test_pooled_sweep_workers_inherit_both_simulation_halves_from_the_parent():
    lines = _run_fresh(
        textwrap.dedent(
            """
            import sys

            from repro.experiments.runner import ReplicationPlan, SweepPoint, execute_plan
            from repro.experiments.settings import ExperimentSettings

            def halves_loaded():
                return [name in sys.modules for name in ("repro.cluster.transport", "repro.san.batched")]

            assert "repro.san.batched" not in sys.modules
            plan = ReplicationPlan(
                settings=ExperimentSettings(),
                points=tuple(
                    SweepPoint.make(halves_loaded, indices=(i,), seed_arg=None) for i in range(2)
                ),
            )
            print(execute_plan(plan, jobs=2))
            """
        )
    )
    assert lines == ["[[True, True], [True, True]]"]


def test_importing_the_san_stack_loads_no_testbed_module():
    loaded = _repro_modules_after(
        """
        import repro.san.solver
        import repro.sanmodels.consensus_model
        """
    )
    assert "repro.san.batched" in loaded
    assert "repro.cluster.transport" not in loaded
    assert "repro.consensus.chandra_toueg" not in loaded


# ----------------------------------------------------------------------
# Lazy package exports keep the public API
# ----------------------------------------------------------------------
PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
)


def _declared_exports(package: ModuleType) -> Dict[str, Tuple[str, str]]:
    """``{name: (defining module, attribute)}`` from a package's ``if TYPE_CHECKING:`` imports."""
    exports: Dict[str, Tuple[str, str]] = {}
    for node in ast.parse(inspect.getsource(package)).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for statement in node.body:
                assert isinstance(statement, ast.ImportFrom), ast.unparse(statement)
                for alias in statement.names:
                    exports[alias.asname or alias.name] = (str(statement.module), alias.name)
    return exports


@pytest.mark.parametrize("name", PACKAGES)
def test_every_package_export_resolves_is_listed_and_star_imports(name):
    package = importlib.import_module(name)
    exports = _declared_exports(package)
    assert sorted(exports) == sorted(set(package.__all__) - {"__version__"})
    listed = dir(package)
    star: Dict[str, object] = {}
    exec(f"from {name} import *", star)
    for export, (module, attribute) in exports.items():
        defined = getattr(importlib.import_module(module), attribute)
        assert getattr(package, export) is defined, export
        assert export in listed, export
        assert star[export] is defined, export
    assert not hasattr(package, "no_such_export")


def test_a_package_export_is_imported_on_first_read_and_then_cached():
    lines = _run_fresh(
        textwrap.dedent(
            """
            import sys

            import repro
            import repro.san

            assert "Scenario" not in vars(repro)
            assert "repro.core.scenarios" not in sys.modules
            from repro.core.scenarios import Scenario

            assert repro.Scenario is Scenario
            assert vars(repro)["Scenario"] is Scenario  # later reads skip __getattr__
            assert "repro.san.batched" not in sys.modules
            assert repro.san.SimulativeSolver.__module__ == "repro.san.solver"
            assert "repro.san.batched" in sys.modules
            print("ok")
            """
        )
    )
    assert lines == ["ok"]


def test_the_package_quick_start_doctest_passes():
    import doctest

    failed, attempted = doctest.testmod(repro)
    assert attempted > 0 and failed == 0
