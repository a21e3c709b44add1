"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The scale is
controlled by the ``REPRO_EXPERIMENT_SCALE`` environment variable
(``smoke`` -- the default here, so that ``pytest benchmarks/`` stays fast --
``quick`` or ``full``); the benchmark bodies print the regenerated rows so
the run doubles as a report.

All benchmark helpers live in the installed :mod:`repro.benchmarking`
module (no imports through the repository root's implicit ``sys.path``
entry), and collection refuses to pick up stale ``__pycache__`` directories
as test packages -- both bit us before.
"""

from __future__ import annotations

import pytest

from repro.experiments.settings import ExperimentSettings
from repro.san.analytic import load_numerics

collect_ignore_glob = ["__pycache__/*"]


@pytest.fixture(scope="session", autouse=True)
def _scipy_loaded() -> None:
    """Import scipy before any leg is timed.

    ``repro`` loads scipy on first use, so without this the first leg to
    need it would also time the import, which used to happen when the
    benchmark modules imported ``repro``.  Import cost is measured by
    perfbench's ``setup_s``.
    """
    load_numerics()


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    """Experiment scale used by all benchmarks (defaults to ``smoke``)."""
    return ExperimentSettings.from_environment(default="smoke")


def pytest_collection_modifyitems(items):
    """Fail loudly if bytecode caches ever get collected as test modules."""
    polluted = sorted(
        str(item.fspath) for item in items if "__pycache__" in str(item.fspath)
    )
    assert not polluted, (
        "collected test modules from __pycache__ directories: "
        + ", ".join(polluted)
    )
