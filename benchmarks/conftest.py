"""Benchmark harness configuration.

Every paper table/figure has one benchmark module.  Each benchmark runs the
corresponding experiment harness once (pytest-benchmark ``pedantic`` mode with
a single round — a design-space exploration is far too expensive to repeat),
prints the reproduced rows/series to stdout, and writes the raw result as JSON
to the ``results_dir`` fixture.  That is a temporary directory unless
``REPRO_BENCH_WRITE=1`` is set, in which case the committed files in
``benchmarks/results/`` are refreshed; their timing fields change on every
run, so an ordinary test run must not rewrite them.

Select the experiment scale with ``--repro-scale {smoke,small,medium}``
(default: ``small``).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

# ``src`` for the package; ``tests`` for the reference implementations in
# ``tests/oracles.py`` that the fit benchmarks time as their baselines.
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(_ROOT, "tests"), os.path.join(_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.experiments.common import MEDIUM, SMALL, SMOKE  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"

_SCALES = {"smoke": SMOKE, "small": SMALL, "medium": MEDIUM}


def pytest_addoption(parser):
    parser.addoption(
        "--repro-scale",
        action="store",
        default="small",
        choices=sorted(_SCALES),
        help="experiment scale used by the reproduction benchmarks",
    )


@pytest.fixture(scope="session")
def scale(request):
    """The experiment scale selected on the command line."""
    return _SCALES[request.config.getoption("--repro-scale")]


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory):
    """Directory where benchmark artifacts (JSON results) are written.

    ``benchmarks/results/`` under ``REPRO_BENCH_WRITE=1``, otherwise a fresh
    temporary directory.
    """
    if os.environ.get("REPRO_BENCH_WRITE") == "1":
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        return RESULTS_DIR
    return tmp_path_factory.mktemp("results")


@pytest.fixture(scope="session")
def kfusion_runner(scale):
    """One shared KFusion runner so pipeline simulations are reused across benches."""
    from repro.experiments.common import make_runner

    return make_runner("kfusion", scale, dataset_seed=7)


@pytest.fixture(scope="session")
def elasticfusion_runner(scale):
    """One shared ElasticFusion runner."""
    from repro.experiments.common import make_runner

    return make_runner("elasticfusion", scale, dataset_seed=11)


@pytest.fixture(scope="session")
def shared_results():
    """Cross-benchmark result store.

    The Fig. 3 benchmark deposits its ODROID result here so the Fig. 5
    (crowd-sourcing) benchmark can reuse the tuned configuration, and the
    Fig. 4 benchmark deposits its result for the Table I benchmark — exactly
    how the paper's experiments build on one another.  Benches fall back to
    computing their own inputs when run in isolation.
    """
    return {}
