"""Benchmark-suite configuration: one shared experiment driver.

Run with::

    pytest benchmarks/ --benchmark-only -s

``-s`` shows the regenerated paper tables.  Every paper bench takes its
:class:`~repro.analysis.experiments.ExperimentResult` from the session's
``suite`` fixture, the same ``ExperimentSuite`` that regenerates
``EXPERIMENTS.md``, so each shape check tests a number the repo reports.
The suite memoises its runs, so experiments that share simulations
(Figures 4, 5 and 6 are three views of one comparison) run them once.

Scale knobs (environment variables):

* ``REPRO_BENCH_INSTS``  — instructions per run (default 150_000),
* ``REPRO_BENCH_WARMUP`` — measurement warmup (default 40% of the budget),
* ``REPRO_BENCH_SEED``   — workload seed (default 0).

The paper ran 300M instructions per benchmark on SimpleScalar; these
defaults keep the full harness around ten minutes of pure-Python simulation
while leaving every mechanism exercised.  Absolute numbers move with scale;
the shapes the benches assert do not.
"""

import os

import pytest

from repro.analysis.experiments import ExperimentSuite


@pytest.fixture(scope="session")
def suite() -> ExperimentSuite:
    n_insts = int(os.environ.get("REPRO_BENCH_INSTS", 150_000))
    # In-process and without the on-disk result cache: every bench session
    # simulates what it asserts on.
    return ExperimentSuite(
        n_insts,
        warmup=int(os.environ.get("REPRO_BENCH_WARMUP", int(n_insts * 0.4))),
        seed=int(os.environ.get("REPRO_BENCH_SEED", 0)),
        workers=1,
        cache=None,
    )
