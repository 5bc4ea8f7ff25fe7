"""Performance-infrastructure smoke test (tier-1-safe scale).

Exercises the whole perf stack end to end at a tiny instruction budget:
parallel fan-out equals serial execution, the disk cache round-trips results
bit-identically, and a warm cache short-circuits execution entirely.  Speed
is measured by the benchmark in ``bench/`` (``python3 bench/run.py``); this
test only guards that the machinery keeps working.
"""

import time

from repro.analysis.parallel import SimulationJob, run_jobs
from repro.analysis.result_cache import ResultCache
from repro.common.config import FilterKind, SimulationConfig

N = 6_000
WARM = 1_500


def _jobs():
    cfg = SimulationConfig.paper_default().with_warmup(WARM)
    return [
        SimulationJob(workload, cfg.with_filter(kind=kind), N, 0)
        for workload in ("em3d", "gzip")
        for kind in (FilterKind.NONE, FilterKind.PA)
    ]


def test_parallel_cache_smoke(tmp_path):
    jobs = _jobs()
    serial = run_jobs(jobs, workers=1)

    parallel = run_jobs(jobs, workers=2)
    for a, b in zip(serial, parallel):
        assert (a.cycles, a.instructions, a.prefetch) == (b.cycles, b.instructions, b.prefetch)
        assert a.stats.flat() == b.stats.flat()

    cache = ResultCache(tmp_path)
    run_jobs(jobs, workers=1, cache=cache)
    assert len(cache) == len(jobs)

    t0 = time.perf_counter()
    warm = run_jobs(jobs, workers=1, cache=cache)
    warm_seconds = time.perf_counter() - t0
    assert cache.hits == len(jobs)
    for a, b in zip(serial, warm):
        assert (a.cycles, a.instructions, a.prefetch) == (b.cycles, b.instructions, b.prefetch)
        assert a.stats.flat() == b.stats.flat()
    # Warm reads are pure JSON loads; anything near simulation time means
    # the cache is being bypassed.
    assert warm_seconds < 1.0
