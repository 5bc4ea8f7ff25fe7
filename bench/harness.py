"""One workload in its own process: set up, warm up, time, trace, check.

``bench/run.py`` starts this script once per workload, one at a time,
and reads the JSON object it prints on stdout.  The protocol:

1. set-up, repeated :data:`SETUP_SAMPLES` times into fresh dirs (the
   last one is kept); ``setup_s`` adds the process's import and kernel
   load time to each sample;
2. the reference for the output check: direct, uncached simulations;
3. one untimed warm-up rep (on ``sweep-cold``, on a one-trace slice of
   the grid);
4. timed reps, each on fresh dirs, until both ``--reps`` and
   ``--seconds`` are satisfied; with ``--trace 1`` every timed rep is
   paired with a traced rep, the two run back to back (alternating which
   goes first), and the pair's ratio is the tracing overhead.

Between any two timed steps the harness times :func:`host.reference_work`
and divides each timing by the host's slowdown around it, so the numbers
are those of a host running at the reference speed.

Each rep's outputs are checked as soon as the rep ends and then dropped,
and a traced rep's spans are reduced to their summary at once, so the
process's memory, and with it ``peak_rss_mb``, does not grow with the
number of reps a run fits into ``--seconds``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

from host import peak_rss_mb, slowdown, stolen_s

#: Set-ups per run; ``setup_s`` is their median.  Every sample redoes
#: the whole set-up (trace synthesis, store or cache fill, memo fill)
#: into empty dirs with the trace memo cleared; what a later sample finds
#: already done is only the imports, whose one-time cost is measured once
#: and added to every sample.  The median keeps one slow sample from
#: moving ``setup_s``.
SETUP_SAMPLES = 3

#: After each timed step the host's speed is read for this share of the
#: step's length (one run of the reference at least).
CALIBRATION_SHARE = 0.25

EXECUTE_JOB = "analysis.parallel.execute_job"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(timed, traced, summaries, job_ms, ptail_info: dict) -> dict:
    """Per-layer numbers of the traced reps, per rep where they are totals."""
    from tracing import ROOT_SPAN, SPAN_NAMES

    n = len(traced)
    merged = {name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in SPAN_NAMES}
    for summary in summaries:
        for name, entry in summary.items():
            for field in ("calls", "total_ns", "self_ns"):
                merged[name][field] += entry[field]
    out = {}
    for name in SPAN_NAMES:
        entry = merged[name]
        out[f"{name}.calls"] = entry["calls"] / n
        out[f"{name}.self_ms"] = entry["self_ns"] / 1e6 / n
        out[f"{name}.ms_per_call"] = _ratio(entry["total_ns"] / 1e6, entry["calls"])
    root = merged[ROOT_SPAN]
    out["unattributed_ms"] = root["self_ns"] / 1e6 / n
    out["unattributed.share"] = _ratio(root["self_ns"], root["total_ns"])

    durations = sorted(job_ms)
    out[f"{EXECUTE_JOB}.p50_ms"] = statistics.median(durations) if durations else 0.0
    # The highest percentile with at least ten samples beyond it; with
    # fewer than eleven samples there is none, and the maximum stands in.
    tail = len(durations) - 11
    if tail >= 0:
        out[f"{EXECUTE_JOB}.ptail_ms"] = durations[tail]
        ptail_info.update(samples=len(durations), percentile=100.0 * (tail + 1) / len(durations))
    else:
        out[f"{EXECUTE_JOB}.ptail_ms"] = durations[-1] if durations else 0.0
        ptail_info.update(samples=len(durations), percentile=None)

    out["trace.store.hit_ratio"] = _ratio(
        sum(r.store_hits for r in traced), sum(r.store_hits + r.store_misses for r in traced))
    for layer in ("trace_store", "result_cache", "journal"):
        out[f"disk.{layer}_kb"] = sum(r.disk[layer] for r in traced) / 1024.0 / n
    out["tracing.overhead"] = 1.0 - statistics.median(
        t.jobs_per_s / u.jobs_per_s for u, t in zip(timed, traced))
    return out


def results_digest(outputs) -> str:
    """sha256 over the sorted (job key, counters) of one rep."""
    rows = sorted([key, c] for key, c in outputs)
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def mismatches(outputs, expected: dict) -> int:
    """Jobs whose counters differ from the direct simulation's."""
    return sum(1 for key, got in outputs
               if got is not None and key in expected and got != expected[key])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", choices=("0", "1"), default="1")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.time() when the parent started this process")
    args = parser.parse_args(argv)
    allowed = sorted(os.sched_getaffinity(0))
    try:
        return measure(args, allowed)
    finally:
        os.sched_setaffinity(0, allowed)


def measure(args, allowed) -> int:
    # Everything runs on one CPU, so that CPU's steal time is what the
    # host took from this process.
    cpus = allowed[:1]
    os.sched_setaffinity(0, cpus)
    steal = stolen_s(cpus)

    # Imports and the kernel load are part of set-up.
    warnings.filterwarnings("ignore", message="kernel engine:")
    from repro.core.kernel import select_mode
    from workloads import WORKLOADS, configs, make_jobs, reference, run_rep, set_up

    kernel_mode = select_mode()
    import_s = 0.0
    if args.spawned_at is not None:
        import_s = time.time() - args.spawned_at - (stolen_s(cpus) - steal)

    workload = WORKLOADS[args.workload]
    jobs = make_jobs(workload, args.seed, args.smoke)
    work = args.work_dir
    shutil.rmtree(work, ignore_errors=True)

    def read_slowdown(seconds: float) -> float:
        return slowdown(cpus, CALIBRATION_SHARE * seconds, work / "reference")

    # Every timing is divided by the host's slowdown, read just before
    # and just after it (the mean of the two), so it is at reference speed.
    before = read_slowdown(import_s)
    import_s /= before
    setup_samples = []
    state = None
    for i in range(1 if args.smoke else SETUP_SAMPLES):
        if state is not None:
            shutil.rmtree(state.root, ignore_errors=True)
        started, steal = time.perf_counter(), stolen_s(cpus)
        state = set_up(workload, jobs, work / f"setup{i}")
        elapsed = time.perf_counter() - started - (stolen_s(cpus) - steal)
        after = read_slowdown(elapsed)
        setup_samples.append(elapsed / ((before + after) / 2))
        before = after

    expected = reference(workload, state, jobs)
    warmup = jobs
    if workload.state == "cold":
        # A full cold rep would synthesise every trace; one trace warms the same code.
        warmup = jobs[:len(configs(workload.engine, jobs[0].n_insts))]
    warm = run_rep(workload, state, warmup, work / "warmup")

    timed, traced = [], []
    summaries, job_ms = [], []
    failed = mismatched = 0
    digest = None
    before = read_slowdown(warm.wall_s)
    started = time.perf_counter()
    while len(timed) < args.reps or (
        args.seconds is not None and time.perf_counter() - started < args.seconds
    ):
        pair = [False, True] if args.trace == "1" else [False]
        if len(timed) % 2:
            pair.reverse()  # alternate which of a pair runs first, so order effects cancel
        for trace in pair:
            rep = run_rep(workload, state, jobs, work / f"rep{len(timed) + len(traced)}", trace)
            after = read_slowdown(rep.wall_s)
            rep.slowdown = (before + after) / 2
            before = after
            failed += rep.failed
            mismatched += mismatches(rep.outputs, expected)
            if digest is None and not trace:
                digest = results_digest(rep.outputs)
            rep.outputs = []
            if rep.tracer is not None:
                summaries.append(rep.tracer.summary())
                job_ms.extend(rep.tracer.durations_ms(EXECUTE_JOB))
                if not traced:
                    rep.tracer.write_chrome_trace(
                        args.out_dir / f"{workload.name}.trace.json",
                        {"workload": workload.name, "seed": args.seed, "jobs": len(jobs)},
                    )
                rep.tracer = None
            (traced if trace else timed).append(rep)
    peak_rss = peak_rss_mb()
    shutil.rmtree(work, ignore_errors=True)

    e2e = {
        "jobs_per_s": [r.jobs_per_s for r in timed],
        "setup_s": [import_s + s for s in setup_samples],
        "cpu_ms_per_job": [r.cpu_ms_per_job for r in timed],
        "peak_rss_mb": [peak_rss],
        "disk_kb_per_job": [sum(r.disk.values()) / 1024.0 / r.jobs for r in timed],
    }
    ptail: dict = {}
    layers = layer_metrics(timed, traced, summaries, job_ms, ptail) if traced else {}

    print(json.dumps({
        "workload": workload.name,
        "jobs": len(jobs),
        "reps": len(timed),
        "traced_reps": len(traced),
        "attempted": sum(r.jobs for r in timed + traced),
        "failed": failed,
        "mismatched": mismatched,
        "checked_jobs": len(expected),
        "digest": digest,
        "kernel_mode": kernel_mode,
        "import_s": import_s,
        "setup_samples_s": setup_samples,
        "execute_job_ptail": ptail,
        # Per timed rep, for reference: jobs / raw wall time, the stolen
        # share of it, and the host's slowdown the rates were divided by.
        "wall_jobs_per_s": [r.jobs / r.wall_s for r in timed],
        "steal_share": [r.steal_s / r.wall_s for r in timed],
        "slowdown": [r.slowdown for r in timed],
        "e2e": e2e,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
