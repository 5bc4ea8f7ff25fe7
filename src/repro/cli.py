"""Command-line front end: ``repro-sim``.

Subcommands::

    repro-sim run --workload em3d --filter pc --insts 100000
    repro-sim compare --workload mcf --insts 50000
    repro-sim table2 --insts 50000
    repro-sim config
    repro-sim experiment --id f6 --insts 120000
    repro-sim sweep --workload wave5 --what history
    repro-sim sweep --workload wave5 --what history --resume run-1a2b3c4d5e
    repro-sim sweep --workload wave5 --backend shared-fs --queue-workers 2
    repro-sim sweep --workload wave5 --backend tcp --broker 127.0.0.1:7070
    repro-sim worker --queue-dir /shared/q0
    repro-sim worker --broker 127.0.0.1:7070
    repro-sim broker --queue-dir /shared/q0 --listen 127.0.0.1:7070
    repro-sim verify --workload em3d mcf --insts 12000
    repro-sim export --workload gcc --filter pa --format csv
    repro-sim bench --workload em3d --runs 5 --workers 0
    repro-sim bench --engines pipeline kernel --insts 200000
    repro-sim bench --sweep --runs 24 --insts 4000
    repro-sim bench --sweep --baseline BENCH_sweep.json --max-regress 0.25
    repro-sim bench --lint --runs 3
    repro-sim lint
    repro-sim lint --update-baseline

Exists so the simulator can be driven without writing Python — handy for
quick sanity checks and for regenerating individual paper rows.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.analysis.report import Table
from repro.analysis.sweep import compare_filters, run_workload
from repro.common.config import KNOWN_ENGINES, FilterKind, SimulationConfig
from repro.workloads import workload_names


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--insts", type=int, default=50_000, help="instruction budget per run")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--engine",
        choices=list(KNOWN_ENGINES),
        default=None,
        help="simulation engine (default: the config's engine, i.e. pipeline)",
    )
    p.add_argument(
        "--sanitize",
        action="store_true",
        help="enable runtime invariant checking (same as REPRO_SANITIZE=1)",
    )


def _finalize(cfg: SimulationConfig, args: argparse.Namespace) -> SimulationConfig:
    """Apply cross-cutting CLI flags and validate before anything is spawned.

    Validation here means a bad parameter combination fails with one
    actionable message at the front door, not as a traceback from inside
    a worker process minutes into a sweep.
    """
    if getattr(args, "sanitize", False):
        cfg = cfg.with_sanitize(True)
    return cfg.validate()


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = SimulationConfig.paper_default(FilterKind(args.filter))
    if args.l1_kb == 32:
        cfg = SimulationConfig.paper_32kb(FilterKind(args.filter))
    result = run_workload(args.workload, _finalize(cfg, args), args.insts, args.seed, args.engine)
    t = result.prefetch
    print(f"workload          {result.trace_name}")
    print(f"filter            {result.filter_name}")
    print(f"instructions      {result.instructions}")
    print(f"cycles            {result.cycles}")
    print(f"IPC               {result.ipc:.4f}")
    print(f"L1 miss rate      {result.l1_miss_rate:.4f}")
    print(f"L2 miss rate      {result.l2_miss_rate:.4f}")
    print(f"prefetches good   {t.good}")
    print(f"prefetches bad    {t.bad}")
    print(f"filtered          {t.filtered}")
    print(f"squashed          {t.squashed}")
    print(f"bad/good ratio    {t.bad_good_ratio:.4f}")
    print(f"pf/normal traffic {result.prefetch_to_normal_ratio:.4f}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cfg = _finalize(SimulationConfig.paper_default(), args)
    results = compare_filters(args.workload, cfg, n_insts=args.insts, seed=args.seed, engine=args.engine)
    table = Table(f"filter comparison — {args.workload}", ["filter", "IPC", "good", "bad", "bad/good"])
    for kind, r in results.items():
        table.add_row(kind.value, [r.ipc, float(r.prefetch.good), float(r.prefetch.bad), r.bad_good_ratio])
    print(table.render())
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    cfg = _finalize(
        SimulationConfig.paper_default().with_prefetch(nsp=False, sdp=False, software=False), args
    )
    table = Table("Table 2 — benchmark properties (prefetch off)", ["benchmark", "L1 miss", "L2 miss"])
    for name in workload_names():
        r = run_workload(name, cfg, args.insts, args.seed, args.engine, software_prefetch=False)
        table.add_row(name, [r.l1_miss_rate, r.l2_miss_rate])
    print(table.render())
    return 0


def _cmd_config(_args: argparse.Namespace) -> int:
    print(SimulationConfig.paper_default().describe())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import ExperimentSuite

    suite = ExperimentSuite(args.insts, seed=args.seed)
    for exp_id in args.id:
        print(suite.run_experiment(exp_id).render(with_figure=not args.no_figure))
        print()
    return 0


def _sweep_backend(args: argparse.Namespace):
    """Resolve the sweep's --backend/--queue-*/--broker flags into a backend spec."""
    if args.backend not in ("shared-fs", "tcp"):
        if (args.queue_dir or args.queue_workers is not None or args.supervised
                or args.poison_threshold is not None or args.broker):
            raise ValueError(
                "--queue-dir/--queue-workers/--supervised/--poison-threshold "
                "require --backend shared-fs (--broker requires --backend tcp)"
            )
        return args.backend  # "pool" resolves via the registry; None defers to env
    from repro.analysis.backend import QueueBackend

    broker = None
    if args.backend == "tcp":
        from repro.analysis.netqueue import BROKER_ENV

        broker = args.broker or os.environ.get(BROKER_ENV)
        if not broker:
            raise ValueError(
                f"--backend tcp needs a broker address: pass --broker HOST:PORT "
                f"or set {BROKER_ENV}"
            )
    elif args.broker:
        raise ValueError("--broker requires --backend tcp")
    elif args.queue_dir:
        from repro.analysis.workqueue import validate_queue_dir

        validate_queue_dir(args.queue_dir, what="--queue-dir")
    return QueueBackend(
        queue_dir=args.queue_dir,
        spawn=args.queue_workers,
        batch=args.queue_batch,
        supervise=args.supervised,
        poison_threshold=args.poison_threshold,
        broker=broker,
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.checkpoint import RunJournal, new_run_id
    from repro.analysis.resilience import JobsFailedError, RetryPolicy
    from repro.analysis.sweep import sweep_history_sizes, sweep_l1_ports

    run_id = args.resume or new_run_id()
    journal = RunJournal.for_run(run_id)
    policy = RetryPolicy(max_attempts=max(1, args.retries + 1), timeout=args.timeout)
    backend = _sweep_backend(args)
    if args.resume:
        done = len(journal.completed())
        print(f"resuming {run_id}: {done} job(s) already journaled")
        domains = journal.domains()
        if domains:
            print(
                "  failure domains from the previous run: "
                + ", ".join(f"{kind}={count}" for kind, count in sorted(domains.items()))
            )
        if journal.quarantined:
            print(
                f"journal quarantine: {journal.quarantined} corrupt line(s) refused; "
                "the affected jobs will be re-run",
                file=sys.stderr,
            )
    try:
        if args.what == "history":
            cfg = _finalize(
                SimulationConfig.paper_default(FilterKind.PA).with_warmup(args.insts // 3), args
            )
            results = sweep_history_sizes(
                args.workload, cfg, n_insts=args.insts, seed=args.seed,
                workers=args.workers, policy=policy, journal=journal, backend=backend,
                deadline=args.deadline,
            )
            table = Table(
                f"history-size sweep — {args.workload}", ["entries", "IPC", "good", "bad"]
            )
            for entries, r in results.items():
                table.add_row(str(entries), [r.ipc, float(r.prefetch.good), float(r.prefetch.bad)])
        else:
            results = sweep_l1_ports(
                args.workload, n_insts=args.insts, seed=args.seed,
                workers=args.workers, policy=policy, journal=journal, backend=backend,
                deadline=args.deadline,
            )
            table = Table(f"L1-port sweep — {args.workload}", ["ports", "IPC", "bad/good"])
            for ports, r in results.items():
                table.add_row(str(ports), [r.ipc, r.prefetch.bad_good_ratio])
    except JobsFailedError as exc:
        # Everything that completed is journaled; only the failures rerun.
        print(f"sweep incomplete: {exc}", file=sys.stderr)
        partial = exc.report.partial_results()
        if partial["deadline_hit"] or partial["unclaimed"] or partial["quarantined"]:
            # Deadline-bounded / quarantined sweeps end partially on
            # purpose — say exactly what landed and what did not.
            print(
                f"  partial results: {partial['completed']}/{partial['total']} completed, "
                f"{partial['unclaimed']} unclaimed"
                + (" at the deadline" if partial["deadline_hit"] else "")
                + f", {partial['quarantined']} quarantined as poison",
                file=sys.stderr,
            )
            domains = ", ".join(
                f"{kind}={count}" for kind, count in sorted(partial["by_domain"].items())
            )
            print(f"  failure domains: {domains}", file=sys.stderr)
        for outcome in exc.report.failures:
            if outcome.unclaimed:
                continue  # summarised above; not an error per job
            last = outcome.attempts[-1] if outcome.attempts else None
            detail = f"{last.kind}: {last.error}" if last else "no attempts"
            print(f"  job[{outcome.index}] {detail}", file=sys.stderr)
        for event in exc.report.degradations:
            print(f"  degradation: {event}", file=sys.stderr)
        print(f"retry just the failed jobs with: --resume {run_id}", file=sys.stderr)
        return 1
    print(table.render())
    if journal.quarantined:
        print(
            f"journal quarantine: {journal.quarantined} corrupt line(s) ignored "
            "(those jobs were re-run, not trusted)",
            file=sys.stderr,
        )
    print(f"run id: {run_id} (resume an interrupted sweep with --resume {run_id})")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """``repro-sim worker``: drain a job queue (shared directory or broker).

    Any number of these — on this host or on peers sharing the
    directory — cooperate through atomic-rename lease claims; a worker
    that dies mid-lease is detected by heartbeat silence and its work
    stolen (see :mod:`repro.analysis.workqueue`).  With ``--broker
    HOST:PORT`` the same protocol runs over TCP against ``repro-sim
    broker``, for hosts that share no filesystem
    (:mod:`repro.analysis.netqueue`); losing the broker past the retry
    budget is a clean exit 75, so a supervisor restarts the worker
    without charging its crash budget.
    """
    import time

    from repro.analysis.exitcodes import EXIT_JOBS_FAILED, EXIT_OK, EXIT_PRESSURE
    from repro.analysis.parallel import _mark_pool_worker
    from repro.analysis.resilience import RetryPolicy
    from repro.analysis.worker import drain_queue
    from repro.analysis.workqueue import FileQueue, new_worker_id, validate_queue_dir
    from repro.common.diskio import PressureGuard, parse_size
    from repro.trace.store import TraceStore

    if bool(args.queue_dir) == bool(args.broker):
        raise ValueError(
            "a worker drains exactly one queue: pass --queue-dir DIR "
            "(shared filesystem) or --broker HOST:PORT (TCP), not both or neither"
        )
    name = args.name or new_worker_id()
    if args.broker:
        from repro.analysis.netqueue import BrokerUnreachable, NetQueue, parse_broker_spec

        host, port = parse_broker_spec(args.broker)
        queue = NetQueue(host, port)
        try:
            # Handshake now: a typo'd or down broker fails here with one
            # actionable error, not deep inside the first claim — and
            # the hello adopts the broker queue's lease TTL, which
            # drives this worker's heartbeat cadence.
            queue.hello()
        except BrokerUnreachable as exc:
            # Same backoff-friendly exit as resource pressure: the
            # worker is fine, the world around it is not.  A supervisor
            # respawns it without charging the crash budget.
            print(f"worker {name}: {exc}", file=sys.stderr)
            return EXIT_PRESSURE
    else:
        validate_queue_dir(args.queue_dir, what="--queue-dir")
        queue = FileQueue(
            args.queue_dir, lease_ttl=args.lease_ttl, poison_threshold=args.poison_threshold
        )
    # A queue worker is a leaf: anything it runs must stay serial (no
    # nested pools), and `exit` faults may hard-kill it like any pool
    # worker.  Marked only now — after validation — so a rejected
    # invocation does not leave the process-wide marker behind when
    # `main()` is called in-process.
    _mark_pool_worker()
    policy = RetryPolicy(max_attempts=max(1, args.retries + 1), timeout=args.timeout)
    store = TraceStore(args.trace_store) if args.trace_store else None
    # The guard's fault key carries the worker name, so a chaos plan can
    # open a pressure window for exactly one incarnation (`match=s2r0`).
    guard = PressureGuard(queue.root, key=f"{queue.root}|{name}")
    if args.min_free is not None:
        guard.min_free_bytes = parse_size(args.min_free, "--min-free")
    if args.max_rss is not None:
        guard.max_rss_bytes = parse_size(args.max_rss, "--max-rss")
    deadline = time.monotonic() + args.deadline if args.deadline is not None else None
    stats = drain_queue(
        queue,
        worker=name,
        batch=args.batch,
        policy=policy,
        trace_store=store,
        poll=args.poll,
        exit_when_empty=not args.keep_alive,
        max_jobs=args.max_jobs,
        guard=guard,
        deadline=deadline,
    )
    print(
        f"worker {stats.worker}: {stats.executed} job(s) "
        f"({stats.claimed} claimed, {stats.stolen} stolen, {stats.failed} failed) "
        f"in {stats.drain_s:.2f}s across {stats.groups} trace group(s), "
        f"{stats.trace_reuses} trace reuse(s)"
    )
    for event in stats.degradations:
        print(f"  degradation: {event}", file=sys.stderr)
    if stats.stopped in ("pressure", "disconnected", "heartbeat"):
        # EX_TEMPFAIL-style exit: the host (or the network, or this
        # process's own heartbeat thread), not the work, is the problem.
        # A supervisor restarts this worker without burning crash budget.
        why = {
            "pressure": "resource pressure",
            "disconnected": "broker unreachable past the retry budget",
            "heartbeat": "heartbeat thread death",
        }[stats.stopped]
        print(f"worker {stats.worker}: drained-and-exited on {why}", file=sys.stderr)
        return EXIT_PRESSURE
    return EXIT_OK if stats.failed == 0 else EXIT_JOBS_FAILED


def _cmd_supervise(args: argparse.Namespace) -> int:
    """``repro-sim supervise``: keep a worker fleet at strength over a queue.

    Spawns ``--workers`` ``repro-sim worker`` subprocesses against
    ``--queue-dir``, restarts the ones that crash (capped exponential
    backoff) or exit under resource pressure (constant backoff), and
    quarantines poison jobs — jobs whose lease generation climbs past
    the threshold because every executor dies (see
    :mod:`repro.analysis.supervisor`).
    """
    from repro.analysis.supervisor import FleetSupervisor
    from repro.analysis.workqueue import FileQueue, validate_queue_dir

    validate_queue_dir(args.queue_dir, what="--queue-dir")
    queue = FileQueue(
        args.queue_dir, lease_ttl=args.lease_ttl, poison_threshold=args.poison_threshold
    )
    supervisor = FleetSupervisor(
        queue,
        workers=args.workers,
        batch=args.batch,
        poll=args.poll,
        worker_poll=args.poll,
        retries=args.retries,
        timeout=args.timeout,
        deadline=args.deadline,
        max_restarts=args.max_restarts,
        trace_store_dir=args.trace_store,
    )
    report = supervisor.run()
    counts = report.counts
    print(
        f"supervisor: {report.stopped or 'stopped'} after {report.elapsed_s:.2f}s "
        f"({report.workers} worker slot(s), {report.restarts} restart(s): "
        f"{report.crash_restarts} crash, {report.pressure_restarts} pressure)"
    )
    print(
        f"  queue: {counts.get('done', 0)} done, {counts.get('jobs', 0)} waiting, "
        f"{counts.get('leases', 0)} leased, {counts.get('poisoned', 0)} poisoned, "
        f"{counts.get('quarantined', 0)} corrupt-record quarantine(s)"
    )
    for event in report.events:
        print(f"  {event}", file=sys.stderr)
    if report.poisoned:
        print(
            f"  poison forensics: {queue.quarantine_dir}",
            file=sys.stderr,
        )
    return 0 if report.drained else 1


def _cmd_broker(args: argparse.Namespace) -> int:
    """``repro-sim broker``: serve a queue directory over TCP.

    A thin, crash-recoverable network front: all state lives in the
    ``--queue-dir`` :class:`~repro.analysis.workqueue.FileQueue`, so a
    broker killed mid-sweep loses nothing — restart it on the same
    directory (any port) and ``sweep --resume`` completes exactly the
    missing work.  Workers on any host connect with ``repro-sim worker
    --broker HOST:PORT``; sweeps submit with ``--backend tcp``.
    """
    from repro.analysis.netqueue import Broker, parse_broker_spec
    from repro.analysis.workqueue import FileQueue, validate_queue_dir

    host, port = parse_broker_spec(args.listen, what="--listen", allow_port_zero=True)
    validate_queue_dir(args.queue_dir, what="--queue-dir")
    queue = FileQueue(
        args.queue_dir, lease_ttl=args.lease_ttl, poison_threshold=args.poison_threshold
    )
    broker = Broker(queue, host=host, port=port)
    broker.start()
    # The exact line test harnesses and operators parse for the bound
    # port (`--listen host:0` picks a free one).
    print(f"broker listening on {broker.host}:{broker.port}", flush=True)
    if broker.restarts:
        print(
            f"broker: restart #{broker.restarts} on this queue dir; "
            "resuming from the filesystem state",
            flush=True,
        )
    try:
        broker.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        broker.stop()
        counts = queue.counts()
        print(
            f"broker stopped: {counts.get('done', 0)} done, "
            f"{counts.get('jobs', 0)} waiting, {counts.get('leases', 0)} leased",
            flush=True,
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Cross-engine differential oracle + golden corpus replay.

    Three gates, all of which must pass for exit 0: pipeline-vs-kernel
    parity within the documented tolerance, cc-vs-interp kernel parity
    bit-for-bit (the C leg ports the Python leg, so any drift at all is
    a porting bug; skipped with the reason when the cc leg cannot be
    built here, failed when a compiler rejects its source), and the
    golden corpus replay (unless skipped).
    """
    from pathlib import Path

    from repro.sanitize import differential as diff

    failed = False
    for workload in args.workload:
        for name in args.filter:
            kind = FilterKind.from_name(name)
            report = diff.run_parity(
                workload, kind, n_insts=args.insts, seed=args.seed,
                sanitize=not args.no_sanitize,
            )
            tag = f"{workload}/{name}"
            if report.ok:
                worst = report.worst
                detail = (
                    f"worst {worst.key}: rel {worst.rel:.3f}, abs {worst.delta}"
                    if worst else "exact"
                )
                print(f"parity {tag:14s} ok    ({detail})")
            else:
                failed = True
                print(f"parity {tag:14s} FAIL")
                for d in report.failures:
                    print(
                        f"    {d.key}: pipeline {d.pipeline} vs kernel {d.kernel} "
                        f"(rel {d.rel:.3f}, abs {d.delta})"
                    )

    for workload in args.workload:
        for name in args.filter:
            kind = FilterKind.from_name(name)
            exact = diff.run_kernel_parity(
                workload, kind, n_insts=args.insts, seed=args.seed,
                sanitize=not args.no_sanitize,
            )
            tag = f"{workload}/{name}"
            if exact.skipped:
                print(f"kernel {tag:14s} skip  ({exact.skipped})")
            elif exact.ok:
                print(f"kernel {tag:14s} ok    (cc bit-identical to interp)")
            else:
                failed = True
                print(f"kernel {tag:14s} FAIL  (cc vs interp)")
                for mismatch in exact.mismatches:
                    print(f"    {mismatch}")

    if not args.no_golden:
        directory = Path(args.golden) if args.golden else diff.default_golden_dir()
        if directory is None:
            print("golden: no corpus directory found (pass --golden DIR)", file=sys.stderr)
            failed = True
        else:
            for outcome in diff.verify_golden(directory):
                status = "ok   " if outcome.ok else ("STALE" if outcome.stale else "FAIL ")
                print(f"golden {outcome.path.name:26s} {status} {outcome.message}")
                for mismatch in outcome.mismatches:
                    print(f"    {mismatch}")
                if not outcome.ok:
                    failed = True

    print("verify: FAIL" if failed else "verify: all checks passed")
    return 1 if failed else 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.analysis.export import results_to_csv, results_to_json

    cfg = _finalize(
        SimulationConfig.paper_default(FilterKind(args.filter)).with_warmup(args.insts // 3), args
    )
    results = [
        run_workload(w, cfg, args.insts, args.seed, args.engine)
        for w in (args.workload or workload_names())
    ]
    text = results_to_csv(results, include_sources=args.sources) if args.format == "csv" else results_to_json(results)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _bench_engines(args: argparse.Namespace, lint_health: dict | None = None) -> int:
    """The ``bench --engines`` axis: per-run engine speedups + counter gaps.

    Times every (workload, filter) cell under each requested engine,
    records the speedup and the relative classification-counter deltas
    against the first engine listed (the reference, normally the
    pipeline), and times the trace store cold (synthesise + save) versus
    warm (load).  The report lands in ``--out`` (default
    ``BENCH_kernel.json``) — it is the documented-tolerance artefact the
    kernel engine's fidelity contract points at.

    Timing discipline for compiled engines: the first run of a compiled
    engine pays one-off costs (building or loading the cached C
    kernel) that would skew a timed rep, so every (engine,
    workload) pair gets one *untimed* warm-up run before any timed rep.
    Warm-up durations are recorded separately in the report's
    ``warmup`` health block — compile cost is visible, never silently
    folded into (or hidden from) the speedup numbers.
    """
    import json
    import math
    import tempfile
    import time

    from repro.analysis.sweep import run_workload
    from repro.trace.store import TraceStore
    from repro.workloads import cached_trace

    reference = args.engines[0]
    workloads = [args.workload] if args.workload else list(workload_names())
    filters = ("none", "pa", "pc")
    counter_keys = (
        "generated", "squashed", "filtered", "dropped", "issued", "good", "bad",
    )
    scalar_keys = (
        "l1_demand_accesses", "l1_demand_misses", "l2_demand_accesses",
        "l2_demand_misses", "prefetch_line_traffic", "demand_line_traffic",
    )

    def counters_of(result) -> dict:
        out = {k: getattr(result.prefetch, k) for k in counter_keys}
        out.update({k: getattr(result, k) for k in scalar_keys})
        return out

    def best_time(workload: str, cfg: SimulationConfig, engine: str, trace):
        best, result = math.inf, None
        for _ in range(2):  # best-of-2 absorbs one-off scheduler noise
            t0 = time.perf_counter()
            result = run_workload(workload, cfg, args.insts, args.seed, engine, trace=trace)
            best = min(best, time.perf_counter() - t0)
        return best, result

    # One untimed warm-up per (engine, workload) before any timed rep:
    # a compiled engine's first run carries compile/load cost.
    warmup_seconds: dict[str, dict[str, float]] = {e: {} for e in args.engines}

    def warm_up(workload: str, cfg: SimulationConfig, engine: str, trace) -> None:
        if workload in warmup_seconds[engine]:
            return
        t0 = time.perf_counter()
        run_workload(workload, cfg, args.insts, args.seed, engine, trace=trace)
        warmup_seconds[engine][workload] = round(time.perf_counter() - t0, 4)

    rows = []
    speedups: dict[str, list[float]] = {e: [] for e in args.engines[1:]}
    for workload in workloads:
        trace = cached_trace(workload, args.insts, args.seed)
        for filter_name in filters:
            cfg = _finalize(SimulationConfig.paper_default(FilterKind(filter_name)), args)
            seconds, counters, deltas = {}, {}, {}
            for engine in args.engines:
                warm_up(workload, cfg, engine, trace)
                seconds[engine], result = best_time(workload, cfg, engine, trace)
                counters[engine] = counters_of(result)
            row = {
                "workload": workload,
                "filter": filter_name,
                "seconds": {e: round(s, 4) for e, s in seconds.items()},
                "counters": counters,
            }
            for engine in args.engines[1:]:
                ratio = seconds[reference] / seconds[engine] if seconds[engine] else None
                row.setdefault("speedup_vs_" + reference, {})[engine] = (
                    round(ratio, 2) if ratio else None
                )
                if ratio:
                    speedups[engine].append(ratio)
                deltas[engine] = {
                    k: round(
                        abs(counters[engine][k] - counters[reference][k])
                        / max(1, counters[reference][k]),
                        4,
                    )
                    for k in counter_keys + scalar_keys
                }
            if deltas:
                row["counter_rel_delta_vs_" + reference] = deltas
            rows.append(row)
            cell = " ".join(
                f"{e}={seconds[e]:.3f}s" for e in args.engines
            )
            print(f"{workload:10s} {filter_name:4s} {cell}")

    # Trace store: cold synthesis-and-save versus warm load-from-disk.
    store_rows = []
    with tempfile.TemporaryDirectory() as tmp:
        store = TraceStore(tmp)
        for workload in workloads:
            t0 = time.perf_counter()
            store.get_or_build(workload, args.insts, args.seed + 1)  # unseen seed: cold
            cold = time.perf_counter() - t0
            t0 = time.perf_counter()
            store.get_or_build(workload, args.insts, args.seed + 1)
            warm = time.perf_counter() - t0
            store_rows.append(
                {
                    "workload": workload,
                    "cold_seconds": round(cold, 4),
                    "warm_seconds": round(warm, 4),
                    "speedup": round(cold / warm, 1) if warm else None,
                }
            )

    def geomean(values):
        return round(math.exp(sum(math.log(v) for v in values) / len(values)), 2)

    report = {
        "insts_per_run": args.insts,
        "seed": args.seed,
        "engines": list(args.engines),
        "reference_engine": reference,
        # Compile warm-up cost, kept out of the timed reps: the first
        # workload's warm-up absorbs any one-off compilation.
        "warmup": {
            engine: {
                "per_workload_seconds": per,
                "total_seconds": round(sum(per.values()), 4),
            }
            for engine, per in warmup_seconds.items()
        },
        "rows": rows,
        "trace_store": store_rows,
        "trace_store_stats": store.stats,
        "summary": {
            engine: {
                "geomean_speedup": geomean(values),
                "min_speedup": round(min(values), 2),
                "max_speedup": round(max(values), 2),
            }
            for engine, values in speedups.items()
            if values
        },
    }
    if "kernel" in args.engines:
        from repro.core.kernel import select_mode

        report["kernel_mode"] = select_mode()
    if lint_health is not None:
        report["lint"] = lint_health
    out = args.out or "BENCH_kernel.json"
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for engine, summary in report["summary"].items():
        print(
            f"{engine} vs {reference}: geomean {summary['geomean_speedup']}x "
            f"(min {summary['min_speedup']}x, max {summary['max_speedup']}x)"
        )
    print(f"wrote {out}")
    return _apply_baseline(report, args)


def _apply_baseline(report: dict, args: argparse.Namespace) -> int:
    """The ``bench --baseline`` regression gate; 0 = no baseline or ok."""
    if not args.baseline:
        return 0
    from repro.analysis.regression import compare_reports, load_baseline

    gate = compare_reports(report, load_baseline(args.baseline), max_regress=args.max_regress)
    print(gate.render())
    return 0 if gate.ok else 1


def _bench_sweep(args: argparse.Namespace, lint_health: dict | None = None) -> int:
    """The ``bench --sweep`` axis: queue-backend throughput + amortization.

    Times one job grid four ways — serial in-process, through the
    shared-FS queue backend at one and two workers, then through an
    in-process TCP broker — asserting along the way that every drain is
    bit-identical to serial.  The report
    (``BENCH_sweep.json`` by default) records jobs/sec per drain, the
    measured warm-up amortization (mean first-of-trace-group job time
    over mean rest-of-group time, from the workers' own stats files),
    and the host CPU count, because queue speedup on a 1-CPU box comes
    from I/O overlap and amortization, not parallel simulation — the
    report must let a reader see that.
    """
    import contextlib
    import json
    import os
    import tempfile
    import time

    from repro.analysis.backend import QueueBackend
    from repro.analysis.parallel import SimulationJob, run_jobs
    from repro.analysis.result_cache import ResultCache

    workloads = [args.workload] if args.workload else ["em3d", "mcf"]
    cfg = _finalize(
        SimulationConfig.paper_default(FilterKind(args.filter)).with_warmup(args.insts // 3), args
    )
    # The grid varies the *config* (filter kind × history-table size) over
    # a shared trace per workload, like a real sensitivity sweep — that is
    # what makes per-worker trace-group amortization measurable.  Seeds
    # only advance once a workload's config combinations are exhausted.
    sizes = (1024, 2048, 4096, 8192, 16384)
    kinds = (FilterKind.PA, FilterKind.PC)
    per = max(1, args.runs // len(workloads))
    jobs = []
    for w in workloads:
        for i in range(per):
            kind = kinds[(i // len(sizes)) % len(kinds)]
            cfg_i = cfg.with_filter(kind=kind, table_entries=sizes[i % len(sizes)])
            seed = args.seed + i // (len(sizes) * len(kinds))
            jobs.append(SimulationJob(w, cfg_i, args.insts, seed, engine=args.engine))

    def fingerprints(results):
        return [(r.cycles, r.instructions, r.prefetch) for r in results]

    def amortization(stats_list):
        first_s = sum(s.get("first_job_s", 0.0) for s in stats_list)
        first_n = sum(s.get("first_jobs", 0) for s in stats_list)
        rest_s = sum(s.get("rest_job_s", 0.0) for s in stats_list)
        rest_n = sum(s.get("rest_jobs", 0) for s in stats_list)
        if not first_n or not rest_n or not rest_s:
            return None
        return round((first_s / first_n) / (rest_s / rest_n), 2)

    t0 = time.perf_counter()
    serial = run_jobs(jobs, workers=1)
    t_serial = time.perf_counter() - t0
    expected = fingerprints(serial)
    drains = [
        {
            "label": "serial",
            "workers": 1,
            "seconds": round(t_serial, 3),
            "jobs_per_sec": round(len(jobs) / t_serial, 3),
            "speedup_vs_serial": 1.0,
        }
    ]
    print(f"serial        {len(jobs)} jobs in {t_serial:.2f}s")

    identical = True
    worker_counts = sorted({1, 2} | ({args.workers} if args.workers > 2 else set()))
    cache_stats = None
    queue_quarantined = 0
    queue_poisoned = 0
    transport_health = None
    # The same grid through the shared-FS queue at each worker count,
    # then through an in-process TCP broker, so the report shows what
    # the network hop costs relative to the directory queue and records
    # transport health (a clean bench must show zero reconnects/replays;
    # a noisy host shows up here, not as a silent throughput dip).
    for n_workers, over_tcp in [(n, False) for n in worker_counts] + [(2, True)]:
        with tempfile.TemporaryDirectory() as scratch, contextlib.ExitStack() as stack:
            address = None
            if over_tcp:
                from repro.analysis.netqueue import Broker
                from repro.analysis.workqueue import FileQueue

                broker = Broker(FileQueue(scratch + "/queue", lease_ttl=15.0),
                                host="127.0.0.1", port=0)
                broker.start()
                broker.serve_in_thread()
                stack.callback(broker.stop)
                address = f"127.0.0.1:{broker.port}"
            backend = QueueBackend(
                queue_dir=None if over_tcp else scratch + "/queue",
                broker=address,
                spawn=n_workers - 1,
                lease_ttl=15.0,
                batch=max(2, len(jobs) // (2 * n_workers)),
            )
            cache = None
            if not (args.no_cache or over_tcp):
                cache = ResultCache(args.cache_dir or scratch + "/cache")
            t0 = time.perf_counter()
            results = run_jobs(jobs, workers=1, cache=cache, backend=backend)
            seconds = time.perf_counter() - t0
            identical = identical and fingerprints(results) == expected
            stats_list = backend.last_worker_stats or [backend.last_parent_stats]
            if cache is not None:
                cache_stats = cache.stats
            label = f"{backend.name}[{n_workers}w]"
            drain = {
                "label": label,
                "workers": n_workers,
                "seconds": round(seconds, 3),
                "jobs_per_sec": round(len(jobs) / seconds, 3),
                "speedup_vs_serial": round(t_serial / seconds, 2),
                "amortization_first_vs_rest": amortization(stats_list),
                "trace_reuses": sum(s.get("trace_reuses", 0) for s in stats_list),
                "stolen": sum(s.get("stolen", 0) for s in stats_list),
            }
            if over_tcp:
                transport_health = drain["transport"] = dict(backend.last_transport)
            else:
                queue_quarantined += backend.last_counts.get("quarantined", 0)
                queue_poisoned += backend.last_counts.get("poisoned", 0)
                drain["queue_counts"] = backend.last_counts
            drain["worker_stats"] = stats_list
            drains.append(drain)
            print(
                f"{label:13s} {len(jobs)} jobs in {seconds:.2f}s "
                f"({t_serial / seconds:.2f}x vs serial, "
                f"amortization {amortization(stats_list)})"
            )

    report = {
        "workloads": workloads,
        "filter": args.filter,
        "engine": args.engine or "pipeline",
        "jobs": len(jobs),
        "insts_per_run": args.insts,
        "seed": args.seed,
        # Honesty marker: on a 1-CPU host, multi-worker speedup can only
        # come from I/O overlap + amortization, not parallel simulation.
        "cpu_count": os.cpu_count(),
        "drains": drains,
        "results_identical": identical,
    }
    # Health block: quarantines are invisible in throughput numbers, so
    # surface every flavour — corrupt queue records refused on read,
    # poison jobs sealed off, and cache-side corruption/pressure skips.
    health = {
        "queue_quarantined": queue_quarantined,
        "queue_poisoned": queue_poisoned,
    }
    if transport_health is not None:
        # Transport health from the tcp drain: nonzero on a clean local
        # bench means the loopback transport itself is misbehaving.
        health["net_reconnects"] = transport_health.get("reconnects", 0)
        health["net_retried_calls"] = transport_health.get("retried_calls", 0)
        health["net_replayed_ops"] = transport_health.get("replayed_ops", 0)
        health["net_broker_restarts"] = transport_health.get("broker_restarts", 0)
    if cache_stats is not None:
        health["cache_quarantined"] = cache_stats.get("quarantined", 0)
        health["cache_pressure_skipped"] = cache_stats.get("pressure_skipped", 0)
    report["health"] = health
    if any(health.values()):
        print(
            "health: "
            + ", ".join(f"{name}={count}" for name, count in health.items() if count)
        )
    if cache_stats is not None:
        report["cache"] = cache_stats
    if lint_health is not None:
        report["lint"] = lint_health
    out = args.out or "BENCH_sweep.json"
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    if not identical:
        print("bench --sweep: drained results are NOT identical to serial", file=sys.stderr)
        return 1
    return _apply_baseline(report, args)


def _cmd_lint(args: argparse.Namespace) -> int:
    """``repro-sim lint``: forward to the analyzer's own argument parser."""
    from repro.lint import main as lint_main

    return lint_main(args.lint_args)


def _lint_health() -> dict:
    """Static-analyzer counters for the ``bench --lint`` health gate."""
    from repro.lint import apply_baseline, default_repo_root, lint_tree, load_baseline
    from repro.lint.baseline import DEFAULT_BASELINE_NAME

    root = default_repo_root()
    result = apply_baseline(lint_tree(root), load_baseline(root / DEFAULT_BASELINE_NAME))
    return {
        "new": len(result.new),
        "accepted": len(result.accepted),
        "stale_baseline": len(result.stale),
    }


def _cmd_bench(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.analysis.parallel import SimulationJob, default_workers, run_jobs
    from repro.analysis.result_cache import ResultCache

    # Lint health gate: a sweep about to burn hours of CPU can assert the
    # tree passes static analysis first, and the report records the counts.
    lint_health = None
    if args.lint:
        lint_health = _lint_health()
        if lint_health["new"] or lint_health["stale_baseline"]:
            print(
                f"bench: static analysis is dirty ({lint_health['new']} new "
                f"finding(s), {lint_health['stale_baseline']} stale baseline "
                "entr(y/ies)) — run `repro-sim lint` and fix before benching",
                file=sys.stderr,
            )
            return 1

    if args.engines and args.sweep:
        raise ValueError("--engines and --sweep are different bench axes; pick one")
    if args.engines:
        # Accept both `--engines a b` and `--engines a,b,c`; validated here
        # (not via argparse choices) so the comma form gets the same message.
        args.engines = [e for part in args.engines for e in part.split(",") if e]
        unknown = [e for e in args.engines if e not in KNOWN_ENGINES]
        if unknown:
            raise ValueError(
                f"unknown engine(s) {', '.join(unknown)}; "
                f"choose from {', '.join(KNOWN_ENGINES)}"
            )
        return _bench_engines(args, lint_health)
    if args.sweep:
        return _bench_sweep(args, lint_health)

    workload = args.workload or "em3d"
    cfg = _finalize(
        SimulationConfig.paper_default(FilterKind(args.filter)).with_warmup(args.insts // 3), args
    )
    # Distinct seeds make each run a genuinely different simulation, so the
    # cache cannot collapse the batch into one job.
    jobs = [
        SimulationJob(workload, cfg, args.insts, args.seed + i, engine=args.engine)
        for i in range(args.runs)
    ]
    workers = args.workers if args.workers > 0 else default_workers()
    total_insts = args.insts * args.runs

    t0 = time.perf_counter()
    serial = run_jobs(jobs, workers=1)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_jobs(jobs, workers=workers)
    t_parallel = time.perf_counter() - t0

    identical = all(
        (a.cycles, a.instructions, a.prefetch) == (b.cycles, b.instructions, b.prefetch)
        for a, b in zip(serial, parallel)
    )

    t_cold = t_warm = None
    cache_stats = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir)
        t0 = time.perf_counter()
        run_jobs(jobs, workers=workers, cache=cache)
        t_cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = run_jobs(jobs, workers=workers, cache=cache)
        t_warm = time.perf_counter() - t0
        identical = identical and all(
            (a.cycles, a.instructions, a.prefetch) == (b.cycles, b.instructions, b.prefetch)
            for a, b in zip(serial, warm)
        )
        # Full health counters: quarantined > 0 means the disk is eating
        # entries — a degraded cache, not a cold one.
        cache_stats = cache.stats

    report = {
        "workload": workload,
        "filter": args.filter,
        "engine": args.engine or "pipeline",
        "runs": args.runs,
        "insts_per_run": args.insts,
        "workers": workers,
        "serial_seconds": round(t_serial, 3),
        "parallel_seconds": round(t_parallel, 3),
        "serial_insts_per_sec": round(total_insts / t_serial),
        "parallel_insts_per_sec": round(total_insts / t_parallel),
        "parallel_speedup": round(t_serial / t_parallel, 2),
        "results_identical": identical,
    }
    if t_cold is not None:
        report["cold_cache_seconds"] = round(t_cold, 3)
        report["warm_cache_seconds"] = round(t_warm, 3)
        report["warm_cache_speedup"] = round(t_serial / t_warm, 1) if t_warm else None
        report["cache"] = cache_stats
    if lint_health is not None:
        report["lint"] = lint_health

    if args.json:
        print(json.dumps(report, indent=1))
    else:
        for key, value in report.items():
            print(f"{key:24} {value}")
    if not identical:
        return 1
    return _apply_baseline(report, args)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Forwarded verbatim before argparse sees it: the analyzer owns its
    # whole flag surface (argparse's REMAINDER refuses leading --flags).
    if argv[:1] == ["lint"]:
        from repro.lint import main as lint_main

        return lint_main(argv[1:])
    parser = argparse.ArgumentParser(prog="repro-sim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one workload")
    p_run.add_argument("--workload", choices=workload_names(), required=True)
    p_run.add_argument("--filter", choices=[k.value for k in FilterKind], default="none")
    p_run.add_argument("--l1-kb", type=int, choices=[8, 32], default=8)
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="none vs PA vs PC on one workload")
    p_cmp.add_argument("--workload", choices=workload_names(), required=True)
    _add_common(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_t2 = sub.add_parser("table2", help="regenerate Table 2 miss rates")
    _add_common(p_t2)
    p_t2.set_defaults(func=_cmd_table2)

    p_cfg = sub.add_parser("config", help="print the Table 1 machine")
    p_cfg.set_defaults(func=_cmd_config)

    p_exp = sub.add_parser("experiment", help="run paper experiments by id (t1..t2, f1..f16, s1..s3)")
    p_exp.add_argument("--id", nargs="+", required=True)
    p_exp.add_argument("--no-figure", action="store_true", help="suppress text charts")
    p_exp.add_argument("--insts", type=int, default=50_000)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.set_defaults(func=_cmd_experiment)

    p_swp = sub.add_parser("sweep", help="history-size or port-count sweep")
    p_swp.add_argument("--workload", choices=workload_names(), required=True)
    p_swp.add_argument("--what", choices=["history", "ports"], default="history")
    p_swp.add_argument("--workers", type=int, default=1, help="parallel simulation processes")
    p_swp.add_argument(
        "--resume", metavar="RUN_ID", default=None,
        help="resume a crashed/interrupted sweep from its run journal "
        "(skips already-completed jobs; the run id is printed by every sweep)",
    )
    p_swp.add_argument("--retries", type=int, default=1, help="retries per failed job")
    p_swp.add_argument(
        "--timeout", type=float, default=None, help="per-job wall-clock timeout in seconds"
    )
    p_swp.add_argument(
        "--backend", choices=["pool", "shared-fs", "tcp"], default=None,
        help="execution backend (default: REPRO_BACKEND env, else the in-process pool)",
    )
    p_swp.add_argument(
        "--queue-dir", default=None,
        help="shared-fs backend: queue root directory shared with external workers "
        "(default: a throwaway directory)",
    )
    p_swp.add_argument(
        "--broker", default=None, metavar="HOST:PORT",
        help="tcp backend: address of a running `repro-sim broker` "
        "(default: REPRO_BROKER env)",
    )
    p_swp.add_argument(
        "--queue-workers", type=int, default=None,
        help="shared-fs backend: local worker processes to spawn "
        "(default: workers - 1; the sweep process itself also drains)",
    )
    p_swp.add_argument(
        "--queue-batch", type=int, default=8,
        help="shared-fs backend: jobs claimed per worker per round (the "
        "trace-amortization batch size)",
    )
    p_swp.add_argument(
        "--supervised", action="store_true",
        help="shared-fs backend: drain under a fleet supervisor (crashed/"
        "pressure-exited workers are restarted; poison jobs quarantined)",
    )
    p_swp.add_argument(
        "--poison-threshold", type=int, default=None,
        help="shared-fs backend: max lease generation before a job that keeps "
        "killing its workers is quarantined (default: REPRO_POISON_THRESHOLD or 3)",
    )
    p_swp.add_argument(
        "--deadline", type=float, default=None,
        help="global wall-clock budget in seconds: stop starting jobs at the "
        "deadline, report honest partial results, finish later with --resume",
    )
    _add_common(p_swp)
    p_swp.set_defaults(func=_cmd_sweep)

    p_wk = sub.add_parser(
        "worker",
        help="drain a sweep queue (start any number, anywhere the directory — "
        "or the broker — is reachable)",
    )
    p_wk.add_argument(
        "--queue-dir", default=None,
        help="queue root directory (shared-filesystem drain)",
    )
    p_wk.add_argument(
        "--broker", default=None, metavar="HOST:PORT",
        help="drain a `repro-sim broker` over TCP instead of a shared directory",
    )
    p_wk.add_argument("--name", default=None, help="worker identity (default: generated)")
    p_wk.add_argument(
        "--batch", type=int, default=8,
        help="jobs claimed per round; grouped by (engine, trace) so each group "
        "pays trace acquisition once",
    )
    p_wk.add_argument(
        "--lease-ttl", type=float, default=30.0,
        help="seconds of heartbeat silence before this worker's leases become stealable",
    )
    p_wk.add_argument("--poll", type=float, default=0.2, help="idle poll interval in seconds")
    p_wk.add_argument("--retries", type=int, default=1, help="retries per failed job")
    p_wk.add_argument(
        "--timeout", type=float, default=None, help="per-job wall-clock timeout in seconds"
    )
    p_wk.add_argument(
        "--keep-alive", action="store_true",
        help="keep draining after the queue empties (standing worker); stop externally",
    )
    p_wk.add_argument(
        "--max-jobs", type=int, default=None, help="exit after this many executions"
    )
    p_wk.add_argument(
        "--trace-store", default=None,
        help="on-disk trace store directory (default: synthesise traces in-process)",
    )
    p_wk.add_argument(
        "--deadline", type=float, default=None,
        help="stop claiming new jobs this many seconds from startup "
        "(in-flight jobs finish; exit 0)",
    )
    p_wk.add_argument(
        "--poison-threshold", type=int, default=None,
        help="max lease generation before a stale lease is quarantined as a "
        "poison job instead of stolen (default: REPRO_POISON_THRESHOLD or 3)",
    )
    p_wk.add_argument(
        "--min-free", default=None, metavar="SIZE",
        help="drain-and-exit (code 75) when free disk under the queue drops "
        "below SIZE (e.g. 256m; default: REPRO_MIN_FREE_BYTES or 32m)",
    )
    p_wk.add_argument(
        "--max-rss", default=None, metavar="SIZE",
        help="drain-and-exit (code 75) when this worker's RSS exceeds SIZE "
        "(e.g. 2g; default: REPRO_MAX_RSS, else unlimited)",
    )
    p_wk.set_defaults(func=_cmd_worker)

    p_sv = sub.add_parser(
        "supervise",
        help="spawn and supervise a worker fleet over a shared queue: restart "
        "crashes with backoff, quarantine poison jobs, honour a deadline",
    )
    p_sv.add_argument("--queue-dir", required=True, help="queue root directory")
    p_sv.add_argument("--workers", type=int, default=2, help="worker slots to keep filled")
    p_sv.add_argument(
        "--batch", type=int, default=8, help="jobs claimed per worker per round"
    )
    p_sv.add_argument(
        "--lease-ttl", type=float, default=30.0,
        help="seconds of heartbeat silence before a worker's leases become stealable",
    )
    p_sv.add_argument("--poll", type=float, default=0.2, help="monitor poll interval in seconds")
    p_sv.add_argument("--retries", type=int, default=1, help="retries per failed job (per worker)")
    p_sv.add_argument(
        "--timeout", type=float, default=None, help="per-job wall-clock timeout in seconds"
    )
    p_sv.add_argument(
        "--deadline", type=float, default=None,
        help="stop the fleet this many seconds from startup (workers stop "
        "claiming; in-flight jobs finish)",
    )
    p_sv.add_argument(
        "--max-restarts", type=int, default=10,
        help="restart budget per worker slot before it is retired",
    )
    p_sv.add_argument(
        "--poison-threshold", type=int, default=None,
        help="max lease generation before a job that keeps killing workers is "
        "quarantined (default: REPRO_POISON_THRESHOLD or 3)",
    )
    p_sv.add_argument(
        "--trace-store", default=None,
        help="on-disk trace store directory handed to every worker",
    )
    p_sv.set_defaults(func=_cmd_supervise)

    p_bk = sub.add_parser(
        "broker",
        help="serve a sweep queue over TCP: a thin, crash-recoverable network "
        "front over a FileQueue directory (all state lives on disk)",
    )
    p_bk.add_argument("--queue-dir", required=True, help="queue root directory (the durable state)")
    p_bk.add_argument(
        "--listen", required=True, metavar="HOST:PORT",
        help="address to listen on (port 0 picks a free port and prints it)",
    )
    p_bk.add_argument(
        "--lease-ttl", type=float, default=30.0,
        help="seconds of heartbeat silence before a worker's leases become stealable",
    )
    p_bk.add_argument(
        "--poison-threshold", type=int, default=None,
        help="max lease generation before a job that keeps killing workers is "
        "quarantined (default: REPRO_POISON_THRESHOLD or 3)",
    )
    p_bk.set_defaults(func=_cmd_broker)

    p_vf = sub.add_parser(
        "verify",
        help="differential oracle: pipeline-vs-kernel parity, cc-vs-interp "
        "kernel bit-identity + golden corpus replay",
    )
    p_vf.add_argument(
        "--workload", nargs="+", choices=workload_names(), default=["em3d", "mcf"],
        help="workloads to run through the engines (default: em3d mcf)",
    )
    p_vf.add_argument(
        "--filter", nargs="+", default=["none", "pa", "pc"],
        help="filters per workload (default: none pa pc)",
    )
    p_vf.add_argument("--insts", type=int, default=12_000, help="instructions per parity run")
    p_vf.add_argument("--seed", type=int, default=0)
    p_vf.add_argument("--golden", help="golden corpus directory (default: tests/golden)")
    p_vf.add_argument("--no-golden", action="store_true", help="skip the golden corpus replay")
    p_vf.add_argument(
        "--no-sanitize", action="store_true",
        help="run the parity pairs without the runtime invariant sanitizer",
    )
    p_vf.set_defaults(func=_cmd_verify)

    p_xp = sub.add_parser("export", help="export run results as CSV/JSON")
    p_xp.add_argument("--workload", nargs="*", choices=workload_names(), help="default: all")
    p_xp.add_argument("--filter", choices=[k.value for k in FilterKind], default="none")
    p_xp.add_argument("--format", choices=["csv", "json"], default="csv")
    p_xp.add_argument("--sources", action="store_true", help="include per-prefetcher tallies")
    p_xp.add_argument("--out", help="write to a file instead of stdout")
    _add_common(p_xp)
    p_xp.set_defaults(func=_cmd_export)

    p_bn = sub.add_parser("bench", help="time serial vs parallel vs cached execution")
    p_bn.add_argument("--workload", choices=workload_names(), default=None,
                      help="default: em3d (pool bench) / every workload (--engines bench)")
    p_bn.add_argument("--filter", choices=[k.value for k in FilterKind], default="pa")
    p_bn.add_argument("--runs", type=int, default=5, help="distinct simulations to time")
    p_bn.add_argument("--workers", type=int, default=0, help="parallel processes (0 = one per CPU)")
    p_bn.add_argument("--no-cache", action="store_true", help="skip the disk-cache timing phases")
    p_bn.add_argument("--cache-dir", help="result-cache directory (default: REPRO_CACHE_DIR or ~/.cache/repro)")
    p_bn.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_bn.add_argument(
        "--engines", nargs="+",
        help="engine-axis bench: time each engine per (workload, filter) cell "
        f"({', '.join(KNOWN_ENGINES)}; space- or comma-separated), record "
        "speedups and counter deltas vs the first engine listed, and time the "
        "trace store cold vs warm; writes --out (default BENCH_kernel.json)",
    )
    p_bn.add_argument(
        "--out",
        help="engine-axis report path (default: BENCH_kernel.json)",
    )
    p_bn.add_argument(
        "--lint", action="store_true",
        help="run the static analyzer first and refuse to bench a dirty tree; "
        "the report gains a 'lint' health-counter block",
    )
    p_bn.add_argument(
        "--sweep", action="store_true",
        help="sweep-backend axis: time a job grid serial vs through the "
        "shared-FS queue at 1 and 2 workers, verify bit-identical results, "
        "and record the warm-up amortization; writes BENCH_sweep.json",
    )
    p_bn.add_argument(
        "--baseline", default=None, metavar="BENCH_JSON",
        help="compare this bench's report against a previous BENCH_*.json and "
        "fail on a geomean throughput regression beyond --max-regress",
    )
    p_bn.add_argument(
        "--max-regress", type=float, default=0.25,
        help="allowed fractional geomean slowdown vs --baseline (default 0.25)",
    )
    _add_common(p_bn)
    p_bn.set_defaults(func=_cmd_bench)

    p_ln = sub.add_parser(
        "lint",
        help="AST-based simulator-invariant static analyzer (RL001-RL012)",
        add_help=False,
    )
    p_ln.add_argument(
        "lint_args", nargs=argparse.REMAINDER,
        help="arguments forwarded to the analyzer (same as python -m repro.lint)",
    )
    p_ln.set_defaults(func=_cmd_lint)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        from repro.analysis.exitcodes import EXIT_USAGE

        # Config/trace validation errors are user errors, not crashes:
        # one actionable line, distinct exit code.
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
