"""Command-line front end: ``repro-sim``.

Subcommands::

    repro-sim run --workload em3d --filter pc --insts 100000
    repro-sim compare --workload mcf --insts 50000
    repro-sim config
    repro-sim sweep --workload wave5 --what history
    repro-sim sweep --workload wave5 --what history --resume run-1a2b3c4d5e
    repro-sim sweep --workload wave5 --backend shared-fs --queue-workers 2
    repro-sim sweep --workload wave5 --backend tcp --broker 127.0.0.1:7070
    repro-sim worker --queue-dir /shared/q0
    repro-sim worker --broker 127.0.0.1:7070
    repro-sim broker --queue-dir /shared/q0 --listen 127.0.0.1:7070
    repro-sim verify --workload em3d mcf --insts 12000
    repro-sim export --workload gcc --filter pa --format csv
    repro-sim lint
    repro-sim lint --update-baseline

Exists so the simulator can be driven without writing Python — handy for
quick sanity checks.  The paper's tables and figures have their own
driver: ``python -m repro.analysis.experiments --ids t2 f6``.

A sweep's backend is ``--backend``, else ``REPRO_BACKEND``, else the
in-process pool.  Each queue setting is its flag, else its ``REPRO_*``
variable, else its default (see :mod:`repro.analysis.backend`).
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


def _cmd_config(_args: argparse.Namespace) -> int:
    print(SimulationConfig.paper_default().describe())
    return 0


def _sweep_backend(args: argparse.Namespace):
    """Check that the sweep's backend flags fit together, then build the backend."""
    from repro.analysis.backend import BACKEND_ENV, queue_backend

    name = args.backend or os.environ.get(BACKEND_ENV)
    if name not in ("shared-fs", "tcp"):
        if (args.queue_dir or args.queue_workers is not None or args.queue_batch is not None
                or args.supervised or args.poison_threshold is not None or args.broker):
            raise ValueError(
                "--queue-dir/--queue-workers/--queue-batch/--supervised/--poison-threshold "
                "require --backend shared-fs (--broker requires --backend tcp)"
            )
        return args.backend  # "pool", or None: run_jobs defers to the env, then the pool
    return queue_backend(
        name,
        queue_dir=args.queue_dir,
        spawn=args.queue_workers,
        batch=args.queue_batch,
        supervise=args.supervised,
        poison_threshold=args.poison_threshold,
        broker=args.broker,
    )


def _report_commit_failures(journal) -> None:
    if journal.commit_errors:
        print(
            f"journal commit: {len(journal.commit_errors)} fsync(s) failed "
            f"({journal.commit_errors[-1]}); an OS crash may lose those lines, "
            "and a resume re-runs the jobs it lost",
            file=sys.stderr,
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
        done = len(journal.resumable())
        print(f"resuming {run_id}: {done} job(s) already journaled")
        lost = len(journal.completed()) - done
        if lost:
            print(f"  {lost} journaled job(s) have no matching stored result and will re-run")
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
                args.workload, cfg, n_insts=args.insts, seed=args.seed, engine=args.engine,
                workers=args.workers, policy=policy, journal=journal, backend=backend,
                deadline=args.deadline,
            )
            table = Table(
                f"history-size sweep — {args.workload}", ["entries", "IPC", "good", "bad"]
            )
            for entries, r in results.items():
                table.add_row(str(entries), [r.ipc, float(r.prefetch.good), float(r.prefetch.bad)])
        else:
            cfg = _finalize(SimulationConfig.paper_default(FilterKind.PA), args)
            if (args.engine or cfg.engine) == "kernel":
                print(
                    "note: the kernel tier models neither L1 port contention nor L1 "
                    "latency, so every row reads the same; this sweep needs "
                    "--engine pipeline",
                    file=sys.stderr,
                )
            results = sweep_l1_ports(
                args.workload, cfg, n_insts=args.insts, seed=args.seed, engine=args.engine,
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
        _report_commit_failures(journal)
        print(f"retry just the failed jobs with: --resume {run_id}", file=sys.stderr)
        return 1
    print(table.render())
    _report_commit_failures(journal)
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
    policy = RetryPolicy(max_attempts=max(1, args.retries + 1), timeout=args.timeout)
    store = TraceStore(args.trace_store) if args.trace_store else None
    # The guard's fault key carries the worker name, so a chaos plan can
    # open a pressure window for exactly one incarnation (`match=s2r0`).
    guard = PressureGuard(queue.root, key=f"{queue.root}|{name}")
    if args.min_free is not None:
        guard.min_free_bytes = parse_size(args.min_free, "--min-free")
    if args.max_rss is not None:
        guard.max_rss_bytes = parse_size(args.max_rss, "--max-rss")
    # A queue worker is a leaf: anything it runs must stay serial (no
    # nested pools), and `exit` faults may hard-kill it like any pool
    # worker.  Marked only now — after the last step that can reject
    # the invocation — so a rejected one does not leave the
    # process-wide marker behind when `main()` is called in-process.
    _mark_pool_worker()
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


def _cmd_lint(args: argparse.Namespace) -> int:
    """``repro-sim lint``: forward to the analyzer's own argument parser."""
    from repro.lint import main as lint_main

    return lint_main(args.lint_args)


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

    p_cfg = sub.add_parser("config", help="print the Table 1 machine")
    p_cfg.set_defaults(func=_cmd_config)

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
        "(default: REPRO_QUEUE_DIR, else a throwaway directory)",
    )
    p_swp.add_argument(
        "--broker", default=None, metavar="HOST:PORT",
        help="tcp backend: address of a running `repro-sim broker` "
        "(default: REPRO_BROKER env)",
    )
    p_swp.add_argument(
        "--queue-workers", type=int, default=None,
        help="shared-fs backend: local worker processes to spawn (default: "
        "REPRO_QUEUE_WORKERS, else workers - 1; the sweep process itself also drains)",
    )
    p_swp.add_argument(
        "--queue-batch", type=int, default=None,
        help="shared-fs backend: jobs claimed per worker per round (the "
        "trace-amortization batch size; default: REPRO_QUEUE_BATCH, else 8)",
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
