"""Command-line interface.

Usage (``python -m repro <command> ...``)::

    python -m repro gen-data usedcars --rows 40000 --out cars.csv
    python -m repro cadview --dataset usedcars --rows 20000 \
        --sql "CREATE CADVIEW v AS SET pivot = Make SELECT Price \
               FROM data WHERE BodyType = SUV LIMIT COLUMNS 5 IUNITS 3"
    python -m repro check --dataset usedcars --rows 1000 \
        --sql "SELECT Price FROM data WHERE Price > 9 AND Price < 5"
    python -m repro repl --dataset usedcars --rows 20000 \
        --worklog session.worklog.jsonl
    python -m repro replay session.worklog.jsonl --budget-ms 200
    python -m repro serve session.worklog.jsonl --stress --procs 2 --chaos
    python -m repro study --rows 8124
    python -m repro profile --rows 40000
    python -m repro deps --dataset usedcars

Datasets come either from the built-in generators or from a CSV written
by ``gen-data`` (pass ``--csv`` with ``--dataset`` naming its schema).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Optional

from repro.core import CADView, CADViewConfig, DBExplorer
from repro.core.render import render_cadview
from repro.dataset.table import Table
from repro.dataset.generators import (
    generate_mushroom,
    generate_usedcars,
    mushroom_schema,
    usedcars_schema,
)
from repro.errors import (
    AnalysisError,
    BudgetExceededError,
    CADViewError,
    ConvergenceError,
    DurabilityError,
    RecoveryError,
    ReproError,
)
from repro.obs import (
    NO_WORKLOG,
    MetricsRegistry,
    Tracer,
    WorkLogWriter,
    evaluate_slos,
    parse_slos,
    read_worklog,
    registry,
    write_chrome_trace,
    write_metrics,
    write_stitched_chrome_trace,
)
from repro.robustness import Budget, FaultInjector

__all__ = [
    "main", "build_parser",
    "EXIT_OK", "EXIT_USAGE", "EXIT_BUILD_FAILED", "EXIT_BUDGET_EXHAUSTED",
]

# Distinct exit codes so scripts and CI can tell failure modes apart.
EXIT_OK = 0                 # statement ran to completion
EXIT_USAGE = 1              # bad flags / unparsable statement / other error
EXIT_BUILD_FAILED = 2       # the build itself failed (no view produced)
EXIT_BUDGET_EXHAUSTED = 3   # budget ran out with nothing built

_DEFAULT_ROWS = {"usedcars": 40_000, "mushroom": 8_124}


def _load_table(args) -> Table:
    if args.csv:
        schema = (
            usedcars_schema() if args.dataset == "usedcars"
            else mushroom_schema()
        )
        try:
            table = Table.from_csv(
                args.csv, schema,
                max_bad_rows=getattr(args, "max_bad_rows", 0),
            )
            for err in table.quarantined:
                print(f"warning: skipped bad row: {err}", file=sys.stderr)
            return table
        except OSError as exc:
            # a bad --csv path is a usage error, not a crash — and the
            # artifact flush guards only see ReproError
            raise ReproError(f"cannot read --csv {args.csv!r}: {exc}") \
                from exc
    rows = args.rows or _DEFAULT_ROWS[args.dataset]
    if args.dataset == "usedcars":
        return generate_usedcars(rows, seed=args.seed)
    return generate_mushroom(rows, seed=args.seed)


def _add_data_args(parser, default_dataset="usedcars") -> None:
    parser.add_argument(
        "--dataset", choices=("usedcars", "mushroom"),
        default=default_dataset,
        help="which built-in dataset (and schema) to use",
    )
    parser.add_argument("--rows", type=int, default=None,
                        help="rows to generate (default: paper scale)")
    parser.add_argument("--seed", type=int, default=7, help="RNG seed")
    parser.add_argument("--csv", default=None,
                        help="load this CSV instead of generating")
    parser.add_argument(
        "--max-bad-rows", type=int, default=0, metavar="N",
        help="quarantine (skip, with a warning) up to N malformed CSV "
             "rows instead of failing on the first one",
    )


def _add_budget_args(parser) -> None:
    parser.add_argument(
        "--budget-ms", type=float, default=None,
        help="wall-clock budget per CADVIEW build (degrades, then "
             "truncates, before failing)",
    )
    parser.add_argument(
        "--max-rows", type=int, default=None,
        help="sample the input down to this many rows before building",
    )
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault-injection plan, e.g. 'cluster:Jeep=convergence*2' "
             "(default: the REPRO_FAULTS environment variable)",
    )


def _add_slo_args(parser) -> None:
    parser.add_argument(
        "--slo", action="append", default=None, metavar="SPEC",
        help="latency/error-rate objectives to check after the run, "
             "e.g. 'view:p95_ms<=500,*:error_rate<=0.05' (metrics: "
             "p50_ms/p95_ms/p99_ms/mean_ms/error_rate; kind '*' spans "
             "all statements); repeatable; failure exits 2",
    )
    parser.add_argument(
        "--slo-warn", action="store_true",
        help="report SLO violations as warnings instead of failing "
             "(what CI uses on pull requests)",
    )


def _add_obs_args(parser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a Chrome trace-event JSON of the session to FILE "
             "(load in chrome://tracing or ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="write a metrics-registry snapshot (JSON) to FILE on exit",
    )
    parser.add_argument(
        "--worklog", default=None, metavar="FILE",
        help="append one JSONL record per executed statement to FILE "
             "(replayable with 'repro replay'; default: the "
             "REPRO_WORKLOG environment variable)",
    )


def _session_tracer(args) -> Optional[Tracer]:
    """A session tracer when ``--trace`` asked for one."""
    if getattr(args, "trace", None):
        return Tracer("session", command=args.command)
    return None


def _session_worklog(args) -> Optional[WorkLogWriter]:
    """A workload-log writer when ``--worklog`` asked for one.

    Writes the session header immediately, so even a session that dies
    before its first statement leaves a well-formed log behind.  When
    the flag is absent the explorer falls back to ``REPRO_WORKLOG``.
    """
    if not getattr(args, "worklog", None):
        return None
    writer = WorkLogWriter(args.worklog)
    writer.session(
        command=args.command,
        dataset=getattr(args, "dataset", None),
        rows=getattr(args, "rows", None),
        seed=getattr(args, "seed", None),
        csv=getattr(args, "csv", None),
    )
    return writer


def _write_obs(
    args,
    tracer: Optional[Tracer],
    worklog: Optional[WorkLogWriter] = None,
    supervisor=None,
) -> None:
    """Flush ``--trace`` / ``--metrics`` / ``--worklog`` (also on failure).

    Every command that opens observability outputs calls this from a
    ``finally`` so artifacts survive *any* abort — including statements
    the semantic analyzer rejects before the first build span opens.

    Under ``--procs`` the interesting spans and metrics live in worker
    processes; the ``supervisor``'s :class:`~repro.obs.hub.TelemetryHub`
    holds the merged view, so ``--trace`` writes the *stitched*
    multi-process Chrome trace and ``--metrics`` the cluster-wide
    registry (supervisor + every worker incarnation + drop counters).
    """
    if getattr(args, "trace", None) and tracer is not None:
        root = tracer.finish()
        if supervisor is not None:
            write_stitched_chrome_trace(
                args.trace, root, supervisor.telemetry.span_trees()
            )
        else:
            write_chrome_trace(root, args.trace)
    if getattr(args, "metrics", None):
        write_metrics(
            registry() if supervisor is None
            else supervisor.telemetry.cluster_registry(),
            args.metrics,
        )
    if worklog is not None:
        worklog.close()


def _check_slos(args, snapshot) -> Optional[str]:
    """Evaluate ``--slo`` against a metrics snapshot, print the report.

    Returns a failure message when the check should fail the command
    (``None`` with no ``--slo``, a passing check, or ``--slo-warn``).
    """
    specs = getattr(args, "slo", None)
    if not specs:
        return None
    spec = ",".join(specs) if isinstance(specs, list) else specs
    report = evaluate_slos(parse_slos(spec), snapshot)
    print(report.render(), file=sys.stderr)
    if report.ok or getattr(args, "slo_warn", False):
        if not report.ok:
            print("warning: SLO check failed (--slo-warn: not fatal)",
                  file=sys.stderr)
        return None
    return "SLO check failed"


def _explorer(
    args,
    tracer: Optional[Tracer] = None,
    worklog: Optional[WorkLogWriter] = None,
) -> DBExplorer:
    """A DBExplorer configured from the common CLI flags."""
    try:
        budget = None
        if args.budget_ms is not None or args.max_rows is not None:
            budget = Budget(
                deadline_s=(
                    args.budget_ms / 1e3
                    if args.budget_ms is not None else None
                ),
                max_rows=args.max_rows,
            )
        faults = (
            FaultInjector.parse(args.faults)
            if args.faults is not None else None
        )
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    return DBExplorer(
        CADViewConfig(seed=args.seed), budget=budget, faults=faults,
        tracer=tracer, worklog=worklog,
    )


def _show(result, cell_width: int) -> None:
    if isinstance(result, Table):
        print(f"-- {len(result)} row(s)")
        for row in result.head(10).iter_rows():
            print("  ", row)
        if len(result) > 10:
            print("   ...")
    elif isinstance(result, CADView):
        print(render_cadview(result, cell_width=cell_width))
    elif isinstance(result, list):
        if not result:
            print("-- empty result")
        for item in result:
            if (
                isinstance(item, tuple)
                and len(item) == 2
                and isinstance(item[1], float)
            ):  # HIGHLIGHT SIMILAR IUNITS rows
                ref, sim = item
                print(f"   {ref}  similarity {sim:.2f}")
            else:  # DESCRIBE / SHOW CADVIEWS rows
                if isinstance(item, tuple):
                    print("   " + "  ".join(str(p) for p in item))
                else:
                    print(f"   {item}")
    else:
        print(result)


def cmd_gen_data(args) -> int:
    """``gen-data``: write a generated dataset to CSV."""
    table = _load_table(args)
    table.to_csv(args.out)
    print(f"wrote {len(table)} rows x {len(table.schema)} attributes "
          f"to {args.out}")
    return 0


def cmd_cadview(args) -> int:
    """``cadview``: execute one statement against the loaded table."""
    tracer = _session_tracer(args)
    worklog = _session_worklog(args)
    try:
        # everything after the outputs open runs inside the flush guard:
        # a bad fault spec, a CSV that fails to load, or a statement the
        # analyzer rejects must still leave the artifacts behind
        dbx = _explorer(args, tracer, worklog)
        dbx.register("data", _load_table(args))
        _show(dbx.execute(args.sql), args.cell_width)
    except ReproError as exc:
        if tracer is not None:
            tracer.annotate("error", f"{type(exc).__name__}: {exc}")
        raise
    finally:
        # a failed build still leaves a partial, annotated trace behind
        _write_obs(args, tracer, worklog)
    return EXIT_OK


def cmd_check(args) -> int:
    """``check``: run the semantic analyzer only; never execute.

    Exit 0 when the statement is clean or carries only warnings
    (printed), 1 when any ERROR-severity diagnostic fires.
    """
    dbx = _explorer(args, None)
    dbx.register("data", _load_table(args))
    report = dbx.analyze(args.sql)
    _print_report(args, report)
    return EXIT_OK if report.ok else EXIT_USAGE


def cmd_repl(args) -> int:
    """``repl``: interactive statement shell."""
    tracer = _session_tracer(args)
    worklog = _session_worklog(args)
    try:
        dbx = _explorer(args, tracer, worklog)
        table = _load_table(args)
        dbx.register("data", table)
        print(f"loaded {len(table)} rows as table 'data'; "
              f"type statements, or 'quit'")
        while True:
            try:
                line = input("dbexplorer> ").strip()
            except EOFError:
                print()
                return EXIT_OK
            if not line:
                continue
            if line.lower() in ("quit", "exit"):
                return EXIT_OK
            try:
                _show(dbx.execute(line), args.cell_width)
            except ReproError as exc:
                print(f"error: {exc}")
    finally:
        _write_obs(args, tracer, worklog)


def _print_report(args, report) -> None:
    """Print a report as JSON (``--json``) or as its text rendering."""
    if args.json:
        import json

        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())


def _replay_defaults_from_header(args, records) -> None:
    """Fill dataset/rows/seed/csv flags from the log's session header."""
    session = next(
        (r for r in records if r.get("kind") == "session"), {}
    )
    if args.dataset is None:
        dataset = session.get("dataset")
        args.dataset = dataset if dataset in ("usedcars", "mushroom") \
            else "usedcars"
    if args.rows is None and isinstance(session.get("rows"), int):
        args.rows = session["rows"]
    if args.seed is None:
        seed = session.get("seed")
        args.seed = seed if isinstance(seed, int) else 7
    if args.csv is None and isinstance(session.get("csv"), str):
        args.csv = session["csv"]
    if args.budget_ms is not None and args.budget_ms <= 0:
        args.budget_ms = None


def _read_workload(args, path: str):
    """Read the workload log at ``path``, honoring ``--strict``.

    Returns ``(records, corrupt_count)``.  Tolerant mode (the default)
    skips undecodable lines with a warning — a writer killed mid-write
    leaves a truncated trailing line, and a crash-recovery replay must
    not choke on the very record whose statement caused the crash.
    ``--strict`` turns any such line into a usage error instead.  The
    log's session header then fills the dataset/rows/seed/csv flags
    left unset.
    """
    corrupt: list = []
    strict = bool(getattr(args, "strict", False))
    try:
        records = read_worklog(path, strict=strict, corrupt_lines=corrupt)
    except (ValueError, OSError) as exc:
        raise ReproError(f"cannot read worklog {path!r}: {exc}") from exc
    for lineno in corrupt:
        print(
            f"warning: {path}:{lineno}: corrupt worklog line skipped",
            file=sys.stderr,
        )
    _replay_defaults_from_header(args, records)
    # guard before _session_worklog opens the file: opening in append
    # mode would stamp a session header onto the log being replayed
    if getattr(args, "worklog", None) and os.path.abspath(args.worklog) \
            == os.path.abspath(path):
        raise ReproError(
            "refusing to replay a worklog into itself; pass a different "
            "--worklog path"
        )
    return records, len(corrupt)


def cmd_replay(args) -> int:
    """``replay``: re-execute a captured workload log, report latency.

    The session header of the log supplies the dataset/rows/seed/csv
    defaults; explicit flags override them, so a 40k-row capture can be
    replayed against 4k rows or under a tighter ``--budget-ms``.  A
    ``--budget-ms`` of 0 (or less) means "no budget".

    The log runs through the dependency-aware harness
    (:mod:`repro.serve.stress`) with ``--concurrency`` workers
    (default 1: sequential is concurrency 1, so every replay's
    per-statement digests are comparable).  ``--verify-sequential``
    then replays once more at concurrency 1 against a fresh table and
    fails (exit 2) on any digest mismatch: the zero-wrong-answers gate.
    """
    if args.concurrency < 1:
        raise ReproError(
            f"--concurrency must be >= 1, got {args.concurrency}"
        )
    records, corrupt = _read_workload(args, args.worklog_file)
    return _replay_threads(args, records, corrupt, args.concurrency)


def _fresh_replay_explorer(args, tracer=None, worklog=None):
    """A configured explorer with the replay table freshly loaded.

    ``NO_WORKLOG`` (not None) when ``--worklog`` is absent: a
    ``REPRO_WORKLOG`` environment variable must not append the replayed
    statements to the very log being read.
    """
    dbx = _explorer(
        args, tracer, worklog if worklog is not None else NO_WORKLOG
    )
    dbx.register("data", _load_table(args))
    return dbx


def _replay_threads(
    args, records, corrupt: int, concurrency: int, config=None,
    profiler=None,
) -> int:
    """Drive a log through a fresh thread pool, print, and gate it.

    The one sequence behind ``replay``, thread-mode ``serve --stress``
    (which passes its admission ``config``) and ``profile --session``
    (which passes the sampling ``profiler`` to run the replay under).
    """
    from repro.serve import replay_concurrent

    tracer = _session_tracer(args)
    if profiler is not None and tracer is None:
        # span frames are what makes the flamegraph semantic
        tracer = Tracer("session", command=args.command)
    worklog = _session_worklog(args)
    try:
        dbx = _fresh_replay_explorer(args, tracer, worklog)
        with profiler or contextlib.nullcontext():
            report = replay_concurrent(
                records, dbx, concurrency=concurrency, config=config
            )
        report.corrupt_lines = corrupt
        _print_report(args, report)
    finally:
        _write_obs(args, tracer, worklog)
    _print_profile(args, profiler)
    return _gate(args, records, report, registry().snapshot())


def _gate(
    args, records, report, snapshot, failures=(), label="concurrent"
) -> int:
    """The exit status of a driven log.

    Exit 1 when the log held no statement; exit 2 on any of
    ``failures``, a statement without a terminal outcome (a silent
    drop), a ``--verify-sequential`` digest mismatch (``label`` names
    the run under test) or a failed ``--slo`` over ``snapshot``.
    """
    if not report.results:
        print("error: no statement records in the workload log",
              file=sys.stderr)
        return EXIT_USAGE
    failures = list(failures)
    dropped = [
        res.index for res in report.results
        if res.outcome not in ("ok", "degraded", "rejected", "failed")
    ]
    if dropped:
        failures.append(
            f"statements without a terminal outcome: {dropped}"
        )
    if getattr(args, "verify_sequential", False):
        failure = _verify_sequential(args, records, report, label)
        if failure:
            failures.append(failure)
    slo_failure = _check_slos(args, snapshot)
    if slo_failure:
        failures.append(slo_failure)
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return EXIT_BUILD_FAILED if failures else EXIT_OK


def _verify_sequential(args, records, report, label: str) -> Optional[str]:
    """Compare ``report``'s digests with an in-process sequential replay.

    Prints each wrong answer (``label`` names the run under test) and
    returns the failure line, or prints the verified line and returns
    ``None``.
    """
    from repro.serve import replay_concurrent

    baseline = replay_concurrent(
        records, _fresh_replay_explorer(args), concurrency=1
    )
    mismatches = baseline.mismatches(report)
    for index, seq, other in mismatches:
        print(
            f"wrong answer at statement #{index}: "
            f"sequential={seq} {label}={other}",
            file=sys.stderr,
        )
    if mismatches:
        return (
            f"{len(mismatches)} digest mismatch(es) vs the "
            "sequential replay"
        )
    print(
        f"verified: {len(report.results)} statement(s) "
        "byte-identical to the sequential replay",
        # keep --json stdout machine-parseable
        file=sys.stderr if args.json else sys.stdout,
    )
    return None


def _admission_knobs(args) -> dict:
    """The admission, deadline and breaker flags of both serving modes."""
    from repro.serve import BreakerConfig

    return {
        "queue_limit": args.queue_limit,
        "deadline_s": (
            args.deadline_ms / 1e3 if args.deadline_ms is not None else None
        ),
        "breaker": BreakerConfig(
            trip_after=args.trip_after, cooldown_s=args.cooldown_ms / 1e3,
        ),
    }


def cmd_serve(args) -> int:
    """``serve --stress``: hammer the serving core with a workload log.

    Replays the log through the :class:`~repro.serve.SessionExecutor`
    with admission control, the deadline watchdog and the per-dataset
    circuit breakers all enabled — the opposite of the deterministic
    ``replay --concurrency`` configuration.  Prints per-statement
    outcomes, breaker states and executor load, and fails (exit 2) if
    any statement ends without a terminal outcome (a silent drop).

    ``--procs N`` swaps the thread pool for N supervised worker
    subprocesses (:mod:`repro.serve.proc`); ``--chaos`` then injects
    worker crash/hang/pipe-drop faults mid-run and asserts the
    supervision tree recovered: every statement terminal, restarts
    within the backoff bounds, and — with ``--verify-sequential`` —
    digests byte-identical to an in-process sequential replay.
    """
    from repro.serve import ServeConfig

    if not args.stress:
        raise ReproError(
            "only stress mode is implemented; pass --stress"
        )
    if args.torture is not None:
        return _serve_torture(args)
    if args.chaos and args.procs is None:
        raise ReproError("--chaos requires --procs")
    if args.verify_sequential and args.procs is None:
        raise ReproError(
            "--verify-sequential under serve requires --procs "
            "(thread-mode stress is deliberately nondeterministic; "
            "use 'replay --concurrency N --verify-sequential' instead)"
        )
    if args.state_dir and args.procs is None:
        raise ReproError(
            "--state-dir requires --procs (the durable catalog WAL "
            "lives in the multi-process supervisor)"
        )
    records, corrupt = _read_workload(args, args.worklog_file)
    if args.procs is not None:
        return _serve_procs(args, records, corrupt)
    try:
        config = ServeConfig(
            workers=args.workers,
            max_retries=args.max_retries,
            **_admission_knobs(args),
        )
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    return _replay_threads(args, records, corrupt, args.workers, config)


def _chaos_plan(n: int) -> str:
    """An index-narrowed chaos plan over an ``n``-statement workload.

    Counting faults (never probabilistic) at fixed statement indices,
    so the same workload always produces the same chaos schedule — the
    precondition for ``--chaos --verify-sequential`` byte-identity.
    One crash early, one hang mid-run, one pipe drop late; short
    workloads get however many distinct indices they can hold.
    """
    sites = []
    crash = n // 4
    sites.append(f"proc.worker_crash:{crash}=crash*1")
    hang = max(crash + 1, n // 2)
    if hang < n:
        # the sleep must outlive the supervisor's heartbeat timeout so
        # the missed-heartbeat detector (not the pipe) catches it
        sites.append(f"proc.worker_hang:{hang}=sleep:2.0*1")
    drop = max(hang + 1, (3 * n) // 4)
    if drop < n:
        sites.append(f"proc.pipe_drop:{drop}=crash*1")
    return ",".join(sites)


def _serve_procs(args, records, corrupt: int) -> int:
    """The ``serve --stress --procs N`` path: supervised subprocesses.

    Builds a :class:`~repro.serve.proc.ProcSupervisor` over ``N``
    dataset-sharded workers, replays the workload through it with the
    same DAG harness the thread path uses, then drains gracefully.  A
    SIGTERM mid-run turns into :meth:`begin_drain` — admission stops,
    in-flight statements finish or cancel, workers exit 0, artifacts
    flush — and the command still exits 0: that is the graceful-drain
    contract the chaos tests pin down.
    """
    import dataclasses
    import signal

    from repro.serve import replay_concurrent
    from repro.serve.proc import (
        ProcServeConfig,
        ProcSupervisor,
        WorkerSpec,
    )
    from repro.serve.stress import statement_sqls

    if args.procs < 1:
        raise ReproError(f"--procs must be >= 1, got {args.procs}")
    n = len(statement_sqls(records))
    faults_spec = args.faults
    if args.chaos:
        chaos_spec = _chaos_plan(n)
        faults_spec = (
            f"{faults_spec},{chaos_spec}" if faults_spec else chaos_spec
        )
        print(f"chaos plan: {chaos_spec}", file=sys.stderr)
        # the sequential baseline must run the same build-site faults;
        # proc.* sites are never consulted in-process, so sharing the
        # combined spec keeps the two runs digest-comparable
        args.faults = faults_spec
    try:
        budget = None
        if args.budget_ms is not None or args.max_rows is not None:
            budget = Budget(
                deadline_s=(
                    args.budget_ms / 1e3
                    if args.budget_ms is not None else None
                ),
                max_rows=args.max_rows,
            )
        spec = WorkerSpec(
            dataset=args.dataset,
            rows=args.rows,
            seed=args.seed,
            csv=args.csv,
            faults_spec=faults_spec,
            budget=budget,
            max_retries=args.max_retries,
        )
        config = ProcServeConfig(
            shards=args.procs,
            drain_grace_s=args.drain_grace_ms / 1e3,
            state_dir=args.state_dir,
            fsync_interval_ms=args.fsync_interval_ms,
            wal_segment_max_bytes=args.wal_segment_bytes,
            wal_snapshot_every=args.wal_snapshot_every,
            **_admission_knobs(args),
        )
        if args.chaos:
            # deterministic chaos: breakers and deadlines off (their
            # state depends on wall-clock completion order), admission
            # wide open, and a fast heartbeat so injected hangs are
            # detected in test time, not operator time
            config = dataclasses.replace(
                config,
                queue_limit=n + 1,
                deadline_s=None,
                breaker=None,
                heartbeat_interval_s=0.05,
                heartbeat_timeout_s=0.5,
                restart_backoff_base_s=0.05,
                restart_backoff_cap_s=0.5,
            )
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    tracer = _session_tracer(args)
    worklog = _session_worklog(args)
    supervisor = None
    old_handler = None
    old_usr1 = None
    stats_stop = None
    # the handler must be live *before* the workers boot: a SIGTERM
    # that lands while shards are still building their tables has to
    # drain gracefully too, not kill the process with the default
    # action.  CPython delivers signals on the main thread, so the
    # cell needs no lock.
    sigterm_state = {"supervisor": None, "drain": False}

    def _on_sigterm(signum, frame):
        # stop admission only: the DAG loop sees rejections, the
        # replay returns, and the drain below still runs to
        # completion on the main thread — handler-safe by design
        sup = sigterm_state["supervisor"]
        if sup is not None:
            sup.begin_drain()
        else:
            sigterm_state["drain"] = True  # apply once it exists

    try:
        try:
            old_handler = signal.signal(signal.SIGTERM, _on_sigterm)
        except ValueError:
            old_handler = None  # not the main thread (embedded use)
        # a private registry per run: the conservation and SLO gates
        # below must see exactly this run's counters, not whatever an
        # embedding process accumulated in the global registry
        supervisor = ProcSupervisor(
            spec, config, worklog=worklog, tracer=tracer,
            metrics=MetricsRegistry(),
        )
        sigterm_state["supervisor"] = supervisor
        if sigterm_state["drain"]:
            supervisor.begin_drain()
        if not supervisor.wait_ready(timeout=120.0):
            raise ReproError(
                "workers failed to become ready within 120s"
            )
        # the live ops surface: periodic stats lines on stderr, and an
        # on-demand atomic snapshot dump on SIGUSR1
        stats_path = args.stats_file or "repro-stats.json"
        if hasattr(signal, "SIGUSR1"):
            try:
                old_usr1 = signal.signal(
                    signal.SIGUSR1,
                    lambda signum, frame: _dump_stats(
                        sigterm_state["supervisor"], stats_path
                    ),
                )
            except ValueError:
                old_usr1 = None  # not the main thread (embedded use)
        if args.stats_interval is not None:
            import threading

            stats_stop = threading.Event()

            def _stats_loop():
                while not stats_stop.wait(args.stats_interval):
                    sup = sigterm_state["supervisor"]
                    if sup is not None:
                        print(_stats_line(sup.stats_snapshot()),
                              file=sys.stderr)

            threading.Thread(
                target=_stats_loop, name="repro-stats", daemon=True,
            ).start()
        report = replay_concurrent(
            records, executor=supervisor, concurrency=args.procs
        )
        report.corrupt_lines = corrupt
        drain_report = supervisor.drain()
        chaos = supervisor.chaos_stats()
        telemetry = supervisor.telemetry.stats()
        if args.stats_file:
            _dump_stats(supervisor, args.stats_file)
        if args.json:
            import json

            payload = report.as_dict()
            payload["drain"] = drain_report
            payload["chaos"] = chaos
            payload["telemetry"] = telemetry
            print(json.dumps(payload, indent=2, default=str))
        else:
            print(report.render())
            print(
                f"drain: cancelled={drain_report['cancelled']} "
                f"clean={drain_report['clean']} "
                f"exitcodes={drain_report['exitcodes']}"
            )
            print(
                f"chaos: deaths={chaos['deaths']} "
                f"resubmits={chaos['resubmits']} "
                f"max_restart_delay={chaos['max_restart_delay_s']:.3f}s "
                f"wedged={chaos['wedged']}"
            )
            print(
                f"telemetry: frames={telemetry['frames']} "
                f"workers={telemetry['workers_seen']} "
                f"spans={telemetry['span_trees']} "
                f"dropped={telemetry['dropped_total']:.0f}"
            )
    finally:
        if old_handler is not None:
            signal.signal(signal.SIGTERM, old_handler)
        if old_usr1 is not None:
            signal.signal(signal.SIGUSR1, old_usr1)
        if stats_stop is not None:
            stats_stop.set()
        if supervisor is not None:
            supervisor.close(wait=False)
        _write_obs(args, tracer, worklog, supervisor)
    failures = []
    if chaos["wedged"]:
        failures.append(f"{chaos['wedged']} ticket(s) never resolved")
    if chaos["max_restart_delay_s"] > chaos["backoff_cap_s"] + 1e-9:
        failures.append(
            f"restart delay {chaos['max_restart_delay_s']:.3f}s "
            f"exceeded the backoff cap {chaos['backoff_cap_s']:.3f}s"
        )
    if args.chaos and chaos["total_deaths"] == 0 and n >= 1:
        failures.append(
            "chaos run injected no worker deaths (vacuous pass)"
        )
    if args.chaos:
        # statement conservation: the parent-side per-shard completion
        # counters (plus the unrouted leg) must sum exactly to the
        # driver's statement count, worker deaths notwithstanding —
        # and telemetry losses must be *counted*, never silent
        import re as _re

        cluster = supervisor.telemetry.cluster_registry().snapshot()
        counters = cluster.get("counters", {})
        completed = sum(
            value for name, value in counters.items()
            if _re.fullmatch(r"proc\.s\d+\.completed", name)
        ) + counters.get("proc.unrouted.completed", 0.0)
        if int(completed) != len(report.results):
            failures.append(
                f"statement conservation broken: per-shard completed "
                f"counters sum to {int(completed)}, driver executed "
                f"{len(report.results)}"
            )
        if "proc.telemetry.dropped" not in counters:
            failures.append(
                "cluster metrics lack the proc.telemetry.dropped "
                "counter (drops must be counted, even at zero)"
            )
    return _gate(
        args, records, report,
        supervisor.telemetry.cluster_registry().snapshot(), failures,
        label="procs",
    )


def _serve_torture(args) -> int:
    """``serve --stress --torture N``: the kill -9 durability harness.

    Each of the ``N`` iterations SIGKILLs a fresh serving process at a
    deterministic point inside the WAL (via the ``wal.*`` fault sites),
    recovers the state directory, and asserts the recovered catalog is
    identical to the acked-mutation prefix.  ``--state-dir`` names the
    *root* under which per-iteration state dirs and failure artifacts
    are created (default: a fresh temp dir).  Exits 0 only if every
    crash point recovered correctly.
    """
    import json
    import tempfile

    from repro.serve.durability.torture import run_torture

    if args.torture < 1:
        raise ReproError(f"--torture must be >= 1, got {args.torture}")
    if args.procs is not None and args.procs < 1:
        raise ReproError(f"--procs must be >= 1, got {args.procs}")
    state_root = args.state_dir or tempfile.mkdtemp(
        prefix="repro-torture-"
    )
    report = run_torture(
        args.worklog_file,
        state_root,
        iterations=args.torture,
        rows=args.rows if args.rows is not None else 120,
        procs=args.procs if args.procs is not None else 1,
    )
    if args.json:
        print(json.dumps(report, indent=2, default=str))
    else:
        counts = " ".join(
            f"{site.split('.', 1)[1]}={count}"
            for site, count in sorted(report["site_counts"].items())
        )
        print(
            f"torture: iterations={report['iterations']} "
            f"killed={report['killed']} torn_tails={report['torn_tails']} "
            f"restarts_verified={report['restarts_verified']} "
            f"sites[{counts}]"
        )
        for failure in report["failures"]:
            print(
                f"error: iteration {failure.get('iteration')} "
                f"({failure.get('site')}:{failure.get('seq')}): "
                f"{failure.get('problem')}",
                file=sys.stderr,
            )
    if not report["ok"]:
        print(
            f"error: {len(report['failures'])} torture iteration(s) "
            f"violated the durability contract; artifacts under "
            f"{state_root}",
            file=sys.stderr,
        )
        return EXIT_BUILD_FAILED
    return EXIT_OK


def cmd_recover(args) -> int:
    """``recover``: inspect or verify a ``--state-dir`` offline.

    Read-only by default — torn tails and orphaned temp files are
    *reported* but left untouched; ``--truncate`` applies the same
    repairs startup recovery would.  Exit codes: 0 = the directory
    recovers to a consistent catalog (a truncatable torn tail is
    consistent), 2 = it does not (mid-history corruption, a sequence
    gap, or no readable snapshot), 1 = usage errors such as a missing
    directory.
    """
    import json
    import os as _os

    from repro.serve.durability import recover_state

    if not _os.path.isdir(args.state_dir):
        raise ReproError(
            f"state dir {args.state_dir!r} does not exist"
        )
    try:
        rec = recover_state(
            args.state_dir, shards=args.procs,
            truncate=bool(args.truncate),
        )
    except RecoveryError as exc:
        print(f"error: unrecoverable state dir: {exc}", file=sys.stderr)
        return EXIT_BUILD_FAILED
    payload = rec.as_dict()
    for warning in rec.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"recovered: last_seq={rec.last_seq} "
            f"snapshot_seq={rec.snapshot_seq} "
            f"segments={rec.segments} "
            f"replayed={rec.records_replayed} "
            f"skipped={rec.records_skipped}"
        )
        torn = rec.torn_tail
        if torn is not None:
            action = (
                "truncated" if torn.get("truncated") else "left in place"
            )
            print(
                f"torn tail: {torn['segment']} offset {torn['offset']} "
                f"({torn['reason']}) — {action}"
            )
        views = payload["views"]
        print(f"views ({len(views)}):")
        for name, shard in views.items():
            print(f"  {name} -> shard {shard}")
        for shard, length in payload["journal_lengths"].items():
            print(f"journal s{shard}: {length} entr"
                  f"{'y' if length == 1 else 'ies'}")
    return EXIT_OK


def _stats_line(snap) -> str:
    """One compact live-stats line (the ``--stats-interval`` output)."""
    shard_bits = []
    for entry in snap.get("shards", []):
        latency = entry.get("latency_ms") or {}
        p95 = latency.get("p95")
        shard_bits.append(
            f"s{entry['shard']}"
            f"[g{entry['incarnation']} inflight={entry['inflight']} "
            f"restarts={entry['restarts']}"
            + (f" p95={p95:.0f}ms" if p95 is not None else "")
            + "]"
        )
    tel = snap.get("telemetry", {})
    return (
        f"stats: submitted={snap.get('submitted', 0)} "
        f"queue={snap.get('queue_depth', 0)} "
        f"inflight={snap.get('inflight', 0)} "
        f"dropped={tel.get('dropped_total', 0):.0f} "
        + " ".join(shard_bits)
    )


def _dump_stats(supervisor, path: str) -> None:
    """Atomically write the full stats snapshot JSON (SIGUSR1 / exit)."""
    if supervisor is None:
        return
    import json

    from repro.obs.atomic import atomic_write_text

    atomic_write_text(
        path,
        json.dumps(supervisor.stats_snapshot(), indent=2, default=str)
        + "\n",
    )
    print(f"stats snapshot written to {path}", file=sys.stderr)


def cmd_stats(args) -> int:
    """``stats``: render a stats snapshot file, optionally gate on SLOs.

    The snapshot (written by ``serve --stats-file`` or a SIGUSR1 dump)
    embeds the full cluster metrics registry, so ``--slo`` evaluates
    offline — CI gates on the artifact without re-running the workload.
    """
    import json

    try:
        with open(args.stats_json) as fh:
            snap = json.load(fh)
    except OSError as exc:
        raise ReproError(
            f"cannot read stats snapshot {args.stats_json!r}: {exc}"
        ) from exc
    except ValueError as exc:
        # a torn/partial dump (a SIGUSR1 write racing this reader, or
        # a process killed mid-dump) is an operational condition, not
        # an operator mistake: diagnose it as such, and distinctly
        print(
            f"error: corrupt snapshot {args.stats_json!r}: "
            f"truncated or invalid JSON ({exc}); re-dump with SIGUSR1 "
            f"or rerun serve --stats-file",
            file=sys.stderr,
        )
        return EXIT_BUILD_FAILED
    if args.json:
        print(json.dumps(snap, indent=2))
    else:
        print(
            f"== serve stats: submitted={snap.get('submitted', 0)} "
            f"queue={snap.get('queue_depth', 0)} "
            f"inflight={snap.get('inflight', 0)} "
            f"resubmits={snap.get('resubmits', 0)} =="
        )
        print(
            f"{'shard':<6} {'inc':>4} {'ready':>6} {'restarts':>8} "
            f"{'inflight':>8} {'pending':>8} {'p50':>9} {'p95':>9} "
            f"{'p99':>9}"
        )
        for entry in snap.get("shards", []):
            latency = entry.get("latency_ms") or {}

            def _ms(key):
                value = latency.get(key)
                return f"{value:.1f}ms" if value is not None else "-"

            print(
                f"s{entry['shard']:<5} {str(entry['incarnation']):>4} "
                f"{str(bool(entry.get('ready'))):>6} "
                f"{entry.get('restarts', 0):>8} "
                f"{entry.get('inflight', 0):>8} "
                f"{entry.get('pending', 0):>8} "
                f"{_ms('p50'):>9} {_ms('p95'):>9} {_ms('p99'):>9}"
            )
        breakers = snap.get("breakers") or {}
        if breakers:
            states = "  ".join(
                f"{key}={state}" for key, state in sorted(breakers.items())
            )
            print(f"breakers: {states}")
        deaths = snap.get("deaths") or {}
        tel = snap.get("telemetry") or {}
        print(
            f"deaths: {deaths or '(none)'}  telemetry: "
            f"frames={tel.get('frames', 0)} "
            f"dropped={tel.get('dropped_total', 0)}"
        )
        work_totals = _work_counter_totals(
            (snap.get("metrics") or {}).get("counters") or {}
        )
        if work_totals:
            print("work counters (cumulative, all shards/incarnations):")
            for name, total in sorted(work_totals.items()):
                print(f"  {name} = {total}")
    slo_failure = _check_slos(args, snap.get("metrics") or {})
    if slo_failure:
        print(f"error: {slo_failure}", file=sys.stderr)
        return EXIT_BUILD_FAILED
    return EXIT_OK


def _work_counter_totals(counters) -> dict:
    """Sum ``work.*`` counters out of a metrics-counter mapping.

    Cluster snapshots relabel worker metrics ``proc.s<shard>.g<inc>.
    <name>``; strip that prefix so every shard and incarnation of one
    work counter folds into a single total.  Registries are fresh per
    incarnation, so plain summation is the correct cumulative figure.
    """
    totals: dict = {}
    for name, value in counters.items():
        base = name
        if base.startswith("proc.s"):
            parts = base.split(".", 3)
            if len(parts) == 4:
                base = parts[3]
        if base.startswith("work."):
            totals[base] = totals.get(base, 0) + int(value)
    return totals


def cmd_study(args) -> int:
    """``study``: run the simulated user study and print the analysis."""
    from repro.study import run_study

    args.dataset = "mushroom"
    table = _load_table(args)
    print(f"running the user study on {len(table)} rows...")
    results = run_study(table, seed=args.study_seed)
    for task_type in ("classifier", "similar_pair", "alternative"):
        q = results.analyze(task_type, "quality")
        t = results.analyze(task_type, "minutes")
        print(f"\n{task_type}: speedup {results.speedup(task_type):.2f}x")
        print(f"  quality: {q}")
        print(f"  time:    {t}")
    return 0


def cmd_profile(args) -> int:
    """``profile``: sample where the time goes; export flamegraphs.

    Two modes share the sampling flags:

    * default — time a naive and an optimized CAD View build (the
      original comparison), under the sampling profiler when
      ``--flamegraph`` or ``--memory`` ask for one;
    * ``--session LOG`` — replay a captured workload log under the
      sampling profiler and report per-span self time, deterministic
      work counters, a collapsed-stack flamegraph (``--flamegraph``)
      and per-phase peak memory (``--memory``).
    """
    from repro.core.builder import CADViewBuilder
    from repro.core.optimizer import recommended_config
    from repro.obs import SamplingProfiler

    if args.session:
        return _profile_session(args)
    if args.dataset is None:
        args.dataset = "usedcars"
    if args.seed is None:
        args.seed = 7
    table = _load_table(args)
    pivot = "Make" if args.dataset == "usedcars" else "class"
    base = CADViewConfig(
        compare_limit=args.compare, iunits_k=args.iunits,
        generated_l=args.generated, seed=args.seed,
    )
    tracer = _session_tracer(args)
    profiler = None
    if args.flamegraph or args.memory:
        profiler = SamplingProfiler(hz=args.sample_hz, memory=args.memory)
        if tracer is None:
            # span attribution needs spans: trace even without --trace
            tracer = Tracer("session", command="profile")
    worklog = _session_worklog(args)
    try:
        if profiler is not None:
            profiler.start()
        for name, config in (
            ("naive", base),
            ("optimized", recommended_config(base, len(table))),
        ):
            cad = CADViewBuilder(config).build(table, pivot, tracer=tracer)
            print(f"{name:>10}: {cad.profile}")
    finally:
        if profiler is not None:
            profiler.stop()
        _write_obs(args, tracer, worklog)
    _print_profile(args, profiler)
    return EXIT_OK


def _profile_session(args) -> int:
    """The ``profile --session LOG`` path: a replay under the sampler."""
    from repro.obs import SamplingProfiler

    records, corrupt = _read_workload(args, args.session)
    profiler = SamplingProfiler(hz=args.sample_hz, memory=args.memory)
    return _replay_threads(args, records, corrupt, 1, profiler=profiler)


def _print_profile(args, profiler) -> None:
    """Render the sampler's reports and write the flamegraph file."""
    if profiler is None:
        return
    print(profiler.self_time_report())
    if args.memory:
        print(profiler.memory_report())
    if args.flamegraph:
        count = profiler.write_collapsed(args.flamegraph)
        print(
            f"flamegraph: {count} collapsed stack(s) written to "
            f"{args.flamegraph} (feed to flamegraph.pl or speedscope)"
        )


def cmd_deps(args) -> int:
    """``deps``: print discovered FDs and top correlations."""
    from repro.features.dependencies import (
        correlation_pairs, discover_dependencies,
    )

    table = _load_table(args)
    print("soft functional dependencies (strength >= 0.98):")
    for dep in discover_dependencies(table, threshold=0.98):
        print(f"  {dep}")
    print("\nstrongest correlations (Cramér's V):")
    for x, y, v in correlation_pairs(table)[:10]:
        print(f"  {x} ~ {y}: {v:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DBExplorer (EDBT 2016) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a dataset CSV")
    p.add_argument("dataset", choices=("usedcars", "mushroom"))
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_gen_data, csv=None)

    p = sub.add_parser("cadview", help="run one statement")
    _add_data_args(p)
    _add_budget_args(p)
    _add_obs_args(p)
    p.add_argument("--sql", required=True, help="statement to execute")
    p.add_argument("--cell-width", type=int, default=26)
    p.set_defaults(func=cmd_cadview)

    p = sub.add_parser(
        "check", help="semantic-check one statement without executing it"
    )
    _add_data_args(p)
    _add_budget_args(p)
    p.add_argument("--sql", required=True, help="statement to analyze")
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON instead of text")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("repl", help="interactive statement shell")
    _add_data_args(p)
    _add_budget_args(p)
    _add_obs_args(p)
    p.add_argument("--cell-width", type=int, default=26)
    p.set_defaults(func=cmd_repl)

    p = sub.add_parser(
        "replay", help="re-execute a captured workload log"
    )
    p.add_argument("worklog_file",
                   help="workload log (JSONL) captured with --worklog")
    p.add_argument("--dataset", choices=("usedcars", "mushroom"),
                   default=None,
                   help="override the dataset recorded in the log")
    p.add_argument("--rows", type=int, default=None,
                   help="override the row count recorded in the log")
    p.add_argument("--seed", type=int, default=None,
                   help="override the RNG seed recorded in the log")
    p.add_argument("--csv", default=None,
                   help="load this CSV instead of generating")
    _add_budget_args(p)
    _add_obs_args(p)
    p.add_argument("--json", action="store_true",
                   help="print the replay report as JSON")
    p.add_argument(
        "--concurrency", type=int, default=1, metavar="N",
        help="replay through the serving executor with N workers "
             "(dependency-aware scheduling; deterministic — breakers "
             "and deadlines off; default 1)",
    )
    p.add_argument(
        "--verify-sequential", action="store_true",
        help="also replay sequentially and fail (exit 2) on any "
             "per-statement digest mismatch",
    )
    p.add_argument(
        "--strict", action="store_true",
        help="fail on corrupt/truncated worklog lines instead of "
             "skipping them with a warning",
    )
    _add_slo_args(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser(
        "serve",
        help="stress the concurrent serving core with a workload log",
    )
    p.add_argument("worklog_file",
                   help="workload log (JSONL) captured with --worklog")
    p.add_argument("--stress", action="store_true",
                   help="run the stress driver (required; there is no "
                        "network server)")
    p.add_argument("--dataset", choices=("usedcars", "mushroom"),
                   default=None,
                   help="override the dataset recorded in the log")
    p.add_argument("--rows", type=int, default=None,
                   help="override the row count recorded in the log")
    p.add_argument("--seed", type=int, default=None,
                   help="override the RNG seed recorded in the log")
    p.add_argument("--csv", default=None,
                   help="load this CSV instead of generating")
    p.add_argument("--workers", type=int, default=4,
                   help="executor pool threads")
    p.add_argument("--queue-limit", type=int, default=4,
                   help="bounded admission queue depth (beyond that: "
                        "explicit rejection with Retry-After)")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="per-query wall-clock deadline enforced by the "
                        "watchdog (default: none)")
    p.add_argument("--max-retries", type=int, default=2,
                   help="retries for transient faults, with backoff")
    p.add_argument("--trip-after", type=int, default=3,
                   help="consecutive failures that open a dataset's "
                        "circuit breaker")
    p.add_argument("--cooldown-ms", type=float, default=500.0,
                   help="how long an open breaker short-circuits builds "
                        "before the half-open probe")
    p.add_argument("--procs", type=int, default=None, metavar="N",
                   help="serve through N supervised worker subprocesses "
                        "(dataset-sharded, crash-recovering) instead of "
                        "the in-process thread pool")
    p.add_argument("--chaos", action="store_true",
                   help="with --procs: inject worker crash/hang/"
                        "pipe-drop faults mid-run and fail (exit 2) "
                        "unless the supervisor fully recovers")
    p.add_argument("--verify-sequential", action="store_true",
                   help="with --procs: also replay sequentially "
                        "in-process and fail (exit 2) on any "
                        "per-statement digest mismatch")
    p.add_argument("--drain-grace-ms", type=float, default=5000.0,
                   help="how long a graceful drain waits for in-flight "
                        "statements before cancelling them")
    p.add_argument("--strict", action="store_true",
                   help="fail on corrupt/truncated worklog lines "
                        "instead of skipping them with a warning")
    p.add_argument("--stats-interval", type=float, default=None,
                   metavar="SECONDS",
                   help="with --procs: print a live per-shard stats "
                        "line to stderr every SECONDS")
    p.add_argument("--stats-file", default=None, metavar="FILE",
                   help="with --procs: write the full stats snapshot "
                        "JSON to FILE at exit (SIGUSR1 dumps here too; "
                        "readable with 'repro stats')")
    p.add_argument("--state-dir", default=None, metavar="DIR",
                   help="with --procs: durable catalog WAL + snapshots "
                        "in DIR; startup recovers whatever a previous "
                        "process made durable (with --torture: the "
                        "root for per-iteration state dirs)")
    p.add_argument("--fsync-interval-ms", type=float, default=0.0,
                   metavar="MS",
                   help="group-commit window: mutations acked within "
                        "the same window share one fsync (0 = fsync "
                        "inline per mutation; default 0)")
    p.add_argument("--wal-segment-bytes", type=int, default=1 << 20,
                   metavar="BYTES",
                   help="rotate the WAL segment past this size")
    p.add_argument("--wal-snapshot-every", type=int, default=64,
                   metavar="N",
                   help="snapshot-compact the catalog every N WAL "
                        "records (truncates superseded segments)")
    p.add_argument("--torture", type=int, default=None, metavar="N",
                   help="run N kill -9 durability iterations: SIGKILL "
                        "a fresh serving process at deterministic "
                        "wal.* crash points, recover, and fail "
                        "(exit 2) on any acked-mutation loss or "
                        "unacked resurrection")
    _add_slo_args(p)
    _add_budget_args(p)
    _add_obs_args(p)
    p.add_argument("--json", action="store_true",
                   help="print the stress report as JSON")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "recover",
        help="inspect/verify a durable serve --state-dir offline",
    )
    p.add_argument("state_dir",
                   help="state directory written by "
                        "serve --procs --state-dir")
    p.add_argument("--procs", type=int, default=None, metavar="N",
                   help="expected shard count (refuse recovery on "
                        "mismatch, as serve startup would)")
    p.add_argument("--truncate", action="store_true",
                   help="apply repairs instead of reporting them: "
                        "truncate a torn tail, remove orphaned temp "
                        "files (default: read-only)")
    p.add_argument("--json", action="store_true",
                   help="emit the recovery report as JSON")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser(
        "stats",
        help="render a serve stats snapshot (and optionally check SLOs)",
    )
    p.add_argument("stats_json",
                   help="snapshot file written by serve --stats-file "
                        "or a SIGUSR1 dump")
    p.add_argument("--json", action="store_true",
                   help="re-emit the snapshot as JSON instead of the "
                        "rendered table")
    _add_slo_args(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("study", help="run the simulated user study")
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--study-seed", type=int, default=2016)
    p.set_defaults(func=cmd_study, csv=None, dataset="mushroom")

    p = sub.add_parser(
        "profile",
        help="profile a build or a replayed session (flamegraphs)",
    )
    _add_data_args(p)
    _add_obs_args(p)
    p.add_argument("--compare", type=int, default=11)
    p.add_argument("--iunits", type=int, default=6)
    p.add_argument("--generated", type=int, default=15)
    p.add_argument("--session", default=None, metavar="LOG",
                   help="replay this workload log under the sampling "
                        "profiler instead of running the naive-vs-"
                        "optimized build comparison (the log's session "
                        "header supplies dataset/rows/seed defaults)")
    p.add_argument("--flamegraph", default=None, metavar="FILE",
                   help="write collapsed stacks to FILE (the "
                        "flamegraph.pl / speedscope text format), with "
                        "tracer spans as 'span:<name>' frames")
    p.add_argument("--sample-hz", type=float, default=97.0,
                   help="stack sampling rate (default: 97 Hz — prime, "
                        "so it cannot lock step with periodic work)")
    p.add_argument("--memory", action="store_true",
                   help="also record per-phase peak memory via "
                        "tracemalloc (adds tracing overhead)")
    # data flags default to None here (unlike the other data commands)
    # so --session header values can fill them; cmd_profile restores
    # the usual usedcars/seed-7 defaults when no session log is given
    p.set_defaults(func=cmd_profile, dataset=None, seed=None,
                   budget_ms=None, max_rows=None, faults=None, json=False)

    p = sub.add_parser("deps", help="discover attribute dependencies")
    _add_data_args(p)
    p.set_defaults(func=cmd_deps)

    return parser


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes: 0 success, 1 usage/parse/other error, 2 build failed,
    3 budget exhausted with nothing built.  Errors go to stderr.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold into our usage code
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET_EXHAUSTED
    except AnalysisError as exc:
        # before the CADViewError clause: AnalysisError inherits from it,
        # but a statement rejected pre-execution is a usage error, not a
        # failed build
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CADViewError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUILD_FAILED
    except DurabilityError as exc:
        # an unrecoverable state dir or a failed WAL is an operational
        # failure (exit 2), not an operator mistake (exit 1)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUILD_FAILED
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
