"""The session executor: a bounded thread pool around DBExplorer.

One :class:`SessionExecutor` turns a single :class:`~repro.core.explorer.
DBExplorer` into a multi-session server.  Statements are *submitted*,
not called: :meth:`SessionExecutor.submit` either admits the statement
into a **bounded** queue and returns a :class:`StatementTicket`, or
rejects it right away with :class:`~repro.errors.OverloadedError`
carrying a Retry-After estimate.  The serving core never queues
unboundedly — under overload it says so, cheaply, at the door.

What happens to an admitted statement:

1. The **analyzer gate** runs on the caller thread at submit, so a
   statement the semantic analyzer rejects never costs a queue slot or
   a pool thread (plain worker-side execution re-checks it — the gate
   is an admission optimization, not the source of truth).
2. A **worker thread** picks the ticket up.  If a per-dataset
   :class:`~repro.serve.breaker.CircuitBreaker` is open, the build is
   short-circuited onto the PR-1 degradation ladder: it runs under the
   tight ``open_budget`` instead of the full pipeline budget.
3. The **watchdog thread** enforces the per-query wall-clock deadline
   by tripping the ticket's :class:`~repro.robustness.CancelToken`;
   the build notices at its next budget checkpoint and raises
   :class:`~repro.errors.QueryCancelledError` — cancellation is
   cooperative, there is no thread killing.
4. **Transient faults** (injected worker crashes, clustering
   convergence failures) are retried with exponential backoff and
   deterministic jitter; everything else fails the ticket immediately.

Every admitted statement ends in exactly one terminal *outcome* —
``ok``, ``degraded``, ``rejected`` or ``failed`` — and leaves a
workload-log record behind (``dbx.execute`` writes it for statements
that ran; the executor writes it for statements that never reached the
explorer: admission rejections, gate failures, cancellations while
still queued).

Everything around execution — opening and rejecting tickets, the
attempt loop, breaker settlement and outcome accounting — is written
once here and shared with the multi-process supervisor
(:class:`ServingCore`, :func:`run_attempts`, and
:meth:`~repro.serve.breaker.CircuitBreaker.settle`).

Fault sites consulted here (see :mod:`repro.robustness.faults`):
``serve.queue_full`` forces an admission rejection even when the queue
has room; ``serve.slow_worker`` stalls (``sleep``) or crashes
(``crash``) the worker just before a statement executes.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Union,
)

from repro.errors import (
    AnalysisError,
    ConvergenceError,
    OverloadedError,
    ParseError,
    QueryCancelledError,
    ReproError,
    ServeError,
)
from repro.obs.metrics import MetricsRegistry, registry
from repro.obs.worklog import statement_kind
from repro.query.ast import CreateCadViewStatement, ExplainStatement
from repro.query.parser import parse
from repro.robustness.budget import Budget
from repro.robustness.cancel import CancelToken
from repro.robustness.faults import NO_FAULTS, FaultInjector
from repro.serve.breaker import BreakerBoard, BreakerConfig

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids serve<->core cycle
    from repro.core.explorer import DBExplorer, Session
    from repro.robustness.report import BuildReport

__all__ = [
    "ServeConfig", "SessionExecutor", "StatementTicket", "OUTCOMES",
    "ServingCore", "Attempts", "run_attempts", "backoff_s",
]

OUTCOMES = ("ok", "degraded", "rejected", "failed")
"""Every ticket ends in exactly one of these terminal outcomes."""

# Exceptions the retry machinery treats as transient: injected worker
# crashes (RuntimeError from the fault plan's ``crash`` kind), clustering
# that failed to converge, and I/O hiccups.  Semantic failures (parse /
# analysis / build errors) are deterministic and never retried.
_TRANSIENT_ERRORS = (ConvergenceError, RuntimeError, OSError)


def _default_open_budget() -> Budget:
    # what a short-circuited build runs under while its breaker is open:
    # tight enough to force the sampling/greedy rungs of the degradation
    # ladder, generous enough that a degraded answer usually completes
    return Budget(deadline_s=0.25, max_rows=2000, retries=0)


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of one :class:`SessionExecutor`.

    workers:
        Pool threads executing statements.
    queue_limit:
        Statements allowed to *wait* beyond the ones executing: once
        ``queued + active >= workers + queue_limit``, submits are
        rejected with :class:`~repro.errors.OverloadedError`.
    deadline_s:
        Per-query wall-clock deadline, measured from admission (queue
        wait counts); ``None`` disables the watchdog.
    max_retries:
        Extra attempts for transient failures (injected crashes,
        convergence errors) before the ticket fails.
    backoff_base_s / backoff_cap_s / retry_jitter_seed:
        Exponential backoff between retries: attempt ``n`` sleeps
        ``min(cap, base * 2**n)`` scaled by a deterministic jitter in
        ``[0.5, 1.0)`` seeded from ``(retry_jitter_seed, statement
        index, attempt)`` — reruns back off identically.
    breaker:
        Per-dataset circuit-breaker policy; ``None`` disables breakers
        entirely (deterministic replay does this — breaker state would
        otherwise depend on cross-statement completion order).
    open_budget:
        The tight budget a build runs under while its dataset's breaker
        is open (the short-circuit to the degradation ladder).
    watchdog_interval_s:
        How often the watchdog scans outstanding deadlines.
    """

    workers: int = 4
    queue_limit: int = 8
    deadline_s: Optional[float] = None
    max_retries: int = 2
    backoff_base_s: float = 0.02
    backoff_cap_s: float = 0.5
    retry_jitter_seed: int = 0
    breaker: Optional[BreakerConfig] = field(default_factory=BreakerConfig)
    open_budget: Budget = field(default_factory=_default_open_budget)
    watchdog_interval_s: float = 0.005

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_limit < 0:
            raise ValueError(
                f"queue_limit must be >= 0, got {self.queue_limit}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be > 0, got {self.deadline_s}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.watchdog_interval_s <= 0:
            raise ValueError(
                f"watchdog_interval_s must be > 0, "
                f"got {self.watchdog_interval_s}"
            )


class StatementTicket:
    """One admitted statement: a future plus its serving metadata.

    Tickets are created by :meth:`SessionExecutor.submit` and completed
    by a worker thread; :meth:`wait` blocks until then.  After
    completion, ``outcome`` is one of :data:`OUTCOMES`, ``status`` is
    the workload-log status string, and exactly one of ``result`` /
    ``error`` is set (both ``None`` only for statements whose result is
    ``None`` itself).
    """

    def __init__(
        self,
        index: int,
        sql: str,
        session: str,
        faults: FaultInjector,
        deadline_at: Optional[float] = None,
    ):
        self.index = index
        self.sql = sql
        self.session = session
        self.faults = faults
        self.deadline_at = deadline_at
        self.cancel = CancelToken()
        self.kind: Optional[str] = None       # statement_kind, once parsed
        self.dataset: Optional[str] = None    # breaker key, builds only
        self.attempts = 0
        self.short_circuited = False          # ran under open_budget
        self.probe = False                    # was the half-open probe
        self.result: Optional[object] = None
        self.error: Optional[BaseException] = None
        self.status: Optional[str] = None
        self.outcome: Optional[str] = None
        # the degradation rungs and deterministic work counters of the
        # build this statement ran, stamped when it executed (None when
        # it never reached dbx.execute): thread mode stamps them from
        # run_attempts, proc mode from the worker's response
        self.degradations: Optional[List[str]] = None
        self.work: Optional[Dict[str, int]] = None
        # set by the multi-process supervisor only, whose workers reduce
        # results to JSON digest payloads before they cross the pipe
        # (thread-mode callers digest ``result`` themselves)
        self.result_payload: object = None
        self.has_result_payload = False
        self.proc_attempts = 0                # resubmits after worker deaths
        self._done = threading.Event()
        self._callbacks: List[Callable[["StatementTicket"], None]] = []

    @property
    def done(self) -> bool:
        """True once the ticket reached a terminal outcome."""
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the ticket completes; False on timeout."""
        return self._done.wait(timeout)

    def add_done_callback(
        self, fn: Callable[["StatementTicket"], None]
    ) -> None:
        """Run ``fn(ticket)`` on completion (immediately if done)."""
        if self._done.is_set():
            fn(self)
            return
        self._callbacks.append(fn)
        # close the register-vs-finish race: _finish may have run
        # between the check above and the append
        if self._done.is_set() and fn in self._callbacks:
            self._callbacks.remove(fn)
            fn(self)

    def _finish(
        self,
        outcome: str,
        status: str,
        result: Optional[object] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        if outcome not in OUTCOMES:
            raise ServeError(f"unknown ticket outcome {outcome!r}")
        self.outcome = outcome
        self.status = status
        self.result = result
        self.error = error
        self._done.set()
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:
        state = self.outcome if self.done else "pending"
        return (
            f"StatementTicket(#{self.index}, {state}, "
            f"session={self.session!r})"
        )


class RetryPolicy(Protocol):
    """The transient-retry knobs :class:`ServeConfig` and the process
    workers' ``WorkerSpec`` both carry (same names, same meaning)."""

    max_retries: int
    backoff_base_s: float
    backoff_cap_s: float
    retry_jitter_seed: int


def backoff_s(policy: RetryPolicy, index: int, attempt: int) -> float:
    """The sleep after failed attempt ``attempt`` of statement ``index``.

    ``min(cap, base * 2**attempt)`` scaled by a deterministic jitter in
    ``[0.5, 1.0)`` seeded from ``(retry_jitter_seed, index, attempt)``,
    so reruns back off identically in either serving mode.
    """
    base = min(
        policy.backoff_cap_s, policy.backoff_base_s * (2.0 ** attempt)
    )
    rng = random.Random(
        policy.retry_jitter_seed * 1_000_003 + index * 1_009 + attempt
    )
    return base * (0.5 + rng.random() / 2.0)


@dataclass
class Attempts:
    """What :func:`run_attempts` reports about one statement.

    ``executed`` says whether the final attempt reached
    ``dbx.execute`` (which then wrote the statement's worklog record);
    ``report`` is the build report *this* execution produced, if any;
    ``work`` its work counters, ``None`` unless it executed.
    """

    result: object
    error: Optional[BaseException]
    attempts: int
    elapsed_s: float
    executed: bool
    report: Optional["BuildReport"]
    work: Optional[Dict[str, int]]

    @property
    def status(self) -> str:
        """The worklog status of the final attempt."""
        return _status_of(self.error)

    @property
    def degradations(self) -> List[str]:
        """The degradation rungs of this execution's build."""
        if self.report is None:
            return []
        return [str(d) for d in self.report.degradations]

    @property
    def degraded(self) -> bool:
        """True when the statement succeeded on a degraded build."""
        return (
            self.error is None
            and self.report is not None
            and self.report.degraded
        )


def run_attempts(
    dbx: "DBExplorer",
    sql: str,
    session: "Session",
    cancel: CancelToken,
    faults: FaultInjector,
    budget: Optional[Budget],
    policy: RetryPolicy,
    index: int,
    sleep: Callable[[float], None] = time.sleep,
    now: Callable[[], float] = time.monotonic,
) -> Attempts:
    """Execute one statement under the transient-retry policy.

    The attempt loop of both serving modes.  Each attempt checks
    ``cancel``, consults the ``serve.slow_worker`` fault site (``sleep``
    stalls the worker so a deadline can trip; an error kind simulates a
    worker crash the retries must absorb), checks ``cancel`` again and
    runs ``dbx.execute``.  Transient errors are retried after
    :func:`backoff_s` while attempts remain and the token is live; a
    cancellation and every other error end the loop at once.
    """
    report_before = session.last_report
    start = now()
    tries = policy.max_retries + 1
    result: object = None
    error: Optional[BaseException] = None
    for attempt in range(tries):
        executed = False
        try:
            cancel.raise_if_cancelled()
            faults.fire("serve.slow_worker")
            cancel.raise_if_cancelled()
            executed = True
            result = dbx.execute(
                sql, session=session, cancel=cancel, budget=budget,
                faults=faults,
            )
            error = None
            break
        except QueryCancelledError as exc:
            error = exc
            break
        except _TRANSIENT_ERRORS as exc:
            error = exc
            if attempt + 1 >= tries or cancel.cancelled:
                break
            sleep(backoff_s(policy, index, attempt))
        # not swallowed: the error becomes the statement's terminal
        # state, which the caller records and reports
        # repro-lint: ignore[RL004]
        except BaseException as exc:
            error = exc
            break
    report = session.last_report
    return Attempts(
        result=result,
        error=error,
        attempts=attempt + 1,
        elapsed_s=now() - start,
        executed=executed,
        report=report if report is not report_before else None,
        work=(
            dict(session.last_work)
            if executed and session.last_work else None
        ),
    )


def _outcome_of(status: str, degraded: bool) -> str:
    if status != "ok":
        return "failed"
    return "degraded" if degraded else "ok"


class ServingCore:
    """The statement lifecycle both serving modes share.

    :class:`SessionExecutor` (threads) and
    :class:`~repro.serve.proc.supervisor.ProcSupervisor` (worker
    processes) differ in where a statement runs; what happens around
    it is written once, here: opening a ticket, admission rejection,
    outcome accounting and the terminal worklog record.  A subclass
    provides ``config`` (with ``queue_limit`` and ``deadline_s``),
    ``_lock``, ``_metrics``, ``_now``, ``_breakers``, ``_worklog`` and
    the ``_submitted`` counter, plus the ``*_locked`` hooks below.
    """

    def _check_open_locked(self) -> None:
        """Raise :class:`ServeError` once statements are refused."""
        raise NotImplementedError

    def _retry_after_locked(self) -> float:
        """The Retry-After estimate a rejection carries."""
        raise NotImplementedError

    def _count_completion(self, shard: Optional[int]) -> None:
        """Backend-specific conservation counters (none for threads)."""

    def run(
        self,
        sql: str,
        session: str = "default",
        timeout: Optional[float] = None,
    ) -> StatementTicket:
        """Submit and wait: the one-call convenience wrapper."""
        ticket = self.submit(sql, session=session)
        ticket.wait(timeout)
        return ticket

    def breaker_states(self) -> Dict[str, str]:
        """Breaker key -> state name (empty when disabled)."""
        if self._breakers is None:
            return {}
        return self._breakers.states()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _open_ticket(
        self,
        sql: str,
        session: str,
        faults: Optional[FaultInjector],
        fault_index: Optional[int],
        base_faults: Optional[FaultInjector],
    ) -> StatementTicket:
        """Number a new ticket and consult the ``serve.queue_full`` site.

        Without an explicit ``faults`` the ticket gets ``base_faults``
        forked by ``fault_index`` (default: the ticket index), so
        counting faults never race across concurrent statements.
        """
        with self._lock:
            self._check_open_locked()
            index = self._submitted
            self._submitted += 1
        if faults is None:
            faults = NO_FAULTS if base_faults is None else base_faults.fork(
                fault_index if fault_index is not None else index
            )
        deadline_at = (
            self._now() + self.config.deadline_s
            if self.config.deadline_s is not None else None
        )
        ticket = StatementTicket(index, sql, session, faults, deadline_at)
        # the serve.queue_full fault site: a planned error here forces
        # the rejection path even with a roomy queue
        try:
            faults.fire("serve.queue_full")
        # _reject always raises OverloadedError (with this fault as
        # context), so nothing is swallowed here
        # repro-lint: ignore[RL004]
        except Exception as exc:
            with self._lock:
                retry_after = self._retry_after_locked()
            self._reject(ticket, retry_after, f"injected overload: {exc}")
        return ticket

    def _reject(
        self,
        ticket: StatementTicket,
        retry_after_s: float,
        reason: Optional[str] = None,
    ) -> None:
        """Finish ``ticket`` as rejected and raise its OverloadedError."""
        error = OverloadedError(
            reason or (
                f"admission queue full "
                f"({self.config.queue_limit} waiting)"
            ),
            retry_after_s=retry_after_s,
        )
        self._metrics.counter("serve.rejected").inc()
        try:
            ticket.kind = statement_kind(parse(ticket.sql))
        except ReproError:
            ticket.kind = "invalid"
        self._complete(ticket, "rejected", "rejected", error=error)
        raise error

    def _complete(
        self,
        ticket: StatementTicket,
        outcome: str,
        status: str,
        result: Optional[object] = None,
        error: Optional[BaseException] = None,
        elapsed_s: Optional[float] = None,
        shard: Optional[int] = None,
        log: bool = True,
        record: Optional[Dict[str, object]] = None,
    ) -> None:
        """Count, log and finish one ticket: its only terminal path.

        Every statement the server numbered — rejected, failed at the
        gate, or executed — passes here exactly once, so
        ``serve.statements.*`` sums to the statement count in either
        serving mode.  ``elapsed_s`` is the execution time; statements
        that never reached execution pass ``None`` and stay out of
        ``serve.latency.*``.  ``log`` writes the worklog record (with
        ``record`` as extra fields) for statements ``dbx.execute`` did
        not log itself.
        """
        metrics = self._metrics
        metrics.counter(f"serve.outcome.{outcome}").inc()
        metrics.counter(f"serve.statements.{status}").inc()
        if status == "cancelled":
            metrics.counter("serve.cancelled").inc()
        if ticket.attempts > 1:
            metrics.counter("serve.retries").inc(ticket.attempts - 1)
        if elapsed_s is not None:
            metrics.histogram(
                f"serve.latency.{ticket.kind or 'invalid'}"
            ).observe(elapsed_s)
        self._count_completion(shard)
        if log and self._worklog.enabled:
            fields: Dict[str, object] = {
                "error": (
                    f"{type(error).__name__}: {error}"
                    if error is not None else None
                ),
            }
            fields.update(record or {})
            self._worklog.statement(
                ticket.sql, ticket.kind or "invalid", status,
                (elapsed_s or 0.0) * 1e3, session=ticket.session,
                **fields,
            )
        ticket._finish(outcome, status, result=result, error=error)


class SessionExecutor(ServingCore):
    """Bounded-admission thread pool executing statements through ``dbx``.

    >>> dbx = DBExplorer()
    >>> dbx.register("data", table)
    >>> with SessionExecutor(dbx, ServeConfig(workers=4)) as ex:
    ...     ticket = ex.submit("SELECT Price FROM data", session="u1")
    ...     ticket.wait()
    ...     assert ticket.outcome in ("ok", "degraded")

    ``now`` and ``sleep`` are injectable for deterministic tests.
    """

    def __init__(
        self,
        dbx: "DBExplorer",
        config: Optional[ServeConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        now: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.dbx = dbx
        self.config = config if config is not None else ServeConfig()
        self._metrics = metrics if metrics is not None else registry()
        self._now = now
        self._sleep = sleep
        self._lock = threading.Lock()
        self._queue: "queue.Queue[Optional[StatementTicket]]" = queue.Queue()
        self._queued = 0       # tickets waiting for a worker
        self._active = 0       # tickets executing right now
        self._submitted = 0    # monotonically increasing ticket index
        self._latency_ewma_s = 0.0
        self._outstanding: Dict[int, StatementTicket] = {}
        self._closed = False
        self._breakers: Optional[BreakerBoard] = (
            BreakerBoard(self.config.breaker, now=now, metrics=metrics)
            if self.config.breaker is not None else None
        )
        self._stop = threading.Event()
        self._workers = [
            threading.Thread(
                target=self._worker, name=f"repro-serve-{i}", daemon=True
            )
            for i in range(self.config.workers)
        ]
        for thread in self._workers:
            thread.start()
        self._watchdog: Optional[threading.Thread] = None
        if self.config.deadline_s is not None:
            self._watchdog = threading.Thread(
                target=self._watchdog_loop, name="repro-serve-watchdog",
                daemon=True,
            )
            self._watchdog.start()

    @property
    def _worklog(self):
        return self.dbx.worklog

    # -- admission ---------------------------------------------------------

    def submit(
        self,
        sql: str,
        session: str = "default",
        faults: Optional[FaultInjector] = None,
        fault_index: Optional[int] = None,
    ) -> StatementTicket:
        """Admit one statement, or raise :class:`OverloadedError`.

        ``session`` names the logical session whose state the statement
        updates; ``faults`` overrides the per-statement injector
        (default: the explorer's injector forked by ``fault_index``,
        falling back to the ticket index, so counting faults never race
        across worker threads).  ``fault_index`` exists for replay
        harnesses that submit out of submission order but need fault
        forking keyed to the *statement's* position in its log — the
        multi-process supervisor honors the same parameter.

        Raises :class:`OverloadedError` on a full queue (with a
        Retry-After estimate) and :class:`ServeError` after
        :meth:`close`.  Statements the parser or analyzer reject are
        *admitted then failed immediately* on the caller thread — they
        get a ticket and a worklog record but never cost a pool thread.
        """
        ticket = self._open_ticket(
            sql, session, faults, fault_index, self.dbx.faults
        )
        with self._lock:
            capacity = self.config.workers + self.config.queue_limit
            full = self._queued + self._active >= capacity
            if full:
                retry_after = self._retry_after_locked()
            else:
                self._queued += 1
                self._outstanding[ticket.index] = ticket
                depth = self._queued
        if full:
            self._reject(ticket, retry_after)
        self._metrics.gauge("serve.queue_depth").set(float(depth))
        self._metrics.counter("serve.admitted").inc()

        # the analyzer gate, on the caller thread: a statement that can
        # never execute fails here without consuming a pool thread
        try:
            stmt = parse(sql)
            ticket.kind = statement_kind(stmt)
            ticket.dataset = _breaker_key(stmt)
            report = self.dbx.analyze(stmt, text=sql)
            if not report.ok:
                raise AnalysisError(report)
        except (ParseError, AnalysisError) as exc:
            with self._lock:
                self._queued -= 1
                self._outstanding.pop(ticket.index, None)
            self._complete(ticket, "failed", _status_of(exc), error=exc)
            return ticket

        self._queue.put(ticket)
        return ticket

    def _check_open_locked(self) -> None:
        if self._closed:
            raise ServeError("executor is closed")

    def _retry_after_locked(self) -> float:
        # a Retry-After guess: how long until a slot frees up, assuming
        # recent latency holds — the hint a transport maps to HTTP 503
        avg = self._latency_ewma_s if self._latency_ewma_s > 0 else 0.1
        backlog = self._queued + self._active
        return max(
            0.05, avg * max(1.0, backlog / float(self.config.workers))
        )

    # -- worker side -------------------------------------------------------

    def _worker(self) -> None:
        while True:
            ticket = self._queue.get()
            if ticket is None:
                return
            with self._lock:
                self._queued -= 1
                self._active += 1
                depth, active = self._queued, self._active
            self._metrics.gauge("serve.queue_depth").set(float(depth))
            self._metrics.gauge("serve.active_workers").set(float(active))
            try:
                self._run_ticket(ticket)
            finally:
                with self._lock:
                    self._active -= 1
                    self._outstanding.pop(ticket.index, None)
                    active = self._active
                self._metrics.gauge("serve.active_workers").set(
                    float(active)
                )

    def _run_ticket(self, ticket: StatementTicket) -> None:
        breaker = None
        budget_override: Optional[Budget] = None
        if self._breakers is not None and ticket.dataset is not None:
            breaker = self._breakers.breaker(ticket.dataset)
            full_pipeline, ticket.probe = breaker.allow()
            if not full_pipeline:
                # breaker open: short-circuit onto the degradation
                # ladder instead of burning this thread on a dataset
                # that keeps failing
                ticket.short_circuited = True
                budget_override = self.config.open_budget
                self._metrics.counter("serve.breaker.short_circuit").inc()

        run = run_attempts(
            self.dbx, ticket.sql, self.dbx.session(ticket.session),
            ticket.cancel, ticket.faults, budget_override, self.config,
            ticket.index, sleep=self._sleep, now=self._now,
        )
        with self._lock:
            self._latency_ewma_s = (
                run.elapsed_s if self._latency_ewma_s == 0.0
                else 0.8 * self._latency_ewma_s + 0.2 * run.elapsed_s
            )
        if breaker is not None:
            breaker.settle(run.status, ticket.cancel.reason, ticket.probe)
        # stamp this execution's counters and rungs on the ticket now:
        # the session's last_work / last_report are per-session mutable
        # state a later statement on the same session would overwrite
        ticket.attempts = run.attempts
        ticket.work = run.work
        ticket.degradations = run.degradations
        self._complete(
            ticket,
            _outcome_of(run.status, ticket.short_circuited or run.degraded),
            run.status, result=run.result, error=run.error,
            elapsed_s=run.elapsed_s,
            # dbx.execute logged what it ran; a failure before it was
            # reached (queued past the deadline, slow_worker fault)
            # leaves the no-silent-drops record to us
            log=run.error is not None and not run.executed,
        )

    # -- watchdog ----------------------------------------------------------

    def _watchdog_loop(self) -> None:
        interval = self.config.watchdog_interval_s
        while not self._stop.wait(interval):
            now = self._now()
            with self._lock:
                expired = [
                    t for t in self._outstanding.values()
                    if t.deadline_at is not None and now >= t.deadline_at
                ]
            for ticket in expired:
                if ticket.cancel.cancel(
                    f"deadline of {self.config.deadline_s:.3f}s exceeded"
                ):
                    self._metrics.counter("serve.deadline_tripped").inc()

    # -- introspection / shutdown ------------------------------------------

    def stats(self) -> Dict[str, Union[int, float]]:
        """A point-in-time snapshot of the executor's load."""
        with self._lock:
            return {
                "submitted": self._submitted,
                "queued": self._queued,
                "active": self._active,
                "latency_ewma_s": self._latency_ewma_s,
            }

    def close(self, wait: bool = True) -> None:
        """Stop accepting work, drain the queue, join the threads."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._workers:
            self._queue.put(None)
        if wait:
            for thread in self._workers:
                thread.join()
        self._stop.set()
        if self._watchdog is not None and wait:
            self._watchdog.join()


def _breaker_key(stmt: object) -> Optional[str]:
    """The dataset a statement builds against, if it builds at all.

    Only pipeline builds are breaker-guarded; reads against the view
    catalog never trip or consult a breaker.
    """
    if isinstance(stmt, ExplainStatement):
        return _breaker_key(stmt.inner) if stmt.analyze else None
    if isinstance(stmt, CreateCadViewStatement):
        return stmt.table
    return None


def _status_of(error: BaseException) -> str:
    # lazy import: repro.core.explorer imports repro.serve at module
    # load; the reverse edge must stay runtime-only
    from repro.core.explorer import _statement_status

    return _statement_status(error)
