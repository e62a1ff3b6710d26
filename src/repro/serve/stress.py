"""The one replay driver: dependency-aware, concurrent, deterministic.

:func:`replay_concurrent` is the only code that executes a captured
workload log.  ``repro replay`` (``--concurrency N``, default 1),
``repro profile --session``, ``repro serve --stress`` and the session
bench all run through it, on a
:class:`~repro.serve.executor.SessionExecutor` pool or the process
shards of a :class:`~repro.serve.proc.supervisor.ProcSupervisor` —
and the point of the exercise is that *concurrency must not change
answers*: sequential is simply concurrency 1.  To keep that property
checkable the harness is deterministic by construction:

* Statements form a **read/write dependency DAG on view names**
  (:func:`statement_scopes`): ``CREATE CADVIEW`` / ``DROP`` /
  ``REORDER`` write a view, ``HIGHLIGHT`` / ``REORDER`` read one,
  ``SHOW CADVIEWS`` reads the whole catalog.  A statement is submitted
  only after every earlier statement it conflicts with has completed —
  the scheduling happens on the **driver thread**, never by blocking a
  pool worker on another ticket (that would deadlock a full pool).
* Each statement runs in its **own session** (``s<i>``) so
  ``last_report`` / ``last_analysis`` never race, and with its **own
  forked fault injector** (:meth:`~repro.robustness.faults.
  FaultInjector.fork`) so counting faults fire identically no matter
  how worker threads interleave.
* In deterministic mode the queue is sized to never reject, deadlines
  are off, and **circuit breakers are disabled** — breaker state
  depends on cross-statement completion order, which is exactly the
  nondeterminism replay must exclude.  ``repro serve --stress`` flips
  all three back on to exercise rejections, the watchdog and the
  breakers under load.

Each statement's terminal state is captured as a :class:`StatementResult`
whose ``digest`` hashes the things the paper's user sees — status,
degradation rungs, and the full IUnit contents of a built view — and
deliberately nothing wall-clock.  Two replays of the same log at any
two concurrency levels must produce identical digest sequences; the
``--verify-sequential`` CI gate and the tier-1 determinism test both
reduce to comparing those lists.  Each result also carries what the
interactive system is judged on — its execution latency (the
``serve.latency.<kind>`` observation) and the build's phase buckets —
from which :class:`ConcurrentReplayReport` derives p50/p95/p99 per
statement kind, throughput, and degradation and failure counts.
"""

from __future__ import annotations

import hashlib
import json
import queue
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.errors import ReproError, ServeError
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.query.ast import (
    CreateCadViewStatement,
    DropCadViewStatement,
    ExplainStatement,
    HighlightSimilarStatement,
    ReorderRowsStatement,
    ShowCadViewsStatement,
)
from repro.obs.worklog import statement_kind
from repro.query.parser import parse
from repro.serve.executor import (
    ServeConfig,
    SessionExecutor,
    StatementTicket,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids serve<->core cycle
    from repro.core.explorer import DBExplorer

__all__ = [
    "StatementResult",
    "ConcurrentReplayReport",
    "replay_concurrent",
    "statement_scopes",
    "statement_sqls",
    "result_payload",
]

ALL_VIEWS = "*"
"""Scope marker: the statement touches the entire view catalog."""


def statement_scopes(sql: str) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """``(reads, writes)`` over view names for one statement.

    The scopes drive the replay scheduler's conflict edges (two
    statements conflict when either writes a view the other touches).
    :data:`ALL_VIEWS` in a set means "the whole catalog" (``SHOW
    CADVIEWS``).  Unparsable statements get empty scopes — they fail
    identically wherever they run, so they need no ordering.

    ``EXPLAIN`` conservatively inherits its inner statement's scopes:
    ``EXPLAIN ANALYZE CREATE CADVIEW`` really does build and register
    the view, and even a plain ``EXPLAIN`` is cheap enough that the
    lost parallelism from over-ordering it does not matter.
    """
    try:
        stmt = parse(sql)
    except ReproError:
        return frozenset(), frozenset()
    return _scopes_of(stmt)


def _scopes_of(stmt: object) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    if isinstance(stmt, ExplainStatement):
        return _scopes_of(stmt.inner)
    if isinstance(stmt, CreateCadViewStatement):
        return frozenset(), frozenset({stmt.name})
    if isinstance(stmt, DropCadViewStatement):
        # DROP returns the remaining catalog listing, so besides
        # removing one view it *reads* all of them
        return frozenset({ALL_VIEWS}), frozenset({stmt.name})
    if isinstance(stmt, ReorderRowsStatement):
        return frozenset({stmt.view}), frozenset({stmt.view})
    if isinstance(stmt, HighlightSimilarStatement):
        return frozenset({stmt.view}), frozenset()
    if isinstance(stmt, ShowCadViewsStatement):
        return frozenset({ALL_VIEWS}), frozenset()
    return frozenset(), frozenset()  # SELECT / DESCRIBE: no view deps


def _intersects(a: FrozenSet[str], b: FrozenSet[str]) -> bool:
    if not a or not b:
        return False
    if ALL_VIEWS in a or ALL_VIEWS in b:
        return True
    return not a.isdisjoint(b)


def _dependency_edges(
    scopes: List[Tuple[FrozenSet[str], FrozenSet[str]]],
) -> List[List[int]]:
    """``deps[i]`` = earlier statement indices ``i`` must wait for.

    Edges cover all three hazards on view names — read-after-write,
    write-after-write and write-after-read — so the replayed catalog
    passes through exactly the states the sequential session saw.
    """
    deps: List[List[int]] = [[] for _ in scopes]
    for i, (reads_i, writes_i) in enumerate(scopes):
        for j in range(i):
            reads_j, writes_j = scopes[j]
            if (
                _intersects(writes_j, reads_i)
                or _intersects(writes_j, writes_i)
                or _intersects(reads_j, writes_i)
            ):
                deps[i].append(j)
    return deps


@dataclass
class StatementResult:
    """The terminal state of one replayed statement."""

    index: int
    statement: str
    kind: str
    session: str
    status: str
    outcome: str
    digest: str
    degradations: List[str] = field(default_factory=list)
    error: Optional[str] = None
    attempts: int = 0
    # deterministic work counters of the final (digested) execution;
    # deliberately NOT part of the digest — they are gated on their own,
    # with exact equality, by the regression layer
    work: Optional[Dict[str, int]] = None
    # execution time (serve.latency.<kind>; 0 when it never executed)
    # and the build's phase buckets — wall clock, so never digested
    latency_ms: float = 0.0
    phases_ms: Optional[Dict[str, float]] = None

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly dump (statement text omitted: it is an input)."""
        return {
            "index": self.index,
            "kind": self.kind,
            "status": self.status,
            "outcome": self.outcome,
            "digest": self.digest,
            "degradations": list(self.degradations),
            "error": self.error,
            "attempts": self.attempts,
            "latency_ms": self.latency_ms,
            "phases_ms": self.phases_ms,
            "work": dict(sorted(self.work.items())) if self.work else None,
        }


@dataclass
class ConcurrentReplayReport:
    """Everything one replay of a workload log measured.

    Every aggregate is computed from the per-statement results, so the
    thread pool and the process shards report alike.
    """

    concurrency: int
    results: List[StatementResult] = field(default_factory=list)
    wall_s: float = 0.0
    breaker_states: Dict[str, str] = field(default_factory=dict)
    # malformed records (no statement text, unknown record kind) the
    # driver skipped; session headers do not count
    skipped: int = 0
    # corrupt worklog lines skipped while reading the input (the CLI
    # stamps this in; the harness itself never sees raw lines)
    corrupt_lines: int = 0
    # the log's own elapsed_ms per shard, from records a --procs run
    # stamped with proc={shard, ...}: the *captured* run's per-shard
    # behaviour, not this replay's
    captured_by_shard: Dict[str, Dict[str, float]] = field(
        default_factory=dict
    )

    @property
    def outcomes(self) -> Dict[str, int]:
        """Outcome -> count over all statements."""
        counts: Dict[str, int] = {}
        for res in self.results:
            counts[res.outcome] = counts.get(res.outcome, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def statuses(self) -> Dict[str, int]:
        """Worklog status -> count over all statements."""
        counts: Dict[str, int] = {}
        for res in self.results:
            counts[res.status] = counts.get(res.status, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def errors(self) -> int:
        """Statements whose status is not ``ok``."""
        return sum(1 for res in self.results if res.status != "ok")

    @property
    def degradations(self) -> int:
        """Degradation rungs hit, summed over every build."""
        return sum(len(res.degradations) for res in self.results)

    @property
    def throughput_stmt_s(self) -> float:
        """Statements replayed per wall-clock second."""
        return len(self.results) / self.wall_s if self.wall_s > 0 else 0.0

    def digests(self) -> List[str]:
        """Per-statement digests, in statement order."""
        return [res.digest for res in self.results]

    def by_kind(self) -> Dict[str, Dict[str, float]]:
        """Per statement kind: count, errors and latency percentiles.

        One bucket histogram per kind over the statements' execution
        times.  Bucket-bound quantiles are deliberately coarse: they
        are byte-stable across runs whose latencies stay in the same
        bucket, which is what the benchmark regression gate compares.
        """
        hists: Dict[str, Histogram] = {}
        errors: Dict[str, int] = {}
        for res in self.results:
            hists.setdefault(res.kind, Histogram()).observe(
                res.latency_ms / 1e3
            )
            errors[res.kind] = (
                errors.get(res.kind, 0) + (res.status != "ok")
            )
        return {
            kind: {
                "count": float(hist.count),
                "errors": float(errors[kind]),
                "p50_ms": hist.quantile(0.50) * 1e3,
                "p95_ms": hist.quantile(0.95) * 1e3,
                "p99_ms": hist.quantile(0.99) * 1e3,
                "mean_ms": hist.mean * 1e3,
            }
            for kind, hist in sorted(hists.items())
        }

    def phase_totals_ms(self) -> Dict[str, float]:
        """The builds' phase buckets, summed over all statements."""
        totals: Dict[str, float] = {}
        for res in self.results:
            for phase, ms in (res.phases_ms or {}).items():
                totals[phase] = totals.get(phase, 0.0) + ms
        return dict(sorted(totals.items()))

    def work_totals(self) -> Dict[str, int]:
        """Summed deterministic work counters over all statements.

        Per-statement counts reflect each statement's *final* execution
        (retries and resubmissions re-run the same seeded build), so
        the totals byte-match across concurrency levels and serving
        modes — the property the exact-equality gate checks.
        """
        totals: Dict[str, int] = {}
        for res in self.results:
            for name, count in (res.work or {}).items():
                totals[name] = totals.get(name, 0) + count
        return dict(sorted(totals.items()))

    def work_by_kind(self) -> Dict[str, Dict[str, int]]:
        """Summed work counters per statement kind."""
        by_kind: Dict[str, Dict[str, int]] = {}
        for res in self.results:
            if not res.work:
                continue
            kind_work = by_kind.setdefault(res.kind, {})
            for name, count in res.work.items():
                kind_work[name] = kind_work.get(name, 0) + count
        return {
            kind: dict(sorted(counts.items()))
            for kind, counts in sorted(by_kind.items())
        }

    def mismatches(
        self, other: "ConcurrentReplayReport"
    ) -> List[Tuple[int, str, str]]:
        """``(index, ours, theirs)`` where the digests disagree."""
        out = []
        for mine, theirs in zip(self.results, other.results):
            if mine.digest != theirs.digest:
                out.append((mine.index, mine.digest, theirs.digest))
        if len(self.results) != len(other.results):
            out.append((-1, str(len(self.results)),
                        str(len(other.results))))
        return out

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly dump (what ``--json`` and the benches emit)."""
        return {
            "concurrency": self.concurrency,
            "statements": len(self.results),
            "errors": self.errors,
            "skipped": self.skipped,
            "corrupt_lines": self.corrupt_lines,
            "wall_s": self.wall_s,
            "throughput_stmt_s": self.throughput_stmt_s,
            "degradations": self.degradations,
            "outcomes": self.outcomes,
            "statuses": self.statuses,
            "breaker_states": dict(sorted(self.breaker_states.items())),
            "by_kind": self.by_kind(),
            "phase_totals_ms": self.phase_totals_ms(),
            "captured_by_shard": {
                shard: dict(stats)
                for shard, stats in sorted(self.captured_by_shard.items())
            },
            "work": {
                "totals": self.work_totals(),
                "by_kind": self.work_by_kind(),
            },
            "results": [res.as_dict() for res in self.results],
        }

    def render(self) -> str:
        """The human-readable report printed by the CLI."""
        outcome_text = "  ".join(
            f"{k}={v}" for k, v in self.outcomes.items()
        )
        lines = [
            f"== concurrent replay: {len(self.results)} statement(s) "
            f"at concurrency {self.concurrency} in {self.wall_s:.2f}s "
            f"({self.throughput_stmt_s:.1f} stmt/s, {self.errors} "
            f"error(s), {self.skipped} skipped) ==",
            f"outcomes: {outcome_text or '(none)'}",
        ]
        if self.corrupt_lines:
            lines.append(
                f"warning: {self.corrupt_lines} corrupt worklog line(s) "
                "skipped (rerun with --strict to fail on them)"
            )
        if self.breaker_states:
            lines.append("breakers: " + "  ".join(
                f"{k}={v}"
                for k, v in sorted(self.breaker_states.items())
            ))
        lines.append(
            f"{'kind':<18} {'count':>5} {'errors':>6} "
            f"{'p50':>10} {'p95':>10} {'p99':>10} {'mean':>10}"
        )
        for kind, stats in self.by_kind().items():
            lines.append(
                f"{kind:<18} {int(stats['count']):>5} "
                f"{int(stats['errors']):>6} " + _fmt_quantiles(stats)
            )
        status_text = "  ".join(
            f"{status}={count}" for status, count in self.statuses.items()
        )
        lines.append(
            f"degradations: {self.degradations}  statuses: "
            f"{status_text or '(none)'}"
        )
        totals = self.work_totals()
        if totals:
            by_kind = self.work_by_kind()
            lines.append("work counters (deterministic, exact-gated):")
            for name, total in totals.items():
                per_kind = "  ".join(
                    f"{kind}={counts[name]}"
                    for kind, counts in by_kind.items() if name in counts
                )
                lines.append(f"  {name} = {total}  [{per_kind}]")
        if self.captured_by_shard:
            lines.append(
                "captured per-shard latency (from the log's --procs run):"
            )
            lines.append(
                f"{'shard':<18} {'count':>5} {'deaths':>6} "
                f"{'p50':>10} {'p95':>10} {'p99':>10} {'mean':>10}"
            )
            for shard, stats in sorted(self.captured_by_shard.items()):
                lines.append(
                    f"{shard:<18} {int(stats['count']):>5} "
                    f"{int(stats.get('proc_attempts', 0)):>6} "
                    + _fmt_quantiles(stats)
                )
        for res in self.results:
            lines.append(
                f"#{res.index:<3} {res.status:<16} {res.outcome:<9} "
                f"{_fmt_ms(res.latency_ms):>10} {res.digest}  {res.kind}"
            )
        return "\n".join(lines)


def _fmt_ms(value: float) -> str:
    if value == float("inf"):
        return ">10s"
    return f"{value:.1f} ms"


def _fmt_quantiles(stats: Dict[str, float]) -> str:
    return " ".join(
        f"{_fmt_ms(stats[key]):>10}"
        for key in ("p50_ms", "p95_ms", "p99_ms", "mean_ms")
    )


def statement_sqls(records: Iterable[Dict[str, object]]) -> List[str]:
    """The non-empty statements of a workload log, in log order."""
    return [
        str(rec["statement"]) for rec in records
        if rec.get("kind") == "statement"
        and isinstance(rec.get("statement"), str)
        and str(rec["statement"]).strip()
    ]


def replay_concurrent(
    records: Iterable[Dict[str, object]],
    dbx: Optional["DBExplorer"] = None,
    concurrency: int = 1,
    config: Optional[ServeConfig] = None,
    metrics: Optional[MetricsRegistry] = None,
    executor: Optional[object] = None,
) -> ConcurrentReplayReport:
    """Replay a workload log through a worker pool, deterministically.

    ``records`` is :func:`~repro.obs.worklog.read_worklog` output;
    session headers are ignored and malformed records skipped (counted
    in ``report.skipped``).  Per-statement failures are measured and
    reported, never raised.  Without an
    explicit ``config`` the executor is configured for determinism:
    ``concurrency`` workers, a queue that never rejects, no deadline,
    breakers off.  Passing a ``config`` (the stress driver does) keeps
    the DAG scheduling but lets admission control, the watchdog and the
    breakers all bite — rejected statements are recorded with outcome
    ``rejected`` and their writes simply never happen, exactly like a
    client that got a 503.

    ``executor`` plugs in an external ticket source instead of a
    freshly built :class:`SessionExecutor` — anything with the
    ``submit(sql, session=..., faults=..., fault_index=...)`` /
    ``breaker_states()`` surface, in practice a
    :class:`~repro.serve.proc.supervisor.ProcSupervisor`.  An external
    executor is *not* closed here (the caller owns its lifecycle, e.g.
    to drain it gracefully afterwards), and ``dbx`` may then be
    ``None``: proc tickets carry their own digest payloads.

    Returns a :class:`ConcurrentReplayReport` whose per-statement
    digests are comparable across concurrency levels — and across
    serving modes: thread pool and process shards hash identically.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    if executor is None and dbx is None:
        raise ValueError("need a dbx to build an executor around")
    records = list(records)
    sqls = statement_sqls(records)
    n = len(sqls)
    report = ConcurrentReplayReport(
        concurrency=concurrency,
        skipped=sum(1 for rec in records if rec.get("kind") != "session")
        - n,
        captured_by_shard=_captured_by_shard(records),
    )
    if n == 0:
        return report
    scopes = [statement_scopes(sql) for sql in sqls]
    deps = _dependency_edges(scopes)
    dependents: List[List[int]] = [[] for _ in range(n)]
    unmet = [0] * n
    for i, dep_list in enumerate(deps):
        unmet[i] = len(dep_list)
        for j in dep_list:
            dependents[j].append(i)

    if config is None:
        config = ServeConfig(
            workers=concurrency,
            queue_limit=n + 1,   # deterministic replay never rejects
            deadline_s=None,
            breaker=None,        # state depends on completion order
        )
    base_faults = dbx.faults if dbx is not None else None
    results: List[Optional[StatementResult]] = [None] * n
    finished: "queue.Queue[Tuple[int, Optional[StatementTicket]]]" = (
        queue.Queue()
    )
    rejections: Dict[int, ServeError] = {}

    own_executor = executor is None
    if executor is None:
        executor = SessionExecutor(dbx, config, metrics=metrics)
    t0 = time.perf_counter()
    try:
        def _submit(i: int) -> None:
            forked = (
                base_faults.fork(i) if base_faults is not None else None
            )
            try:
                ticket = executor.submit(
                    sqls[i], session=f"s{i}", faults=forked,
                    fault_index=i,
                )
            # an overloaded queue and a draining supervisor both say
            # "not now"; either way the statement is a clean rejection,
            # never a wedge
            except ServeError as exc:
                rejections[i] = exc
                finished.put((i, None))
                return
            ticket.add_done_callback(
                lambda t, i=i: finished.put((i, t))
            )

        for i in range(n):
            if unmet[i] == 0:
                _submit(i)
        done = 0
        while done < n:
            i, ticket = finished.get()
            results[i] = _result_of(i, sqls[i], ticket, rejections)
            done += 1
            for j in dependents[i]:
                unmet[j] -= 1
                if unmet[j] == 0:
                    _submit(j)
        report.breaker_states = executor.breaker_states()
    finally:
        if own_executor:
            executor.close()
    report.wall_s = time.perf_counter() - t0
    report.results = [res for res in results if res is not None]
    return report


def _result_of(
    index: int,
    sql: str,
    ticket: Optional[StatementTicket],
    rejections: Dict[int, ServeError],
) -> StatementResult:
    if ticket is None:
        error = rejections.get(index)
        try:
            kind = statement_kind(parse(sql))
        except ReproError:
            kind = "invalid"
        return StatementResult(
            index=index, statement=sql, kind=kind,
            session=f"s{index}", status="rejected", outcome="rejected",
            digest=_digest("rejected", [], None),
            error=f"{type(error).__name__}: {error}"
            if error is not None else None,
        )
    # both serving modes stamp degradations and work counters on the
    # ticket at execution time; a proc-mode worker also reduced its
    # result to the digest payload before it crossed the pipe
    degradations = list(ticket.degradations or [])
    payload = (
        ticket.result_payload if ticket.has_result_payload
        else result_payload(ticket.result)
    )
    return StatementResult(
        index=index,
        statement=sql,
        kind=ticket.kind or "invalid",
        session=ticket.session,
        status=ticket.status or "error",
        outcome=ticket.outcome or "failed",
        digest=_digest_payload(
            ticket.status or "error", degradations, payload
        ),
        degradations=degradations,
        error=(
            f"{type(ticket.error).__name__}: {ticket.error}"
            if ticket.error is not None else None
        ),
        attempts=ticket.attempts,
        work=dict(ticket.work) if ticket.work else None,
        latency_ms=ticket.latency_s * 1e3,
        phases_ms=ticket.phases_ms,
    )


def _captured_by_shard(
    records: List[Dict[str, object]],
) -> Dict[str, Dict[str, float]]:
    """Per-shard percentiles of the log's own ``elapsed_ms``.

    Only records a ``--procs`` run stamped with ``proc={shard, ...}``
    contribute; ``proc_attempts`` sums the worker deaths they survived.
    """
    samples: Dict[str, List[float]] = {}
    attempts: Dict[str, int] = {}
    for rec in records:
        proc = rec.get("proc")
        if rec.get("kind") != "statement" or not isinstance(proc, dict) \
                or proc.get("shard") is None:
            continue
        key = f"s{proc['shard']}"
        captured_ms = rec.get("elapsed_ms")
        if isinstance(captured_ms, (int, float)):
            samples.setdefault(key, []).append(float(captured_ms))
        attempts[key] = (
            attempts.get(key, 0) + int(proc.get("proc_attempts") or 0)
        )
    out: Dict[str, Dict[str, float]] = {}
    for key, values in sorted(samples.items()):
        ordered = sorted(values)
        out[key] = {
            "count": float(len(ordered)),
            "proc_attempts": float(attempts.get(key, 0)),
            "p50_ms": _nearest_rank(ordered, 0.50),
            "p95_ms": _nearest_rank(ordered, 0.95),
            "p99_ms": _nearest_rank(ordered, 0.99),
            "mean_ms": sum(ordered) / len(ordered),
        }
    return out


def _nearest_rank(ordered: List[float], q: float) -> float:
    """Exact nearest-rank percentile over pre-sorted samples.

    Unlike the bucket-bound histogram quantiles of ``by_kind``, these
    run over the log's recorded values directly — per-shard sample
    counts are small enough that exactness beats byte-stability here.
    """
    if not ordered:
        return 0.0
    rank = max(1, int(q * len(ordered) + 0.999999))
    return ordered[min(rank, len(ordered)) - 1]


def _digest(
    status: str, degradations: List[str], result: Optional[object]
) -> str:
    return _digest_payload(status, degradations, result_payload(result))


def _digest_payload(
    status: str, degradations: List[str], payload: object
) -> str:
    """Hash what the user would see; deliberately no wall-clock fields.

    Error *messages* are excluded too: ``BudgetExceededError`` embeds
    elapsed milliseconds, which would break digest comparisons between
    runs that fail identically.  ``payload`` is already in
    :func:`result_payload` form — either computed here (thread mode) or
    worker-side before it crossed the pipe (proc mode); hashing the
    payload rather than the live object is what makes the two modes
    byte-comparable.
    """
    payload_dict = {
        "status": status,
        "degradations": list(degradations),
        "result": payload,
    }
    blob = json.dumps(payload_dict, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def result_payload(result: Optional[object]) -> object:
    """Reduce a statement result to its JSON-able digest form.

    This is the canonical "what the user saw" projection: CAD Views
    serialize fully (every IUnit), tables dump rows, catalog listings
    become string lists, rendered text collapses to a marker (it embeds
    wall-clock timings).  Both serving modes digest exactly this form —
    the proc workers compute it *before* the result crosses the pipe.
    """
    return _result_payload(result)


def _result_payload(result: Optional[object]) -> object:
    # lazy imports: repro.core imports repro.serve at module load; the
    # reverse edge must stay runtime-only
    from repro.core.cadview import CADView
    from repro.core.serialize import to_dict
    from repro.dataset.table import Table

    if result is None:
        return None
    if isinstance(result, CADView):
        return to_dict(result)
    if isinstance(result, Table):
        return {
            "rows": len(result),
            "attributes": [a.name for a in result.schema],
            "data": [list(map(str, row)) for row in result.iter_rows()],
        }
    if isinstance(result, list):
        return [str(item) for item in result]
    if isinstance(result, str):
        # rendered text (EXPLAIN ANALYZE traces, analyzer reports)
        # embeds wall-clock timings — only its presence is hashed
        return "<rendered text>"
    return str(result)
