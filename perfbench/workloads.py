"""The three workloads: servers, closed-loop clients, probes and metrics.

``build-worstcase``
    One client calls ``DBExplorer.execute`` in process with fig8's
    worst-case config.  Nearly all time is the paper's kernels; nothing
    in ``repro.serve`` runs.
``explore-threads``
    Two clients on one ``SessionExecutor(workers=2, breaker=None)``,
    each running analyst episodes (narrow -> build -> analyze).
``explore-procs-wal``
    The same episodes through ``ProcSupervisor(shards=2)`` with a state
    directory and per-mutation fsync, started from a fresh copy of a
    prepared directory holding live and dropped views.

Every workload is closed loop with no think time: a client sends its
next statement when the previous reply arrives.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from perfbench import checks, pool

WORKLOADS = ("build-worstcase", "explore-threads", "explore-procs-wal")
SHARDS = 2
CLIENTS = {"build-worstcase": 1, "explore-threads": 2, "explore-procs-wal": 2}
FSYNC_INTERVAL_MS = 0.0
TICKET_TIMEOUT_S = 120.0
PROBE_TIMEOUT_S = 150.0


@dataclass
class Context:
    """What one run needs: its workload, seed, reference and scratch dir."""

    workload: str
    seed: int
    seconds: float
    root: str
    reference: Dict[str, object]
    out_dir: str
    probes: int = 3
    reference_path: str = ""

    @property
    def rows(self) -> int:
        return int(self.reference["dataset"]["rows"])

    @property
    def explore(self) -> bool:
        return self.workload != "build-worstcase"


# -- statement units ----------------------------------------------------------

# A unit is what a client sends back to back: one build, or one episode.
# Each statement is (reference entry, the view its episode owns).
Unit = List[Tuple[Dict[str, object], Optional[str]]]


def units(ctx: Context) -> Tuple[Unit, List[Iterator[Unit]]]:
    """``(probe unit, one unit stream per client)`` for this seed."""
    clients = CLIENTS[ctx.workload]
    if not ctx.explore:
        builds = ctx.reference["worstcase"]["builds"]
        probe, streams = pool.stratified_streams(
            [b["stratum"] for b in builds], ctx.seed, clients)

        def as_unit(i: int) -> Unit:
            return [(builds[i], pool.WORSTCASE_VIEW)]
    else:
        episodes = ctx.reference["explore"]["episodes"]
        probe, streams = pool.stratified_streams(
            [e["stratum"] for e in episodes], ctx.seed, clients)

        def as_unit(i: int) -> Unit:
            ep = episodes[i]
            return [(s, ep["view"]) for s in ep["statements"]]

    return as_unit(probe), [(as_unit(i) for i in s) for s in streams]


# -- servers ------------------------------------------------------------------


def _config(ctx: Context):
    from repro.core.cadview import CADViewConfig

    cfg = (pool.EXPLORE_CONFIG if ctx.explore else pool.WORSTCASE_CONFIG)
    return CADViewConfig(**cfg)


def make_table(ctx: Context):
    """Generate the UsedCars table; returns ``(table, seconds)``."""
    from repro.dataset.generators import generate_usedcars

    t0 = time.perf_counter()
    table = generate_usedcars(ctx.rows, seed=pool.DATA_SEED)
    return table, time.perf_counter() - t0


class Server:
    """One backend behind a ``run(sql, session) -> record`` surface."""

    def __init__(self, ctx: Context, table=None, state_dir: Optional[str] = None):
        from repro.obs.metrics import MetricsRegistry

        self.ctx = ctx
        self.metrics = MetricsRegistry()
        self.names = ctx.reference["work_counters"]
        self.dbx = self.executor = self.sup = None
        self.state_dir = state_dir
        self.ready_s = 0.0
        self.workers: list = []
        t0 = time.monotonic()
        if ctx.workload == "explore-procs-wal":
            import multiprocessing

            before = {p.pid for p in multiprocessing.active_children()}
            from repro.serve.proc.supervisor import (
                ProcServeConfig, ProcSupervisor)
            from repro.serve.proc.worker import WorkerSpec

            self.sup = ProcSupervisor(
                WorkerSpec(dataset="usedcars", rows=ctx.rows,
                           seed=pool.DATA_SEED),
                ProcServeConfig(shards=SHARDS, state_dir=state_dir,
                                fsync_interval_ms=FSYNC_INTERVAL_MS),
                metrics=self.metrics,
            )
            if not self.sup.wait_ready(timeout=PROBE_TIMEOUT_S):
                self.sup.close()
                raise RuntimeError("worker shards never became ready")
            # this supervisor's worker processes (another server may
            # have its own alive in the same process)
            self.workers = [p for p in multiprocessing.active_children()
                            if p.pid not in before]
        else:
            from repro.core.explorer import DBExplorer
            from repro.obs.worklog import NO_WORKLOG
            from repro.robustness.faults import NO_FAULTS

            if table is None:
                table, _ = make_table(ctx)
            # as in the worker processes: no fault plan or workload log
            # from the environment
            self.dbx = DBExplorer(_config(ctx), faults=NO_FAULTS,
                                  worklog=NO_WORKLOG)
            self.dbx.register("data", table)
            if ctx.workload == "explore-threads":
                from repro.serve.executor import ServeConfig, SessionExecutor

                self.executor = SessionExecutor(
                    self.dbx, ServeConfig(workers=2, breaker=None),
                    metrics=self.metrics,
                )
        self.ready_at = time.monotonic()
        self.ready_s = self.ready_at - t0

    def run(self, entry: Dict[str, object], own_view: Optional[str],
            session: str) -> Dict[str, object]:
        """Send one statement, wait for it, and record what came back."""
        from repro.errors import ReproError

        sql, kind = entry["sql"], entry["kind"]
        rec = {"sql": sql, "kind": kind, "rows": entry.get("rows"),
               "work": None, "digest": None}
        result = payload = None
        degradations: Sequence[str] = ()
        rec["t_submit"] = t0 = time.perf_counter()
        try:
            if self.dbx is not None and self.executor is None:
                result = self.dbx.execute(sql, session=session)
                status, work = "ok", self.dbx.session(session).last_work
            else:
                ticket = (self.executor or self.sup).submit(sql, session=session)
                if not ticket.wait(TICKET_TIMEOUT_S):
                    raise TimeoutError(f"no reply within {TICKET_TIMEOUT_S}s")
                status, work = ticket.status or "error", ticket.work
                if ticket.has_result_payload:
                    payload = ticket.result_payload
                    degradations = ticket.degradations or ()
                else:
                    result = ticket.result
        except (ReproError, TimeoutError) as exc:
            status, work = type(exc).__name__, None
        rec["t_done"] = time.perf_counter()
        rec["latency_ms"] = (rec["t_done"] - t0) * 1e3
        rec["status"] = status
        if status != "ok":
            return rec
        rec["work"] = checks.work_vector(work, self.names)
        if payload is None:
            rec["digest"] = checks.result_digest(kind, result, own_view)
            if kind == "cadview":
                rec["rows"] = int(result.report.trace.attrs["rows_in"])
            elif kind == "select":
                rec["rows"] = len(result)
        else:
            rec["digest"] = checks.digest(kind, status, degradations, payload,
                                          own_view)
            if kind == "select":
                rec["rows"] = int(payload["rows"])
        return rec

    def child_pids(self) -> List[int]:
        return [p.pid for p in self.workers if p.is_alive()]

    def close(self) -> Dict[str, object]:
        """Shut down; for worker processes, also make sure each one ended.

        ``drain()`` can report a worker's exit code as ``None`` when the
        supervisor's monitor thread reaped the process first, so whether
        the workers ended is checked here rather than read from the
        drain report.
        """
        if self.executor is not None:
            self.executor.close()
        if self.sup is None:
            return {}
        report = self.sup.drain()
        left = 0
        for proc in self.workers:
            proc.join(5.0)
            if proc.is_alive():
                left += 1
                proc.kill()
                proc.join(5.0)
        report["workers_left_running"] = left
        return report


# -- the closed loop ------------------------------------------------------------


class Client:
    """One closed-loop analyst: its stream, and the unit it is part-way through.

    A client stopped by the end of a segment resumes the same unit in
    the next one, so an episode is never abandoned half-way.
    """

    def __init__(self, index: int, stream: Iterator[Unit]):
        self.index = index
        self.stream = stream
        self.pending: Deque[Tuple[Dict[str, object], Optional[str]]] = deque()

    def next_statement(self) -> Tuple[Dict[str, object], Optional[str]]:
        if not self.pending:
            self.pending.extend(next(self.stream))
        return self.pending.popleft()


def clients(ctx: Context) -> Tuple[Unit, List[Client]]:
    """``(probe unit, clients)`` for this run's seed."""
    probe, streams = units(ctx)
    return probe, [Client(i, s) for i, s in enumerate(streams)]


def drive(server: Server, analysts: List[Client], seconds: float
          ) -> Tuple[List[Dict[str, object]], float]:
    """Run every client against ``server`` until ``seconds`` have passed.

    Returns ``(records, busy)``: ``busy`` runs from the start to the
    last reply (a statement sent before the deadline is waited for).
    """
    start = time.perf_counter()
    deadline = start + seconds
    per_client: List[List[Dict[str, object]]] = [[] for _ in analysts]
    errors: List[BaseException] = []

    def loop(client: Client) -> None:
        try:
            while time.perf_counter() < deadline:
                entry, view = client.next_statement()
                rec = server.run(entry, view, f"c{client.index}")
                rec["view"] = view
                per_client[client.index].append(rec)
        except BaseException as exc:  # re-raised on the driving thread
            errors.append(exc)

    if len(analysts) == 1:
        loop(analysts[0])
    else:
        threads = [threading.Thread(target=loop, args=(c,), daemon=True)
                   for c in analysts]
        for t in threads:
            t.start()
        for t in threads:
            t.join(seconds + 2 * TICKET_TIMEOUT_S)
        if any(t.is_alive() for t in threads):
            raise RuntimeError("a client never finished")
    if errors:
        raise errors[0]
    records = [r for recs in per_client for r in recs]
    end = max((r["t_done"] for r in records), default=time.perf_counter())
    return records, end - start


def run_unit(server: Server, unit: Unit, session: str) -> List[Dict[str, object]]:
    return [dict(server.run(entry, view, session), view=view)
            for entry, view in unit]


# -- reference lookups and checks ------------------------------------------------


def reference_index(ctx: Context) -> Dict[Tuple[str, Optional[str]], Dict]:
    """``(sql, own view) -> reference entry`` for every pool statement."""
    index: Dict[Tuple[str, Optional[str]], Dict] = {}
    for b in ctx.reference["worstcase"]["builds"]:
        index[(b["sql"], pool.WORSTCASE_VIEW)] = b
    for ep in ctx.reference["explore"]["episodes"]:
        for s in ep["statements"]:
            index[(s["sql"], ep["view"])] = s
    return index


def check_records(ctx: Context, records) -> Dict[str, object]:
    index = reference_index(ctx)
    return checks.compare(records, lambda r: index[(r["sql"], r["view"])])


def live_views(records, initial: Sequence[str]) -> List[str]:
    """Views a sequence of acknowledged statements leaves in the catalog."""
    from repro.query.ast import CreateCadViewStatement, DropCadViewStatement
    from repro.query.parser import parse

    live = set(initial)
    for rec in sorted(records, key=lambda r: r["t_done"]):
        if rec["status"] != "ok" or rec["kind"] not in ("cadview", "drop"):
            continue
        stmt = parse(rec["sql"])
        if isinstance(stmt, CreateCadViewStatement):
            live.add(stmt.name)
        elif isinstance(stmt, DropCadViewStatement):
            live.discard(stmt.name)
    return sorted(live)


# -- state directories -----------------------------------------------------------


def _src_key(ctx: Context) -> str:
    """Hash of the program source and the preparation script."""
    h = hashlib.sha256(json.dumps(ctx.reference["prepare"]).encode())
    h.update(str(ctx.rows).encode())
    src = os.path.join(ctx.root, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def prepared_dir(ctx: Context) -> str:
    """The prepared state directory (made once per source tree, untimed).

    The preparation script creates and drops views through the same
    supervisor the workload runs; the directory is copied while the
    supervisor is still up, after every mutation was acknowledged and
    hence fsync'd, so it holds WAL records to recover and no snapshot.
    """
    target = os.path.join(ctx.out_dir, f"prepared-{_src_key(ctx)}")
    if os.path.isdir(target):
        return target
    work = os.path.join(ctx.out_dir, f"preparing-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    server = Server(ctx, state_dir=os.path.join(work, "state"))
    try:
        for sql in ctx.reference["prepare"]["statements"]:
            rec = server.run({"sql": sql, "kind": "prepare"}, None, "prep")
            if rec["status"] != "ok":
                raise RuntimeError(f"preparation failed at {sql!r}")
        shutil.copytree(os.path.join(work, "state"),
                        os.path.join(work, "image"))
    finally:
        server.close()
    os.replace(os.path.join(work, "image"), target)
    shutil.rmtree(work, ignore_errors=True)
    return target


def fresh_state(ctx: Context, tag: str) -> str:
    dest = os.path.join(ctx.out_dir, "state", f"{tag}-{os.getpid()}")
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(prepared_dir(ctx), dest)
    return dest


# -- memory ----------------------------------------------------------------------


def vm_hwm_mb(pid: object = "self") -> float:
    """Peak resident set (VmHWM) of one process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


# -- processes ---------------------------------------------------------------------


def end_helper_processes() -> None:
    """Stop every process this interpreter started and wait for each.

    Worker processes still alive (only on a failure path: a closed
    server has joined its own) are killed and joined.  Spawning workers
    also starts ``multiprocessing``'s resource tracker, which otherwise
    ends only a moment after this interpreter has exited; closing its
    pipe stops it, and ``_stop`` waits for it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.kill()
        proc.join()
    resource_tracker._resource_tracker._stop()


# -- probes (fresh interpreters) -----------------------------------------------


def probe_main(spec: Dict[str, object]) -> Dict[str, object]:
    """Inside a fresh interpreter: set up, run the probe unit, report.

    ``ready_at`` is ``time.monotonic()`` when the server could accept its
    first statement; the parent subtracts its own launch time.
    """
    ctx = spec_context(spec)
    probe, _ = units(ctx)
    server = Server(ctx, state_dir=spec.get("state_dir"))
    try:
        records = run_unit(server, probe, "probe")
    finally:
        server.close()
    first = next(r for r in records if r["kind"] == "cadview")
    return {
        "ready_at": server.ready_at,
        "first_cadview_ms": first["latency_ms"],
        "failed": sum(r["status"] != "ok" for r in records),
        "check": check_records(ctx, records),
    }


def spec_context(spec: Dict[str, object]) -> Context:
    return Context(
        workload=spec["workload"], seed=int(spec["seed"]),
        seconds=float(spec.get("seconds", 0)), root=spec["root"],
        reference=pool.load_reference(spec["reference"]),
        out_dir=spec["out_dir"], reference_path=spec["reference"],
    )


def launch_probe(ctx: Context, index: int) -> Dict[str, object]:
    spec = {"workload": ctx.workload, "seed": ctx.seed, "root": ctx.root,
            "reference": ctx.reference_path, "out_dir": ctx.out_dir}
    if ctx.workload == "explore-procs-wal":
        spec["state_dir"] = fresh_state(ctx, f"probe{index}")
    cmd = [sys.executable, os.path.join(ctx.root, "perfbench", "run.py"),
           "--probe", json.dumps(spec)]
    t0 = time.monotonic()
    # its own process group, so a probe that fails to end is stopped
    # together with every process it started
    proc = subprocess.Popen(cmd, cwd=ctx.root, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed:\n{stderr[-4000:]}")
    out = json.loads(stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready_at"] - t0
    if "state_dir" in spec:
        shutil.rmtree(spec["state_dir"], ignore_errors=True)
    return out


# -- metrics ---------------------------------------------------------------------


def pct(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def timing(values: Sequence[float], q: float = 50.0) -> Dict[str, object]:
    return {"value": pct(values, q) if values else None, "samples": len(values)}


def end_to_end(records, busy_s: float, setups: Sequence[float],
               colds: Sequence[float], rss_mb: float
               ) -> Dict[str, Dict[str, object]]:
    """Client-side metrics of the measured phase, with sample counts."""
    ok = [r for r in records if r["status"] == "ok"]
    lat = [r["latency_ms"] for r in ok]
    of = lambda kinds: [r["latency_ms"] for r in ok if r["kind"] in kinds]
    out = {
        "setup_s": {"value": statistics.median(setups),
                    "samples": len(setups), "unit": "s"},
        "first_cadview_ms": {"value": statistics.median(colds),
                             "samples": len(colds), "unit": "ms"},
        "throughput_sps": {"value": len(ok) / busy_s,
                           "samples": len(ok), "unit": "1/s"},
        "stmt_p50_ms": dict(timing(lat), unit="ms"),
        "cadview_p50_ms": dict(timing(of(("cadview",))), unit="ms"),
        "select_p50_ms": dict(timing(of(("select",))), unit="ms"),
        "mutation_p50_ms": dict(timing(of(checks.MUTATION_KINDS)), unit="ms"),
        "failed_frac": {"value": (len(records) - len(ok)) / max(1, len(records)),
                        "samples": len(records), "unit": "fraction"},
        "rss_peak_mb": {"value": rss_mb, "samples": 1, "unit": "MiB"},
    }
    if len(lat) >= 100:
        out["stmt_p90_ms"] = dict(timing(lat, 90.0), unit="ms")
    return {k: v for k, v in out.items() if v["value"] is not None}


def size_summary(records) -> Dict[str, object]:
    rows = [r["rows"] for r in records
            if r["status"] == "ok" and r["kind"] == "cadview"]
    if not rows:
        return {"builds": 0}
    return {"builds": len(rows), "min": min(rows),
            "median": statistics.median(rows), "max": max(rows)}
