"""One benchmark run: the untraced end-to-end run and the traced run.

Untraced (``--trace 0``): set up in this process, warm up with the
probe unit, and drive the clients for ``--seconds`` in segments, with a
set-up probe in a fresh interpreter between segments (set-up time and
the cold first build).  Traced (``--trace 1``): drive the same streams
on two fresh servers, one plain and one with the layer wrappers
installed; the per-layer numbers come from the second, and the
throughput ratio of the two is the tracing overhead.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from typing import Dict, List, Tuple

from perfbench import checks, layers
from perfbench import workloads as W

# Gated end-to-end metrics: every workload reports each of them.  The
# cold first build (``first_cadview_ms``) is reported with its samples
# but not gated: a median of four single builds spreads too widely from
# run to run to hold a bound.
END_TO_END = ("setup_s", "throughput_sps", "stmt_p50_ms", "cadview_p50_ms",
              "rss_peak_mb")

# per-layer metric -> wrapped layers whose self time it sums
LAYER_MS = {
    "query.parse_ms": ("query.parse",),
    "query.analyze_ms": ("query.analyze",),
    "query.engine_ms": ("query.engine",),
    "discretize.fit_ms": ("discretize.fit",),
    "features.select_ms": ("features.select",),
    "clustering.encode_ms": ("clustering.encode",),
    "clustering.kmeans_ms": ("clustering.kmeans",),
    "iunits.label_ms": ("iunits.label",),
    "iunits.topk_ms": ("iunits.topk",),
    "iunits.simgraph_ms": ("iunits.simgraph",),
    "iunits.similarity_ms": ("iunits.similarity",),
    "core.build_self_ms": ("core.build",),
    "core.execute_self_ms": ("core.execute",),
    "wal.commit_ms": ("wal.commit", "wal.encode"),
}
# per-layer metric -> work counter, averaged per completed statement
LAYER_WORK = {
    "query.rows_scanned": "work.query.rows_scanned",
    "features.chi2_cells": "work.features.chi2_cells",
    "clustering.kmeans_iterations": "work.cluster.iterations",
    "clustering.distance_evals": "work.cluster.distance_evals",
    "iunits.astar_expanded": "work.diversify.astar_expanded",
    "iunits.similarity_pairs": "work.diversify.similarity_pairs",
}
LAYER_OTHER = {
    "query.scanned_per_returned": "ratio",
    "serve.queue_wait_ms": "ms",
    "serve.rejected": "count",
    "serve.retries": "count",
    "proc.overhead_ms": "ms",
    "proc.busiest_shard_share": "fraction",
    "proc.ready_s": "s",
    "proc.deaths": "count",
    "wal.fsyncs_per_mutation": "ratio",
    "wal.bytes_per_mutation": "bytes",
    "wal.recover_ms": "ms",
    "wal.recovered_records": "count",
    "dataset.generate_s": "s",
    "bench.trace_overhead_frac": "fraction",
}


def per_layer_units() -> Dict[str, str]:
    units = {name: "ms" for name in LAYER_MS}
    units.update({name: "count" for name in LAYER_WORK})
    units.update(LAYER_OTHER)
    return units


def _main_server(ctx: W.Context, table=None, tag: str = "main") -> W.Server:
    if ctx.workload == "explore-procs-wal":
        return W.Server(ctx, state_dir=W.fresh_state(ctx, tag))
    return W.Server(ctx, table=table)


def _finish_server(ctx: W.Context, server: W.Server, records
                   ) -> Dict[str, object]:
    """Shut ``server`` down; for the WAL workload, check what recovers."""
    drain = server.close()
    if server.state_dir is None:
        return {"ok": True}
    from repro.serve.durability.recovery import recover_state

    rec = recover_state(server.state_dir, shards=W.SHARDS, truncate=False)
    expected = W.live_views(records, ctx.reference["prepare"]["live"])
    recovered = sorted(rec.view_shard)
    shutil.rmtree(server.state_dir, ignore_errors=True)
    return {"ok": recovered == expected
            and drain["workers_left_running"] == 0,
            "expected_live": expected, "recovered_live": recovered,
            "drain_exitcodes": drain.get("exitcodes")}


def run_untraced(ctx: W.Context) -> Tuple[bool, int, int, Dict, Dict]:
    """``(correct, attempted, failed, metrics, report)`` for ``--trace 0``.

    The measured phase is cut into ``probes + 1`` segments with one
    set-up probe between each pair, so a slowdown of the machine that
    lasts a few seconds lands in part of the phase rather than all of it.
    """
    table = None if ctx.workload == "explore-procs-wal" else W.make_table(ctx)[0]
    server = _main_server(ctx, table)
    probes: List[Dict[str, object]] = []
    try:
        probe, analysts = W.clients(ctx)
        warm = W.run_unit(server, probe, "warm")
        records: List[Dict[str, object]] = []
        busy = 0.0
        segments = ctx.probes + 1
        for i in range(segments):
            recs, seg_busy = W.drive(server, analysts, ctx.seconds / segments)
            records += recs
            busy += seg_busy
            if i < ctx.probes:
                probes.append(W.launch_probe(ctx, i))
        rss = W.vm_hwm_mb() + sum(W.vm_hwm_mb(p) for p in server.child_pids())
    except BaseException:
        server.close()
        raise
    recovery = _finish_server(ctx, server, warm + records)
    cold = [p["first_cadview_ms"] for p in probes]
    cold.append(next(r["latency_ms"] for r in warm if r["kind"] == "cadview"))
    e2e = W.end_to_end(records, busy, [p["setup_s"] for p in probes], cold,
                       rss)
    verdicts = {
        "probes": all(p["check"]["ok"] and not p["failed"] for p in probes),
        "warmup": W.check_records(ctx, warm)["ok"],
        "statements": W.check_records(ctx, records),
        "recovery": recovery,
    }
    correct = (verdicts["probes"] and verdicts["warmup"]
               and verdicts["statements"]["ok"] and recovery["ok"])
    failed = sum(r["status"] != "ok" for r in records)
    metrics = {k: {"value": e2e[k]["value"], "unit": e2e[k]["unit"]}
               for k in END_TO_END}
    report = {
        "end_to_end": e2e,
        "checks": verdicts,
        "build_rows_in": W.size_summary(records),
        "pool_rows": ctx.reference["worstcase"]["pool_rows"],
        "predicates": checks.predicate_reuse(records),
        "setup_s_samples": [p["setup_s"] for p in probes],
        "first_cadview_ms_samples": cold,
        "statements_by_kind": _by_kind(records),
    }
    if ctx.workload == "explore-procs-wal":
        report["fsync_interval_ms"] = W.FSYNC_INTERVAL_MS
        # worker replies carry no rows_in; the sizes are those of the
        # reference entries whose digests and work counters matched
        report["build_rows_in"]["source"] = "reference"
    return correct, len(records), failed, metrics, report


def _by_kind(records) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for r in records:
        out[r["kind"]] = out.get(r["kind"], 0) + 1
    return out


def _counters(server: W.Server) -> Dict[str, float]:
    snap = server.metrics.snapshot()
    out = dict(snap["counters"])
    for name, hist in snap["histograms"].items():
        out[f"{name}#sum"] = hist["sum"]
    return out


def _recover_timing(ctx: W.Context) -> Tuple[float, int]:
    """Median ``recover_state`` wall time on the prepared directory."""
    from repro.serve.durability.recovery import recover_state

    times: List[float] = []
    records = 0
    for i in range(3):
        state = W.fresh_state(ctx, f"recover{i}")
        t0 = time.perf_counter()
        rec = recover_state(state, shards=W.SHARDS, truncate=True)
        times.append(time.perf_counter() - t0)
        records = rec.records_replayed
        shutil.rmtree(state, ignore_errors=True)
    return statistics.median(times) * 1e3, records


TRACED_SEGMENTS = 4


def run_traced(ctx: W.Context, spans_path: str
               ) -> Tuple[bool, int, int, Dict, Dict]:
    """``(correct, attempted, failed, metrics, report)`` for ``--trace 1``.

    Two fresh servers run the same streams in alternating segments, the
    second with the layer wrappers installed for its segments only; each
    gets half of ``--seconds``.  Alternating keeps a passing slowdown of
    the machine out of the tracing-overhead ratio.
    """
    table, generate_s = W.make_table(ctx)
    if ctx.workload == "explore-procs-wal":
        table = None
    recorder = layers.SpanRecorder()
    passes: List[Dict[str, object]] = []
    try:
        for tag in ("plain", "traced"):
            server = _main_server(ctx, table, tag=tag)
            passes.append({"server": server, "records": [], "busy": 0.0})
            probe, analysts = W.clients(ctx)
            passes[-1].update(analysts=analysts,
                              warm=W.run_unit(server, probe, "warm"),
                              before=_counters(server))
        for _ in range(TRACED_SEGMENTS):
            for traced, p in enumerate(passes):
                installed = layers.install(recorder) if traced else None
                try:
                    recs, busy = W.drive(p["server"], p["analysts"],
                                         ctx.seconds / 2 / TRACED_SEGMENTS)
                finally:
                    if installed is not None:
                        installed.restore()
                p["records"] += recs
                p["busy"] += busy
        for p in passes:
            server = p["server"]
            p["after"] = _counters(server)
            p["deaths"] = (sum(server.sup.stats()["deaths"].values())
                           if server.sup is not None else 0)
    finally:
        for p in passes:
            p["recovery"] = _finish_server(
                ctx, p["server"], p.get("warm", []) + p["records"])
    recorder.write(spans_path)
    for p in passes:
        p["check"] = W.check_records(ctx, p["records"])
        p["warm_ok"] = W.check_records(ctx, p["warm"])["ok"]
    plain, traced = passes
    metrics = _layer_metrics(ctx, recorder, traced, plain, generate_s)
    correct = all(p["warm_ok"] and p["check"]["ok"] and p["recovery"]["ok"]
                  for p in passes)
    attempted = sum(len(p["records"]) for p in passes)
    failed = sum(r["status"] != "ok" for p in passes for r in p["records"])
    units = per_layer_units()
    report = {
        "per_layer": metrics,
        "checks": {"plain": plain["check"], "traced": traced["check"],
                   "recovery": [p["recovery"] for p in passes]},
        "spans": len(recorder.spans),
        "spans_file": os.path.relpath(spans_path, ctx.root),
    }
    return (correct, attempted, failed,
            {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            report)


def _layer_metrics(ctx, recorder, traced, plain, generate_s) -> Dict[str, float]:
    records = [r for r in traced["records"] if r["status"] == "ok"]
    n = max(1, len(records))
    names = ctx.reference["work_counters"]
    self_s = recorder.self_times()
    out: Dict[str, float] = {}
    for metric, layer_names in LAYER_MS.items():
        out[metric] = sum(self_s.get(l, 0.0) for l in layer_names) * 1e3 / n
    totals = [sum(col) for col in zip(*(r["work"] for r in records))] or [0] * len(names)
    work = dict(zip(names, totals))
    for metric, counter in LAYER_WORK.items():
        out[metric] = work.get(counter, 0) / n
    returned = sum(r["rows"] or 0 for r in records
                   if r["kind"] in ("select", "cadview"))
    out["query.scanned_per_returned"] = (
        work.get("work.query.rows_scanned", 0) / returned if returned else 0.0)

    def delta(name: str) -> float:
        return traced["after"].get(name, 0.0) - traced["before"].get(name, 0.0)

    latency_ms = sum(r["latency_ms"] for r in records)
    out["serve.queue_wait_ms"] = 0.0
    if ctx.workload == "explore-threads":
        executed = sum(e - s for s, e, _, parent in recorder.calls("core.execute")
                       if parent == 0)
        out["serve.queue_wait_ms"] = (latency_ms - executed * 1e3) / n
    out["serve.rejected"] = delta("serve.rejected")
    out["serve.retries"] = delta("serve.retries")
    procs = ctx.workload == "explore-procs-wal"
    service_s = sum(delta(k) for k in traced["after"]
                    if k.startswith("serve.latency.") and k.endswith("#sum"))
    out["proc.overhead_ms"] = (latency_ms - service_s * 1e3) / n if procs else 0.0
    shard_done = [delta(f"proc.s{i}.completed") for i in range(W.SHARDS)]
    out["proc.busiest_shard_share"] = (
        max(shard_done) / sum(shard_done) if procs and sum(shard_done) else 0.0)
    out["proc.ready_s"] = traced["server"].ready_s if procs else 0.0
    out["proc.deaths"] = float(traced["deaths"])
    writes = sum(r["kind"] in checks.CATALOG_WRITES for r in records)
    encoded = recorder.calls("wal.encode")
    out["wal.fsyncs_per_mutation"] = (
        delta("wal.fsyncs") / writes if procs and writes else 0.0)
    out["wal.bytes_per_mutation"] = (
        sum(size for _, _, size, _ in encoded) / len(encoded) if encoded else 0.0)
    out["wal.recover_ms"], out["wal.recovered_records"] = (
        _recover_timing(ctx) if procs else (0.0, 0))
    out["dataset.generate_s"] = generate_s
    tps = [sum(r["status"] == "ok" for r in p["records"]) / p["busy"]
           for p in (plain, traced)]
    out["bench.trace_overhead_frac"] = 1.0 - tps[1] / tps[0]
    return out
