"""Tests for the cross-process telemetry plane.

Covers the wire form (`span_to_wire`/`epoch_anchor`), the supervisor's
`TelemetryHub` (ingestion, relabeling, bounds, drop accounting), the
stitched Chrome trace exporter (validated with the same stdlib checker
CI uses), and the declarative SLO layer (spec parsing, evaluation,
burn accounting).
"""

from __future__ import annotations

import importlib.util
import json
import time
from pathlib import Path

import pytest

from repro.obs.hub import (
    TelemetryHub,
    to_stitched_chrome_trace,
    write_stitched_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry, hist_mean, hist_quantile
from repro.obs.slo import (
    SLOError,
    evaluate_slos,
    parse_slos,
)
from repro.obs.tracer import Span, epoch_anchor, span_to_wire


def _load_check_trace():
    """Import benchmarks/check_trace.py (not an installed package)."""
    path = Path(__file__).parent.parent / "benchmarks" / "check_trace.py"
    spec = importlib.util.spec_from_file_location("check_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _worker_payload(
    shard=0, incarnation=0, pid=4242, dropped=0,
    metrics=None, spans=None, events=None,
):
    return {
        "shard": shard,
        "incarnation": incarnation,
        "pid": pid,
        "seq": 1,
        "dropped": dropped,
        "metrics": metrics if metrics is not None else {
            "counters": {"worker.statements.ok": 3.0},
            "gauges": {},
            "histograms": {},
        },
        "spans": spans or [],
        "events": events or [],
    }


def _wire_tree(name="worker.request", request_id="r-1", start=1000.0,
               dur=0.5, children=()):
    return {
        "name": name,
        "bucket": None,
        "status": "ok",
        "error": None,
        "start_ts": start,
        "end_ts": start + dur,
        "attrs": {"request_id": request_id},
        "counters": {},
        "events": [],
        "children": list(children),
    }


class TestWireForm:
    def test_epoch_anchor_maps_perf_counter_to_epoch(self):
        anchor = epoch_anchor()
        now = anchor + time.perf_counter()
        assert abs(now - time.time()) < 1.0

    def test_span_to_wire_carries_absolute_timestamps(self):
        span = Span("build", request_id="r-9")
        child = Span("cluster")
        child.close()
        span.children.append(child)
        span.inc("cells", 7)
        span.close()
        wire = span_to_wire(span, anchor=1000.0)
        assert wire["name"] == "build"
        assert wire["start_ts"] == pytest.approx(1000.0 + span.start_s)
        assert wire["end_ts"] >= wire["start_ts"]
        assert wire["attrs"]["request_id"] == "r-9"
        assert wire["counters"]["cells"] == 7
        assert wire["children"][0]["name"] == "cluster"

    def test_non_scalar_attrs_are_stringified(self):
        span = Span("x", weird=object())
        span.close()
        wire = span_to_wire(span, anchor=0.0)
        assert isinstance(wire["attrs"]["weird"], str)
        json.dumps(wire)  # the whole wire form must be JSON-able


class TestTelemetryHub:
    def test_ingest_tracks_workers_and_frames(self):
        hub = TelemetryHub()
        hub.ingest(0, 0, _worker_payload(shard=0, pid=100))
        hub.ingest(1, 0, _worker_payload(shard=1, pid=101))
        stats = hub.stats()
        assert stats["frames"] == 2
        assert stats["workers_seen"] == 2
        assert stats["dropped_total"] == 0
        assert hub.incarnations() == [(0, 0), (1, 0)]

    def test_cluster_registry_relabels_per_incarnation(self):
        sup = MetricsRegistry()
        sup.counter("proc.s0.completed").inc(5)
        hub = TelemetryHub(metrics=sup)
        hub.ingest(0, 0, _worker_payload(shard=0))
        hub.ingest(0, 2, _worker_payload(shard=0, incarnation=2))
        snap = hub.cluster_registry().snapshot()
        counters = snap["counters"]
        assert counters["proc.s0.completed"] == 5.0
        assert counters["proc.s0.g0.worker.statements.ok"] == 3.0
        assert counters["proc.s0.g2.worker.statements.ok"] == 3.0
        # drop counters present even at zero: "no drops" must be
        # distinguishable from "not counting"
        assert counters["proc.telemetry.dropped"] == 0.0
        assert counters["proc.telemetry.hub_dropped"] == 0.0
        assert counters["proc.telemetry.frames_merged"] == 2.0

    def test_latest_cumulative_snapshot_wins(self):
        hub = TelemetryHub()
        hub.ingest(0, 0, _worker_payload(metrics={
            "counters": {"worker.statements.ok": 2.0},
            "gauges": {}, "histograms": {},
        }))
        hub.ingest(0, 0, _worker_payload(metrics={
            "counters": {"worker.statements.ok": 6.0},
            "gauges": {}, "histograms": {},
        }))
        snap = hub.cluster_registry().snapshot()
        # cumulative, not summed: 6, never 8
        assert snap["counters"]["proc.s0.g0.worker.statements.ok"] == 6.0

    def test_worker_dropped_merges_by_max(self):
        hub = TelemetryHub()
        hub.ingest(0, 0, _worker_payload(dropped=5))
        hub.ingest(0, 0, _worker_payload(dropped=3))  # out-of-order frame
        assert hub.stats()["worker_drops"] == 5.0

    def test_span_tree_bound_drops_and_counts(self):
        hub = TelemetryHub(max_span_trees=2)
        hub.ingest(0, 0, _worker_payload(
            spans=[_wire_tree(request_id=f"r-{i}") for i in range(5)]
        ))
        stats = hub.stats()
        assert stats["span_trees"] == 2
        assert stats["hub_span_drops"] == 3
        assert stats["dropped_total"] == 3

    def test_event_bound_drops_and_counts(self):
        hub = TelemetryHub(max_events=1)
        hub.record_event("worker.spawn", shard=0)
        hub.record_event("worker.death", shard=0)
        assert hub.stats()["events"] == 1
        assert hub.stats()["hub_event_drops"] == 1

    def test_malformed_payload_never_raises(self):
        hub = TelemetryHub()
        hub.ingest(0, 0, {
            "pid": "not-an-int", "dropped": -3, "metrics": 42,
            "spans": "nonsense", "events": [None, 7],
        })
        stats = hub.stats()
        assert stats["frames"] == 1
        assert stats["span_trees"] == 0
        assert stats["worker_drops"] == 0.0

    def test_span_trees_are_tagged_with_provenance(self):
        hub = TelemetryHub()
        hub.ingest(1, 2, _worker_payload(
            shard=1, incarnation=2, pid=777, spans=[_wire_tree()]
        ))
        (entry,) = hub.span_trees()
        assert (entry["shard"], entry["incarnation"], entry["pid"]) == \
            (1, 2, 777)
        assert entry["tree"]["name"] == "worker.request"


class TestStitchedTrace:
    def _hub_with_worker(self, pid=4242):
        hub = TelemetryHub()
        hub.ingest(0, 0, _worker_payload(pid=pid, spans=[
            _wire_tree(request_id="r-1", start=1000.2),
            _wire_tree(name="worker.startup", request_id="r-0",
                       start=1000.0),
        ]))
        return hub

    def test_one_lane_per_process_with_names(self):
        anchor = 1000.0  # pretend perf_counter 0 == epoch 1000
        root = Span("serve.session")
        req = Span("serve.request", request_id="r-1", shard=0,
                   incarnation=0)
        req.close()
        root.children.append(req)
        root.close()
        hub = self._hub_with_worker()
        trace = to_stitched_chrome_trace(
            root, hub.span_trees(), supervisor_pid=1, anchor=anchor
        )
        events = trace["traceEvents"]
        metas = {e["pid"]: e["args"]["name"]
                 for e in events if e["ph"] == "M"}
        assert metas[1].startswith("supervisor")
        assert metas[4242] == "worker s0 g0 (pid 4242)"
        assert all(e["ts"] >= 0 for e in events)
        names = {e["name"] for e in events}
        assert {"serve.request", "worker.request", "worker.startup"} \
            <= names

    def test_synthetic_pid_for_unknown_worker(self):
        hub = TelemetryHub()
        hub.ingest(2, 3, _worker_payload(
            shard=2, incarnation=3, pid=None, spans=[_wire_tree()]
        ))
        trace = to_stitched_chrome_trace(
            None, hub.span_trees(), supervisor_pid=1, anchor=0.0
        )
        pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert pids == {1_000_000 + 2 * 1_000 + 3}

    def test_written_trace_passes_the_ci_validator(self, tmp_path):
        anchor = 1000.0
        root = Span("serve.session")
        req = Span("serve.request", request_id="r-1")
        req.close()
        root.children.append(req)
        root.close()
        hub = self._hub_with_worker()
        path = tmp_path / "stitched.json"
        write_stitched_chrome_trace(
            str(path), root, hub.span_trees(),
            supervisor_pid=1, anchor=anchor,
        )
        checker = _load_check_trace()
        assert checker.validate_trace(str(path), stitched=True) == []

    def test_validator_rejects_orphan_worker_spans(self, tmp_path):
        hub = TelemetryHub()
        hub.ingest(0, 0, _worker_payload(spans=[
            _wire_tree(request_id="r-orphan")
        ]))
        root = Span("serve.session")
        root.close()
        path = tmp_path / "orphan.json"
        write_stitched_chrome_trace(
            str(path), root, hub.span_trees(),
            supervisor_pid=1, anchor=1000.0,
        )
        checker = _load_check_trace()
        problems = checker.validate_trace(str(path), stitched=True)
        assert any("no matching serve.request" in p for p in problems)

    def test_validator_rejects_single_process_trace(self, tmp_path):
        root = Span("serve.session")
        root.close()
        path = tmp_path / "solo.json"
        write_stitched_chrome_trace(
            str(path), root, [], supervisor_pid=1, anchor=1000.0
        )
        checker = _load_check_trace()
        problems = checker.validate_trace(str(path), stitched=True)
        assert any("expected >= 2" in p for p in problems)


class TestSLOParsing:
    def test_parses_spec_list(self):
        objectives = parse_slos("view:p95_ms<=500, *:error_rate<=0.05")
        assert [(o.kind, o.metric, o.threshold) for o in objectives] == \
            [("view", "p95_ms", 500.0), ("*", "error_rate", 0.05)]

    @pytest.mark.parametrize("spec", [
        "nonsense",
        "view:p97_ms<=500",          # unknown metric
        "view:error_rate<=0.1",      # error_rate must be scoped '*'
        "view:p95_ms<=0",            # threshold must be positive
        "",                          # empty spec
    ])
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(SLOError):
            parse_slos(spec)


class TestSLOEvaluation:
    def _snapshot(self, latencies_by_kind, statuses):
        reg = MetricsRegistry()
        for kind, values in latencies_by_kind.items():
            hist = reg.histogram(f"serve.latency.{kind}")
            for v in values:
                hist.observe(v)
        for status, n in statuses.items():
            reg.counter(f"serve.statements.{status}").inc(n)
        return reg.snapshot()

    def test_error_rate_counts_non_ok_statuses(self):
        snap = self._snapshot({}, {"ok": 8, "degraded": 1, "failed": 1})
        report = evaluate_slos(parse_slos("*:error_rate<=0.2"), snap)
        (result,) = report.results
        # degraded counts as success: 1 bad of 10
        assert result.observed == pytest.approx(0.1)
        assert result.ok
        assert result.burn == pytest.approx(0.5)
        assert result.samples == 10

    def test_latency_objective_fails_when_exceeded(self):
        snap = self._snapshot({"view": [5.0] * 10}, {"ok": 10})
        report = evaluate_slos(parse_slos("view:p95_ms<=100"), snap)
        (result,) = report.results
        assert not result.ok
        assert not report.ok
        assert result.burn is not None and result.burn > 1.0

    def test_fast_latencies_pass(self):
        snap = self._snapshot({"view": [0.001] * 20}, {"ok": 20})
        report = evaluate_slos(
            parse_slos("view:p99_ms<=500,*:mean_ms<=500"), snap
        )
        assert report.ok
        assert report.evaluated == 2

    def test_unmatched_kind_skips_without_failing(self):
        snap = self._snapshot({"view": [0.001]}, {"ok": 1})
        report = evaluate_slos(parse_slos("select:p95_ms<=10"), snap)
        (result,) = report.results
        assert result.observed is None
        assert result.ok
        assert report.ok
        assert report.evaluated == 0
        assert "SKIP" in result.line()

    def test_star_kind_merges_all_latency_histograms(self):
        snap = self._snapshot(
            {"view": [0.001] * 5, "select": [0.002] * 5}, {"ok": 10}
        )
        report = evaluate_slos(parse_slos("*:p50_ms<=100"), snap)
        (result,) = report.results
        assert result.samples == 10

    def test_report_renders_and_dumps(self):
        snap = self._snapshot({"view": [0.001]}, {"ok": 1})
        report = evaluate_slos(parse_slos("view:p95_ms<=100"), snap)
        assert "SLO check: PASS" in report.render()
        dumped = report.as_dict()
        assert dumped["ok"] is True
        assert dumped["objectives"][0]["metric"] == "p95_ms"


class TestHistogramHelpers:
    def test_quantile_and_mean(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h")
        for v in [0.001] * 9 + [10.0]:
            hist.observe(v)
        dump = reg.snapshot()["histograms"]["h"]
        assert hist_quantile(dump, 0.5) <= 0.01
        assert hist_mean(dump) == pytest.approx(1.0009, rel=0.01)

    def test_quantile_of_empty_dump_is_zero(self):
        assert hist_quantile({"bounds": [], "counts": [], "count": 0},
                             0.99) == 0.0
