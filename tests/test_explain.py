"""EXPLAIN / EXPLAIN ANALYZE and the traced build path.

The acceptance contract: EXPLAIN ANALYZE's top-level totals reconcile
with the legacy BuildProfile buckets (within 5%), traces are stable
under a fixed seed, and fault-injected builds still produce complete,
annotated span trees.
"""

import numpy as np
import pytest

from repro import (
    CADViewBuilder,
    CADViewConfig,
    DBExplorer,
    FaultInjector,
    Table,
    Tracer,
    parse,
    render_trace,
)
from repro.dataset import AttrKind, Attribute, Schema
from repro.errors import ParseError
from repro.query.ast import (
    CreateCadViewStatement,
    ExplainStatement,
    SelectStatement,
)
from repro.robustness import Fault


def small_table(n_rows=300, pivot_card=3, seed=0) -> Table:
    schema = Schema([
        Attribute("pv", AttrKind.CATEGORICAL),
        Attribute("c0", AttrKind.CATEGORICAL),
        Attribute("c1", AttrKind.CATEGORICAL),
        Attribute("n0", AttrKind.NUMERIC),
    ])
    rng = np.random.default_rng(seed)
    rows = [
        {
            "pv": f"p{rng.integers(pivot_card)}",
            "c0": f"a{rng.integers(3)}",
            "c1": f"b{rng.integers(4)}",
            "n0": float(rng.normal(0, 10)),
        }
        for _ in range(n_rows)
    ]
    return Table.from_rows(schema, rows)


CREATE = (
    "CREATE CADVIEW V AS SET pivot = pv SELECT c0 FROM T IUNITS 2"
)


def fresh_explorer(**kwargs) -> DBExplorer:
    dbx = DBExplorer(CADViewConfig(seed=11), **kwargs)
    dbx.register("T", small_table())
    return dbx


# ------------------------------------------------------------------ parsing

class TestParsing:
    def test_explain_wraps_inner_statement(self):
        stmt = parse("EXPLAIN SELECT * FROM T")
        assert isinstance(stmt, ExplainStatement)
        assert not stmt.analyze
        assert isinstance(stmt.inner, SelectStatement)

    def test_explain_analyze_flag(self):
        stmt = parse(f"EXPLAIN ANALYZE {CREATE};")
        assert isinstance(stmt, ExplainStatement)
        assert stmt.analyze
        assert isinstance(stmt.inner, CreateCadViewStatement)

    def test_nested_explain_rejected(self):
        with pytest.raises(ParseError):
            parse("EXPLAIN EXPLAIN SELECT * FROM T")

    def test_bare_explain_rejected(self):
        with pytest.raises(ParseError):
            parse("EXPLAIN")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("EXPLAIN SELECT * FROM T nonsense extra")


# ------------------------------------------------------------------ EXPLAIN

class TestExplain:
    def test_plain_explain_does_not_build(self):
        dbx = fresh_explorer()
        out = dbx.execute(f"EXPLAIN {CREATE}")
        assert isinstance(out, str)
        assert "CREATE CADVIEW V" in out
        assert "compare_attrs" in out and "iunits" in out
        # nothing was executed: the view does not exist
        assert dbx.execute("SHOW CADVIEWS") == []

    def test_plain_explain_select(self):
        dbx = fresh_explorer()
        out = dbx.execute("EXPLAIN SELECT * FROM T")
        assert "scan: T" in out

    def test_analyze_builds_and_renders_the_trace(self):
        dbx = fresh_explorer()
        out = dbx.execute(f"EXPLAIN ANALYZE {CREATE}")
        assert isinstance(out, str)
        assert out.startswith("cadview.build")
        for phase in ("discretize", "compare_attrs", "iunits",
                      "topk", "kmeans"):
            assert phase in out
        assert "bucket reconciliation" in out
        # ANALYZE really executed: the view now exists
        assert dbx.execute("SHOW CADVIEWS") == ["V"]
        assert dbx.last_report is not None
        assert dbx.last_report.trace is not None

    def test_kmeans_span_records_distinct_rows(self):
        dbx = fresh_explorer()
        dbx.execute(f"EXPLAIN ANALYZE {CREATE}")
        spans = dbx.last_report.trace.find("kmeans")
        assert spans
        for span in spans:
            assert 1 <= span.attrs["distinct"] <= span.attrs["n"]

    def test_analyze_select_times_the_statement(self):
        dbx = fresh_explorer()
        out = dbx.execute("EXPLAIN ANALYZE SELECT * FROM T")
        assert "execute" in out and "SelectStatement" in out


# ------------------------------------------------------------ reconciliation

class TestReconciliation:
    def test_trace_totals_match_profile_within_5_percent(self):
        tracer = Tracer("t")
        cad = CADViewBuilder(CADViewConfig(seed=3)).build(
            small_table(), pivot="pv", tracer=tracer
        )
        build = tracer.finish().find("cadview.build")[0]
        for bucket, legacy in (
            ("compare_attrs", cad.profile.compare_attrs_s),
            ("iunits", cad.profile.iunits_s),
            ("others", cad.profile.others_s),
        ):
            traced = build.bucket_total(bucket)
            assert traced == pytest.approx(legacy, rel=0.05), bucket

    def test_profile_populated_without_any_tracer(self):
        cad = CADViewBuilder(CADViewConfig(seed=3)).build(
            small_table(), pivot="pv"
        )
        assert cad.profile.total_s > 0
        assert cad.profile.iunits_s > 0


# ------------------------------------------------------------------ stability

class TestStability:
    def build_trace_text(self):
        dbx = fresh_explorer()
        dbx.execute(f"EXPLAIN ANALYZE {CREATE}")
        return render_trace(dbx.last_report.trace, show_times=False)

    def test_fixed_seed_trace_is_stable(self):
        a = self.build_trace_text()
        b = self.build_trace_text()
        assert a == b

    def test_structure_mentions_every_pivot_value(self):
        text = self.build_trace_text()
        for value in ("p0", "p1", "p2"):
            assert f"pivot:{value}" in text


# ------------------------------------------------------------------ faults

class TestFaultedTraces:
    def test_retry_annotations_land_on_spans(self):
        tracer = Tracer("t")
        faults = FaultInjector({"cluster:p0": Fault("convergence", times=1)})
        CADViewBuilder(CADViewConfig(seed=3), faults=faults).build(
            small_table(), pivot="pv", tracer=tracer
        )
        root = tracer.finish()
        retries = [
            e for s in root.walk() for e in s.events if e.kind == "retry"
        ]
        assert retries, render_trace(root)
        assert any("cluster" in e.message for e in retries)
        # the trace is complete: every span closed, every pivot present
        assert all(s.closed for s in root.walk())
        for value in ("p0", "p1", "p2"):
            assert root.find(f"pivot:{value}")

    def test_degradation_annotations_land_on_spans(self):
        tracer = Tracer("t")
        faults = FaultInjector(
            {"cluster:p0": Fault("convergence", times=None)}
        )
        cad = CADViewBuilder(CADViewConfig(seed=3), faults=faults).build(
            small_table(), pivot="pv", tracer=tracer
        )
        root = tracer.finish()
        kinds = {e.kind for s in root.walk() for e in s.events}
        assert "degradation" in kinds or "incident" in kinds
        assert cad.report.trace is root.find("cadview.build")[0]

    def test_failed_build_leaves_closed_annotated_trace(self):
        tracer = Tracer("t")
        faults = FaultInjector({"discretize": Fault("crash", times=None)})
        builder = CADViewBuilder(CADViewConfig(seed=3), faults=faults)
        with pytest.raises(Exception):
            builder.build(small_table(), pivot="pv", tracer=tracer)
        root = tracer.finish()
        assert all(s.closed for s in root.walk())
        build = root.find("cadview.build")
        assert build and build[0].status == "error"
