"""The CAD View construction pipeline (paper Sections 2.2.2, 3, 6.3).

Build order, mirroring the paper's sub-problems:

1. Discretize the result set (pre-processing, Sec. 2.2.1).
2. Problem 1.1 — pick Compare Attributes with chi-square feature
   selection (on a sample when Optimization 1 is enabled).
3. Problem 1.2 — for each pivot value, cluster its tuples on the
   Compare Attributes with k-means (one-hot encoding) and label the
   ``l`` clusters as candidate IUnits.
4. Problem 2 — keep the diversified top-k per pivot value (div-astar).

Every phase is timed into a :class:`BuildProfile` with the same three
buckets the paper's Figure 8 reports.

Resilience (the interactive-latency contract): a build may carry a
:class:`~repro.robustness.Budget` and a
:class:`~repro.robustness.FaultInjector`.  Under budget pressure or
phase failure the builder walks a *degradation ladder* instead of
aborting —

* feature selection: full chi-square -> sampled chi-square -> entropy
  ranking of the pinned/fallback attributes;
* clustering: k-means -> seeded retry on transient
  :class:`~repro.errors.ConvergenceError` -> one whole-partition IUnit;
* top-k: exact div-astar -> greedy;
* per-pivot-value isolation: any other failure is recorded as an
  incident and only that pivot value is dropped;
* truncation: once the deadline passes, remaining pivot values are
  dropped and the partial view is returned.

:class:`~repro.errors.BudgetExceededError` escapes only when not even a
partial view can be produced.  Every step down the ladder is recorded in
the returned view's :class:`~repro.robustness.BuildReport`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cadview import CADView, CADViewConfig
from repro.core.profile import BuildProfile
from repro.dataset.table import Table
from repro.discretize.discretizer import DiscretizedView, Discretizer
from repro.errors import (
    BudgetExceededError,
    CADViewError,
    ConvergenceError,
    EmptyResultError,
    QueryCancelledError,
    QueryError,
)
from repro.clustering.encoding import one_hot_encode
from repro.clustering.kmeans import KMeans
from repro.features.selection import (
    FeatureSelector,
    select_compare_attributes,
)
from repro.iunits.diversify import diversified_topk
from repro.iunits.iunit import IUnit
from repro.iunits.labeling import LabelingConfig, build_iunits
from repro.iunits.ranking import PreferenceFunction
from repro.iunits.similarity import default_tau
from repro.obs.metrics import registry
from repro.obs.tracer import Tracer
from repro.robustness.budget import Budget, BudgetClock
from repro.robustness.cancel import CancelToken
from repro.robustness.faults import NO_FAULTS, FaultInjector
from repro.robustness.report import BuildReport

__all__ = ["CADViewBuilder"]

# Ladder sample caps applied under budget pressure (rows).  Chosen so a
# pressured phase costs single-digit milliseconds on paper-scale data.
_PRESSURE_FS_SAMPLE = 1_000
_PRESSURE_CLUSTER_SAMPLE = 512


class CADViewBuilder:
    """Builds :class:`CADView` objects from result sets.

    >>> builder = CADViewBuilder(CADViewConfig(compare_limit=5, iunits_k=3))
    >>> cad = builder.build(result, pivot="Make", pinned=("Price",))

    A builder-level ``budget`` / ``faults`` applies to every build; the
    per-call parameters of :meth:`build` and :meth:`refine` override it.
    """

    def __init__(
        self,
        config: CADViewConfig = CADViewConfig(),
        selector: Optional[FeatureSelector] = None,
        preference: Optional[PreferenceFunction] = None,
        budget: Optional[Budget] = None,
        faults: Optional[FaultInjector] = None,
    ):
        self.config = config
        self.selector = selector
        self.preference = preference
        self.budget = budget
        self.faults = faults

    # -- public API -------------------------------------------------------

    def _default_faults(self) -> FaultInjector:
        """The injector for builds that were not handed one explicitly.

        Falls back to the ``REPRO_FAULTS`` environment variable — the
        same switch :class:`~repro.core.explorer.DBExplorer` honors —
        so direct-builder workloads (the benches) can have latency or
        failure faults injected without code changes.
        """
        if self.faults is not None:
            return self.faults
        return FaultInjector.from_env() or NO_FAULTS

    def build(
        self,
        result: Table,
        pivot: str,
        pivot_values: Optional[Sequence[str]] = None,
        pinned: Sequence[str] = (),
        name: str = "cadview",
        exclude: Sequence[str] = (),
        budget: Optional[Budget] = None,
        faults: Optional[FaultInjector] = None,
        tracer: Optional[Tracer] = None,
        cancel: Optional[CancelToken] = None,
    ) -> CADView:
        """Construct the CAD View for ``result`` and ``pivot``.

        Parameters
        ----------
        result:
            The current result set ``R`` (already filtered by the user's
            selections).
        pivot:
            The Pivot Attribute ``fp``.
        pivot_values:
            The selected values ``V``; ``None`` takes every value present
            in ``R`` (the paper's default).
        pinned:
            Compare Attributes the user explicitly SELECTed (the ``N``
            of the query model); honored first, in order.
        exclude:
            Attributes never to auto-select (e.g. attributes already
            pinned by WHERE equality selections, which carry a single
            value in ``R`` and hence zero contrast).
        budget:
            Wall-clock/row limits for this build (overrides the
            builder-level budget).
        faults:
            Fault-injection plan for this build (tests only).
        tracer:
            An existing :class:`~repro.obs.Tracer` to nest this build's
            span tree under (``EXPLAIN ANALYZE`` and the CLI's
            ``--trace`` pass one); ``None`` creates a fresh tracer.
            Either way the build span lands on ``report.trace``.
        cancel:
            A :class:`~repro.robustness.CancelToken` checked at every
            budget checkpoint; once tripped the build raises
            :class:`~repro.errors.QueryCancelledError` promptly instead
            of degrading (the serving watchdog's hook).
        """
        config = self.config
        budget = budget if budget is not None else self.budget
        faults = faults if faults is not None else self._default_faults()
        clock = (budget or Budget()).begin(cancel)
        profile = BuildProfile()
        own_tracer = tracer is None
        tracer = tracer if tracer is not None else Tracer("cadview")
        report = BuildReport(
            budget=budget, profile=profile, tracer=tracer
        )
        if len(result) == 0:
            raise EmptyResultError("result set is empty")
        result.schema[pivot]  # raises UnknownAttributeError when absent
        try:
            with tracer.span(
                "cadview.build", view=name, pivot=pivot,
                rows_in=len(result),
            ) as build_span:
                report.trace = build_span
                result = self._apply_row_caps(result, budget, report)
                build_span.set_attr("rows", len(result))

                # pre-processing: context-dependent discretization of R
                with tracer.span(
                    "discretize", bucket="others", profile=profile,
                    strategy=config.strategy, nbins=config.nbins,
                ) as sp:
                    clock.check("discretize")
                    faults.fire("discretize")
                    discretizer = Discretizer(
                        strategy=config.strategy, nbins=config.nbins
                    )
                    view = discretizer.fit(result)
                    values = self._pivot_values(view, pivot, pivot_values)
                    sp.set_attr("attributes", len(view.attribute_names))
                    sp.set_attr("pivot_values", len(values))

                # Problem 1.1 — Compare Attributes (resilient ladder)
                with tracer.span(
                    "compare_attrs", bucket="compare_attrs",
                    profile=profile,
                ) as sp:
                    compare = self._compare_attributes(
                        result, discretizer, view, pivot, pinned, exclude,
                        clock, faults, report, tracer,
                    )
                    sp.set_attr("selected", len(compare))
                if not compare:
                    raise CADViewError(
                        f"no usable Compare Attribute for pivot {pivot!r}"
                    )

                # Problems 1.2 + 2 — candidate IUnits, diversified top-k
                labeling = LabelingConfig(
                    max_display=config.max_display,
                    alpha=config.label_alpha,
                    min_share=config.min_share,
                )
                tau = default_tau(len(compare), config.tau_alpha)
                l = config.effective_l(len(result))
                kept, rows, candidates = self._build_rows(
                    view, pivot, values, compare, labeling, tau, l,
                    profile, clock, faults, report, tracer,
                )
                report.elapsed_s = clock.elapsed()
                build_span.set_attr("values_built", len(kept))
        except BudgetExceededError:
            registry().counter("build.budget_exhausted").inc()
            raise
        except QueryCancelledError:
            registry().counter("build.cancelled").inc()
            raise
        except CADViewError:
            registry().counter("build.failed").inc()
            raise
        finally:
            if own_tracer:
                tracer.finish()
        self._record_build_metrics(report)
        return CADView(
            name, pivot, kept, compare, rows, view, config, profile,
            candidates, report,
        )

    @staticmethod
    def _record_build_metrics(report: BuildReport) -> None:
        """Fold one finished build into the process-wide registry."""
        reg = registry()
        reg.counter("build.total").inc()
        if report.degraded:
            reg.counter("build.degraded").inc()
        if report.partial:
            reg.counter("build.partial").inc()
        if report.retries:
            reg.counter("build.retries").inc(len(report.retries))
        reg.histogram("build.latency_s").observe(report.elapsed_s)

    def refine(
        self,
        cad: CADView,
        extra_predicate,
        name: Optional[str] = None,
        budget: Optional[Budget] = None,
        faults: Optional[FaultInjector] = None,
        tracer: Optional[Tracer] = None,
        cancel: Optional[CancelToken] = None,
    ) -> CADView:
        """Incrementally refine a view after the user narrows the query.

        Applies ``extra_predicate`` to the view's underlying result and
        rebuilds only the per-pivot-value clustering — the context
        (discretization bins, label domains) and the Compare Attributes
        are reused, which keeps successive views comparable while the
        user drills down and skips the two selection phases entirely.

        Pivot values left with no tuples drop out of the refined view.
        The same budget/degradation machinery as :meth:`build` applies
        to the clustering loop.
        """
        config = self.config
        budget = budget if budget is not None else self.budget
        faults = faults if faults is not None else self._default_faults()
        clock = (budget or Budget()).begin(cancel)
        profile = BuildProfile()
        own_tracer = tracer is None
        tracer = tracer if tracer is not None else Tracer("cadview")
        report = BuildReport(budget=budget, profile=profile, tracer=tracer)
        old_view = cad.view
        try:
            with tracer.span(
                "cadview.refine", view=name or cad.name,
                pivot=cad.pivot_attribute,
            ) as refine_span:
                report.trace = refine_span
                with tracer.span(
                    "restrict", bucket="others", profile=profile
                ) as sp:
                    mask = extra_predicate.mask(old_view.table)
                    if not mask.any():
                        raise EmptyResultError(
                            "refinement predicate matches no tuples"
                        )
                    view = old_view.restrict(mask)
                    present = view.value_counts(cad.pivot_attribute)
                    values = [v for v in cad.pivot_values if v in present]
                    if not values:
                        raise EmptyResultError(
                            "no pivot value survives the refinement"
                        )
                    sp.set_attr("rows", len(view))
                    sp.set_attr("pivot_values", len(values))

                compare = list(cad.compare_attributes)
                labeling = LabelingConfig(
                    max_display=config.max_display,
                    alpha=config.label_alpha,
                    min_share=config.min_share,
                )
                tau = default_tau(len(compare), config.tau_alpha)
                l = config.effective_l(len(view))
                kept, rows, candidates = self._build_rows(
                    view, cad.pivot_attribute, values, compare, labeling,
                    tau, l, profile, clock, faults, report, tracer,
                )
                report.elapsed_s = clock.elapsed()
                refine_span.set_attr("values_built", len(kept))
        finally:
            if own_tracer:
                tracer.finish()
        self._record_build_metrics(report)
        return CADView(
            name or cad.name, cad.pivot_attribute, kept, compare, rows,
            view, config, profile, candidates, report,
        )

    # -- phases ---------------------------------------------------------------

    @staticmethod
    def _pivot_values(
        view: DiscretizedView,
        pivot: str,
        requested: Optional[Sequence[str]],
    ) -> List[str]:
        present = view.value_counts(pivot)
        if requested is None:
            # all values present, most frequent first (stable display)
            return sorted(present, key=lambda v: (-present[v], v))
        values = []
        for v in requested:
            if str(v) not in present:
                raise EmptyResultError(
                    f"pivot value {v!r} has no tuples in the result set"
                )
            values.append(str(v))
        if not values:
            raise CADViewError("pivot_values must not be empty")
        return values

    def _apply_row_caps(
        self,
        result: Table,
        budget: Optional[Budget],
        report: BuildReport,
    ) -> Table:
        """Sample the input down to the budget's row/cell cap."""
        if budget is None:
            return result
        cap = budget.row_cap(len(result.schema))
        if cap is None or len(result) <= cap:
            return result
        cap = max(cap, 1)
        report.record_degradation(
            "input", f"rows:{len(result)}", f"rows:{cap}",
            "row/cell budget cap",
        )
        return result.sample(cap, np.random.default_rng(self.config.seed))

    def _compare_attributes(
        self,
        result: Table,
        discretizer: Discretizer,
        view: DiscretizedView,
        pivot: str,
        pinned: Sequence[str],
        exclude: Sequence[str],
        clock: BudgetClock,
        faults: FaultInjector,
        report: BuildReport,
        tracer: Tracer,
    ) -> List[str]:
        """Problem 1.1 with the selection degradation ladder.

        Rungs: full statistical selection -> selection on a sample
        (Optimization 1, forced under budget pressure) -> pinned
        attributes topped up by the entropy fallback.  User errors
        (unknown pinned attributes) always propagate.
        """
        config = self.config
        for name in pinned:
            if name not in view:
                raise QueryError(f"pinned attribute {name!r} not in view")

        sample_n = config.fs_sample
        if clock.under_pressure() and (
            sample_n is None or sample_n > _PRESSURE_FS_SAMPLE
        ):
            sample_n = _PRESSURE_FS_SAMPLE
            report.record_degradation(
                "feature_selection", "full", f"sample:{sample_n}",
                "budget pressure",
            )
        try:
            faults.fire("feature_selection")
            fs_view = view
            if sample_n is not None and len(result) > sample_n:
                # Optimization 1: rank attributes on a uniform sample
                with tracer.span("fs_sample", rows=sample_n):
                    sample = result.sample(
                        sample_n, np.random.default_rng(config.seed)
                    )
                    fs_view = discretizer.fit(sample)
            with tracer.span(
                "feature_selection", rows=len(fs_view),
                limit=config.compare_limit,
            ):
                compare = select_compare_attributes(
                    fs_view,
                    pivot,
                    pinned=pinned,
                    limit=config.compare_limit,
                    alpha=config.alpha,
                    selector=self.selector,
                    exclude=exclude,
                    checkpoint=clock.checkpoint("feature_selection"),
                    tracer=tracer,
                )
        except BudgetExceededError as exc:
            report.record_degradation(
                "feature_selection", "chi-square", "entropy-fallback",
                str(exc),
            )
            compare = list(dict.fromkeys(pinned))[:config.compare_limit]
        except QueryError:
            raise  # config/user errors (bad limit, bad pinned) propagate
        except QueryCancelledError:
            raise  # cancellation must stop the build, never degrade it
        # deliberate blanket: any selector crash downgrades to the entropy
        # ranking and is recorded as an incident, never swallowed silently
        # repro-lint: ignore[RL004]
        except Exception as exc:
            report.record_incident(
                "feature_selection", None, exc,
                "fell back to entropy ranking",
            )
            compare = list(dict.fromkeys(pinned))[:config.compare_limit]
        if len(compare) < min(config.compare_limit,
                              len(view.attribute_names) - 1):
            # contrast-based selection can come up short (e.g. a
            # single pivot value has no contrast at all); fill the
            # remaining slots with the highest-entropy attributes,
            # which still summarize the partition's structure
            with tracer.span("entropy_fallback", have=len(compare)):
                compare = self._entropy_fallback(
                    view, pivot, compare, exclude
                )
        return compare

    def _entropy_fallback(
        self,
        view: DiscretizedView,
        pivot: str,
        chosen: Sequence[str],
        exclude: Sequence[str],
    ) -> List[str]:
        """Top up the Compare Attributes by within-view value entropy."""
        chosen = list(chosen)
        skip = set(chosen) | {pivot} | set(exclude)
        scored = []
        for name in view.attribute_names:
            if name in skip:
                continue
            counts = np.array(list(view.value_counts(name).values()), float)
            if counts.size < 2:
                continue
            p = counts / counts.sum()
            entropy = float(-(p * np.log2(p)).sum())
            scored.append((-entropy, name))
        scored.sort()
        for _, name in scored:
            if len(chosen) >= self.config.compare_limit:
                break
            chosen.append(name)
        return chosen

    # -- per-pivot-value loop -------------------------------------------------

    def _build_rows(
        self,
        view: DiscretizedView,
        pivot: str,
        values: Sequence[str],
        compare: Sequence[str],
        labeling: LabelingConfig,
        tau: float,
        l: int,
        profile: BuildProfile,
        clock: BudgetClock,
        faults: FaultInjector,
        report: BuildReport,
        tracer: Tracer,
    ) -> Tuple[List[str], Dict[str, List[IUnit]], Dict[str, List[IUnit]]]:
        """Problems 1.2 + 2 for every pivot value, with error isolation.

        Returns (kept values, displayed rows, candidate IUnits).  A
        failing pivot value becomes an incident and is dropped; once the
        deadline passes the remaining values are truncated.  Raises
        :class:`BudgetExceededError` only when *nothing* was built
        before the deadline, and :class:`CADViewError` when every value
        failed.
        """
        rows: Dict[str, List[IUnit]] = {}
        candidates: Dict[str, List[IUnit]] = {}
        kept: List[str] = []
        rng = np.random.default_rng(self.config.seed)
        for i, value in enumerate(values):
            if clock.exceeded():
                if not kept:
                    clock.check("iunits")  # raises BudgetExceededError
                self._truncate(values[i:], report)
                break
            try:
                with tracer.span(f"pivot:{value}"):
                    with tracer.span(
                        "iunits", bucket="iunits", profile=profile
                    ):
                        cands = self._candidate_iunits(
                            view, pivot, value, compare, labeling, l, rng,
                            clock, faults, report, tracer,
                        )
                    with tracer.span(
                        "topk", bucket="others", profile=profile
                    ):
                        top = self._topk(
                            cands, value, tau, clock, faults, report,
                            tracer,
                        )
            except BudgetExceededError:
                if not kept:
                    raise
                self._truncate(values[i:], report)
                break
            except QueryCancelledError:
                raise  # cancellation punches through per-pivot isolation
            # deliberate blanket: per-pivot isolation — the incident and
            # the dropped value are recorded on the build report
            # repro-lint: ignore[RL004]
            except Exception as exc:
                # isolation: one bad partition must not kill the view
                report.record_incident(
                    "iunits", value, exc, "dropped pivot value"
                )
                report.record_dropped(value)
                continue
            candidates[value] = cands
            rows[value] = top
            kept.append(value)
        if not kept:
            detail = "; ".join(str(i) for i in report.incidents)
            raise CADViewError(
                f"every pivot value failed to build: {detail}"
            )
        return kept, rows, candidates

    @staticmethod
    def _truncate(remaining: Sequence[str], report: BuildReport) -> None:
        """Drop the not-yet-built pivot values at the deadline."""
        for value in remaining:
            report.record_dropped(value)
        report.record_degradation(
            "build", "all-values",
            f"truncated:-{len(remaining)}", "deadline reached",
        )

    def _candidate_iunits(
        self,
        view: DiscretizedView,
        pivot: str,
        value: str,
        compare: Sequence[str],
        labeling: LabelingConfig,
        l: int,
        rng: np.random.Generator,
        clock: BudgetClock,
        faults: FaultInjector,
        report: BuildReport,
        tracer: Tracer,
    ) -> List[IUnit]:
        """Problem 1.2 for one pivot value, with the clustering ladder.

        Transient :class:`ConvergenceError` is retried with a fresh seed
        ``budget.retries`` times; exhausted retries or a mid-clustering
        deadline degrade to a single whole-partition IUnit.
        """
        code = view.code_of(pivot, value)
        partition = view.restrict(view.codes(pivot) == code)
        config = self.config
        span = tracer.current
        span.set_attr("rows", len(partition))
        cap = config.cluster_sample
        if clock.under_pressure() and (
            cap is None or cap > _PRESSURE_CLUSTER_SAMPLE
        ):
            cap = _PRESSURE_CLUSTER_SAMPLE
            if len(partition) > cap:
                report.record_degradation(
                    "cluster", "full-partition", f"sample:{cap}",
                    "budget pressure",
                )
        if cap is not None and len(partition) > cap:
            keep = rng.choice(len(partition), size=cap, replace=False)
            mask = np.zeros(len(partition), dtype=bool)
            mask[keep] = True
            partition = partition.restrict(mask)
            span.set_attr("sampled_rows", len(partition))
        with tracer.span("encode", rows=len(partition)):
            encoding = one_hot_encode(partition, compare)
        k = min(l, len(partition))  # tiny partitions: one tuple per cluster
        checkpoint = clock.checkpoint("cluster")
        retries = clock.budget.retries
        fit = None
        for attempt in range(1, retries + 2):
            try:
                faults.fire("cluster", value)
                km = KMeans(n_clusters=k, seed=int(rng.integers(2**31)))
                fit = km.fit(
                    encoding.rows, rng, checkpoint=checkpoint,
                    tracer=tracer, inverse=encoding.inverse,
                )
                break
            except ConvergenceError as exc:
                if attempt <= retries:
                    report.record_retry("cluster", value, attempt, exc)
                    if report.profile is not None:
                        report.profile.count("retries")
                    tracer.inc("cluster_restarts")
                    continue
                report.record_incident(
                    "cluster", value, exc,
                    "degraded to whole-partition IUnit",
                )
                report.record_degradation(
                    "cluster", "kmeans", "whole-partition-iunit",
                    "retries exhausted",
                )
                break
            except BudgetExceededError:
                report.record_degradation(
                    "cluster", "kmeans", "whole-partition-iunit",
                    "deadline mid-clustering",
                )
                break
        if fit is None:
            # the bottom rung: the whole partition as one summary IUnit
            labels = np.zeros(len(partition), dtype=np.int32)
        else:
            labels = fit.labels
        with tracer.span("label", clusters=int(labels.max()) + 1):
            units = build_iunits(
                partition, labels, pivot, value, compare, labeling
            )
        span.inc("candidates", len(units))
        return units

    def _topk(
        self,
        cands: Sequence[IUnit],
        value: str,
        tau: float,
        clock: BudgetClock,
        faults: FaultInjector,
        report: BuildReport,
        tracer: Tracer,
    ) -> List[IUnit]:
        """Problem 2 for one pivot value: exact div-astar, else greedy."""
        config = self.config
        faults.fire("topk", value)
        exact = config.exact_topk
        if exact and clock.under_pressure():
            report.record_degradation(
                "topk", "exact", "greedy", "budget pressure"
            )
            exact = False
        try:
            return diversified_topk(
                cands,
                config.iunits_k,
                tau,
                self.preference,
                exact=exact,
                checkpoint=clock.checkpoint("topk"),
                tracer=tracer,
            )
        except BudgetExceededError:
            report.record_degradation(
                "topk", "exact", "greedy", "deadline mid-search"
            )
            return diversified_topk(
                cands, config.iunits_k, tau, self.preference, exact=False,
                tracer=tracer,
            )
