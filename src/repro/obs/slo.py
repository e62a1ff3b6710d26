"""Declarative latency / error-rate objectives with burn accounting.

An SLO spec is a comma-separated list of objectives::

    view:p95_ms<=500,explain:p99_ms<=1000,*:error_rate<=0.01

Each objective is ``<kind>:<metric><=<value>`` where ``kind`` is a
statement kind (``view``, ``explain``, ``select``, ...) or ``*`` for
all statements, and ``metric`` is one of:

========== =====================================================
metric     meaning
========== =====================================================
p50_ms     50th percentile latency, milliseconds
p95_ms     95th percentile latency, milliseconds
p99_ms     99th percentile latency, milliseconds
mean_ms    mean latency, milliseconds
error_rate fraction of statements not ``ok``/``degraded``
           (only valid for kind ``*``)
========== =====================================================

Objectives evaluate against a :meth:`MetricsRegistry.snapshot` dict —
live (serve exit, replay report) or from a JSON file (``repro stats``),
so CI can gate on a snapshot artifact without re-running the workload.

**Burn accounting.**  A percentile objective ``pNN <= T`` implicitly
allows a ``1 - NN/100`` fraction of statements above ``T``; the *burn
rate* is the observed violating fraction divided by that error budget.
Burn 1.0 means the budget is exactly spent; above 1.0 the objective is
failing; e.g. burn 4.0 means violations are arriving 4x faster than the
budget allows.  Violations are counted from histogram buckets whose
*lower* bound already exceeds the threshold (a conservative
undercount: the bucket straddling the threshold is not charged).
``mean_ms`` and ``error_rate`` objectives burn as ``observed /
threshold``.  This mirrors how multi-window burn alerts are specified
in SRE practice, collapsed to the single window a replay/stress run is.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.metrics import hist_mean, hist_quantile

__all__ = [
    "SLOError",
    "SLObjective",
    "SLOResult",
    "SLOReport",
    "parse_slos",
    "evaluate_slos",
]

_METRICS = ("p50_ms", "p95_ms", "p99_ms", "mean_ms", "error_rate")
_QUANTILE_BY_METRIC = {"p50_ms": 0.50, "p95_ms": 0.95, "p99_ms": 0.99}
_SPEC_RE = re.compile(
    r"^(?P<kind>[A-Za-z_*][A-Za-z0-9_]*|\*)\s*:\s*"
    r"(?P<metric>[a-z0-9_]+)\s*<=\s*(?P<value>[0-9.]+)$"
)

# statement statuses that do not count against the error budget
_OK_STATUSES = frozenset({"ok", "degraded"})
# the per-kind latency histograms (seconds) and per-status statement
# counters every serving path records
_LATENCY_PREFIX = "serve.latency."
_STATUS_PREFIX = "serve.statements."


class SLOError(ReproError):
    """A malformed SLO spec string."""


@dataclass(frozen=True)
class SLObjective:
    """One parsed objective: ``kind:metric<=threshold``."""

    kind: str       # statement kind, or "*" for all
    metric: str     # one of _METRICS
    threshold: float

    def __str__(self) -> str:
        value = (
            f"{self.threshold:g}" if self.metric != "error_rate"
            else f"{self.threshold:g}"
        )
        return f"{self.kind}:{self.metric}<={value}"


def parse_slos(spec: str) -> List[SLObjective]:
    """Parse a comma-separated SLO spec string.

    Raises :class:`SLOError` on malformed objectives, unknown metrics,
    or ``error_rate`` scoped to a specific kind (error budgets are
    tracked per status, not per kind — scope it ``*``).
    """
    objectives: List[SLObjective] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        m = _SPEC_RE.match(part)
        if m is None:
            raise SLOError(
                f"bad SLO objective {part!r} "
                f"(want <kind>:<metric><=<value>, e.g. view:p95_ms<=500)"
            )
        kind, metric = m.group("kind"), m.group("metric")
        if metric not in _METRICS:
            raise SLOError(
                f"unknown SLO metric {metric!r} in {part!r} "
                f"(one of {', '.join(_METRICS)})"
            )
        if metric == "error_rate" and kind != "*":
            raise SLOError(
                f"error_rate objectives must be scoped '*', got {part!r}"
            )
        try:
            threshold = float(m.group("value"))
        except ValueError as exc:  # pragma: no cover - regex precludes
            raise SLOError(f"bad threshold in {part!r}") from exc
        if threshold <= 0:
            raise SLOError(f"threshold must be positive in {part!r}")
        objectives.append(SLObjective(kind, metric, threshold))
    if not objectives:
        raise SLOError(f"empty SLO spec {spec!r}")
    return objectives


@dataclass
class SLOResult:
    """One objective's evaluation against a snapshot."""

    objective: SLObjective
    observed: Optional[float]   # None when no samples matched the kind
    ok: bool
    burn: Optional[float]       # budget burn rate (None when no samples)
    samples: int                # observations the objective judged

    def line(self) -> str:
        """One human-readable result line for the SLO report."""
        status = "PASS" if self.ok else "FAIL"
        if self.observed is None:
            return f"  SKIP {self.objective}  (no samples)"
        obs = (
            f"{self.observed:.4f}" if self.objective.metric == "error_rate"
            else f"{self.observed:.1f}"
        )
        burn = f"{self.burn:.2f}" if self.burn is not None else "-"
        return (
            f"  {status} {self.objective}  observed={obs} "
            f"burn={burn} samples={self.samples}"
        )


@dataclass
class SLOReport:
    """Every objective's result, plus the overall verdict."""

    results: List[SLOResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no evaluated objective failed (skips don't fail)."""
        return all(r.ok for r in self.results)

    @property
    def evaluated(self) -> int:
        """How many objectives had samples to judge (non-skipped)."""
        return sum(1 for r in self.results if r.observed is not None)

    def render(self) -> str:
        """The full multi-line report: verdict plus one line per objective."""
        lines = ["SLO check: " + ("PASS" if self.ok else "FAIL")]
        lines.extend(r.line() for r in self.results)
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        """A JSON-serialisable form of the report for machine consumers."""
        return {
            "ok": self.ok,
            "objectives": [
                {
                    "objective": str(r.objective),
                    "kind": r.objective.kind,
                    "metric": r.objective.metric,
                    "threshold": r.objective.threshold,
                    "observed": r.observed,
                    "ok": r.ok,
                    "burn": r.burn,
                    "samples": r.samples,
                }
                for r in self.results
            ],
        }


def _violating_fraction(
    dump: Dict[str, object], threshold_s: float
) -> Tuple[float, int]:
    """(fraction of observations above threshold, total count).

    Counts only buckets whose *lower* bound is at or above the
    threshold — conservative, since the straddling bucket may hold
    observations on either side.
    """
    count = int(dump.get("count") or 0)
    if count == 0:
        return 0.0, 0
    bounds = [float(b) for b in dump.get("bounds") or ()]
    counts = [int(c) for c in dump.get("counts") or ()]
    violating = 0
    for idx, c in enumerate(counts):
        if idx >= len(bounds):
            violating += c  # overflow bucket: unbounded above, charge it
        elif idx > 0 and bounds[idx - 1] >= threshold_s:
            violating += c
    return violating / count, count


def _collect_latency(
    snapshot: Dict[str, object], kind: str
) -> Optional[Dict[str, object]]:
    """The merged histogram dump for ``kind`` (or all kinds for '*')."""
    hists = snapshot.get("histograms") or {}
    if kind != "*":
        return hists.get(f"{_LATENCY_PREFIX}{kind}")
    merged: Optional[Dict[str, object]] = None
    for name, dump in hists.items():
        if not name.startswith(_LATENCY_PREFIX):
            continue
        if merged is None:
            merged = {
                "bounds": list(dump.get("bounds") or ()),
                "counts": [int(c) for c in dump.get("counts") or ()],
                "sum": float(dump.get("sum") or 0.0),
                "count": int(dump.get("count") or 0),
            }
        elif list(dump.get("bounds") or ()) == merged["bounds"]:
            merged["counts"] = [
                a + int(b)
                for a, b in zip(merged["counts"], dump.get("counts") or ())
            ]
            merged["sum"] += float(dump.get("sum") or 0.0)
            merged["count"] += int(dump.get("count") or 0)
    return merged


def evaluate_slos(
    objectives: List[SLObjective],
    snapshot: Dict[str, object],
) -> SLOReport:
    """Evaluate every objective against one metrics snapshot."""
    report = SLOReport()
    for objective in objectives:
        if objective.metric == "error_rate":
            counters = snapshot.get("counters") or {}
            total = 0.0
            bad = 0.0
            for name, value in counters.items():
                if not name.startswith(_STATUS_PREFIX):
                    continue
                status = name[len(_STATUS_PREFIX):]
                total += float(value)
                if status not in _OK_STATUSES:
                    bad += float(value)
            if total == 0:
                report.results.append(SLOResult(
                    objective, None, True, None, 0
                ))
                continue
            rate = bad / total
            report.results.append(SLOResult(
                objective,
                rate,
                rate <= objective.threshold,
                rate / objective.threshold,
                int(total),
            ))
            continue
        dump = _collect_latency(snapshot, objective.kind)
        if dump is None or not int(dump.get("count") or 0):
            report.results.append(SLOResult(objective, None, True, None, 0))
            continue
        threshold_s = objective.threshold / 1e3
        if objective.metric == "mean_ms":
            observed_ms = hist_mean(dump) * 1e3
            report.results.append(SLOResult(
                objective,
                observed_ms,
                observed_ms <= objective.threshold,
                observed_ms / objective.threshold,
                int(dump.get("count") or 0),
            ))
            continue
        q = _QUANTILE_BY_METRIC[objective.metric]
        observed_s = hist_quantile(dump, q)
        observed_ms = (
            observed_s * 1e3 if observed_s != float("inf") else float("inf")
        )
        allowed = 1.0 - q  # the objective's implicit error budget
        violating, count = _violating_fraction(dump, threshold_s)
        burn = (violating / allowed) if allowed > 0 else 0.0
        report.results.append(SLOResult(
            objective,
            observed_ms,
            observed_ms <= objective.threshold,
            burn,
            count,
        ))
    return report
