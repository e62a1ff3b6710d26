"""Output checks: result digests, exact work counters, predicate reuse.

A statement's digest hashes what the analyst sees — status, the
degradation rungs of a build, and the program's canonical result
projection (:func:`repro.serve.stress.result_payload`, the form both
serving modes reduce results to).  Catalog listings (``SHOW CADVIEWS``
and the listing ``DROP CADVIEW`` returns) are cut down to the view the
statement's own episode owns, because which other views are live at
that instant depends on how the clients interleave.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional, Sequence

LISTING_KINDS = ("show", "drop")
MUTATION_KINDS = ("reorder", "drop")
CATALOG_WRITES = ("cadview", "reorder", "drop")


def digest(
    kind: str,
    status: str,
    degradations: Sequence[str],
    payload: object,
    own_view: Optional[str],
) -> str:
    """The 16-hex-digit digest of one statement's visible outcome."""
    if kind in LISTING_KINDS and isinstance(payload, list):
        payload = [name for name in payload if name == own_view]
    blob = json.dumps(
        {"status": status, "degradations": list(degradations),
         "result": payload},
        sort_keys=True, default=str,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def result_digest(kind: str, result: object, own_view: Optional[str]) -> str:
    """Digest of a successful in-process result (a live object)."""
    from repro.core.cadview import CADView
    from repro.serve.stress import result_payload

    degradations: List[str] = []
    if kind == "cadview" and isinstance(result, CADView) and result.report:
        degradations = [str(d) for d in result.report.degradations]
    return digest(kind, "ok", degradations, result_payload(result), own_view)


def work_vector(work: Optional[Dict[str, int]], names: Sequence[str]) -> List[int]:
    """Exact work counters in ``names`` order (absent counters are 0).

    Counters the reference does not know are summed into one extra
    element, so they fail the comparison instead of going unnoticed.
    """
    work = work or {}
    vector = [int(work.get(name, 0)) for name in names]
    unknown = [int(v) for k, v in work.items() if k not in names]
    return vector + [sum(unknown)] if unknown else vector


def compare(
    records: Iterable[Dict[str, object]], reference_of
) -> Dict[str, object]:
    """Check each completed record against its reference entry.

    ``reference_of(record)`` returns the pool entry the record sent.
    Returns mismatch counts plus the run's work totals next to the
    reference's totals for the same statements; a run is correct only
    when both mismatch lists are empty and the totals are equal.
    """
    digest_bad: List[str] = []
    work_bad: List[str] = []
    total_run: Optional[List[int]] = None
    total_ref: Optional[List[int]] = None
    checked = 0
    for rec in records:
        if rec["status"] != "ok":
            continue
        ref = reference_of(rec)
        checked += 1
        if rec["digest"] != ref["digest"]:
            digest_bad.append(rec["sql"])
        if rec["work"] != ref["work"]:
            work_bad.append(rec["sql"])
        if total_run is None:
            total_run = [0] * len(ref["work"])
            total_ref = [0] * len(ref["work"])
        total_run = [a + b for a, b in zip(total_run, rec["work"])]
        total_ref = [a + b for a, b in zip(total_ref, ref["work"])]
    return {
        "checked": checked,
        "digest_mismatches": digest_bad[:5],
        "digest_mismatch_count": len(digest_bad),
        "work_mismatch_count": len(work_bad),
        "work_totals_equal": total_run == total_ref,
        "ok": not digest_bad and not work_bad and total_run == total_ref,
    }


def predicate_reuse(records: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """How much of the run's filtering an exact or drill-down cache could reuse.

    ``repeat_share``: statements whose WHERE equals one sent earlier in
    the run (any client, any kind).  ``build_repeat_share``: builds whose
    WHERE equals an earlier build's — 0 by construction.
    ``refine_share``: statements whose conjuncts strictly contain an
    earlier statement's, the drill-down case Smart Drill-Down reuses.
    """
    from repro.query.parser import parse
    from repro.query.predicates import And

    seen: List[frozenset] = []
    seen_set = set()
    builds_seen = set()
    counted = repeats = refines = builds = build_repeats = 0
    for rec in sorted(records, key=lambda r: r["t_submit"]):
        where = getattr(parse(rec["sql"]), "where", None)
        if where is None:
            continue
        parts = where.children if isinstance(where, And) else (where,)
        conj = frozenset(p.to_sql() for p in parts)
        counted += 1
        if conj in seen_set:
            repeats += 1
        elif any(prev < conj for prev in seen):
            refines += 1
        if rec["kind"] == "cadview":
            builds += 1
            build_repeats += conj in builds_seen
            builds_seen.add(conj)
        if conj not in seen_set:
            seen_set.add(conj)
            seen.append(conj)
    return {
        "statements_with_predicate": counted,
        "repeat_share": repeats / counted if counted else 0.0,
        "refine_share": refines / counted if counted else 0.0,
        "builds": builds,
        "build_repeat_share": build_repeats / builds if builds else 0.0,
    }
