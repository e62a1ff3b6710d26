"""Benchmark regression gate: compare a bench run against baselines.

Stdlib-only, so CI can run it without installing the package::

    REPRO_BENCH_DIR=bench_out pytest benchmarks/ -k "not test_bench_"
    python benchmarks/regress.py --baseline benchmarks/baselines \
        --current bench_out --out regress_verdict.json

Every ``BENCH_<name>.json`` in the baseline directory is matched with
the same file in the current directory and their scalar latency leaves
(keys ending ``_ms``) are compared.  A leaf regresses when::

    current > baseline * threshold + abs_slack

Two thresholds apply, because the artifacts mix two kinds of numbers:

* **continuous** phase totals (``total_ms``, ``iunits_ms``, ...) —
  averaged timings where a modest multiplier plus a small absolute
  slack separates noise from regression;
* **bucket-quantized** percentiles (``p50_ms``/``p95_ms``/``p99_ms``
  from :class:`~repro.obs.metrics.Histogram`) — quantiles snap to the
  bucket upper bound, so ordinary jitter on a bucket boundary flips
  the value by one whole bucket (2-2.5x).  These get a looser
  multiplier; anything beyond it means the latency moved at least two
  buckets, which no amount of boundary noise explains.

Besides the latency leaves, any ``work`` subtree (the deterministic
work counters of :mod:`repro.obs.work`) is compared with **exact
equality** — the counters are integers derived only from the data and
the statements, so there is no noise to absorb and no slack to grant.
A drifted count is a semantic change in how much work a kernel does; a
baseline that predates the counters (no ``work`` block at all) fails
with an explicit re-baseline instruction.

Exit codes: 0 verdict ok (or improvements only), 1 regression found,
2 usage error / artifacts missing.  The verdict JSON carries every
compared leaf, so CI can render the diff without re-running anything.

Re-baselining: when a deliberate change moves the numbers, regenerate
with ``REPRO_BENCH_DIR=benchmarks/baselines pytest benchmarks/ -k
"not test_bench_"`` on a quiet machine and commit the diff — the verdict
output of the failing run belongs in the PR description.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Dict, Iterator, List, Tuple

# continuous leaves: relative multiplier + absolute slack (noise floor
# for sub-10ms phases where a scheduler hiccup dwarfs the signal)
DEFAULT_THRESHOLD = 1.75
DEFAULT_ABS_SLACK_MS = 25.0
# bucket-quantized percentile leaves (see module docstring)
DEFAULT_QUANTIZED_THRESHOLD = 2.6

_QUANTIZED_KEY = re.compile(r"^p\d+_ms$")


def _atomic_write_json(path: str, payload) -> None:
    """tmp + fsync + ``os.replace``, inlined to stay stdlib-only.

    (Mirrors :func:`repro.obs.atomic.atomic_write_json`; this script
    must run in CI without the package installed.)
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(
        directory, f".{os.path.basename(path)}.tmp.{os.getpid()}"
    )
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def is_quantized_key(key: str) -> bool:
    """True for histogram-quantile leaves (``p50_ms``, ``p99_ms``...)."""
    return bool(_QUANTIZED_KEY.match(key))


def latency_leaves(payload, prefix: str = "") -> Iterator[
    Tuple[str, str, float]
]:
    """Yield ``(path, key, value)`` for every scalar ``*_ms`` leaf.

    Recurses into dicts, and into lists only element-wise when the
    elements are dicts (the fig8 ``series`` rows) — raw sample arrays
    like ``latencies_ms`` are per-run noise, not comparable leaves.
    """
    if isinstance(payload, dict):
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else key
            if (
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and key.endswith("_ms")
            ):
                yield path, key, float(value)
            elif isinstance(value, (dict, list)):
                yield from latency_leaves(value, path)
    elif isinstance(payload, list):
        for i, item in enumerate(payload):
            if isinstance(item, dict):
                yield from latency_leaves(item, f"{prefix}[{i}]")


def work_leaves(payload, prefix: str = "") -> Iterator[Tuple[str, int]]:
    """Yield ``(path, count)`` for every counter under a ``work`` block.

    ``work`` subtrees hold the deterministic work counters; every
    numeric leaf beneath one is comparable, whatever its nesting
    (``work.totals.<name>``, ``work.by_kind.<kind>.<name>``).
    """
    if isinstance(payload, dict):
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else key
            if key == "work" and isinstance(value, dict):
                yield from _count_leaves(value, path)
            elif isinstance(value, (dict, list)):
                yield from work_leaves(value, path)
    elif isinstance(payload, list):
        for i, item in enumerate(payload):
            if isinstance(item, dict):
                yield from work_leaves(item, f"{prefix}[{i}]")


def _count_leaves(payload, prefix: str) -> Iterator[Tuple[str, int]]:
    if not isinstance(payload, dict):
        return
    for key, value in payload.items():
        path = f"{prefix}.{key}"
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            yield path, int(value)
        elif isinstance(value, dict):
            yield from _count_leaves(value, path)


def compare_work(
    baseline, current, name: str
) -> Tuple[List[Dict[str, object]], List[str]]:
    """Exact-equality comparison of the ``work`` counter leaves.

    Returns ``(records, problems)``.  Unlike the latency comparison
    there is no threshold: the counters are deterministic by contract,
    so the only acceptable diff is none.  A baseline that lacks the
    ``work`` block entirely (it predates the counters) is a problem
    with an explicit re-baseline instruction, not a silent pass.
    """
    base = dict(work_leaves(baseline))
    cur = dict(work_leaves(current))
    records: List[Dict[str, object]] = []
    problems: List[str] = []
    if cur and not base:
        problems.append(
            f"{name}: current run emits a 'work' counter block but the "
            "baseline has none — re-baseline needed (run "
            "REPRO_BENCH_DIR=benchmarks/baselines pytest benchmarks/ "
            "-k 'not test_bench_' and commit the refreshed BENCH_*.json)"
        )
        return records, problems
    for path, base_count in sorted(base.items()):
        record = {
            "leaf": path, "kind": "work", "threshold": "exact",
            "baseline_count": base_count,
            "current_count": cur.get(path),
        }
        if path not in cur:
            record["status"] = "missing"
        elif cur[path] != base_count:
            record["status"] = "regression"
        else:
            record["status"] = "ok"
        records.append(record)
    for path in sorted(set(cur) - set(base)):
        problems.append(
            f"{name}: work counter {path} is new in the current run — "
            "re-baseline needed to start gating it"
        )
    return records, problems


def compare_payloads(
    baseline,
    current,
    threshold: float = DEFAULT_THRESHOLD,
    abs_slack_ms: float = DEFAULT_ABS_SLACK_MS,
    quantized_threshold: float = DEFAULT_QUANTIZED_THRESHOLD,
) -> List[Dict[str, object]]:
    """Compare two bench payloads leaf-by-leaf.

    Returns one record per comparable leaf with its ``status``:
    ``ok`` / ``regression`` / ``improvement`` (the inverse bound) /
    ``missing`` (leaf vanished from the current run).
    """
    base_leaves = {
        path: (key, value) for path, key, value in latency_leaves(baseline)
    }
    cur_leaves = {
        path: (key, value) for path, key, value in latency_leaves(current)
    }
    records: List[Dict[str, object]] = []
    for path, (key, base_value) in sorted(base_leaves.items()):
        factor = (
            quantized_threshold if is_quantized_key(key) else threshold
        )
        if path not in cur_leaves:
            records.append({
                "leaf": path, "status": "missing",
                "baseline_ms": base_value, "current_ms": None,
                "threshold": factor,
            })
            continue
        cur_value = cur_leaves[path][1]
        limit = base_value * factor + abs_slack_ms
        if cur_value > limit:
            status = "regression"
        elif base_value > cur_value * factor + abs_slack_ms:
            status = "improvement"
        else:
            status = "ok"
        records.append({
            "leaf": path, "status": status,
            "baseline_ms": base_value, "current_ms": cur_value,
            "limit_ms": limit, "threshold": factor,
        })
    return records


def compare_dirs(
    baseline_dir: str,
    current_dir: str,
    threshold: float = DEFAULT_THRESHOLD,
    abs_slack_ms: float = DEFAULT_ABS_SLACK_MS,
    quantized_threshold: float = DEFAULT_QUANTIZED_THRESHOLD,
) -> Dict[str, object]:
    """The verdict document for two ``BENCH_*.json`` directories."""
    names = sorted(
        name for name in os.listdir(baseline_dir)
        if name.startswith("BENCH_") and name.endswith(".json")
    )
    benches: Dict[str, object] = {}
    problems: List[str] = []
    counts = {"ok": 0, "regression": 0, "improvement": 0, "missing": 0}
    for name in names:
        current_path = os.path.join(current_dir, name)
        if not os.path.exists(current_path):
            problems.append(f"current run produced no {name}")
            continue
        with open(os.path.join(baseline_dir, name), encoding="utf-8") as fh:
            baseline = json.load(fh)
        with open(current_path, encoding="utf-8") as fh:
            current = json.load(fh)
        records = compare_payloads(
            baseline, current,
            threshold=threshold, abs_slack_ms=abs_slack_ms,
            quantized_threshold=quantized_threshold,
        )
        if not records:
            problems.append(f"{name}: no comparable *_ms leaves")
        work_records, work_problems = compare_work(
            baseline, current, name
        )
        records.extend(work_records)
        problems.extend(work_problems)
        for record in records:
            counts[str(record["status"])] += 1
        benches[name] = records
    verdict = "ok"
    if counts["regression"] or counts["missing"] or problems:
        verdict = "regression" if counts["regression"] else "error"
    return {
        "verdict": verdict,
        "baseline_dir": baseline_dir,
        "current_dir": current_dir,
        "thresholds": {
            "continuous": threshold,
            "quantized": quantized_threshold,
            "abs_slack_ms": abs_slack_ms,
        },
        "counts": counts,
        "problems": problems,
        "benches": benches,
    }


def render(verdict: Dict[str, object]) -> str:
    """Human-readable summary of a verdict document."""
    lines = [
        f"== bench regression gate: {verdict['verdict']} "
        f"({verdict['counts']}) =="
    ]
    for name, records in sorted(verdict["benches"].items()):
        flagged = [
            r for r in records
            if r["status"] in ("regression", "missing", "improvement")
        ]
        lines.append(f"{name}: {len(records)} leaves, "
                     f"{len(flagged)} flagged")
        for r in flagged:
            if r.get("kind") == "work":
                cur = (
                    str(r["current_count"])
                    if r["current_count"] is not None else "gone"
                )
                lines.append(
                    f"  {r['status']:<11} {r['leaf']}: "
                    f"{r['baseline_count']} -> {cur} "
                    "(deterministic counter, exact match required)"
                )
                continue
            cur = (
                f"{r['current_ms']:.1f}" if r["current_ms"] is not None
                else "gone"
            )
            lines.append(
                f"  {r['status']:<11} {r['leaf']}: "
                f"{r['baseline_ms']:.1f} -> {cur} ms "
                f"(threshold x{r['threshold']})"
            )
    for problem in verdict["problems"]:
        lines.append(f"  problem: {problem}")
    return "\n".join(lines)


def main(argv=None) -> int:
    """CLI entry point; exit 0 ok, 1 regression, 2 usage/missing."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="directory of committed BENCH_*.json files")
    parser.add_argument("--current", required=True,
                        help="directory of freshly produced BENCH_*.json")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help="relative limit for continuous *_ms leaves")
    parser.add_argument("--quantized-threshold", type=float,
                        default=DEFAULT_QUANTIZED_THRESHOLD,
                        help="relative limit for pNN_ms histogram leaves")
    parser.add_argument("--abs-slack-ms", type=float,
                        default=DEFAULT_ABS_SLACK_MS,
                        help="absolute slack added to every limit")
    parser.add_argument("--out", default=None,
                        help="write the verdict JSON here")
    args = parser.parse_args(argv)
    for label, path in (("baseline", args.baseline),
                        ("current", args.current)):
        if not os.path.isdir(path):
            print(f"error: {label} directory {path!r} does not exist",
                  file=sys.stderr)
            return 2
    verdict = compare_dirs(
        args.baseline, args.current,
        threshold=args.threshold,
        abs_slack_ms=args.abs_slack_ms,
        quantized_threshold=args.quantized_threshold,
    )
    if args.out:
        _atomic_write_json(args.out, verdict)
    print(render(verdict))
    if verdict["verdict"] == "ok":
        return 0
    if verdict["verdict"] == "regression":
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
