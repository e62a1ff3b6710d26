#!/usr/bin/env python3
"""The repo benchmark: closed-loop SQL workloads against DBExplorer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload build-worstcase --seed 1 \
        --seconds 10 --trace 0

Workloads: ``build-worstcase``, ``explore-threads``,
``explore-procs-wal`` (see ``perfbench/workloads.py``).  With
``--trace 0`` the run measures the end-to-end metrics with no
instrumentation; with ``--trace 1`` it times each layer through
wrappers installed for a second pass.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the full report (sample counts, output checks,
build sizes, predicate reuse), which is also written under
``.perfbench_out/``.

``--write-reference`` regenerates ``perfbench/reference.json``, the
statement pools and the answers every run is checked against.  Do that
only when a change is meant to alter results or work counters.

The benchmark's own tests: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(ROOT, "perfbench", "reference.json")


def _use_checkout() -> None:
    """Import the program from this checkout's ``src``, or fail."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program under {src}; "
                 "run from the root of a full checkout")
    for path in (src, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def _args(argv=None) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="regenerate perfbench/reference.json and exit")
    ap.add_argument("--probe", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (args.workload or args.write_reference or args.probe):
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    _use_checkout()
    args = _args(argv)
    from perfbench import workloads

    try:
        return _main(args)
    finally:
        workloads.end_helper_processes()


def _main(args: argparse.Namespace) -> int:
    from perfbench import pool, runner, workloads

    if args.write_reference:
        from perfbench.reference import write_reference

        write_reference(REFERENCE)
        return 0
    if args.probe:
        print(json.dumps(workloads.probe_main(json.loads(args.probe))))
        return 0
    os.makedirs(OUT_DIR, exist_ok=True)
    ctx = workloads.Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        root=ROOT, reference=pool.load_reference(REFERENCE),
        out_dir=OUT_DIR, reference_path=REFERENCE,
    )
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = runner.run_traced(
            ctx, os.path.join(OUT_DIR, f"spans-{stem}.jsonl"))
    else:
        result = runner.run_untraced(ctx)
    correct, attempted, failed, metrics, report = result
    report = dict(report, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  clients=workloads.CLIENTS[args.workload])
    with open(os.path.join(OUT_DIR, f"report-{stem}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    print(json.dumps(report, default=str))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
