"""Small-size smoke tests of the benchmark itself.

Run from the root of a checkout: ``python3 -m pytest perfbench``.  A
reference is generated at 3,000 rows into ``.perfbench_out/tests`` and
each workload is driven for a second against it.
"""

from __future__ import annotations

import copy
import json
import multiprocessing
import os
import shutil
from multiprocessing import resource_tracker

import pytest

from perfbench import run as cli

cli._use_checkout()

from perfbench import layers, pool, runner  # noqa: E402
from perfbench import workloads as W  # noqa: E402
from perfbench.reference import write_reference  # noqa: E402

OUT = os.path.join(cli.ROOT, ".perfbench_out", "tests")


@pytest.fixture(scope="module")
def small_reference():
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    path = os.path.join(OUT, "reference.json")
    write_reference(path, rows=3000, builds=20, episodes=20)
    yield path
    shutil.rmtree(OUT, ignore_errors=True)


def _context(workload, path, reference=None):
    return W.Context(
        workload=workload, seed=5, seconds=1.0, root=cli.ROOT,
        reference=reference or pool.load_reference(path), out_dir=OUT,
        probes=1, reference_path=path,
    )


def _benchmark_json():
    with open(os.path.join(cli.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_the_metrics_the_runs_emit():
    spec = _benchmark_json()
    assert [m["name"] for m in spec["end_to_end"]] == list(runner.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        runner.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(small_reference, workload):
    correct, attempted, failed, metrics, report = runner.run_untraced(
        _context(workload, small_reference))
    assert correct, report["checks"]
    assert attempted > 0 and failed == 0
    units = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert set(metrics) == set(units)
    for name, metric in metrics.items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name
        assert report["end_to_end"][name]["samples"] >= 1
    if workload == "build-worstcase":  # the small explore pool wraps
        assert report["predicates"]["build_repeat_share"] == 0.0


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_unwraps(
        small_reference, workload):
    spans = os.path.join(OUT, f"spans-{workload}.jsonl")
    correct, _, failed, metrics, report = runner.run_traced(
        _context(workload, small_reference), spans)
    assert correct, report["checks"]
    assert failed == 0
    assert layers.wrapped_targets() == []
    assert {k: v["unit"] for k, v in metrics.items()} == \
        runner.per_layer_units()
    assert os.path.getsize(spans) > 0
    if workload != "explore-procs-wal":
        assert metrics["core.execute_self_ms"]["value"] > 0
    else:
        assert metrics["wal.fsyncs_per_mutation"]["value"] > 0
        assert metrics["wal.recovered_records"]["value"] > 0


def test_wrappers_are_restored_when_the_traced_pass_raises(
        small_reference, monkeypatch):
    real_drive = W.drive

    def failing_drive(*args, **kwargs):
        if layers.wrapped_targets():
            raise RuntimeError("client failure")
        return real_drive(*args, **kwargs)

    monkeypatch.setattr(W, "drive", failing_drive)
    with pytest.raises(RuntimeError, match="client failure"):
        runner.run_traced(_context("build-worstcase", small_reference),
                          os.path.join(OUT, "spans-raise.jsonl"))
    assert layers.wrapped_targets() == []


def test_a_tampered_digest_fails_the_check(small_reference):
    reference = copy.deepcopy(pool.load_reference(small_reference))
    for build in reference["worstcase"]["builds"]:
        build["digest"] = "0" * 16
    correct, _, failed, _, report = runner.run_untraced(
        _context("build-worstcase", small_reference, reference))
    assert not correct
    assert failed == 0
    assert report["checks"]["statements"]["digest_mismatch_count"] > 0


def test_no_process_outlives_a_worker_process_run(small_reference):
    runner.run_untraced(_context("explore-procs-wal", small_reference))
    W.end_helper_processes()
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._fd is None
