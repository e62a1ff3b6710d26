"""Per-layer timing for the traced run: wrappers the benchmark installs.

The program is not instrumented for this; the benchmark wraps the
public functions each layer exposes, records one span per call in
memory, and takes every wrapper out again when the traced phase ends.
A span knows the span that was open on its thread when it started, so
a layer's *self time* is its spans' durations minus the time their
child spans cover — a build's self time excludes the kernels it calls.

Wrapping only sees calls made in this process: under the worker-process
backend the query and kernel layers run in the workers and read 0.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (module, class or None, attribute, layer).  Functions imported by name
# into other modules are replaced in every repro module that holds them.
TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.core.explorer", "DBExplorer", "execute", "core.execute"),
    ("repro.query.parser", None, "parse", "query.parse"),
    ("repro.query.analyzer", "Analyzer", "analyze", "query.analyze"),
    ("repro.query.engine", "QueryEngine", "select", "query.engine"),
    ("repro.query.engine", "QueryEngine", "order_by", "query.engine"),
    ("repro.core.builder", "CADViewBuilder", "build", "core.build"),
    ("repro.discretize.discretizer", "Discretizer", "fit", "discretize.fit"),
    ("repro.features.selection", None, "select_compare_attributes",
     "features.select"),
    ("repro.clustering.encoding", None, "one_hot_encode", "clustering.encode"),
    ("repro.clustering.kmeans", "KMeans", "fit", "clustering.kmeans"),
    ("repro.iunits.labeling", None, "build_iunits", "iunits.label"),
    ("repro.iunits.diversify", None, "diversified_topk", "iunits.topk"),
    ("repro.iunits.diversify", None, "similarity_graph", "iunits.simgraph"),
    ("repro.core.cadview", "CADView", "similar_iunits", "iunits.similarity"),
    ("repro.core.cadview", "CADView", "reorder_by_similarity",
     "iunits.similarity"),
    ("repro.serve.durability.wal", "WalWriter", "commit", "wal.commit"),
    ("repro.serve.durability.records", None, "encode_record", "wal.encode"),
)


class SpanRecorder:
    """Spans kept in memory: ``(id, parent, layer, thread, start, end, size)``.

    ``size`` is ``len()`` of the call's return value for layers that
    produce bytes (the WAL record encoder), else ``None``.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, int, float, float, Optional[int]]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() is atomic under the GIL

    def wrap(self, fn: Callable, layer: str, sized: bool) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            recorder.spans.append((
                span_id, parent, layer, threading.get_ident(), start, end,
                len(out) if sized else None,
            ))
            return out

        wrapper.__perfbench_original__ = fn
        return wrapper

    def self_times(self) -> Dict[str, float]:
        """Layer -> total self time in seconds."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end, _ in self.spans:
            if parent:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for span_id, _, layer, _, start, end, _ in self.spans:
            totals[layer] += (end - start) - child_time[span_id]
        return dict(totals)

    def calls(self, layer: str) -> List[Tuple[float, float, Optional[int], int]]:
        """``(start, end, size, parent)`` of every span of ``layer``."""
        return [(s, e, size, parent)
                for _, parent, name, _, s, e, size in self.spans
                if name == layer]

    def write(self, path: str) -> None:
        """Dump the spans as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, layer, thread, start, end, size in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "layer": layer,
                    "thread": thread, "start_s": start, "end_s": end,
                    "size": size,
                }) + "\n")


class Installed:
    """The wrappers in place, and what to put back on :meth:`restore`."""

    def __init__(self) -> None:
        self.saved: List[Tuple[object, str, object]] = []

    def restore(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def install(recorder: SpanRecorder) -> Installed:
    """Wrap every target; the caller must :meth:`Installed.restore`."""
    installed = Installed()
    try:
        for module_name, cls_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            sized = layer == "wal.encode"
            if cls_name is not None:
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(recorder.wrap(raw.__func__, layer, sized))
                else:
                    new = recorder.wrap(raw, layer, sized)
                installed.saved.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            original = getattr(module, attr)
            wrapper = recorder.wrap(original, layer, sized)
            for name, mod in list(sys.modules.items()):
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                if getattr(mod, attr, None) is original:
                    installed.saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
    except BaseException:
        installed.restore()
        raise
    return installed


def wrapped_targets() -> List[str]:
    """Targets that currently hold a wrapper (empty after ``restore``)."""
    out = []
    for module_name, cls_name, attr, _ in TARGETS:
        module = importlib.import_module(module_name)
        if cls_name is not None:
            raw = getattr(module, cls_name).__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if hasattr(fn, "__perfbench_original__"):
                out.append(f"{module_name}.{cls_name}.{attr}")
            continue
        for name, mod in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and hasattr(
                getattr(mod, attr, None), "__perfbench_original__"
            ):
                out.append(f"{name}.{attr}")
    return out
