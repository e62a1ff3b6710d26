"""Build-time instrumentation for Figures 8–10.

The paper splits the total CAD View construction time into three parts
(Fig. 8): time to compute Compare Attributes, time to generate IUnits,
and "others" (top-k ranking, IUnit and attribute-value similarity).
:class:`BuildProfile` records exactly those buckets.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator

__all__ = ["BuildProfile"]


@dataclass
class BuildProfile:
    """Wall-clock seconds per build phase."""

    compare_attrs_s: float = 0.0
    iunits_s: float = 0.0
    others_s: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        """Sum of the three buckets (the paper's 'total time')."""
        return self.compare_attrs_s + self.iunits_s + self.others_s

    def record(self, bucket: str, elapsed: float) -> None:
        """Accumulate ``elapsed`` seconds into ``bucket``.

        ``bucket`` is one of ``compare_attrs`` / ``iunits`` / ``others``;
        any other name lands in :attr:`extra` under an explicit
        ``time/`` namespace, so time buckets can never collide with the
        ``count/`` buckets written by :meth:`count` (event counts used
        to silently conflate with seconds here).
        """
        if bucket == "compare_attrs":
            self.compare_attrs_s += elapsed
        elif bucket == "iunits":
            self.iunits_s += elapsed
        elif bucket == "others":
            self.others_s += elapsed
        else:
            if not bucket.startswith(("time/", "count/")):
                bucket = f"time/{bucket}"
            self.extra[bucket] = self.extra.get(bucket, 0.0) + elapsed

    def count(self, name: str, n: float = 1) -> None:
        """Accumulate an event count (not seconds) into ``extra``.

        Counts live under ``count/`` (e.g. the builder's clustering
        ``count/retries``), keeping them distinct from the ``time/``
        buckets :meth:`record` writes.
        """
        key = name if name.startswith("count/") else f"count/{name}"
        self.extra[key] = self.extra.get(key, 0.0) + n

    @contextmanager
    def timed(self, bucket: str) -> Iterator[None]:
        """Accumulate the elapsed time of the with-block into ``bucket``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(bucket, time.perf_counter() - start)

    def phases_ms(self) -> Dict[str, float]:
        """The three buckets in milliseconds (a worklog's ``phases_ms``)."""
        return {
            "compare_attrs": self.compare_attrs_s * 1e3,
            "iunits": self.iunits_s * 1e3,
            "others": self.others_s * 1e3,
        }

    def as_dict(self) -> Dict[str, float]:
        """All buckets plus the total, as a plain dict."""
        out = {
            "compare_attrs_s": self.compare_attrs_s,
            "iunits_s": self.iunits_s,
            "others_s": self.others_s,
            "total_s": self.total_s,
        }
        out.update(self.extra)
        return out

    def __str__(self) -> str:
        return (
            f"compare_attrs={self.compare_attrs_s * 1e3:.1f}ms "
            f"iunits={self.iunits_s * 1e3:.1f}ms "
            f"others={self.others_s * 1e3:.1f}ms "
            f"total={self.total_s * 1e3:.1f}ms"
        )
