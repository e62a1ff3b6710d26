"""Encodings that turn discretized tuples into clusterable vectors.

The paper clusters each pivot value's tuples "using only the
above-chosen Compare Attributes" (Sec. 3.1.2) with standard k-means.
k-means needs numeric vectors, so the discretized (all-categorical)
tuples are one-hot encoded: one indicator block per Compare Attribute.

Each block is optionally scaled by ``1 / sqrt(2)`` per attribute so that
two tuples differing in one attribute are at distance 1 regardless of
that attribute's cardinality — without this, high-cardinality attributes
neither gain nor lose weight, which keeps the clustering aligned with
the labeling step (which treats attributes uniformly).

Discretized tuples repeat heavily (a partition's rows typically hold a
third as many distinct code combinations), so the encoding keeps each
distinct one-hot row once plus an ``inverse`` map from tuples to rows;
k-means computes one distance per distinct row (DESIGN ch. 15).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.discretize.discretizer import DiscretizedView
from repro.errors import QueryError

__all__ = ["Encoding", "one_hot_encode"]


@dataclass(frozen=True)
class Encoding:
    """A one-hot encoding of some view rows, stored as its distinct rows.

    Attributes
    ----------
    rows:
        (u, total_width) float64 matrix of the u distinct encoded rows;
        no two are equal.
    inverse:
        (n_rows,) map from each view row to its row of ``rows``.
    names:
        The encoded attribute names, in block order.
    offsets:
        Start column of each attribute's block; ``offsets[name] + code``
        is the column of a specific attribute value.
    widths:
        Number of columns per attribute (its code-domain size).
    """

    rows: np.ndarray
    inverse: np.ndarray
    names: Tuple[str, ...]
    offsets: Dict[str, int]
    widths: Dict[str, int]

    @property
    def matrix(self) -> np.ndarray:
        """(n_rows, total_width) dense design matrix, ``rows[inverse]``.

        Built on every access; k-means takes ``rows`` and ``inverse``.
        """
        return self.rows[self.inverse]

    def column_of(self, name: str, code: int) -> int:
        """Design-matrix column of (attribute, code)."""
        if name not in self.offsets:
            raise QueryError(f"{name!r} not encoded")
        if not 0 <= code < self.widths[name]:
            raise QueryError(f"code {code} out of range for {name!r}")
        return self.offsets[name] + code

    def block(self, centers: np.ndarray, name: str) -> np.ndarray:
        """The slice of ``centers`` columns belonging to ``name``."""
        start = self.offsets[name]
        return centers[:, start:start + self.widths[name]]


_KEY_LIMIT = np.iinfo(np.int64).max


def one_hot_encode(
    view: DiscretizedView,
    names: Sequence[str],
    scale: bool = True,
) -> Encoding:
    """One-hot encode ``names`` over all rows of ``view``.

    Missing codes contribute an all-zero block.  With ``scale=True`` the
    two indicator entries that differ between tuples disagreeing on one
    attribute contribute exactly 1.0 to squared distance.

    Tuples with equal codes on every name share one encoded row: each
    tuple's codes form a mixed-radix int64 key (digit ``code + 1`` in
    base ``width + 1``), and ``np.unique`` over the keys gives the
    distinct rows and the inverse map.  When the next digit could
    overflow int64, the keys are first re-densified to their ranks.
    """
    names = tuple(names)
    if not names:
        raise QueryError("cannot encode zero attributes")
    n = len(view)
    widths = {name: view.ncodes(name) for name in names}
    offsets: Dict[str, int] = {}
    total = 0
    for name in names:
        offsets[name] = total
        total += max(1, widths[name])
    key = np.zeros(n, dtype=np.int64)
    top = 0  # an upper bound on key
    for name in names:
        radix = widths[name] + 1
        if top > (_KEY_LIMIT - radix + 1) // radix:
            key = np.unique(key, return_inverse=True)[1].astype(np.int64)
            top = n
        key *= radix
        key += view.codes(name) + 1
        top = top * radix + radix - 1
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    u = len(first)
    rows = np.zeros((u, total), dtype=np.float64)
    value = 1.0 / np.sqrt(2.0) if scale else 1.0
    at = np.arange(u)
    for name in names:
        codes = view.codes(name)[first]
        valid = codes >= 0
        rows[at[valid], offsets[name] + codes[valid]] = value
    return Encoding(rows, inverse, names, offsets, widths)
