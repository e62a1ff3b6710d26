"""Standard k-means (Lloyd's algorithm with k-means++ seeding).

The paper uses Weka's SimpleKMeans "since both efficiency and quality
are major concerns" (Sec. 3.1.2).  This is the numpy equivalent:
k-means++ initialization, vectorized assignment via the expanded
squared-distance identity, empty-cluster reseeding to the farthest
points, and a relative-improvement stopping rule.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import QueryError
from repro.obs import work
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["KMeansResult", "KMeans"]


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of one k-means fit."""

    labels: np.ndarray      # (n,) int32 cluster assignment
    centers: np.ndarray     # (k, d) float64 centroids
    inertia: float          # sum of squared distances to assigned centers
    n_iter: int             # Lloyd iterations executed

    @property
    def k(self) -> int:
        """The number of clusters actually fit."""
        return self.centers.shape[0]

    def cluster_sizes(self) -> np.ndarray:
        """(k,) tuple counts per cluster."""
        return np.bincount(self.labels, minlength=self.k)


def _row_sq_norms(X: np.ndarray) -> np.ndarray:
    """(n, 1) squared row norms |x|^2, computed once per fit."""
    return np.einsum("ij,ij->i", X, X)[:, None]


def _pairwise_sq_dists(
    X: np.ndarray, C: np.ndarray, x2: np.ndarray, n: int
) -> np.ndarray:
    """(u, k) squared Euclidean distances via |x|^2 - 2xC' + |c|^2.

    ``X`` holds the u rows that the ``n`` clustered rows map to, and
    ``x2`` is :func:`_row_sq_norms` of ``X``; the rows never change
    within a fit, so seeding and every Lloyd iteration share it.  The
    work counter charges n·k: it counts the algorithm's distances, not
    the rows this kernel happens to compute them for.
    """
    work.add("work.cluster.distance_evals", n * C.shape[0])
    c2 = np.einsum("ij,ij->i", C, C)[None, :]
    d = x2 - 2.0 * (X @ C.T) + c2
    np.maximum(d, 0.0, out=d)
    return d


def _assign(
    X: np.ndarray, C: np.ndarray, x2: np.ndarray, inverse: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(n,) int32 nearest-center labels and (n,) squared distances.

    Computed once per distinct row of ``X`` and broadcast to the n rows
    through ``inverse``; a row's argmin depends on its distances alone.
    """
    d = _pairwise_sq_dists(X, C, x2, inverse.shape[0])
    near = d.argmin(axis=1).astype(np.int32)
    nearest = d[np.arange(X.shape[0]), near]
    return near[inverse], nearest[inverse]


def _cells(
    X: np.ndarray, inverse: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major nonzero cells ``(row, column, value)`` of ``X[inverse]``.

    The same list as ``np.nonzero(X[inverse])``, built from the nonzero
    cells of the distinct rows without expanding them: cell i of row r
    is cell i of row ``inverse[r]`` of ``X``.  Indices are int32.
    """
    urows, ucols = np.nonzero(X)
    per_row = np.bincount(urows, minlength=X.shape[0])
    counts = per_row[inverse]
    rows = np.repeat(np.arange(inverse.shape[0], dtype=np.int32), counts)
    first = np.cumsum(per_row) - per_row      # in X's cell list
    start = np.cumsum(counts) - counts        # in the expanded list
    src = np.arange(rows.shape[0]) + np.repeat(first[inverse] - start, counts)
    return rows, ucols[src].astype(np.int32), X[urows, ucols][src]


class KMeans:
    """Lloyd's k-means with k-means++ seeding.

    Parameters
    ----------
    n_clusters:
        Number of clusters (the paper's ``l`` candidate IUnits).
    max_iter:
        Iteration cap; the interactive setting favors small caps.
    tol:
        Relative inertia improvement below which we stop.
    seed:
        RNG seed for reproducible views.
    """

    def __init__(
        self,
        n_clusters: int,
        max_iter: int = 50,
        tol: float = 1e-4,
        seed: int = 0,
    ):
        if n_clusters < 1:
            raise QueryError(f"n_clusters must be >= 1, got {n_clusters}")
        self.n_clusters = n_clusters
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed

    # -- seeding ---------------------------------------------------------

    def _init_centers(
        self,
        X: np.ndarray,
        x2: np.ndarray,
        inverse: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """k-means++: spread seeds proportionally to squared distance.

        Draws are over the n rows ``X[inverse]``, so a distinct row is
        as likely as all its copies together.
        """
        n = inverse.shape[0]
        k = min(self.n_clusters, n)
        centers = np.empty((k, X.shape[1]))
        first = int(rng.integers(n))
        centers[0] = X[inverse[first]]
        closest = _pairwise_sq_dists(X, centers[:1], x2, n).ravel()
        for j in range(1, k):
            expanded = closest[inverse]
            total = expanded.sum()
            if total <= 0:
                # all points coincide with chosen centers; fill uniformly
                centers[j:] = X[inverse[rng.integers(n, size=k - j)]]
                break
            probs = expanded / total
            idx = int(rng.choice(n, p=probs))
            centers[j] = X[inverse[idx]]
            closest = np.minimum(
                closest,
                _pairwise_sq_dists(X, centers[j:j + 1], x2, n).ravel(),
            )
        return centers

    # -- fitting ------------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        checkpoint: Optional[Callable[[], None]] = None,
        tracer: Optional[Tracer] = None,
        inverse: Optional[np.ndarray] = None,
    ) -> KMeansResult:
        """Cluster the rows of ``X[inverse]``.

        ``inverse`` maps each of the n rows to cluster to a row of
        ``X``; ``None`` is the identity, clustering the rows of ``X``.
        Passing an :class:`~repro.clustering.encoding.Encoding`'s
        ``rows`` and ``inverse`` computes each distance once per
        distinct row.  Everything that depends on row order — the
        k-means++ draws, the inertia sum, the centroid sums and
        empty-cluster reseeding — runs over the n rows, so the result
        is that of clustering ``X[inverse]`` directly (DESIGN ch. 15
        states the one BLAS caveat).

        If there are fewer rows than clusters, every row becomes its own
        cluster (k is clamped, with a warning — tiny pivot partitions
        are routine, not an error).  ``checkpoint`` is called once per
        Lloyd iteration; a budgeted caller passes a deadline check that
        raises :class:`~repro.errors.BudgetExceededError`.  A ``tracer``
        gains a ``kmeans`` span recording n, the ``distinct`` rows
        distances were computed for, iterations, empty-cluster reseeds
        and convergence.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise QueryError(f"X must be 2-D, got shape {X.shape}")
        u = X.shape[0]
        if inverse is None:
            inverse = np.arange(u)
        else:
            inverse = np.asarray(inverse)
            if inverse.ndim != 1 or inverse.dtype.kind not in "iu" or (
                inverse.size
                and not 0 <= inverse.min() <= inverse.max() < u
            ):
                raise QueryError(
                    f"inverse must be a 1-D index array into {u} rows"
                )
        n = inverse.shape[0]
        if n == 0:
            raise QueryError("cannot cluster zero rows")
        rng = rng or np.random.default_rng(self.seed)
        if self.n_clusters > n:
            warnings.warn(
                f"n_clusters={self.n_clusters} > n_samples={n}; "
                f"clamping to {n} singleton clusters",
                UserWarning,
                stacklevel=2,
            )
        k = min(self.n_clusters, n)
        tracer = tracer or NULL_TRACER

        with tracer.span(
            "kmeans", n=n, distinct=u, d=int(X.shape[1]), k=k
        ) as span:
            x2 = _row_sq_norms(X)
            centers = self._init_centers(X, x2, inverse, rng)
            # centroid sums as one bincount over the nonzero cells, keyed
            # (label, column); the cells are row-major and bincount adds
            # in index order, so each cell sums the same floats in the
            # same order as np.add.at(sums, labels, X[inverse]) would.
            # int32 keys cannot overflow: k * d >= 2**31 needs a centers
            # array of at least 16 GiB
            d = X.shape[1]
            rows, cols, vals = _cells(X, inverse)
            labels = np.zeros(n, dtype=np.int32)
            prev_inertia = np.inf
            converged = False
            n_iter = 0
            for n_iter in range(1, self.max_iter + 1):
                if checkpoint is not None:
                    checkpoint()
                span.inc("iterations")
                work.add("work.cluster.iterations")
                labels, nearest = _assign(X, centers, x2, inverse)
                inertia = float(nearest.sum())

                # recompute centroids; reseed empties to farthest points
                counts = np.bincount(labels, minlength=k).astype(np.float64)
                keys = labels[rows]
                keys *= d
                keys += cols
                # bincount of no cells at all (X == 0) returns int64
                sums = np.bincount(
                    keys, weights=vals, minlength=k * d
                ).astype(np.float64, copy=False).reshape(k, d)
                empty = counts == 0
                if empty.any():
                    span.inc("reseeds", int(empty.sum()))
                    work.add("work.cluster.reseeds", int(empty.sum()))
                    far = np.argsort(nearest)[::-1]
                    replacements = iter(far)
                    for j in np.flatnonzero(empty):
                        idx = next(replacements)
                        sums[j] = X[inverse[idx]]
                        counts[j] = 1.0
                centers = sums / counts[:, None]

                if np.isfinite(prev_inertia) and (
                    prev_inertia - inertia
                    <= self.tol * max(prev_inertia, 1e-12)
                ):
                    converged = True
                    break
                prev_inertia = inertia

            # final assignment against the final centers
            labels, nearest = _assign(X, centers, x2, inverse)
            inertia = float(nearest.sum())
            span.set_attr("converged", converged)
            span.set_attr("inertia", round(inertia, 6))
        return KMeansResult(labels, centers, inertia, n_iter)
