"""Differential oracles for the vectorized CAD View kernels.

Each optimized kernel is compared against a naive reference kept here,
written the straightforward way, on adversarial inputs:

* ``KMeans.fit`` (one ``bincount`` centroid update, shared ``|x|^2``)
  against a Lloyd loop that sums centroids with ``np.add.at`` and
  recomputes ``|x|^2`` on every distance call.  Results must be equal
  to the byte: labels, center bytes, inertia, iteration count.  The
  distinct-row form ``fit(Xu, inverse=inv)`` is held to the same loop
  over ``Xu[inv]`` whose distances are ``_reference_sq_dists(Xu, C)[inv]``.
* ``one_hot_encode``'s distinct rows and inverse against the dense
  one-hot matrix it used to build.
* ``contingency_table`` and ``chi_square_test`` against a double loop
  over the Sec. 3.1.1 definitions: integer cells exactly, the
  statistic within ``CHI2_RTOL``.
* ``Discretizer.fit``'s occupancy mask for categorical codes against a
  Python set over the codes.  Codes and labels must be equal.
* ``similarity_graph`` (one Gram matrix per Compare Attribute) against
  the pairwise Algorithm 1 loop over ``iunit_similarity``.  The BLAS
  product may round differently in the last ulp, so a pair whose
  reference similarity lies within ``TIE_EPS`` of ``tau`` may land on
  either side; every other pair must agree.

The work-counter contracts of the rewritten kernels are pinned here too.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clustering.encoding import one_hot_encode
from repro.clustering.kmeans import KMeans
from repro.dataset import AttrKind, Attribute
from repro.dataset.column import Column
from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.discretize import Discretizer
from repro.errors import CADViewError, QueryError
from repro.features.chi2 import chi2_sf, chi_square_test
from repro.features.contingency import contingency_table
from repro.iunits import IUnit, iunit_similarity, similarity_graph
from repro.obs import work

TIE_EPS = 1e-9

ORACLE = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ------------------------------------------------------------------ k-means

def _reference_sq_dists(X, C):
    x2 = np.einsum("ij,ij->i", X, X)[:, None]
    c2 = np.einsum("ij,ij->i", C, C)[None, :]
    d = x2 - 2.0 * (X @ C.T) + c2
    np.maximum(d, 0.0, out=d)
    return d


def _reference_kmeans(X, n_clusters, max_iter=50, tol=1e-4, seed=0,
                      sq_dists=_reference_sq_dists):
    """Lloyd's k-means with k-means++ seeding, centroids via np.add.at.

    ``sq_dists(X, C)`` gives the (n, k) distances; the distinct-row
    oracle substitutes one that computes them over the distinct rows.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    k = min(n_clusters, n)

    centers = np.empty((k, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    closest = sq_dists(X, centers[:1]).ravel()
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[j:] = X[rng.integers(n, size=k - j)]
            break
        centers[j] = X[int(rng.choice(n, p=closest / total))]
        closest = np.minimum(
            closest, sq_dists(X, centers[j:j + 1]).ravel()
        )

    prev_inertia = np.inf
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        dists = sq_dists(X, centers)
        labels = dists.argmin(axis=1).astype(np.int32)
        inertia = float(dists[np.arange(n), labels].sum())
        counts = np.bincount(labels, minlength=k).astype(np.float64)
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, X)
        empty = counts == 0
        if empty.any():
            far = iter(np.argsort(dists[np.arange(n), labels])[::-1])
            for j in np.flatnonzero(empty):
                sums[j] = X[next(far)]
                counts[j] = 1.0
        centers = sums / counts[:, None]
        if np.isfinite(prev_inertia) and (
            prev_inertia - inertia <= tol * max(prev_inertia, 1e-12)
        ):
            break
        prev_inertia = inertia

    dists = sq_dists(X, centers)
    labels = dists.argmin(axis=1).astype(np.int32)
    inertia = float(dists[np.arange(n), labels].sum())
    return labels, centers, inertia, n_iter


def _fit(X, k, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # k > n clamps
        return KMeans(k, seed=seed).fit(X)


def _assert_same_fit(X, k, seed):
    got = _fit(X, k, seed)
    labels, centers, inertia, n_iter = _reference_kmeans(X, k, seed=seed)
    assert np.array_equal(got.labels, labels)
    assert got.labels.dtype == labels.dtype
    assert got.centers.shape == centers.shape
    assert got.centers.tobytes() == centers.tobytes()
    assert got.inertia == inertia or (
        np.isnan(got.inertia) and np.isnan(inertia)
    )
    assert got.n_iter == n_iter


@st.composite
def one_hot_inputs(draw):
    """Scaled one-hot code matrices as the encoder emits them: -1 codes
    (missing) give all-zero blocks; rows may repeat or be all-missing."""
    n = draw(st.integers(1, 40))
    widths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    style = draw(st.sampled_from(["random", "identical", "all-missing"]))
    X = np.zeros((n, sum(widths)))
    offset = 0
    for w in widths:
        if style == "identical":
            codes = np.full(n, draw(st.integers(-1, w - 1)))
        elif style == "all-missing":
            codes = np.full(n, -1)
        else:
            codes = np.array(draw(st.lists(
                st.integers(-1, w - 1), min_size=n, max_size=n)))
        valid = codes >= 0
        X[np.flatnonzero(valid), offset + codes[valid]] = 1.0 / np.sqrt(2.0)
        offset += w
    return X


finite = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_subnormal=True,
)


@st.composite
def dense_inputs(draw):
    """Arbitrary bounded floats, zeros and subnormals included."""
    n = draw(st.integers(1, 25))
    d = draw(st.integers(1, 6))
    cells = draw(st.lists(
        st.one_of(finite, st.just(0.0), st.just(-0.0), st.just(5e-324)),
        min_size=n * d, max_size=n * d,
    ))
    return np.array(cells, dtype=np.float64).reshape(n, d)


class TestKMeansOracle:
    @ORACLE
    @given(one_hot_inputs(), st.integers(1, 12), st.integers(0, 2**16))
    def test_one_hot_rows_fit_identically(self, X, k, seed):
        _assert_same_fit(X, k, seed)

    @ORACLE
    @given(dense_inputs(), st.integers(1, 8), st.integers(0, 2**16))
    def test_dense_rows_fit_identically(self, X, k, seed):
        _assert_same_fit(X, k, seed)

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_k_exceeds_n(self, k):
        X = np.eye(2)[[0, 1]]
        _assert_same_fit(X, k + 2, seed=k)

    def test_single_row_partition(self):
        _assert_same_fit(np.array([[0.0, 0.7, 0.0, 0.7]]), 6, seed=1)

    def test_all_identical_rows(self):
        _assert_same_fit(np.tile([0.7, 0.0, 0.7], (30, 1)), 6, seed=2)

    def test_every_attribute_missing(self):
        _assert_same_fit(np.zeros((12, 5)), 4, seed=3)

    def test_reseeded_negative_zero_row_keeps_its_sign(self):
        # no nonzero cell at all: the centroid sums must still be floats
        _assert_same_fit(np.array([[0.0], [-0.0]]), 2, seed=0)

    def test_distance_evals_unchanged_for_a_fixed_fit(self):
        # seeding computes one n x 1 distance per chosen seed after the
        # first; each Lloyd iteration and the final assignment one n x k
        rng = np.random.default_rng(11)
        X = rng.integers(0, 2, size=(200, 9)).astype(float)
        with work.track() as counters:
            result = KMeans(4, seed=5).fit(X)
        n, k = X.shape[0], result.k
        expected = n * k + (result.n_iter + 1) * n * k
        assert counters.as_dict()["work.cluster.distance_evals"] == expected
        assert (expected, result.n_iter) == (7200, 7)  # pre-bincount fit


# ------------------------------------------------- k-means, distinct rows

def _assert_same_distinct_fit(Xu, inverse, k, seed):
    """``fit(Xu, inverse=inverse)`` equals the reference Lloyd loop over
    ``Xu[inverse]`` that takes each distance from ``Xu``'s rows."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # k > n clamps
        got = KMeans(k, seed=seed).fit(Xu, inverse=inverse)
    labels, centers, inertia, n_iter = _reference_kmeans(
        Xu[inverse], k, seed=seed,
        sq_dists=lambda X, C: _reference_sq_dists(Xu, C)[inverse],
    )
    assert np.array_equal(got.labels, labels)
    assert got.labels.dtype == labels.dtype
    assert got.centers.tobytes() == centers.tobytes()
    assert got.inertia == inertia or (
        np.isnan(got.inertia) and np.isnan(inertia)
    )
    assert got.n_iter == n_iter
    return got


def _unique_rows(X):
    Xu, inverse = np.unique(X, axis=0, return_inverse=True)
    return Xu, inverse.ravel()


@st.composite
def distinct_row_inputs(draw):
    """``(Xu, inverse)`` of one-hot rows, as the encoder emits them.
    Half the cases repeat 1-3 patterns over up to 60 rows (u = 1 and
    u < k included)."""
    X = draw(one_hot_inputs())
    if draw(st.booleans()):
        patterns = X[:draw(st.integers(1, 3))]
        n = draw(st.integers(1, 60))
        X = patterns[draw(st.lists(st.integers(0, len(patterns) - 1),
                                   min_size=n, max_size=n))]
    return _unique_rows(X)


@st.composite
def dense_indexed_inputs(draw):
    """Arbitrary rows and an arbitrary inverse into them: ``X`` may hold
    equal or unreferenced rows."""
    X = draw(dense_inputs())
    n = draw(st.integers(1, 40))
    inverse = draw(st.lists(st.integers(0, X.shape[0] - 1),
                            min_size=n, max_size=n))
    return X, np.array(inverse)


class TestDistinctRowKMeansOracle:
    @ORACLE
    @given(distinct_row_inputs(), st.integers(1, 12), st.integers(0, 2**16))
    def test_distinct_one_hot_rows_fit_identically(self, case, k, seed):
        _assert_same_distinct_fit(*case, k, seed)

    @ORACLE
    @given(dense_indexed_inputs(), st.integers(1, 8), st.integers(0, 2**16))
    def test_any_inverse_fits_identically(self, case, k, seed):
        _assert_same_distinct_fit(*case, k, seed)

    def test_one_distinct_row(self):
        Xu = np.array([[0.0, 0.7, 0.7]])
        got = _assert_same_distinct_fit(Xu, np.zeros(30, dtype=np.intp), 6, 4)
        assert got.inertia == 0.0

    def test_fewer_distinct_rows_than_clusters_reseeds(self):
        Xu = np.eye(2) / np.sqrt(2.0)
        inverse = np.array([0, 1, 1, 0, 1, 1, 1, 0])
        with work.track() as counters:
            _assert_same_distinct_fit(Xu, inverse, 5, 9)
        assert counters.as_dict()["work.cluster.reseeds"] > 0

    def test_k_exceeds_n(self):
        _assert_same_distinct_fit(np.eye(3), np.array([2, 0, 2]), 6, 1)

    def test_every_attribute_missing(self):
        _assert_same_distinct_fit(
            np.zeros((1, 5)), np.zeros(12, dtype=np.intp), 4, 3)

    def test_heavy_duplication(self):
        rng = np.random.default_rng(3)
        X = np.eye(6)[rng.integers(0, 6, size=300)] / np.sqrt(2.0)
        _assert_same_distinct_fit(*_unique_rows(X), 4, 8)

    def test_distance_evals_count_every_row(self):
        # n·k per product, although distances are computed for u rows
        rng = np.random.default_rng(11)
        X = rng.integers(0, 2, size=(200, 3)).astype(float)
        Xu, inverse = _unique_rows(X)
        assert len(Xu) <= 8
        with work.track() as counters:
            result = KMeans(4, seed=5).fit(Xu, inverse=inverse)
        n, k = X.shape[0], result.k
        expected = n * k + (result.n_iter + 1) * n * k
        assert counters.as_dict()["work.cluster.distance_evals"] == expected

    @pytest.mark.parametrize("inverse", [
        np.array([0, 2]), np.array([-1]), np.zeros((2, 1), dtype=np.intp),
        np.array([0.0, 1.0]),
    ])
    def test_bad_inverse_raises(self, inverse):
        with pytest.raises(QueryError, match="inverse"):
            KMeans(1).fit(np.eye(2), inverse=inverse)

    def test_zero_rows_raise(self):
        with pytest.raises(QueryError, match="zero rows"):
            KMeans(1).fit(np.eye(2), inverse=np.array([], dtype=np.intp))


# ---------------------------------------------------------- one-hot encoding

def _reference_one_hot(view, names, scale=True):
    """The dense n x d encoding, one indicator per (row, attribute)."""
    widths = [max(1, view.ncodes(a)) for a in names]
    X = np.zeros((len(view), sum(widths)))
    value = 1.0 / np.sqrt(2.0) if scale else 1.0
    offset = 0
    for name, width in zip(names, widths):
        for r, code in enumerate(view.codes(name)):
            if code >= 0:
                X[r, offset + code] = value
        offset += width
    return X


def _categorical_view(columns):
    """A discretized view over categorical code columns (``-1`` missing)."""
    attrs, data = [], {}
    for i, (codes, ncat) in enumerate(columns):
        attr = Attribute(f"a{i}", AttrKind.CATEGORICAL)
        attrs.append(attr)
        data[attr.name] = Column(attr, np.asarray(codes, dtype=np.int32),
                                 tuple(f"v{j}" for j in range(ncat)))
    return Discretizer().fit(Table(Schema(attrs), data))


@st.composite
def code_columns(draw):
    """1-4 categorical columns over 0-50 rows; missing codes, absent
    categories and empty domains included."""
    n = draw(st.integers(0, 50))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        ncat = draw(st.integers(0, 4))
        codes = draw(st.lists(st.integers(-1, ncat - 1),
                              min_size=n, max_size=n))
        columns.append((codes, ncat))
    return columns


def _assert_encodes_like_reference(view, names, scale=True):
    enc = one_hot_encode(view, names, scale=scale)
    dense = _reference_one_hot(view, names, scale=scale)
    assert enc.rows[enc.inverse].tobytes() == dense.tobytes()
    assert enc.matrix.tobytes() == dense.tobytes()
    assert enc.inverse.shape == (len(view),)
    assert len(np.unique(enc.rows, axis=0)) == len(enc.rows)
    assert len(enc.rows) == len(np.unique(dense, axis=0))
    return enc


class TestEncodingOracle:
    @ORACLE
    @given(code_columns(), st.booleans())
    def test_distinct_rows_expand_to_the_dense_encoding(self, columns, scale):
        view = _categorical_view(columns)
        _assert_encodes_like_reference(view, view.attribute_names, scale)

    def test_wide_attributes_redensify_the_key(self):
        # eight attributes of 255 codes (radix 256) after a 2-code one:
        # the first digit's place value is 256**8 = 2**64, so an int64
        # key that was not re-densified would wrap and merge tuples that
        # differ only in that digit.  Every tuple appears twice.
        codes = np.tile(np.arange(255), 4)
        columns = [(np.repeat([0, 1], 510), 2)] + [(codes, 255)] * 8
        view = _categorical_view(columns)
        names = view.attribute_names
        assert math.prod(view.ncodes(a) + 1 for a in names) > 2**64
        enc = _assert_encodes_like_reference(view, names)
        assert len(enc.rows) == 510

    def test_zero_row_partition_raises_from_fit(self):
        view = _categorical_view([([], 3), ([], 2)])
        enc = _assert_encodes_like_reference(view, view.attribute_names)
        assert enc.rows.shape[0] == 0
        with pytest.raises(QueryError, match="zero rows"):
            KMeans(2).fit(enc.rows, inverse=enc.inverse)


# ------------------------------------------------------------- chi-square

CHI2_RTOL = 1e-10  # ~100 nonnegative terms, each off by a few ulp


def _reference_contingency(class_codes, value_codes, n_classes, n_values):
    """Sec. 3.1.1's class x value counts, one tuple at a time."""
    table = [[0] * n_values for _ in range(n_classes)]
    for c, v in zip(class_codes, value_codes):
        if c >= 0 and v >= 0:
            table[c][v] += 1
    return table


def _reference_chi_square(table):
    """Pearson's statistic and df by definition, after dropping the
    all-zero rows and columns; fewer than two of either is (0.0, 1)."""
    rows = [r for r in table if sum(r) > 0]
    cols = [j for j in range(len(table[0]) if table else 0)
            if sum(r[j] for r in rows) > 0]
    if len(rows) < 2 or len(cols) < 2:
        return 0.0, 1
    total = sum(r[j] for r in rows for j in cols)
    stat = 0.0
    for r in rows:
        row_sum = sum(r[j] for j in cols)
        for j in cols:
            expected = row_sum * sum(q[j] for q in rows) / total
            stat += (r[j] - expected) ** 2 / expected
    return stat, (len(rows) - 1) * (len(cols) - 1)


@st.composite
def class_value_codes(draw):
    """Class and value codes with missing entries, absent codes (zero
    rows and columns), single-class and one-value pivots."""
    n_classes = draw(st.integers(1, 5))
    n_values = draw(st.integers(1, 6))
    n = draw(st.integers(0, 80))
    classes = draw(st.lists(st.integers(-1, n_classes - 1),
                            min_size=n, max_size=n))
    if draw(st.integers(0, 3)) == 0:  # one-value pivot
        classes = [c if c < 0 else 0 for c in classes]
    values = draw(st.lists(st.integers(-1, n_values - 1),
                           min_size=n, max_size=n))
    return (np.array(classes, dtype=np.int32),
            np.array(values, dtype=np.int32), n_classes, n_values)


def _assert_chi_square_matches(table):
    ref_stat, ref_df = _reference_chi_square(table)
    got = chi_square_test(np.array(table, dtype=float))
    assert got.df == ref_df
    assert got.statistic == pytest.approx(ref_stat, rel=CHI2_RTOL,
                                          abs=1e-12)
    assert got.p_value == pytest.approx(chi2_sf(ref_stat, ref_df),
                                        rel=1e-6, abs=1e-12)


class TestChiSquareOracle:
    @ORACLE
    @given(class_value_codes())
    def test_contingency_and_statistic_match_the_definition(self, case):
        classes, values, n_classes, n_values = case
        table = contingency_table(classes, values, n_classes, n_values)
        ref = _reference_contingency(classes, values, n_classes, n_values)
        assert table.shape == (n_classes, n_values)
        assert table.tolist() == ref
        _assert_chi_square_matches(ref)

    def test_zero_row_and_zero_column(self):
        _assert_chi_square_matches([[3, 0, 1], [0, 0, 0], [2, 0, 5]])
        assert chi_square_test(
            np.array([[3, 0, 1], [0, 0, 0], [2, 0, 5]])).df == 1

    def test_single_row(self):
        _assert_chi_square_matches([[4, 1, 7]])
        assert chi_square_test(np.array([[4.0, 1.0, 7.0]])).statistic == 0.0

    def test_one_value_pivot(self):
        classes = np.zeros(9, dtype=np.int32)
        values = np.array([0, 1, 2, 2, 1, 0, 0, -1, 2], dtype=np.int32)
        ref = _reference_contingency(classes, values, 1, 3)
        assert contingency_table(classes, values, 1, 3).tolist() == ref
        _assert_chi_square_matches(ref)

    def test_independent_table_scores_zero(self):
        _assert_chi_square_matches([[2, 4], [3, 6]])


# ----------------------------------------------------------- discretizer

def _reference_occupancy(column):
    """Pre-vectorization categorical remap: a Python set of the codes."""
    occurring = sorted(set(int(c) for c in column.codes if c >= 0))
    remap = np.full(len(column.categories) + 1, -1, dtype=np.int32)
    for new, old in enumerate(occurring):
        remap[old] = new
    return remap[column.codes], tuple(column.categories[o] for o in occurring)


@st.composite
def categorical_columns(draw):
    """Codes over a schema domain that the rows may only partly cover:
    absent categories, all-missing columns and empty tables included."""
    ncat = draw(st.integers(0, 12))
    n = draw(st.integers(0, 60))
    if ncat == 0 or draw(st.integers(0, 3)) == 0:
        codes = [-1] * n
    else:
        used = draw(st.lists(st.integers(0, ncat - 1), min_size=1,
                             max_size=ncat, unique=True))
        codes = draw(st.lists(st.sampled_from(used + [-1]),
                              min_size=n, max_size=n))
    attr = Attribute("c", AttrKind.CATEGORICAL)
    categories = tuple(f"v{i}" for i in range(ncat))
    return Column(attr, np.array(codes, dtype=np.int32), categories)


class TestDiscretizerOracle:
    @ORACLE
    @given(categorical_columns())
    def test_occupancy_matches_set_reference(self, column):
        table = Table(Schema([column.attribute]), {"c": column})
        view = Discretizer().fit(table)
        codes, labels = _reference_occupancy(column)
        assert view.codes("c").dtype == codes.dtype
        assert np.array_equal(view.codes("c"), codes)
        assert view.labels("c") == labels

    def test_all_missing_column_has_empty_domain(self):
        attr = Attribute("c", AttrKind.CATEGORICAL)
        column = Column(attr, np.full(5, -1, dtype=np.int32), ("a", "b"))
        view = Discretizer().fit(Table(Schema([attr]), {"c": column}))
        assert view.labels("c") == ()
        assert (view.codes("c") == -1).all()


# ------------------------------------------------------- similarity graph

def _unit(dists, value="v"):
    attrs = tuple(sorted(dists))
    return IUnit("p", value, 1, attrs,
                 {a: np.asarray(v, dtype=float) for a, v in dists.items()},
                 {a: () for a in attrs})


def _reference_similarities(units):
    n = len(units)
    sim = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            sim[i, j] = sim[j, i] = iunit_similarity(units[i], units[j])
    return sim


counts = st.one_of(
    st.just(0.0), st.just(5e-324), st.just(1e-310),
    st.floats(min_value=0.0, max_value=1e4, allow_subnormal=True),
    st.integers(0, 50).map(float),
)


@st.composite
def iunit_sets(draw):
    """l IUnits over shared attributes: zero, subnormal and duplicate
    distributions, and single-unit sets."""
    widths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    l = draw(st.integers(1, 10))
    units = []
    for i in range(l):
        if units and draw(st.integers(0, 3)) == 0:
            units.append(units[draw(st.integers(0, len(units) - 1))])
            continue
        dists = {}
        for a, w in enumerate(widths):
            if draw(st.integers(0, 4)) == 0:
                dists[f"a{a}"] = [0.0] * w
            else:
                dists[f"a{a}"] = draw(st.lists(counts, min_size=w,
                                               max_size=w))
        units.append(_unit(dists, value=str(i)))
    tau = draw(st.floats(min_value=0.05, max_value=float(len(widths))))
    return units, tau


class TestSimilarityGraphOracle:
    @ORACLE
    @given(iunit_sets())
    def test_adjacency_matches_pairwise_algorithm_1(self, case):
        units, tau = case
        adj = similarity_graph(units, tau)
        sim = _reference_similarities(units)
        expected = sim >= tau
        np.fill_diagonal(expected, False)
        decided = np.abs(sim - tau) > TIE_EPS
        assert adj.shape == expected.shape
        assert adj.dtype == np.bool_
        assert np.array_equal(adj[decided], expected[decided])
        assert np.array_equal(adj, adj.T)
        assert not adj.diagonal().any()

    def test_empty_and_single_unit(self):
        assert similarity_graph([], 1.0).shape == (0, 0)
        assert similarity_graph([_unit({"x": [1, 2]})], 0.1).tolist() == \
            [[False]]

    def test_duplicates_are_adjacent(self):
        u = _unit({"x": [3, 1, 0], "y": [0, 2]})
        assert similarity_graph([u, u], 2 * 0.7).tolist() == \
            [[False, True], [True, False]]

    def test_threshold_is_inclusive_just_outside_the_tie_band(self):
        units = [_unit({"x": [1, 0]}), _unit({"x": [1, 1]})]
        sim = iunit_similarity(*units)
        assert similarity_graph(units, sim - 1e-8)[0, 1]
        assert not similarity_graph(units, sim + 1e-8)[0, 1]

    def test_each_cosine_is_clipped_before_summing(self):
        # Algorithm 1 clips every per-attribute cosine to [0, 1]; an
        # anti-parallel attribute adds 0, not -1
        units = [_unit({"x": [1, 0], "y": [2, 1]}),
                 _unit({"x": [-1, 0], "y": [2, 1]})]
        assert similarity_graph(units, 0.9)[0, 1]

    def test_zero_distribution_is_similar_to_nothing(self):
        units = [_unit({"x": [0, 0]}), _unit({"x": [0, 0]})]
        assert not similarity_graph(units, 1e-12).any()


class TestSimilarityGraphWork:
    @pytest.mark.parametrize("l", [0, 1, 2, 5, 15])
    def test_counts_every_pair_once(self, l):
        units = [_unit({"x": [i, 1]}, value=str(i)) for i in range(l)]
        with work.track() as counters:
            similarity_graph(units, 0.5)
        got = counters.as_dict().get("work.diversify.similarity_pairs", 0)
        assert got == l * (l - 1) // 2

    def test_mismatched_compare_attributes_raise(self):
        units = [_unit({"x": [1, 0]}), _unit({"y": [1, 0]})]
        with pytest.raises(CADViewError, match="Compare Attribute"):
            similarity_graph(units, 0.5)

    def test_mismatched_domain_widths_raise(self):
        units = [_unit({"x": [1, 0]}), _unit({"x": [1, 0, 2]})]
        with pytest.raises(CADViewError, match="shape mismatch"):
            similarity_graph(units, 0.5)
