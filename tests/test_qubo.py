"""Container-level tests: evaluation, clamping, combination, normalization."""

import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from redispatch.qubo import (
    DegenerateRangeError,
    DimensionMismatchError,
    NonFiniteError,
    Qubo,
    normalize_range,
    round_to_grid,
    weighted_sum,
)


def dense_score(matrix: np.ndarray, offset: float, x: np.ndarray) -> float:
    """Reference evaluation: explicit double loop over the dense matrix."""
    total = offset
    dim = matrix.shape[0]
    for i in range(dim):
        for j in range(dim):
            total += matrix[i, j] * x[i] * x[j]
    return total


def random_qubo(rng, dim, density=0.5):
    matrix = rng.normal(size=(dim, dim))
    matrix[rng.random((dim, dim)) > density] = 0.0
    offset = float(rng.normal())
    i, j = np.nonzero(matrix)
    return Qubo(dim, i, j, matrix[i, j], offset), matrix, offset


def entries(q: Qubo) -> dict:
    """The stored terms as {(row, col): value}."""
    return dict(zip(zip(q.rows.tolist(), q.cols.tolist()), q.vals.tolist()))


def test_evaluate_matches_dense_double_loop():
    rng = np.random.default_rng(42)
    for _ in range(25):
        dim = int(rng.integers(1, 9))
        q, matrix, offset = random_qubo(rng, dim)
        for _ in range(10):
            x = rng.integers(0, 2, dim)
            assert q.evaluate(x) == pytest.approx(
                dense_score(matrix, offset, x), rel=1e-12, abs=1e-12)


def test_evaluate_many_agrees_with_evaluate():
    rng = np.random.default_rng(7)
    q, _, _ = random_qubo(rng, 6)
    X = rng.integers(0, 2, size=(40, 6))
    batch = q.evaluate_many(X)
    for row, expected in zip(X, batch):
        assert q.evaluate(row) == pytest.approx(expected, rel=1e-12)


def test_canonicalization_merges_mirror_entries():
    a = Qubo(3, [0, 1, 2], [1, 0, 2], [2.0, 3.0, 1.0])
    b = Qubo(3, [0, 2], [1, 2], [5.0, 1.0])
    assert a == b
    assert entries(a) == {(0, 1): 5.0, (2, 2): 1.0}


def test_zero_coefficients_are_dropped():
    q = Qubo(2, [0, 0, 1], [1, 0, 1], [1.5, 0.0, -1.5])
    assert (0, 0) not in entries(q)
    assert q.num_terms == 2
    cancel = Qubo(2, [0, 1], [1, 0], [1.0, -1.0])
    assert cancel.num_terms == 0


def test_out_of_range_coefficient_rejected():
    with pytest.raises(IndexError):
        Qubo(2, [0], [2], [1.0])
    with pytest.raises(IndexError):
        Qubo(2, [-1], [0], [1.0])
    with pytest.raises(ValueError):
        Qubo(2, [0, 1], [1], [1.0, 2.0])
    with pytest.raises(ValueError, match="dim must be an integer"):
        Qubo(2.0)
    assert type(Qubo(np.int64(2)).dim) is int


@pytest.mark.parametrize("vals, offset", [
    ([np.nan], 0.0), ([np.inf], 0.0), ([-np.inf], 0.0),
    ([1.0], np.nan), ([1.0], np.inf), ([1.0], -np.inf),
], ids=["nan", "inf", "-inf", "offset-nan", "offset-inf", "offset--inf"])
def test_non_finite_data_rejected(vals, offset):
    with pytest.raises(ValueError, match="finite"):
        Qubo(2, [0], [0], vals, offset)


def test_sums_past_the_float_range_rejected():
    big = Qubo(1, [0], [0], [1e308])
    with pytest.raises(NonFiniteError, match="finite"):
        Qubo(1, [0, 0], [0, 0], [1e308, 1e308])
    with pytest.raises(NonFiniteError, match="finite"), np.errstate(over="ignore"):
        weighted_sum([(1.0, big), (1.0, big)])


def test_empty_qubo_scores_offset():
    q = Qubo(4, offset=2.5)
    assert q.evaluate(np.ones(4, dtype=int)) == 2.5
    assert q.evaluate(np.zeros(4, dtype=int)) == 2.5


def test_immutable_after_construction():
    q = Qubo(2, [0], [1], [1.0])
    with pytest.raises(AttributeError):
        q.offset = 3.0
    for arr in (q.rows, q.cols, q.vals):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_pickle_and_copy_round_trip():
    q = Qubo(3, [0, 2, 1], [1, 0, 1], [1.0, -2.5, 4.0], offset=0.5)
    q.adjacency()  # a filled cache travels as nothing: the copy rebuilds it
    for twin in (pickle.loads(pickle.dumps(q)), copy.deepcopy(q), copy.copy(q)):
        assert twin == q
        assert not twin.rows.flags.writeable
        assert all(np.array_equal(a, b) for a, b in zip(
            flat_adjacency(twin), flat_adjacency(q)))


def test_factored_slot_is_shared_and_dropped():
    # with_factored shares the arrays; ==, pickling, weighted_sum, clamp and
    # normalize_range ignore or drop the slot
    q = Qubo(3, [0, 2, 1], [1, 0, 1], [1.0, -2.5, 4.0], offset=0.5)
    record = object()
    tagged = q.with_factored(record)
    assert tagged.factored is record and q.factored is None
    assert tagged.vals is q.vals and tagged == q
    for derived in (pickle.loads(pickle.dumps(tagged)),
                    weighted_sum([(1.0, tagged)]), tagged.clamp([1, 0, 0], [1, 2])[0],
                    normalize_range(tagged, -1.0, 1.0, 1)):
        assert derived.factored is None


def test_clamp_exhaustive_score_equality():
    # clamping must preserve scores for every completion of the free bits
    rng = np.random.default_rng(3)
    for trial in range(20):
        dim = int(rng.integers(3, 9))
        q, _, _ = random_qubo(rng, dim, density=0.8)
        n_fixed = int(rng.integers(1, dim))
        free_idx = rng.permutation(dim)[n_fixed:]  # in no particular order
        x = rng.integers(0, 2, size=dim)
        sub, remap = q.clamp(x, free_idx)
        assert sub.dim == dim - n_fixed
        assert remap.tolist() == sorted(free_idx)
        for assignment in range(1 << sub.dim):
            free = np.array([(assignment >> b) & 1 for b in range(sub.dim)],
                            dtype=np.int8)
            full = x.copy()
            full[remap] = free
            assert sub.evaluate(free) == pytest.approx(
                q.evaluate(full), rel=1e-12, abs=1e-12)


def test_clamp_validates_indices_and_bits():
    q = Qubo(3, [0], [1], [1.0])
    for free in ([5], [-1], [0, 3]):
        with pytest.raises(IndexError):
            q.clamp([0, 0, 0], free)
    for x in ([2, 0, 0], [0, 1], [0.5, 0, 0]):
        with pytest.raises(ValueError, match="0/1 vector"):
            q.clamp(x, [1])


def test_clamp_everything_leaves_constant():
    q = Qubo(2, [0, 0, 1], [0, 1, 1], [1.0, 2.0, 3.0], offset=0.5)
    sub, remap = q.clamp([1, 1], [])
    assert sub.dim == 0
    assert remap.size == 0
    assert sub.offset == pytest.approx(0.5 + 1 + 2 + 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_clamp_in_two_stages_matches_single_stage(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(4, 9))
    q, _, _ = random_qubo(rng, dim, density=0.7)
    all_idx = rng.permutation(dim)
    x = rng.integers(0, 2, size=dim)
    # clamp all_idx[:2], then all_idx[2:4]; or all four at once
    once, remap_once = q.clamp(x, all_idx[4:])
    stage1, remap1 = q.clamp(x, all_idx[2:])
    stage2, remap2 = stage1.clamp(x[remap1],
                                  np.flatnonzero(np.isin(remap1, all_idx[4:])))
    assert stage2.dim == once.dim
    assert remap1[remap2].tolist() == remap_once.tolist()
    for assignment in range(1 << once.dim):
        free = np.array([(assignment >> b) & 1 for b in range(once.dim)],
                        dtype=np.int8)
        assert stage2.evaluate(free) == pytest.approx(
            once.evaluate(free), rel=1e-12, abs=1e-12)


def test_weighted_sum_values_and_dim_check():
    a = Qubo(3, [0, 0], [0, 1], [1.0, 2.0], offset=1.0)
    b = Qubo(3, [0, 2], [1, 2], [-1.0, 4.0], offset=0.5)
    s = weighted_sum([(2.0, a), (3.0, b)])
    assert entries(s) == {(0, 0): 2.0, (0, 1): 1.0, (2, 2): 12.0}
    assert s.offset == pytest.approx(2 * 1.0 + 3 * 0.5)
    with pytest.raises(DimensionMismatchError):
        weighted_sum([(1.0, a), (1.0, Qubo(2))])
    with pytest.raises(ValueError):
        weighted_sum([])


def test_normalize_range_affine_identity_at_fixed_bit_count():
    rng = np.random.default_rng(11)
    q, _, _ = random_qubo(rng, 8, density=0.9)
    ones = 3
    vectors = []
    for _ in range(50):
        x = np.zeros(8, dtype=np.int8)
        x[rng.choice(8, size=ones, replace=False)] = 1
        vectors.append(x)
    scores = np.array([q.evaluate(x) for x in vectors])
    lo, hi = scores.min() - 1.0, scores.max() + 1.0
    norm = normalize_range(q, lo, hi, ones)
    for x, s in zip(vectors, scores):
        assert norm.evaluate(x) == pytest.approx((s - lo) / (hi - lo), rel=1e-12)


def test_normalize_range_rejects_empty_range():
    q = Qubo(2, [0], [0], [1.0])
    with pytest.raises(DegenerateRangeError):
        normalize_range(q, 1.0, 1.0, 1)
    with pytest.raises(DegenerateRangeError):
        normalize_range(q, 2.0, 1.0, 1)


def test_adjacency_lists_are_symmetric_and_complete():
    rng = np.random.default_rng(9)
    q, _, _ = random_qubo(rng, 10, density=0.5)
    diag, neighbors, weights = q.adjacency()
    for i, j, v in zip(q.rows.tolist(), q.cols.tolist(), q.vals.tolist()):
        if i == j:
            assert diag[i] == v
        else:
            pos = np.flatnonzero(neighbors[i] == j)[0]
            assert weights[i][pos] == v
            pos = np.flatnonzero(neighbors[j] == i)[0]
            assert weights[j][pos] == v


# ------------------------------------------- canonical form and summation order


def reference_terms(pairs) -> list:
    """Sequential dict accumulation of ((i, j), v) pairs in input order."""
    canon: dict[tuple[int, int], float] = {}
    for (i, j), v in pairs:
        key = (min(i, j), max(i, j))
        canon[key] = canon.get(key, 0.0) + v
    return sorted((key, v) for key, v in canon.items() if v != 0.0)


def assert_canonical(q: Qubo):
    keys = q.rows * max(q.dim, 1) + q.cols
    assert q.rows.dtype == np.int64 and q.cols.dtype == np.int64
    assert q.vals.dtype == np.float64
    assert np.all(np.diff(keys) > 0)
    assert np.all(q.rows <= q.cols)
    assert np.all(q.vals != 0.0)
    assert not (q.rows.flags.writeable or q.cols.flags.writeable
                or q.vals.flags.writeable)


# magnitudes far apart make the order of addition visible in the last bits
term_values = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.1, -0.1, 0.2, 0.3, 1e-9, -1.0, 1.0, 0.0]),
)


@st.composite
def triplet_lists(draw, dim, min_size=0):
    index = st.integers(0, dim - 1)
    return draw(st.lists(st.tuples(st.tuples(index, index), term_values),
                         min_size=min_size, max_size=40))


def from_pairs(dim, pairs, offset=0.0) -> Qubo:
    rows = [i for (i, _), _ in pairs]
    cols = [j for (_, j), _ in pairs]
    return Qubo(dim, rows, cols, [v for _, v in pairs], offset)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda dim: st.tuples(st.just(dim), triplet_lists(dim))))
def test_constructor_sums_in_input_order(case):
    dim, pairs = case
    q = from_pairs(dim, pairs)
    assert_canonical(q)
    assert list(entries(q).items()) == reference_terms(pairs)


@settings(max_examples=200, deadline=None)
@given(st.integers(4, 12).flatmap(lambda dim: st.tuples(
    triplet_lists(dim, min_size=8).map(lambda pairs: from_pairs(dim, pairs)),
    st.integers(1, 5).flatmap(lambda batch: st.lists(
        st.lists(st.integers(0, 1), min_size=dim, max_size=dim),
        min_size=batch, max_size=batch)))))
def test_evaluate_many_rows_do_not_depend_on_the_batch(case):
    q, bits = case
    X = np.array(bits, dtype=np.int8)
    scores = q.evaluate_many(X)
    for i in range(len(X)):
        alone = q.evaluate_many(X[i : i + 1])
        assert scores[i].tobytes() == alone[0].tobytes()


def unique_canonical(dim, rows, cols, vals):
    """Reference: the np.unique canonicalization the stable sort replaced."""
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    keys, inverse = np.unique(lo * dim + hi, return_inverse=True)
    sums = np.bincount(inverse.ravel(), weights=vals, minlength=keys.size)
    keep = sums != 0.0
    return (*np.divmod(keys[keep], dim), sums[keep])


@st.composite
def builder_layouts(draw):
    """Triplets as builders emit them: sorted runs, reversed, or shuffled,
    with duplicates and entries that cancel to 0.0 or -0.0."""
    dim = draw(st.integers(1, 12))
    index = st.integers(0, dim - 1)
    value = st.one_of(term_values, st.just(-0.0))
    pairs = draw(st.lists(st.tuples(st.tuples(index, index), value),
                          max_size=60))
    if pairs:  # negated copies cancel their originals to 0.0 or -0.0
        pairs += [(key, -v) for key, v in draw(
            st.lists(st.sampled_from(pairs), max_size=10))]
    layout = draw(st.sampled_from(["runs", "reversed", "shuffled"]))
    if layout == "shuffled":
        pairs = draw(st.permutations(pairs))
    else:
        cuts = sorted(draw(st.lists(st.integers(0, len(pairs)), max_size=3)))
        runs = [sorted(pairs[a:b], key=lambda p: p[0])
                for a, b in zip([0, *cuts], [*cuts, len(pairs)])]
        pairs = [p for run in runs for p in run]
        if layout == "reversed":
            pairs.reverse()
    return dim, pairs


@settings(max_examples=200, deadline=None)
@given(builder_layouts())
def test_constructor_equals_unique_reference(case):
    dim, pairs = case
    rows = np.array([i for (i, _), _ in pairs], dtype=np.int64)
    cols = np.array([j for (_, j), _ in pairs], dtype=np.int64)
    vals = np.array([v for _, v in pairs], dtype=float)
    q = Qubo(dim, rows, cols, vals, offset=-0.0)
    ref_rows, ref_cols, ref_vals = unique_canonical(dim, rows, cols, vals)
    assert np.array_equal(q.rows, ref_rows)
    assert np.array_equal(q.cols, ref_cols)
    assert q.vals.tobytes() == ref_vals.tobytes()
    assert math.copysign(1.0, q.offset) == -1.0


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda dim: st.tuples(
    st.just(dim),
    st.lists(st.tuples(term_values, triplet_lists(dim), term_values),
             min_size=2, max_size=6))))
def test_weighted_sum_sums_in_term_order(case):
    dim, spec = case
    terms = [(w, from_pairs(dim, pairs, offset)) for w, pairs, offset in spec]
    total = weighted_sum(terms)
    assert_canonical(total)
    expected = reference_terms(
        (key, w * v) for w, q in terms for key, v in entries(q).items())
    assert list(entries(total).items()) == expected
    offset = 0.0
    for w, q in terms:
        offset += w * q.offset
    assert total.offset == offset


unit_values = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(lambda dim: st.tuples(
    st.just(dim),
    st.lists(st.tuples(st.tuples(st.integers(0, dim - 1),
                                 st.integers(0, dim - 1)), unit_values),
             max_size=40),
    unit_values,
    st.lists(st.integers(0, dim - 1), max_size=dim + 2),  # repeats allowed
    st.lists(st.integers(0, 1), min_size=dim, max_size=dim))))
def test_clamp_preserves_scores(case):
    dim, pairs, offset, free, bits = case
    q = from_pairs(dim, pairs, offset)
    x = np.array(bits, dtype=np.int8)
    sub, remap = q.clamp(x, free)
    assert remap.tolist() == sorted(set(free))
    score = q.evaluate(x)
    assert abs(sub.evaluate(x[remap]) - score) <= 1e-9 * (1.0 + abs(score))


# ------------------------- key-by-key merges and the CSR build, against the
# concatenate-then-canonicalize and stable-argsort versions they replaced


def reference_weighted_sum(terms) -> Qubo:
    """Concatenate every term and let the constructor sort and sum them."""
    dim = terms[0][1].dim
    offset = 0.0
    for w, q in terms:
        offset += w * q.offset
    return Qubo(dim, np.concatenate([q.rows for _, q in terms]),
                np.concatenate([q.cols for _, q in terms]),
                np.concatenate([w * q.vals for w, q in terms]), offset)


def reference_normalize_range(q, score_min, score_max, ones_count) -> Qubo:
    span = score_max - score_min
    shift = score_min / ones_count
    diag = np.arange(q.dim)
    return Qubo(q.dim, np.concatenate([q.rows, diag]),
                np.concatenate([q.cols, diag]),
                np.concatenate([q.vals / span, np.full(q.dim, -(shift / span))]),
                q.offset / span)


def reference_csr(q: Qubo):
    """(indptr, indices, data, diag) from one stable argsort of both halves."""
    on_diag = q.rows == q.cols
    diag = np.zeros(q.dim)
    diag[q.rows[on_diag]] = q.vals[on_diag]
    r, c, v = q.rows[~on_diag], q.cols[~on_diag], q.vals[~on_diag]
    src = np.concatenate([r, c])
    order = np.argsort(src, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=q.dim))])
    return (indptr, np.concatenate([c, r])[order],
            np.concatenate([v, v])[order], diag)


def flat_adjacency(q: Qubo):
    """(indptr, indices, data, diag): adjacency()'s per-variable lists as
    the flat neighbour and weight arrays they are slices of."""
    diag, neighbors, weights = q.adjacency()
    if q.dim:  # one flat array under each list
        assert all(a.base is neighbors[0].base for a in neighbors)
        assert all(a.base is weights[0].base for a in weights)
    indptr = np.zeros(q.dim + 1, dtype=np.int64)
    np.cumsum([a.size for a in neighbors], out=indptr[1:])
    return (indptr, np.concatenate([np.empty(0, np.int64), *neighbors]),
            np.concatenate([np.empty(0), *weights]), diag)


def assert_same_bytes(q: Qubo, ref: Qubo):
    """Equal bits in the triplets, the offset, the flat adjacency and diag."""
    assert q.dim == ref.dim
    assert np.float64(q.offset).tobytes() == np.float64(ref.offset).tobytes()
    got = (q.rows, q.cols, q.vals, *flat_adjacency(q))
    want = (ref.rows, ref.cols, ref.vals, *reference_csr(ref))
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def raw_qubos(draw, dim):
    """Qubos over row > col input with -0.0, entries that cancel to zero, and
    (being sparse) missing diagonals and empty rows; dim may be 0 or 1."""
    pairs = draw(triplet_lists(dim)) if dim else []
    value = st.one_of(term_values, st.just(-0.0))
    pairs = [(key, draw(value)) if draw(st.booleans()) else (key, v)
             for key, v in pairs]
    if pairs:
        pairs += [((j, i), -v) for (i, j), v in draw(
            st.lists(st.sampled_from(pairs), max_size=8))]
    return from_pairs(dim, pairs, draw(st.one_of(term_values, st.just(-0.0))))


# mostly plain weights, so that the last bits of 0.1 + 0.2 + 0.3 show
weights = st.one_of(st.sampled_from([1.0, -1.0, 0.5, 3.0, 0.0, -0.0]),
                    term_values)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4).flatmap(lambda dim: st.lists(
    st.tuples(weights, raw_qubos(dim)), min_size=1, max_size=5)))
def test_weighted_sum_equals_concatenated_reference(terms):
    assert_same_bytes(weighted_sum(terms), reference_weighted_sum(terms))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(raw_qubos),
       st.floats(-1e3, 1e3), st.floats(1e-3, 1e3), st.integers(1, 6))
def test_normalize_range_equals_concatenated_reference(q, lo, width, ones):
    assert_same_bytes(normalize_range(q, lo, lo + width, ones),
                      reference_normalize_range(q, lo, lo + width, ones))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12).flatmap(lambda dim: st.tuples(
    st.just(dim),
    st.lists(st.tuples(st.integers(0, max(dim - 1, 0)),
                       st.integers(0, max(dim - 1, 0)),
                       st.one_of(term_values, st.just(-0.0))),
             max_size=60 if dim else 0))))
def test_constructor_on_canonical_order_equals_unique_reference(case):
    # strictly increasing keys take the constructor's path without a sort;
    # its zeros (0.0 and -0.0) must still go
    dim, triplets = case
    first = {}
    for i, j, v in triplets:
        first.setdefault((min(i, j), max(i, j)), v)
    keys = sorted(first)
    rows = np.array([i for i, _ in keys], dtype=np.int64)
    cols = np.array([j for _, j in keys], dtype=np.int64)
    vals = np.array([first[key] for key in keys], dtype=float)
    q = Qubo(dim, rows, cols, vals)
    assert_canonical(q)  # dtypes too: the reference's bincount of nothing is int
    want = unique_canonical(max(dim, 1), rows, cols, vals)
    for a, b in zip((q.rows, q.cols, q.vals), want, strict=True):
        assert a.tobytes() == b.astype(a.dtype).tobytes()
    assert_same_bytes(q, Qubo(dim, rows[::-1], cols[::-1], vals[::-1]))


# ------------------------------------------------------------ memory guard


def traced_peak(fn):
    """(result, peak bytes numpy and Python allocated while fn ran)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def nbytes(*arrays) -> int:
    return sum(a.nbytes for a in arrays)


def test_canonicalizations_stay_in_bounded_memory():
    """Traced peak over output size, on 150,000 random terms at dim 1,000.

    The concatenate-and-sort versions measured, as ratios of the output:
    constructor on canonical-order input 3.42, weighted_sum of three such
    terms 5.26, adjacency() 3.78.  The key-by-key versions measured 1.04 and
    2.16.  adjacency() measured 2.75 when it placed whole arrays at once and
    1.53 filled in chunks.  Each bound sits between the current version's
    ratio and the one before it.
    """
    rng = np.random.default_rng(0)
    dim, m = 1000, 150_000

    def random_term():
        return Qubo(dim, rng.integers(0, dim, m), rng.integers(0, dim, m),
                    rng.normal(size=m))

    base = random_term()
    q, peak = traced_peak(lambda: Qubo(dim, base.rows, base.cols, base.vals))
    assert peak <= 2.0 * nbytes(q.rows, q.cols, q.vals)
    terms = [(0.5, base), (2.0, random_term()), (-1.0, random_term())]
    q, peak = traced_peak(lambda: weighted_sum(terms))
    assert peak <= 3.5 * nbytes(q.rows, q.cols, q.vals)
    fresh = Qubo(dim, q.rows, q.cols, q.vals)
    _, peak = traced_peak(fresh.adjacency)
    assert peak <= 1.8 * nbytes(*flat_adjacency(fresh)[:3])
    assert fresh.num_terms > 4 * 65_536  # several chunks of the adjacency
    assert_same_bytes(fresh, fresh)


def test_evaluate_gathers_bits_with_the_float_gathers_bits():
    """evaluate gathers the vector as bool: every product, signed zeros
    included, and the order of the sum are a float gather's, so the score
    keeps its bits.  Traced peak over the values' bytes, on 150,000 random
    terms at dim 1,000: the float gather measured 2.01, the bool gather 1.19.
    """
    rng = np.random.default_rng(11)
    dim, m = 1000, 150_000
    q = Qubo(dim, rng.integers(0, dim, m), rng.integers(0, dim, m),
             rng.normal(size=m), offset=0.25)
    xs = [np.zeros(dim, dtype=np.int8), np.ones(dim, dtype=int),
          *rng.integers(0, 2, size=(40, dim))]
    for x in xs:
        xf = x.astype(float)
        want = float(q.offset + (q.vals * xf[q.rows] * xf[q.cols]).sum())
        assert q.evaluate(x).hex() == want.hex()
    _, peak = traced_peak(lambda: q.evaluate(xs[-1]))
    assert peak <= 1.5 * q.vals.nbytes


# ------------------------------------------ the adjacency across chunk seams


def test_adjacency_bytes_on_the_desk_objective(tmp_path):
    from redispatch.data import build_instance, load_network, write_synthetic_network
    from redispatch.experiments import composed_objective

    net = write_synthetic_network(tmp_path / "net", 12, 20, 16, n_fixed=6, seed=0)
    inst = build_instance(load_network(net), T=8, k=5, seed=0,
                          promote_statics=True)
    q = composed_objective(inst)
    assert q.dim == 560
    assert_same_bytes(q, q)


def test_adjacency_bytes_past_a_chunk_seam():
    """Just over two 65,536-entry chunks, with variables that have no entry,
    variables with column entries only and most diagonals missing."""
    rng = np.random.default_rng(3)
    dim = 1200
    i, j = np.triu_indices(dim)
    used = (i % 7 != 0) & (j % 7 != 0) & (i % 5 != 1) & ((i != j) | (i % 3 == 0))
    keys = rng.choice(np.flatnonzero(used), 2 * 65_536 + 3, replace=False)
    q = Qubo(dim, i[keys], j[keys], rng.normal(size=keys.size))
    assert q.num_terms == 2 * 65_536 + 3
    no_row = np.bincount(q.rows, minlength=dim) == 0
    no_col = np.bincount(q.cols, minlength=dim) == 0
    assert (no_row & no_col).any() and (no_row & ~no_col).any()
    assert_same_bytes(q, q)


# ------------------------------------------------ rounding onto an exact grid


def grid_step(q: Qubo) -> float:
    """g = 2^(e - 51), where |offset| + sum |vals| < 2^e."""
    total = abs(q.offset) + float(np.abs(q.vals).sum())
    return math.ldexp(1.0, math.frexp(total)[1] - 51)


def on_grid(q: Qubo, g: float) -> bool:
    values = np.append(q.vals, q.offset)
    return bool((np.rint(values / g) * g == values).all())


def qubos_with_a_vector(dim):
    return st.tuples(raw_qubos(dim), st.lists(st.integers(0, 1), min_size=dim,
                                              max_size=dim))


@settings(max_examples=200, deadline=None)
# a subnormal total: g underflows to 0, and round_to_grid keeps q
@example(case=(Qubo(0, offset=2.2250738585e-313), []))
@given(st.integers(0, 8).flatmap(qubos_with_a_vector))
def test_round_to_grid_moves_each_value_by_half_a_step(case):
    q, bits = case
    grid = round_to_grid(q)
    g = grid_step(q)
    assert grid is q if g == 0.0 else on_grid(grid, g)
    assert abs(grid.offset - q.offset) <= g / 2
    rounded = entries(grid)
    assert set(rounded) <= set(entries(q))
    for key, value in entries(q).items():
        assert abs(rounded.get(key, 0.0) - value) <= g / 2
    x = np.array(bits, dtype=np.int8)
    score = q.evaluate(x)
    assert (abs(grid.evaluate(x) - score)
            <= (q.num_terms + 1) * g / 2 + 1e-9 * (1.0 + abs(score)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(raw_qubos), st.data())
def test_clamp_of_a_gridded_qubo_stays_on_its_grid(q, data):
    grid = round_to_grid(q)
    x = np.array(data.draw(st.lists(st.integers(0, 1), min_size=q.dim,
                                    max_size=q.dim)), dtype=np.int8)
    free = data.draw(st.lists(st.integers(0, q.dim - 1), max_size=q.dim))
    sub, remap = grid.clamp(x, free)
    g = grid_step(q)
    assert grid is q if g == 0.0 else on_grid(sub, g)
    assert sub.evaluate(x[remap]) == grid.evaluate(x)  # exactly


def test_round_to_grid_drops_terms_below_half_a_step():
    q = Qubo(2, [0, 0, 1], [0, 1, 1], [3.0, 1e-20, 0.1], offset=-1.7e5)
    grid = round_to_grid(q)
    g = 2.0 ** -33  # 1.7e5 + 3.1 < 2^18
    assert grid_step(q) == g
    assert entries(grid) == {(0, 0): 3.0, (1, 1): round(0.1 / g) * g}
    assert grid.offset == -1.7e5
    assert round_to_grid(grid) == grid  # on the grid already


@pytest.mark.parametrize("q", [
    Qubo(3),  # nothing to round
    Qubo(1, [0], [0], [1e-310], offset=-1e-310),  # g would underflow
    Qubo(1, [0], [0], [1e308]),  # 4 total overflows
], ids=["empty", "subnormal", "huge"])
def test_round_to_grid_keeps_what_it_cannot_round(q):
    assert round_to_grid(q) is q
