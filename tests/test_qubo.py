"""Container-level tests: evaluation, clamping, combination, normalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redispatch.qubo import (
    DegenerateRangeError,
    DimensionMismatchError,
    Qubo,
    normalize_range,
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


@pytest.mark.parametrize("vals, offset", [
    ([np.nan], 0.0), ([np.inf], 0.0), ([-np.inf], 0.0),
    ([1.0], np.nan), ([1.0], np.inf), ([1.0], -np.inf),
], ids=["nan", "inf", "-inf", "offset-nan", "offset-inf", "offset--inf"])
def test_non_finite_data_rejected(vals, offset):
    with pytest.raises(ValueError, match="finite"):
        Qubo(2, [0], [0], vals, offset)


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


def test_clamp_exhaustive_score_equality():
    # clamping must preserve scores for every completion of the free bits
    rng = np.random.default_rng(3)
    for trial in range(20):
        dim = int(rng.integers(3, 9))
        q, _, _ = random_qubo(rng, dim, density=0.8)
        n_fixed = int(rng.integers(1, dim))
        fixed_idx = rng.choice(dim, size=n_fixed, replace=False)
        fixed = {int(i): int(rng.integers(0, 2)) for i in fixed_idx}
        sub, remap = q.clamp(fixed)
        assert sub.dim == dim - n_fixed
        assert sorted(remap.tolist()) == sorted(set(range(dim)) - set(fixed))
        for assignment in range(1 << sub.dim):
            free = np.array([(assignment >> b) & 1 for b in range(sub.dim)],
                            dtype=np.int8)
            full = np.zeros(dim, dtype=np.int8)
            full[remap] = free
            for i, bit in fixed.items():
                full[i] = bit
            assert sub.evaluate(free) == pytest.approx(
                q.evaluate(full), rel=1e-12, abs=1e-12)


def test_clamp_validates_indices_and_bits():
    q = Qubo(3, [0], [1], [1.0])
    with pytest.raises(IndexError):
        q.clamp({5: 1})
    with pytest.raises(ValueError):
        q.clamp({0: 2})


def test_clamp_everything_leaves_constant():
    q = Qubo(2, [0, 0, 1], [0, 1, 1], [1.0, 2.0, 3.0], offset=0.5)
    sub, remap = q.clamp({0: 1, 1: 1})
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
    first = {int(i): int(rng.integers(0, 2)) for i in all_idx[:2]}
    second = {int(i): int(rng.integers(0, 2)) for i in all_idx[2:4]}
    once, remap_once = q.clamp({**first, **second})
    stage1, remap1 = q.clamp(first)
    translated = {
        int(np.flatnonzero(remap1 == orig)[0]): bit
        for orig, bit in second.items()
    }
    stage2, remap2 = stage1.clamp(translated)
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
def triplet_lists(draw, dim):
    index = st.integers(0, dim - 1)
    return draw(st.lists(st.tuples(st.tuples(index, index), term_values),
                         max_size=40))


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
    st.dictionaries(st.integers(0, dim - 1), st.integers(0, 1)),
    st.lists(st.integers(0, 1), min_size=dim, max_size=dim))))
def test_clamp_preserves_scores(case):
    dim, pairs, offset, fixed, bits = case
    q = from_pairs(dim, pairs, offset)
    x = np.array(bits, dtype=np.int8)
    for i, bit in fixed.items():
        x[i] = bit
    sub, remap = q.clamp(fixed)
    assert remap.tolist() == sorted(set(range(dim)) - set(fixed))
    score = q.evaluate(x)
    assert abs(sub.evaluate(x[remap]) - score) <= 1e-9 * (1.0 + abs(score))
