"""Sparse quadratic unconstrained binary optimization (QUBO) container.

A Qubo stores one canonical set of read-only triplet arrays plus an explicit
scalar offset.  The score of a 0/1 vector x is

    offset + sum over k of vals[k] * x[rows[k]] * x[cols[k]]

The arrays (rows, cols: int64; vals: float64) are sorted by (row, col), hold
row <= col and no zero values, so two Qubos built from the same quadratic
form compare equal entry by entry.  The constructor canonicalizes: it folds
entries with i > j onto (j, i), rejects indices out of range and non-finite
values, and sums entries sharing a key sequentially in input order starting
from 0.0 (np.bincount, not a pairwise reduction), then drops exact zeros;
input already in key order skips the sort.  clamp emits raw triplets for it.
weighted_sum and normalize_range merge canonical terms key by key instead, in
term order, which gives the bits the constructor would give their concatenation.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable

import numpy as np

__all__ = [
    "Qubo",
    "InputError",
    "DimensionMismatchError",
    "DegenerateRangeError",
    "NonFiniteError",
    "weighted_sum",
    "normalize_range",
    "round_to_grid",
]


class InputError(ValueError):
    """The package rejects an argument or input: a bad count, seed, budget
    or size, or bad data.  The command line exits 2 on it; the package's
    other ValueErrors flag its own faults and exit 3."""


class DimensionMismatchError(ValueError):
    """Qubos of different dimension were combined."""


class DegenerateRangeError(ValueError):
    """Score range normalization was asked for an empty score range."""


class NonFiniteError(InputError):
    """A coefficient or the offset is NaN or infinite, or a computation overflowed."""


class Qubo:
    """Immutable sparse QUBO with an explicit constant offset."""

    # factored: None, or this objective as alpha expansion scores moves from
    # it (encodings.FactoredObjective); ==, pickling, clamp and weighted_sum
    # ignore it
    __slots__ = ("dim", "offset", "rows", "cols", "vals", "_adjacency",
                 "factored")

    def __init__(self, dim: int, rows=(), cols=(), vals=(), offset: float = 0.0):
        dim, offset = _count(dim, "dim"), float(offset)
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=float).ravel()
        if not rows.size == cols.size == vals.size:
            raise ValueError(f"rows, cols and vals differ in length: "
                             f"{rows.size}, {cols.size}, {vals.size}")
        if rows.size:
            if (rows > cols).any():  # fold onto the upper triangle
                rows, cols = np.minimum(rows, cols), np.maximum(rows, cols)
            if rows.min() < 0 or cols.max() >= dim:
                raise IndexError(f"coefficient indices {rows.min()}..{cols.max()} "
                                 f"outside 0..{dim - 1}")
        key = rows * dim
        key += cols
        if (key[1:] > key[:-1]).all():
            # already in canonical order (builders and move QUBOs are): each
            # key's bincount sum would be 0.0 + v, which is v unless v is zero
            del key
            pick = vals != 0.0
            vals = vals[pick]
        else:
            # a stable sort merges sorted runs (np.unique would quicksort) and
            # keeps each key's entries in input order, the order bincount adds
            order = np.argsort(key, kind="stable")
            key = key[order]
            first = np.concatenate(([True], key[1:] != key[:-1]))
            del key
            sums = np.bincount(np.cumsum(first) - 1, weights=vals[order])
            keep = sums != 0.0
            pick = order[first][keep]  # one input entry of each kept key
            del order, first
            vals = sums[keep]
        _check_finite(vals, offset)  # after summing: sums can overflow
        self._adopt(dim, rows[pick], cols[pick], vals, offset)

    @classmethod
    def _from_canonical(cls, dim: int, rows, cols, vals,
                        offset: float = 0.0) -> "Qubo":
        """A Qubo adopting int64 rows, cols and float vals already in canonical
        order (keys strictly increasing, row <= col, no zeros); only the index
        range and finiteness are checked, the constructor's fixed cost is not
        paid."""
        if rows.size and (rows[0] < 0 or cols.max() >= dim):
            raise IndexError(f"coefficient indices {rows[0]}..{cols.max()} "
                             f"outside 0..{dim - 1}")
        _check_finite(vals, offset)
        out = object.__new__(cls)
        out._adopt(dim, rows, cols, vals, offset)
        return out

    def _adopt(self, dim, rows, cols, vals, offset, factored=None):
        """Take arrays already in canonical form, without copying them."""
        for a in (rows, cols, vals):
            a.flags.writeable = False
        for name, value in zip(self.__slots__,
                               (dim, offset, rows, cols, vals, None, factored)):
            object.__setattr__(self, name, value)

    def with_factored(self, factored) -> "Qubo":
        """This Qubo, sharing its arrays, with `factored` in that slot."""
        out = object.__new__(Qubo)
        out._adopt(self.dim, self.rows, self.cols, self.vals, self.offset, factored)
        return out

    def __reduce__(self):
        return Qubo, (self.dim, self.rows, self.cols, self.vals, self.offset)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("Qubo instances are immutable")

    @property
    def num_terms(self) -> int:
        return self.vals.size

    def adjacency(self):
        """Per-variable coupling lists: (diag, neighbor index arrays, weight arrays).

        diag[i] is the coefficient of the diagonal term (i, i).  neighbors[i]
        and weights[i] list every j != i coupled to i with the stored
        off-diagonal coefficient: first the entries (i, j), then the entries
        (j, i), each in stored order.  They are read-only, consecutive slices
        of one flat neighbour array and one flat weight array, whose last slot
        is in no list.
        """
        cached = self._adjacency
        if cached is None:
            dim, rows, cols, vals = self.dim, self.rows, self.cols, self.vals
            by_row = np.bincount(rows, minlength=dim)
            by_col = np.bincount(cols, minlength=dim)
            first = np.cumsum(by_row) - by_row  # row i's run starts here
            # a stored diagonal is the first entry of its row's run
            has = np.zeros(dim, dtype=bool)
            nonempty = np.flatnonzero(by_row)
            has[nonempty] = cols[first[nonempty]] == nonempty
            diag = np.zeros(dim)
            diag[has] = vals[first[has]]
            upper, lower = by_row - has, by_col - has
            bounds = np.zeros(dim + 1, dtype=np.int64)
            np.cumsum(upper + lower, out=bounds[1:])
            # one spare slot past the lists takes the diagonal entries' writes
            dst = np.empty(bounds[-1] + 1, dtype=np.int64)
            w = np.empty(bounds[-1] + 1)
            # entry k = (i, j), j > i, goes to bounds[i] + k - first[i] - has[i]
            _scatter(dst, w, bounds[:-1] - first - has, None, rows, cols, vals)
            # place p of the column order holds some (j, i), j < i, bound for
            # bounds[i] + upper[i] + p - (start of column i's run); a stored
            # diagonal comes last in its run
            _scatter(dst, w, bounds[:-1] + upper - (np.cumsum(by_col) - by_col),
                     np.argsort(cols, kind="stable"), cols, rows, vals)
            for a in (diag, dst, w):
                a.flags.writeable = False
            neighbors = [dst[bounds[i] : bounds[i + 1]] for i in range(dim)]
            weights = [w[bounds[i] : bounds[i + 1]] for i in range(dim)]
            cached = (diag, neighbors, weights)
            object.__setattr__(self, "_adjacency", cached)
        return cached

    def evaluate(self, x: np.ndarray) -> float:
        """Score one bit vector of length dim (a numpy sum, not a BLAS dot,
        so the score does not depend on the BLAS thread count)."""
        x = np.asarray(x)
        if x.shape != (self.dim,):
            raise ValueError(f"bit vector has shape {x.shape}, expected ({self.dim},)")
        xb = x.astype(bool, copy=False)
        return float(self.offset + (self.vals * xb[self.rows] * xb[self.cols]).sum())

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        """Score a (batch, dim) matrix of bit vectors at once.

        Each row's terms are added one by one in stored order, whatever the
        batch size (numpy's sum would add a lone row pairwise)."""
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"expected shape (batch, {self.dim}), got {X.shape}")
        if not self.num_terms:
            return self.offset + np.zeros(len(X))
        Xf = X.astype(float, copy=False)
        terms = Xf[:, self.rows] * Xf[:, self.cols] * self.vals
        return self.offset + np.cumsum(terms, axis=1, out=terms)[:, -1]

    def clamp(self, x: np.ndarray, free: np.ndarray) -> tuple["Qubo", np.ndarray]:
        """Fix every variable outside the index array `free` at its bit in x
        and shrink the problem.

        Returns (sub, remap) where remap[f] is the original index of the f-th
        free variable, in increasing order.  Scores are preserved: evaluating
        sub on x[remap] equals evaluating self on x.  The constant and the
        folded linear terms are summed in (row, col) order.
        """
        x = _bit_vector(x, self.dim, "clamped vector")
        free = np.asarray(free, dtype=np.int64)
        if free.size and (free.min() < 0 or free.max() >= self.dim):
            raise IndexError(f"free indices {free.min()}..{free.max()} "
                             f"outside 0..{self.dim - 1}")
        is_free = np.zeros(self.dim, dtype=bool)
        is_free[free] = True
        remap = np.flatnonzero(is_free)
        new_pos = np.cumsum(is_free) - 1
        rows, cols, vals = self.rows, self.cols, self.vals
        # a fixed 0 drops the entry; a fixed 1 folds it onto the other index
        nonzero = is_free | (x == 1)
        live = nonzero[rows] & nonzero[cols]
        kept = live & (is_free[rows] | is_free[cols])
        new_rows = np.where(is_free[rows], new_pos[rows], new_pos[cols])
        new_cols = np.where(is_free[cols], new_pos[cols], new_pos[rows])
        offset = np.cumsum(np.append(self.offset, vals[live & ~kept]))[-1]
        return Qubo(remap.size, new_rows[kept], new_cols[kept], vals[kept],
                    offset), remap

    def __eq__(self, other) -> bool:
        if not isinstance(other, Qubo):
            return NotImplemented
        return (self.dim, self.offset) == (other.dim, other.offset) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("rows", "cols", "vals"))

    def __repr__(self):
        return f"Qubo(dim={self.dim}, terms={self.num_terms}, offset={self.offset!r})"


def weighted_sum(terms: Iterable[tuple[float, Qubo]]) -> Qubo:
    """Linear combination sum(w * Q) of equally sized Qubos.

    Shared keys are summed in term order.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("weighted_sum needs at least one term")
    dim = terms[0][1].dim
    offset = 0.0
    for w, q in terms:
        if q.dim != dim:
            raise DimensionMismatchError(f"mixing dims {dim} and {q.dim}")
        offset += w * q.offset
    return _merge(dim, ((q.rows * dim + q.cols, w * q.vals) for w, q in terms),
                  offset)


def normalize_range(
    q: Qubo, score_min: float, score_max: float, ones_count: int
) -> Qubo:
    """Affinely rescale scores to [0, 1] for vectors with a known bit count.

    For every x with exactly ones_count set bits,
    ``normalize_range(q, lo, hi, m).evaluate(x) == (q.evaluate(x) - lo) / (hi - lo)``.
    The lo shift is spread uniformly over the diagonal, so the identity only
    holds at that bit count.
    """
    if score_max <= score_min:
        raise DegenerateRangeError(
            f"score range [{score_min}, {score_max}] is empty"
        )
    _count(ones_count, "ones_count", 1)
    span = score_max - score_min
    shift = score_min / ones_count
    diag = np.arange(q.dim) * (q.dim + 1)
    return _merge(q.dim, [(q.rows * q.dim + q.cols, q.vals / span),
                          (diag, np.full(q.dim, -(shift / span)))], q.offset / span)


def round_to_grid(q: Qubo) -> Qubo:
    """q with its offset and coefficients rounded to the nearest multiple of
    g = 2^(e - 51), where total = |offset| + sum |vals| < 2^e, so that every
    sum of its terms is exact.

    Each value moves by at most g / 2, a score by at most (terms + 1) g / 2,
    and the rounded values sum in magnitude to total' < 2^(e + 1) = 2^52 g
    (for terms < 2^51; the slack also covers the rounding of total).  Every
    multiple of g below 2^53 g in magnitude is a float, so a float sum or
    difference of two of them is exact whenever its exact result is below
    2^53 g.  Every number the samplers form from the terms is a signed sum
    of a subset of the rounded values, so below total': the partial sums of
    evaluate, evaluate_many and _all_deltas (in any order, with any BLAS
    thread count), clamp's offset and merged coefficients, and each delta,
    score and score + d of a tabu or annealing walk.  A clamp sums disjoint
    subsets of the rounded values, so it stays on the same grid within the
    same bound, and so do the walks on it.

    Returns q itself when total is 0 or at least 2^1022 (4 total may
    overflow), or when g underflows (total < 2^-1024: every value is then
    subnormal and every sum exact already).
    """
    with np.errstate(over="ignore"):  # an infinite total is kept below
        total = abs(q.offset) + float(np.abs(q.vals).sum())
    if not 0.0 < total < 2.0 ** 1022:
        return q
    g = math.ldexp(1.0, math.frexp(total)[1] - 51)
    if g == 0.0:
        return q
    vals = np.rint(q.vals / g) * g
    keep = vals != 0.0
    return Qubo._from_canonical(q.dim, q.rows[keep], q.cols[keep], vals[keep],
                                float(np.rint(q.offset / g)) * g)


def _integer(value, name: str) -> int:
    """value as an int; InputError unless it is an integer (operator.index:
    a float, even 2.0, NaN or infinity, is not)."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None


def _count(value, name: str, least: int = 0) -> int:
    """value as an int of at least `least`; InputError otherwise."""
    value = _integer(value, name)
    if value < least:
        raise InputError(f"{name} must be at least {least}, got {value}")
    return value


def _bit_vector(x, dim: int, name: str) -> np.ndarray:
    """An int8 copy of x, checked before the cast to be 0/1 of shape (dim,)."""
    x = np.asarray(x)
    if x.shape != (dim,) or not ((x == 0) | (x == 1)).all():
        raise ValueError(f"{name} must be a 0/1 vector of shape ({dim},)")
    return x.astype(np.int8)


def _check_finite(vals: np.ndarray, offset: float) -> None:
    if not math.isfinite(offset) or not np.isfinite(vals).all():
        raise NonFiniteError("QUBO coefficients and offset must be finite")


_CHUNK = 1 << 16  # entries per step of _scatter


def _scatter(dst, w, shift, order, src, other, vals) -> None:
    """dst[shift[s] + p], w[shift[s] + p] = t, v for every entry at place p of
    `order` (None: stored order), where s = src[k], t = other[k] and
    v = vals[k] of the entry k there; a diagonal entry (s == t) writes to the
    spare last slot instead.  Chunk-sized temporaries only."""
    spare = dst.size - 1
    for start in range(0, src.size, _CHUNK):
        stop = min(start + _CHUNK, src.size)
        k = slice(start, stop) if order is None else order[start:stop]
        s, t = src[k], other[k]
        at = shift[s]
        at += np.arange(start, stop)
        at[s == t] = spare
        dst[at] = t
        w[at] = vals[k]


def _merge(dim: int, parts, offset: float) -> Qubo:
    """Qubo summing parts (sorted unique keys row * dim + col, values) key by
    key, in part order as the constructor's bincount would; a sum starts at
    its first value, not at 0.0 plus it, which shows on a zero alone."""
    keys, vals = np.empty(0, dtype=np.int64), np.empty(0)
    for key, val in parts:
        if not keys.size:
            keys, vals = key, val
            continue
        at = np.searchsorted(keys, key)
        hit = keys.take(at, mode="clip") == key
        vals[at[hit]] += val[hit]
        hit = ~hit
        keys = np.insert(keys, at[hit], key[hit])
        vals = np.insert(vals, at[hit], val[hit])
    keep = vals != 0.0
    rows, cols = np.divmod(keys[keep], max(dim, 1))
    return Qubo._from_canonical(dim, rows, cols, vals[keep], offset)
