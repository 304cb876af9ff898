"""Sparse quadratic unconstrained binary optimization (QUBO) container.

A Qubo stores an upper-triangular coefficient map plus an explicit scalar
offset.  The score of a 0/1 vector x is

    offset + sum over stored (i, j) of coeffs[i, j] * x[i] * x[j]

with i <= j.  Symmetric or lower-triangular input is folded into this
canonical form at construction time and zero coefficients are dropped, so two
Qubos built from the same quadratic form compare equal entry by entry.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "Qubo",
    "DimensionMismatchError",
    "DegenerateRangeError",
    "weighted_sum",
    "normalize_range",
]


class DimensionMismatchError(ValueError):
    """Qubos of different dimension were combined."""


class DegenerateRangeError(ValueError):
    """Score range normalization was asked for an empty score range."""


class Qubo:
    """Immutable sparse QUBO with an explicit constant offset."""

    __slots__ = ("dim", "offset", "_coeffs", "_triplets", "_adjacency")

    def __init__(
        self,
        dim: int,
        coeffs: Mapping[tuple[int, int], float] | None = None,
        offset: float = 0.0,
    ):
        if int(dim) != dim or dim < 0:
            raise ValueError(f"dim must be a non-negative integer, got {dim!r}")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "offset", float(offset))
        canon: dict[tuple[int, int], float] = {}
        if coeffs:
            for (i, j), v in coeffs.items():
                i, j = int(i), int(j)
                if not (0 <= i < dim and 0 <= j < dim):
                    raise IndexError(
                        f"coefficient index ({i}, {j}) outside 0..{dim - 1}"
                    )
                if i > j:
                    i, j = j, i
                v = float(v)
                key = (i, j)
                canon[key] = canon.get(key, 0.0) + v
            for key in [key for key, v in canon.items() if v == 0.0]:
                del canon[key]
        object.__setattr__(self, "_coeffs", canon)
        object.__setattr__(self, "_triplets", None)
        object.__setattr__(self, "_adjacency", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("Qubo instances are immutable")

    @property
    def coeffs(self) -> Mapping[tuple[int, int], float]:
        """Read-only view of the canonical upper-triangular coefficients."""
        return MappingProxyType(self._coeffs)

    @property
    def num_terms(self) -> int:
        return len(self._coeffs)

    def coefficient(self, i: int, j: int) -> float:
        """Stored coefficient for the unordered pair (i, j); 0.0 if absent."""
        if i > j:
            i, j = j, i
        return self._coeffs.get((i, j), 0.0)

    def _triplet_arrays(self):
        """Cached (rows, cols, vals) arrays in deterministic (i, j) order."""
        cached = self._triplets
        if cached is None:
            items = sorted(self._coeffs.items())
            rows = np.fromiter((i for (i, _), _ in items), dtype=np.int64, count=len(items))
            cols = np.fromiter((j for (_, j), _ in items), dtype=np.int64, count=len(items))
            vals = np.fromiter((v for _, v in items), dtype=float, count=len(items))
            cached = (rows, cols, vals)
            object.__setattr__(self, "_triplets", cached)
        return cached

    def adjacency(self):
        """Per-variable coupling lists: (diag, neighbor index arrays, weight arrays).

        diag[i] is the coefficient of the diagonal term (i, i).  neighbors[i]
        and weights[i] list every j != i coupled to i with the stored
        off-diagonal coefficient.
        """
        cached = self._adjacency
        if cached is None:
            rows, cols, vals = self._triplet_arrays()
            on_diag = rows == cols
            diag = np.zeros(self.dim)
            diag[rows[on_diag]] = vals[on_diag]
            r, c, v = rows[~on_diag], cols[~on_diag], vals[~on_diag]
            src = np.concatenate([r, c])
            dst = np.concatenate([c, r])
            w = np.concatenate([v, v])
            order = np.argsort(src, kind="stable")
            src, dst, w = src[order], dst[order], w[order]
            counts = np.bincount(src, minlength=self.dim)
            bounds = np.concatenate([[0], np.cumsum(counts)])
            neighbors = [dst[bounds[i] : bounds[i + 1]] for i in range(self.dim)]
            weights = [w[bounds[i] : bounds[i + 1]] for i in range(self.dim)]
            cached = (diag, neighbors, weights)
            object.__setattr__(self, "_adjacency", cached)
        return cached

    def evaluate(self, x: np.ndarray) -> float:
        """Score one bit vector of length dim."""
        x = np.asarray(x)
        if x.shape != (self.dim,):
            raise ValueError(f"bit vector has shape {x.shape}, expected ({self.dim},)")
        rows, cols, vals = self._triplet_arrays()
        xf = x.astype(float, copy=False)
        return float(self.offset + vals @ (xf[rows] * xf[cols]))

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        """Score a (batch, dim) matrix of bit vectors at once."""
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"expected shape (batch, {self.dim}), got {X.shape}")
        rows, cols, vals = self._triplet_arrays()
        Xf = X.astype(float, copy=False)
        return self.offset + (Xf[:, rows] * Xf[:, cols]) @ vals

    def clamp(self, fixed: Mapping[int, int]) -> tuple["Qubo", np.ndarray]:
        """Fix a subset of variables to constants and shrink the problem.

        Returns (sub, remap) where remap[f] is the original index of the f-th
        free variable.  Scores are preserved: evaluating sub on the free bits
        equals evaluating self on the merged vector.
        """
        for idx, bit in fixed.items():
            if not 0 <= idx < self.dim:
                raise IndexError(f"clamped index {idx} outside 0..{self.dim - 1}")
            if bit not in (0, 1):
                raise ValueError(f"clamped value for {idx} must be 0 or 1, got {bit!r}")
        remap = np.array(
            [i for i in range(self.dim) if i not in fixed], dtype=np.int64
        )
        new_pos = {int(orig): f for f, orig in enumerate(remap)}
        coeffs: dict[tuple[int, int], float] = {}
        offset = self.offset
        for (i, j), v in self._coeffs.items():
            i_fixed, j_fixed = i in fixed, j in fixed
            if i_fixed and j_fixed:
                offset += v * fixed[i] * (fixed[j] if i != j else 1)
            elif i_fixed:
                if fixed[i] == 1:
                    key = (new_pos[j], new_pos[j])
                    coeffs[key] = coeffs.get(key, 0.0) + v
            elif j_fixed:
                if fixed[j] == 1:
                    key = (new_pos[i], new_pos[i])
                    coeffs[key] = coeffs.get(key, 0.0) + v
            else:
                key = (new_pos[i], new_pos[j])
                coeffs[key] = coeffs.get(key, 0.0) + v
        return Qubo(len(remap), coeffs, offset), remap

    def __eq__(self, other) -> bool:
        if not isinstance(other, Qubo):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.offset == other.offset
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash((self.dim, self.offset, frozenset(self._coeffs.items())))

    def __repr__(self):
        return f"Qubo(dim={self.dim}, terms={len(self._coeffs)}, offset={self.offset!r})"


def weighted_sum(terms: Iterable[tuple[float, Qubo]]) -> Qubo:
    """Linear combination sum(w * Q) of equally sized Qubos."""
    terms = list(terms)
    if not terms:
        raise ValueError("weighted_sum needs at least one term")
    dim = terms[0][1].dim
    coeffs: dict[tuple[int, int], float] = {}
    offset = 0.0
    for w, q in terms:
        if q.dim != dim:
            raise DimensionMismatchError(f"mixing dims {dim} and {q.dim}")
        offset += w * q.offset
        for key, v in q._coeffs.items():
            coeffs[key] = coeffs.get(key, 0.0) + w * v
    return Qubo(dim, coeffs, offset)


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
    if ones_count < 1:
        raise ValueError("ones_count must be at least 1")
    span = score_max - score_min
    shift = score_min / ones_count
    coeffs = {key: v / span for key, v in q._coeffs.items()}
    if shift != 0.0:
        for i in range(q.dim):
            key = (i, i)
            coeffs[key] = coeffs.get(key, 0.0) - shift / span
    return Qubo(q.dim, coeffs, q.offset / span)
