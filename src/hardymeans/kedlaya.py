"""Exact prefix-mixing combinatorics and inequality margin checks.

The coefficient family a_k(i, j) and the block matrix built from it
underlie the mixing argument showing that every symmetric, Jensen
concave, repetition invariant mean satisfies the prefix-average
inequality checked by :func:`check_kedlaya_inequality`.  Coefficients
are exact integers computed from multiplicative binomials; the "factorial
of a negative integer is infinite" convention becomes "out-of-range
binomials vanish", which is division free.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .core import MeanExpr, as_samples, evaluate, evaluate_batch, prefix_means
from .probes import ProbeConfig, length_groups, sample_vector

__all__ = [
    "MAX_COEFFICIENT_N",
    "MAX_MATRIX_N",
    "kedlaya_coefficient",
    "KedlayaTable",
    "kedlaya_table",
    "KedlayaMatrix",
    "kedlaya_matrix",
    "check_kedlaya_inequality",
    "check_dominated_kedlaya",
    "kedlaya_margins",
    "matrix_mixing_margin",
]

# (n-1)! scale keeps every coefficient inside exact 64-bit range
MAX_COEFFICIENT_N = 12
# the matrix has (n!)^2 entries; 6! = 720 keeps memory modest
MAX_MATRIX_N = 6


def _check_n(n: int, cap: int, *, floor: int = 1) -> None:
    if not (floor <= n <= cap):
        raise ValueError(f"n must be in [{floor}, {cap}], got {n}")


def kedlaya_coefficient(n: int, i: int, j: int, k: int) -> int:
    """Exact nonnegative integer a_k(i, j) for symbols 1..n.

    a_k(i, j) = (n-1)! * C(n-i, j-k) * C(i-1, k-1) / C(n-1, j-1),
    with out-of-range binomials evaluating to 0.
    """
    _check_n(n, MAX_COEFFICIENT_N)
    for name, v in (("i", i), ("j", j), ("k", k)):
        if not (1 <= v <= n):
            raise ValueError(f"{name} must be in [1, {n}], got {v}")
    if j - k < 0:
        return 0
    num = factorial(n - 1) * comb(n - i, j - k) * comb(i - 1, k - 1)
    q, r = divmod(num, comb(n - 1, j - 1))
    if r:  # structurally impossible; guards the integrality contract
        raise ArithmeticError(f"a_{k}({i},{j}) is not integral at n={n}")
    return q


@dataclass(frozen=True)
class KedlayaTable:
    """All coefficients for a fixed n, keyed by (i, j, k)."""

    n: int
    coefficients: dict

    def coefficient(self, i: int, j: int, k: int) -> int:
        return self.coefficients[(i, j, k)]

    def audit(self) -> dict[str, bool]:
        """Exact integer checks of the six structural properties."""
        n, c = self.n, self.coefficients
        rng = range(1, n + 1)
        return {
            "nonnegative": all(v >= 0 for v in c.values()),
            "integral": all(isinstance(v, int) for v in c.values()),
            "vanishes_beyond_min": all(
                c[(i, j, k)] == 0
                for i in rng
                for j in rng
                for k in rng
                if k > min(i, j)
            ),
            "symmetric": all(
                c[(i, j, k)] == c[(j, i, k)] for i in rng for j in rng for k in rng
            ),
            "row_sum": all(
                sum(c[(i, j, k)] for k in rng) == factorial(n - 1)
                for i in rng
                for j in rng
            ),
            "column_sum": all(
                sum(c[(i, j, k)] for i in rng)
                == (factorial(n) // j if k <= j else 0)
                for j in rng
                for k in rng
            ),
        }


def kedlaya_table(n: int) -> KedlayaTable:
    _check_n(n, MAX_COEFFICIENT_N)
    rng = range(1, n + 1)
    coefficients = {
        (i, j, k): kedlaya_coefficient(n, i, j, k) for i in rng for j in rng for k in rng
    }
    return KedlayaTable(n=n, coefficients=coefficients)


@dataclass(frozen=True)
class KedlayaMatrix:
    """n! x n! matrix of symbols 1..n in (n-1)! x (n-1)! cyclic blocks.

    Block (i, j) has first row listing symbol k with multiplicity
    a_k(i, j) in ascending symbol order; the remaining rows are its
    cyclic left shifts, so every row and column of the block carries the
    same symbol multiset.
    """

    n: int
    entries: np.ndarray

    @property
    def block_size(self) -> int:
        return factorial(self.n - 1)

    def block(self, i: int, j: int) -> np.ndarray:
        m = self.block_size
        return self.entries[(i - 1) * m : i * m, (j - 1) * m : j * m]

    def band(self, p: int) -> int:
        """Block-row index b(p) = floor((p-1)/(n-1)!) + 1 for a 1-based p."""
        return (p - 1) // self.block_size + 1

    def expected_count(self, p: int, k: int) -> int:
        """Occurrences of symbol k required in row (and column) p."""
        b = self.band(p)
        return factorial(self.n) // b if k <= b else 0

    def audit_occurrences(self) -> bool:
        """Exhaustively verify row and column symbol counts."""
        size = factorial(self.n)
        for p in range(1, size + 1):
            expected = [self.expected_count(p, k) for k in range(1, self.n + 1)]
            row = np.bincount(self.entries[p - 1], minlength=self.n + 1)[1:]
            col = np.bincount(self.entries[:, p - 1], minlength=self.n + 1)[1:]
            if list(row) != expected or list(col) != expected:
                return False
        return True


def kedlaya_matrix(n: int) -> KedlayaMatrix:
    _check_n(n, MAX_MATRIX_N, floor=2)
    table = kedlaya_table(n)
    m = factorial(n - 1)
    size = factorial(n)
    entries = np.zeros((size, size), dtype=np.int64)
    symbols = np.arange(1, n + 1)
    # row r of a block is its first row shifted left by r
    cyclic = np.add.outer(np.arange(m), np.arange(m)) % m
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            counts = [table.coefficient(i, j, k) for k in range(1, n + 1)]
            first = np.repeat(symbols, counts)
            entries[(i - 1) * m : i * m, (j - 1) * m : j * m] = first[cyclic]
    return KedlayaMatrix(n=n, entries=entries)


def _prefix_average_margins(expr: MeanExpr, xs: np.ndarray) -> np.ndarray:
    """check_kedlaya_inequality on every row of a validated (..., n) stack."""
    n = xs.shape[-1]
    rhs = evaluate_batch(expr, np.cumsum(xs, axis=-1) / np.arange(1.0, n + 1.0))
    prefix = prefix_means(expr, xs).reshape(-1, n)
    lhs = np.array([math.fsum(row) for row in prefix]).reshape(rhs.shape) / n
    return rhs - lhs


def check_kedlaya_inequality(expr: MeanExpr, x) -> float:
    """Signed margin of the prefix-average inequality at x.

    Returns M(x_1, (x_1+x_2)/2, ..., (x_1+...+x_n)/n) minus the
    arithmetic average of M over the prefixes of x; nonnegative means
    the inequality holds at x.
    """
    return float(_prefix_average_margins(expr, as_samples(x)))


def check_dominated_kedlaya(expr: MeanExpr, x) -> float:
    """Signed margin of the dominated variant for increasing means:
    n * M(s, s/2, ..., s/n) with s = sum(x), minus the sum of M over
    prefixes of x."""
    xs = as_samples(x)
    n = xs.size
    s = float(xs.sum())
    rhs = n * evaluate(expr, s / np.arange(1.0, n + 1.0))
    return rhs - math.fsum(prefix_means(expr, xs))


def kedlaya_margins(
    expr: MeanExpr,
    samples: int = 500,
    seed: int = 0,
    dims: tuple[int, int] = (1, 6),
    entry_range: tuple[float, float] = (0.1, 10.0),
) -> np.ndarray:
    """Margins of check_kedlaya_inequality on seeded log-uniform vectors.

    The moderate entry range keeps floating-point noise in the margins
    well below the 1e-12 resolution used to call a violation.  The
    arguments are validated as a :class:`~hardymeans.probes.ProbeConfig`.
    """
    ProbeConfig(samples=samples, dims=dims, seed=seed, entry_range=entry_range)
    rng = np.random.default_rng(seed)
    lengths = rng.integers(dims[0], dims[1] + 1, size=samples)
    margins = np.empty(samples)
    for d, idx in length_groups(lengths, dims):
        margins[idx] = _prefix_average_margins(expr, sample_vector(rng, (idx.size, d), entry_range))
    return margins


def matrix_mixing_margin(expr: MeanExpr, x, matrix: KedlayaMatrix | None = None) -> float:
    """Direct re-enactment of the mixing step on the substituted matrix.

    Substitutes x_k for symbol k, applies the mean column-wise and
    averages, then averages row-wise and applies the mean; returns the
    second value minus the first.  Nonnegative for symmetric, Jensen
    concave, repetition invariant means.
    """
    xs = as_samples(x)
    mat = matrix if matrix is not None else kedlaya_matrix(xs.size)
    if mat.n != xs.size:
        raise ValueError(f"matrix is for n={mat.n}, sample has length {xs.size}")
    substituted = xs[mat.entries - 1]
    size = factorial(mat.n)
    lhs = math.fsum(evaluate_batch(expr, substituted.T)) / size
    rhs = evaluate(expr, substituted.mean(axis=1))
    return rhs - lhs
