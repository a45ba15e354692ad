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
from .probes import pad_rows, sample_block

__all__ = [
    "MAX_COEFFICIENT_N",
    "MAX_MATRIX_N",
    "kedlaya_coefficient",
    "KedlayaTable",
    "kedlaya_table",
    "KedlayaMatrix",
    "kedlaya_matrix",
    "check_kedlaya_inequality",
    "kedlaya_margins",
    "matrix_mixing_margin",
]

# (n-1)! scale keeps every coefficient inside exact 64-bit range
MAX_COEFFICIENT_N = 12
# the matrix has (n!)^2 entries; 6! = 720 keeps memory modest
MAX_MATRIX_N = 6
MARGIN_DIMS = (1, 6)
MARGIN_ENTRY_RANGE = (0.1, 10.0)


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


@dataclass(frozen=True, eq=False)
class KedlayaTable:
    """All coefficients for a fixed n: ``coefficients[i-1, j-1, k-1]`` is
    a_k(i, j), as an int64 array (every coefficient is at most (n-1)!)."""

    n: int
    coefficients: np.ndarray

    def coefficient(self, i: int, j: int, k: int) -> int:
        if not 1 <= min(i, j, k) <= max(i, j, k) <= self.n:
            raise ValueError(f"i, j and k must lie in [1, {self.n}]")
        return int(self.coefficients[i - 1, j - 1, k - 1])

    def audit(self) -> dict[str, bool]:
        """Exact integer checks of the six structural properties."""
        n, c = self.n, self.coefficients
        sym = np.arange(1, n + 1)
        smaller = np.minimum.outer(sym, sym)[..., None]  # min(i, j), by (i, j)
        checks = {
            "nonnegative": np.all(c >= 0),
            "integral": c.dtype == np.int64,
            "vanishes_beyond_min": np.all(c[sym > smaller] == 0),
            "symmetric": np.array_equal(c, c.transpose(1, 0, 2)),
            "row_sum": np.all(c.sum(axis=2) == factorial(n - 1)),
            # column (j, k) sums to n!/j for k <= j, else 0
            "column_sum": np.array_equal(
                c.sum(axis=0), np.where(sym <= sym[:, None], factorial(n) // sym[:, None], 0)
            ),
        }
        return {name: bool(ok) for name, ok in checks.items()}


def kedlaya_table(n: int) -> KedlayaTable:
    _check_n(n, MAX_COEFFICIENT_N)
    rng = range(1, n + 1)
    coefficients = np.array(
        [[[kedlaya_coefficient(n, i, j, k) for k in rng] for j in rng] for i in rng],
        dtype=np.int64,
    )
    return KedlayaTable(n=n, coefficients=coefficients)


@dataclass(frozen=True, eq=False)
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

    def audit_occurrences(self) -> bool:
        """Exhaustively verify row and column symbol counts: row and
        column p carry symbol k n!/b times for k <= b and never for k > b,
        where b = floor((p-1)/(n-1)!) + 1 is the block row of p."""
        n, size = self.n, factorial(self.n)
        band = np.arange(size) // self.block_size + 1
        for k in range(1, n + 1):
            expected = np.where(k <= band, size // band, 0)
            at_k = self.entries == k
            for axis in (1, 0):
                if not np.array_equal(np.count_nonzero(at_k, axis=axis), expected):
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
            first = np.repeat(symbols, table.coefficients[i - 1, j - 1])
            entries[(i - 1) * m : i * m, (j - 1) * m : j * m] = first[cyclic]
    return KedlayaMatrix(n=n, entries=entries)


def _prefix_average_margins(expr: MeanExpr, xs: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """check_kedlaya_inequality on the prefix of length lengths[i] of row i
    of a validated :func:`~hardymeans.probes.pad_rows` block, in one call."""
    averages = pad_rows(np.cumsum(xs, axis=1) / np.arange(1.0, xs.shape[1] + 1.0), lengths)
    prefix, at_averages = np.split(prefix_means(expr, np.concatenate([xs, averages])), 2)
    lhs = [math.fsum(row[:n]) for row, n in zip(prefix.tolist(), lengths.tolist())]
    return at_averages[np.arange(len(xs)), lengths - 1] - np.array(lhs) / lengths


def check_kedlaya_inequality(expr: MeanExpr, x) -> float:
    """Signed margin of the prefix-average inequality at x.

    Returns M(x_1, (x_1+x_2)/2, ..., (x_1+...+x_n)/n) minus the
    arithmetic average of M over the prefixes of x; nonnegative means
    the inequality holds at x.
    """
    xs = as_samples(x)
    return float(_prefix_average_margins(expr, xs[None], np.array([xs.size]))[0])


def kedlaya_margins(expr: MeanExpr, samples: int = 500, seed: int = 0) -> np.ndarray:
    """Margins of check_kedlaya_inequality on seeded log-uniform vectors
    of lengths in MARGIN_DIMS and entries in MARGIN_ENTRY_RANGE.

    The moderate entry range keeps floating-point noise in the margins
    well below the 1e-12 resolution used to call a violation.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    lengths = rng.integers(MARGIN_DIMS[0], MARGIN_DIMS[1] + 1, size=samples)
    x = sample_block(rng, lengths, MARGIN_DIMS[1], MARGIN_ENTRY_RANGE)
    return _prefix_average_margins(expr, x, lengths)


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
