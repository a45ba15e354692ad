import dataclasses
import math
from math import factorial

import numpy as np
import pytest

import hardymeans as hm
from hardymeans.kedlaya import MAX_COEFFICIENT_N, MAX_MATRIX_N
from conftest import IMPLICIT, ZOO, CountingRng, log_uniform


def coefficient_oracle(n, i, j, k):
    """Independent evaluation through the all-factorial closed form,
    with any negative factorial argument zeroing the value."""
    args = (n - i - j + k, i - k, j - k, k - 1)
    if any(a < 0 for a in args):
        return 0
    num = factorial(n - i) * factorial(n - j) * factorial(i - 1) * factorial(j - 1)
    den = math.prod(factorial(a) for a in args)
    q, r = divmod(num, den)
    assert r == 0
    return q


class TestCoefficients:
    def test_n2_values_by_hand(self):
        assert hm.kedlaya_coefficient(2, 1, 1, 1) == 1
        assert hm.kedlaya_coefficient(2, 1, 2, 1) == 1
        assert hm.kedlaya_coefficient(2, 2, 2, 1) == 0
        assert hm.kedlaya_coefficient(2, 2, 2, 2) == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_factorial_oracle(self, n):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    assert hm.kedlaya_coefficient(n, i, j, k) == coefficient_oracle(
                        n, i, j, k
                    )

    @pytest.mark.parametrize("n", range(1, MAX_COEFFICIENT_N + 1))
    def test_structural_properties_exact(self, n):
        audit = hm.kedlaya_table(n).audit()
        assert all(audit.values()), audit

    def test_vanishes_beyond_smaller_index(self):
        for n in (3, 5, 8):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    for k in range(min(i, j) + 1, n + 1):
                        assert hm.kedlaya_coefficient(n, i, j, k) == 0

    def test_row_sums_are_factorials(self):
        for n in (2, 5, 9):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    total = sum(
                        hm.kedlaya_coefficient(n, i, j, k) for k in range(1, n + 1)
                    )
                    assert total == factorial(n - 1)

    @pytest.mark.parametrize(
        "key,cells,value",
        [
            ("nonnegative", [(1, 2, 0)], -1),
            # a_3(2, 4) with 3 > min(2, 4), set on both sides of the diagonal
            ("vanishes_beyond_min", [(1, 3, 2), (3, 1, 2)], 1),
            ("symmetric", [(0, 3, 0)], 10**6),
        ],
    )
    def test_audit_sees_a_corrupted_table(self, key, cells, value):
        table = hm.kedlaya_table(5)
        bad = table.coefficients.copy()
        for cell in cells:
            bad[cell] = value
        audit = dataclasses.replace(table, coefficients=bad).audit()
        assert not audit[key], audit
        assert all(table.audit().values())

    def test_range_validation(self):
        with pytest.raises(ValueError):
            hm.kedlaya_coefficient(MAX_COEFFICIENT_N + 1, 1, 1, 1)
        with pytest.raises(ValueError):
            hm.kedlaya_coefficient(4, 0, 1, 1)
        with pytest.raises(ValueError):
            hm.kedlaya_coefficient(4, 1, 5, 1)
        for ijk in ((0, 1, 1), (1, 5, 1), (1, 1, -1)):
            with pytest.raises(ValueError, match=r"\[1, 4\]"):
                hm.kedlaya_table(4).coefficient(*ijk)


class TestMatrix:
    def test_n2_blocks(self):
        matrix = hm.kedlaya_matrix(2)
        assert matrix.block(1, 1).tolist() == [[1]]
        assert matrix.block(1, 2).tolist() == [[1]]
        assert matrix.block(2, 1).tolist() == [[1]]
        assert matrix.block(2, 2).tolist() == [[2]]
        assert matrix.entries.tolist() == [[1, 1], [1, 2]]

    @pytest.mark.parametrize("n", range(2, MAX_MATRIX_N + 1))
    def test_symbols_in_range(self, n):
        matrix = hm.kedlaya_matrix(n)
        assert matrix.entries.min() >= 1
        assert matrix.entries.max() <= n

    @pytest.mark.parametrize("n", range(2, MAX_MATRIX_N + 1))
    def test_row_and_column_occurrences(self, n):
        assert hm.kedlaya_matrix(n).audit_occurrences()

    def test_occurrence_audit_sees_a_swap_within_a_row(self):
        matrix = hm.kedlaya_matrix(4)
        entries = matrix.entries.copy()
        row = entries[-1]  # the last block row carries every symbol
        a, b = 0, int(np.flatnonzero(row != row[0])[0])
        row[[a, b]] = row[[b, a]]
        assert not dataclasses.replace(matrix, entries=entries).audit_occurrences()
        assert matrix.audit_occurrences()

    @pytest.mark.parametrize("n", (3, 4))
    def test_block_rows_and_columns_share_multiset(self, n):
        matrix = hm.kedlaya_matrix(n)
        table = hm.kedlaya_table(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                block = matrix.block(i, j)
                expected = [
                    table.coefficient(i, j, k) for k in range(1, n + 1)
                ]
                for r in range(block.shape[0]):
                    assert list(np.bincount(block[r], minlength=n + 1)[1:]) == expected
                    assert (
                        list(np.bincount(block[:, r], minlength=n + 1)[1:]) == expected
                    )

    @pytest.mark.parametrize("n", range(2, MAX_MATRIX_N + 1))
    def test_block_rows_are_left_shifts_of_the_first(self, n):
        matrix = hm.kedlaya_matrix(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                block = matrix.block(i, j)
                shifted = [np.roll(block[0], -r) for r in range(block.shape[0])]
                assert np.array_equal(block, shifted)

    def test_compares_by_identity(self):
        matrix = hm.kedlaya_matrix(3)
        assert matrix == matrix
        assert (matrix == hm.kedlaya_matrix(3)) is False
        assert hash(matrix) == hash(matrix)

    def test_first_block_row_is_ascending(self):
        matrix = hm.kedlaya_matrix(4)
        for i in range(1, 5):
            for j in range(1, 5):
                first = matrix.block(i, j)[0]
                assert list(first) == sorted(first)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            hm.kedlaya_matrix(1)
        with pytest.raises(ValueError):
            hm.kedlaya_matrix(MAX_MATRIX_N + 1)


class TestInequalityChecks:
    def test_arithmetic_mean_gives_equality(self, rng):
        for _ in range(100):
            x = log_uniform(rng, int(rng.integers(1, 7)), 0.1, 10.0)
            assert abs(hm.check_kedlaya_inequality(hm.Power(1), x)) <= 1e-12

    @pytest.mark.parametrize("name", ["power(0)", "gini(0.5,-1)"])
    def test_concave_means_have_nonnegative_margin(self, name, rng):
        expr = ZOO[name]
        margins = hm.kedlaya_margins(expr, samples=500, seed=11)
        assert margins.min() >= -1e-12

    def test_margin_for_every_probe_passing_builtin(self):
        cfg = hm.ProbeConfig(samples=120, seed=5)
        needed = ("symmetry", "jensen_concavity", "repetition_invariance")
        checked = 0
        for expr in ZOO.values():
            report = hm.probe_properties(expr, cfg)
            if not all(report.holds(p) for p in needed):
                continue
            checked += 1
            margins = hm.kedlaya_margins(expr, samples=120, seed=6)
            assert margins.min() >= -1e-12, expr
        assert checked >= 5  # the concave core of the zoo

    @pytest.mark.parametrize("name", sorted(ZOO) + sorted(IMPLICIT))
    def test_margins_match_scalar_checks(self, name):
        expr = ZOO[name] if name in ZOO else IMPLICIT[name]
        for samples, seed in ((1, 0), (200, 3)):
            # the draw order, written out: all lengths, then a block of
            # entries whose row i holds sample i in its first lengths[i]
            rng = np.random.default_rng(seed)
            lo, hi = hm.kedlaya.MARGIN_DIMS
            lengths = rng.integers(lo, hi + 1, size=samples)
            log_lo, log_hi = np.log(hm.kedlaya.MARGIN_ENTRY_RANGE)
            rows = np.exp(rng.uniform(log_lo, log_hi, size=(samples, hi)))
            margins = hm.kedlaya_margins(expr, samples=samples, seed=seed)
            expected = []
            for row, n in zip(rows, lengths):
                v = row[:n]
                margin = hm.check_kedlaya_inequality(expr, v)
                # the check's definition, with one evaluate per vector
                averages = np.cumsum(v) / np.arange(1.0, n + 1.0)
                prefixes = [hm.evaluate(expr, v[:k]) for k in range(1, n + 1)]
                assert margin == hm.evaluate(expr, averages) - math.fsum(prefixes) / n
                expected.append(margin)
            assert margins.tolist() == expected

    def test_margins_draw_and_evaluate_in_blocks(self, monkeypatch):
        rngs, kernels = [], []
        default_rng, kernel = np.random.default_rng, hm.Gini.kernel

        def counting_rng(seed):
            rngs.append(CountingRng(default_rng(seed)))
            return rngs[-1]

        def counting_kernel(node, xs, cols):
            kernels.append(xs.shape)
            return kernel(node, xs, cols)

        monkeypatch.setattr(hm.kedlaya.np.random, "default_rng", counting_rng)
        monkeypatch.setattr(hm.Gini, "kernel", counting_kernel)
        for samples in (1, 200, 1000):
            hm.kedlaya_margins(hm.Gini(0.5, -1.0), samples=samples, seed=4)
            assert len(rngs) == 1 and rngs.pop().calls == 2
            # the vectors and their prefix averages, stacked
            assert kernels == [(2 * samples, hm.kedlaya.MARGIN_DIMS[1])]
            kernels.clear()

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"samples": 0}, "samples must be at least 1"),
        ],
    )
    def test_margin_arguments_validated(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            hm.kedlaya_margins(hm.Power(0), **kwargs)

    def test_non_concave_mean_genuinely_violates(self):
        # both exponents negative: not Jensen concave, and the
        # prefix-average inequality really does fail somewhere --
        # the margin check must be able to see that
        x = [1.888e-2, 2.819e2, 2.188e2, 1.193e1, 2.772e-2]
        assert hm.check_kedlaya_inequality(hm.Gini(-1, -2), x) < -1e-4


class TestMatrixReenactment:
    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_mixing_margin_nonnegative_and_consistent(self, n, rng):
        matrix = hm.kedlaya_matrix(n)
        for name in ("power(0)", "power(0.5)", "gini(0.5,-1)"):
            expr = ZOO[name]
            for _ in range(5):
                x = log_uniform(rng, n, 0.1, 10.0)
                margin = hm.matrix_mixing_margin(expr, x, matrix)
                assert margin >= -1e-10
                # symmetry + repetition invariance collapse the re-enactment
                # to the plain two-sided inequality margin
                assert margin == pytest.approx(
                    hm.check_kedlaya_inequality(expr, x), abs=1e-9
                )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hm.matrix_mixing_margin(hm.Power(0), [1.0, 2.0], hm.kedlaya_matrix(3))
