"""The n-term search and its grid oracle against one-point-at-a-time
references: the stacked ratio against per-row calls, the lockstep
Nelder-Mead against scipy.optimize.minimize, and the chunked grid
against a per-composition loop.  All comparisons are exact."""
import math

import numpy as np
import pytest

import hardymeans as hm
from hardymeans import hardy
from hardymeans.neldermead import minimize_lockstep
from conftest import IMPLICIT, ZOO, log_uniform

MEANS = {**ZOO, **IMPLICIT}
NAMES = sorted(MEANS)


class Failing(hm.MeanExpr):
    """A mean that is computed only on constant rows: a stack with any
    other row raises MeanComputationError."""

    def kernel(self, xs, cols):
        if (xs != xs[..., :1]).any():
            raise hm.MeanComputationError("a non-constant row")
        return xs[..., cols].copy()


FAILING = Failing()


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def grid_loop(expr, n, denominator):
    best = -math.inf
    for comp in compositions(denominator, n):
        x = np.maximum(np.array(comp, dtype=float) / denominator, 1e-12)
        best = max(best, hm.hardy_ratio(expr, x))
    return best


def to_point(z):
    w = np.exp(z - z.max())
    return np.maximum(w / w.sum(), 1e-300)


def scipy_sequence_bound(expr, n, cfg):
    """The search with one scipy.optimize.minimize call per start and one
    objective call per point."""
    optimize = pytest.importorskip("scipy.optimize")

    def negated(z):
        try:
            return -hm.hardy_ratio(expr, to_point(z))
        except hm.MeanComputationError:
            return math.inf

    best_value, best_x, trace = -math.inf, None, []
    for z0 in hardy._search_starts(n, cfg, np.random.default_rng(cfg.seed)):
        # SciPy's stopping test meets inf - inf on +inf scores, as the port does
        with np.errstate(invalid="ignore"):
            res = optimize.minimize(
                negated,
                z0,
                method="Nelder-Mead",
                options={
                    "maxfev": cfg.budget,
                    "maxiter": cfg.budget,
                    "xatol": 1e-12,
                    "fatol": 1e-14,
                    "adaptive": True,
                },
            )
        value = -res.fun if math.isfinite(res.fun) else -math.inf
        trace.append(value)
        if value > best_value:
            best_value, best_x = value, to_point(res.x)
    maximizer = tuple(float(v) for v in best_x)
    return hm.hardy_ratio(expr, maximizer), maximizer, tuple(trace), len(trace)


class TestStackedRatio:
    @pytest.mark.parametrize("name", NAMES)
    def test_rows_match_single_calls(self, name, rng):
        expr = MEANS[name]
        for n in (1, 2, 3, 5, 8):
            # moderate rows, and softmax points as the search makes them,
            # with coordinates decaying towards the 1e-300 floor
            for x in (
                log_uniform(rng, 6 * n).reshape(6, n),
                hardy._softmax_points(rng.normal(0.0, 60.0, size=(6, n))),
            ):
                stacked = hm.hardy_ratio(expr, x)
                assert stacked.shape == (6,)
                for row, value in zip(x, stacked):
                    assert value == hm.hardy_ratio(expr, row), (name, row)

    def test_leading_axes(self, rng):
        x = log_uniform(rng, 24).reshape(2, 3, 4)
        stacked = hm.hardy_ratio(hm.Power(0.5), x)
        assert stacked.shape == (2, 3)
        assert stacked[1, 2] == hm.hardy_ratio(hm.Power(0.5), x[1, 2])

    @pytest.mark.parametrize(
        "x", [[], [1.0, 0.0], [1.0, math.nan], [1.0, math.inf], [[1.0, 2.0], [1.0, -1.0]]]
    )
    def test_rejects_invalid_rows(self, x):
        with pytest.raises(ValueError):
            hm.hardy_ratio(hm.Power(0), x)

    def test_failing_row_scores_inf_alone(self):
        z = np.array([[0.0, 0.0, 0.0], [0.0, -1.0, -2.0], [0.5, 0.5, 0.5]])
        points = hardy._softmax_points(z)
        with pytest.raises(hm.MeanComputationError):
            hm.hardy_ratio(FAILING, points)
        with pytest.raises(hm.MeanComputationError):
            hm.hardy_ratio(FAILING, points[1])
        values = hardy._negated_ratios(FAILING, z)
        assert values == [-1.0, math.inf, -1.0]
        assert values[0] == -hm.hardy_ratio(FAILING, points[0])
        assert values[2] == -hm.hardy_ratio(FAILING, points[2])

    def test_floored_coordinates_take_the_log_domain_kernel(self):
        z = np.array([[0.0, -1.0, -2.0], [0.0, -800.0, 0.0], [0.0, 0.5, -0.5]])
        points = hardy._softmax_points(z)
        assert points[1, 1] == 1e-300
        # quasi(pow:-2) is power(-2), whose log-domain kernel does not overflow
        quasi = hm.QuasiArithmetic(hm.power_generator(-2))
        assert np.array_equal(hm.hardy_ratio(quasi, points), hm.hardy_ratio(hm.Power(-2), points))


def rosenbrock(z):
    return float(np.sum(100.0 * (z[1:] - z[:-1] ** 2) ** 2 + (1.0 - z[:-1]) ** 2))


def walled(z):
    # +inf outside a box, so some vertices score inf
    return math.inf if z.max() > 0.5 else rosenbrock(z)


def terraced(z):
    # piecewise constant, so the simplex meets many ties
    return float(np.floor(4.0 * rosenbrock(z)))


def scipy_minimize(fn, z0, maxfev):
    optimize = pytest.importorskip("scipy.optimize")
    with np.errstate(invalid="ignore"):  # inf - inf in SciPy's stopping test
        return optimize.minimize(
            fn,
            z0,
            method="Nelder-Mead",
            options={
                "maxfev": maxfev,
                "maxiter": maxfev,
                "xatol": 1e-12,
                "fatol": 1e-14,
                "adaptive": True,
            },
        )


def port_starts(dim, rng):
    starts = [np.zeros(dim), -np.arange(dim, dtype=float)]
    return starts + [rng.normal(0.0, 1.0, size=dim) for _ in range(3)]


def row_by_row(fn, rounds=None):
    """``fn`` as a stacked objective, recording each round's row count."""

    def score(stack):
        if rounds is not None:
            rounds.append(len(stack))
        return [fn(row) for row in stack]

    return score


FUNCTIONS = pytest.mark.parametrize(
    "fn", [rosenbrock, walled, terraced], ids=lambda f: f.__name__
)
# over the budgets 3 to 40 on dims 2 and 3, an evaluation is refused at
# every kind of step that can refuse one: in the initial simplex, at an
# expansion, at a contraction and part way through a shrink (an iteration,
# and so its reflection, starts only while budget is left)
LONG_BUDGETS = (10, 25, 200, 2000)


class TestNelderMeadPort:
    @pytest.mark.parametrize("maxfev", sorted({*range(3, 41), *LONG_BUDGETS}))
    @FUNCTIONS
    def test_matches_scipy(self, fn, maxfev):
        rng = np.random.default_rng(maxfev)
        for dim in (2, 3, 5, 12) if maxfev in LONG_BUDGETS else (2, 3):
            starts = port_starts(dim, rng)
            results = minimize_lockstep(row_by_row(fn), starts, maxfev, xatol=1e-12, fatol=1e-14)
            for z0, (x, fun, nfev) in zip(starts, results):
                res = scipy_minimize(fn, z0, maxfev)
                assert np.array_equal(x, res.x), (dim, z0)
                assert fun == res.fun and nfev == res.nfev, (dim, z0)


class TestLockstepRounds:
    """A lane asks for one iteration's four candidates per round, or for
    one shrink, so it never spends a round on a single point."""

    @pytest.mark.parametrize("maxfev", [17, 200])
    @FUNCTIONS
    def test_rows_per_round(self, fn, maxfev):
        rng = np.random.default_rng(maxfev)
        for dim in (2, 3, 5):
            starts = port_starts(dim, rng)
            alone = []
            for z0 in starts:
                rounds = []
                ((_, _, nfev),) = minimize_lockstep(
                    row_by_row(fn, rounds), [z0], maxfev, xatol=1e-12, fatol=1e-14
                )
                assert nfev == scipy_minimize(fn, z0, maxfev).nfev, (dim, z0)
                assert rounds[0] == dim + 1, (dim, z0)
                # a shrink cut short by the budget is the lane's last round
                assert all(rows in (4, dim) for rows in rounds[1:-1]), (dim, z0)
                assert len(rounds) == 1 or rounds[-1] == 4 or rounds[-1] <= dim, (dim, z0)
                alone.append(rounds)
            # in lockstep, each round stacks the rows every live lane asks
            # for at that round when run alone
            rounds = []
            minimize_lockstep(row_by_row(fn, rounds), starts, maxfev, xatol=1e-12, fatol=1e-14)
            assert rounds == [
                sum(lane[t] for lane in alone if t < len(lane))
                for t in range(max(map(len, alone)))
            ], dim


class TestSequenceBoundMatchesScipy:
    @pytest.mark.parametrize("name", NAMES)
    def test_same_result(self, name):
        expr = MEANS[name]
        for n in (2, 3, 4):
            for cfg in (
                hm.SearchConfig(restarts=6, seed=n),
                hm.SearchConfig(restarts=6, seed=n, budget=10),
                hm.SearchConfig(restarts=6, seed=n, budget=25),
            ):
                bound = hm.hardy_sequence_bound(expr, n, cfg)
                found = (bound.estimate, bound.maximizer, bound.trace, bound.restarts)
                assert found == scipy_sequence_bound(expr, n, cfg), (n, cfg)

    def test_failing_points_score_inf(self):
        # only the constant start converges; every point the search moves
        # to is non-constant and fails
        for n in (2, 3):
            cfg = hm.SearchConfig(restarts=6, seed=n, budget=200)
            bound = hm.hardy_sequence_bound(FAILING, n, cfg)
            found = (bound.estimate, bound.maximizer, bound.trace, bound.restarts)
            assert found == scipy_sequence_bound(FAILING, n, cfg)
            assert bound.trace[1:] == (-math.inf,) * 5
            assert bound.trace[0] == pytest.approx(1.0, rel=1e-12)

    def test_no_feasible_evaluation_is_an_error(self):
        # a mean that fails on every row, constant ones included, scores
        # +inf at every point of every restart
        class AlwaysFailing(hm.MeanExpr):
            def kernel(self, xs, cols):
                raise hm.MeanComputationError("no row is computed")

        cfg = hm.SearchConfig(restarts=4, budget=10)
        with pytest.raises(hm.MeanComputationError, match="no feasible evaluation"):
            hm.hardy_sequence_bound(AlwaysFailing(), 2, cfg)

    def test_fixed_and_extra_starts_always_run(self):
        # the four fixed starts run even when restarts asks for fewer
        bound = hm.hardy_sequence_bound(hm.Power(0), 2, hm.SearchConfig(restarts=1))
        assert bound.restarts == len(bound.trace) == 4


class TestSimplexGrid:
    @pytest.mark.parametrize("name", NAMES)
    def test_matches_per_composition_loop(self, name, monkeypatch):
        expr = MEANS[name]
        for n in (1, 2, 3):
            for denominator in (8, 30):
                assert hm.simplex_grid_bound(expr, n, denominator) == grid_loop(
                    expr, n, denominator
                ), (n, denominator)
        # 45 compositions in chunks of 7 rows
        monkeypatch.setattr(hardy, "_GRID_CHUNK", 7)
        assert hm.simplex_grid_bound(expr, 3, 8) == grid_loop(expr, 3, 8)

    def test_grid_larger_than_one_chunk(self):
        assert math.comb(300 + 2, 2) > hardy._GRID_CHUNK
        assert hm.simplex_grid_bound(hm.Power(0), 3, 300) == grid_loop(hm.Power(0), 3, 300)

    def test_compositions_in_lexicographic_order(self, monkeypatch):
        monkeypatch.setattr(hardy, "_GRID_CHUNK", 4)
        for total, parts in ((5, 1), (5, 3), (0, 2), (4, 4)):
            chunks = list(hardy._composition_chunks(total, parts))
            assert all(len(c) <= 4 for c in chunks)
            rows = [tuple(int(v) for v in row) for c in chunks for row in c]
            assert rows == list(compositions(total, parts))

    @pytest.mark.parametrize("denominator", [0, -1])
    def test_denominator_below_one_is_rejected(self, denominator):
        with pytest.raises(ValueError, match="denominator must be at least 1"):
            hm.simplex_grid_bound(hm.Power(0), 3, denominator)

    def test_failing_point_raises_as_in_loop(self):
        with pytest.raises(hm.MeanComputationError) as stacked:
            hm.simplex_grid_bound(FAILING, 3, 8)
        with pytest.raises(hm.MeanComputationError) as looped:
            grid_loop(FAILING, 3, 8)
        assert str(stacked.value) == str(looped.value)
