"""The n-term search and its grid oracle: the stacked ratio against
per-row calls, the mirror ascent's scoring, its invariants and its
quality floors, the analytic Gini gradient against 30-digit mpmath, the
lockstep Nelder-Mead port against scipy.optimize.minimize, and the
chunked grid against a per-composition loop."""
import math

import numpy as np
import pytest

import hardymeans as hm
from hardymeans import core, hardy
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


class Narrow(hm.MeanExpr):
    """The arithmetic mean, computed only on rows whose largest entry is
    at most 100 times their smallest: a stack with any other row raises
    MeanComputationError."""

    def kernel(self, xs, cols):
        if (xs.max(axis=-1) > 100.0 * xs.min(axis=-1)).any():
            raise hm.MeanComputationError("a row spread more than 100-fold")
        return hm.canonical(hm.ARITH).kernel(xs, cols)


NARROW = Narrow()
GINI = hm.Gini(0.5, -1.0)


class Differenced(hm.MeanExpr):
    """gini(0.5,-1), with the base class's gradient by forward differences."""

    def kernel(self, xs, cols):
        return GINI.kernel(xs, cols)


DIFFERENCED = Differenced()


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
        points = np.array([[0.5, 0.3, 0.2], [0.9, 0.005, 0.095], [0.4, 0.4, 0.2]])
        with pytest.raises(hm.MeanComputationError):
            NARROW.sum_gradient(points)
        ratios, grads = hardy._ascent_scores(NARROW, points)
        assert ratios[1] == -math.inf
        for i in (0, 2):
            alone = hardy._ascent_scores(NARROW, points[i : i + 1])
            assert ratios[i] == alone[0][0] and np.array_equal(grads[i], alone[1][0])
            # the arithmetic mean's n-term ratio, scored with plain sums
            assert ratios[i] == pytest.approx(hm.hardy_ratio(hm.ARITH, points[i]), rel=1e-15)

    def test_floored_coordinates_take_the_log_domain_kernel(self):
        z = np.array([[0.0, -1.0, -2.0], [0.0, -800.0, 0.0], [0.0, 0.5, -0.5]])
        points = hardy._softmax_points(z)
        assert points[1, 1] == 1e-300
        # quasi(pow:-2) is power(-2), whose log-domain kernel does not overflow
        quasi = hm.QuasiArithmetic(hm.power_generator(-2))
        assert np.array_equal(hm.hardy_ratio(quasi, points), hm.hardy_ratio(hm.Power(-2), points))


def start_ratios(expr, n, cfg):
    """Each start's exactly rounded ratio at its starting point, -inf where
    it does not evaluate."""
    out = []
    for z in hardy._search_starts(n, cfg, np.random.default_rng(cfg.seed)):
        try:
            out.append(hm.hardy_ratio(expr, hardy._softmax_points(z)))
        except hm.MeanComputationError:
            out.append(-math.inf)
    return out


class TestMirrorAscent:
    @pytest.mark.parametrize("name", NAMES)
    def test_every_mean(self, name):
        expr = MEANS[name]
        for n in (2, 3, 4):
            cfg = hm.SearchConfig(restarts=6, seed=n)
            bound = hm.hardy_sequence_bound(expr, n, cfg)
            assert bound.restarts == len(bound.trace) == 6
            # the estimate is the best start's exactly rounded ratio
            assert bound.estimate == max(bound.trace) == hm.hardy_ratio(expr, bound.maximizer)
            assert bound.trace.index(bound.estimate) == min(
                i for i, v in enumerate(bound.trace) if v == bound.estimate
            )
            # a start only moves up, to the rounding of the plain sums it compares
            for end, begin in zip(bound.trace, start_ratios(expr, n, cfg)):
                assert end >= begin * (1.0 - 1e-15), (n, end, begin)
            # the lockstep is deterministic
            assert hm.hardy_sequence_bound(expr, n, cfg) == bound

    def test_failed_evaluations_are_failed_steps(self):
        # the ascent pushes the arithmetic mean's points towards the vertex
        # (1, 0, 0), and every point spread more than 100-fold fails
        bound = hm.hardy_sequence_bound(NARROW, 3, hm.SearchConfig(restarts=4))
        # the starts -3k and the head-heavy one never evaluate
        assert bound.trace[2:] == (-math.inf, -math.inf)
        # the first two stop where their steps fail: at spread 100, whose
        # best point is (100, 1, 1) / 102
        for end in bound.trace[:2]:
            assert 1.7 < end <= hm.hardy_ratio(hm.ARITH, [100.0, 1.0, 1.0])
        x = np.array(bound.maximizer)
        assert 99.0 * x.min() <= x.max() <= 100.0 * x.min()
        assert bound.estimate == hm.hardy_ratio(hm.ARITH, x)

    def test_no_feasible_evaluation_is_an_error(self):
        # a mean that fails on every row, constant ones included
        class AlwaysFailing(hm.MeanExpr):
            def kernel(self, xs, cols):
                raise hm.MeanComputationError("no row is computed")

        with pytest.raises(hm.MeanComputationError, match="no start of the search evaluates"):
            hm.hardy_sequence_bound(AlwaysFailing(), 2, hm.SearchConfig(restarts=4))

    def test_fixed_and_extra_starts_always_run(self):
        # the four fixed starts run even when restarts asks for fewer
        bound = hm.hardy_sequence_bound(hm.Power(0), 2, hm.SearchConfig(restarts=1))
        assert bound.restarts == len(bound.trace) == 4


# the estimates of the benchmark's four fuzz searches (n = 3, four starts)
# as the Nelder-Mead search that the ascent replaced found them
NELDER_MEAD_ESTIMATES = {
    "power(0)": (hm.Power(0.0), 1.3333333333333335),
    "gini(0.5,-1)": (hm.Gini(0.5, -1.0), 1.2576731237556562),
    "quasi(pow:0.5)": (hm.QuasiArithmetic(hm.power_generator(0.5)), 1.4920940212137281),
    "gauss(power(-1),power(0))": (hm.Gauss((hm.Power(-1.0), hm.Power(0.0))), 1.2543245857318517),
}
# n = 30 optima of a scratch mirror ascent, to 4 decimals
THIRTY_TERMS = {
    "power(0)": (hm.Power(0.0), 1.9044),
    "gini(0.5,-1)": (hm.Gini(0.5, -1.0), 1.7298),
    "power(0.5)": (hm.Power(0.5), 2.3508),
    "gini(-1,-2)": (hm.Gini(-1.0, -2.0), 1.3262),
    "gini(-0.2,-0.4)": (hm.Gini(-0.2, -0.4), 1.6629),
    "gauss(gini(-0.2,-0.4),power(0))": (hm.Gauss((hm.Gini(-0.2, -0.4), hm.Power(0.0))), 1.7666),
}
CONCAVE = {"power(0.5)": hm.Power(0.5), "power(0)": hm.Power(0.0), "gini(0.5,-1)": hm.Gini(0.5, -1.0)}


class TestQualityFloors:
    @pytest.mark.parametrize("name", sorted(NELDER_MEAD_ESTIMATES))
    def test_fuzz_searches_reach_the_nelder_mead_estimates(self, name):
        expr, old = NELDER_MEAD_ESTIMATES[name]
        bound = hm.hardy_sequence_bound(expr, 3, hm.SearchConfig(restarts=4))
        assert bound.estimate >= old - 2 * math.ulp(old)

    @pytest.mark.parametrize("name", sorted(THIRTY_TERMS))
    def test_thirty_terms(self, name):
        expr, value = THIRTY_TERMS[name]
        assert hm.hardy_sequence_bound(expr, 30).estimate >= value - 1e-4

    @pytest.mark.parametrize("n", [30, 300])
    @pytest.mark.parametrize("name", sorted(CONCAVE))
    def test_upper_closes_on_the_estimate(self, name, n):
        expr = CONCAVE[name]
        bound = hm.hardy_sequence_bound(expr, n)
        assert bound.estimate <= bound.upper <= bound.estimate * (1.0 + 1e-5)
        assert hm.hardy_ratio(expr, bound.maximizer) == bound.estimate

    @pytest.mark.parametrize("name", sorted(CONCAVE))
    def test_upper_is_above_the_grid_oracle(self, name):
        expr = CONCAVE[name]
        assert hm.hardy_sequence_bound(expr, 3).upper >= hm.simplex_grid_bound(expr, 3)

    @pytest.mark.parametrize(
        "text, certified",
        [
            ("power(0.5)", True),
            ("quasi(pow:0.5)", True),  # reduces to power(0.5)
            ("gini(-1,-2)", False),  # not Jensen concave
            ("gauss(power(-1),power(0))", False),  # concave, but forward differences
            ("bajrak(exp,pow:-1)", False),  # not homogeneous
            ("gini(2,1)", False),  # not Jensen concave
        ],
    )
    def test_upper_only_where_concave_and_analytic(self, text, certified):
        bound = hm.hardy_sequence_bound(hm.parse_mean_expr(text), 3, hm.SearchConfig(restarts=4))
        assert (bound.upper is not None) == certified


def mp_gradient(mp, p, q, x):
    """df/dx_i of f = sum_k G_k(x_1, ..., x_k) by mpmath: the sum over
    k >= i of the derivative in t of G_k at x_i e**t, at t = 0, over x_i.
    Each term is differentiated on its own, relative to its own size, so
    that entries near 1e-300 keep their digits."""
    p, q = mp.mpf(p), mp.mpf(q)

    def mean(xs):
        if p == q:
            w = [v**p for v in xs]
            return mp.exp(mp.fsum(a * mp.log(v) for a, v in zip(w, xs)) / mp.fsum(w))
        return (mp.fsum(v**p for v in xs) / mp.fsum(v**q for v in xs)) ** (1 / (p - q))

    xs = [mp.mpf(v) for v in x]
    return [
        mp.fsum(
            mp.diff(lambda t: mean(xs[:i] + [xs[i] * mp.exp(t)] + xs[i + 1 : k]), 0)
            for k in range(i + 1, len(xs) + 1)
        )
        / xs[i]
        for i in range(len(xs))
    ]


# p != q across signs, q = 0, p = q, and exponents in the kernel's shifted band
GRADIENT_EXPONENTS = [
    (0.5, -1.0), (0.5, 0.0), (0.0, 0.0), (1.0, 0.0), (0.0, -1.0), (-1.0, -2.0),
    (2.0, 1.0), (-0.5, -0.5), (0.3, 0.3), (0.05, -0.03), (-0.2, -0.4),
]  # fmt: skip


class TestGiniGradient:
    @pytest.mark.parametrize("p, q", GRADIENT_EXPONENTS)
    def test_matches_mpmath(self, p, q, rng):
        mp = pytest.importorskip("mpmath").mp
        node = hm.Gini(p, q).canonical()
        # moderate entries to 30 digits; entries at the softmax floor 1e-300
        # beside others to 650, as their terms are 1e-300 of the others.
        # Logs of the sums lose about eps |e ln x| relative: 7 at most in
        # the first rows, and up to 690 in the last
        rows = [(log_uniform(rng, n), 30, 1e-13) for n in (1, 2, 4, 6)]
        rows += [
            (np.array([0.5, 1e-300, 0.25, 1e-300]), 650, 1e-12),
            (np.array([1e-300, 0.3, 0.7]), 650, 1e-12),
        ]
        for x, digits, tolerance in rows:
            f, grad = node.sum_gradient(x[None])
            assert np.isfinite(grad).all(), (x, grad)
            with mp.workdps(digits):
                ref = np.array([float(v) for v in mp_gradient(mp, node.p, node.q, x)])
            assert grad[0] == pytest.approx(ref, rel=tolerance, abs=0.0), x
            assert f[0] == pytest.approx(hm.hardy_ratio(node, x) * x.sum(), rel=1e-14)

    @pytest.mark.parametrize("p", [-3.0, -0.5, 0.3, 2.0])
    def test_equal_entries_at_p_equal_q(self, p):
        # the kernel may round a mean of equal entries below them, where
        # ln G_k - min ln x, whose log the p = q gradient takes, is negative
        node = hm.Gini(p, p)
        for row in ([2.0] * 3, [4.0] * 12, [0.1] * 7, [1e-300] * 3):
            x = np.array([row])
            _, grad = node.sum_gradient(x)
            # d/dx_i of sum_k G_k at x_1 = ... = x_n is sum_{k>=i} 1/k
            assert grad[0] == pytest.approx(np.cumsum(1.0 / np.arange(len(row), 0, -1))[::-1])

    @pytest.mark.parametrize("p, q", [(0.5, -1.0), (-1.0, -2.0), (0.0, -1.0), (-2.0, -3.0)])
    def test_finite_at_the_softmax_floor(self, p, q):
        # x**(q-1) overflows at 1e-300 for q < 0, where the gradient is finite
        points = hardy._softmax_points(np.array([[0.0, -800.0, -1.0], [-800.0, 0.0, -800.0]]))
        assert (points == 1e-300).sum() == 3
        _, grad = hm.Gini(p, q).canonical().sum_gradient(points)
        assert np.isfinite(grad).all()

    def test_forward_differences_agree(self, rng):
        x = log_uniform(rng, 5)[None]
        exact, differences = GINI.sum_gradient(x), DIFFERENCED.sum_gradient(x)
        assert differences[0] == exact[0]
        assert differences[1] == pytest.approx(exact[1], rel=1e-6)

    def test_large_stacks_of_differences_go_row_by_row(self, rng, monkeypatch):
        x = log_uniform(rng, 3 * 700).reshape(3, 700)
        assert 3 * 701 * 700 > core._DIFFERENCE_STACK
        f, grad = DIFFERENCED.sum_gradient(x)
        for i in range(3):
            alone = DIFFERENCED.sum_gradient(x[i : i + 1])
            assert f[i] == alone[0][0] and np.array_equal(grad[i], alone[1][0])
        # in one stack the sums of a row may round differently, by their
        # alignment, and a difference quotient scales that by 2^26
        monkeypatch.setattr(core, "_DIFFERENCE_STACK", 10**7)
        at_once = DIFFERENCED.sum_gradient(x)
        assert f == pytest.approx(at_once[0], rel=1e-14)
        assert grad == pytest.approx(at_once[1], rel=1e-6)


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
