import itertools
import math
import warnings

import numpy as np
import pytest

import hardymeans as hm
from hardymeans.core import LAST_PREFIX
from hardymeans.gauss import gauss_kernel
from conftest import MIXED_NEAR_FLOAT_MAX, log_uniform

AG = (hm.Power(1.0), hm.Power(0.0))
HG = (hm.Power(-1.0), hm.Power(0.0))

# frozen from an independent 40-digit arithmetic-geometric iteration
AGM_24_6 = 13.45817148172561542076681
# frozen from an independent 40-digit harmonic-geometric iteration at (2, e)
HG_2_E = 2.317996020390303379223716


class TestGaussStep:
    def test_first_step_by_hand(self):
        step = hm.gauss_step(AG, [24.0, 6.0])
        assert step[0] == pytest.approx(15.0, rel=1e-12)
        assert step[1] == pytest.approx(12.0, rel=1e-12)

    def test_second_step_by_hand(self):
        step = hm.gauss_step(AG, [15.0, 12.0])
        assert step[0] == pytest.approx(13.5, rel=1e-12)
        assert step[1] == pytest.approx(math.sqrt(180.0), rel=1e-12)

    def test_constant_vectors_are_fixed(self):
        step = hm.gauss_step(AG, [3.0, 3.0, 3.0])
        assert np.allclose(step, 3.0, rtol=1e-13)

    def test_step_dimension_is_number_of_means(self):
        step = hm.gauss_step(AG, [1.0, 2.0, 3.0, 4.0, 5.0])
        assert step.shape == (2,)

    def test_needs_two_means(self):
        with pytest.raises(ValueError):
            hm.gauss_step([hm.Power(0.0)], [1.0, 2.0])


class TestGaussProduct:
    def test_fixed_point_of_equal_inputs(self):
        assert hm.gauss_product(AG, [1.0, 1.0]) == 1.0

    def test_agm_against_independent_oracle(self):
        assert hm.gauss_product(AG, [24.0, 6.0]) == pytest.approx(
            AGM_24_6, rel=1e-12
        )

    def test_harmonic_geometric_of_two_and_e(self):
        value = hm.gauss_product(HG, [2.0, math.e])
        assert value == pytest.approx(HG_2_E, rel=1e-11)
        assert f"{value:.4g}" == "2.318"

    def test_nonconvergence_is_loud(self):
        cfg = hm.GaussConfig(tolerance=1e-13, max_iterations=2)
        with pytest.raises(hm.NonConvergenceError) as info:
            hm.gauss_product(AG, [1e6, 1.0], cfg)
        assert info.value.iterations == 2
        assert info.value.gap > 0

    def test_stalled_product_fails_early(self):
        # max and min never move, so the gap stays 0.8 from the first step
        expr = hm.Gauss((hm.MaxOf(), hm.MinOf(), hm.Gini(1.5, 3.0)))
        with pytest.raises(hm.NonConvergenceError) as info:
            hm.evaluate(expr, [1.0, 2.0, 5.0])
        assert info.value.iterations < 10
        assert info.value.gap == pytest.approx(0.8)

    def test_nested_product_with_creeping_ends_fails_early(self):
        # the inner product tends to the max but returns the midpoint of its
        # final envelope, so the outer top end drops a few ulps every step
        # while the gap stays 0.8
        inner = hm.Gauss((hm.MaxOf(), hm.Gini(0.0, 3.0)))
        expr = hm.Gauss((inner, hm.MinOf()))
        with pytest.raises(hm.NonConvergenceError) as info:
            hm.evaluate(expr, [1.0, 2.0, 5.0])
        assert info.value.iterations <= 9

    def test_ends_too_far_apart_for_their_ratio_are_no_stall(self):
        # after the first step max / min is about 1e399, past the float
        # range; the log width still shrinks by about log 4 a step
        value = hm.gauss_product((hm.ARITH, hm.HARM), [1e-200, 1e200])
        assert value == pytest.approx(1.0)

    @pytest.mark.parametrize("child", [hm.ARITH, hm.GEOM])
    def test_first_step_onto_the_data_envelope_is_no_stall(self, child):
        # the sum rounds away the 3e-13 step, so the child's first value is
        # exactly min x and MaxOf's is max x; later steps still converge
        x = [1.0] * 10_000 + [1.0 + 3e-13]
        value = hm.evaluate(hm.Gauss((hm.MaxOf(), child)), x)
        assert 1.0 <= value <= 1.0 + 3e-13

    @pytest.mark.parametrize(
        "expr, x",
        [
            (hm.Gauss(HG), [1.7e308, 1.7e308]),
            (hm.Gauss(AG), [1.7e308, 1.6e308]),
            (hm.Gauss((hm.ARITH, hm.MaxOf())), [1.0, 1e308]),
        ],
        ids=["hg-equal-entries", "ag", "arith-max"],
    )
    def test_midpoint_near_the_float_maximum_is_finite(self, expr, x):
        # hi + lo overflows there; hi and lo themselves do not.  Every
        # product here is homogeneous, so a scaled-down run gives the value
        value = hm.evaluate(expr, x)
        assert value == pytest.approx(hm.evaluate(expr, np.divide(x, 1e10)) * 1e10, rel=1e-11)
        if x[0] == x[1]:
            assert value == x[0]

    def test_first_check_only_records_the_widths(self):
        # a child value of 0 gives an infinite log width at every check;
        # the first only records it, and the second, four steps on, stalls
        class Zero(hm.MeanExpr):
            def kernel(self, xs, cols):
                return np.zeros(np.shape(xs[..., cols]))

        with np.errstate(all="ignore"), pytest.raises(hm.NonConvergenceError) as info:
            gauss_kernel((hm.MaxOf(), Zero()), np.array([1.0, 2.0]), LAST_PREFIX,
                         hm.GaussConfig(max_iterations=10))  # fmt: skip
        assert info.value.iterations == 5

    def test_first_step_off_the_float_range_fails_at_once(self):
        # gini(300,299) rounds its mean of (max double, 1) to inf: inf and
        # nan never converge, so the product stops after its first step
        expr = hm.Gauss((hm.Gini(300.0, 299.0), hm.GEOM))
        with warnings.catch_warnings(record=True) as seen, pytest.raises(
            hm.NonConvergenceError
        ) as info:
            warnings.simplefilter("always")
            hm.evaluate(expr, [1.7976931348623157e308, 1.0])
        assert info.value.iterations <= 1 and math.isnan(info.value.gap)
        assert seen and not [w for w in seen if w.filename.endswith("gauss.py")]

    @pytest.mark.parametrize("cols", [slice(None), LAST_PREFIX], ids=["prefixes", "last"])
    @pytest.mark.parametrize("means", [AG, (hm.ARITH, hm.MaxOf())], ids=["ag", "arith-max"])
    def test_mixed_stack_near_the_float_maximum_is_finite(self, means, cols):
        # rows whose hi + lo overflows beside ordinary ones: every midpoint
        # is finite and the one its row gets alone (the bits are pinned in
        # test_pinned_bits)
        children = hm.Gauss(means).canonical().children
        out = gauss_kernel(children, np.array(MIXED_NEAR_FLOAT_MAX), cols)
        assert np.isfinite(out).all()
        for row, value in zip(MIXED_NEAR_FLOAT_MAX, out):
            assert np.array_equal(value, gauss_kernel(children, np.array(row), cols)), row

    def test_config_validation(self):
        for tolerance in (0.0, 1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                hm.GaussConfig(tolerance=tolerance)
        with pytest.raises(ValueError):
            hm.GaussConfig(max_iterations=0)


class TestGaussProperties:
    def test_fixed_point_property(self, rng):
        for means in (AG, HG):
            for _ in range(20):
                v = log_uniform(rng, int(rng.integers(2, 7)), 1e-2, 1e2)
                direct = hm.gauss_product(means, v)
                stepped = hm.gauss_product(means, hm.gauss_step(means, v))
                assert stepped == pytest.approx(direct, rel=1e-10)

    def test_mean_value_property(self, rng):
        for _ in range(30):
            v = log_uniform(rng, int(rng.integers(1, 7)))
            value = hm.gauss_product(HG, v)
            assert v.min() * (1 - 1e-12) <= value <= v.max() * (1 + 1e-12)

    def test_homogeneity_of_homogeneous_children(self, rng):
        for _ in range(20):
            v = log_uniform(rng, int(rng.integers(2, 7)))
            t = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
            assert hm.gauss_product(HG, t * v) == pytest.approx(
                t * hm.gauss_product(HG, v), rel=1e-11
            )

    def test_midpoint_concavity_of_concave_children(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 6))
            u = log_uniform(rng, n, 1e-2, 1e2)
            w = log_uniform(rng, n, 1e-2, 1e2)
            mid = hm.gauss_product(HG, 0.5 * (u + w))
            chord = 0.5 * (hm.gauss_product(HG, u) + hm.gauss_product(HG, w))
            assert mid >= chord - 1e-10 * max(mid, chord)

    def test_children_run_their_canonical_kernels(self, rng):
        # gini(0,-2) is power(-2), so the two products are one computation
        for _ in range(300):
            v = log_uniform(rng, int(rng.integers(2, 7)))
            assert hm.gauss_product((hm.Gini(0.0, -2.0), hm.GEOM), v) == hm.gauss_product(
                (hm.Power(-2.0), hm.GEOM), v
            )
            assert np.array_equal(
                hm.gauss_step((hm.Gini(0.0, -2.0), hm.GEOM), v),
                hm.gauss_step((hm.Power(-2.0), hm.GEOM), v),
            )

    def test_envelope_is_monotone(self, rng):
        for _ in range(10):
            v = log_uniform(rng, 4, 1e-2, 1e2)
            highs, lows = [v.max()], [v.min()]
            for _ in range(12):
                v = hm.gauss_step(HG, v)
                highs.append(v.max())
                lows.append(v.min())
            assert all(a >= b * (1 - 1e-12) for a, b in zip(highs, highs[1:]))
            assert all(a <= b * (1 + 1e-12) for a, b in zip(lows, lows[1:]))

    def test_nested_products_evaluate(self):
        nested = hm.Gauss((hm.Gauss(AG), hm.Power(-1.0)))
        value = hm.evaluate(nested, [1.0, 4.0])
        assert 1.0 <= value <= 4.0


# ---------------------------------------------------------------------------
# the column loop against a plain reference loop

_HUGE = float(np.finfo(float).max)
_TINY = float(np.finfo(float).tiny)


def _reference_midpoint(hi, lo):
    mid = 0.5 * (hi + lo)
    return np.where(np.isinf(mid), lo + 0.5 * (hi - lo), mid)


def reference_gauss_kernel(means, xs, cols, cfg=hm.GaussConfig()):
    """gauss_kernel's stopping rule in a plain loop: every step is each
    child's kernel on the stacked columns, np.stack(w, 1)."""
    with np.errstate(all="ignore"):
        lo = np.minimum.accumulate(xs, axis=-1)[..., cols]
        hi = np.maximum.accumulate(xs, axis=-1)[..., cols]
        out = _reference_midpoint(hi, lo)
        flat = out.reshape(-1)
        rows = np.flatnonzero(~((hi - lo) / hi <= cfg.tolerance).reshape(-1))
        if rows.size == 0:
            return out
        w = [m.kernel(xs, cols).reshape(-1)[rows] for m in means]
        if not np.isfinite(w).all():
            raise hm.NonConvergenceError("left the float range", iterations=1, gap=math.nan)
        seen = np.full(rows.size, np.nan)
        for iteration in range(1, cfg.max_iterations + 1):
            hi, lo = np.max(np.stack(w, 1), axis=1), np.min(np.stack(w, 1), axis=1)
            gap = (hi - lo) / hi
            done = gap <= cfg.tolerance
            flat[rows[done]] = _reference_midpoint(hi[done], lo[done])
            rows, gap, hi, lo, seen = (a[~done] for a in (rows, gap, hi, lo, seen))
            w = [c[~done] for c in w]
            if rows.size == 0:
                return out
            if iteration == cfg.max_iterations:
                break
            if iteration % 4 == 1:
                width = np.where(np.isinf(hi / lo), np.log(hi) - np.log(lo), np.log(hi / lo))
                if (width >= seen * (1.0 - 2.0**-20)).any():
                    break
                seen = width
            w = [m.kernel(np.stack(w, 1), LAST_PREFIX)[:, 0] for m in means]
    raise hm.NonConvergenceError("did not converge", iterations=iteration, gap=float(np.max(gap)))


def _outcome(kernel, means, xs, cols, cfg):
    """The bits of the result, or the error's class, iterations and gap."""
    try:
        with np.errstate(all="ignore"):
            return kernel(means, xs, cols, cfg).view(np.int64).tolist()
    except hm.NonConvergenceError as error:
        return type(error), error.iterations, np.float64(error.gap).view(np.int64)


# Gini's ratio branch, its shifted branch at d = 0 and d > 0, with
# exponents +-300, exp pairs, min, max and nested products, one of them
# of a Gini mean whose log-domain path errs by factors of e
WILD = hm.Gauss((hm.Gini(1e16, 1e16),) * 2)
COLUMN_CHILDREN = {
    "power(-1)": hm.HARM,
    "power(0)": hm.GEOM,
    "power(2)": hm.Power(2.0),
    "power(300)": hm.Power(300.0),
    "power(-300)": hm.Power(-300.0),
    "power(100)": hm.Power(100.0),
    "gini(0.5,-1)": hm.Gini(0.5, -1.0),
    "gini(300,299)": hm.Gini(300.0, 299.0),
    "gini(-300,-301)": hm.Gini(-300.0, -301.0),
    "gini(0.5,0.5)": hm.Gini(0.5, 0.5),
    "gini(-300,-300)": hm.Gini(-300.0, -300.0),
    "gini(0.5,0.45)": hm.Gini(0.5, 0.45),
    "gini(-0.05,0)": hm.Gini(-0.05, 0.0),
    "gini(300,299.95)": hm.Gini(300.0, 299.95),
    "quasi(exp)": hm.QuasiArithmetic(hm.EXP),
    "bajrak(exp,pow:-1)": hm.Bajraktarevic(hm.EXP, hm.power_generator(-1)),
    "min": hm.MinOf(),
    "max": hm.MaxOf(),
    "gauss(power(1),power(0))": hm.Gauss(AG),
    "gauss(gini(1e16,1e16),gini(1e16,1e16))": WILD,
}


def _entries():
    st = pytest.importorskip("hypothesis.strategies")
    return st.one_of(
        st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
        st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
        st.floats(1.0, 1e3).map(lambda t: _TINY * t),
        st.floats(1.0, 1e3).map(lambda t: _HUGE / t),
    )


def test_column_loop_matches_the_reference_bit_for_bit():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    names = st.lists(st.sampled_from(sorted(COLUMN_CHILDREN)), min_size=2, max_size=3)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(names, st.integers(1, 64), st.integers(1, 4), st.booleans(), st.data())
    def check(names, rows, n, every_prefix, data):
        means = hm.Gauss([COLUMN_CHILDREN[name] for name in names]).canonical().children
        xs = np.array(data.draw(st.lists(_entries(), min_size=rows * n, max_size=rows * n)))
        xs = xs.reshape(rows, n)
        cols = slice(None) if every_prefix else LAST_PREFIX
        cfg = hm.GaussConfig(max_iterations=400)
        expected = _outcome(reference_gauss_kernel, means, xs, cols, cfg)
        assert _outcome(gauss_kernel, means, xs, cols, cfg) == expected

    check()


def test_column_loop_matches_the_reference_on_moderate_stacks(rng):
    # the common case, every child proven: log-uniform rows in [1e-3, 1e3]
    for names in (["power(-1)", "power(0)"], ["gini(0.5,-1)", "gini(0.5,0.45)", "power(2)"]):
        means = hm.Gauss([COLUMN_CHILDREN[name] for name in names]).canonical().children
        for rows, n in ((1, 2), (13, 3), (64, 4)):
            xs = log_uniform(rng, rows * n).reshape(rows, n)
            for cols in (slice(None), LAST_PREFIX):
                expected = _outcome(reference_gauss_kernel, means, xs, cols, hm.GaussConfig())
                assert _outcome(gauss_kernel, means, xs, cols, hm.GaussConfig()) == expected


def test_nested_product_sends_the_call_to_the_kernel_loop():
    # the nested product converges far out of the first step's envelope,
    # where power(100), proven on that envelope, would overflow its plain
    # sums; every child runs its kernel instead, as in the reference
    means = hm.Gauss((WILD, hm.Power(100.0))).canonical().children
    xs = np.array([[3.966692716369023, 0.14283484069398636]])
    assert WILD.column_step(0.1, 10.0, 2) is None
    cfg = hm.GaussConfig(max_iterations=400)
    expected = _outcome(reference_gauss_kernel, means, xs, LAST_PREFIX, cfg)
    assert _outcome(gauss_kernel, means, xs, LAST_PREFIX, cfg) == expected


def _proof_edge(node, k, end):
    """The widest envelope [lo, 1] (end "lo") or [1, hi] (end "hi") on
    which the node's column step is proven, and one just past it, on a
    log scale to float precision."""
    proven = lambda t: node.column_step(*sorted((1.0, math.exp(t))), k) is not None  # noqa: E731
    inner, outer = 0.0, math.log(_TINY) if end == "lo" else math.log(_HUGE)
    if proven(outer):
        return math.exp(outer), None
    while abs(outer - inner) > 1e-12 * abs(outer):
        mid = 0.5 * (inner + outer)
        inner, outer = (mid, outer) if proven(mid) else (inner, mid)
    return math.exp(inner), math.exp(outer)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("end", ["lo", "hi"])
@pytest.mark.parametrize(
    "name",
    ["power(-300)", "power(300)", "gini(300,299)", "gini(-300,-301)", "gini(-300,-300)",
     "gini(300,299.95)", "gini(0.5,0.45)", "power(0)"],
)  # fmt: skip
def test_column_step_at_the_proof_boundary(name, end, k):
    # at the edge of the envelope that the proof accepts, the column step
    # still gives the kernel's bits on every row of the envelope's ends,
    # without a warning; just past the edge the proof declines
    node = COLUMN_CHILDREN[name].canonical()
    edge, past = _proof_edge(node, k, end)
    if past is not None:
        assert node.column_step(*sorted((1.0, past)), k) is None
    step = node.column_step(*sorted((1.0, edge)), k)
    corners = np.array(list(itertools.product((edge, 1.0), repeat=k)))
    w = [np.ascontiguousarray(c) for c in corners.T]
    expected = node.kernel(np.stack(w, axis=-1), LAST_PREFIX)[:, 0]
    assert np.array_equal(step(w), expected)
