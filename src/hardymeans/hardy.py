"""Summability-constant machinery.

For a mean M, the central quantity is the smallest constant C with
sum_n M(x_1, ..., x_n) <= C * sum_n x_n over all positive summable
sequences.  The tools here:

* ``pn_sequence``   -- p_n = n * M(1, 1/2, ..., 1/n), a nondecreasing
  lower approximation of the constant for homogeneous means that are
  symmetric, increasing, Jensen concave and repetition invariant; its
  limit is the constant itself, so a finite truncation is certified
  from below.
* ``hardy_constant`` -- dispatches between the homogeneous p_n limit
  and an uncertified sup-over-grid / tail-window estimator for
  non-homogeneous means.
* ``closed_form_hardy`` -- the registry of exactly known constants
  and of exactly known non-summability verdicts, read from the node
  classes in :mod:`hardymeans.core`.
* ``hardy_sequence_bound`` -- multi-start derivative-free maximization
  of the n-term ratio, always reported as a lower bound, with an
  exhaustive simplex-grid oracle for small n.
* ``liminf_ratio`` -- tail-window lower estimates along named
  non-summable sequences.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ClosedForm,
    MeanComputationError,
    MeanExpr,
    as_mean_expr,
    as_sample_rows,
    as_samples,
    prefix_means,
)
from .neldermead import minimize_lockstep
from .probes import ProbeConfig, probe_properties

__all__ = [
    "canonical",
    "ClosedForm",
    "closed_form_hardy",
    "published_tolerance",
    "PnSequence",
    "pn_sequence",
    "prefix_means",
    "HardyConfig",
    "HardyEstimate",
    "hardy_constant",
    "SEQUENCES",
    "LiminfEstimate",
    "liminf_ratio",
    "hardy_ratio",
    "SearchConfig",
    "HardySeqBound",
    "hardy_sequence_bound",
    "simplex_grid_bound",
    "PartialCheck",
    "hardy_partial_check",
]


# ---------------------------------------------------------------------------
# canonical reductions and the closed-form registry: each family's entries
# are methods of its node class in core


def canonical(expr: MeanExpr) -> MeanExpr:
    """Reduce an expression along exact family identities."""
    return as_mean_expr(expr).canonical()


def closed_form_hardy(expr: MeanExpr) -> ClosedForm | None:
    """Exact constant or non-summability verdict, when known."""
    return canonical(expr).closed_form()


def published_tolerance(expr: MeanExpr) -> float | None:
    """Relative convergence tolerance of the n_max = 10^4 estimate."""
    return canonical(expr).tolerance()


# ---------------------------------------------------------------------------
# prefix means and the p_n sweep


@dataclass(frozen=True, eq=False)
class PnSequence:
    """Values p_n = n * M(1, 1/2, ..., 1/n) for n = 1..n_max, with the
    monotonicity audit (largest observed decrease)."""

    expr: MeanExpr
    n_max: int
    values: np.ndarray
    max_decrease: float

    @property
    def final(self) -> float:
        return float(self.values[-1])


def pn_sequence(expr: MeanExpr, n_max: int) -> PnSequence:
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    x = 1.0 / np.arange(1.0, n_max + 1.0)
    values = np.arange(1.0, n_max + 1.0) * prefix_means(expr, x)
    if n_max > 1:
        max_decrease = float(max(0.0, np.max(values[:-1] - values[1:])))
    else:
        max_decrease = 0.0
    return PnSequence(expr=expr, n_max=n_max, values=values, max_decrease=max_decrease)


# ---------------------------------------------------------------------------
# the constant estimator


def default_y_grid() -> tuple[float, ...]:
    """41 log-spaced points across the scale range where
    non-homogeneous quasi-arithmetic means vary."""
    return tuple(float(v) for v in np.geomspace(1e-3, 1e3, 41))


@dataclass(frozen=True)
class HardyConfig:
    n_max: int = 10_000
    y_grid: tuple[float, ...] | None = None  # grid method only; None -> default
    divergence_ceiling: float = 1e6
    # moderate entries keep the gate evaluable for growth-limited means
    probe: ProbeConfig = field(
        default_factory=lambda: ProbeConfig(samples=64, seed=0, entry_range=(0.1, 10.0))
    )

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if not self.divergence_ceiling > 0:
            raise ValueError("divergence_ceiling must be positive")


# a p_n decrease larger than this, relative to p_{n_max}, is above
# rounding level and withholds certification
_PN_DECREASE_TOL = 1e-12

_GATE_PROPERTIES = (
    "homogeneity",
    "symmetry",
    "increasing",
    "jensen_concavity",
    "repetition_invariance",
)


@dataclass(frozen=True, eq=False)
class HardyEstimate:
    """Estimate of the summability constant with its provenance.

    ``estimate`` is math.inf when the mean is reported non-summable;
    ``reference`` carries the registry constant when one exists, and
    ``reference_kind`` is "closed-form", "not-a-hardy-mean" or None.
    """

    method: str  # "homogeneous-limit" | "sup-liminf-grid"
    estimate: float
    n_max: int
    reference: float | None
    reference_kind: str | None
    tolerance: float | None
    divergent: bool
    notes: tuple[str, ...]
    y_grid: tuple[float, ...] | None = None
    pn: PnSequence | None = None


def _growth_trace(pn: PnSequence) -> str:
    checkpoints = sorted(
        {max(1, pn.n_max // 100), max(1, pn.n_max // 10), max(1, pn.n_max // 2), pn.n_max}
    )
    pairs = ", ".join(f"p_{n}={pn.values[n - 1]:.6g}" for n in checkpoints)
    return f"growth trace: {pairs}"


def hardy_constant(expr: MeanExpr, cfg: HardyConfig = HardyConfig()) -> HardyEstimate:
    """Estimate the summability constant of a mean.

    Homogeneous means (per the seeded probe) use the monotone p_n
    truncation, a certified-from-below estimate when the symmetry,
    increasingness, concavity and repetition probes also pass and the
    computed p_n never decrease by more than rounding.
    Non-homogeneous means fall back to the uncertified grid estimator:
    the maximum over a log-spaced y-grid of the minimum over the tail
    window [n_max/2, n_max] of (n/y) * M(y/1, ..., y/n).  Registered
    non-summable means are reported divergent with a growth trace and
    never with a finite certified constant.
    """
    form = closed_form_hardy(expr)
    report = probe_properties(expr, cfg.probe)
    failed = tuple(name for name in _GATE_PROPERTIES if not report.holds(name))

    notes: list[str] = []
    reference = form.value if form is not None else None
    reference_kind = None
    if form is not None:
        reference_kind = "closed-form" if form.is_hardy else "not-a-hardy-mean"
        notes.append(f"registry: {form.provenance}")
    # a tolerance says how close the estimate is to the reference; with
    # no reference it says nothing
    tolerance = published_tolerance(expr) if reference is not None else None

    not_hardy = form is not None and not form.is_hardy
    if not_hardy or report.holds("homogeneity"):
        pn = pn_sequence(expr, cfg.n_max)
        exceeded = np.nonzero(pn.values > cfg.divergence_ceiling)[0]
        if not_hardy or exceeded.size:
            if not_hardy:
                notes.append("not a Hardy mean; no finite certified constant exists")
            else:
                notes.append(
                    f"p_n exceeded the divergence ceiling {cfg.divergence_ceiling:g} "
                    f"at n={int(exceeded[0]) + 1}; non-Hardy at this scale"
                )
            notes.append(_growth_trace(pn))
            return HardyEstimate(
                method="homogeneous-limit",
                estimate=math.inf,
                n_max=cfg.n_max,
                reference=reference,
                reference_kind=reference_kind,
                tolerance=None,
                divergent=True,
                notes=tuple(notes),
                pn=pn,
            )
        if failed:
            notes.append(
                "estimate (uncertified): probes failed for "
                + ", ".join(failed)
            )
        elif pn.max_decrease > _PN_DECREASE_TOL * pn.final:
            notes.append(
                f"estimate (uncertified): p_n decreased by {pn.max_decrease:.3g}, "
                f"more than {_PN_DECREASE_TOL:g} relative; the truncation is "
                "not monotone"
            )
        else:
            notes.append(
                "certified-from-below: monotone p_n truncation of the limit formula"
            )
        return HardyEstimate(
            method="homogeneous-limit",
            estimate=pn.final,
            n_max=cfg.n_max,
            reference=reference,
            reference_kind=reference_kind,
            tolerance=tolerance,
            divergent=False,
            notes=tuple(notes),
            pn=pn,
        )

    # non-homogeneous: sup over the y-grid of a tail-window liminf estimate
    y_grid = cfg.y_grid if cfg.y_grid is not None else default_y_grid()
    window_lo = max(1, cfg.n_max // 2)
    ns = range(window_lo, cfg.n_max + 1)
    n_arr = np.arange(window_lo, cfg.n_max + 1, dtype=float)
    best = -math.inf
    best_y = None
    skipped: list[str] = []
    for y in y_grid:
        x = y / np.arange(1.0, cfg.n_max + 1.0)
        try:
            tail = prefix_means(expr, x, ns=ns)
            value = float(np.min(n_arr / y * tail))
        except (OverflowError, MeanComputationError) as exc:
            skipped.append(f"y={y:g} skipped ({type(exc).__name__})")
            continue
        if value > best:
            best, best_y = value, y
    if best_y is None:
        raise MeanComputationError(
            "no y-grid point was evaluable; widen or shift the grid"
        )
    notes.append("estimate (uncertified): grid/tail-window approximation of a sup-liminf")
    notes.append(f"grid maximum attained at y={best_y:g}")
    if failed:
        notes.append("probes failed for " + ", ".join(failed))
    if skipped:
        notes.append("; ".join(skipped))
    divergent = best > cfg.divergence_ceiling
    return HardyEstimate(
        method="sup-liminf-grid",
        estimate=math.inf if divergent else best,
        n_max=cfg.n_max,
        reference=reference,
        reference_kind=reference_kind,
        tolerance=tolerance,
        divergent=divergent,
        notes=tuple(notes),
        y_grid=tuple(y_grid),
    )


# ---------------------------------------------------------------------------
# tail-window liminf estimates along named non-summable sequences


SEQUENCES = {
    "harmonic": lambda i: 1.0 / i,
    "constant": lambda i: np.ones_like(i, dtype=float),
    "sqrt": lambda i: 1.0 / np.sqrt(i),
}


@dataclass(frozen=True)
class LiminfEstimate:
    sequence: str
    n_max: int
    window: tuple[int, int]
    estimate: float


def liminf_ratio(expr: MeanExpr, sequence: str, n_max: int) -> LiminfEstimate:
    """min over n in [n_max/2, n_max] of M(x_1, ..., x_n) / x_n along a
    named non-summable sequence; a lower estimate of the liminf, which
    in turn lower-bounds the summability constant."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if sequence not in SEQUENCES:
        raise ValueError(f"unknown sequence {sequence!r}; choose from {sorted(SEQUENCES)}")
    xs = SEQUENCES[sequence](np.arange(1.0, n_max + 1.0))
    lo = max(1, n_max // 2)
    tail = prefix_means(expr, xs, ns=range(lo, n_max + 1))
    estimate = float(np.min(tail / xs[lo - 1 :]))
    return LiminfEstimate(sequence=sequence, n_max=n_max, window=(lo, n_max), estimate=estimate)


# ---------------------------------------------------------------------------
# n-term ratio maximization


def hardy_ratio(expr: MeanExpr, x) -> float | np.ndarray:
    """(M(x_1) + M(x_1,x_2) + ... + M(x_1,...,x_n)) / (x_1 + ... + x_n).

    Both sums are exactly rounded (``math.fsum``).  On a stack of
    equal-length vectors it returns one ratio per row, equal bit for bit
    to the call on that row alone.
    """
    xs = as_sample_rows(x)
    means = prefix_means(expr, xs)
    if xs.ndim == 1:
        return math.fsum(means) / math.fsum(xs)
    n = xs.shape[-1]
    num = np.array(list(map(math.fsum, means.reshape(-1, n).tolist())))
    den = np.array(list(map(math.fsum, xs.reshape(-1, n).tolist())))
    return (num / den).reshape(xs.shape[:-1])


@dataclass(frozen=True)
class SearchConfig:
    """Multi-start settings of :func:`hardy_sequence_bound`.

    The four fixed starts and every extra start always run; ``restarts``
    only adds seeded random starts until that many are reached.
    """

    restarts: int = 12
    seed: int = 0
    budget: int = 2000  # objective evaluations per restart
    extra_starts: tuple = ()  # extra initial vectors (tuples of positives)

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.budget < 10:
            raise ValueError("budget must be at least 10")


@dataclass(frozen=True)
class HardySeqBound:
    """Lower estimate of the n-term constant: best ratio found, the
    vector achieving it, and the per-restart best values."""

    n: int
    estimate: float
    maximizer: tuple[float, ...]
    restarts: int
    trace: tuple[float, ...]


def _search_starts(n: int, cfg: SearchConfig, rng: np.random.Generator) -> list[np.ndarray]:
    starts = [np.zeros(n)]
    for c in (1.0, 3.0):
        starts.append(-c * np.arange(n, dtype=float))
    head_heavy = np.full(n, -25.0)
    head_heavy[0] = 0.0
    starts.append(head_heavy)
    for x0 in cfg.extra_starts:
        arr = np.log(as_samples(x0))
        if arr.size != n:
            raise ValueError("extra start has wrong dimension")
        starts.append(arr - arr.max())
    while len(starts) < cfg.restarts:
        starts.append(rng.normal(0.0, 4.0, size=n))
    return starts


def _softmax_points(z: np.ndarray) -> np.ndarray:
    """Simplex point of every row of z, floored so coordinates can decay
    to ~1e-300 but never to 0."""
    w = np.exp(z - z.max(axis=-1, keepdims=True))
    return np.maximum(w / w.sum(axis=-1, keepdims=True), 1e-300)


def _negated_ratios(expr: MeanExpr, z: np.ndarray) -> np.ndarray:
    """Search objective on a stack of parameter rows: minus the n-term
    ratio at each softmax point.  A row whose ratio raises OverflowError
    or MeanComputationError scores +inf.  Rows are independent, so after
    a stack fails each of its rows is re-scored alone."""
    points = _softmax_points(z)
    try:
        return -hardy_ratio(expr, points)
    except (OverflowError, MeanComputationError):
        out = np.empty(len(points))
        for i, point in enumerate(points):
            try:
                out[i] = -hardy_ratio(expr, point)
            except (OverflowError, MeanComputationError):
                out[i] = math.inf
        return out


def hardy_sequence_bound(
    expr: MeanExpr, n: int, cfg: SearchConfig = SearchConfig()
) -> HardySeqBound:
    """Maximize the n-term ratio by multi-start Nelder-Mead.

    The ratio is scale invariant whenever the mean is homogeneous, so
    the search runs on softmax-parametrized simplex points; boundary
    suprema are reachable because the parametrization lets coordinates
    decay to ~1e-300.  The restarts run in lockstep (see
    :func:`~hardymeans.neldermead.minimize_lockstep`), each exactly as
    SciPy's adaptive Nelder-Mead would run it.  The result is a lower
    estimate of the n-term constant, achieved by the reported vector.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        x = (1.0,)
        return HardySeqBound(
            n=1,
            estimate=hardy_ratio(expr, x),
            maximizer=x,
            restarts=0,
            trace=(),
        )
    starts = _search_starts(n, cfg, np.random.default_rng(cfg.seed))
    results = minimize_lockstep(
        lambda z: _negated_ratios(expr, z), starts, cfg.budget, xatol=1e-12, fatol=1e-14
    )
    best_value = -math.inf
    best_x: np.ndarray | None = None
    trace: list[float] = []
    for x, fun, _ in results:
        value = -fun if math.isfinite(fun) else -math.inf
        trace.append(value)
        if value > best_value:  # ties keep the earliest restart
            best_value = value
            best_x = _softmax_points(x)
    if best_x is None:
        raise MeanComputationError("search budget exhausted with no feasible evaluation")
    maximizer = tuple(float(v) for v in best_x)
    return HardySeqBound(
        n=n,
        estimate=hardy_ratio(expr, maximizer),
        maximizer=maximizer,
        restarts=len(trace),
        trace=tuple(trace),
    )


# rows of one stacked hardy_ratio call in simplex_grid_bound
_GRID_CHUNK = 1 << 15


def _composition_chunks(total: int, parts: int):
    """The compositions of ``total`` into ``parts`` nonnegative parts, in
    lexicographic order, as integer arrays of at most _GRID_CHUNK rows.

    Stars and bars: a composition's bar positions are a (parts-1)-subset
    of range(total + parts - 1), and itertools enumerates the subsets in
    the compositions' lexicographic order.
    """
    slots = total + parts - 1
    subsets = itertools.combinations(range(slots), parts - 1)
    while chunk := list(itertools.islice(subsets, _GRID_CHUNK)):
        bars = np.array(chunk, dtype=int).reshape(len(chunk), parts - 1)
        edges = np.column_stack(
            [np.full(len(chunk), -1), bars, np.full(len(chunk), slots)]
        )
        yield np.diff(edges, axis=1) - 1


def simplex_grid_bound(
    expr: MeanExpr, n: int, denominator: int = 64, floor: float = 1e-12
) -> float:
    """Exhaustive maximum of the n-term ratio over the closed simplex
    grid {k/denominator}; zero coordinates are replaced by ``floor`` to
    probe boundary limits (the supremum may sit on the boundary, e.g.
    the arithmetic mean at n = 2).  Intended as an oracle for small n.
    The grid is scored in stacks of a bounded number of rows.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    best = -math.inf
    for comps in _composition_chunks(denominator, n):
        x = np.maximum(comps / denominator, floor)
        try:
            ratios = hardy_ratio(expr, x)
        except (OverflowError, ValueError, MeanComputationError):
            # re-score one by one, so the first failing point raises
            ratios = [hardy_ratio(expr, row) for row in x]
        best = max(best, float(np.max(ratios)))
    return best


# ---------------------------------------------------------------------------
# truncated partial-sum check


@dataclass(frozen=True)
class PartialCheck:
    ratio: float
    reference: float
    strictly_below: bool


def hardy_partial_check(expr: MeanExpr, x, reference: float) -> PartialCheck:
    """Ratio of summed prefix means to the summed entries of a truncated
    summable sequence, and whether it stays strictly below a reference
    constant."""
    if not reference > 0.0:
        raise ValueError("reference constant must be positive")
    ratio = hardy_ratio(expr, as_samples(x))
    return PartialCheck(ratio=ratio, reference=reference, strictly_below=ratio < reference)
