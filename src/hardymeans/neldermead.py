"""Nelder-Mead minimization of many starts in lockstep.

Each start runs as its own coroutine that yields the points it needs
scored; :func:`minimize_lockstep` gathers the pending points of every
live start into one stack per round, so a vectorized objective pays its
per-call cost once per round instead of once per point.  An iteration
asks for all four of its one-point candidates in one round, so a start
needs one round per iteration (two when it shrinks) instead of two.
Each start follows exactly the path it would follow alone.
"""
from __future__ import annotations

import numpy as np

__all__ = ["nelder_mead", "minimize_lockstep"]


class _BudgetSpent(Exception):
    """A Nelder-Mead lane asked for an evaluation past its budget."""


def _sorted(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The simplex and its scores in SciPy's order, best first."""
    ind = fsim.argsort()
    return sim.take(ind, 0), fsim[ind]


def nelder_mead(x0: np.ndarray, maxfev: int, xatol: float, fatol: float):
    """Nelder-Mead (1965) with the adaptive parameters of Gao & Han
    (2012, Comput. Optim. Appl. 51:259-277), as a coroutine.

    A step-for-step port of SciPy's Nelder-Mead minimizer with
    ``adaptive=True``, ``maxiter = maxfev`` and no bounds or callback,
    so it reproduces SciPy's x, fun and nfev bit for bit.  It yields
    each batch of points it needs scored as a (k, N) array, is sent
    their k values, and returns (x, fun, nfev).  The batches are the
    initial simplex (N + 1 rows); then, per iteration, the four
    one-point candidates (reflection, expansion, outside and inside
    contraction, 4 rows), and after a failed contraction the shrunk
    vertices (at most N rows).

    Only the candidates that SciPy's sequential path scores count
    towards ``maxfev``, and as in SciPy every evaluation past ``maxfev``
    is refused, which abandons the iteration in progress.  The objective
    thus also scores points SciPy skips: it must be a pure function of
    each row that returns a value (+inf for an infeasible point) and
    never raises.
    """
    N = len(x0)
    dim = float(N)
    rho = 1
    chi = 1 + 2 / dim
    psi = 0.75 - 1 / (2 * dim)
    sigma = 1 - 1 / dim
    nonzdelt = 0.05
    zdelt = 0.00025
    # the iteration's four one-point candidates, a * xbar + b * sim[-1]:
    # reflection, expansion, outside and inside contraction
    along_xbar = np.array([[1 + rho], [1 + rho * chi], [1 + psi * rho], [1 - psi]])
    along_worst = np.array([[-rho], [-rho * chi], [-psi * rho], [psi]])

    # x0, and x0 with one coordinate scaled by 1 + nonzdelt, or zdelt if 0
    sim = np.tile(x0, (N + 1, 1))
    for k in range(N):
        sim[k + 1, k] = (1 + nonzdelt) * x0[k] if x0[k] != 0 else zdelt
    fsim = np.full((N + 1,), np.inf, dtype=float)
    fcalls = 0

    def func(points: np.ndarray, out: np.ndarray):
        # as if scored one at a time: every point past maxfev is refused
        nonlocal fcalls
        take = min(len(points), maxfev - fcalls)
        if take > 0:
            out[:take] = yield points[:take]
            fcalls += take
        if take < len(points):
            raise _BudgetSpent

    def spend() -> None:
        # the sequential path scores one candidate: refused past maxfev
        nonlocal fcalls
        if fcalls == maxfev:
            raise _BudgetSpent
        fcalls += 1

    try:
        yield from func(sim, fsim)
    except _BudgetSpent:
        pass
    # sorted twice, as in SciPy: argsort is not stable, so the second pass
    # may reorder tied vertices
    sim, fsim = _sorted(*_sorted(sim, fsim))

    iterations = 1
    while fcalls < maxfev and iterations < maxfev:
        try:
            # SciPy's stopping test on Python floats.  fsim is sorted, nan last, so
            # max |fsim[0] - v| is f[-1] - f[0]; inf - inf is nan, which fails it
            f = fsim.tolist()
            if f[-1] - f[0] <= fatol:
                x = sim.tolist()
                if all(abs(a - b) <= xatol for row in x[1:] for a, b in zip(row, x[0])):
                    break
            xbar = np.add.reduce(sim[:-1], 0) / N
            candidates = along_xbar * xbar + along_worst * sim[-1]
            # reflection, expansion, outside and inside contraction
            fxr, fxe, fxc, fxcc = values = yield candidates
            spend()
            pick = None  # the candidate that replaces the worst vertex
            if fxr < f[0]:
                spend()
                pick = 1 if fxe < fxr else 0
            elif fxr < f[-2]:
                pick = 0
            else:
                spend()
                if fxr < f[-1]:
                    pick = 2 if fxc <= fxr else None
                else:
                    pick = 3 if fxcc < f[-1] else None
                if pick is None:
                    # shrink.  Each vertex moves just before it is scored,
                    # so the one refused for lack of budget has moved, unscored
                    m = min(N, maxfev - fcalls + 1)
                    sim[1 : m + 1] = sim[0] + sigma * (sim[1 : m + 1] - sim[0])
                    yield from func(sim[1 : m + 1], fsim[1:])
            if pick is not None:
                sim[-1], fsim[-1] = candidates[pick], values[pick]
            iterations += 1
        except _BudgetSpent:
            pass
        sim, fsim = _sorted(sim, fsim)
    return sim[0], np.min(fsim), fcalls


def minimize_lockstep(score, starts, maxfev: int, xatol: float, fatol: float) -> list:
    """Run one :func:`nelder_mead` lane per start, in lockstep.

    Each round gathers every live lane's pending points into one (rows,
    N) stack and scores it with one ``score`` call, which must return
    one Python float per row, as a list: the lanes compare them one at a
    time.  A lane adds N + 1 rows in its first round, then
    4 per iteration (its candidate points) or at most N (a shrink).
    ``score`` must be a pure per-row function that does not raise: it
    also scores candidates a lane then discards.  Returns each lane's
    (x, fun, nfev), in start order; every lane follows exactly the path
    it would follow alone.
    """
    lanes = [nelder_mead(np.asarray(z0, dtype=float), maxfev, xatol, fatol) for z0 in starts]
    results: list = [None] * len(lanes)
    pending: dict[int, np.ndarray] = {}

    def advance(i: int, values) -> None:
        try:
            pending[i] = lanes[i].send(values)
        except StopIteration as done:
            results[i] = done.value

    for i in range(len(lanes)):
        advance(i, None)
    while pending:
        asked = list(pending.items())
        pending.clear()
        values = score(np.concatenate([points for _, points in asked]))
        stop = 0
        for i, points in asked:
            advance(i, values[stop : stop + len(points)])
            stop += len(points)
    return results
