"""Task lists of the three benchmark workloads.

A workload is a fixed list of tasks.  The seed draws only the sampled
inputs (probe and sampling seeds, sample vectors), never which tasks
run, so task ids are the same for every seed.  Importing this
module imports ``hardymeans.cli``; together with ``build`` it is what the
benchmark's ``setup_s`` measures.

Every task carries a cheap invariant ``check`` that runs after each
execution, and optionally an ``oracle`` that returns the relative error
against a 50-digit mpmath value; oracles run once, after the timed loop.
Only oracles whose inputs do not depend on the seed (``oracle_fixed``)
enter ``max_rel_err``, so that the metric compares across seeds; the
others are pass/fail at ``ORACLE_TOL``.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import Any, Callable

import numpy as np

import hardymeans as hm
import hardymeans.cli

ROOT = Path(__file__).resolve().parent.parent
ORACLE_TOL = 1e-12
# margins and ratios of exact inequalities may dip below zero by rounding only
MARGIN_FLOOR = -1e-12
CLI_TIMEOUT_S = 120


@dataclass
class Task:
    id: str  # names the work; identical for every seed
    inputs: str  # the seeded part of the inputs
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # error text, or None when the output holds
    summary: Callable[[Any], str]  # compared across passes, and printed
    oracle: Callable[[Any], float] | None = None
    oracle_fixed: bool = False
    registry_gap: Callable[[Any], float | None] | None = None


def _require(condition: bool, message: str) -> str | None:
    return None if condition else message


def _oracle():
    """The mpmath oracle module, imported on first use so that its import
    stays outside the measured set-up."""
    import oracle

    return oracle


def _seeds(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _vector(rng: np.random.Generator, lo_dim: int, hi_dim: int) -> list[float]:
    n = int(rng.integers(lo_dim, hi_dim + 1))
    return [float(v) for v in np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=n))]


# ---------------------------------------------------------------------------
# sweep: the paper's job, hardy_constant over a catalogue of means

# (mean, n_max, expected report).  Implicit and Gauss entries take the
# per-prefix fallback, which costs one full evaluation per prefix, so their
# n_max is cut until each entry runs for about a second and a pass takes
# about 6 s: a run then holds several passes, and per-task medians over
# the passes filter out the host's slow spells.
SWEEP_CATALOGUE = (
    # running-sum power means
    ("power(0.5)", 10_000, "finite"),
    ("power(0.25)", 10_000, "finite"),
    ("power(0)", 10_000, "finite"),
    ("power(-0.5)", 10_000, "finite"),
    ("power(-1)", 10_000, "finite"),
    ("power(-2)", 10_000, "finite"),
    ("power(2)", 10_000, "divergent"),
    # running-sum Gini means
    ("gini(0.5,-1)", 10_000, "finite"),
    ("gini(0.25,-0.5)", 10_000, "finite"),
    ("gini(0,-1)", 10_000, "finite"),
    ("gini(-1,-2)", 10_000, "finite"),
    ("gini(-0.5,-0.5)", 10_000, "finite"),
    ("gini(2,1)", 10_000, "divergent"),
    # running-sum quasi-arithmetic means
    ("quasi(log)", 10_000, "finite"),
    ("quasi(pow:0.5)", 10_000, "finite"),
    ("quasi(pow:-1)", 10_000, "finite"),
    # running sums overflow: per-prefix fallback
    ("power(-300)", 10_000, "finite"),
    # per-prefix Gaussian products
    ("gauss(power(-1),power(0))", 1_500, "finite"),
    # implicit means: per-prefix bisection
    ("bajrak(pow:0.5,pow:-1)", 300, "finite"),
    ("dev(pair:pow:0.5,pow:-1)", 150, "finite"),
    # non-homogeneous means: y-grid estimator
    ("quasi(exp)", 10_000, "grid"),
    ("bajrak(exp,pow:0)", 32, "grid"),
)
SWEEP_LIMINF = (
    ("gini(0.5,-1)", "harmonic"),
    ("power(0)", "sqrt"),
    ("power(-1)", "constant"),
)
LIMINF_N_MAX = 10_000


def _check_hardy(expected: str, est) -> str | None:
    if expected == "divergent":
        return _require(est.divergent, "registry non-summable mean not reported divergent")
    value = est.estimate
    if expected == "grid":
        # (n/y) M(y/1, ..., y/n) >= (n/y) * min = 1 for every mean
        return _require(
            not math.isfinite(value) or value >= 1.0 - ORACLE_TOL,
            f"grid estimate {value!r} below 1",
        )
    if est.divergent or not math.isfinite(value):
        return f"finite mean reported divergent ({value!r})"
    if est.reference is not None and value > est.reference * (1.0 + ORACLE_TOL):
        return f"estimate {value!r} exceeds the registry constant {est.reference!r}"
    return None


def _registry_gap(est) -> float | None:
    if est.reference is None or not math.isfinite(est.estimate):
        return None
    return (est.estimate - est.reference) / est.reference


def _hardy_task(text: str, n_max: int, expected: str, probe_seed: int) -> Task:
    expr = hm.parse_mean_expr(text)
    cfg = hm.HardyConfig(
        n_max=n_max,
        probe=hm.ProbeConfig(samples=64, seed=probe_seed, entry_range=(0.1, 10.0)),
    )
    oracle = None
    if expected == "finite":
        def oracle(est):
            return _oracle().rel_err(est.estimate, _oracle().pn(expr, n_max))

    return Task(
        id=f"hardy {text} n_max={n_max}",
        inputs=f"probe_seed={probe_seed}",
        run=lambda: hm.hardy_constant(expr, cfg),
        check=lambda est: _check_hardy(expected, est),
        summary=lambda est: f"{est.method} estimate={est.estimate!r} divergent={est.divergent}",
        oracle=oracle,
        oracle_fixed=True,
        registry_gap=_registry_gap,
    )


def _check_liminf(sequence: str, value: float) -> str | None:
    if sequence == "constant":
        # M(1, ..., 1) / 1 = 1 exactly, for every mean
        return _require(abs(value - 1.0) <= ORACLE_TOL, f"liminf {value!r} != 1")
    # a decreasing sequence's last entry is its minimum, and M >= min
    return _require(value >= 1.0 - ORACLE_TOL, f"liminf {value!r} below 1")


def _liminf_task(text: str, sequence: str) -> Task:
    expr = hm.parse_mean_expr(text)
    return Task(
        id=f"liminf {text} {sequence} n_max={LIMINF_N_MAX}",
        inputs="",
        run=lambda: hm.liminf_ratio(expr, sequence, LIMINF_N_MAX),
        check=lambda res: _check_liminf(sequence, res.estimate),
        summary=lambda res: f"estimate={res.estimate!r}",
    )


def sweep(seed: int) -> list[Task]:
    rng = np.random.default_rng(seed)
    tasks = [_hardy_task(t, n, e, _seeds(rng)) for t, n, e in SWEEP_CATALOGUE]
    tasks += [_liminf_task(t, s) for t, s in SWEEP_LIMINF]
    return tasks


# ---------------------------------------------------------------------------
# fuzz: many small tasks on one representative mean per family

ZOO = {
    "power(1)": hm.Power(1.0),
    "power(0)": hm.Power(0.0),
    "power(-1)": hm.Power(-1.0),
    "power(0.5)": hm.Power(0.5),
    "power(2)": hm.Power(2.0),
    "gini(0.5,-1)": hm.Gini(0.5, -1.0),
    "gini(2,1)": hm.Gini(2.0, 1.0),
    "quasi(log)": hm.QuasiArithmetic(hm.LOG),
    "quasi(pow:0.5)": hm.QuasiArithmetic(hm.power_generator(0.5)),
    "bajrak(pow:2,pow:1)": hm.Bajraktarevic(hm.power_generator(2), hm.power_generator(1)),
    "dev(arith)": hm.Deviation(hm.ARITHMETIC_DEVIATION),
    "dev(pair:pow:2,pow:1)": hm.Deviation(
        hm.PairDeviation(hm.power_generator(2), hm.power_generator(1))
    ),
    "gauss(power(-1),power(0))": hm.Gauss((hm.Power(-1.0), hm.Power(0.0))),
    "min": hm.MinOf(),
    "max": hm.MaxOf(),
}
# symmetric, Jensen concave, repetition invariant: prefix-average margins >= 0
CONCAVE = ("power(0)", "power(0.5)", "gini(0.5,-1)", "gauss(power(-1),power(0))")
MARGIN_MEANS = CONCAVE + ("power(1)", "quasi(log)", "min", "bajrak(pow:2,pow:1)")
SEARCH_MEANS = ("power(0)", "gini(0.5,-1)", "quasi(pow:0.5)", "gauss(power(-1),power(0))")
SEARCH_N = 3
# the first four starts of the search are fixed; later ones are drawn from
# the seed and make the evaluation count, and with it the tail, seed-dependent
SEARCH_RESTARTS = 4
GRID_DENOMINATOR = 30  # a multiple of SEARCH_N puts the constant vector on the grid
MIXING_MEANS = ("power(0)", "power(0.5)", "gini(0.5,-1)")
MIXING_N = 5


def _probe_task(name: str, seed: int) -> Task:
    cfg = hm.ProbeConfig(samples=64, seed=seed, entry_range=(0.1, 10.0))
    return Task(
        id=f"probe {name}",
        inputs=f"seed={seed}",
        run=lambda: hm.probe_properties(ZOO[name], cfg),
        check=lambda rep: _require(
            rep.holds("mean_value") and rep.holds("symmetry"),
            f"mean-value or symmetry violated: {rep.violated()}",
        ),
        summary=lambda rep: f"violated={rep.violated()}",
    )


def _check_margins(name: str, margins) -> str | None:
    if name == "power(1)":
        return _require(
            float(np.abs(margins).max()) <= ORACLE_TOL, "arithmetic margins are not 0"
        )
    if name in CONCAVE:
        return _require(
            float(margins.min()) >= MARGIN_FLOOR, f"negative margin {margins.min()!r}"
        )
    return None


def _margins_task(name: str, seed: int) -> Task:
    return Task(
        id=f"kedlaya_margins {name}",
        inputs=f"seed={seed}",
        run=lambda: hm.kedlaya_margins(ZOO[name], samples=200, seed=seed),
        check=lambda m: _check_margins(name, m),
        summary=lambda m: f"min={float(m.min())!r} max={float(m.max())!r}",
    )


def _search_task(name: str) -> Task:
    cfg = hm.SearchConfig(restarts=SEARCH_RESTARTS)
    return Task(
        id=f"hardy_sequence_bound {name} n={SEARCH_N}",
        inputs="",
        run=lambda: hm.hardy_sequence_bound(ZOO[name], SEARCH_N, cfg),
        check=lambda b: _require(
            b.estimate >= 1.0 - ORACLE_TOL, f"n-term bound {b.estimate!r} below 1"
        ),
        summary=lambda b: f"estimate={b.estimate!r} at {b.maximizer!r}",
        oracle=lambda b: _oracle().rel_err(
            b.estimate, _oracle().hardy_ratio(ZOO[name], b.maximizer)
        ),
        oracle_fixed=True,
    )


def _grid_task(name: str) -> Task:
    return Task(
        id=f"simplex_grid_bound {name} n={SEARCH_N} denominator={GRID_DENOMINATOR}",
        inputs="",
        run=lambda: hm.simplex_grid_bound(ZOO[name], SEARCH_N, GRID_DENOMINATOR),
        # the constant vector is on the grid, and its ratio is 1 for every mean
        check=lambda v: _require(v >= 1.0 - ORACLE_TOL, f"grid maximum {v!r} below 1"),
        summary=repr,
        oracle=lambda v: _oracle().rel_err(
            v, _oracle().simplex_grid_max(ZOO[name], SEARCH_N, GRID_DENOMINATOR)
        ),
        oracle_fixed=True,
    )


def _table_task(n: int) -> Task:
    return Task(
        id=f"kedlaya_table n={n}",
        inputs="",
        run=lambda: hm.kedlaya_table(n).audit(),
        check=lambda audit: _require(all(audit.values()), f"audit failed: {audit}"),
        summary=lambda audit: repr(sorted(audit.items())),
    )


def _matrix_task(n: int) -> Task:
    return Task(
        id=f"kedlaya_matrix n={n}",
        inputs="",
        run=lambda: hm.kedlaya_matrix(n).audit_occurrences(),
        check=lambda ok: _require(ok, "occurrence audit failed"),
        summary=repr,
    )


def _mixing_task(name: str, x: list[float]) -> Task:
    return Task(
        id=f"matrix_mixing_margin {name} n={MIXING_N}",
        inputs=repr(x),
        run=lambda: hm.matrix_mixing_margin(ZOO[name], x),
        # the test suite's tolerance for the re-enactment on these means
        check=lambda m: _require(m >= -1e-10, f"negative mixing margin {m!r}"),
        summary=repr,
    )


def fuzz(seed: int) -> list[Task]:
    rng = np.random.default_rng(seed)
    tasks = [_probe_task(name, _seeds(rng)) for name in ZOO]
    tasks += [_margins_task(name, _seeds(rng)) for name in MARGIN_MEANS]
    tasks += [_search_task(name) for name in SEARCH_MEANS]
    tasks += [_grid_task(name) for name in SEARCH_MEANS]
    tasks += [_table_task(n) for n in (6, 9, 12)]
    tasks += [_matrix_task(n) for n in (4, 5, 6)]
    tasks += [_mixing_task(name, _vector(rng, MIXING_N, MIXING_N)) for name in MIXING_MEANS]
    return tasks


# ---------------------------------------------------------------------------
# cli: real hardymeans processes, start-up included


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run_process(argv: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "hardymeans.cli", *argv],
        cwd=ROOT,
        env=cli_env(),
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _run_in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = hardymeans.cli.run_command(list(argv))
    return code, out.getvalue(), err.getvalue()


def _payload(result) -> dict:
    return json.loads(result[1])


def _check_cli(result, check_payload: Callable[[dict], str | None]) -> str | None:
    code, out, err = result
    if code != 0:
        return f"exit code {code}: {err.strip()[:200]}"
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    return check_payload(payload)


def _cli_task(
    label: str,
    argv: list[str],
    in_process: bool,
    check_payload: Callable[[dict], str | None] = lambda p: None,
    oracle: Callable[[dict], float] | None = None,
    fixed: bool = True,
) -> Task:
    """One invocation; ``label`` is ``argv`` without its seeded values, and
    ``fixed`` says whether the oracle's inputs are free of the seed."""
    run = _run_in_process if in_process else _run_process
    return Task(
        id="hardymeans " + label,
        inputs=" ".join(argv),
        run=lambda: run(argv),
        check=lambda r: _check_cli(r, check_payload),
        summary=lambda r: f"exit={r[0]} " + " ".join(r[1].split()),
        oracle=None if oracle is None else (lambda r: oracle(_payload(r))),
        oracle_fixed=fixed,
    )


def _check_hardy_payload(divergent: bool, payload: dict) -> str | None:
    if divergent:
        return _require(payload["divergent"], "registry non-summable mean not reported divergent")
    if payload["divergent"] or payload["estimate"] is None:
        return "finite mean reported divergent"
    ref, value = payload["reference"], payload["estimate"]
    if ref is not None and value > ref * (1.0 + ORACLE_TOL):
        return f"estimate {value!r} exceeds the registry constant {ref!r}"
    return None


def _check_probe_payload(payload: dict) -> str | None:
    v = payload["verdicts"]
    return _require(
        v["mean_value"]["holds_on_samples"] and v["symmetry"]["holds_on_samples"],
        "mean-value or symmetry violated",
    )


CLI_EVAL = ("power(0.5)", "gini(0.5,-1)", "gauss(power(-1),power(0))", "bajrak(pow:2,pow:1)")
CLI_PROBE = ("power(0)", "gini(2,1)", "quasi(log)", "gauss(power(-1),power(0))")
CLI_HARDY = (
    "power(0.5)",
    "power(-1)",
    "gini(0.5,-1)",
    "gini(0.25,-0.5)",
    "quasi(pow:0.5)",
    "power(2)",
)
CLI_DIVERGENT = ("power(2)",)


def cli(seed: int, in_process: bool = False) -> list[Task]:
    rng = np.random.default_rng(seed)

    def eval_task(text: str, xs: list[float] | None = None) -> Task:
        fixed = xs is None
        xs = [1.0, 2.0, 3.0] if fixed else xs
        expr = hm.parse_mean_expr(text)
        return _cli_task(
            f"eval {text} " + (" ".join(map(repr, xs)) if fixed else "X..."),
            ["eval", text, *map(repr, xs)],
            in_process,
            oracle=lambda p: _oracle().rel_err(p["value"], _oracle().mean(expr, xs)),
            fixed=fixed,
        )

    def gauss_task(texts: tuple[str, ...], xs: list[float] | None = None) -> Task:
        fixed = xs is None
        xs = [2.0, 2.718281828459045] if fixed else xs
        means = [hm.parse_mean_expr(t) for t in texts]
        return _cli_task(
            f"gauss {' '.join(texts)} --at " + (" ".join(map(repr, xs)) if fixed else "X..."),
            ["gauss", *texts, "--at", *map(repr, xs)],
            in_process,
            oracle=lambda p: _oracle().rel_err(
                p["value"], _oracle().gauss_product(means, xs)
            ),
            fixed=fixed,
        )

    def hardy_task(text: str) -> Task:
        expr = hm.parse_mean_expr(text)
        divergent = text in CLI_DIVERGENT
        # the seed moves only the probe gate; the estimate is the same p_n
        return _cli_task(
            f"hardy {text} --seed S",
            ["hardy", text, "--seed", str(_seeds(rng))],
            in_process,
            check_payload=lambda p: _check_hardy_payload(divergent, p),
            oracle=None
            if divergent
            else lambda p: _oracle().rel_err(p["estimate"], _oracle().pn(expr, p["nmax"])),
        )

    tasks = [eval_task("gini(2,1)")]
    tasks += [eval_task(t, _vector(rng, 2, 8)) for t in CLI_EVAL]
    tasks.append(gauss_task(("power(-1)", "power(0)")))
    tasks.append(gauss_task(("power(-1)", "power(0)"), _vector(rng, 2, 8)))
    tasks.append(gauss_task(("power(0)", "power(0.5)", "power(-2)"), _vector(rng, 3, 8)))
    for n in (4, 6, 8):
        argv = ["kedlaya", "coeffs", "--n", str(n)]
        tasks.append(
            _cli_task(
                " ".join(argv),
                argv,
                in_process,
                check_payload=lambda p: _require(p["all_pass"], "coefficient audit failed"),
            )
        )
    for text, seq in SWEEP_LIMINF:
        argv = ["liminf", text, "--seq", seq]
        tasks.append(
            _cli_task(
                " ".join(argv),
                argv,
                in_process,
                check_payload=lambda p, seq=seq: _check_liminf(seq, p["estimate"]),
            )
        )
    for text in CLI_PROBE:
        tasks.append(
            _cli_task(
                f"probe {text} --seed S --samples 64",
                ["probe", text, "--seed", str(_seeds(rng)), "--samples", "64"],
                in_process,
                check_payload=_check_probe_payload,
            )
        )
    tasks += [hardy_task(text) for text in CLI_HARDY]
    return tasks


def build(workload: str, seed: int, in_process: bool = False) -> list[Task]:
    """The workload's tasks in run order.  ``in_process`` runs cli commands
    through ``hardymeans.cli.run_command`` instead of a process, for the
    traced run."""
    if workload == "cli":
        return interleave(cli(seed, in_process))
    return interleave({"sweep": sweep, "fuzz": fuzz}[workload](seed))


def interleave(tasks: list[Task]) -> list[Task]:
    """Run the list with a fixed stride, so that tasks of one kind, which
    sit together in the list, are spread over the pass: the median of many
    short tasks then samples the whole pass and not one second of it."""
    n = len(tasks)
    stride = next(s for s in range(7, n + 7) if math.gcd(s, n) == 1)
    return [tasks[i * stride % n] for i in range(n)]
