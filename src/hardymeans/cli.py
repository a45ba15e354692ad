"""Command-line front end.

Subcommands: eval, probe, hardy, hardy-seq, liminf, kedlaya
(coeffs/matrix/check), gauss.  Structured results go to stdout as JSON;
the hardy subcommand can additionally write the p_n sweep as CSV
(columns ``n,p_n``, 15 significant digits, LF line endings).  Exit
codes: 0 success, 1 computation error, 2 usage error (including parse
errors in the mean text).  Errors are written to stderr prefixed with a
stable error-code string.

Every randomized subcommand (probe, hardy-seq, kedlaya check) takes a
seed (defaulting to 0) and echoes it in the report, so re-running the
echoed command reproduces the payload bit for bit.  The other
subcommands, hardy included, depend on no seed and echo ``seed: null``;
hardy still accepts ``--seed`` and ignores it.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .core import (
    BracketError,
    MeanComputationError,
    NonConvergenceError,
    evaluate,
)
from .gauss import GaussConfig, gauss_product
from .hardy import (
    HardyConfig,
    SearchConfig,
    hardy_constant,
    hardy_sequence_bound,
    liminf_ratio,
)
from .kedlaya import kedlaya_margins, kedlaya_matrix, kedlaya_table
from .parser import ParseError, parse_mean_expr
from .probes import ProbeConfig, probe_properties

__all__ = ["run_command", "main"]


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number")
    return value


def _parse_ygrid(spec: str) -> tuple[float, ...]:
    try:
        lo_text, hi_text, count_text = spec.split(":")
        lo, hi, count = float(lo_text), float(hi_text), int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{spec!r} is not of the form LO:HI:COUNT"
        ) from None
    if not (0.0 < lo < hi) or count < 1:
        raise argparse.ArgumentTypeError(f"{spec!r} must satisfy 0 < LO < HI, COUNT >= 1")
    return tuple(float(v) for v in np.geomspace(lo, hi, count))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardymeans",
        description="Means of positive reals and their summability constants.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a mean at a vector")
    p_eval.add_argument("mean")
    p_eval.add_argument("xs", nargs="+", type=_positive_float, metavar="x")

    p_probe = sub.add_parser("probe", help="probe structural properties by sampling")
    p_probe.add_argument("mean")
    p_probe.add_argument("--seed", type=int, default=0)
    p_probe.add_argument("--samples", type=int, default=200)
    p_probe.add_argument("--tolerance", type=float, default=1e-9)

    p_hardy = sub.add_parser("hardy", help="estimate the summability constant")
    p_hardy.add_argument("mean")
    p_hardy.add_argument("--nmax", type=int, default=10_000)
    p_hardy.add_argument(
        "--ygrid",
        type=_parse_ygrid,
        default=None,
        metavar="LO:HI:COUNT",
        help="log-spaced y grid for the non-homogeneous estimator (default 1e-3:1e3:41)",
    )
    p_hardy.add_argument(
        "--seed",
        type=int,
        default=0,
        help="ignored: the family rules decide the gate, and no probe runs",
    )
    p_hardy.add_argument("--csv", default=None, metavar="PATH", help="write the p_n sweep")

    p_seq = sub.add_parser("hardy-seq", help="lower-bound the n-term constant")
    p_seq.add_argument("mean")
    p_seq.add_argument("--n", type=int, required=True)
    p_seq.add_argument(
        "--restarts",
        type=int,
        default=12,
        help="number of starts; the four fixed starts always run, and seeded "
        "random starts are added up to this count (default 12)",
    )
    p_seq.add_argument("--seed", type=int, default=0)
    p_seq.add_argument("--budget", type=int, default=2000)

    p_liminf = sub.add_parser("liminf", help="tail-window ratio along a named sequence")
    p_liminf.add_argument("mean")
    p_liminf.add_argument("--seq", choices=("harmonic", "constant", "sqrt"), required=True)
    p_liminf.add_argument("--nmax", type=int, default=10_000)

    p_ked = sub.add_parser("kedlaya", help="prefix-mixing combinatorics and checks")
    ked_sub = p_ked.add_subparsers(dest="kedlaya_command", required=True)
    k_coeffs = ked_sub.add_parser("coeffs", help="exact coefficient table with audit")
    k_coeffs.add_argument("--n", type=int, required=True)
    k_matrix = ked_sub.add_parser("matrix", help="block matrix with occurrence audit")
    k_matrix.add_argument("--n", type=int, required=True)
    k_check = ked_sub.add_parser("check", help="inequality margins on random vectors")
    k_check.add_argument("mean")
    k_check.add_argument("--samples", type=int, default=500)
    k_check.add_argument("--seed", type=int, default=0)

    p_gauss = sub.add_parser("gauss", help="evaluate a Gaussian product")
    p_gauss.add_argument("means", nargs="+")
    p_gauss.add_argument(
        "--at", nargs="+", type=_positive_float, required=True, metavar="x"
    )
    p_gauss.add_argument("--tolerance", type=float, default=1e-13)
    p_gauss.add_argument("--max-iterations", type=int, default=10_000)

    return parser


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _finite_or_none(value: float | None) -> float | None:
    if value is None or not math.isfinite(value):
        return None
    return float(value)


def _envelope(argv: list[str], seed: int | None) -> dict:
    return {"command": list(argv), "version": __version__, "seed": seed}


def _counterexample_payload(counterexample) -> dict | None:
    if counterexample is None:
        return None
    return {
        "vectors": [list(v) for v in counterexample.vectors],
        "observed": list(counterexample.observed),
        "margin": counterexample.margin,
    }


def _cmd_eval(args, argv) -> None:
    expr = parse_mean_expr(args.mean)
    payload = _envelope(argv, None)
    payload["value"] = evaluate(expr, args.xs)
    _emit(payload)


def _cmd_probe(args, argv) -> None:
    expr = parse_mean_expr(args.mean)
    cfg = ProbeConfig(samples=args.samples, seed=args.seed, tolerance=args.tolerance)
    report = probe_properties(expr, cfg)
    payload = _envelope(argv, args.seed)
    payload["samples"] = cfg.samples
    payload["tolerance"] = cfg.tolerance
    payload["verdicts"] = {
        name: {
            "holds_on_samples": verdict.holds_on_samples,
            "counterexample": _counterexample_payload(verdict.counterexample),
        }
        for name, verdict in report.verdicts.items()
    }
    payload["notes"] = [
        "sampling probe: 'holds_on_samples' means no violation found at the tolerance"
    ]
    _emit(payload)


def _write_pn_csv(path: str, pn) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write("n,p_n\n")
        for n, value in enumerate(pn.values, start=1):
            handle.write(f"{n},{value:.15g}\n")


def _cmd_hardy(args, argv) -> None:
    expr = parse_mean_expr(args.mean)
    estimate = hardy_constant(expr, HardyConfig(n_max=args.nmax, y_grid=args.ygrid))
    payload = _envelope(argv, None)
    payload["method"] = estimate.method
    payload["estimate"] = _finite_or_none(estimate.estimate)
    payload["reference"] = estimate.reference
    payload["reference_kind"] = estimate.reference_kind
    payload["tolerance"] = estimate.tolerance
    payload["nmax"] = estimate.n_max
    payload["divergent"] = estimate.divergent
    payload["max_pn_decrease"] = estimate.pn.max_decrease if estimate.pn else None
    payload["notes"] = list(estimate.notes)
    if args.csv is not None:
        if estimate.pn is None:
            payload["notes"].append("no p_n sweep on the grid path; CSV not written")
        else:
            _write_pn_csv(args.csv, estimate.pn)
    _emit(payload)


def _cmd_hardy_seq(args, argv) -> None:
    expr = parse_mean_expr(args.mean)
    cfg = SearchConfig(restarts=args.restarts, seed=args.seed, budget=args.budget)
    bound = hardy_sequence_bound(expr, args.n, cfg)
    payload = _envelope(argv, args.seed)
    payload["n"] = bound.n
    payload["estimate"] = bound.estimate
    payload["maximizer"] = list(bound.maximizer)
    payload["restarts"] = bound.restarts
    payload["trace"] = [_finite_or_none(v) for v in bound.trace]
    payload["notes"] = ["lower bound: the n-term constant is at least this large"]
    _emit(payload)


def _cmd_liminf(args, argv) -> None:
    expr = parse_mean_expr(args.mean)
    result = liminf_ratio(expr, args.seq, args.nmax)
    payload = _envelope(argv, None)
    payload["sequence"] = result.sequence
    payload["nmax"] = result.n_max
    payload["window"] = list(result.window)
    payload["estimate"] = result.estimate
    payload["notes"] = ["tail-window minimum; lower-bounds the summability constant"]
    _emit(payload)


def _cmd_kedlaya(args, argv) -> None:
    if args.kedlaya_command == "coeffs":
        table = kedlaya_table(args.n)
        audit = table.audit()
        payload = _envelope(argv, None)
        payload["n"] = args.n
        payload["coefficients"] = table.coefficients.tolist()
        payload["audit"] = audit
        payload["all_pass"] = all(audit.values())
        _emit(payload)
    elif args.kedlaya_command == "matrix":
        matrix = kedlaya_matrix(args.n)
        payload = _envelope(argv, None)
        payload["n"] = args.n
        payload["matrix"] = matrix.entries.tolist()
        payload["occurrences_pass"] = matrix.audit_occurrences()
        _emit(payload)
    else:
        expr = parse_mean_expr(args.mean)
        margins = kedlaya_margins(expr, samples=args.samples, seed=args.seed)
        payload = _envelope(argv, args.seed)
        payload["samples"] = args.samples
        payload["margin_min"] = float(margins.min())
        payload["margin_max"] = float(margins.max())
        payload["margin_mean"] = float(margins.mean())
        payload["notes"] = ["nonnegative margins mean the prefix-average inequality held"]
        _emit(payload)


def _cmd_gauss(args, argv) -> None:
    means = tuple(parse_mean_expr(text) for text in args.means)
    if len(means) < 2:
        raise ParseError("'gauss' needs at least two means", 1, expected=("mean",))
    cfg = GaussConfig(tolerance=args.tolerance, max_iterations=args.max_iterations)
    payload = _envelope(argv, None)
    payload["value"] = gauss_product(means, args.at, cfg)
    payload["tolerance"] = cfg.tolerance
    _emit(payload)


_HANDLERS = {
    "eval": _cmd_eval,
    "probe": _cmd_probe,
    "hardy": _cmd_hardy,
    "hardy-seq": _cmd_hardy_seq,
    "liminf": _cmd_liminf,
    "kedlaya": _cmd_kedlaya,
    "gauss": _cmd_gauss,
}


def run_command(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        code = exit_request.code
        return int(code) if code is not None else 0
    try:
        _HANDLERS[args.command](args, argv)
    except ParseError as exc:
        sys.stderr.write(f"E_PARSE: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"E_INVALID: {exc}\n")
        return 2
    except OverflowError as exc:
        sys.stderr.write(f"E_OVERFLOW: {exc}\n")
        return 1
    except NonConvergenceError as exc:
        sys.stderr.write(f"E_NONCONVERGENCE: {exc}\n")
        return 1
    except BracketError as exc:
        sys.stderr.write(f"E_BRACKET: {exc}\n")
        return 1
    except MeanComputationError as exc:
        sys.stderr.write(f"E_COMPUTE: {exc}\n")
        return 1
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
