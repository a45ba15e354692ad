"""Command-line front end.

Subcommands: eval, probe, hardy, hardy-seq, liminf, kedlaya
(coeffs/matrix/check), gauss.  Structured results go to stdout as JSON;
the hardy subcommand can additionally write the p_n sweep as CSV
(columns ``n,p_n``, 15 significant digits, LF line endings).  Exit
codes: 0 success, 1 computation error, 2 usage error (including parse
errors in the mean text); errors go to stderr behind a stable prefix,
taken with the exit code from the one table ``_ERRORS``.

Each handler returns only its report's own fields; ``run_command``
leads every report with the envelope ``command``, ``version`` and
``seed``, where seed is the subcommand's ``--seed`` or null if it has
none.  So the randomized subcommands (probe, hardy-seq, kedlaya check)
echo their seed (default 0), and re-running the echoed command
reproduces the payload bit for bit; hardy takes ``--seed`` under
another name, ignores it and echoes ``seed: null``.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import __version__
from .core import (
    MeanComputationError,
    NonConvergenceError,
    evaluate,
)
from .gauss import GaussConfig, gauss_product
from .hardy import (
    SEQUENCES,
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
        "--seed",
        dest="ignored_seed",
        metavar="SEED",
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

    p_liminf = sub.add_parser("liminf", help="tail-window ratio along a named sequence")
    p_liminf.add_argument("mean")
    p_liminf.add_argument("--seq", choices=tuple(SEQUENCES), required=True)
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


def _finite_or_none(value: float | None) -> float | None:
    if value is None or not math.isfinite(value):
        return None
    return float(value)


def _cmd_eval(args) -> dict:
    return {"value": evaluate(parse_mean_expr(args.mean), args.xs)}


def _cmd_probe(args) -> dict:
    expr = parse_mean_expr(args.mean)
    cfg = ProbeConfig(samples=args.samples, seed=args.seed, tolerance=args.tolerance)
    report = probe_properties(expr, cfg)
    return {
        "samples": cfg.samples,
        "tolerance": cfg.tolerance,
        "verdicts": {
            name: dataclasses.asdict(verdict) for name, verdict in report.verdicts.items()
        },
        "notes": [
            "sampling probe: 'holds_on_samples' means no violation found at the tolerance"
        ],
    }


def _write_pn_csv(path: str, pn) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write("n,p_n\n")
        for n, value in enumerate(pn.values, start=1):
            handle.write(f"{n},{value:.15g}\n")


def _cmd_hardy(args) -> dict:
    expr = parse_mean_expr(args.mean)
    estimate = hardy_constant(expr, HardyConfig(n_max=args.nmax))
    notes = list(estimate.notes)
    if args.csv is not None:
        if estimate.pn is None:
            notes.append("no p_n sweep for a mean a rule proves non-Hardy; CSV not written")
        else:
            _write_pn_csv(args.csv, estimate.pn)
    return {
        "status": estimate.status,
        "method": estimate.method,
        "estimate": _finite_or_none(estimate.estimate),
        "reference": estimate.reference,
        "reference_kind": estimate.reference_kind,
        "nmax": estimate.n_max,
        "divergent": estimate.divergent,
        "max_pn_decrease": estimate.pn.max_decrease if estimate.pn else None,
        "notes": notes,
    }


def _cmd_hardy_seq(args) -> dict:
    expr = parse_mean_expr(args.mean)
    cfg = SearchConfig(restarts=args.restarts, seed=args.seed)
    bound = hardy_sequence_bound(expr, args.n, cfg)
    notes = ["lower bound: the n-term constant is at least this large"]
    if bound.upper is not None:
        notes.append("upper: the mean is homogeneous and Jensen concave, so the n-term "
                     "constant is at most this large")
    return {
        "n": bound.n,
        "estimate": bound.estimate,
        "upper": bound.upper,
        "maximizer": list(bound.maximizer),
        "restarts": bound.restarts,
        "trace": [_finite_or_none(v) for v in bound.trace],
        "notes": notes,
    }


def _cmd_liminf(args) -> dict:
    result = liminf_ratio(parse_mean_expr(args.mean), args.seq, args.nmax)
    return {
        "sequence": result.sequence,
        "nmax": result.n_max,
        "window": list(result.window),
        "estimate": result.estimate,
        "notes": ["tail-window minimum; estimates the liminf, which is at most the constant"],
    }


def _cmd_kedlaya(args) -> dict:
    if args.kedlaya_command == "coeffs":
        table = kedlaya_table(args.n)
        audit = table.audit()
        return {
            "n": args.n,
            "coefficients": table.coefficients.tolist(),
            "audit": audit,
            "all_pass": all(audit.values()),
        }
    if args.kedlaya_command == "matrix":
        matrix = kedlaya_matrix(args.n)
        return {
            "n": args.n,
            "matrix": matrix.entries.tolist(),
            "occurrences_pass": matrix.audit_occurrences(),
        }
    expr = parse_mean_expr(args.mean)
    margins = kedlaya_margins(expr, samples=args.samples, seed=args.seed)
    return {
        "samples": args.samples,
        "margin_min": float(margins.min()),
        "margin_max": float(margins.max()),
        "margin_mean": float(margins.mean()),
        "notes": ["nonnegative margins mean the prefix-average inequality held"],
    }


def _cmd_gauss(args) -> dict:
    means = tuple(parse_mean_expr(text) for text in args.means)
    if len(means) < 2:
        raise ParseError("'gauss' needs at least two means", 1, expected=("mean",))
    cfg = GaussConfig(tolerance=args.tolerance, max_iterations=args.max_iterations)
    return {"value": gauss_product(means, args.at, cfg), "tolerance": cfg.tolerance}


_HANDLERS = {
    "eval": _cmd_eval,
    "probe": _cmd_probe,
    "hardy": _cmd_hardy,
    "hardy-seq": _cmd_hardy_seq,
    "liminf": _cmd_liminf,
    "kedlaya": _cmd_kedlaya,
    "gauss": _cmd_gauss,
}

# (error class, stderr prefix, exit code), tried in order, so every
# subclass comes before its base class
_ERRORS = (
    (ParseError, "E_PARSE", 2),
    (ValueError, "E_INVALID", 2),
    (OverflowError, "E_OVERFLOW", 1),
    (NonConvergenceError, "E_NONCONVERGENCE", 1),
    (MeanComputationError, "E_COMPUTE", 1),
    (OSError, "E_IO", 1),
)


def run_command(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        code = exit_request.code
        return int(code) if code is not None else 0
    try:
        fields = _HANDLERS[args.command](args)
        seed = getattr(args, "seed", None)
        payload = {"command": list(argv), "version": __version__, "seed": seed, **fields}
        try:
            report = json.dumps(payload, indent=2, allow_nan=False)
        except ValueError as exc:  # nan or infinity, which JSON cannot hold
            raise MeanComputationError(f"the report holds a non-finite number: {exc}") from None
    except tuple(error for error, _, _ in _ERRORS) as exc:
        prefix, code = next((p, c) for error, p, c in _ERRORS if isinstance(exc, error))
        sys.stderr.write(f"{prefix}: {exc}\n")
        return code
    sys.stdout.write(report + "\n")
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
