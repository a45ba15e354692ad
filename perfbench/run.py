"""hardymeans benchmark: the sweep, fuzz and cli workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures: it takes the median set-up time of several fresh
interpreters, then runs whole passes of the workload's task list in one
closed loop (no warm-up, no extra threads) until ``--seconds`` have
passed, checks every output and prints the end-to-end metrics.

``--trace 1`` alternates two untraced and two traced passes of the same
tasks in process (cli commands through ``hardymeans.cli.run_command``),
fails if any layer count differs between the two traced passes, checks
that another seed changes the inputs but not the tasks, attributes
start-up with ``python -X importtime``, and prints the per-layer
metrics.  The spans go to ``perfbench/traces/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one closed loop on a two-core host: BLAS and OpenMP pools would compete
# with the loop for the cores, in this process and in every cli child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "fuzz", "cli")
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 120
# errors below the unit roundoff of a double are reported as the roundoff,
# so that the metric is never 0
UNIT_ROUNDOFF = 2.0**-53
# a timing tail needs this many tasks above it
TAIL_TASKS = 10


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only time the set-up in this fresh interpreter and print it",
    )
    return parser.parse_args(argv)


def timed_setup(workload: str, seed: int, in_process: bool):
    """Import hardymeans.cli and build the workload's inputs."""
    start = time.perf_counter()
    import workloads

    tasks = workloads.build(workload, seed, in_process)
    return time.perf_counter() - start, tasks


def child_setup_s(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.split()[-1])


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


class Log:
    """Durations and verdicts of every task execution."""

    def __init__(self, tasks):
        self.tasks = tasks
        self.durations = [[] for _ in tasks]
        self.first = [None] * len(tasks)  # first passing output per task
        self.summaries = [None] * len(tasks)
        self.failures: dict[tuple[int, int], str] = {}  # (task, execution) -> why
        self.rel_errs = [None] * len(tasks)

    @property
    def attempted(self) -> int:
        return sum(map(len, self.durations))

    def record(self, i: int, duration: float, result, error: str | None) -> None:
        task = self.tasks[i]
        k = len(self.durations[i])
        self.durations[i].append(duration)
        if error is None:
            try:
                error = task.check(result)
                summary = task.summary(result)
            except Exception as exc:  # a malformed output fails its task
                error = f"output check raised {type(exc).__name__}: {exc}"
        if error is None:
            if self.summaries[i] is None:
                self.first[i], self.summaries[i] = result, summary
            elif summary != self.summaries[i]:
                error = "output differs from the task's first execution"
        if error is not None:
            self.failures[(i, k)] = error

    def run_oracles(self, tolerance: float) -> float:
        """Compare each task's first output with its mpmath oracle; return
        the largest error among oracles whose inputs are free of the seed."""
        fixed = []
        for i, task in enumerate(self.tasks):
            if task.oracle is None or self.first[i] is None:
                continue
            try:
                err = task.oracle(self.first[i])
            except Exception as exc:  # a malformed output fails its task
                err, why = math.inf, f"oracle raised {type(exc).__name__}: {exc}"
            else:
                why = f"relative error {err:.3e} against the mpmath oracle"
            self.rel_errs[i] = err
            if task.oracle_fixed:
                fixed.append(err)
            if not err <= tolerance:
                for k in range(len(self.durations[i])):
                    self.failures.setdefault((i, k), why)
        return max(max(fixed, default=0.0), UNIT_ROUNDOFF)


def harrell_davis(values, p: float) -> float:
    """The Harrell-Davis estimate of the ``p`` quantile: a Beta-weighted
    mean of all order statistics, so that the noise of the one or two tasks
    at the quantile's rank is averaged with that of their neighbours."""
    from scipy.special import betainc

    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def run_pass(tasks, log: Log, tracer=None) -> float:
    start = time.perf_counter()
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = task.id
        t0 = time.perf_counter()
        try:
            result, error = task.run(), None
        except Exception as exc:  # a task that raises is a failed task
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        log.record(i, time.perf_counter() - t0, result, error)
    return time.perf_counter() - start


def _print_tasks(log: Log) -> None:
    print(f"{'task':58s} {'median_s':>9s} {'rel_err':>9s} {'gap_ref':>9s}  output")
    for i, task in enumerate(log.tasks):
        err = log.rel_errs[i]
        gap = None
        if task.registry_gap is not None and log.first[i] is not None:
            gap = task.registry_gap(log.first[i])
        print(
            f"{task.id[:58]:58s} {statistics.median(log.durations[i]):9.4f} "
            f"{'-' if err is None else format(err, '.2e'):>9s} "
            f"{'-' if gap is None else format(gap, '+.2e'):>9s}  "
            f"{(log.summaries[i] or '')[:90]}"
        )
    for (i, k), why in sorted(log.failures.items()):
        print(f"FAILED {log.tasks[i].id} (execution {k + 1}): {why}")


def _result(log: Log, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": not log.failures,
            "attempted": log.attempted,
            "failed": len(log.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def measure(args, setup_first: float, tasks) -> int:
    import workloads

    # fresh interpreters before and after the loop, so that the median
    # spans the run and not one stretch of machine speed
    children = SETUP_SAMPLES - 1
    setups = [setup_first] + [
        child_setup_s(args.workload, args.seed) for _ in range(children // 2)
    ]
    log = Log(tasks)
    pass_walls = []
    start = time.perf_counter()
    while not pass_walls or time.perf_counter() - start < args.seconds:
        pass_walls.append(run_pass(tasks, log))
    wall = time.perf_counter() - start
    setups += [
        child_setup_s(args.workload, args.seed) for _ in range(children - children // 2)
    ]
    rss = peak_rss_mb()
    max_err = log.run_oracles(workloads.ORACLE_TOL)

    # medians over the passes, so that one slow spell of the host does not
    # move the figures and the pass count does not move the percentiles
    per_task = [statistics.median(d) for d in log.durations]
    n = len(per_task)
    tail_p = (n - TAIL_TASKS) / n
    attempted = log.attempted
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "tasks_per_s": (n / statistics.median(pass_walls), "1/s"),
        "task_s_p50": (harrell_davis(per_task, 0.5), "s"),
        "task_s_tail": (harrell_davis(per_task, tail_p), "s"),
        "ok_share": ((attempted - len(log.failures)) / attempted, "share"),
        "max_rel_err": (max_err, "1"),
        "peak_rss_mb": (rss, "MB"),
    }
    print(f"workload {args.workload}  seed {args.seed}  passes {len(pass_walls)}  "
          f"tasks/pass {n}  wall {wall:.2f}s  "
          f"pass walls (s): {', '.join(f'{w:.2f}' for w in pass_walls)}")
    _print_tasks(log)
    print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"task_s_p50 and task_s_tail are the Harrell-Davis p50 and p{100 * tail_p:.1f} "
          f"of {n} per-task medians "
          f"({attempted} executions); failed_share "
          f"{len(log.failures) / attempted:.4f}")
    for k, (v, u) in metrics.items():
        print(f"  {k:14s} {v:.6g} {u}")
    print(_result(log, metrics))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    return "count"


def trace(args, tasks) -> int:
    import workloads
    from tracer import Tracer, median_metrics, parse_importtime

    log = Log(tasks)
    # untraced and traced passes alternate, so that a change of host speed
    # does not pass for tracing overhead
    untraced_walls, traced_walls, tracers = [], [], []
    for _ in range(2):
        untraced_walls.append(run_pass(tasks, log))
        tracers.append(Tracer())
        with tracers[-1]:
            traced_walls.append(run_pass(tasks, log, tracers[-1]))
    tracer, again = tracers

    first, second = tracer.counts(), again.counts()
    if first != second:
        for key in first:
            if first[key] != second[key]:
                print(f"error: layer counts differ between two traced runs of seed "
                      f"{args.seed} in {key}:\n  {first[key]}\n  {second[key]}",
                      file=sys.stderr)
        return 1
    other = workloads.build(args.workload, args.seed + 1, in_process=True)
    if [t.id for t in other] != [t.id for t in tasks]:
        print("error: another seed changed which tasks run", file=sys.stderr)
        return 1
    if [t.inputs for t in other] == [t.inputs for t in tasks]:
        print("error: another seed left every input unchanged", file=sys.stderr)
        return 1

    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hardymeans.cli"],
            cwd=ROOT, env=workloads.cli_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        )
        samples.append(parse_importtime(proc.stderr))
    log.run_oracles(workloads.ORACLE_TOL)

    n = len(tasks)
    layers = median_metrics(samples)
    layers.update(tracer.layer_metrics())
    untraced = n / statistics.median(untraced_walls)
    layers["trace.untraced_tasks_per_s"] = untraced
    layers["trace.tasks_per_s"] = n / statistics.median(traced_walls)
    layers["trace.overhead_tasks_per_s"] = layers["trace.tasks_per_s"] - untraced

    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps(tracer.dump()))

    print(f"workload {args.workload}  seed {args.seed}  traced  tasks/pass {n}")
    _print_tasks(log)
    lengths = tracer.evaluate_lengths
    total = sum(lengths.values())
    if total:
        print("evaluate input lengths (share of calls):")
        for lo, hi in ((1, 1), (2, 8), (9, 100), (101, 1000), (1001, 10**9)):
            share = sum(c for k, c in lengths.items() if lo <= k <= hi) / total
            print(f"  {lo:>5d}..{hi if hi < 10**9 else 'inf'!s:<6s} {share:.4f}")
    print(f"prefix_means calls that fell back: {sum(tracer.fallback_by_mean.values())} of "
          f"{layers['hardy.prefix_means_calls']}")
    for mean, calls in sorted(tracer.fallback_by_mean.items()):
        print(f"  {mean:34s} {calls:6d} calls  {tracer.fallback_evals_by_mean[mean]:8d} evaluations")
    for k, v in layers.items():
        print(f"  {k:36s} {v:.6g} {_unit(k)}")
    print(f"spans written to {out.relative_to(ROOT)}")
    print(_result(log, {k: (v, _unit(k)) for k, v in layers.items()}))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "hardymeans" / "__init__.py").is_file():
        print(f"error: no hardymeans package under {SRC}; run from a hardymeans checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_s, tasks = timed_setup(args.workload, args.seed, in_process=bool(args.trace))
    import hardymeans

    if Path(hardymeans.__file__).resolve().parent != (SRC / "hardymeans").resolve():
        print(f"error: imported hardymeans from {hardymeans.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    if args.trace:
        return trace(args, tasks)
    return measure(args, setup_s, tasks)


if __name__ == "__main__":
    sys.exit(main())
