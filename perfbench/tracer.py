"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces each traced function at every module
attribute that binds it (``evaluate``, for example, is bound in core,
gauss, probes, kedlaya, hardy, cli and the package root), so calls from
one module into another pass through the wrapper too.  ``uninstall``
puts the originals back; the package's source is never touched.

A span has a name, start, end, parent and task id.  The innermost spans
(``core.evaluate``, ``families.*``, ``gauss.gauss_step``,
``hardy.hardy_ratio``, and everything under them) run 10^5-10^6 times
per pass, so they are aggregated per (name, parent) instead of kept one
by one.  Self time is a span's duration minus the time its child spans
cover.
"""
from __future__ import annotations

import statistics
import sys
import time
from collections import Counter

import numpy as np

TRACED = {
    "core": ("evaluate",),
    "families": (
        "power_mean",
        "quasi_arithmetic_mean",
        "gini_mean",
        "bajraktarevic_mean",
        "deviation_mean",
    ),
    "gauss": ("gauss_product", "gauss_step"),
    "probes": ("probe_properties",),
    "kedlaya": (
        "kedlaya_table",
        "kedlaya_matrix",
        "check_kedlaya_inequality",
        "kedlaya_margins",
        "matrix_mixing_margin",
    ),
    "hardy": (
        "hardy_constant",
        "closed_form_hardy",
        "pn_sequence",
        "prefix_means",
        "liminf_ratio",
        "hardy_ratio",
        "hardy_sequence_bound",
        "simplex_grid_bound",
    ),
    "parser": ("parse_mean_expr",),
    "cli": ("run_command",),
}
INNERMOST = {"core.evaluate", "gauss.gauss_step", "hardy.hardy_ratio"} | {
    f"families.{name}" for name in TRACED["families"]
}
ROOT_PARENT = "task"
# the families a mean expression's text starts with
FAMILIES = ("power", "gini", "quasi", "bajrak", "dev", "gauss")

# open-frame fields
_NAME, _CHILD_S, _EVALS, _AGGREGATE, _RECORD = range(5)


class Tracer:
    def __init__(self):
        self.task: str | None = None
        self.aggregates: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s, failed]
        self.spans: list = []  # (name, start_s, end_s, parent_index, task, ok)
        self.evaluate_lengths: Counter = Counter()
        self.fallback_by_mean: Counter = Counter()  # prefix_means calls that fell back
        self.fallback_evals_by_mean: Counter = Counter()
        self._stack: list[list] = []
        self._patched: list = []
        self._t0 = time.perf_counter()

    # -- installation -------------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()

    def install(self) -> None:
        wrappers = {}
        for module_name, names in TRACED.items():
            module = sys.modules[f"hardymeans.{module_name}"]
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{module_name}.{name}", fn))
        for module_name, module in list(sys.modules.items()):
            if module_name != "hardymeans" and not module_name.startswith("hardymeans."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self._stack
        aggregates = self.aggregates
        spans = self.spans
        clock = time.perf_counter
        innermost = name in INNERMOST
        is_evaluate = name == "core.evaluate"
        is_prefix = name == "hardy.prefix_means"
        t0 = self._t0

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            aggregate = innermost or (parent is not None and parent[_AGGREGATE])
            record = None
            if not aggregate:
                record = len(spans)
                spans.append(None)
            frame = [name, 0.0, 0, aggregate, record]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent_name = ROOT_PARENT
                if parent is not None:
                    parent[_CHILD_S] += duration
                    parent_name = parent[_NAME]
                entry = aggregates.get((name, parent_name))
                if entry is None:
                    entry = aggregates[(name, parent_name)] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[_CHILD_S]
                if not ok:
                    entry[3] += 1
                if is_evaluate:
                    x = args[1] if len(args) > 1 else kwargs["x"]
                    self.evaluate_lengths[int(np.size(x))] += 1
                    if parent_name == "hardy.prefix_means":
                        parent[_EVALS] += 1
                if is_prefix and frame[_EVALS]:
                    mean = _describe(args[0])
                    self.fallback_by_mean[mean] += 1
                    self.fallback_evals_by_mean[mean] += frame[_EVALS]
                if record is not None:
                    parent_record = parent[_RECORD] if parent is not None else None
                    spans[record] = (name, start - t0, end - t0, parent_record, self.task, ok)

        traced.__wrapped__ = fn
        return traced

    # -- summaries ----------------------------------------------------------

    def counts(self) -> dict:
        """Everything that must repeat exactly for a repeated seed."""
        return {
            "calls": {f"{n} <- {p}": (v[0], v[3]) for (n, p), v in sorted(self.aggregates.items())},
            "evaluate_lengths": dict(sorted(self.evaluate_lengths.items())),
            "fallback_by_mean": dict(sorted(self.fallback_by_mean.items())),
            "fallback_evals_by_mean": dict(sorted(self.fallback_evals_by_mean.items())),
        }

    def _sum(self, name: str, field: int, parent: str | None = None, outermost=False):
        return sum(
            v[field]
            for (n, p), v in self.aggregates.items()
            if n == name and (parent is None or p == parent) and not (outermost and p == n)
        )

    def calls(self, name: str, parent: str | None = None) -> int:
        return self._sum(name, 0, parent)

    def inclusive_s(self, name: str) -> float:
        """Time inside ``name``, counting a directly recursive call once."""
        return self._sum(name, 1, outermost=True)

    def self_s(self, name: str) -> float:
        return self._sum(name, 2)

    def failed(self, name: str, parent: str | None = None) -> int:
        return self._sum(name, 3, parent)

    def layer_metrics(self) -> dict[str, float]:
        def ratio(a, b):
            return a / b if b else 0.0

        m: dict[str, float] = {}
        m["parser.parse_calls"] = self.calls("parser.parse_mean_expr")
        m["parser.parse_s"] = self.inclusive_s("parser.parse_mean_expr")
        m["cli.run_command_calls"] = self.calls("cli.run_command")
        m["cli.run_command_s"] = self.inclusive_s("cli.run_command")

        lengths = self.evaluate_lengths
        n_eval = sum(lengths.values())
        m["core.evaluate_calls"] = n_eval
        m["core.evaluate_self_s"] = self.self_s("core.evaluate")
        m["core.evaluate_failed"] = self.failed("core.evaluate")
        m["core.evaluate_mean_len"] = ratio(sum(k * c for k, c in lengths.items()), n_eval)
        expanded = sorted(lengths.items())
        m["core.evaluate_len_p50"] = _weighted_quantile(expanded, 0.5)
        m["core.evaluate_len_p90"] = _weighted_quantile(expanded, 0.9)
        m["core.evaluate_len_max"] = max(lengths, default=0)

        for fn in TRACED["families"]:
            m[f"families.{fn}_calls"] = self.calls(f"families.{fn}")
            m[f"families.{fn}_s"] = self.inclusive_s(f"families.{fn}")

        products = self.calls("gauss.gauss_product")
        m["gauss.product_calls"] = products
        m["gauss.product_self_s"] = self.self_s("gauss.gauss_product")
        m["gauss.step_calls"] = self.calls("gauss.gauss_step")
        m["gauss.steps_per_product"] = ratio(
            self.calls("gauss.gauss_step", "gauss.gauss_product"), products
        )

        probes = self.calls("probes.probe_properties")
        m["probes.probe_calls"] = probes
        m["probes.probe_s"] = self.inclusive_s("probes.probe_properties")
        m["probes.evals_per_probe"] = ratio(
            self.calls("core.evaluate", "probes.probe_properties"), probes
        )

        m["kedlaya.table_s"] = self.inclusive_s("kedlaya.kedlaya_table")
        m["kedlaya.matrix_s"] = self.inclusive_s("kedlaya.kedlaya_matrix")
        m["kedlaya.check_calls"] = self.calls("kedlaya.check_kedlaya_inequality")
        m["kedlaya.check_s"] = self.inclusive_s("kedlaya.check_kedlaya_inequality")
        m["kedlaya.margins_s"] = self.inclusive_s("kedlaya.kedlaya_margins")
        m["kedlaya.mixing_s"] = self.inclusive_s("kedlaya.matrix_mixing_margin")

        prefix_calls = self.calls("hardy.prefix_means")
        m["hardy.constant_calls"] = self.calls("hardy.hardy_constant")
        m["hardy.constant_self_s"] = self.self_s("hardy.hardy_constant")
        m["hardy.closed_form_s"] = self.inclusive_s("hardy.closed_form_hardy")
        m["hardy.pn_sequence_s"] = self.inclusive_s("hardy.pn_sequence")
        m["hardy.liminf_s"] = self.inclusive_s("hardy.liminf_ratio")
        m["hardy.prefix_means_calls"] = prefix_calls
        m["hardy.prefix_means_self_s"] = self.self_s("hardy.prefix_means")
        m["hardy.prefix_fallback_evals"] = self.calls("core.evaluate", "hardy.prefix_means")
        for family in FAMILIES:
            m[f"hardy.prefix_fallback_evals_{family}"] = sum(
                evals
                for mean, evals in self.fallback_evals_by_mean.items()
                if mean.split("(", 1)[0] == family
            )
        m["hardy.prefix_fallback_share"] = ratio(
            sum(self.fallback_by_mean.values()), prefix_calls
        )
        # a y-grid point is skipped when its prefix sweep raises
        m["hardy.ygrid_skipped"] = self.failed("hardy.prefix_means", "hardy.hardy_constant")

        m["hardy.ratio_calls"] = self.calls("hardy.hardy_ratio")
        m["hardy.ratio_s"] = self.inclusive_s("hardy.hardy_ratio")
        m["hardy.ratio_failed"] = self.failed("hardy.hardy_ratio")
        m["hardy.sequence_bound_s"] = self.inclusive_s("hardy.hardy_sequence_bound")
        m["hardy.simplex_grid_s"] = self.inclusive_s("hardy.simplex_grid_bound")
        return m

    def dump(self) -> dict:
        return {
            "spans": [
                dict(zip(("name", "start_s", "end_s", "parent", "task", "ok"), s))
                for s in self.spans
            ],
            "aggregates": [
                {"name": n, "parent": p, "calls": v[0], "total_s": v[1], "self_s": v[2], "failed": v[3]}
                for (n, p), v in sorted(self.aggregates.items())
            ],
            "evaluate_lengths": dict(sorted(self.evaluate_lengths.items())),
            "fallback_by_mean": dict(sorted(self.fallback_by_mean.items())),
            "fallback_evals_by_mean": dict(sorted(self.fallback_evals_by_mean.items())),
        }


def _describe(expr) -> str:
    from hardymeans.parser import format_mean_expr

    try:
        return format_mean_expr(expr)
    except ValueError:  # min and max have no textual form
        return type(expr).__name__


def _weighted_quantile(items: list[tuple[int, int]], q: float) -> float:
    """Smallest value whose cumulative count reaches q of the total."""
    total = sum(c for _, c in items)
    if not total:
        return 0.0
    seen = 0
    for value, count in items:
        seen += count
        if seen >= q * total:
            return float(value)
    return float(items[-1][0])


# ---------------------------------------------------------------------------
# start-up, which in-process spans cannot see


def parse_importtime(stderr: str) -> dict[str, float]:
    """Attribute ``python -X importtime`` output to numpy, scipy and the
    package itself.

    numpy and scipy count with their cumulative time, at their first
    import that no other counted group caused; the package counts with
    the self time of its own modules, since its cumulative time contains
    the other two.  scipy.optimize's own line is missing from the output
    (scipy loads it lazily), so the scipy group is scipy and all its
    submodules, which the package imports only for ``scipy.optimize``.
    """
    nodes = []  # (depth, name, self_us, cumulative_us, children)
    pending: list = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        raw = fields[2]
        name = raw.strip()
        depth = len(raw) - len(raw.lstrip())
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        node = (depth, name, int(fields[0]), int(fields[1]), children[::-1])
        pending.append(node)
        nodes.append(node)

    totals = {"numpy": 0, "scipy": 0, "hardymeans": 0}
    cli_total = 0

    def group(name: str) -> str | None:
        top = name.split(".", 1)[0]
        return top if top in totals else None

    def walk(node):
        _, name, self_us, cum_us, children = node
        g = group(name)
        if g == "hardymeans":
            totals[g] += self_us
        elif g is not None:
            totals[g] += cum_us
            return
        for child in children:
            walk(child)

    for node in pending:  # the roots
        walk(node)
        if node[1] == "hardymeans.cli":
            cli_total = node[3]
    return {
        "import.hardymeans_s": totals["hardymeans"] / 1e6,
        "import.scipy_optimize_s": totals["scipy"] / 1e6,
        "import.numpy_s": totals["numpy"] / 1e6,
        "import.total_s": cli_total / 1e6,
    }


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
