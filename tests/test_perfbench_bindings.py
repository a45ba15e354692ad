"""The benchmark's traced run binds package functions by name.

``perfbench/tracer.py`` wraps every ``(module, name)`` pair of its
``TRACED`` table.  A renamed or deleted function would break only
``perfbench/run.py --trace 1``; these tests read that table from the
tracer's source (without importing or changing it) and check that every
name in it still resolves.  They also run each workload's task list once
through ``perfbench/workloads.py``.
"""
import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _traced_pairs():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            table = ast.literal_eval(node.value)
            return [(module, name) for module, names in table.items() for name in names]
    raise AssertionError("perfbench/tracer.py defines no TRACED table")


TRACED_PAIRS = _traced_pairs()


def test_traced_table_is_nonempty():
    assert len(TRACED_PAIRS) >= 20
    assert ("parser", "parse_mean_expr") in TRACED_PAIRS


@pytest.mark.parametrize(
    "module, name", TRACED_PAIRS, ids=[f"{m}.{n}" for m, n in TRACED_PAIRS]
)
def test_traced_function_resolves(module, name):
    fn = getattr(importlib.import_module(f"hardymeans.{module}"), name, None)
    assert callable(fn), f"perfbench traces hardymeans.{module}.{name}, which is gone"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["sweep", "fuzz", "cli"])
def test_workload_tasks_pass_their_checks(workloads, workload):
    # every task the benchmark times, run once in this process, so that an
    # input the benchmark passes, or a result field its summary reads, that
    # the package no longer has fails here; the mpmath oracles are left to
    # the benchmark
    tasks = workloads.build(workload, seed=0, in_process=True)
    assert tasks
    for task in tasks:
        result = task.run()
        assert task.check(result) is None, task.id
        assert isinstance(task.summary(result), str), task.id
