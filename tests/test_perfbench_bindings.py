"""The benchmark's traced run binds package functions by name.

``perfbench/tracer.py`` wraps every ``(module, name)`` pair of its
``TRACED`` table.  A renamed or deleted function would break only
``perfbench/run.py --trace 1``; these tests read that table from the
tracer's source (without importing or changing it) and check that every
name in it still resolves.
"""
import ast
import importlib
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
