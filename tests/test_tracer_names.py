"""The benchmark's per-layer tracer wraps fixed names on the package modules.

``perfbench/tracing.py`` looks each name in its ``WRAPPED`` table up with
``getattr`` when a traced benchmark run starts; the tier-1 suite does not
run the benchmark, so this test keeps a cleanup from silently breaking it.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrapped() -> dict[str, list[str]]:
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED table in {TRACING}")


def test_every_traced_name_resolves():
    wrapped = _wrapped()
    assert wrapped
    missing = [f"{mod}.{name}" for mod, names in wrapped.items() for name in names
               if not callable(getattr(importlib.import_module(mod), name, None))]
    assert not missing, f"names the tracer wraps are gone: {missing}"
