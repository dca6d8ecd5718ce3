"""The benchmark leans on fixed names and entry points of the package.

``perfbench/tracing.py`` looks each name in its ``WRAPPED`` table up with
``getattr`` when a traced benchmark run starts, ``perfbench/checks.py``
compares the acceptance ladders against ``acceptance.Workspace.LADDER``,
and the workloads drive the subcommands through ``cli.main``.  The tier-1
suite does not run the benchmark, so these tests keep a cleanup from
silently breaking it.
"""

import ast
import importlib
from pathlib import Path

import pytest

from modeguide.acceptance import Workspace
from modeguide.cli import main

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


def test_workspace_ladder_constant_is_the_default_ladder():
    assert Workspace.LADDER == (40, 80, 160, 320)
    assert tuple(Workspace().single_ladder(2.0)) == Workspace.LADDER


@pytest.mark.parametrize("command", ["single", "split", "critical", "threshold", "oracle", "verify"])
def test_every_subcommand_help_exits_zero(capsys, command):
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: modeguide {command}")
