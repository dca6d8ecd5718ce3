"""The benchmark's workloads: fixed call lists whose geometry comes from a seed.

There are two workloads.  ``matching`` runs the mode-matching solver in
both of its shapes: many small (40 to 80 dimensional) determinant scans
through the CLI, where per-call assembly and Python overhead dominate,
then truncation ladders up to N = 320 through ``--refine`` and
``acceptance.Workspace``, where a few large LU and SVD solves dominate.
``oracle`` runs only the finite-difference oracle.

Each workload is a list of operations.  An operation is one CLI call
(``modeguide.cli.main(argv)``) or one call of a public ``acceptance`` /
``fd_oracle`` function; it returns a JSON-able output that ``checks.py``
compares with the stored seed-commit output or, for geometries that have
no stored output, with the paper's invariants.

The seed shifts window half-lengths and separations by whole multiples of
1/16, so every geometry stays aligned with the finite-difference grids
(h = 1/16 ... 1/64).  Seed 0 is the default seed: it gives the unshifted
geometry for which reference outputs are stored.  The shifts leave the
amount of work in a pass nearly unchanged: the same determinant
evaluations and roots on every seed, and FD unknowns within 0.1%.

The calls are kept short (at most about 3.5 s each) because the run
reports each call's fastest time, which is only steady when a call is
short against the tens of seconds over which a shared machine's speed
drifts.  So ``split`` sweeps l in steps of 2 and ``threshold`` in steps
of 0.5 (about 14k determinant evaluations a pass), and the two-window FD
domain is truncated at L = 13.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from modeguide import acceptance, cli, fd_oracle
from modeguide.modes import ProblemKind, StripConfig, canonicalize

GRID = 1.0 / 16.0
DEFAULT_SEED = 0

#: finite-difference grids of the two-window oracle ladder (coarse to fine)
TWO_WINDOW_GRIDS = (1 / 16, 1 / 32, 1 / 64)
#: truncation length of the two-window oracle: fixed, so the unknown count
#: does not depend on the seed (the h = 1/64 operator has 167k unknowns and
#: takes the process to about 380 MB)
TWO_WINDOW_L = 13.0
#: grids of the FD critical-width crossing search
CROSSING_GRIDS = (1 / 16, 1 / 32)


class OpFailed(Exception):
    """An operation exited nonzero."""


@dataclass(frozen=True)
class Op:
    """One closed-loop call.

    ``label`` names the call with all its arguments; it is the key of the
    stored reference output.  ``span`` names the function the benchmark
    calls, prefixed by its module (``cli``, ``acceptance`` or
    ``fd_oracle``), which is the layer of the call.  ``call`` receives the
    pass context (a dict holding the pass's ``acceptance.Workspace``).
    ``facts`` are the call's arguments, which the invariant checks use.
    """

    label: str
    span: str
    call: Callable[[dict], Any]
    kind: str
    facts: dict


def _num(x: float) -> str:
    return repr(float(x)).removesuffix(".0")


def run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise OpFailed(f"exit {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def _cli(kind: str, argv: list[str], **facts) -> Op:
    return Op("modeguide " + " ".join(argv), "cli.main", lambda ctx: run_cli(argv), kind, facts)


def _workspace(ctx: dict) -> acceptance.Workspace:
    if "workspace" not in ctx:
        ctx["workspace"] = acceptance.Workspace()
    return ctx["workspace"]


def _ladder_rows(rows: dict) -> dict:
    return {str(n): dict(row) for n, row in rows.items()}


def _single_ladder(a: float) -> Op:
    return Op(f"acceptance.Workspace.single_ladder({_num(a)})", "acceptance.single_ladder",
              lambda ctx: _ladder_rows(_workspace(ctx).single_ladder(a)), "single_ladder",
              {"a": a})


def _critical_ladder() -> Op:
    return Op("acceptance.Workspace.critical_ladder()", "acceptance.critical_ladder",
              lambda ctx: _ladder_rows(_workspace(ctx).critical_ladder()), "critical_ladder", {})


def _refined_two(a: float, l: float, parity: str) -> Op:
    def call(ctx):
        r = _workspace(ctx).refined_two(a, l, parity)
        by_n = {str(n): v for n, v in r.by_n.items()}
        return {"value": r.value, "error": r.error, "by_n": by_n}
    return Op(f"acceptance.Workspace.refined_two({_num(a)}, {_num(l)}, {parity!r})",
              "acceptance.refined_two", call, "refined_two", {"a": a, "l": l, "parity": parity})


def _fd_two_window(a: float, l: float, h: float) -> Op:
    def call(ctx):
        cfg = canonicalize(StripConfig(d=math.pi, a=a, l=l, kind=ProblemKind.TWO_WINDOW_EVEN))
        vals = fd_oracle.oracle_eigenvalues(cfg, fd_oracle.OracleConfig(L=TWO_WINDOW_L, h=h, k=2))
        return [float(v) for v in vals]
    return Op(f"fd_oracle.oracle_eigenvalues(two-window even, a={_num(a)}, l={_num(l)}, "
              f"L={_num(TWO_WINDOW_L)}, h={_num(h)}, k=2)",
              "fd_oracle.oracle_eigenvalues", call, "fd_two_window", {"a": a, "l": l, "h": h})


def _crossing(parity: str, h: float) -> Op:
    def call(ctx):
        return float(fd_oracle.critical_width_crossing(parity, h))
    return Op(f"fd_oracle.critical_width_crossing({parity!r}, {_num(h)})",
              "fd_oracle.critical_width_crossing", call, "crossing", {"parity": parity, "h": h})


def _ls(start: float, stop: float, step: float) -> list[float]:
    return [start + i * step for i in range(round((stop - start) / step) + 1)]


def shifts(seed: int) -> dict[str, float]:
    """Geometry shifts, in multiples of 1/16, for a workload seed."""
    if seed == DEFAULT_SEED:
        return {"a1": 0.0, "a2": 0.0, "l_split": 0.0, "l_threshold": 0.0, "l_two": 0.0,
                "a_fd": 0.0}
    rng = random.Random(seed)
    return {
        "a1": rng.randint(-2, 2) * GRID,          # around a = 1: one even bound state
        "a2": rng.randint(-2, 2) * GRID,          # around a = 2, below the first critical width
        "l_split": rng.randint(0, 7) * GRID,
        "l_threshold": rng.randint(0, 4) * GRID,
        "l_two": rng.randint(0, 4) * GRID,
        "a_fd": -rng.randint(0, 2) * GRID,        # a <= 1 keeps the default L = ceil(a + 12) = 13
    }


def _scan(seed: int) -> list[Op]:
    s = shifts(seed)
    a1, a2 = 1.0 + s["a1"], 2.0 + s["a2"]
    l0, t0 = 4.0 + s["l_split"], 3.0 + s["l_threshold"]
    return [
        _cli("split", ["split", "--a", _num(a1), "--l", f"{_num(l0)}:{_num(l0 + 6)}:2"],
             a=a1, ls=_ls(l0, l0 + 6, 2.0)),
        _cli("threshold", ["threshold", "--n", "1", "--l", f"{_num(t0)}:{_num(t0 + 3)}:0.5"],
             ls=_ls(t0, t0 + 3, 0.5)),
        _cli("critical", ["critical", "--n", "2"], n=2),
        _cli("single", ["single", "--a", _num(a2)], a=a2, refine=False),
    ]


def _ladder(seed: int) -> list[Op]:
    s = shifts(seed)
    a1, a2, l = 1.0 + s["a1"], 2.0 + s["a2"], 6.0 + s["l_two"]
    return [
        _cli("single", ["single", "--a", _num(a1), "--refine"], a=a1, refine=True),
        _cli("single", ["single", "--a", _num(a2), "--refine"], a=a2, refine=True),
        _single_ladder(a1),
        _single_ladder(a2),
        _critical_ladder(),
        _refined_two(a1, l, "even"),
        _refined_two(a1, l, "odd"),
    ]


def oracle(seed: int) -> list[Op]:
    s = shifts(seed)
    a, l = 1.0 + s["a_fd"], 6.0 + s["l_two"]
    return [
        _cli("oracle", ["oracle", "--a", _num(a), "--h", "0.03125", "--k", "2"],
             a=a, h=1 / 32, k=2),
        *(_fd_two_window(a, l, h) for h in TWO_WINDOW_GRIDS),
        *(_crossing("odd", h) for h in CROSSING_GRIDS),
    ]


def matching(seed: int) -> list[Op]:
    """Spectral scans at the base truncation, then truncation ladders to N = 320."""
    return _scan(seed) + _ladder(seed)


WORKLOADS = {"matching": matching, "oracle": oracle}
