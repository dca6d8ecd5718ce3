"""Correctness gate: every operation's output against the seed commit or the paper.

An operation whose label has a stored output in ``reference.json`` (all
operations of the default seed, and the seed-independent ones of every
seed) is compared number by number with it.  The tolerances follow
ROADMAP's definition of unchanged behaviour: an eigenvalue or critical
width may move by at most the bisection tolerance of the call that
located it, never more; a value derived from located roots may move by
what that tolerance propagates to (see ``TOLERANCES``).

Every output is also checked against the invariants the paper relies on:
pair bracketing lam+ <= lam1 <= lam-, one near-threshold root per
separation, FD eigenvalues below the discrete threshold in the same
number as the matching bound states, and the tail-amplitude and resonance
identities on the truncation ladders.  A miss of either kind fails the
operation.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from modeguide import acceptance, fd_oracle, solve
from modeguide.matching import Truncation
from modeguide.modes import ProblemKind, StripConfig, canonicalize

#: bisection tolerance of the CLI calls (default --tol) and of refine_eigenvalue
TOL_BISECT = 1e-12
#: bisection tolerance of the acceptance ladders' root polish
TOL_POLISH = 1e-13
#: relative tolerance of the logarithmic kappa bisection near the threshold
TOL_LOG = 1e-12
#: eigsh tolerance of fd_oracle.lowest_eigenvalues (relative)
TOL_EIGSH = 1e-10
#: values computed from the kernel vector at a located root
REL_DERIVED = 1e-8
#: exponential fits over a dozen located roots
REL_FIT = 1e-6
#: FD crossing: the eigensolver tolerance through the secant step over 2h
TOL_CROSSING = 1e-8
#: largest kernel residual s_min/s_max accepted at a located root
RESIDUAL_GATE = 1e-10


def _extrapolation_gain() -> float:
    """Sum of |weights| of the three-rung N^-1, N^-3/2 ladder fit (N = 40, 80, 160)."""
    A = np.array([[1.0, -n ** -1.0, -n ** -1.5] for n in (40, 80, 160)])
    return float(np.abs(np.linalg.inv(A)[0]).sum())


GAIN = _extrapolation_gain()

#: d ln(kappa) / d a_1 of the threshold sweep, which runs at the located
#: critical width a_1: largest at l = 6, where moving every linear
#: bisection result (a_1 included) by 3e-12 moved kappa by 3.9e-5 relative
KAPPA_PER_A1 = 1.3e7

#: column or note name -> (mode, tolerance); "<kind>:<name>" entries override
#: for one command; names not listed must match exactly
TOLERANCES = {
    "lambda": ("abs", TOL_BISECT),
    "lambda_plus": ("abs", TOL_BISECT),
    "lambda_minus": ("abs", TOL_BISECT),
    "a": ("abs", TOL_BISECT),
    "lambda_1": ("abs", TOL_BISECT),
    "critical width a_1": ("abs", TOL_BISECT),
    "delta_plus": ("abs", 2 * TOL_BISECT),
    "delta_minus": ("abs", 2 * TOL_BISECT),
    "lambda_refined": ("abs", GAIN * TOL_BISECT),
    "refine_error": ("abs", (GAIN + 3) * TOL_BISECT),
    "alpha": ("rel", REL_DERIVED),
    "mu_alpha": ("rel", REL_DERIVED),
    "mu_integral": ("rel", REL_DERIVED),
    "delta_predicted": ("rel", REL_DERIVED),
    "beta": ("rel", REL_DERIVED),
    "mu_beta": ("rel", REL_DERIVED),
    "gap_predicted": ("rel", REL_DERIVED),
    "mu": ("rel", REL_DERIVED),
    "predicted rate": ("rel", REL_DERIVED),
    "predicted prefactor": ("rel", REL_DERIVED),
    "fitted rate": ("rel", REL_FIT),
    "fitted prefactor": ("rel", REL_FIT),
    "fit r2": ("rel", REL_FIT),
    # a residual at a root is rounding noise; it is gated, not compared
    "residual": ("skip", 0.0),
    # the text is built from mu_beta, which is compared
    "kappa_formula": ("skip", 0.0),
    # a_1 may move by TOL_BISECT and kappa follows it (2x margin); the kappa
    # root itself is bisected to TOL_LOG
    "threshold:kappa": ("rel", TOL_LOG + 2 * KAPPA_PER_A1 * TOL_BISECT),
    "threshold:gap": ("rel", 2 * (TOL_LOG + 2 * KAPPA_PER_A1 * TOL_BISECT)),
    "threshold:fitted rate": ("rel", 0.2 * KAPPA_PER_A1 * TOL_BISECT),
    "threshold:fitted prefactor": ("rel", 2 * 2 * KAPPA_PER_A1 * TOL_BISECT),
    "lambda_h": ("rel", TOL_EIGSH),
    "lambda_extrapolated": ("rel", 3 * TOL_EIGSH),
    "error_bound": ("abs", 4 * TOL_EIGSH),   # FD eigenvalues here are below 2
}

LADDER_TOLERANCES = {"lam": ("abs", TOL_POLISH), "a": ("abs", TOL_POLISH)}


def _differs(name: str, got, ref, mode: str, tol: float) -> str | None:
    if mode == "skip":
        return None
    if mode == "exact":
        return None if got == ref else f"{name}: {got!r} != reference {ref!r}"
    g, r = float(got), float(ref)
    err = abs(g - r) if mode == "abs" else abs(g - r) / max(abs(r), 1e-300)
    if not err <= tol:
        return f"{name}: {g!r} vs reference {r!r} ({mode} error {err:.3g} > {tol:.3g})"
    return None


def _spec(kind: str, name: str) -> tuple[str, float]:
    return TOLERANCES.get(f"{kind}:{name}", TOLERANCES.get(name, ("exact", 0.0)))


def parse_cli(text: str) -> dict:
    """CSV rows (as strings) and '# key = value' notes of a CLI data output."""
    lines = text.splitlines()
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    notes = {}
    for ln in lines:
        if ln.startswith("# "):
            key, _, value = ln[2:].partition(" = ")
            notes[key] = value
    columns = data[0].split(",") if data else []
    rows = [dict(zip(columns, ln.split(","))) for ln in data[1:]]
    return {"columns": columns, "rows": rows, "notes": notes}


def _compare_cli(kind: str, got: str, ref: str) -> list[str]:
    g, r = parse_cli(got), parse_cli(ref)
    if g["columns"] != r["columns"] or len(g["rows"]) != len(r["rows"]):
        return [f"shape {g['columns']} x {len(g['rows'])} != reference "
                f"{r['columns']} x {len(r['rows'])}"]
    if sorted(g["notes"]) != sorted(r["notes"]):
        return [f"notes {sorted(g['notes'])} != reference {sorted(r['notes'])}"]
    out = []
    for i, (gr, rr) in enumerate(zip(g["rows"], r["rows"])):
        for c in g["columns"]:
            msg = _differs(f"row {i + 1} {c}", gr[c], rr[c], *_spec(kind, c))
            if msg:
                out.append(msg)
    for key, value in g["notes"].items():
        # a note value is a number, optionally followed by a word: "2.24 (odd)"
        gnum, _, gtail = value.partition(" ")
        rnum, _, rtail = r["notes"][key].partition(" ")
        mode, tol = _spec(kind, key)
        msg = _differs(key, gnum, rnum, mode, tol) or _differs(key, gtail, rtail, "exact", 0.0)
        if msg:
            out.append(msg)
    return out


def _compare_rungs(got: dict, ref: dict) -> list[str]:
    if sorted(got) != sorted(ref):
        return [f"rungs {sorted(got)} != reference {sorted(ref)}"]
    out = []
    for n, row in got.items():
        for key, value in row.items():
            mode, tol = LADDER_TOLERANCES.get(key, ("rel", REL_DERIVED))
            msg = _differs(f"N={n} {key}", value, ref[n][key], mode, tol)
            if msg:
                out.append(msg)
    return out


def compare(kind: str, got, ref) -> list[str]:
    """Differences of one operation's output from its stored seed-commit output."""
    if kind in ("split", "threshold", "critical", "single", "oracle"):
        return _compare_cli(kind, got, ref)
    if kind in ("single_ladder", "critical_ladder"):
        return _compare_rungs(got, ref)
    if kind == "refined_two":
        out = [m for m in (_differs("value", got["value"], ref["value"], "abs", GAIN * TOL_BISECT),
                           _differs("error", got["error"], ref["error"], "abs",
                                    (GAIN + 3) * TOL_BISECT)) if m]
        if sorted(got["by_n"]) != sorted(ref["by_n"]):
            return out + [f"rungs {sorted(got['by_n'])} != reference {sorted(ref['by_n'])}"]
        return out + [m for n in got["by_n"] if (m := _differs(
            f"N={n}", got["by_n"][n], ref["by_n"][n], "abs", TOL_BISECT))]
    if kind == "fd_two_window":
        if len(got) != len(ref):
            return [f"{len(got)} eigenvalues != reference {len(ref)}"]
        return [m for i, (g, r) in enumerate(zip(got, ref))
                if (m := _differs(f"eigenvalue {i + 1}", g, r, "rel", TOL_EIGSH))]
    if kind == "crossing":
        return [m for m in (_differs("crossing", got, ref, "abs", TOL_CROSSING),) if m]
    raise ValueError(f"unknown operation kind {kind!r}")


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def _floats(rows: list[dict], column: str) -> list[float]:
    return [float(r[column]) for r in rows]


def _nondecreasing(xs) -> bool:
    return all(b >= a for a, b in zip(xs, xs[1:]))


@functools.cache
def _matching_states(kind: ProblemKind, a: float, l: float | None = None) -> int:
    """Number of matching bound states of one parity sector at the base truncation."""
    cfg = canonicalize(StripConfig(d=math.pi, a=a, l=l, kind=kind))
    return len(solve.find_eigenvalues(cfg, Truncation(40)))


def _check_split(facts, out) -> list[str]:
    rows = parse_cli(out)["rows"]
    msgs = []
    # the CLI rounds range points to 12 decimals
    if [float(r["l"]) for r in rows] != [round(x, 12) for x in facts["ls"]]:
        msgs.append(f"rows for l = {[r['l'] for r in rows]}, expected {facts['ls']}")
    if not all(float(r["delta_plus"]) >= 0 and float(r["delta_minus"]) >= 0 for r in rows):
        msgs.append("bracketing lam+ <= lam1 <= lam- violated")
    if not _nondecreasing(_floats(rows, "lambda_plus")):
        msgs.append("even family decreases with l")
    if not _nondecreasing([-x for x in _floats(rows, "lambda_minus")]):
        msgs.append("odd family increases with l")
    lams = _floats(rows, "lambda_plus") + _floats(rows, "lambda_minus")
    if not all(0.25 < x < 1.0 for x in lams):
        msgs.append("pair eigenvalue outside (1/4, 1)")
    return msgs


def _check_threshold(facts, out) -> list[str]:
    rows = parse_cli(out)["rows"]
    msgs = []
    if [float(r["l"]) for r in rows] != [round(x, 12) for x in facts["ls"]]:
        msgs.append(f"not one near-threshold root per l: rows for {[r['l'] for r in rows]}")
    kappas = _floats(rows, "kappa")
    if not all(0.0 < k < 0.05 for k in kappas):
        msgs.append("near-threshold kappa outside (0, 0.05)")
    gaps = _floats(rows, "gap")
    if not all(b < a for a, b in zip(gaps, gaps[1:])):
        msgs.append("threshold gap does not decrease with l")
    return msgs


def _check_critical(facts, out) -> list[str]:
    rows = parse_cli(out)["rows"]
    msgs = []
    if len(rows) != facts["n"]:
        msgs.append(f"{len(rows)} critical widths, expected {facts['n']}")
    widths = _floats(rows, "a")
    if not all(b > a for a, b in zip([0.0] + widths, widths)):
        msgs.append("critical widths not ascending and positive")
    parities = [r["parity"] for r in rows]
    if any(p == q for p, q in zip(parities, parities[1:])):
        msgs.append("critical-width parities do not alternate")
    return msgs


def _check_single(facts, out) -> list[str]:
    rows = parse_cli(out)["rows"]
    if not rows:
        return ["no single-window eigenvalue"]
    msgs = []
    lams = _floats(rows, "lambda")
    if not (_nondecreasing(lams) and all(0.25 < x < 1.0 for x in lams)):
        msgs.append("eigenvalues not ascending inside (1/4, 1)")
    if not all(float(r["residual"]) <= RESIDUAL_GATE for r in rows):
        msgs.append(f"kernel residual above {RESIDUAL_GATE}")
    if facts["refine"] and not all(float(r["refine_error"]) <= 1e-3 for r in rows):
        msgs.append("refine_error above 1e-3")
    return msgs


def _below_threshold(values, h: float) -> int:
    cut = fd_oracle.discrete_threshold(h)
    return sum(1 for v in values if v < cut)


def _check_oracle(facts, out) -> list[str]:
    rows = parse_cli(out)["rows"]
    msgs = []
    for parity, kind in (("even", ProblemKind.SINGLE_WINDOW_EVEN),
                         ("odd", ProblemKind.SINGLE_WINDOW_ODD)):
        vals = [float(r["lambda_h"]) for r in rows if r["parity"] == parity]
        if len(vals) != facts["k"] or not _nondecreasing(vals):
            msgs.append(f"{parity}: {len(vals)} eigenvalues, not {facts['k']} ascending")
        below = _below_threshold(vals, facts["h"])
        states = _matching_states(kind, facts["a"])
        if below != states:
            msgs.append(f"{parity}: {below} FD eigenvalues below the discrete threshold, "
                        f"{states} matching bound states")
    return msgs


def _extrapolated(rows: dict, key: str) -> float:
    ns = [int(n) for n in rows]
    return solve.extrapolate_truncation(ns, [rows[str(n)][key] for n in ns])


def _check_rungs(out) -> list[str]:
    rungs = [int(n) for n in out]
    if rungs != list(acceptance.Workspace.LADDER):
        return [f"ladder rungs {rungs}, expected {list(acceptance.Workspace.LADDER)}"]
    return []


def _check_single_ladder(facts, out) -> list[str]:
    msgs = _check_rungs(out)
    if msgs:
        return msgs
    if not all(0.25 < row["lam"] < 1.0 for row in out.values()):
        msgs.append("ladder eigenvalue outside (1/4, 1)")
    i_inf, rhs_inf = _extrapolated(out, "integral"), _extrapolated(out, "alpha_pi_kappa")
    rel = abs(i_inf - rhs_inf) / abs(i_inf)
    if not rel <= 1e-6:
        msgs.append(f"tail-amplitude identity off by {rel:.2e} > 1e-6")
    return msgs


def _check_critical_ladder(facts, out) -> list[str]:
    msgs = _check_rungs(out)
    if msgs:
        return msgs
    i_inf, rhs_inf = _extrapolated(out, "integral"), _extrapolated(out, "beta_rhs")
    rel = abs(i_inf - rhs_inf) / abs(i_inf)
    if not rel <= 1e-4:
        msgs.append(f"resonance identity off by {rel:.2e} > 1e-4")
    return msgs


def _check_refined_two(facts, out) -> list[str]:
    msgs = []
    if sorted(int(n) for n in out["by_n"]) != [40, 80, 160]:
        msgs.append(f"refinement rungs {sorted(out['by_n'])}")
    if not 0.25 < out["value"] < 1.0:
        msgs.append(f"refined eigenvalue {out['value']} outside (1/4, 1)")
    if not out["error"] <= 1e-3:
        msgs.append(f"refinement error {out['error']:.2e} > 1e-3")
    return msgs


def _check_fd_two_window(facts, out) -> list[str]:
    msgs = [] if _nondecreasing(out) else ["FD eigenvalues not ascending"]
    below = _below_threshold(out, facts["h"])
    states = _matching_states(ProblemKind.TWO_WINDOW_EVEN, facts["a"], facts["l"])
    if below != states:
        msgs.append(f"{below} FD eigenvalues below the discrete threshold, "
                    f"{states} matching bound states")
    return msgs


def _check_crossing(facts, out) -> list[str]:
    # critical_width_crossing searches a in [2.0, 2.6] by default
    return [] if 2.0 <= out <= 2.6 else [f"crossing {out} outside the searched [2.0, 2.6]"]


INVARIANTS = {
    "split": _check_split,
    "threshold": _check_threshold,
    "critical": _check_critical,
    "single": _check_single,
    "oracle": _check_oracle,
    "single_ladder": _check_single_ladder,
    "critical_ladder": _check_critical_ladder,
    "refined_two": _check_refined_two,
    "fd_two_window": _check_fd_two_window,
    "crossing": _check_crossing,
}


def _pass_invariants(ops, outputs: dict) -> dict[str, list[str]]:
    """Invariants across the operations of one pass, keyed by the failing label."""
    by_kind: dict[str, list] = {}
    for op in ops:
        if not isinstance(outputs.get(op.label), Exception):
            by_kind.setdefault(op.kind, []).append(op)
    msgs: dict[str, list[str]] = {}
    pair = {op.facts["parity"]: op for op in by_kind.get("refined_two", [])}
    if len(pair) == 2:
        a = pair["even"].facts["a"]
        single = [op for op in by_kind.get("single_ladder", []) if op.facts["a"] == a]
        lam_p, lam_m = (outputs[pair[p].label]["value"] for p in ("even", "odd"))
        if single:
            lam1 = _extrapolated(outputs[single[0].label], "lam")
            if not lam_p <= lam1 <= lam_m:
                msgs[pair["odd"].label] = [
                    f"refined bracketing {lam_p} <= {lam1} <= {lam_m} violated"]
        elif not lam_p <= lam_m:
            msgs[pair["odd"].label] = [f"refined pair order {lam_p} > {lam_m}"]
    fd = sorted(by_kind.get("fd_two_window", []), key=lambda op: -op.facts["h"])
    if len(fd) == 3:
        value, _, _ = fd_oracle.refine_and_extrapolate(*(outputs[op.label] for op in fd))
        if not value[0] < 1.0:
            msgs[fd[-1].label] = [f"extrapolated two-window ground state {value[0]} not below 1"]
    return msgs


def check_pass(ops, outputs: dict, reference: dict) -> dict[str, list[str]]:
    """Failure messages per operation label; an empty list means the output is correct."""
    result = {}
    for op in ops:
        out = outputs[op.label]
        if isinstance(out, Exception):
            result[op.label] = [f"raised {type(out).__name__}: {out}"]
            continue
        try:
            msgs = INVARIANTS[op.kind](op.facts, out)
            if op.label in reference:
                msgs += compare(op.kind, out, reference[op.label])
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            msgs = [f"malformed output: {type(exc).__name__}: {exc}"]
        result[op.label] = msgs
    try:
        cross = _pass_invariants(ops, outputs)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        cross = {ops[-1].label: [f"malformed output: {type(exc).__name__}: {exc}"]}
    for label, msgs in cross.items():
        result[label] += msgs
    return result
