"""Command-line front end: solve, sweep, verify, and persist results.

Subcommands
-----------
single     bound states of the one-window strip (both parities merged)
split      two-window pair sweep over a range of half-separations, with
           an exponential fit of the splitting against the prediction
critical   critical window half-lengths and their resonance amplitudes
threshold  near-threshold sweep of the emergent eigenvalue at a critical
           width, fitted against the 4*sqrt(3) decay law
oracle     independent finite-difference eigenvalues with extrapolation
verify     run the acceptance suite (exit 0 only if every criterion holds)

All data outputs are deterministic: identical flags produce byte-identical
CSV/JSON (17 significant digits, no timestamps); the reproducibility
sidecar written next to them records the parsed flags and the provenance.
A flat key = value config file supplies flags of the subcommand, read by
the same parser with the same types and choices; explicit flags win.
Exit codes: 0 success, 2 usage error, 3 solver non-convergence, 4 failed
precondition (e.g. threshold sweep at a non-critical width).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__
from .acceptance import Workspace, run_acceptance
from .asymptotics import THRESHOLD_RATE, fit_exponential, predict_splitting, predict_threshold
from .fd_oracle import OracleConfig, oracle_eigenvalues, refine_and_extrapolate
from .matching import Truncation
from .modes import GeometryError, GridAlignmentError, ProblemKind, StripConfig, canonicalize
from .records import RunRecord, cache_get, cache_put
from .solve import (
    KAPPA_RTOL,
    REFINE_LEVELS,
    NotBoundError,
    THRESHOLD_KAPPA,
    extract_tail,
    refine_eigenvalue,
    find_critical_widths,
    find_eigenvalues,
    find_near_threshold,
    window_integral,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_PRECONDITION = 4

#: most points a start:stop:step range may hold; every point of a sweep is one
#: or two eigenvalue searches, so a larger range is a typing error, not a run
MAX_SWEEP_POINTS = 10_000

def _fmt(x) -> str:
    if x is None:  # an empty cell
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(row[c]) for c in columns) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(args, rows: list[dict], columns: list[str], extra_lines: list[str] | None = None,
          outputs: dict | None = None) -> None:
    """Print the data; with --out also write it and its run-record sidecar."""
    if args.format == "json":
        payload = json.dumps({"rows": rows, "notes": extra_lines or []}, indent=2)
        text = payload + "\n"
    else:
        text = _csv(rows, columns)
        if extra_lines:
            text += "".join(f"# {line}\n" for line in extra_lines)
    sys.stdout.write(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{args.command}.{args.format}").write_text(text)
        config = {k: v for k, v in vars(args).items()
                  if v is not None and k not in ("command", "func", "out", "config")}
        provenance = {"version": __version__,
                      **{k: config[k] for k in ("modes", "tol", "h", "L") if k in config}}
        record = RunRecord(args.command, config, outputs or {"rows": rows}, provenance)
        (out / f"{args.command}.record.json").write_text(record.to_json())


def _parse_range(text: str) -> list[float]:
    parts = [float(p) for p in text.split(":")]
    if not all(map(math.isfinite, parts)):
        raise ValueError(f"range parts must be finite, got {text!r}")
    if len(parts) == 1:
        return parts
    if len(parts) == 2:
        parts.append(1.0)
    if len(parts) != 3:
        raise ValueError(f"range must be start:stop[:step], got {text!r}")
    start, stop, step = parts
    if step <= 0 or stop < start:
        raise ValueError(f"empty range {text!r}")
    if (stop + 1e-9 - start) / step >= MAX_SWEEP_POINTS:
        raise ValueError(f"range {text!r} holds more than {MAX_SWEEP_POINTS} points")
    out = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-9:
            break
        out.append(round(v, 12))
        k += 1
    return out


def _finite(text: str) -> float:
    """argparse type of a float flag: a finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _range_text(text: str) -> str:
    """argparse type of --l: a value or a start:stop[:step] range, kept as text."""
    try:
        _parse_range(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _switch(text: str) -> bool:
    """Config-file value of an on/off flag."""
    words = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
    if text.lower() not in words:
        raise ValueError(f"switch value must be true/false/1/0/yes/no, got {text!r}")
    return words[text.lower()]


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The --config file's ``key = value`` lines as flags of the parsed subcommand."""
    flags = []
    for raw in Path(args.config).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"config line is not key=value: {raw!r}")
        key, value = key.strip().replace("-", "_"), value.strip()
        if key in ("command", "func", "config") or key not in vars(args):
            raise ValueError(f"config key {key!r} is not an option of this command")
        if isinstance(getattr(args, key), bool):
            # a store_true switch: a bare flag or nothing
            if _switch(value):
                flags.append(f"--{key}")
        else:
            flags.append(f"--{key}={value}")
    return flags


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _length_scale(d: float) -> float:
    """Canonical length per physical length for strip width d (exactly 1 at d = pi)."""
    if not (d > 0):
        raise GeometryError(f"strip width must satisfy d > 0, got d={d}")
    return math.pi / d


def _physical_columns(cfg, rows: list[dict], key: str = "lambda") -> list[str]:
    """Add ``lambda_phys``, the physical value of ``row[key]``, when the strip width is not pi."""
    if cfg.lambda_scale == 1.0:
        return []
    for row in rows:
        row["lambda_phys"] = cfg.to_physical(row[key])
    return ["lambda_phys"]


def cmd_single(args) -> int:
    if args.a is None:
        print("single: --a is required", file=sys.stderr)
        return EXIT_USAGE
    trunc = Truncation(args.modes)
    rows, pairs, notes = [], [], []
    for kind in (ProblemKind.SINGLE_WINDOW_EVEN, ProblemKind.SINGLE_WINDOW_ODD):
        cfg = canonicalize(StripConfig(d=args.d, a=args.a, kind=kind))
        pairs.extend(find_eigenvalues(cfg, trunc, tol=args.tol))
    pairs.sort(key=lambda p: p.lam)
    columns = ["index", "parity", "lambda"]
    for idx, p in enumerate(pairs, start=1):
        alpha = extract_tail(p)
        integral = window_integral(p, p.kappa1)
        pred = predict_splitting(p.lam, alpha=alpha, window_integral=integral)
        row = {
            "index": idx, "parity": p.parity, "lambda": p.lam, "alpha": alpha,
            "mu_alpha": pred.mu_alpha, "mu_integral": pred.mu_integral,
            "residual": p.residual,
        }
        if args.refine:
            try:
                refined = refine_eigenvalue(p, levels=REFINE_LEVELS, tol=args.tol)
                row["lambda_refined"], row["refine_error"] = refined.value, refined.error
            except NotBoundError as exc:  # the state has left its sector at a later rung
                row["lambda_refined"] = row["refine_error"] = None
                notes.append(f"no bound state at N = {exc.n} for index {idx}")
        rows.append(row)
    columns += _physical_columns(cfg, rows)  # both kinds share the strip's scale
    if args.refine:
        columns += ["lambda_refined", "refine_error"]
    columns += ["alpha", "mu_alpha", "mu_integral", "residual"]
    _emit(args, rows, columns, extra_lines=notes, outputs={"eigenvalues": [r["lambda"] for r in rows]})
    return EXIT_OK


def cmd_split(args) -> int:
    if args.a is None or args.l is None:
        print("split: --a and --l are required", file=sys.stderr)
        return EXIT_USAGE
    if args.jobs < 1:
        print(f"split: need --jobs >= 1, got {args.jobs}", file=sys.stderr)
        return EXIT_USAGE
    ls = _parse_range(args.l)
    if not ls or min(ls) <= args.a:
        print(f"split: need l > a, got l range {args.l!r} with a={args.a}", file=sys.stderr)
        return EXIT_USAGE
    trunc = Truncation(args.modes)
    single = canonicalize(StripConfig(d=args.d, a=args.a, kind=ProblemKind.SINGLE_WINDOW_EVEN))
    base = find_eigenvalues(single, trunc, tol=args.tol)
    if not base:
        print("split: no single-window eigenvalue to split", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    lam1 = base[0].lam
    pred = predict_splitting(lam1, window_integral=window_integral(base[0], base[0].kappa1))
    # eigenvalues and the predicted rate are canonical, so fit against the
    # canonical half-separation
    scale = _length_scale(args.d)

    tasks = [(args.d, args.a, l, args.modes, args.tol) for l in ls]
    # a forked pool starts all its workers at the first submit: no more than there are points
    workers = min(args.jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_split_point, tasks))
    else:
        results = [_split_point(t) for t in tasks]

    rows = []
    for (l, lam_p, lam_m) in results:
        gap = pred.mu * math.exp(-pred.rate * scale * l)
        # a sector without a bound state leaves its cells empty
        rows.append({
            "l": l, "lambda_plus": lam_p, "lambda_minus": lam_m,
            "delta_plus": None if lam_p is None else lam1 - lam_p,
            "delta_minus": None if lam_m is None else lam_m - lam1,
            "delta_predicted": gap,
        })
    deltas = [(scale * r["l"], math.sqrt(r["delta_plus"] * r["delta_minus"]))
              for r in rows if None not in (r["lambda_plus"], r["lambda_minus"])
              and r["delta_plus"] > 0 and r["delta_minus"] > 0]
    notes = [f"lambda_1 = {_fmt(lam1)}", f"predicted rate = {_fmt(pred.rate)}",
             f"predicted prefactor = {_fmt(pred.mu)}"]
    if scale != 1.0:
        notes.append(f"rates are per canonical half-separation l*pi/d = {_fmt(scale)}*l")
    if len(deltas) >= 3:
        fit = fit_exponential(deltas)
        notes += [f"fitted rate = {_fmt(fit.rate)}", f"fitted prefactor = {_fmt(fit.prefactor)}",
                  f"fit r2 = {_fmt(fit.r2)}", f"fit points = {fit.n_points}"]
    for parity, column in (("even", "lambda_plus"), ("odd", "lambda_minus")):
        empty = [_fmt(r["l"]) for r in rows if r[column] is None]
        if empty:
            notes.append(f"no {parity} bound state at l = {', '.join(empty)}")
    _emit(args, rows,
          ["l", "lambda_plus", "lambda_minus", "delta_plus", "delta_minus", "delta_predicted"],
          extra_lines=notes)
    if args.out:
        (Path(args.out) / "split_plot.py").write_text(_plot_script(rows, pred, scale))
    return EXIT_OK


def _split_point(task):
    """(l, lambda_plus, lambda_minus), None for a sector without a bound state:
    close windows may hold no odd one."""
    d, a, l, modes, tol = task
    trunc = Truncation(modes)
    lams = []
    for kind in (ProblemKind.TWO_WINDOW_EVEN, ProblemKind.TWO_WINDOW_ODD):
        pairs = find_eigenvalues(canonicalize(StripConfig(d=d, a=a, l=l, kind=kind)), trunc, tol=tol)
        lams.append(pairs[0].lam if pairs else None)
    return (l, *lams)


def _plot_script(rows: list[dict], pred, scale: float) -> str:
    ls = [r["l"] for r in rows]
    dps = [r["delta_plus"] for r in rows]
    dms = [r["delta_minus"] for r in rows]
    return (
        "#!/usr/bin/env python3\n"
        '"""Render ln(delta) against half-separation l with the predicted line."""\n'
        "import math\n"
        "import matplotlib.pyplot as plt\n"
        f"ls = {ls!r}\n"
        f"delta_plus = {dps!r}\n"
        f"delta_minus = {dms!r}\n"
        f"rate, mu = {pred.rate * scale!r}, {pred.mu!r}\n"
        "plt.semilogy(ls, delta_plus, 'o', label='even gap')\n"
        "plt.semilogy(ls, delta_minus, 's', label='odd gap')\n"
        "plt.semilogy(ls, [mu * math.exp(-rate * l) for l in ls], '-', label='predicted')\n"
        "plt.xlabel('half-separation l')\n"
        "plt.ylabel('splitting')\n"
        "plt.legend()\n"
        "plt.savefig('split.png', dpi=150)\n"
    )


def cmd_critical(args) -> int:
    if args.n < 1:
        print("critical: need --n >= 1", file=sys.stderr)
        return EXIT_USAGE
    scale = _length_scale(args.d)
    trunc = Truncation(args.modes)
    scan = find_critical_widths(args.n, trunc, tol=args.tol)
    rows = []
    for w in scan.widths:
        integral = window_integral(w.resonance, math.sqrt(3.0))
        pred = predict_threshold(beta=w.beta, window_integral=integral)
        rows.append({
            "index": w.index, "a": w.a, "parity": w.parity, "beta": w.beta,
            "mu_beta": pred.mu_beta, "mu_integral": pred.mu_integral,
            "kappa_formula": f"sqrt({_fmt(pred.mu_beta)})*exp(-2*sqrt(3)*l)",
        })
    columns = ["index", "a", "parity", "beta", "mu_beta", "mu_integral", "kappa_formula"]
    if scale != 1.0:
        for row in rows:
            row["a_phys"] = row["a"] / scale
        columns.insert(2, "a_phys")
    notes = []
    if scan.exhausted:
        notes.append(f"range exhausted: only {len(scan.widths)} roots below a={scan.a_max}")
    _emit(args, rows, columns, extra_lines=notes, outputs={"widths": [r["a"] for r in rows]})
    return EXIT_OK


def cmd_threshold(args) -> int:
    if args.l is None:
        print("threshold: --l range is required", file=sys.stderr)
        return EXIT_USAGE
    ls = _parse_range(args.l)
    scale = _length_scale(args.d)
    trunc = Truncation(args.modes)
    scan = find_critical_widths(args.n, trunc, tol=args.tol)
    if len(scan.widths) < args.n:
        print(f"threshold: fewer than {args.n} critical widths found", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    width = scan.widths[args.n - 1]
    if args.a is not None and abs(scale * args.a - width.a) > 1e-4:
        print(f"threshold: a={args.a} is not a critical width at this truncation "
              f"(nearest: a_{width.index} = {width.a:.8f}); run the critical command first",
              file=sys.stderr)
        return EXIT_PRECONDITION
    integral = window_integral(width.resonance, math.sqrt(3.0))
    pred = predict_threshold(beta=width.beta, window_integral=integral)
    rows = []
    unresolved = None
    for l_phys in ls:
        # the critical width is canonical, so the sweep runs on the canonical strip
        l = scale * l_phys
        cfg = canonicalize(StripConfig(d=math.pi, a=width.a, l=l, kind=ProblemKind.TWO_WINDOW_EVEN))
        roots = find_near_threshold(cfg, trunc)
        if not roots:
            unresolved = l  # the rows before it are emitted, then the run exits 3
            break
        kappa = min(p.kappa1 for p in roots)
        rows.append({"l": l, "kappa": kappa, "gap": kappa * kappa,
                     "gap_predicted": pred.gap(l)})
    columns = ["l", "kappa", "gap", "gap_predicted"]
    notes = [f"critical width a_{width.index} = {_fmt(width.a)} ({width.parity})",
             f"beta = {_fmt(width.beta)}", f"mu = {_fmt(pred.mu_beta)}",
             f"predicted rate = {_fmt(THRESHOLD_RATE)}"]
    if len(rows) >= 3:
        fit = fit_exponential([(r["l"], r["gap"]) for r in rows])
        notes += [f"fitted rate = {_fmt(fit.rate)}", f"fitted prefactor = {_fmt(fit.prefactor)}",
                  f"fit r2 = {_fmt(fit.r2)}"]
    if scale != 1.0:
        for row, l_phys in zip(rows, ls):
            row["l_phys"], row["kappa_phys"] = l_phys, scale * row["kappa"]
        columns += ["l_phys", "kappa_phys"]
        notes.append(f"critical width a_{width.index} in physical units = {_fmt(width.a / scale)}")
    _emit(args, rows, columns, extra_lines=notes)
    if unresolved is not None:
        lo, hi = THRESHOLD_KAPPA
        print(f"threshold: no near-threshold eigenvalue with kappa in ({lo:g}, {hi:g}] "
              f"at l={unresolved}; a root with kappa below {lo:g} cannot be resolved", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.a is None:
        print("oracle: --a is required", file=sys.stderr)
        return EXIT_USAGE
    l = args.l
    if l is not None:
        kinds = (ProblemKind.TWO_WINDOW_EVEN, ProblemKind.TWO_WINDOW_ODD)
    else:
        kinds = (ProblemKind.SINGLE_WINDOW_EVEN, ProblemKind.SINGLE_WINDOW_ODD)
    # --h and --L are physical lengths, like --a and --l
    scale = _length_scale(args.d)
    if args.L is None:
        args.L = math.ceil((l or 0.0) + args.a + 12.0 / scale)
    units = "" if scale == 1.0 else ", lengths in canonical units (times pi/d)"
    grids = f"--h {args.h} runs the grids h and 2h = {2 * args.h}"
    # both grids are checked before any solve: the finer, the larger, for its size
    # and --k, and the coarser for its cells across the strip
    OracleConfig(L=scale * args.L, h=scale * args.h, k=args.k, end=args.end)
    try:
        OracleConfig(L=scale * args.L, h=scale * 2 * args.h, k=args.k, end=args.end)
    except ValueError as exc:
        raise ValueError(f"{exc}{units}: {grids} across the strip width d = {args.d}") from exc
    rows = []
    for kind in kinds:
        cfg = canonicalize(StripConfig(d=args.d, a=args.a, l=l, kind=kind))
        per_grid = []
        for h in (2 * args.h, args.h):
            key = {"what": "oracle", "kind": kind.value, "d": args.d, "a": args.a,
                   "l": l, "L": args.L, "h": h, "k": args.k, "end": args.end}
            vals = cache_get(key)
            if vals is None:
                ocfg = OracleConfig(L=scale * args.L, h=scale * h, k=args.k, end=args.end)
                try:
                    vals = [float(v) for v in oracle_eigenvalues(cfg, ocfg)]
                except GridAlignmentError as exc:
                    raise GridAlignmentError(f"{exc}{units}: {grids}") from exc
                cache_put(key, vals)
            per_grid.append(vals)
        coarse, fine = per_grid
        extrap, err, _ = refine_and_extrapolate(coarse, fine)
        for i in range(args.k):
            rows.append({"parity": kind.parity, "index": i + 1,
                         "lambda_h": float(fine[i]), "lambda_extrapolated": float(extrap[i]),
                         "error_bound": float(err[i])})
    columns = ["parity", "index", "lambda_h"]
    columns += _physical_columns(cfg, rows, "lambda_h")
    _emit(args, rows, columns + ["lambda_extrapolated", "error_bound"])
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_acceptance(quick=args.quick, trunc=Truncation(args.modes))
    for res in results:
        for line in res.lines():
            print(line)
    summary = {
        "passed": sum(1 for r in results if r.passed),
        "failed": [r.cid for r in results if not r.passed],
        "criteria": [{"id": r.cid, "title": r.title, "passed": r.passed,
                      "checks": [{"text": t, "ok": ok} for t, ok in r.checks],
                      "seconds": round(r.seconds, 2)} for r in results],
    }
    print(json.dumps(summary, indent=2))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "verify.json").write_text(json.dumps(summary, indent=2))
    return EXIT_OK if not summary["failed"] else 1


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    ``parse_args`` leaves the parser as it found it, and no flag has a mutable
    default, so every call can share one.  ``set_defaults(func=cmd_*)`` binds the
    subcommand functions when the parser is first built; each looks up the solvers
    (``find_eigenvalues``, ``run_acceptance``, ...) among this module's globals when
    it runs, so patching those still takes effect.
    """
    parser = argparse.ArgumentParser(prog="modeguide",
                                     description="Bound states of a Dirichlet strip with Neumann windows")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    flag_specs = {
        "d": dict(type=_finite, default=math.pi, help="strip width (default %(default)s)"),
        "a": dict(type=_finite, help="window half-length"),
        "l": dict(type=_range_text, help="half-separation or range start:stop:step"),
        "modes": dict(type=int, default=40, help="transverse modes per region (default %(default)s)"),
        "tol": dict(type=_finite, default=1e-12,
                    help="root tolerance in [1e-14, 1e-6]: each root is polished to a "
                         "bracket of width tol/10, and a root whose kernel residual "
                         "|S v|/(|v| max|S_ii|) exceeds 1e-8 is rejected (default %(default)s)"),
        "jobs": dict(type=int, default=1,
                     help="parallel sweep workers >= 1, capped at the sweep points (default %(default)s)"),
        "format": dict(choices=("csv", "json"), default="csv", help="output format (default %(default)s)"),
    }

    def flags(p, *names):
        # each subcommand accepts only the flags it honours; argparse rejects the rest
        for name in names:
            p.add_argument(f"--{name}", **flag_specs[name])
        p.add_argument("--out", type=str, help="output directory")
        p.add_argument("--config", type=str, help="flat key = value file of this command's flags")

    p = sub.add_parser("single", help="single-window bound states")
    flags(p, "d", "a", "modes", "tol", "format")
    p.add_argument("--refine", action="store_true", help="add truncation-ladder extrapolated eigenvalues")
    p.set_defaults(func=cmd_single)

    p = sub.add_parser("split", help="two-window pair sweep and splitting fit")
    flags(p, "d", "a", "l", "modes", "tol", "jobs", "format")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("critical", help="critical window half-lengths")
    flags(p, "d", "modes", "tol", "format")
    p.add_argument("--n", type=int, default=1, help="number of critical widths (default %(default)s)")
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("threshold", help="near-threshold sweep at a critical width",
                       description=f"--tol governs the critical width; each near-threshold kappa "
                                   f"is located to {KAPPA_RTOL:g} relative, whatever --tol, or, "
                                   f"from l = 3 at N = 40, at the first point where det Z is "
                                   f"rounding: digits past that floor are noise (1e-3 relative "
                                   f"at l = 9)")
    flags(p, "d", "a", "l", "modes", "tol", "format")
    p.add_argument("--n", type=int, default=1, help="critical-width index (default %(default)s)")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("oracle", help="finite-difference oracle eigenvalues")
    flags(p, "d", "a", "format")
    p.add_argument("--l", type=_finite, help="half-separation of two windows (default: one window)")
    p.add_argument("--h", type=_finite, default=1 / 64, help="grid step (default %(default)s)")
    p.add_argument("--L", type=_finite, help="truncation half-length (default ceil(l + a + 12 d/pi))")
    p.add_argument("--k", type=int, default=4, help="eigenvalues to report (default %(default)s)")
    p.add_argument("--end", choices=("dirichlet", "neumann"), default="dirichlet",
                   help="condition at the truncation ends (default %(default)s)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="run the acceptance suite")
    flags(p, "modes")
    p.add_argument("--quick", action="store_true", help="skip oracle grid refinement")
    p.set_defaults(func=cmd_verify)

    return parser


def _check_modes(args) -> None:
    """Reject, before any solve, a --modes whose top truncation (the last
    rung of verify's ladder or of single --refine's, N otherwise) Truncation refuses."""
    if not hasattr(args, "modes"):
        return
    if args.command == "verify":
        top = Workspace.LADDER[-1] // Workspace.LADDER[0]
    else:
        top = 2 ** REFINE_LEVELS if getattr(args, "refine", False) else 1
    try:
        Truncation(top * args.modes)
    except ValueError as exc:
        ladder = f" (its ladder tops out at {top}N)" if top > 1 else ""
        raise ValueError(f"--modes {args.modes}{ladder}: {exc}") from None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the config file's flags go before the explicit ones, so explicit flags win
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_flags(args) + argv[at:])
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    except (OSError, ValueError) as exc:
        print(f"{args.command}: config file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        _check_modes(args)
        return args.func(args)
    except (GeometryError, GridAlignmentError, ValueError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"{args.command}: solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
