"""Acceptance suite: every top-level verification criterion, one callable each.

Each criterion function returns a :class:`CriterionResult` with per-check
outcomes and measurements, so the command-line ``verify`` run and the
pytest suite share one implementation.  Expensive intermediates (sweeps,
truncation ladders, finite-difference oracle runs) live in a lazy
:class:`Workspace` and are additionally cached across processes when
MODEGUIDE_CACHE is set.

Two checks are known to be unattainable with the prescribed equal-mode
matching formulation and are expected to fail honestly (see the README
accuracy notes): the 1e-8 truncation stability of raw eigenvalues between
N = 40 and N = 80 (the window-corner singularity limits raw roots to
O(1/N), about 4e-3 at N = 40), and the 15% prefactor recovery of the
threshold sweep via an unweighted two-parameter exponential fit over
l in [3, 6] (the next-order e^(-2(sqrt8-sqrt3)l) remainder inflates the
fitted intercept by ~25% even though pointwise prefactor agreement at
l = 5..6 is 0.1%).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass


from .asymptotics import THRESHOLD_RATE, fit_exponential, predict_splitting, predict_threshold
from .fd_oracle import (
    OracleConfig,
    critical_width_crossing,
    oracle_eigenvalues,
    refine_and_extrapolate,
)
from .matching import Truncation
from .modes import ProblemKind, StripConfig, canonicalize
from .records import cache_get, cache_put
from .solve import (
    Eigenpair,
    RefinedValue,
    extract_tail,
    extrapolate_truncation,
    find_critical_widths,
    find_eigenvalues,
    find_near_threshold,
    refine_critical_width,
    refine_eigenvalue,
    window_integral,
)
# unused here: bound only because perfbench/tracing.py wraps these names on this module
from .solve import _assemble_at, _polish_root, _solve_at, _threshold_resonance  # noqa: F401
from .solve import assemble_threshold, det_sign  # noqa: F401

__all__ = ["CriterionResult", "Workspace", "run_acceptance", "CRITERIA"]

PI = math.pi


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    checks: list[tuple[str, bool]]
    seconds: float

    def lines(self) -> list[str]:
        mark = "PASS" if self.passed else "FAIL"
        out = [f"[{mark}] criterion {self.cid}: {self.title} ({self.seconds:.1f}s)"]
        for text, ok in self.checks:
            out.append(f"    {'ok  ' if ok else 'FAIL'} {text}")
        return out


def _single_cfg(a: float, parity: str = "even"):
    return canonicalize(StripConfig(d=PI, a=a, kind=ProblemKind(f"single-{parity}")))


def _two_cfg(a: float, l: float, parity: str):
    return canonicalize(StripConfig(d=PI, a=a, l=l, kind=ProblemKind(f"two-{parity}")))


class Workspace:
    """Lazily computed shared artifacts for the acceptance criteria."""

    #: rungs of the single and critical ladders at the default truncation; every
    #: ladder starts at the base truncation N and doubles (N, 2N, 4N, 8N)
    LADDER = (40, 80, 160, 320)

    def __init__(self, trunc: Truncation = Truncation(40), quick: bool = False):
        self.trunc = trunc
        self.quick = quick
        self._memo: dict = {}

    def _once(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    # -- matching-side artifacts -------------------------------------------

    def single_pair(self, a: float):
        """Ground state of the even single-window problem at the base truncation."""
        return self._once(("pair", a), lambda: find_eigenvalues(_single_cfg(a), self.trunc)[0])

    def single_ladder(self, a: float) -> dict[int, dict[str, float]]:
        """lam, alpha, window integral and alpha*pi*kappa1 per ladder truncation."""
        def compute():
            pairs = refine_eigenvalue(self.single_pair(a), levels=len(self.LADDER) - 1,
                                      tol=1e-13).solutions
            alpha = {n: extract_tail(p) for n, p in pairs.items()}
            return {n: {"lam": p.lam, "alpha": alpha[n], "integral": window_integral(p, p.kappa1),
                        "alpha_pi_kappa": alpha[n] * PI * p.kappa1} for n, p in pairs.items()}
        return self._once(("ladder", a), compute)

    def refined_single(self, a: float) -> float:
        rows = self.single_ladder(a)
        return extrapolate_truncation(list(rows), [rows[n]["lam"] for n in rows])

    def two_window_pairs(self, a: float, l: float) -> dict[str, Eigenpair]:
        """The even and odd ground pairs at the base truncation, by parity."""
        return self._once(("two", a, l), lambda: {
            parity: find_eigenvalues(_two_cfg(a, l, parity), self.trunc)[0] for parity in ("even", "odd")})

    def refined_two(self, a: float, l: float, parity: str) -> RefinedValue:
        return self._once(("two-refined", a, l, parity), lambda: refine_eigenvalue(
            self.two_window_pairs(a, l)[parity], levels=2))

    def sweep(self) -> list[tuple[float, float, float]]:
        """(l, even, odd) ground eigenvalues of the pair at a = 1, l = 4, ..., 10."""
        def row(l):
            pairs = self.two_window_pairs(1.0, l)
            return l, pairs["even"].lam, pairs["odd"].lam
        return self._once("sweep", lambda: [row(float(l)) for l in range(4, 11)])

    # -- threshold artifacts -----------------------------------------------

    def critical(self):
        """First critical width at the base truncation, with its resonance."""
        return self._once("critical", lambda: find_critical_widths(1, self.trunc).widths[0])

    def critical_ladder(self) -> dict[int, dict[str, float]]:
        def compute():
            widths = refine_critical_width(self.critical(), levels=len(self.LADDER) - 1,
                                           tol=1e-13).solutions
            return {n: {"a": w.a, "beta": w.beta,
                        "integral": window_integral(w.resonance, math.sqrt(3.0)),
                        "beta_rhs": math.sqrt(3.0) * PI / 2.0 * w.beta} for n, w in widths.items()}
        return self._once("critical-ladder", compute)

    def t3_sweep(self, ls) -> list[tuple[float, float]]:
        """(l, kappa) for the even near-threshold eigenvalue at a = a1(base N)."""
        def compute():
            a1 = self.critical().a
            out = []
            for l in ls:
                roots = find_near_threshold(_two_cfg(a1, float(l), "even"), self.trunc)
                if not roots:
                    raise ArithmeticError(f"no near-threshold root at l={l}")
                out.append((float(l), min(p.kappa1 for p in roots)))
            return out
        return self._once(("t3", tuple(ls)), compute)

    # -- finite-difference oracle artifacts ---------------------------------

    def fd_grids(self) -> tuple[float, ...]:
        return (1 / 16, 1 / 32) if self.quick else (1 / 16, 1 / 32, 1 / 64)

    def fd_extrapolated(self, a: float, l: float | None, parity: str, L: float) -> float:
        key = {"what": "fd", "a": a, "l": l, "parity": parity, "L": L, "grids": self.fd_grids()}
        def compute():
            cached = cache_get(key)
            if cached is not None:
                return cached
            cfg = _two_cfg(a, l, parity) if l is not None else _single_cfg(a, parity)
            per_grid = [oracle_eigenvalues(cfg, OracleConfig(L=L, h=h, k=1))[0]
                        for h in self.fd_grids()]
            value, _, _ = refine_and_extrapolate(*per_grid)
            result = float(value[0])
            cache_put(key, result)
            return result
        return self._once(("fd", a, l, parity, L), compute)

    def fd_critical_crossing(self) -> float:
        grids = (1 / 16, 1 / 32) if self.quick else (1 / 32, 1 / 64)
        def compute():
            parity = self.critical().parity
            key = {"what": "fd-crossing", "parity": parity, "grids": grids}
            cached = cache_get(key)
            if cached is not None:
                return cached
            coarse, fine = (critical_width_crossing(parity, h) for h in grids)
            result = 2.0 * fine - coarse
            cache_put(key, result)
            return result
        return self._once("fd-crossing", compute)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def _result(cid, title, checks, t0) -> CriterionResult:
    return CriterionResult(cid=cid, title=title, passed=all(ok for _, ok in checks),
                           checks=checks, seconds=time.time() - t0)


def criterion_1(ws: Workspace) -> CriterionResult:
    """Matching eigenvalues agree with the FD oracle to 1e-3."""
    t0 = time.time()
    checks = []
    for a, L in ((1.0, 18.0), (2.0, 12.0)):
        lam_m = ws.refined_single(a)
        lam_fd = ws.fd_extrapolated(a, None, "even", L)
        diff = abs(lam_m - lam_fd)
        checks.append((f"single a={a}: |{lam_m:.8f} - {lam_fd:.8f}| = {diff:.2e} <= 1e-3",
                       diff <= 1e-3))
    for parity in ("even", "odd"):
        lam_m = ws.refined_two(1.0, 6.0, parity).value
        lam_fd = ws.fd_extrapolated(1.0, 6.0, parity, 23.0)
        diff = abs(lam_m - lam_fd)
        checks.append((f"two-window l=6 {parity}: |{lam_m:.8f} - {lam_fd:.8f}| = {diff:.2e} <= 1e-3",
                       diff <= 1e-3))
    elapsed = time.time() - t0
    checks.append((f"runtime {elapsed:.0f}s <= 300s", elapsed <= 300.0))
    return _result(1, "oracle equivalence", checks, t0)


def criterion_2(ws: Workspace) -> CriterionResult:
    """Bracketing and monotonicity of the pair over l in {4..10}."""
    t0 = time.time()
    lam1 = ws.single_pair(1.0).lam
    rows = ws.sweep()
    ok_br = all(lp <= lam1 <= lm for _, lp, lm in rows)
    evens = [lp for _, lp, _ in rows]
    odds = [lm for _, _, lm in rows]
    ok_up = all(b >= a for a, b in zip(evens, evens[1:]))
    ok_dn = all(b <= a for a, b in zip(odds, odds[1:]))
    checks = [
        (f"bracketing lam+ <= {lam1:.8f} <= lam- at every l in 4..10", ok_br),
        ("even family nondecreasing in l", ok_up),
        ("odd family nonincreasing in l", ok_dn),
    ]
    return _result(2, "bracketing and monotonicity", checks, t0)


def _splitting_fit(ws: Workspace):
    lam1 = ws.single_pair(1.0).lam
    rows = [r for r in ws.sweep() if 4 <= r[0] <= 9]
    deltas = [(l, math.sqrt((lam1 - lp) * (lm - lam1))) for l, lp, lm in rows]
    return lam1, fit_exponential(deltas)


def criterion_3(ws: Workspace) -> CriterionResult:
    """Splitting decay rate matches 2 sqrt(1 - lam1) to 2% with r^2 >= 0.999."""
    t0 = time.time()
    lam1, fit = _splitting_fit(ws)
    rate_ref = 2.0 * math.sqrt(1.0 - lam1)
    rel = abs(fit.rate - rate_ref) / rate_ref
    checks = [
        (f"rate {fit.rate:.6f} vs 2*sqrt(1-lam1) = {rate_ref:.6f}: {100 * rel:.2f}% <= 2%",
         rel <= 0.02),
        (f"r^2 = {fit.r2:.7f} >= 0.999", fit.r2 >= 0.999),
    ]
    elapsed = time.time() - t0
    checks.append((f"runtime {elapsed:.0f}s <= 120s", elapsed <= 120.0))
    return _result(3, "pair-splitting decay rate", checks, t0)


def criterion_4(ws: Workspace) -> CriterionResult:
    """Splitting prefactor matches the window-integral formula."""
    t0 = time.time()
    pair = ws.single_pair(1.0)
    integral = window_integral(pair, pair.kappa1)
    mu_ldt = predict_splitting(pair.lam, window_integral=integral).mu_integral
    _, fit = _splitting_fit(ws)
    rel_fit = abs(fit.prefactor - mu_ldt) / mu_ldt
    rows = ws.single_ladder(1.0)
    ns = list(rows)
    i_inf = extrapolate_truncation(ns, [rows[n]["integral"] for n in ns])
    rhs_inf = extrapolate_truncation(ns, [rows[n]["alpha_pi_kappa"] for n in ns])
    kap_inf = math.sqrt(1.0 - ws.refined_single(1.0))
    mu_alpha_inf = rhs_inf ** 2 / (PI * kap_inf)   # alpha^2 pi kappa via the identity form
    mu_int_inf = i_inf ** 2 / (PI * kap_inf)
    rel_mu = abs(mu_alpha_inf - mu_int_inf) / mu_alpha_inf
    checks = [
        (f"fitted prefactor {fit.prefactor:.6f} vs mu(integral) {mu_ldt:.6f}: "
         f"{100 * rel_fit:.2f}% <= 10%", rel_fit <= 0.10),
        (f"tail-amplitude vs window-integral prefactor agreement {rel_mu:.2e} <= 1e-3",
         rel_mu <= 1e-3),
    ]
    return _result(4, "splitting prefactor", checks, t0)


def criterion_5(ws: Workspace) -> CriterionResult:
    """Boundary-pairing identity I = alpha pi sqrt(1-lam) to 1e-6 relative."""
    t0 = time.time()
    checks = []
    for a in (1.0, 2.0):
        rows = ws.single_ladder(a)
        ns = list(rows)
        i_inf = extrapolate_truncation(ns, [rows[n]["integral"] for n in ns])
        rhs_inf = extrapolate_truncation(ns, [rows[n]["alpha_pi_kappa"] for n in ns])
        rel = abs(i_inf - rhs_inf) / abs(i_inf)
        checks.append((f"a={a}: |I - alpha*pi*kappa|/I = {rel:.2e} <= 1e-6", rel <= 1e-6))
    return _result(5, "tail-amplitude integral identity", checks, t0)


def criterion_6(ws: Workspace) -> CriterionResult:
    """Critical width against the FD count bracket; resonance identities."""
    t0 = time.time()
    rows = ws.critical_ladder()
    ns = list(rows)
    a1 = extrapolate_truncation(ns, [rows[n]["a"] for n in ns])
    a_fd = ws.fd_critical_crossing()
    i_inf = extrapolate_truncation(ns, [rows[n]["integral"] for n in ns])
    rhs_inf = extrapolate_truncation(ns, [rows[n]["beta_rhs"] for n in ns])
    beta_inf = extrapolate_truncation(ns, [rows[n]["beta"] for n in ns])
    rel_beta = abs(i_inf - rhs_inf) / abs(i_inf)
    mu_beta = 3.0 * PI ** 2 * beta_inf ** 4
    mu_int = 16.0 / (3.0 * PI ** 2) * i_inf ** 4
    rel_mu = abs(mu_beta - mu_int) / mu_beta
    checks = [
        (f"a1 = {a1:.6f} inside FD count bracket {a_fd:.6f} +- 1e-2",
         abs(a1 - a_fd) <= 1e-2),
        (f"resonance identity |I - (sqrt3 pi/2) beta|/I = {rel_beta:.2e} <= 1e-4",
         rel_beta <= 1e-4),
        (f"threshold prefactor via beta vs via integral: {rel_mu:.2e} <= 1e-3",
         rel_mu <= 1e-3),
    ]
    return _result(6, "critical width and resonance tail", checks, t0)


def criterion_7(ws: Workspace) -> CriterionResult:
    """Threshold-case sweep: rate, prefactor and pointwise decay check."""
    t0 = time.time()
    w1 = ws.critical()
    pred = predict_threshold(beta=w1.beta)
    mu = pred.mu_beta
    ls = [3.0 + 0.25 * i for i in range(13)]
    data = ws.t3_sweep(ls)
    fit = fit_exponential([(l, k * k) for l, k in data])
    rel_rate = abs(fit.rate - THRESHOLD_RATE) / THRESHOLD_RATE
    rel_pref = abs(fit.prefactor - mu) / mu
    k5 = dict(data)[5.0]
    k5_pred = pred.kappa(5.0)
    rel_k5 = abs(k5 - k5_pred) / k5_pred
    checks = [
        (f"rate {fit.rate:.5f} vs 4*sqrt(3) = {THRESHOLD_RATE:.5f}: "
         f"{100 * rel_rate:.2f}% <= 3%", rel_rate <= 0.03),
        (f"fitted prefactor {fit.prefactor:.1f} vs 3 pi^2 beta1^4 = {mu:.1f}: "
         f"{100 * rel_pref:.1f}% <= 15%", rel_pref <= 0.15),
        (f"kappa(5) = {k5:.6e} vs {k5_pred:.6e}: {100 * rel_k5:.2f}% <= 10%",
         rel_k5 <= 0.10),
    ]
    elapsed = time.time() - t0
    checks.append((f"runtime {elapsed:.0f}s <= 300s", elapsed <= 300.0))
    return _result(7, "threshold-resonance asymptotics", checks, t0)


def criterion_8(ws: Workspace) -> CriterionResult:
    """Raw eigenvalues move at most 1e-8 between the first two rungs (N and 2N)."""
    t0 = time.time()
    ladders = [(f"single a={a}", {n: row["lam"] for n, row in ws.single_ladder(a).items()})
               for a in (1.0, 2.0)]
    ladders += [(f"two-window l=6 {parity}", ws.refined_two(1.0, 6.0, parity).by_n)
                for parity in ("even", "odd")]
    checks = []
    for name, lams in ladders:
        n0, n1 = list(lams)[:2]
        drift = abs(lams[n1] - lams[n0])
        checks.append((f"{name}: |lam({n1}) - lam({n0})| = {drift:.2e} <= 1e-8", drift <= 1e-8))
    return _result(8, "truncation stability of raw eigenvalues", checks, t0)


def criterion_9(ws: Workspace) -> CriterionResult:
    """Scaling: (d=2pi, a=2, l=12) reproduces (d=pi, a=1, l=6) / 4 exactly."""
    t0 = time.time()
    big = canonicalize(StripConfig(d=2 * PI, a=2.0, l=12.0, kind=ProblemKind.TWO_WINDOW_EVEN))
    ref = _two_cfg(1.0, 6.0, "even")
    same_geom = (big.base == ref.base)
    lam_canon = find_eigenvalues(ref, ws.trunc)[0].lam
    lam_big = find_eigenvalues(big, ws.trunc)[0].lam
    lam_phys = big.to_physical(lam_big)
    exact = lam_phys == lam_canon * 0.25
    checks = [
        ("canonical geometries identical after rescaling", same_geom),
        (f"physical eigenvalue {lam_phys:.12f} == canonical/4 bit-exactly", exact),
    ]
    return _result(9, "scaling invariance", checks, t0)


def criterion_10(ws: Workspace) -> CriterionResult:
    """Eigenvalue counts: 2n off-critical, 2n+1 at the critical width."""
    t0 = time.time()
    n_even = len(find_eigenvalues(_two_cfg(1.0, 8.0, "even"), ws.trunc))
    n_odd = len(find_eigenvalues(_two_cfg(1.0, 8.0, "odd"), ws.trunc))
    a1 = ws.critical().a
    evens = find_eigenvalues(_two_cfg(a1, 4.0, "even"), ws.trunc)
    odds = find_eigenvalues(_two_cfg(a1, 4.0, "odd"), ws.trunc)
    total = len(evens) + len(odds)
    extra = [p for p in evens if p.kappa1 < 1e-3]
    checks = [
        (f"a=1, l=8: {n_even} even + {n_odd} odd = {n_even + n_odd} == 2", n_even + n_odd == 2),
        (f"a=a1, l=4: {len(evens)} even + {len(odds)} odd = {total} == 3", total == 3),
        (f"extra eigenvalue is even and near threshold (kappa = "
         f"{extra[0].kappa1:.2e})" if extra else "extra near-threshold eigenvalue present",
         len(extra) == 1),
    ]
    return _result(10, "eigenvalue counts", checks, t0)


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10]

def run_acceptance(quick: bool = False, trunc: Truncation = Truncation(40)) -> list[CriterionResult]:
    ws = Workspace(trunc=trunc, quick=quick)
    return [fn(ws) for fn in CRITERIA]
