"""Roots of a symmetric form by count: isolate by inertia, polish by determinant.

A form maps x to a symmetric matrix S(x) and its number of poles below x.
Negative eigenvalues of S plus poles (Wittrick and Williams, Q. J. Mech.
Appl. Math. 24 (1971) 263-284) rise by one across each simple root, so
count bisection isolates each root in a bracket of one root and no pole,
where Brent's method on det S polishes it into a :class:`Root`: x and what the
sector keeps of its form there, the kernel's data, taken once a root.  The
count has shown the bracket to hold one root, so the polish builds no form to
certify the last digits: it stops once Brent's step is within the tolerance, or
at the first point where det S is within the rounding floor the sector
supplies.  Root k of a sector, searched from a window (:func:`kth_root`),
counts the sector end it is indexed from only where the window's count cannot
stand for it.  The mode-matching solver (:mod:`modeguide.solve`) and the
finite-difference oracle (:mod:`modeguide.fd_oracle`) both use it.  numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np

__all__ = ["Sector", "Count", "Root", "count", "isolate", "brent", "polish", "ascending_roots",
           "merged_roots", "sector_roots", "kth_root", "kernel"]

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class Sector:
    """One system's roots as a function of a scalar x on [lo, hi].

    ``form(x)`` is the form's value at x, S = ``matrix(value)``, and its pole count; a
    polished root keeps ``keep(value)`` (both by default the value).  ``sense`` is -1 when
    x runs against the form's own variable (x = 1 - lam for lam), so that ``sense * (negative
    eigenvalues + poles)`` is the number of roots below x up to a constant.  The polish works
    to :meth:`tol`, in s = sqrt(x) if the bracket tops out at ``sqrt_upto``.  ``floor(value)``
    is an entrywise rounding floor of a 1 x 1 or 2 x 2 ``matrix(value)``, or None (the
    default) where the sector has none; the polish stops at a point whose det S it reaches.
    """

    form: Callable[[float], tuple[Any, int]]
    lo: float
    hi: float
    xtol: float
    rtol: float = 4.0 * _EPS
    xcap: float = math.inf
    sense: int = 1
    sqrt_upto: float = -math.inf
    matrix: Callable[[Any], np.ndarray] = lambda value: value
    keep: Callable[[Any], Any] = lambda value: value
    floor: Callable[[Any], np.ndarray | None] = lambda value: None

    def __post_init__(self) -> None:
        # bisection needs an interval to halve, and a polish in sqrt(x) a positive lower end
        if not (self.lo < self.hi and (self.lo > 0.0 or self.sqrt_upto <= self.lo)):
            raise ValueError(f"a sector needs lo < hi, and lo > 0 if it polishes in sqrt(x): got "
                             f"[{self.lo!r}, {self.hi!r}], sqrt_upto={self.sqrt_upto!r}")

    def tol(self, x: float) -> float:
        """Bracket width at x: ``xtol + rtol |x|``, xtol capped at ``xcap |x|`` towards x = 0."""
        return min(self.xtol, self.xcap * abs(x)) + self.rtol * abs(x)  # min keeps xtol over inf * 0


@dataclass(frozen=True)
class Count:
    """Inertia of a sector's form at x."""

    x: float
    roots: int      # roots below x, up to a constant of the sector
    poles: int
    sign: float     # sign of det S
    logdet: float   # log |det S|


class Root(NamedTuple):
    """A root x of a sector and ``at`` it what the root keeps of the form (``Sector.keep``)."""

    x: float
    at: Any


def count(sec: Sector, x: float) -> Count:
    at, poles = sec.form(x)
    mu = np.linalg.eigvalsh(sec.matrix(at))
    neg = int(np.count_nonzero(mu < 0.0))
    with np.errstate(divide="ignore"):
        logdet = float(np.sum(np.log(np.abs(mu))))
    return Count(x, sec.sense * (neg + poles), poles, -1.0 if neg % 2 else 1.0, logdet)


def _det_floor(Z: np.ndarray, F: np.ndarray) -> float:
    """First-order bound on the rounding of det Z, Z 1 x 1 or 2 x 2, from the entrywise floor F."""
    if Z.shape[0] == 1:
        return float(F[0, 0])
    (z00, z01), (_, z11) = np.abs(Z)
    return float(F[0, 0] * z11 + F[1, 1] * z00 + 2.0 * F[0, 1] * z01)


def kernel(S: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the symmetric S for its eigenvalue smallest in modulus."""
    if S.shape[0] == 1:
        return np.ones(1)  # what eigh gives for every 1 x 1 S, without its call
    mu, vecs = np.linalg.eigh(S)
    return vecs[:, int(np.argmin(np.abs(mu)))]


def isolate(sec: Sector, lo: Count, hi: Count, known=()):
    """Brackets of (lo, hi] holding one root and no pole each, ascending, by count bisection."""
    known = {c.x: c for c in known}  # counts already taken, which a midpoint at their x reuses
    stack = [(lo, hi)]
    while stack:
        lo, hi = stack.pop()
        if hi.roots <= lo.roots:
            continue
        if hi.roots == lo.roots + 1 and hi.poles == lo.poles:
            yield lo, hi
            continue
        if hi.x - lo.x <= sec.tol(hi.x):
            raise ArithmeticError(f"roots or poles closer than the tolerance at x={hi.x!r}")
        x = 0.5 * (lo.x + hi.x)
        mid = known.get(x) or count(sec, x)
        stack += [(mid, hi), (lo, mid)]


def brent(f, a: float, b: float, fa: float, fb: float, tol: Callable[[float], float]) -> float:
    """Root of f in the sign-change bracket [a, b] (Brent 1973, ch. 4, zeroin).

    Secant and inverse quadratic steps, with bisection whenever they do not shrink the bracket
    fast enough.  Returns the end b of the bracket at which |f| is smaller, once the bracket
    is at most ``tol(b)`` wide, f(b) is 0, or an accepted interpolation step from b is at
    most ``tol(b) / 4``: b is then that close to the root the step predicts, which is the
    root only where the bracket holds one, as a count shows.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 0.5 * tol(b)
        m = 0.5 * (c - b)
        if fb == 0.0 or abs(m) <= tol1:
            return float(b)
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
                if abs(d) <= 0.5 * tol1:  # the interpolated root is within tol(b) / 4 of b
                    return float(b)
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        fb = f(b)


def polish(sec: Sector, lo: Count, hi: Count) -> Root | None:
    """The :class:`Root` of a one-root, pole-free bracket, by Brent's method on det S.

    Across such a bracket det S changes sign once, at the root.  The values are scaled by
    det S(lo) and clipped to e^+-700, so they stay finite, and taken in s = sqrt(x) up to
    ``Sector.sqrt_upto`` (det S ~ s - s0 near a threshold).  A point where |det S| is within
    the first-order bound of ``Sector.floor`` (F_00 for 1 x 1; F_00 |z_11| + F_11 |z_00| +
    2 F_01 |z_01| for 2 x 2) reads 0, and is the root: past it det S is rounding.  No form is
    built on the root's far side to certify a bracket (see :func:`brent`).  Only the latest
    point's form is held, and ``Sector.keep`` runs once, on the form of the point Brent
    returns; that form is built again where the point is a bracket end, whose count held
    none, or a point before the latest.  None when the determinant keeps its sign (the
    count was wrong).
    """
    if lo.sign == hi.sign:
        return None
    latest = {}  # the latest point Brent evaluated and its form's value, no other

    def scaled(sign, logdet):
        return float(sign) * math.exp(min(max(logdet - lo.logdet, -700.0), 700.0))

    def value(x):
        latest.clear()  # dropped before the next form is built
        latest[x] = sec.form(x)[0]
        return latest[x]

    def f(x):
        at = value(x)
        Z, F = sec.matrix(at), sec.floor(at)
        sign, logdet = np.linalg.slogdet(Z)
        if F is not None and logdet <= math.log(max(_det_floor(Z, F), _TINY)):
            return 0.0  # det S is rounding there: the point is as good a root as any nearer one
        return scaled(sign, logdet)
    zero = [end.x for end in (lo, hi) if end.logdet == -math.inf]  # det S = 0 there
    fa, fb = scaled(lo.sign, lo.logdet), scaled(hi.sign, hi.logdet)
    if zero:
        x = zero[0]
    elif hi.x <= sec.sqrt_upto:  # to the bracket that sec.tol maps to s
        x = brent(lambda s: f(s * s), math.sqrt(lo.x), math.sqrt(hi.x), fa, fb,
                  lambda s: sec.tol(s * s) / (2.0 * s)) ** 2
    else:
        x = brent(f, lo.x, hi.x, fa, fb, sec.tol)
    # the root keeps its form once: a bracket end, or a point Brent evaluated before the latest,
    # is built again
    return Root(x, sec.keep(latest.pop(x) if x in latest else value(x)))


def _polished(sec: Sector, lo: Count, hi: Count, k: int, bracket: tuple[Count, Count]) -> Root:
    """The root of bracket k of (lo, hi]; ArithmeticError where det S keeps its sign across it."""
    root = polish(sec, *bracket)
    if root is None:
        raise ArithmeticError(f"the count gives {hi.roots - lo.roots} roots in "
                              f"[{lo.x!r}, {hi.x!r}], but det S keeps its sign "
                              f"across root {k}")
    return root


def ascending_roots(sec: Sector, lo: Count, hi: Count, known=()) -> Iterator[Root]:
    """The roots in (lo.x, hi.x], ascending, each polished only when it is reached.

    Raises ArithmeticError at a counted root across which det S keeps its
    sign, so that no root is lost silently.
    """
    for k, bracket in enumerate(isolate(sec, lo, hi, known), start=1):
        yield _polished(sec, lo, hi, k, bracket)


@dataclass
class _Next:
    """A range's next root: bracket k of the range, an interval known to hold the root
    (the bracket's ends, narrowed by counts), and the root once polished."""

    k: int
    bracket: tuple[Count, Count]
    lower: float
    upper: float
    root: Root | None = None


def merged_roots(ranges: list[tuple[Sector, Count, Count]]) -> Iterator[Root]:
    """The roots of several sectors of one x, each over its (lo.x, hi.x], ascending.

    The sectors' brackets (:func:`isolate`) are merged, not their roots.  Of
    the next bracket of each sector, the one with the lowest upper end is
    polished; another that reaches below that root is counted there, and
    polished only if its root lies below.  So a root past the last one taken
    is polished only where another sector's root lay in its bracket, below
    it.  Each root is polished from the bracket :func:`ascending_roots`
    polishes it from.  Raises ArithmeticError as :func:`ascending_roots` does.
    """
    brackets = [enumerate(isolate(sec, lo, hi), start=1) for sec, lo, hi in ranges]

    def advance(i: int) -> _Next | None:
        k, bracket = next(brackets[i], (0, None))
        return _Next(k, bracket, bracket[0].x, bracket[1].x) if k else None

    def settle(i: int) -> None:
        head = heads[i]
        head.root = _polished(*ranges[i], head.k, head.bracket)
        head.lower = head.upper = head.root.x

    heads = [advance(i) for i in range(len(ranges))]
    while live := [i for i, head in enumerate(heads) if head is not None]:
        first = min(live, key=lambda i: heads[i].upper)
        if heads[first].root is None:
            settle(first)
            continue
        x, undercut = heads[first].root.x, False
        for i in live:
            if heads[i].lower < x:  # an unpolished bracket reaching below first's root
                if count(ranges[i][0], x).roots > heads[i].bracket[0].roots:
                    settle(i)
                    undercut = True
                else:
                    heads[i].lower = x
        if not undercut:
            yield heads[first].root
            heads[first] = advance(first)


def sector_roots(sec: Sector) -> list[Root]:
    """Every root of the sector in (lo, hi], ascending (see :func:`ascending_roots`)."""
    return list(ascending_roots(sec, count(sec, sec.lo), count(sec, sec.hi)))


def kth_root(sec: Sector, x0: float, width: float, k: int) -> Root | None:
    """Root k of the sector, searched from the window x0 +- width; None if the sector has none.

    Root k counts from ``sec.lo`` (k = 1 the lowest) or, for k < 0, from ``sec.hi`` (k = -1
    the highest), as a list's index does.  The window is counted first; the end k counts
    from is counted only where the window's count on its side does not give it: a count
    never falls in x and is <= 0 for ``sense`` -1 and >= 0 for +1, so where the window end
    on ``hi``'s side reads 0 in a sector of sense -1, or on ``lo``'s side in one of sense +1,
    that sector end reads 0 too.  The counts at the window's ends tell on which side of it
    root k lies, and the search moves to that side only: the end nearer the root becomes the
    far end of the next window, each twice as long as the last, so the bracket polished is
    one window long.  Every count lies in [lo, hi] of the sector.
    """
    def at(x):
        return count(sec, min(max(x, sec.lo), sec.hi))
    width = max(width, sec.tol(x0))
    lo, hi = at(x0 - width), at(x0 + width)
    # the count at the upper end of root k's bracket, from the end k counts from or the
    # window's 0 on that end's side
    if k < 0:
        target = (0 if sec.sense < 0 and hi.roots == 0 else count(sec, sec.hi).roots) + k + 1
    else:
        target = (0 if sec.sense > 0 and lo.roots == 0 else count(sec, sec.lo).roots) + k
    while not lo.roots < target <= hi.roots:
        below = target <= lo.roots
        if (lo.x == sec.lo) if below else (hi.x == sec.hi):
            return None
        width *= 2.0
        lo, hi = (at(lo.x - width), lo) if below else (hi, at(hi.x + width))
    bracket = next((b for b in isolate(sec, lo, hi) if b[1].roots == target), None)
    root = None if bracket is None else polish(sec, *bracket)
    if root is None:
        raise ArithmeticError(f"root {k} near {x0!r} does not change the sign of det S")
    return root
