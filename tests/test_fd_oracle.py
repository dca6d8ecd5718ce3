import math

import mpmath
import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import example, given, settings, strategies as st

from modeguide import (
    GridAlignmentError,
    OracleConfig,
    critical_width_crossing,
    discrete_threshold,
    discretize,
    lowest_eigenvalues,
    oracle_eigenvalues,
    refine_and_extrapolate,
)
from modeguide import ProblemKind, StripConfig, canonicalize, fd_oracle
from modeguide.fd_oracle import FDGrid
from modeguide.roots import Sector, count

from conftest import single_cfg, two_cfg

PI = math.pi


def test_windowless_grid_gives_the_closed_form_spectrum():
    # a = h: the odd kind keeps no window node, so the operator is the Dirichlet
    # T1 (x) I + I (x) T2 and its spectrum is (4/h^2) sin^2 + (4/h2^2) sin^2
    h, L = 1 / 16, 8.0
    grid = FDGrid(single_cfg(h, "odd"), OracleConfig(L=L, h=h, k=4))
    n1, n2 = round(L / h), round(PI / h)
    h2 = PI / n2
    lam = (4.0 / h ** 2) * np.sin(np.arange(1, n1) * PI / (2 * n1)) ** 2
    mu = (4.0 / h2 ** 2) * np.sin(np.arange(1, n2) * PI / (2 * n2)) ** 2
    expect = np.sort(np.add.outer(lam, mu), axis=None)[:4]
    got = lowest_eigenvalues(grid, 4)
    assert np.max(np.abs(got - expect) / expect) < 1e-12
    assert got[1] == pytest.approx(1.6164, abs=1e-4) and got[3] == pytest.approx(3.4651, abs=1e-4)


def test_repeated_runs_agree():
    grid = FDGrid(single_cfg(1.0), OracleConfig(L=8.0, h=1 / 16, k=2))
    w1 = lowest_eigenvalues(grid, 2)
    w2 = lowest_eigenvalues(grid, 2)
    assert np.max(np.abs(w1 - w2)) < 1e-10
    # and against an independently started Lanczos run
    import scipy.sparse.linalg as spla
    rng = np.random.default_rng(7)
    op = discretize(grid)
    w3 = np.sort(spla.eigsh(op, k=2, sigma=0.2, which="LM", tol=1e-12,
                            return_eigenvectors=False,
                            v0=rng.standard_normal(op.shape[0])))
    assert np.max(np.abs(w1 - w3)) < 1e-10


def test_operator_is_bitwise_symmetric():
    for cfg, L in ((single_cfg(1.0), 8.0), (single_cfg(1.5, "odd"), 8.0),
                   (two_cfg(1.0, 4.0, "even"), 8.0), (two_cfg(1.0, 4.0, "odd"), 8.0)):
        op = discretize(FDGrid(cfg, OracleConfig(L=L, h=1 / 16, k=2)))
        assert (op != op.T).nnz == 0


def test_pure_dirichlet_strip_has_no_bound_state():
    # odd parity with a single-cell window leaves no Neumann node: the strip
    # is purely Dirichlet and nothing lies below the discrete threshold
    h = 1 / 16
    cfg = single_cfg(h, "odd")
    w = oracle_eigenvalues(cfg, OracleConfig(L=8.0, h=h, k=2))
    assert w[0] >= discrete_threshold(h) - 1e-12
    assert w[0] >= 1.0 - h * h


def test_any_window_binds():
    w = oracle_eigenvalues(single_cfg(1.0), OracleConfig(L=10.0, h=1 / 16, k=2))
    assert w[0] < 1.0


def test_grid_alignment_enforced():
    with pytest.raises(GridAlignmentError):
        FDGrid(single_cfg(0.3), OracleConfig(L=8.0, h=1 / 64, k=2))
    with pytest.raises(GridAlignmentError):
        FDGrid(single_cfg(1.0), OracleConfig(L=8.3, h=1 / 16, k=2))


def test_refine_and_extrapolate_exact_quadratic():
    v_star, c = 5.0, 0.3
    seq = [v_star + c * h * h for h in (0.1, 0.05, 0.025)]
    value, err, p = refine_and_extrapolate(*seq)
    assert value[0] == pytest.approx(v_star, abs=1e-12)
    assert p == pytest.approx(2.0, abs=1e-6)
    assert err[0] > 0.0


def test_refine_two_grid_default_first_order():
    value, err, p = refine_and_extrapolate(1.1, 1.05)
    assert p == 1.0
    assert value[0] == pytest.approx(1.0)
    assert err[0] == pytest.approx(0.05)


def test_refine_flags_non_monotone():
    value, err, p = refine_and_extrapolate(1.0, 1.2, 1.1)
    assert math.isnan(p)
    assert value[0] == 1.1


def test_dirichlet_truncation_raises_eigenvalues():
    h = 1 / 16
    w_short = oracle_eigenvalues(single_cfg(1.0), OracleConfig(L=10.0, h=h, k=1))
    w_long = oracle_eigenvalues(single_cfg(1.0), OracleConfig(L=14.0, h=h, k=1))
    assert w_short[0] >= w_long[0]


def test_neumann_end_lowers_eigenvalues():
    h = 1 / 16
    w_d = oracle_eigenvalues(single_cfg(1.0), OracleConfig(L=10.0, h=h, k=1))
    w_n = oracle_eigenvalues(single_cfg(1.0), OracleConfig(L=10.0, h=h, k=1, end="neumann"))
    assert w_n[0] <= w_d[0]


def test_truncation_length_insensitivity():
    h = 1 / 32
    w32 = oracle_eigenvalues(single_cfg(1.0), OracleConfig(L=32.0, h=h, k=1))
    w36 = oracle_eigenvalues(single_cfg(1.0), OracleConfig(L=36.0, h=h, k=1))
    assert abs(w32[0] - w36[0]) <= 1e-8


def test_eigenvalue_convergence_with_refinement():
    grids = (1 / 8, 1 / 16, 1 / 32)
    vals = [oracle_eigenvalues(single_cfg(1.0), OracleConfig(L=12.0, h=h, k=1))[0]
            for h in grids]
    value, err, p = refine_and_extrapolate(*vals)
    # corner singularity: effective order sits between 1 and 2
    assert 0.5 < p < 2.2
    assert abs(value[0] - 0.858857) < 5e-4


def test_refinement_study_wider_window():
    # corner error is first-order dominated; the extrapolated value is
    # stable against the matching-ladder limit at the 1e-4 scale
    grids = (1 / 8, 1 / 16, 1 / 32)
    vals = [oracle_eigenvalues(single_cfg(2.0), OracleConfig(L=12.0, h=h, k=1))[0]
            for h in grids]
    value, err, p = refine_and_extrapolate(*vals)
    assert 0.5 < p < 2.2
    assert abs(value[0] - 0.559310) < 5e-4
    assert err[0] < 5e-3


def test_eigenvector_shape_matches_matching_eigenfunction():
    # independent shape oracle: the discrete ground eigenvector agrees with
    # the reconstructed mode-matching eigenfunction up to sign and the
    # half-cell similarity weights at reflecting nodes
    import scipy.sparse.linalg as spla
    from modeguide import Truncation, eigenfunction_value, find_eigenvalues

    cfg = single_cfg(1.0)
    grid = FDGrid(cfg, OracleConfig(L=10.0, h=1 / 32, k=1))
    op = discretize(grid)
    x1, x2 = grid.nodes()
    w, v = spla.eigsh(op, k=1, sigma=0.2, which="LM",
                      v0=np.full(op.shape[0], op.shape[0] ** -0.5))
    vec = v[:, 0]
    # undo the symmetrization weights sqrt(s): s = 1/2 per reflecting side
    s = np.ones_like(vec)
    s[np.isclose(x2, 0.0)] *= 0.5
    s[np.isclose(x1, 0.0)] *= 0.5
    field = vec / np.sqrt(s)
    pair = find_eigenvalues(cfg, Truncation(40))[0]
    model = eigenfunction_value(pair, x1, x2)
    cos = abs(float(field @ model)) / (np.linalg.norm(field) * np.linalg.norm(model))
    # residual disagreement concentrates at the window-edge corner, the
    # weak spot of both discretizations
    assert cos > 0.999


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(L=-1.0, h=1 / 16, k=2)
    with pytest.raises(ValueError):
        OracleConfig(L=8.0, h=1 / 16, k=0)
    with pytest.raises(ValueError):
        OracleConfig(L=8.0, h=1 / 16, k=2, end="robin")
    # the caps, checked before any allocation: four times the h = 1/64 grid passes
    OracleConfig(L=16.0, h=1 / 128, k=4)
    for L, h in ((16.0, 1 / 1024), (16.0, 1e-300), (1e300, 1.0)):
        with pytest.raises(ValueError, match="over the cap"):
            OracleConfig(L=L, h=h, k=2)
    with pytest.raises(ValueError, match="exceeds"):
        OracleConfig(L=2.0, h=0.5, k=26)  # 4 * 2 pi unknowns
    # one cell across the strip is too coarse for the window nodes' x2 line
    with pytest.raises(ValueError, match="too coarse: a step h=2.2 leaves n2 = 1 cells"):
        OracleConfig(L=8.0, h=2.2, k=1)
    assert FDGrid(single_cfg(2.0), OracleConfig(L=8.0, h=2.0, k=1)).n2 == 2
    # the config's estimate (L/h)(pi/h) = 25.1 admits k = 25, but the grid keeps
    # 21 nodes: 4 rows of 5 plus the one window node
    ocfg = OracleConfig(L=2.0, h=0.5, k=25)
    grid = FDGrid(single_cfg(0.5), ocfg)
    assert grid.size <= ocfg.k
    with pytest.raises(ValueError, match="more eigenvalues"):
        lowest_eigenvalues(grid, ocfg.k)


def _dict_loop_discretize(cfg, ocfg):
    """Per-node reference assembly: the same operator built one node at a time."""
    kind = cfg.base.kind
    a, h = cfg.base.a, ocfg.h
    n1 = round(ocfg.L / h)
    n2 = round(PI / h)
    h2 = PI / n2
    win_lo, win_hi = (cfg.base.l - a, cfg.base.l + a) if kind.is_two_window else (-a, a)
    plane_neumann = kind.parity == "even"
    end_neumann = ocfg.end == "neumann"
    i_lo = 0 if plane_neumann else 1
    i_hi = n1 if end_neumann else n1 - 1

    def in_window(i):
        return win_lo + 1e-9 < i * h < win_hi - 1e-9

    index = {}
    for i in range(i_lo, i_hi + 1):
        for j in range(0 if in_window(i) else 1, n2):
            index[(i, j)] = len(index)
    c1, c2 = 1.0 / (h * h), 1.0 / (h2 * h2)
    rows, cols, vals = [], [], []

    def add(p, q, w):
        rows.append(p)
        cols.append(q)
        vals.append(w)

    for (i, j), p in index.items():
        add(p, p, 2.0 * c1 + 2.0 * c2)
        up = index.get((i, j + 1))
        if up is not None:
            w = -c2 * math.sqrt(2.0 if j == 0 else 1.0)
            add(p, up, w)
            add(up, p, w)
        if i > i_lo:
            q = index.get((i - 1, j))
            if q is not None:
                m_fwd = 2.0 if (end_neumann and i == n1) else 1.0
                m_bwd = 2.0 if (plane_neumann and i - 1 == 0) else 1.0
                w = -c1 * math.sqrt(m_fwd * m_bwd)
                add(p, q, w)
                add(q, p, w)
    size = len(index)
    op = sparse.csr_matrix((vals, (rows, cols)), shape=(size, size))
    op.sum_duplicates()
    x1 = np.empty(size)
    x2 = np.empty(size)
    for (i, j), p in index.items():
        x1[p] = i * h
        x2[p] = j * h2
    return op, x1, x2


@pytest.mark.parametrize("kind", list(ProblemKind))
@pytest.mark.parametrize("end", ["dirichlet", "neumann"])
@pytest.mark.parametrize("h", [1 / 16, 1 / 32])
def test_vectorized_assembly_equals_dict_loop_bitwise(kind, end, h):
    l = 3.0 if kind.is_two_window else None
    cfg = canonicalize(StripConfig(d=PI, a=1.0, l=l, kind=kind))
    ocfg = OracleConfig(L=8.0, h=h, k=2, end=end)
    grid = FDGrid(cfg, ocfg)
    op = discretize(grid)
    x1, x2 = grid.nodes()
    ref, r1, r2 = _dict_loop_discretize(cfg, ocfg)
    assert op.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(op, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert np.array_equal(x1, r1) and np.array_equal(x2, r2)


@pytest.mark.parametrize("cfg, ocfg", [
    (single_cfg(1.0), OracleConfig(L=10.0, h=1 / 16, k=2)),
    (single_cfg(2.0), OracleConfig(L=12.0, h=1 / 16, k=2)),
    (two_cfg(1.0, 4.0, "even"), OracleConfig(L=10.0, h=1 / 16, k=2)),
    (single_cfg(2.0, "odd"), OracleConfig(L=10.0, h=1 / 16, k=2, end="neumann")),
])
def test_lowest_eigenvalues_match_plain_shift_invert(cfg, ocfg):
    import scipy.sparse.linalg as spla

    grid = FDGrid(cfg, ocfg)
    op = discretize(grid)
    got = lowest_eigenvalues(grid, ocfg.k)
    plain = np.sort(spla.eigsh(op, k=ocfg.k, sigma=0.2, which="LM", tol=1e-10,
                               return_eigenvectors=False,
                               v0=np.full(op.shape[0], op.shape[0] ** -0.5)))
    assert np.max(np.abs(got - plain) / np.abs(plain)) < 1e-12


@pytest.fixture
def solves(monkeypatch):
    """(h, a) of each eigensolve the crossing search makes, capped at 40."""
    seen = []
    solve = fd_oracle.oracle_eigenvalues

    def counted(cfg, ocfg):
        seen.append((ocfg.h, cfg.base.a))
        assert len(seen) <= 40, "the crossing search does not end"
        return solve(cfg, ocfg)

    monkeypatch.setattr(fd_oracle, "oracle_eigenvalues", counted)
    return seen


def _scan_crossing(h, L, a_lo, a_hi):
    # reference: every gap on the 2h lattice, the first sign change, the secant
    cut = discrete_threshold(h) - 1e-8
    widths = [round(a_lo / h) * h]
    while widths[-1] < round(a_hi / h) * h:
        widths.append(min(round((widths[-1] + 2.0 * h) / h) * h, round(a_hi / h) * h))
    ocfg = OracleConfig(L=L, h=h, k=2, end="neumann")
    gaps = [oracle_eigenvalues(single_cfg(a, "odd"), ocfg)[0] - cut for a in widths]
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    i = next(i for i in range(len(gaps) - 1) if gaps[i] > 0.0 >= gaps[i + 1])
    return widths[i] + (widths[i + 1] - widths[i]) * gaps[i] / (gaps[i] - gaps[i + 1])


@pytest.mark.parametrize("h, L, a_lo, a_hi", [
    (1 / 16, 16.0, 2.0, 2.6), (1 / 32, 16.0, 2.0, 2.6), (1 / 16, 16.0625, 2.0, 2.6),
    (1 / 16, 16.0, 2.25, 2.6),   # the crossing in the first cell, [2.25, 2.375]
    (1 / 16, 16.0, 2.0, 2.3),    # the crossing in the last cell, [2.25, 2.3125]
])
def test_crossing_walk_equals_plain_scan(h, L, a_lo, a_hi):
    assert critical_width_crossing("odd", h, L=L, a_lo=a_lo, a_hi=a_hi) == _scan_crossing(h, L, a_lo, a_hi)


def test_crossing_below_the_lattice_raises(solves):
    # the crossing at h = 1/16, 2.2847, lies below the lattice's first width, 2.3125
    with pytest.raises(ArithmeticError, match="no threshold crossing"):
        critical_width_crossing("odd", 1 / 16, a_lo=2.3)
    assert solves == []


def test_crossing_solves_twice_on_its_own_grid(solves):
    assert critical_width_crossing("odd", 1 / 32) == 2.2810347423221065
    assert solves == [(1 / 32, 2.25), (1 / 32, 2.3125)]


def test_crossing_raises_where_the_solves_contradict_the_count(monkeypatch):
    # eigenvalues 1 too high put both ends of the counted cell above the cutoff
    solve = fd_oracle.oracle_eigenvalues
    monkeypatch.setattr(fd_oracle, "oracle_eigenvalues", lambda cfg, ocfg: solve(cfg, ocfg) + 1.0)
    with pytest.raises(ArithmeticError, match="does not change sign from a=2.25 to a=2.375"):
        critical_width_crossing("odd", 1 / 16)


@pytest.mark.parametrize("h", [1 / 16, 1 / 32])
def test_crossing_without_a_new_state_raises(h, solves):
    # the even ground state binds at every width, so the count is 1 from the
    # first width on and no eigensolve is made
    with pytest.raises(ArithmeticError, match="no threshold crossing"):
        critical_width_crossing("even", h)
    assert solves == []


def test_crossing_rejects_unknown_parity(solves):
    with pytest.raises(ValueError, match="parity"):
        critical_width_crossing("Odd", 1 / 16)
    assert solves == []


@pytest.mark.parametrize("kind, a, l", [(kind, 1.0, 2.0 if kind.is_two_window else None)
                                        for kind in ProblemKind] + [
    (ProblemKind.TWO_WINDOW_ODD, 1 / 8, 2.0),    # one window node, at x1 = L/2
    (ProblemKind.SINGLE_WINDOW_ODD, 1 / 8, None),  # no window node
])
@pytest.mark.parametrize("end", ["dirichlet", "neumann"])
def test_window_form_count_equals_the_dense_count(kind, a, l, end):
    # inertia additivity: poles below sigma plus negative eigenvalues of S(sigma),
    # plus the free values below sigma, among the poles above the threshold too
    cfg = canonicalize(StripConfig(d=PI, a=a, l=l, kind=kind))
    grid = FDGrid(cfg, OracleConfig(L=4.0, h=1 / 8, k=2, end=end))
    spectrum = np.linalg.eigvalsh(discretize(grid).toarray())
    form = fd_oracle.WindowForm(grid)
    sec = Sector(form, 0.0, 6.0, 0.0)
    shifts = np.linspace(0.01, 5.99, 240)
    assert count(sec, 6.0).poles + np.count_nonzero(form.free_values < 6.0) >= 3
    assert ([count(sec, s).roots + np.count_nonzero(form.free_values < s) for s in shifts]
            == [int(np.count_nonzero(spectrum < s)) for s in shifts])


@st.composite
def window_forms(draw):
    """A small grid of any kind and far-face condition, and a shift sigma over
    the three branches of the x2 line's Schur complement."""
    kind = draw(st.sampled_from(list(ProblemKind)))
    h = draw(st.sampled_from([1 / 8, 1 / 16]))
    a = h * draw(st.integers(1, 6))   # a = h: one window row, or none for a single odd window
    l = a + h * draw(st.integers(1, 8)) if kind.is_two_window else None
    L = (l or 0.0) + a + h * draw(st.integers(1, 16))
    end = draw(st.sampled_from(["dirichlet", "neumann"]))
    grid = FDGrid(canonicalize(StripConfig(d=PI, a=a, l=l, kind=kind)), OracleConfig(L=L, h=h, k=1, end=end))
    form = fd_oracle.WindowForm(grid)
    return form, draw(st.floats(0.0, 1.0)) * (form.lam.max(initial=0.0) + 2.0 * form.c4)


# one-row windows at x1 = L/2 miss every x1 mode with a node there (free modes)
@example((fd_oracle.WindowForm(FDGrid(two_cfg(1 / 8, 2.0, "odd"), OracleConfig(L=4.0, h=1 / 8, k=1))), 3.0))
@example((fd_oracle.WindowForm(FDGrid(two_cfg(1 / 8, 2.0, "even"),
                                      OracleConfig(L=4.0, h=1 / 8, k=1, end="neumann"))), 300.0))
@example((fd_oracle.WindowForm(FDGrid(single_cfg(1 / 8), OracleConfig(L=2.0, h=1 / 8, k=1))), 0.5))
@given(window_forms())
@settings(max_examples=60, deadline=None)
def test_window_form_is_the_product_over_the_window_modes(case):
    # the Toeplitz-plus-Hankel assembly equals Q_w^T diag(e) Q_w with the same e
    form, sigma = case
    shift = sigma + form.correction
    S, poles = form(sigma)
    e = fd_oracle._x2_line_schur(form.lam - shift, form.c4, form.n2)
    product = form.q_w.T @ (e[:, None] * form.q_w)
    assert S.shape == product.shape == (len(form.w_nodes),) * 2
    assert np.max(np.abs(S - product), initial=0.0) <= 1e-14 * np.max(np.abs(product), initial=0.0)
    assert poles == np.count_nonzero(form.lam[:, None] + form.mu < shift)


def _line_schur_40_digits(z, c4, n2):
    """n2 / sum_k 1/(z + nu_k) at 40 digits, and its condition (|z| + c4) |d log e/dz|."""
    with mpmath.workdps(40):
        g = [1 / (mpmath.mpf(z) + mpmath.mpf(c4) * mpmath.sin((k + mpmath.mpf(0.5)) * mpmath.pi / (2 * n2)) ** 2)
             for k in range(n2)]
        total = mpmath.fsum(g)
        return float(n2 / total), float((abs(z) + c4) * mpmath.fsum(x * x for x in g) / abs(total))


@pytest.mark.parametrize("h", [2.0, 1.0, 1 / 8, 1 / 64])
def test_x2_line_schur_matches_a_40_digit_sum(h):
    # z = 0 and z = -c4 exactly, their neighbours, both sides of the switch of angle
    # at -c4/2 (a pole for even n2), and points on all three branches
    n2 = round(PI / h)
    c4 = 4.0 * (n2 / PI) ** 2
    tiny = np.finfo(float).smallest_subnormal
    special = [0.0, tiny, -tiny, 1e-300, -1e-300, 1e-12, -1e-12, -c4, -np.nextafter(c4, 0.0),
               -np.nextafter(c4, np.inf), -0.999999 * c4, -0.5 * c4 * (1.0 + 1e-9), -0.5 * c4 * (1.0 - 1e-9)]
    z = np.sort(np.concatenate([special, np.random.default_rng(n2).uniform(-2.0 * c4, 2.0 * c4, 40)]))
    got = fd_oracle._x2_line_schur(z, c4, n2)
    for zi, ei in zip(z, got):
        want, cond = _line_schur_40_digits(zi, c4, n2)
        assert abs(ei - want) <= 4e-16 * (1.0 + cond) * abs(want), f"z = {zi!r}"
    assert got[z == 0.0] == 0.5 * c4 / n2 and got[z == -c4] == -0.5 * c4 / n2


# one window a = 1 per x1 basis (plane parity, far face), and an odd window
# a = h, which leaves the grid no window node
BASES = [pytest.param(parity, end, 1.0, id=basis) for parity, end, basis in (
    ("even", "dirichlet", "dct3"), ("even", "neumann", "dct1"),
    ("odd", "dirichlet", "dst1"), ("odd", "neumann", "dst3"))]
WINDOWLESS = pytest.param("odd", "dirichlet", None, id="windowless")


def _basis_grid(parity, end, a, h, L):
    grid = FDGrid(single_cfg(a or h, parity), OracleConfig(L=L, h=h, k=2, end=end))
    assert grid.window.any() == (a is not None)
    return grid


@pytest.mark.parametrize("parity, end, a", BASES)
def test_x1_transform_diagonalizes_the_x1_operator(parity, end, a):
    # the nodes of one x2 line (j = 1) couple only in x1: diagonal 2 c1 + 2 c2
    grid = _basis_grid(parity, end, a, 1 / 16, 4.0)
    op = discretize(grid)
    _, x2 = grid.nodes()
    line = np.flatnonzero(np.isclose(x2, grid.h2))
    t1 = op[line][:, line].toarray() - 2.0 * grid.c2 * np.eye(len(line))
    q = grid.x1_modes(grid.rows).T
    assert np.allclose(grid.x1_inverse(np.eye(len(line))), q.T, rtol=0.0, atol=1e-13)
    assert np.allclose(q.T @ q, np.eye(len(line)), rtol=0.0, atol=1e-13)
    assert np.max(np.abs(q.T @ t1 @ q - np.diag(grid.x1_eigenvalues()))) <= 1e-12 * 4.0 * grid.c1


@pytest.mark.parametrize("parity, end, a", BASES + [WINDOWLESS])
@pytest.mark.parametrize("h", [1 / 16, 1 / 32])
def test_the_stencil_is_the_operator(parity, end, a, h):
    grid = _basis_grid(parity, end, a, h, 4.0)
    v = np.random.default_rng(grid.size).standard_normal((grid.size, 3))
    want = discretize(grid) @ v
    assert np.linalg.norm(grid.apply(v) - want) <= 1e-15 * np.linalg.norm(want)


@pytest.mark.parametrize("parity, end, a", BASES + [WINDOWLESS])
@pytest.mark.parametrize("h", [1 / 16, 1 / 64])
def test_x1_transforms_match_the_orthonormal_dct_and_dst(parity, end, a, h):
    # the closed-form modes are the forward transform of the unit rows, the FFT
    # inverse the inverse transform, of scipy's norm="ortho" DCT or DST
    from scipy import fft

    grid = _basis_grid(parity, end, a, h, 8.0)
    name, kind, _ = grid.x1_basis
    forward, inverse = getattr(fft, name), getattr(fft, "i" + name)
    rows = len(grid.rows)
    modes = grid.x1_modes(grid.rows)
    assert np.max(np.abs(modes - forward(np.eye(rows), type=kind, norm="ortho", axis=0))) <= 1e-15
    y = np.random.default_rng(rows).standard_normal((2, 3, rows))
    want = inverse(y, type=kind, norm="ortho")
    assert np.max(np.abs(grid.x1_inverse(y) - want)) <= 2e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("cfg, ocfg", [
    (two_cfg(1.0, 4.0, "even"), OracleConfig(L=10.0, h=1 / 32, k=2)),
    (single_cfg(2.25, "odd"), OracleConfig(L=16.0, h=1 / 32, k=3, end="neumann")),
])
def test_an_eigensolve_transforms_at_most_k_plus_one_times(monkeypatch, cfg, ocfg):
    # the window basis once, in closed form, and the eigenvectors back in one
    # batch, whatever the count does
    transforms = []
    x1_modes, x1_inverse = fd_oracle.FDGrid.x1_modes, fd_oracle.FDGrid.x1_inverse
    monkeypatch.setattr(fd_oracle.FDGrid, "x1_modes",
                        lambda grid, i: transforms.append("modes") or x1_modes(grid, i))
    monkeypatch.setattr(fd_oracle.FDGrid, "x1_inverse",
                        lambda grid, y: transforms.append("inverse") or x1_inverse(grid, y))
    lowest_eigenvalues(FDGrid(cfg, ocfg), ocfg.k)
    assert transforms == ["modes", "inverse"]


def test_a_shifted_form_fails_the_eigenpair_gate(monkeypatch):
    # a form 0.05 off moves every root by 0.05, away from the operator's spectrum
    form = fd_oracle.WindowForm.__call__
    monkeypatch.setattr(fd_oracle.WindowForm, "__call__", lambda self, sigma: form(self, sigma + 0.05))
    with pytest.raises(ArithmeticError, match="eigenpair residual"):
        oracle_eigenvalues(single_cfg(1.0), OracleConfig(L=8.0, h=1 / 16, k=2))


@pytest.mark.parametrize("parity, end", [("odd", "dirichlet"), ("even", "neumann")])
def test_an_x1_mode_that_misses_the_window_gives_an_eigenvalue(parity, end):
    # a one-node window at x1 = L/2 = 4 misses the x1 modes with a node there:
    # times each x2 mode they are eigenvectors as they stand (1.6150 the first
    # for the odd kind), which a form of every mode would put on its poles
    grid = FDGrid(two_cfg(1 / 8, 4.0, parity), OracleConfig(L=8.0, h=1 / 8, k=3, end=end))
    assert len(fd_oracle.WindowForm(grid).free) > 0
    dense = np.linalg.eigvalsh(discretize(grid).toarray())[:3]
    assert np.max(np.abs(lowest_eigenvalues(grid, 3) - dense) / dense) < 1e-10


def test_fd_critical_crossing_searches_once(monkeypatch, solves):
    # one search per grid, two eigensolves each
    from collections import Counter

    from modeguide.acceptance import Workspace

    monkeypatch.delenv("MODEGUIDE_CACHE", raising=False)
    ws = Workspace(quick=True)
    parity = ws.critical().parity
    value = ws.fd_critical_crossing()
    assert Counter(h for h, _ in solves) == {1 / 16: 2, 1 / 32: 2}
    assert value == 2.0 * critical_width_crossing(parity, 1 / 32) - critical_width_crossing(parity, 1 / 16)
