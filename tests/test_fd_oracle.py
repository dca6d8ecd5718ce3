import math

import numpy as np
import pytest
import scipy.sparse as sparse

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
from modeguide.fd_oracle import discretize_with_nodes

from conftest import single_cfg, two_cfg

PI = math.pi


def test_1d_dirichlet_chain_spectrum():
    # textbook discrete Laplacian: eigenvalues (4/h^2) sin^2(k pi / (2(n+1)))
    n, h = 60, 0.1
    main = np.full(n, 2.0 / h ** 2)
    off = np.full(n - 1, -1.0 / h ** 2)
    op = sparse.diags([off, main, off], [-1, 0, 1]).tocsr()
    got = lowest_eigenvalues(op, 4)
    expect = np.array([(4.0 / h ** 2) * math.sin(k * PI / (2 * (n + 1))) ** 2
                       for k in range(1, 5)])
    assert np.max(np.abs(got - expect)) < 1e-10


def test_repeated_runs_agree():
    op = discretize(single_cfg(1.0), OracleConfig(L=8.0, h=1 / 16, k=2))
    w1 = lowest_eigenvalues(op, 2)
    w2 = lowest_eigenvalues(op, 2)
    assert np.max(np.abs(w1 - w2)) < 1e-10
    # and against an independently started Lanczos run
    import scipy.sparse.linalg as spla
    rng = np.random.default_rng(7)
    w3 = np.sort(spla.eigsh(op, k=2, sigma=0.2, which="LM", tol=1e-12,
                            return_eigenvectors=False,
                            v0=rng.standard_normal(op.shape[0])))
    assert np.max(np.abs(w1 - w3)) < 1e-10


def test_operator_is_bitwise_symmetric():
    for cfg, L in ((single_cfg(1.0), 8.0), (single_cfg(1.5, "odd"), 8.0),
                   (two_cfg(1.0, 4.0, "even"), 8.0), (two_cfg(1.0, 4.0, "odd"), 8.0)):
        op = discretize(cfg, OracleConfig(L=L, h=1 / 16, k=2))
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
        discretize(single_cfg(0.3), OracleConfig(L=8.0, h=1 / 64, k=2))
    with pytest.raises(GridAlignmentError):
        discretize(single_cfg(1.0), OracleConfig(L=8.3, h=1 / 16, k=2))


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
    op, x1, x2 = discretize_with_nodes(cfg, OracleConfig(L=10.0, h=1 / 32, k=1))
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
    with pytest.raises(ValueError):
        lowest_eigenvalues(sparse.eye(3).tocsr(), 5)


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
    op, x1, x2 = discretize_with_nodes(cfg, ocfg)
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

    op = discretize(cfg, ocfg)
    got = lowest_eigenvalues(op, ocfg.k)
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


@pytest.mark.parametrize("h, L", [(1 / 16, 16.0), (1 / 32, 16.0),
                                  (1 / 16, 16.0625)])  # L off the h = 1/8 grid: no seed
def test_crossing_walk_equals_plain_scan(h, L):
    # reference: every gap on the 2h lattice, the first sign change, the secant
    cut = discrete_threshold(h) - 1e-8
    widths = [round(2.0 / h) * h]
    while widths[-1] < round(2.6 / h) * h:
        widths.append(min(round((widths[-1] + 2.0 * h) / h) * h, round(2.6 / h) * h))
    ocfg = OracleConfig(L=L, h=h, k=2, end="neumann")
    gaps = [oracle_eigenvalues(single_cfg(a, "odd"), ocfg)[0] - cut for a in widths]
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    i = next(i for i in range(len(gaps) - 1) if gaps[i] > 0.0 >= gaps[i + 1])
    scan = widths[i] + (widths[i + 1] - widths[i]) * gaps[i] / (gaps[i] - gaps[i + 1])
    assert critical_width_crossing("odd", h, L=L) == scan


def test_crossing_solves_twice_on_its_own_grid(solves):
    assert critical_width_crossing("odd", 1 / 32) == 2.2810347423242283
    assert [a for h, a in solves if h == 1 / 32] == [2.25, 2.3125]


def test_crossing_walk_recovers_from_a_wrong_seed(monkeypatch, solves):
    # a seed at 2.55 starts four cells right of the crossing: one more solve each
    monkeypatch.setattr(fd_oracle, "critical_width_crossing", lambda *args: 2.55)
    assert critical_width_crossing("odd", 1 / 32) == 2.2810347423242283
    assert solves == [(1 / 32, a) for a in (2.5, 2.5625, 2.4375, 2.375, 2.3125, 2.25)]


@pytest.mark.parametrize("h", [1 / 16, 1 / 32])
def test_crossing_without_a_new_state_raises(h, solves):
    # the even ground state binds at every width, so every gap is negative;
    # at h = 1/32 the lattice ends at 2.59375 < 2.6, where a scan never stopped
    with pytest.raises(ArithmeticError, match="no threshold crossing"):
        critical_width_crossing("even", h)
    assert [a for step, a in solves if step == h] == [2.0, 2.0 + 2.0 * h]


def test_crossing_rejects_unknown_parity(solves):
    with pytest.raises(ValueError, match="parity"):
        critical_width_crossing("Odd", 1 / 16)
    assert solves == []
