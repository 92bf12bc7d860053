import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from hexgauge.hamiltonian import (
    bond_diagonal,
    build_closed,
    build_periodic,
    build_periodic_full,
    c_value,
    closed_diagonal,
    flip_exponent,
    h_plus,
    h_plusplus,
    h_x,
    j_zz,
    magnetic_coefficient,
)
from hexgauge.lattice import (
    BoundaryCondition,
    LatticeConfig,
    bonds,
    chain_sites,
    neighbor_chain6,
    neighbor_chain8,
)
from hexgauge.spinbasis import fold, full_mask, state_array, translate

P = BoundaryCondition.PERIODIC
C = BoundaryCondition.CLOSED

SQRT3 = math.sqrt(3.0)


def test_coefficient_values():
    lam = 1.3
    assert h_plus(lam) == pytest.approx(27 * SQRT3 / 8 * lam, rel=1e-15)
    assert h_plusplus(lam) == pytest.approx(9 * SQRT3 / 8 * lam, rel=1e-15)
    assert h_x(lam) == pytest.approx(4 * SQRT3 / (9 * lam), rel=1e-15)
    assert j_zz(lam) == pytest.approx(-9 * SQRT3 / 32 * lam, rel=1e-15)


def test_c_value_all_down():
    cfg = LatticeConfig(3, 3, P, 1.0)
    for p in range(9):
        assert c_value(0, cfg.coord(p), cfg) == 0


def test_c_value_single_neighbor_up():
    cfg = LatticeConfig(3, 3, P, 1.0)
    for q in neighbor_chain6((1, 1), cfg):
        s = 1 << cfg.site(*q)
        assert c_value(s, (1, 1), cfg) == 1


def test_c_value_alternating_chain():
    cfg = LatticeConfig(3, 3, P, 1.0)
    chain = neighbor_chain6((1, 1), cfg)
    s = 0
    for k in (0, 2, 4):
        s |= 1 << cfg.site(*chain[k])
    assert c_value(s, (1, 1), cfg) == 3


def test_magnetic_coefficient_values():
    cfg = LatticeConfig(3, 3, P, 1.0)
    chain = neighbor_chain6((1, 1), cfg)
    assert magnetic_coefficient(0, (1, 1), cfg) == 1.0
    s1 = 1 << cfg.site(*chain[0])
    assert magnetic_coefficient(s1, (1, 1), cfg) == -0.5
    s2 = s1 | (1 << cfg.site(*chain[2]))
    assert magnetic_coefficient(s2, (1, 1), cfg) == 0.25


def test_1x1_closed_matrix():
    lam = 1.0
    cfg = LatticeConfig(1, 1, C, lam)
    h = build_closed(cfg).to_dense()
    expect = np.array([[0.0, h_x(lam)], [h_x(lam), h_plus(lam)]])
    assert np.max(np.abs(h - expect)) < 1e-15


def test_vacuum_diagonal_zero_closed():
    for nx, ny in [(1, 1), (2, 2), (2, 3)]:
        cfg = LatticeConfig(nx, ny, C, 1.0)
        h = build_closed(cfg)
        assert h.matrix[0, 0] == 0.0
        # unique zero-diagonal state
        diag = h.matrix.diagonal()
        assert np.count_nonzero(diag == 0.0) == 1


def test_closed_diagonal_against_bond_oracle():
    # independent recomputation: iterate plaquette pairs directly
    cfg = LatticeConfig(2, 3, C, 1.0)
    for s in range(1 << 6):
        n_up = bin(s).count("1")
        pair_count = 0
        for j in range(cfg.ny):
            for i in range(cfg.nx):
                for di, dj in ((0, 1), (1, 0), (1, -1)):
                    qi, qj = i + di, j + dj
                    if not cfg.in_range(qi, qj):
                        continue
                    if (s >> cfg.site(i, j)) & 1 and (s >> cfg.site(qi, qj)) & 1:
                        pair_count += 1
        expect = h_plus(1.0) * n_up - h_plusplus(1.0) * pair_count
        assert closed_diagonal(s, cfg) == pytest.approx(expect, abs=1e-12)


def test_periodic_vacuum_energy():
    cfg = LatticeConfig(3, 3, P, 1.0)
    h = build_periodic(cfg)
    assert h.matrix[0, 0] == pytest.approx(27 * j_zz(1.0), abs=1e-12)


def test_single_flip_excitation():
    lam = 1.0
    cfg = LatticeConfig(3, 3, P, lam)
    h = build_periodic(cfg)
    vac = h.matrix[0, 0]
    one = h.matrix[1, 1]  # single up at (0,0)
    assert one - vac == pytest.approx(-12 * j_zz(lam), abs=1e-12)
    assert one - vac == pytest.approx(h_plus(lam), abs=1e-12)


def test_adjacent_double_flip_excitation():
    lam = 1.0
    cfg = LatticeConfig(3, 3, P, lam)
    h = build_periodic(cfg)
    s = (1 << cfg.site(0, 0)) | (1 << cfg.site(0, 1))
    delta = h.matrix[s, s] - h.matrix[0, 0]
    assert delta == pytest.approx(-20 * j_zz(lam), abs=1e-12)
    assert delta == pytest.approx(2 * h_plus(lam) - h_plusplus(lam), abs=1e-12)
    assert delta == pytest.approx(45 * SQRT3 / 8 * lam, abs=1e-12)


@pytest.mark.parametrize("nx,ny,bc", [(2, 2, C), (2, 3, C), (2, 2, P), (2, 3, P), (3, 3, P)])
def test_symmetric(nx, ny, bc):
    cfg = LatticeConfig(nx, ny, bc, 0.7)
    h = (build_closed(cfg) if bc is C else build_periodic(cfg)).matrix
    assert abs(h - h.T).max() < 1e-12


def test_flip_invariance_of_c_exhaustive():
    # c is a transition count around a cycle, so complementing the state
    # leaves it unchanged; exhaustive over the full space
    for nx, ny in [(2, 2), (3, 3)]:
        cfg = LatticeConfig(nx, ny, P, 1.0)
        n = cfg.n_plaq
        for s in range(1 << n):
            f = s ^ full_mask(cfg)
            for p in range(n):
                assert c_value(s, cfg.coord(p), cfg) == c_value(f, cfg.coord(p), cfg)


def test_flip_invariance_of_c_vectorized_4x4():
    cfg = LatticeConfig(4, 4, P, 1.0)
    states = np.arange(1 << 16, dtype=np.uint32)
    comp = states ^ np.uint32((1 << 16) - 1)
    for p in range(16):
        chain = [cfg.site(*q) for q in neighbor_chain6(cfg.coord(p), cfg)]

        def cvals(arr):
            bits = [(arr >> np.uint32(q)) & 1 for q in chain]
            tot = np.zeros_like(arr)
            for k in range(6):
                tot += bits[k] & (1 - bits[(k + 1) % 6])
            return tot

        assert np.array_equal(cvals(states), cvals(comp))


def translation_permutation(cfg: LatticeConfig, rx: int, ry: int, quotient: bool) -> np.ndarray:
    """perm[s] = index of T_x^rx T_y^ry |s> in the chosen basis."""
    if quotient:
        states = state_array(cfg, cfg.periodic).tolist()
        return np.array(
            [fold(translate(s, rx, ry, cfg), cfg) for s in states], dtype=np.int64
        )
    return np.array(
        [translate(s, rx, ry, cfg) for s in range(1 << cfg.n_plaq)], dtype=np.int64
    )


def test_translation_commutes_exactly():
    cfg = LatticeConfig(2, 3, P, 1.0)
    h = build_periodic(cfg).matrix.tocsr()
    h.sort_indices()
    for rx, ry in [(1, 0), (0, 1)]:
        perm = translation_permutation(cfg, rx, ry, quotient=True)
        conj = h[perm][:, perm].tocsr()
        conj.sort_indices()
        assert np.array_equal(h.indptr, conj.indptr)
        assert np.array_equal(h.indices, conj.indices)
        assert np.array_equal(h.data, conj.data)


def test_translation_commutes_full_space():
    cfg = LatticeConfig(2, 2, P, 1.0)
    h = build_periodic_full(cfg).matrix.tocsr()
    perm = translation_permutation(cfg, 1, 0, quotient=False)
    conj = h[perm][:, perm].tocsr()
    conj.sort_indices()
    h.sort_indices()
    assert np.array_equal(h.data, conj.data)
    assert np.array_equal(h.indices, conj.indices)


def test_coefficient_scaling_linearity():
    cfg1 = LatticeConfig(2, 2, P, 1.0)
    cfg2 = LatticeConfig(2, 2, P, 2.0)
    h1 = build_periodic(cfg1).to_dense()
    h2 = build_periodic(cfg2).to_dense()
    d1, d2 = np.diag(np.diag(h1)), np.diag(np.diag(h2))
    # diagonal scales with lam, off-diagonal with 1/lam
    assert np.max(np.abs(d2 - 2.0 * d1)) < 1e-12
    assert np.max(np.abs((h2 - d2) - 0.5 * (h1 - d1))) < 1e-12


def test_degenerate_periodic_rejected():
    with pytest.raises(ValueError):
        build_periodic(LatticeConfig(2, 1, P, 1.0))
    with pytest.raises(ValueError):
        build_periodic(LatticeConfig(1, 3, P, 1.0))


def test_quotient_matches_full_flip_even_sector():
    # the quotient Hamiltonian is the flip-even block of the full operator
    cfg = LatticeConfig(2, 2, P, 1.0)
    quot = build_periodic(cfg).to_dense()
    full = build_periodic_full(cfg).to_dense()
    n = cfg.n_plaq
    dim = 1 << (n - 1)
    iso = np.zeros((1 << n, dim))
    for s in state_array(cfg, cfg.periodic).tolist():
        iso[s, s] = 1 / math.sqrt(2)
        iso[s ^ full_mask(cfg), s] = 1 / math.sqrt(2)
    assert np.max(np.abs(iso.T @ full @ iso - quot)) < 1e-12


def test_mtx_export(tmp_path):
    cfg = LatticeConfig(2, 2, P, 1.0)
    path = tmp_path / "h.mtx"
    build_periodic(cfg).export_mtx(str(path))
    text = path.read_text()
    assert "MatrixMarket" in text and "symmetric" in text


# ---------------------------------------------------------------------------
# Array kernels and the assembler against the scalar reference
# ---------------------------------------------------------------------------

def _scalar_c(s: int, sites) -> int:
    """Up->down steps around a cyclic chain of sites, -1 reading down."""
    b = [0 if q < 0 else (s >> q) & 1 for q in sites]
    return sum(b[k] & (1 - b[(k + 1) % len(b)]) for k in range(len(b)))


def _scalar_zz(s: int, bond_list) -> int:
    total = 0
    for p, _, q in bond_list:
        zq = -1 if q < 0 else 2 * ((s >> q) & 1) - 1
        total += (2 * ((s >> p) & 1) - 1) * zq
    return total


@st.composite
def _lattice_chain_state(draw):
    bc = draw(st.sampled_from([P, C]))
    nx, ny = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    cfg = LatticeConfig(nx, ny, bc, 1.0)
    eight = draw(st.booleans()) and (cfg.periodic or ny >= 2)
    i = draw(st.integers(0, nx - 1))
    j = draw(st.integers(0, ny - 1 if cfg.periodic or not eight else ny - 2))
    states = draw(st.lists(st.integers(0, (1 << cfg.n_plaq) - 1), min_size=1, max_size=20))
    return cfg, (i, j), eight, states


@settings(max_examples=200, deadline=None)
@given(_lattice_chain_state())
def test_kernels_match_scalar_reference(case):
    cfg, c, eight, states = case
    arr = np.array(states, dtype=np.int64)
    chain = chain_sites((neighbor_chain8 if eight else neighbor_chain6)(c, cfg), cfg)
    got = flip_exponent(arr, chain)
    assert got.tolist() == [_scalar_c(s, chain) for s in states]
    if not eight:
        assert got.tolist() == [c_value(s, c, cfg) for s in states]
    diag = bond_diagonal(arr, cfg)
    if cfg.periodic:
        assert diag.tolist() == [_scalar_zz(s, bonds(cfg)) for s in states]
    else:
        assert diag.tolist() == [closed_diagonal(s, cfg) for s in states]


def _scalar_assemble(cfg: LatticeConfig, quotient: bool) -> scipy.sparse.csr_matrix:
    """The per-state loop form of the assembler, from the scalar reference."""
    lam, n = cfg.lam, cfg.n_plaq
    bond_list = bonds(cfg)
    dim = 1 << (n - 1) if quotient else 1 << n
    rows, cols, vals = [], [], []
    for s in range(dim):
        if cfg.periodic:
            d = j_zz(lam) * _scalar_zz(s, bond_list)
        else:
            d = closed_diagonal(s, cfg, bond_list)
        if quotient or d != 0.0:
            rows.append(s)
            cols.append(s)
            vals.append(d)
        for p in range(n):
            t = s ^ (1 << p)
            if quotient:
                t = fold(t, cfg)
            rows.append(t)
            cols.append(s)
            vals.append(h_x(lam) * magnetic_coefficient(s, cfg.coord(p), cfg))
    mat = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    mat.sort_indices()
    return mat


@pytest.mark.parametrize("builder,quotient,nx,ny,bc", [
    (build_closed, False, 1, 1, C),
    (build_closed, False, 1, 4, C),
    (build_closed, False, 2, 2, C),
    (build_closed, False, 2, 5, C),
    (build_closed, False, 3, 4, C),
    (build_periodic, True, 2, 2, P),
    (build_periodic, True, 2, 5, P),
    (build_periodic, True, 3, 4, P),
    (build_periodic_full, False, 2, 3, P),
    (build_periodic_full, False, 3, 3, P),
    (build_periodic_full, False, 3, 4, P),
])
def test_assembler_matches_scalar_loop(builder, quotient, nx, ny, bc):
    cfg = LatticeConfig(nx, ny, bc, 0.8)
    got = builder(cfg).matrix
    ref = _scalar_assemble(cfg, quotient)
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data, ref.data)
