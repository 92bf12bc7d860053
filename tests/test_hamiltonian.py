import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import c_value, closed_diagonal
from sector_reference import translate_scalar

from hexgauge import hamiltonian
from hexgauge.hamiltonian import (
    bond_diagonal,
    build_closed,
    build_hamiltonian,
    build_periodic,
    build_periodic_full,
    flip_action,
    flip_exponent,
    flipped,
    h_plus,
    h_plusplus,
    h_x,
    j_zz,
    site_planes,
)
from hexgauge.lattice import (
    BoundaryCondition,
    LatticeConfig,
    bonds,
    neighbor_chain6,
    neighbor_chain8,
    translation,
)
from hexgauge.observables import wilson1_operator, wilson2_operator
from hexgauge.oracle import ks_hamiltonian
from hexgauge.spinbasis import fold, full_mask, permute, state_array

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
        s = 1 << q
        assert c_value(s, (1, 1), cfg) == 1


def test_c_value_alternating_chain():
    cfg = LatticeConfig(3, 3, P, 1.0)
    chain = neighbor_chain6((1, 1), cfg)
    s = 0
    for k in (0, 2, 4):
        s |= 1 << chain[k]
    assert c_value(s, (1, 1), cfg) == 3


def test_magnetic_coefficient_values():
    cfg = LatticeConfig(3, 3, P, 1.0)
    chain = neighbor_chain6((1, 1), cfg)
    assert (-0.5) ** c_value(0, (1, 1), cfg) == 1.0
    s1 = 1 << chain[0]
    assert (-0.5) ** c_value(s1, (1, 1), cfg) == -0.5
    s2 = s1 | (1 << chain[2])
    assert (-0.5) ** c_value(s2, (1, 1), cfg) == 0.25


def test_1x1_closed_matrix():
    lam = 1.0
    cfg = LatticeConfig(1, 1, C, lam)
    h = build_closed(cfg).matrix.toarray()
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
        chain = neighbor_chain6(cfg.coord(p), cfg)

        def cvals(arr):
            bits = [(arr >> np.uint32(q)) & 1 for q in chain]
            tot = np.zeros_like(arr)
            for k in range(6):
                tot += bits[k] & (1 - bits[(k + 1) % 6])
            return tot

        assert np.array_equal(cvals(states), cvals(comp))


def translation_permutation(cfg: LatticeConfig, rx: int, ry: int, quotient: bool) -> np.ndarray:
    """perm[s] = index of T_x^rx T_y^ry |s> in the chosen basis."""
    states = state_array(cfg, quotient)
    moved = permute(states, translation(cfg, rx, ry))
    assert moved.tolist() == [translate_scalar(s, rx, ry, cfg) for s in states.tolist()]
    return fold(moved, cfg) if quotient else moved


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
    h1 = build_periodic(cfg1).matrix.toarray()
    h2 = build_periodic(cfg2).matrix.toarray()
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
    quot = build_periodic(cfg).matrix.toarray()
    full = build_periodic_full(cfg).matrix.toarray()
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
    for p, q in bond_list:
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
    if cfg.periodic and (cfg.nx < 2 or cfg.ny < 2):
        # a degenerate torus has no spin model: the chain and bond readers refuse it
        for kernel in (lambda: (neighbor_chain8 if eight else neighbor_chain6)(c, cfg),
                       lambda: bond_diagonal(cfg)(site_planes(arr, cfg))):
            with pytest.raises(ValueError, match="periodic lattices need nx >= 2 and ny >= 2"):
                kernel()
        return
    if eight and cfg.periodic and (cfg.nx < 2 or cfg.ny < 3):
        # the eight-plaquette chain wraps onto the pair, which has no O2
        with pytest.raises(ValueError, match="wraps onto the pair"):
            neighbor_chain8(c, cfg)
        eight = False
    chain = (neighbor_chain8 if eight else neighbor_chain6)(c, cfg)
    got = flip_exponent(site_planes(arr, cfg), chain)
    assert got.tolist() == [_scalar_c(s, chain) for s in states]
    if not eight:
        assert got.tolist() == [c_value(s, c, cfg) for s in states]
    diag = bond_diagonal(cfg)(site_planes(arr, cfg))
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
        rows.append(s)
        cols.append(s)
        vals.append(d)
        for p in range(n):
            t = s ^ (1 << p)
            if quotient:
                t = fold(t, cfg)
            rows.append(t)
            cols.append(s)
            vals.append(h_x(lam) * (-0.5) ** c_value(s, cfg.coord(p), cfg))
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


@pytest.mark.parametrize("builder,quotient,nx,ny,bc", [
    (build_closed, False, 2, 5, C),
    (build_periodic, True, 3, 4, P),
    (build_periodic_full, False, 3, 3, P),
])
def test_assembler_matches_scalar_loop_across_chunks(monkeypatch, builder, quotient, nx, ny, bc):
    # 16-state chunks split these bases into 32 to 128 chunks, each written
    # slot-major and copied transposed into its rows
    monkeypatch.setattr(hamiltonian, "ASSEMBLE_CHUNK", 16)
    cfg = LatticeConfig(nx, ny, bc, 0.8)
    got = builder(cfg).matrix
    ref = _scalar_assemble(cfg, quotient)
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data, ref.data)


@pytest.mark.parametrize("nx,ny,bc,quotient", [
    (2, 3, C, False),
    (3, 3, C, False),
    (3, 3, P, True),
    (3, 3, P, False),
    (3, 4, P, True),
    (3, 4, P, False),
])
def test_flip_amplitudes_read_the_same_at_the_flipped_state(nx, ny, bc, quotient):
    # neither O1's nor O2's amplitude reads a site it flips, and both are
    # invariant under the global flip: each row reads its amplitude at its
    # own state s, not at the column t = flipped(s)
    cfg = LatticeConfig(nx, ny, bc, 1.0)
    states = state_array(cfg, quotient)
    planes = site_planes(states, cfg)
    pairs = 0
    for p in range(cfg.n_plaq):
        c = cfg.coord(p)
        kinds = [False]
        try:
            neighbor_chain8(c, cfg)
            kinds.append(True)
            pairs += 1
        except ValueError:
            pass
        for eight in kinds:
            mask, amplitude = flip_action(cfg, c, eight)
            amp = amplitude(planes)
            t = flipped(states, mask, cfg, quotient)
            assert np.array_equal(amp, amp[t]), (c, eight)
    assert pairs == (cfg.n_plaq if cfg.periodic else cfg.nx * (cfg.ny - 1))


def test_build_peak_near_the_csr():
    # the build writes its row arrays in place, ASSEMBLE_CHUNK states at a
    # time, with no (dim,) temporaries per plaquette beside them: the traced
    # peak stays within 15% of the CSR it returns (closed 3x6, 2^18 states)
    cfg = LatticeConfig(3, 6, C, 1.0)
    build_hamiltonian(LatticeConfig(2, 2, C, 1.0))  # first-call imports, untraced
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mat = build_hamiltonian(cfg).matrix
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    csr = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    assert peak < 1.15 * csr, peak / csr


@pytest.mark.parametrize("builder,nx,ny,bc", [
    (build_closed, 1, 1, C),
    (build_closed, 2, 3, C),
    (build_closed, 3, 4, C),
    (build_periodic, 2, 2, P),
    (build_periodic, 3, 4, P),
    (build_periodic_full, 2, 3, P),
    (build_periodic_full, 3, 3, P),
])
def test_every_row_stores_n_plus_one(builder, nx, ny, bc):
    # the diagonal, zeros included, and one flip entry per plaquette
    cfg = LatticeConfig(nx, ny, bc, 1.0)
    counts = np.diff(builder(cfg).matrix.indptr)
    assert np.all(counts == cfg.n_plaq + 1)


def test_fixed_pattern_builders_need_no_coo(monkeypatch):
    # every row has a fixed entry count, so nothing goes through COO triplets
    def refuse(*args, **kwargs):
        raise AssertionError("COO assembly")

    monkeypatch.setattr(scipy.sparse, "coo_matrix", refuse)
    for builder, bc in [(build_closed, C), (build_periodic, P), (build_periodic_full, P)]:
        cfg = LatticeConfig(2, 3, bc, 1.0)
        op = builder(cfg)
        assert op.matrix.nnz == op.dim * 7
        assert wilson1_operator(cfg).nnz == wilson2_operator(cfg).nnz == 1 << (6 - cfg.periodic)
        assert ks_hamiltonian(cfg).matrix.nnz == 7 << (6 - cfg.periodic)


def test_builders_refuse_the_other_bc():
    with pytest.raises(ValueError, match="build_closed requires closed BC"):
        build_closed(LatticeConfig(2, 2, P, 1.0))
    for build in (build_periodic, build_periodic_full):
        with pytest.raises(ValueError, match="periodic builder requires periodic BC"):
            build(LatticeConfig(2, 2, C, 1.0))
