import cmath
import math
import tracemalloc

import numpy as np
import pytest
import scipy.io
import scipy.sparse
from reference import bracket, c_value
from sector_reference import PERIODIC_UP_TO_12, flip_shift, sweep_orbits
from sector_reference import hx_block as ref_hx_block
from sector_reference import wilson_block as ref_wilson_block

from hexgauge import hamiltonian
from hexgauge.hamiltonian import build_periodic, h_x, j_zz
from hexgauge.lattice import BoundaryCondition, LatticeConfig, neighbor_chain6
from hexgauge.lattice import inversion
from hexgauge.momentum import (
    hamiltonian_block,
    hx_block,
    hzz_block,
    inversion_blocks,
    momentum_transform,
    sector_spectra,
    wilson1_block,
    wilson2_block,
)
from hexgauge.observables import diagonalize, wilson1_operator, wilson2_operator
from hexgauge.spinbasis import all_sectors, build_sector, fold, permute, state_array

P = BoundaryCondition.PERIODIC


def self_conjugate(sector):
    """k = -k: both components of k are 0 or pi."""
    return (2 * sector.nx_q) % sector.cfg.nx == 0 and (2 * sector.ny_q) % sector.cfg.ny == 0


def test_hzz_vacuum():
    cfg = LatticeConfig(3, 3, P, 1.0)
    sector = build_sector(cfg, 0, 0)
    hzz = hzz_block(sector).matrix.toarray()
    vac = sector.reps.tolist().index(0)
    assert hzz[vac, vac] == 27
    assert np.count_nonzero(hzz - np.diag(np.diag(hzz))) == 0


def test_hzz_single_up():
    cfg = LatticeConfig(3, 3, P, 1.0)
    for sector in all_sectors(cfg):
        if 1 not in sector.reps:  # the single-up orbit representative
            continue
        row = sector.reps.tolist().index(1)
        hzz = hzz_block(sector).matrix.toarray()
        assert hzz[row, row] == 27 - 12 == 15


def test_hzz_independent_of_k():
    cfg = LatticeConfig(2, 3, P, 1.0)
    sectors = all_sectors(cfg)
    base = {r: hzz_block(sectors[0]).matrix.toarray()[i, i] for i, r in enumerate(sectors[0].reps.tolist())}
    for sector in sectors[1:]:
        hzz = hzz_block(sector).matrix.toarray()
        for i, rep in enumerate(sector.reps.tolist()):
            assert hzz[i, i] == base[rep]


@pytest.mark.parametrize("nx,ny", [(2, 2), (2, 3), (3, 3)])
def test_blocks_hermitian(nx, ny):
    cfg = LatticeConfig(nx, ny, P, 1.0)
    for sector in all_sectors(cfg):
        for block in (hx_block(sector), hamiltonian_block(sector)):
            m = block.matrix.toarray()
            assert np.max(np.abs(m - m.conj().T)) < 1e-12


def test_hx_k0_real():
    for nx, ny in [(2, 2), (3, 3)]:
        cfg = LatticeConfig(nx, ny, P, 1.0)
        m = hx_block(build_sector(cfg, 0, 0)).matrix.toarray()
        assert np.max(np.abs(m.imag)) < 1e-12


@pytest.mark.parametrize("nx,ny", [(2, 2), (2, 3), (3, 3), (3, 4)])
def test_sector_spectra_complete(nx, ny):
    cfg = LatticeConfig(nx, ny, P, 1.0)
    full = np.sort(np.linalg.eigvalsh(build_periodic(cfg).matrix.toarray()))
    parts = np.sort(np.concatenate([vals for _, _, vals in sector_spectra(cfg)]))
    assert parts.shape == full.shape
    assert np.max(np.abs(parts - full)) < 1e-8


@pytest.mark.parametrize("nx,ny", [(3, 3), (3, 4), (2, 4)])
def test_sector_spectra_share_pm_k_pairs(nx, ny):
    # -k keeps k's reps and norms, and the values reported for -k are those
    # of the -k block solved on its own
    cfg = LatticeConfig(nx, ny, P, 1.0)
    sectors = {(s.nx_q, s.ny_q): s for s in all_sectors(cfg)}
    for qx, qy, vals in sector_spectra(cfg):
        sector, partner = sectors[qx, qy], sectors[(-qx) % nx, (-qy) % ny]
        assert np.array_equal(sector.reps, partner.reps)
        assert np.array_equal(sector.norms, partner.norms)
        own = np.linalg.eigvalsh(hamiltonian_block(sector).matrix.toarray())
        assert np.max(np.abs(vals - own)) < 1e-12


def test_hx_vacuum_row_coherent_sum():
    # vacuum -> single-flip at k=0 has magnitude sqrt(N)
    cfg = LatticeConfig(3, 3, P, 1.0)
    sector = build_sector(cfg, 0, 0)
    m = hx_block(sector).matrix.toarray()
    vac, single = sector.reps.tolist().index(0), sector.reps.tolist().index(1)
    assert abs(m[single, vac]) == pytest.approx(math.sqrt(9), abs=1e-12)


def test_momentum_hamiltonian_vs_conjugation():
    # independent check: conjugate the real-space quotient Hamiltonian into
    # each momentum basis and compare blockwise
    cfg = LatticeConfig(2, 3, P, 1.0)
    h = build_periodic(cfg).matrix.toarray()
    for sector in all_sectors(cfg):
        u = momentum_transform(sector)
        ref = u.conj().T @ h @ u
        blk = hamiltonian_block(sector).matrix.toarray()
        assert np.max(np.abs(ref - blk)) < 1e-10


@pytest.mark.parametrize("nx,ny", [(2, 2), (3, 3)])
def test_wilson_blocks_vs_conjugation(nx, ny):
    cfg = LatticeConfig(nx, ny, P, 1.0)
    loops = [(wilson1_operator(cfg, (0, 0)).toarray(), wilson1_block)]
    if ny > 2:
        loops.append((wilson2_operator(cfg, (0, 0)).toarray(), wilson2_block))
    sectors = all_sectors(cfg)
    transforms = [momentum_transform(s) for s in sectors]
    for a, sa in enumerate(sectors):
        for b, sb in enumerate(sectors):
            for op, block in loops:
                ref = transforms[b].conj().T @ op @ transforms[a]
                assert np.max(np.abs(block(sa, sb).toarray() - ref)) < 1e-10
            if ny == 2:
                # the O2 chain wraps onto the pair: refused, as in real space
                with pytest.raises(ValueError, match="wraps onto the pair"):
                    wilson2_block(sa, sb)


def test_wilson1_vacuum_elements():
    cfg = LatticeConfig(3, 3, P, 1.0)
    sector = build_sector(cfg, 0, 0)
    w = wilson1_block(sector, sector)
    vac, single = sector.reps.tolist().index(0), sector.reps.tolist().index(1)
    assert w[vac, vac] == 0
    assert w[single, vac] == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_wilson2_vacuum_element():
    cfg = LatticeConfig(3, 3, P, 1.0)
    sector = build_sector(cfg, 0, 0)
    w = wilson2_block(sector, sector)
    double = (1 << cfg.site(0, 0)) | (1 << cfg.site(0, 1))
    vac, row = sector.reps.tolist().index(0), sector.reps.tolist().index(double)
    assert w[row, vac] == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_wilson2_prefactor_values():
    # aligned pair -> 1, anti-aligned -> -1/2, from the spin prefactor
    assert (1 + 3 * 1 * 1) / 4 == 1.0
    assert (1 + 3 * 1 * -1) / 4 == -0.5


def _lattices_with_o2():
    """Every lattice up to 16 plaquettes whose origin pair has an O2: periodic
    with nx >= 2 and ny >= 3, closed with ny >= 2."""
    for nx in range(1, 9):
        for ny in range(2, 17):
            if nx * ny <= 16:
                if nx >= 2 and ny >= 3:
                    yield LatticeConfig(nx, ny, P, 1.0)
                yield LatticeConfig(nx, ny, BoundaryCondition.CLOSED, 1.0)


def test_wilson2_hermitian_pairing():
    # wherever lattice accepts the pair (ny >= 3 keeps a periodic 8-chain off
    # the loop's own two sites), O2 is real symmetric in real space and every
    # diagonal momentum block of it Hermitian
    for cfg in _lattices_with_o2():
        pairs = [(0, 0)] if cfg.periodic else [(0, 0), (cfg.nx - 1, cfg.ny - 2)]
        for c in pairs:
            o2 = wilson2_operator(cfg, c)
            assert abs(o2 - o2.T).max() < 1e-14, (cfg, c)
        if cfg.periodic:
            for sector in all_sectors(cfg):
                w = wilson2_block(sector, sector)
                assert abs(w - w.conj().T).max() < 1e-14, (cfg, sector.nx_q, sector.ny_q)


@pytest.mark.parametrize("nx", range(2, 9))
def test_wilson2_refused_on_periodic_ny2(nx):
    # with ny = 2 the chain position (i, j+2) wraps onto the loop itself, so
    # the printed O_2 form would not be symmetric (|O2 - O2^T| = 0.75):
    # lattice.neighbor_chain8 refuses the pair, in real space and in the blocks
    cfg = LatticeConfig(nx, 2, P, 1.0)
    sector = build_sector(cfg, 0, 0)
    for make, args in ((wilson2_operator, (cfg, (0, 0))), (wilson2_block, (sector, sector))):
        with pytest.raises(ValueError, match="wraps onto the pair"):
            make(*args)


def test_bracket_equals_counted_form():
    # the six-factor product reduces to (-1/2)^c on every configuration
    cfg = LatticeConfig(3, 3, P, 1.0)
    sites = neighbor_chain6((1, 1), cfg)
    for assignment in range(64):
        s = 0
        for k in range(6):
            if (assignment >> k) & 1:
                s |= 1 << sites[k]
        br = bracket(s, sites)
        assert abs(br.imag) < 1e-12
        assert br.real == pytest.approx((-0.5) ** c_value(s, (1, 1), cfg), abs=1e-12)


def test_phases_match_naive_floats():
    # rational-angle phases agree with naive k.l arithmetic
    cfg = LatticeConfig(3, 3, P, 1.0)
    sector = build_sector(cfg, 1, 2)
    _, to_rep = sweep_orbits(cfg)
    kx = 2 * math.pi * sector.nx_q / cfg.nx
    ky = 2 * math.pi * sector.ny_q / cfg.ny
    m = hx_block(sector).matrix.toarray()
    naive = np.zeros_like(m)
    for col, a in enumerate(sector.reps.tolist()):
        for p in range(cfg.n_plaq):
            hit = flip_shift(sector, to_rep, a ^ (1 << p))
            if hit is None:
                continue
            row, nb, lx, ly = hit
            coeff = (-0.5) ** c_value(a, cfg.coord(p), cfg)
            naive[row, col] += (
                cmath.exp(-1j * (kx * lx + ky * ly)) * coeff * math.sqrt(nb / sector.norms[col])
            )
    assert np.max(np.abs(naive - m)) < 1e-12


@pytest.mark.parametrize("nx,ny,k,k_prime", [
    (3, 4, (0, 0), (0, 0)), (3, 4, (1, 1), (1, 1)), (3, 4, (0, 0), (1, 0)),
    (3, 5, (0, 0), (0, 0)), (3, 5, (1, 2), (2, 1)),
])
def test_flip_blocks_match_scalar_loops_across_chunks(monkeypatch, nx, ny, k, k_prime):
    # 16-representative chunks split each block into 11 to 69 chunks, the
    # last one partial (no dimension here is a multiple of 16); the blocks
    # equal their one-chunk builds exactly and the scalar loops entry for entry
    cfg = LatticeConfig(nx, ny, P, 0.8)
    _, to_rep = sweep_orbits(cfg)
    sa = build_sector(cfg, *k)
    sb = build_sector(cfg, *k_prime, sa.orbits)
    assert sa.dim % 16 and sa.dim <= hamiltonian.ASSEMBLE_CHUNK

    def blocks():
        return hx_block(sa).matrix, wilson1_block(sa, sb), wilson2_block(sa, sb)

    whole = blocks()
    monkeypatch.setattr(hamiltonian, "ASSEMBLE_CHUNK", 16)
    refs = ref_hx_block(sa, to_rep), ref_wilson_block(sa, sb, to_rep, False), ref_wilson_block(sa, sb, to_rep, True)
    for got, one, ref in zip(blocks(), whole, refs):
        assert np.array_equal(got.indptr, one.indptr)
        assert np.array_equal(got.indices, one.indices)
        assert np.array_equal(got.data, one.data) and got.dtype == one.dtype
        assert np.max(np.abs(got.toarray() - ref)) < 1e-13


@pytest.mark.parametrize("nx,ny", PERIODIC_UP_TO_12)
def test_blocks_match_scalar_loops(nx, ny):
    # every sector pair up to 9 plaquettes, the k=0 pair beyond
    cfg = LatticeConfig(nx, ny, P, 1.0)
    _, to_rep = sweep_orbits(cfg)
    sectors = all_sectors(cfg) if cfg.n_plaq <= 9 else [build_sector(cfg, 0, 0)]
    for sa in sectors:
        assert np.max(np.abs(hx_block(sa).matrix.toarray() - ref_hx_block(sa, to_rep))) < 1e-13
        for sb in sectors:
            for eight, block in ((False, wilson1_block), (True, wilson2_block)):
                if eight and ny == 2:
                    # the O2 chain wraps onto the pair, which lattice refuses
                    with pytest.raises(ValueError, match="wraps onto the pair"):
                        block(sa, sb)
                    continue
                ref = ref_wilson_block(sa, sb, to_rep, eight)
                assert np.max(np.abs(block(sa, sb).toarray() - ref)) < 1e-13


@pytest.mark.parametrize("nx,ny", [(3, 3), (3, 4)])
def test_k0_hamiltonian_block_real(nx, ny):
    cfg = LatticeConfig(nx, ny, P, 1.0)
    sector = build_sector(cfg, 0, 0)
    # every phase at k = 0 is 1, so the blocks are stored real
    for block in (hamiltonian_block(sector).matrix, hx_block(sector).matrix,
                  wilson1_block(sector, sector), wilson2_block(sector, sector)):
        assert scipy.sparse.issparse(block) and block.dtype == np.float64
    real = hamiltonian_block(sector).matrix.toarray()
    lam = cfg.lam
    # the scalar reference keeps every phase complex
    full = j_zz(lam) * hzz_block(sector).matrix.toarray() + h_x(lam) * ref_hx_block(sector, sweep_orbits(cfg)[1])
    assert full.dtype == np.complex128
    assert np.max(np.abs(np.linalg.eigvalsh(real) - np.linalg.eigvalsh(full))) < 1e-10


@pytest.mark.parametrize("nx,ny", [(2, 3), (2, 4), (4, 4)])
def test_self_conjugate_blocks_real(nx, ny):
    # at k = -k every phase is +-1 exactly, so the blocks are stored real
    cfg = LatticeConfig(nx, ny, P, 1.0)
    for sector in all_sectors(cfg):
        for block in (hamiltonian_block(sector).matrix, hx_block(sector).matrix,
                      wilson1_block(sector, sector), wilson2_block(sector, sector)):
            assert (block.dtype == np.float64) == self_conjugate(sector)


@pytest.mark.parametrize("nx,ny", [(3, 3), (3, 4)])
def test_lowest_mode_on_complex_blocks(nx, ny):
    # the lowest-eigenpair solve keeps the phases of k != 0 blocks
    cfg = LatticeConfig(nx, ny, P, 1.0)
    for sector in all_sectors(cfg)[1:]:
        block = hamiltonian_block(sector)
        full = diagonalize(block, vectors=False).eigenvalues
        low = diagonalize(block, mode="lowest").eigenvalues
        assert low.shape == (1,) and abs(low[0] - full.min()) < 1e-10
        assert block.label == f"sector({sector.nx_q}, {sector.ny_q}):{nx}x{ny}"


def test_complex_block_mtx_roundtrip(tmp_path):
    # a k != 0 block is complex Hermitian; the export must keep its phases
    block = hamiltonian_block(build_sector(LatticeConfig(3, 3, P, 1.0), 1, 1))
    assert np.iscomplexobj(block.matrix)
    path = tmp_path / "h.mtx"
    block.export_mtx(str(path))
    assert "complex hermitian" in path.read_text().splitlines()[0]
    back, dense = scipy.io.mmread(str(path)).toarray(), block.matrix.toarray()
    # the lower triangle is stored exactly; the upper is its conjugate, and
    # the block is Hermitian to rounding
    assert np.array_equal(np.tril(back), np.tril(dense))
    assert np.max(np.abs(back - dense)) < 1e-14


# Every periodic lattice from 2x2 to 3x5.  On 3x5 (15 complex blocks of
# dim about 1090) only k = 0 and the pair k = +-(1, 1) are solved, so the
# reference eigvalsh calls stay within a few seconds.
INVERSION_LATTICES = [(nx, ny) for nx in (2, 3) for ny in (2, 3, 4, 5)]


@pytest.mark.parametrize("lam", [0.37, 1.0, 2.9])
@pytest.mark.parametrize("nx,ny", INVERSION_LATTICES)
def test_inversion_blocks_solve_every_sector(nx, ny, lam):
    # the block-by-block real solve gives the eigenvalues of the plain
    # dense solve of the momentum block, with orthonormal eigenvectors
    cfg = LatticeConfig(nx, ny, P, lam)
    sectors = all_sectors(cfg)
    if cfg.n_plaq > 12:
        sectors = [s for s in sectors if (s.nx_q, s.ny_q) in {(0, 0), (1, 1), (nx - 1, ny - 1)}]
    for sector in sectors:
        op = hamiltonian_block(sector)
        spec = diagonalize(op, "full")
        ref = np.linalg.eigvalsh(op.matrix.toarray())
        assert np.max(np.abs(spec.eigenvalues - ref)) <= 1e-12 * np.max(np.abs(ref))
        v = spec.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(sector.dim))) < 1e-12
        assert sum(q.shape[1] for q in op.blocks) == sector.dim
        if self_conjugate(sector):
            # two real parity blocks, so the eigenvectors stay float64
            assert len(op.blocks) == 2 and v.dtype == np.float64
        else:
            assert len(op.blocks) == 1


def _real_space_inversion(cfg):
    """P on the quotient basis, x one vector per column: (P x)[fold(permute(s))] = x[s]."""
    image = fold(permute(state_array(cfg, True), inversion(cfg)), cfg)

    def apply(x):
        out = np.zeros_like(x)
        out[image] = x
        return out

    return apply


@pytest.mark.parametrize("nx,ny", [(2, 3), (3, 3), (3, 4), (4, 3), (2, 5)])
def test_inversion_blocks_are_parity_and_real_forms(nx, ny):
    # written out in the quotient basis, the columns are P's even and odd
    # eigenvectors at k = -k, and fixed by A = K P elsewhere
    cfg = LatticeConfig(nx, ny, P, 1.0)
    inv = _real_space_inversion(cfg)
    for sector in all_sectors(cfg):
        u = momentum_transform(sector)
        blocks = inversion_blocks(sector)
        q = np.hstack([b.toarray() for b in blocks])
        assert np.max(np.abs(q.conj().T @ q - np.eye(sector.dim))) < 1e-14
        if self_conjugate(sector):
            for sign, block in zip((1, -1), blocks):
                v = u @ block.toarray()
                assert np.max(np.abs(inv(v) - sign * v), initial=0.0) < 1e-13
        else:
            v = u @ blocks[0].toarray()
            assert np.max(np.abs(inv(v.conj()) - v)) < 1e-13


@pytest.mark.parametrize("nx,ny", [(2, 2), (2, 3)])
def test_inversion_empty_odd_block(nx, ny):
    # every k = 0 state of these lattices is inversion even
    cfg = LatticeConfig(nx, ny, P, 1.0)
    op = hamiltonian_block(build_sector(cfg, 0, 0))
    assert [q.shape[1] for q in op.blocks] == [op.dim, 0]
    spec = diagonalize(op, "full")
    assert spec.eigenvectors.shape == (op.dim, op.dim)
    assert np.allclose(spec.eigenvalues, np.linalg.eigvalsh(op.matrix.toarray()), rtol=0, atol=1e-12)


def test_inversion_splits_3x5_vacuum_block():
    op = hamiltonian_block(build_sector(LatticeConfig(3, 5, P, 1.0), 0, 0))
    assert [q.shape[1] for q in op.blocks] == [612, 484]


def test_inversion_blocks_refuse_a_broken_image(monkeypatch):
    # a site table that is not the inversion maps some representative
    # outside the sector or fails to pair it back
    import hexgauge.momentum as momentum

    cfg = LatticeConfig(3, 3, P, 1.0)
    sector = build_sector(cfg, 1, 0)
    cycle = tuple(range(1, cfg.n_plaq)) + (0,)
    monkeypatch.setattr(momentum, "inversion", lambda c: cycle)
    with pytest.raises(RuntimeError, match="onto itself"):
        inversion_blocks(sector)


def test_blocks_refuse_sectors_of_two_lattices():
    sa = build_sector(LatticeConfig(2, 3, P, 1.0), 0, 0)
    sb = build_sector(LatticeConfig(3, 2, P, 1.0), 0, 0)
    with pytest.raises(ValueError, match="sectors belong to different lattices"):
        wilson1_block(sa, sb)


@pytest.mark.parametrize("nx,ny,k,k_prime", [(4, 4, (0, 0), (0, 0)), (4, 4, (1, 1), (1, 1)), (3, 4, (1, 0), (2, 0))])
def test_sector_blocks_peak_under_eight_patterns(nx, ny, k, k_prime):
    # each block is written one translation at a time into a (dim, n_plaq)
    # row and value pattern, with no (n_plaq, dim) temporaries beside it: the
    # traced peak stays below 8 float arrays of that shape
    cfg = LatticeConfig(nx, ny, P, 1.0)
    sector = build_sector(cfg, *k)
    sector_p = build_sector(cfg, *k_prime, sector.orbits)
    unit = sector.dim * cfg.n_plaq * 8
    for make in (lambda: wilson1_block(sector, sector_p), lambda: wilson2_block(sector, sector_p),
                 lambda: hamiltonian_block(sector)):
        make()  # the cached phase table and first-call imports, untraced
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            make()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 8 * unit, peak / unit
