import cmath
import math

import numpy as np
import pytest
import scipy.sparse
from sector_reference import PERIODIC_UP_TO_12, flip_shift, sweep_orbits
from sector_reference import hx_block as ref_hx_block
from sector_reference import wilson_block as ref_wilson_block

from hexgauge.hamiltonian import build_periodic, c_value, h_x, j_zz, magnetic_coefficient
from hexgauge.lattice import BoundaryCondition, LatticeConfig, neighbor_chain6
from hexgauge.momentum import (
    _bracket,
    hamiltonian_block,
    hx_block,
    hzz_block,
    momentum_transform,
    sector_spectra,
    wilson1_block,
    wilson2_block,
)
from hexgauge.observables import diagonalize, wilson1_operator, wilson2_operator
from hexgauge.spinbasis import all_sectors, build_sector

P = BoundaryCondition.PERIODIC


def test_hzz_vacuum():
    cfg = LatticeConfig(3, 3, P, 1.0)
    sector = build_sector(cfg, 0, 0)
    hzz = hzz_block(sector).to_dense()
    assert hzz[sector.index[0], sector.index[0]] == 27
    assert np.count_nonzero(hzz - np.diag(np.diag(hzz))) == 0


def test_hzz_single_up():
    cfg = LatticeConfig(3, 3, P, 1.0)
    for sector in all_sectors(cfg):
        row = sector.index.get(1)  # single-up orbit representative
        if row is None:
            continue
        hzz = hzz_block(sector).to_dense()
        assert hzz[row, row] == 27 - 12 == 15


def test_hzz_independent_of_k():
    cfg = LatticeConfig(2, 3, P, 1.0)
    sectors = all_sectors(cfg)
    base = {r: hzz_block(sectors[0]).to_dense()[i, i] for r, i in sectors[0].index.items()}
    for sector in sectors[1:]:
        hzz = hzz_block(sector).to_dense()
        for rep, i in sector.index.items():
            assert hzz[i, i] == base[rep]


@pytest.mark.parametrize("nx,ny", [(2, 2), (2, 3), (3, 3)])
def test_blocks_hermitian(nx, ny):
    cfg = LatticeConfig(nx, ny, P, 1.0)
    for sector in all_sectors(cfg):
        for block in (hx_block(sector), hamiltonian_block(sector)):
            m = block.to_dense()
            assert np.max(np.abs(m - m.conj().T)) < 1e-12


def test_hx_k0_real():
    for nx, ny in [(2, 2), (3, 3)]:
        cfg = LatticeConfig(nx, ny, P, 1.0)
        m = hx_block(build_sector(cfg, 0, 0)).to_dense()
        assert np.max(np.abs(m.imag)) < 1e-12


@pytest.mark.parametrize("nx,ny", [(2, 2), (2, 3), (3, 3), (3, 4)])
def test_sector_spectra_complete(nx, ny):
    cfg = LatticeConfig(nx, ny, P, 1.0)
    full = np.sort(np.linalg.eigvalsh(build_periodic(cfg).to_dense()))
    parts = np.sort(np.concatenate([vals for _, _, vals in sector_spectra(cfg)]))
    assert parts.shape == full.shape
    assert np.max(np.abs(parts - full)) < 1e-8


def test_hx_vacuum_row_coherent_sum():
    # vacuum -> single-flip at k=0 has magnitude sqrt(N)
    cfg = LatticeConfig(3, 3, P, 1.0)
    sector = build_sector(cfg, 0, 0)
    m = hx_block(sector).to_dense()
    vac, single = sector.index[0], sector.index[1]
    assert abs(m[single, vac]) == pytest.approx(math.sqrt(9), abs=1e-12)


def test_momentum_hamiltonian_vs_conjugation():
    # independent check: conjugate the real-space quotient Hamiltonian into
    # each momentum basis and compare blockwise
    cfg = LatticeConfig(2, 3, P, 1.0)
    h = build_periodic(cfg).to_dense()
    for sector in all_sectors(cfg):
        u = momentum_transform(sector)
        ref = u.conj().T @ h @ u
        blk = hamiltonian_block(sector).to_dense()
        assert np.max(np.abs(ref - blk)) < 1e-10


@pytest.mark.parametrize("nx,ny", [(2, 2), (3, 3)])
def test_wilson_blocks_vs_conjugation(nx, ny):
    cfg = LatticeConfig(nx, ny, P, 1.0)
    o1 = wilson1_operator(cfg, (0, 0)).toarray()
    o2 = wilson2_operator(cfg, (0, 0)).toarray()
    sectors = all_sectors(cfg)
    transforms = [momentum_transform(s) for s in sectors]
    for a, sa in enumerate(sectors):
        for b, sb in enumerate(sectors):
            ref1 = transforms[b].conj().T @ o1 @ transforms[a]
            ref2 = transforms[b].conj().T @ o2 @ transforms[a]
            assert np.max(np.abs(wilson1_block(sa, sb).toarray() - ref1)) < 1e-10
            assert np.max(np.abs(wilson2_block(sa, sb).toarray() - ref2)) < 1e-10


def test_wilson1_vacuum_elements():
    cfg = LatticeConfig(3, 3, P, 1.0)
    sector = build_sector(cfg, 0, 0)
    w = wilson1_block(sector, sector)
    vac, single = sector.index[0], sector.index[1]
    assert w[vac, vac] == 0
    assert w[single, vac] == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_wilson2_vacuum_element():
    cfg = LatticeConfig(3, 3, P, 1.0)
    sector = build_sector(cfg, 0, 0)
    w = wilson2_block(sector, sector)
    double = (1 << cfg.site(0, 0)) | (1 << cfg.site(0, 1))
    vac = sector.index[0]
    row = sector.index[double]
    assert w[row, vac] == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_wilson2_prefactor_values():
    # aligned pair -> 1, anti-aligned -> -1/2, from the spin prefactor
    assert (1 + 3 * 1 * 1) / 4 == 1.0
    assert (1 + 3 * 1 * -1) / 4 == -0.5


def test_wilson2_hermitian_pairing():
    # needs ny >= 3 so the 8-chain stays off the loop's own two sites
    for nx, ny in [(2, 3), (3, 3)]:
        cfg = LatticeConfig(nx, ny, P, 1.0)
        for sector in all_sectors(cfg):
            w = wilson2_block(sector, sector).toarray()
            assert np.max(np.abs(w - w.conj().T)) < 1e-12


def test_wilson2_not_hermitian_on_2x2():
    # with ny = 2 the chain position (i, j+2) wraps onto the loop itself,
    # so the printed O_2 form stops being symmetric; the conjugation
    # cross-check above still holds, which pins the convention
    cfg = LatticeConfig(2, 2, P, 1.0)
    sector = build_sector(cfg, 0, 0)
    w = wilson2_block(sector, sector).toarray()
    assert np.max(np.abs(w - w.conj().T)) > 0.1


def test_bracket_equals_counted_form():
    # the six-factor product reduces to (-1/2)^c on every configuration
    cfg = LatticeConfig(3, 3, P, 1.0)
    sites = [cfg.site(*q) for q in neighbor_chain6((1, 1), cfg)]
    for assignment in range(64):
        s = 0
        for k in range(6):
            if (assignment >> k) & 1:
                s |= 1 << sites[k]
        br = _bracket(s, sites)
        assert abs(br.imag) < 1e-12
        assert br.real == pytest.approx(magnetic_coefficient(s, (1, 1), cfg), abs=1e-12)


def test_phases_match_naive_floats():
    # rational-angle phases agree with naive k.l arithmetic
    cfg = LatticeConfig(3, 3, P, 1.0)
    sector = build_sector(cfg, 1, 2)
    _, to_rep = sweep_orbits(cfg)
    kx = 2 * math.pi * sector.nx_q / cfg.nx
    ky = 2 * math.pi * sector.ny_q / cfg.ny
    m = hx_block(sector).to_dense()
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


@pytest.mark.parametrize("nx,ny", PERIODIC_UP_TO_12)
def test_blocks_match_scalar_loops(nx, ny):
    # every sector pair up to 9 plaquettes, the k=0 pair beyond
    cfg = LatticeConfig(nx, ny, P, 1.0)
    _, to_rep = sweep_orbits(cfg)
    sectors = all_sectors(cfg) if cfg.n_plaq <= 9 else [build_sector(cfg, 0, 0)]
    for sa in sectors:
        assert np.max(np.abs(hx_block(sa).to_dense() - ref_hx_block(sa, to_rep))) < 1e-13
        for sb in sectors:
            for eight, block in ((False, wilson1_block), (True, wilson2_block)):
                ref = ref_wilson_block(sa, sb, to_rep, eight)
                assert np.max(np.abs(block(sa, sb).toarray() - ref)) < 1e-13


@pytest.mark.parametrize("nx,ny", [(3, 3), (3, 4)])
def test_k0_hamiltonian_block_real(nx, ny):
    cfg = LatticeConfig(nx, ny, P, 1.0)
    sector = build_sector(cfg, 0, 0)
    for block in (hamiltonian_block(sector).matrix, hx_block(sector).matrix,
                  wilson1_block(sector, sector), wilson2_block(sector, sector)):
        assert scipy.sparse.issparse(block)
    real = hamiltonian_block(sector).to_dense()
    assert real.dtype == np.float64
    lam = cfg.lam
    full = j_zz(lam) * hzz_block(sector).to_dense() + h_x(lam) * hx_block(sector).to_dense()
    assert full.dtype == np.complex128
    assert np.max(np.abs(np.linalg.eigvalsh(real) - np.linalg.eigvalsh(full))) < 1e-10


@pytest.mark.parametrize("nx,ny", [(3, 3), (3, 4)])
def test_lowest_mode_on_complex_blocks(nx, ny):
    # the extremal solver keeps the phases of k != 0 blocks
    cfg = LatticeConfig(nx, ny, P, 1.0)
    for sector in all_sectors(cfg)[1:]:
        block = hamiltonian_block(sector)
        full = diagonalize(block, vectors=False).eigenvalues
        low = diagonalize(block, mode="lowest", k=2).eigenvalues
        assert np.max(np.abs(low - full[:2])) < 1e-10
        assert block.label == f"sector({sector.nx_q}, {sector.ny_q}):{nx}x{ny}"
