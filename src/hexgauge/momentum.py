"""Momentum-sector blocks of the Hamiltonian and Wilson-loop operators.

Within a sector, basis vectors are the surviving orbit representatives.
A plaquette flip maps a representative |a> onto a translate of another
representative |b>; the translation offset (l_i, l_j) enters as a phase
exp(-i k.l) and the norm ratio sqrt(N_b/N_a) restores unit normalization.
All phases are assembled from reduced rational angles so they are exact
roots of unity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import bond_diagonal, chain_table, flip_exponent, h_x, j_zz
from .lattice import LatticeConfig, neighbor_chain6, neighbor_chain8
from .spinbasis import MomentumSector, canonicalize

# Bracket factor constants of the Pauli-product magnetic form.
ALPHA = 0.5 - 0.5j / math.sqrt(2.0)
BETA = 0.5 + 0.5j / math.sqrt(2.0)


@dataclass
class SectorBlock:
    """One operator block over a momentum sector's representatives."""

    sector: MomentumSector
    matrix: np.ndarray
    label: str

    @property
    def dim(self) -> int:
        return self.sector.dim

    def to_dense(self) -> np.ndarray:
        return self.matrix


def _zvals(s: int, sites: list[int]) -> list[int]:
    return [2 * ((s >> q) & 1) - 1 for q in sites]


def _phase(num: int, den: int) -> complex:
    """exp(2j*pi*num/den) from the reduced rational angle."""
    return cmath.exp(2j * cmath.pi * (num % den) / den)


def _flip_shift(sector: MomentumSector, flipped: int):
    """Representative b and offset (lx, ly) with T^l |flipped> ~ |b>.

    Returns (row index in sector, N_b, lx, ly) or None when the momentum
    state of b vanishes in this sector.
    """
    cfg = sector.cfg
    sc, _ = canonicalize(flipped, cfg)
    b, rx, ry = sector.orbits.to_rep[sc]
    row = sector.index.get(b)
    if row is None:
        return None
    return row, sector.norms[row], (-rx) % cfg.nx, (-ry) % cfg.ny


def hzz_block(sector: MomentumSector) -> SectorBlock:
    """Diagonal electric block: sum of the three forward bond products."""
    reps = np.array(sector.reps, dtype=np.int64)
    return SectorBlock(sector, np.diag(bond_diagonal(reps, sector.cfg).astype(complex)), "hzz")


def hx_block(sector: MomentumSector) -> SectorBlock:
    """Magnetic block: flip, relocate to the target representative, weight
    by exp(-i k.l) * (-1/2)^c * sqrt(N_b/N_a)."""
    cfg = sector.cfg
    den = cfg.nx * cfg.ny
    reps = np.array(sector.reps, dtype=np.int64)
    mat = np.zeros((sector.dim, sector.dim), dtype=complex)
    for p, chain in enumerate(chain_table(cfg)):
        coeffs = ((-0.5) ** flip_exponent(reps, chain)).tolist()
        for col, (a, coeff) in enumerate(zip(sector.reps, coeffs)):
            hit = _flip_shift(sector, a ^ (1 << p))
            if hit is None:
                continue
            row, nb, lx, ly = hit
            num = -(sector.nx_q * lx * cfg.ny + sector.ny_q * ly * cfg.nx)
            mat[row, col] += _phase(num, den) * coeff * math.sqrt(nb / sector.norms[col])
    return SectorBlock(sector, mat, "hx")


def hamiltonian_block(sector: MomentumSector) -> SectorBlock:
    """J * H_zz + h_x * H_x restricted to the sector."""
    lam = sector.cfg.lam
    m = j_zz(lam) * hzz_block(sector).to_dense() + h_x(lam) * hx_block(sector).to_dense()
    return SectorBlock(sector, m, "hamiltonian")


def _bracket(s: int, sites: list[int]) -> complex:
    """Product of (alpha * z_K z_{K+1} + beta) around a cyclic chain."""
    z = _zvals(s, sites)
    n = len(z)
    prod = 1 + 0j
    for k in range(n):
        prod *= ALPHA * z[k] * z[(k + 1) % n] + BETA
    return prod


def _chain_sites(cfg: LatticeConfig, coord, eight: bool) -> list[int]:
    chain = neighbor_chain8(coord, cfg) if eight else neighbor_chain6(coord, cfg)
    return [cfg.site(*q) for q in chain]


def wilson1_block(sector: MomentumSector, sector_p: MomentumSector) -> np.ndarray:
    """<b(k')| O_1 |a(k)> for the single-plaquette loop at the origin.

    Implements the double translation sum with the phase
    phi = (k'-k).r - k'.l and the six-factor bracket product evaluated on
    the untranslated representative around the plaquette (-r_x, -r_y).
    """
    return _wilson_block(sector, sector_p, eight=False)


def wilson2_block(sector: MomentumSector, sector_p: MomentumSector) -> np.ndarray:
    """<b(k')| O_2 |a(k)> for the two-plaquette loop at (0,0),(0,1)."""
    return _wilson_block(sector, sector_p, eight=True)


def _wilson_block(sector: MomentumSector, sector_p: MomentumSector, eight: bool) -> np.ndarray:
    cfg = sector.cfg
    if sector_p.cfg != cfg:
        raise ValueError("sectors belong to different lattices")
    den = cfg.nx * cfg.ny
    mat = np.zeros((sector_p.dim, sector.dim), dtype=complex)
    pref = -1.0 / den
    for col, a in enumerate(sector.reps):
        na = sector.norms[col]
        for ry in range(cfg.ny):
            for rx in range(cfg.nx):
                px, py = (-rx) % cfg.nx, (-ry) % cfg.ny
                sites = _chain_sites(cfg, (px, py), eight)
                here = cfg.site(px, py)
                if eight:
                    above = cfg.site(px, (py + 1) % cfg.ny)
                    z0, z1 = _zvals(a, [here, above])
                    spin_pref = (1.0 + 3.0 * z0 * z1) / 4.0
                    flipped = a ^ (1 << here) ^ (1 << above)
                else:
                    spin_pref = 1.0
                    flipped = a ^ (1 << here)
                hit = _flip_shift(sector_p, flipped)
                if hit is None:
                    continue
                row, nb, lx, ly = hit
                # phi/(2 pi) with common denominator nx*ny
                num = (
                    rx * (sector_p.nx_q - sector.nx_q) * cfg.ny
                    + ry * (sector_p.ny_q - sector.ny_q) * cfg.nx
                    - sector_p.nx_q * lx * cfg.ny
                    - sector_p.ny_q * ly * cfg.nx
                )
                mat[row, col] += (
                    pref * math.sqrt(nb / na) * _phase(num, den) * spin_pref * _bracket(a, sites)
                )
    return mat


def momentum_transform(sector: MomentumSector) -> np.ndarray:
    """Columns are the normalized momentum states in the quotient basis.

    U[s, a] is the amplitude of canonical state s in |a(k)>; conjugating a
    real-space quotient operator with these matrices reproduces the sector
    blocks, which is the independent cross-check used by the tests.
    """
    cfg = sector.cfg
    u = np.zeros((1 << (cfg.n_plaq - 1), sector.dim), dtype=complex)
    for a, rep in enumerate(sector.reps):
        for s, amp in sector.amplitudes(rep).items():
            u[s, a] = amp / math.sqrt(sector.norms[a])
    return u


def sector_spectra(cfg: LatticeConfig) -> list[tuple[int, int, np.ndarray]]:
    """(nx_q, ny_q, ascending eigenvalues) for every momentum sector."""
    from .spinbasis import all_sectors

    out = []
    for sector in all_sectors(cfg):
        block = hamiltonian_block(sector).to_dense()
        out.append((sector.nx_q, sector.ny_q, np.linalg.eigvalsh(block)))
    return out
