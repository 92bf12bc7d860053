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
from .lattice import LatticeConfig
from .observables import diagonalize, wilson_action
from .spinbasis import MomentumSector, fold, momentum_numerator, momentum_phase, translate

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


def _roots(den: int) -> np.ndarray:
    """exp(2j*pi*m/den) for m = 0 .. den-1, each from its reduced rational
    angle."""
    return np.array([cmath.exp(2j * cmath.pi * m / den) for m in range(den)])


def _targets(sector: MomentumSector, flipped: np.ndarray):
    """Where each flipped state lands in the sector.

    Returns (row, hit, N_b, (lx, ly)): T^l |flipped> is the representative
    b = reps[row] up to a global flip, and hit is False where b's momentum
    state vanishes in this sector (row and N_b are then meaningless).
    """
    cfg = sector.cfg
    s = fold(flipped, cfg)
    b, g = sector.orbits.rep[s], sector.orbits.shift[s]
    # every sector keeps the single-up orbit (trivial stabilizer): dim >= 1
    row = np.minimum(np.searchsorted(sector.reps, b), sector.dim - 1)
    hit = sector.reps[row] == b
    return row, hit, sector.norms[row], ((-g) % cfg.nx, (-(g // cfg.nx)) % cfg.ny)


def hzz_block(sector: MomentumSector) -> SectorBlock:
    """Diagonal electric block: sum of the three forward bond products."""
    return SectorBlock(sector, np.diag(bond_diagonal(sector.reps, sector.cfg).astype(complex)), "hzz")


def hx_block(sector: MomentumSector) -> SectorBlock:
    """Magnetic block: flip, relocate to the target representative, weight
    by exp(-i k.l) * (-1/2)^c * sqrt(N_b/N_a)."""
    cfg = sector.cfg
    roots = _roots(cfg.n_plaq)
    reps, cols = sector.reps, np.arange(sector.dim)
    mat = np.zeros((sector.dim, sector.dim), dtype=complex)
    for p, chain in enumerate(chain_table(cfg)):
        row, hit, nb, (lx, ly) = _targets(sector, reps ^ (1 << p))
        phase = roots[-momentum_numerator(cfg, sector.nx_q, sector.ny_q, lx, ly) % cfg.n_plaq]
        vals = phase * (-0.5) ** flip_exponent(reps, chain) * np.sqrt(nb / sector.norms)
        np.add.at(mat, (row[hit], cols[hit]), vals[hit])
    return SectorBlock(sector, mat, "hx")


def hamiltonian_block(sector: MomentumSector) -> SectorBlock:
    """J * H_zz + h_x * H_x restricted to the sector; real (float) when every
    phase is real, as at k = 0."""
    lam = sector.cfg.lam
    m = j_zz(lam) * hzz_block(sector).to_dense() + h_x(lam) * hx_block(sector).to_dense()
    if not m.imag.any():
        m = m.real
    return SectorBlock(sector, m, "hamiltonian")


def _bracket(s: int, sites: list[int]) -> complex:
    """Product of (alpha * z_K z_{K+1} + beta) around a cyclic chain."""
    z = [2 * ((s >> q) & 1) - 1 for q in sites]
    n = len(z)
    prod = 1 + 0j
    for k in range(n):
        prod *= ALPHA * z[k] * z[(k + 1) % n] + BETA
    return prod


def wilson1_block(sector: MomentumSector, sector_p: MomentumSector) -> np.ndarray:
    """<b(k')| O_1 |a(k)> for the single-plaquette loop at the origin.

    Implements the double translation sum with the phase
    phi = (k'-k).r - k'.l and the flip coefficient evaluated on the
    untranslated representative at the plaquette (-r_x, -r_y).
    """
    return _wilson_block(sector, sector_p, eight=False)


def wilson2_block(sector: MomentumSector, sector_p: MomentumSector) -> np.ndarray:
    """<b(k')| O_2 |a(k)> for the two-plaquette loop at (0,0),(0,1)."""
    return _wilson_block(sector, sector_p, eight=True)


def _wilson_block(sector: MomentumSector, sector_p: MomentumSector, eight: bool) -> np.ndarray:
    cfg = sector.cfg
    if sector_p.cfg != cfg:
        raise ValueError("sectors belong to different lattices")
    roots = _roots(cfg.n_plaq)
    reps, cols = sector.reps, np.arange(sector.dim)
    mat = np.zeros((sector_p.dim, sector.dim), dtype=complex)
    for ry in range(cfg.ny):
        for rx in range(cfg.nx):
            mask, amp = wilson_action(cfg, reps, ((-rx) % cfg.nx, (-ry) % cfg.ny), eight)
            row, hit, nb, (lx, ly) = _targets(sector_p, reps ^ mask)
            # phi/(2 pi) with common denominator nx*ny
            num = (
                momentum_numerator(cfg, sector_p.nx_q, sector_p.ny_q, rx, ry)
                - momentum_numerator(cfg, sector.nx_q, sector.ny_q, rx, ry)
                - momentum_numerator(cfg, sector_p.nx_q, sector_p.ny_q, lx, ly)
            )
            vals = np.sqrt(nb / sector.norms) / cfg.n_plaq * roots[num % cfg.n_plaq] * amp
            np.add.at(mat, (row[hit], cols[hit]), vals[hit])
    return mat


def momentum_transform(sector: MomentumSector) -> np.ndarray:
    """Columns are the normalized momentum states in the quotient basis.

    U[s, a] is the amplitude of canonical state s in |a(k)>, the sum of
    momentum_phase over the translates of reps[a]; conjugating a real-space
    quotient operator with these matrices reproduces the sector blocks,
    which is the independent cross-check used by the tests.
    """
    cfg = sector.cfg
    cols = np.arange(sector.dim)
    u = np.zeros((1 << (cfg.n_plaq - 1), sector.dim), dtype=complex)
    for ry in range(cfg.ny):
        for rx in range(cfg.nx):
            t = fold(translate(sector.reps, rx, ry, cfg), cfg)
            np.add.at(u, (t, cols), momentum_phase(cfg, sector.nx_q, sector.ny_q, rx, ry))
    return u / np.sqrt(sector.norms)


def sector_spectra(cfg: LatticeConfig) -> list[tuple[int, int, np.ndarray]]:
    """(nx_q, ny_q, ascending eigenvalues) for every momentum sector."""
    from .spinbasis import all_sectors

    out = []
    for sector in all_sectors(cfg):
        vals = diagonalize(hamiltonian_block(sector), vectors=False).eigenvalues
        out.append((sector.nx_q, sector.ny_q, vals))
    return out
