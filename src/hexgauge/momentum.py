"""Momentum-sector blocks of the Hamiltonian and Wilson-loop operators.

Within a sector, basis vectors are the surviving orbit representatives.
A plaquette flip maps a representative |a> onto a translate of another
representative |b>; the translation offset (l_i, l_j) enters as a phase
exp(-i k.l) and the norm ratio sqrt(N_b/N_a) restores unit normalization.
Every phase is read from spinbasis.root_table, so each is an exact root of
unity.  One flip pass fills every off-diagonal block: the Wilson loops at
the origin, and the magnetic block through H_x = -sum_p O_1(p).

The Hamiltonian block carries an inversion-adapted basis (inversion_blocks):
two real parity blocks at k = -k, one basis in which H is real elsewhere,
so every dense solve of a sector is a real one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .hamiltonian import SparseOperator, basis_label, bond_diagonal, chunked_rows, flip_action, h_x, j_zz, site_planes
from .lattice import LatticeConfig, inversion, translation
from .observables import diagonalize
from .spinbasis import MomentumSector, all_sectors, fold, momentum_numerator, momentum_phase, permute, root_table

if TYPE_CHECKING:
    import scipy.sparse


def _targets(sector: MomentumSector, flipped: np.ndarray):
    """Where each flipped state lands in the sector: (row, hit, N_b, g), the
    state being the translate T^g (g = rx + nx*ry) of b = reps[row] up to a
    global flip, and hit False where b's momentum state vanishes in this
    sector (row and N_b are then meaningless)."""
    s = fold(flipped, sector.cfg)
    b = sector.orbits.rep[s]
    # every sector keeps the single-up orbit (trivial stabilizer): dim >= 1
    row = np.minimum(np.searchsorted(sector.reps, b), sector.dim - 1)
    return row, sector.reps[row] == b, sector.norms[row], sector.orbits.shift[s]


def _operator(sector: MomentumSector, matrix, blocks=None) -> SparseOperator:
    return SparseOperator(matrix, basis_label(sector.cfg, True, (sector.nx_q, sector.ny_q)), blocks)


def hzz_block(sector: MomentumSector) -> SparseOperator:
    """Diagonal electric block: sum of the three forward bond products."""
    cols = np.arange(sector.dim, dtype=np.int32)[:, None]
    diag = bond_diagonal(sector.cfg)(site_planes(sector.reps, sector.cfg)).astype(float)[:, None]
    return _operator(sector, SparseOperator.rows_csr(cols, diag))


def hx_block(sector: MomentumSector) -> SparseOperator:
    """Magnetic block, H_x = -sum_p O_1(p): the translation sum of the
    (k, k) O_1 block with overall sign -1 in place of 1/(nx*ny)."""
    return _operator(sector, _flip_block(sector, sector, eight=False, denom=-1))


def hamiltonian_block(sector: MomentumSector) -> SparseOperator:
    """J * H_zz + h_x * H_x restricted to the sector; real (float64) where
    H_x is, as at every k = -k (k components 0 or pi).  Its blocks are the
    sector's inversion_blocks."""
    lam = sector.cfg.lam
    matrix = j_zz(lam) * hzz_block(sector).matrix + h_x(lam) * hx_block(sector).matrix
    return _operator(sector, matrix, inversion_blocks(sector))


def inversion_blocks(sector: MomentumSector) -> list[scipy.sparse.csc_matrix]:
    """Orthonormal column blocks over the sector in which H is real.

    Inversion P maps |a(k)> to exp(ik.l)|b(-k)>, b the representative of
    a's image and T^l that image's offset from it, so A = K P (K complex
    conjugation) keeps k and maps |a(k)> to s_a |b(k)>, s_a = exp(-ik.l).
    A commutes with H and A^2 = 1 (so s_b = s_a), and H is real on A's
    fixed vectors: w_a|a> with w_a^2 = s_a where b = a, and for a < b the
    pair (|a> + s_a|b>)/sqrt2 in column a, i(|a> - s_a|b>)/sqrt2 in column
    b.  At k = -k, s_a = +-1 is P's own phase: the same columns without the
    i and w are P's real eigenvectors, split into an even and an odd block
    (the odd one may be empty).
    """
    cfg, n, dim = sector.cfg, sector.cfg.n_plaq, sector.dim
    b, hit, _, g = _targets(sector, permute(sector.reps, inversion(cfg)))
    a = np.arange(dim)
    m = -momentum_numerator(cfg, sector.nx_q, sector.ny_q, (-g) % cfg.nx, (-(g // cfg.nx)) % cfg.ny)
    s = root_table(n)[m % n]
    if not (hit.all() and np.array_equal(b[b], a) and np.array_equal(s[b], s)):
        raise RuntimeError(f"inversion does not map sector ({sector.nx_q}, {sector.ny_q}) onto itself")
    real = (2 * sector.nx_q) % cfg.nx == 0 and (2 * sector.ny_q) % cfg.ny == 0  # k = -k
    s, w, u = (s.real, 1.0, 1.0) if real else (s, root_table(2 * n)[m % (2 * n)], 1j)
    r = np.sqrt(0.5)
    lo, hi = a < b, a > b
    ca = np.where(lo, r, np.where(hi, -u * r * s, w))
    cb = np.where(lo, r * s, np.where(hi, u * r, 0.0))
    # column a of Q stores ca at row a and cb at row b: row a of Q^T, where b = a the two sum
    qt = SparseOperator.rows_csr(np.column_stack([a, b]), np.column_stack([ca, cb]))
    qt.sum_duplicates()
    q = qt.T
    if not real:
        return [q]
    even = lo | ((a == b) & (s > 0))
    return [q[:, even], q[:, ~even]]


def wilson1_block(sector: MomentumSector, sector_p: MomentumSector) -> scipy.sparse.csr_matrix:
    """<b(k')| O_1 |a(k)> for the single-plaquette loop at the origin.

    Implements the double translation sum with the phase
    phi = (k'-k).r - k'.l and the flip coefficient evaluated on the
    untranslated representative at the plaquette (-r_x, -r_y).
    """
    return _flip_block(sector, sector_p, eight=False, denom=sector.cfg.n_plaq)


def wilson2_block(sector: MomentumSector, sector_p: MomentumSector) -> scipy.sparse.csr_matrix:
    """<b(k')| O_2 |a(k)> for the two-plaquette loop at (0,0),(0,1)."""
    return _flip_block(sector, sector_p, eight=True, denom=sector.cfg.n_plaq)


def _flip_block(sector: MomentumSector, sector_p: MomentumSector, eight: bool, denom: int) -> scipy.sparse.csr_matrix:
    """The one flip pass of the sector blocks, through chunked_rows: entry
    (a, r) of a (dim, n_plaq) pattern is flip_action at plaquette -r on
    reps[a], moved to sector_p's representative b with phase exp(i phi) and
    weight sqrt(N_b/N_a)/denom, or 0 where b vanishes in sector_p.  Row a of
    the pattern is column a of the block, stored real (float64) when every
    phase is real, which is where k = -k and k' = -k'."""
    cfg, n = sector.cfg, sector.cfg.n_plaq
    if sector_p.cfg != cfg:
        raise ValueError("sectors belong to different lattices")
    g = np.arange(n)
    nk, nkp = (momentum_numerator(cfg, s.nx_q, s.ny_q, g % cfg.nx, g // cfg.nx) for s in (sector, sector_p))
    # phi = (k'-k).r - k'.l over 2 pi, l = -g undoing b's shift: row r, column g
    phases = root_table(n)[((nkp - nk)[:, None] + nkp) % n]
    if not phases.imag.any():
        phases = phases.real
    flips = [flip_action(cfg, ((-r) % cfg.nx, (-(r // cfg.nx)) % cfg.ny), eight) for r in range(n)]

    def write(lo, reps, planes, cols, vals):
        norms = sector.norms[lo:lo + len(reps)]
        for r, (mask, amplitude) in enumerate(flips):
            cols[r], hit, nb, shift = _targets(sector_p, reps ^ mask)
            vals[r] = np.where(hit, np.sqrt(nb / norms) / denom * phases[r, shift] * amplitude(planes), 0.0)

    # two translations may land on one representative: sum them, drop the zeros, then transpose
    pattern = chunked_rows(cfg, sector.reps, n, write, sector_p.dim, phases.dtype)
    pattern.sum_duplicates()
    pattern.eliminate_zeros()
    return pattern.T.tocsr()


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
            t = fold(permute(sector.reps, translation(cfg, rx, ry)), cfg)
            np.add.at(u, (t, cols), momentum_phase(cfg, sector.nx_q, sector.ny_q, rx, ry))
    return u / np.sqrt(sector.norms)


def sector_spectra(cfg: LatticeConfig) -> list[tuple[int, int, np.ndarray]]:
    """(nx_q, ny_q, ascending eigenvalues) for every momentum sector.

    H is real and every translation a real permutation, so sectors k and -k
    keep the same representatives and norms and the -k block is the complex
    conjugate of the k block: one dense solve serves both, and the -k entry
    shares the k entry's eigenvalue array.
    """
    solved = {}
    out = []
    for sector in all_sectors(cfg):
        k = (sector.nx_q, sector.ny_q)
        vals = solved.get(((-k[0]) % cfg.nx, (-k[1]) % cfg.ny))
        if vals is None:
            vals = solved[k] = diagonalize(hamiltonian_block(sector), vectors=False).eigenvalues
        out.append((*k, vals))
    return out
