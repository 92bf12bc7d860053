"""Spin-model Hamiltonian assembly in the real-space basis.

Closed BC (energies in units of 1/a, lam = a*g^2):

    aH = h_plus * sum P+ - h_pp * sum P+ (P+ + P+ + P+) + h_x * sum (-1/2)^c sigma^x

with outside spins fixed down.  Periodic BC drops the reference constant:

    aH = J * sum sigma^z (sigma^z + sigma^z + sigma^z) + h_x * sum (-1/2)^c sigma^x

built directly on the global-flip quotient basis.  The exponent c counts
up->down transitions around the six-neighbor chain and is invariant under
the global flip, which is what makes the quotient construction consistent.

The flip term is minus the one-plaquette Wilson loop summed over
plaquettes, H_x = -h_x sum_p O_1(p).  The kernels read a state array as
uint8 site bit planes (site_planes), one byte per state and site.  One
kernel, flip_action, gives the (flip mask, amplitude) of O_1 or O_2 from
flip_exponent's c; bond_diagonal does the same for the diagonal.  Each
resolves its chain or bond list once per operator and returns the function
that reads it over a planes array.  Neither amplitude reads a site its flip
changes, so each row reads it at its own state, never at the flipped
column.  A single assembler builds the
closed-full, periodic-quotient and periodic-full bases ASSEMBLE_CHUNK
states at a time (chunked_rows): each chunk's entries are written slot by
slot into contiguous rows, then copied transposed into the CSR row arrays.
The Wilson operators take the same chunk loop, and the momentum blocks the
same kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .lattice import BoundaryCondition, LatticeConfig, bonds, neighbor_chain6, neighbor_chain8, require_nondegenerate
from .spinbasis import basis_dim, fold

if TYPE_CHECKING:
    import scipy.sparse

SQRT3 = math.sqrt(3.0)
# States per chunk of chunked_rows, a power of two like every basis size:
# a chunk's slot buffers (12 bytes per state and slot) stay in cache, and
# at 2^15 states below the (dim,) temporaries of an unchunked build.
ASSEMBLE_CHUNK = 1 << 12


def h_plus(lam: float) -> float:
    """Single flipped-plaquette excitation energy, 27*sqrt(3)/8 * lam."""
    return 27.0 * SQRT3 / 8.0 * lam


def h_plusplus(lam: float) -> float:
    """Adjacent up-pair bond energy, 9*sqrt(3)/8 * lam."""
    return 9.0 * SQRT3 / 8.0 * lam


def h_x(lam: float) -> float:
    """Magnetic (plaquette flip) coupling, 4*sqrt(3)/(9*lam)."""
    return 4.0 * SQRT3 / (9.0 * lam)


def j_zz(lam: float) -> float:
    """Ising bond coupling of the periodic form, -9*sqrt(3)/32 * lam."""
    return -9.0 * SQRT3 / 32.0 * lam


def basis_label(cfg: LatticeConfig, quotient: bool, k: tuple[int, int] | None = None) -> str:
    """The tag shared by every operator and state over one basis: its kind
    (closed-full, periodic-full, periodic-quotient or the momentum sector k
    of the quotient) and the lattice size."""
    if k is not None:
        kind = f"sector{k}"
    elif quotient:
        kind = "periodic-quotient"
    else:
        kind = f"{cfg.bc.value}-full"
    return f"{kind}:{cfg.nx}x{cfg.ny}"


@dataclass
class SparseOperator:
    """Hermitian sparse matrix over the basis states 0 .. dim-1.

    blocks, when given, are sparse (dim, d_i) matrices Q_i whose columns
    together form an orthonormal basis in which H is real and block
    diagonal; observables.diagonalize then solves each block on its own.
    """

    matrix: scipy.sparse.csr_matrix
    label: str
    blocks: list[scipy.sparse.csc_matrix] | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def export_mtx(self, path: str):
        """MatrixMarket coordinate export: symmetric real, or Hermitian
        complex for a complex matrix such as a k != 0 sector block."""
        # imported here: only this export uses it, and it adds to every import of hexgauge
        import scipy.io
        field, symmetry = ("complex", "hermitian") if np.iscomplexobj(self.matrix) else ("real", "symmetric")
        scipy.io.mmwrite(path, self.matrix, field=field, symmetry=symmetry)

    @staticmethod
    def rows_csr(cols: np.ndarray, vals: np.ndarray, n_cols: int | None = None) -> scipy.sparse.csr_matrix:
        """CSR storing vals[s, i] at (s, cols[s, i]): m entries in every row of
        the (dim, m) arrays, wrapped as given, sorted in place; square unless
        n_cols is given.  A caller whose rows repeat a column sums them."""
        # imported here: the first sparse matrix loads it, and it adds over 100 ms to every import of hexgauge
        import scipy.sparse
        dim, m = cols.shape
        mat = scipy.sparse.csr_matrix((vals.ravel(), cols.ravel(), np.arange(0, dim * m + 1, m)), (dim, n_cols or dim))
        mat.sort_indices()
        return mat


def site_planes(states: np.ndarray, cfg: LatticeConfig) -> np.ndarray:
    """(n_plaq, len) uint8 bit planes of a state array: row p holds bit p
    (1 = spin up) of every state, one byte each, as the kernels read it."""
    bit = np.arange(cfg.n_plaq)
    # whole bytes first, so that no temporary outgrows the uint8 planes
    byte = (states >> np.arange(0, cfg.n_plaq, 8, dtype=states.dtype)[:, None]).astype(np.uint8)
    planes = byte[bit >> 3]
    planes >>= (bit & 7).astype(np.uint8)[:, None]
    planes &= 1
    return planes


def flip_exponent(planes: np.ndarray, chain) -> np.ndarray:
    """c for every state of a site_planes array: the number of cyclic chain
    positions K whose site is up while the site at K+1 is down.

    chain lists site indices (6 for a plaquette, 8 for a vertical pair);
    -1 marks a site outside the lattice, which reads as down.
    """
    c = np.zeros(planes.shape[1], dtype=np.uint8)
    for k, q in enumerate(chain):
        if q < 0:
            continue
        nxt = chain[(k + 1) % len(chain)]
        c += planes[q] if nxt < 0 else planes[q] > planes[nxt]
    return c


# -(-1/2)^c, O_1's coefficient; c is at most half the chain length (4)
_O1_COEFF = -((-0.5) ** np.arange(5))
# O_2's factor (1 + 3 z_c z_c') / 4, indexed by z_c != z_c'
_ZZ_FACTOR = (1.0 + 3.0 * np.array([1.0, -1.0])) / 4.0


def flip_action(cfg: LatticeConfig, c: tuple[int, int], eight: bool):
    """(flip mask, amplitude) of O_1 at c (eight=False) or of O_2 on the pair
    c, c+(0,1) (eight=True): the one kernel behind every flip operator.  The
    chain is resolved here, once per operator; amplitude(planes) reads it
    over each site_planes array the operator is built from.

    O_1: -(-1/2)^c times the flip of plaquette c.  O_2: -(-1/2)^c8
    (1 + 3 z_c z_c') / 4 times the flip of both plaquettes, with c8 counted
    around the eight-plaquette chain.  The magnetic term of H is
    H_x = -h_x sum_p O_1(p).  Neither amplitude reads a flipped site, and
    both are invariant under the global flip, so each is the same read at a
    state and at its image under the flip (folded or not).
    """
    # taken first: the chain refuses a plaquette outside the lattice
    chain = neighbor_chain8(c, cfg) if eight else neighbor_chain6(c, cfg)
    i, j = c
    here = cfg.site(i, j)
    if not eight:
        return 1 << here, lambda planes: np.take(_O1_COEFF, flip_exponent(planes, chain))
    above = cfg.site(i, (j + 1) % cfg.ny)

    def amplitude(planes):
        return np.take(_O1_COEFF, flip_exponent(planes, chain)) * np.take(_ZZ_FACTOR, planes[here] ^ planes[above])

    return (1 << here) ^ (1 << above), amplitude


def bond_diagonal(cfg: LatticeConfig):
    """The bond part of the diagonal as a function of a site_planes array,
    the bond list resolved here, once per operator.

    Periodic BC: the integer sum of z_p z_q over all bond keys.  Closed BC:
    h_plus * n_up - h_pp * (up-up bond count).
    """
    pairs = bonds(cfg)

    def diagonal(planes):
        total = np.zeros(planes.shape[1], dtype=np.uint8)
        for p, q in pairs:
            if cfg.periodic:
                total += planes[p] ^ planes[q]
            elif q >= 0:
                total += planes[p] & planes[q]
        if cfg.periodic:
            # each bond reads z_p z_q = 1 - 2 [z_p != z_q]
            return len(pairs) - 2 * total.astype(np.int64)
        return h_plus(cfg.lam) * planes.sum(axis=0, dtype=np.uint8) - h_plusplus(cfg.lam) * total

    return diagonal


def flipped(states: np.ndarray, mask: int, cfg: LatticeConfig, quotient: bool) -> np.ndarray:
    """Basis index of |s ^ mask> for every s; in the quotient that is the
    smaller member of the global-flip pair."""
    t = states ^ mask
    return fold(t, cfg) if quotient else t


def build_closed(cfg: LatticeConfig) -> SparseOperator:
    """Closed-BC Hamiltonian on the full 2^N basis."""
    if cfg.bc is not BoundaryCondition.CLOSED:
        raise ValueError("build_closed requires closed BC")
    return _assemble(cfg, quotient=False)


def build_periodic_full(cfg: LatticeConfig) -> SparseOperator:
    """Periodic Hamiltonian on the full 2^N basis, flip redundancy kept.

    Useful as the target unitary generator for circuit verification, where
    the quotient cannot be taken; the physical spectrum is the flip-even
    half of this operator's spectrum.
    """
    _require_periodic(cfg)
    return _assemble(cfg, quotient=False)


def build_periodic(cfg: LatticeConfig) -> SparseOperator:
    """Periodic Hamiltonian on the 2^(N-1) flip-quotient basis."""
    _require_periodic(cfg)
    return _assemble(cfg, quotient=True)


def build_hamiltonian(cfg: LatticeConfig) -> SparseOperator:
    """The Hamiltonian in the working basis of the configured BC."""
    if cfg.bc is BoundaryCondition.CLOSED:
        return build_closed(cfg)
    return build_periodic(cfg)


def _require_periodic(cfg: LatticeConfig):
    if not cfg.periodic:
        raise ValueError("periodic builder requires periodic BC")
    require_nondegenerate(cfg)


def chunked_rows(cfg: LatticeConfig, quotient: bool, m: int, write) -> scipy.sparse.csr_matrix:
    """rows_csr over the basis states 0 .. dim-1 with m entries per row,
    built ASSEMBLE_CHUNK states at a time: write(states, planes, cols, vals)
    fills one chunk's (m, chunk) slot-major buffers, each slot a contiguous
    row, which are then copied transposed into the (dim, m) row arrays."""
    dim = basis_dim(cfg, quotient)
    size = min(dim, ASSEMBLE_CHUNK)  # both powers of two: every chunk is full
    cols, vals = np.empty((dim, m), dtype=np.int32), np.empty((dim, m))
    chunk_cols, chunk_vals = np.empty((m, size), dtype=np.int32), np.empty((m, size))
    for lo in range(0, dim, size):
        # int32 like the columns: every basis index fits
        states = np.arange(lo, lo + size, dtype=np.int32)
        write(states, site_planes(states, cfg), chunk_cols, chunk_vals)
        cols[lo:lo + size] = chunk_cols.T
        vals[lo:lo + size] = chunk_vals.T
    return SparseOperator.rows_csr(cols, vals)


def _assemble(cfg: LatticeConfig, quotient: bool) -> SparseOperator:
    """H on the flip quotient or on all 2^N states.

    Row s stores the diagonal, zeros included, and for every plaquette p
    the entry at t = flip_p(s), the column the involution flip_p maps onto
    row s: -h_x times O_1(p)'s amplitude, which reads the same at s as at t.
    """
    basis_dim(cfg, quotient)  # refuses a lattice over the cap before its chains are resolved
    diag_scale = j_zz(cfg.lam) if cfg.periodic else 1.0
    flip_scale = -h_x(cfg.lam)
    diagonal = bond_diagonal(cfg)
    flips = [flip_action(cfg, cfg.coord(p), eight=False) for p in range(cfg.n_plaq)]

    def write(states, planes, cols, vals):
        cols[0] = states
        np.multiply(diagonal(planes), diag_scale, out=vals[0])
        for p, (mask, amplitude) in enumerate(flips, 1):
            cols[p] = flipped(states, mask, cfg, quotient)
            np.multiply(amplitude(planes), flip_scale, out=vals[p])

    return SparseOperator(chunked_rows(cfg, quotient, cfg.n_plaq + 1, write), basis_label(cfg, quotient))
