"""Spin-model Hamiltonian assembly in the real-space basis.

Closed BC (energies in units of 1/a, lam = a*g^2):

    aH = h_plus * sum P+ - h_pp * sum P+ (P+ + P+ + P+) + h_x * sum (-1/2)^c sigma^x

with outside spins fixed down.  Periodic BC drops the reference constant:

    aH = J * sum sigma^z (sigma^z + sigma^z + sigma^z) + h_x * sum (-1/2)^c sigma^x

built directly on the global-flip quotient basis.  The exponent c counts
up->down transitions around the six-neighbor chain and is invariant under
the global flip, which is what makes the quotient construction consistent.

One array kernel, flip_exponent, computes c over a whole state array for
any cyclic chain; bond_diagonal does the same for the diagonal.  A single
assembler builds the closed-full, periodic-quotient and periodic-full
bases from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.io
import scipy.sparse

from .lattice import BoundaryCondition, LatticeConfig, bonds, chain_sites, neighbor_chain6
from .spinbasis import fold, state_array

SQRT3 = math.sqrt(3.0)


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
    """Hermitian sparse matrix over the basis states 0 .. dim-1."""

    matrix: scipy.sparse.csr_matrix
    cfg: LatticeConfig
    label: str

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def export_mtx(self, path: str):
        """MatrixMarket coordinate export (symmetric real)."""
        scipy.io.mmwrite(path, scipy.sparse.coo_matrix(self.matrix), field="real", symmetry="symmetric")


def _triplets_csr(rows, cols, vals, shape) -> scipy.sparse.csr_matrix:
    """Canonical CSR from lists of (row, col, value) arrays: duplicates
    summed, column indices sorted."""
    return scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape
    ).tocsr()


@lru_cache(maxsize=None)
def chain_table(cfg: LatticeConfig) -> tuple[tuple[int, ...], ...]:
    """Per-plaquette six-neighbor chain as site indices (-1 = outside)."""
    return tuple(chain_sites(neighbor_chain6(cfg.coord(p), cfg), cfg) for p in range(cfg.n_plaq))


def flip_exponent(states: np.ndarray, chain) -> np.ndarray:
    """c for every state of an int64 array: the number of cyclic chain
    positions K whose site is up while the site at K+1 is down.

    chain lists site indices (6 for a plaquette, 8 for a vertical pair);
    -1 marks a site outside the lattice, which reads as down.
    """
    c = np.zeros(states.shape, dtype=np.int64)
    for k, q in enumerate(chain):
        if q < 0:
            continue
        nxt = chain[(k + 1) % len(chain)]
        up = (states >> q) & 1
        c += up if nxt < 0 else up & ~(states >> nxt)
    return c


def bond_diagonal(states: np.ndarray, cfg: LatticeConfig) -> np.ndarray:
    """Bond part of the diagonal for every state of an int64 array.

    Periodic BC: the integer sum of z_p z_q over all bond keys.  Closed BC:
    closed_diagonal, h_plus * n_up - h_pp * (up-up bond count).
    """
    total = np.zeros(states.shape, dtype=np.int64)
    for p, _, q in bonds(cfg):
        if cfg.periodic:
            total += 1 - 2 * (((states >> p) ^ (states >> q)) & 1)
        elif q >= 0:
            total += (states >> p) & (states >> q) & 1
    if cfg.periodic:
        return total
    return h_plus(cfg.lam) * np.bitwise_count(states) - h_plusplus(cfg.lam) * total


def flipped(states: np.ndarray, mask: int, cfg: LatticeConfig, quotient: bool) -> np.ndarray:
    """Basis index of |s ^ mask> for every s; in the quotient that is the
    smaller member of the global-flip pair."""
    t = states ^ mask
    return fold(t, cfg) if quotient else t


def c_value(s: int, c: tuple[int, int], cfg: LatticeConfig) -> int:
    """Count of chain positions K with neighbor K up and K+1 (mod 6) down.

    Scalar reference for flip_exponent.
    """
    b = [0 if q < 0 else (s >> q) & 1 for q in chain_table(cfg)[cfg.site(*c)]]
    return sum(b[k] & (1 - b[(k + 1) % 6]) for k in range(6))


def magnetic_coefficient(s: int, c: tuple[int, int], cfg: LatticeConfig) -> float:
    """(-1/2)^c, the plaquette-flip matrix element at c on state s."""
    return (-0.5) ** c_value(s, c, cfg)


def _up_pair_count(s: int, bond_list) -> int:
    total = 0
    for p, _, q in bond_list:
        if q >= 0 and (s >> p) & 1 and (s >> q) & 1:
            total += 1
    return total


def closed_diagonal(s: int, cfg: LatticeConfig, bond_list=None) -> float:
    """h_plus * n_up - h_pp * (up-up bond count), the closed-BC diagonal.

    Scalar reference for bond_diagonal.
    """
    if bond_list is None:
        bond_list = bonds(cfg)
    return h_plus(cfg.lam) * s.bit_count() - h_plusplus(cfg.lam) * _up_pair_count(s, bond_list)


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
    _require_nondegenerate(cfg)
    return _assemble(cfg, quotient=False)


def build_periodic(cfg: LatticeConfig) -> SparseOperator:
    """Periodic Hamiltonian on the 2^(N-1) flip-quotient basis."""
    _require_nondegenerate(cfg)
    return _assemble(cfg, quotient=True)


def build_hamiltonian(cfg: LatticeConfig) -> SparseOperator:
    """The Hamiltonian in the working basis of the configured BC."""
    if cfg.bc is BoundaryCondition.CLOSED:
        return build_closed(cfg)
    return build_periodic(cfg)


def _require_nondegenerate(cfg: LatticeConfig):
    if not cfg.periodic:
        raise ValueError("periodic builder requires periodic BC")
    if cfg.nx < 2 or cfg.ny < 2:
        # With nx or ny = 1 a plaquette appears in its own neighbor chain
        # and the flip term stops being a symmetric operator.
        raise ValueError("periodic lattices need nx >= 2 and ny >= 2")


def _assemble(cfg: LatticeConfig, quotient: bool) -> SparseOperator:
    """H on the flip quotient or on all 2^N states.

    Column s holds the diagonal and, for every plaquette p, h_x (-1/2)^c at
    row s ^ (1 << p).  The quotient stores every diagonal entry, zeros
    included; the full bases drop zero diagonals.
    """
    lam = cfg.lam
    states = state_array(cfg, quotient)
    diag = bond_diagonal(states, cfg)
    if cfg.periodic:
        diag = j_zz(lam) * diag
    keep = states if quotient else np.flatnonzero(diag)
    # h_x (-1/2)^c by table lookup; an array power costs more than the kernel
    powers = h_x(lam) * (-0.5) ** np.arange(7)
    rows, cols, vals = [keep], [keep], [diag[keep]]
    for p, chain in enumerate(chain_table(cfg)):
        rows.append(flipped(states, 1 << p, cfg, quotient))
        cols.append(states)
        vals.append(powers[flip_exponent(states, chain)])
    dim = len(states)
    return SparseOperator(_triplets_csr(rows, cols, vals, (dim, dim)), cfg, basis_label(cfg, quotient))
