"""Wilson-loop operators, diagonalization, time evolution, level statistics.

Operators act in the working basis of the configured boundary condition:
the full 2^N basis for closed BC, the flip-quotient basis for periodic.
Every eigen-solve and every exp(-iHt) goes through this module.  Evolution
is Krylov propagation of the sparse H (scipy's expm_multiply) to double
precision, so norm and energy are conserved to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .hamiltonian import SparseOperator, flip_exponent, flipped
from .lattice import LatticeConfig, chain_sites, neighbor_chain6, neighbor_chain8
from .spinbasis import canonicalize, state_array

RESIDUAL_TOL = 1e-8
DENSE_MAX_DIM = 1 << 16


def basis_label(cfg: LatticeConfig) -> str:
    kind = "periodic-quotient" if cfg.periodic else "closed-full"
    return f"{kind}:{cfg.nx}x{cfg.ny}"


@dataclass
class StateVector:
    """Complex amplitudes over a tagged basis."""

    amplitudes: np.ndarray
    label: str

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        return StateVector(self.amplitudes / self.norm(), self.label)

    def overlap(self, other: "StateVector") -> complex:
        self._check(other)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def _check(self, other: "StateVector"):
        if self.label != other.label:
            raise ValueError(f"basis mismatch: {self.label} vs {other.label}")


def basis_state(cfg: LatticeConfig, s: int) -> StateVector:
    """The unit vector for spin word s (canonicalized under periodic BC)."""
    if not 0 <= s < 1 << cfg.n_plaq:
        raise ValueError(f"spin word {s:#x} outside [0, 2^{cfg.n_plaq}) for {cfg.nx}x{cfg.ny}")
    if cfg.periodic:
        s, _ = canonicalize(s, cfg)
    dim = 1 << (cfg.n_plaq - cfg.periodic)
    amps = np.zeros(dim, dtype=complex)
    amps[s] = 1.0
    return StateVector(amps, basis_label(cfg))


@dataclass
class Spectrum:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    label: str

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def check_residuals(self, op: SparseOperator) -> float:
        """max ||H v - E v|| over retained unit eigenvectors."""
        if self.eigenvectors is None:
            raise ValueError("no eigenvectors retained")
        r = op.matrix @ self.eigenvectors - self.eigenvectors * self.eigenvalues
        return float(np.max(np.linalg.norm(r, axis=0)))


def diagonalize(op: SparseOperator, mode: str = "full", k: int = 6, vectors: bool = True) -> Spectrum:
    """Eigenvalues (ascending) of a real symmetric operator.

    mode "full": dense diagonalization, allowed up to dim 2^16.
    mode "lowest": k extremal (smallest-algebraic) eigenpairs, iterative,
    with 1 <= k < dim and a fixed pseudo-random start vector, so repeated
    solves return the same eigenvalues.
    """
    label = getattr(op, "label", "operator")
    if mode == "full":
        if op.dim > DENSE_MAX_DIM:
            raise ValueError(f"dimension {op.dim} too large for full diagonalization")
        if vectors:
            vals, vecs = np.linalg.eigh(op.to_dense())
        else:
            vals, vecs = np.linalg.eigvalsh(op.to_dense()), None
    elif mode == "lowest":
        if not 1 <= k < op.dim:
            raise ValueError(f"k must satisfy 1 <= k < dim = {op.dim}, got {k}")
        # ARPACK's own start distribution, seeded; a structured vector such
        # as all ones lies in one symmetry sector and hides the others.
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, op.dim)
        try:
            vals, vecs = scipy.sparse.linalg.eigsh(op.matrix.astype(float), k=k, which="SA", v0=v0)
        except scipy.sparse.linalg.ArpackNoConvergence as err:
            raise RuntimeError(f"eigensolver did not converge: {err}") from err
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        if not vectors:
            vecs = None
    else:
        raise ValueError(f"unknown mode {mode!r}")
    spec = Spectrum(np.asarray(vals, float), vecs, label)
    if vecs is not None:
        resid = spec.check_residuals(op)
        scale = max(1.0, float(np.max(np.abs(vals))))
        if resid > RESIDUAL_TOL * scale:
            raise RuntimeError(f"eigen residual {resid:.3e} exceeds tolerance")
    return spec


# ---------------------------------------------------------------------------
# Wilson loops in real space
# ---------------------------------------------------------------------------

def _apply(matrix, psi, cfg: LatticeConfig) -> StateVector:
    if not isinstance(psi, StateVector):
        psi = basis_state(cfg, int(psi))
    return StateVector(matrix @ psi.amplitudes, psi.label)


def wilson1_apply(psi, c: tuple[int, int], cfg: LatticeConfig) -> StateVector:
    """O_1 at c applied to a basis state (int) or StateVector."""
    return _apply(wilson1_operator(cfg, c), psi, cfg)


def wilson2_apply(psi, c: tuple[int, int], cfg: LatticeConfig) -> StateVector:
    """O_2 on the pair c, c+(0,1) applied to a basis state or StateVector."""
    return _apply(wilson2_operator(cfg, c), psi, cfg)


def wilson_action(cfg: LatticeConfig, states: np.ndarray, c: tuple[int, int], eight: bool):
    """(flip mask, amplitude per state) of O_1 at c (eight=False) or of O_2
    on the pair c, c+(0,1) (eight=True).

    O_1: -(-1/2)^c times the flip of plaquette c.  O_2: -(-1/2)^c8
    (1 + 3 z_c z_c') / 4 times the flip of both plaquettes, with c8 counted
    around the eight-plaquette chain.
    """
    i, j = c
    here = cfg.site(i, j)
    if not eight:
        chain = chain_sites(neighbor_chain6(c, cfg), cfg)
        return 1 << here, -((-0.5) ** flip_exponent(states, chain))
    chain = chain_sites(neighbor_chain8(c, cfg), cfg)
    above = cfg.site(i, (j + 1) % cfg.ny)
    z0z1 = 1 - 2 * (((states >> here) ^ (states >> above)) & 1)
    amp = -((-0.5) ** flip_exponent(states, chain)) * (1.0 + 3.0 * z0z1) / 4.0
    return (1 << here) ^ (1 << above), amp


def _wilson_operator(cfg: LatticeConfig, c: tuple[int, int], eight: bool) -> scipy.sparse.csr_matrix:
    """amp[s] at row |s ^ mask>, column s, over the working basis."""
    states = state_array(cfg, cfg.periodic)
    mask, amp = wilson_action(cfg, states, c, eight)
    rows = flipped(states, mask, cfg, cfg.periodic)
    dim = len(states)
    return scipy.sparse.coo_matrix((amp, (rows, states)), shape=(dim, dim)).tocsr()


def wilson1_operator(cfg: LatticeConfig, c: tuple[int, int] = (0, 0)) -> scipy.sparse.csr_matrix:
    """O_1 at c as a sparse matrix over the working basis."""
    return _wilson_operator(cfg, c, eight=False)


def wilson2_operator(cfg: LatticeConfig, c: tuple[int, int] = (0, 0)) -> scipy.sparse.csr_matrix:
    """O_2 on the pair c, c+(0,1) as a sparse matrix over the working basis."""
    return _wilson_operator(cfg, c, eight=True)


def expectation(matrix, psi: StateVector) -> complex:
    return complex(np.vdot(psi.amplitudes, matrix @ psi.amplitudes))


# ---------------------------------------------------------------------------
# Time evolution
# ---------------------------------------------------------------------------

def evolve(op: SparseOperator, psi0: StateVector, t: float) -> StateVector:
    """exp(-i H t)|psi0> by Krylov propagation to double precision."""
    _, psi = next(trajectory(op, psi0, [t]))
    return psi


def trajectory(op: SparseOperator, psi0: StateVector, times):
    """Yield (t, exp(-i H t)|psi0>), each a Krylov step to double precision
    from the previous time (psi0 at t = 0); times may repeat or run backward."""
    gen = -1j * op.matrix
    t_prev, amps = 0.0, psi0.amplitudes
    for t in np.asarray(times, dtype=float):
        if t != t_prev:
            amps, t_prev = scipy.sparse.linalg.expm_multiply((t - t_prev) * gen, amps), t
        yield float(t), StateVector(amps, psi0.label)


# ---------------------------------------------------------------------------
# Spectral statistics
# ---------------------------------------------------------------------------

def level_spacing_ratios(eigenvalues: np.ndarray) -> np.ndarray:
    """r_n = min(s_n, s_{n+1}) / max(s_n, s_{n+1}) over consecutive gaps."""
    e = np.sort(np.asarray(eigenvalues, dtype=float))
    gaps = np.diff(e)
    lo = np.minimum(gaps[:-1], gaps[1:])
    hi = np.maximum(gaps[:-1], gaps[1:])
    out = np.zeros_like(lo)
    nz = hi > 0
    out[nz] = lo[nz] / hi[nz]
    return out


def level_spacing_ratios_by_sector(sector_eigenvalues) -> np.ndarray:
    """Concatenate gap ratios computed within each symmetry sector."""
    parts = [level_spacing_ratios(vals) for vals in sector_eigenvalues if len(vals) >= 3]
    if not parts:
        return np.zeros(0)
    return np.concatenate(parts)
