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

from .hamiltonian import SparseOperator, _triplets_csr, basis_label, flip_action, flipped
from .lattice import LatticeConfig
from .spinbasis import fold, state_array

RESIDUAL_TOL = 1e-8
# Bytes a dense solve may take: a quarter of an 8 GB machine.
DENSE_MAX_BYTES = 1 << 31


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
        s = fold(s, cfg)
    dim = 1 << (cfg.n_plaq - cfg.periodic)
    amps = np.zeros(dim, dtype=complex)
    amps[s] = 1.0
    return StateVector(amps, basis_label(cfg, cfg.periodic))


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
    """Eigenvalues (ascending) of a Hermitian operator.

    mode "full": dense diagonalization, allowed while its estimated peak
    memory stays within DENSE_MAX_BYTES.
    mode "lowest": k extremal (smallest-algebraic) eigenpairs, iterative,
    with 1 <= k < dim and a fixed pseudo-random start vector, so repeated
    solves return the same eigenvalues.
    """
    if mode == "full":
        # numpy's eigvalsh peaks near 2.4 dense copies (the matrix and
        # LAPACK's working copy), eigh near 5.6 (eigenvectors and workspace)
        need = op.dim**2 * op.matrix.dtype.itemsize * (6 if vectors else 3)
        if need > DENSE_MAX_BYTES:
            raise ValueError(f"full diagonalization of dimension {op.dim} needs about {need} bytes "
                             f"({need / 2**30:.1f} GiB), over the {DENSE_MAX_BYTES}-byte dense budget; "
                             "use mode='lowest'")
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
            vals, vecs = scipy.sparse.linalg.eigsh(op.matrix, k=k, which="SA", v0=v0)
        except scipy.sparse.linalg.ArpackNoConvergence as err:
            raise RuntimeError(f"eigensolver did not converge: {err}") from err
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        if not vectors:
            vecs = None
    else:
        raise ValueError(f"unknown mode {mode!r}")
    spec = Spectrum(np.asarray(vals, float), vecs, op.label)
    if vecs is not None:
        resid = spec.check_residuals(op)
        scale = max(1.0, float(np.max(np.abs(vals))))
        if resid > RESIDUAL_TOL * scale:
            raise RuntimeError(f"eigen residual {resid:.3e} exceeds tolerance")
    return spec


# ---------------------------------------------------------------------------
# Wilson loops in real space
# ---------------------------------------------------------------------------

def _wilson_operator(cfg: LatticeConfig, c: tuple[int, int], eight: bool) -> scipy.sparse.csr_matrix:
    """amp[s] at row |s ^ mask>, column s, over the working basis."""
    states = state_array(cfg, cfg.periodic)
    mask, amp = flip_action(cfg, states, c, eight)
    rows = flipped(states, mask, cfg, cfg.periodic)
    dim = len(states)
    return _triplets_csr([rows], [states], [amp], (dim, dim))


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
    """exp(-i H t)|psi0> by Krylov propagation to double precision; psi0
    may be one state or a (dim, n) block with one state per column."""
    _, psi = next(trajectory(op, psi0, [t]))
    return psi


def trajectory(op: SparseOperator, psi0: StateVector, times):
    """Yield (t, exp(-i H t)|psi0>), each a Krylov step to double precision
    from the previous time (psi0 at t = 0); times may repeat or run backward.
    psi0 may be a (dim, n) block with one state per column."""
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
