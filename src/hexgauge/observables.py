"""Wilson-loop operators, diagonalization, time evolution, level statistics.

Operators act in the working basis of the configured boundary condition:
the full 2^N basis for closed BC, the flip-quotient basis for periodic.
Every eigen-solve and every exp(-iHt) goes through this module.  Evolution
is a Chebyshev expansion of the sparse H over its Gershgorin interval
(Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)) to double precision, so
norm and energy are conserved to rounding.  Consecutive output times share
one series, whose terms T_k(H) psi are added into all their states, so fine
steps cost about 4 products with H per unit of half-width * t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .hamiltonian import SparseOperator, basis_label, flip_action, flipped
from .lattice import LatticeConfig
from .spinbasis import basis_dim, fold, state_array

RESIDUAL_TOL = 1e-8
# Bytes a dense solve may take: a quarter of an 8 GB machine.
DENSE_MAX_BYTES = 1 << 31
# Largest half * |dt| between consecutive output times, half being the
# half-width of H's Gershgorin interval.  A step that long is a Chebyshev
# series of its own, of a little over half * |dt| products with H (155 at
# 100), so its work grows linearly with the product: at 1e4 about 1e4
# products, 0.25 s on periodic 2x2 (one core).  The largest step a test or
# the benchmark takes is about 700 (periodic 3x3 to t = 50 at once); a step
# of 1e20 would never finish.
MAX_STEP_NORM = 1e4
# Output times share one series while half * |t - t0| stays within
# WINDOW_SPAN, t0 being the time of the state the window starts from, and
# their states within WINDOW_MAX_BYTES; a window always holds one time.  A
# window of span 8 takes 33 products with H, about 4 per unit of half * t,
# where a series per step of half * |dt| = 0.5 takes 13, or 26 per unit.  At
# 2^21 amplitudes (periodic 22 plaquettes) a window is one time.
WINDOW_SPAN = 8.0
WINDOW_MAX_BYTES = 1 << 25
# Chebyshev coefficients below this are dropped from the series.
CHEB_TOL = 1e-18


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
    dim = basis_dim(cfg, cfg.periodic)
    if cfg.periodic:
        s = fold(s, cfg)
    amps = np.zeros(dim, dtype=complex)
    amps[s] = 1.0
    return StateVector(amps, basis_label(cfg, cfg.periodic))


@dataclass
class Spectrum:
    """Ascending eigenvalues, the eigenvectors as columns when kept, and
    residual, the max ||H v - E v|| over those vectors (None without them)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    residual: float | None = None

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def check_residuals(self, op: SparseOperator) -> float:
        """max ||H v - E v|| over retained unit eigenvectors."""
        if self.eigenvectors is None:
            raise ValueError("no eigenvectors retained")
        r = op.matrix @ self.eigenvectors - self.eigenvectors * self.eigenvalues
        return float(np.max(np.linalg.norm(r, axis=0)))


def diagonalize(op: SparseOperator, mode: str = "full", vectors: bool = True) -> Spectrum:
    """Eigenvalues (ascending) of a Hermitian operator.

    mode "full": dense diagonalization, allowed while its estimated peak
    memory stays within DENSE_MAX_BYTES.  An operator with blocks Q_i is
    solved block by block as the real matrices Q_i^H H Q_i, the eigenvalues
    merged in a stable order and the eigenvectors mapped back as Q_i W_i.
    mode "lowest": the lowest eigenpair, iterative, with a fixed
    pseudo-random start vector, so repeated solves return the same one.
    """
    if mode == "full":
        # numpy's eigvalsh peaks near 2.4 dense copies (the matrix and
        # LAPACK's working copy), eigh near 5.6 (eigenvectors and workspace)
        need = op.dim**2 * op.matrix.dtype.itemsize * (6 if vectors else 3)
        if need > DENSE_MAX_BYTES:
            raise ValueError(f"full diagonalization of dimension {op.dim} needs about {need} bytes "
                             f"({need / 2**30:.1f} GiB), over the {DENSE_MAX_BYTES}-byte dense budget; "
                             "use mode='lowest'")
        if op.blocks is not None:
            vals, vecs = _solve_blocks(op, vectors)
        elif vectors:
            vals, vecs = np.linalg.eigh(op.to_dense())
        else:
            vals, vecs = np.linalg.eigvalsh(op.to_dense()), None
    elif mode == "lowest":
        # ARPACK takes k < dim eigenpairs of a real operator, k < dim - 1 of a complex one
        kind, least = ("complex", 3) if np.iscomplexobj(op.matrix) else ("real", 2)
        if op.dim < least:
            raise ValueError(f"mode='lowest' needs dimension >= {least} for a {kind} operator, "
                             f"got dimension {op.dim}; use mode='full'")
        # ARPACK's own start distribution, seeded; a structured vector such
        # as all ones lies in one symmetry sector and hides the others.
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, op.dim)
        try:
            vals, vecs = scipy.sparse.linalg.eigsh(op.matrix, k=1, which="SA", v0=v0)
        except scipy.sparse.linalg.ArpackNoConvergence as err:
            raise RuntimeError(f"eigensolver did not converge: {err}") from err
        if not vectors:
            vecs = None
    else:
        raise ValueError(f"unknown mode {mode!r}")
    spec = Spectrum(np.asarray(vals, float), vecs)
    if vecs is not None:
        spec.residual = spec.check_residuals(op)
        scale = max(1.0, float(np.max(np.abs(vals))))
        if spec.residual > RESIDUAL_TOL * scale:
            raise RuntimeError(f"eigen residual {spec.residual:.3e} exceeds tolerance")
    return spec


def _solve_blocks(op: SparseOperator, vectors: bool):
    """Ascending eigenvalues of op from the real dense blocks Q_i^H H Q_i,
    after checking that no entry of Q^H H Q couples two blocks and none has
    an imaginary part over 1e-12 of its largest entry; with vectors, Q_i W_i
    in the merged order."""
    sizes = [block.shape[1] for block in op.blocks]
    q = scipy.sparse.hstack(op.blocks, format="csc")
    m = (q.conj().T @ op.matrix @ q).tocoo()
    which = np.repeat(np.arange(len(sizes)), sizes)
    leak = np.abs(np.where(which[m.row] != which[m.col], m.data, m.data.imag)).max(initial=0.0)
    if leak > 1e-12 * np.abs(m.data).max(initial=0.0):
        raise RuntimeError(f"operator blocks are not invariant and real: an entry of {leak:.3e} leaks")
    m, edges = m.tocsr().real, np.cumsum([0, *sizes])
    parts = [m[lo:hi, lo:hi].toarray() for lo, hi in zip(edges[:-1], edges[1:])]
    solved = [np.linalg.eigh(part) if vectors else (np.linalg.eigvalsh(part), None) for part in parts]
    vals = np.concatenate([v for v, _ in solved])
    order = np.argsort(vals, kind="stable")
    if not vectors:
        return vals[order], None
    vecs = np.empty((op.dim, len(vals)), dtype=q.dtype, order="F")
    # block i's eigenvectors go to the merged positions of its eigenvalues
    for block, (_, w), cols in zip(op.blocks, solved, np.split(np.argsort(order), edges[1:-1])):
        vecs[:, cols] = block @ w
    return vals[order], vecs


# ---------------------------------------------------------------------------
# Wilson loops in real space
# ---------------------------------------------------------------------------

def _wilson_operator(cfg: LatticeConfig, c: tuple[int, int], eight: bool) -> scipy.sparse.csr_matrix:
    """Row s stores amp[t] at t = |s ^ mask>, the column the flip maps onto s."""
    states = state_array(cfg, cfg.periodic)
    mask, amp = flip_action(cfg, states, c, eight)
    t = flipped(states, mask, cfg, cfg.periodic)
    return SparseOperator.rows_csr(t.astype(np.int32)[:, None], amp[t][:, None])


def wilson1_operator(cfg: LatticeConfig, c: tuple[int, int] = (0, 0)) -> scipy.sparse.csr_matrix:
    """O_1 at c as a sparse matrix over the working basis."""
    return _wilson_operator(cfg, c, eight=False)


def wilson2_operator(cfg: LatticeConfig, c: tuple[int, int] = (0, 0)) -> scipy.sparse.csr_matrix:
    """O_2 on the pair c, c+(0,1) as a sparse matrix over the working basis."""
    return _wilson_operator(cfg, c, eight=True)


def expectation(matrix, psi: StateVector) -> complex:
    v = np.ascontiguousarray(psi.amplitudes)
    return complex(np.vdot(v, _product(matrix, v)))


def _product(h, x: np.ndarray) -> np.ndarray:
    """h @ x for a C-contiguous complex x; a real h acts on x's float view,
    so its values are never copied to complex."""
    if np.iscomplexobj(h):
        return h @ x
    return (h @ x.view(float).reshape(len(x), -1)).view(complex).reshape(x.shape)


# ---------------------------------------------------------------------------
# Time evolution
# ---------------------------------------------------------------------------

def evolve(op: SparseOperator, psi0: StateVector, t: float) -> StateVector:
    """exp(-i H t)|psi0> by a Chebyshev expansion to double precision; psi0
    may be one state or a (dim, n) block with one state per column."""
    _, psi = next(trajectory(op, psi0, [t]))
    return psi


def trajectory(op: SparseOperator, psi0: StateVector, times):
    """Yield (t, exp(-i H t)|psi0>) to double precision, one Chebyshev series
    per window of consecutive times (psi0 at t = 0); times may repeat or run
    backward.  psi0 may be a (dim, n) block with one state per column; the
    states of a window are columns of one array.  H's spectrum is bounded
    once, by its Gershgorin interval [mid - half, mid + half]; a step with
    half * |dt| over MAX_STEP_NORM is refused before the first one runs."""
    times = np.asarray(times, dtype=float)
    step = float(np.abs(np.diff(times, prepend=0.0)).max(initial=0.0))
    h = op.matrix
    # H is Hermitian: its eigenvalues lie in the discs centred on the real
    # diagonal, each of radius its row's off-diagonal sum of |h_ij|
    starts = h.indptr[:-1]
    stored = starts < h.indptr[1:]
    row_abs = np.zeros(op.dim)
    row_abs[stored] = np.add.reduceat(np.abs(h.data), starts[stored])
    diag = h.diagonal().real
    radius = row_abs - np.abs(diag)
    lo, hi = float(np.min(diag - radius)), float(np.max(diag + radius))
    mid, half = (hi + lo) / 2, (hi - lo) / 2
    # NaN fails the comparison and is refused with the rest
    if not step * half <= MAX_STEP_NORM:
        raise ValueError(f"time step {step:.3g} times H's half-width {half:.3g} is over {MAX_STEP_NORM:g}: "
                         "exp(-iHt) would not finish")
    return _steps(h, mid, half, psi0, times)


def _steps(h, mid: float, half: float, psi0: StateVector, times: np.ndarray):
    """The states at `times`, one Chebyshev series per window of them.

    A window starts from the state at t0: psi0 at 0, then the last state of
    the window before.  With A = (H - mid) / half and tau = t - t0,
    exp(-i H tau) = sum_k c_k(tau) T_k(A) with
    c_k(tau) = (2 - delta_k0) (-i sgn tau)^k J_k(half |tau|) exp(-i mid tau).
    The vectors T_k(A) psi come from the three-term recurrence
    T_k+1 = 2 A T_k - T_k-1 and do not depend on tau, so each is added into
    every state of the window at once, a rank-1 update of a (size, W) array."""
    # imported here: at module level jv would add about 40 ms to every import of hexgauge
    from scipy.linalg.blas import zaxpy, zgeru
    from scipy.special import jv

    powers = np.array([1, -1j, -1, 1j])
    amps, t0, start = np.ascontiguousarray(psi0.amplitudes), 0.0, 0
    fits = max(1, WINDOW_MAX_BYTES // amps.nbytes)
    while start < len(times):
        stop = start + 1
        while stop < min(len(times), start + fits) and half * abs(times[stop] - t0) <= WINDOW_SPAN:
            stop += 1
        tau = times[start:stop] - t0
        z = half * np.abs(tau)
        # |J_k(z)| falls monotonically once k > z
        n = int(z.max()) + 20
        while abs(jv(n, z.max())) >= CHEB_TOL:
            n *= 2
        k = np.arange(n)[:, None]
        phase = np.where(tau < 0, powers.conj()[k % 4], powers[k % 4])
        coef = 2 * jv(k, z) * phase * np.exp(-1j * mid * tau)
        coef[0] /= 2
        coef = coef[: np.flatnonzero(np.abs(coef).max(axis=1) >= CHEB_TOL)[-1] + 1]
        # zgeru and zaxpy write into their contiguous arguments and return them
        out = zgeru(1.0, amps.reshape(-1), coef[0], a=np.zeros((amps.size, len(tau)), complex, order="F"),
                    overwrite_a=1)
        prev, cur = None, amps
        for c in coef[1:]:
            # nxt = (2 - delta_k0) A cur - prev, with no state-sized temporaries
            nxt = zaxpy(cur.reshape(-1), _product(h, cur).reshape(-1), a=-mid).reshape(amps.shape)
            nxt *= (1 if prev is None else 2) / half
            if prev is not None:
                nxt -= prev
            prev, cur = cur, nxt
            out = zgeru(1.0, cur.reshape(-1), c, a=out, overwrite_a=1)
        for t, state in zip(times[start:stop], out.T):
            yield float(t), StateVector(state.reshape(amps.shape), psi0.label)
        amps, t0, start = out[:, -1].reshape(amps.shape), times[stop - 1], stop


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
