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
from typing import TYPE_CHECKING

import numpy as np

from .hamiltonian import SparseOperator, basis_label, chunked_rows, flip_action, flipped
from .lattice import LatticeConfig
from .spinbasis import basis_dim, fold

if TYPE_CHECKING:
    import scipy.sparse

RESIDUAL_TOL = 1e-8
# Lanczos cycles the lowest-eigenpair solve may take before it gives up; no
# solve measured took over 5 (couplings 1e-3 to 1e5 up to 16 plaquettes, 0.25
# to 4 at 20 and 22).
LOWEST_MAX_CYCLES = 100
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
        """max ||H v - E v|| over retained unit eigenvectors, taken 128 at a
        time so that no temporary is (dim, dim)."""
        v, e = self.eigenvectors, self.eigenvalues
        if v is None:
            raise ValueError("no eigenvectors retained")
        return max(float(np.max(np.linalg.norm(op.matrix @ v[:, i:i + 128] - v[:, i:i + 128] * e[i:i + 128], axis=0)))
                   for i in range(0, v.shape[1], 128))


def require_budget(need: int, what: str):
    """Refuse `what` before it is built when it needs over DENSE_MAX_BYTES."""
    if need > DENSE_MAX_BYTES:
        raise ValueError(f"{what} needs about {need} bytes ({need / 2**30:.1f} GiB), "
                         f"over the {DENSE_MAX_BYTES}-byte dense budget")


def dense_solve_bytes(size: int, itemsize: int, vectors: bool) -> int:
    """The price of one dense solve of a (size, size) block: numpy's eigvalsh
    peaks near 2.4 dense copies of it (the matrix and LAPACK's working copy),
    eigh near 5.6 (eigenvectors and workspace)."""
    return size**2 * itemsize * (6 if vectors else 3)


def diagonalize(op: SparseOperator, mode: str = "full", vectors: bool = True) -> Spectrum:
    """Eigenvalues (ascending) of a Hermitian operator.

    mode "full": dense diagonalization, allowed while its estimated peak
    memory stays within DENSE_MAX_BYTES, one block at a time: the real
    matrices Q_i^H H Q_i of an operator with blocks Q_i, else H itself.
    mode "lowest": the lowest eigenpair, iterative, with a fixed
    pseudo-random start vector, so repeated solves return the same one.
    """
    if mode == "full":
        # the largest block sets the price, and with vectors the (dim, dim)
        # eigenvectors in Q's dtype (H's without blocks) are kept
        blocks = op.blocks or [op.matrix]
        size = max(block.shape[1] for block in blocks)
        require_budget(dense_solve_bytes(size, 8 if op.blocks else op.matrix.dtype.itemsize, vectors)
                       + vectors * op.dim**2 * blocks[0].dtype.itemsize,
                       f"full diagonalization of {'a block of ' * bool(op.blocks)}dimension {size}")
        vals, vecs = _solve_blocks(op, vectors)
    elif mode == "lowest":
        if op.dim == 0:
            raise ValueError("mode='lowest' needs an operator of dimension >= 1, got dimension 0")
        # a seeded uniform start; a structured vector such as all ones lies
        # in one symmetry sector and hides the others.
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, op.dim)
        val, vec = _lowest_pair(op.matrix, v0)
        vals, vecs = np.array([val]), vec[:, None] if vectors else None
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
    """Ascending eigenvalues of op, each block densified only for its own
    solve, and with vectors the eigenvectors in the merged order.  Without
    blocks op is one block of itself; blocks Q_i give the real Q_i^H H Q_i,
    after checking that no entry of Q^H H Q couples two blocks and none has
    an imaginary part over 1e-12 of its largest entry, and vectors Q_i W_i."""
    m, sizes = op.matrix, [block.shape[1] for block in op.blocks or [op.matrix]]
    if op.blocks is not None:
        # imported here: it adds over 100 ms to every import of hexgauge, and the blocks loaded it when they were built
        import scipy.sparse
        q = scipy.sparse.hstack(op.blocks, format="csc")
        m = (q.conj().T @ m @ q).tocoo()
        which = np.repeat(np.arange(len(sizes)), sizes)
        leak = np.abs(np.where(which[m.row] != which[m.col], m.data, m.data.imag)).max(initial=0.0)
        if leak > 1e-12 * np.abs(m.data).max(initial=0.0):
            raise RuntimeError(f"operator blocks are not invariant and real: an entry of {leak:.3e} leaks")
        m = m.tocsr().real
    edges = np.cumsum([0, *sizes])
    solve = np.linalg.eigh if vectors else lambda part: (np.linalg.eigvalsh(part), None)
    solved = [solve(m[lo:hi, lo:hi].toarray()) for lo, hi in zip(edges[:-1], edges[1:])]
    vals = np.concatenate([v for v, _ in solved])
    order = np.argsort(vals, kind="stable")
    if not vectors or op.blocks is None:
        # one block's eigenvectors are already in order
        return vals[order], solved[0][1]
    vecs = np.empty((op.dim, len(vals)), dtype=q.dtype, order="F")
    # block i's eigenvectors go to the merged positions of its eigenvalues
    for block, (_, w), cols in zip(op.blocks, solved, np.split(np.argsort(order), edges[1:-1])):
        vecs[:, cols] = block @ w
    return vals[order], vecs


def _lowest_pair(h, v0: np.ndarray):
    """(theta, x): the lowest eigenvalue of Hermitian h and its unit vector.

    Lanczos cycles of CYCLE steps from v0, each restarted from the last
    cycle's normalized Ritz vector.  The three-term recurrence runs without
    reorthogonalization against earlier vectors: the Ritz pair of a
    converged extreme eigenvalue stays accurate without it (Paige, 1980).
    A cycle stops once its residual beta |s_last| is within
    3e-14 max(1, |theta|), or at once on an invariant subspace (beta 0),
    where the Ritz pair is exact."""
    # imported here: only this solve uses them, and they add to every import of hexgauge
    from scipy.linalg import eigh_tridiagonal
    from scipy.linalg.blas import get_blas_funcs

    CYCLE = 16  # vectors per cycle; 20 or 24 took no fewer products with H on periodic 4x5
    basis = np.empty((CYCLE, len(v0)), np.result_type(h.dtype, float))
    axpy = get_blas_funcs("axpy", (basis,))
    alpha, beta = np.empty(CYCLE), np.empty(CYCLE)
    basis[0] = v0 / np.linalg.norm(v0)
    for _ in range(LOWEST_MAX_CYCLES):
        for j in range(CYCLE):
            # w = H v_j - alpha_j v_j - beta_j-1 v_j-1, in place in the product
            w = h @ basis[j]
            alpha[j] = np.vdot(basis[j], w).real
            axpy(basis[j], w, a=-alpha[j])
            if j:
                axpy(basis[j - 1], w, a=-beta[j - 1])
            else:
                # from a nearly converged restart, H v_0 - alpha_0 v_0 is barely
                # above its rounding, so v_1 is projected off v_0 a second time;
                # without it periodic 2x11 stalled above the tolerance for 144 products
                extra = np.vdot(basis[0], w)
                axpy(basis[0], w, a=-extra)
                alpha[0] += extra.real
            beta[j] = np.linalg.norm(w)
            # T is solved every 4 steps (CYCLE is a multiple of 4): each solve costs 40-70 us
            if beta[j] == 0 or j % 4 == 3:
                theta, s = eigh_tridiagonal(alpha[:j + 1], beta[:j], select="i", select_range=(0, 0))
                # 3e-14, not 1e-14: 1e-14 sits on the rounding floor at dim 2^19
                if done := beta[j] * abs(s[-1, 0]) <= 3e-14 * max(1.0, abs(theta[0])):
                    break
            if j + 1 < CYCLE:
                np.divide(w, beta[j], out=basis[j + 1])
        x = s[:, 0] @ basis[:j + 1]
        x /= np.linalg.norm(x)
        if done:
            return float(theta[0]), x
        basis[0] = x
    raise RuntimeError(f"eigensolver did not converge: no Ritz pair within tolerance after "
                       f"{LOWEST_MAX_CYCLES} cycles of {CYCLE} Lanczos steps")


# ---------------------------------------------------------------------------
# Wilson loops in real space
# ---------------------------------------------------------------------------

def _wilson_operator(cfg: LatticeConfig, c: tuple[int, int], eight: bool) -> scipy.sparse.csr_matrix:
    """Row s stores the amplitude at t = |s ^ mask>, the column the flip
    maps onto s; the amplitude reads the same at s as at t."""
    mask, amplitude = flip_action(cfg, c, eight)

    def write(states, planes, cols, vals):
        cols[0] = flipped(states, mask, cfg, cfg.periodic)
        vals[0] = amplitude(planes)

    return chunked_rows(cfg, cfg.periodic, 1, write)


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
    """h @ x for a C-contiguous complex x; a real h is never copied to
    complex.  It acts on one state's real and imaginary parts as two 1-D
    products, which scipy runs faster than one over the (dim, 2) float view,
    and on a (dim, n) block's float view."""
    if np.iscomplexobj(h):
        return h @ x
    if x.ndim == 1:
        out = np.empty_like(x)
        out.real, out.imag = h @ x.real, h @ x.imag
        return out
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
    once, by its Gershgorin interval [mid - half, mid + half].  A psi0 over
    another basis than op's, or a step with half * |dt| over MAX_STEP_NORM,
    is refused before the first step runs."""
    if psi0.label != op.label:
        raise ValueError(f"state over {psi0.label} given to an operator over {op.label}")
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
