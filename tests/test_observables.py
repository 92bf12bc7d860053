import inspect
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from hexgauge.circuit import emit_trotter_step, verify_circuit
from hexgauge.hamiltonian import SparseOperator, build_closed, build_periodic, h_plus, h_x
from hexgauge.lattice import BoundaryCondition, LatticeConfig, neighbor_chain6, neighbor_chain8
from hexgauge import observables
from hexgauge.observables import (
    WINDOW_SPAN,
    StateVector,
    basis_state,
    diagonalize,
    evolve,
    expectation,
    level_spacing_ratios,
    level_spacing_ratios_by_sector,
    trajectory,
    wilson1_operator,
    wilson2_operator,
)
from hexgauge.momentum import hamiltonian_block
from hexgauge.spinbasis import build_sector, fold, state_array

P = BoundaryCondition.PERIODIC
C = BoundaryCondition.CLOSED


def test_diagonalize_1x1_analytic():
    lam = 1.0
    cfg = LatticeConfig(1, 1, C, lam)
    spec = diagonalize(build_closed(cfg))
    hp, hx = h_plus(lam), h_x(lam)
    root = math.sqrt(hp * hp / 4 + hx * hx)
    assert spec.eigenvalues[0] == pytest.approx(hp / 2 - root, abs=1e-12)
    assert spec.eigenvalues[1] == pytest.approx(hp / 2 + root, abs=1e-12)


def test_diagonalize_residuals():
    cfg = LatticeConfig(2, 3, P, 1.0)
    op = build_periodic(cfg)
    spec = diagonalize(op)
    assert spec.check_residuals(op) < 1e-8
    assert np.all(np.diff(spec.eigenvalues) >= 0)
    # the residual the solve checked is kept, in both modes, and only with vectors
    assert spec.residual == spec.check_residuals(op)
    low = diagonalize(op, mode="lowest")
    assert low.eigenvalues.shape == (1,) and low.eigenvectors.shape == (op.dim, 1)
    assert low.residual == low.check_residuals(op) < 1e-8
    assert diagonalize(op, vectors=False).residual is None
    quiet = diagonalize(op, mode="lowest", vectors=False)
    assert quiet.eigenvectors is None and quiet.residual is None


def test_lowest_mode_matches_full():
    # the one eigenpair is the bottom of the dense spectrum, from weak to
    # strong coupling, for real operators and a complex k != 0 block
    for lam in (0.05, 1.0, 30.0):
        ops = (build_periodic(LatticeConfig(3, 4, P, lam)), build_closed(LatticeConfig(2, 5, C, lam)),
               build_closed(LatticeConfig(1, 11, C, lam)),
               hamiltonian_block(build_sector(LatticeConfig(3, 4, P, lam), 1, 0)))
        assert np.iscomplexobj(ops[-1].matrix)
        for op in ops:
            low = diagonalize(op, mode="lowest").eigenvalues
            assert low.shape == (1,)
            assert abs(low[0] - np.linalg.eigvalsh(op.to_dense())[0]) < 1e-10, (op.label, lam)


class _CountingOperator:
    """A matrix that counts its products with a vector or a block."""

    def __init__(self, matrix):
        self.matrix, self.dtype, self.shape, self.products = matrix, matrix.dtype, matrix.shape, 0

    def __matmul__(self, x):
        self.products += 1
        return self.matrix @ x


def test_lowest_mode_exact_on_invariant_subspace():
    # a Krylov space that closes early (beta 0, or beta at rounding) ends
    # the solve with the exact pair, and divides by no zero beta
    vals = np.tile([2.0, -1.5, 0.25], 20)
    for dtype in (float, complex):
        three = SparseOperator(scipy.sparse.diags(vals.astype(dtype)).tocsr(), "test:60")
        zero = SparseOperator(scipy.sparse.csr_matrix((60, 60), dtype=dtype), "test:60")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec, flat = diagonalize(three, mode="lowest"), diagonalize(zero, mode="lowest")
        assert spec.eigenvalues[0] == pytest.approx(-1.5, abs=1e-14)
        assert np.abs(spec.eigenvectors[vals != -1.5]).max() < 1e-14
        assert flat.eigenvalues[0] == 0.0 and flat.residual == 0.0


def test_lowest_mode_restarts_until_converged(monkeypatch):
    # closed 2x5 needs more than one cycle of 16 products; restarted from
    # its Ritz vector it reaches the dense lowest eigenvalue, and a cap of
    # one cycle makes it give up with a raise
    op = build_closed(LatticeConfig(2, 5, C, 1.0))
    counted = _CountingOperator(op.matrix)
    low = diagonalize(SparseOperator(counted, op.label), mode="lowest").eigenvalues[0]
    assert counted.products > 17
    assert abs(low - np.linalg.eigvalsh(op.to_dense())[0]) < 1e-12
    monkeypatch.setattr(observables, "LOWEST_MAX_CYCLES", 1)
    with pytest.raises(RuntimeError, match="eigensolver did not converge"):
        diagonalize(op, mode="lowest")


@pytest.mark.parametrize("nx, ny, bc, most", [(4, 4, P, 48), (3, 5, C, 60)])
def test_lowest_mode_products_with_h(nx, ny, bc, most):
    # products with H at lambda = 1, the residual check's included; ARPACK
    # with 8 vectors took 45 on periodic 4x4 and 65 on closed 3x5
    cfg = LatticeConfig(nx, ny, bc, 1.0)
    op = build_periodic(cfg) if bc is P else build_closed(cfg)
    counted = _CountingOperator(op.matrix)
    diagonalize(SparseOperator(counted, op.label), mode="lowest")
    assert counted.products <= most


def test_lowest_mode_peak_under_30_vectors():
    # a cycle's 16 Lanczos vectors keep one solve's traced peak near 20
    # dim-length vectors; ARPACK with its default 20 vectors took it to 46
    op = build_closed(LatticeConfig(3, 5, C, 1.0))
    diagonalize(build_closed(LatticeConfig(2, 2, C, 1.0)), mode="lowest")  # first-call imports
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        diagonalize(op, mode="lowest")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 30 * op.dim * 8, peak / (op.dim * 8)


@pytest.mark.parametrize("bc", [P, C])
def test_eigenvector_shares_basis_state_label(bc):
    # the assembler and basis_state tag the same basis with the same label
    cfg = LatticeConfig(3, 3, bc, 1.0)
    op = build_periodic(cfg) if bc is P else build_closed(cfg)
    spec = diagonalize(op, mode="lowest")
    gs = StateVector(spec.eigenvectors[:, 0], op.label)
    assert abs(gs.overlap(basis_state(cfg, 0))) > 0.1
    assert op.label == f"{'periodic-quotient' if bc is P else 'closed-full'}:3x3"


def test_basis_state_capped():
    # basis_state refuses a lattice over the enumeration cap, as state_array
    # does, instead of allocating its 2^23 amplitudes (128 MiB)
    with pytest.raises(ValueError, match="capped at 22"):
        basis_state(LatticeConfig(1, 23, C, 1.0), 0)


def test_periodic_2x2_spectrum_size():
    cfg = LatticeConfig(2, 2, P, 1.0)
    spec = diagonalize(build_periodic(cfg), vectors=False)
    assert spec.dim == 8  # flip-quotient dimension


def test_wilson1_apply_vacuum():
    cfg = LatticeConfig(2, 2, P, 1.0)
    out = wilson1_operator(cfg, (0, 0)) @ basis_state(cfg, 0).amplitudes
    assert out[1] == -1.0
    assert np.count_nonzero(out) == 1


def test_wilson1_apply_twice_support():
    # configuration-level involution: O1^2 |s> is supported on |s> alone
    cfg = LatticeConfig(2, 2, P, 1.0)
    o1 = wilson1_operator(cfg, (0, 0))
    for s in state_array(cfg, cfg.periodic).tolist():
        once = o1 @ basis_state(cfg, s).amplitudes
        twice = o1 @ once
        support = np.nonzero(np.abs(twice) > 1e-14)[0]
        assert list(support) == [s]


def test_wilson1_not_unitary_in_general():
    cfg = LatticeConfig(3, 3, P, 1.0)
    o1 = wilson1_operator(cfg, (0, 0)).toarray()
    assert np.max(np.abs(o1 @ o1 - np.eye(o1.shape[0]))) > 0.1


@pytest.mark.parametrize("c", [(3, 0), (0, 3), (-1, 0)])
def test_wilson_operators_reject_outside_plaquette(c):
    cfg = LatticeConfig(3, 3, P, 1.0)
    for make in (wilson1_operator, wilson2_operator):
        with pytest.raises(ValueError, match="outside 3x3 lattice"):
            make(cfg, c)


def test_wilson2_apply_vacuum():
    cfg = LatticeConfig(2, 3, P, 1.0)
    out = wilson2_operator(cfg, (0, 0)) @ basis_state(cfg, 0).amplitudes
    target = (1 << cfg.site(0, 0)) | (1 << cfg.site(0, 1))
    assert out[target] == -1.0


def test_wilson2_anti_aligned_scaling():
    cfg = LatticeConfig(3, 3, P, 1.0)
    s = 1 << cfg.site(0, 0)  # target pair (0,0),(0,1) anti-aligned
    out = wilson2_operator(cfg, (0, 0)) @ basis_state(cfg, s).amplitudes
    nz = np.nonzero(out)[0]
    assert len(nz) == 1
    amp = out[nz[0]]
    # the up spin sits on the loop, not the chain: c8 = 0, and the
    # anti-aligned prefactor scales the amplitude by -1/2
    assert amp == pytest.approx(-1.0 * -0.5, abs=1e-14)


def test_wilson2_chain_spin_scaling():
    cfg = LatticeConfig(3, 3, P, 1.0)
    s = 1 << cfg.site(1, 1)  # a single up spin on the 8-chain
    out = wilson2_operator(cfg, (0, 0)) @ basis_state(cfg, s).amplitudes
    nz = np.nonzero(out)[0]
    assert len(nz) == 1
    # aligned pair (prefactor 1), one up->down transition: -(-1/2)^1
    assert out[nz[0]] == pytest.approx(0.5, abs=1e-14)


def test_wilson_expectation_real_in_eigenstates():
    cfg = LatticeConfig(2, 3, P, 1.0)
    op = build_periodic(cfg)
    spec = diagonalize(op)
    o1 = wilson1_operator(cfg, (0, 0))
    for k in range(0, spec.dim, 7):
        v = StateVector(spec.eigenvectors[:, k], "x")
        val = complex(np.vdot(v.amplitudes, o1 @ v.amplitudes))
        assert abs(val.imag) < 1e-10


def test_basis_mismatch_guard():
    cfg = LatticeConfig(2, 2, P, 1.0)
    a = basis_state(cfg, 0)
    b = StateVector(a.amplitudes, "other")
    with pytest.raises(ValueError):
        a.overlap(b)


def test_trajectory_refuses_a_state_of_another_basis(monkeypatch):
    # periodic 2x2 and closed 1x3 both have dimension 8, so only the labels tell them apart
    op = build_periodic(LatticeConfig(2, 2, P, 1.0))
    psi0 = basis_state(LatticeConfig(1, 3, C, 1.0), 5)
    assert psi0.amplitudes.shape == (op.dim,)

    def no_step(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(observables, "_steps", no_step)
    for run in (lambda: evolve(op, psi0, 1.0), lambda: trajectory(op, psi0, [0.5, 1.0])):
        with pytest.raises(ValueError, match=r"state over closed-full:1x3 given to an operator over "
                                             r"periodic-quotient:2x2"):
            run()


@pytest.mark.parametrize("s", [-1, 0x1FF, 1 << 4])
def test_basis_state_rejects_out_of_range_word(s):
    cfg = LatticeConfig(2, 2, P, 1.0)
    with pytest.raises(ValueError, match="outside"):
        basis_state(cfg, s)


def test_evolve_t0_identity():
    cfg = LatticeConfig(2, 2, P, 1.0)
    op = build_periodic(cfg)
    psi0 = basis_state(cfg, 3)
    out = evolve(op, psi0, 0.0)
    assert np.max(np.abs(out.amplitudes - psi0.amplitudes)) < 1e-12


def test_evolve_eigenvector_pure_phase():
    cfg = LatticeConfig(2, 2, P, 1.0)
    op = build_periodic(cfg)
    spec = diagonalize(op)
    psi0 = StateVector(spec.eigenvectors[:, 2].astype(complex), "periodic-quotient:2x2")
    out = evolve(op, psi0, 3.7)
    assert abs(abs(psi0.overlap(out)) - 1.0) < 1e-12


def test_evolve_matches_expm_oracle():
    cfg = LatticeConfig(2, 2, P, 1.0)
    op = build_periodic(cfg)
    psi0 = basis_state(cfg, 0)
    t = 2.3
    ref = scipy.linalg.expm(-1j * op.to_dense() * t) @ psi0.amplitudes
    out = evolve(op, psi0, t)
    assert np.max(np.abs(out.amplitudes - ref)) < 1e-12


def test_vacuum_quench_o1_series_vs_expm():
    cfg = LatticeConfig(2, 2, P, 1.0)
    op = build_periodic(cfg)
    o1 = wilson1_operator(cfg, (0, 0))
    psi0 = basis_state(cfg, 0)
    dense = op.to_dense()
    for t, psi in trajectory(op, psi0, [0.0, 0.5, 0.5, 1.0, 2.0, 1.2]):
        ref = scipy.linalg.expm(-1j * dense * t) @ psi0.amplitudes
        v_ref = np.vdot(ref, o1 @ ref)
        v = expectation(o1, psi)
        assert abs(v - v_ref) < 1e-10
        assert abs(v.imag) < 1e-10


def test_expectation_keeps_a_real_matrix_real():
    # a real H acts on the state's float view: the product never copies
    # H's values to complex (8.4 MB on closed 3x5), and the value is the
    # one the complex product gives
    cfg = LatticeConfig(3, 5, C, 1.0)
    h = build_closed(cfg).matrix
    rng = np.random.default_rng(3)
    psi = StateVector(rng.normal(size=h.shape[0]) + 1j * rng.normal(size=h.shape[0]), "closed-full:3x5")
    tracemalloc.start()
    try:
        value = expectation(h, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * h.nnz
    assert value == complex(np.vdot(psi.amplitudes, h.astype(complex) @ psi.amplitudes))
    # a column of a matrix is not contiguous; a complex matrix takes the plain product
    block = np.stack([psi.amplitudes, psi.amplitudes], axis=1)
    assert expectation(h, StateVector(block[:, 0], psi.label)) == value
    assert expectation(h.astype(complex), psi) == value


def test_evolution_needs_no_dense_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolver called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    cfg = LatticeConfig(3, 3, P, 1.0)
    out = evolve(build_periodic(cfg), basis_state(cfg, 0), 2.0)
    assert abs(out.norm() - 1.0) < 1e-12
    for bc in (P, C):
        cfg = LatticeConfig(2, 2, bc, 1.0)
        assert 0.0 < verify_circuit(emit_trotter_step(cfg, 0.05), cfg, 0.05) < 0.05


def test_evolve_norm_and_energy_drift():
    cfg = LatticeConfig(2, 3, P, 1.0)
    op = build_periodic(cfg)
    psi0 = basis_state(cfg, 0)
    e0 = expectation(op.matrix, psi0).real
    out = evolve(op, psi0, 25.0)
    assert abs(out.norm() - 1.0) < 1e-10
    assert abs(expectation(op.matrix, out).real - e0) < 1e-8 * max(1.0, abs(e0))


@pytest.mark.parametrize("k, complex_block", [((1, 1), True), ((2, 3), True), ((0, 0), False), ((0, 2), False)])
def test_evolve_sector_blocks_match_expm(k, complex_block):
    # a complex H is multiplied as it is, a real one on the float view of the
    # states; four columns at once, short, negative and long times
    cfg = LatticeConfig(3, 4, P, 1.0)
    op = hamiltonian_block(build_sector(cfg, *k))
    assert np.iscomplexobj(op.matrix) == complex_block
    rng = np.random.default_rng(5)
    block = rng.normal(size=(op.dim, 4)) + 1j * rng.normal(size=(op.dim, 4))
    for t in (0.03, -1.7, 40.0):
        ref = scipy.linalg.expm(-1j * t * op.to_dense()) @ block
        out = evolve(op, StateVector(block, op.label), t).amplitudes
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("matrix", [2.5 * scipy.sparse.identity(6, format="csr"), scipy.sparse.csr_matrix((6, 6))],
                         ids=["2.5I", "zero"])
def test_evolve_scalar_operator_is_a_phase(matrix):
    # zero spectral width: the series is its first term, times the phase
    op = SparseOperator(matrix, "scalar")
    v = np.arange(6) + 1j
    for t in (0.7, -3.0):
        out = evolve(op, StateVector(v, "scalar"), t).amplitudes
        assert np.max(np.abs(out - np.exp(-1j * matrix[0, 0] * t) * v)) < 1e-15


def test_evolve_fortran_ordered_block():
    cfg = LatticeConfig(2, 3, P, 1.0)
    op = build_periodic(cfg)
    rng = np.random.default_rng(2)
    block = np.asfortranarray(rng.normal(size=(op.dim, 3)) + 1j * rng.normal(size=(op.dim, 3)))
    given = block.copy()
    out = evolve(op, StateVector(block, op.label), 1.3).amplitudes
    ref = scipy.linalg.expm(-1.3j * op.to_dense()) @ given
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.array_equal(block, given)


def test_evolution_never_copies_h():
    # a complex copy of H's stored values alone would take 16 bytes each
    small = LatticeConfig(1, 1, C, 1.0)
    evolve(build_closed(small), basis_state(small, 0), 1.0)  # the lazy imports, untraced
    cfg = LatticeConfig(3, 5, C, 1.0)
    op = build_closed(cfg)
    assert not np.iscomplexobj(op.matrix) and op.matrix.nnz == 524288
    psi0 = basis_state(cfg, 0)
    tracemalloc.start()
    try:
        for _ in trajectory(op, psi0, np.linspace(0.0, 0.2, 5)):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * op.matrix.nnz


def test_one_time_evolution_keeps_few_states():
    # the series writes its sum and recurrence in place: the result and the
    # three recurrence vectors, not a copy of the start or a temporary per term
    small = LatticeConfig(1, 1, C, 1.0)
    evolve(build_closed(small), basis_state(small, 0), 1.0)  # the lazy imports, untraced
    cfg = LatticeConfig(3, 5, C, 1.0)
    op = build_closed(cfg)
    rng = np.random.default_rng(4)
    block = rng.normal(size=(op.dim, 3)) + 1j * rng.normal(size=(op.dim, 3))
    given = block.copy()
    tracemalloc.start()
    try:
        evolve(op, StateVector(block, op.label), 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * block.nbytes
    assert np.array_equal(block, given)


# repeated times, a sign change inside the first window (0.1 then -0.1 from
# t0 = 0), a forward run and a backward one
WINDOW_TIMES = np.concatenate([[0.0, 0.1, -0.1, 0.25, 0.25], np.linspace(0.4, 4.0, 13),
                               np.linspace(3.8, 1.0, 8), [1.0]])


@pytest.mark.parametrize("make", [lambda: build_closed(LatticeConfig(2, 3, C, 1.0)),
                                  lambda: hamiltonian_block(build_sector(LatticeConfig(3, 4, P, 1.0), 1, 1))],
                         ids=["closed-2x3-real", "periodic-3x4-k11-complex"])
def test_windowed_series_matches_expm(make):
    op = make()
    dense = op.to_dense()
    e = np.linalg.eigvalsh(dense)
    # H's Gershgorin half-width is at least half its spectral width: the
    # grid spans several windows
    assert (e[-1] - e[0]) / 2 * np.ptp(WINDOW_TIMES) > 3 * WINDOW_SPAN
    rng = np.random.default_rng(6)
    block = rng.normal(size=(op.dim, 3)) + 1j * rng.normal(size=(op.dim, 3))
    vector = block[:, 0].copy()
    runs = [list(trajectory(op, StateVector(psi0, op.label), WINDOW_TIMES)) for psi0 in (vector, block)]
    for n, t in enumerate(WINDOW_TIMES):
        u = scipy.linalg.expm(-1j * t * dense)
        for psi0, states in zip((vector, block), runs):
            ref = u @ psi0
            assert states[n][0] == t and states[n][1].amplitudes.shape == psi0.shape
            assert np.linalg.norm(states[n][1].amplitudes - ref) <= 1e-12 * np.linalg.norm(ref)
    for states in runs:
        # a repeated time gives the same state
        assert np.array_equal(states[3][1].amplitudes, states[4][1].amplitudes)
        assert np.array_equal(states[-2][1].amplitudes, states[-1][1].amplitudes)


def test_trajectory_shares_one_series_per_window(monkeypatch):
    # 201 times of closed 2x5 to t = 5: a series per step takes 2600
    # products with H, one series per window about 450
    cfg = LatticeConfig(2, 5, C, 1.0)
    op = build_closed(cfg)
    calls = []
    product = observables._product
    monkeypatch.setattr(observables, "_product", lambda h, x: calls.append(x.shape) or product(h, x))
    for _ in trajectory(op, basis_state(cfg, 0x2A5), np.linspace(0.0, 5.0, 201)):
        pass
    assert 0 < len(calls) <= 600


@pytest.mark.parametrize("nx, ny", [(2, 5), (3, 5)])
def test_product_of_one_state_equals_its_float_view(nx, ny):
    # one state takes two 1-D products, real part and imaginary part; a
    # block takes one product over its float view; the sums are the same
    h = build_closed(LatticeConfig(nx, ny, C, 1.0)).matrix
    rng = np.random.default_rng(7)
    x = rng.normal(size=h.shape[0]) + 1j * rng.normal(size=h.shape[0])
    assert np.array_equal(observables._product(h, x), observables._product(h, x[:, None])[:, 0])


def test_level_spacing_equal_gaps():
    assert np.allclose(level_spacing_ratios([0.0, 1.0, 2.0, 3.0]), [1.0, 1.0])


def test_level_spacing_degenerate_pair():
    r = level_spacing_ratios([0.0, 1.0, 1.0, 2.0])
    assert np.allclose(r, [0.0, 0.0])


def test_level_spacing_sector_resolved():
    cfg = LatticeConfig(2, 2, P, 1.0)
    from hexgauge.momentum import sector_spectra

    spectra = [vals for _, _, vals in sector_spectra(cfg)]
    rs = level_spacing_ratios_by_sector(spectra)
    assert np.all((rs >= 0) & (rs <= 1))
    # frozen from the computed 2x2 (0,0) sector spectrum
    r00 = level_spacing_ratios(spectra[0])
    assert r00.shape == (3,)


@pytest.mark.parametrize("k", [0, -1, 8, 9])
def test_lowest_mode_rejects_bad_k(k):
    # the solve takes no eigenpair count: a caller still naming one, even a
    # count the old 1 <= k < dim bound refused, is refused rather than ignored
    op = build_periodic(LatticeConfig(2, 2, P, 1.0))  # dim 8
    with pytest.raises(TypeError, match="'k'"):
        inspect.signature(diagonalize).bind(op, mode="lowest", k=k)
    assert diagonalize(op, mode="lowest").eigenvalues.shape == (1,)


def test_lowest_mode_solves_tiny_operators():
    # the restarted Lanczos solve has no dimension floor: real and complex
    # operators of dimension 1 to 3 match eigvalsh, with no warning
    rng = np.random.default_rng(3)
    for dim in (1, 2, 3):
        for _ in range(20):
            a = rng.normal(size=(dim, dim))
            for m in (a + a.T, a + a.T + 1j * (a - a.T), np.zeros((dim, dim)), np.eye(dim)):
                op = SparseOperator(scipy.sparse.csr_matrix(m), f"test:{dim}")
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    spec = diagonalize(op, mode="lowest")
                assert abs(spec.eigenvalues[0] - np.linalg.eigvalsh(m)[0]) <= 1e-13
    real = SparseOperator(scipy.sparse.csr_matrix(np.array([[2.0]])), "test:1")
    herm = SparseOperator(scipy.sparse.csr_matrix(np.array([[1.0, 1j], [-1j, 1.0]])), "test:2")
    assert diagonalize(real).eigenvalues[0] == 2.0
    assert diagonalize(herm).eigenvalues[0] == pytest.approx(0.0, abs=1e-15)
    # an empty operator has no lowest eigenpair
    with pytest.raises(ValueError, match="got dimension 0"):
        diagonalize(SparseOperator(scipy.sparse.csr_matrix((0, 0)), "test:0"), mode="lowest")


def test_full_mode_checks_its_blocks():
    # blocks that do not commute with the matrix, or in which it is not
    # real, are refused by a raise that survives python -O
    e0, e1 = (scipy.sparse.csc_matrix(np.eye(2)[:, [i]]) for i in range(2))
    coupled = SparseOperator(scipy.sparse.csr_matrix(np.array([[1.0, 0.5], [0.5, 2.0]])), "test:2", [e0, e1])
    with pytest.raises(RuntimeError, match="not invariant and real"):
        diagonalize(coupled)
    herm = SparseOperator(scipy.sparse.csr_matrix(np.array([[1.0, 1j], [-1j, 1.0]])), "test:2",
                          [scipy.sparse.csc_matrix(np.eye(2))])
    with pytest.raises(RuntimeError, match="not invariant and real"):
        diagonalize(herm, vectors=False)
    # the same matrices with blocks that fit them
    coupled.blocks = [scipy.sparse.csc_matrix(np.eye(2))]
    assert np.allclose(diagonalize(coupled).eigenvalues, np.linalg.eigvalsh(coupled.to_dense()))
    r = np.sqrt(0.5)
    herm.blocks = [scipy.sparse.csc_matrix(np.array([[r, 1j * r], [1j * r, r]]))]
    spec = diagonalize(herm)
    assert np.allclose(spec.eigenvalues, [0.0, 2.0], rtol=0, atol=1e-15)


def test_full_mode_checks_byte_budget(monkeypatch):
    # periodic 4x4 (dim 32768): the dense matrix alone would be 8.6 GB
    op = build_periodic(LatticeConfig(4, 4, P, 1.0))

    def no_dense(*args):
        raise AssertionError("dense matrix allocated")

    monkeypatch.setattr(observables, "_solve_blocks", no_dense)
    for vectors in (False, True):
        with pytest.raises(ValueError, match=r"dimension 32768 needs about \d+ bytes"):
            diagonalize(op, vectors=vectors)


def test_lowest_mode_reproducible():
    # the seeded start vector makes two solves bitwise equal
    op = build_periodic(LatticeConfig(3, 3, P, 1.0))
    first, second = diagonalize(op, mode="lowest"), diagonalize(op, mode="lowest")
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


def _scalar_wilson(cfg: LatticeConfig, c, eight: bool) -> scipy.sparse.csr_matrix:
    """Per-state loop form of the real-space Wilson operators."""
    i, j = c
    chain = neighbor_chain8(c, cfg) if eight else neighbor_chain6(c, cfg)
    here, above = cfg.site(i, j), cfg.site(i, (j + 1) % cfg.ny)
    states = state_array(cfg, cfg.periodic).tolist()
    rows, vals = [], []
    for s in states:
        z = [-1 if q < 0 else 2 * ((s >> q) & 1) - 1 for q in chain]
        n = sum(1 for k in range(len(z)) if z[k] == 1 and z[(k + 1) % len(z)] == -1)
        amp, t = -((-0.5) ** n), s ^ (1 << here)
        if eight:
            z0, z1 = 2 * ((s >> here) & 1) - 1, 2 * ((s >> above) & 1) - 1
            amp, t = amp * (1.0 + 3.0 * z0 * z1) / 4.0, t ^ (1 << above)
        if cfg.periodic:
            t = fold(t, cfg)
        rows.append(t)
        vals.append(amp)
    dim = len(states)
    return scipy.sparse.coo_matrix((vals, (rows, states)), shape=(dim, dim)).tocsr()


@pytest.mark.parametrize("nx,ny,bc,c", [
    (2, 2, P, (0, 0)), (3, 3, P, (2, 1)), (3, 4, P, (1, 3)),
    (1, 4, C, (0, 2)), (3, 3, C, (1, 1)), (2, 5, C, (1, 0)),
])
def test_wilson_operators_match_scalar_loop(nx, ny, bc, c):
    cfg = LatticeConfig(nx, ny, bc, 1.0)
    for op, eight in ((wilson1_operator, False), (wilson2_operator, True)):
        if eight and cfg.periodic and ny == 2:
            # the O2 chain wraps onto the pair, which lattice refuses
            with pytest.raises(ValueError, match="wraps onto the pair"):
                op(cfg, c)
            continue
        got, ref = op(cfg, c), _scalar_wilson(cfg, c, eight)
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)


def test_diagonalize_refuses_unknown_mode():
    op = build_closed(LatticeConfig(1, 2, C, 1.0))
    with pytest.raises(ValueError, match="unknown mode 'dense'"):
        diagonalize(op, mode="dense")


@pytest.mark.parametrize("k", [(0, 0), (1, 0)])
def test_blocked_solve_priced_by_its_largest_block(monkeypatch, k):
    # the blocks are solved one at a time as real matrices, so a budget
    # between the price of the largest real block and that of the whole
    # matrix in H's dtype (the old price, which refused it) solves the sector
    op = hamiltonian_block(build_sector(LatticeConfig(3, 4, P, 1.0), *k))
    largest = max(block.shape[1] for block in op.blocks) ** 2 * 8 * 3
    whole = op.dim**2 * op.matrix.dtype.itemsize * 3
    assert largest < whole
    monkeypatch.setattr(observables, "DENSE_MAX_BYTES", (largest + whole) // 2)
    vals = diagonalize(op, vectors=False).eigenvalues
    assert np.max(np.abs(vals - np.linalg.eigvalsh(op.to_dense()))) < 1e-12
    monkeypatch.setattr(observables, "DENSE_MAX_BYTES", largest - 1)
    with pytest.raises(ValueError, match="a block of dimension .* dense budget"):
        diagonalize(op, vectors=False)


def test_residual_check_holds_no_dim_by_dim_temporary():
    # the check goes over column blocks of V; it returns the whole-matrix
    # formula's float, and its temporaries stay well under one V
    op = hamiltonian_block(build_sector(LatticeConfig(3, 5, P, 1.0), 0, 0))
    spec = diagonalize(op)
    vecs, vals = spec.eigenvectors, spec.eigenvalues
    assert vecs.shape == (1096, 1096)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        residual = spec.check_residuals(op)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * vecs.nbytes, (peak, vecs.nbytes)
    assert residual == spec.residual == float(np.max(np.linalg.norm(op.matrix @ vecs - vecs * vals, axis=0)))


# Prints the RSS growth of one blocked dense solve in a fresh interpreter,
# then whether a budget of exactly that growth refuses the same solve.  The
# peak is the process's VmHWM: ru_maxrss may keep the parent's RSS at spawn.
_PEAK_SCRIPT = """
import ctypes, sys
from hexgauge import observables
from hexgauge.lattice import BoundaryCondition, LatticeConfig
from hexgauge.momentum import hamiltonian_block
from hexgauge.spinbasis import build_sector
nx, ny, qx, qy, vectors = map(int, sys.argv[1:])
cfg = LatticeConfig(nx, ny, BoundaryCondition.PERIODIC, 1.0)
op = hamiltonian_block(build_sector(cfg, qx, qy))
small = hamiltonian_block(build_sector(LatticeConfig(2, 2, cfg.bc, 1.0), 0, 0))
observables.diagonalize(small, vectors=bool(vectors))  # first-call allocations
getattr(ctypes.CDLL(None), "malloc_trim", lambda pad: 0)(0)  # freed heap leaves the baseline
def status(key):
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) * 1024 for line in f if line.startswith(key + ":"))
before = status("VmRSS")
observables.diagonalize(op, vectors=bool(vectors))
growth = status("VmHWM") - before
observables.DENSE_MAX_BYTES = growth
try:
    observables.diagonalize(op, vectors=bool(vectors))
except ValueError:
    print(growth, "refused")
else:
    print(growth, "solved")
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("nx, ny, k, vectors", [(3, 5, (1, 0), False), (3, 5, (0, 0), True)],
                         ids=["one-block-values", "two-blocks-vectors"])
def test_blocked_solve_peak_under_its_price(nx, ny, k, vectors):
    # a budget of the measured RSS growth is below the price, so it refuses
    src = str(Path(observables.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, str(nx), str(ny), *map(str, k), str(int(vectors))],
                         env=env, capture_output=True, text=True, check=True).stdout.split()
    growth, verdict = int(out[0]), out[1]
    assert growth > 1 << 20 and verdict == "refused", (growth, verdict)
