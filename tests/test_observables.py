import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from hexgauge.circuit import emit_trotter_step, verify_circuit
from hexgauge.hamiltonian import build_closed, build_periodic, h_plus, h_x
from hexgauge.lattice import BoundaryCondition, LatticeConfig, neighbor_chain6, neighbor_chain8
from hexgauge.observables import (
    StateVector,
    basis_state,
    diagonalize,
    evolve,
    expectation,
    level_spacing_ratios,
    level_spacing_ratios_by_sector,
    trajectory,
    wilson1_apply,
    wilson1_operator,
    wilson2_apply,
    wilson2_operator,
)
from hexgauge.spinbasis import fold, state_array

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


def test_lowest_mode_matches_full():
    cfg = LatticeConfig(3, 3, P, 1.0)
    op = build_periodic(cfg)
    full = diagonalize(op, vectors=False)
    low = diagonalize(op, mode="lowest", k=4)
    assert np.allclose(low.eigenvalues, full.eigenvalues[:4], atol=1e-8)


@pytest.mark.parametrize("bc", [P, C])
def test_eigenvector_shares_basis_state_label(bc):
    # the assembler and basis_state tag the same basis with the same label
    cfg = LatticeConfig(3, 3, bc, 1.0)
    op = build_periodic(cfg) if bc is P else build_closed(cfg)
    spec = diagonalize(op, mode="lowest", k=1)
    gs = StateVector(spec.eigenvectors[:, 0], op.label)
    assert abs(gs.overlap(basis_state(cfg, 0))) > 0.1
    assert op.label == f"{'periodic-quotient' if bc is P else 'closed-full'}:3x3"


def test_periodic_2x2_spectrum_size():
    cfg = LatticeConfig(2, 2, P, 1.0)
    spec = diagonalize(build_periodic(cfg), vectors=False)
    assert spec.dim == 8  # flip-quotient dimension


def test_wilson1_apply_vacuum():
    cfg = LatticeConfig(2, 2, P, 1.0)
    out = wilson1_apply(0, (0, 0), cfg)
    assert out.amplitudes[1] == -1.0
    assert np.count_nonzero(out.amplitudes) == 1


def test_wilson1_apply_twice_support():
    # configuration-level involution: O1^2 |s> is supported on |s> alone
    cfg = LatticeConfig(2, 2, P, 1.0)
    for s in state_array(cfg, cfg.periodic).tolist():
        once = wilson1_apply(s, (0, 0), cfg)
        twice = wilson1_apply(once, (0, 0), cfg)
        support = np.nonzero(np.abs(twice.amplitudes) > 1e-14)[0]
        assert list(support) == [s]


def test_wilson1_not_unitary_in_general():
    cfg = LatticeConfig(3, 3, P, 1.0)
    o1 = wilson1_operator(cfg, (0, 0)).toarray()
    assert np.max(np.abs(o1 @ o1 - np.eye(o1.shape[0]))) > 0.1


def test_wilson2_apply_vacuum():
    cfg = LatticeConfig(2, 2, P, 1.0)
    out = wilson2_apply(0, (0, 0), cfg)
    target = (1 << cfg.site(0, 0)) | (1 << cfg.site(0, 1))
    assert out.amplitudes[target] == -1.0


def test_wilson2_anti_aligned_scaling():
    cfg = LatticeConfig(3, 3, P, 1.0)
    s = 1 << cfg.site(0, 0)  # target pair (0,0),(0,1) anti-aligned
    out = wilson2_apply(s, (0, 0), cfg)
    nz = np.nonzero(out.amplitudes)[0]
    assert len(nz) == 1
    amp = out.amplitudes[nz[0]]
    # the up spin sits on the loop, not the chain: c8 = 0, and the
    # anti-aligned prefactor scales the amplitude by -1/2
    assert amp == pytest.approx(-1.0 * -0.5, abs=1e-14)


def test_wilson2_chain_spin_scaling():
    cfg = LatticeConfig(3, 3, P, 1.0)
    s = 1 << cfg.site(1, 1)  # a single up spin on the 8-chain
    out = wilson2_apply(s, (0, 0), cfg)
    nz = np.nonzero(out.amplitudes)[0]
    assert len(nz) == 1
    # aligned pair (prefactor 1), one up->down transition: -(-1/2)^1
    assert out.amplitudes[nz[0]] == pytest.approx(0.5, abs=1e-14)


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
    op = build_periodic(LatticeConfig(2, 2, P, 1.0))  # dim 8
    with pytest.raises(ValueError, match="k must satisfy"):
        diagonalize(op, mode="lowest", k=k)


def test_lowest_mode_reproducible():
    op = build_periodic(LatticeConfig(3, 3, P, 1.0))
    first = diagonalize(op, mode="lowest", k=4, vectors=False).eigenvalues
    second = diagonalize(op, mode="lowest", k=4, vectors=False).eigenvalues
    assert np.array_equal(first, second)


def _scalar_wilson(cfg: LatticeConfig, c, eight: bool) -> scipy.sparse.csr_matrix:
    """Per-state loop form of the real-space Wilson operators."""
    i, j = c
    chain = neighbor_chain8(c, cfg) if eight else neighbor_chain6(c, cfg)
    here, above = cfg.site(i, j), cfg.site(i, (j + 1) % cfg.ny)
    states = state_array(cfg, cfg.periodic).tolist()
    rows, vals = [], []
    for s in states:
        z = [-1 if q is None else 2 * ((s >> cfg.site(*q)) & 1) - 1 for q in chain]
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
        got, ref = op(cfg, c), _scalar_wilson(cfg, c, eight)
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)
