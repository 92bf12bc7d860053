"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import math
import time
from fractions import Fraction

import numpy as np
from reference import bracket, c_value

from hexgauge.circuit import _expand_exact, emit_trotter_step, pauli_expand, verify_circuit
from hexgauge.hamiltonian import build_periodic, h_plus, h_plusplus
from hexgauge.lattice import BoundaryCondition, LatticeConfig, neighbor_chain6
from hexgauge.momentum import (
    hamiltonian_block,
    momentum_transform,
    wilson1_block,
    wilson2_block,
)
from hexgauge.observables import basis_state, evolve, expectation, wilson1_operator, wilson2_operator
from hexgauge.oracle import (
    certify_isomorphism,
    electric_link_energy,
    enumerate_gauge_states,
    ks_hamiltonian,
    plaquette_element,
    vertex_element,
)
from hexgauge.spinbasis import all_sectors, state_array

P = BoundaryCondition.PERIODIC
C = BoundaryCondition.CLOSED
HALF = Fraction(1, 2)

SQRT3 = math.sqrt(3.0)

# 1x1 and 2x1 are closed-only: with nx or ny = 1 a plaquette is adjacent to
# itself and the periodic spin model is not defined.
CERT_LATTICES = [
    (1, 1, [C]),
    (2, 1, [C]),
    (2, 2, [C, P]),
    (2, 3, [C, P]),
    (3, 3, [C]),
]


def _report(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} — {detail}")
    assert ok, detail


def test_criterion_1_oracle_isomorphism():
    t0 = time.monotonic()
    worst = 0.0
    runs = 0
    for nx, ny, bcs in CERT_LATTICES:
        for bc in bcs:
            for lam in (0.5, 1.0, 2.0):
                report = certify_isomorphism(LatticeConfig(nx, ny, bc, lam))
                worst = max(worst, report.max_deviation)
                assert report.passed, f"{nx}x{ny} {bc.value} lam={lam}: {report.max_deviation}"
                runs += 1
    elapsed = time.monotonic() - t0
    _report(1, worst < 1e-10 and elapsed < 60.0,
            f"{runs} certifications, max deviation {worst:.2e} < 1e-10, {elapsed:.1f}s < 60s")


def test_criterion_2_dimension_counts():
    checked = []
    for nx, ny in [(1, 1), (2, 1), (2, 2), (2, 3), (3, 3)]:
        cfg = LatticeConfig(nx, ny, C, 1.0)
        enum = enumerate_gauge_states(cfg)
        n = cfg.n_plaq
        assert enum.n_reachable == 1 << n == len(state_array(cfg, cfg.periodic))
        checked.append(f"{nx}x{ny}C")
    for nx, ny in [(2, 1), (2, 2), (2, 3), (3, 2)]:
        cfg = LatticeConfig(nx, ny, P, 1.0)
        enum = enumerate_gauge_states(cfg)
        n = cfg.n_plaq
        assert enum.n_reachable == 1 << (n - 1) == len(state_array(cfg, cfg.periodic))
        checked.append(f"{nx}x{ny}P")
    _report(2, True, f"reachable = 2^N (closed), 2^(N-1) (periodic): {' '.join(checked)}")


def test_criterion_3_coefficient_identities():
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        cfg = LatticeConfig(3, 3, P, lam)
        h = build_periodic(cfg)
        vac = h.matrix[0, 0]
        single = h.matrix[1, 1] - vac
        pair_state = (1 << cfg.site(0, 0)) | (1 << cfg.site(0, 1))
        double = h.matrix[pair_state, pair_state] - vac
        worst = max(worst, abs(single - h_plus(lam)), abs(single - 27 * SQRT3 / 8 * lam))
        worst = max(worst, abs(double - (2 * h_plus(lam) - h_plusplus(lam))))
        worst = max(worst, abs(double - 45 * SQRT3 / 8 * lam))
        # independently from oracle electric energies
        enum = enumerate_gauge_states(cfg)
        ks = ks_hamiltonian(cfg, enum)
        gvac, g1, g2 = 0, enum.toggles[0], enum.toggles[0] ^ enum.toggles[3]  # configs index themselves
        worst = max(worst, abs(ks.matrix[g1, g1] - ks.matrix[gvac, gvac] - 27 * SQRT3 / 8 * lam))
        worst = max(worst, abs(ks.matrix[g2, g2] - ks.matrix[gvac, gvac] - 45 * SQRT3 / 8 * lam))
        worst = max(worst, abs(6 * electric_link_energy(lam) - h_plus(lam)))
    _report(3, worst < 1e-12, f"h+ and 2h+ - h++ identities, both routes, max dev {worst:.2e} < 1e-12")


def test_criterion_4_vertex_algebra():
    exact = (
        vertex_element(HALF, HALF, 0, 0, 0) == -1j
        and vertex_element(0, 0, HALF, HALF, 0) == -1j
        and vertex_element(HALF, 0, 0, HALF, HALF) == -1j
        and vertex_element(0, HALF, HALF, 0, HALF) == 0.5j
    )
    assert exact
    # plaquette products real and symmetric on every oracle instance
    for nx, ny, bc in [(2, 2, P), (2, 3, P), (2, 3, C), (3, 3, C)]:
        cfg = LatticeConfig(nx, ny, bc, 1.0)
        enum = enumerate_gauge_states(cfg)
        n = enum.n_reachable
        plaq = np.zeros((n, n))
        for p, t in enumerate(enum.toggles):
            val = plaquette_element(enum, enum.reachable, p)  # the table checks Im = 0
            np.add.at(plaq, (enum.reachable ^ t, np.arange(n)), val)
        assert np.array_equal(plaq, plaq.T)
    _report(4, True, "vertex elements exactly (-i, -i, -i, i/2); plaquette matrices real symmetric")


def test_criterion_5_magnetic_form_equivalence():
    cfg = LatticeConfig(3, 3, P, 1.0)
    chain = neighbor_chain6((1, 1), cfg)
    exact = _expand_exact((1, 1), cfg)  # raises if any coefficient is not real
    float_worst = 0.0
    for assignment in range(64):
        s = 0
        for k in range(6):
            if (assignment >> k) & 1:
                s |= 1 << chain[k]
        val = Fraction(0)
        for sites, coeff in exact.items():
            z = 1
            for q in sites:
                z *= 2 * ((s >> q) & 1) - 1
            val += coeff * z
        assert val == Fraction(-1, 2) ** c_value(s, (1, 1), cfg)  # exact
        float_worst = max(
            float_worst, abs(bracket(s, chain) - (-0.5) ** c_value(s, (1, 1), cfg)))
    for p in range(9):
        for term in pauli_expand(cfg.coord(p), cfg):
            assert term.coefficient == term.coefficient  # real float by construction
    _report(5, float_worst < 1e-12,
            f"count vs product forms equal on all 64 configs (exact); float route {float_worst:.2e} < 1e-12")


def test_criterion_6_sector_completeness():
    t0 = time.monotonic()
    worst = 0.0
    for nx, ny in [(2, 2), (2, 3), (3, 3)]:
        cfg = LatticeConfig(nx, ny, P, 1.0)
        full = np.sort(np.linalg.eigvalsh(build_periodic(cfg).matrix.toarray()))
        parts = np.sort(
            np.concatenate(
                [np.linalg.eigvalsh(hamiltonian_block(s).matrix.toarray()) for s in all_sectors(cfg)]
            )
        )
        assert parts.shape == full.shape
        worst = max(worst, float(np.max(np.abs(parts - full))))
    elapsed = time.monotonic() - t0
    _report(6, worst < 1e-8 and elapsed < 30.0,
            f"sector spectra vs full, max dev {worst:.2e} < 1e-8, {elapsed:.1f}s < 30s")


def test_criterion_7_wilson_cross_check():
    worst = 0.0
    for nx, ny in [(2, 2), (2, 3), (3, 3)]:
        cfg = LatticeConfig(nx, ny, P, 1.0)
        loops = [(wilson1_operator(cfg, (0, 0)).toarray(), wilson1_block)]
        # on periodic ny = 2 the O2 chain wraps onto the pair, and lattice refuses it
        if ny > 2:
            loops.append((wilson2_operator(cfg, (0, 0)).toarray(), wilson2_block))
        sectors = all_sectors(cfg)
        transforms = [momentum_transform(s) for s in sectors]
        for a, sa in enumerate(sectors):
            for b, sb in enumerate(sectors):
                for op, block in loops:
                    ref = transforms[b].conj().T @ op @ transforms[a]
                    worst = max(worst, float(np.max(np.abs(block(sa, sb).toarray() - ref))))
    _report(7, worst < 1e-10, f"O1/O2 momentum blocks vs conjugated real-space, max dev {worst:.2e} < 1e-10")


def test_criterion_8_circuit_verification():
    cfg = LatticeConfig(2, 2, P, 1.0)
    zero = verify_circuit(emit_trotter_step(cfg, 0.0), cfg, 0.0)
    d1 = verify_circuit(emit_trotter_step(cfg, 0.08), cfg, 0.08)
    d2 = verify_circuit(emit_trotter_step(cfg, 0.04), cfg, 0.04)
    ratio = d1 / d2
    ok = zero < 1e-12 and abs(ratio - 4.0) <= 0.8
    _report(8, ok, f"dt=0 deviation {zero:.2e} < 1e-12; halving ratio {ratio:.2f} within 4 +- 0.8")


def test_criterion_9_evolution_sanity():
    cfg = LatticeConfig(3, 3, P, 1.0)
    op = build_periodic(cfg)
    psi0 = basis_state(cfg, 0)
    e0 = expectation(op.matrix, psi0).real
    out = evolve(op, psi0, 50.0)
    norm_drift = abs(np.linalg.norm(out.amplitudes) - 1.0)
    energy_drift = abs(expectation(op.matrix, out).real - e0) / max(1.0, abs(e0))
    ok = norm_drift < 1e-10 and energy_drift < 1e-8
    _report(9, ok, f"t=50 on 3x3: norm drift {norm_drift:.2e} < 1e-10, energy drift {energy_drift:.2e} < 1e-8")
