import cmath
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from reference import c_value, closed_diagonal, evaluate_expansion

import hexgauge.circuit
from hexgauge.circuit import (
    Circuit,
    Gate,
    _expand_exact,
    apply_circuit,
    diagonal_z_terms,
    emit_diagonal_part,
    emit_magnetic_part,
    emit_trotter_circuit,
    emit_trotter_step,
    pauli_expand,
    verify_circuit,
    STEP_GATES_PER_PLAQ,
    VERIFY_MAX_QUBITS,
)
from hexgauge.hamiltonian import h_x
from hexgauge.lattice import BoundaryCondition, LatticeConfig, neighbor_chain6

P = BoundaryCondition.PERIODIC
C = BoundaryCondition.CLOSED


def test_expansion_even_z_strings_periodic():
    cfg = LatticeConfig(3, 3, P, 1.0)
    terms = pauli_expand((1, 1), cfg)
    assert len(terms) == 32
    assert all(len(t.z_sites) % 2 == 0 for t in terms)
    assert all(len(t.z_sites) in (0, 2, 4, 6) for t in terms)


def test_expansion_z_sites_within_chain():
    cfg = LatticeConfig(3, 3, P, 1.0)
    chain = set(neighbor_chain6((0, 0), cfg))
    for t in pauli_expand((0, 0), cfg):
        assert t.z_sites <= chain
        assert t.x_site == cfg.site(0, 0)


def test_expansion_roundtrip_exact():
    # at every plaquette the expansion evaluates to (-1/2)^c on each of the
    # 2^6 neighbor configurations, as exact dyadic rationals; a closed
    # lattice's outside slots read z = -1 whatever their bit, and its corners
    # have edges with both slots outside
    for nx, ny, bc in [(1, 1, C), (1, 3, C), (3, 3, C), (3, 3, P)]:
        cfg = LatticeConfig(nx, ny, bc, 1.0)
        for c in map(cfg.coord, range(cfg.n_plaq)):
            chain, exact = neighbor_chain6(c, cfg), _expand_exact(c, cfg)
            for assignment in range(64):
                s = sum(1 << q for k, q in enumerate(chain) if q >= 0 and (assignment >> k) & 1)
                val = Fraction(0)
                for sites, coeff in exact.items():
                    val += coeff * math.prod(2 * ((s >> q) & 1) - 1 for q in sites)
                assert val == Fraction(-1, 2) ** c_value(s, c, cfg), (cfg, c, assignment)


def test_expansion_c3_value():
    cfg = LatticeConfig(3, 3, P, 1.0)
    chain = neighbor_chain6((1, 1), cfg)
    s = (1 << chain[0]) | (1 << chain[2]) | (1 << chain[4])
    terms = pauli_expand((1, 1), cfg)
    assert evaluate_expansion(terms, s) == pytest.approx(-0.125, abs=1e-15)


def test_expansion_coefficients_real_floats():
    cfg = LatticeConfig(2, 2, P, 1.0)
    for p in range(4):
        for t in pauli_expand(cfg.coord(p), cfg):
            assert isinstance(t.coefficient, float)
            assert abs(t.coefficient) > 1e-12


def test_expansion_position_independent_periodic():
    cfg = LatticeConfig(3, 3, P, 1.0)
    ref = sorted(round(t.coefficient, 15) for t in pauli_expand((0, 0), cfg))
    for p in range(9):
        coeffs = sorted(round(t.coefficient, 15) for t in pauli_expand(cfg.coord(p), cfg))
        assert coeffs == ref


def test_expansion_closed_boundary_odd_strings():
    cfg = LatticeConfig(3, 3, C, 1.0)
    sizes = {len(t.z_sites) for t in pauli_expand((0, 0), cfg)}
    assert 1 in sizes  # fixed outside spins break the even-string rule
    terms = pauli_expand((0, 0), cfg)
    for s in range(1 << 9):
        assert evaluate_expansion(terms, s) == pytest.approx(
            (-0.5) ** c_value(s, (0, 0), cfg), abs=1e-15)


def test_diagonal_z_terms_match_diagonal():
    cfg = LatticeConfig(2, 3, C, 1.0)
    const, singles, pairs = diagonal_z_terms(cfg)
    for s in range(1 << 6):
        val = const
        for q, cf in singles.items():
            val += cf * (2 * ((s >> q) & 1) - 1)
        for (a, b), cf in pairs.items():
            val += cf * (2 * ((s >> a) & 1) - 1) * (2 * ((s >> b) & 1) - 1)
        assert val == pytest.approx(closed_diagonal(s, cfg), abs=1e-12)


def test_1x1_magnetic_is_h_rz_h():
    lam = 1.0
    cfg = LatticeConfig(1, 1, C, lam)
    dt = 0.3
    circ = emit_magnetic_part(cfg, dt)
    names = [g.name for g in circ.gates]
    assert names == ["h", "rz", "h"]
    assert circ.gates[1].angle == pytest.approx(2 * h_x(lam) * dt, abs=1e-15)


def test_cnot_count_per_term():
    cfg = LatticeConfig(3, 3, P, 1.0)
    dt = 0.1
    circ = emit_magnetic_part(cfg, dt)
    # per plaquette: 32 terms, each with 2*|z_sites| CNOTs
    cnots = sum(1 for g in circ.gates if g.name == "cx")
    expected = 0
    for p in range(9):
        for t in pauli_expand(cfg.coord(p), cfg):
            expected += 2 * len(t.z_sites)
    assert cnots == expected


def test_circuit_deterministic():
    cfg = LatticeConfig(2, 2, P, 1.0)
    a = emit_trotter_step(cfg, 0.05).to_qasm()
    b = emit_trotter_step(cfg, 0.05).to_qasm()
    assert a == b
    assert a.startswith("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\n")


def test_dt_zero_identity():
    for bc in (P, C):
        cfg = LatticeConfig(2, 2, bc, 1.0)
        dev = verify_circuit(emit_trotter_step(cfg, 0.0), cfg, 0.0)
        assert dev < 1e-12


def test_diagonal_subcircuit_exact_at_any_dt():
    # diagonal terms commute, so that piece is exact up to global phase
    for bc in (P, C):
        cfg = LatticeConfig(2, 2, bc, 1.0)
        const, singles, pairs = diagonal_z_terms(cfg)
        n = cfg.n_plaq
        dim = 1 << n
        diag = np.zeros(dim)
        for s in range(dim):
            v = const
            for q, cf in singles.items():
                v += cf * (2 * ((s >> q) & 1) - 1)
            for (a, b), cf in pairs.items():
                v += cf * (2 * ((s >> a) & 1) - 1) * (2 * ((s >> b) & 1) - 1)
            diag[s] = v
        dt = 0.9
        circ = emit_diagonal_part(cfg, dt)
        psi = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
        exact = np.exp(-1j * diag * dt) * psi
        approx = apply_circuit(circ, psi)
        ov = np.vdot(exact, approx)
        assert abs(np.linalg.norm(approx - (ov / abs(ov)) * exact)) < 1e-10


def test_trotter_second_order_scaling():
    cfg = LatticeConfig(2, 2, P, 1.0)
    d1 = verify_circuit(emit_trotter_step(cfg, 0.08), cfg, 0.08)
    d2 = verify_circuit(emit_trotter_step(cfg, 0.04), cfg, 0.04)
    assert d1 / d2 == pytest.approx(4.0, rel=0.2)


def test_trotter_closed_bc():
    cfg = LatticeConfig(2, 2, C, 1.0)
    d1 = verify_circuit(emit_trotter_step(cfg, 0.06), cfg, 0.06)
    d2 = verify_circuit(emit_trotter_step(cfg, 0.03), cfg, 0.03)
    assert d1 / d2 == pytest.approx(4.0, rel=0.2)


def test_multi_step_circuit():
    cfg = LatticeConfig(2, 2, P, 1.0)
    step = emit_trotter_step(cfg, 0.05)
    three = emit_trotter_circuit(cfg, 0.05, 3)
    assert len(three.gates) == 3 * len(step.gates)
    with pytest.raises(ValueError):
        emit_trotter_circuit(cfg, 0.05, 0)


def test_statevector_gates():
    # h twice is identity; cx flips target conditionally; rz phases
    circ = Circuit(2)
    circ.h(0)
    circ.h(0)
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0
    out = apply_circuit(circ, psi)
    assert np.max(np.abs(out - psi)) < 1e-15

    circ = Circuit(2)
    circ.cx(0, 1)
    out = apply_circuit(circ, psi)  # control bit 0 is set
    expect = np.zeros(4, dtype=complex)
    expect[0b11] = 1.0
    assert np.max(np.abs(out - expect)) < 1e-15

    circ = Circuit(1)
    circ.rz(0, 1.0)
    psi = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    out = apply_circuit(circ, psi)
    assert out[0] == pytest.approx(np.exp(-0.5j) / math.sqrt(2))
    assert out[1] == pytest.approx(np.exp(0.5j) / math.sqrt(2))


def _loop_gate(name, qubits, angle, psi):
    """One gate by an explicit loop over basis states (rows of psi)."""
    out = np.zeros_like(psi)
    for s in range(len(psi)):
        if name == "h":
            q = qubits[0]
            s0, sign = s & ~(1 << q), 1 - 2 * ((s >> q) & 1)
            out[s] = (psi[s0] + sign * psi[s0 | (1 << q)]) / math.sqrt(2)
        elif name == "cx":
            c, t = qubits
            out[s ^ (((s >> c) & 1) << t)] = psi[s]
        else:
            out[s] = psi[s] * cmath.exp((1j if (s >> qubits[0]) & 1 else -1j) * angle / 2)
    return out


def _random_states(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("n", [3, 4])
def test_apply_circuit_gates_match_basis_loops(n):
    # every gate on every qubit, and cx on every ordered pair (control above
    # and below the target), against the explicit loop over basis states
    rng = np.random.default_rng(n)
    gates = [("h", (q,), None) for q in range(n)]
    gates += [("rz", (q,), angle) for q in range(n) for angle in (0.7, -2.3)]
    gates += [("cx", (c, t), None) for c in range(n) for t in range(n) if c != t]
    for name, qubits, angle in gates:
        circ = Circuit(n)
        getattr(circ, name)(*qubits, *([angle] if angle is not None else []))
        for shape in ((1 << n,), (1 << n, 3)):
            psi = _random_states(rng, shape)
            out = apply_circuit(circ, psi)
            assert out.shape == shape
            assert np.max(np.abs(out - _loop_gate(name, qubits, angle, psi))) < 1e-14, (name, qubits)


def _random_circuit(rng, n, length):
    circ = Circuit(n)
    for _ in range(length):
        kind = rng.integers(3)
        if kind == 0:
            circ.h(int(rng.integers(n)))
        elif kind == 1:
            circ.rz(int(rng.integers(n)), float(rng.normal()))
        else:
            c, t = rng.choice(n, size=2, replace=False)
            circ.cx(int(c), int(t))
    return circ


def test_apply_circuit_block_matches_columns():
    # a (2^n, k) block gives what the circuit gives column by column, the
    # whole circuit matches the gate-by-gate loops, and the input is untouched
    rng = np.random.default_rng(7)
    circ = _random_circuit(rng, 4, 60)
    block = _random_states(rng, (16, 5))
    saved = block.copy()
    out = apply_circuit(circ, block)
    assert np.array_equal(block, saved)
    assert np.array_equal(out, np.column_stack([apply_circuit(circ, col) for col in block.T]))
    ref = block
    for g in circ.gates:
        ref = _loop_gate(g.name, g.qubits, g.angle, ref)
    assert np.max(np.abs(out - ref)) < 1e-12
    with pytest.raises(ValueError, match="length 16"):
        apply_circuit(circ, np.zeros(8))
    with pytest.raises(ValueError, match="length 16"):
        apply_circuit(circ, np.zeros((16, 2, 2)))


def test_verify_applies_the_circuit_once(monkeypatch):
    # the probe block goes through the gate list in one call
    calls = []

    def counting(circ, psi):
        calls.append(np.shape(psi))
        return apply_circuit(circ, psi)

    monkeypatch.setattr(hexgauge.circuit, "apply_circuit", counting)
    for nx, ny in ((2, 2), (1, 7)):
        cfg = LatticeConfig(nx, ny, C, 1.0)
        verify_circuit(emit_trotter_step(cfg, 0.05), cfg, 0.05)
    assert calls == [(16, 16), (128, 3)]


def test_qasm_gate_lines():
    circ = Circuit(3)
    circ.h(0)
    circ.cx(0, 2)
    circ.rz(1, 0.25)
    text = circ.to_qasm()
    assert "h q[0];" in text
    assert "cx q[0],q[2];" in text
    assert "rz(0.25) q[1];" in text


def test_rz_rejects_nonfinite():
    circ = Circuit(1)
    with pytest.raises(ValueError):
        circ.rz(0, float("nan"))


@pytest.mark.parametrize("name, qubits", [("cx", (1, 1)), ("h", (2,)), ("cx", (0, 5)), ("rz", (-1,))])
def test_gates_reject_bad_qubits(name, qubits):
    # a qubit outside the register, or a cx on one qubit, is refused by the
    # builder, naming the gate, and nothing reaches the gate list
    circ = Circuit(2)
    args = (*qubits, 0.1) if name == "rz" else qubits
    with pytest.raises(ValueError, match=f"^{name} "):
        getattr(circ, name)(*args)
    assert circ.gates == []


@pytest.mark.parametrize("args, message", [
    (("u3", (0,)), "unknown gate u3"),
    (("h", (0, 1)), "h takes 1 qubit(s)"),
    (("cx", (0,)), "cx takes 2 qubit(s)"),
    (("rz", (0,)), "rz takes an angle"),
    (("h", (0,), 0.1), "h takes no angle"),
    (("cx", (0, 1), 0.1), "cx takes no angle"),
    (("cx", (1, 1)), "cx control and target are both qubit 1"),
    (("rz", (0,), float("inf")), "rz angle must be finite"),
    (("rz", (0,), float("nan")), "rz angle must be finite"),
])
def test_gate_refuses_malformed(args, message):
    # no gate that to_qasm or apply_circuit could not handle can be made
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        Gate(*args)


def test_repeated_refuses_over_budget_before_building():
    step = emit_trotter_step(LatticeConfig(1, 3, C, 1.0), 0.05)
    with pytest.raises(ValueError, match="over the 2147483648-byte dense budget"):
        step.repeated(10**12)


@pytest.mark.parametrize("nx, ny, bc", [(2, 3, P), (3, 4, P), (4, 4, P), (3, 3, C), (5, 5, C), (1, 11, C)])
def test_step_within_its_gate_bound(nx, ny, bc):
    # the per-plaquette gate bound the step is priced with holds; a full
    # periodic chain has no single-site rz, so it reaches 235
    cfg = LatticeConfig(nx, ny, bc, 1.0)
    gates = len(emit_trotter_step(cfg, 0.05).gates)
    assert gates <= STEP_GATES_PER_PLAQ * cfg.n_plaq
    if bc is P and min(nx, ny) > 2:
        assert gates == (STEP_GATES_PER_PLAQ - 1) * cfg.n_plaq


@pytest.mark.parametrize("nx, ny", [(1, 2), (2, 1)])
def test_emitters_refuse_degenerate_periodic(nx, ny):
    # a periodic row or column of one plaquette bonds a plaquette to itself;
    # every emitter refuses it with the builders' message before any gate
    cfg = LatticeConfig(nx, ny, P, 1.0)
    for emit in (emit_diagonal_part, emit_magnetic_part, emit_trotter_step):
        with pytest.raises(ValueError, match="periodic lattices need nx >= 2 and ny >= 2"):
            emit(cfg, 0.1)
    with pytest.raises(ValueError, match="periodic lattices need nx >= 2 and ny >= 2"):
        emit_trotter_circuit(cfg, 0.1, 2)
    # the same sizes stay allowed under closed BC
    assert emit_trotter_step(LatticeConfig(nx, ny, C, 1.0), 0.1).gates


def test_verify_refuses_over_cap_before_building_h(monkeypatch):
    # the qubit cap is checked before the 2^N Hamiltonian is assembled
    def refuse(cfg):
        raise AssertionError("Hamiltonian built above the verification cap")

    monkeypatch.setattr(hexgauge.circuit, "build_closed", refuse)
    monkeypatch.setattr(hexgauge.circuit, "build_periodic_full", refuse)
    for cfg in (LatticeConfig(1, VERIFY_MAX_QUBITS + 1, C, 1.0), LatticeConfig(3, 6, P, 1.0)):
        assert cfg.n_plaq > VERIFY_MAX_QUBITS
        with pytest.raises(ValueError, match=f"capped at {VERIFY_MAX_QUBITS} qubits"):
            verify_circuit(Circuit(cfg.n_plaq), cfg, 0.1)
