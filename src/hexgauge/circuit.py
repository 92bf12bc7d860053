"""Pauli-string expansion of the magnetic term and Trotter-step circuits.

The flip coefficient (-1/2)^c at a plaquette equals a product of six
two-site factors (alpha z_K z_{K+1} + beta) with alpha, beta = 1/2 -+ u/2
and u = i/sqrt(2).  Since u^2 = -1/2, the whole expansion closes over
numbers of the form A + B u with rational A, B, so it is carried out in
exact arithmetic; the u-components cancel identically and the surviving
coefficients are exact dyadic rationals.

Circuits use the standard gate set (h, cx, rz in the OpenQASM qelib
convention, Z|0> = +|0>).  Because the spin model takes bit 1 to mean
sigma^z = +1, a z-string over S picks up a factor (-1)^|S| when written in
the qasm Z convention; the emitted rotation angles absorb that sign.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .hamiltonian import build_closed, build_periodic_full, h_plus, h_plusplus, h_x, j_zz
from .lattice import BoundaryCondition, LatticeConfig, bonds, neighbor_chain6
from .observables import StateVector, evolve, require_budget

HALF = Fraction(1, 2)
ONE = Fraction(1)


@dataclass(frozen=True)
class PauliTerm:
    """coefficient * (prod_{q in z_sites} sigma^z_q) * sigma^x_{x_site}."""

    coefficient: float
    x_site: int
    z_sites: frozenset[int]


def _expand_exact(c: tuple[int, int], cfg: LatticeConfig) -> dict[frozenset[int], Fraction]:
    """Exact expansion of the six-factor product at plaquette c.

    Returns {z-site set: rational coefficient}; outside chain slots (-1)
    are substituted with z = -1 before expanding (closed BC).
    """
    chain = neighbor_chain6(c, cfg)
    poly: dict[frozenset[int], tuple[Fraction, Fraction]] = {frozenset(): (ONE, Fraction(0))}
    for k in range(6):
        q1, q2 = chain[k], chain[(k + 1) % 6]
        if q1 < 0 and q2 < 0:
            continue  # z z = (-1)(-1): the factor is alpha + beta = 1
        # factor = alpha * z_K z_{K+1} + beta, alpha/beta = 1/2 -+ u/2; an outside
        # slot reads z = -1: alpha's term keeps the inside sites, signed (-1)^outside
        sign = -1 if min(q1, q2) < 0 else 1
        inside = frozenset(q for q in (q1, q2) if q >= 0)
        new: dict[frozenset[int], tuple[Fraction, Fraction]] = {}
        for s1, (a1, b1) in poly.items():
            for s2, (a2, b2) in ((inside, (sign * HALF, -sign * HALF)), (frozenset(), (HALF, HALF))):
                # add (a1 + b1 u)(a2 + b2 u), with u^2 = -1/2
                a, b = new.get(s1 ^ s2, (0, 0))
                new[s1 ^ s2] = (a + a1 * a2 - b1 * b2 / 2, b + a1 * b2 + b1 * a2)
        poly = new
    out = {}
    for sites, (a, b) in poly.items():
        if b != 0:
            raise ArithmeticError(f"residual imaginary coefficient {b} on {sorted(sites)}")
        if a != 0:
            out[sites] = a
    return out


def pauli_expand(c: tuple[int, int], cfg: LatticeConfig) -> list[PauliTerm]:
    """Pauli terms of (-1/2)^c sigma^x at plaquette c, like strings merged.

    On a fully dynamical chain (periodic BC, or interior closed plaquettes)
    every term carries an even number of sigma^z factors; boundary
    plaquettes with fixed outside spins also produce odd strings.
    """
    exact = _expand_exact(c, cfg)
    fully_dynamic = min(neighbor_chain6(c, cfg)) >= 0
    x_site = cfg.site(*c)
    terms = []
    for sites in sorted(exact, key=lambda s: (len(s), sorted(s))):
        if fully_dynamic and len(sites) % 2:
            raise RuntimeError(f"odd z-string {sorted(sites)} on a dynamical chain")
        terms.append(PauliTerm(float(exact[sites]), x_site, frozenset(sites)))
    return terms


# ---------------------------------------------------------------------------
# Circuits
# ---------------------------------------------------------------------------

GATE_ARITY = {"h": 1, "cx": 2, "rz": 1}  # qubits each gate acts on
# Peak bytes per gate of repeated() and then to_qasm(): the list slot, the
# QASM line and its share of the joined text.  tracemalloc measured 98-103
# under CPython 3.11 on closed 1x3 and 1x11 and periodic 3x4 steps, x200.
QASM_BYTES_PER_GATE = 104
# A Trotter step has at most 236 gates per plaquette: 2 Hadamards, at most 32
# z-string ladders of 2|z| + 1 gates (on a full six-site chain the 32 even
# strings, 32 + 2*96 = 224 gates), one single-site rz and 3 bond ladders of 3.
STEP_GATES_PER_PLAQ = 236
# Peak bytes per gate while emit_trotter_step builds a step: the Gate, its
# qubit tuple and angle and the parts' list slots.  tracemalloc measured
# 172-174 under CPython 3.11 on periodic 3x4, 4x4, 6x6 and 30x30 and closed
# 10x10 and 20x20 steps.
STEP_BYTES_PER_GATE = 176


@dataclass(frozen=True)
class Gate:
    """h q, cx ctrl,tgt or rz(angle) q, refused when made unless well formed."""

    name: str  # 'h' | 'cx' | 'rz'
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.name not in GATE_ARITY:
            raise ValueError(f"unknown gate {self.name}")
        if len(self.qubits) != GATE_ARITY[self.name]:
            raise ValueError(f"{self.name} takes {GATE_ARITY[self.name]} qubit(s), got {self.qubits}")
        if (self.angle is None) == (self.name == "rz"):
            raise ValueError(f"{self.name} takes {'an' if self.name == 'rz' else 'no'} angle, got {self.angle}")
        if self.name == "cx" and self.qubits[0] == self.qubits[1]:
            raise ValueError(f"cx control and target are both qubit {self.qubits[0]}")
        if self.angle is not None and not math.isfinite(self.angle):
            raise ValueError("rz angle must be finite")


@dataclass
class Circuit:
    n_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def h(self, q: int):
        self._add(Gate("h", (q,)))

    def cx(self, ctrl: int, tgt: int):
        self._add(Gate("cx", (ctrl, tgt)))

    def rz(self, q: int, angle: float):
        self._add(Gate("rz", (q,), angle))

    def _add(self, gate: Gate):
        if not all(0 <= q < self.n_qubits for q in gate.qubits):
            raise ValueError(f"{gate.name} on qubits {gate.qubits} outside [0, {self.n_qubits})")
        self.gates.append(gate)

    def repeated(self, steps: int) -> "Circuit":
        """A new circuit of this one's gates `steps` >= 1 times over, refused
        before it is built when it and its QASM text price over the dense budget."""
        if steps < 1:
            raise ValueError("steps must be >= 1")
        require_budget(steps * len(self.gates) * QASM_BYTES_PER_GATE,
                       f"a circuit of {steps} steps of {len(self.gates)} gates with its QASM text")
        return Circuit(self.n_qubits, self.gates * steps)

    def to_qasm(self) -> str:
        head = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{self.n_qubits}];"]
        body = (f"{g.name}{'' if g.angle is None else f'({g.angle!r})'} q[{'],q['.join(map(str, g.qubits))}];"
                for g in self.gates)
        return "\n".join([*head, *body]) + "\n"


def diagonal_z_terms(cfg: LatticeConfig):
    """The diagonal Hamiltonian as (constant, {site: coef}, {(a,b): coef})
    in the physical z convention (bit 1 means z = +1)."""
    singles: defaultdict[int, float] = defaultdict(float)
    pairs: defaultdict[tuple[int, int], float] = defaultdict(float)
    const = 0.0
    if cfg.bc is BoundaryCondition.PERIODIC:
        jz = j_zz(cfg.lam)
        for p, q in bonds(cfg):
            pairs[min(p, q), max(p, q)] += jz
        return const, singles, pairs
    hp, hpp = h_plus(cfg.lam), h_plusplus(cfg.lam)
    for p in range(cfg.n_plaq):
        const += hp / 2.0
        singles[p] += hp / 2.0
    for p, q in bonds(cfg):
        if q < 0:
            continue
        const -= hpp / 4.0
        singles[p] -= hpp / 4.0
        singles[q] -= hpp / 4.0
        pairs[min(p, q), max(p, q)] -= hpp / 4.0
    return const, singles, pairs


def _ladder_rotation(circ: Circuit, qubits: list[int], angle: float):
    """exp(-i(angle/2) * prod Z) over `qubits` via the CNOT ladder, rotation
    on the highest-index qubit."""
    for a, b in zip(qubits[:-1], qubits[1:]):
        circ.cx(a, b)
    circ.rz(qubits[-1], angle)
    for a, b in reversed(list(zip(qubits[:-1], qubits[1:]))):
        circ.cx(a, b)


def emit_diagonal_part(cfg: LatticeConfig, dt: float) -> Circuit:
    """exp(-i H_diag dt): single-z rotations, then bond ladders.  All terms
    commute, so this piece is exact at any dt (up to the dropped
    global-phase constant)."""
    circ = Circuit(cfg.n_plaq)
    _, singles, pairs = diagonal_z_terms(cfg)
    for q in sorted(singles):
        if singles[q] != 0.0:
            circ.rz(q, -2.0 * singles[q] * dt)
    for a, b in sorted(pairs):
        if pairs[(a, b)] != 0.0:
            _ladder_rotation(circ, [a, b], 2.0 * pairs[(a, b)] * dt)
    return circ


def emit_magnetic_part(cfg: LatticeConfig, dt: float) -> Circuit:
    """Magnetic term plaquette by plaquette: Hadamard on the flip site, one
    CNOT ladder + rz per Pauli term, Hadamard back.  Terms within a
    plaquette group commute (all diagonal after the basis change)."""
    circ = Circuit(cfg.n_plaq)
    hx = h_x(cfg.lam)
    for p in range(cfg.n_plaq):
        terms = pauli_expand(cfg.coord(p), cfg)
        circ.h(p)
        for term in terms:
            qs = sorted(term.z_sites | {p})
            sign = -1.0 if len(term.z_sites) % 2 else 1.0
            _ladder_rotation(circ, qs, 2.0 * hx * term.coefficient * sign * dt)
        circ.h(p)
    return circ


def emit_trotter_step(cfg: LatticeConfig, dt: float) -> Circuit:
    """One first-order Trotter step of exp(-i aH dt) on N qubits: the
    diagonal part followed by the magnetic part.  The physical-to-qasm
    z-sign is absorbed as (-1)^|string| into each rotation angle; global
    phase constants are dropped.  Refused before any gate is built when its
    gate bound prices over the dense budget."""
    gates = cfg.n_plaq * STEP_GATES_PER_PLAQ
    require_budget(gates * STEP_BYTES_PER_GATE, f"a Trotter step of up to {gates} gates")
    return Circuit(cfg.n_plaq, emit_diagonal_part(cfg, dt).gates + emit_magnetic_part(cfg, dt).gates)


def emit_trotter_circuit(cfg: LatticeConfig, dt: float, steps: int) -> Circuit:
    """`steps` repetitions of the single Trotter step."""
    return emit_trotter_step(cfg, dt).repeated(steps)


# ---------------------------------------------------------------------------
# Statevector verification
# ---------------------------------------------------------------------------

VERIFY_MAX_QUBITS = 16

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def apply_circuit(circ: Circuit, psi: np.ndarray) -> np.ndarray:
    """Run the gate list on a dense statevector (qubit q = bit q), or on each
    column of a (2^n, k) block of them; returns a new array of psi's shape.
    Each gate writes in place into a view of the block with the target bit
    q on axis 1; cx swaps the target halves where its control bit is set."""
    dim = 1 << circ.n_qubits
    out = np.array(psi, dtype=complex)
    if out.ndim not in (1, 2) or out.shape[0] != dim:
        raise ValueError(f"statevector must have length {dim}")
    k = out.size // dim
    for g in circ.gates:
        q = g.qubits[-1]
        if g.name == "h":
            v = out.reshape(-1, 2, 1 << q, k)
            a, b = v[:, 0], v[:, 1]
            a[...], b[...] = (a + b) * _INV_SQRT2, (a - b) * _INV_SQRT2
        elif g.name == "cx":
            c = g.qubits[0]
            v = out.reshape(-1, 2, 1 << (abs(c - q) - 1), 2, 1 << min(c, q), k)
            off, on = (v[:, 1, :, 0] if c > q else v[:, 0, :, 1]), v[:, 1, :, 1]
            off[...], on[...] = on, off.copy()  # off is overwritten first, so only it is copied
        else:  # rz
            v = out.reshape(-1, 2, 1 << q, k)
            v[:, 0] *= np.exp(-1j * (g.angle / 2.0))
            v[:, 1] *= np.exp(1j * (g.angle / 2.0))
    return out


def _probe_states(n: int) -> np.ndarray:
    """The probe states as the columns of a (2^n, n_probes) block."""
    dim = 1 << n
    if n <= 6:
        return np.eye(dim, dtype=complex)
    probes = np.zeros((dim, 3), dtype=complex)
    probes[0, 0] = probes[1, 1] = 1.0
    probes[:, 2] = 1.0 / math.sqrt(dim)
    return probes


def verify_circuit(circ: Circuit, cfg: LatticeConfig, dt: float) -> float:
    """Max deviation of the circuit from exp(-i aH dt) on the full 2^N
    space over a deterministic probe set.

    The metric is the global-phase-aligned distance min_theta
    ||psi_circuit - e^(i theta) psi_exact||, computed from the aligned
    difference directly (the 2 - 2|overlap| form loses half the digits to
    cancellation)."""
    n = cfg.n_plaq
    if n > VERIFY_MAX_QUBITS:
        raise ValueError(f"verification capped at {VERIFY_MAX_QUBITS} qubits")
    ham = build_closed(cfg) if cfg.bc is BoundaryCondition.CLOSED else build_periodic_full(cfg)
    probes = _probe_states(n)
    exact_states = evolve(ham, StateVector(probes, ham.label), dt).amplitudes
    worst = 0.0
    for approx, exact in zip(apply_circuit(circ, probes).T, exact_states.T):
        ov = np.vdot(exact, approx)
        align = ov / abs(ov) if abs(ov) > 0 else 1.0
        worst = max(worst, float(np.linalg.norm(approx - align * exact)))
    return worst
