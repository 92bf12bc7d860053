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
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .hamiltonian import build_closed, build_periodic_full, h_plus, h_plusplus, h_x, j_zz
from .lattice import BoundaryCondition, LatticeConfig, bonds, neighbor_chain6, require_nondegenerate
from .observables import StateVector, evolve

HALF = Fraction(1, 2)
ONE = Fraction(1)


@dataclass(frozen=True)
class PauliTerm:
    """coefficient * (prod_{q in z_sites} sigma^z_q) * sigma^x_{x_site}."""

    coefficient: float
    x_site: int
    z_sites: frozenset[int]


def _mul(c1: tuple[Fraction, Fraction], c2: tuple[Fraction, Fraction]):
    # (a1 + b1 u)(a2 + b2 u) with u^2 = -1/2
    a1, b1 = c1
    a2, b2 = c2
    return (a1 * a2 - b1 * b2 / 2, a1 * b2 + b1 * a2)


def _expand_exact(c: tuple[int, int], cfg: LatticeConfig) -> dict[frozenset[int], Fraction]:
    """Exact expansion of the six-factor product at plaquette c.

    Returns {z-site set: rational coefficient}; outside chain slots (-1)
    are substituted with z = -1 before expanding (closed BC).
    """
    chain = neighbor_chain6(c, cfg)
    poly: dict[frozenset[int], tuple[Fraction, Fraction]] = {frozenset(): (ONE, Fraction(0))}
    for k in range(6):
        q1, q2 = chain[k], chain[(k + 1) % 6]
        # factor = alpha * z_K z_{K+1} + beta, alpha/beta = 1/2 -+ u/2
        parts: list[tuple[frozenset[int], tuple[Fraction, Fraction]]] = []
        if q1 < 0 and q2 < 0:
            parts.append((frozenset(), (ONE, Fraction(0))))  # z z = +1, factor = 1
        elif q1 < 0 or q2 < 0:
            q = max(q1, q2)  # the slot inside the lattice
            parts.append((frozenset([q]), (-HALF, HALF)))  # -alpha z
            parts.append((frozenset(), (HALF, HALF)))
        else:
            if q1 == q2:
                raise ValueError("degenerate chain: plaquette adjacent to itself")
            parts.append((frozenset([q1, q2]), (HALF, -HALF)))
            parts.append((frozenset(), (HALF, HALF)))
        new: dict[frozenset[int], tuple[Fraction, Fraction]] = {}
        for s1, c1 in poly.items():
            for s2, c2 in parts:
                s = s1 ^ s2
                prod = _mul(c1, c2)
                if s in new:
                    old = new[s]
                    new[s] = (old[0] + prod[0], old[1] + prod[1])
                else:
                    new[s] = prod
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

@dataclass(frozen=True)
class Gate:
    name: str  # 'h' | 'cx' | 'rz'
    qubits: tuple[int, ...]
    angle: float | None = None


@dataclass
class Circuit:
    n_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def h(self, q: int):
        self._add(Gate("h", (q,)))

    def cx(self, ctrl: int, tgt: int):
        if ctrl == tgt:
            raise ValueError(f"cx control and target are both qubit {ctrl}")
        self._add(Gate("cx", (ctrl, tgt)))

    def rz(self, q: int, angle: float):
        if not math.isfinite(angle):
            raise ValueError("rz angle must be finite")
        self._add(Gate("rz", (q,), angle))

    def _add(self, gate: Gate):
        if not all(0 <= q < self.n_qubits for q in gate.qubits):
            raise ValueError(f"{gate.name} on qubits {gate.qubits} outside [0, {self.n_qubits})")
        self.gates.append(gate)

    def extend(self, other: "Circuit"):
        if other.n_qubits > self.n_qubits:
            raise ValueError(f"cannot extend a {self.n_qubits}-qubit circuit by a {other.n_qubits}-qubit one")
        self.gates.extend(other.gates)

    def repeated(self, steps: int) -> "Circuit":
        """A new circuit of this one's gates `steps` >= 1 times over."""
        if steps < 1:
            raise ValueError("steps must be >= 1")
        return Circuit(self.n_qubits, self.gates * steps)

    def to_qasm(self) -> str:
        lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{self.n_qubits}];"]
        for g in self.gates:
            if g.name == "h":
                lines.append(f"h q[{g.qubits[0]}];")
            elif g.name == "cx":
                lines.append(f"cx q[{g.qubits[0]}],q[{g.qubits[1]}];")
            elif g.name == "rz":
                lines.append(f"rz({g.angle!r}) q[{g.qubits[0]}];")
            else:
                raise ValueError(f"unknown gate {g.name}")
        return "\n".join(lines) + "\n"


def diagonal_z_terms(cfg: LatticeConfig):
    """The diagonal Hamiltonian as (constant, {site: coef}, {(a,b): coef})
    in the physical z convention (bit 1 means z = +1)."""
    singles: dict[int, float] = {}
    pairs: dict[tuple[int, int], float] = {}
    const = 0.0
    if cfg.bc is BoundaryCondition.PERIODIC:
        jz = j_zz(cfg.lam)
        for p, q in bonds(cfg):
            key = (min(p, q), max(p, q))
            pairs[key] = pairs.get(key, 0.0) + jz
        return const, singles, pairs
    hp, hpp = h_plus(cfg.lam), h_plusplus(cfg.lam)
    for p in range(cfg.n_plaq):
        const += hp / 2.0
        singles[p] = singles.get(p, 0.0) + hp / 2.0
    for p, q in bonds(cfg):
        if q < 0:
            continue
        const -= hpp / 4.0
        singles[p] = singles.get(p, 0.0) - hpp / 4.0
        singles[q] = singles.get(q, 0.0) - hpp / 4.0
        key = (min(p, q), max(p, q))
        pairs[key] = pairs.get(key, 0.0) - hpp / 4.0
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
    require_nondegenerate(cfg)
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
    require_nondegenerate(cfg)
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
    phase constants are dropped."""
    circ = emit_diagonal_part(cfg, dt)
    circ.extend(emit_magnetic_part(cfg, dt))
    return circ


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
        elif g.name == "rz":
            v = out.reshape(-1, 2, 1 << q, k)
            v[:, 0] *= np.exp(-1j * (g.angle / 2.0))
            v[:, 1] *= np.exp(1j * (g.angle / 2.0))
        else:
            raise ValueError(f"unknown gate {g.name}")
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
