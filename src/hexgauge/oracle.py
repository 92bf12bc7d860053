"""Ground-truth construction of the truncated gauge theory in the link basis.

Everything here works directly with j-assignments on honeycomb edges and
never touches the spin mapping, so it can certify that mapping.  Edges are
keyed by (plaquette, forward direction) which enumerates each physical
link exactly once, including on small tori where two hexagons share two
links.  A hexagon's six vertices are the consecutive pairs of its neighbor
chain; the external link at vertex K is the edge shared by chain neighbors
K and K+1.

Gauss's law in the j_max = 1/2 truncation is the statement that every
vertex touches an even number (0 or 2) of j = 1/2 links, so the allowed
configurations form a GF(2) null space which is enumerated exactly.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

import numpy as np
import scipy.sparse

from .lattice import LatticeConfig

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Wigner 6j symbol (Racah formula) and plaquette vertex elements
# ---------------------------------------------------------------------------

def _as_twice(j) -> int:
    """A half-integer as the exact integer 2j; rejects anything else."""
    tj = 2 * Fraction(j).limit_denominator(10**6)
    if tj.denominator != 1 or tj < 0:
        raise ValueError(f"expected a non-negative half-integer, got {j}")
    return int(tj)


def _triangle_ok(ta: int, tb: int, tc: int) -> bool:
    # args are doubled j's
    if (ta + tb + tc) % 2 != 0:
        return False
    return abs(ta - tb) <= tc <= ta + tb


def _fact(n: int) -> int:
    return math.factorial(n)


def _delta_sq(ta: int, tb: int, tc: int) -> Fraction:
    """Squared triangle coefficient, exact rational; args are doubled j's."""
    return Fraction(
        _fact((ta + tb - tc) // 2) * _fact((ta - tb + tc) // 2) * _fact((-ta + tb + tc) // 2),
        _fact((ta + tb + tc) // 2 + 1),
    )


def _racah_parts(j1, j2, j3, j4, j5, j6):
    """(radicand, rational sum) with 6j = sign(sum)*sqrt(radicand*sum^2)."""
    t = [_as_twice(j) for j in (j1, j2, j3, j4, j5, j6)]
    triads = [(t[0], t[1], t[2]), (t[0], t[4], t[5]), (t[3], t[1], t[5]), (t[3], t[4], t[2])]
    for tri in triads:
        if not _triangle_ok(*tri):
            return Fraction(0), Fraction(0)
    rad = Fraction(1)
    for tri in triads:
        rad *= _delta_sq(*tri)
    quads = [
        (t[0] + t[1] + t[3] + t[4]) // 2,
        (t[1] + t[2] + t[4] + t[5]) // 2,
        (t[2] + t[0] + t[5] + t[3]) // 2,
    ]
    tri_sums = [sum(tri) // 2 for tri in triads]
    total = Fraction(0)
    for z in range(max(tri_sums), min(quads) + 1):
        num = _fact(z + 1)
        den = 1
        for ts in tri_sums:
            den *= _fact(z - ts)
        for qs in quads:
            den *= _fact(qs - z)
        total += Fraction((-1) ** z * num, den)
    return rad, total


def wigner_6j(j1, j2, j3, j4, j5, j6) -> float:
    """Wigner 6j-symbol {j1 j2 j3; j4 j5 j6} via the Racah formula.

    Returns 0 when any triangle condition fails; raises on non-half-integer
    arguments.
    """
    rad, total = _racah_parts(j1, j2, j3, j4, j5, j6)
    if total == 0:
        return 0.0
    return math.copysign(math.sqrt(float(rad * total * total)), total)


def _exact_sqrt(q: Fraction) -> float | None:
    """sqrt(q) as an exact float when q is a perfect rational square."""
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return rn / rd
    return None


_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)


def vertex_element(J_a, J_b, j_a, j_b, j_x) -> complex:
    """<(J_a, j_x, J_b)| M_V |(j_a, j_x, j_b)> for one plaquette vertex.

    The phase (-1)^(j_a + J_b + j_x) is resolved as exp(i*pi*(...)), and the
    square root is taken exactly whenever the radicand is a perfect rational
    square, so the truncated-space values come out exact.
    """
    rad, total = _racah_parts(j_x, j_a, j_b, HALF, J_b, J_a)
    if total == 0:
        return 0j
    phase = _I_POW[(_as_twice(j_a) + _as_twice(J_b) + _as_twice(j_x)) % 4]
    pre = (2 * Fraction(J_a) + 1) * (2 * Fraction(j_b) + 1)
    radicand = pre * rad * total * total
    mag = _exact_sqrt(radicand)
    if mag is None:
        mag = math.sqrt(float(radicand))
    if total < 0:
        mag = -mag
    return phase * mag


def vertex_factor_table() -> dict[tuple[int, int, int], complex]:
    """M_V for every truncated vertex transition, keyed by the initial
    (j_a, j_x, j_b) edge bits (1 means j = 1/2).  Both internal links
    toggle; the external link is a spectator."""
    table = {}
    for a, x, b in itertools.product((0, 1), repeat=3):
        ja, jx, jb = HALF * a, HALF * x, HALF * b
        table[(a, x, b)] = vertex_element(HALF - ja, HALF - jb, ja, jb, jx)
    return table


# ---------------------------------------------------------------------------
# Honeycomb edge/vertex geometry in plaquette-adjacency form
# ---------------------------------------------------------------------------

# Edge slots of hexagon p, K = 0..5: (plaquette offset, forward direction).
_EDGE_SLOT = (((0, 0), 0), ((0, 0), 1), ((0, 0), 2), ((0, -1), 0), ((-1, 0), 1), ((-1, 1), 2))

# External link at vertex K of hexagon p (the edge joining chain neighbors
# K and K+1), same encoding.
_X_SLOT = (((0, 1), 2), ((1, -1), 0), ((0, -1), 1), ((-1, 0), 2), ((-1, 0), 0), ((-1, 1), 1))


@dataclass
class GaugeGeometry:
    """Edge index and vertex structure for one lattice."""

    index: dict[tuple[int, int, int], int] = field(default_factory=dict)
    hex_edges: list[list[int]] = field(default_factory=list)  # 6 edge ids per plaquette
    hex_x: list[list[int]] = field(default_factory=list)  # 6 external ids (-1 = fixed 0)
    hexmasks: list[int] = field(default_factory=list)

    @property
    def n_edges(self) -> int:
        return len(self.index)


def _edge_key(cfg: LatticeConfig, i: int, j: int, d: int):
    if cfg.periodic:
        return (i % cfg.nx, j % cfg.ny, d)
    return (i, j, d)


def build_geometry(cfg: LatticeConfig) -> GaugeGeometry:
    geo = GaugeGeometry()
    cells = [(i, j) for j in range(cfg.ny) for i in range(cfg.nx)]
    # First pass registers every dynamical edge (edges of in-lattice
    # hexagons); the scan order fixes the edge numbering.
    for i, j in cells:
        ids = [geo.index.setdefault(_edge_key(cfg, i + di, j + dj, d), len(geo.index))
               for (di, dj), d in _EDGE_SLOT]
        geo.hex_edges.append(ids)
        mask = 0
        for e in ids:
            mask ^= 1 << e  # XOR: a doubly-traversed link does not toggle
        geo.hexmasks.append(mask)
    # Second pass resolves external links; keys never seen above belong to
    # two outside hexagons and are fixed j = 0 (closed BC only).
    for i, j in cells:
        geo.hex_x.append([geo.index.get(_edge_key(cfg, i + di, j + dj, d), -1)
                          for (di, dj), d in _X_SLOT])
    return geo


def vertex_constraints(geo: GaugeGeometry) -> list[int]:
    """Gauss parity checks as bitmasks over edge ids, deduplicated."""
    rows = {}
    for es, xs in zip(geo.hex_edges, geo.hex_x):
        for k in range(6):
            mask = sum(1 << e for e in {es[k], es[(k + 1) % 6], xs[k]} if e >= 0)
            if mask:
                rows[mask] = None
    return list(rows)


def _gf2_nullspace(rows: list[int], n_vars: int) -> tuple[list[int], list[int]]:
    """Basis of the GF(2) null space of the parity-check rows, and its free
    columns: basis[i] is the one vector with bit free[i] set and no other
    free bit, so a null-space vector's coordinates are its free bits."""
    pivots: dict[int, int] = {}
    for row in rows:
        r = row
        while r:
            lead = r.bit_length() - 1
            if lead in pivots:
                r ^= pivots[lead]
            else:
                pivots[lead] = r
                break
    # Full reduction: after this every pivot row holds its lead bit plus
    # free columns only.
    for lead in sorted(pivots, reverse=True):
        for other in pivots:
            if other != lead and (pivots[other] >> lead) & 1:
                pivots[other] ^= pivots[lead]
    basis, free = [], [f for f in range(n_vars) if f not in pivots]
    for f in free:
        vec = 1 << f
        for lead, row in pivots.items():
            if (row >> f) & 1:
                vec |= 1 << lead
        basis.append(vec)
    # Verify against every original check row; catches elimination bugs.
    for vec in basis:
        for row in rows:
            if (vec & row).bit_count() % 2:
                raise RuntimeError(f"null-space vector {vec:#x} violates check row {row:#x}")
    return basis, free


@dataclass
class GaugeEnumeration:
    """Gauss-law configurations in null-space coordinates.

    A config is an int64 x: the XOR of basis[i] over the set bits of x, so
    every x < n_gauss is a Gauss-law state, and its link l carries j = 1/2
    when x & link_rows[l] has odd parity.  toggles[p] holds the coordinates
    of plaquette p's hexmask; reachable is their span in spin order:
    reachable[s] is the XOR of the independent toggles, in plaquette order,
    over the set bits of s.
    """

    geo: GaugeGeometry
    basis: list[int]
    link_rows: np.ndarray
    toggles: np.ndarray
    reachable: np.ndarray

    @property
    def n_gauss(self) -> int:
        return 1 << len(self.basis)

    @property
    def n_reachable(self) -> int:
        return len(self.reachable)

    def link(self, configs: np.ndarray, l: int) -> np.ndarray:
        """Bit l of each config's link word (int64 0/1); l = -1 reads the
        trailing 0 row, the fixed j = 0 of an outside link."""
        return (np.bitwise_count(configs & self.link_rows[l]) & 1).astype(np.int64)

    def position(self, configs) -> np.ndarray:
        """Index of each config in reachable; raises if one is not there.

        Bit i is the parity against the dual row of gen_i = reachable[1 << i],
        read off the null space of config = sum_i s_i gen_i: its free columns
        are config bits, and s is linear in them.
        """
        k, gens = len(self.basis), self.reachable[1 << np.arange(self.n_reachable.bit_length() - 1)]
        rows = [(1 << m) | sum(((int(g) >> m) & 1) << (k + i) for i, g in enumerate(gens)) for m in range(k)]
        vecs, free = _gf2_nullspace(rows, k + len(gens))
        pos = np.zeros_like(configs, dtype=np.int64)
        for i in range(len(gens)):
            dual = sum(((vec >> (k + i)) & 1) << f for vec, f in zip(vecs, free))
            pos |= (np.bitwise_count(configs & dual) & 1).astype(np.int64) << i
        if not np.array_equal(self.reachable[pos], configs):
            raise ValueError("config outside the vacuum-connected set")
        return pos


def enumerate_gauge_states(cfg: LatticeConfig) -> GaugeEnumeration:
    """All Gauss-law configurations plus the vacuum-connected subset.

    The full set is the GF(2) null space of the vertex parity checks; the
    reachable subset is the span of the single-plaquette toggles, built by
    doubling from the vacuum.
    """
    geo = build_geometry(cfg)
    rows = vertex_constraints(geo)
    basis, free = _gf2_nullspace(rows, geo.n_edges)
    if len(basis) > 24:
        raise ValueError(f"gauge null space too large to enumerate ({len(basis)} generators)")
    for p, mask in enumerate(geo.hexmasks):
        if any((mask & row).bit_count() % 2 for row in rows):
            raise RuntimeError(f"plaquette {p} toggle violates Gauss's law")
    link_rows = np.array(
        [sum(1 << i for i, vec in enumerate(basis) if (vec >> l) & 1) for l in range(geo.n_edges)] + [0],
        dtype=np.int64,
    )
    toggles = np.array(
        [sum(((mask >> f) & 1) << i for i, f in enumerate(free)) for mask in geo.hexmasks],
        dtype=np.int64,
    )
    reachable = np.zeros(1, dtype=np.int64)
    for t in toggles:
        if t not in reachable:  # a toggle inside the span maps it onto itself
            reachable = np.concatenate([reachable, reachable ^ t])
    return GaugeEnumeration(geo, basis, link_rows, toggles, reachable)


# ---------------------------------------------------------------------------
# KS Hamiltonian in the gauge basis and the isomorphism certificate
# ---------------------------------------------------------------------------

def electric_link_energy(lam: float) -> float:
    """Per-link electric energy of a j = 1/2 link: (3*sqrt(3)/4)*lam * j(j+1)."""
    return 3.0 * math.sqrt(3.0) / 4.0 * lam * 0.75


def magnetic_coupling(lam: float) -> float:
    """Plaquette-term prefactor 4*sqrt(3)/(9*lam)."""
    return 4.0 * math.sqrt(3.0) / (9.0 * lam)


@cache
def plaquette_table() -> np.ndarray:
    """The plaquette element for every local pattern of a hexagon's links.

    Bit k of the index is its edge K = k and bit 6 + k its external link at
    vertex k; the value is the product of the six vertex factors, NaN where
    a vertex violates Gauss's law.  Raises unless every allowed product is
    real and its B->C and C->B vertices pair up.
    """
    factors = vertex_factor_table()
    table = np.full(4096, np.nan)
    for local in range(4096):
        prod = 1 + 0j
        n_bc = n_cb = 0
        for k in range(6):
            a, b, x = (local >> k) & 1, (local >> (k + 1) % 6) & 1, (local >> (6 + k)) & 1
            prod *= factors[(a, x, b)]
            n_bc += x & a  # (1/2, 1/2, 0) is a B -> C transition
            n_cb += x & (1 - a)
        if prod == 0:
            continue
        if n_bc != n_cb:
            raise RuntimeError(f"unbalanced B->C / C->B vertex counts in local pattern {local:#x}")
        if abs(prod.imag) >= 1e-12:
            raise RuntimeError(f"plaquette element not real: {prod}")
        table[local] = prod.real
    table.flags.writeable = False
    return table


def plaquette_element(enum: GaugeEnumeration, configs: np.ndarray, p: int) -> np.ndarray:
    """<config XOR hexmask | plaquette_p | config> for each config, gathered
    from plaquette_table by the 12 local link bits."""
    geo = enum.geo
    local = np.zeros_like(configs)
    for k, l in enumerate(geo.hex_edges[p] + geo.hex_x[p]):
        local |= enum.link(configs, l) << k
    values = plaquette_table()[local]
    if np.isnan(values).any():
        raise ValueError(f"plaquette {p} hit a Gauss-violating vertex")
    return values


def ks_hamiltonian(cfg: LatticeConfig, enum: GaugeEnumeration | None = None):
    """KS Hamiltonian (units of 1/a) over the reachable gauge configs.

    Diagonal: per-link electric energies plus the constant 2 per plaquette
    from the magnetic term.  Off-diagonal: -(4*sqrt(3)/(9*lam)) times the
    plaquette matrix element from the 6j vertex factors.
    """
    from .hamiltonian import SparseOperator

    if enum is None:
        enum = enumerate_gauge_states(cfg)
    configs, n = enum.reachable, enum.n_reachable
    hmag = magnetic_coupling(cfg.lam)
    n_up = sum(enum.link(configs, l) for l in range(enum.geo.n_edges))
    # column g holds the diagonal, then one entry per plaquette toggle
    rows = np.empty((cfg.n_plaq + 1, n), dtype=np.int32)
    vals = np.empty(rows.shape)
    rows[0] = np.arange(n)
    vals[0] = electric_link_energy(cfg.lam) * n_up + 2.0 * cfg.n_plaq * hmag
    # position is linear: toggling p takes index s to s ^ position(toggle p)
    for p, moved in enumerate(enum.position(enum.toggles)):
        rows[p + 1] = rows[0] ^ moved
        vals[p + 1] = -hmag * plaquette_element(enum, configs, p)
    cols = np.tile(rows[0], len(rows))
    mat = scipy.sparse.coo_matrix((vals.ravel(), (rows.ravel(), cols)), shape=(n, n)).tocsr()
    mat.sort_indices()
    return SparseOperator(mat, cfg, "gauge-reachable")


@dataclass
class CertReport:
    cfg: LatticeConfig
    n_gauss: int
    n_reachable: int
    spin_dim: int
    shift: float
    max_deviation: float
    passed: bool
    worst_entry: tuple[int, int] | None = None
    nontrivial_signs: int = 0

    def to_dict(self) -> dict:
        return {
            "config": self.cfg.to_dict(),
            "gauss_states": self.n_gauss,
            "reachable_states": self.n_reachable,
            "spin_dim": self.spin_dim,
            "fitted_shift": self.shift,
            "max_deviation": self.max_deviation,
            "nontrivial_signs": self.nontrivial_signs,
            "passed": self.passed,
            "worst_entry": list(self.worst_entry) if self.worst_entry else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


TOL_CERT = 1e-10


def certify_isomorphism(cfg: LatticeConfig, perturbation: float | None = None) -> CertReport:
    """Certify that the spin model reproduces the gauge-basis Hamiltonian.

    Maps each spin basis state to the gauge config obtained by toggling its
    up plaquettes, then compares matrices entrywise allowing one uniform
    diagonal shift and a per-state sign gauge (fitted, expected trivial).
    `perturbation` is a fault-injection hook: it is added to the stored
    (0, 1) entry of the spin matrix so tests can see a located failure.
    """
    from .hamiltonian import build_hamiltonian

    enum = enumerate_gauge_states(cfg)
    spin = build_hamiltonian(cfg)
    if perturbation:
        spin.matrix[0, 1] += perturbation  # a stored entry: changed in place
    dim = spin.dim
    if dim != enum.n_reachable:
        raise ValueError(f"state count mismatch: spin {dim} vs gauge {enum.n_reachable}")
    # Spin state s toggles its up plaquettes: reachable[s] when the first
    # `bits` toggles are the coordinate axes.  Under periodic BC its flip
    # partner toggles the others, the same config when all toggles XOR to 0.
    bits = dim.bit_length() - 1
    if not np.array_equal(enum.position(enum.toggles[:bits]), 1 << np.arange(bits)):
        raise ValueError("plaquette-toggle map is not a bijection")
    if cfg.periodic and np.bitwise_xor.reduce(enum.toggles) != 0:
        raise RuntimeError("flip pair of state 0x0 maps to two configs")

    a = spin.matrix
    b = ks_hamiltonian(cfg, enum).matrix

    shift = float(np.mean(b.diagonal() - a.diagonal()))

    # Per-state sign gauge (expected all +1), fitted along the tree joining s
    # to s minus its top bit, one plaquette flip; the residual checks the rest.
    signs = np.ones(dim)
    for i in range(bits):
        s = np.arange(1 << i, 2 << i)
        edge = np.asarray(a[s, s - (1 << i)]).ravel() * np.asarray(b[s, s - (1 << i)]).ravel()
        signs[s] = np.where(edge < 0, -1.0, 1.0) * signs[: 1 << i]
    nontrivial = int(np.sum(signs < 0))
    if nontrivial:  # b -> D b D in place
        b.data *= np.repeat(signs, np.diff(b.indptr)) * signs[b.indices]

    # Stored entries of the canonical residual, in row-major order: argmax
    # picks the first worst entry, as over the dense array.
    resid = abs(b - a - shift * scipy.sparse.identity(dim))
    resid.sum_duplicates()
    max_dev = float(resid.data.max(initial=0.0))
    worst = None
    if max_dev >= TOL_CERT:
        k = int(np.argmax(resid.data))
        worst = (int(np.searchsorted(resid.indptr, k, side="right")) - 1, int(resid.indices[k]))
    return CertReport(
        cfg=cfg,
        n_gauss=enum.n_gauss,
        n_reachable=enum.n_reachable,
        spin_dim=dim,
        shift=shift,
        max_deviation=max_dev,
        passed=bool(max_dev < TOL_CERT),
        worst_entry=worst,
        nontrivial_signs=nontrivial,
    )
