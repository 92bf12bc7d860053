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
from functools import cache, reduce
from math import factorial
from operator import xor

import numpy as np

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


def _delta_sq(ta: int, tb: int, tc: int) -> Fraction:
    """Squared triangle coefficient, exact rational; args are doubled j's."""
    return Fraction(
        factorial((ta + tb - tc) // 2) * factorial((ta - tb + tc) // 2) * factorial((-ta + tb + tc) // 2),
        factorial((ta + tb + tc) // 2 + 1),
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
        num = factorial(z + 1)
        den = 1
        for ts in tri_sums:
            den *= factorial(z - ts)
        for qs in quads:
            den *= factorial(qs - z)
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


def _eliminate(vectors: list[int]) -> tuple[list[int], list[int]]:
    """Ordered GF(2) elimination: the indices of the vectors independent of
    the ones before them, and per vector its coordinates over those members."""
    pivots: dict[int, tuple[int, int]] = {}  # lead bit -> (reduced vector, its coordinates)
    indep, coords = [], []
    for j, r in enumerate(vectors):
        c = 0
        while r and (lead := r.bit_length() - 1) in pivots:
            r, c = r ^ pivots[lead][0], c ^ pivots[lead][1]
        if r:  # vectors[j] is a new member, and r is it plus the members over c
            pivots[lead], c = (r, c | 1 << len(indep)), 1 << len(indep)
            indep.append(j)
        coords.append(c)
    return indep, coords


def _combine(members: list[int], coords: int) -> int:
    """XOR of members[i] over the set bits i of coords."""
    return reduce(xor, (vec for i, vec in enumerate(members) if (coords >> i) & 1), 0)


def _gf2_nullspace(rows: list[int], n_vars: int) -> list[int]:
    """Basis of the GF(2) null space of the parity-check rows: one vector per
    check column that is the XOR of earlier columns, setting it and those."""
    cols = [sum(((row >> l) & 1) << r for r, row in enumerate(rows)) for l in range(n_vars)]
    indep, coords = _eliminate(cols)
    units = [1 << l for l in indep]
    basis = [vec for l, c in enumerate(coords) if (vec := (1 << l) ^ _combine(units, c))]
    # Verify against every original check row; catches elimination bugs.
    for vec in basis:
        for row in rows:
            if (vec & row).bit_count() % 2:
                raise RuntimeError(f"null-space vector {vec:#x} violates check row {row:#x}")
    return basis


@dataclass
class GaugeEnumeration:
    """Gauss-law configurations as coordinates over a toggle-led basis.

    A config is an int64 x: the XOR of basis[i] over the set bits of x, so
    every x < n_gauss is a Gauss-law state, and its link l carries j = 1/2
    when x & link_rows[l] has odd parity.  basis[:m] are the independent
    plaquette toggles' hexmasks in plaquette order, so the vacuum-connected
    configs are the s < n_reachable = 2^m, each toggling those at its set
    bits.  toggles[p] holds the coordinates of plaquette p's hexmask.
    """

    geo: GaugeGeometry
    basis: list[int]
    link_rows: np.ndarray
    toggles: np.ndarray
    n_reachable: int

    @property
    def n_gauss(self) -> int:
        return 1 << len(self.basis)

    @property
    def reachable(self) -> np.ndarray:
        """The vacuum-connected configs, each its own index."""
        return np.arange(self.n_reachable, dtype=np.int64)

    def link(self, configs: np.ndarray, l: int) -> np.ndarray:
        """Bit l of each config's link word (int64 0/1); l = -1 reads the
        trailing 0 row, the fixed j = 0 of an outside link."""
        return (np.bitwise_count(configs & self.link_rows[l]) & 1).astype(np.int64)


def enumerate_gauge_states(cfg: LatticeConfig) -> GaugeEnumeration:
    """All Gauss-law configurations plus the vacuum-connected subset.

    The full set is the GF(2) null space of the vertex parity checks.  One
    elimination of the plaquette toggles, then that null space, gives a basis
    led by the independent toggles, whose span is the reachable subset.
    """
    geo = build_geometry(cfg)
    rows = vertex_constraints(geo)
    null = _gf2_nullspace(rows, geo.n_edges)
    if len(null) > 24:
        raise ValueError(f"gauge null space too large to enumerate ({len(null)} generators)")
    for p, mask in enumerate(geo.hexmasks):
        if any((mask & row).bit_count() % 2 for row in rows):
            raise RuntimeError(f"plaquette {p} toggle violates Gauss's law")
    vectors = geo.hexmasks + null
    indep, coords = _eliminate(vectors)
    basis = [vectors[i] for i in indep]
    for vec, c in zip(vectors, coords):
        if c >> len(basis) or _combine(basis, c) != vec:
            raise RuntimeError(f"coordinates {c:#x} do not give the vector {vec:#x}")
    link_rows = [sum(((vec >> l) & 1) << i for i, vec in enumerate(basis)) for l in range(geo.n_edges)]
    toggles = np.array(coords[:cfg.n_plaq], dtype=np.int64)
    return GaugeEnumeration(geo, basis, np.array(link_rows + [0], dtype=np.int64), toggles,
                            1 << sum(i < cfg.n_plaq for i in indep))


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
    # row g: the diagonal, then per toggle its element read at the column t it maps onto g
    cols = np.empty((n, cfg.n_plaq + 1), dtype=np.int32)
    vals = np.empty(cols.shape)
    cols[:, 0] = np.arange(n)
    vals[:, 0] = electric_link_energy(cfg.lam) * n_up + 2.0 * cfg.n_plaq * hmag
    # toggling p takes config s, its own index, to s ^ toggles[p]
    for p, moved in enumerate(enum.toggles):
        cols[:, p + 1] = t = cols[:, 0] ^ moved
        vals[:, p + 1] = (-hmag * plaquette_element(enum, configs, p))[t]
    mat = SparseOperator.rows_csr(cols, vals)
    return SparseOperator(mat, "gauge-reachable")


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


def certify_isomorphism(cfg: LatticeConfig) -> CertReport:
    """Certify that the spin model reproduces the gauge-basis Hamiltonian.

    Maps each spin basis state to the gauge config obtained by toggling its
    up plaquettes, then compares matrices entrywise allowing one uniform
    diagonal shift and a per-state sign gauge (fitted, expected trivial).
    """
    from .hamiltonian import build_hamiltonian

    # the spin side first: basis_dim refuses a lattice over the cap before the GF(2) elimination
    spin = build_hamiltonian(cfg)
    enum = enumerate_gauge_states(cfg)
    dim = spin.dim
    if dim != enum.n_reachable:
        raise ValueError(f"state count mismatch: spin {dim} vs gauge {enum.n_reachable}")
    # Spin state s toggles its up plaquettes: config s when the first `bits`
    # toggles are the coordinate axes.  Under periodic BC its flip partner
    # toggles the others, the same config when all toggles XOR to 0.
    bits = dim.bit_length() - 1
    if not np.array_equal(enum.toggles[:bits], 1 << np.arange(bits)):
        raise ValueError("plaquette-toggle map is not a bijection")
    if cfg.periodic and np.bitwise_xor.reduce(enum.toggles) != 0:
        raise RuntimeError("flip pair of state 0x0 maps to two configs")

    a = spin.matrix
    b = ks_hamiltonian(cfg, enum).matrix
    if not (np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)):
        raise ValueError("spin and gauge matrices store different entries")
    # Entries grow like max(lam, 1/lam): allow a few ulp of the largest one.
    top = max(max(m.data.max(initial=0), -m.data.min(initial=0)) for m in (a, b))  # no |data| copy
    tol = max(TOL_CERT, 64 * np.finfo(float).eps * top)

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

    # The residual (b - a) - shift over the shared stored entries, in place in
    # b; argmax picks the first worst entry in row-major order, as dense would.
    b.data -= a.data
    b.setdiag(b.diagonal() - shift)
    np.abs(b.data, out=b.data)
    max_dev = float(b.data.max(initial=0.0))
    worst = None
    if max_dev >= tol:
        k = int(np.argmax(b.data))
        worst = (int(np.searchsorted(b.indptr, k, side="right")) - 1, int(b.indices[k]))
    return CertReport(
        cfg=cfg,
        n_gauss=enum.n_gauss,
        n_reachable=enum.n_reachable,
        spin_dim=dim,
        shift=shift,
        max_deviation=max_dev,
        passed=bool(max_dev < tol),
        worst_entry=worst,
        nontrivial_signs=nontrivial,
    )
