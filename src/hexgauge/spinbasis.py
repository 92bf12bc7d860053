"""Spin basis states, the global-flip quotient, and momentum sectors.

A basis state is an N-bit integer with bit (i + nx*j) set when the
plaquette at (i, j) is spin-up.  Under periodic BC a state and its global
flip describe the same gauge configuration, so the working basis keeps the
numerically smaller member of each pair.  Momentum states are built on top
of translation orbits of that quotient.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .lattice import BoundaryCondition, LatticeConfig

# Hard cap so a careless config cannot try to materialize gigabytes of states.
MAX_BITS = 22

NORM_EPS = 1e-12


def _check_capacity(cfg: LatticeConfig):
    if cfg.n_plaq > MAX_BITS:
        raise ValueError(
            f"{cfg.nx}x{cfg.ny} lattice has {cfg.n_plaq} plaquettes; "
            f"enumeration is capped at {MAX_BITS}"
        )


def full_mask(cfg: LatticeConfig) -> int:
    return (1 << cfg.n_plaq) - 1


def complement(s: int, cfg: LatticeConfig) -> int:
    return s ^ full_mask(cfg)


def canonicalize(s: int, cfg: LatticeConfig) -> tuple[int, bool]:
    """Global-flip representative: the smaller of (s, complement) and a flag."""
    t = complement(s, cfg)
    if t < s:
        return t, True
    return s, False


def enumerate_basis(cfg: LatticeConfig) -> list[int]:
    """All basis states in increasing order.

    Closed BC: the full 2^N states.  Periodic BC: the 2^(N-1) canonical
    states, one per global-flip pair.
    """
    _check_capacity(cfg)
    n = cfg.n_plaq
    if cfg.bc is BoundaryCondition.CLOSED:
        return list(range(1 << n))
    # s < complement(s) picks exactly one member of each flip pair; the
    # canonical states are precisely those with the top bit clear.
    return list(range(1 << (n - 1)))


def state_array(cfg: LatticeConfig, quotient: bool) -> np.ndarray:
    """The flip-quotient basis (quotient=True) or all 2^N states, as int64."""
    _check_capacity(cfg)
    return np.arange(1 << (cfg.n_plaq - quotient), dtype=np.int64)


@lru_cache(maxsize=None)
def _translation_perm(nx: int, ny: int, rx: int, ry: int) -> tuple[int, ...]:
    """perm[src_site] = destination site under a shift by (rx, ry)."""
    perm = []
    for j in range(ny):
        for i in range(nx):
            perm.append((i + rx) % nx + nx * ((j + ry) % ny))
    return tuple(perm)


def translate(s: int, rx: int, ry: int, cfg: LatticeConfig) -> int:
    """Cyclically shift all plaquette occupations by (rx, ry).

    Only meaningful under periodic BC.  The result is not re-canonicalized.
    """
    if not cfg.periodic:
        raise ValueError("translation is only defined for periodic BC")
    perm = _translation_perm(cfg.nx, cfg.ny, rx % cfg.nx, ry % cfg.ny)
    t = 0
    while s:
        low = s & -s
        t |= 1 << perm[low.bit_length() - 1]
        s ^= low
    return t


@dataclass
class OrbitTable:
    """Orbits of the group generated by T_x, T_y and the global flip.

    reps are the numerically smallest canonical states of their orbits.
    to_rep maps every canonical state to (rep, rx, ry) such that the state
    equals translate(rep, rx, ry) up to a global flip; the first (rx, ry)
    in row-major scan order is stored.
    """

    cfg: LatticeConfig
    reps: list[int] = field(default_factory=list)
    to_rep: dict[int, tuple[int, int, int]] = field(default_factory=dict)


def build_orbit_table(cfg: LatticeConfig) -> OrbitTable:
    if not cfg.periodic:
        raise ValueError("orbits are only defined for periodic BC")
    _check_capacity(cfg)
    table = OrbitTable(cfg)
    seen = table.to_rep
    for s in enumerate_basis(cfg):
        if s in seen:
            continue
        # s is the smallest canonical state of its orbit because the scan
        # is in increasing order.
        table.reps.append(s)
        for ry in range(cfg.ny):
            for rx in range(cfg.nx):
                t, _ = canonicalize(translate(s, rx, ry, cfg), cfg)
                if t not in seen:
                    seen[t] = (s, rx, ry)
    return table


def momentum_phase(cfg: LatticeConfig, nx_q: int, ny_q: int, rx: int, ry: int) -> complex:
    """exp(-i(k_x rx + k_y ry)) for k = 2*pi*(nx_q/nx, ny_q/ny).

    Computed from the reduced rational angle so that all phases are exact
    roots of unity (up to one cmath.exp rounding).
    """
    num = (nx_q * rx * cfg.ny + ny_q * ry * cfg.nx) % (cfg.nx * cfg.ny)
    return cmath.exp(-2j * cmath.pi * num / (cfg.nx * cfg.ny))


@dataclass
class MomentumSector:
    """One (k_x, k_y) block of the translation-diagonal basis.

    reps holds the orbit representatives whose momentum state survives, in
    increasing order; norms holds the matching normalization factors N_a.
    index maps representative -> position in reps.
    """

    cfg: LatticeConfig
    nx_q: int
    ny_q: int
    reps: list[int]
    norms: list[float]
    orbits: OrbitTable
    index: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.index:
            self.index = {r: a for a, r in enumerate(self.reps)}

    @property
    def dim(self) -> int:
        return len(self.reps)

    def amplitudes(self, rep: int) -> dict[int, complex]:
        """Unnormalized amplitude of each canonical state in |rep(k)>."""
        amps: dict[int, complex] = {}
        for ry in range(self.cfg.ny):
            for rx in range(self.cfg.nx):
                t, _ = canonicalize(translate(rep, rx, ry, self.cfg), self.cfg)
                amps[t] = amps.get(t, 0j) + momentum_phase(self.cfg, self.nx_q, self.ny_q, rx, ry)
        return amps

    def to_dict(self) -> dict:
        return {
            "nx_q": self.nx_q,
            "ny_q": self.ny_q,
            "dim": self.dim,
            "reps": [format(r, "x") for r in self.reps],
            "norms": self.norms,
        }


def build_sector(
    cfg: LatticeConfig, nx_q: int, ny_q: int, orbits: OrbitTable | None = None
) -> MomentumSector:
    """Assemble the momentum sector (nx_q, ny_q).

    N_a is obtained by summing the translation sweep explicitly, routing
    every translate through canonicalize so the flip identification is
    accounted for; representatives whose phase sum cancels are dropped.
    """
    if not cfg.periodic:
        raise ValueError("momentum sectors require periodic BC")
    if cfg.nx < 2 or cfg.ny < 2:
        raise ValueError("momentum features need nx >= 2 and ny >= 2")
    if not (0 <= nx_q < cfg.nx and 0 <= ny_q < cfg.ny):
        raise ValueError(f"momentum ({nx_q},{ny_q}) out of range for {cfg.nx}x{cfg.ny}")
    if orbits is None:
        orbits = build_orbit_table(cfg)
    sector = MomentumSector(cfg, nx_q, ny_q, [], [], orbits)
    for rep in orbits.reps:
        norm = sum(abs(a) ** 2 for a in sector.amplitudes(rep).values())
        if norm > NORM_EPS:
            sector.index[rep] = len(sector.reps)
            sector.reps.append(rep)
            sector.norms.append(norm)
    return sector


def all_sectors(cfg: LatticeConfig) -> list[MomentumSector]:
    """Every (nx_q, ny_q) sector, sharing one orbit table."""
    orbits = build_orbit_table(cfg)
    return [
        build_sector(cfg, nx_q, ny_q, orbits)
        for ny_q in range(cfg.ny)
        for nx_q in range(cfg.nx)
    ]
