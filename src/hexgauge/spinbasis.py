"""Spin basis states, the global-flip quotient, and momentum sectors.

A basis state is an N-bit integer with bit (i + nx*j) set when the
plaquette at (i, j) is spin-up.  Under periodic BC a state and its global
flip describe the same gauge configuration, so the working basis keeps the
numerically smaller member of each pair.  Momentum states are built on top
of translation orbits of that quotient.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .lattice import LatticeConfig

# Hard cap so a careless config cannot try to materialize gigabytes of states.
MAX_BITS = 22


def _check_capacity(cfg: LatticeConfig):
    if cfg.n_plaq > MAX_BITS:
        raise ValueError(
            f"{cfg.nx}x{cfg.ny} lattice has {cfg.n_plaq} plaquettes; "
            f"enumeration is capped at {MAX_BITS}"
        )


def full_mask(cfg: LatticeConfig) -> int:
    return (1 << cfg.n_plaq) - 1


def state_array(cfg: LatticeConfig, quotient: bool) -> np.ndarray:
    """The flip-quotient basis (quotient=True) or all 2^N states, as int64,
    in increasing order; the smaller member of each flip pair is the one
    with the top bit clear, so the quotient is 0 .. 2^(N-1) - 1."""
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


def fold(states, cfg: LatticeConfig):
    """The smaller member of each global-flip pair, for an int or int64 array."""
    return np.minimum(states, states ^ full_mask(cfg))


def translate(s, rx: int, ry: int, cfg: LatticeConfig):
    """Cyclically shift all plaquette occupations by (rx, ry).

    s is one state (int) or an int64 array of states.  Only meaningful
    under periodic BC.  The result is not re-canonicalized.
    """
    if not cfg.periodic:
        raise ValueError("translation is only defined for periodic BC")
    perm = _translation_perm(cfg.nx, cfg.ny, rx % cfg.nx, ry % cfg.ny)
    t = 0
    for q, dest in enumerate(perm):
        t |= ((s >> q) & 1) << dest
    return t


@dataclass(eq=False)
class OrbitTable:
    """Orbits of the group generated by T_x, T_y and the global flip.

    Translations are indexed g = rx + nx*ry (row-major).  reps are the
    numerically smallest canonical states of their orbits, ascending.  For
    every canonical state s, s equals translate(rep[s], rx, ry) up to a
    global flip with g = shift[s], the first such g in row-major order.
    stabilizer[a, g] is True when translate(reps[a], g) is reps[a] up to a
    global flip.
    """

    cfg: LatticeConfig
    reps: np.ndarray
    rep: np.ndarray
    shift: np.ndarray
    stabilizer: np.ndarray


def build_orbit_table(cfg: LatticeConfig) -> OrbitTable:
    if not cfg.periodic:
        raise ValueError("orbits are only defined for periodic BC")
    states = state_array(cfg, quotient=True)
    rep = states.copy()
    shift = np.zeros_like(states)
    for g in range(1, cfg.n_plaq):
        # fold(T^-g s) is the representative candidate reached by shift g;
        # strict < keeps the first g that attains the minimum.
        u = fold(translate(states, -(g % cfg.nx), -(g // cfg.nx), cfg), cfg)
        better = u < rep
        rep[better] = u[better]
        shift[better] = g
    reps = states[rep == states]
    stabilizer = np.stack(
        [fold(translate(reps, g % cfg.nx, g // cfg.nx, cfg), cfg) == reps
         for g in range(cfg.n_plaq)],
        axis=1,
    )
    return OrbitTable(cfg, reps, rep, shift, stabilizer)


def momentum_numerator(cfg: LatticeConfig, nx_q: int, ny_q: int, rx, ry):
    """k.r / 2pi as an integer numerator over nx*ny, reduced mod nx*ny, for
    k = 2*pi*(nx_q/nx, ny_q/ny); rx and ry may be int64 arrays."""
    return (nx_q * rx * cfg.ny + ny_q * ry * cfg.nx) % (cfg.nx * cfg.ny)


def momentum_phase(cfg: LatticeConfig, nx_q: int, ny_q: int, rx: int, ry: int) -> complex:
    """exp(-i(k_x rx + k_y ry)) for k = 2*pi*(nx_q/nx, ny_q/ny).

    Computed from the reduced rational angle so that all phases are exact
    roots of unity (up to one cmath.exp rounding).
    """
    num = momentum_numerator(cfg, nx_q, ny_q, rx, ry)
    return cmath.exp(-2j * cmath.pi * num / (cfg.nx * cfg.ny))


@dataclass(eq=False)
class MomentumSector:
    """One (k_x, k_y) block of the translation-diagonal basis.

    reps holds the orbit representatives whose momentum state survives, in
    increasing order (int64); norms holds the matching normalization
    factors N_a.  index maps representative -> position in reps.
    """

    cfg: LatticeConfig
    nx_q: int
    ny_q: int
    reps: np.ndarray
    norms: np.ndarray
    orbits: OrbitTable

    @cached_property
    def index(self) -> dict[int, int]:
        return dict(zip(self.reps.tolist(), range(self.dim)))

    @property
    def dim(self) -> int:
        return len(self.reps)

    def to_dict(self) -> dict:
        return {
            "nx_q": self.nx_q,
            "ny_q": self.ny_q,
            "dim": self.dim,
            "reps": list(map("{:x}".format, self.reps.tolist())),
            "norms": self.norms.tolist(),
        }


def build_sector(
    cfg: LatticeConfig, nx_q: int, ny_q: int, orbits: OrbitTable | None = None
) -> MomentumSector:
    """Assemble the momentum sector (nx_q, ny_q).

    The translates of a representative a repeat over the cosets of its
    stabilizer S_a, so the phase sum of |a(k)> cancels unless k.g = 0 for
    every g in S_a; the survivors have N_a = nx*ny*|S_a|.
    """
    if not cfg.periodic:
        raise ValueError("momentum sectors require periodic BC")
    if cfg.nx < 2 or cfg.ny < 2:
        raise ValueError("momentum features need nx >= 2 and ny >= 2")
    if not (0 <= nx_q < cfg.nx and 0 <= ny_q < cfg.ny):
        raise ValueError(f"momentum ({nx_q},{ny_q}) out of range for {cfg.nx}x{cfg.ny}")
    if orbits is None:
        orbits = build_orbit_table(cfg)
    g = np.arange(cfg.n_plaq)
    moving = momentum_numerator(cfg, nx_q, ny_q, g % cfg.nx, g // cfg.nx) != 0
    keep = ~(orbits.stabilizer & moving).any(axis=1)
    norms = (cfg.n_plaq * orbits.stabilizer[keep].sum(axis=1)).astype(float)
    return MomentumSector(cfg, nx_q, ny_q, orbits.reps[keep], norms, orbits)


def all_sectors(cfg: LatticeConfig) -> list[MomentumSector]:
    """Every (nx_q, ny_q) sector, sharing one orbit table."""
    orbits = build_orbit_table(cfg)
    return [
        build_sector(cfg, nx_q, ny_q, orbits)
        for ny_q in range(cfg.ny)
        for nx_q in range(cfg.nx)
    ]
