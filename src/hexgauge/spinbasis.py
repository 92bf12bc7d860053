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
from functools import cache

import numpy as np

from .lattice import LatticeConfig, require_nondegenerate, translation

# Hard cap so a careless config cannot try to materialize gigabytes of states.
MAX_BITS = 22


def basis_dim(cfg: LatticeConfig, quotient: bool) -> int:
    """Size of the flip-quotient basis (quotient=True) or of all 2^N states,
    refusing a lattice over the enumeration cap before anything is built,
    and the quotient of a closed lattice, whose outside spins are fixed down."""
    if cfg.n_plaq > MAX_BITS:
        raise ValueError(
            f"{cfg.nx}x{cfg.ny} lattice has {cfg.n_plaq} plaquettes; "
            f"enumeration is capped at {MAX_BITS}"
        )
    if quotient and not cfg.periodic:
        raise ValueError("the global-flip quotient needs periodic BC: closed BC fixes the outside spins down")
    return 1 << (cfg.n_plaq - quotient)


def full_mask(cfg: LatticeConfig) -> int:
    return (1 << cfg.n_plaq) - 1


def state_array(cfg: LatticeConfig, quotient: bool) -> np.ndarray:
    """The flip-quotient basis (quotient=True) or all 2^N states, as int64,
    in increasing order; the smaller member of each flip pair is the one
    with the top bit clear, so the quotient is 0 .. 2^(N-1) - 1."""
    return np.arange(basis_dim(cfg, quotient), dtype=np.int64)


def fold(states, cfg: LatticeConfig):
    """The smaller member of each global-flip pair, for an int or an integer array."""
    return np.minimum(states, states ^ full_mask(cfg))


def permute(states: np.ndarray, perm) -> np.ndarray:
    """Move the bit of site p to site perm[p] in every state of an int64
    array; perm is a site table such as lattice.translation or inversion.
    Sites that move the same distance share one masked shift, so a
    translation costs at most four."""
    masks = {}
    for p, q in enumerate(perm):
        masks[q - p] = masks.get(q - p, 0) | 1 << p
    out, moved = np.zeros_like(states), np.empty_like(states)
    for d, mask in masks.items():
        np.bitwise_and(states, mask, out=moved)
        (np.left_shift if d >= 0 else np.right_shift)(moved, abs(d), out=moved)
        out |= moved
    return out


@dataclass(eq=False)
class OrbitTable:
    """Orbits of the group generated by T_x, T_y and the global flip.

    Translations are indexed g = rx + nx*ry (row-major).  reps are the
    numerically smallest canonical states of their orbits, ascending.  For
    every canonical state s, s equals T(rx, ry) rep[s] up to a global flip
    with g = shift[s], the first such g in row-major order.
    stabilizer[a, g] is True when T^g reps[a] is reps[a] up to a global
    flip.
    """

    reps: np.ndarray
    rep: np.ndarray
    shift: np.ndarray
    stabilizer: np.ndarray


def build_orbit_table(cfg: LatticeConfig) -> OrbitTable:
    if not cfg.periodic:
        raise ValueError("momentum sectors require periodic BC")
    states = state_array(cfg, quotient=True)
    inverse = [translation(cfg, -(g % cfg.nx), -(g // cfg.nx)) for g in range(cfg.n_plaq)]
    rep = states.copy()
    shift = np.zeros_like(states)
    for g in range(1, cfg.n_plaq):
        # fold(T^-g s) is the representative candidate reached by shift g;
        # strict < keeps the first g that attains the minimum.
        u = fold(permute(states, inverse[g]), cfg)
        better = u < rep
        rep[better] = u[better]
        shift[better] = g
    reps = states[rep == states]
    # the stabilizer is a group: T^g fixes a state exactly when T^-g does
    stabilizer = np.stack([fold(permute(reps, t), cfg) == reps for t in inverse], axis=1)
    return OrbitTable(reps, rep, shift, stabilizer)


def momentum_numerator(cfg: LatticeConfig, nx_q: int, ny_q: int, rx, ry):
    """k.r / 2pi as an integer numerator over nx*ny, reduced mod nx*ny, for
    k = 2*pi*(nx_q/nx, ny_q/ny); rx and ry may be int64 arrays."""
    return (nx_q * rx * cfg.ny + ny_q * ry * cfg.nx) % (cfg.nx * cfg.ny)


@cache
def root_table(den: int) -> np.ndarray:
    """exp(2j*pi*m/den) for m = 0 .. den-1, read-only: the one table every
    momentum phase is read from.  Each root comes from its reduced rational
    angle, and the quarter turns are exact (1, i, -1, -i): cmath.exp(i*pi)
    carries an imaginary 1e-16, which would leave the k = -k blocks complex."""
    roots = np.array([cmath.exp(2j * cmath.pi * m / den) for m in range(den)])
    m = np.arange(den)
    quarter = 4 * m % den == 0
    roots[quarter] = np.array([1, 1j, -1, -1j])[4 * m[quarter] // den]
    roots.flags.writeable = False
    return roots


def momentum_phase(cfg: LatticeConfig, nx_q: int, ny_q: int, rx, ry):
    """exp(-i(k_x rx + k_y ry)) for k = 2*pi*(nx_q/nx, ny_q/ny), read from
    root_table by the reduced numerator; rx and ry may be int64 arrays."""
    return root_table(cfg.n_plaq)[-momentum_numerator(cfg, nx_q, ny_q, rx, ry) % cfg.n_plaq]


@dataclass(eq=False)
class MomentumSector:
    """One (k_x, k_y) block of the translation-diagonal basis.

    reps holds the orbit representatives whose momentum state survives, in
    increasing order (int64); norms holds the matching normalization
    factors N_a.
    """

    cfg: LatticeConfig
    nx_q: int
    ny_q: int
    reps: np.ndarray
    norms: np.ndarray
    orbits: OrbitTable

    @property
    def dim(self) -> int:
        return len(self.reps)


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
    require_nondegenerate(cfg)
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
