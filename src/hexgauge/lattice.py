"""Honeycomb plaquette geometry.

Plaquettes live on a 2D grid indexed (i, j) with i in [0, nx) along x-hat
and j in [0, ny) along y-hat = (1/2, sqrt(3)/2).  Each hexagonal plaquette
has six neighbors; the cyclic order of the neighbor chain is what every
coefficient in the spin model is built from.  All couplings enter through
the single dimensionless number lam = a*g^2, and energies are reported in
units of 1/a.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from numbers import Integral, Real


class BoundaryCondition(Enum):
    CLOSED = "closed"
    PERIODIC = "periodic"


# Displacements of the six-neighbor chain, in cyclic order K = 0..5.
CHAIN6 = ((0, 1), (1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1))

# Displacements of the eight-plaquette chain around the pair (i,j),(i,j+1),
# in cyclic order K = 0..7.
CHAIN8 = ((0, 2), (1, 1), (1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (-1, 2))

# The three forward bond directions; every bond of the lattice leaves one
# plaquette along one of them exactly once.
FORWARD = ((0, 1), (1, 0), (1, -1))


@dataclass(frozen=True)
class LatticeConfig:
    """Lattice dimensions, boundary condition and coupling lam = a*g^2."""

    nx: int
    ny: int
    bc: BoundaryCondition
    lam: float

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"lattice dimensions must be >= 1, got {self.nx}x{self.ny}")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"coupling lam must be finite and positive, got {self.lam}")

    @property
    def n_plaq(self) -> int:
        return self.nx * self.ny

    @property
    def periodic(self) -> bool:
        return self.bc is BoundaryCondition.PERIODIC

    def site(self, i: int, j: int) -> int:
        """Linear index of plaquette (i, j)."""
        return i + self.nx * j

    def coord(self, site: int) -> tuple[int, int]:
        return site % self.nx, site // self.nx

    def in_range(self, i: int, j: int) -> bool:
        return 0 <= i < self.nx and 0 <= j < self.ny

    @classmethod
    def from_json(cls, path: str) -> "LatticeConfig":
        with open(path) as f:
            d = json.load(f)
        return cls.from_dict(d)

    @classmethod
    def from_dict(cls, d: dict) -> "LatticeConfig":
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {type(d).__name__}")
        missing = [k for k in ("nx", "ny", "lambda") if k not in d]
        if missing:
            raise ValueError(f"missing config keys: {', '.join(missing)}")
        unknown = sorted(set(d) - {"nx", "ny", "bc", "lambda"})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for key, kind, what in (("nx", Integral, "an integer"), ("ny", Integral, "an integer"),
                                ("lambda", Real, "a real number")):
            # bool is an Integral too, and JSON true would otherwise read as 1
            if isinstance(d[key], bool) or not isinstance(d[key], kind):
                raise ValueError(f"config key {key} must be {what}, got {d[key]!r}")
        return cls(
            nx=int(d["nx"]),
            ny=int(d["ny"]),
            bc=BoundaryCondition(d.get("bc", "periodic")),
            lam=float(d["lambda"]),
        )

    def to_dict(self) -> dict:
        return {"nx": self.nx, "ny": self.ny, "bc": self.bc.value, "lambda": self.lam}


def require_nondegenerate(cfg: LatticeConfig):
    """Refuse a periodic lattice the spin model does not describe."""
    if cfg.periodic and (cfg.nx < 2 or cfg.ny < 2):
        # With nx or ny = 1 a plaquette appears in its own neighbor chain
        # and the flip term stops being a symmetric operator.
        raise ValueError("periodic lattices need nx >= 2 and ny >= 2")


def resolve(cfg: LatticeConfig, i: int, j: int) -> int:
    """Site index of a raw coordinate, wrapped under periodic BC, where every
    neighbor reader refuses a degenerate torus; -1 outside a closed lattice."""
    if cfg.periodic:
        require_nondegenerate(cfg)
        return cfg.site(i % cfg.nx, j % cfg.ny)
    return cfg.site(i, j) if cfg.in_range(i, j) else -1


def neighbor_chain6(c: tuple[int, int], cfg: LatticeConfig) -> tuple[int, ...]:
    """Site indices of the six neighbors of plaquette c in cyclic order
    K = 0..5, -1 for a slot outside a closed lattice.

    Consecutive chain entries are themselves adjacent plaquettes, which is
    what makes the cyclic order meaningful.
    """
    i, j = c
    if not cfg.in_range(i, j):
        raise ValueError(f"plaquette {c} outside {cfg.nx}x{cfg.ny} lattice")
    return tuple(resolve(cfg, i + di, j + dj) for di, dj in CHAIN6)


def neighbor_chain8(c: tuple[int, int], cfg: LatticeConfig) -> tuple[int, ...]:
    """Site indices of the eight plaquettes around the vertical pair c,
    c+(0,1), K = 0..7, -1 outside.

    Raises where the pair has no 2-plaquette loop: a closed-BC partner
    (i, j+1) outside the lattice, or a chain that wraps onto the pair, as on
    every periodic lattice with ny = 2 (O_2 would not be symmetric there).
    """
    i, j = c
    if not cfg.in_range(i, j):
        raise ValueError(f"plaquette {c} outside {cfg.nx}x{cfg.ny} lattice")
    partner = resolve(cfg, i, j + 1)
    if partner < 0:
        raise ValueError(f"partner plaquette ({i},{j + 1}) outside closed lattice")
    chain = tuple(resolve(cfg, i + di, j + dj) for di, dj in CHAIN8)
    if cfg.site(i, j) in chain or partner in chain:
        raise ValueError(f"eight-plaquette chain of the pair ({i},{j}),({i},{j + 1}) wraps onto the pair itself")
    return chain


def inversion(cfg: LatticeConfig) -> tuple[int, ...]:
    """Site index of the image (-i, -j) of every plaquette, wrapped.  It maps
    each chain onto its image's chain rotated by half a turn and every bond
    onto a bond, so it commutes with H on every periodic lattice."""
    if not cfg.periodic:
        raise ValueError("inversion about the origin is only defined for periodic BC")
    return tuple(resolve(cfg, -i, -j) for i, j in map(cfg.coord, range(cfg.n_plaq)))


def bonds(cfg: LatticeConfig) -> list[tuple[int, int]]:
    """All bonds as (site, partner site or -1).

    Each physical bond appears exactly once, from its source plaquette along
    one of the three forward directions.  Closed-BC bonds whose partner is
    outside carry partner -1 (the outside spin is fixed down).  On small
    periodic lattices (nx or ny = 2) two bonds may join the same unordered
    pair; the Hamiltonian sums them as written.
    """
    return [(cfg.site(i, j), resolve(cfg, i + di, j + dj))
            for j in range(cfg.ny) for i in range(cfg.nx) for di, dj in FORWARD]
