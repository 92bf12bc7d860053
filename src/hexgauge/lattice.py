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


# Sentinel for a neighbor slot that falls outside a closed lattice.
OUTSIDE = None

# Displacements of the six-neighbor chain, in cyclic order K = 0..5.
CHAIN6 = ((0, 1), (1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1))

# Displacements of the eight-plaquette chain around the pair (i,j),(i,j+1),
# in cyclic order K = 0..7.
CHAIN8 = ((0, 2), (1, 1), (1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (-1, 2))

# The three forward bond directions; every bond of the lattice is keyed by
# (plaquette, direction index) exactly once.
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


def resolve(cfg: LatticeConfig, i: int, j: int):
    """Map a raw coordinate to a lattice coordinate or OUTSIDE (closed BC)."""
    if cfg.periodic:
        return i % cfg.nx, j % cfg.ny
    if cfg.in_range(i, j):
        return i, j
    return OUTSIDE


def neighbor_chain6(c: tuple[int, int], cfg: LatticeConfig) -> list:
    """The six neighbor slots of plaquette c in cyclic order K = 0..5.

    Periodic BC wraps both indices; closed BC marks out-of-lattice slots
    as OUTSIDE.  Consecutive chain entries are themselves adjacent
    plaquettes, which is what makes the cyclic order meaningful.
    """
    i, j = c
    if not cfg.in_range(i, j):
        raise ValueError(f"plaquette {c} outside {cfg.nx}x{cfg.ny} lattice")
    return [resolve(cfg, i + di, j + dj) for di, dj in CHAIN6]


def neighbor_chain8(c: tuple[int, int], cfg: LatticeConfig) -> list:
    """The eight plaquettes around the vertical pair c, c+(0,1), K = 0..7.

    Raises for closed-BC placements whose partner plaquette (i, j+1) falls
    outside the lattice.
    """
    i, j = c
    if not cfg.in_range(i, j):
        raise ValueError(f"plaquette {c} outside {cfg.nx}x{cfg.ny} lattice")
    if resolve(cfg, i, j + 1) is OUTSIDE:
        raise ValueError(f"partner plaquette ({i},{j + 1}) outside closed lattice")
    return [resolve(cfg, i + di, j + dj) for di, dj in CHAIN8]


def chain_sites(chain: list, cfg: LatticeConfig) -> tuple[int, ...]:
    """Site indices of a neighbor chain, -1 for OUTSIDE slots."""
    return tuple(-1 if q is OUTSIDE else cfg.site(*q) for q in chain)


def bonds(cfg: LatticeConfig) -> list[tuple[int, int, int]]:
    """All bonds as (site, direction index, partner site or -1).

    Each physical bond appears exactly once, keyed by its source plaquette
    and one of the three forward directions.  Closed-BC bonds whose partner
    is outside carry partner -1 (the outside spin is fixed down).  On small
    periodic lattices (nx or ny = 2) distinct keys may join the same
    unordered pair twice; the Hamiltonian sums them as written.
    """
    out = []
    for j in range(cfg.ny):
        for i in range(cfg.nx):
            for d, (di, dj) in enumerate(FORWARD):
                q = resolve(cfg, i + di, j + dj)
                partner = -1 if q is OUTSIDE else cfg.site(*q)
                out.append((cfg.site(i, j), d, partner))
    return out
