"""Scalar references for the momentum-sector machinery.

These are the per-state loops that the array orbit table and the sector
blocks replace: a coordinate-wise translation, an orbit sweep that records
the first (rx, ry) in row-major order, the swept momentum amplitudes, and
the per-representative hx and Wilson block loops with a dict lookup of the
flip target.  Tests compare the library against them.
"""

import cmath
import math

import numpy as np

from hexgauge.lattice import neighbor_chain6, neighbor_chain8
from hexgauge.spinbasis import fold, momentum_phase
from reference import bracket, c_value

# Every periodic lattice the momentum features accept, up to 12 plaquettes.
PERIODIC_UP_TO_12 = [(nx, ny) for nx in range(2, 7) for ny in range(2, 7) if nx * ny <= 12]


def translate_scalar(s: int, rx: int, ry: int, cfg) -> int:
    """The up plaquette at (i, j) moves to (i + rx, j + ry), wrapped."""
    t = 0
    for q in range(cfg.n_plaq):
        if (s >> q) & 1:
            i, j = cfg.coord(q)
            t |= 1 << cfg.site((i + rx) % cfg.nx, (j + ry) % cfg.ny)
    return t


def sweep_orbits(cfg):
    """(reps, to_rep): to_rep[s] = (rep, rx, ry) with s equal to
    T(rx, ry) rep up to a global flip, first (rx, ry) in row-major
    order; reps are the smallest canonical states of their orbits."""
    reps, to_rep = [], {}
    for s in range(1 << (cfg.n_plaq - 1)):
        if s in to_rep:
            continue
        reps.append(s)
        for ry in range(cfg.ny):
            for rx in range(cfg.nx):
                t = int(fold(translate_scalar(s, rx, ry, cfg), cfg))
                to_rep.setdefault(t, (s, rx, ry))
    return reps, to_rep


def sweep_amplitudes(cfg, nx_q: int, ny_q: int, rep: int) -> dict:
    """Unnormalized amplitude of each canonical state in |rep(k)>."""
    amps = {}
    for ry in range(cfg.ny):
        for rx in range(cfg.nx):
            t = int(fold(translate_scalar(rep, rx, ry, cfg), cfg))
            amps[t] = amps.get(t, 0j) + momentum_phase(cfg, nx_q, ny_q, rx, ry)
    return amps


def sweep_norm(cfg, nx_q: int, ny_q: int, rep: int) -> float:
    return sum(abs(a) ** 2 for a in sweep_amplitudes(cfg, nx_q, ny_q, rep).values())


def flip_shift(sector, to_rep: dict, flipped: int):
    """(row, N_b, lx, ly) with T^l |flipped> ~ |b>, or None when b's momentum
    state vanishes in the sector."""
    cfg = sector.cfg
    b, rx, ry = to_rep[int(fold(flipped, cfg))]
    if b not in sector.reps:
        return None
    row = int(np.searchsorted(sector.reps, b))
    return row, sector.norms[row], (-rx) % cfg.nx, (-ry) % cfg.ny


def _phase(num: int, den: int) -> complex:
    return cmath.exp(2j * cmath.pi * (num % den) / den)


def hx_block(sector, to_rep: dict) -> np.ndarray:
    cfg = sector.cfg
    den = cfg.nx * cfg.ny
    mat = np.zeros((sector.dim, sector.dim), dtype=complex)
    for p in range(cfg.n_plaq):
        for col, a in enumerate(sector.reps.tolist()):
            hit = flip_shift(sector, to_rep, a ^ (1 << p))
            if hit is None:
                continue
            row, nb, lx, ly = hit
            num = -(sector.nx_q * lx * cfg.ny + sector.ny_q * ly * cfg.nx)
            coeff = (-0.5) ** c_value(a, cfg.coord(p), cfg)
            mat[row, col] += _phase(num, den) * coeff * math.sqrt(nb / sector.norms[col])
    return mat


def wilson_block(sector, sector_p, to_rep: dict, eight: bool) -> np.ndarray:
    """<b(k')| O |a(k)> by the double translation sum, with the Pauli-product
    bracket as the flip coefficient."""
    cfg = sector.cfg
    den = cfg.nx * cfg.ny
    mat = np.zeros((sector_p.dim, sector.dim), dtype=complex)
    for col, a in enumerate(sector.reps.tolist()):
        na = sector.norms[col]
        for ry in range(cfg.ny):
            for rx in range(cfg.nx):
                px, py = (-rx) % cfg.nx, (-ry) % cfg.ny
                sites = neighbor_chain8((px, py), cfg) if eight else neighbor_chain6((px, py), cfg)
                here = cfg.site(px, py)
                if eight:
                    above = cfg.site(px, (py + 1) % cfg.ny)
                    z0, z1 = (2 * ((a >> q) & 1) - 1 for q in (here, above))
                    spin_pref = (1.0 + 3.0 * z0 * z1) / 4.0
                    flipped = a ^ (1 << here) ^ (1 << above)
                else:
                    spin_pref = 1.0
                    flipped = a ^ (1 << here)
                hit = flip_shift(sector_p, to_rep, flipped)
                if hit is None:
                    continue
                row, nb, lx, ly = hit
                num = (
                    rx * (sector_p.nx_q - sector.nx_q) * cfg.ny
                    + ry * (sector_p.ny_q - sector.ny_q) * cfg.nx
                    - sector_p.nx_q * lx * cfg.ny
                    - sector_p.ny_q * ly * cfg.nx
                )
                mat[row, col] += (
                    -1.0 / den * math.sqrt(nb / na) * _phase(num, den) * spin_pref * bracket(a, sites)
                )
    return mat
