import cmath

import numpy as np
import pytest
from sector_reference import (
    PERIODIC_UP_TO_12,
    sweep_amplitudes,
    sweep_norm,
    sweep_orbits,
    translate_scalar,
)

from hexgauge import hamiltonian
from hexgauge.lattice import BoundaryCondition, LatticeConfig, inversion, translation
from hexgauge.spinbasis import (
    all_sectors,
    basis_dim,
    build_orbit_table,
    build_sector,
    fold,
    full_mask,
    momentum_phase,
    permute,
    root_table,
    state_array,
)

P = BoundaryCondition.PERIODIC
C = BoundaryCondition.CLOSED


def test_enumerate_closed_1x1():
    cfg = LatticeConfig(1, 1, C, 1.0)
    assert state_array(cfg, cfg.periodic).tolist() == [0b0, 0b1]


def test_enumerate_periodic_2x2():
    cfg = LatticeConfig(2, 2, P, 1.0)
    states = state_array(cfg, cfg.periodic).tolist()
    assert len(states) == 8
    for s in states:
        assert s <= s ^ full_mask(cfg)


def test_enumerate_closed_3x3():
    cfg = LatticeConfig(3, 3, C, 1.0)
    assert len(state_array(cfg, cfg.periodic)) == 512


def test_translate_vacuum_invariant():
    cfg = LatticeConfig(3, 3, P, 1.0)
    for rx in range(3):
        for ry in range(3):
            assert permute(np.array([0]), translation(cfg, rx, ry))[0] == 0


def test_translate_single_up():
    cfg = LatticeConfig(3, 3, P, 1.0)
    assert permute(np.array([1 << cfg.site(0, 0)]), translation(cfg, 1, 0))[0] == 1 << cfg.site(1, 0)
    assert permute(np.array([1 << cfg.site(2, 1)]), translation(cfg, 1, 1))[0] == 1 << cfg.site(0, 2)


def test_translate_roundtrip_exhaustive_2x2():
    cfg = LatticeConfig(2, 2, P, 1.0)
    s = np.arange(16)
    assert np.array_equal(permute(permute(s, translation(cfg, 1, 0)), translation(cfg, cfg.nx - 1, 0)), s)
    assert np.array_equal(permute(permute(s, translation(cfg, 0, 1)), translation(cfg, 0, cfg.ny - 1)), s)


def test_translate_requires_periodic():
    # the site table of a translation refuses closed BC and a degenerate torus
    with pytest.raises(ValueError, match="only defined for periodic BC"):
        translation(LatticeConfig(2, 2, C, 1.0), 1, 0)
    with pytest.raises(ValueError, match="nx >= 2 and ny >= 2"):
        translation(LatticeConfig(1, 3, P, 1.0), 0, 1)


def test_canonicalize_examples():
    cfg = LatticeConfig(2, 2, P, 1.0)
    assert fold(0b1111, cfg) == 0b0000
    assert fold(0b0000, cfg) == 0b0000
    assert fold(0b0110, cfg) == 0b0110


def test_canonicalize_idempotent_and_commutes():
    cfg = LatticeConfig(2, 3, P, 1.0)
    s = np.arange(1 << 6)
    c = fold(s, cfg)
    assert np.array_equal(fold(c, cfg), c)
    for rx, ry in [(1, 0), (0, 1), (1, 2)]:
        t = translation(cfg, rx, ry)
        assert np.array_equal(fold(permute(c, t), cfg), fold(permute(s, t), cfg))


def test_vacuum_norm_2x2():
    cfg = LatticeConfig(2, 2, P, 1.0)
    sector = build_sector(cfg, 0, 0)
    assert sector.norms[sector.reps.tolist().index(0)] == pytest.approx(16.0, abs=1e-12)


def test_sector_partition_property():
    for nx, ny in [(2, 2), (2, 3), (4, 2), (3, 3)]:
        cfg = LatticeConfig(nx, ny, P, 1.0)
        total = sum(s.dim for s in all_sectors(cfg))
        assert total == 1 << (cfg.n_plaq - 1)


def test_vacuum_absent_at_nonzero_k():
    cfg = LatticeConfig(2, 2, P, 1.0)
    for s in all_sectors(cfg):
        if (s.nx_q, s.ny_q) != (0, 0):
            assert 0 not in s.reps


def test_norms_reproduce_unit_norm():
    # recomputing <a(k)|a(k)> from the stored N_a gives 1
    for nx, ny in [(2, 2), (3, 3)]:
        cfg = LatticeConfig(nx, ny, P, 1.0)
        for sector in all_sectors(cfg):
            for a, rep in enumerate(sector.reps.tolist()):
                amps = sweep_amplitudes(cfg, sector.nx_q, sector.ny_q, rep)
                norm = sum(abs(v) ** 2 for v in amps.values()) / sector.norms[a]
                assert abs(norm - 1.0) < 1e-12


def test_reps_pairwise_inequivalent():
    cfg = LatticeConfig(2, 3, P, 1.0)
    table = build_orbit_table(cfg)
    seen = set()
    for rep in table.reps:
        orbit = set()
        for rx in range(cfg.nx):
            for ry in range(cfg.ny):
                orbit.add(int(fold(permute(np.array([rep]), translation(cfg, rx, ry)), cfg)[0]))
        assert not orbit & seen
        seen |= orbit
    assert len(seen) == 1 << (cfg.n_plaq - 1)


def test_momentum_phase_rational():
    cfg = LatticeConfig(3, 4, P, 1.0)
    for nxq in range(3):
        for nyq in range(4):
            for rx in range(3):
                for ry in range(4):
                    naive = cmath.exp(
                        -2j * cmath.pi * (nxq * rx / cfg.nx + nyq * ry / cfg.ny))
                    assert abs(momentum_phase(cfg, nxq, nyq, rx, ry) - naive) < 1e-12


def test_momentum_phase_table():
    # array arguments read the same entries as scalars, quarter turns are
    # exact, and the one cached table is read-only
    cfg = LatticeConfig(2, 4, P, 1.0)
    g = np.arange(cfg.n_plaq)
    rx, ry = g % cfg.nx, g // cfg.nx
    for nxq in range(cfg.nx):
        for nyq in range(cfg.ny):
            phases = momentum_phase(cfg, nxq, nyq, rx, ry)
            assert phases.tolist() == [momentum_phase(cfg, nxq, nyq, x, y) for x, y in zip(rx, ry)]
            assert set(phases.tolist()) <= {1, 1j, -1, -1j}
    assert root_table(8) is root_table(8) and not root_table(8).flags.writeable


def test_capacity_guard():
    with pytest.raises(ValueError):
        state_array(LatticeConfig(5, 5, C, 1.0), False)


def test_closed_lattice_has_no_flip_quotient():
    # outside spins are fixed down, so a closed state and its global flip
    # are different configurations: the quotient is refused, not halved
    cfg = LatticeConfig(2, 2, C, 1.0)
    for build in (basis_dim, state_array, lambda cfg, quotient: hamiltonian._assemble(cfg, quotient)):
        with pytest.raises(ValueError, match="^the global-flip quotient needs periodic BC"):
            build(cfg, True)
    assert basis_dim(cfg, False) == 16 and basis_dim(LatticeConfig(2, 2, P, 1.0), True) == 8


def test_sector_out_of_range_momentum():
    cfg = LatticeConfig(2, 2, P, 1.0)
    with pytest.raises(ValueError):
        build_sector(cfg, 2, 0)


def test_sector_rejects_degenerate_lattice():
    with pytest.raises(ValueError):
        build_sector(LatticeConfig(2, 1, P, 1.0), 0, 0)


@pytest.mark.parametrize("nx,ny", PERIODIC_UP_TO_12 + [(4, 5)])
def test_translate_array_matches_scalar(nx, ny):
    cfg = LatticeConfig(nx, ny, P, 1.0)
    states = state_array(cfg, quotient=False)
    if len(states) > 1024:
        states = np.random.default_rng(nx * ny).choice(states, 1024, replace=False)
    for ry in range(ny):
        for rx in range(nx):
            ref = [translate_scalar(s, rx, ry, cfg) for s in states.tolist()]
            assert permute(states, translation(cfg, rx, ry)).tolist() == ref


@pytest.mark.parametrize("nx,ny", PERIODIC_UP_TO_12)
def test_orbit_table_matches_sweep(nx, ny):
    # rep/shift reproduce the sweep's (rep, rx, ry), first (rx, ry) in
    # row-major order included
    cfg = LatticeConfig(nx, ny, P, 1.0)
    table = build_orbit_table(cfg)
    reps, to_rep = sweep_orbits(cfg)
    assert table.reps.tolist() == reps
    got = list(zip(table.rep.tolist(), (table.shift % nx).tolist(), (table.shift // nx).tolist()))
    assert got == [to_rep[s] for s in range(1 << (cfg.n_plaq - 1))]


@pytest.mark.parametrize("nx,ny", PERIODIC_UP_TO_12)
def test_sectors_match_sweep(nx, ny):
    # kept representatives and N_a equal the swept sum of |amplitude|^2
    cfg = LatticeConfig(nx, ny, P, 1.0)
    reps, _ = sweep_orbits(cfg)
    for sector in all_sectors(cfg):
        norms = [sweep_norm(cfg, sector.nx_q, sector.ny_q, r) for r in reps]
        kept = [(r, n) for r, n in zip(reps, norms) if n > 1e-12]
        assert sector.reps.tolist() == [r for r, _ in kept]
        assert sector.norms.tolist() == [n for _, n in kept]


@pytest.mark.parametrize("nx,ny", [(2, 3), (3, 4)])
def test_permute_moves_bits(nx, ny):
    # a translation written as a site table permutes as the scalar
    # translation does, and inversion as a site-by-site move of each bit
    cfg = LatticeConfig(nx, ny, P, 1.0)
    states = state_array(cfg, False)
    shift = [cfg.site((i + 1) % nx, (j + 2) % ny) for i, j in map(cfg.coord, range(cfg.n_plaq))]
    assert translation(cfg, 1, 2) == tuple(shift)
    assert permute(states, shift).tolist() == [translate_scalar(s, 1, 2, cfg) for s in states.tolist()]
    assert np.array_equal(permute(states, range(cfg.n_plaq)), states)
    inv = inversion(cfg)
    moved = [sum(((s >> p) & 1) << q for p, q in enumerate(inv)) for s in states.tolist()]
    assert permute(states, inv).tolist() == moved
