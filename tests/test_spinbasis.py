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

from hexgauge.lattice import BoundaryCondition, LatticeConfig
from hexgauge.spinbasis import (
    all_sectors,
    build_orbit_table,
    build_sector,
    fold,
    full_mask,
    momentum_phase,
    state_array,
    translate,
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
            assert translate(0, rx, ry, cfg) == 0


def test_translate_single_up():
    cfg = LatticeConfig(3, 3, P, 1.0)
    assert translate(1 << cfg.site(0, 0), 1, 0, cfg) == 1 << cfg.site(1, 0)
    assert translate(1 << cfg.site(2, 1), 1, 1, cfg) == 1 << cfg.site(0, 2)


def test_translate_roundtrip_exhaustive_2x2():
    cfg = LatticeConfig(2, 2, P, 1.0)
    for s in range(16):
        assert translate(translate(s, 1, 0, cfg), cfg.nx - 1, 0, cfg) == s
        assert translate(translate(s, 0, 1, cfg), 0, cfg.ny - 1, cfg) == s


def test_translate_requires_periodic():
    with pytest.raises(ValueError):
        translate(0, 1, 0, LatticeConfig(2, 2, C, 1.0))


def test_canonicalize_examples():
    cfg = LatticeConfig(2, 2, P, 1.0)
    assert fold(0b1111, cfg) == 0b0000
    assert fold(0b0000, cfg) == 0b0000
    assert fold(0b0110, cfg) == 0b0110


def test_canonicalize_idempotent_and_commutes():
    cfg = LatticeConfig(2, 3, P, 1.0)
    for s in range(1 << 6):
        c = fold(s, cfg)
        assert fold(c, cfg) == c
        for rx, ry in [(1, 0), (0, 1), (1, 2)]:
            assert fold(translate(c, rx, ry, cfg), cfg) == fold(translate(s, rx, ry, cfg), cfg)


def test_vacuum_norm_2x2():
    cfg = LatticeConfig(2, 2, P, 1.0)
    sector = build_sector(cfg, 0, 0)
    assert sector.norms[sector.index[0]] == pytest.approx(16.0, abs=1e-12)


def test_sector_partition_property():
    for nx, ny in [(2, 2), (2, 3), (4, 2), (3, 3)]:
        cfg = LatticeConfig(nx, ny, P, 1.0)
        total = sum(s.dim for s in all_sectors(cfg))
        assert total == 1 << (cfg.n_plaq - 1)


def test_vacuum_absent_at_nonzero_k():
    cfg = LatticeConfig(2, 2, P, 1.0)
    for s in all_sectors(cfg):
        if (s.nx_q, s.ny_q) != (0, 0):
            assert 0 not in s.index


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
                orbit.add(int(fold(translate(rep, rx, ry, cfg), cfg)))
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


def test_sector_dump_shape():
    cfg = LatticeConfig(2, 2, P, 1.0)
    d = build_sector(cfg, 0, 0).to_dict()
    assert d["dim"] == len(d["reps"]) == len(d["norms"])
    assert all(isinstance(r, str) for r in d["reps"])


def test_capacity_guard():
    with pytest.raises(ValueError):
        state_array(LatticeConfig(5, 5, C, 1.0), False)


def test_sector_out_of_range_momentum():
    cfg = LatticeConfig(2, 2, P, 1.0)
    with pytest.raises(ValueError):
        build_sector(cfg, 2, 0)


def test_sector_rejects_degenerate_lattice():
    with pytest.raises(ValueError):
        build_sector(LatticeConfig(2, 1, P, 1.0), 0, 0)


@pytest.mark.parametrize("nx,ny", PERIODIC_UP_TO_12)
def test_translate_array_matches_scalar(nx, ny):
    cfg = LatticeConfig(nx, ny, P, 1.0)
    states = state_array(cfg, quotient=False)
    if len(states) > 1024:
        states = np.random.default_rng(nx * ny).choice(states, 1024, replace=False)
    for ry in range(ny):
        for rx in range(nx):
            ref = [translate_scalar(s, rx, ry, cfg) for s in states.tolist()]
            assert translate(states, rx, ry, cfg).tolist() == ref
            assert [translate(s, rx, ry, cfg) for s in states.tolist()] == ref


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
