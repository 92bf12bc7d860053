import json

import numpy as np
import pytest

from hexgauge.circuit import diagonal_z_terms, pauli_expand
from hexgauge.hamiltonian import bond_diagonal, flip_action, site_planes
from hexgauge.lattice import (
    BoundaryCondition,
    LatticeConfig,
    bonds,
    inversion,
    neighbor_chain6,
    neighbor_chain8,
)
from hexgauge.observables import wilson1_operator

P = BoundaryCondition.PERIODIC
C = BoundaryCondition.CLOSED


def coords(chain, cfg):
    """A site chain as plaquette coordinates, -1 kept for an outside slot."""
    return [cfg.coord(q) if q >= 0 else -1 for q in chain]


def test_chain6_periodic_wrap():
    cfg = LatticeConfig(3, 3, P, 1.0)
    assert coords(neighbor_chain6((0, 0), cfg), cfg) == [(0, 1), (1, 0), (1, 2), (0, 2), (2, 0), (2, 1)]


def test_chain6_interior_no_wrap():
    cfg = LatticeConfig(3, 3, P, 1.0)
    assert coords(neighbor_chain6((1, 1), cfg), cfg) == [(1, 2), (2, 1), (2, 0), (1, 0), (0, 1), (0, 2)]


def test_chain6_closed_marks_outside():
    cfg = LatticeConfig(3, 3, C, 1.0)
    assert neighbor_chain6((0, 0), cfg) == (cfg.site(0, 1), cfg.site(1, 0), -1, -1, -1, -1)


def test_chain8_periodic_wrap():
    cfg = LatticeConfig(4, 4, P, 1.0)
    assert coords(neighbor_chain8((0, 0), cfg), cfg) == [
        (0, 2), (1, 1), (1, 0), (1, 3), (0, 3), (3, 0), (3, 1), (3, 2)]


def test_chain8_interior():
    cfg = LatticeConfig(4, 4, P, 1.0)
    assert coords(neighbor_chain8((1, 1), cfg), cfg) == [
        (1, 3), (2, 2), (2, 1), (2, 0), (1, 0), (0, 1), (0, 2), (0, 3)]


def test_chain8_closed_rejects_outside_partner():
    cfg = LatticeConfig(3, 3, C, 1.0)
    with pytest.raises(ValueError):
        neighbor_chain8((0, 2), cfg)


def test_chain6_symmetric_and_distinct():
    cfg = LatticeConfig(3, 4, P, 1.0)
    chains = [neighbor_chain6(cfg.coord(p), cfg) for p in range(cfg.n_plaq)]
    for p, chain in enumerate(chains):
        assert len(set(chain)) == 6
        for q in chain:
            assert p in chains[q]


def test_consecutive_chain_entries_adjacent():
    # vertex structure: neighbors K and K+1 are themselves adjacent
    cfg = LatticeConfig(3, 3, P, 1.0)
    for j in range(3):
        for i in range(3):
            chain = neighbor_chain6((i, j), cfg)
            for k in range(6):
                assert chain[(k + 1) % 6] in neighbor_chain6(cfg.coord(chain[k]), cfg)


def test_bond_count_periodic():
    cfg = LatticeConfig(3, 3, P, 1.0)
    bs = bonds(cfg)
    assert len(bs) == 3 * cfg.n_plaq
    # every unordered adjacent pair exactly once for nx, ny >= 3
    pairs = {frozenset((p, q)) for p, q in bs}
    assert len(pairs) == 3 * cfg.n_plaq


def test_bond_duplicates_on_small_torus():
    cfg = LatticeConfig(2, 2, P, 1.0)
    bs = bonds(cfg)
    assert len(bs) == 12
    pairs = [frozenset((p, q)) for p, q in bs]
    assert len(set(pairs)) == 6  # each pair doubled


def test_config_validation():
    with pytest.raises(ValueError):
        LatticeConfig(0, 3, P, 1.0)
    with pytest.raises(ValueError):
        LatticeConfig(2, 2, P, -1.0)


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_nonfinite_lam(lam):
    with pytest.raises(ValueError, match="finite and positive"):
        LatticeConfig(2, 2, P, lam)


def test_config_json_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"nx": 2, "ny": 3, "bc": "closed", "lambda": 0.5}))
    cfg = LatticeConfig.from_json(str(path))
    assert (cfg.nx, cfg.ny, cfg.bc, cfg.lam) == (2, 3, C, 0.5)
    assert LatticeConfig.from_dict(cfg.to_dict()) == cfg


def test_config_rejects_unknown_keys():
    # a misspelled "bc" must not fall back to periodic
    with pytest.raises(ValueError, match="unknown config keys: bcc"):
        LatticeConfig.from_dict({"nx": 2, "ny": 2, "bcc": "closed", "lambda": 1.0})


@pytest.mark.parametrize("d, words", [
    ([2, 2, "periodic", 1.0], "JSON object, got list"),
    ({"ny": 2, "bc": "closed"}, "missing config keys: nx, lambda"),
])
def test_config_rejects_malformed(d, words):
    # a config that is not an object or lacks a required key fails with a
    # ValueError naming the problem, not a TypeError or KeyError
    with pytest.raises(ValueError, match=words):
        LatticeConfig.from_dict(d)


@pytest.mark.parametrize("nx,ny", [(2, 2), (2, 3), (3, 4), (4, 4), (3, 5)])
def test_inversion_maps_chains_and_bonds(nx, ny):
    # an involution fixing the origin that maps each plaquette's chain onto
    # its image's chain turned by half a cycle, and bonds onto bonds
    cfg = LatticeConfig(nx, ny, P, 1.0)
    inv = inversion(cfg)
    assert inv[0] == 0 and [inv[q] for q in inv] == list(range(cfg.n_plaq))
    for p in range(cfg.n_plaq):
        chain = [inv[q] for q in neighbor_chain6(cfg.coord(p), cfg)]
        image = neighbor_chain6(cfg.coord(inv[p]), cfg)
        assert chain == list(image[3:] + image[:3])
    key = sorted(tuple(sorted(b)) for b in bonds(cfg))
    assert sorted(tuple(sorted((inv[p], inv[q]))) for p, q in bonds(cfg)) == key


def test_inversion_needs_periodic_bc():
    with pytest.raises(ValueError, match="periodic"):
        inversion(LatticeConfig(2, 3, C, 1.0))


@pytest.mark.parametrize("nx,ny", [(1, 2), (2, 1), (1, 3), (3, 1)])
def test_neighbor_readers_refuse_degenerate_torus(nx, ny):
    # a periodic row or column of one plaquette is its own neighbor: every
    # reader of a wrapped neighbor refuses it with the one message
    cfg = LatticeConfig(nx, ny, P, 1.0)
    states = np.arange(1 << cfg.n_plaq, dtype=np.int64)
    readers = (lambda: neighbor_chain6((0, 0), cfg), lambda: neighbor_chain8((0, 0), cfg),
               lambda: bonds(cfg), lambda: inversion(cfg),
               lambda: flip_action(cfg, (0, 0), eight=False)[1](site_planes(states, cfg)),
               lambda: bond_diagonal(cfg)(site_planes(states, cfg)),
               lambda: wilson1_operator(cfg), lambda: pauli_expand((0, 0), cfg), lambda: diagonal_z_terms(cfg))
    for read in readers:
        with pytest.raises(ValueError, match="periodic lattices need nx >= 2 and ny >= 2"):
            read()
    # the same sizes stay readable under closed BC
    assert neighbor_chain6((0, 0), LatticeConfig(nx, ny, C, 1.0))
