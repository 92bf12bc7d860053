import math
from fractions import Fraction

import numpy as np
import pytest

import hexgauge.hamiltonian as hamiltonian

from hexgauge.hamiltonian import SparseOperator, h_plus, h_x
from hexgauge.lattice import BoundaryCondition, LatticeConfig
from hexgauge.oracle import (
    build_geometry,
    certify_isomorphism,
    electric_link_energy,
    enumerate_gauge_states,
    ks_hamiltonian,
    magnetic_coupling,
    plaquette_element,
    plaquette_table,
    vertex_constraints,
    vertex_element,
    vertex_factor_table,
    wigner_6j,
)
from hexgauge.spinbasis import state_array

P = BoundaryCondition.PERIODIC
C = BoundaryCondition.CLOSED
H = Fraction(1, 2)


def test_6j_all_zero():
    assert wigner_6j(0, 0, 0, 0, 0, 0) == 1.0


def test_6j_known_values():
    assert wigner_6j(0, 0, 0, 0.5, 0.5, 0.5) == pytest.approx(-1 / math.sqrt(2), abs=1e-15)
    assert wigner_6j(0.5, 0.5, 0, 0.5, 0.5, 0) == pytest.approx(-0.5, abs=1e-15)
    assert wigner_6j(0.5, 0.5, 1, 0.5, 0.5, 1) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_6j_triangle_violation_zero():
    assert wigner_6j(0, 0.5, 0.5, 0.5, 0, 1) == 0.0
    assert wigner_6j(1, 0, 0, 0, 1, 1) == 0.0


def test_6j_rejects_non_half_integer():
    with pytest.raises(ValueError):
        wigner_6j(0.3, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        wigner_6j(-0.5, 0, 0, 0, 0, 0)


def test_6j_against_sympy():
    sympy_wigner = pytest.importorskip("sympy.physics.wigner")
    import random

    random.seed(7)
    vals = [0, H, 1, Fraction(3, 2), 2]
    for _ in range(200):
        js = [random.choice(vals) for _ in range(6)]
        try:
            ref = float(sympy_wigner.wigner_6j(*js))
        except ValueError:  # sympy raises on triangle violations
            ref = 0.0
        assert wigner_6j(*js) == pytest.approx(ref, abs=1e-14)


def test_vertex_elements_exact():
    # the four allowed transitions come out exactly -i, -i, -i, i/2
    assert vertex_element(H, H, 0, 0, 0) == -1j
    assert vertex_element(0, 0, H, H, 0) == -1j
    assert vertex_element(H, 0, 0, H, H) == -1j
    assert vertex_element(0, H, H, 0, H) == 0.5j


def test_vertex_table_gauss_selection():
    table = vertex_factor_table()
    assert table[(0, 0, 0)] == -1j
    assert table[(1, 0, 1)] == -1j
    assert table[(0, 1, 1)] == -1j
    assert table[(1, 1, 0)] == 0.5j
    # one j=1/2 link at a vertex violates Gauss's law: element vanishes
    for key in ((1, 0, 0), (0, 0, 1), (0, 1, 0), (1, 1, 1)):
        assert table[key] == 0j


def test_plaquette_table_allowed_entries():
    # finite exactly where every vertex is Gauss-allowed: x_k = a_k XOR a_k+1,
    # 64 patterns; m B->C / C->B pairs give (-1)^(m+1) / 2^m
    table = plaquette_table()
    for local in range(4096):
        a = [(local >> k) & 1 for k in range(6)]
        x = [(local >> (6 + k)) & 1 for k in range(6)]
        if all(x[k] == a[k] ^ a[(k + 1) % 6] for k in range(6)):
            m = sum(x) // 2
            assert table[local] == (-1) ** (m + 1) / 2**m
        else:
            assert np.isnan(table[local])
    assert np.isfinite(table).sum() == 64


def test_plaquette_element_rejects_gauss_violation():
    # a corrupted link row makes plaquette 0's toggle read one edge as j = 0
    enum = enumerate_gauge_states(LatticeConfig(2, 2, C, 1.0))
    enum.link_rows = enum.link_rows.copy()
    enum.link_rows[enum.geo.hex_edges[0][0]] = 0
    with pytest.raises(ValueError, match="Gauss-violating"):
        plaquette_element(enum, enum.toggles[:1], 0)


def test_enumeration_rejects_non_gauss_toggle(monkeypatch):
    # toggle coordinates are only defined for hexmasks inside the null space
    import hexgauge.oracle as oracle

    def corrupt(cfg):
        geo = build_geometry(cfg)
        geo.hexmasks[0] ^= 1
        return geo

    monkeypatch.setattr(oracle, "build_geometry", corrupt)
    with pytest.raises(RuntimeError, match="violates Gauss"):
        enumerate_gauge_states(LatticeConfig(2, 2, C, 1.0))


def _brute_force_gauss(cfg):
    """Raw scan over all 2^E edge assignments, vectorized per constraint."""
    geo = build_geometry(cfg)
    assert geo.n_edges <= 20
    states = np.arange(1 << geo.n_edges, dtype=np.uint32)
    ok = np.ones(states.shape, dtype=bool)
    for mask in vertex_constraints(geo):
        ok &= np.bitwise_count(states & np.uint32(mask)) % 2 == 0
    return [int(s) for s in states[ok]], geo


@pytest.mark.parametrize(
    "nx,ny,bc",
    [(1, 1, C), (2, 1, C), (2, 2, C), (2, 2, P), (2, 1, P)],
)
def test_gauss_set_matches_brute_force(nx, ny, bc):
    cfg = LatticeConfig(nx, ny, bc, 1.0)
    brute, _ = _brute_force_gauss(cfg)
    enum = enumerate_gauge_states(cfg)
    words = [0]
    for vec in enum.basis:
        words += [w ^ vec for w in words]
    assert sorted(words) == brute


@pytest.mark.parametrize(
    "nx,ny,bc,count",
    [
        (1, 1, C, 2),
        (2, 1, C, 4),
        (2, 2, C, 16),
        (2, 3, C, 64),
        (3, 3, C, 512),
        (2, 1, P, 2),
        (2, 2, P, 8),
        (2, 3, P, 32),
        (3, 2, P, 32),
    ],
)
def test_reachable_counts(nx, ny, bc, count):
    cfg = LatticeConfig(nx, ny, bc, 1.0)
    enum = enumerate_gauge_states(cfg)
    assert enum.n_reachable == count
    assert enum.n_reachable == len(state_array(cfg, cfg.periodic))
    assert set(enum.reachable.tolist()) <= set(range(enum.n_gauss))
    if bc is P:
        # winding sectors: strictly more Gauss states than reachable ones
        assert enum.n_gauss == 4 * enum.n_reachable
    else:
        assert enum.n_gauss == enum.n_reachable


@pytest.mark.parametrize(
    "nx,ny,bc",
    [(1, 1, C), (2, 3, C), (3, 3, C), (1, 4, C), (2, 1, P), (2, 2, P), (3, 3, P), (3, 4, P)],
)
def test_reachable_in_toggle_coordinates(nx, ny, bc):
    # spin order is the only order: reachable[s] toggles the up plaquettes
    # of spin state s, and position is its inverse
    enum = enumerate_gauge_states(LatticeConfig(nx, ny, bc, 1.0))
    s = np.arange(enum.n_reachable)
    assert np.array_equal(enum.position(enum.reachable), s)
    expect = np.zeros_like(s)
    for i, t in enumerate(enum.toggles[:enum.n_reachable.bit_length() - 1]):
        expect ^= np.where((s >> i) & 1, t, 0)
    assert np.array_equal(enum.reachable, expect)


@pytest.mark.parametrize("nx,ny", [(2, 1), (2, 2), (2, 3), (3, 4)])
def test_position_rejects_winding_states(nx, ny):
    # periodic BC: three of every four Gauss states wind around the torus
    enum = enumerate_gauge_states(LatticeConfig(nx, ny, P, 1.0))
    outside = np.setdiff1d(np.arange(enum.n_gauss), enum.reachable)
    assert len(outside) == 3 * enum.n_reachable
    for x in outside[:: max(1, len(outside) // 12)]:
        with pytest.raises(ValueError, match="outside the vacuum-connected set"):
            enum.position(np.array([x]))
    with pytest.raises(ValueError, match="outside the vacuum-connected set"):
        enum.position(np.append(enum.reachable, outside[-1]))


def test_vacuum_present_and_trivial():
    enum = enumerate_gauge_states(LatticeConfig(2, 2, P, 1.0))
    assert 0 in enum.reachable and 0 < enum.n_gauss
    vacuum = np.zeros(1, dtype=np.int64)
    assert not any(enum.link(vacuum, l)[0] for l in range(enum.geo.n_edges))


def test_even_external_parity():
    # every reachable config shows an even number of j=1/2 external links
    # around every plaquette
    for nx, ny, bc in [(2, 2, P), (2, 3, C)]:
        cfg = LatticeConfig(nx, ny, bc, 1.0)
        enum = enumerate_gauge_states(cfg)
        for p in range(cfg.n_plaq):
            ext = sum(enum.link(enum.reachable, x) for x in enum.geo.hex_x[p] if x >= 0)
            assert np.all(ext % 2 == 0)


def test_plaquette_matrix_real_symmetric():
    for nx, ny, bc in [(2, 2, P), (2, 3, C)]:
        cfg = LatticeConfig(nx, ny, bc, 1.0)
        enum = enumerate_gauge_states(cfg)
        n = enum.n_reachable
        plaq = np.zeros((n, n))
        for p, t in enumerate(enum.toggles):
            val = plaquette_element(enum, enum.reachable, p)  # the table checks realness
            np.add.at(plaq, (enum.position(enum.reachable ^ t), np.arange(n)), val)
        assert np.array_equal(plaq, plaq.T)


def test_ks_diagonal_values():
    lam = 1.0
    cfg = LatticeConfig(3, 3, C, lam)
    enum = enumerate_gauge_states(cfg)
    h = ks_hamiltonian(cfg, enum)
    vac = enum.position(0)
    assert h.matrix[vac, vac] == pytest.approx(2 * 9 * magnetic_coupling(lam), abs=1e-12)
    # single plaquette flip: six j=1/2 links
    i1 = enum.position(enum.toggles[4])  # interior plaquette (1,1)
    delta = h.matrix[i1, i1] - h.matrix[vac, vac]
    assert delta == pytest.approx(6 * electric_link_energy(lam), abs=1e-12)
    assert delta == pytest.approx(h_plus(lam), abs=1e-12)
    assert delta == pytest.approx(27 * math.sqrt(3) / 8 * lam, abs=1e-12)
    # vacuum -> single flip off-diagonal: -h_mag * (-i)^6 = +h_mag
    assert h.matrix[i1, vac] == pytest.approx(magnetic_coupling(lam), abs=1e-12)
    assert h.matrix[i1, vac] == pytest.approx(h_x(lam), abs=1e-12)


def test_double_flip_electric_energy():
    # ten excited links for two adjacent flipped plaquettes
    lam = 2.0
    cfg = LatticeConfig(3, 3, P, lam)
    enum = enumerate_gauge_states(cfg)
    g2 = enum.geo.hexmasks[0] ^ enum.geo.hexmasks[3]  # (0,0) and (0,1)
    assert g2.bit_count() == 10
    h = ks_hamiltonian(cfg, enum)
    i2 = enum.position(enum.toggles[0] ^ enum.toggles[3])
    vac = enum.position(0)
    delta = h.matrix[i2, i2] - h.matrix[vac, vac]
    assert delta == pytest.approx(10 * electric_link_energy(lam), abs=1e-12)
    assert delta == pytest.approx(45 * math.sqrt(3) / 8 * lam, abs=1e-12)


@pytest.mark.parametrize(
    "nx,ny,bc,lam",
    [
        (1, 1, C, 1.0),
        (2, 1, C, 0.5),
        (2, 2, C, 2.0),
        (2, 2, P, 1.0),
        (2, 3, P, 0.5),
        (2, 3, C, 1.0),
        (4, 4, P, 1.0),
        (3, 5, C, 1.0),
    ],
)
def test_certify(nx, ny, bc, lam):
    report = certify_isomorphism(LatticeConfig(nx, ny, bc, lam))
    assert report.passed
    assert report.max_deviation < 1e-10
    assert report.nontrivial_signs == 0


@pytest.mark.parametrize("bc", [P, C])
@pytest.mark.parametrize("perturbation", [None, 1e-3])
def test_certify_stays_sparse(monkeypatch, bc, perturbation):
    def refuse(self):
        raise AssertionError("dense matrix built")

    monkeypatch.setattr(SparseOperator, "to_dense", refuse)
    report = certify_isomorphism(LatticeConfig(2, 3, bc, 1.0), perturbation)
    assert report.passed is (perturbation is None)


def _patch_spin_matrix(monkeypatch, change):
    """Make certify see build_hamiltonian's matrix after change(matrix)."""
    build = hamiltonian.build_hamiltonian

    def patched(cfg):
        op = build(cfg)
        change(op.matrix)
        return op

    monkeypatch.setattr(hamiltonian, "build_hamiltonian", patched)


@pytest.mark.parametrize("nx,ny,bc", [(2, 3, P), (2, 3, C), (3, 4, P)])
def test_certify_fits_sign_gauge(monkeypatch, nx, ny, bc):
    # D H D for a +-1 diagonal D is the same model in another sign gauge:
    # it passes, and the fit finds every flipped state (the vacuum anchors it)
    cfg = LatticeConfig(nx, ny, bc, 1.0)
    dim = 1 << (cfg.n_plaq - cfg.periodic)
    signs = np.where(np.random.default_rng(11).random(dim) < 0.5, -1.0, 1.0)
    signs[0] = 1.0

    def conjugate(m):
        m.data *= np.repeat(signs, np.diff(m.indptr)) * signs[m.indices]

    _patch_spin_matrix(monkeypatch, conjugate)
    report = certify_isomorphism(cfg)
    assert report.passed and report.max_deviation < 1e-10
    assert report.nontrivial_signs == np.sum(signs < 0)
    assert report.nontrivial_signs > 0


@pytest.mark.parametrize("entry", [(1, 0), (3, 2)])  # on the fitting tree, off it
def test_certify_rejects_inconsistent_signs(monkeypatch, entry):
    # one negated off-diagonal pair admits no sign gauge: every plaquette
    # flip lies on a 4-cycle of commuting flips
    i, j = entry

    def negate(m):
        if m[i, j] == 0:
            raise AssertionError(f"({i}, {j}) is not a stored flip entry")
        m[i, j] *= -1
        m[j, i] *= -1

    _patch_spin_matrix(monkeypatch, negate)
    report = certify_isomorphism(LatticeConfig(2, 3, P, 1.0))
    assert not report.passed
    assert report.max_deviation > 0.1


def test_certify_shift_values():
    lam = 1.0
    closed = certify_isomorphism(LatticeConfig(2, 2, C, lam))
    assert closed.shift == pytest.approx(2 * 4 * h_x(lam), abs=1e-10)
    periodic = certify_isomorphism(LatticeConfig(2, 2, P, lam))
    # 2N h_x from the magnetic constant plus the reference-point constant
    # dropped between the projector and zz forms
    expect = 2 * 4 * h_x(lam) + 27 * math.sqrt(3) / 32 * lam * 4
    assert periodic.shift == pytest.approx(expect, abs=1e-10)


def test_certify_fault_injection():
    report = certify_isomorphism(LatticeConfig(2, 2, P, 1.0), perturbation=1e-3)
    assert not report.passed
    assert report.worst_entry is not None
    assert report.max_deviation == pytest.approx(1e-3, rel=1e-6)


def test_certify_report_json_fields():
    report = certify_isomorphism(LatticeConfig(2, 2, P, 1.0))
    d = report.to_dict()
    for key in ("gauss_states", "reachable_states", "fitted_shift", "max_deviation", "passed"):
        assert key in d
