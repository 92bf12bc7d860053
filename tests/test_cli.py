import hashlib
import json
import math
import time

import numpy as np
import pytest
import scipy.sparse

from hexgauge import cli, oracle, spinbasis
from hexgauge.circuit import emit_trotter_step
from hexgauge.cli import main
from hexgauge.hamiltonian import SparseOperator, build_hamiltonian, build_periodic, h_plus, h_x
from hexgauge.lattice import BoundaryCondition, LatticeConfig
from hexgauge.momentum import wilson1_block, wilson2_block
from hexgauge.observables import diagonalize


def _write_cfg(tmp_path, nx=2, ny=2, bc="periodic", lam=1.0):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"nx": nx, "ny": ny, "bc": bc, "lambda": lam}))
    return str(path)


def test_spectrum_1x1_analytic(tmp_path):
    cfg = _write_cfg(tmp_path, nx=1, ny=1, bc="closed")
    out = str(tmp_path / "run")
    assert main(["spectrum", "--config", cfg, "--out", out]) == 0
    rows = (tmp_path / "run.spectrum.csv").read_text().strip().splitlines()
    assert rows[0] == "index,eigenvalue"
    vals = [float(r.split(",")[1]) for r in rows[1:]]
    hp, hx = h_plus(1.0), h_x(1.0)
    root = math.sqrt(hp * hp / 4 + hx * hx)
    assert abs(vals[0] - (hp / 2 - root)) < 1e-10
    assert abs(vals[1] - (hp / 2 + root)) < 1e-10
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert "run.spectrum.csv" in manifest["outputs"]


def _csv_column(path, col):
    return np.array([float(r.split(",")[col]) for r in path.read_text().strip().splitlines()[1:]])


def test_spectrum_sectors_vs_full(tmp_path):
    # both periodic outputs come from the momentum blocks; the reference is
    # the dense spectrum of the real-space quotient Hamiltonian
    for nx, ny in [(2, 2), (2, 3), (3, 3), (3, 4)]:
        cfg = LatticeConfig(nx, ny, BoundaryCondition.PERIODIC, 1.0)
        dense = np.linalg.eigvalsh(build_periodic(cfg).to_dense())
        full_out, sect_out = str(tmp_path / f"full{nx}{ny}"), str(tmp_path / f"sect{nx}{ny}")
        assert main(["spectrum", "--nx", str(nx), "--ny", str(ny), "--out", full_out]) == 0
        assert main(["spectrum", "--nx", str(nx), "--ny", str(ny), "--sectors", "--out", sect_out]) == 0
        full = _csv_column(tmp_path / f"full{nx}{ny}.spectrum.csv", 1)
        sect_csv = tmp_path / f"sect{nx}{ny}.sectors.csv"
        listed = {tuple(r.split(",")[:2]) for r in sect_csv.read_text().strip().splitlines()[1:]}
        assert listed == {(str(qx), str(qy)) for qx in range(nx) for qy in range(ny)}
        sect = np.sort(_csv_column(sect_csv, 3))
        assert len(full) == len(sect) == 1 << (nx * ny - 1)
        assert np.all(np.diff(full) >= 0)
        assert np.max(np.abs(full - dense)) < 1e-10
        assert np.max(np.abs(sect - dense)) < 1e-10


def test_outputs_byte_stable(tmp_path):
    cfg = _write_cfg(tmp_path)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    main(["spectrum", "--config", cfg, "--out", out1, "--export-mtx"])
    main(["spectrum", "--config", cfg, "--out", out2, "--export-mtx"])
    main(["spectrum", "--config", cfg, "--out", out1 + "s", "--sectors", "--export-mtx"])
    main(["spectrum", "--config", cfg, "--out", out2 + "s", "--sectors"])
    assert (tmp_path / "a.spectrum.csv").read_bytes() == (tmp_path / "b.spectrum.csv").read_bytes()
    assert (tmp_path / "as.sectors.csv").read_bytes() == (tmp_path / "bs.sectors.csv").read_bytes()
    # --export-mtx writes the real-space H whichever route gave the spectrum
    assert (tmp_path / "a.mtx").read_bytes() == (tmp_path / "b.mtx").read_bytes() == (tmp_path / "as.mtx").read_bytes()
    m1 = json.loads((tmp_path / "a.manifest.json").read_text())
    m2 = json.loads((tmp_path / "b.manifest.json").read_text())
    assert m1["outputs"]["a.spectrum.csv"] == m2["outputs"]["b.spectrum.csv"]


def test_verify_pass_and_corrupt(tmp_path, perturb_spin):
    cfg = _write_cfg(tmp_path)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    report = json.loads((tmp_path / "v.verify.json").read_text())
    assert report["passed"] and report["max_deviation"] < 1e-10
    perturb_spin(1e-3)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "vc")]) == 1
    bad = json.loads((tmp_path / "vc.verify.json").read_text())
    assert not bad["passed"] and bad["worst_entry"] is not None


def test_verify_closed_2x3(tmp_path):
    cfg = _write_cfg(tmp_path, nx=2, ny=3, bc="closed")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v23")]) == 0


def test_evolve_energy_conservation(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = str(tmp_path / "e")
    assert main(["evolve", "--config", cfg, "--t", "5", "--steps", "20", "--out", out]) == 0
    rows = (tmp_path / "e.evolve.csv").read_text().strip().splitlines()
    assert rows[0] == "t,re_o1,re_o2,energy"
    data = [[float(x) for x in r.split(",")] for r in rows[1:]]
    assert len(data) == 21
    assert data[0][0] == 0.0
    # t = 0 row: the vacuum <O1> vanishes, energy is the vacuum diagonal; O2
    # is not defined on periodic 2x2, where its chain wraps onto the loop
    assert abs(data[0][1]) < 1e-12 and all(math.isnan(row[2]) for row in data)
    energies = [row[3] for row in data]
    assert max(energies) - min(energies) < 1e-8 * max(1.0, abs(energies[0]))


@pytest.mark.parametrize("ny, has_o2", [(2, False), (3, True)])
def test_wilson_o2_only_where_defined(tmp_path, ny, has_o2):
    # on periodic ny = 2 the eight-plaquette chain of O2 wraps onto the loop
    # (O2 is not Hermitian there), so neither its expectation nor its block is written
    out = str(tmp_path / "w")
    assert main(["wilson", "--nx", "2", "--ny", str(ny), "--blocks", "--out", out]) == 0
    names = [r.split(",")[0] for r in (tmp_path / "w.wilson.csv").read_text().splitlines()[1:]]
    assert names == ["ground_energy", "o1_expectation"] + ["o2_expectation"] * has_o2
    assert (tmp_path / "w.o1_block.csv").exists()
    assert (tmp_path / "w.o2_block.csv").exists() == has_o2


@pytest.mark.parametrize("ny, has_o2", [(2, False), (3, True)])
def test_evolve_o2_nan_where_undefined(tmp_path, ny, has_o2):
    out = str(tmp_path / "e")
    assert main(["evolve", "--nx", "2", "--ny", str(ny), "--state", "5", "--t", "1", "--steps", "3",
                 "--out", out]) == 0
    o2 = _csv_column(tmp_path / "e.evolve.csv", 2)
    assert len(o2) == 4 and (np.all(np.isfinite(o2)) if has_o2 else np.all(np.isnan(o2)))


def test_emit_circuit(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = str(tmp_path / "c")
    assert main(["emit-circuit", "--config", cfg, "--dt", "0.05", "--steps", "2", "--out", out]) == 0
    qasm = (tmp_path / "c.qasm").read_text()
    assert qasm.startswith("OPENQASM 2.0;")
    assert "qreg q[4];" in qasm
    report = json.loads((tmp_path / "c.circuit.json").read_text())
    assert report["step_deviation"] < 0.05
    # manifest digest stable across runs
    out2 = str(tmp_path / "c2")
    main(["emit-circuit", "--config", cfg, "--dt", "0.05", "--steps", "2", "--out", out2])
    assert (tmp_path / "c.qasm").read_bytes() == (tmp_path / "c2.qasm").read_bytes()


def test_basis_and_sectors(tmp_path):
    cfg = _write_cfg(tmp_path)
    assert main(["basis", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    dump = json.loads((tmp_path / "b.basis.json").read_text())
    assert dump["dim"] == 8
    assert main(["sectors", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    sectors = json.loads((tmp_path / "s.sectors.json").read_text())["sectors"]
    assert sum(s["dim"] for s in sectors) == 8


def test_wilson_blocks(tmp_path, monkeypatch):
    # both sectors share the one orbit table
    tables, build = [], spinbasis.build_orbit_table

    def counted(cfg):
        tables.append(build(cfg))
        return tables[-1]

    monkeypatch.setattr(spinbasis, "build_orbit_table", counted)
    cfg = _write_cfg(tmp_path)
    out = str(tmp_path / "w")
    assert main([
        "wilson", "--config", cfg, "--blocks",
        "--sector", "0", "0", "--sector-prime", "1", "0", "--out", out,
    ]) == 0
    rows = (tmp_path / "w.o1_block.csv").read_text().strip().splitlines()
    assert rows[0] == "row,col,re,im"
    assert (tmp_path / "w.wilson.csv").exists()
    assert len(tables) == 1


def test_one_parser_per_process_keeps_calls_apart(tmp_path, monkeypatch):
    # main reuses one parser; a call with --sector and one without each see
    # their own sectors, the default being an immutable (0, 0)
    seen, build = [], spinbasis.build_sector

    def recorded(cfg, nx_q, ny_q, orbits=None):
        seen.append((nx_q, ny_q))
        return build(cfg, nx_q, ny_q, orbits)

    monkeypatch.setattr(cli, "build_sector", recorded)
    argv = ["wilson", "--nx", "3", "--ny", "3", "--blocks"]
    assert main([*argv, "--sector", "1", "2", "--out", str(tmp_path / "a")]) == 0
    assert main([*argv, "--sector-prime", "2", "0", "--out", str(tmp_path / "b")]) == 0
    assert main([*argv, "--out", str(tmp_path / "c")]) == 0
    assert seen == [(1, 2), (0, 0), (0, 0), (2, 0), (0, 0), (0, 0)]
    assert cli.build_parser() is cli.build_parser()
    assert cli.build_parser().parse_args(["wilson"]).sector == (0, 0)


@pytest.mark.parametrize("argv", [
    ["--nx", "2", "--ny", "2", "--bc", "closed"],
    ["--nx", "3", "--ny", "4", "--sector", "9", "9"],
    ["--nx", "3", "--ny", "4", "--sector-prime", "0", "4"],
], ids=["closed", "bad-sector", "bad-sector-prime"])
def test_wilson_blocks_closed_refused_before_work(tmp_path, capsys, argv):
    # both sectors are built before the ground-state solve: a closed lattice
    # or an out-of-range sector exits 2 and leaves no output behind
    out = str(tmp_path / "w")
    assert main(["wilson", *argv, "--blocks", "--out", out]) == 2
    err = capsys.readouterr().err
    assert ("periodic BC" in err or "out of range" in err) and err.count("\n") == 1
    assert list(tmp_path.glob("w*")) == []


@pytest.mark.parametrize("nx, ny, k, k_prime", [
    (3, 3, (0, 0), (0, 0)), (3, 3, (0, 0), (1, 0)), (3, 4, (1, 2), (2, 1)),
])
def test_wilson_blocks_write_stored_entries(tmp_path, nx, ny, k, k_prime):
    # one row per nonzero entry, row-major; read back they give the dense block
    out = str(tmp_path / "w")
    assert main(["wilson", "--nx", str(nx), "--ny", str(ny), "--blocks", "--sector", *map(str, k),
                 "--sector-prime", *map(str, k_prime), "--out", out]) == 0
    cfg = LatticeConfig(nx, ny, BoundaryCondition.PERIODIC, 1.0)
    sector = spinbasis.build_sector(cfg, *k)
    sector_p = spinbasis.build_sector(cfg, *k_prime, sector.orbits)
    for name, make in (("o1", wilson1_block), ("o2", wilson2_block)):
        dense = make(sector, sector_p).toarray()
        lines = (tmp_path / f"w.{name}_block.csv").read_text().splitlines()
        assert lines[0] == "row,col,re,im"
        rows = [(int(r), int(c), float(re), float(im)) for r, c, re, im in (ln.split(",") for ln in lines[1:])]
        assert [(r, c) for r, c, _, _ in rows] == sorted({(r, c) for r, c, _, _ in rows})
        assert all(re != 0.0 or im != 0.0 for _, _, re, im in rows)
        read = np.zeros(dense.shape, dtype=complex)
        for r, c, re, im in rows:
            read[r, c] = complex(re, im)
        assert np.array_equal(read, dense)


@pytest.mark.parametrize("chunk", [None, 3])
@pytest.mark.parametrize("nx, ny, bc", [(1, 1, "closed"), (2, 2, "periodic"), (3, 4, "periodic")])
def test_basis_bytes_match_json_dump(tmp_path, monkeypatch, nx, ny, bc, chunk):
    # the chunked word list gives the bytes json.dump writes for the whole
    # dict, at the default chunk size and at one that splits every list
    if chunk:
        monkeypatch.setattr(cli, "BASIS_CHUNK", chunk)
    assert main(["basis", "--nx", str(nx), "--ny", str(ny), "--bc", bc, "--out", str(tmp_path / "b")]) == 0
    dim = 1 << (nx * ny - (bc == "periodic"))
    dump = {"config": {"nx": nx, "ny": ny, "bc": bc, "lambda": 1.0}, "dim": dim,
            "states_hex": [format(s, "x") for s in range(dim)]}
    assert (tmp_path / "b.basis.json").read_bytes() == (json.dumps(dump, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("chunk", [None, 3])
@pytest.mark.parametrize("nx, ny", [(2, 2), (3, 3), (3, 4)])
def test_sectors_bytes_match_json_dump(tmp_path, monkeypatch, nx, ny, chunk):
    # each sector's reps and norms, written in chunks, give the bytes
    # json.dump writes for the whole dict
    if chunk:
        monkeypatch.setattr(cli, "BASIS_CHUNK", chunk)
    assert main(["sectors", "--nx", str(nx), "--ny", str(ny), "--out", str(tmp_path / "s")]) == 0
    cfg = LatticeConfig(nx, ny, BoundaryCondition.PERIODIC, 1.0)
    dump = {"config": cfg.to_dict(),
            "sectors": [{"nx_q": s.nx_q, "ny_q": s.ny_q, "dim": s.dim, "norms": s.norms.tolist(),
                         "reps": [format(r, "x") for r in s.reps.tolist()]}
                        for s in spinbasis.all_sectors(cfg)]}
    written = (tmp_path / "s.sectors.json").read_bytes()
    assert written == (json.dumps(dump, indent=2, sort_keys=True) + "\n").encode()
    # every sector lists dim hex-word reps and dim norms
    for s in json.loads(written)["sectors"]:
        assert s["dim"] == len(s["reps"]) == len(s["norms"])
        assert all(isinstance(r, str) and int(r, 16) >= 0 for r in s["reps"])


def test_flag_overrides(tmp_path):
    out = str(tmp_path / "o")
    assert main(["basis", "--nx", "1", "--ny", "1", "--bc", "closed", "--lam", "1.0",
                 "--out", out]) == 0
    dump = json.loads((tmp_path / "o.basis.json").read_text())
    assert dump["dim"] == 2


def test_errors_exit_cleanly(tmp_path, capsys):
    # refused sizes, bad input and unreadable or unwritable paths print one
    # line on stderr and exit with 2
    out = str(tmp_path / "e")
    no_nx = tmp_path / "no_nx.json"
    no_nx.write_text(json.dumps({"ny": 2, "lambda": 1.0}))
    a_list = tmp_path / "list.json"
    a_list.write_text(json.dumps([2, 2, "periodic", 1.0]))
    for argv, words in [
        (["spectrum", "--nx", "4", "--ny", "5"], "dense budget"),  # at the k = 0 block
        (["spectrum", "--nx", "4", "--ny", "4", "--bc", "closed"], "dense budget"),
        (["evolve", "--state", "zz"], "'zz'"),
        (["evolve", "--t", "nan"], "--t"),
        (["evolve", "--t", "inf"], "--t"),
        (["evolve", "--steps", "-1"], "--steps"),
        (["sectors", "--bc", "closed"], "periodic BC"),
        (["basis", "--config", str(tmp_path / "missing.json")], "missing.json"),
        (["basis", "--config", str(no_nx)], "missing config keys: nx"),
        (["basis", "--config", str(a_list)], "JSON object"),
        (["basis", "--out", str(tmp_path / "no" / "such" / "dir")], "No such file"),
    ]:
        # an --out in argv comes after this one and wins
        assert main([argv[0], "--out", out, *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert words in err and "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("t", ["1e20", "1e200", "1e300"])
def test_evolve_refuses_unfinishable_t(tmp_path, capsys, t):
    # a finite --t whose steps exp(-iHt) cannot take is refused up front,
    # not run for hours, overflowed to NaN or left to a traceback
    out = str(tmp_path / "e")
    start = time.perf_counter()
    assert main(["evolve", "--t", t, "--out", out]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "would not finish" in err and "Traceback" not in err and err.count("\n") == 1
    assert list(tmp_path.glob("e*")) == []


@pytest.mark.parametrize("argv", [
    ["emit-circuit", "--nx", "1", "--ny", "3", "--bc", "closed", "--dt", "0.05"],
    ["evolve", "--nx", "2", "--ny", "2"],
])
def test_steps_over_budget_refused(tmp_path, capsys, argv):
    # a --steps whose gate list and QASM text, or time grid, would not fit
    # the memory budget is refused before any of it is allocated
    out = str(tmp_path / "s")
    start = time.perf_counter()
    assert main([*argv, "--steps", "1000000000000", "--out", out]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "budget" in err and "Traceback" not in err and err.count("\n") == 1
    assert list(tmp_path.glob("s*")) == []


def _no_call(name):
    def refuse(*args):
        raise AssertionError(f"{name} called")
    return refuse


@pytest.mark.parametrize("nx, ny", [(4, 5), (2, 11)])
def test_closed_spectrum_priced_before_build(tmp_path, capsys, monkeypatch, nx, ny):
    # closed H is one block of dimension 2^N: its dense solve is priced from
    # that dimension and refused before any Hamiltonian is built
    monkeypatch.setattr(cli, "build_hamiltonian", _no_call("build_hamiltonian"))
    start = time.perf_counter()
    assert main(["spectrum", "--nx", str(nx), "--ny", str(ny), "--bc", "closed", "--out", str(tmp_path / "s")]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"dimension {1 << nx * ny} needs about" in err and "dense budget" in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_verify_refuses_over_cap_before_enumeration(tmp_path, capsys, monkeypatch):
    # the spin side is built first, so basis_dim refuses an over-cap lattice
    # before the gauge enumeration's GF(2) elimination runs
    monkeypatch.setattr(oracle, "enumerate_gauge_states", _no_call("enumerate_gauge_states"))
    assert main(["verify", "--nx", "5", "--ny", "5", "--bc", "closed", "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert "25 plaquettes; enumeration is capped at 22" in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_closed_export_mtx_reuses_solved_h(tmp_path, monkeypatch):
    # closed spectrum --export-mtx writes the H it just solved, built once
    built = []

    def counted(cfg):
        built.append(cfg)
        return build_hamiltonian(cfg)

    monkeypatch.setattr(cli, "build_hamiltonian", counted)
    out = str(tmp_path / "r")
    assert main(["spectrum", "--nx", "2", "--ny", "3", "--bc", "closed", "--export-mtx", "--out", out]) == 0
    assert len(built) == 1
    build_hamiltonian(LatticeConfig(2, 3, BoundaryCondition.CLOSED, 1.0)).export_mtx(str(tmp_path / "ref.mtx"))
    assert (tmp_path / "r.mtx").read_bytes() == (tmp_path / "ref.mtx").read_bytes()


def _evolve_steps(steps):
    args = cli.build_parser().parse_args(["evolve", "--steps", str(steps)])
    return cli.cmd_evolve(LatticeConfig(2, 2, BoundaryCondition.PERIODIC, 1.0), args)


@pytest.mark.parametrize("refused", [
    # a 20000-dimensional operator: its dense solve alone would take 9.6 GB
    lambda: diagonalize(SparseOperator(scipy.sparse.identity(20000, format="csr"), "identity"), vectors=False),
    lambda: _evolve_steps(10**12),
    lambda: emit_trotter_step(LatticeConfig(1, 3, BoundaryCondition.CLOSED, 1.0), 0.05).repeated(10**12),
], ids=["diagonalize", "evolve", "repeated"])
def test_one_budget_message(refused):
    # every refusal over the dense budget is observables.require_budget's one message
    message = r"needs about \d+ bytes \(\d+\.\d GiB\), over the 2147483648-byte dense budget$"
    with pytest.raises(ValueError, match=message):
        refused()


@pytest.mark.parametrize("key, value", [("nx", None), ("nx", 2.7), ("nx", True), ("lambda", "1")])
def test_config_types_checked(tmp_path, capsys, key, value):
    # a non-integer size or a non-numeric coupling is refused by name, not
    # truncated (2.7 -> 2), read as 1 (true) or left to a TypeError
    d = {"nx": 2, "ny": 2, "bc": "periodic", "lambda": 1.0, key: value}
    with pytest.raises(ValueError, match=f"config key {key} must be"):
        LatticeConfig.from_dict(d)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    assert main(["basis", "--config", str(path), "--out", str(tmp_path / "b")]) == 2
    err = capsys.readouterr().err
    assert f"config key {key}" in err and "Traceback" not in err and err.count("\n") == 1
    assert list(tmp_path.glob("b*")) == []


def test_manifest_records_given_argv(tmp_path):
    # the manifest's command is the argv main was given, not sys.argv
    argv = ["basis", "--nx", "1", "--ny", "2", "--bc", "closed", "--out", str(tmp_path / "m")]
    assert main(argv) == 0
    assert json.loads((tmp_path / "m.manifest.json").read_text())["command"] == argv


def test_manifest_covers_outputs(tmp_path):
    # every command writes its outputs beside its manifest, which lists
    # exactly those files by name with their digests; nothing is written
    # elsewhere, and every CSV float cell is its shortest repr
    small = ["--nx", "2", "--ny", "3"]
    closed = ["--nx", "2", "--ny", "3", "--bc", "closed"]
    runs = [
        ["spectrum", *small, "--export-mtx"],
        ["spectrum", *small, "--sectors"],
        ["spectrum", *small, "--sectors", "--export-mtx"],
        ["spectrum", *closed, "--export-mtx"],
        ["basis", *small],
        ["sectors", *small],
        ["verify", *small],
        ["wilson", *small, "--blocks", "--sector", "1", "0", "--sector-prime", "1", "1"],
        ["wilson", *closed],
        ["evolve", *closed, "--state", "2a", "--t", "1", "--steps", "5"],
        ["emit-circuit", *closed, "--dt", "0.1"],
    ]
    for n, argv in enumerate(runs):
        folder = tmp_path / f"run{n}"
        folder.mkdir()
        assert main([*argv, "--out", str(folder / "r")]) == 0
        manifest = json.loads((folder / "r.manifest.json").read_text())
        assert set(manifest["outputs"]) == {p.name for p in folder.iterdir()} - {"r.manifest.json"}, argv
        for name, digest in manifest["outputs"].items():
            p = folder / name
            assert digest == hashlib.sha256(p.read_bytes()).hexdigest()
            if p.suffix != ".csv":
                continue
            for line in p.read_text().splitlines()[1:]:
                for cell in line.split(","):
                    if not cell.lstrip("-").isdigit() and _is_float(cell):
                        assert repr(float(cell)) == cell, (p.name, cell)
    assert {p.name for p in tmp_path.iterdir()} == {f"run{n}" for n in range(len(runs))}


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("nx, ny", [("1", "2"), ("2", "1")])
def test_emit_circuit_refuses_degenerate_periodic(tmp_path, capsys, nx, ny):
    out = str(tmp_path / "c")
    assert main(["emit-circuit", "--nx", nx, "--ny", ny, "--dt", "0.1", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "periodic lattices need nx >= 2 and ny >= 2" in err and "Traceback" not in err
    assert err.count("\n") == 1
    assert list(tmp_path.glob("c*")) == []


@pytest.mark.parametrize("nx, ny", [("1", "3"), ("3", "1")])
def test_basis_refuses_degenerate_periodic(tmp_path, capsys, nx, ny):
    # the same lattice check, and message, as every other command
    out = str(tmp_path / "b")
    assert main(["basis", "--nx", nx, "--ny", ny, "--bc", "periodic", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "periodic lattices need nx >= 2 and ny >= 2" in err and "Traceback" not in err
    assert err.count("\n") == 1
    assert list(tmp_path.glob("b*")) == []


@pytest.mark.parametrize("argv", [["sectors"], ["spectrum", "--sectors"], ["spectrum", "--sectors", "--export-mtx"]])
def test_sectors_refuse_closed_before_writing(tmp_path, capsys, argv):
    # spinbasis refuses closed BC while the sectors are built, before any file opens
    assert main([*argv, "--bc", "closed", "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert "momentum sectors require periodic BC" in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_emit_circuit_writes_qasm_beside_its_manifest(tmp_path, capsys):
    # the QASM goes to <out>.qasm like every output; there is no path option
    with pytest.raises(SystemExit) as exc:
        main(["emit-circuit", "--dt", "0.1", "--emit-qasm", str(tmp_path / "q.qasm"),
              "--out", str(tmp_path / "c")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --emit-qasm" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_verify_has_no_fault_flag(tmp_path, capsys):
    # a failed certificate is a test's monkeypatch, not a hidden CLI option
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--corrupt", "--out", str(tmp_path / "v")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --corrupt" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
