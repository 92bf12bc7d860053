import json
import math

from hexgauge.cli import main
from hexgauge.hamiltonian import h_plus, h_x


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


def test_spectrum_sectors_vs_full(tmp_path):
    cfg = _write_cfg(tmp_path)
    full_out = str(tmp_path / "full")
    sect_out = str(tmp_path / "sect")
    assert main(["spectrum", "--config", cfg, "--out", full_out]) == 0
    assert main(["spectrum", "--config", cfg, "--sectors", "--out", sect_out]) == 0
    full = sorted(
        float(r.split(",")[1])
        for r in (tmp_path / "full.spectrum.csv").read_text().strip().splitlines()[1:]
    )
    sect = sorted(
        float(r.split(",")[3])
        for r in (tmp_path / "sect.sectors.csv").read_text().strip().splitlines()[1:]
    )
    assert len(full) == len(sect) == 8
    assert all(abs(a - b) < 1e-8 for a, b in zip(full, sect))


def test_outputs_byte_stable(tmp_path):
    cfg = _write_cfg(tmp_path)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    main(["spectrum", "--config", cfg, "--out", out1, "--export-mtx"])
    main(["spectrum", "--config", cfg, "--out", out2, "--export-mtx"])
    assert (tmp_path / "a.spectrum.csv").read_bytes() == (tmp_path / "b.spectrum.csv").read_bytes()
    assert (tmp_path / "a.mtx").read_bytes() == (tmp_path / "b.mtx").read_bytes()
    m1 = json.loads((tmp_path / "a.manifest.json").read_text())
    m2 = json.loads((tmp_path / "b.manifest.json").read_text())
    assert m1["outputs"]["a.spectrum.csv"] == m2["outputs"]["b.spectrum.csv"]


def test_verify_pass_and_corrupt(tmp_path):
    cfg = _write_cfg(tmp_path)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    report = json.loads((tmp_path / "v.verify.json").read_text())
    assert report["passed"] and report["max_deviation"] < 1e-10
    assert main(["verify", "--config", cfg, "--corrupt", "--out", str(tmp_path / "vc")]) == 1
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
    # t = 0 row: vacuum expectations vanish, energy is the vacuum diagonal
    assert abs(data[0][1]) < 1e-12 and abs(data[0][2]) < 1e-12
    energies = [row[3] for row in data]
    assert max(energies) - min(energies) < 1e-8 * max(1.0, abs(energies[0]))


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


def test_wilson_blocks(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = str(tmp_path / "w")
    assert main([
        "wilson", "--config", cfg, "--blocks",
        "--sector", "0", "0", "--sector-prime", "1", "0", "--out", out,
    ]) == 0
    rows = (tmp_path / "w.o1_block.csv").read_text().strip().splitlines()
    assert rows[0] == "row,col,re,im"
    assert (tmp_path / "w.wilson.csv").exists()


def test_wilson_blocks_closed_refused_before_work(tmp_path, capsys):
    # the closed-BC refusal comes before the ground-state solve: no output
    out = str(tmp_path / "w")
    assert main(["wilson", "--nx", "2", "--ny", "2", "--bc", "closed", "--blocks", "--out", out]) == 2
    assert "periodic BC" in capsys.readouterr().err
    assert list(tmp_path.glob("w*")) == []


def test_flag_overrides(tmp_path):
    out = str(tmp_path / "o")
    assert main(["basis", "--nx", "1", "--ny", "1", "--bc", "closed", "--lam", "1.0",
                 "--out", out]) == 0
    dump = json.loads((tmp_path / "o.basis.json").read_text())
    assert dump["dim"] == 2


def test_errors_exit_cleanly(tmp_path, capsys):
    # refused sizes and bad input print one line on stderr and exit with 2
    out = str(tmp_path / "e")
    for argv, words in [
        (["spectrum", "--nx", "4", "--ny", "4"], "dense budget"),
        (["evolve", "--state", "zz"], "'zz'"),
        (["sectors", "--bc", "closed"], "periodic BC"),
    ]:
        assert main([*argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert words in err and "Traceback" not in err and err.count("\n") == 1
