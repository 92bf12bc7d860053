"""Command-line interface.

Every command reads a JSON lattice config (flags may override single
fields), writes CSV/JSON outputs plus a manifest with sha256 digests, and
is fully deterministic: re-running with the same config reproduces
byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .circuit import emit_trotter_circuit, emit_trotter_step, verify_circuit, VERIFY_MAX_QUBITS
from .hamiltonian import build_hamiltonian
from .lattice import LatticeConfig
from .momentum import sector_spectra, wilson1_block, wilson2_block
from .observables import (
    basis_state,
    diagonalize,
    expectation,
    trajectory,
    wilson1_operator,
    wilson2_operator,
)
from .oracle import certify_isomorphism
from .spinbasis import all_sectors, build_sector, state_array


def _fmt(x: float) -> str:
    return repr(float(x))


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_prefix: str, cfg: LatticeConfig, command: list[str], outputs: list[str],
                    config_path: str | None = None):
    manifest = {
        "command": command,
        "config": cfg.to_dict(),
        "version": __version__,
        "deterministic": True,
        "outputs": {os.path.basename(p): _sha256(p) for p in sorted(outputs)},
    }
    if config_path:
        manifest["input_digest"] = _sha256(config_path)
    path = out_prefix + ".manifest.json"
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def _load_config(args) -> LatticeConfig:
    if args.config:
        cfg = LatticeConfig.from_json(args.config)
        d = cfg.to_dict()
    else:
        d = {"nx": 2, "ny": 2, "bc": "periodic", "lambda": 1.0}
    if args.nx is not None:
        d["nx"] = args.nx
    if args.ny is not None:
        d["ny"] = args.ny
    if args.bc is not None:
        d["bc"] = args.bc
    if args.lam is not None:
        d["lambda"] = args.lam
    return LatticeConfig.from_dict(d)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON lattice config")
    p.add_argument("--nx", type=int)
    p.add_argument("--ny", type=int)
    p.add_argument("--bc", choices=["closed", "periodic"])
    p.add_argument("--lam", "--lambda", dest="lam", type=float)
    p.add_argument("--out", default="hexgauge_out", help="output file prefix")


def cmd_spectrum(args) -> int:
    cfg = _load_config(args)
    outputs = []
    if args.sectors:
        if not cfg.periodic:
            raise ValueError("--sectors requires periodic BC")
        path = args.out + ".sectors.csv"
        with open(path, "w") as f:
            f.write("nx_q,ny_q,index,eigenvalue\n")
            for nx_q, ny_q, vals in sector_spectra(cfg):
                for k, v in enumerate(vals):
                    f.write(f"{nx_q},{ny_q},{k},{_fmt(v)}\n")
        outputs.append(path)
    else:
        if cfg.periodic:
            # the translation sectors split H into blocks whose spectra
            # together are H's; closed BC has no translations to split by
            vals = np.sort(np.concatenate([v for _, _, v in sector_spectra(cfg)]))
            op = build_hamiltonian(cfg) if args.export_mtx else None
        else:
            op = build_hamiltonian(cfg)
            vals = diagonalize(op, mode="full", vectors=False).eigenvalues
        path = args.out + ".spectrum.csv"
        with open(path, "w") as f:
            f.write("index,eigenvalue\n")
            for k, v in enumerate(vals):
                f.write(f"{k},{_fmt(v)}\n")
        outputs.append(path)
        if args.export_mtx:
            mtx = args.out + ".mtx"
            op.export_mtx(mtx)
            outputs.append(mtx)
    outputs.append(_write_manifest(args.out, cfg, sys.argv[1:], outputs, args.config))
    print(f"wrote {', '.join(outputs)}")
    return 0


def cmd_basis(args) -> int:
    cfg = _load_config(args)
    # the basis is 0 .. dim-1 (state_array), so the words come from a range
    dim = len(state_array(cfg, cfg.periodic))
    path = args.out + ".basis.json"
    with open(path, "w") as f:
        json.dump(
            {"config": cfg.to_dict(), "dim": dim, "states_hex": [format(s, "x") for s in range(dim)]},
            f,
            indent=2,
            sort_keys=True,
        )
        f.write("\n")
    _write_manifest(args.out, cfg, sys.argv[1:], [path], args.config)
    print(f"{dim} basis states -> {path}")
    return 0


def cmd_sectors(args) -> int:
    cfg = _load_config(args)
    if not cfg.periodic:
        raise ValueError("sectors require periodic BC")
    dump = [s.to_dict() for s in all_sectors(cfg)]
    path = args.out + ".sectors.json"
    with open(path, "w") as f:
        json.dump({"config": cfg.to_dict(), "sectors": dump}, f, indent=2, sort_keys=True)
        f.write("\n")
    _write_manifest(args.out, cfg, sys.argv[1:], [path], args.config)
    print(f"{len(dump)} sectors -> {path}")
    return 0


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    report = certify_isomorphism(cfg, perturbation=(0.001 if args.corrupt else None))
    path = args.out + ".verify.json"
    with open(path, "w") as f:
        f.write(report.to_json())
        f.write("\n")
    _write_manifest(args.out, cfg, sys.argv[1:], [path], args.config)
    print(report.to_json())
    return 0 if report.passed else 1


def cmd_wilson(args) -> int:
    cfg = _load_config(args)
    if args.blocks and not cfg.periodic:
        raise ValueError("--blocks requires periodic BC")
    outputs = []
    op = build_hamiltonian(cfg)
    spec = diagonalize(op, mode="lowest", k=1)
    gs = spec.eigenvectors[:, 0]
    o1 = wilson1_operator(cfg, (0, 0))
    path = args.out + ".wilson.csv"
    with open(path, "w") as f:
        f.write("observable,value\n")
        f.write(f"ground_energy,{_fmt(spec.eigenvalues[0])}\n")
        f.write(f"o1_expectation,{_fmt(np.real(np.vdot(gs, o1 @ gs)))}\n")
        if cfg.periodic or cfg.ny >= 2:
            o2 = wilson2_operator(cfg, (0, 0))
            f.write(f"o2_expectation,{_fmt(np.real(np.vdot(gs, o2 @ gs)))}\n")
    outputs.append(path)
    if args.blocks:
        ka = build_sector(cfg, *args.sector)
        kb = build_sector(cfg, *args.sector_prime)
        for name, make in (("o1", wilson1_block), ("o2", wilson2_block)):
            block = make(ka, kb).toarray()
            bpath = f"{args.out}.{name}_block.csv"
            with open(bpath, "w") as f:
                f.write("row,col,re,im\n")
                for r in range(block.shape[0]):
                    for c in range(block.shape[1]):
                        f.write(f"{r},{c},{_fmt(block[r, c].real)},{_fmt(block[r, c].imag)}\n")
            outputs.append(bpath)
    outputs.append(_write_manifest(args.out, cfg, sys.argv[1:], outputs, args.config))
    print(f"wrote {', '.join(outputs)}")
    return 0


def cmd_evolve(args) -> int:
    if not np.isfinite(args.t):
        raise ValueError(f"--t must be finite, got {args.t}")
    if args.steps < 0:
        raise ValueError(f"--steps must be >= 0, got {args.steps}")
    cfg = _load_config(args)
    op = build_hamiltonian(cfg)
    psi0 = basis_state(cfg, int(args.state, 16))
    o1 = wilson1_operator(cfg, (0, 0))
    # the 2-plaquette loop has no placement on a single-row closed lattice
    o2 = wilson2_operator(cfg, (0, 0)) if (cfg.periodic or cfg.ny >= 2) else None
    times = np.linspace(0.0, args.t, args.steps + 1)
    path = args.out + ".evolve.csv"
    with open(path, "w") as f:
        f.write("t,re_o1,re_o2,energy\n")
        for t, psi in trajectory(op, psi0, times):
            v1 = expectation(o1, psi).real
            v2 = expectation(o2, psi).real if o2 is not None else float("nan")
            en = expectation(op.matrix, psi).real
            f.write(f"{_fmt(t)},{_fmt(v1)},{_fmt(v2)},{_fmt(en)}\n")
    _write_manifest(args.out, cfg, sys.argv[1:], [path], args.config)
    print(f"wrote {path}")
    return 0


def cmd_emit_circuit(args) -> int:
    cfg = _load_config(args)
    circ = emit_trotter_circuit(cfg, args.dt, args.steps)
    path = args.emit_qasm or (args.out + ".qasm")
    with open(path, "w") as f:
        f.write(circ.to_qasm())
    outputs = [path]
    report = {"qubits": cfg.n_plaq, "gates": len(circ.gates), "dt": args.dt, "steps": args.steps}
    if cfg.n_plaq <= VERIFY_MAX_QUBITS:
        step = emit_trotter_step(cfg, args.dt)
        report["step_deviation"] = verify_circuit(step, cfg, args.dt)
    rpath = args.out + ".circuit.json"
    with open(rpath, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    outputs.append(rpath)
    outputs.append(_write_manifest(args.out, cfg, sys.argv[1:], outputs, args.config))
    print(f"wrote {', '.join(outputs)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hexgauge", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="diagonalize and export eigenvalues")
    _add_common(p)
    p.add_argument("--sectors", action="store_true", help="momentum-resolved spectra")
    p.add_argument("--export-mtx", action="store_true", help="export MatrixMarket matrix")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("basis", help="enumerate basis states")
    _add_common(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("sectors", help="dump momentum sectors")
    _add_common(p)
    p.set_defaults(func=cmd_sectors)

    p = sub.add_parser("verify", help="certify the spin model against the gauge oracle")
    _add_common(p)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("wilson", help="Wilson loop expectations and momentum blocks")
    _add_common(p)
    p.add_argument("--blocks", action="store_true")
    p.add_argument("--sector", nargs=2, type=int, default=[0, 0], metavar=("NXQ", "NYQ"))
    p.add_argument("--sector-prime", nargs=2, type=int, default=[0, 0], metavar=("NXQ", "NYQ"))
    p.set_defaults(func=cmd_wilson)

    p = sub.add_parser("evolve", help="real-time quench evolution")
    _add_common(p)
    p.add_argument("--t", type=float, default=10.0, help="final time in units of a")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--state", default="0", help="initial spin word (hex), default vacuum")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("emit-circuit", help="emit a Trotter circuit as OpenQASM 2.0")
    _add_common(p)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--emit-qasm", help="QASM output path")
    p.set_defaults(func=cmd_emit_circuit)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # bad input or an over-budget size: one line, no traceback
        print(f"hexgauge {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
