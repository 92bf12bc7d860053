"""Command-line interface.

Every command reads a JSON lattice config (flags may override single
fields) and writes CSV/JSON outputs; main adds a manifest with their sha256
digests and the argv it was given. Runs are fully deterministic:
re-running with the same config reproduces byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .circuit import emit_trotter_step, verify_circuit, VERIFY_MAX_QUBITS
from .hamiltonian import build_hamiltonian
from .lattice import LatticeConfig, require_nondegenerate
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
from .spinbasis import all_sectors, basis_dim, build_sector


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_csv(path: str, header: str, rows) -> str:
    """One line per row of Python ints, strs and floats; str of a float is
    its shortest round-trip repr."""
    with open(path, "w") as f:
        f.write(header + "\n")
        f.writelines(",".join(map(str, row)) + "\n" for row in rows)
    return path


def _write_json(path: str, obj) -> str:
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def _write_manifest(out_prefix: str, cfg: LatticeConfig, command: list[str], outputs: list[str],
                    config_path: str | None = None) -> str:
    manifest = {
        "command": command,
        "config": cfg.to_dict(),
        "version": __version__,
        "deterministic": True,
        "outputs": {os.path.basename(p): _sha256(p) for p in sorted(outputs)},
    }
    if config_path:
        manifest["input_digest"] = _sha256(config_path)
    return _write_json(out_prefix + ".manifest.json", manifest)


def _load_config(args) -> LatticeConfig:
    if args.config:
        d = LatticeConfig.from_json(args.config).to_dict()
    else:
        d = {"nx": 2, "ny": 2, "bc": "periodic", "lambda": 1.0}
    for key, value in (("nx", args.nx), ("ny", args.ny), ("bc", args.bc), ("lambda", args.lam)):
        if value is not None:
            d[key] = value
    return LatticeConfig.from_dict(d)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON lattice config")
    p.add_argument("--nx", type=int)
    p.add_argument("--ny", type=int)
    p.add_argument("--bc", choices=["closed", "periodic"])
    p.add_argument("--lam", "--lambda", dest="lam", type=float)
    p.add_argument("--out", default="hexgauge_out", help="output file prefix")


def _wilson_operators(cfg: LatticeConfig):
    """O1 and O2 at the origin; O2 is None where the 2-plaquette loop is not
    defined: a closed lattice needs a second row for the partner plaquette,
    and a periodic one ny >= 3 to keep the eight-plaquette chain off the loop."""
    o1 = wilson1_operator(cfg, (0, 0))
    return o1, (wilson2_operator(cfg, (0, 0)) if cfg.ny >= (3 if cfg.periodic else 2) else None)


# Every command takes (cfg, args) and returns (exit code, paths written);
# main writes the manifest over those paths.

def cmd_spectrum(cfg: LatticeConfig, args) -> tuple[int, list[str]]:
    if args.sectors:
        if not cfg.periodic:
            raise ValueError("--sectors requires periodic BC")
        rows = ((nx_q, ny_q, k, v) for nx_q, ny_q, vals in sector_spectra(cfg)
                for k, v in enumerate(vals.tolist()))
        return 0, [_write_csv(args.out + ".sectors.csv", "nx_q,ny_q,index,eigenvalue", rows)]
    if cfg.periodic:
        # the translation sectors split H into blocks whose spectra
        # together are H's; closed BC has no translations to split by
        vals = np.sort(np.concatenate([v for _, _, v in sector_spectra(cfg)]))
        op = build_hamiltonian(cfg) if args.export_mtx else None
    else:
        op = build_hamiltonian(cfg)
        vals = diagonalize(op, mode="full", vectors=False).eigenvalues
    paths = [_write_csv(args.out + ".spectrum.csv", "index,eigenvalue", enumerate(vals.tolist()))]
    if args.export_mtx:
        op.export_mtx(args.out + ".mtx")
        paths.append(args.out + ".mtx")
    return 0, paths


# Words formatted per write of the basis list.
BASIS_CHUNK = 1 << 14
HEX_DIGITS = np.frombuffer(b"0123456789abcdef", np.uint8)


def cmd_basis(cfg: LatticeConfig, args) -> tuple[int, list[str]]:
    require_nondegenerate(cfg)
    # the basis is 0 .. dim-1 (state_array): its words, chunked, as _write_json writes them
    dim = basis_dim(cfg, cfg.periodic)
    head = json.dumps({"config": cfg.to_dict(), "dim": dim}, indent=2, sort_keys=True)
    path = args.out + ".basis.json"
    with open(path, "wb") as f:
        f.write(head[:-2].encode() + b',\n  "states_hex": [\n    "0')
        for width in range(1, len(f"{dim - 1:x}") + 1):
            # the words of one hex width, chunked, each a row of '",\n    "' and its digits
            first, end = max(1, 16 ** (width - 1)), min(dim, 16**width)
            for lo in range(first, end, BASIS_CHUNK):
                hi = min(lo + BASIS_CHUNK, end)
                words = np.empty((hi - lo, 8 + width), np.uint8)
                words[:, :8] = np.frombuffer(b'",\n    "', np.uint8)
                words[:, 8:] = HEX_DIGITS[(np.arange(lo, hi)[:, None] >> np.arange(4 * width - 4, -1, -4)) & 15]
                f.write(words)
        f.write(b'"\n  ]\n}\n')
    return 0, [path]


def _write_items(f, items: list, pad: str):
    """A non-empty list as json.dump(indent=2) lays it out with its closing
    bracket at pad: BASIS_CHUNK items per write, each chunk's item texts
    from json's C encoder."""
    sep = ",\n" + pad + "  "
    f.write("[" + sep[1:])
    for lo in range(0, len(items), BASIS_CHUNK):
        f.write((sep if lo else "") + json.dumps(items[lo:lo + BASIS_CHUNK], separators=(sep, ": "))[1:-1])
    f.write("\n" + pad + "]")


def cmd_sectors(cfg: LatticeConfig, args) -> tuple[int, list[str]]:
    if not cfg.periodic:
        raise ValueError("sectors require periodic BC")
    # the bytes _write_json writes for {"config", "sectors": [s.to_dict()]},
    # each sector's reps and norms in chunks (every sector keeps dim >= 1)
    head = json.dumps({"config": cfg.to_dict()}, indent=2, sort_keys=True)
    path = args.out + ".sectors.json"
    with open(path, "w") as f:
        f.write(head[:-2] + ',\n  "sectors": [')
        for n, sector in enumerate(all_sectors(cfg)):
            d = sector.to_dict()
            f.write(f'{"," if n else ""}\n    {{\n      "dim": {d["dim"]},\n      "norms": ')
            _write_items(f, d["norms"], "      ")
            f.write(f',\n      "nx_q": {d["nx_q"]},\n      "ny_q": {d["ny_q"]},\n      "reps": ')
            _write_items(f, d["reps"], "      ")
            f.write("\n    }")
        f.write("\n  ]\n}\n")
    return 0, [path]


def cmd_verify(cfg: LatticeConfig, args) -> tuple[int, list[str]]:
    report = certify_isomorphism(cfg)
    path = _write_json(args.out + ".verify.json", report.to_dict())
    print(report.to_json())
    return (0 if report.passed else 1), [path]


def cmd_wilson(cfg: LatticeConfig, args) -> tuple[int, list[str]]:
    if args.blocks:
        # a closed lattice or a bad sector is refused here, before the solve writes anything
        first = build_sector(cfg, *args.sector)
        sectors = first, build_sector(cfg, *args.sector_prime, first.orbits)
    op = build_hamiltonian(cfg)
    spec = diagonalize(op, mode="lowest")
    gs = spec.eigenvectors[:, 0]
    rows = [("ground_energy", float(spec.eigenvalues[0]))]
    ops = _wilson_operators(cfg)
    for name, o in zip(("o1", "o2"), ops):
        if o is not None:
            rows.append((f"{name}_expectation", float(np.real(np.vdot(gs, o @ gs)))))
    paths = [_write_csv(args.out + ".wilson.csv", "observable,value", rows)]
    if args.blocks:
        for name, make, o in zip(("o1", "o2"), (wilson1_block, wilson2_block), ops):
            if o is None:
                continue
            # the stored nonzero entries, row-major; + 0.0 writes -0.0 as 0.0
            block = make(*sectors)
            block.eliminate_zeros()
            block = block.tocoo()
            vals = block.data + 0.0
            rows = zip(block.row.tolist(), block.col.tolist(), vals.real.tolist(), vals.imag.tolist())
            paths.append(_write_csv(f"{args.out}.{name}_block.csv", "row,col,re,im", rows))
    return 0, paths


def cmd_evolve(cfg: LatticeConfig, args) -> tuple[int, list[str]]:
    if not np.isfinite(args.t):
        raise ValueError(f"--t must be finite, got {args.t}")
    if args.steps < 0:
        raise ValueError(f"--steps must be >= 0, got {args.steps}")
    op = build_hamiltonian(cfg)
    psi0 = basis_state(cfg, int(args.state, 16))
    o1, o2 = _wilson_operators(cfg)
    times = np.linspace(0.0, args.t, args.steps + 1)
    rows = ((t, expectation(o1, psi).real,
             expectation(o2, psi).real if o2 is not None else float("nan"),
             expectation(op.matrix, psi).real)
            for t, psi in trajectory(op, psi0, times))
    return 0, [_write_csv(args.out + ".evolve.csv", "t,re_o1,re_o2,energy", rows)]


def cmd_emit_circuit(cfg: LatticeConfig, args) -> tuple[int, list[str]]:
    # the step is built once: repeated for the circuit, verified on its own
    step = emit_trotter_step(cfg, args.dt)
    circ = step.repeated(args.steps)
    qasm = args.emit_qasm or (args.out + ".qasm")
    with open(qasm, "w") as f:
        f.write(circ.to_qasm())
    report = {"qubits": cfg.n_plaq, "gates": len(circ.gates), "dt": args.dt, "steps": args.steps}
    if cfg.n_plaq <= VERIFY_MAX_QUBITS:
        report["step_deviation"] = verify_circuit(step, cfg, args.dt)
    return 0, [qasm, _write_json(args.out + ".circuit.json", report)]


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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        code, paths = args.func(cfg, args)
        paths.append(_write_manifest(args.out, cfg, argv, paths, args.config))
    except (OSError, ValueError) as exc:
        # bad input, an over-budget size or an unwritable path: one line, no traceback
        print(f"hexgauge {args.command}: error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {', '.join(paths)}")
    return code


if __name__ == "__main__":
    sys.exit(main())
