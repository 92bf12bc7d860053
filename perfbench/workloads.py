"""Benchmark workloads: seeded job plans, the timed jobs and their gates.

A workload is a fixed list of jobs (one pass) repeated over a seeded
sequence of couplings.  The seed draws only inputs that leave the amount of
work unchanged: the coupling lambda from a fixed grid near 1 (where the
iterative eigensolver's cost is flat), the Wilson-loop placement, the quench
word and a momentum-sector pair of equal dimensions.  Every pass gets its own
lambda, so no two passes share a LatticeConfig and no cfg-keyed memo can
carry work from one pass to the next.

Jobs call hexgauge only through module attributes (``hamiltonian.build_...``)
so that the traced run's spans, which replace those attributes, see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass

import numpy as np

from hexgauge import cli, hamiltonian, momentum, observables, spinbasis
from hexgauge.lattice import BoundaryCondition, LatticeConfig

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "references.json")

# Couplings 0.950, 0.952, ..., 1.050: eigsh cost is flat across this range.
LAMBDAS = tuple(round(0.95 + 0.002 * i, 3) for i in range(51))

TROTTER_DT = 0.05
TROTTER_STEPS = 4
EVOLVE_T = 5.0
EVOLVE_STEPS = 200

ENERGY_RTOL = 1e-9
RESIDUAL_RTOL = 1e-8
TRACE_RTOL = 1e-9
TROTTER_RTOL = 1e-6
CERT_TOL = 1e-10

P, C = BoundaryCondition.PERIODIC, BoundaryCondition.CLOSED

# Lattices per workload.  "full" is what the benchmark times; "smoke" is a
# miniature with the same job list, used for the warm-up pass and the tests.
LATTICES = {
    "full": {
        "ground_state": [(P, 4, 4), (C, 3, 5)],
        "sector_k0": (P, 3, 5),
        "sector_spectra": (P, 3, 4),
        "verify": [(P, 3, 4), (C, 2, 5)],
        "emit-circuit": (C, 1, 11),
        "evolve": (C, 2, 5),
        "spectrum": (P, 3, 4),
        "wilson": (P, 3, 4),
        "basis": (P, 4, 5),
    },
    "smoke": {
        "ground_state": [(P, 3, 3), (C, 2, 3)],
        "sector_k0": (P, 3, 3),
        "sector_spectra": (P, 2, 3),
        "verify": [(P, 2, 3), (C, 2, 2)],
        "emit-circuit": (C, 1, 4),
        "evolve": (C, 2, 2),
        "spectrum": (P, 2, 3),
        "wilson": (P, 3, 3),
        "basis": (P, 3, 3),
    },
}

# Momentum sectors of one dimension on the `wilson --blocks` lattice (165 on
# 3x4, 28 on 3x3), so every drawn pair costs the same.
SECTOR_POOL = {
    "full": [(1, 1), (2, 1), (1, 3), (2, 3)],
    "smoke": [(1, 1), (2, 1), (1, 2), (2, 2)],
}

WORKLOADS = ("ground_state", "sectors", "cli_mix")


@dataclass(frozen=True)
class Job:
    """One timed call into hexgauge; `kind` selects the runner and gates."""

    kind: str
    cfg: LatticeConfig
    args: tuple = ()

    @property
    def label(self) -> str:
        return f"{self.kind}-{lattice_key(self.cfg)}"


def lattice_key(cfg: LatticeConfig) -> str:
    return f"{cfg.bc.value}-{cfg.nx}x{cfg.ny}"


def lam_key(lam: float) -> str:
    return f"{lam:.3f}"


def make_cfg(spec, lam: float) -> LatticeConfig:
    bc, nx, ny = spec
    return LatticeConfig(nx, ny, bc, lam)


def _pass_jobs(workload: str, size: str, lam: float, rng: random.Random) -> list[Job]:
    lat = LATTICES[size]
    if workload == "ground_state":
        jobs = []
        for spec in lat["ground_state"]:
            cfg = make_cfg(spec, lam)
            # the 2-plaquette loop at (i, j) also covers (i, j+1)
            rows = cfg.ny if cfg.periodic else cfg.ny - 1
            place = (rng.randrange(cfg.nx), rng.randrange(rows))
            jobs.append(Job("ground_state", cfg, place))
        return jobs
    if workload == "sectors":
        return [
            Job("sector_k0", make_cfg(lat["sector_k0"], lam)),
            Job("sector_spectra", make_cfg(lat["sector_spectra"], lam)),
        ]
    if workload == "cli_mix":
        evolve_cfg = make_cfg(lat["evolve"], lam)
        word = format(rng.randrange(1 << evolve_cfg.n_plaq), "x")
        ka, kb = rng.choice(SECTOR_POOL[size]), rng.choice(SECTOR_POOL[size])
        return [
            *(Job("verify", make_cfg(spec, lam)) for spec in lat["verify"]),
            Job("emit-circuit", make_cfg(lat["emit-circuit"], lam),
                ("--dt", repr(TROTTER_DT), "--steps", str(TROTTER_STEPS))),
            Job("evolve", evolve_cfg,
                ("--t", repr(EVOLVE_T), "--steps", str(EVOLVE_STEPS), "--state", word)),
            Job("spectrum", make_cfg(lat["spectrum"], lam), ("--export-mtx",)),
            Job("wilson", make_cfg(lat["wilson"], lam),
                ("--blocks", "--sector", *map(str, ka), "--sector-prime", *map(str, kb))),
            Job("basis", make_cfg(lat["basis"], lam)),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def plan(workload: str, seed: int, size: str = "full") -> list[list[Job]]:
    """One job list per pass, at most one pass per coupling of the grid."""
    rng = random.Random(f"{workload}:{seed}")
    lams = list(LAMBDAS)
    rng.shuffle(lams)
    return [_pass_jobs(workload, size, lam, rng) for lam in lams]


def warmup_jobs(workload: str, seed: int) -> list[Job]:
    """The smoke-size pass run before timing, so lazy imports happen there."""
    return plan(workload, seed, "smoke")[0]


def load_references(path: str = REFERENCE_PATH) -> dict:
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Timed jobs
# ---------------------------------------------------------------------------

def run_job(job: Job, workdir: str) -> dict:
    """Run one job and return what its gates need."""
    cfg = job.cfg
    if job.kind == "ground_state":
        op = hamiltonian.build_hamiltonian(cfg)
        spec = observables.diagonalize(op, mode="lowest")
        gs = observables.StateVector(spec.eigenvectors[:, 0], op.label)
        w1 = observables.expectation(observables.wilson1_operator(cfg, job.args), gs)
        w2 = observables.expectation(observables.wilson2_operator(cfg, job.args), gs)
        return {"matrix": op.matrix, "energy": spec.eigenvalues[0], "vector": gs.amplitudes,
                "wilson": (w1, w2)}
    if job.kind == "sector_k0":
        sectors = spinbasis.all_sectors(cfg)
        k0 = sectors[0]
        block = momentum.hamiltonian_block(k0)
        spec = observables.diagonalize(block, mode="full")
        gs = spec.eigenvectors[:, 0]
        w1 = np.vdot(gs, momentum.wilson1_block(k0, k0) @ gs)
        w2 = np.vdot(gs, momentum.wilson2_block(k0, k0) @ gs)
        return {"dims": [s.dim for s in sectors], "matrix": block.matrix,
                "energy": spec.eigenvalues[0], "vector": gs, "wilson": (w1, w2)}
    if job.kind == "sector_spectra":
        spectra = momentum.sector_spectra(cfg)
        vals = [v for _, _, v in spectra]
        ratios = observables.level_spacing_ratios_by_sector(vals)
        return {"spectra": vals, "ratios": ratios}
    return _run_cli(job, workdir)


def _run_cli(job: Job, workdir: str) -> dict:
    cfg = job.cfg
    prefix = os.path.join(workdir, job.label)
    argv = [job.kind, "--nx", str(cfg.nx), "--ny", str(cfg.ny), "--bc", cfg.bc.value,
            "--lam", repr(cfg.lam), *job.args, "--out", prefix]
    # The manifest records sys.argv[1:], as the `hexgauge` console script sees it.
    saved = sys.argv
    sys.argv = ["hexgauge", *argv]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.argv = saved
    return {"code": code, "prefix": prefix}


# ---------------------------------------------------------------------------
# Correctness gates (run outside the timed region)
# ---------------------------------------------------------------------------

def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * max(1.0, abs(ref))


def _reference(refs: dict, table: str, key: str, lam: float) -> float:
    return refs[table][key][lam_key(lam)]


def _check_eigenpair(out: dict, refs: dict, table: str, cfg: LatticeConfig) -> list[str]:
    fails = []
    energy, vec = float(out["energy"]), out["vector"]
    ref = _reference(refs, table, lattice_key(cfg), cfg.lam)
    if not _close(energy, ref, ENERGY_RTOL):
        fails.append(f"ground energy {energy!r} != reference {ref!r}")
    resid = np.linalg.norm(out["matrix"] @ vec - energy * vec) / np.linalg.norm(vec)
    if not resid <= RESIDUAL_RTOL * max(1.0, abs(energy)):
        fails.append(f"eigen residual {resid:.3e}")
    if not all(np.isfinite(w) and abs(np.imag(w)) < 1e-10 for w in out["wilson"]):
        fails.append(f"Wilson-loop expectations not real: {out['wilson']}")
    return fails


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_job(job: Job, out: dict, refs: dict) -> list[str]:
    """Failure messages for one job's outputs; empty when every gate passes."""
    cfg = job.cfg
    if job.kind == "ground_state":
        return _check_eigenpair(out, refs, "ground_energy", cfg)
    if job.kind == "sector_k0":
        fails = _check_eigenpair(out, refs, "k0_ground_energy", cfg)
        if sum(out["dims"]) != 1 << (cfg.n_plaq - 1):
            fails.append(f"sector dims sum to {sum(out['dims'])}, not 2^(N-1)")
        return fails
    if job.kind == "sector_spectra":
        fails = []
        vals = out["spectra"]
        if sum(len(v) for v in vals) != 1 << (cfg.n_plaq - 1):
            fails.append("sector dims do not sum to 2^(N-1)")
        total = float(sum(np.sum(v) for v in vals))
        trace = float(hamiltonian.build_hamiltonian(cfg).matrix.diagonal().sum())
        scale = 1.0 + sum(float(np.sum(np.abs(v))) for v in vals)
        if abs(total - trace) > TRACE_RTOL * scale:
            fails.append(f"sum of sector eigenvalues {total!r} != tr H {trace!r}")
        r = out["ratios"]
        if len(r) != sum(len(v) - 2 for v in vals) or np.any((r < 0) | (r > 1)):
            fails.append("level-spacing ratios malformed")
        return fails
    return _check_cli(job, out, refs)


def _check_cli(job: Job, out: dict, refs: dict) -> list[str]:
    fails = []
    prefix = out["prefix"]
    if out["code"] != 0:
        fails.append(f"exit code {out['code']}")
    with open(prefix + ".manifest.json") as f:
        manifest = json.load(f)
    folder = os.path.dirname(prefix)
    for name, digest in manifest["outputs"].items():
        if _sha256(os.path.join(folder, name)) != digest:
            fails.append(f"manifest digest mismatch for {name}")
    if job.kind == "verify":
        with open(prefix + ".verify.json") as f:
            report = json.load(f)
        if not (report["passed"] and report["max_deviation"] < CERT_TOL):
            fails.append(f"certification failed: deviation {report['max_deviation']!r}")
    elif job.kind == "emit-circuit":
        with open(prefix + ".circuit.json") as f:
            dev = json.load(f)["step_deviation"]
        ref = _reference(refs, "trotter_step_deviation", lattice_key(job.cfg), job.cfg.lam)
        if abs(dev - ref) > TROTTER_RTOL * abs(ref) + 1e-12:
            fails.append(f"Trotter step deviation {dev!r} != reference {ref!r}")
    return fails


def bytes_written(out: dict) -> int:
    """Size of a CLI job's outputs plus its manifest."""
    prefix = out.get("prefix")
    if prefix is None:
        return 0
    manifest = prefix + ".manifest.json"
    with open(manifest) as f:
        names = json.load(f)["outputs"]
    folder = os.path.dirname(prefix)
    return os.path.getsize(manifest) + sum(os.path.getsize(os.path.join(folder, n)) for n in names)
