"""Regenerate references.json, the committed values the benchmark's gates
compare against, for every coupling of the grid and both lattice sizes.

    python3 perfbench/make_references.py        # from the repository root

Each value comes from a different route than the timed job it checks:
- ground_energy: the real-space Hamiltonian's lowest eigenvalue from eigsh
  with a fixed start vector and zero tolerance (dense eigvalsh when small),
  where the timed job calls observables.diagonalize;
- k0_ground_energy: the real-space quotient Hamiltonian conjugated with the
  k=0 momentum transform, where the timed job assembles the sector block;
- trotter_step_deviation: verify_circuit on one Trotter step, the value the
  `emit-circuit` command reports.
Single-threaded this takes about 10 minutes on a 2-core x86 host.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _lowest(matrix) -> float:
    import numpy as np
    import scipy.sparse.linalg

    if matrix.shape[0] <= 512:
        return float(np.linalg.eigvalsh(matrix.toarray())[0])
    v0 = np.random.default_rng(0).standard_normal(matrix.shape[0])
    vals = scipy.sparse.linalg.eigsh(matrix, k=2, which="SA", v0=v0, tol=0, ncv=40,
                                     return_eigenvectors=False)
    return float(np.min(vals))


def _k0_lowest(cfgs) -> dict:
    import numpy as np
    import scipy.sparse

    from hexgauge import hamiltonian, momentum, spinbasis

    import workloads

    u = scipy.sparse.csr_matrix(momentum.momentum_transform(spinbasis.build_sector(cfgs[0], 0, 0)))
    uh = u.conj().T.tocsr()
    out = {}
    for cfg in cfgs:
        block = (uh @ (hamiltonian.build_hamiltonian(cfg).matrix @ u)).toarray()
        out[workloads.lam_key(cfg.lam)] = float(np.linalg.eigvalsh(block)[0])
    return out


def main() -> int:
    from hexgauge import circuit, hamiltonian

    import workloads

    refs = {"lambdas": list(workloads.LAMBDAS), "ground_energy": {}, "k0_ground_energy": {},
            "trotter_step_deviation": {}}
    for size, lat in workloads.LATTICES.items():
        for spec in lat["ground_state"]:
            cfgs = [workloads.make_cfg(spec, lam) for lam in workloads.LAMBDAS]
            refs["ground_energy"][workloads.lattice_key(cfgs[0])] = {
                workloads.lam_key(c.lam): _lowest(hamiltonian.build_hamiltonian(c).matrix)
                for c in cfgs
            }
            print(size, "ground_state", spec, flush=True)
        cfgs = [workloads.make_cfg(lat["sector_k0"], lam) for lam in workloads.LAMBDAS]
        refs["k0_ground_energy"][workloads.lattice_key(cfgs[0])] = _k0_lowest(cfgs)
        print(size, "sector_k0", flush=True)
        cfgs = [workloads.make_cfg(lat["emit-circuit"], lam) for lam in workloads.LAMBDAS]
        dt = workloads.TROTTER_DT
        refs["trotter_step_deviation"][workloads.lattice_key(cfgs[0])] = {
            workloads.lam_key(c.lam): circuit.verify_circuit(circuit.emit_trotter_step(c, dt), c, dt)
            for c in cfgs
        }
        print(size, "trotter", flush=True)
    with open(workloads.REFERENCE_PATH, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    os.environ["HEXGAUGE_THREADS"] = "1"
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.exit(main())
