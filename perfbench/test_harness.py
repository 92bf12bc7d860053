"""Self-test of the benchmark harness on smoke lattices.

    python3 -m pytest -q perfbench
"""

import copy
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
os.environ["HEXGAUGE_THREADS"] = "1"
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest  # noqa: E402

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Per-layer metrics each workload must move (table in README.md) ...
REACHED = {
    "ground_state": ["hamiltonian.build_s", "hamiltonian.states_per_s", "hamiltonian.dim",
                     "hamiltonian.nnz", "observables.eig_lowest_s", "observables.wilson_op_s",
                     "observables.expect_s"],
    "sectors": ["spinbasis.orbit_s", "spinbasis.sector_s", "spinbasis.orbits",
                "spinbasis.sector_keep_frac", "momentum.hblock_s", "momentum.wilson_block_s",
                "momentum.spectra_s", "momentum.block_dim", "observables.eig_full_s",
                "observables.level_stats_s"],
    "cli_mix": ["hamiltonian.build_s", "hamiltonian.dim", "observables.eig_full_s",
                "observables.wilson_op_s", "observables.expect_s", "observables.trajectory_s",
                "spinbasis.orbit_s", "spinbasis.sector_s", "momentum.wilson_block_s",
                "oracle.certify_s", "oracle.gauge_states", "circuit.emit_s", "circuit.verify_s",
                "circuit.gates", "circuit.qasm_bytes", "cli.self_s", "cli.bytes_written"],
}
# ... and the ones it must leave at zero.
UNREACHED = {
    "ground_state": ["spinbasis.orbit_s", "momentum.block_dim", "oracle.certify_s",
                     "circuit.emit_s", "cli.self_s"],
    "sectors": ["hamiltonian.build_s", "hamiltonian.dim", "oracle.certify_s", "cli.self_s"],
    "cli_mix": ["observables.eig_lowest_s", "momentum.spectra_s"],
}
# Work sizes that must not depend on the seed.
SEED_FREE = ["hamiltonian.dim", "hamiltonian.nnz", "circuit.gates", "momentum.block_dim",
             "spinbasis.orbits", "oracle.gauge_states"]


def smoke(workload, trace, seed=1, refs=None):
    return harness.run(workload, seed, 0.01, trace, size="smoke", refs=refs, log=io.StringIO())


@pytest.fixture(scope="module")
def results():
    return {(w, t): smoke(w, t) for w in workloads.WORKLOADS for t in (False, True)}


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (False, True))
def test_every_gate_passes(results, workload, trace):
    res = results[workload, trace]
    jobs = len(workloads.warmup_jobs(workload, 1))
    passes = 2 if trace else 1
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] == jobs * (1 + passes)


# One smoke lattice per table, so the workload's other jobs still pass.
@pytest.mark.parametrize("workload, table, lattice", [
    ("ground_state", "ground_energy", "periodic-3x3"),
    ("sectors", "k0_ground_energy", "periodic-3x3"),
    ("cli_mix", "trotter_step_deviation", "closed-1x4"),
])
def test_perturbed_reference_counts_as_failed(results, workload, table, lattice):
    refs = copy.deepcopy(workloads.load_references())
    per_lam = refs[table][lattice]
    for key in per_lam:
        per_lam[key] *= 1.0 + 1e-4
    res = smoke(workload, False, refs=refs)
    assert not res["correct"]
    assert 0 < res["failed"] < res["attempted"]
    assert res["attempted"] == results[workload, False]["attempted"]
    assert set(res["metrics"]) == set(harness.END_TO_END_UNITS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer(results, workload):
    metrics = {k: v["value"] for k, v in results[workload, True]["metrics"].items()}
    assert set(metrics) == set(spans.PER_LAYER_UNITS)
    assert all(metrics[name] > 0 for name in REACHED[workload]), metrics
    assert all(metrics[name] == 0 for name in UNREACHED[workload]), metrics
    assert metrics["trace.raised"] == 0


def test_spans_are_restored(results):
    from hexgauge import cli, hamiltonian, observables

    assert cli.build_hamiltonian is hamiltonian.build_hamiltonian
    assert hamiltonian.build_periodic.__module__ == "hexgauge.hamiltonian"
    assert not hasattr(observables.diagonalize, "__wrapped__")
    assert not hasattr(cli.main, "__wrapped__")


def test_names_match_benchmark_json(results, spec):
    for (workload, trace), res in results.items():
        declared = spec["per_layer"] if trace else spec["end_to_end"]
        assert {k: v["unit"] for k, v in res["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_not_work(results, workload):
    other = smoke(workload, True, seed=2)
    first = results[workload, True]["metrics"]
    for name in SEED_FREE:
        assert other["metrics"][name]["value"] == first[name]["value"], name
    assert workloads.plan(workload, 1) == workloads.plan(workload, 1)
    assert workloads.plan(workload, 1) != workloads.plan(workload, 2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_two_passes_share_a_config(workload):
    seen = set()
    for jobs in workloads.plan(workload, 7):
        cfgs = {job.cfg for job in jobs}
        assert not cfgs & seen
        seen |= cfgs


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ground_state", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
