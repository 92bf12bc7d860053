import sys
from pathlib import Path

import pytest

# Allow running the tests from a fresh checkout without installing.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


@pytest.fixture
def perturb_spin(monkeypatch):
    """perturb_spin(delta) adds delta to the stored (0, 1) entry of every
    Hamiltonian hexgauge.hamiltonian.build_hamiltonian builds for the rest
    of the test.  certify_isomorphism imports it at call time, so the
    certificate, in-process `hexgauge verify` included, sees a located fault."""
    import hexgauge.hamiltonian as hamiltonian

    def apply(delta: float):
        build = hamiltonian.build_hamiltonian

        def perturbed(cfg):
            op = build(cfg)
            op.matrix[0, 1] += delta  # a stored entry: changed in place
            return op

        monkeypatch.setattr(hamiltonian, "build_hamiltonian", perturbed)

    return apply
