"""Exact diagonalization of the j_max = 1/2 SU(2) honeycomb gauge theory
mapped to a 2D spin model, with an independent gauge-basis oracle."""

import os as _os

# Cap BLAS threading before numpy loads; effective unless numpy was already
# imported by the embedding process.
_threads = _os.environ.get("HEXGAUGE_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

from .lattice import BoundaryCondition, LatticeConfig, neighbor_chain6, neighbor_chain8
from .spinbasis import MomentumSector, all_sectors, build_sector, translate
from .hamiltonian import (
    SparseOperator,
    build_closed,
    build_hamiltonian,
    build_periodic,
    c_value,
    h_plus,
    h_plusplus,
    h_x,
    j_zz,
    magnetic_coefficient,
)
from .observables import (
    Spectrum,
    StateVector,
    diagonalize,
    evolve,
    level_spacing_ratios,
    wilson1_apply,
    wilson2_apply,
)
from .oracle import certify_isomorphism, enumerate_gauge_states, ks_hamiltonian, wigner_6j
from .momentum import hamiltonian_block, hx_block, hzz_block, wilson1_block, wilson2_block
from .circuit import Circuit, PauliTerm, emit_trotter_step, pauli_expand, verify_circuit
