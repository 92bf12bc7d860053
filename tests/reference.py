"""Scalar references for the spin-model kernels.

Per-state forms of what the library computes over whole state arrays: the
flip exponent c at one plaquette, the closed-BC diagonal, the Pauli-product
bracket form of the flip coefficient, and the diagonal value of a Pauli
expansion.  Tests compare the library against them.
"""

import math

from hexgauge.hamiltonian import h_plus, h_plusplus
from hexgauge.lattice import bonds, neighbor_chain6

# Bracket factor constants of the Pauli-product magnetic form.
ALPHA = 0.5 - 0.5j / math.sqrt(2.0)
BETA = 0.5 + 0.5j / math.sqrt(2.0)


def c_value(s: int, c: tuple[int, int], cfg) -> int:
    """Count of chain positions K with neighbor K up and K+1 (mod 6) down."""
    b = [0 if q < 0 else (s >> q) & 1 for q in neighbor_chain6(c, cfg)]
    return sum(b[k] & (1 - b[(k + 1) % 6]) for k in range(6))


def up_pair_count(s: int, bond_list) -> int:
    total = 0
    for p, q in bond_list:
        if q >= 0 and (s >> p) & 1 and (s >> q) & 1:
            total += 1
    return total


def closed_diagonal(s: int, cfg, bond_list=None) -> float:
    """h_plus * n_up - h_pp * (up-up bond count), the closed-BC diagonal."""
    if bond_list is None:
        bond_list = bonds(cfg)
    return h_plus(cfg.lam) * s.bit_count() - h_plusplus(cfg.lam) * up_pair_count(s, bond_list)


def bracket(s: int, sites: list[int]) -> complex:
    """Product of (alpha * z_K z_{K+1} + beta) around a cyclic chain."""
    z = [2 * ((s >> q) & 1) - 1 for q in sites]
    n = len(z)
    prod = 1 + 0j
    for k in range(n):
        prod *= ALPHA * z[k] * z[(k + 1) % n] + BETA
    return prod


def evaluate_expansion(terms, s: int) -> float:
    """Diagonal value of the z-part of a Pauli expansion on spin word s."""
    total = 0.0
    for term in terms:
        z = 1
        for q in term.z_sites:
            z *= 2 * ((s >> q) & 1) - 1
        total += term.coefficient * z
    return total
