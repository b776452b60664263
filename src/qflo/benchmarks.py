"""Canonical desk-scale benchmark instances shared by the verification suite
and ``perfbench``; the README's experiment commands use the same texts as
Hamiltonian files."""

from __future__ import annotations

import numpy as np

from .hamiltonian import parse_hamiltonian

# 1-qubit two-term benchmark, lambda = 1.
ONE_QUBIT_TEXT = """\
0.5 X
0.5 Z
"""

# 2-qubit four-term benchmark, lambda = 1, non-commuting terms.
TWO_QUBIT_TEXT = """\
0.3 ZZ
0.3 XI
0.2 IX
0.2 YZ
"""

# Equal-weight I, X, Y, Z: the channel at t * lambda = pi/2 is totally
# depolarizing, so its superoperator is singular.
DEPOLARIZING_TEXT = """\
0.25 I
0.25 X
0.25 Y
0.25 Z
"""


def one_qubit_benchmark():
    H = parse_hamiltonian(ONE_QUBIT_TEXT)
    A = parse_hamiltonian("1.0 Z").dense()
    psi0 = np.array([1.0, 0.0], dtype=complex)
    return H, A, psi0


def two_qubit_benchmark():
    H = parse_hamiltonian(TWO_QUBIT_TEXT)
    A = parse_hamiltonian("1.0 ZI").dense()
    psi0 = np.zeros(4, dtype=complex)
    psi0[0] = 1.0
    return H, A, psi0


def depolarizing_hamiltonian():
    return parse_hamiltonian(DEPOLARIZING_TEXT)
