"""Weighted Pauli-sum Hamiltonians H = sum_j h_j H_j with h_j > 0, |H_j| = 1.

Text format: one term per non-comment line, ``<real coefficient> <pauli letters>``,
with ``#`` starting a comment.  Negative coefficients have their sign folded
into the operator so that every stored weight is strictly positive and every
term has spectral norm exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

QUBIT_CAP = 10
GUIDE_BUCKETS = 256

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def popcount(m, n_bits: int) -> np.ndarray:
    """Set bits of each entry of the integer array m below bit n_bits."""
    return sum((m >> k) & 1 for k in range(n_bits))


class HamiltonianFormatError(ValueError):
    """Malformed Hamiltonian text."""


class DimensionCapError(ValueError):
    """Dense materialization above QUBIT_CAP qubits."""


@dataclass(frozen=True)
class PauliString:
    letters: str

    def __post_init__(self):
        if not self.letters:
            raise HamiltonianFormatError("empty Pauli string")
        bad = set(self.letters) - set("IXYZ")
        if bad:
            raise HamiltonianFormatError(
                f"invalid Pauli character(s) {sorted(bad)} in {self.letters!r}"
            )

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    def dense(self) -> np.ndarray:
        return reduce(np.kron, (_PAULI[c] for c in self.letters))

    def masks(self) -> tuple[int, int, int]:
        """(x mask, z mask, number of Y letters), qubit 0 the most
        significant bit as in ``dense``: P|s> = i^#Y (-1)^popcount(s & z) |s ^ x>."""
        x = z = 0
        for c in self.letters:
            x = (x << 1) | (c in "XY")
            z = (z << 1) | (c in "YZ")
        return x, z, self.letters.count("Y")


@dataclass(frozen=True)
class WeightedTerm:
    weight: float
    pauli: PauliString
    sign: int = 1

    def __post_init__(self):
        if not 0 < self.weight < np.inf:
            raise HamiltonianFormatError(
                f"term weight must be positive and finite, got {self.weight}"
            )
        if self.sign not in (-1, 1):
            raise HamiltonianFormatError(f"term sign must be +-1, got {self.sign}")

    def dense(self) -> np.ndarray:
        return self.sign * self.pauli.dense()


@dataclass(frozen=True)
class PauliRotations:
    """exp(-i angle sign_j P_j) for every term j as a gather and an axpy:

        (U_j psi)[y] = cos * psi[y] + coef[j, y] * psi[perm[j, y]],

    with perm[j, y] = y ^ x_j and coef[j, y] = -i sin(angle) sign_j i^#Y_j
    (-1)^popcount(perm[j, y] & z_j), from the symplectic masks of each term
    (Aaronson and Gottesman, quant-ph/0406196).  One gate costs O(d), not
    the O(d^2) of a dense matvec.
    """

    cos: float
    perm: np.ndarray   # (L, d) source index of each amplitude
    coef: np.ndarray   # (L, d) complex phase times -i sin(angle) sign_j

    def dense(self) -> np.ndarray:
        """The same gates as stacked (L, d, d) unitaries."""
        L, d = self.perm.shape
        U = np.zeros((L, d, d), dtype=complex)
        rows = np.arange(d)
        U[:, rows, rows] = self.cos
        U[np.arange(L)[:, None], rows, self.perm] += self.coef
        return U


class HamiltonianDecomposition:
    """Immutable term list with lambda, Lambda and the sampling distribution."""

    def __init__(self, terms):
        terms = tuple(terms)
        if not terms:
            raise HamiltonianFormatError("Hamiltonian has no terms")
        n = terms[0].pauli.n_qubits
        for t in terms:
            if t.pauli.n_qubits != n:
                raise HamiltonianFormatError(
                    f"inconsistent Pauli string lengths: {t.pauli.letters!r} vs {n} qubits"
                )
        self.terms = terms
        self.n_qubits = n
        # The term arrays that every later call reads, derived once here
        self.weights = np.array([t.weight for t in terms], dtype=float)
        self.signs = np.array([t.sign for t in terms], dtype=np.int8)
        self.x_masks, self.z_masks, self.y_counts = np.array(
            [t.pauli.masks() for t in terms], dtype=np.int64).T
        with np.errstate(over="ignore"):
            self.lam = float(self.weights.sum())
        if not np.isfinite(self.lam):
            raise HamiltonianFormatError(
                f"lambda, the sum of the {len(terms)} coefficients' magnitudes, overflows"
            )
        self.probabilities = self.weights / self.lam
        cdf = np.cumsum(self.probabilities)
        cdf[-1] = 1.0
        # Guide table: the draw for u in bucket k = floor(u K) lies in
        # [guide[k], guide[k + 1]] (in [guide[K - 1], L - 1] for the last),
        # so lifts by the powers of two below the widest such span reach it.
        # A lift reads at most span - 1 entries past cdf[L - 1], padded
        # with inf, which no u reaches.
        edges = np.arange(GUIDE_BUCKETS) / GUIDE_BUCKETS
        self._guide = np.searchsorted(cdf, edges, side="right")
        span = int(np.diff(self._guide, append=len(terms) - 1).max())
        self._lifts = [1 << k for k in range(span.bit_length() - 1, -1, -1)]
        self._cdf = np.concatenate([cdf, np.full(span, np.inf)])
        self._derived = {}

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

    def _require_cap(self):
        if self.n_qubits > QUBIT_CAP:
            raise DimensionCapError(
                f"{self.n_qubits} qubits exceeds the cap of {QUBIT_CAP}"
            )

    def derived(self, build):
        """``build(self)``, run on first use and kept, with every array in it
        read-only, for as long as this Hamiltonian lives.  For the tables
        derived from the terms alone, the same at every step time, so that
        each is built once per Hamiltonian."""
        table = self._derived.get(build)
        if table is None:
            table = build(self)
            _freeze(table)
            self._derived[build] = table
        return table

    def dense(self) -> np.ndarray:
        self._require_cap()
        perm, phase = self.derived(_term_gathers)
        M = np.zeros((self.dim, self.dim), dtype=complex)   # no (L, d, d) stack of terms
        np.add.at(M, (np.arange(self.dim), perm), self.weights[:, None] * phase)
        return M

    def term_unitaries(self, angle: float) -> np.ndarray:
        """exp(-i angle H_j) for every term, stacked (L, d, d): the dense form
        of ``pauli_rotations(angle)``.

        Pauli strings square to the identity, so the exponential is
        cos(angle) I - i sin(angle) sign P exactly.
        """
        self._require_cap()
        return self.pauli_rotations(angle).dense()

    def pauli_rotations(self, angle: float) -> PauliRotations:
        """exp(-i angle H_j) for every term as O(d) Pauli gates."""
        perm, phase = self.derived(_term_gathers)
        return PauliRotations(cos=float(np.cos(angle)), perm=perm,
                              coef=(-1j * np.sin(angle)) * phase)

    def sample_terms(self, rng, count: int) -> np.ndarray:
        """Draw ``count`` indices, index j with probability p_j = h_j / lambda,
        from one ``rng.random(count)``, through ``lookup_terms``."""
        return self.lookup_terms(rng.random(count))

    def lookup_terms(self, u, out=None) -> np.ndarray:
        """The term index of each uniform in u, an array of any shape: the
        number of cumulative probabilities c_j <= u, exactly as
        ``searchsorted(cdf, u, side="right")``.  Written into ``out``, an
        integer array of u's shape that holds 255 and L - 1, if given, else
        into a new intp array; returns it.

        The guide-table method (Chen and Asau, AIIE Trans. 6, 1974; Devroye,
        Non-Uniform Random Variate Generation, 1986, III.2.4): bucket
        floor(256 u), exact because 256 is a power of two, starts each draw
        at the right answer or within a span of it, and a fixed sequence of
        branch-free lifts, at most bit_length(L) deep, closes the span.

        The work is in place: ``out`` holds the draws as the lifts raise
        them, one intp buffer each lift's cdf positions and then, viewed as
        floats, the cdf values gathered there, and one bool buffer the
        comparisons.  So a call's temporaries take 9 bytes per uniform,
        besides numpy's ufunc buffers of fixed size.  The uniforms must lie
        in [0, 1); outside it the asserts, not an IndexError, refuse them.
        """
        u = np.asarray(u)
        assert u.size == 0 or (u.min() >= 0.0 and u.max() < 1.0), "uniforms outside [0, 1)"
        if out is None:
            out = np.empty(u.shape, dtype=np.intp)
        np.multiply(u, GUIDE_BUCKETS, out=out, casting="unsafe")   # floor, as u >= 0
        buf = out.astype(np.intp)
        # The takes write into the memory that holds their indices.  numpy
        # copies a take's output only where it overlaps the source array,
        # not the index array, and its loop reads index k before it writes
        # entry k; this is how numpy's take has worked, but numpy does not
        # promise it.  mode="clip" spares the copy that "raise" makes; every
        # position is in range, as the assert after the lifts confirms.
        np.copyto(out, self._guide.take(buf, out=buf, mode="clip"), casting="unsafe")
        # the cdf values share buf's bytes where an intp is a float's size
        values = buf.view(np.float64) if buf.itemsize == 8 else np.empty(u.shape)
        below = np.empty(u.shape, dtype=bool)
        for step in self._lifts:
            # c[idx + step - 1] <= u: the step stays at or below the answer
            np.copyto(buf, out)
            self._cdf[step - 1:].take(buf, out=values, mode="clip")
            np.less_equal(values, u, out=below)
            np.add(out, step, out=out, where=below)
        # the draws only rise and a lift reads step - 1 past its draw, while
        # the cdf's padding runs span >= the largest step past L - 1: so
        # draws below L mean that no position was clipped
        assert out.size == 0 or out.max() < len(self.terms), "a lift passed the last term"
        return out

    def serialize(self) -> str:
        lines = [
            f"{t.sign * t.weight:.17g} {t.pauli.letters}" for t in self.terms
        ]
        return "\n".join(lines) + "\n"


def _term_gathers(H: HamiltonianDecomposition):
    """(perm, phase), each (L, d): (s_j P_j psi)[y] = phase[j, y]
    psi[perm[j, y]], from P_j|s> = i^#Y (-1)^popcount(s & z_j) |s ^ x_j>."""
    perm = np.arange(H.dim)[None, :] ^ H.x_masks[:, None]
    parity = popcount(perm & H.z_masks[:, None], H.n_qubits) & 1
    phase = (np.array([1, 1j, -1, -1j])[H.y_counts[:, None] % 4]
             * H.signs[:, None] * (1 - 2 * parity))
    return perm, phase


def _freeze(table):
    """Make every array in ``table``, nested in tuples, read-only."""
    if isinstance(table, np.ndarray):
        table.setflags(write=False)
    elif isinstance(table, tuple):
        for item in table:
            _freeze(item)


def parse_hamiltonian(text: str) -> HamiltonianDecomposition:
    terms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise HamiltonianFormatError(
                f"line {lineno}: expected '<coefficient> <pauli letters>', got {raw!r}"
            )
        try:
            coeff = float(parts[0])
        except ValueError:
            raise HamiltonianFormatError(
                f"line {lineno}: invalid coefficient {parts[0]!r}"
            ) from None
        if coeff == 0.0:
            raise HamiltonianFormatError(f"line {lineno}: zero coefficient")
        if not np.isfinite(coeff):
            raise HamiltonianFormatError(f"line {lineno}: coefficient {parts[0]!r} is not finite")
        sign = 1 if coeff > 0 else -1
        terms.append(WeightedTerm(abs(coeff), PauliString(parts[1]), sign))
    if not terms:
        raise HamiltonianFormatError("no terms found (empty file?)")
    return HamiltonianDecomposition(terms)


def load_hamiltonian(path) -> HamiltonianDecomposition:
    with open(path, encoding="utf-8") as fh:
        return parse_hamiltonian(fh.read())
