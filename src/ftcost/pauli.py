"""Phase-tracked Pauli strings, Pauli sums, and small dense-matrix helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InvalidParameterError

# single-qubit products: (a, b) -> (phase, letter)
_PRODUCTS = {}
for _a in "IXYZ":
    _PRODUCTS[("I", _a)] = (1, _a)
    _PRODUCTS[(_a, "I")] = (1, _a)
    _PRODUCTS[(_a, _a)] = (1, "I")
for _a, _b, _c in (("X", "Y", "Z"), ("Y", "Z", "X"), ("Z", "X", "Y")):
    _PRODUCTS[(_a, _b)] = (1j, _c)
    _PRODUCTS[(_b, _a)] = (-1j, _c)

_PHASES = (1, -1, 1j, -1j)
_LETTERS = frozenset("IXYZ")
_XY_BITS, _YZ_BITS = str.maketrans("IXYZ", "0110"), str.maketrans("IXYZ", "0011")
#: Coefficients at or below this magnitude are dropped, or read as real.
COEFF_ATOL = 1e-12


@dataclass(frozen=True)
class PauliString:
    """A tensor product of Pauli letters with an overall unit phase."""

    letters: str
    phase: complex = 1

    def __post_init__(self):
        if not _LETTERS.issuperset(self.letters):
            raise InvalidParameterError(f"bad Pauli letters {self.letters!r}")
        if self.phase not in _PHASES:
            raise InvalidParameterError(f"phase must be a fourth root of unity, got {self.phase}")

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    @property
    def weight(self) -> int:
        return sum(c != "I" for c in self.letters)

    def is_hermitian(self) -> bool:
        return self.phase in (1, -1)

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n_qubits != other.n_qubits:
            raise InvalidParameterError("cannot multiply strings of different sizes")
        phase = self.phase * other.phase
        letters = []
        for a, b in zip(self.letters, other.letters):
            ph, c = _PRODUCTS[(a, b)]
            phase *= ph
            letters.append(c)
        return PauliString("".join(letters), _canon_phase(phase))

    def __neg__(self) -> "PauliString":
        return PauliString(self.letters, _canon_phase(-self.phase))

    def dagger(self) -> "PauliString":
        return PauliString(self.letters, _canon_phase(np.conj(self.phase)))

    def commutes_with(self, other: "PauliString") -> bool:
        if self.n_qubits != other.n_qubits:
            raise InvalidParameterError("cannot compare strings of different sizes")
        anti = sum(
            1 for a, b in zip(self.letters, other.letters)
            if a != "I" and b != "I" and a != b
        )
        return anti % 2 == 0

    def dense(self) -> np.ndarray:
        """The 2^n x 2^n matrix, built directly as a signed permutation.

        The first letter acts on the most significant bit of a basis index.
        Row i has its one nonzero in column i ^ flip, where flip marks the X
        and Y letters, and that entry is phase * (-i)^{#Y} * (-1)^{popcount(i & zy)},
        where zy marks the Y and Z letters.
        """
        flip = int("0" + self.letters.translate(_XY_BITS), 2)
        zy = int("0" + self.letters.translate(_YZ_BITS), 2)
        signs = np.array([1 - 2 * ((i & zy).bit_count() & 1) for i in range(2**self.n_qubits)])
        rows = np.arange(len(signs))
        out = np.zeros((len(signs), len(signs)), dtype=complex)
        out[rows, rows ^ flip] = self.phase * (-1j) ** self.letters.count("Y") * signs
        return out

    def __str__(self):
        sign = {1: "+", -1: "-", 1j: "+i", -1j: "-i"}[self.phase]
        return sign + self.letters


def _canon_phase(p: complex) -> complex:
    for q in _PHASES:
        if abs(p - q) < 1e-9:
            return q
    raise InvalidParameterError(f"phase {p} is not a fourth root of unity")


@dataclass(frozen=True)
class PauliSum:
    """A complex-weighted sum of Pauli strings, kept in canonical form.

    Canonicalization folds each string's phase into its coefficient and
    merges equal letter patterns, so Hermiticity is just realness of the
    coefficients.
    """

    terms: tuple[tuple[complex, PauliString], ...]

    @staticmethod
    def from_terms(terms: Iterable[tuple[complex, PauliString]]) -> "PauliSum":
        merged: dict[str, complex] = {}
        n = None
        for coeff, string in terms:
            if n is None:
                n = string.n_qubits
            elif string.n_qubits != n:
                raise InvalidParameterError("mixed qubit counts in Pauli sum")
            merged[string.letters] = merged.get(string.letters, 0) + coeff * string.phase
        kept = tuple(
            (c, PauliString(l)) for l, c in sorted(merged.items()) if abs(c) > COEFF_ATOL
        )
        return PauliSum(kept)

    def is_hermitian(self) -> bool:
        return all(abs(c.imag) < COEFF_ATOL for c, _ in self.terms)

    def dense(self) -> np.ndarray:
        if not self.terms:
            raise InvalidParameterError("cannot densify an empty sum without a size")
        dim = 2 ** self.terms[0][1].n_qubits
        out = np.zeros((dim, dim), dtype=complex)
        for c, s in self.terms:
            out += c * s.dense()
        return out

    def __len__(self):
        return len(self.terms)


def exp_pauli_rotation(theta: float, pauli: PauliString) -> np.ndarray:
    """exp(-i theta P) as a dense matrix, valid because P^2 = I."""
    if not pauli.is_hermitian():
        raise InvalidParameterError("rotation axis must be Hermitian (real phase)")
    dim = 2**pauli.n_qubits
    return np.cos(theta) * np.eye(dim) - 1j * np.sin(theta) * pauli.dense()


def expm_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(-i H) for Hermitian H via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def unitarity_defect(u: np.ndarray) -> float:
    return float(np.linalg.norm(u @ u.conj().T - np.eye(u.shape[0])))


def phase_quotient_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over unit phases lam of ||a - lam*b||_F.

    The optimum is the phase of tr(b† a); a vanishing trace falls back to a
    direct comparison.
    """
    tr = np.vdot(b, a)
    lam = tr / abs(tr) if abs(tr) > 1e-12 else 1.0
    return float(np.linalg.norm(a - lam * b))
