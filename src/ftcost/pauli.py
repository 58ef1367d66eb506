"""Phase-tracked Pauli strings, Pauli sums, and small dense-matrix helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InvalidParameterError

# single-qubit products: (a, b) -> (k, letter) for the product i^k letter
_PRODUCTS = {}
for _a in "IXYZ":
    _PRODUCTS[("I", _a)] = (0, _a)
    _PRODUCTS[(_a, "I")] = (0, _a)
    _PRODUCTS[(_a, _a)] = (0, "I")
for _a, _b, _c in (("X", "Y", "Z"), ("Y", "Z", "X"), ("Z", "X", "Y")):
    _PRODUCTS[(_a, _b)] = (1, _c)
    _PRODUCTS[(_b, _a)] = (3, _c)
_ANTICOMMUTING = frozenset((a, b) for a in "XYZ" for b in "XYZ" if a != b)

#: The phases i^k for k = 0..3, and k for each of them.
_PHASES = (1, 1j, -1, -1j)
_POWERS = {p: k for k, p in enumerate(_PHASES)}
_LETTERS = frozenset("IXYZ")
_XY_BITS, _YZ_BITS = str.maketrans("IXYZ", "0110"), str.maketrans("IXYZ", "0011")
#: (-1)^{popcount(b)} for every byte b.
_BYTE_SIGNS = np.array([1 - 2 * (b.bit_count() & 1) for b in range(256)], dtype=np.int8)
#: Coefficients at or below this magnitude are dropped, or read as real.
COEFF_ATOL = 1e-12


@dataclass(frozen=True)
class PauliString:
    """A tensor product of Pauli letters with an overall unit phase."""

    letters: str
    phase: complex = 1

    def __post_init__(self):
        if not _LETTERS.issuperset(self.letters):
            raise InvalidParameterError(f"letters={self.letters!r} must hold only I, X, Y and Z")
        if self.phase not in _PHASES:
            raise InvalidParameterError(f"phase={self.phase!r} must be one of 1 | 1j | -1 | -1j")

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    @property
    def weight(self) -> int:
        return len(self.letters) - self.letters.count("I")

    def is_hermitian(self) -> bool:
        return self.phase in (1, -1)

    def __mul__(self, other: "PauliString") -> "PauliString":
        if len(self.letters) != len(other.letters):
            raise InvalidParameterError("cannot multiply strings of different sizes")
        power = _POWERS[self.phase] + _POWERS[other.phase]
        letters = []
        for pair in zip(self.letters, other.letters):
            k, c = _PRODUCTS[pair]
            power += k
            letters.append(c)
        return PauliString("".join(letters), _PHASES[power % 4])

    def __neg__(self) -> "PauliString":
        return PauliString(self.letters, _PHASES[(_POWERS[self.phase] + 2) % 4])

    def dagger(self) -> "PauliString":
        return PauliString(self.letters, _PHASES[-_POWERS[self.phase] % 4])

    def commutes_with(self, other: "PauliString") -> bool:
        if len(self.letters) != len(other.letters):
            raise InvalidParameterError("cannot compare strings of different sizes")
        return sum(map(_ANTICOMMUTING.__contains__, zip(self.letters, other.letters))) % 2 == 0

    def dense(self) -> np.ndarray:
        """The 2^n x 2^n matrix, built directly as a signed permutation."""
        out = np.zeros((2**self.n_qubits, 2**self.n_qubits), dtype=complex)
        _add_dense(out, self.phase, self.letters)
        return out

    def __str__(self):
        sign = {1: "+", -1: "-", 1j: "+i", -1j: "-i"}[self.phase]
        return sign + self.letters


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
            _add_dense(out, c * s.phase, s.letters)
        return out

    def __len__(self):
        return len(self.terms)


def exp_pauli_rotation(theta: float, pauli: PauliString) -> np.ndarray:
    """exp(-i theta P) as a dense matrix, valid because P^2 = I."""
    if not pauli.is_hermitian():
        raise InvalidParameterError("rotation axis must be Hermitian (real phase)")
    dim = 2**pauli.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    out.reshape(-1)[:: dim + 1] = np.cos(theta)
    _add_dense(out, -1j * np.sin(theta) * pauli.phase, pauli.letters)
    return out


def _add_dense(out: np.ndarray, scale: complex, letters: str) -> None:
    """Add ``scale`` times the matrix of the Pauli string ``letters`` to the C-contiguous ``out``.

    The matrix is a signed permutation.  The first letter acts on the most
    significant bit of a basis index.  Row i has its one nonzero in column
    i ^ flip, where flip marks the X and Y letters, and that entry is
    (-i)^{#Y} * (-1)^{popcount(i & zy)}, where zy marks the Y and Z letters.
    """
    n = len(letters)
    zy = int("0" + letters.translate(_YZ_BITS), 2)
    flip = int("0" + letters.translate(_XY_BITS), 2)
    rows = np.arange(2**n)
    masked = rows & zy
    signs = _BYTE_SIGNS[masked & 255]
    for shift in range(8, n, 8):
        signs = signs * _BYTE_SIGNS[(masked >> shift) & 255]
    cols = rows ^ flip
    # row i's entry sits at flat index i * 2^n + col
    out.reshape(-1)[np.arange(0, 4**n, 2**n) + cols] += scale * (-1j) ** letters.count("Y") * signs


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
