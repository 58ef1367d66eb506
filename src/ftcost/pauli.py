"""Phase-tracked Pauli strings, Pauli sums, and small dense-matrix helpers."""

from __future__ import annotations

import cmath
import functools
import numbers
from typing import Iterable

import numpy as np

from .errors import InvalidParameterError, Record, real

# single-qubit products: (a, b) -> (k, letter) for the product i^k letter
_PRODUCTS = {}
for _a in "IXYZ":
    _PRODUCTS[("I", _a)] = (0, _a)
    _PRODUCTS[(_a, "I")] = (0, _a)
    _PRODUCTS[(_a, _a)] = (0, "I")
for _a, _b, _c in (("X", "Y", "Z"), ("Y", "Z", "X"), ("Z", "X", "Y")):
    _PRODUCTS[(_a, _b)] = (1, _c)
    _PRODUCTS[(_b, _a)] = (3, _c)

#: The phases i^k for k = 0..3, and k for each of them.
_PHASES = (1, 1j, -1, -1j)
_POWERS = {p: k for k, p in enumerate(_PHASES)}
_LETTERS = frozenset("IXYZ")
_XY_BITS, _YZ_BITS = str.maketrans("IXYZ", "0110"), str.maketrans("IXYZ", "0011")
#: (-1)^{popcount(b)} for every byte b.
_BYTE_SIGNS = np.array([1 - 2 * (b.bit_count() & 1) for b in range(256)], dtype=np.int8)
#: Coefficients at or below this magnitude are dropped, or read as real.
COEFF_ATOL = 1e-12


@functools.lru_cache(maxsize=256)  # one relation check multiplies 59 distinct pairs
def _letter_product(a: str, b: str) -> tuple[int, str]:
    """The product of the letter strings ``a`` and ``b`` as (k mod 4, letters): i^k letters."""
    power = 0
    letters = []
    for pair in zip(a, b):
        k, c = _PRODUCTS[pair]
        power += k
        letters.append(c)
    return power % 4, "".join(letters)


class PauliString(Record):
    """A tensor product of Pauli letters with an overall unit phase."""

    letters: str
    phase: complex = 1

    def __init__(self, letters, phase=phase):
        if type(letters) is not str or not _LETTERS.issuperset(letters):
            raise InvalidParameterError(f"letters={letters!r} must be a str of I, X, Y and Z")
        if isinstance(phase, (bool, np.bool_)) or phase not in _PHASES:
            raise InvalidParameterError(f"phase={phase!r} must be one of 1 | 1j | -1 | -1j")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "phase", phase)

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    @property
    def weight(self) -> int:
        return len(self.letters) - self.letters.count("I")

    def is_hermitian(self) -> bool:
        return self.phase in (1, -1)

    def _check_operand(self, other, verb: str) -> None:
        if type(other) is not PauliString:
            raise InvalidParameterError(f"other={other!r} must be a PauliString")
        if len(self.letters) != len(other.letters):
            raise InvalidParameterError(
                f"other={other!r} must have as many letters as {self.letters!r}: "
                f"cannot {verb} strings of different sizes")

    def __mul__(self, other: "PauliString") -> "PauliString":
        self._check_operand(other, "multiply")
        power, letters = _letter_product(self.letters, other.letters)
        return PauliString(letters, _PHASES[(power + _POWERS[self.phase] + _POWERS[other.phase]) % 4])

    def __neg__(self) -> "PauliString":
        return PauliString(self.letters, _PHASES[(_POWERS[self.phase] + 2) % 4])

    def commutes_with(self, other: "PauliString") -> bool:
        self._check_operand(other, "compare")
        # each anticommuting letter pair adds an odd power of i to the product
        return _letter_product(self.letters, other.letters)[0] % 2 == 0

    def dense(self) -> np.ndarray:
        """The 2^n x 2^n matrix, built directly as a signed permutation."""
        out = np.zeros((2**self.n_qubits, 2**self.n_qubits), dtype=complex)
        _add_dense(out, self.phase, self.letters)
        return out


class PauliSum(Record):
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
        for term in terms:
            try:
                coeff, string = term
            except (TypeError, ValueError):  # not a pair
                coeff = string = None
            if type(string) is not PauliString or not (
                    isinstance(coeff, numbers.Number) and cmath.isfinite(coeff)):
                raise InvalidParameterError(
                    f"terms={term!r} must pair a finite coefficient with a PauliString")
            if n is None:
                n = string.n_qubits
            elif string.n_qubits != n:
                raise InvalidParameterError(
                    f"terms={term!r} must act on {n} qubits, as the terms before it do: "
                    "mixed qubit counts in Pauli sum")
            merged[string.letters] = merged.get(string.letters, 0) + coeff * string.phase
        kept = tuple(
            (c, PauliString(l)) for l, c in sorted(merged.items()) if abs(c) > COEFF_ATOL
        )
        return PauliSum(kept)

    def dense(self) -> np.ndarray:
        if not self.terms:
            raise InvalidParameterError(
                "terms=() is empty: cannot densify an empty sum without a size")
        dim = 2 ** self.terms[0][1].n_qubits
        out = np.zeros((dim, dim), dtype=complex)
        for c, s in self.terms:
            _add_dense(out, c * s.phase, s.letters)
        return out


def exp_pauli_rotation(theta: float, pauli: PauliString) -> np.ndarray:
    """exp(-i theta P), theta finite and P Hermitian, as a dense matrix (P^2 = I)."""
    theta = real(theta, "theta")
    if type(pauli) is not PauliString or not pauli.is_hermitian():
        raise InvalidParameterError(f"pauli={pauli!r} must be a Hermitian PauliString")
    dim = 2**pauli.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    out.reshape(-1)[:: dim + 1] = np.cos(theta)
    _add_dense(out, -1j * np.sin(theta) * pauli.phase, pauli.letters)
    return out


def _add_dense(out: np.ndarray, scale: complex, letters: str) -> None:
    """Add ``scale`` times the matrix of the Pauli string ``letters`` to the C-contiguous ``out``."""
    index, values = _pattern(letters)
    out.reshape(-1)[index] += scale * values


@functools.lru_cache(maxsize=64)
def _pattern(letters: str) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices and values of the nonzeros of the Pauli string ``letters``, read-only.

    The matrix is a signed permutation.  The first letter acts on the most
    significant bit of a basis index.  Row i has its one nonzero in column
    i ^ flip, where flip marks the X and Y letters, and that entry is
    (-i)^{#Y} * (-1)^{popcount(i & zy)}, where zy marks the Y and Z letters.
    An n-letter entry holds 24 * 2^n bytes, so the 64 cached patterns take
    less than one 16 * 4^n byte dense matrix from n = 7 on.
    """
    n = len(letters)
    zy = int("0" + letters.translate(_YZ_BITS), 2)
    flip = int("0" + letters.translate(_XY_BITS), 2)
    rows = np.arange(2**n)
    masked = rows & zy
    signs = _BYTE_SIGNS[masked & 255]
    for shift in range(8, n, 8):
        signs = signs * _BYTE_SIGNS[(masked >> shift) & 255]
    # row i's entry sits at flat index i * 2^n + (i ^ flip)
    index = np.arange(0, 4**n, 2**n) + (rows ^ flip)
    values = (-1j) ** letters.count("Y") * signs
    index.flags.writeable = values.flags.writeable = False
    return index, values


def _square(m, name: str) -> np.ndarray:
    """``m`` as an array, if it is a square matrix; one ``name=`` line if not."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParameterError(f"{name}=array of shape {m.shape} must be a square matrix")
    return m


def expm_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(-i H) for Hermitian H via eigendecomposition.

    ``h`` must be square and equal its conjugate transpose to within
    ``COEFF_ATOL`` in every entry: ``eigh`` reads only one triangle.
    """
    h = _square(h, "h")
    defect = np.abs(h - h.conj().T).max(initial=0)
    if not defect <= COEFF_ATOL:
        raise InvalidParameterError(
            f"h=array of shape {h.shape} must be Hermitian: an entry differs from its "
            f"mirror's conjugate by {defect:.3g}, above {COEFF_ATOL:g}")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def unitarity_defect(u: np.ndarray) -> float:
    """||U U† - I||_F of a square matrix ``u``."""
    u = _square(u, "u")
    return float(np.linalg.norm(u @ u.conj().T - np.eye(u.shape[0])))


def phase_quotient_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over unit phases lam of ||a - lam*b||_F, for ``a`` and ``b`` of one shape.

    The optimum is the phase of tr(b† a); a vanishing trace falls back to a
    direct comparison.
    """
    if np.shape(a) != np.shape(b):
        raise InvalidParameterError(
            f"b=array of shape {np.shape(b)} must have the shape of a, {np.shape(a)}")
    tr = np.vdot(b, a)
    lam = tr / abs(tr) if abs(tr) > 1e-12 else 1.0
    return float(np.linalg.norm(a - lam * b))
