"""Plaquette operator map and dense verification of the diagonalization.

A single 2x2 plaquette of the compact fermion-to-qubit mapping lives on five
qubits: the four vertices (clockwise 1..4) and the auxiliary face qubit.
Vertex operators map to single-qubit Z; edge operators map to weight-3
strings on the two endpoints plus the auxiliary.

The concrete letter/sign assignment below is fixed by requiring, all at once:
the derived diagonal operators Y1.Y3.Zaux and X2.X4.Zaux, the hopping pair on
edge (2,3) mapping to (X2.X3.Xaux + Y2.Y3.Xaux)/2, the closed-loop edge
product equal to +identity, and the plaquette time-evolution identity against
the explicit diagonalizing circuit.  Those constraints leave a single
solution; note they force the diagonal operators to carry orientations
1->3 and 4->2 (the reversed orientations are the negatives).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, integer, real
from .pauli import (
    PauliString,
    PauliSum,
    exp_pauli_rotation,
    expm_hermitian,
    phase_quotient_distance,
    unitarity_defect,
)

N_QUBITS = 5  # vertices 1..4 plus the auxiliary face qubit
AUX = 5
OperatorMap = dict[str, PauliString]


def _string(phase: complex = 1, **letters: str) -> PauliString:
    chars = ["I"] * N_QUBITS
    for key, letter in letters.items():
        chars[int(key[1:]) - 1] = letter
    return PauliString("".join(chars), phase)


#: The identity, and i times it: the relation checks' two fixed strings.
_IDENTITY, _I = PauliString("I" * N_QUBITS), PauliString("I" * N_QUBITS, 1j)


def plaquette_operator_map() -> OperatorMap:
    """Vertex and edge operators of the bulk plaquette, as a new dict.

    Boundary edges are oriented as subscripted; the diagonals E31 and E24
    hold the derived operators (orientations 1->3 and 4->2, see module
    docstring).
    """
    return dict(_MAP)


def _bulk_map() -> OperatorMap:
    e21 = _string(-1, q2="X", q1="Y", q5="Y")
    e23 = _string(+1, q2="X", q3="Y", q5="X")
    e43 = _string(-1, q4="X", q3="Y", q5="Y")
    e41 = _string(-1, q4="X", q1="Y", q5="X")
    mapping = {
        "V1": _string(q1="Z"),
        "V2": _string(q2="Z"),
        "V3": _string(q3="Z"),
        "V4": _string(q4="Z"),
        "E21": e21,
        "E32": -e23,
        "E43": e43,
        "E14": -e41,
    }
    mapping["E31"] = _I * (-e21) * e23          # = i E12 E23, oriented 1->3
    mapping["E24"] = _I * e41 * (-e21)          # = i E41 E12, oriented 4->2
    return mapping


_BOUNDARY_EDGES = ((2, 1), (2, 3), (4, 3), (4, 1))


def _directed_edges(mapping: OperatorMap) -> dict[tuple[int, int], PauliString]:
    """Every edge of ``mapping`` in both orientations, the diagonals included."""
    edges = {
        (2, 1): mapping["E21"],
        (3, 2): mapping["E32"],
        (4, 3): mapping["E43"],
        (1, 4): mapping["E14"],
        (1, 3): mapping["E31"],
        (4, 2): mapping["E24"],
    }
    for (j, k), e in list(edges.items()):
        edges[(k, j)] = -e
    return edges


def check_majorana_relations(mapping: OperatorMap | None = None) -> dict[str, bool]:
    """Verify the algebraic relations of the mapped vertex/edge operators.

    Checks Hermiticity, self-inversion and tracelessness, the
    share-a-vertex anticommutation rule over all operator pairs, the
    edge-concatenation identities for the two diagonals, and the closed-loop
    product around the plaquette, of the bundled map unless ``mapping`` is given.
    """
    if mapping is None:
        mapping = _MAP
    elif not (isinstance(mapping, dict) and mapping.keys() == _MAP.keys() and all(
            type(op) is PauliString and op.n_qubits == N_QUBITS for op in mapping.values())):
        raise InvalidParameterError(
            f"mapping={mapping!r} must map exactly {', '.join(_MAP)} to {N_QUBITS}-qubit PauliStrings")
    report: dict[str, bool] = {}
    for name, op in mapping.items():
        hermitian, self_inverse, traceless = _OPERATOR_LABELS[name]
        report[hermitian] = op.is_hermitian()
        report[self_inverse] = (op * op) == _IDENTITY
        report[traceless] = op.weight > 0

    for a, b, label, share in _PAIR_RULES:
        report[label] = mapping[a].commutes_with(mapping[b]) != share

    edges = _EDGES if mapping is _MAP else _directed_edges(mapping)
    # concatenation E_jl = i E_jk E_kl with the diagonals' stored orientations
    report["E31 concatenation"] = (_I * edges[(1, 2)] * edges[(2, 3)]) == mapping["E31"]
    report["E24 concatenation"] = (_I * edges[(4, 1)] * edges[(1, 2)]) == mapping["E24"]
    report["diagonal chains agree"] = (
        (_I * edges[(4, 3)] * edges[(3, 2)]) == mapping["E24"]
    )
    loop = edges[(1, 2)] * edges[(2, 3)] * edges[(3, 4)] * edges[(4, 1)]
    report["loop product = +I"] = loop == _IDENTITY
    return report


def build_plaquette_hamiltonian(t_coupling: float) -> PauliSum:
    """Qubit image of the single-plaquette hopping Hamiltonian.

    Each boundary edge contributes -t/(2i) (E_jk V_k + V_j E_jk); ``t_coupling``
    must be finite, and 0 gives the empty sum.
    """
    t_coupling = real(t_coupling, "t_coupling")
    # each product is anti-Hermitian (phase +/-i); -t/(2i) * (+/-i P)
    return PauliSum.from_terms((-t_coupling / 2j * s.phase, PauliString(s.letters))
                               for s in _HOPPING)


def fourier_transform(j: int, k: int) -> np.ndarray:
    """Dense two-mode fermionic Fourier transform between plaquette modes.

    Built as exp(i pi/4 V_j) exp(pi/8 V_j E_kj) exp(pi/8 E_kj V_k); the edge
    enters with orientation k->j, the convention under which this reproduces
    the explicit rotation sequences of the diagonalizing circuit.  Any two
    different vertices of 1..4 are an edge (j, k): four boundary, two diagonal.
    """
    rule = "a plaquette vertex: 1, 2, 3 or 4"
    j, k = integer(j, "j", 1, 4, rule=rule), integer(k, "k", 1, 4, rule=rule)
    if j == k:
        raise InvalidParameterError(f"(j, k)={(j, k)} must be a plaquette edge: two different vertices")
    (theta, axis), *rest = _FOURIER_ROTATIONS[(j, k)]
    out = exp_pauli_rotation(theta, axis)
    for theta, axis in rest:
        out = out @ exp_pauli_rotation(theta, axis)
    return out


def _fourier_rotations(j: int, k: int) -> tuple[tuple[float, PauliString], ...]:
    """The (angle, axis) of the three rotations of ``fourier_transform(j, k)``, in order."""
    vj, vk, ekj = _MAP[f"V{j}"], _MAP[f"V{k}"], _EDGES[(k, j)]
    rotations = [(-math.pi / 4, vj)]
    for product in (vj * ekj, ekj * vk):
        # V.E products are anti-Hermitian with phase +/-i: pi/8 * (s*i) * P
        sign = (product.phase / 1j).real
        rotations.append((-sign * math.pi / 8, PauliString(product.letters)))
    return tuple(rotations)


def diagonalizing_clifford_dagger() -> np.ndarray:
    """C† = exp(i pi/4 Y2 X3 Xaux) X2, isolating the two inner rotations."""
    return exp_pauli_rotation(-math.pi / 4, _string(q2="Y", q3="X", q5="X")) \
        @ _string(q2="X").dense()


@dataclass(frozen=True)
class DiagonalizationCircuit:
    """The dense halves of F31 F24 C . C† F24† F31†."""

    forward: np.ndarray  # F31 F24 C
    inverse: np.ndarray  # C† F24† F31†

    def evolution(self, theta) -> np.ndarray:
        """The circuit at one inner angle ``theta``, or a stack at an array of them.

        The module's halves are built once, at import, and reused for every
        angle; an angle costs only the diagonal e^{i theta Z2} e^{i theta Z3},
        applied as a vector, and one 32x32 product.
        """
        phases = np.exp(1j * np.asarray(theta)[..., None] * _Z2_PLUS_Z3)
        return (self.forward * phases[..., None, :]) @ self.inverse


def _z_diagonal(qubit: int) -> np.ndarray:
    """Diagonal of Z on ``qubit`` (1-based; qubit 1 is the most significant bit)."""
    return 1 - 2 * ((np.arange(2**N_QUBITS) >> (N_QUBITS - qubit)) & 1)


_Z2, _Z3 = _z_diagonal(2), _z_diagonal(3)
#: The diagonal generators of the circuit's inner rotations and of the number
#: rotations, and the values each takes: the checks sum over these spectra.
_Z2_PLUS_Z3, _N2_MINUS_N3 = _Z2 + _Z3, (_Z3 - _Z2) / 2
_Z2_PLUS_Z3_VALUES, _N2_MINUS_N3_VALUES = np.array([-2, 0, 2]), np.array([-1, 0, 1])
#: The hopping axes C maps Z2 and Z3 onto, and the hopping generator they make.
_X2X3XAUX = _string(q2="X", q3="X", q5="X").dense()
_Y2Y3XAUX = _string(q2="Y", q3="Y", q5="X").dense()
_HOPPING_AXIS = (_X2X3XAUX + _Y2Y3XAUX) / 2
#: The axis's spectral projectors for the eigenvalues -1, 0, 1: A^3 = A, so
#: they are (A^2 - A)/2, I - A^2 and (A^2 + A)/2, and e^{i theta A} is
#: their sum weighted by e^{-i theta}, 1, e^{i theta}.
_AXIS_SQUARED = _HOPPING_AXIS @ _HOPPING_AXIS
_HOPPING_PROJECTORS = np.stack([(_AXIS_SQUARED - _HOPPING_AXIS) / 2,
                                np.eye(2**N_QUBITS) - _AXIS_SQUARED,
                                (_AXIS_SQUARED + _HOPPING_AXIS) / 2])
#: The operator map and its directed edges: ten fixed strings, built at import.
_MAP = _bulk_map()
_EDGES = _directed_edges(_MAP)
#: Every map the relation check accepts has _MAP's names, so its labels are
#: fixed: three per operator, and for each pair of names in sorted order the
#: rule they obey, sharing a vertex (which the names list) or not.
_OPERATOR_LABELS = {
    name: (f"{name} hermitian", f"{name} self-inverse", f"{name} traceless") for name in _MAP
}
_PAIR_RULES = tuple(
    (a, b, f"{{{a},{b}}}={'anticommute' if share else 'commute'}", share)
    for a, b in itertools.combinations(sorted(_MAP), 2)
    for share in [not set(a[1:]).isdisjoint(b[1:])]
)
#: E_jk V_k and V_j E_jk for each boundary edge (j, k): the hopping terms, up to -t/2i.
_HOPPING = tuple(
    s
    for (j, k) in _BOUNDARY_EDGES
    for s in (_EDGES[(j, k)] * _MAP[f"V{k}"], _MAP[f"V{j}"] * _EDGES[(j, k)])
)
#: The rotations of every Fourier transform the directed edges allow.
_FOURIER_ROTATIONS = {(j, k): _fourier_rotations(j, k) for (k, j) in _EDGES}
#: C†, F31 and F24, and the circuit halves F31 F24 C and C† F24† F31†: fixed
#: operators, built at import.
_CD, _F31, _F24 = diagonalizing_clifford_dagger(), fourier_transform(3, 1), fourier_transform(2, 4)
_CIRCUIT = DiagonalizationCircuit(_F31 @ _F24 @ _CD.conj().T, _CD @ _F24.conj().T @ _F31.conj().T)


def build_diagonalization_circuit(theta: float = 0.0) -> np.ndarray:
    """Dense F31 F24 C e^{i theta Z2} e^{i theta Z3} C† F24† F31†, for a finite ``theta``."""
    return _CIRCUIT.evolution(real(theta, "theta"))


def check_clifford_relations() -> dict[str, float]:
    """Dense checks that C maps Z2, Z3 onto the plaquette hopping axes.

    The caller bounds the returned deviations.
    """
    c = _CD.conj().T
    # Z2 and Z3 are diagonal: multiplying C's columns by them is the product C Z
    return {
        "C Z2 C† = X2X3Xaux": float(np.linalg.norm((c * _Z2) @ _CD - _X2X3XAUX)),
        "C Z3 C† = Y2Y3Xaux": float(np.linalg.norm((c * _Z3) @ _CD - _Y2Y3XAUX)),
        "circuit unitarity": unitarity_defect(build_diagonalization_circuit(0.37)),
    }


def _angle_list(theta) -> tuple[list[float], bool]:
    """``theta`` as a list of finite floats, and whether it was a single angle."""
    if np.ndim(theta) == 0:
        return [real(theta, "theta")], True
    return [real(a, "theta") for a in theta], False


#: Angles whose spectral sums are taken as one (angles x 1024) stack, 16 kB
#: per angle.  A check over 20,000 angles then peaks ~600 kB above the list
#: it returns; at 64 angles per chunk it passes 1 MiB.
_CHUNK = 16


def _spectral_parts(left: np.ndarray, right: np.ndarray, labels: np.ndarray,
                    values: np.ndarray) -> np.ndarray:
    """Row j is left[:, labels == values[j]] @ right[labels == values[j], :], flattened.

    With ``labels`` the diagonal of a generator G, left e^{i theta G} right
    is the sum of the rows weighted by e^{i theta values[j]}.
    """
    return ((left * (labels == values[:, None])[:, None, :]) @ right).reshape(len(values), -1)


def _spectral_sums(angles: list[float], values: np.ndarray, parts: np.ndarray):
    """Per chunk of ``_CHUNK`` angles: the angles, and for each the row of sums
    sum_j e^{i angle values[j]} parts[j].

    Every chunk's rows are written into one buffer, which the next chunk
    overwrites: a fresh 256 kB array per chunk costs more than its sums.
    """
    buffer = np.empty((_CHUNK, parts.shape[1]), dtype=complex)
    for start in range(0, len(angles), _CHUNK):
        chunk = np.array(angles[start:start + _CHUNK])
        yield chunk, np.matmul(np.exp(1j * chunk[:, None] * values), parts, out=buffer[:len(chunk)])


def _row_norms(rows: np.ndarray) -> list[float]:
    """The Frobenius norm of each row of a C-contiguous complex array."""
    floats = rows.view(float)
    return np.sqrt(np.einsum("ij,ij->i", floats, floats)).tolist()


def verify_plaquette_evolution(t_coupling: float, theta,
                               circuit: DiagonalizationCircuit = _CIRCUIT):
    """Deviation between exp(-i theta/t H_plaquette) and the circuit.

    ``t_coupling`` is finite and nonzero; ``theta`` is the inner rotation
    angle t*T_sim/(2r), finite, one angle giving one float or a sequence
    giving their deviations in order.  Global phases are quotiented out.  The
    halves F = F31 F24 C and G = C† F24† F31† are ``circuit``, the module's
    by default.  H = V diag(w) V† is built and diagonalized once per call,
    and the circuit is split by the spectrum {-2, 0, 2} of Z2 + Z3: in H's
    eigenbasis it is K(theta) = sum_s e^{i theta s} R_s, with
    R_s = (V† F)[:, s] (G V)[s, :] built once.  The exact evolution is there
    the diagonal a = e^{-i theta w/t}, so an angle costs one three-term sum
    and the distance ||K - conj(lam) diag(a)||, lam the phase of
    tr(K† diag(a)) as in ``phase_quotient_distance``.  The sums are taken
    ``_CHUNK`` angles at a time, so memory does not grow with the number of
    angles.  The first angle is also compared directly, as two dense 32x32
    matrices, and its deviation is the larger of the two results.
    """
    t_coupling = real(t_coupling, "t_coupling")
    if t_coupling == 0:
        raise InvalidParameterError(f"t_coupling={t_coupling!r} must be nonzero")
    angles, single = _angle_list(theta)
    w, v = np.linalg.eigh(build_plaquette_hamiltonian(t_coupling).dense())
    v_dagger = v.conj().T
    parts = _spectral_parts(v_dagger @ circuit.forward, circuit.inverse @ v,
                            _Z2_PLUS_Z3, _Z2_PLUS_Z3_VALUES)
    devs = []
    for chunk, k in _spectral_sums(angles, _Z2_PLUS_Z3_VALUES, parts):
        exact = np.exp(-1j * (chunk / t_coupling)[:, None] * w)
        diagonal = k[:, ::2**N_QUBITS + 1]  # a view: the subtraction below writes into k
        trace = np.einsum("ij,ij->i", diagonal.conj(), exact)
        size = abs(trace)
        # conj(lam); a vanishing trace falls back to lam = 1, as in phase_quotient_distance
        phase = np.divide(trace.conj(), size, out=np.ones_like(trace), where=size > 1e-12)
        diagonal -= phase[:, None] * exact
        devs.extend(_row_norms(k))
    if angles:
        exact = (v * np.exp(-1j * (angles[0] / t_coupling) * w)) @ v_dagger
        devs[0] = max(devs[0], phase_quotient_distance(exact, circuit.evolution(angles[0])))
    return devs[0] if single else devs


def verify_fourier_identity(theta):
    """Deviation of F23-conjugated number rotations from the hopping rotation.

    Checks F23 e^{i theta n2} e^{-i theta n3} F23† against
    e^{i theta A}, A = (X2X3Xaux + Y2Y3Xaux)/2.  ``theta`` is one finite
    angle, giving one float, or a sequence of them, giving their deviations
    in order.  F23 is built once per call.  Both sides are sums over the
    spectrum {-1, 0, 1}: the left of S_d = F23[:, d] F23†[d, :] split by the
    values d of n2 - n3, the right of A's projectors P_d.  So
    D_d = S_d - P_d is built once, and an angle costs the norm of
    sum_d e^{i theta d} D_d, taken ``_CHUNK`` angles at a time.  The first
    angle is also compared directly, against a generic matrix exponential
    of A, and its deviation is the larger of the two results.
    """
    angles, single = _angle_list(theta)
    f23 = fourier_transform(2, 3)
    f23_dagger = f23.conj().T
    parts = (_spectral_parts(f23, f23_dagger, _N2_MINUS_N3, _N2_MINUS_N3_VALUES)
             - _HOPPING_PROJECTORS.reshape(3, -1))
    devs = []
    for _, difference in _spectral_sums(angles, _N2_MINUS_N3_VALUES, parts):
        devs.extend(_row_norms(difference))
    if angles:
        left = (f23 * np.exp(1j * angles[0] * _N2_MINUS_N3)) @ f23_dagger
        right = expm_hermitian(-angles[0] * _HOPPING_AXIS)
        devs[0] = max(devs[0], float(np.linalg.norm(left - right)))
    return devs[0] if single else devs


def run_verification(n_angles: int = 20, seed: int = 0, tolerance: float = 1e-10) -> dict:
    """Full plaquette verification: relations, Clifford identities, evolution.

    ``n_angles`` must be an integer >= 1, ``seed`` a non-negative integer
    and ``tolerance`` positive and finite.
    The operator map, C† and the circuit halves are module constants; F23
    and the Hamiltonian are built once per check that reads them.  The
    evolution and Fourier checks sum each angle over a spectrum of three
    values, in chunks of ``_CHUNK`` angles, so memory does not grow with
    ``n_angles``, and compare the first angle directly too.
    Returns a report dict; ``report["passed"]`` aggregates everything.
    """
    n_angles = integer(n_angles, "n_angles")
    seed = integer(seed, "seed", 0, rule="a non-negative integer")
    tolerance = real(tolerance, "tolerance", above=0)
    relations = check_majorana_relations()
    clifford = check_clifford_relations()
    rng = np.random.default_rng(seed)
    angles = [float(a) for a in rng.uniform(0.0, math.pi, n_angles)]
    fourier_angles = angles[: max(3, n_angles // 4)]
    evolution = dict(zip(angles, verify_plaquette_evolution(1.0, angles)))
    fourier = dict(zip(fourier_angles, verify_fourier_identity(fourier_angles)))
    passed = (
        all(relations.values())
        and all(v <= 1e-12 for v in clifford.values())
        and all(v <= tolerance for v in evolution.values())
        and all(v <= tolerance for v in fourier.values())
    )
    return {
        "relations": relations,
        "clifford": clifford,
        "evolution": evolution,
        "fourier": fourier,
        "passed": passed,
    }


def mutated_map(target: str = "E21", qubit: int = 0) -> OperatorMap:
    """The operator map with one letter corrupted, for negative tests."""
    mapping = plaquette_operator_map()
    original = mapping[target]
    letters = list(original.letters)
    letters[qubit] = {"I": "X", "X": "Y", "Y": "Z", "Z": "I"}[letters[qubit]]
    mapping[target] = PauliString("".join(letters), original.phase)
    return mapping
