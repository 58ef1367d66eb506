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

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
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
    i = PauliString("I" * N_QUBITS, 1j)
    mapping["E31"] = i * (-e21) * e23          # = i E12 E23, oriented 1->3
    mapping["E24"] = i * e41 * (-e21)          # = i E41 E12, oriented 4->2
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
    product around the plaquette.
    """
    mapping = mapping or _MAP
    report: dict[str, bool] = {}
    identity = PauliString("I" * N_QUBITS)

    for name, op in mapping.items():
        report[f"{name} hermitian"] = op.is_hermitian()
        report[f"{name} self-inverse"] = (op * op) == identity
        report[f"{name} traceless"] = op.weight > 0

    names = sorted(mapping)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            share = not set(a[1:]).isdisjoint(b[1:])  # the names list the vertices
            commute = mapping[a].commutes_with(mapping[b])
            label = "anticommute" if share else "commute"
            report[f"{{{a},{b}}}={label}"] = (commute != share)

    edges = _directed_edges(mapping)
    i = PauliString("I" * N_QUBITS, 1j)
    # concatenation E_jl = i E_jk E_kl with the diagonals' stored orientations
    report["E31 concatenation"] = (i * edges[(1, 2)] * edges[(2, 3)]) == mapping["E31"]
    report["E24 concatenation"] = (i * edges[(4, 1)] * edges[(1, 2)]) == mapping["E24"]
    report["diagonal chains agree"] = (
        (i * edges[(4, 3)] * edges[(3, 2)]) == mapping["E24"]
    )
    loop = edges[(1, 2)] * edges[(2, 3)] * edges[(3, 4)] * edges[(4, 1)]
    report["loop product = +I"] = loop == identity
    return report


def build_plaquette_hamiltonian(t_coupling: float) -> PauliSum:
    """Qubit image of the single-plaquette hopping Hamiltonian.

    Each boundary edge contributes -t/(2i) (E_jk V_k + V_j E_jk); ``t_coupling``
    must be finite, and 0 gives the empty sum.
    """
    if not math.isfinite(t_coupling):
        raise InvalidParameterError(f"t_coupling={t_coupling!r} must be finite")
    terms = []
    for (j, k) in _BOUNDARY_EDGES:
        e, vj, vk = _EDGES[(j, k)], _MAP[f"V{j}"], _MAP[f"V{k}"]
        for s in (e * vk, vj * e):
            # each product is anti-Hermitian (phase +/-i); -t/(2i) * (+/-i P)
            terms.append((-t_coupling / 2j * s.phase, PauliString(s.letters)))
    return PauliSum.from_terms(terms)


def fourier_transform(j: int, k: int) -> np.ndarray:
    """Dense two-mode fermionic Fourier transform between plaquette modes.

    Built as exp(i pi/4 V_j) exp(pi/8 V_j E_kj) exp(pi/8 E_kj V_k); the edge
    enters with orientation k->j, the convention under which this reproduces
    the explicit rotation sequences of the diagonalizing circuit.
    """
    vj, vk, ekj = _MAP[f"V{j}"], _MAP[f"V{k}"], _EDGES[(k, j)]
    out = exp_pauli_rotation(-math.pi / 4, vj)
    for product in (vj * ekj, ekj * vk):
        # V.E products are anti-Hermitian with phase +/-i: pi/8 * (s*i) * P
        sign = (product.phase / 1j).real
        out = out @ exp_pauli_rotation(-sign * math.pi / 8, PauliString(product.letters))
    return out


def diagonalizing_clifford_dagger() -> np.ndarray:
    """C† = exp(i pi/4 Y2 X3 Xaux) X2, isolating the two inner rotations."""
    return exp_pauli_rotation(-math.pi / 4, _string(q2="Y", q3="X", q5="X")) \
        @ _string(q2="X").dense()


@dataclass(frozen=True)
class DiagonalizationCircuit:
    """The dense halves of F31 F24 C . C† F24† F31†."""

    forward: np.ndarray  # F31 F24 C
    inverse: np.ndarray  # C† F24† F31†

    def evolution(self, theta: float) -> np.ndarray:
        """The circuit at one inner angle ``theta``.

        The halves are built once and reused for every angle of a run; an
        angle costs only the diagonal e^{i theta Z2} e^{i theta Z3}, applied
        as a vector, and one 32x32 product.
        """
        return (self.forward * np.exp(1j * theta * (_Z2 + _Z3))) @ self.inverse


def _z_diagonal(qubit: int) -> np.ndarray:
    """Diagonal of Z on ``qubit`` (1-based; qubit 1 is the most significant bit)."""
    return 1 - 2 * ((np.arange(2**N_QUBITS) >> (N_QUBITS - qubit)) & 1)


_Z2, _Z3 = _z_diagonal(2), _z_diagonal(3)
#: The hopping axes C maps Z2 and Z3 onto.
_X2X3XAUX = _string(q2="X", q3="X", q5="X").dense()
_Y2Y3XAUX = _string(q2="Y", q3="Y", q5="X").dense()
#: The operator map and its directed edges: ten fixed strings, built at import.
_MAP = _bulk_map()
_EDGES = _directed_edges(_MAP)


def build_diagonalization_circuit(theta: float = 0.0,
                                  circuit: DiagonalizationCircuit | None = None) -> np.ndarray:
    """Dense F31 F24 C e^{i theta Z2} e^{i theta Z3} C† F24† F31†, from ``circuit``'s halves if given."""
    return (circuit or _circuit()).evolution(theta)


def _circuit(cd: np.ndarray | None = None) -> DiagonalizationCircuit:
    cd = diagonalizing_clifford_dagger() if cd is None else cd
    f31 = fourier_transform(3, 1)
    f24 = fourier_transform(2, 4)
    inverse = cd @ f24.conj().T @ f31.conj().T
    forward = f31 @ f24 @ cd.conj().T
    return DiagonalizationCircuit(forward, inverse)


def check_clifford_relations(cd: np.ndarray | None = None,
                             circuit: DiagonalizationCircuit | None = None) -> dict[str, float]:
    """Dense checks that C maps Z2, Z3 onto the plaquette hopping axes.

    ``cd`` is C† and ``circuit`` the circuit halves; each is built here if
    not given.  The caller bounds the returned deviations.
    """
    cd = diagonalizing_clifford_dagger() if cd is None else cd
    c = cd.conj().T
    z2 = _string(q2="Z").dense()
    z3 = _string(q3="Z").dense()
    return {
        "C Z2 C† = X2X3Xaux": float(np.linalg.norm(c @ z2 @ cd - _X2X3XAUX)),
        "C Z3 C† = Y2Y3Xaux": float(np.linalg.norm(c @ z3 @ cd - _Y2Y3XAUX)),
        "circuit unitarity": unitarity_defect(build_diagonalization_circuit(0.37, circuit)),
    }


def _angle_list(theta) -> tuple[list[float], bool]:
    """``theta`` as a list of floats, and whether it was a single angle."""
    if np.ndim(theta) == 0:
        return [float(theta)], True
    return [float(a) for a in theta], False


def verify_plaquette_evolution(t_coupling: float, theta,
                               circuit: DiagonalizationCircuit | None = None):
    """Deviation between exp(-i theta/t H_plaquette) and the circuit.

    ``t_coupling`` is finite and nonzero; ``theta`` is the inner rotation
    angle t*T_sim/(2r), one angle giving one float or a sequence giving their
    deviations in order.  Global phases are quotiented out.  H and its
    spectrum are built once per call, the halves are ``circuit``, built here
    if not given; each angle then costs its eigenphases, the diagonal inner
    rotation and two 32x32 products.
    """
    if not (math.isfinite(t_coupling) and t_coupling != 0):
        raise InvalidParameterError(f"t_coupling={t_coupling!r} must be finite and nonzero")
    angles, single = _angle_list(theta)
    w, v = np.linalg.eigh(build_plaquette_hamiltonian(t_coupling).dense())
    v_dagger = v.conj().T
    circuit = circuit or _circuit()
    devs = [
        phase_quotient_distance((v * np.exp(-1j * (a / t_coupling) * w)) @ v_dagger,
                                circuit.evolution(a))
        for a in angles
    ]
    return devs[0] if single else devs


def verify_fourier_identity(theta):
    """Deviation of F23-conjugated number rotations from the hopping rotation.

    Checks F23 e^{i theta n2} e^{-i theta n3} F23† against
    e^{i theta (X2X3Xaux + Y2Y3Xaux)/2}.  ``theta`` is one angle, giving one
    float, or a sequence of angles, giving their deviations in order.  F23
    and the hopping axis are built once per call; the number rotations are
    diagonal and applied as a vector, and the right-hand side is a generic
    matrix exponential of the axis at each angle.
    """
    angles, single = _angle_list(theta)
    f23 = fourier_transform(2, 3)
    f23_dagger = f23.conj().T
    n2_minus_n3 = (_Z3 - _Z2) / 2
    axis = (_X2X3XAUX + _Y2Y3XAUX) / 2
    devs = [
        float(np.linalg.norm((f23 * np.exp(1j * a * n2_minus_n3)) @ f23_dagger
                             - expm_hermitian(-a * axis)))
        for a in angles
    ]
    return devs[0] if single else devs


def run_verification(n_angles: int = 20, seed: int = 0, tolerance: float = 1e-10) -> dict:
    """Full plaquette verification: relations, Clifford identities, evolution.

    ``n_angles`` must be an integer >= 1, ``seed`` a non-negative integer
    and ``tolerance`` finite and > 0.
    The operator map is a module constant; C†, F31, F24, F23 and the circuit
    halves are built once per run and shared by the checks, which loop over
    the angles one at a time, so memory does not grow with ``n_angles``.
    Returns a report dict; ``report["passed"]`` aggregates everything.
    """
    if isinstance(n_angles, bool) or not isinstance(n_angles, numbers.Integral) or n_angles < 1:
        raise InvalidParameterError(f"n_angles={n_angles!r} must be an integer >= 1")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise InvalidParameterError(f"seed={seed!r} must be a non-negative integer")
    if not (isinstance(tolerance, numbers.Real) and math.isfinite(tolerance) and tolerance > 0):
        raise InvalidParameterError(f"tolerance={tolerance!r} must be finite and > 0")
    cd = diagonalizing_clifford_dagger()
    circuit = _circuit(cd)
    relations = check_majorana_relations()
    clifford = check_clifford_relations(cd, circuit)
    rng = np.random.default_rng(seed)
    angles = [float(a) for a in rng.uniform(0.0, math.pi, n_angles)]
    fourier_angles = angles[: max(3, n_angles // 4)]
    evolution = dict(zip(angles, verify_plaquette_evolution(1.0, angles, circuit)))
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
