import itertools
import math
import sys
import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftcost import pauli, plaquette, trotter
from ftcost.errors import InvalidParameterError
from ftcost.pauli import (
    PauliString,
    PauliSum,
    exp_pauli_rotation,
    expm_hermitian,
    phase_quotient_distance,
    unitarity_defect,
)
from ftcost.plaquette import (
    build_diagonalization_circuit,
    build_plaquette_hamiltonian,
    check_clifford_relations,
    check_majorana_relations,
    diagonalizing_clifford_dagger,
    fourier_transform,
    mutated_map,
    plaquette_operator_map,
    run_verification,
    verify_fourier_identity,
    verify_plaquette_evolution,
)

strings5 = st.text(alphabet="IXYZ", min_size=5, max_size=5)
strings1to6 = st.text(alphabet="IXYZ", min_size=1, max_size=6)
#: Two letter strings of one length, 1 to 6.
string_pairs1to6 = st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.text(alphabet="IXYZ", min_size=n, max_size=n),
                        st.text(alphabet="IXYZ", min_size=n, max_size=n)))
phases = st.sampled_from([1, -1, 1j, -1j])
SINGLE_QUBIT = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_chain(letters: str) -> np.ndarray:
    """The matrix of ``letters`` as a Kronecker product of 2x2 matrices."""
    out = np.array([[1.0 + 0j]])
    for c in letters:
        out = np.kron(out, SINGLE_QUBIT[c])
    return out


class TestPauliStrings:
    def test_single_qubit_products(self):
        x, y, z = PauliString("X"), PauliString("Y"), PauliString("Z")
        assert x * y == PauliString("Z", 1j)
        assert y * x == PauliString("Z", -1j)
        assert y * z == PauliString("X", 1j)

    def test_self_inverse(self):
        s = PauliString("YIYIZ")
        assert s * s == PauliString("IIIII")

    @given(a=strings5, b=strings5, c=strings5, pa=phases, pb=phases)
    @settings(max_examples=100)
    def test_associative_with_daggers(self, a, b, c, pa, pb):
        pa_, pb_, pc_ = PauliString(a, pa), PauliString(b, pb), PauliString(c)
        assert (pa_ * pb_) * pc_ == pa_ * (pb_ * pc_)
        # the adjoint conjugates the phase
        adjoint = lambda s: PauliString(s.letters, s.phase.conjugate())
        assert adjoint(pa_ * pb_) == adjoint(pb_) * adjoint(pa_)

    @given(a=strings5, b=strings5)
    def test_commute_matches_product_phases(self, a, b):
        pa_, pb_ = PauliString(a), PauliString(b)
        ab = (pa_ * pb_)
        ba = (pb_ * pa_)
        assert pa_.commutes_with(pb_) == (ab.phase == ba.phase)

    def test_commute_rejects_different_sizes(self):
        with pytest.raises(InvalidParameterError, match="different sizes"):
            PauliString("XZ").commutes_with(PauliString("ZXY"))

    @given(letters=strings1to6, phase=phases)
    @settings(max_examples=200)
    def test_dense_equals_kron_chain(self, letters, phase):
        assert np.array_equal(PauliString(letters, phase).dense(), phase * kron_chain(letters))

    def test_dense_past_one_byte_of_qubits(self):
        letters = "XYZIZYXZY"  # nine qubits: the sign of a row reads two bytes of its index
        assert np.array_equal(PauliString(letters, -1j).dense(), -1j * kron_chain(letters))

    @given(pair=string_pairs1to6, pa=phases, pb=phases)
    @settings(max_examples=300)
    def test_products_match_dense_algebra(self, pair, pa, pb):
        a, b = PauliString(pair[0], pa), PauliString(pair[1], pb)
        ab, ba = a.dense() @ b.dense(), b.dense() @ a.dense()
        assert np.array_equal((a * b).dense(), ab)
        assert a.commutes_with(b) == np.array_equal(ab, ba)

    @given(terms=st.lists(st.tuples(st.floats(-2.0, 2.0), strings5, phases), min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_sum_dense_adds_its_terms_in_order(self, terms):
        s = PauliSum.from_terms((c, PauliString(letters, phase)) for c, letters, phase in terms)
        if not s.terms:
            return
        expected = np.zeros((32, 32), dtype=complex)
        for c, string in s.terms:
            expected += c * string.dense()
        assert np.array_equal(s.dense(), expected)

    @given(letters=strings1to6, theta=st.floats(-4.0, 4.0), sign=st.sampled_from([1, -1]))
    @settings(max_examples=100)
    def test_rotation_is_cos_minus_i_sin_p(self, letters, theta, sign):
        p = PauliString(letters, sign)
        expected = np.cos(theta) * np.eye(2 ** len(letters)) - 1j * np.sin(theta) * p.dense()
        assert np.array_equal(exp_pauli_rotation(theta, p), expected)

    def test_dense_matches_phase(self):
        s = PauliString("XZ", -1j)
        expected = -1j * np.kron(np.array([[0, 1], [1, 0]]), np.diag([1, -1]))
        assert np.allclose(s.dense(), expected)


@pytest.mark.parametrize("name, call", [
    ("letters", lambda: PauliString(["X", "Y"])),
    ("letters", lambda: PauliString(("X",))),
    ("letters", lambda: PauliString(5)),
    ("letters", lambda: PauliString("XA")),
    ("phase", lambda: PauliString("X", True)),
    ("phase", lambda: PauliString("X", np.True_)),
    ("phase", lambda: PauliString("X", 2)),
    ("pauli", lambda: exp_pauli_rotation(0.3, "XZ")),
    ("pauli", lambda: exp_pauli_rotation(0.3, PauliString("XZ", 1j))),
    ("theta", lambda: exp_pauli_rotation(float("nan"), PauliString("XZ"))),
    ("theta", lambda: exp_pauli_rotation("0.3", PauliString("XZ"))),
    ("j", lambda: fourier_transform(5, 1)),
    ("j", lambda: fourier_transform(1.0, 2)),
    ("k", lambda: fourier_transform(1, 0)),
    (r"\(j, k\)", lambda: fourier_transform(2, 2)),
    ("terms", lambda: PauliSum.from_terms([(1.0, PauliString("X")), (math.nan, PauliString("Z"))])),
    ("terms", lambda: PauliSum.from_terms([(complex(1, math.inf), PauliString("X"))])),
    ("terms", lambda: PauliSum.from_terms([("1", PauliString("X"))])),
    ("terms", lambda: PauliSum.from_terms([(1.0, "X")])),
    ("other", lambda: PauliString("X") * 2),
    ("other", lambda: PauliString("X") * "X"),
    ("other", lambda: PauliString("X").commutes_with("X")),
    ("other", lambda: PauliString("X") * PauliString("XX")),
    ("other", lambda: PauliString("X").commutes_with(PauliString("XX"))),
    ("terms", lambda: PauliSum.from_terms([(1.0, PauliString("X")), (1.0, PauliString("XX"))])),
    ("terms", lambda: PauliSum(()).dense()),
    ("terms", lambda: PauliSum.from_terms([PauliString("X")])),
    ("h", lambda: expm_hermitian(np.array([[0, 1], [0, 0]]))),
    ("h", lambda: expm_hermitian(np.ones((2, 3)))),
    ("h", lambda: expm_hermitian(np.ones(4))),
    ("h", lambda: expm_hermitian(np.diag([1.0, math.nan]))),
    ("b", lambda: phase_quotient_distance(np.eye(2), np.eye(3))),
    ("b", lambda: phase_quotient_distance(np.ones(3), np.ones((3, 1)))),
    ("u", lambda: unitarity_defect(np.ones((2, 3)))),
], ids=["letters-list", "letters-tuple", "letters-int", "letters-A", "phase-True",
        "phase-np.True_", "phase-2", "axis-str", "axis-antihermitian", "theta-nan",
        "theta-str", "fourier-j-5", "fourier-j-float", "fourier-k-0", "fourier-j-is-k",
        "sum-nan", "sum-complex-inf", "sum-str-coefficient", "sum-str-operand", "mul-int",
        "mul-str", "commutes-str", "mul-sizes", "commutes-sizes", "sum-mixed-sizes",
        "sum-empty-dense", "sum-bare-string", "expm-lower-triangle", "expm-2x3", "expm-vector",
        "expm-nan", "quotient-shapes", "quotient-broadcast", "unitarity-2x3"])
def test_bad_pauli_arguments_fail_as_one_named_line(name, call):
    with pytest.raises(InvalidParameterError, match=f"^{name}=") as error:
        call()
    assert "\n" not in str(error.value)


class TestLetterPatternCaches:
    """The Pauli layer derives each letter pattern's structure once, in bounded caches."""

    CACHES = [f for module in (pauli, plaquette) for f in vars(module).values()
              if hasattr(f, "cache_info")]

    def test_every_cache_is_bounded(self):
        assert {f.__name__ for f in self.CACHES} == {"_pattern", "_letter_product"}
        for f in self.CACHES:
            assert isinstance(f.cache_info().maxsize, int)

    def test_cached_patterns_are_read_only(self):
        PauliString("XYZ").dense()
        for array in pauli._pattern("XYZ"):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    @pytest.mark.parametrize("build", [
        lambda: PauliString("XYZ", -1j).dense(),
        lambda: PauliSum.from_terms([(0.5, PauliString("XYZ")), (2.0, PauliString("ZZI"))]).dense(),
        lambda: exp_pauli_rotation(0.3, PauliString("XYZ")),
    ], ids=["string", "sum", "rotation"])
    def test_mutating_a_result_leaves_the_next_one(self, build):
        expected = build()
        build()[:] = 7
        assert np.array_equal(build(), expected)

    def test_more_patterns_than_the_bound_still_densify(self):
        # every 5-letter pattern, twice: the second pass rebuilds evicted entries
        patterns = ["".join(p) for p in itertools.product("IXYZ", repeat=5)]
        assert len(patterns) > pauli._pattern.cache_info().maxsize
        for _ in range(2):
            for letters in patterns:
                assert np.array_equal(PauliString(letters, 1j).dense(), 1j * kron_chain(letters))

    def test_more_products_than_the_bound_still_multiply(self):
        strings = [PauliString("".join(p), 1j) for p in itertools.product("IXYZ", repeat=3)]
        pairs = list(itertools.product(strings, repeat=2))[::7]
        assert len(pairs) > pauli._letter_product.cache_info().maxsize
        for _ in range(2):
            for a, b in pairs:
                ab, ba = a.dense() @ b.dense(), b.dense() @ a.dense()
                assert np.array_equal((a * b).dense(), ab)
                assert a.commutes_with(b) == np.array_equal(ab, ba)


@pytest.mark.parametrize("theta", [math.nan, math.inf, "abc", True, [0.1, math.nan],
                                   np.array([0.1, -math.inf]), [0.2, "abc"], [True]],
                         ids=["nan", "inf", "str", "True", "list-nan", "array-inf", "list-str",
                              "list-True"])
@pytest.mark.parametrize("check", [
    lambda theta: verify_plaquette_evolution(1.0, theta),
    verify_fourier_identity,
    build_diagonalization_circuit,
], ids=["evolution", "fourier", "circuit"])
def test_bad_theta_fails_as_one_named_line(check, theta):
    # before any numpy warning: a warning here is an error
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="^theta="):
            check(theta)


class TestOperatorMap:
    def test_vertices(self):
        mapping = plaquette_operator_map()
        for j in range(1, 5):
            expected = "".join("Z" if i == j else "I" for i in range(1, 6))
            assert mapping[f"V{j}"] == PauliString(expected)

    def test_printed_diagonals(self):
        mapping = plaquette_operator_map()
        assert mapping["E31"] == PauliString("YIYIZ")   # Y1 Y3 Zaux
        assert mapping["E24"] == PauliString("IXIXZ")   # X2 X4 Zaux

    def test_diagonals_from_concatenation(self):
        mapping = plaquette_operator_map()
        i = PauliString("IIIII", 1j)
        e12 = -mapping["E21"]
        e23 = -mapping["E32"]
        e41 = -mapping["E14"]
        assert i * e12 * e23 == mapping["E31"]
        assert i * e41 * e12 == mapping["E24"]

    def test_loop_product_identity(self):
        mapping = plaquette_operator_map()
        e12, e23 = -mapping["E21"], -mapping["E32"]
        e34, e41 = -mapping["E43"], -mapping["E14"]
        assert e12 * e23 * e34 * e41 == PauliString("IIIII")

    def test_edges_weight_three(self):
        mapping = plaquette_operator_map()
        for name in ("E21", "E32", "E43", "E14", "E31", "E24"):
            assert mapping[name].weight == 3
            assert mapping[name].is_hermitian()

    def test_callers_cannot_change_the_module_map(self):
        # the map is a module constant; each caller gets its own copy to mutate
        mapping = plaquette_operator_map()
        mapping["E21"] = mapping["V1"]
        del mapping["E24"]
        mutated_map("E32", 4)
        assert plaquette_operator_map() != mapping
        assert all(check_majorana_relations().values())
        assert run_verification(3, 0)["passed"]


def reference_relations(mapping) -> dict:
    """``check_majorana_relations(mapping)`` as per-call loops: every label, pair and edge built afresh."""
    report = {}
    identity, i = PauliString("IIIII"), PauliString("IIIII", 1j)
    for name, op in mapping.items():
        report[f"{name} hermitian"] = op.is_hermitian()
        report[f"{name} self-inverse"] = (op * op) == identity
        report[f"{name} traceless"] = op.weight > 0
    names = sorted(mapping)
    for j, a in enumerate(names):
        for b in names[j + 1:]:
            share = not set(a[1:]).isdisjoint(b[1:])
            label = "anticommute" if share else "commute"
            report[f"{{{a},{b}}}={label}"] = mapping[a].commutes_with(mapping[b]) != share
    edges = {(2, 1): mapping["E21"], (3, 2): mapping["E32"], (4, 3): mapping["E43"],
             (1, 4): mapping["E14"], (1, 3): mapping["E31"], (4, 2): mapping["E24"]}
    edges.update({(k, j): -e for (j, k), e in edges.items()})
    report["E31 concatenation"] = (i * edges[(1, 2)] * edges[(2, 3)]) == mapping["E31"]
    report["E24 concatenation"] = (i * edges[(4, 1)] * edges[(1, 2)]) == mapping["E24"]
    report["diagonal chains agree"] = (i * edges[(4, 3)] * edges[(3, 2)]) == mapping["E24"]
    loop = edges[(1, 2)] * edges[(2, 3)] * edges[(3, 4)] * edges[(4, 1)]
    report["loop product = +I"] = loop == identity
    return report


MAP_NAMES = list(plaquette_operator_map())


class TestMajoranaRelations:
    @pytest.mark.parametrize("mapping", [
        None,
        plaquette_operator_map(),
        dict(reversed(plaquette_operator_map().items())),
        *[mutated_map(target, qubit) for target in MAP_NAMES for qubit in range(5)],
    ], ids=["bundled", "copy", "reversed", *[f"{t}-q{q}" for t in MAP_NAMES for q in range(5)]])
    def test_relation_table_equals_the_per_call_loops(self, mapping):
        expected = reference_relations(plaquette_operator_map() if mapping is None else mapping)
        assert list(check_majorana_relations(mapping).items()) == list(expected.items())

    def test_all_relations_hold(self):
        report = check_majorana_relations()
        failed = [k for k, ok in report.items() if not ok]
        assert failed == []

    def test_share_vertex_anticommutes(self):
        mapping = plaquette_operator_map()
        assert not mapping["E21"].commutes_with(mapping["V2"])
        assert not mapping["E21"].commutes_with(mapping["V1"])
        assert mapping["V1"].commutes_with(mapping["V3"])
        assert mapping["E21"].commutes_with(mapping["E43"])  # disjoint edges
        assert mapping["E31"].commutes_with(mapping["E24"])  # disjoint diagonals

    @pytest.mark.parametrize("target,qubit", [("E21", 0), ("E32", 4), ("V2", 1)])
    def test_mutation_breaks_a_relation(self, target, qubit):
        report = check_majorana_relations(mutated_map(target, qubit))
        assert any(not ok for ok in report.values())

    @pytest.mark.parametrize("mapping", [
        {},
        {name: op for name, op in plaquette_operator_map().items() if name != "E24"},
        {**plaquette_operator_map(), "V1": "ZIIII"},
        {**plaquette_operator_map(), "V1": PauliString("ZII")},
        {**plaquette_operator_map(), "V5": PauliString("IIIIZ")},
        list(plaquette_operator_map().items()),
    ], ids=["empty", "without-E24", "str-operator", "three-qubit-operator", "extra-name", "list"])
    def test_incomplete_or_malformed_map_rejected(self, mapping):
        # an empty map is not the bundled one
        with pytest.raises(InvalidParameterError, match="^mapping="):
            check_majorana_relations(mapping)


class TestPlaquetteHamiltonian:
    def test_structure(self):
        h = build_plaquette_hamiltonian(1.0)
        assert len(h.terms) == 8
        assert all(c.imag == 0 for c, _ in h.terms)
        assert all(s.weight == 3 for _, s in h.terms)
        assert all(abs(c) == pytest.approx(0.5) for c, _ in h.terms)
        dense = h.dense()
        assert abs(np.trace(dense)) < 1e-12
        assert np.allclose(dense, dense.conj().T)

    def test_zero_coupling_empty(self):
        assert build_plaquette_hamiltonian(0.0).terms == ()

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_coupling_rejected(self, t):
        with pytest.raises(InvalidParameterError, match="^t_coupling="):
            build_plaquette_hamiltonian(t)

    def test_scales_linearly(self):
        h1 = build_plaquette_hamiltonian(1.0).dense()
        h2 = build_plaquette_hamiltonian(2.0).dense()
        assert np.allclose(h2, 2 * h1)


class TestRotations:
    def test_identity_at_zero(self):
        assert np.allclose(exp_pauli_rotation(0.0, PauliString("ZIIII")), np.eye(32))

    def test_quarter_turn(self):
        u = exp_pauli_rotation(math.pi / 2, PauliString("Z"))
        assert np.allclose(u, -1j * np.diag([1, -1]))

    def test_unitary(self):
        u = exp_pauli_rotation(math.pi / 8, PauliString("YIYIZ"))
        assert unitarity_defect(u) < 1e-14

    @given(t1=st.floats(-3.0, 3.0), t2=st.floats(-3.0, 3.0))
    @settings(max_examples=30)
    def test_additive_angles(self, t1, t2):
        p = PauliString("XIYIZ")
        combined = exp_pauli_rotation(t1, p) @ exp_pauli_rotation(t2, p)
        assert np.linalg.norm(combined - exp_pauli_rotation(t1 + t2, p)) < 1e-12


class TestDiagonalizationCircuit:
    def test_zero_angle_is_identity(self):
        assert np.linalg.norm(build_diagonalization_circuit(0.0) - np.eye(32)) < 1e-12

    def test_clifford_relations(self):
        devs = check_clifford_relations()
        assert all(v <= 1e-12 for v in devs.values()), devs

    def test_unitarity(self):
        assert unitarity_defect(build_diagonalization_circuit(0.81)) < 1e-12


class TestEvolutionIdentity:
    def test_zero_angle(self):
        assert verify_plaquette_evolution(1.0, 0.0) < 1e-13

    def test_single_angle(self):
        assert verify_plaquette_evolution(1.0, 0.37) <= 1e-10

    def test_twenty_random_angles(self):
        rng = np.random.default_rng(5)
        devs = [verify_plaquette_evolution(1.0, float(t))
                for t in rng.uniform(0.0, math.pi, 20)]
        assert max(devs) <= 1e-10

    def test_other_couplings(self):
        # theta = t*T/(2r) absorbs the coupling, so any t verifies
        assert verify_plaquette_evolution(2.5, 1.1) <= 1e-10

    @pytest.mark.parametrize("t", [0.0, math.nan, math.inf])
    def test_zero_or_non_finite_coupling_rejected(self, t):
        with pytest.raises(InvalidParameterError, match="^t_coupling="):
            verify_plaquette_evolution(t, 0.3)

    def test_fourier_identity(self):
        assert verify_fourier_identity(0.0) < 1e-13
        assert verify_fourier_identity(math.pi / 4) <= 1e-10
        assert verify_fourier_identity(1.234) <= 1e-10

    def test_run_verification_passes(self):
        report = run_verification(n_angles=5, seed=1)
        assert report["passed"]

    def test_many_angles_match_single_angle_calls(self):
        angles = [0.0, 0.37, 1.1, 2.9, math.pi]
        evolution = verify_plaquette_evolution(1.0, angles)
        fourier = verify_fourier_identity(np.array(angles))
        assert len(evolution) == len(fourier) == len(angles)
        for a, evo, fou in zip(angles, evolution, fourier):
            assert abs(evo - verify_plaquette_evolution(1.0, a)) <= 1e-13
            assert abs(fou - verify_fourier_identity(a)) <= 1e-13
        assert verify_plaquette_evolution(1.0, []) == []

    def test_many_angles_keep_their_order(self, monkeypatch):
        # with the circuit halves and F23 replaced by the identity, the
        # deviations differ from angle to angle, so a mixed-up order shows
        eye = np.eye(32)
        circuit = (eye, eye)
        monkeypatch.setattr(plaquette, "fourier_transform", lambda j, k: eye)
        angles = [0.2, 0.9, 1.7, 2.6]
        for many, single in (
            (verify_plaquette_evolution(1.0, angles, circuit=circuit),
             lambda a: verify_plaquette_evolution(1.0, a, circuit=circuit)),
            (verify_fourier_identity(angles), verify_fourier_identity),
        ):
            assert len({round(d, 6) for d in many}) == len(angles)
            assert many == pytest.approx([single(a) for a in angles], abs=1e-13)

    @pytest.mark.parametrize("n_angles", [1, 20])
    def test_run_verification_builds_each_operator_once(self, monkeypatch, n_angles):
        calls = Counter()

        def counted(name):
            inner = getattr(plaquette, name)

            def wrapper(*args):
                # a transform counts per (j, k) pair, every other builder by name
                calls[(name, *args[:2]) if name == "fourier_transform" else name] += 1
                return inner(*args)
            return wrapper

        for name in ("plaquette_operator_map", "diagonalizing_clifford_dagger", "fourier_transform"):
            monkeypatch.setattr(plaquette, name, counted(name))
        assert run_verification(n_angles=n_angles, seed=2)["passed"]
        # the operator map, C†, F31, F24 and the circuit halves are module
        # constants, so a run builds only F23
        assert calls == {("fourier_transform", 2, 3): 1}

    def test_module_circuit_is_a_fresh_build(self):
        # the same operations in the same order, so the same bits
        cd = diagonalizing_clifford_dagger()
        f31, f24 = fourier_transform(3, 1), fourier_transform(2, 4)
        assert np.array_equal(plaquette._CD, cd)
        forward, inverse = plaquette._CIRCUIT
        assert np.array_equal(forward, f31 @ f24 @ cd.conj().T)
        assert np.array_equal(inverse, cd @ f24.conj().T @ f31.conj().T)

    @pytest.mark.parametrize("seed", [0, 7, 31])
    def test_run_verification_equals_fresh_checks(self, seed):
        report = run_verification(n_angles=9, seed=seed)
        angles, fourier_angles = list(report["evolution"]), list(report["fourier"])
        assert report["evolution"] == dict(zip(angles, verify_plaquette_evolution(1.0, angles)))
        assert report["fourier"] == dict(zip(fourier_angles,
                                             verify_fourier_identity(fourier_angles)))

    @pytest.mark.parametrize("n_angles", [1, 7])
    def test_run_verification_report_shapes(self, n_angles):
        report = run_verification(n_angles=n_angles, seed=4)
        assert report["passed"] is True
        assert len(report["evolution"]) == n_angles
        assert len(report["fourier"]) == min(n_angles, 3)
        assert list(report["fourier"]) == list(report["evolution"])[: len(report["fourier"])]
        assert all(isinstance(a, float) and isinstance(d, float)
                   for part in ("evolution", "fourier") for a, d in report[part].items())

    @pytest.mark.parametrize("kwargs,name", [
        ({"n_angles": 0}, "n_angles"),
        ({"n_angles": 2.0}, "n_angles"),
        ({"n_angles": True}, "n_angles"),
        ({"tolerance": 0.0}, "tolerance"),
        ({"tolerance": math.inf}, "tolerance"),
        ({"seed": -1}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": 1.5}, "seed"),
    ])
    def test_run_verification_rejects_bad_input(self, kwargs, name):
        with pytest.raises(InvalidParameterError, match=f"^{name}="):
            run_verification(**kwargs)


#: The circuit halves and F23, shared by the tests that compare checks at many angles.
_CIRCUIT = plaquette._CIRCUIT
_F23 = fourier_transform(2, 3)


#: Diagonals of Z2 + Z3 and n2 - n3 = (Z3 - Z2)/2, and the hopping axis, built here from Pauli strings.
_Z2_PLUS_Z3 = np.diag(PauliString("IZIII").dense() + PauliString("IIZII").dense()).real
_N2_MINUS_N3 = np.diag(PauliString("IIZII").dense() - PauliString("IZIII").dense()).real / 2
_AXIS = (PauliString("IXXIX").dense() + PauliString("IYYIX").dense()) / 2
#: Lists that cross several chunks of angles, with the angles where a sum's
#: phases are all 1 or all +-1, and one next to 0.
angle_lists = st.lists(st.one_of(st.floats(0.0, math.pi), st.sampled_from([0.0, math.pi, 1e-9])),
                       min_size=1, max_size=3 * plaquette._CHUNK + 5)
couplings = st.tuples(st.floats(0.1, 10.0), st.sampled_from([1, -1])).map(lambda p: p[0] * p[1])


def _random_unitary(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)))
    return q * (np.diag(r) / abs(np.diag(r)))


def _halves(kind: str, phi: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The circuit halves: the real ones, times a global phase, without F24, or random unitaries."""
    if kind == "real":
        return _CIRCUIT
    if kind == "phase":
        return np.exp(1j * phi) * _CIRCUIT[0], _CIRCUIT[1]
    if kind == "without F24":
        cd = diagonalizing_clifford_dagger()
        f31 = fourier_transform(3, 1)
        return f31 @ cd.conj().T, cd @ f31.conj().T
    return _random_unitary(seed), _random_unitary(seed + 1)


def _direct_evolution(t: float, a: float, circuit: tuple[np.ndarray, np.ndarray]) -> float:
    """min over unit phases lam of ||exp(-i a/t H) - lam U(a)||_F, with both sides dense."""
    exact = expm_hermitian((a / t) * build_plaquette_hamiltonian(t).dense())
    forward, inverse = circuit
    u = (forward * np.exp(1j * a * _Z2_PLUS_Z3)) @ inverse
    trace = np.vdot(u, exact)
    lam = trace / abs(trace) if abs(trace) > 1e-12 else 1.0
    return float(np.linalg.norm(exact - lam * u))


def _direct_fourier(a: float, f23: np.ndarray) -> float:
    """||F23 e^{i a (n2 - n3)} F23† - e^{i a A}||_F, with both sides dense."""
    left = (f23 * np.exp(1j * a * _N2_MINUS_N3)) @ f23.conj().T
    return float(np.linalg.norm(left - expm_hermitian(-a * _AXIS)))


def _assert_close(fast: list[float], direct: list[float]) -> None:
    # the spectral sums round differently from the dense products
    assert len(fast) == len(direct)
    for f, d in zip(fast, direct):
        assert abs(f - d) <= 1e-13 + 1e-8 * d, (f, d)


class TestBatchedChecks:
    """A check over many angles gives, to rounding, the direct dense comparison at each angle."""

    @given(angles=angle_lists, t=couplings, phi=st.floats(-math.pi, math.pi),
           seed=st.integers(0, 2**32 - 2), kind=st.sampled_from(["real", "phase", "without F24", "random"]))
    @settings(max_examples=80, deadline=None)
    def test_evolution_equals_the_direct_check(self, angles, t, phi, seed, kind):
        circuit = _halves(kind, phi, seed)
        direct = [_direct_evolution(t, a, circuit) for a in angles]
        _assert_close(verify_plaquette_evolution(t, angles, circuit), direct)
        _assert_close([verify_plaquette_evolution(t, angles[-1], circuit)], direct[-1:])

    @given(angles=angle_lists, phi=st.floats(-math.pi, math.pi), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["real", "phase", "random"]))
    @settings(max_examples=60, deadline=None)
    def test_fourier_equals_the_direct_check(self, angles, phi, seed, kind):
        f23 = {"real": _F23, "phase": np.exp(1j * phi) * _F23, "random": _random_unitary(seed)}[kind]
        direct = [_direct_fourier(a, f23) for a in angles]
        with mock.patch.object(plaquette, "fourier_transform", lambda j, k: f23):
            _assert_close(verify_fourier_identity(angles), direct)
            _assert_close([verify_fourier_identity(angles[-1])], direct[-1:])

    @given(angle=st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, math.pi, 1e-9])))
    @settings(max_examples=30, deadline=None)
    def test_circuit_at_an_angle_is_the_product_of_its_halves(self, angle):
        forward, inverse = _CIRCUIT
        assert np.array_equal(build_diagonalization_circuit(angle),
                              (forward * np.exp(1j * angle * _Z2_PLUS_Z3)) @ inverse)

    @given(theta=st.floats(0.01, math.pi - 0.01), t=st.sampled_from([-2.5, 0.1, 1.0, 10.0]))
    @settings(max_examples=40, deadline=None)
    def test_circuit_without_f24_fails(self, theta, t):
        # both sides repeat with period pi in theta, so at 0 and pi this circuit passes too
        assert verify_plaquette_evolution(t, theta, _halves("without F24", 0.0, 0)) > 1e-6

    @pytest.mark.parametrize("check", [
        lambda angles: verify_plaquette_evolution(1.0, angles, _CIRCUIT),
        verify_fourier_identity,
    ], ids=["evolution", "fourier"])
    def test_memory_does_not_grow_with_the_angle_count(self, check):
        angles = np.linspace(0.0, math.pi, 20_000).tolist()
        check(angles[:10])  # first-call allocations
        tracemalloc.start()
        try:
            devs = check(angles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sys.getsizeof(devs) + sum(sys.getsizeof(d) for d in devs)
        assert len(devs) == len(angles)
        assert peak - returned <= 2**20


class TestSpectralFacts:
    """The facts the checks' three-term spectral sums rest on."""

    def test_hopping_axis_has_the_spectrum_minus_one_zero_one(self):
        a = plaquette._HOPPING_AXIS
        assert np.array_equal(a @ a @ a, a)

    def test_hopping_projectors_resolve_the_axis(self):
        # idempotent, summing to I, and each on the eigenvalue -1, 0, 1 it is weighted by
        projectors = plaquette._HOPPING_PROJECTORS
        for p in projectors:
            assert np.array_equal(p @ p, p)
        assert np.array_equal(projectors.sum(axis=0), np.eye(32))
        assert np.array_equal(np.tensordot(plaquette._N2_MINUS_N3_VALUES, projectors, 1), _AXIS)

    @pytest.mark.parametrize("diagonal, values", [
        (plaquette._Z2_PLUS_Z3, plaquette._Z2_PLUS_Z3_VALUES),
        (plaquette._N2_MINUS_N3, plaquette._N2_MINUS_N3_VALUES),
    ], ids=["Z2+Z3", "n2-n3"])
    def test_diagonal_takes_only_the_summed_values(self, diagonal, values):
        # a value left out would drop its columns from the spectral sums
        assert set(np.unique(diagonal)) <= set(values)

    def test_t_states_count_the_non_clifford_rotations(self):
        # F31 F24 and its inverse each hold the rotations of both transforms;
        # a rotation by a multiple of pi/4 is Clifford, any other takes a T state
        quarters = [4 * theta / math.pi for pair in ((3, 1), (2, 4))
                    for theta, _ in plaquette._FOURIER_ROTATIONS[pair]]
        non_clifford = sum(not math.isclose(q, round(q)) for q in quarters)
        assert 2 * non_clifford == trotter.PLAQ_DIAG_T_STATES


class TestDenseHelpers:
    def test_expm_hermitian_vs_rotation(self):
        p = PauliString("XIYIZ")
        assert np.linalg.norm(
            expm_hermitian(0.77 * p.dense()) - exp_pauli_rotation(0.77, p)) < 1e-12

    def test_phase_quotient(self):
        u = exp_pauli_rotation(0.3, PauliString("ZIIII"))
        assert phase_quotient_distance(u, np.exp(1j * 1.1) * u) < 1e-12

    def test_pauli_sum_canonicalizes(self):
        p = PauliString("XIIII")
        s = PauliSum.from_terms([(1.0, p), (1.0, PauliString("XIIII", -1))])
        assert s.terms == ()
