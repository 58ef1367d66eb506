import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftcost import plaquette
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
    DiagonalizationCircuit,
    build_diagonalization_circuit,
    build_plaquette_hamiltonian,
    check_clifford_relations,
    check_majorana_relations,
    mutated_map,
    plaquette_operator_map,
    run_verification,
    verify_fourier_identity,
    verify_plaquette_evolution,
)

strings5 = st.text(alphabet="IXYZ", min_size=5, max_size=5)
strings1to6 = st.text(alphabet="IXYZ", min_size=1, max_size=6)
phases = st.sampled_from([1, -1, 1j, -1j])


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
        assert (pa_ * pb_).dagger() == pb_.dagger() * pa_.dagger()

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
        single = {
            "I": np.eye(2, dtype=complex),
            "X": np.array([[0, 1], [1, 0]], dtype=complex),
            "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
            "Z": np.array([[1, 0], [0, -1]], dtype=complex),
        }
        expected = np.array([[1.0 + 0j]])
        for c in letters:
            expected = np.kron(expected, single[c])
        assert np.array_equal(PauliString(letters, phase).dense(), phase * expected)

    def test_dense_matches_phase(self):
        s = PauliString("XZ", -1j)
        expected = -1j * np.kron(np.array([[0, 1], [1, 0]]), np.diag([1, -1]))
        assert np.allclose(s.dense(), expected)


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


class TestMajoranaRelations:
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


class TestPlaquetteHamiltonian:
    def test_structure(self):
        h = build_plaquette_hamiltonian(1.0)
        assert len(h) == 8
        assert h.is_hermitian()
        assert all(s.weight == 3 for _, s in h.terms)
        assert all(abs(c) == pytest.approx(0.5) for c, _ in h.terms)
        dense = h.dense()
        assert abs(np.trace(dense)) < 1e-12
        assert np.allclose(dense, dense.conj().T)

    def test_zero_coupling_empty(self):
        assert len(build_plaquette_hamiltonian(0.0)) == 0

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
        circuit = DiagonalizationCircuit(eye, eye)
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

        for name in ("plaquette_operator_map", "diagonalizing_clifford_dagger",
                     "_circuit", "fourier_transform"):
            monkeypatch.setattr(plaquette, name, counted(name))
        assert run_verification(n_angles=n_angles, seed=2)["passed"]
        # the operator map is a module constant, so a run builds none
        assert calls == {"diagonalizing_clifford_dagger": 1, "_circuit": 1, ("fourier_transform", 3, 1): 1,
                         ("fourier_transform", 2, 4): 1, ("fourier_transform", 2, 3): 1}

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
        assert len(s) == 0
