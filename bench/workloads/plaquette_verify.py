"""``plaquette-verify``: one op is one ``plaquette.run_verification(n_angles, seed)``."""

import random
from types import SimpleNamespace

from ftcost import pauli, plaquette


class PlaquetteVerify:
    """One op is one ``plaquette.run_verification(n_angles, seed)``."""

    name = "plaquette-verify"
    n_angles = 20
    tolerance = 1e-10
    patches = (
        (plaquette, "check_majorana_relations", "plaquette.relations"),
        (plaquette, "check_clifford_relations", "plaquette.clifford"),
        (plaquette, "build_plaquette_hamiltonian", "plaquette.hamiltonian"),
        (plaquette, "build_diagonalization_circuit", "plaquette.circuit"),
        (plaquette, "verify_plaquette_evolution", "plaquette.evolution"),
        (plaquette, "verify_fourier_identity", "plaquette.fourier"),
        (plaquette, "exp_pauli_rotation", "pauli.exp_pauli_rotation"),
        (plaquette, "expm_hermitian", "pauli.expm_hermitian"),
        (plaquette, "phase_quotient_distance", "pauli.phase_quotient_distance"),
        (pauli.PauliSum, "dense", "pauli.pauli_sum_dense"),
    )

    def rounds(self, seed):
        rng = random.Random(seed)
        while True:
            yield [rng.randrange(2**32)]

    @staticmethod
    def api(wrap):
        return SimpleNamespace(
            run_verification=wrap("plaquette.run_verification", plaquette.run_verification),
        )

    def execute(self, api, seed):
        return api.run_verification(self.n_angles, seed, self.tolerance)

    def load_reference(self):
        pass

    def check(self, seed, report) -> bool:
        """Passed, every relation true, every angle checked within tolerance."""
        return (
            report["passed"] is True
            and all(report["relations"].values())
            and len(report["evolution"]) == self.n_angles
            and max(report["evolution"].values()) <= self.tolerance
            and max(report["fourier"].values()) <= self.tolerance
        )

    def work(self, seed) -> float:
        return float(self.n_angles)

    def layer_counts(self, tally) -> dict:
        return {}


WORKLOAD = PlaquetteVerify
