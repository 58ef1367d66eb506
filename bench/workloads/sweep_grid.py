"""``sweep-grid``: one op is one grid point through ``cmd_sweep``'s per-point path."""

import itertools
import math
import random
from types import SimpleNamespace

from ftcost import config, pipeline
from ftcost.errors import NoDistanceFoundError

from . import DATA

REFERENCE = DATA / "sweep_reference.json"
#: Relative tolerance for float report values against the reference.
REL_TOL = 1e-12


class SweepGrid:
    """One op is one grid point through ``cmd_sweep``'s per-point path."""

    name = "sweep-grid"
    patches = (
        (config, "load_error_data", "surgery.load_error_data"),
        (config, "load_msf_table", "surgery.load_msf_table"),
        (config, "fit_error_curve", "surgery.fit_error_curve"),
        (config, "derive_noise_params", "noise.closed_form"),
        (pipeline, "trotter_steps", "trotter.trotter_steps"),
        (pipeline, "trotter_step_cost", "trotter.step_cost"),
        (pipeline, "fallback_plan", "synthesis.plan"),
        (pipeline, "direct_plan", "synthesis.plan"),
        (pipeline, "synthesis_cost", "synthesis.cost"),
        (pipeline, "select_distance", "surgery.select_distance"),
        (pipeline, "msf_sizing", "pipeline.msf_sizing"),
        (pipeline, "floorplan", "pipeline.floorplan"),
        (pipeline.EstimateReport, "key_values", "pipeline.key_values"),
    )

    def __init__(self):
        self.pool = make_pool()
        self.reference = None

    def rounds(self, seed):
        rng = random.Random(seed)
        while True:
            yield [rng.randrange(len(self.pool))]

    @staticmethod
    def api(wrap):
        return SimpleNamespace(
            load_config=wrap("config.load_config", config.load_config),
            problem_from=wrap("config.builders", config.problem_from),
            noise_from=wrap("config.builders", config.noise_from),
            budget_from=wrap("config.builders", config.budget_from),
            options_from=wrap("config.options_from", config.options_from),
            solve_estimate=wrap("pipeline.solve_estimate", pipeline.solve_estimate),
        )

    def execute(self, api, index):
        """The report's key values, or the exception the point raised."""
        point = self.pool[index]
        try:
            cfg = api.load_config(None, point["overrides"])
            report = api.solve_estimate(
                api.problem_from(cfg), api.noise_from(cfg),
                api.budget_from(cfg), api.options_from(cfg, point["precision"]),
            )
            return report.key_values()
        except Exception as exc:  # the reference says which errors are expected
            return exc

    def load_reference(self):
        import json

        with open(REFERENCE) as f:
            ref = json.load(f)
        if [e["point"] for e in ref["points"]] != self.pool:
            raise RuntimeError(f"{REFERENCE} does not match the sweep pool")
        self.reference = ref["points"]

    def check(self, index, outcome) -> bool:
        return matches(outcome, self.reference[index])

    def work(self, index) -> float:
        return 1.0

    def layer_counts(self, tally) -> dict:
        """Exact solver counts over one pass of the whole pool, checked as it goes."""
        from tracing import Tracer

        tracer = Tracer()
        api = self.api(tracer.wrap)
        iterations = infeasible = 0
        with tracer.patched(self.patches):
            for index in range(len(self.pool)):
                outcome = self.execute(api, index)
                tally.record(index, outcome, 0.0)
                if isinstance(outcome, NoDistanceFoundError):
                    infeasible += 1
                elif isinstance(outcome, dict):
                    iterations += outcome.get("iterations", 0)
        evals = sum(1 for span in tracer.spans if span[3] == "surgery.select_distance")
        return {
            "pipeline.iterations": iterations,
            "pipeline.infeasible": infeasible,
            "pipeline.evals_per_estimate": evals / len(self.pool),
        }


def make_pool() -> list[dict]:
    """The 960 grid points, each as ``--set`` overrides plus a precision."""
    pool = []
    for lat, total, strategy, precision, p_succ, u in itertools.product(
        (2, 4, 6, 8, 10, 12),
        (0.001, 0.003, 0.01, 0.03, 0.1),
        ("diagonal", "mixed_diagonal", "fallback", "mixed_fallback"),
        ("headline", "real"),
        (0.9, 0.99),
        (4, 8),
    ):
        pool.append({
            "overrides": [f"problem.L={lat}", f"budget.total={total}",
                          f"synthesis.strategy={strategy}",
                          f"synthesis.p_succ={p_succ}", f"problem.u_over_t={u}"],
            "precision": precision,
        })
    return pool


def reference_entry(outcome) -> dict:
    """Reference form of an outcome: key values without ``iterations``, or the error."""
    if isinstance(outcome, Exception):
        return {"error": type(outcome).__name__}
    return {"key_values": {k: v for k, v in outcome.items() if k != "iterations"}}


def matches(outcome, ref: dict) -> bool:
    """Ints and strings equal, floats within ``REL_TOL``, the same error class."""
    got = reference_entry(outcome)
    if "error" in ref or "error" in got:
        return got.get("error") == ref.get("error")
    got, want = got["key_values"], ref["key_values"]
    if got.keys() != want.keys():
        return False
    for key, w in want.items():
        g = got[key]
        if isinstance(w, float):
            if not (isinstance(g, float) and math.isclose(g, w, rel_tol=REL_TOL, abs_tol=0.0)):
                return False
        elif type(g) is not type(w) or g != w:
            return False
    return True


WORKLOAD = SweepGrid
