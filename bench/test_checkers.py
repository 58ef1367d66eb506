"""Self-test of the benchmark's checkers: each injected fault counts as failed.

    python3 -m pytest bench

Faults go through ``measure.measure``, the loop the benchmark times, so a
fault that passes here would be missing from a run's ``failed`` count.
"""

import dataclasses

import pytest
from ftcost.errors import NoDistanceFoundError
from ftcost.noise import HeraldedOutcome, HeraldedOutcomeDistribution

import measure
import tracing
from workloads import mc_oracle, plain, plaquette_verify, sweep_grid


def run_once(workload, inputs, fault=lambda outcome: outcome):
    """Run each input once, passing its outcome through ``fault`` before the check."""
    workload.load_reference()
    api = workload.api(plain)
    return measure.measure(workload, [list(inputs)], 0.0, measure.Tally(workload),
                           execute=lambda inp: fault(workload.execute(api, inp)))


@pytest.fixture(scope="module")
def grid():
    return sweep_grid.SweepGrid()


def first_index(grid, infeasible: bool) -> int:
    grid.load_reference()
    return next(i for i, ref in enumerate(grid.reference) if ("error" in ref) == infeasible)


def scaled(key, factor):
    def fault(kv):
        return {**kv, key: kv[key] * factor}
    return fault


def raising(exc):
    return lambda outcome: exc


@pytest.mark.parametrize("fault, fails", [
    (lambda kv: kv, False),
    (scaled("p_l_target", 1 + 1e-13), False),
    (scaled("p_l_target", 1 + 1e-9), True),
    (scaled("runtime_seconds", -1.0), True),
    (lambda kv: {**kv, "trotter_steps": kv["trotter_steps"] + 1}, True),
    (lambda kv: {**kv, "trotter_steps": float(kv["trotter_steps"])}, True),
    (lambda kv: {k: v for k, v in kv.items() if k != "physical_qubits"}, True),
    (lambda kv: {**kv, "iterations": kv["iterations"] + 5}, False),
    (raising(NoDistanceFoundError("injected")), True),
])
def test_sweep_feasible_point(grid, fault, fails):
    tally = run_once(grid, [first_index(grid, infeasible=False)], fault)
    assert (tally.attempted, tally.failed) == (1, int(fails))


@pytest.mark.parametrize("fault, fails", [
    (lambda exc: exc, False),
    (raising(RuntimeError("injected")), True),
    (lambda exc: {"trotter_steps": 1}, True),
])
def test_sweep_infeasible_point(grid, fault, fails):
    index = first_index(grid, infeasible=True)
    assert grid.reference[index]["error"] == "NoDistanceFoundError"
    tally = run_once(grid, [index], fault)
    assert (tally.attempted, tally.failed) == (1, int(fails))


def move_one_trial(outcome, kind="cz"):
    """The outcome with one trial moved between the first two categories of ``kind``."""
    closed, empirical = outcome[kind]
    counts = [round(o.probability * empirical.trials) for o in empirical.outcomes]
    counts[0] -= 1
    counts[1] += 1
    moved = HeraldedOutcomeDistribution(
        tuple(HeraldedOutcome(o.label, c / empirical.trials, None)
              for o, c in zip(empirical.outcomes, counts)),
        trials=empirical.trials,
    )
    return {**outcome, kind: (closed, moved)}


@pytest.mark.parametrize("fault, fails", [
    (lambda outcome: outcome, False),
    (move_one_trial, True),
    (lambda outcome: move_one_trial(outcome, "mzz"), True),
])
def test_mc_counts_bit_identical(fault, fails):
    tally = run_once(mc_oracle.McOracle(), [(0.05, 10, 3)], fault)
    assert (tally.attempted, tally.failed) == (1, int(fails))


def test_mc_gate_rejects_a_shifted_closed_form():
    def shifted(outcome):
        closed, empirical = outcome["mzz"]
        first, second, *rest = closed.outcomes
        shift = 0.01
        closed = dataclasses.replace(closed, outcomes=(
            dataclasses.replace(first, probability=first.probability - shift),
            dataclasses.replace(second, probability=second.probability + shift),
            *rest))
        return {**outcome, "mzz": (closed, empirical)}

    oracle = mc_oracle.McOracle()
    tally = run_once(oracle, [(0.01, 10, 1)], shifted)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert oracle.worst_sigma > oracle.sigma_gate


def off_by(section, deviation):
    def fault(report):
        first = next(iter(report[section]))
        return {**report, section: {**report[section], first: deviation}}
    return fault


@pytest.mark.parametrize("fault, fails", [
    (lambda report: report, False),
    (off_by("evolution", 1e-10), False),
    (off_by("evolution", 1.1e-10), True),
    (off_by("fourier", 1.1e-10), True),
    (off_by("relations", False), True),
    (lambda report: {**report, "passed": False}, True),
    (lambda report: {**report, "evolution": dict(list(report["evolution"].items())[:-1])}, True),
])
def test_plaquette_tolerance(fault, fails):
    tally = run_once(plaquette_verify.PlaquetteVerify(), [7], fault)
    assert (tally.attempted, tally.failed) == (1, int(fails))


def test_a_missing_patch_target_fails_the_run():
    """A renamed layer function must stop a traced run, not read as a layer of 0 s."""
    tracer = tracing.Tracer()
    original = sweep_grid.pipeline.select_distance
    with pytest.raises(tracing.MissingTarget, match="no_such_function"):
        with tracer.patched([(sweep_grid.pipeline, "select_distance", "surgery.select_distance"),
                             (sweep_grid.pipeline, "no_such_function", "pipeline.gone")]):
            pass
    assert sweep_grid.pipeline.select_distance is original
