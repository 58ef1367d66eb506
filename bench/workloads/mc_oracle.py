"""``mc-oracle``: one op is one ``verify-noise`` check, closed forms and MC for cz and mzz."""

import math
import random
from types import SimpleNamespace

from ftcost import noise

from . import DATA

REFERENCE = DATA / "mc_reference.json"


class McOracle:
    """One op is one ``verify-noise`` check: closed forms and MC for cz and mzz."""

    name = "mc-oracle"
    settings = ((0.01, 10), (0.05, 10), (0.01, 30))
    #: The MC seeds an op may use; the reference holds counts for each.
    mc_seeds = tuple(range(1, 9))
    trials = 1_000_000
    kinds = ("cz", "mzz")
    sigma_gate = 5.0
    patches = ()

    def __init__(self):
        self.reference = None
        self.worst_sigma = 0.0

    def rounds(self, seed):
        # The seed picks MC seeds only: a fixed order of settings keeps the
        # sequence of array sizes, and so the allocator's behaviour, the same.
        rng = random.Random(seed)
        while True:
            yield [(p, n_rus, rng.choice(self.mc_seeds)) for p, n_rus in self.settings]

    @staticmethod
    def api(wrap):
        def kind_and_width(cycle, caps, trials, seed, kind):
            return f"{kind}.n{caps.n_rus}"

        return SimpleNamespace(
            derive_noise_params=wrap("noise.closed_form", noise.derive_noise_params),
            cycle_outcome_distribution=wrap("noise.closed_form", noise.cycle_outcome_distribution),
            cz=wrap("noise.closed_form", noise.heralded_cz_distribution),
            mzz=wrap("noise.closed_form", noise.heralded_mzz_distribution),
            mc_rus_oracle=wrap("noise.mc_rus_oracle", noise.mc_rus_oracle, tag=kind_and_width),
        )

    def execute(self, api, op):
        """``{kind: (closed form, empirical)}`` at one (p, n_rus, seed)."""
        p, n_rus, seed = op
        params = api.derive_noise_params(p)
        caps = noise.AttemptCaps(n_rus=n_rus)
        cycle = api.cycle_outcome_distribution(params.epsilon, params.distinguishability)
        return {
            kind: (getattr(api, kind)(params, caps),
                   api.mc_rus_oracle(cycle, caps, self.trials, seed, kind=kind))
            for kind in self.kinds
        }

    def load_reference(self):
        import json

        with open(REFERENCE) as f:
            ref = json.load(f)
        if ref["trials"] != self.trials:
            raise RuntimeError(f"{REFERENCE} holds counts for {ref['trials']} trials")
        self.reference = {(e["p"], e["n_rus"], e["seed"]): e["counts"] for e in ref["entries"]}

    def check(self, op, outcome) -> bool:
        """Counts bit-identical to the reference and every category within 5 sigma."""
        if outcome_counts(outcome) != self.reference[op]:
            return False
        sigma = gate_sigma(outcome)
        self.worst_sigma = max(self.worst_sigma, sigma)
        return sigma <= self.sigma_gate

    def work(self, op) -> float:
        return len(self.kinds) * self.trials / 1e6

    def layer_counts(self, tally) -> dict:
        widths = [n_rus for _, n_rus in self.settings]
        return {
            "noise.gate_max_sigma": self.worst_sigma,
            # float64 uniforms drawn per op, averaged over one round of settings
            "noise.mc_bytes_drawn": len(self.kinds) * self.trials * 8 * sum(widths) / len(widths),
        }


def outcome_counts(outcome) -> dict:
    """Per-kind, per-category counts of an MC op's empirical distributions."""
    return {
        kind: {o.label: round(o.probability * empirical.trials) for o in empirical.outcomes}
        for kind, (_, empirical) in outcome.items()
    }


def gate_sigma(outcome) -> float:
    """Largest deviation, in binomial sigmas, of MC from closed form (as ``verify-noise``)."""
    worst = 0.0
    for closed, empirical in outcome.values():
        for o in closed.outcomes:
            p, emp = o.probability, empirical.probability(o.label)
            sigma = noise.binomial_sigma(p, empirical.trials)
            dev = abs(emp - p) / sigma if sigma > 0 else (0.0 if emp == p else math.inf)
            worst = max(worst, dev)
    return worst


WORKLOAD = McOracle
