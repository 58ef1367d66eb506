"""Write the reference outputs the benchmark checks against.

    python3 bench/make_reference.py

Runs every sweep-grid pool point and every mc-oracle (setting, MC seed) pair
once with the ftcost under ``src/`` and rewrites ``bench/data/``.  Regenerate
only when a change is meant to alter these outputs, and say so in the change.
"""

import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from provenance import THREAD_ENV, src_sha256  # noqa: E402

os.environ.update(THREAD_ENV)
from workloads import mc_oracle, plain, sweep_grid  # noqa: E402


def sweep_reference() -> dict:
    grid = sweep_grid.SweepGrid()
    api = grid.api(plain)
    points = []
    for index, point in enumerate(grid.pool):
        outcome = grid.execute(api, index)
        if isinstance(outcome, Exception) and type(outcome).__name__ != "NoDistanceFoundError":
            raise outcome
        points.append({"point": point, **sweep_grid.reference_entry(outcome)})
    return {"src_sha256": src_sha256(), "points": points}


def mc_reference() -> dict:
    oracle = mc_oracle.McOracle()
    api = oracle.api(plain)
    entries = []
    for p, n_rus in oracle.settings:
        for seed in oracle.mc_seeds:
            outcome = oracle.execute(api, (p, n_rus, seed))
            sigma = mc_oracle.gate_sigma(outcome)
            if sigma > oracle.sigma_gate:
                raise RuntimeError(f"p={p} n_rus={n_rus} seed={seed} fails the gate: {sigma:.2f} sigma")
            entries.append({"p": p, "n_rus": n_rus, "seed": seed,
                            "counts": mc_oracle.outcome_counts(outcome)})
    return {"src_sha256": src_sha256(), "trials": oracle.trials, "entries": entries}


def write(path: Path, data: dict, listed: str):
    """JSON with one entry of ``data[listed]`` per line, so diffs stay readable."""
    head = json.dumps({k: v for k, v in data.items() if k != listed})
    entries = ",\n".join(json.dumps(e, separators=(",", ":"), allow_nan=False)
                         for e in data[listed])
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(f'{head[:-1]}, "{listed}": [\n{entries}\n]}}\n')
    os.replace(tmp, path)
    print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    write(sweep_grid.REFERENCE, sweep_reference(), "points")
    write(mc_oracle.REFERENCE, mc_reference(), "entries")
