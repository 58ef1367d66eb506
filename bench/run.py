"""The ftcost benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload sweep-grid --seed 1 --seconds 30 --trace 0

It uses the ``src/`` beside this directory and installs nothing.  The ops
run in fresh single-threaded worker processes (worker.py), and set-up time
is taken over several more.  ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` its per-layer metrics.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Each run also leaves its result, with provenance, and any spans in
``.bench_out/``.  See README.md in this directory.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from provenance import PACKAGE, ROOT, THREAD_ENV, provenance
from tracing import ROOT as ROOT_SPAN
from tracing import summarize

BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
#: A ``--trace 0`` run alternates set-up batches with measuring workers, so
#: both sample the machine across the whole run rather than one moment of it.
SEGMENTS = 3
#: Fresh processes whose set-up time is measured per batch; ``setup_s`` is the
#: median over all batches of a run.
SETUP_RUNS = 7
#: Slack for timing noise between the paired untraced and traced ops when
#: checking that the layer spans account for the untraced op.
SPAN_SLACK = 0.02
#: What the generic end-to-end metrics are on each workload.
ALIASES = {
    "sweep-grid": {"work_per_s": "estimates_per_s", "op_ms_p50": "estimate_ms_p50"},
    "mc-oracle": {"work_per_s": "mc_mtrials_per_s"},
    "plaquette-verify": {"work_per_s": "plaquette_angles_per_s"},
}
#: Everything this run starts must have ended by then.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def worker_cmd(args, mode, *extra, seed=None, seconds=None):
    return [sys.executable, *extra, str(BENCH / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed if seed is None else seed),
            "--seconds", str(args.seconds if seconds is None else seconds), "--mode", mode]


def remaining(started: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - started)
    if left <= 0:
        raise BenchError(f"ran past {DEADLINE_S:.0f} s")
    return left


def run_worker(cmd, env, started, spans=None):
    """Start a worker; return (seconds until it was ready, ready line, last stdout line)."""
    if spans:
        cmd = [*cmd, "--spans", str(spans)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=remaining(started))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not ready.startswith("ready "):
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    lines = out.strip().splitlines()
    return ready_s, ready, lines[-1] if lines else None


def numpy_import_s(args, env, started) -> float:
    """numpy's cumulative import time inside ``import ftcost.cli``; 0 if not imported."""
    done = subprocess.run(worker_cmd(args, "setup", "-X", "importtime"), cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=remaining(started))
    if done.returncode != 0:
        raise BenchError(f"import-time worker exited with {done.returncode}")
    for line in done.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "numpy":
            return int(re.sub(r"\D", "", fields[1])) * 1e-6
    return 0.0


def end_to_end(args, env, started) -> tuple[dict, dict]:
    """``SEGMENTS`` times: a batch of set-ups, then a worker measuring its share of the run.

    Each worker draws its own inputs, from ``seed * SEGMENTS + segment``.
    Throughput and latency are medians over the samples of all workers.
    """
    setups, results = [], []
    for segment in range(SEGMENTS):
        setups += [run_worker(worker_cmd(args, "setup"), env, started)[0]
                   for _ in range(SETUP_RUNS)]
        cmd = worker_cmd(args, "run", seed=args.seed * SEGMENTS + segment,
                         seconds=args.seconds / SEGMENTS)
        results.append(json.loads(run_worker(cmd, env, started)[2]))
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "work_per_s": statistics.median(x for r in results for x in r["block_rates"]),
        "op_ms_p50": statistics.median(x for r in results for x in r["block_ms_p50"]),
    }
    result = {"attempted": sum(r["attempted"] for r in results),
              "failed": sum(r["failed"] for r in results)}
    return metrics, result


def per_layer(args, env, started) -> tuple[dict, dict]:
    imports = [float(run_worker(worker_cmd(args, "setup"), env, started)[1].split()[1])
               for _ in range(SETUP_RUNS)]
    numpy_s = [numpy_import_s(args, env, started) for _ in range(SETUP_RUNS)]
    spans = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
    _, _, line = run_worker(worker_cmd(args, "trace"), env, started, spans=spans)
    result = json.loads(line)
    ops, self_s, incl = summarize(spans)

    plain = result["plain_op_s"]
    metrics = {f"{name}_s": total / ops for name, total in self_s.items()}
    layers: dict[str, float] = {}
    for name, total in self_s.items():
        if name != ROOT_SPAN:
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + total
    metrics.update({f"{layer}.op_share": total / ops / plain for layer, total in layers.items()})
    for (name, tag), (total, calls) in incl.items():
        if name == "noise.mc_rus_oracle":
            metrics[f"noise.mc_ns_per_trial.{tag}"] = total / calls / result["trials"] * 1e9
        elif name in ("plaquette.evolution", "plaquette.fourier"):
            metrics[f"{name}_per_angle_ms"] = total / calls * 1e3
    if args.workload == "sweep-grid":
        metrics["pipeline.estimate_ms_p99"] = result["op_ms_p99"]
    metrics.update(result["layer_counts"])
    metrics.update({
        "cli.import_s": statistics.median(imports),
        "cli.numpy_import_s": statistics.median(numpy_s),
        "trace.overhead_share": result["traced_op_s"] / plain - 1.0,
        "trace.span_share": sum(layers.values()) / ops / plain,
        "trace.root_share": self_s.get(ROOT_SPAN, 0.0) / ops / plain,
    })
    result["spans_account"] = (abs(1.0 - metrics["trace.span_share"])
                               <= abs(metrics["trace.overhead_share"]) + SPAN_SLACK)
    return metrics, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (PACKAGE / "__init__.py").is_file():
        print(f"run.py: no ftcost package at {PACKAGE}; run inside a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    os.environ.update(THREAD_ENV)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    OUT.mkdir(exist_ok=True)
    try:
        run_worker(worker_cmd(args, "setup"), env, started)  # writes bytecode caches
        measured, result = (per_layer if args.trace else end_to_end)(args, env, started)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}
    attempted, failed = result["attempted"], result["failed"]
    summary = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    origin = provenance(workload=args.workload, seed=args.seed, seconds=args.seconds,
                        trace=args.trace, pythonpath="src")
    checks = {"spans_account": result["spans_account"]} if args.trace else {}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**summary, **checks, "provenance": origin}, indent=1) + "\n")
    if checks and not checks["spans_account"]:
        print(f"run.py: the layer spans do not account for the untraced op: "
              f"|1 - trace.span_share| > |trace.overhead_share| + {SPAN_SLACK}", file=sys.stderr)

    print(f"{args.workload} seed {args.seed}, {args.seconds:g} s, trace {args.trace}: "
          f"{attempted} ops, {failed} failed (failed_share {failed / max(attempted, 1):.3g})")
    aliases = ALIASES.get(args.workload, {})
    for name, m in metrics.items():
        label = f"{name} ({aliases[name]})" if name in aliases else name
        print(f"  {label:<36} {m['value']:.6g} {m['unit']}")
    print("provenance " + json.dumps(origin))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
