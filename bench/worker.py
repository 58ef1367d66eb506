"""One workload in a fresh process: set up, say ready, measure, report.

run.py starts this with ``PYTHONPATH=src`` and BLAS/OpenMP pinned to one
thread.  It prints ``ready <seconds to import ftcost.cli>`` once the first
inputs are built; then, unless ``--mode setup``, it runs ops in a closed
loop (one after another) for ``--seconds`` and prints one JSON line.

``--mode run`` times each op untraced.  ``--mode trace`` runs each op twice,
untraced and traced in alternating order, and writes the spans to
``--spans``.
"""

import time

_t0 = time.perf_counter()
import ftcost.cli  # noqa: E402,F401  the import a user of the CLI pays for
IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import itertools  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spans", help="where --mode trace writes its spans")
    args = parser.parse_args()

    workload = workloads.load(args.workload)()
    rounds = workload.rounds(args.seed)
    rounds = itertools.chain([next(rounds)], rounds)
    print(f"ready {IMPORT_S!r}", flush=True)
    if args.mode == "setup":
        return 0

    import json  # the benchmark's own machinery, kept out of setup_s

    import measure

    print(json.dumps(measure.run(workload, rounds, args.mode, args.seconds, args.spans)),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
