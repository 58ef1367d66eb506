"""Where a benchmark result came from: code, data, interpreter, machine."""

import hashlib
import os
import platform
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ftcost"

#: Set in every process the benchmark starts: one BLAS/OpenMP thread.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def src_sha256() -> str:
    """One digest over every file of the package, so a result names its code."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown: not a git checkout"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown: git rev-parse failed"


def blas() -> str:
    import numpy

    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"
    except (TypeError, KeyError):
        return "unknown"


def provenance(**run) -> dict:
    import numpy

    return {
        **run,
        "git_commit": git_commit(),
        "src_sha256": src_sha256(),
        "csv_sha256": {p.name: sha256(p) for p in sorted((PACKAGE / "data").glob("*.csv"))},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }
