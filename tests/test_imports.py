"""The estimate path runs without numpy; the oracles still load it on demand.

Each check runs in a fresh interpreter, because this test process has
numpy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import ftcost

SRC = str(Path(ftcost.__file__).resolve().parents[1])


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_importing_the_cli_does_not_import_numpy():
    proc = _python("-X", "importtime", "-c", "import ftcost.cli")
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert "ftcost.cli" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]


def test_importing_the_cli_does_not_import_the_thread_pool():
    # the MC oracle's pool imports concurrent.futures, and with it logging
    proc = _python("-c", (
        "import sys\n"
        "import ftcost.cli\n"
        "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))\n"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_estimate_fit_and_closed_forms_leave_numpy_unloaded():
    proc = _python("-c", (
        "import sys\n"
        "from ftcost.cli import main\n"
        "assert main(['estimate']) == 0\n"
        "assert main(['fit']) == 0\n"
        "from ftcost.noise import AttemptCaps, derive_noise_params, heralded_cz_distribution,"
        " heralded_mzz_distribution\n"
        "params = derive_noise_params(0.01)\n"
        "heralded_cz_distribution(params, AttemptCaps())\n"
        "heralded_mzz_distribution(params, AttemptCaps())\n"
        "print('numpy loaded:', 'numpy' in sys.modules)\n"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "numpy loaded: False"


def test_monte_carlo_oracle_still_loads_numpy():
    proc = _python("-c", (
        "import sys\n"
        "from ftcost import mc_rus_oracle\n"
        "from ftcost.cli import main\n"
        "main(['verify-noise', '--trials', '1000'])\n"
        "print('numpy loaded:', 'numpy' in sys.modules)\n"
    ))
    assert proc.returncode == 0, proc.stderr
    assert "RUS-CZ" in proc.stdout and "RUS-MZZ" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "numpy loaded: True"
