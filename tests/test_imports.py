"""A fresh process loads only what its command runs: the estimate path runs
without numpy or the noise oracle, the oracles load numpy on demand, and the
package root resolves each public name lazily.

Each loading check runs in a fresh interpreter, because this test process
has every module loaded already.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ftcost

SRC = str(Path(ftcost.__file__).resolve().parents[1])


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def _loaded(code: str) -> set[str]:
    """The ftcost modules a fresh interpreter has loaded after running ``code``."""
    proc = _python("-c", code + (
        "\nimport sys\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'ftcost'))\n"
    ))
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


ESTIMATE_PATH = {f"ftcost.{m}" for m in ("config", "pipeline", "surgery", "synthesis", "trotter")}
ORACLES = {"ftcost.noise", "ftcost.pauli", "ftcost.plaquette"}


def test_importing_the_package_loads_no_submodule():
    assert _loaded("import ftcost") == {"ftcost"}


def test_importing_the_cli_loads_only_the_error_types():
    assert _loaded("import ftcost.cli") == {"ftcost", "ftcost.cli", "ftcost.errors"}


def _run(argv: list[str]) -> str:
    return f"from ftcost.cli import main\nassert main({argv!r}) == 0"


ESTIMATE_COMMANDS = pytest.mark.parametrize(
    "argv", [["estimate"], ["fit"], ["sweep", "--key", "problem.L", "--values", "2,4"]],
    ids=["estimate", "fit", "sweep"])


@ESTIMATE_COMMANDS
def test_the_estimate_path_loads_no_oracle(argv):
    loaded = _loaded(_run(argv))
    assert ESTIMATE_PATH <= loaded
    assert not loaded & ORACLES


@ESTIMATE_COMMANDS
def test_the_estimate_path_loads_neither_dataclasses_nor_inspect(argv):
    # the records are plain classes; ``dataclasses`` would load ``inspect``, ``ast`` and ``dis``
    proc = _python("-c", _run(argv) + (
        "\nimport sys\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_verify_noise_loads_no_estimate_layer():
    loaded = _loaded(_run(["verify-noise", "--trials", "20000"]))
    assert "ftcost.noise" in loaded
    assert not loaded & ESTIMATE_PATH


def test_verify_plaquette_loads_neither_the_noise_oracle_nor_the_estimate():
    loaded = _loaded(_run(["verify-plaquette", "--angles", "2"]))
    assert "ftcost.plaquette" in loaded
    assert not loaded & (ESTIMATE_PATH | {"ftcost.noise"})


def test_help_loads_no_layer():
    code = ("from ftcost.cli import main\n"
            "for argv in ([], ['estimate'], ['sweep'], ['fit'], ['verify-noise'],"
            " ['verify-plaquette']):\n"
            "    try:\n        main(argv + ['--help'])\n"
            "    except SystemExit as exit:\n        assert exit.code == 0\n")
    assert _loaded(code) == {"ftcost", "ftcost.cli", "ftcost.errors"}


#: Every public name of the package, with the module it comes from.  The
#: names are those the package root imported eagerly before it went lazy.
PUBLIC = {
    **dict.fromkeys(("FitError", "InvalidParameterError", "NoDistanceFoundError",
                     "NoProtocolError"), "errors"),
    **dict.fromkeys(("AttemptCaps", "CycleOutcomeDistribution", "HeraldedOutcomeDistribution",
                     "cycle_outcome_distribution", "heralded_cz_distribution",
                     "heralded_mzz_distribution", "mc_rus_oracle"), "noise"),
    **dict.fromkeys(("ErrorBudget", "EstimateReport", "FloorplanCounts", "SolveOptions",
                     "allocate_budget", "corridor_capacity_check", "floorplan", "msf_sizing",
                     "runtime_seconds", "solve_estimate"), "pipeline"),
    **dict.fromkeys(("ErrorDataPoint", "FitParams", "MsfProtocol", "PatchGeometry",
                     "extrapolate_error", "fit_error_curve", "load_error_data",
                     "load_msf_table", "msf_convert", "patch_geometry", "select_distance"),
                    "surgery"),
    **dict.fromkeys(("RotationCost", "SynthesisPlan", "crossover_L", "direct_plan",
                     "fallback_plan", "synthesis_cost", "t_count"), "synthesis"),
    **dict.fromkeys(("PhysicalNoiseParams", "TimingModel", "derive_noise_params",
                     "logical_cycle_time"), "timing"),
    **dict.fromkeys(("ProblemSpec", "kappa", "trotter_step_cost", "trotter_steps"), "trotter"),
}


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_each_public_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"ftcost.{PUBLIC[name]}")
    assert getattr(ftcost, name) is getattr(home, name)


def test_the_noise_module_still_exports_the_noise_parameters():
    import ftcost.noise
    import ftcost.timing

    for name in ("DEFAULT_BIASES", "PhysicalNoiseParams", "derive_noise_params"):
        assert getattr(ftcost.noise, name) is getattr(ftcost.timing, name)


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(ftcost))
    assert "__version__" in dir(ftcost)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'not_a_name'"):
        ftcost.not_a_name
    assert not hasattr(ftcost, "LADDER")  # a module's own name is not the package's


def test_from_imports_of_the_package_work_in_a_fresh_process():
    # the ``from ftcost import ...`` statements of the acceptance tests and
    # of the README examples, each resolved from a cold package root
    root = Path(SRC).parent
    sources = [(root / "tests" / "test_acceptance.py").read_text(encoding="utf-8"),
               *re.findall(r"^```python\n(.*?)^```",
                           (root / "README.md").read_text(encoding="utf-8"),
                           flags=re.DOTALL | re.MULTILINE)]
    statements = [ast.unparse(node) for source in sources for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.module == "ftcost"]
    assert len(statements) >= 3
    proc = _python("-c", "\n".join(statements))
    assert proc.returncode == 0, proc.stderr


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


def test_the_package_runs_as_a_module():
    argv = ["verify-noise", "--trials", "1000"]
    proc = _python("-m", "ftcost", *argv)
    # the same stdout and exit status as the installed console script's main()
    inline = _python("-c", f"import sys; from ftcost.cli import main; sys.exit(main({argv!r}))")
    assert proc.stderr == inline.stderr == ""
    assert "RUS-CZ" in proc.stdout and "RUS-MZZ" in proc.stdout
    assert (proc.returncode, proc.stdout) == (inline.returncode, inline.stdout)
