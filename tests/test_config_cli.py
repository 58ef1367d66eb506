import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ftcost
from ftcost.cli import main
from ftcost.config import (
    SCHEMA,
    budget_from,
    load_config,
    noise_from,
    options_from,
    problem_from,
)
from ftcost.errors import InvalidParameterError

#: Config keys that changed no output and were removed, each with a value
#: that was once legal.
REMOVED_KEYS = [
    ("noise.biases.epsilon", "0.5"), ("noise.biases.distinguishability", "0.1"),
    ("noise.biases.idle_ratio", "0.01"), ("noise.biases.gate_infidelity", "0.005"),
    ("noise.n_rus", "10"), ("noise.n_init", "5"), ("noise.n_measure", "5"),
    ("timing.single_qubit_ns", "5"), ("timing.rus_cycle_ns", "30"),
    ("budget.policy", "default"),
]

#: A deviation field of verify-plaquette's stdout.  The three Clifford lines
#: are held to run_verification's 1e-12; the evolution and Fourier identity
#: lines to 1e-13, 1000x inside the default tolerance.
_DEVIATION = re.compile(r"deviation (\S+)")


def schema_line(key) -> str:
    """README's line for one ``SCHEMA`` key: the default and what it may be."""
    default = "none" if key.default is None else key.default
    return f"{key.name} = {default}".ljust(34) + f" # {key.doc}; must be {key.rule}"


#: Header of each data file, by the config key that names it.
DATA_HEADERS = {
    "data.msf_table_csv": "label,p_out,sc_qubits,sc_cycles",
    "data.lattice_surgery_csv": "width,height,rounds,qubits,ehv,ehv_stddev",
}

REPORT_KEYS = [
    "trotter_steps", "eps_synth", "n_t_per_rotation", "n_t_fallback",
    "t_synth_timesteps", "timesteps_per_step", "cubes_per_step",
    "transversal_cnots_per_step", "n_l_total", "n_t_total", "p_l_target",
    "p_msf_target", "code_width", "code_height", "rounds_per_cycle",
    "logical_cycle_ns", "total_patches", "msf_patches", "physical_qubits",
    "msf_factories", "msf_qubits_required", "runtime_seconds", "iterations",
]


class TestConfig:
    def test_defaults(self):
        cfg = load_config()
        spec = problem_from(cfg)
        assert spec.lattice_l == 8
        assert spec.sim_time_t == 80.0

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "problem.L = 4\n"
            "budget.total = 0.02   # trailing comment\n"
        )
        cfg = load_config(str(path), overrides=["problem.L=6"])
        assert cfg["problem.L"] == 6  # --set wins over the file
        assert cfg["budget.total"] == 0.02

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("problem.size = 4\n")
        with pytest.raises(InvalidParameterError):
            load_config(str(path))
        with pytest.raises(InvalidParameterError):
            load_config(overrides=["nope=1"])

    def test_coercion(self, tmp_path):
        path = tmp_path / "types.cfg"
        path.write_text(
            "synthesis.strategy = mixed_diagonal\n"
            "synthesis.p_succ = 0.95\n"
            "floorplan.override_total = none\n"
        )
        cfg = load_config(str(path))
        assert cfg["synthesis.strategy"] == "mixed_diagonal"
        assert cfg["synthesis.p_succ"] == 0.95
        assert cfg["floorplan.override_total"] is None

    @pytest.mark.parametrize("key,value,builder", [
        ("problem.L", "8.9", problem_from),
        ("problem.w_msf", "2.5", problem_from),
        ("problem.L", "eight", problem_from),
        ("noise.n_rus", "10.5", options_from),
        ("noise.n_init", "0", options_from),
        ("noise.n_measure", "-1", options_from),
        ("floorplan.override_total", "1000.5", options_from),
    ])
    def test_integer_keys_reject_non_integers(self, key, value, builder):
        # load_config rejects the value, so it never reaches the builder;
        # the noise.n_* keys are gone and rejected as unknown
        with pytest.raises(InvalidParameterError, match=f"^{key}="):
            builder(load_config(overrides=["floorplan.override_total=1000",
                                           "floorplan.override_msf=400", f"{key}={value}"]))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-0.01", "1", "1.5"])
    def test_budget_total_must_lie_in_unit_interval(self, value):
        with pytest.raises(InvalidParameterError, match=f"^budget.total={value} "):
            budget_from(load_config(overrides=[f"budget.total={value}"]))

    @pytest.mark.parametrize("value,shown", [("abc", "'abc'"), ("none", "None")])
    def test_budget_total_must_be_a_number(self, value, shown):
        with pytest.raises(InvalidParameterError, match=f"^budget.total={shown} "):
            budget_from(load_config(overrides=[f"budget.total={value}"]))

    def test_integral_float_is_accepted(self):
        cfg = load_config(overrides=["problem.L=8.0", "floorplan.override_total=1e3",
                                     "floorplan.override_msf=400.0"])
        assert problem_from(cfg).lattice_l == 8
        override = options_from(cfg).floorplan_override
        assert override == (1000, 400) and all(type(n) is int for n in override)

    def test_every_value_is_parsed_to_its_key_type(self):
        cfg = load_config(overrides=["problem.u_over_t=4", "timing.reaction_us=12"])
        assert type(cfg["problem.u_over_t"]) is float and cfg["problem.u_over_t"] == 4.0
        assert options_from(cfg).timing.reaction_us == 12.0
        assert {k: type(v) for k, v in load_config().items() if v is not None} == {
            name: key.type for name, key in SCHEMA.items() if key.default is not None}

    @pytest.mark.parametrize("overrides,message", [
        (["noise.p=0.05"], "noise.p=0.05 needs data.lattice_surgery_csv"),
        (["floorplan.override_total=1000"], "floorplan.override_msf=None must be set"),
        (["floorplan.override_msf=400"], "floorplan.override_total=None must be set"),
        (["floorplan.override_total=100", "floorplan.override_msf=400"],
         "floorplan.override_msf=400 must not exceed floorplan.override_total=100"),
    ])
    def test_keys_that_go_together(self, overrides, message):
        with pytest.raises(InvalidParameterError, match=f"^{message}"):
            load_config(overrides=overrides)

    def test_other_noise_p_with_its_own_data(self, tmp_path):
        data = tmp_path / "cubes.csv"
        data.write_text("width,height,rounds,qubits,ehv,ehv_stddev\n"
                        "6,9,18,54,2e-3,1e-4\n8,12,24,96,3e-4,2e-5\n")
        cfg = load_config(overrides=["noise.p=0.02", f"data.lattice_surgery_csv={data}"])
        assert noise_from(cfg).p == 0.02

    def test_readme_lists_every_key(self):
        """README's key block is ``SCHEMA``, one line per key, in order."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("Keys and defaults:\n\n```\n", 1)[1].split("```", 1)[0]
        assert block.splitlines() == [schema_line(key) for key in SCHEMA.values()]

    def test_custom_data_paths(self, tmp_path):
        data = tmp_path / "cubes.csv"
        data.write_text(
            "width,height,rounds,qubits,ehv,ehv_stddev\n"
            "6,9,18,54,2e-3,1e-4\n8,12,24,96,3e-4,2e-5\n10,18,36,180,3e-5,2e-6\n")
        cfg = load_config(overrides=[f"data.lattice_surgery_csv={data}"])
        options = options_from(cfg)
        assert options.fit.a < 0


class TestCli:
    def test_estimate_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        rc = main(["estimate", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "physical qubits" in printed
        lines = out.read_text().strip().splitlines()
        keys = [line.split(" = ")[0] for line in lines]
        assert keys == REPORT_KEYS

    def test_estimate_with_set(self, capsys):
        rc = main(["estimate", "--set", "problem.L=4", "--precision", "real"])
        assert rc == 0
        assert "resource estimate" in capsys.readouterr().out

    @pytest.mark.parametrize("key,value", [
        ("problem.L", "8.9"), ("problem.w_msf", "2.5"),
        ("noise.n_rus", "0"), ("noise.n_init", "-3"),
        ("floorplan.override_msf", "400.5"),
        ("budget.total", "nan"), ("budget.total", "0"), ("budget.total", "inf"),
        ("budget.total", "1.5"), ("problem.L", "3"), ("synthesis.strategy", "foo"),
        ("synthesis.mode", "best"), ("noise.p", "0.05"),
    ])
    def test_estimate_bad_integer_key_is_one_line(self, capsys, key, value):
        overrides = ["--set", f"{key}={value}"]
        if key.startswith("floorplan."):
            overrides += ["--set", "floorplan.override_total=1000"]
        assert main(["estimate", *overrides]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("\n") and captured.err.count("\n") == 1
        assert captured.err.startswith(f"ftcost estimate: error: {key}={value} ")

    @pytest.mark.parametrize("argv,message", [
        (["estimate", "--set", "budget.total=abc"], "budget.total='abc' must be finite"),
        (["sweep", "--key", "budget.total", "--values", "0.01,none"],
         "budget.total=None must be finite"),
        (["fit", "--set", "data.lattice_surgery_csv={bad_row}"],
         "{bad_row} data row 2: sigma=inf must be positive"),
        (["sweep", "--key", "problem.L", "--values", " , "],
         "--values must list at least one value"),
    ], ids=["budget-text", "budget-none", "fit-bad-row", "sweep-no-values"])
    def test_bad_value_or_data_is_one_line(self, tmp_path, capsys, argv, message):
        bad_row = tmp_path / "cubes.csv"
        bad_row.write_text("width,height,rounds,qubits,ehv,ehv_stddev\n"
                           "6,9,18,54,2e-3,1e-4\n10,18,36,180,1e-5,inf\n")
        argv = [arg.format(bad_row=bad_row) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.endswith("\n") and captured.err.count("\n") == 1
        assert captured.err.startswith(
            f"ftcost {argv[0]}: error: {message.format(bad_row=bad_row)}")

    @pytest.mark.parametrize("key,row,message", [
        ("data.msf_table_csv", "x,4.5e-8,-4620,42.6", "sc_qubits=-4620.0 must be positive"),
        ("data.msf_table_csv", "x,4.5e-8,nan,42.6", "sc_qubits=nan must be positive"),
        ("data.msf_table_csv", "x,4.5e-8,4620,0", "sc_cycles=0.0 must be positive"),
        ("data.msf_table_csv", "x,4.5e-8,4620,inf", "sc_cycles=inf must be positive"),
        ("data.msf_table_csv", "x,1.5,4620,42.6", "p_out=1.5 must lie in (0, 1)"),
        ("data.msf_table_csv", "x,0,4620,42.6", "p_out=0.0 must lie in (0, 1)"),
        ("data.lattice_surgery_csv", "0,9,18,0,2e-3,1e-4", "width=0 must be an integer >= 1"),
        ("data.lattice_surgery_csv", "-6,-9,18,54,2e-3,1e-4", "width=-6 must be an integer"),
        ("data.lattice_surgery_csv", "6,0,18,0,2e-3,1e-4", "height=0 must be an integer"),
        ("data.lattice_surgery_csv", "6,9,-18,54,2e-3,1e-4", "rounds=-18 must be an integer"),
        ("data.lattice_surgery_csv", "abc,9,18,54,2e-3,1e-4",
         "could not convert width='abc' to an integer"),
        ("data.lattice_surgery_csv", "6,9,18,5.4e1,2e-3,1e-4",
         "could not convert qubits='5.4e1' to an integer"),
        ("data.lattice_surgery_csv", "6,9,18,54,abc,1e-4", "could not convert ehv='abc' to a number"),
        ("data.lattice_surgery_csv", "6,9,18", "could not convert qubits=None to an integer"),
        ("data.msf_table_csv", "x,abc,4620,42.6", "could not convert p_out='abc' to a number"),
        ("data.msf_table_csv", "x,4.5e-8,4620,", "could not convert sc_cycles='' to a number"),
    ])
    def test_bad_data_row_is_one_line(self, tmp_path, capsys, key, row, message):
        path = tmp_path / "data.csv"
        path.write_text(f"{DATA_HEADERS[key]}\n{row}\n")
        assert main(["estimate", "--set", f"{key}={path}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("\n") and captured.err.count("\n") == 1
        assert captured.err.startswith(f"ftcost estimate: error: {path} data row 1: {message}")

    def test_empty_factory_table_is_one_line(self, tmp_path, capsys):
        # a table with no rows is not read as absent: the bundled one is not used in its place
        path = tmp_path / "msf.csv"
        path.write_text(f"{DATA_HEADERS['data.msf_table_csv']}\n")
        assert main(["estimate", "--set", f"data.msf_table_csv={path}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ftcost estimate: error: {path} has no data rows\n"

    def test_empty_cube_data_is_one_line(self, tmp_path, capsys):
        # named as the file it is, not as a fit that lacks points
        path = tmp_path / "cubes.csv"
        path.write_text(f"{DATA_HEADERS['data.lattice_surgery_csv']}\n")
        assert main(["estimate", "--set", f"data.lattice_surgery_csv={path}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ftcost estimate: error: {path} has no data rows\n"

    @pytest.mark.parametrize("command", [
        "sweep --key problem.L --values 2,4,6,8,10",  # the sweep flushes every row
        "estimate",  # buffered until main flushes stdout
    ])
    def test_closed_stdout_exits_1_without_a_traceback(self, command):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        env = dict(os.environ, PYTHONPATH=str(Path(ftcost.__file__).resolve().parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        try:
            proc = subprocess.run([sys.executable, "-m", "ftcost", *command.split()],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env,
                                  timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")

    @pytest.mark.parametrize("key,value", [
        ("problem.u_over_t", "abc"), ("problem.u_over_t", "nan"),
        ("timing.reaction_us", "nan"), ("problem.sim_time_multiple", "inf"),
        ("noise.p", "-inf"), ("synthesis.p_succ", "abc"),
        ("timing.syndrome_round_ns", "inf"), ("problem.u_over_t", "-1"),
        ("timing.reaction_us", "-1"), ("synthesis.p_succ", "2"), ("noise.p", "1"),
    ])
    def test_estimate_bad_real_key_is_one_line(self, capsys, key, value):
        assert main(["estimate", "--set", f"{key}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("\n") and captured.err.count("\n") == 1
        shown = {"abc": "'abc'", "none": "None"}.get(value, value)
        assert captured.err.startswith(
            f"ftcost estimate: error: {key}={shown} must be a finite number")

    @pytest.mark.parametrize("command,key,name", [
        ("fit", "data.lattice_surgery_csv", "absent.csv"),
        ("estimate", "data.msf_table_csv", ""),  # the directory itself
        ("estimate", "data.lattice_surgery_csv", "latin1.csv"),
        ("estimate", "--config", "absent.cfg"),
        ("fit", "--config", "latin1.cfg"),
    ])
    def test_unreadable_data_file_is_one_line(self, tmp_path, capsys, command, key, name):
        path = tmp_path / name if name else tmp_path
        if name.startswith("latin1"):  # bytes that are not UTF-8
            path.write_bytes("problem.L = 8 # größe\n".encode("latin-1"))
        source = ["--config", str(path)] if key == "--config" else ["--set", f"{key}={path}"]
        assert main([command, *source]) == 2
        captured = capsys.readouterr()
        assert captured.err.endswith("\n") and captured.err.count("\n") == 1
        assert captured.err.startswith(f"ftcost {command}: error: cannot read {path}: ")

    @pytest.mark.parametrize("command", ["estimate", "sweep --key problem.L --values 8"])
    def test_unwritable_out_is_one_line(self, tmp_path, capsys, command):
        path = tmp_path / "absent" / "out.txt"
        argv = [*command.split(), "--out", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.endswith("\n") and captured.err.count("\n") == 1
        assert captured.err.startswith(f"ftcost {argv[0]}: error: cannot write {path}: ")
        # the estimate is printed before the report is written; a sweep's rows go to the file
        assert ("physical qubits" in captured.out) == (argv[0] == "estimate")
        assert "wrote" not in captured.out and not path.exists()

    @pytest.mark.parametrize("key,value", REMOVED_KEYS)
    def test_removed_key_is_unknown(self, tmp_path, capsys, key, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\n")
        for argv in (["estimate", "--set", f"{key}={value}"], ["estimate", "--config", str(path)],
                     ["sweep", "--key", key, "--values", value]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"ftcost {argv[0]}: error: {key}={value} is not a config key\n"

    @pytest.mark.parametrize("command, golden", [
        ("estimate", "estimate_default.txt"), ("fit", "fit_default.txt"),
        ("verify-plaquette", "verify_plaquette_default.txt"),
        ("estimate --precision real", "estimate_real.txt"),
        ("sweep --key problem.L --values 2,4,6,8,10", "sweep_L_2_to_10.txt"),
    ])
    def test_default_output_matches_golden(self, capsys, command, golden):
        # the files hold the stdout of the command line; a change that is meant
        # to print the same leaves them as they are.  They are read as bytes,
        # since the sweep's csv rows end in \r\n.  A printed deviation is a
        # rounding residue whose last digits move with any exactly equivalent
        # formula, so it is masked here and held to its bound instead
        assert main(command.split()) == 0
        expected = (Path(__file__).resolve().parent / "data" / golden).read_bytes().decode()
        out = capsys.readouterr().out
        assert _DEVIATION.sub("deviation <x>", out) == _DEVIATION.sub("deviation <x>", expected)
        for line in out.splitlines():
            if match := _DEVIATION.search(line):
                assert float(match[1]) <= (1e-13 if "identity" in line else 1e-12), line

    @pytest.mark.parametrize("argv, golden", [
        (["--trials", "200000"], "verify_noise_200k.txt"),
        (["--trials", "200000", "--n-rus", "30", "--p", "0.05"], "verify_noise_200k_n30_p05.txt"),
        # 80 categories, blocks of fewer than 2^15 rows, an uneven split
        (["--n-rus", "80", "--trials", "300001", "--seed", "5"], "verify_noise_300001_n80_seed5.txt"),
    ])
    def test_verify_noise_output_matches_golden(self, capsys, argv, golden):
        # the MC counts are seeded, so every printed frequency is exact: a
        # change to the draw or to the classification shows here
        assert main(["verify-noise", *argv]) == 0
        expected = (Path(__file__).resolve().parent / "data" / golden).read_text()
        assert capsys.readouterr().out == expected

    def test_fit_prints_ladder(self, capsys):
        assert main(["fit"]) == 0
        out = capsys.readouterr().out
        assert "a = " in out and " 1530 " in out

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--key", "problem.L", "--values", "4,8",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("problem.L,")

    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out-file"])
    def test_sweep_keeps_rows_before_an_error(self, tmp_path, capsys, out):
        # L=12 finds no width: the L=8 row is already written, then one error line
        def sweep(values):
            path = tmp_path / f"{values}.csv"
            rc = main(["sweep", "--key", "problem.L", "--values", values]
                      + (["--out", str(path)] if out else []))
            captured = capsys.readouterr()
            return rc, path.read_text() if out else captured.out, captured.err

        rc, solved, err = sweep("8")
        assert rc == 0 and err == "" and len(solved.splitlines()) == 2
        rc, partial, err = sweep("8,12")
        assert rc == 2 and partial == solved
        assert err.startswith("ftcost sweep: error: no width up to 30") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,message", [
        (["estimate", "--set", "floorplan.override_total=10", "--set",
          "floorplan.override_msf=4"],
         "floorplan.override_msf=4 holds 6120 factory qubits at width 30; "
         "the factories need 158730"),
        (["sweep", "--key", "problem.L", "--values", "8,12,14,16"],
         "no width up to 30 reaches target"),
        (["estimate", "--set", "data.msf_table_csv={weak_msf}"],
         "no protocol with p_out below target"),
        (["fit", "--set", "data.lattice_surgery_csv={one_size}"],
         "need data points at two or more sizes"),
    ], ids=["estimate-small-override", "sweep-no-distance", "estimate-no-protocol",
            "fit-degenerate"])
    def test_solver_errors_are_one_line(self, tmp_path, capsys, argv, message):
        weak_msf = tmp_path / "msf.csv"
        weak_msf.write_text("label,p_out,sc_qubits,sc_cycles\nweak,1e-3,1000,100\n")
        one_size = tmp_path / "cubes.csv"
        one_size.write_text("width,height,rounds,qubits,ehv,ehv_stddev\n"
                            "10,18,36,180,1e-5,1e-6\n10,18,36,180,2e-5,1e-6\n")
        argv = [arg.format(weak_msf=weak_msf, one_size=one_size) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.endswith("\n") and captured.err.count("\n") == 1
        assert captured.err.startswith(f"ftcost {argv[0]}: error: {message}")

    def test_verify_noise_passes(self, capsys):
        rc = main(["verify-noise", "--trials", "50000", "--seed", "9"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "RUS-CZ" in out and "RUS-MZZ" in out and "within 5 sigma" in out

    def test_verify_noise_noiseless(self, capsys):
        assert main(["verify-noise", "--p", "0", "--trials", "20000"]) == 0

    @pytest.mark.parametrize("flag,value,name", [
        ("--seed", "-1", "seed"),
        ("--trials", "0", "trials"),
        ("--n-rus", "0", "n_rus"),
        ("--p", "1.5", "p"),
    ])
    def test_verify_noise_bad_input_is_one_line(self, capsys, flag, value, name):
        assert main(["verify-noise", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("\n") and captured.err.count("\n") == 1
        assert captured.err.startswith(f"ftcost verify-noise: error: {name}={value} ")

    def test_verify_plaquette_passes(self, capsys):
        rc = main(["verify-plaquette", "--angles", "4", "--seed", "2"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,value,name", [
        ("--angles", "0", "n_angles"),
        ("--angles", "-2", "n_angles"),
        ("--tolerance", "nan", "tolerance"),
        ("--seed", "-1", "seed"),
    ])
    def test_verify_plaquette_bad_input_is_one_line(self, capsys, flag, value, name):
        assert main(["verify-plaquette", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("\n") and captured.err.count("\n") == 1
        assert captured.err.startswith(f"ftcost verify-plaquette: error: {name}={value} ")

    def test_verify_plaquette_tolerance_failure(self, capsys):
        rc = main(["verify-plaquette", "--angles", "4", "--tolerance", "1e-18"])
        assert rc == 1
