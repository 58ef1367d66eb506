import pytest

from ftcost.cli import main
from ftcost.config import budget_from, load_config, options_from, problem_from
from ftcost.errors import InvalidParameterError

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
        cfg = load_config(overrides=["floorplan.override_total=1000",
                                     "floorplan.override_msf=400", f"{key}={value}"])
        with pytest.raises(InvalidParameterError, match=f"^{key}="):
            builder(cfg)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-0.01", "1", "1.5"])
    def test_budget_total_must_lie_in_unit_interval(self, value):
        cfg = load_config(overrides=[f"budget.total={value}"])
        with pytest.raises(InvalidParameterError, match=f"^budget.total={value} "):
            budget_from(cfg)

    @pytest.mark.parametrize("value,shown", [("abc", "'abc'"), ("none", "None")])
    def test_budget_total_must_be_a_number(self, value, shown):
        cfg = load_config(overrides=[f"budget.total={value}"])
        with pytest.raises(InvalidParameterError, match=f"^budget.total={shown} "):
            budget_from(cfg)

    def test_integral_float_is_accepted(self):
        cfg = load_config(overrides=["problem.L=8.0", "noise.n_rus=12"])
        assert problem_from(cfg).lattice_l == 8
        assert options_from(cfg).timing.caps.n_rus == 12

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
        ("budget.total", "1.5"),
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
    ], ids=["budget-text", "budget-none", "fit-bad-row"])
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

    @pytest.mark.parametrize("key,value", [
        ("problem.u_over_t", "abc"), ("problem.u_over_t", "nan"),
        ("timing.reaction_us", "nan"), ("problem.sim_time_multiple", "inf"),
        ("noise.p", "-inf"), ("noise.biases.epsilon", "none"),
        ("synthesis.p_succ", "abc"), ("timing.syndrome_round_ns", "inf"),
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
    ])
    def test_unreadable_data_file_is_one_line(self, tmp_path, capsys, command, key, name):
        path = tmp_path / name if name else tmp_path
        assert main([command, "--set", f"{key}={path}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.endswith("\n") and captured.err.count("\n") == 1
        assert captured.err.startswith(f"ftcost {command}: error: cannot read {path}: ")

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

    @pytest.mark.parametrize("argv,message", [
        (["sweep", "--key", "problem.L", "--values", "8,12,14,16"],
         "no width up to 30 reaches target"),
        (["estimate", "--set", "data.msf_table_csv={weak_msf}"],
         "no protocol with p_out below target"),
        (["fit", "--set", "data.lattice_surgery_csv={one_size}"],
         "need data points at two or more sizes"),
    ], ids=["sweep-no-distance", "estimate-no-protocol", "fit-degenerate"])
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
