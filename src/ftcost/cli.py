"""Command-line interface: estimate, sweep, fit, verify-noise, verify-plaquette."""

from __future__ import annotations

import argparse
import os
import sys

from .errors import (DEFAULT_N_RUS, PRECISIONS, FitError, InvalidParameterError,
                     NoDistanceFoundError, NoProtocolError)


def _add_config_args(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config key (repeatable)")


def _open_out(path: str, **kwargs):
    """``path`` opened for writing; one that cannot be is an error naming it."""
    try:
        return open(path, "w", **kwargs)
    except OSError as exc:
        raise InvalidParameterError(f"cannot write {path}: {exc.strerror or exc}") from None


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def cmd_estimate(args) -> int:
    from . import config as cfgmod
    from .pipeline import corridor_capacity_check, solve_estimate

    cfg = cfgmod.load_config(args.config, args.overrides)
    spec = cfgmod.problem_from(cfg)
    noise = cfgmod.noise_from(cfg)
    budget = cfgmod.budget_from(cfg)
    options = cfgmod.options_from(cfg, precision=args.precision)
    report = solve_estimate(spec, noise, budget, options)

    rows = [
        ("Trotter steps", f"{report.trotter_steps:,}"),
        ("synthesis accuracy", _fmt(report.eps_synth)),
        ("T per rotation / fallback", f"{_fmt(report.n_t_per_rotation)} / {_fmt(report.n_t_fallback)}"),
        ("synthesis timesteps", _fmt(report.t_synth_timesteps)),
        ("timesteps per step", _fmt(report.timesteps_per_step)),
        ("active cubes per step", _fmt(report.cubes_per_step)),
        ("T states per step", _fmt(report.t_states_per_step)),
        ("transversal CNOTs per step", _fmt(report.transversal_cnots_per_step)),
        ("total cubes", _fmt(report.n_l_total)),
        ("total T states", _fmt(report.n_t_total)),
        ("logical error target", _fmt(report.p_l_target)),
        ("magic state fidelity target", _fmt(report.p_msf_target)),
        ("patch (w x h, rounds)", f"{report.geometry.width} x {report.geometry.height}, {report.geometry.rounds}"),
        ("logical cycle", f"{report.logical_cycle_ns / 1000:.3g} us"),
        ("patches total / factory", f"{report.floorplan.total_patches} / {report.floorplan.msf_patches}"),
        ("factory protocol", report.msf_protocol),
        ("factories", str(report.msf_factories)),
        ("factory qubits required / available",
         f"{_fmt(report.msf_qubits_required)} / {report.msf_qubits_available}"),
        ("corridor capacity ratio",
         _fmt(corridor_capacity_check(report.floorplan, report.geometry,
                                      report.msf_qubits_required))),
        ("physical qubits", f"{report.physical_qubits:,}"),
        ("runtime", f"{report.runtime_seconds:.4g} s ({report.runtime_seconds / 3600:.2f} h)"),
        ("iterations to converge", str(report.iterations)),
    ]
    width = max(len(k) for k, _ in rows)
    print(f"resource estimate ({args.precision} precision)")
    for k, v in rows:
        print(f"  {k:<{width}}  {v}")
    sp_ts, sp_rt = report.single_plane_comparison()
    print(f"  {'single-plane comparison':<{width}}  "
          f"{_fmt(sp_ts)} timesteps/step, {sp_rt:.4g} s ({sp_rt / 3600:.2f} h)")

    if args.precision == "headline":
        real = solve_estimate(spec, noise, budget,
                              cfgmod.options_from(cfg, precision="real"))
        print("high-precision mode (no integer snapping):")
        print(f"  T per rotation / fallback: {_fmt(real.n_t_per_rotation)} / "
              f"{_fmt(real.n_t_fallback)}; synthesis timesteps {_fmt(real.t_synth_timesteps)}")
        print(f"  cubes per step {_fmt(real.cubes_per_step)}; "
              f"runtime {real.runtime_seconds:.4g} s; "
              f"physical qubits {real.physical_qubits:,}")

    if args.out:
        with _open_out(args.out) as f:
            for key, value in report.key_values().items():
                f.write(f"{key} = {_fmt(value)}\n")
        print(f"wrote {args.out}")
    return 0


def cmd_sweep(args) -> int:
    """One CSV row per value, written as soon as it is solved, so an error
    at a later value keeps the rows before it."""
    import contextlib
    import csv

    from . import config as cfgmod
    from .pipeline import solve_estimate

    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise InvalidParameterError("--values must list at least one value")
    with contextlib.ExitStack() as stack:
        sink = writer = None
        for value in values:
            cfg_overrides = list(args.overrides) + [f"{args.key}={value}"]
            cfg = cfgmod.load_config(args.config, cfg_overrides)
            report = solve_estimate(
                cfgmod.problem_from(cfg), cfgmod.noise_from(cfg),
                cfgmod.budget_from(cfg), cfgmod.options_from(cfg, args.precision),
            )
            kv = report.key_values()
            if writer is None:
                sink = (stack.enter_context(_open_out(args.out, newline=""))
                        if args.out else sys.stdout)
                writer = csv.writer(sink)
                writer.writerow([args.key] + list(kv))
            writer.writerow([value] + [_fmt(v) for v in kv.values()])
            sink.flush()
    return 0


def cmd_fit(args) -> int:
    from . import config as cfgmod
    from .surgery import LADDER_WIDTHS, extrapolate_error, fit_error_curve, ladder_rungs, load_error_data

    cfg = cfgmod.load_config(args.config, args.overrides)
    points = load_error_data(cfg["data.lattice_surgery_csv"])
    fit = fit_error_curve(points)
    print(f"model n*exp(a*sqrt(n) - b): a = {fit.a:.6f}, b = {fit.b:.6f}")
    print(f"{'w':>4} {'h':>4} {'rounds':>6} {'qubits':>6} {'fitted E':>12}")
    for geo in ladder_rungs(LADDER_WIDTHS[-1]):
        print(f"{geo.width:>4} {geo.height:>4} {geo.rounds:>6} {geo.qubits:>6} "
              f"{extrapolate_error(fit, geo.width):>12.3e}")
    return 0


def cmd_verify_noise(args) -> int:
    from .noise import (GATE_SIGMAS, GATE_TAIL, AttemptCaps, binomial_sigma, binomial_tail,
                        cycle_outcome_distribution, derive_noise_params,
                        heralded_cz_distribution, heralded_mzz_distribution, mc_rus_oracle)

    params = derive_noise_params(args.p)
    caps = AttemptCaps(n_rus=args.n_rus)
    cycle = cycle_outcome_distribution(params.epsilon, params.distinguishability)
    failed = False
    for kind, closed in (
        ("cz", heralded_cz_distribution(params, caps)),
        ("mzz", heralded_mzz_distribution(params, caps)),
    ):
        empirical = mc_rus_oracle(cycle, caps, args.trials, args.seed, kind=kind)
        print(f"RUS-{kind.upper()}  ({args.trials:,} trials, seed {args.seed})")
        print(f"  {'category':<24} {'closed form':>13} {'empirical':>13} {'dev/sigma':>10}")
        for outcome in closed.outcomes:
            p = outcome.probability
            emp = empirical.probability(outcome.label)
            sigma = binomial_sigma(p, args.trials)
            dev = abs(emp - p) / sigma if sigma > 0 else (0.0 if emp == p else float("inf"))
            if p * args.trials < GATE_SIGMAS**2:
                off = binomial_tail(round(emp * args.trials), args.trials, p) < GATE_TAIL
            else:
                off = dev > GATE_SIGMAS
            flag = ""
            if off:
                flag = "  FAIL"
                failed = True
            print(f"  {outcome.label:<24} {p:>13.6e} {emp:>13.6e} {dev:>10.2f}{flag}")
    verdict = "FAIL: a category deviates beyond" if failed else "all categories within"
    print(f"{verdict} {GATE_SIGMAS:g} sigma")
    return 1 if failed else 0


def cmd_verify_plaquette(args) -> int:
    from . import plaquette

    # a flag left out takes run_verification's own default
    given = {name: value for name, value in vars(args).items()
             if name in ("n_angles", "seed", "tolerance")}
    report = plaquette.run_verification(**given)
    bad_relations = [k for k, ok in report["relations"].items() if not ok]
    print(f"operator relations: {len(report['relations']) - len(bad_relations)}"
          f"/{len(report['relations'])} hold")
    for name in bad_relations:
        print(f"  FAIL {name}")
    for name, dev in report["clifford"].items():
        print(f"  {name}: deviation {dev:.3e}")
    worst_evo = max(report["evolution"].values())
    worst_fourier = max(report["fourier"].values())
    print(f"time-evolution identity over {len(report['evolution'])} angles: "
          f"worst deviation {worst_evo:.3e}")
    print(f"fourier-conjugation identity: worst deviation {worst_fourier:.3e}")
    print("PASS" if report["passed"] else "FAIL")
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftcost",
        description="Fault-tolerant resource estimation for Hubbard-model dynamics "
                    "on a biplanar honeycomb-code photonic architecture.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="run the full resource estimate")
    _add_config_args(p)
    p.add_argument("--precision", choices=PRECISIONS, default="headline")
    p.add_argument("--out", help="write the machine-readable report here")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", help="vary one config key over a list of values")
    _add_config_args(p)
    p.add_argument("--key", required=True, help="config key to sweep")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--precision", choices=PRECISIONS, default="headline")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", help="fit the cube error curve and print the ladder")
    _add_config_args(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("verify-noise", help="Monte-Carlo check of the heralded closed forms")
    p.add_argument("--p", type=float, default=0.01, help="overall noise intensity")
    p.add_argument("--n-rus", type=int, default=DEFAULT_N_RUS)
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=2026)
    p.set_defaults(func=cmd_verify_noise)

    p = sub.add_parser("verify-plaquette", help="dense checks of the plaquette algebra")
    p.add_argument("--angles", dest="n_angles", type=int, default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--tolerance", type=float, default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify_plaquette)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            status = args.func(args)
        except (InvalidParameterError, NoDistanceFoundError, NoProtocolError, FitError) as exc:
            print(f"ftcost {args.command}: error: {exc}", file=sys.stderr)
            status = 2
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the reader of stdout has gone; the interpreter flushes stdout again
        # at exit, so point it at devnull to end without a second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
