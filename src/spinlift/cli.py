"""Command-line interface.

Subcommands:

* ``equilibrium``  print tension, thrust, tilt, optimal spin rate, and power
  for one operating point
* ``sweep-beta``   power vs tether angle (CSV, optional SVG)
* ``sweep-omega``  power vs spin rate at fixed tether angle (CSV, optional SVG)
* ``fly``          run one hover scenario (trajectory + command CSVs, summary)
* ``compare``      static vs rotating metered power over a tether-angle grid

Exit codes: 0 success, 1 usage error, 2 model/synthesis error,
3 integration failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import equilibrium as eqm
from . import harness
from .control import command_log_to_csv
from .dynamics import IntegrationBlowupError, trajectory_to_csv
from .model import (ConfigError, ParamError, SystemParams, default_thrust_limit,
                    load_params)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MODEL = 2
EXIT_INTEGRATION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    """argparse type of a grid size: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _beta_grid(text: str) -> list[float]:
    """argparse type of ``--betas``: comma-separated angles [deg], at least one."""
    try:
        betas = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        betas = []
    if not betas:
        raise argparse.ArgumentTypeError(f"must be comma-separated angles, got {text!r}")
    return betas


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--params", metavar="FILE",
                        help="config file overriding the built-in defaults")
    common.add_argument("--out", metavar="DIR", default=".",
                        help="output directory for CSV/SVG files (default: .)")

    parser = _Parser(prog="spinlift",
                     description="Dual-quadrotor tethered transport: simulation "
                                 "and hover-power analysis")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_eq = sub.add_parser("equilibrium", parents=[common],
                          help="print one operating point")
    p_eq.add_argument("--beta", type=float, required=True, help="tether angle [deg]")
    group = p_eq.add_mutually_exclusive_group()
    group.add_argument("--omega", type=float, default=0.0, help="spin rate [rad/s]")
    group.add_argument("--opt", action="store_true",
                       help="use the optimal spin rate for this angle")

    p_sb = sub.add_parser("sweep-beta", parents=[common],
                          help="power vs tether angle")
    p_sb.add_argument("--min", type=float, required=True, help="first angle [deg]")
    p_sb.add_argument("--max", type=float, required=True, help="last angle [deg]")
    p_sb.add_argument("--n", type=_positive_int, required=True, help="number of grid points")
    p_sb.add_argument("--mode", choices=["static", "rotating"], required=True)
    p_sb.add_argument("--svg", metavar="PATH", help="also render a chart")

    p_so = sub.add_parser("sweep-omega", parents=[common],
                          help="power vs spin rate at fixed angle")
    p_so.add_argument("--beta", type=float, required=True, help="tether angle [deg]")
    p_so.add_argument("--max-omega", type=float, required=True, help="grid end [rad/s]")
    p_so.add_argument("--n", type=_positive_int, required=True, help="number of grid points")
    p_so.add_argument("--svg", metavar="PATH", help="also render a chart")

    p_fly = sub.add_parser("fly", parents=[common], help="run one hover scenario")
    p_fly.add_argument("--mode", choices=["static", "rotating"], required=True)
    p_fly.add_argument("--beta", type=float, required=True, help="tether angle [deg]")
    p_fly.add_argument("--duration", type=float, default=harness.ScenarioSpec.hover,
                       help="hover duration [s]")
    p_fly.add_argument("--perturb", type=float, default=0.0,
                       help="initial horizontal payload offset [m]")

    p_cmp = sub.add_parser("compare", parents=[common],
                           help="static vs rotating power comparison")
    p_cmp.add_argument("--betas", type=_beta_grid, default=list(harness.DEFAULT_BETA_GRID_DEG),
                       help="comma-separated tether angles [deg]")
    p_cmp.add_argument("--svg", metavar="PATH", help="also render a grouped bar chart")
    return parser


def _load(args) -> SystemParams:
    if args.params:
        return load_params(Path(args.params).read_text())
    return SystemParams()


def _write(out_dir: str, name: str, content: str) -> Path:
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content)
    print(f"wrote {path}")
    return path


def _cmd_equilibrium(args, params: SystemParams) -> int:
    beta = math.radians(args.beta)
    w_star = eqm.omega_star(beta, params)
    omega = w_star if args.opt else args.omega
    tension = eqm.tension_at_equilibrium(beta, params)
    thrust = eqm.thrust_magnitude(beta, omega, params)
    tilt = eqm.tilt_angle(beta, omega, params)
    report = eqm.power(thrust, params, beta=beta, omega_c=omega)
    print(f"beta            = {args.beta:.6g} deg")
    print(f"omega_C         = {omega:.6g} rad/s")
    print(f"omega_star      = {w_star:.6g} rad/s")
    print(f"tension         = {tension:.6g} N")
    print(f"thrust/vehicle  = {thrust:.6g} N")
    print(f"tilt            = {math.degrees(tilt):.6g} deg")
    print(f"power/vehicle   = {report.P_per_vehicle:.6g} W")
    print(f"power total     = {report.P_total:.6g} W")
    print(f"tangential vel  = {omega * params.ell * math.sin(beta):.6g} m/s")
    return EXIT_OK


def _report_failures(result: eqm.SweepResult, unit=float) -> None:
    """List skipped grid points in the option's unit (``unit`` converts);
    refuse, before anything is written, a grid with no point left."""
    for value, message in result.failures:
        print(f"skipped grid point {unit(value):.6g}: {message}", file=sys.stderr)
    if not result.reports:
        raise ValueError(f"all {len(result.failures)} grid points were skipped; "
                         "nothing written")


def _cmd_sweep_beta(args, params: SystemParams) -> int:
    grid = np.radians(np.linspace(args.min, args.max, args.n))
    static, rotating = (eqm.sweep_beta(grid, m, params) for m in ("static", "rotating_opt"))
    result = static if args.mode == "static" else rotating
    _report_failures(result, math.degrees)
    _write(args.out, f"sweep_beta_{args.mode}.csv", eqm.sweep_to_csv(result, params))
    if args.svg:
        _write(".", args.svg, harness.sweep_beta_svg(static, rotating))
    return EXIT_OK


def _cmd_sweep_omega(args, params: SystemParams) -> int:
    beta = math.radians(args.beta)
    grid = np.linspace(0.0, args.max_omega, args.n)
    result = eqm.sweep_omega(beta, grid, params)
    _report_failures(result)
    _write(args.out, "sweep_omega.csv", eqm.sweep_to_csv(result, params))
    if args.svg:
        _write(".", args.svg, harness.sweep_omega_svg([result]))
    return EXIT_OK


def _cmd_fly(args, params: SystemParams) -> int:
    spec = harness.ScenarioSpec(
        mode=args.mode, beta=math.radians(args.beta), hover=args.duration,
        perturb_payload=args.perturb,
        metering_window=min(harness.ScenarioSpec.metering_window, args.duration))
    traj, summary = harness.run_scenario(spec, params)
    tag = f"{args.mode}_beta{args.beta:g}"
    _write(args.out, f"trajectory_{tag}.csv", trajectory_to_csv(traj))
    _write(args.out, f"command_log_{tag}.csv",
           command_log_to_csv(traj, default_thrust_limit(params)))
    print("summary = {")
    print(f"  mean_P_total_W: {summary.mean_P_total:.6g},")
    print(f"  std_P_total_W: {summary.std_P_total:.6g},")
    print(f"  mean_tilt_deg: [{math.degrees(summary.mean_tilt_1):.6g}, "
          f"{math.degrees(summary.mean_tilt_2):.6g}],")
    print(f"  max_payload_deviation_m: {summary.max_payload_deviation:.6g},")
    print(f"  mean_omega_achieved_rad_s: {summary.mean_omega_achieved:.6g},")
    print(f"  mean_beta_measured_deg: {math.degrees(summary.mean_beta_measured):.6g},")
    print(f"  phase_durations_s: {summary.phase_durations},")
    print(f"  n_samples: {summary.n_samples},")
    print("}")
    return EXIT_OK


def _cmd_compare(args, params: SystemParams) -> int:
    table = harness.compare_modes([math.radians(b) for b in args.betas], params)
    for row in table.rows:
        for err in (row.static_error, row.rotating_error):
            if err:
                print(f"beta={math.degrees(row.beta):.4g} deg: {err}", file=sys.stderr)
    if all(row.saving is None for row in table.rows):
        raise ValueError(f"no angle flew in both modes ({len(table.rows)} tried); "
                         "nothing written")
    svg = harness.comparison_svg(table) if args.svg else None
    _write(args.out, "compare.csv", harness.comparison_to_csv(table))
    if svg is not None:
        _write(".", args.svg, svg)
    for row in table.rows:
        if row.saving is not None:
            print(f"beta={math.degrees(row.beta):6.2f} deg  "
                  f"P_static={row.static_mean:8.3f} W  "
                  f"P_rotating={row.rotating_mean:8.3f} W  "
                  f"saving={100 * row.saving:5.2f}%")
    return EXIT_OK


_HANDLERS = {
    "equilibrium": _cmd_equilibrium,
    "sweep-beta": _cmd_sweep_beta,
    "sweep-omega": _cmd_sweep_omega,
    "fly": _cmd_fly,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        params = _load(args)
        return _HANDLERS[args.command](args, params)
    except (ConfigError, ParamError, FileNotFoundError) as exc:
        print(f"spinlift: parameter error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (harness.SimulationFailed, IntegrationBlowupError) as exc:
        print(f"spinlift: integration failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except (harness.ScenarioError, ValueError) as exc:
        print(f"spinlift: model error: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
