"""Scenario runner: flight phases, power metering, and mode comparison.

A run executes takeoff (simplified to spawning at the non-spinning
equilibrium), an optional spin-up ramp, a hover at the target operating
point, an optional spin-down ramp, and landing (a trailing static hold).
Instantaneous aerodynamic power is metered from the actual (lagged) thrust
magnitudes, and summary statistics are computed over the final part of the
hover to exclude transients (20 s of a 40 s hover by default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import equilibrium as eqm
from .control import ControllerConfig, SpinProfile, control_step
from .dynamics import IntegrationBlowupError, Trajectory, simulate
from .lqr import LinearizationError, SynthesisError, gain_cache_key, synthesize
from .model import SystemParams, SystemState, vec3
from .svgplot import grouped_bar_chart, line_chart

__all__ = [
    "ScenarioSpec",
    "RunSummary",
    "ScenarioError",
    "SimulationFailed",
    "run_scenario",
    "ComparisonRow",
    "ComparisonTable",
    "compare_modes",
    "comparison_to_csv",
    "DEFAULT_BETA_GRID_DEG",
    "sweep_beta_svg",
    "sweep_omega_svg",
    "comparison_svg",
]

DEFAULT_BETA_GRID_DEG = (30.0, 37.5, 45.0, 52.5, 60.0)


class ScenarioError(RuntimeError):
    """A run failed; message carries the phase and time."""


class SimulationFailed(ScenarioError):
    """Integration blew up mid-run."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


@dataclass(frozen=True)
class ScenarioSpec:
    """One flight: mode, operating point, phase durations, metering window."""

    mode: str                      # "static" | "rotating"
    beta: float                    # [rad]
    omega: float | None = None     # [rad/s]; None = omega_star(beta)
    takeoff: float = 0.0           # [s] static hold before spinning
    spin_up: float = 8.0           # [s] ramp duration (rotating mode)
    hover: float = 40.0            # [s]
    spin_down: float = 8.0         # [s]
    land: float = 0.0              # [s] trailing static hold
    metering_window: float = 20.0  # [s], taken from the end of the hover
    perturb_payload: float = 0.0   # [m] initial horizontal payload offset
    output_decimation: int | None = None

    def __post_init__(self):
        if self.mode not in ("static", "rotating"):
            raise ValueError(f"mode must be 'static' or 'rotating', got {self.mode!r}")
        for name in ("takeoff", "spin_up", "hover", "spin_down", "land"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        if not 0.0 < self.metering_window <= self.hover:
            raise ValueError("metering window must be positive and at most the hover duration")


@dataclass(frozen=True)
class RunSummary:
    """Statistics over the metering window of one run."""

    mean_P_total: float        # [W]
    std_P_total: float         # [W]
    mean_tilt_1: float         # [rad]
    mean_tilt_2: float         # [rad]
    max_payload_deviation: float  # [m] from the setpoint
    mean_omega_achieved: float    # [rad/s]
    mean_beta_measured: float     # [rad]
    phase_durations: dict = field(default_factory=dict)
    n_samples: int = 0


def _phase_plan(spec: ScenarioSpec, omega_target: float) -> tuple[SpinProfile, dict]:
    if spec.mode == "static":
        profile = SpinProfile(omega_target=0.0, t_static=0.0, t_ramp_up=0.0,
                              t_hover=0.0, t_ramp_down=0.0)
        durations = {"takeoff": spec.takeoff, "spin_up": 0.0, "hover": spec.hover,
                     "spin_down": 0.0, "land": spec.land}
    else:
        profile = SpinProfile(omega_target=omega_target, t_static=spec.takeoff,
                              t_ramp_up=spec.spin_up, t_hover=spec.hover,
                              t_ramp_down=spec.spin_down)
        durations = {"takeoff": spec.takeoff, "spin_up": spec.spin_up,
                     "hover": spec.hover, "spin_down": spec.spin_down,
                     "land": spec.land}
    return profile, durations


def _power_series(traj: Trajectory, params: SystemParams, eta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    denom = params.r_p * math.sqrt(2.0 * math.pi * params.rho * params.N_p)
    n1 = np.linalg.norm(traj.T_act_1, axis=1)
    n2 = np.linalg.norm(traj.T_act_2, axis=1)
    p1 = n1 ** 1.5 / denom / eta
    p2 = n2 ** 1.5 / denom / eta
    return p1, p2, p1 + p2


def _tilt_series(T: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(T, axis=1)
    cosines = np.clip(T[:, 2] / np.maximum(norms, 1e-12), -1.0, 1.0)
    return np.arccos(cosines)


def _omega_series(traj: Trajectory, origin: np.ndarray) -> np.ndarray:
    rel = traj.x_1 - origin
    r_sq = rel[:, 0] ** 2 + rel[:, 1] ** 2
    num = rel[:, 0] * traj.v_1[:, 1] - rel[:, 1] * traj.v_1[:, 0]
    return np.where(r_sq > 1e-12, num / np.maximum(r_sq, 1e-12), 0.0)


def _beta_series(traj: Trajectory) -> np.ndarray:
    rel = traj.x_1 - traj.x_p
    norms = np.linalg.norm(rel, axis=1)
    cosines = np.clip(rel[:, 2] / np.maximum(norms, 1e-12), -1.0, 1.0)
    return np.arccos(cosines)


def run_scenario(spec: ScenarioSpec, params: SystemParams, eta: float = 1.0,
                 gain_cache: dict | None = None) -> tuple[Trajectory, RunSummary]:
    """Execute one flight and meter it.

    ``eta`` optionally rescales reported power (an overall powertrain
    efficiency factor for comparison against real hardware; the default 1.0
    reports the bare aerodynamic model). ``gain_cache`` maps
    :func:`spinlift.lqr.gain_cache_key` of (beta, omega, params) to the
    operating point and its GainSet and is filled on demand, letting
    comparison grids reuse synthesis work.
    """
    omega_target = spec.omega
    if omega_target is None:
        omega_target = eqm.omega_star(spec.beta, params) if spec.mode == "rotating" else 0.0
    if spec.mode == "static":
        omega_target = 0.0

    profile, durations = _phase_plan(spec, omega_target)
    duration = sum(durations.values())
    if duration <= 0.0:
        raise ScenarioError("scenario has zero total duration")

    cache = gain_cache if gain_cache is not None else {}

    def operating_point(omega_value: float) -> tuple:
        key = gain_cache_key(spec.beta, omega_value, params)
        if key not in cache:
            eq_spec, eq_state, _ = eqm.build_equilibrium(spec.beta, omega_value, params)
            try:
                gains = synthesize(eq_spec, params)
            except (SynthesisError, LinearizationError) as exc:
                raise ScenarioError(f"gain synthesis failed at beta={spec.beta:.4f}, "
                                    f"omega={omega_value:.4f}: {exc}") from exc
            cache[key] = (eq_spec, eq_state, gains)
        return cache[key]

    eq_s, state_s, g_s = operating_point(0.0)
    cfg_static = ControllerConfig(gain=g_s, eq=eq_s, params=params, profile=profile)
    if spec.mode == "rotating":
        eq_r, state_r, g_r = operating_point(omega_target)
        cfg_spin = ControllerConfig(gain=g_r, eq=eq_r, params=params, profile=profile)
    else:
        cfg_spin = cfg_static
    # spawn at the equilibrium matching the initial spin rate
    initial_state = state_s if profile.omega(0.0) == 0.0 else state_r

    if spec.perturb_payload != 0.0:
        # rigid horizontal offset of the whole formation: displaces the
        # payload from its setpoint while keeping tethers at their
        # equilibrium geometry (a payload-only shift would slam one tether
        # slack and snap-load the other)
        offset = vec3(spec.perturb_payload, 0.0, 0.0)
        initial_state = initial_state.replace(
            x_p=initial_state.x_p + offset,
            x_1=initial_state.x_1 + offset,
            x_2=initial_state.x_2 + offset)

    spin_start = durations["takeoff"]
    spin_end = spin_start + durations["spin_up"] + durations["hover"] + durations["spin_down"]

    def controller(state: SystemState):
        cfg = cfg_spin if spin_start <= state.t < spin_end else cfg_static
        return control_step(state, cfg, state.t)

    try:
        traj = simulate(initial_state, controller, profile.omega, params,
                        duration, output_decimation=spec.output_decimation)
    except IntegrationBlowupError as exc:
        phase = _phase_at(exc.t, durations)
        raise SimulationFailed(f"integration blew up at t={exc.t:.3f} s "
                               f"(phase: {phase})", exc.t) from exc

    hover_end = spin_start + durations["spin_up"] + durations["hover"]
    window = (hover_end - spec.metering_window, hover_end)
    summary = summarize(traj, params, window, durations, eta=eta)
    return traj, summary


def _phase_at(t: float, durations: dict) -> str:
    edge = 0.0
    for name in ("takeoff", "spin_up", "hover", "spin_down", "land"):
        edge += durations[name]
        if t <= edge:
            return name
    return "land"


def summarize(traj: Trajectory, params: SystemParams, window: tuple[float, float],
              durations: dict, eta: float = 1.0,
              origin=eqm.DEFAULT_PAYLOAD_POSITION) -> RunSummary:
    """Metering-window statistics for a finished trajectory."""
    t0, t1 = window
    mask = (traj.t >= t0 - 1e-9) & (traj.t <= t1 + 1e-9)
    if not np.any(mask):
        raise ValueError("metering window contains no samples")
    _, _, p_tot = _power_series(traj, params, eta)
    origin = np.asarray(origin, dtype=float)

    tilt1 = _tilt_series(traj.T_act_1)[mask]
    tilt2 = _tilt_series(traj.T_act_2)[mask]
    deviation = np.linalg.norm(traj.x_p - origin, axis=1)[mask]
    omega_meas = _omega_series(traj, origin)[mask]
    beta_meas = _beta_series(traj)[mask]

    return RunSummary(
        mean_P_total=float(np.mean(p_tot[mask])),
        std_P_total=float(np.std(p_tot[mask])),
        mean_tilt_1=float(np.mean(tilt1)),
        mean_tilt_2=float(np.mean(tilt2)),
        max_payload_deviation=float(np.max(deviation)),
        mean_omega_achieved=float(np.mean(omega_meas)),
        mean_beta_measured=float(np.mean(beta_meas)),
        phase_durations=dict(durations),
        n_samples=int(np.sum(mask)),
    )


@dataclass(frozen=True)
class ComparisonRow:
    beta: float                    # [rad]
    static_mean: float | None     # [W]
    static_std: float | None
    rotating_mean: float | None
    rotating_std: float | None
    saving: float | None           # (P_s - P_r) / P_s
    static_error: str | None = None
    rotating_error: str | None = None


@dataclass(frozen=True)
class ComparisonTable:
    rows: list[ComparisonRow]


def compare_modes(beta_grid, params: SystemParams, hover: float = 40.0,
                  metering_window: float = 20.0, spin_up: float = 8.0,
                  spin_down: float = 8.0, eta: float = 1.0) -> ComparisonTable:
    """Static vs rotating-at-omega_star power over a tether-angle grid.

    Each grid cell runs independently; failures are recorded in the row and
    the table completes.
    """
    rows: list[ComparisonRow] = []
    cache: dict = {}
    for beta in beta_grid:
        means: dict[str, float | None] = {"static": None, "rotating": None}
        stds: dict[str, float | None] = {"static": None, "rotating": None}
        errors: dict[str, str | None] = {"static": None, "rotating": None}
        for mode in ("static", "rotating"):
            try:
                spec = ScenarioSpec(
                    mode=mode, beta=float(beta), hover=hover,
                    metering_window=metering_window,
                    spin_up=spin_up if mode == "rotating" else 0.0,
                    spin_down=spin_down if mode == "rotating" else 0.0,
                )
                _, summary = run_scenario(spec, params, eta=eta, gain_cache=cache)
                means[mode] = summary.mean_P_total
                stds[mode] = summary.std_P_total
            except (ScenarioError, eqm.SingularityError, ValueError) as exc:
                errors[mode] = str(exc)
        saving = None
        if means["static"] is not None and means["rotating"] is not None:
            saving = (means["static"] - means["rotating"]) / means["static"]
        rows.append(ComparisonRow(
            beta=float(beta), static_mean=means["static"], static_std=stds["static"],
            rotating_mean=means["rotating"], rotating_std=stds["rotating"],
            saving=saving, static_error=errors["static"],
            rotating_error=errors["rotating"]))
    return ComparisonTable(rows=rows)


_COMPARE_HEADER = ("beta_deg,P_static_mean_W,P_static_std_W,"
                   "P_rotating_mean_W,P_rotating_std_W,saving_frac,error")


def comparison_to_csv(table: ComparisonTable) -> str:
    lines = [_COMPARE_HEADER]
    for row in table.rows:
        def cell(v):
            return "" if v is None else repr(float(v))
        err = "; ".join(filter(None, [row.static_error, row.rotating_error]))
        lines.append(",".join([
            repr(math.degrees(row.beta)), cell(row.static_mean), cell(row.static_std),
            cell(row.rotating_mean), cell(row.rotating_std), cell(row.saving),
            f'"{err}"' if err else "",
        ]))
    return "\n".join(lines) + "\n"


def sweep_beta_svg(static: eqm.SweepResult, rotating: eqm.SweepResult) -> str:
    """Two-curve total-power plot: rising static curve, flat rotating curve."""
    if not static.reports and not rotating.reports:
        raise ValueError("no data to plot")
    series = []
    for label, result in (("static", static), ("rotating (optimal)", rotating)):
        if result.reports:
            xs = [math.degrees(r.beta) for r in result.reports]
            ys = [r.P_total for r in result.reports]
            series.append((label, xs, ys))
    return line_chart(series, xlabel="tether angle [deg]",
                      ylabel="total power [W]",
                      title="Hover power vs tether angle")


def sweep_omega_svg(results: list[eqm.SweepResult]) -> str:
    """Power vs spin rate, one curve per tether angle."""
    series = []
    for result in results:
        if not result.reports:
            continue
        beta_deg = math.degrees(result.reports[0].beta)
        xs = [r.omega_C for r in result.reports]
        ys = [r.P_total for r in result.reports]
        series.append((f"beta = {beta_deg:.3g} deg", xs, ys))
    if not series:
        raise ValueError("no data to plot")
    return line_chart(series, xlabel="spin rate [rad/s]",
                      ylabel="total power [W]",
                      title="Hover power vs spin rate")


def comparison_svg(table: ComparisonTable) -> str:
    """Grouped bars of metered power, static vs rotating, per tether angle."""
    rows = [r for r in table.rows if r.static_mean is not None and r.rotating_mean is not None]
    if not rows:
        raise ValueError("no data to plot")
    categories = [f"{math.degrees(r.beta):.3g}" for r in rows]
    groups = [
        ("static", [r.static_mean for r in rows], [r.static_std for r in rows]),
        ("rotating", [r.rotating_mean for r in rows], [r.rotating_std for r in rows]),
    ]
    return grouped_bar_chart(categories, groups, xlabel="tether angle [deg]",
                             ylabel="metered total power [W]",
                             title="Static vs rotating hover power")
