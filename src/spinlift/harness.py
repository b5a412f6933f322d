"""Scenario runner: flight phases, power metering, and mode comparison.

A flight has one operating point (omega = 0 for a static run, omega* for a
rotating one) and one controller. It spawns at the equilibrium matching the
initial spin rate and runs an optional spin-up ramp, a hover at the target
operating point and an optional spin-down ramp; static runs have no ramps.
The phase edges, the flight's length and the phase a failure falls in all
come from the flight's :class:`~spinlift.control.SpinProfile`.
Instantaneous aerodynamic power is metered from the actual (lagged) thrust
magnitudes, and summary statistics are computed over the final part of the
hover to exclude transients (20 s of a 40 s hover by default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import equilibrium as eqm
from .control import ControllerConfig, SpinProfile, _check_durations, control_step
from .dynamics import IntegrationBlowupError, Trajectory, simulate
from .lqr import LinearizationError, SynthesisError, synthesize
from .model import _COUNT, SystemParams, table_text
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
    spin_up: float = 8.0           # [s] ramp duration (rotating mode)
    hover: float = 40.0            # [s]
    spin_down: float = 8.0         # [s] (rotating mode)
    metering_window: float = 20.0  # [s], taken from the end of the hover
    perturb_payload: float = 0.0   # [m] initial horizontal payload offset, at most ell
    output_decimation: int | None = None  # physics steps per stored sample (None: per tick)

    def __post_init__(self):
        if self.mode not in ("static", "rotating"):
            raise ValueError(f"mode must be 'static' or 'rotating', got {self.mode!r}")
        _check_durations(self, ("spin_up", "hover", "spin_down"))
        if not math.isfinite(self.perturb_payload):
            raise ValueError(f"perturb_payload must be finite, got {self.perturb_payload!r}")
        if not 0.0 < self.metering_window <= self.hover:
            raise ValueError("metering window must be positive and at most the hover duration")
        dec = self.output_decimation
        if dec is not None and not _COUNT[1](dec):
            raise ValueError(f"output_decimation must be None or a positive integer, got {dec!r}")


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


def _angle_from_vertical(vectors: np.ndarray) -> np.ndarray:
    """Angle [rad] between each row of an (n, 3) array and the +z axis."""
    norms = np.linalg.norm(vectors, axis=1)
    cosines = np.clip(vectors[:, 2] / np.maximum(norms, 1e-12), -1.0, 1.0)
    return np.arccos(cosines)


def _omega_series(traj: Trajectory, origin: np.ndarray) -> np.ndarray:
    rel = traj.x_1 - origin
    r_sq = rel[:, 0] ** 2 + rel[:, 1] ** 2
    num = rel[:, 0] * traj.v_1[:, 1] - rel[:, 1] * traj.v_1[:, 0]
    return np.where(r_sq > 1e-12, num / np.maximum(r_sq, 1e-12), 0.0)


def run_scenario(spec: ScenarioSpec, params: SystemParams) -> tuple[Trajectory, RunSummary]:
    """Execute one flight and meter it.

    Refused with a ValueError: an offset beyond ``ell``, and a metering
    window shorter than two control periods, which would meter an open-loop
    flight on one stored sample.
    """
    if abs(spec.perturb_payload) > params.ell:
        raise ValueError(f"perturb_payload must be within the tether length "
                         f"ell = {params.ell!r} m, got {spec.perturb_payload!r}")
    if params.f_ctrl * spec.metering_window < 2.0:
        raise ValueError(f"metering window {spec.metering_window!r} s holds fewer than two "
                         f"control ticks at f_ctrl = {params.f_ctrl!r} Hz")
    rotating = spec.mode == "rotating"
    omega_target = eqm.omega_star(spec.beta, params) if rotating else 0.0
    profile = SpinProfile(omega_target=omega_target,
                          t_ramp_up=spec.spin_up if rotating else 0.0, t_hover=spec.hover,
                          t_ramp_down=spec.spin_down if rotating else 0.0)

    eq_spec, _, _ = eqm.build_equilibrium(spec.beta, omega_target, params)
    try:
        gains = synthesize(eq_spec, params)
    except (SynthesisError, LinearizationError) as exc:
        raise ScenarioError(f"gain synthesis failed at beta={spec.beta:.4f}, "
                            f"omega={omega_target:.4f}: {exc}") from exc
    cfg = ControllerConfig(gain=gains, eq=eq_spec, params=params, profile=profile)
    _, spawn, _ = eqm.build_equilibrium(spec.beta, profile.omega(0.0), params)
    initial = list(spawn)
    # rigid horizontal offset of the whole formation (x of the payload and
    # both vehicles): displaces the payload from its setpoint while keeping
    # tethers at their equilibrium geometry (a payload-only shift would slam
    # one tether slack and snap-load the other)
    for i in (0, 6, 12):
        initial[i] += spec.perturb_payload

    try:
        traj = simulate(initial, lambda y, t: control_step(y, cfg, t),
                        profile.theta, params, profile.duration,
                        output_decimation=spec.output_decimation)
    except IntegrationBlowupError as exc:
        raise SimulationFailed(f"integration blew up at t={exc.t:.3f} s "
                               f"(phase: {profile.phase_at(exc.t)})", exc.t) from exc

    window = (profile.hover_end - spec.metering_window, profile.hover_end)
    return traj, summarize(traj, params, window, profile.phase_durations)


def summarize(traj: Trajectory, params: SystemParams, window: tuple[float, float],
              durations: dict) -> RunSummary:
    """Metering-window statistics for a finished trajectory."""
    t0, t1 = window
    mask = (traj.t >= t0 - 1e-9) & (traj.t <= t1 + 1e-9)
    if not np.any(mask):
        raise ValueError("metering window contains no samples")
    p_tot = (eqm.rotor_power(np.linalg.norm(traj.T_act_1, axis=1), params)
             + eqm.rotor_power(np.linalg.norm(traj.T_act_2, axis=1), params))
    origin = np.asarray(eqm.DEFAULT_PAYLOAD_POSITION, dtype=float)

    tilt1 = _angle_from_vertical(traj.T_act_1)[mask]
    tilt2 = _angle_from_vertical(traj.T_act_2)[mask]
    deviation = np.linalg.norm(traj.x_p - origin, axis=1)[mask]
    omega_meas = _omega_series(traj, origin)[mask]
    beta_meas = _angle_from_vertical(traj.x_1 - traj.x_p)[mask]

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


def compare_modes(beta_grid, params: SystemParams, **protocol) -> ComparisonTable:
    """Static vs rotating-at-omega_star power over a tether-angle grid.

    ``protocol`` holds the :class:`ScenarioSpec` phase and metering fields
    that every flight shares. Each grid cell runs independently; failures are
    recorded in the row and the table completes. Static flights have no ramps.
    """
    rows: list[ComparisonRow] = []
    for beta in map(float, beta_grid):
        cells = []  # (mean, std, error) of each flight
        for mode in ("static", "rotating"):
            try:
                _, summary = run_scenario(ScenarioSpec(mode=mode, beta=beta, **protocol), params)
                cells.append((summary.mean_P_total, summary.std_P_total, None))
            except (ScenarioError, ValueError) as exc:
                cells.append((None, None, str(exc)))
        (s_mean, s_std, s_err), (r_mean, r_std, r_err) = cells
        rows.append(ComparisonRow(
            beta=beta, static_mean=s_mean, static_std=s_std, rotating_mean=r_mean,
            rotating_std=r_std, static_error=s_err, rotating_error=r_err,
            saving=None if s_mean is None or r_mean is None else (s_mean - r_mean) / s_mean))
    return ComparisonTable(rows=rows)


_COMPARE_HEADER = ("beta_deg,P_static_mean_W,P_static_std_W,"
                   "P_rotating_mean_W,P_rotating_std_W,saving_frac,error")


def _comparison_line(row: ComparisonRow) -> str:
    numbers = (math.degrees(row.beta), row.static_mean, row.static_std,
               row.rotating_mean, row.rotating_std, row.saving)
    err = "; ".join(filter(None, [row.static_error, row.rotating_error]))
    return ",".join([*("" if v is None else repr(float(v)) for v in numbers),
                     f'"{err}"' if err else ""])


def comparison_to_csv(table: ComparisonTable) -> str:
    """``compare.csv``, by :func:`model.table_text`: per row its numbers, blank
    where a flight failed, then its errors joined into one quoted cell."""
    return table_text(_COMPARE_HEADER, map(_comparison_line, table.rows))


def _power_series(label: str, result: eqm.SweepResult, x) -> tuple:
    """One chart curve: ``(label, x(report) per report, P_total per report)``."""
    return label, [x(r) for r in result.reports], [r.P_total for r in result.reports]


def sweep_beta_svg(static: eqm.SweepResult, rotating: eqm.SweepResult) -> str:
    """Two-curve total-power plot: rising static curve, flat rotating curve."""
    series = [_power_series(label, result, lambda r: math.degrees(r.beta))
              for label, result in (("static", static), ("rotating (optimal)", rotating))
              if result.reports]
    return line_chart(series, xlabel="tether angle [deg]", ylabel="total power [W]",
                      title="Hover power vs tether angle")


def sweep_omega_svg(results: list[eqm.SweepResult]) -> str:
    """Power vs spin rate, one curve per tether angle."""
    series = [_power_series(f"beta = {math.degrees(res.reports[0].beta):.3g} deg", res,
                            lambda r: r.omega_C) for res in results if res.reports]
    return line_chart(series, xlabel="spin rate [rad/s]", ylabel="total power [W]",
                      title="Hover power vs spin rate")


def comparison_svg(table: ComparisonTable) -> str:
    """Grouped bars of metered power, static vs rotating, per tether angle."""
    rows = [r for r in table.rows if r.static_mean is not None and r.rotating_mean is not None]
    categories = [f"{math.degrees(r.beta):.3g}" for r in rows]
    groups = [
        ("static", [r.static_mean for r in rows], [r.static_std for r in rows]),
        ("rotating", [r.rotating_mean for r in rows], [r.rotating_std for r in rows]),
    ]
    return grouped_bar_chart(categories, groups, xlabel="tether angle [deg]",
                             ylabel="metered total power [W]",
                             title="Static vs rotating hover power")
