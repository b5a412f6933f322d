"""Runtime control law: feedforward plus LQR feedback in the rotating frame.

Each control tick maps the measured inertial state into the control frame,
forms the deviation from the stored ``eq.s_bar``, applies u = u_ff - K ds,
rotates the two thrust vectors back to the inertial frame, and applies
magnitude saturation (direction preserving) followed by a nonnegative
vertical-component clamp. u_ff is :func:`spinlift.equilibrium.feedforward` at
the schedule's spin rate; the operating point is not rebuilt here, and the
phases are :class:`SpinProfile`'s alone. Zero-order hold between ticks is the
simulator's responsibility.

The tick runs on Python floats and makes no numpy call: the rotation is
``cos``/``sin`` of the schedule's angle, and each gain row's product is
``math.fsum`` over the row and the deviation (rows stored as tuples when the
:class:`ControllerConfig` is built). Numpy's small matrix products would cost
some twenty calls per tick, and they run through BLAS kernels chosen per CPU,
so their last bits depend on the machine; scalar IEEE operations and the
correctly rounded ``fsum`` give the same command bits everywhere. The tests
keep the numpy formulation as the reference.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .dynamics import Trajectory
from .equilibrium import DEFAULT_PAYLOAD_POSITION, feedforward
from .lqr import GainSet
from .model import (_NONNEGATIVE, EquilibriumSpec, SystemParams, column_lines,
                    default_thrust_limit, table_text)

__all__ = [
    "SpinProfile",
    "ControllerConfig",
    "control_step",
    "command_log_to_csv",
]


def _check_durations(owner, names) -> None:
    """ValueError unless each named field of ``owner`` is a finite nonnegative
    number (an int or float, not a bool)."""
    for name in names:
        if not _NONNEGATIVE[1](value := getattr(owner, name)):
            raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


@dataclass(frozen=True)
class SpinProfile:
    """Piecewise-linear spin-rate schedule with an exact analytic angle: the
    one definition of a flight's phases and their edges (computed once).

    Phases in order from t = 0: ``spin_up``, a linear ramp up to
    ``omega_target``; ``hover``; ``spin_down``, a linear ramp down; then zero
    again. ``theta`` integrates the profile in closed form (piecewise
    quadratic) rather than accumulating numerically.
    """

    omega_target: float      # [rad/s]
    t_ramp_up: float = 0.0   # [s]
    t_hover: float = 0.0     # [s] at omega_target
    t_ramp_down: float = 0.0  # [s]
    hover_end: float = field(init=False)  # [s] t_ramp_up + t_hover
    duration: float = field(init=False)   # [s] hover_end + t_ramp_down

    def __post_init__(self):
        _check_durations(self, ("omega_target", "t_ramp_up", "t_hover", "t_ramp_down"))
        object.__setattr__(self, "hover_end", self.t_ramp_up + self.t_hover)
        object.__setattr__(self, "duration", self.hover_end + self.t_ramp_down)

    @property
    def phase_durations(self) -> dict:
        """Length of each phase [s], keyed by phase name in flight order."""
        return {"spin_up": self.t_ramp_up, "hover": self.t_hover,
                "spin_down": self.t_ramp_down}

    def phase_at(self, t: float) -> str:
        """Name of the phase at time ``t``; an edge belongs to the phase that
        ends there, and a time past the end to ``spin_down``."""
        if t <= self.t_ramp_up:
            return "spin_up"
        if t <= self.hover_end:
            return "hover"
        return "spin_down"

    def omega(self, t: float) -> float:
        w = self.omega_target
        if t < 0.0:
            return 0.0
        if t < self.t_ramp_up:
            return w * t / self.t_ramp_up
        if t < self.hover_end:
            return w
        if t < self.duration:
            return w * (self.duration - t) / self.t_ramp_down
        return 0.0

    def theta(self, t: float) -> float:
        w = self.omega_target
        if t <= 0.0:
            return 0.0
        # area under the ramp-up triangle, hover rectangle, ramp-down triangle
        if t <= self.t_ramp_up:
            return 0.5 * w * t * t / self.t_ramp_up
        total = 0.5 * w * self.t_ramp_up
        if t <= self.hover_end:
            return total + w * (t - self.t_ramp_up)
        total += w * self.t_hover
        if t <= self.duration:
            remaining = self.duration - t
            return total + 0.5 * w * self.t_ramp_down \
                - 0.5 * w * remaining * remaining / self.t_ramp_down
        return total + 0.5 * w * self.t_ramp_down


@dataclass(frozen=True, eq=False)
class ControllerConfig:
    """Everything one control loop needs for a fixed operating point.

    Refuses an operating point whose feedforward thrust at rest or at
    ``profile.omega_target`` does not stay below ``T_max``. The horizontal
    thrust is linear in omega^2, so these two rates bound the thrust over the
    whole schedule.
    """

    gain: GainSet
    eq: EquilibriumSpec
    params: SystemParams
    profile: SpinProfile

    def __post_init__(self):
        for omega_c in (0.0, self.profile.omega_target):
            thrust = math.hypot(*feedforward(self.eq.beta, omega_c, self.params,
                                             self.eq.length)[0:3])
            if self.T_max <= thrust:
                raise ValueError(
                    f"T_max={self.T_max:.3f} N does not exceed the thrust {thrust:.3f} N "
                    f"at omega={omega_c:.4g} rad/s; operating point unreachable")
        # the gain rows as float tuples, for the tick's fsum products
        object.__setattr__(self, "_K_rows", tuple(map(tuple, self.gain.K.tolist())))

    @property
    def T_max(self) -> float:
        """Command saturation [N]: :func:`model.default_thrust_limit`."""
        return default_thrust_limit(self.params)


def control_step(y, cfg: ControllerConfig, t: float) -> list:
    """One outer-loop evaluation at time ``t``.

    ``y`` is the flat 24-element state and the result the six commanded
    thrusts [T_cmd_1, T_cmd_2] (E frame) as Python floats, both in the flat
    layouts of :mod:`spinlift.model`. The frame angle is the schedule's
    closed form ``cfg.profile.theta(t)``."""
    omega_c, theta = cfg.profile.omega(t), cfg.profile.theta(t)
    c, s = math.cos(theta), math.sin(theta)
    ox, oy, oz = DEFAULT_PAYLOAD_POSITION
    eq = cfg.eq

    # positions relative to the frame origin and velocities, per body, in
    # control-frame components (with the rotating-frame velocity correction)
    frame_state = []
    for i in (0, 6, 12):
        px, py, pz, vx, vy, vz = y[i:i + 6]
        dx, dy = px - ox, py - oy
        xc, yc = c * dx + s * dy, c * dy - s * dx
        frame_state += (xc, yc, pz - oz, c * vx + s * vy + omega_c * yc,
                        c * vy - s * vx - omega_c * xc, vz)
    ds = tuple(map(operator.sub, frame_state, eq.s_bar))

    u = [f - math.fsum(map(operator.mul, row, ds))
         for f, row in zip(feedforward(eq.beta, omega_c, cfg.params, eq.length),
                           cfg._K_rows)]

    # back to the E frame, saturate the magnitude, clamp the vertical
    T_max = cfg.T_max
    command = []
    for ux, uy, uz in (u[0:3], u[3:6]):
        Tx, Ty, Tz = c * ux - s * uy, s * ux + c * uy, uz
        norm = math.hypot(Tx, Ty, Tz)
        if norm > T_max:
            scale = T_max / norm
            Tx, Ty, Tz = Tx * scale, Ty * scale, Tz * scale
        if Tz < 0.0:
            Tz = 0.0
        command += (Tx, Ty, Tz)
    return command


_LOG_HEADER = "t,T_cmd_1_x,T_cmd_1_y,T_cmd_1_z,T_cmd_2_x,T_cmd_2_y,T_cmd_2_z,saturated"


def command_log_to_csv(traj: Trajectory, T_max: float) -> str:
    """Command log aligned with trajectory samples; ``saturated`` flags ticks
    whose commanded magnitude sits at the saturation limit.

    Every sample of a hold repeats its command, so the six command cells are
    rendered once per run of bitwise-equal rows (``-0.0`` and ``0.0`` differ),
    by :func:`model.column_lines` over the holds, and closed by the hold's
    flag, ``0`` or ``1``, before :func:`model.table_text` forks; each line is
    its sample's time and its hold's cells."""
    bits = traj.commands.view(np.int64)
    t = traj.t.tolist()
    first = np.ones(len(t), dtype=bool)  # rows that start a run
    first[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    holds = traj.commands[first]
    limit = T_max - 1e-9
    cells = [f",{line},{int(math.hypot(*u[:3]) >= limit or math.hypot(*u[3:]) >= limit)}"
             for line, u in zip(column_lines(holds), holds.tolist())]
    tails = [cells[h] for h in (np.cumsum(first) - 1).tolist()]  # each row's hold's cells
    return table_text(_LOG_HEADER, len(t),
                      lambda a, b: map(operator.add, map(repr, t[a:b]), tails[a:b]))
