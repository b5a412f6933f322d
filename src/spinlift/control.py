"""Runtime control law: feedforward plus LQR feedback in the rotating frame.

Each control tick maps the measured inertial state into the control frame,
forms the deviation from the stored equilibrium, applies u = u_bar - K ds,
rotates the two thrust vectors back to the inertial frame, and applies
magnitude saturation (direction preserving) followed by a nonnegative
vertical-component clamp. Zero-order hold between ticks is the simulator's
responsibility.

The tick runs on Python floats and makes no numpy call: the rotation is
``cos``/``sin`` of the schedule's angle, each gain row's product is
``math.fsum`` over the row and the deviation (rows stored as tuples when the
:class:`ControllerConfig` is built), and the feedforward is computed from
constants the config derives once. Numpy's small matrix products would cost
some twenty calls per tick, and they run through BLAS kernels chosen per CPU,
so their last bits depend on the machine; scalar IEEE operations and the
correctly rounded ``fsum`` give the same command bits everywhere. The tests
keep the numpy formulation as the reference.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .equilibrium import (DEFAULT_PAYLOAD_POSITION, stretched_length,
                          tension_at_equilibrium, thrust_components)
from .lqr import GainSet, equilibrium_c_state
from .model import EquilibriumSpec, SystemParams, default_thrust_limit, table_text

__all__ = [
    "SpinProfile",
    "ControllerConfig",
    "control_step",
    "command_log_to_csv",
]


@dataclass(frozen=True)
class SpinProfile:
    """Piecewise-linear spin-rate schedule with an exact analytic angle.

    Phases in order from t = 0: linear ramp up to ``omega_target``,
    constant hover, linear ramp down, then zero again.
    ``theta`` integrates the profile in closed form (piecewise quadratic)
    rather than accumulating numerically.
    """

    omega_target: float      # [rad/s]
    t_ramp_up: float = 0.0   # [s]
    t_hover: float = 0.0     # [s] at omega_target
    t_ramp_down: float = 0.0  # [s]

    def __post_init__(self):
        for name in ("omega_target", "t_ramp_up", "t_hover", "t_ramp_down"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")

    def omega(self, t: float) -> float:
        w = self.omega_target
        t2 = self.t_ramp_up
        t3 = t2 + self.t_hover
        t4 = t3 + self.t_ramp_down
        if t < 0.0:
            return 0.0
        if t < t2:
            return w * t / self.t_ramp_up
        if t < t3:
            return w
        if t < t4:
            return w * (t4 - t) / self.t_ramp_down
        return 0.0

    def theta(self, t: float) -> float:
        w = self.omega_target
        t2 = self.t_ramp_up
        t3 = t2 + self.t_hover
        t4 = t3 + self.t_ramp_down
        if t <= 0.0:
            return 0.0
        # area under the ramp-up triangle, hover rectangle, ramp-down triangle
        if t <= t2:
            return 0.5 * w * t * t / self.t_ramp_up
        total = 0.5 * w * self.t_ramp_up
        if t <= t3:
            return total + w * (t - t2)
        total += w * self.t_hover
        if t <= t4:
            remaining = t4 - t
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
        object.__setattr__(self, "_length", stretched_length(self.eq.beta, self.params))
        for omega_c in (0.0, self.profile.omega_target):
            thrust = float(np.linalg.norm(self.feedforward(omega_c)[0:3]))
            if self.T_max <= thrust:
                raise ValueError(
                    f"T_max={self.T_max:.3f} N does not exceed the thrust {thrust:.3f} N "
                    f"at omega={omega_c:.4g} rad/s; operating point unreachable")
        # per-tick constants: the equilibrium and the gain rows as float
        # tuples, and the factors of thrust_components' feedforward
        s_bar, _ = equilibrium_c_state(self.eq)
        object.__setattr__(self, "_s_bar", tuple(s_bar.tolist()))
        object.__setattr__(self, "_K_rows", tuple(map(tuple, self.gain.K.tolist())))
        _, vertical = thrust_components(self.eq.beta, 0.0, self.params, self._length)
        object.__setattr__(self, "_ff_terms", (
            math.sin(self.eq.beta), tension_at_equilibrium(self.eq.beta, self.params),
            self.params.m_q, vertical))

    @property
    def T_max(self) -> float:
        """Command saturation [N]: :func:`model.default_thrust_limit`."""
        return default_thrust_limit(self.params)

    def feedforward(self, omega_c: float) -> np.ndarray:
        """Equilibrium thrust pair (C frame) holding the formation at the
        configured tether angle while spinning at ``omega_c``.

        The formation geometry is spin-rate independent, so scheduling the
        feedforward with the instantaneous spin rate keeps the loop on the
        analyzed equilibrium branch through ramps; at the operating point's
        own rate this reduces exactly to the stored equilibrium thrusts.
        """
        horizontal, v = thrust_components(self.eq.beta, omega_c, self.params, self._length)
        return np.array([horizontal, 0.0, v, -horizontal, 0.0, v])


def control_step(y, cfg: ControllerConfig, t: float) -> list:
    """One outer-loop evaluation at time ``t``.

    ``y`` is the flat 24-element state and the result the six commanded
    thrusts [T_cmd_1, T_cmd_2] (E frame) as Python floats, both in the flat
    layouts of :mod:`spinlift.model`. The frame angle is the schedule's
    closed form ``cfg.profile.theta(t)``."""
    omega_c, theta = cfg.profile.omega(t), cfg.profile.theta(t)
    c, s = math.cos(theta), math.sin(theta)
    ox, oy, oz = DEFAULT_PAYLOAD_POSITION

    # positions relative to the frame origin and velocities, per body, in
    # control-frame components (with the rotating-frame velocity correction)
    frame_state = []
    for i in (0, 6, 12):
        px, py, pz, vx, vy, vz = y[i:i + 6]
        dx, dy = px - ox, py - oy
        xc, yc = c * dx + s * dy, c * dy - s * dx
        frame_state += (xc, yc, pz - oz, c * vx + s * vy + omega_c * yc,
                        c * vy - s * vx - omega_c * xc, vz)
    ds = tuple(map(operator.sub, frame_state, cfg._s_bar))

    # feedforward, in thrust_components' order of operations
    sin_beta, tension, m_q, vertical = cfg._ff_terms
    horizontal = sin_beta * (tension - m_q * omega_c ** 2 * cfg._length)
    feedforward = (horizontal, 0.0, vertical, -horizontal, 0.0, vertical)
    u = [f - math.fsum(map(operator.mul, row, ds))
         for f, row in zip(feedforward, cfg._K_rows)]

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


_LOG_HEADER = ("t,T_cmd_1_x,T_cmd_1_y,T_cmd_1_z,"
               "T_cmd_2_x,T_cmd_2_y,T_cmd_2_z,saturated")


def command_log_to_csv(traj: Trajectory, T_max: float) -> str:
    """Command log aligned with trajectory samples; ``saturated`` flags ticks
    whose commanded magnitude sits at the saturation limit."""
    def row(t, u):
        u = u.tolist()
        n1 = math.hypot(u[0], u[1], u[2])
        n2 = math.hypot(u[3], u[4], u[5])
        return [t, *u, int(n1 >= T_max - 1e-9 or n2 >= T_max - 1e-9)]

    return table_text(_LOG_HEADER, map(row, traj.t.tolist(), traj.commands))
