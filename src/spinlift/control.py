"""Runtime control law: feedforward plus LQR feedback in the rotating frame.

Each control tick maps the measured inertial state into the control frame,
forms the deviation from the stored equilibrium, applies u = u_bar - K ds,
rotates the two thrust vectors back to the inertial frame, and applies
magnitude saturation (direction preserving) followed by a nonnegative
vertical-component clamp. Zero-order hold between ticks is the simulator's
responsibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .equilibrium import DEFAULT_PAYLOAD_POSITION, stretched_length, thrust_components
from .lqr import GainSet, equilibrium_c_state
from .model import (EquilibriumSpec, SystemParams, default_thrust_limit,
                    rotation_c_to_e, table_text)

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

    Refuses a ``T_max`` that does not exceed the feedforward thrust at rest
    or at ``profile.omega_target``. The horizontal thrust is linear in
    omega^2, so these two rates bound the thrust over the whole schedule.
    """

    gain: GainSet
    eq: EquilibriumSpec
    params: SystemParams
    profile: SpinProfile
    T_max: float | None = None   # [N]; default model.default_thrust_limit

    def __post_init__(self):
        if self.T_max is None:
            object.__setattr__(self, "T_max", default_thrust_limit(self.params))
        object.__setattr__(self, "_length", stretched_length(self.eq.beta, self.params))
        for omega_c in (0.0, self.profile.omega_target):
            thrust = float(np.linalg.norm(self.feedforward(omega_c)[0:3]))
            if self.T_max <= thrust:
                raise ValueError(
                    f"T_max={self.T_max:.3f} N does not exceed the thrust {thrust:.3f} N "
                    f"at omega={omega_c:.4g} rad/s; operating point unreachable")
        s_bar, _ = equilibrium_c_state(self.eq)
        object.__setattr__(self, "_s_bar", s_bar)

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


_ORIGIN = np.array(DEFAULT_PAYLOAD_POSITION)  # converted once, not on every tick


def _to_frame(R_t: np.ndarray, omega_c: float, x_e: np.ndarray,
              v_e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inertial position/velocity -> control-frame components relative to the
    frame origin, with the rotating-frame velocity correction."""
    x_c = R_t @ (x_e - _ORIGIN)
    v_c = R_t @ v_e - np.array([-omega_c * x_c[1], omega_c * x_c[0], 0.0])
    return x_c, v_c


def _saturate(T: np.ndarray, T_max: float) -> np.ndarray:
    norm = float(np.linalg.norm(T))
    if norm > T_max:
        T = T * (T_max / norm)
    if T[2] < 0.0:
        T = T.copy()
        T[2] = 0.0
    return T


def control_step(y, cfg: ControllerConfig, t: float) -> list:
    """One outer-loop evaluation at time ``t``.

    ``y`` is the flat 25-element state and the result the six commanded
    thrusts [T_cmd_1, T_cmd_2] (E frame) as Python floats, both in the flat
    layouts of :mod:`spinlift.model`."""
    omega_c, theta = cfg.profile.omega(t), cfg.profile.theta(t)
    R = rotation_c_to_e(theta)
    R_t = R.T

    y = np.asarray(y, dtype=float)
    xp_c, vp_c = _to_frame(R_t, omega_c, y[0:3], y[3:6])
    x1_c, v1_c = _to_frame(R_t, omega_c, y[6:9], y[9:12])
    x2_c, v2_c = _to_frame(R_t, omega_c, y[12:15], y[15:18])
    s = np.concatenate([xp_c, vp_c, x1_c, v1_c, x2_c, v2_c])

    u = cfg.feedforward(omega_c) - cfg.gain.K @ (s - cfg._s_bar)
    T1 = _saturate(R @ u[0:3], cfg.T_max)
    T2 = _saturate(R @ u[3:6], cfg.T_max)
    return np.concatenate([T1, T2]).tolist()


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
