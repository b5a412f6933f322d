"""Nonlinear three-body truth model and fixed-step RK4 integration.

Earth-frame equations of motion:

* vehicle i:  m_q * a_i = T_act_i + m_q * g_vec + f_drag_i - F_i * r_hat_i
* payload:    m_p * a_p = m_p * g_vec + f_drag_p + sum_i F_i * r_hat_i
* tethers:    F_i = k_T * (|r_i| - ell) + c_T * d|r_i|/dt; with slack
              clamping on, F_i = 0 while |r_i| < ell and F_i is floored at 0
              (unilateral ropes: they pull, never push)
* thrust lag: dT_act_i/dt = (T_cmd_i - T_act_i) / tau_att
* frame:      dtheta/dt = omega_C

r_i points from the payload to vehicle i. Integration happens in the inertial
frame; the rotating control frame only appears in the controller and the
linearized model. The inner loop works on plain float lists for speed (the
comparison harness integrates ~1e6 RK4 steps per run set).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import STATE_DIM, ControlCommand, SystemParams, SystemState

__all__ = [
    "DegenerateGeometryError",
    "IntegrationBlowupError",
    "TetherForces",
    "Trajectory",
    "tether_force",
    "tether_forces",
    "step",
    "simulate",
    "mechanical_energy",
    "trajectory_to_csv",
]

_COINCIDENT_TOL = 1e-9


class DegenerateGeometryError(ValueError):
    """Vehicle and payload positions coincide; tether direction undefined."""


class IntegrationBlowupError(RuntimeError):
    """State became non-finite during integration."""

    def __init__(self, t: float):
        super().__init__(f"integration produced a non-finite state at t = {t:.6f} s")
        self.t = t


@dataclass(frozen=True)
class TetherForces:
    """Scalar tensions and payload-to-vehicle unit vectors for both tethers."""

    F_1: float
    F_2: float
    r_hat_1: np.ndarray
    r_hat_2: np.ndarray


def tether_force(x_i, v_i, x_p, v_p, params: SystemParams,
                 clamp_slack: bool = True) -> tuple[float, np.ndarray]:
    """Tension magnitude and unit vector (payload -> vehicle) for one tether.

    Returns ``(F, r_hat)`` with F = k_T*(|r| - ell) + c_T * d|r|/dt, where the
    length rate is the relative velocity projected on r_hat. With slack
    clamping the rope is unilateral: no force while |r| < ell, and the total
    force is floored at zero.
    """
    x_i = np.asarray(x_i, dtype=float)
    x_p = np.asarray(x_p, dtype=float)
    r = x_i - x_p
    dist = float(np.linalg.norm(r))
    if dist < _COINCIDENT_TOL:
        raise DegenerateGeometryError(
            f"vehicle and payload positions coincide (separation {dist:.3e} m)")
    r_hat = r / dist
    length_rate = float(np.dot(np.asarray(v_i, dtype=float) - np.asarray(v_p, dtype=float), r_hat))
    force = params.k_T * (dist - params.ell) + params.c_T * length_rate
    if clamp_slack and (dist < params.ell or force < 0.0):
        force = 0.0
    return force, r_hat


def tether_forces(state: SystemState, params: SystemParams,
                  clamp_slack: bool = True) -> TetherForces:
    """Both tether tensions and unit vectors for one state."""
    f1, r1 = tether_force(state.x_1, state.v_1, state.x_p, state.v_p,
                          params, clamp_slack)
    f2, r2 = tether_force(state.x_2, state.v_2, state.x_p, state.v_p,
                          params, clamp_slack)
    return TetherForces(F_1=f1, F_2=f2, r_hat_1=r1, r_hat_2=r2)


def _make_rhs(params: SystemParams, clamp_slack: bool):
    """Build the scalarized right-hand side over flat 25-element float lists.

    Closure captures parameters as local floats; this is the integrator's hot
    path and avoids small-array overhead on purpose. For the same reason it
    writes the tether law of :func:`tether_force` inline instead of calling a
    shared helper; a property test keeps the two in agreement.
    """
    m_q = params.m_q
    m_p = params.m_p
    ell = params.ell
    g = params.g
    k_T = params.k_T
    c_T = params.c_T
    inv_tau = 1.0 / params.tau_att
    drag = params.drag_enabled
    c_dq = params.c_d_quad
    c_dp = params.c_d_payload
    sqrt = math.sqrt

    def rhs(y: list, u: tuple, omega_c: float) -> list:
        (xpx, xpy, xpz, vpx, vpy, vpz,
         x1x, x1y, x1z, v1x, v1y, v1z,
         x2x, x2y, x2z, v2x, v2y, v2z,
         a1x_t, a1y_t, a1z_t, a2x_t, a2y_t, a2z_t, _theta) = y
        u1x, u1y, u1z, u2x, u2y, u2z = u

        # tether 1
        r1x = x1x - xpx
        r1y = x1y - xpy
        r1z = x1z - xpz
        d1 = sqrt(r1x * r1x + r1y * r1y + r1z * r1z)
        if d1 < _COINCIDENT_TOL:
            raise DegenerateGeometryError("vehicle 1 coincides with the payload")
        inv_d1 = 1.0 / d1
        h1x = r1x * inv_d1
        h1y = r1y * inv_d1
        h1z = r1z * inv_d1
        rate1 = (v1x - vpx) * h1x + (v1y - vpy) * h1y + (v1z - vpz) * h1z
        F1 = k_T * (d1 - ell) + c_T * rate1
        if clamp_slack and (d1 < ell or F1 < 0.0):
            F1 = 0.0

        # tether 2
        r2x = x2x - xpx
        r2y = x2y - xpy
        r2z = x2z - xpz
        d2 = sqrt(r2x * r2x + r2y * r2y + r2z * r2z)
        if d2 < _COINCIDENT_TOL:
            raise DegenerateGeometryError("vehicle 2 coincides with the payload")
        inv_d2 = 1.0 / d2
        h2x = r2x * inv_d2
        h2y = r2y * inv_d2
        h2z = r2z * inv_d2
        rate2 = (v2x - vpx) * h2x + (v2y - vpy) * h2y + (v2z - vpz) * h2z
        F2 = k_T * (d2 - ell) + c_T * rate2
        if clamp_slack and (d2 < ell or F2 < 0.0):
            F2 = 0.0

        if drag:
            s1 = -c_dq * sqrt(v1x * v1x + v1y * v1y + v1z * v1z)
            fd1x, fd1y, fd1z = s1 * v1x, s1 * v1y, s1 * v1z
            s2 = -c_dq * sqrt(v2x * v2x + v2y * v2y + v2z * v2z)
            fd2x, fd2y, fd2z = s2 * v2x, s2 * v2y, s2 * v2z
            sp = -c_dp * sqrt(vpx * vpx + vpy * vpy + vpz * vpz)
            fdpx, fdpy, fdpz = sp * vpx, sp * vpy, sp * vpz
        else:
            fd1x = fd1y = fd1z = fd2x = fd2y = fd2z = fdpx = fdpy = fdpz = 0.0

        inv_mq = 1.0 / m_q
        inv_mp = 1.0 / m_p
        return [
            vpx, vpy, vpz,
            (fdpx + F1 * h1x + F2 * h2x) * inv_mp,
            (fdpy + F1 * h1y + F2 * h2y) * inv_mp,
            (fdpz + F1 * h1z + F2 * h2z) * inv_mp - g,
            v1x, v1y, v1z,
            (a1x_t + fd1x - F1 * h1x) * inv_mq,
            (a1y_t + fd1y - F1 * h1y) * inv_mq,
            (a1z_t + fd1z - F1 * h1z) * inv_mq - g,
            v2x, v2y, v2z,
            (a2x_t + fd2x - F2 * h2x) * inv_mq,
            (a2y_t + fd2y - F2 * h2y) * inv_mq,
            (a2z_t + fd2z - F2 * h2z) * inv_mq - g,
            (u1x - a1x_t) * inv_tau,
            (u1y - a1y_t) * inv_tau,
            (u1z - a1z_t) * inv_tau,
            (u2x - a2x_t) * inv_tau,
            (u2y - a2y_t) * inv_tau,
            (u2z - a2z_t) * inv_tau,
            omega_c,
        ]

    return rhs


def _rk4(rhs, y: list, u: tuple, omega_c: float, dt: float) -> list:
    """One classical RK4 step with omega_C held constant over the step."""
    half = 0.5 * dt
    sixth = dt / 6.0
    k1 = rhs(y, u, omega_c)
    k2 = rhs([a + half * b for a, b in zip(y, k1)], u, omega_c)
    k3 = rhs([a + half * b for a, b in zip(y, k2)], u, omega_c)
    k4 = rhs([a + dt * b for a, b in zip(y, k3)], u, omega_c)
    return [a + sixth * (b1 + 2.0 * (b2 + b3) + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def step(state: SystemState, cmd: ControlCommand, omega_c: float,
         params: SystemParams, dt: float, clamp_slack: bool = True) -> SystemState:
    """Advance one RK4 step of size ``dt``; deterministic for fixed inputs."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not dt < params.dt_stability_limit:
        raise ValueError(
            f"dt={dt} exceeds the stability guard {params.dt_stability_limit:.6g} s")
    rhs = _make_rhs(params, clamp_slack)
    y = _rk4(rhs, state.as_vector().tolist(), tuple(cmd.as_vector().tolist()),
             float(omega_c), dt)
    if not math.isfinite(sum(y)):
        raise IntegrationBlowupError(state.t + dt)
    return SystemState.from_vector(y, t=state.t + dt)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled simulation output.

    ``states`` rows follow the flat layout in :mod:`spinlift.model`;
    ``commands`` rows are [T_cmd_1, T_cmd_2]; ``tether`` rows are [F_1, F_2].
    """

    t: np.ndarray         # (n,) sample times [s]
    states: np.ndarray    # (n, 25)
    commands: np.ndarray  # (n, 6)
    tether: np.ndarray    # (n, 2)

    def __len__(self) -> int:
        return len(self.t)

    def state_at(self, i: int) -> SystemState:
        return SystemState.from_vector(self.states[i], t=float(self.t[i]))

    @property
    def x_p(self) -> np.ndarray:
        return self.states[:, 0:3]

    @property
    def v_p(self) -> np.ndarray:
        return self.states[:, 3:6]

    @property
    def x_1(self) -> np.ndarray:
        return self.states[:, 6:9]

    @property
    def v_1(self) -> np.ndarray:
        return self.states[:, 9:12]

    @property
    def x_2(self) -> np.ndarray:
        return self.states[:, 12:15]

    @property
    def v_2(self) -> np.ndarray:
        return self.states[:, 15:18]

    @property
    def T_act_1(self) -> np.ndarray:
        return self.states[:, 18:21]

    @property
    def T_act_2(self) -> np.ndarray:
        return self.states[:, 21:24]

    @property
    def theta(self) -> np.ndarray:
        return self.states[:, 24]


def simulate(initial: SystemState,
             controller: Callable[[SystemState], ControlCommand],
             omega_profile: Callable[[float], float],
             params: SystemParams,
             duration: float,
             output_decimation: int | None = None,
             clamp_slack: bool = True) -> Trajectory:
    """Run the closed loop: controller at f_ctrl with zero-order hold, physics
    stepped at dt_physics, omega_C sampled at step midpoints.

    ``output_decimation`` is the number of physics steps between stored
    samples (default: one sample per control tick). Requires 1/(f_ctrl *
    dt_physics) to be an integer so hold boundaries align with steps.
    """
    if not duration > 0.0:
        raise ValueError(f"duration must be positive, got {duration}")
    dt = params.dt_physics
    steps_per_tick_f = 1.0 / (params.f_ctrl * dt)
    steps_per_tick = int(round(steps_per_tick_f))
    if abs(steps_per_tick_f - steps_per_tick) > 1e-9 or steps_per_tick < 1:
        raise ValueError(
            f"1/(f_ctrl*dt_physics) = {steps_per_tick_f:.6g} must be a positive "
            "integer for exact zero-order hold alignment")
    n_steps = int(round(duration / dt))
    if n_steps < 1:
        raise ValueError("duration shorter than one physics step")
    dec = steps_per_tick if output_decimation is None else int(output_decimation)
    if dec < 1:
        raise ValueError("output_decimation must be >= 1")

    rhs = _make_rhs(params, clamp_slack)
    n_samples = n_steps // dec + 1
    t_out = np.empty(n_samples)
    states_out = np.empty((n_samples, STATE_DIM))
    commands_out = np.empty((n_samples, 6))
    tether_out = np.empty((n_samples, 2))

    y = initial.as_vector().tolist()
    t0 = initial.t
    u: tuple = (0.0,) * 6
    sample = 0

    def record(idx_sample: int, i_step: int):
        t_out[idx_sample] = t0 + i_step * dt
        states_out[idx_sample] = y
        commands_out[idx_sample] = u
        tether_out[idx_sample] = _tether_pair(y, params, clamp_slack)

    for i in range(n_steps):
        if i % steps_per_tick == 0:
            state = SystemState.from_vector(y, t=t0 + i * dt)
            cmd = controller(state)
            u = tuple(cmd.as_vector().tolist())
        if i == 0:
            record(0, 0)
            sample = 1
        t_mid = t0 + (i + 0.5) * dt
        y = _rk4(rhs, y, u, float(omega_profile(t_mid)), dt)
        if not math.isfinite(sum(y)):
            raise IntegrationBlowupError(t0 + (i + 1) * dt)
        if (i + 1) % dec == 0:
            record(sample, i + 1)
            sample += 1

    return Trajectory(t=t_out[:sample], states=states_out[:sample],
                      commands=commands_out[:sample], tether=tether_out[:sample])


def _tether_pair(y: Sequence[float], params: SystemParams, clamp_slack: bool) -> tuple[float, float]:
    pair = tether_forces(SystemState.from_vector(np.asarray(y)), params, clamp_slack)
    return pair.F_1, pair.F_2


def mechanical_energy(state: SystemState, params: SystemParams) -> dict:
    """Kinetic, gravitational (z datum at 0), and tether spring energy [J].

    Spring energy uses the unclamped spring law, so the breakdown is only an
    exact audit when slack clamping is disabled.
    """
    kinetic = 0.5 * params.m_p * float(np.dot(state.v_p, state.v_p))
    kinetic += 0.5 * params.m_q * float(np.dot(state.v_1, state.v_1))
    kinetic += 0.5 * params.m_q * float(np.dot(state.v_2, state.v_2))
    grav = params.g * (params.m_p * state.x_p[2]
                       + params.m_q * state.x_1[2] + params.m_q * state.x_2[2])
    spring = 0.0
    for x_i in (state.x_1, state.x_2):
        stretch = float(np.linalg.norm(x_i - state.x_p)) - params.ell
        spring += 0.5 * params.k_T * stretch * stretch
    total = kinetic + grav + spring
    return {"kinetic": kinetic, "gravitational": grav, "spring": spring, "total": total}


_CSV_HEADER = (
    "t,x_p_x,x_p_y,x_p_z,v_p_x,v_p_y,v_p_z,"
    "x_1_x,x_1_y,x_1_z,v_1_x,v_1_y,v_1_z,"
    "x_2_x,x_2_y,x_2_z,v_2_x,v_2_y,v_2_z,"
    "T_act_1_x,T_act_1_y,T_act_1_z,T_act_2_x,T_act_2_y,T_act_2_z,"
    "F_1,F_2,theta"
)


def trajectory_to_csv(traj: Trajectory) -> str:
    """Render the trajectory as CSV at full double precision (repr floats)."""
    lines = [_CSV_HEADER]
    for i in range(len(traj)):
        row = [traj.t[i]]
        row.extend(traj.states[i, 0:24])
        row.extend(traj.tether[i])
        row.append(traj.states[i, 24])
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
