"""Nonlinear three-body truth model and fixed-step RK4 integration.

Earth-frame equations of motion:

* vehicle i:  m_q * a_i = T_act_i + m_q * g_vec + f_drag_i - F_i * r_hat_i
* payload:    m_p * a_p = m_p * g_vec + f_drag_p + sum_i F_i * r_hat_i
* tethers:    F_i = k_T * (|r_i| - ell) + c_T * d|r_i|/dt, F_i = 0 while
              |r_i| < ell and F_i is floored at 0 (unilateral ropes: they
              pull, never push)
* thrust lag: dT_act_i/dt = (T_cmd_i - T_act_i) / tau_att

r_i points from the payload to vehicle i. Integration happens in the inertial
frame over these 24 physical scalars; the rotating control frame only appears
in the controller and the linearized model, and its angle is the spin
schedule's closed form, not an integrated state.

The comparison harness integrates ~1e6 RK4 steps per run set, so the hot path
is scalar Python: one acceleration closure over the state's float scalars,
and a stepper that integrates a whole segment between control ticks and
stored samples with every RK4 stage held in local variables (see
:func:`_make_rhs`). :func:`simulate` stores states and commands as it goes
and fills the tether-tension column afterwards, with one array evaluation of
:func:`tether_force` over all samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import STATE_DIM, SystemParams, SystemState, table_text

__all__ = [
    "DegenerateGeometryError",
    "IntegrationBlowupError",
    "TetherForces",
    "Trajectory",
    "tether_force",
    "tether_forces",
    "simulate",
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


def tether_force(x_i, v_i, x_p, v_p,
                 params: SystemParams) -> tuple[float | np.ndarray, np.ndarray]:
    """Tension magnitude and unit vector (payload -> vehicle) for one tether.

    Returns ``(F, r_hat)`` with F = k_T*(|r| - ell) + c_T * d|r|/dt, where the
    length rate is the relative velocity projected on r_hat. The rope is
    unilateral: no force while |r| < ell, and the total force is floored at
    zero.

    The inputs may be stacks of 3-vectors, shape ``(..., 3)``: F then has
    shape ``(...)`` and r_hat ``(..., 3)``. For single ``(3,)`` vectors F is a
    Python float.
    """
    x_p = np.asarray(x_p, dtype=float)
    r = np.asarray(x_i, dtype=float) - x_p
    dist = np.linalg.norm(r, axis=-1)
    if np.any(dist < _COINCIDENT_TOL):
        raise DegenerateGeometryError(
            "vehicle and payload positions coincide "
            f"(separation {np.min(dist):.3e} m)")
    r_hat = r / dist[..., np.newaxis]
    rel_v = np.asarray(v_i, dtype=float) - np.asarray(v_p, dtype=float)
    length_rate = np.sum(rel_v * r_hat, axis=-1)
    force = params.k_T * (dist - params.ell) + params.c_T * length_rate
    force = np.where((dist < params.ell) | (force < 0.0), 0.0, force)
    if np.ndim(force) == 0:
        return float(force), r_hat
    return force, r_hat


def tether_forces(state: SystemState, params: SystemParams) -> TetherForces:
    """Both tether tensions and unit vectors for one state."""
    f1, r1 = tether_force(state.x_1, state.v_1, state.x_p, state.v_p, params)
    f2, r2 = tether_force(state.x_2, state.v_2, state.x_p, state.v_p, params)
    return TetherForces(F_1=f1, F_2=f2, r_hat_1=r1, r_hat_2=r2)


def _make_rhs(params: SystemParams):
    """Build ``(rhs, advance)``, the scalarized model and its RK4 stepper.

    Both rest on one acceleration closure over the 24 physical state scalars
    (positions, velocities, actual thrusts) that returns the nine body
    accelerations. It captures the parameters as local floats and writes the
    tether law of :func:`tether_force` inline instead of calling a shared
    helper, because it runs four times per physics step; a property test
    keeps the two copies in agreement.

    * ``rhs(y, u)`` is the full 24-element derivative over a flat float
      list, for the design model and the tests.
    * ``advance(y, u, i_first, n, dt)`` integrates physics steps
      ``i_first .. i_first + n - 1`` of a run starting at t = 0 under the
      held command ``u``. The RK4 stages live in local variables and a list
      is built only on return; the float operations are those of a textbook
      RK4 over ``rhs``, in the same order. Raises
      :class:`IntegrationBlowupError` with the time of the first step whose
      result is not finite.

    The tension column of a :class:`Trajectory` is not taken from here:
    :func:`simulate` evaluates :func:`tether_force` once over all samples
    after the run.
    """
    ell = params.ell
    g = params.g
    k_T = params.k_T
    c_T = params.c_T
    inv_tau = 1.0 / params.tau_att
    inv_mq = 1.0 / params.m_q
    inv_mp = 1.0 / params.m_p
    drag = params.drag_enabled
    c_dq = params.c_d_quad
    c_dp = params.c_d_payload
    sqrt = math.sqrt
    isfinite = math.isfinite

    def accel(xpx, xpy, xpz, vpx, vpy, vpz,
              x1x, x1y, x1z, v1x, v1y, v1z,
              x2x, x2y, x2z, v2x, v2y, v2z,
              T1x, T1y, T1z, T2x, T2y, T2z):
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
        if d1 < ell or F1 < 0.0:
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
        if d2 < ell or F2 < 0.0:
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

        return ((fdpx + F1 * h1x + F2 * h2x) * inv_mp,
                (fdpy + F1 * h1y + F2 * h2y) * inv_mp,
                (fdpz + F1 * h1z + F2 * h2z) * inv_mp - g,
                (T1x + fd1x - F1 * h1x) * inv_mq,
                (T1y + fd1y - F1 * h1y) * inv_mq,
                (T1z + fd1z - F1 * h1z) * inv_mq - g,
                (T2x + fd2x - F2 * h2x) * inv_mq,
                (T2y + fd2y - F2 * h2y) * inv_mq,
                (T2z + fd2z - F2 * h2z) * inv_mq - g)

    def rhs(y: list, u: tuple) -> list:
        (xpx, xpy, xpz, vpx, vpy, vpz,
         x1x, x1y, x1z, v1x, v1y, v1z,
         x2x, x2y, x2z, v2x, v2y, v2z,
         T1x, T1y, T1z, T2x, T2y, T2z) = y
        u1x, u1y, u1z, u2x, u2y, u2z = u
        apx, apy, apz, a1x, a1y, a1z, a2x, a2y, a2z = accel(
            xpx, xpy, xpz, vpx, vpy, vpz, x1x, x1y, x1z, v1x, v1y, v1z,
            x2x, x2y, x2z, v2x, v2y, v2z, T1x, T1y, T1z, T2x, T2y, T2z)
        return [vpx, vpy, vpz, apx, apy, apz, v1x, v1y, v1z, a1x, a1y, a1z,
                v2x, v2y, v2z, a2x, a2y, a2z,
                (u1x - T1x) * inv_tau, (u1y - T1y) * inv_tau, (u1z - T1z) * inv_tau,
                (u2x - T2x) * inv_tau, (u2y - T2y) * inv_tau, (u2z - T2z) * inv_tau]

    def advance(y: list, u: tuple, i_first: int, n: int, dt: float) -> list:
        # Names: a body-axis suffix (px = payload x, 1y = vehicle 1 y, ...)
        # and, after an underscore, the RK4 stage. Stage k evaluates the
        # derivative at y + c_k * dt * (stage k-1 derivative); positions step
        # with the stage velocities v*_k, velocities with the accelerations
        # a*_k, actual thrusts with the lag rates r*_k.
        (xpx, xpy, xpz, vpx, vpy, vpz,
         x1x, x1y, x1z, v1x, v1y, v1z,
         x2x, x2y, x2z, v2x, v2y, v2z,
         T1x, T1y, T1z, T2x, T2y, T2z) = y
        u1x, u1y, u1z, u2x, u2y, u2z = u
        half = 0.5 * dt
        sixth = dt / 6.0
        for i in range(i_first, i_first + n):
            apx_1, apy_1, apz_1, a1x_1, a1y_1, a1z_1, a2x_1, a2y_1, a2z_1 = accel(
                xpx, xpy, xpz, vpx, vpy, vpz, x1x, x1y, x1z, v1x, v1y, v1z,
                x2x, x2y, x2z, v2x, v2y, v2z, T1x, T1y, T1z, T2x, T2y, T2z)
            r1x_1, r1y_1, r1z_1 = ((u1x - T1x) * inv_tau, (u1y - T1y) * inv_tau,
                                   (u1z - T1z) * inv_tau)
            r2x_1, r2y_1, r2z_1 = ((u2x - T2x) * inv_tau, (u2y - T2y) * inv_tau,
                                   (u2z - T2z) * inv_tau)

            vpx_2, vpy_2, vpz_2 = vpx + half * apx_1, vpy + half * apy_1, vpz + half * apz_1
            v1x_2, v1y_2, v1z_2 = v1x + half * a1x_1, v1y + half * a1y_1, v1z + half * a1z_1
            v2x_2, v2y_2, v2z_2 = v2x + half * a2x_1, v2y + half * a2y_1, v2z + half * a2z_1
            T1x_2, T1y_2, T1z_2 = T1x + half * r1x_1, T1y + half * r1y_1, T1z + half * r1z_1
            T2x_2, T2y_2, T2z_2 = T2x + half * r2x_1, T2y + half * r2y_1, T2z + half * r2z_1
            apx_2, apy_2, apz_2, a1x_2, a1y_2, a1z_2, a2x_2, a2y_2, a2z_2 = accel(
                xpx + half * vpx, xpy + half * vpy, xpz + half * vpz, vpx_2, vpy_2, vpz_2,
                x1x + half * v1x, x1y + half * v1y, x1z + half * v1z, v1x_2, v1y_2, v1z_2,
                x2x + half * v2x, x2y + half * v2y, x2z + half * v2z, v2x_2, v2y_2, v2z_2,
                T1x_2, T1y_2, T1z_2, T2x_2, T2y_2, T2z_2)
            r1x_2, r1y_2, r1z_2 = ((u1x - T1x_2) * inv_tau, (u1y - T1y_2) * inv_tau,
                                   (u1z - T1z_2) * inv_tau)
            r2x_2, r2y_2, r2z_2 = ((u2x - T2x_2) * inv_tau, (u2y - T2y_2) * inv_tau,
                                   (u2z - T2z_2) * inv_tau)

            vpx_3, vpy_3, vpz_3 = vpx + half * apx_2, vpy + half * apy_2, vpz + half * apz_2
            v1x_3, v1y_3, v1z_3 = v1x + half * a1x_2, v1y + half * a1y_2, v1z + half * a1z_2
            v2x_3, v2y_3, v2z_3 = v2x + half * a2x_2, v2y + half * a2y_2, v2z + half * a2z_2
            T1x_3, T1y_3, T1z_3 = T1x + half * r1x_2, T1y + half * r1y_2, T1z + half * r1z_2
            T2x_3, T2y_3, T2z_3 = T2x + half * r2x_2, T2y + half * r2y_2, T2z + half * r2z_2
            apx_3, apy_3, apz_3, a1x_3, a1y_3, a1z_3, a2x_3, a2y_3, a2z_3 = accel(
                xpx + half * vpx_2, xpy + half * vpy_2, xpz + half * vpz_2, vpx_3, vpy_3, vpz_3,
                x1x + half * v1x_2, x1y + half * v1y_2, x1z + half * v1z_2, v1x_3, v1y_3, v1z_3,
                x2x + half * v2x_2, x2y + half * v2y_2, x2z + half * v2z_2, v2x_3, v2y_3, v2z_3,
                T1x_3, T1y_3, T1z_3, T2x_3, T2y_3, T2z_3)
            r1x_3, r1y_3, r1z_3 = ((u1x - T1x_3) * inv_tau, (u1y - T1y_3) * inv_tau,
                                   (u1z - T1z_3) * inv_tau)
            r2x_3, r2y_3, r2z_3 = ((u2x - T2x_3) * inv_tau, (u2y - T2y_3) * inv_tau,
                                   (u2z - T2z_3) * inv_tau)

            vpx_4, vpy_4, vpz_4 = vpx + dt * apx_3, vpy + dt * apy_3, vpz + dt * apz_3
            v1x_4, v1y_4, v1z_4 = v1x + dt * a1x_3, v1y + dt * a1y_3, v1z + dt * a1z_3
            v2x_4, v2y_4, v2z_4 = v2x + dt * a2x_3, v2y + dt * a2y_3, v2z + dt * a2z_3
            T1x_4, T1y_4, T1z_4 = T1x + dt * r1x_3, T1y + dt * r1y_3, T1z + dt * r1z_3
            T2x_4, T2y_4, T2z_4 = T2x + dt * r2x_3, T2y + dt * r2y_3, T2z + dt * r2z_3
            apx_4, apy_4, apz_4, a1x_4, a1y_4, a1z_4, a2x_4, a2y_4, a2z_4 = accel(
                xpx + dt * vpx_3, xpy + dt * vpy_3, xpz + dt * vpz_3, vpx_4, vpy_4, vpz_4,
                x1x + dt * v1x_3, x1y + dt * v1y_3, x1z + dt * v1z_3, v1x_4, v1y_4, v1z_4,
                x2x + dt * v2x_3, x2y + dt * v2y_3, x2z + dt * v2z_3, v2x_4, v2y_4, v2z_4,
                T1x_4, T1y_4, T1z_4, T2x_4, T2y_4, T2z_4)

            # y + dt/6 * (k1 + 2 (k2 + k3) + k4); positions first, while
            # vpx.. still hold the stage-1 velocities
            xpx += sixth * (vpx + 2.0 * (vpx_2 + vpx_3) + vpx_4)
            xpy += sixth * (vpy + 2.0 * (vpy_2 + vpy_3) + vpy_4)
            xpz += sixth * (vpz + 2.0 * (vpz_2 + vpz_3) + vpz_4)
            x1x += sixth * (v1x + 2.0 * (v1x_2 + v1x_3) + v1x_4)
            x1y += sixth * (v1y + 2.0 * (v1y_2 + v1y_3) + v1y_4)
            x1z += sixth * (v1z + 2.0 * (v1z_2 + v1z_3) + v1z_4)
            x2x += sixth * (v2x + 2.0 * (v2x_2 + v2x_3) + v2x_4)
            x2y += sixth * (v2y + 2.0 * (v2y_2 + v2y_3) + v2y_4)
            x2z += sixth * (v2z + 2.0 * (v2z_2 + v2z_3) + v2z_4)
            vpx += sixth * (apx_1 + 2.0 * (apx_2 + apx_3) + apx_4)
            vpy += sixth * (apy_1 + 2.0 * (apy_2 + apy_3) + apy_4)
            vpz += sixth * (apz_1 + 2.0 * (apz_2 + apz_3) + apz_4)
            v1x += sixth * (a1x_1 + 2.0 * (a1x_2 + a1x_3) + a1x_4)
            v1y += sixth * (a1y_1 + 2.0 * (a1y_2 + a1y_3) + a1y_4)
            v1z += sixth * (a1z_1 + 2.0 * (a1z_2 + a1z_3) + a1z_4)
            v2x += sixth * (a2x_1 + 2.0 * (a2x_2 + a2x_3) + a2x_4)
            v2y += sixth * (a2y_1 + 2.0 * (a2y_2 + a2y_3) + a2y_4)
            v2z += sixth * (a2z_1 + 2.0 * (a2z_2 + a2z_3) + a2z_4)
            T1x += sixth * (r1x_1 + 2.0 * (r1x_2 + r1x_3) + (u1x - T1x_4) * inv_tau)
            T1y += sixth * (r1y_1 + 2.0 * (r1y_2 + r1y_3) + (u1y - T1y_4) * inv_tau)
            T1z += sixth * (r1z_1 + 2.0 * (r1z_2 + r1z_3) + (u1z - T1z_4) * inv_tau)
            T2x += sixth * (r2x_1 + 2.0 * (r2x_2 + r2x_3) + (u2x - T2x_4) * inv_tau)
            T2y += sixth * (r2y_1 + 2.0 * (r2y_2 + r2y_3) + (u2y - T2y_4) * inv_tau)
            T2z += sixth * (r2z_1 + 2.0 * (r2z_2 + r2z_3) + (u2z - T2z_4) * inv_tau)

            if not isfinite(sum((xpx, xpy, xpz, vpx, vpy, vpz,
                                 x1x, x1y, x1z, v1x, v1y, v1z,
                                 x2x, x2y, x2z, v2x, v2y, v2z,
                                 T1x, T1y, T1z, T2x, T2y, T2z))):
                raise IntegrationBlowupError((i + 1) * dt)
        return [xpx, xpy, xpz, vpx, vpy, vpz, x1x, x1y, x1z, v1x, v1y, v1z,
                x2x, x2y, x2z, v2x, v2y, v2z, T1x, T1y, T1z, T2x, T2y, T2z]

    return rhs, advance


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled simulation output.

    ``states`` rows follow the flat layout in :mod:`spinlift.model`;
    ``commands`` rows are [T_cmd_1, T_cmd_2]; ``tether`` rows are [F_1, F_2];
    ``theta`` is the control-frame angle schedule at each sample time.
    """

    t: np.ndarray         # (n,) sample times [s]
    states: np.ndarray    # (n, 24)
    commands: np.ndarray  # (n, 6)
    tether: np.ndarray    # (n, 2)
    theta: np.ndarray     # (n,) control-frame angle [rad]

    def __len__(self) -> int:
        return len(self.t)

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


def simulate(initial: SystemState,
             controller: Callable[[list, float], list],
             frame_angle: Callable[[float], float],
             params: SystemParams,
             duration: float,
             output_decimation: int | None = None) -> Trajectory:
    """Run the closed loop from t = 0: controller at f_ctrl with zero-order
    hold, physics stepped at dt_physics.

    At each control tick ``controller(y, t)`` receives the flat 24-element
    state (a list of floats in the layout of :mod:`spinlift.model`) and the
    tick time, and returns the six commanded thrusts [T_cmd_1, T_cmd_2] as
    floats, held until the next tick. A non-finite command is not refused
    here: it makes the state non-finite in the first step of its hold, which
    raises :class:`IntegrationBlowupError` with that step's end time.

    ``frame_angle(t)`` is the control-frame angle schedule. It does not enter
    the physics; it is evaluated once per stored sample to fill the
    trajectory's ``theta`` column.

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

    _, advance = _make_rhs(params)
    n_samples = n_steps // dec + 1
    t_out = np.empty(n_samples)
    states_out = np.empty((n_samples, STATE_DIM))
    commands_out = np.empty((n_samples, 6))
    theta_out = np.empty(n_samples)

    y = initial.as_vector().tolist()

    def record(i_step: int):
        t = i_step * dt
        t_out[i_step // dec] = t
        theta_out[i_step // dec] = frame_angle(t)
        states_out[i_step // dec] = y
        commands_out[i_step // dec] = u

    i = 0
    while i < n_steps:
        if i % steps_per_tick == 0:
            u = tuple(controller(y, i * dt))
            if i == 0:
                record(0)
        # integrate up to the next control tick or stored sample
        stop = min(n_steps, (i // steps_per_tick + 1) * steps_per_tick, (i // dec + 1) * dec)
        y = advance(y, u, i, stop - i, dt)
        i = stop
        if i % dec == 0:
            record(i)

    x_p, v_p = states_out[:, 0:3], states_out[:, 3:6]
    F_1, _ = tether_force(states_out[:, 6:9], states_out[:, 9:12], x_p, v_p, params)
    F_2, _ = tether_force(states_out[:, 12:15], states_out[:, 15:18], x_p, v_p, params)
    return Trajectory(t=t_out, states=states_out, commands=commands_out,
                      tether=np.column_stack([F_1, F_2]), theta=theta_out)


_CSV_HEADER = (
    "t,x_p_x,x_p_y,x_p_z,v_p_x,v_p_y,v_p_z,"
    "x_1_x,x_1_y,x_1_z,v_1_x,v_1_y,v_1_z,"
    "x_2_x,x_2_y,x_2_z,v_2_x,v_2_y,v_2_z,"
    "T_act_1_x,T_act_1_y,T_act_1_z,T_act_2_x,T_act_2_y,T_act_2_z,"
    "F_1,F_2,theta"
)


def trajectory_to_csv(traj: Trajectory) -> str:
    """Render the trajectory as CSV at full double precision (repr floats)."""
    rows = (np.concatenate(([t], y, f, [theta])).tolist()
            for t, y, f, theta in zip(traj.t, traj.states, traj.tether, traj.theta))
    return table_text(_CSV_HEADER, rows)
