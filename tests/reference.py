"""The tests' reference truth model: the module docstring's equations of
:mod:`spinlift.dynamics` on plain floats, and the RK4 steps over them that
the library's stepper must reproduce. It is the second copy of the physics,
which the library writes once; every part of a state is read by name
through ``STATE_SLICES``, so a test that pins the stepper to this reference
also pins the stepper's positional unpack to ``STATE_PARTS``."""

import math

from spinlift.model import STATE_DIM, STATE_PARTS, STATE_SLICES

# the flat indices of the actual thrusts, which lag their commands: T_act_1's
# components lag u[0:3] and T_act_2's lag u[3:6]
THRUSTS = [k for name in ("T_act_1", "T_act_2") for k in range(STATE_DIM)[STATE_SLICES[name]]]


def reference_tension(x_i, v_i, x_p, v_p, params):
    """The module docstring's rope law on plain floats, in the stepper's
    operation order: ``(F, r_hat)`` of the tether from the payload at
    ``x_p`` to the vehicle at ``x_i``. The coincident-body check is left
    out."""
    r = [a - b for a, b in zip(x_i, x_p)]
    d = math.sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2])
    inv_d = 1.0 / d
    h = [c * inv_d for c in r]
    rate = ((v_i[0] - v_p[0]) * h[0] + (v_i[1] - v_p[1]) * h[1]
            + (v_i[2] - v_p[2]) * h[2])
    F = params.k_T * (d - params.ell) + params.c_T * rate
    if d < params.ell or F < 0.0:
        F = 0.0
    return F, h


def reference_tensions(y, params):
    """``[(F_1, r_hat_1), (F_2, r_hat_2)]`` of the flat state ``y``, by
    :func:`reference_tension`."""
    def part(name):
        return y[STATE_SLICES[name]]

    return [reference_tension(part(f"x_{i}"), part(f"v_{i}"), part("x_p"), part("v_p"), params)
            for i in (1, 2)]


def reference_rhs(y, u, params):
    """The module docstring's equations of motion on plain floats, one body
    at a time, in the stepper's operation order: each pull F_i * r_hat_i
    once, by :func:`reference_tension`, accelerations as force sums times the
    reciprocal mass, the drag force first in each sum only when a drag
    coefficient is nonzero, and the thrust lag rates. The coincident-body
    check is left out. Returns the 24 rates in the flat layout."""
    def part(name):
        return y[STATE_SLICES[name]]

    v_p, v_1, v_2 = part("v_p"), part("v_1"), part("v_2")
    f_1, f_2 = ([F * c for c in h] for F, h in reference_tensions(y, params))
    T_1, T_2 = part("T_act_1"), part("T_act_2")
    if params.c_d_quad > 0.0 or params.c_d_payload > 0.0:
        def drag(c_d, v):
            s = -c_d * math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
            return [s * c for c in v]

        fd_p, fd_1, fd_2 = (drag(params.c_d_payload, v_p), drag(params.c_d_quad, v_1),
                            drag(params.c_d_quad, v_2))
        payload = [fd_p[k] + f_1[k] + f_2[k] for k in range(3)]
        vehicle_1 = [T_1[k] + fd_1[k] - f_1[k] for k in range(3)]
        vehicle_2 = [T_2[k] + fd_2[k] - f_2[k] for k in range(3)]
    else:
        payload = [f_1[k] + f_2[k] for k in range(3)]
        vehicle_1 = [T_1[k] - f_1[k] for k in range(3)]
        vehicle_2 = [T_2[k] - f_2[k] for k in range(3)]
    inv_mp, inv_mq, inv_tau = 1.0 / params.m_p, 1.0 / params.m_q, 1.0 / params.tau_att
    a_p = [c * inv_mp for c in payload]
    a_1 = [c * inv_mq for c in vehicle_1]
    a_2 = [c * inv_mq for c in vehicle_2]
    for a in (a_p, a_1, a_2):
        a[2] -= params.g
    rates = {"x_p": v_p, "v_p": a_p, "x_1": v_1, "v_1": a_1, "x_2": v_2, "v_2": a_2,
             "T_act_1": [(c - T) * inv_tau for c, T in zip(u[0:3], T_1)],
             "T_act_2": [(c - T) * inv_tau for c, T in zip(u[3:6], T_2)]}
    return [c for name in STATE_PARTS for c in rates[name]]


def textbook_rk4(rhs, y, u, dt):
    """Textbook RK4 over the flat right-hand side, lag rates included."""
    half = 0.5 * dt
    sixth = dt / 6.0
    k1 = rhs(y, u)
    k2 = rhs([a + half * b for a, b in zip(y, k1)], u)
    k3 = rhs([a + half * b for a, b in zip(y, k2)], u)
    k4 = rhs([a + dt * b for a, b in zip(y, k3)], u)
    return [a + sixth * (b1 + 2.0 * (b2 + b3) + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def rk4_reference(rhs, y, u, dt, tau):
    """The arithmetic of one step of the library's stepper, which it must
    reproduce bit for bit: textbook RK4 over rhs for the positions and
    velocities, and for the six thrusts the closed form u + (T - u) * c of
    RK4 on the linear lag, with c2, c3, c4 its stage values and c5 its update
    on e' = -e / tau from e = 1."""
    half = 0.5 * dt
    sixth = dt / 6.0
    inv_tau = 1.0 / tau
    c2 = 1.0 - half * inv_tau
    c3 = 1.0 - half * inv_tau * c2
    c4 = 1.0 - dt * inv_tau * c3
    c5 = 1.0 - sixth * inv_tau * (1.0 + 2.0 * (c2 + c3) + c4)
    command = dict(zip(THRUSTS, u))
    lag = {k: y[k] - command[k] for k in THRUSTS}

    def stage(step, rates, c):
        return [command[k] + lag[k] * c if k in lag else a + step * b
                for k, (a, b) in enumerate(zip(y, rates))]

    k1 = rhs(y, u)
    k2 = rhs(stage(half, k1, c2), u)
    k3 = rhs(stage(half, k2, c3), u)
    k4 = rhs(stage(dt, k3, c4), u)
    return [command[k] + lag[k] * c5 if k in lag else a + sixth * (b1 + 2.0 * (b2 + b3) + b4)
            for k, (a, b1, b2, b3, b4) in enumerate(zip(y, k1, k2, k3, k4))]
