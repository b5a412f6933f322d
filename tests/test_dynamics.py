import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import simpson

from spinlift.dynamics import (DegenerateGeometryError, IntegrationBlowupError,
                               _make_rhs, simulate, tether_force, tether_forces,
                               trajectory_to_csv)
from spinlift.equilibrium import build_equilibrium, omega_star, tension_at_equilibrium
from spinlift.lqr import _c_frame_model
from spinlift.model import ParamError, SystemParams, SystemState, vec3

ORIGIN = vec3(0.0, 0.0, 1.5)
DEG = math.radians


def zero_cmd():
    return [0.0] * 6


def rhs_at(state, cmd, omega_c, params):
    """The integrator's right-hand side at one state, in the flat layout."""
    rhs, _ = _make_rhs(params)
    return np.asarray(rhs(state.as_vector().tolist(), cmd, omega_c))


def advance_from(state, cmd, omega_c, params, dt, n):
    """The flat state after n RK4 steps of size dt under a held command and a
    constant spin rate."""
    _, advance = _make_rhs(params)
    return advance(state.as_vector().tolist(), cmd, lambda t: omega_c, state.t, 0, n, dt)


def slack_state(params, t=0.0):
    """Vehicles closer than the rest length on both sides: no tether force."""
    return SystemState(
        x_p=ORIGIN, v_p=vec3(0, 0, 0),
        x_1=ORIGIN + vec3(0.3, 0.0, 0.4), v_1=vec3(0, 0, 0),
        x_2=ORIGIN + vec3(-0.3, 0.0, 0.4), v_2=vec3(0, 0, 0),
        T_act_1=vec3(0, 0, 0), T_act_2=vec3(0, 0, 0), theta=0.0, t=t,
    )


@st.composite
def near_formation_states(draw):
    """States near the two-tether formation; each tether 2% slack to 1% taut,
    bodies moving at up to 1 m/s, so every branch of the rope law occurs."""
    def vec(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=3, max_size=3)))

    x_p = ORIGIN + vec(-0.1, 0.1)
    vehicles = []
    for side in (1.0, -1.0):
        direction = vec3(0.7 * side, 0.0, 0.7) + vec(-0.3, 0.3)
        length = draw(st.floats(0.98, 1.01))  # rest length ell = 1 m
        vehicles.append(x_p + length * direction / np.linalg.norm(direction))
    return SystemState(x_p=x_p, v_p=vec(-1.0, 1.0),
                       x_1=vehicles[0], v_1=vec(-1.0, 1.0),
                       x_2=vehicles[1], v_2=vec(-1.0, 1.0),
                       T_act_1=vec(-5.0, 20.0), T_act_2=vec(-5.0, 20.0))


def rk4_reference(rhs, y, u, omega_c, dt):
    """Textbook RK4 over the flat right-hand side, omega_C held over the step:
    the arithmetic the fused stepper in simulate must reproduce bit for bit."""
    half = 0.5 * dt
    sixth = dt / 6.0
    k1 = rhs(y, u, omega_c)
    k2 = rhs([a + half * b for a, b in zip(y, k1)], u, omega_c)
    k3 = rhs([a + half * b for a, b in zip(y, k2)], u, omega_c)
    k4 = rhs([a + dt * b for a, b in zip(y, k3)], u, omega_c)
    return [a + sixth * (b1 + 2.0 * (b2 + b3) + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def reference_simulate(initial, controller, omega_profile, params, duration):
    """simulate's closed loop taken one reference RK4 step at a time. Returns
    the time, state and held command after every step (row 0: the start)."""
    rhs, _ = _make_rhs(params)
    dt = params.dt_physics
    hold = round(1.0 / (params.f_ctrl * dt))
    t0 = initial.t
    y = initial.as_vector().tolist()
    t, states, commands = [t0], [y], []
    for i in range(round(duration / dt)):
        if i % hold == 0:
            u = tuple(controller(y, t0 + i * dt))
            if i == 0:
                commands.append(u)
        y = rk4_reference(rhs, y, u, float(omega_profile(t0 + (i + 0.5) * dt)), dt)
        if not math.isfinite(sum(y)):
            raise IntegrationBlowupError(t0 + (i + 1) * dt)
        t.append(t0 + (i + 1) * dt)
        states.append(y)
        commands.append(u)
    return np.array(t), np.array(states), np.array(commands)


class TestTetherForce:
    def test_rest_length_zero_force(self):
        p = SystemParams()
        F, r_hat = tether_force(vec3(0, 0, 1.0), vec3(0, 0, 0),
                                vec3(0, 0, 0), vec3(0, 0, 0), p)
        assert F == 0.0
        assert_allclose(r_hat, [0, 0, 1], atol=1e-15)

    def test_equilibrium_stretch_tension(self):
        # stretch carrying the beta=60 deg tension: oracle m_p*g/(2 cos 60)
        p = SystemParams()
        expected = p.m_p * p.g / (2.0 * math.cos(math.radians(60)))
        F, _ = tether_force(vec3(0, 0, 1.002943), vec3(0, 0, 0),
                            vec3(0, 0, 0), vec3(0, 0, 0), p)
        assert expected == pytest.approx(5.886, abs=1e-9)
        assert F == pytest.approx(expected, abs=1e-6)

    def test_slack_clamp(self):
        p = SystemParams()
        F, _ = tether_force(vec3(0, 0, 0.99), vec3(0, 0, 0),
                            vec3(0, 0, 0), vec3(0, 0, 0), p)
        assert F == 0.0

    def test_slack_rope_does_not_pull(self):
        # 1 mm short of the rest length and extending at 0.5 m/s: the
        # spring-damper sum is +3 N, but a slack rope carries no tension
        p = SystemParams()
        F, _ = tether_force(vec3(0, 0, 0.999), vec3(0, 0, 0.5),
                            vec3(0, 0, 0), vec3(0, 0, 0), p)
        assert F == 0.0
        state = slack_state(p).replace(
            x_1=ORIGIN + vec3(0, 0, 0.999), v_1=vec3(0, 0, 0.5),
            x_2=ORIGIN + vec3(0, 0.999, 0), v_2=vec3(0, 0.5, 0))
        assert_allclose(rhs_at(state, zero_cmd(), 0.0, p)[3:6], [0, 0, -p.g], atol=0)

    @given(state=near_formation_states())
    def test_rhs_copy_matches_tether_forces(self, state):
        # the integrator's inline tether law, and the design model built on
        # it, agree with tether_forces on taut and slack tethers alike
        p = SystemParams()
        g = vec3(0, 0, -p.g)

        def accelerations(pair):
            pull_1, pull_2 = pair.F_1 * pair.r_hat_1, pair.F_2 * pair.r_hat_2
            return np.concatenate([(pull_1 + pull_2) / p.m_p + g,
                                   (state.T_act_1 - pull_1) / p.m_q + g,
                                   (state.T_act_2 - pull_2) / p.m_q + g])

        accel = [3, 4, 5, 9, 10, 11, 15, 16, 17]
        d = rhs_at(state, zero_cmd(), 0.0, p)
        assert_allclose(d[accel], accelerations(tether_forces(state, p)),
                        rtol=1e-12, atol=1e-12)
        u = np.concatenate([state.T_act_1, state.T_act_2])
        d_c = _c_frame_model(p)(state.as_vector()[:18], u, 0.0)
        assert_allclose(d_c[accel], accelerations(tether_forces(state, p)),
                        rtol=1e-12, atol=1e-12)

    def test_stacked_vectors(self):
        # (3,) input keeps the scalar contract; (n, 3) gives one force per row
        p = SystemParams()
        F, r_hat = tether_force(vec3(0, 0, 1.001), vec3(0, 0, 0),
                                vec3(0, 0, 0), vec3(0, 0, 0), p)
        assert type(F) is float
        assert r_hat.shape == (3,)
        x_i = np.array([[0, 0, 1.001], [0, 0, 0.9], [0, 1.002, 0]])
        v_i = np.array([[0, 0, 0], [0, 0, 0], [0, 0.1, 0]])
        F, r_hat = tether_force(x_i, v_i, np.zeros(3), np.zeros(3), p)
        assert F.shape == (3,) and r_hat.shape == (3, 3)
        for row in range(3):
            F_row, r_row = tether_force(x_i[row], v_i[row], vec3(0, 0, 0),
                                        vec3(0, 0, 0), p)
            assert F[row] == pytest.approx(F_row, rel=1e-15)
            assert_allclose(r_hat[row], r_row, rtol=1e-15)
        assert F[1] == 0.0
        x_i[2] = 0.0
        with pytest.raises(DegenerateGeometryError):
            tether_force(x_i, v_i, np.zeros(3), np.zeros(3), p)

    def test_damping_term(self):
        p = SystemParams()
        F, _ = tether_force(vec3(0, 0, 1.0), vec3(0, 0, 0.2),
                            vec3(0, 0, 0), vec3(0, 0, 0), p)
        assert F == pytest.approx(p.c_T * 0.2, rel=1e-12)

    def test_coincident_positions_rejected(self):
        p = SystemParams()
        with pytest.raises(DegenerateGeometryError):
            tether_force(vec3(1, 2, 3), vec3(0, 0, 0), vec3(1, 2, 3),
                         vec3(0, 0, 0), p)

    def test_pairwise_evaluation(self):
        p = SystemParams()
        _, state, _ = build_equilibrium(DEG(60), 0.0, p)
        pair = tether_forces(state, p)
        assert pair.F_1 == pytest.approx(5.886, abs=1e-9)
        assert pair.F_1 == pair.F_2
        assert np.linalg.norm(pair.r_hat_1) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(pair.r_hat_2) == pytest.approx(1.0, abs=1e-9)
        assert pair.F_1 >= 0.0 and pair.F_2 >= 0.0


class TestDerivative:
    def test_free_fall(self):
        p = SystemParams()
        d = rhs_at(slack_state(p), zero_cmd(), 0.0, p)
        for accel in (d[3:6], d[9:12], d[15:18]):
            assert_allclose(accel, [0, 0, -9.81], atol=1e-12)

    def test_rotating_equilibrium_is_balanced(self):
        p = SystemParams()
        beta = math.radians(60)
        w = omega_star(beta, p)
        _, state, cmd = build_equilibrium(beta, w, p)
        d = rhs_at(state, cmd, w, p)
        assert np.linalg.norm(d[3:6]) < 1e-9
        # vehicles accelerate centripetally at the stretched radius
        ell_s = p.ell + tension_at_equilibrium(beta, p) / p.k_T
        a_mag = np.linalg.norm(d[9:12])
        assert a_mag == pytest.approx(w * w * ell_s * math.sin(beta), rel=1e-9)
        # within half a percent of the rigid rest-length value 7.28 m/s^2
        assert a_mag == pytest.approx(w * w * p.ell * math.sin(beta), rel=5e-3)
        direction = d[9:12] / a_mag
        assert_allclose(direction, [-1.0, 0.0, 0.0], atol=1e-9)  # toward the axis

    def test_static_equilibrium_fixed_point(self):
        p = SystemParams()
        _, state, cmd = build_equilibrium(math.radians(60), 0.0, p)
        d = rhs_at(state, cmd, 0.0, p)
        for accel in (d[3:6], d[9:12], d[15:18]):
            assert np.linalg.norm(accel) < 1e-9

    def test_thrust_lag_rate(self):
        p = SystemParams()
        state = slack_state(p)
        cmd = [0.0, 0.0, 2.0, 0.0, 0.0, 0.0]
        d = rhs_at(state, cmd, 0.0, p)
        assert_allclose(d[18:21], [0, 0, 2.0 / p.tau_att], rtol=1e-12)

    def test_internal_forces_cancel(self):
        # tether forces are internal: total force equals externals exactly
        p = SystemParams()
        rng = np.random.default_rng(11)
        for _ in range(20):
            y = np.zeros(25)
            y[0:3] = ORIGIN + rng.normal(0, 0.05, 3)
            y[6:9] = ORIGIN + [0.7, 0, 0.8] + rng.normal(0, 0.05, 3)
            y[12:15] = ORIGIN + [-0.7, 0, 0.8] + rng.normal(0, 0.05, 3)
            y[3:6] = rng.normal(0, 0.5, 3)
            y[9:12] = rng.normal(0, 0.5, 3)
            y[15:18] = rng.normal(0, 0.5, 3)
            y[18:24] = rng.normal(0, 2.0, 6)
            state = SystemState.from_vector(y)
            d = rhs_at(state, zero_cmd(), 0.0, p)
            total = p.m_p * d[3:6] + p.m_q * (d[9:12] + d[15:18])
            external = (state.T_act_1 + state.T_act_2
                        + vec3(0, 0, -(p.m_p + 2 * p.m_q) * p.g))
            assert_allclose(total, external, atol=1e-12)

    def test_drag_toggle(self):
        p = SystemParams(drag_enabled=True, c_d_quad=0.05, c_d_payload=0.02)
        state = slack_state(p).replace(v_p=vec3(2.0, 0, 0))
        d = rhs_at(state, zero_cmd(), 0.0, p)
        expected = -0.02 * 2.0 * 2.0 / p.m_p
        assert d[3] == pytest.approx(expected, rel=1e-12)


class TestStep:
    def test_equilibrium_step_is_stationary(self):
        p = SystemParams()
        beta = math.radians(60)
        w = omega_star(beta, p)
        _, state, cmd = build_equilibrium(beta, w, p)
        nxt = advance_from(state, cmd, w, p, p.dt_physics, 1)
        assert np.linalg.norm(np.subtract(nxt[0:3], state.x_p)) < 1e-6
        assert nxt[24] == pytest.approx(w * p.dt_physics)

    def test_ballistic_free_fall_analytic(self):
        p = SystemParams()
        y = advance_from(slack_state(p), zero_cmd(), 0.0, p, 5e-4, 2000)
        assert y[2] - ORIGIN[2] == pytest.approx(-0.5 * 9.81, abs=1e-9)

    def test_rk4_convergence_order(self):
        p = SystemParams()
        _, state0, cmd = build_equilibrium(math.radians(45), 0.0, p)
        # payload sag keeps both tethers taut; smooth nontrivial motion
        state0 = state0.replace(x_p=state0.x_p + vec3(0, 0, -0.005))

        def integrate(dt, t_final=0.25):
            return np.array(advance_from(state0, cmd, 0.0, p, dt, int(round(t_final / dt))))

        ref = integrate(1.25e-4)
        e1 = np.linalg.norm(integrate(1e-3) - ref)
        e2 = np.linalg.norm(integrate(5e-4) - ref)
        order = math.log2(e1 / e2)
        assert 3.7 <= order <= 4.3

    def test_invalid_dt_rejected(self):
        # the integrator steps at params.dt_physics, which is refused when
        # nonpositive or beyond the stiff-tether stability guard
        with pytest.raises(ParamError, match="dt_physics"):
            SystemParams(dt_physics=0.0)
        with pytest.raises(ParamError, match="stability guard"):
            SystemParams(dt_physics=0.1)

    def test_blowup_carries_time(self):
        p = SystemParams()
        _, state, _ = build_equilibrium(0.5, 0.0, p)
        bomb = [0.0, 0.0, 1e300, 0.0, 0.0, 0.0]
        with pytest.raises(IntegrationBlowupError) as excinfo:
            advance_from(state, bomb, 0.0, p, 5e-4, 100)
        assert excinfo.value.t > 0.0


class TestSimulate:
    def test_controller_invocation_count(self):
        p = SystemParams()
        _, state, cmd = build_equilibrium(0.5, 0.0, p)
        calls = []

        def controller(y, t):
            calls.append((y, t))
            return cmd

        simulate(state, controller, lambda t: 0.0, p, duration=1.0)
        assert len(calls) == 50
        assert calls[0] == (state.as_vector().tolist(), 0.0)
        assert calls[-1][1] == pytest.approx(0.98, abs=1e-12)
        assert all(len(y) == 25 and all(type(v) is float for v in y) for y, _ in calls)

    def test_theta_matches_profile_integral(self):
        p = SystemParams()
        _, state, cmd = build_equilibrium(0.5, 0.0, p)
        w_end = omega_star(0.5, p)
        ramp = 5.0

        def profile(t):
            return w_end * min(t, ramp) / ramp

        traj = simulate(state, lambda y, t: cmd, profile, p, duration=6.0)
        theta_exact = 0.5 * w_end * ramp + w_end * 1.0
        assert traj.theta[-1] == pytest.approx(theta_exact, abs=1e-6)

    def test_theta_nondecreasing_for_nonnegative_omega(self):
        p = SystemParams()
        _, state, cmd = build_equilibrium(0.5, 0.0, p)
        traj = simulate(state, lambda y, t: cmd, lambda t: 1.3, p, duration=0.5)
        assert np.all(np.diff(traj.theta) >= 0.0)

    def test_determinism_bitwise(self):
        p = SystemParams()
        beta = math.radians(45)
        w = omega_star(beta, p)
        _, state, cmd = build_equilibrium(beta, w, p)
        runs = [simulate(state, lambda y, t: cmd, lambda t: w, p, duration=0.5)
                for _ in range(2)]
        assert trajectory_to_csv(runs[0]) == trajectory_to_csv(runs[1])
        assert np.array_equal(runs[0].states, runs[1].states)

    def test_momentum_conservation_internal_forces_only(self):
        p = SystemParams(g=0.0)
        _, state, _ = build_equilibrium(math.radians(45), 0.0, SystemParams())
        state = state.replace(v_p=vec3(0.3, -0.2, 0.1),
                              T_act_1=vec3(0, 0, 0), T_act_2=vec3(0, 0, 0))
        traj = simulate(state, lambda y, t: zero_cmd(), lambda t: 0.0, p,
                        duration=1.0, output_decimation=200)
        momentum = (p.m_p * traj.v_p + p.m_q * traj.v_1 + p.m_q * traj.v_2)
        drift = np.linalg.norm(momentum - momentum[0], axis=1)
        assert drift.max() < 1e-8

    def test_mirror_symmetry_preserved(self):
        # 180-degree rotation about the spin axis maps the system to itself
        p = SystemParams()
        beta = math.radians(50)
        w = omega_star(beta, p)
        spec, state, cmd = build_equilibrium(beta, w, p)
        state = state.replace(
            x_1=state.x_1 + vec3(0.03, 0.01, -0.02),
            x_2=state.x_2 + vec3(-0.03, -0.01, -0.02),
            v_p=vec3(0, 0, 0.05),
        )
        traj = simulate(state, lambda y, t: cmd, lambda t: w, p, duration=1.0,
                        output_decimation=100)
        mirror = np.diag([-1.0, -1.0, 1.0])
        rel1 = traj.x_1 - ORIGIN
        rel2 = traj.x_2 - ORIGIN
        assert_allclose(rel2, rel1 @ mirror.T, atol=1e-10)
        assert_allclose(traj.v_2, traj.v_1 @ mirror.T, atol=1e-10)
        assert_allclose(traj.x_p[:, 0:2], np.zeros_like(traj.x_p[:, 0:2]), atol=1e-10)

    def test_energy_audit(self):
        # drag off, both ropes taut throughout: d/dt(E) = thrust power -
        # damping dissipation
        p = SystemParams()
        _, state, cmd = build_equilibrium(math.radians(45), 0.0, p)
        state = state.replace(x_p=state.x_p + vec3(0.0, 0.0, -0.004))
        traj = simulate(state, lambda y, t: cmd, lambda t: 0.0, p,
                        duration=1.0, output_decimation=1)
        assert traj.tether.min() > 0.0
        n = len(traj)
        # kinetic, gravitational (z datum at 0) and spring energy
        energies = 0.5 * (p.m_p * np.sum(traj.v_p ** 2, axis=1)
                          + p.m_q * np.sum(traj.v_1 ** 2, axis=1)
                          + p.m_q * np.sum(traj.v_2 ** 2, axis=1))
        energies += p.g * (p.m_p * traj.x_p[:, 2] + p.m_q * traj.x_1[:, 2]
                           + p.m_q * traj.x_2[:, 2])
        for x_i in (traj.x_1, traj.x_2):
            stretch = np.linalg.norm(x_i - traj.x_p, axis=1) - p.ell
            energies += 0.5 * p.k_T * stretch * stretch
        thrust_power = (np.sum(traj.T_act_1 * traj.v_1, axis=1)
                        + np.sum(traj.T_act_2 * traj.v_2, axis=1))
        damping = np.zeros(n)
        for x_i, v_i in ((traj.x_1, traj.v_1), (traj.x_2, traj.v_2)):
            rel = x_i - traj.x_p
            dist = np.linalg.norm(rel, axis=1)
            rate = np.sum((v_i - traj.v_p) * rel, axis=1) / dist
            damping += p.c_T * rate ** 2
        work = simpson(thrust_power - damping, x=traj.t)
        defect = (energies[-1] - energies[0]) - work
        scale = max(abs(energies[0]), 1.0)
        assert abs(defect) < 1e-6 * scale

    @given(state=near_formation_states(),
           thrusts=st.lists(st.lists(st.floats(-5.0, 20.0), min_size=6, max_size=6),
                            min_size=4, max_size=4),
           w=st.floats(0.0, 4.0), drag=st.booleans())
    def test_matches_reference_integrator(self, state, thrusts, w, drag):
        # 62 steps at 20 steps per hold: three command changes, and a
        # decimation of 7 that puts stored samples inside holds
        p = SystemParams(f_ctrl=100.0, drag_enabled=drag)
        def controller(y, t):
            return thrusts[round(t * p.f_ctrl)]

        def profile(t):
            return w * (1.0 + 10.0 * t)

        t, states, cmds = reference_simulate(state, controller, profile, p, 0.031)
        for dec in (1, 7, 20):
            traj = simulate(state, controller, profile, p, 0.031,
                            output_decimation=dec)
            assert np.array_equal(traj.t, t[::dec])
            assert np.array_equal(traj.states, states[::dec])
            assert np.array_equal(traj.commands, cmds[::dec])

    @pytest.mark.parametrize("thrust", [1e300, 1e160, math.nan])
    def test_blowup_time_matches_reference(self, thrust):
        # the bomb is issued at the 0.04 s tick; 1e300 N and a NaN command
        # blow up in the next step, 1e160 N fourteen steps later, all inside
        # the hold
        p = SystemParams()
        _, state, cmd = build_equilibrium(0.5, 0.0, p)
        bomb = [0.0, 0.0, thrust, 0.0, 0.0, 0.0]

        def controller(y, t):
            return bomb if t >= 0.03 else cmd

        with pytest.raises(IntegrationBlowupError) as expected:
            reference_simulate(state, controller, lambda t: 0.0, p, 0.2)
        with pytest.raises(IntegrationBlowupError) as excinfo:
            simulate(state, controller, lambda t: 0.0, p, 0.2, output_decimation=7)
        assert excinfo.value.t == expected.value.t
        ticks = expected.value.t * p.f_ctrl
        assert abs(ticks - round(ticks)) > 1e-6  # not a hold boundary
        if thrust != 1e160:
            assert expected.value.t == pytest.approx(0.04 + p.dt_physics, abs=1e-12)

    def test_tension_column_matches_tether_forces(self):
        # slack vehicles thrust upward away from the falling payload until
        # the ropes snap taut and throw them back: slack, taut, slack again
        p = SystemParams()
        lift = [0.0, 0.0, 2.0 * p.m_q * p.g] * 2
        traj = simulate(slack_state(p), lambda y, t: lift, lambda t: 0.0, p,
                        duration=0.5, output_decimation=5)
        for i in range(len(traj)):
            pair = tether_forces(SystemState.from_vector(traj.states[i]), p)
            assert_allclose(traj.tether[i], [pair.F_1, pair.F_2], rtol=1e-12, atol=1e-9)
        slack = np.stack([np.linalg.norm(traj.x_1 - traj.x_p, axis=1) < p.ell,
                          np.linalg.norm(traj.x_2 - traj.x_p, axis=1) < p.ell], axis=1)
        assert slack[0].all() and slack[-1].all() and not slack.all()
        assert np.all(traj.tether[slack] == 0.0)
        assert np.any(traj.tether[~slack] > 0.0)

    def test_zero_order_hold_alignment_required(self):
        p = SystemParams(dt_physics=3e-4, f_ctrl=50.0)  # 1/(50*3e-4) = 66.67
        _, state, cmd = build_equilibrium(0.5, 0.0, p)
        with pytest.raises(ValueError, match="zero-order hold"):
            simulate(state, lambda y, t: cmd, lambda t: 0.0, p, duration=0.1)

    def test_csv_export(self):
        p = SystemParams()
        _, state, cmd = build_equilibrium(0.5, 0.0, p)
        traj = simulate(state, lambda y, t: cmd, lambda t: 0.0, p, duration=0.1)
        csv = trajectory_to_csv(traj)
        lines = csv.strip().split("\n")
        assert lines[0].startswith("t,x_p_x,x_p_y,x_p_z,")
        assert lines[0].split(",")[-3:] == ["F_1", "F_2", "theta"]
        assert len(lines) == len(traj) + 1
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[3] == state.x_p[2]
