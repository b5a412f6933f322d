import math

import numpy as np
import pytest
from hypothesis import example, given, reject
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spinlift.control import (ControllerConfig, SpinProfile, command_log_to_csv,
                              control_step)
from spinlift.dynamics import simulate
from spinlift.equilibrium import build_equilibrium, feedforward, omega_star
from spinlift.lqr import GainSet, synthesize
from spinlift.model import SystemParams, SystemState, rotation_c_to_e, vec3

P = SystemParams()
DEG = math.radians
ORIGIN = vec3(0.0, 0.0, 1.5)


def make_cfg(beta_deg=45.0, spin=True, hover=100.0):
    beta = DEG(beta_deg)
    w = omega_star(beta, P) if spin else 0.0
    spec, state, cmd = build_equilibrium(beta, w, P)
    gains = synthesize(spec, P)
    profile = SpinProfile(omega_target=w, t_hover=hover)
    cfg = ControllerConfig(gain=gains, eq=spec, params=P, profile=profile)
    return cfg, spec, state, cmd


def command(state, cfg, t):
    """control_step on a validated state: the six thrusts as an array."""
    return np.array(control_step(state.as_vector().tolist(), cfg, t))


def orbit_state(state0, w, t):
    """Equilibrium state carried around the circle to time t."""
    R = rotation_c_to_e(w * t)

    def spin_pos(x):
        return ORIGIN + R @ (x - ORIGIN)

    def spin_vel(x):
        rel = spin_pos(x) - ORIGIN
        return np.array([-w * rel[1], w * rel[0], 0.0])

    return SystemState(
        x_p=spin_pos(state0.x_p), v_p=spin_vel(state0.x_p),
        x_1=spin_pos(state0.x_1), v_1=spin_vel(state0.x_1),
        x_2=spin_pos(state0.x_2), v_2=spin_vel(state0.x_2),
        T_act_1=R @ state0.T_act_1, T_act_2=R @ state0.T_act_2,
    )


def _to_frame(R_t, omega_c, x_e, v_e):
    """Inertial position/velocity -> control-frame components relative to the
    frame origin, with the rotating-frame velocity correction."""
    x_c = R_t @ (x_e - ORIGIN)
    v_c = R_t @ v_e - np.array([-omega_c * x_c[1], omega_c * x_c[0], 0.0])
    return x_c, v_c


def _saturate(T, T_max):
    norm = float(np.linalg.norm(T))
    if norm > T_max:
        T = T * (T_max / norm)
    if T[2] < 0.0:
        T = T.copy()
        T[2] = 0.0
    return T


def reference_control_step(y, cfg, t):
    """The control law in numpy matrix form: the reference for the float tick
    of control_step."""
    omega_c, theta = cfg.profile.omega(t), cfg.profile.theta(t)
    R = rotation_c_to_e(theta)
    y = np.asarray(y, dtype=float)
    s = np.concatenate([np.concatenate(_to_frame(R.T, omega_c, y[i:i + 3], y[i + 3:i + 6]))
                        for i in (0, 6, 12)])
    eq = cfg.eq
    u = (np.array(feedforward(eq.beta, omega_c, cfg.params, eq.length))
         - cfg.gain.K @ (s - np.array(eq.s_bar)))
    return np.concatenate([_saturate(R @ u[0:3], cfg.T_max),
                           _saturate(R @ u[3:6], cfg.T_max)])


class TestSpinProfile:
    def test_ramp_midpoint(self):
        # oracle: theta = 0.5 * (2.9 / 5) * t^2 on the ramp
        prof = SpinProfile(omega_target=2.9, t_ramp_up=5.0, t_hover=40.0)
        w, theta = prof.omega(2.5), prof.theta(2.5)
        assert w == pytest.approx(1.45, rel=1e-12)
        assert theta == pytest.approx(0.5 * (2.9 / 5.0) * 2.5 ** 2, rel=1e-12)
        assert theta == pytest.approx(1.8125, rel=1e-12)

    def test_hover_advance(self):
        prof = SpinProfile(omega_target=2.9, t_ramp_up=5.0, t_hover=40.0)
        theta_start = prof.theta(5.0)
        theta_end = prof.theta(45.0)
        assert theta_end - theta_start == pytest.approx(116.0, rel=1e-12)

    def test_ramp_down_and_rest(self):
        prof = SpinProfile(omega_target=2.0, t_ramp_up=4.0, t_hover=10.0,
                           t_ramp_down=4.0)
        assert prof.omega(16.0) == pytest.approx(1.0, rel=1e-12)
        assert prof.omega(30.0) == 0.0
        total = 0.5 * 2.0 * 4.0 + 2.0 * 10.0 + 0.5 * 2.0 * 4.0
        assert prof.theta(30.0) == pytest.approx(total, rel=1e-12)
        assert prof.theta(1e6) == prof.theta(30.0)

    def test_continuity_at_phase_edges(self):
        prof = SpinProfile(omega_target=2.9, t_ramp_up=5.0, t_hover=7.0, t_ramp_down=3.0)
        for edge in (0.0, 5.0, 12.0, 15.0):
            below = prof.theta(edge - 1e-9)
            above = prof.theta(edge + 1e-9)
            assert above - below == pytest.approx(0.0, abs=1e-7)

    @given(up=st.floats(0.1, 30.0), hover=st.floats(0.1, 30.0), down=st.floats(0.1, 30.0),
           w=st.floats(0.0, 5.0), phase=st.integers(0, 3), frac=st.floats(0.0, 1.0))
    def test_theta_is_the_integral_of_omega(self, up, hover, down, w, phase, frac):
        # inside each phase theta is a quadratic, so its central difference
        # is omega up to the rounding of theta itself
        prof = SpinProfile(omega_target=w, t_ramp_up=up, t_hover=hover, t_ramp_down=down)
        start, end = (0.0, up, prof.hover_end, prof.duration, prof.duration + 10.0)[phase:phase + 2]
        h = 1e-3
        t = start + h + frac * (end - start - 2.0 * h)
        slope = (prof.theta(t + h) - prof.theta(t - h)) / (2.0 * h)
        rounding = 1e-14 * (1.0 + prof.theta(prof.duration)) / h
        assert slope == pytest.approx(prof.omega(t), rel=0.0, abs=rounding)

    def test_phase_edges(self):
        # the edges are computed once, in the same order as the sum of the
        # phase durations; an edge belongs to the phase that ends there
        prof = SpinProfile(omega_target=2.9, t_ramp_up=0.1, t_hover=0.2, t_ramp_down=0.3)
        assert prof.phase_durations == {"spin_up": 0.1, "hover": 0.2, "spin_down": 0.3}
        assert prof.hover_end == 0.1 + 0.2
        assert prof.duration == sum(prof.phase_durations.values())
        assert [prof.phase_at(t) for t in (0.0, 0.1, math.nextafter(0.1, 1.0), prof.hover_end,
                                           math.nextafter(prof.hover_end, 1.0), prof.duration,
                                           prof.duration + 1.0)] == [
            "spin_up", "spin_up", "hover", "hover", "spin_down", "spin_down", "spin_down"]

    def test_negative_durations_rejected(self):
        with pytest.raises(ValueError):
            SpinProfile(omega_target=1.0, t_ramp_up=-1.0)
        with pytest.raises(ValueError):
            SpinProfile(omega_target=-1.0)
        for name in ("omega_target", "t_ramp_up", "t_hover", "t_ramp_down"):
            for value in (math.inf, math.nan):
                fields = {"omega_target": 1.0, name: value}
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    SpinProfile(**fields)


class TestFrameTransforms:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            theta = rng.uniform(-8, 8)
            w = rng.uniform(0, 3)
            x_e = rng.standard_normal(3)
            v_e = rng.standard_normal(3)
            R = rotation_c_to_e(theta)
            x_c = R.T @ (x_e - ORIGIN)
            v_c = R.T @ v_e - np.array([-w * x_c[1], w * x_c[0], 0.0])
            x_back = ORIGIN + R @ x_c
            v_back = R @ (v_c + np.array([-w * x_c[1], w * x_c[0], 0.0]))
            assert_allclose(x_back, x_e, atol=1e-12)
            assert_allclose(v_back, v_e, atol=1e-12)


class TestControlStep:
    def test_equilibrium_passthrough(self):
        cfg, spec, state0, cmd0 = make_cfg(45.0, spin=True)
        w = spec.omega_C
        rng = np.random.default_rng(1)
        for t in rng.uniform(0.0, 30.0, size=100):
            state = orbit_state(state0, w, t)
            cmd = command(state, cfg, t)
            R = rotation_c_to_e(cfg.profile.theta(t))
            assert_allclose(cmd[0:3], R @ spec.u_bar[0:3], atol=1e-9)
            assert_allclose(cmd[3:6], R @ spec.u_bar[3:6], atol=1e-9)

    def test_payload_sag_raises_thrust_symmetrically(self):
        # altitude feedback: payload below setpoint -> more vertical thrust
        cfg, spec, state0, _ = make_cfg(45.0, spin=False)
        sagged = state0.replace(x_p=state0.x_p + vec3(0, 0, -0.1))
        cmd = command(sagged, cfg, 0.0)
        assert cmd[2] > spec.u_bar[2]
        assert cmd[5] > spec.u_bar[5]
        assert cmd[2] == pytest.approx(cmd[5], rel=1e-9)
        lifted = state0.replace(x_p=state0.x_p + vec3(0, 0, 0.1))
        cmd_up = command(lifted, cfg, 0.0)
        assert cmd_up[2] < spec.u_bar[2]

    def test_saturation_preserves_direction(self):
        cfg, spec, state0, _ = make_cfg(45.0, spin=False)
        far = state0.replace(x_p=state0.x_p + vec3(0, 0, -30.0))
        cmd = command(far, cfg, 0.0)
        n1 = np.linalg.norm(cmd[0:3])
        assert cfg.T_max == 4.0 * P.m_q * P.g
        assert n1 == pytest.approx(cfg.T_max, rel=1e-12)
        # direction identical to the unsaturated law u_bar - K (s - s_bar);
        # at rest and at t = 0 the control frame is the earth frame
        s = far.as_vector()[:18].reshape(3, 2, 3)
        s[:, 0] -= ORIGIN
        raw = np.array(spec.u_bar) - cfg.gain.K @ (s.ravel() - spec.s_bar)
        assert np.linalg.norm(raw[0:3]) > cfg.T_max
        cosine = np.dot(cmd[0:3], raw[0:3]) / (
            np.linalg.norm(cmd[0:3]) * np.linalg.norm(raw[0:3]))
        assert cosine == pytest.approx(1.0, abs=1e-12)

    def test_vertical_clamp(self):
        cfg, spec, state0, _ = make_cfg(45.0, spin=False)
        way_up = state0.replace(x_p=state0.x_p + vec3(0, 0, 40.0))
        cmd = command(way_up, cfg, 0.0)
        assert cmd[2] >= 0.0
        assert cmd[5] >= 0.0

    def test_feedforward_schedule_matches_static_balance(self):
        # at zero spin the scheduled feedforward is, bit for bit, the
        # static-balance thrust for the same tether angle, and at the
        # operating point's own rate it is that point's u_bar
        _, spec, _, _ = make_cfg(60.0, spin=True)
        static_spec, _, _ = build_equilibrium(DEG(60), 0.0, P)
        assert feedforward(spec.beta, 0.0, P, spec.length) == static_spec.u_bar
        assert feedforward(spec.beta, spec.omega_C, P, spec.length) == spec.u_bar

    def test_unreachable_operating_point_rejected(self):
        # static thrust at 84 deg: 29.670 N, over the 4 m_q g = 27.468 N limit
        beta = DEG(84)
        spec, _, _ = build_equilibrium(beta, 0.0, P)
        gains = synthesize(spec, P)
        with pytest.raises(ValueError, match="T_max=27.468 N does not exceed the "
                                             "thrust 29.670 N"):
            ControllerConfig(gain=gains, eq=spec, params=P,
                             profile=SpinProfile(omega_target=0.0))

    @pytest.mark.parametrize("beta_deg, spin, refused", [
        # feedforward thrust against the 27.468 N limit: 60 deg, 11.055 N at
        # rest and 28.591 N at 2.5 omega*; 84 deg, 29.670 N at rest and
        # 9.818 N at omega*; 83 deg, 25.899 N at rest and 9.814 N at omega*
        (60.0, 2.5, True),    # refused at the target rate
        (84.0, 1.0, True),    # refused at rest
        (83.0, 1.0, False),
    ])
    def test_thrust_limit_checked_at_both_ends_of_schedule(self, beta_deg, spin, refused):
        beta = DEG(beta_deg)
        w = spin * omega_star(beta, P)
        spec, _, _ = build_equilibrium(beta, w, P)
        gains = synthesize(spec, P)
        profile = SpinProfile(omega_target=w, t_ramp_up=8.0, t_hover=40.0, t_ramp_down=8.0)
        if refused:
            with pytest.raises(ValueError, match="T_max"):
                ControllerConfig(gain=gains, eq=spec, params=P, profile=profile)
        else:
            ControllerConfig(gain=gains, eq=spec, params=P, profile=profile)

    # phases of the schedule below: ramp up, hover, ramp down, rest
    PHASES = ((0.0, 5.0), (5.0, 15.0), (15.0, 20.0), (20.0, 30.0))

    @given(beta_deg=st.floats(0.0, 89.0), rotating=st.booleans(),
           m_p=st.floats(0.05, 0.6), phase=st.integers(0, 3), frac=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1), gain=st.sampled_from([0.0, 1.0, 10.0]),
           scale=st.sampled_from([0.0, 1e-3, 0.1, 10.0]))
    # one seed whose state saturates and clamps both vehicles
    @example(beta_deg=45.0, rotating=True, m_p=0.6, phase=1, frac=0.5, seed=1,
             gain=10.0, scale=10.0)
    def test_matches_numpy_reference(self, beta_deg, rotating, m_p, phase, frac, seed,
                                     gain, scale):
        # tolerance fixed beforehand: 1e-12 T_max per component. Gains of up
        # to 10 over deviations of up to 10 m keep every product below 100 N,
        # so reordered sums differ by far less.
        params = SystemParams(m_p=m_p)
        beta = DEG(beta_deg)
        w = omega_star(beta, params) if rotating else 0.0
        spec, _, _ = build_equilibrium(beta, w, params)
        rng = np.random.default_rng(seed)
        K = gain * rng.uniform(-1.0, 1.0, (6, 18))
        deviation = scale * rng.uniform(-1.0, 1.0, 18)
        profile = SpinProfile(omega_target=w, t_ramp_up=5.0, t_hover=10.0, t_ramp_down=5.0)
        try:
            cfg = ControllerConfig(gain=GainSet(K=K, P=np.eye(18), care_residual=0.0),
                                   eq=spec, params=params, profile=profile)
        except ValueError:
            reject()  # feedforward thrust over T_max: a heavy payload at a steep angle
        start, end = self.PHASES[phase]
        t = start + frac * (end - start)

        # the state whose control-frame deviation from the equilibrium is
        # ``deviation``
        s = np.array(spec.s_bar) + deviation
        R, omega_c = rotation_c_to_e(profile.theta(t)), profile.omega(t)
        y = []
        for x_c, v_c in s.reshape(3, 2, 3):
            y += [*(ORIGIN + R @ x_c), *(R @ (v_c + [-omega_c * x_c[1], omega_c * x_c[0], 0.0]))]
        y += [0.0] * 6

        cmd = control_step(y, cfg, t)
        assert len(cmd) == 6 and all(type(v) is float for v in cmd)
        assert_allclose(cmd, reference_control_step(y, cfg, t), rtol=0.0,
                        atol=1e-12 * cfg.T_max)


class TestClosedLoopPlumbing:
    def test_zero_order_hold_bit_identical(self):
        cfg, spec, state0, _ = make_cfg(45.0, spin=True, hover=100.0)
        traj = simulate(state0, lambda y, t: control_step(y, cfg, t),
                        cfg.profile.theta, P, duration=0.2, output_decimation=1)
        steps_per_tick = int(round(1.0 / (P.f_ctrl * P.dt_physics)))
        for tick_start in range(1, len(traj) - steps_per_tick, steps_per_tick):
            block = traj.commands[tick_start:tick_start + steps_per_tick]
            assert np.array_equal(block, np.repeat(block[:1], len(block), axis=0))

    def test_command_log_csv(self):
        cfg, spec, state0, _ = make_cfg(30.0, spin=False)
        traj = simulate(state0, lambda y, t: control_step(y, cfg, t),
                        cfg.profile.theta, P, duration=0.1)
        csv = command_log_to_csv(traj, cfg.T_max)
        lines = csv.strip().split("\n")
        assert lines[0] == ("t,T_cmd_1_x,T_cmd_1_y,T_cmd_1_z,"
                            "T_cmd_2_x,T_cmd_2_y,T_cmd_2_z,saturated")
        assert len(lines) == len(traj) + 1
        assert all(line.endswith(",0") for line in lines[1:])

    def test_command_log_flags_saturation(self):
        cfg, spec, state0, _ = make_cfg(45.0, spin=False)
        far = state0.replace(x_p=state0.x_p + vec3(0, 0, -30.0))
        traj = simulate(far, lambda y, t: control_step(y, cfg, t),
                        cfg.profile.theta, P, duration=0.02)
        csv = command_log_to_csv(traj, cfg.T_max)
        assert csv.strip().split("\n")[1].endswith(",1")
