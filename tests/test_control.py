import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinlift.control import (ControllerConfig, SpinProfile, command_log_to_csv,
                              control_step)
from spinlift.dynamics import simulate
from spinlift.equilibrium import build_equilibrium, omega_star
from spinlift.lqr import synthesize
from spinlift.model import SystemParams, SystemState, rotation_c_to_e, vec3

P = SystemParams()
DEG = math.radians
ORIGIN = vec3(0.0, 0.0, 1.5)


def make_cfg(beta_deg=45.0, spin=True, hover=100.0, **kwargs):
    beta = DEG(beta_deg)
    w = omega_star(beta, P) if spin else 0.0
    spec, state, cmd = build_equilibrium(beta, w, P)
    gains = synthesize(spec, P)
    profile = SpinProfile(omega_target=w, t_hover=hover)
    cfg = ControllerConfig(gain=gains, eq=spec, params=P, profile=profile, **kwargs)
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
        theta=w * t, t=t,
    )


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
            assert_allclose(cmd[0:3], R @ spec.T_bar_1, atol=1e-9)
            assert_allclose(cmd[3:6], R @ spec.T_bar_2, atol=1e-9)

    def test_payload_sag_raises_thrust_symmetrically(self):
        # altitude feedback: payload below setpoint -> more vertical thrust
        cfg, spec, state0, _ = make_cfg(45.0, spin=False)
        sagged = state0.replace(x_p=state0.x_p + vec3(0, 0, -0.1))
        cmd = command(sagged, cfg, 0.0)
        assert cmd[2] > spec.T_bar_1[2]
        assert cmd[5] > spec.T_bar_2[2]
        assert cmd[2] == pytest.approx(cmd[5], rel=1e-9)
        lifted = state0.replace(x_p=state0.x_p + vec3(0, 0, 0.1))
        cmd_up = command(lifted, cfg, 0.0)
        assert cmd_up[2] < spec.T_bar_1[2]

    def test_saturation_preserves_direction(self):
        cfg, spec, state0, _ = make_cfg(45.0, spin=False)
        far = state0.replace(x_p=state0.x_p + vec3(0, 0, -30.0))
        cmd = command(far, cfg, 0.0)
        n1 = np.linalg.norm(cmd[0:3])
        assert n1 == pytest.approx(cfg.T_max, rel=1e-12)
        # direction identical to the unsaturated command
        big = ControllerConfig(gain=cfg.gain, eq=cfg.eq, params=P,
                               profile=cfg.profile, T_max=1e9)
        raw = command(far, big, 0.0)
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
        # at zero spin the scheduled feedforward equals the static-balance
        # thrust for the same tether angle
        cfg, spec, _, _ = make_cfg(60.0, spin=True)
        ff0 = cfg.feedforward(0.0)
        static_spec, _, _ = build_equilibrium(DEG(60), 0.0, P)
        assert_allclose(ff0[0:3], static_spec.T_bar_1, atol=1e-12)
        ff_star = cfg.feedforward(spec.omega_C)
        assert_allclose(ff_star[0:3], spec.T_bar_1, atol=1e-12)

    def test_unreachable_operating_point_rejected(self):
        beta = DEG(45)
        spec, _, _ = build_equilibrium(beta, 0.0, P)
        gains = synthesize(spec, P)
        with pytest.raises(ValueError, match="T_max"):
            ControllerConfig(gain=gains, eq=spec, params=P,
                             profile=SpinProfile(omega_target=0.0), T_max=5.0)

    @pytest.mark.parametrize("spin, T_max, refused", [
        # 60 deg feedforward thrust: 11.055 N at rest, 9.810 N at omega*,
        # 11.716 N at 1.5 omega*
        (1.5, 11.4, True),    # refused at the target rate
        (1.0, 10.5, True),    # refused at rest
        (0.0, 11.4, False),
    ])
    def test_thrust_limit_checked_at_both_ends_of_schedule(self, spin, T_max, refused):
        beta = DEG(60)
        w = spin * omega_star(beta, P)
        spec, _, _ = build_equilibrium(beta, w, P)
        gains = synthesize(spec, P)
        profile = SpinProfile(omega_target=w, t_ramp_up=8.0, t_hover=40.0, t_ramp_down=8.0)
        if refused:
            with pytest.raises(ValueError, match="T_max"):
                ControllerConfig(gain=gains, eq=spec, params=P, profile=profile, T_max=T_max)
        else:
            ControllerConfig(gain=gains, eq=spec, params=P, profile=profile, T_max=T_max)


class TestClosedLoopPlumbing:
    def test_zero_order_hold_bit_identical(self):
        cfg, spec, state0, _ = make_cfg(45.0, spin=True, hover=100.0)
        traj = simulate(state0, lambda y, t: control_step(y, cfg, t),
                        cfg.profile.omega, P, duration=0.2, output_decimation=1)
        steps_per_tick = int(round(1.0 / (P.f_ctrl * P.dt_physics)))
        for tick_start in range(1, len(traj) - steps_per_tick, steps_per_tick):
            block = traj.commands[tick_start:tick_start + steps_per_tick]
            assert np.array_equal(block, np.repeat(block[:1], len(block), axis=0))

    def test_command_log_csv(self):
        cfg, spec, state0, _ = make_cfg(30.0, spin=False)
        traj = simulate(state0, lambda y, t: control_step(y, cfg, t),
                        cfg.profile.omega, P, duration=0.1)
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
                        cfg.profile.omega, P, duration=0.02)
        csv = command_log_to_csv(traj, cfg.T_max)
        assert csv.strip().split("\n")[1].endswith(",1")
