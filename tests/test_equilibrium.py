import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spinlift.equilibrium import (SingularityError, build_equilibrium,
                                  feedforward, omega_star, power, sweep_beta,
                                  sweep_omega, sweep_to_csv, tension_at_equilibrium,
                                  thrust_components, thrust_magnitude, tilt_angle)
from spinlift.model import SystemParams, SystemState

from reference import reference_rhs

P = SystemParams()
DEG = math.radians


class TestTension:
    def test_vertical_tethers_share_weight(self):
        assert tension_at_equilibrium(0.0, P) == pytest.approx(2.943, abs=1e-12)

    def test_sixty_degrees(self):
        assert tension_at_equilibrium(DEG(60), P) == pytest.approx(5.886, abs=1e-9)

    def test_near_singularity_large_but_finite(self):
        value = tension_at_equilibrium(DEG(89.9), P)
        assert value > 1686.0
        assert math.isfinite(value)

    def test_singularity_rejected(self):
        with pytest.raises(SingularityError):
            tension_at_equilibrium(DEG(90), P)
        with pytest.raises(SingularityError):
            tension_at_equilibrium(-0.1, P)

    def test_payload_force_balance_identity(self):
        for beta in np.linspace(0.0, 1.5, 40):
            total = tension_at_equilibrium(beta, P) * 2.0 * math.cos(beta)
            assert total == pytest.approx(P.m_p * P.g, rel=1e-14)


class TestThrustMagnitude:
    def test_optimal_spin_gives_weight_share(self):
        # at omega_star the horizontal term collapses analytically
        expected = P.m_p * P.g / 2.0 + P.m_q * P.g
        assert expected == pytest.approx(9.810, abs=1e-9)
        for beta_deg in (10, 30, 45, 60, 75):
            T = thrust_magnitude(DEG(beta_deg), omega_star(DEG(beta_deg), P), P)
            assert T == pytest.approx(expected, rel=1e-12)

    def test_static_sixty_degrees(self):
        assert thrust_magnitude(DEG(60), 0.0, P) == pytest.approx(11.0553, abs=1e-3)
        # oracle: hypot of the weight share and the horizontal tan term
        oracle = math.hypot(P.m_p * P.g / 2 + P.m_q * P.g,
                            (P.m_p * P.g / 2) * math.tan(DEG(60)))
        assert thrust_magnitude(DEG(60), 0.0, P) == pytest.approx(oracle, rel=1e-14)

    @pytest.mark.parametrize("omega", [-1.0, math.inf, math.nan, 1e160])
    def test_invalid_spin_rate_rejected(self, omega):
        # 1e160 rad/s is finite, but its square overflows
        with pytest.raises(ValueError, match="omega_C must be finite and nonnegative"):
            thrust_components(DEG(60), omega, P, P.ell)

    def test_beta_zero_any_spin(self):
        for w in (0.0, 1.0, 5.0):
            assert thrust_magnitude(0.0, w, P) == pytest.approx(9.810, abs=1e-9)

    def test_optimal_identity_on_random_parameters(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            params = SystemParams(
                m_q=rng.uniform(0.2, 3.0), m_p=rng.uniform(0.1, 4.0),
                ell=rng.uniform(0.3, 5.0), r_p=rng.uniform(0.05, 0.3),
            )
            beta = rng.uniform(0.0, 1.55)
            T = thrust_magnitude(beta, omega_star(beta, params), params)
            expected = params.m_p * params.g / 2.0 + params.m_q * params.g
            assert T == pytest.approx(expected, rel=1e-10)

    def test_static_dominates_rotating(self):
        for beta in np.linspace(0.0, 1.5, 30):
            Ts = thrust_magnitude(beta, 0.0, P)
            Tr = thrust_magnitude(beta, omega_star(beta, P), P)
            if beta == 0.0:
                assert Ts == pytest.approx(Tr, rel=1e-15)
            else:
                assert Ts > Tr


class TestOmegaStar:
    def test_sixty_degrees_matches_reported_value(self):
        w = omega_star(DEG(60), P)
        assert w == pytest.approx(2.90, abs=0.01)
        assert w * P.ell * math.sin(DEG(60)) == pytest.approx(2.5, abs=0.05)

    def test_forty_five_degrees(self):
        w = omega_star(DEG(45), P)
        assert w == pytest.approx(2.438, abs=1e-3)
        v_tan = w * P.ell * math.sin(DEG(45))
        assert v_tan == pytest.approx(1.724, abs=1e-3)
        assert abs(v_tan - 1.8) < 0.15  # the demo flight reports ~1.8 m/s

    def test_beta_zero_well_defined(self):
        assert omega_star(0.0, P) == pytest.approx(
            math.sqrt(P.m_p * P.g / (2 * P.m_q * P.ell)), rel=1e-14)
        assert omega_star(0.0, P) == pytest.approx(2.0504, abs=1e-3)


class TestTilt:
    def test_static_outward_pitch(self):
        tilt = tilt_angle(DEG(60), 0.0, P)
        assert math.degrees(tilt) == pytest.approx(27.46, abs=0.01)
        assert tilt == pytest.approx(math.atan2(5.097, 9.81), abs=1e-3)

    def test_zero_at_optimal_spin(self):
        for beta_deg in (20, 45, 70):
            beta = DEG(beta_deg)
            assert tilt_angle(beta, omega_star(beta, P), P) == pytest.approx(0.0, abs=1e-12)

    def test_inward_beyond_optimal(self):
        beta = DEG(45)
        assert tilt_angle(beta, omega_star(beta, P) * 1.2, P) < 0.0


class TestPower:
    def test_hover_weight_share(self):
        rep = power(9.810, P)
        assert rep.P_per_vehicle == pytest.approx(55.37, abs=0.01)
        assert rep.P_total == pytest.approx(110.7, abs=0.1)
        assert rep.P_total == 2.0 * rep.P_per_vehicle

    def test_zero_thrust(self):
        rep = power(0.0, P)
        assert rep.P_per_vehicle == 0.0
        assert rep.P_total == 0.0

    def test_static_sixty_power_and_ratio(self):
        rep = power(11.055, P)
        assert rep.P_per_vehicle == pytest.approx(66.24, abs=0.02)
        ratio = (11.055 / 9.810) ** 1.5
        assert ratio == pytest.approx(1.196, abs=1e-3)

    def test_negative_thrust_rejected(self):
        with pytest.raises(ValueError):
            power(-1.0, P)

    def test_overflowing_thrust_rejected(self):
        # 1e300 N is finite, but its 1.5th power is not; at the second thrust
        # one vehicle's power is 1.2e308 W, finite, but the pair total is not
        for T in (1e300, (1.2e308 * P.rotor_constant) ** (2.0 / 3.0)):
            with pytest.raises(ValueError, match="overflows the power law"):
                power(T, P)

    def test_density_scaling(self):
        dense = SystemParams(rho=2.0 * P.rho)
        assert power(9.81, dense).P_per_vehicle == pytest.approx(
            power(9.81, P).P_per_vehicle / math.sqrt(2.0), rel=1e-14)

    def test_dimensional_form(self):
        T = 7.3
        expected = T ** 1.5 / (P.r_p * math.sqrt(2 * math.pi * P.rho * P.N_p))
        assert power(T, P).P_per_vehicle == pytest.approx(expected, rel=1e-15)


class TestBuildEquilibrium:
    def test_rotating_velocities(self):
        beta = DEG(60)
        w = omega_star(beta, P)
        _, state, _ = build_equilibrium(beta, w, P)
        assert type(state) is SystemState and all(type(v) is float for v in state)
        v_1, v_2 = state[9:12], state[15:18]
        assert v_1[0] == 0.0
        assert v_1[2] == 0.0
        assert v_1[1] == pytest.approx(2.5, abs=0.05)
        # vehicle 2 moves as -v_1 componentwise, signed zeros included
        assert repr(v_2) == repr(tuple(-v for v in v_1))
        assert w * P.ell * math.sin(beta) == pytest.approx(2.5, abs=0.05)

    def test_static_case(self):
        _, state, _ = build_equilibrium(DEG(60), 0.0, P)
        for v in (state[3:6], state[9:12], state[15:18]):
            assert_allclose(v, np.zeros(3), atol=0)
        assert math.degrees(tilt_angle(DEG(60), 0.0, P)) == pytest.approx(27.46, abs=0.01)

    def test_thrust_mirror_symmetry(self):
        spec, _, _ = build_equilibrium(DEG(50), 1.7, P)
        T_1, T_2 = spec.u_bar[0:3], spec.u_bar[3:6]
        assert T_1[0] == -T_2[0]
        assert T_1[1] == T_2[1] == 0.0
        assert T_1[2] == T_2[2]

    def test_tension_floor(self):
        for beta in np.linspace(0.0, 1.5, 20):
            floor = P.m_p * P.g / 2.0
            if beta == 0.0:
                assert tension_at_equilibrium(beta, P) == pytest.approx(floor, rel=1e-15)
            else:
                assert tension_at_equilibrium(beta, P) > floor

    @given(beta_deg=st.floats(0.0, 89.0), target=st.floats(0.0, 1.5),
           rate=st.floats(0.0, 1.5))
    def test_fixed_point_of_dynamics(self, beta_deg, target, rate):
        # cross-module property over the envelope: the feedforward of the
        # operating point built at one spin rate, scheduled to another rate,
        # is bit for bit the command build_equilibrium makes at that rate,
        # and that command balances the truth model
        beta = DEG(beta_deg)
        w_star = omega_star(beta, P)
        spec, _, _ = build_equilibrium(beta, target * w_star, P)
        w = rate * w_star
        _, state, cmd = build_equilibrium(beta, w, P)
        assert list(feedforward(spec.beta, w, P, spec.length)) == cmd

        d = reference_rhs(list(state), cmd, P)
        tension = tension_at_equilibrium(beta, P)
        # the forces are of the size of the tension; rounding leaves at most
        # about 1.2e-12 m/s^2 of imbalance per newton of tension
        tol = 1e-10 * tension
        assert np.linalg.norm(d[3:6]) < tol
        ell_s = P.ell + tension / P.k_T
        expected = w * w * ell_s * math.sin(beta)
        assert np.linalg.norm(d[9:12]) == pytest.approx(expected, rel=0.0, abs=tol)

    def test_spring_carries_exact_tension(self):
        _, state, _ = build_equilibrium(DEG(60), 0.0, P)
        dist = np.linalg.norm(np.subtract(state[6:9], state[0:3]))
        assert P.k_T * (dist - P.ell) == pytest.approx(tension_at_equilibrium(DEG(60), P),
                                                       rel=1e-12)


class TestSweeps:
    def test_rotating_power_is_flat(self):
        grid = [DEG(d) for d in np.arange(30, 61, 7.5)]
        result = sweep_beta(grid, "rotating_opt", P)
        totals = [r.P_total for r in result.reports]
        assert not result.failures
        spread = (max(totals) - min(totals)) / totals[0]
        assert spread < 1e-9
        assert totals[0] == pytest.approx(110.7, abs=0.1)

    def test_static_power_strictly_increasing(self):
        grid = [DEG(d) for d in np.arange(0, 76, 5)]
        totals = [r.P_total for r in sweep_beta(grid, "static", P).reports]
        assert all(b > a for a, b in zip(totals, totals[1:]))

    def test_beta_zero_modes_coincide(self):
        static = sweep_beta([0.0], "static", P).reports[0]
        rotating = sweep_beta([0.0], "rotating_opt", P).reports[0]
        assert static.P_total == pytest.approx(rotating.P_total, rel=1e-15)
        assert static.T_per_vehicle == pytest.approx(rotating.T_per_vehicle, rel=1e-15)

    def test_singular_point_recorded_and_sweep_continues(self):
        result = sweep_beta([DEG(30), DEG(95), DEG(60)], "static", P)
        assert len(result.reports) == 2
        assert len(result.failures) == 1
        assert result.failures[0][0] == pytest.approx(DEG(95))

    def test_omega_failures_recorded_and_sweep_continues(self):
        # negative rates fail with their grid value and message; the others fly
        result = sweep_omega(DEG(60), np.array([-1.0, 0.0, -0.5, 2.0]), P)
        assert [r.omega_C for r in result.reports] == [0.0, 2.0]
        assert [v for v, _ in result.failures] == [-1.0, -0.5]
        assert all(type(v) is float for v, _ in result.failures)
        for value, message in result.failures:
            assert message == ("omega_C must be finite and nonnegative, with a finite "
                               f"centripetal force m_q * omega_C^2 * length; got {value}")
        # beyond 90 deg every point fails, each with the singularity message
        singular = sweep_omega(DEG(95), [0.0, 1.0, 6.0], P)
        assert not singular.reports
        assert [v for v, _ in singular.failures] == [0.0, 1.0, 6.0]
        assert all(m.startswith("beta must be in [0, 90) deg") for _, m in singular.failures)

    def test_omega_minimum_at_optimal_rate(self):
        for beta_deg in (30, 45, 60):
            beta = DEG(beta_deg)
            grid = np.linspace(0.0, 6.0, 1201)
            result = sweep_omega(beta, grid, P)
            totals = np.array([r.P_total for r in result.reports])
            i_min = int(np.argmin(totals))
            i_star = int(np.argmin(np.abs(grid - omega_star(beta, P))))
            assert i_min == i_star

    def test_omega_zero_entry_matches_static(self):
        beta = DEG(40)
        by_omega = sweep_omega(beta, [0.0], P).reports[0]
        by_beta = sweep_beta([beta], "static", P).reports[0]
        assert by_omega.P_total == by_beta.P_total

    def test_minima_level_is_beta_independent(self):
        minima = []
        for beta_deg in (30, 45, 60):
            beta = DEG(beta_deg)
            grid = np.linspace(0.0, 6.0, 3001)
            totals = [r.P_total for r in sweep_omega(beta, grid, P).reports]
            minima.append(min(totals))
        spread = (max(minima) - min(minima)) / minima[0]
        assert spread < 1e-6

    def test_power_unimodal_in_omega(self):
        beta = DEG(50)
        grid = np.linspace(0.0, 6.0, 601)
        totals = np.array([r.P_total for r in sweep_omega(beta, grid, P).reports])
        diffs = np.diff(totals)
        w_star = omega_star(beta, P)
        assert np.all(diffs[grid[1:] <= w_star] < 0)
        assert np.all(diffs[grid[:-1] >= w_star] > 0)

    def test_csv_output(self):
        result = sweep_beta([DEG(30), DEG(60)], "static", P)
        csv = sweep_to_csv(result, P)
        lines = csv.strip().split("\n")
        assert lines[0] == ("beta_deg,omega_rad_s,T_vehicle_N,P_vehicle_W,"
                            "P_total_W,tilt_deg,tension_N")
        assert len(lines) == 3
        row = [float(v) for v in lines[2].split(",")]
        assert row[0] == pytest.approx(60.0)
        assert row[2] == pytest.approx(11.0553, abs=1e-3)
        assert row[6] == pytest.approx(5.886, abs=1e-6)

    @given(m_q=st.floats(0.1, 5.0), m_p=st.floats(0.05, 5.0), ell=st.floats(0.2, 5.0),
           beta_deg=st.floats(0.0, 85.0))
    def test_saving_is_a_law_of_mu_tan_beta(self, m_q, m_p, ell, beta_deg):
        # the static thrust is the rotating one times sqrt(1 + (mu tan beta)^2),
        # mu = m_p / (2 m_q + m_p), so with P ~ T^1.5 the saving is
        # 1 - (1 + mu^2 tan^2 beta)^(-3/4) whatever ell. Measured over 3 000
        # draws of these ranges: at most 4.8e-16 from the law; the bound is 2e-15
        p = SystemParams(m_q=m_q, m_p=m_p, ell=ell)
        beta = DEG(beta_deg)
        static, rotating = (sweep_beta([beta], mode, p).reports[0].P_total
                            for mode in ("static", "rotating_opt"))
        mu = m_p / (2.0 * m_q + m_p)
        law = 1.0 - (1.0 + (mu * math.tan(beta)) ** 2) ** -0.75
        assert abs((static - rotating) / static - law) <= 2e-15

    def test_twenty_percent_point(self):
        # the paper's "up to 20%": the law reaches 20% at mu tan beta = 0.589,
        # beta = 63.0 deg at the default masses (mu = 0.3)
        x = math.sqrt(0.8 ** (-4.0 / 3.0) - 1.0)
        assert x == pytest.approx(0.5887, abs=1e-4)
        beta = math.atan(x / 0.3)
        assert math.degrees(beta) == pytest.approx(63.0, abs=0.01)
        static, rotating = (sweep_beta([beta], mode, P).reports[0].P_total
                            for mode in ("static", "rotating_opt"))
        assert (static - rotating) / static == pytest.approx(0.2, abs=1e-14)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            sweep_beta([0.1], "hover", P)
