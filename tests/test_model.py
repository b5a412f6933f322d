import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinlift.model import (ConfigError, ParamError, SystemParams, SystemState,
                            load_params, params_to_text, rotation_c_to_e, vec3)


class TestSystemParams:
    def test_defaults_match_experiment_table(self):
        p = SystemParams()
        assert p.m_q == 0.7
        assert p.m_p == 0.6
        assert p.ell == 1.0
        assert p.N_p == 4
        assert p.r_p == 0.1
        assert p.g == 9.81

    def test_reduced_mass(self):
        p = SystemParams()
        assert_allclose(p.m_red, 0.7 * 0.6 / 1.3, rtol=1e-15)

    def test_zero_mass_rejected_by_name(self):
        with pytest.raises(ParamError, match="m_q"):
            SystemParams(m_q=0.0)

    @pytest.mark.parametrize("field,value", [
        ("m_p", -1.0), ("ell", 0.0), ("r_p", 0.0), ("rho", 0.0),
        ("k_T", 0.0), ("c_T", -0.1), ("tau_att", 0.0),
        ("dt_physics", -1e-3), ("f_ctrl", 0.0), ("g", -9.81),
    ])
    def test_invariant_violations_name_the_field(self, field, value):
        with pytest.raises(ParamError, match=field):
            SystemParams(**{field: value})

    def test_propeller_count_must_be_positive_integer(self):
        with pytest.raises(ParamError, match="N_p"):
            SystemParams(N_p=0)
        with pytest.raises(ParamError, match="N_p"):
            SystemParams(N_p=2.5)

    def test_stiff_tether_stability_guard(self):
        # limit = 2 / sqrt(k_T / m_red) = 0.02542 s at the default stiffness
        p = SystemParams()
        assert_allclose(p.dt_stability_limit,
                        2.0 / math.sqrt(2000.0 / (0.42 / 1.3)), rtol=1e-12)
        # evaluating the guard: dt = 0.01 < 0.0254 passes, dt = 0.03 fails
        SystemParams(dt_physics=0.01, f_ctrl=50.0)
        with pytest.raises(ParamError, match="dt_physics"):
            SystemParams(dt_physics=0.03)

    def test_control_rate_guard(self):
        with pytest.raises(ParamError, match="f_ctrl"):
            SystemParams(dt_physics=0.02, f_ctrl=100.0)


class TestRotation:
    def test_identity_at_zero(self):
        assert_allclose(rotation_c_to_e(0.0), np.eye(3), atol=1e-15)

    def test_quarter_turn_maps_x_to_y(self):
        R = rotation_c_to_e(math.pi / 2)
        assert_allclose(R @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-15)

    def test_inverse(self):
        R = rotation_c_to_e(0.7) @ rotation_c_to_e(-0.7)
        assert_allclose(R, np.eye(3), atol=1e-15)

    def test_orthonormal_and_composition(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            t1, t2 = rng.uniform(-10, 10, size=2)
            R1, R2 = rotation_c_to_e(t1), rotation_c_to_e(t2)
            assert_allclose(R1.T @ R1, np.eye(3), atol=1e-12)
            assert np.linalg.det(R1) == pytest.approx(1.0, abs=1e-12)
            assert_allclose(R1 @ R2, rotation_c_to_e(t1 + t2), atol=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            rotation_c_to_e(float("nan"))


class TestConfig:
    def test_table_defaults_round_trip(self):
        text = "m_q = 0.7\nm_p = 0.6\nell = 1.0\nN_p = 4\nr_p = 0.1\n"
        p = load_params(text)
        assert (p.m_q, p.m_p, p.ell, p.N_p, p.r_p) == (0.7, 0.6, 1.0, 4, 0.1)

    def test_comments_and_blank_lines(self):
        p = load_params("# tether\nk_T = 1500.0  # stiff\n\nc_T = 5.0\n")
        assert p.k_T == 1500.0
        assert p.c_T == 5.0

    def test_unknown_keys_listed(self):
        with pytest.raises(ConfigError, match="bogus_key"):
            load_params("bogus_key = 1\nm_q = 0.7\nother = 2\n")
        with pytest.raises(ConfigError, match="other"):
            load_params("bogus_key = 1\nother = 2\n")

    def test_parse_failure_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            load_params("m_q = 0.7\nm_p = sixty\n")
        with pytest.raises(ConfigError, match="line 1"):
            load_params("just words\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            load_params("m_q = 0.7\nm_q = 0.8\n")

    def test_bool_parsing(self):
        assert load_params("drag_enabled = true\n").drag_enabled is True
        assert load_params("drag_enabled = Off\n").drag_enabled is False
        with pytest.raises(ConfigError, match="drag_enabled"):
            load_params("drag_enabled = maybe\n")

    def test_invariant_violation_from_config(self):
        with pytest.raises(ParamError, match="m_q"):
            load_params("m_q = 0\n")

    def test_serialize_then_reload_is_identity(self):
        p = SystemParams(m_q=0.81, k_T=1234.5, drag_enabled=True, c_d_quad=0.07)
        again = load_params(params_to_text(p))
        assert again == p


class TestStateTypes:
    def test_state_vector_round_trip(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(25)
        state = SystemState.from_vector(y, t=1.25)
        assert_allclose(state.as_vector(), y, rtol=0, atol=0)
        assert state.t == 1.25
        assert state.theta == y[24]

    def test_nonfinite_state_rejected(self):
        good = np.zeros(25)
        bad = good.copy()
        bad[4] = np.nan
        SystemState.from_vector(good)
        with pytest.raises(ValueError):
            SystemState.from_vector(bad)

    def test_state_replace(self):
        state = SystemState.from_vector(np.zeros(25))
        moved = state.replace(x_p=vec3(1, 0, 0))
        assert moved.x_p[0] == 1.0
        assert state.x_p[0] == 0.0
