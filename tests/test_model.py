import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spinlift.model import (ConfigError, ParamError, SystemParams, SystemState,
                            load_params, params_to_text)

from flatstate import rotation_c_to_e

# the rule on each SystemParams field, as its ParamError message states it
FIELD_RULES = {
    **dict.fromkeys(["m_q", "m_p", "ell", "r_p", "rho", "k_T", "tau_att",
                     "dt_physics", "f_ctrl"], "a positive finite number"),
    **dict.fromkeys(["g", "c_T", "c_d_quad", "c_d_payload"],
                    "a nonnegative finite number"),
    "N_p": "an integer >= 1",
    "drag_enabled": "a bool",
}


def _float_field(lo, hi):
    """A value in [lo, hi] for a float field: a float, an int or an np.float64."""
    floats = st.floats(lo, hi)
    return st.one_of(floats, st.integers(math.ceil(lo), math.floor(hi)), floats.map(np.float64))


@st.composite
def valid_params(draw):
    """SystemParams inside every cross-field rule. The ranges keep the default
    dt_physics under the stability guard, and the control period spans a
    drawn whole number of steps."""
    values = {name: draw(_float_field(lo, hi)) for name, (lo, hi) in {
        "m_q": (0.1, 5.0), "m_p": (0.1, 5.0), "ell": (0.1, 10.0), "g": (0.0, 20.0),
        "r_p": (0.01, 1.0), "rho": (0.1, 10.0), "k_T": (1.0, 1e4), "c_T": (0.0, 100.0),
        "tau_att": (0.01, 1.0), "c_d_quad": (0.0, 1.0), "c_d_payload": (0.0, 1.0),
        "f_ctrl": (1.0, 1000.0)}.items()}
    values["N_p"] = draw(st.integers(1, 8))
    values["drag_enabled"] = draw(st.booleans())
    limit = SystemParams(**{**values, "f_ctrl": 50.0}).dt_stability_limit
    steps = draw(st.integers(2, 100)) + math.floor(1.0 / (values["f_ctrl"] * limit))
    kind = draw(st.sampled_from([float, np.float64]))
    return SystemParams(**values, dt_physics=kind(1.0 / values["f_ctrl"] / steps))


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
        ("m_q", -0.7), ("c_d_quad", -0.05), ("c_d_payload", -0.02), ("N_p", 0),
        ("m_q", math.nan), ("k_T", math.inf), ("f_ctrl", math.inf),
        ("c_T", math.nan), ("g", math.inf), ("c_d_quad", math.inf),
        ("c_d_payload", math.nan),
        *(pytest.param(name, 10**400, id=f"{name}-10**400")  # ints beyond float range
          for name in ("m_q", "g", "f_ctrl")),
        ("drag_enabled", "false"), ("drag_enabled", 0),  # truthy "false" would turn drag on
        ("m_q", True), ("g", False), ("N_p", True),  # a bool is an int, but not a number here
        *((name, "1") for name in FIELD_RULES),  # a str, whatever the rule
    ])
    def test_invariant_violations_name_the_field(self, field, value):
        message = f"{field} must be {FIELD_RULES[field]}, got {value!r}"
        with pytest.raises(ParamError, match=f"^{re.escape(message)}$"):
            SystemParams(**{field: value})

    def test_every_field_carries_its_rule(self):
        rules = {f.name: f.metadata["rule"][0] for f in dataclasses.fields(SystemParams)}
        assert rules == FIELD_RULES

    def test_propeller_count_must_be_positive_integer(self):
        with pytest.raises(ParamError, match="N_p"):
            SystemParams(N_p=0)
        with pytest.raises(ParamError, match="N_p"):
            SystemParams(N_p=2.5)

    @pytest.mark.parametrize("values", [
        {"N_p": 10**400},                # the product overflows int -> float
        {"N_p": 10**308}, {"rho": 1e308},  # the constant is inf
        {"r_p": 1e-320},                 # its reciprocal is inf
        {"r_p": 1e-300, "rho": 1e-300},  # the constant underflows to 0
    ], ids=["N_p=1e400", "N_p=1e308", "rho=1e308", "r_p=1e-320", "r_p=rho=1e-300"])
    def test_rotor_constant_out_of_range(self, values):
        with pytest.raises(ParamError, match="^r_p, rho and N_p give the rotor"):
            SystemParams(**values)

    @given(r_p=st.floats(1e-3, 10.0), rho=st.floats(1e-3, 1e3), N_p=st.integers(1, 1000),
           m_p=st.floats(0.48, 0.72), k_T=st.floats(1400.0, 2600.0),
           tau_att=st.floats(0.04, 0.06))
    def test_rotor_constant_accepts_physical_rotors(self, r_p, rho, N_p, m_p, k_T, tau_att):
        # m_p, k_T and tau_att span the benchmark's seeded design-sweep draws
        # (+-20%, +-30%, +-20% of the defaults), which must all be accepted
        p = SystemParams(r_p=r_p, rho=rho, N_p=N_p, m_p=m_p, k_T=k_T, tau_att=tau_att)
        assert p.rotor_constant == r_p * math.sqrt(2.0 * math.pi * rho * N_p)
        assert SystemParams().rotor_constant == 0.1 * math.sqrt(2.0 * math.pi * 1.225 * 4)

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

    @pytest.mark.parametrize("f_ctrl,dt", [
        (30.0, 5e-4),        # 66.67 steps per control period
        (1e-200, 1e-200),    # the step count overflows to inf
        (5e-324, 5e-4),      # so does the control period
    ])
    def test_control_period_must_span_whole_steps(self, f_ctrl, dt):
        with pytest.raises(ParamError, match="f_ctrl.*zero-order hold"):
            SystemParams(f_ctrl=f_ctrl, dt_physics=dt)
        assert SystemParams(f_ctrl=100.0, dt_physics=1e-4).f_ctrl == 100.0


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
        with pytest.raises(ConfigError, match="line 1"):
            load_params("just words\n")
        for text, message in [
            ("m_q = 0.7\nm_p = sixty\n",
             "line 2: cannot parse value for m_p: could not convert string to float: 'sixty'"),
            ("N_p = 4.0\n",
             "line 1: cannot parse value for N_p: invalid literal for int() with base 10: '4.0'"),
        ]:
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                load_params(text)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            load_params("m_q = 0.7\nm_q = 0.8\n")

    def test_bool_parsing(self):
        assert load_params("drag_enabled = true\n").drag_enabled is True
        assert load_params("drag_enabled = Off\n").drag_enabled is False
        message = "line 1: cannot parse value for drag_enabled: not a boolean: 'maybe'"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_params("drag_enabled = maybe\n")

    def test_invariant_violation_from_config(self):
        with pytest.raises(ParamError, match="m_q"):
            load_params("m_q = 0\n")

    def test_serialize_then_reload_is_identity(self):
        p = SystemParams(m_q=0.81, k_T=1234.5, drag_enabled=True, c_d_quad=0.07)
        again = load_params(params_to_text(p))
        assert again == p

    @given(params=valid_params())
    def test_text_round_trip(self, params):
        text = params_to_text(params)
        again = load_params(text)
        assert again == params
        assert params_to_text(again) == text

    def test_default_text_pinned(self):
        assert params_to_text(SystemParams()) == (
            "m_q = 0.7  # quadcopter mass [kg]\n"
            "m_p = 0.6  # payload mass [kg]\n"
            "ell = 1.0  # tether rest length [m]\n"
            "g = 9.81  # gravity magnitude [m/s^2]\n"
            "N_p = 4  # propellers per vehicle\n"
            "r_p = 0.1  # propeller radius [m]\n"
            "rho = 1.225  # air density [kg/m^3]\n"
            "k_T = 2000.0  # tether stiffness [N/m]\n"
            "c_T = 10.0  # tether damping [N*s/m]\n"
            "tau_att = 0.05  # thrust-direction lag time constant [s]\n"
            "drag_enabled = false  # quadratic drag toggle (true/false)\n"
            "c_d_quad = 0.05  # vehicle drag coefficient [N*s^2/m^2]\n"
            "c_d_payload = 0.02  # payload drag coefficient [N*s^2/m^2]\n"
            "dt_physics = 0.0005  # integration step [s]\n"
            "f_ctrl = 50.0  # outer-loop control rate [Hz]\n")

    def test_readme_table_is_the_schema(self):
        # the README's configuration table is the one restated copy of the
        # parameter schema: same keys in field order, defaults that load
        # into SystemParams(), rules that are the fields' rule texts,
        # meanings that are the fields' docs
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
        rows = [[cell.strip() for cell in line.split("|")[1:5]]
                for line in section.splitlines() if line.startswith("| `")]
        schema = dataclasses.fields(SystemParams)
        keys = [key.strip("`") for key, _, _, _ in rows]
        assert keys == [f.name for f in schema]
        text = "".join(f"{key} = {default}\n" for key, (_, default, _, _) in zip(keys, rows))
        assert load_params(text) == SystemParams()
        assert [rule for _, _, rule, _ in rows] == [f.metadata["rule"][0] for f in schema]
        assert [meaning for _, _, _, meaning in rows] == [f.metadata["doc"] for f in schema]

    def test_control_period_off_the_step_grid_refused_at_load(self):
        # 1/(30 * 5e-4) = 66.67 physics steps per control period
        with pytest.raises(ParamError, match="f_ctrl"):
            load_params("f_ctrl = 30\n")


class TestStateTypes:
    def test_state_vector_round_trip(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(24)
        state = SystemState.from_vector(y)
        assert all(type(v) is float for v in state)
        assert_allclose(state, y, rtol=0, atol=0)
        with pytest.raises(ValueError, match="24 finite floats"):
            SystemState.from_vector(np.append(y, 0.0))

    def test_nonfinite_state_rejected(self):
        good = np.zeros(24)
        bad = good.copy()
        bad[4] = np.nan
        SystemState.from_vector(good)
        with pytest.raises(ValueError):
            SystemState.from_vector(bad)
