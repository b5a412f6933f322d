import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spinlift.dynamics import simulate
from spinlift.equilibrium import build_equilibrium, tension_at_equilibrium
from spinlift.model import (ConfigError, ParamError, SystemParams, SystemState,
                            load_params, params_to_text, rk4_stages)

from flatstate import rotation_c_to_e

# the rule on each SystemParams field, as its ParamError message states it
FIELD_RULES = {
    **dict.fromkeys(["m_q", "m_p", "ell", "r_p", "rho", "k_T", "tau_att",
                     "dt_physics", "f_ctrl"], "a positive finite number"),
    **dict.fromkeys(["g", "c_T", "c_d_quad", "c_d_payload"],
                    "a nonnegative finite number"),
    "N_p": "an integer >= 1",
}


def _float_field(lo, hi):
    """A value in [lo, hi] for a float field: a float, an int or an np.float64."""
    floats = st.floats(lo, hi)
    return st.one_of(floats, st.integers(math.ceil(lo), math.floor(hi)), floats.map(np.float64))


def rk4_dt_bound(p):
    """The largest dt_physics at which RK4 keeps every linear mode of ``p``
    bounded, |c5| <= 1 of :func:`rk4_stages`, by bisection to 1e-12 relative:
    for each mode the accepted steps are one interval from 0, and no step
    past 3 / |lambda| is accepted (RK4's stability region lies inside
    |z| < 2.96)."""
    rates = [rate for _, rate in p.linear_modes]
    lo, hi = 0.0, 3.0 / max(map(abs, rates))
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if all(abs(rk4_stages(mid, r)[3]) <= 1.0 for r in rates) else (lo, mid)
    return lo


@st.composite
def valid_params(draw, finer=100):
    """SystemParams inside every cross-field rule. The ranges keep the default
    dt_physics RK4 stable on every linear mode; the drawn dt_physics is a
    whole fraction of the drawn control period, from the largest one within
    RK4's bound (:func:`rk4_dt_bound`) to one ``finer`` steps per period finer."""
    values = {name: draw(_float_field(lo, hi)) for name, (lo, hi) in {
        "m_q": (0.1, 5.0), "m_p": (0.1, 5.0), "ell": (0.1, 10.0), "g": (0.0, 20.0),
        "r_p": (0.01, 1.0), "rho": (0.1, 10.0), "k_T": (1.0, 1e4), "c_T": (0.0, 100.0),
        "tau_att": (0.01, 1.0), "c_d_quad": (0.0, 1.0), "c_d_payload": (0.0, 1.0),
        "f_ctrl": (1.0, 1000.0)}.items()}
    values["N_p"] = draw(st.integers(1, 8))
    limit = rk4_dt_bound(SystemParams(**{**values, "f_ctrl": 50.0})) * (1.0 - 1e-9)
    steps = draw(st.integers(0, finer)) + math.ceil(1.0 / (values["f_ctrl"] * limit))
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
        # the one step rule at the defaults: RK4 keeps every linear mode
        # bounded up to dt = 0.029747 s; dt = 0.03 grows the stretch of both
        # ropes together at m = 1/(1/m_q + 2/m_p) by |R| = 1.0547 per step
        assert rk4_dt_bound(SystemParams()) == pytest.approx(0.029747, abs=5e-7)
        SystemParams(dt_physics=0.028, f_ctrl=1.0 / 0.028)
        with pytest.raises(ParamError, match=r"^dt_physics=0\.03 makes RK4 amplify the "
                           r"tether-stretch mode at m = 1/\(1/m_q \+ 2/m_p\), .* = 1\.05473 "):
            SystemParams(dt_physics=0.03)

    @given(dt=st.floats(1e-6, 0.1), tau=st.floats(1e-4, 1.0))
    def test_rk4_stages_are_the_steppers_lag_factors(self, dt, tau):
        # the stepper's thrust-lag factors rk4_stages(dt, -1/tau) are, bit for
        # bit, RK4's stages on the lag as reference.rk4_reference writes them,
        # with 1/tau subtracted: negating a product is exact
        inv_tau = 1.0 / tau
        c2 = 1.0 - 0.5 * dt * inv_tau
        c3 = 1.0 - 0.5 * dt * inv_tau * c2
        c4 = 1.0 - dt * inv_tau * c3
        c5 = 1.0 - dt / 6.0 * inv_tau * (1.0 + 2.0 * (c2 + c3) + c4)
        assert rk4_stages(dt, -inv_tau) == (c2, c3, c4, c5)

    @given(h=st.floats(0.0, 10.0))
    def test_rk4_stages_update_is_the_stability_function(self, h):
        # on the real axis c5 is the polynomial 1 + z + ... + z^4/24 at
        # z = -h, to rounding, and the same float in real or complex
        # arithmetic; |R(-h)| <= 1 up to h = 2.7853, RK4's real-axis limit
        R = rk4_stages(h, complex(-1.0))[3]
        assert R.imag == 0.0
        assert R.real == rk4_stages(h, -1.0)[3]
        taylor = 1 - h + h**2 / 2 - h**3 / 6 + h**4 / 24
        assert R.real == pytest.approx(taylor, rel=1e-12, abs=1e-13)
        assert (abs(R) <= 1.0) == (h <= 2.7852935634)

    def test_rk4_stages_on_the_imaginary_axis(self):
        # |R(iy)|^2 = 1 - y^6/72 + y^8/576: at most 1 up to y = 2 sqrt(2)
        for y in (0.5, 1.0, 2.0, 2.8):
            assert abs(rk4_stages(y, 1j)[3]) ** 2 == pytest.approx(1 - y**6 / 72 + y**8 / 576,
                                                                   rel=1e-12)
        assert abs(rk4_stages(2.83, 1j)[3]) > 1.0

    @pytest.mark.parametrize("values, mode", [
        ({"tau_att": 1.7e-4}, "thrust-lag mode"),
        ({"tau_att": 1e-4}, "thrust-lag mode"),
        ({"c_T": 1250.0}, "tether-stretch mode at m = 1/(1/m_q + 2/m_p)"),
        ({"c_T": 1500.0}, "tether-stretch mode at m = 1/(1/m_q + 2/m_p)"),
        ({"c_T": 3000.0}, "tether-stretch mode at m = m_red"),
        ({"c_T": 10000.0}, "tether-stretch mode at m = m_red"),
    ])
    def test_rk4_unstable_mode_refused(self, values, mode):
        # a thrust lag or a rope damping at which RK4's step at dt_physics
        # grows the mode: refused with the mode, its |R| and the bound. The
        # rope's bound holds at every tether angle, so c_T = 1250, which
        # flew at 30 deg, is refused too: its mode is unstable at 0 deg
        with pytest.raises(ParamError) as refused:
            SystemParams(**values)
        message = str(refused.value)
        found = re.search(r"amplify the (.+), lambda = (\S+) 1/s, by \|R\(dt_physics \* lambda\)\| "
                          r"= (\S+) per step; the largest accepted value is 1", message)
        assert found and found[1] == mode
        dt = SystemParams().dt_physics
        assert float(found[3]) == pytest.approx(abs(rk4_stages(dt, float(found[2]))[3]), rel=1e-5)
        assert float(found[3]) > 1.0
        assert ("tether angle beta" in message) == (mode != "thrust-lag mode")

    @pytest.mark.parametrize("values", [{}, {"tau_att": 2e-4}, {"c_T": 1100.0}, {"c_T": 0.0}])
    def test_rk4_stable_modes_accepted(self, values):
        # the defaults, the shortest lag of the measured table that flew, a
        # damping just inside the bound at every angle, and no damping
        p = SystemParams(**values)
        assert all(abs(rk4_stages(p.dt_physics, rate)[3]) <= 1.0 for _, rate in p.linear_modes)

    @given(params=valid_params(finer=1), beta_deg=st.floats(0.0, 85.0))
    def test_accepted_params_hover_at_equilibrium_tension(self, params, beta_deg):
        # the premise of the RK4 rule: under any accepted parameters, up to
        # its bound on dt_physics, a 1 s static hover under the held
        # feedforward command keeps each stored tension at its equilibrium
        # value, at beta = 0 (the smallest effective mass of the stretch) and
        # at a drawn angle. The tolerance scales with F + k_T * ell, a
        # nonzero force where g = 0 makes F = 0: the rope's rounding is
        # k_T times a position's. Measured at most 1.8e-15 over 100 draws;
        # at c_T = 1500, which the rule refuses, this hover at 30 deg ends at
        # 0.35 N for F = 3.40 N, a departure of 1.5e-3. Drawn up to one step
        # per control period finer than the bound, to keep a flight short.
        for beta in (0.0, math.radians(beta_deg)):
            _, state, command = build_equilibrium(beta, 0.0, params)
            traj = simulate(state, lambda y, t: command, lambda t: 0.0, params, 1.0)
            F = tension_at_equilibrium(beta, params)
            assert np.abs(traj.tether - F).max() <= 1e-12 * (F + params.k_T * params.ell)

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
        # the retired drag toggle: drag acts where a coefficient is nonzero
        with pytest.raises(ConfigError, match="^unknown config keys: drag_enabled$"):
            load_params("drag_enabled = true\nc_d_quad = 0.05\n")

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

    def test_invariant_violation_from_config(self):
        with pytest.raises(ParamError, match="m_q"):
            load_params("m_q = 0\n")

    def test_serialize_then_reload_is_identity(self):
        p = SystemParams(m_q=0.81, k_T=1234.5, c_d_quad=0.07)
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
            "c_d_quad = 0.0  # vehicle drag coefficient [N*s^2/m^2]\n"
            "c_d_payload = 0.0  # payload drag coefficient [N*s^2/m^2]\n"
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
