import math
from array import array

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import simpson

from spinlift.dynamics import (DegenerateGeometryError, IntegrationBlowupError,
                               _bind, _compile, simulate, tether_forces, trajectory_to_csv)
from spinlift.equilibrium import build_equilibrium, omega_star, tension_at_equilibrium
from spinlift import lqr
from spinlift.model import STATE_PARTS, ParamError, SystemParams, SystemState

from flatstate import assert_mirror_images, make_state, mirrored, part, replaced, vec3
from reference import (reference_rhs, reference_tension, reference_tensions, rk4_reference,
                       textbook_rk4)

ORIGIN = vec3(0.0, 0.0, 1.5)
DEG = math.radians


def with_drag(drag, **values):
    """SystemParams with the vehicle and payload drag coefficients 0.05 and
    0.02 if ``drag``, else both zero (no drag)."""
    c_d_quad, c_d_payload = (0.05, 0.02) if drag else (0.0, 0.0)
    return SystemParams(c_d_quad=c_d_quad, c_d_payload=c_d_payload, **values)


def zero_cmd():
    return [0.0] * 6


def derivative_at(state, cmd, params):
    """The reference model's derivative at one state, in the flat layout."""
    return np.asarray(reference_rhs(list(state), cmd, params))


def advance_from(state, cmd, params, dt, n):
    """The flat state after n steps of the stepper of size dt under a held
    command, and the flat [F_1, F_2, ...] tension record of every state on
    the way, the final one included."""
    advance, tensions = _bind(params)[:2]
    tension = array("d", bytes(16 * (n + 1)))
    y = advance(list(state), cmd, 0, n, dt, array("d"), 1, tension)
    (tension[-2], _), (tension[-1], _) = tensions(y)
    return y, tension


def reference_step(y, u, params, dt):
    """One step of :func:`rk4_reference` over the reference model."""
    return rk4_reference(lambda y, u: reference_rhs(y, u, params), y, u, dt, params.tau_att)


def slack_state(params):
    """Vehicles closer than the rest length on both sides: no tether force."""
    return make_state(
        x_p=ORIGIN, v_p=vec3(0, 0, 0),
        x_1=ORIGIN + vec3(0.3, 0.0, 0.4), v_1=vec3(0, 0, 0),
        x_2=ORIGIN + vec3(-0.3, 0.0, 0.4), v_2=vec3(0, 0, 0),
        T_act_1=vec3(0, 0, 0), T_act_2=vec3(0, 0, 0),
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
    return make_state(x_p=x_p, v_p=vec(-1.0, 1.0),
                      x_1=vehicles[0], v_1=vec(-1.0, 1.0),
                      x_2=vehicles[1], v_2=vec(-1.0, 1.0),
                      T_act_1=vec(-5.0, 20.0), T_act_2=vec(-5.0, 20.0))


ZEROS = st.sampled_from([0.0, -0.0])


@st.composite
def mirror_holds(draw, subnormal=False):
    """``(y, u)``: a state on the mirror subspace and a mirrored command. The
    payload sits on the spin axis, its x and y positions and velocities zeros
    of drawn signs; vehicle 1 is on a rope 2% slack to 1% taut, above the
    payload or below it by up to 0.3 of the rope, and each of its entries and commands is
    drawn as a float or as a zero of either sign. Vehicle 2's entries and
    commands are vehicle 1's mirror image by value, each zero of a drawn
    sign. With ``subnormal``, entries may also be drawn subnormal."""
    finite = st.floats(-1e-307, 1e-307) if subnormal else st.nothing()

    def entry(lo, hi):
        return draw(st.one_of(st.floats(lo, hi, allow_subnormal=False), ZEROS, finite))

    def image(a, negate):
        return draw(ZEROS) if a == 0.0 else -a if negate else a

    z_p = draw(st.floats(1.5, 2.0))  # the vehicles stay above height 0.49 m
    up = draw(st.one_of(st.floats(-0.3, -0.1), st.floats(0.1, 1.0)))
    direction = np.array([entry(-1.0, 1.0), entry(-1.0, 1.0), up])
    length = draw(st.floats(0.98, 1.01))  # rest length ell = 1 m
    x_1 = (length * direction / np.linalg.norm(direction) + [0.0, 0.0, z_p]).tolist()
    v_1, T_1, u_1 = ([entry(lo, hi) for _ in range(3)] for lo, hi in
                     ((-1.0, 1.0), (-5.0, 20.0), (-5.0, 20.0)))
    x_2, v_2, T_2, u_2 = ([image(a, k < 2) for k, a in enumerate(q)] for q in (x_1, v_1, T_1, u_1))
    x_p = [draw(ZEROS), draw(ZEROS), z_p]
    v_p = [draw(ZEROS), draw(ZEROS), entry(-1.0, 1.0)]
    return [*x_p, *v_p, *x_1, *v_1, *x_2, *v_2, *T_1, *T_2], u_1 + u_2


def hold(advance, y, u, p, i_first, n, dec):
    """A stepper call's bytes: its stored samples, its tension slots and the
    final state (``advance`` called as simulate calls it)."""
    out, tension = array("d"), array("d", bytes(16 * ((i_first + n) // dec + 1)))
    final = advance(list(y), u, i_first, n, p.dt_physics, out, dec, tension)
    return out.tobytes(), tension.tobytes(), array("d", final).tobytes()


def assert_taut(tension, dt):
    """Fail, naming the rope and the step, if a flat [F_1, F_2, ...] tension
    record of steps of size dt holds a slack rope (F = 0)."""
    slack = np.argwhere(np.frombuffer(tension).reshape(-1, 2) <= 0.0)
    assert not len(slack), f"rope {slack[0][1] + 1} slack at step {slack[0][0]} of dt = {dt}"


def bits(values):
    """Each float's exact bits, the sign of zero included."""
    return [float.hex(v) for v in values]


def reference_simulate(initial, controller, params, duration):
    """simulate's closed loop taken one reference RK4 step at a time. Returns
    the time, state and held command after every step (row 0: the start)."""
    dt = params.dt_physics
    hold = round(1.0 / (params.f_ctrl * dt))
    y = list(initial)
    t, states, commands = [0.0], [y], []
    for i in range(round(duration / dt)):
        if i % hold == 0:
            u = tuple(controller(y, i * dt))
            if i == 0:
                commands.append(u)
        y = reference_step(y, u, params, dt)
        if not math.isfinite(sum(y)):
            raise IntegrationBlowupError((i + 1) * dt)
        t.append((i + 1) * dt)
        states.append(y)
        commands.append(u)
    return np.array(t), np.array(states), np.array(commands)


def tension_1(x_1, v_1, params):
    """Tether 1's ``(F, r_hat)`` by :func:`tether_forces`, with the payload at
    rest at the origin and vehicle 2 at rest length beside it, after checking
    that the reference rope law gives the same bits."""
    origin = vec3(0, 0, 0)
    state = make_state(x_p=origin, v_p=origin, x_1=x_1, v_1=v_1, x_2=vec3(0, 1.0, 0),
                       v_2=origin, T_act_1=origin, T_act_2=origin)
    (F, r_hat), _ = tether_forces(state, params)
    assert type(F) is float and r_hat.shape == (3,)
    F_ref, h_ref = reference_tension(x_1, v_1, origin, origin, params)
    assert bits([F, *r_hat]) == bits([F_ref, *h_ref])
    return F, r_hat


class TestTetherForce:
    def test_rest_length_zero_force(self):
        p = SystemParams()
        F, r_hat = tension_1(vec3(0, 0, 1.0), vec3(0, 0, 0), p)
        assert F == 0.0
        assert_allclose(r_hat, [0, 0, 1], atol=1e-15)

    def test_equilibrium_stretch_tension(self):
        # stretch carrying the beta=60 deg tension: oracle m_p*g/(2 cos 60)
        p = SystemParams()
        expected = p.m_p * p.g / (2.0 * math.cos(math.radians(60)))
        F, _ = tension_1(vec3(0, 0, 1.002943), vec3(0, 0, 0), p)
        assert expected == pytest.approx(5.886, abs=1e-9)
        assert F == pytest.approx(expected, abs=1e-6)

    def test_slack_clamp(self):
        p = SystemParams()
        F, _ = tension_1(vec3(0, 0, 0.99), vec3(0, 0, 0), p)
        assert F == 0.0

    def test_slack_rope_does_not_pull(self):
        # 1 mm short of the rest length and extending at 0.5 m/s: the
        # spring-damper sum is +3 N, but a slack rope carries no tension
        p = SystemParams()
        F, _ = tension_1(vec3(0, 0, 0.999), vec3(0, 0, 0.5), p)
        assert F == 0.0
        state = replaced(
            slack_state(p), x_1=ORIGIN + vec3(0, 0, 0.999), v_1=vec3(0, 0, 0.5),
            x_2=ORIGIN + vec3(0, 0.999, 0), v_2=vec3(0, 0.5, 0))
        assert_allclose(derivative_at(state, zero_cmd(), p)[3:6], [0, 0, -p.g], atol=0)

    @given(state=near_formation_states())
    def test_rope_law_matches_reference(self, state):
        # the one rope law, that of the rope block, gives the reference's
        # tensions bit for bit, and the reference model and the design model
        # pull with them, on taut and slack tethers alike
        def accelerations(pair, p):
            (F_1, r_hat_1), (F_2, r_hat_2) = pair
            pull_1, pull_2 = F_1 * r_hat_1, F_2 * r_hat_2
            g = vec3(0, 0, -p.g)
            return np.concatenate([(pull_1 + pull_2) / p.m_p + g,
                                   (part(state, "T_act_1") - pull_1) / p.m_q + g,
                                   (part(state, "T_act_2") - pull_2) / p.m_q + g])

        def drag_accelerations(p):
            def drag(c_d, v):
                return -c_d * np.linalg.norm(v) * v

            return np.concatenate([drag(p.c_d_payload, part(state, "v_p")) / p.m_p,
                                   drag(p.c_d_quad, part(state, "v_1")) / p.m_q,
                                   drag(p.c_d_quad, part(state, "v_2")) / p.m_q])

        accel = [3, 4, 5, 9, 10, 11, 15, 16, 17]
        for drag in (False, True):
            p = with_drag(drag)
            pair = tether_forces(state, p)
            for (F, r_hat), (F_ref, h_ref) in zip(pair, reference_tensions(list(state), p)):
                assert bits([F, *r_hat]) == bits([F_ref, *h_ref])
            tether_only = accelerations(pair, p)
            expected = tether_only + drag_accelerations(p) if drag else tether_only
            d = derivative_at(state, zero_cmd(), p)
            assert_allclose(d[accel], expected, rtol=1e-12, atol=1e-12)
            # lqr's design pass leaves drag out: row 0 is the derivative at
            # the point, bound by parameters that have drag as linearize binds them
            design = _compile(lqr._design_pass)(ell=p.ell, g=p.g, k_T=p.k_T, c_T=p.c_T,
                                                inv_mq=1.0 / p.m_q, inv_mp=1.0 / p.m_p)
            d_c = np.array(design(state[:18], state[18:], 0.0, lqr._FD_STEP)[0])
            assert_allclose(d_c[accel], tether_only, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("drag", [False, True])
    def test_slack_ropes_keep_negative_zero(self, drag):
        # both ropes slack below the payload pull it by -0.0 along x. From
        # bodies at rest with -0.0 velocity components, one step keeps the
        # payload's x velocity -0.0 without drag, since no drag term is
        # added to the pulls; with drag, the drag force on a body moving at
        # -0.0 is +0.0, and so is the sum. Either way the step is the
        # reference's, bit for bit
        p = with_drag(drag)
        rest = vec3(-0.0, -0.0, -0.0)
        state = replaced(slack_state(p), x_1=ORIGIN + vec3(-0.3, 0.0, -0.4),
                         x_2=ORIGIN + vec3(-0.2, 0.0, -0.4), v_p=rest, v_1=rest, v_2=rest)
        y, _ = advance_from(state, zero_cmd(), p, p.dt_physics, 1)
        assert bits(y) == bits(reference_step(list(state), zero_cmd(), p, p.dt_physics))
        assert bits([float(part(y, "v_p")[0])]) == bits([0.0 if drag else -0.0])

    def test_damping_term(self):
        p = SystemParams()
        F, _ = tension_1(vec3(0, 0, 1.0), vec3(0, 0, 0.2), p)
        assert F == pytest.approx(p.c_T * 0.2, rel=1e-12)

    def test_coincident_positions_rejected(self):
        for drag in (False, True):
            p = with_drag(drag)
            state = replaced(slack_state(p), x_2=ORIGIN)
            with pytest.raises(DegenerateGeometryError, match="vehicle 2 coincides"):
                tether_forces(state, p)

    @pytest.mark.parametrize("defect", ["short", "long", math.nan, -math.inf])
    def test_state_checked(self, defect):
        # tether_forces checks its state as simulate does: 24 finite floats
        p = SystemParams()
        _, state, _ = build_equilibrium(DEG(60), 0.0, p)
        y = {"short": list(state)[:23], "long": [*state, 0.0]}.get(
            defect, [*state[:4], defect, *state[5:]])
        with pytest.raises(ValueError, match="state vector must be 24 finite floats"):
            tether_forces(y, p)

    def test_pairwise_evaluation(self):
        p = SystemParams()
        _, state, _ = build_equilibrium(DEG(60), 0.0, p)
        (F_1, r_hat_1), (F_2, r_hat_2) = tether_forces(state, p)
        assert type(F_1) is float and r_hat_1.shape == (3,)
        assert F_1 == pytest.approx(5.886, abs=1e-9)
        assert F_1 == F_2
        assert np.linalg.norm(r_hat_1) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(r_hat_2) == pytest.approx(1.0, abs=1e-9)
        assert F_1 >= 0.0 and F_2 >= 0.0


class TestDerivative:
    def test_free_fall(self):
        p = SystemParams()
        d = derivative_at(slack_state(p), zero_cmd(), p)
        for accel in (d[3:6], d[9:12], d[15:18]):
            assert_allclose(accel, [0, 0, -9.81], atol=1e-12)

    def test_rotating_equilibrium_is_balanced(self):
        p = SystemParams()
        beta = math.radians(60)
        w = omega_star(beta, p)
        _, state, cmd = build_equilibrium(beta, w, p)
        d = derivative_at(state, cmd, p)
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
        d = derivative_at(state, cmd, p)
        for accel in (d[3:6], d[9:12], d[15:18]):
            assert np.linalg.norm(accel) < 1e-9

    def test_internal_forces_cancel(self):
        # tether forces are internal: total force equals externals exactly
        p = SystemParams()
        rng = np.random.default_rng(11)
        for _ in range(20):
            y = np.zeros(24)
            y[0:3] = ORIGIN + rng.normal(0, 0.05, 3)
            y[6:9] = ORIGIN + [0.7, 0, 0.8] + rng.normal(0, 0.05, 3)
            y[12:15] = ORIGIN + [-0.7, 0, 0.8] + rng.normal(0, 0.05, 3)
            y[3:6] = rng.normal(0, 0.5, 3)
            y[9:12] = rng.normal(0, 0.5, 3)
            y[15:18] = rng.normal(0, 0.5, 3)
            y[18:24] = rng.normal(0, 2.0, 6)
            state = SystemState.from_vector(y)
            d = derivative_at(state, zero_cmd(), p)
            total = p.m_p * d[3:6] + p.m_q * (d[9:12] + d[15:18])
            external = (part(state, "T_act_1") + part(state, "T_act_2")
                        + vec3(0, 0, -(p.m_p + 2 * p.m_q) * p.g))
            assert_allclose(total, external, atol=1e-12)

    def test_drag_toggle(self):
        p = with_drag(True)
        state = replaced(slack_state(p), v_p=vec3(2.0, 0, 0))
        d = derivative_at(state, zero_cmd(), p)
        expected = -0.02 * 2.0 * 2.0 / p.m_p
        assert d[3] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("c_d_quad,c_d_payload,stepper", [
        (0.0, 0.0, "drag off"), (0.05, 0.0, "drag on"), (0.0, 0.02, "drag on")])
    def test_coefficients_pick_the_stepper(self, c_d_quad, c_d_payload, stepper):
        # drag acts on each body whose coefficient is nonzero, in the
        # reference and, bit for bit, in a step of the stepper they pick
        p = SystemParams(c_d_quad=c_d_quad, c_d_payload=c_d_payload)
        advance, tensions = _bind(p)[:2]
        assert advance.__code__.co_filename == f"<spinlift.dynamics stepper, {stepper}>"
        assert tensions.__code__.co_filename == advance.__code__.co_filename
        state = replaced(slack_state(p), v_p=vec3(2.0, 0, 0), v_1=vec3(0, 2.0, 0))
        d = derivative_at(state, zero_cmd(), p)
        assert d[3] == pytest.approx(-c_d_payload * 4.0 / p.m_p, rel=1e-12)
        assert d[10] == pytest.approx(-c_d_quad * 4.0 / p.m_q, rel=1e-12)
        y, _ = advance_from(state, zero_cmd(), p, p.dt_physics, 1)
        assert bits(y) == bits(reference_step(list(state), zero_cmd(), p, p.dt_physics))

    @given(state=near_formation_states(),
           u=st.lists(st.floats(-5.0, 20.0), min_size=6, max_size=6))
    def test_vehicle_exchange(self, state, u):
        # the two vehicles obey one law: exchanging them, state and command
        # alike, exchanges the states that three steps reach, bit for bit
        # without drag, where f1 + f2 commutes. With drag, fdp + f1 + f2 is
        # summed the other way and may differ in its last bit; measured over
        # 3 000 drawn cases, 47 ended apart, by at most 1 ulp of the largest
        # magnitude in each part's 3-vector, and the bound is 4 ulp
        def exchange(y):
            return [*y[0:6], *y[12:18], *y[6:12], *y[21:24], *y[18:21]]

        y = list(state)
        for drag in (False, True):
            p = with_drag(drag)
            after, _ = advance_from(y, u, p, p.dt_physics, 3)
            exchanged, _ = advance_from(exchange(y), u[3:] + u[:3], p, p.dt_physics, 3)
            if not drag:
                assert bits(exchanged) == bits(exchange(after))
                continue
            for name in STATE_PARTS:
                got, expected = part(exchanged, name), part(exchange(after), name)
                bound = 4.0 * math.ulp(float(np.max(np.abs(expected))))
                assert np.max(np.abs(got - expected)) <= bound, name


class TestStateLayout:
    """The scalar paths that unpack a state by position (both steppers and
    build_equilibrium) follow model.STATE_PARTS: were the declaration
    reordered without them, these tests fail instead of the stepper silently
    reading the wrong parts."""

    # every component distinct, so a part read from the wrong place differs
    DISTINCT = [1.0 + 0.37 * k + 0.011 * k * k for k in range(24)]
    COMMAND = [0.5, -0.25, 9.0, -0.75, 0.125, 8.0]

    @pytest.mark.parametrize("drag", [False, True])
    def test_stepper_reads_state_parts(self, drag):
        # the reference reads each part by name: one step and the rope law
        # at a state of distinct components are the reference's, bit for bit
        p = with_drag(drag)
        y = self.DISTINCT
        after, _ = advance_from(y, self.COMMAND, p, p.dt_physics, 1)
        assert bits(after) == bits(reference_step(y, self.COMMAND, p, p.dt_physics))
        for (F, r_hat), (F_ref, h_ref) in zip(tether_forces(y, p), reference_tensions(y, p)):
            assert bits([F, *r_hat]) == bits([F_ref, *h_ref])
        rate = derivative_at(y, self.COMMAND, p)
        for body in ("p", "1", "2"):
            assert part(rate, f"x_{body}").tolist() == part(y, f"v_{body}").tolist()

    @pytest.mark.parametrize("beta_deg, spin", [(30.0, False), (60.0, True)])
    def test_build_equilibrium_parts(self, beta_deg, spin):
        p = SystemParams()
        beta = math.radians(beta_deg)
        spec, state, _ = build_equilibrium(beta, omega_star(beta, p) if spin else 0.0, p)
        for i in (1, 2):
            tether = part(state, f"x_{i}") - part(state, "x_p")
            assert np.linalg.norm(tether) == pytest.approx(spec.length, rel=1e-14)
            assert part(state, f"T_act_{i}").tolist() == list(spec.u_bar[3 * i - 3:3 * i])


class TestStep:
    def test_equilibrium_step_is_stationary(self):
        p = SystemParams()
        beta = math.radians(60)
        w = omega_star(beta, p)
        _, state, cmd = build_equilibrium(beta, w, p)
        nxt, _ = advance_from(state, cmd, p, p.dt_physics, 1)
        assert np.linalg.norm(np.subtract(nxt[0:3], state[0:3])) < 1e-6

    def test_ballistic_free_fall_analytic(self):
        p = SystemParams()
        y, _ = advance_from(slack_state(p), zero_cmd(), p, 5e-4, 2000)
        assert y[2] - ORIGIN[2] == pytest.approx(-0.5 * 9.81, abs=1e-9)

    def test_rk4_convergence_order(self):
        p = SystemParams()
        _, state0, cmd = build_equilibrium(math.radians(45), 0.0, p)
        # payload sag keeps both tethers taut (at least 0.51 N); smooth
        # nontrivial motion. The thrusts start 10% above their commands, so
        # the lag's closed form is in the check (from the commands, a wrong
        # c3, c4 or c5 passes it); 10% below would let the ropes go slack,
        # which fails the premise by name and not as an order of 1.15
        state0 = replaced(state0, x_p=part(state0, "x_p") + vec3(0, 0, -0.005),
                          T_act_1=1.1 * np.array(cmd[0:3]), T_act_2=1.1 * np.array(cmd[3:6]))

        def integrate(dt, t_final=0.25):
            y, tension = advance_from(state0, cmd, p, dt, int(round(t_final / dt)))
            assert_taut(tension, dt)
            return np.array(y)

        ref = integrate(1.25e-4)
        e1 = np.linalg.norm(integrate(1e-3) - ref)
        e2 = np.linalg.norm(integrate(5e-4) - ref)
        order = math.log2(e1 / e2)
        assert 3.7 <= order <= 4.3

    @given(beta_deg=st.floats(0.0, 89.0), spin=st.floats(0.0, 1.5), tau=st.floats(0.01, 0.25),
           steps=st.integers(10, 200), drag=st.booleans(),
           thrusts=st.lists(st.floats(-5.0, 20.0), min_size=12, max_size=12))
    def test_lag_closed_form_matches_textbook_rk4(self, beta_deg, spin, tau, steps, drag,
                                                   thrusts):
        # one 50 Hz hold of 10 to 200 steps from an operating point of the
        # envelope, with drawn start thrusts and commands. The bound was
        # measured before it was written: over 8 000 uniformly drawn holds
        # the largest difference was 2.7e-14 of its kind's scale (the
        # largest norm among the positions, the velocities, or the thrusts
        # and commands); the bound is 1e-13
        dt = 0.02 / steps
        p = with_drag(drag, tau_att=tau, dt_physics=dt)
        beta = DEG(beta_deg)
        _, state, _ = build_equilibrium(beta, spin * omega_star(beta, p), p)
        y = list(replaced(state, T_act_1=thrusts[0:3], T_act_2=thrusts[3:6]))
        u = thrusts[6:]
        expected = y
        for _ in range(steps):
            expected = textbook_rk4(lambda y, u: reference_rhs(y, u, p), expected, u, dt)
        got, _ = advance_from(y, u, p, dt, steps)
        for kind, commands in (("x", []), ("v", []), ("T", [u[0:3], u[3:6]])):
            names = [name for name in STATE_PARTS if name.startswith(kind)]
            scale = max(map(np.linalg.norm, [part(expected, name) for name in names] + commands))
            for name in names:
                assert np.linalg.norm(part(got, name) - part(expected, name)) <= 1e-13 * scale

    def test_invalid_dt_rejected(self):
        # the integrator steps at params.dt_physics, which is refused when
        # nonpositive or where RK4 would amplify a linear mode
        with pytest.raises(ParamError, match="dt_physics"):
            SystemParams(dt_physics=0.0)
        with pytest.raises(ParamError, match="makes RK4 amplify the tether-stretch mode"):
            SystemParams(dt_physics=0.1)

    def test_blowup_carries_time(self):
        p = SystemParams()
        _, state, _ = build_equilibrium(0.5, 0.0, p)
        bomb = [0.0, 0.0, 1e300, 0.0, 0.0, 0.0]
        with pytest.raises(IntegrationBlowupError) as excinfo:
            advance_from(state, bomb, p, 5e-4, 100)
        assert excinfo.value.t > 0.0

    def test_parameters_bound_without_compiling(self):
        # each stepper source is compiled once per process: _bind then
        # only picks the stepper of the drag setting and binds parameters
        codes = []
        for drag in (False, True):
            light, heavy = with_drag(drag), with_drag(drag, m_p=0.9)
            advance_light = _bind(light).advance
            advance_heavy = _bind(heavy).advance
            assert advance_light.__code__ is advance_heavy.__code__
            codes.append(advance_light.__code__)
            _, state, _ = build_equilibrium(DEG(60), 0.0, light)  # taut ropes
            assert (advance_from(state, zero_cmd(), light, light.dt_physics, 1)[0]
                    != advance_from(state, zero_cmd(), heavy, heavy.dt_physics, 1)[0])
        assert codes[0] is not codes[1]
        # lqr's design pass goes through the same cache: compiled on first
        # use, then each synthesis only binds its parameters
        specs = [(build_equilibrium(DEG(60), 1.0, p)[0], p) for p in (light, heavy)]
        lqr.linearize(*specs[0])
        before = _compile.cache_info()
        for spec, p in specs:
            lqr.linearize(spec, p)
        after = _compile.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)

    @pytest.mark.parametrize("drag", [False, True])
    @pytest.mark.parametrize("vehicle", ["x_1", "x_2"])
    def test_coincident_bodies_rejected_by_the_stepper(self, vehicle, drag):
        p = with_drag(drag)
        state = list(replaced(slack_state(p), **{vehicle: ORIGIN}))
        tensions = _bind(p).tensions
        message = f"vehicle {vehicle[-1]} coincides with the payload"
        with pytest.raises(DegenerateGeometryError, match=message):
            tensions(state)
        with pytest.raises(DegenerateGeometryError, match=message):
            advance_from(state, zero_cmd(), p, p.dt_physics, 1)



class TestMirrorStepper:
    """The mirror stepper integrates the 11 scalars that the mirror subspace
    leaves free and writes the other 13 from them; simulate takes it for
    each hold whose state and command are mirror images by value."""

    @given(hold_args=mirror_holds(), drag=st.booleans(), g=st.sampled_from([9.81, 0.0]),
           tau=st.sampled_from([0.05, 2.5e-4, 1.8e-4]), i_first=st.integers(0, 45),
           n=st.integers(1, 30), dec=st.integers(1, 40))
    def test_matches_full_stepper_bitwise(self, hold_args, drag, g, tau, i_first, n, dec):
        # stored samples, tension slots and final state are the full
        # stepper's bytes, zero signs included. g = 0 lets a payload's z
        # velocity keep a -0.0 through slack-rope steps; tau = 2.5e-4 s makes
        # c2 exactly 0 and 1.8e-4 s makes it negative, near RK4's lag limit
        y, u = hold_args
        p = with_drag(drag, g=g, tau_att=tau)
        stepper = _bind(p)
        assert stepper.on_mirror(y, u)
        args = (y, u, p, i_first, n, dec)
        assert hold(stepper.advance_mirror, *args) == hold(stepper.advance, *args)

    @given(hold_args=mirror_holds(subnormal=True), drag=st.booleans(),
           n=st.integers(1, 30), dec=st.integers(1, 40))
    def test_subnormal_entries_match_by_value(self, hold_args, drag, n, dec):
        # a subnormal entry's product can underflow to a zero whose sign
        # follows its factors, so the full stepper may leave vehicle 2 a -0.0
        # that the mirror stepper writes +0.0: the two agree by value there
        y, u = hold_args
        p = with_drag(drag)
        stepper = _bind(p)
        assert stepper.on_mirror(y, u)
        got, expected = (hold(advance, y, u, p, 0, n, dec)
                         for advance in (stepper.advance_mirror, stepper.advance))
        for a, b in zip(got, expected):
            assert np.array_equal(np.frombuffer(a), np.frombuffer(b))

    @pytest.mark.parametrize("thrust", [1e300, 1e160, math.inf])
    def test_blowup_at_the_full_steppers_step(self, thrust):
        # both vehicles thrust out and up alike: the mirror stepper's finite
        # check is the full stepper's sum read off the mirror, so both raise
        # at the end of the same step
        p = SystemParams()
        _, state, _ = build_equilibrium(0.5, 0.0, p)
        bomb = [thrust, 0.0, thrust, -thrust, 0.0, thrust]
        stepper = _bind(p)
        assert stepper.on_mirror(list(state), bomb)
        times = []
        for advance in (stepper.advance, stepper.advance_mirror):
            with pytest.raises(IntegrationBlowupError) as blowup:
                hold(advance, state, bomb, p, 0, 100, 7)
            times.append(blowup.value.t)
        assert times[0] == times[1]

    def test_sum_overflow_at_the_full_steppers_step(self):
        # the three bodies at rest 6e307 m up without gravity, the ropes
        # slack: every entry stays finite, but the full stepper's sum of the
        # 24 scalars, three heights among them, overflows at the first step,
        # and the mirror stepper's sum, with vehicle 1's height twice, too
        p = SystemParams(g=0.0)
        y = [0.0, 0.0, 6e307, *[0.0] * 3, 0.5, 0.0, 6e307, *[0.0] * 3,
             -0.5, 0.0, 6e307, *[0.0] * 9]
        stepper = _bind(p)
        assert stepper.on_mirror(y, [0.0] * 6)
        for advance in (stepper.advance, stepper.advance_mirror):
            with pytest.raises(IntegrationBlowupError) as blowup:
                hold(advance, y, [0.0] * 6, p, 0, 3, 1)
            assert blowup.value.t == p.dt_physics

    def test_level_rope_at_height_zero_takes_the_full_stepper(self):
        # vehicle 1 at height -0.0 and vehicle 2 at +0.0, level with the
        # payload at +0.0, are mirror images by value, but their ropes' unit
        # vectors differ in the sign of a zero z: with g = 0 and slack ropes
        # the full stepper's payload z velocity leaves -0.0 for +0.0, where
        # the mirror stepper, pulling twice with rope 1, keeps -0.0. A
        # vehicle at height 0 is therefore refused by on_mirror
        p = SystemParams(g=0.0)
        y = [0.0, 0.0, 0.0, 0.0, 0.0, -0.0, 0.5, 0.0, -0.0, 0.0, 0.0, -1.0,
             -0.5, 0.0, 0.0, 0.0, 0.0, -1.0, *[0.0] * 6]
        stepper = _bind(p)
        assert not stepper.on_mirror(y, [0.0] * 6)
        full, half = (np.frombuffer(hold(advance, y, [0.0] * 6, p, 0, 1, 1)[2])
                      for advance in (stepper.advance, stepper.advance_mirror))
        assert np.array_equal(full, half)
        assert bits([full[5], half[5]]) == bits([0.0, -0.0])

    @pytest.mark.parametrize("defect", ["x_p", "v_p", "x_2", "v_2", "T_act_2", "command"])
    def test_asymmetric_hold_takes_the_full_stepper(self, defect):
        # one entry off the mirror subspace by 1e-12 fails the hold check
        p = SystemParams()
        beta = DEG(60)
        _, state, cmd = build_equilibrium(beta, omega_star(beta, p), p)
        stepper = _bind(p)
        assert stepper.on_mirror(list(state), cmd)
        if defect == "command":
            cmd = [*cmd[:4], cmd[4] + 1e-12, cmd[5]]
        else:
            state = replaced(state, **{defect: part(state, defect) + vec3(0.0, 1e-12, 0.0)})
        assert not stepper.on_mirror(list(state), cmd)


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
        assert calls[0] == (list(state), 0.0)
        assert calls[-1][1] == pytest.approx(0.98, abs=1e-12)
        assert all(len(y) == 24 and all(type(v) is float for v in y) for y, _ in calls)

    def test_determinism_bitwise(self):
        p = SystemParams()
        beta = math.radians(45)
        w = omega_star(beta, p)
        _, state, cmd = build_equilibrium(beta, w, p)
        runs = [simulate(state, lambda y, t: cmd, lambda t: w * t, p, duration=0.5)
                for _ in range(2)]
        assert trajectory_to_csv(runs[0]) == trajectory_to_csv(runs[1])
        assert np.array_equal(runs[0].states, runs[1].states)

    def test_momentum_conservation_internal_forces_only(self):
        p = SystemParams(g=0.0)
        _, state, _ = build_equilibrium(math.radians(45), 0.0, SystemParams())
        state = replaced(state, v_p=vec3(0.3, -0.2, 0.1),
                         T_act_1=vec3(0, 0, 0), T_act_2=vec3(0, 0, 0))
        traj = simulate(state, lambda y, t: zero_cmd(), lambda t: 0.0, p,
                        duration=1.0, output_decimation=200)
        v_p, v_1, v_2 = (part(traj.states, name) for name in ("v_p", "v_1", "v_2"))
        momentum = p.m_p * v_p + p.m_q * v_1 + p.m_q * v_2
        drift = np.linalg.norm(momentum - momentum[0], axis=1)
        assert drift.max() < 1e-8

    def test_mirror_symmetry_preserved(self):
        # 180-degree rotation about the spin axis maps the system to itself,
        # exactly: IEEE arithmetic is symmetric in sign
        p = SystemParams()
        beta = math.radians(50)
        w = omega_star(beta, p)
        spec, state, cmd = build_equilibrium(beta, w, p)
        state = replaced(
            state,
            x_1=part(state, "x_1") + vec3(0.03, 0.01, -0.02),
            x_2=part(state, "x_2") + vec3(-0.03, -0.01, -0.02),
            v_p=vec3(0, 0, 0.05),
        )
        assert _bind(p).on_mirror(list(state), cmd)  # every hold takes the mirror stepper
        traj = simulate(state, lambda y, t: cmd, lambda t: w * t, p, duration=1.0,
                        output_decimation=100)
        assert_mirror_images(traj)

    def test_energy_audit(self):
        # drag off, both ropes taut throughout: d/dt(E) = thrust power -
        # damping dissipation
        p = SystemParams()
        _, state, cmd = build_equilibrium(math.radians(45), 0.0, p)
        state = replaced(state, x_p=part(state, "x_p") + vec3(0.0, 0.0, -0.004))
        traj = simulate(state, lambda y, t: cmd, lambda t: 0.0, p,
                        duration=1.0, output_decimation=1)
        assert traj.tether.min() > 0.0
        n = len(traj)
        x_p, v_p, x_1, v_1, x_2, v_2, T_act_1, T_act_2 = (
            part(traj.states, name)
            for name in ("x_p", "v_p", "x_1", "v_1", "x_2", "v_2", "T_act_1", "T_act_2"))
        # kinetic, gravitational (z datum at 0) and spring energy
        energies = 0.5 * (p.m_p * np.sum(v_p ** 2, axis=1)
                          + p.m_q * np.sum(v_1 ** 2, axis=1)
                          + p.m_q * np.sum(v_2 ** 2, axis=1))
        energies += p.g * (p.m_p * x_p[:, 2] + p.m_q * x_1[:, 2] + p.m_q * x_2[:, 2])
        for x_i in (x_1, x_2):
            stretch = np.linalg.norm(x_i - x_p, axis=1) - p.ell
            energies += 0.5 * p.k_T * stretch * stretch
        thrust_power = np.sum(T_act_1 * v_1, axis=1) + np.sum(T_act_2 * v_2, axis=1)
        damping = np.zeros(n)
        for x_i, v_i in ((x_1, v_1), (x_2, v_2)):
            rel = x_i - x_p
            dist = np.linalg.norm(rel, axis=1)
            rate = np.sum((v_i - v_p) * rel, axis=1) / dist
            damping += p.c_T * rate ** 2
        work = simpson(thrust_power - damping, x=traj.t)
        defect = (energies[-1] - energies[0]) - work
        scale = max(abs(energies[0]), 1.0)
        assert abs(defect) < 1e-6 * scale

    @given(state=near_formation_states(),
           thrusts=st.lists(st.lists(st.floats(-5.0, 20.0), min_size=6, max_size=6),
                            min_size=4, max_size=4),
           w=st.floats(0.0, 4.0), drag=st.booleans(), symmetric=st.booleans())
    def test_matches_reference_integrator(self, state, thrusts, w, drag, symmetric):
        # 62 steps at 20 steps per hold: three command changes, a
        # decimation of 7 that puts stored samples inside holds and one of
        # 45 whose stores skip whole holds. The tension column is the
        # reference's rope law at each stored state, bit for bit: recorded
        # by the step that starts there, or evaluated after the run for the
        # final state, which only a decimation of 1 stores here. A symmetric
        # start (the payload on the spin axis, vehicle 2 and each command
        # vehicle 1's mirror image) flies every hold on the mirror stepper
        p = with_drag(drag, f_ctrl=100.0)
        if symmetric:
            state = mirrored(state)
            thrusts = [u[:3] + [-u[0], -u[1], u[2]] for u in thrusts]
            assert all(_bind(p).on_mirror(list(state), u) for u in thrusts)
        def controller(y, t):
            return thrusts[round(t * p.f_ctrl)]

        def frame_angle(t):
            return w * t * (1.0 + 5.0 * t)

        t, states, cmds = reference_simulate(state, controller, p, 0.031)
        tensions = [[F for F, _ in reference_tensions(y, p)] for y in states.tolist()]
        for dec in (1, 7, 20, 45):
            traj = simulate(state, controller, frame_angle, p, 0.031,
                            output_decimation=dec)
            assert np.array_equal(traj.t, t[::dec])
            assert np.array_equal(traj.states, states[::dec])
            assert np.array_equal(traj.commands, cmds[::dec])
            assert traj.theta.tolist() == [frame_angle(x) for x in t[::dec].tolist()]
            assert bits(traj.tether.ravel().tolist()) == bits(sum(tensions[::dec], []))

    @pytest.mark.parametrize("thrust", [1e300, 1e160, math.nan])
    def test_blowup_time_matches_reference(self, thrust):
        self.blowup_time_matches_reference([0.0, 0.0, thrust, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("thrust", [1e300, 1e160])
    def test_mirrored_blowup_time_matches_reference(self, thrust):
        # the bomb on both vehicles keeps the flight mirror-symmetric, and
        # the mirror stepper raises it
        self.blowup_time_matches_reference([0.0, 0.0, thrust, 0.0, 0.0, thrust])

    @staticmethod
    def blowup_time_matches_reference(bomb):
        # the bomb is issued at the 0.04 s tick; 1e300 N and a NaN command
        # blow up in the next step, 1e160 N fourteen steps later, all inside
        # the hold
        thrust = bomb[2]
        p = SystemParams()
        _, state, cmd = build_equilibrium(0.5, 0.0, p)

        def controller(y, t):
            return bomb if t >= 0.03 else cmd

        with pytest.raises(IntegrationBlowupError) as expected:
            reference_simulate(state, controller, p, 0.2)
        with pytest.raises(IntegrationBlowupError) as excinfo:
            simulate(state, controller, lambda t: 0.0, p, 0.2, output_decimation=7)
        assert excinfo.value.t == expected.value.t
        ticks = expected.value.t * p.f_ctrl
        assert abs(ticks - round(ticks)) > 1e-6  # not a hold boundary
        if thrust != 1e160:
            assert expected.value.t == pytest.approx(0.04 + p.dt_physics, abs=1e-12)

    def test_tension_column_matches_tether_forces(self):
        # slack vehicles thrust upward away from the falling payload until
        # the ropes snap taut and throw them back: slack, taut, slack again.
        # 0.5 s is 1000 steps, so the last sample is the final state, whose
        # tensions no step records; every row is the rope law at its state,
        # the library's and the reference's, bit for bit
        p = SystemParams()
        lift = [0.0, 0.0, 2.0 * p.m_q * p.g] * 2
        traj = simulate(slack_state(p), lambda y, t: lift, lambda t: 0.0, p,
                        duration=0.5, output_decimation=5)
        assert traj.t[-1] == 1000 * p.dt_physics
        for i in range(len(traj)):
            y = traj.states[i].tolist()
            expected = [F for F, _ in tether_forces(y, p)]
            assert bits(traj.tether[i].tolist()) == bits(expected)
            assert bits(expected) == bits([F for F, _ in reference_tensions(y, p)])
        x_p = part(traj.states, "x_p")
        slack = np.stack([np.linalg.norm(part(traj.states, x_i) - x_p, axis=1) < p.ell
                          for x_i in ("x_1", "x_2")], axis=1)
        assert slack[0].all() and slack[-1].all() and not slack.all()
        assert np.all(traj.tether[slack] == 0.0)
        assert np.any(traj.tether[~slack] > 0.0)

    @pytest.mark.parametrize("drag", [False, True])
    def test_final_sample_tension(self, drag):
        # a perturbed 60 deg hover, both ropes taut: 0.1 s is 200 steps, so
        # at a decimation of 20 the last sample is the final state, which no
        # step starts from, and simulate evaluates its tensions after the run
        p = with_drag(drag)
        _, state, cmd = build_equilibrium(DEG(60), 0.0, p)
        state = replaced(state, x_p=part(state, "x_p") + vec3(0.002, 0.0, -0.004))
        traj = simulate(state, lambda y, t: cmd, lambda t: 0.0, p, 0.1, output_decimation=20)
        assert len(traj) == 11 and traj.t[-1] == 200 * p.dt_physics
        assert traj.tether.min() > 1.0
        for y, row in zip(traj.states.tolist(), traj.tether.tolist()):
            assert bits(row) == bits([F for F, _ in tether_forces(y, p)])

    @pytest.mark.parametrize("defect", ["short", math.nan, math.inf])
    def test_initial_state_checked(self, defect):
        # simulate checks a flight's initial state: 24 finite floats
        p = SystemParams()
        _, state, cmd = build_equilibrium(0.5, 0.0, p)
        y = list(state)[:23] if defect == "short" else [*state[:4], defect, *state[5:]]
        with pytest.raises(ValueError, match="state vector must be 24 finite floats"):
            simulate(y, lambda y, t: cmd, lambda t: 0.0, p, duration=0.1)

    @pytest.mark.parametrize("duration", [0.0, -1.0, math.inf, math.nan])
    def test_duration_checked(self, duration):
        # an infinite duration is refused like the other bad ones, not by an
        # overflow in the step count
        p = SystemParams()
        _, state, cmd = build_equilibrium(0.5, 0.0, p)
        with pytest.raises(ValueError, match="duration must be positive and finite"):
            simulate(state, lambda y, t: cmd, lambda t: 0.0, p, duration)

    @pytest.mark.parametrize("duration, steps", [(1e30, "2e+33"), (1e300, "2e+303")])
    def test_step_count_beyond_an_index_refused(self, duration, steps):
        # a finite duration of more physics steps than the sample buffers can
        # index is refused before any buffer is sized, not by an OverflowError
        p = SystemParams()
        _, state, cmd = build_equilibrium(0.5, 0.0, p)
        with pytest.raises(ValueError) as refused:
            simulate(state, lambda y, t: cmd, lambda t: 0.0, p, duration)
        assert str(refused.value) == (f"duration {duration:g} s is {steps} physics steps, "
                                      "more than the sample buffers can index")

    @pytest.mark.parametrize("dec, error", [(2.5, TypeError), (0, ValueError), (True, TypeError)])
    def test_output_decimation_not_truncated(self, dec, error):
        p = SystemParams()
        _, state, cmd = build_equilibrium(0.5, 0.0, p)
        with pytest.raises(error):
            simulate(state, lambda y, t: cmd, lambda t: 0.0, p, 0.2, output_decimation=dec)

    @pytest.mark.parametrize("dec", [None, 7])
    def test_control_period_longer_than_int64_steps(self, dec):
        # 1/(f_ctrl * 0.5 ms) is 2e18 steps at 1e-15 Hz and 2e19, past int64,
        # at 1e-16 Hz: a 0.05 s flight holds its first command throughout
        # either way, and stores the same samples
        lift = [0.0, 0.0, 2.0 * 0.7 * 9.81] * 2
        trajs = [simulate(slack_state(p), lambda y, t: lift, lambda t: 0.0, p, 0.05,
                          output_decimation=dec)
                 for p in (SystemParams(f_ctrl=1e-15), SystemParams(f_ctrl=1e-16))]
        assert len(trajs[0]) == (1 if dec is None else 15)
        for name in ("t", "states", "commands"):
            assert np.array_equal(getattr(trajs[0], name), getattr(trajs[1], name))

    def test_decimation_longer_than_int64_steps(self):
        # a 0.05 s flight is 100 steps: a decimation of 1e20 stores what one
        # of 101 stores, the initial state alone
        p = SystemParams()
        lift = [0.0, 0.0, 2.0 * p.m_q * p.g] * 2
        a, b = (simulate(slack_state(p), lambda y, t: lift, lambda t: 0.0, p, 0.05,
                         output_decimation=dec) for dec in (10**20, 101))
        assert len(a) == 1
        for name in ("t", "states", "commands", "tether", "theta"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_zero_order_hold_alignment_required(self):
        # 1/(50*3e-4) = 66.67 steps per control period: refused when the
        # parameters are built, so no flight can start with them
        with pytest.raises(ParamError, match="zero-order hold"):
            SystemParams(dt_physics=3e-4, f_ctrl=50.0)

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
        assert first[3] == state[2]
