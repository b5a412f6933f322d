import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spinlift.dynamics import _make_rhs
from spinlift.equilibrium import build_equilibrium, omega_star
from spinlift import lqr
from spinlift.lqr import (LinearizationError, SynthesisError, _c_frame_model,
                          care_residual_norm, default_weights, linearize,
                          solve_care, synthesize)
from spinlift.model import SystemParams

P = SystemParams()
DEG = math.radians


def abscissa(M):
    return float(np.max(np.real(np.linalg.eigvals(M))))


def reference_c_frame_model(params):
    """The design model in numpy matrix form, W_t being the transpose of the
    cross-product matrix of w = omega_c z_hat: the reference for the float
    form of ``lqr._c_frame_model``."""
    rhs, _ = _make_rhs(dataclasses.replace(params, c_d_quad=0.0, c_d_payload=0.0))

    def f(s, u, omega_c):
        bodies = np.asarray(s, dtype=float).reshape(3, 2, 3)  # (p, 1, 2) x (x, v)
        x_c, v_c = bodies[:, 0], bodies[:, 1]
        W_t = np.array([[0.0, omega_c, 0.0], [-omega_c, 0.0, 0.0], [0.0, 0.0, 0.0]])
        v_e = v_c + x_c @ W_t  # earth-frame velocity v_C + w x x_C, one body per row
        y = np.concatenate([np.stack([x_c, v_e], axis=1).ravel(),
                            np.asarray(u, dtype=float)])
        a_e = np.reshape(rhs(y.tolist(), (0.0,) * 6)[:18], (3, 2, 3))[:, 1]
        a_c = a_e - 2.0 * v_c @ W_t - x_c @ W_t @ W_t
        return np.stack([v_c, a_c], axis=1).ravel()

    return f


def reference_linearize(eq, params):
    """``linearize`` over the numpy model, one Jacobian column at a time."""
    s_bar, u_bar = np.array(eq.s_bar), np.array(eq.u_bar)
    w = eq.omega_C
    f = reference_c_frame_model(params)
    if np.linalg.norm(f(s_bar, u_bar, w)) > lqr._equilibrium_tolerance(eq, params):
        raise LinearizationError("operating point is not an equilibrium")
    z_bar = np.concatenate([s_bar, u_bar])
    J = np.empty((18, 24))
    for j in range(24):
        zp = z_bar.copy()
        zm = z_bar.copy()
        zp[j] += lqr._FD_STEP
        zm[j] -= lqr._FD_STEP
        J[:, j] = (f(zp[:18], zp[18:], w) - f(zm[:18], zm[18:], w)) / (2.0 * lqr._FD_STEP)
    return J[:, :18].copy(), J[:, 18:].copy()


class TestSolveCare:
    def test_double_integrator_closed_form(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        Q = np.eye(2)
        R = np.array([[1.0]])
        P_sol = solve_care(A, B, Q, R)
        root3 = math.sqrt(3.0)
        assert_allclose(P_sol, [[root3, 1.0], [1.0, root3]], atol=1e-9)
        K = np.linalg.solve(R, B.T @ P_sol)
        assert_allclose(K, [[1.0, root3]], atol=1e-6)

    def test_scalar_closed_form(self):
        # A=0, B=1: P = sqrt(q r), K = sqrt(q / r)
        P_sol = solve_care(np.zeros((1, 1)), np.ones((1, 1)),
                           4.0 * np.ones((1, 1)), np.ones((1, 1)))
        assert P_sol[0, 0] == pytest.approx(2.0, abs=1e-10)

    def test_stable_plant_zero_cost(self):
        A = -np.eye(3)
        B = np.eye(3)
        P_sol = solve_care(A, B, np.zeros((3, 3)), np.eye(3))
        assert_allclose(P_sol, np.zeros((3, 3)), atol=1e-12)

    def test_riccati_defect_is_small(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((6, 6))
        B = rng.standard_normal((6, 2))
        Q = np.eye(6)
        R = np.eye(2)
        P_sol = solve_care(A, B, Q, R)
        assert care_residual_norm(A, B, Q, R, P_sol) < 1e-9
        assert abscissa(A - B @ np.linalg.solve(R, B.T @ P_sol)) < 0.0

    def test_matches_schur_based_solver(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            A = rng.standard_normal((5, 5))
            B = rng.standard_normal((5, 2))
            Q_half = rng.standard_normal((5, 5))
            Q = Q_half.T @ Q_half
            R = np.diag(rng.uniform(0.5, 2.0, 2))
            ours = solve_care(A, B, Q, R)
            reference = scipy.linalg.solve_continuous_are(A, B, Q, R)
            assert_allclose(ours, reference, rtol=1e-8, atol=1e-10)

    def test_unstabilizable_pair_raises(self):
        A = np.diag([1.0, 1.0])
        B = np.array([[1.0], [0.0]])  # second unstable mode unreachable
        with pytest.raises(SynthesisError):
            solve_care(A, B, np.eye(2), np.eye(1))

    def test_imaginary_axis_hamiltonian_refused(self):
        # an undriven, unweighted oscillator: every eigenvalue of the
        # Hamiltonian lies on the imaginary axis, so none is stable
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(SynthesisError, match="has 0 stable eigenvalues of 4, needs 2"):
            solve_care(A, np.zeros((2, 1)), np.zeros((2, 2)), np.eye(1))

    @given(beta_deg=st.floats(0.0, 89.0), spin=st.floats(0.0, 1.5),
           m_p=st.floats(0.8, 1.2), k_T=st.floats(0.7, 1.3), tau_att=st.floats(0.8, 1.2))
    @example(beta_deg=0.0, spin=0.0, m_p=1.0, k_T=1.0, tau_att=1.0)
    @example(beta_deg=89.0, spin=1.5, m_p=1.2, k_T=0.7, tau_att=0.8)
    def test_matches_scipy_over_envelope(self, beta_deg, spin, m_p, k_T, tau_att):
        # m_p, k_T and tau_att are factors on the nominal values
        params = SystemParams(m_p=m_p * P.m_p, k_T=k_T * P.k_T, tau_att=tau_att * P.tau_att)
        beta = DEG(beta_deg)
        spec, _, _ = build_equilibrium(beta, spin * omega_star(beta, params), params)
        model = linearize(spec, params)
        Q, R = default_weights()
        ours = solve_care(model.A, model.B, Q, R)
        reference = scipy.linalg.solve_continuous_are(model.A, model.B, Q, R)
        assert_allclose(ours, reference, rtol=1e-9, atol=1e-9 * np.linalg.norm(reference))
        assert abscissa(model.A - model.B @ np.linalg.solve(R, model.B.T @ ours)) < 0.0

    def test_stiff_tether_residual_no_worse_than_scipy(self):
        # at k_T = 1e10 N/m, A reaches 1e10 /s^2 and both solvers' residuals
        # are rounding, measured in units of eps times the equation's scale
        # ||Q|| + 2 ||A|| ||P|| + ||B R^-1 B'|| ||P||^2; which solver is
        # lower at one point depends on the BLAS kernel, so the largest over
        # the grid is compared
        stiff = SystemParams(k_T=1e10, m_p=0.6, dt_physics=1e-7)
        Q, R = default_weights()

        def scaled_residual(solver, model):
            P_sol = solver(model.A, model.B, Q, R)
            norm_P = np.linalg.norm(P_sol)
            G = model.B @ np.linalg.solve(R, model.B.T)
            scale = (np.linalg.norm(Q) + 2.0 * np.linalg.norm(model.A) * norm_P
                     + np.linalg.norm(G) * norm_P ** 2)
            return care_residual_norm(model.A, model.B, Q, R, P_sol) / (np.finfo(float).eps * scale)

        ours, reference = [], []
        for beta_deg in (0, 30, 60, 85, 89):
            for spin in (0.0, 1.0, 1.5):
                beta = DEG(beta_deg)
                spec, _, _ = build_equilibrium(beta, spin * omega_star(beta, stiff), stiff)
                model = linearize(spec, stiff)
                ours.append(scaled_residual(solve_care, model))
                reference.append(scaled_residual(scipy.linalg.solve_continuous_are, model))
        assert max(ours) < 100.0
        assert max(ours) <= max(reference)


class TestLinearize:
    def test_kinematic_identity_blocks(self):
        spec, _, _ = build_equilibrium(DEG(30), 0.0, P)
        model = linearize(spec, P)
        for pos, vel in ((0, 3), (6, 9), (12, 15)):
            assert_allclose(model.A[pos:pos + 3, vel:vel + 3], np.eye(3), atol=1e-9)
            assert_allclose(model.A[pos:pos + 3, :vel], np.zeros((3, vel)), atol=1e-9)

    def test_coriolis_skew_term(self):
        beta = DEG(45)
        w = omega_star(beta, P)
        spec, _, _ = build_equilibrium(beta, w, P)
        model = linearize(spec, P)
        block = model.A[3:6, 3:6]  # payload velocity-to-velocity
        antisym = 0.5 * (block - block.T)
        assert antisym[0, 1] == pytest.approx(2.0 * w, abs=1e-6)
        assert antisym[1, 0] == pytest.approx(-2.0 * w, abs=1e-6)

    def test_input_jacobian_direct_thrust(self):
        spec, _, _ = build_equilibrium(DEG(30), 0.0, P)
        model = linearize(spec, P)
        assert_allclose(model.B[9:12, 0:3], np.eye(3) / P.m_q, atol=1e-8)
        assert_allclose(model.B[15:18, 3:6], np.eye(3) / P.m_q, atol=1e-8)
        assert_allclose(model.B[0:9, :], np.zeros((9, 6)), atol=1e-9)

    def test_step_size_robustness(self, monkeypatch):
        spec, _, _ = build_equilibrium(DEG(40), 1.5, P)
        A1 = linearize(spec, P).A
        monkeypatch.setattr(lqr, "_FD_STEP", 2e-6)
        A2 = linearize(spec, P).A
        assert np.linalg.norm(A2 - A1) / np.linalg.norm(A1) < 1e-6

    def test_refuses_non_equilibrium(self):
        beta = DEG(50)
        w = omega_star(beta, P)
        spec, _, _ = build_equilibrium(beta, w, P)
        broken = dataclasses.replace(spec, u_bar=(spec.u_bar[0] + 0.5, *spec.u_bar[1:]))
        with pytest.raises(LinearizationError):
            linearize(broken, P)

    @pytest.mark.parametrize("beta_deg", [0, 60])
    def test_stiff_tether_equilibrium_accepted(self, beta_deg):
        # at k_T = 1e10 N/m the rounding of the tether law alone puts the
        # residual of an exact equilibrium above 1e-6 (3.2e-6 at 0 deg)
        stiff = SystemParams(k_T=1e10, m_p=0.6, dt_physics=1e-7)
        spec, _, _ = build_equilibrium(DEG(beta_deg), 0.0, stiff)
        assert np.linalg.norm(_c_frame_model(stiff)(spec.s_bar, spec.u_bar, 0.0)) > 1e-6
        assert np.all(np.isfinite(synthesize(spec, stiff).K))  # stabilizing, or it raises

    def test_residual_at_equilibrium(self):
        for beta_deg, w_scale in ((30, 0.0), (60, 1.0)):
            beta = DEG(beta_deg)
            w = w_scale * omega_star(beta, P)
            spec, _, _ = build_equilibrium(beta, w, P)
            assert np.linalg.norm(_c_frame_model(P)(spec.s_bar, spec.u_bar, w)) < 1e-6

    def test_linearization_consistency_second_order(self):
        beta = DEG(45)
        w = omega_star(beta, P)
        spec, _, _ = build_equilibrium(beta, w, P)
        model = linearize(spec, P)
        f = _c_frame_model(P)
        rng = np.random.default_rng(23)
        ds = rng.standard_normal(18)
        ds /= np.linalg.norm(ds)
        du = rng.standard_normal(6)
        du /= np.linalg.norm(du)

        def remainder(scale):
            full = f(np.array(spec.s_bar) + scale * ds, np.array(spec.u_bar) + scale * du, w)
            linear = model.A @ (scale * ds) + model.B @ (scale * du)
            return np.linalg.norm(full - linear)

        r1 = remainder(1e-4)
        r2 = remainder(5e-5)
        slope = math.log2(r1 / r2)
        assert slope >= 1.9

    @given(beta_deg=st.floats(0.0, 89.0), spin=st.floats(0.0, 1.5),
           m_p=st.floats(0.8, 1.2), k_T=st.floats(0.7, 1.3), tau_att=st.floats(0.8, 1.2))
    @example(beta_deg=0.0, spin=0.0, m_p=1.0, k_T=1.0, tau_att=1.0)
    @example(beta_deg=89.0, spin=1.5, m_p=1.2, k_T=0.7, tau_att=0.8)
    def test_matches_numpy_reference_bitwise(self, beta_deg, spin, m_p, k_T, tau_att):
        # m_p, k_T and tau_att are factors on the nominal values, the
        # benchmark's parameter draws
        params = SystemParams(m_p=m_p * P.m_p, k_T=k_T * P.k_T, tau_att=tau_att * P.tau_att)
        beta = DEG(beta_deg)
        spec, _, _ = build_equilibrium(beta, spin * omega_star(beta, params), params)
        try:
            A_ref, B_ref = reference_linearize(spec, params)
        except LinearizationError:
            with pytest.raises(LinearizationError):
                linearize(spec, params)
            return
        model = linearize(spec, params)
        assert model.A.tobytes() == A_ref.tobytes()
        assert model.B.tobytes() == B_ref.tobytes()


class TestSynthesize:
    def test_weights_assembled_exactly(self):
        Q, R = default_weights()
        assert_allclose(np.diag(Q), [5, 5, 5, 0, 0, 0] * 3, atol=0)
        assert_allclose(Q - np.diag(np.diag(Q)), np.zeros((18, 18)), atol=0)
        assert_allclose(np.diag(R), [1.2, 1.2, 1.0, 1.2, 1.2, 1.0], atol=0)

    def test_closed_loop_stable_both_modes(self):
        beta = DEG(45)
        gains = {}
        for label, w in (("static", 0.0), ("rotating", omega_star(beta, P))):
            spec, _, _ = build_equilibrium(beta, w, P)
            g = synthesize(spec, P)
            model = linearize(spec, P)
            assert abscissa(model.A - model.B @ g.K) < 0.0
            assert g.care_residual < 1e-8
            gains[label] = g.K
        assert np.linalg.norm(gains["rotating"] - gains["static"]) > 0.0

    def test_riccati_solution_properties(self):
        spec, _, _ = build_equilibrium(DEG(52.5), omega_star(DEG(52.5), P), P)
        g = synthesize(spec, P)
        assert np.linalg.norm(g.P - g.P.T) < 1e-10
        assert np.linalg.eigvalsh(g.P).min() > -1e-10

    def test_heavier_state_weight_moves_poles_left(self):
        spec, _, _ = build_equilibrium(DEG(45), 0.0, P)
        model = linearize(spec, P)
        Q, R = default_weights()
        P1 = solve_care(model.A, model.B, Q, R)
        P2 = solve_care(model.A, model.B, 100.0 * Q, R)
        K1 = np.linalg.solve(R, model.B.T @ P1)
        K2 = np.linalg.solve(R, model.B.T @ P2)
        assert abscissa(model.A - model.B @ K2) <= abscissa(model.A - model.B @ K1) + 1e-9
        assert np.linalg.norm(K2) > np.linalg.norm(K1)

    def test_gain_mirror_symmetry(self):
        # conjugating by the 180-degree rotation about the spin axis and the
        # vehicle swap leaves the gain invariant
        mirror = np.diag([-1.0, -1.0, 1.0])
        Pi_s = np.zeros((18, 18))
        Pi_s[0:3, 0:3] = mirror
        Pi_s[3:6, 3:6] = mirror
        Pi_s[6:9, 12:15] = mirror
        Pi_s[9:12, 15:18] = mirror
        Pi_s[12:15, 6:9] = mirror
        Pi_s[15:18, 9:12] = mirror
        Pi_u = np.zeros((6, 6))
        Pi_u[0:3, 3:6] = mirror
        Pi_u[3:6, 0:3] = mirror
        beta = DEG(60)
        spec, _, _ = build_equilibrium(beta, omega_star(beta, P), P)
        g = synthesize(spec, P)
        assert np.linalg.norm(g.K @ Pi_s - Pi_u @ g.K) < 1e-8 * np.linalg.norm(g.K)

    @given(beta_deg=st.floats(0.0, 89.0), spin=st.floats(0.0, 1.5))
    def test_envelope_closed_loop_hurwitz(self, beta_deg, spin):
        beta = DEG(beta_deg)
        spec, _, _ = build_equilibrium(beta, spin * omega_star(beta, P), P)
        g = synthesize(spec, P)
        model = linearize(spec, P)
        assert abscissa(model.A - model.B @ g.K) < 0.0
        assert g.care_residual < 1e-8
