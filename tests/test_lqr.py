import dataclasses
import cmath
import math
import re
import traceback

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spinlift.dynamics import DegenerateGeometryError, _compile
from spinlift.equilibrium import build_equilibrium, omega_star
from spinlift import lqr
from spinlift.lqr import (LinearizationError, SynthesisError, care_residual_norm,
                          default_weights, linearize, solve_care, synthesize)
from spinlift.model import SystemParams

from reference import reference_rhs

P = SystemParams()
DEG = math.radians


def abscissa(M):
    return float(np.max(np.real(np.linalg.eigvals(M))))


def reference_c_frame_model(params):
    """The design model in numpy matrix form, W_t being the transpose of the
    cross-product matrix of w = omega_c z_hat: the reference for the rows of
    ``lqr``'s design pass."""
    drag_free = dataclasses.replace(params, c_d_quad=0.0, c_d_payload=0.0)

    def f(s, u, omega_c):
        bodies = np.asarray(s, dtype=float).reshape(3, 2, 3)  # (p, 1, 2) x (x, v)
        x_c, v_c = bodies[:, 0], bodies[:, 1]
        W_t = np.array([[0.0, omega_c, 0.0], [-omega_c, 0.0, 0.0], [0.0, 0.0, 0.0]])
        v_e = v_c + x_c @ W_t  # earth-frame velocity v_C + w x x_C, one body per row
        y = np.concatenate([np.stack([x_c, v_e], axis=1).ravel(),
                            np.asarray(u, dtype=float)])
        a_e = np.reshape(reference_rhs(y.tolist(), (0.0,) * 6, drag_free)[:18], (3, 2, 3))[:, 1]
        a_c = a_e - 2.0 * v_c @ W_t - x_c @ W_t @ W_t
        return np.stack([v_c, a_c], axis=1).ravel()

    return f


def design_residual(s, u, omega_c, params):
    """Norm of row 0 of ``lqr``'s design pass, bound as ``linearize`` binds
    it: the derivative of the drag-free control-frame model at (s, u)."""
    design = _compile(lqr._design_pass)(
        ell=params.ell, g=params.g, k_T=params.k_T, c_T=params.c_T,
        inv_mq=1.0 / params.m_q, inv_mp=1.0 / params.m_p)
    return np.linalg.norm(design(s, u, omega_c, lqr._FD_STEP)[0])


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


def reference_solve_care(A, B, Q, R):
    """Laub's Schur method through scipy's wrappers: ``matrix_balance``,
    then ``schur(sort="lhp")``, then P = V_21 V_11^-1 from the first n
    scaled Schur vectors; the reference for the eigenvector method of
    ``solve_care``."""
    n = A.shape[0]
    H = np.block([[A, -B @ np.linalg.solve(R, B.T)], [-Q, -A.T]])
    H, (scale, _) = scipy.linalg.matrix_balance(H, permute=False, separate=True)
    _, U, stable = scipy.linalg.schur(H, sort="lhp")
    assert stable == n
    V = scale[:, None] * U[:, :n]
    P = np.linalg.solve(V[:n].T, V[n:].T).T
    return 0.5 * (P + P.T)


def design_point(beta_deg, spin, params):
    """A, B, Q, R at beta and spin * omega_star."""
    beta = DEG(beta_deg)
    spec, _, _ = build_equilibrium(beta, spin * omega_star(beta, params), params)
    model = linearize(spec, params)
    return (model.A, model.B, *default_weights())


# lqr's LAPACK gufuncs and the public numpy.linalg functions that wrap them
PUBLIC = {"_eig": np.linalg.eig, "_eigvals": np.linalg.eigvals,
          "_eigvalsh": np.linalg.eigvalsh, "_solve": np.linalg.solve}


def record_gufunc_calls(monkeypatch):
    """Replace each of lqr's gufuncs by a wrapper that appends (name,
    arguments, outputs) of every call to the returned list."""
    calls = []
    for name in PUBLIC:
        def recorded(*args, _gufunc=getattr(lqr, name), _name=name, **kwargs):
            out = _gufunc(*args, **kwargs)
            calls.append((_name, args, out if isinstance(out, tuple) else (out,)))
            return out

        monkeypatch.setattr(lqr, name, recorded)
    return calls


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
        # that mode's stable eigenvector of H is all costate: its state
        # part, a column of V_11, is exactly zero
        with pytest.raises(SynthesisError) as refused:
            solve_care(A, B, np.eye(2), np.eye(1))
        assert str(refused.value) == "Riccati solve failed: Singular matrix"

    def test_imaginary_axis_hamiltonian_refused(self):
        # an undriven, unweighted oscillator: every eigenvalue of the
        # Hamiltonian lies on the imaginary axis, so none is stable; beside
        # a stable mode, four of six lie there and one is stable
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(SynthesisError, match="has 0 stable eigenvalues of 4, needs 2"):
            solve_care(A, np.zeros((2, 1)), np.zeros((2, 2)), np.eye(1))
        A = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        with pytest.raises(SynthesisError, match="has 1 stable eigenvalues of 6, needs 3"):
            solve_care(A, np.zeros((3, 1)), np.zeros((3, 3)), np.eye(1))

    def test_unreachable_weighted_oscillator_not_stabilizing(self):
        # an undamped oscillator that B cannot reach but Q weighs: rounding can
        # split the Hamiltonian's double eigenvalues +-i off the imaginary axis,
        # leaving V_11 nearly but not exactly singular and P finite and huge
        # (entries of about 7e7 on the default kernel); the solve refuses, or
        # the closed loop it gives is not Hurwitz, which synthesize refuses
        A = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        B = np.array([[0.0], [0.0], [1.0]])
        try:
            P = solve_care(A, B, np.eye(3), np.eye(1))
        except SynthesisError:
            return
        assert abscissa(A - B @ B.T @ P) >= 0.0

    # an infinity in B meets B's zeros in B R^-1 B' (inf * 0): the NaN, not
    # a RuntimeWarning, reaches the check
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["A", "B", "Q"])
    def test_non_finite_input_refused(self, name, value):
        args = {"A": np.array([[0.0, 1.0], [0.0, 0.0]]), "B": np.array([[0.0], [1.0]]),
                "Q": np.eye(2), "R": np.eye(1)}
        args[name][1, 0] = value
        with pytest.raises(SynthesisError, match="need finite"):
            solve_care(**args)

    @pytest.mark.parametrize("n, n_Q", [(2, 1), (0, 0)])
    def test_mismatched_or_empty_shape_refused(self, n, n_Q):
        # a (1, 1) Q would broadcast into the (2, 2) block of H; a 0 x 0
        # problem has no Hamiltonian for LAPACK to balance
        with pytest.raises(SynthesisError, match="need finite, nonempty"):
            solve_care(np.zeros((n, n)), np.ones((n, 1)), np.eye(n_Q), np.eye(1))

    def test_near_singular_v11_refused(self, monkeypatch):
        # a V_11 singular short of an exact zero pivot: the solve overflows
        eigenvalues = np.array([-1.0, -2.0, 1.0, 2.0], dtype=complex)
        V = np.diag([1e-300, 1.0, 1e300, 1.0]).astype(complex)
        V[2, 0] = 1e300
        monkeypatch.setattr(lqr, "_eig", lambda a, signature: (eigenvalues, V))
        with pytest.raises(SynthesisError) as refused:
            solve_care(np.eye(2), np.eye(2), np.eye(2), np.eye(2))
        assert str(refused.value) == "Riccati solve failed: Singular matrix"

    def test_eig_failure_refused(self, monkeypatch):
        # a failed dgeev: the gufunc fills both outputs with NaN
        def eig(a, signature):
            return np.full(len(a), np.nan, complex), np.full(a.shape, np.nan, complex)

        monkeypatch.setattr(lqr, "_eig", eig)
        with pytest.raises(SynthesisError) as refused:
            solve_care(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]),
                       np.eye(2), np.eye(1))
        assert str(refused.value) == "Riccati solve failed: Eigenvalues did not converge"

    def test_singular_input_weight_refused(self):
        # LAPACK refuses R = 0 as singular, as numpy.linalg.solve reports it
        args = (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]), np.eye(2),
                np.zeros((1, 1)))
        with pytest.raises(SynthesisError) as refused:
            solve_care(*args)
        assert str(refused.value) == "Riccati solve failed: Singular matrix"
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            care_residual_norm(*args, np.eye(2))

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_matches_schur_reference_random(self, n):
        # measured up to 3e-14 relative on the default, Sandybridge and
        # Prescott OpenBLAS kernels
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, max(1, n // 3)))
        args = (A, B, np.eye(n), np.eye(B.shape[1]))
        reference = reference_solve_care(*args)
        assert_allclose(solve_care(*args), reference, rtol=0,
                        atol=1e-12 * np.abs(reference).max())

    @given(beta_deg=st.floats(0.0, 89.0), spin=st.floats(0.0, 1.5),
           m_p=st.floats(0.8, 1.2), k_T=st.floats(0.7, 1.3), tau_att=st.floats(0.8, 1.2))
    @example(beta_deg=0.0, spin=0.0, m_p=1.0, k_T=1.0, tau_att=1.0)
    @example(beta_deg=89.0, spin=1.5, m_p=1.2, k_T=0.7, tau_att=0.8)
    def test_gain_matches_references_over_envelope(self, beta_deg, spin, m_p, k_T, tau_att):
        # m_p, k_T and tau_att are factors on the nominal values. Over 300
        # draws K was within 1.6e-13 of the Schur reference's and 2.7e-12
        # of solve_continuous_are's, relative to max |K|, on the default,
        # Sandybridge and Prescott OpenBLAS kernels
        params = SystemParams(m_p=m_p * P.m_p, k_T=k_T * P.k_T, tau_att=tau_att * P.tau_att)
        A, B, Q, R = design_point(beta_deg, spin, params)
        K = np.linalg.solve(R, B.T @ solve_care(A, B, Q, R))
        for reference in (reference_solve_care, scipy.linalg.solve_continuous_are):
            K_ref = np.linalg.solve(R, B.T @ reference(A, B, Q, R))
            assert_allclose(K, K_ref, rtol=0, atol=1e-11 * np.abs(K_ref).max())

    @pytest.mark.parametrize("beta_deg, spin", [(0, 0.0), (60, 0.0), (60, 1.0)])
    def test_stiff_tether_residual_near_schur_reference(self, beta_deg, spin):
        # at k_T = 1e10 N/m both residuals are rounding of about 1e-4 ||P||;
        # which one is lower depends on the BLAS kernel: eigenvectors are
        # lower at all three points on the default and Haswell kernels, and
        # up to 1.6 times higher (at 0 deg, static) on Sandybridge and Prescott
        args = design_point(beta_deg, spin, SystemParams(k_T=1e10, m_p=0.6, dt_physics=1e-7))

        def relative_residual(solver):
            P_sol = solver(*args)
            return care_residual_norm(*args, P_sol) / np.linalg.norm(P_sol)

        ours = relative_residual(solve_care)
        assert ours < 1e-3
        assert ours <= 2.0 * relative_residual(reference_solve_care)

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


class TestLapackGufuncs:
    """``lqr`` calls the LAPACK gufuncs behind numpy.linalg's public
    functions directly; every call it makes returns what the public function
    returns on the same arguments, bit for bit. A numpy release that changes
    the private module fails here."""

    @staticmethod
    def assert_calls_match_numpy(calls):
        for name, args, outs in calls:
            public = PUBLIC[name](*args)
            public = tuple(public) if isinstance(public, tuple) else (public,)
            if name in ("_eig", "_eigvals") and not outs[0].imag.any():
                # numpy.linalg returns real arrays when every eigenvalue is real
                outs = tuple(out.real for out in outs)
            for out, expected in zip(outs, public, strict=True):
                assert out.dtype == expected.dtype, name
                assert out.tobytes() == expected.tobytes(), name

    @pytest.mark.parametrize("beta_deg, spin, params", [
        (0, 0.0, P), (60, 1.0, P), (89, 1.5, P),
        (60, 1.0, SystemParams(k_T=1e10, m_p=0.6, dt_physics=1e-7))],
        ids=["static-0", "rotating-60", "rotating-89-fast", "stiff-60"])
    def test_synthesis_calls_match_numpy(self, monkeypatch, beta_deg, spin, params):
        beta = DEG(beta_deg)
        spec, _, _ = build_equilibrium(beta, spin * omega_star(beta, params), params)
        calls = record_gufunc_calls(monkeypatch)
        synthesize(spec, params)
        # per block: R^-1 B', the Hamiltonian, V_21 V_11^-1; then K, the
        # residual's R^-1 B', and each check once per block
        assert [name for name, _, _ in calls] == ["_solve", "_eig", "_solve"] * 2 + [
            "_solve", "_solve", "_eigvalsh", "_eigvalsh", "_eigvals", "_eigvals"]
        self.assert_calls_match_numpy(calls)

    def test_all_real_hamiltonian_takes_the_real_solve(self, monkeypatch):
        # A = 0, B = 1, Q = 4, R = 1: H = [[0, -1], [-4, 0]] has eigenvalues
        # +-2, so numpy.linalg.eig returns real eigenvectors and the solve
        # for P is the real one; the design model's Hamiltonians have complex
        # eigenvalues, and take the complex solve
        calls = record_gufunc_calls(monkeypatch)
        P_sol = solve_care(np.zeros((1, 1)), np.ones((1, 1)), 4.0 * np.ones((1, 1)), np.ones((1, 1)))
        assert P_sol.dtype == np.float64
        (_, _, (eigenvalues, _)), (_, arguments, _) = calls[1:]
        assert not eigenvalues.imag.any()
        assert all(a.dtype == np.float64 for a in arguments)
        self.assert_calls_match_numpy(calls)


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

    @pytest.mark.parametrize("beta_deg, spin", [(30, 0.0), (60, 1.0), (85, 1.5)])
    def test_design_model_drag_free(self, beta_deg, spin):
        # drag acts on the truth model only: with both coefficients nonzero,
        # A and B are those of the same params without drag
        dragged = SystemParams(c_d_quad=0.05, c_d_payload=0.02)
        beta = DEG(beta_deg)
        spec, _, _ = build_equilibrium(beta, spin * omega_star(beta, dragged), dragged)
        ours = linearize(spec, dragged)
        reference = linearize(spec, dataclasses.replace(dragged, c_d_quad=0.0, c_d_payload=0.0))
        assert ours.A.tobytes() == reference.A.tobytes()
        assert ours.B.tobytes() == reference.B.tobytes()

    @pytest.mark.parametrize("beta_deg", [0, 60])
    def test_stiff_tether_equilibrium_accepted(self, beta_deg):
        # at k_T = 1e10 N/m the rounding of the tether law alone puts the
        # residual of an exact equilibrium above 1e-6 (3.2e-6 at 0 deg)
        stiff = SystemParams(k_T=1e10, m_p=0.6, dt_physics=1e-7)
        spec, _, _ = build_equilibrium(DEG(beta_deg), 0.0, stiff)
        assert design_residual(spec.s_bar, spec.u_bar, 0.0, stiff) > 1e-6
        assert np.all(np.isfinite(synthesize(spec, stiff).K))  # stabilizing, or it raises

    @pytest.mark.parametrize("beta_deg", [0, 60])
    @pytest.mark.parametrize("spin", [0.0, 1.0])
    def test_stiff_tether_matches_numpy_reference_bitwise(self, beta_deg, spin):
        # at k_T = 1e10 N/m each rope stretches by less than the difference
        # step, so the perturbed points that shorten a rope find it slack:
        # the clamp branch of the tether law is in the pass's rows
        stiff = SystemParams(k_T=1e10, m_p=0.6, dt_physics=1e-7)
        beta = DEG(beta_deg)
        spec, _, _ = build_equilibrium(beta, spin * omega_star(beta, stiff), stiff)
        s_bar = np.array(spec.s_bar)
        for x_i in (s_bar[6:9], s_bar[12:15]):
            assert 0.0 < np.linalg.norm(x_i - s_bar[0:3]) - stiff.ell < 1e-3 * lqr._FD_STEP
        A_ref, B_ref = reference_linearize(spec, stiff)
        model = linearize(spec, stiff)
        assert model.A.tobytes() == A_ref.tobytes()
        assert model.B.tobytes() == B_ref.tobytes()

    @pytest.mark.parametrize("vehicle", [1, 2])
    def test_vehicle_on_payload_refused_in_generated_line(self, vehicle):
        # a hand-built operating point with a vehicle on the payload: the
        # design pass refuses it, and the traceback shows its generated line
        spec, _, _ = build_equilibrium(DEG(30), 0.0, P)
        s_bar = list(spec.s_bar)
        s_bar[6 * vehicle:6 * vehicle + 3] = s_bar[0:3]
        message = f"vehicle {vehicle} coincides with the payload"
        with pytest.raises(DegenerateGeometryError, match=message) as excinfo:
            linearize(dataclasses.replace(spec, s_bar=tuple(s_bar)), P)
        frame = traceback.extract_tb(excinfo.tb)[-1]
        assert frame.filename == "<spinlift.lqr design pass>"
        assert frame.line == f'raise DegenerateGeometryError("{message}")'

    def test_residual_at_equilibrium(self):
        for beta_deg, w_scale in ((30, 0.0), (60, 1.0)):
            beta = DEG(beta_deg)
            w = w_scale * omega_star(beta, P)
            spec, _, _ = build_equilibrium(beta, w, P)
            assert design_residual(spec.s_bar, spec.u_bar, w, P) < 1e-6

    def test_linearization_consistency_second_order(self):
        beta = DEG(45)
        w = omega_star(beta, P)
        spec, _, _ = build_equilibrium(beta, w, P)
        model = linearize(spec, P)
        f = reference_c_frame_model(P)
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

    @given(m_q=st.floats(0.1, 5.0), m_p=st.floats(0.1, 5.0), ell=st.floats(0.2, 5.0),
           log_k_T=st.floats(math.log10(50.0), 10.0), c_T=st.floats(0.0, 50.0),
           beta_deg=st.floats(0.0, 89.0), spin=st.floats(0.0, 1.5))
    @example(m_q=0.7, m_p=0.6, ell=1.0, log_k_T=10.0, c_T=10.0, beta_deg=60.0, spin=1.0)
    @example(m_q=5.0, m_p=0.1, ell=0.2, log_k_T=math.log10(50.0), c_T=0.0, beta_deg=89.0, spin=1.5)
    def test_commutes_with_mirror_map(self, m_q, m_p, ell, log_k_T, c_T, beta_deg, spin):
        # the premise of synthesize's split into mirror blocks: the
        # difference quotients of the two vehicles' points are mirror images
        # bit for bit, so S A = A S and S B = B S_U hold exactly, not to a
        # tolerance; dt_physics, which the model does not read, is the
        # largest whole fraction of the control period within half of
        # 2.5 / |lambda| at the fastest rope mode, a root of
        # m s^2 + c_T s + k_T at m = 1/(1/m_q + 2/m_p), so that SystemParams'
        # RK4 rule accepts it (RK4 is stable on the left half-disk of radius 2.5)
        k_T = 10.0 ** log_k_T
        m = 1.0 / (1.0 / m_q + 2.0 / m_p)
        fastest = abs((-c_T - cmath.sqrt(c_T * c_T - 4.0 * m * k_T)) / (2.0 * m))
        steps = math.ceil(2.0 / (P.f_ctrl * 2.5 / fastest))
        params = SystemParams(m_q=m_q, m_p=m_p, ell=ell, k_T=k_T, c_T=c_T,
                              dt_physics=1.0 / (P.f_ctrl * steps))
        beta = DEG(beta_deg)
        spec, _, _ = build_equilibrium(beta, spin * omega_star(beta, params), params)
        model = linearize(spec, params)
        assert (lqr.S @ model.A == model.A @ lqr.S).all()
        assert (lqr.S @ model.B == model.B @ lqr.S_U).all()


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
        # vehicle swap leaves the gain invariant, exactly: synthesize averages
        # K with its image, and the map is a signed permutation and an
        # involution, so the average is its own image bit for bit
        for beta_deg in (0.0, 30.0, 60.0, 83.0):
            for spin in (0.0, 1.0):
                beta = DEG(beta_deg)
                spec, _, _ = build_equilibrium(beta, spin * omega_star(beta, P), P)
                K = synthesize(spec, P).K
                assert np.array_equal(lqr.S_U.T @ K @ lqr.S, K), (beta_deg, spin)

    @pytest.mark.parametrize("params, tol", [
        (P, 1e-11),
        # at k_T = 1e10 N/m the Riccati solution is rounding-limited (both
        # solvers' residuals are about 1e-4 ||P||, see TestSolveCare), and the
        # two blocks' Hamiltonians round differently from the whole one:
        # measured up to 1.1e-4
        (SystemParams(k_T=1e10, m_p=0.6, dt_physics=1e-7), 1e-3),
    ], ids=["nominal", "stiff"])
    def test_split_matches_full_solve(self, params, tol):
        # K and P of the two mirror blocks against solve_care and the Schur
        # reference on the whole 18-state problem, relative to the largest
        # entry; measured up to 8.6e-13 at the nominal parameters
        Q, R = default_weights()
        for beta_deg in (0, 30, 60, 83):
            for spin in (0.0, 1.0, 1.5):
                beta = DEG(beta_deg)
                spec, _, _ = build_equilibrium(beta, spin * omega_star(beta, params), params)
                model = linearize(spec, params)
                g = synthesize(spec, params)
                for solver in (solve_care, reference_solve_care):
                    P_ref = solver(model.A, model.B, Q, R)
                    K_ref = np.linalg.solve(R, model.B.T @ P_ref)
                    assert_allclose(g.P, P_ref, rtol=0, atol=tol * np.abs(P_ref).max())
                    assert_allclose(g.K, K_ref, rtol=0, atol=tol * np.abs(K_ref).max())

    def test_solves_one_8_and_one_10_state_block(self, monkeypatch):
        sizes = []

        def counted(A, B, Q, R):
            sizes.append((A.shape, B.shape, Q.shape, R.shape))
            return solve_care(A, B, Q, R)

        monkeypatch.setattr(lqr, "solve_care", counted)
        beta = DEG(60)
        synthesize(build_equilibrium(beta, omega_star(beta, P), P)[0], P)
        assert sizes == [((8, 8), (8, 3), (8, 8), (3, 3)), ((10, 10), (10, 3), (10, 10), (3, 3))]

    @pytest.mark.parametrize("matrix, entry, name", [
        ("A", (3, 7), "S A - A S"), ("A", (0, 2), "S A - A S"), ("B", (11, 4), "S B - B S_U")])
    def test_broken_mirror_symmetry_refused_before_any_solve(self, monkeypatch, matrix, entry, name):
        # one entry moved by one part in 1e12 (at a zero entry, by 1e-12)
        # breaks the exact commutation that the split into blocks rests on;
        # the commutator's largest entry is that change, up to rounding
        beta = DEG(60)
        spec, _, _ = build_equilibrium(beta, omega_star(beta, P), P)
        model = linearize(spec, P)
        M = getattr(model, matrix).copy()
        step = 1e-12 * max(abs(M[entry]), 1.0)
        M[entry] += step

        def no_solve(*args):
            raise AssertionError("solve_care called")

        monkeypatch.setattr(lqr, "linearize",
                            lambda eq, params: dataclasses.replace(model, **{matrix: M}))
        monkeypatch.setattr(lqr, "solve_care", no_solve)
        with pytest.raises(SynthesisError) as refused:
            synthesize(spec, P)
        found = re.fullmatch(rf"design model breaks the mirror symmetry: {name} is (\S+) "
                             r"at \(\d+, \d+\)", str(refused.value))
        assert found and abs(float(found[1])) == pytest.approx(step, rel=1e-2)

    @given(beta_deg=st.floats(0.0, 89.0), spin=st.floats(0.0, 1.5))
    def test_envelope_closed_loop_hurwitz(self, beta_deg, spin):
        beta = DEG(beta_deg)
        spec, _, _ = build_equilibrium(beta, spin * omega_star(beta, P), P)
        g = synthesize(spec, P)
        model = linearize(spec, P)
        assert abscissa(model.A - model.B @ g.K) < 0.0
        assert g.care_residual < 1e-8

    @given(beta_deg=st.floats(0.0, 89.0), spin=st.floats(0.0, 1.5),
           m_p=st.floats(0.8, 1.2), k_T=st.floats(0.7, 1.3), tau_att=st.floats(0.8, 1.2))
    @example(beta_deg=0.0, spin=0.0, m_p=1.0, k_T=1.0, tau_att=1.0)
    @example(beta_deg=89.0, spin=1.5, m_p=1.2, k_T=0.7, tau_att=0.8)
    def test_block_checks_match_full_matrices(self, beta_deg, spin, m_p, k_T, tau_att):
        # the PSD and Hurwitz checks run on the mirror blocks: the union of
        # the blocks' closed-loop spectra is that of A - BK, and the blocks'
        # smallest P eigenvalue is P's. Over 9000 draws on the default,
        # Sandybridge and Prescott OpenBLAS kernels, eigenvalues matched
        # within 5.4e-14 of the largest |eigenvalue| and the smallest P
        # eigenvalue within 5.2e-16 of P's largest
        params = SystemParams(m_p=m_p * P.m_p, k_T=k_T * P.k_T, tau_att=tau_att * P.tau_att)
        beta = DEG(beta_deg)
        spec, _, _ = build_equilibrium(beta, spin * omega_star(beta, params), params)
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = record_gufunc_calls(monkeypatch)
            g = synthesize(spec, params)
        blocks = {name: np.concatenate([outs[0] for n, _, outs in calls if n == name])
                  for name in ("_eigvals", "_eigvalsh")}
        model = linearize(spec, params)
        spectrum = np.linalg.eigvals(model.A - model.B @ g.K)
        distance = np.abs(spectrum[:, None] - blocks["_eigvals"][None, :])
        assert distance[linear_sum_assignment(distance)].max() <= 2e-13 * np.abs(spectrum).max()
        eigs_P = np.linalg.eigvalsh(g.P)
        assert abs(blocks["_eigvalsh"].min() - eigs_P.min()) <= 4e-15 * eigs_P.max()

    @pytest.mark.parametrize("name, message", [
        ("_eigvalsh", "Riccati solution not PSD (min eig nan)"),
        ("_eigvals", "closed loop not Hurwitz (abscissa nan)")])
    def test_failed_check_refused(self, monkeypatch, name, message):
        # a failed LAPACK call fills its output with NaN, here the 10-state
        # block's: the check refuses it, the other block's finite values
        # notwithstanding
        gufunc = getattr(lqr, name)

        def failing(a, signature):
            out = gufunc(a, signature=signature)
            return np.full_like(out, np.nan) if len(a) == 10 else out

        monkeypatch.setattr(lqr, name, failing)
        beta = DEG(60)
        with pytest.raises(SynthesisError) as refused:
            synthesize(build_equilibrium(beta, omega_star(beta, P), P)[0], P)
        assert str(refused.value) == message
