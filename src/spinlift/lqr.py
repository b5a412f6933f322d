"""Linearization about a rotating equilibrium and LQR gain synthesis.

The regulator model lives in the rotating control frame C with state

    s = [x_p, v_p, x_1, v_1, x_2, v_2]  in R^18   (C-frame components,
                                                   positions relative to the
                                                   frame origin on the axis)
    u = [T_1, T_2]                      in R^6    (thrust vectors, C frame)

The operating point (s_bar, u_bar) is read from the
:class:`~spinlift.model.EquilibriumSpec` that
:func:`spinlift.equilibrium.build_equilibrium` made; this module does not
rebuild any of its geometry. The earth-frame accelerations a_E come from the
truth model's right-hand side (:mod:`spinlift.dynamics`), unilateral ropes
included (taut at every design point), with two simplifications: commanded
thrust is applied directly (the actuation lag is an inner-loop detail excluded
from the design model) and drag is left out. They are mapped into the frame
rotating at constant omega via

    v_E = v_C + w x x_C,
    a_C = a_E - 2 w x v_C - w x (w x x_C),        w = omega_C * z_hat,

written out on Python floats as the nonzero terms of these cross products,
around the compiled ``rhs``: a synthesis evaluates the model 49 times, and on
3-vectors numpy's per-call overhead would cost twenty times the physics.

A and B come from central finite differences of this model; the gain solves
the continuous-time LQR problem with position-only state weights
Q_x = diag(5,5,5), Q_v = 0 per body and R = diag(1.2, 1.2, 1) per vehicle.
The Riccati equation is solved from the ordered real Schur form of the
balanced Hamiltonian (Laub 1979; Arnold & Laub 1984).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .dynamics import _make_rhs
from .model import EquilibriumSpec, SystemParams

__all__ = [
    "LinearizationError",
    "SynthesisError",
    "LinearModel",
    "GainSet",
    "linearize",
    "solve_care",
    "default_weights",
    "synthesize",
]

N_STATE = 18
N_INPUT = 6

_EQ_RESIDUAL_TOL = 1e-6
_EQ_ROUNDING_MARGIN = 16.0
_FD_STEP = 1e-6


class LinearizationError(RuntimeError):
    """The supplied operating point is not an equilibrium of the model."""


class SynthesisError(RuntimeError):
    """Riccati solve failed or its solution does not stabilize the loop."""


@dataclass(frozen=True, eq=False)
class LinearModel:
    """First-order model ds/dt = A (s - s_bar) + B (u - u_bar) near the
    operating point (``s_bar``/``u_bar`` of its :class:`EquilibriumSpec`)."""

    A: np.ndarray       # (18, 18)
    B: np.ndarray       # (18, 6)


@dataclass(frozen=True, eq=False)
class GainSet:
    """LQR synthesis output for one operating point."""

    K: np.ndarray            # (6, 18) feedback gain
    P: np.ndarray            # (18, 18) Riccati solution, symmetric PSD
    care_residual: float     # Frobenius norm of the Riccati defect


def _c_frame_model(params: SystemParams):
    """Control-frame dynamics f(s, u, omega_c) of the 18-state design model:
    sequences of 18 and 6 floats in, the 18-element derivative out.

    Evaluated at theta = 0 (frame axes aligned with E), which is general
    because the physics is invariant under rotation about the vertical axis.
    The tests keep the model's numpy matrix form as a reference.
    """
    rhs, _ = _make_rhs(replace(params, c_d_quad=0.0, c_d_payload=0.0))
    no_command = (0.0,) * 6  # the lag rates are not part of the design model

    def f(s, u, omega_c: float) -> np.ndarray:
        (xpx, xpy, xpz, vpx, vpy, vpz, x1x, x1y, x1z, v1x, v1y, v1z,
         x2x, x2y, x2z, v2x, v2y, v2z) = s
        w, mw = omega_c, -omega_c
        # earth-frame velocities v_C + w x x_C; u stands in for the actual thrusts
        a = rhs([xpx, xpy, xpz, vpx + xpy * mw, vpy + xpx * w, vpz,
                 x1x, x1y, x1z, v1x + x1y * mw, v1y + x1x * w, v1z,
                 x2x, x2y, x2z, v2x + x2y * mw, v2y + x2x * w, v2z, *u], no_command)
        # a_C = a_E - 2 w x v_C - w x (w x x_C), per body
        return np.array([
            vpx, vpy, vpz,
            a[3] - 2.0 * vpy * mw - xpx * w * mw, a[4] - 2.0 * vpx * w - xpy * mw * w, a[5],
            v1x, v1y, v1z,
            a[9] - 2.0 * v1y * mw - x1x * w * mw, a[10] - 2.0 * v1x * w - x1y * mw * w, a[11],
            v2x, v2y, v2z,
            a[15] - 2.0 * v2y * mw - x2x * w * mw, a[16] - 2.0 * v2x * w - x2y * mw * w, a[17]])

    return f


def _equilibrium_tolerance(eq: EquilibriumSpec, params: SystemParams) -> float:
    """Largest derivative norm accepted at an equilibrium: 1e-6, or 16 times
    the tether law's rounding scale eps * k_T * L_s / min(m_q, m_p) where a
    stiff rope makes that larger (the law rounds the stretched length L_s,
    and k_T / m scales that into accelerations). An exact equilibrium stays
    below 2.2 times the scale over k_T 2e3..1e12 N/m, masses 0.1..5 kg,
    beta 0..85 deg and both modes."""
    scale = sys.float_info.epsilon * params.k_T * eq.length / min(params.m_q, params.m_p)
    return max(_EQ_RESIDUAL_TOL, _EQ_ROUNDING_MARGIN * scale)


def linearize(eq: EquilibriumSpec, params: SystemParams) -> LinearModel:
    """Central-difference A, B of the control-frame model at the equilibrium.

    Refuses to linearize if the supplied point is not a fixed point of the
    model: residual above :func:`_equilibrium_tolerance`.
    """
    w = eq.omega_C
    f = _c_frame_model(params)
    residual = float(np.linalg.norm(f(eq.s_bar, eq.u_bar, w)))
    tol = _equilibrium_tolerance(eq, params)
    if residual > tol:
        raise LinearizationError(
            f"operating point is not an equilibrium: derivative norm "
            f"{residual:.3e} exceeds {tol:.3g}")

    step = _FD_STEP
    z_bar = [*eq.s_bar, *eq.u_bar]
    plus, minus = [], []
    for j in range(N_STATE + N_INPUT):
        zp = z_bar.copy()
        zm = z_bar.copy()
        zp[j] += step
        zm[j] -= step
        plus.append(f(zp[:N_STATE], zp[N_STATE:], w))
        minus.append(f(zm[:N_STATE], zm[N_STATE:], w))
    J_t = (np.array(plus) - np.array(minus)) / (2.0 * step)  # row j: column j of J
    return LinearModel(A=J_t[:N_STATE].T.copy(), B=J_t[N_STATE:].T.copy())


def _spectral_abscissa(M: np.ndarray) -> float:
    return float(np.max(np.real(np.linalg.eigvals(M))))


def care_residual_norm(A, B, Q, R, P) -> float:
    """Frobenius norm of A'P + PA - P B R^-1 B' P + Q."""
    RiBt = np.linalg.solve(R, B.T)
    defect = A.T @ P + P @ A - P @ B @ RiBt @ P + Q
    return float(np.linalg.norm(defect, "fro"))


def solve_care(A: np.ndarray, B: np.ndarray, Q: np.ndarray,
               R: np.ndarray) -> np.ndarray:
    """Stabilizing solution of A'P + PA - P B R^-1 B' P + Q = 0, symmetrized.

    Laub's Schur method on the Hamiltonian H = [[A, -B R^-1 B'], [-Q, -A']]:
    H is balanced by a diagonal similarity D (without it a stiff tether
    leaves P indefinite), its real Schur form is ordered with the stable
    eigenvalues first, and with V = D U[:, :n] the first n scaled Schur
    vectors, P = V_21 V_11^-1. A Hamiltonian without n stable eigenvalues
    (some on the imaginary axis), a singular V_11 (as an unstabilizable pair
    gives) or malformed input raises :class:`SynthesisError`;
    :func:`synthesize` checks the closed loop on its own.
    """
    n = A.shape[0]
    try:
        H = np.block([[A, -B @ np.linalg.solve(R, B.T)], [-Q, -A.T]])
        H, (scale, _) = scipy.linalg.matrix_balance(H, permute=False, separate=True)
        _, U, stable = scipy.linalg.schur(H, sort="lhp")
        if stable != n:
            raise SynthesisError(f"Riccati solve failed: the Hamiltonian has {stable} "
                                 f"stable eigenvalues of {2 * n}, needs {n}")
        V = scale[:, None] * U[:, :n]
        P = np.linalg.solve(V[:n].T, V[n:].T).T
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SynthesisError(f"Riccati solve failed: {exc}") from exc
    return 0.5 * (P + P.T)


def default_weights() -> tuple[np.ndarray, np.ndarray]:
    """State and input weights: 5 on every position, 0 on every velocity, and
    diag(1.2, 1.2, 1) per vehicle thrust vector."""
    Q = np.diag([5.0, 5.0, 5.0, 0.0, 0.0, 0.0] * 3)
    R = np.diag([1.2, 1.2, 1.0, 1.2, 1.2, 1.0])
    return Q, R


def synthesize(eq: EquilibriumSpec, params: SystemParams) -> GainSet:
    """Linearize at the operating point and solve for the LQR gain with the
    :func:`default_weights` (velocity weights exactly zero)."""
    model = linearize(eq, params)
    Q, R = default_weights()
    P = solve_care(model.A, model.B, Q, R)
    K = np.linalg.solve(R, model.B.T @ P)
    residual = care_residual_norm(model.A, model.B, Q, R, P)

    eigs_P = np.linalg.eigvalsh(P)
    if eigs_P.min() < -1e-10:
        raise SynthesisError(f"Riccati solution not PSD (min eig {eigs_P.min():.3e})")
    abscissa = _spectral_abscissa(model.A - model.B @ K)
    if abscissa >= 0.0:
        raise SynthesisError(f"closed loop not Hurwitz (abscissa {abscissa:.3e})")
    return GainSet(K=K, P=P, care_residual=residual)
