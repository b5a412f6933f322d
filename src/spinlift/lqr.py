"""Linearization about a rotating equilibrium and LQR gain synthesis.

The regulator model lives in the rotating control frame C with state

    s = [x_p, v_p, x_1, v_1, x_2, v_2]  in R^18   (C-frame components,
                                                   positions relative to the
                                                   frame origin on the axis)
    u = [T_1, T_2]                      in R^6    (thrust vectors, C frame)

The operating point (s_bar, u_bar) is read from the
:class:`~spinlift.model.EquilibriumSpec` that
:func:`spinlift.equilibrium.build_equilibrium` made; this module does not
rebuild any of its geometry. The earth-frame accelerations a_E come from the truth model's right-hand side
(:mod:`spinlift.dynamics`) with two simplifications: commanded thrust is
applied directly (the actuation lag is an inner-loop detail excluded from the
design model) and drag is left out. They are mapped into the frame rotating
at constant omega via

    a_C = a_E - 2 w x v_C - w x (w x x_C),        w = omega_C * z_hat.

A and B come from central finite differences of this model; the gain solves
the continuous-time LQR problem with position-only state weights
Q_x = diag(5,5,5), Q_v = 0 per body and R = diag(1.2, 1.2, 1) per vehicle.
The Riccati equation is solved by scipy's Schur method (Arnold & Laub 1984).
"""

from __future__ import annotations

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
    """Control-frame dynamics f(s, u, omega_c) of the 18-state design model.

    Evaluated at theta = 0 (frame axes aligned with E), which is general
    because the physics is invariant under rotation about the vertical axis.
    """
    rhs, _ = _make_rhs(replace(params, drag_enabled=False))

    def f(s, u, omega_c: float) -> np.ndarray:
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


def linearize(eq: EquilibriumSpec, params: SystemParams) -> LinearModel:
    """Central-difference A, B of the control-frame model at the equilibrium.

    Refuses to linearize if the supplied point is not a fixed point of the
    model (residual above 1e-6).
    """
    s_bar, u_bar = np.array(eq.s_bar), np.array(eq.u_bar)
    w = eq.omega_C
    f = _c_frame_model(params)
    residual = float(np.linalg.norm(f(s_bar, u_bar, w)))
    if residual > _EQ_RESIDUAL_TOL:
        raise LinearizationError(
            f"operating point is not an equilibrium: derivative norm "
            f"{residual:.3e} exceeds {_EQ_RESIDUAL_TOL:.0e}")

    z_bar = np.concatenate([s_bar, u_bar])
    J = np.empty((N_STATE, N_STATE + N_INPUT))
    for j in range(N_STATE + N_INPUT):
        zp = z_bar.copy()
        zm = z_bar.copy()
        zp[j] += _FD_STEP
        zm[j] -= _FD_STEP
        J[:, j] = (f(zp[:N_STATE], zp[N_STATE:], w)
                   - f(zm[:N_STATE], zm[N_STATE:], w)) / (2.0 * _FD_STEP)
    return LinearModel(A=J[:, :N_STATE].copy(), B=J[:, N_STATE:].copy())


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

    Uses scipy's Schur method; a pair (A, B) that is not stabilizable, or
    malformed input, raises :class:`SynthesisError`.
    """
    try:
        P = scipy.linalg.solve_continuous_are(A, B, Q, R)
    except ValueError as exc:
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
