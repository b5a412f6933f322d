"""Linearization about a rotating equilibrium and LQR gain synthesis.

The regulator model lives in the rotating control frame C with state

    s = [x_p, v_p, x_1, v_1, x_2, v_2]  in R^18   (C-frame components,
                                                   positions relative to the
                                                   frame origin on the axis)
    u = [T_1, T_2]                      in R^6    (thrust vectors, C frame)

The operating point (s_bar, u_bar) is read from the
:class:`~spinlift.model.EquilibriumSpec` that
:func:`spinlift.equilibrium.build_equilibrium` made; this module does not
rebuild any of its geometry. The earth-frame accelerations a_E are the truth
model's (:mod:`spinlift.dynamics`), unilateral ropes included (taut at every
design point), with two simplifications: commanded thrust is applied directly
(the actuation lag is an inner-loop detail excluded from the design model)
and drag is left out. They are mapped into the frame rotating at constant
omega via

    v_E = v_C + w x x_C,
    a_C = a_E - 2 w x v_C - w x (w x x_C),        w = omega_C * z_hat,

written out on Python floats as the nonzero terms of these cross products.

A and B come from central finite differences of this model, whose 49
evaluations (the base point, then +-``_FD_STEP`` in each of the 24
coordinates) are one call of a design pass compiled from the stepper
template's rope, vehicle and payload blocks, without drag terms. A
perturbation recomputes only the blocks it reaches, its vehicle's for a
vehicle's states and thrust and both for the payload's, and takes the rest
from the base point: the rows are bit for bit those of the whole model.
The gain solves the continuous-time LQR problem with position-only state
weights Q_x = diag(5,5,5), Q_v = 0 per body and R = diag(1.2, 1.2, 1) per
vehicle. The vehicles sit diametrically opposite on the spin circle, so the
mirror map ``S`` (rotation by pi about the spin axis with the vehicles
swapped; ``S_U`` on the thrusts) commutes with A, B, Q and R. In its
symmetric and antisymmetric coordinates the problem splits into an 8-state
and a 10-state one (Massioni & Verhaegen, "Distributed control for identical
dynamically coupled systems: a decomposition approach", IEEE TAC 54, 2009).
Each block's Riccati equation is solved by Potter's eigenvector method
(Potter, "Matrix quadratic solutions", SIAM J. Appl. Math. 14, 1966) on numpy
alone, and the gain's PSD and Hurwitz checks run on the blocks too. Every
LAPACK call goes to the gufunc behind the public numpy.linalg function
(``eig``, ``solve``, ``eigvalsh``, ``eigvals``) without that function's
Python wrapper; :func:`solve_care` says which checks guard the solve, and
:func:`synthesize` how the blocks are joined.
"""

from __future__ import annotations

import math
import sys
import textwrap
from dataclasses import dataclass
from itertools import chain

import numpy as np
# numpy.linalg's eig, eigvals, eigvalsh and solve wrap these LAPACK gufuncs
# in 4 to 15 us of Python per call (dtype and shape checks, an errstate with
# a raising callback, result casts), and a synthesis makes twelve calls. This
# module calls the gufuncs with the wrappers' signatures and refuses their
# NaN-filled failures itself; tests/test_lqr.py pins each call bit for bit
# against its public counterpart, so a numpy that changes the private module
# fails there.
from numpy.linalg import _umath_linalg

from .dynamics import _STATE, _compile, _derivative
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
    "S",
    "S_U",
]

# Unused here: kept because the benchmark tracer (``perfbench/tracing.py``)
# swaps this name; nothing in this module reads it.
scipy = None

N_STATE = 18

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

    K: np.ndarray            # (6, 18) feedback gain, exactly equivariant: S_U' K S == K
    P: np.ndarray            # (18, 18) Riccati solution, symmetric PSD
    care_residual: float     # Frobenius norm of the Riccati defect


# The design pass: rows[0] is the derivative at z = (s, u), rows 1 + 2j and
# 2 + 2j those at z +- h e_j. Perturbed points use the names suffixed _d; the
# loop over each group of columns first sets them, and both pulls, to their
# base values. It is evaluated at theta = 0 (C axes along E's), which is
# general because the physics is invariant under rotation about the vertical.
_DESIGN = """\
def bind(ell, g, k_T, c_T, inv_mq, inv_mp):
    def design(s, u, w, h):
        {state} = s
        {thrust} = u
        mw = -w
{base}
        rows = [bp + b1 + b2] + [None] * 48
        base = {names}, f1x, f1y, f1z, f2x, f2y, f2z
{groups}
        return rows

    return design
"""
# Earth-frame velocity and C-frame derivative of body b, written out.
_VELOCITY = ("v{b}x{s} = c{b}x{s} + x{b}y{s} * mw\n"
             "v{b}y{s} = c{b}y{s} + x{b}x{s} * w\nv{b}z{s} = c{b}z{s}\n")
_RATES = ("c{b}x{s}, c{b}y{s}, c{b}z{s}, a{b}x{s} - 2.0 * c{b}y{s} * mw - x{b}x{s} * w * mw, "
          "a{b}y{s} - 2.0 * c{b}x{s} * w - x{b}y{s} * mw * w, a{b}z{s}")
# The design model's 24 inputs: the stepper's names, C-frame velocities c* for v*.
_Z_NAMES = [q.replace("v", "c", 1) for q in _STATE]


def _design_pass() -> tuple[str, str]:
    """File name and source of the design pass."""
    z = _Z_NAMES
    names = [f"{q}{b}{a}" for b in "p12" for q in "xcv" for a in "xyz"] + z[N_STATE:]
    base = "".join(_VELOCITY.format(b=b, s="") for b in "p12") + _derivative("", False)
    base += "bp, b1, b2 = " + ", ".join(f"[{_RATES.format(b=b, s='')}]" for b in "p12") + "\n"
    groups = ""
    for moved, bodies in (("1", "1p"), ("2", "2p"), ("p", "12p")):
        cols = [j for j, name in enumerate(z) if name[1] == moved]
        points = "".join(f"    ({row}, {', '.join(z[k] + op * (k == j) for k in cols)}),\n"
                         for j in cols for row, op in ((1 + 2 * j, " + h"), (2 + 2 * j, " - h")))
        rows = ", ".join(_RATES.format(b=b, s="_d") if b in bodies else f"*b{b}" for b in "p12")
        groups += (f"{', '.join(n + '_d' for n in names)}, f1x, f1y, f1z, f2x, f2y, f2z = base\n"
                   f"for j, {', '.join(z[k] + '_d' for k in cols)} in (\n{points}):\n"
                   + textwrap.indent(_VELOCITY.format(b=moved, s="_d") + _derivative(
                       "_d", False, bodies) + f"rows[j] = [{rows}]\n", "    "))
    return "<spinlift.lqr design pass>", _DESIGN.format(
        state=", ".join(z[:N_STATE]), thrust=", ".join(z[N_STATE:]), names=", ".join(names),
        base=textwrap.indent(base, " " * 8), groups=textwrap.indent(groups, " " * 8))


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
    """Central-difference A, B of the control-frame model at the equilibrium,
    from the 49 rows of one call of the design pass.

    Refuses to linearize if the supplied point is not a fixed point of the
    model: residual above :func:`_equilibrium_tolerance`.
    """
    design = _compile(_design_pass)(ell=params.ell, g=params.g, k_T=params.k_T, c_T=params.c_T,
                                    inv_mq=1.0 / params.m_q, inv_mp=1.0 / params.m_p)
    rows = np.fromiter(chain.from_iterable(design(eq.s_bar, eq.u_bar, eq.omega_C, _FD_STEP)),
                       float, 49 * N_STATE).reshape(49, N_STATE)
    residual = float(np.linalg.norm(rows[0]))
    tol = _equilibrium_tolerance(eq, params)
    if residual > tol:
        raise LinearizationError(
            f"operating point is not an equilibrium: derivative norm "
            f"{residual:.3e} exceeds {tol:.3g}")
    J_t = (rows[1::2] - rows[2::2]) / (2.0 * _FD_STEP)  # row j: column j of J
    return LinearModel(A=J_t[:N_STATE].T.copy(), B=J_t[N_STATE:].T.copy())


# The gufuncs, under names the tests can replace. Each runs LAPACK in double
# precision, as numpy.linalg does. On a LAPACK failure it fills its outputs
# with NaN and raises the floating-point invalid flag: the callers below
# ignore the flag under an errstate and refuse the NaN themselves.
_eig, _eigvals, _eigvalsh = _umath_linalg.eig, _umath_linalg.eigvals, _umath_linalg.eigvalsh_lo
_solve = _umath_linalg.solve


def _singular(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> bool:
    """Whether LAPACK refused the solve a x = b as exactly singular: the
    gufunc then fills x with NaN, and for finite a and b only then."""
    return bool(x.size and np.isnan(x).all() and np.isfinite(a).all() and np.isfinite(b).all())


def care_residual_norm(A, B, Q, R, P) -> float:
    """Frobenius norm of A'P + PA - P B R^-1 B' P + Q; an exactly singular R
    raises ``numpy.linalg.LinAlgError``."""
    with np.errstate(all="ignore"):
        RiBt = _solve(R, B.T, signature="dd->d")
        defect = A.T @ P + P @ A - P @ B @ RiBt @ P + Q
    residual = float(np.linalg.norm(defect, "fro"))
    if math.isnan(residual) and _singular(RiBt, R, B.T):
        raise np.linalg.LinAlgError("Singular matrix")
    return residual


def solve_care(A: np.ndarray, B: np.ndarray, Q: np.ndarray,
               R: np.ndarray) -> np.ndarray:
    """Stabilizing solution of A'P + PA - P B R^-1 B' P + Q = 0, symmetrized.

    Potter's eigenvector method on the Hamiltonian
    H = [[A, -B R^-1 B'], [-Q, -A']]: LAPACK's ``dgeev``, through the gufunc
    behind ``numpy.linalg.eig``, balances H first (a stiff tether puts
    entries of 1e10 beside entries of order 1), and with V the eigenvectors
    of its n eigenvalues of negative real part, P = Re(V_21 V_11^-1), from
    the gufunc behind ``numpy.linalg.solve``. As ``numpy.linalg.eig`` does,
    the eigenvectors are taken as real when every eigenvalue is, so that
    the real solve runs. Too few stable eigenvalues, an exactly singular
    V_11 or R, a LAPACK failure, NaN, inf or a mismatched shape raises
    :class:`SynthesisError`, with numpy's messages for the failures
    ("Singular matrix", "Eigenvalues did not converge"); an unstabilizable
    pair need not (an unreachable undamped oscillator that Q weighs gives a
    nearly singular V_11 and a finite P of about 7e7). Eigenvectors lose
    accuracy as H nears a defective matrix (Laub, IEEE TAC 24, 1979, whose
    Schur method the tests keep as the reference), so :func:`synthesize`
    refuses a P that is not PSD or a K that does not make A - BK Hurwitz
    (which refuses that P), and reports the Riccati residual.
    """
    n = A.shape[0]
    try:
        with np.errstate(all="ignore"):
            RiBt = _solve(R, B.T, signature="dd->d")
            G = -B @ RiBt
            H = np.empty((2 * n, 2 * n))
            H[:n, :n], H[:n, n:], H[n:, :n], H[n:, n:] = A, G, -Q, -A.T
            # a slice assignment broadcasts, and LAPACK takes a NaN or inf unchecked
            if not (n and A.shape == Q.shape == G.shape == (n, n) and np.isfinite(H).all()):
                if _singular(RiBt, R, B.T):
                    raise np.linalg.LinAlgError("Singular matrix")
                raise ValueError(f"need finite, nonempty n x n A, Q and B R^-1 B' (n = {n})")
            eigenvalues, V = _eig(H, signature="d->DD")
            if np.isnan(eigenvalues[0]):  # a failed dgeev fills both outputs with NaN
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            if not eigenvalues.imag.any():  # real arrays, as numpy.linalg.eig returns them
                eigenvalues, V = eigenvalues.real, V.real
            stable = eigenvalues.real < 0.0
            if stable.sum() != n:
                raise SynthesisError(f"Riccati solve failed: the Hamiltonian has {stable.sum()} "
                                     f"stable eigenvalues of {2 * n}, needs {n}")
            P = _solve(V[:n, stable].T, V[n:, stable].T).T.real
        if not np.isfinite(P).all():
            raise np.linalg.LinAlgError("Singular matrix")
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SynthesisError(f"Riccati solve failed: {exc}") from exc
    return 0.5 * (P + P.T)


def default_weights() -> tuple[np.ndarray, np.ndarray]:
    """State and input weights: 5 on every position, 0 on every velocity, and
    diag(1.2, 1.2, 1) per vehicle thrust vector."""
    Q = np.diag([5.0, 5.0, 5.0, 0.0, 0.0, 0.0] * 3)
    R = np.diag([1.2, 1.2, 1.0, 1.2, 1.2, 1.0])
    return Q, R


# The mirror map: the rotation by pi about the spin axis (x, y -> -x, -y) with
# the vehicles swapped, on the state (S) and on the thrusts (S_U). At the
# rotating equilibrium the vehicles sit diametrically opposite, so S maps the
# operating point to itself and A S = S A, B S_U = S B.
_ROTATE_PI = np.diag([-1.0, -1.0, 1.0])
S = np.kron([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]], np.kron(np.eye(2), _ROTATE_PI))
S_U = np.kron([[0.0, 1.0], [1.0, 0.0]], _ROTATE_PI)


def _mirror_basis(mirror: np.ndarray) -> tuple[np.ndarray, int]:
    """Orthonormal rows spanning the signed permutation's +1 eigenspace, then
    its -1 eigenspace, and the number of +1 rows. Row i of I + mirror (of
    I - mirror) is e_i plus (minus) its image: each kept row is the first of
    its pair, and a coordinate that the map sends to minus (plus) itself has
    none."""
    eye = np.eye(len(mirror))
    rows = [row / np.linalg.norm(row) for block in (eye + mirror, eye - mirror)
            for i, row in enumerate(block) if row.any() and np.flatnonzero(row)[0] == i]
    return np.array(rows), round((len(mirror) + np.trace(mirror)) / 2)


# Symmetric coordinates: the payload's z position and velocity and the sums of
# vehicle 1's coordinates and those of vehicle 2's mirror image (8 states, 3
# inputs); antisymmetric: the payload's x and y and the differences (10
# states, 3 inputs). Q and R commute with the map too, so in these
# coordinates each weight is block-diagonal.
_T, _N_SYM = _mirror_basis(S)
_T_U, _N_SYM_U = _mirror_basis(S_U)
_BLOCKS = ((slice(0, _N_SYM), slice(0, _N_SYM_U)), (slice(_N_SYM, None), slice(_N_SYM_U, None)))
_Q, _R = default_weights()
_Q_BAR, _R_BAR = _T @ _Q @ _T.T, _T_U @ _R @ _T_U.T


def synthesize(eq: EquilibriumSpec, params: SystemParams) -> GainSet:
    """Linearize at the operating point and solve for the LQR gain with the
    :func:`default_weights` (velocity weights exactly zero).

    The design model must commute exactly with the mirror map (``S A ==
    A S`` and ``S B == B S_U``, compared by value), or
    :class:`SynthesisError` names the largest entry of the commutator. The
    Riccati equation is then solved in the orthonormal symmetric and
    antisymmetric coordinates, where it splits into an 8-state and a 10-state
    problem: two :func:`solve_care` calls, on a 16 x 16 and a 20 x 20
    Hamiltonian. P is mapped back, and K and the residual are those of the
    full 18-state problem. K is then replaced by 1/2 (K + S_U' K S): S_U and S
    are signed permutations and involutions, so this average is its own
    image bit for bit, and the gain is exactly equivariant (the rounding of
    the back-mapped P leaves K's image up to about 1 ulp away, and the
    average moves K by at most 2.2e-16 of its largest entry over 21 600
    design points). A closed loop that starts on the mirror subspace then stays
    on it, value for value, and :func:`spinlift.dynamics.simulate` steps it
    on half the state. A - BK commutes with the map too, so both checks
    run on the blocks, through the gufuncs behind ``numpy.linalg.eigvalsh``
    and ``eigvals``: P is PSD when the two blocks of P's image have no
    eigenvalue below -1e-10, and A - BK is Hurwitz when the diagonal blocks
    of ``_T (A - BK) _T'`` are. A NaN (a failed LAPACK call) fails either.
    """
    model = linearize(eq, params)
    A, B = model.A, model.B
    # ndarray.dot and count_nonzero: about half the call overhead of @ and
    # any() on these small matrices; a signed permutation's products are exact
    for name, defect in (("S A - A S", S.dot(A) - A.dot(S)),
                         ("S B - B S_U", S.dot(B) - B.dot(S_U))):
        if np.count_nonzero(defect):
            i, j = np.unravel_index(np.abs(defect).argmax(), defect.shape)
            raise SynthesisError(f"design model breaks the mirror symmetry: "
                                 f"{name} is {defect[i, j]:.3e} at ({i}, {j})")
    A_bar, B_bar = _T.dot(A).dot(_T.T), _T.dot(B).dot(_T_U.T)
    P_bar = np.zeros((N_STATE, N_STATE))
    for x, u in _BLOCKS:
        P_bar[x, x] = solve_care(A_bar[x, x], B_bar[x, u], _Q_BAR[x, x], _R_BAR[u, u])
    P = _T.T.dot(P_bar).dot(_T)
    P = 0.5 * (P + P.T)
    with np.errstate(all="ignore"):
        K = _solve(_R, B.T @ P, signature="dd->d")
        K = 0.5 * (K + S_U.T.dot(K).dot(S))
        residual = care_residual_norm(A, B, _Q, _R, P)
        closed_loop = _T.dot(A - B.dot(K)).dot(_T.T)
        min_eig = np.concatenate([_eigvalsh(P_bar[x, x], signature="d->d")
                                  for x, _ in _BLOCKS]).min()
        abscissa = np.concatenate([_eigvals(closed_loop[x, x], signature="d->D")
                                   for x, _ in _BLOCKS]).real.max()
    if not min_eig >= -1e-10:
        raise SynthesisError(f"Riccati solution not PSD (min eig {min_eig:.3e})")
    if not abscissa < 0.0:
        raise SynthesisError(f"closed loop not Hurwitz (abscissa {abscissa:.3e})")
    return GainSet(K=K, P=P, care_residual=residual)
