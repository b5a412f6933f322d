"""Equilibrium operating points and the momentum-theory power model.

For a tether angle beta and control-frame spin rate omega_C, the planar force
balance of one vehicle (tension F pulling it toward the payload, thrust T at
tilt phi from vertical, circular motion at radius ell*sin(beta)) gives

    F         = m_p * g / (2 cos beta)
    T cos phi = m_p * g / 2 + m_q * g
    T sin phi = sin(beta) * (F - m_q * omega_C^2 * ell)

The analytic power model uses the rest length ell; the simulated operating
point (``build_equilibrium``) uses the stretched length ell + F/k_T at which
the spring carries F. Both come from ``thrust_components``, which
``feedforward`` turns into the controller's six C-frame thrusts. The spin rate
that zeroes the horizontal thrust component is

    omega_star = sqrt(m_p * g / (2 m_q * ell * cos beta))

at which the thrust is purely vertical and independent of beta. Hover power
per vehicle follows the actuator-disk relation P = T^{3/2} / (r_p *
sqrt(2 pi rho N_p)) with thrust shared equally by the N_p propellers; this
relation strictly applies to a non-translating rotor and is extended here
unchanged to the slowly translating rotating case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import EquilibriumSpec, SystemParams, SystemState, table_text, vec3

__all__ = [
    "SingularityError",
    "PowerReport",
    "SweepResult",
    "tension_at_equilibrium",
    "stretched_length",
    "thrust_components",
    "feedforward",
    "thrust_magnitude",
    "omega_star",
    "tilt_angle",
    "rotor_power",
    "power",
    "build_equilibrium",
    "sweep_beta",
    "sweep_omega",
    "sweep_to_csv",
    "DEFAULT_PAYLOAD_POSITION",
]

DEFAULT_PAYLOAD_POSITION = (0.0, 0.0, 1.5)


class SingularityError(ValueError):
    """Tether angle at or beyond 90 degrees: equilibrium tension diverges."""


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not (0.0 <= beta < math.pi / 2):
        raise SingularityError(
            f"beta must be in [0, 90) deg (the tension diverges at 90 deg), "
            f"got {math.degrees(beta):.6g} deg ({beta!r} rad)")
    return beta


def tension_at_equilibrium(beta: float, params: SystemParams) -> float:
    """Equilibrium tether tension m_p*g / (2 cos beta) [N]."""
    beta = _check_beta(beta)
    return params.m_p * params.g / (2.0 * math.cos(beta))


def omega_star(beta: float, params: SystemParams) -> float:
    """Spin rate making the required thrust purely vertical [rad/s].

    Well-defined at beta = 0 too, where the horizontal term already vanishes
    for every spin rate.
    """
    beta = _check_beta(beta)
    return math.sqrt(params.m_p * params.g / (2.0 * params.m_q * params.ell * math.cos(beta)))


def stretched_length(beta: float, params: SystemParams) -> float:
    """Tether length ell + F/k_T at which the spring carries the equilibrium
    tension [m]."""
    return params.ell + tension_at_equilibrium(beta, params) / params.k_T


def thrust_components(beta: float, omega_c: float, params: SystemParams,
                      length: float) -> tuple[float, float]:
    """(horizontal, vertical) components of the thrust per vehicle [N] that
    holds tether angle ``beta`` at spin rate ``omega_c`` with the vehicles
    ``length`` from the payload; horizontal is positive outward."""
    try:
        centripetal = params.m_q * omega_c ** 2 * length
    except OverflowError:
        centripetal = math.inf
    if not (omega_c >= 0.0 and centripetal < math.inf):
        raise ValueError(f"omega_C must be finite and nonnegative, with a finite "
                         f"centripetal force m_q * omega_C^2 * length; got {omega_c}")
    tension = tension_at_equilibrium(beta, params)
    horizontal = math.sin(beta) * (tension - centripetal)
    vertical = params.m_p * params.g / 2.0 + params.m_q * params.g
    return horizontal, vertical


def _vehicle_pair(x: float, z: float) -> tuple:
    """Vehicle 1's C-frame vector (x, 0, z), then vehicle 2's, its mirror
    image across the y-z plane: six floats."""
    return (x, 0.0, z, -x, 0.0, z)


def feedforward(beta: float, omega_c: float, params: SystemParams,
                length: float) -> tuple:
    """The six C-frame thrusts [T_bar_1, T_bar_2] [N] that hold tether angle
    ``beta`` at spin rate ``omega_c`` with the vehicles ``length`` from the
    payload. The geometry does not depend on the rate, so the controller
    schedules this with the instantaneous rate to stay on the equilibrium
    branch through the ramps; at a point's own rate it is its ``u_bar``."""
    return _vehicle_pair(*thrust_components(beta, omega_c, params, length))


def thrust_magnitude(beta: float, omega_c: float, params: SystemParams) -> float:
    """Thrust magnitude per vehicle required to hold the operating point [N]."""
    horizontal, vertical = thrust_components(beta, omega_c, params, params.ell)
    return math.hypot(vertical, horizontal)


def tilt_angle(beta: float, omega_c: float, params: SystemParams) -> float:
    """Thrust tilt from vertical [rad]; positive tilts outward, away from the
    spin axis. Zero at omega_star, negative (inward) beyond it."""
    horizontal, vertical = thrust_components(beta, omega_c, params, params.ell)
    return math.atan2(horizontal, vertical)


@dataclass(frozen=True)
class PowerReport:
    """Hover power at one operating point (both vehicles identical)."""

    T_per_vehicle: float  # [N]
    P_per_vehicle: float  # [W]
    P_total: float        # [W], both vehicles
    beta: float           # [rad]
    omega_C: float        # [rad/s]


def rotor_power(T, params: SystemParams):
    """Actuator-disk power [W] of one vehicle producing thrust magnitude T
    [N]; T may be a scalar or an array."""
    return T ** 1.5 / (params.r_p * math.sqrt(2.0 * math.pi * params.rho * params.N_p))


def power(T_per_vehicle: float, params: SystemParams,
          beta: float = math.nan, omega_c: float = math.nan) -> PowerReport:
    """Actuator-disk hover power for one vehicle's thrust, and the pair total.

    ``beta``/``omega_c`` are carried through for reporting; they do not enter
    the power relation.
    """
    T = float(T_per_vehicle)
    if not T >= 0.0:
        raise ValueError(f"thrust must be nonnegative, got {T}")
    try:
        p_vehicle = rotor_power(T, params)
    except OverflowError:
        raise ValueError(f"thrust {T!r} N overflows the power law T^1.5") from None
    return PowerReport(T_per_vehicle=T, P_per_vehicle=p_vehicle,
                       P_total=2.0 * p_vehicle, beta=beta, omega_C=omega_c)


def build_equilibrium(beta: float, omega_c: float, params: SystemParams
                      ) -> tuple[EquilibriumSpec, SystemState, list]:
    """Construct the full equilibrium triple for one operating point: the
    spec, the state, and the feedforward command as six floats [T_cmd_1,
    T_cmd_2] (the flat command layout of :mod:`spinlift.model`).

    The spin axis is vertical through ``DEFAULT_PAYLOAD_POSITION`` (the
    control-frame origin). Vehicles sit at the stretched tether length
    ell + F/k_T so the spring carries exactly the equilibrium tension, and
    :func:`feedforward` uses the centripetal term at that stretched radius,
    making the returned state an exact fixed point of the truth dynamics (the
    rigid rest-length value differs by ~0.15% at default stiffness). The
    frame angle of a flight's start is 0, so control-frame and earth-frame
    components coincide. No other module rebuilds this geometry.
    """
    beta = _check_beta(beta)
    length = stretched_length(beta, params)
    u_bar = feedforward(beta, omega_c, params, length)
    # vehicle positions relative to the payload, which sits at the origin
    r = _vehicle_pair(length * math.sin(beta), length * math.cos(beta))
    rest = (0.0, 0.0, 0.0)
    spec = EquilibriumSpec(beta=beta, omega_C=float(omega_c), length=length,
                           s_bar=(*rest, *rest, *r[0:3], *rest, *r[3:6], *rest),
                           u_bar=u_bar)

    origin = vec3(*DEFAULT_PAYLOAD_POSITION)
    # circular motion about the vertical axis: v = omega x r, and vehicle 2
    # moves opposite to vehicle 1
    v_1 = vec3(0.0, omega_c * r[0], 0.0)
    state = SystemState(
        x_p=origin, v_p=vec3(*rest),
        x_1=origin + r[0:3], v_1=v_1, x_2=origin + r[3:6], v_2=-v_1,
        T_act_1=vec3(*u_bar[0:3]), T_act_2=vec3(*u_bar[3:6]),
    )
    return spec, state, list(u_bar)


@dataclass(frozen=True)
class SweepResult:
    """Per-point power reports plus any per-point failures (value, message)."""

    reports: list[PowerReport]
    failures: list[tuple[float, str]]


def sweep_beta(beta_grid, mode: str, params: SystemParams) -> SweepResult:
    """Evaluate the power model over a tether-angle grid.

    ``mode`` is ``"static"`` (omega_C = 0) or ``"rotating_opt"`` (omega_C =
    omega_star(beta)). Singular grid points are recorded as failures and the
    sweep continues.
    """
    if mode not in ("static", "rotating_opt"):
        raise ValueError(f"mode must be 'static' or 'rotating_opt', got {mode!r}")
    reports: list[PowerReport] = []
    failures: list[tuple[float, str]] = []
    for beta in beta_grid:
        try:
            w = 0.0 if mode == "static" else omega_star(beta, params)
            T = thrust_magnitude(beta, w, params)
            reports.append(power(T, params, beta=float(beta), omega_c=w))
        except (SingularityError, ValueError) as exc:
            failures.append((float(beta), str(exc)))
    return SweepResult(reports=reports, failures=failures)


def sweep_omega(beta: float, omega_grid, params: SystemParams) -> SweepResult:
    """Evaluate the power model over a spin-rate grid at fixed tether angle."""
    reports: list[PowerReport] = []
    failures: list[tuple[float, str]] = []
    for w in omega_grid:
        try:
            T = thrust_magnitude(beta, float(w), params)
            reports.append(power(T, params, beta=float(beta), omega_c=float(w)))
        except (SingularityError, ValueError) as exc:
            failures.append((float(w), str(exc)))
    return SweepResult(reports=reports, failures=failures)


_SWEEP_HEADER = "beta_deg,omega_rad_s,T_vehicle_N,P_vehicle_W,P_total_W,tilt_deg,tension_N"


def sweep_to_csv(result: SweepResult, params: SystemParams) -> str:
    """CSV for sweep output, one row per successful grid point."""
    rows = ((math.degrees(rep.beta), rep.omega_C, rep.T_per_vehicle, rep.P_per_vehicle,
             rep.P_total, math.degrees(tilt_angle(rep.beta, rep.omega_C, params)),
             tension_at_equilibrium(rep.beta, params))
            for rep in result.reports)
    return table_text(_SWEEP_HEADER, rows)
