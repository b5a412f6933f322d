"""Shared domain types: physical parameters, states, frame rotation.

Conventions used throughout the package:

* E is the earth-fixed (inertial) frame, z up, gravity along -z.
* C is the control frame: origin at the payload setpoint, rotating about the
  shared vertical axis at rate omega_C; its orientation relative to E is a
  rotation by theta about z.
* All quantities are SI (m, s, kg, N, rad).
* 3-vectors are numpy float64 arrays of shape (3,).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ParamError",
    "ConfigError",
    "SystemParams",
    "EquilibriumSpec",
    "SystemState",
    "vec3",
    "rotation_c_to_e",
    "load_params",
    "params_to_text",
    "table_text",
]


class ParamError(ValueError):
    """A parameter violates one of its invariants; message names the field."""


class ConfigError(ValueError):
    """Config text could not be parsed; message carries the line number."""


def vec3(x: float, y: float, z: float) -> np.ndarray:
    return np.array([x, y, z], dtype=float)


def _as_vec3(v, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite, got {a}")
    return a


def rotation_c_to_e(theta: float) -> np.ndarray:
    """Rotation matrix mapping control-frame components to earth-frame ones.

    Right-handed rotation by ``theta`` about the vertical (z) axis.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class SystemParams:
    """Physical and simulation constants for the two-vehicle tethered system.

    All fields have config-file keys of the same name. Velocity-squared drag
    (``c_d_quad``, ``c_d_payload``) only acts when ``drag_enabled`` is true.
    """

    m_q: float = 0.7          # quadcopter mass [kg]
    m_p: float = 0.6          # payload mass [kg]
    ell: float = 1.0          # tether rest length [m]
    g: float = 9.81           # gravity magnitude [m/s^2]
    N_p: int = 4              # propellers per vehicle
    r_p: float = 0.1          # propeller radius [m]
    rho: float = 1.225        # air density [kg/m^3]
    k_T: float = 2000.0       # tether stiffness [N/m]
    c_T: float = 10.0         # tether damping [N*s/m]
    tau_att: float = 0.05     # thrust-direction lag time constant [s]
    drag_enabled: bool = False
    c_d_quad: float = 0.05    # quadratic drag coefficient, vehicle [N*s^2/m^2]
    c_d_payload: float = 0.02  # quadratic drag coefficient, payload [N*s^2/m^2]
    dt_physics: float = 5e-4  # integration step [s]
    f_ctrl: float = 50.0      # outer-loop control rate [Hz]

    def __post_init__(self):
        positive = [
            ("m_q", self.m_q), ("m_p", self.m_p), ("ell", self.ell),
            ("r_p", self.r_p), ("rho", self.rho), ("k_T", self.k_T),
            ("tau_att", self.tau_att), ("dt_physics", self.dt_physics),
            ("f_ctrl", self.f_ctrl),
        ]
        for name, value in positive:
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ParamError(f"{name} must be a positive finite number, got {value!r}")
        if not (isinstance(self.N_p, int) and self.N_p >= 1):
            raise ParamError(f"N_p must be an integer >= 1, got {self.N_p!r}")
        for name, value in [("c_T", self.c_T), ("g", self.g),
                            ("c_d_quad", self.c_d_quad),
                            ("c_d_payload", self.c_d_payload)]:
            if not (math.isfinite(value) and value >= 0):
                raise ParamError(f"{name} must be a nonnegative finite number, got {value!r}")
        dt_limit = self.dt_stability_limit
        if not self.dt_physics < dt_limit:
            raise ParamError(
                f"dt_physics={self.dt_physics} exceeds the stiff-tether stability "
                f"guard 2/sqrt(k_T/m_red) = {dt_limit:.6g} s"
            )
        if self.f_ctrl * self.dt_physics > 1.0 + 1e-12:
            raise ParamError(
                f"f_ctrl*dt_physics = {self.f_ctrl * self.dt_physics:.6g} > 1: "
                "need at least one physics step per control step"
            )

    @property
    def m_red(self) -> float:
        """Reduced mass of the vehicle/payload pair [kg]."""
        return self.m_q * self.m_p / (self.m_q + self.m_p)

    @property
    def dt_stability_limit(self) -> float:
        """Upper bound on dt_physics from the stiff tether stretch mode [s]."""
        return 2.0 / math.sqrt(self.k_T / self.m_red)


# Config keys, their python types, and one-line documentation (SI units).
_CONFIG_FIELDS: dict[str, tuple[type, str]] = {
    "m_q": (float, "quadcopter mass [kg]"),
    "m_p": (float, "payload mass [kg]"),
    "ell": (float, "tether rest length [m]"),
    "g": (float, "gravity magnitude [m/s^2]"),
    "N_p": (int, "propellers per vehicle"),
    "r_p": (float, "propeller radius [m]"),
    "rho": (float, "air density [kg/m^3]"),
    "k_T": (float, "tether stiffness [N/m]"),
    "c_T": (float, "tether damping [N*s/m]"),
    "tau_att": (float, "thrust-direction lag time constant [s]"),
    "drag_enabled": (bool, "quadratic drag toggle (true/false)"),
    "c_d_quad": (float, "vehicle drag coefficient [N*s^2/m^2]"),
    "c_d_payload": (float, "payload drag coefficient [N*s^2/m^2]"),
    "dt_physics": (float, "integration step [s]"),
    "f_ctrl": (float, "outer-loop control rate [Hz]"),
}

_TRUE_WORDS = {"true", "yes", "on", "1"}
_FALSE_WORDS = {"false", "no", "off", "0"}


def _parse_value(key: str, raw: str, lineno: int):
    kind = _CONFIG_FIELDS[key][0]
    raw = raw.strip()
    try:
        if kind is bool:
            low = raw.lower()
            if low in _TRUE_WORDS:
                return True
            if low in _FALSE_WORDS:
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind is int:
            return int(raw)
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: cannot parse value for {key}: {exc}") from None


def load_params(config_text: str) -> SystemParams:
    """Parse flat ``key = value`` config text into validated SystemParams.

    Lines starting with ``#`` (and trailing ``# ...`` comments) are ignored.
    Unknown keys are rejected by name; missing keys take their defaults.
    """
    values: dict[str, object] = {}
    unknown: list[str] = []
    for lineno, line in enumerate(config_text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _CONFIG_FIELDS:
            unknown.append(key)
            continue
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key}")
        values[key] = _parse_value(key, raw, lineno)
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))
    return SystemParams(**values)


def params_to_text(params: SystemParams) -> str:
    """Serialize params to config text; load_params round-trips it exactly."""
    lines = []
    for key, (kind, doc) in _CONFIG_FIELDS.items():
        value = getattr(params, key)
        if kind is bool:
            rendered = "true" if value else "false"
        else:
            rendered = repr(value)
        lines.append(f"{key} = {rendered}  # {doc}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class EquilibriumSpec:
    """One operating point, exactly as
    :func:`spinlift.equilibrium.build_equilibrium` computes it.

    ``s_bar`` (the regulator state of :mod:`spinlift.lqr`, positions relative
    to the frame origin) and ``u_bar`` (the feedforward thrusts) are tuples of
    Python floats in control-frame components; vehicle 1 is on the +x side.
    """

    beta: float                # tether angle from vertical [rad]
    omega_C: float             # control-frame spin rate [rad/s]
    length: float              # stretched tether length [m]
    s_bar: tuple[float, ...]   # 18: x_p, v_p, x_1, v_1, x_2, v_2, C frame
    u_bar: tuple[float, ...]   # 6: T_bar_1, T_bar_2, C frame [N]

    def __post_init__(self):
        if not 0.0 <= self.beta < math.pi / 2:
            raise ValueError(f"beta must be in [0, pi/2), got {self.beta}")
        for name, size in (("s_bar", 18), ("u_bar", 6)):
            value = tuple(map(float, getattr(self, name)))
            if len(value) != size or not all(map(math.isfinite, value)):
                raise ValueError(f"{name} must be {size} finite floats, got {value}")
            object.__setattr__(self, name, value)


# Flat state-vector layout used by the integrator and trajectory storage:
#   [0:3]   x_p   payload position, E frame [m]
#   [3:6]   v_p   payload velocity, E frame [m/s]
#   [6:9]   x_1   vehicle 1 position [m]
#   [9:12]  v_1   vehicle 1 velocity [m/s]
#   [12:15] x_2   vehicle 2 position [m]
#   [15:18] v_2   vehicle 2 velocity [m/s]
#   [18:21] T_act_1  actual (lagged) thrust vector, vehicle 1, E frame [N]
#   [21:24] T_act_2  actual thrust vector, vehicle 2 [N]
# The control-frame angle is not a state: it is the spin schedule's closed
# form theta(t), and every flight starts at t = 0 with theta = 0.
# Flat command layout, held by the simulator between control ticks:
#   [0:3]   T_cmd_1  commanded thrust vector, vehicle 1, E frame [N]
#   [3:6]   T_cmd_2  commanded thrust vector, vehicle 2, E frame [N]
STATE_DIM = 24


@dataclass(frozen=True, eq=False)
class SystemState:
    """Positions/velocities of payload and both vehicles plus thrust states.

    The validated form of a state at the API edges (a flight's initial
    state); the closed loop itself passes the flat vector. The fields are
    the eight 3-vectors of the flat layout, in its order."""

    x_p: np.ndarray
    v_p: np.ndarray
    x_1: np.ndarray
    v_1: np.ndarray
    x_2: np.ndarray
    v_2: np.ndarray
    T_act_1: np.ndarray
    T_act_2: np.ndarray

    def __post_init__(self):
        for name in ("x_p", "v_p", "x_1", "v_1", "x_2", "v_2", "T_act_1", "T_act_2"):
            object.__setattr__(self, name, _as_vec3(getattr(self, name), name))

    def as_vector(self) -> np.ndarray:
        """Flat length-24 copy in the layout documented above."""
        return np.concatenate([self.x_p, self.v_p, self.x_1, self.v_1,
                               self.x_2, self.v_2, self.T_act_1, self.T_act_2])

    @classmethod
    def from_vector(cls, y) -> "SystemState":
        y = np.asarray(y, dtype=float)
        if y.shape != (STATE_DIM,):
            raise ValueError(f"state vector must have shape ({STATE_DIM},), got {y.shape}")
        return cls(*y.reshape(8, 3))

    def replace(self, **changes) -> "SystemState":
        return replace(self, **changes)


def default_thrust_limit(params: SystemParams) -> float:
    """Default command saturation: four times a vehicle's own weight [N]."""
    return 4.0 * params.m_q * params.g


def table_text(header: str, rows) -> str:
    """CSV text: header line plus one line per row, cells written with
    ``repr`` (full precision for Python floats), newline-terminated.

    Rows must hold Python numbers: under numpy 2 the ``repr`` of a numpy
    scalar names its type (``np.float64(0.5)``)."""
    return "\n".join([header, *(",".join(map(repr, row)) for row in rows), ""])
