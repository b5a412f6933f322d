"""Shared domain types: parameters, operating point, flat state layouts.

Conventions used throughout the package:

* E is the earth-fixed (inertial) frame, z up, gravity along -z.
* C is the control frame: origin at the payload setpoint, rotating about the
  shared vertical axis at rate omega_C; its orientation relative to E is a
  rotation by theta about z.
* All quantities are SI (m, s, kg, N, rad).
* A state is the flat 24-float layout below (:class:`SystemState` checks one).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from itertools import islice

__all__ = [
    "ParamError",
    "ConfigError",
    "SystemParams",
    "EquilibriumSpec",
    "SystemState",
    "load_params",
    "params_to_text",
    "csv_line",
    "table_text",
]


class ParamError(ValueError):
    """A parameter violates one of its invariants; message names the field."""


class ConfigError(ValueError):
    """Config text could not be parsed; message carries the line number."""


def _finite_floats(values, size: int, name: str) -> tuple:
    """``values`` as ``size`` finite Python floats, or ValueError naming ``name``."""
    values = tuple(map(float, values))
    if len(values) != size or not all(map(math.isfinite, values)):
        raise ValueError(f"{name} must be {size} finite floats, got {values}")
    return values


def _finite_test(compare):
    """The test of a finite number, an int or float but not a bool, within
    float range, that ``compare``s true with 0."""
    def test(v):
        try:
            return (type(v) is not bool and isinstance(v, (int, float))
                    and math.isfinite(v) and compare(v, 0))
        except OverflowError:  # an int beyond float range
            return False
    return test


_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


def _bool_word(raw: str) -> bool:
    """The bool that a true/false word of config text (any case) names."""
    value = _BOOL_WORDS.get(raw.lower())
    if value is None:
        raise ValueError(f"not a boolean: {raw!r}")
    return value


# The rules on a SystemParams field: (message text, test of the value, kind
# that parses its config text and converts the number that params_to_text writes).
_POSITIVE = ("a positive finite number", _finite_test(operator.gt), float)
_NONNEGATIVE = ("a nonnegative finite number", _finite_test(operator.ge), float)
_COUNT = ("an integer >= 1", lambda v: type(v) is not bool and isinstance(v, int) and v >= 1, int)
_BOOL = ("a bool", lambda v: type(v) is bool, _bool_word)


def _param(default, doc: str, rule: tuple):
    """A SystemParams field: its default, its one-line config doc (SI units)
    and its rule."""
    return field(default=default, metadata={"doc": doc, "rule": rule})


@dataclass(frozen=True)
class SystemParams:
    """Physical and simulation constants for the two-vehicle tethered system.

    All fields have config-file keys of the same name, documented by their
    ``doc`` metadata and checked, parsed and written by their ``rule``. Velocity-squared drag
    (``c_d_quad``, ``c_d_payload``) only acts when ``drag_enabled`` is true.
    """

    m_q: float = _param(0.7, "quadcopter mass [kg]", _POSITIVE)
    m_p: float = _param(0.6, "payload mass [kg]", _POSITIVE)
    ell: float = _param(1.0, "tether rest length [m]", _POSITIVE)
    g: float = _param(9.81, "gravity magnitude [m/s^2]", _NONNEGATIVE)
    N_p: int = _param(4, "propellers per vehicle", _COUNT)
    r_p: float = _param(0.1, "propeller radius [m]", _POSITIVE)
    rho: float = _param(1.225, "air density [kg/m^3]", _POSITIVE)
    k_T: float = _param(2000.0, "tether stiffness [N/m]", _POSITIVE)
    c_T: float = _param(10.0, "tether damping [N*s/m]", _NONNEGATIVE)
    tau_att: float = _param(0.05, "thrust-direction lag time constant [s]", _POSITIVE)
    drag_enabled: bool = _param(False, "quadratic drag toggle (true/false)", _BOOL)
    c_d_quad: float = _param(0.05, "vehicle drag coefficient [N*s^2/m^2]", _NONNEGATIVE)
    c_d_payload: float = _param(0.02, "payload drag coefficient [N*s^2/m^2]", _NONNEGATIVE)
    dt_physics: float = _param(5e-4, "integration step [s]", _POSITIVE)
    f_ctrl: float = _param(50.0, "outer-loop control rate [Hz]", _POSITIVE)

    def __post_init__(self):
        for f in fields(self):
            value, rule = getattr(self, f.name), f.metadata["rule"]
            if not rule[1](value):
                raise ParamError(f"{f.name} must be {rule[0]}, got {value!r}")
        try:
            rotor = self.rotor_constant
        except OverflowError:  # N_p too large to convert to float
            rotor = math.inf
        if not (0.0 < rotor < math.inf and 1.0 / rotor < math.inf):
            raise ParamError(f"r_p, rho and N_p give the rotor constant r_p*sqrt(2*pi*rho*N_p) "
                             f"= {rotor:.6g}; it and its reciprocal must be finite and positive")
        dt_limit = self.dt_stability_limit
        if not self.dt_physics < dt_limit:
            raise ParamError(
                f"dt_physics={self.dt_physics} exceeds the stiff-tether stability "
                f"guard 2/sqrt(k_T/m_red) = {dt_limit:.6g} s"
            )
        # a control period spans a whole number of physics steps; dividing in
        # turn cannot divide by zero, whereas f_ctrl*dt_physics can underflow
        steps = 1.0 / self.f_ctrl / self.dt_physics
        if not (0.5 < steps < math.inf and abs(steps - round(steps)) <= 1e-9):
            raise ParamError(
                f"1/(f_ctrl*dt_physics) = {steps:.6g} must be a positive "
                "integer for exact zero-order hold alignment")

    @property
    def m_red(self) -> float:
        """Reduced mass of the vehicle/payload pair [kg]."""
        return self.m_q * self.m_p / (self.m_q + self.m_p)

    @property
    def dt_stability_limit(self) -> float:
        """Upper bound on dt_physics from the stiff tether stretch mode [s]."""
        return 2.0 / math.sqrt(self.k_T / self.m_red)

    @property
    def rotor_constant(self) -> float:
        """r_p * sqrt(2 pi rho N_p), the actuator-disk power law's divisor [kg^0.5 m^-0.5]."""
        return self.r_p * math.sqrt(2.0 * math.pi * self.rho * self.N_p)


def load_params(config_text: str) -> SystemParams:
    """Parse flat ``key = value`` config text into validated SystemParams.

    Lines starting with ``#`` (and trailing ``# ...`` comments) are ignored.
    Unknown keys are rejected by name; missing keys take their defaults.
    """
    kinds = {f.name: f.metadata["rule"][2] for f in fields(SystemParams)}
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
        if key not in kinds:
            unknown.append(key)
            continue
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key}")
        try:
            values[key] = kinds[key](raw.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: cannot parse value for {key}: {exc}") from None
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))
    return SystemParams(**values)


def params_to_text(params: SystemParams) -> str:
    """Serialize params to config text that load_params reads back equal.
    Each number is written as its rule's kind: an int in a float field as its
    float, which is equal while the int fits in 53 bits."""
    lines = []
    for f in fields(SystemParams):
        value, rule = getattr(params, f.name), f.metadata["rule"]
        rendered = ("true" if value else "false") if rule is _BOOL else repr(rule[2](value))
        lines.append(f"{f.name} = {rendered}  # {f.metadata['doc']}")
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
            object.__setattr__(self, name, _finite_floats(getattr(self, name), size, name))


# Flat state layout, the only form of a state in the package:
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


class SystemState(tuple):
    """A state in the flat layout above, validated: a tuple of 24 finite
    Python floats. :func:`spinlift.equilibrium.build_equilibrium` returns one,
    and :func:`spinlift.dynamics.simulate` checks a flight's initial state
    into one; build it with :meth:`from_vector`."""

    __slots__ = ()

    @classmethod
    def from_vector(cls, y) -> "SystemState":
        """The state held in ``y``, any sequence of 24 finite numbers; a wrong
        length or a non-finite entry raises ValueError."""
        return tuple.__new__(cls, _finite_floats(y, STATE_DIM, "state vector"))


def default_thrust_limit(params: SystemParams) -> float:
    """Default command saturation: four times a vehicle's own weight [N]."""
    return 4.0 * params.m_q * params.g


# Lines per block of table_text: about 2 MB of text at 28 full-precision cells.
_BLOCK_ROWS = 4096


def csv_line(row) -> str:
    """One CSV line of Python numbers, each cell its ``repr`` (full precision;
    under numpy 2 a numpy scalar's ``repr`` names its type)."""
    return ",".join(map(repr, row))


def table_text(header: str, lines) -> str:
    """The text of every CSV table: the header line, then ``lines`` (strings
    without their newline, most often :func:`csv_line` of a row),
    newline-terminated. ``lines`` is read once, one block of
    ``_BLOCK_ROWS`` at a time, each block joined into one string before the
    next is read: no list of every line exists, and the returned text is the
    only full-size string."""
    lines = iter(lines)
    blocks = [header]
    while block := list(islice(lines, _BLOCK_ROWS)):
        blocks.append("\n".join(block))
    blocks.append("")
    return "\n".join(blocks)
