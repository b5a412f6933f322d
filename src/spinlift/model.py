"""Shared domain types: parameters, operating point, flat state layouts; and
the one CSV table writer, :func:`table_text`, with the one renderer of its float
cells, :func:`column_lines`.

Conventions used throughout the package:

* E is the earth-fixed (inertial) frame, z up, gravity along -z.
* C is the control frame: origin at the payload setpoint, rotating about the
  shared vertical axis at rate omega_C; its orientation relative to E is a
  rotation by theta about z.
* All quantities are SI (m, s, kg, N, rad).
* A state is the flat 24-float layout below (:class:`SystemState` checks one).
"""

from __future__ import annotations

import cmath
import math
import operator
import os
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "ParamError",
    "ConfigError",
    "SystemParams",
    "EquilibriumSpec",
    "SystemState",
    "load_params",
    "params_to_text",
    "rk4_stages",
    "column_lines",
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


def _finite_number(v) -> bool:
    """Whether ``v`` is a finite number: an int or float but not a bool,
    within float range."""
    try:
        return type(v) is not bool and isinstance(v, (int, float)) and math.isfinite(v)
    except OverflowError:  # an int beyond float range
        return False


def _finite_test(compare):
    """The test of a finite number that ``compare``s true with 0."""
    return lambda v: _finite_number(v) and compare(v, 0)


# The rules on a SystemParams field: (message text, test of the value, kind
# that parses its config text and converts the number that params_to_text writes).
_POSITIVE = ("a positive finite number", _finite_test(operator.gt), float)
_NONNEGATIVE = ("a nonnegative finite number", _finite_test(operator.ge), float)
_COUNT = ("an integer >= 1", lambda v: type(v) is not bool and isinstance(v, int) and v >= 1, int)


def _param(default, doc: str, rule: tuple):
    """A SystemParams field: its default, its one-line config doc (SI units)
    and its rule."""
    return field(default=default, metadata={"doc": doc, "rule": rule})


@dataclass(frozen=True)
class SystemParams:
    """Physical and simulation constants for the two-vehicle tethered system.

    All fields have config-file keys of the same name, documented by their
    ``doc`` metadata and checked, parsed and written by their ``rule``.
    Velocity-squared drag acts on each body whose coefficient (``c_d_quad``,
    ``c_d_payload``) is nonzero; both are zero by default.
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
    c_d_quad: float = _param(0.0, "vehicle drag coefficient [N*s^2/m^2]", _NONNEGATIVE)
    c_d_payload: float = _param(0.0, "payload drag coefficient [N*s^2/m^2]", _NONNEGATIVE)
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
        for mode, rate in self.linear_modes:
            gain = abs(rk4_stages(self.dt_physics, rate)[3])
            if not gain <= 1.0:
                lam = f"{rate.real:.6g}" + (f" +- {abs(rate.imag):.6g}i" if rate.imag else "")
                rope = "" if mode == "thrust-lag mode" else (
                    " (the bound does not depend on the tether angle beta: no angle is accepted)")
                raise ParamError(
                    f"dt_physics={self.dt_physics} makes RK4 amplify the {mode}, "
                    f"lambda = {lam} 1/s, by |R(dt_physics * lambda)| = {gain:.6g} per step; "
                    f"the largest accepted value is 1{rope}")
        # a control period spans a whole number of physics steps; dividing in
        # turn cannot divide by zero, whereas f_ctrl*dt_physics can underflow
        steps = 1.0 / self.f_ctrl / self.dt_physics
        if not (0.5 < steps < math.inf and abs(steps - round(steps)) <= 1e-9):
            raise ParamError(
                f"1/(f_ctrl*dt_physics) = {steps:.6g} must be a positive "
                "integer for exact zero-order hold alignment")

    @property
    def m_red(self) -> float:
        """Reduced mass of the vehicle/payload pair [kg], one of the masses
        of :attr:`linear_modes`."""
        return self.m_q * self.m_p / (self.m_q + self.m_p)

    @property
    def linear_modes(self) -> list:
        """``(name, lambda)`` of each linear mode e' = lambda e that the
        parameters alone fix, lambda complex [1/s]: the thrust lag, -1/tau_att,
        and both roots of m s^2 + c_T s + k_T, the damped stretch of a rope,
        for m = m_red (one vehicle and the payload) and for
        m = 1/(1/m_q + 2/m_p) (both ropes stretching together at beta = 0, the
        smallest effective mass at any tether angle)."""
        modes = [("thrust-lag mode", complex(-1.0 / self.tau_att))]
        for name, m in (("tether-stretch mode at m = m_red", self.m_red),
                        ("tether-stretch mode at m = 1/(1/m_q + 2/m_p)",
                         1.0 / (1.0 / self.m_q + 2.0 / self.m_p))):
            root = cmath.sqrt(self.c_T * self.c_T - 4.0 * m * self.k_T)
            modes += [(name, (-self.c_T + sign * root) / (2.0 * m)) for sign in (1.0, -1.0)]
        return modes

    @property
    def rotor_constant(self) -> float:
        """r_p * sqrt(2 pi rho N_p), the actuator-disk power law's divisor [kg^0.5 m^-0.5]."""
        return self.r_p * math.sqrt(2.0 * math.pi * self.rho * self.N_p)


def rk4_stages(dt: float, rate: complex) -> tuple:
    """RK4's stages ``(c2, c3, c4, c5)`` on a linear mode e' = rate * e from
    e = 1 over one step of size dt: the stage values c2, c3 and c4 and the
    update c5 = R(dt * rate), with R RK4's stability function
    1 + z + z^2/2 + z^3/6 + z^4/24, the factor by which one step multiplies
    the mode. The stepper moves each thrust by these at rate -1/tau_att
    (:func:`spinlift.dynamics._bind`), and :class:`SystemParams` refuses a
    step at which |c5| > 1 on any of its :attr:`~SystemParams.linear_modes`:
    on the negative real axis the step is stable for -2.785 <= dt * rate <= 0
    (Hairer & Wanner, Solving ODEs II, sec. IV.2)."""
    c2 = 1.0 + 0.5 * dt * rate
    c3 = 1.0 + 0.5 * dt * rate * c2
    c4 = 1.0 + dt * rate * c3
    return c2, c3, c4, 1.0 + dt / 6.0 * rate * (1.0 + 2.0 * (c2 + c3) + c4)


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
    return "".join(f"{f.name} = {f.metadata['rule'][2](getattr(params, f.name))!r}"
                   f"  # {f.metadata['doc']}\n" for f in fields(SystemParams))


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


# Flat state layout, the only form of a state in the package: the eight
# 3-vectors of STATE_PARTS in that order, all in the E frame. x_p and v_p are
# the payload's position [m] and velocity [m/s], x_i and v_i vehicle i's, and
# T_act_i is vehicle i's actual (lagged) thrust vector [N]. The scalar hot
# paths unpack a state by position, and tests pin them to this declaration.
# The control-frame angle is not a state: it is the spin schedule's closed
# form theta(t), and every flight starts at t = 0 with theta = 0.
# Flat command layout, held by the simulator between control ticks:
#   [0:3]   T_cmd_1  commanded thrust vector, vehicle 1, E frame [N]
#   [3:6]   T_cmd_2  commanded thrust vector, vehicle 2, E frame [N]
STATE_PARTS = ("x_p", "v_p", "x_1", "v_1", "x_2", "v_2", "T_act_1", "T_act_2")
STATE_SLICES = {name: slice(3 * i, 3 * i + 3) for i, name in enumerate(STATE_PARTS)}
STATE_DIM = 3 * len(STATE_PARTS)


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


# Rows per block of table_text: about 2 MB of text at 28 full-precision cells.
_BLOCK_ROWS = 4096


def column_lines(block):
    """The CSV lines of the rows of ``block``, a 2-D float array, each cell the
    ``repr`` of its Python float, with each distinct column rendered once. A
    column is keyed by its bytes: one equal to an earlier column takes that
    column's strings; one equal to an earlier column's negation, holding no
    NaN, takes them with the sign flipped, which is ``repr(-x)`` for every x
    but NaN (whose ``repr`` shows no sign); one constant in bits takes one
    ``repr``, repeated; any other takes a ``repr`` per cell. The matches
    compare bits, so the text is that of a ``repr`` per cell whatever the
    block holds."""
    keys = [column.tobytes() for column in block.T]
    rendered = {}  # column bytes -> its cells
    for key, column in zip(keys, block.T):
        if key in rendered:
            continue
        image = rendered.get((-column).tobytes())
        if image is not None and not np.isnan(column).any():
            rendered[key] = [s[1:] if s[0] == "-" else "-" + s for s in image]
        elif key == key[:8] * len(column):
            rendered[key] = list(map(repr, column[:1].tolist())) * len(column)
        else:
            rendered[key] = list(map(repr, column.tolist()))
    return map(",".join, zip(*map(rendered.get, keys)))


def table_text(header: str, n: int, lines) -> str:
    """The text of every CSV table: the header line, then the lines of rows 0 to
    n - 1, newline-terminated. ``lines(a, b)`` returns the lines of rows a to b - 1
    (strings without their newline, such as :func:`column_lines` of the block);
    it is called once per block of at most ``_BLOCK_ROWS`` rows, never on an
    empty range, and each block is joined into one string, so no list of every
    line exists.

    The blocks are rendered in contiguous shares of whole blocks, one per CPU this
    process may run on: it renders share 0, and a forked child renders each other
    share whole, then sends it length-prefixed over a pipe. The text is the same
    whatever the number of shares, and one share forks nothing. A child's nonzero
    exit raises RuntimeError naming its rows, unless this process is already raising."""
    def blocks(start, stop):
        return ("\n".join(lines(a, min(a + _BLOCK_ROWS, stop)))
                for a in range(start, stop, _BLOCK_ROWS))

    n_blocks = -(-n // _BLOCK_ROWS)
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    k = max(1, min(len(os.sched_getaffinity(0)) if forks else 1, n_blocks))
    edges = [min(n, i * n_blocks // k * _BLOCK_ROWS) for i in range(k + 1)]
    readers, pids = [], []
    try:
        for start, stop in zip(edges[1:], edges[2:]):
            r, w = os.pipe()
            readers.append(open(r, "rb"))
            with open(w, "wb") as pipe:
                if (pid := os.fork()) == 0:  # the child ends only through os._exit
                    try:  # every read end, its own too, or its writes could never fail
                        for reader in readers:
                            reader.close()
                        for block in [b.encode() for b in blocks(start, stop)]:
                            pipe.write(b"%d\n%b" % (len(block), block))
                        pipe.flush()
                    except BaseException:
                        os._exit(1)
                    os._exit(0)
            pids.append(pid)
        text = [header, *blocks(0, edges[1])]
        for reader in readers:
            while size := reader.readline():
                text.append(reader.read(int(size)).decode())
    finally:  # read ends first: a child blocked on a full pipe then dies
        for reader in readers:
            reader.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for code, start, stop in zip(codes, edges[1:], edges[2:]):
        if code:
            raise RuntimeError(f"rendering rows {start} to {stop - 1}: child exit status {code}")
    return "\n".join([*text, ""])
