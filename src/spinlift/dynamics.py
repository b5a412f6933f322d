"""Nonlinear three-body truth model and fixed-step RK4 integration.

Earth-frame equations of motion:

* vehicle i:  m_q * a_i = T_act_i + m_q * g_vec + f_drag_i - F_i * r_hat_i
* payload:    m_p * a_p = m_p * g_vec + f_drag_p + sum_i F_i * r_hat_i
* tethers:    F_i = k_T * (|r_i| - ell) + c_T * d|r_i|/dt, F_i = 0 while
              |r_i| < ell and F_i is floored at 0 (unilateral ropes: they
              pull, never push)
* thrust lag: dT_act_i/dt = (T_cmd_i - T_act_i) / tau_att

r_i points from the payload to vehicle i. Integration happens in the inertial
frame over these 24 physical scalars; the rotating control frame only appears
in the controller and the linearized model, and its angle is the spin
schedule's closed form, not an integrated state.

The comparison harness integrates ~1e6 RK4 steps per run set, so the hot path
is scalar Python: a stepper that integrates a whole control hold in one call
with every RK4 stage held in local variables, appending each stored sample's
24 floats to a flat buffer inside its loop. The stepper is generated from a
source template that writes one tether's rope law and one vehicle's
equations once, as blocks expanded for both vehicles, and the payload's after
them (see :func:`_bind`); the template generates only what :func:`simulate`
and :func:`tether_forces` run. Its stages evaluate the mechanical derivative
only: the thrust lag is linear under the held command, so RK4 steps it in
closed form, each thrust moving to u + (T - u) * R(-dt/tau) with R RK4's
stability function. The tether law is written once, in the rope block: the
stepper records each stored sample's two tensions from the first RK4 stage
of the step that starts there, and :func:`tether_forces` expands the rope
block alone for one state.

Every flight that spawns at an operating point is mirror-symmetric: vehicle 2
is vehicle 1 rotated by pi about the spin axis, and the payload sits on the
axis. The equations, the rope law and the controller (whose gain
:func:`spinlift.lqr.synthesize` makes exactly equivariant) commute with that
map, and IEEE arithmetic is symmetric in sign, so such a flight stays on the
mirror subspace, value for value (Golubitsky, Stewart & Schaeffer,
Singularities and Groups in Bifurcation Theory II, 1988, ch. XIII). The
template expands the same blocks into a second stepper for it, which
integrates 11 scalars instead of 24 and writes the rest from them;
:func:`simulate` takes it for each hold whose state and command are mirror
images, and the full stepper for any other hold.
:func:`simulate` makes one stepper call per hold, whatever the output
decimation, and builds the trajectory's arrays once at the end: states and
tensions from their buffers, commands from the per-tick command buffer.
:func:`trajectory_to_csv` hands :func:`spinlift.model.table_text` one block of
rows at a time, which renders them on every CPU the process may run on, each
block by :func:`spinlift.model.column_lines`: it renders each distinct column
once, so a block on the mirror subspace, whose vehicle-2 columns are copies or
negations of vehicle 1's and whose payload x and y columns are 0.0, takes 14
``repr`` calls per row instead of 28.
"""

from __future__ import annotations

import functools
import linecache
import math
import operator
import re
import struct
import sys
import textwrap
from array import array
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .model import (STATE_DIM, STATE_PARTS, SystemParams, SystemState, column_lines,
                    rk4_stages, table_text)

__all__ = [
    "DegenerateGeometryError",
    "IntegrationBlowupError",
    "Trajectory",
    "tether_forces",
    "simulate",
    "trajectory_to_csv",
]

_COINCIDENT_TOL = 1e-9


class DegenerateGeometryError(ValueError):
    """Vehicle and payload positions coincide; tether direction undefined."""


class IntegrationBlowupError(RuntimeError):
    """State became non-finite during integration."""

    def __init__(self, t: float):
        super().__init__(f"integration produced a non-finite state at t = {t:.6f} s")
        self.t = t


def tether_forces(state, params: SystemParams) -> tuple[tuple, tuple]:
    """``((F_1, r_hat_1), (F_2, r_hat_2))`` of one flat 24-float state: each
    tether's tension, by the module docstring's rope law, and its unit vector
    from the payload to the vehicle, evaluated by the stepper's own rope
    blocks. The state is checked by :meth:`SystemState.from_vector`
    (ValueError on a wrong length or a non-finite entry);
    :class:`DegenerateGeometryError` where a vehicle and the payload
    coincide."""
    (F_1, r_hat_1), (F_2, r_hat_2) = _bind(params).tensions(SystemState.from_vector(state))
    return (F_1, np.array(r_hat_1)), (F_2, np.array(r_hat_2))


# Names of the 24 integrated scalars, in the flat layout of spinlift.model
# (each part's first and last letter and the axis: xpx .. T2z), and of the
# time derivatives of the 18 moving ones in the same order: positions move
# with the velocities, velocities with the accelerations a*. The actual
# thrusts T* have no rate names: the stepper moves them in closed form.
# Suffix p is the payload, 1 and 2 the vehicles.
_STATE = [part[0] + part[-1] + axis for part in STATE_PARTS for axis in "xyz"]
_RATE = [{"x": "v", "v": "a"}[q[0]] + q[1:] for q in _STATE[:18]]

# Tether i's rope law at the state whose names end in {s}, written once and
# expanded for i = 1, 2: its length d{i}, its unit vector h{i}* from the
# payload to vehicle i, its extension rate and its tension F{i}.
_ROPE = """\
r{i}x = x{i}x{s} - xpx{s}
r{i}y = x{i}y{s} - xpy{s}
r{i}z = x{i}z{s} - xpz{s}
d{i} = sqrt(r{i}x * r{i}x + r{i}y * r{i}y + r{i}z * r{i}z)
if d{i} < _COINCIDENT_TOL:
    raise DegenerateGeometryError("vehicle {i} coincides with the payload")
inv_d{i} = 1.0 / d{i}
h{i}x = r{i}x * inv_d{i}
h{i}y = r{i}y * inv_d{i}
h{i}z = r{i}z * inv_d{i}
rate{i} = (v{i}x{s} - vpx{s}) * h{i}x + (v{i}y{s} - vpy{s}) * h{i}y + (v{i}z{s} - vpz{s}) * h{i}z
F{i} = k_T * (d{i} - ell) + c_T * rate{i}
if d{i} < ell or F{i} < 0.0:
    F{i} = 0.0
"""

# The rest of vehicle i's share of the derivative, after its rope law: its
# pull f{i}* = F{i} * h{i}*, its drag force fd{i}* in {drag} and its
# acceleration a{i}*{s}.
_VEHICLE = """\
f{i}x = F{i} * h{i}x
f{i}y = F{i} * h{i}y
f{i}z = F{i} * h{i}z
{drag}
a{i}x{s} = (T{i}x{s} + fd{i}x - f{i}x) * inv_mq
a{i}y{s} = (T{i}y{s} + fd{i}y - f{i}y) * inv_mq
a{i}z{s} = (T{i}z{s} + fd{i}z - f{i}z) * inv_mq - g
"""

# The payload's share: its drag force fdp* in {drag} and its acceleration,
# which sums both pulls.
_PAYLOAD = """\
{drag}
apx{s} = (fdpx + f1x + f2x) * inv_mp
apy{s} = (fdpy + f1y + f2y) * inv_mp
apz{s} = (fdpz + f1z + f2z) * inv_mp - g
"""

# The velocity-squared drag force fd{b}* of body b, with coefficient c.
_DRAG = """\
s{b} = -{c} * sqrt(v{b}x{s} * v{b}x{s} + v{b}y{s} * v{b}y{s} + v{b}z{s} * v{b}z{s})
fd{b}x = s{b} * v{b}x{s}
fd{b}y = s{b} * v{b}y{s}
fd{b}z = s{b} * v{b}z{s}
"""


def _derivative(s: str, drag: bool, bodies: str = "12p") -> str:
    """The derivative blocks of ``bodies`` at the state names suffixed ``s``:
    the rope law and the vehicle block for vehicles 1 and 2, then the payload
    block (p). Instantiated once per RK4 stage of ``advance``, and per body
    group by ``lqr``'s design pass. Without drag it has no drag block and no
    drag term ``fd*`` in its sums."""
    def fill(b, c):
        return _DRAG.format(b=b, c=c, s=s) if drag else ""
    text = "".join(_ROPE.format(i=i, s=s) + _VEHICLE.format(i=i, s=s, drag=fill(i, "c_dq"))
                   for i in "12" if i in bodies)
    text += _PAYLOAD.format(s=s, drag=fill("p", "c_dp")) if "p" in bodies else ""
    return text if drag else re.sub(r"fd\w+ \+ | \+ fd\w+", "", text)


def _mirror_derivative(s: str, drag: bool) -> str:
    """:func:`_derivative` on the mirror subspace, where the payload's x and
    y positions and velocities are 0 and tether 2 pulls as tether 1's mirror
    image: vehicle 1's blocks and the payload's z lines, with each term of a
    payload x or y dropped (a - 0.0 is a, and 0.0 * 0.0 + b is b) and f2z
    read as f1z."""
    axis = rf"[xv]p[xy]{s}\b"
    text = re.sub(rf" - {axis}|{axis} \* {axis} \+ ", "",
                  _derivative(s, drag, "1p").replace("f2z", "f1z"))
    return "".join(line for line in text.splitlines(True) if not re.match(r"(a|fd)p[xy]", line))


# The stepper's source, over the parameters bound by _bind: the rope law
# alone at one state (tensions), the mirror test of a hold (on_mirror) and
# the two steppers (_ADVANCE), each an inner function of bind.
_STEPPER = """\
def bind(ell, g, k_T, c_T, inv_tau, inv_mq, inv_mp, c_dq, c_dp):
    def tensions(y):
        {state} = y
{rope}
        return (F1, (h1x, h1y, h1z)), (F2, (h2x, h2y, h2z))

    def on_mirror(y, u):
        {state} = y
        u1x, u1y, u1z, u2x, u2y, u2z = u
        return {on_mirror}
{advance}{advance_mirror}
    return advance, tensions, on_mirror, advance_mirror
"""

# One stepper. Stage k = 2, 3, 4 evaluates the derivative at the positions
# and velocities y + a * (stage k-1 rates), a = half, half, dt, with its
# state names suffixed _k (stage 1 is y itself); the update
# y + sixth * (k1 + 2 (k2 + k3) + k4) then runs in layout order, so each
# position is updated while its velocity still holds the stage-1 value. Each
# thrust T takes u + eT * c, eT = T - u, with c = c2, c3, c4 at the stages
# and c5 for the update (RK4 on the linear lag, rk4_stages). It appends to
# out the state after every global step that is a multiple of dec; store is
# the index i of the next such step. It writes stage 1's two tensions of
# every step i that starts from a stored state (i a multiple of dec) to that
# sample's two slots of tension; record is the next such i.
_ADVANCE = """\

    def {name}(y, u, i_first, n, dt, out, dec, tension):
        {state} = y
        u1x, u1y, u1z, u2x, u2y, u2z = u
        half = 0.5 * dt
        sixth = dt / 6.0
        c2, c3, c4, c5 = rk4_stages(dt, -inv_tau)
        store = (i_first + dec) // dec * dec - 1
        record = -(-i_first // dec) * dec
        for i in range(i_first, i_first + n):
{stages}
            if not isfinite({state_sum}):
                raise IntegrationBlowupError((i + 1) * dt)
            if i == store:
                out.frombytes(pack({sample}))
                store += dec
        return [{sample}]
"""


def _advance(name: str, names, derivative: Callable[[str], str], pulls: str, sample) -> str:
    """The source of one stepper, ``name``, that integrates the scalars of
    ``_STATE`` in ``names`` with the derivative text ``derivative(suffix)``,
    records the tensions ``pulls`` and stores the 24 expressions ``sample``.
    Its finite check is the left-to-right sum of the 24 stored scalars, each
    read as written in ``sample`` (a term 0.0 dropped, + (0.0 - a) as - a):
    non-finite at the same steps as the sum over the 24 names."""
    moving = [(q, r) for q, r in zip(_STATE, _RATE) if q in names]
    lag = [(q, "u" + q[1:]) for q in _STATE if q.startswith("T") and q in names]  # T1x lags u1x
    stages = [f"e{q} = {q} - {u}\n" for q, u in lag] + [derivative("")]
    stages.append(f"if i == record:\n    j = i // dec * 2\n"
                  f"    tension[j], tension[j + 1] = {pulls}\n    record += dec\n")
    for k, step in ((2, "half"), (3, "half"), (4, "dt")):
        prev = "" if k == 2 else f"_{k - 1}"
        stages += [f"{q}_{k} = {q} + {step} * {r}{prev}\n" for q, r in moving]
        stages += [f"{q}_{k} = {u} + e{q} * c{k}\n" for q, u in lag]
        stages.append(derivative(f"_{k}"))
    stages += [f"{q} += sixth * ({r} + 2.0 * ({r}_2 + {r}_3) + {r}_4)\n" for q, r in moving]
    stages += [f"{q} = {u} + e{q} * c5\n" for q, u in lag]
    state_sum = " + ".join(q for q in sample if q != "0.0").replace("+ 0.0 - ", "- ")
    return _ADVANCE.format(name=name, state=", ".join(_STATE), sample=", ".join(sample),
                           state_sum=state_sum, stages=textwrap.indent("".join(stages), " " * 12))


# The mirror map on the state names: the rotation by pi about the spin axis
# with the vehicles exchanged. The payload's x and y positions and velocities
# are 0 on the mirror subspace (it sits on the axis).
_AXIS = ("xpx", "xpy", "vpx", "vpy")


def _mirror_image(q: str) -> str:
    """Scalar ``q`` of ``_STATE`` or of the command (u1x .. u2z) on the mirror
    subspace, in the free scalars: 0.0 for the payload's x and y, vehicle 1's
    same-named scalar for vehicle 2's, as ``0.0 - a`` along x and y (which
    writes a zero as +0.0, the sign the full stepper leaves it after a step,
    where -a would write -0.0), and ``q`` itself otherwise."""
    if q in _AXIS:
        return "0.0"
    if q[1] != "2":
        return q
    image = q[0] + "1" + q[2]
    return f"0.0 - {image}" if q[2] in "xy" else image


def _stepper(drag: bool) -> tuple[str, str]:
    """File name and source of the stepper template, expanded with or without
    drag: the full stepper over all 24 scalars, and the mirror stepper over
    the 11 that the mirror subspace leaves free (vehicle 1's position,
    velocity and thrust and the payload's z position and velocity)."""
    mirrored = [q for q in [*_STATE, "u2x", "u2y", "u2z"] if q[1] == "2"]
    free = [q for q in _STATE if q[1] == "1" or q in ("xpz", "vpz")]
    # a vehicle at height 0.0 is refused: level with a payload at 0.0, its
    # rope's unit vector takes the sign of the zero height, which the mirror
    # by value does not fix, and the payload's z pull sums two of them
    on_mirror = [" == ".join([*_AXIS, "0.0"]), "x1z != 0.0"]
    on_mirror += [f"{q} == {_mirror_image(q)}" for q in mirrored]
    return f"<spinlift.dynamics stepper, drag {'on' if drag else 'off'}>", _STEPPER.format(
        state=", ".join(_STATE), on_mirror=" and ".join(on_mirror),
        rope=textwrap.indent("".join(_ROPE.format(i=i, s="") for i in "12"), " " * 8),
        advance=_advance("advance", _STATE, lambda s: _derivative(s, drag), "F1, F2", _STATE),
        advance_mirror=_advance("advance_mirror", free, lambda s: _mirror_derivative(s, drag),
                                "F1, F1", [_mirror_image(q) for q in _STATE]))


@functools.cache
def _compile(expand: Callable[..., tuple[str, str]], *args):
    """Compile the model source that ``expand(*args)`` returns with its file
    name, and return its ``bind`` factory. Cached: each source is compiled
    once per process, on its first use, so every later :func:`_bind` or
    ``lqr.linearize`` call only binds parameters. The source is registered
    with :mod:`linecache`, so that tracebacks through the generated
    functions show their lines."""
    filename, source = expand(*args)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"sqrt": math.sqrt, "isfinite": math.isfinite, "rk4_stages": rk4_stages,
                 "pack": struct.Struct(f"{len(_STATE)}d").pack,
                 "_COINCIDENT_TOL": _COINCIDENT_TOL,
                 "DegenerateGeometryError": DegenerateGeometryError,
                 "IntegrationBlowupError": IntegrationBlowupError}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["bind"]


class _Stepper(NamedTuple):
    advance: Callable
    tensions: Callable
    on_mirror: Callable
    advance_mirror: Callable


def _bind(params: SystemParams) -> _Stepper:
    """Build ``(advance, tensions, on_mirror, advance_mirror)``: the RK4
    stepper of the scalarized model over the 24 physical state scalars
    (positions, velocities, actual thrusts), its rope law, the mirror test of
    a hold and the stepper of the mirror subspace.

    * ``advance(y, u, i_first, n, dt, out, dec, tension)`` integrates
      physics steps ``i_first .. i_first + n - 1`` of a run starting at
      t = 0 under the held command ``u`` and returns the final state as a
      list. It appends to ``out`` (an ``array('d')``) the 24 floats of the
      state after each step whose global count ``i + 1`` is a multiple of
      ``dec``, from inside its loop: a stored sample costs one ``struct``
      pack of the 24 floats in the buffer's native layout and one
      ``frombytes``, not a return to the caller. It writes F_1 and F_2 of
      each stored state, that of step ``i_first`` included, to its sample's
      two slots of ``tension`` (an ``array('d')`` of two slots per stored
      sample of the run), from the first RK4 stage of the step that starts
      there; the state a call ends on is recorded by the next call, or by
      ``tensions``.
      The RK4 stages live in local variables. The positions and velocities
      take the float operations of a textbook RK4 over the module
      docstring's equations, in the same order. The thrust lag
      T' = (u - T) / tau is linear and u is held, so RK4 moves each thrust to
      u + (T - u) * c, exactly in real arithmetic: c2, c3 and c4 at the
      stages and c5, RK4's stability function at -dt / tau, for the update,
      RK4's own stages on e' = -e / tau from e = 1, computed once per call by
      :func:`spinlift.model.rk4_stages`, the function whose c5 bounds the
      step in :class:`SystemParams`.
      A step makes no lag rates, and differs from a textbook RK4 with them
      only by rounding (a property test bounds the difference). Raises
      :class:`IntegrationBlowupError` with the time of the first step whose
      result is not finite (one left-to-right sum of the 24 scalars, the
      order of the builtin ``sum``).
    * ``tensions(y)`` is ``((F_1, r_hat_1), (F_2, r_hat_2))`` at one flat
      state, r_hat_i as a 3-tuple, from the rope law that the stages run:
      the same floats as ``advance`` records at that state.
    * ``on_mirror(y, u)`` is whether the state and the held command lie on
      the mirror subspace, compared by value (17 comparisons): the payload's
      x and y positions and velocities are 0, vehicle 2's position, velocity,
      thrust and command are vehicle 1's with x and y negated, and vehicle
      1 is not at height 0.0 (where a level rope's zero-signed z would reach
      the payload's z pull).
    * ``advance_mirror`` is ``advance`` on that subspace, with the same
      arguments, buffers and result. It integrates vehicle 1's position,
      velocity and thrust and the payload's z position and velocity by the
      same float operations, tether 2 pulling as tether 1's mirror image, so
      the payload's z acceleration sums f1z + f1z and its x and y
      accelerations are exactly 0. It records F_1 in both tension slots,
      stores and returns all 24 scalars, vehicle 2's x and y entries as
      ``0.0 - a`` of vehicle 1's (a zero as +0.0) and the payload's x and y
      as 0.0, and its finite check is the full stepper's sum read off the
      mirror. From a state and command that ``on_mirror`` accepts, its
      samples, tension slots, final state and blow-up step are those of
      ``advance``, bit for bit, zero signs included: after one step the full
      stepper leaves no -0.0 in those entries, whatever the zero signs it
      started from, and it holds each value exactly mirrored because IEEE
      rounding is symmetric in sign. An entry so small (subnormal) that a
      product underflows makes a zero whose sign follows its factors; there
      the two agree by value. Property tests pin both.

    All four are closures over the parameters, as floats, of one of two
    sources compiled from the templates: the derivative block (the
    rope law and the vehicle block per vehicle, then the payload block)
    written out inline in each of the four RK4 stages, so a physics step
    calls only ``sqrt`` and ``isfinite``, where a shared acceleration
    function would cost four calls of 24 arguments and a 9-tuple return per
    step. The drag coefficients pick the stepper, so neither branches on
    them: with either nonzero, drag forces come first in each acceleration
    sum; with both zero, there are no drag terms. The only arithmetic
    difference this makes is the sign of a zero: without drag terms, an
    acceleration sum that comes to -0.0 (all its terms zero, such as both
    pulls of slack ropes) keeps that sign, where adding a 0.0 drag force
    would make it +0.0. The tether law is written only here, in the rope
    block; the tests' plain-float reference model is its second copy.
    """
    return _Stepper(*_compile(_stepper, params.c_d_quad > 0.0 or params.c_d_payload > 0.0)(
        ell=params.ell, g=params.g, k_T=params.k_T, c_T=params.c_T,
        inv_tau=1.0 / params.tau_att, inv_mq=1.0 / params.m_q, inv_mp=1.0 / params.m_p,
        c_dq=params.c_d_quad, c_dp=params.c_d_payload))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled simulation output.

    ``states`` rows follow :data:`spinlift.model.STATE_PARTS`: read a part as
    ``states[:, STATE_SLICES[name]]``. ``commands`` rows are [T_cmd_1, T_cmd_2];
    ``tether`` rows are [F_1, F_2]; ``theta`` is the control-frame angle
    schedule at each sample time.
    """

    t: np.ndarray         # (n,) sample times [s]
    states: np.ndarray    # (n, 24)
    commands: np.ndarray  # (n, 6)
    tether: np.ndarray    # (n, 2)
    theta: np.ndarray     # (n,) control-frame angle [rad]

    def __len__(self) -> int:
        return len(self.t)


def simulate(initial,
             controller: Callable[[list, float], list],
             frame_angle: Callable[[float], float],
             params: SystemParams,
             duration: float,
             output_decimation: int | None = None) -> Trajectory:
    """Run the closed loop from t = 0: controller at f_ctrl with zero-order
    hold, physics stepped at dt_physics.

    ``initial`` is the state at t = 0, checked by
    :meth:`SystemState.from_vector` (ValueError on a wrong length or a
    non-finite entry). At each control tick ``controller(y, t)`` receives
    the flat 24-element state (a list of floats in the layout of
    :mod:`spinlift.model`) and the tick time, and returns the six commanded
    thrusts [T_cmd_1, T_cmd_2] as floats, held until the next tick. A
    non-finite command is not refused here: it makes the state non-finite in
    the first step of its hold, which raises :class:`IntegrationBlowupError`
    with that step's end time.

    ``frame_angle(t)`` is the control-frame angle schedule. It does not enter
    the physics; it is evaluated once per stored sample, after the run, to
    fill the trajectory's ``theta`` column.

    ``output_decimation`` is the number of physics steps between stored
    samples (default: one sample per control tick), an integer >= 1
    (TypeError for a bool or a non-integer, which is not truncated). Hold
    boundaries align with steps: :class:`SystemParams` guarantees that
    1/(f_ctrl * dt_physics) is an integer. Each hold is one stepper call,
    which appends the samples that fall inside it to a flat buffer, and
    writes the tensions of the samples its steps start from to another; the
    final state's tensions, when it is stored, take one more evaluation of
    the same rope law. The arrays are built from the buffers once, at the end.
    A hold whose state and command are mirror images by value (see
    :func:`_bind`'s ``on_mirror``) takes the mirror stepper, which writes the
    full stepper's bytes on half the arithmetic; every other hold, such as
    those of a perturbed flight, takes the full stepper.
    The command stored with a sample is the one held over the step that ends
    there (the first tick's for t = 0).
    """
    if not 0.0 < duration < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration}")
    dt = params.dt_physics
    steps_per_tick = round(1.0 / (params.f_ctrl * dt))
    n_steps = int(round(duration / dt))
    if n_steps < 1:
        raise ValueError("duration shorter than one physics step")
    if 16 * (n_steps + 1) > sys.maxsize:  # the tension buffer's bytes at one sample per step
        raise ValueError(f"duration {duration:g} s is {n_steps:.3g} physics steps, more "
                         f"than the sample buffers can index")
    if isinstance(output_decimation, bool):
        raise TypeError(f"output_decimation must be an integer, got {output_decimation!r}")
    dec = steps_per_tick if output_decimation is None else operator.index(output_decimation)
    if dec < 1:
        raise ValueError(f"output_decimation must be >= 1, got {dec}")
    # any hold or decimation past the flight's end acts alike; capped, both fit int64
    steps_per_tick, dec = min(steps_per_tick, n_steps + 1), min(dec, n_steps + 1)

    stepper = _bind(params)
    y = list(SystemState.from_vector(initial))
    samples = array("d", y)  # the stored states, flat; advance appends the rest
    # F_1, F_2 of each stored state, zeroed from bytes and sized once: grown per
    # sample, or made by repetition, it left the dense export's peak memory
    # varying from run to run by 10 to 45 MB
    tension = array("d", bytes(16 * (n_steps // dec + 1)))
    ticks = array("d")       # the six commands of each tick, flat
    for i in range(0, n_steps, steps_per_tick):
        u = controller(y, i * dt)
        ticks.extend(u)
        advance = stepper.advance_mirror if stepper.on_mirror(y, u) else stepper.advance
        y = advance(y, u, i, min(steps_per_tick, n_steps - i), dt, samples, dec, tension)
    if n_steps % dec == 0:  # the final state is stored, and no step starts there
        (tension[-2], _), (tension[-1], _) = stepper.tensions(y)

    steps = np.arange(0, n_steps + 1, dec)
    t = steps * dt
    states = np.frombuffer(samples).reshape(-1, STATE_DIM)
    commands = np.frombuffer(ticks).reshape(-1, 6)[np.maximum(steps - 1, 0) // steps_per_tick]
    theta = np.fromiter(map(frame_angle, t.tolist()), float, len(t))
    return Trajectory(t=t, states=states, commands=commands,
                      tether=np.frombuffer(tension).reshape(-1, 2), theta=theta)


_CSV_HEADER = ",".join(["t", *(f"{name}_{axis}" for name in STATE_PARTS for axis in "xyz"),
                        "F_1", "F_2", "theta"])


def trajectory_to_csv(traj: Trajectory) -> str:
    """The trajectory as CSV at full double precision, by :func:`model.table_text`:
    each block of rows rendered by :func:`model.column_lines`, each distinct
    column once."""
    columns = (traj.t, traj.states, traj.tether, traj.theta)
    return table_text(_CSV_HEADER, len(traj), lambda a, b: column_lines(
        np.column_stack([c[a:b] for c in columns])))
