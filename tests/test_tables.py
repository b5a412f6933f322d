"""Byte format of every table writer, pinned against a per-cell reference.

The reference formatters below write each cell with ``repr(float(v))`` in a
Python loop, the way the writers did before they shared ``table_text``; the
writers must produce exactly the same text. Every table goes through
``model.table_text(header, n, lines)``, which asks ``lines`` for one block of
rows at a time and renders the blocks in one share per CPU, each beyond the
first in a forked child: the tests pin the text, the calls of ``lines`` and
the number of forks on 1 to 4 CPUs.
"""

import contextlib
import math
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinlift import dynamics, equilibrium, harness, model
from spinlift.control import (ControllerConfig, SpinProfile, _LOG_HEADER,
                              command_log_to_csv, control_step)
from spinlift.dynamics import Trajectory, simulate, trajectory_to_csv
from spinlift.equilibrium import (build_equilibrium, omega_star, sweep_beta,
                                  sweep_omega, sweep_to_csv)
from spinlift.harness import ComparisonRow, ComparisonTable, comparison_to_csv
from spinlift.lqr import synthesize
from spinlift.model import (_BLOCK_ROWS, SystemParams, column_lines, default_thrust_limit,
                            table_text)

from flatstate import part, replaced, vec3

P = SystemParams()
DEG = math.radians
T_MAX = default_thrust_limit(P)
SPECIAL = (-0.0, 5e-324, 1e300, 1.0 / 3.0, -1e-300, 0.1, 2.5, -7.0)
B = _BLOCK_ROWS


def reference_line(row):
    return ",".join(repr(float(v)) for v in row)


def repr_line(row):
    """The line of ``row``'s cells as they are, each its ``repr``."""
    return ",".join(map(repr, row))


def reference_trajectory_csv(traj):
    lines = [dynamics._CSV_HEADER]
    for i in range(len(traj)):
        row = [traj.t[i], *traj.states[i], *traj.tether[i], traj.theta[i]]
        lines.append(reference_line(row))
    return "\n".join(lines) + "\n"


def reference_command_log(traj, T_max):
    lines = [_LOG_HEADER]
    for i in range(len(traj)):
        u = traj.commands[i]
        n1 = math.hypot(u[0], u[1], u[2])
        n2 = math.hypot(u[3], u[4], u[5])
        saturated = int(n1 >= T_max - 1e-9 or n2 >= T_max - 1e-9)
        lines.append(f"{reference_line((traj.t[i], *u))},{saturated}")
    return "\n".join(lines) + "\n"


def reference_sweep_csv(result, params):
    lines = [equilibrium._SWEEP_HEADER]
    for rep in result.reports:
        tilt = equilibrium.tilt_angle(rep.beta, rep.omega_C, params)
        tension = equilibrium.tension_at_equilibrium(rep.beta, params)
        lines.append(reference_line((math.degrees(rep.beta), rep.omega_C, rep.T_per_vehicle,
                                     rep.P_per_vehicle, rep.P_total, math.degrees(tilt),
                                     tension)))
    return "\n".join(lines) + "\n"


def reference_comparison_csv(table):
    lines = [harness._COMPARE_HEADER]
    for row in table.rows:
        cells = [repr(float(math.degrees(row.beta)))]
        for v in (row.static_mean, row.static_std, row.rotating_mean, row.rotating_std,
                  row.saving):
            cells.append("" if v is None else repr(float(v)))
        errors = [e for e in (row.static_error, row.rotating_error) if e]
        cells.append('"' + "; ".join(errors) + '"' if errors else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def flight():
    """0.1 s of closed-loop rotating flight at 45 deg, every step stored,
    starting 5 cm off the setpoint so every column moves."""
    beta = DEG(45.0)
    w = omega_star(beta, P)
    spec, state, _ = build_equilibrium(beta, w, P)
    cfg = ControllerConfig(gain=synthesize(spec, P), eq=spec, params=P,
                           profile=SpinProfile(omega_target=w, t_hover=10.0))
    start = replaced(state, x_p=part(state, "x_p") + vec3(0.05, 0.0, 0.0))
    return simulate(start, lambda y, t: control_step(y, cfg, t), cfg.profile.theta, P,
                    duration=0.1, output_decimation=1)


@pytest.fixture(scope="module")
def mirror_flight():
    """0.1 s of the same flight from the operating point itself, every step
    stored: it stays on the mirror subspace."""
    beta = DEG(45.0)
    w = omega_star(beta, P)
    spec, state, _ = build_equilibrium(beta, w, P)
    cfg = ControllerConfig(gain=synthesize(spec, P), eq=spec, params=P,
                           profile=SpinProfile(omega_target=w, t_hover=10.0))
    return simulate(state, lambda y, t: control_step(y, cfg, t), cfg.profile.theta, P,
                    duration=0.1, output_decimation=1)


@pytest.fixture(scope="module")
def odd_trajectory():
    """Hand-built samples holding signed zero, the smallest subnormal, a huge
    value and 1/3; command rows sit exactly at T_max and just below the
    saturation threshold."""
    n = 4
    cells = np.resize(np.array(SPECIAL), n * 31).reshape(n, 31)
    below = np.nextafter(T_MAX - 1e-9, 0.0)
    commands = np.array([[0.0, 0.0, T_MAX, -0.0, 0.0, 1.0],
                         [0.0, 0.0, below, 0.0, 0.0, below],
                         [0.0, -0.0, 1.0 / 3.0, 0.0, T_MAX, 0.0],
                         [5e-324, 0.0, 1.0, 0.0, 0.0, 1.0]])
    return Trajectory(t=np.array([-0.0, 5e-324, 1.0 / 3.0, 1e300]), states=cells[:, :24],
                      commands=commands, tether=cells[:, 25:27], theta=cells[:, 24])


@contextlib.contextmanager
def deadline(seconds):
    """Fail with TimeoutError, rather than hang, when the block runs longer
    than ``seconds``; a forked child inherits the handler but not the alarm."""
    def overdue(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, overdue)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def block_lines(rows, calls):
    """``lines`` for table_text over ``rows``: each line ends with the range (a, b)
    of the call that rendered it, the calls this process makes are appended to
    ``calls``, and an empty or out-of-range call fails."""
    def lines(a, b):
        if not 0 <= a < b <= len(rows):
            raise AssertionError(f"lines({a}, {b}) of {len(rows)} rows")
        calls.append((a, b))
        return (f"{repr_line(row)},{a},{b}" for row in rows[a:b])

    return lines


def test_table_text_layout():
    rows = [[1.0, -0.0], [5e-324, 2]]
    calls = []
    assert table_text("a,b", 0, block_lines([], calls)) == "a,b\n"
    assert calls == []
    assert table_text("a,b", 2, lambda a, b: map(repr_line, rows[a:b])) == \
        "a,b\n1.0,-0.0\n5e-324,2\n"
    assert table_text("a,b", 2, block_lines(rows, calls)) == \
        "a,b\n1.0,-0.0,0,2\n5e-324,2,0,2\n"
    assert calls == [(0, 2)]


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 1])
def test_table_text_block_edges(n, monkeypatch):
    # the row index and the rendering call's range close each line, so a
    # block dropped, repeated, reordered or rendered by the wrong call changes
    # the text; a child's empty call fails it, and the parent raises
    rows = [[*(SPECIAL[(i + j) % len(SPECIAL)] for j in range(3)), float(i)] for i in range(n)]
    expected = "\n".join(["a,b,c,i", *(f"{reference_line(row)},{i - i % B},{min(i - i % B + B, n)}"
                                       for i, row in enumerate(rows)), ""])
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        calls = []
        with deadline(60):
            assert table_text("a,b,c,i", n, block_lines(rows, calls)) == expected, cpus
        if cpus == 1:  # every call is made in this process: once per block
            assert calls == [(a, min(a + B, n)) for a in range(0, n, B)]
    assert_no_child_left()


def block_trajectory(t):
    """A trajectory with the sample times ``t`` and edge values in its other
    cells; its command is held for 7 samples at a time, so holds straddle blocks."""
    n = len(t)
    cells = np.resize(np.array(SPECIAL), n * 27).reshape(n, 27)
    holds = np.resize(np.array(SPECIAL), (-(-n // 7), 5))
    commands = np.repeat(np.column_stack([holds, np.arange(len(holds))]), 7, axis=0)[:n]
    return Trajectory(t=t, states=cells[:, :24], commands=commands,
                      tether=cells[:, 25:27], theta=cells[:, 24])


def assert_across_blocks(monkeypatch, write, reference):
    """``write(traj)`` equals ``reference(traj)`` at the block edges on 1 to 4
    CPUs: one share per CPU, at most one per block, every share beyond the
    first in a forked child."""
    fork = os.fork
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for n in (B - 1, B, B + 1, 2 * B, 2 * B + 1, 3 * B + 2):
        traj = block_trajectory(np.arange(n) * 5e-4)
        expected = reference(traj)
        for cpus in (1, 2, 3, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            forks.clear()
            with deadline(60):
                text = write(traj)
            assert text == expected, (n, cpus)
            assert len(forks) == min(cpus, -(-n // B)) - 1, (n, cpus)
    assert_no_child_left()


def test_trajectory_csv_across_blocks(monkeypatch):
    assert_across_blocks(monkeypatch, trajectory_to_csv, reference_trajectory_csv)


def test_command_log_across_blocks(monkeypatch):
    # holds of 7 rows straddle the block and share edges; each hold's cells
    # are rendered before the fork
    assert_across_blocks(monkeypatch, lambda traj: command_log_to_csv(traj, T_MAX),
                         lambda traj: reference_command_log(traj, T_MAX))


def test_trajectory_csv_child_failure(monkeypatch):
    # row 2B is rendered by the second of two shares, in a child
    traj = block_trajectory(np.arange(2 * B + 1, dtype=float))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def failing_lines(block):
        if 2 * B in block[:, 0]:
            raise ValueError("cell out of range")
        return column_lines(block)

    monkeypatch.setattr(dynamics, "column_lines", failing_lines)
    with deadline(60), pytest.raises(
            RuntimeError, match=f"^rendering rows {B} to {2 * B}: child exit status 1$"):
        trajectory_to_csv(traj)
    assert_no_child_left()


def test_trajectory_csv_parent_failure(monkeypatch):
    # the child's share of B + 1 rows is far beyond a 64 KB pipe buffer: it
    # is blocked on its pipe when share 0, in this process, fails on its
    # block, and must die of the closed read end
    traj = block_trajectory(np.arange(2 * B + 1, dtype=float))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    error = ValueError("share 0 failed")

    def failing_lines(block):
        if B - 1 in block[:, 0]:
            time.sleep(0.5)
            raise error
        return column_lines(block)

    monkeypatch.setattr(dynamics, "column_lines", failing_lines)
    with deadline(60), pytest.raises(ValueError) as raised:
        trajectory_to_csv(traj)
    assert raised.value is error
    assert_no_child_left()


def test_trajectory_csv_of_flight(flight):
    assert trajectory_to_csv(flight) == reference_trajectory_csv(flight)


def test_trajectory_csv_of_mirror_flight(mirror_flight, monkeypatch):
    # one block of 201 rows on the mirror subspace; of its 28 columns, 17 take
    # a repr per cell: t, the payload's z position and velocity, vehicle 1's
    # nine, the y columns of vehicle 2's position, velocity and thrust (their
    # first row is 0.0, as vehicle 1's, not its negation), F_1 and theta.
    # The payload's x position is constant (one repr); its y position and
    # both horizontal velocities, vehicle 2's z columns and F_2 are copies,
    # and vehicle 2's x columns are negations of vehicle 1's
    calls = []
    monkeypatch.setattr(model, "repr", lambda x: calls.append(1) or repr(x), raising=False)
    assert trajectory_to_csv(mirror_flight) == reference_trajectory_csv(mirror_flight)
    assert len(calls) == 17 * len(mirror_flight) + 1


# the cells of a drawn column: any float, and the edges of the sign flip:
# zeros, subnormals, infinities and NaNs of both sign bits
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, math.inf, -math.inf,
               math.nan, -math.nan, 1.0 / 3.0, -2.5, 1e300)
CELLS = st.one_of(st.sampled_from(EDGE_VALUES), st.floats())


@st.composite
def repeating_columns(draw):
    """A block of 28 columns, each drawn cells repeated to the length, a value
    and its negation in drawn rows (equal under ``==`` for zeros, the same
    ``repr`` for NaNs), a constant, a constant that changes value at a drawn
    row, or a bitwise copy, ``-a`` or ``0.0 - a`` image (``0.0 - a`` makes
    both zeros +0.0) of an earlier column."""
    n = draw(st.integers(1, 30))
    columns = []
    for _ in range(28):
        kind = draw(st.sampled_from(["cells", "signs", "constant", "step", "copy", "-a",
                                     "0.0 - a"] if columns else ["cells", "signs", "constant"]))
        if kind == "cells":
            column = np.resize(np.array(draw(st.lists(CELLS, min_size=1, max_size=n))), n)
        elif kind == "signs":
            x = draw(CELLS)
            column = np.where(draw(st.lists(st.booleans(), min_size=n, max_size=n)), x, -x)
        elif kind == "constant":
            column = np.full(n, draw(CELLS))
        elif kind == "step":
            column = np.full(n, draw(CELLS))
            column[draw(st.integers(0, n)):] = draw(CELLS)
        else:
            a = columns[draw(st.integers(0, len(columns) - 1))]
            column = {"copy": a.copy(), "-a": -a, "0.0 - a": 0.0 - a}[kind]
        columns.append(column)
    return np.column_stack(columns)


@given(cells=repeating_columns(), block_rows=st.integers(1, 8))
def test_trajectory_csv_of_repeating_columns(cells, block_rows):
    # blocks of a few rows, so that a column's matches change from block to
    # block: the text is the reference's on one CPU and on two
    traj = Trajectory(t=cells[:, 0], states=cells[:, 1:25], commands=np.zeros((len(cells), 6)),
                      tether=cells[:, 25:27], theta=cells[:, 27])
    expected = reference_trajectory_csv(traj)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_BLOCK_ROWS", block_rows)
        for cpus in (1, 2):
            mp.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            with deadline(60):
                text = trajectory_to_csv(traj)
            assert text == expected, cpus
            assert "-nan" not in text
    assert_no_child_left()


def test_column_lines_of_no_rows():
    # every column of an empty block is constant in bits: it still gives no line
    for columns in (0, 1, 3, 28):
        assert list(column_lines(np.empty((0, columns)))) == []


def test_trajectory_csv_of_edge_values(odd_trajectory):
    text = trajectory_to_csv(odd_trajectory)
    assert text == reference_trajectory_csv(odd_trajectory)
    assert "np.float64" not in text
    assert text.split("\n")[1].startswith("-0.0,-0.0,5e-324,1e+300,0.3333333333333333,")


def test_command_log_of_flight(flight):
    assert command_log_to_csv(flight, T_MAX) == reference_command_log(flight, T_MAX)


def test_command_log_of_mirror_flight(mirror_flight, monkeypatch):
    # 201 rows in 5 holds on the mirror subspace: of the six command cells,
    # vehicle 1's three take a repr per hold, vehicle 2's x and y are their
    # negations and its z a copy, and the flag takes none
    assert len(np.unique(mirror_flight.commands, axis=0)) == 5
    calls = []
    monkeypatch.setattr(model, "repr", lambda x: calls.append(1) or repr(x), raising=False)
    assert command_log_to_csv(mirror_flight, T_MAX) == reference_command_log(mirror_flight, T_MAX)
    assert len(calls) == 3 * 5


def test_command_log_of_no_samples():
    traj = Trajectory(t=np.empty(0), states=np.empty((0, 24)), commands=np.empty((0, 6)),
                      tether=np.empty((0, 2)), theta=np.empty(0))
    assert command_log_to_csv(traj, T_MAX) == _LOG_HEADER + "\n"


def test_command_log_saturation_edge(odd_trajectory):
    text = command_log_to_csv(odd_trajectory, T_MAX)
    assert text == reference_command_log(odd_trajectory, T_MAX)
    flags = [line.rsplit(",", 1)[1] for line in text.strip().split("\n")[1:]]
    assert flags == ["1", "0", "1", "0"]


def test_command_log_runs_split_on_bits():
    # consecutive rows equal under == but not in bits: a writer that finds
    # runs of repeated commands with == (or a tuple-keyed cache) would print
    # the second row's -0.0 as 0.0
    a = [0.25, 0.0, 5.0, 0.0, -1.5, 5.0]
    b = [0.25, -0.0, 5.0, 0.0, -1.5, 5.0]
    commands = np.array([a, b, a, a])
    assert (commands[0] == commands[1]).all()
    traj = Trajectory(t=np.array([0.0, 0.02, 0.04, 0.06]), states=np.zeros((4, 24)),
                      commands=commands, tether=np.zeros((4, 2)), theta=np.zeros(4))
    text = command_log_to_csv(traj, T_MAX)
    assert text == reference_command_log(traj, T_MAX)
    assert text.split("\n")[2] == "0.02,0.25,-0.0,5.0,0.0,-1.5,5.0,0"


def test_sweep_csv():
    beta_grid = [DEG(d) for d in (0.0, 1e-9, 30.0, 60.0, 89.0, 90.0)]
    results = [sweep_beta(beta_grid, "static", P), sweep_beta(beta_grid, "rotating_opt", P),
               sweep_omega(DEG(60.0), np.linspace(0.0, 6.0, 13), P)]
    for result in results:
        assert sweep_to_csv(result, P) == reference_sweep_csv(result, P)



def test_comparison_csv():
    # no flights: one row of each kind the writer knows, with edge values
    both_failed = "beta must be in [0, 90) deg"
    table = ComparisonTable(rows=[
        ComparisonRow(beta=DEG(30.0), static_mean=113.2, static_std=-0.0, rotating_mean=1.0 / 3.0,
                      rotating_std=5e-324, saving=1e300),
        ComparisonRow(beta=DEG(60.0), static_mean=132.5, static_std=1e-14, rotating_mean=None,
                      rotating_std=None, saving=None, rotating_error="integration blew up"),
        ComparisonRow(beta=DEG(95.0), static_mean=None, static_std=None, rotating_mean=None,
                      rotating_std=None, saving=None, static_error=both_failed,
                      rotating_error=both_failed),
    ])
    text = comparison_to_csv(table)
    assert text == reference_comparison_csv(table)
    lines = text.split("\n")
    assert lines[0] == harness._COMPARE_HEADER and lines[-1] == ""
    assert lines[2].endswith(',1e-14,,,,"integration blew up"')
    assert lines[3].endswith(f',,,,,,"{both_failed}; {both_failed}"')
    assert comparison_to_csv(ComparisonTable(rows=[])) == harness._COMPARE_HEADER + "\n"
