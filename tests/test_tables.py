"""Byte format of every table writer, pinned against a per-cell reference.

The reference formatters below write each cell with ``repr(float(v))`` in a
Python loop, the way the writers did before they shared ``table_text``; the
writers must produce exactly the same text.
"""

import math

import numpy as np
import pytest

from spinlift import dynamics, equilibrium
from spinlift.control import (ControllerConfig, SpinProfile, _LOG_HEADER,
                              command_log_to_csv, control_step)
from spinlift.dynamics import Trajectory, simulate, trajectory_to_csv
from spinlift.equilibrium import (build_equilibrium, omega_star, sweep_beta,
                                  sweep_omega, sweep_to_csv)
from spinlift.lqr import synthesize
from spinlift.model import SystemParams, default_thrust_limit, table_text, vec3

P = SystemParams()
DEG = math.radians
T_MAX = default_thrust_limit(P)
SPECIAL = (-0.0, 5e-324, 1e300, 1.0 / 3.0, -1e-300, 0.1, 2.5, -7.0)


def reference_line(row):
    return ",".join(repr(float(v)) for v in row)


def reference_trajectory_csv(traj):
    lines = [dynamics._CSV_HEADER]
    for i in range(len(traj)):
        row = [traj.t[i], *traj.states[i, 0:24], *traj.tether[i], traj.states[i, 24]]
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


@pytest.fixture(scope="module")
def flight():
    """0.1 s of closed-loop rotating flight at 45 deg, every step stored,
    starting 5 cm off the setpoint so every column moves."""
    beta = DEG(45.0)
    w = omega_star(beta, P)
    spec, state, _ = build_equilibrium(beta, w, P)
    cfg = ControllerConfig(gain=synthesize(spec, P), eq=spec, params=P,
                           profile=SpinProfile(omega_target=w, t_hover=10.0))
    start = state.replace(x_p=state.x_p + vec3(0.05, 0.0, 0.0))
    return simulate(start, lambda y, t: control_step(y, cfg, t), cfg.profile.omega, P,
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
    return Trajectory(t=np.array([-0.0, 5e-324, 1.0 / 3.0, 1e300]), states=cells[:, :25],
                      commands=commands, tether=cells[:, 25:27])


def test_table_text_layout():
    assert table_text("a,b", []) == "a,b\n"
    assert table_text("a,b", [[1.0, -0.0], [5e-324, 2]]) == "a,b\n1.0,-0.0\n5e-324,2\n"


def test_trajectory_csv_of_flight(flight):
    assert trajectory_to_csv(flight) == reference_trajectory_csv(flight)


def test_trajectory_csv_of_edge_values(odd_trajectory):
    text = trajectory_to_csv(odd_trajectory)
    assert text == reference_trajectory_csv(odd_trajectory)
    assert "np.float64" not in text
    assert text.split("\n")[1].startswith("-0.0,-0.0,5e-324,1e+300,0.3333333333333333,")


def test_command_log_of_flight(flight):
    assert command_log_to_csv(flight, T_MAX) == reference_command_log(flight, T_MAX)


def test_command_log_saturation_edge(odd_trajectory):
    text = command_log_to_csv(odd_trajectory, T_MAX)
    assert text == reference_command_log(odd_trajectory, T_MAX)
    flags = [line.rsplit(",", 1)[1] for line in text.strip().split("\n")[1:]]
    assert flags == ["1", "0", "1", "0"]


def test_sweep_csv():
    beta_grid = [DEG(d) for d in (0.0, 1e-9, 30.0, 60.0, 89.0, 90.0)]
    results = [sweep_beta(beta_grid, "static", P), sweep_beta(beta_grid, "rotating_opt", P),
               sweep_omega(DEG(60.0), np.linspace(0.0, 6.0, 13), P)]
    for result in results:
        assert sweep_to_csv(result, P) == reference_sweep_csv(result, P)

