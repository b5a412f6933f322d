"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. The hover-grid criteria share one set of closed-loop runs at the
official protocol settings (40 s hover, last-20 s metering, 0.5 ms physics
step), so the full module takes roughly half a minute.
"""

import math
from array import array

import numpy as np
import pytest

from spinlift.dynamics import _bind, simulate
from spinlift.equilibrium import (build_equilibrium, omega_star, power,
                                  sweep_beta, sweep_omega, thrust_magnitude)
from spinlift.harness import ScenarioSpec, run_scenario
from spinlift.lqr import linearize, solve_care, synthesize
from spinlift.model import SystemParams

from flatstate import make_state, part, replaced, vec3

P = SystemParams()
DEG = math.radians
BETA_GRID_DEG = (30.0, 37.5, 45.0, 52.5, 60.0)
ORIGIN = np.array([0.0, 0.0, 1.5])


def report(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def hover_grid():
    """All ten (mode, beta) hover runs at the official protocol settings."""
    summaries = {}
    for beta_deg in BETA_GRID_DEG:
        for mode in ("static", "rotating"):
            spec = ScenarioSpec(
                mode=mode, beta=DEG(beta_deg), hover=40.0, metering_window=20.0,
                spin_up=8.0 if mode == "rotating" else 0.0,
                spin_down=8.0 if mode == "rotating" else 0.0,
            )
            _, summary = run_scenario(spec, P)
            summaries[(mode, beta_deg)] = summary
    return summaries


def test_criterion_1_optimal_spin_rate():
    w = omega_star(DEG(60), P)
    v_tan = w * P.ell * math.sin(DEG(60))
    ok = abs(w - 2.90) <= 0.01 and abs(v_tan - 2.5) <= 0.05
    report(1, ok, f"omega_star(60 deg) = {w:.4f} rad/s (2.90 +/- 0.01), "
                  f"tangential velocity = {v_tan:.4f} m/s (2.5 +/- 0.05)")


def test_criterion_2_power_vs_angle_shape():
    grid = [DEG(d) for d in np.linspace(0.0, 75.0, 151)]
    rotating = sweep_beta(grid, "rotating_opt", P).reports
    static = sweep_beta(grid, "static", P).reports
    rot_tot = np.array([r.P_total for r in rotating])
    sta_tot = np.array([r.P_total for r in static])
    flat = (rot_tot.max() - rot_tot.min()) / rot_tot[0]
    increasing = bool(np.all(np.diff(sta_tot) > 0.0))
    i60 = int(np.argmin(np.abs(np.degrees(grid) - 60.0)))
    ratio = sta_tot[i60] / rot_tot[i60]
    oracle = (thrust_magnitude(DEG(60), 0.0, P)
              / thrust_magnitude(DEG(60), omega_star(DEG(60), P), P)) ** 1.5
    ok = (flat < 1e-9 and increasing
          and abs(ratio - 1.196) <= 1e-3 and abs(ratio - oracle) < 1e-12)
    report(2, ok, f"rotating spread = {flat:.2e} (<1e-9), static strictly "
                  f"increasing = {increasing}, ratio at 60 deg = {ratio:.4f} "
                  f"(1.196 +/- 0.001)")


def test_criterion_3_power_vs_spin_shape():
    grid = np.linspace(0.0, 6.0, 3001)
    minima = []
    at_optimal = []
    for beta_deg in (30.0, 45.0, 60.0):
        beta = DEG(beta_deg)
        totals = np.array([r.P_total
                           for r in sweep_omega(beta, grid, P).reports])
        i_min = int(np.argmin(totals))
        i_star = int(np.argmin(np.abs(grid - omega_star(beta, P))))
        at_optimal.append(i_min == i_star)
        minima.append(totals[i_min])
    spread = (max(minima) - min(minima)) / minima[0]
    ok = all(at_optimal) and spread < 1e-6
    report(3, ok, f"minimum at nearest-to-optimal grid point for all angles = "
                  f"{all(at_optimal)}, minima relative spread = {spread:.2e} (<1e-6)")


def test_criterion_4_power_saving(hover_grid):
    s = hover_grid[("static", 60.0)].mean_P_total
    r = hover_grid[("rotating", 60.0)].mean_P_total
    saving = 100.0 * (s - r) / s
    # the target is the saving's law at 60 deg, 1 - (1 + mu^2 tan^2 beta)^(-3/4)
    # with mu = m_p / (2 m_q + m_p): 16.41% at the defaults
    mu = P.m_p / (2.0 * P.m_q + P.m_p)
    target = 100.0 * (1.0 - (1.0 + (mu * math.tan(DEG(60.0))) ** 2) ** -0.75)
    ok = abs(saving - target) <= 1.0
    report(4, ok, f"simulated saving at 60 deg = {saving:.2f}% (law {target:.2f} +/- 1.0)")


def test_criterion_5_closed_loop_fidelity(hover_grid):
    worst_err = 0.0
    worst_tilt = 0.0
    for (mode, beta_deg), summary in hover_grid.items():
        beta = DEG(beta_deg)
        w = omega_star(beta, P) if mode == "rotating" else 0.0
        analytic = power(thrust_magnitude(beta, w, P), P).P_total
        worst_err = max(worst_err, abs(summary.mean_P_total / analytic - 1.0))
        if mode == "rotating":
            worst_tilt = max(worst_tilt, math.degrees(summary.mean_tilt_1),
                             math.degrees(summary.mean_tilt_2))
    ok = worst_err < 0.02 and worst_tilt < 1.0
    report(5, ok, f"worst metered-vs-analytic power error = {100 * worst_err:.4f}% "
                  f"(<2%), worst rotating tilt = {worst_tilt:.3f} deg (<1)")


def test_criterion_6_care_correctness():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    P_di = solve_care(A, B, np.eye(2), np.eye(1))
    K_di = (B.T @ P_di).ravel()
    gain_err = float(np.max(np.abs(K_di - [1.0, math.sqrt(3.0)])))

    worst_res = 0.0
    worst_abscissa = -np.inf
    for beta_deg in BETA_GRID_DEG:
        beta = DEG(beta_deg)
        for w in (0.0, omega_star(beta, P)):
            spec, _, _ = build_equilibrium(beta, w, P)
            g = synthesize(spec, P)
            model = linearize(spec, P)
            worst_res = max(worst_res, g.care_residual)
            abscissa = float(np.max(np.real(
                np.linalg.eigvals(model.A - model.B @ g.K))))
            worst_abscissa = max(worst_abscissa, abscissa)
    ok = gain_err < 1e-6 and worst_res < 1e-8 and worst_abscissa < 0.0
    report(6, ok, f"double-integrator gain error = {gain_err:.2e} (<1e-6), "
                  f"worst residual = {worst_res:.2e} (<1e-8), worst closed-loop "
                  f"abscissa = {worst_abscissa:.4f} (<0) over ten operating points")


def test_criterion_7_dynamics_oracles():
    advance, tensions = _bind(P)[:2]

    # free fall: slack tethers, zero thrust, 1 s from rest
    state = make_state(
        x_p=vec3(0, 0, 1.5), v_p=vec3(0, 0, 0),
        x_1=vec3(0.3, 0, 1.9), v_1=vec3(0, 0, 0),
        x_2=vec3(-0.3, 0, 1.9), v_2=vec3(0, 0, 0),
        T_act_1=vec3(0, 0, 0), T_act_2=vec3(0, 0, 0))
    cmd = [0.0] * 6
    # a decimation past the 2000 steps stores no state, and the start's
    # tensions take the two slots
    y = advance(list(state), cmd, 0, 2000, 5e-4, array("d"), 2001, array("d", bytes(16)))
    fall_err = abs((y[2] - 1.5) - (-0.5 * P.g))

    # momentum conservation with gravity and thrust removed
    p0 = SystemParams(g=0.0)
    _, eq_state, _ = build_equilibrium(DEG(45), 0.0, P)
    drift_state = replaced(eq_state, v_p=vec3(0.3, -0.2, 0.1),
                           T_act_1=vec3(0, 0, 0), T_act_2=vec3(0, 0, 0))
    traj = simulate(drift_state, lambda y, t: cmd, lambda t: 0.0, p0,
                    duration=1.0, output_decimation=100)
    v_p, v_1, v_2 = (part(traj.states, name) for name in ("v_p", "v_1", "v_2"))
    momentum = p0.m_p * v_p + p0.m_q * v_1 + p0.m_q * v_2
    mom_drift = float(np.linalg.norm(momentum - momentum[0], axis=1).max())

    # RK4 order by step halving, from a payload sag with the thrusts 10%
    # above their commands, so the closed-form thrust lag is in the check;
    # its premise, both ropes taut at every step, is asserted by name
    _, st45, cmd45 = build_equilibrium(DEG(45), 0.0, P)
    st45 = replaced(st45, x_p=part(st45, "x_p") + vec3(0, 0, -0.005),
                    T_act_1=1.1 * np.array(cmd45[0:3]), T_act_2=1.1 * np.array(cmd45[3:6]))

    def integrate(dt):
        steps = int(round(0.25 / dt))
        tension = array("d", bytes(16 * (steps + 1)))
        y = advance(list(st45), cmd45, 0, steps, dt, array("d"), 1, tension)
        (tension[-2], _), (tension[-1], _) = tensions(y)
        slack = np.argwhere(np.frombuffer(tension).reshape(-1, 2) <= 0.0)
        assert not len(slack), f"rope {slack[0][1] + 1} slack at step {slack[0][0]} of dt = {dt}"
        return np.array(y)

    ref = integrate(1.25e-4)
    e1 = np.linalg.norm(integrate(1e-3) - ref)
    e2 = np.linalg.norm(integrate(5e-4) - ref)
    order = math.log2(e1 / e2)

    ok = fall_err < 1e-9 and mom_drift < 1e-8 and 3.7 <= order <= 4.3
    report(7, ok, f"free-fall error = {fall_err:.2e} m (<1e-9), momentum drift "
                  f"= {mom_drift:.2e} (<1e-8), observed RK4 order = {order:.3f} "
                  f"(in [3.7, 4.3])")


def test_criterion_8_regulation():
    results = []
    for mode in ("static", "rotating"):
        spec = ScenarioSpec(mode=mode, beta=DEG(45), spin_up=0.0, hover=15.0,
                            spin_down=0.0, metering_window=5.0, perturb_payload=0.2)
        traj, _ = run_scenario(spec, P)
        dev = np.linalg.norm(part(traj.states, "x_p") - ORIGIN, axis=1)
        settled = bool(np.all(dev[traj.t >= 10.0] < 0.02))
        t_max = 4.0 * P.m_q * P.g
        n1 = np.linalg.norm(traj.commands[:, 0:3], axis=1)
        n2 = np.linalg.norm(traj.commands[:, 3:6], axis=1)
        unsaturated = bool(max(n1.max(), n2.max()) < t_max - 1e-9)
        results.append((mode, settled, unsaturated,
                        float(dev[traj.t >= 10.0].max())))
    ok = all(settled and unsat for _, settled, unsat, _ in results)
    detail = ", ".join(
        f"{mode}: within {worst * 100:.2f} cm after 10 s, "
        f"saturation-free = {unsat}" for mode, settled, unsat, worst in results)
    report(8, ok, detail + " (limit 2 cm)")
