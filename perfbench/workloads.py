"""The three benchmark workloads: their inputs, their timed work and the
checks on their outputs.

``setup`` builds a workload's inputs from the seed (this is what ``setup_s``
measures); ``execute`` runs the timed work, records the process's peak
memory, and only then checks every output, so the checks' own memory never
counts towards ``peak_rss_mb``.
All library calls go through module attributes (``harness.compare_modes``,
``lqr.synthesize``, ...) so that the traced run can wrap them from outside
the library.
"""

from __future__ import annotations

import math
import resource
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spinlift import control, dynamics, equilibrium, harness, lqr
from spinlift.model import SystemParams, default_thrust_limit

WORKLOADS = ("compare_grid", "design_sweep", "fly_trace")

# Seconds of one unit of work at the reference machine's speed (2-core Xeon,
# Python 3.11), rounded from its measured wall_norm_s. A run repeats its unit
# round(seconds / unit) times, at least once, so the amount of work -- and
# every traced count -- depends only on --seconds and --seed, never on how
# fast the host happens to be.
UNIT_SECONDS = {"compare_grid": 15.5, "design_sweep": 1.25, "fly_trace": 9.0}

# The paper's acceptance protocol: 40 s hover, last 20 s metered, 8 s ramps.
PAPER_PROTOCOL = {"hover": 40.0, "metering_window": 20.0, "spin_up": 8.0, "spin_down": 8.0}
TINY_PROTOCOL = {"hover": 12.0, "metering_window": 4.0, "spin_up": 3.0, "spin_down": 3.0}

DESIGN_BETAS_DEG = tuple(range(0, 90, 2))          # 0, 2, ..., 88
TINY_DESIGN_BETAS_DEG = (0, 30, 60, 88)
OMEGA_MULTIPLES = (0.0, 0.5, 1.0, 1.5)             # times omega_star(beta)
# Seeded parameter draws: relative half-widths of the uniform errors.
DRAW_SPREAD = {"m_p": 0.20, "k_T": 0.30, "tau_att": 0.20}
SWEEP_BETA_POINTS = 151                              # 0..75 deg, as in the CLI
SWEEP_OMEGA_POINTS = 601                             # 0..6 rad/s at 60 deg
SWEEP_OMEGA_MAX = 6.0

SAVING_TARGET_PCT = 16.4
SAVING_TOL_PCT = 1.0
POWER_TOL = 0.02
TILT_LIMIT_DEG = 1.0
FLAT_TOL = 1e-9


@dataclass
class Plan:
    """A workload's inputs, fixed by (workload, seed, seconds, scale)."""

    workload: str
    reps: int
    params: SystemParams
    betas_deg: tuple = ()
    protocol: dict = field(default_factory=dict)
    param_sets: list = field(default_factory=list)   # design_sweep: (label, params)


@dataclass
class Outcome:
    """What a run did and whether its outputs passed their checks."""

    attempted: int = 0
    failed: int = 0                                  # outputs that failed a check
    refused: int = 0                                 # documented refusals (SynthesisError, ...)
    checks: dict = field(default_factory=dict)      # check name -> passed
    units: list = field(default_factory=list)        # (begin, end) WorkClock times per unit
    metrics: dict = field(default_factory=dict)     # name -> (value, unit)
    details: dict = field(default_factory=dict)
    peak_rss_mb: float = math.nan                    # at the end of the timed work

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    def check(self, name: str, passed: bool) -> bool:
        self.checks[name] = self.checks.get(name, True) and bool(passed)
        return bool(passed)

    def timed_work_done(self) -> None:
        """Record the peak resident memory so far (``ru_maxrss``, a high-water
        mark); call it after the timed work and before any check."""
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(workload: str, seed: int, seconds: float, scale: str = "full") -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    tiny = scale == "tiny"
    reps = 1 if tiny else max(1, round(seconds / UNIT_SECONDS[workload]))
    params = SystemParams()
    if workload == "compare_grid":
        betas = (60.0,) if tiny else harness.DEFAULT_BETA_GRID_DEG
        return Plan(workload, reps, params, betas_deg=tuple(betas),
                    protocol=TINY_PROTOCOL if tiny else PAPER_PROTOCOL)
    if workload == "fly_trace":
        return Plan(workload, reps, params, betas_deg=(60.0,),
                    protocol=TINY_PROTOCOL if tiny else PAPER_PROTOCOL)
    n_sets = 2 if tiny else reps
    # Latin-hypercube draws: each factor's range is cut into n_sets - 1
    # strata and every stratum is drawn once, so a run always covers the
    # whole range and only the pairing of the factors depends on the seed.
    rng = np.random.default_rng(seed)
    n_draws = n_sets - 1
    factors = {name: 1.0 + w * (2.0 * (rng.permutation(n_draws) + rng.uniform(size=n_draws))
                                / n_draws - 1.0)
               for name, w in DRAW_SPREAD.items()}
    sets = [("nominal", params)]
    for i in range(n_draws):
        drawn = {name: getattr(params, name) * float(f[i]) for name, f in factors.items()}
        label = "draw" + "".join(f" {name}={value:.6g}" for name, value in drawn.items())
        sets.append((label, SystemParams(**drawn)))
    return Plan(workload, n_sets, params,
                betas_deg=TINY_DESIGN_BETAS_DEG if tiny else DESIGN_BETAS_DEG,
                param_sets=sets)


def execute(plan: Plan, tracer, clock, scratch: Path) -> Outcome:
    """Run the timed work (traced when ``tracer`` is given), then check it.

    Durations come from ``clock`` (a ``speed.WorkClock``). The tracer is
    removed before the checks, so checks neither pay for tracing nor add to
    any traced count.
    """
    return {"compare_grid": _compare_grid, "design_sweep": _design_sweep,
            "fly_trace": _fly_trace}[plan.workload](plan, tracer, clock, scratch)


def _analytic_power(beta: float, omega: float, params: SystemParams) -> float:
    return equilibrium.power(equilibrium.thrust_magnitude(beta, omega, params), params).P_total


def _check_flight(out: Outcome, spec, summary, params: SystemParams) -> bool:
    """Metered power within 2% of analytic; rotating tilt below 1 degree."""
    omega = equilibrium.omega_star(spec.beta, params) if spec.mode == "rotating" else 0.0
    error = abs(summary.mean_P_total / _analytic_power(spec.beta, omega, params) - 1.0)
    ok = out.check("metered_power_within_2pct", error < POWER_TOL)
    if spec.mode == "rotating":
        tilt = max(math.degrees(summary.mean_tilt_1), math.degrees(summary.mean_tilt_2))
        ok = out.check("rotating_tilt_below_1deg", tilt < TILT_LIMIT_DEG) and ok
    return ok


def _simulated_seconds(summary) -> float:
    return float(sum(summary.phase_durations.values()))


def _compare_grid(plan: Plan, tracer, clock, scratch: Path) -> Outcome:
    out = Outcome()
    flights = []  # (spec, summary, host seconds) of every run_scenario call
    real_run_scenario = harness.run_scenario

    def run_scenario(spec, params, *args, **kwargs):
        t0 = clock.now()
        result = real_run_scenario(spec, params, *args, **kwargs)
        flights.append((spec, result[1], clock.now() - t0))
        return result

    # compare_modes looks run_scenario up in its module, so this records
    # every flight's summary and host time for the checks below.
    harness.run_scenario = run_scenario
    try:
        if tracer is not None:
            tracer.install()
        outputs = []
        betas = [math.radians(b) for b in plan.betas_deg]
        for _ in range(plan.reps):
            begin = clock.now()
            table = harness.compare_modes(betas, plan.params, **plan.protocol)
            csv_text = harness.comparison_to_csv(table)
            svg_text = harness.comparison_svg(table)
            out.units.append((begin, clock.now()))
            outputs.append((table, csv_text, svg_text))
    finally:
        if tracer is not None:
            tracer.uninstall()
        harness.run_scenario = real_run_scenario
    out.timed_work_done()

    for table, csv_text, svg_text in outputs:
        out.check("all_rows_flew", all(r.saving is not None for r in table.rows))
        row60 = [r for r in table.rows if abs(math.degrees(r.beta) - 60.0) < 1e-9]
        if out.check("grid_has_60deg", len(row60) == 1) and row60[0].saving is not None:
            saving = 100.0 * row60[0].saving
            out.details.setdefault("saving_60deg_pct", []).append(saving)
            out.check("saving_60deg_within_16.4pm1",
                      abs(saving - SAVING_TARGET_PCT) <= SAVING_TOL_PCT)
        lines = csv_text.strip().split("\n")
        out.check("csv_rows", len(lines) == 1 + len(table.rows))
        out.check("csv_parses", all(math.isfinite(float(cell)) for line in lines[1:]
                                    for cell in line.split(",")[:6] if cell))
        out.check("svg_complete", svg_text.lstrip().startswith("<svg")
                  and svg_text.rstrip().endswith("</svg>"))
    # a flight that raised is recorded in its table row and never reaches
    # ``flights``, so it counts as failed here
    out.attempted = 2 * len(plan.betas_deg) * plan.reps
    passed = sum(_check_flight(out, spec, summary, plan.params)
                 for spec, summary, _ in flights)
    out.failed = out.attempted - passed
    sim_s = sum(_simulated_seconds(summary) for _, summary, _ in flights)
    host_s = sum(seconds for _, _, seconds in flights)
    out.metrics["sim_rt_factor"] = (sim_s / host_s, "1")
    out.details["flight_seconds"] = [
        {"mode": spec.mode, "beta_deg": math.degrees(spec.beta),
         "simulated_s": _simulated_seconds(summary), "host_s": seconds}
        for spec, summary, seconds in flights]
    return out


def _fly_trace(plan: Plan, tracer, clock, scratch: Path) -> Outcome:
    out = Outcome()
    params = plan.params
    spec = harness.ScenarioSpec(mode="rotating", beta=math.radians(plan.betas_deg[0]),
                                output_decimation=1, **plan.protocol)
    duration = spec.spin_up + spec.hover + spec.spin_down
    expected_rows = int(round(duration / params.dt_physics)) + 1
    t_max = default_thrust_limit(params)
    sim_s = host_s = export_s = 0.0
    flights = []  # (summary, trajectory CSV path, command log CSV path)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        if tracer is not None:
            tracer.install()
        try:
            for rep in range(plan.reps):
                traj_path = Path(tmp) / f"trajectory-{rep}.csv"
                log_path = Path(tmp) / f"command_log-{rep}.csv"
                begin = clock.now()
                traj, summary = harness.run_scenario(spec, params)
                t1 = clock.now()
                traj_path.write_text(dynamics.trajectory_to_csv(traj))
                log_path.write_text(control.command_log_to_csv(traj, t_max))
                end = clock.now()
                del traj
                out.units.append((begin, end))
                sim_s += _simulated_seconds(summary)
                host_s += t1 - begin
                export_s += end - t1
                flights.append((summary, traj_path, log_path))
        finally:
            if tracer is not None:
                tracer.uninstall()
        out.timed_work_done()

        for summary, traj_path, log_path in flights:
            out.attempted += 1
            ok = _check_flight(out, spec, summary, params)
            for name, path, width in (("trajectory", traj_path, 28), ("command_log", log_path, 8)):
                data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
                ok = out.check(f"{name}_csv_rows", data.shape == (expected_rows, width)) and ok
                ok = out.check(f"{name}_csv_finite", bool(np.all(np.isfinite(data)))) and ok
                del data
            out.failed += not ok
    out.metrics["sim_rt_factor"] = (sim_s / host_s, "1")
    out.metrics["export_s"] = (export_s / plan.reps, "s")
    out.details["expected_rows"] = expected_rows
    return out


def _design_sweep(plan: Plan, tracer, clock, scratch: Path) -> Outcome:
    out = Outcome()
    latencies = []
    gains = []     # (set index, spec, K, residual)
    refused = []   # (set index, beta_deg, omega multiple, error type, message)
    sweeps = []    # (set index, static, rotating, omega sweep, csv texts)
    beta_grid = np.radians(np.linspace(0.0, 75.0, SWEEP_BETA_POINTS))
    omega_grid = np.linspace(0.0, SWEEP_OMEGA_MAX, SWEEP_OMEGA_POINTS)
    if tracer is not None:
        tracer.install()
    try:
        for index, (_, params) in enumerate(plan.param_sets):
            begin = clock.now()
            for beta_deg in plan.betas_deg:
                beta = math.radians(beta_deg)
                w_star = equilibrium.omega_star(beta, params)
                for multiple in OMEGA_MULTIPLES:
                    spec, _, _ = equilibrium.build_equilibrium(beta, multiple * w_star, params)
                    t0 = clock.now()
                    try:
                        result = lqr.synthesize(spec, params)
                    except (lqr.SynthesisError, lqr.LinearizationError) as exc:
                        refused.append((index, beta_deg, multiple, type(exc).__name__,
                                        str(exc).split("\n")[0][:160]))
                    else:
                        gains.append((index, spec, result.K, result.care_residual))
                    latencies.append(clock.now() - t0)
            static = equilibrium.sweep_beta(beta_grid, "static", params)
            rotating = equilibrium.sweep_beta(beta_grid, "rotating_opt", params)
            omega = equilibrium.sweep_omega(math.radians(60.0), omega_grid, params)
            csvs = [equilibrium.sweep_to_csv(r, params) for r in (static, rotating, omega)]
            out.units.append((begin, clock.now()))
            sweeps.append((index, static, rotating, omega, csvs))
    finally:
        if tracer is not None:
            tracer.uninstall()
    out.timed_work_done()

    for index, spec, K, residual in gains:
        params = plan.param_sets[index][1]
        model = lqr.linearize(spec, params)
        abscissa = float(np.max(np.real(np.linalg.eigvals(model.A - model.B @ K))))
        ok = out.check("gain_closed_loop_hurwitz", abscissa < 0.0)
        ok = out.check("gain_residual_finite", math.isfinite(residual)) and ok
        out.failed += not ok
    for index, static, rotating, omega, csvs in sweeps:
        params = plan.param_sets[index][1]
        totals = np.array([r.P_total for r in rotating.reports])
        out.check("sweeps_complete", not (static.failures or rotating.failures or omega.failures))
        out.check("rotating_curve_flat_1e-9",
                  (totals.max() - totals.min()) / totals[0] < FLAT_TOL)
        w_totals = np.array([r.P_total for r in omega.reports])
        w_star = equilibrium.omega_star(math.radians(60.0), params)
        out.check("sweep_omega_min_at_omega_star",
                  int(np.argmin(w_totals)) == int(np.argmin(np.abs(omega_grid - w_star))))
        out.check("sweep_csv_rows", [c.count("\n") for c in csvs]
                  == [1 + SWEEP_BETA_POINTS, 1 + SWEEP_BETA_POINTS, 1 + SWEEP_OMEGA_POINTS])

    points = len(latencies)
    out.attempted = points
    lat_ms = np.array(latencies) * 1e3
    out.metrics["synth_points_per_s"] = (points / float(np.sum(latencies)), "1/s")
    out.metrics["synth_p50_ms"] = (float(np.percentile(lat_ms, 50)), "ms")
    out.metrics["synth_p95_ms"] = (float(np.percentile(lat_ms, 95)), "ms")
    out.refused = len(refused)
    out.details["param_sets"] = [label for label, _ in plan.param_sets]
    out.details["refused_points"] = [
        {"param_set": plan.param_sets[i][0], "beta_deg": b, "omega_over_star": m,
         "error": kind, "message": msg} for i, b, m, kind, msg in refused]
    return out
