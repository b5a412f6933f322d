import hashlib
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from spinlift import harness
from spinlift.equilibrium import (build_equilibrium, omega_star, power, sweep_beta,
                                  sweep_omega, thrust_magnitude)
from spinlift.harness import (ScenarioSpec, SimulationFailed, compare_modes,
                              comparison_svg, comparison_to_csv, run_scenario,
                              sweep_beta_svg, sweep_omega_svg)
from spinlift.model import SystemParams
from spinlift import svgplot
from spinlift.svgplot import grouped_bar_chart, line_chart
from spinlift.dynamics import trajectory_to_csv

P = SystemParams()
DEG = math.radians


def short_spec(mode, beta_deg, **kwargs):
    base = dict(mode=mode, beta=DEG(beta_deg), hover=12.0, metering_window=6.0,
                spin_up=8.0 if mode == "rotating" else 0.0, spin_down=0.0)
    base.update(kwargs)
    return ScenarioSpec(**base)


class TestScenarioSpec:
    def test_metering_window_bounded_by_hover(self):
        for window in (11.0, True, "5", math.nan):
            with pytest.raises(ValueError, match="metering window must be positive"):
                ScenarioSpec(mode="static", beta=0.5, hover=10.0, metering_window=window)

    def test_mode_checked(self):
        with pytest.raises(ValueError):
            ScenarioSpec(mode="sideways", beta=0.5)

    def test_negative_phase_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(mode="static", beta=0.5, spin_up=-1.0)

    @pytest.mark.parametrize("name", ["spin_up", "hover", "spin_down", "perturb_payload"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, True, "40"])
    def test_nonfinite_phase_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ScenarioSpec(mode="rotating", beta=0.5, **{name: value})

    @pytest.mark.parametrize("dec", [2.5, True, 0])
    def test_output_decimation_must_be_positive_int(self, dec):
        # refused when the flight is specified, before any gain synthesis:
        # not truncated (2.5), not read as 1 (True), not left to simulate (0)
        with pytest.raises(ValueError, match="output_decimation"):
            ScenarioSpec(mode="static", beta=0.5, output_decimation=dec)


class TestRunScenario:
    def test_static_power_matches_analytic(self):
        spec = short_spec("static", 30.0)
        _, summary = run_scenario(spec, P)
        analytic = power(thrust_magnitude(DEG(30), 0.0, P), P).P_total
        assert abs(summary.mean_P_total / analytic - 1.0) < 0.02

    def test_zero_perturbation_static_stays_put(self):
        spec = short_spec("static", 30.0)
        traj, summary = run_scenario(spec, P)
        assert summary.max_payload_deviation < 1e-3

    def test_rotating_run_near_vertical_thrust(self):
        spec = short_spec("rotating", 60.0, hover=20.0, metering_window=8.0)
        _, summary = run_scenario(spec, P)
        assert math.degrees(summary.mean_tilt_1) < 1.0
        assert math.degrees(summary.mean_tilt_2) < 1.0
        analytic = power(thrust_magnitude(DEG(60), omega_star(DEG(60), P), P), P).P_total
        assert abs(summary.mean_P_total / analytic - 1.0) < 0.02

    def test_rotating_formation_angle_held(self):
        spec = short_spec("rotating", 45.0, hover=16.0, metering_window=6.0)
        _, summary = run_scenario(spec, P)
        assert abs(math.degrees(summary.mean_beta_measured) - 45.0) < 0.5
        assert summary.mean_omega_achieved == pytest.approx(
            omega_star(DEG(45), P), rel=1e-3)

    def test_summary_contract(self):
        spec = short_spec("static", 40.0)
        _, summary = run_scenario(spec, P)
        assert summary.std_P_total >= 0.0
        assert summary.n_samples > 0
        assert summary.phase_durations["hover"] == 12.0

    @pytest.mark.parametrize("ramp", [8.0, 0.0])
    def test_steep_rotating_flight_refused(self, ramp):
        # the 9.8 N spinning thrust fits under T_max = 27.5 N, but the
        # 29.7 N static thrust at the rest end of the schedule does not
        spec = short_spec("rotating", 84.0, spin_up=ramp, spin_down=ramp)
        with pytest.raises(ValueError, match="T_max"):
            run_scenario(spec, P)

    def test_rotating_theta_column_is_the_schedule(self, monkeypatch):
        # the frame angle is not integrated: the stored column is the
        # schedule's closed form, and the controller sees the 24 physical
        # scalars only
        real_step = harness.control_step
        seen = []

        def recording_step(y, cfg, t):
            seen.append((y, cfg.profile))
            return real_step(y, cfg, t)

        monkeypatch.setattr(harness, "control_step", recording_step)
        spec = short_spec("rotating", 60.0, spin_up=1.0, hover=2.0, spin_down=1.0,
                          metering_window=1.0, output_decimation=7)
        traj, _ = run_scenario(spec, P)
        profile = seen[0][1]
        assert profile.omega_target == omega_star(DEG(60), P)
        assert traj.theta.tolist() == [profile.theta(t) for t in traj.t.tolist()]
        assert traj.theta[-1] > 0.0
        assert all(len(y) == 24 and all(type(v) is float for v in y) for y, _ in seen)

    # a blow-up at an edge time belongs to the phase that ends there: the
    # 1e300 N bomb issued at the 0.5 s tick blows up one step later, at
    # 1001 dt, which is also the end of the spin-up
    EDGE = 1001 * P.dt_physics

    @pytest.mark.parametrize("mode, spin_up, t_bomb, phase, t_range", [
        ("rotating", 1.0, 0.5, "spin_up", (0.5, 1.0)),
        ("rotating", 1.0, 1.5, "hover", (1.5, 3.0)),
        ("rotating", 1.0, 3.5, "spin_down", (3.5, 4.0)),
        ("static", 1.0, 1.5, "hover", (1.5, 2.0)),
        ("rotating", EDGE, 0.5, "spin_up", (EDGE, EDGE)),
    ], ids=["rotating-spin_up", "rotating-hover", "rotating-spin_down", "static-hover",
            "rotating-edge"])
    def test_blowup_names_its_phase(self, monkeypatch, mode, spin_up, t_bomb, phase,
                                    t_range):
        real_step = harness.control_step

        def bomb(y, cfg, t):
            if t < t_bomb:
                return real_step(y, cfg, t)
            return [0.0, 0.0, 1e300, 0.0, 0.0, 1e300]

        monkeypatch.setattr(harness, "control_step", bomb)
        spec = short_spec(mode, 60.0, spin_up=spin_up, hover=2.0, spin_down=1.0,
                          metering_window=1.0)
        with pytest.raises(SimulationFailed, match=rf"\(phase: {phase}\)") as info:
            run_scenario(spec, P)
        low, high = t_range
        assert low <= info.value.t <= high

    def test_determinism_identical_csv(self):
        spec = short_spec("static", 35.0, hover=2.0, metering_window=1.0)
        a = trajectory_to_csv(run_scenario(spec, P)[0])
        b = trajectory_to_csv(run_scenario(spec, P)[0])
        assert a == b

    def test_perturbed_run_regulates(self):
        spec = short_spec("static", 45.0, hover=12.0, metering_window=4.0,
                          perturb_payload=0.2)
        traj, summary = run_scenario(spec, P)
        # the spawn is the equilibrium moved by exactly the offset in x, at
        # the payload and both vehicles (flat indices 0, 6 and 12)
        _, spawn, _ = build_equilibrium(DEG(45.0), 0.0, P)
        offset = np.zeros(24)
        offset[[0, 6, 12]] = 0.2
        assert traj.states[0].tolist() == (np.array(spawn) + offset).tolist()
        dev = np.linalg.norm(traj.x_p - np.array([0.0, 0.0, 1.5]), axis=1)
        assert dev[0] == pytest.approx(0.2, abs=1e-12)
        assert dev[-1] < 0.02


@pytest.fixture(scope="module")
def table():
    return compare_modes([DEG(30), DEG(45), DEG(60)], P,
                         hover=16.0, metering_window=6.0,
                         spin_up=8.0, spin_down=0.0)


class TestCompareModes:
    def test_saving_increases_with_beta(self, table):
        savings = [row.saving for row in table.rows]
        assert all(s is not None for s in savings)
        assert savings == sorted(savings)

    def test_sixty_degree_saving(self, table):
        row = table.rows[-1]
        assert 100.0 * row.saving == pytest.approx(16.4, abs=1.0)

    def test_vertical_tethers_give_zero_saving(self):
        # at beta = 0 the two modes share one equilibrium
        table = compare_modes([0.0], P, hover=2.0, metering_window=1.0,
                              spin_up=2.0, spin_down=0.0)
        assert table.rows[0].saving == pytest.approx(0.0, abs=1e-12)

    def test_failed_cell_recorded_and_table_completes(self):
        table = compare_modes([DEG(30), DEG(95)], P, hover=2.0,
                              metering_window=1.0, spin_up=0.0, spin_down=0.0)
        assert table.rows[0].saving is not None
        assert table.rows[1].static_error is not None
        assert table.rows[1].saving is None

    def test_nonfinite_hover_recorded_in_rows(self):
        for hover in (math.inf, True, "40"):
            row = compare_modes([DEG(30)], P, hover=hover).rows[0]
            assert row.saving is None
            assert "hover must be finite" in row.static_error
            assert "hover must be finite" in row.rotating_error

    def test_csv_rendering(self, table):
        csv = comparison_to_csv(table)
        lines = csv.strip().split("\n")
        assert lines[0].startswith("beta_deg,P_static_mean_W")
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(30.0)


class TestMeteringWindow:
    def test_longer_hover_changes_mean_little(self):
        # steady state is reached: metering the last 20 s of an 80 s hover
        # instead of a 40 s hover moves the mean by far less than 0.1%
        spec40 = ScenarioSpec(mode="rotating", beta=DEG(45), hover=40.0,
                              metering_window=20.0, spin_up=8.0, spin_down=0.0)
        spec80 = ScenarioSpec(mode="rotating", beta=DEG(45), hover=80.0,
                              metering_window=20.0, spin_up=8.0, spin_down=0.0)
        _, s40 = run_scenario(spec40, P)
        _, s80 = run_scenario(spec80, P)
        assert abs(s80.mean_P_total / s40.mean_P_total - 1.0) < 1e-3


class TestSvg:
    def test_sweep_beta_chart_two_curves(self):
        grid = [DEG(d) for d in np.linspace(0, 75, 16)]
        static = sweep_beta(grid, "static", P)
        rotating = sweep_beta(grid, "rotating_opt", P)
        svg = sweep_beta_svg(static, rotating)
        ET.fromstring(svg)  # well-formed
        assert svg.count("<polyline") == 2
        assert "tether angle" in svg

    def test_sweep_omega_chart(self):
        results = [sweep_omega(DEG(d), np.linspace(0, 5, 21), P)
                   for d in (30, 45, 60)]
        svg = sweep_omega_svg(results)
        ET.fromstring(svg)
        assert svg.count("<polyline") == 3

    def test_deterministic_bytes(self):
        grid = [DEG(d) for d in np.linspace(10, 70, 7)]
        one = sweep_beta_svg(sweep_beta(grid, "static", P),
                             sweep_beta(grid, "rotating_opt", P))
        two = sweep_beta_svg(sweep_beta(grid, "static", P),
                             sweep_beta(grid, "rotating_opt", P))
        assert one == two

    def test_single_point_renders_marker(self):
        svg = line_chart([("only", [1.0], [2.0])], xlabel="x", ylabel="y")
        ET.fromstring(svg)
        assert "<circle" in svg

    @pytest.mark.parametrize("xs, ys", [
        ([0.0, 1e-7], [40.0, math.nextafter(40.0, math.inf)]),  # one ulp apart
        ([0.0, 5e-324], [40.0, 40.0]),  # a subnormal span
        ([5e-324, 5e-324], [-3.0, -3.0]),  # flat and subnormal
        ([0.0, 1.0], [-1e306, 1e306]),
    ], ids=["ulp", "subnormal", "flat_subnormal", "wide"])
    def test_narrow_or_wide_data_charts_with_distinct_ticks(self, xs, ys):
        for values in (xs, ys):
            lo, hi = svgplot._range(values)
            ticks = svgplot._nice_ticks(lo, hi)
            assert lo <= min(values) <= max(values) <= hi
            assert 2 <= len(set(ticks)) == len(ticks) <= 12
            slack = 1e-9 * (hi - lo)  # the end ticks may round past a limit
            assert all(lo - slack <= t <= hi + slack for t in ticks)
        ET.fromstring(line_chart([("s", xs, ys)], xlabel="x", ylabel="y"))

    @pytest.mark.parametrize("ys", [[132.5, 1.75e308], [-8.6e307, 8.6e307], [0.0, math.inf],
                                    [1e307, 1e307]])
    def test_data_beyond_float_range_refused(self, ys):
        with pytest.raises(ValueError, match="cannot chart values"):
            line_chart([("s", [0.0, 1.0], ys)], xlabel="x", ylabel="y")

    @pytest.mark.parametrize("top", [1.7e308, 9.5e306])
    def test_bars_beyond_float_range_refused(self, top):
        with pytest.raises(ValueError, match="cannot chart values from 0 to"):
            grouped_bar_chart(["a"], [("g", [top], [0.0])], xlabel="x", ylabel="y")

    @pytest.mark.parametrize("top", [5e-324, 1e-305])
    def test_bars_too_low_for_ticks_chart_on_unit_axis(self, top):
        svg = grouped_bar_chart(["a"], [("g", [top], [0.0])], xlabel="x", ylabel="y")
        ET.fromstring(svg)
        assert ">1</text>" in svg

    def test_comparison_chart_bytes(self):
        # pinned: the bar chart's y axis is 1.08 times the tallest bar + whisker
        rows = [harness.ComparisonRow(DEG(b), 100.0 + b, 0.01 * b, 90.0 + b / 2, 0.5, 0.1)
                for b in (15, 30, 45)]
        rows.append(harness.ComparisonRow(DEG(60), None, None, 120.0, 0.0, None, "refused"))
        svg = comparison_svg(harness.ComparisonTable(rows))
        assert hashlib.sha256(svg.encode()).hexdigest() == (
            "550db49f8bcf078dc67881b704a5461fd1fbbeb0aae4aca5a1768d6fc74f4358")

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            line_chart([], xlabel="x", ylabel="y")
        with pytest.raises(ValueError):
            grouped_bar_chart([], [], xlabel="x", ylabel="y")

    @pytest.mark.parametrize("build", [
        lambda: sweep_beta_svg(sweep_beta([DEG(95)], "static", P),
                               sweep_beta([DEG(95)], "rotating_opt", P)),
        lambda: sweep_omega_svg([sweep_omega(DEG(45), [math.nan], P)]),
        lambda: sweep_omega_svg([]),
        lambda: comparison_svg(compare_modes([DEG(95)], P, hover=2.0, metering_window=1.0)),
    ], ids=["sweep_beta", "sweep_omega", "sweep_omega_no_curves", "comparison_all_failed"])
    def test_chart_builders_refuse_empty_input(self, build):
        with pytest.raises(ValueError, match="no data to plot"):
            build()

    def test_comparison_chart(self):
        rows = compare_modes([DEG(30), DEG(60)], P, hover=2.0,
                             metering_window=1.0, spin_up=0.0, spin_down=0.0)
        svg = comparison_svg(rows)
        ET.fromstring(svg)
        assert svg.count("<rect") >= 4
