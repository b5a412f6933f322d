import pytest

from spinlift import harness
from spinlift.cli import main
from spinlift.model import SystemParams, params_to_text


def test_equilibrium_prints_operating_point(capsys, tmp_path):
    code = main(["equilibrium", "--beta", "60", "--opt"])
    out = capsys.readouterr().out
    assert code == 0
    assert "omega_star      = 2.89975" in out
    assert "tension         = 5.886" in out
    assert "power total     = 110.75" in out


def test_equilibrium_static_default(capsys):
    code = main(["equilibrium", "--beta", "60"])
    out = capsys.readouterr().out
    assert code == 0
    assert "thrust/vehicle  = 11.0553" in out
    assert "tilt            = 27.457" in out


def test_usage_error_exit_code(capsys):
    assert main(["equilibrium"]) == 1          # missing --beta
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


def test_singular_angle_is_model_error(capsys):
    assert main(["equilibrium", "--beta", "90"]) == 2
    assert "model error" in capsys.readouterr().err


@pytest.mark.parametrize("omega", ["inf", "nan", "1e160"])
def test_nonfinite_spin_rate_is_model_error(omega, capsys):
    assert main(["equilibrium", "--beta", "60", "--omega", omega]) == 2
    assert "omega_C" in capsys.readouterr().err


def test_bad_params_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("m_q = 0\n")
    assert main(["equilibrium", "--beta", "30", "--params", str(cfg)]) == 2
    assert "m_q" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["equilibrium", "--beta", "30"],
    ["sweep-beta", "--min", "0", "--max", "60", "--n", "3", "--mode", "static"],
    ["sweep-omega", "--beta", "60", "--max-omega", "4", "--n", "3"],
    ["fly", "--mode", "rotating", "--beta", "60"],
    ["compare", "--betas", "60"],
], ids=lambda argv: argv[0])
def test_control_period_off_step_grid_refused_up_front(argv, tmp_path, capsys):
    # 1/(30 Hz * 0.5 ms) = 66.67 physics steps per control period: every
    # subcommand refuses the config before it writes or computes anything
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("f_ctrl = 30\n")
    out = tmp_path / "out"
    svg = [] if argv[0] in ("equilibrium", "fly") else ["--svg", str(out / "chart.svg")]
    assert main([*argv, *svg, "--params", str(cfg), "--out", str(out)]) == 2
    assert "f_ctrl" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", [
    f"N_p = {10**400}\n", f"N_p = {10**308}\n", "rho = 1e308\n", "r_p = 1e-320\n",
    "r_p = 1e-300\nrho = 1e-300\n",
], ids=["N_p=1e400", "N_p=1e308", "rho=1e308", "r_p=1e-320", "r_p=rho=1e-300"])
@pytest.mark.parametrize("argv", [
    ["equilibrium", "--beta", "30"],
    ["fly", "--mode", "static", "--beta", "30", "--duration", "1"],
], ids=lambda argv: argv[0])
def test_rotor_constant_out_of_range_refused(argv, config, tmp_path, capsys):
    # the power law's constant r_p*sqrt(2*pi*rho*N_p) overflows, underflows
    # or has an infinite reciprocal: refused before anything is computed
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert main([*argv, "--params", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "r_p, rho and N_p" in captured.err and captured.out == ""
    assert not out.exists()


def test_control_period_longer_than_metering_window_refused(tmp_path, capsys):
    # 1/(1e-16 Hz * 0.5 ms) = 2e19 steps per control period: the flight
    # would run open loop and meter one sample (simulate's int64 path is
    # tested in test_dynamics)
    cfg = tmp_path / "slow.cfg"
    cfg.write_text("f_ctrl = 1e-16\n")
    out = tmp_path / "out"
    assert main(["fly", "--mode", "static", "--beta", "30", "--duration", "1",
                 "--params", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "metering window 1.0 s holds fewer than two control ticks" in captured.err
    assert "f_ctrl = 1e-16 Hz" in captured.err and captured.out == ""
    assert not out.exists()


def test_params_file_round_trip(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text(params_to_text(SystemParams(m_p=1.2)))
    code = main(["equilibrium", "--beta", "0", "--params", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    # tension = m_p * g / 2 for vertical tethers
    assert f"tension         = {1.2 * 9.81 / 2:.6g}" in out


def test_sweep_beta_writes_csv_and_svg(tmp_path, capsys):
    svg_path = tmp_path / "chart.svg"
    code = main(["sweep-beta", "--min", "0", "--max", "75", "--n", "16",
                 "--mode", "rotating", "--out", str(tmp_path),
                 "--svg", str(svg_path)])
    assert code == 0
    csv_text = (tmp_path / "sweep_beta_rotating.csv").read_text()
    assert csv_text.startswith("beta_deg,omega_rad_s")
    assert len(csv_text.strip().split("\n")) == 17
    assert svg_path.read_text().startswith("<svg")


def test_sweep_omega_csv(tmp_path):
    code = main(["sweep-omega", "--beta", "45", "--max-omega", "5",
                 "--n", "11", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "sweep_omega.csv").read_text().strip().split("\n")
    assert len(lines) == 12


@pytest.mark.parametrize("max_omega", ["1e120", "1e200"])
def test_sweep_omega_skips_overflowing_points(max_omega, tmp_path, capsys):
    # on the grid 0, max/2, max the last two points overflow: at 1e200 rad/s
    # the spin rate squared, at 1e120 rad/s the power of the thrust
    code = main(["sweep-omega", "--beta", "45", "--max-omega", max_omega,
                 "--n", "3", "--out", str(tmp_path)])
    assert code == 0
    skipped = [line for line in capsys.readouterr().err.splitlines()
               if line.startswith("skipped grid point")]
    assert len(skipped) == 2
    lines = (tmp_path / "sweep_omega.csv").read_text().strip().split("\n")
    assert len(lines) == 2


def test_sweep_beta_reports_skipped_points_in_degrees(tmp_path, capsys):
    code = main(["sweep-beta", "--min", "80", "--max", "95", "--n", "3",
                 "--mode", "static", "--out", str(tmp_path)])
    assert code == 0
    assert ("skipped grid point 95: beta must be in [0, 90) deg (the tension "
            "diverges at 90 deg), got 95 deg (1.658" in capsys.readouterr().err)
    lines = (tmp_path / "sweep_beta_static.csv").read_text().strip().split("\n")
    assert len(lines) == 3


@pytest.mark.parametrize("command", [
    ["sweep-beta", "--min", "95", "--max", "100", "--n", "3", "--mode", "static"],
    ["sweep-omega", "--beta", "45", "--max-omega", "nan", "--n", "3"],
], ids=["sweep-beta", "sweep-omega"])
@pytest.mark.parametrize("svg", [False, True], ids=["csv", "svg"])
def test_sweep_with_every_point_skipped_writes_nothing(command, svg, tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.chdir(tmp_path)
    chart = ["--svg", "chart.svg"] if svg else []
    code = main([*command, "--out", str(tmp_path / "out"), *chart])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("skipped grid point") == 3
    assert "all 3 grid points were skipped" in err
    assert list(tmp_path.iterdir()) == []


def test_fly_short_static(tmp_path, capsys):
    code = main(["fly", "--mode", "static", "--beta", "30",
                 "--duration", "2", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert (tmp_path / "trajectory_static_beta30.csv").exists()
    assert (tmp_path / "command_log_static_beta30.csv").exists()
    assert "mean_P_total_W" in out


def test_fly_rotating_writes_outputs(tmp_path, capsys):
    code = main(["fly", "--mode", "rotating", "--beta", "45",
                 "--duration", "2", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert (tmp_path / "trajectory_rotating_beta45.csv").exists()
    assert "mean_omega_achieved_rad_s" in out


def test_fly_nonfinite_duration_is_model_error(tmp_path, capsys):
    code = main(["fly", "--mode", "static", "--beta", "30",
                 "--duration", "inf", "--out", str(tmp_path)])
    assert code == 2
    assert "hover must be finite" in capsys.readouterr().err


def test_fly_static_thrust_limit(tmp_path, capsys):
    # the static thrust at 84 deg exceeds the 4 m_q g limit; at 83 deg it fits
    code = main(["fly", "--mode", "static", "--beta", "84", "--out", str(tmp_path)])
    assert code == 2
    assert "T_max=27.468 N does not exceed the thrust 29.670 N" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    code = main(["fly", "--mode", "static", "--beta", "83", "--duration", "2",
                 "--out", str(tmp_path)])
    assert code == 0


@pytest.mark.parametrize("offset", ["1e17", "-1.5"])
def test_fly_perturbation_beyond_tether_refused(offset, tmp_path, capsys):
    # an offset larger than the tether length ell = 1 m is refused before
    # synthesis; at 1e17 m the vehicles' offsets would round away entirely
    code = main(["fly", "--mode", "static", "--beta", "30", "--duration", "1",
                 "--perturb", offset, "--out", str(tmp_path)])
    assert code == 2
    assert "perturb_payload must be within the tether length" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_fly_steep_rotating_refused(tmp_path, capsys):
    code = main(["fly", "--mode", "rotating", "--beta", "84", "--out", str(tmp_path)])
    assert code == 2
    assert "T_max" in capsys.readouterr().err


def test_fly_blowup_is_integration_failure(tmp_path, capsys, monkeypatch):
    real_step = harness.control_step

    def bomb(y, cfg, t):
        if t < 0.5:
            return real_step(y, cfg, t)
        return [0.0, 0.0, 1e300, 0.0, 0.0, 1e300]

    monkeypatch.setattr(harness, "control_step", bomb)
    code = main(["fly", "--mode", "static", "--beta", "30",
                 "--duration", "2", "--out", str(tmp_path)])
    assert code == 3
    assert "phase: hover" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["sweep-beta", "--min", "0", "--max", "75", "--mode", "static"],
    ["sweep-omega", "--beta", "45", "--max-omega", "5"],
], ids=["sweep-beta", "sweep-omega"])
@pytest.mark.parametrize("n", ["0", "-1", "2.5", "abc"])
def test_sweep_grid_size_must_be_positive(command, n, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main([*command, "--n", n, "--out", str(tmp_path / "out"), "--svg", "chart.svg"])
    assert code == 1
    assert "--n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_compare_single_angle(tmp_path, capsys):
    # 95 deg cannot fly: its row keeps the error and the run still succeeds
    svg_path = tmp_path / "bars.svg"
    code = main(["compare", "--betas", "45,95", "--out", str(tmp_path),
                 "--svg", str(svg_path)])
    out = capsys.readouterr().out
    assert code == 0
    lines = (tmp_path / "compare.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[2].startswith("95.0,,,,,,") and "beta must be in [0, 90)" in lines[2]
    assert "saving=" in out
    assert svg_path.read_text().startswith("<svg")


@pytest.mark.parametrize("command", [
    ["compare", "--betas", "95"],
    ["compare", "--betas", "95,nan", "--svg", "f.svg"],
], ids=["csv", "svg"])
def test_compare_with_no_flown_angle_writes_nothing(command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--out", str(tmp_path / "out")]) == 2
    assert "no angle flew in both modes" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_compare_rejects_bad_grid(capsys):
    assert main(["compare", "--betas", "abc"]) == 1
    assert main(["compare", "--betas", ""]) == 1
