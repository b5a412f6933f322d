from spinlift import harness
from spinlift.cli import main
from spinlift.model import ControlCommand, SystemParams, params_to_text, vec3


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


def test_bad_params_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("m_q = 0\n")
    assert main(["equilibrium", "--beta", "30", "--params", str(cfg)]) == 2
    assert "m_q" in capsys.readouterr().err


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


def test_fly_steep_rotating_refused(tmp_path, capsys):
    code = main(["fly", "--mode", "rotating", "--beta", "84", "--out", str(tmp_path)])
    assert code == 2
    assert "T_max" in capsys.readouterr().err


def test_fly_blowup_is_integration_failure(tmp_path, capsys, monkeypatch):
    real_step = harness.control_step

    def bomb(state, cfg, t):
        if t < 0.5:
            return real_step(state, cfg, t)
        return ControlCommand(T_cmd_1=vec3(0.0, 0.0, 1e300), T_cmd_2=vec3(0.0, 0.0, 1e300))

    monkeypatch.setattr(harness, "control_step", bomb)
    code = main(["fly", "--mode", "static", "--beta", "30",
                 "--duration", "2", "--out", str(tmp_path)])
    assert code == 3
    assert "phase: hover" in capsys.readouterr().err


def test_compare_single_angle(tmp_path, capsys):
    svg_path = tmp_path / "bars.svg"
    code = main(["compare", "--betas", "45", "--out", str(tmp_path),
                 "--svg", str(svg_path)])
    out = capsys.readouterr().out
    assert code == 0
    lines = (tmp_path / "compare.csv").read_text().strip().split("\n")
    assert len(lines) == 2
    assert "saving=" in out
    assert svg_path.read_text().startswith("<svg")


def test_compare_rejects_bad_grid(capsys):
    assert main(["compare", "--betas", "abc"]) == 1
    assert main(["compare", "--betas", ""]) == 1
