"""Hash the outputs whose bits do not depend on LAPACK, and check them against
the committed ``FINGERPRINT.json``.

    python3 tools/fingerprint.py           # name every output whose hash moved
    python3 tools/fingerprint.py --write   # rewrite FINGERPRINT.json

The library is imported from ``src/`` of the checkout the script sits in.
Each entry is the SHA-256 of one output:

* the three sweeps of the README's command line (``sweep-beta`` over 0-75 deg
  at 151 points, static and rotating, and ``sweep-omega`` at 60 deg over
  0-6 rad/s at 601 points): each CSV, and each command's stderr;
* ``params_to_text(SystemParams())``;
* one rotating flight at 60 deg with the default protocol (8 s ramps, 40 s
  hover), every physics step stored: the trajectory's t, states, commands,
  tension and theta arrays, and the text of its trajectory CSV and its
  command-log CSV. It never leaves the mirror subspace;
* the first 3 s of the same flight with the formation shifted 0.1 m along x,
  as ``fly --perturb 0.1`` does: its arrays and its trajectory CSV. Every
  hold takes the full stepper, and no column of the CSV repeats another.

Both flights fly a gain that is synthesized and then rounded to 1e-6, so
that they do not depend on the last bits that the BLAS kernel leaves in it.

The check exits 1 when an output's hash moved. A change that moves outputs
on purpose rewrites the file, and its diff then names what moved.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from spinlift import cli
from spinlift.control import ControllerConfig, SpinProfile, command_log_to_csv, control_step
from spinlift.dynamics import simulate, trajectory_to_csv
from spinlift.equilibrium import build_equilibrium, omega_star
from spinlift.harness import ScenarioSpec
from spinlift.lqr import synthesize
from spinlift.model import STATE_SLICES, SystemParams, default_thrust_limit, params_to_text

FILE = ROOT / "FINGERPRINT.json"

SWEEPS = {
    "sweep_beta_static": ("sweep-beta --min 0 --max 75 --n 151 --mode static",
                          "sweep_beta_static.csv"),
    "sweep_beta_rotating": ("sweep-beta --min 0 --max 75 --n 151 --mode rotating",
                            "sweep_beta_rotating.csv"),
    "sweep_omega": ("sweep-omega --beta 60 --max-omega 6 --n 601", "sweep_omega.csv"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sweep_hashes() -> dict[str, str]:
    """Each sweep's CSV and stderr, run through the command line's ``main``."""
    hashes = {}
    for name, (command, csv_name) in SWEEPS.items():
        with tempfile.TemporaryDirectory() as out:
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                status = cli.main([*command.split(), "--out", out])
            if status != 0:
                raise RuntimeError(f"spinlift {command} exited {status}: {stderr.getvalue()}")
            hashes[f"{name}.csv"] = sha256((Path(out) / csv_name).read_bytes())
        hashes[f"{name}.stderr"] = sha256(stderr.getvalue().encode())
    return hashes


def flight_hashes(name: str, duration: float | None, perturb: float,
                  command_log: bool) -> dict[str, str]:
    """A dense rotating flight at 60 deg under the rounded gain, for
    ``duration`` seconds (None: the whole protocol) with the formation
    shifted ``perturb`` metres along x: its arrays, its trajectory CSV and,
    with ``command_log``, its command-log CSV."""
    params = SystemParams()
    beta = math.radians(60.0)
    spec = ScenarioSpec(mode="rotating", beta=beta)
    profile = SpinProfile(omega_target=omega_star(beta, params), t_ramp_up=spec.spin_up,
                          t_hover=spec.hover, t_ramp_down=spec.spin_down)
    eq_spec, _, _ = build_equilibrium(beta, profile.omega_target, params)
    gains = synthesize(eq_spec, params)
    gains = dataclasses.replace(gains, K=np.round(gains.K, 6))
    cfg = ControllerConfig(gain=gains, eq=eq_spec, params=params, profile=profile)
    _, spawn, _ = build_equilibrium(beta, profile.omega(0.0), params)
    initial = list(spawn)
    for part in ("x_p", "x_1", "x_2"):
        initial[STATE_SLICES[part].start] += perturb
    traj = simulate(initial, lambda y, t: control_step(y, cfg, t), profile.theta, params,
                    duration or profile.duration, output_decimation=1)
    digest = hashlib.sha256()
    for column in (traj.t, traj.states, traj.commands, traj.tether, traj.theta):
        digest.update(np.ascontiguousarray(column, dtype=float).tobytes())
    hashes = {name: digest.hexdigest(),
              f"{name}.trajectory_csv": sha256(trajectory_to_csv(traj).encode())}
    if command_log:
        hashes[f"{name}.command_log_csv"] = sha256(
            command_log_to_csv(traj, default_thrust_limit(params)).encode())
    return hashes


def fingerprint() -> dict[str, str]:
    return {**sweep_hashes(),
            "params_to_text": sha256(params_to_text(SystemParams()).encode()),
            **flight_hashes("simulate_rotating_60_dense", None, 0.0, command_log=True),
            **flight_hashes("simulate_rotating_60_perturbed_dense", 3.0, 0.1,
                            command_log=False)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite FINGERPRINT.json instead of checking it")
    args = parser.parse_args(argv)
    hashes = fingerprint()
    if args.write:
        FILE.write_text(json.dumps(hashes, indent=2) + "\n")
        print(f"wrote {len(hashes)} hashes to {FILE.name}")
        return 0
    recorded = json.loads(FILE.read_text())
    moved = sorted(name for name in recorded.keys() | hashes.keys()
                   if recorded.get(name) != hashes.get(name))
    for name in moved:
        print(f"moved: {name} (recorded {recorded.get(name)}, now {hashes.get(name)})")
    print(f"{len(hashes) - len(moved)} of {len(hashes)} hashes match {FILE.name}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
