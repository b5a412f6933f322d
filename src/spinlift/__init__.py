"""Dual-quadrotor tethered payload transport: dynamics, rotating-equilibrium
control, and hover-power analysis."""

from .model import (ConfigError, EquilibriumSpec, ParamError, SystemParams,
                    SystemState, load_params, params_to_text, rotation_c_to_e,
                    vec3)
from .dynamics import (DegenerateGeometryError, IntegrationBlowupError,
                       TetherForces, Trajectory, simulate, tether_force,
                       tether_forces, trajectory_to_csv)
from .equilibrium import (PowerReport, SingularityError, SweepResult,
                          build_equilibrium, omega_star, power, sweep_beta,
                          sweep_omega, sweep_to_csv, tension_at_equilibrium,
                          thrust_magnitude, tilt_angle)
from .lqr import (GainSet, LinearizationError, LinearModel, SynthesisError,
                  linearize, solve_care, synthesize)
from .control import (ControllerConfig, SpinProfile, command_log_to_csv,
                      control_step)
from .harness import (ComparisonTable, RunSummary, ScenarioError, ScenarioSpec,
                      SimulationFailed, compare_modes, comparison_to_csv,
                      run_scenario)

__version__ = "0.1.0"
