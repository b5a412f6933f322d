"""Test helpers for the flat 24-float state of :mod:`spinlift.model`: a state
made of its eight named 3-vectors, one 3-vector read or replaced by name, and
the frame rotation that the control tests take as their reference."""

import math

import numpy as np

from spinlift.model import SystemState

NAMES = ("x_p", "v_p", "x_1", "v_1", "x_2", "v_2", "T_act_1", "T_act_2")
_SLICES = {name: slice(3 * i, 3 * i + 3) for i, name in enumerate(NAMES)}


def vec3(x: float, y: float, z: float) -> np.ndarray:
    return np.array([x, y, z], dtype=float)


def part(state, name: str) -> np.ndarray:
    """The 3-vector ``name`` (one of :data:`NAMES`) of a flat state."""
    return np.array(state[_SLICES[name]], dtype=float)


def replaced(state, **parts) -> SystemState:
    """The flat state with the named 3-vectors replaced."""
    y = list(state)
    for name, value in parts.items():
        y[_SLICES[name]] = np.asarray(value, dtype=float).tolist()
    return SystemState.from_vector(y)


def make_state(**parts) -> SystemState:
    """The flat state made of all eight named 3-vectors."""
    if set(parts) != set(NAMES):
        raise TypeError(f"a state needs exactly the 3-vectors {NAMES}")
    return replaced([0.0] * 24, **parts)


def rotation_c_to_e(theta: float) -> np.ndarray:
    """Rotation matrix mapping control-frame components to earth-frame ones.

    Right-handed rotation by ``theta`` about the vertical (z) axis.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
