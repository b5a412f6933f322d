"""Test helpers for the flat 24-float state of :mod:`spinlift.model`, by the
names and slices that it declares (``STATE_PARTS``, ``STATE_SLICES``): a state
made of its eight named 3-vectors, one 3-vector read (of one state or a stack
of them) or replaced by name, and the frame rotation that the control tests
take as their reference."""

import math

import numpy as np

from spinlift.model import STATE_DIM, STATE_PARTS, STATE_SLICES, SystemState


def vec3(x: float, y: float, z: float) -> np.ndarray:
    return np.array([x, y, z], dtype=float)


def part(state, name: str) -> np.ndarray:
    """The 3-vector ``name`` (one of ``STATE_PARTS``) of a flat state, or the
    ``(n, 3)`` rows of it in a stack of states ``(n, 24)``."""
    return np.asarray(state, dtype=float)[..., STATE_SLICES[name]]


def replaced(state, **parts) -> SystemState:
    """The flat state with the named 3-vectors replaced."""
    y = list(state)
    for name, value in parts.items():
        y[STATE_SLICES[name]] = np.asarray(value, dtype=float).tolist()
    return SystemState.from_vector(y)


def make_state(**parts) -> SystemState:
    """The flat state made of all eight named 3-vectors."""
    if set(parts) != set(STATE_PARTS):
        raise TypeError(f"a state needs exactly the 3-vectors {STATE_PARTS}")
    return replaced([0.0] * STATE_DIM, **parts)


def rotation_c_to_e(theta: float) -> np.ndarray:
    """Rotation matrix mapping control-frame components to earth-frame ones.

    Right-handed rotation by ``theta`` about the vertical (z) axis.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
