"""Test helpers for the flat 24-float state of :mod:`spinlift.model`, by the
names and slices that it declares (``STATE_PARTS``, ``STATE_SLICES``): a state
made of its eight named 3-vectors, one 3-vector read (of one state or a stack
of them) or replaced by name, the mirror-symmetric state made from one
vehicle and the check that a trajectory stays mirror-symmetric, and the
frame rotation that the control tests take as their
reference."""

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


def mirrored(state) -> SystemState:
    """The state with the payload moved onto the spin axis (the x and y of
    its position and velocity 0.0) and vehicle 2 made vehicle 1's mirror
    image: its position, velocity and thrust rotated by pi about the axis,
    x and y negated."""
    flip = np.array([-1.0, -1.0, 1.0])
    axis = np.array([0.0, 0.0, 1.0])
    return replaced(state, x_p=axis * part(state, "x_p"), v_p=axis * part(state, "v_p"),
                    **{f"{q}_2": flip * part(state, f"{q}_1") for q in ("x", "v", "T_act")})


def assert_mirror_images(traj):
    """Fail unless every stored sample is on the mirror subspace by value:
    the payload's x and y positions and velocities 0, vehicle 2's position,
    velocity and thrust vehicle 1's rotated by pi about the spin axis, and
    the two tensions equal; likewise each stored command."""
    flip = np.array([-1.0, -1.0, 1.0])
    assert not part(traj.states, "x_p")[:, 0:2].any()
    assert not part(traj.states, "v_p")[:, 0:2].any()
    for q in ("x", "v", "T_act"):
        assert np.array_equal(part(traj.states, f"{q}_2"), flip * part(traj.states, f"{q}_1"))
    assert np.array_equal(traj.commands[:, 3:6], flip * traj.commands[:, 0:3])
    assert np.array_equal(traj.tether[:, 1], traj.tether[:, 0])


def rotation_c_to_e(theta: float) -> np.ndarray:
    """Rotation matrix mapping control-frame components to earth-frame ones.

    Right-handed rotation by ``theta`` about the vertical (z) axis.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
