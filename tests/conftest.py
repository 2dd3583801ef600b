import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rip.core import KeypointSet, Trajectory


def make_action(x=0.0, y=0.0, z=0.0, g=0):
    """One [p0, p1, p2, g] row: body point at (x, y, z), fingertips beside it."""
    return np.array([x, y, z, x, y + 0.035, z - 0.02, x, y - 0.035, z - 0.02, g], dtype=float)


def line_trajectory(n, x0=0.0, x1=1.0, g=None):
    """Straight line in x; g is an optional per-step gripper sequence.
    Each step has the pose of make_action(x=x, g=g)."""
    arr = np.zeros((n, 10))
    arr[:, [0, 3, 6]] = np.linspace(x0, x1, n)[:, None]
    arr[:, [4, 5, 7, 8]] = (0.035, -0.02, -0.035, -0.02)
    arr[:, 9] = g if g is not None else 0
    return Trajectory(arr)


def random_trajectory(rng, n=None, n_transitions=0, box=5.0):
    """Random finite trajectory with a requested number of gripper flips."""
    n = n if n is not None else int(rng.integers(10, 60))
    pts = rng.uniform(-box, box, (n, 9))
    g = np.zeros(n, dtype=int)
    n_transitions = min(n_transitions, n - 1)
    if n_transitions:
        cuts = np.sort(rng.choice(np.arange(1, n), size=n_transitions, replace=False))
        state = 0
        prev = 0
        segments = list(cuts) + [n]
        for i, cut in enumerate(segments):
            g[prev:cut] = state
            state = 1 - state
            prev = cut
    return Trajectory(np.column_stack([pts, g]))


def keypoints(k=10, seed=0):
    rng = np.random.default_rng(seed)
    return KeypointSet(rng.uniform(-0.5, 0.5, (k, 3)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
