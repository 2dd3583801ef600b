"""Gripper-aware downsampling of high-frequency demonstration trajectories.

Uniform striding of a long episode can retime or drop the few steps where
the gripper opens or closes, which ruins grasp precision downstream. The
mask-based variant pins episode endpoints and both sides of every gripper
transition, then thins only the spans in between.
"""

from __future__ import annotations

import numpy as np

from .core import Trajectory
from .errors import DownsampleError


def gripper_transitions(trajectory: Trajectory) -> list[tuple[int, int]]:
    """Indices t where |g[t+1] - g[t]| = 1, as (t, direction) pairs."""
    g = trajectory.gripper_states()
    return [(t, g[t + 1] - g[t]) for t in range(len(g) - 1) if g[t + 1] != g[t]]


def mask_key_steps(trajectory: Trajectory) -> tuple[int, ...]:
    """Indices that must survive downsampling: endpoints and both sides of
    every gripper transition. Sorted ascending, deduplicated, 0-based."""
    keep = {0, len(trajectory) - 1}
    for t, _direction in gripper_transitions(trajectory):
        keep.add(t)
        keep.add(t + 1)
    return tuple(sorted(keep))


def _spread_indices(lo: int, hi: int, n: int) -> list[int]:
    # n uniformly spaced picks from the open interval (lo, hi); n <= hi-lo-1.
    interior = hi - lo - 1
    if n <= 0:
        return []
    if n == 1:
        return [lo + 1 + (interior - 1) // 2]
    offsets = np.round(np.linspace(0, interior - 1, n)).astype(int)
    return [lo + 1 + int(o) for o in offsets]


def _apportion(budget: int, capacities: list[int]) -> list[int]:
    """Largest-remainder split of `budget` picks across segments, proportional
    to capacity, capped at capacity, ties broken toward earlier segments.
    Needs budget <= sum(capacities): each quota is then at most its capacity,
    and fewer picks are left over than segments with a fractional quota, so
    one pass gives each of the largest remainders one more pick."""
    total = sum(capacities)
    if total == 0 or budget <= 0:
        return [0] * len(capacities)
    quotas = [budget * c / total for c in capacities]
    counts = [int(q) for q in quotas]
    order = sorted(range(len(capacities)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in order[:budget - sum(counts)]:
        counts[i] += 1
    return counts


def downsample(trajectory: Trajectory, target_len: int) -> Trajectory:
    """Thin a trajectory to ~target_len steps without losing key steps.

    Every masked index (endpoints, gripper transitions) is kept; the
    remaining budget is spread over the spans between masks proportionally
    to span length, uniformly within each span. Order is preserved and the
    output is a subsequence of the input.
    """
    masked = mask_key_steps(trajectory)
    if target_len < len(masked):
        raise DownsampleError(
            f"target length {target_len} is below the {len(masked)} masked key steps "
            f"(endpoints plus gripper transitions); raise the target or split the episode"
        )
    if len(trajectory) <= target_len:
        return trajectory

    budget = target_len - len(masked)
    capacities = [b - a - 1 for a, b in zip(masked, masked[1:])]
    counts = _apportion(budget, capacities)

    keep = set(masked)
    for (a, b), n in zip(zip(masked, masked[1:]), counts):
        keep.update(_spread_indices(a, b, n))

    return Trajectory(trajectory.data[sorted(keep)])


def uniform_downsample(trajectory: Trajectory, target_len: int) -> Trajectory:
    """Plain uniform striding that keeps only the first and last actions
    pinned. Gripper events between grid points get retimed or merged; this
    is the baseline the mask-based variant exists to fix."""
    if target_len < 2:
        raise DownsampleError(f"target length must be >= 2, got {target_len}")
    n = len(trajectory)
    if n <= target_len:
        return trajectory
    idx = np.round(np.linspace(0, n - 1, target_len)).astype(int)
    return Trajectory(trajectory.data[idx])
