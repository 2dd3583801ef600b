"""Geometric success judge and position RMSE on (T, 10) action arrays.

The definitions follow the package's own sweep bench: a candidate succeeds
when its final gripper-body point lands within 2 cm of the consensus final
point and its gripper events have the same directions in the same order.
With an event tolerance set, every grasp/release must also happen within
that distance of where the consensus performs it. RMSE is the position
error (gripper excluded) after resampling the candidate onto the consensus
length, in millimetres.

Everything here works on plain arrays so the judge does not depend on the
trajectory types it is judging.
"""

from __future__ import annotations

import numpy as np

FINAL_TOL_M = 0.02
GRIPPER = 9


def gripper_events(arr: np.ndarray) -> list[tuple[int, int]]:
    """(t, direction) for every step t where the gripper flag changes."""
    g = arr[:, GRIPPER].astype(int)
    steps = np.flatnonzero(g[1:] != g[:-1])
    return [(int(t), int(g[t + 1] - g[t])) for t in steps]


def task_success(cand: np.ndarray, ref: np.ndarray, event_tol: float | None = None) -> bool:
    """Judge a candidate against the consensus; both (T, 10) arrays."""
    final_err = float(np.linalg.norm(cand[-1, 0:3] - ref[-1, 0:3]))
    cand_ev = gripper_events(cand)
    ref_ev = gripper_events(ref)
    if [d for _, d in cand_ev] != [d for _, d in ref_ev]:
        return False
    if event_tol is not None and ref_ev:
        # Either side of the candidate's transition may anchor the event:
        # its timing is resolved to one grid step, the grasp point is not.
        for (tc, _), (tr, _) in zip(cand_ev, ref_ev):
            anchor = ref[tr + 1, 0:3]
            err = min(float(np.linalg.norm(cand[tc, 0:3] - anchor)),
                      float(np.linalg.norm(cand[tc + 1, 0:3] - anchor)))
            if err > event_tol:
                return False
    return final_err <= FINAL_TOL_M


def resample(arr: np.ndarray, n: int) -> np.ndarray:
    """Resample a (T, 10) array to n steps on the normalized time grid.

    Positions interpolate linearly, the gripper holds its previous sample,
    and an array already of length n is returned as is.
    """
    if len(arr) == n:
        return arr
    grid_in = np.arange(len(arr), dtype=float) / (len(arr) - 1)
    grid_out = np.arange(n, dtype=float) / (n - 1)
    out = np.empty((n, arr.shape[1]))
    for c in range(GRIPPER):
        out[:, c] = np.interp(grid_out, grid_in, arr[:, c])
    hold = np.clip(np.searchsorted(grid_in, grid_out, side="right") - 1, 0, len(arr) - 1)
    out[:, GRIPPER] = arr[hold, GRIPPER]
    return out


def rmse_mm(cand: np.ndarray, ref: np.ndarray) -> float:
    """Position RMSE in millimetres, candidate resampled onto len(ref)."""
    diff = resample(cand, len(ref))[:, :GRIPPER] - ref[:, :GRIPPER]
    return 1000.0 * float(np.sqrt(np.mean(diff * diff)))
