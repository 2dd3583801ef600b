"""JSON serialization for trajectories and policy contexts.

Wire format (lengths in meters, plain decimal numbers):

    trajectory file:     {"actions": [{"p0": [x,y,z], "p1": [x,y,z],
                                       "p2": [x,y,z], "g": 0|1}, ...]}
    demonstration:       a trajectory object plus "keypoints": [[x,y,z], ...]
    context file:        {"demonstrations": [<demonstration>, ...],
                          "query_keypoints": [[x,y,z], ...]}

Each action object is one [p0, p1, p2, g] row of the trajectory's (T, 10)
array, read and written directly. Files come from outside the program, so
every malformed input raises ``InvalidTrajectoryError``.
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import KeypointSet, Trajectory, _as_point
from .errors import InvalidTrajectoryError
from .tokens import PolicyContext


def trajectory_to_dict(trajectory: Trajectory) -> dict:
    return {"actions": [{"p0": r[0:3], "p1": r[3:6], "p2": r[6:9], "g": int(r[9])}
                        for r in trajectory.data.tolist()]}


def _row(action: dict) -> list:
    g = action["g"]
    # Equality, not conversion: "1" is rejected, while true and 1.0 mean 1
    # (and -0.0 means 0: int() keeps a sign bit out of the array).
    if g not in (0, 1):
        raise InvalidTrajectoryError(f"gripper state must be 0 or 1, got {g!r}")
    return [*_as_point(action["p0"], "p0"), *_as_point(action["p1"], "p1"),
            *_as_point(action["p2"], "p2"), int(g)]


def trajectory_from_dict(obj: dict) -> Trajectory:
    try:
        rows = [_row(a) for a in obj["actions"]]
    except (KeyError, TypeError) as exc:
        raise InvalidTrajectoryError(f"malformed trajectory object: {exc!r}") from exc
    return Trajectory(rows)


def context_to_dict(context: PolicyContext) -> dict:
    return {
        "demonstrations": [
            {**trajectory_to_dict(tr), "keypoints": [list(p) for p in kp.points]}
            for kp, tr in context.demonstrations
        ],
        "query_keypoints": [list(p) for p in context.query_keypoints.points],
    }


def context_from_dict(obj: dict) -> PolicyContext:
    if not isinstance(obj, dict) or "query_keypoints" not in obj:
        raise InvalidTrajectoryError("context object lacks a 'query_keypoints' field")
    try:
        demos = tuple((KeypointSet(d["keypoints"]), trajectory_from_dict(d))
                      for d in obj.get("demonstrations", []))
        query = KeypointSet(obj["query_keypoints"])
    except (KeyError, TypeError) as exc:
        raise InvalidTrajectoryError(f"malformed context object: {exc!r}") from exc
    return PolicyContext(demonstrations=demos, query_keypoints=query)


def save_json(obj: dict, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise InvalidTrajectoryError(f"{path} is not a JSON file: {exc}") from exc


def save_trajectory(trajectory: Trajectory, path) -> None:
    save_json(trajectory_to_dict(trajectory), path)


def load_trajectory(path) -> Trajectory:
    return trajectory_from_dict(load_json(path))


def load_context(path) -> PolicyContext:
    return context_from_dict(load_json(path))


def save_context(context: PolicyContext, path) -> None:
    save_json(context_to_dict(context), path)
