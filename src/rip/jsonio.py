"""JSON serialization for trajectories, demonstrations, and policy contexts.

Wire format (lengths in meters, plain decimal numbers):

    trajectory file:     {"actions": [{"p0": [x,y,z], "p1": [x,y,z],
                                       "p2": [x,y,z], "g": 0|1}, ...]}
    demonstration file:  adds "keypoints": [[x,y,z], ...]
    context file:        {"demonstrations": [<demonstration>, ...],
                          "query_keypoints": [[x,y,z], ...]}
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import Action, Demonstration, KeypointSet, Trajectory
from .errors import InvalidTrajectoryError
from .tokens import PolicyContext


def action_to_dict(action: Action) -> dict:
    return {
        "p0": list(action.p0),
        "p1": list(action.p1),
        "p2": list(action.p2),
        "g": action.g,
    }


def action_from_dict(obj: dict) -> Action:
    try:
        return Action(p0=tuple(obj["p0"]), p1=tuple(obj["p1"]), p2=tuple(obj["p2"]), g=obj["g"])
    except (KeyError, TypeError) as exc:
        raise InvalidTrajectoryError(f"malformed action object: {exc}") from exc


def trajectory_to_dict(trajectory: Trajectory) -> dict:
    return {"actions": [action_to_dict(a) for a in trajectory.actions]}


def trajectory_from_dict(obj: dict) -> Trajectory:
    if "actions" not in obj:
        raise InvalidTrajectoryError("trajectory object lacks an 'actions' field")
    return Trajectory([action_from_dict(a).to_array() for a in obj["actions"]])


def demonstration_to_dict(demo: Demonstration) -> dict:
    out = trajectory_to_dict(demo.trajectory)
    out["keypoints"] = [list(p) for p in demo.keypoints.points]
    return out


def demonstration_from_dict(obj: dict) -> Demonstration:
    if "keypoints" not in obj:
        raise InvalidTrajectoryError("demonstration object lacks a 'keypoints' field")
    return Demonstration(
        keypoints=KeypointSet(tuple(tuple(p) for p in obj["keypoints"])),
        trajectory=trajectory_from_dict(obj),
    )


def context_to_dict(context: PolicyContext) -> dict:
    return {
        "demonstrations": [
            demonstration_to_dict(Demonstration(kp, tr)) for kp, tr in context.demonstrations
        ],
        "query_keypoints": [list(p) for p in context.query_keypoints.points],
    }


def context_from_dict(obj: dict) -> PolicyContext:
    demos = [demonstration_from_dict(d) for d in obj.get("demonstrations", [])]
    if "query_keypoints" not in obj:
        raise InvalidTrajectoryError("context object lacks a 'query_keypoints' field")
    return PolicyContext(
        demonstrations=tuple((d.keypoints, d.trajectory) for d in demos),
        query_keypoints=KeypointSet(tuple(tuple(p) for p in obj["query_keypoints"])),
    )


def save_json(obj: dict, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def save_trajectory(trajectory: Trajectory, path) -> None:
    save_json(trajectory_to_dict(trajectory), path)


def load_trajectory(path) -> Trajectory:
    return trajectory_from_dict(load_json(path))


def load_context(path) -> PolicyContext:
    return context_from_dict(load_json(path))


def save_context(context: PolicyContext, path) -> None:
    save_json(context_to_dict(context), path)
