"""Text encoding of keypoints and action trajectories.

Coordinates are quantized to integer millimeters (round half away from
zero) so the whole context fits in compact numeric tokens. One action is
one line of 10 integers: nine millimeter coordinates followed by the 0/1
gripper flag. Blocks are labeled ``KEYPOINTS:`` / ``ACTIONS:`` / ``QUERY:``.

Decoding is the untrusted direction: it scans arbitrary model output for
the first run of well-formed action lines and ignores surrounding prose.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .core import GRIPPER_CHANNEL, KeypointSet, Trajectory
from .errors import CoordinateRangeError, InvalidTrajectoryError, MalformedResponseError

# Quantization overflow guard: 10 m at 1 mm resolution stays within 5 digits.
MAX_COORDINATE_M = 10.0
MM_PER_M = 1000.0
# Longest action block decoded; a longer run of action lines is malformed.
MAX_ACTION_LINES = 10_000

# One action line: exactly 10 whitespace-separated ASCII integers.
_ACTION_LINE = re.compile(r"\s*(?:[+-]?[0-9]+\s+){9}[+-]?[0-9]+\s*")


@dataclass(frozen=True)
class PolicyContext:
    """Demonstration episodes plus the query keypoints for a new episode."""

    demonstrations: tuple[tuple[KeypointSet, Trajectory], ...]
    query_keypoints: KeypointSet

    def __post_init__(self):
        demos = tuple(self.demonstrations)
        if not demos:
            raise InvalidTrajectoryError("a policy context needs at least one demonstration")
        k = len(self.query_keypoints)
        for i, (kp, _tr) in enumerate(demos):
            if len(kp) != k:
                raise InvalidTrajectoryError(
                    f"demonstration {i} has {len(kp)} keypoints, query has {k}; "
                    f"all keypoint sets must share one size"
                )
        object.__setattr__(self, "demonstrations", demos)


def default_preamble() -> str:
    return resources.files("rip.data").joinpath("preamble.txt").read_text(encoding="utf-8")


def quantize_mm(x):
    """Meters to integer millimeters, rounding half away from zero.

    Takes a scalar (returns an int) or an array (returns int64).
    """
    x = np.asarray(x, dtype=float)
    over = ~(np.abs(x) <= MAX_COORDINATE_M)  # NaN is out of range too
    if over.any():
        raise CoordinateRangeError(
            f"coordinate {x[over][0]} m exceeds the {MAX_COORDINATE_M} m encodable range"
        )
    mm = (np.sign(x) * np.floor(np.abs(x) * MM_PER_M + 0.5)).astype(np.int64)
    return int(mm) if mm.ndim == 0 else mm


def _int_lines(rows: np.ndarray) -> list[str]:
    """Each row of a 2-D integer array as one line of space-separated ints."""
    n, d = rows.shape
    line = " ".join(["%d"] * d)
    return ("\n".join([line] * n) % tuple(rows.ravel().tolist())).split("\n")


def encode_action_block(trajectory: Trajectory) -> str:
    """One line per action: nine millimeter coordinates, then the gripper flag."""
    ints = quantize_mm(trajectory.data[:, :GRIPPER_CHANNEL])
    flags = trajectory.data[:, GRIPPER_CHANNEL].astype(np.int64)
    return "\n".join(_int_lines(np.column_stack([ints, flags])))


def encode_context(context: PolicyContext, preamble: str | None = None) -> str:
    """Render a context as the deterministic prompt text sent to a policy."""
    parts = [preamble if preamble is not None else default_preamble(), ""]
    for i, (keypoints, trajectory) in enumerate(context.demonstrations, start=1):
        parts.append(f"DEMONSTRATION {i}")
        parts.append("KEYPOINTS:")
        parts.extend(_int_lines(quantize_mm(keypoints.to_array())))
        parts.append("ACTIONS:")
        parts.append(encode_action_block(trajectory))
        parts.append("")
    parts.append("QUERY:")
    parts.extend(_int_lines(quantize_mm(context.query_keypoints.to_array())))
    parts.append("ACTIONS:")
    return "\n".join(parts) + "\n"


def decode_trajectory(text: str) -> Trajectory:
    """Parse the first well-formed action block out of untrusted model output.

    A well-formed block is a run of at least two consecutive lines of
    exactly 10 ASCII integers each. Raises MalformedResponseError when no
    block exists, the block runs past MAX_ACTION_LINES lines, a coordinate
    lies outside the encodable range of +-MAX_COORDINATE_M, or a gripper
    token is outside {0, 1}.
    """
    block: list[str] = []
    for line in text.splitlines():
        if _ACTION_LINE.fullmatch(line):
            block.append(line)
            if len(block) > MAX_ACTION_LINES:
                raise MalformedResponseError(
                    f"action block longer than {MAX_ACTION_LINES} lines")
        elif len(block) >= 2:
            break
        else:
            block = []

    if len(block) < 2:
        raise MalformedResponseError(
            "no action block found: expected >= 2 consecutive lines of 10 integers"
        )

    # numpy's C text reader splits on the same Unicode whitespace as
    # str.split. Parsed as floats, a token of any length is a number (inf
    # at worst) that the range check rejects; the integer parser would
    # refuse or overflow on a long enough one.
    values = np.loadtxt(block, dtype=float, ndmin=2)
    if np.abs(values[:, :GRIPPER_CHANNEL]).max() > MAX_COORDINATE_M * MM_PER_M:
        raise MalformedResponseError(
            f"action coordinate outside the {MAX_COORDINATE_M} m encodable range"
        )
    g = values[:, GRIPPER_CHANNEL]
    if not ((g == 0) | (g == 1)).all():
        raise MalformedResponseError("gripper token must be 0 or 1")
    data = values + 0.0  # a "-0" token parses to -0.0; the integer it names has no sign
    data[:, :GRIPPER_CHANNEL] /= MM_PER_M
    return Trajectory(data)
