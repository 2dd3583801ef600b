"""Instant-policy clients: a remote text-completion endpoint and a
synthetic hallucinating oracle.

Both back the same call: given an encoded context, produce Q candidate
trajectories. The remote client issues its Q identical-prompt queries
concurrently and decodes each response; the synthetic oracle fabricates
samples around a known consensus trajectory, optionally corrupting some of
them the way a hallucinating model would, and is fully deterministic given
its seed. Every caller gets exactly Q result slots; a sample that could
not be decoded is an explicit failure marker, never a silent omission.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import KeypointSet, Trajectory, resample_trajectory
from .errors import MalformedResponseError, TransportError
from .tokens import PolicyContext, decode_trajectory, encode_context

TASK_SHAPES = ("reach", "push", "pick")
# Keypoints per set in a synthetic task's demonstrations and query.
_TASK_KEYPOINTS = 10

# Remote queries run concurrently, one thread per query up to this many, so
# a large Q cannot start thousands of threads. The executor default is not
# used: on two cores it is 6, which would split a Q = 10 episode into two waves.
_MAX_QUERY_THREADS = 32

# Fingertip offsets from the gripper body point, meters.
_FINGER_LEFT = np.array([0.0, 0.035, -0.02])
_FINGER_RIGHT = np.array([0.0, -0.035, -0.02])


@dataclass(frozen=True)
class SyntheticOracleConfig:
    """Test double for an LLM policy: consensus plus configurable corruption.

    A hallucinated sample is either the consensus displaced by a constant
    offset of magnitude ``hallucination_offset`` in a random direction, or
    an unrelated smooth random walk started that far from the consensus.
    ``planted_hallucinations`` forces an exact count of corrupted slots
    (seeded choice of which) instead of per-sample coin flips.

    Unless ``follow_context_demo`` is set, the oracle re-derives its
    consensus from (seed, task_shape); keep both in sync with the task the
    context was built from.
    """

    seed: int = 0
    task_shape: str = "pick"
    noise_scale: float = 0.005
    hallucination_prob: float = 0.0
    hallucination_offset: float = 0.14
    hallucination_mode: str = "offset"
    length_jitter: tuple[int, int] = (-3, 3)
    planted_hallucinations: int | None = None
    follow_context_demo: bool = False

    def __post_init__(self):
        if self.task_shape not in TASK_SHAPES:
            raise ValueError(f"task shape must be one of {TASK_SHAPES}, got {self.task_shape!r}")
        if not (0 <= self.noise_scale < math.inf and 0 <= self.hallucination_offset < math.inf):
            raise ValueError("noise scale and hallucination offset must be finite and >= 0")
        if not 0.0 <= self.hallucination_prob <= 1.0:
            raise ValueError("hallucination probability must lie in [0, 1]")
        if self.hallucination_mode not in ("offset", "random-walk"):
            raise ValueError(f"unknown hallucination mode {self.hallucination_mode!r}")
        if self.length_jitter[0] > self.length_jitter[1]:
            raise ValueError("length jitter range must be (lo, hi) with lo <= hi")


@dataclass(frozen=True)
class RemoteConfig:
    """Connection settings for a text-completion endpoint."""

    endpoint: str
    model: str = "instant-policy"
    temperature: float = 1.0
    timeout_s: float = 60.0
    max_retries: int = 2
    api_key_env: str = "RIP_API_KEY"

    def __post_init__(self):
        if not 0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        if not 0 < self.timeout_s < math.inf:
            raise ValueError(f"timeout must be finite and positive, got {self.timeout_s}")
        if self.max_retries < 0:
            raise ValueError("max retries must be >= 0")


@dataclass(frozen=True)
class PolicyConfig:
    backend: str = "synthetic"
    query_count: int = 5
    synthetic: SyntheticOracleConfig = field(default_factory=SyntheticOracleConfig)
    remote: RemoteConfig | None = None
    preamble: str | None = None
    log_queries_path: str | None = None

    def __post_init__(self):
        if self.backend not in ("synthetic", "remote"):
            raise ValueError(f"backend must be 'synthetic' or 'remote', got {self.backend!r}")
        if self.query_count < 1:
            raise ValueError(f"query count must be >= 1, got {self.query_count}")
        if self.backend == "remote" and self.remote is None:
            raise ValueError("remote backend selected but no remote settings given")


@dataclass(frozen=True)
class SampleResult:
    """One of the Q policy slots: a decoded trajectory or a failure marker."""

    index: int
    trajectory: Trajectory | None
    status: str  # "ok" | "malformed" | "transport-error"
    detail: str = ""
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok" and self.trajectory is not None


def _derive_rng(*entropy) -> np.random.Generator:
    return np.random.default_rng(list(entropy))


def _with_fingertips(p0: np.ndarray) -> np.ndarray:
    """Gripper-body path (T, 3) to pose triplets (T, 3, 3)."""
    return np.stack([p0, p0 + _FINGER_LEFT, p0 + _FINGER_RIGHT], axis=1)


def _trajectory_from_points(points: np.ndarray, g: np.ndarray) -> Trajectory:
    """Pose triplets (T, 3, 3) and gripper flags (T,) to a trajectory."""
    return Trajectory(np.column_stack([points.reshape(len(points), 9), g]))


def _consensus_path(rng: np.random.Generator, shape: str, length: int, profile: str):
    """Gripper-body path and gripper flags for one task instance."""
    start = rng.uniform([0.20, -0.25, 0.25], [0.30, 0.25, 0.35])
    target = rng.uniform([0.45, -0.25, 0.03], [0.60, 0.25, 0.08])
    g = np.zeros(length, dtype=int)

    if shape == "reach":
        w = np.linspace(0.0, 1.0, length)[:, None]
        p0 = start + w * (target - start)
        return p0, g, target

    if shape == "push":
        goal = target + rng.uniform([0.05, -0.05, 0.0], [0.15, 0.05, 0.0])
        n_approach = max(2, int(round(length * 0.5)))
        n_pause = max(1, int(round(length * 0.15)))
        n_push = length - n_approach - n_pause
        w1 = np.linspace(0.0, 1.0, n_approach)[:, None]
        seg1 = start + w1 * (target - start)
        seg2 = np.repeat(target[None, :], n_pause, axis=0)
        w3 = np.linspace(0.0, 1.0, n_push + 1)[1:, None]
        seg3 = target + w3 * (goal - target)
        return np.concatenate([seg1, seg2, seg3]), g, goal

    # pick: descend onto the object, close at the bottom, lift away. The
    # transition sits between two coincident bottom steps, so the grasp
    # happens at a well-defined point in space.
    hover = target.copy()
    hover[2] = start[2]
    lift = target + np.array([0.0, 0.0, rng.uniform(0.18, 0.25)])
    # Randomized split so the grasp step carries no fixed phase relation
    # to any downstream subsampling grid.
    n_desc = max(2, int(round(length * rng.uniform(0.35, 0.6))))
    n_asc = length - n_desc - 1
    w1 = np.linspace(0.0, 1.0, n_desc)[:, None]
    w3 = np.linspace(0.0, 1.0, n_asc + 1)[1:, None]
    if profile == "swoop":
        # Dynamic grasp: most of the motion happens right at the object,
        # which makes grasp timing precision-critical.
        w1 = 1.0 - np.sqrt(1.0 - w1)
        w3 = np.sqrt(w3)
    seg1 = hover + w1 * (target - hover)
    dwell = target[None, :]  # one step at the bottom with the gripper now closed
    seg3 = target + w3 * (lift - target)
    p0 = np.concatenate([seg1, dwell, seg3])
    g[n_desc:] = 1
    return p0, g, target


def _task_keypoints(rng: np.random.Generator, anchor: np.ndarray, k: int) -> KeypointSet:
    pts = anchor + rng.uniform(-0.06, 0.06, (k, 3))
    pts[:, 2] = np.abs(pts[:, 2] - anchor[2]) * 0.5 + 0.01  # keep keypoints on/above the table
    return KeypointSet(pts)


def make_consensus_task(
    seed: int,
    task_shape: str,
    n_demos: int = 2,
    length_range: tuple[int, int] = (20, 40),
    pick_profile: str = "dwell",
    demo_drift: float = 0.01,
    demo_wobble: float = 0.002,
) -> tuple[PolicyContext, Trajectory]:
    """Build a synthetic task: a tokenizable context plus the ground-truth
    consensus trajectory the oracle's good samples scatter around.

    reach: straight line, gripper open throughout. push: approach, pause
    at contact, push. pick: descent, a single open-to-close transition at
    the bottom, ascent ("swoop" concentrates the motion at the grasp).
    Deterministic in (seed, shape).
    """
    if task_shape not in TASK_SHAPES:
        raise ValueError(f"task shape must be one of {TASK_SHAPES}, got {task_shape!r}")
    rng = _derive_rng(seed, TASK_SHAPES.index(task_shape))
    length = int(rng.integers(length_range[0], length_range[1] + 1))
    p0, g, anchor = _consensus_path(rng, task_shape, length, pick_profile)
    consensus = _trajectory_from_points(_with_fingertips(p0), g)

    demos = []
    for _ in range(n_demos):
        kp = _task_keypoints(rng, anchor, _TASK_KEYPOINTS)
        drift = rng.uniform(-demo_drift, demo_drift, 3) if demo_drift > 0 else np.zeros(3)
        wobble = rng.normal(0.0, demo_wobble, p0.shape) if demo_wobble > 0 else 0.0
        demo = _trajectory_from_points(_with_fingertips(p0 + drift + wobble), g)
        demos.append((kp, demo))
    query_kp = _task_keypoints(rng, anchor, _TASK_KEYPOINTS)
    return PolicyContext(demonstrations=tuple(demos), query_keypoints=query_kp), consensus


def _synthetic_sample(
    base: Trajectory,
    cfg: SyntheticOracleConfig,
    query_index: int,
    hallucinate: bool | None,
) -> Trajectory:
    rng = _derive_rng(cfg.seed, 1, query_index)
    jitter = int(rng.integers(cfg.length_jitter[0], cfg.length_jitter[1] + 1))
    length = max(2, len(base) + jitter)
    sample = resample_trajectory(base, length)
    data = sample.to_array()
    positions = data[:, :9].reshape(length, 3, 3)
    g = data[:, 9].astype(int)

    if hallucinate is None:
        hallucinate = rng.random() < cfg.hallucination_prob

    if hallucinate:
        direction = rng.normal(0.0, 1.0, 3)
        direction /= np.linalg.norm(direction)
        offset = cfg.hallucination_offset * direction
        if cfg.hallucination_mode == "offset":
            positions += offset
        else:
            # Unrelated smooth walk started an offset away; wander is kept
            # small relative to the offset so the sample stays genuinely far.
            start = positions[0, 0] + offset
            steps = rng.normal(0.0, cfg.hallucination_offset / 30.0, (length, 3))
            walk = start + np.cumsum(steps, axis=0)
            finger_l = positions[0, 1] - positions[0, 0]
            finger_r = positions[0, 2] - positions[0, 0]
            positions = np.stack([walk, walk + finger_l, walk + finger_r], axis=1)
            g = np.zeros(length, dtype=int)

    positions += rng.normal(0.0, cfg.noise_scale, positions.shape)
    return _trajectory_from_points(positions, g)


def _synthetic_base(context: PolicyContext, cfg: SyntheticOracleConfig) -> Trajectory:
    if cfg.follow_context_demo:
        return context.demonstrations[0][1]
    _, consensus = make_consensus_task(cfg.seed, cfg.task_shape)
    return consensus


def _planted_slots(cfg: SyntheticOracleConfig, q: int) -> set[int]:
    if cfg.planted_hallucinations is None:
        return set()
    count = min(cfg.planted_hallucinations, q)
    rng = _derive_rng(cfg.seed, 2)
    return set(int(i) for i in rng.choice(q, size=count, replace=False))


class _QueryAudit:
    """JSONL request/response log, append-only, safe across worker threads."""

    def __init__(self, path):
        self._path = path
        self._lock = threading.Lock()

    def write(self, record: dict):
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            with open(self._path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")


def _extract_completion(payload: dict) -> str:
    if isinstance(payload.get("completion"), str):
        return payload["completion"]
    choices = payload.get("choices")
    if isinstance(choices, list) and choices:
        first = choices[0]
        if isinstance(first.get("text"), str):
            return first["text"]
        message = first.get("message")
        if isinstance(message, dict) and isinstance(message.get("content"), str):
            return message["content"]
    raise MalformedResponseError("response JSON carries no completion text")


def _default_post(url: str, body: dict, timeout: float, headers: dict) -> dict:
    # An HTTP error status raises urllib.error.HTTPError, an OSError.
    request = urllib.request.Request(url, data=json.dumps(body).encode(),
                                     headers=headers, method="POST")
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return json.loads(resp.read())


class RemotePolicyClient:
    """Thin concurrent client for a completion-style HTTP endpoint.

    ``post_fn`` is injectable so tests can exercise retry and failure
    handling without a network; the default posts JSON via urllib.
    """

    def __init__(self, config: RemoteConfig, post_fn=None, audit: _QueryAudit | None = None):
        self._config = config
        self._post = post_fn or _default_post
        self._audit = audit

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self._config.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def query_one(self, prompt: str, index: int) -> SampleResult:
        cfg = self._config
        body = {"model": cfg.model, "prompt": prompt, "temperature": cfg.temperature, "n": 1}
        attempts = 0
        last_error = ""
        for attempt in range(cfg.max_retries + 1):
            attempts = attempt + 1
            try:
                payload = self._post(cfg.endpoint, body, cfg.timeout_s, self._headers())
                text = _extract_completion(payload)
                trajectory = decode_trajectory(text)
                self._log(index, attempts, body, response=text[:2000], error=None)
                return SampleResult(index, trajectory, "ok", attempts=attempts)
            except MalformedResponseError as exc:
                last_error = str(exc)
                self._log(index, attempts, body, response=None, error=last_error)
                status = "malformed"
            except (OSError, ValueError, http.client.HTTPException) as exc:
                last_error = str(exc)
                self._log(index, attempts, body, response=None, error=last_error)
                status = "transport-error"
        return SampleResult(index, None, status, detail=last_error, attempts=attempts)

    def _log(self, index, attempt, body, response, error):
        if self._audit is None:
            return
        self._audit.write(
            {
                "ts": time.time(),
                "query_index": index,
                "attempt": attempt,
                "request": body,
                "response": response,
                "error": error,
            }
        )


def sample_trajectories(context: PolicyContext, config: PolicyConfig) -> list[SampleResult]:
    """Query the policy Q times and return exactly Q result slots.

    Remote queries run concurrently with one shared prompt and are
    reassembled in query order. Raises TransportError if any query died
    on the wire after retries; undecodable slots come back as failure
    markers, even when every slot failed.
    """
    q = config.query_count
    if config.backend == "synthetic":
        cfg = config.synthetic
        base = _synthetic_base(context, cfg)
        planted = _planted_slots(cfg, q)
        results = []
        for i in range(q):
            hall = (i in planted) if cfg.planted_hallucinations is not None else None
            traj = _synthetic_sample(base, cfg, i, hall)
            results.append(SampleResult(i, traj, "ok"))
        return results

    audit = _QueryAudit(config.log_queries_path) if config.log_queries_path else None
    client = RemotePolicyClient(config.remote, audit=audit)
    return sample_with_client(context, config, client)


def sample_with_client(
    context: PolicyContext, config: PolicyConfig, client: RemotePolicyClient
) -> list[SampleResult]:
    """Remote sampling with an injected client (testing seam)."""
    prompt = encode_context(context, preamble=config.preamble)
    q = config.query_count
    with ThreadPoolExecutor(max_workers=min(q, _MAX_QUERY_THREADS)) as pool:
        futures = [pool.submit(client.query_one, prompt, i) for i in range(q)]
        results = [f.result() for f in futures]
    statuses = [r.status for r in results]
    if any(s == "transport-error" for s in statuses):
        raise TransportError(
            f"{statuses.count('transport-error')} of {q} queries failed on the wire",
            statuses=statuses,
        )
    return results
