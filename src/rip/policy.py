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
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import closing, contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from .core import KeypointSet, Trajectory, is_integer, resample_trajectory
from .errors import MalformedResponseError, TransportError
from .tokens import PolicyContext, decode_trajectory, encode_context, has_action_block

TASK_SHAPES = ("reach", "push", "pick")
PICK_PROFILES = ("dwell", "swoop")
# Keypoints per set in a synthetic task's demonstrations and query.
_TASK_KEYPOINTS = 10

# Remote queries run on one process-wide pool of at most this many threads,
# so a large Q cannot start thousands of them. A thread starts when a call
# finds none idle and then serves every later call; concurrent calls share
# the pool. The executor default is not used: on two cores it is 6, which
# would split a Q = 10 episode into two waves.
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
        if not (is_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.task_shape not in TASK_SHAPES:
            raise ValueError(f"task shape must be one of {TASK_SHAPES}, got {self.task_shape!r}")
        if not (0 <= self.noise_scale < math.inf and 0 <= self.hallucination_offset < math.inf):
            raise ValueError("noise scale and hallucination offset must be finite and >= 0")
        if not 0.0 <= self.hallucination_prob <= 1.0:
            raise ValueError("hallucination probability must lie in [0, 1]")
        if self.hallucination_mode not in ("offset", "random-walk"):
            raise ValueError(f"unknown hallucination mode {self.hallucination_mode!r}")
        lo, hi = self.length_jitter
        if not (is_integer(lo) and is_integer(hi) and lo <= hi):
            raise ValueError("length jitter range must be integers (lo, hi) with lo <= hi, "
                             f"got {self.length_jitter!r}")
        planted = self.planted_hallucinations
        if planted is not None and not (is_integer(planted) and planted >= 0):
            raise ValueError(f"planted hallucinations must be None or an integer >= 0, "
                             f"got {planted!r}")


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
        if not (is_integer(self.max_retries) and self.max_retries >= 0):
            raise ValueError(f"max retries must be an integer >= 0, got {self.max_retries!r}")


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
        if not (is_integer(self.query_count) and self.query_count >= 1):
            raise ValueError(f"query count must be an integer >= 1, got {self.query_count!r}")
        if self.backend == "remote" and self.remote is None:
            raise ValueError("remote backend selected but no remote settings given")
        if self.backend == "synthetic":
            ignored = [name for name in ("remote", "preamble", "log_queries_path")
                       if getattr(self, name) is not None]
            if ignored:
                raise ValueError(f"the synthetic backend does not use {', '.join(ignored)}")


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
    Deterministic in (seed, shape). The profile is checked whatever the
    shape; a drift or wobble of 0 gives demonstrations without it.
    """
    if task_shape not in TASK_SHAPES:
        raise ValueError(f"task shape must be one of {TASK_SHAPES}, got {task_shape!r}")
    if pick_profile not in PICK_PROFILES:
        raise ValueError(f"pick profile must be one of {PICK_PROFILES}, got {pick_profile!r}")
    if not all(0.0 <= x < math.inf for x in (demo_drift, demo_wobble)):
        raise ValueError("demo drift and wobble must be finite and >= 0, got "
                         f"{demo_drift!r} and {demo_wobble!r}")
    rng = np.random.default_rng([seed, TASK_SHAPES.index(task_shape)])
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
    rng = np.random.default_rng([cfg.seed, 1, query_index])
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
    rng = np.random.default_rng([cfg.seed, 2])
    return set(int(i) for i in rng.choice(q, size=count, replace=False))


class _QueryAudit:
    """JSONL request/response log, append-only, safe across worker threads.

    The file is opened when the log is built, so an unwritable path fails
    before any query is posted; ``close`` it once the queries have ended.
    """

    def __init__(self, path):
        self._file = open(path, "a", encoding="utf-8")
        self._lock = threading.Lock()

    def write(self, record: dict):
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            self._file.write(line + "\n")
            self._file.flush()

    def close(self):
        self._file.close()


class _FirstWave:
    """The first requests of one sampling call that are still in flight.

    A slot whose first response holds an action block decodes only once no
    first request is in flight, so a slot whose first attempt failed posts
    its retry while the others wait without the interpreter lock. Only
    started requests count and retries never wait, so a serial executor, a
    pool smaller than Q or one shared with other calls cannot deadlock.
    """

    def __init__(self):
        self._open = 0
        self._done = threading.Condition()

    @contextmanager
    def request(self):
        with self._done:
            self._open += 1
        try:
            yield
        finally:
            with self._done:
                self._open -= 1
                if not self._open:
                    self._done.notify_all()

    def wait(self):
        with self._done:
            self._done.wait_for(lambda: not self._open)


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
        raw = resp.read()
    try:
        return json.loads(raw)
    except RecursionError as exc:  # nested deeper than the parser goes: not JSON to us
        raise ValueError(f"response JSON is nested too deeply: {exc}") from exc


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

    def query_one(self, prompt: str, index: int, wave: _FirstWave | None = None) -> SampleResult:
        """Query one slot, retrying failed attempts. ``wave`` is shared by
        the slots of one sampling call; alone, a slot never waits."""
        cfg = self._config
        wave = wave or _FirstWave()
        body = {"model": cfg.model, "prompt": prompt, "temperature": cfg.temperature, "n": 1}
        attempts = 0
        last_error = ""
        for attempt in range(cfg.max_retries + 1):
            attempts = attempt + 1
            first = attempt == 0
            try:
                with wave.request() if first else nullcontext():
                    payload = self._post(cfg.endpoint, body, cfg.timeout_s, self._headers())
                text = _extract_completion(payload)
                if first and has_action_block(text):
                    wave.wait()
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
                # A 4xx other than 408 (timeout) or 429 (rate limit) would
                # be refused again, so it ends the slot.
                if (isinstance(exc, urllib.error.HTTPError) and 400 <= exc.code < 500
                        and exc.code not in (408, 429)):
                    break
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
    reassembled in query order. A query that died on the wire is one
    failed slot, like an undecodable one, and the caller aggregates what
    decoded. Raises TransportError only when no slot decoded and at least
    one died on the wire; when every slot is merely undecodable, the
    failure markers come back.
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

    path = config.log_queries_path
    with (closing(_QueryAudit(path)) if path else nullcontext()) as audit:
        client = RemotePolicyClient(config.remote, audit=audit)
        return sample_with_client(context, config, client)


def _start_query_pool():
    # Also run in a forked child: it inherits the pool's idle count but none
    # of its threads, so work submitted there would never run.
    global _query_pool
    _query_pool = ThreadPoolExecutor(max_workers=_MAX_QUERY_THREADS)


_start_query_pool()
if hasattr(os, "register_at_fork"):  # POSIX; elsewhere nothing forks
    os.register_at_fork(after_in_child=_start_query_pool)


def sample_with_client(
    context: PolicyContext, config: PolicyConfig, client: RemotePolicyClient
) -> list[SampleResult]:
    """Remote sampling with an injected client (testing seam)."""
    prompt = encode_context(context, preamble=config.preamble)
    q = config.query_count
    wave = _FirstWave()
    futures = [_query_pool.submit(client.query_one, prompt, i, wave) for i in range(q)]
    # Every slot ends before the call returns or raises, even when one
    # slot's error is what it raises.
    wait(futures)
    results = [f.result() for f in futures]
    statuses = [r.status for r in results]
    if "ok" not in statuses and "transport-error" in statuses:
        raise TransportError(
            f"{statuses.count('transport-error')} of {q} queries failed on the wire",
            statuses=statuses,
        )
    return results
