"""In-process stand-in for a text-completion endpoint.

The stub is the ``post_fn`` of a ``RemotePolicyClient``: no sockets. Each
call takes the next response off a seeded queue, sleeps a fixed service
delay and returns it. All Q requests of an episode carry the same prompt,
so the stub cannot tell slots apart; the queue holds the good responses
plus a few faulty first responses (malformed text or a connection reset)
that the client's retries consume. With at most ``max_retries`` faults no
slot can exhaust its retries, so every episode makes exactly Q + faults
calls and decodes every served sample.
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np
import requests

SERVICE_DELAY_S = 0.02
FAULT_PROB = 0.1
MAX_FAULTS = 2  # RemoteConfig.max_retries default

CONNECTION_RESET = object()
MALFORMED = {"completion": "I am unable to produce actions for this scene."}

_HEAD = "Following the demonstrations, the end-effector actions are:"
_TAIL = "These actions complete the grasp."


def quantize_mm(arr: np.ndarray) -> np.ndarray:
    """Metres to integer millimetres, rounding half away from zero; the
    gripper channel is already 0/1 and passes through."""
    out = np.sign(arr) * np.floor(np.abs(arr) * 1000.0 + 0.5)
    out[:, 9] = arr[:, 9]
    return out.astype(np.int64)


def action_text(ints: np.ndarray) -> str:
    """One served completion: action lines of 10 integers wrapped in prose."""
    lines = "\n".join(" ".join(map(str, row)) for row in ints.tolist())
    return f"{_HEAD}\n{lines}\n{_TAIL}\n"


def _payload(text: str, form: int) -> dict:
    if form == 0:
        return {"completion": text}
    if form == 1:
        return {"choices": [{"text": text}]}
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


def plan_responses(served: list, rng: np.random.Generator) -> tuple[list, int]:
    """Queue for one episode: the served (T, 10) integer arrays as good
    responses, with 0..MAX_FAULTS of the Q first responses made faulty.
    Returns (queue, number of faults)."""
    q = len(served)
    goods = [_payload(action_text(ints), int(rng.integers(3))) for ints in served]
    n_faults = min(int(rng.binomial(q, FAULT_PROB)), MAX_FAULTS)
    fault_slots = set(rng.choice(q, size=n_faults, replace=False).tolist())
    faults = [CONNECTION_RESET if rng.random() < 0.5 else MALFORMED for _ in range(n_faults)]
    first, rest = goods[: q - n_faults], goods[q - n_faults:]
    wave = []
    for pos in range(q):
        wave.append(faults.pop() if pos in fault_slots else first.pop(0))
    return wave + rest, n_faults


class PolicyStub:
    """Thread-safe ``post_fn`` serving a fixed queue of responses."""

    def __init__(self, responses, delay_s: float = SERVICE_DELAY_S, tracer=None):
        self._queue = deque(responses)
        self._delay = delay_s
        self._tracer = tracer
        self._lock = threading.Lock()
        self.calls = 0
        self.service_s = 0.0

    def __call__(self, url, body, timeout, headers):
        if self._tracer is None:
            return self._serve()
        with self._tracer.span("policy.post"):
            return self._serve()

    def _serve(self):
        t0 = time.perf_counter()
        with self._lock:
            self.calls += 1
            # Past the planned queue: answer malformed and let the call
            # count check report the extra call.
            item = self._queue.popleft() if self._queue else MALFORMED
        time.sleep(self._delay)
        with self._lock:
            self.service_s += time.perf_counter() - t0
        if item is CONNECTION_RESET:
            raise requests.ConnectionError("stub: connection reset by peer")
        return item
