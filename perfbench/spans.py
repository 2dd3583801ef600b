"""In-memory span recorder for the traced run.

A span is (name, start, end, parent, episode). The module a span belongs
to is the part of its name before the first dot. Spans are opened around
the benchmark's calls into ``rip`` and, by swapping module attributes for
the duration of a replay, around calls that ``rip`` makes into its own
modules. Worker threads (the remote client's pool) have no open span of
their own, so their spans hang under the span the main thread has open.
Counts are recorded at the same boundaries, as fields of the span record
(bytes decoded, steps resampled, calls served).
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.episode = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "episode": self.episode}
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn, counts=None):
        """``fn`` recording a span per call; ``counts(args)`` returns the
        fields to record on the span, taken before the call so that a call
        that raises is counted too."""
        def traced(*args, **kwargs):
            with self.span(name) as record:
                if counts is not None:
                    record.update(counts(args))
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def patched(self, targets):
        """Swap ``module.attr`` for a traced wrapper while the block runs.

        ``targets`` holds (module, attr, span name, counts). Attributes a
        module does not have are skipped, so the trace degrades to fewer
        child spans rather than failing when internals move.
        """
        saved = []
        try:
            for module, attr, name, counts in targets:
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original, counts))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def episode_spans(self, episode) -> list[dict]:
        return [s for s in self.spans if s["episode"] == episode]

    def self_time(self, root: dict) -> dict:
        """Seconds of ``root`` attributed to each module.

        Sweeps the root's interval: at every instant the time goes to the
        innermost open spans, split evenly when spans on several threads
        are innermost at once. The values sum to the root's duration.
        """
        inside = [s for s in self.episode_spans(root["episode"])
                  if s["start"] >= root["start"] and s["end"] <= root["end"]]
        events = sorted([(s["start"], 1, s["id"]) for s in inside]
                        + [(s["end"], -1, s["id"]) for s in inside],
                        key=lambda e: (e[0], -e[1]))
        by_id = {s["id"]: s for s in inside}
        open_children: dict[int, int] = defaultdict(int)
        live: set[int] = set()
        out: dict[str, float] = defaultdict(float)
        prev = root["start"]
        for t, kind, sid in events:
            if live and t > prev:
                leaves = [i for i in live if open_children[i] == 0]
                share = (t - prev) / len(leaves)
                for i in leaves:
                    out[by_id[i]["name"].split(".")[0]] += share
            prev = t
            parent = by_id[sid]["parent"]
            if kind == 1:
                live.add(sid)
                if parent in live:
                    open_children[parent] += 1
            else:
                live.discard(sid)
                if parent in live:
                    open_children[parent] -= 1
        return dict(out)

    def dump(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
