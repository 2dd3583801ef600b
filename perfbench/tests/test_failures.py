"""Failed episodes are counted, whatever they raise, and checks can fail."""

import math
from collections import Counter

import episodes
import run
from rip import TransportError
from stub import CONNECTION_RESET, PolicyStub


class AlwaysFails(PolicyStub):
    def __init__(self):
        super().__init__([CONNECTION_RESET] * 100, delay_s=0.0)


class JsonList(PolicyStub):
    def __init__(self):
        super().__init__([["not", "a", "completion"]] * 100, delay_s=0.0)


def test_transport_failure_is_counted():
    inp = episodes.remote_inputs(1)
    errors = Counter()
    out, seconds = run.attempt(lambda: episodes.run_remote(inp, AlwaysFails()), errors)
    assert out is None and math.isinf(seconds)
    assert errors == Counter({TransportError.__name__: 1})


def test_json_list_payload_is_counted_although_not_a_rip_error():
    inp = episodes.remote_inputs(1)
    errors = Counter()
    out, _ = run.attempt(lambda: episodes.run_remote(inp, JsonList()), errors)
    assert out is None
    assert errors == Counter({"AttributeError": 1})


class FlakyRemote(episodes.RemoteWorkload):
    """Every other timed episode meets a broken endpoint."""

    def start(self, inp):
        self.started = getattr(self, "started", 0) + 1
        if inp.seed == episodes.warmup_seed(self.seed, self.id) or self.started % 2:
            return super().start(inp)
        stub = AlwaysFails() if self.started % 4 else JsonList()
        return lambda: episodes.run_remote(inp, stub)


def test_run_counts_failures_and_keeps_going():
    res = run.run_untraced(FlakyRemote(5), seconds=1.5)
    assert res.problems == []
    assert set(res.errors) == {"TransportError", "AttributeError"}
    assert res.failed >= 2
    assert res.values["completed_ratio"] == (res.attempted - res.failed) / res.attempted
    assert res.extra["failed_ratio"][0] == res.failed / res.attempted


def test_remote_check_passes_and_catches_a_wrong_decode():
    inp = episodes.remote_inputs(2)
    stub = PolicyStub(list(inp.responses), delay_s=0.0)
    samples, bundle = episodes.run_remote(inp, stub)
    assert episodes.check_remote(inp, samples, bundle, stub) == []
    assert stub.calls == len(inp.served) + inp.faults
    inp.served[0] = inp.served[0].copy()
    inp.served[0][0, 0] += 1
    assert episodes.check_remote(inp, samples, bundle, stub) == [
        "decoded samples differ from the served multiset"]
