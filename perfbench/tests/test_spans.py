"""Self time attribution of the span recorder."""

import threading
import time

from spans import Tracer


def test_self_time_sums_to_the_root_and_splits_threads():
    tracer = Tracer()
    tracer.episode = "e0"

    def worker():
        with tracer.span("tokens.decode"):
            time.sleep(0.02)

    with tracer.span("bench.episode") as root:
        with tracer.span("policy.sample"):
            threads = [threading.Thread(target=worker) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=5)
            assert not any(t.is_alive() for t in threads)
        with tracer.span("estimator.fit"):
            time.sleep(0.02)
    shares = tracer.self_time(root)
    assert abs(sum(shares.values()) - (root["end"] - root["start"])) < 1e-9
    assert shares["tokens"] > 0.015
    assert shares["estimator"] > 0.015
    decode = [s for s in tracer.spans if s["name"] == "tokens.decode"]
    policy = next(s for s in tracer.spans if s["name"] == "policy.sample")
    assert all(s["parent"] == policy["id"] for s in decode)


def test_patched_restores_the_original():
    import json as module

    tracer = Tracer()
    original = module.dumps
    with tracer.patched([(module, "dumps", "bench.dumps", None),
                         (module, "no_such_name", "bench.none", None)]):
        module.dumps({})
    assert module.dumps is original
    assert [s["name"] for s in tracer.spans] == ["bench.dumps"]
