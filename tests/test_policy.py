import http.client
import json
import math
import multiprocessing
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import closing
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

import rip
from rip.core import Trajectory
from rip.downsample import gripper_transitions
from rip.errors import TransportError
from rip.estimator import FitConfig
from rip.policy import (
    PolicyConfig,
    RemoteConfig,
    RemotePolicyClient,
    SyntheticOracleConfig,
    make_consensus_task,
    sample_trajectories,
    sample_with_client,
)
from rip.tokens import decode_trajectory, encode_action_block, encode_context


def noise_free(seed=0, shape="pick", **kw):
    return SyntheticOracleConfig(
        seed=seed, task_shape=shape, noise_scale=0.0,
        hallucination_prob=0.0, length_jitter=(0, 0), **kw,
    )


class TestConsensusTask:
    def test_deterministic(self):
        a_ctx, a_tr = make_consensus_task(42, "pick")
        b_ctx, b_tr = make_consensus_task(42, "pick")
        assert a_tr == b_tr
        assert a_ctx == b_ctx

    def test_pick_has_exactly_one_close(self):
        for seed in range(10):
            _, tr = make_consensus_task(seed, "pick")
            assert [d for _, d in gripper_transitions(tr)] == [1]

    def test_reach_keeps_gripper_open(self):
        for seed in range(5):
            _, tr = make_consensus_task(seed, "reach")
            assert set(tr.gripper_states()) == {0}

    def test_push_keeps_gripper_open(self):
        _, tr = make_consensus_task(3, "push")
        assert set(tr.gripper_states()) == {0}

    def test_lengths_in_band(self):
        for seed in range(10):
            for shape in ("reach", "push", "pick"):
                _, tr = make_consensus_task(seed, shape)
                assert 20 <= len(tr) <= 40

    def test_default_keypoint_count(self):
        ctx, _ = make_consensus_task(0, "reach")
        assert len(ctx.query_keypoints) == 10
        assert all(len(kp) == 10 for kp, _ in ctx.demonstrations)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            make_consensus_task(0, "juggle")
        # Settings the task would ignore or fail on later, whatever its shape.
        for shape in ("reach", "pick"):
            for kwargs in (dict(pick_profile="bogus"), dict(demo_drift=-1.0),
                           dict(demo_drift=math.inf), dict(demo_wobble=math.nan),
                           dict(demo_wobble=-0.002)):
                with pytest.raises(ValueError):
                    make_consensus_task(0, shape, **kwargs)


class TestSyntheticOracle:
    def test_noise_free_returns_consensus(self):
        ctx, consensus = make_consensus_task(5, "pick")
        cfg = PolicyConfig(backend="synthetic", query_count=5, synthetic=noise_free(5))
        results = sample_trajectories(ctx, cfg)
        assert len(results) == 5
        for r in results:
            assert r.ok
            assert np.allclose(r.trajectory.to_array(), consensus.to_array())

    def test_seeded_determinism(self):
        ctx, _ = make_consensus_task(7, "push")
        oracle = SyntheticOracleConfig(seed=7, task_shape="push",
                                       hallucination_prob=0.2)
        cfg = PolicyConfig(backend="synthetic", query_count=5, synthetic=oracle)
        a = sample_trajectories(ctx, cfg)
        b = sample_trajectories(ctx, cfg)
        for ra, rb in zip(a, b):
            assert ra.trajectory == rb.trajectory

    def test_noise_scale_matches_request(self):
        ctx, consensus = make_consensus_task(11, "reach")
        oracle = replace(noise_free(11, "reach"), noise_scale=0.005)
        cfg = PolicyConfig(backend="synthetic", query_count=100, synthetic=oracle)
        results = sample_trajectories(ctx, cfg)
        ref = consensus.to_array()[:, :9]
        devs = np.concatenate([
            (r.trajectory.to_array()[:, :9] - ref).ravel() for r in results
        ])
        assert abs(devs.std() - 0.005) <= 0.2 * 0.005

    @pytest.mark.parametrize("mode", ["offset", "random-walk"])
    def test_hallucinations_are_genuinely_far(self, mode):
        ctx, consensus = make_consensus_task(3, "reach")
        oracle = replace(noise_free(3, "reach"), hallucination_prob=1.0,
                         hallucination_mode=mode, hallucination_offset=0.14)
        cfg = PolicyConfig(backend="synthetic", query_count=10, synthetic=oracle)
        ref = consensus.to_array()[:, :9]
        for r in sample_trajectories(ctx, cfg):
            dev = np.linalg.norm(
                r.trajectory.to_array()[:, :9] - ref, axis=1
            ).mean()
            assert dev >= 0.14 / 2

    def test_planted_count_is_exact(self):
        ctx, consensus = make_consensus_task(9, "pick")
        oracle = replace(noise_free(9), planted_hallucinations=2,
                         hallucination_offset=0.2)
        cfg = PolicyConfig(backend="synthetic", query_count=5, synthetic=oracle)
        ref = consensus.to_array()[:, :9]
        far = [
            np.linalg.norm(r.trajectory.to_array()[:, :9] - ref, axis=1).mean() > 0.05
            for r in sample_trajectories(ctx, cfg)
        ]
        assert sum(far) == 2

    def test_length_jitter_varies_lengths(self):
        ctx, consensus = make_consensus_task(13, "reach")
        oracle = replace(noise_free(13, "reach"), length_jitter=(-3, 3))
        cfg = PolicyConfig(backend="synthetic", query_count=20, synthetic=oracle)
        lengths = {len(r.trajectory) for r in sample_trajectories(ctx, cfg)}
        assert len(lengths) > 1
        assert all(abs(n - len(consensus)) <= 3 for n in lengths)

    def test_gripper_always_binary(self):
        ctx, _ = make_consensus_task(1, "pick")
        oracle = replace(noise_free(1), hallucination_prob=0.5,
                         hallucination_mode="random-walk", noise_scale=0.01)
        cfg = PolicyConfig(backend="synthetic", query_count=10, synthetic=oracle)
        for r in sample_trajectories(ctx, cfg):
            assert set(r.trajectory.gripper_states()) <= {0, 1}


def fake_completion(trajectory: Trajectory) -> dict:
    return {"completion": encode_action_block(trajectory)}


def remote_config(**kw):
    defaults = dict(endpoint="https://policy.example/v1/complete",
                    model="m", temperature=0.8, timeout_s=5.0, max_retries=2)
    defaults.update(kw)
    return RemoteConfig(**defaults)


class TestRemoteClient:
    def test_happy_path_decodes(self):
        ctx, consensus = make_consensus_task(0, "reach")
        calls = []

        def post(url, body, timeout, headers):
            calls.append(body)
            return fake_completion(consensus)

        client = RemotePolicyClient(remote_config(), post_fn=post)
        cfg = PolicyConfig(backend="remote", query_count=3, remote=remote_config())
        results = sample_with_client(ctx, cfg, client)
        assert [r.status for r in results] == ["ok"] * 3
        assert len({c["prompt"] for c in calls}) == 1  # identical prompt per query
        assert all(c["n"] == 1 for c in calls)

    def test_malformed_retries_then_marks_slot(self):
        ctx, consensus = make_consensus_task(0, "reach")
        attempts = {"n": 0}

        def post(url, body, timeout, headers):
            attempts["n"] += 1
            return {"completion": "no numbers here"}

        client = RemotePolicyClient(remote_config(max_retries=2), post_fn=post)
        cfg = PolicyConfig(backend="remote", query_count=2, remote=remote_config())
        results = sample_with_client(ctx, cfg, client)
        assert [r.status for r in results] == ["malformed", "malformed"]
        assert attempts["n"] == 2 * 3  # two queries, three attempts each

    def test_partial_malformed_keeps_slot_markers(self):
        ctx, consensus = make_consensus_task(0, "reach")
        state = {"i": 0}

        def post(url, body, timeout, headers):
            state["i"] += 1
            if state["i"] % 2 == 0:
                return {"completion": "garbage"}
            return fake_completion(consensus)

        client = RemotePolicyClient(remote_config(max_retries=0), post_fn=post)
        cfg = PolicyConfig(backend="remote", query_count=4, remote=remote_config())
        results = sample_with_client(ctx, cfg, client)
        assert len(results) == 4
        assert {r.status for r in results} == {"ok", "malformed"}
        assert sum(r.ok for r in results) == 2

    def test_transport_failure_raises_with_statuses(self):
        ctx, _ = make_consensus_task(0, "reach")

        def post(url, body, timeout, headers):
            raise OSError("connection refused")

        client = RemotePolicyClient(remote_config(max_retries=1), post_fn=post)
        cfg = PolicyConfig(backend="remote", query_count=3, remote=remote_config())
        with pytest.raises(TransportError) as err:
            sample_with_client(ctx, cfg, client)
        assert err.value.statuses == ["transport-error"] * 3

    def test_transport_failure_is_one_failed_slot(self):
        # The first query dies on the wire; the other three decode.
        ctx, consensus = make_consensus_task(0, "reach")
        calls = []
        lock = threading.Lock()

        def post(url, body, timeout, headers):
            with lock:
                calls.append(url)
                if len(calls) == 1:
                    raise OSError("connection reset")
            return fake_completion(consensus)

        client = RemotePolicyClient(remote_config(max_retries=0), post_fn=post)
        cfg = PolicyConfig(backend="remote", query_count=4, remote=remote_config())
        results = sample_with_client(ctx, cfg, client)
        assert Counter(r.status for r in results) == {"ok": 3, "transport-error": 1}
        assert sum(r.ok for r in results) == 3

    def test_queries_run_concurrently_and_stay_ordered(self):
        ctx, consensus = make_consensus_task(0, "reach")
        delay = 0.15

        def post(url, body, timeout, headers):
            time.sleep(delay)
            return fake_completion(consensus)

        client = RemotePolicyClient(remote_config(), post_fn=post)
        cfg = PolicyConfig(backend="remote", query_count=5, remote=remote_config())
        t0 = time.perf_counter()
        results = sample_with_client(ctx, cfg, client)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5 * delay * 0.8  # parallel issue, not serial
        assert [r.index for r in results] == [0, 1, 2, 3, 4]

    def test_thread_pool_is_capped(self):
        # 200 slots run on at most 32 threads, and a second call runs on
        # threads the first one ran on. The list holds the thread objects,
        # so a new thread cannot pass for an old one by reusing its id.
        ctx, consensus = make_consensus_task(0, "reach")
        reply = fake_completion(consensus)
        lock = threading.Lock()
        threads = []

        def post(url, body, timeout, headers):
            with lock:
                threads.append(threading.current_thread())
            time.sleep(0.002)
            return reply

        client = RemotePolicyClient(remote_config(), post_fn=post)
        cfg = PolicyConfig(backend="remote", query_count=200, remote=remote_config())
        results = _bounded(lambda: sample_with_client(ctx, cfg, client))
        first = set(threads)
        assert [r.index for r in results] == list(range(200))
        assert all(r.ok for r in results)
        assert len(first) <= 32
        threads.clear()
        _bounded(lambda: sample_with_client(ctx, replace(cfg, query_count=10), client))
        assert set(threads) & first

    def test_api_key_header_from_env(self, monkeypatch):
        ctx, consensus = make_consensus_task(0, "reach")
        seen = {}

        def post(url, body, timeout, headers):
            seen.update(headers)
            return fake_completion(consensus)

        monkeypatch.setenv("RIP_API_KEY", "sekret")
        client = RemotePolicyClient(remote_config(), post_fn=post)
        client.query_one("prompt", 0)
        assert seen.get("Authorization") == "Bearer sekret"

    def test_chat_style_response_accepted(self):
        ctx, consensus = make_consensus_task(0, "reach")

        def post(url, body, timeout, headers):
            return {"choices": [{"message": {"content": encode_action_block(consensus)}}]}

        client = RemotePolicyClient(remote_config(), post_fn=post)
        result = client.query_one("prompt", 0)
        assert result.ok

    @pytest.mark.parametrize("choice, status", [("text", "ok"), ("empty", "malformed")])
    def test_completion_style_choice(self, choice, status):
        # A choice that carries neither "text" nor a message is a failed
        # slot, not an exception.
        _, consensus = make_consensus_task(0, "reach")
        first = {"text": encode_action_block(consensus)} if choice == "text" else {}
        client = RemotePolicyClient(remote_config(max_retries=0),
                                    post_fn=lambda *args: {"choices": [first]})
        assert client.query_one("prompt", 0).status == status

    def test_audit_log_written(self, tmp_path):
        from rip.policy import _QueryAudit

        ctx, consensus = make_consensus_task(0, "reach")
        path = tmp_path / "audit.jsonl"

        def post(url, body, timeout, headers):
            return fake_completion(consensus)

        with closing(_QueryAudit(path)) as audit:
            client = RemotePolicyClient(remote_config(), post_fn=post, audit=audit)
            client.query_one("prompt text", 3)
            lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["query_index"] == 3
        assert record["request"]["prompt"] == "prompt text"

    @pytest.mark.parametrize("writable", [True, False])
    def test_sampling_call_opens_its_audit_log_before_posting(self, monkeypatch, tmp_path,
                                                              writable):
        ctx, consensus = make_consensus_task(0, "reach")
        calls = []

        def post(url, body, timeout, headers):
            calls.append(url)
            return fake_completion(consensus)

        monkeypatch.setattr("rip.policy._default_post", post)
        path = tmp_path / ("audit.jsonl" if writable else "missing/audit.jsonl")
        config = PolicyConfig(backend="remote", query_count=3, remote=remote_config(),
                              log_queries_path=str(path))
        if writable:
            assert [r.status for r in sample_trajectories(ctx, config)] == ["ok"] * 3
            assert len(path.read_text().splitlines()) == 3 == len(calls)
        else:
            with pytest.raises(OSError):
                sample_trajectories(ctx, config)
            assert calls == []



def _bounded(fn, timeout=30.0):
    """fn() in a daemon thread: its result, or its exception re-raised.
    A call still running after ``timeout`` seconds fails the test."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"still running after {timeout} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


class TestFirstWave:
    """A slot decodes once no first request is in flight; a slot whose
    first attempt failed retries at once."""

    @pytest.mark.parametrize("fault", ["reset", "malformed"])
    def test_failed_slot_retries_before_any_decode(self, monkeypatch, fault):
        ctx, consensus = make_consensus_task(0, "reach")
        good = fake_completion(consensus)
        retried = {"completion": good["completion"] + "\nOn a second try."}
        q = 4
        # First-wave delays by call order; the second call fails.
        delays = [0.02, 0.06, 0.10, 0.14]
        lock = threading.Lock()
        posts = []  # (start, end) per call, in call order
        decodes = []  # (start, text)

        def post(url, body, timeout, headers):
            start = time.perf_counter()
            with lock:
                n = len(posts)
                posts.append(None)
            time.sleep(delays[n] if n < q else 0.01)
            posts[n] = (start, time.perf_counter())
            if n == q:
                return retried
            if n == 1 and fault == "reset":
                raise OSError("connection reset")
            return {"completion": "I cannot."} if n == 1 else good

        decode = rip.policy.decode_trajectory

        def timed_decode(text):
            decodes.append((time.perf_counter(), text))
            return decode(text)

        monkeypatch.setattr("rip.policy.decode_trajectory", timed_decode)
        client = RemotePolicyClient(remote_config(max_retries=1), post_fn=post)
        cfg = PolicyConfig(backend="remote", query_count=q, remote=remote_config())
        results = _bounded(lambda: sample_with_client(ctx, cfg, client))
        assert [r.status for r in results] == ["ok"] * q
        assert sorted(r.attempts for r in results) == [1, 1, 1, 2]
        assert len(posts) == q + 1
        # The three good first responses decode after the last first
        # response; the failed slot's retry posts before any of them.
        good_decodes = [t for t, text in decodes if text == good["completion"]]
        assert len(good_decodes) == q - 1
        assert min(good_decodes) >= max(end for _, end in posts[:q])
        assert posts[q][0] < min(good_decodes)

    def test_an_escaping_error_does_not_hang_the_other_slots(self):
        # The first reply is a JSON list, which raises AttributeError out of
        # its slot and ends the call; the slots waiting on the first wave
        # must not hang, and the error surfaces only once they have ended.
        ctx, consensus = make_consensus_task(0, "reach")
        good = fake_completion(consensus)
        lock = threading.Lock()
        calls = []
        returned = []

        def post(url, body, timeout, headers):
            with lock:
                calls.append(url)
                n = len(calls)
            time.sleep(0.01 * n)
            with lock:
                returned.append(n)
            return ["not", "a", "completion"] if n == 1 else good

        client = RemotePolicyClient(remote_config(), post_fn=post)
        cfg = PolicyConfig(backend="remote", query_count=5, remote=remote_config())
        with pytest.raises(AttributeError):
            _bounded(lambda: sample_with_client(ctx, cfg, client))
        assert sorted(returned) == [1, 2, 3, 4, 5]

    def test_more_slots_than_threads(self):
        # 40 slots on 32 threads: later slots start while earlier ones wait
        # on the first wave. Every fifth of the first 32 calls fails, and a
        # short switch interval preempts the gate's updates often; a lost
        # update hangs.
        ctx, consensus = make_consensus_task(0, "reach")
        reply = fake_completion(consensus)
        lock = threading.Lock()
        calls = []

        def post(url, body, timeout, headers):
            with lock:
                calls.append(url)
                n = len(calls)
            time.sleep(0.02)
            if n <= 32 and n % 5 == 0:
                raise OSError("connection reset")
            return reply

        client = RemotePolicyClient(remote_config(), post_fn=post)
        cfg = PolicyConfig(backend="remote", query_count=40, remote=remote_config())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = _bounded(lambda: sample_with_client(ctx, cfg, client))
        finally:
            sys.setswitchinterval(interval)
        assert [r.index for r in results] == list(range(40))
        assert all(r.ok for r in results)
        assert sum(r.attempts for r in results) == len(calls)


class TestSharedPool:
    """One pool of query threads serves every call in the process."""

    def test_concurrent_calls_get_their_own_slots_in_order(self):
        # Two threads sample two tasks at once. The stub answers each
        # prompt with its own task's trajectory, so a slot that went to the
        # other call would show.
        tasks = [make_consensus_task(seed, "reach") for seed in (0, 1)]
        replies = {encode_context(ctx): fake_completion(consensus) for ctx, consensus in tasks}
        expected = [decode_trajectory(encode_action_block(consensus)) for _, consensus in tasks]

        def post(url, body, timeout, headers):
            time.sleep(0.005)
            return replies[body["prompt"]]

        client = RemotePolicyClient(remote_config(), post_fn=post)
        cfg = PolicyConfig(backend="remote", query_count=20, remote=remote_config())
        out = {}

        def run(k):
            out[k] = sample_with_client(tasks[k][0], cfg, client)

        callers = [threading.Thread(target=run, args=(k,), daemon=True) for k in (0, 1)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(30.0)
            assert not caller.is_alive()
        for k in (0, 1):
            assert [r.index for r in out[k]] == list(range(20))
            assert all(r.ok and r.trajectory == expected[k] for r in out[k])

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork on this platform")
    # Forking a process with threads is the case under test.
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_forked_child_gets_a_pool_of_its_own(self):
        # The child inherits the parent's ten idle threads as a count, not
        # as threads; on that pool its four slots would never run.
        ctx, consensus = make_consensus_task(0, "reach")
        reply = fake_completion(consensus)

        def post(url, body, timeout, headers):
            time.sleep(0.02)
            return reply

        client = RemotePolicyClient(remote_config(), post_fn=post)
        cfg = PolicyConfig(backend="remote", query_count=10, remote=remote_config())
        assert all(r.ok for r in _bounded(lambda: sample_with_client(ctx, cfg, client)))

        def child():
            small = replace(cfg, query_count=4)
            results = _bounded(lambda: sample_with_client(ctx, small, client), timeout=10.0)
            assert [r.index for r in results] == [0, 1, 2, 3]
            assert all(r.ok for r in results)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(30.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
        assert proc.exitcode == 0


class _Handler(BaseHTTPRequestHandler):
    """Serves ``self.server.replies[path]``: (status, body, declared length)."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.hits[self.path] += 1
        status, body, length = self.server.replies[self.path]
        self.send_response(status)
        self.send_header("Content-Length", str(length))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def loopback(monkeypatch):
    """A local HTTP server; set ``server.replies[path]`` before posting."""
    for name in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(name, raising=False)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.replies = {}
    server.hits = Counter()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


class TestDefaultPost:
    """The stdlib transport, against a real loopback server."""

    def query(self, server, path, status, body, length=None, max_retries=0):
        server.replies[path] = (status, body, len(body) if length is None else length)
        host, port = server.server_address
        cfg = remote_config(endpoint=f"http://{host}:{port}{path}", max_retries=max_retries)
        return RemotePolicyClient(cfg).query_one("prompt", 0)

    def test_ok_reply_decodes(self, loopback):
        _, consensus = make_consensus_task(0, "reach")
        body = json.dumps(fake_completion(consensus)).encode()
        result = self.query(loopback, "/ok", 200, body)
        assert result.status == "ok"
        np.testing.assert_allclose(result.trajectory.data, consensus.data, atol=1e-3)

    @pytest.mark.parametrize("status, body", [(500, b"{}"), (200, b"<html>busy</html>")])
    def test_error_status_or_non_json_body_is_a_transport_error(self, loopback, status, body):
        result = self.query(loopback, "/bad", status, body)
        assert result.status == "transport-error"
        assert result.trajectory is None

    @pytest.mark.parametrize("status, hits", [(404, 1), (400, 1), (429, 3), (408, 3),
                                              (503, 3)])
    def test_a_refusing_4xx_is_not_retried(self, loopback, status, hits):
        # 408 and 429 say "try again"; any other 4xx would be refused again.
        result = self.query(loopback, "/refuse", status, b"{}", max_retries=2)
        assert result.status == "transport-error"
        assert result.attempts == hits
        assert loopback.hits["/refuse"] == hits

    def test_deeply_nested_body_is_a_retried_transport_error(self, loopback):
        # json.loads raises RecursionError, not ValueError, on this body.
        result = self.query(loopback, "/deep", 200, b"[" * 100_000, max_retries=1)
        assert result.status == "transport-error"
        assert result.attempts == 2 and loopback.hits["/deep"] == 2

    def test_truncated_body_is_a_failed_slot(self, loopback):
        # The reply declares more bytes than it sends, so the read raises
        # http.client.IncompleteRead, which is not an OSError.
        assert not issubclass(http.client.IncompleteRead, OSError)
        result = self.query(loopback, "/short", 200, b'{"completion": "1 2', length=400)
        assert result.status == "transport-error"


def test_import_leaves_requests_unloaded():
    src = str(Path(rip.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import rip; print('requests' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestConfigValidation:
    def test_query_count_positive(self):
        with pytest.raises(ValueError):
            PolicyConfig(backend="synthetic", query_count=0)

    def test_remote_needs_settings(self):
        with pytest.raises(ValueError):
            PolicyConfig(backend="remote", query_count=1)

    @pytest.mark.parametrize("kwargs", [
        dict(remote=RemoteConfig(endpoint="x")), dict(preamble="PREAMBLE"),
        dict(log_queries_path="queries.jsonl"),
    ], ids=["remote", "preamble", "log_queries_path"])
    def test_synthetic_refuses_remote_only_settings(self, kwargs):
        # The synthetic backend reads none of these; the remote backend reads each.
        with pytest.raises(ValueError):
            PolicyConfig(backend="synthetic", **kwargs)
        PolicyConfig(backend="remote", **{"remote": RemoteConfig(endpoint="x"), **kwargs})

    @pytest.mark.parametrize("make, kwargs", [
        (SyntheticOracleConfig, dict(task_shape="juggle")),
        (PolicyConfig, dict(backend="carrier-pigeon")),
    ], ids=["task-shape", "backend"])
    def test_unknown_names_rejected(self, make, kwargs):
        with pytest.raises(ValueError):
            make(**kwargs)

    def test_temperature_nonnegative(self):
        with pytest.raises(ValueError):
            RemoteConfig(endpoint="x", temperature=-0.1)

    def test_oracle_validation(self):
        with pytest.raises(ValueError):
            SyntheticOracleConfig(hallucination_prob=1.5)
        with pytest.raises(ValueError):
            SyntheticOracleConfig(noise_scale=-1.0)
        with pytest.raises(ValueError):
            SyntheticOracleConfig(hallucination_mode="teleport")
        with pytest.raises(ValueError):
            SyntheticOracleConfig(length_jitter=(3, -3))

    @pytest.mark.parametrize("make, kwargs", [
        (FitConfig, dict(nu=math.nan)),
        (FitConfig, dict(learning_rate=math.nan)),
        (FitConfig, dict(learning_rate=math.inf)),
        (SyntheticOracleConfig, dict(noise_scale=math.nan)),
        (SyntheticOracleConfig, dict(hallucination_offset=math.inf)),
        (RemoteConfig, dict(endpoint="x", temperature=math.nan)),
        (RemoteConfig, dict(endpoint="x", temperature=math.inf)),
        (RemoteConfig, dict(endpoint="x", timeout_s=-1.0)),
        (RemoteConfig, dict(endpoint="x", timeout_s=0.0)),
        (RemoteConfig, dict(endpoint="x", timeout_s=math.nan)),
        (RemoteConfig, dict(endpoint="x", timeout_s=math.inf)),
    ])
    def test_non_finite_and_non_positive_values_rejected(self, make, kwargs):
        # Each of these used to pass construction and fail only at run
        # time: a non-finite gradient or action, or a failed slot per query.
        with pytest.raises(ValueError):
            make(**kwargs)


    @pytest.mark.parametrize("make, kwargs", [
        (PolicyConfig, dict(query_count=2.5)),
        (PolicyConfig, dict(query_count=True)),
        (SyntheticOracleConfig, dict(seed=1.5)),
        (SyntheticOracleConfig, dict(planted_hallucinations=1.5)),
        (SyntheticOracleConfig, dict(planted_hallucinations=-1)),
        (SyntheticOracleConfig, dict(length_jitter=(-1.5, 2))),
        (RemoteConfig, dict(endpoint="x", max_retries=1.5)),
    ])
    def test_non_integer_counts_rejected(self, make, kwargs):
        # Each used to pass construction and then fail inside numpy or
        # range(), run silently, or escape a worker thread as a TypeError.
        with pytest.raises(ValueError):
            make(**kwargs)

    def test_numpy_integer_counts_accepted(self):
        assert PolicyConfig(query_count=np.int64(3)).query_count == 3
        oracle = SyntheticOracleConfig(seed=np.int64(2), planted_hallucinations=np.int32(1),
                                       length_jitter=(np.int64(-1), 1))
        assert oracle.planted_hallucinations == 1
        assert RemoteConfig(endpoint="x", max_retries=np.int8(1)).max_retries == 1
