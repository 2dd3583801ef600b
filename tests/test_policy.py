import http.client
import json
import math
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
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
from rip.tokens import encode_action_block


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

    @pytest.mark.parametrize("q, threads", [(10, 10), (5000, 32)])
    def test_thread_pool_is_capped(self, monkeypatch, q, threads):
        # The fake executor records its size and runs each query inline,
        # so a large Q starts no threads.
        sizes = []

        class InlineExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr("rip.policy.ThreadPoolExecutor", InlineExecutor)
        ctx, consensus = make_consensus_task(0, "reach")
        reply = fake_completion(consensus)
        client = RemotePolicyClient(remote_config(), post_fn=lambda *args: reply)
        cfg = PolicyConfig(backend="remote", query_count=q, remote=remote_config())
        results = sample_with_client(ctx, cfg, client)
        assert sizes == [threads]
        assert [r.index for r in results] == list(range(q))
        assert all(r.ok for r in results)

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

    def test_audit_log_written(self, tmp_path):
        from rip.policy import _QueryAudit

        ctx, consensus = make_consensus_task(0, "reach")
        path = tmp_path / "audit.jsonl"

        def post(url, body, timeout, headers):
            return fake_completion(consensus)

        client = RemotePolicyClient(remote_config(), post_fn=post,
                                    audit=_QueryAudit(path))
        client.query_one("prompt text", 3)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["query_index"] == 3
        assert record["request"]["prompt"] == "prompt text"


class _Handler(BaseHTTPRequestHandler):
    """Serves ``self.server.replies[path]``: (status, body, declared length)."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
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
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


class TestDefaultPost:
    """The stdlib transport, against a real loopback server."""

    def query(self, server, path, status, body, length=None):
        server.replies[path] = (status, body, len(body) if length is None else length)
        host, port = server.server_address
        cfg = remote_config(endpoint=f"http://{host}:{port}{path}", max_retries=0)
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
