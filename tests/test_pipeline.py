import math
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import rip.pipeline
import rip.policy
from rip.bench import trajectory_rmse
from rip.errors import PipelineError
from rip.estimator import FitConfig
from rip.pipeline import run_rip, single_sample
from rip.policy import (
    PolicyConfig,
    RemoteConfig,
    SampleResult,
    SyntheticOracleConfig,
    make_consensus_task,
)
from rip.tokens import encode_action_block


def oracle(seed, shape="pick", **kw):
    base = dict(seed=seed, task_shape=shape, noise_scale=0.0,
                hallucination_prob=0.0, length_jitter=(0, 0))
    base.update(kw)
    return SyntheticOracleConfig(**base)


def policy(seed, q=5, **kw):
    return PolicyConfig(backend="synthetic", query_count=q, synthetic=oracle(seed, **kw))


FIT = FitConfig(steps=2500)
GAUSS = replace(FIT, nu=math.inf)


class TestRip:
    def test_noise_free_recovers_consensus(self):
        ctx, consensus = make_consensus_task(0, "pick")
        traj, report = run_rip(ctx, policy(0), replace(FIT, seed=0))
        err = np.abs(traj.to_array()[:, :9] - consensus.to_array()[:, :9])
        assert err.max() <= 1e-2
        assert traj.gripper_states() == consensus.gripper_states()
        assert report.decoded_count == 5

    def test_output_matches_bundle_shape(self):
        ctx, consensus = make_consensus_task(2, "reach")
        traj, report = run_rip(ctx, policy(2, shape="reach", length_jitter=(-3, 3)),
                               replace(FIT, seed=2))
        assert len(traj) == report.bundle_length
        assert report.bundle_length >= len(consensus) - 3

    def test_status_counts_sum_to_q(self):
        ctx, _ = make_consensus_task(3, "push")
        _, report = run_rip(ctx, policy(3, q=7, shape="push"), replace(FIT, seed=3))
        assert Counter(report.sample_status) == {"ok": 7}
        assert len(report.sample_status) == 7

    def test_single_query_degenerates_to_the_sample(self):
        ctx, _ = make_consensus_task(4, "reach")
        pol = policy(4, q=1, shape="reach", noise_scale=0.004)
        traj, _ = run_rip(ctx, pol, replace(FIT, seed=4))
        sample = single_sample(ctx, pol)
        err = np.abs(traj.to_array()[:, :9] - sample.to_array()[:, :9])
        assert err.max() <= 1.5e-2

    def test_planted_hallucination_final_step(self):
        # One 0.14 m offset among five samples: the robust path shrugs it
        # off; the Gaussian ablation is dragged about a fifth of the way.
        devs_rip, devs_gauss = [], []
        for seed in range(5):
            ctx, consensus = make_consensus_task(seed, "push")
            pol = policy(seed, shape="push", noise_scale=0.005, length_jitter=(-3, 3),
                         planted_hallucinations=1, hallucination_offset=0.14)
            final_ref = consensus.data[-1, :3]
            traj_t, _ = run_rip(ctx, pol, replace(FIT, seed=seed))
            traj_g, _ = run_rip(ctx, pol, replace(GAUSS, seed=seed))
            devs_rip.append(np.linalg.norm(traj_t.data[-1, :3] - final_ref))
            devs_gauss.append(np.linalg.norm(traj_g.data[-1, :3] - final_ref))
        assert np.median(devs_rip) < 0.03
        assert 0.01 < np.median(devs_gauss) < 0.06
        assert np.median(devs_rip) < np.median(devs_gauss)

    def test_report_is_json_serializable(self):
        import json

        ctx, _ = make_consensus_task(5, "reach")
        _, report = run_rip(ctx, policy(5, shape="reach"), replace(FIT, seed=5))
        payload = json.dumps(report.to_dict())
        back = json.loads(payload)
        assert back["method"] == "rip"
        assert back["config_echo"]["fit"]["nu"] == 1.5
        assert set(back["timings"]) == {"sample_s", "align_s", "fit_s",
                                        "extract_s", "total_s"}

    def test_no_decodable_samples_is_pipeline_error(self, monkeypatch):
        ctx, _ = make_consensus_task(6, "reach")

        def all_failed(context, config):
            return [SampleResult(i, None, "malformed") for i in range(config.query_count)]

        monkeypatch.setattr(rip.pipeline, "sample_trajectories", all_failed)
        with pytest.raises(PipelineError):
            run_rip(ctx, policy(6), FIT)

    def test_all_malformed_remote_run_is_pipeline_error(self, monkeypatch):
        ctx, _ = make_consensus_task(6, "reach")
        monkeypatch.setattr(rip.policy, "_default_post",
                            lambda url, body, timeout, headers: {"completion": "no numbers"})
        remote = RemoteConfig(endpoint="https://policy.example/v1/complete", max_retries=1)
        with pytest.raises(PipelineError):
            run_rip(ctx, PolicyConfig(backend="remote", query_count=3, remote=remote), FIT)

    def test_transport_error_is_one_failed_slot(self, monkeypatch):
        ctx, consensus = make_consensus_task(6, "reach")
        reply = {"completion": encode_action_block(consensus)}
        calls = []
        lock = threading.Lock()

        def first_call_dies(url, body, timeout, headers):
            with lock:
                calls.append(url)
                if len(calls) == 1:
                    raise OSError("connection reset")
            return reply

        monkeypatch.setattr(rip.policy, "_default_post", first_call_dies)
        remote = RemoteConfig(endpoint="https://policy.example/v1/complete", max_retries=0)
        pol = PolicyConfig(backend="remote", query_count=4, remote=remote)
        traj, report = run_rip(ctx, pol, replace(FIT, steps=200))
        assert Counter(report.sample_status) == {"ok": 3, "transport-error": 1}
        assert report.decoded_count == 3
        assert len(traj) == len(consensus)

    def test_failed_slots_shrink_bundle_but_not_report(self, monkeypatch):
        ctx, consensus = make_consensus_task(7, "reach")
        real = rip.pipeline.sample_trajectories

        def one_bad(context, config):
            results = real(context, config)
            return [SampleResult(0, None, "malformed")] + results[1:]

        monkeypatch.setattr(rip.pipeline, "sample_trajectories", one_bad)
        traj, report = run_rip(ctx, policy(7, shape="reach"), replace(FIT, seed=7))
        assert report.decoded_count == 4
        assert report.sample_status[0] == "malformed"
        assert len(report.sample_status) == 5


class TestRipGauss:
    def test_matches_rip_on_clean_bundles(self):
        ctx, _ = make_consensus_task(8, "reach")
        pol = policy(8, shape="reach", noise_scale=0.003)
        traj_t, _ = run_rip(ctx, pol, replace(FIT, seed=8))
        traj_g, _ = run_rip(ctx, pol, replace(GAUSS, seed=8))
        err = np.abs(traj_t.to_array()[:, :9] - traj_g.to_array()[:, :9])
        assert err.max() <= 1e-2

    def test_infinite_nu_reports_rip_gauss(self):
        ctx, _ = make_consensus_task(9, "pick")
        _, report = run_rip(ctx, policy(9, noise_scale=0.004), replace(GAUSS, seed=9))
        assert report.to_dict()["method"] == "rip_gauss"

    def test_pulled_by_outlier_weight(self):
        ctx, consensus = make_consensus_task(10, "reach")
        pol = policy(10, shape="reach", planted_hallucinations=1, hallucination_offset=0.2)
        traj_g, _ = run_rip(ctx, pol, replace(GAUSS, seed=10))
        rmse = trajectory_rmse(traj_g, consensus)
        # Gaussian location is the sample mean: offset/Q per coordinate.
        expected = 0.2 / 5 / math.sqrt(3)
        assert rmse == pytest.approx(expected, rel=0.5)


class TestSingleSample:
    def test_noise_free_is_consensus(self):
        ctx, consensus = make_consensus_task(11, "push")
        traj = single_sample(ctx, policy(11, shape="push"))
        assert np.allclose(traj.to_array(), consensus.to_array())

    def test_always_hallucinates_at_ph_one(self):
        ctx, consensus = make_consensus_task(12, "reach")
        traj = single_sample(ctx, policy(12, shape="reach", hallucination_prob=1.0,
                                         hallucination_offset=0.14))
        dev = np.linalg.norm(
            traj.to_array()[:, :9] - consensus.to_array()[:, :9], axis=1).mean()
        assert dev >= 0.07

    def test_undecodable_query_is_pipeline_error(self, monkeypatch):
        ctx, _ = make_consensus_task(13, "reach")
        monkeypatch.setattr(rip.policy, "_default_post",
                            lambda url, body, timeout, headers: {"completion": "no numbers"})
        remote = RemoteConfig(endpoint="https://policy.example/v1/complete", max_retries=0)
        with pytest.raises(PipelineError):
            single_sample(ctx, PolicyConfig(backend="remote", remote=remote))

    def test_deterministic(self):
        ctx, _ = make_consensus_task(13, "pick")
        pol = policy(13, shape="pick", noise_scale=0.005)
        assert single_sample(ctx, pol) == single_sample(ctx, pol)


class TestAggregationHelps:
    def test_rip_beats_single_sample_without_outliers(self):
        rip_rmses, single_rmses = [], []
        for seed in range(10):
            ctx, consensus = make_consensus_task(seed, "reach")
            pol = policy(seed, shape="reach", noise_scale=0.006, length_jitter=(-2, 2))
            traj, _ = run_rip(ctx, pol, replace(FIT, seed=seed, steps=1500))
            rip_rmses.append(trajectory_rmse(traj, consensus))
            single_rmses.append(trajectory_rmse(single_sample(ctx, pol), consensus))
        assert np.mean(rip_rmses) <= np.mean(single_rmses)
