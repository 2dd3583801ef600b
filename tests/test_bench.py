import math

import pytest

from conftest import line_trajectory

import rip.bench
from rip.bench import (
    CellResult,
    DownsampleBenchSettings,
    SweepSettings,
    downsample_success_rates,
    run_downsample_bench,
    run_downsample_trial,
    run_sweep,
    task_success,
    trajectory_rmse,
    trial_seed,
    two_proportion_band,
    write_downsample_csv,
    write_sweep_csv,
)
from rip.estimator import FitConfig
from rip.policy import SyntheticOracleConfig, make_consensus_task


def gripper_line(n, close_at):
    g = [0] * close_at + [1] * (n - close_at)
    return line_trajectory(n, g=g)


class TestTaskSuccess:
    def test_identical_trajectories_succeed(self):
        tr = gripper_line(20, 10)
        out = task_success(tr, tr)
        assert out["success"] and out["final_err"] == 0.0

    def test_displaced_final_position_fails(self):
        a = line_trajectory(20, x0=0.0, x1=1.0)
        b = line_trajectory(20, x0=0.0, x1=1.05)
        assert not task_success(a, b)["success"]
        assert task_success(a, b)["final_err"] == pytest.approx(0.05)

    def test_missing_transition_fails(self):
        plain = line_trajectory(20)
        gripped = gripper_line(20, 10)
        out = task_success(plain, gripped)
        assert not out["success"] and not out["events_ok"]

    def test_event_position_check(self):
        ref = gripper_line(21, 10)          # close at x = 10/20 = 0.5
        good = gripper_line(21, 10)
        late = gripper_line(21, 16)         # close at x = 0.8, 0.3 away
        assert task_success(good, ref, event_tol=0.02)["success"]
        out = task_success(late, ref, event_tol=0.02)
        assert not out["success"]
        assert out["event_err"] > 0.02

    def test_direction_only_by_default(self):
        ref = gripper_line(21, 10)
        late = gripper_line(21, 16)
        assert task_success(late, ref)["success"]  # directions match, no event_tol


class TestRmse:
    def test_zero_for_identical(self):
        tr = line_trajectory(15)
        assert trajectory_rmse(tr, tr) == 0.0

    def test_constant_offset(self):
        a = line_trajectory(10, x0=0.0, x1=0.0)
        b = line_trajectory(10, x0=0.1, x1=0.1)
        # x differs by 0.1 on all three triplet points, 9 channels total
        assert trajectory_rmse(a, b) == pytest.approx(0.1 / math.sqrt(3))

    def test_length_mismatch_handled(self):
        a = line_trajectory(10, x0=0.0, x1=1.0)
        b = line_trajectory(25, x0=0.0, x1=1.0)
        assert trajectory_rmse(a, b) <= 1e-12


class TestSeeding:
    def test_trial_seed_stable(self):
        assert trial_seed(0, 1, 2) == trial_seed(0, 1, 2)
        assert trial_seed(0, 1, 2) != trial_seed(0, 2, 1)


class TestBand:
    def test_matches_hand_computation(self):
        band = two_proportion_band(0.5, 0.5, 50, 50)
        assert band == pytest.approx(1.96 * math.sqrt(2 * 0.25 / 50))

    def test_shrinks_near_certainty(self):
        assert two_proportion_band(0.98, 0.5, 50, 50) < two_proportion_band(0.5, 0.5, 50, 50)


def tiny_sweep_settings(**kw):
    defaults = dict(
        q_values=(2,),
        nu_values=(1.5,),
        trials=2,
        master_seed=0,
        oracle=SyntheticOracleConfig(task_shape="reach", noise_scale=0.004,
                                     hallucination_prob=0.0),
        fit=FitConfig(steps=300),
    )
    defaults.update(kw)
    return SweepSettings(**defaults)


class TestSweep:
    def test_smoke_and_csv(self, tmp_path):
        results = run_sweep(tiny_sweep_settings())
        assert len(results) == 1
        assert results[0].n_trials == 2
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, results)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "q,nu,success_rate,rmse_mean,rmse_std,n_trials"
        assert len(lines) == 2

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(tiny_sweep_settings(q_values=()))
        with pytest.raises(ValueError):
            run_sweep(tiny_sweep_settings(trials=0))

    def test_parallel_equals_serial(self):
        settings = tiny_sweep_settings(q_values=(2, 3), trials=2)
        serial = run_sweep(settings, workers=1)
        parallel = run_sweep(settings, workers=2)
        assert serial == parallel

    def test_append_keeps_single_header(self, tmp_path):
        results = run_sweep(tiny_sweep_settings())
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, results)
        write_sweep_csv(path, results, append=True)
        lines = path.read_text().strip().splitlines()
        assert sum(1 for l in lines if l.startswith("q,")) == 1
        assert len(lines) == 3

    def test_inf_nu_formatting(self, tmp_path):
        row = CellResult(q=5, nu=math.inf, success_rate=0.5,
                         rmse_mean=0.01, rmse_std=0.001, n_trials=2)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, [row])
        assert "5,inf,0.5000" in path.read_text()


class TestDownsampleBench:
    def test_smoke_and_rates(self, tmp_path):
        settings = DownsampleBenchSettings(
            n_seeds=2,
            fit=FitConfig(steps=400),
            oracle=SyntheticOracleConfig(noise_scale=0.002, hallucination_prob=0.0,
                                         length_jitter=(0, 0), follow_context_demo=True),
        )
        rows = run_downsample_bench(settings)
        assert len(rows) == 4
        rates = downsample_success_rates(rows)
        assert set(rates) == {"g_based", "uniform"}
        path = tmp_path / "ds.csv"
        write_downsample_csv(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "method,seed,success,final_err,event_err"
        assert len(lines) == 5

    def test_parallel_equals_serial(self):
        settings = DownsampleBenchSettings(
            n_seeds=2,
            fit=FitConfig(steps=300),
            oracle=SyntheticOracleConfig(noise_scale=0.002, hallucination_prob=0.0,
                                         length_jitter=(0, 0), follow_context_demo=True),
        )
        assert run_downsample_bench(settings, workers=1) == \
            run_downsample_bench(settings, workers=2)

    def test_reach_tasks_tie(self):
        # No gripper events: the mask set reduces to the endpoints and the
        # two downsamplers see the same task; both should succeed.
        settings = DownsampleBenchSettings(
            n_seeds=3,
            fit=FitConfig(steps=800),
            oracle=SyntheticOracleConfig(task_shape="reach", noise_scale=0.002,
                                         hallucination_prob=0.0, length_jitter=(0, 0),
                                         follow_context_demo=True),
        )
        rows = run_downsample_bench(settings)
        rates = downsample_success_rates(rows)
        assert abs(rates["g_based"] - rates["uniform"]) <= 0.34

    def test_task_comes_from_the_oracle(self, monkeypatch):
        # The oracle's task shape is the only one: the trial builds that task.
        shapes = []

        def spy(seed, task_shape, **kw):
            shapes.append(task_shape)
            return make_consensus_task(seed, task_shape, **kw)

        monkeypatch.setattr(rip.bench, "make_consensus_task", spy)
        settings = DownsampleBenchSettings(
            n_seeds=1,
            fit=FitConfig(steps=10),
            oracle=SyntheticOracleConfig(task_shape="reach", length_jitter=(0, 0),
                                         follow_context_demo=True),
        )
        run_downsample_trial(0, "g_based", settings)
        assert shapes == ["reach"]


@pytest.mark.parametrize("make, kwargs", [
    (SweepSettings, dict(q_values=(2, 0))),
    (SweepSettings, dict(nu_values=())),
    (SweepSettings, dict(trials=0)),
    (DownsampleBenchSettings, dict(n_seeds=0)),
    (DownsampleBenchSettings, dict(query_count=0)),
    # Counts and seeds refuse floats and bools, and each nu must be > 0
    # (NaN is not), when the settings are built rather than in a worker.
    (SweepSettings, dict(trials=2.5)),
    (SweepSettings, dict(trials=True)),
    (SweepSettings, dict(q_values=(2.5,))),
    (SweepSettings, dict(nu_values=(0.0,))),
    (SweepSettings, dict(nu_values=(math.nan,))),
    (SweepSettings, dict(master_seed=1.5)),
    (DownsampleBenchSettings, dict(n_seeds=2.5)),
    (DownsampleBenchSettings, dict(query_count=1.5)),
    (DownsampleBenchSettings, dict(target_len=30.5)),
    (DownsampleBenchSettings, dict(master_seed=True)),
])
def test_settings_checked_on_construction(make, kwargs):
    with pytest.raises(ValueError):
        make(**kwargs)
