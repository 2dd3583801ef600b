"""The success judge and RMSE on hand-built trajectories."""

import numpy as np

import judge
from rip import Trajectory, resample_trajectory


def pick(n=21, grasp=10, lift=0.2):
    """Descend along x to a grasp point, close, lift in z."""
    arr = np.zeros((n, 10))
    t = np.linspace(0.0, 1.0, n)
    arr[:, 0] = np.minimum(t, t[grasp]) * 0.5
    arr[:, 2] = np.where(np.arange(n) > grasp, (t - t[grasp]) * lift, 0.0)
    arr[:, 3:6] = arr[:, 0:3] + [0.0, 0.035, -0.02]
    arr[:, 6:9] = arr[:, 0:3] + [0.0, -0.035, -0.02]
    arr[grasp + 1:, 9] = 1.0
    return arr


def test_final_point_within_two_centimetres_succeeds():
    ref = pick()
    cand = ref.copy()
    cand[-1, 0] += 0.015
    assert judge.task_success(cand, ref)
    cand[-1, 0] += 0.01
    assert not judge.task_success(cand, ref)


def test_gripper_event_directions_must_match():
    ref = pick()
    never_closes = ref.copy()
    never_closes[:, 9] = 0.0
    assert not judge.task_success(never_closes, ref)
    reopens = ref.copy()
    reopens[-3:, 9] = 0.0
    assert not judge.task_success(reopens, ref)


def test_event_tolerance_checks_where_the_grasp_happens():
    ref = pick(grasp=10)
    late = pick(grasp=13)  # same path, closes three steps further along
    late[-1] = ref[-1]
    assert judge.task_success(late, ref)
    assert not judge.task_success(late, ref, event_tol=0.02)
    assert judge.task_success(ref.copy(), ref, event_tol=0.02)


def test_rmse_is_position_only_and_in_millimetres():
    ref = pick()
    cand = ref.copy()
    cand[:, :9] += 0.001
    cand[:, 9] = 1.0 - cand[:, 9]
    assert np.isclose(judge.rmse_mm(cand, ref), 1.0)


def test_rmse_resamples_onto_the_consensus_length():
    ref = np.zeros((21, 10))
    ref[:, 0] = np.linspace(0.0, 1.0, 21)
    cand = np.zeros((11, 10))
    cand[:, 0] = np.linspace(0.0, 1.0, 11)
    assert judge.rmse_mm(cand, ref) < 1e-9


def test_resample_matches_the_package_resampler():
    rng = np.random.default_rng(3)
    arr = rng.uniform(-1.0, 1.0, (37, 10))
    arr[:, 9] = (np.arange(37) > 20).astype(float)
    for n in (2, 30, 37, 80):
        expected = resample_trajectory(Trajectory.from_array(arr), n).to_array()
        assert judge.resample(arr, n).tobytes() == expected.tobytes()
