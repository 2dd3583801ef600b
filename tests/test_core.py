import numpy as np
import pytest

from conftest import line_trajectory, make_action, random_trajectory

from rip.core import (
    Action,
    Trajectory,
    TrajectoryBundle,
    align_bundle,
    normalize_time,
    resample_trajectory,
)
from rip.errors import InvalidTrajectoryError
from rip import jsonio


class TestAction:
    def test_ten_degrees_of_freedom(self):
        a = make_action(0.1, 0.2, 0.3, g=1)
        assert a.to_array().shape == (10,)

    def test_gripper_must_be_binary(self):
        with pytest.raises(InvalidTrajectoryError):
            make_action(g=0.5)
        with pytest.raises(InvalidTrajectoryError):
            make_action(g=2)

    def test_positions_must_be_finite(self):
        with pytest.raises(InvalidTrajectoryError):
            Action(p0=(float("nan"), 0, 0), p1=(0, 0, 0), p2=(0, 0, 0), g=0)
        with pytest.raises(InvalidTrajectoryError):
            Action(p0=(float("inf"), 0, 0), p1=(0, 0, 0), p2=(0, 0, 0), g=0)

    def test_array_roundtrip(self):
        a = make_action(0.1, -0.2, 0.3, g=1)
        assert Action.from_array(a.to_array()) == a


class TestTrajectory:
    def test_needs_two_actions(self):
        with pytest.raises(InvalidTrajectoryError):
            Trajectory(make_action().to_array()[None])

    def test_array_roundtrip(self, rng):
        tr = random_trajectory(rng, n=15, n_transitions=2)
        assert Trajectory.from_array(tr.to_array()) == Trajectory(
            np.stack([a.to_array() for a in tr.actions]))

    def test_array_protocol_without_copy_argument(self, rng):
        # NumPy 1.x calls __array__ with no ``copy``; NumPy 2 may pass one.
        tr = random_trajectory(rng, n=5)
        np.testing.assert_array_equal(tr.__array__(), tr.data)
        assert tr.__array__(np.float32).dtype == np.float32
        assert tr.__array__(copy=True).flags.writeable
        np.testing.assert_array_equal(
            TrajectoryBundle([tr, tr]).data, np.stack([tr.data] * 2))

    def test_read_only_through_copies(self, rng):
        import copy
        import pickle

        tr = random_trajectory(rng, n=6)
        bundle = align_bundle([tr], 6)
        for obj in (tr, bundle):
            for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
                assert clone == obj
                with pytest.raises(ValueError):
                    clone.data[0, 0] = 1.0


class TestNormalizeTime:
    def test_two_steps_hits_endpoints(self):
        assert normalize_time(line_trajectory(2)).tolist() == [0.0, 1.0]

    def test_five_steps_uniform(self):
        assert normalize_time(line_trajectory(5)).tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_three_steps_uniform(self):
        assert normalize_time(line_trajectory(3)).tolist() == [0.0, 0.5, 1.0]

    def test_too_short_rejected(self):
        with pytest.raises(InvalidTrajectoryError):
            Trajectory(())

    def test_strictly_increasing(self, rng):
        for _ in range(20):
            grid = normalize_time(random_trajectory(rng))
            assert np.all(np.diff(grid) > 0)


class TestAlignBundle:
    def test_constant_trajectories_stay_constant(self):
        trajs = [line_trajectory(n, x0=0.3, x1=0.3) for n in (7, 13, 29)]
        bundle = align_bundle(trajs, 11)
        for tr in bundle.trajectories:
            assert len(tr) == 11
            for a in tr.actions:
                assert a.p0[0] == pytest.approx(0.3)

    def test_linear_ramp_interpolates_midpoint(self):
        bundle = align_bundle([line_trajectory(11, x0=0.0, x1=1.0)], 3)
        xs = [a.p0[0] for a in bundle.trajectories[0].actions]
        assert xs == pytest.approx([0.0, 0.5, 1.0])

    def test_mixed_lengths_endpoints_bitwise(self, rng):
        t20 = random_trajectory(rng, n=20)
        t30 = random_trajectory(rng, n=30)
        bundle = align_bundle([t20, t30], 30)
        assert all(len(tr) == 30 for tr in bundle.trajectories)
        assert bundle.trajectories[0].actions[0] == t20.actions[0]
        assert bundle.trajectories[0].actions[-1] == t20.actions[-1]
        assert bundle.trajectories[1].actions[0] == t30.actions[0]
        assert bundle.trajectories[1].actions[-1] == t30.actions[-1]

    def test_idempotent(self, rng):
        trajs = [random_trajectory(rng, n=n) for n in (12, 25, 31)]
        once = align_bundle(trajs, 31)
        twice = align_bundle(once.trajectories, 31)
        assert once == twice

    def test_endpoint_preservation(self, rng):
        for _ in range(10):
            tr = random_trajectory(rng)
            out = align_bundle([tr], 17).trajectories[0]
            assert out.actions[0] == tr.actions[0]
            assert out.actions[-1] == tr.actions[-1]

    def test_gripper_values_come_from_source(self, rng):
        for _ in range(10):
            tr = random_trajectory(rng, n=40, n_transitions=3)
            out = align_bundle([tr], 23).trajectories[0]
            assert set(out.gripper_states()) <= set(tr.gripper_states())

    def test_gripper_never_fractional(self):
        g = [0] * 10 + [1] * 10
        out = align_bundle([line_trajectory(20, g=g)], 7).trajectories[0]
        assert set(out.gripper_states()) <= {0, 1}

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidTrajectoryError):
            align_bundle([], 10)

    def test_grid_contract(self, rng):
        bundle = align_bundle([random_trajectory(rng, n=9)], 9)
        grid = bundle.grid()
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert np.all(np.diff(grid) > 0)


class TestBundleInvariants:
    def test_unequal_lengths_rejected(self, rng):
        a = random_trajectory(rng, n=5)
        b = random_trajectory(rng, n=6)
        with pytest.raises(InvalidTrajectoryError):
            TrajectoryBundle((a, b))

    def test_grid_derived_from_length(self, rng):
        import copy
        import pickle

        a = random_trajectory(rng, n=7)
        bundle = TrajectoryBundle(np.stack([a.data, a.data]))
        for b in (bundle, copy.copy(bundle), pickle.loads(pickle.dumps(bundle))):
            np.testing.assert_array_equal(b.grid(), normalize_time(a))


class TestResample:
    def test_upsampling_keeps_path_linear(self):
        tr = line_trajectory(3, x0=0.0, x1=1.0)
        up = resample_trajectory(tr, 5)
        assert [a.p0[0] for a in up.actions] == pytest.approx([0, 0.25, 0.5, 0.75, 1.0])

    def test_same_length_is_identity(self, rng):
        tr = random_trajectory(rng, n=14)
        assert resample_trajectory(tr, 14) is tr


class TestJsonIO:
    def test_trajectory_roundtrip(self, rng, tmp_path):
        tr = random_trajectory(rng, n=12, n_transitions=1)
        path = tmp_path / "traj.json"
        jsonio.save_trajectory(tr, path)
        back = jsonio.load_trajectory(path)
        assert np.allclose(back.to_array(), tr.to_array())

    def test_context_roundtrip(self, rng, tmp_path):
        from conftest import keypoints
        from rip.tokens import PolicyContext

        ctx = PolicyContext(
            demonstrations=((keypoints(5, 1), random_trajectory(rng, n=8)),),
            query_keypoints=keypoints(5, 2),
        )
        path = tmp_path / "ctx.json"
        jsonio.save_context(ctx, path)
        back = jsonio.load_context(path)
        assert len(back.demonstrations) == 1
        assert np.allclose(back.query_keypoints.to_array(), ctx.query_keypoints.to_array())

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"actions": [{"p0": [0,0,0]}]}')
        with pytest.raises(InvalidTrajectoryError):
            jsonio.load_trajectory(path)
