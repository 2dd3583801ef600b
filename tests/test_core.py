import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import line_trajectory, make_action, random_trajectory

from rip.core import (
    KeypointSet,
    Trajectory,
    TrajectoryBundle,
    align_bundle,
    normalize_time,
    resample_trajectory,
)
from rip.errors import InvalidTrajectoryError
from rip import jsonio


class TestAction:
    # An action is one [p0, p1, p2, g] row; a trajectory checks its rows.
    def test_ten_degrees_of_freedom(self):
        row = make_action(0.1, 0.2, 0.3, g=1)
        assert row.shape == (10,)
        for width in (9, 11):
            with pytest.raises(InvalidTrajectoryError):
                Trajectory(np.zeros((2, width)))

    def test_gripper_must_be_binary(self):
        for g in (0.5, 2):
            with pytest.raises(InvalidTrajectoryError):
                Trajectory(np.stack([make_action(g=g), make_action()]))

    def test_positions_must_be_finite(self):
        for bad in (float("nan"), float("inf")):
            row = make_action()
            row[0] = bad
            with pytest.raises(InvalidTrajectoryError):
                Trajectory(np.stack([row, make_action()]))

    def test_array_roundtrip(self):
        rows = np.stack([make_action(0.1, -0.2, 0.3, g=1), make_action()])
        tr = Trajectory(rows)
        np.testing.assert_array_equal(tr.data, rows)
        np.testing.assert_array_equal(jsonio.trajectory_from_dict(jsonio.trajectory_to_dict(tr)).data,
                                      rows)


class TestTrajectory:
    def test_needs_two_actions(self):
        with pytest.raises(InvalidTrajectoryError):
            Trajectory(make_action()[None])

    def test_array_roundtrip(self, rng):
        tr = random_trajectory(rng, n=15, n_transitions=2)
        assert Trajectory.from_array(tr.to_array()) == Trajectory(list(tr.data))

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

    def test_equality_is_by_value_within_one_type(self, rng):
        tr = random_trajectory(rng, n=6)
        bumped = tr.to_array()
        bumped[0, 0] += 1e-9
        assert Trajectory(bumped) != tr
        bundle = TrajectoryBundle([tr])
        assert tr != bundle and bundle != tr


# Constructors called directly with bad values raise only the library's
# error, as the JSON boundary does.
@pytest.mark.parametrize("build", [
    lambda: Trajectory([[10**400] * 10] * 2),
    lambda: TrajectoryBundle([[[10**400] * 10] * 2]),
    lambda: KeypointSet(5),
    lambda: KeypointSet(None),
    lambda: KeypointSet([(0.0, 0.0, 10**400)]),
    lambda: KeypointSet(()),
], ids=["trajectory-overflow", "bundle-overflow", "keypoints-int", "keypoints-none",
        "keypoints-overflow", "keypoints-empty"])
def test_constructor_raises_invalid_trajectory(build):
    with pytest.raises(InvalidTrajectoryError):
        build()


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
            assert tr.data[:, 0] == pytest.approx([0.3] * 11)

    def test_linear_ramp_interpolates_midpoint(self):
        bundle = align_bundle([line_trajectory(11, x0=0.0, x1=1.0)], 3)
        assert bundle.data[0, :, 0] == pytest.approx([0.0, 0.5, 1.0])

    def test_mixed_lengths_endpoints_bitwise(self, rng):
        t20 = random_trajectory(rng, n=20)
        t30 = random_trajectory(rng, n=30)
        bundle = align_bundle([t20, t30], 30)
        assert all(len(tr) == 30 for tr in bundle.trajectories)
        np.testing.assert_array_equal(bundle.data[0, [0, -1]], t20.data[[0, -1]])
        np.testing.assert_array_equal(bundle.data[1, [0, -1]], t30.data[[0, -1]])

    def test_idempotent(self, rng):
        trajs = [random_trajectory(rng, n=n) for n in (12, 25, 31)]
        once = align_bundle(trajs, 31)
        twice = align_bundle(once.trajectories, 31)
        assert once == twice

    def test_endpoint_preservation(self, rng):
        for _ in range(10):
            tr = random_trajectory(rng)
            out = align_bundle([tr], 17).trajectories[0]
            np.testing.assert_array_equal(out.data[[0, -1]], tr.data[[0, -1]])

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
        assert up.data[:, 0] == pytest.approx([0, 0.25, 0.5, 0.75, 1.0])

    def test_same_length_is_identity(self, rng):
        tr = random_trajectory(rng, n=14)
        assert resample_trajectory(tr, 14) is tr

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 80), st.integers(2, 80), st.integers(0, 2**32 - 1))
    def test_length_endpoints_and_gripper_values(self, n_in, n_out, seed):
        rng = np.random.default_rng(seed)
        tr = random_trajectory(rng, n=n_in, n_transitions=int(rng.integers(0, n_in)))
        out = resample_trajectory(tr, n_out)
        assert len(out) == n_out
        np.testing.assert_array_equal(out.data[[0, -1]], tr.data[[0, -1]])
        assert set(out.data[:, 9]) <= set(tr.data[:, 9])


# Files come from outside the program. A valid file object has one or two
# of its nodes deleted or replaced by any JSON value: NaN, inf, strings,
# nesting, and the real key names among others.
_KEYS = st.sampled_from(["actions", "p0", "p1", "p2", "g", "keypoints",
                         "demonstrations", "query_keypoints"])
_any_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_KEYS | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
_point = st.lists(st.floats(-10, 10), min_size=3, max_size=3)
_points = st.lists(_point, min_size=2, max_size=2)
_actions = st.lists(st.fixed_dictionaries(
    {"p0": _point, "p1": _point, "p2": _point, "g": st.sampled_from([0, 1])}),
    min_size=2, max_size=4)
_valid_trajectory = st.fixed_dictionaries({"actions": _actions})
_valid_context = st.fixed_dictionaries({
    "demonstrations": st.lists(
        st.fixed_dictionaries({"actions": _actions, "keypoints": _points}),
        min_size=1, max_size=2),
    "query_keypoints": _points,
})
_DELETE = object()


def _node_paths(obj, path=()):
    yield path
    children = (obj.items() if isinstance(obj, dict)
                else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in children:
        yield from _node_paths(value, path + (key,))


@st.composite
def _damaged(draw, valid):
    obj = draw(valid)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_node_paths(obj))))
        value = draw(st.just(_DELETE) | _any_json)
        if not path:
            obj = None if value is _DELETE else value
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return obj


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

    @pytest.mark.parametrize("content", [b'{"actions": [{"p0": [0, 0', b'\xff\xfe{}', b''],
                             ids=["truncated", "not-utf8", "empty"])
    @pytest.mark.parametrize("load", [jsonio.load_trajectory, jsonio.load_context],
                             ids=["trajectory", "context"])
    def test_unparsable_file_rejected(self, tmp_path, content, load):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(InvalidTrajectoryError):
            load(path)

    # One action object is one row. A change to the first of two steps
    # either loads to the same rows or raises InvalidTrajectoryError.
    @pytest.mark.parametrize("change, loads", [
        ({"g": 0.5}, False),
        ({"g": 2}, False),
        ({"g": "1"}, False),
        ({"p0": [float("nan"), 0, 0]}, False),
        ({"p0": [float("inf"), 0, 0]}, False),
        ({"p1": [0.0, 0.0]}, False),
        ({"p2": [0.0, 0.0, 0.0, 0.0]}, False),
        ({}, True),
        ({"g": True}, True),
        ({"g": 1.0}, True),
    ], ids=["gripper-0.5", "gripper-2", "gripper-str", "nan", "inf", "2-coords",
            "4-coords", "roundtrip", "gripper-true", "gripper-float"])
    def test_action_object(self, change, loads):
        rows = np.stack([make_action(0.1, -0.2, 0.3, g=1), make_action()])
        obj = jsonio.trajectory_to_dict(Trajectory(rows))
        obj["actions"][0].update(change)
        if loads:
            np.testing.assert_array_equal(jsonio.trajectory_from_dict(obj).data, rows)
        else:
            with pytest.raises(InvalidTrajectoryError):
                jsonio.trajectory_from_dict(obj)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_damaged(_valid_trajectory))
    def test_trajectory_file_raises_only_invalid_trajectory(self, obj):
        try:
            assert isinstance(jsonio.trajectory_from_dict(obj), Trajectory)
        except InvalidTrajectoryError:
            pass

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_damaged(_valid_context))
    def test_context_file_raises_only_invalid_trajectory(self, obj):
        from rip.tokens import PolicyContext

        try:
            assert isinstance(jsonio.context_from_dict(obj), PolicyContext)
        except InvalidTrajectoryError:
            pass
