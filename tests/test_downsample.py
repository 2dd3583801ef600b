import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import line_trajectory, random_trajectory

from rip.downsample import downsample, gripper_transitions, mask_key_steps, uniform_downsample
from rip.errors import DownsampleError


def step_gripper(n, close_at=None, open_at=None):
    g = [0] * n
    if close_at is not None:
        for i in range(close_at, n):
            g[i] = 1
    if open_at is not None:
        for i in range(open_at, n):
            g[i] = 0
    return g


def _row_index(tr, row):
    """Index of the first step of ``tr`` equal to ``row``, like list.index."""
    return int(np.flatnonzero((tr.data == row).all(axis=1))[0])


class TestMaskKeySteps:
    def test_constant_gripper_masks_endpoints_only(self):
        tr = line_trajectory(100)
        assert mask_key_steps(tr) == (0, 99)

    def test_single_close(self):
        tr = line_trajectory(300, g=step_gripper(300, close_at=150))
        assert mask_key_steps(tr) == (0, 149, 150, 299)

    def test_close_then_open(self):
        tr = line_trajectory(60, g=step_gripper(60, close_at=10, open_at=40))
        assert mask_key_steps(tr) == (0, 9, 10, 39, 40, 59)

    def test_sorted_and_deduplicated(self):
        # transition right at the start overlaps the endpoint mask
        tr = line_trajectory(20, g=[0] + [1] * 19)
        masks = mask_key_steps(tr)
        assert masks == tuple(sorted(set(masks)))
        assert masks == (0, 1, 19)


class TestDownsample:
    def test_short_input_is_identity(self):
        tr = line_trajectory(25, g=step_gripper(25, close_at=12))
        assert downsample(tr, 30) is tr

    def test_masked_steps_survive_and_length_is_close(self):
        tr = line_trajectory(300, g=step_gripper(300, close_at=150))
        out = downsample(tr, 30)
        kept = set(out.data[:, 0])
        for idx in (0, 149, 150, 299):
            assert tr.data[idx, 0] in kept
        assert 26 <= len(out) <= 34

    def test_no_transition_gives_exact_target(self):
        tr = line_trajectory(60)
        out = downsample(tr, 30)
        assert len(out) == 30
        np.testing.assert_array_equal(out.data[[0, -1]], tr.data[[0, -1]])

    def test_budget_conflict_is_named(self):
        g = [0, 1] * 30  # transition at nearly every step
        tr = line_trajectory(60, g=g)
        with pytest.raises(DownsampleError, match="masked key steps"):
            downsample(tr, 5)

    def test_transitions_never_dropped(self, rng):
        for _ in range(50):
            k = int(rng.integers(0, 5))
            tr = random_trajectory(rng, n=int(rng.integers(40, 200)), n_transitions=k)
            out = downsample(tr, 30)
            assert gripper_transitions(out) != [] or k == 0
            assert [d for _, d in gripper_transitions(out)] == \
                [d for _, d in gripper_transitions(tr)]

    def test_is_order_preserving_subsequence(self, rng):
        tr = random_trajectory(rng, n=120, n_transitions=2)
        out = downsample(tr, 30)
        idx = [_row_index(tr, row) for row in out.data]
        assert idx == sorted(idx)
        assert len(set(idx)) == len(idx)

    def test_reapplication_is_identity(self, rng):
        for _ in range(10):
            tr = random_trajectory(rng, n=int(rng.integers(50, 200)),
                                   n_transitions=int(rng.integers(0, 4)))
            out = downsample(tr, 30)
            assert downsample(out, 30) is out


@st.composite
def _thinning_case(draw):
    """A trajectory whose x channel is its step index, and a target length
    below its length but at or above its masked step count."""
    g = draw(st.lists(st.sampled_from([0, 1]), min_size=3, max_size=120))
    tr = line_trajectory(len(g), x0=0.0, x1=len(g) - 1.0, g=g)
    n_masked = len(mask_key_steps(tr))
    if n_masked == len(g):  # nothing left to thin
        return tr, len(g)
    return tr, draw(st.integers(n_masked, len(g) - 1))


class TestDownsampleProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_thinning_case())
    def test_exact_length_keeps_masks_and_is_a_subsequence(self, case):
        tr, target = case
        out = downsample(tr, target)
        if target == len(tr):
            assert out is tr
            return
        idx = np.rint(out.data[:, 0]).astype(int)
        assert len(out) == target
        assert set(mask_key_steps(tr)) <= set(idx.tolist())
        assert np.all(np.diff(idx) > 0)
        np.testing.assert_array_equal(out.data, tr.data[idx])


class TestUniformDownsample:
    def test_keeps_endpoints(self):
        tr = line_trajectory(4)
        out = uniform_downsample(tr, 2)
        np.testing.assert_array_equal(out.data, tr.data[[0, -1]])

    def test_can_omit_a_transition_index(self):
        tr = line_trajectory(300, g=step_gripper(300, close_at=150))
        out = uniform_downsample(tr, 30)
        kept_x = set(out.data[:, 0])
        assert tr.data[149, 0] not in kept_x  # the masked variant keeps it

    def test_constant_stays_constant(self):
        tr = line_trajectory(100, x0=0.4, x1=0.4)
        out = uniform_downsample(tr, 30)
        assert len(out) == 30
        assert out.data[:, 0] == pytest.approx([0.4] * 30)

    def test_subsequence_property(self, rng):
        tr = random_trajectory(rng, n=90)
        out = uniform_downsample(tr, 13)
        idx = [_row_index(tr, row) for row in out.data]
        assert idx == sorted(idx) and len(set(idx)) == len(idx)

    def test_short_input_identity(self, rng):
        tr = random_trajectory(rng, n=10)
        assert uniform_downsample(tr, 30) is tr

    def test_target_too_small_rejected(self, rng):
        tr = random_trajectory(rng, n=10)
        # A target below 2, or one that is not an integer, is refused.
        for thin, target in ((uniform_downsample, 1), (uniform_downsample, 10.5),
                             (downsample, 10.5)):
            with pytest.raises(DownsampleError):
                thin(tr, target)
