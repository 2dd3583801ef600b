import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import keypoints, line_trajectory, make_action, random_trajectory
from oracles import reference_decode, reference_encode_context

from rip.core import Trajectory
from rip.errors import CoordinateRangeError, InvalidTrajectoryError, MalformedResponseError
from rip.policy import RemoteConfig, RemotePolicyClient, make_consensus_task
from rip.tokens import (
    MAX_ACTION_LINES,
    MAX_COORDINATE_M,
    PolicyContext,
    _int_lines,
    decode_trajectory,
    default_preamble,
    encode_action_block,
    encode_context,
    has_action_block,
    quantize_mm,
)


class TestQuantize:
    def test_paper_style_example(self):
        assert [quantize_mm(v) for v in (0.1234, -0.0567, 0.4)] == [123, -57, 400]

    def test_half_away_from_zero(self):
        assert quantize_mm(0.0005) == 1
        assert quantize_mm(-0.0005) == -1
        assert quantize_mm(0.0015) == 2
        assert quantize_mm(-0.0015) == -2

    def test_range_guard(self):
        with pytest.raises(CoordinateRangeError):
            quantize_mm(10.001)
        with pytest.raises(CoordinateRangeError):
            quantize_mm(-10.001)
        assert quantize_mm(10.0) == 10000


def tiny_context(n_demos=1, k=4):
    demos = tuple(
        (keypoints(k, seed=i), line_trajectory(5, x0=0.0, x1=0.2))
        for i in range(n_demos)
    )
    return PolicyContext(demonstrations=demos, query_keypoints=keypoints(k, seed=99))


class TestEncodeContext:
    def test_deterministic(self):
        assert encode_context(tiny_context()) == encode_context(tiny_context())

    def test_contains_blocks(self):
        text = encode_context(tiny_context(n_demos=2))
        assert text.count("KEYPOINTS:") == 2
        assert text.count("ACTIONS:") == 3  # one per demo plus the query stub
        assert "QUERY:" in text

    def test_empty_demonstrations_rejected(self):
        with pytest.raises(InvalidTrajectoryError):
            PolicyContext(demonstrations=(), query_keypoints=keypoints(4))

    def test_keypoint_count_mismatch_rejected(self):
        with pytest.raises(InvalidTrajectoryError):
            PolicyContext(
                demonstrations=((keypoints(3), line_trajectory(4)),),
                query_keypoints=keypoints(5),
            )

    def test_out_of_range_coordinate_raises(self):
        tr = Trajectory(np.stack([make_action(x=11.0)] * 2))
        ctx = PolicyContext(demonstrations=((keypoints(3), tr),),
                            query_keypoints=keypoints(3))
        with pytest.raises(CoordinateRangeError):
            encode_context(ctx)

    def test_custom_preamble(self):
        text = encode_context(tiny_context(), preamble="DO THE TASK")
        assert text.startswith("DO THE TASK\n")

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(hnp.arrays(np.int64, st.tuples(st.integers(1, 40), st.integers(1, 10)),
                      elements=st.integers(-10_000, 10_000)))
    @example(np.array([[0, 10_000, -10_000]]))
    def test_int_lines_join_each_row(self, rows):
        assert _int_lines(rows) == [" ".join(map(str, r)) for r in rows.tolist()]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shape", ["pick", "reach", "push", "swoop"])
    def test_seeded_contexts_match_reference(self, shape, seed):
        if shape == "swoop":  # the remote benchmark's full-rate demonstration
            context, _ = make_consensus_task(seed, "pick", n_demos=1, length_range=(260, 340),
                                             pick_profile="swoop", demo_drift=0.0,
                                             demo_wobble=0.001)
        else:
            context, _ = make_consensus_task(seed, shape)
        assert encode_context(context) == reference_encode_context(context, default_preamble())


class TestDecode:
    def test_roundtrip_within_quantization(self, rng):
        for _ in range(100):
            tr = random_trajectory(rng, n=int(rng.integers(2, 40)),
                                   n_transitions=int(rng.integers(0, 3)))
            back = decode_trajectory(encode_action_block(tr))
            err = np.abs(back.to_array()[:, :9] - tr.to_array()[:, :9])
            assert err.max() <= 5e-4 + 1e-12
            assert back.gripper_states() == tr.gripper_states()

    def test_decode_equals_encoded_trajectory_on_the_mm_grid(self, rng):
        # Equality is by value: a decoded sample equals the trajectory it
        # encodes when every coordinate is a whole number of millimetres.
        for _ in range(20):
            tr = random_trajectory(rng, n=int(rng.integers(2, 40)),
                                   n_transitions=int(rng.integers(0, 3)))
            data = tr.to_array()
            data[:, :9] = np.round(data[:, :9] * 1000.0) / 1000.0
            on_grid = Trajectory(data)
            assert decode_trajectory(encode_action_block(on_grid)) == on_grid

    def test_prose_is_ignored(self):
        tr = line_trajectory(3, x0=0.1, x1=0.3)
        text = "Sure, here is the trajectory you asked for:\n" \
            + encode_action_block(tr) + "\nHope that helps!"
        back = decode_trajectory(text)
        assert len(back) == 3

    def test_first_block_wins(self):
        a = line_trajectory(3, x0=0.0, x1=0.1)
        b = line_trajectory(4, x0=0.5, x1=0.9)
        text = encode_action_block(a) + "\n\nor alternatively\n\n" + encode_action_block(b)
        assert len(decode_trajectory(text)) == 3

    def test_nine_fields_is_malformed(self):
        text = "\n".join(["1 2 3 4 5 6 7 8 9"] * 4)
        with pytest.raises(MalformedResponseError):
            decode_trajectory(text)

    def test_bad_gripper_token_is_malformed(self):
        text = "1 2 3 4 5 6 7 8 9 0\n1 2 3 4 5 6 7 8 9 2"
        with pytest.raises(MalformedResponseError):
            decode_trajectory(text)

    def test_no_block_is_malformed(self):
        with pytest.raises(MalformedResponseError):
            decode_trajectory("I am sorry, I cannot help with trajectories.")

    def test_single_line_is_not_a_block(self):
        with pytest.raises(MalformedResponseError):
            decode_trajectory("1 2 3 4 5 6 7 8 9 0")

    def test_millimeters_convert_back_to_meters(self):
        back = decode_trajectory("100 0 0 0 0 0 0 0 0 0\n200 0 0 0 0 0 0 0 0 1")
        assert back.data[0, 0] == pytest.approx(0.1)
        assert back.data[1, 0] == pytest.approx(0.2)
        assert back.data[1, 9] == 1


# Untrusted model output: prose mixed with lines of 9 to 11 integers of any
# size, the tokens split by whitespace str.split knows (not only " ") and
# the lines ended by every boundary str.splitlines knows.
_SPACES = " \t\x1f\xa0\u1680\u2003\u202f\u205f\u3000"
_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
           "\u2028", "\u2029"]
_sign = st.sampled_from(["", "+", "-"])
_in_range = st.one_of(
    st.integers(-10_000, 10_000).map(str),
    st.builds("{}{}{}".format, _sign, st.text("0", min_size=1, max_size=4),
              st.integers(0, 10_000)),
)
_coordinate = st.one_of(
    _in_range,
    st.builds(str.__add__, _sign, st.text("0123456789", min_size=400, max_size=450)),
    st.integers().map(str),
)


@st.composite
def _action_line(draw, coordinate=_coordinate, n_coords=st.sampled_from([8, 9, 9, 9, 10]),
                 flag=st.one_of(st.sampled_from(["0", "1"]), st.integers().map(str))):
    n = draw(n_coords)
    tokens = draw(st.lists(coordinate, min_size=n, max_size=n)) + [draw(flag)]
    gaps = draw(st.lists(st.text(_SPACES, min_size=1, max_size=2),
                         min_size=len(tokens) - 1, max_size=len(tokens) - 1))
    edges = st.text(_SPACES, max_size=2)
    return draw(edges) + "".join(map(str.__add__, tokens, gaps + [""])) + draw(edges)


# A line a well-formed block is made of: ten in-range tokens, a 0/1 flag.
_clean_line = _action_line(_in_range, st.just(9), st.sampled_from(["0", "1"]))


@st.composite
def _response(draw):
    lines = draw(st.lists(st.one_of(_clean_line, _action_line(), st.text(max_size=30)),
                          max_size=8))
    breaks = draw(st.lists(st.sampled_from(_BREAKS), min_size=len(lines), max_size=len(lines)))
    return "".join(map(str.__add__, lines, breaks))


class TestDecodeUntrusted:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_response())
    @example("\n".join(["1" * 400 + " 0 0 0 0 0 0 0 0 0"] * 2))
    @example("99999 0 0 0 0 0 0 0 0 0\n0 0 0 0 0 0 0 0 0 1")
    @example("\n".join(["0 0 0 0 0 0 0 0 0 0"] * (MAX_ACTION_LINES + 1)))
    def test_decodes_in_range_or_is_malformed(self, text):
        try:
            back = decode_trajectory(text)
        except MalformedResponseError:
            return
        assert len(back) <= MAX_ACTION_LINES
        arr = back.to_array()
        assert np.abs(arr[:, :9]).max() <= MAX_COORDINATE_M
        assert set(arr[:, 9].tolist()) <= {0.0, 1.0}

    def test_range_edge_and_leading_zeros(self):
        edge = decode_trajectory("10000 -10000 0 0 0 0 0 0 0 0\n"
                                 "+0000000000010000 -00 0 0 0 0 0 0 0 1")
        assert edge.to_array()[:, :2].tolist() == [[10.0, -10.0], [10.0, 0.0]]
        assert not np.signbit(edge.to_array()[1, 1])  # "-00" names the integer 0
        with pytest.raises(MalformedResponseError):
            decode_trajectory("10001 0 0 0 0 0 0 0 0 0\n0 0 0 0 0 0 0 0 0 1")

    def test_line_cap(self):
        line = "1 2 3 4 5 6 7 8 9 0"
        assert len(decode_trajectory("\n".join([line] * MAX_ACTION_LINES))) == MAX_ACTION_LINES
        with pytest.raises(MalformedResponseError, match="longer than"):
            decode_trajectory("\n".join([line] * (MAX_ACTION_LINES + 1)) + "\nthat is all")


class TestDecodeEquivalence:
    """The decoder against the plain str.split reference in tests/oracles.py:
    byte-equal trajectories, or MalformedResponseError from both."""

    @staticmethod
    def _same_as_reference(text):
        try:
            expected = reference_decode(text)
        except MalformedResponseError:
            with pytest.raises(MalformedResponseError):
                decode_trajectory(text)
            return
        got = decode_trajectory(text).data
        assert (got.shape, got.tobytes()) == (expected.data.shape, expected.data.tobytes())

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_response())
    @example("-0\u3000+007 " + "9" * 5000 + " 1 2 3 4 5 6\t0\r\n0 0 0 0 0 0 0 0 0 1\x85")
    @example("\xa01 2 3 4 5 6 7 8 9 1\x1f\u2028-1 -2 -3 -4 -5 -6 -7 -8 -9 0")
    def test_matches_reference(self, text):
        self._same_as_reference(text)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(_BREAKS),
           st.sampled_from([MAX_ACTION_LINES - 1, MAX_ACTION_LINES, MAX_ACTION_LINES + 1]))
    def test_long_block_matches_reference(self, brk, n_lines):
        self._same_as_reference(brk.join(["1\xa02 3 4 5 6 7 8 9 0"] * n_lines) + brk + "done")



class TestActionBlockPrecheck:
    """``has_action_block`` lets a remote slot retry early, so it must never
    refuse a text the decoder accepts, and a refused text must fail as the
    decoder fails it."""

    @staticmethod
    def _agrees_with_decoder(text):
        try:
            decode_trajectory(text)
        except MalformedResponseError as exc:
            error = str(exc)
        else:
            assert has_action_block(text)
            return
        if has_action_block(text):
            return
        assert error.startswith("no action block found")
        # The slot's detail is the decoder's message, as without the pre-check.
        client = RemotePolicyClient(RemoteConfig("https://policy.example", max_retries=0),
                                    post_fn=lambda *args: {"completion": text})
        result = client.query_one("prompt", 0)
        assert (result.status, result.detail, result.attempts) == ("malformed", error, 1)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_response())
    @example("prose\n1 2 3 4 5 6 7 8 9 0\nprose\n1 2 3 4 5 6 7 8 9 0")
    @example("1 2 3 4 5 6 7 8 9 0\u20281 2 3 4 5 6 7 8 9 1")
    def test_never_refuses_a_decodable_text(self, text):
        self._agrees_with_decoder(text)

    def test_benchmark_completions(self, monkeypatch):
        # The remote benchmark's served completions, seeds 0-59, and its
        # malformed first response.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        episodes = importlib.import_module("episodes")
        stub = importlib.import_module("stub")
        texts = [stub.MALFORMED["completion"]]
        for seed in range(60):
            texts += [stub.action_text(ints) for ints in episodes.remote_inputs(seed).served]
        assert len(texts) == 601
        for text in texts:
            self._agrees_with_decoder(text)
        assert sum(map(has_action_block, texts)) == 600


class TestInjectivity:
    def test_trajectories_apart_encode_differently(self, rng):
        for _ in range(50):
            tr = random_trajectory(rng, n=6)
            arr = tr.to_array()
            bumped = arr.copy()
            i = int(rng.integers(0, arr.shape[0]))
            j = int(rng.integers(0, 9))
            bumped[i, j] += float(rng.uniform(0.0011, 0.01)) * (1 if rng.random() < 0.5 else -1)
            other = Trajectory.from_array(bumped)
            assert encode_action_block(tr) != encode_action_block(other)
