import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_frame
from tubeloc.model import (
    Box,
    Collection,
    Config,
    Frame,
    Proposal,
    Tube,
    ValidationError,
    Video,
    check_key_frames,
    interpolate_tube,
    key_frames,
)
from tubeloc.synth import SynthSpec


class TestBox:
    def test_rejects_zero_width(self):
        with pytest.raises(ValidationError):
            Box(0, 0, 0, 10)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            Box(float("nan"), 0, 1, 1)

    def test_intersection_area(self):
        a = Box(0, 0, 10, 10)
        b = Box(5, 0, 10, 10)
        assert a.intersection_area(b) == 50.0
        assert a.intersection_area(Box(20, 20, 5, 5)) == 0.0


class TestFrameColumns:
    @pytest.fixture
    def frame(self):
        return make_frame(proposals=[Proposal(5, Box(0, 0, 32, 24), np.array([1.0, 0.0])),
                                     Proposal(2, Box(10, 20, 64, 48), np.array([0.0, 1.0]))])

    @pytest.mark.parametrize("name", ["ids", "boxes", "descriptors", "locations"])
    def test_column_built_once_and_read_only(self, frame, name):
        column = getattr(frame, name)
        assert getattr(frame, name) is column
        assert len(column) == 2
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0

    def test_columns_follow_proposal_order(self, frame):
        assert frame.ids.tolist() == [5, 2]
        assert frame.boxes.tolist() == [[0, 0, 32, 24], [10, 20, 64, 48]]
        assert frame.locations[0].tolist() == [0.05, 0.05, 0.5 * np.log(0.01)]
        assert frame.rows([2, 5]).tolist() == [1, 0]
        with pytest.raises(ValidationError, match="frame v0:0 has no proposal 3"):
            frame.rows([3])

    def test_empty_frame_columns(self):
        frame = make_frame()
        assert frame.ids.shape == (0,)
        assert frame.boxes.shape == (0, 4)
        assert frame.descriptors.shape == (0, 0)
        assert frame.locations.shape == (0, 3)


def _video(length: int) -> Video:
    frames = {t: make_frame("v", t) for t in range(length)}
    return Video("v", length, frames)


class TestKeyFrames:
    def test_length_100_stride_20(self):
        assert key_frames(_video(100), 20) == [0, 20, 40, 60, 80]

    def test_short_video(self):
        assert key_frames(_video(5), 20) == [0]

    def test_length_41(self):
        assert key_frames(_video(41), 20) == [0, 20, 40]

    def test_strictly_increasing_below_length(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            length = int(rng.integers(1, 200))
            stride = int(rng.integers(1, 40))
            kfs = key_frames(_video(length), stride)
            assert kfs[0] == 0
            assert all(b > a for a, b in zip(kfs, kfs[1:]))
            assert all(k < length for k in kfs)

    def test_invalid_stride(self):
        with pytest.raises(ValidationError):
            key_frames(_video(10), 0)


def _key_frame_collection(length: int, replaced=None) -> Collection:
    """One video of ``length`` frames, each with one proposal and a signature,
    but for the ``replaced`` frames by index (None drops the frame)."""
    frames = {t: make_frame("v", t, proposals=[Proposal(0, Box(0, 0, 8, 8), np.ones(2))])
              for t in range(length)}
    frames.update(replaced or {})
    collection = Collection(2, 4)
    collection.videos["v"] = Video("v", length, {t: f for t, f in frames.items() if f is not None})
    return collection


class TestCheckKeyFrames:
    def test_complete_collection_passes(self):
        check_key_frames(_key_frame_collection(41), 20)

    def test_empty_collection_rejected(self):
        with pytest.raises(ValidationError, match="collection has no videos"):
            check_key_frames(Collection(4, 4), 20)

    @pytest.mark.parametrize("frame,message", [
        (None, "key frame 20 of video v has no proposals"),
        (make_frame("v", 20), "key frame 20 of video v has no proposals"),
        (Frame("v", 20, 320.0, 240.0, [Proposal(0, Box(0, 0, 8, 8), np.ones(2))]),
         "key frame 20 of video v has no signature"),
    ], ids=["missing", "no_proposals", "no_signature"])
    def test_incomplete_key_frame_rejected(self, frame, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            check_key_frames(_key_frame_collection(41, {20: frame}), 20)

    def test_only_key_frames_checked(self):
        check_key_frames(_key_frame_collection(41, {10: make_frame("v", 10)}), 20)


def _tube_video(boxes_by_kf: dict[int, Box], length: int) -> tuple[Tube, Video]:
    frames = {}
    for t in range(length):
        proposals = []
        if t in boxes_by_kf:
            proposals = [Proposal(7, boxes_by_kf[t], np.array([1.0]))]
        frames[t] = Frame("v", t, 1000.0, 1000.0, proposals, np.zeros(2))
    tube = Tube("v", {kf: 7 for kf in boxes_by_kf})
    return tube, Video("v", length, frames)


class TestInterpolateTube:
    def test_linear_midpoint(self):
        tube, video = _tube_video({0: Box(0, 0, 10, 10), 20: Box(20, 0, 10, 10)}, 21)
        boxes = interpolate_tube(tube, video)
        assert boxes[10] == Box(10, 0, 10, 10)

    def test_identical_boxes_constant(self):
        box = Box(5, 5, 8, 8)
        tube, video = _tube_video({0: box, 20: box}, 21)
        boxes = interpolate_tube(tube, video)
        assert all(boxes[t] == box for t in range(21))

    def test_single_key_frame_replicates(self):
        box = Box(1, 2, 3, 4)
        tube, video = _tube_video({0: box}, 9)
        boxes = interpolate_tube(tube, video)
        assert len(boxes) == 9
        assert all(b == box for b in boxes.values())

    def test_key_frames_exact_and_tail_copies(self):
        a, b = Box(0, 0, 10, 10), Box(40, 20, 30, 12)
        tube, video = _tube_video({0: a, 20: b}, 30)
        boxes = interpolate_tube(tube, video)
        assert boxes[0] == a
        assert boxes[20] == b
        assert all(boxes[t] == b for t in range(21, 30))

    def test_missing_proposal_rejected(self):
        tube, video = _tube_video({0: Box(0, 0, 1, 1)}, 5)
        bad = Tube("v", {0: 99})
        with pytest.raises(ValidationError):
            interpolate_tube(bad, video)


class TestConfig:
    def test_defaults_valid(self):
        Config().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("alpha", -0.1),
            ("lambda_", -1.0),
            ("theta", -1.0),
            ("theta", 0.0),
            ("k_neighbors", 0),
            ("p_tubes", 0),
            ("keyframe_stride", 0),
            ("alpha", float("nan")),
            ("theta", float("nan")),
            ("lambda_", float("inf")),
            ("theta", float("-inf")),
            ("alpha", "0.5"),
            ("affinity_gamma", None),
            ("k_neighbors", 2.5),
            ("iterations", 3.0),
            ("top_candidates", "10"),
            ("p_tubes", True),
        ],
    )
    def test_invalid_values(self, field, value):
        config = Config()
        setattr(config, field, value)
        with pytest.raises(ValidationError):
            config.validate()

    def test_integers_accepted_for_real_fields(self):
        Config(alpha=1, lambda_=2, theta=-3, affinity_gamma=0).validate()

    def test_dict_round_trip_uses_lambda_key(self):
        config = Config(lambda_=3.5, k_neighbors=4)
        data = config.to_dict()
        assert data["lambda"] == 3.5
        assert "lambda_" not in data
        assert Config.from_dict(data) == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError):
            Config.from_dict({"bogus": 1})

    def test_unknown_generator_field_rejected_by_name(self):
        with pytest.raises(ValidationError, match="^unknown generator field 'bogus'$"):
            SynthSpec.from_dict({"seed": 3, "bogus": 1})

    @pytest.mark.parametrize("data", [{"lambda": 1.0, "lambda_": 3.0},
                                      {"lambda_": 3.0, "lambda": 1.0},
                                      {"lambda_": 3.0}])
    def test_only_keys_to_dict_writes_accepted(self, data):
        with pytest.raises(ValidationError, match="unknown config field 'lambda_'"):
            Config.from_dict(data)

    @pytest.mark.parametrize("key,value", [("hough_translation_bins", 16),
                                           ("hough_scale_bins", 7)])
    def test_offset_grid_is_not_configurable(self, key, value):
        with pytest.raises(ValidationError, match=f"unknown config field '{key}'"):
            Config.from_dict({key: value})


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10 ** 400, -(10 ** 400)])
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


@pytest.mark.parametrize("params", [Config, SynthSpec])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_json_fields_give_valid_params_or_validation_error(params, data):
    keys = st.sampled_from([*params().to_dict(), "bogus"])
    fields = data.draw(st.dictionaries(keys, _json_values, max_size=4))
    try:
        parsed = params.from_dict(fields)
        parsed.validate()
    except ValidationError:
        return
    assert params.from_dict(parsed.to_dict()) == parsed


@pytest.mark.parametrize("value", [10 ** 400, -(10 ** 400), 2 ** 1024],
                         ids=["1e400", "-1e400", "2^1024"])
def test_integer_beyond_float_range_rejected(value):
    with pytest.raises(ValidationError, match="alpha must be finite"):
        Config(alpha=value).validate()
    with pytest.raises(ValidationError, match="object_scale must be finite"):
        SynthSpec(object_scale=value).validate()
