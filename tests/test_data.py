import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from flowlab.core import Condition
from flowlab.data import AvSynthParams, CoupledAvDataset, synth_av_dataset
from flowlab.errors import InvalidConfigError, ShapeMismatchError


def params(noise_scale=0.1, video_scale=0.45):
    return AvSynthParams(
        video_means=np.array([[-2.0, 0.0], [2.0, 0.0]]),
        audio_offsets=np.array([[-1.5], [1.5]]),
        coupling=np.array([[0.8, -0.3]]),
        video_scale=video_scale,
        noise_scale=noise_scale,
    )


def test_zero_noise_makes_coupling_exact():
    ds = synth_av_dataset(params(noise_scale=0.0), 64, seed=3)
    expected = ds.video @ ds.params.coupling.T + ds.params.audio_offsets[ds.labels]
    assert np.array_equal(ds.audio, expected)


def test_deterministic_under_seed():
    a = synth_av_dataset(params(), 128, seed=9)
    b = synth_av_dataset(params(), 128, seed=9)
    assert np.array_equal(a.video, b.video)
    assert np.array_equal(a.audio, b.audio)
    assert np.array_equal(a.labels, b.labels)


def test_separated_classes_recover_their_means():
    # means 4 apart with sigma 0.4 is a 10-sigma separation
    ds = synth_av_dataset(params(video_scale=0.4), 4000, seed=1)
    for k in range(2):
        sel = ds.video[ds.labels == k]
        assert sel.shape[0] > 1500
        assert np.max(np.abs(sel.mean(axis=0) - ds.params.video_means[k])) < 0.05


def test_dimension_validation():
    with pytest.raises(ShapeMismatchError):
        AvSynthParams(
            video_means=np.array([[0.0, 0.0]]),
            audio_offsets=np.array([[0.0]]),
            coupling=np.array([[1.0]]),  # should be (1, 2)
        )


def test_n_floor():
    with pytest.raises(InvalidConfigError):
        synth_av_dataset(params(), 0, seed=0)


def test_csv_round_trip(tmp_path):
    ds = synth_av_dataset(params(), 32, seed=5)
    path = tmp_path / "data.csv"
    ds.to_csv(path)
    back = CoupledAvDataset.from_csv(path)
    assert np.array_equal(back.video, ds.video)
    assert np.array_equal(back.audio, ds.audio)
    assert np.array_equal(back.labels, ds.labels)


def test_joint_pairs_concatenate_modalities():
    ds = synth_av_dataset(params(), 8, seed=7)
    state, cond = ds.joint_pairs()[0]
    assert state.shape == (ds.video_dim + ds.audio_dim,)
    assert np.array_equal(state[: ds.video_dim], ds.video[0])
    assert np.array_equal(state[ds.video_dim :], ds.audio[0])
    assert cond.dim == 2 and cond.vector[ds.labels[0]] == 1.0


def test_joint_pairs_equal_the_per_row_construction():
    ds = synth_av_dataset(params(), 64, seed=11)
    pairs = ds.joint_pairs()
    assert len(pairs) == 64
    for (state, cond), row, k in zip(pairs, ds.joint_states(), ds.labels):
        assert np.array_equal(state, row)
        assert cond == Condition.one_hot(int(k), ds.num_classes)
        assert not cond.vector.flags.writeable
    # one shared condition per class
    assert len({id(cond) for _, cond in pairs}) == len(set(ds.labels.tolist()))


_HEADER = "video_0,video_1,audio_0,class\n"


@pytest.mark.parametrize(
    "text",
    [
        "",
        _HEADER,
        _HEADER + "0.5,abc,1.0,0\n",
        _HEADER + "0.5,1.0,0\n",
        _HEADER + "0.5,nan,1.0,0\n",
        _HEADER + "0.5,0.25,1.0,-1\n",
    ],
    ids=["empty", "header-only", "non-numeric", "short-row", "nan", "negative-class"],
)
def test_malformed_csv_is_config_error(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    with pytest.raises(InvalidConfigError):
        CoupledAvDataset.from_csv(path)


@st.composite
def _datasets(draw):
    n, dv, da = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    labels = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    return CoupledAvDataset(
        video=draw(hnp.arrays(np.float64, (n, dv), elements=finite)),
        audio=draw(hnp.arrays(np.float64, (n, da), elements=finite)),
        labels=labels, num_classes=int(labels.max()) + 1,
    )


@settings(max_examples=150, deadline=None)
@given(ds=_datasets())
def test_csv_round_trip_is_bit_exact(tmp_path_factory, ds):
    # to_csv writes .17g, which round-trips every finite double, -0.0 included
    path = tmp_path_factory.mktemp("round_trip") / "data.csv"
    ds.to_csv(path)
    back = CoupledAvDataset.from_csv(path)
    assert back.video.tobytes() == ds.video.tobytes()
    assert back.audio.tobytes() == ds.audio.tobytes()
    assert np.array_equal(back.labels, ds.labels) and back.num_classes == ds.num_classes


def test_non_finite_rows_and_bad_labels_rejected():
    ds = synth_av_dataset(params(), 4, seed=2)
    video = ds.video.copy()
    video[1, 0] = np.inf
    with pytest.raises(InvalidConfigError):
        CoupledAvDataset(video=video, audio=ds.audio, labels=ds.labels, num_classes=2)
    with pytest.raises(InvalidConfigError):
        CoupledAvDataset(video=ds.video, audio=ds.audio, labels=ds.labels + 2, num_classes=2)
