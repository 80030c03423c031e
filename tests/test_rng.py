import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowlab.errors import ShapeMismatchError
from flowlab.rng import RNG_ALGORITHM, CounterRng, derive_seed


def test_same_seed_bit_identical():
    a, b = CounterRng(123), CounterRng(123)
    assert np.array_equal(a.standard_normal(100), b.standard_normal(100))
    assert np.array_equal(a.uniform(50), b.uniform(50))


def test_batching_does_not_change_the_stream():
    a, b = CounterRng(9), CounterRng(9)
    chunks = np.concatenate([a.standard_normal(3), a.standard_normal(4), a.standard_normal(1)])
    assert np.array_equal(chunks, b.standard_normal(8))


def test_uniforms_live_in_half_open_unit_interval():
    u = CounterRng(7).uniform(100_000)
    assert u.min() > 0.0 and u.max() <= 1.0
    assert abs(u.mean() - 0.5) < 0.005


def test_normal_moments():
    z = CounterRng(1).standard_normal(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02


def test_normal_draw_counter():
    rng = CounterRng(0)
    rng.standard_normal(5)
    rng.uniform(3)
    rng.normal_array((2, 4))
    assert rng.normal_draws == 13


def test_derived_seeds_differ_and_are_stable():
    assert derive_seed(3, 1) != derive_seed(3, 2)
    assert derive_seed(3, 1) != derive_seed(4, 1)
    assert derive_seed(3, 1) == derive_seed(3, 1)


def test_seeds_give_distinct_streams():
    a = CounterRng(0).standard_normal(64)
    b = CounterRng(1).standard_normal(64)
    assert not np.array_equal(a, b)


def test_algorithm_identifier_is_versioned():
    assert "/" in RNG_ALGORITHM


_keys = st.integers(0, 2**64 - 1)
# One draw call: (method, size); normal_array takes a (size, 2) shape.
_calls = st.lists(
    st.tuples(st.sampled_from(["standard_normal", "normal_array", "uniform"]), st.integers(0, 9)),
    max_size=6,
)


def _draw(rng, method, size, streams=None):
    if method == "normal_array":
        return rng.normal_array((size, 2) if streams is None else (streams, size, 2))
    return getattr(rng, method)(size)


@settings(max_examples=200, deadline=None)
@given(key=st.one_of(_keys, st.lists(_keys, min_size=1, max_size=4)),
       sizes=st.lists(st.integers(0, 12), max_size=8),
       method=st.sampled_from(["standard_normal", "uniform"]))
def test_draws_do_not_depend_on_how_calls_are_split(key, sizes, method):
    split, whole = CounterRng(key), CounterRng(key)
    chunks = [getattr(split, method)(n) for n in [0, *sizes]]
    assert np.array_equal(np.concatenate(chunks, axis=-1), getattr(whole, method)(sum(sizes)))
    assert split.words_consumed == whole.words_consumed
    assert split.normal_draws == whole.normal_draws


@settings(max_examples=200, deadline=None)
@given(keys=st.lists(_keys, min_size=1, max_size=6), calls=_calls)
def test_keyed_rows_equal_scalar_streams(keys, calls):
    keyed, scalars = CounterRng(keys), [CounterRng(key) for key in keys]
    for method, size in calls:
        rows = _draw(keyed, method, size, streams=len(keys))
        expected = np.stack([_draw(rng, method, size) for rng in scalars])
        assert rows.shape == expected.shape
        assert np.array_equal(rows, expected)
    for rng in scalars:
        assert keyed.words_consumed == rng.words_consumed
        assert keyed.normal_draws == rng.normal_draws


def test_keyed_draws_lead_with_the_streams():
    keyed = CounterRng([1, 2, 3])
    with pytest.raises(ShapeMismatchError):
        keyed.normal_array((2, 4))
    with pytest.raises(ShapeMismatchError):
        CounterRng([[1, 2]])


# Known answers: the module docstring's formulas in Python integers, with no
# numpy in the word stream.
_MASK = (1 << 64) - 1


def _reference_words(seed: int, first: int, n: int) -> list[int]:
    """Words ``first+1 .. first+n`` of the stream of ``seed``."""
    words = []
    for k in range(first + 1, first + n + 1):
        z = ((seed & _MASK) + k * 0x9E3779B97F4A7C15) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        words.append(z ^ (z >> 31))
    return words


def _reference_uniforms(seed: int, first: int, n: int) -> np.ndarray:
    return np.array([((w >> 11) + 1) * 2.0**-53 for w in _reference_words(seed, first, n)])


def _reference_normals(seed: int, first: int, n: int) -> np.ndarray:
    # numpy's log and cos, as the generator uses them: math.log and math.cos
    # differ from them in the last ulp on some draws
    u = _reference_uniforms(seed, first, 2 * n)
    return np.sqrt(-2.0 * np.log(u[0::2])) * np.cos(2.0 * np.pi * u[1::2])


def test_words_and_uniforms_match_the_integer_reference():
    rng = CounterRng(12345)
    assert [int(w) for w in rng._words(40_000)] == _reference_words(12345, 0, 40_000)
    assert np.array_equal(rng.uniform(1_000), _reference_uniforms(12345, 40_000, 1_000))
    assert rng.uniform() == _reference_uniforms(12345, 41_000, 1)[0]


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, -3])
def test_scalar_stream_matches_the_reference_after_earlier_draws(seed):
    rng = CounterRng(seed)
    assert np.array_equal(rng.standard_normal(500), _reference_normals(seed, 0, 500))
    rng.uniform(3)  # the stream has now drawn 1003 words
    assert np.array_equal(rng.normal_array((40, 3)).ravel(), _reference_normals(seed, 1003, 120))
    assert np.array_equal(rng.uniform(9), _reference_uniforms(seed, 1243, 9))


def test_keyed_streams_match_the_reference_after_earlier_draws():
    seeds = [5, 2**63 + 1, 0]
    rng = CounterRng(seeds)
    rng.standard_normal(4)
    normals, uniforms = rng.normal_array((3, 50, 2)), rng.uniform(6)
    for row, seed in enumerate(seeds):
        assert np.array_equal(normals[row].ravel(), _reference_normals(seed, 8, 100))
        assert np.array_equal(uniforms[row], _reference_uniforms(seed, 208, 6))


@pytest.mark.parametrize("keys", [[1], [0, 7, 2**64 - 1]])
def test_keyed_uniform_without_n_gives_one_draw_per_stream(keys):
    keyed = CounterRng(keys)
    keyed.standard_normal(3)
    got = keyed.uniform()
    assert got.shape == (len(keys),)
    for row, key in zip(got, keys):
        alone = CounterRng(key)
        alone.standard_normal(3)
        want = alone.uniform()
        assert isinstance(want, float)
        assert row == want
    assert keyed.words_consumed == 7
