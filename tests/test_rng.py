import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowlab import rng as rng_module
from flowlab.errors import InvalidConfigError, ShapeMismatchError
from flowlab.rng import (
    _GOLDEN, _MIX1, _MIX2, _NORMAL_BLOCK, MAX_ENTRIES, RNG_ALGORITHM, CounterRng, derive_seed,
    derive_seeds,
)


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


@settings(max_examples=200, deadline=None)
@given(key=st.one_of(_keys, st.lists(_keys, min_size=1, max_size=4)), before=st.integers(0, 5),
       steps=st.integers(0, 6), rest=st.lists(st.integers(0, 3), max_size=2))
def test_normal_steps_equal_successive_normal_array_calls(key, before, steps, rest):
    shape = (*([len(key)] if isinstance(key, list) else []), *rest)
    stacked, split = CounterRng(key), CounterRng(key)
    stacked.standard_normal(before)
    split.standard_normal(before)
    rows = stacked.normal_steps(steps, shape)
    expected = np.stack([split.normal_array(shape) for _ in range(steps)]) if steps else None
    assert rows.shape == (steps, *shape)
    if steps:
        assert np.array_equal(rows, expected)
    assert stacked.words_consumed == split.words_consumed
    assert stacked.normal_draws == split.normal_draws
    # the streams continue where the separate calls left them
    assert np.array_equal(stacked.uniform(3), split.uniform(3))


@pytest.mark.parametrize("key", [4, [4, 5]], ids=["one", "keyed"])
@pytest.mark.parametrize("draw", [
    lambda rng, k: rng.standard_normal(-2),
    lambda rng, k: rng.uniform(-3),
    lambda rng, k: rng.normal_array((*k, 2, -1)),
    lambda rng, k: rng.normal_array((*k, -1, -2)),
    lambda rng, k: rng.normal_steps(-1, (*k, 2)),
    lambda rng, k: rng.normal_steps(2, (*k, -2)),
], ids=["standard_normal", "uniform", "normal_array", "normal_array-two-negative",
        "normal_steps-steps", "normal_steps-shape"])
def test_negative_counts_raise_before_any_counter_moves(key, draw):
    rng = CounterRng(key)
    rng.standard_normal(3)
    streams = [2] if isinstance(key, list) else []
    with pytest.raises(InvalidConfigError):
        draw(rng, streams)
    assert (rng.words_consumed, rng.normal_draws) == (6, 3)
    fresh = CounterRng(key)
    fresh.standard_normal(3)
    assert np.array_equal(rng.standard_normal(3), fresh.standard_normal(3))


@pytest.mark.parametrize("key", [4, [4, 5]], ids=["one", "keyed"])
def test_zero_counts_draw_nothing(key):
    rng, streams = CounterRng(key), [2] if isinstance(key, list) else []
    assert rng.standard_normal(0).shape == (*streams, 0)
    assert rng.uniform(0).shape == (*streams, 0)
    assert rng.normal_array((*streams, 0, 3)).shape == (*streams, 0, 3)
    assert rng.normal_steps(0, (*streams, 3)).shape == (0, *streams, 3)
    assert (rng.words_consumed, rng.normal_draws) == (0, 0)


@pytest.mark.parametrize("key", [4, [4, 5]], ids=["one", "keyed"])
def test_numpy_integer_axes_draw_like_ints_and_keep_int_counters(key):
    streams = [2] if isinstance(key, list) else []
    rng, ref = CounterRng(key), CounterRng(key)
    got = [rng.normal_array((*streams, np.int64(2), np.int32(3))),
           rng.normal_steps(np.int64(2), (*streams, np.int64(3)))]
    want = [ref.normal_array((*streams, 2, 3)), ref.normal_steps(2, (*streams, 3))]
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert (rng.words_consumed, rng.normal_draws) == (ref.words_consumed, ref.normal_draws)
    assert type(rng.words_consumed) is int and type(rng.normal_draws) is int


def test_numpy_integer_counts_draw_like_ints_and_keep_int_counters():
    rng, ref = CounterRng(4), CounterRng(4)
    assert np.array_equal(rng.normal_array(np.int64(2)), ref.normal_array(2))
    assert np.array_equal(rng.standard_normal(np.int64(2)), ref.standard_normal(2))
    assert np.array_equal(rng.uniform(np.int32(3)), ref.uniform(3))
    assert (rng.words_consumed, rng.normal_draws) == (ref.words_consumed, ref.normal_draws)
    assert type(rng.words_consumed) is int and type(rng.normal_draws) is int


@pytest.mark.parametrize("key", [4, [4, 5]], ids=["one", "keyed"])
@pytest.mark.parametrize("draw", [
    lambda rng, k: rng.standard_normal(2.5),
    lambda rng, k: rng.standard_normal(np.float64(2.0)),
    lambda rng, k: rng.uniform(2.5),
    lambda rng, k: rng.normal_array((*k, 2.0)),
    lambda rng, k: rng.normal_steps(1.5, (*k, 2)),
    lambda rng, k: rng.normal_steps(2, (*k, "2")),
], ids=["standard_normal", "standard_normal-float64", "uniform", "normal_array",
        "normal_steps-steps", "normal_steps-shape"])
def test_non_integral_counts_raise_before_any_counter_moves(key, draw):
    rng = CounterRng(key)
    rng.standard_normal(3)
    with pytest.raises(InvalidConfigError, match="integer"):
        draw(rng, [2] if isinstance(key, list) else [])
    assert (rng.words_consumed, rng.normal_draws) == (6, 3)


@pytest.mark.parametrize("key", [4, [4, 5]], ids=["one", "keyed"])
@pytest.mark.parametrize("draw", [
    lambda rng, k, n: rng.standard_normal(n),
    lambda rng, k, n: rng.uniform(n),
    lambda rng, k, n: rng.normal_array((*k, n)),
    lambda rng, k, n: rng.normal_array((*k, 2**40, 2**40)),
    lambda rng, k, n: rng.normal_steps(n, (*k, 1)),
    lambda rng, k, n: rng.normal_steps(2, (*k, n // 2 + 1)),
], ids=["standard_normal", "uniform", "normal_array", "normal_array-2d", "normal_steps-steps",
        "normal_steps-shape"])
def test_draws_past_the_limit_raise_before_any_counter_moves(key, draw):
    # the limit counts the values of every stream: keyed, half as many per stream
    rng = CounterRng(key)
    rng.standard_normal(3)
    streams = [2] if isinstance(key, list) else []
    with pytest.raises(InvalidConfigError, match="limit of 268435456"):
        draw(rng, streams, MAX_ENTRIES // (1 + len(streams)) + 1)
    assert (rng.words_consumed, rng.normal_draws) == (6, 3)


def test_a_draw_at_the_limit_is_not_rejected(monkeypatch):
    # the bound is inclusive; checked at a small limit, so that nothing large is drawn
    monkeypatch.setattr(rng_module, "MAX_ENTRIES", 6)
    assert CounterRng([1, 2]).normal_array((2, 3)).shape == (2, 3)
    with pytest.raises(InvalidConfigError, match="limit of 6"):
        CounterRng([1, 2]).normal_array((2, 4))


def test_seed_lists_past_the_limit_raise_before_they_are_read():
    # the range's length is checked before numpy would read it into an array
    with pytest.raises(InvalidConfigError, match="seed list"):
        derive_seeds(range(MAX_ENTRIES + 1), 1)


def test_generator_seed_lists_past_the_limit_raise_before_they_are_read():
    class LongSeeds:
        """A sequence that claims more than MAX_ENTRIES seeds and must not be read."""

        def __len__(self):
            return MAX_ENTRIES + 1

        def __getitem__(self, index):
            raise AssertionError(f"seed {index} was read")

    with pytest.raises(InvalidConfigError, match="seed list"):
        CounterRng(LongSeeds())


def test_keyed_draws_lead_with_the_streams():
    keyed = CounterRng([1, 2, 3])
    with pytest.raises(ShapeMismatchError):
        keyed.normal_array((2, 4))
    with pytest.raises(ShapeMismatchError):
        keyed.normal_steps(3, ())
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


def _reference_derive_seed(seed: int, tag: int) -> int:
    z = ((seed & _MASK) * 0x9E3779B97F4A7C15 + (tag & _MASK) * 0x94D049BB133111EB + 1) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


# derive_seed's values as the uint64 numpy formula computed them
_DERIVED = [
    ((0, 0), 6238072747940578789),
    ((3, 1), 10446861865677985753),
    ((3, 2), 6151422684309660899),
    ((2**64 - 1, 7), 16286852480909901930),
    ((-3, 5), 303395123931207606),
    ((12345, 1000), 3156474376675551387),
    ((2**70 + 9, 2**65 + 1), 3042401026210708777),
]


@pytest.mark.parametrize("args, value", _DERIVED, ids=[str(a) for a, _ in _DERIVED])
def test_derive_seed_known_answers(args, value):
    assert derive_seed(*args) == value
    assert type(derive_seed(*args)) is int


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(-2**70, 2**70), tag=st.integers(-2**70, 2**70))
def test_derive_seed_matches_the_integer_reference(seed, tag):
    assert derive_seed(seed, tag) == _reference_derive_seed(seed, tag)


# Seed lists that numpy stores as int64, as uint64, or only as Python objects.
_seed_lists = st.one_of(*(st.lists(st.integers(lo, hi), min_size=1, max_size=8) for lo, hi in (
    (-2**63, 2**63 - 1), (0, 2**64 - 1), (-2**70, 2**70))))


@settings(max_examples=300, deadline=None)
@given(seeds=_seed_lists, tag=st.integers(-2**70, 2**70), size=st.integers(0, 5))
def test_keyed_derivation_equals_the_scalar_one(seeds, tag, size):
    keys = derive_seeds(seeds, tag)
    assert keys.dtype == np.uint64
    assert keys.tolist() == [derive_seed(s, tag) for s in seeds]
    from_array, from_list = CounterRng(keys), CounterRng([derive_seed(s, tag) for s in seeds])
    assert from_array.seed == from_list.seed
    assert all(type(s) is int for s in from_array.seed)
    assert np.array_equal(from_array.uniform(size), from_list.uniform(size))
    shape = (len(seeds), size, 2)
    assert np.array_equal(from_array.normal_array(shape), from_list.normal_array(shape))
    assert from_array.words_consumed == from_list.words_consumed
    assert from_array.normal_draws == from_list.normal_draws
    with pytest.raises(ShapeMismatchError):
        CounterRng(keys[None])


def test_keyed_derivation_leaves_its_input_alone():
    seeds = np.array([3, 2**64 - 1], dtype=np.uint64)
    keys = derive_seeds(seeds, 1)
    assert seeds.tolist() == [3, 2**64 - 1]
    rng = CounterRng(keys)
    keys[:] = 0  # the generator holds its own copy
    assert rng.seed == (derive_seed(3, 1), derive_seed(2**64 - 1, 1))
    assert np.array_equal(rng.uniform(2), CounterRng(derive_seeds(seeds, 1)).uniform(2))


def test_blocked_normals_match_the_reference_across_block_boundaries():
    # standard_normal fills its output _NORMAL_BLOCK normals at a time
    sizes = (_NORMAL_BLOCK - 1, _NORMAL_BLOCK, _NORMAL_BLOCK + 1, 2 * _NORMAL_BLOCK + 3)
    seeds = [21, 2**64 - 2]
    reference = {seed: _reference_normals(seed, 5, max(sizes)) for seed in seeds}
    for n in sizes:
        one, keyed, split = CounterRng(seeds[0]), CounterRng(seeds), CounterRng(seeds[0])
        for rng in (one, keyed, split):
            rng.uniform(5)
        assert np.array_equal(one.standard_normal(n), reference[seeds[0]][:n])
        rows = keyed.standard_normal(n)
        for row, seed in zip(rows, seeds):
            assert np.array_equal(row, reference[seed][:n])
        # separate smaller draws consume the same words and continue alike
        parts = [split.standard_normal(m) for m in (1, n // 2 - 1, n - n // 2)]
        assert np.array_equal(np.concatenate(parts), reference[seeds[0]][:n])
        assert (one.words_consumed, one.normal_draws) == (split.words_consumed, split.normal_draws)
        assert (keyed.words_consumed, keyed.normal_draws) == (split.words_consumed, n)
        assert np.array_equal(one.uniform(3), split.uniform(3))


def test_a_large_draw_holds_only_block_sized_temporaries():
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        out = CounterRng(1).normal_array((200_000, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.nbytes == 3_200_000
    assert peak - before < 1.5 * out.nbytes


def test_a_keyed_large_draw_holds_only_block_sized_temporaries():
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        out = CounterRng([1, 2**64 - 1, 5]).normal_array((3, 200_000, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.nbytes == 9_600_000
    assert peak - before < 1.5 * out.nbytes


def _blockwise_normals(seeds, first: int, n: int) -> np.ndarray:
    """Normals ``first/2 .. first/2 + n`` of each seed's stream, one thread
    filling ``_NORMAL_BLOCK`` at a time from numpy counters, as the
    generator did before it split large draws over two threads."""
    key = np.array(seeds, dtype=np.uint64)[..., None]
    out = np.empty((*key.shape[:-1], n))
    for lo in range(0, n, _NORMAL_BLOCK):
        hi = min(lo + _NORMAL_BLOCK, n)
        z = np.arange(first + 2 * lo + 1, first + 2 * hi + 1, dtype=np.uint64) * _GOLDEN + key
        for shift, mult in ((30, _MIX1), (27, _MIX2), (31, None)):
            z ^= z >> np.uint64(shift)
            if mult is not None:
                z *= mult
        u = ((z >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
        out[..., lo:hi] = np.sqrt(-2.0 * np.log(u[..., 0::2])) * np.cos(2.0 * np.pi * u[..., 1::2])
    return out


@pytest.mark.parametrize("seeds", [21, [21, 2**64 - 2, 0]], ids=["one", "keyed"])
@pytest.mark.parametrize("n", [_NORMAL_BLOCK + 1, 2 * _NORMAL_BLOCK, 2 * _NORMAL_BLOCK + 7,
                               3 * _NORMAL_BLOCK, 3 * _NORMAL_BLOCK + 5, 7 * _NORMAL_BLOCK,
                               7 * _NORMAL_BLOCK + 1001])
def test_two_thread_draws_equal_the_blockwise_reference(seeds, n):
    # 1, 2, 3 and 7 whole blocks, each with and without a remainder, after
    # 5 uniforms, so that no block starts at word 0
    reference = _blockwise_normals(seeds, 5, n + 8)
    for draw in ("standard_normal", "normal_array"):
        rng = CounterRng(seeds)
        rng.uniform(5)
        if draw == "standard_normal":
            got = rng.standard_normal(n)
        else:
            got = rng.normal_array((*np.shape(seeds), n // 2, 2)).reshape(*np.shape(seeds), -1)
        assert np.array_equal(got, reference[..., : got.shape[-1]])
        assert rng.words_consumed == 5 + 2 * got.shape[-1]
        assert rng.normal_draws == got.shape[-1]
        # the stream continues where the reference's words go on
        assert np.array_equal(rng.standard_normal(8), reference[..., got.shape[-1]:][..., :8])
