"""Deterministic counter-based random number generation.

Every random quantity in this package comes from one fixed, versioned
generator so that runs reproduce bit-for-bit across platforms:

* word stream: ``word[k] = mix64(seed + (k+1) * 0x9E3779B97F4A7C15)`` where
  ``mix64`` is the SplitMix64 finalizer, all arithmetic mod 2**64;
* uniforms: ``u[k] = ((word[k] >> 11) + 1) * 2**-53``, in (0, 1];
* normals: Box-Muller, one value per word pair, cosine branch only:
  ``z[j] = sqrt(-2 ln u[2j]) * cos(2 pi u[2j+1])``. ``box_muller`` is the
  one implementation: ``CounterRng.standard_normal`` calls it, and so does
  ``mlp.train`` on the words of a whole epoch drawn in one ``uniform`` call.

The sine branch is discarded so that the j-th normal is a pure function of
(seed, j) regardless of how draws are batched. Any change to these formulas
must bump RNG_ALGORITHM.

Keyed streams: a generator built on a 1-D sequence of k seeds runs k such
streams side by side, one per seed, with a counter per stream (the
counter-based design of Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC 2011). Every draw then has a leading axis of length k, and
row r is bit for bit what a generator on ``seeds[r]`` alone would give for
the same sequence of calls. This lets a whole seed sweep run as one batched
sampler call, on keys that ``derive_seeds`` derives in one array pass.

A draw of more than ``_NORMAL_BLOCK`` normals per stream is filled on two
threads: its blocks of ``_NORMAL_BLOCK // 2`` normals get their word
offsets before either thread starts, the caller fills the first half of
them and one worker thread the second (``_worker``, whose docstring holds
the contract every worker keeps). Each normal is a function of its word
offset alone, so the output and the counters are those of one thread
filling the blocks in order. Every buffer is two of ``_NORMAL_BLOCK``
words per thread, so the temporaries stay about those of one such thread.

``CounterRng.normal_steps(steps, shape)`` makes ``steps`` successive
``normal_array(shape)`` draws in one call, stacked on a new leading axis:
an editor draws every step's noise up front with it, and row s is bit for
bit the s-th of ``steps`` separate calls, on one stream or keyed.

A negative or non-integral draw count, or a draw of more than
``MAX_ENTRIES`` values over all streams, raises ``InvalidConfigError``
before any counter moves; a count of 0 draws nothing.
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager

import numpy as np

from .errors import InvalidConfigError, ShapeMismatchError

RNG_ALGORITHM = "splitmix64-boxmuller/1"

_U64 = (1 << 64) - 1
_GOLDEN_INT, _MIX1_INT, _MIX2_INT = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_GOLDEN, _MIX1, _MIX2 = np.uint64(_GOLDEN_INT), np.uint64(_MIX1_INT), np.uint64(_MIX2_INT)
_NORMAL_BLOCK = 1 << 15  # normals standard_normal draws at a time, to bound its temporaries

# The most float64 values (2 GiB) that one array of the lab may hold: the
# T + 1 time grid, a draw of n x dim samples, an edit record. A count whose
# array would be larger is rejected before anything is allocated.
MAX_ENTRIES = 1 << 28


def _mix64(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    # SplitMix64 finalizer, in place on a uint64 array; the multiplies wrap
    # mod 2**64 by design. The shifts go to ``tmp``, an array of z's shape,
    # when given, and to new arrays otherwise.
    z ^= np.right_shift(z, np.uint64(30), out=tmp)
    z *= _MIX1
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= _MIX2
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def _keys(seeds) -> np.ndarray:
    """A seed sequence as a new uint64 array, each seed mod 2**64. Seeds
    that numpy stores as 64-bit (or narrower) integers are cast, which wraps
    mod 2**64; any other seed is masked as a Python int. A sequence of more
    than MAX_ENTRIES seeds is rejected before it is read."""
    check_entries(len(seeds), "a seed list")
    keys = np.asarray(seeds)
    if keys.dtype.kind in "biu":
        return keys.astype(np.uint64)
    return np.array([int(s) & _U64 for s in seeds], dtype=np.uint64)


def derive_seeds(seeds, tag: int) -> np.ndarray:
    """``derive_seed(s, tag)`` for every s of a 1-D seed sequence, as one
    uint64 array made in one pass: numpy's uint64 arithmetic wraps mod
    2**64, as SplitMix64 is defined. ``CounterRng`` takes the array as
    keyed seeds without converting each key in Python."""
    z = _keys(seeds)
    z *= _GOLDEN
    z += np.uint64(((int(tag) & _U64) * _MIX2_INT + 1) & _U64)
    return _mix64(z)


def derive_seed(seed: int, tag: int) -> int:
    """Derive an independent stream seed from (seed, tag).

    Used wherever one experiment seed must feed several non-overlapping
    streams (data draws vs. sampler noise, per-seed sweep entries). The
    SplitMix64 finalizer of ``seed * golden + tag * mix2 + 1``, all mod
    2**64: ``derive_seeds`` on the one seed, as a Python int.
    """
    return int(derive_seeds([seed], tag)[0])


def box_muller(u: np.ndarray, out: np.ndarray | None = None,
               angle: np.ndarray | None = None) -> np.ndarray:
    """Normals from uniform pairs along the last axis, cosine branch only:
    ``z[..., j] = sqrt(-2 ln u[..., 2j]) * cos(2 pi u[..., 2j+1])``. ``out``
    and ``angle``, arrays of the result's shape, take the work when given."""
    z = np.log(u[..., 0::2], out=out)
    z *= -2.0
    np.sqrt(z, out=z)
    angle = np.multiply(u[..., 1::2], 2.0 * np.pi, out=angle)
    np.cos(angle, out=angle)
    z *= angle
    return z


def integer(value, name: str) -> int:
    """``value`` as a Python int by the ``operator.index`` rule, which takes
    Python and numpy integers and no float; otherwise InvalidConfigError."""
    try:
        return operator.index(value)
    except TypeError:  # not an integer
        raise InvalidConfigError(f"{name} must be an integer, got {value!r}") from None


def check_entries(count: int, what: str) -> None:
    """Reject ``what``, an array or record of ``count`` values, past MAX_ENTRIES."""
    if count > MAX_ENTRIES:
        raise InvalidConfigError(
            f"{what} would hold {count} values, more than the limit of {MAX_ENTRIES}")


def _count(n: int) -> int:
    """A draw count as a Python int, checked before any counter moves."""
    count = integer(n, "draw count")
    if count < 0:
        raise InvalidConfigError(f"draw count must be >= 0, got {n!r}")
    return count


@contextmanager
def _worker():
    """One worker thread beside the caller, for the lifetime of the block.

    Yields ``submit(fn, *args)``, which starts ``fn(*args)`` on the worker
    and returns its future. Every use keeps this contract: ``fn`` runs under
    the caller's ``np.geterr()`` (numpy's error state is per thread); an
    error in ``fn`` is raised again in the caller by ``result()``; the
    thread is joined on every exit from the block, an interrupt included, so
    none outlives it; ``fn`` calls numpy and the lab's private kernels only,
    as ``benchmarks/tracing.py`` wraps the public names and is not
    thread-safe; and the caller makes every buffer ``fn`` writes, so the
    worker allocates nothing large. ``concurrent.futures`` is imported here,
    as it loads ``logging``, which ``import flowlab`` does not need."""
    from concurrent.futures import ThreadPoolExecutor

    caller_err = np.geterr()

    def under_caller_err(fn, *args):
        with np.errstate(**caller_err):
            return fn(*args)

    with ThreadPoolExecutor(max_workers=1) as pool:
        yield lambda fn, *args: pool.submit(under_caller_err, fn, *args)


def _both(submit, half, first, second):
    """``half(second)`` on the worker of ``submit`` while the caller runs
    ``half(first)``: the pair of results, once both are done."""
    pending = submit(half, second)
    mine = half(first)
    return mine, pending.result()


class CounterRng:
    """Seeded counter-based generator; see module docstring for the stream.

    ``seed`` is one integer, or a 1-D sequence of them for keyed streams
    (an integer array, such as ``derive_seeds`` returns, is cast without a
    Python loop).
    ``words_consumed`` and ``normal_draws`` count per stream."""

    def __init__(self, seed):
        if hasattr(seed, "__len__") and not isinstance(seed, np.ndarray):
            # np.ndim reads a whole sequence into an array: check its length first
            check_entries(len(seed), "a seed list")
        ndim = np.ndim(seed)
        if ndim == 0:
            self.seed = int(seed) & _U64
            self._key = np.uint64(self.seed)
        elif ndim == 1:
            self._key = _keys(seed)[:, None]
            self.seed = tuple(self._key[:, 0].tolist())
        else:
            raise ShapeMismatchError(f"seed must be an integer or 1-D, not {ndim}-D")
        self._index = 0
        self.normal_draws = 0

    def _words(self, n: int, first: int | None = None, out: np.ndarray | None = None,
               tmp: np.ndarray | None = None) -> np.ndarray:
        """n words per stream from offset ``first``, which moves no counter;
        by default from the counter, which moves past them. Given ``out`` and
        ``tmp``, uint64 arrays of the result's shape, the words are made in
        ``out`` and no array is allocated; ``tmp`` is overwritten."""
        if first is None:
            first = self._index
            self._index += n
        if out is None:
            z = np.arange(first + 1, first + n + 1, dtype=np.uint64)
        else:
            # arange has no out: the counters as a running sum of ones
            ones = out.reshape(-1, n)[0]
            ones.fill(1)
            z = np.cumsum(ones, out=tmp.reshape(-1, n)[0])
            z += np.uint64(first)
        z *= _GOLDEN
        # without out a new array, as a keyed key broadcasts to (k, n);
        # rebinding z frees the counter array before the mix
        z = np.add(z, self._key, out=out)
        return _mix64(z, tmp)

    def _drawn(self, n: int) -> int:
        """A draw count per stream, checked against MAX_ENTRIES over all
        streams before any counter moves."""
        n = _count(n)
        check_entries(n * self._key.size, "a draw")
        return n

    def _uniforms(self, n: int, first: int | None = None, out: np.ndarray | None = None,
                  tmp: np.ndarray | None = None) -> np.ndarray:
        """Uniforms of the words ``_words`` makes; given its buffers, they
        are made in ``tmp``, viewed as float64."""
        u = self._words(n, first, out, tmp)
        u >>= np.uint64(11)
        u += np.uint64(1)
        return np.multiply(u, 2.0**-53, out=None if tmp is None else tmp.view(np.float64))

    @property
    def words_consumed(self) -> int:
        return self._index

    def uniform(self, n: int | None = None):
        """Uniform draws in (0, 1], shape (n,), keyed (k, n). With n None,
        one word per stream: a float, keyed shape (k,) (row r is the float
        a generator on ``seeds[r]`` alone gives)."""
        u = self._uniforms(1 if n is None else self._drawn(n))
        if n is not None:
            return u
        return float(u[0]) if u.ndim == 1 else u[:, 0]

    def standard_normal(self, n: int) -> np.ndarray:
        """n standard normal draws (two words each, Box-Muller cosine branch);
        keyed: shape (k, n). A draw of more than ``_NORMAL_BLOCK`` is filled
        ``_NORMAL_BLOCK // 2`` normals at a time on two threads (see the
        module docstring)."""
        n = self._drawn(n)
        self.normal_draws += n
        if n <= _NORMAL_BLOCK:
            return box_muller(self._uniforms(2 * n))
        streams = self._key.shape[:1]
        out = np.empty((*streams, n))
        first = self._index
        self._index += 2 * n
        size = _NORMAL_BLOCK // 2
        starts = range(0, n, size)

        def fill(part) -> None:
            # one thread's blocks, each made in its two word buffers: the
            # words, then the angles, in ``z``; the mix and the uniforms in ``tmp``
            blocks, z, tmp = part
            for lo in blocks:
                hi = min(lo + size, n)
                u = self._uniforms(2 * (hi - lo), first + 2 * lo, z[..., : 2 * (hi - lo)],
                                   tmp[..., : 2 * (hi - lo)])
                box_muller(u, out[..., lo:hi], z.view(np.float64)[..., : hi - lo])

        halves = [(blocks, np.empty((*streams, 2 * size), dtype=np.uint64),
                   np.empty((*streams, 2 * size), dtype=np.uint64))
                  for blocks in (starts[: len(starts) // 2], starts[len(starts) // 2 :])]
        with _worker() as submit:
            _both(submit, fill, *halves)
        return out

    def _shape(self, shape: tuple[int, ...] | int) -> tuple[int, ...]:
        # a draw's shape as a tuple of draw counts, keyed led by the k streams
        shape = tuple(map(_count, shape)) if hasattr(shape, "__iter__") else (_count(shape),)
        streams = self._key.shape[:1]  # () for one stream, (k,) keyed
        if shape[: len(streams)] != streams:
            raise ShapeMismatchError(f"shape {shape} does not lead with the {streams[0]} streams")
        return shape

    def normal_array(self, shape: tuple[int, ...] | int) -> np.ndarray:
        """Standard normals reshaped to ``shape`` (row-major draw order).

        Keyed, the leading axis of ``shape`` must be k: each stream fills
        its own row with ``shape[1:]``."""
        shape = self._shape(shape)
        lead = len(self._key.shape[:1])
        return self.standard_normal(math.prod(shape[lead:])).reshape(shape)

    def normal_steps(self, steps: int, shape: tuple[int, ...] | int) -> np.ndarray:
        """``steps`` successive ``normal_array(shape)`` draws in one call,
        stacked on a new leading axis: row s is bit for bit the s-th of
        ``steps`` separate calls, and the same words are consumed. Keyed,
        each stream draws its ``steps`` rows in one ``normal_array`` call
        and the step axis is moved to the front."""
        shape = self._shape(shape)
        lead = len(self._key.shape[:1])
        return self.normal_array((*shape[:lead], steps, *shape[lead:])).swapaxes(0, lead)
