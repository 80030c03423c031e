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

``CounterRng.normal_steps(steps, shape)`` makes ``steps`` successive
``normal_array(shape)`` draws in one call, stacked on a new leading axis:
an editor draws every step's noise up front with it, and row s is bit for
bit the s-th of ``steps`` separate calls, on one stream or keyed.

A negative or non-integral draw count raises ``InvalidConfigError`` before
any counter moves; a count of 0 draws nothing.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import InvalidConfigError, ShapeMismatchError

RNG_ALGORITHM = "splitmix64-boxmuller/1"

_U64 = (1 << 64) - 1
_GOLDEN_INT, _MIX1_INT, _MIX2_INT = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_GOLDEN, _MIX1, _MIX2 = np.uint64(_GOLDEN_INT), np.uint64(_MIX1_INT), np.uint64(_MIX2_INT)
_NORMAL_BLOCK = 1 << 15  # normals standard_normal draws at a time, to bound its temporaries


def _mix64(z: np.ndarray) -> np.ndarray:
    # SplitMix64 finalizer, in place on a uint64 array; the multiplies wrap
    # mod 2**64 by design.
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _keys(seeds) -> np.ndarray:
    """A seed sequence as a new uint64 array, each seed mod 2**64. Seeds
    that numpy stores as 64-bit (or narrower) integers are cast, which wraps
    mod 2**64; any other seed is masked as a Python int."""
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


def box_muller(u: np.ndarray) -> np.ndarray:
    """Normals from uniform pairs along the last axis, cosine branch only:
    ``z[..., j] = sqrt(-2 ln u[..., 2j]) * cos(2 pi u[..., 2j+1])``."""
    z = np.log(u[..., 0::2])
    z *= -2.0
    np.sqrt(z, out=z)
    angle = u[..., 1::2] * (2.0 * np.pi)
    np.cos(angle, out=angle)
    z *= angle
    return z


def _count(n: int) -> int:
    """A draw count as a Python int, checked before any counter moves."""
    try:
        if operator.index(n) >= 0:
            return operator.index(n)
    except TypeError:  # not an integer
        pass
    raise InvalidConfigError(f"draw count must be an integer >= 0, got {n!r}")


class CounterRng:
    """Seeded counter-based generator; see module docstring for the stream.

    ``seed`` is one integer, or a 1-D sequence of them for keyed streams
    (an integer array, such as ``derive_seeds`` returns, is cast without a
    Python loop).
    ``words_consumed`` and ``normal_draws`` count per stream."""

    def __init__(self, seed):
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

    def _words(self, n: int) -> np.ndarray:
        z = np.arange(self._index + 1, self._index + n + 1, dtype=np.uint64)
        self._index += n
        z *= _GOLDEN
        # a new array, as a keyed key broadcasts to (k, n); rebinding z frees
        # the counter array before the mix rather than holding both
        z = z + self._key
        return _mix64(z)

    def _uniforms(self, n: int) -> np.ndarray:
        u = self._words(n)
        u >>= np.uint64(11)
        u += np.uint64(1)
        return u * 2.0**-53

    @property
    def words_consumed(self) -> int:
        return self._index

    def uniform(self, n: int | None = None):
        """Uniform draws in (0, 1], shape (n,), keyed (k, n). With n None,
        one word per stream: a float, keyed shape (k,) (row r is the float
        a generator on ``seeds[r]`` alone gives)."""
        u = self._uniforms(1 if n is None else _count(n))
        if n is not None:
            return u
        return float(u[0]) if u.ndim == 1 else u[:, 0]

    def standard_normal(self, n: int) -> np.ndarray:
        """n standard normal draws (two words each, Box-Muller cosine branch);
        keyed: shape (k, n); filled ``_NORMAL_BLOCK`` normals at a time."""
        n = _count(n)
        self.normal_draws += n
        if n <= _NORMAL_BLOCK:
            return box_muller(self._uniforms(2 * n))
        out = np.empty((*self._key.shape[:1], n))
        for block in np.split(out, range(_NORMAL_BLOCK, n, _NORMAL_BLOCK), axis=-1):
            block[...] = box_muller(self._uniforms(2 * block.shape[-1]))
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
