"""Deterministic counter-based random number generation.

Every random quantity in this package comes from one fixed, versioned
generator so that runs reproduce bit-for-bit across platforms:

* word stream: ``word[k] = mix64(seed + (k+1) * 0x9E3779B97F4A7C15)`` where
  ``mix64`` is the SplitMix64 finalizer, all arithmetic mod 2**64;
* uniforms: ``u[k] = ((word[k] >> 11) + 1) * 2**-53``, in (0, 1];
* normals: Box-Muller, one value per word pair, cosine branch only:
  ``z[j] = sqrt(-2 ln u[2j]) * cos(2 pi u[2j+1])``.

The sine branch is discarded so that the j-th normal is a pure function of
(seed, j) regardless of how draws are batched. Any change to these formulas
must bump RNG_ALGORITHM.

Keyed streams: a generator built on a 1-D sequence of k seeds runs k such
streams side by side, one per seed, with a counter per stream (the
counter-based design of Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC 2011). Every draw then has a leading axis of length k, and
row r is bit for bit what a generator on ``seeds[r]`` alone would give for
the same sequence of calls. This lets a whole seed sweep run as one batched
sampler call.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError

RNG_ALGORITHM = "splitmix64-boxmuller/1"

_U64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    # all multiplies wrap mod 2**64 by design
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def derive_seed(seed: int, tag: int) -> int:
    """Derive an independent stream seed from (seed, tag).

    Used wherever one experiment seed must feed several non-overlapping
    streams (data draws vs. sampler noise, per-seed sweep entries).
    """
    with np.errstate(over="ignore"):
        z = np.uint64(int(seed) & _U64) * _GOLDEN + np.uint64(int(tag) & _U64) * _MIX2 + np.uint64(1)
    return int(_mix64(z))


class CounterRng:
    """Seeded counter-based generator; see module docstring for the stream.

    ``seed`` is one integer, or a 1-D sequence of them for keyed streams.
    ``words_consumed`` and ``normal_draws`` count per stream."""

    def __init__(self, seed):
        if np.ndim(seed) == 0:
            self.seed = int(seed) & _U64
            self._key = np.uint64(self.seed)
        elif np.ndim(seed) == 1:
            self.seed = tuple(int(s) & _U64 for s in seed)
            self._key = np.array(self.seed, dtype=np.uint64)[:, None]
        else:
            raise ShapeMismatchError(f"seed must be an integer or 1-D, not {np.ndim(seed)}-D")
        self._index = 0
        self.normal_draws = 0

    def _words(self, n: int) -> np.ndarray:
        idx = np.arange(self._index + 1, self._index + n + 1, dtype=np.uint64)
        self._index += n
        with np.errstate(over="ignore"):
            return _mix64(self._key + idx * _GOLDEN)

    @property
    def words_consumed(self) -> int:
        return self._index

    def uniform(self, n: int | None = None):
        """Uniform draws in (0, 1]; scalar if n is None, else shape (n,),
        keyed (k, n)."""
        u = ((self._words(1 if n is None else n) >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
        return float(u[0]) if n is None else u

    def standard_normal(self, n: int) -> np.ndarray:
        """n standard normal draws (two words each, Box-Muller cosine branch);
        keyed: shape (k, n)."""
        w = self._words(2 * n)
        u = ((w >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
        self.normal_draws += n
        return np.sqrt(-2.0 * np.log(u[..., 0::2])) * np.cos(2.0 * np.pi * u[..., 1::2])

    def normal_array(self, shape: tuple[int, ...] | int) -> np.ndarray:
        """Standard normals reshaped to ``shape`` (row-major draw order).

        Keyed, the leading axis of ``shape`` must be k: each stream fills
        its own row with ``shape[1:]``."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        streams = self._key.shape[:1]  # () for one stream, (k,) keyed
        if shape[: len(streams)] != streams:
            raise ShapeMismatchError(f"shape {shape} does not lead with the {streams[0]} streams")
        return self.standard_normal(int(np.prod(shape[len(streams) :], dtype=int))).reshape(shape)
