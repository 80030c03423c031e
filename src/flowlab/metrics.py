"""Quantitative probes: trajectory smoothness, truncation bias against a
dense-grid oracle, structure preservation and empirical moments."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .core import TensorState, interp
from .errors import InvalidConfigError, NumericalError, ShapeMismatchError
from .gaussian import GaussianSpec, _velocity_affine
from .rng import check_entries, integer
from .samplers import Trajectory


@dataclass(frozen=True)
class MetricReport:
    """One named scalar with optional per-step breakdown and enough config
    echo (seed, T, n_max, modes) to reproduce the run."""

    name: str
    value: float
    aux: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise NumericalError(f"metric {self.name} is not finite")
        if not np.isfinite(self.aux.get("stderr", 0.0)):
            raise NumericalError(f"metric {self.name} has a non-finite stderr")


def row_smoothness(stream: np.ndarray) -> np.ndarray:
    """``smoothness`` of each of the k streams of a stacked source stream of
    shape (steps, k, *state), such as a keyed sweep's ``Trajectory.x_src``.
    Row r's squared second differences are summed as one contiguous run in
    step-major order, as a record of stream r alone sums them, so each value
    has the bits of that record's ``smoothness``."""
    if stream.shape[0] < 3:
        raise InvalidConfigError(f"need >= 3 recorded steps, got {stream.shape[0]}")
    pts = stream.reshape(*stream.shape[:2], -1)
    second = pts[2:] - 2.0 * pts[1:-1] + pts[:-2]
    rows = np.ascontiguousarray(second.swapaxes(0, 1)).reshape(pts.shape[1], -1)
    return np.add.reduce(rows**2, axis=1) / (second.shape[0] * pts.shape[2])


def smoothness(traj: Trajectory) -> float:
    """Mean squared norm of second differences along the recorded source
    stream, normalized by interior point count and dimension: one value for
    the whole record, however many rows its state has (``row_smoothness``
    gives one per row). Zero exactly when the points are collinear in the
    step index."""
    return float(row_smoothness(traj.x_src[:, None])[0])


# Entries one chunk of the truncation-bias scan holds per array: a chunk
# takes _SCAN_ENTRIES // (dim * (dim + rows)) grid steps, so peak memory
# does not grow with grid_steps.
_SCAN_ENTRIES = 1 << 15


def _scan_chunk(dim: int, rows: int) -> int:
    """Grid steps per chunk of the truncation-bias scan."""
    return max(1, _SCAN_ENTRIES // (dim * (dim + rows)))


def _compose(c: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold the affine maps ``d -> c[k] @ d + b[k]``, applied in the order
    k = 0, 1, ..., into one map with a pairwise tree of batched matmuls.
    ``c`` is (n, dim, dim) and ``b`` is (n, rows, dim), one row per state."""
    eye = np.eye(c.shape[-1])
    while len(c) > 1:
        if len(c) % 2:  # pad with the identity map, which composes exactly
            c = np.concatenate([c, eye[None]])
            b = np.concatenate([b, np.zeros_like(b[:1])])
        b = b[0::2] @ c[1::2].swapaxes(-1, -2) + b[1::2]
        c = c[1::2] @ c[0::2]
    return c[0], b[0]


# The last full-horizon reference run, (src_spec, tar_spec, x_src, eps,
# grid_steps, offset). The four inputs are immutable and held here, so a hit
# by identity is exact; each call reads and writes the whole tuple once.
_reference_memo: tuple = ()


def truncation_bias(
    src_spec: GaussianSpec,
    tar_spec: GaussianSpec,
    x_src: TensorState,
    t_max: float,
    eps: TensorState,
    grid_steps: int = 100_000,
) -> TensorState:
    """Edit-sequence terminal offset caused by starting at t_max < 1.

    Integrates the velocity-difference ODE on a dense Euler grid twice with
    the same shared noise: once truncated (iterate initialized at the clean
    source at t_max) and once over the full horizon (iterate initialized at
    the noised source at t=1, the boundary-consistent reference). Both runs
    track the offset of the implied target from the noised-source path, so
    identical specs give a bias of exactly zero. Returned per coordinate.

    The marginal velocity is affine in x, so each Euler step is an affine
    map of the offset, d -> (I + h A_tar(t)) d + h (V_tar - V_src)(x_src(t)).
    All steps are built at once and composed in fixed-size chunks.

    The reference depends on neither t_max nor the truncated run, so the
    last one is kept and reused by a call with the same four input objects
    (by identity) and grid_steps, as ``bias_curve_plot`` makes. The result
    has the bits of a call without it.
    """
    global _reference_memo
    t_max = float(t_max)
    if not 0.0 < t_max <= 1.0:
        raise InvalidConfigError(f"t_max={t_max} outside (0, 1]")
    grid_steps = integer(grid_steps, "grid_steps")
    if grid_steps < 1:
        raise InvalidConfigError(f"grid_steps must be >= 1, got {grid_steps}")
    check_entries(grid_steps + 1, "the truncation-bias time grid")
    if x_src.shape != eps.shape:
        raise ShapeMismatchError(f"shapes {x_src.shape} and {eps.shape} differ")
    dim = x_src.shape[-1]
    if src_spec.dim != dim or tar_spec.dim != dim:
        raise ShapeMismatchError(
            f"state dim {dim} does not match spec dims {src_spec.dim} and {tar_spec.dim}"
        )
    src, noise = x_src.array.reshape(-1, dim), eps.array.reshape(-1, dim)
    chunk = _scan_chunk(dim, len(src))

    def offset_run(horizon: float) -> np.ndarray:
        # offset of the implied target from the noised-source interpolant;
        # zero at the start time in both runs (clean source at t_max for the
        # truncated run, noised source at t=1 for the reference)
        steps = max(int(round(grid_steps * horizon)), 1)
        times = np.linspace(0.0, horizon, steps + 1)
        d = np.zeros_like(src)
        for top in range(steps, 0, -chunk):
            i = np.arange(top, max(top - chunk, 0), -1)  # this chunk's steps, in order
            t_i = times[i][:, None, None]
            h = times[i - 1][:, None, None] - t_i
            x_src_t = interp(src, noise, t_i)
            a_tar, o_tar = _velocity_affine(tar_spec, times[i])
            a_src, o_src = _velocity_affine(src_spec, times[i])
            dv = x_src_t @ (a_tar - a_src).swapaxes(-1, -2) + (o_tar - o_src)[:, None]
            c, b = _compose(np.eye(dim) + h * a_tar, h * dv)
            d = d @ c.T + b
        return d

    memo, key = _reference_memo, (src_spec, tar_spec, x_src, eps)
    if memo and all(map(operator.is_, memo, key)) and memo[4] == grid_steps:
        reference = memo[5]
    else:
        reference = offset_run(1.0)
        _reference_memo = (*key, grid_steps, reference)
    truncated = reference if t_max == 1.0 else offset_run(t_max)
    return x_src.with_array(truncated - reference)


def _rms(d: np.ndarray) -> np.ndarray:
    """Root mean square over the last axis."""
    return np.sqrt(np.mean(d**2, axis=-1))


def _deviation(x_src: np.ndarray, x_out: np.ndarray) -> np.ndarray:
    if x_src.shape != x_out.shape:
        raise ShapeMismatchError(f"shapes {x_src.shape} and {x_out.shape} differ")
    return x_out - x_src


def structure_distance(x_src: np.ndarray, x_out: np.ndarray) -> float:
    """RMS per-coordinate deviation of the edit output from its source, over
    every coordinate (``row_structure_distance`` gives one per row)."""
    return float(_rms(_deviation(x_src, x_out).ravel(order="K")))


def row_structure_distance(x_src: np.ndarray, x_out: np.ndarray) -> np.ndarray:
    """``structure_distance`` of each row (last axis) of the output from the
    same row of its source, with the bits of a call on that row alone."""
    return _rms(_deviation(x_src, x_out))


def empirical_moments(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and unbiased covariance of an (n, dim) array of rows."""
    x = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if x.shape[0] < 2:
        raise InvalidConfigError(f"need >= 2 samples, got {x.shape[0]}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (x.shape[0] - 1)
    return mean, cov
