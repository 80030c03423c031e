"""Quantitative probes: trajectory smoothness, truncation bias against a
dense-grid oracle, structure preservation and empirical moments."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import TensorState, interp
from .errors import InvalidConfigError, NumericalError, ShapeMismatchError
from .gaussian import GaussianSpec, _velocity_affine
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


def smoothness(traj: Trajectory) -> float:
    """Mean squared norm of second differences along the recorded source
    stream, normalized by interior point count and dimension. Zero exactly
    when the points are collinear in the step index."""
    pts = traj.source_stream()
    pts = pts.reshape(pts.shape[0], -1)
    if pts.shape[0] < 3:
        raise InvalidConfigError(f"need >= 3 recorded steps, got {pts.shape[0]}")
    second = pts[2:] - 2.0 * pts[1:-1] + pts[:-2]
    return float(np.sum(second**2)) / (second.shape[0] * pts.shape[1])


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
    """
    t_max = float(t_max)
    if not 0.0 < t_max <= 1.0:
        raise InvalidConfigError(f"t_max={t_max} outside (0, 1]")
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

    reference = offset_run(1.0)
    truncated = reference if t_max == 1.0 else offset_run(t_max)
    return x_src.with_array(truncated - reference)


def structure_distance(x_src: np.ndarray, x_out: np.ndarray) -> float:
    """RMS per-coordinate deviation of the edit output from its source."""
    if x_src.shape != x_out.shape:
        raise ShapeMismatchError(f"shapes {x_src.shape} and {x_out.shape} differ")
    return float(np.sqrt(np.mean((x_out - x_src) ** 2)))


def empirical_moments(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and unbiased covariance of an (n, dim) array of rows."""
    x = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if x.shape[0] < 2:
        raise InvalidConfigError(f"need >= 2 samples, got {x.shape[0]}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (x.shape[0] - 1)
    return mean, cov
