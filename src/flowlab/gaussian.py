"""Closed-form Gaussian endpoint distributions and their exact marginal
velocity fields; the ground truth against which sampler bias is measured.

For data x0 ~ N(mu, Sigma) and noise x1 ~ N(0, I) on the straight path
x_t = (1-t) x0 + t x1, the point x_t is Gaussian and the marginal velocity
E[x1 - x0 | x_t = x] has the closed form

    S_t = (1-t)^2 Sigma + t^2 I
    V(x, t) = (t I - (1-t) Sigma) S_t^{-1} (x - (1-t) mu) - mu

with the exact limit V(x, 1) = x - mu. Everything here accepts diagonal
covariances (stored as a 1-D vector) or full SPD matrices.

V is affine in x, V(x, t) = A_t x + o_t. A spec computes the eigenbasis
(lambda, Q) of its covariance once, at construction; then A_t = Q diag(g_t)
Q^T with g_t = (t - (1-t) lambda) / ((1-t)^2 lambda + t^2), and
o_t = -(1-t) A_t mu - mu. ``marginal_velocity`` evaluates a full spec as
``x @ A_t.T + o_t``, and a diagonal one from its per-coordinate
(shift, gain), computing those coefficients on each call. The eigenbasis
is the only thing a spec caches, and a spec is immutable after
construction, so concurrent samplers may share one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Condition
from .errors import (
    InsufficientSamplesError,
    InvalidConfigError,
    ShapeMismatchError,
)
from .rng import CounterRng, _both, _worker


@dataclass(frozen=True)
class GaussianSpec:
    """Mean vector plus covariance, diagonal (1-D) or full SPD (2-D)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=np.float64, copy=True).ravel()
        cov = np.array(self.cov, dtype=np.float64, copy=True)
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise InvalidConfigError("mean and covariance must be finite")
        d = mean.size
        if cov.ndim == 1:
            if cov.size != d:
                raise ShapeMismatchError(f"diagonal cov has size {cov.size}, mean has {d}")
            if np.any(cov <= 0.0):
                raise InvalidConfigError("diagonal covariance entries must be positive")
        elif cov.ndim == 2:
            if cov.shape != (d, d):
                raise ShapeMismatchError(f"cov shape {cov.shape} does not match dim {d}")
            # relative to the matrix's own scale: an absolute floor would pass
            # any asymmetry in a matrix of small entries
            if np.abs(cov - cov.T).max(initial=0.0) > 1e-8 * np.abs(cov).max(initial=0.0):
                raise InvalidConfigError("covariance must be symmetric")
            # cholesky and eigh read the lower triangle: mirror it, so that
            # every use sees that matrix (an exactly symmetric one keeps its bytes)
            cov = np.where(np.tri(d, dtype=bool), cov, cov.T)
            try:
                tril = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError as exc:
                raise InvalidConfigError("covariance is not positive definite") from exc
            object.__setattr__(self, "_tril", _read_only(tril))
        else:
            raise ShapeMismatchError("cov must be a vector (diagonal) or a matrix")
        object.__setattr__(self, "mean", _read_only(mean))
        object.__setattr__(self, "cov", _read_only(cov))
        # a plain attribute, not a field: repr, == and dataclasses.replace see
        # only mean and cov, and a replaced spec computes its own eigenbasis
        lam, q = np.linalg.eigh(self.cov_matrix())
        object.__setattr__(self, "_eig", (_read_only(lam), _read_only(q)))

    def __eq__(self, other):
        # by value: the generated __eq__ would compare the arrays' truth value
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.mean, other.mean) and np.array_equal(self.cov, other.cov)

    @classmethod
    def isotropic(cls, mean, var: float, dim: int | None = None) -> "GaussianSpec":
        mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
        if dim is not None and mean.size == 1:
            mean = np.full(int(dim), float(mean[0]))
        elif dim is not None and mean.size != int(dim):
            raise ShapeMismatchError(f"mean has size {mean.size}, dim is {dim}")
        return cls(mean=mean, cov=np.full(mean.size, float(var)))

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def is_diagonal(self) -> bool:
        return self.cov.ndim == 1

    def cov_matrix(self) -> np.ndarray:
        return np.diag(self.cov) if self.is_diagonal else np.asarray(self.cov)

    def scale_tril(self) -> np.ndarray:
        if self.is_diagonal:
            return np.diag(np.sqrt(self.cov))
        return self._tril  # the factor that validated the covariance


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _is_tall(x: np.ndarray) -> bool:
    """True for states with more rows (the product of the leading axes)
    than coordinates: those take the column path of ``_by_column``."""
    return x.ndim > 1 and x.size > x.shape[-1] ** 2


def _by_column(x: np.ndarray, chain, out: np.ndarray) -> np.ndarray:
    """Apply ``chain``, a sequence of (binary ufunc, (dim,) vector) pairs, to
    the tall state ``x`` of shape (..., dim), one coordinate column at a
    time: column j of ``out`` becomes ``ufunc_k(... ufunc_1(x[..., j], v_1[j])
    ..., v_k[j])``. ``out`` has x's shape and is C-contiguous or 2-D, in any
    layout: ``reshape(-1, dim)`` copies other arrays, losing the writes. It
    may be x itself when x is C-contiguous.

    Every element goes through the same IEEE operations in the same order as
    the broadcast expression, so the bits are the same; numpy runs dim loops
    over the rows instead of one short loop of length dim per row.
    """
    dim = x.shape[-1]
    # a view for contiguous input and for 2-D slices; a copy otherwise
    rows, out_rows = x.reshape(-1, dim), out.reshape(-1, dim)
    for j in range(dim):
        src, col = rows[:, j], out_rows[:, j]
        for ufunc, vector in chain:
            ufunc(src, vector[j], out=col)
            src = col
    return out


def marginal_velocity(spec: GaussianSpec, x: np.ndarray, t: float) -> np.ndarray:
    """Exact marginal velocity at points ``x`` of shape (..., dim).

    A diagonal spec on a tall ``x`` (more rows than ``dim``; see
    ``_is_tall``) is evaluated one coordinate column at a time; 1-D states
    and short arrays take the broadcast expression. Both paths give the same
    bits. A full spec is evaluated as ``x @ A_t.T + o_t``, and exactly as
    ``x - mu`` at t = 1."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise InvalidConfigError(f"t={t} outside [0, 1]")
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != (spec.dim,):
        raise ShapeMismatchError(f"x shape {x.shape} does not end in spec dim {spec.dim}")
    if spec.is_diagonal:
        # at t = 1 the gain is exactly 1 and (1 - t) mu exactly zero, so both
        # paths give x - mu bit for bit there
        shift = (1.0 - t) * spec.mean
        gain = (t - (1.0 - t) * spec.cov) / ((1.0 - t) ** 2 * spec.cov + t * t)
        if _is_tall(x):
            chain = ((np.subtract, shift), (np.multiply, gain), (np.subtract, spec.mean))
            return _by_column(x, chain, np.empty_like(x) if x.ndim == 2 else np.empty(x.shape))
        return gain * (x - shift) - spec.mean
    if t == 1.0:
        return x - spec.mean
    a, o = _velocity_affine(spec, t)
    return x @ a[0].T + o[0]


def _velocity_affine(spec: GaussianSpec, t) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the marginal velocity, which is affine in x, at a
    vector of n times: ``V(x, t[k]) = A[k] @ x + o[k]``.

    A_t = (t I - (1-t) Sigma) S_t^{-1} and o_t = -(1-t) A_t mu - mu. Both
    factors of A_t are functions of Sigma, so A_t is built in Sigma's
    eigenbasis, which the spec computed once, one path for diagonal and full
    covariances. At t = 1, A is
    exactly I and o exactly -mu. Returns arrays of shapes (n, dim, dim) and
    (n, dim).
    """
    t = np.asarray(t, dtype=np.float64).ravel()
    if np.any((t < 0.0) | (t > 1.0)):
        raise InvalidConfigError("times must lie in [0, 1]")
    lam, q = spec._eig
    # gain[m, k]: A's eigenvalue m at time k; (dim, n) keeps the elementwise
    # work running along the times
    lam = lam[:, None]
    gain = (t - (1.0 - t) * lam) / ((1.0 - t) ** 2 * lam + t * t)
    # A_t = sum_m gain[m] q_m q_m^T: one matmul against the flattened outer products
    outer = (q.T[:, :, None] * q.T[:, None, :]).reshape(spec.dim, -1)
    a = (gain.T @ outer).reshape(-1, spec.dim, spec.dim)
    a[t == 1.0] = np.eye(spec.dim)
    o = -(1.0 - t) * (q @ (gain * (spec.mean @ q)[:, None])) - spec.mean[:, None]
    return a, o.T


@dataclass(frozen=True)
class McVelocityEstimate:
    value: np.ndarray
    stderr: np.ndarray
    effective_samples: float
    n: int


def mc_conditional_velocity(
    spec: GaussianSpec, queries, n: int, rng: CounterRng
) -> list[McVelocityEstimate]:
    """Importance-sampling estimates of E[x1 - x0 | x_t = x], one per (x, t)
    in ``queries``, all from one draw of n source points x0 that they share.

    A query pairs each x0 with x1 = (x - (1-t) x0) / t, the only noise
    endpoint that puts x_t exactly at x, weighted by the noise density
    N(x1; 0, I); the Jacobian of that map is constant and cancels. The
    self-normalised weighted mean of x1 - x0 is the exact conditional
    expectation as n grows, with no kernel and no bandwidth; it comes with a
    per-coordinate standard error. Every query and n are checked before the
    draw; an empty ``queries`` draws nothing.

    Each weighted sum is numpy's pairwise sum over the draws, one coordinate
    at a time, so no bit depends on the BLAS thread count. The draws are
    split where that sum splits them: numpy sums n > 128 values as the sum
    of the first ``_pairwise_half(n)`` plus the sum of the rest. The caller
    evaluates the first part and one worker thread, started once per call,
    the second (``rng._worker`` states its contract), in three phases per
    query: the endpoints and log-weights; after the global maximum, the
    weights and their sums; after the mean, the squared residuals' sums.
    Each total is that one addition of the two part sums, so every bit is
    the one-thread result.
    """
    if n < 10_000:
        raise InvalidConfigError(f"need n >= 1e4 Monte Carlo samples, got {n}")
    queries = [(np.asarray(x, dtype=np.float64).ravel(), t) for x, t in queries]
    for x, t in queries:
        if not 0.0 < t <= 1.0:
            raise InvalidConfigError(f"t={t} outside (0, 1]: the noise endpoint divides by t")
        if x.size != spec.dim:
            raise ShapeMismatchError(f"query dim {x.size} != spec dim {spec.dim}")
    if not queries:
        return []

    # one row per coordinate: the elementwise work and the sums run along
    # the n draws
    x0 = sample_array(spec, n, rng).T.copy()
    # made here, once: both threads write into their halves of these
    bufs = (np.empty_like(x0), np.empty(n), np.empty(n), np.empty(n))
    split = _pairwise_half(n)
    parts = (slice(0, split), slice(split, n))
    with _worker() as submit:
        return [McVelocityEstimate(*_weighted_estimate(submit, parts, x0, bufs, x, t), n=n)
                for x, t in queries]


def _pairwise_half(n: int) -> int:
    """Where numpy's pairwise sum of n > 128 values splits them."""
    return n // 2 - (n // 2) % 8


def _weighted_estimate(submit, parts, x0, bufs, x, t) -> tuple[np.ndarray, np.ndarray, float]:
    """One query's value, stderr and effective sample size from the (dim, n)
    draw ``x0``, which it only reads, each phase run on the two ``parts`` of
    the draws by ``_both`` on ``submit``'s worker. ``bufs`` holds the (dim, n)
    endpoints (then residuals) and the n-long log-weights (then weights),
    squared weights and products. An ESS that is not a number, as when
    ``|x1|^2`` overflows at a tiny t, raises as a low one does."""
    x1, log_w, w_sq, prod = bufs

    def endpoints(part):
        # x1 = (x - (1-t) x0) / t and log_w = -|x1|^2 / 2; returns max(log_w)
        p1, lw, pr = x1[:, part], log_w[part], prod[part]
        np.multiply(x0[:, part], 1.0 - t, out=p1)
        np.subtract(x[:, None], p1, out=p1)
        p1 /= t
        np.multiply(p1[0], p1[0], out=lw)
        for row in p1[1:]:
            lw += np.multiply(row, row, out=pr)
        lw *= -0.5
        return np.max(lw)

    def weights(part):
        # w = exp(log_w - max); returns the sums of w, w^2 and w * (x1 - x0)_j
        w, ws, pr = log_w[part], w_sq[part], prod[part]
        w -= top
        np.exp(w, out=w)  # max-shifted: the largest weight is 1
        np.multiply(w, w, out=ws)
        y = np.subtract(x1[:, part], x0[:, part], out=x1[:, part])
        return [np.sum(w), np.sum(ws)] + [np.sum(np.multiply(w, row, out=pr)) for row in y]

    def residuals(part):
        # returns the sums of w^2 (y_j - value_j)^2
        r = np.subtract(x1[:, part], value[:, None], out=x1[:, part])
        r *= r
        r *= w_sq[part]
        return [np.sum(row) for row in r]

    top = np.maximum(*_both(submit, endpoints, *parts))
    sums = [a + b for a, b in zip(*_both(submit, weights, *parts))]
    wsum = float(sums[0])
    ess = wsum**2 / float(sums[1])
    if not ess >= 30.0:  # NaN too
        raise InsufficientSamplesError(
            f"effective sample size {ess:.1f} < 30 at x={x}, t={t}; increase n"
        )
    value = np.array(sums[2:]) / wsum
    stderr = np.sqrt([a + b for a, b in zip(*_both(submit, residuals, *parts))]) / wsum
    return value, stderr, ess


def sample_array(spec: GaussianSpec, n: int, rng: CounterRng) -> np.ndarray:
    """n iid draws as an (n, dim) array, via Cholesky transform.

    A diagonal spec scales and shifts the draws in place, one coordinate
    column at a time, when n > dim, and by the broadcast expression
    otherwise; both paths give the same bits."""
    if n < 1:
        raise InvalidConfigError(f"need n >= 1 samples, got {n}")
    z = rng.normal_array((n, spec.dim))
    if spec.is_diagonal:
        scale = np.sqrt(spec.cov)
        if _is_tall(z):
            return _by_column(z, ((np.multiply, scale), (np.add, spec.mean)), z)
        return spec.mean + z * scale
    return spec.mean + z @ spec.scale_tril().T


def _sqrtm_spd(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition."""
    vals, vecs = np.linalg.eigh(a)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def w2_gaussian(a: GaussianSpec, b: GaussianSpec) -> float:
    """Closed-form 2-Wasserstein distance between Gaussians.

    sqrt(||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_b^1/2 S_a S_b^1/2)^1/2)).
    """
    if a.dim != b.dim:
        raise ShapeMismatchError(f"dimension mismatch {a.dim} vs {b.dim}")
    mean_term = float(np.sum((a.mean - b.mean) ** 2))
    if a.is_diagonal and b.is_diagonal:
        cov_term = float(np.sum((np.sqrt(a.cov) - np.sqrt(b.cov)) ** 2))
    else:
        sa, sb = a.cov_matrix(), b.cov_matrix()
        rb = _sqrtm_spd(sb)
        cross = _sqrtm_spd(rb @ sa @ rb)
        cov_term = float(np.trace(sa) + np.trace(sb) - 2.0 * np.trace(cross))
    return float(np.sqrt(max(mean_term + cov_term, 0.0)))


def ot_map(src: GaussianSpec, tar: GaussianSpec) -> tuple[np.ndarray, np.ndarray]:
    """Affine optimal-transport map x -> A x + b between two Gaussians.

    A = S_s^{-1/2} (S_s^{1/2} S_t S_s^{1/2})^{1/2} S_s^{-1/2}; the map sends
    src exactly onto tar and is the per-sample reference for an ideal edit.
    """
    if src.dim != tar.dim:
        raise ShapeMismatchError(f"dimension mismatch {src.dim} vs {tar.dim}")
    if src.is_diagonal and tar.is_diagonal:
        a = np.diag(np.sqrt(tar.cov / src.cov))
    else:
        rs = _sqrtm_spd(src.cov_matrix())
        rs_inv = np.linalg.inv(rs)
        a = rs_inv @ _sqrtm_spd(rs @ tar.cov_matrix() @ rs) @ rs_inv
    b = tar.mean - a @ src.mean
    return a, b


class GaussianConditionalField:
    """Velocity field dispatching on the condition to a registered spec.

    Conditions are matched exactly (null flag plus vector bytes); unknown
    conditions raise. This is the oracle stand-in for a conditional model.
    """

    def __init__(self, condition_dim: int, state_dim: int):
        self.condition_dim = int(condition_dim)
        self.state_dim = int(state_dim)
        self._specs: dict[tuple, GaussianSpec] = {}

    @staticmethod
    def _key(condition: Condition) -> tuple:
        return (condition.is_null, condition.vector.tobytes())

    def register(self, condition: Condition, spec: GaussianSpec) -> "GaussianConditionalField":
        if condition.dim != self.condition_dim:
            raise ShapeMismatchError(
                f"condition dim {condition.dim} != field condition_dim {self.condition_dim}"
            )
        if spec.dim != self.state_dim:
            raise ShapeMismatchError(f"spec dim {spec.dim} != field state_dim {self.state_dim}")
        self._specs[self._key(condition)] = spec
        return self

    def spec_for(self, condition: Condition) -> GaussianSpec:
        try:
            return self._specs[self._key(condition)]
        except KeyError:
            raise InvalidConfigError(
                f"no spec registered for condition {condition.vector.tolist()}"
                f" (null={condition.is_null}); {len(self._specs)} registered"
            ) from None

    def velocity(self, x: np.ndarray, condition: Condition, t: float) -> np.ndarray:
        return marginal_velocity(self.spec_for(condition), x, t)


class AnalyticDualField:
    """Joint (video, audio) oracle built from two conditional fields.

    Mirrors a dual-stream backbone: one call returns both modality
    velocities; the toy coupling is that both streams share the prompt.
    No editor takes it (``omniedit_av`` evaluates one joint
    ``VelocityField``); it remains because ``benchmarks/tracing.py`` traces
    its ``velocities`` by name, and goes when the benchmark drops that entry.
    """

    def __init__(self, video_field: GaussianConditionalField, audio_field: GaussianConditionalField):
        if video_field.condition_dim != audio_field.condition_dim:
            raise ShapeMismatchError("video and audio fields must share the condition dim")
        self.video_field = video_field
        self.audio_field = audio_field
        self.video_dim = video_field.state_dim
        self.audio_dim = audio_field.state_dim
        self.condition_dim = video_field.condition_dim

    def velocities(
        self, video: np.ndarray, audio: np.ndarray, condition: Condition, t: float
    ) -> tuple[np.ndarray, np.ndarray]:
        return (
            self.video_field.velocity(video, condition, t),
            self.audio_field.velocity(audio, condition, t),
        )
