"""Rectified-flow building blocks: conditions, the field protocol and the
interpolation/velocity arithmetic every sampler is made of.

States are plain float64 arrays whose last axis is the state dimension;
leading axes act as batch axes. ``TensorState`` wraps one such array with
its shape and is the argument and return type of
``metrics.truncation_bias`` only.

Convention throughout the package: t=0 is data, t=1 is standard normal
noise, and the straight path between endpoints is
``x_t = (1-t) * x0 + t * x1`` with constant pair velocity ``x1 - x0``.
Generation therefore integrates from t=1 down to t=0.

The arithmetic is five array kernels, each formula written once:
``interp`` (the straight-path point), ``estimate_noise`` (the noise
endpoint implied by a velocity), ``euler`` (one step), ``step_target``
(one target-sequence step) and ``guided`` (classifier-free guidance).
They broadcast like numpy and do no validation: the samplers take their
times (the uniform grid ``EditConfig.times``) and their guidance scale
from an ``EditConfig``, which checks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .errors import InvalidConfigError, ShapeMismatchError


def _frozen(arr) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TensorState:
    """A frozen, finite flat vector plus its logical shape; the leading axes
    of ``shape`` may act as batch axes. ``truncation_bias`` takes and
    returns it; everything else works on plain arrays.
    """

    data: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen(np.ravel(self.data)))
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        if int(np.prod(self.shape, dtype=int)) != self.data.size:
            raise ShapeMismatchError(
                f"shape {self.shape} does not match data length {self.data.size}"
            )
        if not np.all(np.isfinite(self.data)):
            raise InvalidConfigError("state entries must be finite")

    def __eq__(self, other):
        # by value: the generated __eq__ would compare the arrays' truth value
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.data, other.data)

    @classmethod
    def from_array(cls, arr) -> "TensorState":
        arr = np.asarray(arr, dtype=np.float64)
        return cls(data=arr.ravel(), shape=arr.shape if arr.shape else (1,))

    @property
    def array(self) -> np.ndarray:
        return self.data.reshape(self.shape)

    def with_array(self, arr) -> "TensorState":
        return TensorState(data=np.ravel(arr), shape=self.shape)


@dataclass(frozen=True)
class Condition:
    """Conditioning vector with an explicit null flag.

    A null condition is the all-zero vector; it stands in for unconditional
    evaluation (the usual null-embedding convention).
    """

    vector: np.ndarray
    is_null: bool = False

    def __post_init__(self):
        object.__setattr__(self, "vector", _frozen(np.ravel(self.vector)))
        if self.is_null and np.any(self.vector != 0.0):
            raise InvalidConfigError("null condition must have an all-zero vector")

    def __eq__(self, other):
        # by value: the generated __eq__ would compare the vectors' truth value
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.is_null == other.is_null and np.array_equal(self.vector, other.vector)

    @classmethod
    def null(cls, dim: int) -> "Condition":
        return cls(vector=np.zeros(int(dim)), is_null=True)

    @classmethod
    def one_hot(cls, index: int, dim: int) -> "Condition":
        index, dim = int(index), int(dim)
        if not 0 <= index < dim:
            raise InvalidConfigError(f"one-hot index {index} outside 0..{dim - 1}")
        vec = np.zeros(dim)
        vec[index] = 1.0
        return cls(vector=vec)

    @property
    def dim(self) -> int:
        return self.vector.size

    def concat(self, other: "Condition") -> "Condition":
        return Condition(
            vector=np.concatenate([self.vector, other.vector]),
            is_null=self.is_null and other.is_null,
        )


@runtime_checkable
class VelocityField(Protocol):
    """Evaluable map (state, condition, t) -> velocity of identical shape."""

    state_dim: int
    condition_dim: int

    def velocity(self, x: np.ndarray, condition: Condition, t: float) -> np.ndarray:
        """Velocity for points ``x`` of shape (..., state_dim)."""
        ...


def interp(x0, x1, t):
    """Straight-path point (1-t)*x0 + t*x1; ``t`` may be an array that
    broadcasts against the states (per-row times as ``t[:, None]``)."""
    return (1.0 - t) * x0 + t * x1


def estimate_noise(x_t, v, t):
    """Model-implied noise endpoint x_t + (1-t)*v of the straight path."""
    return x_t + (1.0 - t) * v


def euler(x, v, t_i, t_prev):
    """One explicit Euler step from t_i to t_prev."""
    return x + (t_prev - t_i) * v


def step_target(x_tar, x_src_i, x_src_prev, v_tar, v_src, t_i, t_prev):
    """One target-sequence step: the velocity difference plus the source
    increment, x_tar + (t_prev-t_i)(v_tar-v_src) + x_src_prev - x_src_i."""
    return euler(x_tar, v_tar - v_src, t_i, t_prev) + x_src_prev - x_src_i


def guided(v_cond, v_uncond, scale):
    """Classifier-free guidance: v_uncond + scale*(v_cond - v_uncond)."""
    return v_uncond + scale * (v_cond - v_uncond)
