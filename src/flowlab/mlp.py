"""Small conditional MLP velocity model with hand-rolled backprop.

The network maps concat(state, condition, (t, 1-t)) through tanh hidden
layers to a velocity of the state's dimension, and is trained with Adam on
the straight-path regression objective: batch mean of
``||model(x_t, c, t) - (x1 - x0)||^2`` with x1 drawn standard normal and t
uniform. Everything is float64 numpy, single threaded and deterministic.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import Condition, interp
from .errors import (
    InvalidConfigError,
    ModelFormatError,
    ShapeMismatchError,
    TrainingDivergedError,
)
from .rng import CounterRng, derive_seed

_MAGIC = b"OMED"
_FORMAT_VERSION = 1
# The model file's activation code; tanh, code 0, is the only activation.
_TANH_CODE = 0
# Adam's decay rates and denominator guard.
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class MlpModel:
    """Weight matrices W_l of shape (fan_out, fan_in) plus bias vectors.

    The layer chain is [state_dim + condition_dim + 2, hidden..., state_dim];
    the last layer is linear, all others pass through tanh.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    condition_dim: int

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise InvalidConfigError("weights and biases must be non-empty and aligned")
        chain = self.layer_chain
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (chain[l + 1], chain[l]) or b.shape != (chain[l + 1],):
                raise InvalidConfigError(
                    f"layer {l} shapes {w.shape}/{b.shape} break the chain {chain}"
                )
        if self.input_dim != self.state_dim + self.condition_dim + 2:
            raise InvalidConfigError(
                f"input width {self.input_dim} != state {self.state_dim} + "
                f"condition {self.condition_dim} + 2 time features"
            )
        for w, b in zip(self.weights, self.biases):
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise InvalidConfigError("parameters must be finite")

    @property
    def layer_chain(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def state_dim(self) -> int:
        return self.weights[-1].shape[0]

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out


def mlp_init(widths: Sequence[int], condition_dim: int, seed: int) -> MlpModel:
    """Build a model with hidden widths ``widths[:-1]`` and state dimension
    ``widths[-1]`` (the output width always equals the state dimension).

    Weights are scaled-uniform fan-in draws, biases start at zero.
    """
    widths = [int(w) for w in widths]
    if len(widths) < 2:
        raise InvalidConfigError("need at least one hidden layer")
    if any(w < 1 for w in widths) or condition_dim < 0:
        raise InvalidConfigError(f"inconsistent widths {widths} / condition_dim {condition_dim}")
    chain = [widths[-1] + int(condition_dim) + 2] + widths
    rng = CounterRng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(chain[:-1], chain[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        u = rng.uniform(fan_out * fan_in).reshape(fan_out, fan_in)
        weights.append(bound * (2.0 * u - 1.0))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights=weights, biases=biases, condition_dim=int(condition_dim))


def _assemble_inputs(model: MlpModel, x: np.ndarray, cond: np.ndarray, t) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    cond = np.asarray(cond, dtype=np.float64)
    cond = np.broadcast_to(cond, (n, model.condition_dim)) if cond.ndim <= 1 else cond
    if x.shape[1] != model.state_dim or cond.shape != (n, model.condition_dim):
        raise ShapeMismatchError(
            f"inputs ({x.shape}, {cond.shape}) do not match model dims "
            f"(state {model.state_dim}, condition {model.condition_dim})"
        )
    tcol = np.broadcast_to(np.asarray(t, dtype=np.float64), (n,))[:, None]
    return np.concatenate([x, cond, tcol, 1.0 - tcol], axis=1)


def _forward_cached(model: MlpModel, inputs: np.ndarray) -> list[np.ndarray]:
    """The inputs and every layer's output, the velocity last."""
    hs = [inputs]
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = hs[-1] @ w.T + b
        hs.append(z if l == last else np.tanh(z))
    return hs


def forward_array(model: MlpModel, x: np.ndarray, cond, t) -> np.ndarray:
    """Velocity prediction for a batch; ``t`` may be scalar or per-row."""
    squeeze = np.asarray(x).ndim == 1
    out = _forward_cached(model, _assemble_inputs(model, x, _cond_vector(cond, model), t))[-1]
    return out[0] if squeeze else out


def _cond_vector(cond, model: MlpModel) -> np.ndarray:
    if isinstance(cond, Condition):
        if cond.dim != model.condition_dim:
            raise ShapeMismatchError(
                f"condition dim {cond.dim} != model condition_dim {model.condition_dim}"
            )
        return cond.vector
    return np.asarray(cond, dtype=np.float64)


def batch_loss_and_grads(model: MlpModel, x, cond, t, target):
    """Mean squared-error loss over the batch and gradients for every
    parameter, in the same (W, b) per-layer order as ``parameters()``."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    if x.size == 0:
        raise InvalidConfigError("empty batch")
    if target.shape != (x.shape[0], model.state_dim):
        raise ShapeMismatchError(f"target shape {target.shape} does not match batch")
    n = x.shape[0]
    hs = _forward_cached(model, _assemble_inputs(model, x, np.asarray(cond, dtype=np.float64), t))
    resid = hs[-1] - target
    loss = float(np.sum(resid**2)) / n

    grads: list[np.ndarray] = [np.empty(0)] * (2 * len(model.weights))
    g = 2.0 * resid / n
    for l in range(len(model.weights) - 1, -1, -1):
        grads[2 * l] = g.T @ hs[l]
        grads[2 * l + 1] = g.sum(axis=0)
        if l > 0:
            g = (g @ model.weights[l]) * (1.0 - hs[l] * hs[l])
    return loss, grads


def grad_check(model: MlpModel, sample, fd_step: float = 1e-5) -> float:
    """Max relative error between backprop and central finite differences.

    ``sample`` is one (state, condition, t, target) tuple; every parameter
    entry is perturbed by +-fd_step.
    """
    if not 0.0 < fd_step <= 1e-2:
        raise InvalidConfigError(f"fd_step must lie in (0, 1e-2], got {fd_step}")
    x = np.atleast_2d(np.asarray(sample[0], dtype=np.float64))
    cond = _cond_vector(sample[1], model)
    t = float(sample[2])
    tgt = np.atleast_2d(np.asarray(sample[3], dtype=np.float64))

    _, grads = batch_loss_and_grads(model, x, cond, t, tgt)
    worst = 0.0
    for param, grad in zip(model.parameters(), grads):
        flat, gflat = param.ravel(), np.asarray(grad).ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + fd_step
            hi = batch_loss_and_grads(model, x, cond, t, tgt)[0]
            flat[k] = orig - fd_step
            lo = batch_loss_and_grads(model, x, cond, t, tgt)[0]
            flat[k] = orig
            fd = (hi - lo) / (2.0 * fd_step)
            err = abs(gflat[k] - fd) / (abs(gflat[k]) + abs(fd) + 1e-12)
            worst = max(worst, err)
    return worst


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise InvalidConfigError("epochs and batch_size must be positive")
        if not 0.0 <= self.learning_rate < np.inf:
            raise InvalidConfigError(f"learning rate must be finite and >= 0, got {self.learning_rate}")


@dataclass
class TrainReport:
    losses: list[float] = field(default_factory=list)
    initial_loss: float = float("nan")
    final_loss: float = float("nan")


def _as_training_arrays(dataset, model: MlpModel):
    x0 = np.stack([np.asarray(p[0], dtype=np.float64) for p in dataset])
    cond = np.stack([_cond_vector(p[1], model) for p in dataset])
    return x0, cond


def train(model: MlpModel, dataset, config: TrainConfig) -> TrainReport:
    """Train ``model`` in place on (data point, condition) pairs.

    ``report.losses`` holds the loss on one frozen evaluation batch (fixed
    draws from a seed derived from config.seed), recorded every step so the
    curve is comparable across steps and constant when the learning rate is
    zero. Raises if the loss goes non-finite.
    """
    if len(dataset) == 0:
        raise InvalidConfigError("empty dataset")
    x0, cond = _as_training_arrays(dataset, model)
    n, d = x0.shape

    eval_rng = CounterRng(derive_seed(config.seed, 101))
    n_eval = min(n, 256)
    eval_idx = np.minimum((eval_rng.uniform(n_eval) * n).astype(int), n - 1)
    eval_x0, eval_cond = x0[eval_idx], cond[eval_idx]
    eval_x1 = eval_rng.normal_array((n_eval, d))
    eval_t = eval_rng.uniform(n_eval)
    eval_xt = interp(eval_x0, eval_x1, eval_t[:, None])
    eval_tgt = eval_x1 - eval_x0

    def eval_loss() -> float:
        pred = forward_array(model, eval_xt, eval_cond, eval_t)
        return float(np.sum((pred - eval_tgt) ** 2)) / n_eval

    rng = CounterRng(config.seed)
    report = TrainReport()
    report.initial_loss = eval_loss()

    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in model.parameters()]
    step = 0
    for _ in range(config.epochs):
        perm = np.argsort(rng.uniform(n), kind="stable")
        for lo in range(0, n, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            bx0, bcond = x0[idx], cond[idx]
            bx1 = rng.normal_array((idx.size, d))
            bt = rng.uniform(idx.size)
            xt = interp(bx0, bx1, bt[:, None])
            loss, grads = batch_loss_and_grads(model, xt, bcond, bt, bx1 - bx0)
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"non-finite training loss at step {step}")
            step += 1
            for (m, v), p, g in zip(moments, model.parameters(), grads):
                m *= _BETA1
                m += (1.0 - _BETA1) * g
                v *= _BETA2
                v += (1.0 - _BETA2) * g * g
                mhat = m / (1.0 - _BETA1**step)
                vhat = v / (1.0 - _BETA2**step)
                p -= config.learning_rate * mhat / (np.sqrt(vhat) + _ADAM_EPS)
            report.losses.append(eval_loss())
    report.final_loss = report.losses[-1]
    if not np.isfinite(report.final_loss):
        raise TrainingDivergedError("non-finite final loss")
    return report


def save_model(model: MlpModel, path) -> None:
    """Versioned little-endian binary: magic, version, activation code,
    condition dim, layer chain, then row-major float64 W/b per layer."""
    chain = model.layer_chain
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack(
        "<4I", _FORMAT_VERSION, _TANH_CODE, model.condition_dim, len(chain)
    )
    blob += struct.pack(f"<{len(chain)}I", *chain)
    for w, b in zip(model.weights, model.biases):
        blob += np.ascontiguousarray(w, dtype="<f8").tobytes()
        blob += np.ascontiguousarray(b, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def load_model(path) -> MlpModel:
    with open(path, "rb") as fh:
        blob = fh.read()

    def need(offset: int, count: int, what: str) -> bytes:
        if offset + count > len(blob):
            raise ModelFormatError(f"file truncated while reading {what}", offset=len(blob))
        return blob[offset : offset + count]

    if need(0, 4, "magic") != _MAGIC:
        raise ModelFormatError(f"bad magic {blob[:4]!r}, expected {_MAGIC!r}", offset=0)
    version, act_code, condition_dim, n_chain = struct.unpack("<4I", need(4, 16, "header"))
    if version != _FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version {version}", offset=4)
    if act_code != _TANH_CODE:
        raise ModelFormatError(f"unknown activation code {act_code}", offset=8)
    if n_chain < 2:
        raise ModelFormatError(f"layer chain too short ({n_chain})", offset=16)
    off = 20
    chain = struct.unpack(f"<{n_chain}I", need(off, 4 * n_chain, "layer chain"))
    off += 4 * n_chain
    weights, biases = [], []
    for fan_in, fan_out in zip(chain[:-1], chain[1:]):
        wbytes = need(off, 8 * fan_in * fan_out, "weights")
        weights.append(np.frombuffer(wbytes, dtype="<f8").reshape(fan_out, fan_in).copy())
        off += 8 * fan_in * fan_out
        bbytes = need(off, 8 * fan_out, "biases")
        biases.append(np.frombuffer(bbytes, dtype="<f8").copy())
        off += 8 * fan_out
    if off != len(blob):
        raise ModelFormatError(f"{len(blob) - off} trailing bytes", offset=off)
    try:
        return MlpModel(weights=weights, biases=biases, condition_dim=condition_dim)
    except InvalidConfigError as exc:
        raise ModelFormatError(f"inconsistent model: {exc}", offset=20) from exc


class MlpVelocityField:
    """Adapts an MlpModel to the single-stream velocity-field interface."""

    def __init__(self, model: MlpModel):
        self.model = model
        self.state_dim = model.state_dim
        self.condition_dim = model.condition_dim

    def velocity(self, x: np.ndarray, condition: Condition, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        flat = x.reshape(-1, x.shape[-1])
        return forward_array(self.model, flat, _cond_vector(condition, self.model), t).reshape(x.shape)


class MlpDualField:
    """One joint model over concat(video, audio) split into two velocities."""

    def __init__(self, model: MlpModel, video_dim: int, audio_dim: int):
        if model.state_dim != video_dim + audio_dim:
            raise ShapeMismatchError(
                f"model state_dim {model.state_dim} != video {video_dim} + audio {audio_dim}"
            )
        self.model = model
        self.video_dim = int(video_dim)
        self.audio_dim = int(audio_dim)
        self.condition_dim = model.condition_dim

    def velocities(
        self, video: np.ndarray, audio: np.ndarray, condition: Condition, t: float
    ) -> tuple[np.ndarray, np.ndarray]:
        video = np.asarray(video, dtype=np.float64)
        audio = np.asarray(audio, dtype=np.float64)
        joint = np.concatenate([video, audio], axis=-1)
        flat = joint.reshape(-1, joint.shape[-1])
        out = forward_array(self.model, flat, _cond_vector(condition, self.model), t)
        out = out.reshape(joint.shape)
        return out[..., : self.video_dim], out[..., self.video_dim :]
