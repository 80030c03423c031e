"""Small conditional MLP velocity model with hand-rolled backprop.

The network maps concat(state, condition, (t, 1-t)) through tanh hidden
layers to a velocity of the state's dimension, and is trained with Adam on
the straight-path regression objective: batch mean of
``||model(x_t, c, t) - (x1 - x0)||^2`` with x1 drawn standard normal and t
uniform. Everything is float64 numpy and deterministic: the matrix products
may run on BLAS threads, and no output bit depends on how many
(``tests/test_cli_matrix.py`` runs the CLI's training and editing at one
thread beside the default).

Parameters live in one float64 vector, ``MlpModel.params``, laid out as the
model file stores them: W0 (row-major, fan_out x fan_in), b0, W1, b1, ...
``weights`` and ``biases`` are reshaped views of it, the gradient vector of
``batch_loss_and_grads`` has the same layout, and Adam updates the whole
vector at once.

Per epoch, ``train`` draws a permutation (n uniforms) and then, in one call,
the epoch's n * (2d + 1) words: for each batch of b rows in order, 2*b*d
words turned into its (b, d) normal endpoints (Box-Muller, row-major), then
b words for its times. Word k is the same however the draws are batched, so
this stream equals one normal and one uniform draw per batch.

Each epoch's inputs are assembled at once, and a step does only the step's
work: the forward and backward pass on a slice of those rows, the Adam
update and the forward pass on the eval batch, whose inputs ``train``
assembles once per call. Both passes call the private kernels directly
(``_forward_cached``, and ``_backward``, the backprop that
``batch_loss_and_grads`` also runs), so no step checks shapes or assembles
inputs. The eval and batch passes stay two products: numpy sends a 1-row
product to gemv, not gemm, so one stacked pass would change the bits of a
1-row eval or batch.
"""

from __future__ import annotations

import math
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
from .rng import CounterRng, box_muller, derive_seed

_MAGIC = b"OMED"
_FORMAT_VERSION = 1
# The model file's activation code; tanh, code 0, is the only activation.
_TANH_CODE = 0
# Adam's decay rates and denominator guard.
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


def _layer_views(flat: np.ndarray, chain: Sequence[int]) -> list[np.ndarray]:
    """[W0, b0, W1, b1, ...] as reshaped views of a flat parameter-layout vector."""
    views, off = [], 0
    for fan_in, fan_out in zip(chain[:-1], chain[1:]):
        views.append(flat[off : off + fan_out * fan_in].reshape(fan_out, fan_in))
        off += fan_out * fan_in
        views.append(flat[off : off + fan_out])
        off += fan_out
    return views


class MlpModel:
    """Weight matrices W_l of shape (fan_out, fan_in) plus bias vectors.

    The layer chain is [state_dim + condition_dim + 2, hidden..., state_dim];
    the last layer is linear, all others pass through tanh. The model copies
    the given arrays into ``params``; afterwards ``weights`` and ``biases``
    are views of it.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray], condition_dim: int):
        self.weights, self.biases, self.condition_dim = weights, biases, condition_dim
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
        self.params = np.concatenate(
            [np.ravel(a) for pair in zip(self.weights, self.biases) for a in pair]
        ).astype(np.float64, copy=False)
        if not np.all(np.isfinite(self.params)):
            raise InvalidConfigError("parameters must be finite")
        views = _layer_views(self.params, chain)
        self.weights, self.biases = views[0::2], views[1::2]

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
        """[W0, b0, W1, b1, ...], views of ``params``."""
        return _layer_views(self.params, self.layer_chain)


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
    n, d, c = x.shape[0], model.state_dim, model.condition_dim
    cond = np.asarray(cond, dtype=np.float64)
    # one condition (size c, or 1) broadcasts to every row
    one_cond = cond.ndim <= 1 and cond.size in (1, c)
    if x.shape[1] != d or not (one_cond or cond.shape == (n, c)):
        raise ShapeMismatchError(
            f"inputs ({x.shape}, {cond.shape}) do not match model dims "
            f"(state {d}, condition {c})"
        )
    inputs = np.empty((n, d + c + 2))
    inputs[:, :d] = x
    inputs[:, d : d + c] = cond
    inputs[:, -2] = t
    np.subtract(1.0, inputs[:, -2], out=inputs[:, -1])
    return inputs


def _forward_cached(model: MlpModel, inputs: np.ndarray) -> list[np.ndarray]:
    """The inputs and every layer's output, the velocity last."""
    hs = [inputs]
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = hs[-1] @ w.T
        z += b
        if l != last:
            np.tanh(z, out=z)
        hs.append(z)
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


def batch_loss_and_grads(model: MlpModel, x, cond, t, target, out: np.ndarray | None = None):
    """Mean squared-error loss over the batch and its gradient.

    The gradient is written into ``out`` (a new vector if None), laid out
    like ``model.params``; the returned list holds its per-parameter views
    in the same (W, b) per-layer order as ``parameters()``."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    if x.size == 0:
        raise InvalidConfigError("empty batch")
    if target.shape != (x.shape[0], model.state_dim):
        raise ShapeMismatchError(f"target shape {target.shape} does not match batch")
    hs = _forward_cached(model, _assemble_inputs(model, x, np.asarray(cond, dtype=np.float64), t))
    out = np.empty_like(model.params) if out is None else out
    grads = _layer_views(out, model.layer_chain)
    return _backward(model, hs, target, grads), grads


def _backward(model: MlpModel, hs: list[np.ndarray], target: np.ndarray,
              grads: list[np.ndarray]) -> float:
    """The batch mean of ||velocity - target||^2 for the layer outputs ``hs``
    of ``_forward_cached``, with its gradient written into ``grads`` (the
    per-parameter views of a params-layout vector). Overwrites hs[1:]."""
    n = target.shape[0]
    g = hs[-1]
    g -= target
    loss = float(np.add.reduce(np.square(g), axis=None)) / n
    g *= 2.0
    g /= n
    for l in range(len(model.weights) - 1, -1, -1):
        np.matmul(g.T, hs[l], out=grads[2 * l])
        np.add.reduce(g, axis=0, out=grads[2 * l + 1])
        if l > 0:
            g = g @ model.weights[l]
            h = hs[l]  # not needed after this layer: becomes tanh' = 1 - h^2
            h *= h
            np.subtract(1.0, h, out=h)
            g *= h
    return loss


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

    grad = np.empty_like(model.params)
    batch_loss_and_grads(model, x, cond, t, tgt, out=grad)
    flat = model.params
    worst = 0.0
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + fd_step
        hi = batch_loss_and_grads(model, x, cond, t, tgt)[0]
        flat[k] = orig - fd_step
        lo = batch_loss_and_grads(model, x, cond, t, tgt)[0]
        flat[k] = orig
        fd = (hi - lo) / (2.0 * fd_step)
        err = abs(grad[k] - fd) / (abs(grad[k]) + abs(fd) + 1e-12)
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

    A step does only the step's work: the forward and backward pass on its
    batch, a slice of the epoch's inputs, the Adam update and the forward
    pass on the eval batch. The eval inputs and the gradient views are made
    once per call, the epoch's inputs once per epoch.
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
    eval_inputs = _assemble_inputs(model, interp(eval_x0, eval_x1, eval_t[:, None]), eval_cond,
                                   eval_t)
    eval_tgt = eval_x1 - eval_x0

    def eval_loss() -> float:
        err = _forward_cached(model, eval_inputs)[-1]
        err -= eval_tgt
        return float(np.add.reduce(np.square(err), axis=None)) / n_eval

    rng = CounterRng(config.seed)
    report = TrainReport()
    report.initial_loss = eval_loss()

    params, batch = model.params, config.batch_size
    grad, m, v = np.empty_like(params), np.zeros_like(params), np.zeros_like(params)
    upd, buf = np.empty_like(params), np.empty_like(params)
    grads = _layer_views(grad, model.layer_chain)
    step = 0
    for _ in range(config.epochs):
        perm = np.argsort(rng.uniform(n), kind="stable")
        x1, t = _epoch_draws(rng.uniform(n * (2 * d + 1)), n, d, batch)
        ex0 = x0[perm]
        inputs = _assemble_inputs(model, interp(ex0, x1, t[:, None]), cond[perm], t)
        target = x1 - ex0
        for lo in range(0, n, batch):
            loss = _backward(model, _forward_cached(model, inputs[lo : lo + batch]),
                             target[lo : lo + batch], grads)
            if not math.isfinite(loss):
                raise TrainingDivergedError(f"non-finite training loss at step {step}")
            step += 1
            # Adam in the per-array expressions' operation order, so every
            # bit is theirs: (1-b2)*g*g and lr*mhat/(sqrt(vhat)+eps)
            m *= _BETA1
            np.multiply(1.0 - _BETA1, grad, out=buf)
            m += buf
            v *= _BETA2
            np.multiply(1.0 - _BETA2, grad, out=buf)
            buf *= grad
            v += buf
            np.divide(m, 1.0 - _BETA1**step, out=upd)
            upd *= config.learning_rate
            np.divide(v, 1.0 - _BETA2**step, out=buf)
            np.sqrt(buf, out=buf)
            buf += _ADAM_EPS
            upd /= buf
            params -= upd
            report.losses.append(eval_loss())
    report.final_loss = report.losses[-1]
    if not np.isfinite(report.final_loss):
        raise TrainingDivergedError("non-finite final loss")
    return report


def _epoch_draws(u: np.ndarray, n: int, d: int, batch: int) -> tuple[np.ndarray, np.ndarray]:
    """The (n, d) normal endpoints and n times of one epoch from its
    n * (2d + 1) words: per batch of b rows, 2*b*d normal words, then b
    time words (see the module docstring)."""
    full = n - n % batch
    head = u[: full * (2 * d + 1)].reshape(-1, batch * (2 * d + 1))
    tail = u[full * (2 * d + 1) :]
    x1, t = np.empty((n, d)), np.empty(n)
    x1[:full] = box_muller(head[:, : 2 * batch * d]).reshape(-1, d)
    t[:full] = head[:, 2 * batch * d :].ravel()
    x1[full:] = box_muller(tail[: 2 * (n - full) * d]).reshape(-1, d)
    t[full:] = tail[2 * (n - full) * d :]
    return x1, t


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
    blob += model.params.astype("<f8", copy=False).tobytes()
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
    count = sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(chain[:-1], chain[1:]))
    params = np.frombuffer(need(off, 8 * count, "parameters"), dtype="<f8")
    off += 8 * count
    if off != len(blob):
        raise ModelFormatError(f"{len(blob) - off} trailing bytes", offset=off)
    views = _layer_views(params, chain)
    try:
        return MlpModel(weights=views[0::2], biases=views[1::2], condition_dim=condition_dim)
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
