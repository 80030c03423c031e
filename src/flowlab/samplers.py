"""Training-free generation and editing over velocity fields.

Four entry points:

* ``generate``       -- plain Euler integration of the flow from noise.
* ``flowedit``       -- edit-sequence baseline: the iterate starts at the
  clean source and accumulates target/source velocity differences.
* ``omniedit_sync``  -- target-sequence editor: the iterate starts at the
  noised source and is advanced together with the reconstructed source
  sequence; noise is re-estimated from the source velocity each step
  instead of redrawn (the ``random`` noise mode keeps redrawing, as the
  ablation arm).
* ``omniedit_av``    -- the dual-modality variant: with source audio it is
  ``omniedit_sync`` on the joint state concat(video, audio); without, the
  audio is pre-denoised to t_max, then stepped by Euler beside the video.

States go in and come out as plain float64 arrays of shape
(..., state_dim), leading axes acting as batch axes; ``omniedit_av``
returns its (video, audio) pair as a ``DualState`` of two arrays. No
editor writes into its inputs, and every returned array is fresh.

All four are written in the array kernels of ``core``: ``interp`` for
every noised state, ``estimate_noise`` for the noise re-estimate,
``euler`` for plain steps, ``step_target`` for target-sequence steps and
``guided`` for classifier-free guidance.

Every sampler steps along the uniform grid ``EditConfig.times``;
``generate``, which has no edit start, takes only the step count T.

All samplers are single-threaded, own their RNG, and are bit-reproducible
from ``EditConfig.seed``. Distinct invocations may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .core import (
    Condition,
    DualVelocityField,
    VelocityField,
    estimate_noise,
    euler,
    guided,
    interp,
    step_target,
)
from .errors import InvalidConfigError, NumericalError, ShapeMismatchError
from .rng import CounterRng

SEQUENCE_MODES = ("edit", "target")
NOISE_MODES = ("random", "estimated")


@dataclass(frozen=True)
class EditConfig:
    """Editing run parameters.

    ``n_max`` is the index into ``times`` the edit starts from
    (t_max = n_max/T). ``sequence_mode`` and ``noise_mode`` are the two
    ablation switches.
    """

    T: int = 20
    n_max: int = 14
    sequence_mode: str = "target"
    noise_mode: str = "estimated"
    cfg_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.T < 2:
            raise InvalidConfigError(f"T must be >= 2, got {self.T}")
        if not 1 <= self.n_max <= self.T:
            raise InvalidConfigError(f"n_max={self.n_max} outside 1..{self.T}")
        if self.sequence_mode not in SEQUENCE_MODES:
            raise InvalidConfigError(f"unknown sequence_mode {self.sequence_mode!r}")
        if self.noise_mode not in NOISE_MODES:
            raise InvalidConfigError(f"unknown noise_mode {self.noise_mode!r}")
        if not 0.0 <= self.cfg_scale < np.inf:
            raise InvalidConfigError(f"cfg_scale must be finite and >= 0, got {self.cfg_scale}")

    @property
    def times(self) -> np.ndarray:
        """The uniform grid times[i] = i/T, i = 0..T, traversed in
        decreasing t by the samplers."""
        return np.arange(self.T + 1) / self.T


@dataclass(frozen=True)
class StepRecord:
    """One velocity evaluation: states at t, the noise in use, velocities."""

    t: float
    x_src: np.ndarray
    x_main: np.ndarray
    eps: np.ndarray
    v_src: np.ndarray
    v_tar: np.ndarray


@dataclass
class Trajectory:
    steps: list[StepRecord] = dc_field(default_factory=list)

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.steps])

    def source_stream(self) -> np.ndarray:
        return np.stack([s.x_src for s in self.steps])

    def main_stream(self) -> np.ndarray:
        return np.stack([s.x_main for s in self.steps])


@dataclass(frozen=True)
class DualState:
    """The (video, audio) arrays ``omniedit_av`` returns."""

    video: np.ndarray
    audio: np.ndarray


def _checked(step: int, t: float, out: np.ndarray) -> np.ndarray:
    """``out`` -- a velocity evaluated or guided at time t -- with non-finite
    entries rejected, naming the step."""
    if not np.isfinite(out).all():
        raise NumericalError(f"non-finite velocity at step {step} (t={t:.6g})")
    return out


def _guided(cfg: EditConfig, field: VelocityField, c: Condition):
    """The checked target velocity under ``c`` as a function of (step, x, t).
    Scale 1.0 is a single conditional evaluation; otherwise the null
    condition is built once, here, for every step of the editor call. The
    check falls on the guided combination, which can overflow where neither
    evaluation does and is non-finite wherever either evaluation is."""
    if cfg.cfg_scale == 1.0:
        return lambda step, x, t: _checked(step, t, field.velocity(x, c, t))
    null, s = Condition.null(c.dim), cfg.cfg_scale
    return lambda step, x, t: _checked(
        step, t, guided(field.velocity(x, c, t), field.velocity(x, null, t), s))


class _JointField:
    """A dual field seen as one velocity field on concat(video, audio); each
    evaluation is one ``field2.velocities`` call."""

    def __init__(self, field2: DualVelocityField):
        self.field2 = field2
        self.state_dim = field2.video_dim + field2.audio_dim
        self.condition_dim = field2.condition_dim

    def velocity(self, x: np.ndarray, condition: Condition, t: float) -> np.ndarray:
        v = self.field2.video_dim
        return np.concatenate(self.field2.velocities(x[..., :v], x[..., v:], condition, t), axis=-1)


def _resolve_rng(cfg: EditConfig, rng: CounterRng | None) -> CounterRng:
    return rng if rng is not None else CounterRng(cfg.seed)


def generate(field: VelocityField, x1: np.ndarray, c: Condition, T: int) -> np.ndarray:
    """Integrate dx = V(x, c, t) dt from t=1 down to t=0 with explicit Euler
    over T uniform steps (T >= 2, checked as ``EditConfig`` checks it) and
    return the t=0 state."""
    x = np.asarray(x1, dtype=np.float64)
    if x.shape[-1:] != (field.state_dim,):
        raise ShapeMismatchError(f"state shape {x.shape} does not end in {field.state_dim}")
    times = EditConfig(T=T, n_max=T).times
    for i in range(T, 0, -1):
        t_i, t_prev = float(times[i]), float(times[i - 1])
        x = euler(x, _checked(i, t_i, field.velocity(x, c, t_i)), t_i, t_prev)
    return x


def flowedit(
    field: VelocityField,
    x_src: np.ndarray,
    c_src: Condition,
    c_tar: Condition,
    cfg: EditConfig,
    rng: CounterRng | None = None,
    record: bool = False,
):
    """Edit-sequence baseline.

    The iterate starts at the clean source and accumulates
    (t_prev - t_i)(V_tar - V_src), with the noisy source rebuilt each step
    from a fresh Gaussian (``random``) or from the running noise estimate
    (``estimated``). The implied target state is edit + noisy_src - src.
    """
    if cfg.sequence_mode != "edit":
        raise InvalidConfigError("flowedit requires sequence_mode='edit'")
    rng = _resolve_rng(cfg, rng)
    times = cfg.times
    src = np.asarray(x_src, dtype=np.float64)
    target_velocity = _guided(cfg, field, c_tar)
    x_edit = src
    eps = None
    traj = Trajectory()
    for i in range(cfg.n_max, 0, -1):
        t_i, t_prev = float(times[i]), float(times[i - 1])
        if eps is None or cfg.noise_mode == "random":
            eps = rng.normal_array(src.shape)
        x_src_t = interp(src, eps, t_i)
        x_tar_t = x_edit + x_src_t - src
        v_src = _checked(i, t_i, field.velocity(x_src_t, c_src, t_i))
        v_tar = target_velocity(i, x_tar_t, t=t_i)
        if cfg.noise_mode == "estimated":
            eps = estimate_noise(x_src_t, v_src, t_i)
        if record:
            traj.steps.append(
                StepRecord(t=t_i, x_src=x_src_t.copy(), x_main=x_tar_t.copy(),
                           eps=eps.copy(), v_src=v_src.copy(), v_tar=v_tar.copy())
            )
        x_edit = euler(x_edit, v_tar - v_src, t_i, t_prev)
    return (x_edit, traj) if record else x_edit


def omniedit_sync(
    field: VelocityField,
    x_src: np.ndarray,
    c_src: Condition | None,
    c_tar: Condition,
    cfg: EditConfig,
    c_prompt: Condition | None = None,
    rng: CounterRng | None = None,
    record: bool = False,
):
    """Target-sequence editor for single-modality conditional editing.

    The target iterate is initialized at the noised source. When the source
    condition is missing, the initial noise is Gaussian and the source
    velocity is evaluated under the null condition; otherwise the noise is
    estimated from the model at t=0 and no random draws are consumed. With
    ``noise_mode='estimated'`` the noise is re-derived from the source
    velocity each step; ``'random'`` redraws it (ablation arm).
    """
    if c_tar is None:
        raise InvalidConfigError("target condition is required")
    if cfg.sequence_mode != "target":
        raise InvalidConfigError("omniedit_sync requires sequence_mode='target'")
    rng = _resolve_rng(cfg, rng)

    def combined(cond: Condition) -> Condition:
        return cond if c_prompt is None else cond.concat(c_prompt)

    src_cond = combined(c_src if c_src is not None else Condition.null(c_tar.dim))
    tar_cond = combined(c_tar)
    target_velocity = _guided(cfg, field, tar_cond)
    times = cfg.times
    src = np.asarray(x_src, dtype=np.float64)

    if c_src is None:
        eps = rng.normal_array(src.shape)
    else:
        eps = estimate_noise(src, _checked(cfg.n_max, 0.0, field.velocity(src, src_cond, 0.0)), 0.0)
    x_tar = interp(src, eps, float(times[cfg.n_max]))

    traj = Trajectory()
    for i in range(cfg.n_max, 0, -1):
        t_i, t_prev = float(times[i]), float(times[i - 1])
        if cfg.noise_mode == "random":
            eps = rng.normal_array(src.shape)
        x_src_t = interp(src, eps, t_i)
        v_src = _checked(i, t_i, field.velocity(x_src_t, src_cond, t_i))
        v_tar = target_velocity(i, x_tar, t=t_i)
        if cfg.noise_mode == "estimated":
            eps = estimate_noise(x_src_t, v_src, t_i)
        x_src_prev = interp(src, eps, t_prev)
        if record:
            traj.steps.append(
                StepRecord(t=t_i, x_src=x_src_t.copy(), x_main=x_tar.copy(),
                           eps=eps.copy(), v_src=v_src.copy(), v_tar=v_tar.copy())
            )
        x_tar = step_target(x_tar, x_src_t, x_src_prev, v_tar, v_src, t_i, t_prev)
    return (x_tar, traj) if record else x_tar


def omniedit_av(
    field2: DualVelocityField,
    x_src: np.ndarray,
    a_src: np.ndarray | None,
    c_src: Condition,
    c_tar: Condition,
    cfg: EditConfig,
    rng: CounterRng | None = None,
) -> DualState:
    """Target-sequence editing of a coupled (video, audio) state pair.

    With source audio present, this is ``omniedit_sync`` on the joint state
    concat(video, audio): both modality noises are estimated from one joint
    t=0 evaluation and both modalities follow the target-sequence rule. With
    source audio missing, both audio streams start from one shared Gaussian
    draw and are pre-denoised from t=1 down to t_max (fresh video noise each
    pre-step), then advanced by plain Euler while the video follows the
    target-sequence rule.
    """
    if c_src is None or c_tar is None:
        raise InvalidConfigError("source and target prompts are required")
    if cfg.sequence_mode != "target":
        raise InvalidConfigError("omniedit_av requires sequence_mode='target'")
    if cfg.noise_mode != "estimated":
        raise InvalidConfigError("the dual-modality editor implements estimated noise only")
    src = np.asarray(x_src, dtype=np.float64)
    aud = None if a_src is None else np.asarray(a_src, dtype=np.float64)
    v = field2.video_dim
    if src.shape[-1:] != (v,):
        raise ShapeMismatchError(f"video shape {src.shape} does not end in {v}")
    if aud is not None and aud.shape != (*src.shape[:-1], field2.audio_dim):
        raise ShapeMismatchError(f"audio shape {aud.shape} does not match video shape {src.shape}")
    joint = _JointField(field2)

    def pair(video, audio):
        return np.concatenate([video, audio], axis=-1)

    if aud is not None:
        out = omniedit_sync(joint, pair(src, aud), c_src, c_tar, cfg, rng=rng)
        return DualState(video=out[..., :v], audio=out[..., v:])

    rng, times = _resolve_rng(cfg, rng), cfg.times
    target_velocity = _guided(cfg, joint, c_tar)
    # the pre-steps feed both audio streams the same noised source video
    a_src_t = a_tar_t = rng.normal_array((*src.shape[:-1], field2.audio_dim))
    eps_video = None
    for i in range(cfg.T, cfg.n_max, -1):
        t_i, t_prev = float(times[i]), float(times[i - 1])
        eps_video = rng.normal_array(src.shape)
        x_t = interp(src, eps_video, t_i)
        v_src = _checked(i, t_i, joint.velocity(pair(x_t, a_src_t), c_src, t_i))
        v_tar = target_velocity(i, pair(x_t, a_tar_t), t=t_i)
        a_src_t = euler(a_src_t, v_src[..., v:], t_i, t_prev)
        a_tar_t = euler(a_tar_t, v_tar[..., v:], t_i, t_prev)
    if eps_video is None:  # n_max == T: no pre-steps ran
        eps_video = rng.normal_array(src.shape)
    x_tar = interp(src, eps_video, float(times[cfg.n_max]))

    for i in range(cfg.n_max, 0, -1):
        t_i, t_prev = float(times[i]), float(times[i - 1])
        x_src_t = interp(src, eps_video, t_i)
        v_src = _checked(i, t_i, joint.velocity(pair(x_src_t, a_src_t), c_src, t_i))
        v_tar = target_velocity(i, pair(x_tar, a_tar_t), t=t_i)
        eps_video = estimate_noise(x_src_t, v_src[..., :v], t_i)
        x_src_prev = interp(src, eps_video, t_prev)
        x_tar = step_target(x_tar, x_src_t, x_src_prev, v_tar[..., :v], v_src[..., :v], t_i, t_prev)
        a_src_t = euler(a_src_t, v_src[..., v:], t_i, t_prev)
        a_tar_t = euler(a_tar_t, v_tar[..., v:], t_i, t_prev)

    return DualState(video=x_tar, audio=a_tar_t)
