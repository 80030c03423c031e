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
* ``omniedit_av``    -- the dual-modality variant: video follows the
  target-sequence rule while paired audio streams are denoised alongside,
  with a pre-denoising phase when no source audio exists.

States go in and come out as plain float64 arrays of shape
(..., state_dim), leading axes acting as batch axes; ``omniedit_av``
returns its (video, audio) pair as a ``DualState`` of two arrays. No
editor writes into its inputs, and every returned array is fresh.

All four are written in the array kernels of ``core``: ``interp`` for
every noised state, ``estimate_noise`` for the noise re-estimate,
``euler`` for plain steps, ``step_target`` for target-sequence steps and
``guided`` for classifier-free guidance.

All samplers are single-threaded, own their RNG, and are bit-reproducible
from ``EditConfig.seed``. Distinct invocations may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .core import (
    Condition,
    DualVelocityField,
    TimeSchedule,
    VelocityField,
    estimate_noise,
    euler,
    guided,
    interp,
    make_schedule,
    step_target,
)
from .errors import InvalidConfigError, NumericalError, ShapeMismatchError
from .rng import CounterRng

SEQUENCE_MODES = ("edit", "target")
NOISE_MODES = ("random", "estimated")


@dataclass(frozen=True)
class EditConfig:
    """Editing run parameters.

    ``n_max`` is the schedule index the edit starts from (t_max = n_max/T).
    ``sequence_mode`` and ``noise_mode`` are the two ablation switches.
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

    @classmethod
    def from_skip(cls, T: int, skip: int, **kw) -> "EditConfig":
        """Build a config from a step budget and an initial-step count:
        ``skip`` steps are skipped from pure noise, so the edit starts at
        index T - skip (t_max below 1)."""
        return cls(T=int(T), n_max=int(T) - int(skip), **kw)

    def schedule(self) -> TimeSchedule:
        return make_schedule(self.T, n_max=self.n_max)


def default_sync_config(**kw) -> EditConfig:
    """Single-modality editing defaults: 20 steps, 6 skipped from noise."""
    return EditConfig.from_skip(20, 6, **kw)


def default_av_config(**kw) -> EditConfig:
    """Dual-modality editing defaults: 40 steps, 12 skipped from noise."""
    return EditConfig.from_skip(40, 12, **kw)


@dataclass(frozen=True)
class StepRecord:
    """One velocity evaluation: states at t, the noise in use, velocities."""

    t: float
    x_src: np.ndarray | None
    x_main: np.ndarray | None
    eps: np.ndarray | None
    v_src: np.ndarray | None
    v_tar: np.ndarray | None


@dataclass
class Trajectory:
    steps: list[StepRecord] = dc_field(default_factory=list)

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.steps])

    def source_stream(self) -> np.ndarray:
        if any(s.x_src is None for s in self.steps):
            raise InvalidConfigError("trajectory has no source stream")
        return np.stack([s.x_src for s in self.steps])

    def main_stream(self) -> np.ndarray:
        return np.stack([s.x_main for s in self.steps])


@dataclass(frozen=True)
class DualState:
    """The (video, audio) arrays ``omniedit_av`` returns."""

    video: np.ndarray
    audio: np.ndarray


@dataclass(frozen=True)
class AvStepRecord:
    t: float
    phase: str  # "pre" or "main"
    x_src: np.ndarray
    x_tar: np.ndarray
    a_src: np.ndarray
    a_tar: np.ndarray
    vv_src: np.ndarray
    vv_tar: np.ndarray
    av_src: np.ndarray
    av_tar: np.ndarray


@dataclass
class DualTrajectory:
    steps: list[AvStepRecord] = dc_field(default_factory=list)

    def audio_streams(self, phase: str | None = None) -> tuple[np.ndarray, np.ndarray]:
        steps = [s for s in self.steps if phase is None or s.phase == phase]
        return np.stack([s.a_src for s in steps]), np.stack([s.a_tar for s in steps])


def _checked(step: int, evaluate, *args):
    """``evaluate(*args)`` -- a field's ``velocity`` or ``velocities``, whose
    last argument is t -- with non-finite output rejected, naming the step."""
    out = evaluate(*args)
    if isinstance(out, tuple):
        finite = np.isfinite(out[0]).all() and np.isfinite(out[1]).all()
    else:
        finite = np.isfinite(out).all()
    if not finite:
        raise NumericalError(f"non-finite velocity at step {step} (t={args[-1]:.6g})")
    return out


def _guided(cfg: EditConfig, evaluate, c: Condition):
    """The target velocity (or dual velocity pair) under ``c`` with the
    guidance hook, as a function of (step, *states, t). Scale 1.0 is a single
    conditional evaluation, matching the ungained path; otherwise the null
    condition is built once, here, for every step of the editor call."""
    if cfg.cfg_scale == 1.0:
        return lambda step, *states, t: _checked(step, evaluate, *states, c, t)
    null, s = Condition.null(c.dim), cfg.cfg_scale

    def target(step, *states, t):
        v_cond = _checked(step, evaluate, *states, c, t)
        v_uncond = _checked(step, evaluate, *states, null, t)
        if isinstance(v_cond, tuple):
            return guided(v_cond[0], v_uncond[0], s), guided(v_cond[1], v_uncond[1], s)
        return guided(v_cond, v_uncond, s)

    return target


def _resolve_rng(cfg: EditConfig, rng: CounterRng | None) -> CounterRng:
    return rng if rng is not None else CounterRng(cfg.seed)


def generate(
    field: VelocityField,
    x1: np.ndarray,
    c: Condition,
    schedule: TimeSchedule,
    record: bool = False,
):
    """Integrate dx = V(x, c, t) dt from t=1 down to t=0 with explicit Euler.

    Returns the t=0 state, or (state, Trajectory) when ``record`` is set.
    """
    x = np.asarray(x1, dtype=np.float64)
    if x.shape[-1:] != (field.state_dim,):
        raise ShapeMismatchError(f"state shape {x.shape} does not end in {field.state_dim}")
    times = schedule.times
    traj = Trajectory()
    for i in range(schedule.T, 0, -1):
        t_i, t_prev = float(times[i]), float(times[i - 1])
        v = _checked(i, field.velocity, x, c, t_i)
        if record:
            traj.steps.append(
                StepRecord(t=t_i, x_src=None, x_main=x.copy(), eps=None, v_src=None, v_tar=v.copy())
            )
        x = euler(x, v, t_i, t_prev)
    return (x, traj) if record else x


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
    times = cfg.schedule().times
    src = np.asarray(x_src, dtype=np.float64)
    target_velocity = _guided(cfg, field.velocity, c_tar)
    x_edit = src
    eps = None
    traj = Trajectory()
    for i in range(cfg.n_max, 0, -1):
        t_i, t_prev = float(times[i]), float(times[i - 1])
        if eps is None or cfg.noise_mode == "random":
            eps = rng.normal_array(src.shape)
        x_src_t = interp(src, eps, t_i)
        x_tar_t = x_edit + x_src_t - src
        v_src = _checked(i, field.velocity, x_src_t, c_src, t_i)
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
    target_velocity = _guided(cfg, field.velocity, tar_cond)
    times = cfg.schedule().times
    src = np.asarray(x_src, dtype=np.float64)

    if c_src is None:
        eps = rng.normal_array(src.shape)
    else:
        eps = estimate_noise(src, _checked(cfg.n_max, field.velocity, src, src_cond, 0.0), 0.0)
    x_tar = interp(src, eps, float(times[cfg.n_max]))

    traj = Trajectory()
    for i in range(cfg.n_max, 0, -1):
        t_i, t_prev = float(times[i]), float(times[i - 1])
        if cfg.noise_mode == "random":
            eps = rng.normal_array(src.shape)
        x_src_t = interp(src, eps, t_i)
        v_src = _checked(i, field.velocity, x_src_t, src_cond, t_i)
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
    record: bool = False,
):
    """Target-sequence editing of a coupled (video, audio) state pair.

    With source audio present, both modality noises are estimated from one
    joint t=0 evaluation and the audio pair follows the target-sequence rule
    next to the video. With source audio missing, both audio streams start
    from one shared Gaussian draw and are pre-denoised from t=1 down to
    t_max (fresh video noise each pre-step), then advanced by plain Euler
    while the video follows the target-sequence rule.
    """
    if c_src is None or c_tar is None:
        raise InvalidConfigError("source and target prompts are required")
    if cfg.sequence_mode != "target":
        raise InvalidConfigError("omniedit_av requires sequence_mode='target'")
    if cfg.noise_mode != "estimated":
        raise InvalidConfigError("the dual-modality editor implements estimated noise only")
    src = np.asarray(x_src, dtype=np.float64)
    aud = None if a_src is None else np.asarray(a_src, dtype=np.float64)
    if src.shape[-1:] != (field2.video_dim,):
        raise ShapeMismatchError(f"video shape {src.shape} does not end in {field2.video_dim}")
    if aud is not None and aud.shape[-1:] != (field2.audio_dim,):
        raise ShapeMismatchError(f"audio shape {aud.shape} does not end in {field2.audio_dim}")
    rng = _resolve_rng(cfg, rng)
    times = cfg.schedule().times
    t_max = float(times[cfg.n_max])
    target_velocities = _guided(cfg, field2.velocities, c_tar)
    traj = DualTrajectory()

    def evaluate(phase: str, i: int, x_src_t, x_tar_t, a_src_t, a_tar_t):
        """Source and guided target velocities of one step, recorded."""
        t_i = float(times[i])
        vv_src, av_src = _checked(i, field2.velocities, x_src_t, a_src_t, c_src, t_i)
        vv_tar, av_tar = target_velocities(i, x_tar_t, a_tar_t, t=t_i)
        if record:
            traj.steps.append(AvStepRecord(
                t=t_i, phase=phase, x_src=x_src_t.copy(), x_tar=x_tar_t.copy(),
                a_src=a_src_t.copy(), a_tar=a_tar_t.copy(),
                vv_src=vv_src.copy(), vv_tar=vv_tar.copy(),
                av_src=av_src.copy(), av_tar=av_tar.copy(),
            ))
        return vv_src, av_src, vv_tar, av_tar

    if aud is None:
        # Both audio streams start from the same realization and are
        # denoised down to t_max before the editing loop begins; the video
        # is the same noised source in both streams.
        a_src_t = a_tar_t = rng.normal_array((*src.shape[:-1], field2.audio_dim))
        eps_video = None
        for i in range(cfg.T, cfg.n_max, -1):
            t_i, t_prev = float(times[i]), float(times[i - 1])
            eps_video = rng.normal_array(src.shape)
            x_t = interp(src, eps_video, t_i)
            _, av_src, _, av_tar = evaluate("pre", i, x_t, x_t, a_src_t, a_tar_t)
            a_src_t = euler(a_src_t, av_src, t_i, t_prev)
            a_tar_t = euler(a_tar_t, av_tar, t_i, t_prev)
        if eps_video is None:  # n_max == T: no pre-steps ran
            eps_video = rng.normal_array(src.shape)
    else:
        vv0, av0 = _checked(cfg.n_max, field2.velocities, src, aud, c_src, 0.0)
        eps_video = estimate_noise(src, vv0, 0.0)
        a_src_t = a_tar_t = interp(aud, estimate_noise(aud, av0, 0.0), t_max)
    x_tar = interp(src, eps_video, t_max)

    for i in range(cfg.n_max, 0, -1):
        t_i, t_prev = float(times[i]), float(times[i - 1])
        x_src_t = interp(src, eps_video, t_i)
        vv_src, av_src, vv_tar, av_tar = evaluate("main", i, x_src_t, x_tar, a_src_t, a_tar_t)
        eps_video = estimate_noise(x_src_t, vv_src, t_i)
        x_src_prev = interp(src, eps_video, t_prev)
        x_tar = step_target(x_tar, x_src_t, x_src_prev, vv_tar, vv_src, t_i, t_prev)
        if aud is None:
            a_src_t = euler(a_src_t, av_src, t_i, t_prev)
            a_tar_t = euler(a_tar_t, av_tar, t_i, t_prev)
        else:
            a_src_prev = interp(aud, estimate_noise(a_src_t, av_src, t_i), t_prev)
            a_tar_t = step_target(a_tar_t, a_src_t, a_src_prev, av_tar, av_src, t_i, t_prev)
            a_src_t = a_src_prev

    out = DualState(video=x_tar, audio=a_tar_t)
    return (out, traj) if record else out
