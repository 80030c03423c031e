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
* ``omniedit_av``    -- the dual-modality variant, on one ``VelocityField``
  over the joint state concat(video, audio) split at ``video_dim``: with
  source audio it is ``omniedit_sync`` on that state; without, the audio is
  pre-denoised to t_max, then stepped by Euler beside the video.

``flowedit`` and ``omniedit_sync`` share one step loop, ``_edit``: the
draws, evaluations, guidance, checks, noise re-estimate and records are
common, and ``EditConfig.sequence_mode`` decides three lines only. The
edit sequence starts at the clean source, evaluates the target at
x + x_src_t - src and steps by Euler on v_tar - v_src; the target sequence
starts at the noised source, evaluates the target at its own state and
steps by ``step_target``. Each editor passes its own starting noise: none
for ``flowedit`` (drawn at the first step), the t=0 estimate or a draw for
``omniedit_sync``. ``omniedit_av``'s missing-audio path is one loop from
T down to 1: above n_max the video noise is redrawn and the target video
is the noised source; from n_max the video follows ``step_target``, and
both audio streams take Euler steps throughout.

Noise is drawn up front, before an editor's step loop, with
``CounterRng.normal_steps``: the ``random`` mode's n_max per-step rows in
one call, ``flowedit``'s one starting row under ``estimated`` noise, and
the missing-audio path's max(T - n_max, 1) pre-step video rows in one call
after its audio draw. The rows and the words consumed are those of one
draw per step, but a call that raises partway has consumed them all.

With ``record=True``, ``flowedit`` and ``omniedit_sync`` also return a
``Trajectory`` of the step times and the two state streams: two arrays
allocated before the loop, one row per step, filled with the states the
loop evaluates. Step k's noise is (x_src[k] - (1 - t_k) src) / t_k.

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

from dataclasses import dataclass

import numpy as np

from .core import (
    Condition,
    VelocityField,
    estimate_noise,
    euler,
    guided,
    interp,
    step_target,
)
from .errors import InvalidConfigError, NumericalError, ShapeMismatchError
from .rng import CounterRng, check_entries, integer

SEQUENCE_MODES = ("edit", "target")
NOISE_MODES = ("random", "estimated")


@dataclass(frozen=True)
class EditConfig:
    """Editing run parameters.

    ``n_max`` is the index into ``times`` the edit starts from
    (t_max = n_max/T). ``sequence_mode`` and ``noise_mode`` are the two
    ablation switches. ``T`` and ``n_max`` are integers, and the T + 1 grid
    holds at most ``rng.MAX_ENTRIES`` times.
    """

    T: int = 20
    n_max: int = 14
    sequence_mode: str = "target"
    noise_mode: str = "estimated"
    cfg_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        integer(self.T, "T")
        integer(self.n_max, "n_max")
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
        check_entries(self.T + 1, "the T + 1 time grid")

    @property
    def times(self) -> np.ndarray:
        """The uniform grid times[i] = i/T, i = 0..T, traversed in
        decreasing t by the samplers."""
        return np.arange(self.T + 1) / self.T

    def check_record(self, state_size: int) -> None:
        """Reject an edit record of ``state_size``-value states past
        ``MAX_ENTRIES``: its two state arrays hold 2 n_max state_size values."""
        check_entries(2 * self.n_max * state_size, "the edit record")


@dataclass(frozen=True)
class Trajectory:
    """An edit's record as three stacked arrays, row k for step n_max - k:
    ``t`` of shape (n_max,), and ``x_src`` and ``x_main`` of shape (n_max,
    *state.shape) -- the noised source and the evaluated target state at
    t."""

    t: np.ndarray
    x_src: np.ndarray
    x_main: np.ndarray


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


def _resolve_rng(cfg: EditConfig, rng: CounterRng | None) -> CounterRng:
    return rng if rng is not None else CounterRng(cfg.seed)


def _state(field: VelocityField, x) -> np.ndarray:
    """``x`` as a float64 array whose last axis is the field's state."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != (field.state_dim,):
        raise ShapeMismatchError(f"state shape {x.shape} does not end in {field.state_dim}")
    return x


def generate(field: VelocityField, x1: np.ndarray, c: Condition, T: int) -> np.ndarray:
    """Integrate dx = V(x, c, t) dt from t=1 down to t=0 with explicit Euler
    over T uniform steps (T >= 2, checked as ``EditConfig`` checks it) and
    return the t=0 state, fresh and C-contiguous. A 2-D state is stepped in
    Fortran order, on contiguous columns, with the bits of C order."""
    x = _state(field, x1)
    x = np.asfortranarray(x) if x.ndim == 2 else x
    times = EditConfig(T=T, n_max=T).times
    for i in range(T, 0, -1):
        t_i, t_prev = float(times[i]), float(times[i - 1])
        x = euler(x, _checked(i, t_i, field.velocity(x, c, t_i)), t_i, t_prev)
    return np.ascontiguousarray(x)


def _edit(field: VelocityField, src: np.ndarray, src_cond: Condition, target_velocity,
          cfg: EditConfig, rng: CounterRng, eps: np.ndarray | None, record: bool):
    """The editing loop of ``flowedit`` and ``omniedit_sync``, steps n_max..1
    from the noise ``eps`` (``None``: drawn for the first step). The
    sequence mode decides three lines: where the state starts, which target
    state is evaluated, and the update.

    Every draw is made before the loop, in one ``normal_steps`` call: the
    ``random`` mode's n_max rows, one per step, or the one starting row of
    ``eps=None``. So a call that raises at some step has still consumed
    every row's words."""
    target = cfg.sequence_mode == "target"
    times = cfg.times
    noise = None
    if cfg.noise_mode == "random":
        noise = rng.normal_steps(cfg.n_max, src.shape)
    elif eps is None:
        eps = rng.normal_steps(1, src.shape)[0]
    x = interp(src, eps, float(times[cfg.n_max])) if target else src
    if record:
        traj = Trajectory(times[cfg.n_max:0:-1], *(np.empty((cfg.n_max, *src.shape)) for _ in range(2)))
    for i in range(cfg.n_max, 0, -1):
        t_i, t_prev = float(times[i]), float(times[i - 1])
        if noise is not None:
            eps = noise[cfg.n_max - i]
        x_src_t = interp(src, eps, t_i)
        x_tar_t = x if target else x + x_src_t - src
        v_src = _checked(i, t_i, field.velocity(x_src_t, src_cond, t_i))
        v_tar = target_velocity(i, x_tar_t, t=t_i)
        if cfg.noise_mode == "estimated":
            eps = estimate_noise(x_src_t, v_src, t_i)
        if record:
            traj.x_src[cfg.n_max - i], traj.x_main[cfg.n_max - i] = x_src_t, x_tar_t
        if target:
            x = step_target(x, x_src_t, interp(src, eps, t_prev), v_tar, v_src, t_i, t_prev)
        else:
            x = euler(x, v_tar - v_src, t_i, t_prev)
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
    if c_src is None or c_tar is None:
        raise InvalidConfigError("source and target conditions are required")
    if cfg.sequence_mode != "edit":
        raise InvalidConfigError("flowedit requires sequence_mode='edit'")
    src = _state(field, x_src)
    if record:
        cfg.check_record(src.size)
    return _edit(field, src, c_src, _guided(cfg, field, c_tar), cfg, _resolve_rng(cfg, rng),
                 None, record)


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
    src = _state(field, x_src)
    if record:
        cfg.check_record(src.size)
    if c_src is None:
        eps = rng.normal_array(src.shape)
    else:
        eps = estimate_noise(src, _checked(cfg.n_max, 0.0, field.velocity(src, src_cond, 0.0)), 0.0)
    return _edit(field, src, src_cond, _guided(cfg, field, combined(c_tar)), cfg, rng, eps, record)


def omniedit_av(
    field: VelocityField,
    video_dim: int,
    x_src: np.ndarray,
    a_src: np.ndarray | None,
    c_src: Condition,
    c_tar: Condition,
    cfg: EditConfig,
    rng: CounterRng | None = None,
) -> DualState:
    """Target-sequence editing of a coupled (video, audio) state pair.

    ``field`` is one velocity field on the joint state concat(video, audio):
    its first ``video_dim`` coordinates are the video, the remaining
    ``field.state_dim - video_dim`` the audio. With source audio present,
    this is ``omniedit_sync`` on that joint state: both modality noises are
    estimated from one joint t=0 evaluation and both modalities follow the
    target-sequence rule. With source audio missing, both audio streams
    start from one shared Gaussian draw and are pre-denoised from t=1 down
    to t_max (fresh video noise each pre-step), then advanced by plain Euler
    while the video follows the target-sequence rule; every evaluation is
    one ``field.velocity`` call on the concatenated states. The audio draw
    and then every pre-step's video noise, max(T - n_max, 1) rows in one
    call, are drawn before the loop, so a call that raises partway has
    consumed all of their words.
    """
    if c_src is None or c_tar is None:
        raise InvalidConfigError("source and target prompts are required")
    if cfg.sequence_mode != "target":
        raise InvalidConfigError("omniedit_av requires sequence_mode='target'")
    if cfg.noise_mode != "estimated":
        raise InvalidConfigError("the dual-modality editor implements estimated noise only")
    v = video_dim
    if not 1 <= v < field.state_dim:
        raise ShapeMismatchError(
            f"video_dim {v} outside 1..{field.state_dim - 1} (field state_dim {field.state_dim})")
    src = np.asarray(x_src, dtype=np.float64)
    if src.shape[-1:] != (v,):
        raise ShapeMismatchError(f"video shape {src.shape} does not end in video_dim {v}")
    audio_shape = (*src.shape[:-1], field.state_dim - v)
    aud = None if a_src is None else np.asarray(a_src, dtype=np.float64)
    if aud is not None and aud.shape != audio_shape:
        raise ShapeMismatchError(
            f"audio shape {aud.shape} is not {audio_shape}: field state_dim "
            f"{field.state_dim} less video_dim {v}")

    if aud is not None:
        out = omniedit_sync(field, np.concatenate([src, aud], axis=-1), c_src, c_tar, cfg, rng=rng)
        return DualState(video=out[..., :v], audio=out[..., v:])

    rng, times = _resolve_rng(cfg, rng), cfg.times
    target_velocity = _guided(cfg, field, c_tar)
    # the pre-steps feed both audio streams the same noised source video
    a_src_t = a_tar_t = rng.normal_array(audio_shape)
    # video noise for steps T..n_max+1, and for step T when n_max = T
    pre = rng.normal_steps(max(cfg.T - cfg.n_max, 1), src.shape)
    for i in range(cfg.T, 0, -1):
        t_i, t_prev = float(times[i]), float(times[i - 1])
        if cfg.T - i < len(pre):
            eps = pre[cfg.T - i]
        x_src_t = interp(src, eps, t_i)
        if i >= cfg.n_max:  # the target video starts at the noised source at t_max
            x_tar = x_src_t
        v_src = _checked(i, t_i, field.velocity(
            np.concatenate([x_src_t, a_src_t], axis=-1), c_src, t_i))
        v_tar = target_velocity(i, np.concatenate([x_tar, a_tar_t], axis=-1), t=t_i)
        if i <= cfg.n_max:
            eps = estimate_noise(x_src_t, v_src[..., :v], t_i)
            x_tar = step_target(x_tar, x_src_t, interp(src, eps, t_prev),
                                v_tar[..., :v], v_src[..., :v], t_i, t_prev)
        a_src_t = euler(a_src_t, v_src[..., v:], t_i, t_prev)
        a_tar_t = euler(a_tar_t, v_tar[..., v:], t_i, t_prev)
    return DualState(video=x_tar, audio=a_tar_t)
