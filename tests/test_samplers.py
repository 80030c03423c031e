import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowlab.cli import _defaults, _edit_config
from flowlab.core import Condition, TensorState, estimate_noise, euler, interp, step_target
from flowlab.errors import InvalidConfigError, NumericalError, ShapeMismatchError
from flowlab.gaussian import GaussianConditionalField, GaussianSpec, sample_array
from flowlab.harness import default_av_params, pair_field
from flowlab.metrics import truncation_bias
from flowlab.mlp import MlpVelocityField, mlp_init
from flowlab import rng as rng_module
from flowlab.rng import MAX_ENTRIES, CounterRng, derive_seed
from flowlab.samplers import (
    DualState,
    EditConfig,
    Trajectory,
    flowedit,
    generate,
    omniedit_av,
    omniedit_sync,
)


# The video width of ``av_field`` and ``coupled_av_field``; one audio coordinate follows it.
VIDEO = 2


def av_field(tar_var=1.0):
    """A diagonal field on concat(video, audio): class 0 is video N(0, 1) with
    audio N(-1, 0.5), class 1 video N(2, tar_var) with audio N(1, 0.5), and
    the null condition takes class 0's law. Returns it and the two class
    conditions."""
    c0, c1 = Condition.one_hot(0, 2), Condition.one_hot(1, 2)
    src = GaussianSpec(mean=[0.0, 0.0, -1.0], cov=[1.0, 1.0, 0.5])
    tar = GaussianSpec(mean=[2.0, 2.0, 1.0], cov=[tar_var, tar_var, 0.5])
    field = GaussianConditionalField(condition_dim=2, state_dim=3)
    field.register(c0, src).register(c1, tar).register(Condition.null(2), src)
    return field, c0, c1


def coupled_av_field():
    """The exact per-class law of ``default_av_params()`` on concat(video,
    audio), audio correlated with video: mean (m_k, C m_k + o_k), covariance
    [[s^2 I, s^2 C^T], [s^2 C, s^2 C C^T + sigma^2 I]]. The null condition
    takes class 0's law. Returns it and the two class conditions."""
    p = default_av_params()
    s2, c = p.video_scale**2, p.coupling
    cov = np.block([[s2 * np.eye(p.video_dim), s2 * c.T],
                    [s2 * c, s2 * c @ c.T + p.noise_scale**2 * np.eye(p.audio_dim)]])
    specs = [GaussianSpec(mean=np.concatenate([m, c @ m + o]), cov=cov)
             for m, o in zip(p.video_means, p.audio_offsets)]
    c0, c1 = Condition.one_hot(0, 2), Condition.one_hot(1, 2)
    field = GaussianConditionalField(condition_dim=2, state_dim=p.video_dim + p.audio_dim)
    field.register(c0, specs[0]).register(c1, specs[1]).register(Condition.null(2), specs[0])
    return field, c0, c1


class TestEditConfig:
    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            EditConfig(T=20, n_max=0)
        with pytest.raises(InvalidConfigError):
            EditConfig(T=20, n_max=21)
        with pytest.raises(InvalidConfigError):
            EditConfig(sequence_mode="both")
        with pytest.raises(InvalidConfigError):
            EditConfig(noise_mode="none")
        with pytest.raises(InvalidConfigError):
            EditConfig(cfg_scale=-1.0)

    def test_n_max_bounds(self):
        # n_max may run from 1 to T (an edit from pure noise); t_max = times[n_max]
        assert EditConfig(T=10, n_max=10).n_max == 10
        assert EditConfig(T=10, n_max=1).n_max == 1
        assert EditConfig(T=10, n_max=3).times[3] == 0.3
        with pytest.raises(InvalidConfigError):
            EditConfig(T=10, n_max=0)
        with pytest.raises(InvalidConfigError):
            EditConfig(T=10, n_max=11)

    @pytest.mark.parametrize("kwargs", [dict(T=4, n_max=1.5), dict(T=2.5, n_max=2),
                                        dict(T=np.float64(4.0), n_max=2), dict(T="4", n_max=2)])
    def test_non_integral_counts_raise(self, kwargs):
        # n_max = 1.5 would otherwise end in a numpy IndexError inside the sampler
        with pytest.raises(InvalidConfigError, match="must be an integer"):
            EditConfig(**kwargs)

    def test_numpy_integer_counts_are_counts(self):
        assert EditConfig(T=np.int64(4), n_max=np.int32(2)).times.tolist() == [
            0.0, 0.25, 0.5, 0.75, 1.0]

    def test_generate_rejects_a_non_integral_step_count(self):
        field, c_src, _ = _diagonal_pair()
        with pytest.raises(InvalidConfigError, match="T must be an integer"):
            generate(field, np.zeros(2), c_src, T=2.5)

    def test_time_grid_past_the_limit_raises_before_it_is_made(self):
        # constructing a config allocates nothing, so the limit itself is checked
        assert EditConfig(T=MAX_ENTRIES - 1, n_max=1).T == MAX_ENTRIES - 1
        for T in (MAX_ENTRIES, 2 * 10**18):
            with pytest.raises(InvalidConfigError, match="T \\+ 1 time grid"):
                EditConfig(T=T, n_max=1)

    def test_times_are_the_uniform_grid(self):
        assert EditConfig(T=4, n_max=2).times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert EditConfig(T=2, n_max=1).times.tolist() == [0.0, 0.5, 1.0]
        assert EditConfig(T=10, n_max=3).times[3] == 0.3
        for T in (3, 7, 20, 40, 997):
            times = EditConfig(T=T, n_max=1).times
            assert np.array_equal(times, np.arange(T + 1) / T)  # bit for bit
            assert times[0] == 0.0 and times[-1] == 1.0 and np.all(np.diff(times) > 0.0)

    def test_paper_defaults(self):
        # the CLI's step budgets: 20 steps with 6 skipped from noise for
        # single-modality edits, 40 with 12 skipped for audio-visual ones
        sync = _edit_config(_defaults("edit"), "target", "estimated")
        assert (sync.T, sync.n_max) == (20, 14)
        assert sync.times[sync.n_max] == pytest.approx(0.7)
        av = _edit_config(_defaults("avedit"), "target", "estimated")
        assert (av.T, av.n_max) == (40, 28)


class _ConstField:
    def __init__(self, state_dim=1, value=1.0):
        self.state_dim = state_dim
        self.condition_dim = 0
        self.value = value

    def velocity(self, x, condition, t):
        return np.full_like(np.asarray(x, dtype=float), self.value)


class TestGenerate:
    def test_constant_unit_velocity(self):
        out = generate(_ConstField(), np.array([3.0]), Condition.null(0), 16)
        assert out[0] == pytest.approx(2.0, abs=1e-12)

    def test_zero_field_is_stationary(self):
        out = generate(_ConstField(value=0.0), np.array([1.25]), Condition.null(0), 8)
        assert out[0] == 1.25

    def test_nan_velocity_names_step(self):
        with pytest.raises(NumericalError) as err:
            generate(_ConstField(value=np.nan), np.array([0.0]), Condition.null(0), 4)
        assert "step 4" in str(err.value)

    @pytest.mark.parametrize("x1", [np.float64(3.0), np.zeros((4, 2))], ids=["scalar", "wrong-dim"])
    def test_state_must_end_in_field_dim(self, x1):
        with pytest.raises(ShapeMismatchError):
            generate(_ConstField(), x1, Condition.null(0), 4)

    def test_too_few_steps(self):
        with pytest.raises(InvalidConfigError):
            generate(_ConstField(), np.array([3.0]), Condition.null(0), 1)

    @staticmethod
    def _c_order_loop(field, x1, c, T):
        """The Euler loop on the state in the order it came in."""
        x, times = np.asarray(x1, dtype=np.float64), np.arange(T + 1) / T
        for i in range(T, 0, -1):
            t_i, t_prev = float(times[i]), float(times[i - 1])
            x = euler(x, field.velocity(x, c, t_i), t_i, t_prev)
        return x

    @pytest.mark.parametrize("field, shape", [
        ("diagonal", (300, 2)), ("full", (300, 2)), ("diagonal", (2,)), ("full", (2,)),
        ("diagonal", (3, 40, 2)), ("full", (3, 40, 2)), ("mlp", (60, 2)),
        ("diagonal fortran", (300, 2)),
    ])
    def test_bits_equal_the_c_order_loop(self, field, shape):
        if field == "mlp":
            f, c = MlpVelocityField(mlp_init([8, 2], condition_dim=2, seed=3)), Condition.one_hot(0, 2)
        else:
            cov = [0.5, 2.0] if field.startswith("diagonal") else [[0.5, 0.3], [0.3, 2.0]]
            f, c, _ = pair_field(GaussianSpec(mean=[1.0, -2.0], cov=cov),
                                 GaussianSpec.isotropic(0.0, 1.0, dim=2))
        x1 = CounterRng(7).normal_array(shape)
        if field.endswith("fortran"):
            x1 = np.asfortranarray(x1)
        before = x1.copy()
        out = generate(f, x1, c, 12)
        assert np.array_equal(out, self._c_order_loop(f, np.ascontiguousarray(x1), c, 12))
        assert np.array_equal(x1, before)
        assert out.flags.c_contiguous and not np.shares_memory(out, x1)


class TestEstimateNoise:
    def test_arithmetic(self):
        assert estimate_noise(np.array([0.5]), np.array([1.0]), 0.5)[0] == pytest.approx(1.0)

    def test_t_zero_endpoint(self):
        out = estimate_noise(np.array([0.3, 0.1]), np.array([1.0, -1.0]), 0.0)
        assert np.allclose(out, [1.3, -0.9])

    def test_recovers_endpoint_on_exact_path(self):
        rng = CounterRng(3)
        x0, x1 = rng.standard_normal(4), rng.standard_normal(4)
        for t in (0.0, 0.4, 0.9):
            x_t = (1 - t) * x0 + t * x1
            v = x1 - x0
            out = estimate_noise(x_t, v, t)
            assert np.max(np.abs(out - x1)) < 1e-12

    def test_t_zero_is_the_plain_sum_bitwise(self):
        # the editors' t=0 noise estimates: (1 - 0) * v is v exactly, and + commutes
        rng = CounterRng(21)
        x, v = rng.normal_array((500, 3)), rng.normal_array((500, 3))
        assert np.array_equal(estimate_noise(x, v, 0.0), v + x)


class TestStepTarget:
    def test_stationary_case(self):
        x = np.array([0.4, -0.2])
        v = np.array([0.7, 0.7])
        out = step_target(x, x, x, v, v, t_i=0.5, t_prev=0.45)
        assert np.array_equal(out, x)

    def test_pure_source_coupling(self):
        x_tar, v = np.array([1.0]), np.array([2.0])
        out = step_target(x_tar, np.array([0.2]), np.array([0.5]), v, v, 0.5, 0.4)
        assert out[0] == pytest.approx(1.3)

    def test_groupings_agree_on_random_instances(self):
        # paper form vs the regrouped source-increment form, 1e4 instances
        rng = CounterRng(12)
        n = 10_000
        x_tar, x_src, x_prev, v_tar, v_src = (rng.normal_array((n, 2)) for _ in range(5))
        t_i, t_prev = 0.55, 0.5
        a = step_target(x_tar, x_src, x_prev, v_tar, v_src, t_i, t_prev)
        b = x_tar + (t_prev - t_i) * v_tar + x_prev - (x_src + (t_prev - t_i) * v_src)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_operation_order_is_fixed(self):
        # output bytes depend on the order: velocity difference first, then
        # the source increment added and the current source subtracted
        rng = CounterRng(13)
        x_tar, x_src, x_prev, v_tar, v_src = (rng.normal_array((500, 3)) for _ in range(5))
        a = step_target(x_tar, x_src, x_prev, v_tar, v_src, 0.35, 0.3)
        b = x_tar + (0.3 - 0.35) * (v_tar - v_src) + x_prev - x_src
        assert np.array_equal(a, b)


class TestFlowEdit:
    def test_identity_edit_is_exact(self, shift_pair_1d):
        field, _, _, c_src, _ = shift_pair_1d
        for seed in range(5):
            x = sample_array(GaussianSpec.isotropic(0.0, 1.0), 1, CounterRng(seed))[0]
            cfg = EditConfig(T=20, n_max=14, sequence_mode="edit", noise_mode="random", seed=seed)
            out = flowedit(field, x, c_src, c_src, cfg)
            assert np.max(np.abs(out - x)) < 1e-12

    def test_sequence_mode_precondition(self, shift_pair_1d):
        field, _, _, c_src, c_tar = shift_pair_1d
        with pytest.raises(InvalidConfigError):
            flowedit(field, np.array([0.0]), c_src, c_tar, EditConfig(sequence_mode="target"))

    @pytest.mark.parametrize("x", [np.float64(0.5), np.zeros((3, 2))], ids=["scalar", "wrong-dim"])
    def test_state_must_end_in_field_dim(self, shift_pair_1d, x):
        field, _, _, c_src, c_tar = shift_pair_1d
        with pytest.raises(ShapeMismatchError):
            flowedit(field, x, c_src, c_tar, EditConfig(sequence_mode="edit"))

    @pytest.mark.parametrize("scale", [1.0, 1.5])
    def test_missing_condition(self, scale):
        field, c_src, c_tar = pair_field(GaussianSpec.isotropic(0.0, 1.0, dim=2),
                                         GaussianSpec.isotropic(2.0, 1.0, dim=2))
        cfg = EditConfig(sequence_mode="edit", cfg_scale=scale)
        for conditions in ((None, c_tar), (c_src, None), (None, None)):
            with pytest.raises(InvalidConfigError):
                flowedit(field, np.zeros(2), *conditions, cfg)

    def test_truncation_bias_matches_dense_oracle(self, shift_pair_1d):
        field, src, tar, c_src, c_tar = shift_pair_1d
        zero = TensorState.from_array([0.0])
        oracle = truncation_bias(src, tar, zero, 0.7, zero, grid_steps=20_000).data
        residuals = []
        for seed in range(30):
            x = sample_array(src, 1, CounterRng(derive_seed(seed, 1)))[0]
            cfg = EditConfig(T=20, n_max=14, sequence_mode="edit", noise_mode="random", seed=seed)
            out = flowedit(field, x, c_src, c_tar, cfg)
            residuals.append(float(out[0] - x[0] - 2.0))
        measured = np.mean(residuals)
        assert abs(measured - oracle[0]) / abs(oracle[0]) < 0.10

    def test_full_horizon_removes_initialization_mismatch(self, shift_pair_1d):
        field, src, _, c_src, c_tar = shift_pair_1d
        outs = []
        for seed in range(1000):
            x = sample_array(src, 1, CounterRng(derive_seed(seed, 1)))[0]
            cfg = EditConfig(T=20, n_max=20, sequence_mode="edit", noise_mode="random", seed=seed)
            outs.append(float(flowedit(field, x, c_src, c_tar, cfg)[0]))
        assert abs(np.mean(outs) - 2.0) < 0.1

    def test_estimated_noise_draws_once(self, shift_pair_1d):
        field, _, _, c_src, c_tar = shift_pair_1d
        cfg = EditConfig(T=20, n_max=14, sequence_mode="edit", noise_mode="estimated", seed=0)
        rng = CounterRng(0)
        flowedit(field, np.array([0.1]), c_src, c_tar, cfg, rng=rng)
        assert rng.normal_draws == 1


class _EstimateRng:
    """An RNG stand-in whose every normal draw is the t=0 noise estimate of
    ``x`` under ``c``: the starting noise ``omniedit_sync`` uses."""

    def __init__(self, field, x, c):
        self.eps = estimate_noise(x, field.velocity(x, c, 0.0), 0.0)

    def normal_steps(self, steps, shape):
        assert shape == self.eps.shape
        return np.stack([self.eps] * steps)


def _substitution_case(kind):
    """A full-covariance 2-D Gaussian pair or an MLP, its two conditions and
    a 3-row source state."""
    if kind == "gaussian":
        field, c_src, c_tar = pair_field(
            GaussianSpec(mean=[0.0, 1.0], cov=[[1.0, 0.3], [0.3, 0.5]]),
            GaussianSpec(mean=[2.0, -1.0], cov=[[0.4, -0.1], [-0.1, 0.9]]))
    else:
        field = MlpVelocityField(mlp_init([16, 16, 2], condition_dim=2, seed=5))
        c_src, c_tar = Condition.one_hot(0, 2), Condition.one_hot(1, 2)
    return field, c_src, c_tar, np.array([[0.3, -0.8], [1.1, 0.2], [-0.5, 0.4]])


class TestTargetSequenceSubstitution:
    """The paper's reformulation: the target sequence is the edit sequence
    with its implied target state carried instead of the edit. Started from
    the same noise and re-estimating it, the two editors agree up to
    rounding; under redrawn noise the implied state does not telescope."""

    @pytest.mark.parametrize("kind", ["gaussian", "mlp"])
    @pytest.mark.parametrize("scale", [0.0, 1.0, 1.5])
    @pytest.mark.parametrize("T, n_max", [(12, 8), (12, 12)])
    def test_estimated_noise_editors_agree(self, kind, scale, T, n_max):
        field, c_src, c_tar, x = _substitution_case(kind)
        cfg = EditConfig(T=T, n_max=n_max, noise_mode="estimated", cfg_scale=scale)
        edit_cfg = dataclasses.replace(cfg, sequence_mode="edit")
        edit = flowedit(field, x, c_src, c_tar, edit_cfg, rng=_EstimateRng(field, x, c_src))
        target = omniedit_sync(field, x, c_src, c_tar, cfg)
        assert np.max(np.abs(edit - target)) <= 1e-12 * np.max(np.abs(target))

    @pytest.mark.parametrize("kind", ["gaussian", "mlp"])
    def test_random_noise_editors_differ(self, kind):
        field, c_src, c_tar, x = _substitution_case(kind)
        cfg = EditConfig(T=12, n_max=8, noise_mode="random", cfg_scale=1.5, seed=2)
        edit_cfg = dataclasses.replace(cfg, sequence_mode="edit")
        # the same seed: both editors see the same draw at every step
        edit = flowedit(field, x, c_src, c_tar, edit_cfg)
        target = omniedit_sync(field, x, c_src, c_tar, cfg)
        assert np.max(np.abs(edit - target)) > 1e-3


class TestOmniEditSync:
    def test_identity_edit_is_exact(self, shift_pair_1d):
        field, _, _, c_src, _ = shift_pair_1d
        for seed in range(5):
            x = sample_array(GaussianSpec.isotropic(0.0, 1.0), 1, CounterRng(seed))[0]
            cfg = EditConfig(T=20, n_max=14, sequence_mode="target", noise_mode="estimated", seed=seed)
            out = omniedit_sync(field, x, c_src, c_src, cfg)
            assert np.max(np.abs(out - x)) < 1e-12

    def test_missing_target_condition(self, shift_pair_1d):
        field, _, _, c_src, _ = shift_pair_1d
        with pytest.raises(InvalidConfigError):
            omniedit_sync(field, np.array([0.0]), c_src, None, EditConfig())

    def test_sequence_mode_precondition(self, shift_pair_1d):
        field, _, _, c_src, c_tar = shift_pair_1d
        with pytest.raises(InvalidConfigError):
            omniedit_sync(field, np.array([0.0]), c_src, c_tar, EditConfig(sequence_mode="edit"))

    @pytest.mark.parametrize("source_condition", [True, False], ids=["c_src", "no-c_src"])
    @pytest.mark.parametrize("x", [np.float64(0.5), np.zeros((3, 2))], ids=["scalar", "wrong-dim"])
    def test_state_must_end_in_field_dim(self, shift_pair_1d, x, source_condition):
        field, _, _, c_src, c_tar = shift_pair_1d
        with pytest.raises(ShapeMismatchError):
            omniedit_sync(field, x, c_src if source_condition else None, c_tar, EditConfig())

    def test_rng_draw_accounting(self, shift_pair_1d):
        field, _, _, c_src, c_tar = shift_pair_1d
        x = np.array([0.3])
        est = EditConfig(T=20, n_max=14, sequence_mode="target", noise_mode="estimated")
        rng = CounterRng(1)
        omniedit_sync(field, x, c_src, c_tar, est, rng=rng)
        assert rng.normal_draws == 0  # estimated noise, source condition given
        rng = CounterRng(1)
        omniedit_sync(field, x, None, c_tar, est, rng=rng)
        assert rng.normal_draws == 1  # one state dimension for the initial draw
        rnd = EditConfig(T=20, n_max=14, sequence_mode="target", noise_mode="random")
        rng = CounterRng(1)
        omniedit_sync(field, x, None, c_tar, rnd, rng=rng)
        assert rng.normal_draws == 15  # dim x (n_max + 1)

    def test_unbiased_at_full_horizon(self, shift_pair_1d):
        field, src, _, c_src, c_tar = shift_pair_1d
        residuals = []
        for seed in range(300):
            x = sample_array(src, 1, CounterRng(derive_seed(seed, 1)))[0]
            cfg = EditConfig(T=20, n_max=20, sequence_mode="target", noise_mode="estimated", seed=seed)
            out = omniedit_sync(field, x, c_src, c_tar, cfg)
            residuals.append(float(out[0] - x[0] - 2.0))
        assert abs(np.mean(residuals)) < 1e-9  # exact for the equal-covariance pair

    def test_bit_identical_under_same_config(self, shift_pair_1d):
        field, _, _, c_src, c_tar = shift_pair_1d
        x = np.array([0.4])
        cfg = EditConfig(T=20, n_max=14, sequence_mode="target", noise_mode="estimated", seed=5)
        a = omniedit_sync(field, x, None, c_tar, cfg)
        b = omniedit_sync(field, x, None, c_tar, cfg)
        assert np.array_equal(a, b)

    def test_prompt_condition_is_appended(self, counting_field):
        field = counting_field(state_dim=1, condition_dim=3)
        cfg = EditConfig(T=4, n_max=2, sequence_mode="target", noise_mode="estimated", seed=0)
        omniedit_sync(
            field, np.array([0.0]), Condition.one_hot(0, 2), Condition.one_hot(1, 2), cfg,
            c_prompt=Condition.one_hot(0, 1),
        )
        assert all(len(vec) == 3 for _, vec, _ in field.calls)

    def test_edit_sequence_identity_recoverable_from_trajectory(self, shift_pair_1d):
        # the edit iterate reconstructed as x_tar - x_src_t + x_src obeys the
        # velocity-difference-only update between consecutive records
        field, src, _, c_src, c_tar = shift_pair_1d
        x = sample_array(src, 1, CounterRng(3))[0]
        cfg = EditConfig(T=20, n_max=14, sequence_mode="target", noise_mode="estimated", seed=8)
        spy = _SpyField(field)
        out, traj = omniedit_sync(spy, x, c_src, c_tar, cfg, record=True)
        times, steps = traj.t, spy.calls[1:]  # after the t=0 estimate, (source, target) per step
        for k in range(len(traj.t) - 1):
            edit_k = traj.x_main[k] - traj.x_src[k] + x
            edit_next = traj.x_main[k + 1] - traj.x_src[k + 1] + x
            v_src, v_tar = steps[2 * k][2], steps[2 * k + 1][2]
            expected = edit_k + (times[k + 1] - times[k]) * (v_tar - v_src)
            assert np.max(np.abs(edit_next - expected)) < 1e-12

    def test_cfg_scale_one_never_evaluates_null(self, counting_field):
        field = counting_field(state_dim=1, condition_dim=2)
        cfg = EditConfig(T=4, n_max=3, sequence_mode="target", noise_mode="estimated", cfg_scale=1.0)
        omniedit_sync(field, np.array([0.0]), Condition.one_hot(0, 2), Condition.one_hot(1, 2), cfg)
        assert not any(is_null for is_null, _, _ in field.calls)

    def test_cfg_scale_zero_uses_unconditional_target(self, shift_pair_1d):
        field, _, _, c_src, c_tar = shift_pair_1d
        x = np.array([0.2])
        guided = EditConfig(T=8, n_max=6, cfg_scale=0.0, seed=2)
        plain = EditConfig(T=8, n_max=6, seed=2)
        # scale 0 replaces the target velocity by the null-condition velocity,
        # which the fixture maps to the source spec: the edit becomes identity
        out_guided = omniedit_sync(field, x, c_src, c_tar, guided)
        out_plain = omniedit_sync(field, x, c_src, c_tar, plain)
        assert np.max(np.abs(out_guided - x)) < 1e-12
        assert abs(out_plain[0] - x[0]) > 0.5


class TestOmniEditAv:
    def test_identity_with_source_audio(self):
        # on a diagonal field and on the coupled law, audio correlated with video
        cfg = EditConfig(T=40, n_max=28, sequence_mode="target", noise_mode="estimated", seed=4)
        for make, xv, xa in ((av_field, [0.2, -0.4], [0.9]),
                             (coupled_av_field, [-1.8, 0.3], [-3.0])):
            field, c0, _ = make()
            xv, xa = np.array(xv), np.array(xa)
            out = omniedit_av(field, VIDEO, xv, xa, c0, c0, cfg)
            assert isinstance(out, DualState)
            assert np.max(np.abs(out.video - xv)) < 1e-12, make.__name__
            assert np.max(np.abs(out.audio - xa)) < 1e-12, make.__name__

    def test_missing_audio_streams_match_exactly(self):
        # both audio streams start from the first draw and step by plain
        # Euler under the same prompt, pre-steps and edit steps alike, so the
        # audio output is plain generation from that draw on the audio law
        field, c0, _ = av_field()
        audio_field = GaussianConditionalField(condition_dim=2, state_dim=1)
        audio_field.register(c0, GaussianSpec.isotropic(-1.0, 0.5, dim=1))
        xv = np.array([0.5, 0.1])
        for seed, T, n_max in ((6, 40, 28), (1, 10, 10), (3, 8, 2)):
            cfg = EditConfig(T=T, n_max=n_max, seed=seed)
            out = omniedit_av(field, VIDEO, xv, None, c0, c0, cfg)
            noise = CounterRng(seed).normal_array((1,))
            assert np.array_equal(out.audio, generate(audio_field, noise, c0, T))
            assert np.max(np.abs(out.video - xv)) < 1e-12

    def test_missing_audio_draw_accounting(self):
        field, c0, c1 = av_field()
        xv = np.array([0.5, 0.1])
        cfg = EditConfig(T=40, n_max=28, sequence_mode="target", noise_mode="estimated")
        rng = CounterRng(2)
        omniedit_av(field, VIDEO, xv, None, c0, c1, cfg, rng=rng)
        # one audio draw + fresh 2-dim video noise for each of the 12 pre-steps
        assert rng.normal_draws == 1 + 2 * 12
        rng = CounterRng(2)
        xa = np.array([0.3])
        omniedit_av(field, VIDEO, xv, xa, c0, c1, cfg, rng=rng)
        assert rng.normal_draws == 0

    def test_full_horizon_missing_audio_still_draws_video_noise(self):
        field, c0, c1 = av_field()
        xv = np.array([0.5, 0.1])
        cfg = EditConfig(T=20, n_max=20, sequence_mode="target", noise_mode="estimated")
        rng = CounterRng(2)
        out = omniedit_av(field, VIDEO, xv, None, c0, c1, cfg, rng=rng)
        assert rng.normal_draws == 1 + 2
        assert np.all(np.isfinite(out.video))

    def test_prompts_required(self):
        field, c0, _ = av_field()
        xv = np.array([0.0, 0.0])
        with pytest.raises(InvalidConfigError):
            omniedit_av(field, VIDEO, xv, None, None, c0, EditConfig())

    def test_random_noise_mode_rejected(self):
        field, c0, c1 = av_field()
        xv = np.array([0.0, 0.0])
        with pytest.raises(InvalidConfigError):
            omniedit_av(field, VIDEO, xv, None, c0, c1, EditConfig(noise_mode="random"))

    def test_modality_shape_mismatch(self):
        field, c0, c1 = av_field()
        for video_dim, video, audio in (
            (VIDEO, np.zeros(3), None),  # video wider than video_dim
            (VIDEO, np.zeros(2), np.float64(0.5)),  # 0-d audio
            (VIDEO, np.zeros((3, 2)), np.zeros((2, 1))),  # audio rows disagree with video rows
            (VIDEO, np.zeros(2), np.zeros(2)),  # audio wider than state_dim - video_dim
            (1, np.float64(0.5), np.zeros(2)),  # 0-d video
            (0, np.zeros(0), np.zeros(3)),  # no video coordinate
            (3, np.zeros(3), np.zeros(0)),  # video_dim = state_dim: no audio coordinate
        ):
            with pytest.raises(ShapeMismatchError):
                omniedit_av(field, video_dim, video, audio, c0, c1, EditConfig())

    def test_deterministic(self):
        field, c0, c1 = av_field()
        xv = np.array([0.5, 0.1])
        cfg = EditConfig(T=40, n_max=28, sequence_mode="target", noise_mode="estimated", seed=13)
        a = omniedit_av(field, VIDEO, xv, None, c0, c1, cfg)
        b = omniedit_av(field, VIDEO, xv, None, c0, c1, cfg)
        assert np.array_equal(a.video, b.video)
        assert np.array_equal(a.audio, b.audio)

    def test_class_swap_moves_both_modalities(self):
        field, c0, c1 = av_field()
        xv = np.array([0.2, -0.4])
        xa = np.array([-0.9])
        cfg = EditConfig(T=40, n_max=40, sequence_mode="target", noise_mode="estimated", seed=1)
        out = omniedit_av(field, VIDEO, xv, xa, c0, c1, cfg)
        # full horizon on equal-covariance pairs is the exact mean shift
        assert np.allclose(out.video - xv, [2.0, 2.0], atol=1e-9)
        assert np.allclose(out.audio - xa, [2.0], atol=1e-9)


# Frozen editor outputs. The pairs change the variance, so the velocity
# difference depends on the noise and every editor's noise handling and
# guidance moves these numbers; a change of the arithmetic must not.
_FROZEN = {
    "sync-estimated": [2.152370603905937, 1.8479114639536733],
    "flowedit-estimated": [2.1993972143444136, 1.7828071574130822],
    "sync-random": [2.2710388071817924, 1.6861108481059686],
    "flowedit-random": [2.1401156008346645, 1.639241600401852],
    "sync-no-source": [1.7853262737533555, 1.1931491353456745],
    "av-audio": [2.100799858565071, 1.9446085442226506, 1.2553209098077251],
    "av-no-audio": [2.068807216097939, 1.92865964320008, 1.980679308025448],
}


def _frozen_case(name):
    if name.startswith("av"):
        field, c0, c1 = av_field(tar_var=0.25)
        xv = np.array([0.2, -0.4])
        xa = np.array([-0.9]) if name == "av-audio" else None
        out = omniedit_av(field, VIDEO, xv, xa, c0, c1,
                          EditConfig(T=40, n_max=28, cfg_scale=1.5, seed=1))
        return np.concatenate([out.video, out.audio])
    src, tar = GaussianSpec.isotropic(0.0, 1.0, dim=2), GaussianSpec.isotropic(2.0, 0.25, dim=2)
    field, c_src, c_tar = pair_field(src, tar)
    x = np.array([0.3, -0.8])
    if name == "sync-no-source":
        return omniedit_sync(field, x, None, c_tar, EditConfig(T=20, n_max=14, seed=3))
    editor, noise = name.split("-")
    if editor == "sync":
        cfg = EditConfig(T=20, n_max=14, noise_mode=noise, cfg_scale=1.5, seed=3)
        return omniedit_sync(field, x, c_src, c_tar, cfg)
    cfg = EditConfig(T=20, n_max=14, sequence_mode="edit", noise_mode=noise, cfg_scale=1.5, seed=3)
    return flowedit(field, x, c_src, c_tar, cfg)


@pytest.mark.parametrize("name", sorted(_FROZEN))
def test_frozen_editor_outputs(name):
    np.testing.assert_array_equal(_frozen_case(name), _FROZEN[name], strict=True)


class _NanAt:
    """Zero velocities on a 2-D state except NaN at one time, in coordinate 0
    (the video, as ``omniedit_av`` splits it at 1) or coordinate 1 (the
    audio); with ``under``, only under that condition."""

    state_dim = 2
    condition_dim = 1

    def __init__(self, t_nan, where="video", under=None):
        self.t_nan, self.where, self.under = t_nan, where, under

    def _nan(self, condition, t):
        return t == self.t_nan and (
            self.under is None
            or (not condition.is_null and np.array_equal(condition.vector, self.under.vector))
        )

    def velocity(self, x, condition, t):
        out = np.zeros_like(x)
        if self._nan(condition, t):
            out[..., 0 if self.where == "video" else 1] = np.nan
        return out


class _Huge:
    """1e300 under the prompt and 0 under the null condition, on a 2-D
    state: every evaluation is finite, and guidance at scale 1e9
    overflows."""

    state_dim = 2
    condition_dim = 1

    def velocity(self, x, condition, t):
        return np.full_like(x, 0.0 if condition.is_null else 1e300)


def _run_flowedit(field, c, cfg_scale=1.0):
    cfg = EditConfig(T=10, n_max=8, sequence_mode="edit", cfg_scale=cfg_scale)
    flowedit(field, np.zeros(2), c, c, cfg)


def _run_sync(field, c, cfg_scale=1.0):
    omniedit_sync(field, np.zeros(2), c, c, EditConfig(T=10, n_max=8, cfg_scale=cfg_scale))


def _run_av(field, c, cfg_scale=1.0, audio=np.array([0.0])):
    omniedit_av(field, 1, np.array([0.0]), audio, c, c,
                EditConfig(T=10, n_max=8, cfg_scale=cfg_scale))


# two pre-steps (t = 1, 0.9), then edit steps 8..1
_run_av_no_audio = functools.partial(_run_av, audio=None)
_NO_AUDIO_NANS = [(w, t, s) for w in ("video", "audio") for t in (0.5, 0.9) for s in (1.0, 1.5)]


class TestNonFiniteVelocity:
    @pytest.mark.parametrize(
        "run, where, t_nan, scale",
        [(_run_flowedit, "video", 0.5, 1.0), (_run_sync, "video", 0.5, 1.0),
         (_run_av, "video", 0.5, 1.0), (_run_av, "audio", 0.5, 1.0)]
        + [(_run_av_no_audio, *case) for case in _NO_AUDIO_NANS],
        ids=["flowedit", "omniedit_sync", "omniedit_av-video", "omniedit_av-audio"]
        + [f"omniedit_av-no-audio-{w}-t{t}-scale{s}" for w, t, s in _NO_AUDIO_NANS],
    )
    def test_nan_velocity_names_step(self, run, where, t_nan, scale):
        with pytest.raises(NumericalError) as err:
            run(_NanAt(t_nan, where), Condition.one_hot(0, 1), cfg_scale=scale)
        assert str(err.value) == f"non-finite velocity at step {round(10 * t_nan)} (t={t_nan:g})"

    @pytest.mark.parametrize("where", ["video", "audio"])
    @pytest.mark.parametrize("scale", [1.0, 1.5])
    def test_nan_under_source_only_names_pre_step(self, where, scale):
        # the target and null evaluations of pre-step 9 are finite, so only
        # the check on the source velocity can name it
        c_src, c_tar = Condition.one_hot(0, 1), Condition(vector=np.array([2.0]))
        cfg = EditConfig(T=10, n_max=8, cfg_scale=scale)
        with pytest.raises(NumericalError) as err:
            omniedit_av(_NanAt(0.9, where, under=c_src), 1, np.array([0.0]), None, c_src, c_tar,
                        cfg)
        assert str(err.value) == "non-finite velocity at step 9 (t=0.9)"

    @pytest.mark.parametrize("run, step",
                             [(_run_flowedit, 8), (_run_sync, 8), (_run_av, 8), (_run_av_no_audio, 10)],
                             ids=["flowedit", "omniedit_sync", "omniedit_av", "omniedit_av-no-audio"])
    def test_overflowing_guidance_names_step(self, run, step):
        with np.errstate(over="ignore"), pytest.raises(NumericalError) as err:
            run(_Huge(), Condition.one_hot(0, 1), cfg_scale=1e9)
        assert f"step {step} " in str(err.value)


_coords = st.floats(-3.0, 3.0)


@st.composite
def _identity_cases(draw):
    """A diagonal or full-covariance spec of dimension 1 to 3, a source point
    and a schedule."""
    dim = draw(st.integers(1, 3))
    mean = np.array(draw(st.lists(_coords, min_size=dim, max_size=dim)))
    if draw(st.booleans()):
        cov = np.array(draw(st.lists(st.floats(0.1, 4.0), min_size=dim, max_size=dim)))
    else:
        entries = draw(st.lists(st.floats(-1.5, 1.5), min_size=dim * dim, max_size=dim * dim))
        low = np.array(entries).reshape(dim, dim)
        cov = low @ low.T + 0.1 * np.eye(dim)
    x = np.array(draw(st.lists(_coords, min_size=dim, max_size=dim)))
    T = draw(st.integers(2, 30))
    return GaussianSpec(mean=mean, cov=cov), x, T, draw(st.integers(1, T))


class TestIdentityEditProperty:
    """With c_tar = c_src the editors return the source: the target-sequence
    editor with estimated noise, and the edit-sequence baseline with either
    noise mode. (The target sequence with random noise is not an identity.)"""

    @settings(max_examples=400, deadline=None)
    @given(case=_identity_cases(), scale=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1),
           editor=st.sampled_from(["sync-estimated", "edit-estimated", "edit-random"]))
    def test_identity_edit_returns_source(self, case, scale, seed, editor):
        spec, x, T, n_max = case
        field, c_src, _ = pair_field(spec, spec)
        seq, noise = editor.split("-")
        cfg = EditConfig(T=T, n_max=n_max, sequence_mode="target" if seq == "sync" else "edit",
                         noise_mode=noise, cfg_scale=scale, seed=seed)
        run = omniedit_sync if seq == "sync" else flowedit
        out = run(field, x, c_src, c_src, cfg)
        assert np.max(np.abs(out - x)) <= 1e-12 * max(1.0, np.max(np.abs(x)))


class TestGuidanceNullCondition:
    @pytest.mark.parametrize("scale, built", [(1.5, 1), (1.0, 0)])
    def test_null_condition_built_once_per_call(self, monkeypatch, scale, built):
        # 14 guided steps share one null condition; unguided edits build none
        calls = []
        null = Condition.null.__func__

        def counting(cls, dim):
            calls.append(dim)
            return null(cls, dim)

        src, tar = GaussianSpec.isotropic(0.0, 1.0, dim=2), GaussianSpec.isotropic(2.0, 0.25, dim=2)
        field, c_src, c_tar = pair_field(src, tar)
        monkeypatch.setattr(Condition, "null", classmethod(counting))
        cfg = EditConfig(T=20, n_max=14, cfg_scale=scale, seed=3)
        omniedit_sync(field, np.array([0.3, -0.8]), c_src, c_tar, cfg)
        assert calls == [2] * built


def _run_editor(name, video, audio):
    src, tar = GaussianSpec.isotropic(0.0, 1.0, dim=2), GaussianSpec.isotropic(2.0, 0.25, dim=2)
    field, c_src, c_tar = pair_field(src, tar)
    if name == "generate":
        return [generate(field, video, c_src, 6)]
    if name == "flowedit":
        cfg = EditConfig(T=6, n_max=4, sequence_mode="edit", cfg_scale=1.5)
        return [flowedit(field, video, c_src, c_tar, cfg)]
    if name == "omniedit_sync":
        return [omniedit_sync(field, video, c_src, c_tar, EditConfig(T=6, n_max=4, cfg_scale=1.5))]
    field, c0, c1 = av_field(tar_var=0.25)
    out = omniedit_av(field, VIDEO, video, audio if name == "omniedit_av" else None, c0, c1,
                      EditConfig(T=6, n_max=4, cfg_scale=1.5))
    return [out.video, out.audio]


@pytest.mark.parametrize("name", ["generate", "flowedit", "omniedit_sync", "omniedit_av",
                                  "omniedit_av-no-audio"])
def test_editors_leave_their_inputs_alone(name):
    # the editors never write into the caller's arrays, and what they return
    # shares no memory with them
    video = CounterRng(31).normal_array((3, 2))
    audio = CounterRng(32).normal_array((3, 1))
    keep = video.copy(), audio.copy()
    outputs = _run_editor(name, video, audio)
    assert np.array_equal(video, keep[0]) and np.array_equal(audio, keep[1])
    for out in outputs:
        assert out.shape[:-1] == (3,)
        out += 100.0
    assert np.array_equal(video, keep[0]) and np.array_equal(audio, keep[1])


def test_dual_state_is_a_frozen_pair_of_arrays():
    field, c0, c1 = av_field()
    video, audio = np.array([0.2, -0.4]), np.array([0.9])
    out = omniedit_av(field, VIDEO, video, audio, c0, c1, EditConfig(T=6, n_max=4))
    assert isinstance(out.video, np.ndarray) and isinstance(out.audio, np.ndarray)
    with pytest.raises(dataclasses.FrozenInstanceError):
        out.video = video
    out.video[0] = out.audio[0] = 7.0
    assert video.tolist() == [0.2, -0.4] and audio.tolist() == [0.9]


@st.composite
def _diagonal_av_fields(draw):
    """A diagonal two-class field on concat(video, audio) (video width 1-3,
    audio width 1-2) whose null condition reuses class 0, its video width
    and the two class conditions."""
    c0, c1 = Condition.one_hot(0, 2), Condition.one_hot(1, 2)
    video_dim = draw(st.integers(1, 3))
    dim = video_dim + draw(st.integers(1, 2))
    specs = [
        GaussianSpec(mean=draw(st.lists(_coords, min_size=dim, max_size=dim)),
                     cov=draw(st.lists(st.floats(0.1, 4.0), min_size=dim, max_size=dim)))
        for _ in range(2)
    ]
    field = GaussianConditionalField(condition_dim=2, state_dim=dim)
    field.register(c0, specs[0]).register(c1, specs[1]).register(Condition.null(2), specs[0])
    return field, video_dim, c0, c1


def _batched_and_looped_av(field, video_dim, c0, c1, cfg, seeds, with_audio):
    n = len(seeds)
    video = CounterRng(derive_seed(seeds[0], 5)).normal_array((n, video_dim))
    audio = CounterRng(derive_seed(seeds[0], 6)).normal_array((n, field.state_dim - video_dim))
    batched = omniedit_av(field, video_dim, video, audio if with_audio else None, c0, c1, cfg,
                          rng=CounterRng(seeds))
    looped = [
        omniedit_av(field, video_dim, video[r], audio[r] if with_audio else None, c0, c1, cfg,
                    rng=CounterRng(seed))
        for r, seed in enumerate(seeds)
    ]
    return batched, looped


class TestBatchedOmniEditAv:
    """One omniedit_av call over n rows with a keyed generator is the loop of
    n one-row calls, each with its row's seed."""

    @settings(max_examples=150, deadline=None)
    @given(case=_diagonal_av_fields(), T=st.integers(2, 24), data=st.data(),
           seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5),
           scale=st.sampled_from([1.0, 1.5]), with_audio=st.booleans())
    def test_diagonal_analytic_field_is_bitwise(self, case, T, data, seeds, scale, with_audio):
        cfg = EditConfig(T=T, n_max=data.draw(st.integers(1, T)), cfg_scale=scale)
        batched, looped = _batched_and_looped_av(*case, cfg, seeds, with_audio)
        assert np.array_equal(batched.video, np.stack([out.video for out in looped]))
        assert np.array_equal(batched.audio, np.stack([out.audio for out in looped]))

    @pytest.mark.parametrize("with_audio", [True, False], ids=["audio", "no-audio"])
    @pytest.mark.parametrize("scale", [1.0, 1.5])
    def test_mlp_field_within_1e12(self, scale, with_audio):
        field = MlpVelocityField(mlp_init([16, 16, 3], condition_dim=2, seed=8))
        c0, c1 = Condition.one_hot(0, 2), Condition.one_hot(1, 2)
        cfg = EditConfig(T=12, n_max=9, cfg_scale=scale)
        batched, looped = _batched_and_looped_av(field, 2, c0, c1, cfg, list(range(40)),
                                                 with_audio)
        for got, want in ((batched.video, [o.video for o in looped]),
                          (batched.audio, [o.audio for o in looped])):
            want = np.stack(want)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


class TestPairedAvIsJointTargetSequence:
    """With source audio, omniedit_av is omniedit_sync on the concatenated
    (video, audio) state, bit for bit: both modalities follow the
    target-sequence rule with estimated noise from one joint evaluation."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["diagonal", "coupled", "mlp"]),
           T=st.integers(2, 40), scale=st.sampled_from([0.0, 1.0, 1.5]), rows=st.integers(1, 7))
    def test_equals_omniedit_sync_on_the_joint_state(self, data, kind, T, scale, rows):
        if kind == "mlp":
            video_dim, audio_dim = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
            field = MlpVelocityField(mlp_init([16, 16, video_dim + audio_dim], condition_dim=2,
                                              seed=data.draw(st.integers(0, 2**32 - 1))))
            c0, c1 = Condition.one_hot(0, 2), Condition.one_hot(1, 2)
        elif kind == "coupled":
            (field, c0, c1), video_dim = coupled_av_field(), VIDEO
        else:
            field, video_dim, c0, c1 = data.draw(_diagonal_av_fields())
        cfg = EditConfig(T=T, n_max=data.draw(st.integers(1, T)), cfg_scale=scale)
        rng = CounterRng(data.draw(st.integers(0, 2**64 - 1)))
        video = rng.normal_array((rows, video_dim))
        audio = rng.normal_array((rows, field.state_dim - video_dim))
        out = omniedit_av(field, video_dim, video, audio, c0, c1, cfg)
        want = omniedit_sync(field, np.concatenate([video, audio], axis=-1), c0, c1, cfg)
        assert np.array_equal(np.concatenate([out.video, out.audio], axis=-1), want)


class _SpyField:
    """Wraps a field and logs every velocity call: a copy of the input state,
    the time and a copy of the output."""

    def __init__(self, field):
        self.field, self.state_dim, self.condition_dim = field, field.state_dim, field.condition_dim
        self.calls = []

    def velocity(self, x, condition, t):
        out = self.field.velocity(x, condition, t)
        self.calls.append((np.array(x), t, out.copy()))
        return out


class TestStackedRecord:
    """The record is the loop's own values: row k holds step n_max - k's
    evaluated states, and recording leaves the output alone."""

    @settings(max_examples=80, deadline=None)
    @given(editor=st.sampled_from([flowedit, omniedit_sync]),
           noise=st.sampled_from(["random", "estimated"]), full=st.booleans(),
           rows=st.sampled_from([(), (1,), (3,)]), T=st.integers(2, 12), data=st.data(),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_are_the_logged_evaluations(self, editor, noise, full, rows, T, data, seed):
        cov = [[0.5, 0.3], [0.3, 2.0]] if full else [0.5, 2.0]
        field, c_src, c_tar = pair_field(GaussianSpec(mean=[1.0, -2.0], cov=cov),
                                         GaussianSpec(mean=[2.0, 0.5], cov=[0.4, 0.9]))
        cfg = EditConfig(T=T, n_max=data.draw(st.integers(1, T)),
                         sequence_mode="edit" if editor is flowedit else "target",
                         noise_mode=noise, seed=seed)
        x = CounterRng(derive_seed(seed, 5)).normal_array((*rows, 2))
        spy = _SpyField(field)
        out, traj = editor(spy, x, c_src, c_tar, cfg, record=True)
        assert np.array_equal(out, editor(field, x, c_src, c_tar, cfg))
        n = cfg.n_max
        assert np.array_equal(traj.t, cfg.times[n:0:-1])
        for array in (traj.x_src, traj.x_main):
            assert array.shape == (n, *x.shape)
        steps = spy.calls[-2 * n:]  # omniedit_sync's t=0 estimate comes first
        for k in range(n):
            (x_src, t_src, v_src), (x_main, t_tar, _) = steps[2 * k], steps[2 * k + 1]
            assert t_src == t_tar == traj.t[k]
            assert np.array_equal(traj.x_src[k], x_src)
            assert np.array_equal(traj.x_main[k], x_main)
            if noise == "estimated" and k + 1 < n:
                # the step's re-estimate noises the next step's source
                eps = estimate_noise(x_src, v_src, t_src)
                assert np.array_equal(traj.x_src[k + 1], interp(x, eps, traj.t[k + 1]))


class TestRecordSize:
    """The record keeps the step times and the two state streams, and
    nothing else: (2 n_max x.size + n_max) float64 values."""

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(Trajectory)] == ["t", "x_src", "x_main"]

    @pytest.mark.parametrize("editor", [flowedit, omniedit_sync])
    @pytest.mark.parametrize("noise", ["random", "estimated"])
    @pytest.mark.parametrize("keyed", [False, True], ids=["1-D", "keyed"])
    def test_bytes(self, editor, noise, keyed):
        field, c_src, c_tar = _diagonal_pair()
        cfg = EditConfig(T=9, n_max=7, sequence_mode="edit" if editor is flowedit else "target",
                         noise_mode=noise)
        seeds = [3, 5, 8]
        x = CounterRng(1).normal_array((len(seeds), 2) if keyed else 2)
        rng = CounterRng(seeds if keyed else 3)
        _, traj = editor(field, x, c_src, c_tar, cfg, rng=rng, record=True)
        held = sum(getattr(traj, f.name).nbytes for f in dataclasses.fields(traj))
        assert held == (2 * cfg.n_max * x.size + cfg.n_max) * 8

    @pytest.mark.parametrize("editor, c_src", [(flowedit, True), (omniedit_sync, True),
                                               (omniedit_sync, False)])
    @pytest.mark.parametrize("noise", ["random", "estimated"])
    def test_record_past_the_limit_raises_before_any_draw(self, editor, c_src, noise,
                                                          monkeypatch):
        # at a limit of 64 the 10-time grid and every draw pass, but not the
        # 2 n_max x.size = 72-value record; rejected before any noise is made,
        # which omniedit_sync without c_src would draw first
        monkeypatch.setattr(rng_module, "MAX_ENTRIES", 64)
        field, c0, c1 = _diagonal_pair()
        cfg = EditConfig(T=9, n_max=9, sequence_mode="edit" if editor is flowedit else "target",
                         noise_mode=noise)
        rng = CounterRng([3, 5])
        with pytest.raises(InvalidConfigError, match="edit record"):
            editor(field, np.full((2, 2), 0.5), c0 if c_src else None, c1, cfg,
                   rng=rng, record=True)
        assert rng.words_consumed == 0


def _diagonal_pair():
    return pair_field(GaussianSpec(mean=[0.0, 1.0], cov=[1.0, 0.5]),
                      GaussianSpec(mean=[2.0, -1.0], cov=[0.4, 0.9]))


def _random_arm(editor, field, x, c_src, c_tar, cfg, **kwargs):
    """``editor`` under the random noise mode, in its own sequence mode."""
    sequence_mode = "edit" if editor is flowedit else "target"
    cfg = dataclasses.replace(cfg, sequence_mode=sequence_mode, noise_mode="random")
    return editor(field, x, c_src, c_tar, cfg, **kwargs)


class TestOneDrawPerCall:
    """Every editor call draws its noise up front: the per-step rows of the
    random arms and of the missing-audio pre-steps come from one
    ``normal_steps`` call, with the words and the bits of one draw per
    step."""

    @pytest.mark.parametrize("editor", [flowedit, omniedit_sync])
    def test_random_steps_use_successive_draws(self, editor):
        field, c_src, c_tar = _diagonal_pair()
        x, cfg = np.array([[0.3, -0.8], [1.1, 0.2]]), EditConfig(T=12, n_max=8, seed=4)
        _, traj = _random_arm(editor, field, x, c_src, c_tar, cfg, record=True)
        rng = CounterRng(4)
        for t, x_src in zip(traj.t, traj.x_src):
            assert np.array_equal(x_src, interp(x, rng.normal_array(x.shape), t))

    @settings(max_examples=60, deadline=None)
    @given(editor=st.sampled_from([flowedit, omniedit_sync]), T=st.integers(2, 16),
           data=st.data(), seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5),
           scale=st.sampled_from([0.0, 1.0, 1.5]))
    def test_keyed_random_arm_rows_equal_one_seed_calls(self, editor, T, data, seeds, scale):
        field, c_src, c_tar = _diagonal_pair()
        cfg = EditConfig(T=T, n_max=data.draw(st.integers(1, T)), cfg_scale=scale)
        x = CounterRng(derive_seed(seeds[0], 5)).normal_array((len(seeds), 2))
        batched = _random_arm(editor, field, x, c_src, c_tar, cfg, rng=CounterRng(seeds))
        looped = [_random_arm(editor, field, x[r], c_src, c_tar, cfg, rng=CounterRng(seed))
                  for r, seed in enumerate(seeds)]
        assert np.array_equal(batched, np.stack(looped))

    @pytest.mark.parametrize("T, n_max", [(12, 8), (12, 12), (5, 1)])
    def test_words_per_call_in_closed_form(self, T, n_max):
        field, c_src, c_tar = _diagonal_pair()
        x = np.array([[0.3, -0.8], [1.1, 0.2], [-0.5, 0.4]])
        size = x.size
        base = EditConfig(T=T, n_max=n_max)
        cases = [
            ("edit", "random", flowedit, 2 * n_max * size),
            ("target", "random", omniedit_sync, 2 * n_max * size),
            ("edit", "estimated", flowedit, 2 * size),
            ("target", "estimated", omniedit_sync, 0),
        ]
        for sequence_mode, noise_mode, editor, words in cases:
            rng = CounterRng(3)
            cfg = dataclasses.replace(base, sequence_mode=sequence_mode, noise_mode=noise_mode)
            editor(field, x, c_src, c_tar, cfg, rng=rng)
            assert rng.words_consumed == words, (sequence_mode, noise_mode)
        field, c0, c1 = av_field()
        rng = CounterRng(3)
        omniedit_av(field, VIDEO, x, None, c0, c1, base, rng=rng)
        assert rng.words_consumed == 2 * (3 * 1 + max(T - n_max, 1) * size)

    def test_one_rng_call_per_editor_call(self, monkeypatch):
        calls = []
        draw = CounterRng.standard_normal

        def counted(self, n):
            calls.append(n)
            return draw(self, n)

        monkeypatch.setattr(CounterRng, "standard_normal", counted)
        field, c_src, c_tar = _diagonal_pair()
        x, cfg = np.array([[0.3, -0.8], [1.1, 0.2]]), EditConfig(T=20, n_max=14)
        for editor in (flowedit, omniedit_sync):
            calls.clear()
            _random_arm(editor, field, x, c_src, c_tar, cfg, rng=CounterRng(1))
            assert calls == [14 * x.size], editor.__name__
        field, c0, c1 = av_field()
        calls.clear()
        omniedit_av(field, VIDEO, x, None, c0, c1, cfg, rng=CounterRng(1))
        assert calls == [2, 6 * x.size]  # the audio, then the video of the 6 pre-steps
