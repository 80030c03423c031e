import numpy as np
import pytest

from flowlab.core import (
    Condition,
    TensorState,
    estimate_noise,
    euler,
    guided,
    interp,
)
from flowlab.errors import InvalidConfigError, ShapeMismatchError
from flowlab.gaussian import GaussianSpec
from flowlab.harness import pair_field
from flowlab.rng import CounterRng
from flowlab.samplers import EditConfig, flowedit


def state(values):
    return TensorState.from_array(values)


class TestTensorState:
    def test_shape_must_match_data(self):
        with pytest.raises(ShapeMismatchError):
            TensorState(data=np.zeros(3), shape=(2,))

    def test_entries_must_be_finite(self):
        with pytest.raises(InvalidConfigError):
            TensorState(data=np.array([1.0, np.nan]), shape=(2,))

    def test_data_is_read_only(self):
        s = state([1.0, 2.0])
        with pytest.raises(ValueError):
            s.data[0] = 5.0

    def test_batch_axes_allowed(self):
        s = TensorState(data=np.arange(6.0), shape=(3, 2))
        assert s.array.shape == (3, 2)


class TestCondition:
    def test_null_must_be_zero(self):
        with pytest.raises(InvalidConfigError):
            Condition(vector=np.ones(2), is_null=True)

    def test_one_hot_and_concat(self):
        c = Condition.one_hot(1, 3).concat(Condition.null(2))
        assert c.vector.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0]
        assert not c.is_null
        assert Condition.null(1).concat(Condition.null(2)).is_null

    @pytest.mark.parametrize("index", [2, 3, -1])
    def test_one_hot_index_outside_the_classes_raises(self, index):
        # a negative index would otherwise select a class from the end
        with pytest.raises(InvalidConfigError, match="outside 0..1"):
            Condition.one_hot(index, 2)

    def test_equality_is_by_value(self):
        assert Condition.one_hot(0, 2) == Condition.one_hot(0, 2)
        assert Condition(vector=[0.5, -1.0]) == Condition(vector=np.array([0.5, -1.0]))
        assert Condition.one_hot(0, 2) != Condition.one_hot(1, 2)
        assert Condition.one_hot(0, 2) != Condition.one_hot(0, 3)
        assert Condition.null(2) != Condition(vector=np.zeros(2))
        assert Condition.null(2) == Condition.null(2)
        assert Condition.one_hot(0, 2) != (0.0, 1.0)


class TestInterpolate:
    def test_scalar_case(self):
        assert interp(np.array([0.0]), np.array([1.0]), 0.3)[0] == pytest.approx(0.3)

    def test_endpoints_exact(self):
        rng = CounterRng(2)
        x0, x1 = rng.standard_normal(5), rng.standard_normal(5)
        assert np.array_equal(interp(x0, x1, 0.0), x0)
        assert np.array_equal(interp(x0, x1, 1.0), x1)

    def test_affine_in_t(self):
        rng = CounterRng(3)
        x0, x1 = rng.standard_normal(4), rng.standard_normal(4)
        for a, b in [(0.0, 1.0), (0.2, 0.9), (0.5, 0.5), (0.1, 0.3)]:
            mid = interp(x0, x1, (a + b) / 2)
            avg = (interp(x0, x1, a) + interp(x0, x1, b)) / 2
            assert np.max(np.abs(mid - avg)) < 1e-12

    def test_inputs_unchanged(self):
        x0, x1 = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        interp(x0, x1, 0.7)
        assert x0.tolist() == [1.0, 2.0] and x1.tolist() == [3.0, 4.0]

    def test_per_row_times_match_scalar_calls(self):
        # the training batch form: one time per row, passed as t[:, None]
        rng = CounterRng(9)
        x0, x1 = rng.normal_array((64, 3)), rng.normal_array((64, 3))
        t = rng.uniform(64)
        rows = np.stack([interp(x0[k], x1[k], float(t[k])) for k in range(64)])
        assert np.array_equal(interp(x0, x1, t[:, None]), rows)


class TestConditionalVelocity:
    """The pair velocity x1 - x0 against the step and noise kernels."""

    def test_identity_pair(self):
        x = np.array([0.4, -1.2])
        v = x - x
        assert np.array_equal(euler(x, v, 0.6, 0.5), x)
        assert np.array_equal(estimate_noise(x, v, 0.6), x)

    def test_scalar(self):
        # one Euler step over the whole path along x1 - x0 lands on x0
        x0, x1 = np.array([0.0]), np.array([2.0])
        assert euler(x1, x1 - x0, 1.0, 0.0)[0] == 0.0

    def test_path_identity(self):
        # x_t - t*v recovers x0 and x_t + (1-t)*v recovers x1 along the path
        rng = CounterRng(4)
        x0, x1 = rng.standard_normal(6), rng.standard_normal(6)
        v = x1 - x0
        for t in (0.0, 0.25, 0.6, 1.0):
            x_t = interp(x0, x1, t)
            assert np.max(np.abs(euler(x_t, v, t, 0.0) - x0)) < 1e-12
            assert np.max(np.abs(estimate_noise(x_t, v, t) - x1)) < 1e-12


class TestNoisySource:
    def test_arithmetic(self):
        assert interp(np.array([2.0]), np.array([0.0]), 0.25)[0] == pytest.approx(1.5)

    def test_endpoints(self):
        x, e = np.array([0.3, -0.4]), np.array([1.1, 0.2])
        assert np.array_equal(interp(x, e, 0.0), x)
        assert np.array_equal(interp(x, e, 1.0), e)

    def test_equals_interpolate_bitwise(self):
        # every noised source a sampler records is interp(source, noise, t)
        src, tar = GaussianSpec.isotropic(0.0, 1.0, dim=2), GaussianSpec.isotropic(2.0, 0.25, dim=2)
        field, c_src, c_tar = pair_field(src, tar)
        x = np.array([0.3, -0.8])
        cfg = EditConfig(T=10, n_max=8, sequence_mode="edit", noise_mode="random", seed=5)
        _, traj = flowedit(field, x, c_src, c_tar, cfg, record=True)
        rng = CounterRng(5)
        for k in range(len(traj.t)):
            assert np.array_equal(traj.x_src[k], interp(x, rng.normal_array(x.shape), traj.t[k]))


class TestCfgCombine:
    def test_scale_identities(self):
        vc, vu = np.array([2.0, -1.0]), np.array([0.5, 0.5])
        assert np.array_equal(guided(vc, vu, 1.0), vc)
        assert np.array_equal(guided(vc, vu, 0.0), vu)

    def test_degenerate_pair(self):
        v = np.array([0.7, 0.7])
        for scale in (0.0, 1.0, 3.5):
            assert np.array_equal(guided(v, v, scale), v)

    def test_negative_scale(self):
        # guided does not check its scale; EditConfig, which supplies it, does
        with pytest.raises(InvalidConfigError):
            EditConfig(cfg_scale=-0.1)
