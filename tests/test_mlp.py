import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from flowlab.core import Condition, make_schedule
from flowlab.errors import (
    InvalidConfigError,
    ModelFormatError,
    ShapeMismatchError,
    TrainingDivergedError,
)
from flowlab.gaussian import GaussianSpec, sample_array
from flowlab.mlp import (
    MlpModel,
    MlpVelocityField,
    TrainConfig,
    batch_loss_and_grads,
    forward_array,
    grad_check,
    load_model,
    mlp_init,
    save_model,
    train,
)
from flowlab.rng import CounterRng
from flowlab.samplers import generate


def tiny_model(widths, cond_dim, seed=0):
    return mlp_init(widths, condition_dim=cond_dim, seed=seed)


class TestInit:
    def test_deterministic(self):
        a, b = tiny_model([8, 2], 1, seed=5), tiny_model([8, 2], 1, seed=5)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)

    def test_zero_hidden_layers_rejected(self):
        with pytest.raises(InvalidConfigError):
            mlp_init([2], condition_dim=0, seed=0)

    def test_output_dim_follows_state_not_condition(self):
        model = tiny_model([4, 16, 2], 3)
        out = forward_array(model, np.array([0.1, -0.2]), Condition.one_hot(1, 3), 0.5)
        assert out.shape == (2,)
        assert model.layer_chain == [2 + 3 + 2, 4, 16, 2]

    def test_inconsistent_widths(self):
        with pytest.raises(InvalidConfigError):
            mlp_init([0, 2], condition_dim=0, seed=0)


class TestForward:
    def test_zero_weights_give_zero_velocity(self):
        model = tiny_model([4, 3], 2)
        for w in model.weights:
            w[:] = 0.0
        out = forward_array(model, np.array([1.0, -2.0, 0.5]), Condition.one_hot(0, 2), 0.3)
        assert np.array_equal(out, np.zeros(3))

    def test_output_shape_contract(self):
        model = tiny_model([6, 2], 0)
        x = CounterRng(3).normal_array((7, 2))
        out = forward_array(model, x, Condition.null(0), 0.4)
        assert out.shape == x.shape

    def test_repeated_calls_bit_identical(self):
        model = tiny_model([5, 2], 1, seed=2)
        x = np.array([0.3, 0.9])
        c = Condition.one_hot(0, 1)
        assert np.array_equal(forward_array(model, x, c, 0.7), forward_array(model, x, c, 0.7))

    def test_dimension_mismatch(self):
        model = tiny_model([5, 2], 1)
        with pytest.raises(ShapeMismatchError):
            forward_array(model, np.array([1.0, 2.0, 3.0]), Condition.one_hot(0, 1), 0.5)


class TestBackward:
    def test_single_linear_layer_outer_product(self):
        # one linear layer: loss ||Wh + b - y||^2, dW = 2 r h^T, db = 2 r
        rng = CounterRng(7)
        w = rng.normal_array((2, 4))
        model = MlpModel(weights=[w.copy()], biases=[np.zeros(2)], condition_dim=0)
        x, t, y = np.array([0.5, -1.0]), 0.3, np.array([1.0, 2.0])
        grads = batch_loss_and_grads(model, x, np.zeros(0), t, y)[1]
        h = np.array([0.5, -1.0, 0.3, 0.7])
        r = w @ h - y
        assert np.allclose(grads[0], 2.0 * np.outer(r, h), atol=1e-12)
        assert np.allclose(grads[1], 2.0 * r, atol=1e-12)

    def test_duplicated_batch_matches_single(self):
        model = tiny_model([6, 2], 1, seed=3)
        x, c, t, y = np.array([0.2, -0.3]), np.array([1.0]), 0.6, np.array([0.1, 0.4])
        g1 = batch_loss_and_grads(model, x, c, t, y)[1]
        g3 = batch_loss_and_grads(model, np.tile(x, (3, 1)), c, t, np.tile(y, (3, 1)))[1]
        for a, b in zip(g1, g3):
            assert np.allclose(a, b, atol=1e-14)

    def test_empty_batch(self):
        with pytest.raises(InvalidConfigError):
            batch_loss_and_grads(tiny_model([4, 2], 0), np.zeros((0, 2)), np.zeros(0), 0.5,
                                 np.zeros((0, 2)))


class TestGradCheck:
    def test_random_small_model(self):
        model = tiny_model([6, 2], 1, seed=11)
        sample = (np.array([0.4, -0.8]), Condition.one_hot(0, 1), 0.35, np.array([0.2, -0.1]))
        assert grad_check(model, sample, 1e-5) < 1e-6

    def test_linear_model_nearly_exact(self):
        w = CounterRng(5).normal_array((2, 4))
        model = MlpModel(weights=[w], biases=[np.zeros(2)], condition_dim=0)
        sample = (np.array([0.5, -1.0]), Condition.null(0), 0.3, np.array([1.0, 2.0]))
        assert grad_check(model, sample, 1e-5) < 1e-10

    def test_zero_step_rejected(self):
        model = tiny_model([4, 2], 0)
        sample = (np.zeros(2), Condition.null(0), 0.5, np.zeros(2))
        with pytest.raises(InvalidConfigError):
            grad_check(model, sample, 0.0)


def _gaussian_pairs(mean, var, n, seed, cond_dim=0):
    data = sample_array(GaussianSpec.isotropic(mean, var), n, CounterRng(seed))
    return [(row, Condition.null(cond_dim)) for row in data]


class TestTrain:
    def test_trained_model_generates_target_mean(self):
        pairs = _gaussian_pairs(2.0, 0.25, 512, seed=42)
        model = mlp_init([32, 1], condition_dim=0, seed=1)
        report = train(
            model, pairs, TrainConfig(epochs=250, batch_size=64, learning_rate=3e-3, seed=7)
        )
        assert report.final_loss < report.initial_loss
        noise = CounterRng(11).normal_array((2000, 1))
        out = generate(MlpVelocityField(model), noise, Condition.null(0), make_schedule(100))
        assert abs(float(out.mean()) - 2.0) < 0.15

    def test_zero_learning_rate_freezes_the_loss_curve(self):
        pairs = _gaussian_pairs(0.0, 1.0, 64, seed=1)
        model = mlp_init([8, 1], condition_dim=0, seed=0)
        report = train(
            model, pairs, TrainConfig(epochs=3, batch_size=32, learning_rate=0.0, seed=5)
        )
        assert len(set(report.losses)) == 1

    def test_deterministic_loss_curves(self):
        pairs = _gaussian_pairs(1.0, 1.0, 128, seed=2)
        cfg = TrainConfig(epochs=4, batch_size=32, learning_rate=1e-2, seed=9)
        r1 = train(mlp_init([8, 1], 0, seed=3), pairs, cfg)
        r2 = train(mlp_init([8, 1], 0, seed=3), pairs, cfg)
        assert r1.losses == r2.losses

    def test_frozen_losses(self):
        # frozen values; the per-row times of the training batches move them
        data = CounterRng(4).normal_array((64, 2)) + 1.0
        pairs = [(row, Condition.null(0)) for row in data]
        cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=1e-2, seed=5)
        report = train(mlp_init([8, 2], condition_dim=0, seed=2), pairs, cfg)
        np.testing.assert_allclose(
            [report.initial_loss, report.final_loss], [6.034849158495668, 4.214528676818819],
            rtol=1e-9,
        )

    def test_long_run_improvement(self):
        pairs = _gaussian_pairs(1.5, 0.5, 256, seed=6)
        model = mlp_init([16, 1], condition_dim=0, seed=4)
        report = train(
            model, pairs, TrainConfig(epochs=100, batch_size=64, learning_rate=3e-3, seed=2)
        )
        k = max(len(report.losses) // 10, 1)
        assert min(report.losses[-k:]) < min(report.losses[:k])

    def test_divergence_detected(self):
        pairs = _gaussian_pairs(0.0, 1.0, 64, seed=3)
        model = mlp_init([8, 1], condition_dim=0, seed=0)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
            train(
                model, pairs,
                TrainConfig(epochs=50, batch_size=32, learning_rate=1e12, optimizer="sgd", seed=1),
            )

    def test_empty_dataset(self):
        with pytest.raises(InvalidConfigError):
            train(mlp_init([4, 1], 0, seed=0), [], TrainConfig())

    def test_sgd_supported(self):
        pairs = _gaussian_pairs(0.5, 1.0, 64, seed=8)
        model = mlp_init([8, 1], condition_dim=0, seed=0)
        report = train(
            model, pairs, TrainConfig(epochs=10, batch_size=32, learning_rate=1e-2,
                                      optimizer="sgd", seed=3)
        )
        assert report.final_loss < report.initial_loss


class TestSerialization:
    def test_round_trip_bit_identical_outputs(self, tmp_path):
        model = tiny_model([7, 5, 3], 2, seed=13)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        rng = CounterRng(17)
        for _ in range(100):
            x = rng.standard_normal(3)
            c = Condition(vector=rng.standard_normal(2))
            t = rng.uniform()
            assert np.array_equal(forward_array(model, x, c, t), forward_array(loaded, x, c, t))

    def test_truncated_file(self, tmp_path):
        model = tiny_model([4, 2], 0)
        path = tmp_path / "model.bin"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(ModelFormatError) as err:
            load_model(path)
        assert err.value.offset is not None

    def test_wrong_magic_names_expected_bytes(self, tmp_path):
        model = tiny_model([4, 2], 0)
        path = tmp_path / "model.bin"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError) as err:
            load_model(path)
        assert "OMED" in str(err.value)

    def test_bad_version(self, tmp_path):
        model = tiny_model([4, 2], 0)
        path = tmp_path / "model.bin"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_trailing_bytes(self, tmp_path):
        model = tiny_model([4, 2], 0)
        path = tmp_path / "model.bin"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ModelFormatError):
            load_model(path)


@st.composite
def _models(draw):
    """Any valid model: 1-3 hidden layers, any finite parameters."""
    state_dim, cond_dim = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    chain = [state_dim + cond_dim + 2, *draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)),
             state_dim]
    finite = st.floats(allow_nan=False, allow_infinity=False)
    weights = [draw(hnp.arrays(np.float64, (fan_out, fan_in), elements=finite))
               for fan_in, fan_out in zip(chain[:-1], chain[1:])]
    biases = [draw(hnp.arrays(np.float64, fan_out, elements=finite)) for fan_out in chain[1:]]
    return MlpModel(weights=weights, biases=biases, condition_dim=cond_dim,
                    activation=draw(st.sampled_from(["tanh", "relu"])))


class TestModelFileProperties:
    @settings(max_examples=150, deadline=None)
    @given(model=_models())
    def test_save_then_load_round_trips(self, model, tmp_path_factory):
        path = tmp_path_factory.mktemp("model") / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert (loaded.condition_dim, loaded.activation) == (model.condition_dim, model.activation)
        for got, want in zip(loaded.weights + loaded.biases, model.weights + model.biases):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()  # bit for bit, -0.0 included

    def test_every_truncation_and_bit_flip_is_format_error_or_finite_model(self, tmp_path):
        path = tmp_path / "model.bin"
        model = tiny_model([6, 5, 3], 2, seed=4)
        # exponent 0x3FF: flipping its top bit turns 1.5 into NaN and -1.0 into -inf
        model.biases[-1][:] = [1.5, -1.0, 0.0]
        save_model(model, path)
        blob = path.read_bytes()
        assert len(blob) == 844
        variants = [blob[:n] for n in range(len(blob))]
        for i in range(len(blob)):
            for bit in range(8):
                flipped = bytearray(blob)
                flipped[i] ^= 1 << bit
                variants.append(bytes(flipped))
        loaded = 0
        for data in variants:
            path.write_bytes(data)
            try:
                model = load_model(path)
            except ModelFormatError:
                continue
            loaded += 1
            assert all(np.isfinite(a).all() for a in model.weights + model.biases)
        # most flips land in a parameter and still load
        assert 0 < loaded < len(variants)
