import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from flowlab.cli import cli_main
from flowlab.core import Condition, interp
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
from flowlab.rng import CounterRng, derive_seed
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
        out = generate(MlpVelocityField(model), noise, Condition.null(0), 100)
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
        # Adam's first step moves every parameter by about the learning rate
        pairs = _gaussian_pairs(0.0, 1.0, 64, seed=3)
        model = mlp_init([8, 1], condition_dim=0, seed=0)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
            train(model, pairs, TrainConfig(epochs=50, batch_size=32, learning_rate=1e300, seed=1))

    def test_empty_dataset(self):
        with pytest.raises(InvalidConfigError):
            train(mlp_init([4, 1], 0, seed=0), [], TrainConfig())


def _reference_train(weights, biases, x0, cond, epochs, batch, lr, seed):
    """The per-batch training loop as it stood before the flat parameter
    vector: one normal and one uniform draw per batch, a list of gradients
    and Adam on each parameter array. Returns the losses and the parameters."""
    weights, biases = [w.copy() for w in weights], [b.copy() for b in biases]
    params = [a for pair in zip(weights, biases) for a in pair]

    def forward(x, c, t):
        n = x.shape[0]
        c = np.broadcast_to(c, (n, cond.shape[1])) if c.ndim <= 1 else c
        tcol = np.broadcast_to(np.asarray(t, dtype=np.float64), (n,))[:, None]
        hs = [np.concatenate([x, c, tcol, 1.0 - tcol], axis=1)]
        for l, (w, b) in enumerate(zip(weights, biases)):
            z = hs[-1] @ w.T + b
            hs.append(z if l == len(weights) - 1 else np.tanh(z))
        return hs

    n, d = x0.shape
    eval_rng = CounterRng(derive_seed(seed, 101))
    n_eval = min(n, 256)
    eval_idx = np.minimum((eval_rng.uniform(n_eval) * n).astype(int), n - 1)
    eval_x0, eval_cond = x0[eval_idx], cond[eval_idx]
    eval_x1 = eval_rng.normal_array((n_eval, d))
    eval_t = eval_rng.uniform(n_eval)
    eval_xt = interp(eval_x0, eval_x1, eval_t[:, None])
    eval_tgt = eval_x1 - eval_x0

    def eval_loss():
        return float(np.sum((forward(eval_xt, eval_cond, eval_t)[-1] - eval_tgt) ** 2)) / n_eval

    rng = CounterRng(seed)
    losses = [eval_loss()]
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    step = 0
    for _ in range(epochs):
        perm = np.argsort(rng.uniform(n), kind="stable")
        for lo in range(0, n, batch):
            idx = perm[lo : lo + batch]
            bx0, bcond = x0[idx], cond[idx]
            bx1 = rng.normal_array((idx.size, d))
            bt = rng.uniform(idx.size)
            hs = forward(interp(bx0, bx1, bt[:, None]), bcond, bt)
            resid = hs[-1] - (bx1 - bx0)
            grads = [None] * len(params)
            g = 2.0 * resid / idx.size
            for l in range(len(weights) - 1, -1, -1):
                grads[2 * l] = g.T @ hs[l]
                grads[2 * l + 1] = g.sum(axis=0)
                if l > 0:
                    g = (g @ weights[l]) * (1.0 - hs[l] * hs[l])
            step += 1
            for (m, v), p, g in zip(moments, params, grads):
                m *= 0.9
                m += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * g * g
                mhat = m / (1.0 - 0.9**step)
                vhat = v / (1.0 - 0.999**step)
                p -= lr * mhat / (np.sqrt(vhat) + 1e-8)
            losses.append(eval_loss())
    return losses, params


class TestTrainMatchesPerBatchLoop:
    """``train`` draws each epoch's words at once and runs Adam on one flat
    vector; its loss curve and parameters equal the per-batch loop bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(1, 3), cond_dim=st.integers(0, 2), n=st.integers(1, 40),
        batch=st.integers(1, 48), epochs=st.integers(1, 2),
        lr=st.sampled_from([0.0, 1e-3, 3e-2]),
        hidden=st.lists(st.integers(1, 6), min_size=1, max_size=2), seed=st.integers(0, 2**64 - 1),
    )
    @example(d=1, cond_dim=0, n=37, batch=8, epochs=2, lr=3e-2, hidden=[5], seed=1)  # n % batch
    @example(d=2, cond_dim=1, n=12, batch=32, epochs=2, lr=1e-3, hidden=[4, 3], seed=2)  # n < batch
    @example(d=3, cond_dim=2, n=20, batch=5, epochs=1, lr=0.0, hidden=[6], seed=3)  # lr = 0
    @example(d=2, cond_dim=1, n=1, batch=4, epochs=2, lr=3e-2, hidden=[3], seed=4)  # 1-row passes
    @example(d=1, cond_dim=2, n=17, batch=8, epochs=2, lr=3e-2, hidden=[5], seed=5)  # 1-row tail
    # the benchmark's shape class: n_eval = 256 < n, width 48, a ragged last batch
    @example(d=3, cond_dim=2, n=300, batch=96, epochs=2, lr=3e-3, hidden=[48], seed=6)
    def test_bit_identical(self, d, cond_dim, n, batch, epochs, lr, hidden, seed):
        data = CounterRng(derive_seed(seed, 1)).normal_array((n, d + cond_dim))
        x0, cond = data[:, :d], data[:, d:]
        model = mlp_init([*hidden, d], cond_dim, seed)
        want_losses, want_params = _reference_train(
            model.weights, model.biases, x0, cond, epochs, batch, lr, seed)
        pairs = [(x0[i], Condition(vector=cond[i])) for i in range(n)]
        report = train(model, pairs, TrainConfig(epochs=epochs, batch_size=batch,
                                                 learning_rate=lr, seed=seed))
        assert [report.initial_loss] + report.losses == want_losses
        for got, want in zip(model.parameters(), want_params):
            assert got.tobytes() == want.tobytes()

    def test_cli_train_known_answer(self, tmp_path):
        # digests of the per-batch loop's outputs, numpy 2.4 and OpenBLAS on x86-64
        assert cli_main(["train", "--out-dir", str(tmp_path), "--n", "100", "--epochs", "2",
                         "--batch", "32", "--lr", "0.01", "--widths", "8,6", "--seed", "3"]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("model.bin", "loss_curve.csv")}
        assert digests == {
            "model.bin": "268accbe071faed3d5f1fcdc8a5a344a381077e8f0c0e3d1e0ce265fd34e47ef",
            "loss_curve.csv": "615598a9203496fff51d517f2b7a49e463a9adb3c23d8fd488938ed445760a5f",
        }

    def test_arrays_taken_before_training_hold_the_trained_values(self):
        model = mlp_init([6, 1], condition_dim=0, seed=1)
        taken = model.weights + model.biases + model.parameters()
        before = [a.copy() for a in taken]
        train(model, _gaussian_pairs(1.0, 1.0, 32, seed=2),
              TrainConfig(epochs=2, batch_size=8, learning_rate=1e-2, seed=4))
        for a, old, new in zip(taken, before, model.weights + model.biases + model.parameters()):
            assert np.shares_memory(a, model.params)
            assert a.tobytes() == new.tobytes()
            assert not np.array_equal(a, old)


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

    def test_activation_code_other_than_tanh(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(tiny_model([4, 2], 0), path)
        blob = bytearray(path.read_bytes())
        blob[8] = 1  # the activation code; only 0, tanh, loads
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError) as err:
            load_model(path)
        assert err.value.offset == 8

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
    return MlpModel(weights=weights, biases=biases, condition_dim=cond_dim)


class TestModelFileProperties:
    @settings(max_examples=150, deadline=None)
    @given(model=_models())
    def test_save_then_load_round_trips(self, model, tmp_path_factory):
        path = tmp_path_factory.mktemp("model") / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.condition_dim == model.condition_dim
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
