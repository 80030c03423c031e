import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flowlab
from flowlab.core import Condition
from flowlab.errors import (
    InsufficientSamplesError,
    InvalidConfigError,
    ShapeMismatchError,
)
from flowlab.gaussian import (
    GaussianConditionalField,
    _velocity_affine,
    GaussianSpec,
    marginal_velocity,
    mc_conditional_velocity,
    ot_map,
    sample_array,
    w2_gaussian,
)
from flowlab.metrics import empirical_moments
from flowlab.rng import CounterRng
from flowlab.samplers import generate


class TestGaussianSpec:
    def test_non_spd_rejected(self):
        with pytest.raises(InvalidConfigError):
            GaussianSpec(mean=np.zeros(2), cov=np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(InvalidConfigError):
            GaussianSpec(mean=np.zeros(1), cov=np.array([-1.0]))

    def test_dimension_consistency(self):
        with pytest.raises(ShapeMismatchError):
            GaussianSpec(mean=np.zeros(2), cov=np.ones(3))


class TestMarginalVelocity:
    def test_vanishes_by_symmetry_at_half(self):
        spec = GaussianSpec.isotropic(0.0, 1.0)
        for x in (-2.0, 0.0, 1.3):
            assert marginal_velocity(spec, np.array([x]), 0.5)[0] == pytest.approx(0.0, abs=1e-15)

    def test_limit_at_t_one(self):
        spec = GaussianSpec.isotropic(0.0, 1.0)
        assert marginal_velocity(spec, np.array([2.0]), 1.0)[0] == 2.0
        spec2 = GaussianSpec.isotropic(1.5, 0.3, dim=2)
        out = marginal_velocity(spec2, np.array([2.0, 0.0]), 1.0)
        assert np.allclose(out, [0.5, -1.5])

    def test_value_at_t_zero_is_negated_state(self):
        # E[x1 - x0 | x0 = x] = -x since the endpoints are independent
        spec = GaussianSpec(mean=np.array([0.4, -1.0]), cov=np.array([0.5, 2.0]))
        x = np.array([1.0, 2.0])
        assert np.allclose(marginal_velocity(spec, x, 0.0), -x, atol=1e-14)

    def test_full_covariance_matches_diagonal_storage(self):
        diag = GaussianSpec(mean=np.array([0.3, -0.2]), cov=np.array([0.7, 1.4]))
        full = GaussianSpec(mean=diag.mean, cov=np.diag(diag.cov))
        x = CounterRng(1).normal_array((5, 2))
        for t in (0.0, 0.2, 0.8, 1.0):
            assert np.allclose(
                marginal_velocity(diag, x, t), marginal_velocity(full, x, t), atol=1e-12
            )

    def test_agrees_with_monte_carlo_oracle(self):
        spec = GaussianSpec.isotropic(0.0, 1.0)
        est = mc_conditional_velocity(spec, np.array([1.0]), 0.3, 200_000, CounterRng(5))
        closed = marginal_velocity(spec, np.array([1.0]), 0.3)
        assert np.all(np.abs(est.value - closed) <= 3.0 * est.stderr)


_coords = st.floats(-3.0, 3.0)
_times = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@st.composite
def gaussian_specs(draw):
    """Diagonal or full-covariance specs of dimension 1 to 3."""
    dim = draw(st.integers(1, 3))
    mean = np.array(draw(st.lists(_coords, min_size=dim, max_size=dim)))
    if draw(st.booleans()):
        cov = np.array(draw(st.lists(st.floats(0.1, 4.0), min_size=dim, max_size=dim)))
    else:
        entries = draw(st.lists(st.floats(-1.5, 1.5), min_size=dim * dim, max_size=dim * dim))
        low = np.array(entries).reshape(dim, dim)
        cov = low @ low.T + 0.1 * np.eye(dim)
    return GaussianSpec(mean=mean, cov=cov)


class TestVelocityAffine:
    @settings(max_examples=200, deadline=None)
    @given(spec=gaussian_specs(), times=st.lists(_times, min_size=1, max_size=4), data=st.data())
    def test_affine_form_matches_marginal_velocity(self, spec, times, data):
        x = np.array(data.draw(st.lists(_coords, min_size=spec.dim, max_size=spec.dim)))
        a, o = _velocity_affine(spec, times)
        assert a.shape == (len(times), spec.dim, spec.dim) and o.shape == (len(times), spec.dim)
        # relative to the size of the terms, since V itself can vanish
        scale = 1.0 + np.max(np.abs(x)) + np.max(np.abs(spec.mean))
        for k, t in enumerate(times):
            np.testing.assert_allclose(
                a[k] @ x + o[k], marginal_velocity(spec, x, t), rtol=1e-12, atol=1e-12 * scale
            )

    def test_exact_limit_at_t_one(self):
        cov = np.array([[1.0, 0.6], [0.6, 2.0]])
        for spec in (GaussianSpec(mean=np.array([0.3, -1.2]), cov=cov),
                     GaussianSpec(mean=np.array([0.3, -1.2]), cov=np.array([0.7, 1.4]))):
            a, o = _velocity_affine(spec, np.array([0.5, 1.0]))
            assert np.array_equal(a[1], np.eye(2))
            assert np.array_equal(o[1], -spec.mean)

    def test_times_outside_unit_interval_rejected(self):
        with pytest.raises(InvalidConfigError):
            _velocity_affine(GaussianSpec.isotropic(0.0, 1.0), np.array([0.5, 1.01]))


class TestMcConditionalVelocity:
    def test_symmetric_point_near_zero(self):
        spec = GaussianSpec.isotropic(0.0, 1.0)
        est = mc_conditional_velocity(spec, np.array([0.0]), 0.5, 1_000_000, CounterRng(3))
        assert abs(est.value[0]) <= 3.0 * est.stderr[0]

    def test_deterministic_under_seed(self):
        spec = GaussianSpec.isotropic(0.0, 1.0)
        a = mc_conditional_velocity(spec, np.array([0.5]), 0.4, 20_000, CounterRng(9))
        b = mc_conditional_velocity(spec, np.array([0.5]), 0.4, 20_000, CounterRng(9))
        assert np.array_equal(a.value, b.value) and np.array_equal(a.stderr, b.stderr)

    def test_sample_floor(self):
        spec = GaussianSpec.isotropic(0.0, 1.0)
        with pytest.raises(InvalidConfigError):
            mc_conditional_velocity(spec, np.array([0.0]), 0.5, 5_000, CounterRng(0))

    @pytest.mark.parametrize("t", [1.5, -0.25])
    def test_time_outside_unit_interval_rejected(self, t):
        # the same check marginal_velocity makes: a time off the path is a
        # config error, not an estimate
        spec = GaussianSpec.isotropic(0.0, 1.0)
        with pytest.raises(InvalidConfigError, match="outside"):
            mc_conditional_velocity(spec, np.array([0.5]), t, 20_000, CounterRng(1))
        with pytest.raises(InvalidConfigError, match="outside"):
            marginal_velocity(spec, np.array([0.5]), t)

    def test_time_zero_rejected(self):
        # the noise endpoint x1 = (x - (1-t) x0) / t divides by t
        spec = GaussianSpec.isotropic(0.0, 1.0)
        with pytest.raises(InvalidConfigError, match="outside"):
            mc_conditional_velocity(spec, np.array([0.5]), 0.0, 20_000, CounterRng(1))

    def test_insufficient_effective_samples(self):
        # at x = 40 the single source draw nearest 80 carries all the weight
        spec = GaussianSpec.isotropic(0.0, 1.0)
        with pytest.raises(InsufficientSamplesError):
            mc_conditional_velocity(spec, np.array([40.0]), 0.5, 20_000, CounterRng(0))

    @pytest.mark.parametrize(
        "spec, x, t",
        [(GaussianSpec.isotropic(0.5, 1.0), [0.3], 0.5),
         (GaussianSpec(mean=[-1.0], cov=[0.4]), [1.2], 0.3),
         (GaussianSpec.isotropic(0.5, 1.0, dim=2), [0.3, -0.4], 0.7),
         (GaussianSpec(mean=[1.0, -0.5], cov=[2.0, 0.5]), [-0.8, 0.6], 0.5)],
    )
    def test_matches_an_exactly_summed_reference(self, spec, x, t):
        # the same draws, summed in the (n, dim) layout with math.fsum
        n, seed = 20_000, 11
        est = mc_conditional_velocity(spec, np.array(x), t, n, CounterRng(seed))
        x0 = sample_array(spec, n, CounterRng(seed))
        x1 = (np.array(x) - (1.0 - t) * x0) / t
        log_w = -0.5 * np.sum(x1 * x1, axis=1)
        w = np.exp(log_w - np.max(log_w))
        y = x1 - x0
        wsum = math.fsum(w)
        value = np.array([math.fsum(w * y[:, j]) for j in range(spec.dim)]) / wsum
        resid = y - value
        stderr = np.sqrt([math.fsum(w**2 * resid[:, j] ** 2) for j in range(spec.dim)]) / wsum
        np.testing.assert_allclose(est.value, value, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(est.stderr, stderr, rtol=1e-12, atol=0.0)
        assert est.effective_samples == pytest.approx(wsum**2 / math.fsum(w**2), rel=1e-12)

    def test_does_not_depend_on_the_blas_thread_count(self):
        # a fresh interpreter per thread count: BLAS reads it at import
        code = (
            "from flowlab.gaussian import GaussianSpec, mc_conditional_velocity\n"
            "from flowlab.rng import CounterRng\n"
            "e = mc_conditional_velocity(GaussianSpec.isotropic(0.5, 1, dim=1), [0.3], 0.5,"
            " 20_000, CounterRng(7))\n"
            "print(e.value.tobytes().hex(), e.stderr.tobytes().hex())\n"
        )
        src = str(Path(flowlab.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=src)
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]


class TestSampling:
    def test_empirical_mean_within_clt_bound(self):
        spec = GaussianSpec.isotropic(0.0, 1.0)
        x = sample_array(spec, 100_000, CounterRng(12))
        assert abs(x.mean()) < 0.02  # 5 sigma over sqrt(n)

    def test_degenerate_limit(self):
        spec = GaussianSpec(mean=np.array([3.0]), cov=np.array([1e-12]))
        for s in sample_array(spec, 5, CounterRng(1)):
            assert abs(s[0] - 3.0) < 1e-5

    def test_deterministic(self):
        spec = GaussianSpec.isotropic(1.0, 2.0, dim=3)
        assert np.array_equal(
            sample_array(spec, 10, CounterRng(4)), sample_array(spec, 10, CounterRng(4))
        )

    def test_full_covariance_moments(self):
        cov = np.array([[1.0, 0.6], [0.6, 2.0]])
        spec = GaussianSpec(mean=np.array([1.0, -1.0]), cov=cov)
        x = sample_array(spec, 100_000, CounterRng(8))
        mean, cov_hat = empirical_moments(x)
        assert np.max(np.abs(mean - spec.mean)) < 0.03
        assert np.max(np.abs(cov_hat - cov)) < 0.05

    def test_n_floor(self):
        with pytest.raises(InvalidConfigError):
            sample_array(GaussianSpec.isotropic(0.0, 1.0), 0, CounterRng(0))


class TestW2:
    def test_pure_mean_shift(self):
        a = GaussianSpec.isotropic(0.0, 1.0, dim=2)
        b = GaussianSpec(mean=np.array([1.0, 0.0]), cov=np.ones(2))
        assert w2_gaussian(a, b) == pytest.approx(1.0)

    def test_identity(self):
        a = GaussianSpec.isotropic(0.7, 2.0, dim=3)
        assert w2_gaussian(a, a) == 0.0

    def test_1d_scale_difference(self):
        a = GaussianSpec.isotropic(0.0, 1.0)
        b = GaussianSpec.isotropic(0.0, 4.0)
        assert w2_gaussian(a, b) == pytest.approx(1.0)

    def test_symmetry_and_indiscernibles_on_random_pairs(self):
        rng = CounterRng(21)
        for _ in range(10):
            mean_a, mean_b = rng.standard_normal(2), rng.standard_normal(2)
            la = rng.normal_array((2, 2)) * 0.5 + np.eye(2)
            lb = rng.normal_array((2, 2)) * 0.5 + np.eye(2)
            a = GaussianSpec(mean=mean_a, cov=la @ la.T + 0.1 * np.eye(2))
            b = GaussianSpec(mean=mean_b, cov=lb @ lb.T + 0.1 * np.eye(2))
            assert w2_gaussian(a, b) == pytest.approx(w2_gaussian(b, a), rel=1e-9)
            assert w2_gaussian(a, b) > 0.0
            # matrix square roots amplify fp noise to ~sqrt(eps) on full covs
            assert w2_gaussian(a, a) == pytest.approx(0.0, abs=1e-6)

    def test_diagonal_matches_full_storage(self):
        a = GaussianSpec(mean=np.zeros(2), cov=np.array([1.0, 2.0]))
        b = GaussianSpec(mean=np.ones(2), cov=np.array([0.5, 1.5]))
        a_full = GaussianSpec(mean=a.mean, cov=np.diag(a.cov))
        b_full = GaussianSpec(mean=b.mean, cov=np.diag(b.cov))
        assert w2_gaussian(a, b) == pytest.approx(w2_gaussian(a_full, b_full), rel=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            w2_gaussian(GaussianSpec.isotropic(0.0, 1.0), GaussianSpec.isotropic(0.0, 1.0, dim=2))


class TestOtMap:
    def test_maps_source_moments_onto_target(self):
        src = GaussianSpec(mean=np.array([0.0, 1.0]), cov=np.array([1.0, 0.5]))
        tar = GaussianSpec(mean=np.array([2.0, -1.0]), cov=np.array([0.25, 2.0]))
        a, b = ot_map(src, tar)
        x = sample_array(src, 50_000, CounterRng(2))
        mapped = x @ a.T + b
        mean, cov = empirical_moments(mapped)
        assert np.max(np.abs(mean - tar.mean)) < 0.05
        assert np.max(np.abs(cov - tar.cov_matrix())) < 0.05


class TestConditionalField:
    def test_dispatch_and_unknown_condition(self):
        field = GaussianConditionalField(condition_dim=2, state_dim=1)
        c0 = Condition.one_hot(0, 2)
        field.register(c0, GaussianSpec.isotropic(0.0, 1.0))
        assert field.velocity(np.array([1.0]), c0, 1.0)[0] == 1.0
        with pytest.raises(InvalidConfigError):
            field.velocity(np.array([1.0]), Condition.one_hot(1, 2), 1.0)

    def test_null_distinct_from_zero_vector(self):
        field = GaussianConditionalField(condition_dim=1, state_dim=1)
        field.register(Condition.null(1), GaussianSpec.isotropic(0.0, 1.0))
        with pytest.raises(InvalidConfigError):
            field.velocity(np.array([1.0]), Condition(vector=np.zeros(1)), 0.5)


class TestFineGridTransport:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_euler_transport_matches_spec_moments(self, dim):
        spec = GaussianSpec.isotropic(1.0, 0.64, dim=dim)
        field = GaussianConditionalField(condition_dim=1, state_dim=dim)
        c = Condition.one_hot(0, 1)
        field.register(c, spec)
        noise = CounterRng(9).normal_array((10_000, dim))
        out = generate(field, noise, c, 10_000)
        mean, cov = empirical_moments(out)
        assert np.max(np.abs(mean - spec.mean)) < 0.05
        assert np.max(np.abs(cov - spec.cov_matrix())) < 0.05
