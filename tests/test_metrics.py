import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowlab.core import TensorState
from flowlab.errors import InvalidConfigError, NumericalError, ShapeMismatchError
from flowlab.gaussian import GaussianSpec, marginal_velocity, sample_array
from flowlab.metrics import (
    MetricReport,
    _scan_chunk,
    empirical_moments,
    smoothness,
    structure_distance,
    truncation_bias,
)
from flowlab.rng import CounterRng
from flowlab.samplers import Trajectory


def state(values):
    return TensorState.from_array(values)


def traj_from_points(points):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return Trajectory(
        t=1.0 - np.arange(len(points)) * 0.01, x_src=points, x_main=points,
        eps=None, v_src=None, v_tar=None,
    )


class TestSmoothness:
    def test_collinear_points_are_flat(self):
        pts = np.arange(7.0)[:, None] * np.array([[2.0, -1.0]]) + np.array([[0.5, 3.0]])
        assert smoothness(traj_from_points(pts)) == 0.0

    def test_alternating_coordinate_hand_value(self):
        # second difference of +-1 alternation is 4 at each interior point,
        # so the mean squared value is 16 in one dimension
        pts = np.array([[1.0], [-1.0], [1.0], [-1.0], [1.0]])
        assert smoothness(traj_from_points(pts)) == pytest.approx(16.0)

    def test_translation_invariance(self):
        rng = CounterRng(4)
        pts = rng.normal_array((8, 3))
        shifted = pts + np.array([5.0, -2.0, 0.5])
        assert smoothness(traj_from_points(pts)) == pytest.approx(
            smoothness(traj_from_points(shifted)), rel=1e-12
        )

    def test_quadratic_scaling(self):
        rng = CounterRng(5)
        pts = rng.normal_array((8, 2))
        base = smoothness(traj_from_points(pts))
        assert smoothness(traj_from_points(3.0 * pts)) == pytest.approx(9.0 * base, rel=1e-9)

    def test_needs_three_steps(self):
        with pytest.raises(InvalidConfigError):
            smoothness(traj_from_points(np.zeros((2, 1))))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), steps=st.integers(3, 90),
           state=st.lists(st.integers(1, 4), min_size=1, max_size=3))
    def test_bits_of_the_whole_record_sum(self, seed, steps, state):
        # one pairwise sum over the record's second differences, which pass
        # numpy's 128-entry block once steps * prod(state) is large enough
        x = CounterRng(seed).normal_array((steps, *state))
        pts = x.reshape(steps, -1)
        second = pts[2:] - 2.0 * pts[1:-1] + pts[:-2]
        want = float(np.sum(second**2)) / (second.shape[0] * pts.shape[1])
        got = smoothness(Trajectory(t=np.linspace(1.0, 0.0, steps), x_src=x, x_main=x,
                                    eps=None, v_src=None, v_tar=None))
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


class TestTruncationBias:
    def test_identical_specs_bias_exactly_zero(self):
        spec = GaussianSpec.isotropic(0.0, 1.0)
        out = truncation_bias(spec, spec, state([0.3]), 0.7, state([-0.8]), grid_steps=2_000)
        assert np.all(out.data == 0.0)

    def test_no_truncation_leaves_dense_grid_residual_only(self):
        src = GaussianSpec.isotropic(0.0, 1.0)
        tar = GaussianSpec.isotropic(2.0, 0.25)
        for grid in (5_000, 10_000):
            out = truncation_bias(src, tar, state([0.3]), 1.0, state([-0.8]), grid_steps=grid)
            assert np.linalg.norm(out.data) < 1e-3
            assert np.linalg.norm(out.data) < 1e-9  # refining keeps it at fp level

    def test_benchmark_pair_dense_value(self):
        # frozen from a 1e5-step dense run; the bias of the shifted pair is a
        # constant vector independent of the source sample and the noise
        src = GaussianSpec.isotropic(0.0, 1.0)
        tar = GaussianSpec.isotropic(2.0, 1.0)
        out = truncation_bias(src, tar, state([0.3]), 0.7, state([-0.8]), grid_steps=50_000)
        assert out.data[0] == pytest.approx(-0.787831, abs=1e-3)
        other = truncation_bias(src, tar, state([1.5]), 0.7, state([0.2]), grid_steps=50_000)
        assert other.data[0] == pytest.approx(out.data[0], abs=1e-6)

    def test_t_max_range(self):
        spec = GaussianSpec.isotropic(0.0, 1.0)
        with pytest.raises(InvalidConfigError):
            truncation_bias(spec, spec, state([0.0]), 0.0, state([0.0]))

    def test_shape_mismatch(self):
        spec = GaussianSpec.isotropic(0.0, 1.0)
        with pytest.raises(ShapeMismatchError):
            truncation_bias(spec, spec, state([0.0]), 0.5, state([0.0, 1.0]))


def euler_bias(src_spec, tar_spec, x_src, t_max, eps, grid_steps):
    """Step-by-step Euler reference for truncation_bias on plain arrays."""

    def offset_run(horizon):
        steps = max(int(round(grid_steps * horizon)), 1)
        times = np.linspace(0.0, horizon, steps + 1)
        d = np.zeros_like(x_src)
        for i in range(steps, 0, -1):
            t_i = times[i]
            x_t = (1.0 - t_i) * x_src + t_i * eps
            dv = marginal_velocity(tar_spec, x_t + d, t_i) - marginal_velocity(src_spec, x_t, t_i)
            d = d + (times[i - 1] - t_i) * dv
        return d

    return offset_run(t_max) - offset_run(1.0)


_PAIRS = {
    "1d": (GaussianSpec.isotropic(0.0, 1.0), GaussianSpec.isotropic(2.0, 0.25)),
    "2d-isotropic": (
        GaussianSpec.isotropic(0.0, 1.0, dim=2), GaussianSpec.isotropic(2.0, 0.25, dim=2)
    ),
    "2d-full": (
        GaussianSpec(mean=np.array([0.0, 0.5]), cov=np.array([[1.0, 0.3], [0.3, 0.5]])),
        GaussianSpec(mean=np.array([2.0, -1.0]), cov=np.array([[0.4, -0.1], [-0.1, 0.9]])),
    ),
}


class TestTruncationBiasScan:
    @pytest.mark.parametrize("pair", sorted(_PAIRS))
    @pytest.mark.parametrize("grid", ["one", "chunk-1", "chunk+1", "3000"])
    def test_matches_step_by_step_euler(self, pair, grid):
        src, tar = _PAIRS[pair]
        chunk = _scan_chunk(src.dim, 1)
        grid_steps = {"one": 1, "chunk-1": chunk - 1, "chunk+1": chunk + 1, "3000": 3000}[grid]
        x = np.linspace(0.3, -0.4, src.dim)
        e = np.linspace(-0.8, 0.6, src.dim)
        got = truncation_bias(src, tar, state(x), 0.6, state(e), grid_steps=grid_steps).data
        ref = euler_bias(src, tar, x, 0.6, e, grid_steps)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_batched_states_match_step_by_step_euler(self):
        src, tar = _PAIRS["2d-full"]
        x = CounterRng(3).normal_array((3, 2))
        e = CounterRng(4).normal_array((3, 2))
        got = truncation_bias(src, tar, state(x), 0.45, state(e), grid_steps=3000)
        assert got.shape == (3, 2)
        ref = euler_bias(src, tar, x, 0.45, e, 3000)
        assert np.linalg.norm(got.array - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_spec_dimension_mismatch(self):
        src, tar = _PAIRS["2d-full"]
        with pytest.raises(ShapeMismatchError):
            truncation_bias(src, tar, state([0.0]), 0.5, state([0.0]))

    def test_peak_memory_does_not_grow_with_grid(self):
        src, tar = _PAIRS["2d-isotropic"]
        x, e = state([0.3, -0.2]), state([-0.8, 0.1])
        peaks = {}
        for grid in (20_000, 100_000):
            tracemalloc.start()
            truncation_bias(src, tar, x, 0.5, e, grid_steps=grid)
            peaks[grid] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peaks[100_000] - peaks[20_000] < 2 * 2**20


class TestStructureDistance:
    def test_identity(self):
        x = np.array([0.1, 0.2])
        assert structure_distance(x, x) == 0.0

    def test_uniform_offset(self):
        assert structure_distance(np.zeros(3), np.ones(3)) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            structure_distance(np.array([0.0]), np.array([0.0, 1.0]))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           shape=st.lists(st.integers(1, 40), min_size=1, max_size=3), transpose=st.booleans())
    def test_bits_of_the_whole_array_mean(self, seed, shape, transpose):
        rng = CounterRng(seed)
        x_src, x_out = rng.normal_array(tuple(shape)), 3.0 * rng.normal_array(tuple(shape))
        if transpose:  # non-contiguous views
            x_src, x_out = x_src.T, x_out.T
        want = float(np.sqrt(np.mean((x_out - x_src) ** 2)))
        got = structure_distance(x_src, x_out)
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


class TestEmpiricalMoments:
    def test_constant_samples(self):
        mean, cov = empirical_moments(np.array([[2.0, -1.0]] * 5))
        assert mean.tolist() == [2.0, -1.0]
        assert np.all(cov == 0.0)

    def test_two_sample_hand_values(self):
        mean, cov = empirical_moments(np.array([[0.0], [2.0]]))
        assert mean[0] == 1.0
        assert cov[0, 0] == 2.0  # unbiased divisor n-1

    def test_needs_two_samples(self):
        with pytest.raises(InvalidConfigError):
            empirical_moments(np.array([[0.0]]))

    def test_convergence_rate(self):
        spec = GaussianSpec.isotropic(0.0, 1.0, dim=2)
        errors = {}
        for n in (1_000, 10_000, 100_000):
            x = sample_array(spec, n, CounterRng(33))
            mean, _ = empirical_moments(x)
            errors[n] = float(np.linalg.norm(mean))
        # errors scaled by sqrt(n) should stay within one order of magnitude
        scaled = [errors[n] * np.sqrt(n) for n in errors]
        assert max(scaled) / max(min(scaled), 1e-12) < 20.0
        assert errors[100_000] < errors[1_000]


class TestMetricReport:
    def test_rejects_non_finite(self):
        with pytest.raises(NumericalError):
            MetricReport("bad", float("nan"))

    def test_rejects_non_finite_stderr(self):
        # finite values whose spread overflows, as in [1e308, -1e308]
        with pytest.raises(NumericalError, match="stderr"):
            MetricReport("bias_norm", 0.35, aux={"stderr": float("inf")})

    def test_carries_config_echo(self):
        rep = MetricReport("w2", 0.5, config={"seed_count": 3, "T": 20})
        assert rep.config["T"] == 20
