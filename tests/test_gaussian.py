import dataclasses
import math
import os
import subprocess
import sys
import threading
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


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _stdout_per_blas_thread_count(code: str) -> list[str]:
    """Standard output of ``code`` run with 1 and with 2 BLAS threads, each
    in a fresh interpreter: BLAS reads the thread count at import."""
    src = str(Path(flowlab.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    return outputs


class TestGaussianSpec:
    def test_non_spd_rejected(self):
        with pytest.raises(InvalidConfigError):
            GaussianSpec(mean=np.zeros(2), cov=np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(InvalidConfigError):
            GaussianSpec(mean=np.zeros(1), cov=np.array([-1.0]))

    def test_dimension_consistency(self):
        with pytest.raises(ShapeMismatchError):
            GaussianSpec(mean=np.zeros(2), cov=np.ones(3))

    def test_isotropic_rejects_a_dim_its_mean_disagrees_with(self):
        with pytest.raises(ShapeMismatchError):
            GaussianSpec.isotropic([1.0, 2.0], 1.0, dim=3)
        assert GaussianSpec.isotropic([1.0, 2.0], 1.0, dim=2).dim == 2
        assert GaussianSpec.isotropic(1.0, 1.0, dim=3).mean.tolist() == [1.0, 1.0, 1.0]

    def test_equality_is_by_value(self):
        full = [[1.0, 0.3], [0.3, 2.0]]
        assert GaussianSpec(mean=[0.0, 1.0], cov=[1.0, 2.0]) == GaussianSpec(mean=[0.0, 1.0],
                                                                            cov=[1.0, 2.0])
        assert GaussianSpec(mean=[0.0, 1.0], cov=full) == GaussianSpec(mean=[0.0, 1.0], cov=full)
        assert GaussianSpec(mean=[0.0, 1.0], cov=[1.0, 2.0]) != GaussianSpec(mean=[0.0, 1.5],
                                                                            cov=[1.0, 2.0])
        # the same distribution stored diagonally and as a matrix are two specs
        assert GaussianSpec(mean=[0.0, 1.0], cov=[1.0, 2.0]) != GaussianSpec(
            mean=[0.0, 1.0], cov=np.diag([1.0, 2.0]))
        assert GaussianSpec(mean=[0.0, 1.0], cov=[1.0, 2.0]) != ([0.0, 1.0], [1.0, 2.0])

    def test_asymmetry_is_judged_against_the_matrix_scale(self):
        # an absolute tolerance of 1e-8 would pass this matrix, whose lower
        # triangle (what cholesky and eigh read) is diagonal
        with pytest.raises(InvalidConfigError, match="symmetric"):
            GaussianSpec(mean=np.zeros(2), cov=np.array([[1e-9, 9e-9], [0.0, 1e-9]]))

    def test_tiny_symmetric_covariance_accepted(self):
        cov = 1e-9 * np.array([[1.0, 0.5], [0.5, 1.0]])
        spec = GaussianSpec(mean=np.array([0.3, -0.2]), cov=cov)
        assert spec.cov.tobytes() == cov.tobytes()
        x = np.array([0.3, -0.2])
        a, o = _velocity_affine(spec, [0.5])
        # V is a small difference of O(1) terms here, so compare at their scale
        np.testing.assert_allclose(a[0] @ x + o[0], marginal_velocity(spec, x, 0.5), atol=1e-12)

    def test_stores_the_lower_triangle_mirrored(self):
        low = np.array([[2.0, 0.0, 0.0], [0.3, 1.0, 0.0], [-0.1, 0.2, 1.5]])
        sym = low + np.tril(low, -1).T
        nudged = sym.copy()
        nudged[0, 1] = np.nextafter(sym[0, 1], 1.0)
        nudged[1, 2] *= 1.0 + 1e-12
        spec = GaussianSpec(mean=np.zeros(3), cov=nudged)
        assert np.array_equal(spec.cov, sym)
        assert GaussianSpec(mean=np.zeros(3), cov=sym).cov.tobytes() == sym.tobytes()

    def test_scale_tril_is_the_validating_cholesky_factor(self):
        cov = np.array([[1.0, 0.6, 0.1], [0.6, 2.0, -0.3], [0.1, -0.3, 0.7]])
        spec = GaussianSpec(mean=np.array([1.0, -1.0, 0.5]), cov=cov)
        tril = spec.scale_tril()
        assert tril is spec.scale_tril() and not tril.flags.writeable
        assert np.array_equal(_bits(tril), _bits(np.linalg.cholesky(spec.cov)))
        z = CounterRng(6).normal_array((40, 3))
        expected = spec.mean + z @ np.linalg.cholesky(spec.cov).T
        assert np.array_equal(_bits(sample_array(spec, 40, CounterRng(6))), _bits(expected))


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

    def test_limit_at_t_one_is_x_minus_mean_bit_for_bit(self):
        # signed zeros in the mean and the state: the diagonal formula's
        # shift and gain are exactly 0 and 1 at t = 1
        spec = GaussianSpec(mean=np.array([0.0, -0.0, 1.5, -2.0]),
                            cov=np.array([0.5, 2.0, 1.0, 3.0]))
        x = np.array([[0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, 2.5, -1.0]] * 3)
        for state in (x[0], x[1], x):
            assert np.array_equal(_bits(marginal_velocity(spec, state, 1.0)),
                                  _bits(state - spec.mean))

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
        est = mc_conditional_velocity(spec, [(np.array([1.0]), 0.3)], 200_000, CounterRng(5))[0]
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


def _per_row_solve(spec: GaussianSpec, x: np.ndarray, t: float) -> np.ndarray:
    """The marginal velocity by one linear solve per row: the oracle for
    the affine full-covariance path."""
    sigma, eye = spec.cov_matrix(), np.eye(spec.dim)
    s_t = (1.0 - t) ** 2 * sigma + t * t * eye
    m = t * eye - (1.0 - t) * sigma
    y = np.linalg.solve(s_t, (x - (1.0 - t) * spec.mean)[..., None])[..., 0]
    return y @ m.T - spec.mean


@st.composite
def conditioned_full_specs(draw):
    """Full-covariance specs of dimension 1 to 8 with cond(Sigma) <= 1e4:
    a random orthogonal basis and log-uniform eigenvalues in [lo, lo * cond]."""
    dim = draw(st.integers(1, 8))
    rng = CounterRng(draw(st.integers(0, 2**32)))
    q, _ = np.linalg.qr(rng.normal_array((dim, dim)))
    lo, cond = 10.0 ** draw(st.floats(-2.0, 1.0)), 10.0 ** draw(st.floats(0.0, 4.0))
    lam = lo * cond ** rng.uniform(dim)
    cov = (q * lam) @ q.T
    mean = np.array(draw(st.lists(_coords, min_size=dim, max_size=dim)))
    return GaussianSpec(mean=mean, cov=0.5 * (cov + cov.T))


class TestFullCovariancePath:
    @settings(max_examples=300, deadline=None)
    @given(spec=conditioned_full_specs(), rows=st.one_of(st.none(), st.integers(1, 300)),
           t=_times, seed=st.integers(0, 2**32))
    def test_agrees_with_a_per_row_solve(self, spec, rows, t, seed):
        """The affine path ``x @ A_t.T + o_t`` against ``_per_row_solve``.

        Per row, the tolerance is

            |dV| <= 64 eps cond(S_t) (|A_t| |x - (1-t) mu| + |mu|)

        in 2-norms, with S_t = (1-t)^2 Sigma + t^2 I and |A_t| the largest
        |gain| of A_t. The solve's forward error grows with cond(S_t) times
        the size of what it solves for (|A_t| |x - (1-t) mu|); both paths
        then add or subtract mu, which costs a few eps |mu|. cond(S_t) runs
        from cond(Sigma) <= 1e4 at t = 0 down to 1 at t = 1, where both
        paths are exactly x - mu. The factor 64 is about 10 times the worst
        ratio of the two sides, 6.6, over two sets of 3 000 random draws of
        this family.
        """
        shape = (spec.dim,) if rows is None else (rows, spec.dim)
        x = 2.0 * CounterRng(seed).normal_array(shape)
        got, ref = marginal_velocity(spec, x, t), _per_row_solve(spec, x, t)
        assert got.shape == x.shape
        lam = np.linalg.eigvalsh(spec.cov_matrix())
        s = (1.0 - t) ** 2 * lam + t * t
        norm_a = np.max(np.abs((t - (1.0 - t) * lam) / s))
        centered = np.linalg.norm(x - (1.0 - t) * spec.mean, axis=-1)
        bound = 64 * np.finfo(float).eps * (s.max() / s.min()) * (
            norm_a * centered + np.linalg.norm(spec.mean))
        assert np.all(np.linalg.norm(got - ref, axis=-1) <= bound)

    def test_does_not_depend_on_the_blas_thread_count(self):
        code = (
            "import hashlib\n"
            "import numpy as np\n"
            "from flowlab.gaussian import GaussianSpec, marginal_velocity\n"
            "from flowlab.rng import CounterRng\n"
            "cov = np.array([[0.5, 0.2, 0.0, 0.0], [0.2, 0.5, 0.1, 0.0],"
            " [0.0, 0.1, 0.3, 0.05], [0.0, 0.0, 0.05, 0.25]])\n"
            "spec = GaussianSpec(mean=[2.0, 1.0, -1.0, 0.5], cov=cov)\n"
            "v = marginal_velocity(spec, CounterRng(7).normal_array((100_000, 4)), 0.37)\n"
            "print(hashlib.sha256(v.tobytes()).hexdigest())\n"
        )
        outputs = _stdout_per_blas_thread_count(code)
        assert outputs[0] == outputs[1]


# How a tall state of (rows, dim) values is laid out in memory
_LAYOUTS = {
    "rows": lambda base, rows: base[:rows],
    "strided rows": lambda base, rows: base[::2],
    "fortran": lambda base, rows: np.asfortranarray(base[:rows]),
    "(k, n, dim)": lambda base, rows: base.reshape(2, rows, -1),
    "strided (k, n, dim)": lambda base, rows: base.reshape(2, rows, -1)[:, ::2],
    "transposed (n, k, dim)": lambda base, rows: base.reshape(2, rows, -1).transpose(1, 0, 2),
}


@st.composite
def diagonal_specs(draw, max_dim=5):
    dim = draw(st.integers(1, max_dim))
    mean = draw(st.lists(_coords, min_size=dim, max_size=dim))
    cov = draw(st.lists(st.floats(1e-3, 4.0), min_size=dim, max_size=dim))
    return GaussianSpec(mean=np.array(mean), cov=np.array(cov))


class TestColumnPath:
    """Tall states (more rows than dim) take the column-at-a-time path of a
    diagonal spec; the bits must be those of the per-row broadcast path."""

    @settings(max_examples=150, deadline=None)
    @given(spec=diagonal_specs(), rows=st.integers(1, 300), t=_times,
           layout=st.sampled_from(sorted(_LAYOUTS)), seed=st.integers(0, 2**32))
    def test_batched_equals_stacked_rows(self, spec, rows, t, layout, seed):
        base = 2.0 * CounterRng(seed).normal_array((2 * rows, spec.dim))
        base[0, 0], base[-1, -1] = 0.0, -0.0  # signed zeros, the t = 1 edge
        x = _LAYOUTS[layout](base, rows)
        batched = marginal_velocity(spec, x, t)
        looped = np.stack([marginal_velocity(spec, row, t) for row in x.reshape(-1, spec.dim)])
        assert batched.shape == x.shape
        assert np.array_equal(_bits(batched), _bits(looped.reshape(x.shape)))

    @settings(max_examples=100, deadline=None)
    @given(spec=diagonal_specs(), n=st.integers(1, 300), seed=st.integers(0, 2**32),
           keyed=st.booleans())
    def test_sample_array_equals_the_broadcast_expression(self, spec, n, seed, keyed):
        def rng():
            return CounterRng(list(range(seed, seed + n)) if keyed else seed)

        expected = spec.mean + rng().normal_array((n, spec.dim)) * np.sqrt(spec.cov)
        assert np.array_equal(_bits(sample_array(spec, n, rng())), _bits(expected))

    def test_input_is_left_alone(self):
        spec = GaussianSpec(mean=np.array([1.0, -2.0]), cov=np.array([0.5, 2.0]))
        x = CounterRng(3).normal_array((50, 2))
        x.setflags(write=False)
        before = x.copy()
        for t in (0.0, 0.4, 1.0):
            marginal_velocity(spec, x, t)
        assert np.array_equal(x, before)

    @settings(max_examples=150, deadline=None)
    @given(spec=diagonal_specs(), rows=st.integers(1, 300),
           t=st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0)),
           layout=st.sampled_from(sorted(_LAYOUTS)), seed=st.integers(0, 2**32))
    def test_memo_miss_and_hit_give_the_broadcast_bits(self, spec, rows, t, layout, seed):
        base = 2.0 * CounterRng(seed).normal_array((2 * rows, spec.dim))
        x = _LAYOUTS[layout](base, rows)

        def broadcast(t):
            shift = (1.0 - t) * spec.mean
            gain = (t - (1.0 - t) * spec.cov) / ((1.0 - t) ** 2 * spec.cov + t * t)
            return gain * (x - shift) - spec.mean

        # 0.0 and -0.0 must give the same bits
        twin = -t if t == 0.0 else t
        for time in (t, t, twin):
            assert np.array_equal(_bits(marginal_velocity(spec, x, time)), _bits(broadcast(time)))
            row = x.reshape(-1, spec.dim)[0]
            assert np.array_equal(_bits(marginal_velocity(spec, row, time)),
                                  _bits(broadcast(time).reshape(-1, spec.dim)[0]))

    def test_threads_sharing_a_spec_get_the_bits_of_an_unshared_one(self):
        spec = GaussianSpec(mean=np.array([1.0, -2.0]), cov=np.array([[0.5, 0.2], [0.2, 2.0]]))
        unshared = GaussianSpec(mean=spec.mean, cov=spec.cov)
        x = np.array([0.3, -0.4])
        times = [k / 300 for k in range(300)]
        expected = [marginal_velocity(unshared, x, t) for t in times]
        wrong = []

        def work(offset):
            for k in range(len(times)):
                j = (k + offset) % len(times)
                if not np.array_equal(marginal_velocity(spec, x, times[j]), expected[j]):
                    wrong.append(j)

        threads = [threading.Thread(target=work, args=(97 * i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    @pytest.mark.parametrize("cov", [np.array([0.5, 2.0]), np.array([[0.5, 0.2], [0.2, 2.0]])])
    def test_repr_and_eq_see_only_mean_and_cov(self, cov):
        used, fresh = GaussianSpec(mean=[0.5, -1.0], cov=cov), GaussianSpec(mean=[0.5, -1.0], cov=cov)
        marginal_velocity(used, np.array([0.1, 0.2]), 0.3)
        assert repr(used) == repr(fresh) and used == fresh
        assert [f.name for f in dataclasses.fields(used)] == ["mean", "cov"]

    @pytest.mark.parametrize("cov", [np.array([0.5, 2.0]), np.array([[0.5, 0.2], [0.2, 2.0]])])
    def test_velocity_calls_leave_the_spec_as_built(self, cov):
        spec = GaussianSpec(mean=np.array([1.0, -2.0]), cov=cov)
        built = dict(vars(spec))
        for t in (0.0, 0.3, 1.0):
            marginal_velocity(spec, np.array([0.3, -0.4]), t)
            marginal_velocity(spec, np.zeros((5, 2)), t)
        assert vars(spec).keys() == built.keys()
        assert all(vars(spec)[name] is value for name, value in built.items())

    @pytest.mark.parametrize("cov", [np.array([0.5, 2.0]), np.array([[0.5, 0.2], [0.2, 2.0]])])
    def test_replace_starts_with_an_empty_memo(self, cov):
        spec = GaussianSpec(mean=np.array([1.0, -2.0]), cov=cov)
        x = np.array([0.3, -0.4])
        marginal_velocity(spec, x, 0.3)
        moved = dataclasses.replace(spec, mean=np.array([-1.0, 0.5]))
        assert np.array_equal(marginal_velocity(moved, x, 0.3),
                              marginal_velocity(GaussianSpec(mean=moved.mean, cov=cov), x, 0.3))

    @pytest.mark.parametrize("cov", [np.array([0.5, 2.0]), np.array([[0.5, 0.2], [0.2, 2.0]])])
    def test_stored_coefficients_are_read_only(self, cov):
        spec = GaussianSpec(mean=np.array([1.0, -2.0]), cov=cov)
        for t in (0.0, 0.3):
            marginal_velocity(spec, np.array([0.3, -0.4]), t)
        assert not any(a.flags.writeable for a in spec._eig)


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

    @pytest.mark.parametrize("cov", [np.array([0.5, 2.0, 1.0]),
                                     np.array([[1.0, 0.6, 0.1], [0.6, 2.0, -0.3], [0.1, -0.3, 0.7]])])
    def test_cached_basis_gives_the_bits_of_a_fresh_eigh(self, cov):
        spec = GaussianSpec(mean=np.array([0.3, -1.2, 0.8]), cov=cov)
        times = np.linspace(0.0, 1.0, 7)
        a, o = _velocity_affine(spec, times)
        lam, q = np.linalg.eigh(spec.cov_matrix())
        gain = (times - (1.0 - times) * lam[:, None]) / ((1.0 - times) ** 2 * lam[:, None]
                                                          + times * times)
        outer = (q.T[:, :, None] * q.T[:, None, :]).reshape(3, -1)
        expected_a = (gain.T @ outer).reshape(-1, 3, 3)
        expected_a[-1] = np.eye(3)
        expected_o = -(1.0 - times) * (q @ (gain * (spec.mean @ q)[:, None])) - spec.mean[:, None]
        assert np.array_equal(_bits(a), _bits(expected_a))
        assert np.array_equal(_bits(o), _bits(expected_o.T))


class TestMcConditionalVelocity:
    def test_symmetric_point_near_zero(self):
        spec = GaussianSpec.isotropic(0.0, 1.0)
        est = mc_conditional_velocity(spec, [(np.array([0.0]), 0.5)], 1_000_000, CounterRng(3))[0]
        assert abs(est.value[0]) <= 3.0 * est.stderr[0]

    def test_deterministic_under_seed(self):
        spec = GaussianSpec.isotropic(0.0, 1.0)
        a = mc_conditional_velocity(spec, [(np.array([0.5]), 0.4)], 20_000, CounterRng(9))[0]
        b = mc_conditional_velocity(spec, [(np.array([0.5]), 0.4)], 20_000, CounterRng(9))[0]
        assert np.array_equal(a.value, b.value) and np.array_equal(a.stderr, b.stderr)

    @pytest.mark.parametrize("spec", [
        GaussianSpec.isotropic(0.5, 1.0, dim=2),
        GaussianSpec(mean=[1.0, -0.5], cov=[[2.0, 0.3], [0.3, 0.5]]),
    ], ids=["diagonal", "full"])
    def test_queries_sharing_a_draw_equal_one_call_each(self, spec):
        # the queries of one call share its draw: each estimate is the one a
        # call of its own makes on the same seed, bit for bit
        queries = [([0.3, -0.4], 0.7), (np.array([-0.8, 0.6]), 0.5), ([0.1, 0.2], 1.0)]
        rng = CounterRng(4)
        shared = mc_conditional_velocity(spec, queries, 20_000, rng)
        assert len(shared) == len(queries)
        assert rng.words_consumed == 2 * 20_000 * spec.dim  # one draw
        for query, est in zip(queries, shared):
            alone = mc_conditional_velocity(spec, [query], 20_000, CounterRng(4))[0]
            for field in ("value", "stderr"):
                assert np.array_equal(_bits(getattr(est, field)), _bits(getattr(alone, field)))
            assert est.effective_samples == alone.effective_samples and est.n == alone.n

    @pytest.mark.parametrize("bad, error", [
        (([0.5], 0.0), InvalidConfigError),
        (([0.5], 1.5), InvalidConfigError),
        (([0.5, 0.1], 0.5), ShapeMismatchError),
    ], ids=["t-zero", "t-above-one", "dim"])
    def test_a_bad_query_raises_before_the_draw(self, bad, error):
        spec = GaussianSpec.isotropic(0.0, 1.0)
        rng = CounterRng(2)
        with pytest.raises(error):
            mc_conditional_velocity(spec, [([0.3], 0.5), bad, ([0.1], 0.9)], 20_000, rng)
        assert rng.words_consumed == 0

    def test_non_integral_count_raises_before_the_draw(self):
        rng = CounterRng(2)
        with pytest.raises(InvalidConfigError):
            mc_conditional_velocity(GaussianSpec.isotropic(0.0, 1.0), [([0.3], 0.5)], 20_000.7, rng)
        assert rng.words_consumed == 0

    def test_no_queries_draw_nothing(self):
        rng = CounterRng(2)
        assert mc_conditional_velocity(GaussianSpec.isotropic(0.0, 1.0), [], 20_000, rng) == []
        assert rng.words_consumed == 0

    def test_sample_floor(self):
        spec = GaussianSpec.isotropic(0.0, 1.0)
        with pytest.raises(InvalidConfigError):
            mc_conditional_velocity(spec, [(np.array([0.0]), 0.5)], 5_000, CounterRng(0))

    @pytest.mark.parametrize("t", [1.5, -0.25])
    def test_time_outside_unit_interval_rejected(self, t):
        # the same check marginal_velocity makes: a time off the path is a
        # config error, not an estimate
        spec = GaussianSpec.isotropic(0.0, 1.0)
        with pytest.raises(InvalidConfigError, match="outside"):
            mc_conditional_velocity(spec, [(np.array([0.5]), t)], 20_000, CounterRng(1))
        with pytest.raises(InvalidConfigError, match="outside"):
            marginal_velocity(spec, np.array([0.5]), t)

    def test_time_zero_rejected(self):
        # the noise endpoint x1 = (x - (1-t) x0) / t divides by t
        spec = GaussianSpec.isotropic(0.0, 1.0)
        with pytest.raises(InvalidConfigError, match="outside"):
            mc_conditional_velocity(spec, [(np.array([0.5]), 0.0)], 20_000, CounterRng(1))

    def test_insufficient_effective_samples(self):
        # at x = 40 the single source draw nearest 80 carries all the weight
        spec = GaussianSpec.isotropic(0.0, 1.0)
        with pytest.raises(InsufficientSamplesError):
            mc_conditional_velocity(spec, [(np.array([40.0]), 0.5)], 20_000, CounterRng(0))

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
        est = mc_conditional_velocity(spec, [(np.array(x), t)], n, CounterRng(seed))[0]
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
        code = (
            "from flowlab.gaussian import GaussianSpec, mc_conditional_velocity\n"
            "from flowlab.rng import CounterRng\n"
            "e, = mc_conditional_velocity(GaussianSpec.isotropic(0.5, 1, dim=1), [([0.3], 0.5)],"
            " 20_000, CounterRng(7))\n"
            "print(e.value.tobytes().hex(), e.stderr.tobytes().hex())\n"
        )
        outputs = _stdout_per_blas_thread_count(code)
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

    def test_non_integral_count_raises_before_any_word_moves(self):
        rng = CounterRng(1)
        with pytest.raises(InvalidConfigError):
            sample_array(GaussianSpec.isotropic(0.0, 1.0), 2.5, rng)
        assert rng.words_consumed == 0

    def test_numpy_integer_count(self):
        spec = GaussianSpec.isotropic(0.0, 1.0, dim=2)
        assert np.array_equal(sample_array(spec, np.int64(3), CounterRng(1)),
                              sample_array(spec, 3, CounterRng(1)))


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
