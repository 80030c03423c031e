"""The two-thread evaluation of large normal draws and of the Monte Carlo
oracle (``rng._both`` on the worker of ``rng._worker``): bit for bit the
one-thread results, whichever thread finishes first; one worker thread per
call, which ends with it; and nothing that ``benchmarks/tracing.py`` wraps
runs on the worker, there or in ``train``. ``import flowlab`` alone starts
no worker machinery."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flowlab import gaussian, harness, mlp, rng as rng_module
from flowlab.core import Condition
from flowlab.errors import InsufficientSamplesError
from flowlab.gaussian import (
    GaussianSpec,
    McVelocityEstimate,
    mc_conditional_velocity,
    sample_array,
)
from flowlab.harness import run_oracle_check
from flowlab.rng import CounterRng


def _serial_estimate(x0: np.ndarray, x: np.ndarray, t: float, n: int) -> McVelocityEstimate:
    """The one-thread estimator the two-half one replaced, as it was."""
    x1 = x0 * (1.0 - t)
    np.subtract(x[:, None], x1, out=x1)
    x1 /= t
    log_w = x1[0] * x1[0]
    for row in x1[1:]:
        log_w += row * row
    log_w *= -0.5
    log_w -= np.max(log_w)
    w = np.exp(log_w, out=log_w)  # max-shifted: the largest weight is 1
    w_sq = w * w
    wsum = float(np.sum(w))
    ess = wsum**2 / float(np.sum(w_sq))
    if ess < 30.0:
        raise InsufficientSamplesError(
            f"effective sample size {ess:.1f} < 30 at x={x}, t={t}; increase n"
        )
    y = np.subtract(x1, x0, out=x1)
    value = np.array([np.sum(w * row) for row in y]) / wsum
    resid = np.subtract(y, value[:, None], out=y)
    resid *= resid
    resid *= w_sq
    stderr = np.sqrt([np.sum(row) for row in resid]) / wsum
    return McVelocityEstimate(value=value, stderr=stderr, effective_samples=ess, n=n)


def _serial_estimates(spec, queries, n, seed) -> list:
    """Each query's reference estimate, or the error it raises, and none
    after that: the estimator stops at the first error."""
    x0 = sample_array(spec, n, CounterRng(seed)).T.copy()
    out = []
    for x, t in queries:
        try:
            out.append(_serial_estimate(x0, np.asarray(x, dtype=np.float64), t, n))
        except InsufficientSamplesError as exc:
            out.append(exc)
            break
    return out


def _assert_same_estimates(spec, queries, n, seed):
    reference = _serial_estimates(spec, queries, n, seed)
    if isinstance(reference[-1], InsufficientSamplesError):
        with pytest.raises(InsufficientSamplesError) as raised:
            mc_conditional_velocity(spec, queries, n, CounterRng(seed))
        assert str(raised.value) == str(reference[-1])
        return
    for est, ref in zip(mc_conditional_velocity(spec, queries, n, CounterRng(seed)), reference,
                        strict=True):
        assert est.value.tobytes() == ref.value.tobytes()
        assert est.stderr.tobytes() == ref.stderr.tobytes()
        assert est.effective_samples == ref.effective_samples and est.n == ref.n


@st.composite
def _specs_and_queries(draw):
    dim = draw(st.integers(1, 3))
    mean = draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim))
    cov = draw(st.lists(st.floats(0.2, 3.0), min_size=dim, max_size=dim))
    queries = draw(st.lists(st.tuples(
        st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim),
        # below 1e-3 the reference's divide by t overflows; small t mostly ends in low ESS
        st.floats(1e-3, 1.0)), min_size=1, max_size=3))
    return GaussianSpec(mean=mean, cov=cov), queries


class TestSameBitsAsOneThread:
    @settings(max_examples=60, deadline=None)
    # n whose halves are not a whole number of 8-value blocks: (n // 2) % 8 != 0
    @example(spec_queries=(GaussianSpec.isotropic(0.5, 1.0, dim=2), [([0.3, -0.4], 0.7)]),
             n=10_003, seed=1)
    @example(spec_queries=(GaussianSpec(mean=[1.0, -0.5, 0.0], cov=[2.0, 0.5, 1.0]),
                           [([0.1, 0.2, 0.3], 1.0), ([-0.8, 0.6, 0.1], 0.5)]), n=20_010, seed=2)
    @example(spec_queries=(GaussianSpec.isotropic(0.0, 1.0), [([0.2], 0.3)]), n=40_000, seed=3)
    @given(spec_queries=_specs_and_queries(), n=st.integers(10_000, 40_000),
           seed=st.integers(0, 2**64 - 1))
    def test_estimates_equal_the_serial_reference(self, spec_queries, n, seed):
        spec, queries = spec_queries
        _assert_same_estimates(spec, queries, n, seed)

    @pytest.mark.parametrize("queries", [[([40.0], 0.5)], [([0.3], 0.5), ([40.0], 0.5)]],
                             ids=["first", "second"])
    def test_a_low_ess_query_raises_the_serial_message(self, queries):
        # at x = 40 the single source draw nearest 80 carries all the weight
        spec = GaussianSpec.isotropic(0.0, 1.0)
        assert isinstance(_serial_estimates(spec, queries, 20_000, 0)[-1],
                          InsufficientSamplesError)
        _assert_same_estimates(spec, queries, 20_000, 0)


def _hook_halves(monkeypatch, on_half):
    """Make both two-thread sites call ``on_half(on_worker)`` at the start of
    each half that ``rng._both`` runs, on the thread that runs it."""
    real = rng_module._both

    def both(submit, half, first, second):
        caller = threading.get_ident()

        def run(part):
            on_half(threading.get_ident() != caller)
            return half(part)
        return real(submit, run, first, second)

    monkeypatch.setattr(rng_module, "_both", both)
    monkeypatch.setattr(gaussian, "_both", both)


def _delay(on_worker_side: bool):
    def on_half(on_worker):
        if on_worker == on_worker_side:
            time.sleep(0.002)
    return on_half


class TestScheduling:
    rows = None

    @classmethod
    def undelayed_rows(cls):
        if cls.rows is None:
            cls.rows = run_oracle_check(10_000, 0)
        return cls.rows

    @pytest.mark.parametrize("worker_last", [True, False], ids=["worker-last", "caller-last"])
    def test_oracle_rows_do_not_depend_on_which_half_finishes_last(self, monkeypatch,
                                                                   worker_last):
        want = self.undelayed_rows()
        finished = []

        def on_half(on_worker):
            _delay(worker_last)(on_worker)
            finished.append(on_worker)

        _hook_halves(monkeypatch, on_half)
        assert run_oracle_check(10_000, 0) == want
        assert True in finished and False in finished

    @pytest.mark.parametrize("worker_last", [True, False], ids=["worker-last", "caller-last"])
    def test_a_large_draw_does_not_depend_on_which_half_finishes_last(self, monkeypatch,
                                                                      worker_last):
        want = CounterRng([3, 4]).standard_normal(5 * rng_module._NORMAL_BLOCK + 17)
        _hook_halves(monkeypatch, _delay(worker_last))
        got = CounterRng([3, 4]).standard_normal(5 * rng_module._NORMAL_BLOCK + 17)
        assert np.array_equal(got, want)


# (site, the call) for the two users of the worker
_SITES = {
    "draw": lambda: CounterRng(7).normal_array((200_000, 2)),
    "estimate": lambda: mc_conditional_velocity(GaussianSpec.isotropic(0.5, 1.0, dim=2),
                                                [([0.3, -0.4], 0.7), ([0.1, 0.2], 0.5)],
                                                20_000, CounterRng(7)),
}


class TestWorkerLifecycle:
    """Mirrors ``TestEvalWorker`` in test_mlp.py for the oracle's worker."""

    @pytest.mark.parametrize("site", sorted(_SITES))
    def test_no_thread_outlives_a_returning_call(self, site):
        before = threading.active_count()
        _SITES[site]()
        assert threading.active_count() == before

    def test_no_thread_outlives_insufficient_samples(self):
        before = threading.active_count()
        with pytest.raises(InsufficientSamplesError):
            mc_conditional_velocity(GaussianSpec.isotropic(0.0, 1.0),
                                    [([0.3], 0.5), ([40.0], 0.5)], 20_000, CounterRng(0))
        assert threading.active_count() == before

    @pytest.mark.parametrize("t", [1e-160, 1e-310, 5e-324])
    def test_a_tiny_t_raises_insufficient_samples(self, t):
        # |x1|^2 overflows, every log-weight is -inf and the ESS is NaN; the
        # error state is the CLI's
        before = threading.active_count()
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(InsufficientSamplesError, match=r"^effective sample size nan < 30 "):
            mc_conditional_velocity(GaussianSpec.isotropic(0.5, 1.0, dim=2),
                                    [([0.3, -0.4], t)], 20_000, CounterRng(0))
        assert threading.active_count() == before

    @pytest.mark.parametrize("site", sorted(_SITES))
    def test_a_worker_error_reaches_the_caller(self, monkeypatch, site):
        def on_half(on_worker):
            if on_worker:
                raise ArithmeticError("half failed on the worker")

        _hook_halves(monkeypatch, on_half)
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="on the worker"):
            _SITES[site]()
        assert threading.active_count() == before

    @pytest.mark.parametrize("site", sorted(_SITES))
    def test_an_interrupt_in_the_callers_half_ends_the_thread(self, monkeypatch, site):
        def on_half(on_worker):
            if not on_worker:
                raise KeyboardInterrupt

        _hook_halves(monkeypatch, on_half)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            _SITES[site]()
        assert threading.active_count() == before

    @pytest.mark.parametrize("site", sorted(_SITES))
    def test_the_worker_keeps_the_callers_error_state(self, monkeypatch, site):
        seen = []
        _hook_halves(monkeypatch, lambda on_worker: seen.append((on_worker, np.geterr())))
        with np.errstate(over="ignore", divide="ignore", invalid="raise"):
            want = np.geterr()
            _SITES[site]()
        assert any(on_worker for on_worker, _ in seen)
        assert all(err == want for _, err in seen)


# The names that benchmarks/tracing.py wraps (its FUNCTIONS and METHODS) in
# the layers an oracle check or a train reaches; the tracer keeps one current
# span and is not thread-safe, so each must run on the calling thread only.
_TRACED_FUNCTIONS = {
    rng_module: ("derive_seed",),
    gaussian: ("marginal_velocity", "mc_conditional_velocity", "sample_array", "ot_map",
               "w2_gaussian"),
    mlp: ("train", "mlp_init", "batch_loss_and_grads", "forward_array"),
    harness: ("run_oracle_check",),
}
_TRACED_METHODS = (
    (rng_module.CounterRng, "standard_normal"), (rng_module.CounterRng, "uniform"),
    (gaussian.GaussianConditionalField, "velocity"), (gaussian.AnalyticDualField, "velocities"),
    (mlp.MlpVelocityField, "velocity"), (mlp.MlpDualField, "velocities"),
)


class TestTracedNamesStayOnTheCallingThread:
    @staticmethod
    def _record(monkeypatch) -> list:
        calls = []

        def wrap(name, fn):
            def traced(*args, **kwargs):
                calls.append((name, threading.get_ident()))
                return fn(*args, **kwargs)
            return traced

        modules = [m for name, m in sys.modules.items() if name.startswith("flowlab.")]
        for home, names in _TRACED_FUNCTIONS.items():
            for name in names:
                original = getattr(home, name)
                for mod in modules:  # every module that binds the name, as the tracer does
                    if getattr(mod, name, None) is original:
                        monkeypatch.setattr(mod, name, wrap(name, original))
        for cls, name in _TRACED_METHODS:
            monkeypatch.setattr(cls, name, wrap(f"{cls.__name__}.{name}", vars(cls)[name]))
        return calls

    def test_an_oracle_check_calls_them_on_the_calling_thread(self, monkeypatch):
        calls = self._record(monkeypatch)
        halves = []
        _hook_halves(monkeypatch, halves.append)
        rows, _ = harness.run_oracle_check(10_000, 0)
        assert len(rows) == 35
        assert {"run_oracle_check", "derive_seed", "mc_conditional_velocity", "sample_array",
                "marginal_velocity", "CounterRng.standard_normal"} <= {name for name, _ in calls}
        assert {ident for _, ident in calls} == {threading.get_ident()}
        assert True in halves  # the worker did run

    @pytest.mark.parametrize("seed", [7, [7, 8]], ids=["one", "keyed"])
    def test_a_large_draw_calls_them_on_the_calling_thread(self, monkeypatch, seed):
        calls = self._record(monkeypatch)
        halves = []
        _hook_halves(monkeypatch, halves.append)
        rng = CounterRng(seed)
        rng.normal_array((*np.shape(seed), 100_000, 2))
        assert [name for name, _ in calls] == ["CounterRng.standard_normal"]
        assert {ident for _, ident in calls} == {threading.get_ident()}
        assert True in halves

    def test_a_train_calls_them_on_the_calling_thread(self, monkeypatch):
        calls = self._record(monkeypatch)
        real, evaluated = mlp._EvalBatch.losses, []

        def losses(self, stack):
            evaluated.append(threading.get_ident())
            return real(self, stack)

        monkeypatch.setattr(mlp._EvalBatch, "losses", losses)
        pairs = [(row, Condition.null(0)) for row in CounterRng(4).normal_array((64, 1))]
        # 4 steps an epoch: two full eval groups on the worker, then 4 steps
        cfg = mlp.TrainConfig(epochs=2 * mlp._EVAL_GROUP // 4 + 1, batch_size=16, seed=3)
        report = mlp.train(mlp.mlp_init([8, 1], 0, seed=1), pairs, cfg)
        assert len(report.losses) == 2 * mlp._EVAL_GROUP + 4
        assert {"train", "mlp_init", "derive_seed", "CounterRng.uniform",
                "CounterRng.standard_normal"} <= {name for name, _ in calls}
        assert {ident for _, ident in calls} == {threading.get_ident()}
        assert set(evaluated) - {threading.get_ident()}  # the worker did run


@settings(max_examples=100, deadline=None)
@given(n=st.integers(129, 250_001), seed=st.integers(0, 2**32 - 1))
def test_numpy_sums_split_at_the_pairwise_half(n, seed):
    # the estimator's two parts rest on this: numpy's pairwise sum of n > 128
    # values is the sum of the first _pairwise_half(n) plus that of the rest
    a = np.random.default_rng(seed).standard_normal(n)
    half = gaussian._pairwise_half(n)
    assert np.sum(a) == np.sum(a[:half]) + np.sum(a[half:])
    rows = np.stack([a, a * a])
    assert np.sum(rows[1]) == np.sum(rows[1, :half]) + np.sum(rows[1, half:])


def test_concurrent_callers_each_get_their_one_thread_bits():
    # four callers at once, each with its own worker (more threads than
    # cores) and a short switch interval: no call shares state with another
    spec = GaussianSpec.isotropic(0.5, 1.0, dim=2)
    queries = [([0.3, -0.4], 0.7), ([0.1, 0.2], 0.5)]

    def call(seed):
        draw = CounterRng(seed).normal_array((60_000, 2))
        est = mc_conditional_velocity(spec, queries, 20_000, CounterRng(seed))
        return draw.tobytes(), [(e.value.tobytes(), e.stderr.tobytes()) for e in est]

    want = {seed: call(seed) for seed in range(4)}
    got = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=lambda s=seed: got.__setitem__(s, call(s)))
                   for seed in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert got == want


def test_import_flowlab_loads_no_thread_pool():
    # rng._worker imports concurrent.futures, which loads logging, on first use
    src = str(Path(mlp.__file__).resolve().parents[1])
    code = "import sys, flowlab; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
