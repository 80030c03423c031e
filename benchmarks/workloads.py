"""The three benchmark workloads: their inputs, one pass of calls, the output
checks and the workload-specific throughputs.

Every program input is derived from the workload seed (``derive``), and every
option of every CLI call is passed explicitly, so a change of a flowlab
default cannot move the benchmark unnoticed.  A pass is one closed loop of
calls, each started after the previous one returned.  An operation is one
public call; it fails on an exception, a non-zero exit code or a failed
output check.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import re
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import grid_steps

# name -> (unit, the workloads it is defined on)
E2E_METRICS = {
    "setup_s": ("s", "all"),
    "wall_s": ("s", "all"),
    "edits_per_s": ("1/s", ("analytic-sweep", "av-model")),
    "train_steps_per_s": ("1/s", ("av-model",)),
    "mc_samples_per_s": ("1/s", ("oracle",)),
    "bias_grid_steps_per_s": ("1/s", ("oracle",)),
    "generate_rows_per_s": ("1/s", ("oracle",)),
    "peak_rss_mb": ("MB", "all"),
    "error_rate": ("ratio", "all"),
}

MISSING = object()  # result of a call that failed; dependent calls are not made


def derive(seed: int, label: str, modulus: int = 1_000_000) -> int:
    """A program input drawn from the workload seed, stable across platforms
    and independent of flowlab's own RNG."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % modulus

# Host-speed references.  On the shared 2-vCPU host the bounds were set on,
# the same code runs up to twice as slow in spells of a few seconds to a
# minute.  So every timed call is bracketed by a fixed reference loop, and
# its time is rescaled to the loop's full speed: seconds * full / (mean of
# the loop's times just before and just after the call), where ``full`` is
# about the loop's fastest time on that host.  The scaled times read as
# seconds at full speed; raw times are kept in the run record.  A contended
# host slows Python-bound and memory-bound code by different factors, so
# each call is scaled by the loop of its own character: "loop" (a Python
# loop of small numpy operations, like the per-step sampler loops and the
# dense-oracle Euler loop) or "bulk" (array operations over 2**17 words,
# like the RNG and large-batch calls).


def _loop_reference() -> float:
    t0 = perf_counter()
    x, y = np.ones(2), np.full(2, 0.5)
    for _ in range(1500):
        x = 0.7 * x + 0.3 * y
        y = y - 0.01 * (x - y) / (1.0 + x * x)
    return perf_counter() - t0


_WORDS = np.arange(1, 1 << 17, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)


def _bulk_reference() -> float:
    t0 = perf_counter()
    for _ in range(2):
        z = (_WORDS ^ (_WORDS >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        u = ((z >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
        np.sqrt(-2.0 * np.log(u)) * np.cos(2.0 * np.pi * u)
    return perf_counter() - t0


# kind -> (reference loop, its full-speed seconds)
REFERENCES = {"loop": (_loop_reference, 0.006), "bulk": (_bulk_reference, 0.0074)}


def scaled_call(kind: str, fn, *args, **kwargs):
    """Call fn between two runs of the ``kind`` reference loop; returns (its
    result, or the exception it raised; raw seconds; scaled seconds)."""
    reference, full = REFERENCES[kind]
    before = reference()
    t0 = perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # the caller records it as one failed operation
        result = exc
    raw = perf_counter() - t0
    return result, raw, raw * full * 2.0 / (before + reference())


@dataclass(frozen=True)
class Size:
    """Problem sizes, and the output-check thresholds that depend on them."""

    sweep_seeds: int
    train_n: int
    train_epochs: int
    train_batch: int
    train_widths: str
    avedit_seeds: int
    avedit_T: int
    avedit_skip: int
    # class_swap_success_rate floor: seed-code runs on model seeds 0-15 gave
    # 0.57-0.88 at 200 edits (median 0.78).
    swap_floor: float
    oracle_seeds: int
    oracle_n: int
    bias_grid: int
    generate_n: int
    generate_T: int
    setup_reps: int


SIZES = {
    "full": Size(sweep_seeds=100, train_n=2048, train_epochs=160, train_batch=96,
                 train_widths="48,48", avedit_seeds=200, avedit_T=40, avedit_skip=12,
                 swap_floor=0.5, oracle_seeds=3, oracle_n=200_000, bias_grid=20_000,
                 generate_n=100_000, generate_T=200, setup_reps=3),
    "tiny": Size(sweep_seeds=4, train_n=64, train_epochs=2, train_batch=32, train_widths="8,8",
                 avedit_seeds=4, avedit_T=8, avedit_skip=2, swap_floor=0.0, oracle_seeds=1,
                 oracle_n=10_000, bias_grid=40, generate_n=200, generate_T=10, setup_reps=1),
}


@dataclass
class Op:
    name: str
    seconds: float  # scaled to full host speed (see REFERENCES)
    raw_seconds: float
    error: str | None = None  # the call raised or exited non-zero
    check: str | None = None  # the call returned, but its output is wrong
    stdout: str = ""


@dataclass
class PassLog:
    """The operations of one pass, in call order."""

    ops: list[Op] = field(default_factory=list)

    def call(self, name: str, kind: str, fn, *args, **kwargs):
        """One operation; ``kind`` names its reference loop."""
        if any(a is MISSING for a in (*args, *kwargs.values())):
            self.ops.append(Op(name, 0.0, 0.0, error="not run: an input came from a failed call"))
            return MISSING
        result, raw, scaled = scaled_call(kind, fn, *args, **kwargs)
        op = Op(name, scaled, raw)
        self.ops.append(op)
        if isinstance(result, Exception):
            op.error = f"{type(result).__name__}: {result}\n" + "".join(
                traceback.format_exception(result))
            return MISSING
        return result

    def cli(self, name: str, kind: str, cli_main, argv: list[str]) -> None:
        """One CLI call; a non-zero exit code fails it."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.call(name, kind, cli_main, argv)
        op = self.ops[-1]
        op.stdout = out.getvalue()
        if rc is not MISSING and rc != 0:
            op.error = f"exit code {rc}: {err.getvalue().strip()}"

    def op(self, name: str) -> Op:
        return next(o for o in self.ops if o.name == name)

    def ok(self, name: str) -> bool:
        o = self.op(name)
        return o.error is None and o.check is None

    def fail(self, name: str, reason: str) -> None:
        o = self.op(name)
        if o.error is None and o.check is None:
            o.check = reason


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _summary(path: Path) -> dict[tuple[str, str, str], tuple[float, float]]:
    return {(r["experiment"], r["seq_mode"] + "/" + r["noise_mode"], r["metric"]):
            (float(r["mean"]), float(r["stderr"])) for r in _csv_rows(path)}


def _rate(work: float, seconds: float):
    return work / seconds if seconds > 0 else None


class AnalyticSweep:
    """Per-seed editing sweeps on closed-form Gaussian fields.

    Thousands of tiny per-seed, per-step calls into the samplers, the
    marginal velocity and fresh RNG streams; the MLP does no work.  Exercises
    seed batching and a shared kernel layer; CSV reads run beside writes.
    The isotropic pair N(0,1)->N(2,0.25) is used because the default
    N(0,1)->N(2,1) cannot tell the four ablation cells apart.
    """

    name = "analytic-sweep"
    T, n_max, cfg_scale = 20, 14, 1.0

    def inputs(self, fl, seed: int, size: Size, out_dir: Path) -> dict:
        G = fl.gaussian.GaussianSpec
        base = derive(seed, "sweep-seeds")
        corr = 0.5 * np.eye(4) + 0.5 * np.ones((4, 4))
        tar_cov = np.array([[0.5, 0.2, 0.0, 0.0], [0.2, 0.5, 0.1, 0.0],
                            [0.0, 0.1, 0.3, 0.05], [0.0, 0.0, 0.05, 0.25]])
        return {
            "src2": G.isotropic(0.0, 1.0, dim=2),
            "tar2": G.isotropic(2.0, 0.25, dim=2),
            "src4": G(mean=np.zeros(4), cov=corr),
            "tar4": G(mean=np.array([2.0, 1.0, -1.0, 0.5]), cov=tar_cov),
            "seeds": list(range(base, base + size.sweep_seeds)),
            "cfg": fl.samplers.EditConfig(T=self.T, n_max=self.n_max, sequence_mode="target",
                                          noise_mode="estimated", cfg_scale=self.cfg_scale,
                                          seed=0),
            "out_dir": out_dir,
        }

    def record(self, inp: dict) -> dict:
        return {
            "pair_2d": "src N(0, I2), tar N(2, 0.25 I2)",
            "pair_4d": "src N(0, 0.5 I + 0.5 11^T), tar full covariance (see workloads.py)",
            "seeds": f"{inp['seeds'][0]}..{inp['seeds'][-1]} ({len(inp['seeds'])} seeds)",
            "T": self.T, "n_max": self.n_max, "cfg_scale": self.cfg_scale,
            "edit_config": repr(inp["cfg"]),
        }

    def run(self, fl, inp: dict, log: PassLog) -> dict:
        h = fl.harness
        seeds, cfg, out = inp["seeds"], inp["cfg"], inp["out_dir"]
        abl2 = log.call("run_ablation[2d]", "loop", h.run_ablation, inp["src2"], inp["tar2"],
                        seeds, self.T, self.n_max, self.cfg_scale)
        runs = log.call("run_edit_sweep", "loop", h.run_edit_sweep, inp["src2"], inp["tar2"],
                        seeds, cfg, identity=False)
        abl4 = log.call("run_ablation[4d-full]", "loop", h.run_ablation, inp["src4"], inp["tar4"],
                        seeds, self.T, self.n_max, self.cfg_scale)
        log.call("write_per_seed_csv", "loop", h.write_per_seed_csv, runs, cfg, out, "edit")
        sweep = log.call("sweep_reports", "loop", h.sweep_reports, runs, inp["tar2"], cfg, "edit")
        parts = (abl2, sweep, abl4)
        reports = MISSING if any(p is MISSING for p in parts) else abl2 + sweep + abl4
        log.call("emit_report", "loop", h.emit_report, reports, out, False, None)
        back = log.call("summarize_per_seed_csv", "loop", h.summarize_per_seed_csv, out / "edits.csv")
        return {"run_ablation[2d]": abl2, "run_ablation[4d-full]": abl4, "back": back}

    def check(self, inp: dict, res: dict, log: PassLog) -> None:
        for name in ("run_ablation[2d]", "run_ablation[4d-full]"):
            if res[name] is not MISSING:
                bias = {r.value for r in res[name] if r.name == "bias_norm"}
                if len(bias) < 2:
                    log.fail(name, "the four ablation cells report the same bias_norm")
        if not log.ok("emit_report"):
            return
        rows = _csv_rows(inp["out_dir"] / "summary.csv")
        bad = [r for r in rows if not (math.isfinite(float(r["mean"]))
                                       and math.isfinite(float(r["stderr"])))]
        if bad or len(rows) != 36:  # 16 + 4 + 16 metric rows
            log.fail("emit_report", f"{len(rows)} summary rows, non-finite: {bad}")
        summary = _summary(inp["out_dir"] / "summary.csv")
        if res["back"] is MISSING:
            return
        # summary.csv and edits.csv both hold 12 significant digits, so a
        # mean or stderr rebuilt from edits.csv may differ from the written
        # one by a few units in the 12th digit of the mean.
        for rep in res["back"]:
            mean, stderr = summary.get(("edit", "target/estimated", rep.name), (math.nan, math.nan))
            tol = 1e-11 * abs(mean)
            got = (rep.value, rep.aux.get("stderr", 0.0))
            if not (abs(got[0] - mean) <= tol and abs(got[1] - stderr) <= tol):
                log.fail("summarize_per_seed_csv",
                         f"{rep.name}: read back {got}, written {(mean, stderr)}")

    def rates(self, inp: dict, res: dict, log: PassLog) -> dict:
        names = ("run_ablation[2d]", "run_edit_sweep", "run_ablation[4d-full]")
        if not all(log.ok(n) for n in names):
            return {}
        edits = 9 * len(inp["seeds"])  # 4 + 1 + 4 sweeps over the seed list
        return {"edits_per_s": _rate(edits, sum(log.op(n).seconds for n in names))}


class AvModel:
    """Train the joint audio-visual MLP with the CLI, then class-swap edit
    with it.

    The MLP does almost all the work: backward-heavy training (Adam steps
    plus a frozen-batch eval after each) beside forward-only inference in
    the tiny batches of omniedit_av.  The Gaussian oracle and the metrics
    module do nothing, so an analytic-field optimisation must leave this
    workload unchanged.
    """

    name = "av-model"

    def inputs(self, fl, seed: int, size: Size, out_dir: Path) -> dict:
        train_dir, avedit_dir = out_dir / "train", out_dir / "avedit"
        model = train_dir / "model.bin"
        return {
            "steps": math.ceil(size.train_n / size.train_batch) * size.train_epochs,
            "seeds": size.avedit_seeds,
            "swap_floor": size.swap_floor,
            "train_dir": train_dir,
            "avedit_dir": avedit_dir,
            "train_argv": [
                "train", "--out-dir", str(train_dir), "--out", str(model),
                "--n", str(size.train_n), "--epochs", str(size.train_epochs),
                "--batch", str(size.train_batch), "--lr", "0.003",
                "--widths", size.train_widths, "--seed", str(derive(seed, "train-seed")),
            ],
            "avedit_argv": [
                "avedit", "--out-dir", str(avedit_dir), "--model", str(model),
                "--T", str(size.avedit_T), "--skip", str(size.avedit_skip),
                "--n-max", str(size.avedit_T - size.avedit_skip),
                "--seeds", str(size.avedit_seeds), "--src-class", "0", "--tar-class", "1",
            ],
        }

    def record(self, inp: dict) -> dict:
        return {"argv": [inp["train_argv"], inp["avedit_argv"]], "optimiser_steps": inp["steps"]}

    def run(self, fl, inp: dict, log: PassLog) -> dict:
        log.cli("train", "bulk", fl.cli.cli_main, inp["train_argv"])
        log.cli("avedit", "loop", fl.cli.cli_main, inp["avedit_argv"])
        return {}

    def check(self, inp: dict, res: dict, log: PassLog) -> None:
        if log.ok("train"):
            m = re.search(r"eval loss (\S+) -> (\S+)\)", log.op("train").stdout)
            losses = _csv_rows(inp["train_dir"] / "loss_curve.csv")
            if not m or not float(m.group(2)) < float(m.group(1)):
                log.fail("train", f"eval loss did not fall: {log.op('train').stdout.strip()!r}")
            elif len(losses) != inp["steps"]:
                log.fail("train", f"{len(losses)} loss rows for {inp['steps']} steps")
        if log.ok("avedit"):
            edits = _csv_rows(inp["avedit_dir"] / "avedits.csv")
            rate = _summary(inp["avedit_dir"] / "summary.csv")[
                ("avedit", "target/estimated", "class_swap_success_rate")][0]
            if len(edits) != inp["seeds"] or not rate >= inp["swap_floor"]:
                log.fail("avedit", f"{len(edits)} edits, class_swap_success_rate {rate} "
                                   f"(floor {inp['swap_floor']})")

    def rates(self, inp: dict, res: dict, log: PassLog) -> dict:
        out = {}
        if log.ok("train"):
            out["train_steps_per_s"] = _rate(inp["steps"], log.op("train").seconds)
        if log.ok("avedit"):
            out["edits_per_s"] = _rate(inp["seeds"], log.op("avedit").seconds)
        return out


class Oracle:
    """Three heavy uses of the lower layers: the Monte Carlo oracle check
    (bulk RNG), the dense-oracle truncation-bias curve (a Python Euler loop
    over marginal_velocity) and a large-batch generate that then formats
    many CSV rows.  The per-seed sampler loop and the MLP barely run.

    Known defect, reported as it stands: on seed-code runs over seeds 0-19,
    oracle-check exits 3 on seeds 4, 7, 10, 11 and 19
    (InsufficientSamplesError, 2-D probes far in the tail, ESS down to 1.9)
    and on seed 15 (max_z 3.12 > 3).  These count as failed operations, so
    error_rate here starts near 0.3 (6 of 20) times the oracle-check share
    of the operations.
    """

    name = "oracle"
    probes = 35  # 25 one-dimensional and 10 two-dimensional probes per oracle check

    def inputs(self, fl, seed: int, size: Size, out_dir: Path) -> dict:
        G = fl.gaussian.GaussianSpec
        checks = []
        for j in range(size.oracle_seeds):
            s = derive(seed, f"oracle-check/{j}")
            checks.append((f"oracle-check[seed={s}]", out_dir / f"oracle-check-{j}", [
                "oracle-check", "--out-dir", str(out_dir / f"oracle-check-{j}"),
                "--n", str(size.oracle_n), "--seed", str(s)]))
        gen_dir = out_dir / "generate"
        return {
            "checks": checks,
            "mc_n": size.oracle_n,
            "src2": G.isotropic(0.0, 1.0, dim=2),
            "tar2": G.isotropic(2.0, 0.25, dim=2),
            "bias_grid": size.bias_grid,
            "gen_n": size.generate_n,
            "gen_dir": gen_dir,
            "generate_argv": [
                "generate", "--out-dir", str(gen_dir), "--analytic", "spec=2,1", "--dim", "2",
                "--T", str(size.generate_T), "--n", str(size.generate_n),
                "--seed", str(derive(seed, "generate-seed")),
            ],
            # fitted_w2 of n draws: the T=200 Euler bias (0.0083 measured at
            # n = 1e6) plus six standard errors sqrt(dim / n) of the fitted
            # mean; seed-code runs gave 0.015-0.026 at n = 1e4 and
            # 0.008-0.015 at n = 1e5.
            "w2_bound": 0.01 + 6.0 * math.sqrt(2 / size.generate_n),
        }

    def record(self, inp: dict) -> dict:
        return {
            "argv": [argv for _, _, argv in inp["checks"]] + [inp["generate_argv"]],
            "bias_curve_plot": "src N(0, I2), tar N(2, 0.25 I2), "
                               f"grid_steps={inp['bias_grid']}",
            "fitted_w2_bound": inp["w2_bound"],
        }

    def run(self, fl, inp: dict, log: PassLog) -> dict:
        h = fl.harness
        for name, _, argv in inp["checks"]:
            log.cli(name, "bulk", fl.cli.cli_main, argv)
        curve = []
        inner = h.truncation_bias

        def probe(src, tar, x_src, t_max, eps, grid):
            bias = inner(src, tar, x_src, t_max, eps, grid)
            curve.append((t_max, grid, bias.array.copy()))
            return bias

        h.truncation_bias = probe  # what bias_curve_plot resolves
        try:
            log.call("bias_curve_plot", "loop", h.bias_curve_plot, inp["src2"], inp["tar2"],
                     grid_steps=inp["bias_grid"])
        finally:
            h.truncation_bias = inner
        log.cli("generate", "bulk", fl.cli.cli_main, inp["generate_argv"])
        return {"curve": curve}

    def check(self, inp: dict, res: dict, log: PassLog) -> None:
        for name, out_dir, _ in inp["checks"]:
            if log.ok(name):
                rows = _csv_rows(out_dir / "oracle_check.csv")
                if len(rows) != self.probes or not all(r["agree"] == "1" for r in rows):
                    log.fail(name, f"{len(rows)} probes, not all agreeing")
        if log.ok("bias_curve_plot"):
            curve = res["curve"]
            at_one = [b for t, _, b in curve if float(t) == 1.0]
            if (len(curve) != 10 or not all(np.all(np.isfinite(b)) for _, _, b in curve)
                    or len(at_one) != 1 or np.any(at_one[0] != 0.0)):
                log.fail("bias_curve_plot", "bias curve not finite, or not exactly 0 at t_max=1")
        if log.ok("generate"):
            with open(inp["gen_dir"] / "samples.csv") as fh:
                rows = sum(1 for _ in fh) - 1
            w2 = _summary(inp["gen_dir"] / "summary.csv")[("generate", "/", "fitted_w2")][0]
            if rows != inp["gen_n"] or not w2 <= inp["w2_bound"]:
                log.fail("generate", f"{rows} rows, fitted_w2 {w2} (bound {inp['w2_bound']:.4g})")

    def rates(self, inp: dict, res: dict, log: PassLog) -> dict:
        out = {}
        ok = [log.op(name).seconds for name, _, _ in inp["checks"] if log.ok(name)]
        if ok:
            out["mc_samples_per_s"] = _rate(len(ok) * self.probes * inp["mc_n"], sum(ok))
        if log.ok("bias_curve_plot"):
            steps = sum(grid_steps(t, g) for t, g, _ in res["curve"])
            out["bias_grid_steps_per_s"] = _rate(steps, log.op("bias_curve_plot").seconds)
        if log.ok("generate"):
            out["generate_rows_per_s"] = _rate(inp["gen_n"], log.op("generate").seconds)
        return out


WORKLOADS = {w.name: w for w in (AnalyticSweep(), AvModel(), Oracle())}
