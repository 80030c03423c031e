"""In-memory span tracing of flowlab's public functions, and the per-layer
metrics computed from the spans.

``Tracer.install`` replaces each traced function by a wrapper under every
name a flowlab module binds it to (``flowlab.harness.marginal_velocity``,
``flowlab.metrics.marginal_velocity``, ...), and each traced method on its
class (``CounterRng.standard_normal``, ``MlpDualField.velocities``, ...).
A span records its name, start, end, parent span, whether it raised, and a
work count taken from the call's arguments or result (words drawn, rows,
grid steps).  ``uninstall`` puts the originals back.  No flowlab source is
changed.

A layer is the flowlab module that defines the function; its self time is
the duration of its spans minus the time of their child spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("rng", "gaussian", "samplers", "mlp", "metrics", "harness", "data", "svgplot", "cli")

# Functions traced under every name a flowlab module binds them to.
FUNCTIONS = {
    "rng": ("derive_seed",),
    "gaussian": ("marginal_velocity", "mc_conditional_velocity", "sample_array", "ot_map",
                 "w2_gaussian"),
    "samplers": ("flowedit", "omniedit_sync", "omniedit_av", "generate"),
    "mlp": ("train", "mlp_init", "batch_loss_and_grads", "forward_array", "save_model",
            "load_model"),
    "metrics": ("truncation_bias", "empirical_moments", "smoothness", "structure_distance"),
    "harness": ("run_ablation", "run_edit_sweep", "sweep_reports", "run_oracle_check",
                "run_generate_sweep", "train_av_model", "run_avedit_sweep", "write_per_seed_csv",
                "write_avedit_csv", "emit_report", "summarize_per_seed_csv", "bias_curve_plot",
                "trajectory_plot", "pair_field", "default_av_params"),
    "data": ("synth_av_dataset",),
    "svgplot": ("line_plot",),
    "cli": ("cli_main",),
}

# Methods traced on their class.
METHODS = {
    "rng": (("CounterRng", "standard_normal"), ("CounterRng", "uniform")),
    "gaussian": (("GaussianConditionalField", "velocity"), ("AnalyticDualField", "velocities")),
    "mlp": (("MlpDualField", "velocities"), ("MlpVelocityField", "velocity")),
    "data": (("CoupledAvDataset", "joint_pairs"), ("CoupledAvDataset", "to_csv")),
}

# Velocity-field methods: a call from a sampler span is one NFE.
VELOCITY_METHODS = {"GaussianConditionalField.velocity", "AnalyticDualField.velocities",
                    "MlpDualField.velocities", "MlpVelocityField.velocity"}
CSV_WRITERS = {"write_per_seed_csv", "write_avedit_csv", "emit_report"}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _rows(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1], dtype=np.int64)) if len(shape) > 1 else 1


def grid_steps(t_max: float, grid: int) -> int:
    """Euler steps of one ``truncation_bias`` call: a run to t_max and one
    over the full horizon."""
    return max(int(round(grid * float(t_max))), 1) + max(int(round(grid)), 1)


def _written_bytes(args, kwargs, result, out_dir_index: int) -> int:
    out_dir = Path(_arg(args, kwargs, out_dir_index, "out_dir"))
    names = [result] if isinstance(result, str) else list(result or ())
    return sum((out_dir / name).stat().st_size for name in names)


def _meters(defaults: dict):
    """Work count per traced short name: f(args, kwargs, result) -> number or
    (number, variant)."""
    return {
        "CounterRng.standard_normal": lambda a, k, r: 2 * int(_arg(a, k, 1, "n")),
        "CounterRng.uniform": lambda a, k, r: (
            1 if _arg(a, k, 1, "n") is None else int(_arg(a, k, 1, "n"))),
        "marginal_velocity": lambda a, k, r: (
            _rows(_arg(a, k, 1, "x")), "full" if not _arg(a, k, 0, "spec").is_diagonal else "diag"),
        "forward_array": lambda a, k, r: _rows(np.atleast_2d(_arg(a, k, 1, "x"))),
        "batch_loss_and_grads": lambda a, k, r: _rows(np.atleast_2d(_arg(a, k, 1, "x"))),
        "truncation_bias": lambda a, k, r: grid_steps(
            _arg(a, k, 3, "t_max"), _arg(a, k, 5, "grid_steps", defaults["truncation_bias"])),
        "write_per_seed_csv": lambda a, k, r: (len(a[0]), _written_bytes(a, k, r, 2)),
        "write_avedit_csv": lambda a, k, r: (len(a[0]), _written_bytes(a, k, r, 2)),
        "emit_report": lambda a, k, r: (len(a[0]), _written_bytes(a, k, r, 1)),
    }


class Tracer:
    """Span recorder for one process.  Spans live in parallel lists and are
    cleared with ``reset``; ``spans()`` returns them for aggregation."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.name: list[str] = []
        self.short: list[str] = []
        self.layer: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.error: list[bool] = []
        self.units: list = []
        self._current = -1

    def _wrap(self, fn, name: str, short: str, layer: str, meter):
        tracer = self
        clock = perf_counter

        def traced(*args, **kwargs):
            idx = len(tracer.name)
            parent = tracer._current
            tracer.name.append(name)
            tracer.short.append(short)
            tracer.layer.append(layer)
            tracer.parent.append(parent)
            tracer.error.append(False)
            tracer.units.append(0)
            tracer.end.append(0.0)
            tracer._current = idx
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.end[idx] = clock()
                tracer.error[idx] = True
                raise
            else:
                tracer.end[idx] = clock()
                if meter is not None:
                    tracer.units[idx] = meter(args, kwargs, result)
                return result
            finally:
                tracer._current = parent

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap the traced functions and methods of the imported flowlab."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "flowlab" or name.startswith("flowlab."))}
        defaults = {"truncation_bias": inspect.signature(
            modules["flowlab.metrics"].truncation_bias).parameters["grid_steps"].default}
        meters = _meters(defaults)
        for layer, names in FUNCTIONS.items():
            home = modules[f"flowlab.{layer}"]
            for short in names:
                original = getattr(home, short)
                for mod_name, mod in modules.items():
                    if getattr(mod, short, None) is original:
                        wrapper = self._wrap(original, f"{mod_name}.{short}", short, layer,
                                             meters.get(short))
                        self._patch(mod, short, wrapper)
        for layer, pairs in METHODS.items():
            home = modules[f"flowlab.{layer}"]
            for cls_name, method in pairs:
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                name = f"{cls_name}.{method}"
                self._patch(cls, method, self._wrap(original, name, name, layer, meters.get(name)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def spans(self) -> dict:
        """The recorded spans as columns; times relative to the first start."""
        t0 = self.start[0] if self.start else 0.0
        return {
            "name": list(self.name),
            "parent": list(self.parent),
            "start_s": [t - t0 for t in self.start],
            "end_s": [t - t0 for t in self.end],
            "error": [int(e) for e in self.error],
        }


# name -> unit; the full per-layer catalogue.
LAYER_UNITS = {
    "rng.self_s": "s",
    "rng.calls": "count",
    "rng.words": "count",
    "rng.ns_per_word": "ns",
    "gaussian.self_s": "s",
    "gaussian.calls": "count",
    "gaussian.rows": "count",
    "gaussian.us_per_call": "us",
    "gaussian.full_us_per_call": "us",
    "gaussian.errors": "count",
    "samplers.self_s": "s",
    "samplers.nfe": "count",
    "samplers.us_per_nfe": "us",
    "mlp.self_s": "s",
    "mlp.fwd_rows": "count",
    "mlp.bwd_rows": "count",
    "mlp.ns_per_fwd_row": "ns",
    "mlp.ns_per_bwd_row": "ns",
    "mlp.eval_share": "ratio",
    "metrics.self_s": "s",
    "metrics.grid_steps": "count",
    "metrics.us_per_grid_step": "us",
    "harness.self_s": "s",
    "harness.csv_rows": "count",
    "harness.bytes_written": "bytes",
    "harness.us_per_csv_row": "us",
    "data.self_s": "s",
    "svgplot.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# Counts that must repeat exactly for identical inputs.
COUNT_METRICS = ("rng.calls", "rng.words", "gaussian.calls", "gaussian.rows", "gaussian.errors",
                 "samplers.nfe", "mlp.fwd_rows", "mlp.bwd_rows", "metrics.grid_steps",
                 "harness.csv_rows", "harness.bytes_written")


def _ratio(num: float, den: float, scale: float):
    return num / den * scale if den else None


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of the spans recorded since the last reset.

    Metrics whose layer did no work (a zero denominator, or a layer with no
    spans) are left out.  ``_root_span_s`` is the total duration of the
    spans without a parent; the layer self times add up to it.
    """
    n = len(tracer.name)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0.0] * n
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            child[p] += dur[i]
    self_time = {layer: 0.0 for layer in LAYERS}
    spans_in = {layer: 0 for layer in LAYERS}
    total = {}
    units = {}
    calls = {}
    for i in range(n):
        layer = tracer.layer[i]
        self_time[layer] += dur[i] - child[i]
        spans_in[layer] += 1
        short = tracer.short[i]
        u = tracer.units[i]
        key = short
        if isinstance(u, tuple) and isinstance(u[1], str):
            key, u = f"{short}[{u[1]}]", u[0]
        total[key] = total.get(key, 0.0) + dur[i]
        calls[key] = calls.get(key, 0) + 1
        units[key] = _add(units.get(key, 0), u)

    def first(key, i=0):
        u = units.get(key, 0)
        return u[i] if isinstance(u, tuple) else (u if i == 0 else 0)

    words = first("CounterRng.standard_normal") + first("CounterRng.uniform")
    word_time = total.get("CounterRng.standard_normal", 0.0) + total.get("CounterRng.uniform", 0.0)
    nfe = 0
    for i in range(n):
        p = tracer.parent[i]
        if tracer.short[i] in VELOCITY_METHODS and p >= 0 and tracer.layer[p] == "samplers":
            nfe += 1
    mv_calls = calls.get("marginal_velocity[diag]", 0) + calls.get("marginal_velocity[full]", 0)
    mv_rows = first("marginal_velocity[diag]") + first("marginal_velocity[full]")
    csv_rows = sum(first(w) for w in CSV_WRITERS)
    csv_bytes = sum(first(w, 1) for w in CSV_WRITERS)
    csv_time = sum(total.get(w, 0.0) for w in CSV_WRITERS)
    train_time = total.get("train", 0.0)
    eval_time = sum(dur[i] for i in range(n)
                    if tracer.short[i] == "forward_array" and tracer.parent[i] >= 0
                    and tracer.short[tracer.parent[i]] == "train")
    gauss_errors = sum(1 for i in range(n) if tracer.error[i] and tracer.layer[i] == "gaussian")

    out = {
        "rng.calls": calls.get("CounterRng.standard_normal", 0) + calls.get("CounterRng.uniform", 0)
        + calls.get("derive_seed", 0),
        "rng.words": words,
        "rng.ns_per_word": _ratio(word_time, words, 1e9),
        "gaussian.calls": mv_calls,
        "gaussian.rows": mv_rows,
        "gaussian.us_per_call": _ratio(total.get("marginal_velocity[diag]", 0.0),
                                       calls.get("marginal_velocity[diag]", 0), 1e6),
        "gaussian.full_us_per_call": _ratio(total.get("marginal_velocity[full]", 0.0),
                                            calls.get("marginal_velocity[full]", 0), 1e6),
        "gaussian.errors": gauss_errors,
        "samplers.nfe": nfe,
        "samplers.us_per_nfe": _ratio(self_time["samplers"], nfe, 1e6),
        "mlp.fwd_rows": first("forward_array"),
        "mlp.bwd_rows": first("batch_loss_and_grads"),
        "mlp.ns_per_fwd_row": _ratio(total.get("forward_array", 0.0), first("forward_array"), 1e9),
        "mlp.ns_per_bwd_row": _ratio(total.get("batch_loss_and_grads", 0.0),
                                     first("batch_loss_and_grads"), 1e9),
        "mlp.eval_share": _ratio(eval_time, train_time, 1.0),
        "metrics.grid_steps": first("truncation_bias"),
        "metrics.us_per_grid_step": _ratio(total.get("truncation_bias", 0.0),
                                           first("truncation_bias"), 1e6),
        "harness.csv_rows": csv_rows,
        "harness.bytes_written": csv_bytes,
        "harness.us_per_csv_row": _ratio(csv_time, csv_rows, 1e6),
    }
    for layer in LAYERS:
        if spans_in[layer]:
            out[f"{layer}.self_s"] = self_time[layer]
    root_time = sum(dur[i] for i in range(n) if tracer.parent[i] < 0)
    out["_root_span_s"] = root_time
    return {k: v for k, v in out.items() if v is not None and not _nan(v)}


def _add(a, b):
    if isinstance(b, tuple):
        a = a if isinstance(a, tuple) else (a, 0)
        return tuple(x + y for x, y in zip(a, b))
    return a + b


def _nan(v) -> bool:
    return isinstance(v, float) and math.isnan(v)
