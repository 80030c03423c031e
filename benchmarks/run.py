"""flowlab benchmark: one workload, measured for a fixed time.

    python3 benchmarks/run.py --workload analytic-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a flowlab checkout; the package is imported from its
``src/`` directory.  Everything runs in this one process with BLAS capped
at ``nproc`` threads.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run; the last line of
standard output is one JSON object.  A fuller record (environment, resolved
argv, every metric of the workload, failed operations, and in a traced run
the spans of its fastest traced pass) is written under ``--work-dir``.  See
benchmarks/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cap_blas_threads() -> int:
    """Cap every BLAS/OpenMP pool at nproc (or a lower cap already set);
    must run before numpy is imported."""
    cap = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in BLAS_ENV:
        try:
            cap = min(cap, int(os.environ[var]))
        except (KeyError, ValueError):
            pass
    cap = max(int(cap or 1), 1)
    for var in BLAS_ENV:
        os.environ[var] = str(cap)
    return cap


BLAS_CAP = _cap_blas_threads()

import gzip  # noqa: E402  (numpy must see the thread cap)
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracing import COUNT_METRICS, LAYER_UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import E2E_METRICS, SIZES, WORKLOADS, PassLog, scaled_call  # noqa: E402

FLOWLAB_MODULES = ("cli", "harness", "gaussian", "samplers", "mlp", "metrics", "data", "svgplot",
                   "rng")


class SetupError(Exception):
    """The checkout cannot be benchmarked (no flowlab sources)."""


def import_flowlab() -> SimpleNamespace:
    """A fresh import of the checkout's flowlab (modules dropped first)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "flowlab", "__init__.py")):
        raise SetupError(f"no flowlab package under {src}")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "flowlab" or m.startswith("flowlab.")]:
        del sys.modules[name]
    pkg = importlib.import_module("flowlab")
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        raise SetupError(f"flowlab imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"flowlab.{m}") for m in FLOWLAB_MODULES})


def benchmark_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise SetupError(f"no {path}")
    with open(path) as fh:
        return json.load(fh)


def environment() -> dict:
    """Where a result was measured.  Called after the timed passes: py-cpuinfo
    takes about a second and runs helper processes that it waits for."""
    try:
        import cpuinfo

        info = cpuinfo.get_cpu_info()
        cpu = {k: info.get(k) for k in ("brand_raw", "arch", "count", "hz_advertised_friendly",
                                        "l2_cache_size", "l3_cache_size")}
    except Exception as exc:  # the record is informative; the result stands
        cpu = {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "git_sha": _git_sha(),
        "src_sha256": _tree_digest(os.path.join(ROOT, "src")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_thread_cap": BLAS_CAP,
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
    }


def _git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree (read, no git process)."""
    git = Path(ROOT, ".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_digest(top: str) -> str:
    """sha256 over the checkout's flowlab sources (path and bytes)."""
    h = hashlib.sha256()
    for path in sorted(Path(top).rglob("*.py")):
        h.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def set_up(workload, seed: int, size, run_dir: Path):
    """Fresh flowlab import, program inputs and an empty output directory."""
    fl = import_flowlab()
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    return fl, workload.inputs(fl, seed, size, run_dir)


def one_pass(workload, fl, inp: dict, tracer: Tracer | None):
    """Run one pass and check its outputs; returns (wall s, PassLog, the
    workload's results, layer metrics when traced)."""
    log = PassLog()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        t0 = perf_counter()
        res = workload.run(fl, inp, log)
        wall = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    layers = None
    if tracer is not None:
        layers = layer_metrics(tracer)
        layers["trace.wall_s"] = wall
        layers["bench.self_s"] = wall - layers.pop("_root_span_s")
    workload.check(inp, res, log)
    return wall, log, res, layers


def median_log(logs: list[PassLog]) -> PassLog:
    """Each operation at its median scaled time over ``logs``.  Every pass
    has the same inputs, so the same operations and outcomes."""
    ops = []
    for last in logs[-1].ops:
        same = [o for lg in logs for o in lg.ops if o.name == last.name]
        ops.append(dataclasses.replace(
            last, seconds=statistics.median(o.seconds for o in same),
            raw_seconds=statistics.median(o.raw_seconds for o in same)))
    return PassLog(ops=ops)


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement time; at least one pass (two when tracing) runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="problem sizes; 'tiny' is for the smoke test")
    parser.add_argument("--work-dir", default=os.path.join(ROOT, ".bench_runs"),
                        help="where run outputs and result records go")
    args = parser.parse_args(argv)
    run_dir = Path(args.work_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}"
                                  f"-pid{os.getpid()}")
    try:
        spec = benchmark_spec()
        return _measure(args, spec, WORKLOADS[args.workload], SIZES[args.size], run_dir)
    except SetupError as exc:
        print(f"benchmark: cannot set up: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(args, spec, workload, size, run_dir: Path) -> int:
    """Alternate set-ups and passes until the next pass would overrun
    ``--seconds``.  Every time is scaled to full host speed (see
    ``workloads.REFERENCES``) and is a median: ``setup_s`` over the
    set-ups, ``wall_s`` the sum over a pass's calls of each call's median
    over the passes, the throughputs from those medians."""
    tracer = Tracer() if args.trace else None
    setup_times: list[float] = []
    raw_setup: list[float] = []
    logs = {False: [], True: []}
    walls = {False: [], True: []}
    counts: list[dict] = []
    layers, spans, res = None, None, None
    start = perf_counter()
    traced = bool(args.trace)
    while True:
        for _ in range(size.setup_reps):
            setup, raw, scaled = scaled_call("loop", set_up, workload, args.seed, size, run_dir)
            if isinstance(setup, Exception):
                raise setup
            fl, inp = setup
            raw_setup.append(raw)
            setup_times.append(scaled)
        wall, log, res, pass_layers = one_pass(workload, fl, inp, tracer if traced else None)
        logs[traced].append(log)
        walls[traced].append(wall)
        if traced:
            # The layer metrics of the fastest traced pass, so they add up.
            if layers is None or wall < layers["trace.wall_s"]:
                layers, spans = pass_layers, tracer.spans()
            counts.append({k: pass_layers[k] for k in COUNT_METRICS})
            tracer.reset()
        need_both = args.trace and not (walls[True] and walls[False])
        if not need_both and perf_counter() - start + wall > args.seconds:
            break
        if args.trace:
            traced = not traced

    # Every pass repeats the same operations on the same inputs, so each
    # operation counts once, however many passes fit in the run: it failed
    # if any of its repeats failed.  attempted and failed then depend on the
    # seed alone.
    all_ops = [o for lg in logs[False] + logs[True] for o in lg.ops]
    attempted = list(dict.fromkeys(o.name for o in all_ops))
    failures: dict[str, str] = {}
    for o in all_ops:
        if (o.error or o.check) and o.name not in failures:
            failures[o.name] = o.error or o.check
    incorrect = {o.name for o in all_ops if o.error is None and o.check}
    typical = median_log(logs[False])
    e2e = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(o.seconds for o in typical.ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": len(failures) / len(attempted),
    }
    e2e |= {k: v for k, v in workload.rates(inp, res, typical).items() if v is not None}
    per_layer = {}
    if args.trace:
        per_layer = dict(layers)
        traced_wall = sum(o.seconds for o in median_log(logs[True]).ops)
        per_layer["trace.overhead_s"] = traced_wall - e2e["wall_s"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = per_layer if args.trace else e2e
    missing = [m["name"] for m in declared if m["name"] not in source]
    if missing:
        for name, reason in failures.items():
            print(f"failed: {name}: {reason.splitlines()[0]}", file=sys.stderr)
        print(f"benchmark: not measured (their calls failed): {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": not incorrect,
        "attempted": len(attempted),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in declared},
    }

    units = {k: v[0] for k, v in E2E_METRICS.items()} | LAYER_UNITS
    units |= {"trace.wall_s": "s", "bench.self_s": "s"}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "inputs": workload.record(inp),
        "passes": {
            "untraced_wall_s": walls[False], "traced_wall_s": walls[True],
            "raw_setup_s": raw_setup, "scaled_setup_s": setup_times,
            "raw_median_wall_s": _median(walls[False]),
            "raw_median_setup_s": _median(raw_setup),
            "median_call_s": {o.name: {"scaled": o.seconds, "raw": o.raw_seconds}
                              for o in typical.ops},
        },
        "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in e2e.items()},
        "per_layer": {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()},
        "counts_repeat": ({k: len({c[k] for c in counts}) == 1 for k in COUNT_METRICS}
                          if args.trace else None),
        "failures": [{"op": n, "reason": r} for n, r in failures.items()],
        "environment": environment(),
        "result": result,
    }
    out_dir = Path(args.work_dir, "results")
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if spans is not None:
        with gzip.open(out_dir / f"{stem}-spans.json.gz", "wt") as fh:
            json.dump(spans, fh)

    env = record["environment"]
    print(f"flowlab benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(walls[False])} untraced + {len(walls[True])} traced passes")
    print(f"environment: {env['cpu'].get('brand_raw')}, nproc {env['nproc']}, "
          f"blas cap {env['blas_thread_cap']}, python {env['python']}, numpy {env['numpy']}, "
          f"git {env['git_sha']}, src {env['src_sha256'][:12]}")
    for k, v in (per_layer if args.trace else e2e).items():
        print(f"  {k:28s} {v:16.6g} {units[k]}")
    for name, reason in failures.items():
        print(f"  failed: {name}: {reason.splitlines()[0]}")
    print(f"record: {out_dir / stem}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
