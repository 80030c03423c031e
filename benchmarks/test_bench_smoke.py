"""Smoke test of the benchmark at tiny sizes; no wall-clock bound.

Each run is a separate process, because the benchmark re-imports flowlab
and patches its functions while tracing."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import COUNT_METRICS, LAYER_UNITS  # noqa: E402
from workloads import E2E_METRICS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(work_dir: Path, workload: str, trace: int, seed: int = 7) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny", "--work-dir", str(work_dir)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((work_dir / "results" / f"{workload}-seed{seed}-trace{trace}.json")
                        .read_text())
    return result, record


def _check_result_line(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))


def test_untraced_result_line_has_every_declared_metric(tmp_path):
    result, record = _run(tmp_path, "analytic-sweep", trace=0)
    _check_result_line(result, SPEC["end_to_end"])
    assert record["end_to_end"]["error_rate"]["value"] == result["failed"] / result["attempted"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_runs(tmp_path, workload):
    first, rec1 = _run(tmp_path / "a", workload, trace=1)
    second, rec2 = _run(tmp_path / "b", workload, trace=1)
    _check_result_line(first, SPEC["per_layer"])

    # Every end-to-end metric of the workload is present with its unit.  A
    # throughput is absent only when every call it times failed, as tiny
    # oracle checks may (their ESS falls with n).
    e2e = rec1["end_to_end"]
    failed_ops = {f["op"] for f in rec1["failures"]}
    for name, (unit, where) in E2E_METRICS.items():
        if where != "all" and workload not in where:
            continue
        if name == "mc_samples_per_s" and name not in e2e:
            assert all(op in failed_ops for op in rec1["passes"]["median_call_s"]
                       if op.startswith("oracle-check"))
            continue
        assert e2e[name]["unit"] == unit, name

    layers = rec1["per_layer"]
    for name, item in layers.items():
        assert item["unit"] == LAYER_UNITS.get(name, "s"), name
    for name in COUNT_METRICS:
        assert rec1["counts_repeat"][name], name
        assert layers[name]["value"] == rec2["per_layer"][name]["value"], name

    # The layer self times plus the time outside every span add up to the
    # traced pass's wall time.
    self_times = [v["value"] for k, v in layers.items()
                  if k.endswith(".self_s") and k != "bench.self_s"]
    assert all(t >= 0.0 for t in self_times) and layers["bench.self_s"]["value"] >= 0.0
    total = sum(self_times) + layers["bench.self_s"]["value"]
    assert total == pytest.approx(layers["trace.wall_s"]["value"], rel=1e-9)
    assert "trace.overhead_s" in layers
