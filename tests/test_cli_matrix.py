"""The 12-run CLI matrix of ``cli_matrix.py``, as a test: all 25 data files
keep the digests recorded there (the ``train`` ones assume OpenBLAS on
x86-64, as ``tests/test_mlp.py`` does), and every manifest keeps its
recorded ``outputs`` and, where recorded, its ``config_hash``. The ``train``
and ``avedit`` runs also keep their digests with one BLAS thread."""

import json
import os
import subprocess
import sys
from pathlib import Path

from cli_matrix import (
    RECORDED, RECORDED_HASHES, RECORDED_OUTPUTS, RUNS, digests, manifest_fields, run_matrix,
)

TESTS = Path(__file__).resolve().parent

# OpenBLAS reads its thread count when numpy loads, so the matrix's MLP runs
# (train and the avedit on its model) go to a fresh process.
_MLP_RUNS = ("train", "avedit")
_MLP_SCRIPT = """
import json, sys
from pathlib import Path
from cli_matrix import RUNS, digests, run_matrix
out = Path(sys.argv[1])
codes = run_matrix(out, [run for run in RUNS if run[0] in sys.argv[2:]])
print(json.dumps([codes, digests(out)]))
"""


def test_cli_matrix_outputs_are_unchanged(tmp_path):
    assert run_matrix(tmp_path) == {name: 0 for name, _ in RUNS}
    assert digests(tmp_path) == RECORDED
    assert manifest_fields(tmp_path) == (RECORDED_OUTPUTS, RECORDED_HASHES)


def test_mlp_outputs_do_not_depend_on_blas_threads(tmp_path):
    # the test above runs at the default thread count; the 256-row eval
    # product of train would cross OpenBLAS's threading threshold, and runs
    # in row blocks below it that must give the whole product's bits
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS),
                            os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", _MLP_SCRIPT, str(tmp_path), *_MLP_RUNS], env=env,
                          capture_output=True, text=True, check=True)
    codes, found = json.loads(proc.stdout)
    assert codes == {name: 0 for name in _MLP_RUNS}
    assert found == {k: v for k, v in RECORDED.items() if k.split("/")[0] in _MLP_RUNS}
