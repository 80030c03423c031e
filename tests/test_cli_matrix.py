"""The 12-run CLI matrix of ``cli_matrix.py``, as a test: all 25 data files
keep the digests recorded there (the ``train`` ones assume OpenBLAS on
x86-64, as ``tests/test_mlp.py`` does)."""

from cli_matrix import RECORDED, RUNS, digests, run_matrix


def test_cli_matrix_outputs_are_unchanged(tmp_path):
    assert run_matrix(tmp_path) == {name: 0 for name, _ in RUNS}
    assert digests(tmp_path) == RECORDED
