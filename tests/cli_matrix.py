"""The 12-run CLI matrix: every subcommand at or near its defaults, with the
sha256 of each of the 25 data files it writes, to check that a change leaves
the CLI's output bytes unchanged.

The runs: ``edit --seeds 20 --plot`` (edit20); on the pair ``src=0,1
tar=2,0.25``: ``edit --noise random`` (edit_random), ``--mode edit
--cfg-scale 1.5`` (edit_mode), ``--mode edit --noise random --dim 3 --plot``
(edit_mode_rand) and ``--cfg-scale 0.5 --n-max 12`` (edit_cfg); ``ablation
--seeds 16 --plot`` at its default pair; ``generate``; ``train --n 256
--epochs 3``; ``avedit`` at the defaults and at ``--skip 0`` on that model;
``report --from edit20/edits.csv``; ``oracle-check --seed 0``. Manifests are
not hashed: they hold the creation time.

Run: ``PYTHONPATH=src python tests/cli_matrix.py [OUT_DIR]`` (point
PYTHONPATH at another checkout's ``src`` to check that one). It runs the
matrix in process through ``cli_main``, in OUT_DIR or a temporary
directory, prints each file's digest with a mark where it differs from
RECORDED, and exits 1 if any differs. RECORDED was taken with numpy 2.4 and
OpenBLAS on x86-64; the ``train`` files and the ``avedit`` files that use
its model may differ under another BLAS build, which rounds the MLP's
matrix products differently (as noted in ``tests/test_mlp.py``).
``tests/test_cli_matrix.py`` asserts the same digests under pytest.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from flowlab.cli import cli_main

PAIR = ["--analytic", "src=0,1", "tar=2,0.25"]

# (output directory, argv after the subcommand's --out-dir)
RUNS = [
    ("edit20", ["edit", "--seeds", "20", "--plot"]),
    ("edit_random", ["edit", *PAIR, "--noise", "random"]),
    ("edit_mode", ["edit", *PAIR, "--mode", "edit", "--cfg-scale", "1.5"]),
    ("edit_mode_rand", ["edit", *PAIR, "--mode", "edit", "--noise", "random", "--dim", "3",
                        "--plot"]),
    ("edit_cfg", ["edit", *PAIR, "--cfg-scale", "0.5", "--n-max", "12"]),
    ("ablation", ["ablation", "--seeds", "16", "--plot"]),
    ("generate", ["generate"]),
    ("train", ["train", "--n", "256", "--epochs", "3"]),
    ("avedit", ["avedit", "--model", "{out}/train/model.bin"]),
    ("avedit_skip0", ["avedit", "--model", "{out}/train/model.bin", "--skip", "0"]),
    ("report", ["report", "--from", "{out}/edit20/edits.csv"]),
    ("oracle", ["oracle-check", "--seed", "0"]),
]

RECORDED = {
    "ablation/bias_vs_tmax.svg": "4b8d7b3efa998de93cd006a6eabc204b0907ac7c07893c451308caa1dfb6147a",
    "ablation/summary.csv": "4094e5fbf2cf421647eb0b6b5d41c532cd984eb769b8f706059e52799951f82e",
    "avedit/avedits.csv": "dcc4c021c5e796abf9e8aad0370aacb7236bedaec86441ca8673d5f93fc8b36c",
    "avedit/summary.csv": "7d9f2fd688d56e9f30b77f5919369dcdd8ca161f298422932cb11905c4a224c2",
    "avedit_skip0/avedits.csv": "02a52b0b85c0f217a49d8ab78ee2388fb2088dc5af541cb1e0b5c4bae282d9e9",
    "avedit_skip0/summary.csv": "4e8f126553b6d983c8c85ee088ab2b36f361d398ecb01210c25f5f4496ec7bff",
    "edit20/edits.csv": "a837ff67f10598517fd992308e77ab218398172285536ba0f05d89132f38b562",
    "edit20/summary.csv": "c4c82353e220546acada51b25f235b232071353fe84ab96160d3f10c42b16098",
    "edit20/trajectories.svg": "3e5f84d91096db3412b98cc5160bc0902edbebdab63ef9fcff963c6bb1955fd1",
    "edit_cfg/edits.csv": "d888ddf5bf38abb2956f8993d2c391c6c66ea5d0d86fecb1a6e5a3d6d5ffb902",
    "edit_cfg/summary.csv": "7476dc9dd23c022f3f81f2c10a9ceae3fca860feafaa2ceaa4a77ba6c5f3227f",
    "edit_mode/edits.csv": "39d27b23d74fe75fb3f6b096145bdbbbcbea3eda92d673a217383d0d6353c021",
    "edit_mode/summary.csv": "a70f20e630035d36813a55d46f31a510bc7a2e16067747b48afb3c4e19578143",
    "edit_mode_rand/edits.csv": "957e9cb8f4941ee73da2a5f6e4551334292752b92b2df7c8358061f083203fb6",
    "edit_mode_rand/summary.csv": "e314bacd15f3e1836b537dd06a552568c5c1e46f688eaeace2ebdd715a091696",
    "edit_mode_rand/trajectories.svg":
        "31676ab15f80e2664c7abc298c305ef222a6dd92407c52854066ae9651092e1c",
    "edit_random/edits.csv": "c6a760598525a76d8560288cd337974382f9db411408bdd3c9dbb68480fa8caa",
    "edit_random/summary.csv": "20b7ad6dbd88254cd8bdf08701d1b3619dc5e4820a40da5ee249106887cf974d",
    "generate/samples.csv": "582737a5425d95196268de2b35a2244805ce95b5348ef60f0bd8af48788cddba",
    "generate/summary.csv": "3781a4b3a9ef035c4db11d67985e17fbd29fbf31368a26f5fc92987b73722346",
    "oracle/oracle_check.csv": "7e2ac72632ec7146ed2913134976cafb0355cba2aab9aa4584bef0bb5a7a1198",
    "report/summary.csv": "64d6b61e66ef40bbbbef475c7001f96719d996dcb89dfb15cc64bfec1baa2a38",
    "train/dataset.csv": "47c7a0e9688c25432d6e40d784245157b5cdd756c9ee985bb7fd2c641698f4cb",
    "train/loss_curve.csv": "312652235678fcb08f739ac4ffbf54983b2289fa7fcaeb6399fc9680a7f9cff6",
    "train/model.bin": "c2ac24b50a160ee4f205aad0ac9c201312d7867b10d3fad89b7505564841e9f5",
}


def run_matrix(out: Path) -> dict[str, int]:
    """Run the 12 CLI calls into ``out``, one directory each; returns each
    run's exit code. Their stdout is swallowed."""
    codes = {}
    for name, argv in RUNS:
        argv = [a.format(out=out) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            codes[name] = cli_main([argv[0], "--out-dir", str(out / name), *argv[1:]])
    return codes


def digests(out: Path) -> dict[str, str]:
    """sha256 of every file under ``out`` except the manifests, keyed by
    its path relative to ``out``."""
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tmp)
        codes = run_matrix(out)
        found = digests(out)
    for name in sorted(set(found) | set(RECORDED)):
        mark = "" if found.get(name) == RECORDED.get(name) else "  DIFFERS"
        print(f"{name} {found.get(name, 'missing')}{mark}")
    failed = {name: code for name, code in codes.items() if code}
    if failed:
        print(f"nonzero exit codes: {failed}")
    sys.exit(0 if found == RECORDED and not failed else 1)
