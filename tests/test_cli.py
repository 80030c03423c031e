import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import flowlab
from flowlab import cli
from flowlab.cli import _build_parser, _defaults, _resolve_options, cli_main
from flowlab.gaussian import GaussianSpec
from flowlab.harness import config_hash, format_num, run_generate_sweep, write_samples_csv
from flowlab.mlp import mlp_init, save_model
from flowlab.rng import MAX_ENTRIES


def run_cli(*args):
    return cli_main(list(args))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestArgumentHandling:
    def test_unknown_flag_exits_2_with_usage(self, capsys):
        assert run_cli("edit", "--frobnicate") == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_cli("destroy") == 2
        assert "usage" in capsys.readouterr().err

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        code = run_cli(
            "edit", "--analytic", "src=banana", "tar=2,1",
            "--seeds", "2", "--out-dir", str(tmp_path),
        )
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_zero_dim_exits_2(self, tmp_path, capsys):
        code = run_cli("edit", "--dim", "0", "--seeds", "2", "--out-dir", str(tmp_path))
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_no_seeds_exits_2(self, tmp_path, seeds, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[edit]\nseeds = {seeds}\n")
        out = tmp_path / "o"
        for argv in (["edit", "--seeds", seeds], ["edit", "--config", str(cfg)],
                     ["avedit", "--seeds", seeds]):
            assert run_cli(*argv, "--out-dir", str(out)) == 2
            assert capsys.readouterr().err == "flowlab: config error: seed list must be non-empty\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "train", "avedit", "oracle-check", "report"])
    def test_plot_only_where_it_writes_a_plot(self, command, capsys):
        assert run_cli(command, "--plot") == 2
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--mode", "edit"), ("--noise", "random")])
    def test_ablation_runs_all_cells_without_mode_flags(self, flag, value, capsys):
        assert run_cli("ablation", flag, value) == 2
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("widths", ["a,b", ""], ids=["letters", "empty"])
    def test_train_bad_widths_exit_2(self, tmp_path, widths, capsys):
        assert run_cli("train", "--widths", widths, "--out-dir", str(tmp_path)) == 2
        assert "widths" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["spec=nan,1", "spec=inf,1", "spec=0,nan", "spec=0,inf"])
    def test_non_finite_spec_exits_2(self, tmp_path, spec, capsys):
        assert run_cli("generate", "--analytic", spec, "--n", "10", "--out-dir", str(tmp_path)) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_cfg_scale_exits_2(self, tmp_path, scale, capsys):
        code = run_cli("edit", "--cfg-scale", scale, "--seeds", "2", "--out-dir", str(tmp_path))
        assert code == 2
        assert "cfg_scale" in capsys.readouterr().err

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_learning_rate_exits_2(self, tmp_path, lr, capsys):
        code = run_cli("train", "--lr", lr, "--n", "64", "--epochs", "1", "--out-dir", str(tmp_path))
        assert code == 2
        assert "learning rate" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--src-class", "5"), ("--tar-class", "-1")])
    def test_avedit_class_out_of_range_exits_2(self, tmp_path, flag, value, capsys):
        model = tmp_path / "model.bin"
        save_model(mlp_init([8, 3], condition_dim=2, seed=0), model)
        code = run_cli("avedit", "--model", str(model), "--T", "4", "--skip", "2", "--seeds", "2",
                       flag, value, "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert "class" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["edit", "--seeds"], ["ablation", "--seeds"], ["edit", "--T"], ["ablation", "--T"],
        ["generate", "--T"], ["generate", "--n"], ["train", "--n"],
    ], ids=" ".join)
    def test_oversized_count_exits_2_before_work(self, tmp_path, monkeypatch, argv, capsys):
        # past sys.maxsize: no Python sequence or numpy axis is that long, so
        # the run stops before any work, and before anything is allocated
        def fail(*args, **kwargs):
            raise AssertionError("work ran on an oversized count")

        for name in WORK.values():
            monkeypatch.setattr(cli, name, fail)
        out = tmp_path / "o"
        assert run_cli(*argv, "1000000000000000000000", "--out-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("flowlab: config error: ") and err.count("\n") == 1
        assert "1000000000000000000000 is larger than" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["generate", "--n", "3", "--T"], ["edit", "--T"], ["ablation", "--T"],
        ["generate", "--n"], ["train", "--n"], ["oracle-check", "--n"],
        ["edit", "--seeds"], ["ablation", "--seeds"],
    ], ids=" ".join)
    def test_unallocatable_count_exits_2_before_allocating(self, tmp_path, argv, capsys):
        # below sys.maxsize, but its time grid, draw or edit record would hold
        # more than MAX_ENTRIES values: the run stops before that array is made
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            code = run_cli(*argv, "2000000000000000000", "--out-dir", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("flowlab: config error: ") and err.count("\n") == 1
        assert f"more than the limit of {MAX_ENTRIES}" in err
        assert peak < 2**20
        assert not out.exists()

    def test_rng_seed_is_not_a_count(self, tmp_path):
        assert run_cli("generate", "--n", "3", "--T", "2", "--seed", "1000000000000000000000",
                       "--out-dir", str(tmp_path)) == 0

    def test_ablation_mode_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[ablation]\nmode = edit\n")
        assert run_cli("ablation", "--config", str(cfg), "--out-dir", str(tmp_path / "o")) == 2
        assert "unknown config key 'mode'" in capsys.readouterr().err


# The first call of each subcommand's handler that does real work.
WORK = {
    "edit": "run_edit_sweep", "ablation": "run_ablation", "generate": "run_generate_sweep",
    "train": "train_av_model", "avedit": "load_model", "oracle-check": "run_oracle_check",
    "report": "summarize_per_seed_csv",
}


class TestOutputLocation:
    """An output location that cannot be written exits 2 before any work."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work ran before the output location was checked")

        for name in WORK.values():
            monkeypatch.setattr(cli, name, fail)

    @pytest.mark.parametrize("command", sorted(WORK))
    @pytest.mark.parametrize("below", [False, True])
    def test_out_dir_file_exits_2_before_work(self, tmp_path, no_work, command, below, capsys):
        blocker = tmp_path / "afile"
        blocker.write_text("file, not a directory")
        out_dir = blocker / "sub" if below else blocker
        assert run_cli(command, "--out-dir", str(out_dir)) == 2
        assert "config error: out_dir" in capsys.readouterr().err
        assert blocker.read_text() == "file, not a directory"

    @pytest.mark.parametrize("out", ["missing/m.bin", "adir"])
    def test_train_out_without_a_file_place_exits_2(self, tmp_path, no_work, out, capsys):
        (tmp_path / "adir").mkdir()
        run_dir = tmp_path / "run"
        assert run_cli("train", "--out", str(tmp_path / out), "--out-dir", str(run_dir)) == 2
        assert "config error: out" in capsys.readouterr().err
        assert not run_dir.exists() and not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("model", ["new/run/m.bin", "new/m.bin"])
    def test_train_out_may_go_where_out_dir_is_made(self, tmp_path, model):
        assert run_cli("train", "--n", "64", "--epochs", "1", "--widths", "8",
                       "--out", str(tmp_path / model), "--out-dir", str(tmp_path / "new/run")) == 0
        assert (tmp_path / model).is_file()


class TestEditCommand:
    def test_identity_edit_structure_distance_column(self, tmp_path):
        code = run_cli(
            "edit", "--analytic", "src=0,1", "tar=0,1", "--T", "12", "--skip", "4",
            "--mode", "target", "--noise", "estimated", "--seeds", "10",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        rows = read_csv(tmp_path / "edits.csv")
        assert len(rows) == 10
        assert all(float(r["structure_distance"]) < 1e-9 for r in rows)

    def test_full_run_outputs(self, tmp_path):
        code = run_cli(
            "edit", "--analytic", "src=0,1", "tar=2,1", "--T", "12", "--skip", "4",
            "--mode", "target", "--noise", "estimated", "--seeds", "8",
            "--out-dir", str(tmp_path), "--plot",
        )
        assert code == 0
        for name in ("edits.csv", "summary.csv", "manifest.json", "trajectories.svg"):
            assert (tmp_path / name).exists()
        svg = (tmp_path / "trajectories.svg").read_text()
        assert svg.count("<polyline") == 2
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "edits.csv" in manifest["outputs"]
        assert manifest["rng_algorithm"]

    def test_one_seed_skips_only_fitted_w2(self, tmp_path):
        code = run_cli(
            "edit", "--analytic", "src=0,1", "tar=2,1", "--T", "12", "--skip", "4",
            "--seeds", "1", "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert len(read_csv(tmp_path / "edits.csv")) == 1
        assert [r["metric"] for r in read_csv(tmp_path / "summary.csv")] == [
            "bias_norm", "smoothness", "structure_distance",
        ]

    @pytest.mark.parametrize("scale", ["100", "1e5"])
    def test_no_more_seeds_than_dims_skips_fitted_w2(self, tmp_path, scale):
        code = run_cli(
            "edit", "--seeds", "2", "--T", "4", "--n-max", "3", "--dim", "2",
            "--analytic", "src=0,1", "tar=2,0.25", "--cfg-scale", scale, "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert [r["metric"] for r in read_csv(tmp_path / "summary.csv")] == [
            "bias_norm", "smoothness", "structure_distance",
        ]

    @pytest.mark.parametrize("scale", ["1e154", "1e300"])
    def test_guidance_overflow_is_numerical_failure(self, tmp_path, scale, capsys):
        code = run_cli(
            "edit", "--seeds", "2", "--T", "4", "--n-max", "3", "--dim", "2",
            "--analytic", "src=0,1", "tar=2,0.25", "--cfg-scale", scale, "--out-dir", str(tmp_path),
        )
        assert code == 3
        assert "numerical failure: non-finite velocity at step" in capsys.readouterr().err

    def test_metric_overflow_is_numerical_failure(self, tmp_path, capsys):
        # finite outputs whose distances overflow: a numerical failure, not a config error
        code = run_cli(
            "edit", "--seeds", "2", "--T", "4", "--n-max", "3", "--dim", "2",
            "--analytic", "src=0,1", "tar=2,0.25", "--cfg-scale", "1e100", "--out-dir", str(tmp_path),
        )
        assert code == 3
        assert "numerical failure: metric bias_norm is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("scale, message", [
        ("1e100", "numerical failure: metric bias_norm is not finite"),
        ("1e154", "numerical failure: non-finite velocity at step 1 (t=0.25)"),
    ], ids=["1e100", "1e154"])
    def test_overflow_prints_only_the_flowlab_line(self, tmp_path, scale, message):
        # a fresh interpreter, so numpy's warnings would reach stderr as they
        # do for a user; only flowlab's own line may appear
        env = {**os.environ, "PYTHONPATH": str(Path(flowlab.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "flowlab.cli", "edit", "--seeds", "2", "--T", "4",
             "--n-max", "3", "--dim", "2", "--analytic", "src=0,1", "tar=2,0.25",
             "--cfg-scale", scale, "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 3
        assert proc.stderr == f"flowlab: {message}\n"

    def test_out_dir_collision_is_config_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        code = run_cli(
            "edit", "--analytic", "src=0,1", "tar=2,1", "--seeds", "2",
            "--out-dir", str(blocker),
        )
        assert code == 2


class TestAblationCommand:
    def test_byte_deterministic_summary(self, tmp_path):
        args = (
            "ablation", "--analytic", "src=0,1", "tar=2,1", "--T", "10", "--skip", "3",
            "--seeds", "12",
        )
        assert run_cli(*args, "--out-dir", str(tmp_path / "a")) == 0
        assert run_cli(*args, "--out-dir", str(tmp_path / "b")) == 0
        assert (tmp_path / "a" / "summary.csv").read_bytes() == (
            tmp_path / "b" / "summary.csv"
        ).read_bytes()
        rows = read_csv(tmp_path / "a" / "summary.csv")
        assert len(rows) == 16
        cells = {(r["seq_mode"], r["noise_mode"]) for r in rows}
        assert cells == {
            ("edit", "random"), ("edit", "estimated"), ("target", "random"),
            ("target", "estimated"),
        }

    def test_plot_writes_bias_curve(self, tmp_path):
        code = run_cli(
            "ablation", "--analytic", "src=0,1", "tar=2,1", "--T", "8", "--skip", "2",
            "--seeds", "4", "--dim", "1", "--out-dir", str(tmp_path), "--plot",
        )
        assert code == 0
        assert (tmp_path / "bias_vs_tmax.svg").exists()


class TestConfigFile:
    def test_file_values_used_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[edit]\n# comment line\nseeds = 4\nT = 10\nskip = 3\n")
        out_a = tmp_path / "a"
        assert run_cli("edit", "--config", str(cfg), "--out-dir", str(out_a)) == 0
        assert len(read_csv(out_a / "edits.csv")) == 4
        out_b = tmp_path / "b"
        assert run_cli(
            "edit", "--config", str(cfg), "--seeds", "2", "--out-dir", str(out_b)
        ) == 0
        assert len(read_csv(out_b / "edits.csv")) == 2

    def test_hash_ignores_formatting_but_not_values(self, tmp_path):
        plain = tmp_path / "plain.cfg"
        plain.write_text("[edit]\nseeds = 4\nT = 10\nskip = 3\n")
        spaced = tmp_path / "spaced.cfg"
        spaced.write_text("[edit]\n\n; a comment\nT=10\nseeds=4\nskip  =  3\n")
        changed = tmp_path / "changed.cfg"
        changed.write_text("[edit]\nseeds = 5\nT = 10\nskip = 3\n")
        hashes = {}
        for name, cfg in (("plain", plain), ("spaced", spaced), ("changed", changed)):
            out = tmp_path / name
            assert run_cli("edit", "--config", str(cfg), "--out-dir", str(out)) == 0
            hashes[name] = json.loads((out / "manifest.json").read_text())["config_hash"]
        assert hashes["plain"] == hashes["spaced"]
        assert hashes["plain"] != hashes["changed"]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[edit]\nwarp_speed = 9\n")
        assert run_cli("edit", "--config", str(cfg), "--out-dir", str(tmp_path / "o")) == 2

    def test_missing_config_file(self, tmp_path):
        assert run_cli("edit", "--config", str(tmp_path / "nope.cfg")) == 2

    def test_config_path_that_cannot_be_opened(self, tmp_path, capsys):
        # configparser's read() skips such a path; the run must not fall back to the defaults
        out = tmp_path / "o"
        code = run_cli("generate", "--config", str(tmp_path), "--n", "10", "--T", "4",
                       "--out-dir", str(out))
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_n_max_from_file_is_an_integer(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[edit]\nseeds = 3\nT = 20\nn_max = 14\n")
        assert run_cli("edit", "--config", str(cfg), "--out-dir", str(tmp_path / "file")) == 0
        assert run_cli(
            "edit", "--seeds", "3", "--T", "20", "--n-max", "14",
            "--out-dir", str(tmp_path / "flag"),
        ) == 0
        assert (tmp_path / "file" / "edits.csv").read_bytes() == (
            tmp_path / "flag" / "edits.csv"
        ).read_bytes()
        hashes = [
            json.loads((tmp_path / name / "manifest.json").read_text())["config_hash"]
            for name in ("file", "flag")
        ]
        assert hashes[0] == hashes[1]

    def test_non_numeric_value_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[edit]\nn_max = fourteen\n")
        assert run_cli("edit", "--config", str(cfg), "--out-dir", str(tmp_path / "o")) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b"seeds = 4\n",
        b"[edit]\nseeds = 4\nseeds = 5\n",
        b"[edit]\nseeds = 4\n[edit]\nT = 10\n",
        b"[edit]\n# caf\xe9 in Latin-1\nseeds = 2\n",
    ], ids=["no-section", "duplicate-key", "duplicate-section", "not-utf8"])
    def test_unreadable_file_is_config_error(self, tmp_path, content, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(content)
        assert run_cli("edit", "--config", str(cfg), "--out-dir", str(tmp_path / "o")) == 2
        assert "config error" in capsys.readouterr().err

    def test_values_are_literal(self, tmp_path):
        # no % interpolation: the value is the path as written
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[edit]\nseeds = 2\nout_dir = {tmp_path}/%foo\n")
        assert run_cli("edit", "--config", str(cfg)) == 0
        assert (tmp_path / "%foo" / "edits.csv").exists()

    @pytest.mark.parametrize("value, svg", [("On", True), ("no", False), ("maybe", None)])
    def test_plot_takes_only_boolean_words(self, tmp_path, value, svg, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[edit]\nseeds = 2\nplot = {value}\n")
        code = run_cli("edit", "--config", str(cfg), "--out-dir", str(tmp_path / "o"))
        if svg is None:
            assert code == 2
            assert "yes/no" in capsys.readouterr().err
        else:
            assert code == 0
            assert (tmp_path / "o" / "trajectories.svg").exists() == svg

    def test_plot_key_only_for_plotting_commands(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[generate]\nplot = 1\n")
        assert run_cli("generate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")) == 2


# Each subcommand's flags and config keys; a dropped or renamed one must fail.
FLAGS = {
    "edit": ["--T", "--analytic", "--cfg-scale", "--config", "--dim", "--mode", "--n-max",
             "--noise", "--out-dir", "--plot", "--seeds", "--skip"],
    "ablation": ["--T", "--analytic", "--cfg-scale", "--config", "--dim", "--n-max", "--out-dir",
                 "--plot", "--seeds", "--skip"],
    "generate": ["--T", "--analytic", "--config", "--dim", "--n", "--out-dir", "--seed"],
    "train": ["--batch", "--config", "--epochs", "--lr", "--n", "--out", "--out-dir", "--seed",
              "--widths"],
    "avedit": ["--T", "--config", "--model", "--n-max", "--out-dir", "--seeds", "--skip",
               "--src-class", "--tar-class"],
    "oracle-check": ["--config", "--n", "--out-dir", "--seed"],
    "report": ["--config", "--from", "--out-dir"],
}
CONFIG_KEYS = {
    "edit": ["T", "analytic", "cfg_scale", "dim", "mode", "n_max", "noise", "out_dir", "plot",
             "seeds", "skip"],
    "ablation": ["T", "analytic", "cfg_scale", "dim", "n_max", "out_dir", "plot", "seeds", "skip"],
    "generate": ["T", "analytic", "dim", "n", "out_dir", "seed"],
    "train": ["batch", "epochs", "lr", "n", "out", "out_dir", "seed", "widths"],
    "avedit": ["T", "model", "n_max", "out_dir", "seeds", "skip", "src_class", "tar_class"],
    "oracle-check": ["n", "out_dir", "seed"],
    "report": ["from_csv", "out_dir"],
}
# key: (flag, flag words, config-file text, resolved value), each value off its default
OTHER_VALUES = {
    "T": ("--T", ["7"], "7", 7),
    "analytic": ("--analytic", ["src=1,1", "tar=3,1"], "src=1,1 tar=3,1", ("src=1,1", "tar=3,1")),
    "batch": ("--batch", ["8"], "8", 8),
    "cfg_scale": ("--cfg-scale", ["1.5"], "1.5", 1.5),
    "dim": ("--dim", ["3"], "3", 3),
    "epochs": ("--epochs", ["2"], "2", 2),
    "from_csv": ("--from", ["a/edits.csv"], "a/edits.csv", "a/edits.csv"),
    "lr": ("--lr", ["0.01"], "0.01", 0.01),
    "mode": ("--mode", ["edit"], "edit", "edit"),
    "model": ("--model", ["a/m.bin"], "a/m.bin", "a/m.bin"),
    "n": ("--n", ["64"], "64", 64),
    "n_max": ("--n-max", ["5"], "5", 5),
    "noise": ("--noise", ["random"], "random", "random"),
    "out": ("--out", ["a/m.bin"], "a/m.bin", "a/m.bin"),
    "out_dir": ("--out-dir", ["a"], "a", "a"),
    "plot": ("--plot", [], "yes", True),
    "seed": ("--seed", ["5"], "5", 5),
    "seeds": ("--seeds", ["3"], "3", 3),
    "skip": ("--skip", ["2"], "2", 2),
    "src_class": ("--src-class", ["2"], "2", 2),
    "tar_class": ("--tar-class", ["0"], "0", 0),
    "widths": ("--widths", ["8,8"], "8,8", "8,8"),
}
GENERATE_ANALYTIC = ("--analytic", ["spec=1,3"], "spec=1,3", "spec=1,3")


def _resolved(argv):
    args = _build_parser().parse_args(argv)
    options = _resolve_options(args)
    return options, config_hash(args.command, options)


class TestFlagFileParity:
    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_flags_and_keys_are_unchanged(self, command):
        subparsers = _build_parser()._subparsers._group_actions[0].choices
        flags = {flag for action in subparsers[command]._actions for flag in action.option_strings}
        assert sorted(flags - {"-h", "--help"}) == FLAGS[command]
        assert sorted(_defaults(command)) == CONFIG_KEYS[command]

    @pytest.mark.parametrize("command, key", [
        (command, key) for command, keys in sorted(CONFIG_KEYS.items()) for key in keys
    ])
    def test_flag_and_file_resolve_alike(self, tmp_path, command, key):
        other = GENERATE_ANALYTIC if (command, key) == ("generate", "analytic") else OTHER_VALUES[key]
        flag, words, text, value = other
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[{command}]\n{key} = {text}\n")
        from_flag = _resolved([command, flag, *words])
        from_file = _resolved([command, "--config", str(cfg)])
        assert from_flag == from_file
        assert from_flag[0][key] == value != _defaults(command)[key]
        assert type(from_flag[0][key]) is type(value)

    @pytest.mark.parametrize("key, message", [
        ("mode", "unknown sequence_mode 'sideways'"),
        ("noise", "unknown noise_mode 'sideways'"),
    ])
    def test_bad_mode_gives_one_error_from_flag_and_file(self, tmp_path, key, message, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[edit]\n{key} = sideways\n")
        out = tmp_path / "o"
        assert run_cli("edit", f"--{key}", "sideways", "--seeds", "2", "--out-dir", str(out)) == 2
        from_flag = capsys.readouterr().err
        assert run_cli("edit", "--config", str(cfg), "--seeds", "2", "--out-dir", str(out)) == 2
        assert capsys.readouterr().err == from_flag == f"flowlab: config error: {message}\n"
        assert not out.exists()


class TestGenerateCommand:
    def test_samples_and_summary(self, tmp_path):
        code = run_cli(
            "generate", "--analytic", "spec=1,1", "--n", "500", "--T", "50",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "samples.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 500
        assert (tmp_path / "summary.csv").exists()

    def test_samples_file_spans_blocks(self, tmp_path):
        # more rows than one write block; every cell is format_num's text
        argv = ["--analytic", "spec=1,2", "--dim", "3", "--n", "4100", "--T", "10", "--seed", "4"]
        assert run_cli("generate", *argv, "--out-dir", str(tmp_path)) == 0
        samples, _ = run_generate_sweep(GaussianSpec.isotropic(1.0, 2.0, dim=3), 4100, 10, 4)
        expected = ["x_0,x_1,x_2"] + [",".join(format_num(v) for v in row) for row in samples]
        assert (tmp_path / "samples.csv").read_text() == "\n".join(expected) + "\n"

    @settings(max_examples=500, deadline=None)
    @given(v=st.floats(allow_nan=True, allow_infinity=True))
    def test_samples_cells_are_format_num(self, v):
        # samples.csv formats blocks of rows with a %-template; every other
        # CSV writes numbers with format_num
        with tempfile.TemporaryDirectory() as out_dir:
            write_samples_csv(np.array([[v, -v]]), out_dir)
            text = (Path(out_dir) / "samples.csv").read_text()
        assert text == f"x_0,x_1\n{format_num(v)},{format_num(-v)}\n"


class TestOracleCheckCommand:
    def test_quick_check_passes(self, tmp_path):
        code = run_cli(
            "oracle-check", "--n", "200000", "--out-dir", str(tmp_path)
        )
        assert code == 0
        assert (tmp_path / "oracle_check.csv").exists()

    def test_seed_with_a_far_tail_probe_passes(self, tmp_path):
        # seed 870001 draws a 2-D probe offset of norm 4.2, shortened to 1.5
        assert run_cli("oracle-check", "--seed", "870001", "--out-dir", str(tmp_path)) == 0


class TestTrainAveditReport:
    def test_train_then_avedit_then_report(self, tmp_path):
        train_dir = tmp_path / "train"
        code = run_cli(
            "train", "--n", "256", "--epochs", "8", "--batch", "64", "--widths", "16",
            "--out-dir", str(train_dir),
        )
        assert code == 0
        model = train_dir / "model.bin"
        assert model.exists()
        assert (train_dir / "loss_curve.csv").exists()
        assert (train_dir / "dataset.csv").exists()

        av_dir = tmp_path / "avedit"
        code = run_cli(
            "avedit", "--model", str(model), "--T", "10", "--skip", "2", "--seeds", "3",
            "--out-dir", str(av_dir),
        )
        assert code == 0
        assert len(read_csv(av_dir / "avedits.csv")) == 3
        summary = read_csv(av_dir / "summary.csv")
        assert {r["metric"] for r in summary} == {"class_swap_success_rate", "target_sigmas"}

        edit_dir = tmp_path / "edit"
        assert run_cli(
            "edit", "--analytic", "src=0,1", "tar=2,1", "--T", "10", "--skip", "3",
            "--seeds", "5", "--out-dir", str(edit_dir),
        ) == 0
        report_dir = tmp_path / "report"
        code = run_cli(
            "report", "--from", str(edit_dir / "edits.csv"), "--out-dir", str(report_dir)
        )
        assert code == 0
        rebuilt = read_csv(report_dir / "summary.csv")
        assert {r["metric"] for r in rebuilt} == {
            "bias_norm", "smoothness", "structure_distance",
        }

    def test_report_on_csv_without_experiment_column(self, tmp_path, capsys):
        bad = tmp_path / "not_edits.csv"
        bad.write_text("seq_mode,noise_mode,T,n_max,residual_norm\ntarget,estimated,10,7,0.5\n")
        code = run_cli("report", "--from", str(bad), "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert "experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_report_on_non_finite_cell_is_config_error(self, tmp_path, cell, capsys):
        edit_dir = tmp_path / "edit"
        assert run_cli("edit", "--analytic", "src=0,1", "tar=2,1", "--seeds", "3",
                       "--out-dir", str(edit_dir)) == 0
        rows = read_csv(edit_dir / "edits.csv")
        rows[1]["residual_norm"] = cell
        bad = tmp_path / "edits.csv"
        with open(bad, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        assert run_cli("report", "--from", str(bad), "--out-dir", str(tmp_path / "o")) == 2
        assert "non-finite residual_norm value" in capsys.readouterr().err

    def test_report_on_empty_file(self, tmp_path, capsys):
        bad = tmp_path / "edits.csv"
        bad.write_bytes(b"")
        assert run_cli("report", "--from", str(bad), "--out-dir", str(tmp_path / "o")) == 2
        assert "is not an edits.csv: no column experiment" in capsys.readouterr().err

    def test_report_on_non_utf8_file(self, tmp_path, capsys):
        bad = tmp_path / "edits.csv"
        bad.write_bytes(b"experiment,seq_mode\n\xff\xfe,target\n")
        assert run_cli("report", "--from", str(bad), "--out-dir", str(tmp_path / "o")) == 2
        assert "UTF-8" in capsys.readouterr().err

    def test_manifest_lists_model_written_elsewhere(self, tmp_path):
        model = tmp_path / "elsewhere" / "m.bin"
        model.parent.mkdir()
        run_dir = tmp_path / "run"
        assert run_cli("train", "--n", "64", "--epochs", "1", "--widths", "8",
                       "--out", str(model), "--out-dir", str(run_dir)) == 0
        outputs = json.loads((run_dir / "manifest.json").read_text())["outputs"]
        assert len(outputs) == 3
        assert all((run_dir / name).is_file() for name in outputs)
        assert model.resolve() in {(run_dir / name).resolve() for name in outputs}

    def test_avedit_without_model_is_config_error(self, tmp_path):
        assert run_cli("avedit", "--out-dir", str(tmp_path)) == 2

    def test_avedit_with_corrupt_model_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOTAMODEL")
        assert run_cli("avedit", "--model", str(bad), "--out-dir", str(tmp_path)) == 2

    @pytest.mark.parametrize("state_dim, condition_dim, names", [
        (2, 2, "state_dim 2"), (4, 2, "state_dim 4"), (3, 3, "condition_dim 3"),
    ], ids=["state-2", "state-4", "condition-3"])
    def test_avedit_with_mismatched_model_is_config_error(self, tmp_path, capsys, state_dim,
                                                          condition_dim, names):
        # a well-formed model file whose widths do not fit the 2-D video,
        # 1-D audio and 2 classes of the synthetic AV data
        model = tmp_path / "model.bin"
        save_model(mlp_init([8, state_dim], condition_dim=condition_dim, seed=0), model)
        code = run_cli("avedit", "--model", str(model), "--T", "4", "--skip", "2", "--seeds", "2",
                       "--out-dir", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("flowlab: config error: ") and err.count("\n") == 1
        assert names in err
        assert not (tmp_path / "o").exists()


# Every key of the edit run pinned by a flag, so that a config file can only
# fail to parse: it can change neither the run's size nor its output path.
PINNED_EDIT = {
    "--seeds": "2", "--T": "4", "--n-max": "3", "--dim": "2", "--cfg-scale": "1",
    "--mode": "target", "--noise": "estimated",
}
NUMERIC_FLAGS = {"--seeds": int, "--T": int, "--n-max": int, "--dim": int, "--skip": int,
                 "--cfg-scale": float}
EDIT_KEYS = ("analytic", "dim", "T", "skip", "n_max", "n-max", "mode", "noise", "cfg_scale",
             "seeds", "out_dir", "plot")

_ini_lines = st.lists(st.one_of(
    st.builds("{} = {}".format, st.sampled_from(EDIT_KEYS), st.text()),
    st.sampled_from(["[edit]", "[DEFAULT]", "[report]", "# note", ""]),
    st.text(),
))
_config_bytes = st.one_of(
    st.binary(),
    _ini_lines.map(lambda lines: "\n".join(["[edit]"] + lines).encode()),
    st.tuples(_ini_lines, st.binary()).map(
        lambda p: "\n".join(["[edit]"] + p[0]).encode() + p[1]),
)


def _pinned_edit(out_dir, **flags) -> list[str]:
    argv = ["edit", "--analytic", "src=0,1", "tar=2,0.25", "--out-dir", str(out_dir)]
    for flag, value in {**PINNED_EDIT, **flags}.items():
        argv += [flag, value]
    return argv


class TestGarbageInput:
    """Garbage in a config file or a flag ends in exit code 0 or 2, never a
    traceback."""

    @settings(max_examples=150, deadline=None)
    @given(content=_config_bytes)
    def test_any_config_file_bytes(self, content):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_bytes(content)
            assert cli_main(_pinned_edit(Path(tmp) / "o") + ["--config", str(cfg)]) in (0, 2)

    @settings(max_examples=150, deadline=None)
    @given(flag=st.sampled_from(sorted(NUMERIC_FLAGS)), text=st.one_of(
        st.text(), st.integers(-70, 70).map(str), st.floats().map(repr),
        st.sampled_from(["", " 3 ", "1_0", "0x10", "\u0663", "nan", "-inf", "1e309", "--seeds"]),
    ))
    def test_any_numeric_flag_text(self, flag, text):
        try:
            value = NUMERIC_FLAGS[flag](text)
        except ValueError:
            value = None
        # a number beyond +-64 is no garbage: it resizes the run (seeds, T,
        # dim) or can overflow the guided velocity (cfg-scale, exit code 3)
        assume(value is None or not math.isfinite(value) or abs(value) <= 64)
        with tempfile.TemporaryDirectory() as tmp:
            assert cli_main(_pinned_edit(Path(tmp) / "o", **{flag: text})) in (0, 2)
