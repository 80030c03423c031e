"""Command-line interface.

Subcommands: train, generate, edit, avedit, ablation, oracle-check, report.
Options can come from a config file (INI-style, one section per subcommand;
see docs/config.md) with explicit command-line flags taking precedence.
Each option is declared once, in the ``_SUBCOMMANDS`` table: its flag, its
config key, its default and, through the default, its type. Each run writes
its outputs and a ``manifest.json`` into ``out_dir``. Exit codes: 0 success,
2 configuration error (an unusable output location exits 2 before any
work), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from pathlib import Path

import numpy as np

from .errors import (
    InsufficientSamplesError,
    InvalidConfigError,
    ModelFormatError,
    NumericalError,
    ShapeMismatchError,
    TrainingDivergedError,
)
from .gaussian import GaussianSpec
from .harness import (
    _write_csv,
    avedit_reports,
    bias_curve_plot,
    config_hash,
    default_av_params,
    emit_report,
    format_num,
    run_ablation,
    run_avedit_sweep,
    run_edit_sweep,
    run_generate_sweep,
    run_oracle_check,
    summarize_per_seed_csv,
    sweep_reports,
    train_av_model,
    trajectory_plot,
    write_avedit_csv,
    write_manifest,
    write_per_seed_csv,
    write_samples_csv,
)
from .mlp import MlpVelocityField, load_model, save_model
from .samplers import EditConfig

_CONFIG_ERRORS = (InvalidConfigError, ShapeMismatchError, ModelFormatError, OSError)
_NUMERICAL_ERRORS = (NumericalError, InsufficientSamplesError, TrainingDivergedError)


def _parse_spec(text: str, dim: int) -> GaussianSpec:
    """Parse 'name=mean,var' or 'mean,var' into an isotropic spec."""
    if dim < 1:
        raise InvalidConfigError(f"dim must be >= 1, got {dim}")
    body = text.split("=", 1)[1] if "=" in text else text
    try:
        mean_s, var_s = body.split(",")
        return GaussianSpec.isotropic(float(mean_s), float(var_s), dim=dim)
    except (ValueError, InvalidConfigError) as exc:
        raise InvalidConfigError(f"bad spec {text!r}; expected name=mean,var") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flowlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="INI config file; flags override its values")
        for key, (default, help_text) in options.items():
            flag = "--from" if key == "from_csv" else "--" + key.replace("_", "-")
            kind = _kind(key, default)
            if kind is bool:
                p.add_argument(flag, dest=key, action="store_true", default=None, help=help_text)
            elif kind is tuple:
                p.add_argument(flag, dest=key, nargs=len(default), help=help_text)
            else:
                p.add_argument(flag, dest=key, type=kind if kind in (int, float) else str,
                               help=help_text)
    return parser


def _kind(key: str, default) -> type:
    """An option's value type: its default's, except n_max, the one unset
    key that holds a number (the other unset keys hold text)."""
    return int if key == "n_max" else type(default)


def _defaults(command: str) -> dict:
    return {key: default for key, (default, _) in _SUBCOMMANDS[command][2].items()}


def _coerce(key: str, raw: str, default):
    kind = _kind(key, default)
    if kind is bool:
        value = configparser.ConfigParser.BOOLEAN_STATES.get(raw.strip().lower())
        if value is None:
            raise InvalidConfigError(f"{key} = {raw!r}: expected 1/0, yes/no, true/false or on/off")
        return value
    if kind is tuple:
        parts = raw.split()
        if len(parts) != len(default):
            raise InvalidConfigError(f"{key} expects two specs, got {raw!r}")
        return tuple(parts)
    if kind not in (int, float):
        return raw
    try:
        return kind(raw)
    except ValueError:
        raise InvalidConfigError(f"{key} = {raw!r} is not {kind.__name__}") from None


def _resolve_options(args: argparse.Namespace) -> dict:
    """Merge defaults, config-file section values, and explicit flags."""
    command = args.command
    defaults = _defaults(command)
    options = dict(defaults)
    if args.config:
        ini = configparser.ConfigParser(interpolation=None)
        ini.optionxform = str  # keys are case sensitive (T vs t)
        try:
            with open(args.config, encoding="utf-8") as fh:
                ini.read_file(fh)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise InvalidConfigError(f"config file {args.config} is not valid INI: {exc}") from None
        if ini.has_section(command):
            for key, raw in ini.items(command):
                key = key.replace("-", "_")
                if key not in defaults:
                    raise InvalidConfigError(f"unknown config key {key!r} for {command}")
                options[key] = _coerce(key, raw, defaults[key])
    for key in defaults:
        flag_value = getattr(args, key)
        if flag_value is not None:
            options[key] = tuple(flag_value) if isinstance(flag_value, list) else flag_value
    if options.get("seeds", 1) < 1:
        raise InvalidConfigError("seed list must be non-empty")
    # Every integer option but the RNG seed is a count or an index, and none
    # past sys.maxsize fits a Python sequence or a numpy axis.
    for key, value in options.items():
        if key != "seed" and type(value) is int and value > sys.maxsize:
            raise InvalidConfigError(f"{key} = {value} is larger than {sys.maxsize}")
    return options


def _check_output(options: dict) -> None:
    """Fail, creating nothing, when the outputs could not be written:
    ``out_dir`` is a file or lies under one, or ``train``'s ``out`` is a
    directory or has no directory to go in once ``out_dir`` is made."""
    out_dir = Path(os.path.abspath(options["out_dir"]))
    found = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not found.is_dir():
        raise InvalidConfigError(f"out_dir {options['out_dir']}: {found} is not a directory")
    if options.get("out"):
        out = Path(os.path.abspath(options["out"]))
        if out.is_dir() or not (out.parent.is_dir() or out.parent in (out_dir, *out_dir.parents)):
            raise InvalidConfigError(f"out {options['out']}: not a file path in a directory")


def _edit_config(options: dict, sequence_mode: str, noise_mode: str) -> EditConfig:
    n_max = options["n_max"] if options.get("n_max") is not None else options["T"] - options["skip"]
    return EditConfig(
        T=options["T"], n_max=n_max, sequence_mode=sequence_mode, noise_mode=noise_mode,
        cfg_scale=options.get("cfg_scale", 1.0),
    )


# Each handler runs its subcommand into out_dir and returns the names of the
# files it wrote there and its exit code; cli_main then writes the manifest.
def _cmd_edit(options: dict, out_dir: Path) -> tuple[list[str], int]:
    src, tar = (_parse_spec(text, options["dim"]) for text in options["analytic"])
    cfg = _edit_config(options, options["mode"], options["noise"])
    sweep = run_edit_sweep(src, tar, range(options["seeds"]), cfg)
    files = [write_per_seed_csv(sweep, cfg, out_dir, "edit")]
    plots = [("trajectories.svg", trajectory_plot(sweep, cfg))] if options["plot"] else None
    files += emit_report(sweep_reports(sweep, tar, cfg, "edit"), out_dir, options["plot"], plots)
    return files, 0


def _cmd_ablation(options: dict, out_dir: Path) -> tuple[list[str], int]:
    src, tar = (_parse_spec(text, options["dim"]) for text in options["analytic"])
    base = _edit_config(options, "target", "estimated")
    reports = run_ablation(src, tar, range(options["seeds"]), base.T, base.n_max, base.cfg_scale)
    plots = [("bias_vs_tmax.svg", bias_curve_plot(src, tar))] if options["plot"] else None
    return emit_report(reports, out_dir, options["plot"], plots), 0


def _cmd_generate(options: dict, out_dir: Path) -> tuple[list[str], int]:
    spec = _parse_spec(options["analytic"], options["dim"])
    samples, reports = run_generate_sweep(spec, options["n"], options["T"], options["seed"])
    out_dir.mkdir(parents=True, exist_ok=True)
    return [write_samples_csv(samples, out_dir)] + emit_report(reports, out_dir, False, None), 0


def _cmd_train(options: dict, out_dir: Path) -> tuple[list[str], int]:
    params = default_av_params()
    try:
        widths = tuple(int(w) for w in str(options["widths"]).split(","))
    except ValueError:
        raise InvalidConfigError(
            f"widths = {options['widths']!r}; expected comma-separated integers"
        ) from None
    field, report, dataset = train_av_model(
        params, n_samples=options["n"], widths=widths, epochs=options["epochs"],
        batch_size=options["batch"], learning_rate=options["lr"], seed=options["seed"],
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = Path(options["out"]) if options["out"] else out_dir / "model.bin"
    save_model(field.model, model_path)
    dataset.to_csv(out_dir / "dataset.csv")
    curve = ([i, format_num(v)] for i, v in enumerate(report.losses))
    print(
        f"trained model -> {model_path} (eval loss {format_num(report.initial_loss)} -> "
        f"{format_num(report.final_loss)})"
    )
    return [os.path.relpath(model_path, out_dir), "dataset.csv",
            _write_csv(out_dir, "loss_curve.csv", ["step", "eval_loss"], curve)], 0


def _cmd_avedit(options: dict, out_dir: Path) -> tuple[list[str], int]:
    if not options["model"]:
        raise InvalidConfigError("avedit requires --model (train one with `flowlab train`)")
    params = default_av_params()
    field = MlpVelocityField(load_model(options["model"]))
    cfg = _edit_config(options, "target", "estimated")
    sweep = run_avedit_sweep(field, params, range(options["seeds"]), cfg,
                             src_class=options["src_class"], tar_class=options["tar_class"])
    files = [write_avedit_csv(sweep, cfg, out_dir)]
    return files + emit_report(avedit_reports(sweep, cfg), out_dir, False, None), 0


def _cmd_oracle_check(options: dict, out_dir: Path) -> tuple[list[str], int]:
    rows, ok = run_oracle_check(n=options["n"], seed=options["seed"])
    out_dir.mkdir(parents=True, exist_ok=True)
    # Written by hand, not through csv.writer: its vector fields are quoted
    # although csv.writer would leave a space-separated field unquoted.
    header = ["dim", "t", "x", "closed", "mc", "stderr", "max_z", "ess", "agree"]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f'"{row[h]}"' if h in ("x", "closed", "mc", "stderr") else str(row[h])
                              for h in header))
    (out_dir / "oracle_check.csv").write_text("\n".join(lines) + "\n")
    if not ok:
        print("oracle check FAILED: closed form and Monte Carlo disagree", file=sys.stderr)
        return ["oracle_check.csv"], 3
    print(f"oracle check passed on {len(rows)} probes")
    return ["oracle_check.csv"], 0


def _cmd_report(options: dict, out_dir: Path) -> tuple[list[str], int]:
    if not options["from_csv"]:
        raise InvalidConfigError("report requires --from pointing at an edits.csv")
    return emit_report(summarize_per_seed_csv(options["from_csv"]), out_dir, False, None), 0


_SWEEP_OPTIONS = {
    "analytic": (("src=0,1", "tar=2,1"), "Gaussian pair, e.g. src=0,1 tar=2,1"),
    "dim": (2, "state dimension for analytic specs"),
    "T": (20, "denoising step count"),
    "skip": (6, "steps skipped from pure noise (n_max = T - skip)"),
    "n_max": (None, "editing start index (overrides --skip)"),
    "cfg_scale": (1.0, "guidance scale (1 = off)"),
    "seeds": (100, "number of sweep seeds (0..N-1)"),
    "plot": (False, "also write SVG plots"),
}

# subcommand: (summary, handler, {key: (default, help)}). Each key is a config
# key and the flag --key (dashes for underscores; --from for from_csv). The
# default fixes the type: a bool is a switch, a tuple takes that many words.
_SUBCOMMANDS = {
    "edit": ("single-modality editing sweep", _cmd_edit, {
        **_SWEEP_OPTIONS,
        "mode": ("target", "sequence mode: edit or target"),
        "noise": ("estimated", "noise mode: random or estimated"),
        "out_dir": ("runs/edit", "output directory"),
    }),
    "ablation": ("2x2 sequence/noise ablation (runs all four cells)", _cmd_ablation, {
        **_SWEEP_OPTIONS,
        "out_dir": ("runs/ablation", "output directory"),
    }),
    "generate": ("transport noise draws through a field", _cmd_generate, {
        "analytic": ("spec=2,1", "Gaussian spec, e.g. spec=2,1"),
        "dim": (2, "state dimension"),
        "T": (200, "step count"),
        "n": (10000, "number of samples"),
        "seed": (0, "RNG seed"),
        "out_dir": ("runs/generate", "output directory"),
    }),
    "train": ("train the joint audio-visual toy model", _cmd_train, {
        "out": (None, "model file path (default out_dir/model.bin)"),
        "n": (2048, "dataset size"),
        "epochs": (160, "training epochs"),
        "batch": (96, "batch size"),
        "lr": (3e-3, "Adam learning rate"),
        "widths": ("48,48", "hidden widths, comma separated"),
        "seed": (0, "RNG seed"),
        "out_dir": ("runs/train", "output directory"),
    }),
    "avedit": ("dual-modality class-swap editing sweep", _cmd_avedit, {
        "model": (None, "trained joint model file"),
        "T": (40, "denoising step count"),
        "skip": (12, "steps skipped from pure noise (n_max = T - skip)"),
        "n_max": (None, "editing start index (overrides --skip)"),
        "seeds": (50, "number of sweep seeds (0..N-1)"),
        "src_class": (0, "source class"),
        "tar_class": (1, "target class"),
        "out_dir": ("runs/avedit", "output directory"),
    }),
    "oracle-check": ("closed form vs Monte Carlo velocities", _cmd_oracle_check, {
        "n": (200000, "Monte Carlo sample count per dimension, shared by its probes"),
        "seed": (0, "RNG seed"),
        "out_dir": ("runs/oracle-check", "output directory"),
    }),
    "report": ("re-summarize a per-seed CSV", _cmd_report, {
        "from_csv": (None, "edits.csv to summarize"),
        "out_dir": ("runs/report", "output directory"),
    }),
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        options = _resolve_options(args)
        _check_output(options)
        # every non-finite value ends in a typed error below, so numpy's own
        # overflow and invalid-value warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            files, code = _SUBCOMMANDS[args.command][1](options, Path(options["out_dir"]))
        write_manifest(options["out_dir"], config_hash(args.command, options), files)
        return code
    except _CONFIG_ERRORS as exc:
        print(f"flowlab: config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"flowlab: numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
