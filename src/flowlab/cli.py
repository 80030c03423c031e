"""Command-line interface.

Subcommands: train, generate, edit, avedit, ablation, oracle-check, report.
Options can come from a config file (INI-style, one section per subcommand;
see docs/config.md) with explicit command-line flags taking precedence.
Each option is declared once, in the ``_SUBCOMMANDS`` table: its flag, its
config key, its default and, through the default, its type.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
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
    ExperimentConfig,
    RunManifest,
    bias_curve_plot,
    default_av_params,
    emit_report,
    format_num,
    mean_stderr,
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
    write_per_seed_csv,
    write_samples_csv,
)
from .metrics import MetricReport
from .mlp import MlpDualField, load_model, save_model
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
    return options


def _experiment_config(command: str, options: dict) -> ExperimentConfig:
    params = {}
    for key, value in options.items():
        params[key] = " ".join(value) if isinstance(value, tuple) else value
    return ExperimentConfig(kind=command, params=params)


def _edit_config(options: dict, sequence_mode: str, noise_mode: str) -> EditConfig:
    n_max = options["n_max"] if options.get("n_max") is not None else options["T"] - options["skip"]
    return EditConfig(
        T=options["T"], n_max=n_max, sequence_mode=sequence_mode, noise_mode=noise_mode,
        cfg_scale=options.get("cfg_scale", 1.0),
    )


def _finish(out_dir, config: ExperimentConfig, files: list[str]) -> None:
    manifest = RunManifest(config_hash=config.config_hash(), outputs=sorted(files))
    manifest.write(Path(out_dir))


def _cmd_edit(options: dict, config: ExperimentConfig) -> int:
    src = _parse_spec(options["analytic"][0], options["dim"])
    tar = _parse_spec(options["analytic"][1], options["dim"])
    cfg = _edit_config(options, options["mode"], options["noise"])
    seeds = list(range(options["seeds"]))
    runs = run_edit_sweep(src, tar, seeds, cfg)
    out_dir = Path(options["out_dir"])
    files = [write_per_seed_csv(runs, cfg, out_dir, "edit")]
    plots = [("trajectories.svg", trajectory_plot(runs, cfg))] if options["plot"] else None
    files += emit_report(sweep_reports(runs, tar, cfg, "edit"), out_dir, options["plot"], plots)
    _finish(out_dir, config, files)
    return 0


def _cmd_ablation(options: dict, config: ExperimentConfig) -> int:
    src = _parse_spec(options["analytic"][0], options["dim"])
    tar = _parse_spec(options["analytic"][1], options["dim"])
    base = _edit_config(options, "target", "estimated")
    seeds = list(range(options["seeds"]))
    reports = run_ablation(src, tar, seeds, base.T, base.n_max, base.cfg_scale)
    out_dir = Path(options["out_dir"])
    plots = None
    if options["plot"]:
        plots = [("bias_vs_tmax.svg", bias_curve_plot(src, tar))]
    files = emit_report(reports, out_dir, options["plot"], plots)
    _finish(out_dir, config, files)
    return 0


def _cmd_generate(options: dict, config: ExperimentConfig) -> int:
    spec = _parse_spec(options["analytic"], options["dim"])
    samples, reports = run_generate_sweep(spec, options["n"], options["T"], options["seed"])
    out_dir = Path(options["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    files = [write_samples_csv(samples, out_dir)] + emit_report(reports, out_dir, False, None)
    _finish(out_dir, config, files)
    return 0


def _cmd_train(options: dict, config: ExperimentConfig) -> int:
    params = default_av_params()
    try:
        widths = tuple(int(w) for w in str(options["widths"]).split(","))
    except ValueError:
        raise InvalidConfigError(
            f"widths = {options['widths']!r}; expected comma-separated integers"
        ) from None
    field2, report, dataset = train_av_model(
        params, n_samples=options["n"], widths=widths, epochs=options["epochs"],
        batch_size=options["batch"], learning_rate=options["lr"], seed=options["seed"],
    )
    out_dir = Path(options["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = Path(options["out"]) if options["out"] else out_dir / "model.bin"
    save_model(field2.model, model_path)
    dataset.to_csv(out_dir / "dataset.csv")
    curve = ["step,eval_loss"] + [
        f"{i},{format_num(v)}" for i, v in enumerate(report.losses)
    ]
    (out_dir / "loss_curve.csv").write_text("\n".join(curve) + "\n")
    files = [os.path.relpath(model_path, out_dir), "dataset.csv", "loss_curve.csv"]
    print(
        f"trained model -> {model_path} (eval loss {format_num(report.initial_loss)} -> "
        f"{format_num(report.final_loss)})"
    )
    _finish(out_dir, config, files)
    return 0


def _cmd_avedit(options: dict, config: ExperimentConfig) -> int:
    params = default_av_params()
    if options["model"]:
        model = load_model(options["model"])
        field2 = MlpDualField(model, params.video_dim, params.audio_dim)
    else:
        raise InvalidConfigError("avedit requires --model (train one with `flowlab train`)")
    cfg = _edit_config(options, "target", "estimated")
    seeds = list(range(options["seeds"]))
    runs = run_avedit_sweep(field2, params, seeds, cfg,
                            src_class=options["src_class"], tar_class=options["tar_class"])
    out_dir = Path(options["out_dir"])
    files = [write_avedit_csv(runs, cfg, out_dir)]
    echo = {"experiment": "avedit", "seq_mode": cfg.sequence_mode, "noise_mode": cfg.noise_mode,
            "T": cfg.T, "n_max": cfg.n_max, "seed_count": len(runs)}
    sig = np.array([r.target_sigmas for r in runs])
    m, se = mean_stderr(sig)
    reports = [
        MetricReport("class_swap_success_rate", float(np.mean(sig <= 3.0)), config=echo),
        MetricReport("target_sigmas", m, aux={"stderr": se}, config=echo),
    ]
    files += emit_report(reports, out_dir, False, None)
    _finish(out_dir, config, files)
    return 0


def _cmd_oracle_check(options: dict, config: ExperimentConfig) -> int:
    rows, ok = run_oracle_check(n=options["n"], seed=options["seed"])
    out_dir = Path(options["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    header = ["dim", "t", "x", "closed", "mc", "stderr", "max_z", "ess", "agree"]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f'"{row[h]}"' if h in ("x", "closed", "mc", "stderr") else str(row[h])
                              for h in header))
    (out_dir / "oracle_check.csv").write_text("\n".join(lines) + "\n")
    _finish(out_dir, config, ["oracle_check.csv"])
    if not ok:
        print("oracle check FAILED: closed form and Monte Carlo disagree", file=sys.stderr)
        return 3
    print(f"oracle check passed on {len(rows)} probes")
    return 0


def _cmd_report(options: dict, config: ExperimentConfig) -> int:
    if not options["from_csv"]:
        raise InvalidConfigError("report requires --from pointing at an edits.csv")
    reports = summarize_per_seed_csv(options["from_csv"])
    out_dir = Path(options["out_dir"])
    files = emit_report(reports, out_dir, False, None)
    _finish(out_dir, config, files)
    return 0


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
        "n": (200000, "Monte Carlo sample count per probe"),
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
        config = _experiment_config(args.command, options)
        # every non-finite value ends in a typed error below, so numpy's own
        # overflow and invalid-value warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            return _SUBCOMMANDS[args.command][1](options, config)
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
