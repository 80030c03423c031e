"""Command-line interface.

Subcommands: train, generate, edit, avedit, ablation, oracle-check, report.
Options can come from a config file (INI-style, one section per subcommand;
see docs/config.md) with explicit command-line flags taking precedence.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
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

    def common(p):
        p.add_argument("--config", help="INI config file; flags override its values")
        p.add_argument("--out-dir", help="output directory")

    def sweep_flags(p):
        p.add_argument("--plot", action="store_true", default=None, help="also write SVG plots")
        p.add_argument("--analytic", nargs=2, metavar=("SRC", "TAR"),
                       help="Gaussian pair, e.g. src=0,1 tar=2,1")
        p.add_argument("--dim", type=int, help="state dimension for analytic specs")
        p.add_argument("--T", type=int, help="denoising step count")
        p.add_argument("--skip", type=int, help="steps skipped from pure noise (n_max = T - skip)")
        p.add_argument("--n-max", type=int, help="editing start index (overrides --skip)")
        p.add_argument("--cfg-scale", type=float, help="guidance scale (1 = off)")
        p.add_argument("--seeds", type=int, help="number of sweep seeds (0..N-1)")

    p = sub.add_parser("edit", help="single-modality editing sweep")
    common(p)
    sweep_flags(p)
    p.add_argument("--mode", choices=("edit", "target"), help="sequence mode")
    p.add_argument("--noise", choices=("random", "estimated"), help="noise mode")

    p = sub.add_parser("ablation", help="2x2 sequence/noise ablation (runs all four cells)")
    common(p)
    sweep_flags(p)

    p = sub.add_parser("generate", help="transport noise draws through a field")
    common(p)
    p.add_argument("--analytic", help="Gaussian spec, e.g. spec=2,1")
    p.add_argument("--dim", type=int)
    p.add_argument("--T", type=int)
    p.add_argument("--n", type=int, help="number of samples")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("train", help="train the joint audio-visual toy model")
    common(p)
    p.add_argument("--out", help="model file path (default out_dir/model.bin)")
    p.add_argument("--n", type=int, help="dataset size")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--widths", help="hidden widths, comma separated")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("avedit", help="dual-modality class-swap editing sweep")
    common(p)
    p.add_argument("--model", help="trained joint model file")
    p.add_argument("--T", type=int)
    p.add_argument("--skip", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--seeds", type=int)
    p.add_argument("--src-class", type=int)
    p.add_argument("--tar-class", type=int)

    p = sub.add_parser("oracle-check", help="closed form vs Monte Carlo velocities")
    common(p)
    p.add_argument("--n", type=int, help="Monte Carlo sample count per probe")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("report", help="re-summarize a per-seed CSV")
    common(p)
    p.add_argument("--from", dest="from_csv", help="edits.csv to summarize")

    return parser


_DEFAULTS: dict[str, dict] = {
    "edit": {
        "analytic": ("src=0,1", "tar=2,1"), "dim": 2, "T": 20, "skip": 6, "n_max": None,
        "mode": "target", "noise": "estimated", "cfg_scale": 1.0, "seeds": 100,
        "out_dir": "runs/edit", "plot": False,
    },
    "ablation": {
        "analytic": ("src=0,1", "tar=2,1"), "dim": 2, "T": 20, "skip": 6, "n_max": None,
        "cfg_scale": 1.0, "seeds": 100, "out_dir": "runs/ablation", "plot": False,
    },
    "generate": {
        "analytic": "spec=2,1", "dim": 2, "T": 200, "n": 10000, "seed": 0,
        "out_dir": "runs/generate",
    },
    "train": {
        "out": None, "n": 2048, "epochs": 160, "batch": 96, "lr": 3e-3, "widths": "48,48",
        "seed": 0, "out_dir": "runs/train",
    },
    "avedit": {
        "model": None, "T": 40, "skip": 12, "n_max": None, "seeds": 50,
        "src_class": 0, "tar_class": 1, "out_dir": "runs/avedit",
    },
    "oracle-check": {"n": 200000, "seed": 0, "out_dir": "runs/oracle-check"},
    "report": {"from_csv": None, "out_dir": "runs/report"},
}

_BOOL_KEYS = ("plot",)
# Keys whose default is unset but whose value is a number; the other keys
# take the type of their default, and unset ones stay text.
_NUMERIC_UNSET_KEYS = {"n_max": int}


def _coerce(key: str, raw: str, default):
    if key in _BOOL_KEYS:
        value = configparser.ConfigParser.BOOLEAN_STATES.get(raw.strip().lower())
        if value is None:
            raise InvalidConfigError(f"{key} = {raw!r}: expected 1/0, yes/no, true/false or on/off")
        return value
    if key == "analytic" and isinstance(default, tuple):
        parts = raw.split()
        if len(parts) != 2:
            raise InvalidConfigError(f"analytic expects two specs, got {raw!r}")
        return tuple(parts)
    kind = _NUMERIC_UNSET_KEYS.get(key, type(default))
    if kind not in (int, float):
        return raw
    try:
        return kind(raw)
    except ValueError:
        raise InvalidConfigError(f"{key} = {raw!r} is not {kind.__name__}") from None


def _resolve_options(args: argparse.Namespace) -> dict:
    """Merge defaults, config-file section values, and explicit flags."""
    command = args.command
    options = dict(_DEFAULTS[command])
    if getattr(args, "config", None):
        cfg_path = Path(args.config)
        if not cfg_path.exists():
            raise InvalidConfigError(f"config file {cfg_path} does not exist")
        ini = configparser.ConfigParser(interpolation=None)
        ini.optionxform = str  # keys are case sensitive (T vs t)
        try:
            ini.read(cfg_path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise InvalidConfigError(f"config file {cfg_path} is not valid INI: {exc}") from None
        if ini.has_section(command):
            for key, raw in ini.items(command):
                key = key.replace("-", "_")
                if key not in options:
                    raise InvalidConfigError(f"unknown config key {key!r} for {command}")
                options[key] = _coerce(key, raw, _DEFAULTS[command][key])
    for key, default in _DEFAULTS[command].items():
        flag_value = getattr(args, key, None)
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
    files = [str(model_path.name), "dataset.csv", "loss_curve.csv"]
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


_COMMANDS = {
    "edit": _cmd_edit,
    "ablation": _cmd_ablation,
    "generate": _cmd_generate,
    "train": _cmd_train,
    "avedit": _cmd_avedit,
    "oracle-check": _cmd_oracle_check,
    "report": _cmd_report,
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
            return _COMMANDS[args.command](options, config)
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
