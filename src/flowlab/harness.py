"""Experiment orchestration: seed sweeps, the 2x2 ablation, oracle checks,
CSV/SVG emission and run manifests.

Determinism contract: identical resolved configuration produces
byte-identical CSV and SVG outputs; wall-clock timestamps live only in the
manifest. Seed sweeps run in seed order and each run derives its own
data/sampler streams from the sweep seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import __version__
from .core import Condition, TensorState
from .errors import InvalidConfigError, NumericalError
from .gaussian import (
    GaussianConditionalField,
    GaussianSpec,
    marginal_velocity,
    mc_conditional_velocity,
    ot_map,
    sample_array,
    w2_gaussian,
)
from .data import AvSynthParams, CoupledAvDataset, synth_av_dataset
from .metrics import MetricReport, empirical_moments, smoothness, structure_distance, truncation_bias
from .mlp import MlpDualField, TrainConfig, TrainReport, mlp_init, train
from .rng import RNG_ALGORITHM, CounterRng, derive_seed
from .samplers import EditConfig, flowedit, generate, omniedit_av, omniedit_sync
from .svgplot import line_plot

SUMMARY_COLUMNS = (
    "experiment", "seq_mode", "noise_mode", "T", "n_max", "seed_count", "metric", "mean", "stderr",
)

# The edits.csv columns summarize_per_seed_csv reads.
PER_SEED_COLUMNS = (
    "experiment", "seq_mode", "noise_mode", "T", "n_max",
    "structure_distance", "residual_norm", "smoothness_source",
)

ABLATION_CELLS = (
    ("edit", "random"),
    ("edit", "estimated"),
    ("target", "random"),
    ("target", "estimated"),
)


# Two-sided Bonferroni bound on run_oracle_check's z scores: a family-wise
# false-alarm rate of 1e-3 over the 45 coordinates its 35 probes test needs
# 45 * erfc(z / sqrt(2)) <= 1e-3, i.e. z >= 4.2414.
ORACLE_MAX_Z = 4.25


def format_num(x: float) -> str:
    """A number as every CSV and log line writes it: 12 significant digits."""
    return format(float(x), ".12g")


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment: the subcommand kind plus a flat parameter map.

    The canonical form (sorted ``key=value`` lines prefixed by the kind) is
    what gets hashed into the manifest, so semantically identical configs
    share a hash regardless of file formatting.

    The hash names what was computed, not where it was written: ``None``
    values and the output-location keys in ``OUTPUT_KEYS`` (``out_dir`` for
    every subcommand, ``out`` for ``train``'s model path) are left out of
    the canonical form. Input paths (``avedit``'s ``model``, ``report``'s
    ``from_csv``) still enter it, since the path is what names the input,
    and so does ``plot``, since it changes which files ``edit`` and
    ``ablation`` write. docs/config.md covers the config-file side."""

    OUTPUT_KEYS: ClassVar[frozenset] = frozenset({"out_dir", "out"})

    kind: str
    params: dict

    def __post_init__(self):
        seeds = self.params.get("seeds", 1)
        if seeds is None or seeds < 1:
            raise InvalidConfigError("seed list must be non-empty")

    def canonical(self) -> str:
        lines = [f"kind={self.kind}"]
        for key in sorted(self.params):
            value = self.params[key]
            if value is None or key in self.OUTPUT_KEYS:
                continue
            lines.append(f"{key}={value}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()


@dataclass
class RunManifest:
    config_hash: str
    tool_version: str = __version__
    rng_algorithm: str = RNG_ALGORITHM
    outputs: list[str] = dc_field(default_factory=list)
    created_utc: str = ""

    def write(self, out_dir: Path) -> Path:
        path = Path(out_dir) / "manifest.json"
        payload = {
            "config_hash": self.config_hash,
            "tool_version": self.tool_version,
            "rng_algorithm": self.rng_algorithm,
            "outputs": self.outputs,
            "created_utc": self.created_utc
            or time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path


def pair_field(
    src_spec: GaussianSpec, tar_spec: GaussianSpec
) -> tuple[GaussianConditionalField, Condition, Condition]:
    """Two-condition analytic field: one-hot source/target conditions, with
    the source spec standing in for the unconditional (null) distribution."""
    if src_spec.dim != tar_spec.dim:
        raise InvalidConfigError("source and target specs must share a dimension")
    c_src, c_tar = Condition.one_hot(0, 2), Condition.one_hot(1, 2)
    field = GaussianConditionalField(condition_dim=2, state_dim=src_spec.dim)
    field.register(c_src, src_spec).register(c_tar, tar_spec)
    field.register(Condition.null(2), src_spec)
    return field, c_src, c_tar


@dataclass
class EditRun:
    seed: int
    output: np.ndarray
    structure: float
    residual: np.ndarray
    smoothness_source: float
    trajectory: object


def run_edit_sweep(
    src_spec: GaussianSpec,
    tar_spec: GaussianSpec,
    seeds: list[int],
    edit_cfg: EditConfig,
    identity: bool = False,
) -> list[EditRun]:
    """Run one editing configuration over a seed list on the analytic pair.

    Per seed, the source sample and the sampler noise use independent
    derived streams so paired sweeps across modes stay matched. The
    residual is measured against the Gaussian optimal-transport map of the
    pair (the exact per-sample edit for Gaussian endpoints)."""
    field, c_src, c_tar = pair_field(src_spec, tar_spec)
    if identity:
        c_tar = c_src
    a_map, b_map = ot_map(src_spec, tar_spec)
    runs = []
    for seed in seeds:
        data_rng = CounterRng(derive_seed(seed, 1))
        x_src = sample_array(src_spec, 1, data_rng)[0]
        cfg = replace(edit_cfg, seed=derive_seed(seed, 2))
        if cfg.sequence_mode == "edit":
            out, traj = flowedit(field, x_src, c_src, c_tar, cfg, record=True)
        else:
            out, traj = omniedit_sync(field, x_src, c_src, c_tar, cfg, record=True)
        ideal = x_src @ a_map.T + b_map if not identity else x_src
        runs.append(
            EditRun(
                seed=seed,
                output=out,
                structure=structure_distance(x_src, out),
                residual=out - ideal,
                smoothness_source=smoothness(traj) if len(traj.steps) >= 3 else 0.0,
                trajectory=traj,
            )
        )
    return runs


def mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of the mean; one value has a zero error."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        return float(values.mean()), 0.0
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.size))


def _fitted_w2(samples: np.ndarray, spec: GaussianSpec) -> float | None:
    """W2 from the Gaussian fitted to the rows of ``samples`` (sample mean,
    unbiased covariance plus 1e-12 I) to ``spec``.

    None when there are no more rows than dimensions: the pooled covariance
    of n <= dim rows has rank at most n - 1, so it is singular by
    construction (one row has no covariance at all). A fit that fails with
    more rows, say because the spread of the outputs swamps the jitter, is
    a numerical failure of the run, not a bad configuration."""
    if samples.shape[0] <= samples.shape[1]:
        return None
    mean, cov = empirical_moments(samples)
    try:
        fitted = GaussianSpec(mean=mean, cov=cov + 1e-12 * np.eye(mean.size))
    except InvalidConfigError as exc:
        raise NumericalError(
            f"cannot fit a Gaussian to {samples.shape[0]} outputs: {exc}"
        ) from None
    return w2_gaussian(fitted, spec)


def sweep_reports(
    runs: list[EditRun], tar_spec: GaussianSpec, cfg: EditConfig, experiment: str
) -> list[MetricReport]:
    """Aggregate a sweep into the four benchmark metrics.

    ``bias_norm`` and the per-seed metrics are seed averages with standard
    errors; ``fitted_w2`` fits Gaussian moments to the pooled outputs and is
    reported without a standard error. A sweep with no more seeds than
    state dimensions (one seed included) has no covariance to fit, so it
    reports no ``fitted_w2``."""
    config_echo = {
        "experiment": experiment, "seq_mode": cfg.sequence_mode, "noise_mode": cfg.noise_mode,
        "T": cfg.T, "n_max": cfg.n_max, "seed_count": len(runs),
    }
    reports = []
    w2 = _fitted_w2(np.stack([r.output for r in runs]), tar_spec)
    if w2 is not None:
        reports.append(MetricReport("fitted_w2", w2, config=config_echo))
    for name, values in (
        ("bias_norm", [float(np.linalg.norm(r.residual)) for r in runs]),
        ("smoothness", [r.smoothness_source for r in runs]),
        ("structure_distance", [r.structure for r in runs]),
    ):
        m, se = mean_stderr(np.array(values))
        reports.append(MetricReport(name, m, aux={"stderr": se}, config=config_echo))
    return reports


def run_ablation(
    src_spec: GaussianSpec,
    tar_spec: GaussianSpec,
    seeds: list[int],
    T: int,
    n_max: int,
    cfg_scale: float = 1.0,
) -> list[MetricReport]:
    """The 2x2 sequence/noise ablation on matched seeds: 16 metric rows."""
    reports = []
    for seq_mode, noise_mode in ABLATION_CELLS:
        cfg = EditConfig(
            T=T, n_max=n_max, sequence_mode=seq_mode, noise_mode=noise_mode, cfg_scale=cfg_scale
        )
        runs = run_edit_sweep(src_spec, tar_spec, seeds, cfg)
        reports.extend(sweep_reports(runs, tar_spec, cfg, "ablation"))
    return reports


def run_oracle_check(n: int = 200_000, seed: int = 0) -> tuple[list[dict], bool]:
    """Compare the closed-form marginal velocity against the Monte Carlo
    conditional-expectation estimate of ``mc_conditional_velocity``.

    1D probes a 5x5 (x, t) grid spanning +-1.5 marginal standard deviations;
    2D probes 10 derived-seed random points at t >= 0.3, because the
    effective sample size of the importance weights falls roughly like t^dim
    (about 500 of 2e5 draws for a 2D point at t = 0.1). Returns
    per-probe rows and whether every coordinate's z score stays within
    ``ORACLE_MAX_Z``."""
    rows: list[dict] = []
    ok = True
    t_grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    probe_rng = CounterRng(derive_seed(seed, 902))
    # per dim: (t, offset from the marginal mean in marginal standard deviations)
    probes = {
        1: [(t, np.array([u])) for t in t_grid for u in (-1.5, -0.75, 0.0, 0.75, 1.5)],
        2: [(t_grid[1 + k % 4], probe_rng.normal_array(2)) for k in range(10)],
    }
    for dim, offsets in probes.items():
        spec = GaussianSpec.isotropic(0.5, 1.0, dim=dim)
        for k, (t, u) in enumerate(offsets):
            x = (1.0 - t) * spec.mean + u * np.sqrt((1.0 - t) ** 2 * spec.cov + t * t)
            mc_rng = CounterRng(derive_seed(seed, 1000 * dim + k))
            est = mc_conditional_velocity(spec, x, t, n, mc_rng)
            closed = marginal_velocity(spec, x, t)
            z = np.abs(est.value - closed) / est.stderr
            agree = bool(np.all(z <= ORACLE_MAX_Z))
            ok = ok and agree
            rows.append(
                {
                    "dim": dim, "t": t,
                    "x": " ".join(format_num(v) for v in x),
                    "closed": " ".join(format_num(v) for v in closed),
                    "mc": " ".join(format_num(v) for v in est.value),
                    "stderr": " ".join(format_num(v) for v in est.stderr),
                    "max_z": format_num(float(np.max(z))),
                    "ess": format_num(est.effective_samples),
                    "agree": int(agree),
                }
            )
    return rows, ok


def emit_report(
    reports: list[MetricReport], out_dir, plot: bool = False, plots: list[tuple[str, str]] | None = None
) -> list[str]:
    """Write ``summary.csv`` (fixed column order) plus any prepared SVGs.

    Returns the written file names, in write order."""
    if not reports:
        raise InvalidConfigError("no reports to emit")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SUMMARY_COLUMNS)
    for rep in reports:
        cfg = rep.config
        writer.writerow(
            [
                cfg.get("experiment", ""), cfg.get("seq_mode", ""), cfg.get("noise_mode", ""),
                cfg.get("T", ""), cfg.get("n_max", ""), cfg.get("seed_count", ""),
                rep.name, format_num(rep.value), format_num(rep.aux.get("stderr", 0.0)),
            ]
        )
    (out_dir / "summary.csv").write_text(buf.getvalue())
    files.append("summary.csv")
    if plot and plots:
        for name, svg_text in plots:
            (out_dir / name).write_text(svg_text)
            files.append(name)
    return files


def write_per_seed_csv(runs: list[EditRun], cfg: EditConfig, out_dir, experiment: str) -> str:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dim = runs[0].output.size
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["experiment", "seq_mode", "noise_mode", "T", "n_max", "seed"]
        + [f"out_{j}" for j in range(dim)]
        + ["structure_distance", "residual_norm", "smoothness_source"]
    )
    for r in runs:
        writer.writerow(
            [experiment, cfg.sequence_mode, cfg.noise_mode, cfg.T, cfg.n_max, r.seed]
            + [format_num(v) for v in r.output]
            + [format_num(r.structure), format_num(float(np.linalg.norm(r.residual))),
               format_num(r.smoothness_source)]
        )
    (out_dir / "edits.csv").write_text(buf.getvalue())
    return "edits.csv"


def summarize_per_seed_csv(path) -> list[MetricReport]:
    """Rebuild summary metrics from a previously written edits.csv."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh, restval="")
            rows = list(reader)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InvalidConfigError(f"{path} is not a UTF-8 CSV file: {exc}") from None
    missing = [c for c in PER_SEED_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise InvalidConfigError(f"{path} is not an edits.csv: no column {', '.join(missing)}")
    if not rows:
        raise InvalidConfigError(f"no rows in {path}")
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = (row["experiment"], row["seq_mode"], row["noise_mode"], row["T"], row["n_max"])
        groups.setdefault(key, []).append(row)
    reports = []
    for key, grp in sorted(groups.items()):
        config_echo = {
            "experiment": key[0], "seq_mode": key[1], "noise_mode": key[2],
            "T": key[3], "n_max": key[4], "seed_count": len(grp),
        }
        for metric, column in (
            ("bias_norm", "residual_norm"),
            ("smoothness", "smoothness_source"),
            ("structure_distance", "structure_distance"),
        ):
            try:
                values = np.array([float(r[column]) for r in grp])
            except ValueError:
                raise InvalidConfigError(f"{path}: non-numeric {column} value") from None
            if not np.isfinite(values).all():
                raise InvalidConfigError(f"{path}: non-finite {column} value")
            m, se = mean_stderr(values)
            reports.append(MetricReport(metric, m, aux={"stderr": se}, config=config_echo))
    return reports


def trajectory_plot(runs: list[EditRun], cfg: EditConfig) -> str:
    """Coordinate-0 source and target/edit streams of the first run."""
    traj = runs[0].trajectory
    times = traj.times()
    return line_plot(
        [
            ("source stream", times, traj.source_stream()[:, 0]),
            ("target stream", times, traj.main_stream()[:, 0]),
            ],
        title=f"edit trajectories (seed {runs[0].seed}, {cfg.sequence_mode}/{cfg.noise_mode})",
        xlabel="t",
        ylabel="coordinate 0",
    )


def bias_curve_plot(src_spec: GaussianSpec, tar_spec: GaussianSpec, grid_steps: int = 20_000) -> str:
    """Dense-oracle truncation-bias norm as a function of t_max."""
    x_src = TensorState.from_array(np.zeros(src_spec.dim))
    eps = TensorState.from_array(np.zeros(src_spec.dim))
    t_values = np.linspace(0.1, 1.0, 10)
    norms = [
        float(np.linalg.norm(truncation_bias(src_spec, tar_spec, x_src, t, eps, grid_steps).data))
        for t in t_values
    ]
    return line_plot(
        [("oracle bias norm", t_values, np.array(norms))],
        title="truncation bias vs t_max (dense-grid oracle)",
        xlabel="t_max",
        ylabel="bias norm",
    )


def default_av_params() -> "AvSynthParams":
    """Two well-separated classes: 2D video, 1D linearly coupled audio."""
    return AvSynthParams(
        video_means=np.array([[-2.0, 0.0], [2.0, 0.0]]),
        audio_offsets=np.array([[-1.5], [1.5]]),
        coupling=np.array([[0.8, -0.3]]),
        video_scale=0.45,
        noise_scale=0.1,
    )


def train_av_model(
    params: "AvSynthParams",
    n_samples: int = 2048,
    widths: tuple[int, ...] = (48, 48),
    epochs: int = 160,
    batch_size: int = 96,
    learning_rate: float = 3e-3,
    seed: int = 0,
) -> tuple[MlpDualField, "TrainReport", "CoupledAvDataset"]:
    """Synthesize a coupled AV dataset and fit a joint velocity model on it."""
    dataset = synth_av_dataset(params, n_samples, seed=derive_seed(seed, 7))
    joint_dim = params.video_dim + params.audio_dim
    model = mlp_init([*widths, joint_dim], condition_dim=params.num_classes, seed=seed)
    report = train(
        model,
        dataset.joint_pairs(),
        TrainConfig(epochs=epochs, batch_size=batch_size, learning_rate=learning_rate, seed=seed),
    )
    return MlpDualField(model, params.video_dim, params.audio_dim), report, dataset


@dataclass
class AvEditRun:
    seed: int
    video_out: np.ndarray
    audio_out: np.ndarray
    target_sigmas: float


def run_avedit_sweep(
    field2,
    params: "AvSynthParams",
    seeds: list[int],
    edit_cfg: EditConfig,
    src_class: int = 0,
    tar_class: int = 1,
) -> list[AvEditRun]:
    """Class-swap edits on synthesized sources, every seed in one editor call.

    Row r takes its video and audio source from the keyed stream
    ``derive_seed(seeds[r], 1)`` and its sampler noise from
    ``derive_seed(seeds[r], 2)``, so it is the edit a one-seed sweep gives.
    ``target_sigmas`` is the video output's distance to the target-class
    mean in units of the within-class standard deviation."""
    for name, k in (("src_class", src_class), ("tar_class", tar_class)):
        if not 0 <= k < params.num_classes:
            raise InvalidConfigError(f"{name}={k} outside 0..{params.num_classes - 1}")
    n = len(seeds)
    data_rng = CounterRng([derive_seed(seed, 1) for seed in seeds])
    v = params.video_means[src_class] + params.video_scale * data_rng.normal_array(
        (n, params.video_dim)
    )
    # The stacked product multiplies row by row, as a one-seed sweep does.
    a = (
        (params.coupling @ v[..., None])[..., 0]
        + params.audio_offsets[src_class]
        + params.noise_scale * data_rng.normal_array((n, params.audio_dim))
    )
    out = omniedit_av(
        field2, v, a,
        Condition.one_hot(src_class, params.num_classes),
        Condition.one_hot(tar_class, params.num_classes),
        edit_cfg,
        rng=CounterRng([derive_seed(seed, 2) for seed in seeds]),
    )
    dist = np.linalg.norm(out.video - params.video_means[tar_class], axis=-1) / params.video_scale
    return [
        AvEditRun(seed=seed, video_out=out.video[r], audio_out=out.audio[r],
                  target_sigmas=float(dist[r]))
        for r, seed in enumerate(seeds)
    ]


def write_avedit_csv(runs: list[AvEditRun], cfg: EditConfig, out_dir) -> str:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dv, da = runs[0].video_out.size, runs[0].audio_out.size
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["T", "n_max", "seed"]
        + [f"video_out_{j}" for j in range(dv)]
        + [f"audio_out_{j}" for j in range(da)]
        + ["target_sigmas"]
    )
    for r in runs:
        writer.writerow(
            [cfg.T, cfg.n_max, r.seed]
            + [format_num(v) for v in r.video_out]
            + [format_num(v) for v in r.audio_out]
            + [format_num(r.target_sigmas)]
        )
    (out_dir / "avedits.csv").write_text(buf.getvalue())
    return "avedits.csv"


def run_generate_sweep(
    spec: GaussianSpec, n: int, T: int, seed: int
) -> tuple[np.ndarray, list[MetricReport]]:
    """Transport n standard-normal draws through the analytic field.

    Like an edit sweep, a run with n <= dim draws reports no ``fitted_w2``."""
    field, c_src, _ = pair_field(spec, spec)
    rng = CounterRng(derive_seed(seed, 3))
    samples = generate(field, rng.normal_array((n, spec.dim)), c_src, T)
    w2 = _fitted_w2(samples, spec)
    mean, cov = empirical_moments(samples)
    config_echo = {"experiment": "generate", "T": T, "seed_count": 1}
    reports = [] if w2 is None else [MetricReport("fitted_w2", w2, config=config_echo)]
    reports += [
        MetricReport(
            "mean_abs_error", float(np.max(np.abs(mean - spec.mean))), config=config_echo
        ),
        MetricReport(
            "cov_abs_error",
            float(np.max(np.abs(cov - spec.cov_matrix()))),
            config=config_echo,
        ),
    ]
    return samples, reports
