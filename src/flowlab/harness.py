"""Experiment orchestration: seed sweeps, the 2x2 ablation, oracle checks,
CSV/SVG emission and run manifests.

Determinism contract: identical resolved configuration produces
byte-identical CSV and SVG outputs, whatever the BLAS thread count;
wall-clock timestamps live only in the manifest. A seed sweep runs every
seed in one editor call on keyed streams, row r derives its own
data/sampler streams from ``seeds[r]``, and the sweep's result holds one
array per per-seed CSV column.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import time
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .core import Condition, TensorState, VelocityField
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
from .metrics import (
    MetricReport, empirical_moments, row_smoothness, row_structure_distance, truncation_bias,
)
from .mlp import MlpVelocityField, TrainConfig, TrainReport, mlp_init, train
from .rng import RNG_ALGORITHM, CounterRng, derive_seed, derive_seeds
from .samplers import (
    EditConfig, Trajectory, flowedit, generate, omniedit_av, omniedit_sync,
)
from .svgplot import line_plot

SUMMARY_COLUMNS = (
    "experiment", "seq_mode", "noise_mode", "T", "n_max", "seed_count", "metric", "mean", "stderr",
)

# The summary.csv columns a report's config echo fills.
_ECHO_COLUMNS = SUMMARY_COLUMNS[:6]

# Each per-seed metric of an edit sweep: (summary.csv metric, the edits.csv
# column and EditSweep column it averages), in edits.csv column order.
# Reports list them in metric-name order.
PER_SEED_METRICS = (
    ("structure_distance", "structure_distance"),
    ("bias_norm", "residual_norm"),
    ("smoothness", "smoothness_source"),
)

# The edits.csv columns summarize_per_seed_csv reads.
PER_SEED_COLUMNS = SUMMARY_COLUMNS[:5] + tuple(column for _, column in PER_SEED_METRICS)

ABLATION_CELLS = (
    ("edit", "random"),
    ("edit", "estimated"),
    ("target", "random"),
    ("target", "estimated"),
)


# Two-sided Bonferroni bound on run_oracle_check's z scores: a family-wise
# false-alarm rate of 1e-3 over the 45 coordinates its 35 probes test needs
# 45 * erfc(z / sqrt(2)) <= 1e-3, i.e. z >= 4.2414. The union bound needs no independence
# between probes, so a dimension's probes share one source draw (Owen, Monte Carlo, 2013).
ORACLE_MAX_Z = 4.25
# run_oracle_check's 2-D probe offsets, in marginal standard deviations, are
# at most this long: the reach of its 1-D grid.
_PROBE_REACH = 1.5


# The format of every number in a CSV or log line: 12 significant digits.
_NUM_FORMAT = ".12g"
# write_samples_csv formats and writes this many rows at a time.
_CSV_BLOCK_ROWS = 4096


def format_num(x: float) -> str:
    """A number as every CSV and log line writes it."""
    return format(float(x), _NUM_FORMAT)


def _write_rows(fh, row: str, cells: np.ndarray) -> None:
    """Write the rows of a 2-D array through the one-row %-template ``row``,
    _CSV_BLOCK_ROWS rows at a time: each block is one repeated template, so
    neither a string per row nor a list of all rows is ever built."""
    for start in range(0, len(cells), _CSV_BLOCK_ROWS):
        block = cells[start : start + _CSV_BLOCK_ROWS]
        fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def write_samples_csv(samples: np.ndarray, out_dir) -> str:
    """Write the rows of an (n, dim) array to ``samples.csv``, each number
    as format_num writes it (``"%" + _NUM_FORMAT`` formats a float exactly
    as format_num does)."""
    with open(Path(out_dir) / "samples.csv", "w") as f:
        f.write(",".join(f"x_{j}" for j in range(samples.shape[1])) + "\n")
        _write_rows(f, ",".join(["%" + _NUM_FORMAT] * samples.shape[1]) + "\n", samples)
    return "samples.csv"


def _write_csv(out_dir, name: str, header, rows) -> str:
    """Write ``header`` and ``rows`` to ``out_dir/name`` through csv.writer,
    making ``out_dir`` first. Returns ``name``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / name, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return name


def _write_sweep_csv(out_dir, name: str, header, fixed, seeds, columns) -> str:
    """Write a sweep's per-seed file, column by column: ``header``, then
    row r as the fields ``fixed``, ``seeds[r]`` and row r of each array in
    ``columns``, with the bytes _write_csv gives those rows when each
    number is format_num'd. Returns ``name``.

    ``fixed`` is encoded once by csv.writer, quoting included, with its
    ``%`` signs escaped for the row template."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow(fixed)
    cells = np.column_stack((np.array(seeds, dtype=object), *columns))
    row = (line.getvalue()[:-1].replace("%", "%%") + ",%d"
           + ("," + "%" + _NUM_FORMAT) * (cells.shape[1] - 1) + "\n")
    with open(out_dir / name, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        _write_rows(fh, row, cells)
    return name


# Keys that name where a run writes, not what it computes.
OUTPUT_KEYS = frozenset({"out_dir", "out"})


def config_hash(kind: str, options: dict) -> str:
    """SHA-256 of a resolved configuration: ``kind=<kind>``, then one sorted
    ``key=value`` line per option, a tuple value joined with spaces.

    The hash names what was computed, not where it was written: ``None``
    values and the ``OUTPUT_KEYS`` (``out_dir``, ``train``'s model path
    ``out``) are left out; input paths and ``plot`` stay in. docs/config.md
    says what enters it and why."""
    lines = [f"kind={kind}"]
    for key in sorted(options):
        value = options[key]
        if value is None or key in OUTPUT_KEYS:
            continue
        lines.append(f"{key}={' '.join(value) if isinstance(value, tuple) else value}")
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def write_manifest(out_dir, digest: str, files: list[str]) -> None:
    """Write ``manifest.json``: the config hash, tool version, RNG algorithm,
    the sorted output names and the creation time (the one field that is not
    byte-stable)."""
    payload = {
        "config_hash": digest,
        "tool_version": __version__,
        "rng_algorithm": RNG_ALGORITHM,
        "outputs": sorted(files),
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    (Path(out_dir) / "manifest.json").write_text(text)


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


# The sweep results compare by identity (eq=False): a generated __eq__ would
# compare array fields, which have no single truth value, and only raise.
@dataclass(frozen=True, eq=False)
class EditSweep:
    """An edit sweep as columns: row r of each array is the edit of
    ``seeds[r]``. ``output`` is (n, dim) and C-contiguous; the metric
    columns, each (n,), are named by edits.csv column; ``trajectory`` is
    the editor's one stacked record of its step times and two state
    streams, with row r at ``[:, r]``."""

    seeds: tuple
    output: np.ndarray
    structure_distance: np.ndarray
    residual_norm: np.ndarray
    smoothness_source: np.ndarray
    trajectory: Trajectory

    def __len__(self) -> int:
        return len(self.seeds)


def _require_seeds(seeds) -> None:
    """Reject an empty seed list, or the empty sweep of one."""
    if len(seeds) == 0:
        raise InvalidConfigError("a sweep needs at least one seed")


def run_edit_sweep(
    src_spec: GaussianSpec,
    tar_spec: GaussianSpec,
    seeds: Sequence[int],
    edit_cfg: EditConfig,
    identity: bool = False,
) -> EditSweep:
    """Run one editing configuration over a seed list on the analytic pair,
    every seed in one editor call, as ``run_avedit_sweep`` does.

    Row r takes its source sample from the keyed stream
    ``derive_seed(seeds[r], 1)`` and its sampler noise from
    ``derive_seed(seeds[r], 2)``, so paired sweeps across modes stay
    matched and row r is the edit a one-seed sweep gives. Each metric
    column is computed for all rows at once, by kernels that give every
    row the bits of a one-seed sweep's scalar call: ``row_structure_distance``,
    ``row_smoothness`` and the residual norm below. The residual is
    measured against the Gaussian optimal-transport map of the pair (the
    exact per-sample edit for Gaussian endpoints). A record past
    ``rng.MAX_ENTRIES`` values is rejected before any seed is read."""
    _require_seeds(seeds)
    edit_cfg.check_record(len(seeds) * src_spec.dim)
    field, c_src, c_tar = pair_field(src_spec, tar_spec)
    if identity:
        c_tar = c_src
    a_map, b_map = ot_map(src_spec, tar_spec)
    x_src = sample_array(src_spec, len(seeds), CounterRng(derive_seeds(seeds, 1)))
    editor = flowedit if edit_cfg.sequence_mode == "edit" else omniedit_sync
    out, traj = editor(field, x_src, c_src, c_tar, edit_cfg,
                       rng=CounterRng(derive_seeds(seeds, 2)), record=True)
    # Stacked products multiply row by row, as one-row calls do; the stacked
    # vector-vector product is np.linalg.norm's dot product.
    ideal = x_src if identity else (x_src[:, None] @ a_map.T)[:, 0] + b_map
    resid = (out - ideal)[:, None]
    return EditSweep(
        seeds=tuple(seeds),
        output=np.ascontiguousarray(out),
        structure_distance=row_structure_distance(x_src, out),
        residual_norm=np.sqrt(resid @ resid.swapaxes(1, 2))[:, 0, 0],
        smoothness_source=row_smoothness(traj.x_src) if len(traj.t) >= 3 else np.zeros(len(seeds)),
        trajectory=traj,
    )


def mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of the mean; one value has a zero error."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        return float(values.mean()), 0.0
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.size))


def _fitted_w2(mean: np.ndarray, cov: np.ndarray, n: int, spec: GaussianSpec) -> float:
    """W2 to ``spec`` from the Gaussian fitted to n rows with sample mean
    ``mean`` and unbiased covariance ``cov`` (plus 1e-12 I).

    Callers fit only more rows than dimensions: the covariance of n <= dim
    rows has rank at most n - 1, so it is singular by construction (one row
    has no covariance at all). A fit that fails with more rows, say because
    the spread of the outputs swamps the jitter, is a numerical failure of
    the run, not a bad configuration."""
    try:
        fitted = GaussianSpec(mean=mean, cov=cov + 1e-12 * np.eye(mean.size))
    except InvalidConfigError as exc:
        raise NumericalError(f"cannot fit a Gaussian to {n} outputs: {exc}") from None
    return w2_gaussian(fitted, spec)


def _sweep_echo(experiment: str, cfg: EditConfig, seed_count: int) -> dict:
    return dict(zip(_ECHO_COLUMNS, (experiment, cfg.sequence_mode, cfg.noise_mode, cfg.T,
                                    cfg.n_max, seed_count)))


def _seed_reports(echo: dict, metrics) -> list[MetricReport]:
    """One seed mean with its standard error per ``(metric, values)`` pair."""
    reports = []
    for name, values in metrics:
        m, se = mean_stderr(values)
        reports.append(MetricReport(name, m, aux={"stderr": se}, config=echo))
    return reports


def sweep_reports(
    sweep: EditSweep, tar_spec: GaussianSpec, cfg: EditConfig, experiment: str
) -> list[MetricReport]:
    """Aggregate a sweep into the four benchmark metrics.

    ``bias_norm`` and the per-seed metrics are seed averages with standard
    errors; ``fitted_w2`` fits Gaussian moments to the pooled outputs and is
    reported without a standard error. A sweep with no more seeds than
    state dimensions (one seed included) has no covariance to fit, so it
    reports no ``fitted_w2``."""
    _require_seeds(sweep)
    echo = _sweep_echo(experiment, cfg, len(sweep))
    reports = []
    outputs = sweep.output
    if outputs.shape[0] > outputs.shape[1]:
        w2 = _fitted_w2(*empirical_moments(outputs), outputs.shape[0], tar_spec)
        reports.append(MetricReport("fitted_w2", w2, config=echo))
    return reports + _seed_reports(echo, [
        (metric, getattr(sweep, column)) for metric, column in sorted(PER_SEED_METRICS)
    ])


def run_ablation(
    src_spec: GaussianSpec,
    tar_spec: GaussianSpec,
    seeds: Sequence[int],
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
        sweep = run_edit_sweep(src_spec, tar_spec, seeds, cfg)
        reports.extend(sweep_reports(sweep, tar_spec, cfg, "ablation"))
    return reports


def _within(u: np.ndarray, reach: float) -> np.ndarray:
    """``u`` shortened to norm ``reach`` if it is longer."""
    norm = float(np.sqrt(u @ u))
    return u * (reach / norm) if norm > reach else u


def run_oracle_check(n: int = 200_000, seed: int = 0) -> tuple[list[dict], bool]:
    """Compare the closed-form marginal velocity with ``mc_conditional_velocity``
    on one draw of ``n`` source points per dimension, shared by its probes.

    1D probes a 5x5 (x, t) grid spanning +-1.5 marginal standard deviations;
    2D probes 10 derived-seed random points at t >= 0.3, because the
    effective sample size of the importance weights falls roughly like t^dim
    (about 500 of 2e5 draws for a 2D point at t = 0.1). A 2D offset longer
    than the 1D grid's reach of 1.5 standard deviations is shortened to it:
    further out in the tail too few draws carry weight (seed 870001 drew an
    offset of norm 4.2 and left 23 effective samples). Returns per-probe
    rows and whether every coordinate's z score stays within
    ``ORACLE_MAX_Z``."""
    rows: list[dict] = []
    ok = True
    t_grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    probe_rng = CounterRng(derive_seed(seed, 902))
    # per dim: (t, offset from the marginal mean in marginal standard deviations)
    probes = {
        1: [(t, np.array([u])) for t in t_grid for u in (-1.5, -0.75, 0.0, 0.75, 1.5)],
        2: [(t_grid[1 + k % 4], _within(probe_rng.normal_array(2), _PROBE_REACH))
            for k in range(10)],
    }
    for dim, offsets in probes.items():
        spec = GaussianSpec.isotropic(0.5, 1.0, dim=dim)
        queries = [((1.0 - t) * spec.mean + u * np.sqrt((1.0 - t) ** 2 * spec.cov + t * t), t)
                   for t, u in offsets]
        mc_rng = CounterRng(derive_seed(seed, 1000 * dim))
        for (x, t), est in zip(queries, mc_conditional_velocity(spec, queries, n, mc_rng)):
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
    files = [_write_csv(out_dir, "summary.csv", SUMMARY_COLUMNS, (
        [*(rep.config.get(key, "") for key in _ECHO_COLUMNS),
         rep.name, format_num(rep.value), format_num(rep.aux.get("stderr", 0.0))]
        for rep in reports
    ))]
    for name, svg_text in plots if plot and plots else ():
        (Path(out_dir) / name).write_text(svg_text)
        files.append(name)
    return files


def write_per_seed_csv(sweep: EditSweep, cfg: EditConfig, out_dir, experiment: str) -> str:
    """Write ``edits.csv``: one row per seed, its metrics in PER_SEED_METRICS order."""
    _require_seeds(sweep)
    metrics = PER_SEED_COLUMNS[5:]
    header = [*PER_SEED_COLUMNS[:5], "seed", *(f"out_{j}" for j in range(sweep.output.shape[1])),
              *metrics]
    return _write_sweep_csv(
        out_dir, "edits.csv", header,
        [experiment, cfg.sequence_mode, cfg.noise_mode, cfg.T, cfg.n_max], sweep.seeds,
        [sweep.output, *(getattr(sweep, column) for column in metrics)],
    )


def summarize_per_seed_csv(path) -> list[MetricReport]:
    """Rebuild summary metrics from a previously written edits.csv.

    Read as csv.DictReader reads it: blank lines are skipped, a short row
    reads ``""`` in its missing columns, and of two columns with one name
    the last is read."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = [row for row in reader if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InvalidConfigError(f"{path} is not a UTF-8 CSV file: {exc}") from None
    index = {name: j for j, name in enumerate(header)}
    missing = [c for c in PER_SEED_COLUMNS if c not in index]
    if missing:
        raise InvalidConfigError(f"{path} is not an edits.csv: no column {', '.join(missing)}")
    if not rows:
        raise InvalidConfigError(f"no rows in {path}")
    columns = list(itertools.zip_longest(*rows, fillvalue=""))
    columns += [("",) * len(rows)] * (len(header) - len(columns))
    groups: dict[tuple, list[int]] = {}
    for r, key in enumerate(zip(*(columns[index[c]] for c in PER_SEED_COLUMNS[:5]))):
        groups.setdefault(key, []).append(r)
    reports = []
    for key, members in sorted(groups.items()):
        metrics = []
        for metric, column in sorted(PER_SEED_METRICS):
            cells = columns[index[column]]
            try:
                values = np.array([float(cells[r]) for r in members])
            except ValueError:
                raise InvalidConfigError(f"{path}: non-numeric {column} value") from None
            if not np.isfinite(values).all():
                raise InvalidConfigError(f"{path}: non-finite {column} value")
            metrics.append((metric, values))
        reports += _seed_reports(dict(zip(_ECHO_COLUMNS, (*key, len(members)))), metrics)
    return reports


def trajectory_plot(sweep: EditSweep, cfg: EditConfig) -> str:
    """Coordinate-0 source and target/edit streams of the sweep's first seed."""
    _require_seeds(sweep)
    traj = sweep.trajectory
    return line_plot(
        [
            ("source stream", traj.t, traj.x_src[:, 0, 0]),
            ("target stream", traj.t, traj.x_main[:, 0, 0]),
            ],
        title=f"edit trajectories (seed {sweep.seeds[0]}, {cfg.sequence_mode}/{cfg.noise_mode})",
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
) -> tuple[MlpVelocityField, "TrainReport", "CoupledAvDataset"]:
    """Synthesize a coupled AV dataset and fit a velocity model on the joint
    (video, audio) state to it."""
    dataset = synth_av_dataset(params, n_samples, seed=derive_seed(seed, 7))
    joint_dim = params.video_dim + params.audio_dim
    model = mlp_init([*widths, joint_dim], condition_dim=params.num_classes, seed=seed)
    report = train(
        model,
        dataset.joint_pairs(),
        TrainConfig(epochs=epochs, batch_size=batch_size, learning_rate=learning_rate, seed=seed),
    )
    return MlpVelocityField(model), report, dataset


@dataclass(frozen=True, eq=False)
class AvEditSweep:
    """An AV edit sweep as columns: row r of each array is the edit of
    ``seeds[r]``; ``video_out`` is (n, video_dim), ``audio_out`` (n,
    audio_dim) and ``target_sigmas`` (n,)."""

    seeds: tuple
    video_out: np.ndarray
    audio_out: np.ndarray
    target_sigmas: np.ndarray

    def __len__(self) -> int:
        return len(self.seeds)


def run_avedit_sweep(
    field: VelocityField,
    params: "AvSynthParams",
    seeds: Sequence[int],
    edit_cfg: EditConfig,
    src_class: int = 0,
    tar_class: int = 1,
) -> AvEditSweep:
    """Class-swap edits on synthesized sources, every seed in one editor call.

    Row r takes its video and audio source from the keyed stream
    ``derive_seed(seeds[r], 1)`` and its sampler noise from
    ``derive_seed(seeds[r], 2)``, so it is the edit a one-seed sweep gives.
    ``target_sigmas`` is each video output's distance to the target-class
    mean in units of the within-class standard deviation. ``field`` is a
    velocity field on the joint state concat(video, audio) of ``params``.
    """
    for name, k in (("src_class", src_class), ("tar_class", tar_class)):
        if not 0 <= k < params.num_classes:
            raise InvalidConfigError(f"{name}={k} outside 0..{params.num_classes - 1}")
    _require_seeds(seeds)
    n = len(seeds)
    data_rng = CounterRng(derive_seeds(seeds, 1))
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
        field, params.video_dim, v, a,
        Condition.one_hot(src_class, params.num_classes),
        Condition.one_hot(tar_class, params.num_classes),
        edit_cfg,
        rng=CounterRng(derive_seeds(seeds, 2)),
    )
    dist = np.linalg.norm(out.video - params.video_means[tar_class], axis=-1) / params.video_scale
    return AvEditSweep(seeds=tuple(seeds), video_out=out.video, audio_out=out.audio,
                       target_sigmas=dist)


def write_avedit_csv(sweep: AvEditSweep, cfg: EditConfig, out_dir) -> str:
    """Write ``avedits.csv``: one row per seed, outputs and ``target_sigmas``."""
    _require_seeds(sweep)
    header = ["T", "n_max", "seed",
              *(f"video_out_{j}" for j in range(sweep.video_out.shape[1])),
              *(f"audio_out_{j}" for j in range(sweep.audio_out.shape[1])), "target_sigmas"]
    return _write_sweep_csv(out_dir, "avedits.csv", header, [cfg.T, cfg.n_max], sweep.seeds,
                            [sweep.video_out, sweep.audio_out, sweep.target_sigmas])


def avedit_reports(sweep: AvEditSweep, cfg: EditConfig) -> list[MetricReport]:
    """The share of class swaps that succeeded, i.e. ended within 3
    within-class standard deviations of the target mean (reported without a
    standard error), and the seed mean of ``target_sigmas``."""
    _require_seeds(sweep)
    echo = _sweep_echo("avedit", cfg, len(sweep))
    sigmas = sweep.target_sigmas
    return [MetricReport("class_swap_success_rate", float(np.mean(sigmas <= 3.0)), config=echo),
            *_seed_reports(echo, [("target_sigmas", sigmas)])]


def run_generate_sweep(
    spec: GaussianSpec, n: int, T: int, seed: int
) -> tuple[np.ndarray, list[MetricReport]]:
    """Transport n standard-normal draws through the analytic field.

    Like an edit sweep, a run with n <= dim draws reports no ``fitted_w2``."""
    field, c_src, _ = pair_field(spec, spec)
    rng = CounterRng(derive_seed(seed, 3))
    samples = generate(field, rng.normal_array((n, spec.dim)), c_src, T)
    mean, cov = empirical_moments(samples)
    echo = {"experiment": "generate", "T": T, "seed_count": 1}
    reports = []
    if n > spec.dim:
        reports.append(MetricReport("fitted_w2", _fitted_w2(mean, cov, n, spec), config=echo))
    return samples, reports + [
        MetricReport("mean_abs_error", float(np.max(np.abs(mean - spec.mean))), config=echo),
        MetricReport("cov_abs_error", float(np.max(np.abs(cov - spec.cov_matrix()))), config=echo),
    ]
