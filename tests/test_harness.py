import csv
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flowlab.errors import InvalidConfigError, NumericalError
from flowlab.core import Condition
from flowlab.gaussian import GaussianConditionalField, GaussianSpec, ot_map, sample_array
from flowlab import harness
from flowlab.harness import (
    ABLATION_CELLS,
    ORACLE_MAX_Z,
    AvEditSweep,
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
)
from flowlab.metrics import empirical_moments, smoothness, structure_distance
from flowlab.rng import MAX_ENTRIES, CounterRng, derive_seed
from flowlab.samplers import EditConfig, flowedit, omniedit_av, omniedit_sync

SRC = GaussianSpec.isotropic(0.0, 1.0, dim=2)
TAR = GaussianSpec.isotropic(2.0, 1.0, dim=2)


def cell_value(reports, seq, noise, metric):
    for rep in reports:
        cfg = rep.config
        if (cfg.get("seq_mode"), cfg.get("noise_mode"), rep.name) == (seq, noise, metric):
            return rep.value
    raise AssertionError(f"missing cell ({seq}, {noise}, {metric})")


class TestExperimentConfig:
    """config_hash of a resolved experiment configuration."""

    def test_hash_tracks_semantic_content_only(self):
        a = config_hash("edit", {"T": 20, "seeds": 10})
        b = config_hash("edit", {"seeds": 10, "T": 20})  # key order irrelevant
        assert a == b
        assert a != config_hash("edit", {"T": 21, "seeds": 10})
        assert a != config_hash("ablation", {"T": 20, "seeds": 10})
        # a tuple value hashes as its words joined with spaces
        pair = config_hash("edit", {"analytic": ("src=0,1", "tar=2,1")})
        assert pair == config_hash("edit", {"analytic": "src=0,1 tar=2,1"})

    def test_hash_ignores_output_locations(self):
        def edit_hash(**changes):
            params = {"T": 20, "seeds": 10, "plot": False, "out_dir": "runs/a", **changes}
            return config_hash("edit", params)

        assert edit_hash() == edit_hash(out_dir="elsewhere/b")
        assert edit_hash() == edit_hash(n_max=None)
        assert edit_hash() != edit_hash(seeds=11)
        assert edit_hash() != edit_hash(T=21)
        train = {"n": 2048, "epochs": 160, "seed": 0, "out_dir": "runs/train"}
        t1 = config_hash("train", {**train, "out": "one/model.bin"})
        t2 = config_hash("train", {**train, "out": "two/model.bin"})
        assert t1 == t2

    def test_hash_keeps_input_paths(self):
        a = config_hash("avedit", {"model": "a.bin", "seeds": 5})
        b = config_hash("avedit", {"model": "b.bin", "seeds": 5})
        assert a != b


class TestEditSweep:
    def test_deterministic_over_repeats(self):
        cfg = EditConfig(T=10, n_max=7, sequence_mode="target", noise_mode="estimated")
        a = run_edit_sweep(SRC, TAR, list(range(5)), cfg)
        b = run_edit_sweep(SRC, TAR, list(range(5)), cfg)
        assert a.output.shape == (5, 2)
        assert np.array_equal(a.output, b.output)

    def test_identity_flag(self):
        cfg = EditConfig(T=10, n_max=7, sequence_mode="target", noise_mode="estimated")
        sweep = run_edit_sweep(SRC, TAR, list(range(4)), cfg, identity=True)
        assert sweep.structure_distance.shape == (4,)
        assert np.all(sweep.structure_distance < 1e-9)

    def test_reports_cover_the_metric_set(self):
        cfg = EditConfig(T=10, n_max=7, sequence_mode="edit", noise_mode="random")
        sweep = run_edit_sweep(SRC, TAR, list(range(6)), cfg)
        reports = sweep_reports(sweep, TAR, cfg, "edit")
        assert [r.name for r in reports] == [
            "fitted_w2", "bias_norm", "smoothness", "structure_distance",
        ]
        assert all(r.config["seed_count"] == 6 for r in reports)


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


@st.composite
def spec_pairs(draw):
    """A (source, target) pair of dimension 1-3, both diagonal or both full."""
    dim, full = draw(st.integers(1, 3)), draw(st.booleans())

    def spec():
        mean = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim)))
        if not full:
            return GaussianSpec(mean=mean, cov=np.array(
                draw(st.lists(st.floats(0.05, 4.0), min_size=dim, max_size=dim))))
        root = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim * dim,
                                      max_size=dim * dim))).reshape(dim, dim)
        return GaussianSpec(mean=mean, cov=root @ root.T + 0.1 * np.eye(dim))

    return spec(), spec()


def _looped_edit_sweep(src_spec, tar_spec, seeds, cfg, identity):
    """The per-seed loop the batched sweep replaced: one editor call per
    seed, on scalar generators, with each metric written out in its scalar
    arithmetic rather than through the batched kernels. Rows of (output,
    structure_distance, residual_norm, smoothness_source, trajectory)."""
    field, c_src, c_tar = harness.pair_field(src_spec, tar_spec)
    c_tar = c_src if identity else c_tar
    a_map, b_map = ot_map(src_spec, tar_spec)
    editor = flowedit if cfg.sequence_mode == "edit" else omniedit_sync
    rows = []
    for seed in seeds:
        x_src = sample_array(src_spec, 1, CounterRng(derive_seed(seed, 1)))[0]
        out, traj = editor(field, x_src, c_src, c_tar, cfg, rng=CounterRng(derive_seed(seed, 2)),
                           record=True)
        ideal = x_src if identity else x_src @ a_map.T + b_map
        rows.append((out, float(np.sqrt(np.mean((out - x_src) ** 2))),
                     float(np.linalg.norm(out - ideal)), _looped_smoothness(traj), traj))
    return rows


def _looped_smoothness(traj):
    """The scalar smoothness arithmetic the batched kernel must match: one
    sum over the whole record's second differences; 0 under 3 steps."""
    pts = traj.x_src.reshape(len(traj.t), -1)
    if pts.shape[0] < 3:
        return 0.0
    second = pts[2:] - 2.0 * pts[1:-1] + pts[:-2]
    return float(np.sum(second**2)) / (second.shape[0] * pts.shape[1])


_RECORD = ("t", "x_src", "x_main")

_DIAGONAL_1D = (GaussianSpec(mean=np.array([0.5]), cov=np.array([1.5])),
                GaussianSpec(mean=np.array([2.0]), cov=np.array([0.25])))
_DIAGONAL_2D = (GaussianSpec(mean=np.array([0.0, -1.0]), cov=np.array([1.0, 0.5])),
                GaussianSpec(mean=np.array([2.0, 1.0]), cov=np.array([0.25, 2.0])))


class TestBatchedEditSweep:
    """run_edit_sweep makes one keyed editor call per cell and computes each
    metric for all rows at once; row r must be the one-seed sweep of
    seeds[r]: bit for bit on a diagonal pair, and within 1e-12 relative on a
    full pair, whose batched products sum in another order than per-row
    ones."""

    @settings(max_examples=80, deadline=None)
    @given(pair=spec_pairs(), cell=st.sampled_from(ABLATION_CELLS), T=st.integers(2, 8),
           n_max=st.integers(1, 8), cfg_scale=st.one_of(st.just(1.0), st.floats(0.0, 3.0)),
           identity=st.booleans(),
           # more seeds than dim make a tall state, which takes the column path
           seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=9))
    # n_max 1 and 2 record too few steps for smoothness, which reads 0
    @example(pair=_DIAGONAL_2D, cell=("edit", "random"), T=4, n_max=1, cfg_scale=1.0,
             identity=False, seeds=[3, 7, 11])
    @example(pair=_DIAGONAL_1D, cell=("target", "random"), T=5, n_max=2, cfg_scale=1.5,
             identity=False, seeds=[0, 1])
    @example(pair=_DIAGONAL_2D, cell=("target", "estimated"), T=6, n_max=3, cfg_scale=1.0,
             identity=False, seeds=[5, 6, 7, 8])
    @example(pair=_DIAGONAL_2D, cell=("edit", "estimated"), T=8, n_max=6, cfg_scale=1.0,
             identity=True, seeds=[2**64 - 1])
    # 78 second differences of 2 entries a row: past numpy's 128-entry pairwise-sum block
    @example(pair=_DIAGONAL_2D, cell=("edit", "random"), T=80, n_max=80, cfg_scale=1.0,
             identity=False, seeds=[9, 10, 11, 12, 13])
    def test_rows_equal_the_per_seed_loop(self, pair, cell, T, n_max, cfg_scale, identity, seeds):
        src_spec, tar_spec = pair
        dim, count = src_spec.dim, len(seeds)
        cfg = EditConfig(T=T, n_max=min(n_max, T), sequence_mode=cell[0], noise_mode=cell[1],
                         cfg_scale=cfg_scale)
        sweep = run_edit_sweep(src_spec, tar_spec, seeds, cfg, identity=identity)
        looped = _looped_edit_sweep(src_spec, tar_spec, seeds, cfg, identity)
        assert sweep.seeds == tuple(seeds)
        assert len(sweep) == count

        if src_spec.is_diagonal:
            def same(got, want, squared=False):
                assert np.array_equal(_bits(got), _bits(want))
        else:
            scale = 1.0 + max(np.max(np.abs(a)) for out, *_, traj in looped
                              for a in (out, *(getattr(traj, name) for name in _RECORD)))

            def same(got, want, squared=False):
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12 * scale ** (2 if squared else 1))

        # one column per metric and one stacked record, row r at [:, r]
        assert sweep.output.shape == (count, dim) and sweep.output.flags.c_contiguous
        for column in ("structure_distance", "residual_norm", "smoothness_source"):
            assert getattr(sweep, column).shape == (count,)
        record = sweep.trajectory
        assert record.t.shape == (cfg.n_max,)
        for name in _RECORD[1:]:
            assert getattr(record, name).shape == (cfg.n_max, count, dim)
        for r, (out, distance, residual, smooth, traj) in enumerate(looped):
            same(sweep.output[r], out)
            same(sweep.structure_distance[r], distance)
            same(sweep.residual_norm[r], residual)
            same(sweep.smoothness_source[r], smooth, squared=True)
            same(record.t, traj.t)
            for name in _RECORD[1:]:
                same(getattr(record, name)[:, r], getattr(traj, name))

    def test_scalar_helpers_are_not_called_per_row(self, monkeypatch):
        # the sweep derives its keys and row metrics for all rows at once; a
        # spy set under each name also catches a later import of it
        calls = dict.fromkeys(("derive_seed", "structure_distance", "smoothness"), 0)

        def spy(name, real):
            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return counted

        for name, real in (("derive_seed", derive_seed), ("structure_distance", structure_distance),
                           ("smoothness", smoothness)):
            monkeypatch.setattr(harness, name, spy(name, real), raising=False)
        seeds = list(range(50))
        for cell in ABLATION_CELLS:
            sweep = run_edit_sweep(SRC, TAR, seeds, EditConfig(T=10, n_max=7, sequence_mode=cell[0],
                                                               noise_mode=cell[1]))
            assert len(sweep) == len(seeds)
        assert all(count < len(seeds) for count in calls.values()), calls


class TestEmptySeedList:
    """An empty seed list, or one whose arrays would pass rng.MAX_ENTRIES
    values, is a configuration error, raised before any generator is
    built."""

    @pytest.fixture(autouse=True)
    def no_generators(self, monkeypatch):
        def built(seed):
            raise AssertionError(f"a generator was built on {seed!r}")

        monkeypatch.setattr(harness, "CounterRng", built)

    def test_edit_sweep(self):
        with pytest.raises(InvalidConfigError, match="seed"):
            run_edit_sweep(SRC, TAR, [], EditConfig(T=4, n_max=2))

    def test_ablation(self):
        with pytest.raises(InvalidConfigError, match="seed"):
            run_ablation(SRC, TAR, [], T=4, n_max=2)

    def test_avedit_sweep(self):
        params = default_av_params()
        with pytest.raises(InvalidConfigError, match="seed"):
            run_avedit_sweep(_analytic_av_field(params), params, [], EditConfig(T=4, n_max=2))

    # ranges, whose length is read without making the list
    def test_edit_sweep_record_past_the_limit(self):
        seeds = range(MAX_ENTRIES // (2 * 2 * SRC.dim) + 1)  # 2 n_max dim values a seed
        with pytest.raises(InvalidConfigError, match="edit record"):
            run_edit_sweep(SRC, TAR, seeds, EditConfig(T=4, n_max=2))
        with pytest.raises(InvalidConfigError, match="edit record"):
            run_ablation(SRC, TAR, seeds, T=4, n_max=2)

    def test_avedit_seed_list_past_the_limit(self):
        params = default_av_params()
        with pytest.raises(InvalidConfigError, match="seed list"):
            run_avedit_sweep(_analytic_av_field(params), params, range(MAX_ENTRIES + 1),
                             EditConfig(T=4, n_max=2))


class TestEmptyRunList:
    """An empty run list is a configuration error, raised before any work."""

    CFG = EditConfig(T=4, n_max=2)

    def test_per_seed_csv(self, tmp_path):
        with pytest.raises(InvalidConfigError, match="seed"):
            write_per_seed_csv([], self.CFG, tmp_path / "out", "edit")
        assert not (tmp_path / "out").exists()

    def test_avedit_csv(self, tmp_path):
        with pytest.raises(InvalidConfigError, match="seed"):
            write_avedit_csv([], self.CFG, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_trajectory_plot(self):
        with pytest.raises(InvalidConfigError, match="seed"):
            trajectory_plot([], self.CFG)

    def test_sweep_reports(self):
        with pytest.raises(InvalidConfigError, match="seed"):
            sweep_reports([], TAR, self.CFG, "edit")

    def test_avedit_reports(self):
        with pytest.raises(InvalidConfigError, match="seed"):
            avedit_reports([], self.CFG)


class TestAblation:
    def test_sixteen_rows_and_ordering(self):
        reports = run_ablation(SRC, TAR, list(range(60)), T=20, n_max=14)
        assert len(reports) == 16
        slack = 1e-9
        best_bias = cell_value(reports, "target", "estimated", "bias_norm")
        best_smooth = cell_value(reports, "target", "estimated", "smoothness")
        for seq, noise in ABLATION_CELLS:
            assert best_bias <= cell_value(reports, seq, noise, "bias_norm") + slack
            assert best_smooth <= cell_value(reports, seq, noise, "smoothness") + slack

    def test_random_noise_cells_are_rougher(self):
        reports = run_ablation(SRC, TAR, list(range(30)), T=20, n_max=14)
        for seq in ("edit", "target"):
            assert cell_value(reports, seq, "estimated", "smoothness") < cell_value(
                reports, seq, "random", "smoothness"
            )


class TestEmitReport:
    def test_summary_csv_cardinality_and_determinism(self, tmp_path):
        reports = run_ablation(SRC, TAR, list(range(8)), T=10, n_max=7)
        emit_report(reports, tmp_path / "a")
        emit_report(reports, tmp_path / "b")
        a = (tmp_path / "a" / "summary.csv").read_bytes()
        b = (tmp_path / "b" / "summary.csv").read_bytes()
        assert a == b
        lines = a.decode().strip().split("\n")
        assert lines[0] == "experiment,seq_mode,noise_mode,T,n_max,seed_count,metric,mean,stderr"
        assert len(lines) == 1 + 16

    def test_requires_reports(self, tmp_path):
        with pytest.raises(InvalidConfigError):
            emit_report([], tmp_path)

    def test_plots_written_when_asked(self, tmp_path):
        cfg = EditConfig(T=10, n_max=7, sequence_mode="target", noise_mode="estimated")
        sweep = run_edit_sweep(SRC, TAR, list(range(3)), cfg)
        svg = trajectory_plot(sweep, cfg)
        files = emit_report(
            sweep_reports(sweep, TAR, cfg, "edit"), tmp_path, plot=True,
            plots=[("trajectories.svg", svg)],
        )
        assert "trajectories.svg" in files
        text = (tmp_path / "trajectories.svg").read_text()
        assert text.count("<polyline") == 2  # source and target streams


class TestPerSeedCsv:
    def test_round_trip_summary(self, tmp_path):
        cfg = EditConfig(T=10, n_max=7, sequence_mode="target", noise_mode="estimated")
        sweep = run_edit_sweep(SRC, TAR, list(range(8)), cfg)
        write_per_seed_csv(sweep, cfg, tmp_path, "edit")
        rebuilt = summarize_per_seed_csv(tmp_path / "edits.csv")
        direct = sweep_reports(sweep, TAR, cfg, "edit")
        by_name = {r.name: r.value for r in rebuilt}
        for rep in direct:
            if rep.name in by_name:
                assert by_name[rep.name] == pytest.approx(rep.value, rel=1e-9)


    def test_one_seed_sweep_has_no_fitted_w2(self):
        cfg = EditConfig(T=10, n_max=7, sequence_mode="target", noise_mode="estimated")
        sweep = run_edit_sweep(SRC, TAR, [0], cfg)
        names = [r.name for r in sweep_reports(sweep, TAR, cfg, "edit")]
        assert names == ["bias_norm", "smoothness", "structure_distance"]

    def test_no_more_seeds_than_dims_has_no_fitted_w2(self):
        # the pooled covariance of n <= dim outputs is singular by construction
        spec = GaussianSpec.isotropic(0.0, 1.0, dim=3)
        cfg = EditConfig(T=10, n_max=7, sequence_mode="target", noise_mode="estimated")
        for seeds, fitted in ((3, False), (4, True)):
            sweep = run_edit_sweep(spec, spec, list(range(seeds)), cfg)
            names = [r.name for r in sweep_reports(sweep, spec, cfg, "edit")]
            assert ("fitted_w2" in names) == fitted

    def test_failed_fit_is_a_numerical_error(self):
        # collinear outputs at a scale where the 1e-12 jitter rounds away
        outputs = np.array([[0.0, 0.0], [1e10, 1e10], [2e10, 2e10]])
        with pytest.raises(NumericalError, match="3 outputs"):
            harness._fitted_w2(*empirical_moments(outputs), 3, SRC)
        assert harness._fitted_w2(*empirical_moments(outputs / 1e10), 3, SRC) > 0.0

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "edits.csv"
        path.write_text("seed,out_0\n0,1.5\n")
        with pytest.raises(InvalidConfigError, match="experiment"):
            summarize_per_seed_csv(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        cfg = EditConfig(T=10, n_max=7, sequence_mode="target", noise_mode="estimated")
        write_per_seed_csv(run_edit_sweep(SRC, TAR, [0, 1], cfg), cfg, tmp_path, "edit")
        path = tmp_path / "edits.csv"
        path.write_text(path.read_text() + "edit,target,estimated,10,7,2,0.1,0.2,x,y\n")
        with pytest.raises(InvalidConfigError):
            summarize_per_seed_csv(path)

    def test_reads_as_dict_reader_does(self, tmp_path):
        cfg = EditConfig(T=10, n_max=7, sequence_mode="target", noise_mode="estimated")
        write_per_seed_csv(run_edit_sweep(SRC, TAR, [0, 1, 2], cfg), cfg, tmp_path, "edit")
        path = tmp_path / "edits.csv"
        header, *rows = path.read_text().splitlines()
        want = summarize_per_seed_csv(path)

        def summary(lines):
            path.write_text("\n".join(lines) + "\n")
            return summarize_per_seed_csv(path)

        # blank lines are skipped
        assert summary([header, "", rows[0], "", *rows[1:], ""]) == want
        # of two columns with one name, the last is read
        doubled = summary([header + ",residual_norm", *(row + ",0.5" for row in rows)])
        assert [r.value for r in doubled if r.name == "bias_norm"] == [0.5]
        # a short row reads "" in its missing columns
        with pytest.raises(InvalidConfigError, match="non-numeric smoothness_source value"):
            summary([header, *rows[:2], rows[2].rsplit(",", 1)[0]])


def _row_written_csv(path, header, rows):
    """The row-by-row writer the column writers must match byte for byte."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    return path.read_bytes()


# any float, the non-finite ones and signed zeros included
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


class TestSweepCsvBytes:
    """edits.csv and avedits.csv, written from the sweep columns, hold the
    bytes of csv.writer fed one row at a time with every number format_num'd."""

    @settings(max_examples=60, deadline=None)
    @given(pair=spec_pairs(), cell=st.sampled_from(ABLATION_CELLS), T=st.integers(2, 6),
           n_max=st.integers(1, 6),
           seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=9),
           # separators, quotes, line breaks and %-template characters
           experiment=st.text(alphabet='ab ,"%d\r\n', max_size=6))
    def test_edits_csv(self, tmp_path_factory, pair, cell, T, n_max, seeds, experiment):
        out_dir = tmp_path_factory.mktemp("edits")
        cfg = EditConfig(T=T, n_max=min(n_max, T), sequence_mode=cell[0], noise_mode=cell[1])
        sweep = run_edit_sweep(*pair, seeds, cfg)
        write_per_seed_csv(sweep, cfg, out_dir, experiment)
        dim = pair[0].dim
        header = ["experiment", "seq_mode", "noise_mode", "T", "n_max", "seed",
                  *(f"out_{j}" for j in range(dim)),
                  "structure_distance", "residual_norm", "smoothness_source"]
        rows = ([experiment, *cell, cfg.T, cfg.n_max, seed, *map(format_num, sweep.output[r]),
                 format_num(sweep.structure_distance[r]), format_num(sweep.residual_norm[r]),
                 format_num(sweep.smoothness_source[r])] for r, seed in enumerate(seeds))
        want = _row_written_csv(out_dir / "reference.csv", header, rows)
        assert (out_dir / "edits.csv").read_bytes() == want

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), video_dim=st.integers(1, 3), audio_dim=st.integers(1, 3),
           seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=9),
           T=st.integers(2, 50), n_max=st.integers(1, 50))
    def test_avedits_csv(self, tmp_path_factory, data, video_dim, audio_dim, seeds, T, n_max):
        out_dir = tmp_path_factory.mktemp("avedits")
        n = len(seeds)

        def column(width):
            values = data.draw(st.lists(_ANY_FLOAT, min_size=n * width, max_size=n * width))
            return np.array(values, dtype=float).reshape(n, width)

        sweep = AvEditSweep(seeds=tuple(seeds), video_out=column(video_dim),
                            audio_out=column(audio_dim), target_sigmas=column(1)[:, 0])
        cfg = EditConfig(T=T, n_max=min(n_max, T))
        write_avedit_csv(sweep, cfg, out_dir)
        header = ["T", "n_max", "seed", *(f"video_out_{j}" for j in range(video_dim)),
                  *(f"audio_out_{j}" for j in range(audio_dim)), "target_sigmas"]
        rows = ([cfg.T, cfg.n_max, seed, *map(format_num, sweep.video_out[r]),
                 *map(format_num, sweep.audio_out[r]), format_num(sweep.target_sigmas[r])]
                for r, seed in enumerate(seeds))
        want = _row_written_csv(out_dir / "reference.csv", header, rows)
        assert (out_dir / "avedits.csv").read_bytes() == want


class TestOracleCheckRunner:
    @pytest.mark.parametrize("seed", range(20))
    def test_quick_grid_agrees(self, seed):
        # calibration: the correct closed form passes on every seed
        rows, ok = run_oracle_check(seed=seed)
        assert ok
        assert len(rows) == 35  # 25-point 1D grid plus 10 2D probes

    @pytest.mark.parametrize("seed", range(5))
    def test_two_percent_scale_error_fails(self, monkeypatch, seed):
        # power: the threshold still catches a 2 % error in the closed form
        exact = harness.marginal_velocity
        monkeypatch.setattr(harness, "marginal_velocity", lambda spec, x, t: 1.02 * exact(spec, x, t))
        rows, ok = run_oracle_check(seed=seed)
        assert not ok

    @pytest.mark.parametrize("seed", [0, 870001])
    def test_two_dim_probes_stay_within_the_grid_reach(self, seed):
        rows, _ = run_oracle_check(n=10_000, seed=seed)
        offsets = []
        for r in rows:
            x, t = np.array([float(v) for v in r["x"].split()]), r["t"]
            offsets.append(np.linalg.norm((x - (1.0 - t) * 0.5) / np.hypot(1.0 - t, t)))
        assert max(offsets[:25]) == pytest.approx(1.5)
        assert max(offsets[25:]) <= 1.5 + 1e-9
        assert min(offsets[25:]) < 1.5 - 0.1  # short offsets keep their length

    def test_threshold_is_the_family_wise_bound(self):
        rows, _ = run_oracle_check(n=10_000, seed=0)
        coords = sum(len(r["x"].split()) for r in rows)
        assert coords == 45
        assert coords * math.erfc(ORACLE_MAX_Z / math.sqrt(2)) <= 1e-3
        # and the smallest such threshold at two decimals, not a looser one
        assert coords * math.erfc((ORACLE_MAX_Z - 0.01) / math.sqrt(2)) > 1e-3


class TestManifest:
    def test_writes_required_fields(self, tmp_path):
        digest = config_hash("edit", {"T": 10, "seeds": 2})
        write_manifest(tmp_path, digest, ["summary.csv", "edits.csv"])
        payload = json.loads((tmp_path / "manifest.json").read_text())
        assert payload["config_hash"] == digest
        assert payload["rng_algorithm"]
        assert payload["tool_version"]
        assert payload["outputs"] == ["edits.csv", "summary.csv"]
        assert payload["created_utc"]


class TestGenerateSweep:
    def test_moments_close_at_modest_scale(self):
        spec = GaussianSpec.isotropic(1.0, 1.0, dim=2)
        samples, reports = run_generate_sweep(spec, 2_000, 100, seed=1)
        assert samples.shape == (2_000, 2)
        values = {r.name: r.value for r in reports}
        assert values["fitted_w2"] < 0.2
        assert values["mean_abs_error"] < 0.1

    def test_no_more_draws_than_dims_has_no_fitted_w2(self):
        _, reports = run_generate_sweep(SRC, 2, 10, seed=1)
        assert [r.name for r in reports] == ["mean_abs_error", "cov_abs_error"]

    def test_moments_computed_once(self, monkeypatch):
        calls = []
        moments = harness.empirical_moments
        monkeypatch.setattr(harness, "empirical_moments", lambda s: calls.append(1) or moments(s))
        _, reports = run_generate_sweep(SRC, 50, 10, seed=1)
        assert [r.name for r in reports] == ["fitted_w2", "mean_abs_error", "cov_abs_error"]
        assert len(calls) == 1


class TestAvHarness:
    def test_train_and_swap_smoke(self):
        params = default_av_params()
        field, report, dataset = train_av_model(
            params, n_samples=256, widths=(16,), epochs=10, batch_size=64,
            learning_rate=3e-3, seed=0,
        )
        assert report.final_loss < report.initial_loss
        sweep = run_avedit_sweep(
            field, params, [0, 1], EditConfig(T=10, n_max=10), src_class=0, tar_class=1
        )
        assert len(sweep) == 2
        assert sweep.video_out.shape == (2, params.video_dim)
        assert np.all(np.isfinite(sweep.video_out))


def _analytic_av_field(params):
    """Per-class diagonal Gaussians on concat(video, audio) at the synthetic
    classes' means."""
    field = GaussianConditionalField(condition_dim=params.num_classes,
                                     state_dim=params.video_dim + params.audio_dim)
    for k in range(params.num_classes):
        audio_mean = params.coupling @ params.video_means[k] + params.audio_offsets[k]
        field.register(Condition.one_hot(k, params.num_classes), GaussianSpec(
            mean=np.concatenate([params.video_means[k], audio_mean]),
            cov=[params.video_scale**2] * params.video_dim + [0.5] * params.audio_dim))
    return field


def _looped_avedit(field, params, seeds, cfg, src_class, tar_class):
    """The per-seed loop the batched sweep replaced, on scalar generators."""
    c_src = Condition.one_hot(src_class, params.num_classes)
    c_tar = Condition.one_hot(tar_class, params.num_classes)
    rows = []
    for seed in seeds:
        data_rng = CounterRng(derive_seed(seed, 1))
        v = params.video_means[src_class] + params.video_scale * data_rng.normal_array(
            params.video_dim
        )
        a = (params.coupling @ v + params.audio_offsets[src_class]
             + params.noise_scale * data_rng.normal_array(params.audio_dim))
        out = omniedit_av(field, params.video_dim, v, a, c_src, c_tar, cfg,
                          rng=CounterRng(derive_seed(seed, 2)))
        dist = float(np.linalg.norm(out.video - params.video_means[tar_class])) / params.video_scale
        rows.append((out.video, out.audio, dist))
    return rows


class TestAvEditSweep:
    @pytest.mark.parametrize("src_class, tar_class", [(0, 1), (1, 0), (1, 1)])
    def test_rows_equal_the_per_seed_loop_bitwise(self, src_class, tar_class):
        params = default_av_params()
        field = _analytic_av_field(params)
        seeds = [0, 5, 2, 2**40, 17]
        cfg = EditConfig(T=12, n_max=8)
        sweep = run_avedit_sweep(field, params, seeds, cfg, src_class, tar_class)
        assert sweep.seeds == tuple(seeds)
        assert sweep.video_out.shape == (len(seeds), params.video_dim)
        assert sweep.audio_out.shape == (len(seeds), params.audio_dim)
        assert sweep.target_sigmas.shape == (len(seeds),)
        for r, (video, audio, dist) in enumerate(
            _looped_avedit(field, params, seeds, cfg, src_class, tar_class)
        ):
            assert np.array_equal(sweep.video_out[r], video)
            assert np.array_equal(sweep.audio_out[r], audio)
            assert sweep.target_sigmas[r] == dist

    @pytest.mark.parametrize("classes", [(5, 1), (0, -1), (2, 0)])
    def test_classes_outside_the_synthetic_set_rejected(self, classes):
        params = default_av_params()
        with pytest.raises(InvalidConfigError, match="class"):
            run_avedit_sweep(_analytic_av_field(params), params, [0], EditConfig(T=4, n_max=2),
                             *classes)


class TestAveditReports:
    def test_success_rate_and_sigma_stderr(self):
        sigmas = [1.0, 3.0, 3.5, 5.0]
        sweep = AvEditSweep(seeds=(0, 1, 2, 3), video_out=np.zeros((4, 2)),
                            audio_out=np.zeros((4, 1)), target_sigmas=np.array(sigmas))
        cfg = EditConfig(T=40, n_max=28)
        rate, sig = avedit_reports(sweep, cfg)
        # exactly 3.0 counts as a success: 1.0 and 3.0 of the four
        assert (rate.name, rate.value, rate.aux) == ("class_swap_success_rate", 0.5, {})
        assert sig.name == "target_sigmas"
        assert sig.value == 3.125
        # squared deviations from 3.125 sum to 8.1875 over 3 degrees of freedom
        assert sig.aux["stderr"] == pytest.approx(math.sqrt(8.1875 / 3) / 2, rel=1e-12)
        assert rate.config == sig.config == {
            "experiment": "avedit", "seq_mode": "target", "noise_mode": "estimated",
            "T": 40, "n_max": 28, "seed_count": 4,
        }


def test_bias_curve_plot_is_svg():
    svg = bias_curve_plot(
        GaussianSpec.isotropic(0.0, 1.0), GaussianSpec.isotropic(2.0, 1.0), grid_steps=2_000
    )
    assert svg.startswith("<svg") and "polyline" in svg
