import json
import math

import numpy as np
import pytest

from flowlab.errors import InvalidConfigError, NumericalError
from flowlab.core import Condition
from flowlab.gaussian import GaussianConditionalField, GaussianSpec
from flowlab import harness
from flowlab.harness import (
    ABLATION_CELLS,
    ORACLE_MAX_Z,
    AvEditRun,
    avedit_reports,
    bias_curve_plot,
    config_hash,
    default_av_params,
    emit_report,
    run_ablation,
    run_avedit_sweep,
    run_edit_sweep,
    run_generate_sweep,
    run_oracle_check,
    summarize_per_seed_csv,
    sweep_reports,
    train_av_model,
    trajectory_plot,
    write_manifest,
    write_per_seed_csv,
)
from flowlab.metrics import empirical_moments
from flowlab.rng import CounterRng, derive_seed
from flowlab.samplers import EditConfig, omniedit_av

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
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.output, rb.output)

    def test_identity_flag(self):
        cfg = EditConfig(T=10, n_max=7, sequence_mode="target", noise_mode="estimated")
        runs = run_edit_sweep(SRC, TAR, list(range(4)), cfg, identity=True)
        assert all(r.structure_distance < 1e-9 for r in runs)

    def test_reports_cover_the_metric_set(self):
        cfg = EditConfig(T=10, n_max=7, sequence_mode="edit", noise_mode="random")
        runs = run_edit_sweep(SRC, TAR, list(range(6)), cfg)
        reports = sweep_reports(runs, TAR, cfg, "edit")
        assert [r.name for r in reports] == [
            "fitted_w2", "bias_norm", "smoothness", "structure_distance",
        ]
        assert all(r.config["seed_count"] == 6 for r in reports)


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
        runs = run_edit_sweep(SRC, TAR, list(range(3)), cfg)
        svg = trajectory_plot(runs, cfg)
        files = emit_report(
            sweep_reports(runs, TAR, cfg, "edit"), tmp_path, plot=True,
            plots=[("trajectories.svg", svg)],
        )
        assert "trajectories.svg" in files
        text = (tmp_path / "trajectories.svg").read_text()
        assert text.count("<polyline") == 2  # source and target streams


class TestPerSeedCsv:
    def test_round_trip_summary(self, tmp_path):
        cfg = EditConfig(T=10, n_max=7, sequence_mode="target", noise_mode="estimated")
        runs = run_edit_sweep(SRC, TAR, list(range(8)), cfg)
        write_per_seed_csv(runs, cfg, tmp_path, "edit")
        rebuilt = summarize_per_seed_csv(tmp_path / "edits.csv")
        direct = sweep_reports(runs, TAR, cfg, "edit")
        by_name = {r.name: r.value for r in rebuilt}
        for rep in direct:
            if rep.name in by_name:
                assert by_name[rep.name] == pytest.approx(rep.value, rel=1e-9)


    def test_one_seed_sweep_has_no_fitted_w2(self):
        cfg = EditConfig(T=10, n_max=7, sequence_mode="target", noise_mode="estimated")
        runs = run_edit_sweep(SRC, TAR, [0], cfg)
        names = [r.name for r in sweep_reports(runs, TAR, cfg, "edit")]
        assert names == ["bias_norm", "smoothness", "structure_distance"]

    def test_no_more_seeds_than_dims_has_no_fitted_w2(self):
        # the pooled covariance of n <= dim outputs is singular by construction
        spec = GaussianSpec.isotropic(0.0, 1.0, dim=3)
        cfg = EditConfig(T=10, n_max=7, sequence_mode="target", noise_mode="estimated")
        for seeds, fitted in ((3, False), (4, True)):
            runs = run_edit_sweep(spec, spec, list(range(seeds)), cfg)
            names = [r.name for r in sweep_reports(runs, spec, cfg, "edit")]
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
        runs = run_avedit_sweep(
            field, params, [0, 1], EditConfig(T=10, n_max=10), src_class=0, tar_class=1
        )
        assert len(runs) == 2
        assert all(np.all(np.isfinite(r.video_out)) for r in runs)


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
        runs = run_avedit_sweep(field, params, seeds, cfg, src_class, tar_class)
        assert [r.seed for r in runs] == seeds
        for run, (video, audio, dist) in zip(
            runs, _looped_avedit(field, params, seeds, cfg, src_class, tar_class)
        ):
            assert np.array_equal(run.video_out, video)
            assert np.array_equal(run.audio_out, audio)
            assert run.target_sigmas == dist

    @pytest.mark.parametrize("classes", [(5, 1), (0, -1), (2, 0)])
    def test_classes_outside_the_synthetic_set_rejected(self, classes):
        params = default_av_params()
        with pytest.raises(InvalidConfigError, match="class"):
            run_avedit_sweep(_analytic_av_field(params), params, [0], EditConfig(T=4, n_max=2),
                             *classes)


class TestAveditReports:
    def test_success_rate_and_sigma_stderr(self):
        sigmas = [1.0, 3.0, 3.5, 5.0]
        runs = [AvEditRun(seed=k, video_out=np.zeros(2), audio_out=np.zeros(1), target_sigmas=s)
                for k, s in enumerate(sigmas)]
        cfg = EditConfig(T=40, n_max=28)
        rate, sig = avedit_reports(runs, cfg)
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
