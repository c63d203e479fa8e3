"""Tests for config parsing, output files, and reproducibility of the CLI."""

import json
import math

import numpy as np
import pytest

from coinwalk import cli
from coinwalk.cli import main, parse_config
from coinwalk.disorder import PER_STEP_RANDOM

HALF_PI = math.pi / 2
QUARTER_PI = math.pi / 4


def read_csv_columns(path):
    rows = [line.split(",") for line in path.read_text().splitlines()]
    header, data = rows[0], rows[1:]
    columns = {name: np.array([float(r[i]) for r in data]) for i, name in enumerate(header)}
    return header, columns


def csv_variance(path):
    _, cols = read_csv_columns(path)
    x = cols["x"]
    p = cols.get("p", cols.get("p_mean"))
    mean = float(np.dot(p, x))
    return float(np.dot(p, x * x)) - mean * mean


class TestParseConfig:
    def test_documented_defaults(self):
        config = parse_config(["--out", "d.csv"])
        assert config.steps == 100
        assert config.realizations == 1
        assert config.master_seed == 0
        assert config.format == "csv"
        assert config.preset == "hadamard-ordered"
        assert config.initial.delta == pytest.approx(HALF_PI)
        assert config.initial.phi == pytest.approx(HALF_PI)
        assert config.recipe is None

    def test_preset_flag_sets_ranges(self):
        config = parse_config(
            ["--preset", "theta-high", "--steps", "200", "--seed", "42", "--out", "d.csv"]
        )
        assert config.steps == 200
        assert config.master_seed == 42
        assert (config.spec.theta_range.low, config.spec.theta_range.high) == (
            QUARTER_PI,
            HALF_PI,
        )
        assert config.spec.mode == PER_STEP_RANDOM

    def test_range_override_clears_preset_label(self):
        config = parse_config(["--theta-range", "0.1:0.2", "--out", "d.csv"])
        assert config.preset is None
        assert (config.spec.theta_range.low, config.spec.theta_range.high) == (0.1, 0.2)
        # untouched ranges come from the default preset
        assert config.spec.xi_range.is_degenerate

    def test_config_file_provides_defaults_and_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 50, "preset": "theta-high", "seed": 9}))
        config = parse_config(["--config", str(cfg), "--steps", "60", "--out", "d.csv"])
        assert config.steps == 60  # flag wins
        assert config.master_seed == 9  # file value used
        assert config.spec.theta_range.low == QUARTER_PI

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stepz": 50}))
        assert main(["--config", str(cfg), "--out", "d.csv"]) == 2

    def test_missing_out_is_usage_error(self):
        assert main(["--steps", "10"]) == 2

    def test_unknown_flag_is_usage_error(self):
        assert main(["--bogus", "1", "--out", "d.csv"]) == 2


class TestErrorPaths:
    def test_negative_steps(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(["--steps", "-5", "--out", str(out)]) == 2
        assert "--steps" in capsys.readouterr().err
        assert not out.exists()

    def test_reversed_theta_range_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(["--theta-range", "1.0:0.5", "--out", str(out)]) == 2
        assert "--theta-range" in capsys.readouterr().err
        assert not out.exists()

    def test_recipe_rejects_fixed_flags(self, tmp_path):
        assert main(["--recipe", "fig1", "--steps", "50", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "config, flags, named",
        [
            ({"steps": 2.9}, [], "--steps"),
            ({"realizations": True}, [], "--realizations"),
            ({}, ["--seed", str(2**64)], "--seed"),
            ({}, ["--seed", "-1"], "--seed"),
        ],
        ids=["fractional-steps", "boolean-realizations", "seed-past-64-bits", "negative-seed"],
    )
    def test_inexact_or_out_of_range_integers_rejected(
        self, tmp_path, capsys, config, flags, named
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "d.csv"
        assert main(["--config", str(cfg), *flags, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_accepted(self):
        config = parse_config(["--seed", str(2**64 - 1), "--out", "d.csv"])
        assert config.master_seed == 2**64 - 1

    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        def allocation_fails(initial, t_max):
            raise MemoryError(f"Unable to allocate lattice of {2 * t_max + 1} sites")

        # stands in for the lattice allocation of a huge --steps, so the test
        # allocates nothing large
        monkeypatch.setattr(cli, "build_initial_state", allocation_fails)
        assert main(["--steps", "50", "--out", str(tmp_path / "d.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1

    def test_unwritable_path_is_io_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("plain file")
        out = blocker / "sub" / "d.csv"
        assert main(["--steps", "5", "--out", str(out)]) == 1


class TestSingleRunOutputs:
    def test_files_and_row_count(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["--preset", "theta-high", "--steps", "40", "--seed", "3", "--out", str(out)]) == 0
        header, cols = read_csv_columns(out)
        assert header == ["x", "p"]
        assert cols["x"].size == 81
        assert cols["x"][0] == -40 and cols["x"][-1] == 40
        assert cols["p"].sum() == pytest.approx(1.0, abs=1e-10)
        assert (tmp_path / "run.metrics.json").exists()
        assert (tmp_path / "run.meta.json").exists()

    def test_metrics_fields_for_disordered_run(self, tmp_path):
        out = tmp_path / "run.csv"
        main(["--preset", "theta-high", "--steps", "40", "--seed", "3", "--out", str(out)])
        metrics = json.loads((tmp_path / "run.metrics.json").read_text())
        for key in ("variance", "std_dev", "mean", "symmetry_deviation", "seed", "preset"):
            assert key in metrics
        assert metrics["preset"] == "theta-high"
        assert metrics["seed"] == 3
        assert metrics["loc_length_ratio"] == pytest.approx(
            math.sqrt(metrics["variance"] / metrics["reference_variance"])
        )
        assert metrics["variance_ratio"] == pytest.approx(
            metrics["variance"] / metrics["reference_variance"]
        )

    def test_ordered_run_has_no_reference_block(self, tmp_path):
        out = tmp_path / "run.csv"
        main(["--steps", "20", "--out", str(out)])
        metrics = json.loads((tmp_path / "run.metrics.json").read_text())
        assert "loc_length_ratio" not in metrics

    def test_metrics_variance_round_trips_through_csv(self, tmp_path):
        out = tmp_path / "run.csv"
        main(["--preset", "full-range", "--steps", "60", "--seed", "8", "--out", str(out)])
        metrics = json.loads((tmp_path / "run.metrics.json").read_text())
        assert csv_variance(out) == pytest.approx(metrics["variance"], abs=1e-9)

    def test_ensemble_column_name_and_stats(self, tmp_path):
        out = tmp_path / "ens.csv"
        main(
            [
                "--preset", "full-range", "--steps", "30", "--seed", "5",
                "--realizations", "4", "--out", str(out),
            ]
        )
        header, cols = read_csv_columns(out)
        assert header == ["x", "p_mean"]
        metrics = json.loads((tmp_path / "ens.metrics.json").read_text())
        assert metrics["realizations"] == 4
        assert "mean_variance" in metrics and "variance_of_variance" in metrics

    def test_json_format_matches_csv_values(self, tmp_path):
        args = ["--preset", "theta-low", "--steps", "25", "--seed", "6"]
        csv_out = tmp_path / "a.csv"
        json_out = tmp_path / "b.json"
        assert main([*args, "--out", str(csv_out)]) == 0
        assert main([*args, "--format", "json", "--out", str(json_out)]) == 0
        _, cols = read_csv_columns(csv_out)
        payload = json.loads(json_out.read_text())
        assert payload["t"] == 25
        assert payload["x"][0] == -25
        np.testing.assert_array_equal(np.array(payload["p"]), cols["p"])

    def test_meta_records_seed_mixer_and_parameters(self, tmp_path):
        out = tmp_path / "run.csv"
        main(["--preset", "theta-high", "--steps", "10", "--seed", "44", "--out", str(out)])
        meta = json.loads((tmp_path / "run.meta.json").read_text())
        assert meta["seed_mixer"] == "splitmix64-golden-v1"
        params = meta["parameters"]
        assert params["master_seed"] == 44
        assert params["theta_range"] == [QUARTER_PI, HALF_PI]
        assert "created_utc" in meta


class TestRecipes:
    def test_fig3_shape_contract(self, tmp_path):
        out = tmp_path / "fig3"
        assert main(["--recipe", "fig3", "--seed", "7", "--out", str(out)]) == 0
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == [
            "fig3_hadamard_t100.csv",
            "fig3_hadamard_t200.csv",
            "fig3_hadamard_t400.csv",
            "fig3_theta_high_t100.csv",
            "fig3_theta_high_t200.csv",
            "fig3_theta_high_t400.csv",
        ]
        t400 = (out / "fig3_theta_high_t400.csv").read_text().splitlines()
        assert len(t400) == 802  # header + 801 sites
        metrics = json.loads((out / "fig3_metrics.json").read_text())
        assert metrics["fig3_theta_high_t200"]["loc_length_ratio"] < 1.0

    def test_fig1_includes_classical_baseline(self, tmp_path):
        out = tmp_path / "fig1"
        assert main(["--recipe", "fig1", "--seed", "3", "--out", str(out)]) == 0
        header, cols = read_csv_columns(out / "fig1_full_range_t100.csv")
        assert header == ["x", "p", "p_crw"]
        assert cols["p_crw"].sum() == pytest.approx(1.0, abs=1e-12)
        metrics = json.loads((out / "fig1_metrics.json").read_text())
        payload = metrics["fig1_full_range_t100"]
        assert payload["crw_variance"] == pytest.approx(100.0, rel=1e-12)
        assert "variance" in payload

    def test_fig2_writes_four_panels(self, tmp_path):
        out = tmp_path / "fig2"
        assert main(["--recipe", "fig2", "--seed", "2", "--out", str(out)]) == 0
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == [
            "fig2a_hadamard_ordered_t200.csv",
            "fig2b_full_range_t200.csv",
            "fig2c_theta_low_t200.csv",
            "fig2d_theta_high_t200.csv",
        ]
        metrics = json.loads((out / "fig2_metrics.json").read_text())
        assert metrics["fig2d_theta_high_t200"]["loc_length_ratio"] < 1.0

    def test_fig4_table_covers_reference_thetas(self, tmp_path):
        out = tmp_path / "fig4"
        assert main(["--recipe", "fig4", "--seed", "2", "--out", str(out)]) == 0
        header, cols = read_csv_columns(out / "fig4_loc_length.csv")
        assert header == ["t", "theta_ref", "loc_length"]
        assert set(np.round(np.unique(cols["theta_ref"]), 10)) == {
            round(math.pi / 6, 10),
            round(math.pi / 4, 10),
            round(math.pi / 3, 10),
        }
        assert cols["t"].max() == 400
        assert np.all(cols["loc_length"] > 0)


class TestReproducibility:
    def test_identical_configs_give_identical_bytes(self, tmp_path):
        args = ["--preset", "full-range", "--steps", "50", "--seed", "12", "--realizations", "3"]
        out_a = tmp_path / "a" / "run.csv"
        out_b = tmp_path / "b" / "run.csv"
        assert main([*args, "--out", str(out_a)]) == 0
        assert main([*args, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (
            out_a.with_suffix(".metrics.json").read_bytes()
            == out_b.with_suffix(".metrics.json").read_bytes()
        )
