"""Tests for config parsing, output files, and reproducibility of the CLI."""

import hashlib
import json
import math

import numpy as np
import pytest

from coinwalk import analysis, cli
from coinwalk.cli import build_parser, main, parse_config
from coinwalk.disorder import PER_STEP_RANDOM
from coinwalk.errors import InvalidParameterError

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

    @pytest.mark.parametrize(
        "text, name",
        [
            ('{"theta-range": "0:1", "theta_range": "0.2:0.3"}', "theta_range"),
            ('{"steps": 5, "steps": 7}', "steps"),
        ],
        ids=["dash-and-underscore", "same-spelling"],
    )
    def test_config_key_given_twice_rejected(self, tmp_path, capsys, text, name):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "d.csv"
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --config: key {name!r} given twice\n"
        assert not out.exists()

    def test_every_flag_but_config_is_a_config_key(self, tmp_path):
        flags = set(vars(build_parser().parse_args([]))) - {"config"}
        plain = {
            "steps": 5, "preset": "theta-high", "xi_range": "0:1", "theta_range": "0:1",
            "zeta_range": "0:1", "delta": 0.5, "phi": 0.25, "realizations": 2, "seed": 3,
            "out": "d.json", "format": "json",
        }
        assert flags == plain.keys() | {"recipe"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(plain))
        config = parse_config(["--config", str(cfg)])
        assert (config.steps, config.realizations, config.master_seed) == (5, 2, 3)
        assert (config.initial.delta, config.initial.phi) == (0.5, 0.25)
        assert (config.spec.xi_range.high, config.format) == (1.0, "json")
        cfg.write_text(json.dumps({"recipe": "fig1", "out": "d"}))
        assert parse_config(["--config", str(cfg)]).recipe == "fig1"

    @pytest.mark.parametrize(
        "config, flags",
        [({}, ["--steps", "-5"]), ({"steps": 2.9}, []), ({}, ["--theta-range", "1:0.5"])],
        ids=["bad-flag", "bad-file-value", "reversed-range"],
    )
    def test_bad_input_raises_invalid_parameter_error(self, tmp_path, config, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        with pytest.raises(InvalidParameterError):
            parse_config(["--config", str(cfg), *flags, "--out", "d.csv"])

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

    def test_theta_range_of_overflowing_width_names_its_flag(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(["--theta-range=-1e308:1e308", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --theta-range: range must have")
        assert not out.exists()

    def test_recipe_rejects_fixed_flags(self, tmp_path):
        assert main(["--recipe", "fig1", "--steps", "50", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "config, flags, named",
        [
            ({"steps": 50}, [], "--steps"),
            ({"theta_range": "0:1"}, ["--steps", "50"], "--steps, --theta-range"),
            ({}, ["--theta-range", "0:1", "--steps", "50"], "--steps, --theta-range"),
        ],
        ids=["file-only", "file-and-flag", "two-flags"],
    )
    def test_recipe_names_every_fixed_key_given(self, tmp_path, capsys, config, flags, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--recipe", "fig1", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {named}: fixed by --recipe fig1; drop the flag\n"
        assert not out.exists()

    def test_null_recipe_in_config_is_no_recipe(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"recipe": None, "steps": 5}))
        config = parse_config(["--config", str(cfg), "--out", "d.csv"])
        assert (config.recipe, config.steps) == (None, 5)

    @pytest.mark.parametrize(
        "config, flags, expected",
        [
            ({}, [], ("csv", 0)),
            ({"format": "json", "seed": 9}, [], ("json", 9)),
            ({"format": "json", "seed": 9}, ["--format", "csv", "--seed", "3"], ("csv", 3)),
        ],
        ids=["default", "file-beats-default", "flag-beats-file"],
    )
    def test_format_and_seed_precedence(self, tmp_path, config, flags, expected):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        config = parse_config(["--config", str(cfg), *flags, "--out", "d.csv"])
        assert (config.format, config.master_seed) == expected

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

    @pytest.mark.parametrize(
        "config, named",
        [
            ({"delta": True}, "--delta"),
            ({"phi": False}, "--phi"),
            ({"delta": "x"}, "--delta"),
            ({"delta": "1.5", "steps": 5}, "--delta"),
        ],
        ids=["boolean-delta", "boolean-phi", "string-delta", "numeric-string-delta"],
    )
    def test_non_numeric_angle_in_config_rejected(self, tmp_path, capsys, config, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "d.csv"
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named} must be a finite real number")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_angle_beyond_the_float_range_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 10**400}))
        out = tmp_path / "d.csv"
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --delta must be a finite real number")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_largest_seed_accepted(self):
        config = parse_config(["--seed", str(2**64 - 1), "--out", "d.csv"])
        assert config.master_seed == 2**64 - 1

    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        def allocation_fails(initial, t_max):
            raise MemoryError(f"Unable to allocate lattice of {2 * t_max + 1} sites")

        # stands in for the lattice allocation of a huge --steps, so the test
        # allocates nothing large
        monkeypatch.setattr(analysis, "build_initial_state", allocation_fails)
        assert main(["--steps", "50", "--out", str(tmp_path / "d.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1

    def test_non_string_out_in_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": 5}))
        assert main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out") and err.count("\n") == 1

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

    def test_degenerate_range_override_has_no_reference_block(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["--theta-range", "0.3:0.3", "--steps", "20", "--out", str(out)]) == 0
        metrics = json.loads((tmp_path / "run.metrics.json").read_text())
        assert metrics["preset"] is None
        assert "reference_variance" not in metrics and "loc_length_ratio" not in metrics

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
        assert (params["steps"], params["preset"]) == (10, "theta-high")
        assert (params["mode"], params["recipe"]) == (PER_STEP_RANDOM, None)
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

    def test_meta_leaves_the_parameters_the_recipe_fixes_null(self, tmp_path):
        out = tmp_path / "fig1"
        args = ["--recipe", "fig1", "--seed", "5", "--realizations", "2", "--out", str(out)]
        assert main(args) == 0
        params = json.loads((out / "fig1_meta.json").read_text())["parameters"]
        fixed = ("steps", "preset", "xi_range", "theta_range", "zeta_range", "mode")
        assert {name: params[name] for name in fixed} == dict.fromkeys(fixed)
        assert (params["recipe"], params["master_seed"], params["realizations"]) == ("fig1", 5, 2)
        assert (params["delta"], params["phi"]) == (HALF_PI, HALF_PI)

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


def count_walks(monkeypatch):
    """Record every batch the CLI starts and every walk it runs.

    ``batches`` holds one list of ``(spec, steps, realizations)`` triples per
    ``run_ensembles`` call, and ``walks`` one ``(spec, steps, realization)``
    per ``sample_schedule`` call, which ``run_ensembles`` makes once per walk.
    """
    batches, walks = [], []

    def counted(ensembles, *args, _real=cli.run_ensembles, **kwargs):
        batches.append(list(ensembles))
        return _real(ensembles, *args, **kwargs)

    def sampled(spec, steps, master_seed, r, _real=analysis.sample_schedule):
        walks.append((spec, steps, r))
        return _real(spec, steps, master_seed, r)

    monkeypatch.setattr(cli, "run_ensembles", counted)
    monkeypatch.setattr(analysis, "sample_schedule", sampled)
    return batches, walks


class TestWalkCounts:
    # the ids give the distinct (spec, steps, realizations) triples; fig3's
    # 6 triples at t = 100, 200 and 400 share one Hadamard walk and the two
    # theta-high walks, which each run to 400
    @pytest.mark.parametrize(
        "recipe, expected, walk_count",
        [("fig1", 1, 2), ("fig2", 4, 7), ("fig3", 6, 3), ("fig4", 4, 5)],
        ids=["fig1-1", "fig2-4", "fig3-6", "fig4-4"],
    )
    def test_recipe_reuses_its_ordered_panels_as_reference(
        self, tmp_path, monkeypatch, recipe, expected, walk_count
    ):
        batches, walks = count_walks(monkeypatch)
        assert main(["--recipe", recipe, "--realizations", "2", "--out", str(tmp_path)]) == 0
        assert sum(map(len, batches)) == expected
        # one batch per recipe, whatever its lengths
        assert len(batches) == 1
        assert len(walks) == walk_count
        # each walk runs to the longest length the recipe reads it at
        assert {steps for _, steps, _ in walks} == {max(steps for _, steps, _ in batches[0])}

    @pytest.mark.parametrize("preset, expected", [("hadamard-ordered", 1), ("theta-high", 2)])
    def test_plain_run_adds_the_reference_walk_only_when_disordered(
        self, tmp_path, monkeypatch, preset, expected
    ):
        batches, walks = count_walks(monkeypatch)
        args = ["--preset", preset, "--steps", "20", "--out", str(tmp_path / "run.csv")]
        assert main(args) == 0
        assert sum(map(len, batches)) == expected
        assert len(batches) == 1
        assert len(walks) == expected


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


PINNED_RUNS = {
    f"{fig}-{fmt}-r{r}": ["--recipe", fig, "--format", fmt, "--realizations", str(r), "--seed", "5"]
    for fig in cli.RECIPE_NAMES
    for fmt in ("csv", "json")
    for r in (1, 3)
}
PINNED_RUNS["plain-ordered-r2"] = ["--steps", "50", "--realizations", "2", "--seed", "5"]
PINNED_RUNS["plain-theta-high-r3"] = [
    "--preset", "theta-high", "--steps", "50", "--realizations", "3", "--seed", "5",
]
PINNED_RUNS["plain-theta-high-r1"] = ["--preset", "theta-high", "--steps", "50", "--seed", "5"]
PINNED_RUNS["plain-theta-high-odd-r3"] = [
    "--preset", "theta-high", "--steps", "99", "--realizations", "3", "--seed", "5",
]
PINNED_RUNS["plain-theta-range-json-r1"] = [
    "--steps", "50", "--theta-range", "0.3:1.2", "--format", "json",
    "--delta", "1.1", "--phi", "0.4",
]

# SHA-256 of every data and metrics file of PINNED_RUNS, captured before
# fig1-fig3 and the plain run shared one panel runner, with numpy 2.4.6 and
# its bundled OpenBLAS on a 2-vCPU x86-64 host.  Another BLAS build may round
# the last bits of a walk differently; recapture the table there rather than
# loosen the comparison.
OUTPUT_DIGESTS = {
    "fig1-csv-r1": {
        "fig1_full_range_t100.csv": "138c58c35906e495236c95fb2492280f24ce0b4d5ef87200f56b9b6edd6000f3",
        "fig1_metrics.json": "b9e208be4fa4cb58df76b90cb06664c93c396f873156ef2c40bc3ff2fc21a3fe",
    },
    "fig1-csv-r3": {
        "fig1_full_range_t100.csv": "7d28d4fd14ac6a6b95546517bbd6b0d23e1ede6beec6124e7faf35b57e4cfef3",
        "fig1_metrics.json": "191da10f4ecac9f8469418243bbf78f2395bcf4f7a8abebc10150d136afa2739",
    },
    "fig1-json-r1": {
        "fig1_full_range_t100.json": "d4f8951bc25cfc198e0587818d4a59e39f0cd39e7aa3e857419e33b078d21818",
        "fig1_metrics.json": "b9e208be4fa4cb58df76b90cb06664c93c396f873156ef2c40bc3ff2fc21a3fe",
    },
    "fig1-json-r3": {
        "fig1_full_range_t100.json": "b560db73f6312d37ab2cf91cc8b149bdbf5fd10251c792e140bce83af326f0b6",
        "fig1_metrics.json": "191da10f4ecac9f8469418243bbf78f2395bcf4f7a8abebc10150d136afa2739",
    },
    "fig2-csv-r1": {
        "fig2_metrics.json": "81dc43a61231f1ce17bffedbde50ecb48007448795ec47a4fc1e64128c6fa5ee",
        "fig2a_hadamard_ordered_t200.csv": "87c377a34ff83925f6dc5a84730c6c4482268f234ffdd52eea8bc03936b08002",
        "fig2b_full_range_t200.csv": "5b5cd494512ebca89d4b4905dab10fe3cc056d5e1ea789ad2650bfd53b85c25a",
        "fig2c_theta_low_t200.csv": "0f2659c8daa2051d23cdfc209922bfc43ea729d2e7b5c9386bb0b3d0e45997d2",
        "fig2d_theta_high_t200.csv": "0ae031f818906488512dca8bc9bb217c65dd323a956c219d14b7cf507001c2c6",
    },
    "fig2-csv-r3": {
        "fig2_metrics.json": "745243eaf9a4fe33a07a6a9029db75c2055c09046754315e443f9af572f5d5f3",
        "fig2a_hadamard_ordered_t200.csv": "87c377a34ff83925f6dc5a84730c6c4482268f234ffdd52eea8bc03936b08002",
        "fig2b_full_range_t200.csv": "09eb217dbeaff2b4501a8493436a8d63758e3ce3c25251d33c217ec0d4472814",
        "fig2c_theta_low_t200.csv": "2148771aea4223c7937772ecc2fc7283f7280a913f9d7edbecfa6fb668375089",
        "fig2d_theta_high_t200.csv": "5ba0105659b51221c65288eca4c6d88bc814f7737e29459b76f0f0154ee3f076",
    },
    "fig2-json-r1": {
        "fig2_metrics.json": "81dc43a61231f1ce17bffedbde50ecb48007448795ec47a4fc1e64128c6fa5ee",
        "fig2a_hadamard_ordered_t200.json": "4d77ec8c5ff9bcf7bf9e18150e858a2bc98db045111d7c3e14a39bd386868454",
        "fig2b_full_range_t200.json": "881bbdf5919de9ef99cafb6c9df56e6cfa44b71175a1051f2b1e46958871ebfb",
        "fig2c_theta_low_t200.json": "343a1e28a14f74e4177a08a01fbee049afe5d1879bc04ab7e1f013df65b877c0",
        "fig2d_theta_high_t200.json": "551de21a39646214974e55b238eaeb87043ee937dc7e25caa6f7ddf89093207d",
    },
    "fig2-json-r3": {
        "fig2_metrics.json": "745243eaf9a4fe33a07a6a9029db75c2055c09046754315e443f9af572f5d5f3",
        "fig2a_hadamard_ordered_t200.json": "4d77ec8c5ff9bcf7bf9e18150e858a2bc98db045111d7c3e14a39bd386868454",
        "fig2b_full_range_t200.json": "bac993272cc503932bace0167e3c2c0eb04a156d7973679c47962af2afc4965d",
        "fig2c_theta_low_t200.json": "5fd31f648a9649c07b088b55c335cf099447b4c697b3083dc16d1fd1ad4984d3",
        "fig2d_theta_high_t200.json": "bdcc5f9eea46c01a70efc8f72d18f56352208c6a1b810978933a0218c32cd3f9",
    },
    "fig3-csv-r1": {
        "fig3_hadamard_t100.csv": "8818924999d7c8aa91e1330ceec58b32247ab3829bf2b5b8528ed030908940cb",
        "fig3_hadamard_t200.csv": "87c377a34ff83925f6dc5a84730c6c4482268f234ffdd52eea8bc03936b08002",
        "fig3_hadamard_t400.csv": "a8bcbec0c1409213dc79ddf38a795cc106bacc0675947c7cac1f651d57d9bf7a",
        "fig3_metrics.json": "e16069a6287fc0f26ebdcd17cb9c654812203d552f392ed16f0d5f61f294a073",
        "fig3_theta_high_t100.csv": "7bb994729ece5680a155ba7821990dee910ed68362fd7a4910e38af028148aea",
        "fig3_theta_high_t200.csv": "0ae031f818906488512dca8bc9bb217c65dd323a956c219d14b7cf507001c2c6",
        "fig3_theta_high_t400.csv": "09d6d725de05d638015816ea8fe6980831ebe4e964ac526487fbfc236dd6a163",
    },
    "fig3-csv-r3": {
        "fig3_hadamard_t100.csv": "8818924999d7c8aa91e1330ceec58b32247ab3829bf2b5b8528ed030908940cb",
        "fig3_hadamard_t200.csv": "87c377a34ff83925f6dc5a84730c6c4482268f234ffdd52eea8bc03936b08002",
        "fig3_hadamard_t400.csv": "a8bcbec0c1409213dc79ddf38a795cc106bacc0675947c7cac1f651d57d9bf7a",
        "fig3_metrics.json": "2a529c3f523e0270d9a253b673449210810463895abd619935275179fccf5737",
        "fig3_theta_high_t100.csv": "fb7041f813eb518c0d220dc6c590228e779ad24d23e033c8318a4a1bd1221c23",
        "fig3_theta_high_t200.csv": "5ba0105659b51221c65288eca4c6d88bc814f7737e29459b76f0f0154ee3f076",
        "fig3_theta_high_t400.csv": "0c225a608677818790583b8afc3df27d22b0a735527a705385f0e698a36285df",
    },
    "fig3-json-r1": {
        "fig3_hadamard_t100.json": "d4e557e84cae69ea6f5c22e0f0864753f09a7248ff5035c4381531e1ed491d96",
        "fig3_hadamard_t200.json": "4d77ec8c5ff9bcf7bf9e18150e858a2bc98db045111d7c3e14a39bd386868454",
        "fig3_hadamard_t400.json": "e6538ed00010d0528e464da2cf0c7f5ffa2e95d30354e802b6bef4f91e48a4b0",
        "fig3_metrics.json": "e16069a6287fc0f26ebdcd17cb9c654812203d552f392ed16f0d5f61f294a073",
        "fig3_theta_high_t100.json": "7c427c0aa0260d56c40be61c3a3004f1bda211ad318421376ca709cc144f6b46",
        "fig3_theta_high_t200.json": "551de21a39646214974e55b238eaeb87043ee937dc7e25caa6f7ddf89093207d",
        "fig3_theta_high_t400.json": "6cde9a4e78df638274658dd88cd10934c90764083cf73458adc67a23ee539479",
    },
    "fig3-json-r3": {
        "fig3_hadamard_t100.json": "d4e557e84cae69ea6f5c22e0f0864753f09a7248ff5035c4381531e1ed491d96",
        "fig3_hadamard_t200.json": "4d77ec8c5ff9bcf7bf9e18150e858a2bc98db045111d7c3e14a39bd386868454",
        "fig3_hadamard_t400.json": "e6538ed00010d0528e464da2cf0c7f5ffa2e95d30354e802b6bef4f91e48a4b0",
        "fig3_metrics.json": "2a529c3f523e0270d9a253b673449210810463895abd619935275179fccf5737",
        "fig3_theta_high_t100.json": "c3271390db87209eca12d8e379c6623669a468efda47ded9bd7f0fc3ee7834c5",
        "fig3_theta_high_t200.json": "bdcc5f9eea46c01a70efc8f72d18f56352208c6a1b810978933a0218c32cd3f9",
        "fig3_theta_high_t400.json": "5e34204030773e55cdfba20620aa9d63ad7a59bc5d721b1ad4144d49fa06794b",
    },
    "fig4-csv-r1": {
        "fig4_loc_length.csv": "e124c43b4b5511c7853c0c030ddb771b51f41c1471104cb67958aaa7f0987838",
        "fig4_metrics.json": "52590e22bfa76828bd1cafbd665e90d6818eafe34ba2fe1928f3212bbbb64955",
    },
    "fig4-csv-r3": {
        "fig4_loc_length.csv": "cf84fa9691e56552ac18124ed971f9bd57d0189e1d43a5d217f37c24c767d9b6",
        "fig4_metrics.json": "afbd537c5cc864b34e876f80063ad2d872e7b268e65f78f0cec4e0618ca47dc4",
    },
    "fig4-json-r1": {
        "fig4_loc_length.json": "ee750ef845d4f3fe48df5467fb6c126490aa6b45e0a142b2aadecd0fe4333b6f",
        "fig4_metrics.json": "52590e22bfa76828bd1cafbd665e90d6818eafe34ba2fe1928f3212bbbb64955",
    },
    "fig4-json-r3": {
        "fig4_loc_length.json": "a70cd407d46a1881a072abaa5051c61435c1ad3beec604c027b73045f273b54c",
        "fig4_metrics.json": "afbd537c5cc864b34e876f80063ad2d872e7b268e65f78f0cec4e0618ca47dc4",
    },
    "plain-ordered-r2": {
        "run.csv": "8fc38cda5ebfb746c95464aca9f79d037cfaa1c3a8ea1d772cf3b484d0363f17",
        "run.metrics.json": "b141af03cb4ec4dbd3e854d2746df8ba0a3a739ec62d2e6bd3a6f72160b334e8",
    },
    "plain-theta-high-r3": {
        "run.csv": "ed7a59894f771b07b26dc74c5008d44a82b57d8b517d125e5455b9de5b7111bc",
        "run.metrics.json": "6a6bc72593587516fa8dd886698df6a4c62c90b15ea9183c81c0671760ab7987",
    },
    # captured once the step kernel gave every column whole-block bits, so
    # an odd-length walk's last columns round as in a longer walk
    "plain-theta-high-odd-r3": {
        "run.csv": "008ff4eb1f7d3bc0f3ff44c86684d4dc09f1796554a4480ae30e267b386523f2",
        "run.metrics.json": "ea135c29504b8fecbbb42bf4b4e746daf1b703b9d10f5ac2d6a26ba3b8a02a59",
    },
    # the two single-walk runs were captured while a one-realization walk
    # still had its own pipeline in the CLI
    "plain-theta-high-r1": {
        "run.csv": "c44517deb1d4ac28d5b1f8d01c6b0d35dcd9bf8c956e1b7f5041b85d8f6d2af6",
        "run.metrics.json": "735861f0ec479c55c4836f6423faf4b5b7f942194ab97ebad8ba63fb1dbc1f3a",
    },
    "plain-theta-range-json-r1": {
        "run.csv": "54e2d702662c9285fedf6d09b6cfb1fce7b3267f8a8298ac325e6d1eb89fcade",
        "run.metrics.json": "c03ad8185c2f52308d7d2c3732e6ada7ee26433d95f5d6340741b9dc0db8e858",
    },
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("case", sorted(PINNED_RUNS))
    def test_data_and_metrics_files_are_byte_identical(self, tmp_path, case):
        args = PINNED_RUNS[case]
        out = tmp_path / "out"
        assert main([*args, "--out", str(out if "--recipe" in args else out / "run.csv")]) == 0
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())
            if not path.name.endswith("meta.json")
        }
        assert digests == OUTPUT_DIGESTS[case]
