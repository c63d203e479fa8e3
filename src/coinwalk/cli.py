"""Reproducible experiment runner.

Executes single walks, seeded disorder ensembles, and bundled figure
recipes, writing distribution data (CSV or JSON), a metrics file, and a
metadata sidecar.  Data and metrics files are byte-identical across
repeated invocations with the same configuration; timestamps live only in
the metadata sidecar.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from coinwalk import __version__
from coinwalk.analysis import (
    PositionDistribution,
    classical_rw_distribution,
    distribution_from_state,
    localization_length,
    metrics_from_distribution,
    run_ensemble,
    variance,
)
from coinwalk.core import (
    CoinParams,
    InitialStateParams,
    build_initial_state,
    evolve_ordered,
    exact_int,
)
from coinwalk.disorder import (
    ORDERED,
    PER_STEP_RANDOM,
    PRESET_NAMES,
    SEED_MIXER_ID,
    DisorderSpec,
    ParameterRange,
    evolve_disordered,
    preset_spec,
    sample_schedule,
)
from coinwalk.errors import WalkError

__all__ = ["ExperimentConfig", "UsageError", "parse_config", "run_experiment", "main"]

RECIPE_NAMES = ("fig1", "fig2", "fig3", "fig4")

#: theta of the ordered reference walk used for the spread ratio by default.
DEFAULT_REFERENCE_THETA = math.pi / 4

_DEFAULTS = {
    "steps": 100,
    "delta": math.pi / 2,
    "phi": math.pi / 2,
    "preset": "hadamard-ordered",
    "realizations": 1,
    "seed": 0,
    "format": "csv",
}

_RANGE_FLAGS = ("xi_range", "theta_range", "zeta_range")


class UsageError(Exception):
    """Bad command line or config file; maps to exit status 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one CLI invocation."""

    steps: int
    initial: InitialStateParams
    spec: DisorderSpec
    preset: str | None
    realizations: int
    master_seed: int
    output_path: Path
    format: str
    recipe: str | None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coinwalk",
        description=(
            "Simulate a discrete-time quantum walk on a line with a fresh, "
            "randomly drawn coin operation at every step, and write the "
            "position distribution plus summary metrics."
        ),
    )
    parser.add_argument("--steps", type=int, help="number of walk steps (default 100)")
    parser.add_argument(
        "--preset",
        choices=PRESET_NAMES,
        help="named parameter-range bundle (default hadamard-ordered)",
    )
    parser.add_argument(
        "--xi-range", metavar="LO:HI", help="xi sampling range in radians, e.g. 0:1.5708"
    )
    parser.add_argument("--theta-range", metavar="LO:HI", help="theta sampling range in radians")
    parser.add_argument("--zeta-range", metavar="LO:HI", help="zeta sampling range in radians")
    parser.add_argument(
        "--delta", type=float, help="initial internal-state polar angle in radians (default pi/2)"
    )
    parser.add_argument(
        "--phi", type=float, help="initial internal-state phase in radians (default pi/2)"
    )
    parser.add_argument(
        "--realizations", type=int, help="disorder realizations to average (default 1)"
    )
    parser.add_argument("--seed", type=int, help="master seed for schedule sampling (default 0)")
    parser.add_argument(
        "--recipe",
        choices=RECIPE_NAMES,
        help=(
            "bundled experiment: fig1 = diffusive full-range walk vs classical baseline "
            "at t=100; fig2 = all four presets at t=200; fig3 = localized walk and "
            "ordered reference at t=100/200/400; fig4 = spread ratio vs steps for "
            "several reference thetas"
        ),
    )
    parser.add_argument(
        "--out", help="output data file, or output directory for recipes (required)"
    )
    parser.add_argument("--format", choices=("csv", "json"), help="data file format (default csv)")
    parser.add_argument(
        "--config", help="JSON file providing defaults for any flag; explicit flags win"
    )
    return parser


def _parse_range(flag: str, text: str) -> ParameterRange:
    parts = str(text).split(":")
    if len(parts) != 2:
        raise UsageError(f"{flag}: expected LO:HI, got {text!r}")
    try:
        low, high = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"{flag}: expected numeric LO:HI, got {text!r}") from None
    try:
        return ParameterRange(low, high)
    except WalkError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _exact_int(flag: str, value) -> int:
    try:
        return exact_int(flag, value)
    except WalkError as exc:
        raise UsageError(str(exc)) from None


def _load_config_file(path: str) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"--config: cannot read {path!r} ({exc})") from None
    try:
        values = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--config: {path!r} is not valid JSON ({exc})") from None
    if not isinstance(values, dict):
        raise UsageError(f"--config: {path!r} must hold a JSON object")
    known = {
        "steps", "preset", "xi_range", "theta_range", "zeta_range",
        "delta", "phi", "realizations", "seed", "recipe", "out", "format",
    }
    normalized = {}
    for key, value in values.items():
        name = str(key).replace("-", "_")
        if name not in known:
            raise UsageError(f"--config: unknown key {key!r}")
        normalized[name] = value
    return normalized


def parse_config(argv: list[str]) -> ExperimentConfig:
    """Resolve flags, optional config file, and defaults into an ExperimentConfig.

    Explicit flags override config-file values, which override the built-in
    defaults (steps=100, delta=phi=pi/2, preset=hadamard-ordered,
    realizations=1, seed=0, format=csv).

    Raises
    ------
    UsageError
        On any malformed or inconsistent value.
    SystemExit
        From argparse, on unknown flags or non-numeric numbers.
    """
    ns = build_parser().parse_args(argv)
    file_values = _load_config_file(ns.config) if ns.config else {}

    def pick(name: str):
        flag_value = getattr(ns, name, None)
        if flag_value is not None:
            return flag_value
        if name in file_values:
            return file_values[name]
        return _DEFAULTS.get(name)

    recipe = pick("recipe")
    if recipe is not None and recipe not in RECIPE_NAMES:
        raise UsageError(f"recipe must be one of {RECIPE_NAMES}, got {recipe!r}")
    if recipe is not None:
        fixed = ["steps", "preset", *_RANGE_FLAGS]
        offending = [
            name for name in fixed
            if getattr(ns, name, None) is not None or name in file_values
        ]
        if offending:
            flags = ", ".join("--" + name.replace("_", "-") for name in offending)
            raise UsageError(f"{flags}: fixed by --recipe {recipe}; drop the flag")

    out = pick("out")
    if out is None:
        raise UsageError("--out is required")

    steps = _exact_int("--steps", pick("steps"))
    realizations = _exact_int("--realizations", pick("realizations"))
    master_seed = _exact_int("--seed", pick("seed"))
    try:
        delta = float(pick("delta"))
        phi = float(pick("phi"))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"malformed numeric value: {exc}") from None
    if steps < 1:
        raise UsageError(f"--steps must be >= 1, got {steps}")
    if realizations < 1:
        raise UsageError(f"--realizations must be >= 1, got {realizations}")
    # the seed mixer works mod 2**64, so a larger seed would alias a smaller one
    if not 0 <= master_seed < 2**64:
        raise UsageError(f"--seed must lie in [0, 2**64), got {master_seed}")

    fmt = str(pick("format"))
    if fmt not in ("csv", "json"):
        raise UsageError(f"--format must be csv or json, got {fmt!r}")

    preset = str(pick("preset"))
    if preset not in PRESET_NAMES:
        raise UsageError(f"--preset must be one of {PRESET_NAMES}, got {preset!r}")
    base = preset_spec(preset)
    overrides = {
        name: _parse_range("--" + name.replace("_", "-"), raw)
        for name in _RANGE_FLAGS
        if (raw := pick(name)) is not None
    }
    if overrides:
        xi = overrides.get("xi_range", base.xi_range)
        theta = overrides.get("theta_range", base.theta_range)
        zeta = overrides.get("zeta_range", base.zeta_range)
        degenerate = xi.is_degenerate and theta.is_degenerate and zeta.is_degenerate
        spec = DisorderSpec(xi, theta, zeta, mode=ORDERED if degenerate else PER_STEP_RANDOM)
        preset_label = None
    else:
        spec = base
        preset_label = preset

    try:
        initial = InitialStateParams(delta=delta, phi=phi)
    except WalkError as exc:
        raise UsageError(f"--delta/--phi: {exc}") from None

    return ExperimentConfig(
        steps=steps,
        initial=initial,
        spec=spec,
        preset=preset_label,
        realizations=realizations,
        master_seed=master_seed,
        output_path=Path(out),
        format=fmt,
        recipe=recipe,
    )


# ---------------------------------------------------------------------------
# output writers


def _fmt(value: float) -> str:
    # 17 significant digits: lossless round-trip for float64
    return format(float(value), ".17g")


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: Path, obj: dict) -> None:
    _write_text(path, json.dumps(obj, indent=2) + "\n")


def _write_distribution(
    path: Path,
    fmt: str,
    dist: PositionDistribution,
    value_name: str,
    extra: dict[str, np.ndarray] | None = None,
) -> None:
    x = dist.positions
    extra = extra or {}
    if fmt == "csv":
        lines = [",".join(["x", value_name, *extra])]
        columns = [dist.p, *extra.values()]
        for i in range(x.size):
            lines.append(",".join([str(int(x[i])), *(_fmt(col[i]) for col in columns)]))
        _write_text(path, "\n".join(lines) + "\n")
    else:
        obj = {"t": dist.t, "x": [int(v) for v in x], value_name: list(map(float, dist.p))}
        for name, col in extra.items():
            obj[name] = list(map(float, col))
        _write_json(path, obj)


def _write_meta(path: Path, config: ExperimentConfig, outputs: list[str]) -> None:
    payload = {
        "artifact": "coinwalk",
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seed_mixer": SEED_MIXER_ID,
        "parameters": {
            "steps": config.steps,
            "delta": config.initial.delta,
            "phi": config.initial.phi,
            "preset": config.preset,
            "xi_range": [config.spec.xi_range.low, config.spec.xi_range.high],
            "theta_range": [config.spec.theta_range.low, config.spec.theta_range.high],
            "zeta_range": [config.spec.zeta_range.low, config.spec.zeta_range.high],
            "mode": config.spec.mode,
            "realizations": config.realizations,
            "master_seed": config.master_seed,
            "format": config.format,
            "recipe": config.recipe,
            "out": str(config.output_path),
        },
        "outputs": sorted(outputs),
    }
    _write_json(path, payload)


# ---------------------------------------------------------------------------
# experiment execution


def _ordered_reference_variance(initial: InitialStateParams, steps: int, theta: float) -> float:
    state = evolve_ordered(
        build_initial_state(initial, steps), CoinParams(0.0, theta, 0.0), steps
    )
    return variance(distribution_from_state(state))


def _disordered_run(
    spec: DisorderSpec,
    initial: InitialStateParams,
    steps: int,
    realizations: int,
    master_seed: int,
):
    """One realization or an ensemble mean.

    Returns (distribution, mean variance, ensemble statistics), where the
    statistics are None for a single realization.
    """
    if realizations == 1:
        schedule = sample_schedule(spec, steps, master_seed, 0)
        state = evolve_disordered(build_initial_state(initial, steps), schedule)
        dist = distribution_from_state(state)
        return dist, variance(dist), None
    stats = run_ensemble(spec, initial, steps, realizations, master_seed)
    return stats.mean_distribution, stats.mean_variance, stats


def _metrics_payload(
    dist: PositionDistribution,
    preset: str | None,
    master_seed: int,
    realizations: int,
    mean_variance: float,
    stats=None,
    reference_variance: float | None = None,
    reference_theta: float | None = None,
) -> dict:
    m = metrics_from_distribution(dist)
    payload = {
        "steps": dist.t,
        "preset": preset,
        "seed": master_seed,
        "realizations": realizations,
        "variance": m.variance,
        "std_dev": m.std_dev,
        "mean": m.mean,
        "symmetry_deviation": m.symmetry_deviation,
    }
    if stats is not None:
        payload["mean_variance"] = stats.mean_variance
        payload["variance_of_variance"] = stats.variance_of_variance
    if reference_variance is not None:
        ratio = localization_length(math.sqrt(mean_variance), math.sqrt(reference_variance))
        payload["reference_theta"] = reference_theta
        payload["reference_variance"] = reference_variance
        payload["loc_length_ratio"] = ratio
        payload["variance_ratio"] = mean_variance / reference_variance
    return payload


def _data_name(stem: str, fmt: str) -> str:
    return f"{stem}.{fmt}"


def _run_plain(config: ExperimentConfig) -> int:
    out = config.output_path
    out.parent.mkdir(parents=True, exist_ok=True)
    dist, mean_variance, stats = _disordered_run(
        config.spec, config.initial, config.steps, config.realizations, config.master_seed
    )
    value_name = "p" if config.realizations == 1 else "p_mean"
    _write_distribution(out, config.format, dist, value_name)

    if config.spec.mode == PER_STEP_RANDOM:
        ref_var = _ordered_reference_variance(config.initial, config.steps, DEFAULT_REFERENCE_THETA)
        payload = _metrics_payload(
            dist, config.preset, config.master_seed, config.realizations,
            mean_variance, stats, ref_var, DEFAULT_REFERENCE_THETA,
        )
    else:
        payload = _metrics_payload(
            dist, config.preset, config.master_seed, config.realizations, mean_variance, stats
        )
    _write_json(out.with_suffix(".metrics.json"), payload)
    _write_meta(out.with_suffix(".meta.json"), config, [out.name])
    return 0


def _recipe_fig1(config: ExperimentConfig, out_dir: Path) -> int:
    steps = 100
    spec = preset_spec("full-range")
    dist, mean_variance, stats = _disordered_run(
        spec, config.initial, steps, config.realizations, config.master_seed
    )
    crw = classical_rw_distribution(steps)
    value_name = "p" if config.realizations == 1 else "p_mean"
    stem = f"fig1_full_range_t{steps}"
    name = _data_name(stem, config.format)
    _write_distribution(out_dir / name, config.format, dist, value_name, {"p_crw": crw.p})
    payload = _metrics_payload(
        dist, "full-range", config.master_seed, config.realizations, mean_variance, stats
    )
    payload["crw_variance"] = variance(crw)
    _write_json(out_dir / "fig1_metrics.json", {stem: payload})
    _write_meta(out_dir / "fig1_meta.json", config, [name, "fig1_metrics.json"])
    return 0


def _recipe_fig2(config: ExperimentConfig, out_dir: Path) -> int:
    steps = 200
    panels = [
        ("a", "hadamard-ordered"),
        ("b", "full-range"),
        ("c", "theta-low"),
        ("d", "theta-high"),
    ]
    metrics: dict[str, dict] = {}
    outputs: list[str] = []
    reference_variance: float | None = None
    for letter, preset in panels:
        spec = preset_spec(preset)
        realizations = 1 if spec.mode == ORDERED else config.realizations
        dist, mean_variance, stats = _disordered_run(
            spec, config.initial, steps, realizations, config.master_seed
        )
        stem = f"fig2{letter}_{preset.replace('-', '_')}_t{steps}"
        name = _data_name(stem, config.format)
        value_name = "p" if realizations == 1 else "p_mean"
        _write_distribution(out_dir / name, config.format, dist, value_name)
        outputs.append(name)
        if spec.mode == ORDERED:
            reference_variance = mean_variance
            metrics[stem] = _metrics_payload(
                dist, preset, config.master_seed, realizations, mean_variance, stats
            )
        else:
            metrics[stem] = _metrics_payload(
                dist, preset, config.master_seed, realizations, mean_variance, stats,
                reference_variance, DEFAULT_REFERENCE_THETA,
            )
    _write_json(out_dir / "fig2_metrics.json", metrics)
    _write_meta(out_dir / "fig2_meta.json", config, [*outputs, "fig2_metrics.json"])
    return 0


def _recipe_fig3(config: ExperimentConfig, out_dir: Path) -> int:
    step_counts = (100, 200, 400)
    spec = preset_spec("theta-high")
    metrics: dict[str, dict] = {}
    outputs: list[str] = []
    for steps in step_counts:
        ref_dist = distribution_from_state(
            evolve_ordered(
                build_initial_state(config.initial, steps),
                CoinParams(0.0, DEFAULT_REFERENCE_THETA, 0.0),
                steps,
            )
        )
        ref_var = variance(ref_dist)
        ref_stem = f"fig3_hadamard_t{steps}"
        ref_name = _data_name(ref_stem, config.format)
        _write_distribution(out_dir / ref_name, config.format, ref_dist, "p")
        metrics[ref_stem] = _metrics_payload(
            ref_dist, "hadamard-ordered", config.master_seed, 1, ref_var
        )
        outputs.append(ref_name)

        dist, mean_variance, stats = _disordered_run(
            spec, config.initial, steps, config.realizations, config.master_seed
        )
        stem = f"fig3_theta_high_t{steps}"
        name = _data_name(stem, config.format)
        value_name = "p" if config.realizations == 1 else "p_mean"
        _write_distribution(out_dir / name, config.format, dist, value_name)
        metrics[stem] = _metrics_payload(
            dist, "theta-high", config.master_seed, config.realizations,
            mean_variance, stats, ref_var, DEFAULT_REFERENCE_THETA,
        )
        outputs.append(name)
    _write_json(out_dir / "fig3_metrics.json", metrics)
    _write_meta(out_dir / "fig3_meta.json", config, [*outputs, "fig3_metrics.json"])
    return 0


def _recipe_fig4(config: ExperimentConfig, out_dir: Path) -> int:
    steps = 400
    reference_thetas = (math.pi / 6, math.pi / 4, math.pi / 3)
    spec = preset_spec("theta-high")
    num_stats = run_ensemble(
        spec, config.initial, steps, config.realizations, config.master_seed,
        track_per_step=True,
    )
    num_sigma = np.sqrt(num_stats.per_step_variance)

    metrics: dict[str, dict] = {}
    rows: list[tuple[int, float, float]] = []
    for theta in reference_thetas:
        zero = ParameterRange(0.0, 0.0)
        ref_spec = DisorderSpec(zero, ParameterRange(theta, theta), zero, mode=ORDERED)
        ref_stats = run_ensemble(
            ref_spec, config.initial, steps, 1, config.master_seed, track_per_step=True
        )
        ref_sigma = np.sqrt(ref_stats.per_step_variance)
        ratios = {}
        for t in range(1, steps + 1):
            ratio = localization_length(float(num_sigma[t]), float(ref_sigma[t]))
            rows.append((t, theta, ratio))
            if t in (100, 200, 400):
                ratios[str(t)] = ratio
        metrics[f"theta_ref_{_fmt(theta)}"] = {
            "theta_ref": theta,
            "realizations": config.realizations,
            "seed": config.master_seed,
            "loc_length": ratios,
        }

    stem = "fig4_loc_length"
    name = _data_name(stem, config.format)
    if config.format == "csv":
        lines = ["t,theta_ref,loc_length"]
        lines.extend(f"{t},{_fmt(theta)},{_fmt(ratio)}" for t, theta, ratio in rows)
        _write_text(out_dir / name, "\n".join(lines) + "\n")
    else:
        _write_json(
            out_dir / name,
            {
                "t": [row[0] for row in rows],
                "theta_ref": [row[1] for row in rows],
                "loc_length": [row[2] for row in rows],
            },
        )
    _write_json(out_dir / "fig4_metrics.json", metrics)
    _write_meta(out_dir / "fig4_meta.json", config, [name, "fig4_metrics.json"])
    return 0


_RECIPES = {
    "fig1": _recipe_fig1,
    "fig2": _recipe_fig2,
    "fig3": _recipe_fig3,
    "fig4": _recipe_fig4,
}


def run_experiment(config: ExperimentConfig) -> int:
    """Execute the configured run and write its output files.

    Returns 0 on success.  Raises WalkError for invalid physics parameters,
    MemoryError when the lattice does not fit in memory, and OSError for
    filesystem problems; the ``main`` wrapper maps those to exit statuses 2,
    2 and 1.
    """
    if config.recipe is not None:
        out_dir = config.output_path
        out_dir.mkdir(parents=True, exist_ok=True)
        return _RECIPES[config.recipe](config, out_dir)
    return _run_plain(config)


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        config = parse_config(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run_experiment(config)
    except WalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
