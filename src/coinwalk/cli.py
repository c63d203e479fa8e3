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
import numbers
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from coinwalk import __version__
from coinwalk.analysis import (
    EnsembleStats,
    classical_rw_distribution,
    localization_length,
    metrics_from_distribution,
    run_ensemble,
    variance,
)
from coinwalk.core import InitialStateParams, exact_int
from coinwalk.disorder import (
    ORDERED,
    PER_STEP_RANDOM,
    PRESET_NAMES,
    SEED_MIXER_ID,
    DisorderSpec,
    ParameterRange,
    preset_spec,
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
            "at t=100; fig2 = all four presets at t=200; fig3 = theta-high walk "
            "(confined relative to the ordered walk) and ordered reference at "
            "t=100/200/400; fig4 = spread ratio vs steps for "
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


def _real(flag: str, value):
    """``value`` if it is a real number; ``InitialStateParams`` checks it is finite."""
    # float(True) would silently give 1.0, and float("1.5") 1.5
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return value
    raise UsageError(f"{flag} must be a number, got {value!r}")


def _load_config_file(path: str, known: set[str]) -> dict:
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
    # every flag but --config may also come from the file
    known = vars(ns).keys() - {"config"}
    file_values = _load_config_file(ns.config, known) if ns.config else {}

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
    if not isinstance(out, str):
        raise UsageError(f"--out must be a path string, got {out!r}")

    steps = _exact_int("--steps", pick("steps"))
    realizations = _exact_int("--realizations", pick("realizations"))
    master_seed = _exact_int("--seed", pick("seed"))
    delta = _real("--delta", pick("delta"))
    phi = _real("--phi", pick("phi"))
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
        spec = DisorderSpec(xi, theta, zeta)
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


def _write_table(path: Path, fmt: str, columns: dict, head: dict | None = None) -> None:
    """Write named, equally long columns as CSV or as one JSON object.

    The first column holds integers and the others floats.  The entries of
    ``head`` come first in the JSON object; CSV has no place for them.
    """
    first, *rest = columns
    ints = [int(v) for v in columns[first]]
    floats = {name: list(map(float, columns[name])) for name in rest}
    if fmt == "csv":
        rows = zip(map(str, ints), *(map(_fmt, col) for col in floats.values()))
        _write_text(path, "\n".join([",".join(columns), *map(",".join, rows)]) + "\n")
    else:
        _write_json(path, {**(head or {}), first: ints, **floats})


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
    if config.recipe is not None:
        # a recipe walks its own presets and lengths, not these defaults
        payload["parameters"].update(dict.fromkeys(["steps", "preset", *_RANGE_FLAGS, "mode"]))
    _write_json(path, payload)


# ---------------------------------------------------------------------------
# experiment execution


@dataclass(frozen=True)
class Panel:
    """One walk of a recipe: its file stem, the preset walked and its length.

    A ``classical`` panel is compared with the exact classical walk (a
    ``p_crw`` column and ``crw_variance``) instead of the ordered reference.
    """

    stem: str
    preset: str
    steps: int
    classical: bool = False


#: The walks of fig1-fig3, in output order.
RECIPE_PANELS = {
    "fig1": (Panel("fig1_full_range_t100", "full-range", 100, classical=True),),
    "fig2": tuple(
        Panel(f"fig2{letter}_{preset.replace('-', '_')}_t200", preset, 200)
        for letter, preset in zip("abcd", PRESET_NAMES)
    ),
    "fig3": tuple(
        Panel(f"fig3_{label}_t{steps}", preset, steps)
        for steps in (100, 200, 400)
        for label, preset in (("hadamard", "hadamard-ordered"), ("theta_high", "theta-high"))
    ),
}


def _ordered_spec(theta: float) -> DisorderSpec:
    """The walk with coin angle ``theta`` and zero phases at every step."""
    zero = ParameterRange(0.0, 0.0)
    return DisorderSpec(zero, ParameterRange(theta, theta), zero)


def _walk(
    config: ExperimentConfig, spec: DisorderSpec, steps: int, realizations: int, walks: dict
) -> EnsembleStats:
    """The ensemble statistics of one walk; a single walk is one realization.

    ``walks`` caches the results of one invocation, whose seed is fixed, so
    a walk that two panels need runs once.
    """
    key = (spec, steps, realizations)
    if key not in walks:
        walks[key] = run_ensemble(spec, config.initial, steps, realizations, config.master_seed)
    return walks[key]


def _run_panel(
    config: ExperimentConfig,
    path: Path,
    spec: DisorderSpec,
    preset: str | None,
    steps: int,
    realizations: int,
    walks: dict,
    classical: bool = False,
) -> dict:
    """Walk ``spec``, write its distribution to ``path`` and return its metrics.

    A disordered walk's metrics compare it with the ordered reference walk
    of the same length, unless the panel is ``classical``.
    """
    stats = _walk(config, spec, steps, realizations, walks)
    dist = stats.mean_distribution
    m = metrics_from_distribution(dist)
    payload = {
        "steps": dist.t,
        "preset": preset,
        "seed": config.master_seed,
        "realizations": realizations,
        "variance": m.variance,
        "std_dev": m.std_dev,
        "mean": m.mean,
        "symmetry_deviation": m.symmetry_deviation,
    }
    if realizations > 1:
        payload["mean_variance"] = stats.mean_variance
        payload["variance_of_variance"] = stats.variance_of_variance
    columns = {"x": dist.positions, "p" if realizations == 1 else "p_mean": dist.p}
    if classical:
        crw = classical_rw_distribution(steps)
        columns["p_crw"] = crw.p
        payload["crw_variance"] = variance(crw)
    elif spec.mode == PER_STEP_RANDOM:
        reference = _ordered_spec(DEFAULT_REFERENCE_THETA)
        reference_variance = _walk(config, reference, steps, 1, walks).mean_variance
        payload["reference_theta"] = DEFAULT_REFERENCE_THETA
        payload["reference_variance"] = reference_variance
        payload["loc_length_ratio"] = localization_length(
            math.sqrt(stats.mean_variance), math.sqrt(reference_variance)
        )
        payload["variance_ratio"] = stats.mean_variance / reference_variance
    _write_table(path, config.format, columns, {"t": dist.t})
    return payload


def _recipe_panels(config: ExperimentConfig, out_dir: Path) -> tuple[dict, list[str]]:
    walks: dict = {}
    metrics: dict[str, dict] = {}
    outputs: list[str] = []
    for panel in RECIPE_PANELS[config.recipe]:
        spec = preset_spec(panel.preset)
        # an ordered walk is the same in every realization
        realizations = 1 if spec.mode == ORDERED else config.realizations
        name = f"{panel.stem}.{config.format}"
        metrics[panel.stem] = _run_panel(
            config, out_dir / name, spec, panel.preset, panel.steps, realizations, walks,
            panel.classical,
        )
        outputs.append(name)
    return metrics, outputs


def _recipe_fig4(config: ExperimentConfig, out_dir: Path) -> tuple[dict, list[str]]:
    steps = 400
    reference_thetas = (math.pi / 6, math.pi / 4, math.pi / 3)
    spec = preset_spec("theta-high")
    num_stats = run_ensemble(
        spec, config.initial, steps, config.realizations, config.master_seed,
        track_per_step=True,
    )
    num_sigma = np.sqrt(num_stats.per_step_variance)

    metrics: dict[str, dict] = {}
    times = range(1, steps + 1)
    columns: dict[str, list] = {"t": [], "theta_ref": [], "loc_length": []}
    for theta in reference_thetas:
        ref_stats = run_ensemble(
            _ordered_spec(theta), config.initial, steps, 1, config.master_seed, track_per_step=True
        )
        ref_sigma = np.sqrt(ref_stats.per_step_variance)
        ratios = [localization_length(float(num_sigma[t]), float(ref_sigma[t])) for t in times]
        columns["t"] += times
        columns["theta_ref"] += [theta] * steps
        columns["loc_length"] += ratios
        metrics[f"theta_ref_{_fmt(theta)}"] = {
            "theta_ref": theta,
            "realizations": config.realizations,
            "seed": config.master_seed,
            "loc_length": {str(t): ratios[t - 1] for t in (100, 200, 400)},
        }

    name = f"fig4_loc_length.{config.format}"
    _write_table(out_dir / name, config.format, columns)
    return metrics, [name]


def run_experiment(config: ExperimentConfig) -> int:
    """Execute the configured run and write its output files.

    Returns 0 on success.  Raises WalkError for invalid physics parameters,
    MemoryError when the lattice does not fit in memory, and OSError for
    filesystem problems; the ``main`` wrapper maps those to exit statuses 2,
    2 and 1.
    """
    out = config.output_path
    if config.recipe is None:
        out.parent.mkdir(parents=True, exist_ok=True)
        payload = _run_panel(
            config, out, config.spec, config.preset, config.steps, config.realizations, {}
        )
        _write_json(out.with_suffix(".metrics.json"), payload)
        _write_meta(out.with_suffix(".meta.json"), config, [out.name])
        return 0
    out.mkdir(parents=True, exist_ok=True)
    run_recipe = _recipe_fig4 if config.recipe == "fig4" else _recipe_panels
    metrics, outputs = run_recipe(config, out)
    metrics_name = f"{config.recipe}_metrics.json"
    _write_json(out / metrics_name, metrics)
    _write_meta(out / f"{config.recipe}_meta.json", config, [*outputs, metrics_name])
    return 0


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
