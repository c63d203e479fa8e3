"""Reproducible experiment runner.

Executes single walks, seeded disorder ensembles, and bundled figure
recipes, writing distribution data (CSV or JSON), a metrics file, and a
metadata sidecar.  Data and metrics files are byte-identical across
repeated invocations with the same configuration; timestamps live only in
the metadata sidecar.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import astuple, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from coinwalk import __version__
from coinwalk.analysis import (
    classical_rw_distribution,
    localization_length,
    metrics_from_distribution,
    run_ensembles,
    variance,
)
from coinwalk.core import InitialStateParams, exact_count, exact_int, finite_real
from coinwalk.disorder import (
    ORDERED,
    PER_STEP_RANDOM,
    PRESET_NAMES,
    SEED_MIXER_ID,
    DisorderSpec,
    ParameterRange,
    ordered_spec,
    preset_spec,
)
from coinwalk.errors import InvalidParameterError, WalkError

__all__ = ["ExperimentConfig", "parse_config", "run_experiment", "main"]

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

#: The flags a recipe fixes: it walks its own presets and lengths.
_RECIPE_FIXED = ("steps", "preset", *_RANGE_FLAGS)


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
        raise InvalidParameterError(f"{flag}: expected LO:HI, got {text!r}")
    try:
        low, high = float(parts[0]), float(parts[1])
    except ValueError:
        raise InvalidParameterError(f"{flag}: expected numeric LO:HI, got {text!r}") from None
    try:
        return ParameterRange(low, high)
    except WalkError as exc:
        raise InvalidParameterError(f"{flag}: {exc}") from None


def _unique_keys(pairs: list) -> dict:
    """A JSON object of a config file, keyed by flag name: ``-`` becomes ``_``, each name once."""
    values = {}
    for key, value in pairs:
        name = key.replace("-", "_")
        if name in values:
            raise InvalidParameterError(f"--config: key {name!r} given twice")
        values[name] = value
    return values


def _load_config_file(path: str, known: set[str]) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidParameterError(f"--config: cannot read {path!r} ({exc})") from None
    try:
        values = json.loads(raw, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"--config: {path!r} is not valid JSON ({exc})") from None
    if not isinstance(values, dict):
        raise InvalidParameterError(f"--config: {path!r} must hold a JSON object")
    for name in values:
        if name not in known:
            raise InvalidParameterError(f"--config: unknown key {name!r}")
    return values


def parse_config(argv: list[str]) -> ExperimentConfig:
    """Resolve flags, optional config file, and defaults into an ExperimentConfig.

    One merge states the precedence: the values given are the config
    file's, overlaid by every flag given on the command line, and every
    setting is read from the built-in defaults (steps=100, delta=phi=pi/2,
    preset=hadamard-ordered, realizations=1, seed=0, format=csv) overlaid
    by the values given.  A recipe rejects any value given, by flag or by
    file, for a setting it fixes (``_RECIPE_FIXED``), and a file's
    ``"recipe": null`` means no recipe.

    Raises
    ------
    InvalidParameterError
        On any malformed or inconsistent value; ``main`` exits 2 on it, as
        on every ``WalkError``.
    SystemExit
        From argparse, on unknown flags or non-numeric numbers.
    """
    ns = build_parser().parse_args(argv)
    # every flag but --config may also come from the file
    known = vars(ns).keys() - {"config"}
    given = _load_config_file(ns.config, known) if ns.config else {}
    given |= {name: getattr(ns, name) for name in known if getattr(ns, name) is not None}
    values = _DEFAULTS | given

    recipe = values.get("recipe")
    if recipe is not None and recipe not in RECIPE_NAMES:
        raise InvalidParameterError(f"recipe must be one of {RECIPE_NAMES}, got {recipe!r}")
    if recipe is not None and (offending := [name for name in _RECIPE_FIXED if name in given]):
        flags = ", ".join("--" + name.replace("_", "-") for name in offending)
        raise InvalidParameterError(f"{flags}: fixed by --recipe {recipe}; drop the flag")

    out = values.get("out")
    if out is None:
        raise InvalidParameterError("--out is required")
    if not isinstance(out, str):
        raise InvalidParameterError(f"--out must be a path string, got {out!r}")

    steps = exact_count("--steps", values["steps"], 1)
    realizations = exact_count("--realizations", values["realizations"], 1)
    master_seed = exact_int("--seed", values["seed"])
    delta = finite_real("--delta", values["delta"])
    phi = finite_real("--phi", values["phi"])
    # the seed mixer works mod 2**64, so a larger seed would alias a smaller one
    if not 0 <= master_seed < 2**64:
        raise InvalidParameterError(f"--seed must lie in [0, 2**64), got {master_seed}")

    fmt = str(values["format"])
    if fmt not in ("csv", "json"):
        raise InvalidParameterError(f"--format must be csv or json, got {fmt!r}")

    preset = str(values["preset"])
    if preset not in PRESET_NAMES:
        raise InvalidParameterError(f"--preset must be one of {PRESET_NAMES}, got {preset!r}")
    base = preset_spec(preset)
    overrides = {
        name: _parse_range("--" + name.replace("_", "-"), raw)
        for name in _RANGE_FLAGS
        if (raw := values.get(name)) is not None
    }

    return ExperimentConfig(
        steps=steps,
        initial=InitialStateParams(delta=delta, phi=phi),
        spec=replace(base, **overrides),
        preset=None if overrides else preset,
        realizations=realizations,
        master_seed=master_seed,
        output_path=Path(out),
        format=fmt,
        recipe=recipe,
    )


# ---------------------------------------------------------------------------
# output writers


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: Path, obj: dict) -> None:
    _write_text(path, json.dumps(obj, indent=2) + "\n")


def _write_table(path: Path, fmt: str, columns: dict, head: dict | None = None) -> None:
    """Write named, equally long columns as CSV or as one JSON object.

    The first column holds integers and the others finite floats.  The
    entries of ``head`` come first in the JSON object; CSV has no place for
    them.  Floats are written with 17 significant digits in CSV, a lossless
    round trip for float64, and the JSON text is the one
    ``json.dumps(obj, indent=2)`` gives, assembled directly because the
    standard encoder runs in pure Python when ``indent`` is set.
    """
    first, *rest = columns
    # Python ints and floats: %d writes an int as str does
    values = {name: np.asarray(col).tolist() for name, col in columns.items()}
    if fmt == "csv":
        row = "%d" + ",%.17g" * len(rest) + "\n"
        body = row * len(values[first]) % tuple(itertools.chain.from_iterable(zip(*values.values())))
        _write_text(path, ",".join(columns) + "\n" + body)
        return
    items = [f"  {json.dumps(name)}: {json.dumps(value)}" for name, value in (head or {}).items()]
    for name, column in values.items():
        # json writes a finite float as its repr, and an empty list as []
        body = "[\n    " + ",\n    ".join(map(repr, column)) + "\n  ]" if column else "[]"
        items.append(f"  {json.dumps(name)}: {body}")
    _write_text(path, "{\n" + ",\n".join(items) + "\n}\n")


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
            **{name: list(astuple(getattr(config.spec, name))) for name in _RANGE_FLAGS},
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
        payload["parameters"].update(dict.fromkeys([*_RECIPE_FIXED, "mode"]))
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


def _walk_keys(panel: tuple) -> list:
    """The ensembles a panel needs: its own, and the ordered reference if compared with one."""
    _, spec, _, steps, realizations, classical = panel
    keys = [(spec, steps, realizations)]
    if not classical and spec.mode == PER_STEP_RANDOM:
        keys.append((ordered_spec(DEFAULT_REFERENCE_THETA), steps, 1))
    return keys


def _run_panels(config: ExperimentConfig, panels: list[tuple]) -> list[dict]:
    """Write each panel's distribution and return the panels' metrics, in order.

    A panel is ``(path, spec, preset, steps, realizations, classical)``.  The
    ensembles every panel needs (:func:`_walk_keys`) run in one
    :func:`run_ensembles` call.  They are told apart by value, so an
    ensemble that two panels need, such as an ordered panel that doubles as
    the reference, is one; a single walk is one realization.  A disordered
    walk's metrics compare it with the ordered reference walk of the same
    length, unless the panel is ``classical``.
    """
    plans = [(panel, _walk_keys(panel)) for panel in panels]
    keys = list(dict.fromkeys(key for _, keys in plans for key in keys))
    walks = dict(zip(keys, run_ensembles(keys, config.initial, config.master_seed)))
    payloads = []
    for (path, _, preset, steps, realizations, classical), (own, *reference) in plans:
        stats = walks[own]
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
        elif reference:
            reference_variance = walks[reference[0]].mean_variance
            payload["reference_theta"] = DEFAULT_REFERENCE_THETA
            payload["reference_variance"] = reference_variance
            payload["loc_length_ratio"] = localization_length(
                math.sqrt(stats.mean_variance), math.sqrt(reference_variance)
            )
            payload["variance_ratio"] = stats.mean_variance / reference_variance
        _write_table(path, config.format, columns, {"t": dist.t})
        payloads.append(payload)
    return payloads


def _recipe_panels(config: ExperimentConfig, out_dir: Path) -> tuple[dict, list[str]]:
    recipe = RECIPE_PANELS[config.recipe]
    panels = []
    for panel in recipe:
        spec = preset_spec(panel.preset)
        # an ordered walk is the same in every realization
        realizations = 1 if spec.mode == ORDERED else config.realizations
        path = out_dir / f"{panel.stem}.{config.format}"
        panels.append((path, spec, panel.preset, panel.steps, realizations, panel.classical))
    payloads = _run_panels(config, panels)
    metrics = {panel.stem: payload for panel, payload in zip(recipe, payloads)}
    return metrics, [path.name for path, *_ in panels]


def _recipe_fig4(config: ExperimentConfig, out_dir: Path) -> tuple[dict, list[str]]:
    steps = 400
    reference_thetas = (math.pi / 6, math.pi / 4, math.pi / 3)
    ensembles = [(preset_spec("theta-high"), steps, config.realizations)]
    ensembles += [(ordered_spec(theta), steps, 1) for theta in reference_thetas]
    num, *refs = run_ensembles(ensembles, config.initial, config.master_seed, track_per_step=True)
    num_sigma = np.sqrt(num.per_step_variance)

    metrics: dict[str, dict] = {}
    times = range(1, steps + 1)
    columns: dict[str, list] = {"t": [], "theta_ref": [], "loc_length": []}
    for theta, ref in zip(reference_thetas, refs):
        ref_sigma = np.sqrt(ref.per_step_variance)
        ratios = localization_length(num_sigma[1:], ref_sigma[1:]).tolist()
        columns["t"] += times
        columns["theta_ref"] += [theta] * steps
        columns["loc_length"] += ratios
        metrics[f"theta_ref_{theta:.17g}"] = {
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
        panel = (out, config.spec, config.preset, config.steps, config.realizations, False)
        [payload] = _run_panels(config, [panel])
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
        return run_experiment(parse_config(args))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except WalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
