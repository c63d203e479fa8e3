"""Seeded per-step coin schedules and the disordered walk built from them.

A schedule assigns one coin-parameter triple to every step of the walk,
drawn uniformly from configurable ranges.  The same triple at every step
(degenerate ranges) recovers the ordered walk; independent draws per step
break the temporal periodicity of the evolution while keeping it unitary.
Disorder here is temporal only: one coin per step, identical at all sites.

Every random stream is a pure function of (master_seed, realization_index),
derived with a fixed 64-bit mixer so ensembles are reproducible and
realizations are independent.  ``SEED_MIXER_ID`` names the mixer in output
metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from coinwalk.core import (
    WalkState, coin_matrices, evolve, exact_count, exact_int, finite_real, instance_of,
)
from coinwalk.errors import InvalidParameterError

__all__ = [
    "ORDERED",
    "PER_STEP_RANDOM",
    "PRESET_NAMES",
    "SEED_MIXER_ID",
    "ParameterRange",
    "DisorderSpec",
    "ordered_spec",
    "preset_spec",
    "derive_stream_seed",
    "sample_schedule",
    "evolve_disordered",
]

ORDERED = "ordered"
PER_STEP_RANDOM = "per-step-random"

PRESET_NAMES = ("hadamard-ordered", "full-range", "theta-low", "theta-high")

#: Identifier of the seed-mixing scheme, recorded in output metadata.
SEED_MIXER_ID = "splitmix64-golden-v1"

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15

_HALF_PI = math.pi / 2
_QUARTER_PI = math.pi / 4


@dataclass(frozen=True)
class ParameterRange:
    """Closed interval [low, high] of angles, in radians, of finite width."""

    low: float
    high: float

    def __post_init__(self) -> None:
        for name in ("low", "high"):
            object.__setattr__(self, name, finite_real(f"range {name}", getattr(self, name)))
        # the width is negative exactly when low > high, and inf where high - low
        # overflows, which would make every angle sample_schedule draws inf
        if not 0 <= self.width < math.inf:
            raise InvalidParameterError(
                f"range must have low <= high and a finite width, got [{self.low}, {self.high}]"
            )

    @property
    def width(self) -> float:
        return self.high - self.low

    @property
    def is_degenerate(self) -> bool:
        return self.low == self.high


@dataclass(frozen=True)
class DisorderSpec:
    """Sampling ranges for the three coin angles.

    Each field must be a ``ParameterRange``.  ``mode`` is derived from the
    ranges: ``"ordered"`` when all three are degenerate (every step uses the
    one triple they pin down), otherwise ``"per-step-random"`` (fresh
    independent draw per step).
    """

    xi_range: ParameterRange
    theta_range: ParameterRange
    zeta_range: ParameterRange

    def __post_init__(self) -> None:
        for name in ("xi_range", "theta_range", "zeta_range"):
            instance_of(name, getattr(self, name), ParameterRange)

    @property
    def mode(self) -> str:
        ranges = (self.xi_range, self.theta_range, self.zeta_range)
        return ORDERED if all(r.is_degenerate for r in ranges) else PER_STEP_RANDOM


def ordered_spec(theta: float) -> DisorderSpec:
    """The ordered walk with coin angle ``theta`` and zero phases at every step."""
    zero = ParameterRange(0.0, 0.0)
    return DisorderSpec(zero, ParameterRange(theta, theta), zero)


def preset_spec(name: str) -> DisorderSpec:
    """Return one of the four bundled disorder specifications.

    - ``hadamard-ordered``: the ordered reference walk, theta = pi/4 and
      zero phases at every step; ballistic spreading.
    - ``full-range``: xi, theta, zeta each uniform on [0, pi/2]; spreading
      close to the classical diffusive baseline.
    - ``theta-low``: theta uniform on [0, pi/4], phases on [0, pi/2];
      diffuses without the sharp ballistic side peaks.
    - ``theta-high``: theta uniform on [pi/4, pi/2], phases on [0, pi/2];
      confined relative to the ordered walk.
    """
    full = ParameterRange(0.0, _HALF_PI)
    if name == "hadamard-ordered":
        return ordered_spec(_QUARTER_PI)
    if name == "full-range":
        return DisorderSpec(full, full, full)
    if name == "theta-low":
        return DisorderSpec(full, ParameterRange(0.0, _QUARTER_PI), full)
    if name == "theta-high":
        return DisorderSpec(full, ParameterRange(_QUARTER_PI, _HALF_PI), full)
    raise InvalidParameterError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")


def derive_stream_seed(master_seed: int, realization_index: int) -> int:
    """Mix a master seed and a realization index into one 64-bit stream seed.

    Applies the splitmix64 finalizer to ``master_seed + (index + 1) * g``
    where g is the 64-bit golden-gamma constant.  For a fixed index the map
    is a bijection on 64-bit integers, and distinct indices give distinct,
    statistically unrelated streams.  ``master_seed`` is reduced mod 2**64.

    Raises
    ------
    InvalidParameterError
        If either argument is not an integer, or ``realization_index`` is
        negative.
    """
    master_seed = exact_int("master_seed", master_seed)
    realization_index = exact_count("realization_index", realization_index)
    z = (master_seed + (realization_index + 1) * _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def sample_schedule(
    spec: DisorderSpec,
    steps: int,
    master_seed: int,
    realization_index: int = 0,
) -> np.ndarray:
    """Draw one coin triple per step, uniformly from the ranges in ``spec``.

    Draws are independent across steps.  Within a step the order is fixed
    as (xi, theta, zeta), so the schedule depends only on the arguments and
    never on internal data layout.  Schedules drawn from the same stream
    extend each other: row i is identical for every ``steps > i``.

    Parameters
    ----------
    spec : DisorderSpec
        Ranges to sample from; degenerate ranges yield constants.
    steps : int
        Schedule length, >= 0.
    master_seed : int
        64-bit master seed of the ensemble.
    realization_index : int
        Which independent realization of the ensemble to generate.

    Returns
    -------
    numpy.ndarray
        Read-only, shape (steps, 3), float64: row k holds (xi, theta, zeta)
        of step k.

    Raises
    ------
    InvalidParameterError
        If ``spec`` is not a DisorderSpec, ``steps``, ``master_seed`` or
        ``realization_index`` is not an integer, or ``steps`` or
        ``realization_index`` is negative.
    """
    instance_of("spec", spec, DisorderSpec)
    steps = exact_count("steps", steps)
    rng = np.random.default_rng(derive_stream_seed(master_seed, realization_index))
    u = rng.random((steps, 3))
    lows = np.array([spec.xi_range.low, spec.theta_range.low, spec.zeta_range.low])
    widths = np.array([spec.xi_range.width, spec.theta_range.width, spec.zeta_range.width])
    params = lows + u * widths
    params.setflags(write=False)
    return params


def evolve_disordered(initial: WalkState, schedule: np.ndarray) -> WalkState:
    """Apply one walk step per row of a (steps, 3) angle schedule, row 0 first.

    A schedule whose rows are all identical reproduces the ordered walk
    amplitude for amplitude.  An empty schedule returns a copy of the
    initial state.

    Raises
    ------
    CapacityError
        If the schedule is longer than the lattice can absorb.
    InvalidParameterError
        If ``schedule`` is not a (steps, 3) array of finite angles.
    """
    return evolve(initial, coin_matrices(schedule))
