"""Observables and statistics over walk states.

Position distributions and their spread, the exact binomial baseline of the
classical unbiased walk, the spread ratio used to quantify localization,
power-law exponents of variance growth, and deterministic ensemble
averaging over disorder realizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from coinwalk.core import (
    InitialStateParams,
    WalkState,
    build_initial_state,
    coin_matrices,
    evolve_in_place,
    exact_int,
)
from coinwalk.disorder import DisorderSpec, sample_schedule
from coinwalk.errors import InvalidParameterError, NormDriftError

__all__ = [
    "PositionDistribution",
    "RunMetrics",
    "EnsembleStats",
    "distribution_from_state",
    "variance",
    "classical_rw_distribution",
    "localization_length",
    "spreading_exponent",
    "symmetry_deviation",
    "metrics_from_distribution",
    "run_ensemble",
]

#: Largest tolerated deviation of a distribution's total probability from 1.
NORM_DRIFT_LIMIT = 1e-6

#: Bytes of evolution buffers one chunk of an ensemble may hold; the chunk
#: size is this over the bytes per realization (at least 1).
_CHUNK_BYTES = 512 * 1024


@dataclass(frozen=True)
class PositionDistribution:
    """Probability of finding the walker at each lattice site.

    ``p[i]`` is the probability at x = i - h where h = (len(p) - 1) // 2;
    ``t`` records after how many steps the distribution was taken.
    """

    t: int
    p: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=np.float64)
        if p.ndim != 1 or p.size % 2 == 0:
            raise InvalidParameterError(
                f"p must be a 1-D array of odd length, got shape {p.shape}"
            )
        if np.any(p < 0):
            raise InvalidParameterError("probabilities must be non-negative")
        object.__setattr__(self, "p", p)

    @property
    def positions(self) -> np.ndarray:
        half = (self.p.size - 1) // 2
        return np.arange(-half, half + 1)


@dataclass(frozen=True)
class RunMetrics:
    """Summary statistics of one position distribution."""

    variance: float
    std_dev: float
    mean: float
    symmetry_deviation: float
    loc_length_ratio: float | None = None


@dataclass(frozen=True)
class EnsembleStats:
    """Aggregates over independent disorder realizations.

    ``mean_variance`` averages the per-realization variances (and is not
    the variance of ``mean_distribution``); ``variance_of_variance`` is the
    population variance of the same per-realization values.  When per-step
    tracking was requested, ``per_step_variance[t]`` holds the ensemble
    mean variance after t steps, for t = 0 .. steps.
    """

    realizations: int
    mean_distribution: PositionDistribution
    mean_variance: float
    variance_of_variance: float
    per_step_variance: np.ndarray | None = None


def _moments(p: np.ndarray, x: np.ndarray, x_squared: np.ndarray) -> tuple[float, float]:
    mean = float(np.dot(p, x))
    second = float(np.dot(p, x_squared))
    return mean, max(second - mean * mean, 0.0)


def _float_positions(dist: PositionDistribution) -> tuple[np.ndarray, np.ndarray]:
    x = dist.positions.astype(np.float64)
    return x, x * x


def _probabilities(a: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """|a|^2 summed over the coin axis of (..., 2, w) amplitudes, into ``out``."""
    np.multiply(a.real, a.real, out=scratch[0])
    np.multiply(a.imag, a.imag, out=scratch[1])
    np.add(scratch[0], scratch[1], out=scratch[0])
    return np.add(scratch[0][..., 0, :], scratch[0][..., 1, :], out=out)


def _check_total(p: np.ndarray) -> None:
    total = float(p.sum())
    if abs(total - 1.0) > NORM_DRIFT_LIMIT:
        raise NormDriftError(
            f"total probability {total!r} deviates from 1 by more than {NORM_DRIFT_LIMIT}"
        )


def distribution_from_state(state: WalkState) -> PositionDistribution:
    """Collapse a walk state to its position distribution.

    p(x) is the squared magnitude of the two coin components summed; no
    renormalization is applied, so accumulated numerical drift shows up in
    the total and is rejected rather than hidden.

    Raises
    ------
    NormDriftError
        If total probability deviates from 1 by more than ``NORM_DRIFT_LIMIT``.
    """
    a = state.amplitudes
    p = (a.real * a.real + a.imag * a.imag).sum(axis=0)
    _check_total(p)
    return PositionDistribution(t=state.steps_taken, p=p)


def variance(dist: PositionDistribution) -> float:
    """Central second moment of the distribution, in lattice sites squared.

    Clipped at zero to absorb rounding when all mass sits on one site.
    """
    return _moments(dist.p, *_float_positions(dist))[1]


def classical_rw_distribution(steps: int) -> PositionDistribution:
    """Exact binomial distribution of the unbiased classical walk.

    p(x) = C(t, (t+x)/2) / 2**t on sites of the correct parity and exactly
    zero elsewhere.  Coefficients are computed in exact integer arithmetic
    and rounded once on division, so the variance equals t to machine
    precision.
    """
    steps = exact_int("steps", steps)
    if steps < 0:
        raise InvalidParameterError(f"steps must be >= 0, got {steps}")
    p = np.zeros(2 * steps + 1, dtype=np.float64)
    denom = 1 << steps
    for k in range(steps + 1):
        # x = 2k - steps sits at array index x + steps = 2k
        p[2 * k] = math.comb(steps, k) / denom
    return PositionDistribution(t=steps, p=p)


def localization_length(sigma_disordered: float, sigma_ordered: float) -> float:
    """Ratio of the disordered walk's spread to the ordered walk's spread.

    Both arguments are standard deviations in lattice sites.  Values well
    below 1 mean the disordered walk stays confined relative to the ordered
    reference.

    Raises
    ------
    InvalidParameterError
        If the ordered spread is not positive or the disordered one is
        negative.
    """
    if sigma_ordered <= 0:
        raise InvalidParameterError(
            f"ordered spread must be > 0, got {sigma_ordered!r}"
        )
    if sigma_disordered < 0:
        raise InvalidParameterError(
            f"disordered spread must be >= 0, got {sigma_disordered!r}"
        )
    return sigma_disordered / sigma_ordered


def spreading_exponent(series: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(variance) against log(t).

    2 is ballistic spreading, 1 diffusive, and values near 0 indicate a
    saturating, localized walk.

    Parameters
    ----------
    series : list of (t, variance)
        At least 3 points with t >= 1 and variance > 0.
    """
    if len(series) < 3:
        raise InvalidParameterError(f"need at least 3 points, got {len(series)}")
    t = np.array([point[0] for point in series], dtype=np.float64)
    v = np.array([point[1] for point in series], dtype=np.float64)
    if np.any(t < 1):
        raise InvalidParameterError("every t must be >= 1")
    if np.any(v <= 0):
        raise InvalidParameterError("every variance must be > 0")
    slope, _ = np.polyfit(np.log(t), np.log(v), 1)
    return float(slope)


def symmetry_deviation(dist: PositionDistribution) -> float:
    """Largest deviation from mirror symmetry, max over x of |p(x) - p(-x)|."""
    return float(np.max(np.abs(dist.p - dist.p[::-1])))


def metrics_from_distribution(
    dist: PositionDistribution,
    loc_length_ratio: float | None = None,
) -> RunMetrics:
    """Bundle the standard summary statistics of one distribution."""
    mean, var = _moments(dist.p, *_float_positions(dist))
    return RunMetrics(
        variance=var,
        std_dev=math.sqrt(var),
        mean=mean,
        symmetry_deviation=symmetry_deviation(dist),
        loc_length_ratio=loc_length_ratio,
    )


def _chunk_size(width: int) -> int:
    """Realizations per chunk: the kernel's two (2, width) complex buffers each."""
    return max(1, _CHUNK_BYTES // (2 * 2 * width * np.dtype(np.complex128).itemsize))


def run_ensemble(
    spec: DisorderSpec,
    initial: InitialStateParams,
    steps: int,
    realizations: int,
    master_seed: int,
    track_per_step: bool = False,
) -> EnsembleStats:
    """Evolve independent disorder realizations and aggregate the results.

    Realization r runs the schedule sampled with realization_index = r.
    Consecutive realizations are evolved together in chunks of a fixed
    memory budget, but every statistic accumulates one realization at a
    time in index order, so the output is a pure function of the arguments
    and does not depend on the chunk size.  With ``track_per_step`` the
    ensemble-mean variance is recorded after every step, which costs one
    O(lattice) reduction per realization and step.

    Raises
    ------
    InvalidParameterError
        If ``steps`` or ``realizations`` is not an integer, ``realizations``
        < 1 or ``steps`` < 0.
    NormDriftError
        If a realization's total probability deviates from 1 by more than
        ``NORM_DRIFT_LIMIT``.
    """
    steps = exact_int("steps", steps)
    realizations = exact_int("realizations", realizations)
    if realizations < 1:
        raise InvalidParameterError(f"realizations must be >= 1, got {realizations}")
    if steps < 0:
        raise InvalidParameterError(f"steps must be >= 0, got {steps}")
    width = 2 * steps + 1
    positions = np.arange(-steps, steps + 1, dtype=np.float64)
    positions_squared = positions * positions
    mean_p = np.zeros(width, dtype=np.float64)
    final_variances = np.empty(realizations, dtype=np.float64)
    per_step = np.zeros(steps + 1, dtype=np.float64) if track_per_step else None

    chunk = min(_chunk_size(width), realizations)
    start_amps = build_initial_state(initial, t_max=steps).amplitudes
    amps_buf = np.empty((chunk, 2, width), dtype=np.complex128)
    p_buf = np.empty((chunk, width), dtype=np.float64)
    scratch_buf = np.empty((2, chunk, 2, width), dtype=np.float64)

    def record_variance(t: int, a: np.ndarray) -> None:
        p = _probabilities(a, p_buf[: len(a)], scratch_buf[:, : len(a)])
        for row in p:
            per_step[t] += _moments(row, positions, positions_squared)[1]

    observe = record_variance if track_per_step else None
    for first in range(0, realizations, chunk):
        indices = range(first, min(first + chunk, realizations))
        params = np.stack(
            [sample_schedule(spec, steps, master_seed, r).params for r in indices], axis=1
        )
        coins = coin_matrices(params.reshape(-1, 3)).reshape(steps, len(indices), 2, 2)
        amps = amps_buf[: len(indices)]
        amps[...] = start_amps
        evolve_in_place(amps, coins, observe=observe)
        p = _probabilities(amps, p_buf[: len(indices)], scratch_buf[:, : len(indices)])
        for r, row in zip(indices, p):
            _check_total(row)
            mean_p += row
            final_variances[r] = _moments(row, positions, positions_squared)[1]

    mean_p /= realizations
    if per_step is not None:
        per_step /= realizations
    return EnsembleStats(
        realizations=realizations,
        mean_distribution=PositionDistribution(t=steps, p=mean_p),
        mean_variance=float(final_variances.mean()),
        variance_of_variance=float(final_variances.var()),
        per_step_variance=per_step,
    )
