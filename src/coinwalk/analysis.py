"""Observables and statistics over walk states.

Position distributions and their spread, the exact binomial baseline of the
classical unbiased walk, the spread ratio used to quantify localization,
power-law exponents of variance growth, and deterministic ensemble
averaging over disorder realizations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from coinwalk.core import (
    InitialStateParams,
    WalkState,
    build_initial_state,
    coin_matrices,
    evolve_in_place,
    exact_count,
    exact_int,
)
from coinwalk.disorder import ORDERED, DisorderSpec, sample_schedule
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
    "run_ensembles",
]

#: Largest tolerated deviation of a distribution's total probability from 1.
NORM_DRIFT_LIMIT = 1e-6

#: Bytes one chunk of an ensemble may hold in two (2, width) complex arrays
#: per realization; the chunk size is this over those bytes (at least 1).
_CHUNK_BYTES = 512 * 1024


@dataclass(frozen=True)
class PositionDistribution:
    """Probability of finding the walker at each lattice site.

    ``p[i]`` is the probability at x = i - h where h = (len(p) - 1) // 2;
    ``t``, an exact integer >= 0, records after how many steps the
    distribution was taken.
    """

    t: int
    p: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", exact_count("t", self.t))
        p = np.asarray(self.p, dtype=np.float64)
        if p.ndim != 1 or p.size % 2 == 0:
            raise InvalidParameterError(
                f"p must be a 1-D array of odd length, got shape {p.shape}"
            )
        if not np.all(np.isfinite(p)):
            raise InvalidParameterError("probabilities must be finite")
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


def _moments(p: np.ndarray, x: np.ndarray, x_squared: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and central second moment of each row of ``p`` at positions ``x``.

    The variance is clipped at zero to absorb rounding when all mass sits on
    one site.  Each moment is one ``np.vecdot`` over all rows, which gives
    every row the bits of ``np.dot(row, x)``: both call BLAS ``ddot`` per row,
    while ``p @ x`` and ``einsum`` round differently (``TestVecdotRowBits``
    pins this).
    """
    mean = np.vecdot(p, x)
    second = np.vecdot(p, x_squared)
    return mean, np.maximum(second - mean * mean, 0.0)


def _check_total(p: np.ndarray) -> None:
    total = float(p.sum())
    # written so that a NaN total fails too
    if not abs(total - 1.0) <= NORM_DRIFT_LIMIT:
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
        If total probability deviates from 1 by more than ``NORM_DRIFT_LIMIT``
        or is not finite.
    """
    a = state.amplitudes
    p = (a.real * a.real + a.imag * a.imag).sum(axis=0)
    _check_total(p)
    return PositionDistribution(t=state.steps_taken, p=p)


def variance(dist: PositionDistribution) -> float:
    """Central second moment of the distribution, in lattice sites squared.

    Clipped at zero to absorb rounding when all mass sits on one site.
    """
    x = dist.positions.astype(np.float64)
    return float(_moments(dist.p, x, x * x)[1])


def classical_rw_distribution(steps: int) -> PositionDistribution:
    """Exact binomial distribution of the unbiased classical walk.

    p(x) = C(t, (t+x)/2) / 2**t on sites of the correct parity and exactly
    zero elsewhere.  Coefficients are computed in exact integer arithmetic
    and rounded once on division, so the variance equals t to machine
    precision.
    """
    steps = exact_count("steps", steps)
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
        If either spread is not finite, the ordered spread is not positive
        or the disordered one is negative.
    """
    # written so that NaN fails too
    if not 0 < sigma_ordered < math.inf:
        raise InvalidParameterError(
            f"ordered spread must be finite and > 0, got {sigma_ordered!r}"
        )
    if not 0 <= sigma_disordered < math.inf:
        raise InvalidParameterError(
            f"disordered spread must be finite and >= 0, got {sigma_disordered!r}"
        )
    return sigma_disordered / sigma_ordered


def spreading_exponent(series: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(variance) against log(t).

    2 is ballistic spreading, 1 diffusive, and values near 0 indicate a
    saturating, localized walk.

    Parameters
    ----------
    series : list of (t, variance)
        At least 3 points with finite t >= 1 and finite variance > 0, at no
        fewer than 2 distinct t.
    """
    if len(series) < 3:
        raise InvalidParameterError(f"need at least 3 points, got {len(series)}")
    t = np.array([point[0] for point in series], dtype=np.float64)
    v = np.array([point[1] for point in series], dtype=np.float64)
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise InvalidParameterError("every t and variance must be finite")
    if np.unique(t).size < 2:
        raise InvalidParameterError("need at least 2 distinct t")
    if np.any(t < 1):
        raise InvalidParameterError("every t must be >= 1")
    if np.any(v <= 0):
        raise InvalidParameterError("every variance must be > 0")
    slope, _ = np.polyfit(np.log(t), np.log(v), 1)
    return float(slope)


def symmetry_deviation(dist: PositionDistribution) -> float:
    """Largest deviation from mirror symmetry, max over x of |p(x) - p(-x)|."""
    return float(np.max(np.abs(dist.p - dist.p[::-1])))


def metrics_from_distribution(dist: PositionDistribution) -> RunMetrics:
    """Bundle the standard summary statistics of one distribution."""
    x = dist.positions.astype(np.float64)
    mean, var = map(float, _moments(dist.p, x, x * x))
    return RunMetrics(
        variance=var,
        std_dev=math.sqrt(var),
        mean=mean,
        symmetry_deviation=symmetry_deviation(dist),
    )


def _chunk_size(width: int) -> int:
    """Realizations per chunk: ``_CHUNK_BYTES`` over two (2, width) complex arrays each.

    For a walk from one site the kernel holds about two and a half such
    arrays per realization: the caller's array, the two half-lattice
    buffers of the one parity class that holds amplitude (about one array
    together) and a zero array of half one.  A chunk's kernel memory is
    therefore about 1.25 times ``_CHUNK_BYTES``.
    """
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
    and does not depend on the chunk size.  An ordered ``spec`` gives the
    same walk in every realization, so that walk is evolved once and
    reduced once per realization.  With ``track_per_step`` the
    ensemble-mean variance is recorded after every step, which costs |a|^2
    over one parity of the light cone and one ``np.vecdot`` per moment for
    each chunk and step.  This is :func:`run_ensembles` with one ensemble.

    Raises
    ------
    InvalidParameterError
        If ``steps`` or ``realizations`` is not an integer, ``realizations``
        < 1 or ``steps`` < 0.
    NormDriftError
        If a realization's total probability deviates from 1 by more than
        ``NORM_DRIFT_LIMIT``.
    """
    return run_ensembles([(spec, realizations)], initial, steps, master_seed, track_per_step)[0]


def run_ensembles(
    ensembles,
    initial: InitialStateParams,
    steps: int,
    master_seed: int,
    track_per_step: bool = False,
) -> list[EnsembleStats]:
    """Run several ensembles of one length as one batch of walks.

    ``ensembles`` is a sequence of ``(spec, realizations)`` pairs, and the
    result holds one :class:`EnsembleStats` per pair, in order, each equal
    bit for bit to what :func:`run_ensemble` gives for that pair.  The
    walks of all pairs are evolved together in chunks of ``_CHUNK_BYTES``,
    a chunk may hold walks of several pairs, and each pair's statistics
    still accumulate one realization at a time in index order.  An ordered
    pair evolves one walk that stands for all of its realizations.

    Raises
    ------
    InvalidParameterError
        If ``ensembles`` is empty, ``steps`` or a ``realizations`` is not an
        integer, a ``realizations`` < 1 or ``steps`` < 0; all are checked
        before any walk runs.
    NormDriftError
        If a realization's total probability deviates from 1 by more than
        ``NORM_DRIFT_LIMIT``.
    """
    steps = exact_count("steps", steps)
    pairs = [(spec, exact_int("realizations", realizations)) for spec, realizations in ensembles]
    if not pairs:
        raise InvalidParameterError("need at least one ensemble")
    for _, realizations in pairs:
        if realizations < 1:
            raise InvalidParameterError(f"realizations must be >= 1, got {realizations}")
    width = 2 * steps + 1
    positions = np.arange(-steps, steps + 1, dtype=np.float64)
    positions_squared = positions * positions
    mean_ps = [np.zeros(width, dtype=np.float64) for _ in pairs]
    final_variances = [np.empty(realizations, dtype=np.float64) for _, realizations in pairs]
    per_steps = [np.zeros(steps + 1, dtype=np.float64) if track_per_step else None for _ in pairs]

    # (ensemble, first realization, realizations the walk stands for)
    copies = [realizations if spec.mode == ORDERED else 1 for spec, realizations in pairs]
    walks = (
        (e, r, copies[e])
        for e, (_, realizations) in enumerate(pairs)
        for r in range(0, realizations, copies[e])
    )
    total = sum(realizations // c for (_, realizations), c in zip(pairs, copies))
    chunk = min(_chunk_size(width), total)
    start_amps = build_initial_state(initial, t_max=steps).amplitudes
    amps_buf = np.empty((chunk, 2, width), dtype=np.complex128)
    # the float64 parts of amps_buf as (walk, coin row, re/im, site)
    parts = np.moveaxis(amps_buf.view(np.float64).reshape(chunk, 2, width, 2), -1, -2)
    squares = np.empty((chunk, 2, 2, steps + 1), dtype=np.float64)
    # one probability buffer per parity of the step count
    p_bufs = np.empty((2, chunk, width), dtype=np.float64)
    step_variances = np.zeros((chunk, steps + 1), dtype=np.float64)

    def probabilities(n: int, t: int) -> np.ndarray:
        """|a|^2 summed over the coin axis for the chunk's first n walks after t steps.

        A walk from one site holds amplitude only at the sites |x| <= t with
        x = t (mod 2), so only those are squared; every other site of the
        parity's buffer holds the zero it was filled with.
        """
        cone = slice(steps - t, steps + t + 1, 2)
        part = parts[:n, ..., cone]
        squared = np.multiply(part, part, out=squares[:n, ..., : t + 1])
        # re*re + im*im per coin row, then the two rows
        rows = np.add(squared[:, :, 0], squared[:, :, 1], out=squared[:, :, 0])
        p = p_bufs[t % 2, :n]
        np.add(rows[:, 0], rows[:, 1], out=p[:, cone])
        return p

    def record_variances(t: int, a: np.ndarray) -> None:
        step_variances[: len(a), t] = _moments(
            probabilities(len(a), t), positions, positions_squared
        )[1]

    observe = record_variances if track_per_step else None
    while batch := list(itertools.islice(walks, chunk)):
        n = len(batch)
        params = np.stack(
            [sample_schedule(pairs[e][0], steps, master_seed, r) for e, r, _ in batch], axis=1
        )
        coins = coin_matrices(params.reshape(-1, 3)).reshape(steps, n, 2, 2)
        amps = amps_buf[:n]
        amps[...] = start_amps
        # a step writes one parity of its light cone, and the previous
        # chunk's last steps wrote those sites out to the edge
        p_bufs.fill(0.0)
        evolve_in_place(amps, coins, observe=observe)
        p = probabilities(n, steps)
        _, variances = _moments(p, positions, positions_squared)
        for j, (e, r, c) in enumerate(batch):
            _check_total(p[j])
            final_variances[e][r : r + c] = variances[j]
            for _ in range(c):
                mean_ps[e] += p[j]
                if track_per_step:
                    per_steps[e] += step_variances[j]

    results = []
    for (_, realizations), mean_p, variances, per_step in zip(
        pairs, mean_ps, final_variances, per_steps
    ):
        mean_p /= realizations
        if per_step is not None:
            per_step /= realizations
        results.append(
            EnsembleStats(
                realizations=realizations,
                mean_distribution=PositionDistribution(t=steps, p=mean_p),
                mean_variance=float(variances.mean()),
                variance_of_variance=float(variances.var()),
                per_step_variance=per_step,
            )
        )
    return results
