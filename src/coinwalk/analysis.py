"""Observables and statistics over walk states.

Position distributions and their spread, the exact binomial baseline of the
classical unbiased walk, the spread ratio used to quantify localization,
power-law exponents of variance growth, and deterministic ensemble
averaging over disorder realizations.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from coinwalk.core import (
    InitialStateParams,
    WalkState,
    build_initial_state,
    checked_state,
    coin_matrices,
    _walk_steps,
    exact_count,
    finite_array,
    instance_of,
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
    distribution was taken.  ``p`` must pass ``core.finite_array`` as
    float64: complex probabilities are rejected, not cut to their real
    parts, bools and strings are not read as numbers, and longdouble is not
    narrowed.
    """

    t: int
    p: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", exact_count("t", self.t))
        p = finite_array("probabilities", self.p, np.float64)
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
    InvalidParameterError
        If ``state`` is not a :class:`WalkState`, or one of its fields fails
        the checks of a new ``WalkState`` (a state's fields may have been
        reassigned since it was made).
    NormDriftError
        If total probability deviates from 1 by more than ``NORM_DRIFT_LIMIT``
        or is not finite.
    """
    a = checked_state(state).amplitudes
    p = (a.real * a.real + a.imag * a.imag).sum(axis=0)
    _check_total(p)
    return PositionDistribution(t=state.steps_taken, p=p)


def variance(dist: PositionDistribution) -> float:
    """Central second moment of the distribution, in lattice sites squared.

    Clipped at zero to absorb rounding when all mass sits on one site.

    Raises
    ------
    InvalidParameterError
        If ``dist`` is not a :class:`PositionDistribution`.
    """
    x = instance_of("dist", dist, PositionDistribution).positions.astype(np.float64)
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


def localization_length(
    sigma_disordered: float | np.ndarray, sigma_ordered: float | np.ndarray
) -> float | np.ndarray:
    """Ratio of the disordered walk's spread to the ordered walk's spread.

    Both arguments are standard deviations in lattice sites, as two real
    numbers or two real arrays of one shape; arrays give the elementwise
    ratios.  Values well below 1 mean the disordered walk stays confined
    relative to the ordered reference.

    Raises
    ------
    InvalidParameterError
        If a spread does not pass ``core.finite_array`` as float64 (it is
        not a finite integer or float number or array: bools, complex
        numbers and longdouble are rejected), the shapes differ, any
        ordered spread is not positive or any disordered one is negative;
        the message names the first such value.
    """
    ordered = finite_array("ordered spread", sigma_ordered, np.float64)
    disordered = finite_array("disordered spread", sigma_disordered, np.float64)
    if disordered.shape != ordered.shape:
        raise InvalidParameterError(
            f"spreads must have one shape, got {disordered.shape} and {ordered.shape}"
        )
    for name, spread, above, bound in (
        ("ordered", ordered, np.greater, "> 0"),
        ("disordered", disordered, np.greater_equal, ">= 0"),
    ):
        bad = ~above(spread, 0)
        if bad.any():
            raise InvalidParameterError(
                f"{name} spread must be {bound}, got {spread[bad].flat[0].item()!r}"
            )
    ratio = disordered / ordered
    return float(ratio) if ratio.ndim == 0 else ratio


def spreading_exponent(series: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(variance) against log(t).

    2 is ballistic spreading, 1 diffusive, and values near 0 indicate a
    saturating, localized walk.

    Parameters
    ----------
    series : sequence of (t, variance)
        A list, tuple or array of at least 3 tuples, lists or arrays of two
        real (not bool) numbers, with t >= 1 and variance > 0, at no fewer
        than 2 distinct t.  The t and the variances must each pass
        ``core.finite_array`` as float64.

    Raises
    ------
    InvalidParameterError
        If ``series`` or one of its points is not such a sequence.
    """
    if not isinstance(series, (Sequence, np.ndarray)):
        raise InvalidParameterError(f"series must be a sequence of points, got {series!r}")
    if len(series) < 3:
        raise InvalidParameterError(f"need at least 3 points, got {len(series)}")
    for point in series:
        if not (isinstance(point, (tuple, list, np.ndarray)) and len(point) == 2
                and all(map(np.isscalar, point))):
            raise InvalidParameterError(f"a point must be a (t, variance) pair, got {point!r}")
    t, v = zip(*series)
    t, v = finite_array("t", t, np.float64), finite_array("variance", v, np.float64)
    if np.unique(t).size < 2:
        raise InvalidParameterError("need at least 2 distinct t")
    if np.any(t < 1):
        raise InvalidParameterError("every t must be >= 1")
    if np.any(v <= 0):
        raise InvalidParameterError("every variance must be > 0")
    slope, _ = np.polyfit(np.log(t), np.log(v), 1)
    return float(slope)


def symmetry_deviation(dist: PositionDistribution) -> float:
    """Largest deviation from mirror symmetry, max over x of |p(x) - p(-x)|.

    Raises
    ------
    InvalidParameterError
        If ``dist`` is not a :class:`PositionDistribution`.
    """
    p = instance_of("dist", dist, PositionDistribution).p
    return float(np.max(np.abs(p - p[::-1])))


def metrics_from_distribution(dist: PositionDistribution) -> RunMetrics:
    """Bundle the standard summary statistics of one distribution.

    Raises
    ------
    InvalidParameterError
        If ``dist`` is not a :class:`PositionDistribution`.
    """
    x = instance_of("dist", dist, PositionDistribution).positions.astype(np.float64)
    mean, var = map(float, _moments(dist.p, x, x * x))
    return RunMetrics(
        variance=var,
        std_dev=math.sqrt(var),
        mean=mean,
        symmetry_deviation=symmetry_deviation(dist),
    )


def _chunk_size(width: int) -> int:
    """Realizations per chunk: ``_CHUNK_BYTES`` over two (2, width) complex arrays each.

    For a walk from one site the kernel's two half-lattice buffers take
    about one such array per realization, the chunk's coins about one more
    and the final reduction half of one; the start state is one array
    broadcast to the whole chunk.
    """
    return max(1, _CHUNK_BYTES // (2 * 2 * width * np.dtype(np.complex128).itemsize))


def _block_steps(walks: int, steps: int) -> int:
    """States per block of per-step tracking: an even count, at least 2.

    The largest even count whose light cones, one (2, steps + 1) complex
    array per walk and state, fit in ``_CHUNK_BYTES``; the block's
    distributions over the whole lattice take half as much again.
    """
    cone_bytes = walks * 2 * (steps + 1) * np.dtype(np.complex128).itemsize
    return max(2, _CHUNK_BYTES // cone_bytes // 2 * 2)


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
    same walk in every realization, so that walk is evolved and reduced
    once, and its distribution is added to the mean once per realization.
    With ``track_per_step`` the
    ensemble-mean variance is recorded after every step: each state's light
    cone is copied from the kernel's half-lattice buffers, and a block of
    states at a time is squared and reduced, one ``np.vecdot`` per moment
    for all of the block's walks and steps.  This is :func:`run_ensembles`
    with one ensemble.

    Raises
    ------
    InvalidParameterError
        If ``spec`` is not a :class:`DisorderSpec`, ``initial`` not an
        :class:`InitialStateParams`, ``steps`` or ``realizations`` not an
        integer, ``realizations`` < 1, ``steps`` < 0 or ``track_per_step``
        not a bool.
    NormDriftError
        If a realization's total probability deviates from 1 by more than
        ``NORM_DRIFT_LIMIT``.
    """
    return run_ensembles([(spec, steps, realizations)], initial, master_seed, track_per_step)[0]


def run_ensembles(
    ensembles,
    initial: InitialStateParams,
    master_seed: int,
    track_per_step: bool = False,
) -> list[EnsembleStats]:
    """Run several ensembles, of one length or of several, as one batch of walks.

    ``ensembles`` is a sequence of ``(spec, steps, realizations)`` triples,
    and the result holds one :class:`EnsembleStats` per triple, in order,
    each equal bit for bit to what :func:`run_ensemble` gives for that
    triple.  A walk is realization r of a spec, told apart by value: it runs
    once, and each triple reads its state after its own steps, over its own
    lattice |x| <= steps.  So a triple given twice runs its walks once, and
    an ordered spec evolves one walk that stands for all of each triple's
    realizations.  The walks are evolved together in chunks of
    ``_CHUNK_BYTES``; a chunk may hold walks of several triples but only
    consecutive walks with one end, the longest length each serves, so no
    walk steps past it.  Each triple's statistics still accumulate one
    realization at a time in index order.  Per-step tracking
    (``track_per_step``) needs every triple to have one length.

    Raises
    ------
    InvalidParameterError
        If ``ensembles`` is not a sequence, is empty or holds an item that
        is not a ``(spec, steps, realizations)`` triple, a ``spec`` is not a
        :class:`DisorderSpec`, ``initial`` is not an
        :class:`InitialStateParams`, a ``steps`` or ``realizations`` is not
        an integer, a ``realizations`` < 1, a ``steps`` < 0,
        ``track_per_step`` is not a bool, or it is true and the triples
        have more than one length; all are checked before any walk runs.
    NormDriftError
        If a realization's total probability deviates from 1 by more than
        ``NORM_DRIFT_LIMIT``.
    """
    instance_of("initial", initial, InitialStateParams)
    if not isinstance(track_per_step, (bool, np.bool_)):
        raise InvalidParameterError(f"track_per_step must be a bool, got {track_per_step!r}")
    if not isinstance(ensembles, Sequence):
        raise InvalidParameterError(f"ensembles must be a sequence, got {ensembles!r}")
    triples = []
    for triple in ensembles:
        if not isinstance(triple, Sequence) or len(triple) != 3:
            raise InvalidParameterError(
                f"an ensemble must be a (spec, steps, realizations) triple, got {triple!r}"
            )
        spec, steps, realizations = triple
        steps = exact_count("steps", steps)
        realizations = exact_count("realizations", realizations, 1)
        instance_of("spec", spec, DisorderSpec)
        triples.append((spec, steps, realizations))
    if not triples:
        raise InvalidParameterError("need at least one ensemble")
    lengths = {steps for _, steps, _ in triples}
    if track_per_step and len(lengths) > 1:
        raise InvalidParameterError(f"per-step tracking needs one length, got {sorted(lengths)}")
    # serves[(spec, r)][length] lists the (triple, realizations it stands
    # for) that read walk r of spec after `length` steps.  The walks of a
    # spec come in index order, so every triple meets its own in that order.
    serves: dict = {}
    for e, (spec, length, realizations) in enumerate(triples):
        copies = realizations if spec.mode == ORDERED else 1
        for r in range(0, realizations, copies):
            serves.setdefault((spec, r), {}).setdefault(length, []).append((e, copies))
    steps = max(lengths)
    width = 2 * steps + 1
    positions = np.arange(-steps, steps + 1, dtype=np.float64)
    positions_squared = positions * positions
    mean_ps = [np.zeros(2 * length + 1, dtype=np.float64) for _, length, _ in triples]
    final_variances = [np.empty(realizations, dtype=np.float64) for *_, realizations in triples]
    per_steps = [np.zeros(steps + 1, dtype=np.float64) if track_per_step else None for _ in triples]

    chunk = min(_chunk_size(width), len(serves))
    start = build_initial_state(initial, t_max=steps).amplitudes
    # The states reduced, after every step t = 0 .. steps when tracking and
    # after each length a walk of the chunk serves otherwise, pass through
    # blocks of `block` states.  Row i of a block holds state t's occupied
    # half lattice over the block's widest cone |x| <= u of t's parity;
    # outside t's own cone those amplitudes are exact zeros and square to
    # the +0 its distribution has there.  A tracking block starts at a
    # multiple of its even length, so row i of `p_block` always holds one
    # parity, and the other parity keeps the zeros of the chunk's first fill.
    block = _block_steps(chunk, steps) if track_per_step else 1
    cone_buf = np.zeros(block * chunk * 2 * (steps + 1), dtype=np.complex128)
    p_block = np.empty((block, chunk, width), dtype=np.float64)
    step_variances = np.zeros((chunk, steps + 1), dtype=np.float64)

    def reduce(cones: np.ndarray, t: int) -> np.ndarray:
        """Distributions of the states in ``cones``, the last after t steps."""
        m, n = cones.shape[:2]
        parts = cones.view(np.float64)
        np.multiply(parts, parts, out=parts)
        # re*re + im*im per coin row, then the two rows, for the rows of the
        # last state's parity and for those of the other one
        sums = np.add(parts[..., 0::2], parts[..., 1::2], out=parts[..., 0::2])
        for first, u in (((m - 1) % 2, t), (m % 2, t - 1)):
            rows = sums[first::2, :, :, : u + 1]
            cone = slice(steps - u, steps + u + 1, 2)
            np.add(rows[:, :, 0], rows[:, :, 1], out=p_block[first:m:2, :n, cone])
        return p_block[:m, :n]

    # a chunk holds consecutive walks with one end, the longest length each
    # serves; the walks keep their order, in which each triple meets its own
    for end, group in itertools.groupby(serves.items(), key=lambda walk: max(walk[1])):
        while batch := list(itertools.islice(group, chunk)):
            n = len(batch)
            params = np.stack(
                [sample_schedule(spec, end, master_seed, r) for (spec, r), _ in batch], axis=1
            )
            coins = coin_matrices(params.reshape(-1, 3)).reshape(end, n, 2, 2)
            observed = {length for _, served in batch for length in served}
            held = 0
            for t, half in _walk_steps(np.broadcast_to(start, (n, 2, width)), coins, 0):
                if not (track_per_step or t in observed):
                    continue
                if not held:
                    # a chunk's first block follows the previous chunk's wider
                    # cones, and a lone state may follow one of the other parity
                    if t == 0 or not track_per_step:
                        p_block.fill(0.0)
                    last = min(t + block - 1, steps)
                    cones = cone_buf[: (last - t + 1) * n * 2 * (last + 1)]
                    cones = cones.reshape(last - t + 1, n, 2, last + 1)
                # the block's widest cone of this parity starts at lattice
                # column steps - u, half-lattice index (steps - u) // 2
                u = last - (last - t) % 2
                j = (steps - u) // 2
                np.copyto(cones[held, :, :, : u + 1], half[..., j : j + u + 1])
                held += 1
                if t == last:
                    # a lone state after t steps is read over the lattice |x| <= t;
                    # only tracking reads step_variances
                    crop = slice(None) if track_per_step else slice(steps - t, steps + t + 1)
                    p = reduce(cones, last)[..., crop]
                    variances = _moments(p, positions[crop], positions_squared[crop])[1]
                    step_variances[:n, last - held + 1 : last + 1] = variances.T
                    held = 0
                    for j, ((_, r), served) in enumerate(batch):
                        for e, c in served.get(t, ()):
                            _check_total(p[-1, j])
                            final_variances[e][r : r + c] = variances[-1, j]
                            for _ in range(c):
                                mean_ps[e] += p[-1, j]
                                if track_per_step:
                                    per_steps[e] += step_variances[j]

    results = []
    for (_, length, realizations), mean_p, variances, per_step in zip(
        triples, mean_ps, final_variances, per_steps
    ):
        mean_p /= realizations
        if per_step is not None:
            per_step /= realizations
        results.append(
            EnsembleStats(
                realizations=realizations,
                mean_distribution=PositionDistribution(t=length, p=mean_p),
                mean_variance=float(variances.mean()),
                variance_of_variance=float(variances.var()),
                per_step_variance=per_step,
            )
        )
    return results
