"""Tests for observables, baselines, and ensemble aggregation."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import analysis
from coinwalk.analysis import (
    PositionDistribution,
    classical_rw_distribution,
    distribution_from_state,
    localization_length,
    metrics_from_distribution,
    run_ensemble,
    run_ensembles,
    spreading_exponent,
    symmetry_deviation,
    variance,
)
from coinwalk.core import (
    CoinParams,
    InitialStateParams,
    build_initial_state,
    coin_matrices,
    evolve,
    evolve_ordered,
)
from coinwalk.disorder import evolve_disordered, ordered_spec, preset_spec, sample_schedule
from coinwalk.errors import InvalidParameterError, NormDriftError

HALF_PI = math.pi / 2
QUARTER_PI = math.pi / 4
SYM = InitialStateParams()
#: What ``finite_array`` asks of a float64 argument, as its messages say it.
REALS = "real integers or floats that fit float64"


def ordered_distribution(theta: float, steps: int) -> PositionDistribution:
    state = evolve_ordered(build_initial_state(SYM, steps), CoinParams(0.0, theta, 0.0), steps)
    return distribution_from_state(state)


def reference_ensemble(spec, steps, realizations, master_seed, track_per_step):
    """One realization at a time: sample, evolve, collapse, reduce, in index order."""
    mean_p = np.zeros(2 * steps + 1)
    variances = np.empty(realizations)
    per_step = np.zeros(steps + 1) if track_per_step else None
    for r in range(realizations):
        coins = coin_matrices(sample_schedule(spec, steps, master_seed, r))
        state = build_initial_state(SYM, steps)
        if track_per_step:
            for t, coin in enumerate(coins, start=1):
                state = evolve(state, coin[np.newaxis])
                per_step[t] += variance(distribution_from_state(state))
        else:
            state = evolve(state, coins)
        dist = distribution_from_state(state)
        mean_p += dist.p
        variances[r] = variance(dist)
    mean_p /= realizations
    if per_step is not None:
        per_step /= realizations
    return mean_p, float(variances.mean()), float(variances.var()), per_step


def assert_same_ensemble(stats, reference):
    mean_p, mean_variance, variance_of_variance, per_step = reference
    assert stats.mean_distribution.p.tobytes() == mean_p.tobytes()
    assert stats.mean_variance == mean_variance
    assert stats.variance_of_variance == variance_of_variance
    if per_step is None:
        assert stats.per_step_variance is None
    else:
        assert stats.per_step_variance.tobytes() == per_step.tobytes()


class TestDistributionFromState:
    def test_point_mass_before_any_step(self):
        dist = distribution_from_state(build_initial_state(SYM, 3))
        assert dist.t == 0
        assert dist.p[3] == pytest.approx(1.0, abs=1e-15)
        assert dist.p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_hadamard_two_steps(self):
        dist = ordered_distribution(QUARTER_PI, 2)
        np.testing.assert_allclose(dist.p, [0.25, 0.0, 0.5, 0.0, 0.25], atol=1e-15)

    @pytest.mark.parametrize("t", [1, 3, 5])
    def test_swap_coin_bounces_between_neighbours(self, t):
        # theta = pi/2 swaps the components every step, so odd times always
        # show half the mass at each neighbour of the origin
        dist = ordered_distribution(HALF_PI, t)
        half = (dist.p.size - 1) // 2
        assert dist.p[half - 1] == pytest.approx(0.5, abs=1e-12)
        assert dist.p[half + 1] == pytest.approx(0.5, abs=1e-12)

    def test_norm_drift_rejected(self):
        state = build_initial_state(SYM, 2)
        state.amplitudes *= 1.01
        with pytest.raises(NormDriftError):
            distribution_from_state(state)

    def test_nan_total_rejected(self):
        state = build_initial_state(SYM, 3)
        # WalkState rejects non-finite input, so the NaN is written in; the
        # state's fields are checked again, as evolve checks them, before a
        # total is taken
        state.amplitudes[0, 3] = np.nan
        with pytest.raises(InvalidParameterError, match="^amplitudes must be finite"):
            distribution_from_state(state)

    def test_distribution_validation(self):
        with pytest.raises(InvalidParameterError):
            PositionDistribution(t=1, p=np.array([0.5, 0.5]))  # even length
        with pytest.raises(InvalidParameterError):
            PositionDistribution(t=1, p=np.array([0.5, -0.1, 0.6]))

    @pytest.mark.parametrize(
        "bad", [2.0, -2.5, True, -1], ids=["float", "fraction", "bool", "negative"]
    )
    def test_inexact_or_negative_t_rejected(self, bad):
        with pytest.raises(InvalidParameterError, match="^t must be"):
            PositionDistribution(t=bad, p=np.array([0.0, 1.0, 0.0]))

    def test_numpy_integer_t_becomes_int(self):
        dist = PositionDistribution(t=np.int64(2), p=np.array([0.0, 1.0, 0.0]))
        assert dist.t == 2 and type(dist.t) is int

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_probability_rejected(self, bad):
        message = f"^probabilities must be finite, got {bad!r}$"
        with pytest.raises(InvalidParameterError, match=message):
            PositionDistribution(t=1, p=np.array([bad, 0.0, 0.0]))

    @pytest.mark.parametrize(
        "p", [np.array([0.0, 1.0 + 0.0j, 0.0]), [0.0, 1.0 + 1e-9j, 0.0]], ids=["array", "list"]
    )
    def test_complex_probabilities_rejected(self, p):
        with pytest.raises(InvalidParameterError, match="probabilities must be real"):
            PositionDistribution(t=1, p=p)

    @pytest.mark.parametrize(
        "p, got",
        [
            ([True], ""), (np.array([False, True, False]), ""), (["1"], ""),
            (np.array(["0", "1", "0"]), ""), ([None], ""),
            (np.array([0.0, 1.0, 0.0], dtype=np.longdouble), ""),
            ([0.0, True, 0.0], " that fit float64, got bool True$"),
            ([0.0, np.True_, 0.0], " that fit float64, got bool np.True_$"),
            ([[0.0], [1.0, 0.0]], " that fit float64, got ragged nesting$"),
        ],
        ids=["bool", "numpy-bool", "string", "numpy-string", "object", "longdouble",
             "mixed-bool", "mixed-numpy-bool", "ragged"],
    )
    def test_probabilities_that_are_not_integers_or_floats_rejected(self, p, got):
        message = "^probabilities must be real integers or floats" + got
        with pytest.raises(InvalidParameterError, match=message):
            PositionDistribution(t=0, p=p)


class TestVariance:
    def test_ordered_walk_matches_growth_law_at_t100(self):
        # asymptotic law (1 - sin(theta)) * t^2; measured deviation at
        # t = 100 is ~0.02%, asserted within the 5% contract
        dist = ordered_distribution(QUARTER_PI, 100)
        law = (1 - math.sin(QUARTER_PI)) * 100**2
        assert variance(dist) == pytest.approx(law, rel=0.05)

    def test_diagonal_coin_variance_is_exactly_t_squared(self):
        t = 37
        dist = ordered_distribution(0.0, t)
        assert variance(dist) == t**2

    def test_classical_baseline_variance_equals_t(self):
        assert variance(classical_rw_distribution(100)) == pytest.approx(100.0, rel=1e-12)

    def test_point_mass_has_zero_variance(self):
        dist = distribution_from_state(build_initial_state(SYM, 4))
        assert variance(dist) == 0.0


class TestClassicalBaseline:
    def test_zero_steps(self):
        dist = classical_rw_distribution(0)
        assert dist.p.tolist() == [1.0]

    def test_two_steps_exact(self):
        dist = classical_rw_distribution(2)
        assert dist.p.tolist() == [0.25, 0.0, 0.5, 0.0, 0.25]

    def test_negative_steps_rejected(self):
        with pytest.raises(InvalidParameterError):
            classical_rw_distribution(-1)

    @pytest.mark.parametrize("steps", [3.9, True])
    def test_inexact_steps_rejected(self, steps):
        with pytest.raises(InvalidParameterError, match="steps must be an integer"):
            classical_rw_distribution(steps)

    @settings(max_examples=30, deadline=None)
    @given(t=st.integers(min_value=0, max_value=80))
    def test_matches_exact_rational_binomial(self, t):
        dist = classical_rw_distribution(t)
        exact = [Fraction(math.comb(t, k), 2**t) for k in range(t + 1)]
        assert sum(exact) == 1
        mean = sum(q * (2 * k - t) for k, q in enumerate(exact))
        second = sum(q * (2 * k - t) ** 2 for k, q in enumerate(exact))
        assert second - mean**2 == t  # exact rational identity
        for k, q in enumerate(exact):
            assert dist.p[2 * k] == float(q)  # one correctly rounded division
        odd_sites = dist.p[1::2]
        assert np.all(odd_sites == 0.0)


class TestLocalizationLength:
    def test_equal_spreads_give_one(self):
        assert localization_length(4.2, 4.2) == 1.0

    def test_zero_numerator_gives_zero(self):
        assert localization_length(0.0, 3.0) == 0.0

    def test_zero_or_negative_denominator_rejected(self):
        with pytest.raises(InvalidParameterError):
            localization_length(1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            localization_length(1.0, -2.0)

    def test_negative_numerator_rejected(self):
        with pytest.raises(InvalidParameterError):
            localization_length(-1.0, 2.0)

    @pytest.mark.parametrize(
        "disordered, ordered, named",
        [
            (math.nan, 1.0, "disordered"),
            (math.inf, 1.0, "disordered"),
            (1.0, math.nan, "ordered"),
            (1.0, math.inf, "ordered"),
        ],
    )
    def test_non_finite_spread_rejected(self, disordered, ordered, named):
        with pytest.raises(InvalidParameterError, match=f"^{named} spread must be finite"):
            localization_length(disordered, ordered)

    def test_arrays_give_the_scalar_ratios_bit_for_bit(self):
        rng = np.random.default_rng(4)
        disordered = np.append(rng.uniform(0.0, 30.0, 200), 0.0)
        ordered = rng.uniform(1e-3, 300.0, 201)
        ratios = localization_length(disordered, ordered)
        scalars = [localization_length(float(d), float(o)) for d, o in zip(disordered, ordered)]
        assert ratios.tobytes() == np.array(scalars).tobytes()

    @pytest.mark.parametrize(
        "bad, rule", [(0.0, "> 0"), (math.nan, "finite")], ids=["zero", "nan"]
    )
    def test_bad_ordered_spread_in_an_array_rejected(self, bad, rule):
        ordered = np.array([1.0, 2.0, bad, 4.0])
        message = f"^ordered spread must be {rule}, got {bad!r}$"
        with pytest.raises(InvalidParameterError, match=message):
            localization_length(np.ones(4), ordered)

    def test_shapes_must_match(self):
        with pytest.raises(InvalidParameterError, match="one shape"):
            localization_length(np.ones(3), np.ones(4))

    @pytest.mark.parametrize(
        "bad, got",
        [
            (True, "dtype "), (np.True_, "dtype "), (1 + 0j, "dtype "), ("2.0", "dtype "),
            (None, "dtype "), (np.array([1.0 + 0j, 2.0]), "dtype "),
            (np.longdouble(2.0), "dtype "), (np.array([1.0, 2.0], dtype=np.longdouble), "dtype "),
            ([True, 2.0], "bool True$"), ([[1.0], [1.0, 2.0]], "ragged nesting$"),
        ],
        ids=["bool", "numpy-bool", "complex", "string", "none", "complex-array",
             "longdouble", "longdouble-array", "mixed-bool", "ragged"],
    )
    @pytest.mark.parametrize("named", ["disordered", "ordered"])
    def test_non_real_spread_rejected(self, bad, got, named):
        good = np.ones(np.shape(bad)) if isinstance(bad, np.ndarray) else 2.0
        args = (bad, good) if named == "disordered" else (good, bad)
        message = f"^{named} spread must be real integers or floats that fit float64, got {got}"
        with pytest.raises(InvalidParameterError, match=message):
            localization_length(*args)

    def test_integers_accepted(self):
        assert localization_length(1, np.int64(2)) == 0.5
        assert localization_length(np.arange(3), np.full(3, 4)).tolist() == [0.0, 0.25, 0.5]

    @given(
        sd=st.floats(min_value=1e-6, max_value=1e6),
        so=st.floats(min_value=1e-6, max_value=1e6),
        scale=st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_scale_free(self, sd, so, scale):
        base = localization_length(sd, so)
        scaled = localization_length(scale * sd, scale * so)
        assert scaled == pytest.approx(base, rel=1e-14)


class TestSpreadingExponent:
    @pytest.mark.parametrize("exponent", [0.5, 1.0, 2.0])
    def test_recovers_synthetic_power_law(self, exponent):
        series = [(t, 0.29 * t**exponent) for t in (25, 50, 100, 200, 400)]
        assert spreading_exponent(series) == pytest.approx(exponent, abs=1e-9)

    def test_plain_diffusive_series(self):
        series = [(t, float(t)) for t in (1, 2, 4, 8, 16)]
        assert spreading_exponent(series) == pytest.approx(1.0, abs=1e-9)

    def test_too_few_points_rejected(self):
        with pytest.raises(InvalidParameterError):
            spreading_exponent([(1, 1.0), (2, 2.0)])

    def test_small_t_rejected(self):
        with pytest.raises(InvalidParameterError):
            spreading_exponent([(0.5, 1.0), (2, 2.0), (4, 4.0)])

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(InvalidParameterError):
            spreading_exponent([(1, 1.0), (2, 0.0), (4, 4.0)])

    def test_one_distinct_t_rejected(self):
        # np.polyfit would warn about the rank and return a meaningless slope
        with pytest.raises(InvalidParameterError, match="2 distinct t"):
            spreading_exponent([(4, 1.0), (4, 2.0), (4, 3.0)])

    def test_two_distinct_t_accepted(self):
        assert spreading_exponent([(2, 2.0), (2, 2.0), (8, 8.0)]) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "series, message",
        [
            ([(1, 1.0), (math.nan, 2.0), (4, 4.0)], "^t must be finite, got nan$"),
            ([(1, 1.0), (math.inf, 2.0), (4, 4.0)], "^t must be finite, got inf$"),
            ([(1, 1.0), (2, math.inf), (4, 4.0)], "^variance must be finite, got inf$"),
            ([(1, 1.0), (2, math.nan), (4, 4.0)], "^variance must be finite, got nan$"),
            # beyond the float range: numpy holds such an int only as an object
            ([(1, 1.0), (10**400, 2.0), (4, 4.0)], "^t must be .* got dtype object$"),
            ([(1, 1.0), (2, 10**400), (4, 4.0)], "^variance must be .* got dtype object$"),
        ],
        ids=["nan-t", "inf-t", "inf-variance", "nan-variance", "huge-t", "huge-variance"],
    )
    def test_non_finite_point_rejected(self, series, message, capfd):
        with pytest.raises(InvalidParameterError, match=message):
            spreading_exponent(series)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize(
        "series, message",
        [
            ([(1,), (2,), (3,)], None),
            ([(1, 1.0), "24", (4, 4.0)], None),
            ([(1, 1.0), (2, 2.0, 9.0), (4, 4.0)], None),
            ([(True, 1.0), (2, 2.0), (4, 4.0)], f"^t must be {REALS}, got bool True$"),
            ([(1, 1.0), (2, False), (4, 4.0)], f"^variance must be {REALS}, got bool False$"),
            ([(1, 1.0), ("2", 2.0), (4, 4.0)], f"^t must be {REALS}, got dtype <U21$"),
            ([(1, 1.0), 2.0, (4, 4.0)], None),
            # every t a sequence: np.asarray would read them as one 2-D array
            ([([1], 1.0), ([2], 2.0), ([4], 4.0)], None),
            # a real that float64 cannot hold is not narrowed
            ([(1, 1.0), (np.longdouble(2), 2.0), (4, 4.0)], "^t must be real integers or floats"),
            ([(1, 1.0), (2, np.longdouble(2)), (4, 4.0)], "^variance must be real integers"),
        ],
        ids=["one-item", "string", "three-items", "bool-t", "bool-variance",
             "string-t", "number", "nested-t", "longdouble-t", "longdouble-variance"],
    )
    def test_point_that_is_not_a_pair_of_reals_rejected(self, series, message):
        message = message or r"must be a \(t, variance\) pair"
        with pytest.raises(InvalidParameterError, match=message):
            spreading_exponent(series)

    @pytest.mark.parametrize("series", [5, None], ids=["number", "none"])
    def test_series_that_is_not_a_sequence_rejected(self, series):
        with pytest.raises(InvalidParameterError, match="series must be a sequence"):
            spreading_exponent(series)


class TestSymmetryDeviation:
    def test_point_mass_is_symmetric(self):
        dist = distribution_from_state(build_initial_state(SYM, 2))
        assert symmetry_deviation(dist) == 0.0

    def test_ordered_hadamard_walk_is_symmetric(self):
        assert symmetry_deviation(ordered_distribution(QUARTER_PI, 100)) < 1e-10

    def test_phase_asymmetric_coin_detected(self):
        state = evolve_ordered(
            build_initial_state(SYM, 50), CoinParams(HALF_PI, QUARTER_PI, 0.0), 50
        )
        assert symmetry_deviation(distribution_from_state(state)) > 1e-3


class TestRunMetrics:
    def test_std_dev_squares_to_variance(self):
        m = metrics_from_distribution(ordered_distribution(QUARTER_PI, 60))
        assert m.std_dev**2 == pytest.approx(m.variance, rel=1e-9)


def narrowed_state():
    """A state of t_max 3 whose amplitudes were reassigned to a (2, 5) array."""
    state = build_initial_state(SYM, 3)
    state.amplitudes = np.zeros((2, 5), dtype=np.complex128)
    return state


class TestWrongArguments:
    """The readers of a state or a distribution reject what is not one, as ``evolve`` does."""

    @pytest.mark.parametrize(
        "function, argument, message",
        [
            (distribution_from_state, lambda: None, "state must be a WalkState, got None"),
            (distribution_from_state, lambda: np.ones((2, 3)), "state must be a WalkState"),
            (distribution_from_state, lambda: classical_rw_distribution(2),
             "state must be a WalkState"),
            # not a misleading NormDriftError for a total of 0
            (distribution_from_state, narrowed_state, r"amplitudes must have shape \(2, 7\)"),
            (variance, lambda: None, "dist must be a PositionDistribution, got None"),
            (variance, lambda: np.array([0.0, 1.0, 0.0]), "dist must be a PositionDistribution"),
            (metrics_from_distribution, lambda: None, "dist must be a PositionDistribution"),
            (metrics_from_distribution, lambda: np.array([0.0, 1.0, 0.0]),
             "dist must be a PositionDistribution"),
            (symmetry_deviation, lambda: None, "dist must be a PositionDistribution"),
            (symmetry_deviation, lambda: build_initial_state(SYM, 1),
             "dist must be a PositionDistribution"),
        ],
        ids=[
            "distribution-none", "distribution-ndarray", "distribution-of-a-distribution",
            "distribution-reassigned-amplitudes", "variance-none", "variance-ndarray",
            "metrics-none", "metrics-ndarray", "symmetry-none", "symmetry-state",
        ],
    )
    def test_rejected_with_invalid_parameter_error(self, function, argument, message):
        with pytest.raises(InvalidParameterError, match=f"^{message}"):
            function(argument())


class TestRunEnsemble:
    def test_single_realization_matches_direct_run(self):
        spec = preset_spec("theta-high")
        stats = run_ensemble(spec, SYM, 40, 1, master_seed=5)
        schedule = sample_schedule(spec, 40, master_seed=5, realization_index=0)
        state = evolve_disordered(build_initial_state(SYM, 40), schedule)
        direct = distribution_from_state(state)
        np.testing.assert_array_equal(stats.mean_distribution.p, direct.p)
        assert stats.mean_variance == variance(direct)
        assert stats.variance_of_variance == 0.0

    def test_deterministic_for_fixed_inputs(self):
        spec = preset_spec("full-range")
        a = run_ensemble(spec, SYM, 30, 8, master_seed=17, track_per_step=True)
        b = run_ensemble(spec, SYM, 30, 8, master_seed=17, track_per_step=True)
        np.testing.assert_array_equal(a.mean_distribution.p, b.mean_distribution.p)
        assert a.mean_variance == b.mean_variance
        np.testing.assert_array_equal(a.per_step_variance, b.per_step_variance)

    def test_mean_distribution_is_normalized(self):
        stats = run_ensemble(preset_spec("full-range"), SYM, 50, 20, master_seed=3)
        assert stats.mean_distribution.p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_per_step_tracking_ends_at_final_variance(self):
        stats = run_ensemble(
            preset_spec("theta-low"), SYM, 25, 6, master_seed=11, track_per_step=True
        )
        assert stats.per_step_variance.shape == (26,)
        assert stats.per_step_variance[0] == 0.0
        assert stats.per_step_variance[25] == pytest.approx(stats.mean_variance, rel=1e-12)

    def test_full_range_ensemble_is_near_classical_at_t100(self):
        # diffusive window: mean variance within [0.5 t, 3 t], pilot value ~123
        stats = run_ensemble(preset_spec("full-range"), SYM, 100, 200, master_seed=20260808)
        assert 50.0 <= stats.mean_variance <= 300.0

    def test_monotone_regime_ordering_at_t200(self):
        seed = 20260808
        results = {
            name: run_ensemble(preset_spec(name), SYM, 200, 100, master_seed=seed).mean_variance
            for name in ("theta-high", "full-range", "hadamard-ordered")
        }
        assert results["theta-high"] < results["full-range"] < results["hadamard-ordered"]

    def test_zero_realizations_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_ensemble(preset_spec("full-range"), SYM, 10, 0, master_seed=1)

    @pytest.mark.parametrize("track", [False, True], ids=["final", "per-step"])
    @pytest.mark.parametrize(
        "preset, realizations",
        [("theta-high", 1), ("theta-high", 2), ("theta-high", 37), ("hadamard-ordered", 7)],
        ids=["1", "2", "37", "ordered-7"],
    )
    def test_equals_the_per_realization_loop_bit_for_bit(self, preset, realizations, track):
        spec = preset_spec(preset)
        stats = run_ensemble(spec, SYM, 30, realizations, master_seed=8, track_per_step=track)
        assert stats.realizations == realizations
        assert_same_ensemble(stats, reference_ensemble(spec, 30, realizations, 8, track))

    @pytest.mark.parametrize("preset, walks", [("hadamard-ordered", 1), ("theta-high", 7)])
    def test_an_ordered_ensemble_evolves_one_walk(self, monkeypatch, preset, walks):
        sampled = []

        def counted(*args, _real=analysis.sample_schedule):
            sampled.append(args)
            return _real(*args)

        monkeypatch.setattr(analysis, "sample_schedule", counted)
        run_ensemble(preset_spec(preset), SYM, 30, 7, master_seed=8, track_per_step=True)
        assert len(sampled) == walks

    @pytest.mark.parametrize("track", [False, True], ids=["final", "per-step"])
    @pytest.mark.parametrize("chunk", [1, 7, 37, 50])
    def test_results_do_not_depend_on_chunk_size(self, monkeypatch, chunk, track):
        spec = preset_spec("full-range")
        steps, width = 24, 49
        # the budget holds exactly `chunk` realizations' complex (2, width) arrays
        monkeypatch.setattr(analysis, "_CHUNK_BYTES", chunk * 2 * width * 16)
        assert analysis._chunk_size(width) == chunk
        stats = run_ensemble(spec, SYM, steps, 37, master_seed=2, track_per_step=track)
        assert_same_ensemble(stats, reference_ensemble(spec, steps, 37, 2, track))

    def test_module_budget_runs_theta_high_in_chunks_of_40(self, monkeypatch):
        # 200 walks of 200 steps run as 5 chunks of 40; fig4's four tracked
        # walks of 400 steps reduce 10 states to a block, and a full chunk
        # of 20 such walks 2
        chunks = []

        def spied(amps, coins, steps_taken, _real=analysis._walk_steps):
            chunks.append(amps.shape[:-2])
            return _real(amps, coins, steps_taken)

        monkeypatch.setattr(analysis, "_walk_steps", spied)
        run_ensemble(preset_spec("theta-high"), SYM, 200, 200, master_seed=0)
        assert chunks == [(40,)] * 5
        assert analysis._block_steps(4, 400) == 10
        assert analysis._chunk_size(801) == 20 and analysis._block_steps(20, 400) == 2

    @pytest.mark.parametrize(
        "steps, realizations",
        [(10.7, 3), (True, 3), (10, 2.5), (10, True), (10, 3.0)],
        ids=["fractional-steps", "boolean-steps", "fractional-realizations",
             "boolean-realizations", "float-realizations"],
    )
    def test_inexact_integers_rejected(self, steps, realizations):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            run_ensemble(preset_spec("full-range"), SYM, steps, realizations, master_seed=1)

    @pytest.mark.parametrize(
        "steps, realizations, error",
        [(-1, 3, "steps must be >= 0"), (10, 0, "realizations must be >= 1")],
        ids=["negative-steps", "no-realizations"],
    )
    def test_out_of_range_counts_rejected(self, steps, realizations, error):
        with pytest.raises(InvalidParameterError, match=error):
            run_ensemble(preset_spec("full-range"), SYM, steps, realizations, master_seed=1)

    def test_norm_drift_rejected(self, monkeypatch):
        monkeypatch.setattr(analysis, "NORM_DRIFT_LIMIT", -1.0)
        with pytest.raises(NormDriftError):
            run_ensemble(preset_spec("full-range"), SYM, 5, 3, master_seed=1)

    def test_numpy_integers_accepted(self):
        spec = preset_spec("theta-low")
        stats = run_ensemble(spec, SYM, np.int64(12), np.int64(3), master_seed=4,
                             track_per_step=True)
        assert_same_ensemble(stats, reference_ensemble(spec, 12, 3, 4, True))


class TestRunEnsembles:
    #: hadamard-ordered R = 3, theta-high R = 3, full-range R = 1, and
    #: theta-high R = 3 listed a second time
    PAIRS = [("hadamard-ordered", 3), ("theta-high", 3), ("full-range", 1), ("theta-high", 3)]

    #: (preset, steps, realizations): lengths 0, 7, 8, 30 and 31; theta-high
    #: at two lengths, hadamard-ordered at two lengths with different R, and
    #: one triple given twice
    MIXED = [
        ("theta-high", 7, 3), ("hadamard-ordered", 30, 2), ("theta-high", 30, 5),
        ("full-range", 0, 2), ("hadamard-ordered", 7, 4), ("theta-low", 31, 2),
        ("theta-high", 7, 3), ("full-range", 8, 1),
    ]

    @staticmethod
    def triples(steps: int) -> list:
        return [(preset_spec(name), steps, count) for name, count in TestRunEnsembles.PAIRS]

    @pytest.mark.parametrize("track", [False, True], ids=["final", "per-step"])
    @pytest.mark.parametrize("chunk", [None, 1, 2, 4], ids=["module", "1", "2", "4"])
    def test_equals_one_run_ensemble_per_pair_bit_for_bit(self, monkeypatch, chunk, track):
        steps, width = 30, 61
        if chunk is not None:
            # the 8 walks split inside the theta-high triples and across triples
            monkeypatch.setattr(analysis, "_CHUNK_BYTES", chunk * 2 * width * 16)
            assert analysis._chunk_size(width) == chunk
        triples = self.triples(steps)
        batched = run_ensembles(triples, SYM, 6, track_per_step=track)
        assert len(batched) == len(triples)
        for stats, (spec, _, realizations) in zip(batched, triples):
            alone = run_ensemble(spec, SYM, steps, realizations, 6, track_per_step=track)
            assert stats.realizations == realizations
            assert stats.mean_distribution.p.tobytes() == alone.mean_distribution.p.tobytes()
            assert stats.mean_variance == alone.mean_variance
            assert stats.variance_of_variance == alone.variance_of_variance
            if track:
                assert stats.per_step_variance.tobytes() == alone.per_step_variance.tobytes()
            else:
                assert stats.per_step_variance is None

    @pytest.mark.parametrize("chunk", [None, 1, 2, 4], ids=["module", "1", "2", "4"])
    def test_mixed_lengths_equal_one_run_ensemble_per_triple_bit_for_bit(self, monkeypatch, chunk):
        width = 63
        if chunk is not None:
            # the batch's lattice is that of its longest triple, 31 steps
            monkeypatch.setattr(analysis, "_CHUNK_BYTES", chunk * 2 * width * 16)
            assert analysis._chunk_size(width) == chunk
        triples = [(preset_spec(name), steps, count) for name, steps, count in self.MIXED]
        batched = run_ensembles(triples, SYM, 6)
        assert len(batched) == len(triples)
        for stats, (spec, steps, realizations) in zip(batched, triples):
            alone = run_ensemble(spec, SYM, steps, realizations, 6)
            assert stats.realizations == realizations
            assert stats.mean_distribution.t == steps
            assert stats.mean_distribution.p.tobytes() == alone.mean_distribution.p.tobytes()
            assert stats.mean_variance == alone.mean_variance
            assert stats.variance_of_variance == alone.variance_of_variance
            assert stats.per_step_variance is None

    def test_each_walk_runs_once(self, monkeypatch):
        sampled = []

        def counted(spec, steps, master_seed, r, _real=analysis.sample_schedule):
            sampled.append((spec, steps, r))
            return _real(spec, steps, master_seed, r)

        monkeypatch.setattr(analysis, "sample_schedule", counted)
        run_ensembles([(preset_spec(name), steps, count) for name, steps, count in self.MIXED],
                      SYM, 6)
        theta_high, ordered, full, low = map(
            preset_spec, ("theta-high", "hadamard-ordered", "full-range", "theta-low")
        )
        # 5 theta-high walks, one ordered walk, 2 full-range and 2 theta-low
        # walks, each stepped to the longest length it serves, in chunks of
        # consecutive walks with one such length
        assert sampled == [
            (theta_high, 30, 0), (theta_high, 30, 1), (theta_high, 30, 2), (ordered, 30, 0),
            (theta_high, 30, 3), (theta_high, 30, 4), (full, 8, 0), (full, 0, 1),
            (low, 31, 0), (low, 31, 1),
        ]

    def test_each_pair_equals_the_per_realization_loop(self):
        triples = self.triples(24)
        for stats, (spec, _, realizations) in zip(run_ensembles(triples, SYM, 9, True), triples):
            assert_same_ensemble(stats, reference_ensemble(spec, 24, realizations, 9, True))

    @pytest.mark.parametrize(
        "realizations", [True, 2.0, 0, -1], ids=["bool", "float", "zero", "negative"]
    )
    def test_bad_realizations_rejected_before_any_walk(self, monkeypatch, realizations):
        sampled = []
        monkeypatch.setattr(analysis, "sample_schedule", lambda *args: sampled.append(args))
        # the bad triple comes last, after a good one
        triples = [(preset_spec("theta-high"), 10, 2),
                   (preset_spec("full-range"), 10, realizations)]
        with pytest.raises(InvalidParameterError):
            run_ensembles(triples, SYM, 1)
        assert sampled == []

    @pytest.mark.parametrize(
        "steps, error",
        [(True, "must be an integer"), (2.0, "must be an integer"), (-1, "steps must be >= 0")],
        ids=["bool", "float", "negative"],
    )
    def test_bad_steps_rejected_before_any_walk(self, monkeypatch, steps, error):
        sampled = []
        monkeypatch.setattr(analysis, "sample_schedule", lambda *args: sampled.append(args))
        # the bad triple comes last, after a good one
        triples = [(preset_spec("theta-high"), 10, 2), (preset_spec("full-range"), steps, 3)]
        with pytest.raises(InvalidParameterError, match=error):
            run_ensembles(triples, SYM, 1)
        assert sampled == []

    def test_tracking_over_two_lengths_rejected_before_any_walk(self, monkeypatch):
        sampled = []
        monkeypatch.setattr(analysis, "sample_schedule", lambda *args: sampled.append(args))
        triples = [(preset_spec("theta-high"), 10, 2), (preset_spec("theta-high"), 20, 2)]
        message = r"^per-step tracking needs one length, got \[10, 20\]$"
        with pytest.raises(InvalidParameterError, match=message):
            run_ensembles(triples, SYM, 1, track_per_step=True)
        assert sampled == []

    @pytest.mark.parametrize("spec", ["theta-high", None], ids=["name", "none"])
    def test_spec_that_is_not_a_disorder_spec_rejected(self, monkeypatch, spec):
        sampled = []
        monkeypatch.setattr(analysis, "sample_schedule", lambda *args: sampled.append(args))
        triples = [(preset_spec("theta-high"), 10, 2), (spec, 10, 3)]
        message = f"^spec must be a DisorderSpec, got {spec!r}$"
        with pytest.raises(InvalidParameterError, match=message):
            run_ensembles(triples, SYM, 1)
        assert sampled == []

    def test_initial_that_is_not_initial_state_params_rejected(self, monkeypatch):
        sampled = []
        monkeypatch.setattr(analysis, "sample_schedule", lambda *args: sampled.append(args))
        message = "^initial must be an InitialStateParams, got None$"
        with pytest.raises(InvalidParameterError, match=message):
            run_ensemble(preset_spec("theta-high"), None, 10, 2, 1)
        assert sampled == []

    @pytest.mark.parametrize(
        "triple",
        [("theta-high",), ("theta-high", 2), ("theta-high", 10, 2, 3), 5],
        ids=["1-tuple", "2-tuple", "4-tuple", "int"],
    )
    def test_ensemble_that_is_not_a_triple_rejected(self, monkeypatch, triple):
        sampled = []
        monkeypatch.setattr(analysis, "sample_schedule", lambda *args: sampled.append(args))
        triples = [(preset_spec("theta-high"), 10, 2), triple]
        message = "must be a \\(spec, steps, realizations\\) triple"
        with pytest.raises(InvalidParameterError, match=message):
            run_ensembles(triples, SYM, 1)
        assert sampled == []

    @pytest.mark.parametrize("track", ["no", 1, None], ids=["string", "int", "none"])
    def test_track_per_step_that_is_not_a_bool_rejected(self, monkeypatch, track):
        sampled = []
        monkeypatch.setattr(analysis, "sample_schedule", lambda *args: sampled.append(args))
        message = f"^track_per_step must be a bool, got {track!r}$"
        with pytest.raises(InvalidParameterError, match=message):
            run_ensembles([(preset_spec("theta-high"), 10, 2)], SYM, 1, track)
        assert sampled == []

    def test_no_ensembles_rejected(self, monkeypatch):
        sampled = []
        monkeypatch.setattr(analysis, "sample_schedule", lambda *args: sampled.append(args))
        with pytest.raises(InvalidParameterError, match="at least one ensemble"):
            run_ensembles([], SYM, 1)
        assert sampled == []

    @pytest.mark.parametrize("ensembles", [None, 5], ids=["none", "number"])
    def test_ensembles_that_are_not_a_sequence_rejected(self, ensembles):
        with pytest.raises(InvalidParameterError, match="ensembles must be a sequence"):
            run_ensembles(ensembles, SYM, 1)


def traced_peak(run) -> int:
    """Peak bytes traced by ``tracemalloc`` during ``run()``, after one warm-up call."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTrackingBlocks:
    """Per-step tracking reduces a block of states at a time, with the same bits.

    The block holds ``analysis._block_steps`` states, t = 0 .. steps, so a
    block ends after t = block - 1, 2 * block - 1, ...; a budget of
    ``block * walks * 2 * (steps + 1) * 16`` bytes forces that block for a
    chunk of all ``walks`` walks.
    """

    BLOCK = 4

    def force_block(self, monkeypatch, walks: int, steps: int) -> None:
        monkeypatch.setattr(analysis, "_CHUNK_BYTES", self.BLOCK * walks * 2 * (steps + 1) * 16)
        assert analysis._chunk_size(2 * steps + 1) >= walks
        assert analysis._block_steps(walks, steps) == self.BLOCK

    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 5, 13],
                             ids=["1", "2", "block-1", "block", "block+1", "partial"])
    def test_block_boundaries(self, monkeypatch, steps):
        spec = preset_spec("theta-high")
        self.force_block(monkeypatch, 3, steps)
        stats = run_ensemble(spec, SYM, steps, 3, master_seed=12, track_per_step=True)
        assert_same_ensemble(stats, reference_ensemble(spec, steps, 3, 12, True))

    def test_ordered_pair(self, monkeypatch):
        spec = preset_spec("hadamard-ordered")
        self.force_block(monkeypatch, 1, 13)
        stats = run_ensemble(spec, SYM, 13, 5, master_seed=12, track_per_step=True)
        assert_same_ensemble(stats, reference_ensemble(spec, 13, 5, 12, True))

    def test_chunks_that_split_pairs(self, monkeypatch):
        steps, width = 24, 49
        # chunks of 3 of the 8 walks, [H T T] [T F T] [T T], and blocks of 2:
        # a budget that holds 3 walks' (2, width) arrays holds 2 states'
        # cones of 3 walks, one (2, steps + 1) array each
        monkeypatch.setattr(analysis, "_CHUNK_BYTES", 3 * 2 * width * 16)
        assert analysis._chunk_size(width) == 3
        assert analysis._block_steps(3, steps) == 2
        triples = TestRunEnsembles.triples(steps)
        for stats, (spec, _, realizations) in zip(run_ensembles(triples, SYM, 9, True), triples):
            assert_same_ensemble(stats, reference_ensemble(spec, steps, realizations, 9, True))

    @pytest.mark.parametrize("scale, block", [(1, 10), (4, 40)], ids=["module", "4x"])
    def test_tracking_buffers_fit_the_budget(self, monkeypatch, scale, block):
        # fig4's batch: one theta-high walk and three ordered references to t = 400
        budget = scale * analysis._CHUNK_BYTES
        monkeypatch.setattr(analysis, "_CHUNK_BYTES", budget)
        steps = 400
        cone_bytes = 4 * 2 * (steps + 1) * 16
        # the largest even block whose light cones fit the budget
        assert analysis._block_steps(4, steps) == block
        assert block * cone_bytes <= budget < (block + 2) * cone_bytes
        triples = [(preset_spec("theta-high"), steps, 1)]
        triples += [
            (ordered_spec(theta), steps, 1) for theta in (math.pi / 6, math.pi / 4, math.pi / 3)
        ]
        untracked = traced_peak(lambda: run_ensembles(triples, SYM, 1))
        tracked = traced_peak(lambda: run_ensembles(triples, SYM, 1, True))
        # the block's distributions take at most half as much again, and the
        # per-step variances one row per walk and per triple
        assert tracked - untracked <= budget * 3 // 2 + 8 * 8 * (steps + 1)
