"""Tests for observables, baselines, and ensemble aggregation."""

import math
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
from coinwalk.disorder import evolve_disordered, preset_spec, sample_schedule
from coinwalk.errors import InvalidParameterError, NormDriftError

HALF_PI = math.pi / 2
QUARTER_PI = math.pi / 4
SYM = InitialStateParams()


def ordered_distribution(theta: float, steps: int) -> PositionDistribution:
    state = evolve_ordered(build_initial_state(SYM, steps), CoinParams(0.0, theta, 0.0), steps)
    return distribution_from_state(state)


def reference_ensemble(spec, steps, realizations, master_seed, track_per_step):
    """One realization at a time: sample, evolve, collapse, reduce, in index order."""
    mean_p = np.zeros(2 * steps + 1)
    variances = np.empty(realizations)
    per_step = np.zeros(steps + 1) if track_per_step else None
    for r in range(realizations):
        coins = coin_matrices(sample_schedule(spec, steps, master_seed, r).params)
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

    def test_distribution_validation(self):
        with pytest.raises(InvalidParameterError):
            PositionDistribution(t=1, p=np.array([0.5, 0.5]))  # even length
        with pytest.raises(InvalidParameterError):
            PositionDistribution(t=1, p=np.array([0.5, -0.1, 0.6]))


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
        assert m.loc_length_ratio is None

    def test_ratio_is_carried_through(self):
        m = metrics_from_distribution(ordered_distribution(QUARTER_PI, 10), loc_length_ratio=0.2)
        assert m.loc_length_ratio == 0.2


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
    @pytest.mark.parametrize("realizations", [1, 2, 37])
    def test_equals_the_per_realization_loop_bit_for_bit(self, realizations, track):
        spec = preset_spec("theta-high")
        stats = run_ensemble(spec, SYM, 30, realizations, master_seed=8, track_per_step=track)
        assert stats.realizations == realizations
        assert_same_ensemble(stats, reference_ensemble(spec, 30, realizations, 8, track))

    @pytest.mark.parametrize("track", [False, True], ids=["final", "per-step"])
    @pytest.mark.parametrize("chunk", [1, 7, 37, 50])
    def test_results_do_not_depend_on_chunk_size(self, monkeypatch, chunk, track):
        spec = preset_spec("full-range")
        steps, width = 24, 49
        # the budget holds exactly `chunk` realizations' two complex (2, width) buffers
        monkeypatch.setattr(analysis, "_CHUNK_BYTES", chunk * 2 * 2 * width * 16)
        assert analysis._chunk_size(width) == chunk
        stats = run_ensemble(spec, SYM, steps, 37, master_seed=2, track_per_step=track)
        assert_same_ensemble(stats, reference_ensemble(spec, steps, 37, 2, track))

    @pytest.mark.parametrize(
        "steps, realizations",
        [(10.7, 3), (True, 3), (10, 2.5), (10, True), (10, 3.0)],
        ids=["fractional-steps", "boolean-steps", "fractional-realizations",
             "boolean-realizations", "float-realizations"],
    )
    def test_inexact_integers_rejected(self, steps, realizations):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
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
