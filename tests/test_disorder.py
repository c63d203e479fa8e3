"""Tests for schedule sampling, presets, and the seed-mixing contract."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk.core import CoinParams, InitialStateParams, build_initial_state, evolve_ordered
from coinwalk.disorder import (
    ORDERED,
    PER_STEP_RANDOM,
    CoinSchedule,
    DisorderSpec,
    ParameterRange,
    derive_stream_seed,
    evolve_disordered,
    preset_spec,
    sample_schedule,
)
from coinwalk.errors import CapacityError, InvalidParameterError

HALF_PI = math.pi / 2
QUARTER_PI = math.pi / 4

# Pinned outputs of the documented seed mixer (splitmix64 finalizer over
# master_seed + (index + 1) * golden gamma).  The (0, 0) entry equals the
# first output of the reference splitmix64 stream seeded with 0.
MIXER_PINS = {
    (0, 0): 16294208416658607535,
    (42, 0): 13679457532755275413,
    (42, 1): 2949826092126892291,
    (2**64 - 1, 3): 7862637804313477842,
    (-7, 0): 7790691224305936752,
}

def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# chi-square critical value at the 99.9th percentile for 19 degrees of
# freedom (20 bins), frozen from scipy.stats.chi2.ppf(0.999, 19)
CHI2_CRIT_20_BINS = 43.82019596451753


class TestParameterRange:
    def test_reversed_bounds_rejected(self):
        with pytest.raises(InvalidParameterError):
            ParameterRange(1.0, 0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidParameterError):
            ParameterRange(0.0, math.inf)

    def test_degenerate_detection(self):
        assert ParameterRange(0.3, 0.3).is_degenerate
        assert not ParameterRange(0.3, 0.4).is_degenerate


class TestDisorderSpec:
    def test_ordered_mode_requires_degenerate_ranges(self):
        zero = ParameterRange(0.0, 0.0)
        wide = ParameterRange(0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            DisorderSpec(zero, wide, zero, mode=ORDERED)

    def test_unknown_mode_rejected(self):
        zero = ParameterRange(0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            DisorderSpec(zero, zero, zero, mode="sometimes")


class TestPresets:
    def test_theta_high_ranges(self):
        spec = preset_spec("theta-high")
        assert (spec.theta_range.low, spec.theta_range.high) == (QUARTER_PI, HALF_PI)
        assert (spec.xi_range.low, spec.xi_range.high) == (0.0, HALF_PI)
        assert (spec.zeta_range.low, spec.zeta_range.high) == (0.0, HALF_PI)
        assert spec.mode == PER_STEP_RANDOM

    def test_theta_low_ranges(self):
        spec = preset_spec("theta-low")
        assert (spec.theta_range.low, spec.theta_range.high) == (0.0, QUARTER_PI)
        assert (spec.xi_range.low, spec.xi_range.high) == (0.0, HALF_PI)

    def test_hadamard_ordered_is_degenerate(self):
        spec = preset_spec("hadamard-ordered")
        assert spec.mode == ORDERED
        assert spec.theta_range.low == spec.theta_range.high == QUARTER_PI
        assert spec.xi_range.low == spec.xi_range.high == 0.0
        assert spec.zeta_range.low == spec.zeta_range.high == 0.0

    def test_full_range_spans_quarter_turn(self):
        spec = preset_spec("full-range")
        for rng in (spec.xi_range, spec.theta_range, spec.zeta_range):
            assert (rng.low, rng.high) == (0.0, HALF_PI)

    def test_unknown_preset_rejected(self):
        with pytest.raises(InvalidParameterError):
            preset_spec("theta-medium")


class TestSeedMixer:
    def test_pinned_values(self):
        for (seed, index), expected in MIXER_PINS.items():
            assert derive_stream_seed(seed, index) == expected

    def test_negative_realization_rejected(self):
        with pytest.raises(InvalidParameterError):
            derive_stream_seed(0, -1)

    def test_streams_distinct_across_indices(self):
        seeds = {derive_stream_seed(1234, r) for r in range(10_000)}
        assert len(seeds) == 10_000


class TestSampleSchedule:
    def test_zero_steps_gives_empty_schedule(self):
        schedule = sample_schedule(preset_spec("full-range"), 0, master_seed=1)
        assert len(schedule) == 0
        assert schedule.params.shape == (0, 3)

    def test_degenerate_ranges_give_identical_entries(self):
        zero = ParameterRange(0.0, 0.0)
        spec = DisorderSpec(zero, ParameterRange(QUARTER_PI, QUARTER_PI), zero, mode=ORDERED)
        schedule = sample_schedule(spec, 5, master_seed=7)
        assert len(schedule) == 5
        assert same_bits(schedule.params, np.tile([0.0, QUARTER_PI, 0.0], (5, 1)))

    def test_same_inputs_reproduce_bit_for_bit(self):
        spec = preset_spec("full-range")
        a = sample_schedule(spec, 64, master_seed=42, realization_index=0)
        b = sample_schedule(spec, 64, master_seed=42, realization_index=0)
        assert same_bits(a.params, b.params)
        assert (a.master_seed, a.realization_index) == (b.master_seed, b.realization_index)
        # the rows are the draws lows + u * widths of the documented stream
        u = np.random.default_rng(derive_stream_seed(42, 0)).random((64, 3))
        lows = np.array([0.0, 0.0, 0.0])
        widths = np.array([HALF_PI, HALF_PI, HALF_PI])
        assert same_bits(a.params, lows + u * widths)
        assert not a.params.flags.writeable

    def test_next_realization_differs(self):
        spec = preset_spec("full-range")
        a = sample_schedule(spec, 64, master_seed=42, realization_index=0)
        b = sample_schedule(spec, 64, master_seed=42, realization_index=1)
        assert np.all(a.params != b.params)

    def test_longer_schedule_extends_shorter(self):
        spec = preset_spec("theta-high")
        short = sample_schedule(spec, 50, master_seed=9)
        long = sample_schedule(spec, 100, master_seed=9)
        assert same_bits(long.params[:50], short.params)

    def test_negative_steps_rejected(self):
        with pytest.raises(InvalidParameterError):
            sample_schedule(preset_spec("full-range"), -1, master_seed=0)

    @pytest.mark.parametrize("steps", [3.9, True])
    def test_inexact_steps_rejected(self, steps):
        with pytest.raises(InvalidParameterError, match="steps must be an integer"):
            sample_schedule(preset_spec("full-range"), steps, master_seed=0)

    def test_numpy_integer_steps_accepted(self):
        spec = preset_spec("full-range")
        schedule = sample_schedule(spec, np.int64(4), master_seed=2)
        assert same_bits(schedule.params, sample_schedule(spec, 4, master_seed=2).params)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        index=st.integers(min_value=0, max_value=500),
        steps=st.integers(min_value=0, max_value=40),
    )
    def test_determinism_property(self, seed, index, steps):
        spec = preset_spec("theta-low")
        a = sample_schedule(spec, steps, seed, index)
        b = sample_schedule(spec, steps, seed, index)
        assert a.params.shape == (steps, 3)
        assert same_bits(a.params, b.params)

    def test_one_million_draws_stay_in_closed_ranges(self):
        spec = preset_spec("theta-high")
        schedule = sample_schedule(spec, 333_334, master_seed=13)  # > 1e6 parameters
        values = schedule.params
        assert values[:, 0].min() >= 0.0 and values[:, 0].max() <= HALF_PI
        assert values[:, 1].min() >= QUARTER_PI and values[:, 1].max() <= HALF_PI
        assert values[:, 2].min() >= 0.0 and values[:, 2].max() <= HALF_PI

    def test_uniformity_chi_square(self):
        # 1e5 theta draws from [0, pi/2] against 20 equiprobable bins
        spec = preset_spec("full-range")
        schedule = sample_schedule(spec, 100_000, master_seed=2024)
        thetas = schedule.params[:, 1]
        counts, _ = np.histogram(thetas, bins=20, range=(0.0, HALF_PI))
        expected = thetas.size / 20
        statistic = float(((counts - expected) ** 2 / expected).sum())
        assert statistic < CHI2_CRIT_20_BINS


class TestEvolveDisordered:
    def test_degenerate_schedule_equals_ordered_walk(self):
        params = np.array([[0.0, QUARTER_PI, 0.0]] * 2)
        schedule = CoinSchedule(params=params, master_seed=0, realization_index=0)
        initial = build_initial_state(InitialStateParams(), 2)
        disordered = evolve_disordered(initial, schedule)
        ordered = evolve_ordered(initial, CoinParams(0.0, QUARTER_PI, 0.0), 2)
        np.testing.assert_array_equal(disordered.amplitudes, ordered.amplitudes)

    def test_empty_schedule_is_identity(self):
        initial = build_initial_state(InitialStateParams(), 3)
        schedule = CoinSchedule(params=np.empty((0, 3)), master_seed=5, realization_index=0)
        state = evolve_disordered(initial, schedule)
        np.testing.assert_array_equal(state.amplitudes, initial.amplitudes)
        assert state.steps_taken == 0

    def test_two_step_bounce_lands_back_at_origin(self):
        # diagonal coin sends pure |0> to x=-1; the swap coin flips it to
        # |1> and shifts it back to the origin
        params = np.array([[0.0, 0.0, 0.0], [0.0, HALF_PI, 0.0]])
        schedule = CoinSchedule(params=params, master_seed=0, realization_index=0)
        initial = build_initial_state(InitialStateParams(delta=0.0, phi=0.0), 2)
        state = evolve_disordered(initial, schedule)
        p = (np.abs(state.amplitudes) ** 2).sum(axis=0)
        assert p[2] == pytest.approx(1.0, abs=1e-15)  # x = 0
        assert state.amplitudes[1, 2] == pytest.approx(1.0, abs=1e-15)

    def test_schedule_longer_than_lattice_rejected(self):
        schedule = sample_schedule(preset_spec("full-range"), 5, master_seed=1)
        with pytest.raises(CapacityError):
            evolve_disordered(build_initial_state(InitialStateParams(), 4), schedule)

    def test_norm_conserved_for_arbitrary_schedule(self):
        schedule = sample_schedule(preset_spec("theta-high"), 400, master_seed=31)
        state = evolve_disordered(build_initial_state(InitialStateParams(), 400), schedule)
        assert abs(state.norm() - 1.0) < 1e-10

    def test_same_seed_reproduces_amplitudes(self):
        spec = preset_spec("full-range")
        final = []
        for _ in range(2):
            schedule = sample_schedule(spec, 50, master_seed=77, realization_index=3)
            state = evolve_disordered(build_initial_state(InitialStateParams(), 50), schedule)
            final.append(state.amplitudes)
        np.testing.assert_array_equal(final[0], final[1])
