"""Tests for schedule sampling, presets, and the seed-mixing contract."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk.core import CoinParams, InitialStateParams, build_initial_state, evolve_ordered
from coinwalk.disorder import (
    ORDERED,
    PER_STEP_RANDOM,
    DisorderSpec,
    ParameterRange,
    derive_stream_seed,
    evolve_disordered,
    ordered_spec,
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

    def test_width_beyond_the_float_range_rejected(self):
        # both bounds are finite, but high - low overflows to inf, which would
        # make every angle of a schedule inf
        with pytest.raises(InvalidParameterError, match="finite width"):
            ParameterRange(-1e308, 1e308)
        assert ParameterRange(0.0, 1e308).width == 1e308

    @pytest.mark.parametrize(
        "bad", [True, False, np.True_, "x", "1.5", None, math.inf], ids=repr
    )
    def test_bools_and_non_numbers_rejected(self, bad):
        for bounds, name in (((bad, 2.0), "low"), ((0.0, bad), "high")):
            with pytest.raises(InvalidParameterError, match=f"^range {name} must be a finite"):
                ParameterRange(*bounds)

    def test_degenerate_detection(self):
        assert ParameterRange(0.3, 0.3).is_degenerate
        assert not ParameterRange(0.3, 0.4).is_degenerate


class TestDisorderSpec:
    def test_degenerate_ranges_are_ordered(self):
        zero = ParameterRange(0.0, 0.0)
        assert DisorderSpec(zero, zero, zero).mode == ORDERED
        assert DisorderSpec(zero, ParameterRange(0.3, 0.3), zero).mode == ORDERED

    def test_any_wide_range_is_per_step_random(self):
        zero = ParameterRange(0.0, 0.0)
        wide = ParameterRange(0.0, 1.0)
        for ranges in ((wide, zero, zero), (zero, wide, zero), (zero, zero, wide)):
            assert DisorderSpec(*ranges).mode == PER_STEP_RANDOM

    def test_mode_is_not_settable(self):
        zero = ParameterRange(0.0, 0.0)
        with pytest.raises(TypeError):
            DisorderSpec(zero, zero, zero, mode=ORDERED)

    @pytest.mark.parametrize("field", ["xi_range", "theta_range", "zeta_range"])
    @pytest.mark.parametrize("bad", [1, (0.0, 1.0), None], ids=["number", "tuple", "none"])
    def test_field_that_is_not_a_range_rejected(self, field, bad):
        zero = ParameterRange(0.0, 0.0)
        ranges = {"xi_range": zero, "theta_range": zero, "zeta_range": zero, field: bad}
        message = re.escape(f"{field} must be a ParameterRange, got {bad!r}")
        with pytest.raises(InvalidParameterError, match=f"^{message}$"):
            DisorderSpec(**ranges)


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

    def test_hadamard_ordered_is_the_ordered_spec_at_quarter_pi(self):
        assert preset_spec("hadamard-ordered") == ordered_spec(math.pi / 4)

    def test_full_range_spans_quarter_turn(self):
        spec = preset_spec("full-range")
        for rng in (spec.xi_range, spec.theta_range, spec.zeta_range):
            assert (rng.low, rng.high) == (0.0, HALF_PI)

    def test_unknown_preset_rejected(self):
        with pytest.raises(InvalidParameterError):
            preset_spec("theta-medium")


class TestOrderedSpec:
    @pytest.mark.parametrize("theta", [0.0, math.pi / 6, QUARTER_PI, math.pi / 3, HALF_PI, 2.5])
    def test_pins_theta_and_zero_phases(self, theta):
        spec = ordered_spec(theta)
        assert spec.mode == ORDERED
        assert spec.theta_range.low == spec.theta_range.high == theta
        assert spec.xi_range.low == spec.xi_range.high == 0.0
        assert spec.zeta_range.low == spec.zeta_range.high == 0.0

    @pytest.mark.parametrize("theta", [math.nan, math.inf, True, "0.5"])
    def test_non_finite_or_non_numeric_theta_rejected(self, theta):
        with pytest.raises(InvalidParameterError):
            ordered_spec(theta)


class TestSeedMixer:
    def test_pinned_values(self):
        for (seed, index), expected in MIXER_PINS.items():
            assert derive_stream_seed(seed, index) == expected

    def test_negative_realization_rejected(self):
        with pytest.raises(InvalidParameterError):
            derive_stream_seed(0, -1)

    @pytest.mark.parametrize(
        "seed, index, named",
        [
            (2.0, 0, "master_seed"),
            (True, 0, "master_seed"),
            (0, 1.0, "realization_index"),
            (0, True, "realization_index"),
        ],
        ids=["float-seed", "boolean-seed", "float-index", "boolean-index"],
    )
    def test_inexact_seed_or_index_rejected(self, seed, index, named):
        with pytest.raises(InvalidParameterError, match=f"{named} must be an integer"):
            derive_stream_seed(seed, index)

    def test_numpy_integers_mix_like_python_integers(self):
        assert derive_stream_seed(np.uint64(42), np.int64(1)) == MIXER_PINS[(42, 1)]

    def test_streams_distinct_across_indices(self):
        seeds = {derive_stream_seed(1234, r) for r in range(10_000)}
        assert len(seeds) == 10_000


class TestSampleSchedule:
    def test_zero_steps_gives_empty_schedule(self):
        schedule = sample_schedule(preset_spec("full-range"), 0, master_seed=1)
        assert schedule.shape == (0, 3)

    def test_degenerate_ranges_give_identical_entries(self):
        zero = ParameterRange(0.0, 0.0)
        spec = DisorderSpec(zero, ParameterRange(QUARTER_PI, QUARTER_PI), zero)
        schedule = sample_schedule(spec, 5, master_seed=7)
        assert same_bits(schedule, np.tile([0.0, QUARTER_PI, 0.0], (5, 1)))

    def test_same_inputs_reproduce_bit_for_bit(self):
        spec = preset_spec("full-range")
        a = sample_schedule(spec, 64, master_seed=42, realization_index=0)
        b = sample_schedule(spec, 64, master_seed=42, realization_index=0)
        assert same_bits(a, b)
        # the rows are the draws lows + u * widths of the documented stream
        u = np.random.default_rng(derive_stream_seed(42, 0)).random((64, 3))
        lows = np.array([0.0, 0.0, 0.0])
        widths = np.array([HALF_PI, HALF_PI, HALF_PI])
        assert same_bits(a, lows + u * widths)
        assert not a.flags.writeable

    def test_next_realization_differs(self):
        spec = preset_spec("full-range")
        a = sample_schedule(spec, 64, master_seed=42, realization_index=0)
        b = sample_schedule(spec, 64, master_seed=42, realization_index=1)
        assert np.all(a != b)

    def test_longer_schedule_extends_shorter(self):
        spec = preset_spec("theta-high")
        short = sample_schedule(spec, 50, master_seed=9)
        long = sample_schedule(spec, 100, master_seed=9)
        assert same_bits(long[:50], short)

    def test_negative_steps_rejected(self):
        with pytest.raises(InvalidParameterError):
            sample_schedule(preset_spec("full-range"), -1, master_seed=0)

    @pytest.mark.parametrize("spec", ["theta-high", None], ids=["preset-name", "none"])
    def test_spec_that_is_not_a_disorder_spec_rejected(self, spec):
        message = re.escape(f"spec must be a DisorderSpec, got {spec!r}")
        with pytest.raises(InvalidParameterError, match=f"^{message}$"):
            sample_schedule(spec, 3, 0)

    @pytest.mark.parametrize("steps", [3.9, True])
    def test_inexact_steps_rejected(self, steps):
        with pytest.raises(InvalidParameterError, match="steps must be an integer"):
            sample_schedule(preset_spec("full-range"), steps, master_seed=0)

    @pytest.mark.parametrize(
        "seed, index", [(2.9, 0), (True, 0), (2, 1.5), (2, True)],
        ids=["float-seed", "boolean-seed", "float-index", "boolean-index"],
    )
    def test_inexact_seed_or_index_rejected(self, seed, index):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            sample_schedule(preset_spec("full-range"), 5, seed, index)

    def test_numpy_integer_steps_accepted(self):
        spec = preset_spec("full-range")
        schedule = sample_schedule(spec, np.int64(4), master_seed=2)
        assert same_bits(schedule, sample_schedule(spec, 4, master_seed=2))

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
        assert a.shape == (steps, 3)
        assert same_bits(a, b)

    def test_one_million_draws_stay_in_closed_ranges(self):
        spec = preset_spec("theta-high")
        values = sample_schedule(spec, 333_334, master_seed=13)  # > 1e6 parameters
        assert values[:, 0].min() >= 0.0 and values[:, 0].max() <= HALF_PI
        assert values[:, 1].min() >= QUARTER_PI and values[:, 1].max() <= HALF_PI
        assert values[:, 2].min() >= 0.0 and values[:, 2].max() <= HALF_PI

    def test_uniformity_chi_square(self):
        # 1e5 theta draws from [0, pi/2] against 20 equiprobable bins
        spec = preset_spec("full-range")
        schedule = sample_schedule(spec, 100_000, master_seed=2024)
        thetas = schedule[:, 1]
        counts, _ = np.histogram(thetas, bins=20, range=(0.0, HALF_PI))
        expected = thetas.size / 20
        statistic = float(((counts - expected) ** 2 / expected).sum())
        assert statistic < CHI2_CRIT_20_BINS


class TestEvolveDisordered:
    def test_degenerate_schedule_equals_ordered_walk(self):
        schedule = np.array([[0.0, QUARTER_PI, 0.0]] * 2)
        initial = build_initial_state(InitialStateParams(), 2)
        disordered = evolve_disordered(initial, schedule)
        ordered = evolve_ordered(initial, CoinParams(0.0, QUARTER_PI, 0.0), 2)
        np.testing.assert_array_equal(disordered.amplitudes, ordered.amplitudes)

    def test_empty_schedule_is_identity(self):
        initial = build_initial_state(InitialStateParams(), 3)
        state = evolve_disordered(initial, np.empty((0, 3)))
        np.testing.assert_array_equal(state.amplitudes, initial.amplitudes)
        assert state.steps_taken == 0

    def test_two_step_bounce_lands_back_at_origin(self):
        # diagonal coin sends pure |0> to x=-1; the swap coin flips it to
        # |1> and shifts it back to the origin
        schedule = np.array([[0.0, 0.0, 0.0], [0.0, HALF_PI, 0.0]])
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
