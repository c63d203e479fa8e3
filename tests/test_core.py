"""Unit and property tests for the walk engine."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import core
from coinwalk.analysis import distribution_from_state, variance
from coinwalk.core import (
    CoinParams,
    InitialStateParams,
    WalkState,
    build_initial_state,
    check_state,
    coin_matrices,
    evolve,
    evolve_ordered,
    exact_int,
)
from coinwalk.disorder import PRESET_NAMES, preset_spec, sample_schedule, evolve_disordered
from coinwalk.errors import CapacityError, InvalidParameterError

from oracle_dense import dense_coin, dense_evolve, dense_shift
from oracle_static import static_walk
from walk_states import walk_states

HALF_PI = math.pi / 2
QUARTER_PI = math.pi / 4

finite_angles = st.floats(allow_nan=False, allow_infinity=False, width=64)

#: Values an angle must reject instead of converting with float().
NOT_ANGLES = [True, False, np.True_, "x", "1.5", None, math.inf]


def symmetric_state(t_max: int) -> WalkState:
    """The (|0> + i|1>)/sqrt(2) initial state used throughout."""
    return build_initial_state(InitialStateParams(), t_max)


def reference_step(amplitudes: np.ndarray, coin: np.ndarray) -> np.ndarray:
    """One step written out as a fresh product and a shift into a zeroed array.

    The product runs over the lattice zero-padded to whole blocks of 4
    columns and is cropped back to the lattice width, so no column gets
    zgemm's rounding for a last partial block.
    """
    width = amplitudes.shape[-1]
    padded = np.zeros((2, -(-width // 4) * 4), dtype=np.complex128)
    padded[:, :width] = amplitudes
    mixed = (coin @ padded)[:, :width]
    out = np.zeros_like(mixed)
    out[0, :-1] = mixed[0, 1:]
    out[1, 1:] = mixed[1, :-1]
    return out


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# parameter types


class TestExactInt:
    @pytest.mark.parametrize("value", [0, 7, 2**70, np.int64(7), np.uint8(7), np.array(7)])
    def test_integers_accepted(self, value):
        out = exact_int("n", value)
        assert type(out) is int and out == int(value)

    @pytest.mark.parametrize(
        "value", [True, False, np.True_, 2.0, 2.9, np.float64(3.0), "3", None, np.array([3])]
    )
    def test_bools_floats_and_others_rejected(self, value):
        with pytest.raises(InvalidParameterError, match="n must be an integer"):
            exact_int("n", value)


class TestParams:
    def test_coin_params_reject_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidParameterError):
                CoinParams(bad, 0.0, 0.0)
            with pytest.raises(InvalidParameterError):
                CoinParams(0.0, bad, 0.0)
            with pytest.raises(InvalidParameterError):
                CoinParams(0.0, 0.0, bad)

    def test_coin_params_accept_any_finite_value(self):
        p = CoinParams(-12.5, 7.0, 123.456)
        assert (p.xi, p.theta, p.zeta) == (-12.5, 7.0, 123.456)

    def test_initial_params_defaults_are_half_pi(self):
        p = InitialStateParams()
        assert p.delta == pytest.approx(HALF_PI)
        assert p.phi == pytest.approx(HALF_PI)

    def test_initial_params_reject_non_finite(self):
        with pytest.raises(InvalidParameterError):
            InitialStateParams(delta=math.inf)

    @pytest.mark.parametrize("bad", NOT_ANGLES, ids=repr)
    def test_coin_params_reject_bools_and_non_numbers(self, bad):
        for angles in ((bad, 0.0, 0.0), (0.0, bad, 0.0), (0.0, 0.0, bad)):
            with pytest.raises(InvalidParameterError, match="must be a finite real number"):
                CoinParams(*angles)

    @pytest.mark.parametrize("bad", NOT_ANGLES, ids=repr)
    def test_initial_params_reject_bools_and_non_numbers(self, bad):
        for name in ("delta", "phi"):
            with pytest.raises(InvalidParameterError, match=f"^{name} must be a finite real"):
                InitialStateParams(**{name: bad})

    def test_integer_beyond_the_float_range_rejected(self):
        with pytest.raises(InvalidParameterError, match="^xi must be a finite real number"):
            CoinParams(10**400, 0.0, 0.0)
        with pytest.raises(InvalidParameterError, match="^phi must be a finite real number"):
            InitialStateParams(phi=-(10**400))

    def test_numpy_angles_become_floats(self):
        p = CoinParams(np.float64(0.5), np.float32(0.25), np.int64(2))
        assert (p.xi, p.theta, p.zeta) == (0.5, 0.25, 2.0)
        assert all(type(v) is float for v in (p.xi, p.theta, p.zeta))


class TestWalkState:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            WalkState(t_max=2, amplitudes=np.zeros((2, 3)))

    def test_steps_taken_bounds(self):
        amps = np.zeros((2, 5), dtype=np.complex128)
        with pytest.raises(InvalidParameterError):
            WalkState(t_max=2, amplitudes=amps, steps_taken=3)
        with pytest.raises(InvalidParameterError):
            WalkState(t_max=2, amplitudes=amps, steps_taken=-1)

    def test_negative_t_max_rejected(self):
        with pytest.raises(InvalidParameterError):
            WalkState(t_max=-1, amplitudes=np.zeros((2, 1)))

    @pytest.mark.parametrize(
        "value, error",
        [(2.5, "must be an integer"), (True, "must be an integer"), (-1, "must be >= 0")],
        ids=["float", "bool", "negative"],
    )
    def test_inexact_or_negative_t_max_rejected(self, value, error):
        with pytest.raises(InvalidParameterError, match=f"t_max {error}"):
            WalkState(value, np.zeros((2, 6), dtype=np.complex128))

    @pytest.mark.parametrize(
        "value, error",
        [(1.0, "must be an integer"), (True, "must be an integer"), (-1, "must be >= 0")],
        ids=["float", "bool", "negative"],
    )
    def test_inexact_or_negative_steps_taken_rejected(self, value, error):
        with pytest.raises(InvalidParameterError, match=f"steps_taken {error}"):
            WalkState(2, np.zeros((2, 5), dtype=np.complex128), steps_taken=value)

    def test_numpy_integer_counts_become_ints(self):
        state = WalkState(np.int64(2), np.zeros((2, 5)), steps_taken=np.uint8(1))
        assert type(state.t_max) is int and type(state.steps_taken) is int

    def test_positions_span_lattice(self):
        state = symmetric_state(3)
        assert state.positions.tolist() == [-3, -2, -1, 0, 1, 2, 3]

    def test_copy_is_independent(self):
        state = symmetric_state(2)
        clone = state.copy()
        clone.amplitudes[0, 0] = 1.0
        assert state.amplitudes[0, 0] == 0.0


# ---------------------------------------------------------------------------
# coin matrix


class TestCoinMatrix:
    def test_hadamard_coin(self):
        m = coin_matrices([(0.0, QUARTER_PI, 0.0)])[0]
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        np.testing.assert_allclose(m, expected, atol=1e-15)

    def test_theta_zero_is_diagonal(self):
        m = coin_matrices([(0.0, 0.0, 0.0)])[0]
        np.testing.assert_array_equal(m, np.array([[1, 0], [0, -1]], dtype=complex))

    def test_theta_half_pi_is_swap(self):
        m = coin_matrices([(0.0, HALF_PI, 0.0)])[0]
        np.testing.assert_allclose(m, np.array([[0, 1], [1, 0]]), atol=1e-15)

    @given(xi=finite_angles, theta=finite_angles, zeta=finite_angles)
    def test_unitary_for_any_finite_angles(self, xi, theta, zeta):
        m = coin_matrices([(xi, theta, zeta)])[0]
        np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-12)

    def test_coin_matrices_equal_the_scalar_formula_bit_for_bit(self):
        # negative angles, angles beyond 2*pi and tiny values
        fixed = [
            (0.0, 0.0, 0.0), (0.0, QUARTER_PI, 0.0),
            (-HALF_PI, -math.pi, -2.5), (7.0, 2 * math.pi + 0.1, 13.0),
            (-40.0, 39.5, -1e-300), (5e-324, 1.0, 100.0),
        ]
        rng = np.random.default_rng(3)
        params = np.vstack([fixed, rng.uniform(-50.0, 50.0, (5000, 3))])
        coins = coin_matrices(params)
        assert coins.shape == (len(params), 2, 2) and coins.dtype == np.complex128
        scalar = np.array([dense_coin(*row) for row in params])
        assert same_bits(coins, scalar)
        # row k of a batch equals the one-row call
        for row, coin in zip(params[:50], coins):
            assert same_bits(coin_matrices([row])[0], coin)
        # from -0.0 angles only the sign of a zero entry may differ
        assert np.array_equal(coin_matrices([(-0.0, -0.0, -0.0)])[0], dense_coin(-0.0, -0.0, -0.0))

    def test_coin_matrices_reject_bad_input(self):
        for bad in (np.zeros(3), np.zeros((4, 2)), np.zeros((2, 3, 1))):
            with pytest.raises(InvalidParameterError):
                coin_matrices(bad)
        for value in (math.nan, math.inf):
            message = f"^coin angles must be finite, got {value}$"
            with pytest.raises(InvalidParameterError, match=message):
                coin_matrices([[0.0, value, 0.0]])

    @pytest.mark.parametrize(
        "bad",
        [
            [[True, False, True]],
            np.ones((2, 3), dtype=bool),
            [["0", "0.785", "0"]],
            [[0.0, 0.5 + 0.1j, 0.0]],
            np.zeros((2, 3), dtype=np.complex128),
            [[0.0, 0.5, None]],
            np.zeros((2, 3), dtype=np.longdouble),
            [[True, 0.0, 0.5]],
            [[0.0, 0.1, 0.2], [0.3, 0.4]],
        ],
        ids=["bool", "numpy-bool", "string", "complex", "complex-array", "object", "longdouble",
             "mixed-bool", "ragged"],
    )
    def test_angles_that_are_not_integers_or_floats_rejected(self, bad):
        message = "^coin angles must be real integers or floats that fit float64, got "
        with pytest.raises(InvalidParameterError, match=message):
            coin_matrices(bad)

    def test_empty_schedule_gives_no_coins(self):
        assert coin_matrices(np.empty((0, 3))).shape == (0, 2, 2)


# ---------------------------------------------------------------------------
# initial state


class TestInitialState:
    def test_symmetric_state_amplitudes(self):
        state = symmetric_state(4)
        root_half = 1 / math.sqrt(2)
        assert state.amplitudes[0, 4] == pytest.approx(root_half, abs=1e-15)
        assert state.amplitudes[1, 4] == pytest.approx(1j * root_half, abs=1e-15)
        assert state.steps_taken == 0
        assert abs(state.norm() - 1.0) < 1e-12

    def test_pure_zero_component(self):
        state = build_initial_state(InitialStateParams(delta=0.0, phi=2.7), 1)
        assert state.amplitudes[0, 1] == 1.0
        assert state.amplitudes[1, 1] == 0.0

    def test_pure_one_component(self):
        state = build_initial_state(InitialStateParams(delta=math.pi, phi=0.0), 1)
        assert abs(state.amplitudes[0, 1]) < 1e-15
        assert state.amplitudes[1, 1] == pytest.approx(1.0, abs=1e-15)

    def test_mass_only_at_origin(self):
        state = symmetric_state(5)
        off_origin = np.delete(state.amplitudes, 5, axis=1)
        assert np.all(off_origin == 0)

    def test_negative_t_max_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_initial_state(InitialStateParams(), -1)

    @pytest.mark.parametrize("t_max", [3.9, 3.0, True])
    def test_inexact_t_max_rejected(self, t_max):
        with pytest.raises(InvalidParameterError, match="t_max must be an integer"):
            build_initial_state(InitialStateParams(), t_max)

    @pytest.mark.parametrize("params", [None], ids=["none"])
    def test_params_that_are_not_initial_state_params_rejected(self, params):
        with pytest.raises(InvalidParameterError, match="params must be an InitialStateParams"):
            build_initial_state(params, 2)

    def test_numpy_integer_t_max_accepted(self):
        state = build_initial_state(InitialStateParams(), np.int64(3))
        assert type(state.t_max) is int
        assert same_bits(state.amplitudes, symmetric_state(3).amplitudes)


# ---------------------------------------------------------------------------
# single steps


class TestStep:
    def test_one_hadamard_step_splits_evenly(self):
        state = evolve(symmetric_state(2), coin_matrices([(0.0, QUARTER_PI, 0.0)]))
        p = np.abs(state.amplitudes) ** 2
        totals = p.sum(axis=0)
        # columns are x = -2..2; half the mass lands on each neighbour of 0
        assert totals[1] == pytest.approx(0.5, abs=1e-15)
        assert totals[3] == pytest.approx(0.5, abs=1e-15)
        assert totals[0] == totals[2] == totals[4] == 0.0

    def test_diagonal_coin_moves_pure_zero_left(self):
        initial = build_initial_state(InitialStateParams(delta=0.0, phi=0.0), 2)
        state = evolve(initial, coin_matrices([(0.0, 0.0, 0.0)]))
        assert state.amplitudes[0, 1] == 1.0  # x = -1, coin |0>
        assert np.count_nonzero(state.amplitudes) == 1

    def test_two_swap_steps_return_to_origin(self):
        initial = symmetric_state(2)
        swap = coin_matrices([(0.0, HALF_PI, 0.0)])
        state = evolve(evolve(initial, swap), swap)
        np.testing.assert_allclose(state.amplitudes, initial.amplitudes, atol=1e-15)
        assert state.steps_taken == 2

    def test_step_beyond_capacity_raises(self):
        state = symmetric_state(1)
        coin = coin_matrices([(0.0, QUARTER_PI, 0.0)])
        state = evolve(state, coin)
        with pytest.raises(CapacityError):
            evolve(state, coin)

    def test_non_2x2_coin_rejected(self):
        with pytest.raises(InvalidParameterError):
            evolve(symmetric_state(1), np.eye(3)[np.newaxis])

    def test_input_state_is_not_mutated(self):
        initial = symmetric_state(2)
        before = initial.amplitudes.copy()
        evolve(initial, coin_matrices([(0.3, 0.9, 1.1)]))
        np.testing.assert_array_equal(initial.amplitudes, before)


# ---------------------------------------------------------------------------
# evolution kernel


#: A field of a 3-site state reassigned to a value a new ``WalkState``
#: rejects, and the start of the message it must raise with.
REASSIGNED_FIELDS = {
    "narrower-amplitudes": (
        "amplitudes", np.zeros((2, 5), dtype=np.complex128), "amplitudes must have shape"
    ),
    "steps-beyond-t_max": ("steps_taken", 4, "steps_taken must lie in"),
    "float-steps": ("steps_taken", 1.5, "steps_taken must be an integer"),
    "negative-t_max": ("t_max", -1, "t_max must be >= 0"),
    "bool-amplitudes": ("amplitudes", np.zeros((2, 7), dtype=bool), "amplitudes must be integers"),
    "string-amplitudes": ("amplitudes", np.full((2, 7), "0"), "amplitudes must be integers"),
    "object-amplitudes": (
        "amplitudes", np.zeros((2, 7), dtype=object), "amplitudes must be integers"
    ),
    "clongdouble-amplitudes": (
        "amplitudes", np.zeros((2, 7), dtype=np.clongdouble), "amplitudes must be integers"
    ),
    "nan-amplitudes": (
        "amplitudes", np.full((2, 7), complex(0, np.nan)), "amplitudes must be finite"
    ),
    "mixed-bool-amplitudes": (
        "amplitudes", [[0, 0, 0, True, 0, 0, 0], [0] * 7], "amplitudes must be .*, got bool True$"
    ),
    "ragged-amplitudes": (
        "amplitudes", [[0] * 7, [0] * 6], "amplitudes must be .*, got ragged nesting$"
    ),
}


class TestEvolve:
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_a_loop_of_single_steps_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        t_max = int(rng.integers(1, 40))
        taken = int(rng.integers(0, t_max))
        steps = int(rng.integers(0, t_max - taken + 1))
        # amplitude on every column of a band, the two outer ones included,
        # padded so that every step stays on the lattice
        amps = rng.normal(size=(2, 2 * t_max + 1)) + 1j * rng.normal(size=(2, 2 * t_max + 1))
        assert np.all(amps[:, [0, -1]] != 0)
        amps = padded(amps, steps)
        t_max = amps.shape[-1] // 2
        coins = coin_matrices(rng.uniform(-10.0, 10.0, (steps, 3)))
        expected = amps
        for coin in coins:
            expected = reference_step(expected, coin)
        state = evolve(WalkState(t_max, amps, taken), coins)
        assert np.array_equal(state.amplitudes, expected)
        assert (state.t_max, state.steps_taken) == (t_max, taken + steps)

    def test_one_coin_at_a_time_sees_every_intermediate_state(self):
        schedule = sample_schedule(preset_spec("theta-high"), 12, master_seed=4)
        coins = coin_matrices(schedule)
        expected = symmetric_state(20).amplitudes
        for coin in coins[:5]:
            expected = reference_step(expected, coin)
        state = evolve(symmetric_state(20), coins[:5])
        for t in range(6, 13):
            state = evolve(state, coins[t - 1 : t])
            expected = reference_step(expected, coins[t - 1])
            assert state.steps_taken == t
            assert np.array_equal(state.amplitudes, expected)

    @pytest.mark.parametrize("start", ["origin", "random"])
    # widths 601 and 603, and 1201 and 1203 with a random start's padding:
    # 1 and 3 mod 4
    @pytest.mark.parametrize("t_max", [300, 301])
    def test_one_coin_at_a_time_gives_the_continuous_walks_states(self, t_max, start):
        # near-swap coins leave subnormal tails behind a walk from the
        # origin, and 300 steps pass the flushes at steps 128 and 256
        rng = np.random.default_rng(t_max)
        if start == "origin":
            amps = symmetric_state(t_max).amplitudes
        else:
            amps = padded(random_amplitudes(rng, (2, 2 * t_max + 1)), 300)
        thetas = rng.uniform(1.55, 1.5707, 300)
        coins = coin_matrices(np.stack([rng.uniform(0, HALF_PI, 300), thetas,
                                        rng.uniform(0, HALF_PI, 300)], axis=-1))
        state = WalkState(amps.shape[-1] // 2, amps)
        subnormals = 0
        for t, expected in walk_states(amps, coins):
            state = evolve(state, coins[t - 1 : t])
            assert state.steps_taken == t
            assert same_values(state.amplitudes, expected), t
            subnormals += subnormal_parts(expected)
        assert state.steps_taken == 300
        assert subnormals > 0 or start == "random"

    def test_amplitude_a_step_would_move_past_an_edge_raises(self, monkeypatch):
        # from column 1 one Hadamard step reaches column 0 and keeps the norm;
        # from column 0 it would leave the lattice, so no step runs
        hadamard = coin_matrices([(0.0, QUARTER_PI, 0.0)])
        amps = np.zeros((2, 7), dtype=np.complex128)
        amps[:, 1] = 1 / math.sqrt(2)
        assert evolve(WalkState(3, amps), hadamard).norm() == pytest.approx(1.0, abs=1e-15)
        amps = np.roll(amps, -1, axis=1)
        before = amps.copy()
        monkeypatch.setattr(core, "_walk_steps", lambda *args: pytest.fail("a step ran"))
        with pytest.raises(CapacityError, match="^1 steps would move amplitude past a lattice"):
            evolve(WalkState(3, amps), hadamard)
        assert same_bits(amps, before)

    def test_negative_zeros_outside_the_support_step_to_positive_zeros(self):
        # -0.0 parts in every column but a band of 3 columns: after each
        # number of steps every amplitude outside the band's light cone is +0
        rng = np.random.default_rng(5)
        t_max, steps = 40, 12
        amps = np.full((2, 2 * t_max + 1), complex(-0.0, -0.0))
        amps[:, t_max - 2 : t_max + 3 : 2] = random_amplitudes(rng, (2, 3))
        coins = random_unitaries(rng, (steps,))
        x = np.arange(2 * t_max + 1)
        for t in range(1, steps + 1):
            out = evolve(WalkState(t_max, amps), coins[:t]).amplitudes
            outside = out[:, (x < t_max - 2 - t) | (x > t_max + 2 + t)]
            assert not np.signbit([outside.real, outside.imag]).any(), t

    def test_input_state_is_not_mutated(self):
        initial = symmetric_state(6)
        before = initial.amplitudes.copy()
        evolve(initial, coin_matrices(np.full((6, 3), 0.7)))
        assert same_bits(initial.amplitudes, before)

    def test_no_coins_is_a_copy(self):
        initial = symmetric_state(3)
        state = evolve(initial, np.empty((0, 2, 2)))
        assert state.amplitudes is not initial.amplitudes
        assert same_bits(state.amplitudes, initial.amplitudes)
        assert state.steps_taken == 0

    def test_capacity_checked_before_any_step(self):
        initial = symmetric_state(3)
        before = initial.amplitudes.copy()
        with pytest.raises(CapacityError):
            evolve(initial, coin_matrices(np.zeros((4, 3))))
        assert same_bits(initial.amplitudes, before)

    @pytest.mark.parametrize("state", [None], ids=["none"])
    def test_state_that_is_not_a_walk_state_rejected(self, state):
        with pytest.raises(InvalidParameterError, match="state must be a WalkState"):
            evolve(state, coin_matrices(np.zeros((2, 3))))

    def test_each_occupied_parity_is_one_walk(self, monkeypatch):
        walks = []

        def counted(amps, coins, steps_taken, _real=core._walk_steps):
            walks.append(steps_taken)
            return _real(amps, coins, steps_taken)

        monkeypatch.setattr(core, "_walk_steps", counted)
        rng = np.random.default_rng(7)
        t_max = 20
        coins = random_unitaries(rng, (12,))
        # a state from one site is one walk, at its start and after steps
        evolve(evolve(symmetric_state(t_max), coins[:3]), coins[3:])
        assert walks == [0, 3]
        amps = padded(random_amplitudes(rng, (2, 2 * t_max + 1)), 9)
        t_max = amps.shape[-1] // 2
        both = evolve(WalkState(t_max, amps, 5), coins[:9])
        assert walks == [0, 3, 5, 5]
        # the even and the odd columns stepped alone, then combined
        parts = []
        for y in (0, 1):
            part = amps.copy()
            part[:, 1 - y :: 2] = 0
            parts.append(evolve(WalkState(t_max, part, 5), coins[:9]).amplitudes)
        assert len(walks) == 6
        assert same_values(both.amplitudes, parts[0] + parts[1])

    def test_coin_shape_rejected(self):
        identity = np.eye(2)[None]
        for bad in (
            np.eye(2),
            np.zeros((3, 2, 3)),
            np.zeros((2, 2, 2, 1)),
            identity.astype(bool),
            [[["1", "0"], ["0", "1"]]],
            identity.astype(object),
            identity.astype(np.clongdouble),
            np.full((1, 2, 2), np.nan),
            np.array([[[1, np.inf], [0, 1]]]),
            [[[True, 0], [0, 1.0]]],
            [[[1, 0], [0]]],
        ):
            with pytest.raises(InvalidParameterError, match="^coins must "):
                evolve(symmetric_state(3), bad)

    @pytest.mark.parametrize(
        "field, value, message", REASSIGNED_FIELDS.values(), ids=REASSIGNED_FIELDS
    )
    def test_reassigned_state_rejected_before_any_step(self, monkeypatch, field, value, message):
        monkeypatch.setattr(core, "_walk_steps", lambda *args: pytest.fail("a step ran"))
        state = symmetric_state(3)
        setattr(state, field, value)
        with pytest.raises(InvalidParameterError, match=message):
            evolve(state, coin_matrices(np.zeros((2, 3))))


def padded(amps: np.ndarray, columns: int) -> np.ndarray:
    """``amps`` between two runs of zero columns, each ``columns`` rounded up to even long.

    Every column keeps its parity and the width its value mod 4.  Padded by
    at least the steps to go, no amplitude lies nearer an edge than those
    steps, as ``evolve`` requires.
    """
    pad = columns + columns % 2
    return np.pad(amps, [(0, 0)] * (amps.ndim - 1) + [(pad, pad)])


def random_amplitudes(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Amplitude on every column of ``shape``, the two outer ones included.

    Stepping it needs room on either side: see :func:`padded`.
    """
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    assert np.all(amps[..., [0, -1]] != 0)
    return amps


def random_unitaries(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Random 2x2 unitaries (QR of complex Gaussians), outside the coin family."""
    z = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
    q, _ = np.linalg.qr(z)
    return q


class TestBatchedWalkSteps:
    """Batches of walks through the step loop, against ``evolve`` on each walk."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("batch", [(1,), (5,), (2, 3)])
    def test_batch_equals_separate_evolves_bit_for_bit(self, seed, batch):
        rng = np.random.default_rng(seed)
        t_max = int(rng.integers(1, 30))
        taken = int(rng.integers(0, t_max))
        steps = int(rng.integers(0, t_max - taken + 1))
        amps = padded(random_amplitudes(rng, batch + (2, 2 * t_max + 1)), steps)
        coins = random_unitaries(rng, (steps,) + batch)
        batched = amps
        for _, batched in walk_states(amps, coins, steps_taken=taken):
            pass
        assert same_bits(batched, evolved_walks(amps, coins, taken))

    def test_every_state_of_every_walk_in_a_batch(self):
        rng = np.random.default_rng(9)
        t_max, steps = 12, 9
        start = padded(random_amplitudes(rng, (4, 2, 2 * t_max + 1)), steps)
        coins = random_unitaries(rng, (steps, 4))
        expected = start.copy()
        seen = []
        for t, a in walk_states(start, coins, steps_taken=2):
            for i in range(4):
                expected[i] = reference_step(expected[i], coins[len(seen), i])
            assert same_bits(a, expected)
            seen.append(t)
        assert seen == list(range(3, 3 + steps))
        assert same_bits(evolved_walks(start, coins, 2), expected)

    @pytest.mark.parametrize("origin", [20, 21], ids=["even-origin", "odd-origin"])
    def test_walk_steps_yield_the_occupied_half_lattice(self, origin):
        # a read-only batch: the generator must only read its input
        rng = np.random.default_rng(origin)
        start = np.zeros((2, 41), dtype=np.complex128)
        start[:, origin] = symmetric_state(0).amplitudes[:, 0]
        amps = np.broadcast_to(start, (3, 2, 41))
        coins = random_unitaries(rng, (15, 3))
        expected = amps.copy()
        seen = []
        for t, half in core._walk_steps(amps, coins, 5):
            if seen:
                expected = reference_walks(expected, coins[t - 6 : t - 5])
            parity = (origin + t - 5) % 2
            assert half.shape == (3, 2, 21 - parity)
            assert same_values(half, expected[..., parity::2])
            assert not np.any(expected[..., 1 - parity :: 2])
            seen.append(t)
        # the start state first, at t = steps_taken, then every step
        assert seen == list(range(5, 21))


def reference_walks(amps: np.ndarray, coins: np.ndarray) -> np.ndarray:
    """``reference_step`` applied to every walk of a batch, one coin at a time."""
    out = amps.copy()
    for coin in coins:
        for i in np.ndindex(amps.shape[:-2]):
            out[i] = reference_step(out[i], coin[i])
    return out


def evolved_walks(start: np.ndarray, coins: np.ndarray, steps_taken: int = 0) -> np.ndarray:
    """``evolve``'s final state of each walk of a batch, stacked in the batch's shape."""
    t_max = start.shape[-1] // 2
    out = np.empty_like(start)
    for i in np.ndindex(start.shape[:-2]):
        walk = WalkState(t_max, start[i], steps_taken)
        out[i] = evolve(walk, coins[(slice(None),) + i]).amplitudes
    return out


def same_values(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal amplitudes and equal bytes of |a|^2; only the sign of a zero may differ."""
    return np.array_equal(a, b) and same_bits(np.abs(a) ** 2, np.abs(b) ** 2)


#: Flush periods the kernel cases run with.  The window changes only after a
#: flush: periods of 4 and 8 move it many times within a walk of 100 steps,
#: 64 once, and the default, 128, not at all.
FLUSH_PERIODS = [4, 8, 64, core._FLUSH_PERIOD]


class TestLightConeCrop:
    """The kernel multiplies only the columns the light cone can reach.

    Walks of up to 100 steps from one column, so the windows are narrower
    than the lattice until the last flush period.
    """

    @pytest.mark.parametrize("period", FLUSH_PERIODS)
    @pytest.mark.parametrize("t_max", [100, 101])  # widths 201 and 203: 1 and 3 mod 4
    @pytest.mark.parametrize("batch", [(1,), (5,), (2, 3)])
    def test_walks_from_the_origin_match_the_reference(self, monkeypatch, period, t_max, batch):
        monkeypatch.setattr(core, "_FLUSH_PERIOD", period)
        rng = np.random.default_rng(t_max)
        amps = np.zeros(batch + (2, 2 * t_max + 1), dtype=np.complex128)
        amps[..., t_max] = rng.normal(size=batch + (2,)) + 1j * rng.normal(size=batch + (2,))
        check_every_step(amps, random_unitaries(rng, (t_max,) + batch))

    @pytest.mark.parametrize("t_max", [64, 65, 100])  # widths 129, 131 and 201
    @pytest.mark.parametrize("edge", [0, -1])
    def test_support_on_one_edge_column(self, t_max, edge):
        # the support is one column at the first or the last index of its
        # half lattice.  Padding by 104 columns on either side, at least the
        # steps and a multiple of 8, gives the steps room and moves every
        # column by 52 indices, so each keeps its place in its block of 4.
        rng = np.random.default_rng(t_max)
        start = np.zeros((2, 2 * t_max + 1), dtype=np.complex128)
        start[:, edge] = rng.normal(size=2) + 1j * rng.normal(size=2)
        check_every_step(padded(start, 104), random_unitaries(rng, (t_max,)))

    def test_all_zero_amplitudes_stay_zero(self, monkeypatch):
        # an all-zero state has no light cone: evolve runs no walk, one coin
        # at a time or all at once
        monkeypatch.setattr(core, "_walk_steps", lambda *args: pytest.fail("a step ran"))
        coins = random_unitaries(np.random.default_rng(1), (75,))
        state = WalkState(75, np.zeros((2, 151), dtype=np.complex128))
        zeros = state.amplitudes.copy()
        whole = evolve(state, coins)
        assert whole.steps_taken == 75 and same_bits(whole.amplitudes, zeros)
        for t in range(1, 76):
            state = evolve(state, coins[t - 1 : t])
            assert state.steps_taken == t and same_bits(state.amplitudes, zeros)

    @pytest.mark.parametrize("period", FLUSH_PERIODS)
    @pytest.mark.parametrize("t_max", [135, 139])  # widths 271 and 279: 3 mod 4
    def test_windows_change_only_after_a_flush(self, monkeypatch, period, t_max):
        # A walk from the origin whose last step reaches both edges.  Every
        # window starts on a multiple of 4, is whole blocks of 4 indices
        # long and ends at or before `size`, the whole blocks over the
        # even half lattice; the last one ends there.
        monkeypatch.setattr(core, "_FLUSH_PERIOD", period)
        rng = np.random.default_rng(t_max)
        start = np.zeros((2, 2, 2 * t_max + 1), dtype=np.complex128)
        start[..., t_max] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        calls = matmul_spy(monkeypatch)
        walk = core._walk_steps(start, random_unitaries(rng, (t_max, 2)), 0)
        _, source = next(walk)
        windows = []
        for _, landed in walk:
            # each step multiplies the last half lattice from index lo on
            _, _, columns, address = calls[-1]
            lo = (address - source.ctypes.data) // 16
            windows.append((lo, lo + columns))
            source = landed
        assert len(calls) == len(windows) == t_max
        size = -(-(t_max + 1) // 4) * 4
        assert all(lo % 4 == hi % 4 == 0 and 0 <= lo < hi <= size for lo, hi in windows)
        assert windows[-1][1] == size
        # window k is that of step k + 1
        changed = [k + 1 for k in range(1, t_max) if windows[k] != windows[k - 1]]
        assert changed and all((k - 1) % period == 0 for k in changed), changed

    def test_every_state_of_a_narrow_band_after_earlier_steps(self):
        rng = np.random.default_rng(3)
        t_max, steps = 150, 40
        amps = np.zeros((2, 2, 2 * t_max + 1), dtype=np.complex128)
        amps[..., t_max - 3 : t_max + 4] = random_amplitudes(rng, (2, 2, 7))
        coins = random_unitaries(rng, (steps, 2))
        check_every_step(amps, coins, steps_taken=5)


def check_every_step(start: np.ndarray, coins: np.ndarray, steps_taken: int = 0) -> None:
    """Compare every state of a walk from ``start`` with a ``reference_walks`` loop.

    ``evolve``'s final state of each walk is checked too.
    """
    expected = start.copy()
    seen = []
    for t, a in walk_states(start, coins, steps_taken):
        expected = reference_walks(expected, coins[len(seen) : len(seen) + 1])
        assert same_values(a, expected), f"step {t}"
        seen.append(t)
    assert seen == list(range(steps_taken + 1, steps_taken + len(coins) + 1))
    assert same_values(evolved_walks(start, coins, steps_taken), expected)


class TestParitySublattice:
    """The even and the odd columns are stepped as two walks on half lattices.

    Every case compares the kernel with a full-lattice ``reference_step``
    loop after every step, at several flush periods, on inputs that reach
    what the half-lattice layout must handle: both parities at once, light
    cones that reach the lattice edges, and widths of 3 mod 4, whose last
    columns fill only part of a block of 4.
    """

    @pytest.mark.parametrize("period", FLUSH_PERIODS)
    @pytest.mark.parametrize("t_max", [30, 31])  # widths 61 and 63: 1 and 3 mod 4
    @pytest.mark.parametrize("support", ["lattice", "band"])
    def test_both_parities_in_a_batch_after_earlier_steps(
        self, monkeypatch, period, t_max, support
    ):
        # "band" starts narrower than the unpadded width.  The padding is the
        # steps rounded up to even, so the light cone of "lattice" reaches
        # both edges after 26 steps (t_max 30) and one column short of them
        # after 27 (t_max 31).
        monkeypatch.setattr(core, "_FLUSH_PERIOD", period)
        rng = np.random.default_rng(t_max)
        start = random_amplitudes(rng, (2, 3, 2, 2 * t_max + 1))
        if support == "band":
            start[..., : t_max - 6] = 0
            start[..., t_max + 7 :] = 0
        coins = random_unitaries(rng, (t_max - 4, 2, 3))
        check_every_step(padded(start, t_max - 4), coins, steps_taken=4)

    @pytest.mark.parametrize("period", FLUSH_PERIODS)
    @pytest.mark.parametrize("t_max", [40, 41])  # widths 81 and 83
    @pytest.mark.parametrize("edge", ["left", "right"])
    @pytest.mark.parametrize("parity", [0, 1, "both"])
    def test_amplitude_leaving_through_each_edge(self, monkeypatch, period, t_max, edge, parity):
        # A band whose outer column lies as many columns from the edge as it
        # has steps to go reaches that edge on the last step and keeps every
        # amplitude; one column nearer, a step would move amplitude past the
        # edge, so the walk raises before any step.
        monkeypatch.setattr(core, "_FLUSH_PERIOD", period)
        rng = np.random.default_rng([t_max, {0: 0, 1: 1, "both": 2}[parity]])
        width, taken = 2 * t_max + 1, 3
        # the outer column's lattice parity is that of the steps; a band on
        # both parities is 9 adjacent columns, one on one parity 5 columns
        steps = 30 + (parity == 1)
        offsets = np.arange(0, 9, 1 if parity == "both" else 2)
        band = steps + offsets if edge == "left" else width - 1 - steps - offsets
        start = np.zeros((3, 2, width), dtype=np.complex128)
        start[..., band] = random_amplitudes(rng, (3, 2, len(band)))
        coins = random_unitaries(rng, (steps, 3))
        edge_column = reference_walks(start, coins)[..., 0 if edge == "left" else -1]
        assert np.all(edge_column.any(axis=-1)), "a walk's light cone stops short of the edge"
        check_every_step(start, coins, steps_taken=taken)

        nearer = np.roll(start, -1 if edge == "left" else 1, axis=-1)
        monkeypatch.setattr(core, "_walk_steps", lambda *args: pytest.fail("a step ran"))
        for walk, walk_coins in zip(nearer, coins.swapaxes(0, 1)):
            before = walk.copy()
            state = WalkState(t_max, walk, taken)
            with pytest.raises(CapacityError, match=f"^{steps} steps would move amplitude past"):
                evolve(state, walk_coins)
            assert same_bits(state.amplitudes, before)
            assert (state.t_max, state.steps_taken) == (t_max, taken)

    @pytest.mark.parametrize("period", FLUSH_PERIODS)
    @pytest.mark.parametrize("t_max", [101, 103])  # widths 203 and 207: 3 mod 4
    def test_full_capacity_walk_from_the_origin(self, monkeypatch, period, t_max):
        # the last two steps reach the lattice's last three columns, which
        # fill only part of a block of 4
        monkeypatch.setattr(core, "_FLUSH_PERIOD", period)
        rng = np.random.default_rng(t_max)
        start = np.zeros((2, 2, 2 * t_max + 1), dtype=np.complex128)
        start[..., t_max] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        check_every_step(start, random_unitaries(rng, (t_max, 2)))


def real_orthogonal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Random real 2x2 orthogonal coins (QR of real Gaussians), as complex128."""
    q, _ = np.linalg.qr(rng.normal(size=shape + (2, 2)))
    return q.astype(np.complex128)


def matmul_spy(monkeypatch) -> list[tuple[np.dtype, np.dtype, int, int]]:
    """Record every ``np.matmul`` call from now on.

    Each call gives both operand dtypes, the columns of amplitudes of the
    second operand and the address of its first element.  A float64
    operand holds each amplitude as two columns, its real and its imaginary
    part.
    """
    calls = []

    def spy(a, b, *args, _matmul=np.matmul, **kwargs):
        calls.append((a.dtype, b.dtype, b.shape[-1] * b.itemsize // 16, b.ctypes.data))
        return _matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    return calls


def final_half(amps: np.ndarray, coins: np.ndarray) -> np.ndarray:
    """A copy of the last half lattice ``core._walk_steps`` yields."""
    for _, half in core._walk_steps(amps, coins, 0):
        pass
    return half.copy()


class TestRealCoins:
    """Coins with no non-zero imaginary part step on dgemm, with zgemm's bits.

    The kernel then multiplies the real coins with float64 views of its
    buffers, each amplitude a real and an imaginary column
    (``TestRealCoinColumnBits`` pins why the bits are zgemm's).
    """

    @pytest.mark.parametrize("period", FLUSH_PERIODS)
    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("kind", ["hadamard", "coin-family", "orthogonal"])
    def test_real_coins_match_the_reference(self, monkeypatch, period, batch, kind):
        monkeypatch.setattr(core, "_FLUSH_PERIOD", period)
        rng = np.random.default_rng(len(batch))
        t_max, steps = 60, 50
        shape = (steps,) + batch
        if kind == "hadamard":
            coins = np.broadcast_to(coin_matrices([(0.0, QUARTER_PI, 0.0)])[0], shape + (2, 2))
        elif kind == "coin-family":
            # xi = zeta = 0 with any theta: the phases are exactly 1 + 0j
            angles = np.zeros(shape + (3,))
            angles[..., 1] = rng.uniform(-10.0, 10.0, shape)
            coins = coin_matrices(angles.reshape(-1, 3)).reshape(shape + (2, 2))
        else:
            coins = real_orthogonal(rng, shape)  # a coin per step and per walk
        assert not coins.imag.any()
        # a band on both parities, after earlier steps
        start = np.zeros(batch + (2, 2 * t_max + 1), dtype=np.complex128)
        start[..., t_max - 4 : t_max + 5] = random_amplitudes(rng, batch + (2, 9))
        check_every_step(start, coins, steps_taken=3)

    def test_real_batches_step_on_float64_and_others_on_complex128(self, monkeypatch):
        rng = np.random.default_rng(6)
        t_max, steps = 40, 30
        start = np.zeros((2, 2, 2 * t_max + 1), dtype=np.complex128)
        start[..., t_max] = symmetric_state(0).amplitudes[:, 0]
        real = real_orthogonal(rng, (steps, 2))
        mixed = real.copy()
        mixed[:, 1] = random_unitaries(rng, (steps,))
        calls = matmul_spy(monkeypatch)
        for coins, dtype in [(real, np.float64), (random_unitaries(rng, (steps, 2)), np.complex128),
                             (mixed, np.complex128)]:
            calls.clear()
            final_half(start, coins)
            assert [call[:2] for call in calls] == [(dtype, dtype)] * steps
        # the real walk gets the same bits from dgemm alone as from zgemm
        # beside a complex one, whose light cone is the same
        assert same_bits(final_half(start[:1], real[:, :1]), final_half(start, mixed)[:1])


class TestZgemmColumnBits:
    """The fact about zgemm's rounding that the kernel's layout relies on.

    A column inside whole blocks of 4 gets the full product's bits wherever
    the block starts.  This held with numpy 2.4.6 on OpenBLAS 0.3.31
    (scipy-openblas64, DYNAMIC_ARCH, 2 threads) on its SkylakeX, Haswell,
    SandyBridge and Prescott kernels (``TestRealCoinColumnBitsOnOtherKernels``
    checks the last three).  A BLAS build that breaks it fails here by
    name, not only through a pinned digest.
    """

    @pytest.mark.parametrize("batch", [(), (5,)])
    def test_whole_block_windows_keep_the_full_products_column_bits(self, batch):
        rng = np.random.default_rng(11)
        for _ in range(300):
            width = int(rng.integers(9, 300))
            coin = random_unitaries(rng, batch)
            amps = random_amplitudes(rng, batch + (2, width))
            full = coin @ amps
            blocks = width - width % 4
            n = 4 * int(rng.integers(1, blocks // 4 + 1))
            j0 = int(rng.integers(0, blocks - n + 1))
            # the window's copy sits at any offset of a zero-padded buffer
            pad = int(rng.integers(0, 4))
            buffer = np.zeros(batch + (2, n + 4), dtype=np.complex128)
            buffer[..., pad : pad + n] = amps[..., j0 : j0 + n]
            window = coin @ buffer[..., pad : pad + n]
            assert same_bits(window, full[..., j0 : j0 + n].copy()), (width, j0, n)


class TestRealCoinColumnBits:
    """The fact about dgemm's rounding that the kernel's real coins rely on.

    A real coin, held as complex128 with imaginary parts of +0 or -0, gives
    ``np.matmul`` on the float64 view of the amplitudes, each amplitude a
    real and an imaginary column, the bytes of the complex product, zero
    signs included, on windows whole blocks of 4 amplitudes wide.  This
    held with numpy 2.4.6 on OpenBLAS 0.3.31 on its SkylakeX, Haswell,
    SandyBridge and Prescott kernels (``TestRealCoinColumnBitsOnOtherKernels``
    checks the last three).  Widths that are not a multiple of 4 can differ
    in the sign of a zero, and at width 1 in values; the kernel never
    multiplies such widths.
    """

    @pytest.mark.parametrize("batch", [(), (5,)])
    def test_float64_view_gives_the_complex_products_bytes(self, batch):
        rng = np.random.default_rng(12)
        tiny = np.finfo(np.float64).tiny
        for _ in range(300):
            n = 4 * int(rng.integers(1, 80))
            coin = rng.normal(size=batch + (2, 2)) + 0j
            coin.imag = np.where(rng.random(coin.shape) < 0.5, 0.0, -0.0)
            coin.real[rng.random(coin.shape) < 0.1] = -0.0
            # +0, -0 and subnormal parts among the amplitudes' parts
            parts = rng.normal(size=batch + (2, 2 * n))
            pick = rng.random(parts.shape)
            parts[pick < 0.3] = rng.normal(size=parts.shape)[pick < 0.3] * tiny / 4
            parts[(pick >= 0.3) & (pick < 0.4)] = 0.0
            parts[(pick >= 0.4) & (pick < 0.5)] = -0.0
            # the window sits at any offset of a zero-padded buffer
            pad = int(rng.integers(0, 4))
            buffer = np.zeros(batch + (2, n + 4), dtype=np.complex128)
            window = buffer[..., pad : pad + n]
            window.view(np.float64)[...] = parts
            real = np.matmul(np.ascontiguousarray(coin.real), window.view(np.float64))
            assert real.tobytes() == (coin @ window).tobytes(), (n, pad)


#: ``OPENBLAS_CORETYPE`` values the column-bit facts are checked under, with the
#: names ``OPENBLAS_VERBOSE=2`` reports for each: x86-64 builds alias the
#: Katmai kernels to Prescott's and report the first name.
OTHER_BLAS_CORES = {
    "Haswell": ("Haswell",),
    "SandyBridge": ("Sandybridge",),
    "Prescott": ("Prescott", "Katmai"),
}


class TestRealCoinColumnBitsOnOtherKernels:
    """``TestRealCoinColumnBits`` and ``TestZgemmColumnBits`` on three other OpenBLAS kernels.

    Both classes run in one fresh process per kernel.  The real-coin path
    adds no dependence on which kernel the CPU gets: the pinned digests
    already depend on zgemm's, and every window of the step kernel relies
    on zgemm's column bits.  A numpy whose BLAS does not report the
    requested core skips, with the reason.
    """

    @pytest.mark.parametrize("coretype", OTHER_BLAS_CORES)
    def test_real_coin_column_bits(self, coretype):
        paths = [str(Path(core.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, paths)),
            "OPENBLAS_CORETYPE": coretype,
            "OPENBLAS_VERBOSE": "2",
        }
        # -s: OpenBLAS reports its core on stderr as numpy loads it
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
             f"{__file__}::TestRealCoinColumnBits", f"{__file__}::TestZgemmColumnBits"],
            capture_output=True, text=True, env=env, check=False, cwd=Path(__file__).parent,
        )
        cores = [line.split(":", 1)[1].strip() for line in result.stderr.splitlines()
                 if line.startswith("Core:")]
        if not cores or cores[0] not in OTHER_BLAS_CORES[coretype]:
            pytest.skip(f"OPENBLAS_CORETYPE={coretype} was not taken up (reported cores: {cores})")
        assert result.returncode == 0, result.stdout + result.stderr


class TestVecdotRowBits:
    """The fact about ``np.vecdot`` that the ensemble reductions rely on.

    ``np.vecdot(P, x)`` gives every row of a 2-D ``P`` the bits of
    ``np.dot(row, x)``: with numpy 2.4.6 on OpenBLAS 0.3.31 both call BLAS
    ``ddot`` per row, while ``P @ x`` rounded differently at every batch
    size above 1.  A numpy or BLAS change that breaks it fails here by
    name, not only through a pinned digest.
    """

    @pytest.mark.parametrize("width", [201, 203, 401, 605, 801, 1203, 1601])
    @pytest.mark.parametrize("batch", [1, 2, 3, 4, 10, 37, 400])
    def test_each_row_gets_the_bits_of_np_dot(self, width, batch):
        rng = np.random.default_rng(width * 1000 + batch)
        half = width // 2
        x = np.arange(-half, half + 1, dtype=np.float64)
        p = rng.random((batch, width))
        # a walk after t steps holds probability on one parity of sites only
        parity = rng.integers(0, 3, batch)
        for row, off in zip(p, parity):
            if off < 2:
                row[off::2] = 0.0
        p /= p.sum(axis=1, keepdims=True)
        for moment in (x, x * x):
            rows = np.array([np.dot(row, moment) for row in p])
            assert np.vecdot(p, moment).tobytes() == rows.tobytes()


def subnormal_parts(a: np.ndarray) -> int:
    """Real and imaginary parts of ``a`` that are non-zero but below the smallest normal."""
    parts = np.abs(np.stack([a.real, a.imag]))
    return int(np.count_nonzero((parts > 0) & (parts < np.finfo(np.float64).tiny)))


def squared_bytes(a: np.ndarray) -> tuple[bytes, bytes]:
    """|a|^2 as the package's reductions compute it, and as ``np.abs`` does."""
    return (a.real * a.real + a.imag * a.imag).tobytes(), (np.abs(a) ** 2).tobytes()


#: Coins a step from the swap coin: cos(theta) is 1e-3, 1e-4 and 1e-6, so the
#: amplitude left behind shrinks by that factor per bounce and reaches the
#: subnormal range within a few hundred steps.
NEAR_SWAP_THETAS = [HALF_PI - 1e-3, HALF_PI - 1e-4, HALF_PI - 1e-6]


class TestSubnormalFlush:
    """Every ``_FLUSH_PERIOD`` steps the kernel sets subnormal parts to +0.0.

    Against a ``reference_step`` loop, which keeps them, the flushed walk
    must give the same bytes of |a|^2 at every step, amplitudes within
    1e-300, and no subnormal part right after a flush.
    """

    STEPS = 300

    def check_against_reference(self, start: np.ndarray, coins: np.ndarray) -> None:
        expected = start.copy()
        flushed = []  # subnormal parts of the reference at each flush step
        for t, a in walk_states(start, coins):
            expected = reference_walks(expected, coins[t - 1 : t])
            assert squared_bytes(a) == squared_bytes(expected)
            assert np.max(np.abs(a - expected)) <= 1e-300
            if t % core._FLUSH_PERIOD == 0:
                assert subnormal_parts(a) == 0
                flushed.append(subnormal_parts(expected))
        assert len(flushed) == self.STEPS // core._FLUSH_PERIOD
        assert max(flushed) > 0, "the reference never held a subnormal part to flush"
        assert squared_bytes(evolved_walks(start, coins)) == squared_bytes(expected)

    def start(self, batch: tuple[int, ...]) -> np.ndarray:
        amps = np.zeros(batch + (2, 2 * self.STEPS + 1), dtype=np.complex128)
        amps[..., self.STEPS] = symmetric_state(0).amplitudes[:, 0]
        return amps

    @pytest.mark.parametrize("phase", [0.3, 0.7])
    @pytest.mark.parametrize(
        "walks", [[0], [1], [2], [0, 1, 2]], ids=["1e-3", "1e-4", "1e-6", "batch"]
    )
    def test_ordered_near_swap_coins(self, phase, walks):
        thetas = [NEAR_SWAP_THETAS[i] for i in walks]
        coin = coin_matrices([(phase, theta, phase) for theta in thetas])
        batch = () if len(walks) == 1 else (len(walks),)
        coins = np.broadcast_to(coin.reshape(batch + (2, 2)), (self.STEPS,) + batch + (2, 2))
        self.check_against_reference(self.start(batch), coins)

    @pytest.mark.parametrize("batch", [(), (3,)], ids=["single", "batch"])
    def test_random_schedule_near_the_swap_coin(self, batch):
        coins = near_swap_coins(np.random.default_rng(7), (self.STEPS,) + batch)
        self.check_against_reference(self.start(batch), coins)


def near_swap_coins(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Coins of random phases and theta in [1.55, 1.5707], one per step and walk of ``shape``."""
    angles = np.stack(
        [
            rng.uniform(0.0, HALF_PI, shape),
            rng.uniform(1.55, 1.5707, shape),
            rng.uniform(0.0, HALF_PI, shape),
        ],
        axis=-1,
    )
    return coin_matrices(angles.reshape(-1, 3)).reshape(shape + (2, 2))


def flushed_reference(start: np.ndarray, coins: np.ndarray):
    """Yield ``(t, state)`` after every step of a full-lattice walk that flushes as the kernel does.

    A ``reference_walks`` loop: after each step whose count is a multiple
    of ``core._FLUSH_PERIOD``, every real or imaginary part below the
    smallest normal float64 is set to +0.0, over the whole lattice where
    the kernel flushes its window.
    """
    expected = start
    for t, coin in enumerate(coins, start=1):
        expected = reference_walks(expected, coin[np.newaxis])
        if t % core._FLUSH_PERIOD == 0:
            parts = expected.view(np.float64)
            np.copyto(parts, 0.0, where=np.abs(parts) < np.finfo(np.float64).tiny)
        yield t, expected


class TestFlushRecrop:
    """After each flush the kernel's window grows from the support the flush left.

    Near-swap coins leave tails that flush to zero, so the support narrows
    inside the light cone.  Every state must match ``flushed_reference``, a
    full-lattice ``reference_walks`` loop that flushes at the same steps.
    At the default period some window must also be narrower than the one
    before it, which only the re-crop gives.
    """

    STEPS = 300

    def check_against_flushed_reference(self, coins: np.ndarray) -> list[int]:
        """Check every state of a walk from the origin; return each product's columns."""
        batch = coins.shape[1:-2]
        start = np.zeros(batch + (2, 2 * self.STEPS + 1), dtype=np.complex128)
        start[..., self.STEPS] = symmetric_state(0).amplitudes[:, 0]
        with pytest.MonkeyPatch.context() as spied:
            calls = matmul_spy(spied)
            subnormals = 0
            for (t, a), (_, expected) in zip(walk_states(start, coins),
                                             flushed_reference(start, coins)):
                assert same_values(a, expected), t
                subnormals += subnormal_parts(expected)
        assert t == self.STEPS
        assert subnormals > 0, "no tail to flush"
        assert same_values(evolved_walks(start, coins), expected)
        return [n for _, _, n, _ in calls]

    @pytest.mark.parametrize("period", FLUSH_PERIODS)
    @pytest.mark.parametrize("phase", [0.0, 0.3], ids=["real", "complex"])
    @pytest.mark.parametrize("walks", [[2], [1, 2]], ids=["1e-6", "batch"])
    def test_every_state_matches_an_uncropped_kernel(self, monkeypatch, period, phase, walks):
        monkeypatch.setattr(core, "_FLUSH_PERIOD", period)
        coin = coin_matrices([(phase, NEAR_SWAP_THETAS[i], phase) for i in walks])
        batch = () if len(walks) == 1 else (len(walks),)
        coins = np.broadcast_to(coin.reshape(batch + (2, 2)), (self.STEPS,) + batch + (2, 2))
        columns = self.check_against_flushed_reference(coins)
        # shorter periods keep each window within a few steps of the
        # support, so only the default's windows narrow
        if period == FLUSH_PERIODS[-1]:
            assert any(b < a for a, b in zip(columns, columns[1:])), "no window narrowed"

    @pytest.mark.parametrize("period", FLUSH_PERIODS)
    def test_random_schedule_near_the_swap_coin(self, monkeypatch, period):
        # At period 8 the last window, from step 297, covers 4 steps instead
        # of 8; the state two steps back holds tails outside it, which the
        # clear at each flush removes.
        monkeypatch.setattr(core, "_FLUSH_PERIOD", period)
        self.check_against_flushed_reference(near_swap_coins(np.random.default_rng(7),
                                                             (self.STEPS, 3)))


# ---------------------------------------------------------------------------
# multi-step evolution


class TestEvolveOrdered:
    def test_hadamard_two_steps_distribution(self):
        state = evolve_ordered(symmetric_state(2), CoinParams(0.0, QUARTER_PI, 0.0), 2)
        p = (np.abs(state.amplitudes) ** 2).sum(axis=0)
        np.testing.assert_allclose(p, [0.25, 0.0, 0.5, 0.0, 0.25], atol=1e-15)

    def test_diagonal_coin_is_ballistic(self):
        t = 9
        state = evolve_ordered(symmetric_state(t), CoinParams(0.0, 0.0, 0.0), t)
        p = (np.abs(state.amplitudes) ** 2).sum(axis=0)
        assert p[0] == pytest.approx(0.5, abs=1e-15)   # x = -t
        assert p[-1] == pytest.approx(0.5, abs=1e-15)  # x = +t
        assert p[1:-1].sum() == 0.0

    def test_zero_steps_is_identity(self):
        initial = symmetric_state(3)
        state = evolve_ordered(initial, CoinParams(1.0, 2.0, 3.0), 0)
        np.testing.assert_array_equal(state.amplitudes, initial.amplitudes)
        assert state.steps_taken == 0

    @pytest.mark.parametrize("coin", [None, (0.0, QUARTER_PI, 0.0)], ids=["none", "tuple"])
    def test_coin_that_is_not_coin_params_rejected(self, coin):
        with pytest.raises(InvalidParameterError, match="coin must be a CoinParams"):
            evolve_ordered(symmetric_state(2), coin, 2)

    def test_steps_beyond_capacity_raises(self):
        with pytest.raises(CapacityError):
            evolve_ordered(symmetric_state(3), CoinParams(0.0, QUARTER_PI, 0.0), 4)

    def test_negative_steps_rejected(self):
        with pytest.raises(InvalidParameterError):
            evolve_ordered(symmetric_state(3), CoinParams(0.0, QUARTER_PI, 0.0), -1)

    @pytest.mark.parametrize("steps", [2.5, True])
    def test_inexact_steps_rejected(self, steps):
        with pytest.raises(InvalidParameterError, match="steps must be an integer"):
            evolve_ordered(symmetric_state(3), CoinParams(0.0, QUARTER_PI, 0.0), steps)


class TestPinnedOrderedWalk:
    """The bytes of a walk long enough to carry subnormal amplitudes.

    Captured before the kernel flushed subnormal parts, when the Hadamard
    walk's tails held 576 real or imaginary parts below the smallest normal
    float64 at t = 3000; each squares to exactly 0.  Captured with numpy
    2.4.6 and its bundled OpenBLAS 0.3.31 on a 2-vCPU x86-64 host; another
    BLAS build may round the last bits differently.
    """

    def test_hadamard_t3000_distribution_and_variance(self):
        state = evolve_ordered(symmetric_state(3000), CoinParams(0.0, QUARTER_PI, 0.0), 3000)
        dist = distribution_from_state(state)
        assert hashlib.sha256(dist.p.tobytes()).hexdigest() == (
            "19f71bf8867be77293546687bff310b19a7d69ac45b1d484f7c22a966fb16af0"
        )
        assert variance(dist).hex() == "0x1.41c83bf05d558p+21"


class TestPrefixProperty:
    """A walk of any length t is the first t steps of a longer walk, bit for bit.

    Schedules extend each other, so a t-step walk's coins are the first t of
    a longer schedule, and its state equals the longer walk's after t steps
    cropped to the 2t + 1 sites of its lattice: every amplitude, the sign
    of every zero included.  Odd lengths have widths of 3 mod 4, even ones
    of 1 mod 4.  Steps 128 and 256 flush subnormal parts.
    """

    LONG = 400
    LENGTHS = (
        1, 2, 3, 4, 5, 10, 63, 64, 101, 127, 128, 129, 130, 255, 256, 257, 397, 398, 399,
    )

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_every_walk_is_a_prefix_of_a_longer_one(self, preset, seed):
        coins = coin_matrices(sample_schedule(preset_spec(preset), self.LONG, seed))
        prefixes = {
            t: a[:, self.LONG - t : self.LONG + t + 1]
            for t, a in walk_states(symmetric_state(self.LONG).amplitudes, coins)
            if t in self.LENGTHS
        }
        for t in self.LENGTHS:
            short = evolve(symmetric_state(t), coins[:t])
            assert same_bits(short.amplitudes, prefixes[t]), t


# ---------------------------------------------------------------------------
# structural invariants


class TestInvariants:
    def test_norm_conserved_over_400_disordered_steps(self):
        schedule = sample_schedule(preset_spec("full-range"), 400, master_seed=11)
        state = evolve_disordered(symmetric_state(400), schedule)
        assert abs(state.norm() - 1.0) < 1e-10

    def test_light_cone_and_parity_are_exact(self):
        schedule = sample_schedule(preset_spec("full-range"), 60, master_seed=5)
        seen = []
        for t, amplitudes in walk_states(symmetric_state(60).amplitudes, coin_matrices(schedule)):
            check_state(WalkState(60, amplitudes, t))
            seen.append(t)
        assert seen == list(range(1, 61))

    @settings(max_examples=30, deadline=None)
    @given(
        angles=st.lists(
            st.tuples(
                st.floats(-10, 10, allow_nan=False),
                st.floats(-10, 10, allow_nan=False),
                st.floats(-10, 10, allow_nan=False),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_any_coin_sequence_preserves_structure(self, angles):
        state = symmetric_state(len(angles))
        for triple in angles:
            state = evolve(state, coin_matrices([triple]))
        check_state(state)

    def test_symmetry_of_unbiased_ordered_walk(self):
        # delta = phi = pi/2 with zero coin phases: mirror-symmetric at every t
        for theta in (math.pi / 6, QUARTER_PI, math.pi / 3):
            state = symmetric_state(400)
            coin = coin_matrices([(0.0, theta, 0.0)])
            for _ in range(400):
                state = evolve(state, coin)
                p = (np.abs(state.amplitudes) ** 2).sum(axis=0)
                assert np.max(np.abs(p - p[::-1])) < 1e-10

    def test_unequal_phases_break_symmetry(self):
        state = evolve_ordered(symmetric_state(50), CoinParams(HALF_PI, QUARTER_PI, 0.0), 50)
        p = (np.abs(state.amplitudes) ** 2).sum(axis=0)
        assert np.max(np.abs(p - p[::-1])) > 1e-3


#: A state that breaks each invariant of ``check_state``, as source text, and
#: a word of the message it must raise with.
BROKEN_STATES = {
    "norm": ("WalkState(0, [[5.0], [0.0]])", "norm"),
    "light-cone": ("WalkState(2, [[0, 0, 0, 0, 1], [0, 0, 0, 0, 0]])", "light cone"),
    "parity": ("WalkState(1, [[0, 1, 0], [0, 0, 0]], 1)", "wrong-parity"),
}


class TestCheckState:
    @pytest.mark.parametrize("state", [None, np.zeros((2, 3))], ids=["none", "array"])
    def test_rejects_what_is_not_a_walk_state(self, state):
        with pytest.raises(InvalidParameterError, match="state must be a WalkState"):
            check_state(state)

    @pytest.mark.parametrize(
        "field, value, message", REASSIGNED_FIELDS.values(), ids=REASSIGNED_FIELDS
    )
    def test_rejects_a_reassigned_field_before_any_check(self, field, value, message):
        state = symmetric_state(3)
        setattr(state, field, value)
        with pytest.raises(InvalidParameterError, match=message):
            check_state(state)

    @pytest.mark.parametrize("source, message", BROKEN_STATES.values(), ids=BROKEN_STATES)
    def test_rejects_a_broken_state(self, source, message):
        with pytest.raises(AssertionError, match=message):
            check_state(eval(source, {"WalkState": WalkState}))

    @pytest.mark.parametrize("source, message", BROKEN_STATES.values(), ids=BROKEN_STATES)
    def test_rejects_a_broken_state_under_python_O(self, source, message):
        code = "\n".join([
            "import sys",
            "from coinwalk.core import WalkState, check_state",
            "if __debug__:",
            "    sys.exit('assert statements are enabled')",
            "try:",
            f"    check_state({source})",
            "except AssertionError as exc:",
            "    print(exc)",
            "else:",
            "    sys.exit('check_state accepted the state')",
        ])
        paths = [str(Path(core.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        result = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, env=env, check=False,
        )
        assert result.returncode == 0, result.stderr
        assert message in result.stdout



# ---------------------------------------------------------------------------
# dense-operator oracle


class TestDenseOracle:
    def test_ordered_hadamard_matches_dense_operator(self):
        t_max = 8
        state = symmetric_state(t_max)
        expected = dense_evolve(state.amplitudes, [(0.0, QUARTER_PI, 0.0)] * t_max)
        evolved = evolve_ordered(state, CoinParams(0.0, QUARTER_PI, 0.0), t_max)
        np.testing.assert_allclose(evolved.amplitudes, expected, atol=1e-12)

    def test_fixed_disordered_schedule_matches_dense_operator(self):
        schedule = sample_schedule(preset_spec("full-range"), 8, master_seed=99)
        state = symmetric_state(8)
        expected = dense_evolve(state.amplitudes, schedule)
        evolved = evolve_disordered(state, schedule)
        np.testing.assert_allclose(evolved.amplitudes, expected, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        angles=st.lists(
            st.tuples(
                st.floats(-7, 7, allow_nan=False),
                st.floats(-7, 7, allow_nan=False),
                st.floats(-7, 7, allow_nan=False),
            ),
            min_size=1,
            max_size=5,
        ),
        delta=st.floats(0, math.pi, allow_nan=False),
        phi=st.floats(-math.pi, math.pi, allow_nan=False),
    )
    def test_random_walks_match_dense_operator(self, angles, delta, phi):
        initial = build_initial_state(InitialStateParams(delta=delta, phi=phi), len(angles))
        expected = dense_evolve(initial.amplitudes, angles)
        state = initial
        for triple in angles:
            state = evolve(state, coin_matrices([triple]))
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


class TestStaticOracle:
    """``oracle_static.static_walk``, the one-coin-per-site walk of the tests."""

    def test_a_coin_per_site_matches_dense_operator(self):
        t_max = 8
        n = 2 * t_max + 1
        coins = coin_matrices(sample_schedule(preset_spec("full-range"), n, master_seed=3))
        # basis index coin * n + site, as in oracle_dense
        per_site = np.zeros((2 * n, 2 * n), dtype=np.complex128)
        for site, coin in enumerate(coins):
            per_site[site::n, site::n] = coin
        operator = dense_shift(n) @ per_site
        vec = symmetric_state(t_max).amplitudes.reshape(-1)
        for t, a in static_walk(symmetric_state(t_max).amplitudes, coins, t_max):
            vec = operator @ vec
            np.testing.assert_allclose(a, vec.reshape(2, n), atol=1e-12, err_msg=str(t))

    def test_one_coin_at_every_site_is_the_package_walk(self):
        t_max = 60
        coin = coin_matrices([(0.4, 1.1, 0.9)])
        start = symmetric_state(t_max)
        coins = np.broadcast_to(coin, (2 * t_max + 1, 2, 2))
        for t, a in static_walk(start.amplitudes, coins, t_max):
            expected = evolve(start, np.broadcast_to(coin, (t, 2, 2))).amplitudes
            np.testing.assert_allclose(a, expected, atol=1e-12, err_msg=str(t))
