"""Unit and property tests for the walk engine."""

import hashlib
import math

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
    evolve_in_place,
    evolve_ordered,
    exact_int,
)
from coinwalk.disorder import preset_spec, sample_schedule, evolve_disordered
from coinwalk.errors import CapacityError, InvalidParameterError

from oracle_dense import dense_coin, dense_evolve

HALF_PI = math.pi / 2
QUARTER_PI = math.pi / 4

finite_angles = st.floats(allow_nan=False, allow_infinity=False, width=64)

#: Values an angle must reject instead of converting with float().
NOT_ANGLES = [True, False, np.True_, "x", "1.5", None, math.inf]


def symmetric_state(t_max: int) -> WalkState:
    """The (|0> + i|1>)/sqrt(2) initial state used throughout."""
    return build_initial_state(InitialStateParams(), t_max)


def reference_step(amplitudes: np.ndarray, coin: np.ndarray) -> np.ndarray:
    """One step written out as a fresh product and a shift into a zeroed array."""
    mixed = coin @ amplitudes
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
            with pytest.raises(InvalidParameterError):
                coin_matrices([[0.0, value, 0.0]])

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


class TestEvolve:
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_a_loop_of_single_steps_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        t_max = int(rng.integers(1, 40))
        taken = int(rng.integers(0, t_max))
        steps = int(rng.integers(0, t_max - taken + 1))
        # amplitude everywhere, the two edge columns included
        amps = rng.normal(size=(2, 2 * t_max + 1)) + 1j * rng.normal(size=(2, 2 * t_max + 1))
        assert np.all(amps[:, [0, -1]] != 0)
        coins = coin_matrices(rng.uniform(-10.0, 10.0, (steps, 3)))
        expected = amps
        for coin in coins:
            expected = reference_step(expected, coin)
        state = evolve(WalkState(t_max, amps, taken), coins)
        assert np.array_equal(state.amplitudes, expected)
        assert (state.t_max, state.steps_taken) == (t_max, taken + steps)

    def test_observe_sees_every_intermediate_state(self):
        schedule = sample_schedule(preset_spec("theta-high"), 12, master_seed=4)
        coins = coin_matrices(schedule)
        expected = symmetric_state(20).amplitudes
        for coin in coins[:5]:
            expected = reference_step(expected, coin)
        seen = []

        def observe(t, amplitudes):
            nonlocal expected
            expected = reference_step(expected, coins[5 + len(seen)])
            assert np.array_equal(amplitudes, expected)
            seen.append(t)

        final = evolve(evolve(symmetric_state(20), coins[:5]), coins[5:], observe=observe)
        assert seen == list(range(6, 13))
        assert np.array_equal(final.amplitudes, expected)

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
        calls = []
        with pytest.raises(CapacityError):
            evolve(symmetric_state(3), coin_matrices(np.zeros((4, 3))),
                   observe=lambda t, a: calls.append(t))
        assert calls == []

    def test_coin_shape_rejected(self):
        for bad in (np.eye(2), np.zeros((3, 2, 3)), np.zeros((2, 2, 2, 1))):
            with pytest.raises(InvalidParameterError):
                evolve(symmetric_state(3), bad)


def random_amplitudes(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Amplitude on every site, the two edge columns included."""
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    assert np.all(amps[..., [0, -1]] != 0)
    return amps


def random_unitaries(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Random 2x2 unitaries (QR of complex Gaussians), outside the coin family."""
    z = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
    q, _ = np.linalg.qr(z)
    return q


class TestEvolveInPlace:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("batch", [(1,), (5,), (2, 3)])
    def test_batch_equals_separate_evolves_bit_for_bit(self, seed, batch):
        rng = np.random.default_rng(seed)
        t_max = int(rng.integers(1, 30))
        taken = int(rng.integers(0, t_max))
        steps = int(rng.integers(0, t_max - taken + 1))
        amps = random_amplitudes(rng, batch + (2, 2 * t_max + 1))
        coins = random_unitaries(rng, (steps,) + batch)
        batched = amps.copy()
        evolve_in_place(batched, coins, steps_taken=taken)
        for i in np.ndindex(batch):
            single = evolve(WalkState(t_max, amps[i], taken), coins[(slice(None),) + i])
            assert same_bits(batched[i], single.amplitudes)

    def test_observe_sees_every_live_batch_buffer(self):
        rng = np.random.default_rng(9)
        t_max, steps = 12, 9
        start = random_amplitudes(rng, (4, 2, 2 * t_max + 1))
        coins = random_unitaries(rng, (steps, 4))
        expected = start.copy()
        amps = start.copy()
        seen = []

        def observe(t, a):
            assert a is amps
            for i in range(4):
                expected[i] = reference_step(expected[i], coins[len(seen), i])
            assert same_bits(a, expected)
            seen.append(t)

        evolve_in_place(amps, coins, steps_taken=2, observe=observe)
        assert seen == list(range(3, 3 + steps))
        assert same_bits(amps, expected)

    @pytest.mark.parametrize(
        "coin_shape, steps_taken",
        [
            ((3, 4, 2, 2), 0),  # batch of 4 coins for 3 walks
            ((3, 2, 2), 0),  # unbatched coins for a batch
            ((3, 1, 2, 2), 0),  # no broadcasting over the batch
            ((3, 3, 2, 3), 0),
            ((3, 3, 2, 2), 3),  # 3 + 3 steps on a lattice of t_max = 5
            ((6, 3, 2, 2), 0),
        ],
    )
    def test_rejected_before_any_step(self, coin_shape, steps_taken):
        amps = random_amplitudes(np.random.default_rng(0), (3, 2, 11))
        before = amps.copy()
        calls = []
        error = CapacityError if coin_shape[1:] == (3, 2, 2) else InvalidParameterError
        with pytest.raises(error):
            evolve_in_place(amps, np.ones(coin_shape), steps_taken=steps_taken,
                            observe=lambda t, a: calls.append(t))
        assert calls == []
        assert same_bits(amps, before)

    def test_bad_amplitudes_or_steps_taken_rejected(self):
        coins = np.empty((0, 2, 2))
        for bad in (np.zeros((2, 5)), np.zeros((2, 4), complex), np.zeros(5, complex),
                    np.zeros((3, 5), complex)):
            with pytest.raises(InvalidParameterError):
                evolve_in_place(bad, coins)
        for taken in (-1, 1.5, True):
            with pytest.raises(InvalidParameterError):
                evolve_in_place(np.zeros((2, 5), complex), coins, steps_taken=taken)


def reference_walks(amps: np.ndarray, coins: np.ndarray) -> np.ndarray:
    """``reference_step`` applied to every walk of a batch, one coin at a time."""
    out = amps.copy()
    for coin in coins:
        for i in np.ndindex(amps.shape[:-2]):
            out[i] = reference_step(out[i], coin[i])
    return out


def same_values(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal amplitudes and equal bytes of |a|^2; only the sign of a zero may differ."""
    return np.array_equal(a, b) and same_bits(np.abs(a) ** 2, np.abs(b) ** 2)


class TestLightConeCrop:
    """The kernel multiplies only the columns the light cone can reach.

    Lattices wider than the kernel's window quantum, so the windows really
    are narrower than the lattice for most steps.
    """

    @pytest.mark.parametrize("quantum", [4, 8, core._WINDOW_QUANTUM])
    @pytest.mark.parametrize("t_max", [100, 101])  # widths 201 and 203: 1 and 3 mod 4
    @pytest.mark.parametrize("batch", [(1,), (5,), (2, 3)])
    def test_walks_from_the_origin_match_the_reference(self, monkeypatch, quantum, t_max, batch):
        monkeypatch.setattr(core, "_WINDOW_QUANTUM", quantum)
        rng = np.random.default_rng(t_max)
        amps = np.zeros(batch + (2, 2 * t_max + 1), dtype=np.complex128)
        amps[..., t_max] = rng.normal(size=batch + (2,)) + 1j * rng.normal(size=batch + (2,))
        coins = random_unitaries(rng, (t_max,) + batch)
        expected = reference_walks(amps, coins)
        evolve_in_place(amps, coins)
        assert same_values(amps, expected)

    @pytest.mark.parametrize("t_max", [64, 65, 100])  # widths 129, 131 and 201
    @pytest.mark.parametrize("edge", [0, -1])
    def test_support_on_one_edge_column(self, t_max, edge):
        # the last column of width 129 starts a quantum of 64, so a window
        # holding only the support would be that one column, and a
        # one-column product goes through zgemv and rounds differently
        rng = np.random.default_rng(t_max)
        start = np.zeros((2, 2 * t_max + 1), dtype=np.complex128)
        start[:, edge] = rng.normal(size=2) + 1j * rng.normal(size=2)
        coins = random_unitaries(rng, (t_max,))
        seen = []

        def observe(t, a):
            assert same_values(a, reference_walks(start, coins[:t]))
            seen.append(t)

        amps = start.copy()
        evolve_in_place(amps, coins, observe=observe)
        assert seen == list(range(1, t_max + 1))
        assert same_values(amps, reference_walks(start, coins))

    def test_all_zero_amplitudes_stay_zero(self):
        amps = np.zeros((3, 2, 151), dtype=np.complex128)
        seen = []
        evolve_in_place(amps, random_unitaries(np.random.default_rng(1), (75, 3)),
                        observe=lambda t, a: seen.append((t, bool(np.any(a)))))
        assert seen == [(t, False) for t in range(1, 76)]
        assert not np.any(amps)

    def test_observe_gets_the_callers_array_holding_the_current_state(self):
        rng = np.random.default_rng(3)
        t_max, steps = 150, 40
        amps = np.zeros((2, 2, 2 * t_max + 1), dtype=np.complex128)
        amps[..., t_max - 3 : t_max + 4] = random_amplitudes(rng, (2, 2, 7))
        coins = random_unitaries(rng, (steps, 2))
        expected = amps.copy()
        seen = []

        def observe(t, a):
            nonlocal expected
            assert a is amps
            expected = reference_walks(expected, coins[len(seen) : len(seen) + 1])
            assert same_values(a, expected)
            seen.append(t)

        evolve_in_place(amps, coins, steps_taken=5, observe=observe)
        assert seen == list(range(6, 6 + steps))
        assert same_values(amps, expected)


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

        def observe(t, a):
            nonlocal expected
            expected = reference_walks(expected, coins[t - 1 : t])
            assert squared_bytes(a) == squared_bytes(expected)
            assert np.max(np.abs(a - expected)) <= 1e-300
            if t % core._FLUSH_PERIOD == 0:
                assert subnormal_parts(a) == 0
                flushed.append(subnormal_parts(expected))

        amps = start.copy()
        evolve_in_place(amps, coins, observe=observe)
        assert len(flushed) == self.STEPS // core._FLUSH_PERIOD
        assert max(flushed) > 0, "the reference never held a subnormal part to flush"
        assert squared_bytes(amps) == squared_bytes(expected)

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
        rng = np.random.default_rng(7)
        shape = (self.STEPS,) + batch
        angles = np.stack(
            [
                rng.uniform(0.0, HALF_PI, shape),
                rng.uniform(1.55, 1.5707, shape),
                rng.uniform(0.0, HALF_PI, shape),
            ],
            axis=-1,
        )
        coins = coin_matrices(angles.reshape(-1, 3)).reshape(shape + (2, 2))
        self.check_against_reference(self.start(batch), coins)


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

        def check(t, amplitudes):
            check_state(WalkState(60, amplitudes.copy(), t))
            seen.append(t)

        evolve(symmetric_state(60), coin_matrices(schedule), observe=check)
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
