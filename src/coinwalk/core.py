"""Unitary evolution of a two-state walker on a one-dimensional lattice.

One walk step applies a 2x2 unitary coin operation to the walker's internal
state at every site, then shifts the coin-|0> component one site to the left
and the coin-|1> component one site to the right.  States live on the finite
lattice x in {-t_max, ..., +t_max}; the lattice must be wide enough to hold
the light cone of the requested number of steps, and stepping past that
width raises instead of wrapping around.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import numbers
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from coinwalk.errors import CapacityError, InvalidParameterError

__all__ = [
    "CoinParams",
    "InitialStateParams",
    "WalkState",
    "coin_matrices",
    "build_initial_state",
    "evolve_in_place",
    "evolve",
    "evolve_ordered",
    "check_state",
]


def finite_real(name: str, value) -> float:
    """Return ``value`` as a float if it is a finite real number, else raise.

    Bools and non-numbers are rejected rather than converted
    (``float(True)`` would silently give 1.0, ``float("2")`` 2.0).

    Raises
    ------
    InvalidParameterError
        If ``value`` is a bool, not a real number, or not finite (an
        integer beyond the float range included).
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        # an int beyond the float range raises OverflowError
        with contextlib.suppress(OverflowError):
            out = float(value)
            if math.isfinite(out):
                return out
    raise InvalidParameterError(f"{name} must be a finite real number, got {value!r}")


def exact_int(name: str, value) -> int:
    """Return ``value`` as an int if it is an exact integer, else raise.

    Python and numpy integers are accepted; bools and floats are rejected
    rather than truncated (``int(2.9)`` would silently give 2, ``True`` 1).

    Raises
    ------
    InvalidParameterError
        If ``value`` is a bool or not an integer.
    """
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidParameterError(f"{name} must be an integer, got {value!r}")


def exact_count(name: str, value) -> int:
    """Return ``value`` as an int if it is an exact integer >= 0; see :func:`exact_int`."""
    out = exact_int(name, value)
    if out < 0:
        raise InvalidParameterError(f"{name} must be >= 0, got {out}")
    return out


@dataclass(frozen=True)
class CoinParams:
    """Angle triple (xi, theta, zeta) selecting one U(2) coin operation.

    theta controls how strongly the two internal states mix; xi and zeta
    are phases.  Any finite values are accepted, though the experiments in
    this package draw all three from [0, pi/2].
    """

    xi: float
    theta: float
    zeta: float

    def __post_init__(self) -> None:
        for name in ("xi", "theta", "zeta"):
            object.__setattr__(self, name, finite_real(name, getattr(self, name)))


@dataclass(frozen=True)
class InitialStateParams:
    """Bloch angles (delta, phi) of the walker's internal state at the origin.

    The coin-|0> weight is cos(delta/2) and the coin-|1> weight is
    sin(delta/2) * exp(i*phi).  The defaults delta = phi = pi/2 give the
    equal superposition (|0> + i|1>)/sqrt(2), which makes the unbiased
    ordered walk spread symmetrically about the origin.
    """

    delta: float = math.pi / 2
    phi: float = math.pi / 2

    def __post_init__(self) -> None:
        for name in ("delta", "phi"):
            object.__setattr__(self, name, finite_real(name, getattr(self, name)))


@dataclass
class WalkState:
    """Complex amplitudes of the walker over (internal state) x (position).

    ``amplitudes`` has shape (2, 2*t_max + 1): row 0 is the coin-|0>
    component, row 1 the coin-|1> component, and column i is lattice site
    x = i - t_max.  ``steps_taken`` counts how many walk steps produced
    this state; it can never exceed ``t_max``.
    """

    t_max: int
    amplitudes: np.ndarray
    steps_taken: int = 0

    def __post_init__(self) -> None:
        self.t_max = exact_count("t_max", self.t_max)
        self.steps_taken = exact_count("steps_taken", self.steps_taken)
        expected = (2, 2 * self.t_max + 1)
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != expected:
            raise InvalidParameterError(
                f"amplitudes must have shape {expected}, got {self.amplitudes.shape}"
            )
        if self.steps_taken > self.t_max:
            raise InvalidParameterError(
                f"steps_taken must lie in [0, t_max={self.t_max}], got {self.steps_taken}"
            )

    @property
    def positions(self) -> np.ndarray:
        """Lattice coordinate of each amplitude column."""
        return np.arange(-self.t_max, self.t_max + 1)

    def norm(self) -> float:
        """L2 norm of the full amplitude array (1 for a healthy state)."""
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "WalkState":
        return WalkState(self.t_max, self.amplitudes.copy(), self.steps_taken)


def coin_matrices(params) -> np.ndarray:
    """Return one 2x2 unitary coin matrix per row of angle triples.

    Row k of ``params`` is (xi, theta, zeta) and gives the matrix::

        [[ exp(+i*xi)  * cos(theta),   exp(+i*zeta) * sin(theta)],
         [ exp(-i*zeta) * sin(theta),  -exp(-i*xi)  * cos(theta)]]

    which is unitary for every choice of finite angles.  (xi, pi/4, zeta)
    with zero phases is the Hadamard coin.  The phases are assembled from
    cos and sin and multiplied in the same order as scalar complex
    arithmetic would, so a row gives the same bits as evaluating the
    formula one triple at a time.

    Parameters
    ----------
    params : array_like
        Shape (steps, 3), finite angles in radians.

    Returns
    -------
    numpy.ndarray
        Shape (steps, 2, 2), dtype complex128.

    Raises
    ------
    InvalidParameterError
        If ``params`` is not (steps, 3) or holds a non-finite angle.
    """
    angles = np.asarray(params, dtype=np.float64)
    if angles.ndim != 2 or angles.shape[1] != 3:
        raise InvalidParameterError(f"params must have shape (steps, 3), got {angles.shape}")
    if not np.all(np.isfinite(angles)):
        raise InvalidParameterError("coin angles must be finite real numbers")
    xi, theta, zeta = angles.T
    c = np.cos(theta)
    s = np.sin(theta)
    exi = np.empty(len(angles), dtype=np.complex128)
    exi.real, exi.imag = np.cos(xi), np.sin(xi)
    eze = np.empty(len(angles), dtype=np.complex128)
    eze.real, eze.imag = np.cos(zeta), np.sin(zeta)
    coins = np.empty((len(angles), 2, 2), dtype=np.complex128)
    coins[:, 0, 0] = exi * c
    coins[:, 0, 1] = eze * s
    coins[:, 1, 0] = eze.conjugate() * s
    coins[:, 1, 1] = -exi.conjugate() * c
    return coins


def build_initial_state(params: InitialStateParams, t_max: int) -> WalkState:
    """Place the walker at the origin of a lattice of half-width ``t_max``.

    All amplitude sits at x = 0: cos(delta/2) in the coin-|0> component and
    sin(delta/2)*exp(i*phi) in the coin-|1> component, so the norm is 1 up
    to one rounding of the trig identities.

    Raises
    ------
    InvalidParameterError
        If ``t_max`` is negative or not an integer.
    """
    t_max = exact_count("t_max", t_max)
    amps = np.zeros((2, 2 * t_max + 1), dtype=np.complex128)
    half = params.delta / 2.0
    amps[0, t_max] = math.cos(half)
    amps[1, t_max] = math.sin(half) * cmath.exp(1j * params.phi)
    return WalkState(t_max=t_max, amplitudes=amps, steps_taken=0)


#: Columns by which the kernel's window grows; a multiple of 4.  zgemm
#: computes a product's columns in blocks of 4 and rounds the columns of a
#: last partial block differently, so a window that starts on a multiple of
#: 4 and is whole blocks long (or ends at the last column) gives each column
#: the bits of the full-lattice product.  Quanta of 16 to 64 timed the same;
#: 128 and 256 were slower on a 12,001-site walk.
_WINDOW_QUANTUM = 64

#: Steps between flushes of subnormal amplitude parts to +0.0 (see
#: :func:`evolve_in_place`).  Periods of 32 to 128 timed the same on the
#: 12,001-site Hadamard walk (16 and 256 were slower); 128 flushes a 200-step
#: ensemble once instead of three times, which measured about 2 % faster.
_FLUSH_PERIOD = 128


def evolve_in_place(
    amplitudes: np.ndarray,
    coins,
    *,
    steps_taken: int = 0,
    observe: Callable[[int, np.ndarray], None] | None = None,
) -> None:
    """Advance a batch of walks in place, one step per coin, ``coins[0]`` first.

    A step mixes the two internal components at every site with the coin,
    then moves the whole post-coin |0> row from x to x-1 and the |1> row
    from x to x+1; amplitude shifted past the lattice edge is dropped and
    the vacated edge cell is zeroed.  A walk started inside the light cone
    never reaches the edge, because the lattice must hold every requested
    step.  Walks in a batch are independent: walk ``i`` uses ``coins[:, i]``.

    This is the package's only step loop.  It multiplies only where the
    light cone reaches: the occupied columns [first, last] of the input are
    found once, and step k multiplies the window [first - k, last + k],
    widened outward to whole quanta of ``_WINDOW_QUANTUM`` columns; outside
    it every amplitude is exactly zero.  A window starts on a multiple of 4
    columns, is a multiple of 4 long or ends at the last column, and is
    never one column wide, so each column gets the bits that the
    full-lattice zgemm gives it (checked with OpenBLAS 0.3.31).  The steps
    alternate between two zero-padded buffers, and each product is written
    through a view of the next buffer whose row 1 starts two columns later
    than row 0, so it lands already shifted: a step copies nothing.
    After every step whose count ``steps_taken + k`` is a multiple of
    ``_FLUSH_PERIOD``, each real or imaginary part of the window below the
    smallest normal float64 (about 2.2e-308) is set to +0.0, before
    ``observe`` sees the state and before the next step reads it.  Such
    subnormal parts fill the exponentially small tails of long walks and
    make every multiply that touches them many times slower; each squares
    to exactly 0.  The result is copied into ``amplitudes`` once at the
    end, or after every step, window only, when ``observe`` is given.

    The amplitudes equal those of the full-lattice product except at the
    flushed parts and beside them, by less than 1e-306 (worst seen 8e-307;
    no differing amplitude exceeded 3e-291): far below half an ulp of any
    amplitude whose square is not 0.  Every |a|^2, distribution and moment
    was byte-identical on every case checked: the near-swap and random
    walks of the tests, every pinned output and every captured benchmark
    operation.  Exact zeros at sites the window skipped or flushed are +0
    where the full product may give -0.  The flush took the ordered
    Hadamard walk to t = 6000 from 0.67 s to 0.21 s, its second 3,000 steps
    from 0.60 s to 0.15 s (medians, numpy 2.4.6, 2 vCPUs).

    Parameters
    ----------
    amplitudes : numpy.ndarray
        Shape (..., 2, 2*t_max + 1), complex128; overwritten with the
        evolved amplitudes.  The leading axes index independent walks.
    coins : array_like
        Shape (steps, ..., 2, 2), the leading batch axes matching those of
        ``amplitudes``: one unitary coin per step and walk, e.g. from
        :func:`coin_matrices`.
    steps_taken : int
        Steps the walks have already taken; with ``len(coins)`` it must fit
        in ``t_max``.
    observe : callable, optional
        Called after every step as ``observe(steps_taken, amplitudes)``
        with the step count reached and the ``amplitudes`` array itself,
        holding the state after that step: read it during the call, do not
        keep or modify it.

    Raises
    ------
    CapacityError
        If the lattice cannot absorb that many further steps.
    InvalidParameterError
        If ``amplitudes`` is not a complex128 (..., 2, odd) array,
        ``coins`` does not have the matching (steps, ..., 2, 2) shape, or
        ``steps_taken`` is not a non-negative integer.
    """
    amps = amplitudes
    walk_shaped = amps.ndim >= 2 and amps.shape[-2] == 2 and amps.shape[-1] % 2 == 1
    if amps.dtype != np.complex128 or not walk_shaped:
        raise InvalidParameterError(
            f"amplitudes must be a complex128 (..., 2, 2*t_max + 1) array, "
            f"got {amps.dtype} {amps.shape}"
        )
    coins = np.asarray(coins, dtype=np.complex128)
    per_step = amps.shape[:-2] + (2, 2)
    if coins.shape[1:] != per_step or coins.ndim != len(per_step) + 1:
        raise InvalidParameterError(
            f"coins must have shape (steps, {', '.join(map(str, per_step))}), got {coins.shape}"
        )
    steps_taken = exact_count("steps_taken", steps_taken)
    width = amps.shape[-1]
    t_max = width // 2
    if steps_taken + len(coins) > t_max:
        raise CapacityError(
            f"{len(coins)} more steps would exceed t_max={t_max} "
            f"(state already at {steps_taken} steps)"
        )
    occupied = np.flatnonzero((amps != 0).any(axis=tuple(range(amps.ndim - 1))))
    # an all-zero batch stays zero, and any window computes that
    first, last = (int(occupied[0]), int(occupied[-1])) if occupied.size else (t_max, t_max)
    # column i is site x = i - t_max.  Each padded buffer holds the lattice in
    # columns 1 .. width; its "landing" view starts row 1 two columns further
    # on than row 0, so a product written there is already shifted: row 0 one
    # site left, row 1 one site right.  The pad columns catch what leaves the
    # lattice and the vacated edge cells are never written, so stay zero.
    buffers = [np.zeros(amps.shape[:-1] + (width + 2,), dtype=np.complex128) for _ in range(2)]
    lattices = [b[..., 1:-1] for b in buffers]
    landings = [
        as_strided(b, amps.shape, b.strides[:-2] + (b.strides[-2] + 2 * b.itemsize, b.itemsize))
        for b in buffers
    ]
    renew = 1
    for k, coin in enumerate(coins, start=1):
        if k == renew:
            # Step k reads a state that is zero outside [first - k + 1,
            # last + k - 1] and leaves one that is zero outside [first - k,
            # last + k].  Its window is the latter range widened to whole
            # quanta: it holds every column the step changes, and it is at
            # least two columns wide (a one-column product goes through zgemv
            # and rounds differently).  It changes only when the range
            # crosses a quantum boundary, so its views are rebuilt only then.
            lo = max(first - k, 0) // _WINDOW_QUANTUM * _WINDOW_QUANTUM
            hi = min(-(-(last + k + 1) // _WINDOW_QUANTUM) * _WINDOW_QUANTUM, width)
            never = len(coins) + 1
            renew = min(first - lo + 1 if lo else never, hi - last if hi < width else never)
            shown = amps[..., lo:hi]
            # step k reads buffer (k + 1) % 2 (the caller's array at k = 1)
            # and lands in buffer k % 2
            views = [
                (lattices[1 - i][..., lo:hi], landings[i][..., lo:hi], lattices[i][..., lo:hi])
                for i in (0, 1)
            ]
        source, landing, result = views[k % 2]
        np.matmul(coin, amps[..., lo:hi] if k == 1 else source, out=landing)
        if (steps_taken + k) % _FLUSH_PERIOD == 0:
            parts = result.view(np.float64)
            np.copyto(parts, 0.0, where=np.abs(parts) < np.finfo(np.float64).tiny)
        if observe is not None:
            shown[...] = result
            observe(steps_taken + k, amps)
    if observe is None and len(coins):
        shown[...] = result


def evolve(
    state: WalkState,
    coins,
    observe: Callable[[int, np.ndarray], None] | None = None,
) -> WalkState:
    """Apply one walk step per coin matrix, ``coins[0]`` first.

    The single-walk call of :func:`evolve_in_place`, on a copy of the
    state's amplitudes.

    Parameters
    ----------
    state : WalkState
        State to advance; not modified.
    coins : array_like
        Shape (steps, 2, 2): unitary coin matrices, e.g. from
        :func:`coin_matrices`.
    observe : callable, optional
        Called after every step as ``observe(steps_taken, amplitudes)``.
        ``amplitudes`` is the (2, 2*t_max + 1) array of the new state,
        holding the state after that step: read it during the call, do not
        keep or modify it.

    Returns
    -------
    WalkState
        New state with ``steps_taken`` increased by ``len(coins)``.

    Raises
    ------
    CapacityError
        If the lattice cannot absorb that many further steps.
    InvalidParameterError
        If ``coins`` is not a (steps, 2, 2) array.
    """
    amps = state.amplitudes.copy()
    evolve_in_place(amps, coins, steps_taken=state.steps_taken, observe=observe)
    return WalkState(state.t_max, amps, state.steps_taken + len(coins))


def evolve_ordered(initial: WalkState, coin: CoinParams, steps: int) -> WalkState:
    """Apply the same coin operation for ``steps`` consecutive steps.

    Raises
    ------
    CapacityError
        If the lattice cannot absorb that many further steps.
    InvalidParameterError
        If ``steps`` is negative or not an integer.
    """
    steps = exact_count("steps", steps)
    matrix = coin_matrices([(coin.xi, coin.theta, coin.zeta)])
    return evolve(initial, np.broadcast_to(matrix, (steps, 2, 2)))


#: Largest |norm - 1| that :func:`check_state` accepts.
_CHECK_NORM_TOL = 1e-10


def check_state(state: WalkState) -> None:
    """Assert the structural invariants of a walk state.

    Checks the norm to within 1e-10, the light cone (zero amplitude beyond
    |x| = steps_taken) and the parity rule (exact zeros wherever
    x + steps_taken is odd).  Intended for tests and verification sweeps,
    not for hot loops.
    """
    n = state.norm()
    assert abs(n - 1.0) <= _CHECK_NORM_TOL, f"norm {n!r} drifted beyond {_CHECK_NORM_TOL}"
    x = state.positions
    outside = np.abs(x) > state.steps_taken
    assert np.all(state.amplitudes[:, outside] == 0), "amplitude outside the light cone"
    odd = (x + state.steps_taken) % 2 != 0
    assert np.all(state.amplitudes[:, odd] == 0), "amplitude on wrong-parity sites"
