"""Unitary evolution of a two-state walker on a one-dimensional lattice.

One walk step applies a 2x2 unitary coin operation to the walker's internal
state at every site, then shifts the coin-|0> component one site to the left
and the coin-|1> component one site to the right.  States live on the finite
lattice x in {-t_max, ..., +t_max}; the light cone of the occupied sites
must fit the lattice for the requested number of steps, and an evolution
that would move amplitude past an edge raises instead of wrapping around or
dropping it.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import numbers
import operator
from dataclasses import dataclass, replace

import numpy as np

from coinwalk.errors import CapacityError, InvalidParameterError

__all__ = [
    "CoinParams",
    "InitialStateParams",
    "WalkState",
    "coin_matrices",
    "build_initial_state",
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


def exact_count(name: str, value, floor: int = 0) -> int:
    """Return ``value`` as an int if it is an exact integer >= ``floor``; see :func:`exact_int`."""
    out = exact_int(name, value)
    if out < floor:
        raise InvalidParameterError(f"{name} must be >= {floor}, got {out}")
    return out


def instance_of(name: str, value, cls: type):
    """Return ``value`` if it is an instance of ``cls``, else raise.

    The message reads "{name} must be a {cls}", or "an" before a class
    name that starts with a vowel.

    Raises
    ------
    InvalidParameterError
        If ``value`` is not a ``cls``, ``None`` included.
    """
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise InvalidParameterError(f"{name} must be {article} {cls.__name__}, got {value!r}")
    return value


def finite_array(name: str, value, dtype: type) -> np.ndarray:
    """Return ``value`` as a ``dtype`` array if it is finite and casts to one safely, else raise.

    ``dtype`` is ``np.float64`` or ``np.complex128``.  Integer, float and
    complex dtypes that numpy casts to ``dtype`` safely are accepted; bools,
    strings, objects (a Python int beyond uint64 included) and wider types
    such as longdouble are rejected rather than converted or narrowed
    (``np.asarray([True], float)`` would silently give 1.0, ``["1"]`` 1.0).
    So is a bool among numbers in input that is not an ndarray
    (``np.asarray([True, 0.5])`` would give 1.0), and nesting of uneven
    lengths.  This is the one rule for every array the package reads.

    Raises
    ------
    InvalidParameterError
        If ``value`` does not become such a numpy array, or holds a bool or
        a value that is not finite; the message names the argument, and the
        first such value or the dtype.
    """
    def unfit(got: str) -> InvalidParameterError:
        kinds = ("real integers or floats" if dtype == np.float64
                 else "integers, floats or complex numbers")
        return InvalidParameterError(f"{name} must be {kinds} that fit {dtype.__name__}, got {got}")

    try:
        out = np.asarray(value)
    except ValueError:  # nesting of uneven lengths
        raise unfit("ragged nesting") from None
    if out.dtype.kind not in "iufc" or not np.can_cast(out.dtype, dtype):
        raise unfit(f"dtype {out.dtype}")
    if not isinstance(value, np.ndarray):
        # np.asarray reads a bool among numbers as 1 or 0
        for element in np.asarray(value, dtype=object).flat:
            if isinstance(element, (bool, np.bool_)):
                raise unfit(f"bool {element!r}")
    if not (finite := np.isfinite(out)).all():
        raise InvalidParameterError(f"{name} must be finite, got {out[~finite][0].item()!r}")
    return out.astype(dtype, copy=False)


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
    this state; it can never exceed ``t_max``.  The amplitudes must pass
    :func:`finite_array` as complex128.
    """

    t_max: int
    amplitudes: np.ndarray
    steps_taken: int = 0

    def __post_init__(self) -> None:
        self.t_max = exact_count("t_max", self.t_max)
        self.steps_taken = exact_count("steps_taken", self.steps_taken)
        expected = (2, 2 * self.t_max + 1)
        self.amplitudes = finite_array("amplitudes", self.amplitudes, np.complex128)
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
        Shape (steps, 3), finite integer or float angles in radians.

    Returns
    -------
    numpy.ndarray
        Shape (steps, 2, 2), dtype complex128.

    Raises
    ------
    InvalidParameterError
        If ``params`` is not (steps, 3) or does not pass
        :func:`finite_array` as float64.
    """
    angles = finite_array("coin angles", params, np.float64)
    if angles.ndim != 2 or angles.shape[1] != 3:
        raise InvalidParameterError(f"params must have shape (steps, 3), got {angles.shape}")
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
        If ``params`` is not an :class:`InitialStateParams`, or ``t_max`` is
        negative or not an integer.
    """
    instance_of("params", params, InitialStateParams)
    t_max = exact_count("t_max", t_max)
    amps = np.zeros((2, 2 * t_max + 1), dtype=np.complex128)
    half = params.delta / 2.0
    amps[0, t_max] = math.cos(half)
    amps[1, t_max] = math.sin(half) * cmath.exp(1j * params.phi)
    return WalkState(t_max=t_max, amplitudes=amps, steps_taken=0)


#: Steps between flushes of subnormal amplitude parts to +0.0, counted from
#: the walk's start.  The next window grows from the support each flush
#: finds (see :func:`_walk_steps`).  The flush steps are part of the output
#: bits: flushing at other steps moves some amplitude parts of a long walk.
#: Periods of 32 to 128 timed the same on the 12,001-site Hadamard walk (16
#: and 256 were slower); 128 flushes a 200-step ensemble once instead of
#: three times, which measured about 2 % faster.
_FLUSH_PERIOD = 128

#: Steps between the renewals of every walk's window, lone or batched,
#: counted from the walk's start like ``_FLUSH_PERIOD``.  It must divide
#: ``_FLUSH_PERIOD``, so that each flush is followed by a renewal that crops
#: the window to the support the flush found.  A window renewed every 16
#: steps covers the light cone of those steps only: a 200-step theta-high
#: walk multiplies 21,568 sublattice columns instead of the 30,784 of a
#: window renewed at flushes only.  A lone 6,000-step walk multiplies about
#: 2 % fewer, which its 375 renewals cost back and a little more (1.02x in
#: process); one rule keeps the loop free of a branch on batch size.
_RENEW_PERIOD = 16


def _walk_steps(amps: np.ndarray, coins: np.ndarray, steps_taken: int):
    """Step a batch of walks from ``amps``, one step per coin, ``coins[0]`` first.

    A step mixes the two internal components at every site with the coin,
    then moves the whole post-coin |0> row from x to x-1 and the |1> row
    from x to x+1.  Walks in a batch are independent: walk ``i`` uses
    ``coins[:, i]``.  ``amps`` is read before the first yield and never
    written.

    This is the package's only step loop.  Its callers, :func:`evolve` and
    ``analysis.run_ensembles``, check its arguments and meet its three
    preconditions.  The light cone of the occupied columns fits the
    lattice: every occupied column lies at least ``len(coins)`` columns
    from either edge, so no step moves amplitude past one.  :func:`evolve`
    checks this, and ``run_ensembles`` meets it by construction, since its
    walks start at the origin of a lattice of half-width ``steps``.  At
    least one column is occupied: :func:`evolve` steps an all-zero state as
    no walk, and a walk from the origin holds amplitude there.  And all of
    the batch's amplitude lies on the parity of its first occupied column,
    as it does after any number of steps from one site.

    A step moves every amplitude from a column of one parity to columns of
    the other, so the walks are stepped on half the lattice.  They live in
    two zero-padded buffers, one per parity, which hold sublattice index j
    (lattice column 2j + parity) in buffer column j + 1 + parity.  A product
    over indices [lo, hi) of either parity is written through a view of the
    other buffer whose row 1 starts one column later than row 0, so it lands
    already shifted: even to odd moves row 0 from j to j - 1 and keeps row 1
    at j, odd to even keeps row 0 at j and moves row 1 to j + 1.  Only the
    input's occupied columns [first, last] are loaded into the zeroed
    buffers, and the support is found again after every flush (below).  The
    window, the indices [lo, hi) that every step multiplies, is renewed by
    one rule whatever the batch: before step 1 and after each step whose
    count ``steps_taken + k`` is a multiple of ``_RENEW_PERIOD``, which
    every flush step is.  It is kept until the next renewal or the last
    step, and covers the columns that the light cone from the support last
    found reaches by then, [first - s + 1, last + s - 1] for the input's up
    to step s, widened outward to whole blocks of 4 indices; outside it
    every amplitude is exactly zero.  The amplitudes equal those of the
    full-lattice zgemm product zero-padded to whole blocks of 4 columns and
    flushed at the same steps (below), so they do not depend on the lattice
    width, on the window or on where the walk sits inside a longer one.  Two
    rules keep this (checked with numpy 2.4.6 and OpenBLAS 0.3.31; the
    kernel tests pin both):

    (i) a column inside whole blocks of 4 gets the bits the full product
        gives it wherever the block starts, so every window starts on a
        multiple of 4 and is whole blocks long;
    (ii) when no coin of the batch has a non-zero imaginary part, a
        contiguous copy of the coins' real parts multiplies float64 views
        of the buffers, each amplitude a real and an imaginary column, on
        dgemm at half zgemm's arithmetic.  On whole blocks of 4 amplitudes
        that gives zgemm's bytes, zero signs included: zgemm rounds like
        two real products joined by one add, and with imaginary parts of
        +-0 the second product adds only zeros.  A batch that mixes real
        and complex coins stays on zgemm.

    After every step whose count ``steps_taken + k`` is a multiple of
    ``_FLUSH_PERIOD``, each real or imaginary part of the landed window
    below the smallest normal float64 (about 2.2e-308) is set to +0.0
    before the next step reads it.  Such subnormal parts fill the
    exponentially small tails of long walks and make every multiply that
    touches them many times slower; each squares to exactly 0.  The flush
    then finds the occupied columns of the landed state, and the next window
    grows from them, narrower than the last where a flushed tail was the
    edge of the support.  So the other parity's buffer, which holds the
    state two steps back and takes the next step's landing, is cleared at
    every flush that finds a support: the next window need not overwrite
    all of it.  Between flushes a window only grows, so it overwrites
    whatever the last one wrote.

    The amplitudes equal, bit for bit, those of the padded product flushed
    over the whole lattice after the same steps; exact zeros at sites the
    window skipped are +0 where the full product may give -0.  The flush
    steps are thus part of the output bits.  Against the padded product
    without flushes, each flushed part perturbs the amplitudes beside it,
    and on a long walk the perturbation reaches |a|^2: on the 6,000-step
    full-range walk of master seed 0, 5,070 amplitude parts differ, by up
    to 6.3e-132, and ``p`` differs at 320 sites, each below 2.1e-231, by at
    most 8.4e-14 relative; the first such ``p`` appears between t = 5,250
    and 5,500, and the variance keeps every bit.  Flushing every 64 steps
    instead moves 5,571 parts, by up to 8.2e-113.

    Parameters
    ----------
    amps : numpy.ndarray
        Shape (..., 2, 2*t_max + 1), complex128.  The leading axes index
        independent walks.
    coins : numpy.ndarray
        Shape (steps, ..., 2, 2), complex128, the leading batch axes
        matching those of ``amps``: one unitary coin per step and walk.
    steps_taken : int
        Steps the walks have already taken; with ``len(coins)`` it fits in
        ``t_max``.

    Yields
    ------
    tuple
        ``(t, half)`` for the start state at t = ``steps_taken``, then
        after the step that reaches each count t.  ``half`` is the (..., 2,
        t_max + 1 - y) view of the kernel buffer holding the lattice parity
        y that the walks occupy after t steps, whose index j is lattice
        column 2j + y; the other parity is zero.  The views are the
        kernel's own buffers, valid until the generator is advanced: read
        them, do not keep or modify them.
    """
    t_max = amps.shape[-1] // 2
    rows = tuple(range(amps.ndim - 1))  # every axis but the columns
    occupied = np.flatnonzero((amps != 0).any(axis=rows))
    first, last = int(occupied[0]), int(occupied[-1])
    # step k reads a state that is zero outside lattice columns [left - k,
    # right + k]; each flush moves them to the support it leaves
    left, right = first + 1, last - 1
    if not coins.imag.any():
        # (ii): the copy is contiguous, so each step is one dgemm call
        coins = np.ascontiguousarray(coins.real)
    # Lattice column c sits in buffer column (c + 1) // 2 + 1 of its parity's
    # buffer, so parity x holds its t_max + 1 - x indices in columns [1 + x,
    # t_max + 2), and columns from t_max + 2 on lie past the right edge.
    # Windows end at most at index `size`, a whole block of 4, and one more
    # column takes what lands from the last one.
    size = -(-(t_max + 1) // 4) * 4
    row = size + 2
    # buffers[s] holds the walks after a number of steps of parity s, on
    # lattice parity (first + s) % 2.  Each walk's buffer is one flat run of
    # cells, seen as two rows of `row` columns and as two "landing" rows of
    # row + 1 columns that start one column in: a product written there has
    # row 1 one column later than row 0.
    store = np.zeros((2,) + amps.shape[:-2] + (2 * row + 3,), np.complex128)
    buffers = store[..., : 2 * row].reshape(store.shape[:-1] + (2, row))
    landings = store[..., 1 : 2 * row + 3].reshape(store.shape[:-1] + (2, row + 1))[..., :size]
    halves = [buffers[s][..., 1 + (first + s) % 2 : t_max + 2] for s in (0, 1)]
    halves[0][..., first // 2 : last // 2 + 1] = amps[..., first : last + 1 : 2]
    yield steps_taken, halves[0]

    renew = 1
    for k, coin in enumerate(coins, start=1):
        if k == renew:
            # Steps k to `stop`, the next step whose count is a multiple of
            # _RENEW_PERIOD or the last, read lattice columns
            # [left - stop, right + stop], of indices
            # [(left - stop) // 2, (right + stop) // 2] on either parity,
            # which the window widens to whole blocks of 4.  The light cone
            # fits the lattice, so the window lies in [0, size).
            stop = min(len(coins), k - 1 + _RENEW_PERIOD - (steps_taken + k - 1) % _RENEW_PERIOD)
            renew = stop + 1
            lo = (left - stop) // 2 // 4 * 4
            hi = -(-((right + stop) // 2 + 1) // 4) * 4
            # On steps k = s mod 2 the walks are read from buffers[1 - s], of
            # lattice parity (first + s + 1) % 2, whose index j sits in buffer
            # column j + 1 + that parity, and land in buffers[s].  Real coins
            # see both as float64, each amplitude its real and imaginary part.
            views = [
                (buffers[1 - s][..., lo + shift : hi + shift].view(coins.dtype),
                 landings[s][..., lo:hi].view(coins.dtype), buffers[s][..., lo + 1 : hi + 2])
                for s, shift in ((0, 1 + (first + 1) % 2), (1, 1 + first % 2))
            ]
        source, landing, result = views[k % 2]
        np.matmul(coin, source, out=landing)
        if (steps_taken + k) % _FLUSH_PERIOD == 0:
            parts = result.view(np.float64)
            np.copyto(parts, 0.0, where=np.abs(parts) < np.finfo(np.float64).tiny)
            occupied = np.flatnonzero(halves[k % 2].any(axis=rows))
            # a state of subnormal parts only flushes to zero and keeps its light cone
            if occupied.size:
                # index j of the landed half is lattice column 2j + (first + k) % 2
                start, end = (2 * occupied[[0, -1]] + (first + k) % 2).tolist()
                # the next step lands on the state two steps back, which the
                # next window may no longer cover
                buffers[1 - k % 2].fill(0)
                left, right = start + k + 1, end - k - 1
        yield steps_taken + k, halves[k % 2]


def checked_state(state: WalkState) -> WalkState:
    """Return a new state that shares ``state``'s fields, checked as a new state's are.

    A state is mutable, so its fields may have been reassigned since it was
    made.  The amplitudes are shared, not copied.

    Raises
    ------
    InvalidParameterError
        If ``state`` is not a :class:`WalkState`, or one of its fields fails
        the checks of a new ``WalkState``.
    """
    return replace(instance_of("state", state, WalkState))


def evolve(state: WalkState, coins) -> WalkState:
    """Apply one walk step per coin matrix, ``coins[0]`` first.

    Runs the package's step loop, :func:`_walk_steps`, on the state's
    amplitudes, which it only reads, and writes the result into a new
    zeroed state.  Every argument is checked before the first step.  A
    step moves every amplitude to a column of the other parity, so the even
    and the odd columns of a state are two walks that never meet: a state
    that holds amplitude on both is stepped as two walks, and a state from
    one site, at any step, is one walk.  Called one coin at a time it gives
    every intermediate state, with the amplitudes and the |a|^2 bytes of
    one continuous walk.  With no coins it returns a copy, and an all-zero
    state is no walk: it stays zero.

    No amplitude leaves the lattice: a state that holds amplitude fewer
    than ``len(coins)`` columns from either edge raises before any step,
    as do more steps than ``t_max`` allows.  A walk from the origin passes
    both checks for all of its ``t_max`` steps; a hand-built
    ``WalkState(3, a, 0)`` with ``a[:, 0] = (1, 1)/sqrt(2)`` raises at one
    step.

    Parameters
    ----------
    state : WalkState
        State to advance; not modified.  Its fields are checked again, as
        a new ``WalkState``'s are, since they may have been reassigned.
    coins : array_like
        Shape (steps, 2, 2): unitary coin matrices, e.g. from
        :func:`coin_matrices`.

    Returns
    -------
    WalkState
        New state with ``steps_taken`` increased by ``len(coins)``.

    Raises
    ------
    CapacityError
        If ``state.steps_taken + len(coins)`` exceeds ``state.t_max``, or
        an occupied column lies fewer than ``len(coins)`` columns from an
        edge of the lattice.
    InvalidParameterError
        If ``state`` is not a :class:`WalkState`, ``coins`` is not a
        (steps, 2, 2) array that passes :func:`finite_array` as
        complex128, or a field of ``state`` fails the checks of a new
        ``WalkState``.
    """
    # checks the fields as a new state's, and shares the amplitudes, which
    # are only read: the result is written into a zeroed array
    out = checked_state(state)
    coins = finite_array("coins", coins, np.complex128)
    if coins.shape[1:] != (2, 2):
        raise InvalidParameterError(f"coins must have shape (steps, 2, 2), got {coins.shape}")
    end = out.steps_taken + len(coins)
    if end > out.t_max:
        raise CapacityError(
            f"{len(coins)} more steps would exceed t_max={out.t_max} "
            f"(state already at {out.steps_taken} steps)"
        )
    occupied = np.flatnonzero(out.amplitudes.any(axis=0))
    if occupied.size and min(occupied[0], 2 * out.t_max - occupied[-1]) < len(coins):
        raise CapacityError(f"{len(coins)} steps would move amplitude past a lattice edge")
    amps, out.amplitudes = out.amplitudes, np.zeros_like(out.amplitudes)
    walks = [y for y in (0, 1) if amps[:, y::2].any()]
    for y in walks:
        walk = amps if len(walks) == 1 else np.where(np.arange(amps.shape[-1]) % 2 == y, amps, 0)
        for t, half in _walk_steps(walk, coins, out.steps_taken):
            if t == end:
                out.amplitudes[:, (y + len(coins)) % 2 :: 2] = half
    out.steps_taken = end
    return out


def evolve_ordered(initial: WalkState, coin: CoinParams, steps: int) -> WalkState:
    """Apply the same coin operation for ``steps`` consecutive steps.

    Raises
    ------
    CapacityError
        If the lattice cannot absorb that many further steps.
    InvalidParameterError
        If ``coin`` is not a :class:`CoinParams`, or ``steps`` is negative
        or not an integer.
    """
    coin = instance_of("coin", coin, CoinParams)
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

    Raises
    ------
    InvalidParameterError
        If ``state`` is not a :class:`WalkState`, or one of its fields fails
        the checks of a new ``WalkState``, before any check (a state's fields
        may have been reassigned since it was made).
    """
    state = checked_state(state)
    n = state.norm()
    # raised explicitly, so that the checks also run under python -O
    if not abs(n - 1.0) <= _CHECK_NORM_TOL:
        raise AssertionError(f"norm {n!r} drifted beyond {_CHECK_NORM_TOL}")
    x = state.positions
    if np.any(state.amplitudes[:, np.abs(x) > state.steps_taken]):
        raise AssertionError("amplitude outside the light cone")
    if np.any(state.amplitudes[:, (x + state.steps_taken) % 2 != 0]):
        raise AssertionError("amplitude on wrong-parity sites")
