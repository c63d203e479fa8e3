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
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from coinwalk.errors import CapacityError, InvalidParameterError

__all__ = [
    "CoinParams",
    "InitialStateParams",
    "WalkState",
    "coin_matrices",
    "build_coin_matrix",
    "build_initial_state",
    "evolve",
    "step",
    "evolve_ordered",
    "check_state",
]


def _finite(name: str, value: float) -> float:
    out = float(value)
    if not math.isfinite(out):
        raise InvalidParameterError(f"{name} must be a finite real number, got {value!r}")
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
            object.__setattr__(self, name, _finite(name, getattr(self, name)))


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
            object.__setattr__(self, name, _finite(name, getattr(self, name)))


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
        if self.t_max < 0:
            raise InvalidParameterError(f"t_max must be >= 0, got {self.t_max}")
        expected = (2, 2 * self.t_max + 1)
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != expected:
            raise InvalidParameterError(
                f"amplitudes must have shape {expected}, got {self.amplitudes.shape}"
            )
        if not 0 <= self.steps_taken <= self.t_max:
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


def build_coin_matrix(params: CoinParams) -> np.ndarray:
    """Return the (2, 2) coin matrix of one angle triple; see :func:`coin_matrices`."""
    return coin_matrices([(params.xi, params.theta, params.zeta)])[0]


def build_initial_state(params: InitialStateParams, t_max: int) -> WalkState:
    """Place the walker at the origin of a lattice of half-width ``t_max``.

    All amplitude sits at x = 0: cos(delta/2) in the coin-|0> component and
    sin(delta/2)*exp(i*phi) in the coin-|1> component, so the norm is 1 up
    to one rounding of the trig identities.

    Raises
    ------
    InvalidParameterError
        If ``t_max`` is negative.
    """
    if t_max < 0:
        raise InvalidParameterError(f"t_max must be >= 0, got {t_max}")
    t_max = int(t_max)
    amps = np.zeros((2, 2 * t_max + 1), dtype=np.complex128)
    half = params.delta / 2.0
    amps[0, t_max] = math.cos(half)
    amps[1, t_max] = math.sin(half) * cmath.exp(1j * params.phi)
    return WalkState(t_max=t_max, amplitudes=amps, steps_taken=0)


def evolve(
    state: WalkState,
    coins,
    observe: Callable[[int, np.ndarray], None] | None = None,
) -> WalkState:
    """Apply one walk step per coin matrix, ``coins[0]`` first.

    A step mixes the two internal components at every site with the coin,
    then moves the whole post-coin |0> row from x to x-1 and the |1> row
    from x to x+1; amplitude shifted past the lattice edge is dropped and
    the vacated edge cell is zeroed.  A walk started inside the light cone
    never reaches the edge, because the lattice must hold every requested
    step.

    The steps run in place on two buffers allocated once per call, so a
    step allocates no arrays.

    Parameters
    ----------
    state : WalkState
        State to advance; not modified.
    coins : array_like
        Shape (steps, 2, 2): unitary coin matrices, e.g. from
        :func:`coin_matrices`.
    observe : callable, optional
        Called after every step as ``observe(steps_taken, amplitudes)``.
        ``amplitudes`` is the live (2, 2*t_max + 1) buffer: read it during
        the call, do not keep or modify it.

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
    coins = np.asarray(coins, dtype=np.complex128)
    if coins.ndim != 3 or coins.shape[1:] != (2, 2):
        raise InvalidParameterError(f"coins must have shape (steps, 2, 2), got {coins.shape}")
    if state.steps_taken + len(coins) > state.t_max:
        raise CapacityError(
            f"{len(coins)} more steps would exceed t_max={state.t_max} "
            f"(state already at {state.steps_taken} steps)"
        )
    amps = state.amplitudes.copy()
    mixed = np.empty_like(amps)
    # column i is site x = i - t_max: row 0 moves left, row 1 moves right.
    # The views are taken once; slicing anew each step costs more than the copy.
    moved_left, moved_right = amps[0, :-1], amps[1, 1:]
    from_right, from_left = mixed[0, 1:], mixed[1, :-1]
    for taken, coin in enumerate(coins, start=state.steps_taken + 1):
        np.matmul(coin, amps, out=mixed)
        moved_left[...] = from_right
        moved_right[...] = from_left
        amps[0, -1] = amps[1, 0] = 0.0
        if observe is not None:
            observe(taken, amps)
    return WalkState(state.t_max, amps, state.steps_taken + len(coins))


def step(state: WalkState, coin: np.ndarray) -> WalkState:
    """Advance the walk by one step with one (2, 2) coin; see :func:`evolve`.

    Raises
    ------
    CapacityError
        If the state has already taken ``t_max`` steps.
    InvalidParameterError
        If ``coin`` is not a 2x2 matrix.
    """
    return evolve(state, np.asarray(coin, dtype=np.complex128)[np.newaxis])


def evolve_ordered(initial: WalkState, coin: CoinParams, steps: int) -> WalkState:
    """Apply the same coin operation for ``steps`` consecutive steps.

    Raises
    ------
    CapacityError
        If the lattice cannot absorb that many further steps.
    InvalidParameterError
        If ``steps`` is negative.
    """
    if steps < 0:
        raise InvalidParameterError(f"steps must be >= 0, got {steps}")
    return evolve(initial, np.broadcast_to(build_coin_matrix(coin), (steps, 2, 2)))


def check_state(state: WalkState, norm_tol: float = 1e-10) -> None:
    """Assert the structural invariants of a walk state.

    Checks the norm budget, the light cone (zero amplitude beyond
    |x| = steps_taken) and the parity rule (exact zeros wherever
    x + steps_taken is odd).  Intended for tests and verification sweeps,
    not for hot loops.
    """
    n = state.norm()
    assert abs(n - 1.0) <= norm_tol, f"norm {n!r} drifted beyond {norm_tol}"
    x = state.positions
    outside = np.abs(x) > state.steps_taken
    assert np.all(state.amplitudes[:, outside] == 0), "amplitude outside the light cone"
    odd = (x + state.steps_taken) % 2 != 0
    assert np.all(state.amplitudes[:, odd] == 0), "amplitude on wrong-parity sites"
