"""Every intermediate state of a walk, for the tests that check each step."""

import numpy as np

from coinwalk import core


def walk_states(amplitudes: np.ndarray, coins, steps_taken: int = 0):
    """Yield ``(t, state)`` after every step of a walk from ``amplitudes``.

    Builds each full (..., 2, 2*t_max + 1) ``state`` as ``core.evolve``
    writes its result back: the even and the odd columns that hold
    amplitude are two walks, each run by its own generator
    ``core._walk_steps``, and all-zero amplitudes are no walk.  Each
    generator's start state is skipped, and step by step the half lattice
    of each walk fills its parity of a zeroed ``state``.  Each ``state`` is
    a new array, and ``amplitudes`` is only read.  The arguments must be
    ones that the generator's callers check: complex128 amplitudes of shape
    (..., 2, 2*t_max + 1), coins of shape (steps, ..., 2, 2) and a lattice
    that holds every step, with no amplitude fewer than ``steps`` columns
    from either edge.
    """
    coins = np.asarray(coins, dtype=np.complex128)
    parity = np.arange(amplitudes.shape[-1]) % 2
    walks = {
        y: core._walk_steps(np.where(parity == y, amplitudes, 0), coins, steps_taken)
        for y in (0, 1) if amplitudes[..., y::2].any()
    }
    for walk in walks.values():
        next(walk)
    for k in range(1, len(coins) + 1):
        state = np.zeros(amplitudes.shape, dtype=np.complex128)
        for y, walk in walks.items():
            state[..., (y + k) % 2 :: 2] = next(walk)[1]
        yield steps_taken + k, state
