"""Every intermediate state of a walk, for the tests that check each step."""

import numpy as np

from coinwalk import core


def walk_states(amplitudes: np.ndarray, coins, steps_taken: int = 0):
    """Yield ``(t, state)`` after every step of a walk from ``amplitudes``.

    Iterates the kernel's generator ``core._walk_steps`` and builds each
    full (..., 2, 2*t_max + 1) ``state`` as ``core.evolve`` writes its
    result back: the half lattice of each parity that holds amplitude, and
    +0.0 over a parity that holds none.  Each ``state`` is a new array, and
    ``amplitudes`` is only read.  The arguments must be ones that the
    generator's callers check: complex128 amplitudes of shape (..., 2,
    2*t_max + 1), coins of shape (steps, ..., 2, 2) and a lattice that
    holds every step.
    """
    coins = np.asarray(coins, dtype=np.complex128)
    for t, halves in core._walk_steps(amplitudes, coins, steps_taken):
        state = np.empty(amplitudes.shape, dtype=np.complex128)
        for y in (0, 1):
            state[..., y::2] = halves.get(y, 0)
        yield t, state
