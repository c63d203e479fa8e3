"""Walk with static disorder: one coin per site, kept for every step.

The package's walk draws one coin per step, the same at every site.  Here
each site keeps its own coin for the whole walk, the spatial disorder under
which a walk localizes (Schreiber et al., PRL 106, 180403 (2011), observed
both kinds in one photonic walk).  Written elementwise, independent of the
step kernel.
"""

import numpy as np


def static_walk(amplitudes: np.ndarray, coins: np.ndarray, steps: int):
    """Yield ``(t, state)`` after each of ``steps`` steps from ``amplitudes``.

    ``amplitudes`` has shape (..., 2, n) and ``coins`` shape (..., n, 2, 2):
    site i applies ``coins[..., i, :, :]`` at every step.  Then the coin-|0>
    row moves one site left and the coin-|1> row one site right; amplitude
    shifted past the lattice edge is dropped.
    """
    a = np.asarray(amplitudes, dtype=np.complex128)
    for t in range(1, steps + 1):
        up = coins[..., 0, 0] * a[..., 0, :] + coins[..., 0, 1] * a[..., 1, :]
        down = coins[..., 1, 0] * a[..., 0, :] + coins[..., 1, 1] * a[..., 1, :]
        a = np.zeros_like(a)
        a[..., 0, :-1] = up[..., 1:]
        a[..., 1, 1:] = down[..., :-1]
        yield t, a
