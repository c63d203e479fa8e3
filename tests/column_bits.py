"""The facts about BLAS rounding that the step kernel's layout relies on.

Each check runs 300 random cases for one batch shape and fails an
``assert`` at the first case that breaks its fact.  ``tests/test_core.py``
calls the checks in process, and runs this file as a script in a fresh
interpreter under other OpenBLAS kernels: ``python tests/column_bits.py``
runs every check on every shape of ``BATCHES`` and exits with status 0 when
all of them hold.  The module needs numpy only.
"""

import numpy as np

#: Batch shapes each check runs on: no batch axes, and 5 walks.
BATCHES = [(), (5,)]


def random_amplitudes(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Amplitude on every column of ``shape``, the two outer ones included.

    Stepping it needs room on either side: see ``padded`` in
    ``tests/test_core.py``.
    """
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    assert np.all(amps[..., [0, -1]] != 0)
    return amps


def random_unitaries(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Random 2x2 unitaries (QR of complex Gaussians), outside the coin family."""
    z = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
    q, _ = np.linalg.qr(z)
    return q


def check_zgemm_column_bits(batch: tuple[int, ...]) -> None:
    """A column inside whole blocks of 4 gets the full product's bits wherever the block starts."""
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
        assert window.tobytes() == full[..., j0 : j0 + n].tobytes(), (width, j0, n)


def check_real_coin_column_bits(batch: tuple[int, ...]) -> None:
    """A real coin on the float64 view gives the complex product's bytes, zero signs included."""
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


if __name__ == "__main__":
    for batch in BATCHES:
        check_zgemm_column_bits(batch)
        check_real_coin_column_bits(batch)
