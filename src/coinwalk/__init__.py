"""Discrete-time quantum walks on a line with per-step random coin operations.

The walker is a two-state particle on the integer lattice.  Each step mixes
its internal state with a 2x2 unitary coin and shifts the two components in
opposite directions.  Keeping the coin fixed gives ballistic spreading;
redrawing its parameters every step from suitable ranges makes the same
unitary dynamics diffuse like a classical walk or stay confined relative
to the ordered walk.  The package simulates single walks and seeded
ensembles, computes spread statistics, and ships a CLI that writes
reproducible CSV/JSON runs.
"""

from coinwalk import analysis, core, disorder, errors
from coinwalk.analysis import *  # noqa: F403
from coinwalk.core import *  # noqa: F403
from coinwalk.disorder import *  # noqa: F403
from coinwalk.errors import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *core.__all__, *disorder.__all__, *analysis.__all__, *errors.__all__]
