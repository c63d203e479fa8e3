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

from coinwalk.analysis import (
    EnsembleStats,
    PositionDistribution,
    RunMetrics,
    classical_rw_distribution,
    distribution_from_state,
    localization_length,
    metrics_from_distribution,
    run_ensemble,
    spreading_exponent,
    symmetry_deviation,
    variance,
)
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
)
from coinwalk.disorder import (
    ORDERED,
    PER_STEP_RANDOM,
    PRESET_NAMES,
    SEED_MIXER_ID,
    DisorderSpec,
    ParameterRange,
    derive_stream_seed,
    evolve_disordered,
    preset_spec,
    sample_schedule,
)
from coinwalk.errors import (
    CapacityError,
    InvalidParameterError,
    NormDriftError,
    WalkError,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "CoinParams",
    "InitialStateParams",
    "WalkState",
    "coin_matrices",
    "build_initial_state",
    "evolve_in_place",
    "evolve",
    "evolve_ordered",
    "check_state",
    # disorder
    "ORDERED",
    "PER_STEP_RANDOM",
    "PRESET_NAMES",
    "SEED_MIXER_ID",
    "ParameterRange",
    "DisorderSpec",
    "preset_spec",
    "derive_stream_seed",
    "sample_schedule",
    "evolve_disordered",
    # analysis
    "PositionDistribution",
    "RunMetrics",
    "EnsembleStats",
    "distribution_from_state",
    "variance",
    "classical_rw_distribution",
    "localization_length",
    "spreading_exponent",
    "symmetry_deviation",
    "metrics_from_distribution",
    "run_ensemble",
    # errors
    "WalkError",
    "InvalidParameterError",
    "CapacityError",
    "NormDriftError",
]
