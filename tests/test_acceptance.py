"""End-to-end acceptance suite.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one ``[PASS]`` or
``[FAIL]`` line per criterion.

Known red: criterion 4's localized-regime clause requires a variance
spreading exponent below 0.5 for the theta-high walk.  Redrawing the coin
every step confines the distribution relative to the ordered walk (the
spread ratio of criterion 5 is ~0.08 and falling), but the ensemble-mean
variance itself grows diffusively, variance ~ 0.4 * t, an exponent of ~1.05
on every sampling variant we measured.  The bound is asserted as written
and fails; see the repository notes for the full analysis.  The same
theta-high coins drawn once per site and kept for every step localize
(``test_static_disorder_localizes``: exponent 0.19 at R=50).

Pilot reference (master_seed=20260808, R=200, recorded 2026-08-08):
  exponents over t in {25,50,100,200}:
    hadamard-ordered 1.9985, full-range 1.0107, theta-high 1.0474
  spread ratio theta-high vs hadamard-ordered (sigma of ensemble-mean
  variance): t=200 -> 0.0821, t=400 -> 0.0584
  ordered-walk variance at t=200 vs (1 - sin(theta)) * t**2:
    theta=pi/6 +0.003%, pi/4 +0.004%, pi/3 +0.009%
"""

import math
import time

import numpy as np
import pytest

from coinwalk.analysis import (
    distribution_from_state,
    localization_length,
    run_ensemble,
    spreading_exponent,
    variance,
)
from coinwalk.cli import main
from coinwalk.core import (
    CoinParams,
    InitialStateParams,
    build_initial_state,
    check_state,
    coin_matrices,
    evolve_ordered,
)
from coinwalk.disorder import PRESET_NAMES, evolve_disordered, preset_spec, sample_schedule

from oracle_dense import dense_evolve
from oracle_static import static_walk
from walk_states import walk_states

MASTER_SEED = 20260808
SYM = InitialStateParams()

REGIME_PRESETS = ("hadamard-ordered", "full-range", "theta-high")
FIT_TIMES = (25, 50, 100, 200)

EXPONENT_WINDOWS = {
    "hadamard-ordered": (1.8, 2.0),
    "full-range": (0.8, 1.3),
}
THETA_HIGH_EXPONENT_MAX = 0.5
LOC_LENGTH_MAX_T200 = 0.2


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def regime_t200():
    """Ensemble per-step variances at t=200, R=200, for the three regimes."""
    start = time.perf_counter()
    data = {
        preset: run_ensemble(
            preset_spec(preset), SYM, 200, 200, MASTER_SEED, track_per_step=True
        ).per_step_variance
        for preset in REGIME_PRESETS
    }
    return data, time.perf_counter() - start


@pytest.fixture(scope="module")
def loc_t400():
    """Per-step variances at t=400: theta-high ensemble and ordered reference."""
    disordered = run_ensemble(
        preset_spec("theta-high"), SYM, 400, 200, MASTER_SEED, track_per_step=True
    ).per_step_variance
    ordered = run_ensemble(
        preset_spec("hadamard-ordered"), SYM, 400, 1, MASTER_SEED, track_per_step=True
    ).per_step_variance
    return disordered, ordered


def test_criterion_1_variance_growth_law():
    """Ordered unbiased walk variance tracks (1 - sin(theta)) * t**2."""
    start = time.perf_counter()
    t = 200
    worst = 0.0
    details = []
    for theta in (math.pi / 6, math.pi / 4, math.pi / 3):
        state = evolve_ordered(build_initial_state(SYM, t), CoinParams(0.0, theta, 0.0), t)
        measured = variance(distribution_from_state(state))
        law = (1.0 - math.sin(theta)) * t * t
        rel = abs(measured - law) / law
        worst = max(worst, rel)
        details.append(f"theta={theta:.4f} rel_err={rel:.2e}")
    elapsed = time.perf_counter() - start
    ok = worst < 0.05 and elapsed < 1.0
    report(
        "criterion 1 (variance law)",
        ok,
        f"{'; '.join(details)}; runtime {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_2_dense_operator_oracle():
    """Every intermediate state of the kernel matches the dense operator product, t <= 8."""
    start = time.perf_counter()
    t_max = 8
    worst = 0.0
    observed = 0
    for preset in PRESET_NAMES:
        schedule = sample_schedule(preset_spec(preset), t_max, MASTER_SEED)
        reference = build_initial_state(SYM, t_max).amplitudes
        for t, amplitudes in walk_states(reference, coin_matrices(schedule)):
            reference = dense_evolve(reference, [schedule[t - 1]])
            worst = max(worst, float(np.max(np.abs(amplitudes - reference))))
            observed += 1
    assert observed == t_max * len(PRESET_NAMES)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    report(
        "criterion 2 (dense oracle, t<=8)",
        ok,
        f"max entrywise deviation {worst:.2e} over all presets; "
        f"runtime {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_3_exact_micro_cases():
    """Closed-form micro walks are reproduced exactly (1e-12)."""
    failures = []

    dist = distribution_from_state(
        evolve_ordered(build_initial_state(SYM, 2), CoinParams(0.0, math.pi / 4, 0.0), 2)
    )
    if np.max(np.abs(dist.p - np.array([0.25, 0.0, 0.5, 0.0, 0.25]))) > 1e-12:
        failures.append("hadamard t=2")

    for t in (2, 10, 50):
        state = evolve_ordered(build_initial_state(SYM, t), CoinParams(0.0, math.pi / 2, 0.0), t)
        p = distribution_from_state(state).p
        if abs(p[t] - 1.0) > 1e-12:  # index t is x = 0
            failures.append(f"swap coin t={t}")

    for t in (1, 7, 50):
        state = evolve_ordered(build_initial_state(SYM, t), CoinParams(0.0, 0.0, 0.0), t)
        p = distribution_from_state(state).p
        if abs(p[0] - 0.5) > 1e-12 or abs(p[-1] - 0.5) > 1e-12:
            failures.append(f"diagonal coin t={t}")

    report(
        "criterion 3 (exact micro-cases)",
        not failures,
        "all exact within 1e-12" if not failures else f"failed: {', '.join(failures)}",
    )


def test_criterion_4_regime_separation(regime_t200):
    """Variance exponents separate ballistic, diffusive, and confined regimes.

    The theta-high clause (< 0.5) fails by design of the dynamics: temporal
    coin disorder gives variance ~ 0.4 * t (exponent ~1.05), and the
    confinement is visible in the spread ratio instead (criterion 5).
    The bound is asserted as specified rather than adjusted to pass.
    """
    data, elapsed = regime_t200
    exponents = {
        preset: spreading_exponent([(t, series[t]) for t in FIT_TIMES])
        for preset, series in data.items()
    }
    clauses = []
    ok = True
    for preset, (lo, hi) in EXPONENT_WINDOWS.items():
        good = lo <= exponents[preset] <= hi
        ok &= good
        clauses.append(f"{preset}={exponents[preset]:.4f} (window [{lo}, {hi}])")
    theta_high_ok = exponents["theta-high"] < THETA_HIGH_EXPONENT_MAX
    ok &= theta_high_ok
    clauses.append(
        f"theta-high={exponents['theta-high']:.4f} (required < {THETA_HIGH_EXPONENT_MAX})"
    )
    ok &= elapsed < 120.0
    report(
        "criterion 4 (regime separation)",
        ok,
        f"{'; '.join(clauses)}; runtime {elapsed:.1f}s (budget 120s)",
    )


def test_static_disorder_localizes():
    """Coins random in space, not in time, give criterion 4's theta-high exponent.

    The contrast to criterion 4's red clause: one theta-high coin drawn per
    site and kept for every step (``oracle_static``) localizes, while the
    package's coin, redrawn every step and the same at every site, diffuses.
    """
    steps, realizations = 200, 50
    width = 2 * steps + 1
    x = np.arange(-steps, steps + 1, dtype=np.float64)
    coins = np.stack([
        coin_matrices(sample_schedule(preset_spec("theta-high"), width, MASTER_SEED, r))
        for r in range(realizations)
    ])
    start = build_initial_state(SYM, steps).amplitudes
    series = []
    for t, amps in static_walk(np.broadcast_to(start, (realizations, 2, width)), coins, steps):
        if t in FIT_TIMES:
            p = (np.abs(amps) ** 2).sum(axis=-2)
            mean = p @ x
            series.append((t, float(np.mean(p @ (x * x) - mean * mean))))
    exponent = spreading_exponent(series)
    report(
        "static disorder contrast",
        exponent < THETA_HIGH_EXPONENT_MAX,
        f"theta-high coins per site: exponent={exponent:.4f} "
        f"(required < {THETA_HIGH_EXPONENT_MAX}), variance(t={steps})={series[-1][1]:.2f}",
    )


def test_criterion_5_localization_length(loc_t400):
    """Spread ratio is small at t=200 and keeps shrinking at t=400."""
    disordered, ordered = loc_t400
    ratios = {
        t: localization_length(math.sqrt(disordered[t]), math.sqrt(ordered[t]))
        for t in (200, 400)
    }
    ok = ratios[200] < LOC_LENGTH_MAX_T200 and ratios[400] < ratios[200]
    report(
        "criterion 5 (localization length)",
        ok,
        f"L(200)={ratios[200]:.4f} (< {LOC_LENGTH_MAX_T200}), "
        f"L(400)={ratios[400]:.4f} (< L(200))",
    )


def test_criterion_6_conservation_suite():
    """Norm, total probability, light cone, and parity hold on every run.

    Re-derives the final state of every walk executed by criteria 1-5
    (identical seeds make them the same walks) and checks the conservation
    invariants on each: |norm - 1| < 1e-10, |sum p - 1| < 1e-10, and exact
    zeros outside the light cone and on wrong-parity sites.
    """
    checked = 0

    def verify(state):
        nonlocal checked
        check_state(state)
        total = float(distribution_from_state(state).p.sum())
        assert abs(total - 1.0) < 1e-10
        checked += 1

    # criterion 1 runs
    for theta in (math.pi / 6, math.pi / 4, math.pi / 3):
        verify(evolve_ordered(build_initial_state(SYM, 200), CoinParams(0.0, theta, 0.0), 200))

    # criterion 2 runs
    for preset in PRESET_NAMES:
        schedule = sample_schedule(preset_spec(preset), 8, MASTER_SEED)
        verify(evolve_disordered(build_initial_state(SYM, 8), schedule))

    # criterion 3 runs
    verify(evolve_ordered(build_initial_state(SYM, 2), CoinParams(0.0, math.pi / 4, 0.0), 2))
    for t in (2, 10, 50):
        verify(evolve_ordered(build_initial_state(SYM, t), CoinParams(0.0, math.pi / 2, 0.0), t))
    for t in (1, 7, 50):
        verify(evolve_ordered(build_initial_state(SYM, t), CoinParams(0.0, 0.0, 0.0), t))

    # criterion 4 ensembles: every realization of the three regimes at t=200
    for preset in REGIME_PRESETS:
        spec = preset_spec(preset)
        for r in range(200):
            schedule = sample_schedule(spec, 200, MASTER_SEED, r)
            verify(evolve_disordered(build_initial_state(SYM, 200), schedule))

    # criterion 5 ensembles: theta-high realizations and the ordered
    # reference at t=400
    spec = preset_spec("theta-high")
    for r in range(200):
        schedule = sample_schedule(spec, 400, MASTER_SEED, r)
        verify(evolve_disordered(build_initial_state(SYM, 400), schedule))
    verify(
        evolve_ordered(build_initial_state(SYM, 400), CoinParams(0.0, math.pi / 4, 0.0), 400)
    )

    report(
        "criterion 6 (conservation suite)",
        True,
        f"{checked} final states verified: norm and probability within 1e-10, "
        "light cone and parity exact",
    )


def test_criterion_7_recipe_determinism(tmp_path):
    """Repeated recipe invocations with one seed give byte-identical files."""
    mismatches = []
    for recipe in ("fig1", "fig2", "fig3", "fig4"):
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{recipe}_{tag}"
            assert main(["--recipe", recipe, "--seed", "99", "--out", str(out)]) == 0
            dirs.append(out)
        for path_a in sorted(dirs[0].iterdir()):
            if path_a.name.endswith("_meta.json"):
                continue  # metadata carries the timestamp by design
            path_b = dirs[1] / path_a.name
            if path_a.read_bytes() != path_b.read_bytes():
                mismatches.append(f"{recipe}/{path_a.name}")
    report(
        "criterion 7 (determinism)",
        not mismatches,
        "all recipe data and metrics files byte-identical"
        if not mismatches
        else f"differing files: {', '.join(mismatches)}",
    )
