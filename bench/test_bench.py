"""Tests of the benchmark itself: tracer, correctness gate, seed handling.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import random
import time

import numpy as np
import pytest

import run
import tracer
import workloads
from coinwalk import analysis, core, disorder

REFERENCES = json.loads(run.REFERENCES.read_text(encoding="utf-8"))


def small_ensemble(master_seed: int = 7) -> workloads.Op:
    return workloads.Op(f"small-ensemble-{master_seed}", {"steps": 20, "realizations": 3, "master_seed": master_seed})


def test_self_times_fit_in_traced_wall():
    with tracer.Tracer() as trace:
        start = time.perf_counter()
        workloads.WORKLOADS["ensemble-theta-high"].execute(small_ensemble(), None)
        core.evolve_ordered(core.build_initial_state(core.InitialStateParams(), 30),
                            core.CoinParams(0.0, 0.5, 0.0), 30)
        wall = time.perf_counter() - start
    totals = trace.totals
    assert sum(t.self_s for t in totals.values()) <= wall
    assert all(0 <= t.self_s <= t.total_s for t in totals.values())
    assert totals["core.step"].calls == 3 * 20 + 30
    assert totals["disorder.sample_schedule"].calls == 3
    assert totals["analysis.run_ensemble"].self_s < totals["analysis.run_ensemble"].total_s
    # sites of 60 steps on 41 sites plus 30 steps on 61 sites
    assert trace.counts["sites"] == 60 * 41 + 30 * 61


def test_tracer_restores_bindings_and_tolerates_missing_names():
    originals = (core.step, disorder.step, analysis.step, analysis.run_ensemble)
    with tracer.Tracer(names=("core.no_such_function", "core.step")) as trace:
        assert disorder.step is not originals[1] and analysis.step is not originals[2]
        analysis.run_ensemble(disorder.preset_spec("theta-high"), core.InitialStateParams(),
                              steps=4, realizations=1, master_seed=0)
    assert (core.step, disorder.step, analysis.step, analysis.run_ensemble) == originals
    assert trace.totals["core.no_such_function"].calls == 0
    assert trace.totals["core.step"].calls == 4


def test_counts_repeat_exactly():
    def traced_counts():
        with tracer.Tracer() as trace:
            workloads.WORKLOADS["ensemble-theta-high"].execute(small_ensemble(), None)
        return trace.counts, {name: t.calls for name, t in trace.totals.items()}

    assert traced_counts() == traced_counts()


def gate(w, op, output, references):
    rep = workloads.Rep()
    workloads.check_op(w, op, output, references, rep)
    return rep


def test_gate_rejects_perturbed_ensemble_statistics():
    w = workloads.WORKLOADS["ensemble-theta-high"]
    [op] = w.ops(0)
    stats = w.execute(op, None)
    reference = REFERENCES[w.name]
    assert gate(w, op, stats, reference).failed == 0
    perturbed = type(stats)(
        realizations=stats.realizations,
        mean_distribution=stats.mean_distribution,
        mean_variance=float(np.nextafter(stats.mean_variance, np.inf)),
        variance_of_variance=stats.variance_of_variance,
    )
    rep = gate(w, op, perturbed, reference)
    assert rep.failed == 1 and "reference" in rep.problems[0]


def test_gate_rejects_broken_state():
    w = workloads.WORKLOADS["walk-wide"]
    op = workloads.Op("hadamard-ordered", {"steps": 60})
    state, dist, var = w.execute(op, None)
    assert gate(w, op, (state, dist, var), {}).failed == 0
    leaked = state.copy()
    leaked.amplitudes[0, 1] = 1e-9  # x = -59 has the wrong parity at t = 60
    rep = gate(w, op, (leaked, dist, var), {})
    assert rep.failed == 1 and "check_state" in rep.problems[0]


def test_gate_rejects_changed_recipe_file(tmp_path):
    w = workloads.WORKLOADS["cli-recipes"]
    [op] = [op for op in w.ops(0) if op.key == "fig1-csv-0"]
    output = w.execute(op, tmp_path)
    reference = REFERENCES[w.name]
    assert gate(w, op, output, reference).failed == 0
    data = tmp_path / "fig1-csv-0" / "fig1_full_range_t100.csv"
    data.write_bytes(data.read_bytes().replace(b"\n0,", b"\n0,1", 1))
    rep = gate(w, op, output, reference)
    assert rep.failed == 1 and "reference" in rep.problems[0]
    assert gate(w, op, (1, output[1]), {}).failed == 1


def test_run_rep_counts_a_raising_operation_as_failed():
    w = workloads.WORKLOADS["walk-wide"]
    ops = [workloads.Op("hadamard-ordered", {"steps": -1})]
    rep = workloads.run_rep(w, ops, None, {})
    assert (rep.attempted, rep.failed) == (1, 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_references_cover_the_captured_seeds(name):
    w = workloads.WORKLOADS[name]
    captured = REFERENCES[name]
    assert all(op.key in captured for seed in range(run.CAPTURED_SEEDS) for op in w.ops(seed))
    # past the captured seeds only seed-independent operations stay referenced
    referenced = [op.key for op in w.ops(10**6) if op.key in captured]
    assert referenced == (["hadamard-ordered"] if name == "walk-wide" else [])


def test_environment_changes_name_what_differs():
    here = run.environment()
    assert run.environment_changes(here, here) == []
    other = dict(here, nproc=here["nproc"] + 1, python="0.0")
    [change] = run.environment_changes(other, here)
    assert change.startswith("nproc ")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_makes_the_inputs(name):
    w = workloads.WORKLOADS[name]
    assert w.ops(7) == w.ops(7)
    assert w.ops(7) != w.ops(8)


def test_seed_reaches_only_generated_inputs(tmp_path):
    # the program's randomness comes from the operation's arguments alone,
    # not from any global random state the benchmark might have touched
    cases = [
        ("ensemble-theta-high", small_ensemble(7), small_ensemble(8)),
        ("walk-wide",
         workloads.Op("full-range", {"steps": 40, "master_seed": 7}),
         workloads.Op("full-range", {"steps": 40, "master_seed": 8})),
        ("cli-recipes", workloads.WORKLOADS["cli-recipes"].ops(1)[0],
         workloads.WORKLOADS["cli-recipes"].ops(2)[0]),
    ]
    for name, op, other in cases:
        w = workloads.WORKLOADS[name]
        prints = []
        for index, (global_seed, case) in enumerate([(0, op), (1, op), (0, other)]):
            random.seed(global_seed)
            np.random.seed(global_seed)
            work_dir = tmp_path / f"{name}-{index}"
            work_dir.mkdir()
            prints.append(w.fingerprint(case, w.execute(case, work_dir)))
        assert prints[0] == prints[1], name
        assert prints[0] != prints[2], name


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
