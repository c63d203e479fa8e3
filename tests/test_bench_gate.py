"""The benchmark's correctness gate, run once at workload seed 0.

Every operation of every workload that ``BENCHMARK.json`` declares is
executed once through ``bench/workloads.py`` and checked against
``bench/references.json``, so a changed output bit or a removed function
that the benchmark calls fails the test suite, not only a benchmark run.
The references were captured with the numpy and BLAS that
``references.json`` records; on another BLAS their exact fingerprints may
differ.  The files under ``bench/`` are imported and read, never written.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]


@pytest.fixture(scope="module")
def workloads():
    # bench/ is a directory of scripts, and workloads.py imports its sibling
    # tracer.py as a top-level module
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="module")
def references():
    return json.loads((BENCH / "references.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", [w["name"] for w in DECLARED])
def test_seed_0_matches_the_captured_references(workloads, references, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    ops = workload.ops(0)
    captured = references[name]
    assert [op.key for op in ops if op.key not in captured] == []
    rep = workloads.run_rep(workload, ops, tmp_path, captured)
    assert rep.problems == []
    assert (rep.attempted, rep.failed) == (len(ops), 0)
