"""The benchmark's workloads and its correctness gate.

A workload turns the workload seed into a list of operations (its inputs),
executes them through the public coinwalk modules, and checks each output.
The seed reaches the program only through those generated inputs.  Every
repetition of a run executes the same operations, so timings of one run are
comparable and every repetition is checked against the same references.

The gate has two kinds of check.  Structural checks hold for every seed:
norm, light cone and parity of final states, the ordered-walk variance law,
and exit status 0 of every CLI invocation.  Reference checks apply to every
operation whose key is in ``references.json``: its output's fingerprint must
equal the one captured from the same operation at an earlier commit.  A key
names the operation's inputs, seed included, so a seed-independent
operation such as the ordered wide walk is compared at every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from coinwalk import analysis, cli, core, disorder
from tracer import Tracer

#: Largest tolerated deviation of a final state's total probability from 1.
PROBABILITY_TOL = 1e-10
#: Relative tolerance of the ordered-walk variance law (1 - sin theta) t^2.
VARIANCE_LAW_TOL = 0.05


class Op(NamedTuple):
    """One operation of a workload: a key naming its inputs, and the inputs."""

    key: str
    args: dict


@dataclass
class Rep:
    """Outcome of executing and checking every operation of a workload once."""

    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    fingerprints: dict[str, Any] = field(default_factory=dict)


class Workload:
    name = ""

    def ops(self, seed: int) -> list[Op]:
        raise NotImplementedError

    def execute(self, op: Op, work_dir: Path) -> Any:
        raise NotImplementedError

    def steps(self, op: Op) -> int:
        """Realization-steps the operation performs, fixed by its definition."""
        raise NotImplementedError

    def check(self, op: Op, output: Any) -> str | None:
        """Structural check; returns a problem or None."""
        return None

    def fingerprint(self, op: Op, output: Any) -> Any:
        """JSON value compared exactly against the captured reference."""
        raise NotImplementedError

    def count(self, op: Op, output: Any, counts: dict[str, int]) -> None:
        """Add the per-layer counts this output carries."""


def _total_probability_problem(p: np.ndarray) -> str | None:
    total = float(p.sum())
    if abs(total - 1.0) > PROBABILITY_TOL:
        return f"total probability {total!r} is off 1 by more than {PROBABILITY_TOL}"
    return None


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class EnsembleThetaHigh(Workload):
    name = "ensemble-theta-high"

    def ops(self, seed):
        return [Op(f"ensemble-{seed}", {"steps": 200, "realizations": 200, "master_seed": seed})]

    def execute(self, op, work_dir):
        return analysis.run_ensemble(
            disorder.preset_spec("theta-high"), core.InitialStateParams(), **op.args
        )

    def steps(self, op):
        return op.args["steps"] * op.args["realizations"]

    def check(self, op, stats):
        if not (math.isfinite(stats.mean_variance) and math.isfinite(stats.variance_of_variance)):
            return "non-finite ensemble statistics"
        return _total_probability_problem(stats.mean_distribution.p)

    def fingerprint(self, op, stats):
        return {
            "mean_variance": stats.mean_variance,
            "variance_of_variance": stats.variance_of_variance,
            "mean_distribution_sha256": _sha256(stats.mean_distribution.p),
        }


class WalkWide(Workload):
    name = "walk-wide"
    STEPS = 6000
    ORDERED_THETA = math.pi / 4

    def ops(self, seed):
        return [
            Op(f"full-range-{seed}", {"steps": self.STEPS, "master_seed": seed}),
            Op("hadamard-ordered", {"steps": self.STEPS}),
        ]

    def execute(self, op, work_dir):
        steps = op.args["steps"]
        start = core.build_initial_state(core.InitialStateParams(), steps)
        if "master_seed" in op.args:
            schedule = disorder.sample_schedule(
                disorder.preset_spec("full-range"), steps, op.args["master_seed"]
            )
            state = disorder.evolve_disordered(start, schedule)
        else:
            coin = core.CoinParams(0.0, self.ORDERED_THETA, 0.0)
            state = core.evolve_ordered(start, coin, steps)
        dist = analysis.distribution_from_state(state)
        return state, dist, analysis.variance(dist)

    def steps(self, op):
        return op.args["steps"]

    def check(self, op, output):
        state, dist, var = output
        try:
            core.check_state(state)
        except AssertionError as exc:
            return f"check_state failed: {exc}"
        problem = _total_probability_problem(dist.p)
        if problem is None and op.key == "hadamard-ordered":
            expected = (1.0 - math.sin(self.ORDERED_THETA)) * op.args["steps"] ** 2
            if abs(var - expected) > VARIANCE_LAW_TOL * expected:
                problem = f"ordered variance {var!r} is not within 5% of {expected!r}"
        return problem

    def fingerprint(self, op, output):
        return {"variance": output[2]}

    def count(self, op, output, counts):
        a = output[0].amplitudes
        tiny = np.finfo(np.float64).tiny

        def subnormal(part):
            magnitude = np.abs(part)
            return (magnitude > 0) & (magnitude < tiny)

        n = int(np.count_nonzero(subnormal(a.real) | subnormal(a.imag)))
        counts["core.subnormal_amplitudes"] = counts.get("core.subnormal_amplitudes", 0) + n


class CliRecipes(Workload):
    name = "cli-recipes"
    RECIPES = ("fig1", "fig2", "fig3", "fig4")
    FORMATS = ("csv", "json")
    SEEDS_PER_RUN = 4
    # realization-steps at the CLI default of one realization:
    # fig1 one walk to 100; fig2 four walks to 200; fig3 an ordered and a
    # theta-high walk to each of 100, 200, 400; fig4 one theta-high and three
    # ordered reference walks to 400
    RECIPE_STEPS = {"fig1": 100, "fig2": 800, "fig3": 1400, "fig4": 1600}

    def ops(self, seed):
        return [
            Op(f"{recipe}-{fmt}-{cli_seed}", {"recipe": recipe, "format": fmt, "seed": cli_seed})
            for cli_seed in range(self.SEEDS_PER_RUN * seed, self.SEEDS_PER_RUN * (seed + 1))
            for recipe in self.RECIPES
            for fmt in self.FORMATS
        ]

    def execute(self, op, work_dir):
        out = work_dir / op.key
        argv = [
            "--recipe", op.args["recipe"],
            "--format", op.args["format"],
            "--seed", str(op.args["seed"]),
            "--out", str(out),
        ]
        return cli.main(argv), out

    def steps(self, op):
        return self.RECIPE_STEPS[op.args["recipe"]]

    @staticmethod
    def _result_files(out: Path) -> list[Path]:
        # the meta sidecar carries a timestamp and the output path, so it is
        # neither compared nor counted
        return sorted(p for p in out.iterdir() if not p.name.endswith("meta.json"))

    def check(self, op, output):
        code, out = output
        if code != 0:
            return f"exit status {code}"
        if not out.is_dir() or not self._result_files(out):
            return "no data or metrics files written"
        return None

    def fingerprint(self, op, output):
        digest = hashlib.sha256()
        for path in self._result_files(output[1]):
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        return digest.hexdigest()

    def count(self, op, output, counts):
        size = sum(p.stat().st_size for p in self._result_files(output[1]))
        counts["cli.bytes_written"] = counts.get("cli.bytes_written", 0) + size


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (EnsembleThetaHigh(), WalkWide(), CliRecipes())
}


def run_rep(
    workload: Workload,
    ops: list[Op],
    work_dir: Path | None,
    references: dict,
    trace: Tracer | None = None,
) -> Rep:
    """Execute and check every operation once; ``wall_s`` sums the operations' times.

    ``references`` maps op keys to captured fingerprints; an operation
    whose key is missing gets the structural checks only.  Each output is checked and released before the
    next operation starts: an output kept alive changes how the allocator
    serves the next walk's arrays, and with it that walk's time.
    """
    rep = Rep()
    clock = time.perf_counter
    for op in ops:
        with trace if trace is not None else contextlib.nullcontext():
            start = clock()
            try:
                output = workload.execute(op, work_dir)
            except Exception as exc:  # a failed operation is counted, not fatal
                output = exc
            rep.wall_s += clock() - start
        check_op(workload, op, output, references, rep)
        del output
    return rep


def check_op(workload: Workload, op: Op, output: Any, references: dict, rep: Rep) -> None:
    """Gate one output and record the outcome in ``rep``."""
    rep.attempted += 1
    if isinstance(output, Exception):
        problem = f"raised {output!r}"
        traceback.print_exception(output, file=sys.stderr)
    else:
        problem = workload.check(op, output)
        if problem is None:
            fp = workload.fingerprint(op, output)
            rep.fingerprints[op.key] = fp
            if op.key in references and references[op.key] != fp:
                problem = "output differs from the captured reference"
        if problem is None:
            workload.count(op, output, rep.counts)
    if problem is not None:
        rep.failed += 1
        rep.problems.append(f"{workload.name} {op.key}: {problem}")
