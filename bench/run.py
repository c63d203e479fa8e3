"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload ensemble-theta-high --seed 0 --seconds 30 --trace 0

Run it from the repository root or any checkout of it; the package is
imported from the checkout's ``src/``.  The run times a fresh interpreter
importing the package (``setup_s``), executes the workload once to warm up,
then repeats it for ``--seconds``.  Every repetition is checked.  With
``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
traced and untraced repetitions alternate and the per-layer metrics are
reported instead.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCES = BENCH / "references.json"
#: Workload seeds 0 .. CAPTURED_SEEDS - 1 have every operation in REFERENCES.
CAPTURED_SEEDS = 100

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_RUNS = 11
SETUP_CODE = "import coinwalk, coinwalk.cli"

END_TO_END_UNITS = {"wall_s": "s", "steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def environment() -> dict:
    """What the numbers depend on besides the code: interpreter, BLAS, CPUs, threads."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def environment_changes(captured: dict, here: dict) -> list[str]:
    """The environment entries the exact references depend on that differ here."""
    return [
        f"{key} (captured {captured.get(key)!r}, here {here[key]!r})"
        for key in ("numpy", "blas", "nproc", "thread_env")
        if captured.get(key) != here[key]
    ]


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters that only import the package."""
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coinwalk" / "__init__.py").is_file():
        print(f"error: no coinwalk package under {SRC}", file=sys.stderr)
        return 2
    if not __debug__:
        print("error: the correctness gate needs assertions; run without -O", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import coinwalk
    import tracer
    import workloads

    if not Path(coinwalk.__file__).resolve().is_relative_to(SRC):
        print(f"error: coinwalk imported from {coinwalk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    captured = json.loads(REFERENCES.read_text(encoding="utf-8"))
    references = captured.get(workload.name, {})
    ops = workload.ops(args.seed)
    steps_per_rep = sum(workload.steps(op) for op in ops)
    unreferenced = [op.key for op in ops if op.key not in references]

    env = environment()
    env_changes = environment_changes(captured.get("environment", {}), env)
    try:
        setup_times = measure_setup()
    except subprocess.CalledProcessError as exc:
        print(f"error: importing the package failed: {exc}", file=sys.stderr)
        return 1

    WORK.mkdir(exist_ok=True)
    reps: list = []

    def repeat(trace=None):
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            rep = workloads.run_rep(workload, ops, Path(tmp), references, trace)
        reps.append(rep)
        return rep

    repeat()  # warm-up: checked, not timed
    plain: list = []
    traced: list = []
    tracers: list = []
    deadline = time.perf_counter() + args.seconds
    while not plain or time.perf_counter() < deadline:
        plain.append(repeat())
        if args.trace:
            tracers.append(tracer.Tracer())
            traced.append(repeat(tracers[-1]))

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    problems = [p for r in reps for p in r.problems]
    plain_walls = [r.wall_s for r in plain]
    if args.trace:
        counts_repeat = all(
            t.counts == tracers[0].counts
            and all(t.totals[n].calls == tracers[0].totals[n].calls for n in tracer.TRACED)
            for t in tracers
        ) and all(r.counts == traced[0].counts for r in traced)
        if not counts_repeat:
            problems.append("per-layer counts differ between repetitions")
        values = tracer.layer_metrics(
            tracers, traced[0].counts, [r.wall_s for r in traced], plain_walls
        )
        units = tracer.metric_units()
    else:
        counts_repeat = True
        wall_s = statistics.median(plain_walls)
        values = {
            "wall_s": wall_s,
            "steps_per_s": steps_per_rep / wall_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS

    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(plain)} timed repetitions of {len(ops)} operations, "
          f"{steps_per_rep} realization-steps each")
    if not args.trace:
        print(f"wall_s {values['wall_s']:.6g} s (median; {quartiles(plain_walls)})")
        print(f"steps_per_s {values['steps_per_s']:.6g} 1/s (fixed count / median wall_s)")
        print(f"setup_s {values['setup_s']:.6g} s (median; {quartiles(setup_times)})")
        print(f"peak_rss_mb {values['peak_rss_mb']:.6g} MB")
    else:
        for name, value in values.items():
            note = " (computed from array sizes)" if name == "core.step.array_bytes" else ""
            print(f"{name} {value:.6g} {units[name]}{note}")
    print(f"error_rate {failed / attempted:.6g} ({failed} failed of {attempted} operations)")
    print(f"references: {len(ops) - len(unreferenced)} of {len(ops)} operations per repetition "
          f"compared with {REFERENCES.name}")
    if unreferenced:
        print(f"references: none captured for {', '.join(unreferenced)}; "
              "those outputs get the structural checks only")
    for change in env_changes:
        print(f"references: environment differs from the capture in {change}; "
              "a reference mismatch may come from that, not from the program")
    print("environment " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
