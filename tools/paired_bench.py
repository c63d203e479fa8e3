"""Run ``bench/run.py`` alternately in two checkouts and compare each metric.

    python3 tools/paired_bench.py PARENT CHANGE --workload W [--pairs 10]
                                  [--first-seed 0]

Pair i runs ``python3 <checkout>/bench/run.py --workload W --seed S
--seconds N --trace 0`` once in each checkout, with S = first seed + i and
N the ``run_seconds`` of the change's ``BENCHMARK.json``; the parent runs
first in even pairs and the change first in odd ones.  Each run's last line
of output is its JSON result.  Each pair's values, parent -> change, go to
standard error as the pair ends, so that pairs of several invocations can
be pooled.  For each end-to-end metric the script prints each side's median
and quartiles, and how many pairs the change won (ties count for neither
side).  A gain is claimed only when the change wins at least nine tenths of
the pairs and its median is better than the parent's by more than the
distance between the parent's quartiles.

Make the parent checkout outside the repository, from the parent commit
(``HEAD`` while the change is not yet committed)::

    mkdir ../parent && git archive HEAD | tar -x -C ../parent

Nothing under either checkout's ``bench/`` is changed; ``bench/run.py``
keeps its scratch files in the checkout's ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``bench/run.py`` run in ``checkout``: its JSON result."""
    out = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def summarise(better: str, parent: list[float], change: list[float]) -> dict:
    """Medians, quartiles, wins and the claim rule for one metric's paired runs.

    ``better`` is ``"lower"`` or ``"higher"``; ``parent[i]`` and
    ``change[i]`` are pair i's values.  Quartiles are those of
    ``statistics.quantiles`` with its default method, which needs two
    values or more.
    """
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, p_median, p3 = statistics.quantiles(parent, n=4)
    c1, c_median, c3 = statistics.quantiles(change, n=4)
    return {
        "parent": (p1, p_median, p3),
        "change": (c1, c_median, c3),
        "wins": wins,
        "pairs": len(parent),
        "claim": 10 * wins >= 9 * len(parent) and sign * (c_median - p_median) > p3 - p1,
    }


def report(name: str, summary: dict) -> str:
    """One line for ``summary``: medians, quartiles, wins and whether a gain may be claimed."""
    (p1, pm, p3), (c1, cm, c3) = summary["parent"], summary["change"]
    return (f"{name}: parent {pm:.6g} (q1 {p1:.6g}, q3 {p3:.6g}), change {cm:.6g} "
            f"(q1 {c1:.6g}, q3 {c3:.6g}), ratio {cm / pm:.3f}, change won "
            f"{summary['wins']} of {summary['pairs']}, gain claimed: "
            f"{'yes' if summary['claim'] else 'no'}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds, metrics = spec["run_seconds"], spec["end_to_end"]
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            results[side].append(run(checkouts[side], args.workload, seed, seconds))
        values = ", ".join(
            f"{m['name']} {results['parent'][-1]['metrics'][m['name']]['value']:.6g}"
            f" -> {results['change'][-1]['metrics'][m['name']]['value']:.6g}" for m in metrics)
        print(f"pair {i + 1} of {args.pairs} (seed {seed}): {values}", file=sys.stderr)
    for side, runs in results.items():
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{side}: {failed} of {attempted} operations failed, "
              f"{sum(not r['correct'] for r in runs)} of {len(runs)} runs not correct")
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs]
                  for side, runs in results.items()}
        print(report(name, summarise(metric["better"], values["parent"], values["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
