"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/sweep.py --seeds 1-10 --out bench/baseline.json

Runs ``bench/run.py`` once per workload of ``BENCHMARK.json`` and seed, one
run at a time, for the ``run_seconds`` that file gives, with ``--trace 0``,
then one ``--trace 1`` run per workload at the first seed.
For every end-to-end metric it reports the median of the runs and the
spread, the distance between the first and third quartile as a share of
the median.  That is how run-to-run agreement is judged against the
bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH, ROOT, environment


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "runs": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range FIRST-LAST")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)
    first, last = (int(part) for part in args.seeds.split("-"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]

    summary: dict = {"environment": environment(), "seconds": seconds, "workloads": {}}
    for name in names:
        results = [run_once(name, seed, seconds, 0) for seed in range(first, last + 1)]
        entry = {
            "seeds": [first, last],
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "end_to_end": {
                metric: summarise([r["metrics"][metric]["value"] for r in results])
                for metric in results[0]["metrics"]
            },
        }
        traced = run_once(name, first, seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["correct"] = entry["correct"] and traced["correct"]
        summary["workloads"][name] = entry
        spreads = ", ".join(
            f"{metric} {s['median']:.6g} (spread {s['spread']:.3f})"
            for metric, s in entry["end_to_end"].items()
        )
        print(f"{name}: correct={entry['correct']} {spreads}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
