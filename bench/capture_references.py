"""Capture the reference fingerprints that the benchmark's gate compares against.

    python3 bench/capture_references.py

Executes every operation of every workload at seeds 0 .. CAPTURED_SEEDS - 1
once with the current ``src/`` and writes ``bench/references.json``: the
environment, and per workload a map from operation key to fingerprint.  An
operation shared by several seeds is captured once.  Run it only on a commit whose outputs
are known to be right: later runs of ``bench/run.py`` must reproduce the
fingerprints exactly.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import CAPTURED_SEEDS, REFERENCES, SRC, WORK, environment


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    WORK.mkdir(exist_ok=True)
    # BLAS builds and thread counts can change the last bits of wide walks
    captured: dict = {"environment": environment()}
    for workload in workloads.WORKLOADS.values():
        fingerprints = captured.setdefault(workload.name, {})
        for seed in range(CAPTURED_SEEDS):
            ops = [op for op in workload.ops(seed) if op.key not in fingerprints]
            with tempfile.TemporaryDirectory(dir=WORK) as tmp:
                rep = workloads.run_rep(workload, ops, Path(tmp), {})
            if rep.failed:
                print("\n".join(rep.problems), file=sys.stderr)
                return 1
            fingerprints.update(rep.fingerprints)
            print(f"{workload.name} seed {seed}: {len(rep.fingerprints)} fingerprints")
    REFERENCES.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
