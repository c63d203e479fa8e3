"""The README's library example runs as printed."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quick_start_code() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start_prints_finite_numbers():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-c", quick_start_code()],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    # one line per print call: the two variances, the ensemble pair, then
    # the two lengths of one batch
    assert [len(line.split()) for line in lines] == [1, 1, 2, 2]
    assert all(math.isfinite(float(value)) for line in lines for value in line.split())
