"""Record the qobs benchmark into ``BENCH_sweep.json`` and ``BENCH_layers.json``.

Usage, from the root of a checkout::

    python3 bench/record.py            # about five minutes on two cores

Runs each perfbench workload twice through ``perfbench/run.py`` at
``--seconds 30``: untraced for the end-to-end metrics, traced for the
per-layer ones. Then times the tier-1 suite. Writes, at the root of the
checkout:

* ``BENCH_sweep.json``: per workload the end-to-end metrics (medians and
  the tail latency as perfbench reports them), attempted and failed
  operations, plus the tier-1 wall time and its pass/fail counts;
* ``BENCH_layers.json``: per workload and traced layer, ``calls``,
  ``failed``, ``us_p50`` and ``self_ms``, and the derived ratios.

Both files record the commit, the Python, numpy and scipy versions and the
core count, so a performance change commits a new pair and shows its delta
in the diff. Numbers from different machines or sessions do not compare.
perfbench itself is only run, never changed.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("cavity-sweep", "random-design", "covariance-crosscheck")
SECONDS = 30
SEED = 1
LAYER_FIELDS = ("calls", "failed", "us_p50", "self_ms")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def perfbench(workload: str, trace: int) -> dict:
    """The result line of one ``perfbench/run.py`` run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tier1() -> dict:
    """Wall time and outcome counts of the tier-1 suite."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1]
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|errors?|skipped)", summary)}
    return {"wall_s": wall, "summary": summary, **counts}


def provenance() -> dict:
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()

    return {
        "commit": git("rev-parse", "HEAD"),
        "worktree_clean": git("status", "--porcelain", "--untracked-files=no") == "",
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu_count": os.cpu_count(),
        "perfbench": {"seed": SEED, "seconds": SECONDS},
    }


def main() -> int:
    sweep, layers = {}, {}
    for workload in WORKLOADS:
        result = perfbench(workload, trace=0)
        sweep[workload] = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            **{name: m["value"] for name, m in result["metrics"].items()},
        }
        metrics = perfbench(workload, trace=1)["metrics"]
        per_layer: dict[str, dict] = {}
        derived = {}
        for name, m in metrics.items():
            layer, _, field = name.rpartition(".")
            if field in LAYER_FIELDS:
                per_layer.setdefault(layer, {})[field] = m["value"]
            else:
                derived[name] = m["value"]
        layers[workload] = {"layers": per_layer, "derived": derived}
    head = provenance()
    files = {
        "BENCH_sweep.json": {**head, "workloads": sweep, "tier1": tier1()},
        "BENCH_layers.json": {**head, "workloads": layers},
    }
    for name, payload in files.items():
        (ROOT / name).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
