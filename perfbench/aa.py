"""A/A check: two sets of runs of one commit must agree within the bounds.

Usage (from the repository root)::

    python3 perfbench/aa.py --workloads exact_corpus,verify_sweep --runs 10

Each of the two sets runs ``perfbench/run.py`` once per seed ``1 .. runs``
(the same seeds in both sets), one run at a time.  For every workload and
end-to-end metric it prints the median and the quartile spread
``(Q3 - Q1) / median`` (``statistics.quantiles(n=4)``) of each set, and
whether

* each set's spread stays within the metric's bound, and
* the two medians differ by no more than the bound, in either direction.

Exit status 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402

SETS = 2
FIRST_SEED = 1


def load_benchmark() -> Dict[str, Any]:
    """The repository's ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    """Run one workload once; its parsed result line."""
    command = load_benchmark()["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: List[str] = None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description="Two sets of runs of one commit must agree.")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    seeds = range(FIRST_SEED, FIRST_SEED + args.runs)

    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(SETS):
            results = []
            for seed in seeds:
                result = one_run(workload, seed, args.seconds)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: incorrect output ({result['failed']} failed)")
                    ok = False
                results.append(result["metrics"])
            sets.append(results)
        print(f"\n{workload}: {SETS} sets of {args.runs} runs, seeds {seeds.start}..{seeds.stop - 1}")
        print(f"  {'metric':<22} {'bound':>6} {'median':>12} {'spread':>8} {'A/A drift':>10}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r[name]["value"] for r in results] for results in sets]
            medians = [statistics.median(v) for v in values]
            spread = max(quartile_spread(v) for v in values)
            drift = (medians[1] - medians[0]) / abs(medians[0])
            verdicts = []
            if spread > bound:
                verdicts.append("spread over bound")
            if abs(drift) > bound:
                verdicts.append("medians disagree")
            ok = ok and not verdicts
            if spread > bound / 3:
                verdicts.append("(spread over a third of the bound)")
            print(
                f"  {name:<22} {bound:>6.3f} {medians[1]:>12.6g} {spread:>8.3f} "
                f"{drift:>10.3f}  {'; '.join(verdicts) or 'ok'}"
            )
            for run_values in values:
                print("      runs: " + " ".join(f"{v:.5g}" for v in run_values))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
