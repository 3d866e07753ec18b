"""Run the benchmark once per seed and report each metric's median and quartile spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds 30] [--trace 0|1]
                                [--out results.json]

Runs ``run.py`` one seed after the other, in a child process each, and
prints per metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    runs = []
    for seed in seeds_of(args.seeds):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            cwd=HERE.parent, capture_output=True, text=True, timeout=200)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "exit": done.returncode, **result})
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed} exit {done.returncode} correct {result['correct']} {values}", flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else 0.0,
                         "unit": runs[0]["metrics"][name]["unit"]}
        print(f"{name:28s} median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {summary[name]['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "runs": runs,
                                        "summary": summary}, indent=1) + "\n")
    return 0 if all(run["exit"] == 0 and run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
