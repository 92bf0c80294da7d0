"""Repeat mode: run each workload N times in fresh processes.

Usage (from the repository root)::

    python3 perfbench/repeat.py --runs 10 --seconds 30
    python3 perfbench/repeat.py --runs 5 --workloads serve --sets 2

Every run uses its own seed (``--seed``, ``--seed + 1``, ...).  For each
workload and metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
``(q3 - q1) / median``.  With ``--sets 2`` the whole series runs twice
and the shift of the second median against the first is printed too;
``bounds`` in ``BENCHMARK.json`` are set from this output.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

RUN = pathlib.Path(__file__).resolve().parent / "run.py"


def one_run(workload: str, seed: int, seconds: float) -> dict:
    """One fresh-process untraced run; its parsed result line."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}",
         "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=["solve", "serve", "compile"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    for workload in args.workloads:
        medians = []
        for s in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = args.seed + s * args.runs + i
                results.append(one_run(workload, seed, args.seconds))
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            print(f"{workload} set {s + 1}: {args.runs} runs, "
                  f"{attempted} attempted, {failed} failed")
            set_medians = {}
            for name, item in results[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in results]
                q1, mid, q3 = summarize(values)
                set_medians[name] = mid
                spread = (q3 - q1) / mid if mid else float("nan")
                line = (f"  {name:<28s} median {mid:12.6g} "
                        f"q1 {q1:12.6g} q3 {q3:12.6g} "
                        f"spread {spread:7.2%} {item['unit']}")
                if medians:
                    first = medians[0][name]
                    shift = (mid - first) / first if first else 0.0
                    line += f"  shift vs set 1 {shift:+7.2%}"
                print(line, flush=True)
            medians.append(set_medians)
    return 0


if __name__ == "__main__":
    sys.exit(main())
