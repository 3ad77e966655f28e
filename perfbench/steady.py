"""Steadiness check: run each workload on several seeds, report the spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...]

For every workload it runs ``run.py`` once per seed (seeds 1 to
``--runs``), one run of ``run_seconds`` at a time, and prints per end-to-end metric the
median, the first and third quartile (``statistics.quantiles(values,
n=4)``), the spread ``(q3 - q1) / median`` and the metric's bound from
``BENCHMARK.json``. A spread is flagged when it exceeds a third of the
bound. ``setup_s`` is flagged only past its whole bound: a run times
set-up a few times against thousands of requests, and what a later
change is held to is its median, not its spread. It also checks that
every run is correct and that the share of failed operations is the
same in every run. Exit code 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction


def main(argv=None) -> int:
    spec = json.load(open("BENCHMARK.json", encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument(
        "--workload", action="append",
        choices=[w["name"] for w in spec["workloads"]],
    )
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in workloads:
        results = []
        for seed in range(1, args.runs + 1):
            command = [
                *spec["command"], "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            completed = subprocess.run(
                command, capture_output=True, text=True, timeout=600,
            )
            if completed.returncode != 0:
                print(completed.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit {completed.returncode}")
                ok = False
                continue
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            results.append(result)
            print(f"{workload} seed {seed}: attempted={result['attempted']}, "
                  f"failed={result['failed']}, " + ", ".join(
                      f"{name}={entry['value']:.4g}"
                      for name, entry in result["metrics"].items()
                  ), flush=True)
        if not results:
            continue
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        if len(shares) != 1 or not all(r["correct"] for r in results):
            print(f"{workload}: FAIL correct/failed-share: {sorted(shares)}")
            ok = False
        print(f"{workload}: failed share {sorted(shares)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            if len(values) != len(results):
                print(f"  {name}: missing from some runs")
                ok = False
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            steady = spread <= (bound if name == "setup_s" else bound / 3)
            ok = ok and steady
            print(
                f"  {name:16s} median {median:10.4g}  q1 {q1:10.4g}  q3 {q3:10.4g}"
                f"  spread {spread:6.3f}  bound {bound:.2f}"
                f"{'' if steady else '  UNSTEADY'}"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
