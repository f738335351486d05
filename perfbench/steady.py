"""Steadiness check: run workloads repeatedly and print each metric's spread.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--first-seed 1]

Runs ``perfbench/run.py`` once per seed for each workload (by default the
ones ``BENCHMARK.json`` lists), one process at a time, with the run length
from ``BENCHMARK.json``. For every end-to-end
metric it prints the median, the quartiles (``statistics.quantiles`` with
n=4) and the quartile distance as a share of the median, next to the
metric's bound; a spread above a third of its bound is flagged. It also
prints the share of failed operations. The raw result lines go to
``perfbench/out/steady-<workload>.jsonl`` and each run's progress log to
``perfbench/out/steady-<workload>.log``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def run_once(workload, seed, seconds) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {done.returncode}")
    with open(OUT / f"steady-{workload}.log", "a") as log:
        log.write(f"seed {seed}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(workload, results, bounds) -> None:
    print(f"{workload}: {len(results)} runs")
    head = ("metric", "median", "q1", "q3", "spread", "bound")
    print("  {:14s} {:>12s} {:>12s} {:>12s} {:>8s} {:>6s}".format(*head))
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread < bound / 3.0 else "  above a third of the bound"
        print(
            f"  {name:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} "
            f"{bound:6.2f}{flag}"
        )
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"  failed share {shares}, all correct: {all(r['correct'] for r in results)}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    OUT.mkdir(exist_ok=True)
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        with open(OUT / f"steady-{workload}.jsonl", "a") as raw:
            for seed in range(args.first_seed, args.first_seed + args.runs):
                res = run_once(workload, seed, spec["run_seconds"])
                raw.write(json.dumps({"seed": seed, **res}) + "\n")
                raw.flush()
                results.append(res)
        summarize(workload, results, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
