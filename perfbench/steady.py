"""Steadiness check for the benchmark.

    python3 perfbench/steady.py --workload wide --seeds 1-10
    python3 perfbench/steady.py --workload wide --repeat-traced 7

The first form runs the end-to-end benchmark once per seed, for
`run_seconds` from BENCHMARK.json, and prints the rounds each run made
and, per metric, the median, the minimum and maximum as offsets from the
median, and the quartile spread (Q3 - Q1) / median, also as a share of
the metric's bound in BENCHMARK.json.  The second runs the traced
benchmark twice on one seed, lists every count metric that differs
between the two runs and compares their census lines (there should be no
difference).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload, seed, seconds, trace):
    """The run's metric values and its census line."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"seed {seed}: incorrect run\n{out.stdout}")
    census = next(json.loads(l[len("census "):]) for l in lines if l.startswith("census "))
    return {k: v["value"] for k, v in result["metrics"].items()}, census


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="a seed or a range lo-hi")
    p.add_argument("--repeat-traced", type=int, metavar="SEED")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    if args.repeat_traced is not None:
        (first, census1), (second, census2) = (
            run_once(args.workload, args.repeat_traced, seconds, 1) for _ in range(2)
        )
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "ratio")
                  and m["name"] != "tracing_overhead"]
        differ = [n for n in counts if first[n] != second[n]]
        print(f"{len(counts)} exact metrics, {len(differ)} differ: {differ}")
        # The machine's speed is measured, not counted.
        census1.pop("speed_reference_s"), census2.pop("speed_reference_s")
        print(f"census {'identical' if census1 == census2 else 'differs'}")
        return 1 if differ or census1 != census2 else 0

    runs, rounds = [], []
    for seed in seeds_of(args.seeds):
        values, census = run_once(args.workload, seed, seconds, 0)
        runs.append(values)
        rounds.append(census["rounds"])
        print(f"seed {seed}: rounds={rounds[-1]} "
              + " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
    if len(runs) < 2:
        return 0
    print(f"rounds per run: {min(rounds)} to {max(rounds)}")
    worst = 0
    for metric in spec["end_to_end"]:
        values = [r[metric["name"]] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        worst = max(worst, spread / metric["bound"])
        print(f"{metric['name']:26s} {metric['unit']:9s} median {med:10.4g} "
              f"min {min(values) / med - 1:+6.1%} max {max(values) / med - 1:+6.1%} "
              f"spread {spread:6.1%} = {spread / metric['bound']:.2f} x bound "
              f"{metric['bound']:.2f}")
    print(f"largest spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
