#!/usr/bin/env python3
"""Run one perfledger workload K times on consecutive seeds and print,
for every metric, the median, the quartiles and the spread
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.

Quartiles are Python's statistics.quantiles(values, n=4), the method
the steadiness proof uses.

    python3 perfledger/repeat.py --workload serve-asm --runs 10 --seed 100

Run from the repository root. --trace 1 summarises the per-layer
ledger instead of the end-to-end metrics. A run whose result line does
not hold exactly the manifest's metrics, in its units, counts as
incorrect.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--seconds", type=int, help="default: run_seconds")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    table = bench["per_layer" if args.trace == "1" else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in table}

    values = {}
    units = {}
    failures = 0
    for i in range(args.runs):
        seed = args.seed + i
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}, no result", file=sys.stderr)
            failures += 1
            continue
        result = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected:
            print(f"seed {seed}: metrics differ from BENCHMARK.json: "
                  f"missing {sorted(expected.keys() - got.keys())}, "
                  f"extra {sorted(got.keys() - expected.keys())}, "
                  f"units {sorted(k for k in expected.keys() & got.keys() if expected[k] != got[k])}",
                  file=sys.stderr)
        ok = result["correct"] and result["failed"] == 0 and got == expected
        failures += not ok
        print(
            f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} "
            + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            file=sys.stderr,
        )
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print(f"{args.workload}: {args.runs} runs from seed {args.seed}, "
          f"{seconds} s each, trace {args.trace}, {failures} incorrect")
    print(f"{'metric':32} {'unit':>6} {'n':>3} {'median':>12} {'Q1':>12} {'Q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:32} {units[name]:>6} {len(vals):>3} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {'' if bound is None else bound:>6}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
