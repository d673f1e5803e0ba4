#!/usr/bin/env python3
"""Steadiness check of the rectpart benchmark.

    python3 perfbench/steady.py [--workloads W,...] [--runs N] [--first-seed S]
        [--seconds S] [--traced]

Runs each workload N times (one seed per run, S, S+1, ...) through
perfbench/run.py and prints, for every end-to-end metric, the median, the
quartiles (statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median
and the bound BENCHMARK.json gives it: "ok" when the spread is below a third
of the bound, "within" when below the bound, "WIDE" otherwise.  It also
prints the failed share of every run, which must be identical across runs.  With --traced it also runs each seed
with --trace 1 and prints the tracing overhead: the traced run's end-to-end
figures (from its stderr) against the untraced ones.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    traced = {m.group(1): float(m.group(2)) for m in re.finditer(
        r"^# traced end-to-end (\S+) (\S+)$", p.stderr, re.M)}
    return result, traced


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        traced = {name: [] for name in bounds}
        shares = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, _ = run_once(workload, seed, args.seconds, False)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            shares.append((result["failed"], result["attempted"]))
            if args.traced:
                _, t = run_once(workload, seed, args.seconds, True)
                for name in bounds:
                    if name in t:
                        traced[name].append(t[name])
            print(f"# {workload} seed {seed}: " + " ".join(
                f"{n}={values[n][-1]:.6g}" for n in bounds), flush=True)
        print(f"\n{workload}: {args.runs} runs of {args.seconds:g} s")
        print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            if spread < bound / 3:
                verdict = "ok"
            elif spread <= bound:
                verdict = "within"
            else:
                verdict = "WIDE"
            print(f"{name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound:>6.3g}  {verdict}")
        fractions = {Fraction(f, a) for f, a in shares}
        print("failed/attempted per run: " +
              ", ".join(f"{f}/{a}" for f, a in shares) +
              (" (one share)" if len(fractions) == 1 else " (SHARES DIFFER)"))
        if args.traced:
            print("tracing overhead (traced median / untraced median - 1):")
            for name in ("ingest_s", "solve_ms_gmean", "sweep_s"):
                if traced[name]:
                    base = statistics.median(values[name])
                    over = statistics.median(traced[name]) / base - 1
                    print(f"  {name:<16} {over:+.2%}")
        print(flush=True)


if __name__ == "__main__":
    main()
