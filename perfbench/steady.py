#!/usr/bin/env python3
"""Runs one workload N times and prints each end-to-end metric's spread.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--seed 1]
        [--seconds 10] [--checkout DIR [--checkout DIR]]

Run i uses seed `--seed + i`. With one checkout (default: this one) it
prints, per end-to-end metric, the median, the quartiles (as Python's
statistics.quantiles(n=4) gives them) and the quartile spread as a share
of the median, next to the metric's bound in BENCHMARK.json; a spread at
or above a third of its bound is flagged. With two checkouts it runs
them in alternating pairs (A B, B A, ...) with the same seeds, prints
both sets, the ratio of medians B/A and how many pairs B won, so a
change can be judged against its parent on the same host.

Each checkout builds into its own `.bench_build`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--checkout", action="append")
    args = ap.parse_args()
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    checkouts = [os.path.abspath(c) for c in (args.checkout or [here])]
    if len(checkouts) > 2:
        sys.exit("give at most two checkouts")
    with open(os.path.join(checkouts[0], "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    results = {c: [] for c in checkouts}
    for i in range(args.runs):
        seed = args.seed + i
        order = checkouts if i % 2 == 0 else checkouts[::-1]
        for c in order:
            r = run_once(c, args.workload, seed, seconds)
            results[c].append(r)
            m = r["metrics"]
            print(f"  run {i + 1} seed {seed} {os.path.basename(c)}: "
                  f"failed {r['failed']}/{r['attempted']}, "
                  f"p50 {m['session_ms_p50']['value']:.4f} ms, "
                  f"{m['sessions_per_s']['value']:.1f}/s, "
                  f"cpu {m['cpu_ms_per_session']['value']:.4f} ms", file=sys.stderr)

    for c in checkouts:
        rs = results[c]
        print(f"\n{c} — workload {args.workload}, {len(rs)} runs, "
              f"seeds {args.seed}..{args.seed + args.runs - 1}, {seconds} s each")
        shares = {r["failed"] / r["attempted"] for r in rs}
        print(f"  correct in every run: {all(r['correct'] for r in rs)}; "
              f"failed shares: {sorted(shares)}")
        print(f"  {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, spec in bounds.items():
            med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in rs])
            flag = "" if spread < spec["bound"] / 3 else "  <-- spread >= bound/3"
            print(f"  {name:<22} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{spread:>8.4f} {spec['bound']:>6}{flag}")

    if len(checkouts) == 2:
        a, b = (results[c] for c in checkouts)
        print(f"\nB/A: B = {checkouts[1]}, A = {checkouts[0]}")
        for name, spec in bounds.items():
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            lower = spec["better"] == "lower"
            wins = sum((y < x) if lower else (y > x) for x, y in zip(va, vb))
            ratio = statistics.median(vb) / statistics.median(va)
            print(f"  {name:<22} median ratio {ratio:.4f}  B better in {wins}/{len(va)} pairs")


if __name__ == "__main__":
    main()
