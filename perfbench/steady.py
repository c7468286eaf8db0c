#!/usr/bin/env python3
"""Steadiness check: run one workload of the benchmark repeatedly.

    python3 perfbench/steady.py --workload road-serve [--runs 10]

Runs the benchmark command of BENCHMARK.json (from the repository root, for
its run_seconds) once per seed, seeds 1 .. runs, then once more with seed 1,
and traced once with seed 1. It prints, for every end-to-end metric, the
median, the quartiles and the quartile spread as a share of the median next
to the metric's bound, and checks that

* every run is correct and fails the same share of its operations;
* every spread stays within its metric's bound;
* the repeated seed reproduces `comm_mb` and the engine's exact counts
  (supersteps, bytes, messages) bit for bit;
* the traced run's stream takes about as long as the untraced one (the
  tracing overhead).

Exits 1 if a check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 and not (lines and lines[-1].startswith("{")):
        sys.exit(f"run failed ({out.returncode}): {' '.join(argv)}\n{out.stderr[-2000:]}")
    detail = next(json.loads(l[len("# detail "):]) for l in lines if l.startswith("# detail "))
    return json.loads(lines[-1]), detail


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ok = True

    results = []
    for seed in range(1, args.runs + 1):
        result, detail = run(bench["command"], args.workload, seed, seconds, False)
        results.append((seed, result, detail))
        kinds = " ".join(f"{k}={v:.1f}" for k, v in detail["median_latency"].items())
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']} "
              f"correct={result['correct']} stream_s={detail['stream_s']:.2f} {kinds}", flush=True)

    if not all(r["correct"] for _, r, _ in results):
        print("FAIL: a run reported a wrong answer")
        ok = False
    shares = {(r["failed"], r["attempted"]) for _, r, _ in results}
    if len({f / a for f, a in shares}) != 1:
        print(f"FAIL: the failed share differs between runs: {sorted(shares)}")
        ok = False

    print(f"\n{'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
    for name in bounds:
        values = [r["metrics"][name]["value"] for _, r, _ in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]["bound"]
        if spread > bound:
            flag = "  FAIL: above the bound"
            ok = False
        elif spread > bound / 3:
            flag = "  above a third of the bound"
        else:
            flag = ""
        print(f"{name:<16}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.3f}{bound:>8.2f}{flag}")

    seed, first, first_detail = results[0]
    again, again_detail = run(bench["command"], args.workload, seed, seconds, False)
    for key in ("supersteps", "bytes", "messages", "queries"):
        if first_detail[key] != again_detail[key]:
            print(f"FAIL: seed {seed} repeated {key} {first_detail[key]} -> {again_detail[key]}")
            ok = False
    a, b = first["metrics"]["comm_mb"]["value"], again["metrics"]["comm_mb"]["value"]
    print(f"\nseed {seed} repeated: comm_mb {a} -> {b}, supersteps "
          f"{first_detail['supersteps']} -> {again_detail['supersteps']}")
    if a != b:
        print("FAIL: comm_mb did not repeat exactly")
        ok = False

    traced, traced_detail = run(bench["command"], args.workload, seed, seconds, True)
    base = statistics.median([first_detail["stream_s"], again_detail["stream_s"]])
    over = traced["metrics"]["trace.overhead_pct"]["value"]
    print(f"traced run: stream {traced_detail['stream_s']:.2f}s against {base:.2f}s "
          f"untraced ({100 * (traced_detail['stream_s'] / base - 1):+.1f}%); "
          f"the traced run's own layer calls took {over:.1f}% of its time")
    if not traced["correct"]:
        print("FAIL: the traced run reported a wrong answer")
        ok = False
    if traced_detail["supersteps"] != first_detail["supersteps"]:
        print("FAIL: tracing changed the engine's counts")
        ok = False

    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
