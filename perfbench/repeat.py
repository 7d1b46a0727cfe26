#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and judge its spread and bounds.

    python3 perfbench/repeat.py --workload rds-1m --seeds 1-10 --out a.jsonl
    python3 perfbench/repeat.py --summarize a.jsonl
    python3 perfbench/repeat.py --summarize b.jsonl --against a.jsonl
    python3 perfbench/repeat.py --summarize a.jsonl --traced t.jsonl

Run from the repository root. Each run is the command in BENCHMARK.json
plus `--workload W --seed N --seconds S --trace T`. Its result line and
its parameter line (seed, workload parameters, sample counts) are
appended to `--out` as one JSON line, tagged with the workload and seed.

For every end-to-end metric the summary gives the median and the
quartile spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median. A spread
must stay within the metric's `bound`, and should stay below a third of
it. With `--against`, each metric's median is compared with the baseline
set's: worse by more than `bound` (a share of the baseline median, in the
metric's `better` direction) is a regression.

`setup_s` is the one exception to the spread rule: as the benchmark
contract does, it is judged by its median only. Its spread verdict is
still printed, and a wide one is marked as not gated.

With `--traced` (runs made with `--trace 1`), the summary also gives the
tracing overhead: the traced runs' median `service.query_p50_ms` minus
the untraced runs' median p50 over the same queries (the first third of
the list, `first_third_p50_ms` on their parameter line), as a share of
the latter.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Metrics judged by their median only: their spread is printed, not gated.
MEDIAN_ONLY = {"setup_s"}


def quartile_spread(values):
    """(q3 - q1) / median of the values; 0 when they are all equal."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(med)


def regressed(base_median, new_median, bound, better):
    """Whether new_median is worse than base_median by more than bound."""
    if better == "lower":
        return new_median > base_median * (1 + bound)
    return new_median < base_median * (1 - bound)


def steadiness(spread, bound):
    """'steady' below a third of the bound, 'ok' within it, else 'wide'."""
    if spread < bound / 3:
        return "steady"
    if spread <= bound:
        return "ok"
    return "wide"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def values_by_metric(rows):
    out = {}
    for row in rows:
        for name, m in row["result"]["metrics"].items():
            out.setdefault(name, []).append(m["value"])
    return out


def summarize(rows, spec, baseline=None):
    """Prints one line per end-to-end metric; returns False on a failure."""
    ok = True
    for row in rows:
        r = row["result"]
        if not r["correct"] or r["failed"]:
            print(f"seed {row['seed']}: correct={r['correct']} failed={r['failed']}")
            ok = False
    values = values_by_metric(rows)
    base = values_by_metric(baseline) if baseline else {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        vals = values.get(name)
        if not vals:
            print(f"{name:16} missing")
            ok = False
            continue
        med = statistics.median(vals)
        spread = quartile_spread(vals)
        verdict = steadiness(spread, bound)
        line = (f"{name:16} n={len(vals):2} median={med:<12.6g} spread={spread:6.3f}"
                f" bound={bound:<5} {verdict}")
        if verdict == "wide" and name in MEDIAN_ONLY:
            line += " (median only, spread not gated)"
        elif verdict == "wide":
            ok = False
        if name in base:
            base_med = statistics.median(base[name])
            worse = regressed(base_med, med, bound, metric["better"])
            line += f" vs {base_med:.6g}: {'REGRESSED' if worse else 'within bound'}"
            ok = ok and not worse
        print(line)
    return ok


def trace_overhead(untraced, traced):
    """(traced service p50 - untraced p50) / untraced p50, both over the
    first third of the list, which is what the traced run replays."""
    plain = statistics.median(row["params"]["samples"]["first_third_p50_ms"]
                              for row in untraced)
    with_trace = statistics.median(values_by_metric(traced)["service.query_p50_ms"])
    return (with_trace - plain) / plain


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out")
    ap.add_argument("--summarize")
    ap.add_argument("--against")
    ap.add_argument("--traced")
    ap.add_argument("--spec", default="BENCHMARK.json")
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)

    if args.workload:
        seconds = args.seconds or spec["run_seconds"]
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", args.trace]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            params = json.loads(lines[-2]) if len(lines) > 1 else None
            row = {"workload": args.workload, "seed": seed, "trace": args.trace,
                   "params": params, "result": result}
            print(json.dumps(row), flush=True)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(row) + "\n")

    if args.summarize:
        rows = load(args.summarize)
        baseline = load(args.against) if args.against else None
        ok = summarize(rows, spec, baseline)
        if args.traced:
            print(f"trace overhead {100 * trace_overhead(rows, load(args.traced)):+.1f}%")
        if not ok:
            sys.exit(1)


if __name__ == "__main__":
    main()
