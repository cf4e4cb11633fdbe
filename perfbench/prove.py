"""Repeat the benchmark over seeds and report medians, spreads and drift.

Usage (from the repository root):

    python3 perfbench/prove.py --out perfbench/results/x.json

Each of ROUNDS rounds runs every workload once (round-robin, seed =
SEED_BASE + round) with tracing off, after a calibration loop and a
load-average reading that record how fast the machine was in that round.
Then TRACED rounds run each workload with tracing on, all with the first
seed.  The
summary gives, per workload and end-to-end metric, the median and the
quartile spread (q3 - q1) as a share of the median next to the metric's
bound from BENCHMARK.json; for the traced runs, per-layer medians, whether
every count repeated exactly, the largest self times, and the tracing
overhead (traced wall_s minus the untraced median).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from run import SPEC, calibrate, environment, loadavg  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROUNDS = 10
TRACED = 2
SEED_BASE = 1


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def bench(workload, seed, seconds, trace):
    """One invocation of run.py: (result line, detail line, seconds taken)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180,
    )
    took = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2]), took


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    seconds = SPEC["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

    record = {
        "revision": git_revision(),
        "environment": environment(),
        "run_seconds": seconds,
        "rounds": [],
        "traced": [],
    }
    for r in range(ROUNDS):
        rnd = {"round": r, "calibration_s": calibrate(), "loadavg": loadavg(),
               "runs": []}
        for w in WORKLOADS:
            res, detail, took = bench(w, SEED_BASE + r, seconds, 0)
            rnd["runs"].append({"workload": w, "seed": SEED_BASE + r,
                                "run_s": took, "result": res,
                                "passes": detail["pass_wall_s"],
                                "failures": detail["failures"]})
            print(f"round {r} {w}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                + f" correct={res['correct']} run={took:.1f}s", flush=True)
        record["rounds"].append(rnd)
    for t in range(TRACED):
        for w in WORKLOADS:
            # one seed, so that every count must repeat exactly
            res, detail, took = bench(w, SEED_BASE, seconds, 1)
            record["traced"].append({"workload": w, "seed": SEED_BASE,
                                     "run_s": took, "result": res,
                                     "failures": detail["failures"]})
            print(f"traced {t} {w}: correct={res['correct']} run={took:.1f}s",
                  flush=True)

    summary = {}
    for w in WORKLOADS:
        runs = [run["result"] for rnd in record["rounds"]
                for run in rnd["runs"] if run["workload"] == w]
        traced = [t["result"] for t in record["traced"] if t["workload"] == w]
        out = {"correct": all(r["correct"] for r in runs + traced),
               "failed": sum(r["failed"] for r in runs + traced),
               "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, sp = spread(values)
            out["end_to_end"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": sp, "bound": bound,
                "spread_within_third_of_bound": sp < bound / 3, "n": len(values)}
        if traced:
            layers = {}
            for name in traced[0]["metrics"]:
                values = [t["metrics"][name]["value"] for t in traced]
                exact = units[name] in ("count", "bytes")
                layers[name] = {
                    "median": statistics.median(values),
                    "repeats_exactly": len(set(values)) == 1 if exact else None}
            walls = [t["metrics"]["trace.wall_s"]["value"] for t in traced]
            untraced = out["end_to_end"]["wall_s"]["median"]
            top = sorted(tracer.DISJOINT_SELF_METRICS,
                         key=lambda n: -layers[n]["median"])[:4]
            out["traced"] = {
                "layers": layers,
                "tracing_overhead_s": [x - untraced for x in walls],
                "largest_self_times": top,
            }
        summary[w] = out
    record["summary"] = summary

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for w, out in summary.items():
        print(f"{w}: correct={out['correct']} failed={out['failed']}")
        for name, s in out["end_to_end"].items():
            print(f"  {name:12s} median {s['median']:.4g}  spread {s['spread']:.4f}"
                  f"  bound {s['bound']}  ok={s['spread_within_third_of_bound']}")
        if "traced" in out:
            print(f"  largest self times: {out['traced']['largest_self_times']}")
            print(f"  tracing overhead s: {out['traced']['tracing_overhead_s']}")
    rounds = record["rounds"]
    print("calibration_s per round:",
          [round(r["calibration_s"], 3) for r in rounds])


if __name__ == "__main__":
    main()
