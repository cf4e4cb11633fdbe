"""Size ladder: one-shot stage timings for growing targets, each under a cap.

Usage (from the repository root):

    python3 perfbench/ladder.py --out perfbench/results/ladder.json

Every target runs in its own child interpreter with the benchmark's layer
wrappers installed (tracer.py) and goes through the stages table (Cayley
table), classes, chartable (the table oracle) and descent
(`verify_gutkin_all`).  The child prints one JSON line per finished stage
with its seconds and non-zero layer metrics.  A target still running when
its cap of CAP_S seconds expires is stopped and recorded as capped at the stage it was in;
it is never dropped from the report.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

TARGETS = ["ul(3,8)", "ul(3,16)", "ul(4,3)", "ul(4,4)", "ul(5,2)", "free(2,3,3)"]
CAP_S = 120.0
STAGES = ["table", "classes", "chartable", "descent"]


def child(target):
    sys.path.insert(0, "src")
    import oneplusa.catalog as catalog
    import oneplusa.chars as chars
    import oneplusa.cli  # noqa: F401
    import oneplusa.gutkin as gutkin
    import oneplusa.identities  # noqa: F401
    import oneplusa.unitgroup as unitgroup

    import tracer as tracer_mod

    tr = tracer_mod.Tracer()
    tr.install()
    # look every function up through its module from here on, so that the
    # call goes to the wrapper install() put there
    group = unitgroup.UnitGroup(catalog.resolve(target))
    steps = {
        "table": lambda: group.table,
        "classes": group.conjugacy_classes,
        "chartable": lambda: chars.character_table(group),
        "descent": lambda: gutkin.verify_gutkin_all(group),
    }
    print(json.dumps({"order": group.order}), flush=True)
    for stage in STAGES:
        before = dict(tr.counts)
        start = time.perf_counter()
        tr.enter(tracer_mod.ROOT)
        try:
            steps[stage]()
        finally:
            tr.exit()
        seconds = time.perf_counter() - start
        counts = {k: v - before.get(k, 0) for k, v in tr.counts.items()}
        layers = tracer_mod.layer_metrics(tracer_mod.summarize(tr.take()), counts)
        print(json.dumps({
            "stage": stage,
            "seconds": seconds,
            "layers": {k: v for k, v in layers.items() if v},
        }), flush=True)


def run_target(target):
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child", target],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    capped = False
    try:
        out, err = proc.communicate(timeout=CAP_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        capped = True
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    stages = [x for x in lines if "stage" in x]
    entry = {
        "target": target,
        "order": lines[0]["order"] if lines else None,
        "cap_s": CAP_S,
        "elapsed_s": time.perf_counter() - start,
        "stages": stages,
        "capped_at": STAGES[len(stages)] if capped else None,
    }
    if not capped and proc.returncode != 0:
        entry["error"] = err[-2000:]
    return entry


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--out")
    args = ap.parse_args()
    if args.child:
        child(args.child)
        return

    from prove import git_revision
    from run import environment

    report = {"revision": git_revision(), "environment": environment(),
              "targets": []}
    for target in TARGETS:
        entry = run_target(target)
        report["targets"].append(entry)
        done = ", ".join(f"{s['stage']} {s['seconds']:.2f}s" for s in entry["stages"])
        print(f"{target}: {done}"
              + (f"; capped in {entry['capped_at']}" if entry["capped_at"] else ""),
              flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
