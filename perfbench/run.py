"""Benchmark of the oneplusa CLI: closed-loop batch workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload oracle|descent|suites \
        --seed N --seconds S --trace 0|1

One client runs one job at a time.  A job is one pass over the workload's
command sequence (see workloads.py) in a fresh child interpreter, which
imports `oneplusa.cli` from ./src and calls `main(argv)` for each command,
timing the calls from outside and capturing stdout as the report.  Passes
run back to back while the next one is expected to end within S seconds;
there is always at least one.  Every report is checked: a command fails if
it raises, exits non-zero, reports "passed": false, or its bytes differ
from the recorded digest.

With --trace 0 the last line carries the end-to-end metrics (medians over
passes): wall_s, the time the commands take; setup_s, spawn to
`oneplusa.cli` imported, over every pass plus SETUP_PROBES bare starts;
peak_rss_mb, the child's ru_maxrss; ok_share, commands that succeeded over
commands attempted.  With --trace 1 the child wraps the package's layers
(tracer.py) and the last line carries per-layer self times and counts.
The line before it holds details: per-pass figures, the machine's drift
record (calibration loop, load average) and versions.
"""

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from workloads import GOLDEN, WORKLOADS, commands, polarize  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
# the metric names and units are the ones BENCHMARK.json declares
with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
SETUP_PROBES = 8
RUN_LIMIT_S = 170  # the whole run must end well within 180 s
CALIBRATION_STEPS = 3_000_000


def calibrate():
    """Seconds a fixed pure-Python loop takes: the machine's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_STEPS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def environment():
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
    }


def spawn(root, cmds, trace, oracle, timeout):
    """Run one child; returns (seconds to ready, its result or None, stderr)."""
    spec = {
        "src": os.path.join(root, "src"),
        "commands": cmds,
        "trace": trace,
        "oracle": oracle,
    }
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, CHILD, json.dumps(spec)],
        cwd=root,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    # read both pipes as data arrives, so that the moment "ready" shows up
    # is the set-up time and neither pipe can fill and stall the child
    data = {proc.stdout: bytearray(), proc.stderr: bytearray()}
    setup = None
    with selectors.DefaultSelector() as sel:
        for pipe in data:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            left = start + timeout - time.perf_counter()
            if left <= 0:
                proc.kill()
                data[proc.stderr] += b"\ntimed out"
                break
            for key, _ in sel.select(left):
                chunk = os.read(key.fd, 1 << 16)
                if not chunk:
                    sel.unregister(key.fileobj)
                    continue
                data[key.fileobj] += chunk
                if setup is None and b"\n" in data[proc.stdout]:
                    setup = time.perf_counter() - start
    proc.wait()
    proc.stdout.close()
    proc.stderr.close()
    lines = data[proc.stdout].decode().splitlines()
    err = data[proc.stderr].decode(errors="replace")[-2000:]
    if proc.returncode != 0 or len(lines) < 2 or lines[0] != "ready":
        return None, None, err
    return setup, json.loads(lines[-1]), err


def command_failure(res):
    """Why one command's outcome is wrong, or None."""
    if res["error"] is not None:
        return res["error"]
    if res["rc"] != 0:
        return f"exit {res['rc']}"
    if res["passed"] is False:
        return "report says passed: false"
    golden = GOLDEN.get(tuple(res["argv"]))
    if golden is not None and res["sha256"] != golden:
        return f"report digest {res['sha256'][:12]} != {golden[:12]}"
    return None


def run_workload(workload, seed, seconds, trace, root="."):
    """Run passes of a workload for about `seconds`; return the raw record."""
    root = os.path.abspath(root)
    cmds = commands(workload, seed)
    oracle = workload == "oracle"
    begin = time.perf_counter()

    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - begin)

    setups = []

    def probe_setup():
        # bare starts, half before and half after the passes, so the median
        # spans the machine's speed over the whole run
        for _ in range(SETUP_PROBES // 2):
            setup, _, err = spawn(root, [], False, oracle, remaining())
            if setup is None:
                raise RuntimeError(f"the child could not import oneplusa.cli\n{err}")
            setups.append(setup)

    if not trace:
        probe_setup()
    start = time.perf_counter()
    passes, failures = [], []
    attempted = failed = 0
    while True:
        t0 = time.perf_counter()
        setup, result, err = spawn(root, cmds, trace, oracle, remaining())
        took = time.perf_counter() - t0
        attempted += len(cmds)
        if result is None:
            failures.append({"pass": len(passes), "child": err})
            failed += len(cmds)
            passes.append(None)
        else:
            setups.append(setup)
            passes.append(result)
            bad = 0
            for res in result["commands"]:
                why = command_failure(res)
                if why is not None:
                    failures.append({"argv": res["argv"], "why": why})
                    bad += 1
            if result["descent_modules_loaded"]:
                # the oracle pass leaned on the descent code: none of it counts
                failures.append({"oracle_guard": result["descent_modules_loaded"]})
                bad = len(cmds)
            failed += bad
        elapsed = time.perf_counter() - start
        if elapsed + took > seconds or remaining() < 2 * took:
            break
    if not trace:
        probe_setup()

    # a polarize report without a recorded digest must repeat byte for byte
    pol = polarize(seed)
    if tuple(pol) not in GOLDEN and pol in cmds:
        digests = [
            res["sha256"]
            for p in passes if p is not None
            for res in p["commands"] if res["argv"] == pol
        ]
        if len(digests) == 1:
            _, extra, err = spawn(root, [pol], False, oracle, remaining())
            attempted += 1
            if extra is None or command_failure(extra["commands"][0]):
                failures.append({"argv": pol, "why": "repeat failed", "child": err})
                failed += 1
            else:
                digests.append(extra["commands"][0]["sha256"])
        if len(set(digests)) > 1:
            failures.append({"argv": pol, "why": "reports differ between runs"})
            failed += 1

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": passes,
        "setups": setups,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "failures": failures,
    }


def end_to_end(record):
    done = [p for p in record["passes"] if p is not None]
    attempted = record["attempted"]
    values = {
        "wall_s": statistics.median(
            sum(c["wall_s"] for c in p["commands"]) for p in done),
        "setup_s": statistics.median(record["setups"]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in done),
        "ok_share": (attempted - record["failed"]) / attempted,
    }
    return {name: (values[name], unit) for name, unit in E2E_UNITS.items()}


def pass_layers(result):
    """Per-layer metrics of one traced pass."""
    summary, counts = {}, {}
    for res in result["commands"]:
        tracer.merge(summary, {tuple(k): row for k, row in res["span_summary"]})
        for key, value in res["counts"].items():
            counts[key] = counts.get(key, 0) + value
    counts["cli.report_bytes"] = sum(c["bytes"] for c in result["commands"])
    metrics = tracer.layer_metrics(summary, counts)
    traced_wall = sum(c["traced_wall_s"] for c in result["commands"])
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.layer_share"] = tracer.layer_self_seconds(summary) / traced_wall
    metrics["process.cpu_s"] = result["cpu_s"]
    return metrics


def per_layer(record):
    """Median times over traced passes; counts must repeat exactly."""
    done = [pass_layers(p) for p in record["passes"] if p is not None]
    out = {}
    for name, unit in LAYER_UNITS.items():
        values = [m[name] for m in done]
        if unit in ("count", "bytes"):
            if len(set(values)) > 1:
                record["failures"].append({"count_not_repeated": name,
                                           "values": values})
            out[name] = (values[0], unit)
        else:
            out[name] = (statistics.median(values), unit)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "oneplusa", "cli.py")):
        print("error: run from the repository root (no src/oneplusa here)",
              file=sys.stderr)
        return 2
    drift = {"calibration_s": calibrate(), "loadavg": loadavg()}
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if not any(p is not None for p in record["passes"]):
        print(f"error: no pass completed: {record['failures']}", file=sys.stderr)
        return 1
    metrics = per_layer(record) if args.trace else end_to_end(record)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "drift": drift,
        "environment": environment(),
        "passes": len(record["passes"]),
        "setups_s": record["setups"],
        "pass_wall_s": [
            None if p is None else [c["wall_s"] for c in p["commands"]]
            for p in record["passes"]
        ],
        "failures": record["failures"],
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
