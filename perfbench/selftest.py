"""Self-tests of the benchmark harness.

Usage (from the repository root; a few minutes):

    python3 perfbench/selftest.py

Installs the tracer in this process and checks that every SPANS and COUNTS
entry got a wrapper and that no object was wrapped twice (a second wrapper
would record every span twice).  Then runs one untraced and one traced pass
of every workload and checks that
  * tracing changes no report byte (same sha256 per command),
  * every per-layer metric is non-zero on at least one workload, which
    catches a wrapper bound in the wrong namespace,
  * the per-layer metrics emitted are exactly those BENCHMARK.json names,
  * every span's ancestry ends at the command root,
  * per command, the reported self-time metrics that select disjoint spans
    add up to no more than the traced wall time, which catches two metrics
    counting the same spans,
  * every command succeeds and the oracle passes never load the descent.
Exits 1 if any check fails.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from run import LAYER_UNITS, pass_layers, per_layer, run_workload  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# float rounding of perf_counter differences, far below any real span
EPS = 1e-6


def check_install():
    """Problems with the wrappers Tracer.install() puts in place."""
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import oneplusa.cli  # noqa: F401
    import oneplusa.gutkin  # noqa: F401
    import oneplusa.identities  # noqa: F401

    tracer.Tracer().install()
    modules = [mod for key, mod in sys.modules.items()
               if key.startswith(tracer.PACKAGE + ".") and mod is not None]
    problems = []
    entries = [(m, a) for m, a, _, _ in tracer.SPANS]
    entries += [(m, a) for m, a, _ in tracer.COUNTS]
    for module, attr in entries:
        owner = sys.modules[f"{tracer.PACKAGE}.{module}"]
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        value = vars(owner)[last]
        fn = value.fget if isinstance(value, property) else value
        if not hasattr(fn, "__traced__"):
            problems.append(f"{module}.{attr} is not wrapped")
    namespaces = list(modules)
    namespaces += [v for mod in modules for v in vars(mod).values()
                   if isinstance(v, type) and v.__module__ == mod.__name__]
    for ns in namespaces:
        for key, value in vars(ns).items():
            fn = value.fget if isinstance(value, property) else value
            inner = getattr(fn, "__wrapped__", None)
            if hasattr(fn, "__traced__") and hasattr(inner, "__traced__"):
                problems.append(f"{getattr(ns, '__name__', ns)}.{key} is wrapped "
                                f"twice ({fn.__traced__}, {inner.__traced__})")
    return problems


def check_command(w, cmd):
    """Problems with the spans and self-time metrics of one traced command."""
    problems = []
    if cmd["orphan_spans"]:
        problems.append(f"{w} {cmd['argv']}: spans outside the command root "
                        f"{cmd['orphan_spans']}")
    summary = {tuple(k): row for k, row in cmd["span_summary"]}
    metrics = tracer.layer_metrics(summary, cmd["counts"])
    selves = sum(metrics[n] for n in tracer.DISJOINT_SELF_METRICS)
    if selves > cmd["traced_wall_s"] + EPS:
        problems.append(f"{w} {cmd['argv']}: self-time metrics add up to "
                        f"{selves:.6f} s, above the traced wall time "
                        f"{cmd['traced_wall_s']:.6f} s")
    return problems


def main():
    problems = check_install()
    nonzero = set()
    for w in WORKLOADS:
        plain = run_workload(w, 0, 0, trace=False)
        traced = run_workload(w, 0, 0, trace=True)
        for rec in (plain, traced):
            if rec["failures"]:
                problems.append(f"{w} trace={rec['trace']}: {rec['failures']}")
        digests = [[c["sha256"] for c in rec["passes"][0]["commands"]]
                   for rec in (plain, traced)]
        if digests[0] != digests[1]:
            problems.append(f"{w}: traced reports differ from untraced")
        for cmd in traced["passes"][0]["commands"]:
            problems += check_command(w, cmd)
        emitted = set(pass_layers(traced["passes"][0]))
        if emitted != set(LAYER_UNITS):
            problems.append(f"per-layer metrics differ from BENCHMARK.json: "
                            f"only emitted {sorted(emitted - set(LAYER_UNITS))}, "
                            f"only declared {sorted(set(LAYER_UNITS) - emitted)}")
        nonzero |= {name for name, (value, _) in per_layer(traced).items() if value}
        print(f"{w}: checked", flush=True)
    for name in sorted(set(LAYER_UNITS) - nonzero):
        problems.append(f"per-layer metric {name} is zero on every workload")
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
