"""One benchmark client: a fresh interpreter that runs CLI commands in turn.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds "src" (the package source directory), "commands" (a list
of argv lists for `oneplusa.cli.main`), "trace" (install the tracer) and
"oracle" (check afterwards that the descent modules never loaded).

The child writes "ready" on its standard output once `oneplusa.cli` is
imported (and the tracer installed), then one JSON line with the outcome of
every command.  Each command's standard output is captured as its report;
only its length and sha256 leave the process.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

DESCENT_MODULES = ("oneplusa.gutkin", "oneplusa.identities")


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _run_command(main, argv):
    buf = io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejects an argument list
        rc, error = exc.code, f"SystemExit({exc.code!r})"
    except Exception as exc:  # a failing command is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    report = buf.getvalue().encode("utf-8")
    passed = None
    if rc == 0 and argv and "verify" in argv:
        try:
            passed = json.loads(report).get("passed")
        except ValueError:
            passed = False
    return {
        "argv": argv,
        "rc": rc,
        "error": error,
        "wall_s": wall,
        "bytes": len(report),
        "sha256": hashlib.sha256(report).hexdigest(),
        "passed": passed,
    }


def main():
    spec = json.loads(sys.argv[1])
    proto = os.fdopen(os.dup(1), "w")
    sys.path.insert(0, spec["src"])
    import oneplusa.cli

    src_pkg = os.path.join(os.path.realpath(spec["src"]), "oneplusa")
    if os.path.dirname(os.path.realpath(oneplusa.cli.__file__)) != src_pkg:
        raise SystemExit(f"imported oneplusa from outside {spec['src']}")

    tracer = None
    if spec["trace"]:
        if not spec["oracle"]:
            import oneplusa.gutkin  # noqa: F401  (bound before wrapping)
            import oneplusa.identities  # noqa: F401
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()

    proto.write("ready\n")
    proto.flush()

    results = []
    cpu0 = _cpu_seconds()
    for argv in spec["commands"]:
        if tracer is None:
            results.append(_run_command(oneplusa.cli.main, argv))
            continue
        counts_before = dict(tracer.counts)
        tracer.enter(tracer_mod.ROOT)
        try:
            res = _run_command(oneplusa.cli.main, argv)
        finally:
            tracer.exit()
        spans = tracer.take()
        res["span_summary"] = [
            [list(key), row] for key, row in tracer_mod.summarize(spans).items()
        ]
        # spans whose ancestry does not end at the command root
        res["orphan_spans"] = sorted(
            {s[0] for s in spans if s[1] is None and s[0] != tracer_mod.ROOT})
        res["traced_wall_s"] = spans[-1][3]  # the root span closes last
        res["counts"] = {
            k: v - counts_before.get(k, 0) for k, v in tracer.counts.items()
        }
        results.append(res)

    leaked = [m for m in DESCENT_MODULES if sys.modules.get(m) is not None]
    out = {
        "commands": results,
        "cpu_s": _cpu_seconds() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "descent_modules_loaded": leaked if spec["oracle"] else None,
    }
    proto.write(json.dumps(out) + "\n")
    proto.flush()


if __name__ == "__main__":
    main()
