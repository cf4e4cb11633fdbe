"""Batch command-line front end.

Commands: catalog | show | chartable | decompose | verify | halasi-explore.
Reports are deterministic: same inputs and flags, same bytes.  Exit codes:
0 on success, 1 when a mathematical claim is falsified (a witness is
printed), 2 on usage, parse, or cap errors.
"""

import argparse
import gc
import json
import os
import random
import sys
from json.encoder import encode_basestring_ascii

from .catalog import BUILTIN, resolve, slug
from .chars import CellRows, character_table, linear_characters
from .errors import (
    CapExceeded,
    DivisionByZero,
    NotInvariant,
    SearchExhausted,
    VerificationFailed,
)
from .exactfield import gf
from .linalg import rref
from .unitgroup import (
    DEFAULT_GROUP_CAP,
    check_commutator_theorem,
    power_subgroup,
    unit_group_of,
)


class UsageError(Exception):
    """A target, algebra file or field size that cannot be used."""


def _usage(build, *args):
    """build(*args) for a function that parses a target or a field size:
    what it raises on bad input (ValueError with its subclasses NotPrime,
    NotAssociative, NotNilpotent and JSONDecodeError, KeyError, OSError,
    DivisionByZero) becomes a UsageError, exit 2.  The same errors raised
    later, inside a computation, are bugs and pass through."""
    try:
        return build(*args)
    except (ValueError, KeyError, OSError, DivisionByZero) as e:
        raise UsageError(e) from e


USAGE_ERRORS = (UsageError, CapExceeded)
JSON_BATCH = 4096  # pieces of a JSON report joined per write


def _int_at_least(low):
    """argparse type for an integer >= low, so a bad count exits 2 while
    the command line is parsed."""

    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _scalar(o):
    """A JSON scalar as json.dumps renders it."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, int) and o is not True and o is not False:
        return int.__repr__(o)
    if o is None or isinstance(o, (bool, float)):
        return json.dumps(o)
    raise TypeError(
        f"Object of type {o.__class__.__name__} is not JSON serializable"
    )


def _key(k):
    """A dict key as json.dumps renders it: non-string scalars are quoted."""
    if isinstance(k, str):
        return encode_basestring_ascii(k)
    if k is None or isinstance(k, (int, float)):
        return encode_basestring_ascii(_scalar(k))
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {k.__class__.__name__}"
    )


def _write_json(obj, write):
    """Write json.dumps(obj, sort_keys=True, indent=2) through write, byte
    for byte, without the pure-Python encoder that indent selects in the
    standard library, and in batches of about JSON_BATCH pieces rather than
    as one string.  A CellRows is written from its arrays: each distinct
    cell rendered once, each row one join of cell texts by its ids."""
    out, path = [], set()  # path: ids of the containers being written
    held = 0  # > 0 while a cell is rendered into a piece of out

    def value(o, depth):
        if not isinstance(o, (list, tuple, dict)):
            out.append(_scalar(o))
            return
        if not o:
            out.append("{}" if isinstance(o, dict) else "[]")
            return
        if id(o) in path:
            raise ValueError("Circular reference detected")
        path.add(id(o))
        pad = "\n" + "  " * (depth + 1)
        is_dict = isinstance(o, dict)
        if isinstance(o, CellRows):
            texts = [piece(cell, depth + 2) for cell in o.cells]
            rows, inner = o.ids.tolist(), pad + "  "
            step = max(1, JSON_BATCH // max(1, len(rows[0])))  # rows per write
            for i in range(0, len(rows), step):
                out.append(("," if i else "[") + pad + ("," + pad).join([
                    "[" + inner + ("," + inner).join([texts[t] for t in row]) + pad + "]"
                    if row else "[]" for row in rows[i:i + step]]))
                flush()
        else:
            out.append("{" if is_dict else "[")
            sep = pad
            for item in sorted(o.items()) if is_dict else o:
                if is_dict:
                    sep += _key(item[0]) + ": "
                    item = item[1]
                out.append(sep)
                value(item, depth + 1)
                sep = "," + pad
                if len(out) >= JSON_BATCH:
                    flush()
        out.append("\n" + "  " * depth + ("}" if is_dict else "]"))
        path.discard(id(o))

    def piece(o, depth):
        nonlocal held
        held += 1
        mark = len(out)
        value(o, depth)
        text = "".join(out[mark:])
        del out[mark:]
        held -= 1
        return text

    def flush():
        if not held:
            write("".join(out))
            out.clear()

    value(obj, 0)
    flush()


def _emit(args, payload, name, kind, text=None):
    """Write a report to --out DIR or stdout.  JSON payloads are rendered
    canonically, as json.dumps(payload, sort_keys=True, indent=2) + "\\n"
    would render them; text is used as-is for csv."""
    ext = "json" if text is None else "csv"
    out_dir = getattr(args, "out", None)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{slug(name)}.{kind}.{ext}")
        with open(path, "w") as fh:
            _write_report(fh, payload, text)
        print(path)
    else:
        _write_report(sys.stdout, payload, text)


def _write_report(fh, payload, text):
    """The JSON rendering of payload and a newline, or text, into fh."""
    if text is None:
        _write_json(payload, fh.write)
        fh.write("\n")
    else:
        fh.write(text)


def cmd_catalog(args):
    rows = [entry.summary() for entry in BUILTIN]
    if args.format == "json":
        _emit(args, rows, "catalog", "catalog")
        return 0
    for r in rows:
        print(
            f"{r['name']:<14} dim {r['dim']:>2}  class {r['nilpotency_index']}"
            f"  |1+A| = {r['group_order']:<6}  {r['description']}"
        )
    return 0


def cmd_show(args):
    A = _usage(resolve, args.target)
    q = A.ring.field.q
    info = {
        "target": args.target,
        "dim": A.dim,
        "field": q,
        "nilpotency_index": A.nilpotency_index,
        "group_order": q ** A.dim,
        "labels": list(A.labels),
        "algebra": A.to_json(),
    }
    if args.format == "json":
        _emit(args, info, args.target, "show")
        return 0
    print(f"{args.target}: dim {A.dim} over GF({q}), "
          f"nilpotency index {A.nilpotency_index}, group order {q ** A.dim}")
    print("basis: " + ", ".join(A.labels))
    return 0


def cmd_chartable(args):
    A = _usage(resolve, args.target)
    tab = character_table(unit_group_of(A, args.cap))
    if args.format == "csv":
        _emit(args, None, args.target, "chartable", text=tab.to_csv())
    else:
        _emit(args, tab.to_json(), args.target, "chartable")
    return 0


def cmd_decompose(args):
    from .gutkin import gutkin_decompose

    A = _usage(resolve, args.target)
    G = unit_group_of(A, args.cap)
    tab = character_table(G)
    certs = [gutkin_decompose(chi).to_json() for chi in tab.chars]
    payload = {
        "target": args.target,
        "group_order": G.order,
        "dim": A.dim,
        "field": G.field.q,
        "degrees": tab.degrees,
        "certificates": certs,
    }
    _emit(args, payload, args.target, "decompose")
    return 0


def _suite_gutkin(A, args):
    from .gutkin import verify_gutkin_all

    report = verify_gutkin_all(unit_group_of(A, args.cap))
    report["passed"] = report["verified"] == report["characters"]
    return report


def _suite_commutators(A, args):
    G = unit_group_of(A, args.cap)
    top = A.nilpotency_index
    for m in range(1, top + 1):
        for n in range(1, top + 1):
            ok, witness = check_commutator_theorem(G, m, n)
            if not ok:
                raise VerificationFailed(
                    "commutator-containment", witness=(m, n, witness)
                )
    return {"passed": True, "pairs_checked": top * top}


def _suite_identities(A, args):
    from .identities import (
        additivity_defect_check,
        finite_pairing_check,
        lemma_auxiliary_check,
        scaling_defect_check,
    )

    lemma = 0
    for gens in (1, 2, 3):
        for n in range(2, 6):
            for m in range(2, n):
                ok, residual = lemma_auxiliary_check(gens, n, m)
                if not ok:
                    raise VerificationFailed(
                        "commutator-collapse",
                        witness=(gens, n, m, residual.render()),
                    )
                lemma += 1
    defects = {"additivity": [], "scaling": []}
    checks = {"additivity": additivity_defect_check, "scaling": scaling_defect_check}
    for m in range(2, 5):
        for name, check in checks.items():
            try:
                if not check(m):
                    raise VerificationFailed(f"{name}-defect", witness=m)
                defects[name].append(m)
            except CapExceeded:
                pass

    G = unit_group_of(A, args.cap)
    pairing = []
    for m in range(2, A.nilpotency_index + 1):
        invariant = 0
        for zeta in linear_characters(power_subgroup(G, m)):
            try:
                finite_pairing_check(A, m, zeta, cap=args.cap)
                invariant += 1
            except NotInvariant:
                continue
        pairing.append({"m": m, "invariant_characters": invariant})
    return {
        "passed": True,
        "collapse_cases": lemma,
        "defect_levels": defects,
        "finite_pairing": pairing,
    }


def _suite_polarize(A, args):
    from .gutkin import _apply_functional, find_polarization

    q = A.ring.field.q
    rng = random.Random(args.seed)
    basis = A.basis()
    ops = A.ring.linalg_ops()
    # the rank check forms its own basis brackets by element arithmetic, so
    # it does not share find_polarization's Gram matrix
    brackets = [[(x * y - y * x).coords for y in basis] for x in basis]
    dims = []
    for _ in range(100):
        f = tuple(rng.randrange(q) for _ in range(A.dim))
        B = find_polarization(A, f)
        gram = [
            [_apply_functional(f, c, A.ring) for c in row] for row in brackets
        ]
        rank = len(rref(gram, ops)[0])
        if B.dim != A.dim - rank // 2:
            raise VerificationFailed(
                "polarization-dimension", witness=(f, B.dim)
            )
        dims.append(B.dim)
    return {
        "passed": True,
        "samples": len(dims),
        "seed": args.seed,
        "dimension_histogram": {
            str(d): dims.count(d) for d in sorted(set(dims))
        },
    }


SUITES = {
    "gutkin": _suite_gutkin,
    "commutators": _suite_commutators,
    "identities": _suite_identities,
    "polarize": _suite_polarize,
}


def cmd_verify(args):
    A = _usage(resolve, args.target)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    report = {"target": args.target, "suites": {}}
    for name in names:
        report["suites"][name] = SUITES[name](A, args)
    report["passed"] = all(s["passed"] for s in report["suites"].values())
    _emit(args, report, args.target, "verify")
    return 0 if report["passed"] else 1


def cmd_halasi(args):
    from .identities import halasi_explore

    report = halasi_explore(
        _usage(gf, args.q), args.gens, args.nil_index, args.k, cap=args.cap
    )
    _emit(args, report, f"free({args.q},{args.gens},{args.nil_index})-k{args.k}",
          "halasi")
    return 0


def _build_parser():
    p = argparse.ArgumentParser(
        prog="oneplusa",
        description="Exact character theory of the groups 1+A for nilpotent "
        "algebras A over finite fields.",
    )
    p.add_argument(
        "--no-gutkin",
        action="store_true",
        help="block the descent modules for this invocation; table "
        "commands must keep working without them",
    )
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap", type=int, default=DEFAULT_GROUP_CAP,
                        help="largest group order to enumerate")
    common.add_argument("--out", help="write reports into this directory")
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default="json")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for the random-functional polarization "
                        "sampling")

    sc = sub.add_parser("catalog", parents=[common],
                        help="list the built-in algebras")
    sc.set_defaults(func=cmd_catalog, format="text")
    sc = sub.add_parser("show", parents=[common],
                        help="algebra summary and serialization")
    sc.add_argument("target")
    sc.set_defaults(func=cmd_show, format="text")
    sc = sub.add_parser("chartable", parents=[common],
                        help="character table as JSON or CSV")
    sc.add_argument("target")
    sc.set_defaults(func=cmd_chartable)
    sc = sub.add_parser("decompose", parents=[common],
                        help="monomial certificates for every irreducible")
    sc.add_argument("target")
    sc.set_defaults(func=cmd_decompose)
    sc = sub.add_parser("verify", parents=[common],
                        help="run a verification suite against a target")
    sc.add_argument("target")
    sc.add_argument("--suite", choices=sorted(SUITES) + ["all"],
                    default="all")
    sc.set_defaults(func=cmd_verify)
    sc = sub.add_parser("halasi-explore", parents=[common],
                        help="orders of the derived-intersection comparison "
                        "in a free algebra over a finite field")
    sc.add_argument("q", type=int, help="field size")
    sc.add_argument("gens", type=_int_at_least(0), help="number of generators")
    sc.add_argument("nil_index", type=_int_at_least(1),
                    help="products of this many factors vanish")
    sc.add_argument("k", type=_int_at_least(2),
                    help="filtration level to compare at (at least 2)")
    sc.set_defaults(func=cmd_halasi)
    return p


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    blocked = {}
    if args.no_gutkin:
        for name in ("oneplusa.gutkin", "oneplusa.identities"):
            blocked[name] = sys.modules.get(name)
            sys.modules[name] = None
    try:
        return args.func(args)
    except (VerificationFailed, SearchExhausted) as e:
        print(f"falsified: {e}", file=sys.stderr)
        return 1
    except ModuleNotFoundError as e:
        print(
            f"error: this command needs a module blocked by --no-gutkin ({e.name})",
            file=sys.stderr,
        )
        return 2
    except USAGE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        for name, mod in blocked.items():
            if mod is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = mod
        # a group and its algebra and tables reach each other through their
        # memos, so only the cycle collector frees them; a full collection,
        # as some outlive the younger generations, before the next command
        gc.collect()


if __name__ == "__main__":
    sys.exit(main())
