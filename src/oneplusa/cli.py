"""Batch command-line front end.

Commands: catalog | show | chartable | decompose | verify | halasi-explore.
Reports are deterministic: same inputs and flags, same bytes.  Exit codes:
0 on success, 1 when a mathematical claim is falsified (a witness is
printed), 2 on usage, parse, or cap errors.
"""

import argparse
import json
import os
import random
import sys

from .catalog import BUILTIN, resolve, slug
from .chars import character_table, linear_exponents
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


def _emit(args, payload, name, kind, text=None):
    """Write a report to --out DIR or stdout.  JSON payloads are rendered
    canonically; text is used as-is for csv."""
    if text is None:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        ext = "json"
    else:
        ext = "csv"
    out_dir = getattr(args, "out", None)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{slug(name)}.{kind}.{ext}")
        with open(path, "w") as fh:
            fh.write(text)
        print(path)
    else:
        sys.stdout.write(text)


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

    report = verify_gutkin_all(A, cap=args.cap)
    report["passed"] = report["verified"] == report["characters"]
    return report


def _suite_commutators(A, args):
    G = unit_group_of(A, args.cap)
    top = A.nilpotency_index
    checks = []
    for m in range(1, top + 1):
        for n in range(1, top + 1):
            ok, witness = check_commutator_theorem(G, m, n)
            if not ok:
                raise VerificationFailed(
                    "commutator-containment", witness=(m, n, witness)
                )
            checks.append([m, n])
    return {"passed": True, "pairs_checked": len(checks)}


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
    for m in range(2, 5):
        try:
            if not additivity_defect_check(m):
                raise VerificationFailed("additivity-defect", witness=m)
            defects["additivity"].append(m)
        except CapExceeded:
            pass
        try:
            if not scaling_defect_check(m):
                raise VerificationFailed("scaling-defect", witness=m)
            defects["scaling"].append(m)
        except CapExceeded:
            pass

    G = unit_group_of(A, args.cap)
    pairing = []
    for m in range(2, A.nilpotency_index + 1):
        invariant = 0
        for zeta in linear_exponents(power_subgroup(G, m)):
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
    from .gutkin import _bracket_value, find_polarization

    q = A.ring.field.q
    rng = random.Random(args.seed)
    basis = A.basis()
    ops = A.ring.linalg_ops()
    dims = []
    for _ in range(100):
        f = tuple(rng.randrange(q) for _ in range(A.dim))
        B = find_polarization(A, f)
        gram = [
            tuple(_bracket_value(A, f, x, y) for y in basis) for x in basis
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
    except VerificationFailed as e:
        print(f"falsified: {e}", file=sys.stderr)
        return 1
    except SearchExhausted as e:
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


if __name__ == "__main__":
    sys.exit(main())
