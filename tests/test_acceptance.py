"""Acceptance gate.

Each test runs one acceptance criterion end to end and prints a single
PASS/FAIL line with its runtime against the stated budget.  Run with
`pytest tests/test_acceptance.py -v -s` to see the lines as they appear.
All checks are exact; there are no tolerances anywhere.
"""

import ast
import itertools
import json
import random
import subprocess
import sys
import time
from pathlib import Path
from oneplusa.catalog import BUILTIN, resolve
from oneplusa.chars import character_table
from oneplusa.errors import CapExceeded
from oneplusa.exactfield import gf
from oneplusa.gutkin import (
    _all_subspaces,
    commutator_pairing,
    find_polarization,
    minimal_scalar_level,
    verify_gutkin_all,
)
from oneplusa.identities import (
    additivity_defect_check,
    lemma_auxiliary_check,
    scaling_defect_check,
)
from oneplusa.linalg import rref
from oneplusa.nilalg import Subspace, is_subalgebra, strictly_upper_triangular
from oneplusa.unitgroup import check_commutator_theorem, unit_group_of
from test_gutkin import _bracket_value

SRC = Path(__file__).resolve().parent.parent / "src" / "oneplusa"

_algebras = {}
_gutkin_reports = {}


def algebra_of(name):
    if name not in _algebras:
        _algebras[name] = resolve(name)
    return _algebras[name]


def group_of(name):
    return unit_group_of(algebra_of(name))


def gutkin_report(name):
    """Full descent report for one catalog algebra, computed once."""
    if name not in _gutkin_reports:
        _gutkin_reports[name] = verify_gutkin_all(group_of(name))
    return _gutkin_reports[name]


class criterion:
    """Times a criterion body and prints exactly one PASS/FAIL line."""

    def __init__(self, num, label, budget_s=None):
        self.num = num
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.monotonic() - self.t0
        over = self.budget is not None and dt > self.budget
        status = "PASS" if exc_type is None and not over else "FAIL"
        budget = f" [budget {self.budget}s]" if self.budget is not None else ""
        print(f"criterion {self.num} ({self.label}): {status} in {dt:.2f}s{budget}")
        if exc_type is None and over:
            raise AssertionError(
                f"criterion {self.num} exceeded its runtime budget: "
                f"{dt:.2f}s > {self.budget}s"
            )
        return False


def test_criterion_1_heisenberg_tables():
    with criterion(1, "heisenberg tables", budget_s=10):
        for q in (2, 3, 4):
            tab = character_table(group_of(f"ul(3,{q})"))
            degs = sorted(tab.degrees)
            assert degs == [1] * q**2 + [q] * (q - 1)
            assert sum(d * d for d in tab.degrees) == q**3
            assert tab.validate()["orthogonality"] == "exact"
            for a, b in itertools.combinations_with_replacement(tab.chars, 2):
                assert a.inner(b) == (1 if a is b else 0)


def test_criterion_2_gutkin_end_to_end():
    with criterion(2, "monomial descent, full catalog", budget_s=300):
        for entry in BUILTIN:
            A = algebra_of(entry.name)
            q = A.ring.field.q
            assert q**A.dim <= 4096
            report = gutkin_report(entry.name)
            # verify_gutkin_all raises on any falsified step (induced
            # character mismatch, reducible induction, bad extension
            # orbit); reaching here with every entry flagged verified
            # and a power-of-q degree is the criterion.
            assert report["verified"] == report["characters"] > 0
            for e in report["entries"]:
                assert e["verified"]
                d = e["degree"]
                while d % q == 0:
                    d //= q
                assert d == 1


def _pairing_points(P):
    q = P.group.field.q
    dom = list(itertools.product(range(q), repeat=P.dom.dim))
    cod = list(itertools.product(range(q), repeat=P.cod.dim))
    return q, dom, cod


def _vec_add(F, u, v):
    return tuple(F.add_idx(a, b) for a, b in zip(u, v))


def _vec_scale(F, lam, u):
    return tuple(F.mul_idx(lam, c) for c in u)


def test_criterion_3_pairing_bilinearity():
    with criterion(3, "pairing bilinearity, exhaustive", budget_s=60):
        nonprime_lambda_seen = False
        for entry in BUILTIN:
            G = group_of(entry.name)
            F = G.field
            tab = character_table(G)
            for chi in tab.chars:
                if chi.degree_int() == 1:
                    continue
                m, zeta = minimal_scalar_level(chi)
                P = commutator_pairing(G, m, zeta)
                q, dom, cod = _pairing_points(P)
                for x, xp in itertools.product(dom, repeat=2):
                    s = _vec_add(F, x, xp)
                    for y in cod:
                        assert P.value(s, y) == P.value(x, y) * P.value(xp, y)
                for y, yp in itertools.product(cod, repeat=2):
                    s = _vec_add(F, y, yp)
                    for x in dom:
                        assert P.value(x, s) == P.value(x, y) * P.value(x, yp)
                for lam in range(q):
                    if lam >= F.p:
                        nonprime_lambda_seen = True
                    for x in dom:
                        lx = _vec_scale(F, lam, x)
                        for y in cod:
                            assert P.value(lx, y) == P.value(x, _vec_scale(F, lam, y))
        # the scalar bullet must have exercised lambda outside the prime
        # field somewhere (the q = 4 catalog entry provides it)
        assert nonprime_lambda_seen


def test_criterion_4_commutator_theorem():
    with criterion(4, "commutator containment", budget_s=60):
        pairs = 0
        for entry in BUILTIN:
            G = group_of(entry.name)
            top = G.algebra.nilpotency_index
            for m in range(1, top + 1):
                for n in range(1, top + 1):
                    if m + n - 1 > top:
                        continue
                    ok, witness = check_commutator_theorem(G, m, n)
                    assert ok, (entry.name, m, n, witness)
                    pairs += 1
        assert pairs > 0


def test_criterion_5_symbolic_identities():
    with criterion(5, "symbolic commutator identities", budget_s=120):
        for gens in (1, 2, 3):
            for n in range(2, 6):
                for m in range(2, n):
                    ok, residual = lemma_auxiliary_check(gens, n, m)
                    assert ok, (gens, n, m, residual.render())
        checked = {"additivity": [], "scaling": []}
        for m in range(2, 5):
            for label, check in (
                ("additivity", additivity_defect_check),
                ("scaling", scaling_defect_check),
            ):
                try:
                    assert check(m), (label, m)
                    checked[label].append(m)
                except CapExceeded:
                    continue
        assert checked["additivity"] == [2, 3]  # m = 4 needs 780 dims, cap is 400
        assert checked["scaling"] == [2, 3, 4]


def test_criterion_6_extension_lemma():
    with criterion(6, "extension sets along every descent", budget_s=300):
        steps = 0
        for entry in BUILTIN:
            # gutkin_decompose raises EmptyExtensionSet / MultipleOrbits /
            # WrongStabilizer the moment any step's extension set violates
            # the lemma, so a verified report certifies all three parts.
            report = gutkin_report(entry.name)
            for e in report["entries"]:
                assert e["verified"]
                assert all(k >= 1 for k in e["extensions"])
                steps += len(e["extensions"])
        assert steps > 0


def _isotropic_subalgebra(alg, f, space):
    if not is_subalgebra(alg, space):
        return False
    els = space.row_elements()
    return all(
        alg.ring.is_zero(_bracket_value(alg, f, x, y))
        for x in els
        for y in els
    )


def _brute_force_best(alg, f):
    for k in range(alg.dim, 0, -1):
        for rows in _all_subspaces(alg, k):
            if _isotropic_subalgebra(alg, f, Subspace.from_vectors(alg, rows)):
                return k
    return 0


def test_criterion_7_polarizations():
    with criterion(7, "polarization dimensions", budget_s=120):
        small = [
            e.name
            for e in BUILTIN
            if algebra_of(e.name).dim <= 6 and algebra_of(e.name).ring.field.q <= 3
        ]
        assert len(small) == 5  # everything but the q = 4 entry
        for idx, name in enumerate(small):
            A = algebra_of(name)
            q = A.ring.field.q
            basis = A.basis()
            ops = A.ring.linalg_ops()
            rng = random.Random(1000 + idx)
            for _ in range(100):
                f = tuple(rng.randrange(q) for _ in range(A.dim))
                B = find_polarization(A, f)
                assert _isotropic_subalgebra(A, f, B), (name, f)
                gram = [
                    tuple(_bracket_value(A, f, x, y) for y in basis)
                    for x in basis
                ]
                rank = len(rref(gram, ops)[0])
                assert rank % 2 == 0
                assert B.dim == A.dim - rank // 2, (name, f, B.dim, rank)
        # exhaustive cross-check at dim <= 4 over GF(2)
        A = algebra_of("ul(3,2)")
        for f in itertools.product(range(2), repeat=A.dim):
            assert find_polarization(A, f).dim == _brute_force_best(A, f)


def _module_imports(path):
    tree = ast.parse(path.read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("oneplusa."):
                    found.add(alias.name.split(".")[1])
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.module and node.module.startswith("oneplusa."):
                found.add(node.module.split(".")[1])
    return found


def test_criterion_8_oracle_independence():
    with criterion(8, "table oracle independent of descent code", budget_s=60):
        graph = {
            p.stem: _module_imports(p) for p in sorted(SRC.glob("*.py"))
        }
        # static leg: nothing reachable from the oracle touches the
        # descent or symbolic modules, while the descent side builds on
        # the oracle (strict one-way dependency)
        reach = set()
        frontier = {"chars", "__init__"}
        while frontier:
            mod = frontier.pop()
            for dep in graph.get(mod, ()):
                if dep not in reach:
                    reach.add(dep)
                    frontier.add(dep)
        assert not reach & {"gutkin", "identities"}, reach
        assert "chars" in graph["gutkin"]

        # runtime leg: a fresh interpreter with the descent modules
        # blocked outright still reproduces every criterion-1 table
        for q in (2, 3, 4):
            proc = subprocess.run(
                [sys.executable, "-m", "oneplusa.cli",
                 "--no-gutkin", "chartable", f"ul(3,{q})"],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            degs = sorted(json.loads(proc.stdout)["degrees"])
            assert degs == [1] * q**2 + [q] * (q - 1)
