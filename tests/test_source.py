"""Static checks on the package source."""

import ast
import importlib
import re
import runpy
from pathlib import Path

from oneplusa.unitgroup import UnitGroup

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "oneplusa"


def test_no_assert_statements():
    # python -O strips assert statements, so every check in the package
    # raises an error instead (VerificationFailed with a witness for a
    # mathematical claim)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
    assert len(list(SRC.glob("*.py"))) >= 10


def test_traced_names_resolve():
    # the benchmark tracer wraps every (module, attribute) of its SPANS and
    # COUNTS by name, looked up as vars(owner)[last]; each must stay callable
    tracer = runpy.run_path(str(ROOT / "perfbench" / "tracer.py"))
    entries = [(m, a) for m, a, _, _ in tracer["SPANS"]]
    entries += [(m, a) for m, a, _ in tracer["COUNTS"]]
    missing = []
    for module, attr in entries:
        owner = importlib.import_module(f"{tracer['PACKAGE']}.{module}")
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        value = vars(owner).get(last)
        fn = value.fget if isinstance(value, property) else value
        if not callable(fn):
            missing.append(f"{module}.{attr}")
    assert not missing, missing
    assert ("exactfield", "Cyclotomic.__mul__") in entries


def test_only_unitgroup_reads_the_table():
    # the group index API (mul, inv, conj, comm in unitgroup) is the one
    # place that knows the Cayley table, so it can be swapped for coordinate
    # arithmetic; a unit group is itself that API, with no .group wrapper
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr == "table" and path.name != "unitgroup.py":
                found.append(f"{path.name}:{node.lineno} .table")
            inner = node.value
            if node.attr == "group" and (
                isinstance(inner, ast.Name) and inner.id == "group"
                or isinstance(inner, ast.Attribute) and inner.attr == "group"
            ):
                found.append(f"{path.name}:{node.lineno} group.group")
    assert not found, found
    assert not hasattr(UnitGroup, "group")


def _assigned(node):
    """The expressions an assignment statement stores into, with tuple
    targets unpacked."""
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return []
    out = []
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        else:
            out.append(target)
    return out


def test_one_cache_policy():
    # derived state lives in its owner's memo (nilalg.Memoized.memo): no
    # module assigns to a private attribute of anything but self, or to an
    # item of one, and memo is defined exactly once
    found, memos = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "memo":
                memos.append(f"{path.name}:{node.lineno}")
            for target in _assigned(node):
                while isinstance(target, ast.Subscript):
                    target = target.value
                if not isinstance(target, ast.Attribute):
                    continue
                private = target.attr.startswith("_") and not target.attr.startswith("__")
                on_self = isinstance(target.value, ast.Name) and target.value.id == "self"
                if private and not on_self:
                    found.append(f"{path.name}:{node.lineno} .{target.attr}")
    assert not found, found
    assert len(memos) == 1, memos


def _raised_name(node):
    """The name of the class a raise statement raises, or None."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


def test_every_error_class_is_raised():
    # an exception class in errors.py that nothing in the package raises is
    # dead code, and a reader would look for a check that is not there
    errors = ast.parse((SRC / "errors.py").read_text())
    defined = {n.name for n in errors.body if isinstance(n, ast.ClassDef)}
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised.add(_raised_name(node))
    assert len(defined) >= 10
    assert sorted(defined - raised) == []


def _package_imports(path):
    """The package modules a source file imports, by name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("oneplusa"):
                continue
            module = module.removeprefix("oneplusa").lstrip(".")
            if module:
                found.add(module)
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.removeprefix("oneplusa.")
                         for alias in node.names if alias.name.startswith("oneplusa"))
    return found


def test_field_arithmetic_and_row_reduction_sit_beneath_nilalg():
    # exactfield and linalg import nothing of the package but its errors, so
    # nilalg, which holds the subspace constructions, is built on them and
    # they know nothing of algebras, rings or subspaces
    for name in ("exactfield", "linalg"):
        assert _package_imports(SRC / f"{name}.py") <= {"errors"}, name
    assert _package_imports(SRC / "nilalg.py") >= {"exactfield", "linalg"}


def _field_arithmetic_sites(tree):
    """Calls to the polynomial helpers _poly_*, and definitions of or
    stores to an attribute named logs, in one module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            if name.startswith("_poly_"):
                found.append(f"{node.lineno} {name}()")
        elif isinstance(node, ast.FunctionDef) and node.name == "logs":
            found.append(f"{node.lineno} def logs")
        elif (isinstance(node, ast.Attribute) and node.attr == "logs"
              and isinstance(node.ctx, ast.Store)):
            found.append(f"{node.lineno} .logs =")
    return found


def test_only_exactfield_builds_the_field_arithmetic():
    # one finite-field arithmetic: exactfield's polynomial helpers build each
    # field's one log/antilog pair, FiniteField.logs, and the array
    # arithmetic, linalg.FieldArrays, only copies it
    found = [
        f"{path.name}:{site}"
        for path in sorted(SRC.glob("*.py")) if path.name != "exactfield.py"
        for site in _field_arithmetic_sites(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, found
    own = _field_arithmetic_sites(ast.parse((SRC / "exactfield.py").read_text()))
    assert any("def logs" in site for site in own)
    assert any("_poly_mul_mod_p()" in site for site in own)


def test_linear_algebra_has_one_scalar_domain():
    # subspaces exist only over a finite field: linalg and nilalg import
    # nothing from fractions, and no ring in nilalg converts its scalars
    # into a second linear-algebra domain
    for name in ("linalg", "nilalg"):
        tree = ast.parse((SRC / f"{name}.py").read_text())
        imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                     for alias in node.names}
        assert "fractions" not in imported, name
    converters = {"ops_vector", "ops_scalar", "raw_vector"}
    found = [
        f"{cls.name}.{node.name}"
        for cls in ast.parse((SRC / "nilalg.py").read_text()).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name in converters
    ]
    assert not found, found


def _functions(body, prefix=""):
    """(qualified name, node) of every function defined in a statement list,
    methods and nested functions included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if isinstance(node, ast.FunctionDef):
                yield name, node
            yield from _functions(node.body, name + ".")


ROW_REDUCTION = re.compile(r"rref|echelon|null_?space|null_?rows|row_?reduc|eliminat|gauss", re.I)


def test_row_reduction_is_defined_in_linalg_and_the_mod_ell_helpers():
    # one elimination over GF(q) in linalg, the single-matrix rref in pure
    # Python and the stacked FieldArrays kernel, which the oracle's split
    # mod ell also runs on: a third routine would carry one of these names
    # or borrow numpy's floating-point linalg
    found, borrowed = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found |= {(path.stem, name) for name, _ in _functions(tree.body)
                  if ROW_REDUCTION.search(name.rsplit(".", 1)[-1])}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "linalg" and (
                isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            ):
                borrowed.append(f"{path.name}:{node.lineno}")
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
                if any(n.startswith(("numpy.linalg", "scipy")) for n in names):
                    borrowed.append(f"{path.name}:{node.lineno}")
    assert found == {
        ("linalg", "rref"),
        ("linalg", "FieldArrays.rref"),
        ("linalg", "FieldArrays.nullrows"),
    }, found
    assert not borrowed, borrowed


def test_linalg_keeps_one_scalar_rref_beside_the_field_arrays():
    # every other GF(q) vector operation computes through FieldArrays: the
    # pure-Python reduce, membership, combination, coordinate and null-space
    # routines live on only as the tests' references
    tree = ast.parse((SRC / "linalg.py").read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined == {"rref", "_guard", "field_arrays", "FieldArrays"}, defined


def test_nilalg_and_linalg_import_numpy_inside_functions():
    # nilalg imports linalg before the larger package modules are compiled;
    # numpy loaded under those compilations raises every command's peak memory
    for name in ("linalg", "nilalg"):
        tree = ast.parse((SRC / f"{name}.py").read_text())
        inside = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                  for node in ast.walk(fn)}
        found = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in inside
            and any((getattr(node, "module", None) or alias.name).split(".")[0] == "numpy"
                    for alias in node.names)
        ]
        assert not found, (name, found)
        assert any(isinstance(node, ast.Import) and node.names[0].name == "numpy"
                   for node in ast.walk(tree)), name
