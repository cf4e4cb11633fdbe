"""Per-layer tracing for the benchmark child, from outside the package.

`Tracer.install()` replaces the functions and methods of the oneplusa
modules listed in SPANS and COUNTS with wrappers that record spans (name, parent, start, end) or bare
call counts.  Every module namespace and class dict that binds the original
object gets the wrapper, so `character_table` is traced whether it is called
as `chars.character_table`, `gutkin.character_table` or `cli.character_table`.
Spans stay in memory until `take()` hands them over at the end of a command.

Only modules already imported are wrapped and nothing is imported here, so a
traced run of the table oracle never loads the descent modules.
"""

import functools
import sys
import time
import weakref
from collections import Counter

PACKAGE = "oneplusa"
ROOT = "cli.main"
DESCENT = "gutkin.decompose"

# (module, attribute, span name, hook).  A hook sees (tracer, args, result)
# and adds exact counts at the same boundary as the span.


def _cells(tr, args, result):
    tr.counts["unitgroup.table_cells"] += args[0].order ** 2


def _classes(tr, args, result):
    if tr.first_visit("classes", args[0]):
        tr.counts["unitgroup.classes"] += len(result)


def _tables(tr, args, result):
    if tr.first_visit("tables", args[0]):
        tr.counts["chars.tables_computed"] += 1


def _pairing_points(tr, args, result):
    tr.counts["gutkin.pairing_points"] += len(result.values)


def _extensions(tr, args, result):
    tr.counts["gutkin.extensions"] += len(result)


SPANS = [
    ("catalog", "resolve", "nilalg.resolve", None),
    ("nilalg", "subalgebra_algebra", "nilalg.subalgebra", None),
    ("linalg", "rref", "linalg.rref", None),
    ("unitgroup", "UnitGroup._build_table", "unitgroup.build_table", _cells),
    ("unitgroup", "UnitGroup.conjugacy_classes", "unitgroup.classes", _classes),
    ("unitgroup", "Subgroup.std_group", "unitgroup.std_group", None),
    ("unitgroup", "subgroup_closure", "unitgroup.closure", None),
    ("unitgroup", "commutator_subgroup", "unitgroup.closure", None),
    ("unitgroup", "FiniteGroupTable.subgroup_closure", "unitgroup.closure", None),
    ("unitgroup", "FiniteGroupTable.commutator_values", "unitgroup.closure", None),
    ("unitgroup", "check_commutator_theorem", "unitgroup.commutator_theorem", None),
    ("chars", "character_table", "chars.character_table", _tables),
    ("chars", "CharacterTable.validate", "chars.validate", None),
    ("chars", "ClassFunction.inner", "chars.inner", None),
    ("chars", "induce", "chars.induce", None),
    ("chars", "restrict", "chars.restrict", None),
    ("chars", "mackey_irreducible", "chars.mackey", None),
    ("chars", "linear_characters", "chars.linear_characters", None),
    ("chars", "CharacterTable.to_json", "cli.emit", None),
    ("chars", "CharacterTable.to_csv", "cli.emit", None),
    ("gutkin", "gutkin_decompose", DESCENT, None),
    ("gutkin", "minimal_scalar_level", "gutkin.scalar_level", None),
    ("gutkin", "commutator_pairing", "gutkin.pairing", _pairing_points),
    ("gutkin", "phi_map", "gutkin.phi_line_ideals", None),
    ("gutkin", "choose_line", "gutkin.phi_line_ideals", None),
    ("gutkin", "build_ideals", "gutkin.phi_line_ideals", None),
    ("gutkin", "extension_set", "gutkin.extension_set", _extensions),
    ("gutkin", "MonomialDatum.verify", "gutkin.verify", None),
    ("gutkin", "MonomialDatum.to_json", "cli.emit", None),
    ("gutkin", "find_polarization", "gutkin.polarization", None),
    ("identities", "finite_pairing_check", "identities.finite_pairing", None),
    ("identities", "lemma_auxiliary_check", "identities.symbolic", None),
    ("identities", "additivity_defect_check", "identities.symbolic", None),
    ("identities", "scaling_defect_check", "identities.symbolic", None),
    ("cli", "_emit", "cli.emit", None),
]

# (module, attribute, counter): hot calls that only count, no span
COUNTS = [
    ("unitgroup", "UnitGroup.__init__", "unitgroup.groups_built"),
    ("gutkin", "GutkinStep.__init__", "gutkin.steps"),
    ("exactfield", "Cyclotomic.__mul__", "exactfield.cyclotomic_mul"),
    ("exactfield", "Cyclotomic.__eq__", "exactfield.cyclotomic_eq"),
]


class Tracer:
    """Span stack plus exact counters for one child process."""

    def __init__(self):
        self.spans = []  # (name, parent, under_descent, duration, self_time)
        self.counts = Counter()
        self._stack = []  # [name, start, time covered by children]
        self._descent_depth = 0
        self._visited = {}

    def first_visit(self, kind, obj):
        """True the first time obj is seen under kind (objects die freely)."""
        seen = self._visited.setdefault(kind, weakref.WeakSet())
        if obj in seen:
            return False
        seen.add(obj)
        return True

    # -- spans ---------------------------------------------------------------

    def enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])
        if name == DESCENT:
            self._descent_depth += 1

    def exit(self):
        end = time.perf_counter()
        name, start, covered = self._stack.pop()
        if name == DESCENT:
            self._descent_depth -= 1
        duration = end - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append(
            (name, parent, self._descent_depth > 0, duration, duration - covered)
        )

    def take(self):
        """Hand over the spans recorded so far and forget them."""
        spans, self.spans = self.spans, []
        return spans

    # -- wrapping ------------------------------------------------------------

    def _span_wrapper(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__traced__ = name  # lets the self-test find double wrapping
        return traced

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__traced__ = name
        return counted

    def install(self):
        """Wrap every SPANS and COUNTS entry whose module is already loaded."""
        loaded = {
            key[len(PACKAGE) + 1:]: mod
            for key, mod in list(sys.modules.items())
            if key.startswith(PACKAGE + ".") and mod is not None
        }
        for module, attr, name, hook in SPANS:
            if module in loaded:
                self._replace(loaded, module, attr,
                              lambda fn: self._span_wrapper(fn, name, hook))
        for module, attr, name in COUNTS:
            if module in loaded:
                self._replace(loaded, module, attr,
                              lambda fn: self._count_wrapper(fn, name))

    def _replace(self, loaded, module, attr, make):
        owner = loaded[module]
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[last]
        if isinstance(original, property):
            wrapped = property(make(original.fget), original.fset, original.fdel,
                               original.__doc__)
        else:
            wrapped = make(original)
        # every namespace binding the same object: modules that imported the
        # name, and aliases such as __rmul__ = __mul__ in the class body
        namespaces = [owner] + list(loaded.values())
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapped)


# -- per-layer metrics from spans --------------------------------------------
# Each time metric sums span self times ("self") or whole durations ("total")
# over the spans it selects; a selector is (span names, required parent,
# required "under the descent" flag), None meaning any.

TIME_METRICS = {
    "unitgroup.table_s": ("self", {"unitgroup.build_table"}, None, None),
    "unitgroup.classes_s": ("self", {"unitgroup.classes"}, None, None),
    "unitgroup.closure_s": ("self", {"unitgroup.closure"}, None, None),
    "unitgroup.commutator_theorem_s": ("self", {"unitgroup.commutator_theorem"}, None, None),
    "unitgroup.std_group_s": ("self", {"unitgroup.std_group"}, None, None),
    "chars.table_s": ("total", {"chars.character_table"}, None, False),
    "chars.split_lift_self_s": ("self", {"chars.character_table"}, None, False),
    "chars.validate_s": ("self", {"chars.validate"}, None, None),
    "chars.inner_s": ("self", {"chars.inner"}, None, None),
    "chars.induce_s": ("self", {"chars.induce"}, None, None),
    "chars.restrict_s": ("self", {"chars.restrict"}, None, None),
    "chars.mackey_s": ("self", {"chars.mackey"}, None, None),
    "chars.linear_characters_s": ("self", {"chars.linear_characters"}, None, None),
    "gutkin.scalar_level_s": ("self", {"gutkin.scalar_level"}, None, None),
    "gutkin.pairing_s": ("self", {"gutkin.pairing"}, None, None),
    "gutkin.phi_line_ideals_s": ("self", {"gutkin.phi_line_ideals"}, None, None),
    "gutkin.extension_set_s": ("self", {"gutkin.extension_set"}, None, None),
    "gutkin.subtable_s": ("total", {"chars.character_table"}, None, True),
    "gutkin.constituent_s": ("self", {"chars.inner"}, DESCENT, None),
    "gutkin.induce_verify_s": (
        "total", {"chars.mackey", "chars.induce", "gutkin.verify"}, DESCENT, None),
    "gutkin.polarization_s": ("self", {"gutkin.polarization"}, None, None),
    "linalg.rref_s": ("self", {"linalg.rref"}, None, None),
    "identities.finite_pairing_s": ("self", {"identities.finite_pairing"}, None, None),
    "identities.symbolic_s": ("self", {"identities.symbolic"}, None, None),
    "nilalg.resolve_s": ("self", {"nilalg.resolve"}, None, None),
    "nilalg.subalgebra_s": ("self", {"nilalg.subalgebra"}, None, None),
    "cli.emit_s": ("self", {"cli.emit"}, None, None),
}

# self-mode metrics that only re-select spans another one already counts
SUBSET_METRICS = {"gutkin.constituent_s": "chars.inner_s"}

# self-mode metrics that select disjoint spans, so per command they add up
# to at most the traced wall time
DISJOINT_SELF_METRICS = [
    metric for metric, (mode, *_) in TIME_METRICS.items()
    if mode == "self" and metric not in SUBSET_METRICS
]

# counts of spans by name
CALL_METRICS = {
    "unitgroup.tables_built": "unitgroup.build_table",
    "chars.inner_calls": "chars.inner",
    "chars.induce_calls": "chars.induce",
    "gutkin.certificates": DESCENT,
    "gutkin.polarizations": "gutkin.polarization",
    "linalg.rref_calls": "linalg.rref",
    "identities.finite_pairing_calls": "identities.finite_pairing",
    "nilalg.subalgebras_built": "nilalg.subalgebra",
}

# counters filled by hooks, count wrappers and the child itself
COUNTER_METRICS = [
    "unitgroup.table_cells",
    "unitgroup.classes",
    "unitgroup.groups_built",
    "chars.tables_computed",
    "gutkin.pairing_points",
    "gutkin.extensions",
    "gutkin.steps",
    "exactfield.cyclotomic_mul",
    "exactfield.cyclotomic_eq",
    "cli.report_bytes",
]


def summarize(spans):
    """{(name, parent, under_descent): [calls, self seconds, total seconds]}"""
    out = {}
    for name, parent, under, duration, self_time in spans:
        row = out.setdefault((name, parent, under), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += self_time
        row[2] += duration
    return out


def merge(into, summary):
    for key, row in summary.items():
        acc = into.setdefault(key, [0, 0.0, 0.0])
        for t in range(3):
            acc[t] += row[t]
    return into


def layer_metrics(summary, counts):
    """Named per-layer metrics from a merged span summary and counters."""
    out = {}
    for metric, (mode, names, parent, under) in TIME_METRICS.items():
        col = 1 if mode == "self" else 2
        out[metric] = sum(
            row[col]
            for (name, par, und), row in summary.items()
            if name in names
            and (parent is None or par == parent)
            and (under is None or und == under)
        )
    for metric, name in CALL_METRICS.items():
        out[metric] = sum(row[0] for (n, _, _), row in summary.items() if n == name)
    for metric in COUNTER_METRICS:
        out[metric] = counts.get(metric, 0)
    return out


def layer_self_seconds(summary):
    """Self time inside layer spans, i.e. everything below the command root."""
    return sum(row[1] for (name, _, _), row in summary.items() if name != ROOT)
