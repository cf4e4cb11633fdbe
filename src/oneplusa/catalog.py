"""Built-in algebra catalog and target-name resolution for the CLI."""

import json
import os
import re

from .exactfield import gf
from .nilalg import Algebra, FieldRing, free_nilpotent, strictly_upper_triangular


class CatalogEntry:
    """A named constructor for an algebra, with the expected character
    degree multiset when it is pinned."""

    def __init__(self, name, build, description, expected_degrees=None):
        self.name = name
        self.build = build
        self.description = description
        self.expected_degrees = expected_degrees

    def construct(self):
        return self.build()

    def summary(self):
        A = self.construct()
        q = A.ring.field.q
        return {
            "name": self.name,
            "description": self.description,
            "dim": A.dim,
            "field": q,
            "nilpotency_index": A.nilpotency_index,
            "group_order": q ** A.dim,
            "expected_degrees": self.expected_degrees,
        }


def _ul(n, q):
    return CatalogEntry(
        f"ul({n},{q})",
        lambda: strictly_upper_triangular(n, gf(q)),
        f"strictly upper triangular {n}x{n} matrices over GF({q})",
        expected_degrees={1: q ** 2, q: q - 1} if n == 3 else None,
    )


def _free(q, gens, idx):
    return CatalogEntry(
        f"free({q},{gens},{idx})",
        lambda: free_nilpotent(FieldRing(gf(q)), gens, idx),
        f"free nilpotent algebra over GF({q}), {gens} generators, "
        f"products of {idx} factors vanish",
    )


BUILTIN = [
    _ul(3, 2),
    _ul(3, 3),
    _ul(3, 4),
    _ul(4, 2),
    _free(2, 2, 3),
    _free(3, 2, 3),
]
# degree multisets pinned by the table oracle
BUILTIN[3].expected_degrees = {1: 8, 2: 6, 4: 2}
BUILTIN[4].expected_degrees = {1: 32, 2: 8}
BUILTIN[5].expected_degrees = {1: 243, 3: 54}

_UL_PAT = re.compile(r"^ul\((\d+),(\d+)\)$")
_FREE_PAT = re.compile(r"^free\((\d+),(\d+),(\d+)\)$")
_FILE_PAT = re.compile(r"^file\((.+)\)$")


def resolve(name):
    """Turn a target name into an Algebra.

    Accepts catalog names, the ul(n,q) / free(q,gens,index) constructor
    syntax for off-catalog sizes, file(path), or a bare path to an algebra
    JSON file.  A missing file(path) raises the OSError that names it."""
    for entry in BUILTIN:
        if entry.name == name.replace(" ", ""):
            return entry.construct()
    text = name.replace(" ", "")
    m = _UL_PAT.match(text)
    if m:
        n, q = int(m.group(1)), int(m.group(2))
        return strictly_upper_triangular(n, gf(q))
    m = _FREE_PAT.match(text)
    if m:
        q, gens, idx = (int(t) for t in m.groups())
        return free_nilpotent(FieldRing(gf(q)), gens, idx)
    m = _FILE_PAT.match(name)
    if m or os.path.exists(name):
        with open(m.group(1) if m else name) as fh:
            return Algebra.from_json(json.load(fh))
    raise ValueError(f"unknown target {name!r}")


def slug(name):
    """Filesystem-safe version of a target name."""
    base = os.path.basename(name)
    base = re.sub(r"\.json$", "", base)
    return re.sub(r"[^\w.+-]+", "-", base).strip("-")
