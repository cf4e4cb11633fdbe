"""Command-line behavior: targets, formats, exit codes, reproducibility."""

import gc
import hashlib
import io
import json
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oneplusa import cli
from oneplusa.chars import CellRows
from oneplusa.errors import VerificationFailed
from oneplusa.nilalg import Algebra
from test_unitgroup import _skew_truncated_polynomial


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_text(capsys):
    code, out, err = run(capsys, "catalog")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 6
    assert any("ul(3,2)" in l and "= 8" in l for l in lines)
    assert any("free(3,2,3)" in l and "729" in l for l in lines)


def test_catalog_json(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "json")
    rows = json.loads(out)
    names = [r["name"] for r in rows]
    assert names == [
        "ul(3,2)", "ul(3,3)", "ul(3,4)", "ul(4,2)",
        "free(2,2,3)", "free(3,2,3)",
    ]
    by_name = {r["name"]: r for r in rows}
    assert by_name["ul(3,2)"]["expected_degrees"] == {"1": 4, "2": 1}
    assert by_name["ul(4,2)"]["nilpotency_index"] == 4
    assert by_name["free(2,2,3)"]["dim"] == 6


def test_show_json_round_trips(capsys):
    code, out, _ = run(capsys, "show", "ul(3,2)", "--format", "json")
    assert code == 0
    info = json.loads(out)
    A = Algebra.from_json(info["algebra"])
    key = json.dumps(A.to_json(), sort_keys=True)
    assert key == json.dumps(info["algebra"], sort_keys=True)
    assert info["group_order"] == 8


def test_catalog_entries_rebuild_identically():
    from oneplusa.catalog import BUILTIN

    for entry in BUILTIN:
        first, second = entry.construct().to_json(), entry.construct().to_json()
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_chartable_json(capsys):
    code, out, _ = run(capsys, "chartable", "ul(3,3)")
    assert code == 0
    tab = json.loads(out)
    assert sorted(tab["degrees"]) == [1] * 9 + [3, 3]
    assert tab["group_order"] == 27


# sha256 of `--no-gutkin chartable NAME` (JSON) for the catalog targets
CHARTABLE_SHA256 = {
    "ul(3,2)": "43181cbb79246129ae20577ab3ec3f7224d7f688f6784d69d193dc0f3d05f680",
    "ul(3,3)": "6f1f595faa9db0791a939845f1ba0a6afd62179ffe17441fd8471446428a6ed4",
    "ul(3,4)": "30e33baf7b7bc04d5e93970ab97000581d49982ded6a3ea4ecaf7771e582ddf8",
    "ul(4,2)": "88da84d2dfc678cbe77b9c0931e0e1165612ccd42156ee0a08844b0478a881c3",
    "free(2,2,3)": "0bcbe029ec969deb2b0d691ef8d01a4087fe8aaff3f57b37fa24827787965499",
    "free(3,2,3)": "367128e8a4184a205fe5aa86859882e5d2e608afeace9e7c622bb8161c3cb819",
}


def test_chartable_pins_cover_the_catalog():
    from oneplusa.catalog import BUILTIN

    small = {e.name for e in BUILTIN if e.summary()["group_order"] <= 729}
    assert small == set(CHARTABLE_SHA256)


@pytest.mark.parametrize("name", sorted(CHARTABLE_SHA256))
def test_chartable_report_bytes_are_pinned(capsys, name):
    code, out, _ = run(capsys, "--no-gutkin", "chartable", name)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHARTABLE_SHA256[name]


# sha256 of `--no-gutkin chartable NAME` (JSON) for the two 4096-element
# benchmark groups, recorded before the Cayley table moved to digit
# arithmetic; ul(4,4) also has an odd number of field bits per coordinate
# pair, ul(3,16) the largest field
CHARTABLE_LARGE_SHA256 = {
    "ul(4,4)": "f8823e30a9cd68e270bfb5e1541c73d2920cb778bedd299db3ccb0cc59720b3a",
    "ul(3,16)": "126a05a2bed06b321b20354f5b30ccb7e919f913b2ec75856f153e08dd4bf3e3",
}


@pytest.mark.parametrize("name", sorted(CHARTABLE_LARGE_SHA256))
def test_large_chartable_report_bytes_are_pinned(capsys, name):
    code, out, _ = run(capsys, "--no-gutkin", "chartable", name)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHARTABLE_LARGE_SHA256[name]


# sha256 of `--no-gutkin chartable NAME` (JSON), recorded before the oracle
# inflated characters from 1 + A/Ann(A): the quotient chains below these
# groups have orders 64, 1 (ul(3,8)); 81, 1 (ul(3,9)); 243, 27, 1 (ul(4,3));
# and 512, 128, 16, 1 (ul(5,2))
CHARTABLE_CHAIN_SHA256 = {
    "ul(3,8)": "48f6ba668005d9733781a6b6e8392939d1381000912accda9dd5699b2d6b8270",
    "ul(3,9)": "e6ffefd0e5560cdb03a328a6914ca91d046ff2f65c20e3249118f3c694f06351",
    "ul(4,3)": "b380ccf5a9e3bbd235470405c3a715402c6038ce60d7a2abf37de9e79c54857f",
    "ul(5,2)": "e44e9b7fdd32fac8674b5838a089adad218e5c941286ef1a6e9c2abc0d706654",
}


@pytest.mark.parametrize("name", sorted(CHARTABLE_CHAIN_SHA256))
def test_chain_chartable_report_bytes_are_pinned(capsys, name):
    code, out, _ = run(capsys, "--no-gutkin", "chartable", name)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHARTABLE_CHAIN_SHA256[name]


# sha256 of `decompose NAME` (JSON) for the catalog targets with a descent
# of a few seconds at most, plus the larger benchmark groups ul(3,8), ul(4,3),
# ul(5,2) and ul(4,4), whose descents the generator-column extension checks
# keep within seconds
DECOMPOSE_SHA256 = {
    "ul(3,2)": "03d2bf78f854e3031a702d1435dd08fbd7f14a9127f8bbe177ed940beab594e6",
    "ul(3,3)": "628d596ee71d4df72dc1c704fc07d9e17f76bc99035751532270def777c12656",
    "ul(3,4)": "ffa0c7a331799f92b20b9534ad658f7c5eb4576f01953166eca933b9320a5f80",
    "ul(4,2)": "f2bf4c1469b596870a91da1011f192c1f614879840bc461f617166219cf62cf2",
    "free(2,2,3)": "c05b0b4a84c8640264a3671fcfd470ee1449b7ed6f28ceefede89cb56fc49865",
    "ul(3,8)": "249533b8194866ee6c1d059fa8596b035c208164a5229147b38f75d59632c5e8",
    "ul(4,3)": "90c8865f261fb2ff255fb711f7216024cce9904179e754910920776f17c41356",
    "ul(5,2)": "7d2a5bf7637815a12959ca57158f5d0147f0e84e463c6e21eeeb4b5d1df8d76e",
    "ul(4,4)": "c5f2d22f76b74efdc5fb2be98ccd1bdfcafe322f18428e9dd2c5534fc19bda76",
}


@pytest.mark.parametrize("name", sorted(DECOMPOSE_SHA256))
def test_decompose_report_bytes_are_pinned(capsys, name):
    code, out, _ = run(capsys, "decompose", name)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DECOMPOSE_SHA256[name]


# sha256 of `verify NAME --suite polarize` (JSON, seed 0), recorded before
# the commutator form became one Gram matrix per functional; GF(1024) in
# ul(3,1024) is past the field-table cap and its form is nonzero
POLARIZE_SHA256 = {
    "ul(3,1024)": "810150d4795aad6815255f343a59751bd719f1822bdd17b78eaf20dfcfdc6354",
    "ul(4,4)": "9c2359a494b1d11d7ed152e85c9f2d5018aaec6a640f66fe9755315c000ac4b9",
    "free(3,2,3)": "5fb637a91e5ff066e71d797bd39dd5f4972e2986c05c37bf51f384e041da0c98",
}


@pytest.mark.parametrize("name", sorted(POLARIZE_SHA256))
def test_polarize_report_bytes_are_pinned(capsys, name):
    code, out, _ = run(capsys, "verify", name, "--suite", "polarize")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == POLARIZE_SHA256[name]


# sha256 of `--no-gutkin chartable NAME --format csv`, recorded before the
# CSV rendered each distinct value once
CHARTABLE_CSV_SHA256 = {
    "ul(3,4)": "72ccd75956f0c3aeb3f48a45bcc2bbd728e81c45c1c612656d00e1e3795661b2",
    "free(2,2,3)": "f313cce7af963873aab34daa25cec26e40e984bb9b71c97204887119e9c311ad",
    "free(3,2,3)": "5ee018eed723851cccb2f8cb87969593aa1cb7aabe564c3882bf9125b54d8a2a",
}


@pytest.mark.parametrize("name", sorted(CHARTABLE_CSV_SHA256))
def test_chartable_csv_bytes_are_pinned(capsys, name):
    code, out, _ = run(capsys, "--no-gutkin", "chartable", name, "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHARTABLE_CSV_SHA256[name]


def test_chartable_csv(capsys):
    code, out, _ = run(capsys, "chartable", "ul(3,2)", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7  # header, class sizes, five characters
    assert lines[0].startswith("char,")


def test_chartable_out_dir(tmp_path, capsys):
    code, out, _ = run(
        capsys, "chartable", "ul(3,2)", "--out", str(tmp_path)
    )
    assert code == 0
    path = tmp_path / "ul-3-2.chartable.json"
    assert path.exists()
    assert json.loads(path.read_text())["group_order"] == 8


def _written(obj):
    buf = io.StringIO()
    cli._write_json(obj, buf.write)
    return buf.getvalue()


def _json_trees():
    scalars = (
        st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
        | st.floats() | st.text()
    )

    def extend(children):
        return (
            st.lists(children, max_size=4)
            | st.lists(children, max_size=3).map(tuple)
            | st.dictionaries(st.text(max_size=4), children, max_size=4)
            | st.dictionaries(st.integers(-3, 3), children, max_size=3)
            | st.dictionaries(st.floats(allow_nan=False), children, max_size=2)
            # one subtree shared at three depths
            | children.map(lambda c: [c, {"again": c, "deeper": [c]}])
        )

    return st.recursive(scalars, extend, max_leaves=30)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_json_trees())
@example({"\"q\"\\\n\t\x00\u00e9\u2603\U0001f600": ["", {}, [], (), -0.0, float("inf")]})
@example([{1: None, -2: True, 3: False}, {2.5: "x", -1.0: "y"}, float("nan")])
def test_json_writer_matches_json_dumps(tree):
    want = json.dumps(tree, sort_keys=True, indent=2)
    assert _written(tree) == want
    batch = cli.JSON_BATCH
    cli.JSON_BATCH = 1  # write after every item outside a shared container
    try:
        assert _written(tree) == want
    finally:
        cli.JSON_BATCH = batch


def test_json_writer_rejects_what_json_dumps_rejects():
    loop = []
    loop.append({"back": loop})
    for bad in (loop, {"x": {1, 2}}, {(1, 2): 0}):
        with pytest.raises((ValueError, TypeError)) as want:
            json.dumps(bad, sort_keys=True, indent=2)
        with pytest.raises(want.type):
            _written(bad)


def _cell_rows(shape, seed=0):
    cells = [
        {"coeffs": {"0": "1", "1": "-1/2"}, "order": 4},
        [1, {"x": None, "y": [True, 2.5]}],
        "\u00e9\"\n",
        -3,
        {},
        [],
    ]
    ids = np.random.default_rng(seed).integers(len(cells), size=shape)
    return CellRows(cells, ids)


def _payloads():
    rows = _cell_rows((5, 7))
    return {
        "depth0": rows,
        "depth1": {"values": rows, "z": 0},
        "depth3": {"a": [{"values": _cell_rows((3, 4), seed=1)}]},
        "twice": {"a": rows, "b": [1, rows]},
        "empty": {"values": _cell_rows((0, 3))},
        "empty_rows": [_cell_rows((2, 0))],
    }


@pytest.mark.parametrize("batch", [cli.JSON_BATCH, 1])
@pytest.mark.parametrize("name", [
    "depth0", "depth1", "depth3", "twice", "empty", "empty_rows",
])
def test_json_writer_renders_cell_rows_as_json_dumps(monkeypatch, batch, name):
    payload = _payloads()[name]
    monkeypatch.setattr(cli, "JSON_BATCH", batch)
    pieces = []
    cli._write_json(payload, pieces.append)
    assert "".join(pieces) == json.dumps(payload, sort_keys=True, indent=2)
    if batch == 1 and name == "depth0":
        assert len(pieces) > 5  # at least one write per row


def test_json_writer_rejects_a_cell_holding_its_rows():
    rows = CellRows([{"x": 1}, 2], np.array([[0, 1], [1, 1]]))
    rows.cells[0]["back"] = rows
    with pytest.raises(ValueError):
        json.dumps(rows, sort_keys=True, indent=2)
    with pytest.raises(ValueError):
        _written(rows)


@pytest.mark.parametrize("argv", [["chartable", "ul(3,4)"], ["decompose", "ul(4,2)"]])
def test_a_command_frees_its_group_when_it_returns(monkeypatch, capsys, argv):
    # the group and its algebra reach each other through their memos, so
    # only the cycle collector frees them; the collection here moves the
    # group into the oldest generation, which a partial collection skips
    refs = []
    real = cli.unit_group_of

    def recording(*args):
        G = real(*args)
        refs.append(weakref.ref(G))
        gc.collect()
        return G

    monkeypatch.setattr(cli, "unit_group_of", recording)
    code, _, _ = run(capsys, *argv)
    assert code == 0 and refs
    assert all(ref() is None for ref in refs)


@pytest.mark.parametrize("argv", [
    ["catalog", "--format", "json"],
    ["show", "free(2,2,3)", "--format", "json"],
    ["chartable", "ul(3,4)"],
    ["decompose", "ul(4,2)"],
    ["verify", "free(2,2,3)", "--suite", "all"],
    ["halasi-explore", "2", "2", "3", "2"],
])
def test_json_writer_matches_json_dumps_on_every_report(monkeypatch, capsys, argv):
    payloads = []
    real = cli._write_json

    def recording(obj, write):
        payloads.append(obj)
        real(obj, write)

    monkeypatch.setattr(cli, "_write_json", recording)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(payloads) == 1
    assert out == json.dumps(payloads[0], sort_keys=True, indent=2) + "\n"


def test_json_writer_through_the_out_dir(tmp_path, capsys):
    _, out, _ = run(capsys, "chartable", "ul(3,4)")
    code, listed, _ = run(capsys, "chartable", "ul(3,4)", "--out", str(tmp_path))
    path = tmp_path / "ul-3-4.chartable.json"
    assert code == 0 and listed == f"{path}\n"
    text = path.read_text()
    assert text == out == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "ul(3,2)")
    assert code == 0
    d = json.loads(out)
    assert len(d["certificates"]) == 5
    top = d["certificates"][-1]
    assert top["degree"] == 2
    assert top["bottom_dim"] == 2
    assert top["chain"] == [[[1, 0, 0], [0, 0, 1]]]


def test_a_basis_not_adapted_to_the_powers_decomposes(tmp_path, capsys):
    # F_3[e]/(e^3) in the basis e, 2e + e^2: its basis rows generate only
    # <1 + e>, and chartable and decompose once exited 1 with NotASubgroup
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(_skew_truncated_polynomial().to_json()))
    code, out, _ = run(capsys, "chartable", str(path))
    assert code == 0
    assert json.loads(out)["degrees"] == [1] * 9
    code, out, _ = run(capsys, "decompose", str(path))
    assert code == 0
    d = json.loads(out)
    _, want, _ = run(capsys, "decompose", "free(3,1,3)")
    assert d["degrees"] == json.loads(want)["degrees"]
    assert len(d["certificates"]) == 9
    assert all(c["verified"] for c in d["certificates"])


def test_verify_gutkin_suite(capsys):
    code, out, _ = run(capsys, "verify", "ul(4,2)", "--suite", "gutkin")
    assert code == 0
    r = json.loads(out)
    assert r["passed"]
    degrees = {e["degree"] for e in r["suites"]["gutkin"]["entries"]}
    assert degrees == {1, 2, 4}


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "ul(3,2)", "--suite", "all")
    assert code == 0
    r = json.loads(out)
    assert set(r["suites"]) == {"gutkin", "commutators", "identities", "polarize"}
    assert all(s["passed"] for s in r["suites"].values())


def test_verify_reports_are_reproducible(capsys):
    _, first, _ = run(capsys, "verify", "ul(3,3)", "--suite", "polarize")
    _, second, _ = run(capsys, "verify", "ul(3,3)", "--suite", "polarize")
    assert first == second


def test_verify_seed_changes_sampling(capsys):
    _, first, _ = run(capsys, "verify", "ul(3,3)", "--suite", "polarize")
    _, second, _ = run(
        capsys, "verify", "ul(3,3)", "--suite", "polarize", "--seed", "7"
    )
    assert json.loads(first)["passed"] and json.loads(second)["passed"]
    assert first != second  # the seed is part of the report


def test_polarize_rank_check_does_not_read_the_gram_matrix(monkeypatch, capsys):
    # a zero Gram matrix makes find_polarization return all of A; the suite's
    # own rank, from element brackets, must see the dimension is wrong
    from oneplusa import gutkin

    monkeypatch.setattr(
        gutkin, "_gram", lambda A, f: [[0] * A.dim for _ in range(A.dim)]
    )
    code, out, err = run(capsys, "verify", "ul(3,2)", "--suite", "polarize")
    assert code == 1 and out == ""
    assert "polarization-dimension" in err


def test_verify_exit_one_on_falsified(monkeypatch, capsys):
    def boom(A, args):
        raise VerificationFailed("synthetic", witness=(1, 2))

    monkeypatch.setitem(cli.SUITES, "gutkin", boom)
    code, out, err = run(capsys, "verify", "ul(3,2)", "--suite", "gutkin")
    assert code == 1
    assert "falsified" in err and "synthetic" in err


def test_identities_suite_reports_pairing_failure(monkeypatch, capsys):
    # only NotInvariant marks a character as non-invariant; any other
    # failure of the pairing check falsifies the suite
    from oneplusa import gutkin
    from oneplusa.errors import NotBilinear

    def broken(group, m):
        raise NotBilinear(("additive-in-x", (1,), (1,), (1,)))

    monkeypatch.setattr(gutkin, "quotient_pairing", broken)
    code, out, err = run(capsys, "verify", "ul(3,2)", "--suite", "identities")
    assert code == 1
    assert out == ""
    assert "falsified" in err and "pairing-bilinear" in err


def test_decompose_overflow_guard_is_not_a_usage_error(monkeypatch, capsys):
    # the int64 guard raises RuntimeError, which the CLI must not report as
    # a usage error (exit 2): it surfaces as a traceback
    from oneplusa import chars

    real = chars.ClassFunction.inner

    def guarded(self, other):
        if self.group.algebra.dim < 3:  # <rho, rho> = 1 for rho on 1 + A_1
            chars._guard("inner product", 2 ** 40, 2 ** 40)
        return real(self, other)

    monkeypatch.setattr(chars.ClassFunction, "inner", guarded)
    with pytest.raises(RuntimeError, match="overflow guard"):
        cli.main(["decompose", "ul(3,2)"])
    assert "error:" not in capsys.readouterr().err


def test_value_error_in_the_descent_is_not_a_usage_error(monkeypatch, capsys):
    # only parsing the target may exit 2; a ValueError from inside the
    # computation is a bug and must surface as a traceback
    from oneplusa import gutkin

    def broken(pairing, psi=None):
        raise ValueError("synthetic internal error")

    monkeypatch.setattr(gutkin, "phi_map", broken)
    with pytest.raises(ValueError, match="synthetic internal error"):
        cli.main(["decompose", "ul(3,2)"])
    assert "error:" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,order",
    [(["decompose", "ul(4,3)"], 729), (["verify", "ul(4,2)", "--suite", "gutkin"], 64)],
)
def test_descent_builds_only_the_top_character_table(monkeypatch, capsys, argv, order):
    from oneplusa import chars, gutkin  # noqa: F401  (bound before patching)

    real = chars.character_table
    groups = []

    def counting(group):
        groups.append(group)
        return real(group)

    for name, module in list(sys.modules.items()):
        if name.startswith("oneplusa") and getattr(module, "character_table", None) is real:
            monkeypatch.setattr(module, "character_table", counting)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert [G.order for G in groups] == [order]


def _count_unit_groups(monkeypatch):
    # the orders of the UnitGroups built from here on, in order
    from oneplusa.unitgroup import UnitGroup

    real = UnitGroup.__init__
    orders = []

    def counting(self, *args, **kwargs):
        real(self, *args, **kwargs)
        orders.append(self.order)

    monkeypatch.setattr(UnitGroup, "__init__", counting)
    return orders


@pytest.mark.parametrize(
    "argv,built",
    # the top group, the quotient chain 1 + A/Ann(A) its character table
    # inflates from (orders 243, 27 and 1), a copy of each of the 4 distinct
    # 1 + A1 the descents pass through (subgroups are memoised per group) and
    # of the 2 distinct bottoms 1 + B not among them; the pairing quotient
    # and the linear characters of 1 + A^m and 1 + U build no unit group
    [(["decompose", "ul(4,3)"], 10),
     (["verify", "free(3,2,3)", "--suite", "identities"], 1)],
)
def test_unit_groups_built(monkeypatch, capsys, argv, built):
    orders = _count_unit_groups(monkeypatch)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(orders) == built


def test_verify_all_builds_the_top_group_once(monkeypatch, capsys):
    orders = _count_unit_groups(monkeypatch)
    code, _, _ = run(capsys, "verify", "ul(4,2)", "--suite", "all")
    assert code == 0
    assert orders.count(64) == 1


def test_unknown_target_exits_two(capsys):
    code, _, err = run(capsys, "show", "nope(9,9)")
    assert code == 2
    assert "unknown target" in err


def test_table_cap_is_checked_before_the_inflation_chain(monkeypatch, capsys):
    # the cap names the group asked for, and no quotient of the chain down
    # from 1 + A/Ann(A) is built or solved first
    orders = _count_unit_groups(monkeypatch)
    code, out, err = run(capsys, "chartable", "ul(5,3)")
    assert code == 2
    assert out == ""
    assert err == "error: group order 59049 exceeds table cap 4096\n"
    assert orders == [59049]


def test_cap_error_exits_two(capsys):
    code, _, err = run(capsys, "chartable", "free(3,2,3)", "--cap", "100")
    assert code == 2
    assert "error" in err


def test_field_table_cap_exits_two(capsys):
    # GF(1024) is past the field-table cap, although |1+A| = 1024 is small
    code, out, err = run(capsys, "chartable", "ul(2,1024)")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "field-table cap" in err
    assert "Traceback" not in err
    # commands that build no group still work on such fields
    code, out, _ = run(capsys, "show", "ul(2,1024)")
    assert code == 0 and "GF(1024)" in out
    code, out, _ = run(capsys, "verify", "ul(2,1024)", "--suite", "polarize")
    assert code == 0 and json.loads(out)["passed"]


def test_non_nilpotent_file_exits_two(tmp_path, capsys):
    code, out, _ = run(capsys, "show", "ul(3,2)", "--format", "json")
    data = json.loads(out)["algebra"]
    data["sc"]["0,0"] = [[0, 1]]  # e1*e1 = e1, an idempotent
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(bad), "--suite", "commutators")
    assert code == 2
    assert "error" in err


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "ul(3,2)", "--suite", "bogus"])
    assert exc.value.code == 2


def test_no_gutkin_still_produces_tables(capsys):
    code, out, _ = run(capsys, "--no-gutkin", "chartable", "ul(3,2)")
    assert code == 0
    assert sorted(json.loads(out)["degrees"]) == [1, 1, 1, 1, 2]
    # the block is lifted once the command finishes
    import oneplusa.gutkin  # noqa: F401


def test_no_gutkin_blocks_descent_commands(capsys):
    code, _, err = run(capsys, "--no-gutkin", "decompose", "ul(3,2)")
    assert code == 2
    assert "no-gutkin" in err


def test_halasi_explore(capsys):
    code, out, _ = run(capsys, "halasi-explore", "2", "2", "3", "2")
    assert code == 0
    r = json.loads(out)
    assert (r["lhs_order"], r["rhs_order"], r["equal"]) == (2, 2, True)


@pytest.mark.parametrize(
    "args",
    [("2", "2", "3", "1"), ("2", "-1", "3", "2"), ("2", "2", "0", "2")],
    ids=["k=1", "gens=-1", "nil_index=0"],
)
def test_halasi_explore_bad_counts_exit_two(args, capsys):
    # k < 2, gens < 0 and nil_index < 1 are rejected while parsing, before
    # any group is built
    with pytest.raises(SystemExit) as exc:
        cli.main(["halasi-explore", *args])
    assert exc.value.code == 2
    assert "is below" in capsys.readouterr().err


def test_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "oneplusa.cli", "catalog"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ul(3,2)" in proc.stdout
