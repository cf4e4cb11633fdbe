"""Command-line behavior: targets, formats, exit codes, reproducibility."""

import hashlib
import json
import subprocess
import sys

import pytest

from oneplusa import cli
from oneplusa.errors import VerificationFailed
from oneplusa.nilalg import Algebra


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


# sha256 of `decompose NAME` (JSON) for the catalog targets with a descent
# of a few seconds at most, plus the two larger benchmark groups
DECOMPOSE_SHA256 = {
    "ul(3,2)": "03d2bf78f854e3031a702d1435dd08fbd7f14a9127f8bbe177ed940beab594e6",
    "ul(3,3)": "628d596ee71d4df72dc1c704fc07d9e17f76bc99035751532270def777c12656",
    "ul(3,4)": "ffa0c7a331799f92b20b9534ad658f7c5eb4576f01953166eca933b9320a5f80",
    "ul(4,2)": "f2bf4c1469b596870a91da1011f192c1f614879840bc461f617166219cf62cf2",
    "free(2,2,3)": "c05b0b4a84c8640264a3671fcfd470ee1449b7ed6f28ceefede89cb56fc49865",
    "ul(3,8)": "249533b8194866ee6c1d059fa8596b035c208164a5229147b38f75d59632c5e8",
    "ul(4,3)": "90c8865f261fb2ff255fb711f7216024cce9904179e754910920776f17c41356",
}


@pytest.mark.parametrize("name", sorted(DECOMPOSE_SHA256))
def test_decompose_report_bytes_are_pinned(capsys, name):
    code, out, _ = run(capsys, "decompose", name)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DECOMPOSE_SHA256[name]


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


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "ul(3,2)")
    assert code == 0
    d = json.loads(out)
    assert len(d["certificates"]) == 5
    top = d["certificates"][-1]
    assert top["degree"] == 2
    assert top["bottom_dim"] == 2
    assert top["chain"] == [[[1, 0, 0], [0, 0, 1]]]


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


def test_unknown_target_exits_two(capsys):
    code, _, err = run(capsys, "show", "nope(9,9)")
    assert code == 2
    assert "unknown target" in err


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
