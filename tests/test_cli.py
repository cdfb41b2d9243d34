"""End-to-end tests for the command line front end.

Everything goes through cli.main(argv) so the exit code contract is exercised
exactly as a shell script would see it: 0 success, 1 usage, 2 bad input,
3 cap exhausted, 4 failed verification.
"""

import io
import json

import pytest

from quandles import cli, classify, core, corpus, qndfile
from quandles.classify import CheckResult, SuiteReport


@pytest.fixture
def d4_file(tmp_path):
    path = tmp_path / "d4.qnd"
    path.write_text(qndfile.serialize(core.dihedral(4)))
    return path


class TestGen:
    def test_dihedral_to_stdout(self, capsys):
        assert cli.main(["gen", "dihedral", "3"]) == 0
        assert capsys.readouterr().out == "3\n1 3 2\n3 2 1\n2 1 3\n"

    def test_singleton(self, capsys):
        assert cli.main(["gen", "trivial", "1"]) == 0
        assert capsys.readouterr().out == "1\n1\n"

    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "out.qnd"
        assert cli.main(["gen", "dihedral", "4", "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text() == qndfile.serialize(core.dihedral(4))

    def test_affine_round_trips(self, capsys):
        assert cli.main(["gen", "affine", "5", "2"]) == 0
        text = capsys.readouterr().out
        assert qndfile.parse(text).table == core.affine(5, 2).table

    def test_conj_with_exponent(self, capsys):
        assert cli.main(["gen", "conj", "q8-group", "2"]) == 0
        text = capsys.readouterr().out
        expected = core.conj(corpus.builtin_group("q8-group"), 2)
        assert qndfile.parse(text).table == expected.table

    def test_builtin_lookup(self, capsys):
        assert cli.main(["gen", "builtin", "d6"]) == 0
        text = capsys.readouterr().out
        assert qndfile.parse(text).table == core.dihedral(6).table

    def test_union_of_flat_specs(self, capsys):
        assert cli.main(["gen", "union", "dihedral:3", "trivial:2"]) == 0
        text = capsys.readouterr().out
        expected = core.disjoint_union(core.dihedral(3), core.trivial(2))
        assert qndfile.parse(text).table == expected.table

    def test_product_of_flat_specs(self, capsys):
        assert cli.main(["gen", "product", "dihedral:3", "dihedral:3"]) == 0
        text = capsys.readouterr().out
        expected = core.direct_product(core.dihedral(3), core.dihedral(3))
        assert qndfile.parse(text).table == expected.table

    def test_nested_composites_rejected(self, capsys):
        assert cli.main(["gen", "union", "union:a:b", "trivial:2"]) == 1
        assert "cannot nest" in capsys.readouterr().err

    def test_composite_needs_two_members(self, capsys):
        assert cli.main(["gen", "union", "dihedral:3"]) == 1
        assert "at least two" in capsys.readouterr().err

    def test_wrong_parameter_count(self, capsys):
        assert cli.main(["gen", "affine", "5"]) == 1
        assert "2 integer parameters" in capsys.readouterr().err

    def test_non_integer_parameter(self, capsys):
        assert cli.main(["gen", "dihedral", "x"]) == 1
        assert "not an integer" in capsys.readouterr().err

    def test_bad_parameter_value_is_a_usage_error(self, capsys):
        assert cli.main(["gen", "dihedral", "0"]) == 1
        assert "order must be positive" in capsys.readouterr().err

    def test_unknown_family_is_a_usage_error(self):
        assert cli.main(["gen", "octonion", "3"]) == 1

    def test_bad_affine_multiplier_is_a_domain_error(self, capsys):
        assert cli.main(["gen", "affine", "6", "2"]) == 2
        assert capsys.readouterr().err != ""

    def test_unknown_builtin_is_a_domain_error(self):
        assert cli.main(["gen", "builtin", "nope"]) == 2
        assert cli.main(["gen", "conj", "nosuch-group"]) == 2


class TestClassifyCommand:
    def test_text_report(self, d4_file, capsys):
        assert cli.main(["classify", str(d4_file)]) == 0
        out = capsys.readouterr().out
        assert "order: 4\n" in out
        assert "label: d4\n" in out
        assert "orbit_sizes: 2 2\n" in out
        assert "reductive_degree: 2\n" in out
        assert "ncs: True\n" in out

    def test_json_report(self, d4_file, capsys):
        assert cli.main(["classify", str(d4_file), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["order"] == 4
        assert report["label"] == "d4"
        assert report["orbit_sizes"] == [2, 2]
        assert report["reductive_degree"] == 2
        assert report["tos_degree"] == 2

    def test_json_absent_degrees_are_null(self, tmp_path, capsys):
        path = tmp_path / "aff.qnd"
        path.write_text(qndfile.serialize(core.affine(5, 2)))
        assert cli.main(["classify", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["reductive_degree"] is None
        assert report["tos_degree"] is None
        assert report["os_degree"] == 0

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(qndfile.serialize(core.dihedral(3))))
        assert cli.main(["classify", "-", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["label"] == "stdin"
        assert report["connected"] is True

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["classify", str(tmp_path / "absent.qnd")]) == 1
        assert capsys.readouterr().err != ""

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.qnd"
        path.write_text("not a table\n")
        assert cli.main(["classify", str(path)]) == 2

    def test_undecodable_file_is_malformed(self, tmp_path, capsys):
        path = tmp_path / "bad.qnd"
        path.write_bytes(b"\xff\xfe2\n1 1\n")
        assert cli.main(["classify", str(path)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_undecodable_stdin_is_malformed(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(b"\xff\xfe2\n1 1\n"), encoding="utf-8"))
        assert cli.main(["classify", "-"]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_axiom_violating_file(self, tmp_path, capsys):
        path = tmp_path / "broken.qnd"
        path.write_text("2\n2 1\n1 2\n")
        assert cli.main(["classify", str(path)]) == 2
        assert capsys.readouterr().err != ""

    def test_non_integer_cap_is_usage(self):
        assert cli.main(["verify", "--cap-enumeration", "lots"]) == 1

    def test_large_inner_group_is_not_capped(self, tmp_path, capsys):
        path = tmp_path / "union.qnd"
        path.write_text(qndfile.serialize(
            core.disjoint_union(*[core.dihedral(5)] * 7)))
        assert cli.main(["classify", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["inn_order"] == 10**7

    @pytest.mark.parametrize("flag", ["--cap-closure", "--cap-work"])
    def test_removed_cap_flags_are_unknown(self, d4_file, flag):
        assert cli.main(["classify", str(d4_file), flag, "10"]) == 1


class TestTreeCommand:
    def test_text_layout(self, d4_file, capsys):
        assert cli.main(["tree", str(d4_file)]) == 0
        assert capsys.readouterr().out == (
            "{1,2,3,4} size 4\n"
            "  {1,3} size 2\n"
            "    {1} size 1\n"
            "    {3} size 1\n"
            "  {2,4} size 2\n"
            "    {2} size 1\n"
            "    {4} size 1\n")

    def test_singleton_tree(self, tmp_path, capsys):
        path = tmp_path / "t1.qnd"
        path.write_text("1\n1\n")
        assert cli.main(["tree", str(path)]) == 0
        assert capsys.readouterr().out == "{1} size 1\n"

    def test_dot_output(self, d4_file, capsys):
        assert cli.main(["tree", str(d4_file), "--dot"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "digraph orbit_tree {"
        assert lines[-1] == "}"
        assert 'n0 [label="{1,2,3,4} (4)"];' in [l.strip() for l in lines]
        edges = {l.strip().rstrip(";") for l in lines if "->" in l}
        assert edges == {"n0 -> n1", "n0 -> n4", "n1 -> n2", "n1 -> n3",
                         "n4 -> n5", "n4 -> n6"}

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n1\n"))
        assert cli.main(["tree", "-"]) == 0
        assert capsys.readouterr().out == "{1} size 1\n"


class TestVerifyCommand:
    def test_default_corpus_passes(self, capsys):
        assert cli.main(["verify"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 21
        assert all(line.startswith("PASS ") for line in lines)

    def test_exhaustive_census(self, capsys):
        assert cli.main(["verify", "--exhaustive", "--max-order", "3"]) == 0
        assert all(line.startswith("PASS ")
                   for line in capsys.readouterr().out.strip().splitlines())

    def test_failing_fact_exits_four(self, capsys, monkeypatch):
        failing = SuiteReport(results=(
            CheckResult(name="sample-fact", passed=False,
                        witnesses=("order 3 table",), checked=5),))
        monkeypatch.setattr(classify, "verify_suite",
                            lambda *a, **k: failing)
        assert cli.main(["verify"]) == 4
        out = capsys.readouterr().out
        assert "FAIL sample-fact (checked 5)" in out
        assert "counterexample: order 3 table" in out

    def test_corrupted_builtin_exits_two(self, monkeypatch):
        broken = corpus._SIXTEEN.replace(
            "1 2 4 3 5 6 7 8 11 12 9 10 15 16 13 14",
            "2 2 4 3 5 6 7 8 11 12 9 10 15 16 13 14")
        monkeypatch.setattr(corpus, "_SIXTEEN", broken)
        assert cli.main(["verify"]) == 2

    def test_enumeration_cap_exits_three(self):
        assert cli.main(["verify", "--exhaustive", "--max-order", "4",
                         "--cap-enumeration", "3"]) == 3


class TestMainEntry:
    def test_no_arguments_is_usage(self):
        assert cli.main([]) == 1

    def test_unknown_command_is_usage(self):
        assert cli.main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "gen" in capsys.readouterr().out
