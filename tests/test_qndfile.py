"""Tests for the plain-text table format."""

import re

import pytest

from quandles import core, corpus, qndfile
from quandles.errors import AxiomViolation, ParseError


class TestParse:
    def test_smallest_document(self):
        q = qndfile.parse("1\n1\n")
        assert q.order == 1
        assert q.table == ((0,),)
        assert q.label is None

    def test_label_is_passed_through(self):
        assert qndfile.parse("1\n1\n", label="tiny").label == "tiny"

    def test_comments_and_blank_lines_are_skipped(self):
        text = """
        # a three element table
        3

        1 3 2   # dihedral rows
        # middle comment... wait, inline comments are not stripped
        """
        with pytest.raises(ParseError):
            qndfile.parse(text)

    def test_whole_line_comments_are_skipped(self):
        text = "# header\n\n3\n# rows follow\n1 3 2\n\n3 2 1\n2 1 3\n# done\n"
        q = qndfile.parse(text)
        assert q.table == core.dihedral(3).table

    def test_leading_whitespace_is_tolerated(self):
        q = qndfile.parse("  2\n  1 2\n\t1 2\n")
        assert q.order == 2

    def test_empty_document_rejected(self):
        with pytest.raises(ParseError, match="no data lines"):
            qndfile.parse("")
        with pytest.raises(ParseError, match="no data lines"):
            qndfile.parse("# only comments\n\n")

    def test_bad_order_line(self):
        with pytest.raises(ParseError, match="line 1.*integer"):
            qndfile.parse("three\n")
        with pytest.raises(ParseError, match="positive"):
            qndfile.parse("0\n")
        with pytest.raises(ParseError, match="positive"):
            qndfile.parse("-2\n1 1\n")

    def test_wrong_row_width(self):
        with pytest.raises(ParseError, match="line 2: expected 2 entries, found 3"):
            qndfile.parse("2\n1 1 1\n2 2\n")

    def test_non_integer_entry(self):
        with pytest.raises(ParseError, match="line 3: entry 'x'"):
            qndfile.parse("2\n1 1\n2 x\n")

    # int() reads each of these as 3, which would make the documents below
    # a valid dihedral(3) table.
    @pytest.mark.parametrize("token", ["+3", "0_3", "\uff13", "\u0663"])
    def test_only_ascii_decimal_integers(self, token):
        with pytest.raises(ParseError, match=re.escape(
                f"line 1: order must be an integer, got {token!r}")):
            qndfile.parse(f"{token}\n1 3 2\n3 2 1\n2 1 3\n")
        with pytest.raises(ParseError, match=re.escape(
                f"line 3: entry {token!r} is not an integer")):
            qndfile.parse(f"3\n1 3 2\n{token} 2 1\n2 1 3\n")

    def test_entry_out_of_range(self):
        with pytest.raises(ParseError, match="line 2: entry 3 outside 1..2"):
            qndfile.parse("2\n1 3\n2 2\n")
        with pytest.raises(ParseError, match="entry 0"):
            qndfile.parse("2\n0 1\n2 2\n")

    def test_too_few_rows(self):
        with pytest.raises(ParseError, match="expected 3 table rows, found only 1"):
            qndfile.parse("3\n1 3 2\n")

    def test_trailing_content_rejected(self):
        with pytest.raises(ParseError, match="line 4: unexpected content"):
            qndfile.parse("2\n1 1\n2 2\n7 7\n")

    def test_line_numbers_count_raw_lines(self):
        text = "# one\n# two\n2\n# four\n1 9\n2 2\n"
        with pytest.raises(ParseError, match="line 5"):
            qndfile.parse(text)

    def test_axiom_violations_come_from_the_validator(self):
        with pytest.raises(AxiomViolation) as info:
            qndfile.parse("2\n1 1\n2 2\n")
        assert info.value.axiom == 2

    def test_broken_idempotence_detected(self):
        with pytest.raises(AxiomViolation) as info:
            qndfile.parse("2\n2 1\n1 2\n")
        assert info.value.axiom == 1


class TestSerialize:
    def test_exact_normal_form(self):
        assert (qndfile.serialize(core.dihedral(3))
                == "3\n1 3 2\n3 2 1\n2 1 3\n")

    def test_singleton_normal_form(self):
        assert qndfile.serialize(core.trivial(1)) == "1\n1\n"

    def test_round_trip_on_every_builtin(self):
        for name in corpus.builtin_quandle_names():
            q = corpus.builtin_quandle(name)
            text = qndfile.serialize(q)
            again = qndfile.parse(text, label=name)
            assert again.table == q.table, name
            assert qndfile.serialize(again) == text, name

    def test_parse_normalizes_messy_input(self):
        messy = "# note\n 3 \n1   3 2\n\n3 2 1\n2 1 3\n"
        assert (qndfile.serialize(qndfile.parse(messy))
                == "3\n1 3 2\n3 2 1\n2 1 3\n")
