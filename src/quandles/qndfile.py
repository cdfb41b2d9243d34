"""Plain-text table format used by the command line tools.

A .qnd document is line oriented. Lines that are blank or whose first
non-space character is ``#`` are ignored. The first remaining line holds the
order n; the next n lines hold n space-separated integers each, 1-based, with
line a column b giving a > b. Elements are 1-based in files so a printed
operation table can be pasted in unchanged; everything in memory is 0-based.

serialize() emits the normal form: no comments, single spaces, a trailing
newline. Parsing that normal form returns an equal table, and serializing a
parsed document reproduces the normal form byte for byte, which is the
round-trip contract the tests pin down.
"""

from __future__ import annotations

import re

from . import core
from .core import Quandle
from .errors import ParseError

__all__ = ["parse", "serialize"]

#: ASCII decimal integers only; int() also takes "+1", "1_0" and other digits.
_INTEGER = re.compile(r"-?[0-9]+")


def _data_lines(text: str):
    """Yield (line number, stripped content) for every non-comment line."""
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield number, stripped


def parse(text: str, label: str | None = None) -> Quandle:
    """Parse a .qnd document and validate the table it contains.

    Structural problems (bad order line, wrong row width, entries that are
    not ASCII decimal integers or lie outside 1..n, trailing content) raise
    ParseError with the offending line number.
    A well-formed document whose table breaks a quandle axiom raises
    AxiomViolation from the validator instead.
    """
    lines = _data_lines(text)
    try:
        number, head = next(lines)
    except StopIteration:
        raise ParseError("no data lines; expected the order on the first one") from None
    if not _INTEGER.fullmatch(head):
        raise ParseError(f"line {number}: order must be an integer, got {head!r}")
    n = int(head)
    if n < 1:
        raise ParseError(f"line {number}: order must be positive, got {n}")

    rows: list[tuple[int, ...]] = []
    for _ in range(n):
        try:
            number, content = next(lines)
        except StopIteration:
            raise ParseError(f"expected {n} table rows, found only {len(rows)}") from None
        tokens = content.split()
        if len(tokens) != n:
            raise ParseError(f"line {number}: expected {n} entries, found {len(tokens)}")
        row = []
        for token in tokens:
            if not _INTEGER.fullmatch(token):
                raise ParseError(f"line {number}: entry {token!r} is not an integer")
            value = int(token)
            if not 1 <= value <= n:
                raise ParseError(f"line {number}: entry {value} outside 1..{n}")
            row.append(value - 1)
        rows.append(tuple(row))

    for number, content in lines:
        raise ParseError(f"line {number}: unexpected content after the table: {content!r}")

    return core.validate(tuple(rows), label=label)


def serialize(q: Quandle) -> str:
    """Render a quandle in the normal form parse() accepts back unchanged."""
    lines = [str(q.order)]
    for row in q.table:
        lines.append(" ".join(str(value + 1) for value in row))
    return "\n".join(lines) + "\n"
