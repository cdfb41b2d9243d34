"""Exception types shared across the package.

Every error raised on bad input or on an exhausted cap derives from
QuandleError, so callers (and the command line front end) can catch one base
class and still tell cap failures apart from validation failures.  Caps
bound only the enumerations whose cost grows exponentially; CapExceeded is
the one cap error.
"""

from __future__ import annotations


class QuandleError(Exception):
    """Base class for all errors raised by this package."""


class AxiomViolation(QuandleError):
    """A table is not a quandle.

    axiom is 1 (idempotence), 2 (rows are permutations) or 3 (left
    self-distributivity); witness is the first failing instance in scan
    order: (a,) for axioms 1 and 2, (a, b, c) for axiom 3.
    """

    def __init__(self, axiom: int, witness: tuple[int, ...]):
        self.axiom = axiom
        self.witness = witness
        names = {1: "idempotence", 2: "row bijectivity", 3: "left self-distributivity"}
        super().__init__(f"axiom {axiom} ({names[axiom]}) fails at {witness}")


class NotAUnit(QuandleError):
    """The multiplier of an affine quandle is not invertible mod n."""

    def __init__(self, n: int, t: int):
        self.n = n
        self.t = t
        super().__init__(f"{t} is not a unit modulo {n}")


class NotAGroup(QuandleError):
    """A multiplication table fails the group axioms."""


class NotClosed(QuandleError):
    """A subset is not closed under the required operation."""

    def __init__(self, witness: tuple[int, ...], message: str | None = None):
        self.witness = witness
        super().__init__(message or f"subset is not closed, witness {witness}")


class NotACongruence(QuandleError):
    """A partition fails one of the two congruence conditions.

    On a finite quandle the product condition implies the left-division
    one, so the witness is always (a, b, c, d, 1): a ~ b and c ~ d, but a>c
    and b>d lie in different classes.
    """

    def __init__(self, witness: tuple[int, ...]):
        self.witness = witness
        super().__init__(f"partition is not a congruence, witness {witness}")


class CapExceeded(QuandleError):
    """A count of congruences or subquandles found, or a census order, outgrew its cap."""

    def __init__(self, what: str, cap: int):
        self.what = what
        self.cap = cap
        super().__init__(f"{what} exceeded cap {cap}")


class UnknownName(QuandleError):
    """Name not present in the builtin registry."""

    def __init__(self, name: str, known: tuple[str, ...]):
        self.name = name
        self.known = known
        super().__init__(f"unknown builtin {name!r}; known names: {', '.join(known)}")


class InconsistentCharacterizations(QuandleError):
    """Two provably equivalent computations disagreed; indicates a bug."""


class ParseError(QuandleError):
    """Malformed .qnd input."""
