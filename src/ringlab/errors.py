"""Exception types shared across the package."""

from __future__ import annotations


class RinglabError(Exception):
    """Base class for all errors raised by this package."""


class TableError(RinglabError):
    """A ring, module, or homomorphism table violates a required axiom."""


class RingMismatchError(RinglabError):
    """An operation mixed elements or ideals of two different rings."""


class ProperIdealError(RinglabError):
    """A predicate or construction that needs a proper ideal got the whole ring."""


class ExpansionAxiomError(RinglabError):
    """A candidate expansion function violates extensivity or monotonicity."""


class ConstructionError(RinglabError):
    """Invalid input to a ring or module construction."""


class InvariantError(RinglabError):
    """An internal invariant failed: a bug in ringlab, not bad input."""


class ParseError(RinglabError):
    """A spec string failed to parse. Carries the offending position."""

    def __init__(self, message: str, text: str, position: int):
        self.message = message
        self.position = position
        self.text = text
        super().__init__(f"{message} at position {position} in {text!r}")


class UnknownTheoremError(RinglabError):
    """An unrecognized theorem identifier was passed to the verifier."""
