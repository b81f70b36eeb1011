"""Parsers for the three mini-languages used at the tool boundary.

Ring specs:       Z6, Z2[x]/(x^2+x+1), Z4xZ9, Z12/(4), triv(Z4,reg),
                  triv(Z4,quot:(2)), loc(Z12,3)
Expansion specs:  id, rad, plus:(2), full, prod(id,rad), bar(rad,(4)),
                  loc(rad,3), triv(id)
Queries:          1abs-delta-primary & !delta-primary, prime | maximal

Quotients, triv and loc bind tighter than the product separator x, and
products associate to the left. Anything else fails with a position-tagged
ParseError, and so does a ring whose order would exceed ``_MAX_ORDER``,
found before the ring is built.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_
from typing import Callable, Optional

from .constructions import (
    LocalizationOf,
    MultiplicativeSet,
    ProductOf,
    QuotientOf,
    TrivialExtensionOf,
    localize,
    make_product,
    make_quotient,
    make_trivial_extension,
    quotient_module,
    regular_module,
)
from .errors import ConstructionError, ParseError, RinglabError
from .expansions import (
    ExpansionFunction,
    constant_ring,
    identity_expansion,
    induced_localization,
    induced_product,
    induced_quotient,
    induced_trivial_extension,
    plus_fixed,
    radical_expansion,
)
from .predicates import DELTA_FREE, PREDICATES, _position, _verdicts
from .rings import FiniteRing, make_poly_quotient, make_zn

# The largest ring order a spec may ask for: Z32xZ32 and Z4^5 have tables of
# 2^20 entries each. A quotient or localization is no larger than its ring.
_MAX_ORDER = 1024
_MAX_BUDGET = 256  # the largest catalog budget (--max-order) measured to finish: README


class _Cursor:
    """A position-tracking scanner over a spec string."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, position: Optional[int] = None) -> ParseError:
        """A ParseError at the given position, by default the current one."""
        return ParseError(message, self.text, self.pos if position is None else position)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def startswith(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def take(self, token: str) -> bool:
        if self.startswith(token):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.take(token):
            raise self.error(f"expected {token!r}")

    def integer(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # more digits than int() converts
            raise self.error("integer too long", start) from None

    def int_list(self) -> list[int]:
        out = [self.integer()]
        while self.take(","):
            out.append(self.integer())
        return out

    def generators(self, R: FiniteRing, close: str = ")") -> tuple[list[int], int]:
        """A list of element indices of R, then the closing token. Returns the
        list and the position right after it, where the caret of an index
        out of range, or of any later complaint about the list, points."""
        gens = self.int_list()
        gpos = self.pos
        self.expect(close)
        for g in gens:
            if not 0 <= g < R.order:
                raise self.error(f"generator {g} out of range for {R.label}", gpos)
        return gens, gpos

    def skip_spaces(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] == " ":
            self.pos += 1

    def bound(self, order: int, position: int) -> None:
        """Reject a ring of this order, to be built at position, if it is
        above ``_MAX_ORDER``."""
        if order > _MAX_ORDER:
            raise self.error(f"ring order {order} exceeds {_MAX_ORDER}", position)


# ----------------------------------------------------------------------
# ring specs


def parse_ring(text: str) -> FiniteRing:
    """Parse a ring spec string into a constructed, validated ring."""
    cur = _Cursor(text)
    R = _product(cur)
    if cur.pos != len(text):
        raise cur.error("unexpected trailing input")
    return R


def _product(cur: _Cursor) -> FiniteRing:
    R = _term(cur)
    at = cur.pos
    while cur.take("x"):
        S = _term(cur)
        cur.bound(R.order * S.order, at)
        R = make_product(R, S)
        at = cur.pos
    return R


def _term(cur: _Cursor) -> FiniteRing:
    R = _atom(cur)
    while cur.take("/("):
        gens, gpos = cur.generators(R)
        try:
            R = make_quotient(R, R.span(gens))
        except ConstructionError as exc:
            raise cur.error(str(exc), gpos)
    return R


def _atom(cur: _Cursor) -> FiniteRing:
    at = cur.pos
    if cur.take("triv("):
        A = _product(cur)
        cur.expect(",")
        reg = cur.take("reg")
        if reg:
            J = A.zero_ideal()
        elif cur.take("quot:("):
            J = A.span(cur.generators(A)[0])
        else:
            raise cur.error("expected a module spec, reg or quot:(...)")
        cur.bound(A.order * (A.order // J.num_elements), at)  # |A| * |A/J|
        E = regular_module(A) if reg else quotient_module(A, J)
        cur.expect(")")
        return make_trivial_extension(A, E)
    if cur.take("loc("):
        R = _product(cur)
        cur.expect(",")
        gens, gpos = cur.generators(R)
        try:
            S = MultiplicativeSet.from_generators(R, gens)
        except ConstructionError as exc:
            raise cur.error(str(exc), gpos)
        return localize(R, S).ring
    if cur.take("Z"):
        n = cur.integer()
        cur.bound(n, at)  # the order of Z_n, at most that of Z_n[x]/(f)
        try:  # a ConstructionError is the spec's fault, at the end of the atom
            if not cur.take("[x]/("):
                return make_zn(n)
            terms = _poly(cur)
            cur.expect(")")
            # the order is n^k for f of degree k mod n, above the bound for
            # every n >= 2 once k reaches the bound's bit length
            k = max((d for d, c in terms.items() if c % n), default=0) if n > 1 else 0
            if k >= _MAX_ORDER.bit_length() or n**k > _MAX_ORDER:
                raise cur.error(f"ring order {n}^{k} exceeds {_MAX_ORDER}", at)
            return make_poly_quotient(n, [terms.get(d, 0) for d in range(k + 1)])
        except ConstructionError as exc:
            raise cur.error(str(exc))
    raise cur.error("expected a ring spec")


def _poly(cur: _Cursor) -> dict[int, int]:
    """A sum of terms c, x, cx, x^k, cx^k, as a coefficient by degree."""
    coeffs: dict[int, int] = {}
    while True:
        coef = 1
        deg = 0
        saw = False
        if cur.peek().isdigit():
            coef = cur.integer()
            saw = True
        if cur.take("x"):
            deg = 1
            saw = True
            if cur.take("^"):
                deg = cur.integer()
        if not saw:
            raise cur.error("expected a polynomial term")
        coeffs[deg] = coeffs.get(deg, 0) + coef
        if not cur.take("+"):
            return coeffs


# ----------------------------------------------------------------------
# expansion specs, parsed against a concrete ring


def parse_expansion(text: str, R: FiniteRing) -> ExpansionFunction:
    """Parse an expansion spec for the given ring.

    The induced forms (prod, bar, loc, triv) are only accepted when the
    ring was built by the matching construction, and their ideal or set
    arguments must agree with the construction's own data.
    """
    cur = _Cursor(text)
    d = _expansion(cur, R)
    if cur.pos != len(text):
        raise cur.error("unexpected trailing input")
    return d


def _expansion(cur: _Cursor, R: FiniteRing) -> ExpansionFunction:
    if cur.take("id"):
        return identity_expansion(R)
    if cur.take("rad"):
        return radical_expansion(R)
    if cur.take("full"):
        return constant_ring(R)
    if cur.take("plus:("):
        gens, _ = cur.generators(R)
        return plus_fixed(R, R.span(gens))
    if cur.take("prod("):
        info = R.construction
        if not isinstance(info, ProductOf):
            raise cur.error(f"{R.label} was not built as a product")
        d1 = _expansion(cur, info.left)
        cur.expect(",")
        d2 = _expansion(cur, info.right)
        cur.expect(")")
        return induced_product(R, d1, d2)
    if cur.take("bar("):
        info = R.construction
        if not isinstance(info, QuotientOf):
            raise cur.error(f"{R.label} was not built as a quotient")
        d = _expansion(cur, info.parent)
        cur.expect(",(")
        gens, gpos = cur.generators(info.parent, "))")
        if info.parent.span(gens).mask != info.ideal_mask:
            raise cur.error("ideal does not match the quotient construction", gpos)
        return induced_quotient(R, d)
    if cur.take("loc("):
        info = R.construction
        if not isinstance(info, LocalizationOf):
            raise cur.error(f"{R.label} was not built as a localization")
        d = _expansion(cur, info.parent)
        cur.expect(",")
        gens, gpos = cur.generators(info.parent)
        try:
            closure = MultiplicativeSet.from_generators(info.parent, gens)
        except ConstructionError as exc:
            raise cur.error(str(exc), gpos)
        if frozenset(closure.members) != frozenset(info.set_members):
            raise cur.error("set does not match the localization construction", gpos)
        return induced_localization(R, d)
    if cur.take("triv("):
        info = R.construction
        if not isinstance(info, TrivialExtensionOf):
            raise cur.error(f"{R.label} was not built as a trivial extension")
        d = _expansion(cur, info.base)
        cur.expect(")")
        return induced_trivial_extension(R, d)
    raise cur.error("expected an expansion spec")


# ----------------------------------------------------------------------
# predicate queries


class Query:
    """A parsed boolean combination of predicate names. ``verdicts(R, delta)``
    is its verdict vector over R's proper ideals, from the checks' vectors:
    a name is its vector, & and | are bitwise, ! is masked to the proper
    ideals."""

    def __init__(self, verdicts: Callable, names: frozenset[str], text: str):
        self.verdicts, self.names, self.text = verdicts, names, text
        self.uses_delta = bool(names - DELTA_FREE)

    def evaluate(self, I, delta=None) -> bool:
        """The query at the proper ideal I: the bit of its vector at I."""
        if delta is None and self.uses_delta:
            raise RinglabError(f"query {self.text!r} needs an expansion")
        p = _position(I, delta if self.uses_delta else None, f"query {self.text!r}")
        return bool(self.verdicts(I.ring, delta) >> p & 1)


def parse_query(text: str) -> Query:
    """Parse a boolean predicate query with &, |, ! and parentheses."""
    cur = _Cursor(text)
    names: set[str] = set()

    def primary() -> Callable:
        cur.skip_spaces()
        if cur.take("!"):
            inner = primary()
            return lambda R, d: ~inner(R, d) & ((1 << len(R.proper_ideals())) - 1)
        if cur.take("("):
            inner = disjunction()
            cur.skip_spaces()
            cur.expect(")")
            return inner
        start = cur.pos
        while cur.pos < len(text) and (text[cur.pos].isalnum() or text[cur.pos] == "-"):
            cur.pos += 1
        name = text[start : cur.pos]
        if name not in PREDICATES:
            cur.pos = start
            raise cur.error(f"unknown predicate {name!r}" if name else "expected a predicate name")
        names.add(name)
        return lambda R, d: _verdicts(name, R, d, alone=True)

    def chain(operand: Callable[[], Callable], token: str, combine) -> Callable:
        """One or more operands joined by token, combined bitwise."""
        parts = [operand()]
        cur.skip_spaces()
        while cur.take(token):
            parts.append(operand())
            cur.skip_spaces()
        return lambda R, d: reduce(combine, [p(R, d) for p in parts])

    def disjunction() -> Callable:
        """Conjunctions joined by |, each primaries joined by &."""
        return chain(lambda: chain(primary, "&", and_), "|", or_)

    verdicts = disjunction()
    cur.skip_spaces()
    if cur.pos != len(text):
        raise cur.error("unexpected trailing input")
    return Query(verdicts, frozenset(names), text)
