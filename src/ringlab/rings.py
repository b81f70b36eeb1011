"""Finite commutative rings with identity, given by dense operation tables.

Elements are the indices 0..order-1. A ring owns two order x order tables
(addition and multiplication), a zero and a one index, and a human readable
label. Everything downstream (ideals, expansions, predicates, the verifier)
works on these indices, so rings built by different constructions are never
considered equal even when isomorphic. Every table derived from a ring alone
is declared with ``_per_ring`` and kept in the ring's ``cache``.
"""

from __future__ import annotations

from array import array
from functools import wraps
from typing import Callable, Iterable, Optional, Sequence

from .errors import ConstructionError, InvariantError, RingMismatchError, TableError

Table = tuple[tuple[int, ...], ...]

# The build function of every per-ring table, by its key in the ring's ``cache``.
_PER_RING: dict[str, Callable] = {}
_MISSING = object()


def _per_ring(key: str):
    """Declare fn(R) a per-ring table: built on first use, through the
    wrapper's ``__wrapped__`` so that a test can count the builds, kept in
    R.cache[key], and that same object on every later call. R is a ring, or
    a ``constructions.FiniteModule`` for a module's tables. Each key has one
    build function."""

    def declare(build: Callable) -> Callable:
        if key in _PER_RING:
            raise InvariantError(f"two per-ring tables share the key {key!r}")

        @wraps(build)
        def table(R):
            got = R.cache.get(key, _MISSING)
            if got is _MISSING:
                got = R.cache[key] = table.__wrapped__(R)
            return got

        _PER_RING[key] = table
        return table

    return declare


def _normalize_table(table: Sequence[Sequence[int]], n: int, what: str) -> Table:
    rows = tuple(tuple(row) for row in table)
    if len(rows) != n:
        raise TableError(f"{what} table must have {n} rows, got {len(rows)}")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise TableError(f"{what} table row {i} has length {len(row)}, expected {n}")
        if not _row_in_range(row, n):
            _reject_entry(row, n, lambda j: f"{what} table entry [{i}][{j}] = ")
    return rows


def _row_in_range(row: tuple, n: int) -> bool:
    """Whether every entry is an int in range(n), at every order by one
    array('Q') conversion, which rejects non-integers, negative ints and
    ints beyond 64 bits, and the row's max."""
    try:
        array("Q", row)
    except (TypeError, OverflowError):
        return False
    return max(row, default=0) < n


def _reject_entry(row: tuple, n: int, where: Callable[[int], str], suffix: str = "") -> None:
    """Raise TableError at the first entry of a row that ``_row_in_range``
    rejects, where(j) naming entry j."""
    for j, v in enumerate(row):
        if not isinstance(v, int):
            raise TableError(f"{where(j)}{v!r} is not an integer")
        if not 0 <= v < n:
            raise TableError(f"{where(j)}{v} out of range{suffix}")


def _find_identity(table: Table, n: int) -> Optional[int]:
    ident = tuple(range(n))
    for e in range(n):
        if table[e] == ident:
            return e
    return None


def _additive_zero(add: Table, what: str) -> int:
    """The zero of an addition table, after checking that it is commutative
    (with a witness), has an identity and has inverses. what prefixes each
    message: "" for a ring, "module " for a module."""
    if add != tuple(zip(*add)):
        a, b = _first_asym(add)
        raise TableError(f"{what}addition is not commutative, witness ({a}, {b})")
    zero = _find_identity(add, len(add))
    if zero is None:
        raise TableError(f"{what}addition has no identity element")
    for a, row in enumerate(add):
        if zero not in row:
            raise TableError(f"{what}element {a} has no additive inverse")
    return zero


class FiniteRing:
    """A finite commutative ring with identity, order at least 2.

    The constructor proves every axiom of caller data at run time.
    Commutativity, both identities and additive inverses are read off the
    tables. Associativity of both operations and distributivity are proven
    on an additive generating set G only, by O(order * |G|) row comparisons
    (see ``_generator_proof``). A table that fails the proof gets the full
    scan, which reports the first violating element triple. A library
    construction's ring is proven by its theorem and built by ``_built``.
    """

    def __init__(
        self,
        add_table: Sequence[Sequence[int]],
        mul_table: Sequence[Sequence[int]],
        label: str,
        *,
        element_names: Optional[Sequence[str]] = None,
    ):
        n = len(add_table)
        if n < 2:
            raise ConstructionError("ring order must be at least 2, the zero ring is excluded")
        self.order = n
        self.add_table = _normalize_table(add_table, n, "addition")
        self.mul_table = _normalize_table(mul_table, n, "multiplication")
        self.label, self.construction, self.cache = label, None, {}
        if element_names is not None:
            names = tuple(element_names)
            if len(names) != n:
                raise ConstructionError("element_names length must equal the ring order")
            self.element_names = names
        else:
            self.element_names = tuple(str(i) for i in range(n))
        self._validate()

    @classmethod
    def _built(cls, add: Table, mul: Table, zero: int, one: int, label: str,
               construction: object, element_names: tuple[str, ...]) -> FiniteRing:
        """A ring that a construction proves (see ``constructions``), from
        tuple rows and the zero and one it gives: not normalized or validated."""
        R = cls.__new__(cls)
        R.order, R.add_table, R.mul_table, R.zero, R.one = len(add), add, mul, zero, one
        R.label, R.construction, R.element_names, R.cache = label, construction, element_names, {}
        return R

    # ------------------------------------------------------------------
    # validation

    def _validate(self) -> None:
        n = self.order
        add, mul = self.add_table, self.mul_table
        zero = _additive_zero(add, "")
        if mul != tuple(zip(*mul)):
            a, b = _first_asym(mul)
            raise TableError(f"multiplication is not commutative, witness ({a}, {b})")
        one = _find_identity(mul, n)
        if one is None:
            raise TableError("multiplication has no identity element")
        if zero == one:
            raise TableError("zero and one coincide, the zero ring is excluded")
        self.zero, self.one = zero, one
        if n <= 256:
            # byte rows let translate() compose rows at C speed
            add, mul = [bytes(row) for row in add], [bytes(row) for row in mul]
        step = _row_step(n)
        if not _generator_proof(add, mul, zero, step):
            _scan_axioms(add, mul, step)
            raise InvariantError("the generator proof failed where the full scan passed")

    # ------------------------------------------------------------------
    # element arithmetic on indices

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def pow(self, a: int, k: int) -> int:
        """a**k by square-and-multiply: O(log k) table reads, as the
        multiplication is associative."""
        if k < 0:
            raise ValueError("negative exponents are not defined in a ring")
        acc, mul = self.one, self.mul_table
        while k:
            if k & 1:
                acc = mul[acc][a]
            a, k = mul[a][a], k >> 1
        return acc

    @property
    @_per_ring("neg")
    def neg_table(self) -> tuple[int, ...]:
        return tuple(row.index(self.zero) for row in self.add_table)

    def element(self, index: int) -> Element:
        return Element(self, _element_index(self, index))

    def elements(self) -> list[Element]:
        return [Element(self, i) for i in range(self.order)]

    def element_name(self, index: int) -> str:
        return self.element_names[index]

    # ------------------------------------------------------------------
    # units and structural queries

    @_per_ring("units")
    def units(self) -> frozenset[int]:
        """The set of invertible elements: the x with (x) = R."""
        from . import ideals as _ideals

        full = (1 << self.order) - 1
        return frozenset(x for x, m in enumerate(_ideals._principal_masks(self)) if m == full)

    @_per_ring("nonunits")
    def nonunits(self) -> frozenset[int]:
        return frozenset(range(self.order)) - self.units()

    def is_unit(self, a: int) -> bool:
        return a in self.units()

    @property
    @_per_ring("nonunit_list")
    def nonunit_list(self) -> tuple[int, ...]:
        return tuple(sorted(self.nonunits()))

    @property
    @_per_ring("nonunits_mask")
    def nonunits_mask(self) -> int:
        return sum(1 << a for a in self.nonunits())

    def nonunits_form_ideal(self) -> bool:
        """Whether the nonunits are closed under addition and ring multiples,
        by the definitional ideal scan: an independent route to locality,
        kept separate from the maximal-ideal count so the two can be
        cross-checked."""
        from .ideals import is_ideal_mask

        return is_ideal_mask(self, self.nonunits_mask)

    @_per_ring("lattice")
    def ideals(self):
        """All ideals in canonical order (cardinality, then bitset value)."""
        from . import ideals as _ideals

        return _ideals.all_ideals(self)

    @_per_ring("proper")
    def proper_ideals(self):
        """Every ideal but the unit ideal, in canonical order.

        The unit ideal is the only ideal of cardinality n, so it is the last
        one in canonical order.
        """
        return self.ideals()[:-1]

    @_per_ring("lattice_pos")
    def _lattice_positions(self) -> dict[int, int]:
        """The lattice position of each ideal mask."""
        return {I.mask: k for k, I in enumerate(self.ideals())}

    def lattice_position(self, mask: int) -> int:
        # the kept table read straight from the cache, as this lookup is hot
        try:
            return (self.cache.get("lattice_pos") or self._lattice_positions())[mask]
        except KeyError:
            raise ConstructionError(f"{mask!r} is not the mask of an ideal of {self!r}") from None

    def span(self, generators: Iterable[int]):
        from . import ideals as _ideals

        return _ideals.span(self, generators)

    def zero_ideal(self):
        return self.span(())

    def unit_ideal(self):
        return self.span((self.one,))

    @_per_ring("maximals")
    def maximal_ideals(self):
        """All maximal ideals, in canonical lattice order."""
        from .predicates import _verdicts

        maximal = _verdicts("maximal", self)
        return tuple(I for p, I in enumerate(self.proper_ideals()) if maximal >> p & 1)

    @_per_ring("spectrum")
    def spectrum(self):
        """All prime ideals, in canonical lattice order."""
        from .predicates import _verdicts

        prime = _verdicts("prime", self)
        return tuple(I for p, I in enumerate(self.proper_ideals()) if prime >> p & 1)

    def jacobson_radical(self):
        """The meet of all maximal ideals: the radical of the zero ideal, at position 0."""
        from . import ideals as _ideals

        return self.ideals()[_ideals._radical_positions(self)[0]]

    def is_local(self) -> bool:
        return len(self.maximal_ideals()) == 1

    def is_field(self) -> bool:
        return len(self.units()) == self.order - 1

    @_per_ring("chained")
    def is_chained(self) -> bool:
        """Whether the ideal lattice is totally ordered by inclusion."""
        lat = self.ideals()
        return not any(a.mask & ~b.mask for a, b in zip(lat, lat[1:]))

    @_per_ring("arithmetical")
    def is_arithmetical(self) -> bool:
        """Whether the localization at every maximal ideal M is chained. R_M is
        R/K_M with K_M = {x : s*x = 0 for some s outside M} (see ``localize``),
        so it is chained exactly when the ideals of R containing K_M are. The
        annihilators are row 0, the zero ideal's, of the principal colons: s
        and its class generator g have one annihilator and lie in M together."""
        from . import ideals as _ideals

        gens, _, table = _ideals._principal_colons(self)
        masks = [I.mask for I in self.ideals()]
        for M in self.maximal_ideals():
            k = 0
            for g, q in zip(gens, table[0]):
                if not (M.mask >> g) & 1:
                    k |= masks[q]
            above = [m for m in masks if not k & ~m]
            if any(a & ~b for a, b in zip(above, above[1:])):
                return False
        return True

    def __repr__(self) -> str:
        return f"FiniteRing({self.label!r}, order={self.order})"


def _colon_rows(rows: Sequence[Sequence[int]], imask: int) -> tuple[int, ...]:
    """For each multiplication or action row of some d, the mask of {x : d*x
    in imask}: the path of ``ideals._principal_colons`` above order 256 and
    of T-TRIV's (F : c), and the oracle of the colons read off the table."""
    return tuple(sum(1 << x for x, v in enumerate(row) if (imask >> v) & 1) for row in rows)


def _additive_generators(addb: list, zero: int) -> list[int]:
    """A greedy generating set: each index, ascending, not yet reached from
    zero by the maps x -> x + g over the chosen g. Every index ends up
    reached, so the closure under "+g", read off the table, is the ring."""
    gens: list[int] = []
    reached = {zero}
    for a in range(len(addb)):
        if a in reached:
            continue
        gens.append(a)
        todo = list(reached)
        while todo:
            row = addb[todo.pop()]
            for g in gens:
                y = row[g]
                if y not in reached:
                    reached.add(y)
                    todo.append(y)
    return gens


def _compose_rows(row: tuple, t: tuple) -> tuple:
    return tuple(map(t.__getitem__, row))


def _row_step(n: int) -> tuple:
    """How the axiom proofs compose table rows at order n, as (pad, compose):
    compose(row, t + pad)[y] = t[row[y]]. Up to order 256 rows are bytes and
    compose is ``bytes.translate``, at C speed, whose table must be 256
    bytes long; above, where bytes cannot hold an index, rows are tuples and
    compose maps each entry through t."""
    if n <= 256:
        return bytes(256 - n), bytes.translate
    return (), _compose_rows


def _generator_proof(addb: list, mulb: list, zero: int, step: tuple) -> bool:
    """Whether associativity of both operations and distributivity hold, given
    commutative tables with identities and additive inverses, as rows that
    ``step`` composes (see ``_row_step``).

    For each g of the additive generating set G, and x over all elements, as
    rows over y:
      1. (x+g)+y = x+(g+y), Light's associativity test;
      2. x(y+g) = xy + xg;
      3. (xy)g = x(yg).
    Each is an instance of its axiom, so a table that fails is not a ring.
    Conversely, the elements c that satisfy an axiom in the place of g for all
    x and y (the "good" ones) are closed under +, and they include G:
      1. 0 is good; if a and b are good, (x+(a+b))+y = ((x+a)+b)+y =
         (x+a)+(b+y) = x+(a+(b+y)) = x+((a+b)+y). The elements reached from 0
         by "+g" are therefore all good, and they are the whole ring, so +
         is associative and (R, +) is a group. Every element is then a
         nonempty sum of generators: 0 = ord(g)*g.
      2. both sides are additive in the last variable: x(y+(a+b)) =
         x((y+a)+b) = (xy+xa)+xb = xy+x(a+b).
      3. with distributivity, (xy)(a+b) = (xy)a+(xy)b = x(ya)+x(yb) =
         x(y(a+b)).
    Each step composes O(n*|G|) rows, where the full scan composes O(n*n)."""
    pad, compose = step
    addt = [row + pad for row in addb]
    mult = [row + pad for row in mulb]
    gens = _additive_generators(addb, zero)
    for g in gens:
        ag = addb[g]
        if any(addb[v] != compose(ag, addt[x]) for x, v in enumerate(ag)):
            return False
    for g in gens:
        ag, mg = addb[g], mulb[g]
        if any(compose(ag, mult[x]) != compose(row, addt[mg[x]]) for x, row in enumerate(mulb)):
            return False
    for g in gens:
        mg, tg = mulb[g], mult[g]
        if any(compose(row, tg) != compose(mg, mult[x]) for x, row in enumerate(mulb)):
            return False
    return True


def _scan_axioms(addb: list, mulb: list, step: tuple) -> None:
    """The full scan over all (a, b), one row over c each: raises on the
    first triple that breaks associativity of + or of *, or distributivity.
    It names the witness when ``_generator_proof`` fails, and it is the
    proof's test oracle."""
    pad, compose = step
    addt = [row + pad for row in addb]
    mult = [row + pad for row in mulb]
    for a in range(len(addb)):
        ra, ma = addt[a], mult[a]
        arow, mrow = addb[a], mulb[a]
        for b in range(len(addb)):
            if addb[arow[b]] != compose(addb[b], ra):
                c = _first_diff(addb[arow[b]], compose(addb[b], ra))
                raise TableError(f"addition is not associative, witness ({a}, {b}, {c})")
            if mulb[mrow[b]] != compose(mulb[b], ma):
                c = _first_diff(mulb[mrow[b]], compose(mulb[b], ma))
                raise TableError(f"multiplication is not associative, witness ({a}, {b}, {c})")
            if compose(addb[b], ma) != compose(mulb[a], addt[mrow[b]]):
                c = _first_diff(compose(addb[b], ma), compose(mulb[a], addt[mrow[b]]))
                raise TableError(f"multiplication does not distribute, witness ({a}, {b}, {c})")


def _first_asym(table: Table) -> tuple[int, int]:
    for a, row in enumerate(table):
        for b, v in enumerate(row):
            if table[b][a] != v:
                return a, b
    raise InvariantError("no asymmetry found")


def _first_diff(x: Sequence[int], y: Sequence[int]) -> int:
    for i, (u, v) in enumerate(zip(x, y)):
        if u != v:
            return i
    raise InvariantError("byte strings do not differ")


class _Record:
    """An immutable record whose fields are its ``__slots__``, each set once
    by ``__init__``. Equality (same class, equal fields), hash and repr read
    the fields in order; the methods are written out, not generated."""

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Element(_Record):
    """An element of a specific ring. Cross-ring arithmetic is rejected."""

    __slots__ = ("ring", "index")

    def __init__(self, ring: FiniteRing, index: int) -> None:
        super().__init__(ring, index)

    def _same_ring(self, other: Element) -> None:
        if not isinstance(other, Element):
            raise TypeError(f"expected an Element, got {other!r}")
        if other.ring is not self.ring:
            raise RingMismatchError(
                f"element of {other.ring.label} used in {self.ring.label}"
            )

    def __add__(self, other: Element) -> Element:
        self._same_ring(other)
        return Element(self.ring, self.ring.add_table[self.index][other.index])

    def __mul__(self, other: Element) -> Element:
        self._same_ring(other)
        return Element(self.ring, self.ring.mul_table[self.index][other.index])

    def __neg__(self) -> Element:
        return Element(self.ring, self.ring.neg_table[self.index])

    def __sub__(self, other: Element) -> Element:
        self._same_ring(other)
        return self + (-other)

    def __pow__(self, k: int) -> Element:
        return Element(self.ring, self.ring.pow(self.index, k))

    @property
    def is_unit(self) -> bool:
        return self.ring.is_unit(self.index)

    def __repr__(self) -> str:
        return f"<{self.ring.element_name(self.index)} in {self.ring.label}>"


def _element_index(space, a) -> int:
    """The index of a in space, a ring or a module: a.index for an Element of
    the ring space, or a itself for an int in 0..order-1. Every caller that
    takes an element argument goes through here, so a foreign Element raises
    RingMismatchError and any other value raises ConstructionError, never an
    IndexError or a silently read row."""
    if isinstance(a, Element):
        if a.ring is not space:
            raise RingMismatchError(f"element of {a.ring.label} used in {space!r}")
        return a.index
    if isinstance(a, int) and 0 <= a < space.order:
        return a
    raise ConstructionError(f"{a!r} is not an element index of {space!r}")


class RingHom:
    """A unital ring homomorphism given by its value table.

    Validation checks f(1) = 1 and compatibility with both operations,
    reporting the first violating pair on failure.
    """

    def __init__(self, domain: FiniteRing, codomain: FiniteRing, mapping: Sequence[int]):
        self.domain = domain
        self.codomain = codomain
        self.mapping = tuple(mapping)
        if len(self.mapping) != domain.order:
            raise TableError("homomorphism table length must equal the domain order")
        if not _row_in_range(self.mapping, codomain.order):
            _reject_entry(self.mapping, codomain.order, lambda j: "homomorphism value ",
                          f" for {codomain.label}")
        self._validate()

    @classmethod
    def _built(cls, domain: FiniteRing, codomain: FiniteRing, mapping: tuple[int, ...]) -> RingHom:
        """A homomorphism that its construction proves, R -> R/K: not validated."""
        f = cls.__new__(cls)
        f.domain, f.codomain, f.mapping = domain, codomain, mapping
        return f

    def _validate(self) -> None:
        f = self.mapping
        if f[self.domain.one] != self.codomain.one:
            raise TableError("homomorphism does not send one to one")
        addD, mulD = self.domain.add_table, self.domain.mul_table
        addC, mulC = self.codomain.add_table, self.codomain.mul_table
        for a in range(self.domain.order):
            fa = f[a]
            rowA, rowM = addD[a], mulD[a]
            caddr, cmulr = addC[fa], mulC[fa]
            for b in range(self.domain.order):
                if f[rowA[b]] != caddr[f[b]]:
                    raise TableError(f"homomorphism is not additive, witness ({a}, {b})")
                if f[rowM[b]] != cmulr[f[b]]:
                    raise TableError(f"homomorphism is not multiplicative, witness ({a}, {b})")

    def __call__(self, a: int) -> int:
        return self.mapping[a]

    def is_surjective(self) -> bool:
        return len(set(self.mapping)) == self.codomain.order

    def kernel(self):
        return self.preimage_ideal(self.codomain.zero_ideal())

    def image_ideal(self, I):
        """The image of an ideal, spanned in the codomain.

        For a surjective homomorphism the raw image already is an ideal and
        the span changes nothing.
        """
        if I.ring is not self.domain:
            raise RingMismatchError("ideal does not live in the homomorphism domain")
        return self.codomain.span({self.mapping[a] for a in I.members})

    def preimage_ideal(self, J):
        from .ideals import Ideal

        if J.ring is not self.codomain:
            raise RingMismatchError("ideal does not live in the homomorphism codomain")
        jm = J.mask
        mask = sum(1 << a for a, v in enumerate(self.mapping) if (jm >> v) & 1)
        return Ideal(self.domain, mask)

    def is_nonunit_preserving(self) -> tuple[bool, Optional[int]]:
        """Whether nonunits map to nonunits, with the first failing element."""
        for a in self.domain.nonunit_list:
            if self.codomain.is_unit(self.mapping[a]):
                return False, a
        return True, None

    def __repr__(self) -> str:
        return f"RingHom({self.domain.label} -> {self.codomain.label})"


# ----------------------------------------------------------------------
# basic constructors


def make_zn(n: int) -> FiniteRing:
    """The ring of integers modulo n, for n at least 2."""
    if n < 2:
        raise ConstructionError(f"make_zn needs a modulus of at least 2, got {n}")
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[(a * b) % n for b in range(n)] for a in range(n)]
    return FiniteRing(add, mul, f"Z{n}")


def _is_prime_int(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def format_poly(coeffs: Sequence[int]) -> str:
    """Render a polynomial, low-to-high coefficients, in descending order."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            lead = "" if c == 1 else str(c)
            xpow = "x" if k == 1 else f"x^{k}"
            terms.append(lead + xpow)
    return "+".join(terms) if terms else "0"


def _pair_rows(t1: Sequence[Sequence[int]], t2: Sequence[Sequence[int]]) -> Table:
    """The componentwise table on row-major pairs, one tuple row per
    comprehension: entry ((a, b), (c, d)) is t1[a][c] * len(t2) + t2[b][d]."""
    n2 = len(t2)
    shifted = [[k * n2 for k in row1] for row1 in t1]
    return tuple(tuple([k + v for k in row1 for v in row2]) for row1 in shifted for row2 in t2)


def _digits(m: int, p: int, k: int) -> list[int]:
    """The k base-p digits of m, least significant first."""
    out = []
    for _ in range(k):
        m, d = divmod(m, p)
        out.append(d)
    return out


def make_poly_quotient(p: int, coeffs: Sequence[int]) -> FiniteRing:
    """The quotient Z_p[x]/(f) for a monic f of degree k at least 1.

    Coefficients are given low to high. Elements are residue polynomials of
    degree below k. Index i stands for the polynomial whose coefficients are
    the base-p digits of i, least significant first, so the constants
    occupy indices 0..p-1 and i = c + p*h is the polynomial c + x*h.

    Addition is k copies of Z_p's addition, paired digit by digit.
    Multiplication is built row by row, each from two earlier rows: row c of
    a constant c is row c-1 plus the identity row, and row c + p*h is row c
    plus x times row h. Multiplying by x shifts the digits up one place and
    cancels the carried top coefficient t by subtracting t*f.
    """
    if not _is_prime_int(p):
        raise ConstructionError(f"polynomial quotient needs a prime modulus, got {p}")
    f = [c % p for c in coeffs]
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    k = len(f) - 1
    if k < 1:
        raise ConstructionError("polynomial modulus must have degree at least 1")
    if f[k] != 1:
        raise ConstructionError(f"polynomial modulus must be monic, got {format_poly(f)}")
    n, top = p**k, p ** (k - 1)
    digit_add = [[(a + b) % p for b in range(p)] for a in range(p)]
    add = digit_add
    for _ in range(k - 1):
        add = _pair_rows(add, digit_add)
    # cancel[t] = -t*(f - x^k), the value of t*x^k
    cancel = [sum((-t * f[d]) % p * p**d for d in range(k)) for t in range(p)]
    times_x = [add[g % top * p][cancel[g // top]] for g in range(n)]
    mul = [[0] * n]
    for i in range(1, n):
        h, c = divmod(i, p)
        if h:
            mul.append([add[u][times_x[v]] for u, v in zip(mul[c], mul[h])])
        else:
            mul.append([add[u][j] for j, u in enumerate(mul[c - 1])])
    label = f"Z{p}[x]/({format_poly(f)})"
    names = tuple(format_poly(_digits(i, p, k)) for i in range(n))
    return FiniteRing(add, mul, label, element_names=names)


def _poly_is_irreducible(p: int, coeffs: tuple[int, ...]) -> bool:
    k = len(coeffs) - 1
    if k == 1:
        return True
    if any(sum(c * pow(a, d, p) for d, c in enumerate(coeffs)) % p == 0 for a in range(p)):
        return False
    if k < 4:
        return True
    for d in range(2, k // 2 + 1):
        for m in range(p**d):
            if _poly_divides(p, _digits(m, p, d) + [1], list(coeffs)):
                return False
    return True


def _poly_divides(p: int, g: list[int], f: list[int]) -> bool:
    r = list(f)
    dg = len(g) - 1
    while len(r) - 1 >= dg:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - dg
            for j in range(dg + 1):
                r[shift + j] = (r[shift + j] - lead * g[j]) % p
        r.pop()
    return all(c % p == 0 for c in r)


def irreducible_poly(p: int, k: int) -> tuple[int, ...]:
    """The monic irreducible of degree k over Z_p with smallest digit encoding."""
    if not _is_prime_int(p):
        raise ConstructionError(f"irreducible_poly needs a prime modulus, got {p}")
    if k < 1:
        raise ConstructionError("irreducible_poly needs degree at least 1")
    for m in range(p**k):
        cs = tuple(_digits(m, p, k)) + (1,)
        if _poly_is_irreducible(p, cs):
            return cs
    raise InvariantError("no irreducible polynomial found")


def make_galois_field(p: int, k: int) -> FiniteRing:
    """The field of order p^k, as Z_p[x] modulo the canonical irreducible."""
    if k == 1:
        return make_zn(p)
    return make_poly_quotient(p, irreducible_poly(p, k))
