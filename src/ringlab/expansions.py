"""Expansion functions on the ideal lattice of a finite ring.

An expansion assigns to each ideal I an ideal delta(I) with I contained in
delta(I), monotonely in I. It is stored as a table over the canonical
lattice. The constructor validates a caller's table: monotonicity is
checked on every pair I_p inside I_q, as the definition states, and the
check keeps no table of its own. A table the library proves, stock or
induced, is built by ``ExpansionFunction._built`` and not validated. Either
way the expansion takes its ring's one record of the table. The whole ring
is included in the domain with delta(R) = R.

Families: the identity, the radical, translation by a fixed ideal, and the
constant-ring map, each a table read off the lattice masks with no ideal
built (``from_rule``, which maps ideals through a callable, is for
hand-written expansions). All four are translations I -> I + J (see
``standard_expansions``), extensive and monotone by definition. Expansions
also transfer along the standard constructions (products, quotients,
localizations, trivial extensions). An induced table is read off the
construction's ideal correspondence, the lattice-position maps of
``constructions._correspondence``: one lookup per ideal of the constructed
ring, with no ideal built, and extensive and monotone as its source is.
Each construction carries a translation to a translation: the product of
I -> I + J1 and I -> I + J2 is I -> I + J1 x J2, a quotient or localization
along f gives I -> I + f(J), and a trivial extension by E gives
I -> I + J x E. So an expansion induced from stock ones has the table of a
stock expansion of the constructed ring. Each ``induced_*`` call returns a
new expansion on its ring's record of its table.
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import Callable, Optional, Sequence

from .constructions import (
    LocalizationOf,
    ProductOf,
    QuotientOf,
    TrivialExtensionOf,
    _correspondence,
    _preimage_positions,
)
from .errors import ExpansionAxiomError, RingMismatchError
from .ideals import (
    Ideal, _bits, _join_column, _lsb, _principal_masks, _principal_table, _radical_positions,
    _up_sets, generator_list)
from .rings import FiniteRing, RingHom, _per_ring


class ExpansionFunction:
    """An expansion of ideals, as a table over the lattice."""

    # Check name -> verdict vector, an int with bit p set where the check
    # holds at proper ideal p, made by ``predicates._verdicts`` on first
    # use. The verdicts depend on the ring and the table alone, so every
    # expansion with one table on one ring shares one dict.
    verdicts: dict

    def __init__(self, ring: FiniteRing, table: Sequence[int], label: str):
        """Validate a caller's table, then take the ring's record of it: the
        ring keeps one (table, verdicts) record per table, which every
        expansion with that table takes, keeping its own label."""
        self.ring = ring
        self.label = label
        self.table = tuple(table)
        self._validate()
        self.table, self.verdicts = _record(ring, self.table)

    @classmethod
    def _built(cls, ring: FiniteRing, table: Sequence[int], label: str) -> ExpansionFunction:
        """A stock or induced expansion, whose table the library proves
        extensive and monotone: not validated."""
        d = cls.__new__(cls)
        d.ring, d.label = ring, label
        d.table, d.verdicts = _record(ring, tuple(table))
        return d

    def _validate(self) -> None:
        """The two axioms on caller data: each image a lattice position
        containing its ideal, then the definitional scan over every pair
        I_p inside I_q (UP[p], ascending), in lattice order, which names the
        first pair whose images are not nested."""
        lattice = self.ring.ideals()
        if len(self.table) != len(lattice):
            raise ExpansionAxiomError(
                f"table length {len(self.table)} does not match lattice size {len(lattice)}"
            )
        masks = [I.mask for I in lattice]
        for p, q in enumerate(self.table):
            if not (isinstance(q, int) and 0 <= q < len(lattice)):
                raise ExpansionAxiomError(
                    f"image {q!r} at {lattice[p].label} is not a lattice position"
                )
            if masks[p] & ~masks[q]:
                raise ExpansionAxiomError(
                    f"not extensive at {lattice[p].label}: image {lattice[q].label}"
                )
        image = [masks[q] for q in self.table]
        for p, up in enumerate(_up_sets(self.ring)):
            for q in _bits(up):
                if image[p] & ~image[q]:
                    raise ExpansionAxiomError(
                        f"not monotone at pair ({lattice[p].label}, {lattice[q].label})"
                    )

    def __call__(self, I: Ideal) -> Ideal:
        if I.ring is not self.ring:
            raise RingMismatchError("ideal belongs to a different ring")
        R = self.ring
        return R.ideals()[self.table[R.lattice_position(I.mask)]]

    @property
    def key(self) -> tuple:
        return (id(self.ring), self.table)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ExpansionFunction)
            and other.ring is self.ring
            and other.table == self.table
        )

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"ExpansionFunction({self.label!r} on {self.ring.label})"


def from_rule(R: FiniteRing, rule: Callable[[Ideal], Ideal], label: str) -> ExpansionFunction:
    """Build and validate an expansion from an ideal-to-ideal callable. A
    value that is not an ``Ideal`` of R raises ``RingMismatchError``."""
    table = []
    for I in R.ideals():
        J = rule(I)
        if not isinstance(J, Ideal) or J.ring is not R:
            raise RingMismatchError(f"rule value at {I.label} is not an ideal of {R.label}")
        table.append(R.lattice_position(J.mask))
    return ExpansionFunction(R, table, label)


def _record(R: FiniteRing, table: tuple[int, ...]) -> tuple[tuple[int, ...], dict]:
    """R's one (table, verdicts) record of ``table``, made on first use."""
    return R.cache.setdefault("expansion_records", {}).setdefault(table, (table, {}))


# ----------------------------------------------------------------------
# the four stock families


# Kept on R for the delta-free checks, which read id and rad (``predicates``):
# two tables, as rad's reads the maximal ideals, a vector in id's record.
@_per_ring("identity")
def identity_expansion(R: FiniteRing) -> ExpansionFunction:
    return ExpansionFunction._built(R, range(len(R.ideals())), "id")


@_per_ring("radical")
def radical_expansion(R: FiniteRing) -> ExpansionFunction:
    return ExpansionFunction._built(R, _radical_positions(R), "rad")


def plus_fixed(R: FiniteRing, J: Ideal) -> ExpansionFunction:
    """The translation I maps to I + J: the join column at J."""
    if J.ring is not R:
        raise RingMismatchError("fixed ideal belongs to a different ring")
    gens = ",".join(str(g) for g in generator_list(J))
    table = _join_column(R, R.lattice_position(J.mask))
    return ExpansionFunction._built(R, table, f"plus:({gens})")


def constant_ring(R: FiniteRing) -> ExpansionFunction:
    """Every ideal, proper or not, maps to the whole ring."""
    top = len(R.ideals()) - 1
    return ExpansionFunction._built(R, [top] * (top + 1), "full")


@_per_ring("std_expansions")
def standard_expansions(R: FiniteRing) -> tuple[ExpansionFunction, ...]:
    """The stock families on R: one translation I -> I + J per ideal J.

    ``id`` is J = (0), ``plus:(J)`` is J and ``full`` is J = R. ``rad`` is
    J = Jac(R): a finite commutative ring is a product of local rings, and
    there rad(I) = I + Jac(R). The image of (0) is J, so distinct J give
    distinct tables. The order is id, rad when Jac(R) is nonzero, plus:(J)
    for every other proper J, then full.
    """
    jac = _radical_positions(R)[0]
    out = [identity_expansion(R)]
    if jac:
        out.append(radical_expansion(R))
    out.extend(plus_fixed(R, J) for p, J in enumerate(R.proper_ideals()) if p not in (0, jac))
    out.append(constant_ring(R))
    return tuple(out)


# ----------------------------------------------------------------------
# side conditions


def satisfies_star(delta: ExpansionFunction) -> bool:
    """Condition (*): proper ideals keep proper images. The unit ideal is
    the last lattice position, the only one that is not proper."""
    top = len(delta.table) - 1
    return top not in delta.table[:top]


def preserves_jacobson(delta: ExpansionFunction) -> bool:
    """δ(Jac) = Jac, one table entry: Jac(R) is the radical of (0), position 0."""
    j = _radical_positions(delta.ring)[0]
    return delta.table[j] == j


@_per_ring("scaling")
def _scaling_table(R: FiniteRing) -> tuple[tuple[int, ...], ...]:
    """Row x holds the lattice position of x*I for each lattice position of I.

    x*I = (x)*I, so elements that generate the same principal ideal share
    one row, the same tuple object, computed at the smallest such x: one row
    per ``_principal_table`` class. x*I is the sum of the (x*g) over the
    generators g of I: the position of one (x*g), or the join of several,
    the lowest bit of the AND of their UP sets.
    """
    pm = _principal_masks(R)
    ppos, up = list(map(R._lattice_positions().__getitem__, pm)), _up_sets(R)
    gens = [generator_list(I) for I in R.ideals()]

    def scaled(row: tuple[int, ...], gs: tuple[int, ...]) -> int:
        if len(gs) == 1:
            return ppos[row[gs[0]]]
        return _lsb(reduce(and_, [up[ppos[row[g]]] for g in gs]))

    rows = {m: tuple([scaled(R.mul_table[x], gs) for gs in gens])
            for m, x in _principal_table(R).items()}
    return tuple(map(rows.__getitem__, pm))


def scaling_check(
    delta: ExpansionFunction,
) -> tuple[bool, Optional[tuple[int, Ideal]]]:
    """Whether delta(x*I) = x*delta(I) wherever x*I is nonzero.

    Pairs whose scaled ideal collapses to the zero ideal are vacuous for
    the characterization results and are skipped. The witness is the first
    failing pair, x ascending and I in canonical lattice order. Both sides
    are compared as lattice positions read from the ring's scaling table.
    Associates share a row, so each row is tested once, at the smallest
    generator of its principal ideal, which is where the ascending scan
    would first fail on it; those generators come in ascending order.
    """
    R = delta.ring
    lattice = R.ideals()
    zero = R.lattice_position(1 << R.zero)
    table = delta.table
    proper = range(len(lattice) - 1)
    rows = _scaling_table(R)
    for x in _principal_table(R).values():
        row = rows[x]
        for p in proper:
            xp = row[p]
            if xp != zero and table[xp] != row[table[p]]:
                return False, (x, lattice[p])
    return True, None


def commutes_with_scaling(delta: ExpansionFunction) -> bool:
    return scaling_check(delta)[0]


@_per_ring("meet")
def _meet_table(R: FiniteRing) -> tuple[tuple[int, ...], ...]:
    """meet[p][q] is the lattice position of the intersection of the ideals
    at positions p and q."""
    masks = [I.mask for I in R.ideals()]
    pos = R._lattice_positions().__getitem__  # an intersection of ideals is one
    return tuple(tuple(map(pos, [mp & mq for mq in masks])) for mp in masks)


@_per_ring("crossing_meets")
def _crossing_meets(R: FiniteRing) -> tuple[tuple[int, int, int], ...]:
    """(p, q, meet[p][q]) for each pair p < q of incomparable ideals."""
    return tuple(
        (p, q, m)
        for p, row in enumerate(_meet_table(R))
        for q, m in enumerate(row[p + 1 :], p + 1)
        if m != p and m != q
    )


def is_intersection_preserving(delta: ExpansionFunction) -> bool:
    """Whether delta(I & J) = delta(I) & delta(J) for every pair, read as
    lattice positions off the ring's meet table. A pair with I inside J
    holds by monotonicity, so only incomparable pairs are tested."""
    t = delta.table
    meet = _meet_table(delta.ring)
    return all(t[m] == meet[t[p]][t[q]] for p, q, m in _crossing_meets(delta.ring))


def is_idempotent_at(delta: ExpansionFunction, I: Ideal) -> bool:
    return delta(delta(I)).mask == delta(I).mask


def is_prime_expansion(delta: ExpansionFunction) -> bool:
    """Whether delta sends every 1-absorbing delta-primary ideal to a prime.

    An image equal to the whole ring counts as not prime. Both sides are
    read from verdict vectors, at the lattice positions of I and delta(I).
    """
    from .predicates import _verdicts

    R = delta.ring
    prime = _verdicts("prime", R)
    one_abs = _verdicts("1abs-delta-primary", R, delta)
    return all(prime >> delta.table[p] & 1 for p in _bits(one_abs))


def delta_gamma_hom_check(
    f: RingHom, delta: ExpansionFunction, gamma: ExpansionFunction
) -> tuple[bool, Optional[Ideal]]:
    """Whether delta(preimage(J)) = preimage(gamma(J)) for every ideal J.

    Both sides are compared as lattice positions of the domain. The witness
    is the first failing ideal of the codomain in canonical order.
    """
    if delta.ring is not f.domain or gamma.ring is not f.codomain:
        raise RingMismatchError("expansions do not match the homomorphism")
    pre = _preimage_positions(f)
    for q, J in enumerate(f.codomain.ideals()):
        if delta.table[pre[q]] != pre[gamma.table[q]]:
            return False, J
    return True, None


def is_delta_gamma_hom(
    f: RingHom, delta: ExpansionFunction, gamma: ExpansionFunction
) -> bool:
    return delta_gamma_hom_check(f, delta, gamma)[0]


# ----------------------------------------------------------------------
# transfer along constructions


def induced_product(
    P: FiniteRing, d1: ExpansionFunction, d2: ExpansionFunction
) -> ExpansionFunction:
    """The componentwise expansion on a product ring: I1 x I2 maps to
    d1(I1) x d2(I2), read off the factor positions of each ideal."""
    info = P.construction
    if not isinstance(info, ProductOf):
        raise RingMismatchError(f"{P.label} was not built as a product")
    if d1.ring is not info.left or d2.ring is not info.right:
        raise RingMismatchError("component expansions do not match the factors")
    comp, inv = _correspondence(P)
    return ExpansionFunction._built(
        P, [inv[d1.table[p1], d2.table[p2]] for p1, p2 in comp], f"prod({d1.label},{d2.label})")


def _projected(R: FiniteRing, delta: ExpansionFunction, label: str) -> ExpansionFunction:
    """J maps to f(delta(f^-1(J))) along the projection f onto R."""
    img, pre = _correspondence(R)
    return ExpansionFunction._built(R, [img[delta.table[p]] for p in pre], label)


def induced_quotient(Q: FiniteRing, delta: ExpansionFunction) -> ExpansionFunction:
    """The expansion J/I maps to delta(J)/I on a quotient ring R/I, read off
    the preimage and image positions along the projection."""
    info = Q.construction
    if not isinstance(info, QuotientOf):
        raise RingMismatchError(f"{Q.label} was not built as a quotient")
    if delta.ring is not info.parent:
        raise RingMismatchError("expansion does not live on the quotient parent")
    return _projected(Q, delta, f"bar({delta.label},({info.generators}))")


def induced_localization(L: FiniteRing, delta: ExpansionFunction) -> ExpansionFunction:
    """Contraction followed by expansion followed by extension, read off the
    preimage and image positions along the projection, as for quotients."""
    info = L.construction
    if not isinstance(info, LocalizationOf):
        raise RingMismatchError(f"{L.label} was not built as a localization")
    if delta.ring is not info.parent:
        raise RingMismatchError("expansion does not live on the localization parent")
    gens = ",".join(str(g) for g in info.set_generators)
    return _projected(L, delta, f"loc({delta.label},{gens})")


def induced_trivial_extension(T: FiniteRing, delta: ExpansionFunction) -> ExpansionFunction:
    """Pair ideals expand componentwise to delta(I) paired with the module.

    Ideals that are not of pair form are first enlarged to their smallest
    enveloping pair ideal. The value delta(I) x E is read off the base part I
    of that envelope.
    """
    info = T.construction
    if not isinstance(info, TrivialExtensionOf):
        raise RingMismatchError(f"{T.label} was not built as a trivial extension")
    if delta.ring is not info.base:
        raise RingMismatchError("expansion does not live on the extension base")
    env, up, _ = _correspondence(T)
    return ExpansionFunction._built(T, [up[delta.table[p]] for p in env], f"triv({delta.label})")


def localization_compatibility(L: FiniteRing, delta: ExpansionFunction) -> bool:
    """Whether extension of delta(I) matches the induced expansion on the
    extension of I, for every parent ideal I missing the multiplicative set.
    Both sides are compared as lattice positions of L."""
    info = L.construction
    if not isinstance(info, LocalizationOf):
        raise RingMismatchError(f"{L.label} was not built as a localization")
    smask = sum(1 << s for s in info.set_members)
    ds = induced_localization(L, delta)
    img, _ = _correspondence(L)
    return all(
        ds.table[img[p]] == img[delta.table[p]]
        for p, I in enumerate(info.parent.ideals())
        if not I.mask & smask
    )
