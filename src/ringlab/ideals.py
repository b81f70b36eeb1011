"""Ideals of a finite ring as bitmask subsets, plus the full ideal lattice.

An ideal is identified by its ring and a bitmask over element indices.
In a commutative ring with 1 the principal ideal (x) is the image of row x
of the multiplication table, so the principal ideals are read off the
table once per ring (``_principal_masks``) and every other ideal is a sum
of them. The lattice of all ideals is enumerated once per ring and kept in
a canonical order: by cardinality, then by bitset value. Witnesses reported
by the predicates are lexicographically minimal in element-index order.

Ideals are the submodules of the regular module, and submodules are built
by the same code: ``_sum_masks`` adds two masks and ``_sum_closure`` closes
a set of cyclic masks under pairwise sums. Both read only ``add_table`` and
``order``, so ``constructions.FiniteModule`` passes itself where a ring
goes, with its cyclic submodules Re in place of the principal ideals. Once
a ring's lattice exists, the library's own sums are joins of positions.
"""

from __future__ import annotations

from functools import cache, reduce
from operator import and_
from typing import Iterable, Optional, Union

from .errors import ConstructionError, ProperIdealError, RingMismatchError
from .rings import Element, FiniteRing, _colon_rows, _element_index, _per_ring


class Ideal:
    """An ideal of a finite ring, stored as a bitmask of member indices."""

    __slots__ = ("ring", "mask", "_card")

    def __init__(self, ring: FiniteRing, mask: int):
        self.ring = ring
        self.mask = mask
        self._card = mask.bit_count()

    @property
    def members(self) -> frozenset[int]:
        m = self.mask
        return frozenset(a for a in range(self.ring.order) if (m >> a) & 1)

    @property
    def members_sorted(self) -> tuple[int, ...]:
        m = self.mask
        return tuple(a for a in range(self.ring.order) if (m >> a) & 1)

    @property
    def num_elements(self) -> int:
        return self._card

    @property
    def is_proper(self) -> bool:
        return self._card < self.ring.order

    @property
    def is_zero(self) -> bool:
        return self._card == 1

    def __contains__(self, a: Union[int, Element]) -> bool:
        try:
            a = _element_index(self.ring, a)
        except ConstructionError:
            return False
        return bool((self.mask >> a) & 1)

    def _same_ring(self, other: Ideal) -> None:
        if not isinstance(other, Ideal):
            raise TypeError(f"expected an Ideal, got {other!r}")
        if other.ring is not self.ring:
            raise RingMismatchError("ideals belong to different rings")

    def __le__(self, other: Ideal) -> bool:
        self._same_ring(other)
        return not (self.mask & ~other.mask)

    def __lt__(self, other: Ideal) -> bool:
        return self <= other and self.mask != other.mask

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Ideal)
            and other.ring is self.ring
            and other.mask == self.mask
        )

    def __hash__(self) -> int:
        return hash((id(self.ring), self.mask))

    def __add__(self, other: Ideal) -> Ideal:
        self._same_ring(other)
        return Ideal(self.ring, _sum_masks(self.ring, self.mask, other.mask))

    def __mul__(self, other: Ideal) -> Ideal:
        self._same_ring(other)
        return ideal_product(self, other)

    def __and__(self, other: Ideal) -> Ideal:
        self._same_ring(other)
        return Ideal(self.ring, self.mask & other.mask)

    @property
    def label(self) -> str:
        """Render as (g) for principal ideals, else as the member set."""
        g = principal_generator(self)
        if g is not None:
            return f"({self.ring.element_name(g)})"
        names = ",".join(self.ring.element_name(a) for a in self.members_sorted)
        return "{" + names + "}"

    def __repr__(self) -> str:
        return f"Ideal({self.ring.label}, {self.label})"


# ----------------------------------------------------------------------
# construction and enumeration


@_per_ring("principal_masks")
def _principal_masks(R: FiniteRing) -> tuple[int, ...]:
    """For each element x, the mask of the principal ideal (x).

    The image {x*r : r in R} of row x of the multiplication table already is
    (x): it holds x = x*1, and x*r + x*s = x*(r+s) and s*(x*r) = x*(s*r)
    keep it closed. On a product, ((a, b)) = (a) x (b).
    """
    info = _factors(R)
    if info is not None:
        return tuple(info._pair_masks(_principal_masks(info.left), _principal_masks(info.right)))
    return tuple(sum(1 << v for v in set(row)) for row in R.mul_table)


def _factors(R: FiniteRing):
    """R's ``ProductOf`` descriptor, or None when R is no product."""
    info = R.construction
    return info if isinstance(info, constructions.ProductOf) else None


def span(R: FiniteRing, generators: Iterable[Union[int, Element]]) -> Ideal:
    """The smallest ideal containing the given elements: the sum of their
    principal ideals."""
    pm = _principal_masks(R)
    mask = 1 << R.zero
    for g in generators:
        mask = _sum_masks(R, mask, pm[_element_index(R, g)])
    return Ideal(R, mask)


def _sum_masks(R: FiniteRing, m1: int, m2: int) -> int:
    """The mask of I + J for ideal (or submodule) masks m1 and m2.

    I + J is a union of cosets b + I with b in J; an element of J that the
    union already holds adds no new coset, so each coset is built once.
    """
    if m1 == m2 or not (m2 & ~m1):
        return m1
    if not (m1 & ~m2):
        return m2
    add = R.add_table
    left = [a for a in range(R.order) if (m1 >> a) & 1]
    out = m1
    rest = m2 & ~m1
    while rest:
        low = rest & -rest
        row = add[low.bit_length() - 1]
        for a in left:
            out |= 1 << row[a]
        rest &= ~out
    return out


def is_ideal_mask(R: FiniteRing, mask: int) -> bool:
    """Definitional scan: contains zero, closed under addition and multiples."""
    if not (mask >> R.zero) & 1:
        return False
    elems = [a for a in range(R.order) if (mask >> a) & 1]
    add, mul = R.add_table, R.mul_table
    for a in elems:
        row = add[a]
        for b in elems:
            if not (mask >> row[b]) & 1:
                return False
        mrow = mul[a]
        for r in range(R.order):
            if not (mask >> mrow[r]) & 1:
                return False
    return True


def _sum_closure(R: FiniteRing, cyclic: Iterable[int]) -> tuple[int, ...]:
    """Every sum of the given cyclic masks, in canonical order.

    Closing under pairwise sums with one cyclic mask at a time reaches every
    finite sum. R may be a ring or a ``constructions.FiniteModule``: like
    ``_sum_masks``, this reads only ``add_table`` and ``order``.
    """
    gens = set(cyclic)
    masks = set(gens)
    queue = list(gens)
    while queue:
        m = queue.pop()
        for p in gens:
            s = _sum_masks(R, m, p)
            if s not in masks:
                masks.add(s)
                queue.append(s)
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))


def all_ideals(R: FiniteRing) -> tuple[Ideal, ...]:
    """Every ideal of R, in canonical order (cardinality, then bitset value),
    read off ``_lattice_masks``."""
    masks, order = _lattice_masks(R)
    return tuple(Ideal(R, masks[k]) for k in order)


@_per_ring("lattice_masks")
def _lattice_masks(R: FiniteRing) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(masks, order), I_q = masks[order[q]]: a ring's sums of principal
    ideals, or a product's I1 x I2 row-major over its factors' lattices (k
    pairs the positions divmod(k, |L2|)), which are all its ideals: one that
    holds (a, b) holds (a, 0) = (1, 0)(a, b) and (0, b)."""
    info = _factors(R)
    masks = (_sum_closure(R, _principal_table(R)) if info is None else tuple(
        info._pair_masks(*([I.mask for I in F.ideals()] for F in (info.left, info.right)))))
    return masks, tuple(sorted(range(len(masks)), key=lambda k: (masks[k].bit_count(), masks[k])))


@_per_ring("principal_gen")
def _principal_table(R: FiniteRing) -> dict[int, int]:
    """Each principal ideal's mask, mapped to its smallest generator."""
    table: dict[int, int] = {}
    for x, m in enumerate(_principal_masks(R)):
        table.setdefault(m, x)
    return table


@_per_ring("principal_positions")
def _principal_positions(R: FiniteRing) -> int:
    """The lattice positions of the proper principal ideals, as one int:
    every principal ideal's, less the unit ideal's."""
    top = len(R.proper_ideals())
    pos = R._lattice_positions()
    return sum(1 << pos[m] for m in _principal_table(R)) ^ 1 << top


@_per_ring("principal_colons")
def _principal_colons(
    R: FiniteRing,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(gens, cls, table): gens[j] is the smallest
    generator of the j-th principal ideal, in ``_principal_table`` order;
    cls[x] is the index j with (x) = (gens[j]); and table[p][j] is the
    lattice position of (I_p : gens[j]) for the proper ideal I_p.

    (I : x) = (I : (x)), so every element colon is an entry: (I_p : x) sits
    at table[p][cls[x]] (``_element_colons``). It is the unit ideal exactly
    when x lies in I_p. Only the generators' multiplication rows are read:
    up to order 256 each byte row is translated through I_p's membership
    table, above it each tuple row is mapped (``rings._colon_rows``). A
    product reads its factors' tables at every order, since
    (I1 x I2 : (a, b)) = (I1 : a) x (I2 : b).
    """
    pt = _principal_table(R)
    gens = tuple(pt.values())
    index = {m: j for j, m in enumerate(pt)}
    cls = tuple(index[m] for m in _principal_masks(R))
    pos = R._lattice_positions().__getitem__
    proper = R.proper_ideals()
    info = _factors(R)
    if info is not None:
        comp, inv = constructions._correspondence(R)
        # each factor's table, with a row of tops for its unit ideal
        (c1, t1), (c2, t2) = ((c, t + ((len(t),) * len(t[0]),))
                              for _, c, t in map(_principal_colons, (info.left, info.right)))
        classes = [(c1[a], c2[b]) for a, b in map(info.decode, gens)]
        table = tuple(tuple(inv[t1[p1][j1], t2[p2][j2]] for j1, j2 in classes)
                      for p1, p2 in comp[:-1])
    elif R.order <= 256:
        rows = [bytes(R.mul_table[g]) for g in gens]
        table = tuple(
            tuple(pos(int(row.translate(tab)[::-1], 2)) for row in rows)
            for tab in (format(I.mask, "0256b")[::-1].encode() for I in proper))
    else:
        rows = [R.mul_table[g] for g in gens]
        table = tuple(tuple(map(pos, _colon_rows(rows, I.mask))) for I in proper)
    return gens, cls, table


def _element_colons(R: FiniteRing, im: int) -> list[int]:
    """For each element x, the mask of (I : x) for the ideal mask im, read
    off the principal-colon table at table[pos(I)][cls[x]]. Every colon is
    the unit ideal when I is. Not cached: one list per call."""
    if im == (1 << R.order) - 1:
        return [im] * R.order
    _, cls, table = _principal_colons(R)
    lattice = R.ideals()
    masks = [lattice[k].mask for k in table[R.lattice_position(im)]]
    return [masks[j] for j in cls]


def principal_generator(I: Ideal) -> Optional[int]:
    """The smallest x with (x) = I, or None when I is not principal."""
    return _principal_table(I.ring).get(I.mask)


def is_principal(I: Ideal) -> bool:
    return principal_generator(I) is not None


def generator_list(I: Ideal) -> tuple[int, ...]:
    """A small generating set, chosen greedily: each next generator x is
    the smallest member outside the ideal spanned so far, whose sum with (x)
    is their join, the lowest bit of the AND of their UP sets.

    Principal ideals come back as their single smallest generator, and the
    zero ideal as (zero,), so the result is never empty and always re-spans
    the ideal.
    """
    g = principal_generator(I)
    if g is not None:
        return (g,)
    R = I.ring
    R.lattice_position(I.mask)  # raises on a mask that is not an ideal
    lattice, up, pos, pm = R.ideals(), _up_sets(R), R._lattice_positions(), _principal_masks(R)
    gens, current, rest = [], 0, I.mask  # current starts at the zero ideal's position
    while rest := rest & ~lattice[current].mask:
        gens.append(_lsb(rest))
        current = _lsb(up[current] & up[pos[pm[gens[-1]]]])
    return tuple(gens)


# ----------------------------------------------------------------------
# lattice arithmetic


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    return I + J


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    """The ideal spanned by the products g*h of generators g of I and h of J."""
    if J.ring is not I.ring:
        raise RingMismatchError("ideals belong to different rings")
    R = I.ring
    mul = R.mul_table
    return span(R, [mul[g][h] for g in generator_list(I) for h in generator_list(J)])


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    return I & J


def colon(I: Ideal, d: Union[int, Element]) -> Ideal:
    """The element colon (I : d) = {x : d*x lies in I}."""
    return Ideal(I.ring, _element_colons(I.ring, I.mask)[_element_index(I.ring, d)])


def ideal_colon(I: Ideal, J: Ideal) -> Ideal:
    """The ideal colon (I : J) = {x : x*J lies in I}: x*J lies in I exactly
    when x*g does for each generator g of J, so (I : J) is the meet of the
    element colons (I : g)."""
    if J.ring is not I.ring:
        raise RingMismatchError("ideals belong to different rings")
    colons = _element_colons(I.ring, I.mask)
    return Ideal(I.ring, reduce(and_, [colons[g] for g in generator_list(J)]))


def radical(I: Ideal) -> Ideal:
    """The radical, read off ``_radical_positions`` at I's lattice position."""
    R = I.ring
    return R.ideals()[_radical_positions(R)[R.lattice_position(I.mask)]]


def _join_column(R: FiniteRing, q: int) -> tuple[int, ...]:
    """The position of I_p + I_q for each lattice position p: the lowest in
    UP[p] & UP[q], since every ideal above both contains the sum and the
    canonical order extends inclusion. Not cached: readers keep theirs."""
    up = _up_sets(R)
    uq = up[q]
    return tuple(_lsb(u & uq) for u in up)


@_per_ring("radical_positions")
def _radical_positions(R: FiniteRing) -> tuple[int, ...]:
    """For each lattice position, the position of its radical.

    The radical is the meet of the primes above I, every prime of a finite
    commutative ring is maximal, and such a ring is a product of local
    rings, so rad(I) = I + Jac(R) (see ``expansions.standard_expansions``)
    with Jac(R) the meet of all maximal ideals: the join column at Jac(R).
    The unit ideal lies in no maximal ideal and is its own radical.
    """
    jac = reduce(and_, [M.mask for M in R.maximal_ideals()], (1 << R.order) - 1)
    return _join_column(R, R.lattice_position(jac))


@_per_ring("jacobson_square")
def _jacobson_square(R: FiniteRing) -> int:
    """The lattice position of Jac(R)^2: the join of g*Jac(R) over the
    generators g of Jac(R), each read off the scaling table. On a local ring
    Jac(R) is the maximal ideal M, so this is also M^2."""
    from .expansions import _scaling_table  # which imports this module

    j, rows, up = _radical_positions(R)[0], _scaling_table(R), _up_sets(R)
    return _lsb(reduce(and_, [up[rows[g][j]] for g in generator_list(R.ideals()[j])]))


def scale(x: Union[int, Element], I: Ideal) -> Ideal:
    """The ideal x*I = {x*i : i in I}."""
    R = I.ring
    row = R.mul_table[_element_index(R, x)]
    mask = 0
    m = I.mask
    for a in range(R.order):
        if (m >> a) & 1:
            mask |= 1 << row[a]
    return Ideal(R, mask)


# ----------------------------------------------------------------------
# classical predicates, each with a lexicographically minimal witness


@cache
def _predicates():
    """The ``predicates`` module, whose table of checks decides the checks
    below. It imports this module, so it is reached at call time."""
    from . import predicates

    return predicates


def _lsb(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _bits(mask: int):
    """The positions of the set bits of ``mask``, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _require_proper(I: Ideal, what: str) -> None:
    if not I.is_proper:
        raise ProperIdealError(f"{what} needs a proper ideal")


def _pair_kernel(
    R: FiniteRing, im: int, dm: int, skip: int
) -> tuple[bool, Optional[tuple[int, int]]]:
    """a*b in the ideal mask im forces a in skip or b in dm.

    With skip = im this is the pair-primary scan, with skip = dm the
    pair-semiprimary one. (I : a) holds every b with a*b in I, so the first
    a outside skip whose colon leaves dm gives the minimal witness.
    """
    cm = _element_colons(R, im)
    notdm = ~dm
    for a in range(R.order):
        if (skip >> a) & 1:
            continue
        bad = cm[a] & notdm
        if bad:
            return False, (a, _lsb(bad))
    return True, None


# ----------------------------------------------------------------------
# pass sets (see ``predicates``): bit q of a proper ideal I's pass set is set
# when the check holds at I with the ideal at lattice position q as its
# bound. Only the bits of bounds that contain I are read.


def _bounds_containing(R: FiniteRing, mask: int) -> int:
    """The lattice positions of the ideals that contain ``mask``."""
    return sum(1 << q for q, J in enumerate(R.ideals()) if not mask & ~J.mask)


@_per_ring("up_sets")
def _up_sets(R: FiniteRing) -> tuple[int, ...]:
    """UP[q], the positions of the ideals that contain I_q, for each lattice
    position q. On a product, I1 x I2 lies in J1 x J2 exactly when I1 lies
    in J1 and I2 in J2, so UP is UP1 x UP2: the positions whose first
    coordinate is in UP1[p1], ANDed with those whose second is in UP2[p2]."""
    info = _factors(R)
    if info is None:
        return tuple(_bounds_containing(R, I.mask) for I in R.ideals())
    comp, _ = constructions._correspondence(R)
    above = []
    for k, F in enumerate((info.left, info.right)):
        at = [0] * len(F.ideals())  # the positions with coordinate k at each p
        for q, pq in enumerate(comp):
            at[pq[k]] |= 1 << q
        above.append([sum(at[r] for r in _bits(u)) for u in _up_sets(F)])
    return tuple(above[0][p] & above[1][q] for p, q in comp)


@_per_ring("colon_up_sets")
def _colon_up_sets(R: FiniteRing) -> tuple[int, ...]:
    """UP with the unit ideal's entry set to every position. (I : x) is the
    unit ideal exactly when x lies in I, so an AND of these entries over
    colon positions skips the x inside I with no test."""
    up = _up_sets(R)
    return up[:-1] + ((1 << len(up)) - 1,)


@_per_ring("primary_pass")
def _primary_pass_sets(R: FiniteRing) -> tuple[int, ...]:
    """{J : V_I inside J} for each proper ideal I, in lattice order.

    V_I is the set of zero-divisors modulo I: the b with a*b in I for some
    a outside I, that is, the union of the colons (I : a) over a outside I.
    Hence "a*b in I forces a in I or b in m" holds exactly when V_I lies
    inside m: prime at m = I, primary at m = rad(I), delta-primary at
    m = delta(I). The pass set is the AND of UP[(I : a)] over a outside I,
    and (I : a) = (I : (a)), so one generator per principal ideal is
    enough: one row of ``_principal_colons``.
    """
    up = _colon_up_sets(R)
    return tuple(reduce(and_, {up[k] for k in row}) for row in _principal_colons(R)[2])


def prime_check(I: Ideal) -> tuple[bool, Optional[tuple[int, int]]]:
    """a*b in I forces a in I or b in I: the pair-primary test at I itself."""
    return _predicates()._check("prime", I)


def is_prime(I: Ideal) -> bool:
    return prime_check(I)[0]


@_per_ring("maximal_pass")
def _maximal_pass_sets(R: FiniteRing) -> tuple[int, ...]:
    """Every bound for a maximal ideal and none for the others. A proper
    ideal is maximal when the unit ideal is the only other ideal above it."""
    up = _up_sets(R)
    top = len(up) - 1
    return tuple((1 << len(up)) - 1 if up[p] == 1 << p | 1 << top else 0 for p in range(top))


def _larger_ideal(R: FiniteRing, im: int, _bound: int) -> tuple[bool, Optional[Ideal]]:
    """The first proper ideal strictly above the ideal mask im."""
    for J in R.proper_ideals():
        if not im & ~J.mask and J.mask != im:
            return False, J
    return True, None


def maximal_check(I: Ideal) -> tuple[bool, Optional[Ideal]]:
    """No proper ideal strictly between I and the ring; the witness is the
    first proper ideal strictly above I."""
    return _predicates()._check("maximal", I)


def is_maximal(I: Ideal) -> bool:
    return maximal_check(I)[0]


def primary_check(I: Ideal) -> tuple[bool, Optional[tuple[int, int]]]:
    """a*b in I forces a in I or b in the radical: the pair-primary test at
    rad(I)."""
    return _predicates()._check("primary", I)


def is_primary(I: Ideal) -> bool:
    return primary_check(I)[0]


def is_radical_ideal(I: Ideal) -> bool:
    return radical(I).mask == I.mask


def is_prime_element(R: FiniteRing, x: Union[int, Element]) -> bool:
    """Nonzero x whose principal ideal is proper and prime. (x) is proper
    exactly when x is a nonunit; it is prime when bit (x) of the "prime"
    verdict vector is set."""
    x = _element_index(R, x)
    if x == R.zero or x in R.units():
        return False
    prime = _predicates()._verdicts("prime", R)
    return bool(prime >> R.lattice_position(_principal_masks(R)[x]) & 1)


# ``constructions`` imports this module, so this module imports it last: the
# product branches above read it at call time, when it is complete.
from . import constructions  # noqa: E402
