"""Ideals of a finite ring as bitmask subsets, plus the full ideal lattice.

An ideal is identified by its ring and a bitmask over element indices.
In a commutative ring with 1 the principal ideal (x) is the image of row x
of the multiplication table, so the principal ideals are read off the
table once per ring (``_principal_masks``) and every other ideal is a sum
of them. The lattice of all ideals is enumerated once per ring and kept in
a canonical order: by cardinality, then by bitset value. Witnesses reported
by the predicates are lexicographically minimal in element-index order.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from .errors import InvariantError, ProperIdealError, RingMismatchError
from .rings import Element, FiniteRing


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

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self._card, self.mask)

    def __contains__(self, a: Union[int, Element]) -> bool:
        if isinstance(a, Element):
            if a.ring is not self.ring:
                raise RingMismatchError("element belongs to a different ring")
            a = a.index
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


def _principal_masks(R: FiniteRing) -> tuple[int, ...]:
    """For each element x, the mask of the principal ideal (x).

    The image {x*r : r in R} of row x of the multiplication table already is
    (x): it holds x = x*1, and x*r + x*s = x*(r+s) and s*(x*r) = x*(s*r)
    keep it closed. Computed once per ring and cached as one tuple.
    """
    pm = R.cache.get("principal_masks")
    if pm is None:
        pm = tuple(sum(1 << v for v in set(row)) for row in R.mul_table)
        R.cache["principal_masks"] = pm
    return pm


def span(R: FiniteRing, generators: Iterable[Union[int, Element]]) -> Ideal:
    """The smallest ideal containing the given elements: the sum of their
    principal ideals."""
    pm = _principal_masks(R)
    mask = 1 << R.zero
    for g in generators:
        if isinstance(g, Element):
            if g.ring is not R:
                raise RingMismatchError("generator belongs to a different ring")
            g = g.index
        if not (0 <= g < R.order):
            raise ValueError(f"generator {g} out of range for {R.label}")
        mask = _sum_masks(R, mask, pm[g])
    return Ideal(R, mask)


def _sum_masks(R: FiniteRing, m1: int, m2: int) -> int:
    """The mask of I + J for ideal masks m1 and m2.

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


def all_ideals(R: FiniteRing) -> tuple[Ideal, ...]:
    """Every ideal of R, in canonical order (cardinality, then bitset value).

    Principal ideals are the row images of ``_principal_masks`` and the rest
    are produced by closing under pairwise sums, which reaches every ideal
    because each one is a finite sum of principal ideals.
    """
    pr = list(_principal_table(R))
    masks = set(pr)
    queue = list(pr)
    while queue:
        m = queue.pop()
        for p in pr:
            s = _sum_masks(R, m, p)
            if s not in masks:
                masks.add(s)
                queue.append(s)
    ordered = sorted(masks, key=lambda m: (m.bit_count(), m))
    return tuple(Ideal(R, m) for m in ordered)


def _principal_table(R: FiniteRing) -> dict[int, int]:
    """Each principal ideal's mask, mapped to its smallest generator."""
    table = R.cache.get("principal_gen")
    if table is None:
        table = {}
        for x, m in enumerate(_principal_masks(R)):
            table.setdefault(m, x)
        R.cache["principal_gen"] = table
    return table


def principal_generator(I: Ideal) -> Optional[int]:
    """The smallest x with (x) = I, or None when I is not principal."""
    return _principal_table(I.ring).get(I.mask)


def is_principal(I: Ideal) -> bool:
    return principal_generator(I) is not None


def generator_list(I: Ideal) -> tuple[int, ...]:
    """A small generating set, chosen greedily over ascending indices.

    Principal ideals come back as their single smallest generator, and the
    zero ideal as (zero,), so the result is never empty and always re-spans
    the ideal.
    """
    g = principal_generator(I)
    if g is not None:
        return (g,)
    R = I.ring
    pm = _principal_masks(R)
    gens: list[int] = []
    current = 1 << R.zero
    for x in I.members_sorted:
        if (current >> x) & 1:
            continue
        gens.append(x)
        current = _sum_masks(R, current, pm[x])
        if current == I.mask:
            break
    return tuple(gens) if gens else (R.zero,)


# ----------------------------------------------------------------------
# lattice arithmetic


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    return I + J


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    """The ideal generated by pairwise products, via additive closure."""
    if J.ring is not I.ring:
        raise RingMismatchError("ideals belong to different rings")
    R = I.ring
    mul, add = R.mul_table, R.add_table
    amembers = I.members_sorted
    prods = 0
    for a in amembers:
        row = mul[a]
        for b in range(R.order):
            if (J.mask >> b) & 1:
                prods |= 1 << row[b]
    mask = 1 << R.zero
    members = [R.zero]
    stack = [v for v in range(R.order) if (prods >> v) & 1]
    while stack:
        e = stack.pop()
        if (mask >> e) & 1:
            continue
        mask |= 1 << e
        arow = add[e]
        for m in members:
            v = arow[m]
            if not (mask >> v) & 1:
                stack.append(v)
        members.append(e)
    return Ideal(R, mask)


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    return I & J


def colon(I: Ideal, d: Union[int, Element]) -> Ideal:
    """The element colon (I : d) = {x : d*x lies in I}."""
    if isinstance(d, Element):
        if d.ring is not I.ring:
            raise RingMismatchError("element belongs to a different ring")
        d = d.index
    return Ideal(I.ring, I.ring.colon_masks(I.mask)[d])


def ideal_colon(I: Ideal, J: Ideal) -> Ideal:
    """The ideal colon (I : J) = {x : x*J lies in I}."""
    if J.ring is not I.ring:
        raise RingMismatchError("ideals belong to different rings")
    rows = I.ring.colon_masks(I.mask)
    mask = (1 << I.ring.order) - 1
    for g in J.members_sorted:
        mask &= rows[g]
    return Ideal(I.ring, mask)


def radical(I: Ideal) -> Ideal:
    """The radical, by scanning powers with exponent up to the ring order."""
    R = I.ring
    cache = R.cache.setdefault("radical", {})
    got = cache.get(I.mask)
    if got is not None:
        return Ideal(R, got)
    n = R.order
    mul = R.mul_table
    im = I.mask
    mask = 0
    for x in range(n):
        p = x
        for _ in range(n):
            if (im >> p) & 1:
                mask |= 1 << x
                break
            p = mul[p][x]
    if not is_ideal_mask(R, mask):
        raise InvariantError(f"radical of {I!r} failed the ideal scan")
    cache[I.mask] = mask
    return Ideal(R, mask)


def scale(x: Union[int, Element], I: Ideal) -> Ideal:
    """The ideal x*I = {x*i : i in I}."""
    R = I.ring
    if isinstance(x, Element):
        if x.ring is not R:
            raise RingMismatchError("element belongs to a different ring")
        x = x.index
    row = R.mul_table[x]
    mask = 0
    m = I.mask
    for a in range(R.order):
        if (m >> a) & 1:
            mask |= 1 << row[a]
    return Ideal(R, mask)


# ----------------------------------------------------------------------
# classical predicates, each with a lexicographically minimal witness


def _lsb(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _require_proper(I: Ideal, what: str) -> None:
    if not I.is_proper:
        raise ProperIdealError(f"{what} needs a proper ideal")


def _pair_kernel(
    R: FiniteRing, im: int, dm: int, skip: int
) -> tuple[bool, Optional[tuple[int, int]]]:
    """a*b in the ideal mask im forces a in skip or b in dm.

    With skip = im this is the pair-primary kernel, with skip = dm the
    pair-semiprimary one. Row a of the colon table holds every b with a*b
    in I, so the first a outside skip whose row leaves dm gives the minimal
    witness.
    """
    cm = R.colon_masks(im)
    notdm = ~dm
    for a in range(R.order):
        if (skip >> a) & 1:
            continue
        bad = cm[a] & notdm
        if bad:
            return False, (a, _lsb(bad))
    return True, None


def prime_check(I: Ideal) -> tuple[bool, Optional[tuple[int, int]]]:
    """a*b in I forces a in I or b in I: the pair-primary kernel at I itself."""
    _require_proper(I, "is_prime")
    return _pair_kernel(I.ring, I.mask, I.mask, I.mask)


def is_prime(I: Ideal) -> bool:
    return prime_check(I)[0]


def maximal_check(I: Ideal) -> tuple[bool, Optional[Ideal]]:
    """Lattice scan: no proper ideal strictly between I and the ring."""
    _require_proper(I, "is_maximal")
    for J in I.ring.ideals():
        if J.num_elements <= I.num_elements or not J.is_proper:
            continue
        if not (I.mask & ~J.mask) and J.mask != I.mask:
            return False, J
    return True, None


def is_maximal(I: Ideal) -> bool:
    return maximal_check(I)[0]


def primary_check(I: Ideal) -> tuple[bool, Optional[tuple[int, int]]]:
    """a*b in I forces a in I or b in the radical: the pair-primary kernel
    at rad(I)."""
    _require_proper(I, "is_primary")
    return _pair_kernel(I.ring, I.mask, radical(I).mask, I.mask)


def is_primary(I: Ideal) -> bool:
    return primary_check(I)[0]


def is_radical_ideal(I: Ideal) -> bool:
    return radical(I).mask == I.mask


def is_prime_element(R: FiniteRing, x: Union[int, Element]) -> bool:
    """Nonzero x whose principal ideal is proper and prime."""
    if isinstance(x, Element):
        if x.ring is not R:
            raise RingMismatchError("element belongs to a different ring")
        x = x.index
    if x == R.zero:
        return False
    P = Ideal(R, _principal_masks(R)[x])
    return P.is_proper and is_prime(P)
