"""Deterministic corpus of small rings, each paired with validated expansions.

The catalog is the sweep domain for the statement suite: base rings Z_n,
Galois fields, chained polynomial quotients, then products, quotients,
trivial extensions and localizations built from the bases. Every entry
carries a provenance string that re-parses to a ring with identical tables.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .constructions import (
    MultiplicativeSet,
    localize,
    make_product,
    make_quotient,
    make_trivial_extension,
    quotient_module,
    regular_module,
)
from .errors import ConstructionError, InvariantError, RingMismatchError
from .expansions import ExpansionFunction, standard_expansions
from .rings import FiniteRing, _Record, make_galois_field, make_poly_quotient, make_zn

_PRIME_POWERS = ((2, 2), (2, 3), (3, 2), (2, 4))  # (p, k) with k >= 2, ordered by p**k


class CatalogConfig(_Record):
    """The three order budgets of a catalog. ``max_order`` bounds the base
    rings (``check --max-order``); ``product_order_limit`` and
    ``trivial_extension_limit`` bound the orders of products and trivial
    extensions. The defaults are the default tier: 190 rings of order at
    most 64, with 995 expansions."""

    __slots__ = ("max_order", "product_order_limit", "trivial_extension_limit")

    def __init__(self, max_order: int = 16, product_order_limit: int = 36,
                 trivial_extension_limit: int = 64) -> None:
        super().__init__(max_order, product_order_limit, trivial_extension_limit)


class CatalogEntry(_Record):
    """One ring with its provenance string and the expansions that every
    sweep reads for it, on the ring itself and as the source of the rings
    built from it. ``build_catalog`` attaches ``standard_expansions(ring)``
    itself; an expansion of another ring raises ``RingMismatchError``."""

    __slots__ = ("ring", "provenance", "expansions")

    def __init__(self, ring: FiniteRing, provenance: str,
                 expansions: tuple[ExpansionFunction, ...]) -> None:
        if any(d.ring is not ring for d in expansions):
            raise RingMismatchError(f"an expansion of entry {provenance} lives on another ring")
        super().__init__(ring, provenance, expansions)


class Catalog(_Record):
    __slots__ = ("entries",)

    def __init__(self, entries: tuple[CatalogEntry, ...]) -> None:
        super().__init__(entries)

    def __iter__(self) -> Iterator[CatalogEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def base_rings(config: CatalogConfig) -> tuple[FiniteRing, ...]:
    """The base layer: Z_n, fields F_{p^k}, and chained Z_p[x]/(x^k)."""
    out = [make_zn(n) for n in range(2, config.max_order + 1)]
    prime_powers = [(p, k) for p, k in _PRIME_POWERS if p**k <= config.max_order]
    out.extend(make_galois_field(p, k) for p, k in prime_powers)
    # x^k as a low-to-high coefficient list
    out.extend(make_poly_quotient(p, [0] * k + [1]) for p, k in prime_powers)
    return tuple(out)


def _localization_sets(R: FiniteRing) -> list[MultiplicativeSet]:
    """Closures of single elements plus prime complements, closed as they
    stand, deduped.

    Sets of units only are skipped: they localize to a copy of the ring.
    """
    units = R.units()
    found: list[MultiplicativeSet] = []
    seen: set[frozenset[int]] = set()

    def consider(S: MultiplicativeSet) -> None:
        if S.members in seen or S.members <= units:
            return
        seen.add(S.members)
        found.append(S)

    for x in range(R.order):
        if x == R.zero:
            continue
        try:
            consider(MultiplicativeSet.from_generators(R, (x,)))
        except ConstructionError:
            continue
    for P in R.spectrum():
        complement = frozenset(range(R.order)) - P.members
        consider(MultiplicativeSet._built(R, complement, tuple(sorted(complement))))
    return found


@lru_cache(maxsize=8)
def build_catalog(config: CatalogConfig = CatalogConfig()) -> Catalog:
    """Build the full deterministic catalog for a config.

    Entries appear in generation order: bases, products, quotients,
    trivial extensions, localizations. Repeated calls with an equal
    config return the same object.

    Each entry carries the stock expansions of its ring and nothing
    induced: every stock expansion is a translation I -> I + J, and the
    constructions carry translations to translations, so an expansion
    induced from a parent's stock ones has a stock table already (see the
    ``expansions`` module). The transfer sweeps induce what they test.
    """
    if config.max_order < 2:
        raise ConstructionError("max_order must be at least 2")
    bases = base_rings(config)
    rings: list[FiniteRing] = list(bases)
    for i, R1 in enumerate(bases):
        for R2 in bases[i:]:
            if R1.order * R2.order <= config.product_order_limit:
                rings.append(make_product(R1, R2))
    for R in bases:
        for I in R.proper_ideals():
            if I.num_elements > 1:
                rings.append(make_quotient(R, I))
    for A in bases:
        if A.order * A.order <= config.trivial_extension_limit:
            rings.append(make_trivial_extension(A, regular_module(A)))
        for J in A.proper_ideals():
            if J.num_elements > 1:
                carrier = A.order * (A.order // J.num_elements)
                if carrier <= config.trivial_extension_limit:
                    rings.append(make_trivial_extension(A, quotient_module(A, J)))
    for R in bases:
        for S in _localization_sets(R):
            rings.append(localize(R, S).ring)

    labels = [R.label for R in rings]
    if len(set(labels)) != len(labels):
        raise InvariantError("catalog provenance strings must be unique")
    entries = tuple(CatalogEntry(R, R.label, standard_expansions(R)) for R in rings)
    return Catalog(entries)
