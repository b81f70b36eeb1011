"""Deterministic corpus of small rings, each paired with validated expansions.

The catalog is the sweep domain for the statement suite: base rings Z_n,
Galois fields, chained polynomial quotients, then products, quotients,
trivial extensions and localizations built from the bases. Every entry
carries a provenance string that re-parses to a ring with identical tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Optional

from .constructions import (
    MultiplicativeSet,
    localize,
    make_product,
    make_quotient,
    make_trivial_extension,
    quotient_module,
    regular_module,
)
from .errors import ConstructionError, InvariantError
from .expansions import ExpansionFunction, standard_expansions
from .rings import FiniteRing, make_galois_field, make_poly_quotient, make_zn

_PRIME_POWERS = ((2, 2), (2, 3), (3, 2), (2, 4))  # (p, k) with k >= 2, ordered by p**k


@dataclass(frozen=True)
class CatalogConfig:
    """Generation knobs. The defaults are the default tier: 190 rings of
    order at most 64, with 995 expansions."""

    max_order: int = 16
    families: tuple[str, ...] = ("zn", "galois", "chained")
    include_products: bool = True
    include_quotients: bool = True
    include_trivial_extensions: bool = True
    include_localizations: bool = True
    product_order_limit: int = 36
    trivial_extension_limit: int = 64
    max_entries: Optional[int] = None


@dataclass(frozen=True)
class CatalogEntry:
    """One ring with its provenance string and its stock expansions, the
    tuple ``standard_expansions(ring)`` itself."""

    ring: FiniteRing
    provenance: str
    expansions: tuple[ExpansionFunction, ...]


@dataclass(frozen=True)
class Catalog:
    entries: tuple[CatalogEntry, ...]
    notices: tuple[str, ...] = field(default_factory=tuple)

    def __iter__(self) -> Iterator[CatalogEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def base_rings(config: CatalogConfig) -> tuple[FiniteRing, ...]:
    """The base layer: Z_n, fields F_{p^k}, and chained Z_p[x]/(x^k)."""
    out: list[FiniteRing] = []
    if "zn" in config.families:
        for n in range(2, config.max_order + 1):
            out.append(make_zn(n))
    if "galois" in config.families:
        for p, k in sorted(_PRIME_POWERS, key=lambda pk: pk[0] ** pk[1]):
            if p**k <= config.max_order:
                out.append(make_galois_field(p, k))
    if "chained" in config.families:
        for p, k in sorted(_PRIME_POWERS, key=lambda pk: pk[0] ** pk[1]):
            if p**k <= config.max_order:
                # x^k as a low-to-high coefficient list
                out.append(make_poly_quotient(p, [0] * k + [1]))
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
    notices: list[str] = []

    if config.include_products:
        for i, R1 in enumerate(bases):
            for R2 in bases[i:]:
                if R1.order * R2.order <= config.product_order_limit:
                    rings.append(make_product(R1, R2))
    if config.include_quotients:
        for R in bases:
            for I in R.proper_ideals():
                if I.num_elements > 1:
                    rings.append(make_quotient(R, I))
    if config.include_trivial_extensions:
        for A in bases:
            if A.order * A.order <= config.trivial_extension_limit:
                rings.append(make_trivial_extension(A, regular_module(A)))
            for J in A.proper_ideals():
                if J.num_elements > 1:
                    carrier = A.order * (A.order // J.num_elements)
                    if carrier <= config.trivial_extension_limit:
                        rings.append(make_trivial_extension(A, quotient_module(A, J)))
    if config.include_localizations:
        for R in bases:
            for S in _localization_sets(R):
                rings.append(localize(R, S).ring)

    if config.max_entries is not None and len(rings) > config.max_entries:
        notices.append(
            f"catalog truncated to {config.max_entries} of {len(rings)} candidate entries"
        )
        rings = rings[: config.max_entries]

    labels = [R.label for R in rings]
    if len(set(labels)) != len(labels):
        raise InvariantError("catalog provenance strings must be unique")
    entries = tuple(CatalogEntry(R, R.label, standard_expansions(R)) for R in rings)
    return Catalog(entries, tuple(notices))
