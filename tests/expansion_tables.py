"""Every expansion of a small ring, and a catalog whose bases carry them all.

Every stock expansion is a translation I -> I + J, and the constructions
carry translations to translations, so on the stock catalog the transfer
statements never meet an expansion where their hypotheses can fail. The
catalog built here gives each base entry every extensive monotone table on
its ring's lattice, so those hypotheses are tested where they can fail.
Used by the Tier-1 tests.
"""

from __future__ import annotations

from ringlab.catalog import Catalog, CatalogEntry
from ringlab.expansions import ExpansionFunction


def all_expansion_tables(R):
    """Every extensive monotone table on R's lattice, by backtracking."""
    masks = [I.mask for I in R.ideals()]

    def extend(table):
        p = len(table)
        if p == len(masks):
            yield tuple(table)
            return
        for q in range(p, len(masks)):
            if not masks[p] & ~masks[q] and all(
                    not masks[table[r]] & ~masks[q] for r in range(p) if not masks[r] & ~masks[p]):
                yield from extend(table + [q])

    return extend([])


def entry_expansions(catalog: Catalog) -> dict:
    """Each ring of the catalog, by id, to the expansions of its entry: the
    sources that the transfer sweeps read."""
    return {id(e.ring): e.expansions for e in catalog}


def with_every_expansion(catalog: Catalog) -> Catalog:
    """The catalog with each base entry carrying, after its stock
    expansions, every other extensive monotone table on its ring, labelled
    ``t0``, ``t1``, ... in table order. Constructed entries keep theirs."""
    entries = []
    for entry in catalog:
        expansions = entry.expansions
        if entry.ring.construction is None:
            stock = {d.table for d in expansions}
            more = [t for t in all_expansion_tables(entry.ring) if t not in stock]
            expansions += tuple(ExpansionFunction(entry.ring, t, f"t{k}") for k, t in enumerate(more))
        entries.append(CatalogEntry(entry.ring, entry.provenance, expansions))
    return Catalog(tuple(entries))
