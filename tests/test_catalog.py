"""Catalog generation: composition, determinism, dedup, and config knobs."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from ringlab.catalog import CatalogConfig, CatalogEntry, base_rings, build_catalog
from ringlab.constructions import LocalizationOf, ProductOf, QuotientOf, TrivialExtensionOf
from ringlab.errors import ConstructionError, RingMismatchError
from ringlab.expansions import identity_expansion, standard_expansions
from ringlab.rings import make_zn
from ringlab.specparse import parse_ring


def test_base_rings_max_order_8():
    config = CatalogConfig(max_order=8)
    labels = [R.label for R in base_rings(config)]
    assert labels == [
        "Z2",
        "Z3",
        "Z4",
        "Z5",
        "Z6",
        "Z7",
        "Z8",
        "Z2[x]/(x^2+x+1)",
        "Z2[x]/(x^3+x+1)",
        "Z2[x]/(x^2)",
        "Z2[x]/(x^3)",
    ]


def test_catalog_composition_16(catalog16):
    by_kind = {"base": 0, "product": 0, "quotient": 0, "triv": 0, "loc": 0}
    for entry in catalog16:
        c = entry.ring.construction
        if c is None:
            by_kind["base"] += 1
        elif isinstance(c, ProductOf):
            by_kind["product"] += 1
        elif isinstance(c, QuotientOf):
            by_kind["quotient"] += 1
        elif isinstance(c, TrivialExtensionOf):
            by_kind["triv"] += 1
        elif isinstance(c, LocalizationOf):
            by_kind["loc"] += 1
    assert by_kind == {"base": 23, "product": 76, "quotient": 26, "triv": 32, "loc": 33}
    assert len(catalog16) == 190


def test_provenance_unique_and_parseable(catalog16):
    seen = set()
    for entry in catalog16:
        assert entry.provenance == entry.ring.label
        assert entry.provenance not in seen
        seen.add(entry.provenance)
    # spot-check a few labels reparse to the same order
    for entry in list(catalog16)[::23]:
        assert parse_ring(entry.provenance).order == entry.ring.order


def test_expansions_deduped(catalog16):
    total = 0
    for entry in catalog16:
        tables = [d.table for d in entry.expansions]
        assert len(tables) == len(set(tables)), entry.provenance
        assert all(d.ring is entry.ring for d in entry.expansions)
        total += len(tables)
    assert total == 995


def test_catalog_is_memoized():
    a = build_catalog(CatalogConfig(max_order=16))
    b = build_catalog(CatalogConfig(max_order=16))
    assert a is b


def test_catalog_deterministic_order(catalog16):
    labels = [e.provenance for e in catalog16]
    rebuilt = build_catalog(CatalogConfig(max_order=16))
    assert [e.provenance for e in rebuilt] == labels


def test_product_order_limit():
    config = CatalogConfig(max_order=16, product_order_limit=16)
    cat = build_catalog(config)
    for entry in cat:
        if isinstance(entry.ring.construction, ProductOf):
            assert entry.ring.order <= 16


def test_trivial_extension_limit(catalog16):
    cat = build_catalog(CatalogConfig(max_order=16, trivial_extension_limit=16))
    kept = [e.ring.order for e in cat if isinstance(e.ring.construction, TrivialExtensionOf)]
    stock = [e.ring.order for e in catalog16 if isinstance(e.ring.construction, TrivialExtensionOf)]
    assert kept and all(order <= 16 for order in kept)
    assert len(kept) < len(stock)
    assert len(cat) - len(kept) == len(catalog16) - len(stock)


def test_config_is_the_three_order_budgets():
    assert CatalogConfig.__slots__ == ("max_order", "product_order_limit", "trivial_extension_limit")


def test_config_is_an_immutable_value():
    """Defaults, keywords and repr; equal configs are equal, hash alike and
    so share one ``build_catalog`` object; no field can be assigned."""
    default = CatalogConfig()
    assert (default.max_order, default.product_order_limit, default.trivial_extension_limit) == (16, 36, 64)
    config = CatalogConfig(max_order=3, trivial_extension_limit=16)
    assert (config.max_order, config.product_order_limit, config.trivial_extension_limit) == (3, 36, 16)
    assert repr(config) == "CatalogConfig(max_order=3, product_order_limit=36, trivial_extension_limit=16)"
    same = CatalogConfig(3, 36, 16)
    assert same == config and hash(same) == hash(config) and same is not config
    assert config != CatalogConfig(max_order=3) and config != (3, 36, 16)
    assert build_catalog(same) is build_catalog(config)
    with pytest.raises(AttributeError):
        config.max_order = 4
    with pytest.raises(AttributeError):
        del config.max_order
    with pytest.raises(AttributeError):
        config.families = ()
    assert config.max_order == 3


def test_rejects_tiny_max_order():
    with pytest.raises(ConstructionError):
        build_catalog(CatalogConfig(max_order=1))


def test_entries_expose_ring_and_expansions(catalog8):
    entry = next(iter(catalog8))
    assert isinstance(entry, CatalogEntry)
    assert entry.ring.order >= 2
    assert entry.expansions
    labels = [d.label for d in entry.expansions]
    assert labels[0] == "id"


def test_an_entry_rejects_expansions_of_another_ring():
    """Z8 with Z9's stock expansions, or with one expansion of a twin of Z8
    that has equal tables, is refused when the entry is built, before any
    sweep reads the expansions at Z8's lattice positions."""
    z8, z9, twin = make_zn(8), make_zn(9), make_zn(8)
    for expansions in (standard_expansions(z9), (identity_expansion(z8), identity_expansion(twin))):
        with pytest.raises(RingMismatchError, match="^an expansion of entry Z8 lives on another ring$"):
            CatalogEntry(z8, "Z8", expansions)
    assert CatalogEntry(z8, "Z8", ()).expansions == ()
    assert CatalogEntry(z8, "Z8", standard_expansions(z8)).expansions == standard_expansions(z8)


def test_quotients_skip_trivial(catalog16):
    for entry in catalog16:
        c = entry.ring.construction
        if isinstance(c, QuotientOf):
            # never by (0) and never by the whole ring
            assert c.ideal_mask != 1
            assert entry.ring.order > 1


def test_localizations_nontrivial(catalog16):
    # localizing at a set of units is the identity map and is skipped
    for entry in catalog16:
        c = entry.ring.construction
        if isinstance(c, LocalizationOf):
            assert any(not c.parent.is_unit(s) for s in c.set_members), entry.provenance


DIGEST_GOLDEN = Path(__file__).resolve().parent / "golden" / "catalog-digest.json"


def entry_digest(entry: CatalogEntry) -> str:
    """SHA-256 of everything an entry keeps: provenance, both tables, element
    names, zero, one, and each expansion's label and table, in order."""
    R = entry.ring
    kept = (
        entry.provenance,
        R.add_table,
        R.mul_table,
        R.element_names,
        R.zero,
        R.one,
        tuple((d.label, d.table) for d in entry.expansions),
    )
    return hashlib.sha256(repr(kept).encode()).hexdigest()


def catalog_digests(catalog) -> list[list[str]]:
    return [[e.provenance, entry_digest(e)] for e in catalog]


def test_catalog_digests_match_the_golden(catalog16, catalog_enlarged):
    """Every entry of both tiers, byte for byte, against the recorded digests:
    the catalog a build keeps does not depend on how it was built."""
    golden = json.loads(DIGEST_GOLDEN.read_text(encoding="utf-8"))
    assert catalog_digests(catalog16) == golden["default"]
    assert catalog_digests(catalog_enlarged) == golden["enlarged"]
