"""Shared fixtures. Catalogs are memoized by the library, so these are cheap."""

from __future__ import annotations

import pytest

from expansion_tables import with_every_expansion
from ringlab.catalog import CatalogConfig, build_catalog
from ringlab.rings import make_galois_field, make_poly_quotient, make_zn


@pytest.fixture(scope="session")
def catalog16():
    return build_catalog(CatalogConfig(max_order=16))


@pytest.fixture(scope="session")
def catalog_enlarged():
    """The enlarged tier: products up to order 64, trivial extensions up to 128."""
    return build_catalog(CatalogConfig(product_order_limit=64, trivial_extension_limit=128))


@pytest.fixture(scope="session")
def catalog12():
    return build_catalog(CatalogConfig(max_order=12))


@pytest.fixture(scope="session")
def catalog8():
    return build_catalog(CatalogConfig(max_order=8))


@pytest.fixture(scope="session")
def catalog_every_expansion():
    """The default catalog built afresh, so that the other catalogs' rings
    keep their caches, with each base entry carrying every extensive
    monotone table on its ring: 995 stock expansions and 172 others."""
    return with_every_expansion(build_catalog.__wrapped__(CatalogConfig()))


@pytest.fixture(scope="session")
def z4():
    return make_zn(4)


@pytest.fixture(scope="session")
def z8():
    return make_zn(8)


@pytest.fixture(scope="session")
def z12():
    return make_zn(12)


@pytest.fixture(scope="session")
def z36():
    return make_zn(36)


@pytest.fixture(scope="session")
def f4():
    return make_galois_field(2, 2)


@pytest.fixture(scope="session")
def dual2():
    return make_poly_quotient(2, [0, 0, 1])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines after the test summary."""
    try:
        import test_acceptance
    except ImportError:
        return
    if test_acceptance.RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in test_acceptance.RESULTS:
            terminalreporter.write_line(line)
