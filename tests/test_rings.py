"""Ring construction, validation, and basic structure."""

from __future__ import annotations

import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringlab
from ringlab.errors import InvariantError, TableError
from ringlab.rings import (
    FiniteRing,
    _colon_rows,
    _first_asym,
    _first_diff,
    format_poly,
    irreducible_poly,
    make_galois_field,
    make_zn,
)


def test_zn_basics(z12):
    assert z12.order == 12
    assert z12.zero == 0
    assert z12.one == 1
    assert z12.add(7, 8) == 3
    assert z12.mul(7, 8) == 8
    assert z12.neg(5) == 7
    assert z12.sub(3, 5) == 10
    assert z12.pow(2, 5) == 8
    assert z12.element_name(7) == "7"
    assert z12.label == "Z12"


def test_zn_rejects_bad_order():
    with pytest.raises(Exception):
        make_zn(1)
    with pytest.raises(Exception):
        make_zn(0)


def test_units_and_nonunits(z12):
    assert z12.units() == frozenset({1, 5, 7, 11})
    assert z12.nonunits() == frozenset(range(12)) - frozenset({1, 5, 7, 11})
    assert z12.is_unit(5)
    assert not z12.is_unit(6)
    # Euler phi cross-check
    assert len(z12.units()) == sum(1 for k in range(1, 12) if math.gcd(k, 12) == 1)


def test_locality_and_fields(z8, z12, f4):
    assert z8.is_local()
    assert not z12.is_local()
    assert f4.is_field()
    assert f4.is_local()
    assert not z8.is_field()
    assert make_zn(7).is_field()


def test_chained_and_arithmetical(z8, z12, f4):
    assert z8.is_chained()
    assert f4.is_chained()
    assert not z12.is_chained()
    # Z12 is a product of chained rings, so still arithmetical
    assert z12.is_arithmetical()


def test_poly_quotient_structure(dual2):
    # Z2[x]/(x^2): elements 0, 1, x, x+1 with x*x = 0
    assert dual2.order == 4
    names = [dual2.element_name(i) for i in range(4)]
    assert names == ["0", "1", "x", "x+1"]
    x = names.index("x")
    assert dual2.mul(x, x) == 0
    assert dual2.is_local()
    assert not dual2.is_field()
    assert dual2.label == "Z2[x]/(x^2)"


def test_galois_field_structure():
    f8 = make_galois_field(2, 3)
    assert f8.order == 8
    assert f8.is_field()
    f9 = make_galois_field(3, 2)
    assert f9.order == 9
    assert f9.is_field()
    # every nonzero element invertible
    assert f9.units() == frozenset(range(1, 9))


def test_irreducible_poly_is_irreducible():
    for p, k in [(2, 2), (2, 3), (2, 4), (3, 2)]:
        coeffs = irreducible_poly(p, k)
        assert len(coeffs) == k + 1
        assert coeffs[-1] == 1
        # no roots in the prime field
        for a in range(p):
            val = sum(c * pow(a, i, p) for i, c in enumerate(coeffs)) % p
            assert val != 0


def test_format_poly():
    assert format_poly([0, 0, 1]) == "x^2"
    assert format_poly([1, 1]) == "x+1"
    assert format_poly([0, 2, 0, 1]) == "x^3+2x"
    assert format_poly([0]) == "0"


def test_validation_rejects_broken_tables():
    # nonassociative addition on 3 points
    add = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    mul = [[0, 0, 0], [0, 1, 2], [0, 2, 1]]
    bad_add = [row[:] for row in add]
    bad_add[2][2] = 2
    with pytest.raises(TableError):
        FiniteRing(bad_add, mul, label="bad")
    bad_mul = [row[:] for row in mul]
    bad_mul[2][2] = 0  # breaks 2*2=1, kills associativity via inverses
    with pytest.raises(TableError):
        FiniteRing(add, bad_mul, label="bad")


def test_out_of_range_entry_reports_its_column():
    add = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    mul = [[0, 0, 0], [0, 1, 2], [0, 7, 7]]
    with pytest.raises(TableError, match=r"multiplication table entry \[2\]\[1\] = 7 out of range"):
        FiniteRing(add, mul, label="bad")


def test_validation_rejects_missing_identity():
    add = [[0, 1], [1, 0]]
    mul = [[0, 0], [0, 0]]  # no multiplicative identity
    with pytest.raises(TableError):
        FiniteRing(add, mul, label="bad")


def test_validation_rejects_noncommutative_mul():
    add = [[0, 1], [1, 0]]
    mul = [[0, 1], [0, 1]]  # mul(0,1)=1 but mul(1,0)=0
    with pytest.raises(TableError):
        FiniteRing(add, mul, label="bad")


def test_element_wrapper(z12):
    a = z12.element(7)
    b = z12.element(8)
    assert (a + b).index == 3
    assert (a * b).index == 8
    assert (-a).index == 5
    assert (a - b).index == 11
    assert (a ** 2).index == 1
    assert b.is_unit is False


def test_lattice_position_roundtrip(z12):
    for I in z12.ideals():
        assert z12.ideals()[z12.lattice_position(I.mask)].mask == I.mask


def test_jacobson_radical(z12, z8, f4):
    assert sorted(z12.jacobson_radical().members) == [0, 6]
    assert sorted(z8.jacobson_radical().members) == [0, 2, 4, 6]
    assert f4.jacobson_radical().is_zero


def test_nonunit_product_mask(z8):
    # products of nonunits in Z8: {0,2,4,6} * {0,2,4,6} = {0,4}
    mask = z8.nonunit_product_mask
    members = {i for i in range(8) if mask >> i & 1}
    assert members == {0, 4}


@pytest.mark.parametrize("tier, count", [("catalog16", 995), ("catalog_enlarged", 1680)])
def test_colon_masks_match_the_row_scan(request, tier, count):
    """The translated byte rows of ``colon_masks`` equal the entry-by-entry
    oracle ``_colon_rows`` at every lattice ideal of both tiers."""
    seen = 0
    for entry in request.getfixturevalue(tier):
        R = entry.ring
        for I in R.ideals():
            assert R.colon_masks(I.mask) == _colon_rows(R.mul_table, I.mask), (
                entry.provenance, I.label)
            seen += 1
    assert seen == count


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=40))
def test_zn_units_match_gcd(n):
    R = make_zn(n)
    expect = frozenset(k for k in range(n) if math.gcd(k, n) == 1)
    assert R.units() == expect


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=24), st.data())
def test_zn_table_identities(n, data):
    R = make_zn(n)
    a = data.draw(st.integers(min_value=0, max_value=n - 1))
    b = data.draw(st.integers(min_value=0, max_value=n - 1))
    c = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert R.add(a, b) == (a + b) % n
    assert R.mul(a, b) == (a * b) % n
    assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))


def test_no_bare_assertion_errors_in_src():
    """Invariants raise InvariantError, a RinglabError, never a bare AssertionError."""
    src = Path(ringlab.__file__).parent
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(src.glob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "raise AssertionError" in line
    ]
    assert offenders == []


def test_table_diff_helpers_raise_invariant_errors():
    with pytest.raises(InvariantError):
        _first_asym(((0, 1), (1, 0)))
    with pytest.raises(InvariantError):
        _first_diff(b"ab", b"ab")
