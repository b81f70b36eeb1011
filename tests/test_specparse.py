"""Spec-string parsers for rings, expansions, and predicate queries."""

from __future__ import annotations

import pytest

import ringlab.predicates as predicates
import ringlab.specparse as specparse
from ringlab.errors import InvariantError, ParseError
from ringlab.expansions import (
    identity_expansion,
    induced_trivial_extension,
    plus_fixed,
    radical_expansion,
)
from ringlab.ideals import span
from ringlab.predicates import DELTA_FREE
from ringlab.rings import make_zn
from ringlab.specparse import Query, parse_expansion, parse_query, parse_ring
from ringlab.verifier import search_witness


def test_parse_zn():
    R = parse_ring("Z12")
    assert R.order == 12
    assert R.label == "Z12"


def test_parse_poly_quotient():
    R = parse_ring("Z2[x]/(x^2)")
    assert R.order == 4
    assert R.label == "Z2[x]/(x^2)"
    F = parse_ring("Z2[x]/(x^2+x+1)")
    assert F.is_field()
    G = parse_ring("Z3[x]/(x^2+1)")
    assert G.order == 9
    assert G.is_field()  # x^2+1 irreducible mod 3


def test_parse_product():
    P = parse_ring("Z4xZ9")
    assert P.order == 36
    assert P.label == "Z4xZ9"
    T = parse_ring("Z2xZ2xZ2")
    assert T.order == 8


def test_parse_quotient_postfix():
    Q = parse_ring("Z12/(4)")
    assert Q.order == 4
    Q2 = parse_ring("Z12/(4,6)")
    assert Q2.order == 2


def test_parse_trivial_extension():
    T = parse_ring("triv(Z4,reg)")
    assert T.order == 16
    T2 = parse_ring("triv(Z4,quot:(2))")
    assert T2.order == 8


def test_parse_localization():
    L = parse_ring("loc(Z12,3)")
    assert L.order == 4
    assert L.label == "loc(Z12,3)"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_ring("Z4x")
    assert exc.value.position == 3
    with pytest.raises(ParseError):
        parse_ring("Z1")
    with pytest.raises(ParseError):
        parse_ring("Q4")
    with pytest.raises(ParseError):
        parse_ring("Z4)")
    with pytest.raises(ParseError):
        parse_ring("Z6[x]/(x^2)")  # composite coefficient modulus
    with pytest.raises(ParseError):
        parse_ring("")


@pytest.mark.parametrize("text, position, message", [
    ("Z4/(1)", 5, "cannot quotient by the unit ideal"),
    ("Z4/(3)", 5, "cannot quotient by the unit ideal"),
    ("Z12/(4)/(2,3)", 12, "cannot quotient by the unit ideal"),
    ("Z4/(5)", 5, "generator 5 out of range for Z4"),
    ("triv(Z4,quot:(0,9))", 17, "generator 9 out of range for Z4"),
    ("loc(Z12,12)", 10, "generator 12 out of range for Z12"),
    ("loc(Z12,0)", 9, "multiplicative set contains zero"),
])
def test_bad_generator_lists_point_at_the_list(text, position, message):
    with pytest.raises(ParseError, match=message) as exc:
        parse_ring(text)
    assert exc.value.position == position


@pytest.mark.parametrize("ring, text, position, message", [
    ("Z12", "plus:(12)", 8, "generator 12 out of range for Z12"),
    ("Z12/(4)", "bar(id,(40))", 10, "generator 40 out of range for Z12"),
    ("Z12/(4)", "bar(id,(2))", 9, "ideal does not match the quotient construction"),
    ("loc(Z12,3)", "loc(id,13)", 9, "generator 13 out of range for Z12"),
    ("loc(Z12,3)", "loc(id,0)", 8, "multiplicative set contains zero"),
    ("loc(Z12,3)", "loc(id,5)", 8, "set does not match the localization construction"),
])
def test_bad_expansion_generator_lists_point_at_the_list(ring, text, position, message):
    with pytest.raises(ParseError, match=message) as exc:
        parse_expansion(text, parse_ring(ring))
    assert exc.value.position == position


def test_ring_labels_roundtrip(catalog12):
    for entry in catalog12:
        R = entry.ring
        S = parse_ring(R.label)
        assert S.order == R.order
        assert S.add_table == R.add_table
        assert S.mul_table == R.mul_table
        assert S.element_names == R.element_names


def test_parse_expansion_standard(z12):
    assert parse_expansion("id", z12).label == "id"
    assert parse_expansion("rad", z12).label == "rad"
    assert parse_expansion("full", z12).label == "full"
    d = parse_expansion("plus:(4)", z12)
    assert d(span(z12, [6])).mask == span(z12, [2]).mask


def test_expansion_labels_roundtrip(catalog8):
    for entry in catalog8:
        for d in entry.expansions:
            again = parse_expansion(d.label, entry.ring)
            assert again.table == d.table, (entry.provenance, d.label)


def test_parse_expansion_requires_matching_construction(z12):
    with pytest.raises(ParseError):
        parse_expansion("prod(id,id)", z12)  # not a product ring
    with pytest.raises(ParseError):
        parse_expansion("bar(rad,(4))", z12)  # not a quotient ring
    with pytest.raises(ParseError):
        parse_expansion("nonsense", z12)


def test_parse_expansion_trivial_extension():
    T = parse_ring("triv(Z4,reg)")
    A = T.construction.base
    bases = {"id": identity_expansion(A), "rad": radical_expansion(A),
             "plus:(2)": plus_fixed(A, span(A, [2]))}
    for spec, base in bases.items():
        got = parse_expansion(f"triv({spec})", T)
        want = induced_trivial_extension(T, base)
        assert (got.table, got.label) == (want.table, f"triv({spec})")
    with pytest.raises(ParseError, match="Z4 was not built as a trivial extension") as exc:
        parse_expansion("triv(id)", make_zn(4))
    assert exc.value.position == 5


def test_parse_query_evaluation():
    q = parse_query("1abs-delta-primary & !delta-primary")
    assert isinstance(q, Query)
    assert q.uses_delta
    z8 = make_zn(8)
    d = radical_expansion(z8)
    I = span(z8, [2])
    got = q.evaluate(I, d)
    from ringlab.predicates import is_delta_primary, is_one_absorbing_delta_primary

    expect = is_one_absorbing_delta_primary(I, d) and not is_delta_primary(I, d)
    assert got == expect


def test_parse_query_operators():
    q_or = parse_query("prime | maximal")
    q_and = parse_query("prime & maximal")
    q_not = parse_query("!prime")
    q_paren = parse_query("!(prime | maximal) & 2abs")
    z12 = make_zn(12)
    for I in z12.proper_ideals():
        from ringlab.predicates import evaluate_predicate

        p = evaluate_predicate("prime", I, None)
        m = evaluate_predicate("maximal", I, None)
        t = evaluate_predicate("2abs", I, None)
        assert q_or.evaluate(I) == (p or m)
        assert q_and.evaluate(I) == (p and m)
        assert q_not.evaluate(I) == (not p)
        assert q_paren.evaluate(I) == ((not (p or m)) and t)


# Each query with the same formula over one bit reader, written with
# Python's and, or and not.
PER_IDEAL = {
    "!(prime | maximal) & 2abs": lambda b: not (b("prime") or b("maximal")) and b("2abs"),
    "1abs-delta-primary & !delta-primary":
        lambda b: b("1abs-delta-primary") and not b("delta-primary"),
    "!(delta-semiprimary & prime) | 2abs-delta-primary & !1abs-primary":
        lambda b: not (b("delta-semiprimary") and b("prime"))
        or (b("2abs-delta-primary") and not b("1abs-primary")),
}


@pytest.mark.parametrize("text", PER_IDEAL)
def test_query_vectors_match_a_per_ideal_evaluation(catalog16, text):
    """Over the default catalog, a query's vector holds no bit outside the
    proper ideals, ``Query.evaluate`` at each proper ideal equals the
    formula over the bits that ``predicates._check`` reads there, and
    ``search_witness`` lists exactly the ideals where it holds, in catalog
    and lattice order. A delta-free query is read once per ring."""
    q = parse_query(text)
    want = []
    for entry in catalog16:
        R = entry.ring
        proper = R.proper_ideals()
        for d in entry.expansions if q.uses_delta else (None,):
            assert 0 <= q.verdicts(R, d) < 1 << len(proper), (entry.provenance, text)
            for I in proper:
                value = PER_IDEAL[text](lambda name: predicates._check(name, I, d)[0])
                assert q.evaluate(I, d) is value, (entry.provenance, text, I.label)
                if value:
                    names = tuple(R.element_name(a) for a in I.members_sorted)
                    want.append((entry.provenance, names, "-" if d is None else d.label))
    got = [(w.ring, w.ideal, w.delta) for w in search_witness(q, catalog16)]
    assert got == want and len(want) > 0


def test_query_delta_free_flag():
    assert not parse_query("prime & !maximal").uses_delta
    assert parse_query("prime & delta-semiprimary").uses_delta
    assert parse_query("2abs").names <= DELTA_FREE | {"2abs"}


def test_query_parse_errors():
    with pytest.raises(ParseError) as exc:
        parse_query("bogus & prime")
    assert exc.value.position == 0
    with pytest.raises(ParseError):
        parse_query("prime &")
    with pytest.raises(ParseError):
        parse_query("(prime")
    with pytest.raises(ParseError):
        parse_query("")
    with pytest.raises(ParseError):
        parse_query("prime prime")


def test_query_whitespace_tolerant():
    a = parse_query("prime&!maximal")
    b = parse_query("  prime  &  !  maximal ")
    z12 = make_zn(12)
    for I in z12.proper_ideals():
        assert a.evaluate(I) == b.evaluate(I)


@pytest.mark.parametrize("text, position, message", [
    ("Z99999999999", 0, "ring order 99999999999 exceeds 1024"),
    ("Z1025", 0, "ring order 1025 exceeds 1024"),
    ("Z64xZ64xZ64", 3, "ring order 4096 exceeds 1024"),
    ("Z4xZ64xZ8", 6, "ring order 2048 exceeds 1024"),
    ("triv(Z64,reg)", 0, "ring order 4096 exceeds 1024"),
    ("Z2xtriv(Z64,quot:(32))", 3, "ring order 2048 exceeds 1024"),
    ("loc(triv(Z64,reg),1)", 4, "ring order 4096 exceeds 1024"),
    ("Z99999999999[x]/(x)", 0, "ring order 99999999999 exceeds 1024"),
    ("Z2xZ2[x]/(x^999999999999)", 3, r"ring order 2\^999999999999 exceeds 1024"),
    ("Z3[x]/(x^7+x)", 0, r"ring order 3\^7 exceeds 1024"),
    ("Z" + "9" * 5000, 1, "integer too long"),
])
def test_a_ring_above_the_order_bound_is_rejected_before_it_is_built(text, position, message):
    """A ring spec whose order exceeds 1024 raises at the atom, the x or the
    triv( that would build it, before any table of that order is made, and
    a modulus before its primality test."""
    with pytest.raises(ParseError, match=message) as exc:
        parse_ring(text)
    assert exc.value.position == position


def test_the_order_bound_admits_rings_of_its_order(monkeypatch):
    """Each order is compared with the bound itself: at a bound of 16, every
    kind of spec of order 16 builds and one of order 32 does not. The
    degree of f counts modulo p."""
    monkeypatch.setattr(specparse, "_MAX_ORDER", 16)
    for ok, too_big in [("Z16", "Z17"), ("Z4xZ4", "Z4xZ8"), ("Z2[x]/(x^4)", "Z2[x]/(x^5)"),
                        ("triv(Z4,reg)", "triv(Z8,reg)"), ("triv(Z8,quot:(2))", "triv(Z8,quot:(4))"),
                        ("Z2[x]/(2x^9+x^4)", "Z2[x]/(3x^9+x^4)")]:
        assert parse_ring(ok).order == 16, ok
        with pytest.raises(ParseError, match="exceeds 16"):
            parse_ring(too_big)


@pytest.mark.parametrize("text, position, message", [
    ("Z0", 2, "make_zn needs a modulus of at least 2, got 0"),
    ("Z1", 2, "make_zn needs a modulus of at least 2, got 1"),
    ("Z4[x]/(x^2+1)", 13, "polynomial quotient needs a prime modulus, got 4"),
    ("Z3[x]/(2x^2+1)", 14, r"polynomial modulus must be monic, got 2x\^2\+1"),
    ("Z3[x]/(1)", 9, "polynomial modulus must have degree at least 1"),
])
def test_a_ring_that_cannot_be_built_is_a_parse_error_at_its_atom(text, position, message):
    with pytest.raises(ParseError, match=f"^{message} at position {position} in ") as exc:
        parse_ring(text)
    assert exc.value.position == position


@pytest.mark.parametrize("text, builder", [("Z4", "make_zn"),
                                           ("Z2[x]/(x^2)", "make_poly_quotient")])
def test_a_library_error_inside_a_ring_atom_is_not_a_parse_error(monkeypatch, text, builder):
    """Only a ConstructionError is the spec's fault; any other error from
    the builder propagates as it is."""
    def broken(*args):
        raise InvariantError("bug")

    monkeypatch.setattr(specparse, builder, broken)
    with pytest.raises(InvariantError, match="^bug$"):
        parse_ring(text)
