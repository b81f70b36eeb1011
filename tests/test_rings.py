"""Ring construction, validation, and basic structure."""

from __future__ import annotations

import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringlab
import ringlab.rings as rings
from ringlab.errors import ConstructionError, InvariantError, RinglabError, TableError
from ringlab.expansions import identity_expansion
from ringlab.ideals import Ideal, _element_colons, colon, is_prime, radical
from ringlab.rings import (
    FiniteRing,
    RingHom,
    _additive_generators,
    _colon_rows,
    _first_asym,
    _first_diff,
    _scan_axioms,
    format_poly,
    irreducible_poly,
    make_galois_field,
    make_poly_quotient,
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


def test_irreducible_poly_of_degree_one_is_x():
    for p in (2, 3, 5):
        assert irreducible_poly(p, 1) == (0, 1)


def _poly_quotient_by_division(p, f):
    """The tables of Z_p[x]/(f) entry by entry: each sum digit by digit, each
    product by polynomial multiplication and then long division by f."""
    k = len(f) - 1
    polys = [[i // p**d % p for d in range(k)] for i in range(p**k)]

    def encode(cs):
        return sum(c % p * p**d for d, c in enumerate(cs))

    def product(a, b):
        cs = [0] * (2 * k - 1)
        for d1, c1 in enumerate(a):
            for d2, c2 in enumerate(b):
                cs[d1 + d2] += c1 * c2
        for d in range(2 * k - 2, k - 1, -1):
            lead = cs[d] % p
            for j in range(k + 1):
                cs[d - k + j] -= lead * f[j]
        return encode(cs[:k])

    add = tuple(tuple(encode([x + y for x, y in zip(a, b)]) for b in polys) for a in polys)
    mul = tuple(tuple(product(a, b) for b in polys) for a in polys)
    return add, mul, f"Z{p}[x]/({format_poly(f)})", tuple(format_poly(a) for a in polys)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_poly_quotient_matches_division(p):
    """Every monic f over Z_p with p^deg(f) <= 32."""
    count = 0
    for k in range(1, 6):
        if p**k > 32:
            break
        for m in range(p**k):
            f = [m // p**d % p for d in range(k)] + [1]
            R = make_poly_quotient(p, f)
            got = (R.add_table, R.mul_table, R.label, R.element_names)
            assert got == _poly_quotient_by_division(p, f), f
            count += 1
    assert count == {2: 62, 3: 39, 5: 30}.get(p, p)


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
    mul = [[0, 0, 0], [0, 1, 2], [0, 2, 3]]
    with pytest.raises(TableError, match=r"multiplication table entry \[2\]\[2\] = 3 out of range"):
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


def test_the_validating_constructor_takes_no_construction_descriptor(z4):
    """A descriptor is the proof of a library construction, so only
    ``FiniteRing._built`` attaches one: a caller's ring has none, and the
    keyword, or a fourth positional argument, is a TypeError. Z4 under a
    ProductOf(Z2, Z2) descriptor would read a lattice off factors it does
    not have."""
    from ringlab.constructions import ProductOf

    z2 = make_zn(2)
    R = FiniteRing(z4.add_table, z4.mul_table, "Z4")
    assert R.construction is None and len(R.ideals()) == 3
    with pytest.raises(TypeError):
        FiniteRing(z4.add_table, z4.mul_table, "fake", construction=ProductOf(z2, z2))
    with pytest.raises(TypeError):
        FiniteRing(z4.add_table, z4.mul_table, "fake", ProductOf(z2, z2))


def test_element_wrapper(z12):
    a = z12.element(7)
    b = z12.element(8)
    assert (a + b).index == 3
    assert (a * b).index == 8
    assert (-a).index == 5
    assert (a - b).index == 11
    assert (a ** 2).index == 1
    assert b.is_unit is False


@pytest.mark.parametrize("spec", ["Z12", "Z2[x]/(x^3)", "Z4xZ9", "triv(Z4,reg)"])
def test_pow_is_repeated_multiplication_in_logarithmic_time(spec):
    """pow by square-and-multiply equals one times a, k times over, for k
    up to 63, returns at once at k = 10**18, and rejects a negative k."""
    R = ringlab.parse_ring(spec)
    for a in range(R.order):
        acc = R.one
        for k in range(64):
            assert R.pow(a, k) == acc, (spec, a, k)
            acc = R.mul(acc, a)
    for a in range(R.order):
        # x**(10**18) = x**(2**18 * odd): a table walk would never return
        assert R.pow(a, 10**18) == R.pow(R.pow(a, 5**18), 2**18), (spec, a)
    assert (R.element(R.order - 1) ** 10**18).ring is R
    with pytest.raises(ValueError, match="negative exponents"):
        R.pow(1, -1)


def test_elements_compare_by_ring_identity_and_index(z12):
    """Equal when the ring is the same object and the index is equal; the
    hash is that of (ring, index); an element cannot be changed."""
    a, twin = z12.element(7), rings.Element(z12, 7)
    assert a == twin and hash(a) == hash(twin) == hash((z12, 7))
    assert a != z12.element(8) and a != 7
    other = rings.make_zn(12)
    assert a != rings.Element(other, 7)
    assert len({a, twin, z12.element(8), rings.Element(other, 7)}) == 3
    with pytest.raises(AttributeError):
        a.index = 8
    assert a.index == 7 and repr(a) == "<7 in Z12>"


def test_lattice_position_roundtrip(z12):
    for I in z12.ideals():
        assert z12.ideals()[z12.lattice_position(I.mask)].mask == I.mask


def test_jacobson_radical(z12, z8, f4):
    assert sorted(z12.jacobson_radical().members) == [0, 6]
    assert sorted(z8.jacobson_radical().members) == [0, 2, 4, 6]
    assert f4.jacobson_radical().is_zero


def test_lattice_position_of_a_mask_that_is_no_ideal(z12):
    """A mask outside the lattice raises ConstructionError naming the mask
    and the ring, from the lookup and from the calls that reach it."""
    bad = Ideal(z12, 0b11)
    for call in (lambda: z12.lattice_position(0b11), lambda: is_prime(bad),
                 lambda: identity_expansion(z12)(bad), lambda: colon(bad, 2),
                 lambda: radical(bad)):
        with pytest.raises(ConstructionError, match=r"3 is not the mask of an ideal of .*Z12"):
            call()


@pytest.mark.parametrize("tier, count", [("catalog16", 995), ("catalog_enlarged", 1680)])
def test_element_colons_match_the_row_scan(request, tier, count):
    """The element colons read off the principal-colon table equal the
    entry-by-entry oracle ``_colon_rows`` at every lattice ideal of both
    tiers, the unit ideal included."""
    seen = 0
    for entry in request.getfixturevalue(tier):
        R = entry.ring
        for I in R.ideals():
            assert tuple(_element_colons(R, I.mask)) == _colon_rows(R.mul_table, I.mask), (
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


def test_non_integer_entry_reports_its_position():
    with pytest.raises(TableError, match=r"addition table entry \[0\]\[1\] = 1.0 is not an integer"):
        FiniteRing([[0, 1.0], [1, 0]], [[0, 0], [0, 1]], label="bad")
    with pytest.raises(TableError, match=r"multiplication table entry \[1\]\[0\] = '0' is not"):
        FiniteRing([[0, 1], [1, 0]], [[0, 0], ["0", 1]], label="bad")


def test_bad_homomorphism_values_are_table_errors():
    z2 = make_zn(2)
    with pytest.raises(TableError, match=r"homomorphism value 1.0 is not an integer"):
        RingHom(z2, z2, [0, 1.0])
    with pytest.raises(TableError, match=r"homomorphism value 2 out of range for Z2"):
        RingHom(z2, z2, [0, 2])
    with pytest.raises(TableError, match=r"homomorphism value -1 out of range for Z2"):
        RingHom(z2, z2, [-1, 1])
    assert RingHom(z2, z2, [0, 1]).is_surjective()


def _outcome(add, mul) -> str:
    try:
        FiniteRing(add, mul, label="bad")
    except RinglabError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def _full_scan(addb, mulb, zero, step) -> bool:
    _scan_axioms(addb, mulb, step)
    return True


def test_generator_proof_matches_the_full_scan(catalog16, monkeypatch):
    """Seeded symmetric corruptions of one entry pair, twelve per ring of the
    default catalog (all of order at most 64): the generator proof reports the
    exception and message of the full scan, and every kind of failure that a
    symmetric corruption can cause occurs."""
    rng = random.Random(8)
    cases = []
    for entry in catalog16:
        R = entry.ring
        assert R.order <= 64
        for k in range(12):
            add = [list(row) for row in R.add_table]
            mul = [list(row) for row in R.mul_table]
            table = add if k % 2 == 0 else mul
            i, j = rng.randrange(R.order), rng.randrange(R.order)
            v = rng.choice([x for x in range(R.order) if x != table[i][j]])
            table[i][j] = table[j][i] = v
            cases.append((add, mul))
    proved = [_outcome(add, mul) for add, mul in cases]
    monkeypatch.setattr(rings, "_generator_proof", _full_scan)
    assert proved == [_outcome(add, mul) for add, mul in cases]
    kinds = {re.sub(r", witness.*|element \d+ ", "", o) for o in proved}
    assert kinds == {
        "TableError: addition has no identity element",
        "TableError: multiplication has no identity element",
        "TableError: zero and one coincide, the zero ring is excluded",
        "TableError: has no additive inverse",
        "TableError: addition is not associative",
        "TableError: multiplication is not associative",
        "TableError: multiplication does not distribute",
    }
    reached = sum("associative" in o or "distribute" in o for o in proved)
    assert reached == 1568


def _algebra_mul() -> list[list[int]]:
    """A product on (Z2)^3 that is bilinear, commutative and unital but not
    associative: basis 1, a, b (bits 0, 1, 2), a*a = b, a*b = 1, b*b = 0, so
    (a*a)*b = 0 while a*(a*b) = a. Only the proof's third step fails."""
    basis = {(0, 0): 1, (0, 1): 2, (0, 2): 4, (1, 1): 4, (1, 2): 1, (2, 2): 0}

    def prod(x, y):
        out = 0
        for i in range(3):
            for j in range(3):
                if (x >> i) & 1 and (y >> j) & 1:
                    out ^= basis[min(i, j), max(i, j)]
        return out

    return [[prod(x, y) for y in range(8)] for x in range(8)]


# The multiplication of Z2xZ2xZ2 carried along a permutation of its nonzero
# elements: commutative, associative and unital (one is 6), and distributive
# at the first additive generator 1 but not at 2 or 4.
TRANSPORTED_MUL = [
    [0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 1, 0, 1, 1, 0], [0, 0, 2, 2, 0, 0, 2, 2],
    [0, 1, 2, 3, 0, 1, 3, 2], [0, 0, 0, 0, 4, 4, 4, 4], [0, 1, 0, 1, 4, 5, 5, 4],
    [0, 1, 2, 3, 4, 5, 6, 7], [0, 0, 2, 2, 4, 4, 7, 7],
]


@pytest.mark.parametrize("mul, kind", [
    (_algebra_mul(), "multiplication is not associative"),
    (TRANSPORTED_MUL, "multiplication does not distribute"),
])
def test_one_failing_axiom_is_found_as_the_full_scan_finds_it(mul, kind, monkeypatch):
    """Tables on the group (Z2)^3 that break one axiom only, at generators
    past the first: the proof rejects them with the full scan's message."""
    add = [[a ^ b for b in range(8)] for a in range(8)]
    got = _outcome(add, mul)
    assert got.startswith(f"TableError: {kind}, witness"), got
    monkeypatch.setattr(rings, "_generator_proof", _full_scan)
    assert _outcome(add, mul) == got


def _times_z33(mul8: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Tables of order 264, above the byte-row bound: (Z2)^3 under mul8,
    times Z33. Element 8*s + x is the pair (x, s)."""
    n = 8 * 33
    add = [[8 * ((a // 8 + b // 8) % 33) + (a % 8 ^ b % 8) for b in range(n)] for a in range(n)]
    mul = [[8 * (a // 8 * (b // 8) % 33) + mul8[a % 8][b % 8] for b in range(n)] for a in range(n)]
    return add, mul


@pytest.mark.parametrize("mul8, kind", [
    (_algebra_mul(), "multiplication is not associative"),
    (TRANSPORTED_MUL, "multiplication does not distribute"),
])
def test_one_failing_axiom_above_order_256_is_found_as_the_full_scan_finds_it(mul8, kind,
                                                                              monkeypatch):
    """The same tables times Z33: the proof on tuple rows rejects them with
    the full scan's message."""
    add, mul = _times_z33(mul8)
    got = _outcome(add, mul)
    assert got.startswith(f"TableError: {kind}, witness"), got
    monkeypatch.setattr(rings, "_generator_proof", _full_scan)
    assert _outcome(add, mul) == got


@pytest.mark.parametrize("tier", ["catalog16", "catalog_enlarged"])
def test_additive_generators_reach_every_element(request, tier):
    """The greedy generating set reaches the whole ring from zero under the
    maps x -> x + g, and stays small: at most 7 generators on both tiers."""
    for entry in request.getfixturevalue(tier):
        R = entry.ring
        addb = [bytes(row) for row in R.add_table]
        gens = _additive_generators(addb, R.zero)
        reached, todo = {R.zero}, [R.zero]
        while todo:
            x = todo.pop()
            for g in gens:
                if R.add_table[x][g] not in reached:
                    reached.add(R.add_table[x][g])
                    todo.append(R.add_table[x][g])
        assert len(reached) == R.order, entry.provenance
        assert gens == sorted(gens) and len(gens) <= 7, entry.provenance


def test_order_above_256_is_proven_on_tuple_rows():
    """Above order 256 a byte cannot hold an index, so the generator proof
    composes tuple rows. Z257 builds by the proof alone."""
    z257 = make_zn(257)
    assert z257.order == 257
    assert len(z257.ideals()) == 2


@pytest.mark.parametrize("kind, i, j, v", [
    ("add", 2, 3, 6),
    ("mul", 2, 3, 7),
])
def test_corrupted_order_257_table_names_its_witness(kind, i, j, v, monkeypatch):
    """A symmetric corruption of Z257 fails the proof on tuple rows, and the
    full scan names the same first witness triple that it names when it runs
    in place of the proof."""
    n = 257
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[(a * b) % n for b in range(n)] for a in range(n)]
    table = add if kind == "add" else mul
    table[i][j] = table[j][i] = v
    got = _outcome(add, mul)
    assert re.fullmatch(r"TableError: (addition|multiplication) (is not associative|does not "
                        r"distribute), witness \(\d+, \d+, \d+\)", got), got
    monkeypatch.setattr(rings, "_generator_proof", _full_scan)
    assert _outcome(add, mul) == got


BAD_ENTRIES = [
    ("add", 1.5, r"addition table entry \[3\]\[5\] = 1.5 is not an integer"),
    ("add", -1, r"addition table entry \[3\]\[5\] = -1 out of range"),
    ("mul", 257, r"multiplication table entry \[3\]\[5\] = 257 out of range"),
    ("mul", 2**64, r"multiplication table entry \[3\]\[5\] = 18446744073709551616 out of range"),
]


def _with_bad_entry(n, kind, v):
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[(a * b) % n for b in range(n)] for a in range(n)]
    (add if kind == "add" else mul)[3][5] = v
    return add, mul


@pytest.mark.parametrize("kind, v, message", BAD_ENTRIES)
def test_an_order_257_table_names_its_bad_entry(kind, v, message):
    """At every order a row is range-checked by one array('Q') conversion
    and its max; a float, a negative entry, n itself or an entry beyond 64
    bits falls back to the entry loop, which names the entry."""
    with pytest.raises(TableError, match=f"^{message}$"):
        FiniteRing(*_with_bad_entry(257, kind, v), label="bad")


def test_a_small_table_names_its_bad_entry_as_order_257_does():
    """The same one conversion at order 7, with no path of its own below
    order 256: each bad entry of the order-257 test, and 7 itself."""
    for kind, v, message in [*BAD_ENTRIES, ("mul", 7, BAD_ENTRIES[2][2].replace("257", "7"))]:
        with pytest.raises(TableError, match=f"^{message}$"):
            FiniteRing(*_with_bad_entry(7, kind, v), label="bad")


def test_homomorphism_values_above_order_256_are_range_checked():
    z2, z257 = make_zn(2), make_zn(257)
    with pytest.raises(TableError, match=r"^homomorphism value 1.0 is not an integer$"):
        RingHom(z2, z257, [0, 1.0])
    with pytest.raises(TableError, match=r"^homomorphism value 257 out of range for Z257$"):
        RingHom(z2, z257, [0, 257])


def test_classify_z257_builds_in_well_under_a_second():
    """The order-257 path of ``FiniteRing._validate`` end to end, through the
    CLI: the ring is a field, so its zero ideal is prime and maximal."""
    import io
    import time
    from contextlib import redirect_stdout

    from ringlab.cli import main

    out = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out):
        assert main(["classify", "--ring", "Z257", "--delta", "id", "--json"]) == 0
    assert time.perf_counter() - start < 1.0
    assert "(0)" in out.getvalue()


def test_a_proof_failure_that_the_scan_does_not_confirm_is_an_invariant_error(monkeypatch):
    monkeypatch.setattr(rings, "_generator_proof", lambda *args: False)
    with pytest.raises(InvariantError, match="the generator proof failed where the full scan passed"):
        make_zn(4)


@pytest.mark.parametrize("tier", ["catalog16", "catalog_enlarged"])
def test_nonunits_form_an_ideal_exactly_on_local_rings(request, tier):
    """The nonunit-closure route to locality agrees with the maximal-ideal
    count on every ring of the tier, and both verdicts occur."""
    verdicts = set()
    for entry in request.getfixturevalue(tier):
        R = entry.ring
        assert R.nonunits_form_ideal() == R.is_local(), entry.provenance
        verdicts.add(R.is_local())
    assert verdicts == {True, False}


# ----------------------------------------------------------------------
# per-ring tables

# The caches keyed by an argument, not per ring, and so not ``_per_ring``
# tables: quotients by ideal, expansion records by table, and the unused
# ``predicates._memo``.
ARGUMENT_KEYED = frozenset({"quotients", "expansion_records", "predicates"})
MODULE_TABLES = frozenset({"submodules", "cyclic_masks"})


def test_each_per_ring_table_is_built_once_and_kept(monkeypatch):
    """On a fresh constructed ring (and its module), every declared table is
    built once, through its ``__wrapped__``, whatever order the tables are
    asked for in, and every call returns the object kept in the cache."""
    import ringlab.verifier  # noqa: F401  every module that declares a table

    assert MODULE_TABLES < set(rings._PER_RING)
    R = ringlab.parse_ring("triv(Z4,quot:(2))")
    E = R.construction.module
    builds = {key: 0 for key in rings._PER_RING}
    for key, table in rings._PER_RING.items():
        def counted(owner, key=key, build=table.__wrapped__):
            builds[key] += owner is R or owner is E
            return build(owner)

        monkeypatch.setattr(table, "__wrapped__", counted)
    for key, table in reversed(rings._PER_RING.items()):
        owner = E if key in MODULE_TABLES else R
        first = table(owner)
        assert table(owner) is first is owner.cache[key], key
    assert builds == {key: 1 for key in rings._PER_RING}


def test_per_ring_keys_are_unique_and_every_cache_key_is_declared():
    """Declaring a second table under a key raises. After the whole suite has
    run on the default catalog, every key in the cache of every ring reached
    from it, and of every module, is a ``_per_ring`` key or one of the
    argument-keyed caches, so a hand-written cache entry fails here."""
    from ringlab.catalog import CatalogConfig, build_catalog
    from ringlab.verifier import verify_all

    with pytest.raises(InvariantError, match="'lattice'"):
        rings._per_ring("lattice")(lambda R: None)
    assert rings._PER_RING["lattice"] is FiniteRing.ideals
    catalog = build_catalog(CatalogConfig())
    verify_all(catalog)
    todo, seen, keys = [e.ring for e in catalog], set(), set()
    while todo:
        owner = todo.pop()
        if id(owner) in seen:
            continue
        seen.add(id(owner))
        keys |= set(owner.cache)
        todo.extend(owner.cache.get("quotients", {}).values())
        info = getattr(owner, "construction", None)  # a module has none
        if info is not None:  # the parent, factors, base ring or module
            todo.extend(v for v in vars(info).values() if hasattr(v, "cache"))
    assert len(seen) > len(catalog)
    assert keys - ARGUMENT_KEYED <= set(rings._PER_RING), keys - ARGUMENT_KEYED - set(rings._PER_RING)
    assert {"principal_positions", "correspondence", "submodules", "cyclic_masks"} <= keys


@pytest.mark.parametrize("tier", ["catalog16", "catalog_enlarged"])
def test_units_are_the_elements_whose_principal_ideal_is_the_ring(request, tier):
    """units() reads the x with (x) = R off the principal masks, a product's
    from its factors'. It equals the scan for a row that holds one, on every
    ring of the tier."""
    for entry in request.getfixturevalue(tier):
        R = entry.ring
        expect = frozenset(a for a, row in enumerate(R.mul_table) if R.one in row)
        assert R.units() == expect, entry.provenance
