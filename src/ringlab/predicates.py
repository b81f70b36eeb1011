"""The absorbing and expansion-primary predicate hierarchy.

Every predicate takes a proper ideal (and, where relevant, an expansion)
and reports a boolean together with a lexicographically minimal witness on
failure. Each condition asks whether some obstruction stays inside a bound
m, where m is I itself, rad(I) or delta(I); the checks never depend on
delta beyond the mask of delta(I).

Six checks are decided by one obstruction mask per proper ideal, cached on
the ring and read off the colon rows of I:

- V_I (``ideals._zero_divisor_masks``), the b with (I : b) != I. Prime,
  primary and delta-primary hold exactly when V_I lies inside m.
- U_I (``_absorbing_masks``), the nonunits c with v*c in I for some product
  v of two nonunits outside I. 1-absorbing prime, 1-absorbing primary and
  1-absorbing delta-primary hold exactly when U_I lies inside m.

A check that passes its mask test returns at once; only a failure runs the
check's scan, which finds the minimal witness. The 2-absorbing condition
only weakens as m grows, so an ideal that is 2-absorbing is 2-absorbing
delta-primary for every delta, and the 2-absorbing kernel runs at
m = delta(I) only at ideals that are not 2-absorbing. The definitional
``*_scan`` functions are kept as oracles for the test suite.

The ring keeps its 2-absorbing results, one per proper ideal. ``_memo``
keeps, per ring and keyed by check name and the mask pair (I, m), the
results that still need a scan: the 2-absorbing kernel at delta(I) where I
is not 2-absorbing, delta-semiprimary and the ideal-wise form.
``_verdicts`` keeps one check's values over all proper ideals as a tuple
for the sweeps, filled by one mask test per entry for the six checks above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InvariantError
from .expansions import ExpansionFunction
from .ideals import (
    Ideal,
    _lsb,
    _pair_kernel,
    _pair_primary,
    _radical_positions,
    _require_proper,
    _zero_divisor_masks,
    ideal_colon,
    ideal_product,
    maximal_check,
    primary_check,
    prime_check,
    radical,
)
from .rings import FiniteRing

PairResult = tuple[bool, Optional[tuple[int, int]]]
TripleResult = tuple[bool, Optional[tuple[int, int, int]]]
IdealTripleResult = tuple[bool, Optional[tuple[Ideal, Ideal, Ideal]]]


def _memo(I: Ideal, dm: int, name: str, compute):
    cache = I.ring.cache.setdefault("predicates", {})
    key = (name, I.mask, dm)
    got = cache.get(key)
    if got is None:
        got = compute()
        cache[key] = got
    return got


# ----------------------------------------------------------------------
# the 1-absorbing obstruction mask and the 2-absorbing kernel


def _absorbing_masks(R: FiniteRing) -> tuple[int, ...]:
    """U_I for each proper ideal I, in lattice order, built once per ring.

    U_I is the mask of the nonunits c with v*c in I for some product v of
    two nonunits that lies outside I: row v of the colon table, over those
    v. A nonunit triple with a*b*c in I and a*b outside I has its c in U_I,
    and every c in U_I ends such a triple, so "a*b*c in I forces a*b in I or
    c in m" holds exactly when U_I lies inside m: 1-absorbing prime at
    m = I, 1-absorbing primary at m = rad(I), 1-absorbing delta-primary at
    m = delta(I).
    """
    val = R.cache.get("absorbing")
    if val is None:
        nu, nu2 = R.nonunits_mask, R.nonunit_product_mask
        val = []
        for I in R.proper_ideals():
            cm = R.colon_masks(I.mask)
            u = 0
            v = nu2 & ~I.mask
            while v:
                low = v & -v
                u |= cm[low.bit_length() - 1]
                v ^= low
            val.append(u & nu)
        val = R.cache["absorbing"] = tuple(val)
    return val


def _one_absorbing(I: Ideal, dm: int) -> TripleResult:
    """a*b*c in I forces a*b in I or c in dm, over nonunit triples: one mask
    test against U_I. Only a failure runs the pair scan, for its minimal
    witness."""
    R = I.ring
    if not _absorbing_masks(R)[R.lattice_position(I.mask)] & ~dm:
        return True, None
    return _one_absorbing_witness(R, I.mask, dm)


def _one_absorbing_witness(R: FiniteRing, im: int, dm: int) -> TripleResult:
    """The first nonunit pair (a, b) with a*b outside I whose colon row
    leaves dm, with the least such c: the scan behind a failed U_I test."""
    cm = R.colon_masks(im)
    notdm = R.nonunits_mask & ~dm
    mul = R.mul_table
    nus = R.nonunit_list
    for a in nus:
        row = mul[a]
        for b in nus:
            ab = row[b]
            if (im >> ab) & 1:
                continue
            bad = cm[ab] & notdm
            if bad:
                return False, (a, b, _lsb(bad))
    raise InvariantError("U_I leaves the bound but the witness scan passed")


# The 2-absorbing kernel scans only nonunit pairs (a, b) with a <= b. If a
# is a unit, then a*b*c in I gives b*c in I, which lies in dm; a unit b is
# the same case, so a pair with a unit has an empty ``bad`` mask. The test is
# symmetric in a and b, so the first failing pair in (a, b) order has a <= b
# and the half scan meets it first, with the same c. The c side needs no
# cut: when a*b is outside I, no unit c puts a*b*c in I.


def _two_absorbing(R: FiniteRing, im: int, dm: int) -> TripleResult:
    """a*b*c in I forces a*b in I or a*c in dm or b*c in dm."""
    cm = R.colon_masks(im)
    cd = R.colon_masks(dm)
    mul = R.mul_table
    nus = R.nonunit_list
    for i, a in enumerate(nus):
        row = mul[a]
        nota = ~cd[a]
        for b in nus[i:]:
            ab = row[b]
            if (im >> ab) & 1:
                continue
            bad = cm[ab] & nota & ~cd[b]
            if bad:
                return False, (a, b, _lsb(bad))
    return True, None


def _two_absorbing_results(R: FiniteRing) -> tuple[TripleResult, ...]:
    """The 2-absorbing kernel at dm = I for each proper ideal I, in lattice
    order: the ring's 2-absorbing verdicts and witnesses, built once."""
    val = R.cache.get("two_absorbing")
    if val is None:
        val = R.cache["two_absorbing"] = tuple(
            _two_absorbing(R, I.mask, I.mask) for I in R.proper_ideals())
    return val


# ----------------------------------------------------------------------
# expansion-primary pairs (two-element conclusions)


def delta_primary_check(I: Ideal, delta: ExpansionFunction) -> PairResult:
    """a*b in I forces a in I or b in delta(I), over all ring elements: the
    pair-primary test at delta(I)."""
    _require_proper(I, "is_delta_primary")
    return _pair_primary(I, delta(I).mask)


def is_delta_primary(I: Ideal, delta: ExpansionFunction) -> bool:
    return delta_primary_check(I, delta)[0]


def delta_semiprimary_check(I: Ideal, delta: ExpansionFunction) -> PairResult:
    """a*b in I forces a in delta(I) or b in delta(I)."""
    _require_proper(I, "is_delta_semiprimary")
    dm = delta(I).mask
    return _memo(I, dm, "delta_semiprimary", lambda: _pair_kernel(I.ring, I.mask, dm, dm))


def is_delta_semiprimary(I: Ideal, delta: ExpansionFunction) -> bool:
    return delta_semiprimary_check(I, delta)[0]


# ----------------------------------------------------------------------
# one-absorbing predicates (nonunit triples)


def one_absorbing_delta_primary_check(I: Ideal, delta: ExpansionFunction) -> TripleResult:
    """a*b*c in I forces a*b in I or c in delta(I), over nonunit triples."""
    _require_proper(I, "is_one_absorbing_delta_primary")
    return _one_absorbing(I, delta(I).mask)


def is_one_absorbing_delta_primary(I: Ideal, delta: ExpansionFunction) -> bool:
    return one_absorbing_delta_primary_check(I, delta)[0]


def one_absorbing_delta_primary_scan(I: Ideal, delta: ExpansionFunction) -> TripleResult:
    """Naive definitional triple loop, the oracle for the 1-absorbing kernel."""
    _require_proper(I, "one_absorbing_delta_primary_scan")
    R = I.ring
    im, dm = I.mask, delta(I).mask
    mul = R.mul_table
    nus = R.nonunit_list
    for a in nus:
        row_a = mul[a]
        for b in nus:
            ab = row_a[b]
            if (im >> ab) & 1:
                continue
            row_ab = mul[ab]
            for c in nus:
                if (im >> row_ab[c]) & 1 and not (dm >> c) & 1:
                    return False, (a, b, c)
    return True, None


def one_absorbing_prime_check(I: Ideal) -> TripleResult:
    """a*b*c in I forces a*b in I or c in I: the 1-absorbing test at I."""
    _require_proper(I, "is_one_absorbing_prime")
    return _one_absorbing(I, I.mask)


def is_one_absorbing_prime(I: Ideal) -> bool:
    return one_absorbing_prime_check(I)[0]


def one_absorbing_primary_check(I: Ideal) -> TripleResult:
    """a*b*c in I forces a*b in I or c in the radical of I: the 1-absorbing
    test at rad(I)."""
    _require_proper(I, "is_one_absorbing_primary")
    return _one_absorbing(I, radical(I).mask)


def is_one_absorbing_primary(I: Ideal) -> bool:
    return one_absorbing_primary_check(I)[0]


# ----------------------------------------------------------------------
# two-absorbing predicates (all element triples)


def two_absorbing_check(I: Ideal) -> TripleResult:
    """a*b*c in I forces a*b in I or a*c in I or b*c in I: the 2-absorbing
    kernel at I."""
    _require_proper(I, "is_two_absorbing")
    R = I.ring
    return _two_absorbing_results(R)[R.lattice_position(I.mask)]


def is_two_absorbing(I: Ideal) -> bool:
    return two_absorbing_check(I)[0]


def two_absorbing_delta_primary_check(I: Ideal, delta: ExpansionFunction) -> TripleResult:
    """a*b*c in I forces a*b in I or a*c in delta(I) or b*c in delta(I),
    over all element triples.

    The condition only weakens as delta(I) grows, and delta(I) contains I,
    so a 2-absorbing ideal passes under every delta: the kernel runs at
    delta(I) only where I is not 2-absorbing.
    """
    _require_proper(I, "is_two_absorbing_delta_primary")
    R = I.ring
    im, dm = I.mask, delta(I).mask
    got = _two_absorbing_results(R)[R.lattice_position(im)]
    if got[0] or dm == im:
        return got
    return _memo(I, dm, "two_absorbing_delta_primary", lambda: _two_absorbing(R, im, dm))


def is_two_absorbing_delta_primary(I: Ideal, delta: ExpansionFunction) -> bool:
    return two_absorbing_delta_primary_check(I, delta)[0]


def two_absorbing_delta_primary_scan(I: Ideal, delta: ExpansionFunction) -> TripleResult:
    """Pair scan over all elements a, b, the oracle for the 2-absorbing kernel."""
    _require_proper(I, "two_absorbing_delta_primary_scan")
    R = I.ring
    im, dm = I.mask, delta(I).mask
    cm = R.colon_masks(im)
    cd = R.colon_masks(dm)
    mul = R.mul_table
    for a in range(R.order):
        row = mul[a]
        nota = ~cd[a]
        for b in range(R.order):
            ab = row[b]
            if (im >> ab) & 1:
                continue
            bad = cm[ab] & nota & ~cd[b]
            if bad:
                return False, (a, b, _lsb(bad))
    return True, None


# ----------------------------------------------------------------------
# ideal-wise form of the one-absorbing condition


def idealwise_one_absorbing_check(I: Ideal, delta: ExpansionFunction) -> IdealTripleResult:
    """Products of proper ideals in place of element triples.

    For proper I1, I2, I3: I1*I2*I3 inside I forces I1*I2 inside I or I3
    inside delta(I). For a fixed pair with I1*I2 not inside I, the ideals
    I3 allowed by the premise are exactly those inside (I : I1*I2), which
    is then proper, so only the colon itself needs testing.
    """
    _require_proper(I, "idealwise_one_absorbing_check")
    dm = delta(I).mask

    def compute():
        R = I.ring
        proper = R.proper_ideals()
        for I1 in proper:
            for I2 in proper:
                P12 = _cached_product(R, I1, I2)
                if not (P12 & ~I.mask):
                    continue
                K = ideal_colon(I, Ideal(R, P12))
                if K.mask & ~dm:
                    return False, (I1, I2, K)
        return True, None

    return _memo(I, dm, "idealwise_one_absorbing", compute)


def idealwise_one_absorbing_scan(I: Ideal, delta: ExpansionFunction) -> IdealTripleResult:
    """Naive triple loop over proper ideals, the oracle for the colon form."""
    _require_proper(I, "idealwise_one_absorbing_scan")
    R = I.ring
    dm = delta(I).mask
    proper = R.proper_ideals()
    for I1 in proper:
        for I2 in proper:
            P12 = _cached_product(R, I1, I2)
            p12_inside = not (P12 & ~I.mask)
            for I3 in proper:
                P123 = _cached_product(R, Ideal(R, P12), I3)
                if not (P123 & ~I.mask) and not p12_inside and (I3.mask & ~dm):
                    return False, (I1, I2, I3)
    return True, None


def _cached_product(R: FiniteRing, I: Ideal, J: Ideal) -> int:
    cache = R.cache.setdefault("pairwise_products", {})
    key = (I.mask, J.mask) if I.mask <= J.mask else (J.mask, I.mask)
    got = cache.get(key)
    if got is None:
        got = ideal_product(I, J).mask
        cache[key] = got
    return got


# ----------------------------------------------------------------------
# named registry and the classification matrix

# Every check by name, in column order. The entries look the checks up by
# their module-global names at call time, so a wrapper installed on this
# module (a profiler or tracer) sees every call.
_CHECKS = {
    "prime": lambda I, d: prime_check(I),
    "maximal": lambda I, d: maximal_check(I),
    "primary": lambda I, d: primary_check(I),
    "2abs": lambda I, d: two_absorbing_check(I),
    "1abs-prime": lambda I, d: one_absorbing_prime_check(I),
    "1abs-primary": lambda I, d: one_absorbing_primary_check(I),
    "delta-primary": lambda I, d: delta_primary_check(I, d),
    "delta-semiprimary": lambda I, d: delta_semiprimary_check(I, d),
    "1abs-delta-primary": lambda I, d: one_absorbing_delta_primary_check(I, d),
    "2abs-delta-primary": lambda I, d: two_absorbing_delta_primary_check(I, d),
}

PREDICATES = {name: (lambda I, d, check=check: check(I, d)[0]) for name, check in _CHECKS.items()}

DELTA_FREE = frozenset({"prime", "maximal", "primary", "2abs", "1abs-prime", "1abs-primary"})

PREDICATE_NAMES = tuple(PREDICATES)


# The six checks that one mask test decides: name -> (the obstruction masks
# of the proper ideals, the lattice positions of their bounds).
_MASK_TESTS = {
    "prime": (_zero_divisor_masks, lambda R, d: range(len(R.proper_ideals()))),
    "primary": (_zero_divisor_masks, lambda R, d: _radical_positions(R)),
    "delta-primary": (_zero_divisor_masks, lambda R, d: d.table),
    "1abs-prime": (_absorbing_masks, lambda R, d: range(len(R.proper_ideals()))),
    "1abs-primary": (_absorbing_masks, lambda R, d: _radical_positions(R)),
    "1abs-delta-primary": (_absorbing_masks, lambda R, d: d.table),
}


def _verdicts(
    name: str, R: FiniteRing, delta: Optional[ExpansionFunction] = None
) -> tuple[bool, ...]:
    """The value of check ``name`` at each proper ideal of R, in lattice order.

    Computed once and kept on the expansion, or on R for the delta-free
    checks, so a sweep indexes a tuple instead of calling the check per
    instance. The checks of ``_MASK_TESTS`` take one mask test per entry;
    the other four go through ``_CHECKS``.
    """
    if name in DELTA_FREE:
        store = R.cache.setdefault("verdicts", {})
    elif delta.verdicts is None:
        store = delta.verdicts = {}
    else:
        store = delta.verdicts
    got = store.get(name)
    if got is None:
        test = _MASK_TESTS.get(name)
        if test is None:
            check = _CHECKS[name]
            got = tuple(check(I, delta)[0] for I in R.proper_ideals())
        else:
            obstruction, bound = test
            lattice = R.ideals()
            got = tuple(not o & ~lattice[q].mask for o, q in zip(obstruction(R), bound(R, delta)))
        store[name] = got
    return got


def evaluate_predicate(name: str, I: Ideal, delta: Optional[ExpansionFunction]) -> bool:
    if name not in PREDICATES:
        raise KeyError(f"unknown predicate {name!r}")
    if name not in DELTA_FREE and delta is None:
        raise ValueError(f"predicate {name!r} needs an expansion")
    return PREDICATES[name](I, delta)


@dataclass
class ClassifyRow:
    """One proper ideal with its full predicate profile."""

    ideal: Ideal
    values: dict[str, bool]
    witnesses: dict[str, object]


def classify(R: FiniteRing, delta: ExpansionFunction) -> list[ClassifyRow]:
    """The predicate matrix over every proper ideal, in canonical order.

    Witnesses are recorded for failing predicates: element pairs or triples
    for the scan-based ones, and a strictly larger proper ideal for
    maximality.
    """
    rows = []
    for I in R.proper_ideals():
        values: dict[str, bool] = {}
        witnesses: dict[str, object] = {}
        for name, check in _CHECKS.items():
            ok, wit = check(I, delta)
            values[name] = ok
            if not ok and wit is not None:
                witnesses[name] = wit
        rows.append(ClassifyRow(I, values, witnesses))
    return rows
