"""The absorbing and expansion-primary predicate hierarchy.

Every predicate takes a proper ideal (and, where relevant, an expansion)
and reports a boolean together with a lexicographically minimal witness on
failure. Four private kernels, each a function of the masks ``(im, dm)``
of I and of the ideal the conclusion may land in, do all the scanning:
pair-primary and pair-semiprimary (``ideals._pair_kernel``), 1-absorbing
and 2-absorbing. A delta check runs its kernel at dm = delta(I); the
delta-free checks run the same kernel at dm = I (prime, 1-absorbing prime,
2-absorbing) or dm = rad(I) (primary, 1-absorbing primary). The
definitional ``*_scan`` functions are kept as oracles for the test suite.

Results are memoized per ring, keyed by check name and the mask pair
(I, dm), so expansions that agree at I share one entry. ``_verdicts`` keeps
one check's values over all proper ideals as a tuple for the sweeps.
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
    _require_proper,
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
# kernels over the mask pair (im, dm)


def _one_absorbing(R: FiniteRing, im: int, dm: int) -> TripleResult:
    """a*b*c in I forces a*b in I or c in dm, over nonunit triples.

    The fast path scans each distinct nonunit pair product d outside I once
    and asks whether some nonunit c outside dm lands d*c back in I, which
    is a colon-mask lookup. The pair scan only runs to recover the minimal
    witness after a failure.
    """
    cm = R.colon_masks(im)
    notdm = R.nonunits_mask & ~dm
    d = R.nonunit_product_mask & ~im
    while d:
        low = d & -d
        if cm[low.bit_length() - 1] & notdm:
            break
        d ^= low
    else:
        return True, None
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
    raise InvariantError("fast path and witness scan disagree")


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


# ----------------------------------------------------------------------
# expansion-primary pairs (two-element conclusions)


def delta_primary_check(I: Ideal, delta: ExpansionFunction) -> PairResult:
    """a*b in I forces a in I or b in delta(I), over all ring elements."""
    _require_proper(I, "is_delta_primary")
    dm = delta(I).mask
    return _memo(I, dm, "delta_primary", lambda: _pair_kernel(I.ring, I.mask, dm, I.mask))


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
    dm = delta(I).mask
    return _memo(I, dm, "one_absorbing_delta_primary",
                 lambda: _one_absorbing(I.ring, I.mask, dm))


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
    """a*b*c in I forces a*b in I or c in I: the 1-absorbing kernel at I."""
    _require_proper(I, "is_one_absorbing_prime")
    im = I.mask
    return _memo(I, im, "one_absorbing_prime", lambda: _one_absorbing(I.ring, im, im))


def is_one_absorbing_prime(I: Ideal) -> bool:
    return one_absorbing_prime_check(I)[0]


def one_absorbing_primary_check(I: Ideal) -> TripleResult:
    """a*b*c in I forces a*b in I or c in the radical of I: the 1-absorbing
    kernel at rad(I)."""
    _require_proper(I, "is_one_absorbing_primary")
    rm = radical(I).mask
    return _memo(I, rm, "one_absorbing_primary", lambda: _one_absorbing(I.ring, I.mask, rm))


def is_one_absorbing_primary(I: Ideal) -> bool:
    return one_absorbing_primary_check(I)[0]


# ----------------------------------------------------------------------
# two-absorbing predicates (all element triples)


def two_absorbing_check(I: Ideal) -> TripleResult:
    """a*b*c in I forces a*b in I or a*c in I or b*c in I: the 2-absorbing
    kernel at I."""
    _require_proper(I, "is_two_absorbing")
    im = I.mask
    return _memo(I, im, "two_absorbing", lambda: _two_absorbing(I.ring, im, im))


def is_two_absorbing(I: Ideal) -> bool:
    return two_absorbing_check(I)[0]


def two_absorbing_delta_primary_check(I: Ideal, delta: ExpansionFunction) -> TripleResult:
    """a*b*c in I forces a*b in I or a*c in delta(I) or b*c in delta(I),
    over all element triples."""
    _require_proper(I, "is_two_absorbing_delta_primary")
    dm = delta(I).mask
    return _memo(I, dm, "two_absorbing_delta_primary",
                 lambda: _two_absorbing(I.ring, I.mask, dm))


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


def _verdicts(
    name: str, R: FiniteRing, delta: Optional[ExpansionFunction] = None
) -> tuple[bool, ...]:
    """The value of check ``name`` at each proper ideal of R, in lattice order.

    Computed once through ``_CHECKS`` and kept on the expansion, or on R for
    the delta-free checks, so a sweep indexes a tuple instead of calling the
    check per instance.
    """
    if name in DELTA_FREE:
        store = R.cache.setdefault("verdicts", {})
    elif delta.verdicts is None:
        store = delta.verdicts = {}
    else:
        store = delta.verdicts
    got = store.get(name)
    if got is None:
        check = _CHECKS[name]
        got = store[name] = tuple(check(I, delta)[0] for I in R.proper_ideals())
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
