"""The absorbing and expansion-primary predicate hierarchy.

Every predicate takes a proper ideal (and, where relevant, an expansion)
and reports a boolean together with a lexicographically minimal witness on
failure. The one-absorbing checks come in two forms: an optimized kernel
driven by colon bitmasks, and a naive definitional triple loop kept as an
oracle. The two-absorbing kernels scan nonunit pairs only, and an
all-element pair scan is kept as their oracle. Each kernel is exercised
against its oracle by the test suite.

Results are memoized per ring, keyed by ideal mask and expansion table, so
repeated sweeps stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ProperIdealError
from .expansions import ExpansionFunction
from .ideals import (
    Ideal,
    ideal_colon,
    ideal_product,
    is_maximal,
    is_prime,
    is_primary,
    maximal_check,
    primary_check,
    prime_check,
    radical,
)
from .rings import FiniteRing


def _lsb(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _require_proper(I: Ideal, what: str) -> None:
    if not I.is_proper:
        raise ProperIdealError(f"{what} needs a proper ideal")


def _memo(I: Ideal, delta: Optional[ExpansionFunction], name: str, compute):
    cache = I.ring.cache.setdefault("predicates", {})
    key = (name, I.mask, None if delta is None else delta.table)
    got = cache.get(key)
    if got is None:
        got = compute()
        cache[key] = got
    return got


# ----------------------------------------------------------------------
# expansion-primary pairs (two-element conclusions)


def delta_primary_check(
    I: Ideal, delta: ExpansionFunction
) -> tuple[bool, Optional[tuple[int, int]]]:
    """a*b in I forces a in I or b in delta(I), over all ring elements."""
    _require_proper(I, "is_delta_primary")

    def compute():
        R = I.ring
        im, dm = I.mask, delta(I).mask
        cm = R.colon_masks(im)
        for a in range(R.order):
            if (im >> a) & 1:
                continue
            bad = cm[a] & ~dm
            if bad:
                return False, (a, _lsb(bad))
        return True, None

    return _memo(I, delta, "delta_primary", compute)


def is_delta_primary(I: Ideal, delta: ExpansionFunction) -> bool:
    return delta_primary_check(I, delta)[0]


def delta_semiprimary_check(
    I: Ideal, delta: ExpansionFunction
) -> tuple[bool, Optional[tuple[int, int]]]:
    """a*b in I forces a in delta(I) or b in delta(I)."""
    _require_proper(I, "is_delta_semiprimary")

    def compute():
        R = I.ring
        im, dm = I.mask, delta(I).mask
        cm = R.colon_masks(im)
        for a in range(R.order):
            if (dm >> a) & 1:
                continue
            bad = cm[a] & ~dm
            if bad:
                return False, (a, _lsb(bad))
        return True, None

    return _memo(I, delta, "delta_semiprimary", compute)


def is_delta_semiprimary(I: Ideal, delta: ExpansionFunction) -> bool:
    return delta_semiprimary_check(I, delta)[0]


# ----------------------------------------------------------------------
# one-absorbing predicates (nonunit triples)


def one_absorbing_delta_primary_check(
    I: Ideal, delta: ExpansionFunction
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """a*b*c in I forces a*b in I or c in delta(I), over nonunit triples.

    The fast path scans each distinct nonunit pair product d outside I once
    and asks whether some nonunit c outside delta(I) lands d*c back in I,
    which is a colon-mask lookup. The definitional pair scan only runs to
    recover the minimal witness after a failure.
    """
    _require_proper(I, "is_one_absorbing_delta_primary")

    def compute():
        R = I.ring
        im, dm = I.mask, delta(I).mask
        numask = R.nonunits_mask
        cm = R.colon_masks(im)
        notdm = numask & ~dm
        d = R.nonunit_product_mask & ~im
        hit = False
        while d:
            low = d & -d
            if cm[low.bit_length() - 1] & notdm:
                hit = True
                break
            d ^= low
        if not hit:
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
        raise AssertionError("fast path and witness scan disagree")

    return _memo(I, delta, "one_absorbing_delta_primary", compute)


def is_one_absorbing_delta_primary(I: Ideal, delta: ExpansionFunction) -> bool:
    return one_absorbing_delta_primary_check(I, delta)[0]


def one_absorbing_delta_primary_scan(
    I: Ideal, delta: ExpansionFunction
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Naive definitional triple loop, the oracle for the optimized kernel."""
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


def one_absorbing_prime_check(
    I: Ideal,
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """a*b*c in I forces a*b in I or c in I, by direct definitional scan."""
    _require_proper(I, "is_one_absorbing_prime")

    def compute():
        R = I.ring
        im = I.mask
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
                    if (im >> row_ab[c]) & 1 and not (im >> c) & 1:
                        return False, (a, b, c)
        return True, None

    return _memo(I, None, "one_absorbing_prime", compute)


def is_one_absorbing_prime(I: Ideal) -> bool:
    return one_absorbing_prime_check(I)[0]


def one_absorbing_primary_check(
    I: Ideal,
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """a*b*c in I forces a*b in I or c in the radical of I."""
    _require_proper(I, "is_one_absorbing_primary")

    def compute():
        R = I.ring
        im = I.mask
        rm = radical(I).mask
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
                    if (im >> row_ab[c]) & 1 and not (rm >> c) & 1:
                        return False, (a, b, c)
        return True, None

    return _memo(I, None, "one_absorbing_primary", compute)


def is_one_absorbing_primary(I: Ideal) -> bool:
    return one_absorbing_primary_check(I)[0]


# ----------------------------------------------------------------------
# two-absorbing predicates (all element triples)
#
# The kernels below scan only nonunit pairs (a, b). If a is a unit, then
# a*b*c in I gives b*c in I, which lies in delta(I); a unit b is the same
# case. So a pair with a unit has an empty ``bad`` mask, and skipping it
# leaves the first witness in (a, b) order unchanged. The c side needs no
# cut: when a*b is outside I, no unit c puts a*b*c in I.


def two_absorbing_check(
    I: Ideal,
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """a*b*c in I forces a*b in I or a*c in I or b*c in I."""
    _require_proper(I, "is_two_absorbing")

    def compute():
        R = I.ring
        im = I.mask
        cm = R.colon_masks(im)
        mul = R.mul_table
        nus = R.nonunit_list
        for a in nus:
            row = mul[a]
            nota = ~cm[a]
            for b in nus:
                ab = row[b]
                if (im >> ab) & 1:
                    continue
                bad = cm[ab] & nota & ~cm[b]
                if bad:
                    return False, (a, b, _lsb(bad))
        return True, None

    return _memo(I, None, "two_absorbing", compute)


def is_two_absorbing(I: Ideal) -> bool:
    return two_absorbing_check(I)[0]


def two_absorbing_delta_primary_check(
    I: Ideal, delta: ExpansionFunction
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """a*b*c in I forces a*b in I or a*c in delta(I) or b*c in delta(I),
    over all element triples."""
    _require_proper(I, "is_two_absorbing_delta_primary")

    def compute():
        R = I.ring
        im, dm = I.mask, delta(I).mask
        cm = R.colon_masks(im)
        cd = R.colon_masks(dm)
        mul = R.mul_table
        nus = R.nonunit_list
        for a in nus:
            row = mul[a]
            nota = ~cd[a]
            for b in nus:
                ab = row[b]
                if (im >> ab) & 1:
                    continue
                bad = cm[ab] & nota & ~cd[b]
                if bad:
                    return False, (a, b, _lsb(bad))
        return True, None

    return _memo(I, delta, "two_absorbing_delta_primary", compute)


def is_two_absorbing_delta_primary(I: Ideal, delta: ExpansionFunction) -> bool:
    return two_absorbing_delta_primary_check(I, delta)[0]


def two_absorbing_delta_primary_scan(
    I: Ideal, delta: ExpansionFunction
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Pair scan over all elements a, b, the oracle for the nonunit kernels."""
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


def idealwise_one_absorbing_check(
    I: Ideal, delta: ExpansionFunction
) -> tuple[bool, Optional[tuple[Ideal, Ideal, Ideal]]]:
    """Products of proper ideals in place of element triples.

    For proper I1, I2, I3: I1*I2*I3 inside I forces I1*I2 inside I or I3
    inside delta(I). For a fixed pair with I1*I2 not inside I, the ideals
    I3 allowed by the premise are exactly those inside (I : I1*I2), which
    is then proper, so only the colon itself needs testing.
    """
    _require_proper(I, "idealwise_one_absorbing_check")

    def compute():
        R = I.ring
        dm = delta(I).mask
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

    return _memo(I, delta, "idealwise_one_absorbing", compute)


def idealwise_one_absorbing_scan(
    I: Ideal, delta: ExpansionFunction
) -> tuple[bool, Optional[tuple[Ideal, Ideal, Ideal]]]:
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

PREDICATES = {
    "prime": lambda I, d: is_prime(I),
    "maximal": lambda I, d: is_maximal(I),
    "primary": lambda I, d: is_primary(I),
    "2abs": lambda I, d: is_two_absorbing(I),
    "1abs-prime": lambda I, d: is_one_absorbing_prime(I),
    "1abs-primary": lambda I, d: is_one_absorbing_primary(I),
    "delta-primary": lambda I, d: is_delta_primary(I, d),
    "delta-semiprimary": lambda I, d: is_delta_semiprimary(I, d),
    "1abs-delta-primary": lambda I, d: is_one_absorbing_delta_primary(I, d),
    "2abs-delta-primary": lambda I, d: is_two_absorbing_delta_primary(I, d),
}

DELTA_FREE = frozenset({"prime", "maximal", "primary", "2abs", "1abs-prime", "1abs-primary"})

PREDICATE_NAMES = tuple(PREDICATES)


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

        checks = [
            ("prime", prime_check(I)),
            ("maximal", maximal_check(I)),
            ("primary", primary_check(I)),
            ("2abs", two_absorbing_check(I)),
            ("1abs-prime", one_absorbing_prime_check(I)),
            ("1abs-primary", one_absorbing_primary_check(I)),
            ("delta-primary", delta_primary_check(I, delta)),
            ("delta-semiprimary", delta_semiprimary_check(I, delta)),
            ("1abs-delta-primary", one_absorbing_delta_primary_check(I, delta)),
            ("2abs-delta-primary", two_absorbing_delta_primary_check(I, delta)),
        ]
        for name, (ok, wit) in checks:
            values[name] = ok
            if not ok and wit is not None:
                witnesses[name] = wit
        rows.append(ClassifyRow(I, values, witnesses))
    return rows
