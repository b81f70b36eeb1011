"""The absorbing and expansion-primary predicate hierarchy.

Every predicate takes a proper ideal (and, where relevant, an expansion)
and reports a boolean together with a lexicographically minimal witness on
failure. Each condition asks whether some obstruction stays inside a bound
m, where m is I itself, rad(I) or delta(I); the checks never depend on
delta beyond the mask of delta(I).

Each condition only weakens as m grows, so at a proper ideal I the bounds
at which a check holds form an up-set of the ideal lattice. That up-set is
kept as an int over lattice positions, I's pass set: bit q is set when the
check holds with the ideal at position q as its bound. There is one pass
set per conclusion shape, built for every proper ideal once per ring and
cached on the ring. Every one is read from one per-ring table of
principal colons (``ideals._principal_colons``): (I : x) = (I : (x)), so
the colon by any element is the colon by its principal ideal's smallest
generator, kept as a lattice position, and each builder loops over
principal classes, never over elements.

- prime, primary and delta-primary: {J : V_I inside J}, where V_I, the set
  of zero-divisors modulo I, is the union of (I : x) over the x outside I
  (``ideals._primary_pass_sets``);
- the three 1-absorbing checks: {J : U_I inside J}, where U_I, the set of
  last factors of the nonunit triples that break the condition at I, is
  the union of (I : v) over the products v of two nonunits outside I
  (``_one_absorbing_pass_sets``, over the classes of ``_nonunit_products``);
- maximal: every bound or none (``ideals._maximal_pass_sets``);
- 2-absorbing and 2-absorbing delta-primary, delta-semiprimary and the
  ideal-wise form: built over pairs of principal or of proper ideals
  (``_two_absorbing_pass_sets``, ``_semiprimary_pass_sets``,
  ``_idealwise_pass_sets``).

``_PASS_SETS`` holds each check read at delta(I), with its pass sets and
witness scan, and ``_STOCK`` each delta-free check as one of them read at
delta = id or rad (prime is delta-primary at id, primary is it at rad).
``_verdicts`` reads a check's pass sets at an expansion's table into an int
over the proper ideals, its verdict vector, kept in the table's record: the
one way to evaluate a check over a ring. One kernel, ``_fill``, builds the
vectors of the four checks read at delta(I) in one pass over a table's
proper positions, on the first read of any of them, from one word per
position that packs their pass sets in lanes of stride n = |lattice|
(``_packed_pass_sets``), and every other check alone, as one lane of its
own pass sets. The sweeps combine the vectors bitwise and count them by
popcount, ``classify`` reads each of the ten once per (ring, delta), and a
``search`` query is a bitwise formula over them;
``FiniteRing.maximal_ideals``, ``FiniteRing.spectrum`` and
``ideals.is_prime_element`` read them too. At one ideal, ``PREDICATES``
reads the bit at I's lattice position, and every check (``_check``, the
three in ``ideals`` as well) runs the row's witness scan only where that
bit is 0, for the minimal witness: no scan runs on a pass. The witness
scans, ``ideals.colon``, ``ideals.ideal_colon`` and the definitional
``*_scan`` oracles of the test suite read their colons off one table
(``ideals._element_colons``).
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import count
from operator import and_
from typing import Optional

from .errors import InvariantError, RingMismatchError, RinglabError
from .expansions import (
    ExpansionFunction, _meet_table, _scaling_table, identity_expansion, radical_expansion)
from .ideals import (
    Ideal,
    _colon_up_sets,
    _element_colons,
    _larger_ideal,
    _lsb,
    _maximal_pass_sets,
    _pair_kernel,
    _primary_pass_sets,
    _principal_colons,
    _principal_table,
    _require_proper,
    _up_sets,
    generator_list,
    ideal_product,
    maximal_check,
    primary_check,
    prime_check,
)
from .rings import FiniteRing, _per_ring

PairResult = tuple[bool, Optional[tuple[int, int]]]
TripleResult = tuple[bool, Optional[tuple[int, int, int]]]
IdealTripleResult = tuple[bool, Optional[tuple[Ideal, Ideal, Ideal]]]


# No caller: the pass sets replaced it, and bench/tracing.py still patches it.
def _memo(I: Ideal, dm: int, name: str, compute):
    cache = I.ring.cache.setdefault("predicates", {})
    key = (name, I.mask, dm)
    got = cache.get(key)
    if got is None:
        got = compute()
        cache[key] = got
    return got


# ----------------------------------------------------------------------
# the 1-absorbing and 2-absorbing pass sets and witness scans


@_per_ring("nonunit_products")
def _nonunit_products(R: FiniteRing) -> dict[int, tuple[tuple[int, int], ...]]:
    """The principal classes of the products of two nonunits, each with its
    pairs (a, b) of nonunit class generators, a <= b, whose product lies in
    it. (a*b) = (a)(b), so the class of a product depends only on the
    classes of its factors, and the keys are the classes (``cls`` of
    ``_principal_colons``) of the products of two nonunits."""
    gens, cls, _ = _principal_colons(R)
    nu = R.nonunits_mask
    nus = [g for g in gens if (nu >> g) & 1]
    mul = R.mul_table
    val: dict[int, list[tuple[int, int]]] = {}
    for i, a in enumerate(nus):
        row = mul[a]
        for b in nus[i:]:
            val.setdefault(cls[row[b]], []).append((a, b))
    return {j: tuple(pairs) for j, pairs in val.items()}


@_per_ring("one_absorbing_pass")
def _one_absorbing_pass_sets(R: FiniteRing) -> tuple[int, ...]:
    """{J : U_I inside J} for each proper ideal I, in lattice order.

    U_I is the set of nonunits c with v*c in I for some product v of two
    nonunits that lies outside I: the union of the colons (I : v) over
    those v, each of which holds only nonunits, since v lies outside I. A
    nonunit triple with a*b*c in I and a*b outside I has its c in U_I, and
    every c in U_I ends such a triple, so "a*b*c in I forces a*b in I or
    c in m" holds exactly when U_I lies inside m: 1-absorbing prime at
    m = I, 1-absorbing primary at m = rad(I), 1-absorbing delta-primary at
    m = delta(I). The pass set is the AND of UP[(I : v)] over those v, read
    at one generator per principal class of products.
    """
    up = _colon_up_sets(R)
    full = up[-1]
    classes = tuple(_nonunit_products(R))
    return tuple(
        reduce(and_, {up[row[j]] for j in classes}, full) for row in _principal_colons(R)[2])


def _one_absorbing_witness(R: FiniteRing, im: int, dm: int) -> TripleResult:
    """The first nonunit pair (a, b) with a*b outside I whose colon
    (I : a*b) leaves dm, with the least such c: the scan behind a failed
    bit."""
    cm = _element_colons(R, im)
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
    return True, None


# The 2-absorbing scan covers only nonunit pairs (a, b) with a <= b. If a
# is a unit, then a*b*c in I gives b*c in I, which lies in dm; a unit b is
# the same case, so a pair with a unit has an empty ``bad`` mask. The test is
# symmetric in a and b, so the first failing pair in (a, b) order has a <= b
# and the half scan meets it first, with the same c. The c side needs no
# cut: when a*b is outside I, no unit c puts a*b*c in I.


def _two_absorbing(R: FiniteRing, im: int, dm: int) -> TripleResult:
    """a*b*c in I forces a*b in I or a*c in dm or b*c in dm."""
    cm = _element_colons(R, im)
    cd = _element_colons(R, dm)
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


@_per_ring("two_absorbing_pass")
def _two_absorbing_pass_sets(R: FiniteRing) -> tuple[int, ...]:
    """The bounds J at which "a*b*c in I forces a*b in I or a*c in J or b*c
    in J" holds, for each proper ideal I, in lattice order.

    Take nonunits a <= b with a*b outside I, and K = (I : a*b). The bad c
    at J are those of K outside (J : a) and (J : b). An ideal inside the
    union of two ideals lies inside one of them, so the pair passes at J
    exactly when a*K or b*K lies inside J. a*K = (a)K, and K depends only
    on (a*b) = (a)(b), so one generator per proper principal ideal stands
    for all its generators (``_nonunit_products``); K is read from the
    principal colons and a*K from the scaling table.
    """
    up = _up_sets(R)
    top = len(up) - 1
    scaled = _scaling_table(R)
    groups = [(j, [(scaled[a], scaled[b]) for a, b in pairs])
              for j, pairs in _nonunit_products(R).items()]
    val = []
    for p, row in enumerate(_principal_colons(R)[2]):
        s = up[p]
        for j, pairs in groups:
            k = row[j]
            if k != top:  # a*b outside I
                for sa, sb in pairs:
                    s &= up[sa[k]] | up[sb[k]]
        val.append(s)
    return tuple(val)


# ----------------------------------------------------------------------
# expansion-primary pairs (two-element conclusions)


def delta_primary_check(I: Ideal, delta: ExpansionFunction) -> PairResult:
    """a*b in I forces a in I or b in delta(I), over all ring elements: the
    pair-primary test at delta(I)."""
    return _check("delta-primary", I, delta)


def is_delta_primary(I: Ideal, delta: ExpansionFunction) -> bool:
    return delta_primary_check(I, delta)[0]


@_per_ring("semiprimary_pass")
def _semiprimary_pass_sets(R: FiniteRing) -> tuple[int, ...]:
    """The bounds J at which "a*b in I forces a in J or b in J" holds, for
    each proper ideal I, in lattice order: the AND over a of
    UP[(a)] | UP[(I : a)]. For a outside J, every b with a*b in I, that is
    all of (I : a), must lie in J. (I : a) = (I : (a)), so one generator per
    principal ideal is enough: one row of ``_principal_colons``."""
    up = _up_sets(R)
    pos = R._lattice_positions()
    up_gens = [up[pos[m]] for m in _principal_table(R)]
    val = []
    for p, row in enumerate(_principal_colons(R)[2]):
        s = up[p]
        for up_g, k in zip(up_gens, row):
            s &= up_g | up[k]
        val.append(s)
    return tuple(val)


def delta_semiprimary_check(I: Ideal, delta: ExpansionFunction) -> PairResult:
    """a*b in I forces a in delta(I) or b in delta(I)."""
    return _check("delta-semiprimary", I, delta)


def is_delta_semiprimary(I: Ideal, delta: ExpansionFunction) -> bool:
    return delta_semiprimary_check(I, delta)[0]


# ----------------------------------------------------------------------
# one-absorbing predicates (nonunit triples)


def one_absorbing_delta_primary_check(I: Ideal, delta: ExpansionFunction) -> TripleResult:
    """a*b*c in I forces a*b in I or c in delta(I), over nonunit triples."""
    return _check("1abs-delta-primary", I, delta)


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
    return _check("1abs-prime", I)


def is_one_absorbing_prime(I: Ideal) -> bool:
    return one_absorbing_prime_check(I)[0]


def one_absorbing_primary_check(I: Ideal) -> TripleResult:
    """a*b*c in I forces a*b in I or c in the radical of I: the 1-absorbing
    test at rad(I)."""
    return _check("1abs-primary", I)


def is_one_absorbing_primary(I: Ideal) -> bool:
    return one_absorbing_primary_check(I)[0]


# ----------------------------------------------------------------------
# two-absorbing predicates (all element triples)


def two_absorbing_check(I: Ideal) -> TripleResult:
    """a*b*c in I forces a*b in I or a*c in I or b*c in I: the 2-absorbing
    test at I."""
    return _check("2abs", I)


def is_two_absorbing(I: Ideal) -> bool:
    return two_absorbing_check(I)[0]


def two_absorbing_delta_primary_check(I: Ideal, delta: ExpansionFunction) -> TripleResult:
    """a*b*c in I forces a*b in I or a*c in delta(I) or b*c in delta(I),
    over all element triples."""
    return _check("2abs-delta-primary", I, delta)


def is_two_absorbing_delta_primary(I: Ideal, delta: ExpansionFunction) -> bool:
    return two_absorbing_delta_primary_check(I, delta)[0]


def two_absorbing_delta_primary_scan(I: Ideal, delta: ExpansionFunction) -> TripleResult:
    """Pair scan over all elements a, b, the oracle for the 2-absorbing kernel."""
    _require_proper(I, "two_absorbing_delta_primary_scan")
    R = I.ring
    im, dm = I.mask, delta(I).mask
    cm = _element_colons(R, im)
    cd = _element_colons(R, dm)
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
    is then proper, so only the colon itself needs testing. The witness is
    (I1, I2, (I : I1*I2)) for the first such pair whose colon leaves
    delta(I).
    """
    return _check("idealwise", I, delta)


@_per_ring("idealwise_pass")
def _idealwise_pass_sets(R: FiniteRing) -> tuple[int, ...]:
    """{J : W_I inside J} for each proper ideal I, in lattice order, where
    W_I is the union of (I : P) over the distinct products P of two proper
    ideals with P outside I. x*I1*I2 lies in I exactly when each x*g*h does,
    for g and h generators of I1 and I2, so (I : P) is the meet of I's
    ``_principal_colons`` row at the classes of the g*h, which key P: no
    product is formed. It is the unit ideal exactly when P lies inside I,
    where ``_colon_up_sets`` skips it."""
    up, meet = _colon_up_sets(R), _meet_table(R)
    _, cls, table = _principal_colons(R)
    gens = [generator_list(I) for I in R.proper_ideals()]
    keys = {frozenset([cls[R.mul_table[g][h]] for g in g1 for h in g2])
            for i, g1 in enumerate(gens) for g2 in gens[i:]}
    top = len(up) - 1  # the unit ideal, below which every meet lies
    val = []
    for row in table:
        s = up[top]
        for key in keys:
            k = top
            for j in key:
                k = meet[k][row[j]]
            s &= up[k]
        val.append(s)
    return tuple(val)


def _idealwise_witness(R: FiniteRing, im: int, dm: int) -> IdealTripleResult:
    """The first pair of proper ideals (I1, I2) with I1*I2 outside I whose
    colon (I : I1*I2) leaves dm, with that colon."""
    colons = _element_colons(R, im)
    proper = R.proper_ideals()
    for I1 in proper:
        for I2 in proper:
            P12 = ideal_product(I1, I2)
            if P12.mask & ~im:
                K = reduce(and_, [colons[g] for g in generator_list(P12)])
                if K & ~dm:
                    return False, (I1, I2, Ideal(R, K))
    return True, None


def idealwise_one_absorbing_scan(I: Ideal, delta: ExpansionFunction) -> IdealTripleResult:
    """Naive triple loop over proper ideals, the oracle for the colon form."""
    _require_proper(I, "idealwise_one_absorbing_scan")
    R = I.ring
    dm = delta(I).mask
    proper = R.proper_ideals()
    for I1 in proper:
        for I2 in proper:
            P12 = ideal_product(I1, I2)
            p12_inside = not (P12.mask & ~I.mask)
            for I3 in proper:
                P123 = ideal_product(P12, I3)
                if not (P123.mask & ~I.mask) and not p12_inside and (I3.mask & ~dm):
                    return False, (I1, I2, I3)
    return True, None


# ----------------------------------------------------------------------
# named registry and the classification matrix

# Every check read at delta(I), and the ideal-wise form that T-DEF-EQ
# compares, as (its pass sets, its witness scan, which takes R and the masks
# of I and of the bound, the name its ProperIdealError gives). Maximal holds
# at every bound or none, so no expansion changes its vector.
_PASS_SETS = {
    "maximal": (_maximal_pass_sets, _larger_ideal, "is_maximal"),
    "delta-primary": (_primary_pass_sets, lambda R, im, bm: _pair_kernel(R, im, bm, im),
                      "is_delta_primary"),
    "delta-semiprimary": (_semiprimary_pass_sets, lambda R, im, bm: _pair_kernel(R, im, bm, bm),
                          "is_delta_semiprimary"),
    "1abs-delta-primary": (_one_absorbing_pass_sets, _one_absorbing_witness,
                           "is_one_absorbing_delta_primary"),
    "2abs-delta-primary": (_two_absorbing_pass_sets, _two_absorbing,
                           "is_two_absorbing_delta_primary"),
    "idealwise": (_idealwise_pass_sets, _idealwise_witness, "idealwise_one_absorbing_check"),
}

# Every check that takes no expansion, as (the check it is read as, the
# stock expansion it is read at, whose delta(I) is I or rad(I), the name its
# ProperIdealError gives). Both read one vector in that expansion's record.
_STOCK = {
    "prime": ("delta-primary", identity_expansion, "is_prime"),
    "maximal": ("maximal", identity_expansion, "is_maximal"),
    "primary": ("delta-primary", radical_expansion, "is_primary"),
    "2abs": ("2abs-delta-primary", identity_expansion, "is_two_absorbing"),
    "1abs-prime": ("1abs-delta-primary", identity_expansion, "is_one_absorbing_prime"),
    "1abs-primary": ("1abs-delta-primary", radical_expansion, "is_one_absorbing_primary"),
}

DELTA_FREE = frozenset(_STOCK)

# The checks that ``_fill`` builds together: every row but maximal, which a ring
# reads alone for its radicals, and the ideal-wise form, whose pass sets form
# the product of every pair of proper ideals and which only T-DEF-EQ reads.
_FUSED = tuple(name for name in _PASS_SETS if name not in ("maximal", "idealwise"))


def _verdicts(name: str, R: FiniteRing, delta: Optional[ExpansionFunction] = None,
              alone: bool = False) -> int:
    """The verdict vector of check ``name`` on R: bit p is set when the
    check holds at the proper ideal at lattice position p, and no bit at or
    above the unit ideal's position is set.

    Kept in the verdicts of the expansion it is read at, delta or, for a
    delta-free check, id or rad, so a sweep combines ints instead of
    calling the check per instance. A hit in delta's record is one dict
    lookup, before ``_STOCK`` is read: records hold ``_PASS_SETS`` rows
    only, and maximal only in id's, so a stock name is still read at id or
    rad. A miss fills the record that missed, and only it: with the vectors
    of every check in ``_FUSED`` at once, out of the ring's packed words,
    when the check read is one of them, unless ``alone`` asks for its own
    only, one lane of its pass sets, which builds no packed words: a check
    at one ideal and a search query read only the checks they name, and the
    others' pass sets would cost them more than one pass saves.
    ``name`` is a check or "idealwise". The sweeps read it through the
    seams that their tests patch: ``verifier._verdicts``, ``_one_abs`` and
    ``_primary``.
    """
    if delta is not None and (got := delta.verdicts.get(name)) is not None:
        return got
    stock = _STOCK.get(name)
    if stock is not None:
        name, delta = stock[0], stock[1](R)
    store = delta.verdicts
    if name not in store:
        _fill(store, _FUSED if name in _FUSED and not alone else (name,), R, delta.table)
    return store[name]


@_per_ring("packed_pass")
def _packed_pass_sets(R: FiniteRing) -> tuple[int, ...]:
    """W[p] = sum of S_i[p] << i*n per proper position p, n = |lattice|, S_i
    the pass sets of the i-th ``_FUSED`` check: each below 1 << n, so bit
    i*n + q of W[p] is bit q of S_i[p], and the lanes do not overlap."""
    n = len(R.ideals())
    return tuple(sum(s << i * n for i, s in enumerate(sets))
                 for sets in zip(*(_PASS_SETS[name][0](R) for name in _FUSED)))


def _fill(store: dict, names: tuple[str, ...], R: FiniteRing, table: tuple[int, ...]) -> None:
    """The verdict vectors of the checks ``names`` at an expansion's
    ``table``, in one pass over R's proper positions, one lane per check:
    the words W are ``_packed_pass_sets`` for ``_FUSED``, or one check's
    pass sets. At p, with q = table[p] the position of delta(I_p), bit i*n
    of W[p] >> q is check i's verdict at I_p; LANES keeps those bits, and
    shifted by p < n - 1 they stay in their lanes of n bits."""
    n, k = len(table), len(names)  # a table has one entry per ideal
    words = _packed_pass_sets(R) if k > 1 else _PASS_SETS[names[0]][0](R)
    lanes = ((1 << k * n) - 1) // ((1 << n) - 1)  # LANES, the sum of 1 << i*n for i < k
    v = 0
    for p, w, q in zip(count(), words, table):
        v |= (w >> q & lanes) << p
    proper = (1 << n - 1) - 1
    for i, name in enumerate(names):
        store[name] = v >> i * n & proper


def _position(I: Ideal, delta: Optional[ExpansionFunction], what: str) -> int:
    """I's lattice position, once I is proper (else a ProperIdealError
    naming ``what``) and delta, if given, is an expansion on I's ring."""
    _require_proper(I, what)
    if delta is not None and delta.ring is not I.ring:
        raise RingMismatchError("ideal belongs to a different ring")
    return I.ring.lattice_position(I.mask)


def _read(name: str, I: Ideal, delta: Optional[ExpansionFunction]) -> tuple[int, int]:
    """I's lattice position and the bit there of check ``name``'s verdict
    vector, built alone if missing; a check that reads delta(I) needs an
    expansion on I's ring."""
    stock = _STOCK.get(name)
    if stock is None and delta is None:
        raise RinglabError(f"predicate {name!r} needs an expansion")
    p = _position(I, delta if stock is None else None, (stock or _PASS_SETS[name])[2])
    return p, _verdicts(name, I.ring, delta, alone=True) >> p & 1


def _check(name: str, I: Ideal, delta: Optional[ExpansionFunction] = None) -> tuple[bool, object]:
    """Check ``name`` at I: the bit of its verdict vector at I's lattice
    position. Only a failure runs the witness scan of the check it is read
    as, at I's bound, for the minimal witness."""
    p, ok = _read(name, I, delta)
    if ok:
        return True, None
    R, stock = I.ring, _STOCK.get(name)
    if stock is not None:
        name, delta = stock[0], stock[1](R)
    got = _PASS_SETS[name][1](R, I.mask, R.ideals()[delta.table[p]].mask)
    if got[0]:
        raise InvariantError("the pass set fails a bound that the witness scan passes")
    return got


def _bit(name: str, I: Ideal, delta: Optional[ExpansionFunction] = None) -> bool:
    """Check ``name`` at I without its witness: the bit alone."""
    return bool(_read(name, I, delta)[1])


# Every check by name, in column order, as a function of (I, delta).
PREDICATES = {name: partial(_bit, name) for name in (*_STOCK, *_PASS_SETS) if name != "idealwise"}

PREDICATE_NAMES = tuple(PREDICATES)


def evaluate_predicate(name: str, I: Ideal, delta: Optional[ExpansionFunction]) -> bool:
    if name not in PREDICATES:
        raise RinglabError(f"unknown predicate {name!r}")
    return PREDICATES[name](I, delta)


def _witness(name: str, I: Ideal, delta: ExpansionFunction) -> object:
    """The witness of check ``name`` failing at I, from its public function
    x_check, named by the row's is_x (this module imports the three from
    ``ideals`` for it). It is looked up at call time, so that a wrapper
    installed here (a profiler or tracer) sees the scan."""
    check = globals()[(_STOCK.get(name) or _PASS_SETS[name])[2][len("is_"):] + "_check"]
    return (check(I) if name in DELTA_FREE else check(I, delta))[1]


class ClassifyRow:
    """One proper ideal with its full predicate profile."""

    __slots__ = ("ideal", "values", "witnesses")

    def __init__(self, ideal: Ideal, values: dict[str, bool],
                 witnesses: dict[str, object]) -> None:
        self.ideal, self.values, self.witnesses = ideal, values, witnesses


def classify(R: FiniteRing, delta: ExpansionFunction) -> list[ClassifyRow]:
    """The predicate matrix over every proper ideal, in canonical order.

    Each check's verdict vector is read once, and a row's values are its
    bits. Only a failing (ideal, check) runs a witness scan, through the
    check: element pairs or triples for the scan-based checks, and a
    strictly larger proper ideal for maximality.
    """
    if delta.ring is not R:
        raise RingMismatchError("expansion belongs to a different ring")
    vectors = [(name, _verdicts(name, R, delta)) for name in PREDICATE_NAMES]
    rows = []
    for p, I in enumerate(R.proper_ideals()):
        values = {name: bool(v >> p & 1) for name, v in vectors}
        witnesses = {name: _witness(name, I, delta) for name, ok in values.items() if not ok}
        rows.append(ClassifyRow(I, values, witnesses))
    return rows

