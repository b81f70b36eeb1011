"""Exhaustive statement checks over a generated catalog.

Each statement in the suite is encoded as a conditional sweep: hypotheses
are computed per instance, never assumed, and every instance where they
hold has its conclusion checked. A report carries instance counts, failure
witnesses, and notes; zero conclusion failures with a nonzero hypothesis
count is the expected outcome for every statement.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import reduce
from time import perf_counter
from typing import Callable, Optional

from .catalog import Catalog, CatalogEntry
from .constructions import (
    LocalizationOf,
    ProductOf,
    QuotientOf,
    TrivialExtensionOf,
    _correspondence,
    make_product,
    make_quotient,
)
from .errors import UnknownTheoremError
from .expansions import (
    ExpansionFunction,
    _meet_table,
    _scaling_table,
    from_rule,
    induced_localization,
    induced_product,
    induced_quotient,
    induced_trivial_extension,
    is_delta_gamma_hom,
    is_intersection_preserving,
    is_prime_expansion,
    localization_compatibility,
    preserves_jacobson,
    satisfies_star,
    scaling_check,
)
from .ideals import (
    Ideal,
    _bits,
    _jacobson_square,
    _lsb,
    _principal_colons,
    _principal_positions,
    _radical_positions,
    _up_sets,
    generator_list,
    ideal_intersection,
    is_prime_element,
    is_principal,
    radical,
    span,
)
from .predicates import (
    _verdicts,
    idealwise_one_absorbing_check,
    is_delta_primary,
    one_absorbing_delta_primary_check,
)
from .rings import FiniteRing, _colon_rows, _Record, make_zn
from .specparse import Query, parse_query

FAILURE_CAP = 50


class Witness(_Record):
    """One conclusion failure: where, under which expansion, and why."""

    __slots__ = ("ring", "ideal", "delta", "elements", "detail")

    def __init__(self, ring: str, ideal: tuple[str, ...], delta: str,
                 elements: Optional[tuple[str, ...]], detail: str = "") -> None:
        super().__init__(ring, ideal, delta, elements, detail)

    def to_dict(self) -> dict:
        return {
            "ring": self.ring,
            "ideal": list(self.ideal),
            "delta": self.delta,
            "elements": list(self.elements) if self.elements is not None else None,
            "detail": self.detail,
        }


class TheoremReport(_Record):
    __slots__ = ("theorem_id", "instances_checked", "hypothesis_satisfied",
                 "conclusion_failures", "elapsed", "notes")

    def __init__(self, theorem_id: str, instances_checked: int, hypothesis_satisfied: int,
                 conclusion_failures: tuple[Witness, ...], elapsed: float,
                 notes: tuple[str, ...] = ()) -> None:
        super().__init__(theorem_id, instances_checked, hypothesis_satisfied,
                         conclusion_failures, elapsed, notes)

    @property
    def status(self) -> str:
        return "refuted" if self.conclusion_failures else "verified"

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "status": self.status,
            "instances_checked": self.instances_checked,
            "hypothesis_satisfied": self.hypothesis_satisfied,
            "conclusion_failures": [w.to_dict() for w in self.conclusion_failures],
            "notes": list(self.notes),
            "elapsed": round(self.elapsed, 6),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))


class _Part:
    """The accumulator of one statement's sweep: counts, the first
    ``FAILURE_CAP`` failures and the number dropped past them, and notes.
    ``provenance`` names the entry being swept, for its witnesses, and
    ``sources`` maps each catalog ring, by id, to its entry's expansions."""

    __slots__ = ("provenance", "sources", "checked", "hits", "failures", "dropped", "notes")

    def __init__(self, provenance: str, sources: dict[int, tuple[ExpansionFunction, ...]]) -> None:
        self.provenance, self.sources, self.checked, self.hits, self.dropped = (
            provenance, sources, 0, 0, 0)
        self.failures: list[Witness] = []
        self.notes: list[str] = []

    def instance(self, hypothesis: bool) -> bool:
        self.checked += 1
        if hypothesis:
            self.hits += 1
        return hypothesis

    def instances(self, checked: int, hits: int) -> None:
        """Count a block of instances, ``hits`` of them with the hypothesis."""
        self.checked += checked
        self.hits += hits

    def fail(
        self,
        I: Optional[Ideal],
        delta_label: str,
        elements: Optional[tuple[int, ...]] = None,
        detail: str = "",
        ring: Optional[FiniteRing] = None,
    ) -> None:
        if len(self.failures) >= FAILURE_CAP:
            self.dropped += 1
            return
        R = ring if ring is not None else I.ring
        names = _names(R, elements) if elements is not None else None
        ideal_names = _names(I.ring, I.members_sorted) if I is not None else ()
        self.failures.append(Witness(self.provenance, ideal_names, delta_label, names, detail))


def _names(R: FiniteRing, idxs) -> tuple[str, ...]:
    return tuple(R.element_name(i) for i in idxs)


# Sweeps count the verdict vectors of ``predicates._verdicts`` by popcount and
# walk the set bits of a failure mask such as ``hyp & ~concl``, in ascending
# order so that failures keep their order, and only when it is nonzero. On the
# success path an expansion costs bit operations and table lookups: per-ring
# masks (T-TRIV's pairs, T-COLON's reach rows) and value groups (T-INTER) stand
# in for per-instance loops. Only a failure calls its check, for the witness.
# Tests patch the reads at ``_verdicts``, ``_one_abs`` and ``_primary``.


def _one_abs(d: ExpansionFunction) -> int:
    return _verdicts("1abs-delta-primary", d.ring, d)


def _primary(d: ExpansionFunction) -> int:
    return _verdicts("delta-primary", d.ring, d)


# Every statement's sweep, in suite order, which ``THEOREM_IDS`` lists. T-PROD-EX's
# takes the accumulator alone: it checks a fixed example and reads no entry.
_SWEEPS: dict[str, Callable] = {}


def _sweep(tid: str):
    def register(fn):
        _SWEEPS[tid] = fn
        return fn

    return register


# ----------------------------------------------------------------------
# definitional equivalences and the basic predicate web


@_sweep("T-DEF-EQ")
def _t_def_eq(entry: CatalogEntry, part: _Part) -> None:
    """Elementwise and ideal-triple definitions agree on every instance."""
    R = entry.ring
    if R.order > 12:
        return
    proper = R.proper_ideals()
    for d in entry.expansions:
        el = _one_abs(d)
        part.instances(len(proper), len(proper))
        for p in _bits(el ^ _verdicts("idealwise", R, d)):
            _, wit = one_absorbing_delta_primary_check(proper[p], d)
            _, iwit = idealwise_one_absorbing_check(proper[p], d)
            detail = f"elementwise={bool(el >> p & 1)} idealwise={not el >> p & 1}"
            if iwit is not None:
                detail += " triple " + ",".join(K.label for K in iwit)
            part.fail(proper[p], d.label, wit, detail)


@_sweep("T-CHAIN")
def _t_chain(entry: CatalogEntry, part: _Part) -> None:
    """1-absorbing prime or delta-primary ideals stay 1-absorbing delta-primary."""
    R = entry.ring
    proper = R.proper_ideals()
    prime = _verdicts("1abs-prime", R)
    for d in entry.expansions:
        hyp = prime | _primary(d)
        part.instances(len(proper), hyp.bit_count())
        if fails := hyp & ~_one_abs(d):
            for p in _bits(fails):
                _, wit = one_absorbing_delta_primary_check(proper[p], d)
                source = "1abs-prime" if prime >> p & 1 else "delta-primary"
                part.fail(proper[p], d.label, wit, f"{source} ideal lost the 1-absorbing form")


@_sweep("T-MONO")
def _t_mono(entry: CatalogEntry, part: _Part) -> None:
    """Enlarging the expansion at I preserves the 1-absorbing form.

    delta(I_p) lies inside gamma(I_p) exactly when bit gamma.table[p] of
    UP[delta.table[p]] is set. So at each p the expansions are tallied by
    value and verdict, and each 1-absorbing value counts the values above
    it, less itself. One that lies below a value not 1-absorbing at p is a
    failure: only then does the ring run the pair loop, for the witnesses."""
    R = entry.ring
    proper = R.proper_ideals()
    exps = entry.expansions
    up = _up_sets(R)
    oks = [_one_abs(g) for g in exps]
    columns = zip(*(format(v, f"0{len(proper)}b")[::-1] for v in oks))  # "1" where 1abs
    hits = failing = 0
    for values, column in zip(zip(*(g.table for g in exps)), columns):
        tally = Counter(zip(values, column)).items()
        bad = sum(1 << q for (q, ok), _ in tally if ok == "0")
        for (v, ok), c in tally:
            if ok == "1":
                failing |= up[v] & bad
                hits += c * (sum(n for (q, _), n in tally if up[v] >> q & 1) - 1)
    if not failing:
        part.instances(len(proper) * len(exps) * (len(exps) - 1), hits)
        return
    for d, d_abs in zip(exps, oks):
        for g, g_abs in zip(exps, oks):
            if d is g:
                continue
            hits = [p for p in _bits(d_abs) if up[d.table[p]] >> g.table[p] & 1]
            part.instances(len(proper), len(hits))
            for p in hits:
                if not g_abs >> p & 1:
                    _, wit = one_absorbing_delta_primary_check(proper[p], g)
                    part.fail(proper[p], f"{d.label} -> {g.label}", wit)


@_sweep("T-2ABS")
def _t_2abs(entry: CatalogEntry, part: _Part) -> None:
    """1-absorbing delta-primary implies 2-absorbing delta-primary."""
    R = entry.ring
    proper = R.proper_ideals()
    for d in entry.expansions:
        one_abs = _one_abs(d)
        part.instances(len(proper), one_abs.bit_count())
        if fails := one_abs & ~_verdicts("2abs-delta-primary", R, d):
            for p in _bits(fails):
                part.fail(proper[p], d.label, None, "not 2-absorbing delta-primary")


@_sweep("T-SEMI")
def _t_semi(entry: CatalogEntry, part: _Part) -> None:
    """With delta(I) radical, 1-absorbing delta-primary implies delta-semiprimary."""
    R = entry.ring
    proper = R.proper_ideals()
    rpos = _radical_positions(R)
    for d in entry.expansions:
        t = d.table
        hyp = sum(1 << p for p in _bits(_one_abs(d)) if rpos[t[p]] == t[p])
        part.instances(len(proper), hyp.bit_count())
        if fails := hyp & ~_verdicts("delta-semiprimary", R, d):
            for p in _bits(fails):
                part.fail(proper[p], d.label, None, "not delta-semiprimary")


@_sweep("T-LOCAL")
def _t_local(entry: CatalogEntry, part: _Part) -> None:
    """A 1-absorbing delta-primary ideal that is not delta-primary forces locality."""
    R = entry.ring
    local = R.is_local()
    for d in entry.expansions:
        found = _one_abs(d) & ~_primary(d)
        if part.instance(found != 0) and not local:
            part.fail(R.proper_ideals()[_lsb(found)], d.label, None, "ring is not local")


@_sweep("T-XM")
def _t_xm(entry: CatalogEntry, part: _Part) -> None:
    """xM construction: prime x with x in delta(xM) strictly below M."""
    R = entry.ring
    if not R.is_local():
        return
    lattice = R.ideals()
    m = R.maximal_ideals()[0].mask
    row = R.lattice_position(m)
    scaled = _scaling_table(R)
    primes = [(x, scaled[x][row]) for x in range(R.order) if is_prime_element(R, x)]
    for d in entry.expansions:
        for x, p in primes:
            dxm = lattice[d.table[p]].mask
            if part.instance(dxm != m and (dxm & ~m) == 0 and (dxm >> x) & 1):
                xM = lattice[p]
                ok, wit = one_absorbing_delta_primary_check(xM, d)
                if not ok:
                    part.fail(xM, d.label, wit, f"x={R.element_name(x)}")
                elif is_delta_primary(xM, d):
                    part.fail(xM, d.label, (x,), "xM is delta-primary")


def _colon_reach(R: FiniteRing) -> list[int]:
    """For each proper I_p, the mask of the positions of (I_p : a) over the
    nonunits a outside I_p: its principal colons less the unit class's."""
    _, cls, table = _principal_colons(R)
    unit = cls[R.one]
    bit = [1 << k for k in range(len(table))] + [0]  # the unit ideal, (I_p : a) for a in I_p
    return [sum(map(bit.__getitem__, set(row[:unit] + row[unit + 1 :]))) for row in table]


@_sweep("T-COLON")
def _t_colon(entry: CatalogEntry, part: _Part) -> None:
    """Colon by a nonunit outside a 1-absorbing delta-primary ideal is delta-primary.

    (I_p : a) is entry table[p][cls[a]] of the principal colons, and the
    |nonunits| - |I_p| nonunits outside I_p reach row p of ``_colon_reach``.
    Only an ideal whose reach leaves the delta-primary vector walks the
    nonunits, for the witnesses."""
    R = entry.ring
    nonunits = R.nonunit_list
    proper = R.proper_ideals()
    _, cls, table = _principal_colons(R)
    reach = _colon_reach(R)
    counts = [len(nonunits) - I.num_elements for I in proper]
    for d in entry.expansions:
        one_abs, primary, hits, reached = _one_abs(d), _primary(d), 0, 0
        for p in _bits(one_abs):
            hits += counts[p]
            reached |= reach[p]
        part.instances(len(nonunits) * len(proper), hits)
        if not reached & ~primary:
            continue
        for p in _bits(one_abs):
            if reach[p] & ~primary:
                I = proper[p]
                for a in nonunits:
                    if not (I.mask >> a) & 1 and not primary >> table[p][cls[a]] & 1:
                        part.fail(I, d.label, (a,), f"(I:{R.element_name(a)}) not delta-primary")


@_sweep("T-M2")
def _t_m2(entry: CatalogEntry, part: _Part) -> None:
    """1-absorbing delta-primary: delta-semiprimary, or local with M^2 inside I."""
    R = entry.ring
    proper = R.proper_ideals()
    m2 = _up_sets(R)[_jacobson_square(R)] if R.is_local() else 0
    for d in entry.expansions:
        one_abs = _one_abs(d)
        part.instances(len(proper), one_abs.bit_count())
        if fails := one_abs & ~(_verdicts("delta-semiprimary", R, d) | m2):
            for p in _bits(fails):
                part.fail(proper[p], d.label, None, "neither delta-semiprimary nor M^2 inside I")


# ----------------------------------------------------------------------
# chained, arithmetical, principal maximal


def _equiv_off(part: _Part, entry: CatalogEntry, m2: int, context: str) -> None:
    """Away from the ideal at lattice position m2, 1-absorbing equals delta-primary."""
    R = entry.ring
    proper = R.proper_ideals()
    hyp = ((1 << len(proper)) - 1) & ~(1 << m2)
    for d in entry.expansions:
        one_abs, primary = _one_abs(d), _primary(d)
        part.instances(len(proper), hyp.bit_count())
        if fails := hyp & (one_abs ^ primary):
            for p in _bits(fails):
                a, b = bool(one_abs >> p & 1), bool(primary >> p & 1)
                part.fail(proper[p], d.label, None, f"{context}: 1abs={a} delta-primary={b}")


@_sweep("T-CHAINED")
def _t_chained(entry: CatalogEntry, part: _Part) -> None:
    """On a chained ring, away from M^2 the two notions coincide. A chained
    ring is local, so M^2 is the square of its Jacobson radical."""
    R = entry.ring
    if not R.is_chained():
        return
    _equiv_off(part, entry, _jacobson_square(R), "chained")


@_sweep("T-ARITH")
def _t_arith(entry: CatalogEntry, part: _Part) -> None:
    """On an arithmetical ring, away from Jac^2 the two notions coincide."""
    R = entry.ring
    if not R.is_arithmetical():
        return
    _equiv_off(part, entry, _jacobson_square(R), "arithmetical")


@_sweep("T-PMAX")
def _t_pmax(entry: CatalogEntry, part: _Part) -> None:
    """Principal maximal ideal: 1abs iff delta-primary or M^2 inside I."""
    R = entry.ring
    if not R.is_local():
        return
    if not is_principal(R.maximal_ideals()[0]):
        return
    proper = R.proper_ideals()
    up, rpos = _up_sets(R), _radical_positions(R)
    m2 = up[_jacobson_square(R)] & ((1 << len(proper)) - 1)
    for d in entry.expansions:
        one_abs, primary = _one_abs(d), _primary(d)
        part.instances(len(proper), len(proper))
        alt = primary | m2
        for p in _bits((one_abs ^ alt) | (one_abs ^ primary)):
            a = one_abs >> p & 1
            if a != alt >> p & 1:
                part.fail(proper[p], d.label, None, f"1abs={bool(a)} primary-or-M^2={not a}")
            elif up[rpos[p]] >> d.table[p] & 1:  # sqrt(I) inside delta(I), and primary = not a
                detail = f"sqrt(I) inside delta(I): 1abs={bool(a)} delta-primary={not a}"
                part.fail(proper[p], d.label, None, detail)


# ----------------------------------------------------------------------
# radical, idempotence, intersections, principal reduction


@_sweep("T-SQRT")
def _t_sqrt(entry: CatalogEntry, part: _Part) -> None:
    """If sqrt(delta(I)) = delta(sqrt(I)), the radical of a 1abs ideal is delta-primary."""
    R = entry.ring
    proper = R.proper_ideals()
    rpos = _radical_positions(R)
    for d in entry.expansions:
        t, primary = d.table, _primary(d)
        hits = [p for p in _bits(_one_abs(d)) if rpos[t[p]] == t[rpos[p]]]
        part.instances(len(proper), len(hits))
        for p in hits:
            if not primary >> rpos[p] & 1:
                part.fail(proper[p], d.label, None, "sqrt(I) not delta-primary")


@_sweep("T-IDEM")
def _t_idem(entry: CatalogEntry, part: _Part) -> None:
    """At idempotent values, 1-absorbing delta-primary equals 1-absorbing prime."""
    R = entry.ring
    lattice = R.ideals()
    n = len(lattice) - 1
    prime = _verdicts("1abs-prime", R)
    for d in entry.expansions:
        t, one_abs = d.table, _one_abs(d)
        hits = [q for q in t[:n] if q < n and t[q] == q]  # proper values that delta fixes
        part.instances(n, len(hits))
        for q in hits:
            if (one_abs ^ prime) >> q & 1:
                a = bool(one_abs >> q & 1)
                part.fail(lattice[q], d.label, None, f"1abs={a} 1abs-prime={not a}")


@_sweep("T-INTER")
def _t_inter(entry: CatalogEntry, part: _Part) -> None:
    """Intersections of 1abs ideals sharing their delta value stay 1abs.

    The pairs within each group of k 1abs positions that share a delta value,
    k(k - 1)/2, hold the hypothesis; sorted, the failing ones keep (p, q) order."""
    R = entry.ring
    proper, meet = R.proper_ideals(), _meet_table(R)
    n = len(proper)
    for d in entry.expansions:
        one_abs, hits, failing = _one_abs(d), 0, []
        if one_abs & (one_abs - 1) and is_intersection_preserving(d):  # two or more bits
            groups: dict[int, list[int]] = {}
            for p in _bits(one_abs):
                groups.setdefault(d.table[p], []).append(p)
            for g in groups.values():
                if len(g) > 1:
                    hits += len(g) * (len(g) - 1) // 2
                    failing += [(p, q) for i, p in enumerate(g) for q in g[i + 1 :]
                                if not one_abs >> meet[p][q] & 1]
        part.instances(n * (n - 1) // 2, hits)
        for p, q in sorted(failing):
            I, J = proper[p], proper[q]
            K = ideal_intersection(I, J)
            part.fail(K, d.label, None, f"intersection of {I.label} and {J.label}")


@_sweep("T-PRINC")
def _t_princ(entry: CatalogEntry, part: _Part) -> None:
    """All principal proper ideals 1abs iff all proper ideals 1abs."""
    R = entry.ring
    proper = R.proper_ideals()
    full, principal = (1 << len(proper)) - 1, _principal_positions(R)  # principal ideals are proper
    part.instances(len(entry.expansions), len(entry.expansions))
    for d in entry.expansions:
        missing = full & ~_one_abs(d)  # the proper ideals not 1abs
        if missing and not principal & missing:
            part.fail(proper[_lsb(missing)], d.label, None, "principal=True all=False")


# ----------------------------------------------------------------------
# the characterization suite


def _char_states(R: FiniteRing) -> Callable[[int], tuple[bool, bool, bool]]:
    """T-CHAR's (i), (ii) and (iii) on R as a function of a 1-absorbing
    vector: (i) and (ii) ask that it hold every principal and every proper
    position, and (iii) does not read it."""
    full, principal = (1 << len(R.proper_ideals())) - 1, _principal_positions(R)
    iii = R.is_local() and _jacobson_square(R) == 0  # the zero ideal's position
    return lambda one_abs: (not principal & ~one_abs, not full & ~one_abs, iii)


@_sweep("T-CHAR")
def _t_char(entry: CatalogEntry, part: _Part) -> None:
    """Square-zero-radical local characterization under the delta conditions."""
    R = entry.ring
    states = _char_states(R)
    for d in entry.expansions:
        i, ii, iii = states(_one_abs(d))
        if iii and not (i and ii):
            part.fail(None, d.label, None, f"(iii) holds but i={i} ii={ii}", ring=R)
        star_jac = satisfies_star(d) and preserves_jacobson(d)
        if part.instance(star_jac and scaling_check(d)[0]):
            if not (i == ii == iii):
                part.fail(None, d.label, None, f"i={i} ii={ii} iii={iii}", ring=R)
        elif star_jac and i and not iii:
            part.notes.append(
                f"scaling necessity: {part.provenance} with {d.label} has every "
                "proper ideal 1-absorbing while the radical square is nonzero; "
                "only the scaling hypothesis fails there"
            )


@_sweep("T-CHAR-COR")
def _t_char_cor(entry: CatalogEntry, part: _Part) -> None:
    """The identity-expansion specialization of the characterization. Under id,
    1-absorbing delta-primary is 1-absorbing prime, read at the ring's own id."""
    R = entry.ring
    part.instance(True)
    i, ii, iii = _char_states(R)(_verdicts("1abs-prime", R))
    if not (i == ii == iii):
        part.fail(None, "id", None, f"i={i} ii={ii} iii={iii}", ring=R)


def _annihilator(R: FiniteRing, I: Ideal) -> int:
    """The lattice position of (0 : I): the meet of the zero ideal's
    ``_principal_colons`` row at the classes of I's generators, read off
    the meet table without building an ideal."""
    (_, cls, table), meet = _principal_colons(R), _meet_table(R)
    return reduce(lambda a, b: meet[a][b], [table[0][cls[g]] for g in generator_list(I)])


@_sweep("T-SPEC")
def _t_spec(entry: CatalogEntry, part: _Part) -> None:
    """Prime expansions with tiny spectra make every proper ideal 1abs.

    delta(0)*M = 0 exactly when delta(0) lies inside (0 : M), that is, when
    bit ann of UP[delta(0)] is set, with ann the position of (0 : M)."""
    R = entry.ring
    if not R.is_local():
        return
    M = R.maximal_ideals()[0]
    lattice, proper, up = R.ideals(), R.proper_ideals(), _up_sets(R)
    spec_masks = {P.mask for P in R.spectrum()}
    ann = _annihilator(R, M)
    for d in entry.expansions:
        q = d.table[0]  # the zero ideal comes first in lattice order
        case1 = spec_masks == {lattice[q].mask}
        case2 = spec_masks == {lattice[q].mask, M.mask} and up[q] >> ann & 1
        hyp = (case1 or case2) and is_prime_expansion(d)
        if part.instance(hyp):
            missing = (1 << len(proper)) - 1 & ~_one_abs(d)
            if missing:
                part.fail(proper[_lsb(missing)], d.label, None, "not every proper ideal is 1abs")


# ----------------------------------------------------------------------
# transfer along homomorphisms and constructions: both sides of an instance
# are read from the verdict vectors, at the lattice positions given by the
# construction's ideal correspondence (``constructions._correspondence``)


@_sweep("T-HOM")
def _t_hom(entry: CatalogEntry, part: _Part) -> None:
    """Nonunit-preserving delta-gamma homomorphisms transport the property.
    Only along such a projection does an instance read the induced expansion.
    With gamma induced from delta the delta-gamma test always holds, as
    delta(f^-1 J) contains ker f, but like every hypothesis it is computed."""
    info = entry.ring.construction
    if not isinstance(info, QuotientOf):
        return
    Q, f, parent = entry.ring, info.projection, info.parent
    img, pre = _correspondence(Q)
    nonunit_ok, _ = f.is_nonunit_preserving()
    # I contains the kernel exactly when it is the preimage of its image
    above = [p for p in range(len(parent.proper_ideals())) if pre[img[p]] == p]
    for d in part.sources.get(id(parent), ()):
        g = induced_quotient(Q, d) if nonunit_ok else None
        compatible = nonunit_ok and is_delta_gamma_hom(f, d, g)
        d_abs, g_abs = _one_abs(d), _one_abs(g) if compatible else 0
        hits = g_abs.bit_count() + len(above) * compatible
        part.instances(len(Q.proper_ideals()) + len(above), hits)
        for q in _bits(g_abs):
            if not d_abs >> pre[q] & 1:
                J = Q.proper_ideals()[q]
                part.fail(parent.ideals()[pre[q]], d.label, None, f"preimage of {J.label} fails")
        for p in above if compatible else ():
            source, image = d_abs >> p & 1, g_abs >> img[p] & 1
            if source != image:
                detail = f"source={bool(source)} image={bool(image)}"
                part.fail(parent.proper_ideals()[p], d.label, None, detail)


@_sweep("T-QUOT")
def _t_quot(entry: CatalogEntry, part: _Part) -> None:
    """J is 1abs for delta iff J/I is 1abs for the induced quotient expansion.

    R/(0) is R under the identity projection: it preserves nonunits, every
    proper J lies above (0) and the induced expansion has delta's table. So
    the zero row is read from R: each of its instances holds the hypothesis
    and none can fail. As in T-HOM, only nonunit-preserving projections
    induce an expansion.
    """
    R = entry.ring
    if R.construction is not None:
        return
    proper = R.proper_ideals()
    quotients = []
    for I in proper[1:]:  # the zero ideal comes first in lattice order
        Q = make_quotient(R, I)
        nonunit_ok, _ = Q.construction.projection.is_nonunit_preserving()
        above = [p for p, J in enumerate(proper) if not I.mask & ~J.mask]
        quotients.append((I, Q, nonunit_ok, above, _correspondence(Q)[0]))
    for d in entry.expansions:
        d_abs = _one_abs(d)
        part.instances(len(proper), len(proper))  # the zero row
        for I, Q, nonunit_ok, above, img in quotients:
            g_abs = _one_abs(induced_quotient(Q, d)) if nonunit_ok else 0
            part.instances(len(above), len(above) * nonunit_ok)
            for p in above if nonunit_ok else ():
                up, down = d_abs >> p & 1, g_abs >> img[p] & 1
                if up != down:
                    detail = f"mod {I.label}: source={bool(up)} image={bool(down)}"
                    part.fail(proper[p], d.label, None, detail)


@_sweep("T-LOC")
def _t_loc(entry: CatalogEntry, part: _Part) -> None:
    """Compatible localizations keep extended ideals 1-absorbing."""
    info = entry.ring.construction
    if not isinstance(info, LocalizationOf):
        return
    L = entry.ring
    parent = info.parent
    img, _ = _correspondence(L)
    s_mask = sum(1 << s for s in info.set_members)
    disjoint = sum(1 << p for p, I in enumerate(parent.proper_ideals()) if not I.mask & s_mask)
    for d in part.sources.get(id(parent), ()):
        ds = induced_localization(L, d)
        compatible = localization_compatibility(L, d)
        ds_abs, hyp = _one_abs(ds), _one_abs(d) & disjoint if compatible else 0
        part.instances(disjoint.bit_count(), hyp.bit_count())
        for p in _bits(hyp):
            if not ds_abs >> img[p] & 1:
                ext = L.ideals()[img[p]]
                part.fail(parent.proper_ideals()[p], d.label, None, f"extension {ext.label} fails")


@_sweep("T-PROD")
def _t_prod(entry: CatalogEntry, part: _Part) -> None:
    """Product characterization: 1abs, delta-primary, and the component form agree."""
    info = entry.ring.construction
    if not isinstance(info, ProductOf):
        return
    R = entry.ring
    proper = R.proper_ideals()
    R1, R2 = info.left, info.right
    top1, top2 = len(R1.ideals()) - 1, len(R2.ideals()) - 1
    _, inv = _correspondence(R)
    for d1 in part.sources.get(id(R1), ()):
        left = sum(1 << inv[p1, top2] for p1 in _bits(_primary(d1)))
        full1 = [p1 for p1 in range(top1) if d1.table[p1] == top1]
        for d2 in part.sources.get(id(R2), ()):
            # I1 x R2: I1 delta1-primary; R1 x I2: I2 delta2-primary; else d1(I1), d2(I2) whole
            components = left | sum(1 << inv[top1, p2] for p2 in _bits(_primary(d2)))
            components |= sum(1 << inv[p1, p2] for p1 in full1
                              for p2 in range(top2) if d2.table[p2] == top2)
            dx = induced_product(R, d1, d2)
            one_abs, primary = _one_abs(dx), _primary(dx)
            part.instances(len(proper), len(proper))
            for p in _bits((one_abs ^ primary) | (one_abs ^ components)):
                s1, s2, s3 = (bool(v >> p & 1) for v in (one_abs, primary, components))
                part.fail(proper[p], dx.label, None, f"1abs={s1} primary={s2} components={s3}")
            if (entry.provenance, d1.label, d2.label) == ("Z2xZ2", "id", "id") and not (
                    one_abs | primary | components) & 1:  # at the zero ideal, position 0
                _, wit = one_absorbing_delta_primary_check(proper[0], dx)
                part.notes.append(
                    "true negative: (0)x(0) in Z2xZ2 under prod(id,id) is not "
                    f"1-absorbing, witness {', '.join(_names(R, wit))}"
                )


@_sweep("T-PROD-EX")
def _t_prod_ex(part: _Part) -> None:
    """Fixed product example: components 1abs, intersection not."""
    R1, R2 = make_zn(4), make_zn(9)

    def sqrt_plus_two(factor: FiniteRing):
        two = span(factor, [2 % factor.order])
        return from_rule(factor, lambda I: radical(I) + two, "rad+(2)")

    d1, d2 = sqrt_plus_two(R1), sqrt_plus_two(R2)
    R = make_product(R1, R2)
    info = R.construction
    dx = induced_product(R, d1, d2)
    I1 = Ideal(R, info.pair_mask(1 << R1.zero, (1 << R2.order) - 1))
    I2 = Ideal(R, info.pair_mask((1 << R1.order) - 1, 1 << R2.zero))
    for I, expect in ((I1, True), (I2, True), (ideal_intersection(I1, I2), False)):
        part.instance(True)
        got, wit = one_absorbing_delta_primary_check(I, dx)
        if got != expect:
            part.fail(I, dx.label, wit, f"expected {expect}, got {got}")
        elif not expect and wit is not None:
            part.notes.append(
                "intersection witness: " + ", ".join(_names(R, wit))
            )


def _triv_pairs(T: FiniteRing) -> list[tuple[int, int, bool]]:
    """(p, q, whether (F : c) = F for every c outside I_p) per pair ideal
    J_q = I_p x F of T with I_p proper, in ``pair_ideals`` order: I_p and the
    c with (F : c) = F, one mask per F from ``_colon_rows``, cover the base."""
    pairs, action = _correspondence(T)[2], T.construction.module.action
    fixers = {F: sum(1 << c for c, m in enumerate(_colon_rows(action, F)) if m == F)
              for F in {F for _, _, F in pairs}}
    masks = [I.mask for I in T.construction.base.ideals()]  # the unit ideal's last
    return [(p, q, masks[p] | fixers[F] == masks[-1]) for p, q, F in pairs if p < len(masks) - 1]


@_sweep("T-TRIV")
def _t_triv(entry: CatalogEntry, part: _Part) -> None:
    """Trivial extension pair ideals transport the 1-absorbing form.

    d's 1abs base positions, lifted to the pair positions above them, screen
    for failures: only a nonzero screen walks the pairs, for the witnesses."""
    info = entry.ring.construction
    if not isinstance(info, TrivialExtensionOf):
        return
    T, A, pairs = entry.ring, info.base, _triv_pairs(entry.ring)
    base, above = A.ideals(), [0] * len(A.ideals())  # per base position, its pair positions
    for p, q, _ in pairs:
        above[p] |= 1 << q
    pair_qs, fixed_qs = sum(above), sum(1 << q for _, q, colon_fixed in pairs if colon_fixed)
    for d in part.sources.get(id(A), ()):
        dt = induced_trivial_extension(T, d)
        d_abs, dt_abs = _one_abs(d), _one_abs(dt)
        part.instances(len(pairs), (dt_abs & pair_qs | fixed_qs).bit_count())
        lifted = sum(above[p] for p in _bits(d_abs))
        if not (dt_abs & pair_qs & ~lifted or fixed_qs & (dt_abs ^ lifted)):
            continue
        for p, q, colon_fixed in pairs:
            up, down = dt_abs >> q & 1, d_abs >> p & 1
            if up and not down:
                detail = f"pair ideal 1abs but {base[p].label} is not"
                part.fail(T.ideals()[q], dt.label, None, detail)
            if colon_fixed and up != down:
                detail = f"(F:c)=F but pair={bool(up)} base={bool(down)}"
                part.fail(T.ideals()[q], dt.label, None, detail)


@_sweep("T-TRIV-COR")
def _t_triv_cor(entry: CatalogEntry, part: _Part) -> None:
    """I with the full module transports the 1-absorbing form both ways."""
    info = entry.ring.construction
    if not isinstance(info, TrivialExtensionOf):
        return
    T = entry.ring
    _, up, _ = _correspondence(T)
    for d in part.sources.get(id(info.base), ()):
        dt = induced_trivial_extension(T, d)
        d_abs, dt_abs = _one_abs(d), _one_abs(dt)
        part.instances(len(up) - 1, len(up) - 1)
        for p, q in enumerate(up[:-1]):  # I_p x E for each proper I_p
            pair, base = dt_abs >> q & 1, d_abs >> p & 1
            if pair != base:
                part.fail(T.ideals()[q], dt.label, None, f"pair={bool(pair)} base={bool(base)}")


THEOREM_IDS = tuple(_SWEEPS)


# ----------------------------------------------------------------------
# driver

# The catalog last swept, its entries in provenance order and its rings'
# expansions by id, so that the 26 calls of a suite sort the catalog once.
_swept: tuple = (None, [], {})


def _sweep_order(catalog: Catalog) -> tuple[list[CatalogEntry], dict]:
    global _swept
    if _swept[0] is not catalog:
        entries = sorted(catalog.entries, key=lambda e: e.provenance)
        _swept = (catalog, entries, {id(e.ring): e.expansions for e in entries})
    return _swept[1:]


def verify(theorem_id: str, catalog: Catalog) -> TheoremReport:
    """Run one statement check over the catalog, in the calling thread, and
    report the outcome.

    One accumulator walks the entries in provenance order, so the failures,
    the notes and the truncation count do not depend on the catalog's entry
    order. A transfer sweep reads a parent's, a factor's or a base's
    expansions from its entry, the last in that order; a ring with no entry
    gives none. T-PROD-EX checks its fixed example and reads no entry."""
    if theorem_id not in THEOREM_IDS:
        raise UnknownTheoremError(f"unknown theorem id {theorem_id!r}")
    start = perf_counter()
    entries, sources = _sweep_order(catalog)
    part = _Part("Z4xZ9", sources)  # T-PROD-EX's ring
    if theorem_id == "T-PROD-EX":
        _t_prod_ex(part)
    else:
        sweep = _SWEEPS[theorem_id]
        for entry in entries:
            part.provenance = entry.provenance
            sweep(entry, part)
    if part.dropped:
        part.notes.append(
            f"conclusion failures truncated to {FAILURE_CAP} of {FAILURE_CAP + part.dropped}"
        )
    if theorem_id == "T-XM" and part.hits == 0:
        part.notes.append(
            "no instance satisfied the hypotheses at this scale: in a finite "
            "local ring a prime element generates the maximal ideal, so "
            "delta(xM) strictly below M with x inside it is impossible"
        )
    return TheoremReport(
        theorem_id=theorem_id,
        instances_checked=part.checked,
        hypothesis_satisfied=part.hits,
        conclusion_failures=tuple(part.failures),
        elapsed=perf_counter() - start,
        notes=tuple(part.notes),
    )


def verify_all(
    catalog: Catalog,
    theorem_ids: Optional[tuple[str, ...]] = None,
    jobs: Optional[int] = None,
) -> list[TheoremReport]:
    """Run the whole suite (or a selection) in declaration order, in the
    calling thread. ``jobs`` is accepted for compatibility and has no
    effect."""
    ids = THEOREM_IDS if theorem_ids is None else theorem_ids
    return [verify(tid, catalog) for tid in ids]


def search_witness(query, catalog: Catalog) -> list[Witness]:
    """All (ring, ideal, delta) triples in the catalog matching a parsed query.

    Accepts a Query or a query string. The matches are the set bits of the
    query's verdict vector on each (ring, expansion) pair, or on each ring,
    with "-" as its delta column, for a delta-free query.
    """
    if not isinstance(query, Query):
        query = parse_query(query)
    out: list[Witness] = []
    for entry in catalog:
        R = entry.ring
        proper = R.proper_ideals()
        for d in entry.expansions if query.uses_delta else (None,):
            label = "-" if d is None else d.label
            for p in _bits(query.verdicts(R, d)):
                out.append(Witness(entry.provenance, _names(R, proper[p].members_sorted), label,
                                   None, ""))
    return out

