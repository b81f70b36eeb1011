"""Exhaustive statement checks over a generated catalog.

Each statement in the suite is encoded as a conditional sweep: hypotheses
are computed per instance, never assumed, and every instance where they
hold has its conclusion checked. A report carries instance counts, failure
witnesses, and notes; zero conclusion failures with a nonzero hypothesis
count is the expected outcome for every statement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

from .catalog import Catalog, CatalogEntry
from .constructions import (
    LocalizationOf,
    ProductOf,
    QuotientOf,
    TrivialExtensionOf,
    make_product,
    make_quotient,
)
from .errors import InvariantError, UnknownTheoremError
from .expansions import (
    ExpansionFunction,
    from_rule,
    identity_expansion,
    induced_localization,
    induced_product,
    induced_quotient,
    induced_trivial_extension,
    is_delta_gamma_hom,
    is_prime_expansion,
    localization_compatibility,
    preserves_jacobson,
    satisfies_star,
    scaling_check,
    standard_expansions,
)
from .ideals import (
    Ideal,
    colon,
    ideal_intersection,
    ideal_product,
    is_prime_element,
    is_principal,
    is_radical_ideal,
    radical,
    scale,
    span,
)
from .predicates import (
    idealwise_one_absorbing_check,
    is_delta_primary,
    is_delta_semiprimary,
    is_one_absorbing_delta_primary,
    is_one_absorbing_prime,
    is_two_absorbing_delta_primary,
    one_absorbing_delta_primary_check,
)
from .rings import FiniteRing, make_zn

FAILURE_CAP = 50

THEOREM_IDS = (
    "T-DEF-EQ",
    "T-CHAIN",
    "T-MONO",
    "T-2ABS",
    "T-SEMI",
    "T-LOCAL",
    "T-XM",
    "T-COLON",
    "T-M2",
    "T-CHAINED",
    "T-ARITH",
    "T-PMAX",
    "T-SQRT",
    "T-IDEM",
    "T-INTER",
    "T-PRINC",
    "T-CHAR",
    "T-CHAR-COR",
    "T-SPEC",
    "T-HOM",
    "T-QUOT",
    "T-LOC",
    "T-PROD",
    "T-PROD-EX",
    "T-TRIV",
    "T-TRIV-COR",
)


@dataclass(frozen=True)
class Witness:
    """One conclusion failure: where, under which expansion, and why."""

    ring: str
    ideal: tuple[str, ...]
    delta: str
    elements: Optional[tuple[str, ...]]
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "ring": self.ring,
            "ideal": list(self.ideal),
            "delta": self.delta,
            "elements": list(self.elements) if self.elements is not None else None,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    instances_checked: int
    hypothesis_satisfied: int
    conclusion_failures: tuple[Witness, ...]
    elapsed: float
    notes: tuple[str, ...] = ()

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


@dataclass
class _Part:
    """Per-entry accumulator, merged deterministically afterwards."""

    provenance: str
    checked: int = 0
    hits: int = 0
    failures: list[Witness] = field(default_factory=list)
    dropped: int = 0
    notes: list[str] = field(default_factory=list)

    def instance(self, hypothesis: bool) -> bool:
        self.checked += 1
        if hypothesis:
            self.hits += 1
        return hypothesis

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
        ideal_names = _names(I.ring, I.members) if I is not None else ()
        self.failures.append(Witness(self.provenance, ideal_names, delta_label, names, detail))


def _names(R: FiniteRing, idxs) -> tuple[str, ...]:
    return tuple(R.element_name(i) for i in idxs)


def _rad_or_unit(I: Ideal) -> Ideal:
    """Radical, extended with the unit ideal as its own radical."""
    if not I.is_proper:
        return I.ring.unit_ideal()
    return radical(I)


def _every_proper_one_absorbing(
    R: FiniteRing, d: ExpansionFunction, principal_only: bool = False
) -> tuple[bool, Optional[Ideal]]:
    for I in R.proper_ideals():
        if principal_only and not is_principal(I):
            continue
        if not is_one_absorbing_delta_primary(I, d):
            return False, I
    return True, None


_SWEEPS: dict[str, Callable[[CatalogEntry, _Part], None]] = {}
_STANDALONE: dict[str, Callable[[_Part], None]] = {}
_FINALIZERS: dict[str, Callable[[int, int], Optional[str]]] = {}


def _sweep(tid: str):
    def register(fn):
        _SWEEPS[tid] = fn
        return fn

    return register


def _standalone(tid: str):
    def register(fn):
        _STANDALONE[tid] = fn
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
    for d in entry.expansions:
        for I in R.proper_ideals():
            part.instance(True)
            el, wit = one_absorbing_delta_primary_check(I, d)
            iw, iwit = idealwise_one_absorbing_check(I, d)
            if el != iw:
                detail = f"elementwise={el} idealwise={iw}"
                if iwit is not None:
                    detail += " triple " + ",".join(K.label for K in iwit)
                part.fail(I, d.label, wit, detail)


@_sweep("T-CHAIN")
def _t_chain(entry: CatalogEntry, part: _Part) -> None:
    """1-absorbing prime or delta-primary ideals stay 1-absorbing delta-primary."""
    R = entry.ring
    for d in entry.expansions:
        for I in R.proper_ideals():
            from_prime = is_one_absorbing_prime(I)
            from_primary = is_delta_primary(I, d)
            if part.instance(from_prime or from_primary):
                ok, wit = one_absorbing_delta_primary_check(I, d)
                if not ok:
                    source = "1abs-prime" if from_prime else "delta-primary"
                    part.fail(I, d.label, wit, f"{source} ideal lost the 1-absorbing form")


@_sweep("T-MONO")
def _t_mono(entry: CatalogEntry, part: _Part) -> None:
    """Enlarging the expansion at I preserves the 1-absorbing form."""
    R = entry.ring
    lattice = R.ideals()
    for d in entry.expansions:
        for g in entry.expansions:
            if d is g:
                continue
            for pos, I in enumerate(lattice):
                if not I.is_proper:
                    continue
                wider = lattice[d.table[pos]].mask & ~lattice[g.table[pos]].mask == 0
                if part.instance(wider and is_one_absorbing_delta_primary(I, d)):
                    ok, wit = one_absorbing_delta_primary_check(I, g)
                    if not ok:
                        part.fail(I, f"{d.label} -> {g.label}", wit)


@_sweep("T-2ABS")
def _t_2abs(entry: CatalogEntry, part: _Part) -> None:
    """1-absorbing delta-primary implies 2-absorbing delta-primary."""
    R = entry.ring
    for d in entry.expansions:
        for I in R.proper_ideals():
            if part.instance(is_one_absorbing_delta_primary(I, d)):
                if not is_two_absorbing_delta_primary(I, d):
                    part.fail(I, d.label, None, "not 2-absorbing delta-primary")


@_sweep("T-SEMI")
def _t_semi(entry: CatalogEntry, part: _Part) -> None:
    """With delta(I) radical, 1-absorbing delta-primary implies delta-semiprimary."""
    R = entry.ring
    for d in entry.expansions:
        for I in R.proper_ideals():
            dI = d(I)
            rad_hyp = (not dI.is_proper) or is_radical_ideal(dI)
            if part.instance(rad_hyp and is_one_absorbing_delta_primary(I, d)):
                if not is_delta_semiprimary(I, d):
                    part.fail(I, d.label, None, "not delta-semiprimary")


@_sweep("T-LOCAL")
def _t_local(entry: CatalogEntry, part: _Part) -> None:
    """A 1-absorbing delta-primary ideal that is not delta-primary forces locality."""
    R = entry.ring
    local = R.is_local()
    for d in entry.expansions:
        found = None
        for I in R.proper_ideals():
            if is_one_absorbing_delta_primary(I, d) and not is_delta_primary(I, d):
                found = I
                break
        if part.instance(found is not None) and not local:
            part.fail(found, d.label, None, "ring is not local")


@_sweep("T-XM")
def _t_xm(entry: CatalogEntry, part: _Part) -> None:
    """xM construction: prime x with x in delta(xM) strictly below M."""
    R = entry.ring
    if not R.is_local():
        return
    M = R.maximal_ideals()[0]
    primes = [x for x in range(R.order) if x != R.zero and is_prime_element(R, x)]
    for d in entry.expansions:
        for x in primes:
            xM = scale(x, M)
            dxM = d(xM)
            hyp = dxM.mask != M.mask and (dxM.mask & ~M.mask) == 0 and x in dxM
            if part.instance(hyp):
                ok, wit = one_absorbing_delta_primary_check(xM, d)
                if not ok:
                    part.fail(xM, d.label, wit, f"x={R.element_name(x)}")
                elif is_delta_primary(xM, d):
                    part.fail(xM, d.label, (x,), "xM is delta-primary")


def _finalize_xm(checked: int, hits: int) -> Optional[str]:
    if hits == 0:
        return (
            "no instance satisfied the hypotheses at this scale: in a finite "
            "local ring a prime element generates the maximal ideal, so "
            "delta(xM) strictly below M with x inside it is impossible"
        )
    return None


_FINALIZERS["T-XM"] = _finalize_xm


@_sweep("T-COLON")
def _t_colon(entry: CatalogEntry, part: _Part) -> None:
    """Colon by a nonunit outside a 1-absorbing delta-primary ideal is delta-primary."""
    R = entry.ring
    nonunits = [x for x in range(R.order) if not R.is_unit(x)]
    for d in entry.expansions:
        for I in R.proper_ideals():
            one_abs = is_one_absorbing_delta_primary(I, d)
            for a in nonunits:
                if part.instance(one_abs and a not in I):
                    K = colon(I, a)
                    if not is_delta_primary(K, d):
                        part.fail(I, d.label, (a,), f"(I:{R.element_name(a)}) not delta-primary")


@_sweep("T-M2")
def _t_m2(entry: CatalogEntry, part: _Part) -> None:
    """1-absorbing delta-primary: delta-semiprimary, or local with M^2 inside I."""
    R = entry.ring
    local = R.is_local()
    m2_mask = None
    if local:
        M = R.maximal_ideals()[0]
        m2_mask = ideal_product(M, M).mask
    for d in entry.expansions:
        for I in R.proper_ideals():
            if part.instance(is_one_absorbing_delta_primary(I, d)):
                if is_delta_semiprimary(I, d):
                    continue
                if local and (m2_mask & ~I.mask) == 0:
                    continue
                part.fail(I, d.label, None, "neither delta-semiprimary nor M^2 inside I")


# ----------------------------------------------------------------------
# chained, arithmetical, principal maximal


def _equiv_one_abs_primary(part: _Part, I: Ideal, d: ExpansionFunction, context: str) -> None:
    one_abs = is_one_absorbing_delta_primary(I, d)
    primary = is_delta_primary(I, d)
    if one_abs != primary:
        part.fail(I, d.label, None, f"{context}: 1abs={one_abs} delta-primary={primary}")


@_sweep("T-CHAINED")
def _t_chained(entry: CatalogEntry, part: _Part) -> None:
    """On a chained ring, away from M^2 the two notions coincide."""
    R = entry.ring
    if not R.is_chained():
        return
    M = R.maximal_ideals()[0]
    m2_mask = ideal_product(M, M).mask
    for d in entry.expansions:
        for I in R.proper_ideals():
            if part.instance(I.mask != m2_mask):
                _equiv_one_abs_primary(part, I, d, "chained")


@_sweep("T-ARITH")
def _t_arith(entry: CatalogEntry, part: _Part) -> None:
    """On an arithmetical ring, away from Jac^2 the two notions coincide."""
    R = entry.ring
    if not R.is_arithmetical():
        return
    M = R.jacobson_radical()
    m2_mask = ideal_product(M, M).mask
    for d in entry.expansions:
        for I in R.proper_ideals():
            if part.instance(I.mask != m2_mask):
                _equiv_one_abs_primary(part, I, d, "arithmetical")


@_sweep("T-PMAX")
def _t_pmax(entry: CatalogEntry, part: _Part) -> None:
    """Principal maximal ideal: 1abs iff delta-primary or M^2 inside I."""
    R = entry.ring
    if not R.is_local():
        return
    M = R.maximal_ideals()[0]
    if not is_principal(M):
        return
    m2_mask = ideal_product(M, M).mask
    for d in entry.expansions:
        for I in R.proper_ideals():
            part.instance(True)
            one_abs = is_one_absorbing_delta_primary(I, d)
            alt = is_delta_primary(I, d) or (m2_mask & ~I.mask) == 0
            if one_abs != alt:
                part.fail(I, d.label, None, f"1abs={one_abs} primary-or-M^2={alt}")
                continue
            if radical(I).mask & ~d(I).mask == 0:
                _equiv_one_abs_primary(part, I, d, "sqrt(I) inside delta(I)")


# ----------------------------------------------------------------------
# radical, idempotence, intersections, principal reduction


@_sweep("T-SQRT")
def _t_sqrt(entry: CatalogEntry, part: _Part) -> None:
    """If sqrt(delta(I)) = delta(sqrt(I)), the radical of a 1abs ideal is delta-primary."""
    R = entry.ring
    for d in entry.expansions:
        for I in R.proper_ideals():
            swap = _rad_or_unit(d(I)).mask == d(radical(I)).mask
            if part.instance(swap and is_one_absorbing_delta_primary(I, d)):
                if not is_delta_primary(radical(I), d):
                    part.fail(I, d.label, None, "sqrt(I) not delta-primary")


@_sweep("T-IDEM")
def _t_idem(entry: CatalogEntry, part: _Part) -> None:
    """At idempotent values, 1-absorbing delta-primary equals 1-absorbing prime."""
    R = entry.ring
    for d in entry.expansions:
        for I in R.proper_ideals():
            dI = d(I)
            hyp = dI.is_proper and d(dI).mask == dI.mask
            if part.instance(hyp):
                one_abs = is_one_absorbing_delta_primary(dI, d)
                prime_form = is_one_absorbing_prime(dI)
                if one_abs != prime_form:
                    part.fail(dI, d.label, None, f"1abs={one_abs} 1abs-prime={prime_form}")


@_sweep("T-INTER")
def _t_inter(entry: CatalogEntry, part: _Part) -> None:
    """Intersections of 1abs ideals sharing their delta value stay 1abs."""
    R = entry.ring
    proper = R.proper_ideals()
    for d in entry.expansions:
        preserving = _intersection_preserving(d)
        for i, I in enumerate(proper):
            for J in proper[i + 1 :]:
                hyp = (
                    preserving
                    and d(I).mask == d(J).mask
                    and is_one_absorbing_delta_primary(I, d)
                    and is_one_absorbing_delta_primary(J, d)
                )
                if part.instance(hyp):
                    K = ideal_intersection(I, J)
                    if not is_one_absorbing_delta_primary(K, d):
                        part.fail(K, d.label, None, f"intersection of {I.label} and {J.label}")


def _intersection_preserving(d: ExpansionFunction) -> bool:
    got = d.ring.cache.setdefault("inter_preserving", {})
    key = d.table
    if key not in got:
        from .expansions import is_intersection_preserving

        got[key] = is_intersection_preserving(d)
    return got[key]


@_sweep("T-PRINC")
def _t_princ(entry: CatalogEntry, part: _Part) -> None:
    """All principal proper ideals 1abs iff all proper ideals 1abs."""
    R = entry.ring
    for d in entry.expansions:
        part.instance(True)
        principal_all, _ = _every_proper_one_absorbing(R, d, principal_only=True)
        full_all, bad = _every_proper_one_absorbing(R, d)
        if principal_all != full_all:
            part.fail(bad, d.label, None, f"principal={principal_all} all={full_all}")


# ----------------------------------------------------------------------
# the characterization suite


def _char_states(R: FiniteRing, d: ExpansionFunction) -> tuple[bool, bool, bool]:
    i, _ = _every_proper_one_absorbing(R, d, principal_only=True)
    ii, _ = _every_proper_one_absorbing(R, d)
    jac = R.jacobson_radical()
    iii = R.is_local() and ideal_product(jac, jac).is_zero
    return i, ii, iii


@_sweep("T-CHAR")
def _t_char(entry: CatalogEntry, part: _Part) -> None:
    """Square-zero-radical local characterization under the delta conditions."""
    R = entry.ring
    for d in entry.expansions:
        i, ii, iii = _char_states(R, d)
        if iii and not (i and ii):
            part.fail(None, d.label, None, f"(iii) holds but i={i} ii={ii}", ring=R)
        star = satisfies_star(d)
        jac_fixed = preserves_jacobson(d)
        scaling_ok, _ = scaling_check(d)
        if part.instance(star and jac_fixed and scaling_ok):
            if not (i == ii == iii):
                part.fail(None, d.label, None, f"i={i} ii={ii} iii={iii}", ring=R)
        elif star and jac_fixed and not scaling_ok and i and not iii:
            part.notes.append(
                f"scaling necessity: {part.provenance} with {d.label} has every "
                "proper ideal 1-absorbing while the radical square is nonzero; "
                "only the scaling hypothesis fails there"
            )


@_sweep("T-CHAR-COR")
def _t_char_cor(entry: CatalogEntry, part: _Part) -> None:
    """The identity-expansion specialization of the characterization."""
    R = entry.ring
    d = identity_expansion(R)
    part.instance(True)
    i, ii, iii = _char_states(R, d)
    if not (i == ii == iii):
        part.fail(None, d.label, None, f"i={i} ii={ii} iii={iii}", ring=R)


@_sweep("T-SPEC")
def _t_spec(entry: CatalogEntry, part: _Part) -> None:
    """Prime expansions with tiny spectra make every proper ideal 1abs."""
    R = entry.ring
    if not R.is_local():
        return
    M = R.maximal_ideals()[0]
    spec_masks = {P.mask for P in R.spectrum()}
    for d in entry.expansions:
        d0 = d(R.zero_ideal())
        case1 = spec_masks == {d0.mask}
        case2 = spec_masks == {d0.mask, M.mask} and ideal_product(d0, M).is_zero
        hyp = (case1 or case2) and is_prime_expansion(d)
        if part.instance(hyp):
            ok, bad = _every_proper_one_absorbing(R, d)
            if not ok:
                part.fail(bad, d.label, None, "not every proper ideal is 1abs")


# ----------------------------------------------------------------------
# transfer along homomorphisms and constructions


@_sweep("T-HOM")
def _t_hom(entry: CatalogEntry, part: _Part) -> None:
    """Nonunit-preserving delta-gamma homomorphisms transport the property."""
    info = entry.ring.construction
    if not isinstance(info, QuotientOf):
        return
    Q = entry.ring
    f = info.projection
    parent = info.parent
    nonunit_ok, _ = f.is_nonunit_preserving()
    for d in standard_expansions(parent):
        g = induced_quotient(Q, d)
        compatible = nonunit_ok and is_delta_gamma_hom(f, d, g)
        for J in Q.proper_ideals():
            hyp = compatible and is_one_absorbing_delta_primary(J, g)
            if part.instance(hyp):
                pre = f.preimage_ideal(J)
                if not is_one_absorbing_delta_primary(pre, d):
                    part.fail(pre, d.label, None, f"preimage of {J.label} fails")
        ker_mask = f.kernel().mask
        for I in parent.proper_ideals():
            if ker_mask & ~I.mask:
                continue
            if part.instance(compatible):
                up = is_one_absorbing_delta_primary(I, d)
                down = is_one_absorbing_delta_primary(f.image_ideal(I), g)
                if up != down:
                    part.fail(I, d.label, None, f"source={up} image={down}")


@_sweep("T-QUOT")
def _t_quot(entry: CatalogEntry, part: _Part) -> None:
    """J is 1abs for delta iff J/I is 1abs for the induced quotient expansion."""
    R = entry.ring
    if R.construction is not None:
        return
    quotients: dict[int, tuple] = {}
    for I in R.proper_ideals():
        Q = make_quotient(R, I)
        proj = Q.construction.projection
        nonunit_ok, _ = proj.is_nonunit_preserving()
        quotients[I.mask] = (Q, proj, nonunit_ok)
    for d in entry.expansions:
        for I in R.proper_ideals():
            Q, proj, nonunit_ok = quotients[I.mask]
            g = induced_quotient(Q, d)
            for J in R.proper_ideals():
                if I.mask & ~J.mask:
                    continue
                if part.instance(nonunit_ok):
                    up = is_one_absorbing_delta_primary(J, d)
                    down = is_one_absorbing_delta_primary(proj.image_ideal(J), g)
                    if up != down:
                        part.fail(J, d.label, None, f"mod {I.label}: source={up} image={down}")


@_sweep("T-LOC")
def _t_loc(entry: CatalogEntry, part: _Part) -> None:
    """Compatible localizations keep extended ideals 1-absorbing."""
    info = entry.ring.construction
    if not isinstance(info, LocalizationOf):
        return
    L = entry.ring
    proj = info.projection
    parent = info.parent
    s_mask = 0
    for s in info.set_members:
        s_mask |= 1 << s
    for d in standard_expansions(parent):
        ds = induced_localization(L, d)
        compatible = localization_compatibility(L, d)
        for I in parent.proper_ideals():
            if I.mask & s_mask:
                continue
            hyp = compatible and is_one_absorbing_delta_primary(I, d)
            if part.instance(hyp):
                ext = proj.image_ideal(I)
                if not is_one_absorbing_delta_primary(ext, ds):
                    part.fail(I, d.label, None, f"extension {ext.label} fails")


@_sweep("T-PROD")
def _t_prod(entry: CatalogEntry, part: _Part) -> None:
    """Product characterization: 1abs, delta-primary, and the component form agree."""
    info = entry.ring.construction
    if not isinstance(info, ProductOf):
        return
    R = entry.ring
    R1, R2 = info.left, info.right
    full1 = (1 << R1.order) - 1
    full2 = (1 << R2.order) - 1
    for d1 in standard_expansions(R1):
        for d2 in standard_expansions(R2):
            dx = induced_product(R, d1, d2)
            for I in R.proper_ideals():
                part.instance(True)
                m1, m2 = info.decompose_mask(I.mask)
                s1 = is_one_absorbing_delta_primary(I, dx)
                s2 = is_delta_primary(I, dx)
                if m2 == full2:
                    s3 = is_delta_primary(Ideal(R1, m1), d1)
                elif m1 == full1:
                    s3 = is_delta_primary(Ideal(R2, m2), d2)
                else:
                    s3 = (
                        d1(Ideal(R1, m1)).mask == full1
                        and d2(Ideal(R2, m2)).mask == full2
                    )
                if not (s1 == s2 == s3):
                    part.fail(I, dx.label, None, f"1abs={s1} primary={s2} components={s3}")
                elif (
                    entry.provenance == "Z2xZ2"
                    and d1.label == "id"
                    and d2.label == "id"
                    and I.is_zero
                    and not s1
                ):
                    _, wit = one_absorbing_delta_primary_check(I, dx)
                    part.notes.append(
                        "true negative: (0)x(0) in Z2xZ2 under prod(id,id) is not "
                        f"1-absorbing, witness {', '.join(_names(R, wit))}"
                    )


@_standalone("T-PROD-EX")
def _t_prod_ex(part: _Part) -> None:
    """Fixed product example: components 1abs, intersection not."""
    R1, R2 = make_zn(4), make_zn(9)

    def sqrt_plus_two(factor: FiniteRing):
        two = span(factor, [2 % factor.order])

        def rule(I: Ideal) -> Ideal:
            if not I.is_proper:
                return factor.unit_ideal()
            return radical(I) + two

        return from_rule(factor, rule, "rad+(2)")

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


@_sweep("T-TRIV")
def _t_triv(entry: CatalogEntry, part: _Part) -> None:
    """Trivial extension pair ideals transport the 1-absorbing form."""
    info = entry.ring.construction
    if not isinstance(info, TrivialExtensionOf):
        return
    T = entry.ring
    A, E = info.base, info.module
    for d in standard_expansions(A):
        dt = induced_trivial_extension(T, d)
        for I, fmask in info.pair_ideals():
            if not I.is_proper:
                continue
            J = Ideal(T, info.pair_mask(I.mask, fmask))
            up = is_one_absorbing_delta_primary(J, dt)
            down = is_one_absorbing_delta_primary(I, d)
            colon_fixed = all(
                E.module_colon(fmask, c) == fmask
                for c in range(A.order)
                if c not in I
            )
            part.instance(up or colon_fixed)
            if up and not down:
                part.fail(J, dt.label, None, f"pair ideal 1abs but {I.label} is not")
            if colon_fixed and up != down:
                part.fail(J, dt.label, None, f"(F:c)=F but pair={up} base={down}")


@_sweep("T-TRIV-COR")
def _t_triv_cor(entry: CatalogEntry, part: _Part) -> None:
    """I with the full module transports the 1-absorbing form both ways."""
    info = entry.ring.construction
    if not isinstance(info, TrivialExtensionOf):
        return
    T = entry.ring
    A, E = info.base, info.module
    full = (1 << E.order) - 1
    for d in standard_expansions(A):
        dt = induced_trivial_extension(T, d)
        for I in A.proper_ideals():
            part.instance(True)
            J = Ideal(T, info.pair_mask(I.mask, full))
            up = is_one_absorbing_delta_primary(J, dt)
            down = is_one_absorbing_delta_primary(I, d)
            if up != down:
                part.fail(J, dt.label, None, f"pair={up} base={down}")


# ----------------------------------------------------------------------
# driver


def verify(theorem_id: str, catalog: Catalog, jobs: Optional[int] = None) -> TheoremReport:
    """Run one statement check over the catalog and report the outcome.

    The sweep runs in the calling thread. ``jobs`` is accepted for
    compatibility and has no effect.
    """
    if theorem_id not in THEOREM_IDS:
        raise UnknownTheoremError(f"unknown theorem id {theorem_id!r}")
    start = perf_counter()
    parts: list[_Part]
    if theorem_id in _STANDALONE:
        part = _Part("Z4xZ9")
        _STANDALONE[theorem_id](part)
        parts = [part]
    else:
        fn = _SWEEPS[theorem_id]
        parts = []
        for entry in catalog.entries:
            part = _Part(entry.provenance)
            fn(entry, part)
            parts.append(part)
        parts.sort(key=lambda p: p.provenance)

    checked = sum(p.checked for p in parts)
    hits = sum(p.hits for p in parts)
    failures: list[Witness] = []
    dropped = 0
    notes: list[str] = [f"catalog: {n}" for n in catalog.notices]
    for p in parts:
        for w in p.failures:
            if len(failures) < FAILURE_CAP:
                failures.append(w)
            else:
                dropped += 1
        dropped += p.dropped
        notes.extend(p.notes)
    if dropped:
        notes.append(f"conclusion failures truncated to {FAILURE_CAP} of {FAILURE_CAP + dropped}")
    finalize = _FINALIZERS.get(theorem_id)
    if finalize is not None:
        extra = finalize(checked, hits)
        if extra:
            notes.append(extra)
    return TheoremReport(
        theorem_id=theorem_id,
        instances_checked=checked,
        hypothesis_satisfied=hits,
        conclusion_failures=tuple(failures),
        elapsed=perf_counter() - start,
        notes=tuple(notes),
    )


def verify_all(
    catalog: Catalog,
    theorem_ids: Optional[tuple[str, ...]] = None,
    jobs: Optional[int] = None,
) -> list[TheoremReport]:
    """Run the whole suite (or a selection) in declaration order. ``jobs``
    has no effect, as in ``verify``."""
    ids = THEOREM_IDS if theorem_ids is None else theorem_ids
    return [verify(tid, catalog) for tid in ids]


def search_witness(query, catalog: Catalog) -> list[Witness]:
    """All (ring, ideal, delta) triples in the catalog matching a parsed query.

    Accepts a Query or a query string. Delta-free queries sweep (ring, ideal)
    pairs once and record the delta column as "-".
    """
    from .specparse import Query, parse_query

    if not isinstance(query, Query):
        query = parse_query(query)
    out: list[Witness] = []
    for entry in catalog:
        R = entry.ring
        if query.uses_delta:
            for d in entry.expansions:
                for I in R.proper_ideals():
                    if query.evaluate(I, d):
                        out.append(
                            Witness(entry.provenance, _names(R, I.members), d.label, None, "")
                        )
        else:
            for I in R.proper_ideals():
                if query.evaluate(I, None):
                    out.append(Witness(entry.provenance, _names(R, I.members), "-", None, ""))
    return out


if set(THEOREM_IDS) != set(_SWEEPS) | set(_STANDALONE):
    raise InvariantError("statement registry out of sync")
