"""Ring constructions: products, quotients, trivial extensions, localizations.

Each construction attaches a descriptor object to the produced ring so that
expansions and the verifier can recover the ingredients. Labels double as
provenance strings: for catalog-shaped inputs they re-parse to a ring with
identical tables.

The constructors of ``FiniteRing``, ``RingHom``, ``FiniteModule`` and
``MultiplicativeSet`` prove caller data at run time. What this module builds
from valid inputs is proven by a named theorem and built by each class's
``_built``, with the zero and one the construction gives: R1 x R2 and A x E
(E an A-module) are rings; R/K is a ring and R -> R/K a homomorphism for an
ideal K, localizations included; A, A/J and E1 x E2 are A-modules; products
of generators are multiplicatively closed. A test rebuilds each through the
validating constructors.

A caller's ``FiniteModule`` is checked and spanned by the ring and ideal code.
Its addition table goes through ``rings._normalize_table`` and
``rings._additive_zero``, and its action rows through ``rings._row_in_range``.
Its span and submodule lattice are sums of cyclic submodules Re, each read
off a column of the action table, through ``ideals._sum_masks`` and
``ideals._sum_closure``, the routines that build ideal spans and lattices.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Optional, Sequence, Union

from .errors import ConstructionError, InvariantError, RingMismatchError, TableError
from .ideals import (
    Ideal, _lattice_masks, _sum_closure, _sum_masks, generator_list, is_ideal_mask)
from .rings import (
    Element,
    FiniteRing,
    RingHom,
    _additive_zero,
    _colon_rows,
    _element_index,
    _normalize_table,
    _pair_rows,
    _per_ring,
    _row_in_range,
)


# ----------------------------------------------------------------------
# products


class _PairEncoding:
    """Row-major pairs of a ring of n1 elements and a space of n2: (a, b) is
    index a*n2 + b, so the mask of a set of pairs is n1 rows of n2 bits."""

    def __init__(self, n1: int, n2: int) -> None:
        self._n1, self._n2 = n1, n2

    def encode(self, a: int, b: int) -> int:
        return a * self._n2 + b

    def decode(self, i: int) -> tuple[int, int]:
        return divmod(i, self._n2)

    def pair_mask(self, m1: int, m2: int) -> int:
        return self._pair_masks((m1,), (m2,))[0]

    def _pair_masks(self, masks1: Sequence[int], masks2: Sequence[int]) -> list[int]:
        """The mask of m1 x m2 for each (m1, m2), row-major: one multiply of m2
        by spread(m1), the mask with bit a*n2 for each bit a of m1, which is
        m1's binary digits with n2 - 1 zeros between each two. The shifted
        copies of m2 do not overlap, since m2 < 2**n2."""
        zeros = "0" * (self._n2 - 1)
        return [m2 * s for s in [int(zeros.join(format(m1, "b")), 2) for m1 in masks1]
                for m2 in masks2]

    def _split(self, mask: int) -> tuple[int, int]:
        """The two coordinate masks of a set of pairs: the a whose row holds
        a pair, and the union of the rows. Their pair mask is the smallest
        one that contains the set, and equals it when the set is a pair."""
        n2 = self._n2
        rows = [mask >> (a * n2) & (1 << n2) - 1 for a in range(self._n1)]
        return sum(1 << a for a, row in enumerate(rows) if row), reduce(or_, rows)


class ProductOf(_PairEncoding):
    """Descriptor for a product ring, with row-major pair encoding."""

    def __init__(self, left: FiniteRing, right: FiniteRing) -> None:
        super().__init__(left.order, right.order)
        self.left, self.right = left, right

    def decompose_mask(self, mask: int) -> tuple[int, int]:
        """Split an ideal mask into its two component ideal masks."""
        m1, m2 = self._split(mask)
        if self.pair_mask(m1, m2) != mask:
            raise InvariantError(f"mask {mask:#x} is not a product ideal")
        return m1, m2


def make_product(R1: FiniteRing, R2: FiniteRing) -> FiniteRing:
    """The componentwise product ring R1 x R2."""
    info = ProductOf(R1, R2)
    add = _pair_rows(R1.add_table, R2.add_table)
    mul = _pair_rows(R1.mul_table, R2.mul_table)
    names = tuple(f"({a},{b})" for a in R1.element_names for b in R2.element_names)
    zero, one = info.encode(R1.zero, R2.zero), info.encode(R1.one, R2.one)
    return FiniteRing._built(add, mul, zero, one, f"{R1.label}x{R2.label}", info, names)


# ----------------------------------------------------------------------
# quotients


class QuotientOf:
    """Descriptor for a quotient ring R/I. generators is the string of I's
    ``generator_list``, as the quotient's label and induced labels print it."""

    def __init__(self, parent: FiniteRing, ideal_mask: int, projection: RingHom,
                 generators: str) -> None:
        self.parent, self.ideal_mask, self.projection = parent, ideal_mask, projection
        self.generators = generators


def _coset_tables(R: FiniteRing, kmask: int) -> tuple:
    """(cls, reps, add, act, names) modulo the ideal mask kmask: each element's
    class, the sorted coset leaders (each the smallest member of its coset,
    met first in ascending order), the classes' addition, the action of each
    element of R on them (the leaders' rows are the classes' multiplication)
    and the leaders' names."""
    members = [a for a in range(R.order) if (kmask >> a) & 1]
    cls, reps = [-1] * R.order, []
    for a in range(R.order):
        if cls[a] < 0:
            for c in map(R.add_table[a].__getitem__, members):
                cls[c] = len(reps)
            reps.append(a)
    add = tuple(tuple([cls[row[b]] for b in reps]) for row in map(R.add_table.__getitem__, reps))
    act = tuple(tuple([cls[row[b]] for b in reps]) for row in R.mul_table)
    return tuple(cls), reps, add, act, tuple(map(R.element_name, reps))


def _coset_ring(R: FiniteRing, kmask: int, label: str) -> tuple[FiniteRing, RingHom]:
    """R modulo an ideal mask, by sorted coset leaders, and the projection."""
    cls, reps, add, act, names = _coset_tables(R, kmask)
    Q = FiniteRing._built(add, tuple(map(act.__getitem__, reps)), cls[R.zero], cls[R.one], label,
                          None, names)
    return Q, RingHom._built(R, Q, cls)


def make_quotient(R: FiniteRing, I: Ideal) -> FiniteRing:
    """The quotient ring R/I, elements indexed by sorted coset leaders.

    Built once per ideal of R: a repeated call returns the same ring.
    """
    if I.ring is not R:
        raise RingMismatchError("ideal belongs to a different ring")
    if not I.is_proper:
        raise ConstructionError("cannot quotient by the unit ideal, the zero ring is excluded")
    quotients = R.cache.setdefault("quotients", {})
    Q = quotients.get(I.mask)
    if Q is not None:
        return Q
    R.lattice_position(I.mask)  # raises unless I is an ideal, the theorem's hypothesis
    gens = ",".join(str(g) for g in generator_list(I))
    Q, proj = _coset_ring(R, I.mask, f"{R.label}/({gens})")
    Q.construction = QuotientOf(R, I.mask, proj, gens)
    quotients[I.mask] = Q
    return Q


def quotient_projection(Q: FiniteRing) -> RingHom:
    info = Q.construction
    if not isinstance(info, QuotientOf):
        raise RingMismatchError(f"{Q.label} was not built as a quotient")
    return info.projection


# ----------------------------------------------------------------------
# finite modules and trivial extensions


class FiniteModule:
    """A finite module over a finite ring, as dense add and action tables.

    spec_label is the module part of a trivial-extension provenance string
    ("reg", "quot:(gens)"), or a free-form tag for hand-built modules.
    """

    def __init__(
        self,
        ring: FiniteRing,
        add_table: Sequence[Sequence[int]],
        action: Sequence[Sequence[int]],
        spec_label: str,
        element_names: Optional[Sequence[str]] = None,
    ):
        self.ring = ring
        self.order = len(add_table)
        if self.order < 1:
            raise ConstructionError("module must be nonempty")
        self.add_table = _normalize_table(add_table, self.order, "module addition")
        self.action = tuple(tuple(row) for row in action)
        self.spec_label = spec_label
        if element_names is not None:
            self.element_names = tuple(element_names)
            if len(self.element_names) != self.order:
                raise ConstructionError("element_names length must equal the module order")
        else:
            self.element_names = tuple(str(i) for i in range(self.order))
        self._validate()
        self.cache: dict = {}

    @classmethod
    def _built(cls, ring: FiniteRing, add: tuple, action: tuple, zero: int, spec_label: str,
               element_names: tuple[str, ...]) -> FiniteModule:
        """A module that a construction proves, from tuple rows: not validated."""
        E = cls.__new__(cls)
        E.ring, E.order, E.add_table, E.action, E.zero = ring, len(add), add, action, zero
        E.spec_label, E.element_names, E.cache = spec_label, element_names, {}
        return E

    def _validate(self) -> None:
        m, n = self.order, self.ring.order
        if len(self.action) != n:
            raise TableError("module action table must have one row per ring element")
        for row in self.action:
            if len(row) != m or not _row_in_range(row, m):
                raise TableError("module action table is malformed")
        add = self.add_table
        self.zero = _additive_zero(add, "module ")
        for a in range(m):
            arow = add[a]
            for b in range(m):
                ab = arow[b]
                brow = add[b]
                for c in range(m):
                    if add[ab][c] != arow[brow[c]]:
                        raise TableError(f"module addition not associative at ({a},{b},{c})")
        act = self.action
        radd, rmul = self.ring.add_table, self.ring.mul_table
        if act[self.ring.one] != tuple(range(m)):
            raise TableError("module action of one is not the identity")
        for r in range(n):
            arow = act[r]
            for e in range(m):
                # r(e+f) = re + rf
                for f_ in range(m):
                    if arow[add[e][f_]] != add[arow[e]][arow[f_]]:
                        raise TableError(f"action not additive at ({r},{e},{f_})")
            for s in range(n):
                srow = act[s]
                # (r+s)e = re + se and (rs)e = r(se)
                plus = act[radd[r][s]]
                times = act[rmul[r][s]]
                for e in range(m):
                    if plus[e] != add[arow[e]][srow[e]]:
                        raise TableError(f"action not linear in the ring at ({r},{s},{e})")
                    if times[e] != arow[srow[e]]:
                        raise TableError(f"action not associative at ({r},{s},{e})")

    def add(self, e: int, f: int) -> int:
        return self.add_table[e][f]

    def act(self, r: int, e: int) -> int:
        return self.action[r][e]

    def element_name(self, e: int) -> str:
        return self.element_names[e]

    def span(self, generators: Sequence[int]) -> int:
        """Bitmask of the submodule generated by the given elements: the sum
        of their cyclic submodules, as ``ideals.span`` sums principal ideals."""
        cyclic = _cyclic_masks(self)
        mask = 1 << self.zero
        for e in generators:
            mask = _sum_masks(self, mask, cyclic[_element_index(self, e)])
        return mask

    @_per_ring("submodules")
    def submodules(self) -> tuple[int, ...]:
        """All submodule bitmasks, ordered by cardinality then bitset value:
        the sums of the cyclic submodules, closed as ``all_ideals`` closes
        the principal ideals."""
        return _sum_closure(self, _cyclic_masks(self))

    def module_colon(self, fmask: int, c: Union[int, Element]) -> int:
        """Bitmask of (F : c) = {e : c e lies in F}, from c's action row."""
        return _colon_rows((self.action[_element_index(self.ring, c)],), fmask)[0]

    def __repr__(self) -> str:
        return f"FiniteModule({self.spec_label!r} over {self.ring.label}, order={self.order})"


@_per_ring("cyclic_masks")
def _cyclic_masks(E: FiniteModule) -> tuple[int, ...]:
    """For each element e, the mask of the cyclic submodule Re.

    Re = {r*e : r in R} is column e of the action table: it holds e = 1*e,
    and r*e + s*e = (r+s)*e and s*(r*e) = (s*r)*e keep it closed, as
    ``ideals._principal_masks`` reads (x) off a multiplication row.
    """
    return tuple(sum(1 << v for v in set(col)) for col in zip(*E.action))


def regular_module(A: FiniteRing) -> FiniteModule:
    """A as a module over itself."""
    return FiniteModule._built(A, A.add_table, A.mul_table, A.zero, "reg", A.element_names)


def quotient_module(A: FiniteRing, J: Ideal) -> FiniteModule:
    """The module A/J with the induced action."""
    if J.ring is not A:
        raise RingMismatchError("ideal belongs to a different ring")
    A.lattice_position(J.mask)  # raises unless J is an ideal
    cls, _, add, action, names = _coset_tables(A, J.mask)
    gens = ",".join(str(g) for g in generator_list(J))
    return FiniteModule._built(A, add, action, cls[A.zero], f"quot:({gens})", names)


def module_product(E1: FiniteModule, E2: FiniteModule) -> FiniteModule:
    """The direct product of two modules over the same ring."""
    if E1.ring is not E2.ring:
        raise RingMismatchError("modules live over different rings")
    m2 = E2.order
    add = _pair_rows(E1.add_table, E2.add_table)
    action = tuple(tuple([x * m2 + y for x in row1 for y in row2])
                   for row1, row2 in zip(E1.action, E2.action))
    names = tuple(f"({a},{b})" for a in E1.element_names for b in E2.element_names)
    label = f"({E1.spec_label}x{E2.spec_label})"
    return FiniteModule._built(E1.ring, add, action, E1.zero * m2 + E2.zero, label, names)


class TrivialExtensionOf(_PairEncoding):
    """Descriptor for A extended by the module E, row-major pair encoding."""

    def __init__(self, base: FiniteRing, module: FiniteModule) -> None:
        super().__init__(base.order, module.order)
        self.base, self.module = base, module

    def split_pair_mask(self, mask: int) -> Optional[tuple[int, int]]:
        """Recover (I, F) masks when the mask has pair form, else None."""
        imask, fmask = self._split(mask)
        return (imask, fmask) if self.pair_mask(imask, fmask) == mask else None

    def pair_envelope(self, mask: int) -> tuple[int, int]:
        """The smallest enveloping pair (I, F) with I E inside F: I holds the
        base coordinates, F is spanned by the module coordinates and I E."""
        imask, emask = self._split(mask)
        gens = [e for e in range(self._n2) if (emask >> e) & 1]
        for a in range(self._n1):
            if (imask >> a) & 1:
                gens.extend(self.module.action[a])
        return imask, self.module.span(gens)

    def is_ideal_pair(self, I: Ideal, fmask: int) -> bool:
        """Whether I E lies inside F, making I with F an ideal pair: the
        colon (F : a) is all of E for every a in I."""
        if I.ring is not self.base:
            raise RingMismatchError("ideal belongs to a different ring")
        full = (1 << self._n2) - 1
        return all(self.module.module_colon(fmask, a) == full for a in I.members_sorted)

    def pair_ideals(self) -> tuple[tuple[Ideal, int], ...]:
        """All (I, F) pairs that form ideals of the extension: I E, the
        union of the action rows of I's elements, lies inside F."""
        rows = [sum(1 << e for e in set(row)) for row in self.module.action]
        submodules = self.module.submodules()
        out = []
        for I in self.base.ideals():
            ie = 0
            for a in I.members_sorted:
                ie |= rows[a]
            out.extend((I, fmask) for fmask in submodules if not ie & ~fmask)
        return tuple(out)


def make_trivial_extension(A: FiniteRing, E: FiniteModule) -> FiniteRing:
    """The trivial extension of A by E: (a,e)(b,f) = (ab, af + be)."""
    if E.ring is not A:
        raise RingMismatchError("module lives over a different ring")
    info = TrivialExtensionOf(A, E)
    n, m = A.order, E.order
    add = _pair_rows(A.add_table, E.add_table)
    # row (a, e) of mul: entry (b, f) is ab*m + (af + be), where plus[a][w]
    # is af + w over f, and col[e][b] = be
    shifted = [[k * m for k in row] for row in A.mul_table]
    plus = [[tuple(E.add_table[x][w] for x in act) for w in range(m)] for act in E.action]
    col = list(zip(*E.action))
    mul = tuple(
        tuple([s + x for s, w in zip(shifted[a], col[e]) for x in plus[a][w]])
        for a in range(n)
        for e in range(m)
    )
    names = tuple(f"({a}|{e})" for a in A.element_names for e in E.element_names)
    zero, one = info.encode(A.zero, E.zero), info.encode(A.one, E.zero)
    return FiniteRing._built(add, mul, zero, one, f"triv({A.label},{E.spec_label})", info, names)


# ----------------------------------------------------------------------
# multiplicative sets and localization


def _require_elements(R: FiniteRing, items) -> None:
    for a in items:
        if not (isinstance(a, int) and 0 <= a < R.order):
            raise ConstructionError(f"set member {a!r} is not an element of {R.label}")


def _products(R: FiniteRing, gens: Sequence[int]) -> set[int]:
    """The products of the generators, breadth first from one by the steps
    s -> s*g in O(|S| * |gens|): closed, as s*(g1...gk) is k steps on."""
    members, todo, mul = {R.one}, [R.one], R.mul_table
    for s in todo:  # todo grows while it is walked: breadth first
        for t in map(mul[s].__getitem__, gens):
            if t not in members:
                members.add(t)
                todo.append(t)
    return members


class MultiplicativeSet:
    """A multiplicatively closed subset containing one and excluding zero."""

    def __init__(self, ring: FiniteRing, members, generators: Optional[Sequence[int]] = None):
        self.ring = ring
        self.members = frozenset(members)
        _require_elements(ring, self.members)
        if ring.one not in self.members:
            raise ConstructionError("multiplicative set must contain one")
        if ring.zero in self.members:
            raise ConstructionError("multiplicative set contains zero, localization would be the zero ring")
        mul = ring.mul_table
        for a in self.members:
            row = mul[a]
            for b in self.members:
                if row[b] not in self.members:
                    raise ConstructionError(
                        f"set is not multiplicatively closed, witness ({a}, {b})"
                    )
        if generators is None:
            self.generators = tuple(sorted(self.members))
        else:
            self.generators = tuple(generators)
            _require_elements(ring, self.generators)
            if _products(ring, self.generators) != self.members:
                raise ConstructionError(
                    f"generators {list(self.generators)} do not generate the set "
                    f"{sorted(self.members)}")

    @classmethod
    def from_generators(cls, R: FiniteRing, gens: Sequence[int]) -> MultiplicativeSet:
        """The products of the generators (``_products``)."""
        _require_elements(R, gens)
        gens = tuple(sorted(set(gens)))
        members = _products(R, gens)
        if R.zero in members:
            return cls(R, members, gens)  # raises, as the set holds zero
        return cls._built(R, frozenset(members), gens)

    @classmethod
    def _built(cls, ring: FiniteRing, members: frozenset, generators: tuple) -> MultiplicativeSet:
        """A set, holding one and not zero, that its construction proves closed."""
        S = cls.__new__(cls)
        S.ring, S.members, S.generators = ring, members, generators
        return S

    def __contains__(self, a: int) -> bool:
        return a in self.members

    def __repr__(self) -> str:
        return f"MultiplicativeSet({self.ring.label}, {sorted(self.members)})"


class LocalizationOf:
    """Descriptor for a localization, realized as a quotient."""

    def __init__(self, parent: FiniteRing, set_members: tuple[int, ...],
                 set_generators: tuple[int, ...], projection: RingHom) -> None:
        self.parent, self.set_members, self.set_generators = parent, set_members, set_generators
        self.projection = projection


class Localization:
    """The localized ring together with the canonical map and its kernel."""

    def __init__(self, ring: FiniteRing, projection: RingHom, kernel: Ideal,
                 sset: MultiplicativeSet) -> None:
        self.ring, self.projection, self.kernel, self.sset = ring, projection, kernel, sset


def localize(R: FiniteRing, S: MultiplicativeSet) -> Localization:
    """Localization of a finite ring at S, as R modulo the S-torsion.

    In a finite ring every element of S becomes invertible in R/ker, where
    ker collects the elements killed by some member of S, and the quotient
    satisfies the universal property of the localization.
    """
    if S.ring is not R:
        raise RingMismatchError("multiplicative set belongs to a different ring")
    mul = R.mul_table
    zero = R.zero
    kmask = 0
    smembers = sorted(S.members)
    for r in range(R.order):
        for s in smembers:
            if mul[s][r] == zero:
                kmask |= 1 << r
                break
    if not is_ideal_mask(R, kmask):
        raise InvariantError(f"S-torsion of {R.label} failed the ideal scan")
    gens = ",".join(str(g) for g in S.generators)
    L, proj = _coset_ring(R, kmask, f"loc({R.label},{gens})")
    L.construction = LocalizationOf(R, tuple(smembers), tuple(S.generators), proj)
    for s in smembers:
        if not L.is_unit(proj(s)):
            raise InvariantError("localized image of the multiplicative set is not a unit")
    return Localization(L, proj, Ideal(R, kmask), S)


# ----------------------------------------------------------------------
# the ideal correspondence of each construction


def _preimage_positions(f: RingHom) -> tuple[int, ...]:
    """For each codomain lattice position q, the domain position of f^-1(J_q)."""
    pos = f.domain.lattice_position
    return tuple(
        pos(sum(1 << a for a, v in enumerate(f.mapping) if (J.mask >> v) & 1))
        for J in f.codomain.ideals()
    )


@_per_ring("correspondence")
def _correspondence(R: FiniteRing) -> tuple:
    """How R's construction maps ideals to ideals, as lattice positions. p
    indexes the source lattice, q R's.

    - Quotient or localization by the projection f: ``(img, pre)``, img[p]
      the position of f(I_p) (f is onto) and pre[q] that of f^-1(J_q).
    - Product: ``(comp, inv)``, comp[q] = (p1, p2) when J_q = I_p1 x I_p2,
      and inv the inverse map.
    - Trivial extension of A by E: ``(env, up, pairs)``, env[q] the A-part of
      J_q's smallest enveloping pair ideal, up[p] the position of I_p x E,
      and pairs a (p, q, F) per pair ideal J_q = I_p x F, in ``pair_ideals``
      order.
    """
    info, pos, lattice = R.construction, R.lattice_position, R.ideals()
    if isinstance(info, (QuotientOf, LocalizationOf)):
        f = info.projection.mapping
        # the image mask is the sum of the distinct bits f(a), a in I
        img = tuple(pos(sum({1 << f[a] for a in I.members_sorted})) for I in info.parent.ideals())
        return img, _preimage_positions(info.projection)
    if isinstance(info, ProductOf):
        n2 = len(info.right.ideals())
        comp = tuple(divmod(k, n2) for k in _lattice_masks(R)[1])
        return comp, dict(sorted(zip(comp, range(len(comp)))))  # inv, row-major
    if isinstance(info, TrivialExtensionOf):
        A, block = info.base, (1 << info.module.order) - 1
        env = tuple(A.lattice_position(info._split(J.mask)[0]) for J in lattice)
        up = tuple(pos(info.pair_mask(I.mask, block)) for I in A.ideals())
        pairs = tuple(
            (A.lattice_position(I.mask), pos(info.pair_mask(I.mask, F)), F)
            for I, F in info.pair_ideals()
        )
        return env, up, pairs
    raise RingMismatchError(f"{R.label} was not built by a construction")
