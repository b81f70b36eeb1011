"""Element-wise references for what the library reads off lattice positions
once a ring's lattice exists.

``ideals.generator_list`` walks its non-principal ideals through joins, and
``expansions._scaling_table`` forms its multi-generator entries as joins.
Here the walk sums masks with ``ideals._sum_masks``, and each scaled ideal
multiplies every member, so neither reads the join. T-TRIV reads whether
(F : c) = F for every c outside I off one colon-fixed mask per submodule F
(``verifier._triv_pairs``); here each colon is formed by ``module_colon``.
Used by the Tier-1 tests and by ``tests/large_tier.py``.
"""

from __future__ import annotations

from ringlab.expansions import _scaling_table
from ringlab.ideals import (
    Ideal, _principal_masks, _principal_table, _sum_masks, generator_list, principal_generator, scale)
from ringlab.rings import FiniteRing
from ringlab.verifier import _triv_pairs


def mask_walk(I: Ideal) -> tuple[int, ...]:
    """``generator_list`` with the greedy walk's sums formed as masks."""
    g = principal_generator(I)
    if g is not None:
        return (g,)
    R = I.ring
    pm = _principal_masks(R)
    gens: list[int] = []
    current = 1 << R.zero
    for x in I.members_sorted:
        if (current >> x) & 1:
            continue
        gens.append(x)
        current = _sum_masks(R, current, pm[x])
        if current == I.mask:
            break
    return tuple(gens)


def walk_differences(R: FiniteRing) -> list[str]:
    """The labels of R's ideals where ``generator_list`` and the mask walk
    disagree."""
    return [I.label for I in R.ideals() if generator_list(I) != mask_walk(I)]


def scaling_differences(R: FiniteRing) -> list[tuple[int, int]]:
    """The (x, p) where row x of the scaling table does not hold the
    position of ``scale(x, I_p)``, with x the smallest generator of each
    principal ideal: associates share one row."""
    table, pos = _scaling_table(R), R.lattice_position
    return [(x, p) for x in _principal_table(R).values() for p, I in enumerate(R.ideals())
            if table[x][p] != pos(scale(x, I).mask)]


def colon_fixed(T: FiniteRing, I: Ideal, F: int) -> bool:
    """Whether (F : c) = F for every c of the trivial extension T's base
    outside I, one ``module_colon`` at a time."""
    E = T.construction.module
    return all(E.module_colon(F, c) == F for c in range(E.ring.order) if c not in I)


def colon_fixed_differences(T: FiniteRing) -> list:
    """The entries of ``_triv_pairs(T)`` that differ from (p, q, flag) built
    here, per pair ideal I_p x F with I_p proper in ``pair_ideals`` order,
    with the flag from ``colon_fixed``: empty when they agree."""
    info = T.construction
    want = [(info.base.lattice_position(I.mask), T.lattice_position(info.pair_mask(I.mask, F)),
             colon_fixed(T, I, F)) for I, F in info.pair_ideals() if I.is_proper]
    got = _triv_pairs(T)
    return [g for g, w in zip(got, want) if g != w] + got[len(want):] + want[len(got):]
