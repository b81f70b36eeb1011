"""Element-wise references for what the library reads off lattice positions
once a ring's lattice exists.

``ideals.generator_list`` walks its non-principal ideals through joins, and
``expansions._scaling_table`` forms its multi-generator entries as joins.
Here the walk sums masks with ``ideals._sum_masks``, and each scaled ideal
multiplies every member, so neither reads the join. Used by the Tier-1
tests and by ``tests/large_tier.py``.
"""

from __future__ import annotations

from ringlab.expansions import _scaling_table
from ringlab.ideals import (
    Ideal, _principal_masks, _principal_table, _sum_masks, generator_list, principal_generator, scale)
from ringlab.rings import FiniteRing


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
