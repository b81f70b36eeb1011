"""What each workload runs, what it must produce, and the inputs its seed draws."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# A classify run's sample is this many rounds; a round classifies one
# expansion of every catalog ring, so the sample weighs every ring the same
# and the seed only picks expansions and order. That keeps a run's figures
# steady across seeds while every request starts from a freshly parsed ring.
ROUNDS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Counts the run must reproduce; any mismatch makes the run incorrect.
    expect: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "check-default",
            "ringlab check --theorem all --json --jobs 1 on the default catalog: the command "
            "the suite exists for, serial, touching every layer",
            {"rings": 190, "expansions": 995, "instances_checked": 272657,
             "hypothesis_satisfied": 89220, "conclusion_failures": 0},
        ),
        Workload(
            "classify-sample",
            "seeded classify requests, each on a freshly parsed ring: cold lattices and "
            "predicates with no memo reuse, the other way round from the sweeps",
            {},
        ),
    )
}


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str):
    with open(golden_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


def ring_groups(pairs: list) -> list[list[int]]:
    """Indices of the (ring, expansion) pairs, grouped by ring in catalog order."""
    groups: dict[str, list[int]] = {}
    for i, (ring, _delta, _digest) in enumerate(pairs):
        groups.setdefault(ring, []).append(i)
    return list(groups.values())


def classify_sample(pairs: list, seed: int) -> list[int]:
    """The pair indices a run with this seed classifies: ``ROUNDS`` shuffled rounds."""
    rng = random.Random(seed)
    groups = ring_groups(pairs)
    out: list[int] = []
    for _ in range(ROUNDS):
        draw = [rng.choice(group) for group in groups]
        rng.shuffle(draw)
        out.extend(draw)
    return out


def pass_order(size: int, seed: int, pass_index: int) -> list[int]:
    """The order, as sample positions, in which pass ``pass_index`` serves the sample.

    Every pass serves the whole sample, each in its own order, so a
    request's repeats fall at different times of the run.
    """
    order = list(range(size))
    random.Random(f"{seed}/{pass_index}").shuffle(order)
    return order
