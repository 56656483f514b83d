"""Independent references the benchmark checks the program's outputs against.

Everything here works from the raw CSV rows, with plain dictionaries, and
shares no code with the program's schemes.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

WEIGHT_TOL = 1e-9

Adjacency = Dict[str, Dict[str, float]]


def window_adjacency(rows: Iterable[tuple]) -> Dict[int, Adjacency]:
    """Per integer window: ``src -> dst -> summed weight``."""
    windows: Dict[int, Adjacency] = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
    for time, src, dst, weight in rows:
        windows[int(time)][src][dst] += weight
    return windows


def tt_reference(adjacency: Adjacency, owner: str) -> Dict[str, float]:
    """Top Talkers relevance: share of the owner's outgoing volume."""
    out = adjacency.get(owner, {})
    total = sum(weight for dst, weight in out.items() if dst != owner)
    if total <= 0:
        return {}
    return {dst: weight / total for dst, weight in out.items() if dst != owner and weight > 0}


def rwr_reference(adjacency: Adjacency, owner: str, c: float, hops: int) -> Dict[str, float]:
    """``RWR_c^h`` by h steps of power iteration on sparse dictionaries.

    Each step moves every node's mass along its out-edges in proportion to
    edge weight, returns mass sitting on nodes without out-edges to the
    owner, and mixes in the restart: ``x <- (1-c) step(x) + c e_owner``.
    """
    degree = {src: sum(dsts.values()) for src, dsts in adjacency.items()}
    mass: Dict[str, float] = {owner: 1.0}
    for _ in range(hops):
        stepped: Dict[str, float] = defaultdict(float)
        for node, value in mass.items():
            total = degree.get(node, 0.0)
            if total <= 0:
                stepped[owner] += value
                continue
            for dst, weight in adjacency[node].items():
                stepped[dst] += value * weight / total
        mass = {node: (1.0 - c) * value for node, value in stepped.items()}
        mass[owner] = mass.get(owner, 0.0) + c
    return {node: value for node, value in mass.items() if node != owner and value > 0}


def compare_top_k(
    entries: Sequence[Tuple[str, float]], reference: Mapping[str, float], k: int
) -> str:
    """Empty when ``entries`` is the reference's top-k up to ties, else why not."""
    expected = min(k, len(reference))
    if len(entries) != expected:
        return f"{len(entries)} entries, reference has {expected}"
    for dst, weight in entries:
        if dst not in reference:
            return f"entry {dst!r} is not a candidate"
        if abs(weight - reference[dst]) > WEIGHT_TOL:
            return f"weight of {dst!r} is {weight!r}, reference {reference[dst]!r}"
    if not entries:
        return ""
    cutoff = min(weight for _dst, weight in entries)
    chosen = {dst for dst, _w in entries}
    for dst, weight in reference.items():
        if weight > cutoff + WEIGHT_TOL and dst not in chosen:
            return f"{dst!r} (weight {weight!r}) is missing above the cut-off {cutoff!r}"
    return ""


def sample_owners(adjacency: Adjacency, count: int, seed: int) -> List[str]:
    owners = sorted(src for src, dsts in adjacency.items() if sum(dsts.values()) > 0)
    return random.Random(seed).sample(owners, min(count, len(owners)))


def identity_rwr_equals_tt(adjacency: Adjacency, owners: Iterable[str]) -> str:
    """The paper's identity RWR_0^1 == TT, as a self-check of the references."""
    for owner in owners:
        walk = rwr_reference(adjacency, owner, c=0.0, hops=1)
        talkers = tt_reference(adjacency, owner)
        if walk.keys() != talkers.keys() or any(
            abs(walk[node] - talkers[node]) > 1e-12 for node in walk
        ):
            return f"RWR_0^1 differs from TT for {owner!r}"
    return ""
