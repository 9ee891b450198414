"""Seeded random instance generation for suites and tests."""

from __future__ import annotations

import random
from typing import Optional

from .finset import FinMap, FinSet
from .kripke import PartialMapAtStage, SubobjectAtStage
from .polyfun import Bundle
from .relations import Relation, ball_relation


def rng_for(seed: int, suite: str, index: int) -> random.Random:
    """A process-independent generator for one instance of one suite."""
    return random.Random(f"{seed}:{suite}:{index}")


def rand_finset(
    rng: random.Random, name: str, max_size: int, min_size: int = 0
) -> FinSet:
    size = rng.randint(min_size, max_size)
    return FinSet(name, tuple(f"{name.lower()}{i}" for i in range(size)))


def rand_map(rng: random.Random, dom: FinSet, cod: FinSet) -> Optional[FinMap]:
    if len(cod) == 0:
        return FinMap(dom, cod, ()) if len(dom) == 0 else None
    return FinMap(dom, cod, tuple(rng.choice(cod.elements) for _ in dom))


def rand_relation(rng: random.Random, src: FinSet, dst: FinSet) -> Relation:
    pairs = [(a, b) for a in src for b in dst if rng.random() < 0.5]
    return Relation.from_pairs(src, dst, pairs)


def rand_adjacency(rng: random.Random, carrier: FinSet) -> Relation:
    pairs = []
    for i, a in enumerate(carrier.elements):
        for b in carrier.elements[i + 1 :]:
            if rng.random() < 0.4:
                pairs.append((a, b))
                pairs.append((b, a))
    return Relation.from_pairs(carrier, carrier, pairs)


def induced_adjacency(f: FinMap, adjacency: Relation) -> Relation:
    """The pulled-back adjacency; f is then automatically a graph morphism."""
    pairs = [
        (a, b)
        for a in f.dom
        for b in f.dom
        if (f(a), f(b)) in adjacency.pair_set
    ]
    return Relation.from_pairs(f.dom, f.dom, pairs)


def rand_ball_pair(rng: random.Random, max_size: int) -> tuple[FinMap, Relation, Relation]:
    """A map of graphs with pulled-back adjacency, and the two radius-1 balls."""
    b = rand_finset(rng, "B", max_size, min_size=1)
    a = rand_finset(rng, "A", max_size, min_size=1)
    f = rand_map(rng, a, b)
    adj_b = rand_adjacency(rng, b)
    adj_a = induced_adjacency(f, adj_b)
    return f, ball_relation(adj_a, 1).base, ball_relation(adj_b, 1).base


def rand_bundle(
    rng: random.Random,
    base: FinSet,
    max_fiber: int,
    min_fiber: int = 0,
    tag: str = "e",
) -> Bundle:
    elements = []
    values = []
    for a in base:
        for i in range(rng.randint(min_fiber, max_fiber)):
            elements.append(f"{a}.{tag}{i}")
            values.append(a)
    total = FinSet(f"{base.name}{tag}", tuple(elements))
    return Bundle(FinMap(total, base, tuple(values)))


def trim_bundle(p: Bundle) -> Bundle:
    """Keep the first element of every nonempty fiber (a small companion bundle)."""
    keep = []
    values = []
    for a in p.base:
        fiber = p.fiber(a)
        if fiber:
            keep.append(fiber[0])
            values.append(a)
    total = FinSet(f"{p.total.name}.t", tuple(keep))
    return Bundle(FinMap(total, p.base, tuple(values)))


def rand_subobject(rng: random.Random, over: FinSet, stage: FinSet) -> SubobjectAtStage:
    pairs = [(a, x) for a in over for x in stage if rng.random() < 0.5]
    return SubobjectAtStage.from_pairs(over, stage, pairs)


def rand_partial_map(
    rng: random.Random, support: SubobjectAtStage, target: FinSet
) -> PartialMapAtStage:
    values = tuple(rng.choice(target.elements) for _ in support.pairs)
    return PartialMapAtStage(support, target, values)


def rand_preserving_relations(
    rng: random.Random, max_size: int
) -> tuple[FinMap, FinMap, Relation, Relation]:
    """Maps (f, f0) with a random target relation and a source drawn inside its counterimage."""
    b = rand_finset(rng, "B", max_size, min_size=1)
    b0 = rand_finset(rng, "B0", max_size, min_size=1)
    a = rand_finset(rng, "A", max_size, min_size=1)
    a0 = rand_finset(rng, "A0", max_size, min_size=1)
    f = rand_map(rng, a, b)
    f0 = rand_map(rng, a0, b0)
    rel_dst = rand_relation(rng, b, b0)
    allowed = [
        (x, x0)
        for x in a
        for x0 in a0
        if (f(x), f0(x0)) in rel_dst.pair_set
    ]
    rel_src = Relation.from_pairs(
        a, a0, (p for p in allowed if rng.random() < 0.7)
    )
    return f, f0, rel_src, rel_dst
