"""Relations as subobjects at a stage; monads; relation morphisms; graph balls."""

from __future__ import annotations

from collections import deque
from typing import Optional

from .errors import ShapeMismatch
from .finset import FinMap, Frozen, compose, element
from .kripke import SubobjectAtStage, change_of_stage

# A relation from A to A0 is the subobject of A at stage A0: `over` is the
# source A, `stage` the destination A0, and `column(a0)` every a related to a0.
Relation = SubobjectAtStage


def monad(r: Relation, b: FinMap) -> SubobjectAtStage:
    """The neighborhood of the element b: X -> A0, as a subobject of A at X:
    the relation moved to the stage X along b."""
    if b.cod != r.stage:
        raise ShapeMismatch("element does not land in the relation's destination")
    return change_of_stage(r, b)


def monad_at(r: Relation, b0: str) -> SubobjectAtStage:
    """The monad around an ordinary point of the destination."""
    return monad(r, element(r.stage, b0))


def is_reflexive(r: Relation) -> bool:
    require_endo(r)
    return all((a, a) in r.pair_set for a in r.over)


def is_symmetric(r: Relation) -> bool:
    require_endo(r)
    return all((b, a) in r.pair_set for a, b in r.pairs)


def require_endo(r: Relation) -> None:
    if r.over != r.stage:
        raise ShapeMismatch("operation requires an endo-relation")


class EndoRelation(Frozen):
    """A relation from an object to itself: the record `ball_relation`
    returns.  Library functions take the plain relation, `base`."""

    base: Relation

    def __init__(self, base: Relation):
        object.__setattr__(self, "base", base)
        require_endo(base)


class RelationMorphism(Frozen):
    """A pair of maps carrying one relation into another."""

    f: FinMap  # A -> B
    f0: FinMap  # A0 -> B0
    rel_src: Relation  # from A to A0
    rel_dst: Relation  # from B to B0

    def __init__(self, f: FinMap, f0: FinMap, rel_src: Relation, rel_dst: Relation):
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "rel_src", rel_src)
        object.__setattr__(self, "rel_dst", rel_dst)
        lost = _unpreserved_pair(f, f0, rel_src, rel_dst)
        if lost is not None:
            raise ValueError(f"pair ({lost[0]},{lost[1]}) is not preserved")

    @staticmethod
    def _make(f, f0, rel_src, rel_dst) -> "RelationMorphism":
        obj = object.__new__(RelationMorphism)
        d = obj.__dict__
        d["f"] = f
        d["f0"] = f0
        d["rel_src"] = rel_src
        d["rel_dst"] = rel_dst
        return obj

    def then(self, outer: "RelationMorphism") -> "RelationMorphism":
        if outer.rel_src != self.rel_dst:
            raise ShapeMismatch("relation morphisms do not chain")
        return RelationMorphism._make(
            compose(outer.f, self.f), compose(outer.f0, self.f0), self.rel_src, outer.rel_dst
        )


def _unpreserved_pair(
    f: FinMap, f0: FinMap, rel_src: Relation, rel_dst: Relation
) -> Optional[tuple[str, str]]:
    """The first pair of rel_src whose image is not in rel_dst, or None."""
    if f.dom != rel_src.over or f0.dom != rel_src.stage:
        raise ShapeMismatch("maps do not start at the source relation's ends")
    if f.cod != rel_dst.over or f0.cod != rel_dst.stage:
        raise ShapeMismatch("maps do not end at the target relation's ends")
    pairs, image, image0, dst = rel_src.pairs, f.table, f0.table, rel_dst.pair_set
    return next(((a, a0) for a, a0 in pairs if (image[a], image0[a0]) not in dst), None)


def check_preserves(
    f: FinMap, f0: FinMap, rel_src: Relation, rel_dst: Relation
) -> Optional[RelationMorphism]:
    """The relation morphism (f, f0), when every pair (a, a0) of rel_src has
    its image (f(a), f0(a0)) in rel_dst; None otherwise.

    The `morphisms`, `phi-laws` and `global-functor` suites compare this with
    `reference.preserves_by_monads`: the monad of every point lands in the
    counterimage of its image's monad.
    """
    if _unpreserved_pair(f, f0, rel_src, rel_dst) is not None:
        return None
    # That scan is the constructor's check, so it need not run it again.
    return RelationMorphism._make(f, f0, rel_src, rel_dst)


def ball_relation(adjacency: Relation, radius: int) -> EndoRelation:
    """Pairs at graph distance <= radius in adjacency (plus the diagonal)."""
    if not is_symmetric(adjacency):
        raise ShapeMismatch("ball relations need a symmetric adjacency")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    neighbors: dict[str, list[str]] = {a: [] for a in adjacency.over}
    for a, b in adjacency.pairs:
        if a != b:
            neighbors[a].append(b)
    pairs = []
    for start in adjacency.over:
        dist = {start: 0}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            if dist[cur] == radius:
                continue
            for nxt in neighbors[cur]:
                if nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    queue.append(nxt)
        pairs.extend((other, start) for other in dist)
    base = Relation.from_pairs(adjacency.over, adjacency.over, pairs)
    return EndoRelation(base)
