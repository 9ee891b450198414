"""Relations as canonical pair-sets; monads; relation morphisms; graph balls."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .errors import NotSymmetric, OverMismatch, ShapeMismatch
from .finset import FinMap, FinSet, Span, _trusted, all_maps, compose, element, pair_name
from .kripke import SubobjectAtStage, canonical_pairs, check_canonical, column_index


@dataclass(frozen=True)
class Relation:
    """A relation from src to dst, canonically a pair-set inside src x dst."""

    src: FinSet
    dst: FinSet
    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        check_canonical(self.src, self.dst, self.pairs)

    @classmethod
    def from_pairs(
        cls, src: FinSet, dst: FinSet, pairs: Iterable[tuple[str, str]]
    ) -> "Relation":
        return cls(src, dst, canonical_pairs(src, dst, pairs))

    @classmethod
    def diagonal(cls, a: FinSet) -> "Relation":
        return cls(a, a, tuple((x, x) for x in a))

    @classmethod
    def full(cls, src: FinSet, dst: FinSet) -> "Relation":
        return cls(src, dst, tuple((a, b) for a in src for b in dst))

    @cached_property
    def pair_set(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.pairs)

    @cached_property
    def columns(self) -> Mapping[str, tuple[str, ...]]:
        return column_index(self.pairs, self.dst)

    def column(self, b: str) -> tuple[str, ...]:
        """Every a related to b, in the order of `src`."""
        return self.columns[b]

    @cached_property
    def span(self) -> Span:
        """Canonical representing span src <- apex -> dst."""
        apex = FinSet(
            f"rel({self.src.name},{self.dst.name})",
            tuple(pair_name(a, b) for a, b in self.pairs),
        )
        left = _trusted(FinMap, apex, self.src, tuple(a for a, _ in self.pairs))
        right = _trusted(FinMap, apex, self.dst, tuple(b for _, b in self.pairs))
        return Span(left, right)

    def __len__(self) -> int:
        return len(self.pairs)


def monad(r: Relation, b: FinMap) -> SubobjectAtStage:
    """The neighborhood of the element b: X -> dst, as a subobject of src at X."""
    if b.cod != r.dst:
        raise OverMismatch("element does not land in the relation's destination")
    return SubobjectAtStage._from_stage_major(
        r.src,
        b.dom,
        ((a, x) for x, b0 in zip(b.dom.elements, b.values) for a in r.column(b0)),
    )


def monad_at(r: Relation, b0: str) -> SubobjectAtStage:
    """The monad around an ordinary point of dst."""
    return monad(r, element(r.dst, b0))


def is_reflexive(r: Relation) -> bool:
    _require_endo(r)
    return all((a, a) in r.pair_set for a in r.src)


def is_symmetric(r: Relation) -> bool:
    _require_endo(r)
    return all((b, a) in r.pair_set for a, b in r.pairs)


def is_reflexive_elementwise(r: Relation, max_stage: int = 2) -> bool:
    """Reflexivity read off generalized elements: a0 is in its own monad."""
    _require_endo(r)
    for size in range(max_stage + 1):
        stage = _probe_stage(size)
        for a0 in all_maps(stage, r.src):
            u = monad(r, a0)
            if not all((a0(x), x) in u.pair_set for x in stage):
                return False
    return True


def is_symmetric_elementwise(r: Relation, max_stage: int = 2) -> bool:
    """Symmetry read off generalized elements: membership swaps sides."""
    _require_endo(r)
    for size in range(max_stage + 1):
        stage = _probe_stage(size)
        for a in all_maps(stage, r.src):
            for b in all_maps(stage, r.src):
                left = all((a(x), x) in monad(r, b).pair_set for x in stage)
                right = all((b(x), x) in monad(r, a).pair_set for x in stage)
                if left != right:
                    return False
    return True


def _require_endo(r: Relation) -> None:
    if r.src != r.dst:
        raise ShapeMismatch("operation requires an endo-relation")


def _probe_stage(size: int) -> FinSet:
    return FinSet(f"stage{size}", tuple(f"x{i}" for i in range(size)))


@dataclass(frozen=True)
class EndoRelation:
    """An endo-relation together with its verified reflexivity/symmetry flags."""

    base: Relation
    reflexive: bool
    symmetric: bool

    def __post_init__(self):
        if self.base.src != self.base.dst:
            raise ShapeMismatch("endo-relation must have equal ends")
        if self.reflexive != is_reflexive(self.base) or self.symmetric != is_symmetric(self.base):
            raise ValueError("endo-relation flags disagree with the pair-set")

    @classmethod
    def of(cls, base: Relation) -> "EndoRelation":
        return cls(base, is_reflexive(base), is_symmetric(base))

    @property
    def carrier(self) -> FinSet:
        return self.base.src


@dataclass(frozen=True)
class RelationMorphism:
    """A pair of maps carrying one relation into another."""

    f: FinMap  # A -> B
    f0: FinMap  # A0 -> B0
    rel_src: Relation  # from A to A0
    rel_dst: Relation  # from B to B0

    def __post_init__(self):
        if self.f.dom != self.rel_src.src or self.f0.dom != self.rel_src.dst:
            raise ShapeMismatch("maps do not start at the source relation's ends")
        if self.f.cod != self.rel_dst.src or self.f0.cod != self.rel_dst.dst:
            raise ShapeMismatch("maps do not end at the target relation's ends")
        for a, a0 in self.rel_src.pairs:
            if (self.f(a), self.f0(a0)) not in self.rel_dst.pair_set:
                raise ValueError(f"pair ({a},{a0}) is not preserved")

    @classmethod
    def identity(cls, r: Relation) -> "RelationMorphism":
        return cls(FinMap.identity(r.src), FinMap.identity(r.dst), r, r)

    def then(self, outer: "RelationMorphism") -> "RelationMorphism":
        if outer.rel_src != self.rel_dst:
            raise ShapeMismatch("relation morphisms do not chain")
        return RelationMorphism(
            compose(outer.f, self.f),
            compose(outer.f0, self.f0),
            self.rel_src,
            outer.rel_dst,
        )

    @cached_property
    def mid(self) -> FinMap:
        """The induced map between the canonical span apexes."""
        src_apex = self.rel_src.span.apex
        dst_index = {p: n for p, n in zip(self.rel_dst.pairs, self.rel_dst.span.apex.elements)}
        return FinMap(
            src_apex,
            self.rel_dst.span.apex,
            tuple(dst_index[(self.f(a), self.f0(a0))] for a, a0 in self.rel_src.pairs),
        )


def check_preserves(
    f: FinMap, f0: FinMap, rel_src: Relation, rel_dst: Relation
) -> Optional[RelationMorphism]:
    """The relation morphism (f, f0), when every pair (a, a0) of rel_src has
    its image (f(a), f0(a0)) in rel_dst; None otherwise.

    The `morphisms`, `phi-laws` and `global-functor` suites compare this with
    the monad formulation: the monad of every point lands in the
    counterimage of its image's monad.
    """
    if f.dom != rel_src.src or f0.dom != rel_src.dst:
        raise ShapeMismatch("maps do not start at the source relation's ends")
    if f.cod != rel_dst.src or f0.cod != rel_dst.dst:
        raise ShapeMismatch("maps do not end at the target relation's ends")
    if not all((f(a), f0(a0)) in rel_dst.pair_set for a, a0 in rel_src.pairs):
        return None
    return RelationMorphism(f, f0, rel_src, rel_dst)


def ball_relation(adjacency: Relation, radius: int) -> EndoRelation:
    """Pairs at graph distance <= radius in adjacency (plus the diagonal)."""
    _require_endo(adjacency)
    if not is_symmetric(adjacency):
        raise NotSymmetric("ball relations need a symmetric adjacency")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    neighbors: dict[str, list[str]] = {a: [] for a in adjacency.src}
    for a, b in adjacency.pairs:
        if a != b:
            neighbors[a].append(b)
    pairs = []
    for start in adjacency.src:
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
    base = Relation.from_pairs(adjacency.src, adjacency.src, pairs)
    return EndoRelation(base, True, True)
