"""Stage semantics: subobjects at a stage, partial maps, membership, value.

A subobject of A at stage X is kept in canonical form as a pair-set inside
A x X; a jointly monic span embeds injectively there, and two spans are
equivalent exactly when they produce the same pair-set.  All the
change-of-stage equations then hold as strict equalities of pair-sets.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Mapping, Optional

from .errors import ShapeMismatch
from .finset import (
    FinMap,
    FinSet,
    Frozen,
    Span,
    cached_property,
    canonical_span,
    compose,
    is_jointly_monic,
    pair_name,
    probe_stage,
)


class SubobjectAtStage(Frozen):
    """Canonical form of a subobject of `over` at stage `stage`.

    `pairs` is sorted by (index in over, index in stage); it is the one
    representative of the whole equivalence class of jointly monic spans.
    A relation from A to A0 is the subobject of A at stage A0, so this is
    also `relations.Relation`.
    """

    over: FinSet
    stage: FinSet
    pairs: tuple[tuple[str, str], ...]

    def __init__(self, over: FinSet, stage: FinSet, pairs: tuple[tuple[str, str], ...]):
        object.__setattr__(self, "over", over)
        object.__setattr__(self, "stage", stage)
        object.__setattr__(self, "pairs", pairs)
        self.__post_init__()

    def __post_init__(self):
        """Raise ValueError unless `pairs` is in canonical form inside over x stage.

        One pass: every pair must lie in over x stage, and the keys (index in
        over, index in stage) must strictly increase, so no pair repeats.  An
        escaping pair is reported in preference to a misordering, wherever
        the two occur.  It is a method of its own under this name because
        the benchmark's tracer patches it to count and time the validation.
        """
        oi, si, width = self.over.index.get, self.stage.index.get, len(self.stage)
        prev = -1
        ordered = True
        for a, x in self.pairs:
            i = oi(a)
            j = si(x)
            if i is None or j is None:
                raise ValueError(
                    f"pair ({a},{x}) escapes {self.over.name} x {self.stage.name}"
                )
            key = i * width + j
            if key <= prev:
                ordered = False
            prev = key
        if not ordered:
            raise ValueError("pairs not in canonical order; use from_pairs")

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return (self.over, self.stage, self.pairs) == (other.over, other.stage, other.pairs)
        return NotImplemented

    @staticmethod
    def _make(over, stage, pairs) -> "SubobjectAtStage":
        obj = object.__new__(SubobjectAtStage)
        d = obj.__dict__
        d["over"] = over
        d["stage"] = stage
        d["pairs"] = pairs
        return obj

    @classmethod
    def from_pairs(
        cls, over: FinSet, stage: FinSet, pairs: Iterable[tuple[str, str]]
    ) -> "SubobjectAtStage":
        """The distinct pairs, sorted into canonical form: each pair keyed by
        its one integer position (index in over) * len(stage) + (index in
        stage), which dedups and orders it."""
        oi, si, width = over.index, stage.index, len(stage)
        keyed = {}
        for a, x in pairs:
            try:
                keyed[oi[a] * width + si[x]] = (a, x)
            except KeyError:
                return cls(over, stage, ((a, x),))  # raises: the pair escapes
        return cls(over, stage, tuple(map(keyed.__getitem__, sorted(keyed))))

    @classmethod
    def _from_stage_major(
        cls, over: FinSet, stage: FinSet, pairs: Iterable[tuple[str, str]]
    ) -> "SubobjectAtStage":
        """The subobject of distinct pairs inside over x stage that give each
        a's stage elements in stage order, trusted to be so.

        Change of stage (and so every monad) and counterimages emit their
        pairs stage by stage, which meets this, and they are its only
        callers; the result skips the canonical-form check.  One stable sort
        by index in `over` puts the pairs in canonical order and keeps each
        a's stage elements in the order they came: O(pairs log pairs) at
        worst.  Change of stage emits one run already sorted by `over` per
        stage element, which the sort only merges, in O(pairs log runs).
        """
        at = over.index.__getitem__
        return cls._make(over, stage, tuple(sorted(pairs, key=lambda pair: at(pair[0]))))

    @classmethod
    def diagonal(cls, a: FinSet) -> "SubobjectAtStage":
        return cls(a, a, tuple((x, x) for x in a))

    @cached_property
    def pair_set(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.pairs)

    @cached_property
    def span(self) -> Span:
        """The canonical representing span sub(A,X), built by
        `canonical_span`: callers address the apex element of the pair
        (a, x) as `pair_name(a, x)`."""
        return canonical_span(
            f"sub({self.over.name},{self.stage.name})", self.pairs, self.over, self.stage
        )

    @cached_property
    def columns(self) -> Mapping[str, tuple[str, ...]]:
        """Every x of the stage with the a paired with it; the canonical sort
        keeps each column in the order of `over`."""
        out: dict[str, list[str]] = {x: [] for x in self.stage}
        for a, x in self.pairs:
            out[x].append(a)
        return {x: tuple(col) for x, col in out.items()}

    def column(self, x: str) -> tuple[str, ...]:
        """Every a with (a, x) in the subobject, in the order of `over`."""
        return self.columns[x]

    def __len__(self) -> int:
        return len(self.pairs)


def canonicalize(s: Span) -> SubobjectAtStage:
    """Canonical pair-set of a jointly monic span A <- M -> X."""
    if not is_jointly_monic(s):
        raise ShapeMismatch("span does not represent a subobject")
    return SubobjectAtStage.from_pairs(
        s.left.cod, s.right.cod, ((s.left(m), s.right(m)) for m in s.apex)
    )


def _require_same_ends(u: SubobjectAtStage, u2: SubobjectAtStage) -> None:
    if u.over != u2.over:
        raise ShapeMismatch("subobjects over different objects")
    if u.stage != u2.stage:
        raise ShapeMismatch("subobjects at different stages")


def sub_leq(u: SubobjectAtStage, u2: SubobjectAtStage) -> bool:
    _require_same_ends(u, u2)
    return u.pair_set <= u2.pair_set


def change_of_stage(u: SubobjectAtStage, alpha: FinMap) -> SubobjectAtStage:
    """Pull the stage back along alpha: Y -> X."""
    if alpha.cod != u.stage:
        raise ShapeMismatch(
            f"map into {alpha.cod.name!r} cannot change stage {u.stage.name!r}"
        )
    return SubobjectAtStage._from_stage_major(
        u.over,
        alpha.dom,
        ((a, y) for y, x in zip(alpha.dom.elements, alpha.values) for a in u.column(x)),
    )


def counterimage(f: FinMap, u: SubobjectAtStage) -> SubobjectAtStage:
    """Pull the A-end back along f: A' -> A."""
    if f.cod != u.over:
        raise ShapeMismatch(
            f"map into {f.cod.name!r} cannot take counterimage over {u.over.name!r}"
        )
    return SubobjectAtStage._from_stage_major(
        f.dom,
        u.stage,
        ((a2, x) for x in u.stage for a in u.column(x) for a2 in f.fiber(a)),
    )


def member(a: FinMap, alpha: FinMap, u: SubobjectAtStage) -> Optional[FinMap]:
    """Membership of the element a: Y -> A at the later stage alpha: Y -> X:
    the unique map Y -> u.span.apex through which (a, alpha) factors, or None
    when some pair (a(y), alpha(y)) is not in u."""
    if a.cod != u.over:
        raise ShapeMismatch("element does not land in the subobject's object")
    if alpha.cod != u.stage:
        raise ShapeMismatch("stage change does not land in the subobject's stage")
    if a.dom != alpha.dom:
        raise ShapeMismatch("element and stage change defined at different stages")
    pairs = u.pair_set
    values = []
    for key in zip(a.values, alpha.values):
        if key not in pairs:
            return None
        values.append(pair_name(*key))
    return FinMap._make(a.dom, u.span.apex, tuple(values))


class PartialMapAtStage(Frozen):
    """A value table on the canonical apex of `support`, into `target`."""

    support: SubobjectAtStage
    target: FinSet
    values: tuple[str, ...]  # aligned with support.pairs

    def __init__(self, support: SubobjectAtStage, target: FinSet, values: tuple[str, ...]):
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "values", values)
        if len(values) != len(support.pairs):
            raise ValueError("value table does not cover the support")
        for v in values:
            if v not in target:
                raise ValueError(f"value {v!r} not in target {target.name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return (self.support, self.target, self.values) == (
                other.support, other.target, other.values
            )
        return NotImplemented

    @staticmethod
    def _make(support, target, values) -> "PartialMapAtStage":
        obj = object.__new__(PartialMapAtStage)
        d = obj.__dict__
        d["support"] = support
        d["target"] = target
        d["values"] = values
        return obj

    @cached_property
    def table(self) -> Mapping[tuple[str, str], str]:
        return dict(zip(self.support.pairs, self.values))

    @cached_property
    def leg(self) -> FinMap:
        """The value table as a map out of the canonical apex."""
        return FinMap(self.support.span.apex, self.target, self.values)


def value(s: PartialMapAtStage, a: FinMap, alpha: FinMap) -> FinMap:
    """The element s(a): Y -> E, defined when a is a member of the support."""
    through = member(a, alpha, s.support)
    if through is None:
        raise ShapeMismatch("element is not a member of the partial map's support")
    return compose(s.leg, through)


def postcompose(q: FinMap, s: PartialMapAtStage) -> PartialMapAtStage:
    if q.dom != s.target:
        raise ShapeMismatch("map does not start at the partial map's target")
    return PartialMapAtStage(s.support, q.cod, tuple(q(v) for v in s.values))


def precompose(s: PartialMapAtStage, f: FinMap) -> PartialMapAtStage:
    """Restrict along f: A' -> A; the support becomes the counterimage."""
    if f.cod != s.support.over:
        raise ShapeMismatch("map does not land in the partial map's object")
    support = counterimage(f, s.support)
    return PartialMapAtStage(
        support, s.target, tuple(s.table[(f(a2), x)] for a2, x in support.pairs)
    )


def stage_restrict(s: PartialMapAtStage, alpha: FinMap) -> PartialMapAtStage:
    """The partial map considered at the later stage alpha: Y -> X."""
    support = change_of_stage(s.support, alpha)
    values = tuple(s.table[(a, alpha(y))] for a, y in support.pairs)
    return PartialMapAtStage._make(support, s.target, values)


def extensionality_leq(u: SubobjectAtStage, u2: SubobjectAtStage) -> bool:
    """Decide containment by membership of the canonical legs.

    Containment of subobjects holds as soon as the canonical left leg of u,
    taken at the later stage given by its right leg, is a member of u2; this
    is the quantifier collapsed to its one decisive instance.
    """
    _require_same_ends(u, u2)
    legs = u.span
    return member(legs.left, legs.right, u2) is not None


ValueLaw = Callable[[FinMap, FinMap], FinMap]

# The probe stages along which `yoneda_construct` samples stability.
_PROBES = (probe_stage(1), probe_stage(2))


def yoneda_construct(u: SubobjectAtStage, law: ValueLaw) -> PartialMapAtStage:
    """Tabulate a stable value law into the unique partial map it determines.

    The law receives an element a: Y -> A together with its stage change
    alpha: Y -> X and must return an element Y -> E.  It is evaluated once,
    on the canonical legs of u; stability under change of stage is then
    sampled along every map from a probe stage of size <= 2 into the apex.
    """
    legs = u.span
    tabulated = law(legs.left, legs.right)
    if tabulated.dom != legs.apex:
        raise ValueError("law did not return an element at the canonical stage")
    lefts, rights, values = legs.left.values, legs.right.values, tabulated.values
    for probe in _PROBES:
        # A probe beta is the tuple of apex positions it picks, in the order
        # of `all_maps`; each composite along beta reads its values there.
        for at in itertools.product(range(len(legs.apex)), repeat=len(probe)):
            via_law = law(
                FinMap._make(probe, legs.left.cod, tuple([lefts[i] for i in at])),
                FinMap._make(probe, legs.right.cod, tuple([rights[i] for i in at])),
            )
            expected = (probe, tabulated.cod, tuple([values[i] for i in at]))
            if (via_law.dom, via_law.cod, via_law.values) != expected:
                beta = FinMap._make(probe, legs.apex, tuple([legs.apex.elements[i] for i in at]))
                raise ShapeMismatch(f"law is not stable along the probe {beta!r}")
    return PartialMapAtStage(u, tabulated.cod, tabulated.values)


def law_of(s: PartialMapAtStage) -> ValueLaw:
    """The value law of an existing partial map (for roundtrip checks)."""
    return lambda a, alpha: value(s, a, alpha)
