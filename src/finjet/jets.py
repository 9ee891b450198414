"""Section jets over monads, jet bundles, classifying maps, and their laws."""

from __future__ import annotations

import itertools
import math
from typing import Mapping

from .errors import ShapeMismatch, WorkspaceError
from .finset import FinMap, FinSet, Frozen, Span, cached_property, compose, pair_name, pullback
from .kripke import PartialMapAtStage, SubobjectAtStage, stage_restrict
from .polyfun import (
    Bundle,
    PolynomialProduct,
    SectionTables,
    SliceMorphism,
    polynomial_product,
    section_tables,
)
from .relations import Relation, RelationMorphism, monad


class SectionJet(Frozen):
    """A partial map that splits the bundle p: E -> A over its support, which
    is exactly the monad of `at`."""

    underlying: PartialMapAtStage
    bundle: FinMap  # p: E -> A
    relation: Relation  # from A to A0
    at: FinMap  # b: X -> A0

    def __init__(
        self, underlying: PartialMapAtStage, bundle: FinMap, relation: Relation, at: FinMap
    ):
        object.__setattr__(self, "underlying", underlying)
        object.__setattr__(self, "bundle", bundle)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "at", at)
        support = underlying.support
        if bundle.dom != underlying.target:
            raise ValueError("bundle total is not the partial map's target")
        if bundle.cod != support.over:
            raise ValueError("bundle base is not the partial map's object")
        for (a, _), e in zip(support.pairs, underlying.values):
            if bundle(e) != a:
                raise ValueError(f"value {e!r} is not in the fiber over {a!r}")
        if at.cod != relation.stage:
            raise ShapeMismatch("base element does not land in the relation's destination")
        _require_over(relation, bundle)
        if support != monad(relation, at):
            raise ValueError("support is not the monad of the base element")

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return (self.underlying, self.bundle, self.relation, self.at) == (
                other.underlying, other.bundle, other.relation, other.at
            )
        return NotImplemented

    @staticmethod
    def _make(underlying, bundle, relation, at) -> "SectionJet":
        obj = object.__new__(SectionJet)
        d = obj.__dict__
        d["underlying"] = underlying
        d["bundle"] = bundle
        d["relation"] = relation
        d["at"] = at
        return obj

    @property
    def support(self) -> SubobjectAtStage:
        return self.underlying.support

    @property
    def stage(self) -> FinSet:
        return self.at.dom

    @property
    def table(self) -> Mapping[tuple[str, str], str]:
        return self.underlying.table


def _require_over(r: Relation, p: FinMap) -> None:
    if p.cod != r.over:
        raise ShapeMismatch("bundle does not live over the relation's source")


def _jet_choices(r: Relation, b: FinMap, p: FinMap) -> tuple[SubobjectAtStage, list]:
    """The monad of b, and for each of its pairs (a, x), p's fiber over a."""
    _require_over(r, p)
    support = monad(r, b)
    return support, [p.fiber(a) for a, _ in support.pairs]


def _make_jet(
    r: Relation, b: FinMap, support: SubobjectAtStage, p: FinMap, values: tuple[str, ...]
) -> SectionJet:
    """The jet of p at b on `support`, the monad of b, built unchecked; the
    caller takes the value at each pair (a, x) from p's fiber over a."""
    return SectionJet._make(PartialMapAtStage._make(support, p.dom, values), p, r, b)


def enumerate_jets(r: Relation, b: FinMap, p: FinMap) -> tuple[SectionJet, ...]:
    """All section jets of p at b, in lexicographic order of their value tables.

    An empty monad contributes exactly one jet, the empty section.
    """
    support, options = _jet_choices(r, b, p)
    return tuple(
        _make_jet(r, b, support, p, choice) for choice in itertools.product(*options)
    )


def check_index(i: int, count: int, where: str) -> None:
    """Raise WorkspaceError unless 0 <= i < count, naming the `count` jets
    and `where` they sit."""
    if not 0 <= i < count:
        raise WorkspaceError(f"index {i} out of range; {count} jets at {where}")


def nth_jet(r: Relation, b: FinMap, p: FinMap, i: int, where: str) -> SectionJet:
    """enumerate_jets(r, b, p)[i], decoded without building the other jets.

    i is read as a mixed-radix number over p's fibers above the monad pairs,
    last pair fastest, which is the enumeration order.  An i outside the
    jets raises WorkspaceError with their count (1 for an empty monad, 0
    when a fiber is empty) and `where` they sit.
    """
    support, options = _jet_choices(r, b, p)
    check_index(i, math.prod(map(len, options)), where)
    choice = [""] * len(options)
    for k in reversed(range(len(options))):
        i, digit = divmod(i, len(options[k]))
        choice[k] = options[k][digit]
    return _make_jet(r, b, support, p, tuple(choice))


def restrict_jet(j: SectionJet, alpha: FinMap) -> SectionJet:
    """The jet considered at the later stage alpha: Y -> X."""
    if alpha.cod != j.stage:
        raise ShapeMismatch("stage change does not land at the jet's stage")
    moved = stage_restrict(j.underlying, alpha)
    return SectionJet._make(moved, j.bundle, j.relation, compose(j.at, alpha))


def map_jet(j: SectionJet, r_map: FinMap, p: FinMap) -> SectionJet:
    """Push a jet of q forward along a vertical r_map: total(q) -> total(p)."""
    if compose(p, r_map) != j.bundle:
        raise ShapeMismatch("map does not commute over the base")
    return _make_jet(j.relation, j.at, j.support, p, tuple(map(r_map, j.underlying.values)))


class PhiContext(Frozen):
    """A relation morphism with the canonical pullback of the bundle along f."""

    morphism: RelationMorphism
    bundle: FinMap  # p: E -> B, over the target relation's source

    def __init__(self, morphism: RelationMorphism, bundle: FinMap):
        object.__setattr__(self, "morphism", morphism)
        object.__setattr__(self, "bundle", bundle)
        if bundle.cod != morphism.rel_dst.over:
            raise ShapeMismatch("bundle does not live over the target relation's source")

    @cached_property
    def square(self) -> Span:
        """The canonical pullback of (f, p), built on first use."""
        return pullback(self.morphism.f, self.bundle)

    @property
    def pulled(self) -> FinMap:
        """p': the pulled-back bundle over the source relation's source."""
        return self.square.left


def phi(ctx: PhiContext, a0: FinMap, j: SectionJet) -> SectionJet:
    """Transport a jet of p at f0(a0) to a jet of the pulled-back bundle at a0.

    The value at (a, x) of the monad of a0 is the pullback element
    <a, j(f(a), x)>, the direct table of the value law a |-> <a, j(f(a))>.
    The `phi-laws` and `global-functor` suites compare it with the law's
    Yoneda tabulation, `reference.phi_tabulated`.
    """
    mor = ctx.morphism
    if a0.cod != mor.rel_src.stage:
        raise ShapeMismatch("base element does not land in the source relation's destination")
    if j.relation != mor.rel_dst or j.bundle != ctx.bundle:
        raise ShapeMismatch("jet does not belong to the context's target data")
    if j.at != compose(mor.f0, a0):
        raise ShapeMismatch("jet is not based at the image of the given element")
    support = monad(mor.rel_src, a0)
    table = j.table
    # mor preserves the relations, so (f(a), x) is in the monad of f0(a0(x)),
    # which is j's support.
    values = [pair_name(a, table[(mor.f(a), x)]) for a, x in support.pairs]
    return _make_jet(mor.rel_src, a0, support, ctx.pulled, tuple(values))


class JetBundle(Frozen):
    """The bundle over A0 whose fiber at a0 collects all section jets at a0.

    `sections` holds every jet table over the relation's columns: its
    values at a0's column, in the relation's source order.  Its elements,
    named "(a0|hash-of-table)", are the `total`.  The generic section jet
    lives at stage `total` and evaluates each element's own table.  It is
    built on first use, because its support, the monad of the projection,
    is larger than the bundle and only the law checks read it; once built,
    it is kept.
    """

    relation: Relation  # from A to A0
    sections: SectionTables  # of p: E -> A, over the columns of the relation

    def __init__(self, relation: Relation, sections: SectionTables):
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "sections", sections)

    @property
    def bundle(self) -> FinMap:
        return self.sections.q

    @property
    def total(self) -> FinSet:
        return self.projection.dom

    @property
    def projection(self) -> FinMap:
        return self.sections.projection

    @cached_property
    def generic_jet(self) -> SectionJet:
        """The generic section jet, of `bundle` at stage `total`."""
        support = monad(self.relation, self.projection)
        values = self.sections.evaluations(self.relation.over)
        return _make_jet(self.relation, self.projection, support, self.bundle, values)

    def fiber(self, a0: str) -> tuple[str, ...]:
        return self.projection.fiber(a0)


def jet_bundle(r: Relation, p: FinMap) -> JetBundle:
    """The jet bundle of p: the fibers over every point of r.stage, in order.

    All labels go into one FinSet, so a label collision raises ValueError.
    """
    _require_over(r, p)
    return JetBundle(r, section_tables(f"J({p.dom.name})", r.stage, r.columns, p))


def jet_fiber(r: Relation, p: FinMap, a0: str) -> SectionTables:
    """The fiber of jet_bundle(r, p) over the point a0, built alone: the
    section tables of its jets, with the bundle's element labels.  Its i-th
    label names enumerate_jets(r, element(r.stage, a0), p)[i], since both
    take the product of p's fibers over a0's column, last point fastest.

    The labels still go into a FinSet, so a collision among them raises
    ValueError.  Labels over different points cannot collide, since each
    label "(a0|hash)" starts with its point; so this check is the bundle's
    check restricted to a0.
    """
    _require_over(r, p)
    return section_tables(f"J({p.dom.name})", r.stage, {a0: r.column(a0)}, p)


def classify(jb: JetBundle, j: SectionJet) -> FinMap:
    """The unique map into the total whose pullback of the generic jet is j.

    Each stage point is named by one lookup of its base point and table in
    the jet bundle's element index.  The `classify` suite checks that
    restricting the generic jet along the result rebuilds j.  The i-th jet
    at an ordinary point a0 names the i-th element of `jet_fiber` over a0.
    """
    if j.relation != jb.relation or j.bundle != jb.bundle:
        raise ShapeMismatch("jet does not belong to this jet bundle")
    table = j.table
    values = []
    for x in j.stage:
        a0 = j.at(x)
        at_x = tuple(table[(a, x)] for a in jb.relation.column(a0))
        values.append(jb.sections.element_for(a0, at_x))
    return FinMap._make(j.stage, jb.total, tuple(values))


def jet_on_vertical(jb_q: JetBundle, jb_p: JetBundle, r_map: FinMap) -> FinMap:
    """The jet bundle functor on a vertical map between bundles over A.

    Each jet is moved to the element named by its pushed-forward table, which
    sits over the same base point (`SectionTables.push_along`, which
    `dependent_product_map` and `polynomial_map` share); the `poly-iso` suite
    checks that the arrow commutes with the projections.  `global_jet`
    pushes tables along the vertical part of a comorphism in the same way,
    fused with the mediating transport; the tests compare the two on every
    vertical comorphism.
    """
    if jb_q.relation != jb_p.relation:
        raise ShapeMismatch("jet bundles built from different relations")
    if compose(jb_p.bundle, r_map) != jb_q.bundle:
        raise ShapeMismatch("map does not commute over the base")
    return jb_q.sections.push_along(r_map, jb_p.sections)


def polynomial_product_iso(
    r: Relation, p: FinMap
) -> tuple[PolynomialProduct, JetBundle, SliceMorphism]:
    """The polynomial product of p along r's span, the jet bundle of p, and
    the explicit iso from the product's result to the jet bundle.

    Both are computed from the same relation; the iso matches each section
    over the canonical span fibers with the jet table it encodes, reading
    each section's values in p off the square c*(p) that the polynomial
    product holds.
    """
    poly = polynomial_product(r.span, Bundle(p))
    jb = jet_bundle(r, p)
    # d's fiber over a0 lists the apex pairs (a, a0) in the order of a0's
    # column, so a section's values in p are its jet table in order.
    to_total = poly.square.right
    values = [
        jb.sections.element_for(a0, tuple(map(to_total, tab)))
        for _, a0, tab in poly.product.sections.entries()
    ]
    result = poly.product.result
    arrow = FinMap._make(result.total, jb.total, tuple(values))
    return poly, jb, SliceMorphism._make(result, Bundle(jb.projection), arrow)
