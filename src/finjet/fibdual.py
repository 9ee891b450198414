"""The fibrewise dual of the codomain fibration: comorphisms and the global jet functor.

A comorphism from p' (over A') to p (over A) along f: A' -> A is kept in its
canonical form: the vertical map out of the canonical pullback f*(p) into p'.
Equality of comorphisms is then table equality.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import ShapeMismatch
from .finset import FinMap, FinSet, Span, compose, pair_name, pullback
from .jets import jet_bundle
from .kripke import canonicalize
from .polyfun import (
    Bundle,
    SectionTables,
    SliceMorphism,
    pullback_bundle,
    relabel_identity,
)
from .relations import EndoRelation, check_preserves


@dataclass(frozen=True)
class Comorphism:
    """An arrow of the fibrewise dual fibration, in canonical vh form."""

    over: FinMap  # f: A' -> A
    src: Bundle  # over A'
    dst: Bundle  # over A
    vertical: SliceMorphism  # f*(dst) -> src, over A'

    def __post_init__(self):
        if self.src.base != self.over.dom or self.dst.base != self.over.cod:
            raise ShapeMismatch("bundles do not sit over the ends of the base map")
        if self.vertical.src != pullback_bundle(self.over, self.dst):
            raise ShapeMismatch("vertical part does not start at the canonical pullback")
        if self.vertical.dst != self.src:
            raise ShapeMismatch("vertical part does not end at the source bundle")

    @staticmethod
    def _make(over, src, dst, vertical) -> "Comorphism":
        obj = object.__new__(Comorphism)
        d = obj.__dict__
        d["over"] = over
        d["src"] = src
        d["dst"] = dst
        d["vertical"] = vertical
        return obj


def identity_comorphism(p: Bundle) -> Comorphism:
    ident = FinMap.identity(p.base)
    return Comorphism._make(ident, p, p, relabel_identity(p))


def cartesian_comorphism(f: FinMap, p: Bundle) -> Comorphism:
    """The comorphism presented by a bare pullback square (identity vertical)."""
    pulled = pullback_bundle(f, p)
    return Comorphism._make(f, pulled, p, SliceMorphism.identity(pulled))


def is_cartesian(c: Comorphism) -> bool:
    return c.vertical.is_iso()


def comorphism_compose(c2: Comorphism, c1: Comorphism) -> Comorphism:
    """Span composition: c1 from p'' to p' over f, then c2 from p' to p over g.

    Each <a'', e> of (g o f)*(p) goes to c1's vertical at <a'', e'>, where e'
    is c2's vertical at <f(a''), e>.  Canonical apexes name their elements by
    `pair_name`, so neither intermediate pullback is built; the tests compare
    the result with the route through `reference.nest_pullback` and
    `pullback_vertical`.
    """
    if c1.dst != c2.src:
        raise ShapeMismatch("comorphisms do not chain end to end")
    if c1.over.cod != c2.over.dom:
        raise ShapeMismatch("base maps do not compose")
    f, v1, v2 = c1.over, c1.vertical.arrow, c2.vertical.arrow
    base = compose(c2.over, f)
    sq = pullback(base, c2.dst.map)
    values = tuple(
        v1(pair_name(a, v2(pair_name(f(a), e))))
        for a, e in zip(sq.left.values, sq.right.values)
    )
    arrow = FinMap._make(sq.apex, c1.src.total, values)
    vertical = SliceMorphism._make(Bundle(sq.left), c1.src, arrow)
    return Comorphism._make(base, c1.src, c2.dst, vertical)


RelationAssignment = Mapping[FinSet, EndoRelation]


def global_jet(c: Comorphism, relations: RelationAssignment) -> Comorphism:
    """The jet functor on the fibrewise dual, one comorphism at a time.

    Every object in play carries an endo-relation; the base map f must
    preserve them.  The image runs from J(p') to J(p) over f, where p' and p
    are c's source and target bundles.  Its vertical part is the composite
    of the mediating transport (the Cartesian image, phi's value law
    a |-> <a, t(f(a))>) and the jet functor of the fiber on c's vertical v:
    each <a0, t> of f*(J(p)) goes to the jet over a0 with table
    a |-> v(<a, t(f(a))>), named by one lookup.  Preservation puts every
    f(a) in t's table.  The tests compare this with the composite of
    `reference.pointwise_cartesian_image` (`phi` then `classify`) and of
    `jet_on_vertical`.
    """
    try:
        rel_src = relations[c.over.dom]
        rel_dst = relations[c.over.cod]
    except KeyError as exc:
        raise ShapeMismatch(f"no endo-relation assigned to object {exc.args[0].name!r}")
    if check_preserves(c.over, c.over, rel_src.base, rel_dst.base) is None:
        raise ShapeMismatch("base map does not preserve the endo-relations")
    f, v = c.over, c.vertical.arrow
    jb_src = jet_bundle(rel_src.base, c.src.map)
    jb_dst = jet_bundle(rel_dst.base, c.dst.map)
    sq = pullback(f, jb_dst.projection)
    values = []
    for a0, t in zip(sq.left.values, sq.right.values):
        tab = jb_dst.sections.table_of(t)
        moved = {a: v(pair_name(a, tab[f(a)])) for a in rel_src.base.column(a0)}
        values.append(jb_src.sections.element_for(a0, moved))
    src, dst = Bundle(jb_src.projection), Bundle(jb_dst.projection)
    arrow = FinMap._make(sq.apex, src.total, tuple(values))
    vertical = SliceMorphism._make(Bundle(sq.left), src, arrow)
    return Comorphism._make(f, src, dst, vertical)


def generic_section_vertical(span: Span, p: Bundle) -> SliceMorphism:
    """The generic section jet as the vertical part of its comorphism over d.

    For the span (c, d), maps d*(J(p)) into c*(p) by evaluating each total
    element's own table at the span point it is paired with.
    """
    c, d = span.left, span.right
    jb = jet_bundle(canonicalize(span), p.map)
    return _generic_section_on(c, jb.sections, pullback(d, jb.projection), pullback(c, p.map))


def _generic_section_on(
    c: FinMap, sections: SectionTables, sq_d: Span, sq_c: Span
) -> SliceMorphism:
    """`generic_section_vertical` on the jet tables of J(p) and the squares
    d*(J(p)) and c*(p), built by the caller."""
    values = []
    for m, t in zip(sq_d.left.values, sq_d.right.values):
        values.append(pair_name(m, sections.table_of(t)[c(m)]))
    arrow = FinMap(sq_d.apex, sq_c.apex, tuple(values))
    return SliceMorphism(Bundle(sq_d.left), Bundle(sq_c.left), arrow)


def distributivity_terminal(
    span: Span,
    p: Bundle,
    candidate: Optional[SliceMorphism] = None,
    max_total: int = 4,
) -> bool:
    """Whether the generic section jet is terminal among comorphisms over d
    from c*(p), where the span is (c, d).

    The candidate bundles t are J(p) itself and every bundle over d's
    codomain with at most max_total elements.  The candidate eps (by default
    the true generic section jet) is terminal when, for every t and every
    vertical v: d*(t) -> c*(p), exactly one u: t -> J(p) has
    eps o d*(u) = v.

    This is decided fiber by fiber.  The transpose u |-> eps o d*(u) splits
    into one block per element x of t, the map at b = t(x)

        phi_b: J(p)_b -> prod over m in d^-1(b) of c*(p)_m,  j |-> (eps<m, j>)_m.

    If some c*(p)_m over t's image is empty, there is no v and t passes
    vacuously.  Otherwise every block has a nonempty codomain, and a product
    of such maps is a bijection iff every block is, so t passes iff phi_t(x)
    is a bijection for every x in t.  Each phi_b is read once off eps's
    table: eps is vertical, so its values at b lie in the product, and phi_b
    is a bijection iff they are distinct and as many as the product has
    elements.  A candidate that does not run from d*(J(p)) to c*(p) raises
    ShapeMismatch.  `reference.distributivity_terminal_brute` enumerates
    every u and v instead; the tests compare the two.
    """
    c, d = span.left, span.right
    jb = jet_bundle(canonicalize(span), p.map)
    sq_eps, sq_c = pullback(d, jb.projection), pullback(c, p.map)
    epsilon = candidate or _generic_section_on(c, jb.sections, sq_eps, sq_c)
    pulled_c = Bundle(sq_c.left)
    if epsilon.src != Bundle(sq_eps.left) or epsilon.dst != pulled_c:
        raise ShapeMismatch("candidate does not run from d*(J(p)) to c*(p)")
    eps = epsilon.arrow.table
    vacuous: dict[str, bool] = {}
    bijective: dict[str, bool] = {}
    for b in d.cod:
        over = d.fiber(b)
        sizes = [len(pulled_c.fiber(m)) for m in over]
        jets_b = jb.fiber(b)
        images = {tuple(eps[pair_name(m, j)] for m in over) for j in jets_b}
        vacuous[b] = 0 in sizes
        bijective[b] = len(images) == len(jets_b) == math.prod(sizes)

    def passes(image: tuple[str, ...]) -> bool:
        return any(vacuous[b] for b in image) or all(bijective[b] for b in image)

    # Every map of each size into d's codomain; over an empty codomain only
    # the empty bundle remains.
    return passes(jb.projection.values) and all(
        passes(values)
        for size in range(max_total + 1)
        for values in itertools.product(d.cod.elements, repeat=size)
    )
