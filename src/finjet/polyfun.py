"""Slice calculus: pullback functors, dependent products, adjunction, mates.

The cleavage is fixed once and for all: pullbacks are the canonical pair-set
pullbacks and dependent products are canonical section tables.  Where two
routes produce the same object only up to re-association of pairs, the
re-association maps are constructed explicitly instead of being assumed away.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping

from .errors import ShapeMismatch
from .finset import (
    FinMap,
    FinSet,
    Frozen,
    Span,
    cached_property,
    compose,
    is_pullback_square,
    pair_into_pullback,
    pair_name,
    pullback,
    table_label,
)


class Bundle(Frozen):
    """An object of the slice over its codomain: a map E -> A."""

    map: FinMap

    def __init__(self, map: FinMap):
        object.__setattr__(self, "map", map)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return (self.map,) == (other.map,)
        return NotImplemented

    @property
    def total(self) -> FinSet:
        return self.map.dom

    @property
    def base(self) -> FinSet:
        return self.map.cod

    def fiber(self, a: str) -> tuple[str, ...]:
        return self.map.fiber(a)


class SliceMorphism(Frozen):
    """A map between bundle totals commuting over the shared base."""

    src: Bundle
    dst: Bundle
    arrow: FinMap

    def __init__(self, src: Bundle, dst: Bundle, arrow: FinMap):
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "arrow", arrow)
        if src.base != dst.base:
            raise ShapeMismatch("slice morphism between bundles over different bases")
        if arrow.dom != src.total or arrow.cod != dst.total:
            raise ShapeMismatch("arrow does not run between the bundle totals")
        if compose(dst.map, arrow) != src.map:
            raise ShapeMismatch("arrow does not commute over the base")

    @staticmethod
    def _make(src, dst, arrow) -> "SliceMorphism":
        obj = object.__new__(SliceMorphism)
        d = obj.__dict__
        d["src"] = src
        d["dst"] = dst
        d["arrow"] = arrow
        return obj

    @classmethod
    def identity(cls, b: Bundle) -> "SliceMorphism":
        return cls._make(b, b, FinMap.identity(b.total))

    def is_iso(self) -> bool:
        return len(set(self.arrow.values)) == len(self.dst.total) == len(self.src.total)


def compose_slice(g: SliceMorphism, f: SliceMorphism) -> SliceMorphism:
    if f.dst != g.src:
        raise ShapeMismatch("slice morphisms do not chain")
    return SliceMorphism._make(f.src, g.dst, compose(g.arrow, f.arrow))


def invert_slice(m: SliceMorphism) -> SliceMorphism:
    if not m.is_iso():
        raise ShapeMismatch("slice morphism is not invertible")
    back = {v: e for e, v in zip(m.src.total.elements, m.arrow.values)}
    return SliceMorphism(
        m.dst, m.src, FinMap(m.dst.total, m.src.total, tuple(back[e] for e in m.dst.total))
    )


def slice_homs(src: Bundle, dst: Bundle) -> Iterator[SliceMorphism]:
    """Every slice morphism src -> dst, in lexicographic order of value tables."""
    candidates = [dst.fiber(src.map(e)) for e in src.total]
    for values in itertools.product(*candidates):
        yield SliceMorphism._make(src, dst, FinMap._make(src.total, dst.total, values))


def pullback_bundle(f: FinMap, p: Bundle) -> Bundle:
    """The canonical pullback f*(p), as a bundle over f's domain."""
    if f.cod != p.base:
        raise ShapeMismatch("pullback along a map into a different base")
    return Bundle(pullback(f, p.map).left)


def pullback_vertical(v: SliceMorphism, sq_src: Span, sq_dst: Span) -> SliceMorphism:
    """f*(v): the pullback functor on a vertical map; sq_src and sq_dst are
    the canonical squares of v's source and target along one map f.  It
    builds no square, and a cone that misses sq_dst raises ShapeMismatch."""
    arrow = pair_into_pullback(
        sq_src.left, compose(v.arrow, sq_src.right), sq_dst
    )
    return SliceMorphism._make(Bundle(sq_src.left), Bundle(sq_dst.left), arrow)


def relabel_identity(p: Bundle) -> SliceMorphism:
    """The canonical iso id*(p) -> p (pullback along the identity relabels pairs)."""
    sq = pullback(FinMap.identity(p.base), p.map)
    return SliceMorphism(Bundle(sq.left), p, sq.right)


class SectionTables(Frozen):
    """Every section of a bundle q over each fiber of a family.

    `fibers` maps each base point b to the points its sections are defined
    on, in order.  The sections are the elements of `projection.dom`, named
    "(b|hash-of-table)" and projected to b.  `tables` holds each one's table
    as its values at the points of its fiber, in fiber order, aligned with
    the sections; it is derived from q on first read, because a caller that
    prints only labels never needs it.  Jet bundles and dependent products
    are both built on this.
    """

    fibers: Mapping[str, tuple[str, ...]]
    projection: FinMap  # sections -> base points
    q: FinMap  # the bundle the sections choose values in

    def __init__(self, fibers: Mapping[str, tuple[str, ...]], projection: FinMap, q: FinMap):
        object.__setattr__(self, "fibers", fibers)
        object.__setattr__(self, "projection", projection)
        object.__setattr__(self, "q", q)

    @cached_property
    def tables(self) -> tuple[tuple[str, ...], ...]:
        """Values at fibers[b], in order: per base point, the product of
        q's fibers over b's points, last point fastest."""
        fiber = self.q.fibers.__getitem__
        tables: list[tuple[str, ...]] = []
        for points in self.fibers.values():
            tables += itertools.product(*map(fiber, points))
        return tuple(tables)

    @cached_property
    def _by_table(self) -> Mapping[tuple[str, tuple[str, ...]], str]:
        return {(b, tab): el for el, b, tab in self.entries()}

    def entries(self) -> Iterator[tuple[str, str, tuple[str, ...]]]:
        """(section, base point, table) for every section, in order."""
        return zip(self.projection.dom.elements, self.projection.values, self.tables)

    def table_of(self, el: str) -> dict[str, str]:
        """The section el's table keyed by the points of its fiber."""
        i = self.projection.dom.index[el]
        return dict(zip(self.fibers[self.projection.values[i]], self.tables[i]))

    def element_for(self, b: str, values: tuple[str, ...]) -> str:
        """The section over b with the given values at the points of b's
        fiber, in order; KeyError when there is none."""
        return self._by_table[(b, values)]

    def push_along(self, arrow: FinMap, dst: "SectionTables") -> FinMap:
        """The map sending each section to the section of `dst` over the same
        base point whose table is its table followed by `arrow`; KeyError when
        there is none, ShapeMismatch when `dst` has other fibers.  The jet
        functor, the dependent product and the polynomial functor on a
        vertical map are all this map."""
        if dst.fibers != self.fibers:
            raise ShapeMismatch("section tables over different fibers")
        image = arrow.table.__getitem__
        by_table = dst._by_table
        values = tuple(by_table[(b, tuple(map(image, tab)))] for _, b, tab in self.entries())
        return FinMap._make(self.projection.dom, dst.projection.dom, values)

    def evaluations(self, points: FinSet) -> tuple[str, ...]:
        """Every section's value at every point of its fiber, by point in the
        order of `points`, then by section: the order of the canonical
        pullback of `projection` along the map that sends each point to its
        base point."""
        rows: dict[str, list[str]] = {m: [] for m in points}
        for _, b, tab in self.entries():
            for m, v in zip(self.fibers[b], tab):
                rows[m].append(v)
        return tuple(itertools.chain.from_iterable(rows.values()))


def section_tables(
    name: str, base: FinSet, fibers: Mapping[str, tuple[str, ...]], q: FinMap
) -> SectionTables:
    """Every section of q over fibers[b], for each base point b in the order
    of `fibers`: the product of q's fibers over b's points, last point
    fastest.  Only the labels and base points are built here, from the same
    product over the "point:value" fragments that `table_label` joins; the
    tables follow on first read of `SectionTables.tables`.  The labels go
    into one FinSet called `name`, so a label collision raises ValueError.

    This order is a contract: `cli._table_texts` renders the same product
    over the same fibers and aligns its texts with the sections by position,
    and the pinned output digests in the CLI tests hold both to it."""
    labels: list[str] = []
    bases: list[str] = []
    for b, points in fibers.items():
        fragments = [[f"{m}:{v}" for v in q.fiber(m)] for m in points]
        labels += [table_label(b, entries) for entries in itertools.product(*fragments)]
        bases += [b] * (len(labels) - len(bases))
    total = FinSet(name, tuple(labels))
    return SectionTables(fibers, FinMap._make(total, base, tuple(bases)), q)


class DependentProduct(Frozen):
    """The right adjoint to pullback along `along`, applied to `input`.

    The fiber of `result` at b is the set of sections of `input` over the
    `along`-fiber of b; `counit` evaluates a section at a point of that fiber.
    `square`, the canonical pullback of `result` along d, and the counit on
    it are built on first use, because the square is larger than the result
    and only the law checks read it; once built, each is kept.
    """

    along: FinMap  # d: M -> B
    input: Bundle  # q over M
    sections: SectionTables  # over the fibers of d

    def __init__(self, along: FinMap, input: Bundle, sections: SectionTables):
        object.__setattr__(self, "along", along)
        object.__setattr__(self, "input", input)
        object.__setattr__(self, "sections", sections)

    @property
    def result(self) -> Bundle:
        return Bundle(self.sections.projection)

    @cached_property
    def square(self) -> Span:
        """The canonical pullback of (d, result.map)."""
        return pullback(self.along, self.sections.projection)

    @cached_property
    def counit(self) -> SliceMorphism:
        """d*(result) -> input, over M."""
        sq = self.square
        values = self.sections.evaluations(self.along.dom)
        arrow = FinMap._make(sq.apex, self.input.total, values)
        return SliceMorphism._make(Bundle(sq.left), self.input, arrow)


def dependent_product(d: FinMap, q: Bundle) -> DependentProduct:
    if q.base != d.dom:
        raise ShapeMismatch("dependent product input must live over the map's domain")
    sections = section_tables(
        f"sec({d.dom.name}->{d.cod.name};{q.total.name})", d.cod, d.fibers, q.map
    )
    return DependentProduct(d, q, sections)


def dependent_product_map(
    v: SliceMorphism, dp_src: DependentProduct, dp_dst: DependentProduct
) -> SliceMorphism:
    """Functoriality of the dependent product on a vertical map v; dp_src
    and dp_dst are the products of v's source and target along one map.
    """
    if (dp_src.input, dp_dst.input) != (v.src, v.dst) or dp_src.along != dp_dst.along:
        raise ShapeMismatch("products are not the products of the morphism's ends along one map")
    arrow = dp_src.sections.push_along(v.arrow, dp_dst.sections)
    return SliceMorphism._make(dp_src.result, dp_dst.result, arrow)


class AdjunctionBijection(Frozen):
    """Explicit mutually inverse transposition maps for pullback -| product."""

    left: Bundle  # y over B
    product: DependentProduct  # of q over M along d: M -> B
    square: Span  # of (d, left.map)

    def __init__(self, left: Bundle, product: DependentProduct, square: Span):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "product", product)
        object.__setattr__(self, "square", square)

    @property
    def along(self) -> FinMap:
        return self.product.along

    @property
    def right(self) -> Bundle:
        return self.product.input

    @property
    def pulled_left(self) -> Bundle:
        return Bundle(self.square.left)

    def to_base(self, m: SliceMorphism) -> SliceMorphism:
        """Transpose d*(y) -> q into y -> product."""
        if m.src != self.pulled_left or m.dst != self.right:
            raise ShapeMismatch("morphism is not d*(y) -> q")
        values = []
        for w in self.left.total:
            b = self.left.map(w)
            table = tuple(m.arrow(pair_name(mm, w)) for mm in self.along.fiber(b))
            values.append(self.product.sections.element_for(b, table))
        arrow = FinMap._make(self.left.total, self.product.result.total, tuple(values))
        return SliceMorphism._make(self.left, self.product.result, arrow)

    def to_total(self, n: SliceMorphism) -> SliceMorphism:
        """Transpose y -> product into d*(y) -> q."""
        if n.src != self.left or n.dst != self.product.result:
            raise ShapeMismatch("morphism is not y -> product")
        values = []
        for x in self.square.apex:
            m = self.square.left(x)
            w = self.square.right(x)
            values.append(self.product.sections.table_of(n.arrow(w))[m])
        arrow = FinMap._make(self.square.apex, self.right.total, tuple(values))
        return SliceMorphism._make(self.pulled_left, self.right, arrow)


def adjunction_bijection(d: FinMap, y: Bundle, q: Bundle) -> AdjunctionBijection:
    if y.base != d.cod or q.base != d.dom:
        raise ShapeMismatch("bundles do not sit over the ends of the map")
    return AdjunctionBijection(y, dependent_product(d, q), pullback(d, y.map))


class PolynomialProduct(Frozen):
    """The composite polynomial functor d_*c^* at a bundle p, with the parts
    it is built from: the span (c, d), the canonical square c*(p) and the
    dependent product of the square's left leg along d.  Its one builder is
    `polynomial_product`; the polynomial functor on a vertical map and the
    iso to the jet bundle read the square it holds instead of rebuilding it."""

    span: Span  # c: M -> A, d: M -> B
    p: Bundle  # over A
    square: Span  # canonical pullback of (c, p.map)
    product: DependentProduct  # of square.left along d

    def __init__(self, span: Span, p: Bundle, square: Span, product: DependentProduct):
        object.__setattr__(self, "span", span)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "square", square)
        object.__setattr__(self, "product", product)


def polynomial_product(span: Span, p: Bundle) -> PolynomialProduct:
    """The polynomial product of p along the span (c, d).  Its product's
    result is the composite polynomial functor applied to p: sections over
    the span's fibers."""
    if span.left.cod != p.base:
        raise ShapeMismatch("bundle does not live over the left leg's codomain")
    square = pullback(span.left, p.map)
    return PolynomialProduct(span, p, square, dependent_product(span.right, Bundle(square.left)))


def polynomial_map(
    v: SliceMorphism, dp_src: PolynomialProduct, dp_dst: PolynomialProduct
) -> SliceMorphism:
    """The polynomial functor on a vertical map v; dp_src and dp_dst are the
    polynomial products of v's source and target along one span (c, d).

    One push of dp_src's sections along c*(v), which sends each <m, e> of
    dp_src's square to <m, v(e)>, the canonical element of dp_dst's square
    named by `pair_name`.  It reads the square dp_src holds and builds none.
    The tests compare it with `dependent_product_map` on c*(v), which
    `pullback_vertical` builds on squares of their own.
    """
    if (dp_src.p, dp_dst.p) != (v.src, v.dst) or dp_src.span != dp_dst.span:
        raise ShapeMismatch("products are not the polynomial products of v's ends along one span")
    sq = dp_src.square
    values = tuple(pair_name(m, v.arrow(e)) for m, e in zip(sq.left.values, sq.right.values))
    pushed = FinMap._make(sq.apex, dp_dst.square.apex, values)
    arrow = dp_src.product.sections.push_along(pushed, dp_dst.product.sections)
    return SliceMorphism._make(dp_src.product.result, dp_dst.product.result, arrow)


class SpanMorphism(Frozen):
    """A commuting morphism between two spans (not assumed jointly monic).

        A' <--src.left-- M' --src.right--> B'
        |on_left         |on_mid           |on_right
        A  <--dst.left-- M  --dst.right--> B
    """

    src: Span
    dst: Span
    on_left: FinMap
    on_mid: FinMap
    on_right: FinMap

    def __init__(self, src: Span, dst: Span, on_left: FinMap, on_mid: FinMap, on_right: FinMap):
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "on_left", on_left)
        object.__setattr__(self, "on_mid", on_mid)
        object.__setattr__(self, "on_right", on_right)
        if compose(dst.left, on_mid) != compose(on_left, src.left):
            raise ShapeMismatch("left square does not commute")
        if compose(dst.right, on_mid) != compose(on_right, src.right):
            raise ShapeMismatch("right square does not commute")

    def right_square_is_pullback(self) -> bool:
        return is_pullback_square(self.src.right, self.on_mid, self.on_right, self.dst.right)


def mate_transform(sm: SpanMorphism, y: Bundle) -> SliceMorphism:
    """The pasted 2-cell g*(poly(y)) -> poly'(f*(y)) at the bundle y.

    poly is the polynomial functor of the lower span, poly' of the upper one;
    g and f are the right and left comparison maps.  When the right square is
    a pullback the result is invertible.
    """
    lower = polynomial_product(sm.dst, y)
    sq_c, dp = lower.square, lower.product
    sq_g = pullback(sm.on_right, dp.result.map)
    dp2 = polynomial_product(sm.src, pullback_bundle(sm.on_left, y)).product
    values = []
    for x in sq_g.apex:
        b2 = sq_g.left(x)
        t = sq_g.right(x)
        section = dp.sections.table_of(t)
        table = tuple(
            pair_name(m2, pair_name(sm.src.left(m2), sq_c.right(section[sm.on_mid(m2)])))
            for m2 in sm.src.right.fiber(b2)
        )
        values.append(dp2.sections.element_for(b2, table))
    arrow = FinMap(sq_g.apex, dp2.result.total, tuple(values))
    return SliceMorphism(Bundle(sq_g.left), dp2.result, arrow)
