"""The fibrewise dual of the codomain fibration: comorphisms and the global jet functor.

A comorphism from p' (over A') to p (over A) along f: A' -> A is kept in its
canonical form: the vertical map out of the canonical pullback f*(p) into p'.
Equality of comorphisms is then table equality.
"""

from __future__ import annotations

import math

from .errors import ShapeMismatch
from .finset import FinMap, Frozen, Span, compose, pair_name, pullback
from .jets import JetBundle, jet_bundle
from .kripke import canonicalize
from .polyfun import Bundle, SliceMorphism, pullback_bundle, relabel_identity
from .relations import check_preserves


class Comorphism(Frozen):
    """An arrow of the fibrewise dual fibration, in canonical vh form."""

    over: FinMap  # f: A' -> A
    src: Bundle  # over A'
    dst: Bundle  # over A
    vertical: SliceMorphism  # f*(dst) -> src, over A'

    def __init__(self, over: FinMap, src: Bundle, dst: Bundle, vertical: SliceMorphism):
        object.__setattr__(self, "over", over)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "vertical", vertical)
        if src.base != over.dom or dst.base != over.cod:
            raise ShapeMismatch("bundles do not sit over the ends of the base map")
        if vertical.src != pullback_bundle(over, dst):
            raise ShapeMismatch("vertical part does not start at the canonical pullback")
        if vertical.dst != src:
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


def global_jet(c: Comorphism, jb_src: JetBundle, jb_dst: JetBundle) -> Comorphism:
    """The jet functor on the fibrewise dual, one comorphism at a time.

    jb_src and jb_dst are J(p') and J(p), the jet bundles of c's source and
    target bundles over endo-relations that the base map f preserves.  The
    image runs from J(p') to J(p) over f.  Its vertical part is the composite
    of the mediating transport (the Cartesian image, phi's value law
    a |-> <a, t(f(a))>) and the jet functor of the fiber on c's vertical v:
    each <a0, t> of f*(J(p)) goes to the jet over a0 with table
    a |-> v(<a, t(f(a))>), named by one lookup.  Preservation puts every
    f(a) in the column of f(a0), which t's table lists in order, so t(f(a))
    is read by position: the positions are found once per a0, and t's table
    is read as it is stored.  The tests compare this with the composite of
    `reference.pointwise_cartesian_image` (`phi` then `classify`) and of
    `jet_on_vertical`.
    """
    if jb_src.bundle != c.src.map or jb_dst.bundle != c.dst.map:
        raise ShapeMismatch("jet bundles are not those of the comorphism's ends")
    rel_src = jb_src.relation
    # With f0 = f, the preservation check also rejects relations that are not endo.
    if check_preserves(c.over, c.over, rel_src, jb_dst.relation) is None:
        raise ShapeMismatch("base map does not preserve the endo-relations")
    f, v = c.over, c.vertical.arrow
    sq = pullback(f, jb_dst.projection)
    dst_columns = jb_dst.sections.fibers
    reads = {}
    for a0, column in rel_src.columns.items():
        where = {m: i for i, m in enumerate(dst_columns[f(a0)])}
        reads[a0] = [(a, where[f(a)]) for a in column]
    tables, index = jb_dst.sections.tables, jb_dst.total.index
    values = []
    for a0, t in zip(sq.left.values, sq.right.values):
        tab = tables[index[t]]
        moved = tuple(v(pair_name(a, tab[i])) for a, i in reads[a0])
        values.append(jb_src.sections.element_for(a0, moved))
    src, dst = Bundle(jb_src.projection), Bundle(jb_dst.projection)
    arrow = FinMap._make(sq.apex, src.total, tuple(values))
    vertical = SliceMorphism._make(Bundle(sq.left), src, arrow)
    return Comorphism._make(f, src, dst, vertical)


def generic_section_comorphism(span: Span, p: Bundle) -> Comorphism:
    """The generic section jet as a comorphism over d, from c*(p) to J(p),
    where the span is (c, d).

    Its vertical eps: d*(J(p)) -> c*(p) evaluates each total element's own
    table at the span point it is paired with.  J(p) and the two squares are
    built once, here.
    """
    c, d = span.left, span.right
    jb = jet_bundle(canonicalize(span), p.map)
    sq_d, sq_c = pullback(d, jb.projection), pullback(c, p.map)
    tables, index, columns = jb.sections.tables, jb.total.index, jb.sections.fibers
    # The position of c(m) in the column of d(m), where t's table holds t(c(m)).
    at = {m: columns[b].index(c(m)) for m, b in zip(d.dom, d.values)}
    values = tuple(
        pair_name(m, tables[index[t]][at[m]])
        for m, t in zip(sq_d.left.values, sq_d.right.values)
    )
    src = Bundle(sq_c.left)
    vertical = SliceMorphism._make(Bundle(sq_d.left), src, FinMap._make(sq_d.apex, sq_c.apex, values))
    return Comorphism._make(d, src, Bundle(jb.projection), vertical)


def distributivity_terminal(c: Comorphism, max_total: int) -> bool:
    """Whether c's vertical eps: d*(t0) -> q makes its target t0 the
    dependent product of its source q along d = c.over.

    The test bundles t are t0 itself and every bundle over d's codomain
    with at most max_total elements.  eps is terminal when, for every t and
    every vertical v: d*(t) -> q, exactly one u: t -> t0 has
    eps o d*(u) = v.  For `generic_section_comorphism(span, p)` this is the
    terminality of the generic section jet among comorphisms over d from
    c*(p); for a dependent product's counit it holds by construction.

    This is decided fiber by fiber.  The transpose u |-> eps o d*(u) splits
    into one block per element x of t, the map at b = t(x)

        phi_b: (t0)_b -> prod over m in d^-1(b) of q_m,  j |-> (eps<m, j>)_m.

    If some q_m over t's image is empty, there is no v and t passes
    vacuously.  Otherwise every block has a nonempty codomain, and a product
    of such maps is a bijection iff every block is, so t passes iff phi_t(x)
    is a bijection for every x in t.  Each phi_b is read once off eps's
    table: eps is vertical, so its values at b lie in the product, and phi_b
    is a bijection iff they are distinct and as many as the product has
    elements.

    So only the bad points, those neither vacuous nor bijective, decide the
    test bundles beyond t0.  At max_total = 0 the only one is the empty
    bundle, which passes.  From max_total = 1 on, the one-element bundle on
    a bad point fails and a bundle without one passes, so every such bound
    gives one verdict: no point of d's codomain is bad.
    `reference.distributivity_terminal_brute` enumerates every t, u and v
    instead; the tests compare the two.
    """
    d, q, t0 = c.over, c.src, c.dst
    eps = c.vertical.arrow.table
    vacuous: dict[str, bool] = {}
    bijective: dict[str, bool] = {}
    for b in d.cod:
        over = d.fiber(b)
        sizes = [len(q.fiber(m)) for m in over]
        fiber = t0.fiber(b)
        images = {tuple(eps[pair_name(m, j)] for m in over) for j in fiber}
        vacuous[b] = 0 in sizes
        bijective[b] = len(images) == len(fiber) == math.prod(sizes)

    image = t0.map.values
    t0_passes = any(vacuous[b] for b in image) or all(bijective[b] for b in image)
    return t0_passes and (max_total < 1 or all(vacuous[b] or bijective[b] for b in d.cod))
