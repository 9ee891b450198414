"""Second routes to library results, kept as oracles for the suites and tests.

The library computes each result one way.  Each function here builds or
decides the same thing a second way, straight from the definition or in the
other style (elementwise probes and tabulation against pullbacks and section
tables), and never calls the library function it checks.  No library module
imports this one; `suites.py` counts the comparisons as checks, and the tests
compare the two routes directly.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Mapping

from .fibdual import Comorphism
from .finset import (
    FinMap,
    FinSet,
    all_maps,
    compose,
    element,
    pair_into_pullback,
    probe_stage,
    pullback,
    table_label,
)
from .jets import JetBundle, PhiContext, SectionJet, classify, jet_bundle, phi, restrict_jet
from .kripke import (
    PartialMapAtStage,
    SubobjectAtStage,
    counterimage,
    sub_leq,
    value,
    yoneda_construct,
)
from .polyfun import Bundle, SectionTables, SliceMorphism, compose_slice, relabel_identity
from .relations import Relation, RelationMorphism, monad, monad_at, require_endo


# `brute_force_leq` and the two relation routes probe every stage of size 0
# to MAX_STAGE.
MAX_STAGE = 2


def brute_force_leq(u: SubobjectAtStage, u2: SubobjectAtStage) -> bool:
    """`kripke.sub_leq` as the quantifier itself: every element of u at every
    later stage is in u2.

    Probes are deduplicated by their image pair-set, on which membership
    only depends.
    """
    probes: set[frozenset] = set()
    for size in range(MAX_STAGE + 1):
        stage = probe_stage(size)
        for alpha in all_maps(stage, u.stage):
            for a in all_maps(stage, u.over):
                probes.add(frozenset(zip(a.values, alpha.values)))
    for probe in sorted(probes, key=lambda s: (len(s), sorted(s))):
        if probe <= u.pair_set and not probe <= u2.pair_set:
            return False
    return True


def is_monic_elementwise(f: FinMap) -> bool:
    """`finset.is_monic` read off global elements: no two distinct points of
    the domain, taken as maps from `probe_stage(1)`, compose with f to the
    same map."""
    images = [compose(f, x) for x in all_maps(probe_stage(1), f.dom)]
    return all(g != h for g, h in itertools.combinations(images, 2))


def is_cartesian_elementwise(c: Comorphism) -> bool:
    """`fibdual.is_cartesian` read off the vertical's table: every element of
    its codomain has exactly one preimage."""
    arrow = c.vertical.arrow
    preimages = Counter(arrow.values)
    return all(preimages[e] == 1 for e in arrow.cod)


def is_reflexive_elementwise(r: Relation) -> bool:
    """`relations.is_reflexive` read off generalized elements: a0 is in its
    own monad."""
    require_endo(r)
    for size in range(MAX_STAGE + 1):
        stage = probe_stage(size)
        for a0 in all_maps(stage, r.over):
            u = monad(r, a0)
            if not all((a0(x), x) in u.pair_set for x in stage):
                return False
    return True


def is_symmetric_elementwise(r: Relation) -> bool:
    """`relations.is_symmetric` read off generalized elements: membership
    swaps sides.  Each probe's monad is built once per stage and read for
    every pair of probes."""
    require_endo(r)
    for size in range(MAX_STAGE + 1):
        stage = probe_stage(size)
        probes = [(a.values, monad(r, a).pair_set) for a in all_maps(stage, r.over)]
        for a, monad_a in probes:
            for b, monad_b in probes:
                left = all(pair in monad_b for pair in zip(a, stage.elements))
                right = all(pair in monad_a for pair in zip(b, stage.elements))
                if left != right:
                    return False
    return True


def ball_elementwise(adjacency: Relation, radius: int) -> frozenset[tuple[str, str]]:
    """`relations.ball_relation` as iterated relation composition: the
    diagonal composed `radius` times with the adjacency, each step keeping
    the shorter walks.  A loop only adds a diagonal pair."""
    ball = {(a, a) for a in adjacency.over}
    for _ in range(radius):
        ball |= {(a, c) for a, b in ball for b2, c in adjacency.pairs if b == b2}
    return frozenset(ball)


def preserves_by_monads(f: FinMap, f0: FinMap, rel_src: Relation, rel_dst: Relation) -> bool:
    """`relations.check_preserves` as the monad criterion: the monad of every
    point lands in the counterimage of its image's monad."""
    return all(
        sub_leq(monad_at(rel_src, a0), counterimage(f, monad_at(rel_dst, f0(a0))))
        for a0 in rel_src.stage
    )


def phi_tabulated(ctx: PhiContext, a0: FinMap, j: SectionJet) -> PartialMapAtStage:
    """`jets.phi` as the Yoneda tabulation of its value law a |-> <a, j(f(a))>."""
    mor = ctx.morphism

    def law(a: FinMap, alpha: FinMap) -> FinMap:
        image_value = value(j.underlying, compose(mor.f, a), alpha)
        return pair_into_pullback(a, image_value, ctx.square)

    return yoneda_construct(monad(mor.rel_src, a0), law)


def pointwise_cartesian_image(
    morphism: RelationMorphism, p: Bundle
) -> tuple[JetBundle, Comorphism]:
    """J(f*(p)) and the comorphism over f0 from it to J(p) that transports
    jets, built one jet at a time: each <a0, t> of f0*(J(p)) goes to the
    class of phi at a0 of the jet t names.  When f0 = f, this is the jet
    functor's image of the Cartesian comorphism of p along f, which
    `fibdual.global_jet` reads off section tables."""
    ctx = PhiContext(morphism, p.map)
    jb_dst = jet_bundle(morphism.rel_dst, p.map)
    jb_pulled = jet_bundle(morphism.rel_src, ctx.pulled)
    sq = pullback(morphism.f0, jb_dst.projection)
    values = []
    for a0, t in zip(sq.left.values, sq.right.values):
        jet = restrict_jet(jb_dst.generic_jet, element(jb_dst.total, t))
        values.append(classify(jb_pulled, phi(ctx, element(morphism.f0.dom, a0), jet))("*"))
    pulled = Bundle(jb_pulled.projection)
    vertical = SliceMorphism(Bundle(sq.left), pulled, FinMap(sq.apex, jb_pulled.total, tuple(values)))
    return jb_pulled, Comorphism(morphism.f0, Bundle(jb_dst.projection), vertical)


def section_tables_by_zip(
    name: str, base: FinSet, fibers: Mapping[str, tuple[str, ...]], q: FinMap
) -> tuple[FinMap, tuple[tuple[str, ...], ...]]:
    """`polyfun.section_tables` one section at a time: each choice of values
    is its table, and the label is hashed from the choice zipped with the
    points.  Returns the projection and the tables, aligned with its domain,
    for comparison with `SectionTables.tables`, which derives them from q."""
    labels, bases, tables = [], [], []
    for b, points in fibers.items():
        for choice in itertools.product(*(q.fiber(m) for m in points)):
            labels.append(table_label(b, (f"{m}:{v}" for m, v in zip(points, choice))))
            bases.append(b)
            tables.append(choice)
    return FinMap(FinSet(name, tuple(labels)), base, tuple(bases)), tuple(tables)


def push_along_by_lookup(src: SectionTables, arrow: FinMap, dst: SectionTables) -> FinMap:
    """`SectionTables.push_along` one section at a time: each pushed table
    is built as a dict and matched by a scan of `dst`'s sections over the
    same base point, each read through `table_of`."""
    values = []
    for el, b, _ in src.entries():
        pushed = {m: arrow(e) for m, e in src.table_of(el).items()}
        (match,) = [t for t in dst.projection.fiber(b) if dst.table_of(t) == pushed]
        values.append(match)
    return FinMap(src.projection.dom, dst.projection.dom, tuple(values))


def flatten_pullback(outer: FinMap, inner: FinMap, p: Bundle) -> SliceMorphism:
    """The re-association inner*(outer*(p)) -> (outer o inner)*(p)."""
    sq_outer = pullback(outer, p.map)
    sq_inner = pullback(inner, sq_outer.left)
    sq_whole = pullback(compose(outer, inner), p.map)
    arrow = pair_into_pullback(
        sq_inner.left,
        compose(sq_outer.right, sq_inner.right),
        sq_whole,
    )
    return SliceMorphism(Bundle(sq_inner.left), Bundle(sq_whole.left), arrow)


def nest_pullback(outer: FinMap, inner: FinMap, p: Bundle) -> SliceMorphism:
    """The re-association (outer o inner)*(p) -> inner*(outer*(p)), through
    which `fibdual.comorphism_compose` is checked."""
    sq_outer = pullback(outer, p.map)
    sq_inner = pullback(inner, sq_outer.left)
    sq_whole = pullback(compose(outer, inner), p.map)
    middle = pair_into_pullback(
        compose(inner, sq_whole.left), sq_whole.right, sq_outer
    )
    arrow = pair_into_pullback(sq_whole.left, middle, sq_inner)
    return SliceMorphism(Bundle(sq_whole.left), Bundle(sq_inner.left), arrow)


def vertical_comorphism(v: SliceMorphism) -> Comorphism:
    """The comorphism over the identity corresponding to a slice morphism.

    The fiber of the dual fibration is the opposite of the slice, so the
    slice morphism v: q -> q' becomes a comorphism from q' to q.
    """
    ident = FinMap.identity(v.src.base)
    return Comorphism(ident, v.src, compose_slice(v, relabel_identity(v.src)))


def distributivity_terminal_brute(c: Comorphism, max_total: int) -> bool:
    """`fibdual.distributivity_terminal` by enumeration.

    With d = c.over, q = c.src and eps = c.vertical: d*(t0) -> q, where t0
    = c.dst, enumerates every bundle t over d's codomain with at most
    max_total elements (plus t0 itself) and every vertical from d*(t) into
    q, and requires exactly one u: t -> t0 with eps o d*(u) = v.
    """
    d, q, t0 = c.over, c.src, c.dst
    # eps at each pair (m, j) of d*(t0), read off the legs of a square built
    # here rather than off its element names; the comorphism's shape check
    # puts eps's domain in the square's order.
    sq_eps = pullback(d, t0.map)
    pairs = zip(sq_eps.left.values, sq_eps.right.values)
    eps_at = dict(zip(pairs, c.vertical.arrow.values))
    base = d.cod
    candidates: list[Bundle] = [t0]
    for size in range(max_total + 1):
        carrier = FinSet(f"cand{size}", tuple(f"t{i}" for i in range(size)))
        for values in itertools.product(base.elements, repeat=size):
            candidates.append(Bundle(FinMap(carrier, base, values)))
    for t in candidates:
        sq_t = pullback(d, t.map)
        points = [(sq_t.left(x), sq_t.right(x)) for x in sq_t.apex]
        spots = {tt: i for i, tt in enumerate(t.total.elements)}
        u_options = [t0.fiber(t.map(tt)) for tt in t.total]
        transposed: dict[tuple[str, ...], int] = {}
        if all(u_options):
            for u_values in itertools.product(*u_options):
                key = tuple(
                    eps_at[(m, u_values[spots[tt]])]
                    for m, tt in points
                )
                transposed[key] = transposed.get(key, 0) + 1
        v_options = [q.fiber(m) for m, _ in points]
        if not all(v_options):
            # No verticals out of this pullback; nothing to mediate.
            continue
        for v_values in itertools.product(*v_options):
            if transposed.get(v_values, 0) != 1:
                return False
    return True
