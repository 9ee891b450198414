"""Property suites: seeded random instances, exact checks, reproducible reports.

`_instance` runs one instance: it builds a `_Checker`, draws the instance's
generator, clamps the size bounds to the suite's `CAPS` entry and hands all
three to the suite function, which counts its checks on the checker.  Reports
assemble in (suite, instance) order, so runs are byte-identical for a fixed
seed and bounds regardless of worker process count.
"""

from __future__ import annotations

import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Optional, TypeVar

from . import fibdual, jets, kripke, polyfun, reference, relations
from .errors import ShapeMismatch
from .finset import (
    FinMap,
    FinSet,
    Frozen,
    Span,
    all_maps,
    compose,
    element,
    is_monic,
    pair_into_pullback,
    probe_stage,
    pullback,
    span_leq,
)
from .instances import (
    induced_adjacency,
    rand_adjacency,
    rand_ball_pair,
    rand_bundle,
    rand_finset,
    rand_map,
    rand_partial_map,
    rand_preserving_relations,
    rand_relation,
    rand_subobject,
    rng_for,
    trim_bundle,
)
from .polyfun import Bundle, SliceMorphism, slice_homs
from .relations import Relation, ball_relation
from .workspace import Workspace, serialize_workspace

Outcome = tuple[int, int, Optional[str]]
SuiteFn = Callable[["_Checker", random.Random, int, int], None]
_D = TypeVar("_D")
_KINDS = {FinSet: "objects", FinMap: "maps", Relation: "relations", Bundle: "bundles"}


class _Checker:
    """Counts one instance's checks and keeps the first failure's reason with
    every datum put before it, as workspace text that parses back.  `_instance`
    builds one per instance, hands it to the suite and returns its `outcome()`.

    `put(name, datum)` records the datum under its workspace kind, chosen by
    type, and returns it; `None` (`rand_map` into an empty set) is not
    recorded.  Kinds the grammar lacks go in as parts it has: a partial map
    as its support relation and `leg` map, a vertical map as its arrow.
    `serialize_workspace` declares the objects that maps, relations and
    bundles carry."""

    def __init__(self):
        self.ws = Workspace()
        self.passed = 0
        self.failed = 0
        self.counterexample: Optional[str] = None

    def put(self, name: str, datum: _D) -> _D:
        if isinstance(datum, SliceMorphism):
            self.put(name, datum.arrow)
        elif isinstance(datum, kripke.PartialMapAtStage):
            self.put(name, datum.support)
            self.put(name, datum.leg)
        elif datum is not None:
            getattr(self.ws, _KINDS[type(datum)])[name] = datum
        return datum

    def check(self, ok: bool, reason: str) -> bool:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if self.counterexample is None:
                self.counterexample = f"# {reason}\n{serialize_workspace(self.ws)}"
        return ok

    def outcome(self) -> Outcome:
        return self.passed, self.failed, self.counterexample


# --------------------------------------------------------------------------
# second derivations: the library computes each of these results one way;
# these wrappers compare it with a second route (from `reference`, or the
# generic jet) and count the comparison as a check.


def _checked_phi(
    t: _Checker, ctx: jets.PhiContext, a0: FinMap, j: jets.SectionJet
) -> jets.SectionJet:
    """`jets.phi`, checked against the Yoneda tabulation of its value law."""
    moved = jets.phi(ctx, a0, j)
    t.check(
        moved.underlying == reference.phi_tabulated(ctx, a0, j),
        "transport disagrees with the tabulation of its value law",
    )
    return moved


def _checked_classify(t: _Checker, jb: jets.JetBundle, j: jets.SectionJet) -> FinMap:
    """`jets.classify`, checked by pulling the generic jet back along the result."""
    cl = jets.classify(jb, j)
    t.check(
        jets.restrict_jet(jb.generic_jet, cl) == j,
        "pulling the generic jet back does not rebuild the jet",
    )
    return cl


def _checked_preserves(
    t: _Checker, f: FinMap, f0: FinMap, rel_src: Relation, rel_dst: Relation
) -> Optional[relations.RelationMorphism]:
    """`relations.check_preserves`, checked against the monad criterion."""
    morphism = relations.check_preserves(f, f0, rel_src, rel_dst)
    t.check(
        (morphism is not None) == reference.preserves_by_monads(f, f0, rel_src, rel_dst),
        "pair-set and monad preservation criteria disagree",
    )
    return morphism


# --------------------------------------------------------------------------
# finset laws


def suite_pullback_laws(t: _Checker, rng: random.Random, max_obj: int, max_fiber: int) -> None:
    a = rand_finset(rng, "A", max_obj)
    b = rand_finset(rng, "B", max_obj)
    c = rand_finset(rng, "C", max_obj, min_size=1)
    f = t.put("f", rand_map(rng, a, c))
    p = t.put("p", rand_map(rng, b, c))
    pb = pullback(f, p)
    expected = sum(
        sum(1 for x in a if f(x) == z) * sum(1 for y in b if p(y) == z) for z in c
    )
    t.check(len(pb.apex) == expected, "pullback apex size disagrees with the pair count")
    t.check(
        compose(f, pb.left) == compose(p, pb.right),
        "pullback square does not commute",
    )
    # Each conclusion is judged by both routes, so a wrong `is_monic` that
    # admits the hypothesis cannot also pass the conclusion.
    for leg, pulled_leg in ((f, pb.right), (p, pb.left)):
        if is_monic(leg):
            monic = is_monic(pulled_leg) and reference.is_monic_elementwise(pulled_leg)
            t.check(monic, "pullback of a monic is not monic")
    for size in range(3):
        stage = probe_stage(size)
        cones = [
            (ca, cb)
            for ca in all_maps(stage, a)
            for cb in all_maps(stage, b)
            if compose(f, ca) == compose(p, cb)
        ]
        # Every map into the apex, in all_maps order, under the cone it makes.
        rivals: dict[tuple, list[FinMap]] = {}
        for m in all_maps(stage, pb.apex):
            cone = (compose(pb.left, m).values, compose(pb.right, m).values)
            rivals.setdefault(cone, []).append(m)
        for ca, cb in cones:
            med = pair_into_pullback(ca, cb, pb)
            ok = compose(pb.left, med) == ca and compose(pb.right, med) == cb
            t.check(ok, "mediating map does not factor the cone")
            t.check(
                rivals.get((ca.values, cb.values)) == [med], "mediating map is not unique"
            )
    d = rand_finset(rng, "D", max_obj, min_size=1)
    g = t.put("g", rand_map(rng, c, d))
    e2 = rand_finset(rng, "E2", max_obj, min_size=1)
    h = t.put("h", rand_map(rng, d, e2))
    t.check(
        compose(h, compose(g, f)) == compose(compose(h, g), f),
        "composition is not associative",
    )
    t.check(compose(f, FinMap.identity(a)) == f, "right identity law fails")
    t.check(compose(FinMap.identity(c), f) == f, "left identity law fails")
    x = rand_finset(rng, "X", max_obj)
    u = t.put("u", rand_subobject(rng, a, x))
    u2 = t.put("u2", rand_subobject(rng, a, x))
    witness = span_leq(u.span, u2.span)
    t.check(
        (witness is not None) == (u.pair_set <= u2.pair_set),
        "span order disagrees with pair-set containment",
    )
    if witness is not None:
        t.check(
            compose(u2.span.left, witness) == u.span.left
            and compose(u2.span.right, witness) == u.span.right,
            "span witness does not commute",
        )
    reflexive = span_leq(u.span, u.span)
    t.check(
        reflexive == FinMap.identity(u.span.apex),
        "span order is not reflexive with the identity witness",
    )


# --------------------------------------------------------------------------
# kripke laws


def suite_extensionality(t: _Checker, rng: random.Random, max_obj: int, max_fiber: int) -> None:
    a = rand_finset(rng, "A", max_obj)
    x = rand_finset(rng, "X", max_obj)
    u = t.put("u", rand_subobject(rng, a, x))
    u2 = t.put("u2", rand_subobject(rng, a, x))
    direct = kripke.sub_leq(u, u2)
    via_legs = kripke.extensionality_leq(u, u2)
    brute = reference.brute_force_leq(u, u2)
    t.check(direct == via_legs, "leg membership test disagrees with containment")
    t.check(direct == brute, "stage quantification disagrees with containment")
    legs = u.span
    t.check(
        kripke.member(legs.left, legs.right, u) is not None,
        "canonical legs are not a member of their own subobject",
    )


def suite_membership(t: _Checker, rng: random.Random, max_obj: int, max_fiber: int) -> None:
    a = rand_finset(rng, "A", max_obj, min_size=1)
    x = rand_finset(rng, "X", max_obj, min_size=1)
    y = rand_finset(rng, "Y", max_obj, min_size=1)
    z = rand_finset(rng, "Z", max_obj)
    u = t.put("u", rand_subobject(rng, a, x))
    elem = t.put("a", rand_map(rng, y, a))
    alpha = t.put("alpha", rand_map(rng, y, x))
    beta = t.put("beta", rand_map(rng, z, y))
    direct = kripke.member(elem, alpha, u)
    via_stage = kripke.member(
        elem, FinMap.identity(y), kripke.change_of_stage(u, alpha)
    )
    t.check(
        (direct is None) == (via_stage is None),
        "membership disagrees with membership after change of stage",
    )
    if direct is not None:
        t.check(
            kripke.member(compose(elem, beta), compose(alpha, beta), u) is not None,
            "membership is not stable under change of stage",
        )
        t.check(
            compose(u.span.left, direct) == elem
            and compose(u.span.right, direct) == alpha,
            "witness does not commute with the canonical legs",
        )
    t.check(
        kripke.change_of_stage(kripke.change_of_stage(u, alpha), beta)
        == kripke.change_of_stage(u, compose(alpha, beta)),
        "change of stage is not strictly functorial",
    )
    a2 = rand_finset(rng, "A2", max_obj, min_size=1)
    a3 = rand_finset(rng, "A3", max_obj, min_size=1)
    f = t.put("f", rand_map(rng, a2, a))
    f2 = t.put("f2", rand_map(rng, a3, a2))
    t.check(
        kripke.counterimage(f2, kripke.counterimage(f, u))
        == kripke.counterimage(compose(f, f2), u),
        "counterimage is not strictly functorial",
    )
    t.check(
        kripke.counterimage(f, kripke.change_of_stage(u, alpha))
        == kripke.change_of_stage(kripke.counterimage(f, u), alpha),
        "counterimage does not commute with change of stage",
    )


def suite_yoneda(t: _Checker, rng: random.Random, max_obj: int, max_fiber: int) -> None:
    a = rand_finset(rng, "A", max_obj)
    x = rand_finset(rng, "X", max_obj)
    e = rand_finset(rng, "E", max_obj, min_size=1)
    u = rand_subobject(rng, a, x)
    s = t.put("s", rand_partial_map(rng, u, e))
    rebuilt = kripke.yoneda_construct(u, kripke.law_of(s))
    t.check(rebuilt == s, "tabulating a partial map's own law does not rebuild it")
    for _ in range(5):
        if not u.pairs or len(e) < 2:
            break
        rival_values = tuple(rng.choice(e.elements) for _ in u.pairs)
        if rival_values == s.values:
            continue
        rival = t.put("rival", kripke.PartialMapAtStage(u, e, rival_values))
        idx = next(i for i, (rv, sv) in enumerate(zip(rival_values, s.values)) if rv != sv)
        pa, px = u.pairs[idx]
        probe_a = FinMap(probe_stage(1), a, (pa,))
        probe_x = FinMap(probe_stage(1), x, (px,))
        t.check(
            kripke.value(rival, probe_a, probe_x) != kripke.value(s, probe_a, probe_x),
            "a rival partial map agrees with the law on a deciding probe",
        )
    if u.pairs:
        y = rand_finset(rng, "Y", max_obj, min_size=1)
        z = rand_finset(rng, "Z", max_obj)
        picks = [rng.choice(u.pairs) for _ in y]
        elem = t.put("a", FinMap(y, a, tuple(pa for pa, _ in picks)))
        alpha = t.put("alpha", FinMap(y, x, tuple(px for _, px in picks)))
        beta = t.put("beta", rand_map(rng, z, y))
        t.check(
            compose(kripke.value(s, elem, alpha), beta)
            == kripke.value(s, compose(elem, beta), compose(alpha, beta)),
            "value is not stable under change of stage",
        )
    f_dom = rand_finset(rng, "A2", max_obj)
    f = t.put("f", rand_map(rng, f_dom, a))
    q_cod = rand_finset(rng, "F", max_obj, min_size=1)
    q = t.put("q", rand_map(rng, e, q_cod))
    if f is not None:
        pre, post = kripke.precompose(s, f), kripke.postcompose(q, s)
        legs = pre.support.span
        # A drawn q often merges s's values; the cyclic shift on E keeps them apart.
        shift = FinMap(e, e, e.elements[1:] + e.elements[:1])
        t.check(
            kripke.postcompose(q, pre) == kripke.precompose(post, f)
            and post.leg == compose(q, s.leg)
            and kripke.postcompose(shift, s).leg == compose(shift, s.leg)
            and pre.leg == kripke.value(s, compose(f, legs.left), legs.right),
            "pre- and post-composition do not commute",
        )


# --------------------------------------------------------------------------
# relations laws


def suite_monad_stability(t: _Checker, rng: random.Random, max_obj: int, max_fiber: int) -> None:
    a = rand_finset(rng, "A", max_obj, min_size=1)
    b = rand_finset(rng, "B", max_obj, min_size=1)
    x = rand_finset(rng, "X", max_obj, min_size=1)
    y = rand_finset(rng, "Y", max_obj, min_size=1)
    z = rand_finset(rng, "Z", max_obj)
    r = t.put("R", rand_relation(rng, a, b))
    belem = t.put("b", rand_map(rng, x, b))
    alpha = t.put("alpha", rand_map(rng, y, x))
    beta = t.put("beta", rand_map(rng, z, y))
    moved = kripke.change_of_stage(relations.monad(r, belem), alpha)
    direct = relations.monad(r, compose(belem, alpha))
    t.check(moved == direct, "monad is not stable under change of stage")
    t.check(
        kripke.change_of_stage(moved, beta)
        == relations.monad(r, compose(belem, compose(alpha, beta))),
        "iterated change of stage does not collapse",
    )
    diag = Relation.diagonal(a)
    aelem = t.put("a", rand_map(rng, x, a))
    t.check(
        relations.monad(diag, aelem).pair_set
        == frozenset((aelem(v), v) for v in x),
        "diagonal monad is not the element's own graph",
    )


def suite_morphisms(t: _Checker, rng: random.Random, max_obj: int, max_fiber: int) -> None:
    f, f0, rel_src, rel_dst = map(
        t.put, ("f", "f0", "RA", "RB"), rand_preserving_relations(rng, max_obj)
    )
    t.check(
        _checked_preserves(t, f, f0, rel_src, rel_dst) is not None,
        "a relation drawn inside the counterimage is not preserved",
    )
    loose = t.put("loose", rand_relation(rng, f.dom, f0.dom))
    oracle = all(
        (f(p), f0(p0)) in rel_dst.pair_set for p, p0 in loose.pairs
    )
    t.check(
        (_checked_preserves(t, f, f0, loose, rel_dst) is not None) == oracle,
        "preservation test disagrees with the direct pairwise scan",
    )
    g, ball_a, ball_b = map(t.put, ("g", "ball_a", "ball_b"), rand_ball_pair(rng, max_obj))
    t.check(
        _checked_preserves(t, g, g, ball_a, ball_b) is not None,
        "a graph morphism does not preserve equal-radius balls",
    )
    carrier = rand_finset(rng, "G", max_obj, min_size=1)
    adjacency = t.put("adj", rand_adjacency(rng, carrier))
    r1 = rng.randint(0, 2)
    r2 = rng.randint(0, 2)
    # The balls at the drawn radii r1, r2 and r1 + r2 record the radii.
    small = t.put("small", ball_relation(adjacency, r1).base)
    other = t.put("other", ball_relation(adjacency, r2).base)
    big = t.put("big", ball_relation(adjacency, r1 + r2).base)
    composite = frozenset(
        (p, q)
        for p, mid in small.pairs
        for mid2, q in other.pairs
        if mid == mid2
    )
    t.check(
        big.pair_set <= composite,
        "ball at the summed radius escapes the composite of the two balls",
    )
    # A ball that collapses to the diagonal stays reflexive and symmetric,
    # so each ball is also compared with its composition route.
    t.check(
        relations.is_reflexive(big)
        and relations.is_symmetric(big)
        and all(
            ball.pair_set == reference.ball_elementwise(adjacency, r)
            for ball, r in ((small, r1), (other, r2), (big, r1 + r2))
        ),
        "ball relation lost reflexivity or symmetry, or differs from the composed adjacency",
    )
    t.check(
        relations.is_reflexive(big) == reference.is_reflexive_elementwise(big)
        and relations.is_symmetric(big) == reference.is_symmetric_elementwise(big),
        "elementwise and pair-set reflexivity/symmetry disagree",
    )
    loose_endo = t.put("loose_endo", rand_relation(rng, carrier, carrier))
    t.check(
        relations.is_reflexive(loose_endo)
        == reference.is_reflexive_elementwise(loose_endo),
        "elementwise reflexivity disagrees on a random endo-relation",
    )
    t.check(
        relations.is_symmetric(loose_endo)
        == reference.is_symmetric_elementwise(loose_endo),
        "elementwise symmetry disagrees on a random endo-relation",
    )


# --------------------------------------------------------------------------
# jets laws


def product_of_fibers(r: Relation, p: FinMap, a0: str) -> int:
    result = 1
    for a, b in r.pairs:
        if b == a0:
            result *= sum(1 for e in p.dom if p(e) == a)
    return result


def check_fiber_count(t: _Checker, rng: random.Random, max_obj: int, max_fiber: int) -> None:
    a = rand_finset(rng, "A", max_obj, min_size=1)
    a0 = rand_finset(rng, "A0", max_obj, min_size=1)
    r = t.put("R", rand_relation(rng, a, a0))
    p = t.put("p", rand_bundle(rng, a, max_fiber))
    jb = jets.jet_bundle(r, p.map)
    for point in a0:
        t.check(
            len(jb.fiber(point)) == product_of_fibers(r, p.map, point),
            f"jet fiber at {point!r} disagrees with the product of bundle fibers",
        )
    t.check(
        len(jb.total) == sum(product_of_fibers(r, p.map, point) for point in a0),
        "jet total size disagrees with the sum of fiber products",
    )


def check_classify(t: _Checker, rng: random.Random, max_obj: int, max_fiber: int) -> None:
    a = rand_finset(rng, "A", max_obj, min_size=1)
    a0 = rand_finset(rng, "A0", max_obj, min_size=1)
    r = t.put("R", rand_relation(rng, a, a0))
    p = t.put("p", rand_bundle(rng, a, max_fiber))
    jb = jets.jet_bundle(r, p.map)
    stage1 = probe_stage(1)
    for base in all_maps(stage1, a0):
        for j in jets.enumerate_jets(r, base, p.map):
            cl = jets.classify(jb, j)
            matches = [
                m
                for m in all_maps(stage1, jb.total)
                if compose(jb.projection, m) == base
                and jets.restrict_jet(jb.generic_jet, m) == j
            ]
            t.check(matches == [cl], "classifying map is not the unique one at a point")
    stage2 = probe_stage(2)
    for base in all_maps(stage2, a0):
        count = 1
        for x in stage2:
            count *= len(jb.fiber(base(x)))
        if count > 64:
            continue
        jets_here = jets.enumerate_jets(r, base, p.map)
        seen = set()
        for j in jets_here:
            seen.add(_checked_classify(t, jb, j).values)
        t.check(
            len(seen) == len(jets_here) == count,
            "classification at a two-point stage is not a bijection",
        )
    for alpha in all_maps(stage1, stage2):
        for base in all_maps(stage2, a0):
            jets_here = jets.enumerate_jets(r, base, p.map)
            if len(jets_here) > 16:
                continue
            for j in jets_here:
                t.check(
                    compose(_checked_classify(t, jb, j), alpha)
                    == _checked_classify(t, jb, jets.restrict_jet(j, alpha)),
                    "classification is not natural in the stage",
                )


def _random_vertical(rng: random.Random, src: Bundle, dst: Bundle) -> SliceMorphism:
    """A vertical src -> dst with one value drawn per element; every fiber of
    dst over src's image must be nonempty."""
    values = tuple(rng.choice(dst.fiber(src.map(e))) for e in src.total)
    return SliceMorphism(src, dst, FinMap(src.total, dst.total, values))


def beck_chevalley_check(g: FinMap, r: Relation, q: FinMap, max_stage: int) -> bool:
    """Whether the pulled-back jet bundle represents jets along g, by construction.

    For every base element at stages of size <= max_stage, builds the two
    transposition maps between jets at the image and maps into the canonical
    pullback, and checks that they are mutually inverse and natural.
    """
    if g.cod != r.stage:
        raise ShapeMismatch("map does not land in the relation's destination")
    jb = jets.jet_bundle(r, q)
    sq = pullback(g, jb.projection)

    def forward(a0: FinMap, j: jets.SectionJet) -> FinMap:
        return pair_into_pullback(a0, jets.classify(jb, j), sq)

    def backward(m: FinMap) -> jets.SectionJet:
        return jets.restrict_jet(jb.generic_jet, compose(sq.right, m))

    stages = [probe_stage(n) for n in range(max_stage + 1)]
    for stage in stages:
        for a0 in all_maps(stage, g.dom):
            jets_here = jets.enumerate_jets(r, compose(g, a0), q)
            over = [h.arrow for h in slice_homs(Bundle(a0), Bundle(sq.left))]
            if len(jets_here) != len(over):
                return False
            seen = set()
            for j in jets_here:
                m = forward(a0, j)
                if m.values in seen:
                    return False
                seen.add(m.values)
                if m not in over:
                    return False
                if backward(m) != j:
                    return False
            for m in over:
                if forward(a0, backward(m)) != m:
                    return False
    # Naturality: transporting then restricting equals restricting then transporting.
    for small in stages:
        for big in stages:
            for alpha in all_maps(small, big):
                for a0 in all_maps(big, g.dom):
                    for j in jets.enumerate_jets(r, compose(g, a0), q):
                        lhs = forward(compose(a0, alpha), jets.restrict_jet(j, alpha))
                        rhs = compose(forward(a0, j), alpha)
                        if lhs != rhs:
                            return False
    return True


def phi_compose_law(
    t: _Checker,
    upper: relations.RelationMorphism,
    lower: relations.RelationMorphism,
    p: FinMap,
    a0: FinMap,
) -> None:
    """Transporting along two stacked morphisms equals one composite step.

    The composite transport is computed with the canonical pullback along the
    composite base map and carried into the stacked apex by the comparison
    isomorphism, which the value law commutes with.  Every transport is
    checked against its tabulation; the law is one check after them.
    """
    composite = upper.then(lower)
    ctx_k = jets.PhiContext(lower, p)
    ctx_h = jets.PhiContext(upper, ctx_k.pulled)
    ctx_whole = jets.PhiContext(composite, p)
    whole = ctx_whole.square
    inner = pair_into_pullback(compose(upper.f, whole.left), whole.right, ctx_k.square)
    tau = pair_into_pullback(whole.left, inner, ctx_h.square)
    mid_base = compose(upper.f0, a0)
    ok = True
    for j in jets.enumerate_jets(lower.rel_dst, compose(lower.f0, mid_base), p):
        two_steps = _checked_phi(t, ctx_h, a0, _checked_phi(t, ctx_k, mid_base, j))
        one_step = jets.map_jet(_checked_phi(t, ctx_whole, a0, j), tau, ctx_h.pulled)
        ok = ok and two_steps == one_step
    t.check(ok, "stacked transports disagree with the composite transport")


def cluex_law(
    t: _Checker,
    morphism: relations.RelationMorphism,
    r_map: FinMap,
    p: FinMap,
    a0: FinMap,
) -> None:
    """Transport commutes with pushing jets along a vertical map.

    The classical regime: one map acting on both ends of uniform
    endo-relations, a bundle p over the target, and a vertical r_map into it.
    Every transport is checked against its tabulation; the law is one check
    after them.
    """
    if morphism.f != morphism.f0:
        raise ShapeMismatch("classical check needs one map acting on both ends")
    ctx_h = jets.PhiContext(morphism, p)
    ctx_k = jets.PhiContext(morphism, compose(p, r_map))
    lifted = pair_into_pullback(
        ctx_k.square.left, compose(r_map, ctx_k.square.right), ctx_h.square
    )
    ok = True
    for j in jets.enumerate_jets(morphism.rel_dst, compose(morphism.f0, a0), ctx_k.bundle):
        left = jets.map_jet(_checked_phi(t, ctx_k, a0, j), lifted, ctx_h.pulled)
        right = _checked_phi(t, ctx_h, a0, jets.map_jet(j, r_map, p))
        ok = ok and left == right
    t.check(ok, "transport does not commute with pushing jets along a vertical")


def check_phi_laws(t: _Checker, rng: random.Random, max_obj: int, max_fiber: int) -> None:
    size = max(2, max_obj)
    f, f0, rel_a, rel_b = map(t.put, ("f", "f0", "RA", "RB"), rand_preserving_relations(rng, size))
    c_src = rand_finset(rng, "C", size, min_size=1)
    c0 = rand_finset(rng, "C0", size, min_size=1)
    g = t.put("g", rand_map(rng, f.cod, c_src))
    g0 = t.put("g0", rand_map(rng, f0.cod, c0))
    # The image relation makes (g, g0) preserving by construction.
    rel_c = t.put("RC", Relation.from_pairs(c_src, c0, ((g(v), g0(v0)) for v, v0 in rel_b.pairs)))
    upper = _checked_preserves(t, f, f0, rel_a, rel_b)
    lower = _checked_preserves(t, g, g0, rel_b, rel_c)
    if upper is None or lower is None:
        t.check(False, "generated morphisms fail preservation")
        return
    p = t.put("p", rand_bundle(rng, c_src, max_fiber, tag="p"))
    a0 = t.put("a0", rand_map(rng, probe_stage(rng.randint(0, 2)), f0.dom))
    phi_compose_law(t, upper, lower, p.map, a0)
    fm, ball_a, ball_b = map(t.put, ("fm", "ball_a", "ball_b"), rand_ball_pair(rng, size))
    classical = _checked_preserves(t, fm, fm, ball_a, ball_b)
    pb_bundle = t.put("q", rand_bundle(rng, fm.cod, max_fiber, min_fiber=1, tag="q"))
    top = t.put("r", rand_bundle(rng, fm.cod, max_fiber, tag="r"))
    r_map = t.put("r_map", _random_vertical(rng, top, pb_bundle))
    if classical is not None:
        a0c = t.put("a0c", rand_map(rng, probe_stage(rng.randint(0, 2)), fm.dom))
        cluex_law(t, classical, r_map.arrow, pb_bundle.map, a0c)
    base = t.put("base", rand_map(rng, probe_stage(2), f0.dom))
    alpha = t.put("alpha", rand_map(rng, probe_stage(1), probe_stage(2)))
    n = t.put("n", rand_bundle(rng, f.cod, max_fiber, tag="n"))
    ctx = jets.PhiContext(upper, n.map)
    for j in jets.enumerate_jets(rel_b, compose(f0, base), ctx.bundle)[:4]:
        t.check(
            jets.restrict_jet(_checked_phi(t, ctx, base, j), alpha)
            == _checked_phi(t, ctx, compose(base, alpha), jets.restrict_jet(j, alpha)),
            "transport is not natural in the base element",
        )


def check_poly_iso(t: _Checker, rng: random.Random, max_obj: int, max_fiber: int) -> None:
    a = rand_finset(rng, "A", max_obj, min_size=1)
    a0 = rand_finset(rng, "A0", max_obj, min_size=1)
    r = t.put("R", rand_relation(rng, a, a0))
    p = t.put("p", rand_bundle(rng, a, max_fiber))
    whole = jets.polynomial_product_iso(r, p.map)
    poly, jb, iso = whole
    t.check(iso.is_iso(), "polynomial bundle is not isomorphic to the jet bundle")
    t.check(
        compose(jb.projection, iso.arrow) == poly.product.result.map,
        "isomorphism does not commute with the projections",
    )
    # Each bundle's polynomial product, jet bundle and iso, built once.
    trimmed = jets.polynomial_product_iso(r, trim_bundle(p).map)
    pairs = [(whole, trimmed), (trimmed, whole)]
    endo_count = 1
    for e in p.total:
        endo_count *= len(p.fiber(p.map(e)))
    if endo_count <= ENDO_CAP:
        pairs.append((whole, whole))
    for (src, jb_src, iso_src), (dst, jb_dst, iso_dst) in pairs:
        for v in slice_homs(src.p, dst.p):
            moved_poly = polyfun.polynomial_map(v, src, dst)
            moved_jets = jets.jet_on_vertical(jb_src, jb_dst, v.arrow)
            t.check(
                compose(jb_dst.projection, moved_jets) == jb_src.projection,
                "jet functor image does not commute with the projections",
            )
            lhs = compose(iso_dst.arrow, moved_poly.arrow)
            rhs = compose(moved_jets, iso_src.arrow)
            t.check(lhs == rhs, "isomorphism is not natural in the bundle")


def check_adjunction(t: _Checker, rng: random.Random, max_obj: int, max_fiber: int) -> None:
    m = rand_finset(rng, "M", max_obj, min_size=1)
    b = rand_finset(rng, "B", max_obj, min_size=1)
    d = t.put("d", rand_map(rng, m, b))
    y = t.put("y", rand_bundle(rng, b, max_fiber, tag="y"))
    q = t.put("q", rand_bundle(rng, m, max_fiber, tag="q"))
    t.check(adjunction_instance_ok(d, y, q), "adjunction laws fail")


def adjunction_instance_ok(d: FinMap, y: Bundle, q: Bundle) -> bool:
    """Roundtrips, hom-set cardinalities, and both triangle identities."""
    bij = polyfun.adjunction_bijection(d, y, q)
    pulled = bij.pulled_left
    lower = list(slice_homs(pulled, q))
    upper = list(slice_homs(y, bij.product.result))
    if len(lower) != len(upper):
        return False
    for hom in lower:
        if bij.to_total(bij.to_base(hom)) != hom:
            return False
    for hom in upper:
        if bij.to_base(bij.to_total(hom)) != hom:
            return False
    # Each unit is the transpose of an identity, on a square already built:
    # the bijection's d*(y), then the counit's d*(dp.result).
    ident = SliceMorphism.identity(pulled)
    dp_pulled = polyfun.dependent_product(d, pulled)
    unit = polyfun.AdjunctionBijection(y, dp_pulled, bij.square).to_base(ident)
    lifted_unit = polyfun.pullback_vertical(unit, bij.square, dp_pulled.square)
    if polyfun.compose_slice(dp_pulled.counit, lifted_unit) != ident:
        return False
    dp = bij.product
    dp_unit = polyfun.dependent_product(d, dp.counit.src)
    unit_at = polyfun.AdjunctionBijection(dp.result, dp_unit, dp.square).to_base(
        SliceMorphism.identity(dp.counit.src)
    )
    moved_counit = polyfun.dependent_product_map(dp.counit, dp_unit, dp)
    return polyfun.compose_slice(moved_counit, unit_at) == SliceMorphism.identity(dp.result)


def check_beck_chevalley(t: _Checker, rng: random.Random, max_obj: int, max_fiber: int) -> None:
    b = rand_finset(rng, "B", max_obj, min_size=1)
    b0 = rand_finset(rng, "B0", max_obj, min_size=1)
    a0 = rand_finset(rng, "A0", max_obj, min_size=1)
    g = t.put("g", rand_map(rng, a0, b0))
    r = t.put("R", rand_relation(rng, b, b0))
    q = t.put("q", rand_bundle(rng, b, max_fiber, tag="q"))
    t.check(
        beck_chevalley_check(g, r, q.map, max_stage=1),
        "pulled-back jet bundle does not represent jets along the map",
    )
    legs = r.span
    sq = pullback(g, legs.right)
    sm = polyfun.SpanMorphism(
        src=Span(compose(legs.left, sq.right), sq.left),
        dst=legs,
        on_left=FinMap.identity(b),
        on_mid=sq.right,
        on_right=g,
    )
    none = FinSet("M0", ())  # over it, a square on g is a pullback only when sq is empty
    nothing = Span(FinMap(none, b, ()), FinMap(none, a0, ()))
    on_mid = FinMap(none, legs.apex, ())
    empty = polyfun.SpanMorphism(nothing, legs, FinMap.identity(b), on_mid, g)
    t.check(
        sm.right_square_is_pullback()
        and (len(sq.apex) == 0 or not empty.right_square_is_pullback()),
        "pulled-back span square is not a pullback",
    )
    y = t.put("y", rand_bundle(rng, b, max_fiber, tag="y"))
    mate = polyfun.mate_transform(sm, y)
    inverse = polyfun.invert_slice(mate) if mate.is_iso() else None
    t.check(
        compose(mate.dst.map, mate.arrow) == mate.src.map
        and inverse is not None
        and polyfun.compose_slice(inverse, mate) == SliceMorphism.identity(mate.src)
        and polyfun.compose_slice(mate, inverse) == SliceMorphism.identity(mate.dst),
        "mate along a pullback square is not invertible",
    )


def check_terminality(t: _Checker, rng: random.Random, max_obj: int, max_fiber: int) -> None:
    carrier = rand_finset(rng, "A", max_obj, min_size=1)
    adjacency = t.put("adj", rand_adjacency(rng, carrier))
    ball = t.put("R", ball_relation(adjacency, 1).base)
    p = t.put("p", rand_bundle(rng, carrier, max_fiber, tag="e"))
    eps = fibdual.generic_section_comorphism(ball.span, p)
    wrong = _moved_entry(eps)
    # The moved entry breaks a block of t0 itself, so `wrong` fails at every
    # bound; at bound 0, t0 is the one test bundle with a nonempty image.
    t.check(
        fibdual.distributivity_terminal(eps, 3)
        and not (
            wrong
            and (fibdual.distributivity_terminal(wrong, 3) or fibdual.distributivity_terminal(wrong, 0))
        ),
        "generic jet is not terminal among comorphisms over the span",
    )


def _moved_entry(c: fibdual.Comorphism) -> Optional[fibdual.Comorphism]:
    """c with the first entry of its vertical that has a rival in its fiber
    sent there, or None.  So moved, the generic jet changes a nonempty,
    non-vacuous block: never terminal."""
    v = c.vertical
    values = v.arrow.values
    for i, value in enumerate(values):
        for other in v.dst.fiber(v.dst.map(value)):
            if other != value:
                moved = FinMap(v.arrow.dom, v.arrow.cod, values[:i] + (other,) + values[i + 1 :])
                return fibdual.Comorphism(c.over, c.dst, SliceMorphism(v.src, v.dst, moved))
    return None


def _global_jet_checks(
    t: _Checker, c: fibdual.Comorphism, rel_src: Relation, rel_dst: Relation
) -> None:
    """The second derivations behind `fibdual.global_jet` on c, whose ends
    carry the endo-relations rel_src and rel_dst: the monad criterion for its
    base map, and the pointwise transports its Cartesian image stands for,
    one per point a0 and jet at f(a0), each `phi` checked against its
    tabulation and each `classify` by rebuilding the jet in J(f*(p)).
    `global_jet` itself builds neither a `PhiContext` nor J(f*(p)): it reads
    these transports, pushed along c's vertical part, off section tables;
    the tests compare the two routes."""
    morphism = _checked_preserves(t, c.over, c.over, rel_src, rel_dst)
    if morphism is None:
        return
    ctx = jets.PhiContext(morphism, c.dst.map)
    jb_src = jets.jet_bundle(rel_src, ctx.pulled)
    for a0 in c.over.dom:
        point = element(c.over.dom, a0)
        for j in jets.enumerate_jets(rel_dst, compose(c.over, point), c.dst.map):
            _checked_classify(t, jb_src, _checked_phi(t, ctx, point, j))


def check_global_functor(t: _Checker, rng: random.Random, max_obj: int, max_fiber: int) -> None:
    a4 = rand_finset(rng, "A4", max_obj, min_size=1)
    a3 = rand_finset(rng, "A3", max_obj, min_size=1)
    a2 = rand_finset(rng, "A2", max_obj, min_size=1)
    a1 = rand_finset(rng, "A1", max_obj, min_size=1)
    f3 = t.put("f3", rand_map(rng, a3, a4))
    f2 = t.put("f2", rand_map(rng, a2, a3))
    f1 = t.put("f1", rand_map(rng, a1, a2))
    adj4 = t.put("adj4", rand_adjacency(rng, a4))
    adj3 = induced_adjacency(f3, adj4)
    adj2 = induced_adjacency(f2, adj3)
    adj1 = induced_adjacency(f1, adj2)
    p4 = t.put("p4", rand_bundle(rng, a4, max_fiber, min_fiber=1, tag="e4"))
    p3 = t.put("p3", rand_bundle(rng, a3, max_fiber, min_fiber=1, tag="e3"))
    p2 = t.put("p2", rand_bundle(rng, a2, max_fiber, min_fiber=1, tag="e2"))
    p1 = t.put("p1", rand_bundle(rng, a1, max_fiber, min_fiber=1, tag="e1"))
    chain = []
    for k, (f, src, dst) in enumerate(((f1, p1, p2), (f2, p2, p3), (f3, p3, p4)), start=1):
        # Every fiber of src is nonempty, so a random vertical exists.
        vertical = t.put(f"v{k}", _random_vertical(rng, polyfun.pullback_bundle(f, dst), src))
        chain.append(fibdual.Comorphism(f, dst, vertical))
    c1, c2, c3 = chain
    left_assoc = fibdual.comorphism_compose(fibdual.comorphism_compose(c3, c2), c1)
    right_assoc = fibdual.comorphism_compose(c3, fibdual.comorphism_compose(c2, c1))
    t.check(left_assoc == right_assoc, "comorphism composition is not associative")
    # J(p_k) over the radius-1 ball of adj_k, built once each.
    jb1, jb2, jb3, jb4 = (
        jets.jet_bundle(ball_relation(adj, 1).base, p.map)
        for adj, p in ((adj1, p1), (adj2, p2), (adj3, p3), (adj4, p4))
    )
    identity = fibdual.identity_comorphism(p1)
    ends = (
        (identity, jb1, jb1),
        (right_assoc, jb1, jb4),
        (c3, jb3, jb4),
        (c2, jb2, jb3),
        (c1, jb1, jb2),
    )
    for c, jb_src, jb_dst in ends:
        _global_jet_checks(t, c, jb_src.relation, jb_dst.relation)
    moved_identity, whole, moved3, moved2, moved1 = (fibdual.global_jet(*end) for end in ends)
    t.check(
        moved_identity == fibdual.identity_comorphism(Bundle(jb1.projection)),
        "jet functor does not preserve the identity comorphism",
    )
    steps = fibdual.comorphism_compose(moved3, fibdual.comorphism_compose(moved2, moved1))
    t.check(whole == steps, "jet functor does not preserve composition")
    ident = fibdual.comorphism_compose(c1, fibdual.identity_comorphism(p1))
    t.check(ident == c1, "composition with the identity comorphism changes a comorphism")
    t.check(
        fibdual.is_cartesian(fibdual.cartesian_comorphism(f1, p2))
        and all(
            fibdual.is_cartesian(c) == reference.is_cartesian_elementwise(c)
            for c in chain
        ),
        "a bare pullback square is not recognized as Cartesian",
    )


# --------------------------------------------------------------------------
# runner


SUITES: dict[str, SuiteFn] = {
    "pullback-laws": suite_pullback_laws,
    "extensionality": suite_extensionality,
    "membership": suite_membership,
    "yoneda": suite_yoneda,
    "monad-stability": suite_monad_stability,
    "morphisms": suite_morphisms,
    "fiber-count": check_fiber_count,
    "classify": check_classify,
    "phi-laws": check_phi_laws,
    "poly-iso": check_poly_iso,
    "adjunction": check_adjunction,
    "beck-chevalley": check_beck_chevalley,
    "terminality": check_terminality,
    "global-functor": check_global_functor,
}

# The largest (object, fiber) size each suite draws: `_instance` clamps the
# bounds to these, and a suite not listed is uncapped.  Past a cap an
# instance's cost grows faster than its checks gain.  The per-instance cost
# guards that stay inline are poly-iso's `ENDO_CAP`, which does fire at the
# default bounds, and classify's two skips: `count > 64` cannot fire at
# max_obj <= 3, since a jet fiber has at most 2**3 = 8 elements once fibers
# are capped at 2, and `len(jets_here) > 16` fired on 0 of 5,042 bases at
# seed 42.
CAPS: dict[str, tuple[float, float]] = {
    "classify": (math.inf, 2),
    "phi-laws": (3, 2),
    "adjunction": (math.inf, 2),
    "beck-chevalley": (math.inf, 2),
    "terminality": (2, 2),
    "global-functor": (3, 2),
}


class SuiteReport(Frozen):
    suite: str
    seed: int
    max_obj: int
    max_fiber: int
    trials: int
    instances: int
    passed: int
    failed: int
    first_counterexample: Optional[str]

    def __init__(
        self, suite, seed, max_obj, max_fiber, trials, instances, passed, failed,
        first_counterexample,
    ):
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "max_obj", max_obj)
        object.__setattr__(self, "max_fiber", max_fiber)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "instances", instances)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "failed", failed)
        object.__setattr__(self, "first_counterexample", first_counterexample)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def render_text(self) -> str:
        line = (
            f"suite={self.suite} seed={self.seed} max-obj={self.max_obj} "
            f"max-fiber={self.max_fiber} trials={self.trials} "
            f"instances={self.instances} passed={self.passed} "
            f"failed={self.failed} result={'PASS' if self.ok else 'FAIL'}"
        )
        if self.first_counterexample is not None:
            body = "\n".join(
                "  " + ln for ln in self.first_counterexample.rstrip().splitlines()
            )
            line += "\ncounterexample:\n" + body
        return line

    def render_records(self) -> str:
        fields = [
            "suite",
            self.suite,
            str(self.seed),
            str(self.max_obj),
            str(self.max_fiber),
            str(self.trials),
            str(self.instances),
            str(self.passed),
            str(self.failed),
            "PASS" if self.ok else "FAIL",
        ]
        out = "\t".join(fields)
        if self.first_counterexample is not None:
            flat = self.first_counterexample.rstrip().replace("\n", "\\n")
            out += "\n" + "\t".join(["counterexample", self.suite, flat])
        return out


# Instances per message to a worker.  An instance of the slowest suites takes
# about 15 ms at the default bounds, so a chunk stays well under a second and
# the last chunks still spread over the workers.
CHUNK = 16

# poly-iso checks naturality on a bundle's own endomorphisms only when it has
# at most this many, so one instance's run stays bounded.
ENDO_CAP = 512


def _instance(task: tuple[str, int, int, int, int]) -> Outcome:
    """Run one seeded instance within its suite's caps; an exception is one
    failed check, not a crash."""
    name, seed, index, max_obj, max_fiber = task
    obj_cap, fiber_cap = CAPS.get(name, (math.inf, math.inf))
    bounds = min(max_obj, obj_cap), min(max_fiber, fiber_cap)
    t = _Checker()
    try:
        SUITES[name](t, rng_for(seed, name, index), *bounds)
    except Exception as exc:
        return 0, 1, f"# instance {index} of {name} raised {type(exc).__name__}: {exc}\n"
    return t.outcome()


def _workers(jobs: int) -> int:
    """`jobs`, clamped to the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(jobs, cpus)


def run_suites(
    names: list[str],
    seed: int = 42,
    max_obj: int = 3,
    max_fiber: int = 3,
    trials: int = 200,
    jobs: int = 1,
) -> list[SuiteReport]:
    """Run `trials` instances of each suite, on one pool of worker processes when
    `jobs` and the CPUs allow more than one; reports come in `names` order."""
    tasks = [(name, seed, i, max_obj, max_fiber) for name in names for i in range(trials)]
    workers = _workers(jobs)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_instance, tasks, chunksize=CHUNK))
    else:
        results = [_instance(task) for task in tasks]
    reports = []
    for k, name in enumerate(names):
        part = results[k * trials : (k + 1) * trials]
        passed = sum(r[0] for r in part)
        failed = sum(r[1] for r in part)
        first = next((r[2] for r in part if r[2] is not None), None)
        reports.append(
            SuiteReport(name, seed, max_obj, max_fiber, trials, len(part), passed, failed, first)
        )
    return reports
