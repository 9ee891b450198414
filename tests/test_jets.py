import contextlib
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finjet.jets as jets_module
import finjet.kripke as kripke
import finjet.polyfun as polyfun_module
from finjet.cli import main
from finjet.errors import ShapeMismatch, WorkspaceError
from finjet.fibdual import cartesian_comorphism, global_jet
from finjet.finset import FinMap, FinSet, all_maps, compose, element, pair_name, pullback
from finjet.instances import (
    rand_adjacency,
    rand_ball_pair,
    rand_bundle,
    rand_finset,
    rand_map,
    rand_preserving_relations,
    rand_relation,
)
from finjet.jets import (
    PhiContext,
    SectionJet,
    classify,
    enumerate_jets,
    jet_bundle,
    jet_fiber,
    jet_on_vertical,
    map_jet,
    nth_jet,
    phi,
    polynomial_product_iso,
    restrict_jet,
)
from finjet.polyfun import Bundle, polynomial_product
from finjet.relations import (
    Relation,
    RelationMorphism,
    ball_relation,
    check_preserves,
    monad,
)
from finjet.reference import phi_tabulated, pointwise_cartesian_image
from finjet.suites import _Checker, beck_chevalley_check, cluex_law, phi_compose_law
from finjet.workspace import Workspace, serialize_workspace
from strategies import (
    complete_graph_workspace,
    constant_map,
    fixture_p3,
    fixture_p3_parts,
    full_subobject,
)

A, E, P_MAP, BALL = fixture_p3_parts()
R = BALL.base
POINT = FinSet("1", ("*",))


def point(carrier, name):
    return element(carrier, name)


def test_enumerate_jets_empty_monad_gives_one_jet():
    empty_rel = Relation.from_pairs(A, A, [])
    jets = enumerate_jets(empty_rel, point(A, "a"), P_MAP)
    assert len(jets) == 1
    assert jets[0].table == {}


def test_enumerate_jets_p3_counts():
    assert len(enumerate_jets(R, point(A, "a"), P_MAP)) == 2
    assert len(enumerate_jets(R, point(A, "b"), P_MAP)) == 4
    assert len(enumerate_jets(R, point(A, "c"), P_MAP)) == 2


def test_enumerate_jets_product_of_fibers_oracle():
    for a0 in A:
        expected = 1
        for a, b in R.pairs:
            if b == a0:
                expected *= sum(1 for e in E if P_MAP(e) == a)
        assert len(enumerate_jets(R, point(A, a0), P_MAP)) == expected


def test_jet_bundle_p3_shape():
    jb = jet_bundle(R, P_MAP)
    assert [len(jb.fiber(a0)) for a0 in A] == [2, 4, 2]
    assert len(jb.total) == 8


def test_jet_bundle_diagonal_relation_is_the_bundle():
    diag = Relation.diagonal(A)
    jb = jet_bundle(diag, P_MAP)
    assert [len(jb.fiber(a0)) for a0 in A] == [2, 1, 2]
    for t, a0, (e,) in jb.sections.entries():
        assert jb.sections.table_of(t) == {a0: e} and P_MAP(e) == a0


def test_jet_bundle_of_identity_bundle():
    jb = jet_bundle(R, FinMap.identity(A))
    assert all(len(jb.fiber(a0)) == 1 for a0 in A)


RELATIONS = {
    "ball": R,
    "diagonal": Relation.diagonal(A),
    "empty": Relation.from_pairs(A, A, []),
    "full": full_subobject(A, A),
}


def _jet_sections(rel):
    return jet_bundle(rel, P_MAP).sections, P_MAP


def _poly_sections(rel):
    dp = polynomial_product(rel.span, Bundle(P_MAP)).product
    return dp.sections, dp.input.map


@pytest.mark.parametrize(
    "rel, build",
    [(rel, _jet_sections) for rel in RELATIONS.values()]
    + [(rel, _poly_sections) for rel in RELATIONS.values()],
    ids=list(RELATIONS) + [f"{name}-poly" for name in RELATIONS],
)
def test_element_for_names_every_element_by_its_table(rel, build):
    """A table is its values at the points of its fiber, in fiber order, and
    names its section; a value moved out of its point's fiber names none."""
    sections, q = build(rel)
    for t, b, tab in sections.entries():
        points = sections.fibers[b]
        assert all(type(v) is str for v in tab)
        assert tab == tuple(sections.table_of(t)[m] for m in points)
        assert sections.element_for(b, tab) == t
        for k, m in enumerate(points):
            for e in q.dom:
                if q(e) != m:
                    with pytest.raises(KeyError):
                        sections.element_for(b, tab[:k] + (e,) + tab[k + 1 :])


def test_classify_singleton_and_empty_stage():
    jb = jet_bundle(R, P_MAP)
    for a0 in A:
        for j in enumerate_jets(R, point(A, a0), P_MAP):
            cl = classify(jb, j)
            assert jb.projection(cl("*")) == a0
            assert restrict_jet(jb.generic_jet, cl) == j
    empty = FinSet("X0", ())
    j_empty = enumerate_jets(R, FinMap(empty, A, ()), P_MAP)[0]
    assert classify(jb, j_empty).values == ()


def test_classify_roundtrip_from_known_map():
    jb = jet_bundle(R, P_MAP)
    stage = FinSet("X", ("x1", "x2"))
    for h in list(all_maps(stage, jb.total))[:10]:
        j = restrict_jet(jb.generic_jet, h)
        assert classify(jb, j) == h


def test_classify_uniqueness_by_enumeration():
    jb = jet_bundle(R, P_MAP)
    for size in (1, 2):
        stage = FinSet("X", tuple(f"x{i}" for i in range(size)))
        for base in all_maps(stage, A):
            for j in enumerate_jets(R, base, P_MAP):
                matches = [
                    m
                    for m in all_maps(stage, jb.total)
                    if restrict_jet(jb.generic_jet, m) == j
                ]
                assert matches == [classify(jb, j)]


def test_restrict_jet_matches_monad_restriction():
    jb = jet_bundle(R, P_MAP)
    stage = FinSet("X", ("x1", "x2"))
    base = FinMap(stage, A, ("a", "b"))
    y = FinSet("Y", ("y",))
    alpha = FinMap(y, stage, ("x2",))
    for j in enumerate_jets(R, base, P_MAP):
        moved = restrict_jet(j, alpha)
        assert moved.at == compose(base, alpha)
        for (a, yy), e in moved.table.items():
            assert e == j.table[(a, alpha(yy))]


def classical_morphism():
    big = FinSet("B", ("u", "v"))
    adj_big = Relation.from_pairs(big, big, [("u", "v"), ("v", "u")])
    f = FinMap(A, big, ("u", "v", "u"))
    pulled = Relation.from_pairs(
        A, A, [(x, y) for x in A for y in A if (f(x), f(y)) in adj_big.pair_set]
    )
    ball_a = ball_relation(pulled, 1)
    ball_b = ball_relation(adj_big, 1)
    morphism = check_preserves(f, f, ball_a.base, ball_b.base)
    assert morphism is not None
    e_big = FinSet("EB", ("u.0", "u.1", "v.0"))
    p_big = FinMap(e_big, big, ("u", "u", "v"))
    return morphism, p_big


def test_phi_identity_morphism_repacks_pairs():
    morphism = check_preserves(FinMap.identity(A), FinMap.identity(A), R, R)
    ctx = PhiContext(morphism, P_MAP)
    sq = ctx.square
    by_pair = dict(zip(zip(sq.left.values, sq.right.values), sq.apex.elements))
    for j in enumerate_jets(R, point(A, "b"), P_MAP):
        moved = phi(ctx, point(A, "b"), j)
        for (a, x), e in moved.table.items():
            assert e == by_pair[(a, j.table[(a, x)])]


def test_phi_empty_monad():
    morphism, p_big = classical_morphism()
    sparse = Relation.from_pairs(morphism.rel_src.over, morphism.rel_src.stage, [])
    trimmed = check_preserves(morphism.f, morphism.f0, sparse, morphism.rel_dst)
    ctx = PhiContext(trimmed, p_big)
    j = enumerate_jets(morphism.rel_dst, compose(morphism.f0, point(A, "a")), p_big)[0]
    moved = phi(ctx, point(A, "a"), j)
    assert moved.table == {}


def test_phi_counts_and_injectivity_on_fixture():
    morphism, p_big = classical_morphism()
    ctx = PhiContext(morphism, p_big)
    covered = 0
    for a0_name in A:
        a0 = point(A, a0_name)
        source = enumerate_jets(morphism.rel_dst, compose(morphism.f0, a0), p_big)
        images = {phi(ctx, a0, j).underlying.values for j in source}
        targets = enumerate_jets(morphism.rel_src, a0, ctx.pulled)
        assert images <= {j.underlying.values for j in targets}
        # Injective exactly when f covers the target monad from the source one.
        source_points = {
            a for a, b in morphism.rel_src.pairs if b == a0_name
        }
        target_points = {
            b for b, b0 in morphism.rel_dst.pairs if b0 == morphism.f0(a0_name)
        }
        if {morphism.f(a) for a in source_points} >= target_points:
            assert len(images) == len(source)
            covered += 1
    assert covered > 0


def test_phi_preservation_violation_raises():
    loose = full_subobject(A, A)
    sparse = Relation.from_pairs(A, A, [("a", "a")])
    with pytest.raises(ValueError):
        # Not a morphism at all: constructing the context must already fail.
        RelationMorphism(FinMap.identity(A), FinMap.identity(A), loose, sparse)


def assert_law_holds(law, *args):
    """Run a phi-laws law on its own checker: no failed check, at least one pass."""
    t = _Checker()
    law(t, *args)
    assert t.failed == 0 and t.passed >= 1, t.counterexample


def test_phi_compose_on_fixture_chain():
    morphism, p_big = classical_morphism()
    ident = check_preserves(
        FinMap.identity(morphism.rel_src.over),
        FinMap.identity(morphism.rel_src.stage),
        morphism.rel_src,
        morphism.rel_src,
    )
    for size in (0, 1, 2):
        stage = FinSet("X", tuple(f"x{i}" for i in range(size)))
        for a0 in list(all_maps(stage, A))[:4]:
            assert_law_holds(phi_compose_law, ident, morphism, p_big, a0)


def test_cluex_on_fixture():
    morphism, p_big = classical_morphism()
    f_total = FinSet("FT", ("u.f0", "v.f0"))
    q_map_total = FinMap(f_total, morphism.rel_dst.over, ("u", "v"))
    r_map = FinMap(f_total, p_big.dom, ("u.1", "v.0"))
    assert compose(p_big, r_map) == q_map_total
    for size in (0, 1, 2):
        stage = FinSet("X", tuple(f"x{i}" for i in range(size)))
        for a0 in list(all_maps(stage, A))[:4]:
            assert_law_holds(cluex_law, morphism, r_map, p_big, a0)


def test_cluex_identity_vertical_reduces_to_phi_equality():
    morphism, p_big = classical_morphism()
    r_map = FinMap.identity(p_big.dom)
    assert_law_holds(cluex_law, morphism, r_map, p_big, point(A, "b"))


def test_map_jet_requires_verticality():
    j = nth_jet(R, point(A, "a"), P_MAP, 0, "a")
    with pytest.raises(ShapeMismatch, match="^map does not commute over the base$"):
        map_jet(j, FinMap.identity(E), FinMap(E, A, tuple("a" for _ in E)))


def test_jet_on_vertical_identity_and_composition():
    jb = jet_bundle(R, P_MAP)
    assert jet_on_vertical(jb, jb, FinMap.identity(E)) == FinMap.identity(jb.total)
    smaller_total = FinSet("E2", ("a.0", "b.0", "c.0"))
    q_map = FinMap(smaller_total, A, ("a", "b", "c"))
    jb_small = jet_bundle(R, q_map)
    r1 = FinMap(smaller_total, E, ("a0", "b0", "c0"))
    arrow = jet_on_vertical(jb_small, jb, r1)
    assert compose(jb.projection, arrow) == jb_small.projection
    collapse = FinMap(E, smaller_total, ("a.0", "a.0", "b.0", "c.0", "c.0"))
    first = jet_on_vertical(jb, jb_small, collapse)
    composite = jet_on_vertical(jb, jb, compose(r1, collapse))
    assert composite == compose(arrow, first)


def test_jet_on_vertical_fiber_collapse_recount():
    smaller_total = FinSet("E2", ("a.0", "b.0", "c.0"))
    q_map = FinMap(smaller_total, A, ("a", "b", "c"))
    jb_small = jet_bundle(R, q_map)
    assert [len(jb_small.fiber(a0)) for a0 in A] == [1, 1, 1]


def value_at_base(j):
    """The value of a jet at its own base point, defined when the relation
    puts each base point in its own monad, as a reflexive one does."""
    return kripke.value(j.underlying, j.at, FinMap.identity(j.stage))


def test_reflexive_value_on_fixture():
    for j in enumerate_jets(R, point(A, "b"), P_MAP):
        got = value_at_base(j)
        assert P_MAP(got("*")) == "b"
        assert got("*") == j.table[("b", "*")]


def test_reflexive_value_diagonal_is_the_jet():
    diag = Relation.diagonal(A)
    for j in enumerate_jets(diag, point(A, "a"), P_MAP):
        assert value_at_base(j).values == (j.table[("a", "*")],)


def test_reflexive_value_requires_reflexivity():
    not_reflexive = Relation.from_pairs(A, A, [("a", "b"), ("b", "a")])
    with pytest.raises(ShapeMismatch, match="^element is not a member of the partial map's support$"):
        value_at_base(nth_jet(not_reflexive, point(A, "a"), P_MAP, 0, "a"))


def test_reflexive_value_empty_stage():
    empty = FinSet("X0", ())
    j = enumerate_jets(R, FinMap(empty, A, ()), P_MAP)[0]
    assert value_at_base(j).values == ()


def test_beck_chevalley_identity_and_constant():
    assert beck_chevalley_check(FinMap.identity(A), R, P_MAP, max_stage=1)
    a0 = FinSet("A0", ("z1", "z2"))
    constant = constant_map(a0, A, "b")
    assert beck_chevalley_check(constant, R, P_MAP, max_stage=1)


def test_beck_chevalley_random_shape():
    a0 = FinSet("A0", ("z1", "z2", "z3"))
    g = FinMap(a0, A, ("a", "c", "c"))
    assert beck_chevalley_check(g, R, P_MAP, max_stage=2)


def mediating_map(morphism, p):
    """The mediating transport f*(J(p)) -> J(f*(p)) of an endo-relation
    morphism with f0 = f: the vertical part of the global jet functor's
    image of the Cartesian comorphism of p along f."""
    cart = cartesian_comorphism(morphism.f, Bundle(p))
    jb_src = jet_bundle(morphism.rel_src, cart.src.map)
    return global_jet(cart, jb_src, jet_bundle(morphism.rel_dst, p)).vertical


def test_mediating_map_matches_pointwise_phi():
    morphism, p = classical_morphism()
    mediated = mediating_map(morphism, p)
    assert len(mediated.arrow.dom) > 0
    assert mediated == pointwise_cartesian_image(morphism, Bundle(p))[1].vertical


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.booleans())
def test_mediating_map_matches_pointwise_phi_on_ball_pairs(seed, stage_size, empty):
    rng = random.Random(seed)
    f, ball_a, ball_b = rand_ball_pair(rng, 3)
    rel_src = Relation.from_pairs(f.dom, f.dom, []) if empty else ball_a
    morphism = check_preserves(f, f, rel_src, ball_b)
    # Fibers of size 0 occur, so some monads meet an empty fiber.
    p = rand_bundle(rng, f.cod, 2).map
    jb_src, image = pointwise_cartesian_image(morphism, Bundle(p))
    mediated = mediating_map(morphism, p)
    assert mediated == image.vertical
    ctx, jb_dst = PhiContext(morphism, p), jet_bundle(ball_b, p)
    # At a stage of any size: transporting a generalized element of the
    # pulled-back total agrees with phi and classify on the jet it names.
    sq = pullback(f, jb_dst.projection)
    stage = FinSet("X", tuple(f"x{i}" for i in range(stage_size)))
    if stage_size and not len(sq.apex):
        return
    h = rand_map(rng, stage, sq.apex)
    jet = restrict_jet(jb_dst.generic_jet, compose(sq.right, h))
    moved = phi(ctx, compose(sq.left, h), jet)
    assert compose(mediated.arrow, h) == classify(jb_src, moved)


def test_mate_agrees_with_jet_transport_through_iso():
    from finjet.polyfun import SpanMorphism, mate_transform, pullback_vertical

    morphism, p_big = classical_morphism()
    sm = SpanMorphism(
        src=morphism.rel_src.span,
        dst=morphism.rel_dst.span,
        on_left=morphism.f,
        on_mid=FinMap(
            morphism.rel_src.span.apex,
            morphism.rel_dst.span.apex,
            tuple(pair_name(morphism.f(a), morphism.f0(a0)) for a, a0 in morphism.rel_src.pairs),
        ),
        on_right=morphism.f0,
    )
    mate = mate_transform(sm, Bundle(p_big))
    ctx = PhiContext(morphism, p_big)
    mediated = mediating_map(morphism, p_big)
    _, _, iso_dst = polynomial_product_iso(morphism.rel_dst, p_big)
    _, _, iso_src = polynomial_product_iso(morphism.rel_src, ctx.pulled)
    lifted = pullback_vertical(
        iso_dst, pullback(morphism.f0, iso_dst.src.map), pullback(morphism.f0, iso_dst.dst.map)
    )
    assert compose(mediated.arrow, lifted.arrow) == compose(
        iso_src.arrow, mate.arrow
    )


def test_polynomial_iso_on_fixture():
    poly, jb, iso = polynomial_product_iso(R, P_MAP)
    assert iso.is_iso()
    assert compose(jb.projection, iso.arrow) == poly.product.result.map
    assert [len(jb.fiber(a0)) for a0 in A] == [2, 4, 2]


def test_polynomial_iso_diagonal():
    diag = Relation.diagonal(A)
    poly, jb, iso = polynomial_product_iso(diag, P_MAP)
    assert iso.is_iso()
    assert len(poly.product.result.total) == len(E)


def fixture_transports():
    """(context, base element, jet) for every transport along the fixture
    morphisms at stages of size <= 2, the empty-relation one included."""
    classical, p_big = classical_morphism()
    identity = check_preserves(FinMap.identity(A), FinMap.identity(A), R, R)
    empty = check_preserves(
        classical.f, classical.f0, Relation.from_pairs(A, A, []), classical.rel_dst
    )
    for morphism, p in ((identity, P_MAP), (classical, p_big), (empty, p_big)):
        ctx = PhiContext(morphism, p)
        for size in (0, 1, 2):
            stage = FinSet("X", tuple(f"x{i}" for i in range(size)))
            for a0 in all_maps(stage, A):
                for j in enumerate_jets(morphism.rel_dst, compose(morphism.f0, a0), p):
                    yield ctx, a0, j


def test_phi_equals_yoneda_tabulation_on_fixture_morphisms():
    empty_monads = 0
    for ctx, a0, j in fixture_transports():
        moved = phi(ctx, a0, j)
        assert moved.underlying == phi_tabulated(ctx, a0, j)
        empty_monads += not moved.table
    assert empty_monads > 0


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.booleans())
def test_phi_equals_yoneda_tabulation_on_ball_pairs(seed, stage_size, empty):
    rng = random.Random(seed)
    f, ball_a, ball_b = rand_ball_pair(rng, 3)
    rel_src = Relation.from_pairs(f.dom, f.dom, []) if empty else ball_a
    morphism = check_preserves(f, f, rel_src, ball_b)
    p = rand_bundle(rng, f.cod, 2).map
    ctx = PhiContext(morphism, p)
    stage = FinSet("X", tuple(f"x{i}" for i in range(stage_size)))
    a0 = rand_map(rng, stage, f.dom)
    for j in enumerate_jets(ball_b, compose(f, a0), p):
        moved = phi(ctx, a0, j)
        assert moved.underlying == phi_tabulated(ctx, a0, j)
        if empty or stage_size == 0:
            assert moved.table == {}


def test_transport_is_restriction_to_the_source_monad():
    # The jet restricted along f (`kripke.precompose`) to the monad of a0 is
    # a second route to phi: each value of phi is the pullback element whose
    # legs are the point and the restricted jet's value there.
    jets_seen = 0
    for seed in range(300):
        rng = random.Random(seed)
        f, f0, rel_src, rel_dst = rand_preserving_relations(rng, 3)
        morphism = check_preserves(f, f0, rel_src, rel_dst)
        ctx = PhiContext(morphism, rand_bundle(rng, f.cod, 2).map)
        stage = FinSet("X", tuple(f"x{i}" for i in range(rng.randint(0, 2))))
        a0 = rand_map(rng, stage, f0.dom)
        support = monad(rel_src, a0)
        legs = ctx.square
        for j in enumerate_jets(rel_dst, compose(f0, a0), ctx.bundle):
            restricted = kripke.precompose(j.underlying, f).table
            moved = phi(ctx, a0, j)
            assert (moved.support, moved.bundle) == (support, ctx.pulled)
            assert {pair: (legs.left(v), legs.right(v)) for pair, v in moved.table.items()} == {
                (a, x): (a, restricted[(a, x)]) for a, x in support.pairs
            }
            jets_seen += 1
    assert jets_seen > 0


def test_transport_runs_without_the_yoneda_tabulation(monkeypatch):
    transports = list(fixture_transports())
    expected = [phi(ctx, a0, j) for ctx, a0, j in transports]
    mediated = mediating_map(*classical_morphism())

    def refuse(*args, **kwargs):
        raise RuntimeError("the library tabulated a value law")

    monkeypatch.setattr(kripke, "yoneda_construct", refuse)
    monkeypatch.setattr(jets_module, "yoneda_construct", refuse, raising=False)
    assert [phi(ctx, a0, j) for ctx, a0, j in transports] == expected
    assert mediating_map(*classical_morphism()) == mediated


RELATION_KINDS = ("ball", "full", "empty", "diagonal", "random")


def _relation(kind, rng, a):
    """A relation of the given kind from `a`; ball and diagonal are endo-relations."""
    if kind == "ball":
        return ball_relation(rand_adjacency(rng, a), 1).base
    if kind == "diagonal":
        return Relation.diagonal(a)
    a0 = rand_finset(rng, "A0", 3, min_size=1)
    if kind == "full":
        return full_subobject(a, a0)
    if kind == "empty":
        return Relation.from_pairs(a, a0, [])
    return rand_relation(rng, a, a0)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(RELATION_KINDS),
    st.integers(0, 2),
    st.integers(0, 3),
)
def test_nth_jet_is_the_enumerated_jet(seed, kind, stage_size, max_fiber):
    rng = random.Random(seed)
    a = rand_finset(rng, "A", 3, min_size=1)
    rel = _relation(kind, rng, a)
    # Fibers of size 0 occur, so some monads meet an empty fiber.
    p = rand_bundle(rng, a, max_fiber).map
    stage = FinSet("X", tuple(f"x{i}" for i in range(stage_size)))
    b = rand_map(rng, stage, rel.stage)
    enumerated = enumerate_jets(rel, b, p)
    decoded = [nth_jet(rel, b, p, i, "there") for i in range(len(enumerated))]
    assert decoded == list(enumerated)
    for j in decoded:
        assert SectionJet(j.underlying, j.bundle, j.relation, j.at) == j
    for i in (-1, len(enumerated), len(enumerated) + 3):
        with pytest.raises(WorkspaceError) as info:
            nth_jet(rel, b, p, i, "there")
        assert str(info.value) == f"index {i} out of range; {len(enumerated)} jets at there"


def test_nth_jet_empty_monad_and_empty_fiber():
    empty_rel = Relation.from_pairs(A, A, [])
    assert nth_jet(empty_rel, point(A, "a"), P_MAP, 0, "a").table == {}
    with pytest.raises(WorkspaceError, match=r"^index 1 out of range; 1 jets at a$"):
        nth_jet(empty_rel, point(A, "a"), P_MAP, 1, "a")
    no_b = FinMap(FinSet("E2", ("a0", "c0")), A, ("a", "c"))
    assert enumerate_jets(R, point(A, "a"), no_b) == ()
    with pytest.raises(WorkspaceError, match=r"^index 0 out of range; 0 jets at a$"):
        nth_jet(R, point(A, "a"), no_b, 0, "a")
    with pytest.raises(ShapeMismatch):
        nth_jet(R, point(A, "a"), FinMap.identity(E), 0, "a")


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(RELATION_KINDS), st.integers(0, 2))
def test_generic_jet_is_built_on_first_use(seed, kind, max_fiber):
    rng = random.Random(seed)
    # Empty sources and fibers of size 0 occur, so some bundles are empty.
    a = rand_finset(rng, "A", 3)
    rel = _relation(kind, rng, a)
    p = rand_bundle(rng, a, max_fiber).map
    jb = jet_bundle(rel, p)
    assert "generic_jet" not in vars(jb)
    generic_jet = jb.generic_jet
    # Rebuilt by the checked constructors, which recompute the monad and
    # read each value off its element's table.
    support = monad(rel, jb.projection)
    values = tuple(jb.sections.table_of(t)[x] for x, t in support.pairs)
    underlying = kripke.PartialMapAtStage(support, p.dom, values)
    assert generic_jet == SectionJet(underlying, p, rel, jb.projection)
    assert jb.generic_jet is generic_jet


@pytest.mark.parametrize("ws", [fixture_p3(), complete_graph_workspace(4, 2)], ids=["p3", "k4"])
def test_classify_point_matches_the_full_bundle(ws):
    """On the path fixture and on K4, the fiber's labels in position order
    are the classes of the enumerated jets and the full bundle's fiber."""
    rel, p = ws.relations["R"], ws.maps["p"]
    jb = jet_bundle(rel, p)
    for a0 in rel.stage:
        here = enumerate_jets(rel, point(rel.stage, a0), p)
        fiber = jet_fiber(rel, p, a0)
        named = list(fiber.projection.dom)
        assert named == [classify(jb, j)("*") for j in here]
        assert named == list(jb.fiber(a0))
        assert list(fiber.entries()) == [
            entry for entry in jb.sections.entries() if entry[1] == a0
        ]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(RELATION_KINDS), st.integers(0, 2), st.data())
def test_jet_i_classifies_as_label_i_of_its_fiber(tmp_path_factory, seed, kind, max_fiber, data):
    """The i-th jet at a point classifies as the i-th element of the point's
    fiber, which the classify command prints by position."""
    rng = random.Random(seed)
    a = rand_finset(rng, "A", 3, min_size=1)
    rel = _relation(kind, rng, a)
    # Fibers of size 0 occur, so some points have no jets.
    p = rand_bundle(rng, a, max_fiber).map
    jb = jet_bundle(rel, p)
    for a0 in rel.stage:
        fiber = jet_fiber(rel, p, a0)
        here = enumerate_jets(rel, point(rel.stage, a0), p)
        assert list(fiber.projection.dom) == [classify(jb, j)("*") for j in here] == list(jb.fiber(a0))
        assert list(fiber.entries()) == [
            entry for entry in jb.sections.entries() if entry[1] == a0
        ]
    a0 = data.draw(st.sampled_from(rel.stage.elements))
    count = len(jb.fiber(a0))
    i = data.draw(st.integers(0, count - 1)) if count else 0
    path = tmp_path_factory.mktemp("classify") / "ws.ws"
    path.write_text(serialize_workspace(Workspace(relations={"R": rel}, bundles={"p": Bundle(p)})))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["-w", str(path), "--format", "records", "classify", "--relation", "R",
                     "--bundle", "p", "--point", a0, "--index", str(i)], out=out)
    if count:
        assert (code, out.getvalue(), err.getvalue()) == (0, f"classified\t{i}\t{jb.fiber(a0)[i]}\n", "")
    else:
        assert (code, out.getvalue(), err.getvalue()) == (
            2, "", f"error: index 0 out of range; 0 jets at {a0}\n"
        )


def test_label_collision_inside_one_fiber_still_raises(monkeypatch):
    monkeypatch.setattr(polyfun_module, "table_label", lambda anchor, entries: f"({anchor}|0000000000)")
    with pytest.raises(ValueError, match="duplicate elements"):
        jet_fiber(R, P_MAP, "b")
    with pytest.raises(ValueError, match="duplicate elements"):
        jet_bundle(R, P_MAP)
    # One jet per point: the labels differ across fibers, so nothing collides.
    empty_rel = Relation.from_pairs(A, A, [])
    assert [jet_fiber(empty_rel, P_MAP, a0).projection.dom.elements[0] for a0 in A] == [
        "(a|0000000000)", "(b|0000000000)", "(c|0000000000)"
    ]
