import itertools

import pytest

import finjet.relations as relations_module
from hypothesis import given, settings
from hypothesis import strategies as st

from finjet.errors import ShapeMismatch
from finjet.finset import FinMap, FinSet, all_maps, compose
from finjet.kripke import change_of_stage, counterimage, sub_leq
from finjet.relations import (
    EndoRelation,
    Relation,
    RelationMorphism,
    ball_relation,
    check_preserves,
    is_reflexive,
    is_symmetric,
    monad,
    monad_at,
)
from finjet.reference import is_reflexive_elementwise, is_symmetric_elementwise, preserves_by_monads
from strategies import full_subobject

A = FinSet("A", ("a1", "a2", "a3"))
B = FinSet("B", ("b1", "b2"))
X = FinSet("X", ("x1", "x2"))

SHUFFLED = (FinSet("S", ()), FinSet("S", ("s2", "s0", "s1")))
TARGETS = (FinSet("T", ()), FinSet("T", ("t1", "t0")))


def relations_on(src, dst):
    cells = [(a, b) for a in src for b in dst]
    pair_lists = st.lists(st.sampled_from(cells), unique=True) if cells else st.just([])
    return pair_lists.map(lambda pairs: Relation.from_pairs(src, dst, pairs))


def test_monad_diagonal_is_graph_of_element():
    diag = Relation.diagonal(A)
    b = FinMap(X, A, ("a2", "a1"))
    assert monad(diag, b).pairs == (("a1", "x2"), ("a2", "x1"))


def test_monad_full_relation():
    full = full_subobject(A, B)
    b = FinMap(X, B, ("b1", "b2"))
    assert monad(full, b) == change_of_stage(
        monad(full, FinMap.identity(B)), b
    )
    assert len(monad(full, b)) == len(A) * len(X)


STAGES = (FinSet("Y", ()), FinSet("Y", ("y1",)), FinSet("Y", ("y1", "y0", "y2")))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_monad_is_the_relation_at_a_later_stage(data):
    src = data.draw(st.sampled_from(SHUFFLED))
    dst = data.draw(st.sampled_from(TARGETS))
    r = data.draw(relations_on(src, dst))
    stage = data.draw(st.sampled_from(STAGES if len(dst) else STAGES[:1]))
    b = data.draw(maps_between(stage, dst))
    assert monad(r, b) == change_of_stage(r, b)
    assert monad(r, FinMap.identity(r.stage)) == r


@given(relations_on(A, B))
@settings(max_examples=30, deadline=None)
def test_monad_stability(r):
    y = FinSet("Y", ("y1",))
    for b in all_maps(X, B):
        for alpha in all_maps(y, X):
            assert change_of_stage(monad(r, b), alpha) == monad(r, compose(b, alpha))


def test_check_preserves_identity():
    r = Relation.from_pairs(A, B, [("a1", "b1"), ("a2", "b2")])
    m = check_preserves(FinMap.identity(A), FinMap.identity(B), r, r)
    assert isinstance(m, RelationMorphism)


def test_then_composes_both_maps_and_keeps_the_outer_relations():
    """`then` builds its result without the constructor's check, so its four
    fields are pinned here, on maps that no swap or misordering would keep."""
    b0 = FinSet("B0", ("u", "v"))
    c, c0 = FinSet("C", ("c1", "c2")), FinSet("C0", ("w",))
    f, f0 = FinMap(A, B, ("b2", "b1", "b2")), FinMap(X, b0, ("v", "u"))
    g, g0 = FinMap(B, c, ("c2", "c1")), FinMap(b0, c0, ("w", "w"))
    rel_a = Relation.from_pairs(A, X, [("a1", "x1"), ("a2", "x2")])
    rel_b = Relation.from_pairs(B, b0, [(f(a), f0(x)) for a, x in rel_a.pairs])
    rel_c = Relation.from_pairs(c, c0, [(g(b), g0(y)) for b, y in rel_b.pairs])
    inner = RelationMorphism(f, f0, rel_a, rel_b)
    outer = RelationMorphism(g, g0, rel_b, rel_c)
    both = inner.then(outer)
    assert type(both) is RelationMorphism
    assert (both.f, both.f0) == (compose(g, f), compose(g0, f0))
    assert (both.rel_src, both.rel_dst) == (rel_a, rel_c)
    assert both == RelationMorphism(compose(g, f), compose(g0, f0), rel_a, rel_c)


def test_check_preserves_fails_full_to_sparse():
    full = full_subobject(A, B)
    sparse = Relation.from_pairs(A, B, [("a1", "b1")])
    assert check_preserves(FinMap.identity(A), FinMap.identity(B), full, sparse) is None


def test_check_preserves_dual_criteria_exhaustive_small():
    a = FinSet("A", ("p", "q"))
    a0 = FinSet("A0", ("u", "v"))
    cells_src = [(x, y) for x in a for y in a0]
    cells_dst = [(x, y) for x in a for y in a0]
    maps_a = list(all_maps(a, a))
    maps_a0 = list(all_maps(a0, a0))
    src_rels = [
        Relation.from_pairs(a, a0, sub)
        for n in range(len(cells_src) + 1)
        for sub in itertools.combinations(cells_src, n)
    ]
    # check_preserves evaluates only the pairwise rule; compare it with the
    # pairwise oracle and, where it holds, the monad criterion at "u", over
    # every (f, f0, source, target) combination at this size.
    for f, f0 in itertools.product(maps_a[:2], maps_a0[:2]):
        for rel_src in src_rels:
            for rel_dst in src_rels[:: max(1, len(src_rels) // 8)]:
                expected = all(
                    (f(x), f0(y)) in rel_dst.pair_set for x, y in rel_src.pairs
                )
                got = check_preserves(f, f0, rel_src, rel_dst)
                assert (got is not None) == expected
                if got is not None:
                    assert sub_leq(
                        monad_at(rel_src, "u"),
                        counterimage(f, monad_at(rel_dst, f0("u"))),
                    )


def path_adjacency():
    carrier = FinSet("P", ("a", "b", "c"))
    return carrier, Relation.from_pairs(
        carrier, carrier, [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")]
    )


def test_ball_radius_zero_is_diagonal():
    carrier, adj = path_adjacency()
    assert ball_relation(adj, 0).base == Relation.diagonal(carrier)


def test_ball_radius_beyond_diameter_is_full():
    carrier, adj = path_adjacency()
    assert ball_relation(adj, 2).base == full_subobject(carrier, carrier)
    assert ball_relation(adj, 5).base == full_subobject(carrier, carrier)


def test_ball_radius_one_on_path():
    _, adj = path_adjacency()
    assert ball_relation(adj, 1).base.pairs == (
        ("a", "a"),
        ("a", "b"),
        ("b", "a"),
        ("b", "b"),
        ("b", "c"),
        ("c", "b"),
        ("c", "c"),
    )


def test_ball_matches_bfs_oracle():
    carrier = FinSet("G", ("v0", "v1", "v2", "v3"))
    edges = [("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v3", "v0")]
    adj = Relation.from_pairs(
        carrier, carrier, edges + [(b, a) for a, b in edges]
    )
    neighbors = {v: set() for v in carrier}
    for a, b in adj.pairs:
        neighbors[a].add(b)
    for radius in range(4):
        ball = ball_relation(adj, radius)
        for a in carrier:
            for b in carrier:
                frontier = {b}
                for _ in range(radius):
                    frontier |= {n for v in frontier for n in neighbors[v]}
                assert ((a, b) in ball.base.pair_set) == (a in frontier)


def test_ball_requires_symmetry():
    asym = Relation.from_pairs(A, A, [("a1", "a2")])
    with pytest.raises(ShapeMismatch, match="^ball relations need a symmetric adjacency$"):
        ball_relation(asym, 1)


def test_reflexive_symmetric_flags():
    diag = Relation.diagonal(A)
    assert is_reflexive(diag) and is_symmetric(diag)
    empty = Relation.from_pairs(A, A, [])
    assert not is_reflexive(empty)
    assert is_symmetric(empty)


@given(relations_on(A, A))
@settings(max_examples=30, deadline=None)
def test_elementwise_criteria_agree(r):
    assert is_reflexive(r) == is_reflexive_elementwise(r)
    assert is_symmetric(r) == is_symmetric_elementwise(r)


def test_reflexivity_via_monad_membership():
    _, adj = path_adjacency()
    ball = ball_relation(adj, 1)
    carrier = ball.base.over
    for size in (1, 2):
        stage = FinSet("S", tuple(f"s{i}" for i in range(size)))
        for a0 in all_maps(stage, carrier):
            u = monad(ball.base, a0)
            assert all((a0(x), x) in u.pair_set for x in stage)


def test_endo_relation_flag_validation():
    # An endo-relation keeps only its base; its properties are read off the
    # base's pair-set.
    diag = EndoRelation(Relation.diagonal(A))
    assert is_reflexive(diag.base) and is_symmetric(diag.base)
    one_way = EndoRelation(Relation.from_pairs(A, A, [("a1", "a2")]))
    assert not is_reflexive(one_way.base) and not is_symmetric(one_way.base)
    with pytest.raises(ShapeMismatch, match="^operation requires an endo-relation$"):
        EndoRelation(full_subobject(A, B))


def test_graph_morphism_preserves_equal_radius_balls():
    big = FinSet("H", ("h0", "h1", "h2"))
    adj_big = Relation.from_pairs(big, big, [("h0", "h1"), ("h1", "h0")])
    small = FinSet("G", ("g0", "g1"))
    f = FinMap(small, big, ("h0", "h1"))
    pulled = Relation.from_pairs(
        small,
        small,
        [
            (u, v)
            for u in small
            for v in small
            if (f(u), f(v)) in adj_big.pair_set
        ],
    )
    for radius in range(3):
        ball_small = ball_relation(pulled, radius)
        ball_big = ball_relation(adj_big, radius)
        assert check_preserves(f, f, ball_small.base, ball_big.base) is not None


def test_monad_at_point():
    _, adj = path_adjacency()
    ball = ball_relation(adj, 1)
    u = monad_at(ball.base, "a")
    assert [a for a, _ in u.pairs] == ["a", "b"]


def maps_between(dom, cod):
    return st.tuples(*[st.sampled_from(cod.elements)] * len(dom)).map(
        lambda values: FinMap(dom, cod, values)
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_check_preserves_agrees_with_the_monad_criterion(data):
    f = data.draw(maps_between(A, B))
    f0 = data.draw(maps_between(X, A))
    rel_src = data.draw(relations_on(A, X))
    rel_dst = data.draw(relations_on(B, A))
    if data.draw(st.booleans()):
        # Add the image of rel_src, so that preserving pairs are drawn too.
        image = [(f(a), f0(a0)) for a, a0 in rel_src.pairs]
        rel_dst = Relation.from_pairs(B, A, list(rel_dst.pairs) + image)
    got = check_preserves(f, f0, rel_src, rel_dst)
    assert (got is not None) == preserves_by_monads(f, f0, rel_src, rel_dst)
    if got is not None:
        assert got == RelationMorphism(f, f0, rel_src, rel_dst)


def test_check_preserves_runs_without_counterimages(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("check_preserves evaluated the monad criterion")

    monkeypatch.setattr(relations_module, "counterimage", refuse, raising=False)
    r = Relation.from_pairs(A, B, [("a1", "b1"), ("a2", "b2")])
    assert check_preserves(FinMap.identity(A), FinMap.identity(B), r, r) is not None
    full = full_subobject(A, B)
    assert check_preserves(FinMap.identity(A), FinMap.identity(B), full, r) is None
