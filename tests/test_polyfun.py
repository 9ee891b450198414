import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finjet.errors import ShapeMismatch
from finjet.finset import FinMap, FinSet, Span, all_maps, compose, pullback
from finjet.instances import rand_bundle, rand_finset, rand_map, trim_bundle
from finjet.polyfun import (
    AdjunctionBijection,
    Bundle,
    SliceMorphism,
    SpanMorphism,
    adjunction_bijection,
    compose_slice,
    dependent_product,
    dependent_product_map,
    invert_slice,
    mate_transform,
    polynomial_map,
    polynomial_product,
    pullback_bundle,
    pullback_vertical,
    relabel_identity,
    section_tables,
    slice_homs,
)
from finjet.reference import (
    flatten_pullback,
    nest_pullback,
    push_along_by_lookup,
    section_tables_by_zip,
)
from strategies import constant_map, fixture_p3_parts

A, E, P_MAP, BALL = fixture_p3_parts()
P = Bundle(P_MAP)
B = FinSet("B", ("u", "v"))
M = FinSet("M", ("m1", "m2", "m3"))


def small_bundle(base, sizes, tag="w"):
    elements = []
    values = []
    for a, n in zip(base.elements, sizes):
        for i in range(n):
            elements.append(f"{a}.{tag}{i}")
            values.append(a)
    total = FinSet(f"{base.name}{tag}", tuple(elements))
    return Bundle(FinMap(total, base, tuple(values)))


def test_slice_morphism_requires_verticality():
    q = small_bundle(A, (1, 1, 1))
    with pytest.raises(ShapeMismatch, match="^arrow does not commute over the base$"):
        SliceMorphism(
            q, P, FinMap(q.total, P.total, ("b0", "b0", "b0"))
        )


def test_pullback_bundle_counting():
    a2 = FinSet("A2", ("p", "q", "r"))
    for f in list(all_maps(a2, A))[:8]:
        pulled = pullback_bundle(f, P)
        assert len(pulled.total) == sum(len(P.fiber(f(x))) for x in a2)


def test_pullback_bundle_empty():
    none = Bundle(FinMap(FinSet("N", ()), A, ()))
    pulled = pullback_bundle(FinMap.identity(A), none)
    assert len(pulled.total) == 0


def test_relabel_identity_is_iso():
    relabel = relabel_identity(P)
    assert relabel.is_iso()
    assert compose(P.map, relabel.arrow) == relabel.src.map


def test_flatten_nest_mutually_inverse():
    a2 = FinSet("A2", ("p", "q"))
    a3 = FinSet("A3", ("r", "s"))
    outer = FinMap(a2, A, ("a", "c"))
    inner = FinMap(a3, a2, ("p", "p"))
    flat = flatten_pullback(outer, inner, P)
    nest = nest_pullback(outer, inner, P)
    assert compose(flat.arrow, nest.arrow) == FinMap.identity(nest.src.total)
    assert compose(nest.arrow, flat.arrow) == FinMap.identity(flat.src.total)


def test_dependent_product_identity_map():
    q = small_bundle(M, (2, 1, 1))
    dp = dependent_product(FinMap.identity(M), q)
    assert len(dp.result.total) == len(q.total)
    for el, b, tab in dp.sections.entries():
        assert dp.sections.table_of(el) == {b: tab[0]} and len(tab) == 1


def test_dependent_product_empty_fiber_of_map():
    d = FinMap(M, B, ("u", "u", "u"))
    q = small_bundle(M, (1, 1, 1))
    dp = dependent_product(d, q)
    # v has an empty preimage: exactly one (empty) section there.
    assert sum(1 for el in dp.result.total if dp.result.map(el) == "v") == 1


def test_dependent_product_fiber_product_law():
    d = FinMap(M, B, ("u", "v", "u"))
    for sizes in itertools.product(range(3), repeat=3):
        q = small_bundle(M, sizes)
        dp = dependent_product(d, q)
        for b in B:
            expected = 1
            for m in M:
                if d(m) == b:
                    expected *= len(q.fiber(m))
            assert sum(1 for el in dp.result.total if dp.result.map(el) == b) == expected


def test_dependent_product_counit_evaluates():
    d = FinMap(M, B, ("u", "v", "u"))
    q = small_bundle(M, (2, 1, 1))
    dp = dependent_product(d, q)
    sq = pullback(d, dp.result.map)
    for x in sq.apex:
        m = sq.left(x)
        el = sq.right(x)
        assert dp.counit.arrow(x) == dp.sections.table_of(el)[m]


def _checked_counit(dp):
    """The counit d*(result) -> input of dp, rebuilt by the checked
    constructors from the canonical pullback and the section tables."""
    sq = pullback(dp.along, dp.result.map)
    values = tuple(dp.sections.table_of(sq.right(x))[sq.left(x)] for x in sq.apex)
    return SliceMorphism(Bundle(sq.left), dp.input, FinMap(sq.apex, dp.input.total, values))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.booleans())
def test_counit_is_built_on_first_use(seed, max_fiber, polynomial):
    rng = random.Random(seed)
    # Empty bases and fibers of size 0 occur, so some products are empty.
    b = rand_finset(rng, "B", 3)
    m = rand_finset(rng, "M", 3 if len(b) else 0)
    d = rand_map(rng, m, b)
    if polynomial:
        a = rand_finset(rng, "A", 3, min_size=1)
        dp = polynomial_product(Span(rand_map(rng, m, a), d), rand_bundle(rng, a, max_fiber)).product
    else:
        dp = dependent_product(d, rand_bundle(rng, m, max_fiber))
    assert "counit" not in vars(dp) and "square" not in vars(dp)
    built = []
    with mock.patch("finjet.polyfun.pullback", lambda *args: built.append(args) or pullback(*args)):
        counit = dp.counit
        square = dp.square
    assert built == [(dp.along, dp.result.map)]
    assert square == pullback(dp.along, dp.result.map)
    assert counit.src == Bundle(square.left)
    assert counit == _checked_counit(dp)
    assert dp.counit is counit and dp.square is square


def test_dependent_product_functorial():
    d = FinMap(M, B, ("u", "v", "u"))
    q1 = small_bundle(M, (2, 1, 1), tag="x")
    q2 = small_bundle(M, (2, 2, 1), tag="y")
    dp1, dp2 = dependent_product(d, q1), dependent_product(d, q2)
    ident = dependent_product_map(SliceMorphism.identity(q1), dp1, dp1)
    assert ident.arrow == FinMap.identity(ident.src.total)
    homs12 = list(slice_homs(q1, q2))
    homs21 = list(slice_homs(q2, q1))
    for v in homs12[:4]:
        for w in homs21[:4]:
            lhs = dependent_product_map(compose_slice(w, v), dp1, dp1)
            rhs = compose_slice(
                dependent_product_map(w, dp2, dp1), dependent_product_map(v, dp1, dp2)
            )
            assert lhs == rhs


def test_dependent_product_map_rejects_foreign_products():
    d = FinMap(M, B, ("u", "v", "u"))
    q1 = small_bundle(M, (2, 1, 1), tag="x")
    q2 = small_bundle(M, (2, 2, 1), tag="y")
    v = next(slice_homs(q1, q2))
    dp1, dp2 = dependent_product(d, q1), dependent_product(d, q2)
    other = FinMap(M, B, ("v", "u", "u"))
    for dp_src, dp_dst in ((dp2, dp2), (dp1, dp1), (dependent_product(other, q1), dp2)):
        with pytest.raises(ShapeMismatch, match="products are not the products"):
            dependent_product_map(v, dp_src, dp_dst)


def test_adjunction_bijection_roundtrips_and_counts():
    d = FinMap(M, B, ("u", "v", "u"))
    for y_sizes in itertools.product(range(2), repeat=2):
        for q_sizes in itertools.product(range(2), repeat=3):
            y = small_bundle(B, y_sizes, tag="y")
            q = small_bundle(M, q_sizes, tag="q")
            bij = adjunction_bijection(d, y, q)
            lower = list(slice_homs(bij.pulled_left, q))
            upper = list(slice_homs(y, bij.product.result))
            assert len(lower) == len(upper)
            for hom in lower:
                assert bij.to_total(bij.to_base(hom)) == hom
            for hom in upper:
                assert bij.to_base(bij.to_total(hom)) == hom


def test_adjunction_terminal_left_gives_sections():
    d = FinMap(M, B, ("u", "v", "u"))
    q = small_bundle(M, (1, 2, 1), tag="q")
    y = Bundle(FinMap.identity(B))
    bij = adjunction_bijection(d, y, q)
    upper = list(slice_homs(y, bij.product.result))
    lower = list(slice_homs(bij.pulled_left, q))
    assert len(upper) == len(lower) == 1 * 2 * 1


def test_slice_homs_from_an_empty_total_and_across_an_empty_fiber():
    empty = small_bundle(A, (0, 0, 0), tag="z")
    assert list(slice_homs(empty, P)) == [SliceMorphism(empty, P, FinMap(empty.total, P.total, ()))]
    gap = small_bundle(A, (1, 0, 1), tag="g")
    assert list(slice_homs(small_bundle(A, (0, 1, 0)), gap)) == []


def test_adjunction_empty_hom_sets():
    d = FinMap(M, B, ("u", "v", "u"))
    q = small_bundle(M, (0, 1, 1), tag="q")
    y = small_bundle(B, (1, 0), tag="y")
    bij = adjunction_bijection(d, y, q)
    assert list(slice_homs(bij.pulled_left, q)) == []
    assert list(slice_homs(y, bij.product.result)) == []


def test_triangle_identities():
    d = FinMap(M, B, ("u", "v", "u"))
    y = small_bundle(B, (2, 1), tag="y")
    q = small_bundle(M, (1, 2, 1), tag="q")
    # Each unit is the transpose of the identity on a pulled-back bundle.
    sq_y = pullback(d, y.map)
    pulled = Bundle(sq_y.left)
    ident = SliceMorphism.identity(pulled)
    dp_pulled = dependent_product(d, pulled)
    unit = AdjunctionBijection(y, dp_pulled, sq_y).to_base(ident)
    tri1 = compose_slice(dp_pulled.counit, pullback_vertical(unit, sq_y, dp_pulled.square))
    assert tri1 == ident
    dp = dependent_product(d, q)
    dp_unit = dependent_product(d, dp.counit.src)
    unit_at = AdjunctionBijection(dp.result, dp_unit, dp.square).to_base(
        SliceMorphism.identity(dp.counit.src)
    )
    tri2 = compose_slice(dependent_product_map(dp.counit, dp_unit, dp), unit_at)
    assert tri2 == SliceMorphism.identity(dp.result)
    # A product of anything but d*(y) has no unit at y.
    with pytest.raises(ShapeMismatch, match=r"morphism is not d\*\(y\) -> q"):
        AdjunctionBijection(y, dependent_product(d, Bundle(FinMap.identity(M))), sq_y).to_base(ident)


def test_polynomial_jet_diagonal_span():
    legs = BALL.base.span
    poly = polynomial_product(legs, P).product.result
    assert [sum(1 for el in poly.total if poly.map(el) == a0) for a0 in A] == [2, 4, 2]
    ident_span_left = FinMap.identity(A)
    poly_id = polynomial_product(Span(ident_span_left, ident_span_left), P).product.result
    assert len(poly_id.total) == len(E)


def test_polynomial_jet_accepts_non_monic_span():
    doubled = FinSet("M2", ("m1", "m2"))
    left = constant_map(doubled, A, "a")
    right = constant_map(doubled, A, "a")
    poly = polynomial_product(Span(left, right), P).product.result
    # Two span points over the same pair: sections choose a fiber point twice.
    assert sum(1 for el in poly.total if poly.map(el) == "a") == 4


def test_polynomial_jet_identity_bundle():
    legs = BALL.base.span
    poly = polynomial_product(legs, Bundle(FinMap.identity(A))).product.result
    assert all(
        sum(1 for el in poly.total if poly.map(el) == a0) == 1 for a0 in A
    )


def span_morphism_pullback_case():
    legs = BALL.base.span
    a0 = FinSet("A0", ("z1", "z2"))
    g = FinMap(a0, A, ("a", "c"))
    sq = pullback(g, legs.right)
    return SpanMorphism(
        src=Span(compose(legs.left, sq.right), sq.left),
        dst=legs,
        on_left=FinMap.identity(A),
        on_mid=sq.right,
        on_right=g,
    )


def test_mate_identity_span_morphism():
    legs = BALL.base.span
    sm = SpanMorphism(
        src=legs,
        dst=legs,
        on_left=FinMap.identity(A),
        on_mid=FinMap.identity(legs.apex),
        on_right=FinMap.identity(A),
    )
    mate = mate_transform(sm, P)
    assert mate.is_iso()


def test_mate_invertible_when_right_square_is_pullback():
    sm = span_morphism_pullback_case()
    assert sm.right_square_is_pullback()
    mate = mate_transform(sm, P)
    assert mate.is_iso()
    inverse = invert_slice(mate)
    assert compose(inverse.arrow, mate.arrow) == FinMap.identity(mate.src.total)


def test_mate_non_invertible_when_square_collapses():
    legs = BALL.base.span
    one = FinSet("One", ("*",))
    sm = SpanMorphism(
        src=legs,
        dst=Span(legs.left, constant_map(legs.apex, one, "*")),
        on_left=FinMap.identity(A),
        on_mid=FinMap.identity(legs.apex),
        on_right=constant_map(A, one, "*"),
    )
    assert not sm.right_square_is_pullback()
    mate = mate_transform(sm, P)
    assert not mate.is_iso()


def test_span_morphism_rejects_non_commuting():
    legs = BALL.base.span
    with pytest.raises(ShapeMismatch, match="^left square does not commute$"):
        SpanMorphism(
            src=legs,
            dst=legs,
            on_left=FinMap.identity(A),
            on_mid=constant_map(legs.apex, legs.apex, legs.apex.elements[0]),
            on_right=FinMap.identity(A),
        )


def test_polynomial_map_respects_composition():
    legs = BALL.base.span
    q1 = small_bundle(A, (1, 1, 1), tag="x")
    homs = list(slice_homs(q1, P))
    dp_src = polynomial_product(legs, q1)
    dp_dst = polynomial_product(legs, P)
    for v in homs[:3]:
        moved = polynomial_map(v, dp_src, dp_dst)
        assert compose(dp_dst.product.result.map, moved.arrow) == dp_src.product.result.map


def _random_family(seed, max_fiber):
    """A map d: M -> B and a bundle q over M from seed.  Empty B and M,
    points of B with no preimage and empty fibers of q all occur."""
    rng = random.Random(seed)
    b = rand_finset(rng, "B", 3)
    m = rand_finset(rng, "M", 3 if len(b) else 0)
    return rng, rand_map(rng, m, b), rand_bundle(rng, m, max_fiber)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_section_tables_match_the_zip_route(seed, max_fiber):
    _, d, q = _random_family(seed, max_fiber)
    fast = section_tables("S", d.cod, d.fibers, q.map)
    projection, tables = section_tables_by_zip("S", d.cod, d.fibers, q.map)
    assert "tables" not in vars(fast)
    assert fast.projection == projection
    assert fast.tables == tables


def _vertical_pairs(q):
    """The bundle q and its trimmed companion, in every order with a vertical
    map, each with the first few slice morphisms between them."""
    companion = trim_bundle(q)
    for src, dst in ((q, companion), (companion, q), (q, q)):
        yield src, dst, list(itertools.islice(slice_homs(src, dst), 6))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_push_along_matches_the_element_for_route(seed, max_fiber):
    _, d, q = _random_family(seed, max_fiber)
    for src, dst, homs in _vertical_pairs(q):
        dp_src, dp_dst = dependent_product(d, src), dependent_product(d, dst)
        for v in homs:
            assert dp_src.sections.push_along(v.arrow, dp_dst.sections) == push_along_by_lookup(
                dp_src.sections, v.arrow, dp_dst.sections
            )


def test_push_along_rejects_tables_over_other_fibers():
    q = small_bundle(M, (2, 1, 1))
    dp = dependent_product(FinMap(M, B, ("u", "v", "u")), q)
    other = dependent_product(FinMap(M, B, ("v", "u", "u")), q)
    with pytest.raises(ShapeMismatch, match="different fibers"):
        dp.sections.push_along(FinMap.identity(q.total), other.sections)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_polynomial_map_matches_the_pullback_route(seed, max_fiber):
    rng, d, _ = _random_family(seed, 0)
    a = rand_finset(rng, "A", 3, min_size=1)
    c = rand_map(rng, d.dom, a)
    span = Span(c, d)
    p = rand_bundle(rng, a, max_fiber)
    for src, dst, homs in _vertical_pairs(p):
        dp_src, dp_dst = polynomial_product(span, src), polynomial_product(span, dst)
        for poly, q in ((dp_src, src), (dp_dst, dst)):
            assert poly.square == pullback(c, q.map)
            assert poly.product == dependent_product(d, pullback_bundle(c, q))
        for v in homs:
            # c*(v) on squares built here, not the ones the products hold.
            lifted = pullback_vertical(v, pullback(c, src.map), pullback(c, dst.map))
            assert polynomial_map(v, dp_src, dp_dst) == dependent_product_map(
                lifted, dp_src.product, dp_dst.product
            )


def test_polynomial_map_builds_no_square(monkeypatch):
    legs = BALL.base.span
    q1 = small_bundle(A, (1, 1, 1), tag="x")
    dp_src = polynomial_product(legs, q1)
    dp_dst = polynomial_product(legs, P)
    homs = list(itertools.islice(slice_homs(q1, P), 4))
    expected = [polynomial_map(v, dp_src, dp_dst) for v in homs]

    def no_pullback(*args):
        raise AssertionError("polynomial_map rebuilt a canonical square")

    monkeypatch.setattr("finjet.polyfun.pullback", no_pullback)
    assert [polynomial_map(v, dp_src, dp_dst) for v in homs] == expected


def test_polynomial_map_rejects_foreign_products():
    legs = BALL.base.span
    q1 = small_bundle(A, (1, 1, 1), tag="x")
    v = next(slice_homs(q1, P))
    dp_src = polynomial_product(legs, q1)
    dp_dst = polynomial_product(legs, P)
    swapped_src = polynomial_product(Span(legs.right, legs.left), q1)
    swapped_dst = polynomial_product(Span(legs.right, legs.left), P)
    for src, dst in ((dp_dst, dp_dst), (dp_src, dp_src), (swapped_src, dp_dst), (dp_src, swapped_dst)):
        with pytest.raises(ShapeMismatch, match="products are not the polynomial products"):
            polynomial_map(v, src, dst)
