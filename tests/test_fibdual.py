import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finjet.errors import ShapeMismatch
from finjet.fibdual import (
    Comorphism,
    cartesian_comorphism,
    comorphism_compose,
    distributivity_terminal,
    generic_section_comorphism,
    global_jet,
    identity_comorphism,
    is_cartesian,
)
from finjet.finset import FinMap, FinSet, Span, compose, pullback
from finjet.instances import (
    rand_adjacency,
    rand_ball_pair,
    rand_bundle,
    rand_finset,
    rand_map,
    rand_relation,
)
from finjet.jets import jet_bundle, jet_on_vertical
from finjet.polyfun import (
    Bundle,
    SliceMorphism,
    compose_slice,
    dependent_product,
    pullback_bundle,
    pullback_vertical,
    relabel_identity,
    slice_homs,
)
from finjet.reference import (
    distributivity_terminal_brute,
    nest_pullback,
    pointwise_cartesian_image,
    vertical_comorphism,
)
from finjet.relations import Relation, ball_relation, check_preserves
from finjet.suites import _random_vertical
from strategies import constant_map, fixture_p3_parts, full_subobject

A, E, P_MAP, BALL = fixture_p3_parts()
P = Bundle(P_MAP)


def two_point_setup():
    b = FinSet("B", ("u", "v"))
    adj_b = Relation.from_pairs(b, b, [("u", "v"), ("v", "u")])
    ball_b = ball_relation(adj_b, 1)
    f = FinMap(A, b, ("u", "v", "u"))
    adj_a = Relation.from_pairs(
        A, A, [(x, y) for x in A for y in A if x != y and (f(x), f(y)) in adj_b.pair_set]
    )
    ball_a = ball_relation(adj_a, 1)
    eb = FinSet("EB", ("u.0", "u.1", "v.0"))
    p_b = Bundle(FinMap(eb, b, ("u", "u", "v")))
    return f, ball_a, ball_b, p_b


def test_identity_comorphism_is_cartesian():
    assert is_cartesian(identity_comorphism(P))
    assert is_cartesian(cartesian_comorphism(FinMap.identity(A), P))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(0, 3))
def test_trusted_comorphisms_match_the_checked_constructor(seed, n_base, n_dom):
    rng = random.Random(seed)
    n_dom = n_dom if n_base else 0
    base = rand_finset(rng, "A", n_base, min_size=n_base)
    dom = rand_finset(rng, "A1", n_dom, min_size=n_dom)
    f = rand_map(rng, dom, base)
    p = rand_bundle(rng, base, 2)
    assert identity_comorphism(p) == Comorphism(FinMap.identity(base), p, relabel_identity(p))
    pulled = pullback_bundle(f, p)
    assert cartesian_comorphism(f, p) == Comorphism(f, p, SliceMorphism.identity(pulled))


def test_vertical_comorphism_not_cartesian_when_collapsing():
    smaller = FinSet("E2", ("a.0", "b.0", "c.0"))
    q = Bundle(FinMap(smaller, A, ("a", "b", "c")))
    collapse = SliceMorphism(P, q, FinMap(E, smaller, ("a.0", "a.0", "b.0", "c.0", "c.0")))
    com = vertical_comorphism(collapse)
    assert com.src == q and com.dst == P
    assert not is_cartesian(com)


def test_compose_with_identity_is_identity():
    f, ball_a, ball_b, p_b = two_point_setup()
    c = cartesian_comorphism(f, p_b)
    assert comorphism_compose(c, identity_comorphism(c.src)) == c
    assert comorphism_compose(identity_comorphism(c.dst), c) == c


def test_cartesian_comorphisms_compose_to_cartesian():
    f, ball_a, ball_b, p_b = two_point_setup()
    c2 = cartesian_comorphism(f, p_b)
    g = FinMap(FinSet("Z", ("z1", "z2")), A, ("a", "b"))
    c1 = cartesian_comorphism(g, c2.src)
    composite = comorphism_compose(c2, c1)
    assert is_cartesian(composite)
    assert composite.over == compose(f, g)


def test_compose_rejects_mismatched_chain():
    f, ball_a, ball_b, p_b = two_point_setup()
    c = cartesian_comorphism(f, p_b)
    with pytest.raises(ShapeMismatch, match="^comorphisms do not chain end to end$"):
        comorphism_compose(c, c)


def test_fiber_of_dual_is_opposite_composition():
    smaller = FinSet("E2", ("a.0", "b.0", "c.0"))
    q = Bundle(FinMap(smaller, A, ("a", "b", "c")))
    v1 = SliceMorphism(P, q, FinMap(E, smaller, ("a.0", "a.0", "b.0", "c.0", "c.0")))
    back = list(slice_homs(q, P))[0]
    left = comorphism_compose(vertical_comorphism(back), vertical_comorphism(v1))
    both = vertical_comorphism(compose_slice_reversed(v1, back))
    assert left == both


def compose_slice_reversed(v1, back):
    # Composition in the fiber of the dual is reversed composition of slices.
    from finjet.polyfun import compose_slice

    return compose_slice(v1, back)


def test_global_jet_identity_law():
    jb = jet_bundle(BALL.base, P_MAP)
    assert global_jet(identity_comorphism(P), jb, jb) == identity_comorphism(
        Bundle(jb.projection)
    )


def test_global_jet_vertical_agrees_with_fiber_functor():
    smaller = FinSet("E2", ("a.0", "b.0", "c.0"))
    q = Bundle(FinMap(smaller, A, ("a", "b", "c")))
    v = SliceMorphism(P, q, FinMap(E, smaller, ("a.0", "a.0", "b.0", "c.0", "c.0")))
    jb_p = jet_bundle(BALL.base, P_MAP)
    jb_q = jet_bundle(BALL.base, q.map)
    moved = global_jet(vertical_comorphism(v), jb_q, jb_p)
    expected_arrow = jet_on_vertical(jb_p, jb_q, v.arrow)
    expected = vertical_comorphism(
        SliceMorphism(Bundle(jb_p.projection), Bundle(jb_q.projection), expected_arrow)
    )
    assert moved == expected


def test_global_jet_requires_preservation():
    f, ball_a, ball_b, p_b = two_point_setup()
    cart = cartesian_comorphism(f, p_b)
    jb_src = jet_bundle(full_subobject(A, A), cart.src.map)
    jb_dst = jet_bundle(Relation.diagonal(f.cod), p_b.map)
    with pytest.raises(ShapeMismatch, match="^base map does not preserve the endo-relations$"):
        global_jet(cart, jb_src, jb_dst)


def test_global_jet_functor_law_on_mixed_chain():
    f, ball_a, ball_b, p_b = two_point_setup()
    cart = cartesian_comorphism(f, p_b)
    smaller = FinSet("E3", ("a.x", "b.x", "c.x"))
    q = Bundle(FinMap(smaller, A, ("a", "b", "c")))
    verticals = list(slice_homs(pullback_bundle(FinMap.identity(A), cart.src), q))
    com_vert = Comorphism(FinMap.identity(A), cart.src, verticals[0])
    whole = comorphism_compose(cart, com_vert)
    jb_q = jet_bundle(ball_a.base, q.map)
    jb_pulled = jet_bundle(ball_a.base, cart.src.map)
    jb_b = jet_bundle(ball_b.base, p_b.map)
    lhs = global_jet(whole, jb_q, jb_b)
    rhs = comorphism_compose(global_jet(cart, jb_pulled, jb_b), global_jet(com_vert, jb_q, jb_pulled))
    assert lhs == rhs


def random_comorphism(rng, f, p, tag):
    """A comorphism into p along f with a random source bundle and vertical
    part; the source has an empty fiber only where f*(p) has one."""
    pulled = pullback_bundle(f, p)
    elements, values = [], []
    for a in f.dom:
        for i in range(rng.randint(1 if pulled.fiber(a) else 0, 2)):
            elements.append(f"{a}.{tag}{i}")
            values.append(a)
    src = Bundle(FinMap(FinSet(f"E{tag}", tuple(elements)), f.dom, tuple(values)))
    return Comorphism(f, p, _random_vertical(rng, pulled, src))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_comorphism_compose_matches_the_reassociation_route(seed, n2, n1, n0):
    rng = random.Random(seed)
    # Objects may be empty, and so may the fibers of every bundle; a map into
    # an empty object needs an empty domain.
    n1 = n1 if n2 else 0
    n0 = n0 if n1 else 0
    a2, a1, a0 = (rand_finset(rng, name, n, min_size=n) for name, n in (("A2", n2), ("A1", n1), ("A0", n0)))
    g, f = rand_map(rng, a1, a2), rand_map(rng, a0, a1)
    c2 = random_comorphism(rng, g, rand_bundle(rng, a2, 2), "x")
    c1 = random_comorphism(rng, f, c2.src, "y")
    v = c2.vertical
    lifted = pullback_vertical(v, pullback(c1.over, v.src.map), pullback(c1.over, v.dst.map))
    route = compose_slice(
        c1.vertical, compose_slice(lifted, nest_pullback(c2.over, c1.over, c2.dst))
    )
    assert comorphism_compose(c2, c1) == Comorphism(compose(g, f), c2.dst, route)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_global_jet_is_the_cartesian_image_then_the_fiber_functor(seed, empty):
    rng = random.Random(seed)
    f, ball_a, ball_b = rand_ball_pair(rng, 3)
    rel_src = Relation.from_pairs(f.dom, f.dom, []) if empty else ball_a
    morphism = check_preserves(f, f, rel_src, ball_b)
    # Fibers of size 0 occur, so some monads meet an empty fiber.
    c = random_comorphism(rng, f, rand_bundle(rng, f.cod, 2), "s")
    jb_pulled, cartesian_image = pointwise_cartesian_image(morphism, c.dst)
    jb_src = jet_bundle(rel_src, c.src.map)
    moved = jet_on_vertical(jb_pulled, jb_src, c.vertical.arrow)
    vertical_image = vertical_comorphism(
        SliceMorphism(Bundle(jb_pulled.projection), Bundle(jb_src.projection), moved)
    )
    expected = comorphism_compose(cartesian_image, vertical_image)
    assert global_jet(c, jb_src, jet_bundle(ball_b, c.dst.map)) == expected


def test_distributivity_terminal_diagonal_trivial():
    diag = Relation.diagonal(A)
    assert distributivity_terminal(generic_section_comorphism(diag.span, Bundle(FinMap.identity(A))), max_total=2)


def test_distributivity_terminal_p3_small_bound():
    assert distributivity_terminal(generic_section_comorphism(BALL.base.span, P), max_total=2)


def test_generic_section_comorphism_is_checked_shape():
    """The builder's unchecked comorphism is the one the checked constructor
    accepts: over d, from c*(p) to J(p)."""
    span = BALL.base.span
    eps = generic_section_comorphism(span, P)
    assert eps == Comorphism(eps.over, eps.dst, eps.vertical)
    assert eps.over == span.right
    assert eps.src == pullback_bundle(span.left, P)
    assert eps.dst == Bundle(jet_bundle(BALL.base, P_MAP).projection)
    v = eps.vertical
    assert v == SliceMorphism(v.src, v.dst, FinMap(v.arrow.dom, v.arrow.cod, v.arrow.values))


def test_distributivity_rejects_perturbed_generic_jet():
    mutants = single_entry_mutations(generic_section_comorphism(BALL.base.span, P))
    assert mutants and not any(distributivity_terminal(c, max_total=2) for c in mutants)


def test_distributivity_requires_jointly_monic_span():
    two = FinSet("M", ("m1", "m2"))
    left = constant_map(two, A, "a")
    right = constant_map(two, A, "a")
    with pytest.raises(ShapeMismatch, match="^span does not represent a subobject$"):
        generic_section_comorphism(Span(left, right), P)


def single_entry_mutations(c):
    """Every comorphism that differs from c only in its vertical, at exactly
    one element."""
    epsilon = c.vertical
    values = epsilon.arrow.values
    out = []
    for i, value in enumerate(values):
        for other in epsilon.dst.fiber(epsilon.dst.map(value)):
            if other != value:
                moved = values[:i] + (other,) + values[i + 1 :]
                arrow = FinMap(epsilon.arrow.dom, epsilon.arrow.cod, moved)
                out.append(Comorphism(c.over, c.dst, SliceMorphism(epsilon.src, epsilon.dst, arrow)))
    return out


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.integers(0, 3),
    st.none() | st.integers(0, 2**16),
)
def test_distributivity_terminal_matches_the_enumeration(seed, ball, max_total, mutation):
    rng = random.Random(seed)
    # Zero points give an empty base; fibers of size 0 occur.  Ball relations
    # are reflexive; an arbitrary relation also leaves points with no span
    # point over them.
    carrier = rand_finset(rng, "A", 2)
    if ball:
        relation = ball_relation(rand_adjacency(rng, carrier), rng.randint(0, 1)).base
    else:
        relation = rand_relation(rng, carrier, carrier)
    p = rand_bundle(rng, carrier, 2)
    eps = generic_section_comorphism(relation.span, p)
    mutants = single_entry_mutations(eps)
    # No mutation, or none possible, checks the true generic section jet.
    c = mutants[mutation % len(mutants)] if mutants and mutation is not None else eps
    assert distributivity_terminal(c, max_total) == distributivity_terminal_brute(c, max_total)


def test_distributivity_terminal_over_an_empty_base():
    """Over an empty base only the empty bundle is tested, and it passes."""
    empty = FinSet("A", ())
    eps = generic_section_comorphism(Relation(empty, empty, ()).span, Bundle(FinMap(FinSet("E", ()), empty, ())))
    for max_total in range(3):
        assert distributivity_terminal(eps, max_total) is distributivity_terminal_brute(eps, max_total) is True


def test_distributivity_terminal_tells_bound_zero_from_bound_one():
    """An empty t0 over a point whose product of q's fibers has one element:
    t0 passes and so does the empty bundle, the only one at bound 0, but the
    one-element bundle on that point has a vertical and no u."""
    d = FinMap(FinSet("M", ("m",)), FinSet("B", ("b",)), ("b",))
    q = Bundle(FinMap(FinSet("Q", ("m0",)), d.dom, ("m",)))
    t0 = Bundle(FinMap(FinSet("T", ()), d.cod, ()))
    pulled = pullback_bundle(d, t0)
    c = Comorphism(d, t0, SliceMorphism(pulled, q, FinMap(pulled.total, q.total, ())))
    for max_total, expected in ((0, True), (1, False), (2, False)):
        assert distributivity_terminal(c, max_total) is expected
        assert distributivity_terminal_brute(c, max_total) is expected


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**16))
def test_a_dependent_product_counit_is_terminal(seed, mutation):
    """The counit of d_*(q) makes d_*(q) the dependent product of q along d;
    the counit with one entry moved within its fiber never does.  Both
    verdicts agree with the enumeration."""
    rng = random.Random(seed)
    d = rand_map(rng, rand_finset(rng, "M", 2), rand_finset(rng, "B", 2, min_size=1))
    q = rand_bundle(rng, d.dom, 2)
    dp = dependent_product(d, q)
    counit = Comorphism(d, dp.result, dp.counit)
    assert distributivity_terminal(counit, 2)
    assert distributivity_terminal_brute(counit, 2)
    mutants = single_entry_mutations(counit)
    if mutants:
        moved = mutants[mutation % len(mutants)]
        assert not distributivity_terminal(moved, 2)
        assert not distributivity_terminal_brute(moved, 2)
