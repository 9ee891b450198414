import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finjet.errors import ShapeMismatch
from finjet.finset import (
    FinMap,
    FinSet,
    Span,
    all_maps,
    compose,
    pair_into_pullback,
    span_leq,
)
from finjet.kripke import (
    PartialMapAtStage,
    SubobjectAtStage,
    canonicalize,
    change_of_stage,
    counterimage,
    extensionality_leq,
    law_of,
    member,
    postcompose,
    precompose,
    stage_restrict,
    sub_leq,
    value,
    yoneda_construct,
)
from finjet.relations import Relation, monad
from strategies import (
    constant_map,
    empty_subobject,
    full_subobject,
    maps_into,
    shuffled_finsets,
)

A = FinSet("A", ("a1", "a2", "a3"))
X = FinSet("X", ("x1", "x2"))
E = FinSet("E", ("e1", "e2"))


def subobjects(over, stage):
    cells = [(a, x) for a in over for x in stage]
    return st.lists(st.sampled_from(cells), unique=True).map(
        lambda pairs: SubobjectAtStage.from_pairs(over, stage, pairs)
    )


def partial_maps(over, stage, target):
    def build(u_and_choices):
        u, seed = u_and_choices
        values = tuple(target.elements[i % len(target)] for i in seed[: len(u.pairs)])
        return PartialMapAtStage(u, target, values)

    return st.tuples(
        subobjects(over, stage), st.lists(st.integers(0, 5), min_size=6, max_size=6)
    ).map(build)


def test_canonicalize_empty_span():
    m = FinSet("M", ())
    u = canonicalize(Span(FinMap(m, A, ()), FinMap(m, X, ())))
    assert u.pairs == ()


def test_canonicalize_diagonal():
    u = canonicalize(Span(FinMap.identity(A), FinMap.identity(A)))
    assert u.pairs == tuple((a, a) for a in A)


def test_canonicalize_rejects_non_monic():
    two = FinSet("M", ("m1", "m2"))
    with pytest.raises(ShapeMismatch, match="^span does not represent a subobject$"):
        canonicalize(Span(constant_map(two, A, "a1"), constant_map(two, X, "x1")))


def test_equivalent_spans_share_canonical_form():
    m = FinSet("M", ("m1", "m2", "m3"))
    left = FinMap(m, A, ("a1", "a2", "a3"))
    right = FinMap(m, X, ("x1", "x1", "x2"))
    u = canonicalize(Span(left, right))
    for perm in itertools.permutations(range(3)):
        shuffled = FinSet("M2", tuple(f"n{i}" for i in range(3)))
        left2 = FinMap(shuffled, A, tuple(left.values[i] for i in perm))
        right2 = FinMap(shuffled, X, tuple(right.values[i] for i in perm))
        assert canonicalize(Span(left2, right2)) == u


@given(subobjects(A, X), subobjects(A, X))
def test_sub_leq_matches_span_leq(u, u2):
    assert sub_leq(u, u2) == (span_leq(u.span, u2.span) is not None)


def test_sub_leq_trivialities():
    u = SubobjectAtStage.from_pairs(A, X, [("a1", "x1")])
    assert sub_leq(u, u)
    assert sub_leq(empty_subobject(A, X), u)


def test_change_of_stage_identity_and_empty():
    u = SubobjectAtStage.from_pairs(A, X, [("a1", "x1"), ("a2", "x2")])
    assert change_of_stage(u, FinMap.identity(X)) == u
    empty = FinSet("Y", ())
    assert change_of_stage(u, FinMap(empty, X, ())) == empty_subobject(A, empty)


@given(subobjects(A, X))
@settings(max_examples=20, deadline=None)
def test_change_of_stage_preserves_joint_monicity(u):
    from finjet.finset import is_jointly_monic

    y = FinSet("Y", ("y1", "y2", "y3"))
    for alpha in all_maps(y, X):
        assert is_jointly_monic(change_of_stage(u, alpha).span)


@given(subobjects(A, X))
@settings(max_examples=30, deadline=None)
def test_change_of_stage_functorial(u):
    y = FinSet("Y", ("y1", "y2"))
    z = FinSet("Z", ("z1",))
    for alpha in all_maps(y, X):
        for beta in all_maps(z, y):
            assert change_of_stage(change_of_stage(u, alpha), beta) == change_of_stage(
                u, compose(alpha, beta)
            )


def test_counterimage_identity_and_full():
    u = SubobjectAtStage.from_pairs(A, X, [("a1", "x1")])
    assert counterimage(FinMap.identity(A), u) == u
    full = full_subobject(A, X)
    a2 = FinSet("A2", ("p", "q"))
    f = FinMap(a2, A, ("a1", "a3"))
    assert counterimage(f, full) == full_subobject(a2, X)


@given(subobjects(A, X))
@settings(max_examples=30, deadline=None)
def test_counterimage_functorial(u):
    a2 = FinSet("A2", ("p", "q"))
    a3 = FinSet("A3", ("r",))
    for f in all_maps(a2, A):
        for f2 in all_maps(a3, a2):
            assert counterimage(f2, counterimage(f, u)) == counterimage(
                compose(f, f2), u
            )


@st.composite
def pair_sets(draw, left, right):
    cells = [(a, x) for a in left for x in right]
    return draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []


def assert_joins_match_nested_loops(r, b, u, alpha, f):
    """monad, change_of_stage and counterimage against their defining comprehensions."""
    assert monad(r, b).pairs == tuple(
        (a, x) for a in r.over for x in b.dom if (a, b(x)) in r.pair_set
    )
    assert change_of_stage(u, alpha).pairs == tuple(
        (a, y) for a in u.over for y in alpha.dom if (a, alpha(y)) in u.pair_set
    )
    assert counterimage(f, u).pairs == tuple(
        (a2, x) for a2 in f.dom for x in u.stage if (f(a2), x) in u.pair_set
    )


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_stage_joins_equal_nested_loops(data):
    a = data.draw(shuffled_finsets("A"))
    a0 = data.draw(shuffled_finsets("B"))
    x = data.draw(shuffled_finsets("X"))
    r = Relation.from_pairs(a, a0, data.draw(pair_sets(a, a0)))
    u = SubobjectAtStage.from_pairs(a, x, data.draw(pair_sets(a, x)))
    assert_joins_match_nested_loops(
        r,
        data.draw(maps_into("Y", a0)),
        u,
        data.draw(maps_into("Y", x)),
        data.draw(maps_into("P", a)),
    )


def test_stage_joins_edge_cases():
    empty = FinSet("Z", ())
    a = FinSet("A", ("a2", "a0", "a1"))
    x = FinSet("X", ("x1", "x0"))
    y = FinSet("Y", ("y1", "y0", "y2"))
    some = [("a1", "x0"), ("a2", "x0"), ("a0", "x0")]  # the column at x1 is empty
    for pairs in ([], some):
        r = Relation.from_pairs(a, x, pairs)
        u = SubobjectAtStage.from_pairs(a, x, pairs)
        for alpha in (FinMap(empty, x, ()), FinMap(y, x, ("x0", "x1", "x0"))):
            for f in (FinMap(empty, a, ()), FinMap(y, a, ("a1", "a1", "a2"))):
                assert_joins_match_nested_loops(r, alpha, u, alpha, f)
    nothing = empty_subobject(empty, empty)
    none = FinMap(empty, empty, ())
    assert_joins_match_nested_loops(Relation(empty, empty, ()), none, nothing, none, none)


def sort_and_compare_rule(left, right, pairs):
    """The error the replaced validator raised: membership first, then dedup,
    re-sort and compare, so a repeated pair is out of canonical order too."""
    for a, x in pairs:
        if a not in left or x not in right:
            return f"pair ({a},{x}) escapes {left.name} x {right.name}"
    if pairs != tuple(sorted(set(pairs), key=lambda p: (left.index[p[0]], right.index[p[1]]))):
        return "pairs not in canonical order; use from_pairs"
    return None


@st.composite
def raw_pair_tuples(draw):
    """(left, right, pairs): shuffled or sorted pairs with duplicates, maybe one escaping pair."""
    left = draw(shuffled_finsets("A", 3))
    right = draw(shuffled_finsets("X", 3))
    cells = [(a, x) for a in left for x in right]
    pairs = draw(st.lists(st.sampled_from(cells), max_size=6)) if cells else []
    if draw(st.booleans()):
        pairs.sort(key=lambda p: (left.index[p[0]], right.index[p[1]]))
    escaping = [(a, "zz") for a in left] + [("zz", x) for x in right] + [("zz", "zz")]
    for pair in draw(st.lists(st.sampled_from(escaping), max_size=1)):
        pairs.insert(draw(st.integers(0, len(pairs))), pair)
    return left, right, tuple(pairs)


@given(raw_pair_tuples())
@settings(max_examples=300, deadline=None)
def test_subobject_validator_matches_sort_and_compare(case):
    over, stage, pairs = case
    expected = sort_and_compare_rule(over, stage, pairs)
    if expected is None:
        assert SubobjectAtStage(over, stage, pairs).pairs == pairs
    else:
        with pytest.raises(ValueError) as info:
            SubobjectAtStage(over, stage, pairs)
        assert str(info.value) == expected


def test_subobject_rejects_a_repeated_pair():
    with pytest.raises(ValueError, match="pairs not in canonical order; use from_pairs"):
        SubobjectAtStage(A, X, (("a1", "x1"), ("a1", "x1")))
    assert SubobjectAtStage.from_pairs(A, X, [("a1", "x1"), ("a1", "x1")]).pairs == (("a1", "x1"),)


def test_member_empty_stage_is_vacuous():
    u = empty_subobject(A, X)
    empty = FinSet("Y", ())
    through = member(FinMap(empty, A, ()), FinMap(empty, X, ()), u)
    assert through is not None and through.values == ()


def test_member_canonical_legs_with_identity_witness():
    u = SubobjectAtStage.from_pairs(A, X, [("a1", "x1"), ("a2", "x1")])
    legs = u.span
    assert member(legs.left, legs.right, u) == FinMap.identity(legs.apex)


def test_member_absent_outside_pairs():
    u = SubobjectAtStage.from_pairs(A, X, [("a1", "x1")])
    y = FinSet("Y", ("y",))
    assert member(FinMap(y, A, ("a2",)), FinMap(y, X, ("x1",)), u) is None


@st.composite
def subobjects_with_probes(draw):
    """A subobject u of A at X, each of up to 3 elements, and up to 4 probes
    (a, alpha) at stages Y of up to 3 elements, whose points are drawn from
    u's pairs or from all of A x X, so about half of them are members."""
    over = draw(shuffled_finsets("A", 3))
    stage = draw(shuffled_finsets("X", 3))
    cells = [(a, x) for a in over for x in stage]
    if not cells:
        return empty_subobject(over, stage), []
    u = SubobjectAtStage.from_pairs(over, stage, draw(st.lists(st.sampled_from(cells), unique=True)))
    point = st.sampled_from(cells)
    if u.pairs:
        point = st.sampled_from(u.pairs) | point
    probes = []
    for _ in range(draw(st.integers(0, 4))):
        y = draw(shuffled_finsets("Y", 3))
        drawn = [draw(point) for _ in y]
        probes.append((FinMap(y, over, tuple(a for a, _ in drawn)), FinMap(y, stage, tuple(x for _, x in drawn))))
    return u, probes


@given(subobjects_with_probes())
@settings(max_examples=80, deadline=None)
def test_member_is_the_pairing_into_the_canonical_span(drawn):
    u, probes = drawn
    for a, alpha in probes:
        through = member(a, alpha, u)
        try:
            paired = pair_into_pullback(a, alpha, u.span)
        except ShapeMismatch:
            assert through is None
        else:
            assert through == paired


@given(subobjects(A, X))
@settings(max_examples=30, deadline=None)
def test_member_change_of_stage_equation(u):
    y = FinSet("Y", ("y1", "y2"))
    for alpha in all_maps(y, X):
        moved = change_of_stage(u, alpha)
        for a in all_maps(y, A):
            direct = member(a, alpha, u)
            later = member(a, FinMap.identity(y), moved)
            assert (direct is None) == (later is None)


@given(subobjects(A, X))
@settings(max_examples=20, deadline=None)
def test_member_stable_under_change_of_stage(u):
    y = FinSet("Y", ("y1", "y2"))
    z = FinSet("Z", ("z1",))
    for alpha in all_maps(y, X):
        for a in all_maps(y, A):
            if member(a, alpha, u) is None:
                continue
            for beta in all_maps(z, y):
                assert member(compose(a, beta), compose(alpha, beta), u) is not None


def make_section():
    """A partial map that splits p over a partial support, and p."""
    e = FinSet("E", ("a1.e0", "a1.e1", "a2.e0"))
    p = FinMap(e, A, ("a1", "a1", "a2"))
    u = SubobjectAtStage.from_pairs(A, X, [("a1", "x1"), ("a1", "x2"), ("a2", "x1")])
    return PartialMapAtStage(u, e, ("a1.e0", "a1.e1", "a2.e0")), p


def test_value_pointwise_and_empty():
    s, _ = make_section()
    y = FinSet("Y", ("y1", "y2"))
    a = FinMap(y, A, ("a1", "a2"))
    alpha = FinMap(y, X, ("x2", "x1"))
    assert value(s, a, alpha).values == ("a1.e1", "a2.e0")
    empty = FinSet("Y0", ())
    assert value(s, FinMap(empty, A, ()), FinMap(empty, X, ())).values == ()


def test_value_outside_support_raises():
    s, _ = make_section()
    y = FinSet("Y", ("y",))
    with pytest.raises(ShapeMismatch, match="^element is not a member of the partial map's support$"):
        value(s, FinMap(y, A, ("a3",)), FinMap(y, X, ("x1",)))


def test_value_stability():
    s, _ = make_section()
    y = FinSet("Y", ("y1", "y2"))
    z = FinSet("Z", ("z1", "z2"))
    a = FinMap(y, A, ("a1", "a1"))
    alpha = FinMap(y, X, ("x1", "x2"))
    for beta in all_maps(z, y):
        assert compose(value(s, a, alpha), beta) == value(
            s, compose(a, beta), compose(alpha, beta)
        )


def test_postcompose_identity_and_constant():
    s, _ = make_section()
    assert postcompose(FinMap.identity(s.target), s) == s
    f = FinSet("F", ("f",))
    collapsed = postcompose(constant_map(s.target, f, "f"), s)
    assert set(collapsed.values) == {"f"}
    assert collapsed.support == s.support


def test_precompose_identity_and_disjoint():
    s, _ = make_section()
    assert precompose(s, FinMap.identity(A)) == s
    a2 = FinSet("A2", ("p",))
    f = FinMap(a2, A, ("a3",))
    assert precompose(s, f).support == empty_subobject(a2, X)


def test_pre_post_commute():
    s, _ = make_section()
    a2 = FinSet("A2", ("p", "q"))
    f_cod = FinSet("F", ("f1", "f2"))
    q = FinMap(s.target, f_cod, ("f1", "f2", "f1"))
    for f in all_maps(a2, A):
        assert postcompose(q, precompose(s, f)) == precompose(postcompose(q, s), f)


def test_precompose_support_is_counterimage():
    s, _ = make_section()
    a2 = FinSet("A2", ("p", "q"))
    for f in all_maps(a2, A):
        assert precompose(s, f).support == counterimage(f, s.support)


@given(subobjects(A, X), subobjects(A, X))
def test_extensionality_agrees_with_sub_leq(u, u2):
    assert extensionality_leq(u, u2) == sub_leq(u, u2)


def test_extensionality_counterexample_pair():
    u = SubobjectAtStage.from_pairs(A, X, [("a1", "x1"), ("a2", "x1")])
    u2 = SubobjectAtStage.from_pairs(A, X, [("a1", "x1")])
    assert not extensionality_leq(u, u2)
    assert extensionality_leq(u2, u)


def test_extensionality_stage_mismatch():
    u = empty_subobject(A, X)
    other = empty_subobject(A, FinSet("Y", ("y",)))
    with pytest.raises(ShapeMismatch, match="^subobjects at different stages$"):
        extensionality_leq(u, other)


@given(partial_maps(A, X, E))
@settings(max_examples=50, deadline=None)
def test_yoneda_roundtrip(s):
    assert yoneda_construct(s.support, law_of(s)) == s


def test_yoneda_constant_law():
    u = SubobjectAtStage.from_pairs(A, X, [("a1", "x1"), ("a3", "x2")])
    law = lambda a, alpha: constant_map(a.dom, E, "e1")
    s = yoneda_construct(u, law)
    assert set(s.values) == {"e1"}


def test_yoneda_empty_support():
    u = empty_subobject(A, X)
    law = lambda a, alpha: FinMap(a.dom, E, tuple("e1" for _ in a.dom))
    s = yoneda_construct(u, law)
    assert s.values == ()


def test_yoneda_rejects_unstable_law():
    u = SubobjectAtStage.from_pairs(A, X, [("a1", "x1"), ("a2", "x1")])

    def law(a, alpha):
        # Depends on the stage's size, so it cannot commute with probes.
        pick = "e1" if len(a.dom) % 2 == 0 else "e2"
        return constant_map(a.dom, E, pick)

    with pytest.raises(ShapeMismatch) as raised:
        yoneda_construct(u, law)
    assert str(raised.value) == (
        "law is not stable along the probe FinMap(stage1->sub(A,X): x0->(a1,x1))"
    )


@pytest.mark.parametrize("off", ["codomain", "stage"])
def test_yoneda_rejects_a_law_off_its_codomain_or_stage(off):
    """Right values at every probe, but into a copy of E or on a copy of
    the probe stage: unstable all the same."""
    u = SubobjectAtStage.from_pairs(A, X, [("a1", "x1"), ("a2", "x1")])

    def law(a, alpha):
        if a.dom == u.span.apex:
            return constant_map(a.dom, E, "e1")
        if off == "codomain":
            return constant_map(a.dom, FinSet("E2", E.elements), "e1")
        return constant_map(FinSet("Y", a.dom.elements), E, "e1")

    with pytest.raises(ShapeMismatch) as raised:
        yoneda_construct(u, law)
    assert str(raised.value) == (
        "law is not stable along the probe FinMap(stage1->sub(A,X): x0->(a1,x1))"
    )


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_yoneda_evaluates_the_law_at_every_probe(n):
    # Once on the canonical legs, then once per map from the probe stages of
    # sizes 1 and 2 into the n-element apex: 1 + n + n^2 calls.
    u = SubobjectAtStage.from_pairs(A, X, [(a, "x1") for a in A.elements[:n]])
    calls = []

    def law(a, alpha):
        calls.append(a.dom)
        return constant_map(a.dom, E, "e1")

    yoneda_construct(u, law)
    assert len(calls) == 1 + n + n * n


def test_stage_restrict_matches_value():
    s, _ = make_section()
    y = FinSet("Y", ("y1", "y2"))
    for alpha in all_maps(y, X):
        moved = stage_restrict(s, alpha)
        assert moved.support == change_of_stage(s.support, alpha)
        for (a, yy), e in moved.table.items():
            assert e == s.table[(a, alpha(yy))]
        # The full notation: evaluating at a later stage goes through the
        # stage-restricted partial map.
        for a in all_maps(y, A):
            try:
                direct = value(s, a, alpha)
            except ShapeMismatch:
                continue
            assert direct == value(moved, a, FinMap.identity(y))
