import importlib
import inspect
import itertools
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finjet
from finjet.errors import ShapeMismatch
from finjet.finset import (
    FinMap,
    FinSet,
    Frozen,
    Span,
    all_maps,
    cached_property,
    compose,
    is_jointly_monic,
    is_monic,
    pair_into_pullback,
    pair_name,
    pullback,
    span_leq,
)
from finjet.jets import PhiContext, jet_bundle
from finjet.kripke import SubobjectAtStage
from finjet.polyfun import Bundle, SpanMorphism, dependent_product
from finjet.relations import check_preserves
from strategies import (
    constant_map,
    element_names,
    fixture_p3_parts,
    maps_into,
    shuffled_finsets,
)

A = FinSet("A", ("a1", "a2", "a3"))
B = FinSet("B", ("b1", "b2", "b3"))
C = FinSet("C", ("c1", "c2"))


def finmaps(dom, cod):
    return st.tuples(
        *(st.sampled_from(cod.elements) for _ in dom.elements)
    ).map(lambda values: FinMap(dom, cod, values))


def test_compose_identity_laws():
    f = FinMap(A, C, ("c1", "c2", "c1"))
    assert compose(f, FinMap.identity(A)) == f
    assert compose(FinMap.identity(C), f) == f


def test_compose_table():
    x = FinSet("X", ("x",))
    u = FinSet("U", ("u",))
    f = FinMap(FinSet("D", ("d",)), x, ("x",))
    g = FinMap(x, u, ("u",))
    assert compose(g, f).table == {"d": "u"}


def test_compose_mismatch():
    f = FinMap(A, C, ("c1", "c2", "c1"))
    with pytest.raises(ShapeMismatch, match="^cannot compose: 'C' is not 'A'$"):
        compose(f, f)


def test_equal_valued_finsets_are_equal_and_hash_equal():
    twin = FinSet("A", ("a1", "a2", "a3"))
    assert twin is not A
    assert twin == A and not twin != A
    assert hash(twin) == hash(A)
    assert {A: 1}[twin] == 1
    assert len({A, twin}) == 1


def test_finsets_differing_in_name_or_elements_are_unequal():
    assert FinSet("A2", A.elements) != A
    assert FinSet("A", ("a1", "a3", "a2")) != A
    assert FinSet("A", ("a1", "a2")) != A


def test_finset_compares_unequal_to_other_types():
    assert (A == "A") is False
    assert (A == ("A", A.elements)) is False
    assert A != None  # noqa: E711
    assert A.__eq__(object()) is NotImplemented


def test_compose_accepts_equal_but_distinct_finsets():
    f = FinMap(A, C, ("c1", "c2", "c1"))
    g = FinMap(FinSet("C", ("c1", "c2")), B, ("b3", "b1"))
    assert g.dom is not f.cod
    assert compose(g, f).values == ("b3", "b1", "b3")


@given(finmaps(A, C), finmaps(C, B), finmaps(B, A))
def test_compose_associative(f, g, h):
    assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def test_pullback_all_to_point():
    a = FinSet("A", ("a1", "a2"))
    b = FinSet("B", ("b1",))
    c = FinSet("C", ("c",))
    f = constant_map(a, c, "c")
    p = constant_map(b, c, "c")
    pb = pullback(f, p)
    assert pb.apex.elements == ("(a1,b1)", "(a2,b1)")


def test_pullback_along_identity_is_graph():
    p = FinMap(B, C, ("c1", "c2", "c2"))
    pb = pullback(FinMap.identity(C), p)
    assert len(pb.apex) == len(B)
    for m in pb.apex:
        assert pb.left(m) == p(pb.right(m))


@given(finmaps(A, C), finmaps(B, C))
def test_pullback_size_counts_matching_pairs(f, p):
    pb = pullback(f, p)
    brute = sum(1 for a in A for b in B if f(a) == p(b))
    assert len(pb.apex) == brute
    assert compose(f, pb.left) == compose(p, pb.right)


@given(finmaps(A, C), finmaps(B, C))
@settings(max_examples=25, deadline=None)
def test_pullback_universal_property(f, p):
    pb = pullback(f, p)
    for size in range(4):
        stage = FinSet("X", tuple(f"x{i}" for i in range(size)))
        for a in all_maps(stage, A):
            for b in all_maps(stage, B):
                if compose(f, a) != compose(p, b):
                    continue
                med = pair_into_pullback(a, b, pb)
                assert compose(pb.left, med) == a
                assert compose(pb.right, med) == b
                rivals = [
                    m
                    for m in all_maps(stage, pb.apex)
                    if compose(pb.left, m) == a and compose(pb.right, m) == b
                ]
                assert rivals == [med]


def assert_pullback_is_nested_loop_join(f, p):
    pairs = [(a, b) for a in f.dom for b in p.dom if f(a) == p(b)]
    pb = pullback(f, p)
    assert pb.apex.elements == tuple(pair_name(a, b) for a, b in pairs)
    assert pb.left.values == tuple(a for a, _ in pairs)
    assert pb.right.values == tuple(b for _, b in pairs)
    for c in p.cod:
        assert p.fiber(c) == tuple(b for b in p.dom if p(b) == c)
    assert _over_f(pb.left, pb.right, f, p).right_square_is_pullback()
    if pairs:
        # One matching pair short: the apex pairs injectively but is too small.
        short = FinSet("M", pb.apex.elements[:-1])
        assert not _over_f(
            FinMap(short, f.dom, pb.left.values[:-1]), FinMap(short, p.dom, pb.right.values[:-1]), f, p
        ).right_square_is_pullback()
    if len(pairs) > 1:
        # The first pair again in place of the last: as many as the matching
        # pairs, but not injective.
        left, top = (leg.values[:-1] + leg.values[:1] for leg in (pb.left, pb.right))
        assert not _over_f(
            FinMap(pb.apex, f.dom, left), FinMap(pb.apex, p.dom, top), f, p
        ).right_square_is_pullback()


def _over_f(left, top, f, p):
    """The span morphism over the identity of f's domain whose right square
    has top over p and left over f:

        A <--left-- M --top--> B
        |id         |left      |p
        A <--id---- A ---f---> C
    """
    ident = FinMap.identity(f.dom)
    return SpanMorphism(Span(left, top), Span(ident, f), ident, left, p)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_pullback_equals_nested_loop_join(data):
    c = data.draw(shuffled_finsets("C"))
    assert_pullback_is_nested_loop_join(
        data.draw(maps_into("A", c)), data.draw(maps_into("B", c))
    )


def test_pullback_join_edge_cases():
    empty = FinSet("E", ())
    c = FinSet("C", ("c2", "c1", "c0"))
    b = FinSet("B", ("b1", "b0", "b2"))
    p = FinMap(b, c, ("c1", "c2", "c1"))  # the fiber over c0 is empty
    for f in (
        FinMap(empty, c, ()),
        FinMap(FinSet("A", ("a0",)), c, ("c0",)),
        FinMap(FinSet("A", ("a1", "a0")), c, ("c1", "c2")),
    ):
        assert_pullback_is_nested_loop_join(f, p)
        assert_pullback_is_nested_loop_join(p, f)
    assert_pullback_is_nested_loop_join(FinMap(empty, empty, ()), FinMap(empty, empty, ()))


def test_pair_into_pullback_singleton():
    f = FinMap(A, C, ("c1", "c1", "c2"))
    p = FinMap(B, C, ("c1", "c2", "c2"))
    pb = pullback(f, p)
    x = FinSet("X", ("x",))
    med = pair_into_pullback(FinMap(x, A, ("a1",)), FinMap(x, B, ("b1",)), pb)
    assert med.values == ("(a1,b1)",)


def test_pair_into_pullback_identity_on_apex():
    f = FinMap(A, C, ("c1", "c1", "c2"))
    p = FinMap(B, C, ("c1", "c2", "c2"))
    pb = pullback(f, p)
    med = pair_into_pullback(pb.left, pb.right, pb)
    assert med == FinMap.identity(pb.apex)


def test_pair_into_pullback_rejects_non_cone():
    f = FinMap(A, C, ("c1", "c1", "c1"))
    p = FinMap(B, C, ("c2", "c2", "c2"))
    pb = pullback(f, p)
    x = FinSet("X", ("x",))
    with pytest.raises(ShapeMismatch, match="^cone does not commute at 'x'$"):
        pair_into_pullback(
            FinMap(x, A, ("a1",)), FinMap(x, B, ("b1",)), pb
        )


def grammar_sets(name):
    """Sets of up to 4 element names of the workspace grammar, composites too."""
    return st.lists(element_names, max_size=4, unique=True).map(
        lambda elements: FinSet(name, tuple(elements))
    )


@st.composite
def grammar_maps_into(draw, name, cod):
    dom = draw(grammar_sets(name)) if len(cod) else FinSet(name, ())
    return FinMap(dom, cod, tuple(draw(st.sampled_from(cod.elements)) for _ in dom))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_pullback_apex_is_named_by_its_legs(data):
    """The apex element over the pair (a, b) is pair_name(a, b): callers
    address apex elements by that name.  Checked on composite names and on
    a pullback along a leg of a pullback, whose names nest."""
    c = data.draw(grammar_sets("C"))
    pb = pullback(data.draw(grammar_maps_into("A", c)), data.draw(grammar_maps_into("B", c)))
    nested = pullback(pb.right, data.draw(grammar_maps_into("G", pb.right.cod)))
    for sq in (pb, nested):
        assert sq.apex.elements == tuple(map(pair_name, sq.left.values, sq.right.values))
        assert pair_into_pullback(sq.left, sq.right, sq) == FinMap.identity(sq.apex)


def test_pair_into_pullback_compares_legs_behind_a_shared_name():
    # Library FinSets are not held to the workspace grammar: the pairs
    # ("x", "y,z") and ("x,y", "z") are both named "(x,y,z)".  Only the
    # first matches, so a cone through the second must not be accepted.
    a = FinSet("A", ("x", "x,y"))
    b = FinSet("B", ("y,z", "z"))
    pb = pullback(FinMap(a, C, ("c1", "c2")), FinMap(b, C, ("c1", "c1")))
    assert pb.apex.elements == ("(x,y,z)", "(x,z)")
    x = FinSet("X", ("x0",))
    med = pair_into_pullback(FinMap(x, a, ("x",)), FinMap(x, b, ("y,z",)), pb)
    assert med.values == ("(x,y,z)",)
    with pytest.raises(ShapeMismatch, match="^cone does not commute at 'x0'$"):
        pair_into_pullback(FinMap(x, a, ("x,y",)), FinMap(x, b, ("z",)), pb)


def test_all_maps_out_of_and_into_the_empty_set():
    """The empty set has one map into any set, and a nonempty set none into it."""
    empty = FinSet("N", ())
    assert list(all_maps(empty, A)) == [FinMap(empty, A, ())]
    assert list(all_maps(A, empty)) == []
    assert list(all_maps(empty, empty)) == [FinMap(empty, empty, ())]


def test_pullback_of_monic_is_monic():
    f = FinMap(FinSet("A", ("a1", "a2")), C, ("c1", "c2"))
    for p in all_maps(B, C):
        pb = pullback(f, p)
        assert is_monic(pb.right)


def test_is_monic():
    assert is_monic(FinMap.identity(A))
    two = FinSet("T", ("t1", "t2"))
    assert not is_monic(constant_map(two, C, "c1"))


@given(finmaps(A, C))
def test_is_monic_matches_quadratic_scan(f):
    brute = all(
        f(x) != f(y)
        for x, y in itertools.combinations(A.elements, 2)
    )
    assert is_monic(f) == brute


def test_jointly_monic_one_leg_suffices():
    s = Span(FinMap.identity(A), constant_map(A, C, "c1"))
    assert is_jointly_monic(s)


def test_jointly_monic_fails_on_constant_legs():
    two = FinSet("T", ("t1", "t2"))
    s = Span(constant_map(two, A, "a1"), constant_map(two, C, "c1"))
    assert not is_jointly_monic(s)


@given(finmaps(A, C), finmaps(A, B))
def test_jointly_monic_matches_pairing_injectivity(left, right):
    s = Span(left, right)
    pairs = [(left(m), right(m)) for m in A]
    assert is_jointly_monic(s) == (len(set(pairs)) == len(pairs))


def test_span_leq_reflexive():
    s = Span(FinMap.identity(A), constant_map(A, C, "c1"))
    assert span_leq(s, s) == FinMap.identity(A)


def test_span_leq_from_empty():
    empty = FinSet("M", ())
    s = Span(FinMap(empty, A, ()), FinMap(empty, C, ()))
    s2 = Span(FinMap.identity(A), constant_map(A, C, "c1"))
    mu = span_leq(s, s2)
    assert mu is not None and mu.dom == empty


def test_span_leq_requires_joint_monicity():
    two = FinSet("T", ("t1", "t2"))
    bad = Span(constant_map(two, A, "a1"), constant_map(two, C, "c1"))
    good = Span(FinMap.identity(A), constant_map(A, C, "c1"))
    with pytest.raises(ShapeMismatch, match="^span_leq requires jointly monic spans$"):
        span_leq(bad, good)


def test_span_leq_transitive_witnesses_compose():
    m1 = FinSet("M1", ("m",))
    m2 = FinSet("M2", ("n", "n2"))
    m3 = FinSet("M3", ("k", "k2", "k3"))
    s1 = Span(FinMap(m1, A, ("a1",)), FinMap(m1, C, ("c1",)))
    s2 = Span(FinMap(m2, A, ("a1", "a2")), FinMap(m2, C, ("c1", "c1")))
    s3 = Span(FinMap(m3, A, ("a1", "a2", "a3")), FinMap(m3, C, ("c1", "c1", "c2")))
    mu12 = span_leq(s1, s2)
    mu23 = span_leq(s2, s3)
    mu13 = span_leq(s1, s3)
    assert compose(mu23, mu12) == mu13


def test_span_leq_antisymmetric_up_to_iso():
    m1 = FinSet("M1", ("m", "n"))
    m2 = FinSet("M2", ("p", "q"))
    s1 = Span(FinMap(m1, A, ("a1", "a2")), FinMap(m1, C, ("c1", "c1")))
    s2 = Span(FinMap(m2, A, ("a2", "a1")), FinMap(m2, C, ("c1", "c1")))
    mu = span_leq(s1, s2)
    nu = span_leq(s2, s1)
    assert compose(nu, mu) == FinMap.identity(m1)
    assert compose(mu, nu) == FinMap.identity(m2)


class _Counted(Frozen):
    """A frozen record whose cached attribute counts its computations."""

    calls: list

    def __init__(self, calls: list):
        object.__setattr__(self, "calls", calls)

    @cached_property
    def value(self) -> int:
        """The number of computations so far, including this one."""
        self.calls.append(self)
        return len(self.calls)


def test_cached_property_computes_once_per_instance_into_its_dict():
    calls = []
    first, second = _Counted(calls), _Counted(calls)
    assert "value" not in first.__dict__
    assert first.value == 1 and first.value == 1
    assert first.__dict__["value"] == 1
    assert second.value == 2
    assert calls == [first, second]


def test_cached_property_on_the_class_is_the_descriptor():
    assert isinstance(_Counted.value, cached_property)
    assert _Counted.value.__doc__ == "The number of computations so far, including this one."
    assert FinMap.fibers.__doc__.startswith("The fiber index")


def test_cached_values_survive_pickling():
    a, _, p, ball = fixture_p3_parts()
    jb = jet_bundle(ball.base, p)
    u = SubobjectAtStage.from_pairs(a, C, [("a", "c2"), ("b", "c1")])
    generic, pair_set, span = jb.generic_jet, u.pair_set, u.span
    jb2, u2 = pickle.loads(pickle.dumps((jb, u)))
    assert jb2 == jb and u2 == u
    assert jb2.__dict__["generic_jet"] == generic
    assert (u2.__dict__["pair_set"], u2.__dict__["span"]) == (pair_set, span)


MODULES = [importlib.import_module(f"finjet.{m.name}") for m in pkgutil.iter_modules(finjet.__path__)]


RECORDS = sorted(
    (cls for cls in Frozen.__subclasses__() if cls.__module__.startswith("finjet.")),
    key=lambda cls: cls.__name__,
)


def _bare(cls: type, values: list):
    """A record of cls holding `values` in its fields, built without its checks."""
    obj = cls.__new__(cls)
    vars(obj).update(zip(cls._fields, values))
    return obj


def test_every_annotated_class_is_a_record():
    """A finjet class with annotated fields is a `Frozen` record, so every
    test over RECORDS sees it."""
    annotated = {
        cls
        for module in MODULES
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__ and cls.__annotations__
    }
    assert annotated == set(RECORDS) and len(RECORDS) == 19


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_frozen_and_compare_by_their_fields(cls):
    """The constructor takes the fields in declaration order; equal fields give
    equal records with the hash of the field tuple; assignment and deletion
    raise; the repr names every field; pickling keeps the record."""
    params = list(inspect.signature(cls.__init__).parameters)
    assert params == ["self", *cls._fields]
    values = [f"{cls.__name__}.{name}" for name in cls._fields]
    record = _bare(cls, values)
    assert record == _bare(cls, values)
    assert hash(record) == hash(_bare(cls, values)) == hash(tuple(values))
    assert record != _bare(cls, values[:-1] + ["other"])
    for name in cls._fields:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, "other")
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert vars(record) == dict(zip(cls._fields, values))
    if "__repr__" not in vars(cls):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, values))
        assert repr(record) == f"{cls.__name__}({fields})"
    assert pickle.loads(pickle.dumps(record)) == record


def test_cached_properties_store_into_the_record():
    """Every cached property of every record class, read on a real record,
    lands in the record's `__dict__`, past the frozen guard."""
    a, e, p, ball = fixture_p3_parts()
    jb = jet_bundle(ball.base, p)
    ident = FinMap.identity(a)
    records = [
        a,
        p,
        ball.base,
        jb.generic_jet.underlying,
        PhiContext(check_preserves(ident, ident, ball.base, ball.base), p),
        jb,
        jb.sections,
        dependent_product(p, Bundle(FinMap.identity(e))),
    ]
    cached = {
        cls for cls in RECORDS if any(isinstance(v, cached_property) for v in vars(cls).values())
    }
    assert {type(record) for record in records} == cached
    for record in records:
        for name, attr in vars(type(record)).items():
            if isinstance(attr, cached_property):
                value = getattr(record, name)
                assert vars(record)[name] is value is getattr(record, name)


def test_importing_the_cli_generates_no_code():
    """The records are plain classes: importing the CLI loads no
    `dataclasses`, and no module of the package generates code."""
    code = "import sys, finjet.cli; print('dataclasses' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(finjet.__file__).parent.parent)},
    )
    assert result.stdout == "False\n"
    for path in Path(finjet.__file__).parent.glob("*.py"):
        assert not re.search(r"\bexec\(|\bcompile\(|dataclass", path.read_text()), path.name
