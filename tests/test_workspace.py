import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finjet.errors import WorkspaceError
from finjet.finset import FinMap, FinSet
from finjet.instances import rand_bundle
from finjet.polyfun import Bundle
from finjet.relations import Relation
from finjet import workspace
from finjet.workspace import Workspace, parse_workspace, serialize_workspace
from strategies import (
    complete_graph_workspace,
    element_names,
    fixture_p3,
    path_graph_workspace,
)

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "p3.ws"
NOT_AN_ELEMENT_NAME = (
    "is not an element name: use an atom without ( ) , | ; -> "
    "or a composite (x,y) or (x|<10 lowercase hex digits>)"
)


def test_minimal_object():
    ws = parse_workspace("object A { x y }\n")
    assert ws.objects["A"].elements == ("x", "y")


def test_empty_object_and_comments():
    ws = parse_workspace("# nothing here\nobject A { }\n")
    assert ws.objects["A"].elements == ()


def test_map_parsing():
    ws = parse_workspace(
        "object A { x y }\nobject B { u }\nmap f : A -> B { x -> u ; y -> u }\n"
    )
    assert ws.maps["f"].table == {"x": "u", "y": "u"}


def test_unknown_reference_carries_line_number():
    with pytest.raises(WorkspaceError, match="^line 2: unknown object 'B'$") as err:
        parse_workspace("object A { x }\nmap f : A -> B { x -> u }\n")
    assert str(err.value).startswith("line 2: ")


def test_non_total_map():
    text = "object A { x y }\nobject B { u }\nmap f : A -> B { x -> u }\n"
    with pytest.raises(WorkspaceError, match="^line 3: element 'y' has no assignment$") as err:
        parse_workspace(text)
    assert str(err.value).startswith("line 3: ")


def test_duplicate_assignment_rejected():
    text = "object A { x }\nobject B { u v }\nmap f : A -> B { x -> u ; x -> v }\n"
    with pytest.raises(WorkspaceError, match="^line 3: element 'x' assigned twice$"):
        parse_workspace(text)


def test_duplicate_name_rejected():
    with pytest.raises(WorkspaceError, match="^line 2: object 'A' declared twice$"):
        parse_workspace("object A { x }\nobject A { y }\n")


def test_unknown_declaration_keyword():
    with pytest.raises(WorkspaceError, match="^line 1: unknown declaration 'widget'$"):
        parse_workspace("widget W { }\n")


def test_relation_pairs_with_nested_ids():
    text = (
        "object A { (x,y) z }\nobject B { u }\n"
        "relation R : A ~ B { ((x,y),u) (z,u) }\n"
    )
    ws = parse_workspace(text)
    assert ws.relations["R"].pairs == (("(x,y)", "u"), ("z", "u"))


def test_graph_sugar_symmetrizes():
    ws = parse_workspace("object V { a b }\ngraph g on V { a -- b }\n")
    assert ws.relations["g"].pairs == (("a", "b"), ("b", "a"))


def test_graph_bad_edge_token():
    with pytest.raises(WorkspaceError, match="^line 2: expected '--', got '->'$"):
        parse_workspace("object V { a b }\ngraph g on V { a -> b }\n")


def test_bundle_references_map():
    text = (
        "object A { x }\nobject E { e }\nmap p : E -> A { e -> x }\nbundle p = p\n"
    )
    ws = parse_workspace(text)
    assert ws.bundles["p"].map == ws.maps["p"]


def test_bundle_unknown_map():
    with pytest.raises(WorkspaceError, match="^line 1: unknown map 'missing'$"):
        parse_workspace("bundle b = missing\n")


def test_golden_fixture_matches_programmatic_build():
    parsed = parse_workspace(FIXTURE.read_text())
    assert parsed == fixture_p3()


def test_roundtrip_fixture():
    ws = parse_workspace(FIXTURE.read_text())
    assert parse_workspace(serialize_workspace(ws)) == ws


def test_roundtrip_twice_is_stable():
    ws = parse_workspace(FIXTURE.read_text())
    text = serialize_workspace(ws)
    assert serialize_workspace(parse_workspace(text)) == text


def test_roundtrip_empty_bodies():
    text = "object N { }\nobject A { x }\nrelation R : N ~ A { }\n"
    ws = parse_workspace(text)
    assert parse_workspace(serialize_workspace(ws)) == ws


DEEP = 3000  # nesting beyond Python's default recursion limit


@pytest.mark.parametrize(
    "name",
    ["a", "*", "v1.e0", "a-b", "a>b", "-", ">", ">-", "(a-,>b)", "(a,b)", "((a,b),c)",
     "(a|0123456789)", "((a,b)|abcdef0123)",
     "(((a|0123456789),(b,c))|ffffffffff)",
     pytest.param("(" * DEEP + "a" + ",b)" * DEEP, id="deep")],
)
def test_element_names_in_the_grammar_parse(name):
    assert parse_workspace(f"object A {{ {name} }}\n").objects["A"].elements == (name,)


@pytest.mark.parametrize(
    "name",
    ["a,b", "(a,b", "a)", "(a)", "()", "(,a)", "(a,)", "(a,b,c)", "a|b", "(a,b)c", "c(a,b)",
     "(a,b)(c,d)", "(a|012345678)", "(a|0123456789a)", "(a|ABCDEF0123)", "(a|0123456789,b)",
     "(a||0123456789)", "a;b", ";", "a->b", "->", "(a->b,c)", "(a,b;c)", "(a;b|0123456789)",
     pytest.param("(" * DEEP + "a" + ",b)" * (DEEP - 1), id="deep-unclosed")],
)
def test_element_names_outside_the_grammar_are_syntax_errors(name):
    with pytest.raises(WorkspaceError) as err:
        parse_workspace(f"object A {{ x }}\nobject B {{ y {name} }}\n")
    assert str(err.value).startswith("line 2: ")
    assert str(err.value) == f"line 2: {name!r} {NOT_AN_ELEMENT_NAME}"


@settings(max_examples=100, deadline=None)
@given(
    st.lists(element_names, unique=True, max_size=5),
    st.lists(element_names, unique=True, min_size=1, max_size=4),
    st.data(),
)
def test_roundtrip_composite_names(a_names, c_names, data):
    a, c = FinSet("A", tuple(a_names)), FinSet("C", tuple(c_names))
    f = FinMap(a, c, tuple(data.draw(st.sampled_from(c_names)) for _ in a_names))
    pairs = [(x, z) for x in a_names for z in c_names if data.draw(st.booleans())]
    ws = Workspace(
        objects={"A": a, "C": c},
        maps={"f": f},
        relations={"R": Relation.from_pairs(a, c, pairs)},
        bundles={"p": Bundle(f)},
    )
    assert parse_workspace(serialize_workspace(ws)) == ws


_MALFORMED_HEAD = "object A { a b (a,b) }\nobject B { x y }\n"


@pytest.mark.parametrize(
    "declaration, message",
    [
        ("relation R : A ~ B { (a,b }", "expected a pair, got '(a,b'"),
        ("relation R : A ~ B { a,b) }", "expected a pair, got 'a,b)'"),
        ("relation R : A ~ B { (ab) }", "pair '(ab)' has no top-level comma"),
        ("relation R : A ~ B { () }", "pair '()' has no top-level comma"),
        ("relation R : A ~ B { (a,b,c) }", "'b,c' is not in object 'B'"),
        ("relation R : A ~ B { (a),b) }", "pair '(a),b)' has no top-level comma"),
        ("relation R : A ~ B { ((a,b),c) }", "'c' is not in object 'B'"),
        ("relation R : A ~ B { ((b,a),x) }", "'(b,a)' is not in object 'A'"),
        ("relation R : A ~ B { (a,x)(b,y) }", "'x)(b,y' is not in object 'B'"),
        ("relation R : A ~ B { (z,x) }", "'z' is not in object 'A'"),
        ("relation R : A ~ B { (a,z) }", "'z' is not in object 'B'"),
        ("relation R : A ~ B { (,x) }", "'' is not in object 'A'"),
        ("relation R : A ~ B { (a,) }", "'' is not in object 'B'"),
        ("relation R : A ~ B { (a,x) (q,y) }", "'q' is not in object 'A'"),
        ("map f : A -> B { a b }", "map entry 'a b' needs '->'"),
        ("map f : A -> B { a -> b -> c }", "'b -> c' is not in object 'B'"),
        ("map f : A -> B { ;; }", "element 'a' has no assignment"),
        ("map f : A -> B { z -> x }", "'z' is not in object 'A'"),
        ("map f : A -> B { a -> x ; b -> q }", "'q' is not in object 'B'"),
        ("map f : A -> B { -> x }", "'' is not in object 'A'"),
        ("map f : A -> B { a -> }", "'' is not in object 'B'"),
        ("map f : A -> B { a -> x ; a -> y }", "element 'a' assigned twice"),
        ("map f : A -> B { a -> x ; b -> q ; (a,b) -> y }", "'q' is not in object 'B'"),
        ("map f : A -> B { }", "element 'a' has no assignment"),
        ("graph g on A { a -- z }", "'z' is not in object 'A'"),
        ("relation R : A ~ B (a,x)", "expected a brace-delimited body"),
        ("object { a }", "missing object name"),
        ("object C { a a }", "duplicate element in object"),
        ("map f : A B { a -> x }", "map header needs '<obj> -> <obj>'"),
        ("relation R : A B { (a,x) }", "relation header needs '<obj> ~ <obj>'"),
        ("graph g A { a -- b }", "graph header needs 'on <obj>'"),
        ("graph g on A { a -- }", "graph body must be '<id> -- <id>' edges"),
        ("bundle q f", "bundle declaration needs '= <mapname>'"),
    ],
)
def test_malformed_bodies_raise_pinned_errors(declaration, message):
    with pytest.raises(WorkspaceError) as err:
        parse_workspace(_MALFORMED_HEAD + declaration + "\n")
    assert type(err.value) is WorkspaceError
    assert str(err.value).startswith("line 3: ")
    assert str(err.value) == f"line 3: {message}"


def test_map_entries_tolerate_blank_entries_and_tight_arrows():
    ws = parse_workspace(_MALFORMED_HEAD + "map f : A -> B { a->x ;; b -> x ; (a,b)->y ; }\n")
    assert ws.maps["f"].table == {"a": "x", "b": "x", "(a,b)": "y"}


@pytest.mark.parametrize(
    "declaration, expected",
    [
        ("relation R : A ~ B { (a,x) (a,x) }", (("a", "x"),)),
        ("relation R : A ~ B { (b,y) (a,x) (a,y) }", (("a", "x"), ("a", "y"), ("b", "y"))),
        ("relation R : A ~ B { }", ()),
        ("relation R : N ~ B { }", ()),
        ("map f : A -> B { b -> y ; a -> x ; (a,b) -> x }", ("x", "y", "x")),
        ("map f : N -> B { }", ()),
    ],
)
def test_bodies_off_the_serialized_form_parse_as_the_loop_reads_them(declaration, expected):
    """Repeated or out-of-order pairs and a map listing its domain out of
    order are valid input, read into canonical form."""
    ws = parse_workspace(_MALFORMED_HEAD + "object N { }\n" + declaration + "\n")
    parsed = ws.relations["R"].pairs if "R" in ws.relations else ws.maps["f"].values
    assert parsed == expected


def _parse_by_loops(text):
    """parse_workspace with the bulk paths off, so every body takes the loop."""
    with mock.patch.object(workspace, "_bulk_map", lambda *args: None), mock.patch.object(
        workspace, "_bulk_relation", lambda *args: None
    ):
        return parse_workspace(text)


@st.composite
def serialized_texts(draw):
    """A serialized workspace over atoms and composites, then a map and a
    relation written in the serialized form but off it: the domain in drawn
    order, the pairs in drawn order with repeats."""
    a_names = draw(st.lists(element_names, unique=True, max_size=5))
    c_names = draw(st.lists(element_names, unique=True, min_size=1, max_size=4))
    a, c = FinSet("A", tuple(a_names)), FinSet("C", tuple(c_names))
    f = FinMap(a, c, tuple(draw(st.sampled_from(c_names)) for _ in a_names))
    cells = [(x, z) for x in a_names for z in c_names]
    pairs = draw(st.lists(st.sampled_from(cells), max_size=8)) if cells else []
    ws = Workspace(
        objects={"A": a, "C": c},
        maps={"f": f},
        relations={"R": Relation.from_pairs(a, c, pairs)},
        bundles={"p": Bundle(f)},
    )
    entries = draw(st.permutations(list(zip(a_names, f.values))))
    return (
        serialize_workspace(ws)
        + f"map g : A -> C {{ {' ; '.join(f'{x} -> {z}' for x, z in entries)} }}\n"
        + f"relation S : A ~ C {{ {' '.join(f'({x},{z})' for x, z in pairs)} }}\n"
    )


@settings(max_examples=200, deadline=None)
@given(serialized_texts())
def test_bulk_and_loop_parsing_agree(text):
    assert parse_workspace(text) == _parse_by_loops(text)


_GRAPH_TEXTS = {
    "p3": FIXTURE.read_text(),
    "path": serialize_workspace(path_graph_workspace(12, 2)),
    "complete": serialize_workspace(complete_graph_workspace(5, 2)),
}


@pytest.mark.parametrize("name", _GRAPH_TEXTS)
def test_bulk_and_loop_parsing_agree_on_graphs(name):
    assert parse_workspace(_GRAPH_TEXTS[name]) == _parse_by_loops(_GRAPH_TEXTS[name])


@pytest.mark.parametrize("name", ["path", "complete"])
def test_serialized_bodies_take_the_bulk_path(name, monkeypatch):
    def loop_reached(*args):
        raise AssertionError("a serialized body took the loop")

    monkeypatch.setattr(workspace, "_split_pair", loop_reached)
    monkeypatch.setattr(workspace, "_map_by_entries", loop_reached)
    text = _GRAPH_TEXTS[name]
    assert serialize_workspace(parse_workspace(text)) == text


def test_headers_name_objects_by_their_workspace_key():
    # rand_bundle names its total set "Ae"; the workspace declares it as "E".
    a = FinSet("A", ("a", "b"))
    p = rand_bundle(random.Random(3), a, 2, min_fiber=1)
    assert p.total.name == "Ae"
    ws = Workspace(objects={"A": a, "E": p.total}, maps={"p": p.map})
    text = serialize_workspace(ws)
    assert "map p : E -> A {" in text
    parsed = parse_workspace(text)
    assert parsed.objects["E"].elements == p.total.elements
    assert parsed.maps["p"].values == p.map.values
    assert serialize_workspace(parsed) == text


def test_relation_and_bundle_headers_name_objects_by_key():
    a = FinSet("A", ("a", "b"))
    p = rand_bundle(random.Random(5), a, 2, min_fiber=1)
    ws = Workspace(
        objects={"A": a, "E": p.total},
        relations={"R": Relation.from_pairs(p.total, a, [(p.total.elements[0], "a")])},
        bundles={"q": p, "q2": p},
    )
    text = serialize_workspace(ws)
    assert "relation R : E ~ A {" in text
    assert "map __bundle_q : E -> A {" in text
    assert "bundle q2 = __bundle_q\n" in text
    parsed = parse_workspace(text)
    assert parsed.relations["R"].pairs == ws.relations["R"].pairs
    assert parsed.bundles["q"].map.values == p.map.values
    # The bundle's map sits in the map block, where parsing puts it, so the
    # text is a fixed point of serializing what it parses to.
    assert serialize_workspace(parsed) == text


def test_bundle_map_name_avoids_a_declared_map():
    a = FinSet("A", ("a", "b"))
    e = FinSet("E", ("x", "y"))
    declared = FinMap(e, a, ("a", "a"))
    ws = Workspace(
        objects={"A": a, "E": e},
        maps={"__bundle_q": declared},
        bundles={"q": Bundle(FinMap(e, a, ("a", "b")))},
    )
    text = serialize_workspace(ws)
    parsed = parse_workspace(text)
    assert parsed.maps["__bundle_q"] == declared
    assert parsed.bundles == ws.bundles
    assert serialize_workspace(parsed) == text


def test_undeclared_objects_are_declared_under_their_finset_names():
    a = FinSet("A", ("a", "b"))
    other_a = FinSet("A", ("x",))
    e = FinSet("E", ("e0", "e1"))
    ws = Workspace(
        maps={"f": FinMap(a, other_a, ("x", "x"))},
        relations={"R": Relation.from_pairs(other_a, a, [("x", "b")])},
        bundles={"p": Bundle(FinMap(e, a, ("a", "b")))},
    )
    text = serialize_workspace(ws)
    assert text.startswith("object A { a b }\nobject A_ { x }\nobject E { e0 e1 }\n")
    parsed = parse_workspace(text)
    assert parsed.maps["f"].cod == FinSet("A_", ("x",))
    assert parsed.relations["R"].pairs == (("x", "b"),)
    assert parsed.bundles["p"].map.values == ("a", "b")
    assert serialize_workspace(parsed) == text
