"""Hypothesis strategies, graph workspaces and the path fixture shared by
the test modules."""

from hypothesis import strategies as st

from finjet.finset import FinMap, FinSet, pair_name
from finjet.polyfun import Bundle
from finjet.relations import EndoRelation, Relation, ball_relation, is_reflexive, is_symmetric
from finjet.workspace import Workspace


def shuffled_finsets(name, max_size=4):
    """Sets of 0..max_size elements declared out of name order."""
    names = st.integers(0, max_size).flatmap(
        lambda n: st.permutations([f"{name.lower()}{i}" for i in range(n)])
    )
    return names.map(lambda elements: FinSet(name, tuple(elements)))


@st.composite
def maps_into(draw, name, cod):
    dom = draw(shuffled_finsets(name, 4 if len(cod) else 0))
    return FinMap(dom, cod, draw(st.tuples(*(st.sampled_from(cod.elements) for _ in dom))))


# Element names of the workspace grammar: atoms, and the composites
# (x,y) and (x|<10 lowercase hex digits>), recursively.  Atoms may hold
# "-" and ">", but not next to each other: "->" is reserved.
_ATOMS = st.text("abxyz019.*_->", min_size=1, max_size=3).filter(lambda atom: "->" not in atom)
_DIGESTS = st.text("0123456789abcdef", min_size=10, max_size=10)
element_names = st.recursive(
    _ATOMS,
    lambda ids: st.one_of(
        st.builds(pair_name, ids, ids),
        st.builds(lambda anchor, digest: f"({anchor}|{digest})", ids, _DIGESTS),
    ),
    max_leaves=6,
)


def constant_map(dom, cod, value):
    """The map dom -> cod with the one value `value`."""
    return FinMap(dom, cod, (value,) * len(dom))


def full_subobject(over, stage):
    """Every pair of over x stage: the full relation from over to stage."""
    return Relation(over, stage, tuple((a, x) for a in over for x in stage))


def empty_subobject(over, stage):
    """No pair of over x stage: the empty relation from over to stage."""
    return Relation(over, stage, ())


def _graph_workspace(n, fiber_size, relations):
    """Vertices v0..v(n-1) as A, every fiber of p: E -> A of size fiber_size,
    the identity id: A -> A, the relations that `relations(A)` returns and
    bundle p, so every data command runs on it (phi and dualjet along id)."""
    a = FinSet("A", tuple(f"v{i}" for i in range(n)))
    e = FinSet("E", tuple(f"{v}.e{k}" for v in a for k in range(fiber_size)))
    p = FinMap(e, a, tuple(v for v in a for _ in range(fiber_size)))
    return Workspace(
        objects={"A": a, "E": e},
        maps={"p": p, "id": FinMap.identity(a)},
        relations=relations(a),
        bundles={"p": Bundle(p)},
    )


def path_graph_workspace(n, fiber_size):
    """Path graph v0 - v1 - ... - v(n-1) as adj, and its radius-1 ball as R."""

    def relations(a):
        edges = zip(a.elements, a.elements[1:])
        adjacency = Relation.from_pairs(a, a, [pair for u, v in edges for pair in ((u, v), (v, u))])
        return {"adj": adjacency, "R": ball_relation(adjacency, 1).base}

    return _graph_workspace(n, fiber_size, relations)


def complete_graph_workspace(n, fiber_size):
    """Complete graph K_n with the full relation as R."""
    return _graph_workspace(n, fiber_size, lambda a: {"R": full_subobject(a, a)})


def fixture_p3():
    """Path graph a - b - c, ball radius 1, bundle fibers of sizes 2/1/2."""
    ws = Workspace()
    a = FinSet("A", ("a", "b", "c"))
    e = FinSet("E", ("a0", "a1", "b0", "c0", "c1"))
    ws.objects["A"] = a
    ws.objects["E"] = e
    p = FinMap(e, a, ("a", "a", "b", "c", "c"))
    ws.maps["p"] = p
    adjacency = Relation.from_pairs(a, a, [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")])
    ws.relations["adj"] = adjacency
    ws.relations["R"] = ball_relation(adjacency, 1).base
    ws.bundles["p"] = Bundle(p)
    return ws


def fixture_p3_parts():
    """(A, E, p, ball relation) of the path fixture, as plain values."""
    ws = fixture_p3()
    ball = EndoRelation(ws.relations["R"])
    assert is_reflexive(ball.base) and is_symmetric(ball.base)
    return ws.objects["A"], ws.objects["E"], ws.maps["p"], ball
