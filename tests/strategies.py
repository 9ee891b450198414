"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from finjet.finset import FinMap, FinSet, pair_name


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
