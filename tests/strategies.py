"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from finjet.finset import FinMap, FinSet


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
