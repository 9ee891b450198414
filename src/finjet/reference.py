"""Second routes to library results, kept as test oracles.

Each function here decides or builds something the library already computes
by a faster route, straight from the definition.  Nothing in the library
calls them; the tests compare the two routes.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .errors import ShapeMismatch
from .fibdual import generic_section_vertical
from .finset import FinMap, FinSet, Span, pullback
from .jets import jet_bundle
from .kripke import canonicalize
from .polyfun import Bundle, SliceMorphism


def distributivity_terminal_brute(
    c: FinMap,
    d: FinMap,
    p: Bundle,
    candidate: Optional[SliceMorphism] = None,
    max_total: int = 4,
) -> bool:
    """`fibdual.distributivity_terminal` by enumeration.

    Enumerates every bundle over d's codomain with at most max_total elements
    (plus the jet bundle itself) and every vertical from its pullback into
    c*(p), and requires exactly one mediating vertical through the candidate
    (by default the true generic section jet).  A candidate that does not run
    from d*(J(p)) to c*(p) raises ShapeMismatch.
    """
    relation = canonicalize(Span(c, d))
    jb = jet_bundle(relation, p.map)
    jet_total = Bundle(jb.projection)
    epsilon = candidate if candidate is not None else generic_section_vertical(c, d, p, jb)
    sq_eps = pullback(d, jb.projection)
    pulled_c = Bundle(pullback(c, p.map).to_left)
    if epsilon.src != Bundle(sq_eps.to_left) or epsilon.dst != pulled_c:
        raise ShapeMismatch("candidate does not run from d*(J(p)) to c*(p)")
    eps_lookup = dict(zip(epsilon.arrow.dom.elements, epsilon.arrow.values))
    base = d.cod
    candidates: list[Bundle] = [jet_total]
    for size in range(max_total + 1):
        carrier = FinSet(f"cand{size}", tuple(f"t{i}" for i in range(size)))
        if size == 0:
            candidates.append(Bundle(FinMap(carrier, base, ())))
            continue
        if len(base) == 0:
            continue
        for values in itertools.product(base.elements, repeat=size):
            candidates.append(Bundle(FinMap(carrier, base, values)))
    for t in candidates:
        sq_t = pullback(d, t.map)
        points = [(sq_t.to_left(x), sq_t.to_right(x)) for x in sq_t.apex]
        spots = {tt: i for i, tt in enumerate(t.total.elements)}
        u_options = [jet_total.fiber(t.map(tt)) for tt in t.total]
        transposed: dict[tuple[str, ...], int] = {}
        if all(u_options):
            for u_values in itertools.product(*u_options):
                key = tuple(
                    eps_lookup[sq_eps.pair_index[(m, u_values[spots[tt]])]]
                    for m, tt in points
                )
                transposed[key] = transposed.get(key, 0) + 1
        v_options = [pulled_c.fiber(m) for m, _ in points]
        if not all(v_options):
            # No verticals out of this pullback; nothing to mediate.
            continue
        for v_values in itertools.product(*v_options):
            if transposed.get(v_values, 0) != 1:
                return False
    return True
