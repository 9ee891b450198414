"""Finite sets and total maps: the ambient category.

Everything here is immutable and canonical.  Derived objects (the apexes
of `canonical_span`) get deterministic element names, so constructions
that are unique only up to isomorphism in general become literally equal
here, and the functoriality laws downstream hold as equalities of tables.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import ShapeMismatch


class cached_property:
    """A method turned into an attribute computed on first access and then
    stored in the instance's `__dict__` under the method's name, where later
    reads find it without calling `__get__`.

    `functools.cached_property` does the same but takes a lock on every
    first access on Python 3.11, which costs more than twice as much; finjet's
    objects are immutable and built by one thread, so no lock is needed.
    `Frozen` records accept the write because it bypasses `__setattr__`,
    and pickling carries the stored values along with the fields.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class Frozen:
    """Base of finjet's immutable records; it generates no code.

    A record's fields are its class's own annotations, in order (`_fields`).
    Each record writes its `__init__`: it stores every field with
    `object.__setattr__`, then checks its invariant.  The base makes
    assignment and deletion raise AttributeError, hashes the field tuple,
    prints `Cls(field=value, ...)` and compares field by field; records that
    a check run compares often write the faster field-tuple `__eq__`.
    """

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        # A class body that defines `__eq__` gets `__hash__ = None`.
        if cls.__hash__ is None:
            cls.__hash__ = Frozen.__hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


def pair_name(a: str, b: str) -> str:
    return f"({a},{b})"


def table_label(anchor: str, entries: Iterable[str]) -> str:
    """Deterministic short name "(anchor|hash)" for a table anchored at an element.

    Each entry is one "point:value" string, in canonical order; the hash is
    over the entries joined by ";", which no workspace element name
    contains.  Collisions are caught by the uniqueness check of the FinSet
    the labels end up in.
    """
    blob = ";".join(entries)
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:10]
    return f"({anchor}|{digest})"


class FinSet(Frozen):
    """A named finite set with a fixed element order."""

    name: str
    elements: tuple[str, ...]

    def __init__(self, name: str, elements: tuple[str, ...]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "elements", elements)
        if len(set(elements)) != len(elements):
            raise ValueError(f"duplicate elements in finite set {name!r}")

    def __eq__(self, other) -> bool:
        """Equal name and elements, decided at once for the same object,
        which is most comparisons (every compose and pullback guard).
        `Frozen` still supplies `__hash__` from both fields."""
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name and self.elements == other.elements

    @cached_property
    def index(self) -> Mapping[str, int]:
        return {e: i for i, e in enumerate(self.elements)}

    def __contains__(self, element: str) -> bool:
        return element in self.index

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"FinSet({self.name!r}, {list(self.elements)!r})"


# The stage used for ordinary points a: 1 -> A.
UNIT = FinSet("1", ("*",))


def probe_stage(size: int) -> FinSet:
    """The stage {x0, ..., x(size-1)}, named "stage<size>", that probes
    generalized elements of that size."""
    return FinSet(f"stage{size}", tuple(f"x{i}" for i in range(size)))


class FinMap(Frozen):
    """A total map between finite sets, stored as the value tuple in dom order."""

    dom: FinSet
    cod: FinSet
    values: tuple[str, ...]

    def __init__(self, dom: FinSet, cod: FinSet, values: tuple[str, ...]):
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "values", values)
        self.__post_init__()

    def __post_init__(self):
        """The constructor's validation, a method of its own under this name
        because the benchmark's tracer patches it to count and time it."""
        if len(self.values) != len(self.dom):
            raise ValueError("map table does not cover the domain")
        index = self.cod.index
        for v in self.values:
            if v not in index:
                raise ValueError(f"value {v!r} not in codomain {self.cod.name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return (self.dom, self.cod, self.values) == (other.dom, other.cod, other.values)
        return NotImplemented

    @staticmethod
    def _make(dom, cod, values) -> "FinMap":
        """The map with these fields, without running its validation.

        Eight classes have such a `_make`, taking their fields in declaration
        order, for values valid by construction: every field comes from
        validated objects through an operation that preserves validity,
        after that operation's own guards.  So each property is checked once,
        by a suite or a test, not on every build.  The rule, which
        `tests/test_boundary.py` pins both ways: `cli`, `workspace` and
        `instances`, which take outside input, never call a `_make`; the
        library modules call a checked constructor only where a raw value
        may arrive, in `element` and in the escape branch of `from_pairs`
        (`test_checked_constructors_run_only_at_the_boundary`).  A test
        swaps every `_make` for its checked constructor and requires
        identical output.
        """
        obj = object.__new__(FinMap)
        d = obj.__dict__
        d["dom"] = dom
        d["cod"] = cod
        d["values"] = values
        return obj

    @classmethod
    def identity(cls, a: FinSet) -> "FinMap":
        return cls._make(a, a, a.elements)

    @property
    def table(self) -> dict[str, str]:
        return dict(zip(self.dom.elements, self.values))

    def __call__(self, element: str) -> str:
        return self.values[self.dom.index[element]]

    @cached_property
    def fibers(self) -> Mapping[str, tuple[str, ...]]:
        """The fiber index: every codomain element's preimage, in domain order."""
        out: dict[str, list[str]] = {c: [] for c in self.cod}
        for x, c in zip(self.dom.elements, self.values):
            out[c].append(x)
        return {c: tuple(xs) for c, xs in out.items()}

    def fiber(self, c: str) -> tuple[str, ...]:
        return self.fibers[c]

    def __repr__(self) -> str:
        entries = ", ".join(f"{k}->{v}" for k, v in zip(self.dom.elements, self.values))
        return f"FinMap({self.dom.name}->{self.cod.name}: {entries})"


def element(a: FinSet, x: str) -> FinMap:
    """The point 1 -> a picking x."""
    return FinMap(UNIT, a, (x,))


def compose(g: FinMap, f: FinMap) -> FinMap:
    """g after f (maps compose right to left)."""
    if f.cod != g.dom:
        raise ShapeMismatch(f"cannot compose: {f.cod.name!r} is not {g.dom.name!r}")
    at, table = g.dom.index, g.values
    return FinMap._make(f.dom, g.cod, tuple([table[at[v]] for v in f.values]))


def is_monic(f: FinMap) -> bool:
    return len(set(f.values)) == len(f.values)


class Span(Frozen):
    """Two maps out of a shared apex: left: M -> A, right: M -> X."""

    left: FinMap
    right: FinMap

    def __init__(self, left: FinMap, right: FinMap):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        if left.dom != right.dom:
            raise ValueError("span legs must share their domain")

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented

    @staticmethod
    def _make(left, right) -> "Span":
        obj = object.__new__(Span)
        d = obj.__dict__
        d["left"] = left
        d["right"] = right
        return obj

    @property
    def apex(self) -> FinSet:
        return self.left.dom


def is_jointly_monic(s: Span) -> bool:
    seen = set()
    for m in s.apex:
        key = (s.left(m), s.right(m))
        if key in seen:
            return False
        seen.add(key)
    return True


def span_leq(s: Span, s2: Span) -> Optional[FinMap]:
    """The unique mediating map s.apex -> s2.apex commuting with both legs, if any."""
    if not is_jointly_monic(s) or not is_jointly_monic(s2):
        raise ShapeMismatch("span_leq requires jointly monic spans")
    if s.left.cod != s2.left.cod or s.right.cod != s2.right.cod:
        raise ShapeMismatch("spans do not share their ends")
    lookup = {(s2.left(m), s2.right(m)): m for m in s2.apex}
    values = []
    for m in s.apex:
        target = lookup.get((s.left(m), s.right(m)))
        if target is None:
            return None
        values.append(target)
    return FinMap._make(s.apex, s2.apex, tuple(values))


def canonical_span(
    name: str, pairs: Sequence[tuple[str, str]], left: FinSet, right: FinSet
) -> Span:
    """The span left <- name -> right whose apex holds one element per pair,
    in the order given: the pair (a, b) is the apex element
    `pair_name(a, b)`, and the legs send it to a and to b.

    Every canonical apex, a pullback's and a subobject's, is built here, and
    callers address its elements by `pair_name`, keeping no index of their
    own.  The pairs must lie in left x right; the apex is checked, so pair
    names that collide raise.
    """
    apex = FinSet(name, tuple([pair_name(a, b) for a, b in pairs]))
    return Span._make(
        FinMap._make(apex, left, tuple([a for a, _ in pairs])),
        FinMap._make(apex, right, tuple([b for _, b in pairs])),
    )


def pullback(f: FinMap, p: FinMap) -> Span:
    """Canonical pullback of f: A -> C against p: B -> C, as the canonical
    span pb(A,B) of the matching pairs.

    Apex elements are exactly the matching pairs, in lexicographic order of
    (index of a in A, index of b in B): a hash join that walks A in order and
    reads each a's partners off p's fiber index, which keeps B order.
    """
    if f.cod != p.cod:
        raise ShapeMismatch(f"pullback legs land in {f.cod.name!r} and {p.cod.name!r}")
    pairs = [
        (a, b)
        for a, c in zip(f.dom.elements, f.values)
        for b in p.fiber(c)
    ]
    return canonical_span(f"pb({f.dom.name},{p.dom.name})", pairs, f.dom, p.dom)


def pair_into_pullback(a: FinMap, b: FinMap, pb: Span) -> FinMap:
    """The mediating map <a, b> into a pullback apex.

    Each x goes to the apex element `pair_name(a(x), b(x))`.  Names of
    library FinSets need not be injective (("x", "y,z") and ("x,y", "z")
    share one), so both legs are compared at the element found.
    """
    if a.dom != b.dom:
        raise ShapeMismatch("cone legs must share their stage")
    if a.cod != pb.left.cod or b.cod != pb.right.cod:
        raise ShapeMismatch("cone legs do not match the pullback legs")
    at, lefts, rights = pb.apex.index.get, pb.left.values, pb.right.values
    values = []
    for x, u, w in zip(a.dom.elements, a.values, b.values):
        m = pair_name(u, w)
        i = at(m)
        if i is None or lefts[i] != u or rights[i] != w:
            raise ShapeMismatch(f"cone does not commute at {x!r}")
        values.append(m)
    return FinMap._make(a.dom, pb.apex, tuple(values))


def all_maps(dom: FinSet, cod: FinSet) -> Iterator[FinMap]:
    """Every map dom -> cod, in lexicographic order of value tuples."""
    for values in itertools.product(cod.elements, repeat=len(dom)):
        yield FinMap._make(dom, cod, values)
