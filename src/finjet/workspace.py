"""Workspace files: named objects, maps, relations and bundles.

Line-oriented grammar, one declaration per line, '#' comments:

    object <name> { <id> <id> ... }
    map <name> : <obj> -> <obj> { <id> -> <id> ; ... }
    relation <name> : <obj> ~ <obj> { (<id>,<id>) ... }
    bundle <name> = <mapname>
    graph <name> on <obj> { <id> -- <id> ... }

Identifiers are whitespace-free.  An element is an atom, with none of
`( ) , | ;` and no `->`, or a canonical composite: a pair name `(<id>,<id>)`
or a table label `(<id>|<10 lowercase hex digits>)`, recursively.  So two
different pairs never share a name, every element can be mapped (map bodies
split at `;` and `->`), and the elements finjet builds and serializes parse
back.  Relation pairs are split at the top-level comma.

A map or relation body exactly in the form `serialize_workspace` writes is
read in bulk by `_bulk_map` and `_bulk_relation`; every other body, and every
error message, goes through the per-entry reading.
"""

from __future__ import annotations

from typing import Optional

from .errors import WorkspaceError
from .finset import FinMap, FinSet
from .polyfun import Bundle
from .relations import Relation


class Workspace:
    """Named objects, maps, relations and bundles; equal when all four tables are."""

    def __init__(
        self,
        objects: Optional[dict[str, FinSet]] = None,
        maps: Optional[dict[str, FinMap]] = None,
        relations: Optional[dict[str, Relation]] = None,
        bundles: Optional[dict[str, Bundle]] = None,
    ):
        self.objects = {} if objects is None else objects
        self.maps = {} if maps is None else maps
        self.relations = {} if relations is None else relations
        self.bundles = {} if bundles is None else bundles

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def map(self, name: str) -> FinMap:
        return self._get(self.maps, name, "map")

    def relation(self, name: str) -> Relation:
        return self._get(self.relations, name, "relation")

    def bundle(self, name: str) -> Bundle:
        return self._get(self.bundles, name, "bundle")

    @staticmethod
    def _get(table, name, kind, line_no=None):
        if name not in table:
            raise WorkspaceError(f"unknown {kind} {name!r}", line_no)
        return table[name]


def _brace_body(rest: str, line_no: int) -> tuple[str, str]:
    """Split "head { body }" into (head, body)."""
    if "{" not in rest or not rest.rstrip().endswith("}"):
        raise WorkspaceError("expected a brace-delimited body", line_no)
    head, _, tail = rest.partition("{")
    body = tail.rstrip()
    body = body[: body.rindex("}")]
    return head.strip(), body.strip()


def _split_pair(token: str, line_no: int) -> tuple[str, str]:
    """Split "(a,b)" at its top-level comma, by a scan that tracks the
    nesting depth."""
    if not (token.startswith("(") and token.endswith(")")):
        raise WorkspaceError(f"expected a pair, got {token!r}", line_no)
    inner = token[1:-1]
    depth = 0
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return inner[:i], inner[i + 1 :]
    raise WorkspaceError(f"pair {token!r} has no top-level comma", line_no)


_RESERVED = "(),|;"
_HEX = frozenset("0123456789abcdef")


def _has_reserved(text: str) -> bool:
    """Whether text holds one of `( ) , | ;` or `->`: six substring scans,
    so atoms cost almost nothing to check."""
    return any(ch in text for ch in _RESERVED) or "->" in text


def _is_element_name(token: str) -> bool:
    """Whether token is an atom or a canonical composite (module docstring).

    Read left to right with one flag per open composite, saying whether its
    separator has been read, so nesting depth costs no recursion.
    """
    if not _has_reserved(token):
        return bool(token)
    if "->" in token:
        return False
    after_sep: list[bool] = []
    i, n = 0, len(token)
    while True:
        while token.startswith("(", i):
            after_sep.append(False)
            i += 1
        start = i
        while i < n and token[i] not in _RESERVED:
            i += 1
        if i == start:
            return False
        # An identifier ends at i: close the composites it completes.
        while after_sep:
            if after_sep[-1]:
                if not token.startswith(")", i):
                    return False
                i += 1
            elif token.startswith(",", i):
                after_sep[-1] = True
                i += 1
                break  # read the pair's second identifier
            elif (
                token.startswith("|", i)
                and _HEX.issuperset(token[i + 1 : i + 11])
                and token.startswith(")", i + 11)
            ):
                i += 12
            else:
                return False
            after_sep.pop()
        else:
            return i == n


def parse_workspace(text: str) -> Workspace:
    ws = Workspace()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        if keyword == "object":
            _parse_object(ws, rest, line_no)
        elif keyword == "map":
            _parse_map(ws, rest, line_no)
        elif keyword == "relation":
            _parse_relation(ws, rest, line_no)
        elif keyword == "graph":
            _parse_graph(ws, rest, line_no)
        elif keyword == "bundle":
            _parse_bundle(ws, rest, line_no)
        else:
            raise WorkspaceError(f"unknown declaration {keyword!r}", line_no)
    return ws


def _declare(table: dict, name: str, value, kind: str, line_no: int) -> None:
    if not name:
        raise WorkspaceError(f"missing {kind} name", line_no)
    if name in table:
        raise WorkspaceError(f"{kind} {name!r} declared twice", line_no)
    table[name] = value


def _parse_object(ws: Workspace, rest: str, line_no: int) -> None:
    head, body = _brace_body(rest, line_no)
    elements = tuple(body.split())
    if _has_reserved(body):
        for token in elements:
            if not _is_element_name(token):
                raise WorkspaceError(
                    f"{token!r} is not an element name: use an atom without ( ) , | ; -> "
                    "or a composite (x,y) or (x|<10 lowercase hex digits>)",
                    line_no,
                )
    if len(set(elements)) != len(elements):
        raise WorkspaceError("duplicate element in object", line_no)
    _declare(ws.objects, head, FinSet(head, elements), "object", line_no)


def _arrow_header(
    ws: Workspace, rest: str, line_no: int, kind: str, sep: str
) -> tuple[str, FinSet, FinSet, str]:
    """The name, the two objects and the body of `<name> : <obj> <sep> <obj> { ... }`."""
    head, body = _brace_body(rest, line_no)
    name, _, ends = head.partition(":")
    if sep not in ends:
        raise WorkspaceError(f"{kind} header needs '<obj> {sep} <obj>'", line_no)
    left, _, right = ends.partition(sep)
    objects = (ws._get(ws.objects, end.strip(), "object", line_no) for end in (left, right))
    return (name.strip(), *objects, body)


def _parse_map(ws: Workspace, rest: str, line_no: int) -> None:
    name, dom, cod, body = _arrow_header(ws, rest, line_no, "map", "->")
    fmap = _bulk_map(body, dom, cod)
    if fmap is None:
        fmap = _map_by_entries(body, dom, cod, line_no)
    _declare(ws.maps, name, fmap, "map", line_no)


def _bulk_map(body: str, dom: FinSet, cod: FinSet) -> Optional[FinMap]:
    """The map when body is exactly what `serialize_workspace` writes, with
    dom in order and every value in cod, else None.  Element names hold no
    whitespace, `;` or `->`, so a body that spells `<src> -> <dst> ; ...`
    from its own tokens has one entry per source."""
    flat = body.split()
    srcs, dsts = flat[0::4], flat[2::4]
    if tuple(srcs) != dom.elements or " ; ".join(map(" -> ".join, zip(srcs, dsts))) != body:
        return None
    try:
        return FinMap(dom, cod, tuple(dsts))
    except ValueError:
        return None


def _map_by_entries(body: str, dom: FinSet, cod: FinSet, line_no: int) -> FinMap:
    """The map read entry by entry: the reading that words every error."""
    dom_index, cod_index = dom.index, cod.index
    table: dict[str, str] = {}
    for entry in body.split(";"):
        src, arrow, dst = entry.partition("->")
        if not arrow:
            entry = entry.strip()
            if entry:
                raise WorkspaceError(f"map entry {entry!r} needs '->'", line_no)
            continue
        src, dst = src.strip(), dst.strip()
        if src not in dom_index:
            raise WorkspaceError(f"{src!r} is not in object {dom.name!r}", line_no)
        if dst not in cod_index:
            raise WorkspaceError(f"{dst!r} is not in object {cod.name!r}", line_no)
        if src in table:
            raise WorkspaceError(f"element {src!r} assigned twice", line_no)
        table[src] = dst
    if len(table) != len(dom):
        missing = next(e for e in dom if e not in table)
        raise WorkspaceError(f"element {missing!r} has no assignment", line_no)
    return FinMap(dom, cod, tuple(map(table.__getitem__, dom.elements)))


def _parse_relation(ws: Workspace, rest: str, line_no: int) -> None:
    name, src, dst, body = _arrow_header(ws, rest, line_no, "relation", "~")
    rel = _bulk_relation(body, src, dst)
    if rel is None:
        rel = _relation_by_pairs(body, src, dst, line_no)
    _declare(ws.relations, name, rel, "relation", line_no)


def _bulk_relation(body: str, src: FinSet, dst: FinSet) -> Optional[Relation]:
    """The relation when body is exactly what `serialize_workspace` writes for
    pairs of atoms in canonical order, without repeats and inside src x dst,
    else None.  A composite element loses its parentheses and commas to the
    split below, so its body no longer spells itself and takes the loop; so
    does an empty body, which the loop reads as the empty relation."""
    flat = body.replace("(", " ").replace(")", " ").replace(",", " ").split()
    pairs = tuple(zip(flat[0::2], flat[1::2]))
    if not pairs or "(" + ") (".join(map(",".join, pairs)) + ")" != body:
        return None
    try:
        return Relation(src, dst, pairs)
    except ValueError:
        return None


def _relation_by_pairs(body: str, src: FinSet, dst: FinSet, line_no: int) -> Relation:
    """The relation read pair by pair, deduplicated and sorted: the reading
    that words every error."""
    src_index, dst_index = src.index, dst.index
    pairs = []
    for token in body.split():
        a, b = _split_pair(token, line_no)
        if a not in src_index:
            raise WorkspaceError(f"{a!r} is not in object {src.name!r}", line_no)
        if b not in dst_index:
            raise WorkspaceError(f"{b!r} is not in object {dst.name!r}", line_no)
        pairs.append((a, b))
    return Relation.from_pairs(src, dst, pairs)


def _parse_graph(ws: Workspace, rest: str, line_no: int) -> None:
    head, body = _brace_body(rest, line_no)
    name, _, obj_name = head.partition(" on ")
    if not obj_name:
        raise WorkspaceError("graph header needs 'on <obj>'", line_no)
    carrier = ws._get(ws.objects, obj_name.strip(), "object", line_no)
    tokens = body.split()
    if len(tokens) % 3 != 0:
        raise WorkspaceError("graph body must be '<id> -- <id>' edges", line_no)
    index = carrier.index
    pairs = []
    for i in range(0, len(tokens), 3):
        a, dashes, b = tokens[i : i + 3]
        if dashes != "--":
            raise WorkspaceError(f"expected '--', got {dashes!r}", line_no)
        for v in (a, b):
            if v not in index:
                raise WorkspaceError(f"{v!r} is not in object {carrier.name!r}", line_no)
        pairs.append((a, b))
        pairs.append((b, a))
    _declare(
        ws.relations,
        name.strip(),
        Relation.from_pairs(carrier, carrier, pairs),
        "relation",
        line_no,
    )


def _parse_bundle(ws: Workspace, rest: str, line_no: int) -> None:
    name, eq, map_name = rest.partition("=")
    if not eq:
        raise WorkspaceError("bundle declaration needs '= <mapname>'", line_no)
    target = ws._get(ws.maps, map_name.strip(), "map", line_no)
    _declare(ws.bundles, name.strip(), Bundle(target), "bundle", line_no)


def serialize_workspace(ws: Workspace) -> str:
    """The workspace as text that parses back, and serializes to the same
    text once parsed.  Headers name each object by the first key it is
    declared under in `ws.objects`.  An object that a map, relation or bundle
    mentions but `ws.objects` lacks is declared after the others, in the
    order first mentioned, under its FinSet name; a bundle whose map is not
    declared gets a map `__bundle_<name>` at the end of the map block, where
    parsing puts it.  Either name has "_" appended while it is taken."""
    maps = dict(ws.maps)
    bundle_maps: dict[str, str] = {}
    for name, bundle in ws.bundles.items():
        map_name = next((n for n, m in maps.items() if m == bundle.map), None)
        if map_name is None:
            map_name = f"__bundle_{name}"
            while map_name in maps:
                map_name += "_"
            maps[map_name] = bundle.map
        bundle_maps[name] = map_name
    objects = dict(ws.objects)
    keys = {obj: name for name, obj in reversed(ws.objects.items())}

    def key(obj: FinSet) -> str:
        if obj not in keys:
            name = obj.name
            while name in objects:
                name += "_"
            objects[name], keys[obj] = obj, name
        return keys[obj]

    body = []
    for name, fmap in maps.items():
        entries = " ; ".join(f"{k} -> {v}" for k, v in zip(fmap.dom.elements, fmap.values))
        body.append(f"map {name} : {key(fmap.dom)} -> {key(fmap.cod)} {{ {entries} }}")
    for name, rel in ws.relations.items():
        pairs = " ".join(f"({a},{b})" for a, b in rel.pairs)
        body.append(f"relation {name} : {key(rel.over)} ~ {key(rel.stage)} {{ {pairs} }}")
    body += [f"bundle {name} = {map_name}" for name, map_name in bundle_maps.items()]
    lines = [f"object {name} {{ {' '.join(obj.elements)} }}" for name, obj in objects.items()]
    return "\n".join(line.replace("{  }", "{ }") for line in lines + body) + "\n"
