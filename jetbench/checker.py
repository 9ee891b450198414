"""Independent checks of finjet's `--format records` outputs against closed-form answers.

Every check returns quietly when the output is right and raises `ValueError`
with a one-line reason when it is not.  Expected answers come from a
`GraphSpec` (plain data) and the closed forms in it, never from finjet itself.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Optional

from .gen import GraphSpec

# The 14 suites of `finjet check --suite all`, in report order.
SUITE_NAMES = (
    "pullback-laws",
    "extensionality",
    "membership",
    "yoneda",
    "monad-stability",
    "morphisms",
    "fiber-count",
    "classify",
    "phi-laws",
    "poly-iso",
    "adjunction",
    "beck-chevalley",
    "terminality",
    "global-functor",
)

_REPORT = re.compile(
    r"suite=(?P<suite>\S+) seed=(?P<seed>-?\d+) max-obj=(?P<max_obj>\d+) "
    r"max-fiber=(?P<max_fiber>\d+) trials=(?P<trials>\d+) instances=(?P<instances>\d+) "
    r"passed=\d+ failed=(?P<failed>\d+) result=(?P<result>PASS|FAIL)"
)

# A parsed jet bundle: element -> (base point, table {vertex: fiber element}).
Bundle = dict[str, tuple[str, dict[str, str]]]


def _records(text: str, tag: str, width: int) -> list[list[str]]:
    rows = [line.split("\t") for line in text.splitlines()]
    for row in rows:
        if len(row) != width or row[0] != tag:
            raise ValueError(f"unexpected record {row[:3]!r}")
    return rows


def _arrow_table(flat: str) -> dict[str, str]:
    table = {}
    for entry in flat.split(" ") if flat else ():
        key, sep, value = entry.partition("->")
        if not sep or key in table:
            raise ValueError(f"bad table entry {entry!r}")
        table[key] = value
    return table


def check_suites(text: str, seed: int, max_obj: int, max_fiber: int, trials: int) -> None:
    """Every suite reported once, in order, at the given bounds, with PASS and no failure."""
    lines = text.splitlines()
    if len(lines) != len(SUITE_NAMES):
        raise ValueError(f"expected {len(SUITE_NAMES)} report lines, got {len(lines)}")
    want = {
        "seed": str(seed),
        "max_obj": str(max_obj),
        "max_fiber": str(max_fiber),
        "trials": str(trials),
        "instances": str(trials),
        "failed": "0",
        "result": "PASS",
    }
    for name, line in zip(SUITE_NAMES, lines):
        m = _REPORT.fullmatch(line)
        if m is None or m["suite"] != name:
            raise ValueError(f"report line for {name} malformed: {line[:80]!r}")
        for key, value in want.items():
            if m[key] != value:
                raise ValueError(f"suite {name}: {key}={m[key]}, expected {value}")


def check_same(text: str, reference: Optional[str]) -> None:
    """Byte-for-byte equality with an earlier output."""
    if reference is None:
        raise ValueError("no reference output to compare with")
    if text != reference:
        raise ValueError("output differs from the reference output")


def check_pullback(text: str, spec: GraphSpec) -> None:
    """`pullback --left p --right p`: one element "(a,b)" per pair in a common fiber."""
    rows = _records(text, "element", 4)
    if len(rows) != spec.pullback_total:
        raise ValueError(f"{len(rows)} pullback elements, expected {spec.pullback_total}")
    expected = {(a, b) for es in spec.fiber.values() for a in es for b in es}
    got = set()
    for _, name, a, b in rows:
        if name != f"({a},{b})":
            raise ValueError(f"pullback element {name!r} is not named by its pair")
        got.add((a, b))
    if got != expected:
        raise ValueError("pullback pairs differ from the matching pairs")


def parse_jetbundle(text: str, spec: GraphSpec) -> Bundle:
    """Parse and check `jetbundle` records; raises ValueError on the first mismatch.

    Checks the closed-form total, the size of every fiber, that each table is
    a section over the ball of its base, and that tables are distinct per base
    (so each fiber holds every jet exactly once).
    """
    rows = _records(text, "element", 4)
    if len(rows) != spec.jets_total:
        raise ValueError(f"{len(rows)} jet-bundle elements, expected {spec.jets_total}")
    bundle: Bundle = {}
    seen = set()
    for _, name, base, flat in rows:
        if base not in spec.ball:
            raise ValueError(f"element {name!r} over unknown base {base!r}")
        table = _arrow_table(flat)
        if set(table) != spec.ball[base]:
            raise ValueError(f"element {name!r}: table is not over the ball of {base}")
        if any(e not in spec.fiber[a] for a, e in table.items()):
            raise ValueError(f"element {name!r}: a value leaves its fiber")
        key = (base, tuple(sorted(table.items())))
        if name in bundle or key in seen:
            raise ValueError(f"element {name!r} or its table appears twice")
        seen.add(key)
        bundle[name] = (base, table)
    sizes = Counter(base for base, _ in bundle.values())
    for v in spec.vertices:
        if sizes[v] != spec.jets_at(v):
            raise ValueError(f"fiber over {v} has {sizes[v]} jets, expected {spec.jets_at(v)}")
    return bundle


def check_polyjet(text: str, spec: GraphSpec) -> None:
    """`polyjet`: the jet-bundle fiber sizes, each element a distinct section over its span fiber.

    Over base b, a section sends each span element "(a,b)" (a in the ball of
    b) to a pulled-back element "((a,b),e)" with e in the fiber over a.
    """
    rows = _records(text, "element", 4)
    if len(rows) != spec.jets_total:
        raise ValueError(f"{len(rows)} polynomial elements, expected {spec.jets_total}")
    sizes = Counter()
    seen = set()
    for _, name, base, flat in rows:
        if base not in spec.ball:
            raise ValueError(f"element {name!r} over unknown base {base!r}")
        table = _arrow_table(flat)
        span = {f"({a},{base})": a for a in spec.ball[base]}
        if set(table) != set(span):
            raise ValueError(f"element {name!r}: section is not over the span fiber of {base}")
        for m, value in table.items():
            e = value[len(m) + 2 : -1]
            if value != f"({m},{e})" or e not in spec.fiber[span[m]]:
                raise ValueError(f"element {name!r}: {m} -> {value} leaves its fiber")
        if name in seen or (base, flat) in seen:
            raise ValueError(f"element {name!r} or its section appears twice")
        seen.update((name, (base, flat)))
        sizes[base] += 1
    for v in spec.vertices:
        if sizes[v] != spec.jets_at(v):
            raise ValueError(
                f"polynomial fiber over {v} has {sizes[v]} elements, "
                f"expected {spec.jets_at(v)}"
            )


def check_classify(
    text: str, spec: GraphSpec, bundle: Optional[Bundle], point: str, index: int
) -> None:
    """`classify`: the target is the jet-bundle element over point holding the index-th jet."""
    if bundle is None:
        raise ValueError("no checked jet bundle to look the target up in")
    rows = _records(text, "classified", 3)
    if len(rows) != 1 or rows[0][1] != str(index):
        raise ValueError("classify should print exactly one record for the index")
    target = rows[0][2]
    if target not in bundle:
        raise ValueError(f"classified target {target!r} is not a jet-bundle element")
    base, table = bundle[target]
    if base != point:
        raise ValueError(f"classified target lies over {base}, expected {point}")
    if table != spec.jet(point, index):
        raise ValueError("classified target holds another jet")


def check_phi(text: str, spec: GraphSpec, point: str, index: int) -> None:
    """`phi` along the identity: one entry per monad pair, (a,*) -> (a, j(a))."""
    rows = _records(text, "jet", 3)
    if len(rows) != 1 or rows[0][1] != str(index):
        raise ValueError("phi should print exactly one record for the index")
    table = _arrow_table(rows[0][2])
    if len(table) != len(spec.ball[point]):
        raise ValueError(f"phi table has {len(table)} entries, expected {len(spec.ball[point])}")
    expected = {f"({a},*)": f"({a},{e})" for a, e in spec.jet(point, index).items()}
    if table != expected:
        raise ValueError("phi table differs from the transported jet")


_LABEL = r"\({v}\|[0-9a-f]+\)"  # a jet-bundle element "(base|hash)"


def check_dualjet(text: str, spec: GraphSpec) -> None:
    """`dualjet` on the identity Cartesian comorphism: a bijective vertical |J| -> |J|.

    Each pair "(v,(v|...))" of the pulled-back jet bundle goes to an element
    "(v|...)" over the same base v, and every fiber keeps its jet count.
    """
    rows = _records(text, "vertical", 3)
    if len(rows) != spec.jets_total:
        raise ValueError(f"vertical has {len(rows)} elements, expected {spec.jets_total}")
    if len({r[1] for r in rows}) != len(rows) or len({r[2] for r in rows}) != len(rows):
        raise ValueError("identity vertical is not a bijection")
    sizes = Counter()
    for _, source, target in rows:
        v = source[1:].partition(",")[0]
        label = _LABEL.format(v=re.escape(v))
        if v not in spec.ball or not re.fullmatch(rf"\({re.escape(v)},{label}\)", source):
            raise ValueError(f"vertical source {source!r} is not a pulled-back jet")
        if not re.fullmatch(label, target):
            raise ValueError(f"vertical moves {source!r} off its base to {target!r}")
        sizes[v] += 1
    for v in spec.vertices:
        if sizes[v] != spec.jets_at(v):
            raise ValueError(f"vertical fiber over {v} has {sizes[v]} elements, expected {spec.jets_at(v)}")
