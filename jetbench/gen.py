"""Seeded graph workspaces for the benchmark: path graphs P_n and complete graphs K_m.

Each generator draws vertex and fiber names from the seed, shuffles the order
in which they are declared, and returns a plain-Python description of the
workspace (`GraphSpec`).  `build_workspace` turns it into finjet objects and
`write_workspace` serializes, writes and re-parses them.  The output checker
works from the description only, so its answers do not go through the code it
checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

BALL_RADIUS = 1


@dataclass(frozen=True)
class GraphSpec:
    """A generated workspace as plain data.

    `vertices` and `elements` are in declaration order, which is the order
    finjet enumerates them in; `fiber[v]` keeps that order; `ball[v]` is every
    vertex within distance 1 of v.
    """

    kind: str  # "path" or "complete"
    size: int
    fiber_size: int
    vertices: tuple[str, ...]
    elements: tuple[str, ...]
    fiber: dict[str, tuple[str, ...]]
    ball: dict[str, frozenset[str]]

    @property
    def jets_total(self) -> int:
        """Closed-form jet-bundle size: 8n - 8 on P_n with fibers 2, m * f^m on K_m."""
        f = self.fiber_size
        if self.kind == "path":
            return 2 * f**2 + (self.size - 2) * f**3
        return self.size * f**self.size

    @property
    def pullback_total(self) -> int:
        """Size of the pullback of p against itself: 4n on P_n, m * f^2 on K_m."""
        return self.size * self.fiber_size**2

    def jets_at(self, v: str) -> int:
        return math.prod(len(self.fiber[a]) for a in self.ball[v])

    def around(self, v: str) -> tuple[str, ...]:
        """The monad of v, in the relation's source order."""
        return tuple(a for a in self.vertices if a in self.ball[v])

    def jet(self, v: str, index: int) -> dict[str, str]:
        """The index-th jet at v: value tables in lexicographic order, last vertex fastest."""
        if not 0 <= index < self.jets_at(v):
            raise IndexError(f"jet index {index} out of range at {v}")
        table = {}
        for a in reversed(self.around(v)):
            index, k = divmod(index, len(self.fiber[a]))
            table[a] = self.fiber[a][k]
        return table


def _names(rng: random.Random, prefix: str, count: int) -> list[str]:
    return [f"{prefix}{k:06x}" for k in rng.sample(range(16**6), count)]


def make_spec(kind: str, size: int, fiber_size: int, seed: int) -> GraphSpec:
    """P_size ("path") or K_size ("complete") with fibers of fiber_size, named from seed."""
    if kind not in ("path", "complete") or size < 2 or fiber_size < 1:
        raise ValueError(f"no {kind} graph of size {size} with fibers {fiber_size}")
    rng = random.Random(f"jetbench:{kind}:{size}:{fiber_size}:{seed}")
    walk = _names(rng, "v", size)  # vertices in path order
    drawn = iter(_names(rng, "e", size * fiber_size))
    over = {next(drawn): v for v in walk for _ in range(fiber_size)}
    if kind == "path":
        ball = {
            v: frozenset(walk[max(i - BALL_RADIUS, 0) : i + BALL_RADIUS + 1])
            for i, v in enumerate(walk)
        }
    else:
        ball = {v: frozenset(walk) for v in walk}
    vertices = walk[:]
    rng.shuffle(vertices)
    elements = list(over)
    rng.shuffle(elements)
    fiber = {v: tuple(e for e in elements if over[e] == v) for v in vertices}
    return GraphSpec(kind, size, fiber_size, tuple(vertices), tuple(elements), fiber, ball)


def build_workspace(spec: GraphSpec):
    """The finjet workspace: A, E, p: E -> A, adj, R = ball(adj, 1), id: A -> A, bundle p."""
    from finjet.finset import FinMap, FinSet
    from finjet.polyfun import Bundle
    from finjet.relations import Relation, ball_relation
    from finjet.workspace import Workspace

    base = FinSet("A", spec.vertices)
    total = FinSet("E", spec.elements)
    over = {e: v for v, es in spec.fiber.items() for e in es}
    p = FinMap(total, base, tuple(over[e] for e in spec.elements))
    adj = Relation.from_pairs(
        base, base, [(a, b) for a in spec.vertices for b in spec.ball[a] if a != b]
    )
    ws = Workspace()
    ws.objects.update(A=base, E=total)
    ws.maps.update(p=p, id=FinMap.identity(base))
    ws.relations.update(adj=adj, R=ball_relation(adj, BALL_RADIUS).base)
    ws.bundles["p"] = Bundle(p)
    return ws


def write_workspace(spec: GraphSpec, path: Path) -> None:
    """Build, serialize and write spec's workspace, then check that re-parsing reproduces it.

    Raises ValueError when the parsed workspace differs from the built one or
    when R is not the ball relation the spec describes.
    """
    from finjet.workspace import parse_workspace, serialize_workspace

    ws = build_workspace(spec)
    path.write_text(serialize_workspace(ws), encoding="utf-8")
    parsed = parse_workspace(path.read_text(encoding="utf-8"))
    for kind in ("objects", "maps", "relations", "bundles"):
        if getattr(parsed, kind) != getattr(ws, kind):
            raise ValueError(f"{path.name}: re-parsed {kind} differ from the written ones")
    ball = {(a, b) for b in spec.vertices for a in spec.ball[b]}
    if set(parsed.relations["R"].pairs) != ball:
        raise ValueError(f"{path.name}: R is not the radius-{BALL_RADIUS} ball relation")
