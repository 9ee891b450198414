"""Command-line surface: workspace computations and the property-suite runner.

Exit codes: 0 success, 1 check failure, 2 usage or parse error, 3 internal
error (an exception that is a bug in finjet, reported as one line on stderr).
"""

from __future__ import annotations

import argparse
import collections
import functools
import itertools
import operator
import sys
from typing import IO, Callable, Iterator, Optional

from . import fibdual, jets, polyfun, relations
from .errors import FinjetError, WorkspaceError
from .finset import compose, element, pullback
from .workspace import Workspace, parse_workspace


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors, like every other error, are one
    `error: ...` line on stderr with exit 2; its subparsers inherit this."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: `parse_args` reads it
    and never changes it."""
    parser = _Parser(
        prog="finjet",
        description="Finite-set stage semantics and section-jet bundles.",
    )
    parser.add_argument("-w", "--workspace", help="workspace file to load")
    parser.add_argument(
        "--format",
        choices=("text", "records"),
        default="text",
        help="output mode (records: tab-separated lines)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("pullback", help="canonical pullback of two maps")
    cmd.add_argument("--left", required=True, help="map A -> C")
    cmd.add_argument("--right", required=True, help="map B -> C")

    cmd = sub.add_parser("monad", help="neighborhood of an element under a relation")
    cmd.add_argument("--relation", required=True)
    group = cmd.add_mutually_exclusive_group(required=True)
    group.add_argument("--at", help="named map X -> destination")
    group.add_argument("--point", help="element of the destination")

    cmd = sub.add_parser("jets", help="enumerate section jets at a point")
    cmd.add_argument("--relation", required=True)
    cmd.add_argument("--bundle", required=True)
    cmd.add_argument("--point", required=True)

    cmd = sub.add_parser("jetbundle", help="the full jet bundle of a bundle")
    cmd.add_argument("--relation", required=True)
    cmd.add_argument("--bundle", required=True)

    cmd = sub.add_parser("classify", help="classifying map of an enumerated jet")
    cmd.add_argument("--relation", required=True)
    cmd.add_argument("--bundle", required=True)
    cmd.add_argument("--point", required=True)
    cmd.add_argument("--index", type=int, required=True)

    cmd = sub.add_parser("phi", help="transport a jet along a relation morphism")
    cmd.add_argument("--relation-src", required=True)
    cmd.add_argument("--relation-dst", required=True)
    cmd.add_argument("--map", required=True, help="f between the sources")
    cmd.add_argument("--map0", required=True, help="f0 between the destinations")
    cmd.add_argument("--bundle", required=True, help="bundle over the target source")
    cmd.add_argument("--point", required=True, help="element of the source destination")
    cmd.add_argument("--index", type=int, required=True)

    cmd = sub.add_parser("polyjet", help="jet bundle via pullback and dependent product")
    cmd.add_argument("--relation", required=True)
    cmd.add_argument("--bundle", required=True)

    cmd = sub.add_parser("dualjet", help="jet functor on a comorphism")
    cmd.add_argument("--relation-src", required=True)
    cmd.add_argument("--relation-dst", required=True)
    cmd.add_argument("--map", required=True, help="base map of the comorphism")
    cmd.add_argument("--bundle", required=True, help="codomain bundle")
    cmd.add_argument(
        "--vertical",
        help="named map giving the vertical part (default: Cartesian comorphism)",
    )
    cmd.add_argument("--src-bundle", help="source bundle when --vertical is given")

    cmd = sub.add_parser("check", help="run the property suites")
    cmd.add_argument("--suite", default="all", help="suite name or 'all'")
    cmd.add_argument("--seed", type=int, default=42)
    cmd.add_argument("--max-obj", type=int, default=3)
    cmd.add_argument("--max-fiber", type=int, default=3)
    cmd.add_argument("--trials", type=int, default=200)
    cmd.add_argument("--jobs", type=int, default=1)
    return parser


def _load_workspace(args) -> Workspace:
    if not args.workspace:
        raise WorkspaceError("this command needs --workspace")
    try:
        with open(args.workspace, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise WorkspaceError(
            f"{args.workspace!r} is not UTF-8 text: byte {exc.start} ({exc.reason})"
        ) from None
    return parse_workspace(text)


def _emit(
    out: IO[str],
    format_: str,
    rows: list[tuple[str, ...]],
    header: str,
    render: Optional[Callable[[tuple[str, ...]], str]] = None,
) -> int:
    """Write a data command's output with one write and return exit code 0.

    The records format is each row, tab-separated; the text format is the
    header, then each row through `render` (no row lines without one).  Only
    the requested format is built.
    """
    if format_ == "records":
        lines = ["\t".join(row) for row in rows]
    else:
        lines = [header, *map(render, rows)] if render else [header]
    # The final "" ends the last line without a second copy of the text.
    out.write("\n".join([*lines, ""]))
    return 0


def _cmd_pullback(ws: Workspace, args, out) -> int:
    pb = pullback(ws.map(args.left), ws.map(args.right))
    rows = [
        ("element", m, a, b) for m, a, b in zip(pb.apex, pb.left.values, pb.right.values)
    ]
    return _emit(
        out,
        args.format,
        rows,
        f"pullback of {args.left} and {args.right}: {len(pb.apex)} elements",
        lambda row: f"  {row[1]} -> ({row[2]}, {row[3]})",
    )


def _point(carrier, name: str):
    if name not in carrier:
        raise WorkspaceError(f"{name!r} is not an element of {carrier.name!r}")
    return element(carrier, name)


def _monad_element(ws: Workspace, args):
    rel = ws.relation(args.relation)
    if args.at:
        return rel, ws.map(args.at)
    return rel, _point(rel.stage, args.point)


def _cmd_monad(ws: Workspace, args, out) -> int:
    rel, belem = _monad_element(ws, args)
    sub = relations.monad(rel, belem)
    return _emit(
        out,
        args.format,
        [("pair", a, x) for a, x in sub.pairs],
        f"monad over {sub.over.name} at stage {sub.stage.name}: {len(sub)} pairs",
        lambda row: f"  ({row[1]},{row[2]})",
    )


def _jet_records(j: jets.SectionJet) -> str:
    return " ".join(f"({a},{x})->{e}" for (a, x), e in sorted(j.table.items()))


def _table_texts(sections: polyfun.SectionTables, sort: bool) -> Iterator[str]:
    """Every section's table as "point->value" words joined by spaces, in the
    order of `sections.projection.dom`.

    Each word is rendered once per base point, and the texts join them in
    the product that `polyfun.section_tables` enumerates: one block per base
    point, last point fastest.  With `sort`, a text lists its words by point
    name rather than in the fiber's order.
    """
    fibers = sections.q.fibers
    for points in sections.fibers.values():
        texts = itertools.product(*([f"{m}->{v}" for v in fibers[m]] for m in points))
        # A fiber out of name order has at least two points, so itemgetter
        # returns a tuple of words, never a bare word.
        if sort and list(points) != sorted(points):
            order = sorted(range(len(points)), key=points.__getitem__)
            texts = map(operator.itemgetter(*order), texts)
        yield from map(" ".join, texts)


def _cmd_jets(ws: Workspace, args, out) -> int:
    rel = ws.relation(args.relation)
    bundle = ws.bundle(args.bundle)
    base = _point(rel.stage, args.point)
    found = jets.enumerate_jets(rel, base, bundle.map)
    return _emit(
        out,
        args.format,
        [("jet", str(i), _jet_records(j)) for i, j in enumerate(found)],
        f"jets at {args.point}: {len(found)}",
        lambda row: f"  [{row[1]}] {row[2]}",
    )


def _emit_sections(
    out: IO[str], format_: str, sections: polyfun.SectionTables, title: str, sort: bool
) -> int:
    """Write the jetbundle or polyjet output with one write, as `_emit`
    does: each row straight from a section's label, base point and
    `_table_texts` text.  Only the text format counts the sections over each
    base point, for its header; neither format reads the tables."""
    proj = sections.projection
    rows = zip(proj.dom.elements, proj.values, _table_texts(sections, sort), strict=True)
    if format_ == "records":
        lines = [f"element\t{el}\t{b}\t{text}" for el, b, text in rows]
    else:
        counts = collections.Counter(proj.values)
        sizes = "/".join(str(counts[b]) for b in proj.cod)
        lines = [
            f"{title}: {len(proj.dom)} elements, fibers {sizes}",
            *(f"  {el} over {b}: {text}" for el, b, text in rows),
        ]
    out.write("\n".join([*lines, ""]))
    return 0


def _cmd_jetbundle(ws: Workspace, args, out) -> int:
    rel = ws.relation(args.relation)
    bundle = ws.bundle(args.bundle)
    jb = jets.jet_bundle(rel, bundle.map)
    # A table lists its base point's column in relation order; its row lists
    # the words by point name.
    return _emit_sections(
        out, args.format, jb.sections, f"jet bundle over {rel.stage.name}", sort=True
    )


def _cmd_classify(ws: Workspace, args, out) -> int:
    rel = ws.relation(args.relation)
    bundle = ws.bundle(args.bundle)
    _point(rel.stage, args.point)
    # Jet i at the point classifies as label i of the point's fiber.
    labels = jets.jet_fiber(rel, bundle.map, args.point).projection.dom.elements
    jets.check_index(args.index, len(labels), args.point)
    target = labels[args.index]
    return _emit(
        out,
        args.format,
        [("classified", str(args.index), target)],
        f"jet [{args.index}] at {args.point} classifies as {target}",
    )


def _cmd_phi(ws: Workspace, args, out) -> int:
    rel_src = ws.relation(args.relation_src)
    rel_dst = ws.relation(args.relation_dst)
    f = ws.map(args.map)
    f0 = ws.map(args.map0)
    bundle = ws.bundle(args.bundle)
    morphism = relations.check_preserves(f, f0, rel_src, rel_dst)
    if morphism is None:
        raise WorkspaceError("the maps do not preserve the relations")
    ctx = jets.PhiContext(morphism, bundle.map)
    a0 = _point(rel_src.stage, args.point)
    j = jets.nth_jet(rel_dst, compose(f0, a0), bundle.map, args.index, "the image point")
    moved = jets.phi(ctx, a0, j)
    table = _jet_records(moved)
    return _emit(
        out,
        args.format,
        [("jet", str(args.index), table)],
        f"transported jet [{args.index}]: {table}",
    )


def _cmd_polyjet(ws: Workspace, args, out) -> int:
    rel = ws.relation(args.relation)
    bundle = ws.bundle(args.bundle)
    dp = polyfun.polynomial_product(rel.span, bundle).product
    return _emit_sections(
        out, args.format, dp.sections, f"polynomial jet bundle over {rel.stage.name}", sort=False
    )


def _cmd_dualjet(ws: Workspace, args, out) -> int:
    rel_src = ws.relation(args.relation_src)
    rel_dst = ws.relation(args.relation_dst)
    f = ws.map(args.map)
    bundle = ws.bundle(args.bundle)
    if rel_src.over == rel_dst.over and rel_src != rel_dst:
        raise WorkspaceError(
            f"relations {args.relation_src} and {args.relation_dst} both live on object "
            f"{rel_src.over.name}, which carries one endo-relation"
        )
    if (f.dom, f.cod) != (rel_src.over, rel_dst.over):
        raise WorkspaceError(
            f"map {args.map} runs from {f.dom.name} to {f.cod.name}, but relations "
            f"{args.relation_src} and {args.relation_dst} need a map from "
            f"{rel_src.over.name} to {rel_dst.over.name}"
        )
    if args.src_bundle and not args.vertical:
        raise WorkspaceError("--src-bundle needs --vertical")
    relations.require_endo(rel_src)
    relations.require_endo(rel_dst)
    if args.vertical:
        if not args.src_bundle:
            raise WorkspaceError("--vertical needs --src-bundle")
        src_bundle = ws.bundle(args.src_bundle)
        vertical = polyfun.SliceMorphism(
            polyfun.pullback_bundle(f, bundle), src_bundle, ws.map(args.vertical)
        )
        com = fibdual.Comorphism(f, bundle, vertical)
    else:
        com = fibdual.cartesian_comorphism(f, bundle)
    jb_src = jets.jet_bundle(rel_src, com.src.map)
    jb_dst = jets.jet_bundle(rel_dst, bundle.map)
    moved = fibdual.global_jet(com, jb_src, jb_dst)
    arrow = moved.vertical.arrow
    return _emit(
        out,
        args.format,
        [("vertical", e, v) for e, v in zip(arrow.dom, arrow.values)],
        f"jet comorphism over {moved.over.dom.name} -> {moved.over.cod.name}: "
        f"{len(arrow.dom)} -> {len(arrow.cod)} vertical",
        lambda row: f"  {row[1]} -> {row[2]}",
    )


def _cmd_check(args, out) -> int:
    # Imported here so that data commands do not load the process-pool machinery.
    from .suites import SUITES, run_suites

    if args.suite == "all":
        names = list(SUITES)
    elif args.suite in SUITES:
        names = [args.suite]
    else:
        raise WorkspaceError(
            f"unknown suite {args.suite!r}; known: {', '.join(SUITES)} or 'all'"
        )
    for flag in ("trials", "max_obj", "max_fiber", "jobs"):
        bound = getattr(args, flag)
        if bound < 1:
            option = "--" + flag.replace("_", "-")
            raise WorkspaceError(f"{option} must be at least 1, got {bound}")
    reports = run_suites(
        names,
        seed=args.seed,
        max_obj=args.max_obj,
        max_fiber=args.max_fiber,
        trials=args.trials,
        jobs=args.jobs,
    )
    for report in reports:
        if args.format == "records":
            print(report.render_records(), file=out)
        else:
            print(report.render_text(), file=out)
    return 0 if all(r.ok for r in reports) else 1


_WORKSPACE_COMMANDS = {
    "pullback": _cmd_pullback,
    "monad": _cmd_monad,
    "jets": _cmd_jets,
    "jetbundle": _cmd_jetbundle,
    "classify": _cmd_classify,
    "phi": _cmd_phi,
    "polyjet": _cmd_polyjet,
    "dualjet": _cmd_dualjet,
}


def main(argv: Optional[list[str]] = None, out: Optional[IO[str]] = None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # Python 3.11's argparse reads "--point=--" as [], not as "--".
        if [] in vars(args).values():
            parser.error("an option value of '--' is not supported")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "check":
            return _cmd_check(args, out)
        ws = _load_workspace(args)
        return _WORKSPACE_COMMANDS[args.command](ws, args, out)
    except (FinjetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
