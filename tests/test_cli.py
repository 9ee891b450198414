import contextlib
import hashlib
import importlib
import io
import multiprocessing
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finjet

from finjet import jets, polyfun
from finjet.cli import main
from finjet.errors import WorkspaceError
from finjet.finset import FinMap, FinSet, pullback
from finjet.polyfun import Bundle
from finjet.relations import Relation
from finjet.workspace import Workspace, parse_workspace, serialize_workspace
from strategies import complete_graph_workspace, element_names, path_graph_workspace

FIXTURE = str(Path(__file__).resolve().parent.parent / "fixtures" / "p3.ws")


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_jetbundle_on_fixture():
    code, text = run(["-w", FIXTURE, "jetbundle", "--relation", "R", "--bundle", "p"])
    assert code == 0
    assert "8 elements, fibers 2/4/2" in text


def test_jetbundle_records_mode():
    code, text = run(
        ["-w", FIXTURE, "--format", "records", "jetbundle", "--relation", "R", "--bundle", "p"]
    )
    assert code == 0
    lines = [ln for ln in text.splitlines() if ln]
    assert len(lines) == 8
    assert all(ln.startswith("element\t") for ln in lines)


# Base point u has an empty column, v a one-point column, w a column out of
# name order (c before a), and x a column through z, whose fiber is empty.
EDGE_COLUMNS = """\
object A { c b a z }
object A0 { u v w x }
object E { c0 c1 b0 a0 a1 }
map p : E -> A { c0 -> c ; c1 -> c ; b0 -> b ; a0 -> a ; a1 -> a }
relation R : A ~ A0 { (b,v) (c,w) (a,w) (b,x) (z,x) }
bundle p = p
"""


def _reference_rows(command: str, ws: Workspace) -> list[tuple[str, ...]]:
    """jetbundle and polyjet rows by the per-row formula: a jet's table
    sorted by point name, a polynomial section's table in fiber order."""
    rel, bundle = ws.relation("R"), ws.bundle("p")
    if command == "jetbundle":
        sections = jets.jet_bundle(rel, bundle.map).sections
        return [
            ("element", el, b, " ".join(map("->".join, sorted(sections.table_of(el).items()))))
            for el, b, _ in sections.entries()
        ]
    sections = polyfun.polynomial_product(rel.span, bundle).product.sections
    return [
        ("element", el, b, " ".join(map("->".join, sections.table_of(el).items())))
        for el, b, _ in sections.entries()
    ]


@pytest.mark.parametrize("format_", ["text", "records"])
@pytest.mark.parametrize("command", ["jetbundle", "polyjet"])
def test_table_rows_match_the_per_row_formula_on_edge_columns(tmp_path, command, format_):
    ws = parse_workspace(EDGE_COLUMNS)
    columns = ws.relation("R").columns
    assert columns == {"u": (), "v": ("b",), "w": ("c", "a"), "x": ("b", "z")}
    assert ws.bundle("p").map.fiber("z") == ()
    rows = _reference_rows(command, ws)
    assert ("u", "") in [(b, text) for _, _, b, text in rows]
    assert "x" not in [b for _, _, b, _ in rows]
    path = tmp_path / "edge.ws"
    path.write_text(EDGE_COLUMNS)
    code, text = run(["-w", str(path), "--format", format_, command, "--relation", "R",
                      "--bundle", "p"])
    assert code == 0
    if format_ == "records":
        assert text.splitlines() == ["\t".join(row) for row in rows]
    else:
        assert text.splitlines()[1:] == [f"  {el} over {b}: {tab}" for _, el, b, tab in rows]


def test_monad_point():
    code, text = run(["-w", FIXTURE, "monad", "--relation", "R", "--point", "a"])
    assert code == 0
    assert "(a,*)" in text and "(b,*)" in text and "(c,*)" not in text


def test_jets_and_classify():
    code, text = run(
        ["-w", FIXTURE, "jets", "--relation", "R", "--bundle", "p", "--point", "b"]
    )
    assert code == 0
    assert "jets at b: 4" in text
    code, text = run(
        [
            "-w",
            FIXTURE,
            "classify",
            "--relation",
            "R",
            "--bundle",
            "p",
            "--point",
            "b",
            "--index",
            "2",
        ]
    )
    assert code == 0
    assert "classifies as (b|" in text


def test_classify_index_out_of_range_is_usage_error():
    code, _ = run(
        [
            "-w",
            FIXTURE,
            "classify",
            "--relation",
            "R",
            "--bundle",
            "p",
            "--point",
            "b",
            "--index",
            "9",
        ]
    )
    assert code == 2


def test_pullback_command():
    code, text = run(["-w", FIXTURE, "pullback", "--left", "p", "--right", "p"])
    assert code == 0
    assert "9 elements" in text


def test_polyjet_matches_jetbundle_fibers():
    code, text = run(["-w", FIXTURE, "polyjet", "--relation", "R", "--bundle", "p"])
    assert code == 0
    assert "8 elements, fibers 2/4/2" in text


def test_phi_command_identity_maps(tmp_path):
    extra = (
        "object I { i }\n"
        "map idA : A -> A { a -> a ; b -> b ; c -> c }\n"
    )
    path = tmp_path / "p3_aug.ws"
    path.write_text(Path(FIXTURE).read_text() + extra)
    code, text = run(
        [
            "-w",
            str(path),
            "phi",
            "--relation-src",
            "R",
            "--relation-dst",
            "R",
            "--map",
            "idA",
            "--map0",
            "idA",
            "--bundle",
            "p",
            "--point",
            "b",
            "--index",
            "0",
        ]
    )
    assert code == 0
    assert "transported jet" in text


def test_dualjet_cartesian_mode(tmp_path):
    extra = "map idA : A -> A { a -> a ; b -> b ; c -> c }\n"
    path = tmp_path / "p3_dual.ws"
    path.write_text(Path(FIXTURE).read_text() + extra)
    code, text = run(
        [
            "-w",
            str(path),
            "dualjet",
            "--relation-src",
            "R",
            "--relation-dst",
            "R",
            "--map",
            "idA",
            "--bundle",
            "p",
        ]
    )
    assert code == 0
    assert "jet comorphism" in text


# `dualjet --relation-src R --relation-dst R --map id` on p3 plus an `id` map.
DUALJET_R_R = """\
jet comorphism over A -> A: 8 -> 8 vertical
  (a,(a|fe488a5feb)) -> (a|f99ee25737)
  (a,(a|0d86ec8d14)) -> (a|d23e615fb2)
  (b,(b|78befa6287)) -> (b|20b8ccb0a2)
  (b,(b|b8604f118e)) -> (b|55ad75759e)
  (b,(b|73eece53f6)) -> (b|99d7ffa119)
  (b,(b|ee6198b4b6)) -> (b|4563e95528)
  (c,(c|f43841a77c)) -> (c|2b1ef1da8f)
  (c,(c|be6a829bbb)) -> (c|8602241ae4)
"""


@pytest.mark.parametrize(
    "src, dst, message",
    [
        ("R", "R", None),
        ("D", "R", "relations D and R both live on object A, which carries one endo-relation"),
        ("R", "D", "relations R and D both live on object A, which carries one endo-relation"),
    ],
)
def test_dualjet_takes_one_relation_per_object(tmp_path, capsys, src, dst, message):
    path = tmp_path / "p3_diag.ws"
    path.write_text(
        Path(FIXTURE).read_text()
        + "map id : A -> A { a -> a ; b -> b ; c -> c }\n"
        + "relation D : A ~ A { (a,a) (b,b) (c,c) }\n"
    )
    code, text = run(
        ["-w", str(path), "dualjet", "--relation-src", src, "--relation-dst", dst, "--map", "id", "--bundle", "p"]
    )
    if message is None:
        assert (code, text) == (0, DUALJET_R_R)
    else:
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"


# The two-point path B = u - v with its full ball relation S and a bundle pB
# with fibers 2/1 over it, to append to p3.
TWO_POINT = (
    "object B { u v }\n"
    "object EB { u0 u1 v0 }\n"
    "map pB : EB -> B { u0 -> u ; u1 -> u ; v0 -> v }\n"
    "relation S : B ~ B { (u,u) (u,v) (v,u) (v,v) }\n"
    "bundle pB = pB\n"
)


@pytest.mark.parametrize(
    "relations, extra, message",
    [
        (("R", "R"), ["--map", "p", "--bundle", "p"],
         "map p runs from E to A, but relations R and R need a map from A to A"),
        (("R", "S"), ["--map", "id", "--bundle", "pB"],
         "map id runs from A to A, but relations R and S need a map from A to B"),
        (("S", "R"), ["--map", "g", "--bundle", "pB"],
         "map g runs from A to B, but relations S and R need a map from B to A"),
        (("R", "R"), ["--map", "id", "--bundle", "p", "--src-bundle", "p"],
         "--src-bundle needs --vertical"),
        (("R", "R"), ["--map", "id", "--bundle", "p", "--vertical", "id"],
         "--vertical needs --src-bundle"),
        (("T", "S"), ["--map", "g", "--bundle", "pB"], "operation requires an endo-relation"),
        # g sends the pair (a,b) of R to (u,v), which the diagonal DB lacks.
        (("R", "DB"), ["--map", "g", "--bundle", "pB"], "base map does not preserve the endo-relations"),
    ],
    ids=[
        "map-from-the-bundle",
        "wrong-codomain",
        "reversed",
        "src-bundle-alone",
        "vertical-alone",
        "not-endo",
        "not-preserved",
    ],
)
def test_dualjet_rejects_a_map_off_the_relations_and_a_lone_src_bundle(tmp_path, capsys, relations, extra, message):
    path = tmp_path / "p3_two_point.ws"
    path.write_text(
        Path(FIXTURE).read_text()
        + TWO_POINT
        + "map id : A -> A { a -> a ; b -> b ; c -> c }\n"
        + "map g : A -> B { a -> u ; b -> v ; c -> u }\n"
        + "relation T : A ~ B { (a,u) }\n"
        + "relation DB : B ~ B { (u,u) (v,v) }\n"
    )
    src, dst = relations
    code, text = run(["-w", str(path), "dualjet", "--relation-src", src, "--relation-dst", dst, *extra])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unknown_point_element_exits_2():
    code, _ = run(["-w", FIXTURE, "monad", "--relation", "R", "--point", "zz"])
    assert code == 2
    code, _ = run(
        ["-w", FIXTURE, "jets", "--relation", "R", "--bundle", "p", "--point", "zz"]
    )
    assert code == 2


def test_unknown_command_exits_2():
    code, _ = run(["-w", FIXTURE, "frobnicate"])
    assert code == 2


def test_missing_workspace_exits_2():
    code, _ = run(["jetbundle", "--relation", "R", "--bundle", "p"])
    assert code == 2


def test_parse_error_exits_2(tmp_path):
    bad = tmp_path / "bad.ws"
    bad.write_text("object A { x }\nmap f : A -> B { x -> u }\n")
    code, _ = run(["-w", str(bad), "jetbundle", "--relation", "R", "--bundle", "p"])
    assert code == 2


def test_non_utf8_workspace_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ws"
    bad.write_bytes(b"\xff\xfe object A { a }\n")
    code, text = run(["-w", str(bad), "jetbundle", "--relation", "R", "--bundle", "p"])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == (
        f"error: {str(bad)!r} is not UTF-8 text: byte 0 (invalid start byte)\n"
    )


def test_option_value_starting_with_dash(tmp_path, capsys):
    """argparse reads a separate "-x" as an option, which is a usage error:
    one `error:` line and exit 2.  "--point=-x" passes the element."""
    path = tmp_path / "dash.ws"
    path.write_text("object A { -x b }\nrelation R : A ~ A { (-x,-x) (b,-x) }\n")
    code, text = run(["-w", str(path), "monad", "--relation", "R", "--point", "-x"])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == "error: argument --point: expected one argument\n"
    code, text = run(["-w", str(path), "monad", "--relation", "R", "--point=-x"])
    assert code == 0
    assert "(-x,*)" in text and "(b,*)" in text
    assert capsys.readouterr().err == ""
    code, text = run(["-w", str(path), "monad", "--relation", "R", "--point=--"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_colliding_pair_names_are_a_parse_error(tmp_path, capsys):
    # "a,b" paired with "a" and "a" paired with "b,c" would both be named
    # "(a,b,c)" in pb(A,B); the grammar refuses such element names.
    path = tmp_path / "coll.ws"
    path.write_text(
        "object A { a,b a }\n"
        "object B { c b,c }\n"
        "object C { z }\n"
        "map f : A -> C { a,b -> z ; a -> z }\n"
        "map g : B -> C { c -> z ; b,c -> z }\n"
    )
    code, text = run(["-w", str(path), "pullback", "--left", "f", "--right", "g"])
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err.startswith("error: line 1: 'a,b' is not an element name")


def test_pullback_of_maps_into_different_objects_exits_2(tmp_path, capsys):
    """`pullback`'s own guard: without it the join looks 'a' up among B's
    fibers and fails with an internal KeyError."""
    path = tmp_path / "legs.ws"
    path.write_text("object A { a }\nobject B { b }\nmap f : A -> A { a -> a }\nmap g : B -> B { b -> b }\n")
    code, text = run(["-w", str(path), "pullback", "--left", "f", "--right", "g"])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == "error: pullback legs land in 'A' and 'B'\n"


@pytest.mark.parametrize("name", ["a;b", "a->b"])
def test_map_separators_in_element_names_are_a_parse_error(tmp_path, capsys, name):
    # A map body splits its entries at ";" and each entry at "->", so an
    # element holding either could be declared but never mapped; section
    # labels hash entries joined by ";", so it would also blur them.
    path = tmp_path / "sep.ws"
    path.write_text(f"object A {{ {name} z }}\n")
    message = (
        f"line 1: {name!r} is not an element name: use an atom without ( ) , | ; -> "
        "or a composite (x,y) or (x|<10 lowercase hex digits>)"
    )
    with pytest.raises(WorkspaceError) as err:
        parse_workspace(path.read_text())
    assert str(err.value) == message
    code, text = run(["-w", str(path), "pullback", "--left", "f", "--right", "f"])
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_data_commands_build_neither_the_generic_jet_nor_the_counit(monkeypatch, tmp_path):
    """Nor do jetbundle, polyjet and classify read the section tables: they
    print labels, base points and texts rendered from the fibers."""
    from finjet.jets import JetBundle
    from finjet.polyfun import DependentProduct, SectionTables

    path = tmp_path / "p3_id.ws"
    path.write_text(Path(FIXTURE).read_text() + "map id : A -> A { a -> a ; b -> b ; c -> c }\n")
    commands = [
        ["jetbundle", "--relation", "R", "--bundle", "p"],
        ["polyjet", "--relation", "R", "--bundle", "p"],
        ["dualjet", "--relation-src", "R", "--relation-dst", "R", "--map", "id", "--bundle", "p"],
        ["classify", "--relation", "R", "--bundle", "p", "--point", "b", "--index", "2"],
    ]
    argvs = [
        ["-w", str(path), "--format", format_, *command]
        for format_ in ("text", "records")
        for command in commands
    ]
    expected = [run(argv) for argv in argvs]

    def refuse(self):
        raise RuntimeError("a data command built a structure it does not print")

    monkeypatch.setattr(JetBundle, "generic_jet", property(refuse))
    monkeypatch.setattr(DependentProduct, "counit", property(refuse))
    assert [run(argv) for argv in argvs] == expected
    assert all(code == 0 for code, _ in expected)
    # dualjet transports tables, so only the other commands go on.
    monkeypatch.setattr(SectionTables, "tables", property(refuse), raising=False)
    for argv, result in zip(argvs, expected):
        if "dualjet" not in argv:
            assert run(argv) == result


def test_check_single_suite_deterministic():
    args = ["check", "--suite", "fiber-count", "--seed", "7", "--trials", "20"]
    code1, text1 = run(args)
    code2, text2 = run(args)
    assert code1 == code2 == 0
    assert text1 == text2
    assert "result=PASS" in text1


def test_check_unknown_suite_exits_2():
    code, _ = run(["check", "--suite", "nope"])
    assert code == 2


def test_check_records_format():
    code, text = run(
        ["--format", "records", "check", "--suite", "fiber-count", "--trials", "5"]
    )
    assert code == 0
    fields = text.strip().split("\t")
    assert fields[0] == "suite" and fields[1] == "fiber-count"
    assert fields[-1] == "PASS"


def test_check_jobs_flag_is_deterministic():
    base = ["check", "--suite", "adjunction", "--trials", "12"]
    _, text1 = run(base + ["--jobs", "1"])
    _, text2 = run(base + ["--jobs", "3"])
    assert text1 == text2


def test_check_failure_exits_1(monkeypatch):
    import finjet.suites as suites

    def broken(t, rng, max_obj, max_fiber):
        t.check(False, "deliberately failing probe suite")

    monkeypatch.setitem(suites.SUITES, "broken", broken)
    code, text = run(["check", "--suite", "broken", "--trials", "3"])
    assert code == 1
    assert "result=FAIL" in text
    assert "deliberately failing probe suite" in text


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a suite patched into SUITES reaches worker processes only when they are forked",
)
def test_raising_instance_is_a_counted_failure_at_any_jobs(monkeypatch):
    import finjet.suites as suites
    from finjet.instances import rng_for

    def raising(t, rng, max_obj, max_fiber):
        if rng.random() < 0.5:
            raise ValueError("deliberately raising probe suite")
        t.check(True, "unused")

    monkeypatch.setitem(suites.SUITES, "raising", raising)
    # Two CPUs, so --jobs 2 runs on a real pool on any host.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    base = ["check", "--suite", "raising", "--seed", "42", "--trials", "8"]
    code1, text1 = run(base + ["--jobs", "1"])
    code2, text2 = run(base + ["--jobs", "2"])
    assert code1 == code2 == 1
    assert text1 == text2
    first = next(i for i in range(8) if rng_for(42, "raising", i).random() < 0.5)
    assert "result=FAIL" in text1
    assert f"# instance {first} of raising raised ValueError: deliberately raising probe suite" in text1


def test_phi_and_dualjet_run_without_the_yoneda_tabulation(monkeypatch, tmp_path):
    import finjet.jets as jets
    import finjet.kripke as kripke

    path = tmp_path / "p3_id.ws"
    path.write_text(Path(FIXTURE).read_text() + "map id : A -> A { a -> a ; b -> b ; c -> c }\n")
    base = ["-w", str(path), "--format", "records"]
    commands = [
        base + ["phi", "--relation-src", "R", "--relation-dst", "R", "--map", "id", "--map0", "id",
                "--bundle", "p", "--point", point, "--index", str(index)]
        for point, count in (("a", 2), ("b", 4), ("c", 2))
        for index in range(count)
    ]
    commands.append(
        base + ["dualjet", "--relation-src", "R", "--relation-dst", "R", "--map", "id", "--bundle", "p"]
    )
    expected = [run(argv) for argv in commands]

    def refuse(*args, **kwargs):
        raise RuntimeError("the library tabulated a value law")

    monkeypatch.setattr(kripke, "yoneda_construct", refuse)
    monkeypatch.setattr(jets, "yoneda_construct", refuse, raising=False)
    assert [run(argv) for argv in commands] == expected
    assert all(code == 0 for code, _ in expected)


def _phi_off_by_one_value(real):
    """phi whose first value with a rival in its fiber is replaced by that rival."""
    from finjet.jets import SectionJet
    from finjet.kripke import PartialMapAtStage

    def phi(ctx, a0, j):
        moved = real(ctx, a0, j)
        values = list(moved.underlying.values)
        for i, v in enumerate(values):
            rivals = [e for e in ctx.pulled.fiber(ctx.pulled(v)) if e != v]
            if rivals:
                values[i] = rivals[0]
                break
        wrong = PartialMapAtStage(moved.support, ctx.square.apex, tuple(values))
        return SectionJet(wrong, ctx.pulled, moved.relation, moved.at)

    return phi


def _classify_off_by_one_element(real):
    """classify whose first point with a rival element over its base is sent there."""
    from finjet.finset import FinMap

    def classify(jb, j):
        cl = real(jb, j)
        values = list(cl.values)
        for i, t in enumerate(values):
            rivals = [u for u in jb.fiber(jb.projection(t)) if u != t]
            if rivals:
                values[i] = rivals[0]
                break
        return FinMap(cl.dom, cl.cod, tuple(values))

    return classify


def _values_reversed(real):
    """A partial-map operation that lists its values in reverse pair order."""
    from finjet.kripke import PartialMapAtStage

    def reversed_values(*args):
        built = real(*args)
        return PartialMapAtStage(built.support, built.target, built.values[::-1])

    return reversed_values


def _every_value_the_first(real):
    """A partial-map operation that gives every pair its first value."""
    from finjet.kripke import PartialMapAtStage

    def first_values(*args):
        built = real(*args)
        return PartialMapAtStage(built.support, built.target, built.values[:1] * len(built.values))

    return first_values


def _always_true(real):
    """A predicate that holds of everything."""
    return lambda *args, **kwargs: True


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "suite, module, name, mutant, reason",
    [
        ("phi-laws", "jets", "phi", _phi_off_by_one_value,
         "transport disagrees with the tabulation of its value law"),
        ("classify", "jets", "classify", _classify_off_by_one_element,
         "classifying map is not the unique one at a point"),
        ("pullback-laws", "suites", "is_monic", _always_true,
         "pullback of a monic is not monic"),
        ("global-functor", "fibdual", "is_cartesian", _always_true,
         "a bare pullback square is not recognized as Cartesian"),
        ("global-functor", "polyfun", "SliceMorphism.is_iso", _always_true,
         "a bare pullback square is not recognized as Cartesian"),
        ("terminality", "fibdual", "distributivity_terminal", _always_true,
         "generic jet is not terminal among comorphisms over the span"),
        ("beck-chevalley", "polyfun", "SpanMorphism.right_square_is_pullback", _always_true,
         "pulled-back span square is not a pullback"),
    ],
    ids=["phi", "classify", "is_monic", "is_cartesian", "is_iso", "distributivity_terminal",
         "right_square_is_pullback"],
)
def test_wrong_library_result_is_a_counted_failure(
    monkeypatch, capsys, jobs, suite, module, name, mutant, reason
):
    """A wrong library result, patched where the suite reads it, fails the
    suite with a parseable counterexample at either job count.  A dotted
    name patches an attribute of a class in the module."""
    target = importlib.import_module(f"finjet.{module}")
    *owners, name = name.split(".")
    for owner in owners:
        target = getattr(target, owner)
    if jobs != "1" and multiprocessing.get_start_method() != "fork":
        pytest.skip("a patched library function reaches worker processes only when they are forked")
    monkeypatch.setattr(target, name, mutant(getattr(target, name)))
    # Two CPUs, so --jobs 2 runs on a real pool on any host.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    code, text = run(["check", "--suite", suite, "--seed", "42", "--trials", "20", "--jobs", jobs])
    assert code == 1
    assert "result=FAIL" in text
    assert f"counterexample:\n  # {reason}\n  object " in text
    assert "Traceback" not in text + capsys.readouterr().err
    body = text.split("counterexample:\n", 1)[1]
    counterexample = parse_workspace("\n".join(line[2:] for line in body.splitlines()))
    if suite == "phi-laws":
        assert counterexample.bundles["p"].map.cod.name == "C"


@pytest.mark.parametrize(
    "name, mutant, trials",
    [
        ("precompose", _values_reversed, ["200"]),
        ("postcompose", _every_value_the_first, ["200", "60"]),
    ],
    ids=["precompose", "postcompose"],
)
def test_yoneda_kills_a_wrong_composite_of_a_partial_map(monkeypatch, name, mutant, trials):
    """The composites of a partial map are built without the constructor's
    check; yoneda's second routes read each one's leg, so a composite with
    its values misplaced fails the suite at the default bounds.  The cyclic
    shift on E keeps a partial map's distinct values apart, so a wrong
    postcompose also fails at 60 trials."""
    import finjet.kripke as kripke

    monkeypatch.setattr(kripke, name, mutant(getattr(kripke, name)))
    for n in trials:
        code, text = run(["check", "--suite", "yoneda", "--seed", "42", "--trials", n])
        assert code == 1
        assert "counterexample:\n  # pre- and post-composition do not commute\n" in text


def test_data_commands_do_not_load_the_process_pool():
    src = Path(finjet.__file__).resolve().parent.parent
    probe = (
        "import sys, finjet.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_one_parser_serves_every_call_of_a_process(capsys):
    """The parser is built once per process.  A usage error, --help and the
    same command twice, in one process, print what fresh processes print."""
    import finjet.cli as cli

    src = Path(finjet.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    entry = "import sys; from finjet.cli import main; sys.exit(main())"
    classify = ["-w", FIXTURE, "classify", "--relation", "R", "--bundle", "p", "--point", "b",
                "--index", "2"]
    calls = [["-w", FIXTURE, "classify", "--relation", "R"], ["--help"], classify, classify]
    in_process = []
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    fresh = {}
    for argv in calls:
        if tuple(argv) not in fresh:
            done = subprocess.run([sys.executable, "-c", entry, *argv], env=env,
                                  capture_output=True, text=True, timeout=60)
            fresh[tuple(argv)] = (done.returncode, done.stdout, done.stderr)
    assert [code for code, _, _ in in_process] == [2, 0, 0, 0]
    assert in_process[1][1] == cli._build_parser.__wrapped__().format_help()
    assert cli._build_parser() is cli._build_parser()
    assert in_process == [fresh[tuple(argv)] for argv in calls]


def test_internal_error_exits_3_without_traceback(monkeypatch, capsys):
    import finjet.cli as cli

    def broken(ws, args, out):
        raise KeyError("deliberately missing key")

    monkeypatch.setitem(cli._WORKSPACE_COMMANDS, "jetbundle", broken)
    code, text = run(["-w", FIXTURE, "jetbundle", "--relation", "R", "--bundle", "p"])
    assert code == 3
    assert text == ""
    err = capsys.readouterr().err
    assert err == "internal error: KeyError: 'deliberately missing key'\n"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag, value",
    [("--trials", "-3"), ("--max-obj", "0"), ("--max-obj", "-1"), ("--max-fiber", "0"), ("--jobs", "0")],
)
def test_check_rejects_bounds_below_one(capsys, flag, value):
    code, text = run(["check", "--suite", "fiber-count", flag, value])
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == f"error: {flag} must be at least 1, got {value}\n"


# sha256 of the records output on generated path graphs, pinned from the
# nested-scan implementation the fiber and column indexes replaced.
GOLDEN_PATH_DIGESTS = [
    (40, ["pullback", "--left", "p", "--right", "p"],
     "8804ffbb13182ef4962eb94240762256edb27121258c7dc06af14db2ec902d92"),
    (40, ["jetbundle", "--relation", "R", "--bundle", "p"],
     "5656764aed6b61ef9069135c5da6a6a8bbd2bc2b80b94c9f07cf03a5199248d9"),
    (40, ["polyjet", "--relation", "R", "--bundle", "p"],
     "520b88961531a3370a85ffe8377c33c12feeeac55943df61610362d7826c720e"),
    (40, ["classify", "--relation", "R", "--bundle", "p", "--point", "v7", "--index", "5"],
     "1f17794066711396fa10214820b75ac1cd81798991af9e8b18a3755bebb60b77"),
    (40, ["phi", "--relation-src", "R", "--relation-dst", "R", "--map", "id", "--map0", "id",
          "--bundle", "p", "--point", "v7", "--index", "5"],
     "5c3070731fddb36a7d615b7f262c088e6a48de47ae08147ced11b9c73646a2e1"),
    (12, ["dualjet", "--relation-src", "R", "--relation-dst", "R", "--map", "id", "--bundle", "p"],
     "ace1893af2463c727ba6222f401d61d66da976991a4d7f129aadd2a7a6646898"),
]


@pytest.mark.parametrize(
    "n, argv, digest", GOLDEN_PATH_DIGESTS, ids=[argv[0] for _, argv, _ in GOLDEN_PATH_DIGESTS]
)
def test_records_output_on_path_graph_is_pinned(tmp_path, n, argv, digest):
    path = tmp_path / f"p{n}.ws"
    path.write_text(serialize_workspace(path_graph_workspace(n, 2)))
    code, text = run(["-w", str(path), "--format", "records", *argv])
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


# sha256 of the text output of all 8 data commands on generated path graphs,
# pinned from the implementation that built both formats before printing one.
GOLDEN_PATH_TEXT_DIGESTS = [
    (40, ["pullback", "--left", "p", "--right", "p"],
     "155c31cd02fd14cb4e788d5916e630b41e95b547b21f878e36d5c011448f9c5b"),
    (40, ["monad", "--relation", "R", "--point", "v7"],
     "6173487f31684fb46e3626fb63428245f13c8c02b0fe890cd75027f6e30ea874"),
    (40, ["jets", "--relation", "R", "--bundle", "p", "--point", "v7"],
     "56725d732b4ac3395d350b133d14d7b3c6f68dda117fc6baec02cd074df656a4"),
    (40, ["jetbundle", "--relation", "R", "--bundle", "p"],
     "f0097f02e1430cce06ab0bb35d446b33af57d6989aae3689fc8f0c56783a5fbe"),
    (40, ["classify", "--relation", "R", "--bundle", "p", "--point", "v7", "--index", "5"],
     "5f0579086a98cde81faabc694e9676789ab15800fc8b125debea82585b8fe9a8"),
    (40, ["phi", "--relation-src", "R", "--relation-dst", "R", "--map", "id", "--map0", "id",
          "--bundle", "p", "--point", "v7", "--index", "5"],
     "b7954857c485c39e5ed5c7cb856f831aaa05e3864b887080b09510eba322c19b"),
    (40, ["polyjet", "--relation", "R", "--bundle", "p"],
     "a969d4aa3a260a088667ead4d748aae679abf326d8e7f7863e0280e61bf156c6"),
    (12, ["dualjet", "--relation-src", "R", "--relation-dst", "R", "--map", "id", "--bundle", "p"],
     "72b1356343f8ce9df3b2bc4564d575a40d1e91bf148148787f91f2236f3d3da5"),
]


@pytest.mark.parametrize(
    "n, argv, digest",
    GOLDEN_PATH_TEXT_DIGESTS,
    ids=[argv[0] for _, argv, _ in GOLDEN_PATH_TEXT_DIGESTS],
)
def test_text_output_on_path_graph_is_pinned(tmp_path, n, argv, digest):
    path = tmp_path / f"p{n}.ws"
    path.write_text(serialize_workspace(path_graph_workspace(n, 2)))
    code, text = run(["-w", str(path), *argv])
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


# sha256 of the records output on the complete graph K_5 (K_4 for dualjet),
# fibers 2, pinned from the implementation before linear canonical pair-sets.
GOLDEN_COMPLETE_DIGESTS = [
    ("jetbundle", 5, ["jetbundle", "--relation", "R", "--bundle", "p"],
     "6556ac93bf631a90fe1552e99851942ebf645f5caceda2c9946d837287fb3b0f"),
    ("polyjet", 5, ["polyjet", "--relation", "R", "--bundle", "p"],
     "ae6bab4fddc24969ae532e812c2cb94f9a805fcefca703a5a5237c4ee8c05fd1"),
    ("classify-first", 5, ["classify", "--relation", "R", "--bundle", "p", "--point", "v2", "--index", "0"],
     "6964df7e710ff6b93a4cce0f3a00baf0624e710edfe27e03cbb502160059e3be"),
    ("classify-middle", 5, ["classify", "--relation", "R", "--bundle", "p", "--point", "v2", "--index", "16"],
     "3d90ea37996a29e69ab05365cb72605deab31184a30997833592f91df06f7a4c"),
    ("classify-last", 5, ["classify", "--relation", "R", "--bundle", "p", "--point", "v2", "--index", "31"],
     "2f20321a4e810dad09d7c6d265c89b4d15f47bad76a9213a39623e4f0d8b96eb"),
    ("phi", 5, ["phi", "--relation-src", "R", "--relation-dst", "R", "--map", "id", "--map0", "id",
                "--bundle", "p", "--point", "v2", "--index", "16"],
     "7a7644161b5fe239ff24e9930cf35f348122435b0eaca373c523c97ea61769af"),
    ("dualjet", 4, ["dualjet", "--relation-src", "R", "--relation-dst", "R", "--map", "id", "--bundle", "p"],
     "21f47099c80dc09a7acae17a69bc68c515b29a3d25df3d26b0e1f6d3c9849e0d"),
]


@pytest.mark.parametrize(
    "n, argv, digest",
    [case[1:] for case in GOLDEN_COMPLETE_DIGESTS],
    ids=[case[0] for case in GOLDEN_COMPLETE_DIGESTS],
)
def test_records_output_on_complete_graph_is_pinned(tmp_path, n, argv, digest):
    path = tmp_path / f"k{n}.ws"
    path.write_text(serialize_workspace(complete_graph_workspace(n, 2)))
    code, text = run(["-w", str(path), "--format", "records", *argv])
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


# sha256 of the text output of jetbundle and polyjet on K_5 and dualjet on
# K_4, fibers 2, pinned from the implementation that built every table and
# counted the header from the projection's fiber index.
GOLDEN_COMPLETE_TEXT_DIGESTS = [
    ("jetbundle", 5, ["jetbundle", "--relation", "R", "--bundle", "p"],
     "7c7ec43c76d743c2c6f654e05975226d66f723fe67d90dcd1f4af73fadbf7d28"),
    ("polyjet", 5, ["polyjet", "--relation", "R", "--bundle", "p"],
     "9de3fe2fa21a2e875f979d5f29e289bfc9922c4d3ecfe499beffd5e7446515ae"),
    ("dualjet", 4, ["dualjet", "--relation-src", "R", "--relation-dst", "R", "--map", "id", "--bundle", "p"],
     "2fbe1089108b36aa651c86adbef87685abba7e2c0f0caac3f5f9bd73ce8d594a"),
]


@pytest.mark.parametrize(
    "n, argv, digest",
    [case[1:] for case in GOLDEN_COMPLETE_TEXT_DIGESTS],
    ids=[case[0] for case in GOLDEN_COMPLETE_TEXT_DIGESTS],
)
def test_text_output_on_complete_graph_is_pinned(tmp_path, n, argv, digest):
    path = tmp_path / f"k{n}.ws"
    path.write_text(serialize_workspace(complete_graph_workspace(n, 2)))
    code, text = run(["-w", str(path), *argv])
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def _two_point_workspace() -> Workspace:
    return parse_workspace(Path(FIXTURE).read_text() + TWO_POINT)


def _fold(n: int) -> tuple[str, ...]:
    """The path graph P_n folded onto its first half: v_i -> v_min(i, n-1-i)."""
    return tuple(f"v{min(i, n - 1 - i)}" for i in range(n))


# Per case: the workspace, the values of a base map g from A into the object
# of the target relation, that relation and the bundle over its object.
DUALJET_CASES = {
    "p12-fold": (lambda: path_graph_workspace(12, 2), _fold(12), "R", "p"),
    "k4-map": (lambda: complete_graph_workspace(4, 2), ("v0", "v0", "v1", "v3"), "R", "p"),
    "p3-two-point": (_two_point_workspace, ("u", "v", "u"), "S", "pB"),
}


def _dualjet_case(tmp_path, case: str, vertical: bool) -> list[str]:
    """Write the case's workspace plus g, and over A the bundle q with one
    element per point and the vertical v: g*(bundle) -> q that collapses each
    fiber; return the argv of `dualjet` on the Cartesian comorphism along g,
    or on the one with vertical part v."""
    build, g_values, relation, bundle = DUALJET_CASES[case]
    ws = build()
    a = ws.objects["A"]
    g = FinMap(a, ws.relations[relation].over, g_values)
    sq = pullback(g, ws.bundles[bundle].map)
    q_total = FinSet("Q", tuple(f"q.{x}" for x in a))
    ws.objects[sq.apex.name] = sq.apex
    ws.objects["Q"] = q_total
    ws.maps["g"] = g
    ws.maps["q"] = FinMap(q_total, a, a.elements)
    ws.maps["v"] = FinMap(sq.apex, q_total, tuple(f"q.{x}" for x in sq.left.values))
    ws.bundles["q"] = Bundle(ws.maps["q"])
    path = tmp_path / f"{case}.ws"
    path.write_text(serialize_workspace(ws))
    argv = ["-w", str(path), "--format", "records", "dualjet", "--relation-src", "R",
            "--relation-dst", relation, "--map", "g", "--bundle", bundle]
    return argv + ["--vertical", "v", "--src-bundle", "q"] if vertical else argv


# sha256 of the `dualjet` records output along non-identity base maps, with
# and without a collapsing vertical part, pinned from the implementation that
# composed the Cartesian and vertical images through re-association maps.
GOLDEN_DUALJET_DIGESTS = [
    ("p12-fold", False, "6af4c526281d9b5c8a0e14daa47cf30a2e266f9bbe45af7994debfee9c10afd9"),
    ("p12-fold", True, "7054340bb078d333695037213ed85d38ccb26f58cb728105810adffeb4978364"),
    ("k4-map", False, "5afefe4e493eaf8b3e86de633e56c1a00e9a7a23071099fdf8b31fd707a0c963"),
    ("k4-map", True, "242fd742b1e92bb556b31ea34f06451a71c15ad735ed0ab0019fe81f8832ba65"),
    ("p3-two-point", False, "3169146c5728f70bfac2cb614ee7607c3311f0959a516568c2248069c4bb221e"),
    ("p3-two-point", True, "21dc9ba503549627ffffe000f700d45970c35e9dff83d5d2f65c684b9a692afa"),
]


@pytest.mark.parametrize(
    "case, vertical, digest",
    GOLDEN_DUALJET_DIGESTS,
    ids=[case + ("-vertical" if vertical else "") for case, vertical, _ in GOLDEN_DUALJET_DIGESTS],
)
def test_dualjet_records_along_non_identity_maps_are_pinned(tmp_path, case, vertical, digest):
    code, text = run(_dualjet_case(tmp_path, case, vertical))
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


# sha256 of the `check --suite all --seed 42 --trials 10` reports, pinned
# while relations and subobjects at a stage were still two classes; they fix
# every suite's passed= count.
GOLDEN_CHECK_DIGESTS = [
    ("text", "ae40476e26590cef2dda597474966a9c6a21931ca5b17de197d36cb844d73cac"),
    ("records", "2a4c3bd98961d0ae47cacc923c068a541ffaf263adeb8b29bda54ec7f0fa8e4a"),
]


@pytest.mark.parametrize(
    "format_, digest", GOLDEN_CHECK_DIGESTS, ids=[case[0] for case in GOLDEN_CHECK_DIGESTS]
)
def test_check_report_is_pinned(format_, digest):
    code, text = run(["--format", format_, "check", "--suite", "all", "--seed", "42", "--trials", "10"])
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "command, point, index, message",
    [
        ("classify", "b", "4", "index 4 out of range; 4 jets at b"),
        ("classify", "a", "-1", "index -1 out of range; 2 jets at a"),
        ("classify", "c", "9", "index 9 out of range; 2 jets at c"),
        ("phi", "b", "4", "index 4 out of range; 4 jets at the image point"),
        ("phi", "a", "-1", "index -1 out of range; 2 jets at the image point"),
        ("phi", "c", "2", "index 2 out of range; 2 jets at the image point"),
    ],
)
def test_index_out_of_range_exits_2_with_the_jet_count(tmp_path, capsys, command, point, index, message):
    path = tmp_path / "p3_id.ws"
    path.write_text(Path(FIXTURE).read_text() + "map id : A -> A { a -> a ; b -> b ; c -> c }\n")
    argv = ["-w", str(path), command]
    if command == "classify":
        argv += ["--relation", "R", "--bundle", "p"]
    else:
        argv += ["--relation-src", "R", "--relation-dst", "R", "--map", "id", "--map0", "id", "--bundle", "p"]
    code, text = run([*argv, "--point", point, "--index", index])
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_phi_bundle_off_the_target_relation_exits_2(tmp_path, capsys):
    path = tmp_path / "p3_off.ws"
    path.write_text(
        Path(FIXTURE).read_text()
        + "map id : A -> A { a -> a ; b -> b ; c -> c }\n"
        + "object B { x }\nobject F { x0 }\nmap q : F -> B { x0 -> x }\nbundle q = q\n"
    )
    code, text = run(
        ["-w", str(path), "phi", "--relation-src", "R", "--relation-dst", "R", "--map", "id",
         "--map0", "id", "--bundle", "q", "--point", "b", "--index", "0"]
    )
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == "error: bundle does not live over the target relation's source\n"


def test_phi_maps_that_break_the_relation_exit_2(tmp_path, capsys):
    path = tmp_path / "p3_k.ws"
    # k sends the pair (a,b) of R to (a,c), which R lacks.
    path.write_text(Path(FIXTURE).read_text() + "map k : A -> A { a -> a ; b -> c ; c -> a }\n")
    code, text = run(
        ["-w", str(path), "phi", "--relation-src", "R", "--relation-dst", "R", "--map", "k",
         "--map0", "k", "--bundle", "p", "--point", "b", "--index", "0"]
    )
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == "error: the maps do not preserve the relations\n"


def test_monad_at_a_map_into_another_object_exits_2(tmp_path, capsys):
    path = tmp_path / "p3_b.ws"
    # k lands in B, but R's destination is A.
    path.write_text(
        Path(FIXTURE).read_text() + "object B { u }\nmap k : A -> B { a -> u ; b -> u ; c -> u }\n"
    )
    code, text = run(["-w", str(path), "monad", "--relation", "R", "--at", "k"])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == "error: element does not land in the relation's destination\n"


def test_classify_label_collision_is_an_internal_error(monkeypatch, capsys):
    import finjet.polyfun as polyfun

    monkeypatch.setattr(polyfun, "table_label", lambda anchor, entries: f"({anchor}|0000000000)")
    code, text = run(
        ["-w", FIXTURE, "classify", "--relation", "R", "--bundle", "p", "--point", "b", "--index", "0"]
    )
    assert code == 3
    assert text == ""
    assert capsys.readouterr().err == (
        "internal error: ValueError: duplicate elements in finite set 'J(E)'\n"
    )


def test_trusted_paths_match_the_checked_constructors(monkeypatch, tmp_path):
    for n in (12, 40):
        (tmp_path / f"p{n}.ws").write_text(serialize_workspace(path_graph_workspace(n, 2)))
    for n in (4, 5):
        (tmp_path / f"k{n}.ws").write_text(serialize_workspace(complete_graph_workspace(n, 2)))
    commands = [["check", "--suite", "all", "--seed", "42", "--trials", "20"]]
    commands += [["-w", str(tmp_path / f"p{n}.ws"), "--format", "records", *argv]
                 for n, argv, _ in GOLDEN_PATH_DIGESTS]
    commands += [["-w", str(tmp_path / f"k{n}.ws"), "--format", "records", *argv]
                 for _, n, argv, _ in GOLDEN_COMPLETE_DIGESTS]
    commands += [["-w", str(tmp_path / "k5.ws"), "jets", "--relation", "R", "--bundle", "p", "--point", "v1"]]
    commands += [_dualjet_case(tmp_path, case, vertical) for case, vertical, _ in GOLDEN_DUALJET_DIGESTS]
    expected = [run(argv) for argv in commands]
    assert all(code == 0 for code, _ in expected)
    checked = set()

    def by_constructor(cls):
        def make(*fields):
            checked.add(cls.__name__)
            return cls(*fields)
        return staticmethod(make)

    for info in pkgutil.iter_modules(finjet.__path__):
        module = importlib.import_module(f"finjet.{info.name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__ and "_make" in vars(cls):
                monkeypatch.setattr(cls, "_make", by_constructor(cls))
    assert [run(argv) for argv in commands] == expected
    assert checked == {
        "FinMap", "Span", "SubobjectAtStage", "PartialMapAtStage",
        "SectionJet", "SliceMorphism", "Comorphism", "RelationMorphism",
    }


# Relation, map and object lines around two drawn names, most of them malformed.
_FUZZ_BAD_LINES = [
    "relation Bad : A ~ B {{ ({x},{y} }}",
    "relation Bad : A ~ B {{ {x},{y}) }}",
    "relation Bad : A ~ B {{ ({x}{y}) }}",
    "relation Bad : A ~ B {{ ({x},{y},{x}) }}",
    "relation Bad : A ~ B {{ ({x}),{y}) }}",
    "relation Bad : A ~ B {{ (({x},{y}),{y}) }}",
    "relation Bad : A ~ B {{ ({x},{y}) }}",
    "map bad : A -> B {{ {x} {y} }}",
    "map bad : A -> B {{ {x} -> {y} -> {x} }}",
    "map bad : A -> B {{ ;; }}",
    "map bad : A -> B {{ {x} -> {y} }}",
    "object Bad {{ {x},{y} }}",
    "object Bad {{ {x};{y} }}",
    "object Bad {{ {x}->{y} }}",
]


@st.composite
def _fuzz_workspaces(draw):
    """A workspace whose keys are its objects' names: objects A, B and E,
    maps f: A -> B, id: A -> A and p: E -> A, an endo-relation R on A, a
    relation S from A to B, and the bundle p."""
    names = draw(st.lists(element_names, unique=True, min_size=2, max_size=8))
    cut_a = draw(st.integers(1, len(names) - 1))
    cut_b = draw(st.integers(cut_a + 1, len(names)))
    a = FinSet("A", tuple(names[:cut_a]))
    b = FinSet("B", tuple(names[cut_a:cut_b]))
    e = FinSet("E", tuple(names[cut_b:]))

    def some_map(dom, cod):
        return FinMap(dom, cod, tuple(draw(st.sampled_from(cod.elements)) for _ in dom))

    def some_relation(over, stage):
        pairs = [(x, y) for x in over for y in stage if draw(st.booleans())]
        return Relation.from_pairs(over, stage, pairs)

    p = some_map(e, a)
    return Workspace(
        objects={"A": a, "B": b, "E": e},
        maps={"f": some_map(a, b), "id": FinMap.identity(a), "p": p},
        relations={"R": some_relation(a, a), "S": some_relation(a, b)},
        bundles={"p": Bundle(p)},
    )


@st.composite
def _fuzz_commands(draw, ws):
    """One call of each of the 8 data commands, with declared and undeclared
    names, points and indexes.  Each name is the one that fits the command
    (R, p, id) with probability about 1/2, so most commands also succeed."""
    def pick(table, fit):
        return draw(st.sampled_from([fit] * (len(table) + 1) + [*table, "nosuch"]))

    points = [x for obj in ws.objects.values() for x in obj] + ["zz"]

    def point():
        return f"--point={draw(st.sampled_from(points))}"

    def index():
        return f"--index={draw(st.integers(-1, 5))}"

    rel, maps, bundles = ws.relations, ws.maps, ws.bundles
    monad_at = ["--at", pick(maps, "id")] if draw(st.booleans()) else [point()]
    vertical = ["--vertical", pick(maps, "p"), "--src-bundle", pick(bundles, "p")]
    return [
        ["pullback", "--left", pick(maps, "p"), "--right", pick(maps, "id")],
        ["monad", "--relation", pick(rel, "R"), *monad_at],
        ["jets", "--relation", pick(rel, "R"), "--bundle", pick(bundles, "p"), point()],
        ["jetbundle", "--relation", pick(rel, "R"), "--bundle", pick(bundles, "p")],
        ["classify", "--relation", pick(rel, "R"), "--bundle", pick(bundles, "p"),
         point(), index()],
        ["phi", "--relation-src", pick(rel, "R"), "--relation-dst", pick(rel, "R"),
         "--map", pick(maps, "id"), "--map0", pick(maps, "id"), "--bundle", pick(bundles, "p"),
         point(), index()],
        ["polyjet", "--relation", pick(rel, "R"), "--bundle", pick(bundles, "p")],
        ["dualjet", "--relation-src", pick(rel, "R"), "--relation-dst", pick(rel, "R"),
         "--map", pick(maps, "id"), "--bundle", pick(bundles, "p"),
         *(vertical if draw(st.booleans()) else [])],
    ]


@settings(max_examples=50, deadline=None)
@given(_fuzz_workspaces(), st.data())
def test_fuzzed_workspaces_and_commands_exit_0_or_2(tmp_path_factory, ws, data):
    """Every data command on any workspace, well formed or not, succeeds or
    fails with one `error:` line on stderr and exit 2, never exit 3."""
    assert parse_workspace(serialize_workspace(ws)) == ws
    text = serialize_workspace(ws)
    if data.draw(st.booleans()):
        x, y = data.draw(element_names), data.draw(element_names)
        text += data.draw(st.sampled_from(_FUZZ_BAD_LINES)).format(x=x, y=y) + "\n"
    path = tmp_path_factory.mktemp("fuzz") / "ws.ws"
    path.write_text(text)
    for argv in data.draw(_fuzz_commands(ws)):
        for format_ in ("text", "records"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, out = run(["-w", str(path), "--format", format_, *argv])
            assert code in (0, 2), (argv, err.getvalue())
            assert err.getvalue().count("\n") == (code == 2), (argv, err.getvalue())
            if code == 2:
                assert out == "" and err.getvalue().startswith("error: ")
