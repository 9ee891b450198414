"""Validation at the boundary: the checked constructors keep rejecting bad
input with their messages, the unchecked `_make` builders build exactly what
the checked constructors build, and the modules that take outside input
never call a builder."""

import ast
import importlib
import inspect
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import finjet
from finjet import reference
from finjet.errors import ShapeMismatch
from finjet.fibdual import Comorphism, generic_section_comorphism, global_jet, identity_comorphism
from finjet.finset import FinMap, FinSet, Span, element, pair_into_pullback, pullback, span_leq
from finjet.jets import (
    PhiContext,
    SectionJet,
    classify,
    enumerate_jets,
    jet_bundle,
    jet_on_vertical,
    phi,
    restrict_jet,
)
from finjet.kripke import (
    PartialMapAtStage,
    SubobjectAtStage,
    change_of_stage,
    counterimage,
    member,
    postcompose,
    precompose,
    sub_leq,
    yoneda_construct,
)
from finjet.polyfun import (
    Bundle,
    SliceMorphism,
    SpanMorphism,
    adjunction_bijection,
    compose_slice,
    dependent_product,
    invert_slice,
    polynomial_product,
    pullback_bundle,
    relabel_identity,
)
from finjet.relations import Relation, RelationMorphism, ball_relation, check_preserves, monad
from finjet.suites import _Checker, beck_chevalley_check, cluex_law
from strategies import constant_map, fixture_p3_parts, full_subobject

A, E, P_MAP, BALL = fixture_p3_parts()
R = BALL.base
X = FinSet("X", ("x",))
ONE_A = FinSet("A1", ("a",))
ID_A = FinMap.identity(A)
IDENTITY = RelationMorphism(ID_A, ID_A, R, R)
SUPPORT = SubobjectAtStage(A, X, (("a", "x"), ("b", "x")))  # also a relation from A to X
PULLED = pullback_bundle(ID_A, Bundle(P_MAP))  # id*(p), over A


def _jet(at="b", relation=R, bundle=P_MAP):
    return enumerate_jets(relation, element(A, at), bundle)[0]


REJECTIONS = [
    ("finset-duplicates", lambda: FinSet("A", ("a", "a")),
     ValueError, "duplicate elements in finite set 'A'"),
    ("finmap-short", lambda: FinMap(A, A, ("a",)),
     ValueError, "map table does not cover the domain"),
    ("finmap-escapes", lambda: FinMap(A, A, ("a", "b", "z")),
     ValueError, "value 'z' not in codomain 'A'"),
    ("element", lambda: element(A, "z"),
     ValueError, "value 'z' not in codomain 'A'"),
    ("span", lambda: Span(FinMap.identity(A), FinMap.identity(E)),
     ValueError, "span legs must share their domain"),
    ("subobject-escapes", lambda: SubobjectAtStage(A, X, (("z", "x"),)),
     ValueError, "pair (z,x) escapes A x X"),
    ("subobject-order", lambda: SubobjectAtStage(A, X, (("b", "x"), ("a", "x"))),
     ValueError, "pairs not in canonical order; use from_pairs"),
    ("relation-escapes", lambda: Relation(A, A, (("a", "z"),)),
     ValueError, "pair (a,z) escapes A x A"),
    ("relation-order", lambda: Relation(A, A, (("b", "a"), ("a", "a"))),
     ValueError, "pairs not in canonical order; use from_pairs"),
    ("relation-from-pairs", lambda: Relation.from_pairs(A, A, [("a", "a"), ("a", "z")]),
     ValueError, "pair (a,z) escapes A x A"),
    ("subobject-from-pairs", lambda: SubobjectAtStage.from_pairs(A, X, iter([("z", "x")])),
     ValueError, "pair (z,x) escapes A x X"),
    ("partial-map-short", lambda: PartialMapAtStage(SUPPORT, E, ("a0",)),
     ValueError, "value table does not cover the support"),
    ("partial-map-escapes", lambda: PartialMapAtStage(SUPPORT, E, ("a0", "zz")),
     ValueError, "value 'zz' not in target 'E'"),
    ("partial-section-total", lambda: SectionJet(_jet().underlying, ID_A, R, element(A, "b")),
     ValueError, "bundle total is not the partial map's target"),
    ("partial-section-base",
     lambda: SectionJet(_jet().underlying, FinMap(E, ONE_A, ("a",) * 5), R, element(A, "b")),
     ValueError, "bundle base is not the partial map's object"),
    ("partial-section-fiber",
     lambda: SectionJet(PartialMapAtStage(_jet("a").support, E, ("a0", "c0")), P_MAP, R, element(A, "a")),
     ValueError, "value 'c0' is not in the fiber over 'b'"),
    ("section-jet-fiber",
     lambda: SectionJet(PartialMapAtStage(_jet().support, E, ("a0", "c0", "c0")), P_MAP, R, element(A, "b")),
     ValueError, "value 'c0' is not in the fiber over 'b'"),
    ("section-jet-base",
     lambda: SectionJet(_jet().underlying, P_MAP, R, FinMap(X, ONE_A, ("a",))),
     ShapeMismatch, "base element does not land in the relation's destination"),
    ("section-jet-bundle",
     lambda: SectionJet(_jet().underlying, P_MAP, full_subobject(E, A), element(A, "b")),
     ShapeMismatch, "bundle does not live over the relation's source"),
    ("section-jet-support",
     lambda: SectionJet(_jet().underlying, P_MAP, R, element(A, "a")),
     ValueError, "support is not the monad of the base element"),
    ("phi-context-bundle", lambda: PhiContext(IDENTITY, FinMap.identity(E)),
     ShapeMismatch, "bundle does not live over the target relation's source"),
    ("restrict-jet-stage", lambda: restrict_jet(_jet(), ID_A),
     ShapeMismatch, "stage change does not land at the jet's stage"),
    ("phi-base", lambda: phi(PhiContext(IDENTITY, P_MAP), element(E, "a0"), _jet()),
     ShapeMismatch, "base element does not land in the source relation's destination"),
    ("phi-image", lambda: phi(PhiContext(IDENTITY, P_MAP), element(A, "a"), _jet("b")),
     ShapeMismatch, "jet is not based at the image of the given element"),
    ("jet-on-vertical-relations",
     lambda: jet_on_vertical(jet_bundle(R, P_MAP), jet_bundle(full_subobject(A, A), P_MAP), FinMap.identity(E)),
     ShapeMismatch, "jet bundles built from different relations"),
    ("jet-on-vertical-base",
     lambda: jet_on_vertical(jet_bundle(R, P_MAP), jet_bundle(R, P_MAP), constant_map(E, E, "b0")),
     ShapeMismatch, "map does not commute over the base"),
    ("slice-morphism-bases",
     lambda: SliceMorphism(Bundle(P_MAP), Bundle(FinMap.identity(E)), FinMap.identity(E)),
     ShapeMismatch, "slice morphism between bundles over different bases"),
    ("slice-morphism-totals",
     lambda: SliceMorphism(Bundle(P_MAP), Bundle(P_MAP), FinMap.identity(A)),
     ShapeMismatch, "arrow does not run between the bundle totals"),
    ("slice-morphism-vertical",
     lambda: SliceMorphism(Bundle(P_MAP), Bundle(P_MAP), constant_map(E, E, "b0")),
     ShapeMismatch, "arrow does not commute over the base"),
    ("comorphism-ends",
     lambda: Comorphism(ID_A, Bundle(FinMap.identity(E)), Bundle(P_MAP), SliceMorphism.identity(PULLED)),
     ShapeMismatch, "bundles do not sit over the ends of the base map"),
    ("comorphism-start",
     lambda: Comorphism(ID_A, Bundle(P_MAP), Bundle(P_MAP), SliceMorphism.identity(Bundle(P_MAP))),
     ShapeMismatch, "vertical part does not start at the canonical pullback"),
    ("comorphism-end",
     lambda: Comorphism(ID_A, PULLED, Bundle(P_MAP), relabel_identity(Bundle(P_MAP))),
     ShapeMismatch, "vertical part does not end at the source bundle"),
    ("sub-leq-objects", lambda: sub_leq(SUPPORT, full_subobject(E, X)),
     ShapeMismatch, "subobjects over different objects"),
    ("change-of-stage", lambda: change_of_stage(SUPPORT, ID_A),
     ShapeMismatch, "map into 'A' cannot change stage 'X'"),
    ("counterimage", lambda: counterimage(FinMap.identity(E), SUPPORT),
     ShapeMismatch, "map into 'E' cannot take counterimage over 'A'"),
    ("member-element", lambda: member(element(E, "a0"), element(X, "x"), SUPPORT),
     ShapeMismatch, "element does not land in the subobject's object"),
    ("member-stage", lambda: member(element(A, "a"), element(A, "a"), SUPPORT),
     ShapeMismatch, "stage change does not land in the subobject's stage"),
    ("member-stages-differ", lambda: member(element(A, "a"), FinMap.identity(X), SUPPORT),
     ShapeMismatch, "element and stage change defined at different stages"),
    ("postcompose", lambda: postcompose(ID_A, PartialMapAtStage(SUPPORT, E, ("a0", "b0"))),
     ShapeMismatch, "map does not start at the partial map's target"),
    ("precompose", lambda: precompose(PartialMapAtStage(SUPPORT, E, ("a0", "b0")), FinMap.identity(E)),
     ShapeMismatch, "map does not land in the partial map's object"),
    ("yoneda-stage", lambda: yoneda_construct(SUPPORT, lambda a, alpha: element(E, "a0")),
     ValueError, "law did not return an element at the canonical stage"),
    ("monad-element", lambda: monad(R, element(E, "a0")),
     ShapeMismatch, "element does not land in the relation's destination"),
    ("relation-morphisms-chain",
     lambda: IDENTITY.then(RelationMorphism(ID_A, ID_A, full_subobject(A, A), full_subobject(A, A))),
     ShapeMismatch, "relation morphisms do not chain"),
    ("ball-radius", lambda: ball_relation(R, -1),
     ValueError, "radius must be >= 0"),
    ("compose-slice", lambda: compose_slice(SliceMorphism.identity(Bundle(P_MAP)), SliceMorphism.identity(PULLED)),
     ShapeMismatch, "slice morphisms do not chain"),
    ("invert-slice", lambda: invert_slice(SliceMorphism(Bundle(P_MAP), Bundle(ID_A), P_MAP)),
     ShapeMismatch, "slice morphism is not invertible"),
    ("pullback-bundle", lambda: pullback_bundle(FinMap.identity(E), Bundle(P_MAP)),
     ShapeMismatch, "pullback along a map into a different base"),
    ("dependent-product", lambda: dependent_product(FinMap.identity(E), Bundle(P_MAP)),
     ShapeMismatch, "dependent product input must live over the map's domain"),
    ("polynomial-product",
     lambda: polynomial_product(Span(FinMap.identity(E), FinMap.identity(E)), Bundle(P_MAP)),
     ShapeMismatch, "bundle does not live over the left leg's codomain"),
    ("span-morphism-right",
     lambda: SpanMorphism(R.span, R.span, ID_A, FinMap.identity(R.span.apex), constant_map(A, A, "a")),
     ShapeMismatch, "right square does not commute"),
    ("pair-into-pullback-stage",
     lambda: pair_into_pullback(element(A, "a"), FinMap.identity(E), pullback(P_MAP, P_MAP)),
     ShapeMismatch, "cone legs must share their stage"),
    ("beck-chevalley-base", lambda: beck_chevalley_check(FinMap.identity(E), R, P_MAP, 1),
     ShapeMismatch, "map does not land in the relation's destination"),
    ("cluex-law-maps",
     lambda: cluex_law(
         _Checker(),
         RelationMorphism(ID_A, constant_map(A, A, "a"), R, full_subobject(A, A)),
         FinMap.identity(E),
         P_MAP,
         element(A, "a"),
     ),
     ShapeMismatch, "classical check needs one map acting on both ends"),
    ("global-jet-ends",
     lambda: global_jet(identity_comorphism(Bundle(P_MAP)), jet_bundle(R, ID_A), jet_bundle(R, ID_A)),
     ShapeMismatch, "jet bundles are not those of the comorphism's ends"),
]


@pytest.mark.parametrize(
    "build, error, message",
    [case[1:] for case in REJECTIONS],
    ids=[case[0] for case in REJECTIONS],
)
def test_public_constructors_reject_bad_input(build, error, message):
    with pytest.raises(error) as excinfo:
        build()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


D_ONE = constant_map(A, ONE_A, "a")  # d: A -> A1
ADJUNCTION = adjunction_bijection(ID_A, Bundle(P_MAP), Bundle(P_MAP))
X_TO_A = FinMap(X, A, ("a",))

# Each two-part guard `A or B`, called once with only A wrong and once with
# only B wrong, so weakening the guard to `A and B` lets one call through.
GUARD_HALVES = [
    ("phi-relation",
     lambda: phi(PhiContext(IDENTITY, P_MAP), element(A, "b"), _jet(relation=full_subobject(A, A))),
     "jet does not belong to the context's target data"),
    ("phi-bundle",
     lambda: phi(PhiContext(IDENTITY, P_MAP), element(A, "b"), _jet(bundle=ID_A)),
     "jet does not belong to the context's target data"),
    ("classify-relation",
     lambda: classify(jet_bundle(R, P_MAP), _jet(relation=full_subobject(A, A))),
     "jet does not belong to this jet bundle"),
    ("classify-bundle", lambda: classify(jet_bundle(R, P_MAP), _jet(bundle=ID_A)),
     "jet does not belong to this jet bundle"),
    ("span-leq-left", lambda: span_leq(R.span, full_subobject(X, A).span),
     "spans do not share their ends"),
    ("span-leq-right", lambda: span_leq(R.span, SUPPORT.span), "spans do not share their ends"),
    ("pair-into-pullback-left",
     lambda: pair_into_pullback(FinMap(X, E, ("a0",)), FinMap(X, E, ("a0",)), pullback(ID_A, P_MAP)),
     "cone legs do not match the pullback legs"),
    ("pair-into-pullback-right",
     lambda: pair_into_pullback(X_TO_A, X_TO_A, pullback(ID_A, P_MAP)),
     "cone legs do not match the pullback legs"),
    ("slice-morphism-arrow-dom", lambda: SliceMorphism(Bundle(P_MAP), Bundle(ID_A), ID_A),
     "arrow does not run between the bundle totals"),
    ("slice-morphism-arrow-cod", lambda: SliceMorphism(Bundle(ID_A), Bundle(P_MAP), ID_A),
     "arrow does not run between the bundle totals"),
    ("to-total-src", lambda: ADJUNCTION.to_total(SliceMorphism.identity(ADJUNCTION.product.result)),
     "morphism is not y -> product"),
    ("to-total-dst", lambda: ADJUNCTION.to_total(SliceMorphism.identity(ADJUNCTION.left)),
     "morphism is not y -> product"),
    ("adjunction-left", lambda: adjunction_bijection(D_ONE, Bundle(P_MAP), Bundle(P_MAP)),
     "bundles do not sit over the ends of the map"),
    ("adjunction-right",
     lambda: adjunction_bijection(D_ONE, Bundle(FinMap.identity(ONE_A)), Bundle(FinMap.identity(ONE_A))),
     "bundles do not sit over the ends of the map"),
    ("preserves-source-over", lambda: check_preserves(X_TO_A, X_TO_A, SUPPORT, R),
     "maps do not start at the source relation's ends"),
    ("preserves-source-stage", lambda: check_preserves(ID_A, ID_A, SUPPORT, R),
     "maps do not start at the source relation's ends"),
    ("preserves-target-over",
     lambda: check_preserves(constant_map(A, X, "x"), constant_map(A, X, "x"), R, SUPPORT),
     "maps do not end at the target relation's ends"),
    ("preserves-target-stage", lambda: check_preserves(ID_A, ID_A, R, SUPPORT),
     "maps do not end at the target relation's ends"),
    ("global-jet-src",
     lambda: global_jet(identity_comorphism(Bundle(P_MAP)), jet_bundle(R, ID_A), jet_bundle(R, P_MAP)),
     "jet bundles are not those of the comorphism's ends"),
    ("global-jet-dst",
     lambda: global_jet(identity_comorphism(Bundle(P_MAP)), jet_bundle(R, P_MAP), jet_bundle(R, ID_A)),
     "jet bundles are not those of the comorphism's ends"),
]


@pytest.mark.parametrize(
    "call, message",
    [case[1:] for case in GUARD_HALVES],
    ids=[case[0] for case in GUARD_HALVES],
)
def test_each_half_of_a_two_part_guard_rejects_alone(call, message):
    with pytest.raises(ShapeMismatch) as excinfo:
        call()
    assert str(excinfo.value) == message


@pytest.mark.parametrize("module", ["cli", "workspace", "instances"])
def test_outside_input_never_takes_the_trusted_path(module):
    source = (Path(finjet.__file__).parent / f"{module}.py").read_text()
    assert "._make(" not in source


def test_every_unchecked_build_is_a_class_builder():
    """The only unchecked builds are the `_make` builders, one `object.__new__`
    each: no module keeps a generic helper that builds any class without its
    checks."""
    sources = [path.read_text() for path in Path(finjet.__file__).parent.glob("*.py")]
    assert not any("_trusted" in text for text in sources)
    assert sum(text.count("object.__new__(") for text in sources) == len(VALID_FIELDS)


def _builder_classes() -> dict[str, type]:
    """Every finjet class that defines `_make` itself, by name."""
    found = {}
    for info in pkgutil.iter_modules(finjet.__path__):
        module = importlib.import_module(f"finjet.{info.name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__ and "_make" in vars(cls):
                found[cls.__name__] = cls
    return found


def _fields(obj) -> tuple:
    return tuple(getattr(obj, name) for name in obj._fields)


# One valid field tuple per class with a builder, in declaration order.
VALID_FIELDS = {
    "FinMap": lambda: (E, A, P_MAP.values),
    "Span": lambda: (P_MAP, FinMap.identity(E)),
    "SubobjectAtStage": lambda: (A, X, SUPPORT.pairs),
    "PartialMapAtStage": lambda: (SUPPORT, E, ("a0", "b0")),
    "SectionJet": lambda: _fields(_jet()),
    "SliceMorphism": lambda: (Bundle(P_MAP), Bundle(P_MAP), FinMap.identity(E)),
    "Comorphism": lambda: (ID_A, PULLED, Bundle(P_MAP), SliceMorphism.identity(PULLED)),
    "RelationMorphism": lambda: (ID_A, ID_A, R, R),
}


def test_each_builder_writes_its_fields_and_matches_the_constructor():
    """Distinct sentinels land under their own field names, so a builder
    cannot drop, swap or add a field; on valid fields the built value equals
    the checked one and hashes the same."""
    classes = _builder_classes()
    assert set(classes) == set(VALID_FIELDS)
    for name, cls in classes.items():
        fields = list(cls._fields)
        sentinels = [object() for _ in fields]
        obj = cls._make(*sentinels)
        assert type(obj) is cls, name
        assert vars(obj) == dict(zip(fields, sentinels)), name
        valid = VALID_FIELDS[name]()
        built, checked = cls._make(*valid), cls(*valid)
        assert built == checked, name
        assert hash(built) == hash(checked), name


def _uses_functools_cached_property(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(a.name == "cached_property" for a in node.names):
                return True
        elif isinstance(node, ast.Attribute) and node.attr == "cached_property":
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                return True
    return False


def test_no_module_takes_the_locking_cached_property():
    """finset's lockless `cached_property` is the only one: the functools
    version locks on every first access on Python 3.11."""
    package = Path(finjet.__file__).parent
    users = {
        path.name
        for path in package.glob("*.py")
        if _uses_functools_cached_property(ast.parse(path.read_text()))
    }
    assert users == set()
    assert _uses_functools_cached_property(ast.parse("from functools import cached_property"))
    assert _uses_functools_cached_property(ast.parse("import functools\nx = functools.cached_property"))
    assert not _uses_functools_cached_property(ast.parse("from .finset import cached_property"))


def _imports_reference(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] == "reference":
                return True
            if module in ("", "finjet") and any(a.name == "reference" for a in node.names):
                return True
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[-1] == "reference" for a in node.names):
                return True
    return False


def test_only_the_suites_import_the_reference_routes():
    package = Path(finjet.__file__).parent
    importers = {
        path.name
        for path in package.glob("*.py")
        if _imports_reference(ast.parse(path.read_text()))
    }
    assert importers <= {"suites.py"}
    assert _imports_reference(ast.parse("from .reference import distributivity_terminal_brute"))
    assert _imports_reference(ast.parse("from finjet import reference"))


def test_every_reference_route_is_used():
    """A second route that no suite or test calls checks nothing."""
    users = [Path(finjet.__file__).parent / "suites.py"]
    users += [path for path in Path(__file__).parent.glob("*.py") if path.name != Path(__file__).name]
    texts = [path.read_text() for path in users]
    routes = [
        name
        for name, fn in inspect.getmembers(reference, inspect.isfunction)
        if fn.__module__ == reference.__name__ and not name.startswith("_")
    ]
    unused = [name for name in routes if not any(re.search(rf"\b{name}\b", t) for t in texts)]
    assert routes and unused == []


def _reads(node: ast.AST, attributes_only: bool = False) -> Counter:
    """How often each name is read inside node: as an AST name, attribute
    or import alias, or, with `attributes_only`, as an attribute alone."""
    reads = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            reads[sub.attr] += 1
        elif isinstance(sub, ast.Name) and not attributes_only:
            reads[sub.id] += 1
        elif isinstance(sub, ast.alias) and not attributes_only:
            reads[sub.name.split(".")[-1]] += 1
    return reads


def _class_names(trees: dict[str, ast.Module]) -> dict[str, str]:
    """Each module-level class name, and each module-level alias of one
    (`Relation = SubobjectAtStage`), mapped to the class it names."""
    classes = {
        top.name: top.name
        for tree in trees.values()
        for top in tree.body
        if isinstance(top, ast.ClassDef)
    }
    for tree in trees.values():
        for top in tree.body:
            if isinstance(top, ast.Assign) and isinstance(top.value, ast.Name) and top.value.id in classes:
                classes.update((t.id, classes[top.value.id]) for t in top.targets if isinstance(t, ast.Name))
    return classes


def _class_reads(node: ast.AST, name: str, owner: str, classes: dict[str, str]) -> int:
    """How often `X.name` is read inside node where X may be class owner:
    owner or an alias of it, `cls`, `self`, or any receiver that does not
    name another class (an instance, a call)."""

    def receiver(value):
        key = value.id if isinstance(value, ast.Name) else getattr(value, "attr", None)
        return classes.get(key, owner)

    return sum(
        isinstance(sub, ast.Attribute) and sub.attr == name and receiver(sub.value) == owner
        for sub in ast.walk(node)
    )


def _is_class_level(member: ast.FunctionDef) -> bool:
    return any(ast.unparse(d) in ("classmethod", "staticmethod") for d in member.decorator_list)


def _unreferenced(sources: dict[str, str]) -> set[str]:
    """The module-level functions and classes that no module reads by an
    AST name, attribute or import alias outside their own definition, and
    the class-level functions and properties, dunders aside, that no module
    reads as an attribute outside their own body.  A member is reached only
    as an attribute, so a bare name (the builtin `object`, say) does not
    reach a member of that name, and a classmethod or staticmethod is not
    reached through another class (`FinMap.identity` does not reach
    `Bundle.identity`)."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    names = sum((_reads(tree) for tree in trees.values()), Counter())
    attributes = sum((_reads(tree, True) for tree in trees.values()), Counter())
    classes = _class_names(trees)

    def unread(member: ast.FunctionDef, owner: str) -> bool:
        if not _is_class_level(member):
            return attributes[member.name] == _reads(member, True)[member.name]
        total = sum(_class_reads(tree, member.name, owner, classes) for tree in trees.values())
        return total == _class_reads(member, member.name, owner, classes)

    unused = set()
    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                if names[top.name] == _reads(top)[top.name]:
                    unused.add(f"{module}: {top.name}")
            if isinstance(top, ast.ClassDef):
                unused.update(
                    f"{module}: {top.name}.{member.name}"
                    for member in top.body
                    if isinstance(member, ast.FunctionDef)
                    and not (member.name.startswith("__") and member.name.endswith("__"))
                    and unread(member, top.name)
                )
    return unused


def test_every_library_definition_is_used_by_the_library():
    """Code that only the tests reach checks nothing the library does: no
    module-level definition and no method or property of a class.
    `reference.py` is exempt: its routes are read by the suites and tests
    (`test_every_reference_route_is_used`)."""
    package = Path(finjet.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert {entry for entry in _unreferenced(sources) if not entry.startswith("reference.py: ")} == set()
    example = {
        "a.py": (
            "def f(): pass\ndef g(): return g()\nclass C:\n"
            "    def __init__(self): pass\n"
            "    def m(self): return self.m()\n"
            "    @property\n    def p(self): return object\n"
            "    @classmethod\n    def q(cls): pass\n"
        ),
        "b.py": "from .a import C\nimport a\nx = a.f\ny = C.q()\np",
    }
    assert _unreferenced(example) == {"a.py: g", "a.py: C.m", "a.py: C.p"}
    shared = {
        "a.py": (
            "class C:\n    @classmethod\n    def make(cls): return cls.build()\n"
            "    @staticmethod\n    def build(): pass\n"
            "    @staticmethod\n    def get(): return C.get\n"
            "class D:\n    @classmethod\n    def make(cls): return C.make()\n"
            "    @staticmethod\n    def get(): pass\n"
            "E = D\n"
        ),
        "b.py": "import a\nx = a.C.make()\ny = a.E.get()",
    }
    assert _unreferenced(shared) == {"a.py: C.get", "a.py: D.make"}


def _unused_imports(tree: ast.Module) -> set[str]:
    """The names a module imports and never reads; a name listed in
    `__all__` counts as read."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            read.update(ast.literal_eval(node.value))
    return imported - read


def test_every_imported_name_is_used():
    src = Path(finjet.__file__).resolve().parent.parent
    paths = [*src.rglob("*.py"), *Path(__file__).parent.glob("*.py")]
    unused = {
        f"{path.name}: {name}"
        for path in paths
        for name in _unused_imports(ast.parse(path.read_text()))
    }
    assert unused == set()
    assert _unused_imports(ast.parse("import os.path\nfrom a import b as c, d\nd()")) == {"os", "c"}
    assert _unused_imports(ast.parse("from a import b\n__all__ = ['b']")) == set()


def _pair_named_finsets(tree: ast.Module) -> list[str]:
    """The enclosing function of every `FinSet(...)` call whose arguments
    mention `pair_name`, or "<module>" at module level."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and ast.unparse(child.func).split(".")[-1] == "FinSet":
                arguments = [*child.args, *(k.value for k in child.keywords)]
                if any("pair_name" in ast.unparse(arg) for arg in arguments):
                    found.append(where)
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_only_canonical_span_names_a_set_by_pair_name():
    """Every apex of pair-named elements comes from `canonical_span`."""
    package = Path(finjet.__file__).parent
    builders = [
        f"{path.name}: {where}"
        for path in sorted(package.glob("*.py"))
        for where in _pair_named_finsets(ast.parse(path.read_text()))
    ]
    assert builders == ["finset.py: canonical_span"]
    nested = "def f(p):\n    return FinSet('pb', tuple(pair_name(a, b) for a, b in p))"
    assert _pair_named_finsets(ast.parse(nested)) == ["f"]
    assert _pair_named_finsets(ast.parse("finset.FinSet('x', tuple(map(pair_name, xs, ys)))")) == ["<module>"]
    assert _pair_named_finsets(ast.parse("FinSet('x', names)\npair_name(a, b)")) == []


def test_distributivity_rejects_a_wrong_ended_candidate():
    """`distributivity_terminal` takes a comorphism, whose constructor
    rejects a vertical that does not run from d*(J(p)) to c*(p)."""
    eps = generic_section_comorphism(R.span, Bundle(P_MAP))
    with pytest.raises(ShapeMismatch, match="^vertical part does not start at the canonical pullback$"):
        Comorphism(eps.over, eps.src, eps.dst, SliceMorphism.identity(eps.src))


ERROR_CLASSES = {"FinjetError", "ShapeMismatch", "WorkspaceError"}
RAISED = {"ShapeMismatch", "WorkspaceError", "ValueError", "SystemExit"}


def _raised(node: ast.Raise) -> str:
    call = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return ast.unparse(call) if call is not None else "<bare raise>"


def test_one_error_class_per_boundary():
    """`errors.py` holds the base class and one class per boundary:
    `ShapeMismatch` for a library call whose arguments do not fit,
    `WorkspaceError` for outside input. No module imports any other name from
    it, and every `raise` in the package names one of those two, `ValueError`
    (a broken constructor invariant, a bug) or `SystemExit`, except the
    frozen guard: the two `AttributeError`s of finset's `Frozen` base."""
    package = Path(finjet.__file__).parent
    defined = ast.parse((package / "errors.py").read_text()).body
    assert {node.name for node in defined if isinstance(node, ast.ClassDef)} == ERROR_CLASSES
    imported, raised, guards = set(), set(), []
    for path in [*sorted(package.glob("*.py")), *sorted(Path(__file__).parent.glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "errors":
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Raise) and path.parent == package:
                raised.add(_raised(node))
                if _raised(node) == "AttributeError":
                    guards.append(path.name)
    assert imported <= ERROR_CLASSES
    assert raised <= RAISED | {"AttributeError"}
    finset = ast.parse((package / "finset.py").read_text()).body
    frozen = next(node for node in finset if isinstance(node, ast.ClassDef) and node.name == "Frozen")
    in_frozen = [n for n in ast.walk(frozen) if isinstance(n, ast.Raise) and _raised(n) == "AttributeError"]
    assert guards == ["finset.py"] * len(in_frozen) == ["finset.py"] * 2
