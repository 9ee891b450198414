"""Acceptance criteria, one test per criterion, exact checks at the stated bounds.

Each test prints one ``ACCEPTANCE <n> (<name>): PASS`` line when it succeeds
(run pytest with ``-s`` to see the lines as they appear).
"""

import io
import itertools
import time

from finjet.cli import main as cli_main
from finjet.fibdual import Comorphism, distributivity_terminal, generic_section_comorphism
from finjet.finset import FinMap, FinSet, Span, all_maps, compose, pullback
from finjet.instances import (
    rand_bundle,
    rand_finset,
    rand_map,
    rand_partial_map,
    rand_relation,
    rand_subobject,
    rng_for,
    trim_bundle,
)
from finjet.jets import (
    classify,
    enumerate_jets,
    jet_bundle,
    jet_on_vertical,
    polynomial_product_iso,
    restrict_jet,
)
from finjet.kripke import (
    PartialMapAtStage,
    SubobjectAtStage,
    extensionality_leq,
    law_of,
    sub_leq,
    value,
    yoneda_construct,
)
from finjet.polyfun import (
    Bundle,
    SliceMorphism,
    SpanMorphism,
    invert_slice,
    mate_transform,
    polynomial_map,
    slice_homs,
)
from finjet.suites import (
    _Checker,
    adjunction_instance_ok,
    beck_chevalley_check,
    check_global_functor,
    check_phi_laws,
    product_of_fibers,
)
from strategies import constant_map, fixture_p3_parts

SEED = 42


def _report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def criterion1_instances():
    """The shared instance stream for criteria 1, 2 and 7."""
    for index in range(200):
        rng = rng_for(SEED, "acceptance-fibers", index)
        a = rand_finset(rng, "A", 4, min_size=1)
        a0 = rand_finset(rng, "A0", 4, min_size=1)
        r = rand_relation(rng, a, a0)
        p = rand_bundle(rng, a, 3)
        yield r, p


def test_criterion_1_product_of_fibers():
    started = time.monotonic()
    for r, p in criterion1_instances():
        jb = jet_bundle(r, p.map)
        for a0 in r.stage:
            assert len(jb.fiber(a0)) == product_of_fibers(r, p.map, a0)
        assert len(jb.total) == sum(product_of_fibers(r, p.map, a0) for a0 in r.stage)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report(1, "product-of-fibers law, 200 instances")


def test_criterion_2_polynomial_equals_enumerated():
    checked_verticals = 0
    for r, p in criterion1_instances():
        poly, jb, iso = polynomial_product_iso(r, p.map)
        assert iso.is_iso()
        assert compose(jb.projection, iso.arrow) == poly.product.result.map
        companion = trim_bundle(p)
        hom_pairs = [(p, companion), (companion, p)]
        endo_count = 1
        for e in p.total:
            endo_count *= len(p.fiber(p.map(e)))
        if endo_count <= 512:
            hom_pairs.append((p, p))
        products = {}
        isos = {}
        bundles = {}
        for b in (p, companion):
            products[b.total.name], jb_b, iso_b = polynomial_product_iso(r, b.map)
            isos[b.total.name] = iso_b
            bundles[b.total.name] = jb_b
        for src, dst in hom_pairs:
            iso_src = isos[src.total.name]
            iso_dst = isos[dst.total.name]
            jb_src = bundles[src.total.name]
            jb_dst = bundles[dst.total.name]
            for v in slice_homs(src, dst):
                moved_poly = polynomial_map(
                    v,
                    dp_src=products[src.total.name],
                    dp_dst=products[dst.total.name],
                )
                moved_jets = jet_on_vertical(jb_src, jb_dst, v.arrow)
                assert compose(iso_dst.arrow, moved_poly.arrow) == compose(
                    moved_jets, iso_src.arrow
                )
                checked_verticals += 1
    assert checked_verticals > 200
    _report(2, f"polynomial vs enumerated jet bundles, {checked_verticals} verticals")


def _shaped_bundle(base: FinSet, sizes, tag: str) -> Bundle:
    elements = []
    values = []
    for a, n in zip(base.elements, sizes):
        for i in range(n):
            elements.append(f"{a}.{tag}{i}")
            values.append(a)
    total = FinSet(f"{base.name}{tag}", tuple(elements))
    return Bundle(FinMap(total, base, tuple(values)))


def test_criterion_3_adjunction_exhaustive():
    instances = 0
    for m_size in range(4):
        for b_size in range(4):
            m = FinSet("M", tuple(f"m{i}" for i in range(m_size)))
            b = FinSet("B", tuple(f"b{i}" for i in range(b_size)))
            for d in all_maps(m, b):
                for y_shape in itertools.product(range(3), repeat=b_size):
                    y = _shaped_bundle(b, y_shape, "y")
                    for q_shape in itertools.product(range(3), repeat=m_size):
                        q = _shaped_bundle(m, q_shape, "q")
                        assert adjunction_instance_ok(d, y, q)
                        instances += 1
    assert instances > 20000
    _report(3, f"adjunction roundtrips and triangles, {instances} instances")


def _all_subobjects(a: FinSet, x: FinSet):
    cells = [(p, q) for p in a for q in x]
    out = []
    for n in range(len(cells) + 1):
        for chosen in itertools.combinations(cells, n):
            out.append(SubobjectAtStage.from_pairs(a, x, chosen))
    return out


def _quantifier_probes(a: FinSet, x: FinSet, max_stage: int):
    """Deduplicated images of all (stage, element, stage-change) probes."""
    probes = set()
    for size in range(max_stage + 1):
        for alpha in itertools.product(x.elements, repeat=size):
            for elem in itertools.product(a.elements, repeat=size):
                probes.add(frozenset(zip(elem, alpha)))
    return sorted(probes, key=lambda s: (len(s), sorted(s)))


def test_criterion_4_extensionality_exhaustive():
    pairs_checked = 0
    for a_size in range(4):
        for x_size in range(4):
            a = FinSet("A", tuple(f"a{i}" for i in range(a_size)))
            x = FinSet("X", tuple(f"x{i}" for i in range(x_size)))
            subs = _all_subobjects(a, x)
            probes = _quantifier_probes(a, x, max_stage=3)
            contains = [
                frozenset(
                    i for i, probe in enumerate(probes) if probe <= u.pair_set
                )
                for u in subs
            ]
            for i, u in enumerate(subs):
                for j, u2 in enumerate(subs):
                    direct = sub_leq(u, u2)
                    via_legs = extensionality_leq(u, u2)
                    brute = contains[i] <= contains[j]
                    assert direct == via_legs == brute
                    pairs_checked += 1
    assert pairs_checked == sum(
        (2 ** (a * x)) ** 2 for a in range(4) for x in range(4)
    )
    _report(4, f"extensionality, {pairs_checked} subobject pairs")


def _rival_disagrees(s: PartialMapAtStage, rival: PartialMapAtStage) -> bool:
    """A rival with the same support must fail the law on some small probe."""
    stage1 = FinSet("probe", ("y",))
    for (pa, px), mine, theirs in zip(s.support.pairs, s.values, rival.values):
        if mine == theirs:
            continue
        a = FinMap(stage1, s.support.over, (pa,))
        alpha = FinMap(stage1, s.support.stage, (px,))
        if value(rival, a, alpha) != value(s, a, alpha):
            return True
    return False


def test_criterion_5_yoneda_roundtrip_and_uniqueness():
    reconstructed = 0
    for a_size in range(3):
        for x_size in range(3):
            for e_size in range(3):
                a = FinSet("A", tuple(f"a{i}" for i in range(a_size)))
                x = FinSet("X", tuple(f"x{i}" for i in range(x_size)))
                e = FinSet("E", tuple(f"e{i}" for i in range(e_size)))
                for u in _all_subobjects(a, x):
                    if e_size == 0 and len(u.pairs) > 0:
                        continue
                    for values in itertools.product(e.elements, repeat=len(u.pairs)):
                        s = PartialMapAtStage(u, e, values)
                        assert yoneda_construct(u, law_of(s)) == s
                        reconstructed += 1
                        for rival_values in itertools.product(
                            e.elements, repeat=len(u.pairs)
                        ):
                            if rival_values == values:
                                continue
                            rival = PartialMapAtStage(u, e, rival_values)
                            assert _rival_disagrees(s, rival)
    for index in range(100):
        rng = rng_for(SEED, "acceptance-yoneda", index)
        a = rand_finset(rng, "A", 3)
        x = rand_finset(rng, "X", 3)
        e = rand_finset(rng, "E", 3, min_size=1)
        u = rand_subobject(rng, a, x)
        s = rand_partial_map(rng, u, e)
        assert yoneda_construct(u, law_of(s)) == s
        reconstructed += 1
        for rival_values in itertools.product(e.elements, repeat=len(u.pairs)):
            if rival_values == s.values:
                continue
            assert _rival_disagrees(s, PartialMapAtStage(u, e, rival_values))
    _report(5, f"yoneda reconstruction and uniqueness, {reconstructed} partial maps")


def test_criterion_6_phi_composition_and_square():
    for index in range(100):
        t = _Checker()
        check_phi_laws(t, rng_for(SEED, "acceptance-phi", index), 3, 2)
        assert t.failed == 0, t.counterexample
    _report(6, "stacked transport and vertical square, 100 configurations")


def test_criterion_7_classifying_universality():
    fully_checked = 0
    jets_checked = 0
    for r, p in criterion1_instances():
        jb = jet_bundle(r, p.map)
        for size in (0, 1, 2):
            stage = FinSet("X", tuple(f"x{i}" for i in range(size)))
            bases = list(all_maps(stage, r.stage))
            if size == 2 and len(jb.total) ** 2 > 4000:
                bases = bases[:2]
            else:
                fully_checked += size == 2
            for base in bases:
                candidates = list(_maps_over_projection(jb, stage, base))
                seen = {}
                for m in candidates:
                    j = restrict_jet(jb.generic_jet, m)
                    key = (j.at.values, j.underlying.values)
                    assert key not in seen, "two maps pull the generic jet to one jet"
                    seen[key] = m
                enumerated = enumerate_jets(r, base, p.map)
                assert len(enumerated) == len(candidates)
                for j in enumerated:
                    cl = classify(jb, j)
                    key = (j.at.values, j.underlying.values)
                    assert seen[key] == cl
                    jets_checked += 1
    assert fully_checked >= 150
    assert jets_checked > 1000
    _report(7, f"classifying-map universality, {jets_checked} jets")


def _maps_over_projection(jb, stage, base):
    per_point = [jb.fiber(base(x)) for x in stage]
    for values in itertools.product(*per_point):
        yield FinMap(stage, jb.total, values)


def test_criterion_8_beck_chevalley_and_mates():
    for index in range(25):
        rng = rng_for(SEED, "acceptance-bc", index)
        b = rand_finset(rng, "B", 3, min_size=1)
        b0 = rand_finset(rng, "B0", 3, min_size=1)
        a0 = rand_finset(rng, "A0", 3, min_size=1)
        g = rand_map(rng, a0, b0)
        r = rand_relation(rng, b, b0)
        q = rand_bundle(rng, b, 2)
        assert beck_chevalley_check(g, r, q.map, max_stage=2)
    a, e, p_map, ball = fixture_p3_parts()
    legs = ball.base.span
    stage = FinSet("A0", ("z1", "z2"))
    g = FinMap(stage, a, ("a", "c"))
    sq = pullback(g, legs.right)
    pullback_case = SpanMorphism(
        src=Span(compose(legs.left, sq.right), sq.left),
        dst=legs,
        on_left=FinMap.identity(a),
        on_mid=sq.right,
        on_right=g,
    )
    assert pullback_case.right_square_is_pullback()
    mate = mate_transform(pullback_case, Bundle(p_map))
    assert mate.is_iso()
    inverse = invert_slice(mate)
    assert compose(inverse.arrow, mate.arrow) == FinMap.identity(mate.src.total)
    assert compose(mate.arrow, inverse.arrow) == FinMap.identity(mate.dst.total)
    one = FinSet("One", ("*",))
    collapsing = SpanMorphism(
        src=legs,
        dst=Span(legs.left, constant_map(legs.apex, one, "*")),
        on_left=FinMap.identity(a),
        on_mid=FinMap.identity(legs.apex),
        on_right=constant_map(a, one, "*"),
    )
    assert not collapsing.right_square_is_pullback()
    bad_mate = mate_transform(collapsing, Bundle(p_map))
    assert not bad_mate.is_iso()
    collisions = {}
    witness = None
    for x in bad_mate.src.total:
        image = bad_mate.arrow(x)
        if image in collisions:
            witness = (collisions[image], x)
            break
        collisions[image] = x
    assert witness is not None, "no merged pair exhibited"
    _report(8, f"beck-chevalley and mates; merged pair {witness[0]} ~ {witness[1]}")


def test_criterion_9_distributivity_terminality():
    a, e, p_map, ball = fixture_p3_parts()
    span = ball.base.span
    p = Bundle(p_map)
    eps = generic_section_comorphism(span, p)
    assert distributivity_terminal(eps, max_total=4)
    epsilon = eps.vertical
    values = list(epsilon.arrow.values)
    for i, current in enumerate(values):
        fiber = epsilon.dst.fiber(epsilon.dst.map(current))
        if len(fiber) > 1:
            values[i] = next(v for v in fiber if v != current)
            break
    perturbed = SliceMorphism(
        epsilon.src,
        epsilon.dst,
        FinMap(epsilon.arrow.dom, epsilon.arrow.cod, tuple(values)),
    )
    assert perturbed != epsilon
    assert not distributivity_terminal(Comorphism(eps.over, eps.dst, perturbed), max_total=4)
    _report(9, "distributivity terminality on the path fixture, bound 4")


def test_criterion_10_global_functor_laws():
    for index in range(100):
        t = _Checker()
        check_global_functor(t, rng_for(SEED, "acceptance-global", index), 3, 2)
        assert t.failed == 0, t.counterexample
    _report(10, "global jet functor laws, 100 chains of length 3")


def test_criterion_11_check_determinism():
    def run(argv):
        out = io.StringIO()
        code = cli_main(argv, out=out)
        return code, out.getvalue()

    base = ["check", "--suite", "all", "--seed", "42"]
    code1, text1 = run(base)
    code2, text2 = run(base)
    code3, text3 = run(base + ["--jobs", "4"])
    assert code1 == code2 == code3 == 0
    assert text1 == text2 == text3
    assert text1.count("result=PASS") == 14
    _report(11, "byte-identical reports across runs and thread counts")
