import io
import os
import sys

import pytest

import finjet.fibdual as fibdual
import finjet.instances as instances
import finjet.jets as jets
import finjet.reference as reference
import finjet.suites as suites
from finjet.cli import main
from finjet.finset import FinMap, FinSet, pullback
from finjet.suites import CAPS, SUITES, SuiteReport, _Checker, _instance, run_suites
from finjet.workspace import parse_workspace, serialize_workspace


def test_checker_keeps_first_counterexample_as_parseable_fragment():
    t = _Checker()
    a = t.put("A", FinSet("A", ("x", "y")))
    assert t.put("none", None) is None
    assert t.check(True, "fine")
    assert not t.check(False, "first failure")
    t.check(False, "second failure")
    assert t.passed == 1 and t.failed == 2
    assert "first failure" in t.counterexample
    reparsed = parse_workspace(t.counterexample)
    assert reparsed.objects["A"] == a
    assert "none" not in reparsed.maps
    t.put("f", FinMap(a, a, ("y", "x")))
    t.check(False, "third failure")
    assert t.counterexample.startswith("# first failure\n")


# Data that suites draw late in an instance, after their first checks, by
# workspace kind.
_LATE_DRAWS = {
    "morphisms": {"relations": {"loose"}},
    "beck-chevalley": {"bundles": {"y"}},
    "phi-laws": {"bundles": {"p", "q", "r", "n"}, "maps": {"a0", "r_map", "base", "alpha"}},
    "global-functor": {"bundles": {"p1", "p2", "p3", "p4"}, "maps": {"v1", "v2", "v3"}},
}


def _table(fmap):
    """A map as its elements and values, whatever its objects are named."""
    return fmap.dom.elements, fmap.cod.elements, fmap.values


@pytest.mark.parametrize("name", list(SUITES))
def test_checker_workspace_parses_and_holds_every_datum_drawn(monkeypatch, name):
    """At the end of every instance, the checker's workspace serializes to
    text that parses back to the same text and holds each datum put."""
    checkers = []
    outcome = _Checker.outcome

    def keep(self):
        checkers.append(self)
        return outcome(self)

    monkeypatch.setattr(_Checker, "outcome", keep)
    for seed in range(4):
        _instance((name, seed, 0, 3, 3))
    # An instance that raised never reached `outcome`.
    assert len(checkers) == 4
    for t in checkers:
        text = serialize_workspace(t.ws)
        parsed = parse_workspace(text)
        assert serialize_workspace(parsed) == text
        for fname, fmap in t.ws.maps.items():
            assert _table(parsed.maps[fname]) == _table(fmap)
        for rname, rel in t.ws.relations.items():
            assert parsed.relations[rname].pairs == rel.pairs
        for bname, bundle in t.ws.bundles.items():
            assert _table(parsed.bundles[bname].map) == _table(bundle.map)
        for kind, names in _LATE_DRAWS.get(name, {}).items():
            assert names <= set(getattr(parsed, kind)), (kind, text)


def test_failing_report_render_modes():
    report = SuiteReport(
        suite="demo",
        seed=1,
        max_obj=2,
        max_fiber=2,
        trials=3,
        instances=3,
        passed=5,
        failed=1,
        first_counterexample="# broke\nobject A { x }\n",
    )
    text = report.render_text()
    assert "result=FAIL" in text
    assert "counterexample:" in text and "object A { x }" in text
    records = report.render_records()
    first, second = records.splitlines()
    assert first.split("\t")[-1] == "FAIL"
    assert second.startswith("counterexample\tdemo\t")
    assert "\\n" in second and "\n" not in second


def test_run_suite_reproducible_and_ordered():
    one = run_suites(["membership"], seed=9, trials=15)[0]
    two = run_suites(["membership"], seed=9, trials=15, jobs=3)[0]
    assert one == two
    assert one.instances == 15


def test_adjunction_instance_builds_each_square_once(monkeypatch):
    """An adjunction instance builds three canonical squares, d*(y) and the
    squares of the products of q and of d*(y), and none of them twice."""
    built = []

    def counted(f, p):
        built.append((f, p))
        return pullback(f, p)

    for name, module in list(sys.modules.items()):
        if name.startswith("finjet.") and getattr(module, "pullback", None) is pullback:
            monkeypatch.setattr(module, "pullback", counted)
    for index in range(200):
        built.clear()
        assert _instance(("adjunction", 42, index, 3, 3))[1] == 0
        assert len(built) == len(set(built)) == 3, index


@pytest.mark.parametrize("name", list(CAPS))
def test_bounds_past_a_cap_change_nothing(monkeypatch, name):
    """A suite run past its caps draws the instances of a run at its caps,
    and no object or fiber bound it draws with exceeds min(bound, cap);
    phi-laws alone raises its object bound to a floor of 2."""
    obj_cap, fiber_cap = CAPS[name]

    def outcome(max_obj, max_fiber):
        r = run_suites([name], seed=42, max_obj=max_obj, max_fiber=max_fiber, trials=5)[0]
        return r.passed, r.failed, r.first_counterexample

    assert outcome(4, 4) == outcome(min(4, obj_cap), min(4, fiber_cap))
    seen = {"rand_finset": [], "rand_bundle": []}
    for draw, bounds in seen.items():
        original = getattr(instances, draw)

        def recorded(rng, what, bound, *args, original=original, bounds=bounds, **kwargs):
            bounds.append(bound)
            return original(rng, what, bound, *args, **kwargs)

        for module in (suites, instances):
            monkeypatch.setattr(module, draw, recorded)
    floor = 2 if name == "phi-laws" else 0
    for max_obj, max_fiber in ((4, 4), (1, 1)):
        for bounds in seen.values():
            bounds.clear()
        outcome(max_obj, max_fiber)
        # Every bound is a clamp, not a draw: the largest one met is the limit.
        assert max(seen["rand_finset"]) == max(floor, min(max_obj, obj_cap))
        assert max(seen["rand_bundle"]) == min(max_fiber, fiber_cap)


def _set_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture
def pools(monkeypatch):
    """Replace the process pool with one that runs tasks inline; list each pool's max_workers."""
    built = []

    class InlineExecutor:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(suites, "ProcessPoolExecutor", InlineExecutor)
    return built


def test_run_suites_on_a_pool_matches_in_process(monkeypatch):
    _set_cpus(monkeypatch, 2)
    pooled = run_suites(list(SUITES), trials=3, jobs=2)
    assert [r.suite for r in pooled] == list(SUITES)
    assert pooled == run_suites(list(SUITES), trials=3, jobs=1)


def test_run_suites_builds_one_pool_per_run(monkeypatch, pools):
    _set_cpus(monkeypatch, 2)
    reports = run_suites(list(SUITES), trials=2, jobs=2)
    assert pools == [2]
    assert [r.instances for r in reports] == [2] * len(SUITES)


@pytest.mark.parametrize(
    "affinity, cpu_count, expected",
    [(3, 8, [3]), (1, 8, []), (None, 4, [4]), (None, None, [])],
)
def test_jobs_are_clamped_to_available_cpus(monkeypatch, pools, affinity, cpu_count, expected):
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        _set_cpus(monkeypatch, affinity)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    out = io.StringIO()
    code = main(["check", "--suite", "fiber-count", "--trials", "3", "--jobs", "10000"], out=out)
    assert code == 0 and "result=PASS" in out.getvalue()
    assert pools == expected



def test_one_terminality_instance_builds_one_jet_bundle(monkeypatch):
    """A terminality instance that decides the generic jet and a moved one
    (at two bounds) builds J(p) once, not once per decision."""
    calls = {"jet_bundle": 0, "distributivity_terminal": 0}

    def counted(name):
        real = getattr(fibdual, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(fibdual, name, counted(name))
    for index in range(20):
        calls.update(jet_bundle=0, distributivity_terminal=0)
        assert _instance(("terminality", 42, index, 2, 2)) == (1, 0, None)
        if calls["distributivity_terminal"] == 3:
            break
    assert calls == {"jet_bundle": 1, "distributivity_terminal": 3}


def test_one_global_functor_instance_builds_each_jet_bundle_once(monkeypatch):
    """A global-functor instance builds J(p1) to J(p4) once each and one
    J(f*(p)) per comorphism it checks pointwise: 9 jet bundles.  `global_jet`
    reads J of its ends from the caller and builds none."""
    calls = 0
    real = jets.jet_bundle

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("global_jet built a jet bundle")

    monkeypatch.setattr(jets, "jet_bundle", counted)
    monkeypatch.setattr(reference, "jet_bundle", counted)
    monkeypatch.setattr(fibdual, "jet_bundle", refuse)
    for index in range(3):
        calls = 0
        passed, failed, counterexample = _instance(("global-functor", 42, index, 3, 3))
        assert passed > 0 and (failed, counterexample) == (0, None)
        assert calls == 9
