"""Tests of the benchmark's own parts: generators, output checker and span arithmetic."""

from __future__ import annotations

import io
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from finjet.cli import main as finjet_main  # noqa: E402

from jetbench import gen  # noqa: E402
from jetbench.checker import SUITE_NAMES  # noqa: E402
from jetbench.run import Runner, check_ops, data_ops, dualjet_op  # noqa: E402
from jetbench.speed import SpeedProbe  # noqa: E402
from jetbench.tracer import Tracer  # noqa: E402


def test_generators_are_deterministic_per_seed(tmp_path):
    for kind, size in (("path", 6), ("complete", 4)):
        first = gen.make_spec(kind, size, 2, seed=7)
        again = gen.make_spec(kind, size, 2, seed=7)
        other = gen.make_spec(kind, size, 2, seed=8)
        assert first == again
        assert set(first.vertices) != set(other.vertices)
        gen.write_workspace(first, tmp_path / "first.ws")
        gen.write_workspace(again, tmp_path / "again.ws")
        assert (tmp_path / "first.ws").read_bytes() == (tmp_path / "again.ws").read_bytes()


def test_closed_forms_match_the_fiber_products():
    path = gen.make_spec("path", 9, 2, seed=1)
    complete = gen.make_spec("complete", 5, 2, seed=1)
    assert path.jets_total == 8 * 9 - 8
    assert complete.jets_total == 5 * 2**5
    for spec in (path, complete):
        assert sum(spec.jets_at(v) for v in spec.vertices) == spec.jets_total
        assert spec.pullback_total == sum(len(es) ** 2 for es in spec.fiber.values())


def _round(spec, path):
    return data_ops(spec, path, random.Random(0), picks=2) + [dualjet_op(spec, path)]


def _corrupting(argv, out):
    """The real CLI, with the last character of its output changed."""
    buf = io.StringIO()
    code = finjet_main(argv, out=buf)
    text = buf.getvalue().rstrip("\n")
    out.write(text[:-1] + ("X" if text[-1] != "X" else "Y") + "\n")
    return code


def test_checker_passes_real_output_and_counts_corrupted_output(tmp_path):
    for kind, size in (("path", 5), ("complete", 3)):
        spec = gen.make_spec(kind, size, 2, seed=3)
        path = tmp_path / f"{kind}.ws"
        gen.write_workspace(spec, path)
        ops = _round(spec, path)
        clean = Runner(finjet_main, SpeedProbe())
        clean.run_round(ops)
        assert clean.failures == []
        assert clean.attempted == len(ops)
        corrupted = Runner(_corrupting, SpeedProbe())
        corrupted.run_round(ops)
        assert corrupted.attempted == len(ops)
        assert len(corrupted.failures) == len(ops), corrupted.failures


def _report_differing_by_jobs(argv, out):
    """A passing one-trial report, one byte longer at --jobs 2."""
    seed = argv[argv.index("--seed") + 1]
    for name in SUITE_NAMES:
        print(
            f"suite={name} seed={seed} max-obj=3 max-fiber=3 trials=1 instances=1 "
            f"passed=1 failed=0 result=PASS",
            file=out,
        )
    if argv[argv.index("--jobs") + 1] == "2":
        print(file=out)
    return 0


def test_check_reports_must_match_across_jobs():
    runner = Runner(_report_differing_by_jobs, SpeedProbe())
    runner.run_round(check_ops(trials=1))
    assert runner.attempted == 2
    assert len(runner.failures) == 1
    assert runner.failures[0].startswith("check_jobs2_s")


def test_self_time_of_nested_spans():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        pass

    def middle():
        leaf()
        leaf()

    def outer():
        middle()
        leaf()

    leaf = tracer.wrap(leaf, "leaf")
    middle = tracer.wrap(middle, "middle")
    outer = tracer.wrap(outer, "outer")
    outer()
    # Clock reads: outer 0, middle 1, leaf 2-3, leaf 4-5, middle 6, leaf 7-8, outer 9.
    stats = tracer.stats()
    assert (stats["outer"].calls, stats["outer"].total_s, stats["outer"].self_s) == (1, 9.0, 3.0)
    assert (stats["middle"].total_s, stats["middle"].self_s) == (5.0, 3.0)
    assert (stats["leaf"].calls, stats["leaf"].self_s) == (3, 3.0)
    assert tracer.folded() == {
        "outer": (1, 3.0),
        "outer;middle": (1, 3.0),
        "outer;middle;leaf": (2, 2.0),
        "outer;leaf": (1, 1.0),
    }
    assert tracer.stats(window=(1.0, 7.0))["leaf"].calls == 2


def test_install_rebinds_copied_imports_and_restores_them(tmp_path):
    import finjet.cli
    import finjet.finset
    import finjet.suites

    path = tmp_path / "p3.ws"
    gen.write_workspace(gen.make_spec("path", 3, 2, seed=1), path)
    original = finjet.finset.pullback
    tracer = Tracer()
    tracer.install()
    try:
        assert finjet.cli.pullback is finjet.suites.pullback is finjet.finset.pullback
        assert finjet.finset.pullback is not original
        code = finjet_main(
            ["-w", str(path), "pullback", "--left", "p", "--right", "p"],
            out=io.StringIO(),
        )
    finally:
        tracer.uninstall()
    assert code == 0
    assert finjet.cli.pullback is finjet.suites.pullback is original
    stats = tracer.stats()
    assert stats["finset.pullback"].calls == 1
    assert stats["cli.pullback"].calls == 1
    assert stats["workspace.parse_workspace"].calls == 1
    assert stats["finset.FinMap.__post_init__"].calls > 0
