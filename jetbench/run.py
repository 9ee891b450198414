"""finjet's benchmark: closed-loop CLI workloads with checked outputs.

Run from the root of a source checkout:

    python3 jetbench/run.py --workload sparse-path --seed 1 --seconds 30 --trace 0

Every operation goes through `finjet.cli.main(argv, out=...)` and its output is
checked against answers the benchmark computes itself.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with `--trace 0`, the
per-layer metrics (from a separate traced round) with `--trace 1`.  Lines
before it give each timing's sample count and upper percentile, the error
rate and, on sparse-path, the scaling exponents.  See jetbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # Run as a script: import the benchmark's modules as the `jetbench` package.
    sys.path[0] = str(ROOT)

from jetbench import checker, gen  # noqa: E402
from jetbench.speed import SpeedProbe  # noqa: E402
from jetbench.tracer import Tracer  # noqa: E402

# `check` always runs at this seed: across seeds its wall time ranges from
# 6.9 s to 9.5 s (a few large instances dominate), which would hide any
# change smaller than about 15 %.  The benchmark seed varies everything else.
CHECK_SEED = 42
MAX_OBJ = 3  # check's default bounds, which every report line must state
MAX_FIBER = 3
SETUP_REPEATS = 5
PULLBACKS = 3  # pullback calls per block: the cheapest command gets more samples


@dataclass(frozen=True)
class Workload:
    """One input shape: graphs to generate and how often each command runs per round."""

    graphs: dict[str, tuple[str, int, int]]  # key -> (kind, size, fiber size)
    data: str  # graph for pullback, jetbundle, polyjet, classify and phi
    dual: str  # graph for dualjet, which is slower than the rest
    trials: int  # check --trials
    reps: int = 1  # data-command blocks per round
    picks: int = 1  # classify and phi calls per block
    small: Optional[str] = None  # second size, for scaling exponents (first round only)


WORKLOADS = {
    "check-suites": Workload(
        graphs={"tiny": ("path", 3, 2)},
        data="tiny",
        dual="tiny",
        trials=200,
        reps=10,
        picks=2,
    ),
    "sparse-path": Workload(
        graphs={"big": ("path", 300, 2), "dual": ("path", 80, 2), "small": ("path", 100, 2)},
        data="big",
        dual="dual",
        trials=20,
        small="small",
    ),
    "dense-complete": Workload(
        graphs={"big": ("complete", 10, 2), "dual": ("complete", 6, 2)},
        data="big",
        dual="dual",
        trials=20,
    ),
}

Verify = Callable[[str, dict], None]


@dataclass
class Op:
    """One CLI call, the metric its wall time counts toward, and its output check."""

    metric: str
    argv: list[str]
    verify: Verify


@dataclass
class Runner:
    """Runs ops through the CLI entry point, timing each and checking its output.

    `samples` holds speed-corrected seconds (see speed.py), `raw` the plain
    wall times, `windows` each call's (start, end) on the perf_counter clock.
    """

    main: Callable
    probe: SpeedProbe
    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    raw: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    windows: dict[str, list[tuple[float, float]]] = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def run_round(self, ops: list[Op]) -> tuple[float, float]:
        """Run ops in order; return the round's wall time and its corrected op time."""
        ctx: dict = {}
        start = time.perf_counter()
        corrected = sum(self.execute(op, ctx) for op in ops)
        return time.perf_counter() - start, corrected

    def execute(self, op: Op, ctx: dict) -> float:
        """Run, time and check one op; return its corrected time (0 if it crashed)."""
        gc.collect()
        out = io.StringIO()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            wall, corrected, code = self.probe.time(self.main, op.argv, out=out)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            self.failures.append(f"{op.metric} [{' '.join(op.argv)}]: {type(exc).__name__}: {exc}")
            return 0.0
        self.windows[op.metric].append((t0, time.perf_counter()))
        self.samples[op.metric].append(corrected)
        self.raw[op.metric].append(wall)
        try:
            if code != 0:
                raise ValueError(f"exit {code}")
            op.verify(out.getvalue(), ctx)
        except ValueError as exc:
            self.failures.append(f"{op.metric} [{' '.join(op.argv)}]: {exc}")
        return corrected


def check_ops(trials: int) -> list[Op]:
    argv = ["check", "--suite", "all", "--seed", str(CHECK_SEED), "--trials", str(trials)]

    def first(text: str, ctx: dict) -> None:
        checker.check_suites(text, CHECK_SEED, MAX_OBJ, MAX_FIBER, trials)
        ctx["check"] = text

    def second(text: str, ctx: dict) -> None:
        checker.check_same(text, ctx.get("check"))

    return [
        Op("check_s", argv + ["--jobs", "1"], first),
        Op("check_jobs2_s", argv + ["--jobs", "2"], second),
    ]


def data_ops(
    spec: gen.GraphSpec,
    path: Path,
    rng: random.Random,
    picks: int,
    pullbacks: int = 1,
    prefix: str = "",
) -> list[Op]:
    """pullback, jetbundle, polyjet, then classify and phi at seeded (point, index) choices."""

    def ws(*args: str) -> list[str]:
        return ["-w", str(path), "--format", "records", *args]

    bundle_key = ("bundle", path)

    def jetbundle(text: str, ctx: dict) -> None:
        ctx[bundle_key] = checker.parse_jetbundle(text, spec)

    pullback = Op(f"{prefix}pullback_s", ws("pullback", "--left", "p", "--right", "p"),
                  lambda text, ctx: checker.check_pullback(text, spec))
    ops = [pullback] * pullbacks + [
        Op(f"{prefix}jetbundle_s", ws("jetbundle", "--relation", "R", "--bundle", "p"), jetbundle),
        Op(f"{prefix}polyjet_s", ws("polyjet", "--relation", "R", "--bundle", "p"),
           lambda text, ctx: checker.check_polyjet(text, spec)),
    ]
    for _ in range(picks):
        point = rng.choice(spec.vertices)
        index = rng.randrange(spec.jets_at(point))
        ops.append(Op(
            f"{prefix}classify_s",
            ws("classify", "--relation", "R", "--bundle", "p", "--point", point, "--index", str(index)),
            lambda text, ctx, point=point, index=index: checker.check_classify(
                text, spec, ctx.get(bundle_key), point, index),
        ))
    for _ in range(picks):
        point = rng.choice(spec.vertices)
        index = rng.randrange(spec.jets_at(point))
        ops.append(Op(
            f"{prefix}phi_s",
            ws("phi", "--relation-src", "R", "--relation-dst", "R", "--map", "id", "--map0", "id",
               "--bundle", "p", "--point", point, "--index", str(index)),
            lambda text, ctx, point=point, index=index: checker.check_phi(text, spec, point, index),
        ))
    return ops


def dualjet_op(spec: gen.GraphSpec, path: Path) -> Op:
    argv = ["-w", str(path), "--format", "records", "dualjet", "--relation-src", "R",
            "--relation-dst", "R", "--map", "id", "--bundle", "p"]
    return Op("dualjet_s", argv, lambda text, ctx: checker.check_dualjet(text, spec))


def round_ops(w: Workload, specs: dict, files: dict, seed: int, index: int) -> list[Op]:
    """The operations of round `index`; rounds differ only in their (point, index) choices.

    The second size, for the scaling exponents, runs in the first round only.
    """
    rng = random.Random(f"jetbench:round:{seed}:{index}")
    ops = check_ops(w.trials)
    for _ in range(w.reps):
        ops += data_ops(specs[w.data], files[w.data], rng, w.picks, PULLBACKS)
        ops.append(dualjet_op(specs[w.dual], files[w.dual]))
    if w.small is not None and index == 0:
        small = [op for op in data_ops(specs[w.small], files[w.small], rng, 1, prefix="small.")
                 if op.metric.split(".")[1] in SCALED]
        ops += small
    return ops


# Commands whose scaling exponent sparse-path reports, from its two sizes.
SCALED = ("jetbundle_s", "polyjet_s", "classify_s")


def set_up(w: Workload, seed: int, work: Path) -> tuple[dict, dict, Callable]:
    """Import finjet afresh, then generate, write and re-parse every workspace."""
    for name in [m for m in sys.modules if m == "finjet" or m.startswith("finjet.")]:
        del sys.modules[name]
    cli = importlib.import_module("finjet.cli")
    specs, files = {}, {}
    for key, (kind, size, fiber) in w.graphs.items():
        specs[key] = gen.make_spec(kind, size, fiber, seed)
        files[key] = work / f"{key}.ws"
        gen.write_workspace(specs[key], files[key])
    return specs, files, cli.main


def upper_percentile(values: list[float]) -> Optional[tuple[int, float]]:
    """The highest of p90/p99/p99.9 with at least ten samples above it, if any."""
    ordered = sorted(values)
    for p in (99.9, 99, 90):
        if len(ordered) * (100 - p) / 100 >= 10:
            return p, ordered[math.ceil(len(ordered) * p / 100) - 1]
    return None


def declared_metrics(kind: str) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec[kind]]


def end_to_end(w: Workload, runner: Runner, setups: list[tuple[float, float]], report: list[str]) -> dict:
    timings = {"setup_s": ([c for _, c in setups], [r for r, _ in setups])}
    timings.update({m: (runner.samples[m], runner.raw[m]) for m in runner.samples})
    values = {}
    for metric, (samples, raw) in timings.items():
        values[metric] = statistics.median(samples)
        line = (
            f"{metric}: median {values[metric]:.6f} s, n={len(samples)} "
            f"(raw wall median {statistics.median(raw):.6f} s)"
        )
        upper = upper_percentile(samples)
        if upper is not None:
            line += f", p{upper[0]:g} {upper[1]:.6f} s"
        report.append(line)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report.append(f"peak_rss_mb: {values['peak_rss_mb']:.1f} MB")
    if w.small is not None:
        ratio = w.graphs[w.data][1] / w.graphs[w.small][1]
        for metric in (m for m in SCALED if f"small.{m}" in values and m in values):
            exponent = math.log(values[metric] / values[f"small.{metric}"]) / math.log(ratio)
            report.append(
                f"{metric.replace('_s', '_exp')}: {exponent:.3f} "
                f"(n {w.graphs[w.small][1]} -> {w.graphs[w.data][1]}; diagnostic, not gated)"
            )
    return values


def layer_values(tracer: Tracer, runner: Runner, untraced: float, traced: float) -> dict:
    """Every per-layer value the trace gives, keyed as in BENCHMARK.json.

    `untraced` and `traced` are the speed-corrected op times of the same round.
    """
    stats = tracer.stats()
    counts = tracer.counts()
    values: dict[str, float] = dict(counts)
    for name, st in stats.items():
        values[f"{name}.calls"] = st.calls
        values[f"{name}.self_s"] = st.self_s
    for key, layer, cls in (("finmap", "finset", "FinMap"), ("subobject", "kripke", "SubobjectAtStage")):
        hook = stats.get(f"{layer}.{cls}.__post_init__")
        values[f"{layer}.{key}_validated"] = hook.calls if hook else 0
        values[f"{layer}.{key}_validate_s"] = hook.total_s if hook else 0.0
    classified = values.get("jets.classify.calls", 0)
    values["jets.elements_per_classified_jet"] = (
        values.get("jets.jet_bundle.elements", 0) / classified if classified else 0.0
    )
    mapped = values.get("polyfun.polynomial_map.calls", 0)
    values["polyfun.dependent_products_per_map"] = (
        values.get("polyfun.dependent_product.calls", 0) / mapped if mapped else 0.0
    )
    # The traced round holds one check of each kind; the last window is its own.
    jobs1 = tracer.stats(window=runner.windows["check_s"][-1])
    for suite in checker.SUITE_NAMES:
        st = jobs1.get(f"suites.{suite}")
        values[f"suites.{suite}.s"] = st.total_s if st else 0.0
    t0, t1 = runner.windows["check_jobs2_s"][-1]
    busy = sum(
        st.cpu_s for name, st in tracer.stats(window=(t0, t1)).items()
        if name.startswith("suites.") and name[len("suites."):] in checker.SUITE_NAMES
    )
    values["suites.busy_share_jobs2"] = busy / ((t1 - t0) * 2)
    values["trace.overhead_s"] = traced - untraced
    values["trace.spans"] = tracer.span_count()
    return values


def run(args, work: Path, probe: SpeedProbe, report: list[str]) -> tuple[Runner, dict]:
    w = WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        wall, corrected, (specs, files, main) = probe.time(set_up, w, args.seed, work)
        setups.append((wall, corrected))
    runner = Runner(main, probe)
    if not args.trace:
        deadline = time.perf_counter() + args.seconds
        rounds = 0
        while True:
            took, _ = runner.run_round(round_ops(w, specs, files, args.seed, rounds))
            rounds += 1
            # Never start a round the deadline would cut short; always run one.
            if time.perf_counter() + took > deadline:
                break
        report.append(f"{args.workload}: {rounds} rounds in {args.seconds} s budget")
        values = end_to_end(w, runner, setups, report)
        return runner, values
    # One untraced and one traced run of the same round, so counts repeat exactly.
    _, untraced = runner.run_round(round_ops(w, specs, files, args.seed, 0))
    tracer = Tracer()
    tracer.install()
    try:
        _, traced = runner.run_round(round_ops(w, specs, files, args.seed, 0))
    finally:
        tracer.uninstall()
    report.append(
        f"{args.workload}: round ops {untraced:.3f} s untraced, {traced:.3f} s traced (corrected), "
        f"{tracer.span_count()} spans"
    )
    out = ROOT / ".jetbench" / f"trace-{args.workload}-{args.seed}.tsv"
    tracer.write(out)
    report.append(f"spans written to {out.relative_to(ROOT)}")
    return runner, layer_values(tracer, runner, untraced, traced)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "finjet" / "__init__.py").is_file():
        print(f"error: no finjet sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    kind = "per_layer" if args.trace else "end_to_end"
    declared = declared_metrics(kind)
    work = ROOT / ".jetbench" / f"work-{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    report: list[str] = []
    try:
        with SpeedProbe() as probe:
            runner, values = run(args, work, probe, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(runner.failures)
    report.append(
        f"error_rate: {failed / runner.attempted:.6f} ({failed} of {runner.attempted} operations)"
    )
    missing = [name for name, _ in declared if name not in values]
    if missing:
        report.append(f"not measured on this workload (reported as 0): {', '.join(missing)}")
    for line in report + [f"FAILED {f}" for f in runner.failures]:
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0), "unit": unit} for name, unit in declared},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
