#!/usr/bin/env python3
"""Benchmark of divprotect's ``compare`` and ``plan`` commands.

Usage, from the root of a source checkout:

    python3 divbench/run.py --workload cluster --seed 1 --seconds 30 --trace 0

The program is driven from outside through ``cli.main([...])`` in this
process, one invocation at a time (a closed loop with one client, no
threads), on scenario YAML generated from ``--seed``; ``setup_s`` times a
fresh interpreter importing ``divprotect.cli``. Every workload runs, per
instance, ``compare --schemes dc``, ``compare --schemes sr``,
``compare --schemes pc`` and ``plan`` (see ``commands``).

Every pass checks that each exit code is 0 and that each output has the
bytes it had in the first pass; at the default seed, the first pass's
outputs must also match ``reference.json``. After each compare of the
first pass, outside its timer, the failure sweep must report every flow
recovered within capacity, and for parity plans the XOR stream simulator
must rebuild every affected flow for every failed link. ``attempted``
counts (instance, command) pairs, and a pair fails if any of its
invocations or checks does. A pass runs the commands instance by
instance, and passes repeat while another one fits in ``--seconds``
counted from the start of the process (at least two).

Timings are in reference seconds. On a shared 2-core x86 virtual machine
the same work was measured to run up to 1.9x slower for stretches of a
fraction of a second to several seconds, with CPU time tracking wall
time, which spread the raw timings of repeated identical runs by 0.2-0.36
(quartile distance over median). So right before and after every
invocation a fixed piece of work is timed (``calibrate``), and the
invocation's wall time is scaled by ``CAL_REF_S`` over the mean of the
two work times: the result is the time the invocation would take on a
host that does the work in ``CAL_REF_S``, the unloaded speed of that
machine. On it this cut the spread of repeated identical passes to
0.02-0.05. A timing is the sum, over the workload's invocations, of each
invocation's fastest scaled time among the passes. ``setup_s`` is the
median of scaled samples taken after every pass.

``--trace 1`` reports per-layer metrics instead: after the check pass,
which gives the untraced times, every pass runs with every layer wrapped
from outside (``layers.py``), and the layer self times, scaled like the
invocations that hold them, are reported with the tracing overhead. A run
writes its metadata, instance sizes, per-pass host slowdown and metrics
to ``divbench/results/``. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import inspect
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORK = BENCH_DIR / ".work"
REFERENCE = BENCH_DIR / "reference.json"

DEFAULT_SEED = 1
MIN_PASSES = 2
SETUP_PER_PASS = 3
CAL_LOOP = 10_000  # sets the size of the calibration work
CAL_REF_S = 1.19e-3  # calibrate() on the unloaded 2-core x86 VM of the figures
FIXTURES = (
    "example2",
    "fig1-star",
    "cost239-reconstruction",
    "synthetic-reconstruction",
    "uslong-reconstruction",
)
# Seeded demand variants run beside the three larger fixtures; each moves
# the sources of a quarter of the demand rows one hop (gen.fixture_variant).
# The two toy networks get none: with three or four flows, one moved
# source can change their SCP several-fold (redrawn sources took
# fig1-star's dc SCP from 33% to 205% on average), which would set the
# quality metrics' spread between seeds.
FIXTURE_MOVED_SHARE = 0.25
FIXTURE_VARIANTS = {
    "cost239-reconstruction": 6,
    "synthetic-reconstruction": 6,
    "uslong-reconstruction": 6,
}
TINY_FIXTURES = {"example2": 0, "synthetic-reconstruction": 1}

# Workload -> (instance count, mesh shape (n, m, chord span), demands,
# cycle band or None); see gen.generated.
#   cluster: four destinations with five unit flows each, so the parity
#     combination search dominates (Dijkstra, disjoint routes); their
#     degrees sum to 14, a little above the mesh's mean of 3.3 each.
#   rings: spread demands on meshes with long chords, so many cycles and
#     few shared destinations; cycle enumeration and selection dominate
#     and the parity search has little to do. The band keeps the cycle
#     count near its median (about 1,800 at this shape).
#   backbone: larger sparse meshes with spread demands; the per-call
#     kernel cost at larger n, the failure sweep over more links, the
#     shared-spare loop of source rerouting and YAML load weigh most.
#     Their 16 to 45 cycles set the pc plan's SCP and RT; the band keeps
#     the middle half.
# Worst-case RT varies by about 25% between meshes of one shape, so each
# workload averages 22 or more of them; a pass takes 6-8 s unloaded.
GENERATED = {
    "cluster": (26, (18, 30, 4), ("clustered", 4, 5, 14), None),
    "rings": (34, (16, 30, 8), ("spread", 24), (1700, 1880)),
    "backbone": (22, (40, 56, 4), ("spread", 48), (20, 30)),
}
TINY = {
    "cluster": (1, (8, 12, 3), ("clustered", 1, 4, 3), None),
    "rings": (1, (8, 12, 4), ("spread", 4), None),
    "backbone": (1, (10, 16, 3), ("spread", 6), None),
}
WORKLOADS = ("fixtures", *GENERATED)


def commands(workload: str):
    """(metric, argv prefix) pairs, each timed over every instance. ``plan``
    builds all three plans only on the fixtures; elsewhere it builds the
    sr plan alone, as the backbone's only scheme at its intended size: the
    dc and pc plans repeat work that ``dc.compare_s`` and ``pc.compare_s``
    already time, and would dominate it."""
    plan = "dc,sr,pc" if workload == "fixtures" else "sr"
    return (
        ("dc.compare_s", ["compare", "--schemes", "dc"]),
        ("sr.compare_s", ["compare", "--schemes", "sr"]),
        ("pc.compare_s", ["compare", "--schemes", "pc"]),
        ("plan_s", ["plan", "--schemes", plan]),
    )


SCHEMES = ("dc", "sr", "pc")
RT_COLUMN = "rt_ms@1"

E2E_UNITS = {
    "setup_s": "s",
    "dc.compare_s": "s",
    "sr.compare_s": "s",
    "pc.compare_s": "s",
    "plan_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    **{f"{s}.scp_pct": "%" for s in SCHEMES},
    **{f"{s}.rt_ms": "ms" for s in SCHEMES},
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _import_program():
    """Import divprotect from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "divprotect" / "cli.py").is_file():
        raise BenchError(f"program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import divprotect

    where = Path(divprotect.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"divprotect imported from {where}, not from {SRC}")


def build_instances(workload: str, seed: int, tiny: bool):
    import gen
    from divprotect.cli import fixture_path

    rng = random.Random(f"{workload}/{seed}")
    if workload == "fixtures":
        variants = TINY_FIXTURES if tiny else {**dict.fromkeys(FIXTURES, 0), **FIXTURE_VARIANTS}
        out = []
        for name, count in variants.items():
            path = fixture_path(name)
            if path is None:
                raise BenchError(f"bundled fixture {name} not found")
            text = Path(path).read_text(encoding="utf-8")
            out.append(gen.fixture(name, text))
            out += [gen.fixture_variant(f"{name}-s{seed}-{i}", rng, text, FIXTURE_MOVED_SHARE)
                    for i in range(count)]
        return out
    count, shape, demands, cycles = (TINY if tiny else GENERATED)[workload]
    return [
        gen.generated(f"{workload}-s{seed}-{i}", rng, *shape, demands, cycles)
        for i in range(count)
    ]


def calibrate() -> float:
    """Fastest of three timings of a fixed piece of work, mixed like the
    program's own: interpreted arithmetic, building dicts and lists, and
    calls on small NumPy arrays (as the numpy Dijkstra kernel makes them).
    It tells how fast the host runs this process right now."""
    import numpy as np

    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOP):
            acc += i * i % 7
        table = {}
        for i in range(CAL_LOOP // 10):
            table[i, i % 13] = [i, acc]
        dist = np.arange(48, dtype=np.int64)
        done = np.zeros(48, dtype=bool)
        for _ in range(CAL_LOOP // 200):
            u = int(np.argmin(np.where(done, 1 << 40, dist)))
            done[u] = not done[u]
            np.minimum.at(dist, dist[:4] % 48, dist[4:8] + 1)
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    """Times calls in reference seconds: wall time scaled by ``CAL_REF_S``
    over the mean of the calibration work's time right before and right
    after the call. The work timed after one call serves as the one
    before the next if no more than ``FRESH_S`` lies between them."""

    FRESH_S = 0.02

    def __init__(self):
        self.last, self.last_at = 0.0, float("-inf")
        self.slowdowns: list[float] = []  # work time over CAL_REF_S, per call

    def _calibrate(self) -> float:
        self.last = calibrate()
        self.last_at = time.perf_counter()
        return self.last

    def time(self, fn):
        """(fn's result, reference seconds, wall seconds)."""
        fresh = time.perf_counter() - self.last_at <= self.FRESH_S
        before = self.last if fresh else self._calibrate()
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        slowdown = (before + self._calibrate()) / 2 / CAL_REF_S
        self.slowdowns.append(slowdown)
        return out, wall / slowdown, wall


def time_setup() -> float:
    """Reference seconds for a fresh interpreter to import divprotect.cli.
    The child may run on the other core, so it times the calibration work
    itself, right after the import (before it, the work would import
    NumPy); the wall time of the whole child, less the time that work
    took, is scaled by it."""
    code = "\n".join([
        "import sys, time",
        f"CAL_LOOP = {CAL_LOOP}",
        inspect.getsource(calibrate),
        f"sys.path.insert(0, {str(SRC)!r})",
        "import divprotect.cli",
        "t0 = time.perf_counter()",
        "print(calibrate(), time.perf_counter() - t0)",
    ])
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                         capture_output=True, text=True).stdout
    wall = time.perf_counter() - t0
    speed, spent = map(float, out.split())
    return (wall - spent) * CAL_REF_S / speed


def metadata() -> dict:
    import numpy
    import yaml
    from divprotect import kernels

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "numba_enabled": bool(kernels.NUMBA_ENABLED),
        "kernel_flavour": "numba" if kernels.NUMBA_ENABLED else "numpy",
        "libyaml": bool(yaml.__with_libyaml__),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


class Runner:
    """Runs and checks the workload's invocations; counts attempts and
    failures."""

    def __init__(self, workload, instances, workdir: Path, reference: dict | None):
        self.commands = commands(workload)
        self.instances = instances
        self.workdir = workdir
        self.reference = reference
        self.clock = Clock()
        self.expected: dict[str, str] = {}  # output key -> sha256 of first pass
        self.outputs: dict[str, bytes] = {}  # first-pass compare outputs
        self.failed_keys: set[str] = set()
        self.problems: list[str] = []  # the first 20
        self.cycles: dict[str, int] = {}
        self.times: dict[tuple[str, str], list[float]] = {}  # reference s per pass
        self.passes: list[dict] = []  # per pass: totals, wall time, host slowdown
        self.scenarios = {}
        for inst in instances:
            if inst.bundled:
                self.scenarios[inst.name] = inst.scenario
            else:
                p = workdir / f"{inst.name}.yaml"
                p.write_text(inst.scenario, encoding="utf-8")
                self.scenarios[inst.name] = str(p)

    @property
    def attempted(self) -> int:
        return len(self.instances) * len(self.commands)

    @property
    def failed(self) -> int:
        return len(self.failed_keys)

    def run_pass(self, call, after=None) -> dict[str, float]:
        """One pass over every command and instance; returns the summed
        reference seconds per command. ``call(argv)`` runs one invocation;
        ``after(problems)`` may add to an invocation's problems once its
        timer has stopped. An invocation with problems fails its
        (instance, command) pair."""
        out_path = self.workdir / "out.txt"
        totals = dict.fromkeys((m for m, _ in self.commands), 0.0)
        wall = 0.0
        first_call = len(self.clock.slowdowns)
        for inst in self.instances:
            for metric, prefix in self.commands:
                argv = [*prefix, "--scenario", self.scenarios[inst.name], "--out", str(out_path)]
                if out_path.exists():
                    out_path.unlink()
                rc, elapsed, raw = self.clock.time(lambda: call(argv))
                totals[metric] += elapsed
                wall += raw
                key = f"{inst.name}/{metric}"
                self.times.setdefault((metric, inst.name), []).append(elapsed)
                problems = []
                data = out_path.read_bytes() if out_path.exists() else b""
                digest = hashlib.sha256(data).hexdigest()
                if rc != 0:
                    problems.append(f"exit code {rc}")
                elif key not in self.expected:
                    self.expected[key] = digest
                    if prefix[0] == "compare":
                        self.outputs[key] = data
                    if self.reference is not None and self.reference.get(key) != digest:
                        problems.append("output differs from reference.json")
                elif self.expected[key] != digest:
                    problems.append("output bytes differ from the first pass")
                if after is not None:
                    after(problems)
                if problems:
                    self.failed_keys.add(key)
                    self.problems += [f"{key}: {p}" for p in problems][: 20 - len(self.problems)]
        self.passes.append({
            "ref_s": totals,
            "wall_s": wall,
            "slowdown": statistics.median(self.clock.slowdowns[first_call:]),
        })
        return totals

    def check_pass(self) -> dict[str, float]:
        """The first pass. Besides the checks of every pass, it asks the
        failure sweep and the XOR stream simulator about every plan the
        compares build, and records the cycle count of each instance."""
        from divprotect import cli, pcycle
        from divprotect.failsim import xor_stream_check
        import layers

        captured = []  # (topo, plan, reports) of the current invocation
        cycles = []

        def capture_sweep(fn):
            def wrapper(topo, plan, *args, **kwargs):
                out = fn(topo, plan, *args, **kwargs)
                captured.append((topo, plan, out[0]))
                return out
            return wrapper

        def capture_cycles(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                cycles.append(len(out))
                return out
            return wrapper

        rng = random.Random(0)

        def after(problems):
            for topo, plan, reports in captured:
                if not all(all(r.recovered) and r.capacity_feasible for r in reports):
                    problems.append(f"{plan.scheme}: sweep leaves a flow unrecovered")
                if plan.scheme == "dc":
                    payloads = [rng.randbytes(16) for _ in plan.flows]
                    for lid in range(topo.m):
                        if xor_stream_check(plan, lid, payloads) != payloads:
                            problems.append(f"dc: XOR streams not rebuilt after link {lid} fails")
                            break
            captured.clear()

        def call(argv):
            rc = cli.main(argv)
            if cycles:
                name = argv[argv.index("--scenario") + 1]
                self.cycles[name] = max(self.cycles.get(name, 0), *cycles)
                cycles.clear()
            return rc

        with layers.patched([(cli, "sweep", capture_sweep),
                             (pcycle, "enumerate_cycles", capture_cycles)]):
            totals = self.run_pass(call, after)
        for inst in self.instances:
            inst.stats["cycles"] = self.cycles.get(self.scenarios[inst.name], 0)
        return totals

    def quality(self) -> dict[str, float]:
        """Mean SCP and worst-case RT at C = 1 ms per scheme, over instances."""
        scp = {s: [] for s in SCHEMES}
        rt = {s: [] for s in SCHEMES}
        for inst in self.instances:
            for s in SCHEMES:
                data = self.outputs.get(f"{inst.name}/{s}.compare_s")
                if not data:
                    continue
                header, row = data.decode().splitlines()[:2]
                cells = dict(zip(header.split(","), row.split(",")))
                scp[s].append(float(cells["scp_pct"]))
                rt[s].append(float(cells[RT_COLUMN]))
        out = {}
        for s in SCHEMES:
            # with no successful compare the run is incorrect anyway; JSON has no NaN
            out[f"{s}.scp_pct"] = statistics.fmean(scp[s]) if scp[s] else 0.0
            out[f"{s}.rt_ms"] = statistics.fmean(rt[s]) if rt[s] else 0.0
        return out


def _repeat(run, first: float, deadline: float, least: int) -> None:
    """Call ``run()`` at least ``least`` times, and again while one more
    call, judged by the slowest so far and half as long again, since the
    host's speed changes, still ends before ``deadline``."""
    slowest = first
    for i in itertools.count():
        if i >= least and time.perf_counter() + 1.5 * slowest > deadline:
            return
        t0 = time.perf_counter()
        run()
        slowest = max(slowest, time.perf_counter() - t0)


def timed_metrics(runner: Runner, first_s: float, deadline: float) -> dict[str, float]:
    """Per command, the sum over instances of each invocation's fastest
    time among the passes; the check pass counts as the first pass.
    ``setup_s`` is the median of a few samples taken after every pass."""
    from divprotect import cli

    t0 = time.perf_counter()
    time_setup()  # warms the file cache; not counted
    setup = [time_setup() for _ in range(SETUP_PER_PASS)]
    setup_wall = time.perf_counter() - t0

    def one():
        runner.run_pass(cli.main)
        setup.extend(time_setup() for _ in range(SETUP_PER_PASS))

    _repeat(one, first_s + setup_wall, deadline, MIN_PASSES - 1)
    out = dict.fromkeys((m for m, _ in runner.commands), 0.0)
    for (metric, _), times in runner.times.items():
        out[metric] += min(times)
    out["setup_s"] = statistics.median(setup)
    return out


def traced_metrics(runner: Runner, first: dict, first_s: float, deadline: float,
                   spans_out: Path):
    """Per-layer metrics from traced passes after the check pass, whose
    times are the untraced ones; the traced bytes are checked against it.
    A layer's self time in a pass is scaled to reference seconds by that
    pass's reference-to-wall ratio. Per-layer times and the overhead are
    medians over the traced passes. The spans of the last pass are
    written to ``spans_out``."""
    import layers

    per_pass = []  # (traced reference s, scaled layer totals, counts)
    tracer = None

    def one():
        nonlocal tracer
        tracer = layers.Tracer()
        with tracer.installed():
            traced = sum(runner.run_pass(tracer.invoke).values())
        scale = traced / runner.passes[-1]["wall_s"]
        totals = {k: (c, s * scale) for k, (c, s) in tracer.layer_totals().items()}
        per_pass.append((traced, totals, dict(tracer.counts)))

    _repeat(one, first_s, deadline, MIN_PASSES - 1)
    spans_out.write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "invocation"], "spans": tracer.spans}))

    names = [layers.ROOT] + [name for _, _, name in layers.LAYERS]
    layers_last, counts = per_pass[-1][1], per_pass[-1][2]
    calls = {n: layers_last.get(n, (0, 0.0))[0] for n in names}
    self_s = {n: statistics.median(p[1].get(n, (0, 0.0))[1] for p in per_pass) for n in names}
    base = sum(first.values())

    def frac(num, den):
        return num / den if den else 0.0

    def count(key):
        return counts.get(key, 0)

    m = {}
    for n in names:
        m[f"{n}.calls"] = (calls[n], "count")
        m[f"{n}.self_s"] = (self_s[n], "s")
    m["kernels.dijkstra_distances.repeat_frac"] = (
        frac(count("kernels.dijkstra_distances.repeats"), calls["kernels.dijkstra_distances"]), "frac")
    m["coding.find_group.routed_frac"] = (
        frac(count("coding.find_group.routed"), calls["coding.find_group"]), "frac")
    m["coding.algorithm_one.accept_frac"] = (
        frac(count("coding.algorithm_one.groups"), calls["coding.find_group"]), "frac")
    m["failsim.sweep.failures"] = (count("failsim.sweep.failures"), "count")
    m["pcycle.enumerate_cycles.cycles"] = (count("pcycle.enumerate_cycles.cycles"), "count")
    m["pcycle.pc_design.copies"] = (count("pcycle.pc_design.copies"), "count")
    m["pcycle.pc_design.used_frac"] = (
        frac(count("pcycle.pc_design.used"), count("pcycle.enumerate_cycles.cycles")), "frac")
    m["plan.serialize_plan.bytes"] = (count("plan.serialize_plan.bytes"), "B")
    m["trace.untraced_s"] = (base, "s")
    m["trace.overhead_frac"] = (statistics.median(t / base - 1.0 for t, _, _ in per_pass), "frac")
    m["trace.accounted_frac"] = (statistics.median(
        sum(s for _, s in totals.values()) / base for _, totals, _ in per_pass), "frac")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m


def main(argv=None) -> int:
    try:
        return _main(argv)
    except BenchError as exc:
        print(f"divbench: {exc}", file=sys.stderr)
        return 2


def _main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: one or two small instances, for the benchmark's tests")
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's output digests as reference.json "
                         "(full size, default seed only)")
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + args.seconds
    _import_program()
    sys.path.insert(0, str(BENCH_DIR))

    tiny = args.size == "tiny"
    at_reference = not tiny and args.seed == DEFAULT_SEED
    if args.record_reference and not at_reference:
        raise BenchError("--record-reference needs full size and the default seed")
    reference = None
    if at_reference and not args.record_reference:
        if not REFERENCE.is_file():
            raise BenchError(f"{REFERENCE} is missing")
        reference = json.loads(REFERENCE.read_text())["outputs"].get(args.workload, {})

    WORK.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        meta = metadata()
        instances = build_instances(args.workload, args.seed, tiny)
        runner = Runner(args.workload, instances, workdir, reference)
        t0 = time.perf_counter()
        first = runner.check_pass()
        first_s = time.perf_counter() - t0
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            layer = traced_metrics(
                runner, first, first_s, deadline, RESULTS / f"{tag}-spans.json")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        else:
            timed = timed_metrics(runner, first_s, deadline)
            values = {
                **timed,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_frac": 1.0 - runner.failed / runner.attempted,
                **runner.quality(),
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.record_reference:
        data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {
            "seed": DEFAULT_SEED, "outputs": {}}
        data["outputs"][args.workload] = dict(sorted(runner.expected.items()))
        REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": runner.passes,  # reference s per command, wall s, host slowdown
        "meta": meta,
        "instances": {i.name: i.stats for i in instances},
        "problems": runner.problems,
        "metrics": metrics,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("meta " + json.dumps(meta, sort_keys=True))
    for inst in instances:
        print(f"instance {inst.name} " + json.dumps(inst.stats, sort_keys=True))
    for msg in runner.problems:
        print(f"problem {msg}")
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
