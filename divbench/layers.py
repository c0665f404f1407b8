"""Spans and counters around the program's layers, recorded from outside.

Each layer is wrapped where the caller looks it up: ``cli`` imports its
planners, ``sweep``, ``load_scenario`` and ``serialize_plan`` by name,
so those are replaced on ``cli``; the kernels, routing calls, group
search, cycle enumeration and the working-capacity floor are looked up
on their own modules (or, for the floor, on ``failsim``). A span holds
name, start, end, parent span and invocation id; spans stay in memory
until the caller writes them out.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from divprotect import cli, coding, failsim, kernels, pcycle, routing

# (module, attribute, span name): where each layer is looked up at call time.
# The end-to-end metric each layer should move, and on which workload:
#   topology.load_scenario      plan_s and *.compare_s on fixtures, backbone
#   kernels.dijkstra_distances  dc.compare_s on cluster, sr.compare_s on
#     (and repeat_frac)         backbone; no change predicted on rings
#   kernels.gf2_rank            dc.compare_s on cluster (decode checks)
#   routing.shortest_path,      dc.compare_s on cluster
#   routing.disjoint_routes
#   coding.find_group,          dc.compare_s on cluster
#   coding.algorithm_one        (routed_frac, accept_frac)
#   source_reroute.sr_design,   sr.compare_s on backbone
#   failsim.sweep (failures),
#   plan.shortest_working_capacity_mm
#   pcycle.enumerate_cycles,    pc.compare_s on rings and fixtures
#   pcycle.pc_design            (cycles, copies, used_frac)
#   plan.serialize_plan         plan_s (bytes)
#   cli (self: parsing, formatting, writing)  everything on fixtures
LAYERS = (
    (cli, "load_scenario", "topology.load_scenario"),
    (kernels, "dijkstra_distances", "kernels.dijkstra_distances"),
    (kernels, "gf2_rank", "kernels.gf2_rank"),
    (routing, "shortest_path", "routing.shortest_path"),
    (routing, "disjoint_routes", "routing.disjoint_routes"),
    (coding, "find_group", "coding.find_group"),
    (cli, "algorithm_one", "coding.algorithm_one"),
    (cli, "sr_design", "source_reroute.sr_design"),
    (cli, "sweep", "failsim.sweep"),
    (failsim, "shortest_working_capacity_mm", "plan.shortest_working_capacity_mm"),
    (pcycle, "enumerate_cycles", "pcycle.enumerate_cycles"),
    (cli, "pc_design", "pcycle.pc_design"),
    (cli, "serialize_plan", "plan.serialize_plan"),
)
ROOT = "cli"


@contextmanager
def patched(replacements):
    """Set ``module.attr = make(original)`` for each (module, attr, make)
    and restore every original on exit, also when the body raises."""
    saved = []
    try:
        for mod, attr, make in replacements:
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, make(orig))
        yield
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


class Tracer:
    """Records nested spans of one thread plus per-layer counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, invocation]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._invocation = 0
        self._trees: set = set()  # (root, blocked links) seen this invocation

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._invocation]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _count_dijkstra(self, args, out):
        key = (int(args[4]), args[5].tobytes())
        if key in self._trees:
            self.counts["kernels.dijkstra_distances.repeats"] += 1
        else:
            self._trees.add(key)

    def _count(self, key, amount):
        def after(args, out):
            self.counts[key] += amount(out)
        return after

    def _count_pc(self, args, plan):
        self.counts["pcycle.pc_design.copies"] += sum(c.copies for c in plan.cycles)
        self.counts["pcycle.pc_design.used"] += len(plan.cycles)

    def installed(self):
        """Context manager that wraps every layer in LAYERS."""
        after = {
            "kernels.dijkstra_distances": self._count_dijkstra,
            "coding.find_group": self._count("coding.find_group.routed", lambda g: g is not None),
            "coding.algorithm_one": self._count("coding.algorithm_one.groups", lambda p: len(p.groups)),
            "failsim.sweep": self._count("failsim.sweep.failures", lambda r: len(r[0])),
            "pcycle.enumerate_cycles": self._count("pcycle.enumerate_cycles.cycles", len),
            "pcycle.pc_design": self._count_pc,
            "plan.serialize_plan": self._count("plan.serialize_plan.bytes", lambda s: len(s.encode())),
        }
        return patched(
            (mod, attr, lambda fn, name=name: self._wrap(name, fn, after.get(name)))
            for mod, attr, name in LAYERS
        )

    def invoke(self, argv) -> int:
        """Run ``cli.main(argv)`` as one invocation under a root span."""
        self._invocation += 1
        self._trees.clear()
        return self._wrap(ROOT, cli.main)(argv)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds), where a span's self time is
        its duration minus the durations of the spans directly under it."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0])
            row[0] += 1
            row[1] += end - start - covered[i]
        return {k: (v[0], v[1]) for k, v in out.items()}
