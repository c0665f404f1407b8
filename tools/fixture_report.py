"""Fixture health report: plans, sweeps, and the orderings tests rely on.

Run after editing any bundled scenario:

    python3 tools/fixture_report.py [fixture ...]

Prints per-scheme SCP/RT/QoR plus pass/fail for the properties the test
suite freezes: full recovery, dc SCP window, strict RT ordering, dc
C-flatness, and dc QoR dominance.
"""
from __future__ import annotations

import sys
import time

from divprotect.cli import build_plan, fixture_names, fixture_path
from divprotect.failsim import sweep
from divprotect.topology import load_scenario

SCP_WINDOW = (60.0, 130.0)
RECONSTRUCTIONS = {
    "cost239-reconstruction",
    "uslong-reconstruction",
    "synthetic-reconstruction",
}


def report(name: str) -> bool:
    with open(fixture_path(name), encoding="utf-8") as fh:
        sc = load_scenario(fh.read())
    t = sc.topology
    print(f"== {name}: n={t.n} m={t.m} demands={len(sc.demands)} "
          f"units={sum(f.rate for f in sc.demands)}")
    results = {}
    ok = True
    for scheme in ("dc", "sr", "pc"):
        t0 = time.perf_counter()
        plan = build_plan(scheme, sc)
        reports, res = sweep(t, plan)
        dt = time.perf_counter() - t0
        results[scheme] = res
        recovered = all(all(r.recovered) for r in reports)
        feasible = all(r.capacity_feasible for r in reports)
        ok &= recovered and feasible and not plan.partial
        rts = "  ".join(f"{v * 1e3:8.3f}" for v in res.rt_s.values())
        qs = "  ".join(f"{v:6.4f}" for v in res.qor.values())
        print(f"   {scheme}: scp={res.scp_pct:8.3f}  rt_ms[{rts}]  "
              f"qor[{qs}]  recovered={recovered} feasible={feasible} "
              f"partial={plan.partial}  ({dt:.2f}s)")

    dc, sr, pc = results["dc"], results["sr"], results["pc"]
    cs = list(dc.rt_s)
    checks = {
        "rt order dc<pc<sr": all(
            dc.rt_s[c] < pc.rt_s[c] < sr.rt_s[c] for c in cs
        ),
        "dc rt flat": len(set(dc.rt_s.values())) == 1,
        "qor dc dominant": all(
            dc.qor[c] >= sr.qor[c] and dc.qor[c] >= pc.qor[c] for c in cs
        ),
        "sr/pc qor non-increasing": all(
            x.qor[a] >= x.qor[b]
            for x in (sr, pc)
            for a, b in zip(cs, cs[1:])
        ),
    }
    if name in RECONSTRUCTIONS:
        checks["dc scp in window"] = SCP_WINDOW[0] <= dc.scp_pct <= SCP_WINDOW[1]
    for label, good in checks.items():
        ok &= good
        print(f"   [{'ok' if good else 'FAIL'}] {label}")
    return ok


def main(argv=None) -> int:
    names = (sys.argv[1:] if argv is None else argv) or fixture_names()
    good = True
    for name in names:
        good &= report(name)
    print("ALL OK" if good else "FAILURES PRESENT")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
