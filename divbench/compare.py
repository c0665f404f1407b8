#!/usr/bin/env python3
"""Compare two result files written by ``run.py``, metric by metric.

Usage: python3 divbench/compare.py BASE.json NEW.json

Prints each metric's two values and NEW/BASE. Refuses, with exit code 1,
to compare results of different workloads or of different kernel
flavours (numba against numpy), whose timings measure different code.
"""
from __future__ import annotations

import json
import sys


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base, new = (json.loads(open(p, encoding="utf-8").read()) for p in argv)
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            print(f"not comparable: {key} {base[key]!r} vs {new[key]!r}", file=sys.stderr)
            return 1
    fb, fn = base["meta"]["kernel_flavour"], new["meta"]["kernel_flavour"]
    if fb != fn:
        print(f"not comparable: kernel flavour {fb} vs {fn}", file=sys.stderr)
        return 1
    print(f"{base['workload']}: seed {base['seed']} vs seed {new['seed']}, {fb} kernels")
    for name, m in base["metrics"].items():
        b = m["value"]
        n = new["metrics"].get(name, {}).get("value")
        if n is None:
            print(f"{name:<44} {b:>14.6g} {'-':>14} {'-':>8}  {m['unit']}")
            continue
        ratio = f"{n / b:8.3f}" if b else "       -"
        print(f"{name:<44} {b:>14.6g} {n:>14.6g} {ratio}  {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
