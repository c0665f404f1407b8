#!/usr/bin/env python3
"""One sha256 over the ``plan`` and ``compare`` outputs of every bundled
fixture and every divbench instance at the given seeds.

Usage, from the root of a source checkout:

    python3 tools/output_digest.py [--seeds 1,2,3,5] [--list]

For each seed and each divbench workload, the instances come from
``divbench/run.py``'s ``build_instances``; the fixtures workload holds
the five bundled fixtures and their seeded demand variants. Every
instance runs ``plan --schemes dc,sr,pc`` and ``compare --schemes
dc,sr,pc --format csv`` through ``cli.main`` in this process, with the
program imported from this checkout's ``src``. The digest covers each
output's name, exit code and bytes, in a fixed order, so two checkouts
that print the same digest wrote the same bytes for every output.
``--list`` also prints the sha256 of each output, to find the ones that
differ. divbench is only read: no file under it is written. The default
seeds, 1,2,3,5, give 840 outputs; a change meant to keep every output
byte must print the same digest before and after.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = (
    ("plan", ["plan", "--schemes", "dc,sr,pc"]),
    ("compare", ["compare", "--schemes", "dc,sr,pc", "--format", "csv"]),
)


def outputs(seeds, workdir: Path):
    """(name, exit code, bytes) of every output, in a fixed order."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "divbench")]
    sys.dont_write_bytecode = True  # no __pycache__ under divbench
    import run
    from divprotect import cli

    out = workdir / "out.txt"
    for seed in seeds:
        for workload in run.WORKLOADS:
            for inst in run.build_instances(workload, seed, tiny=False):
                scenario = inst.scenario
                if not inst.bundled:
                    path = workdir / f"{inst.name}.yaml"
                    path.write_text(inst.scenario, encoding="utf-8")
                    scenario = str(path)
                for label, argv in COMMANDS:
                    out.unlink(missing_ok=True)
                    rc = cli.main([*argv, "--scenario", scenario, "--out", str(out)])
                    data = out.read_bytes() if out.exists() else b""
                    yield f"s{seed}/{workload}/{inst.name}/{label}", rc, data


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2,3,5", help="comma list of divbench seeds")
    ap.add_argument("--list", action="store_true", help="print each output's sha256 too")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    total = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, rc, data in outputs(seeds, Path(tmp)):
            total.update(f"{name}\0{rc}\0{len(data)}\0".encode())
            total.update(data)
            count += 1
            if args.list:
                print(f"{hashlib.sha256(data).hexdigest()}  {rc}  {name}")
    print(f"{total.hexdigest()}  {count} outputs, seeds {','.join(map(str, seeds))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
