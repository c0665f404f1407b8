"""Command-line front end: plan, compare, qor-curve, validate."""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .coding import algorithm_one
from .failsim import sweep
from .metrics import SWITCH_VALUES_S, RtParams
from .pcycle import pc_design
from .plan import SCHEME_DC, SCHEME_LABELS, SCHEME_PC, SCHEME_SR, serialize_plan
from .source_reroute import sr_design
from .topology import Scenario, ScenarioError, load_scenario

ALL_SCHEMES = (SCHEME_DC, SCHEME_SR, SCHEME_PC)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2

FIXTURES_ENV = "DIVPROTECT_FIXTURES"


def _fixture_dir() -> str:
    return os.environ.get(FIXTURES_ENV) or os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str | None:
    """Resolve a bundled scenario by name; DIVPROTECT_FIXTURES overrides
    the packaged directory."""
    fname = name if name.endswith(".yaml") else name + ".yaml"
    cand = os.path.join(_fixture_dir(), fname)
    return cand if os.path.isfile(cand) else None


def fixture_names() -> list[str]:
    folder = _fixture_dir()
    try:
        names = os.listdir(folder)
    except OSError as exc:
        raise ScenarioError(
            f"cannot list fixtures in {FIXTURES_ENV}={folder!r}: {exc.strerror}"
        )
    return sorted(f[:-5] for f in names if f.endswith(".yaml"))


def _resolve_scenario(arg: str) -> str:
    if os.path.isfile(arg):
        return arg
    p = fixture_path(arg)
    if p is not None:
        return p
    raise ScenarioError(
        f"scenario {arg!r} is neither a file nor a bundled fixture "
        f"(available: {', '.join(fixture_names())})"
    )


def _load(arg: str) -> Scenario:
    path = _resolve_scenario(arg)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path!r}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario {path!r} is not UTF-8 text: {exc.reason}")
    return load_scenario(text)


def build_plan(scheme: str, sc: Scenario):
    if scheme == SCHEME_DC:
        return algorithm_one(sc.topology, sc.demands)
    if scheme == SCHEME_SR:
        return sr_design(sc.topology, sc.demands)
    if scheme == SCHEME_PC:
        return pc_design(sc.topology, sc.demands)
    raise ValueError(f"unknown scheme {scheme!r}")


def _fmt_ms(c_s: float) -> str:
    return f"{c_s * 1e3:g}"


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ScenarioError(f"cannot write --out {out!r}: {exc.strerror}")
    else:
        sys.stdout.write(text)


def _parse_common(args) -> None:
    """Validate the options every command shares and leave the parsed
    schemes, switch times and RtParams on args."""
    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    if not schemes:
        raise ScenarioError("--schemes needs at least one of dc,sr,pc")
    for s in schemes:
        if s not in ALL_SCHEMES:
            raise ScenarioError(
                f"unknown scheme {s!r} (expected a subset of {','.join(ALL_SCHEMES)})"
            )
    try:
        switch = tuple(
            float(x) * 1e-3 for x in args.switch_time_ms.split(",") if x.strip()
        )
    except ValueError:
        raise ScenarioError(f"bad --switch-time-ms value {args.switch_time_ms!r}")
    if not switch or not all(math.isfinite(c) and c > 0 for c in switch):
        raise ScenarioError(
            "--switch-time-ms needs finite positive comma-separated values"
        )
    for flag, value in (("--detect-us", args.detect_us), ("--proc-us", args.proc_us)):
        if not (math.isfinite(value) and value >= 0):
            raise ScenarioError(f"{flag} needs a finite non-negative value, got {value:g}")
    args.schemes = schemes
    args.switch_values_s = switch
    args.rt_params = RtParams(detect_s=args.detect_us * 1e-6, node_proc_s=args.proc_us * 1e-6)


def cmd_plan(args) -> int:
    sc = _load(args.scenario)
    docs = []
    partial = False
    for scheme in args.schemes:
        plan = build_plan(scheme, sc)
        partial = partial or plan.partial
        docs.append(serialize_plan(plan, sc.topology))
    _emit("---\n".join(docs), args.out)
    return EXIT_PARTIAL if partial else EXIT_OK


def _compare_rows(args, sc: Scenario):
    rows = []
    partial = False
    for scheme in args.schemes:
        plan = build_plan(scheme, sc)
        _, result = sweep(sc.topology, plan, args.rt_params, args.switch_values_s)
        partial = partial or result.partial
        rows.append(result)
    return rows, partial


def cmd_compare(args) -> int:
    sc = _load(args.scenario)
    rows, partial = _compare_rows(args, sc)
    cs = args.switch_values_s
    if args.format == "csv":
        header = ["scheme", "scp_pct"]
        header += [f"rt_ms@{_fmt_ms(c)}" for c in cs]
        header += [f"qor@{_fmt_ms(c)}" for c in cs]
        lines = [",".join(header)]
        for r in rows:
            cells = [r.scheme, f"{r.scp_pct:.4f}"]
            cells += [f"{r.rt_s[c] * 1e3:.6f}" for c in cs]
            cells += [f"{r.qor[c]:.6f}" for c in cs]
            lines.append(",".join(cells))
        _emit("\n".join(lines) + "\n", args.out)
    elif args.format == "structured":
        out = []
        for r in rows:
            out.append(f"- scheme: {r.scheme}")
            out.append(f"  label: {SCHEME_LABELS[r.scheme]}")
            out.append(f"  partial: {'true' if r.partial else 'false'}")
            out.append(f"  scp_pct: {r.scp_pct:.4f}")
            out.append("  rt_ms:")
            for c in cs:
                out.append(f"    \"{_fmt_ms(c)}\": {r.rt_s[c] * 1e3:.6f}")
            out.append("  qor:")
            for c in cs:
                out.append(f"    \"{_fmt_ms(c)}\": {r.qor[c]:.6f}")
        _emit("\n".join(out) + "\n", args.out)
    else:  # human-table; argparse's choices refuse any other format
        name_w = max(len(SCHEME_LABELS[r.scheme]) for r in rows)
        head = (
            f"{'scheme':<{name_w}}  {'SCP%':>8}  "
            + "  ".join(f"{'RT@' + _fmt_ms(c) + 'ms':>10}" for c in cs)
            + "  "
            + "  ".join(f"{'QoR@' + _fmt_ms(c):>9}" for c in cs)
        )
        lines = [head, "-" * len(head)]
        for r in rows:
            lines.append(
                f"{SCHEME_LABELS[r.scheme]:<{name_w}}  {r.scp_pct:>8.1f}  "
                + "  ".join(f"{r.rt_s[c] * 1e3:>10.3f}" for c in cs)
                + "  "
                + "  ".join(f"{r.qor[c]:>9.4f}" for c in cs)
            )
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_PARTIAL if partial else EXIT_OK


def cmd_qor_curve(args) -> int:
    sc = _load(args.scenario)
    rows, partial = _compare_rows(args, sc)
    lines = ["scheme,switch_ms,rt_ms,qor"]
    for r in rows:
        for c in args.switch_values_s:
            lines.append(
                f"{r.scheme},{_fmt_ms(c)},{r.rt_s[c] * 1e3:.6f},{r.qor[c]:.6f}"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_PARTIAL if partial else EXIT_OK


def cmd_validate(args) -> int:
    sc = _load(args.scenario)
    topo = sc.topology
    lines = [
        f"scenario: {sc.name or args.scenario}",
        f"nodes: {topo.n}",
        f"links: {topo.m}",
        f"unit: {topo.unit}",
        f"demands: {len(sc.demands)}",
        f"total_rate: {sum(f.rate for f in sc.demands)}",
    ]
    for w in topo.warnings:
        lines.append(f"warning: {w}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True,
                   help="scenario file path or bundled fixture name")
    p.add_argument("--schemes", default=",".join(ALL_SCHEMES),
                   help="comma list out of dc,sr,pc (default: all)")
    p.add_argument("--switch-time-ms", default=",".join(map(_fmt_ms, SWITCH_VALUES_S)),
                   help="switch reconfiguration times to evaluate, ms")
    p.add_argument("--detect-us", type=float, default=100.0,
                   help="failure detection time, microseconds")
    p.add_argument("--proc-us", type=float, default=100.0,
                   help="per-node message processing time, microseconds")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", default="csv",
                   choices=["csv", "structured", "human-table"],
                   help="output format for tabular commands")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="divprotect",
        description="Plan and evaluate single-link-failure protection: "
                    "XOR parity groups (dc), shared-backup source "
                    "rerouting (sr), and protection cycles (pc).",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in [
        ("plan", cmd_plan),
        ("compare", cmd_compare),
        ("qor-curve", cmd_qor_curve),
        ("validate", cmd_validate),
    ]:
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _parse_common(args)
        return args.fn(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
