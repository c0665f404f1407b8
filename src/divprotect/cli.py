"""Command-line front end: plan, compare, qor-curve, validate."""
from __future__ import annotations

import argparse
import functools
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

# longest time any timing option takes, in seconds: 1e6 ms, 1e9 us
_MAX_TIME_S = 1e3


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


def _schemes(text: str) -> tuple[str, ...]:
    schemes = tuple(s.strip() for s in text.split(",") if s.strip())
    if not schemes:
        raise argparse.ArgumentTypeError("needs at least one of dc,sr,pc")
    for i, s in enumerate(schemes):
        if s not in ALL_SCHEMES or s in schemes[:i]:
            what = "repeated" if s in ALL_SCHEMES else "unknown"
            raise argparse.ArgumentTypeError(f"{what} scheme {s!r} (expected a subset of dc,sr,pc)")
    return schemes


def _switch_times(text: str) -> tuple[float, ...]:
    try:
        ms = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad value {text!r}") from None
    if not ms or not all(0 < c <= _MAX_TIME_S * 1e3 for c in ms):
        raise argparse.ArgumentTypeError(
            f"needs positive comma-separated values of at most {_MAX_TIME_S * 1e3:g}"
        )
    switch = tuple(c * 1e-3 for c in ms)
    labels = [_fmt_ms(c) for c in switch]
    if len(set(labels)) < len(labels):
        raise argparse.ArgumentTypeError(f"{text!r} prints two values alike: {','.join(labels)}")
    return switch


def _us(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad value {text!r}") from None
    if not 0 <= value <= _MAX_TIME_S * 1e6:
        raise argparse.ArgumentTypeError(
            f"needs a non-negative value of at most {_MAX_TIME_S * 1e6:g}, got {value:g}"
        )
    return value / 1e6


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
    rt = RtParams(detect_s=args.detect_s, node_proc_s=args.node_proc_s)
    rows = []
    partial = False
    for scheme in args.schemes:
        plan = build_plan(scheme, sc)
        _, result = sweep(sc.topology, plan, rt, args.switch_values_s)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="divprotect",
        description="Plan and evaluate single-link-failure protection: "
                    "XOR parity groups (dc), shared-backup source "
                    "rerouting (sr), and protection cycles (pc).",
    )
    options = {  # the defaults are the library's own, which argparse does not convert
        "--scenario": dict(required=True, help="scenario file path or bundled fixture name"),
        "--schemes": dict(type=_schemes, default=ALL_SCHEMES,
                          help="comma list out of dc,sr,pc (default: all)"),
        "--switch-time-ms": dict(type=_switch_times, default=SWITCH_VALUES_S,
                                 dest="switch_values_s", metavar="MS,...", help="switch times"),
        "--detect-us": dict(type=_us, default=RtParams().detect_s, dest="detect_s",
                            metavar="US", help="failure detection time, microseconds"),
        "--proc-us": dict(type=_us, default=RtParams().node_proc_s, dest="node_proc_s",
                          metavar="US", help="per-node message processing time, microseconds"),
        "--out": dict(help="output path (default: stdout)"),
        "--format": dict(default="csv", choices=["csv", "structured", "human-table"]),
    }
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn, flags in [  # each command takes only the options it reads
        ("plan", cmd_plan, ("--scenario", "--schemes", "--out")),
        ("compare", cmd_compare, tuple(options)),
        ("qor-curve", cmd_qor_curve, tuple(options)[:-1]),
        ("validate", cmd_validate, ("--scenario", "--out")),
    ]:
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **options[flag])
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # argparse's: 0 after --help, 2 after a usage error
        return EXIT_OK if not exc.code else EXIT_ERROR
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
