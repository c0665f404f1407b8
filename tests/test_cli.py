import argparse
import glob
import math
import os
import shutil
import subprocess
import sys
import time
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
import yaml

import divprotect
from divprotect import cli, topology
from divprotect.cli import ALL_SCHEMES, FIXTURES_ENV, fixture_names, fixture_path, main
from divprotect.metrics import SWITCH_VALUES_S, RtParams
from divprotect.topology import dump_scenario, load_scenario
from helpers import load_fixture

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FIXTURES = [
    "cost239-reconstruction",
    "example2",
    "fig1-star",
    "synthetic-reconstruction",
    "uslong-reconstruction",
]

EXAMPLE2_COMPARE = """\
scheme,scp_pct,rt_ms@0.5,rt_ms@1,rt_ms@5,rt_ms@10,qor@0.5,qor@1,qor@5,qor@10
dc,114.2857,0.330000,0.330000,0.330000,0.330000,0.800361,0.800361,0.800361,0.800361
sr,128.5714,2.787500,4.287500,16.287500,31.287500,0.771255,0.768455,0.709365,0.585732
pc,150.0000,1.657500,2.657500,10.657500,20.657500,0.742125,0.740979,0.713885,0.645654
"""


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_text(encoding="utf-8")


def write_ring(path, distance, rate, chord=False):
    """A 4-node ring of equal links, with a 0-2 chord if asked, and one
    demand 0->1 at the given rate."""
    ends = [(a, (a + 1) % 4) for a in range(4)] + [(0, 2)] * chord
    links = "".join(f"    - {{a: {a}, b: {b}, distance: {distance}}}\n" for a, b in ends)
    path.write_text(
        "topology:\n  unit: km\n  nodes: [{id: 0}, {id: 1}, {id: 2}, {id: 3}]\n"
        f"  links:\n{links}demands:\n  - {{src: 0, dst: 1, rate: {rate}}}\n",
        encoding="utf-8",
    )
    return path


def child_env() -> dict:
    """os.environ with this checkout's divprotect first on PYTHONPATH."""
    src_dir = str(Path(divprotect.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    return env


def test_bundled_fixture_discovery():
    assert fixture_names() == FIXTURES
    assert fixture_path("example2") is not None
    assert fixture_path("example2.yaml") == fixture_path("example2")
    assert fixture_path("no-such-fixture") is None


def test_fixture_dir_override(tmp_path, monkeypatch):
    src = Path(fixture_path("example2")).read_text(encoding="utf-8")
    (tmp_path / "mine.yaml").write_text(src, encoding="utf-8")
    monkeypatch.setenv("DIVPROTECT_FIXTURES", str(tmp_path))
    assert fixture_names() == ["mine"]
    assert fixture_path("mine") == str(tmp_path / "mine.yaml")
    assert fixture_path("example2") is None


def test_compare_example2_golden_bytes(tmp_path):
    code, text = run(tmp_path, "compare", "--scenario", "example2")
    assert code == 0
    assert text == EXAMPLE2_COMPARE
    # byte-identical on a second run
    code, text2 = run(tmp_path, "compare", "--scenario", "example2")
    assert text2 == text


def test_compare_of_a_sorted_keys_dump_prints_the_fixtures_bytes(tmp_path, capsys):
    # sorted keys leave the row layouts, so yaml.safe_load reads this file
    with open(fixture_path("example2"), encoding="utf-8") as fh:
        redump = yaml.safe_dump(yaml.safe_load(fh))
    assert topology._read_rows(redump) is None
    path = tmp_path / "sorted.yaml"
    path.write_text(redump, encoding="utf-8")
    outs = []
    for scenario in ("example2", str(path)):
        assert main(["compare", "--schemes", "dc,sr,pc", "--scenario", scenario]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == EXAMPLE2_COMPARE
    assert outs[1] == outs[0]


@pytest.mark.parametrize("name", FIXTURES)
def test_compare_all_fixtures_byte_stable(tmp_path, name):
    code, a = run(tmp_path, "compare", "--scenario", name)
    assert code == 0
    _, b = run(tmp_path, "compare", "--scenario", name)
    assert a == b
    rows = a.strip().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["dc", "sr", "pc"]


def test_compare_structured_and_table(tmp_path):
    code, text = run(
        tmp_path, "compare", "--scenario", "example2", "--format", "structured"
    )
    assert code == 0
    assert "- scheme: dc" in text
    assert "  label: diversity coding" in text
    assert '    "0.5": 0.330000' in text
    code, text = run(
        tmp_path, "compare", "--scenario", "example2", "--format", "human-table"
    )
    assert code == 0
    assert "diversity coding" in text
    assert "source rerouting" in text
    assert "p-cycles" in text


def test_compare_scheme_subset_and_custom_c(tmp_path):
    code, text = run(
        tmp_path,
        "compare", "--scenario", "example2",
        "--schemes", "dc,pc", "--switch-time-ms", "2,4",
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "scheme,scp_pct,rt_ms@2,rt_ms@4,qor@2,qor@4"
    assert len(lines) == 3
    assert lines[1].startswith("dc,") and lines[2].startswith("pc,")


def test_plan_writes_documents(tmp_path):
    code, text = run(tmp_path, "plan", "--scenario", "example2")
    assert code == 0
    docs = text.split("---\n")
    assert len(docs) == 3
    assert docs[0].startswith("scheme: dc")
    assert docs[1].startswith("scheme: sr")
    assert docs[2].startswith("scheme: pc")


def test_qor_curve_shape(tmp_path):
    code, text = run(tmp_path, "qor-curve", "--scenario", "example2",
                     "--schemes", "dc")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "scheme,switch_ms,rt_ms,qor"
    assert len(lines) == 5
    # flat line: identical rt and qor across C
    cells = [ln.split(",") for ln in lines[1:]]
    assert len({(c[2], c[3]) for c in cells}) == 1


def test_validate_reports_shape(tmp_path):
    code, text = run(tmp_path, "validate", "--scenario", "example2")
    assert code == 0
    assert "nodes: 5" in text
    assert "links: 7" in text
    assert "total_rate: 4" in text


def test_rate_sum_past_4000_digits_exits_1_at_load(tmp_path, capsys):
    # the largest int printed, a pc spare entry, is at most 10^6 times
    # the rate sum, so a sum below 10^4000 stays within str()'s 4,300 digits
    at = write_ring(tmp_path / "at.yaml", 1, 10**4000)
    for argv in (["validate"], ["plan", "--schemes", "sr,pc"]):
        assert main(argv + ["--scenario", str(at)]) == 1
        assert capsys.readouterr().err == (
            "error: demands: the rates sum to 4,001 digits or more\n"
        )
    below = write_ring(tmp_path / "below.yaml", 1, 10**4000 - 1)
    code, text = run(tmp_path, "validate", "--scenario", str(below))
    assert code == 0
    assert f"total_rate: {10**4000 - 1}" in text
    code, text = run(tmp_path, "plan", "--scenario", str(below), "--schemes", "sr,pc")
    assert code == 0
    assert f"{10**4000 - 1}" in text


def test_validate_prints_each_topology_warning(tmp_path):
    # a triangle plus a pendant node 3 on link 3
    scenario = tmp_path / "pendant.yaml"
    scenario.write_text(
        "topology:\n  unit: km\n  nodes: [{id: 0}, {id: 1}, {id: 2}, {id: 3}]\n  links:\n"
        + "".join(f"    - {{a: {a}, b: {b}, distance: 1}}\n" for a, b in [(0, 1), (1, 2), (0, 2), (2, 3)])
        + "demands:\n  - {src: 0, dst: 1}\n",
        encoding="utf-8",
    )
    code, text = run(tmp_path, "validate", "--scenario", str(scenario))
    assert code == 0
    assert text.splitlines()[-1] == "warning: node 3 has degree 1; link 3 cannot be protected"


def test_exit_partial_on_bridge(tmp_path):
    scenario = tmp_path / "bridge.yaml"
    scenario.write_text(
        """
topology:
  unit: km
  nodes: [{id: 0}, {id: 1}, {id: 2}, {id: 3}]
  links:
    - {a: 0, b: 1, distance: 1}
    - {a: 1, b: 2, distance: 1}
    - {a: 0, b: 2, distance: 1}
    - {a: 2, b: 3, distance: 1}
demands:
  - {src: 0, dst: 3}
""",
        encoding="utf-8",
    )
    code, text = run(tmp_path, "plan", "--scenario", str(scenario), "--schemes", "pc")
    assert code == 2
    assert "unprotected: [0]" in text
    code, _ = run(tmp_path, "compare", "--scenario", str(scenario))
    assert code == 2


@pytest.mark.parametrize(
    "distance, rate, schemes, scps",
    [
        # 100 units over 1e17 mm links: capacity-distance passes 2^63
        (100_000_000_000, 100, "sr,pc", ["300.0000", "400.0000"]),
        # a rate that no 64-bit integer holds
        (1, 2**64, "sr,pc", ["300.0000", "400.0000"]),
        # a rate past float range: the SCP divides exact ints
        pytest.param(1, 10**400, "sr,pc", ["300.0000", "400.0000"], id="1-10**400-sr,pc"),
    ],
)
def test_compare_capacity_sums_are_exact(tmp_path, distance, rate, schemes, scps):
    scenario = write_ring(tmp_path / "ring.yaml", distance, rate)
    code, text = run(tmp_path, "compare", "--scenario", str(scenario), "--schemes", schemes)
    assert code == 0
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert [r[1] for r in rows] == scps
    for r in rows:
        assert all(0 < float(q) <= 1 for q in r[6:])


def test_exit_error_cases(tmp_path, capsys):
    assert main(["compare", "--scenario", "definitely-missing.yaml"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["compare", "--scenario", "example2", "--schemes", "dc,xx"]) == 1
    assert main(["compare", "--scenario", "example2", "--schemes", ""]) == 1
    assert main(["compare", "--scenario", "example2", "--switch-time-ms", "0"]) == 1
    assert main(["compare", "--scenario", "example2", "--switch-time-ms", "abc"]) == 1
    bad = tmp_path / "bad.yaml"
    bad.write_text("topology: [broken\n", encoding="utf-8")
    assert main(["validate", "--scenario", str(bad)]) == 1
    # values PyYAML's safe constructors refuse with ValueError
    bad.write_text("name: 2001-13-45\n", encoding="utf-8")
    assert main(["validate", "--scenario", str(bad)]) == 1
    bad.write_text("topology: !!int many\n", encoding="utf-8")
    assert main(["validate", "--scenario", str(bad)]) == 1
    capsys.readouterr()
    # a unit that is no name at all
    bad.write_text("topology: {unit: [km], nodes: [{id: 0}], links: [{a: 0, b: 1, distance: 1}]}\n",
                   encoding="utf-8")
    assert main(["validate", "--scenario", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: topology.unit: unknown unit ['km']")


def test_deeply_nested_yaml_fails_cleanly(tmp_path):
    # run in a child process: a loader that recursed on the C stack would
    # crash the interpreter instead of raising
    deep = tmp_path / "deep.yaml"
    deep.write_text("a: " + "[" * 30000 + "]" * 30000 + "\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "divprotect.cli", "validate", "--scenario", str(deep)],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "nests too deeply" in proc.stderr


def test_dc_on_a_ring_with_many_flows_finishes(tmp_path):
    # 100 unit flows into a destination of degree 2: no parity group can
    # route, so every flow takes a 1+1 pair without a combination search
    scenario = write_ring(tmp_path / "ring.yaml", 1, 100)
    proc = subprocess.run(
        [sys.executable, "-m", "divprotect.cli", "compare", "--scenario", str(scenario),
         "--schemes", "dc"],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].startswith("dc,300.0000,")


def test_pc_sweep_memory_does_not_grow_with_the_rate(tmp_path, capsys):
    # one cycle bought 10^9 times offers the same detour as one bought
    # twice, so the rate-10^9 run prints the rate-2 row within 1 GiB
    small = write_ring(tmp_path / "small.yaml", 1, 2, chord=True)
    assert main(["compare", "--schemes", "pc", "--scenario", str(small)]) == 0
    want = capsys.readouterr().out.splitlines()[1]
    assert want.startswith("pc,300.0000,1.412500,2.412500,")
    big = write_ring(tmp_path / "big.yaml", 1, 10**9, chord=True)
    limited = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from divprotect.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", limited, "compare", "--schemes", "pc", "--scenario", str(big)],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1] == want


def test_dc_refuses_a_demand_past_its_unit_flow_limit(tmp_path):
    # the parity planner makes one object per unit of rate, so a rate-10^8
    # demand is refused before the split: exit 1 with a message, within
    # 1 GiB, not a MemoryError traceback
    big = write_ring(tmp_path / "big.yaml", 1, 10**8, chord=True)
    limited = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from divprotect.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    for command in ("compare", "plan"):
        proc = subprocess.run(
            [sys.executable, "-c", limited, command, "--schemes", "dc", "--scenario", str(big)],
            env=child_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: demand splits into 100000000 unit flows;")
        assert proc.stdout == ""


def test_dc_refuses_a_destination_past_its_walk_bound(tmp_path, capsys):
    # 100 unit flows into one node of K6 would walk 4,087,875 candidate
    # groups per threshold: exit 1 with a message before the walk
    k6 = topology.Topology.from_edge_list(
        [(a, b, 1) for a in range(6) for b in range(a + 1, 6)], unit="km"
    )
    path = tmp_path / "k6.yaml"
    path.write_text(
        dump_scenario(topology.Scenario(k6, [topology.Flow(0, 1, 100)])), encoding="utf-8"
    )
    assert main(["compare", "--schemes", "dc", "--scenario", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: the 100 unit flows into node 1 make 4087875 candidate groups;")


def test_pc_refuses_k12_past_its_cycle_limit(tmp_path, capsys):
    # K12 has 59.7M cycles within its 12-hop bound: exit 1 with a
    # message once the count passes the limit, not a MemoryError
    k12 = topology.Topology.from_edge_list(
        [(a, b, 1) for a in range(12) for b in range(a + 1, 12)], unit="km"
    )
    path = tmp_path / "k12.yaml"
    path.write_text(
        dump_scenario(topology.Scenario(k12, [topology.Flow(0, 1, 1)])), encoding="utf-8"
    )
    start = time.perf_counter()
    assert main(["compare", "--schemes", "pc", "--scenario", str(path)]) == 1
    assert time.perf_counter() - start < 5.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: the topology has more than 1000000 cycles of at most 12 links;"
        " p-cycle planning enumerates at most 1000000\n"
    )


def test_cli_import_leaves_numpy_unloaded():
    # numpy is imported by the p-cycle planner when it runs, so validate
    # and the dc and sr schemes do not pay for loading it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, divprotect.cli; print('numpy' in sys.modules)"],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cold_start_on_a_row_layout_fixture_needs_only_the_stdlib(capsys, tmp_path):
    # the same fixture dumped block-style is in the other row layout, which
    # the row reader takes too, to the same scenario
    argv = ["compare", "--schemes", "dc,sr", "--scenario", "cost239-reconstruction"]
    with open(fixture_path(argv[-1]), encoding="utf-8") as fh:
        rows = fh.read()
    block = yaml.safe_dump(yaml.safe_load(rows), sort_keys=False)
    assert repr(topology._read_rows(block)) == repr(yaml.safe_load(block))
    sc, again = load_scenario(rows), load_scenario(block)
    assert again._replace(topology=None) == sc._replace(topology=None)
    assert dump_scenario(again) == dump_scenario(sc)
    block_file = tmp_path / "block.yaml"
    block_file.write_text(block, encoding="utf-8")

    # python -S leaves site-packages off sys.path: importing the CLI loads
    # none of these, and a dc,sr compare of a bundled fixture (flow rows)
    # and loading the block dump run without PyYAML, numpy,
    # importlib.resources, fractions or decimal, and the compare prints
    # what it prints in-process
    lazy = ("yaml", "numpy", "dataclasses", "fractions", "importlib.resources")
    code = "\n".join([
        "import sys",
        "import divprotect.cli",
        f"lazy = {lazy!r}",
        "print([m for m in lazy if m in sys.modules], file=sys.stderr)",
        f"rc = divprotect.cli.main({argv!r})",
        f"with open({str(block_file)!r}, encoding='utf-8') as fh:",
        "    divprotect.cli.load_scenario(fh.read())",
        "after = ('yaml', 'numpy', 'importlib.resources', 'fractions', 'decimal')",
        "print([m for m in after if m in sys.modules], file=sys.stderr)",
        "sys.exit(rc)",
    ])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n[]\n"
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out


def test_missing_fixture_dir_is_an_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(FIXTURES_ENV, str(tmp_path / "missing"))
    assert main(["validate", "--scenario", "example2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and FIXTURES_ENV in err


def test_non_utf8_scenario_is_an_error(tmp_path, capsys):
    bad = tmp_path / "latin1.yaml"
    bad.write_bytes("name: caf\xe9\n".encode("latin-1"))
    assert main(["validate", "--scenario", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_out_into_missing_dir_is_an_error(tmp_path, capsys):
    out = tmp_path / "missing" / "out.csv"
    assert main(["compare", "--scenario", "example2", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1000000", "nan", "inf", "1e308"])
def test_detect_us_must_be_finite_non_negative(value, capsys):
    argv = ["compare", "--scenario", "example2", f"--detect-us={value}"]
    assert main(argv) == 1
    assert "--detect-us" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-100", "nan", "inf", "1e308"])
def test_proc_us_must_be_finite_non_negative(value, capsys):
    argv = ["compare", "--scenario", "example2", f"--proc-us={value}"]
    assert main(argv) == 1
    assert "--proc-us" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "1,nan", "1e308"])
def test_switch_time_ms_must_be_finite_positive(value, capsys):
    argv = ["compare", "--scenario", "example2", f"--switch-time-ms={value}"]
    assert main(argv) == 1
    assert "--switch-time-ms" in capsys.readouterr().err


@pytest.mark.parametrize("option, top", [
    ("--switch-time-ms", "1000000"), ("--detect-us", "1000000000"), ("--proc-us", "1000000000"),
])
def test_timing_options_stop_at_a_thousand_seconds(option, top, capsys):
    # a thousand seconds is taken; the next float above it, and 1e308
    # (whose RT cells printed inf or 300 digits), are usage errors
    assert main(["qor-curve", "--scenario", "example2", f"{option}={top}"]) == 0
    capsys.readouterr()
    for value in (repr(math.nextafter(float(top), math.inf)), "1e308"):
        assert main(["qor-curve", "--scenario", "example2", f"{option}={value}"]) == 1
        err = capsys.readouterr().err
        assert f"argument {option}: needs " in err and "of at most" in err


def _subparser(command):
    ap = cli._parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


ALL_OPTIONS = ["--scenario", "--schemes", "--switch-time-ms", "--detect-us", "--proc-us",
               "--out", "--format"]


@pytest.mark.parametrize("command, options", [
    ("plan", ["--scenario", "--schemes", "--out"]),
    ("compare", ALL_OPTIONS),
    ("qor-curve", ALL_OPTIONS[:-1]),
    ("validate", ["--scenario", "--out"]),
])
def test_each_command_takes_only_the_options_it_reads(command, options):
    actions = _subparser(command)._actions
    assert [s for a in actions for s in a.option_strings if s not in ("-h", "--help")] == options


@pytest.mark.parametrize("argv", [
    ["plan", "--format", "csv"],
    ["plan", "--switch-time-ms", "1"],
    ["qor-curve", "--format", "csv"],
    ["validate", "--schemes", "dc"],
])
def test_an_option_the_command_does_not_read_is_refused(argv, capsys):
    assert main([*argv, "--scenario", "example2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments" in err


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    assert main(["compare", "--scenario", "example2", "--bogus"]) == 1
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert main(["compare"]) == 1
    assert "required: --scenario" in capsys.readouterr().err
    assert main([]) == 1
    capsys.readouterr()
    assert main(["compare", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: divprotect compare")


def test_option_errors_name_the_option_after_a_usage_line(capsys):
    assert main(["compare", "--scenario", "example2", "--schemes", "dc,xx"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: divprotect compare")
    assert err.endswith("divprotect compare: error: argument --schemes: "
                        "unknown scheme 'xx' (expected a subset of dc,sr,pc)\n")


@pytest.mark.parametrize("option, value, phrase", [
    ("--schemes", "dc,dc", "repeated scheme 'dc'"),
    ("--schemes", "sr, pc,sr", "repeated scheme 'sr'"),
    ("--switch-time-ms", "1,1.0000001", "prints two values alike: 1,1"),
    ("--switch-time-ms", "0.5,5,0.5", "prints two values alike: 0.5,5,0.5"),
])
def test_repeated_schemes_and_switch_labels_are_refused(option, value, phrase, capsys):
    for command in ("compare", "qor-curve"):
        assert main([command, "--scenario", "example2", option, value]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: argument {option}: " in err and phrase in err


def test_defaults_are_the_library_constants(monkeypatch):
    args = cli._parser().parse_args(["compare", "--scenario", "example2"])
    assert args.schemes is ALL_SCHEMES
    assert args.switch_values_s is SWITCH_VALUES_S
    # the RtParams each sweep gets equals RtParams(), float for float, with
    # no timing flags and with the default values spelled out
    seen = []
    orig = cli.sweep

    def recording_sweep(topo, plan, rt_params, switch_values_s):
        seen.append((rt_params, switch_values_s))
        return orig(topo, plan, rt_params, switch_values_s)

    monkeypatch.setattr(cli, "sweep", recording_sweep)
    timing = ["--detect-us", "100", "--proc-us", "100", "--switch-time-ms", "0.5,1,5,10"]
    for extra in ([], timing):
        assert main(["compare", "--scenario", "example2", "--schemes", "dc",
                     "--out", os.devnull, *extra]) == 0
    assert len(seen) == 2
    for rt_params, switch_values_s in seen:
        assert rt_params == RtParams()
        assert switch_values_s == SWITCH_VALUES_S


def _validate_example2_bytes(tmp_path, monkeypatch) -> bytes:
    """What in-process `main` writes for `validate --scenario example2`."""
    monkeypatch.delenv(FIXTURES_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "in-process.txt"
    assert main(["validate", "--scenario", "example2", "--out", str(out)]) == 0
    return out.read_bytes()


def _run_console(argv, tmp_path, env):
    """Run a console command as its own process, away from the caller's
    working directory and fixture override."""
    env = {k: v for k, v in env.items() if k != FIXTURES_ENV}
    # --out files are written as UTF-8; make stdout match so bytes compare.
    env["PYTHONIOENCODING"] = "utf-8"
    return subprocess.run(
        argv, cwd=tmp_path, env=env, capture_output=True, timeout=60
    )


def _assert_validates_example2(proc, expected: bytes):
    err = proc.stderr.decode("utf-8", "replace")
    assert proc.returncode == 0, f"exit {proc.returncode}; stderr:\n{err}"
    assert b"nodes: 5" in proc.stdout, f"stderr:\n{err}"
    assert proc.stdout == expected, f"stderr:\n{err}"


# What pip and setuptools write into the `divprotect` console script,
# run through `python -c` so no install is needed.
CONSOLE_WRAPPER = """\
import sys
from {module} import {import_name}
sys.argv[0] = {name!r}
sys.exit({func}())
"""


def test_console_entry_point_installed(tmp_path, monkeypatch):
    """The `divprotect` command declared in pyproject.toml validates
    example2 when run as its own process, from a checkout or an install."""
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)

    # An install ships only what the package-data globs match.
    pkg_dir = Path(divprotect.__file__).resolve().parent
    shipped = {
        Path(f).relative_to(pkg_dir).as_posix()
        for pattern in project["tool"]["setuptools"]["package-data"]["divprotect"]
        for f in glob.glob(str(pkg_dir / pattern), recursive=True)
    }
    monkeypatch.delenv(FIXTURES_ENV, raising=False)
    names = fixture_names()
    assert names
    assert {f"fixtures/{n}.yaml" for n in names} <= shipped

    ep = EntryPoint(
        name="divprotect",
        value=project["project"]["scripts"]["divprotect"],
        group="console_scripts",
    )
    assert ep.module and ep.attr, f"not a module:attr entry: {ep.value!r}"
    assert callable(ep.load())

    code = CONSOLE_WRAPPER.format(
        module=ep.module,
        import_name=ep.attr.split(".")[0],
        name=ep.name,
        func=ep.attr,
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(pkg_dir.parent), env.get("PYTHONPATH")) if p
    )
    proc = _run_console(
        [sys.executable, "-c", code, "validate", "--scenario", "example2"],
        tmp_path, env,
    )
    _assert_validates_example2(
        proc, _validate_example2_bytes(tmp_path, monkeypatch)
    )


@pytest.mark.skipif(
    shutil.which("divprotect") is None,
    reason="divprotect console script not installed",
)
def test_console_script_on_path(tmp_path, monkeypatch):
    """The installed script runs against the installed package, so this
    also shows the bundled fixtures ship as package data."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _run_console(
        [shutil.which("divprotect"), "validate", "--scenario", "example2"],
        tmp_path, env,
    )
    _assert_validates_example2(
        proc, _validate_example2_bytes(tmp_path, monkeypatch)
    )
