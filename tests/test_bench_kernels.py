"""Smoke test: the kernel timing script still runs against the library."""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"


def test_bench_kernels_runs(capsys):
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    bench_kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_kernels)
    assert bench_kernels.main(["--repeats", "1", "--skip-end-to-end"]) == 0
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert rows == ["kernel", "dijkstra", "gf2_rank"]
