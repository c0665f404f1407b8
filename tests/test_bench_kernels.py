"""Smoke test: the kernel timing script still runs against the library."""
from helpers import load_bench_kernels


def test_bench_kernels_runs(capsys):
    assert load_bench_kernels().main(["--repeats", "1", "--skip-end-to-end"]) == 0
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert rows == ["kernel", "dijkstra", "dijkstra-until", "gf2_rank", "cycles", "load",
                    "load-40n", "load-block", "load-pyyaml", "dc-dense"]
