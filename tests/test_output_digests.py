"""sha256 of the ``plan`` and ``compare`` output of every bundled fixture.

The example2 goldens spell out their bytes; these digests pin the other
fixtures too, so a change to routing, tie-breaking or formatting that
moves any output byte shows here. One seeded 40-node benchmark instance,
larger than any fixture, pins the dc plan where its candidate search
does most of its work.
"""
import hashlib

import numpy as np
import pytest

from divprotect.cli import main
from divprotect.coding import algorithm_one
from divprotect.plan import serialize_plan
from helpers import load_bench_kernels

COMMANDS = {
    "plan": ["plan", "--schemes", "dc,sr,pc"],
    "compare": ["compare", "--schemes", "dc,sr,pc", "--format", "csv"],
}

DIGESTS = {
    ("cost239-reconstruction", "plan"): "8074d40aff0f80ee22e2cd4e107515ee94bac252738978ef9667497bbc783883",
    ("cost239-reconstruction", "compare"): "a34904be2a349c8fb93ff3563b3c0eaa51dfe6e0b399f8c467dd482fb86d64ba",
    ("example2", "plan"): "d29edbe42cd0911de4a7d999b074eea52157a848dbc8915c48dbed8f08392761",
    ("example2", "compare"): "279712c07203c2d288b0620d75345ddd68111d73730af9d70a3ed720581c8dfe",
    ("fig1-star", "plan"): "d4c73e99a8772efbd57e23311f732ea717f09b3405f3405c3fb1d8e885a53f52",
    ("fig1-star", "compare"): "a6f738ff3d2f24240f7fc8ed79a3904e69fac4f49924cccc7230eb2b70833555",
    ("synthetic-reconstruction", "plan"): "463efc91f38401774dd0071913f042b808e8e5e3f9a968f6f5f046b617999c09",
    ("synthetic-reconstruction", "compare"): "460660aea6397357ad451d025ca97e308a504e9ed51a0166bdb7cbf57ef86e8f",
    ("uslong-reconstruction", "plan"): "538d22fee449fb7ee833ee51a848b360506926bddecb010a3376a279f90231fe",
    ("uslong-reconstruction", "compare"): "46682ec705f422b8945dcda14d7ba9e5f0322c2be5e9542aa4e87b29349ec7cc",
}


@pytest.mark.parametrize("name, command", sorted(DIGESTS))
def test_output_bytes_match_the_recorded_digest(tmp_path, name, command):
    out = tmp_path / "out.txt"
    assert main([*COMMANDS[command], "--scenario", name, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[(name, command)]


DC_40N_DIGEST = "2291f2fc831321e3a0d3af45ea4e8e67848e528ace90c219ab2174ce950f61f7"


def test_dc_plan_of_a_40_node_mesh_matches_the_recorded_digest():
    topo, flows = load_bench_kernels().dc_instance(np.random.default_rng(1), 40, 60)
    plan = serialize_plan(algorithm_one(topo, flows), topo)
    assert hashlib.sha256(plan.encode()).hexdigest() == DC_40N_DIGEST
