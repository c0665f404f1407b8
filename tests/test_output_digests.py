"""sha256 of the output of each CLI command on every bundled fixture.

The example2 goldens spell out their bytes; these digests pin the other
fixtures too, so a change to routing, tie-breaking or formatting that
moves any output byte shows here. One seeded 40-node benchmark instance,
larger than any fixture, pins the dc plan where its candidate search
does most of its work; a 200-node one pins the pc plan where cycle
enumeration and selection handle 222,730 cycles.
"""
import hashlib

import numpy as np
import pytest

from divprotect.cli import main
from divprotect.coding import algorithm_one
from divprotect.pcycle import pc_design
from divprotect.plan import serialize_plan
from helpers import load_bench_kernels

COMMANDS = {
    "plan": ["plan", "--schemes", "dc,sr,pc"],
    "compare": ["compare", "--schemes", "dc,sr,pc", "--format", "csv"],
    "qor-curve": ["qor-curve", "--schemes", "dc,sr,pc"],
    "validate": ["validate"],
}

DIGESTS = {
    ("cost239-reconstruction", "plan"): "8074d40aff0f80ee22e2cd4e107515ee94bac252738978ef9667497bbc783883",
    ("cost239-reconstruction", "compare"): "a34904be2a349c8fb93ff3563b3c0eaa51dfe6e0b399f8c467dd482fb86d64ba",
    ("cost239-reconstruction", "qor-curve"): "62d9b15ee7f1ac15a0053d01d207de887070401d7f6ec51b40fb0c9b018a80db",
    ("cost239-reconstruction", "validate"): "8a2a41e27246237d8f2597ab68a1bc929569befb0cda00d4a44ed442ffe7cbde",
    ("example2", "plan"): "d29edbe42cd0911de4a7d999b074eea52157a848dbc8915c48dbed8f08392761",
    ("example2", "compare"): "279712c07203c2d288b0620d75345ddd68111d73730af9d70a3ed720581c8dfe",
    ("example2", "qor-curve"): "7ba578bb796e387e9dbcdbddfaba072f5d98d32d6d12def49d4e2973586d5fec",
    ("example2", "validate"): "f030535ee4cd2eba504793e581ded42852a9c6ef0b9ed7012955b78b8a999714",
    ("fig1-star", "plan"): "d4c73e99a8772efbd57e23311f732ea717f09b3405f3405c3fb1d8e885a53f52",
    ("fig1-star", "compare"): "a6f738ff3d2f24240f7fc8ed79a3904e69fac4f49924cccc7230eb2b70833555",
    ("fig1-star", "qor-curve"): "9525078216741440fb71884d3054cf5798bf7e5418ad6633c8e5678d6f29520f",
    ("fig1-star", "validate"): "1d91a9f8d37ac51afca751670f7412c50004b3f47a0a0823da180a734a15bc6d",
    ("synthetic-reconstruction", "plan"): "463efc91f38401774dd0071913f042b808e8e5e3f9a968f6f5f046b617999c09",
    ("synthetic-reconstruction", "compare"): "460660aea6397357ad451d025ca97e308a504e9ed51a0166bdb7cbf57ef86e8f",
    ("synthetic-reconstruction", "qor-curve"): "f3044622b3b2f788df2f605aa892ef0573c368f06bcdde28e19eb644cdba218d",
    ("synthetic-reconstruction", "validate"): "a38c892392ed5697a5ce3567bd1ae3d80f688423a9052a051dbf5a219ce2bc16",
    ("uslong-reconstruction", "plan"): "538d22fee449fb7ee833ee51a848b360506926bddecb010a3376a279f90231fe",
    ("uslong-reconstruction", "compare"): "46682ec705f422b8945dcda14d7ba9e5f0322c2be5e9542aa4e87b29349ec7cc",
    ("uslong-reconstruction", "qor-curve"): "686de041b8ebfc43565941393f52458f65a6cac7749e76a9a54ff15ada3dd6f4",
    ("uslong-reconstruction", "validate"): "bf29cb573d0e263ea580d972238088c307546d2117cf065a33fd4c4525a04966",
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


PC_200N_DIGEST = "fdec484122af4b5f58a284e11b851ec8de1eb2860b3a14793234e889be3df09c"


def test_pc_plan_of_a_200_node_mesh_matches_the_recorded_digest():
    topo, flows = load_bench_kernels().dc_instance(np.random.default_rng(1), 200, 300)
    plan = serialize_plan(pc_design(topo, flows), topo)
    assert hashlib.sha256(plan.encode()).hexdigest() == PC_200N_DIGEST
