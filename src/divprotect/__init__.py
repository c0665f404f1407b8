"""Single-link-failure protection planning and evaluation.

Three schemes over one topology/demand model: XOR parity groups with a
threshold-sweep planner, shared-backup source rerouting, and greedy
protection cycles, plus a failure sweep that scores spare capacity,
restoration time, and quality of recovery.
"""

from .coding import (
    algorithm_one,
    find_group,
    verify_decodable,
)
from .failsim import FailureReport, sweep, xor_stream_check
from .metrics import (
    FailureGeometry,
    RtParams,
    SchemeResult,
    q_rt,
    q_scp,
    qor,
    scp,
)
from .pcycle import Cycles, cycle_ring, enumerate_cycles, pc_design
from .plan import (
    SCHEME_DC,
    SCHEME_PC,
    SCHEME_SR,
    BackupPair,
    CodingGroup,
    CycleSelection,
    ProtectionPlan,
    serialize_plan,
    shortest_working_capacity_mm,
    split_unit_flows,
)
from .routing import (
    disjoint_routes,
    shortest_path,
)
from .source_reroute import sr_design
from .topology import (
    Flow,
    Link,
    Path,
    Scenario,
    ScenarioError,
    Topology,
    dump_scenario,
    load_scenario,
)

__version__ = "0.1.0"
