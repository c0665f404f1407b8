"""Spare capacity, restoration time, and quality-of-recovery scoring."""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import NamedTuple


# the switch reconfiguration times a sweep scores by default, seconds
SWITCH_VALUES_S = (0.5e-3, 1e-3, 5e-3, 10e-3)
# signal propagation speed, km/s: 200 km/ms, typical for fibre
PROP_SPEED_KM_S = 2.0e5


class RtParams(NamedTuple):
    """Timing constants for restoration-time accounting.

    Defaults: 100 us failure detection and 100 us per-node message
    processing. The switch reconfiguration time is an argument of each
    formula; signals propagate at ``PROP_SPEED_KM_S``.
    """

    detect_s: float = 100e-6
    node_proc_s: float = 100e-6


class FailureGeometry(NamedTuple):
    """Distances and hop counts that set one flow's restoration time.

    upstream_* describe the path from the failure-adjacent node back to
    the acting node (the source for rerouting; for cycles the detour arc
    itself is the acting chain). notify_delay_s is the propagation from
    the break point to the nearest detecting node, taken at worst case
    (mid-span failure). parity_skew_s is how much later the parity copy
    arrives than the lost working signal did.
    """

    backup_hops: int = 0
    upstream_hops: int = 0
    prot_delay_s: float = 0.0
    upstream_delay_s: float = 0.0
    notify_delay_s: float = 0.0
    parity_skew_s: float = 0.0


def worst_rt_sr(
    geoms: Iterable[FailureGeometry], p: RtParams, switch_values_s: Sequence[float]
) -> tuple[float, ...]:
    """Source rerouting: notify the source, then signal the backup path
    switches there and back before traffic resumes. The worst time over
    ``geoms`` at each switch time of ``switch_values_s``, 0.0 for none.
    A geometry's terms are summed once; per switch time only
    ``(backup_hops + 1) * switch`` and what follows it are added, in
    the formula's left-to-right order, so the times are the same floats."""
    detect, proc = p.detect_s, p.node_proc_s
    terms = [
        (
            detect + g.upstream_delay_s + (g.upstream_hops + 1) * proc,
            g.backup_hops + 1,
            3 * g.prot_delay_s,
            3 * (g.backup_hops + 1) * proc,
            g.notify_delay_s,
        )
        for g in geoms
    ]
    return tuple(
        max(
            (head + hops * c + prot + signal + notify for head, hops, prot, signal, notify in terms),
            default=0.0,
        )
        for c in switch_values_s
    )


def worst_rt_pc(
    geoms: Iterable[FailureGeometry], p: RtParams, switch_values_s: Sequence[float]
) -> tuple[float, ...]:
    """Protection cycles: the two end nodes of the failed span switch
    onto the pre-configured detour. The worst time over ``geoms`` at
    each switch time of ``switch_values_s``, 0.0 for none, with the
    switch-free head of the sum taken once per geometry."""
    detect, proc = p.detect_s, p.node_proc_s
    terms = [
        (detect + (g.upstream_hops + 1) * proc, g.prot_delay_s, g.notify_delay_s)
        for g in geoms
    ]
    return tuple(
        max((head + 2 * c + prot + notify for head, prot, notify in terms), default=0.0)
        for c in switch_values_s
    )


def worst_rt_dc(
    geoms: Iterable[FailureGeometry], p: RtParams, switch_values_s: Sequence[float]
) -> tuple[float, ...]:
    """Parity decode: no switching, no signalling round trips; the
    destination just waits out the arrival skew of the parity copy. The
    worst time over ``geoms``, 0.0 for none, once per switch time of
    ``switch_values_s``, which it does not depend on."""
    base = p.detect_s + 2 * p.node_proc_s
    worst = max((base + g.parity_skew_s for g in geoms), default=0.0)
    return (worst,) * len(switch_values_s)


def scp(total_capacity_mm: int, shortest_working_mm: int) -> float:
    """Spare capacity percentage over the shortest-path working floor."""
    # exact int division, rounded once: no capacity is too large
    return 100 * (total_capacity_mm - shortest_working_mm) / shortest_working_mm


def q_rt(rt_s: float) -> float:
    """Restoration-time quality; 0.5 at 50 ms, approaching 1 for hitless."""
    return 1.0 / (1.0 + 400.0 * rt_s * rt_s)


def q_scp(scp_pct: float) -> float:
    """Capacity-overhead quality; 0.5 at 100% extra capacity."""
    x = scp_pct / 100.0
    return 1.0 / (1.0 + x * x * x)


def qor(scp_pct: float, rt_s: float) -> float:
    """Quality of recovery: restoration speed weighted twice against
    capacity overhead."""
    return (2.0 * q_rt(rt_s) + q_scp(scp_pct)) / 3.0


class SchemeResult(NamedTuple):
    """Headline numbers for one scheme on one scenario."""

    scheme: str
    scp_pct: float
    rt_s: dict[float, float]
    qor: dict[float, float]
    partial: bool = False
