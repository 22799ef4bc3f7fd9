"""Structural validation of topology instances.

Centralises the invariant checks used throughout the test suite: radix
uniformity, diameter, node/router/port/link-count formulas and the
paper's headline cost metrics (~3 ports and ~2 links per end-node).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.topology.base import Topology

__all__ = ["ValidationReport", "validate_topology"]


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_topology`."""

    topology: str
    problems: List[str] = field(default_factory=list)
    diameter: Optional[int] = None

    @property
    def ok(self) -> bool:
        """``True`` iff no invariant was violated."""
        return not self.problems

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        status = "OK" if self.ok else f"{len(self.problems)} problem(s)"
        lines = [f"{self.topology}: {status}"]
        lines.extend(f"  - {p}" for p in self.problems)
        return "\n".join(lines)


def validate_topology(
    topology: Topology,
    expect_diameter: Optional[int] = 2,
    expect_uniform_radix: bool = True,
    max_ports_per_node: float = 3.5,
    max_links_per_node: float = 2.5,
    check_diameter: bool = True,
) -> ValidationReport:
    """Check the structural invariants shared by the paper's topologies.

    Parameters are permissive by default because the Slim Fly's ceil/floor
    rounding of ``p`` makes cost metrics hover slightly above/below 3 and 2
    (paper Sec. 2.1.2).
    """
    report = ValidationReport(topology=topology.name)

    if topology.num_routers == 0:
        report.problems.append("topology has no routers")
        return report
    if topology.num_nodes == 0:
        report.problems.append("topology has no end-nodes")
        return report  # per-node cost metrics are undefined

    # Adjacency symmetry/self-loop checks already ran in the constructor;
    # here we re-verify counts and degree structure.
    degrees = [topology.degree(r) for r in range(topology.num_routers)]
    if any(d == 0 for d in degrees):
        report.problems.append("isolated router (degree 0)")

    if expect_uniform_radix:
        radixes = {topology.radix(r) for r in range(topology.num_routers)}
        if len(radixes) != 1:
            report.problems.append(f"non-uniform radix: {sorted(radixes)}")

    ports = topology.ports_per_node()
    links = topology.links_per_node()
    if ports > max_ports_per_node:
        report.problems.append(f"ports/node {ports:.2f} > {max_ports_per_node}")
    if links > max_links_per_node:
        report.problems.append(f"links/node {links:.2f} > {max_links_per_node}")

    if check_diameter:
        # The paper's "diameter" is between endpoint routers: the hub
        # routers of the indirect topologies make the raw router-graph
        # diameter larger (e.g. 4 for the MLFM) even though every
        # node-to-node minimal route has at most 2 router-router hops.
        try:
            report.diameter = topology.endpoint_diameter()
        except ValueError as exc:
            report.problems.append(str(exc))
            return report
        if expect_diameter is not None and report.diameter != expect_diameter:
            report.problems.append(
                f"endpoint diameter {report.diameter} != expected {expect_diameter}"
            )
    return report
