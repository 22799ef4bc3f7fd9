"""Flit/packet-level event-driven network simulator (paper Sec. 4.1).

The open substitute for the proprietary simulator used by the paper:
virtual-channel input-buffered switches, credit-based flow control,
round-robin arbitration, serializing links and NICs.  See DESIGN.md §4
for the packet-granularity substitution argument.

Typical use::

    from repro.sim import Network, SimConfig
    from repro.topology import SlimFly
    from repro.routing import MinimalRouting
    from repro.traffic import UniformRandom

    topo = SlimFly(5)
    net = Network(topo, MinimalRouting(topo))
    stats = net.run_synthetic(UniformRandom(topo.num_nodes), load=0.5)
    print(stats.throughput, stats.mean_latency_ns)
"""

from repro.sim.config import PAPER_CONFIG, SimConfig
from repro.sim.engine import Engine
from repro.sim.invariants import InvariantChecker, InvariantViolation
from repro.sim.network import Network
from repro.sim.packet import Packet
from repro.sim.stats import StatsCollector, WindowStats

__all__ = [
    "SimConfig",
    "PAPER_CONFIG",
    "Engine",
    "Network",
    "Packet",
    "StatsCollector",
    "WindowStats",
    "InvariantChecker",
    "InvariantViolation",
]
