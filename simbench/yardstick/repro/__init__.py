"""repro -- Cost-Effective Diameter-Two Topologies (SC '15), reproduced.

An open implementation of Kathareios, Minkenberg, Prisacari, Rodriguez
and Hoefler, *Cost-Effective Diameter-Two Topologies: Analysis and
Evaluation*, SC '15 (DOI 10.1145/2807591.2807652):

- :mod:`repro.topology` -- Slim Fly, Multi-Layer Full-Mesh, two-level
  Orthogonal Fat-Tree, 2D HyperX, 2/3-level Fat-Trees, Dragonfly;
- :mod:`repro.routing` -- minimal, indirect random (Valiant) and UGAL-L
  adaptive routing with VC-based deadlock avoidance and an exact
  channel-dependency-graph checker;
- :mod:`repro.sim` -- a flit/packet-level event-driven network
  simulator (VC input-output-buffered switches, credit flow control);
- :mod:`repro.traffic` -- uniform, per-topology worst-case, all-to-all
  and 3D-torus nearest-neighbour workloads;
- :mod:`repro.analysis` -- cost, scalability, bisection bandwidth
  (multilevel partitioner), path diversity and static link loads;
- :mod:`repro.experiments` -- one reproduction function per table and
  figure of the paper.

Quickstart::

    from repro.topology import SlimFly
    from repro.routing import UGALRouting
    from repro.sim import Network
    from repro.traffic import UniformRandom

    topo = SlimFly(q=5)
    net = Network(topo, UGALRouting(topo, cost_mode="sf"))
    stats = net.run_synthetic(UniformRandom(topo.num_nodes), load=0.7)
    print(f"throughput={stats.throughput:.2f}")
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
