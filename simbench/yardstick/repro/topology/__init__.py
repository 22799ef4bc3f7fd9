"""Network topologies studied by the paper.

Diameter-two designs:

- :class:`repro.topology.SlimFly` -- direct MMS-graph topology (Sec. 2.1.2),
- :class:`repro.topology.HyperX2D` -- direct generalized hypercube (Sec. 2.1.1),
- :class:`repro.topology.FatTree2L` -- indirect baseline (Sec. 2.2.1),
- :class:`repro.topology.MLFM` -- Multi-Layer Full-Mesh SSPT (Sec. 2.2.3),
- :class:`repro.topology.OFT` -- two-level Orthogonal Fat-Tree SSPT (Sec. 2.2.4).

Reference topologies for cost/scalability comparison:

- :class:`repro.topology.FatTree3L` (diameter 4),
- :class:`repro.topology.Dragonfly` (diameter 3).

All of them are :class:`repro.topology.Topology` instances; see
:mod:`repro.topology.base` for the shared interface.
"""

from repro.topology.base import LINK_DOWN, LINK_FLAT, LINK_UP, Topology
from repro.topology.dragonfly import Dragonfly
from repro.topology.fattree import FatTree2L, FatTree3L
from repro.topology.hyperx import HyperX2D
from repro.topology.ml3b import ml3b_table, valid_oft_k, verify_ml3b
from repro.topology.mlfm import MLFM
from repro.topology.oft import OFT
from repro.topology.slimfly import SlimFly, slim_fly_delta, slim_fly_generator_sets, valid_slim_fly_q
from repro.topology.spt import SSPT, spt_incidence, verify_spt_incidence
from repro.topology.serialize import (
    LoadedTopology,
    load_topology,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)
from repro.topology.validate import ValidationReport, validate_topology

__all__ = [
    "Topology",
    "LINK_FLAT",
    "LINK_UP",
    "LINK_DOWN",
    "SlimFly",
    "slim_fly_delta",
    "slim_fly_generator_sets",
    "valid_slim_fly_q",
    "HyperX2D",
    "FatTree2L",
    "FatTree3L",
    "MLFM",
    "OFT",
    "SSPT",
    "spt_incidence",
    "verify_spt_incidence",
    "ml3b_table",
    "verify_ml3b",
    "valid_oft_k",
    "Dragonfly",
    "ValidationReport",
    "validate_topology",
    "LoadedTopology",
    "save_topology",
    "load_topology",
    "topology_to_dict",
    "topology_from_dict",
]
