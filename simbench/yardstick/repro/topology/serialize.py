"""Topology serialisation (JSON).

Persists the graph-level content of any :class:`Topology` -- adjacency,
node attachment, parameters -- so instances can be shared with other
tools (or reloaded without re-running the constructions).  Structural
hooks that depend on the concrete class (``link_class``,
``valiant_intermediates``) are preserved *by value*: the per-channel
class labels and the intermediate list are stored explicitly and
replayed by the loaded :class:`LoadedTopology`.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Union

from repro.topology.base import Topology

__all__ = ["topology_to_dict", "topology_from_dict", "save_topology", "load_topology",
           "LoadedTopology"]

PathLike = Union[str, pathlib.Path]

FORMAT_VERSION = 1


def topology_to_dict(topology: Topology) -> Dict:
    """Serialise a topology to a JSON-safe dict.

    A :class:`repro.analysis.faults.DegradedTopology` is stored as its
    intact base plus the failed-link list (not as a flattened graph), so
    the round-trip preserves both the degraded adjacency *and* the
    original structure the degradation came from.
    """
    from repro.analysis.faults import DegradedTopology  # lazy: avoids a cycle

    if isinstance(topology, DegradedTopology):
        return {
            "format_version": FORMAT_VERSION,
            "degraded": {
                "base": topology_to_dict(topology.base),
                "failed_links": [[int(u), int(v)]
                                 for u, v in topology.failed_links],
            },
        }
    link_classes = {}
    for u, v in topology.directed_channels():
        cls = topology.link_class(u, v)
        if cls != 0:
            link_classes[f"{u},{v}"] = cls
    return {
        "format_version": FORMAT_VERSION,
        "name": topology.name,
        "adjacency": [topology.neighbors(r) for r in range(topology.num_routers)],
        "nodes_per_router": [
            topology.nodes_attached(r) for r in range(topology.num_routers)
        ],
        "params": {k: _scalar(v) for k, v in topology.params.items()},
        "link_classes": link_classes,
        "valiant_intermediates": topology.valiant_intermediates(),
    }


def _scalar(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class LoadedTopology(Topology):
    """A topology reconstructed from serialised data.

    Replays the stored link classes and Valiant-intermediate pool, so
    routing, VC policies and deadlock analysis behave exactly as on the
    original instance.
    """

    def __init__(self, data: Dict):
        super().__init__(
            name=data["name"],
            adjacency=data["adjacency"],
            nodes_per_router=data["nodes_per_router"],
            params=data.get("params", {}),
        )
        self._link_classes: Dict[tuple, int] = {}
        for key, cls in data.get("link_classes", {}).items():
            u, v = key.split(",")
            self._link_classes[(int(u), int(v))] = int(cls)
        self._valiant: List[int] = list(
            data.get("valiant_intermediates", self.endpoint_routers())
        )

    def link_class(self, u: int, v: int) -> int:
        return self._link_classes.get((u, v), 0)

    def valiant_intermediates(self) -> List[int]:
        return list(self._valiant)


def topology_from_dict(data: Dict) -> Topology:
    """Inverse of :func:`topology_to_dict`.

    Returns a :class:`LoadedTopology`, or a
    :class:`~repro.analysis.faults.DegradedTopology` over one when the
    dict stores a degraded instance.
    """
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported topology format version {version!r}")
    if "degraded" in data:
        from repro.analysis.faults import DegradedTopology

        deg = data["degraded"]
        base = topology_from_dict(deg["base"])
        return DegradedTopology(
            base, [(int(u), int(v)) for u, v in deg["failed_links"]]
        )
    return LoadedTopology(data)


def save_topology(topology: Topology, path: PathLike) -> None:
    """Write a topology to a JSON file."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump(topology_to_dict(topology), fh)
        fh.write("\n")


def load_topology(path: PathLike) -> LoadedTopology:
    """Read a topology from a JSON file."""
    with pathlib.Path(path).open() as fh:
        return topology_from_dict(json.load(fh))
