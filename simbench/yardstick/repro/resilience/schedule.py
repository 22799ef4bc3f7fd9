"""Timed fault schedules: parse, validate, expand.

A schedule is a sequence of spec strings (CLI ``--faults``, config
``SimConfig.faults``), each describing link/router failures or
recoveries at simulated-time instants:

``fail@T:U-V``
    Fail the (undirected) link between routers U and V at time T ns.
``recover@T:U-V``
    Recover a previously failed link at time T ns.
``fail@T:rR`` / ``recover@T:rR``
    Fail (recover) every live (failed) link incident to router R.
``drip@T:n=N,every=E[,seed=S]``
    Starting at time T, fail one randomly chosen live link every E ns,
    N times total.  Each drip spec draws from its own
    ``random.Random(S)`` (default seed 0) and only picks links whose
    removal keeps the live router graph connected, so drip schedules
    are reproducible and never partition the network.

Parsing happens at construction (so ``SimConfig`` validation rejects
malformed specs early); :meth:`FaultSchedule.expand` binds the schedule
to a concrete topology, resolving drips and checking semantic rules
(no double-fail, no recovery of a live link, links must exist).

This module deliberately imports nothing from :mod:`repro.sim` --
``SimConfig.__post_init__`` validates specs through it, and a circular
import would wedge that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

__all__ = ["FaultEvent", "FaultSchedule"]

Link = Tuple[int, int]


@dataclass(frozen=True)
class FaultEvent:
    """One resolved schedule entry: at ``time`` ns, fail or recover
    every link in ``links`` (normalized ``(min, max)`` pairs, sorted).
    ``spec`` is the source spec string, kept for reporting."""

    time: float
    kind: str  # "fail" | "recover"
    links: Tuple[Link, ...]
    spec: str


def _normalize(u: int, v: int) -> Link:
    return (u, v) if u < v else (v, u)


class _Entry:
    """A parsed spec instance awaiting topology binding."""

    __slots__ = ("time", "kind", "target", "spec")

    def __init__(self, time: float, kind: str, target, spec: str):
        self.time = time
        self.kind = kind  # "fail" | "recover" | "drip"
        self.target = target  # Link | ("router", rid) | ("drip", index)
        self.spec = spec


class FaultSchedule:
    """An ordered collection of fault specs (see module docstring).

    Construction parses and syntax-checks every spec; ``expand`` binds
    them to a topology and returns the concrete event timeline.
    """

    def __init__(self, specs: Iterable[str]):
        self.specs: Tuple[str, ...] = tuple(specs)
        self._entries: List[_Entry] = []
        self._drip_params: List[Tuple[float, int, float, int]] = []
        for spec in self.specs:
            self._parse(spec)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultSchedule({list(self.specs)!r})"

    # -- parsing -------------------------------------------------------------

    def _parse(self, spec: str) -> None:
        if not isinstance(spec, str):
            raise ValueError(f"fault spec must be a string, got {spec!r}")
        head, sep, body = spec.partition("@")
        if not sep or head not in ("fail", "recover", "drip"):
            raise ValueError(
                f"bad fault spec {spec!r}: expected "
                "'fail@T:...', 'recover@T:...' or 'drip@T:...'")
        time_s, sep, rest = body.partition(":")
        try:
            time = float(time_s)
        except ValueError:
            raise ValueError(f"bad fault spec {spec!r}: non-numeric time "
                             f"{time_s!r}") from None
        if not sep or time < 0:
            raise ValueError(f"bad fault spec {spec!r}: missing target or "
                             "negative time")
        if head == "drip":
            self._parse_drip(spec, time, rest)
            return
        if rest.startswith("r"):
            try:
                rid = int(rest[1:])
            except ValueError:
                raise ValueError(f"bad fault spec {spec!r}: router target "
                                 f"must be 'r<int>', got {rest!r}") from None
            self._entries.append(_Entry(time, head, ("router", rid), spec))
            return
        u_s, sep, v_s = rest.partition("-")
        try:
            u, v = int(u_s), int(v_s)
        except ValueError:
            raise ValueError(f"bad fault spec {spec!r}: link target must be "
                             f"'U-V' or 'r<R>', got {rest!r}") from None
        if u == v:
            raise ValueError(f"bad fault spec {spec!r}: self-link {u}-{v}")
        self._entries.append(_Entry(time, head, _normalize(u, v), spec))

    def _parse_drip(self, spec: str, time: float, rest: str) -> None:
        n = every = seed = None
        for part in rest.split(","):
            key, sep, val = part.partition("=")
            if not sep:
                raise ValueError(f"bad fault spec {spec!r}: drip parameter "
                                 f"{part!r} is not key=value")
            try:
                if key == "n":
                    n = int(val)
                elif key == "every":
                    every = float(val)
                elif key == "seed":
                    seed = int(val)
                else:
                    raise ValueError
            except ValueError:
                raise ValueError(f"bad fault spec {spec!r}: unknown or "
                                 f"malformed drip parameter {part!r}") from None
        if n is None or n < 1 or every is None or every <= 0:
            raise ValueError(f"bad fault spec {spec!r}: drip needs n>=1 and "
                             "every>0")
        drip_idx = len(self._drip_params)
        self._drip_params.append((time, n, every, 0 if seed is None else seed))
        for k in range(n):
            self._entries.append(
                _Entry(time + k * every, "drip", ("drip", drip_idx), spec))

    # -- expansion -----------------------------------------------------------

    def expand(self, topology) -> Tuple[FaultEvent, ...]:
        """Bind the schedule to ``topology``, resolving router and drip
        targets into concrete link sets and validating the timeline.

        Raises ``ValueError`` on semantic errors: unknown links,
        double-fails, recovery of live links, or a drip that cannot
        fail a link without partitioning the live router graph.
        """
        ordered = sorted(enumerate(self._entries), key=lambda e: (e[1].time, e[0]))
        rngs = [random.Random(seed) for (_, _, _, seed) in self._drip_params]
        failed: set = set()
        events: List[FaultEvent] = []
        for _, entry in ordered:
            kind, links = self._resolve(entry, topology, failed, rngs)
            if kind == "fail":
                failed.update(links)
            else:
                failed.difference_update(links)
            events.append(FaultEvent(entry.time, kind, links, entry.spec))
        return tuple(events)

    def _resolve(self, entry: _Entry, topology, failed: set,
                 rngs: Sequence[random.Random]) -> Tuple[str, Tuple[Link, ...]]:
        spec = entry.spec
        if entry.kind == "drip":
            link = self._pick_drip_link(topology, failed,
                                        rngs[entry.target[1]], spec)
            return "fail", (link,)
        if isinstance(entry.target, tuple) and entry.target[0] == "router":
            rid = entry.target[1]
            if not 0 <= rid < topology.num_routers:
                raise ValueError(f"fault spec {spec!r}: router {rid} does not "
                                 f"exist (0..{topology.num_routers - 1})")
            incident = [_normalize(rid, nbr) for nbr in topology.neighbors(rid)]
            if entry.kind == "fail":
                links = tuple(sorted(l for l in incident if l not in failed))
                if not links:
                    raise ValueError(f"fault spec {spec!r}: router {rid} has "
                                     "no live links left to fail")
            else:
                links = tuple(sorted(l for l in incident if l in failed))
                if not links:
                    raise ValueError(f"fault spec {spec!r}: router {rid} has "
                                     "no failed links to recover")
            return entry.kind, links
        link = entry.target
        if not topology.is_edge(*link):
            raise ValueError(f"fault spec {spec!r}: {link[0]}-{link[1]} is "
                             "not a link of this topology")
        if entry.kind == "fail" and link in failed:
            raise ValueError(f"fault spec {spec!r}: link {link[0]}-{link[1]} "
                             "is already failed at that time")
        if entry.kind == "recover" and link not in failed:
            raise ValueError(f"fault spec {spec!r}: link {link[0]}-{link[1]} "
                             "is not failed at that time")
        return entry.kind, (link,)

    def _pick_drip_link(self, topology, failed: set, rng: random.Random,
                        spec: str) -> Link:
        live = [l for l in (_normalize(*e) for e in topology.edges())
                if l not in failed]
        order = list(range(len(live)))
        rng.shuffle(order)
        for i in order:
            candidate = live[i]
            if _connected_without(topology, failed, candidate):
                return candidate
        raise ValueError(f"fault spec {spec!r}: no live link can fail "
                         "without partitioning the router graph")


def _connected_without(topology, failed: set, candidate: Link) -> bool:
    """True if the live router graph stays connected after removing
    ``candidate`` (BFS from router 0 over live edges)."""
    num = topology.num_routers
    seen = [False] * num
    seen[0] = True
    frontier = [0]
    count = 1
    while frontier:
        nxt = []
        for u in frontier:
            for v in topology.neighbors(u):
                if seen[v]:
                    continue
                link = _normalize(u, v)
                if link in failed or link == candidate:
                    continue
                seen[v] = True
                count += 1
                nxt.append(v)
        frontier = nxt
    return count == num
