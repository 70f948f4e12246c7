"""Deterministic fault injection: plans, live fault state, rerouting
and drop accounting.

The paper's networks are perfect and regular; any chip-scale
interconnect must survive link and router failures.  This module adds a
*deterministic* fault model on top of the unmodified cycle semantics:

* :class:`FaultPlan` -- a parsed fault schedule.  The plan grammar is a
  ``;``-separated list of clauses, each ``kind:params@cycle=T``:

  ===================================  ====================================
  clause                               effect at cycle ``T``
  ===================================  ====================================
  ``link:src=3,dst=4@cycle=200``       the directed link(s) 3 -> 4 go down
  ``links:down=3@cycle=200``           3 seeded-random links go down
  ``router:node=5@cycle=0``            router 5 (and all its links) dies
  ``routers:down=2@cycle=400``         2 seeded-random routers die
  ===================================  ====================================

  Random picks are resolved against the concrete network at install
  time under the reserved ``fault:`` RNG namespace: candidate labels
  are key-sorted by ``derive_seed(derive_seed(root_seed,
  "fault:{i}:{kind}"), label)`` and the ``K`` smallest keys win --
  a pure function of ``(root seed, clause index, topology)``, with no
  dependence on ``random.Random`` shuffle internals.

* :class:`FaultState` -- the per-network live state every backend
  consults: dead nodes/ports, the live-graph distance table, the doomed
  packet set, and the conservation counters.  Both backends
  (reference, array + C kernel) share this object through
  two seams -- ``OutPort.dead`` (a dead port never grants; the array
  engine mirrors it by pointing the port's credit rows at its
  always-full anchor column) and ``Router.route`` (the fault-aware
  routing dispatcher) -- so degraded-mode behaviour is byte-identical
  across backends by construction.

Rerouting vs drop policy
------------------------
For unicast (and Spidergon relay) headers the fault-aware route is:

1. destination dead or unreachable in the live graph -> **drop**;
2. the topology's own route usable (port alive, downstream node can
   still reach the destination) -> take it (zero behaviour change on
   the fault-free prefix of a run);
3. otherwise **detour**: the first alive non-ejection port fed by this
   lane whose downstream node is *strictly closer* to the destination
   in the live graph (strict decrease rules out livelock);
4. otherwise **drop**.

Collective branches (broadcast/multicast) never detour -- the branch
semantics encode the path -- so a dead base port drops the branch.

Dropping steers the worm into the lane's ejection port with the packet
id recorded in ``doomed``; the delivery path then counts the tail as
dropped instead of delivered.  A lane with no live ejection feeder
(local injection queues) cannot drop, so its doomed head is left stuck
-- it shows up as ``in_flight``, and flit conservation
(``injected == ejected + purged + in_flight``) still holds exactly.

Accounting contract
-------------------
``injected_flits`` counts every flit entering a network queue
(including Spidergon relay regeneration); ``ejected_flits`` every flit
leaving through an ejection port (delivered or dropped);
``purged_flits`` every flit removed when a router or a link dies
(packets with a flit -- or a latched wormhole -- in a dead router, and
worms latched on a dead port, are purged network-wide).  Message drops
are counted once per packet (unicast) or once per collective operation,
with at-source drops split out; messages whose source node is dead are
*suppressed*, never generated.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.noc.packet import RELAY, UNICAST
from repro.sim.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.buffers import FlitBuffer
    from repro.noc.network import Network
    from repro.noc.packet import CollectiveOp, Packet
    from repro.noc.ports import OutPort
    from repro.noc.router import Router

__all__ = ["FaultClause", "FaultPlan", "FaultState", "UNREACHABLE"]

#: live-graph distance sentinel: no path in the surviving topology
UNREACHABLE = 1 << 30

#: clause kind -> required parameter names (also the label order)
_KINDS = {
    "link": ("src", "dst"),
    "links": ("down",),
    "router": ("node",),
    "routers": ("down",),
}


class FaultClause:
    """One parsed plan clause: ``kind:params@cycle=T``."""

    __slots__ = ("kind", "cycle", "params")

    def __init__(self, kind: str, cycle: int,
                 params: Tuple[Tuple[str, int], ...]):
        self.kind = kind
        self.cycle = cycle
        self.params = params

    def param(self, name: str) -> int:
        return dict(self.params)[name]

    def label(self) -> str:
        body = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}:{body}@cycle={self.cycle}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultClause {self.label()}>"


class FaultPlan:
    """A validated fault schedule (grammar in the module docstring).

    Parsing is purely syntactic -- node/link existence is checked when
    the plan is resolved against a concrete network
    (:meth:`FaultState` construction), so a plan string can live in a
    topology-agnostic :class:`~repro.traffic.workload.WorkloadSpec`.
    """

    __slots__ = ("clauses",)

    def __init__(self, clauses: Tuple[FaultClause, ...]):
        if not clauses:
            raise ValueError("a fault plan needs at least one clause")
        self.clauses = tuple(clauses)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        clauses = []
        for raw in text.split(";"):
            raw = raw.strip()
            if not raw:
                continue
            body, sep, tail = raw.rpartition("@")
            if not sep or not tail.startswith("cycle="):
                raise ValueError(
                    f"fault clause {raw!r}: expected '...@cycle=T'")
            cycle = cls._int(raw, "cycle", tail[len("cycle="):])
            kind, sep, params_text = body.partition(":")
            if not sep or kind not in _KINDS:
                raise ValueError(
                    f"fault clause {raw!r}: unknown kind {kind!r} "
                    f"(expected one of {sorted(_KINDS)})")
            got = {}
            for item in params_text.split(","):
                key, sep, val = item.partition("=")
                if not sep or key in got:
                    raise ValueError(
                        f"fault clause {raw!r}: bad parameter {item!r}")
                got[key] = cls._int(raw, key, val)
            required = _KINDS[kind]
            if set(got) != set(required):
                raise ValueError(
                    f"fault clause {raw!r}: {kind!r} takes exactly "
                    f"{required}")
            if "down" in got and got["down"] < 1:
                raise ValueError(
                    f"fault clause {raw!r}: down must be >= 1")
            clauses.append(FaultClause(
                kind, cycle, tuple((k, got[k]) for k in required)))
        if not clauses:
            raise ValueError(f"empty fault plan {text!r}")
        return cls(tuple(clauses))

    @staticmethod
    def _int(clause: str, name: str, val: str) -> int:
        try:
            out = int(val)
        except ValueError:
            raise ValueError(
                f"fault clause {clause!r}: {name} must be an integer "
                f"(got {val!r})") from None
        if out < 0:
            raise ValueError(
                f"fault clause {clause!r}: {name} must be >= 0")
        return out

    def label(self) -> str:
        """Canonical plan text (parses back to an equal plan)."""
        return ";".join(c.label() for c in self.clauses)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultPlan {self.label()!r}>"


class FaultState:
    """Live fault state for one network, shared by every backend.

    Construction resolves the plan's clauses against the concrete
    network (random picks via the ``fault:`` RNG namespace) into a
    schedule of concrete events; :meth:`install` hooks the state into
    the network's routing seam.  Backends apply due events through
    :meth:`repro.sim.backend.SimBackend.apply_faults`, which funnels
    into :meth:`apply` here (the array engine wraps it in a
    materialize/resync pair and re-points its credit rows).
    """

    def __init__(self, plan: FaultPlan, net: "Network", root_seed: int):
        self.plan = plan
        self.net = net
        net.objects("fault event")      # faults act on the object graph
        self.root_seed = root_seed
        self.dead_nodes: Set[int] = set()
        #: dead output ports in kill order (ejection ports included
        #: when their router died)
        self.dead_ports: List["OutPort"] = []
        self._dead_port_ids: Set[int] = set()
        #: pids of packets that will be dropped, not delivered
        self.doomed: Set[int] = set()
        #: pids whose drop has been counted (a packet can hit both the
        #: tail-drop and the purge path; it is one dropped message)
        self._counted_drops: Set[int] = set()
        #: applied event records (JSON-ready), in application order
        self.applied: List[Dict[str, object]] = []
        # flit-conservation counters
        self.injected_flits = 0
        self.ejected_flits = 0
        self.purged_flits = 0
        # message-level accounting
        self.dropped_unicasts = 0
        self.dropped_collectives = 0
        self.dropped_at_source = 0
        self.dropped_tails = 0
        self.suppressed_msgs = 0
        self._events = self._resolve(plan, net, root_seed)
        self.dist: List[List[int]] = []
        self._recompute_dist()

    # ------------------------------------------------------------------
    # plan resolution (install time, before any event applies)
    # ------------------------------------------------------------------
    @staticmethod
    def _port_label(port: "OutPort") -> str:
        return f"{port.router.node}.{port.name}"

    def _resolve(self, plan: FaultPlan, net: "Network",
                 root_seed: int) -> List[Dict[str, object]]:
        n = net.n
        taken_ports: Set[str] = set()
        taken_nodes: Set[int] = set()

        def check_node(clause: FaultClause, value: int) -> int:
            if value >= n:
                raise ValueError(
                    f"fault clause {clause.label()!r}: node {value} out "
                    f"of range for n={n}")
            return value

        def take_node(node: int) -> None:
            taken_nodes.add(node)
            for p in net.iter_ports():
                if p.router.node == node or any(
                        d is not None and d.router is not None
                        and d.router.node == node for d in p.down):
                    taken_ports.add(self._port_label(p))

        events: List[Dict[str, object]] = []
        for i, cl in enumerate(plan.clauses):
            ports: List["OutPort"] = []
            nodes: List[int] = []
            if cl.kind == "link":
                src = check_node(cl, cl.param("src"))
                dst = check_node(cl, cl.param("dst"))
                ports = [p for p in net.routers[src].out_ports
                         if not p.is_ejection and any(
                             d is not None and d.router is not None
                             and d.router.node == dst for d in p.down)]
                if not ports:
                    raise ValueError(
                        f"fault clause {cl.label()!r}: no link "
                        f"{src}->{dst} in {net.name!r}")
            elif cl.kind == "links":
                k = cl.param("down")
                cands = [(self._port_label(p), p)
                         for p in net.iter_ports()
                         if not p.is_ejection
                         and self._port_label(p) not in taken_ports]
                if k > len(cands):
                    raise ValueError(
                        f"fault clause {cl.label()!r}: asks for {k} "
                        f"links, only {len(cands)} remain")
                skey = derive_seed(root_seed, f"fault:{i}:links")
                cands.sort(key=lambda lp: (derive_seed(skey, lp[0]),
                                           lp[0]))
                ports = [p for _, p in cands[:k]]
            elif cl.kind == "router":
                nodes = [check_node(cl, cl.param("node"))]
            else:  # routers
                k = cl.param("down")
                cands2 = [v for v in range(n) if v not in taken_nodes]
                if k > len(cands2):
                    raise ValueError(
                        f"fault clause {cl.label()!r}: asks for {k} "
                        f"routers, only {len(cands2)} remain")
                skey = derive_seed(root_seed, f"fault:{i}:routers")
                cands2.sort(key=lambda v: (derive_seed(skey, f"node{v}"),
                                           v))
                nodes = sorted(cands2[:k])
            for p in ports:
                taken_ports.add(self._port_label(p))
            for v in nodes:
                take_node(v)
            targets = ([self._port_label(p) for p in ports]
                       + [f"node{v}" for v in nodes])
            events.append({"cycle": cl.cycle, "kind": cl.kind,
                           "label": cl.label(), "ports": ports,
                           "nodes": nodes, "targets": targets})
        events.sort(key=lambda ev: ev["cycle"])  # stable: clause order
        return events

    def events_by_cycle(self) -> Dict[int, List[Dict[str, object]]]:
        """Resolved events grouped by effect cycle (ascending keys)."""
        out: Dict[int, List[Dict[str, object]]] = {}
        for ev in self._events:
            out.setdefault(int(ev["cycle"]), []).append(ev)
        return out

    # ------------------------------------------------------------------
    # installation + event application
    # ------------------------------------------------------------------
    def install(self, net: "Network") -> None:
        """Hook this state into the network's routing seam."""
        net.fault_state = self
        for r in net.routers:
            r.fstate = self

    def apply(self, net: "Network",
              events: List[Dict[str, object]]) -> None:
        """Kill the links/routers of ``events`` (object-graph form), and
        purge every packet with a flit in a newly dead router or a worm
        latched on a newly dead port: a cut worm never moves again, and
        the VCs it holds upstream would wedge every packet behind it.

        Array engines call this between a ``materialize`` / ``resync``
        pair so the purge and the routing changes land on the canonical
        object state, then mirror the dead ports into their arrays.
        """
        new_nodes: List[int] = []
        first_new_port = len(self.dead_ports)
        for ev in events:
            for node in ev["nodes"]:
                if node in self.dead_nodes:
                    continue
                self.dead_nodes.add(node)
                new_nodes.append(node)
                for p in net.routers[node].out_ports:
                    self._kill_port(p)
                for p in net.iter_ports():
                    if any(d is not None and d.router is not None
                           and d.router.node == node for d in p.down):
                        self._kill_port(p)
            for p in ev["ports"]:
                self._kill_port(p)
            self.applied.append({"cycle": ev["cycle"],
                                 "kind": ev["kind"],
                                 "targets": list(ev["targets"])})
        doomed: Dict[int, "Packet"] = {}
        for node in new_nodes:
            for b in net.routers[node].in_bufs:
                for pkt, _f in b.q:
                    doomed[pkt.pid] = pkt
                if b.cur_pkt is not None:
                    doomed[b.cur_pkt.pid] = b.cur_pkt
        cut = {id(p) for p in self.dead_ports[first_new_port:]}
        for b in net.iter_buffers():
            if b.cur_pkt is not None and id(b.cur_out) in cut:
                doomed[b.cur_pkt.pid] = b.cur_pkt
        if doomed:
            self._purge(net, doomed)
        self._recompute_dist()

    def _kill_port(self, port: "OutPort") -> None:
        if id(port) in self._dead_port_ids:
            return
        self._dead_port_ids.add(id(port))
        port.dead = True
        self.dead_ports.append(port)

    def _purge(self, net: "Network", doomed: Dict[int, "Packet"]) -> None:
        """Remove the packets of ``doomed`` (pid -> packet) from
        every buffer, network-wide, counting the flits purged; release
        the VCs they hold and count each as dropped once."""
        for b in net.iter_buffers():
            q = b.q
            if q and any(p.pid in doomed for p, _f in q):
                kept = [(p, f) for p, f in q if p.pid not in doomed]
                removed = len(q) - len(kept)
                q.clear()
                q.extend(kept)
                self.purged_flits += removed
                r = b.router
                if r is not None:
                    r.flits -= removed
            if b.cur_pkt is not None and b.cur_pkt.pid in doomed:
                port = b.cur_out
                if port is not None and port.owner[b.cur_vc] is b:
                    port.owner[b.cur_vc] = None
                b.clear_switching()
        for pid in sorted(doomed):
            self._doom(doomed[pid])
            self._count_drop(doomed[pid])

    # ------------------------------------------------------------------
    # live-graph reachability
    # ------------------------------------------------------------------
    def _recompute_dist(self) -> None:
        net = self.net
        n = net.n
        adj: List[List[int]] = [[] for _ in range(n)]
        for r in net.routers:
            if r.node in self.dead_nodes:
                continue
            for p in r.out_ports:
                if p.dead or p.is_ejection:
                    continue
                for d in p.down:
                    if d is None or d.router is None:
                        continue
                    b = d.router.node
                    if b not in self.dead_nodes and b not in adj[r.node]:
                        adj[r.node].append(b)
        dist = [[UNREACHABLE] * n for _ in range(n)]
        for s in range(n):
            if s in self.dead_nodes:
                continue
            row = dist[s]
            row[s] = 0
            frontier = [s]
            d = 0
            while frontier:
                d += 1
                nxt: List[int] = []
                for u in frontier:
                    for v in adj[u]:
                        if row[v] > d:
                            row[v] = d
                            nxt.append(v)
                frontier = nxt
        self.dist = dist

    @staticmethod
    def _next_node(port: "OutPort") -> Optional[int]:
        for d in port.down:
            if d is not None and d.router is not None:
                return d.router.node
        return None

    def node_dead(self, node: int) -> bool:
        return node in self.dead_nodes

    def src_cannot_reach(self, src: int, dst: int) -> bool:
        """True when no live path src -> dst exists (drop at source
        instead of parking the packet in an injection queue forever)."""
        return (dst in self.dead_nodes
                or src != dst and self.dist[src][dst] >= UNREACHABLE)

    # ------------------------------------------------------------------
    # fault-aware routing (Router.route dispatches here)
    # ------------------------------------------------------------------
    def route(self, router: "Router", buf: "FlitBuffer",
              pkt: "Packet") -> Tuple["OutPort", bool]:
        base_port, deliver = router.route_head(buf, pkt)
        if pkt.pid in self.doomed:
            return self._drop_route(buf, base_port, deliver, pkt,
                                    count=False)
        if pkt.traffic == UNICAST or pkt.traffic == RELAY:
            dst = pkt.dst
            node = router.node
            dist = self.dist
            if dst in self.dead_nodes or dist[node][dst] >= UNREACHABLE:
                return self._drop_route(buf, base_port, deliver, pkt,
                                        count=True)
            # a detour can leave a packet on an ingress lane the base
            # route was never meant for (e.g. DOR's Y-lanes cannot turn
            # back into X), so the base port must actually be wired to
            # this lane to be usable
            if not base_port.dead and base_port in buf.fed:
                if base_port.is_ejection:
                    return base_port, deliver
                nxt = self._next_node(base_port)
                if nxt is not None and dist[nxt][dst] < UNREACHABLE:
                    return base_port, deliver
            port = self._detour(buf, base_port, node, dst)
            if port is not None:
                return port, False
            return self._drop_route(buf, base_port, deliver, pkt,
                                    count=True)
        # collective branch: the path is encoded in the branch itself,
        # so a dead base port kills the branch -- no detours.  The one
        # exception is a source-queue ingress (no ejection feeder, so no
        # drop path either): a software-collective segment there is
        # destination-routed like a unicast, and detouring it beats
        # wedging the node's injection queue forever.
        if base_port.dead or base_port not in buf.fed:
            if not any(p.is_ejection and not p.dead for p in buf.fed):
                port = self._detour(buf, base_port, router.node, pkt.dst)
                if port is not None:
                    return port, False
            return self._drop_route(buf, base_port, deliver, pkt,
                                    count=True)
        return base_port, deliver

    def _detour(self, buf: "FlitBuffer", base_port: "OutPort", node: int,
                dst: int) -> Optional["OutPort"]:
        """The first live non-ejection port fed by ``buf``, other than
        ``base_port``, whose next node is strictly closer to ``dst`` in
        the live graph; ``None`` when ``dst`` is dead or unreachable
        from ``node``, or no fed port gets closer."""
        dist = self.dist
        here = dist[node][dst]
        if dst in self.dead_nodes or here >= UNREACHABLE:
            return None
        for port in buf.fed:
            if port.dead or port is base_port or port.is_ejection:
                continue
            nxt = self._next_node(port)
            if nxt is not None and dist[nxt][dst] < here:
                return port
        return None

    def _drop_route(self, buf: "FlitBuffer", base_port: "OutPort",
                    deliver: bool, pkt: "Packet",
                    count: bool) -> Tuple["OutPort", bool]:
        eject = None
        for port in buf.fed:
            if port.is_ejection and not port.dead:
                eject = port
                break
        if eject is None:
            # no live drop path from this lane: leave the head stuck
            # (it stays visible as in_flight) with NO side effects, so
            # repeated route calls on a blocked head stay idempotent
            return base_port, deliver
        if count:
            self._doom(pkt)
        return eject, False

    def _doom(self, pkt: "Packet") -> None:
        """Mark a packet drop-steered.  Deliberately *not* where drops
        are counted: routing is evaluated lazily by the reference loop
        but eagerly by caching backends, so doom time can differ by a
        cycle at the horizon boundary.  Counting happens at movement
        events (tail reaching a sink, purge), which are byte-identical
        across backends."""
        self.doomed.add(pkt.pid)

    def _count_drop(self, pkt: "Packet") -> None:
        if pkt.pid in self._counted_drops:
            return
        self._counted_drops.add(pkt.pid)
        op = pkt.op
        if op is not None:
            if not op.dropped:
                op.dropped = True
                self.dropped_collectives += 1
        else:
            self.dropped_unicasts += 1

    # ------------------------------------------------------------------
    # delivery-path + source-side accounting hooks
    # ------------------------------------------------------------------
    def on_tail_dropped(self, pkt: "Packet", node: int,
                        now: int) -> None:
        """A doomed packet's tail reached an ejection sink."""
        self.dropped_tails += 1
        self._count_drop(pkt)

    def source_drop_unicast(self) -> None:
        self.dropped_unicasts += 1
        self.dropped_at_source += 1

    def source_drop_branch(self, op: Optional["CollectiveOp"]) -> None:
        self.dropped_at_source += 1
        if op is not None and not op.dropped:
            op.dropped = True
            self.dropped_collectives += 1

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def dropped_msgs(self) -> int:
        return self.dropped_unicasts + self.dropped_collectives

    def extra_block(self) -> Dict[str, object]:
        """The JSON-ready ``extra["faults"]`` block for RunSummary."""
        return {
            "plan": self.plan.label(),
            "events": [dict(rec) for rec in self.applied],
            "scheduled_events": len(self._events),
            "dead_links": sum(1 for p in self.dead_ports
                              if not p.is_ejection),
            "dead_routers": sorted(self.dead_nodes),
            "injected_flits": self.injected_flits,
            "ejected_flits": self.ejected_flits,
            "purged_flits": self.purged_flits,
            "dropped_msgs": self.dropped_msgs,
            "dropped_unicasts": self.dropped_unicasts,
            "dropped_collectives": self.dropped_collectives,
            "dropped_at_source": self.dropped_at_source,
            "dropped_tails": self.dropped_tails,
            "suppressed_msgs": self.suppressed_msgs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FaultState dead_routers={sorted(self.dead_nodes)} "
                f"dead_links={len(self.dead_ports)} "
                f"doomed={len(self.doomed)}>")
