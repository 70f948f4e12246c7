"""Array-resident state engine: flat numpy arrays ARE the simulation.

Earlier revisions of this module kept numpy *mirrors* of the object
graph and funnelled every grant back through ``commit_move``.  That
caps the speedup at the cost of phase B -- per-move Python work that
dominates once phase A is cheap.  This engine inverts the ownership
instead:

* The flat arrays below are the **primary state**.  Buffer contents,
  wormhole switching tables, VC allocation, round-robin pointers and
  credit/occupancy status all live here; phase B commits write the
  same arrays in place.
* The ``Network``/``Router``/``FlitBuffer`` object graph becomes a
  lazily-materialised **inspection view**.  While the engine is
  attached (``net.state_owner is engine``), object state is stale;
  :meth:`ArrayBackend.materialize` rebuilds it on demand, and the
  network's ``state_snapshot`` / ``buffer_occupancy`` entry points do
  so automatically, which is what keeps the differential harness and
  every debug dump working unmodified.

State layout
------------
Flits are packed into one ``int64``: ``(aid << 20) | tail_bit | fid``
where ``aid`` indexes the packet columns -- growable ``int64`` arrays
for what a cycle reads (``_pdst``, ``_ptraf``, ``_psize``, ``_pvcl``:
the dateline class, owned here while attached and synced with
``Packet.vclass`` only at the Python-route boundary and in
``materialize``; ``_phdr``: the row holding the packet's routed
header; ``_popx``: its collective op's receipt slot, below, or -1),
lists for what only deliveries read (``_pborn``, ``_pcls``), and
``_ptag`` for a tagged row's tag.
A packet may be columns only: ``_pkts[aid]`` is ``None`` for a unicast
staged as a row until :meth:`ArrayBackend._packet` builds the object
(with ``_psrc`` and its tag) for a Python route, a fault, ``on_tail`` or
an inspection -- a saturated run builds none.  Each buffer owns a
power-of-two ring slice of one flat flit array; an injected packet
joins its source queue's **pending-packet FIFO** (``_phead`` /
``_ptail``, linked through ``_pnext``; ``_pfid`` = next flit of the
head packet) and its flit words are generated as the ring has room
(``_qlen`` counts every flit, ``_ppend`` those still in packet form).
Per buffer, in flat ``(node, creation)`` order plus two sentinel rows:
occupancy status and the front flit's *request* (``want`` port,
``vcreq``, ``dlv``, ``hdrf`` = unrouted header, ``jof``, the
port*2+vc slots ``pvb``/``pvb2``).  Per port: ``rr`` (stored
unwrapped; ``(j - rr) & (F-1)`` keeps the reference scan ranking),
``owner`` and ``down`` (ejection VCs point at a never-full sink row,
unused slots at an always-full anchor row).  The scalars live in one
``ckernel.State`` record -- the struct the C kernel is handed.

Cycle structure
---------------
One cycle is fold (arrival rows that are due join their buffer's
pending FIFO; with nothing in flight the clock jumps to the next row)
-> phase A (eligibility against start-of-cycle state, the reference
round-robin winner per port, over the *ready set* of rows that may have
become unblocked; a header Python routes wakes its row, whoever else
writes rows outside the kernel sets ``State.rescan``) -> phase B
(winners commit in ascending flat-port order, the reference commit
order) -> refresh (dateline class upgrades, then every newly exposed
header routed from the packed route table).  The cycle, the rule for
when a run of cycles must stop for Python and the layout of the events
it hands back are specified and implemented once, in
``_cycle_kernel.c`` (compiled by ``repro.sim.ckernel``; a batch is one
``repro_run(&state)`` call).  No Python code repeats any of it: a host
that cannot compile the file runs the ``reference`` backend instead
(``make_backend``; ``ckernel`` warns).

:meth:`ArrayBackend._advance` executes cycles ``[now, horizon)`` in
batches: a batch runs until Python is needed, :meth:`_replay` applies
its events, the next batch starts.  One ordered list, ``_staged``,
takes what is injected: ``(buffer, packet)`` from the adapters (it is
every ``FlitBuffer.sink``) and ``(node, dst, size, cls, created)`` rows
from ``Network.send_unicast``; ``_cols`` takes a window of the
single-class mix's unicasts as ``(cycle, node, dst)`` columns.  A row's
buffer is looked up in the adapters' ``unicast_queue_table``;
:meth:`_stage` turns both into arrival rows ``(cycle, buffer, aid)`` in
push order: a window ``run_mix`` injected ahead, each staged entry
stamped with its cycle, at once with numpy; entries
without a stamp are *late* -- due at the cycle about to run, so a packet
injected at cycle *t* arbitrates at *t*, like a reference push -- and go
one by one into the consumed prefix, in front of the rows still waiting
(O(1) a packet).  Events carry their cycle: a tail that reached a PE
(``EV_DELIVERY``), an op's completion (``EV_COMPLETE``), a header only
the router can route (``EV_ROUTE``: no table row, a multicast on a row
without it, anything under a fault state).  A cycle that emitted a
ROUTE event, or a delivery that cannot wait (a tail of
``Adapter.reinjecting_tails`` -- relay segments; any tail when
``net.on_tail`` / a fault state is set), ends its batch; every other
event replays after it in emission order = (cycle, ascending port), the
reference's float-accumulation order.  A packet staged by a delivery at
cycle *t* (relay regeneration) folds at *t + 1* ahead of the pre-drawn
arrivals of *t + 1*, as the reference pushes it.

Receipts (the sim README has the contract): while the kernel counts,
each open op has a slot of ``_rtbl`` and ``collector.delivery`` is the
state struct's ``dn`` .. ``dm2``; :meth:`_sync` writes them back.

Equivalence notes (``tests/differential.py`` guards all of them):

* A packet crossing a dateline link upgrades ``vclass`` for *every*
  flit; if it also has a blocked, already-routed header elsewhere
  (torus XY-turn), that header's cached request is re-refreshed -- the
  reference loop would recompute it next scan.
* Reference ``commit_move`` can deliver one tail twice (absorb clone
  *and* ejection); the cycle emits both events independently.
* A latched-but-empty buffer receiving a body flit must *not* be
  route-refreshed; refreshes are gated on ``want == -1``.
* A cycle's Python routes run after its deliveries (a fault-aware
  route may doom the packet whose clone was just delivered).

Every port must multiplex exactly two VCs (all shipped routers do);
attaching to anything else, or without a loaded kernel, raises and
names the reference backend.
"""

from __future__ import annotations

import ctypes
from itertools import accumulate
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.noc.network import Adapter, flit_key
from repro.noc.packet import RELAY, TRAFFIC_NAMES, UNICAST, Packet
from repro.sim.backend import Probes, SimBackend
from repro.sim.ckernel import State, load_cycle_kernel

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.buffers import FlitBuffer
    from repro.noc.ports import OutPort
    from repro.traffic.mix import TrafficMix

__all__ = ["ArrayBackend"]

#: Packed-flit layout: ``(aid << FSHIFT) | (TAIL if last flit) | fid``.
FSHIFT = 20
TAIL = 1 << 19
FIDMASK = TAIL - 1

#: Largest ring slice; a deeper (source) queue keeps the rest of its
#: flits in packet form in the pending FIFO.
_RING_CAP = 4096

#: Why a batch ended (``State.stop``; the names are the ``--profile``
#: report's ``stops`` keys) and the event kinds, as in _cycle_kernel.c.
STOPS = ("horizon", "python_route", "delivery", "events_full")
STOP_EVENTS = STOPS.index("events_full")
EV_DELIVERY, EV_ROUTE, EV_DATELINE, EV_WINNER, EV_COMPLETE = range(5)
#: Most events one cycle can emit per port: a winner and a dateline
#: word (trace only), two deliveries and a completion, three routes.
EV_PER_PORT = 8
#: A receipt-table slot: created, expected, receipts, its generation
#: (``RT_GEN``), then from ``RT_ROW`` one arrival cycle per node.
RT_GEN, RT_ROW = 3, 4
#: ``State.stopkinds`` with every kind's bit set.
ALL_KINDS = (1 << len(TRAFFIC_NAMES)) - 1

#: The aid-indexed int64 columns and the arrival-row columns.
_PCOLS = ("_pdst", "_ptraf", "_psize", "_pvcl", "_phdr", "_pnext", "_popx",
          "_psrc")
_ACOLS = ("_acyc", "_abuf", "_aaid")

#: Packed-field capacities, checked once when a session is built.  A
#: delivery event is ``(aid << 16) | port`` (``_cycle_kernel.c``, read
#: back by ``_replay``), so the flat port count must fit 16 bits --
#: tighter than the 20 bits a route-table entry gives the port.  A
#: packet's last flit id must fit below ``TAIL``.
MAX_PORTS = 1 << 16
MAX_PACKET_FLITS = TAIL


def _pow2_at_least(x: int) -> int:
    return 1 << max(0, (x - 1).bit_length())


def _check_limit(field: str, count: int, limit: int) -> None:
    if count > limit:
        raise ValueError(
            f"the array engine cannot pack {field} = {count}: the field "
            f"holds at most {limit}.  Run this configuration with "
            f"--backend reference")


def check_packet_flits(sizes: Dict[str, int]) -> None:
    """Raise unless every declared packet size (``{field name: flits}``)
    fits the flit-index field of the packed flit word."""
    for field, size in sizes.items():
        _check_limit(f"{field} (flits per packet)", size, MAX_PACKET_FLITS)


class ArrayBackend(SimBackend):
    """Array-resident simulation engine (backend name ``"array"``).

    Attaching adopts the network: object state is packed into the flat
    arrays once, every buffer's ``sink`` is pointed at the staging
    list, and ``net.state_owner`` is set so ``Network.step`` /
    ``total_flits`` / snapshot entry points delegate here.  Detaching
    (or any snapshot) materialises the object view back.
    """

    name = "array"

    def __init__(self, net):
        super().__init__(net)
        for port in net.iter_ports():
            if port.vcs != 2:
                raise ValueError(
                    f"the array engine packs exactly 2 VCs per port; port "
                    f"{port.name!r} of node {port.router.node} has "
                    f"vcs={port.vcs}.  Run this network with --backend "
                    f"reference")
        if net.state_owner is not None:
            raise ValueError(
                f"network {net.name!r} is already attached to an array "
                f"engine; detach it first")
        lib = load_cycle_kernel()
        if lib is None:
            raise ValueError(
                "the array engine runs the compiled cycle kernel, which "
                "did not load on this host (see the warning).  Run with "
                "--backend reference")
        # the kernel entries (ckernel.py); the profiler times ``_ck``
        self._ck = lib.repro_run
        self._fold = lib.repro_fold
        self._refresh = lib.repro_refresh
        self._wake = lib.repro_wake
        self._build_static()
        self._adopt()

    # ------------------------------------------------------------------
    # static geometry (immutable while attached)
    # ------------------------------------------------------------------
    def _build_static(self) -> None:
        net = self.net
        bufs: List["FlitBuffer"] = net.iter_buffers()
        ports: List["OutPort"] = net.iter_ports()
        B = len(bufs)
        P = len(ports)
        _check_limit("output ports (the delivery-event port field)", P,
                     MAX_PORTS)
        self._bufs = bufs
        self._ports = ports
        self._B = B
        self._P = P
        self._SB = B             # ejection sink row (reset every cycle)
        self._XB = B + 1         # always-full anchor row
        B2 = B + 2
        self._B2 = B2
        self._PV = 2 * P
        self._bid: Dict["FlitBuffer", int] = {b: i for i, b in
                                              enumerate(bufs)}
        self._pid: Dict["OutPort", int] = {p: i for i, p in
                                           enumerate(ports)}

        # flit rings: one flat array, power-of-two slice per buffer
        caps = [b.capacity for b in bufs] + [1, 1]
        sizes = [min(_pow2_at_least(c), _RING_CAP) for c in caps]
        bases = [0, *accumulate(sizes)]
        self._rflat = np.zeros(bases.pop(), np.int64)
        self._rbase = np.array(bases, np.int64)
        self._rmask = np.array([s - 1 for s in sizes], np.int64)
        self._cap_py = caps
        self._rbase_py = bases
        self._rmask_py = [s - 1 for s in sizes]
        qcap = np.array(caps, np.int64)
        qcap[self._SB] = 1 << 60
        qcap[self._XB] = 0
        self._qcap = qcap

        # ports
        self._pnode_py = [p.router.node for p in ports]
        self._pnode = np.array(self._pnode_py, np.int64)
        self._isdl_py = [p.is_dateline for p in ports]
        self._isdl = np.array(self._isdl_py, bool)
        self._nf_py = [len(p.feeders) for p in ports]
        down = np.full(self._PV + 1, self._XB, np.int64)
        for pi, port in enumerate(ports):
            for vc in (0, 1):
                d = port.down[vc]
                down[2 * pi + vc] = self._SB if d is None else self._bid[d]
        self._down = down
        # a port pushes straight into its downstream ring, so only
        # source queues (fed by adapters) may be deeper than their slice
        _check_limit("a port-fed buffer's capacity (its ring slice)",
                     int(qcap[down[down < B]].max(initial=0)), _RING_CAP)
        self._jpos: List[Dict[int, int]] = [dict() for _ in range(B)]
        for pi, port in enumerate(ports):
            for j, fb in enumerate(port.feeders):
                self._jpos[self._bid[fb]][pi] = j
        # what a ready-set wake reaches (_cycle_kernel.c): port p's
        # feeder rows ``_fbuf[_fptr[p]:_fptr[p + 1]]``, and ``_upof[b]``,
        # the port*2+vc whose down is row b (-1: a source queue)
        self._fptr = np.array([0, *accumulate(self._nf_py)], np.int64)
        self._fbuf = np.array([self._bid[fb] for port in ports
                               for fb in port.feeders], np.int64)
        self._upof = np.full(B, -1, np.int64)
        fed = np.flatnonzero(down[:self._PV] < B)
        self._upof[down[fed]] = fed

        # destination-indexed route tables: where the router declares
        # routing a pure function of (buffer, dst), header refresh is a
        # table lookup inside the cycle.  The routers answer with numpy
        # columns over all destinations (slot in router.out_ports,
        # deliver, vclass_reset), computed arithmetically -- no
        # route_head call here; row b of one C-contiguous int64 table
        # packs them as ``(jof << 24) | (port << 4) | (bclone << 2) |
        # (vclass_reset << 1) | deliver`` (rows of untabulable buffers
        # are never read).  ``_rtflag[b]`` is 2 where row b holds for
        # every traffic class, 1 for every class but multicast (a Quarc
        # ingress: ``bclone`` is its clone-if-broadcast bit, a multicast
        # bitstring fits no column), 0 for no row.  VC selection stays
        # runtime (it reads the packet's dateline class): ``_vcmode``
        # is 0/1 for the fixed any-policy/dateline cases, 2 for
        # class-dependent ports.  The kernel indexes the table by base
        # + stride.
        pol_any = [p.vc_policy == "any" for p in ports]
        self._vcmode = np.array([0 if a else (1 if d else 2) for a, d in
                                 zip(pol_any, self._isdl_py)], np.int64)
        self._pv2of = np.array([2 * pi + 1 if a else self._PV
                                for pi, a in enumerate(pol_any)], np.int64)
        self._rtflag = np.zeros(B2, np.uint8)
        table = None
        router = None
        for b, buf in enumerate(bufs):
            if buf.router is not router:    # buffers are node-major
                router = buf.router
                pids = [self._pid[p] for p in router.out_ports]
                by_role = {}    # role -> (slot, flags, univ) | None
            if buf.role not in by_role:
                cols = router.route_table(buf)
                univ = cols is not None
                if cols is None:
                    cols = router.unicast_route_table(buf)
                if cols is not None:
                    slot, deliver, vreset, *bclone = cols
                    flags = (vreset.astype(np.int64) << 1) | deliver
                    if bclone:
                        flags |= bclone[0].astype(np.int64) << 2
                    cols = (slot, flags, univ)
                by_role[buf.role] = cols
            if by_role[buf.role] is None:
                continue
            slot, flags, univ = by_role[buf.role]
            if table is None:
                table = np.empty((B, len(slot)), np.int64)
            jp = self._jpos[b]
            # per out_ports slot: the (jof, port) half of the entry
            code = np.array([(jp.get(pi, 0) << 24) | (pi << 4)
                             for pi in pids], np.int64)
            np.bitwise_or(code[slot], flags, out=table[b])
            self._rtflag[b] = 2 if univ else 1
        self._rtab = np.zeros((1, 1), np.int64) if table is None else table

        # round-robin priority field: F a power of two >= max feeders
        # keeps ``(j - rr) & (F-1)`` order-isomorphic to the reference
        # scan from ``rr`` even with ``rr`` stored unwrapped (in [0, nf])
        self._Fm1 = max(8, _pow2_at_least(max(self._nf_py, default=1))) - 1

        # dynamic state: per buffer, per port(*2+vc); the packet columns
        # (aid-indexed: int64 arrays for what a cycle reads, lists for
        # what only deliveries read), arrival rows and event buffer
        # start small and grow geometrically
        z = lambda n=B2: np.zeros(n, np.int64)      # noqa: E731
        for name in ("qlen front rhead want vcreq jof pvb pvb2 phead "
                     "ptail pfid ppend").split():
            setattr(self, "_" + name, z())
        for name in ("_dlv", "_hdrf", "_ne", "_fullb"):
            setattr(self, name, np.zeros(B2, bool))
        self._owner = z(self._PV + 1)
        self._rr = z(P)
        self._fs = z(P)
        self._pkts: List = []
        self._pcls: List[Optional[str]] = []
        self._pborn: List[int] = []
        self._ptag: Dict[int, object] = {}
        for name in ("pdst ptraf psize pvcl phdr pnext popx psrc acyc abuf "
                     "aaid").split():
            setattr(self, "_" + name, z(1024))
        evcap = max(256, 2 * EV_PER_PORT * P)
        self._ev = z(2 * evcap)
        #: what was injected since the last fold, in push order (packets
        #: and rows: module docstring); ``_staged_at`` stamps the leading
        #: entries with their cycle (run_mix injects a window ahead), the
        #: rest are due at the next cycle to run
        self._staged: List = []
        self._staged_at: List[int] = []

        a = net.adapters
        # ``rows``: where ``Network.send_unicast`` appends; ``_qtab[node,
        # dst]`` is the row's buffer
        self.rows = self._staged
        self._qtab = np.array(
            [np.array([*(self._bid[q] for q in queues), -1])[slot]
             for queues, slot in (ad.unicast_queue_table() for ad in a)],
            np.int32)
        #: a window of unicast columns ``run_mix`` took from the mix,
        #: ``(cycle, node, dst, size)``, staged after ``_staged``
        self._cols = None
        # --profile: rows / columns staged, built anyway, entries late;
        # tails by path
        self._nrows = self._ncols = self._nbuilt = self._nlate = 0
        self._nuni = self._nrecv = 0
        self._acoll = [ad.collector for ad in a]
        # the traffic kinds whose tail ends its batch (relay segments)
        self._stopkinds = sum(1 << kind for kind in Adapter.reinjecting_tails)
        # receipts (module docstring): the collector they are taken for,
        # the table, the open ops' slots and the free ones
        from repro.core.collector import LatencyCollector
        kc = a[0].collector if a else None
        self._kcoll = (kc if type(kc) is LatencyCollector
                       and self._acoll.count(kc) == len(a) else None)
        self._rtbl = np.zeros((16, RT_ROW + net.n), np.int64)
        self._slot_of: Dict = {}
        self._slot_op: List = []
        self._free: List[int] = []

        # the ready set, a bit per row kept across entries; per-cycle
        # scratch: the round-robin pick and its ports; the dateline flit
        # words (``_outdl[:_st.ndl]``, read by the shard worker) and
        # rows to refresh of the last executed cycle
        self._rdy = np.zeros((B + 63) // 64, np.uint64)
        self._pcand = np.zeros((P + 63) // 64, np.uint64)
        self._bestpr = np.full(max(P, 1), 1 << 30, np.int64)
        for name, n in (("_bestb", P), ("_bestvc", P), ("_outdl", P),
                        ("_outrf", 2 * P)):
            setattr(self, name, z(max(n, 1)))

        # the scalars, and what every kernel entry is handed
        st = self._st = State(B=B, P=P, PV=self._PV, SB=self._SB,
                              Fm1=self._Fm1, rstride=self._rtab.shape[1],
                              N=net.n, evcap=evcap)
        for name in State.POINTERS:
            setattr(st, name, getattr(self, "_" + name).ctypes.data)
        self._stp = ctypes.addressof(st)
        if kc is not None:      # the accumulator moves into the kernel
            d = kc.delivery
            st.warmup, st.dn, st.dmean, st.dm2 = kc.warmup, d.n, d.mean, d._m2
            if d.n:
                st.dmin, st.dmax = d.min, d.max
        self._dn = st.dn

    def _grow(self, names: Tuple[str, ...], need: int, keep: int) -> None:
        """Reallocate the int64 columns ``names`` to at least ``need``
        entries (doubling), keeping the first ``keep``, and re-point
        the state struct at them."""
        size = max(need, 2 * len(getattr(self, names[0])))
        for name in names:
            new = np.zeros(size, np.int64)
            new[:keep] = getattr(self, name)[:keep]
            setattr(self, name, new)
            if name[1:] in State.POINTERS:      # _psrc is Python's alone
                setattr(self._st, name[1:], new.ctypes.data)

    @property
    def _inflight(self) -> int:
        return self._st.inflight

    @_inflight.setter
    def _inflight(self, n: int) -> None:
        self._st.inflight = n

    # ------------------------------------------------------------------
    # adoption: object graph -> arrays
    # ------------------------------------------------------------------
    def _intern(self, pkts, cols=None) -> int:
        """Append ``pkts`` (for rows: ``None``s, and ``cols`` = class,
        created, receipt slot, dst, size, traffic, vclass) to the packet
        columns; returns the first new aid.  Aids are never reused or
        reset while attached."""
        a0 = len(self._pkts)
        a1 = a0 + len(pkts)
        if a1 > len(self._pdst):
            self._grow(_PCOLS, a1, a0)
        cls, born, opx, dst, size, traf, vcl = cols or zip(*[
            (p.cls, p.created, self._slot(p.op), p.dst, p.size, p.traffic,
             p.vclass) for p in pkts])
        self._pkts.extend(pkts)
        self._pcls.extend(cls)
        self._pborn.extend(born)
        self._popx[a0:a1] = opx
        self._pdst[a0:a1] = dst
        self._ptraf[a0:a1] = traf
        self._psize[a0:a1] = size
        self._pvcl[a0:a1] = vcl
        self._phdr[a0:a1] = -1
        return a0

    def _intern_unicasts(self, node, dst, size, cls, born) -> int:
        """Intern unicasts given as columns as ``adapter.send`` would
        have, counting each generated; returns the first aid.  ``_pkts``
        holds ``None``, ``_psrc`` the source node, for :meth:`_packet`."""
        k = len(born)
        a0 = self._intern([None] * k, (cls, born, -1, dst, size, UNICAST, 0))
        self._psrc[a0:a0 + k] = node
        acoll = self._acoll
        if acoll.count(acoll[0]) == len(acoll):     # one collector
            acoll[0].note_generated(False, k)
        else:
            for v, c in enumerate(np.bincount(node).tolist()):
                if c:
                    acoll[v].note_generated(False, c)
        return a0

    def _intern_rows(self, rows):
        """Intern ``Network.send_unicast`` rows; returns each one's source
        buffer (the queue table; a destination ``send`` refuses raises
        what it would)."""
        node, dst, size, cls, born, tag = zip(*rows)
        dst = np.array(dst)
        bad = dst[(dst < 0) | (dst >= len(self._qtab))]
        if len(bad):
            raise ValueError(f"destination {bad[0]} out of range for "
                             f"N={len(self._qtab)}")
        bufs = self._qtab[node, dst]
        if (bufs < 0).any():
            raise ValueError("local address has no quadrant")
        a0 = self._intern_unicasts(node, dst, size, cls, born)
        if tag.count(None) < len(tag):
            self._ptag.update((a0 + i, t) for i, t in enumerate(tag)
                              if t is not None)
        self._nrows += len(rows)
        return bufs

    def _packet(self, aid: int) -> Packet:
        """The packet ``aid``, built on first use if staged as a row."""
        pkt = self._pkts[aid]
        if pkt is None:
            pkt = self._pkts[aid] = Packet(
                int(self._psrc[aid]), int(self._pdst[aid]),
                int(self._psize[aid]), created=self._pborn[aid])
            pkt.cls = self._pcls[aid]
            pkt.tag = self._ptag.pop(aid, None)
            self._nbuilt += 1
        return pkt

    # ------------------------------------------------------------------
    # receipts (module docstring)
    # ------------------------------------------------------------------
    def _slot(self, op) -> int:
        """``_popx`` of a packet of ``op``: its receipt slot, opened on
        the op's first packet, and the slot's generation; -1 for no op,
        a complete one, or while receipts are Python's."""
        if op is None or self._kcoll is None or op.completed_at is not None:
            return -1
        x = self._slot_of.get(op)
        tbl = self._rtbl
        if x is None:
            x = self._free.pop() if self._free else len(self._slot_op)
            if x == len(self._slot_op):
                self._slot_op.append(None)
            if x == len(tbl):
                self._rtbl = tbl = np.concatenate((tbl, np.zeros_like(tbl)))
                self._st.rtbl = tbl.ctypes.data
            tbl[x, :RT_GEN] = op.created, op.expected, len(op.deliveries)
            tbl[x, RT_ROW:] = -1
            for node, t in op.deliveries.items():
                tbl[x, RT_ROW + node] = t
            self._slot_of[op] = x
            self._slot_op[x] = op
        return int(tbl[x, RT_GEN]) << 32 | x

    def _fill(self, x: int, op) -> None:
        """``op.deliveries`` from slot ``x`` (in node order)."""
        row = self._rtbl[x, RT_ROW:].tolist()
        op.deliveries = {v: t for v, t in enumerate(row) if t >= 0}

    def _complete(self, x: int, now: int) -> None:
        """``EV_COMPLETE``: slot ``x``'s op reached its last expected
        receiver at ``now``."""
        op = self._slot_op[x]
        self._fill(x, op)
        op.completed_at = now
        del self._slot_of[op]
        self._slot_op[x] = None
        self._rtbl[x, RT_GEN] += 1
        self._free.append(x)
        self._kcoll.on_collective_complete(op, now)

    def _sync(self, ops: bool = False) -> None:
        """Write the kernel's receipts back: the per-receiver accumulator
        if it moved and, with ``ops``, every open op's ``deliveries``."""
        st, kc = self._st, self._kcoll
        if kc is not None and st.dn != self._dn:
            self._dn = st.dn
            d = kc.delivery
            d.n, d.mean, d._m2, d.min, d.max = (st.dn, st.dmean, st.dm2,
                                                st.dmin, st.dmax)
        for op, x in self._slot_of.items() if ops else ():
            self._fill(x, op)

    def _release(self) -> None:
        """Python takes every receipt from here on (a fault state, or a
        collector the engine did not adopt)."""
        self._sync(ops=True)
        self._kcoll = None
        self._popx[:] = -1
        self._slot_of.clear()

    def _adopt(self) -> None:
        """(Re)build all dynamic array state from the object graph and
        take ownership of the network."""
        for arr in (self._qlen, self._front, self._rhead, self._vcreq,
                    self._jof, self._pfid, self._ppend):
            arr[:] = 0
        for arr in (self._want, self._phead, self._ptail, self._phdr):
            arr[:] = -1
        self._pvb[:] = self._PV
        self._pvb2[:] = self._PV
        for arr in (self._dlv, self._hdrf, self._ne, self._fullb):
            arr[:] = False
        self._fullb[self._XB] = True
        self._owner[:] = -1
        self._owner[self._PV] = -2
        for pi, port in enumerate(self._ports):
            self._rr[pi] = port.rr
            self._fs[pi] = port.flits_sent
            for vc in (0, 1):
                own = port.owner[vc]
                self._owner[2 * pi + vc] = (
                    self._bid[own] if own is not None else -1)
        resident = {}
        for buf in self._bufs:
            for pkt, _ in buf.q:
                resident.setdefault(pkt.pid, pkt)
        a0 = self._intern(list(resident.values())) if resident else 0
        aid_of = {pid: a0 + i for i, pid in enumerate(resident)}
        headers: List[int] = []
        rflat = self._rflat
        inflight = 0
        for b, buf in enumerate(self._bufs):
            n = len(buf.q)
            if n:
                base = self._rbase_py[b]
                rsize = self._rmask_py[b] + 1
                for i, (pkt, fidx) in enumerate(buf.q):
                    aid = aid_of[pkt.pid]
                    if i < rsize:
                        v = (aid << FSHIFT) | fidx
                        if fidx == pkt.size - 1:
                            v |= TAIL
                        rflat[base + i] = v
                    elif i == rsize or fidx == 0:
                        # past the ring a queue holds whole packets
                        # (only its first may be cut): pending FIFO
                        if i == rsize:
                            self._phead[b] = aid
                            self._pfid[b] = fidx
                        else:
                            self._pnext[self._ptail[b]] = aid
                        self._ptail[b] = aid
                        self._pnext[aid] = -1
                self._qlen[b] = n
                self._ppend[b] = max(n - rsize, 0)
                self._ne[b] = True
                self._fullb[b] = n >= self._cap_py[b]
                self._front[b] = rflat[base]
                inflight += n
            if buf.cur_out is not None:
                p = self._pid[buf.cur_out]
                self._want[b] = p
                self._vcreq[b] = buf.cur_vc
                self._dlv[b] = buf.cur_deliver
                self._jof[b] = self._jpos[b][p]
                self._pvb[b] = 2 * p + buf.cur_vc
            elif n:
                headers.append(b)
        self._st.inflight = inflight
        self._st.nofast = self.net.fault_state is not None
        self._st.rescan = 1
        for b in headers:
            self._route(b)
        for buf in self._bufs:
            buf.sink = self._staged
        self.net.state_owner = self

    # ------------------------------------------------------------------
    # staging: what the adapters pushed -> arrival rows
    # ------------------------------------------------------------------
    def _stage(self, now: int) -> None:
        """Turn what was injected into arrival rows: a window's unicast
        columns and stamped pushes with numpy, a batch without stamps
        by :meth:`_stage_late`."""
        staged, at, cols = self._staged, self._staged_at, self._cols
        n = len(staged)
        if not at and cols is None:
            return self._stage_late(now, n)
        at.extend([now] * (n - len(at)))
        parts = [self._intern_staged(at)] if n else []
        if cols is not None:
            # after the pushes: a packet staged late at the window's first
            # cycle goes in front of that cycle's arrivals, and no two
            # arrivals of one cycle share a buffer
            parts.append(self._intern_cols(*cols))
            self._cols = None
        rows = parts[0]
        st = self._st
        pos, an = st.apos, st.an
        if len(parts) > 1 or pos < an:
            rows = [np.concatenate(col) for col in zip(
                *parts, *([getattr(self, name)[pos:an] for name in _ACOLS]
                          if pos < an else ()))]
            order = rows[0].argsort(kind="stable")
            rows = [r[order] for r in rows]
        n = len(rows[0])
        if n > len(self._acyc):
            self._grow(_ACOLS, n, 0)
        for name, row in zip(_ACOLS, rows):
            getattr(self, name)[:n] = row
        st.apos = 0
        st.an = n
        staged.clear()
        at.clear()

    def _intern_staged(self, at):
        """The staged pushes, stamped ``at``, as ``(cycle, buffer, aid)``
        columns in push order."""
        staged = self._staged
        n = len(staged)
        # rows take the first aids, packets the rest: an aid is an
        # interning order, only the arrival rows keep the push order
        rows = [e for e in staged if len(e) == 6]
        k = len(rows)
        a0 = len(self._pkts)
        abuf = self._intern_rows(rows) if k else ()
        if k < n:
            bufs, pkts = zip(*((e for e in staged if len(e) == 2) if k
                               else staged))
            self._intern(pkts)
            obuf = [self._bid[b] for b in bufs]
            abuf = np.concatenate((abuf, obuf)) if k else obuf
        aaid = np.arange(a0, a0 + n)
        if 0 < k < n:
            isrow = np.array([len(e) == 6 for e in staged])
            rank = np.where(isrow, isrow.cumsum() - 1,
                            k - 1 + (~isrow).cumsum())
            abuf, aaid = abuf[rank], aaid[rank]
        return np.asarray(at), np.asarray(abuf), aaid

    def _intern_cols(self, cyc, node, dst, size):
        """Intern a window of single-class unicasts; returns their
        ``(cycle, buffer, aid)`` columns."""
        k = len(cyc)
        a0 = self._intern_unicasts(node, dst, size, [None] * k, cyc.tolist())
        self._ncols += k
        return cyc, self._qtab[node, dst], np.arange(a0, a0 + k)

    def _stage_late(self, now: int, n: int) -> None:
        """The ``n`` staged entries are due at ``now``.  Rows still
        waiting are due at ``now`` or later and ties go to the new ones (a
        packet regenerated by a delivery at ``now - 1`` precedes the
        pre-drawn arrivals of ``now``), so they go *in front*, into the
        consumed prefix ``[apos - n, apos)``: one scalar pass, O(n)."""
        st = self._st
        pos, an = st.apos, st.an
        w = an - pos
        if not w or pos < n:    # no room in front: waiting -> [n, n + w)
            if n + w > len(self._acyc):
                self._grow(_ACOLS, n + w, an)
            for col in (self._acyc, self._abuf, self._aaid) if w else ():
                col[n:n + w] = col[pos:an]
            st.apos, st.an = pos, an = n, n + w
        aid = len(self._pkts)
        if aid + n > len(self._pdst):
            self._grow(_PCOLS, aid + n, aid)
        i = pos - n
        for e in self._staged:
            if len(e) == 2:
                pkt = e[1]
                b = self._bid[e[0]]
                dst, size, cls, born = pkt.dst, pkt.size, pkt.cls, pkt.created
                traf, vcl = pkt.traffic, pkt.vclass
                opx = self._slot(pkt.op)
            else:
                node, dst, size, cls, born, tag = e
                b = self._qtab[node, dst] if 0 <= dst < len(self._qtab) else -1
                if b < 0:       # raise what ``adapter.send`` would
                    self._intern_rows([e])
                pkt, opx = None, -1
                traf, vcl = UNICAST, 0
                self._psrc[aid] = node
                if tag is not None:
                    self._ptag[aid] = tag
                self._nrows += 1
                self._acoll[node].note_generated(False)
            self._pkts.append(pkt)
            self._pcls.append(cls)
            self._pborn.append(born)
            self._popx[aid] = opx
            self._pdst[aid] = dst
            self._ptraf[aid] = traf
            self._psize[aid] = size
            self._pvcl[aid] = vcl
            self._phdr[aid] = -1
            self._acyc[i] = now
            self._abuf[i] = b
            self._aaid[i] = aid
            aid += 1
            i += 1
        st.apos = pos - n
        self._nlate += n
        self._staged.clear()

    def _flush(self) -> None:
        """Fold what is staged as of the cycle about to run, without
        running it: the inspection entry points and the probe sampler
        see a packet a delivery just regenerated, as an object push
        would show it."""
        if self._staged:
            st = self._st
            st.now = now = self.net.cycle
            st.nofast = self.net.fault_state is not None
            self._stage(now)
            while True:     # again while a full event buffer left rows
                self._replay(self._call(self._fold))
                if st.apos == st.an or self._acyc[st.apos] > now:
                    break

    def _call(self, entry) -> List[int]:
        """Run the kernel entry ``entry`` (``_ck`` or ``_fold``) on the
        state and take the events it left.  A fold that finds a row's
        buffer without room -- a flow-control bug -- returns -1 and
        leaves the row at ``apos``."""
        st = self._st
        if entry(self._stp) == -1:
            b = int(self._abuf[st.apos])
            raise OverflowError(
                f"flit pushed into full buffer {self._bufs[b].label!r} "
                f"(capacity {self._cap_py[b]})")
        events = self._ev[:2 * st.nev].tolist() if st.nev else ()
        st.nev = 0
        return events

    # ------------------------------------------------------------------
    # header routing
    # ------------------------------------------------------------------
    def _route(self, b: int) -> None:
        """Route the header at the front of row ``b``: from the table
        (``repro_refresh``) where it answers, else :meth:`_route_one`.
        Tables are built fault-free, so under a fault state (``nofast``)
        every header routes through ``Router.route``, which applies the
        reroute/drop policy identically to the reference backend."""
        if self._refresh(self._stp, b):
            self._route_one(b)

    def _route_one(self, b: int) -> None:
        """Route the header at the front of row ``b`` through its
        router: the only path that touches objects, and what a ROUTE
        event asks for."""
        aid = int(self._front[b]) >> FSHIFT
        pkt = self._packet(aid)
        buf = self._bufs[b]
        pkt.vclass = int(self._pvcl[aid])
        port, deliver = buf.router.route(buf, pkt)
        self._pvcl[aid] = pkt.vclass
        p = self._pid[port]
        vc = int(self._vcmode[p])
        if vc == 2:
            vc = min(pkt.vclass, 1)
        self._phdr[aid] = b
        self._want[b] = p
        # .get: a fault-stuck head may want a port this lane is not
        # wired to (it then never matches that port's feeder scan, which
        # is exactly the reference backend's never-granted behaviour)
        self._jof[b] = self._jpos[b].get(p, 0)
        self._vcreq[b] = vc
        self._dlv[b] = bool(deliver)
        self._hdrf[b] = True
        self._pvb[b] = 2 * p + vc
        self._pvb2[b] = self._pv2of[p]
        self._wake(self._stp, b)

    # ------------------------------------------------------------------
    # delivery residue
    # ------------------------------------------------------------------
    def _deliver(self, node: int, aid: int, now: int) -> None:
        """A delivery event: a unicast from its columns (then its tag's
        hook); what the kernel left of a receipt it took (a relay to
        regenerate, ``on_tail``); any other through ``Network.deliver``."""
        net = self.net
        pkt = self._pkts[aid]       # None: a row, a unicast nobody read
        if pkt is not None and pkt.traffic != UNICAST:
            if self._popx[aid] >= 0:
                if pkt.traffic == RELAY:
                    net.adapters[node]._relay_next(pkt, now)
                if net.on_tail is not None:
                    net.on_tail(node, pkt, now)
                return
            before = net.deliveries     # a doomed tail is not delivered
            net.deliver(node, pkt, pkt.size - 1, now)
            self._nrecv += net.deliveries - before
            return
        fs = net.fault_state
        cb = net.on_tail
        if pkt is None and (fs is not None or cb is not None):
            pkt = self._packet(aid)
        if fs is not None and pkt.pid in fs.doomed:
            fs.on_tail_dropped(pkt, node, now)
            return
        net.deliveries += 1
        self._nuni += 1
        self._acoll[node].on_unicast_cols(self._pborn[aid], self._pcls[aid],
                                          now)
        tag = self._ptag.pop(aid, None) if pkt is None else pkt.tag
        if tag is not None:
            src = int(self._psrc[aid]) if pkt is None else pkt.src
            net.on_tagged_tail(node, src, tag, self._pborn[aid], now)
        if cb is not None:
            cb(node, pkt, now)

    # ------------------------------------------------------------------
    # event replay: everything a batch of cycles owes the Python objects
    # ------------------------------------------------------------------
    def _replay(self, events) -> None:
        """Apply a batch's events in emission order = (cycle, ascending
        port), so float accumulation order is the reference's: tail
        deliveries, op completions and, after its cycle's deliveries,
        each header only the router can route."""
        pnode = self._pnode_py
        it = iter(events)
        for key, word in zip(it, it):
            kind = key & 7
            if kind == EV_DELIVERY:
                self._deliver(pnode[word & 0xFFFF], word >> 16, key >> 3)
            elif kind == EV_COMPLETE:
                self._complete(word, key >> 3)
            elif kind == EV_ROUTE:
                self._route_one(word)

    # ------------------------------------------------------------------
    # SimBackend interface
    # ------------------------------------------------------------------
    def _advance(self, now: int, horizon: int) -> int:
        """Execute cycles ``[now, horizon)``: batches of the C kernel,
        each followed by the replay of its events.  The one place a
        cycle is executed from."""
        net = self.net
        st = self._st
        fs = net.fault_state
        kc = self._kcoll
        if kc is not None and (fs is not None or self._acoll.count(kc)
                               != len(self._acoll)):
            self._release()
        if self._staged or self._cols is not None:
            self._stage(now)
        st.nofast = fs is not None
        st.stopkinds = (self._stopkinds if fs is None and net.on_tail is None
                        else ALL_KINDS)
        st.horizon = horizon
        st.ndl = 0      # no cycle may run: the shard worker reads this
        while now < horizon:
            st.now = now
            events = self._call(self._ck)
            now = st.now
            net.flits_moved += st.moved
            net.deliveries += st.counted
            if fs is not None:
                fs.ejected_flits += st.ejected
            if events:
                self._replay(events)
            if st.stop == STOP_EVENTS:
                self._grow(("_ev",), 0, 0)
                st.evcap = len(self._ev) // 2
            if self._staged and now < horizon:
                self._stage(now)    # regenerated by a delivery: due next
        self._sync()
        net.cycle = horizon
        return horizon

    def step(self, now: Optional[int] = None) -> int:
        net = self.net
        if now is None or now < net.cycle:
            now = net.cycle
        before = net.flits_moved
        self._advance(now, now + 1)
        return net.flits_moved - before

    def total_flits(self) -> int:
        st = self._st
        n = st.inflight + sum(e[2] if len(e) == 6 else e[1].size
                              for e in self._staged)
        if st.apos < st.an:
            n += int(self._psize[self._aaid[st.apos:st.an]].sum())
        return n

    def run_mix(self, mix: "TrafficMix", cycles: int,
                probes: Optional[Probes] = None) -> None:
        """The windowed ``run_mix``: read the mix's draw a block at a
        time, inject a whole window ``[t, w1)`` ahead -- a single-class
        mix's columns by :meth:`_take`, calendar tokens by
        ``mix.inject``, each staged entry stamped with its cycle -- and
        :meth:`_advance` through it; ``w1`` ends the block or follows
        the next probe cycle, whichever is first.

        Injecting ahead is exact: every class / destination stream is
        per node and drawn in arrival order either way, the generation
        counters are only read at probe cycles and at the end, and
        fault events are probes too.  Idle gaps cost nothing: with
        nothing in flight the cycle body jumps to the next arrival.
        """
        if mix.reactive:
            # closed-loop mixes need per-cycle generation so delivery
            # feedback reaches the sources before the next generate;
            # step() stays the array/kernel engine, at horizon 1
            SimBackend.run_mix(self, mix, cycles, probes)
            self._sync(ops=True)
            return
        probes = probes or {}
        inject, tokens, cal = mix.inject, mix.tokens, mix.calendar
        staged, at = self._staged, self._staged_at
        t = self.net.cycle
        end = t + cycles
        due = sorted(p for p in probes if t <= p < end)
        due.append(end)
        pi = 0
        while t < end:
            if t >= mix.cal_end:
                mix.fill_calendar(t)
            c1 = min(mix.cal_end, end)
            arrivals = () if mix.block is not None else sorted(cal)
            ai = 0
            while t < c1:
                w1 = min(c1, due[pi] + 1)
                at.extend([t] * (len(staged) - len(at)))
                if mix.block is not None:
                    self._take(mix, w1)
                while ai < len(arrivals) and arrivals[ai] < w1:
                    c = arrivals[ai]
                    ai += 1
                    for i in cal.pop(c):
                        inject(tokens[i], c)
                    at.extend([c] * (len(staged) - len(at)))
                t = self._advance(t, w1)
                if due[pi] == t - 1:
                    probes[due[pi]](t - 1)
                    pi += 1
        self._sync(ops=True)

    def _take(self, mix: "TrafficMix", w1: int) -> None:
        """Inject the mix's column rows before ``w1``: broadcasts through
        ``mix.emit``, unicasts as one window of columns for
        :meth:`_stage`.  A fault state (dead sources, unreachable
        destinations) or an ``on_inject`` tap takes every row through
        ``mix.emit`` instead."""
        cyc, node, dst = mix.take(w1)
        staged, at, emit = self._staged, self._staged_at, mix.emit
        if self.net.fault_state is not None or mix.on_inject is not None:
            bc = np.ones(len(cyc), bool)
        else:
            bc = dst < 0
        for c, v, d in zip(cyc[bc].tolist(), node[bc].tolist(),
                           dst[bc].tolist()):
            emit(v, d, c)
            at.extend([c] * (len(staged) - len(at)))
        uni = ~bc
        if uni.any():
            self._cols = (cyc[uni], node[uni], dst[uni], mix.msg_len)
            mix.generated_unicasts += len(self._cols[0])

    # ------------------------------------------------------------------
    # inspection view: arrays -> object graph
    # ------------------------------------------------------------------
    def materialize(self) -> None:
        """Rebuild the object graph (buffer deques, switching tables,
        port state, router flit counts, ``Packet.vclass``) from the
        arrays.  Read-only on array state; the arrays stay
        authoritative."""
        if self.net.state_owner is not self:
            return
        self._flush()
        self._sync(ops=True)
        packet, rflat = self._packet, self._rflat
        for b, buf in enumerate(self._bufs):
            q = buf.q
            q.clear()
            n = int(self._qlen[b])
            if n:
                base = self._rbase_py[b]
                maskb = self._rmask_py[b]
                rh = int(self._rhead[b])
                last = -1
                for i in range(n - int(self._ppend[b])):
                    v = int(rflat[base + ((rh + i) & maskb)])
                    aid = v >> FSHIFT
                    if aid != last:
                        last = aid
                        pkt = packet(aid)
                        pkt.vclass = int(self._pvcl[aid])
                    q.append((pkt, v & FIDMASK))
                aid = int(self._phead[b])
                fid = int(self._pfid[b])
                while aid >= 0:     # the flits still in packet form
                    pkt = packet(aid)
                    q.extend((pkt, i) for i in range(fid, pkt.size))
                    aid = int(self._pnext[aid])
                    fid = 0
            w = int(self._want[b])
            if w >= 0 and not self._hdrf[b]:
                buf.cur_out = self._ports[w]
                buf.cur_vc = int(self._vcreq[b])
                buf.cur_deliver = bool(self._dlv[b])
                buf.cur_pkt = q[0][0] if q else None
            else:
                buf.cur_out = None
                buf.cur_vc = 0
                buf.cur_deliver = False
                buf.cur_pkt = None
        # A latched-but-momentarily-empty buffer cannot name its packet
        # from its own queue; the worm's remaining flits sit upstream.
        # Each such buffer is fed by exactly one streaming predecessor
        # (its latch would have been cleared before another packet could
        # latch through), so propagating ``cur_pkt`` down the latched
        # chains resolves them all -- every chain is anchored upstream
        # by the buffer still holding the tail flit.
        unresolved = [buf for buf in self._bufs
                      if buf.cur_out is not None and buf.cur_pkt is None]
        while unresolved:
            progress = False
            for buf in self._bufs:
                pkt = buf.cur_pkt
                if pkt is None or buf.cur_out is None:
                    continue
                d = buf.cur_out.down[buf.cur_vc]
                if (d is not None and d.cur_out is not None
                        and d.cur_pkt is None):
                    d.cur_pkt = pkt
                    progress = True
            if not progress:
                break
            unresolved = [b for b in unresolved if b.cur_pkt is None]
        for r in self.net.routers:
            r.flits = sum(len(bb.q) for bb in r.in_bufs)
        owner = self._owner
        for pi, port in enumerate(self._ports):
            for vc in (0, 1):
                o = int(owner[2 * pi + vc])
                port.owner[vc] = self._bufs[o] if o >= 0 else None
            nf = self._nf_py[pi]
            port.rr = int(self._rr[pi]) % nf if nf else 0
            port.flits_sent = int(self._fs[pi])

    def state_digest(self) -> Tuple[list, list]:
        """What :meth:`materialize` would put in every buffer and port
        (buffer / port order), at O(1) each and without building it: a
        buffer row is (queue length, front ``flit_key``, ``cur_out``
        name, ``cur_vc``, ``cur_deliver``), a port row (``rr``, owner
        labels, ``flits_sent``) -- the lockstep harness's per-cycle
        comparison (``tests/differential.py``)."""
        self._flush()
        qlen, front, want, hdrf, vcreq, dlv, owner, rr, fs = (
            a.tolist() for a in (self._qlen, self._front, self._want,
                                 self._hdrf, self._vcreq, self._dlv,
                                 self._owner, self._rr, self._fs))
        bufs = []
        for b in range(self._B):
            v = front[b]
            key = (flit_key(self._packet(v >> FSHIFT), v & FIDMASK)
                   if qlen[b] else None)
            latch = ((self._ports[want[b]].name, vcreq[b], bool(dlv[b]))
                     if want[b] >= 0 and not hdrf[b] else (None, 0, False))
            bufs.append((qlen[b], key, *latch))
        ports = [(rr[pi] % nf if nf else 0,
                  [self._bufs[o].label if o >= 0 else None
                   for o in owner[2 * pi:2 * pi + 2]], fs[pi])
                 for pi, nf in enumerate(self._nf_py)]
        return bufs, ports

    def detach(self) -> None:
        """Materialise the object view and hand state ownership back."""
        if self.net.state_owner is not self:
            return
        self.materialize()
        for buf in self._bufs:
            buf.sink = None
        self.net.state_owner = None

    def resync(self) -> None:
        """Escape hatch for external object-graph edits: call
        :meth:`materialize`, mutate the objects, then ``resync()`` to
        re-adopt them as the array state.  (Packets injected in between
        simply stay staged: they fold behind the re-packed queues.)"""
        self._adopt()

    # ------------------------------------------------------------------
    # fault events (repro.faults)
    # ------------------------------------------------------------------
    def apply_faults(self, fs, events) -> None:
        """Apply fault events to array-resident state: land the kill +
        purge on the materialised object graph, mirror every dead port
        into the credit rows (both VC slots point at the always-full
        anchor column, so the cycle can never grant it a move), then
        re-adopt.  Re-adoption also re-routes every
        cached header through the fault-aware dispatcher, matching the
        reference backend's per-cycle re-evaluation."""
        self.materialize()
        fs.apply(self.net, events)
        down = self._down
        for port in fs.dead_ports:
            pi = self._pid.get(port)
            if pi is not None:
                down[2 * pi] = self._XB
                down[2 * pi + 1] = self._XB
        self.resync()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ArrayBackend net={self.net.name!r} "
                f"inflight={self._inflight}>")
