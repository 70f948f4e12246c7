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
where ``aid`` indexes the engine's packet columns (destination, size,
inject cycle, class id, traffic kind -- plus the ``Packet`` object
itself for the non-unicast delivery paths).  Each buffer owns a
power-of-two ring slice of one flat flit array; unbounded source
queues overflow into a per-buffer side deque so a broadcast storm
cannot force a giant allocation.

Per buffer (flat ``(node, creation)`` order, two sentinel rows): the
queue length / front flit / full / nonempty occupancy status, and the
front flit's *request*: ``want`` (flat output port, ``-1`` = none),
``vcreq``, ``dlv`` (clone-to-local), ``hdrf`` (front is an unrouted
header), ``jof`` (feeder position at that port) and the precomputed
flat port*2+vc slots ``pvb``/``pvb2`` the request needs.  Per port:
``rr`` (round-robin pointer, stored unwrapped; ``(j - rr) & (F-1)``
with ``F`` a power of two >= the feeder count preserves the reference
scan ranking), ``owner`` (VC allocation) and ``down`` (downstream
buffer per VC; ejection VCs point at a sink sentinel row that is never
full, the unused slot at an always-full anchor row).

Cycle structure
---------------
1. **Fold**: staged injections (adapters append to ``FlitBuffer.sink``
   instead of touching deques) enter the arrays, so a flit injected at
   cycle *t* arbitrates at cycle *t*, exactly like a reference push.
2. **Phase A**: eligibility =
   ``header ? free&credited VC exists : downstream credit`` against
   start-of-cycle state, then the reference round-robin winner per
   port.
3. **Phase B**: winners pop, update the switching tables and push, in
   ascending flat-port order -- the reference commit order.  Whatever
   needs Python objects is not done here: the cycle appends it to four
   event lists (``_ck_outw`` winners, ``_ck_outdl`` dateline-crossing
   flit words, ``_ck_outdel`` packed ``(aid, port)`` tail deliveries,
   ``_ck_outrf`` rows whose new front is an unrouted header) and
   counts them in ``_ck_counts``.
4. **Replay** (:meth:`ArrayBackend._replay`): side-deque refills,
   dateline VC-class upgrades, deliveries (collector callbacks, in
   ascending port order so float accumulation order is preserved) and
   route refreshes (batched through ``route_head``), in that order.

Phases A and B have two implementations over the same arrays and the
same event lists.  Where a C compiler is available, ``repro.sim
.ckernel`` compiles them to a shared library and ``step`` makes one
call per cycle.  ``_scalar_cycle`` / ``_commit_scalar`` -- the loop the
C file was ported from -- is the behavioural oracle behind
``REPRO_ARRAY_CKERNEL=0`` and the engine on a host with no compiler
(``ckernel`` warns when that happens; a saturated run is then ~3x
slower, still ahead of the ``reference`` backend).

Equivalence notes (the subtle ones; ``tests/differential.py`` guards
all of them):

* A packet crossing a dateline link upgrades ``vclass`` for *every*
  flit; if the packet also has a blocked, already-routed header
  elsewhere (torus XY-turn), that header's cached request is
  re-refreshed -- the reference loop would recompute it next scan.
* Reference ``commit_move`` can deliver one tail twice (absorb clone
  *and* ejection); the cycle emits both events independently.
* A latched-but-empty buffer receiving a body flit must *not* be
  route-refreshed (its front is not a header); refreshes are gated on
  ``want == -1``.
* Collector values are fed as Python ints (``int()`` casts at the
  delivery boundary), so ``RunSummary`` never leaks numpy scalars.

Every port must multiplex exactly two VCs (all shipped routers do);
attaching to anything else raises and names the reference backend.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.noc.network import flit_key
from repro.noc.packet import UNICAST
from repro.sim.backend import Probes, SimBackend
from repro.sim.ckernel import load_cycle_kernel

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.buffers import FlitBuffer
    from repro.noc.ports import OutPort
    from repro.traffic.mix import TrafficMix

__all__ = ["ArrayBackend"]

#: Packed-flit layout: ``(aid << FSHIFT) | (TAIL if last flit) | fid``.
FSHIFT = 20
TAIL = 1 << 19
FIDMASK = TAIL - 1

#: Ring slices above this size spill into a side deque instead.
_RING_CAP = 4096

#: Packed-field capacities, checked once when a session is built.  A
#: delivery event is ``(aid << 16) | port`` (``_cycle_kernel.c``,
#: ``_commit_scalar``, read back by ``_replay``), so the flat port count
#: must fit 16 bits -- tighter than the 20 bits a route-table entry
#: gives the port.  A packet's last flit id must fit below ``TAIL``.
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
        bases: List[int] = []
        off = 0
        for s in sizes:
            bases.append(off)
            off += s
        self._rflat = np.zeros(off, np.int64)
        self._rbase = np.array(bases, np.int64)
        self._rmask = np.array([s - 1 for s in sizes], np.int64)
        self._cap_py = caps
        self._rsize_py = sizes
        self._rbase_py = bases
        self._rmask_py = [s - 1 for s in sizes]
        qcap = np.array(caps, np.int64)
        qcap[self._SB] = 1 << 60
        qcap[self._XB] = 0
        self._qcap = qcap

        # ports
        self._pnode = [p.router.node for p in ports]
        self._pol_any = [p.vc_policy == "any" for p in ports]
        self._isdl_py = [p.is_dateline for p in ports]
        self._isdl = np.array(self._isdl_py, bool)
        self._nf_py = [len(p.feeders) for p in ports]
        down = np.full(self._PV + 1, self._XB, np.int64)
        for pi, port in enumerate(ports):
            for vc in (0, 1):
                d = port.down[vc]
                down[2 * pi + vc] = self._SB if d is None else self._bid[d]
        self._down = down
        self._jpos: List[Dict[int, int]] = [dict() for _ in range(B)]
        for pi, port in enumerate(ports):
            for j, fb in enumerate(port.feeders):
                self._jpos[self._bid[fb]][pi] = j

        # destination-indexed route tables: where the router declares
        # routing a pure function of (buffer, dst), header refresh is a
        # table lookup and never touches the object graph.  Entries pack
        # ``(jof << 24) | (port << 4) | (vclass_reset << 1) | deliver``;
        # ``_rtab_all`` False means the rows hold for unicast only (the
        # Quarc ingress clone decision reads the traffic class), and the
        # lookup is gated accordingly.  VC selection stays runtime (it
        # reads the packet's dateline class): ``_vcmode`` is 0/1 for the
        # fixed any-policy/dateline cases, 2 for class-dependent ports.
        self._vcmode = [0 if a else (1 if d else 2)
                        for a, d in zip(self._pol_any, self._isdl_py)]
        self._pv2_of = [2 * pi + 1 if a else self._PV
                        for pi, a in enumerate(self._pol_any)]
        # The routers answer with numpy columns over all destinations
        # (slot in router.out_ports, deliver, vclass_reset), computed
        # arithmetically -- no route_head call here.  All rows live in
        # one C-contiguous int64 table (row b for buffer b; the rows of
        # untabulable buffers are never touched); ``_rtab[b]`` is a
        # memoryview of its row, so a lookup yields a Python int like
        # the list it replaces (an ndarray row would yield numpy scalars
        # and slow every shift and mask in _route_front).
        self._rtab: List[Optional[memoryview]] = [None] * B
        self._rtab_all = [False] * B
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
                    slot, deliver, vreset = cols
                    cols = (slot, (vreset.astype(np.int64) << 1) | deliver,
                            univ)
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
            row = table[b]
            np.bitwise_or(code[slot], flags, out=row)
            self._rtab[b] = memoryview(row)
            self._rtab_all[b] = univ

        # round-robin priority field: F a power of two >= max feeders
        # keeps ``(j - rr) & (F-1)`` order-isomorphic to the reference
        # scan from ``rr`` even with ``rr`` stored unwrapped (in [0, nf])
        maxnf = max(self._nf_py, default=1)
        F = max(8, _pow2_at_least(maxnf))
        self._Fm1 = F - 1

        # dynamic state arrays
        z = lambda: np.zeros(B2, np.int64)          # noqa: E731
        zb = lambda: np.zeros(B2, bool)             # noqa: E731
        self._qlen = z()
        self._front = z()
        self._rhead = z()
        self._want = z()
        self._vcreq = z()
        self._jof = z()
        self._pvb = z()
        self._pvb2 = z()
        self._dlv = zb()
        self._hdrf = zb()
        self._ne = zb()
        self._fullb = zb()
        self._owner = np.zeros(self._PV + 1, np.int64)
        self._rr = np.zeros(P, np.int64)
        self._fs = np.zeros(P, np.int64)

        # packet columns (aid-indexed) + staging
        self._pkts: List = []
        self._aid_of: Dict[int, int] = {}
        self._ptraf: List[int] = []
        self._pcls: List[Optional[str]] = []
        self._pborn: List[int] = []
        self._pdst: List[int] = []
        self._psize: List[int] = []
        self._staged: List = []
        self._side: Dict[int, deque] = {}
        self._sideset: Set[int] = set()
        self._hdr_of: Dict[int, int] = {}
        self._tmpl: Dict[int, np.ndarray] = {}
        self._inflight = 0

        a = net.adapters
        self._uni_short = all(
            getattr(ad, "unicast_via_collector", False)
            and getattr(ad, "collector", None) is not None for ad in a)
        self._acoll = [getattr(ad, "collector", None) for ad in a]

        # event lists of the last executed cycle, written by whichever
        # tier ran it and consumed by _replay (and the shard worker).
        # counts[0..4] = moved/dateline/deliveries/refreshes/ejections;
        # counts[5..6] = C-kernel work counters for the profiler
        # (buffers scanned, eligible candidates); counts[7] spare
        self._ck_outw = np.zeros(max(P, 1), np.int64)
        self._ck_outdl = np.zeros(max(P, 1), np.int64)
        self._ck_outdel = np.zeros(max(2 * P, 1), np.int64)
        self._ck_outrf = np.zeros(max(2 * P, 1), np.int64)
        self._ck_counts = np.zeros(8, np.int64)

        # compiled cycle kernel (ckernel.py): phase A + phase B over the
        # same arrays; None leaves _scalar_cycle in charge
        self._ck = load_cycle_kernel()
        if self._ck is not None:
            self._ck_bestpr = np.full(P, 1 << 30, np.int64)
            self._ck_bestb = np.zeros(P, np.int64)
            self._ck_bestvc = np.zeros(P, np.int64)
            ptr = lambda a: a.ctypes.data          # noqa: E731
            self._ck_args = (
                self._B, P, self._PV, self._SB, self._Fm1,
                ptr(self._qlen), ptr(self._front), ptr(self._rhead),
                ptr(self._want), ptr(self._vcreq), ptr(self._jof),
                ptr(self._pvb), ptr(self._pvb2),
                ptr(self._dlv), ptr(self._hdrf), ptr(self._ne),
                ptr(self._fullb),
                ptr(self._owner), ptr(self._rr), ptr(self._fs),
                ptr(self._down), ptr(self._rbase), ptr(self._rmask),
                ptr(self._qcap), ptr(self._isdl),
                ptr(self._rflat),
                ptr(self._ck_bestpr), ptr(self._ck_bestb),
                ptr(self._ck_bestvc),
                ptr(self._ck_outw), ptr(self._ck_outdl),
                ptr(self._ck_outdel), ptr(self._ck_outrf),
                ptr(self._ck_counts))

    # ------------------------------------------------------------------
    # adoption: object graph -> arrays
    # ------------------------------------------------------------------
    def _intern(self, pkt) -> int:
        aid = self._aid_of.get(pkt.pid)
        if aid is None:
            aid = len(self._pkts)
            self._aid_of[pkt.pid] = aid
            self._pkts.append(pkt)
            self._ptraf.append(pkt.traffic)
            self._pcls.append(pkt.cls)
            self._pborn.append(pkt.created)
            self._pdst.append(pkt.dst)
            self._psize.append(pkt.size)
        return aid

    def _adopt(self) -> None:
        """(Re)build all dynamic array state from the object graph and
        take ownership of the network."""
        self._qlen[:] = 0
        self._front[:] = 0
        self._rhead[:] = 0
        self._want[:] = -1
        self._vcreq[:] = 0
        self._jof[:] = 0
        self._pvb[:] = self._PV
        self._pvb2[:] = self._PV
        self._dlv[:] = False
        self._hdrf[:] = False
        self._ne[:] = False
        self._fullb[:] = False
        self._fullb[self._XB] = True
        self._owner[:] = -1
        self._owner[self._PV] = -2
        self._side = {}
        self._sideset = set()
        self._hdr_of = {}
        self._aid_of = {}
        self._pkts = []
        self._ptraf = []
        self._pcls = []
        self._pborn = []
        self._pdst = []
        self._psize = []
        self._staged.clear()
        self._inflight = 0
        for pi, port in enumerate(self._ports):
            self._rr[pi] = port.rr
            self._fs[pi] = port.flits_sent
            for vc in (0, 1):
                own = port.owner[vc]
                self._owner[2 * pi + vc] = (
                    self._bid[own] if own is not None else -1)
        headers: List[int] = []
        rflat = self._rflat
        for b in range(self._B):
            buf = self._bufs[b]
            n = len(buf.q)
            if n:
                base = self._rbase_py[b]
                rsize = self._rsize_py[b]
                side = None
                first = -1
                for i, (pkt, fidx) in enumerate(buf.q):
                    aid = self._intern(pkt)
                    v = (aid << FSHIFT) | fidx
                    if fidx == pkt.size - 1:
                        v |= TAIL
                    if i == 0:
                        first = v
                    if i < rsize:
                        rflat[base + i] = v
                    else:
                        if side is None:
                            side = self._side[b] = deque()
                            self._sideset.add(b)
                        side.append(v)
                self._qlen[b] = n
                self._ne[b] = True
                self._fullb[b] = n >= self._cap_py[b]
                self._front[b] = first
                self._inflight += n
            if buf.cur_out is not None:
                p = self._pid[buf.cur_out]
                self._want[b] = p
                self._vcreq[b] = buf.cur_vc
                self._dlv[b] = buf.cur_deliver
                self._jof[b] = self._jpos[b][p]
                self._pvb[b] = 2 * p + buf.cur_vc
            elif n:
                headers.append(b)
        for b in headers:
            self._refresh_one(b)
        for buf in self._bufs:
            buf.sink = self._staged
        self.net.state_owner = self

    # ------------------------------------------------------------------
    # staged-injection fold (runs at the start of every step)
    # ------------------------------------------------------------------
    def _fold(self) -> None:
        staged = self._staged
        qlen = self._qlen
        front = self._front
        rhead = self._rhead
        rflat = self._rflat
        ne = self._ne
        fullb = self._fullb
        want = self._want
        aid_of = self._aid_of
        pkts = self._pkts
        newly: List[int] = []
        for buf, pkt, fidx in staged:
            b = self._bid[buf]
            pid = pkt.pid
            aid = aid_of.get(pid)
            if aid is None:
                aid = len(pkts)
                aid_of[pid] = aid
                pkts.append(pkt)
                self._ptraf.append(pkt.traffic)
                self._pcls.append(pkt.cls)
                self._pborn.append(pkt.created)
                self._pdst.append(pkt.dst)
                self._psize.append(pkt.size)
            if fidx < 0:
                k = pkt.size
                tm = self._tmpl.get(k)
                if tm is None:
                    tm = np.arange(k, dtype=np.int64)
                    tm[k - 1] |= TAIL
                    self._tmpl[k] = tm
                vals = tm + (aid << FSHIFT)
                v0 = int(vals[0])
            else:
                k = 1
                v0 = (aid << FSHIFT) | fidx
                if fidx == pkt.size - 1:
                    v0 |= TAIL
            ql0 = int(qlen[b])
            cap = self._cap_py[b]
            if ql0 + k > cap:
                raise OverflowError(
                    f"flit pushed into full buffer {buf.label!r} "
                    f"(capacity {cap})")
            rsize = self._rsize_py[b]
            side = self._side.get(b)
            ringcnt = ql0 - (len(side) if side is not None else 0)
            base = self._rbase_py[b]
            maskb = rsize - 1
            rh = int(rhead[b])
            if side is None and ringcnt + k <= rsize:
                start = (rh + ringcnt) & maskb
                if k == 1:
                    rflat[base + start] = v0
                elif start + k <= rsize:
                    rflat[base + start:base + start + k] = vals
                else:
                    h = rsize - start
                    rflat[base + start:base + rsize] = vals[:h]
                    rflat[base:base + k - h] = vals[h:]
            else:
                # order preservation: once a side deque exists, every new
                # flit appends to it; the ring is refilled only from the
                # deque's head (at pop time)
                if side is None:
                    side = self._side[b] = deque()
                    self._sideset.add(b)
                    room = rsize - ringcnt
                else:
                    room = 0
                seq = (v0,) if k == 1 else vals.tolist()
                i = 0
                while i < room and i < k:
                    rflat[base + ((rh + ringcnt + i) & maskb)] = seq[i]
                    i += 1
                for j in range(i, k):
                    side.append(seq[j])
            q1 = ql0 + k
            qlen[b] = q1
            ne[b] = True
            if q1 >= cap:
                fullb[b] = True
            self._inflight += k
            if ql0 == 0:
                front[b] = v0
                if int(want[b]) < 0:
                    newly.append(b)
        staged.clear()
        for b in newly:
            self._refresh_one(b)

    # ------------------------------------------------------------------
    # route caching (the only hot-path Python that touches objects)
    # ------------------------------------------------------------------
    def _route_front(self, b: int):
        """Route the header at the front of buffer ``b``; returns the
        cached request tuple ``(port, jof, vc, deliver, pvb2)``."""
        aid = int(self._front[b]) >> FSHIFT
        tab = self._rtab[b]
        # route tables are probed fault-free at build time, so any
        # installed fault state disables the lookup: every header then
        # routes through the Router.route dispatcher below, which is
        # what applies the reroute/drop policy identically to the
        # reference backend
        if (tab is not None and self.net.fault_state is None
                and (self._rtab_all[b]
                     or self._ptraf[aid] == UNICAST)):
            ent = tab[self._pdst[aid]]
            p = (ent >> 4) & 0xFFFFF
            if ent & 2:
                self._pkts[aid].vclass = 0
            vc = self._vcmode[p]
            if vc == 2:
                v = self._pkts[aid].vclass
                vc = v if v < 2 else 1
            self._hdr_of[aid] = b
            return (p, ent >> 24, vc, ent & 1, self._pv2_of[p])
        pkt = self._pkts[aid]
        buf = self._bufs[b]
        port, deliver = buf.router.route(buf, pkt)
        p = self._pid[port]
        if self._pol_any[p]:
            vc = 0
            pv2 = 2 * p + 1
        else:
            vc = 1 if self._isdl_py[p] else (
                pkt.vclass if pkt.vclass < 2 else 1)
            pv2 = self._PV
        self._hdr_of[aid] = b
        # .get: a fault-stuck head may want a port this lane is not
        # wired to (it then never matches that port's feeder scan, which
        # is exactly the reference backend's never-granted behaviour)
        return (p, self._jpos[b].get(p, 0), vc, 1 if deliver else 0, pv2)

    def _refresh_one(self, b: int) -> None:
        p, j, vc, dl, pv2 = self._route_front(b)
        self._want[b] = p
        self._jof[b] = j
        self._vcreq[b] = vc
        self._dlv[b] = bool(dl)
        self._hdrf[b] = True
        self._pvb[b] = 2 * p + vc
        self._pvb2[b] = pv2

    def _refresh_many(self, blist: List[int]) -> None:
        if len(blist) < 6:
            for b in blist:
                self._refresh_one(int(b))
            return
        rows = [self._route_front(int(b)) for b in blist]
        bi = np.array(blist, np.int64)
        arr = np.array(rows, np.int64)
        p = arr[:, 0]
        self._want[bi] = p
        self._jof[bi] = arr[:, 1]
        self._vcreq[bi] = arr[:, 2]
        self._dlv[bi] = arr[:, 3] != 0
        self._hdrf[bi] = True
        self._pvb[bi] = 2 * p + arr[:, 2]
        self._pvb2[bi] = arr[:, 4]

    # ------------------------------------------------------------------
    # side-deque refill (unbounded source queues past the ring size)
    # ------------------------------------------------------------------
    def _refill(self, b: int) -> None:
        side = self._side[b]
        rsize = self._rsize_py[b]
        ringcnt = int(self._qlen[b]) - len(side)
        base = self._rbase_py[b]
        maskb = rsize - 1
        rh = int(self._rhead[b])
        rflat = self._rflat
        while side and ringcnt < rsize:
            rflat[base + ((rh + ringcnt) & maskb)] = side.popleft()
            ringcnt += 1
        if not side:
            del self._side[b]
            self._sideset.discard(b)

    # ------------------------------------------------------------------
    # delivery residue
    # ------------------------------------------------------------------
    def _deliver(self, node: int, aid: int, now: int) -> None:
        net = self.net
        fs = net.fault_state
        if fs is not None:
            pkt = self._pkts[aid]
            if pkt.pid in fs.doomed:
                fs.on_tail_dropped(pkt, node, now)
                return
        net.deliveries += 1
        if self._ptraf[aid] == UNICAST and self._uni_short:
            self._acoll[node].on_unicast_cols(
                self._pborn[aid], self._pcls[aid], now)
        else:
            net.adapters[node].receive_tail(self._pkts[aid], now)
        cb = net.on_tail
        if cb is not None:
            cb(node, self._pkts[aid], now)

    # ------------------------------------------------------------------
    # the cycle: scalar oracle (the loop _cycle_kernel.c is a port of)
    # ------------------------------------------------------------------
    def _scalar_cycle(self) -> int:
        """Phase A + phase B in Python over the arrays; fills the event
        lists and ``_ck_counts[0..4]`` exactly as the C kernel does and
        returns the number of flits moved."""
        ne = self._ne
        hdrf = self._hdrf
        want = self._want
        owner = self._owner
        fullb = self._fullb
        down = self._down
        pvb = self._pvb
        pvb2 = self._pvb2
        vcreq = self._vcreq
        rr = self._rr
        jof = self._jof
        PV = self._PV
        best: Dict[int, tuple] = {}
        for b in np.flatnonzero(ne[:self._SB]).tolist():
            if hdrf[b]:
                pv = int(pvb[b])
                if owner[pv] == -1 and not fullb[down[pv]]:
                    vc = int(vcreq[b])
                else:
                    pv2 = int(pvb2[b])
                    if (pv2 < PV and owner[pv2] == -1
                            and not fullb[down[pv2]]):
                        vc = 1
                    else:
                        continue
            else:
                p0 = int(want[b])
                if p0 < 0 or fullb[down[pvb[b]]]:
                    continue
                vc = int(vcreq[b])
            p = int(want[b])
            pr = (int(jof[b]) - int(rr[p])) & self._Fm1
            cur = best.get(p)
            if cur is None or pr < cur[0]:
                best[p] = (pr, b, vc)
        win: List[int] = []
        dl: List[int] = []
        dele: List[int] = []
        rf: List[int] = []
        nej = 0
        for p in sorted(best):      # ascending flat-port commit order
            _, b, vc = best[p]
            win.append(b)
            nej += self._commit_scalar(b, p, vc, dl, dele, rf)
        self._ck_outw[:len(win)] = win
        self._ck_outdl[:len(dl)] = dl
        self._ck_outdel[:len(dele)] = dele
        self._ck_outrf[:len(rf)] = rf
        self._ck_counts[:5] = (len(win), len(dl), len(dele), len(rf), nej)
        return len(win)

    def _commit_scalar(self, b: int, p: int, vc: int, dl: List[int],
                       dele: List[int], rf: List[int]) -> int:
        """Commit buffer ``b``'s front flit through port ``p``; appends
        the move's events and returns 1 if the flit was ejected."""
        front = self._front
        qlen = self._qlen
        f = int(front[b])
        aid = f >> FSHIFT
        tail = bool(f & TAIL)
        headf = (f & FIDMASK) == 0
        pv = 2 * p + vc
        # pop (a side deque behind the ring is refilled by _replay)
        ql = int(qlen[b]) - 1
        qlen[b] = ql
        rh = int(self._rhead[b]) + 1
        self._rhead[b] = rh
        self._ne[b] = ql > 0
        self._fullb[b] = False
        if ql > 0:
            front[b] = self._rflat[self._rbase_py[b]
                                   + (rh & self._rmask_py[b])]
        # switching tables
        owner = self._owner
        if headf and not tail:
            owner[pv] = b
        elif tail and owner[pv] == b:
            owner[pv] = -1
        if tail:
            self._want[b] = -1
        self._hdrf[b] = False
        self._vcreq[b] = vc
        self._pvb[b] = pv
        self._fs[p] += 1
        self._rr[p] = int(self._jof[b]) + 1
        # deliver-clone, then eject or dateline+push (reference order)
        if tail and bool(self._dlv[b]):
            dele.append((aid << 16) | p)
        ejected = 0
        dst = int(self._down[pv])
        if dst == self._SB:
            if tail:
                dele.append((aid << 16) | p)
            ejected = 1
        else:
            if self._isdl_py[p]:
                dl.append(f)
            dql = int(qlen[dst])
            self._rflat[self._rbase_py[dst]
                        + ((int(self._rhead[dst]) + dql)
                           & self._rmask_py[dst])] = f
            qlen[dst] = dql + 1
            if dql + 1 >= self._cap_py[dst]:
                self._fullb[dst] = True
            if dql == 0:
                self._ne[dst] = True
                front[dst] = f
                if int(self._want[dst]) < 0:
                    rf.append(dst)
        if tail and ql > 0:
            rf.append(b)
        return ejected

    # ------------------------------------------------------------------
    # event replay: everything a committed cycle owes the Python objects
    # ------------------------------------------------------------------
    def _replay(self, now: int, moved: int) -> None:
        c = self._ck_counts
        ndl, ndel, nrf, nej = int(c[1]), int(c[2]), int(c[3]), int(c[4])
        if nej:
            self._inflight -= nej
            fs = self.net.fault_state
            if fs is not None:
                fs.ejected_flits += nej
        if self._sideset:
            hits = self._sideset.intersection(
                self._ck_outw[:moved].tolist())
            for b in hits:
                self._refill(b)
                if self._qlen[b] > 0:
                    self._front[b] = self._rflat[
                        self._rbase_py[b]
                        + (int(self._rhead[b]) & self._rmask_py[b])]
        refresh: List[int] = []
        if ndl:
            hdrf = self._hdrf
            ne = self._ne
            front = self._front
            hdr_of = self._hdr_of
            for f in self._ck_outdl[:ndl].tolist():
                aid = f >> FSHIFT
                self._pkts[aid].vclass = 1
                hb = hdr_of.get(aid, -1)
                if (hb >= 0 and hdrf[hb] and ne[hb]
                        and (int(front[hb]) >> FSHIFT) == aid):
                    refresh.append(hb)
        if ndel:
            pnode = self._pnode
            for ev in self._ck_outdel[:ndel].tolist():
                self._deliver(pnode[ev & 0xFFFF], ev >> 16, now)
        if nrf:
            refresh.extend(self._ck_outrf[:nrf].tolist())
        if refresh:
            self._refresh_many(refresh)

    # ------------------------------------------------------------------
    # SimBackend interface
    # ------------------------------------------------------------------
    def step(self, now: Optional[int] = None) -> int:
        net = self.net
        if now is None or now < net.cycle:
            now = net.cycle
        if self._staged:
            self._fold()
        if not self._inflight:
            # no cycle ran: the event lists must not keep the last one's
            self._ck_counts[:] = 0
            net.cycle = now + 1
            return 0
        if self._ck is not None:
            moved = int(self._ck(*self._ck_args))
        else:
            moved = self._scalar_cycle()
        if moved:
            self._replay(now, moved)
            net.flits_moved += moved
        net.cycle = now + 1
        return moved

    def total_flits(self) -> int:
        n = self._inflight
        for _, pkt, fidx in self._staged:
            n += pkt.size if fidx < 0 else 1
        return n

    #: Cycles of traffic precomputed per block in :meth:`run_mix`.
    CHUNK = 2048

    def run_mix(self, mix: "TrafficMix", cycles: int,
                probes: Optional[Probes] = None) -> None:
        """The fast-forwarding ``run_mix``: block-precompute arrivals
        and jump the clock across provably-empty gaps.

        ``self._inflight or self._staged`` is the "a step could move a
        flit" test; it may overestimate (costing only a per-cycle step)
        but must never underestimate, because a cycle skipped here is
        never executed.
        """
        if getattr(mix, "reactive", False):
            # closed-loop mixes need per-cycle generation so delivery
            # feedback (surfaced by _deliver at cycle granularity, C
            # kernel included) reaches the sources before the next
            # generate; step() stays the array/kernel engine
            SimBackend.run_mix(self, mix, cycles, probes)
            return
        net = self.net
        probes = probes or {}
        step = self.step
        inject = mix.inject
        t = net.cycle
        end = t + cycles
        while t < end:
            c1 = min(t + self.CHUNK, end)
            by_cycle = mix.precompute_arrivals(t, c1)
            pending = sorted(set(by_cycle).union(
                p for p in probes if t <= p < c1))
            pi = 0
            while t < c1:
                if self._inflight or self._staged:
                    # network busy: run cycle by cycle (reference order)
                    nodes = by_cycle.get(t)
                    if nodes is not None:
                        for i in nodes:
                            inject(i, t)
                    step(t)
                    cb = probes.get(t)
                    if cb is not None:
                        cb(t)
                    t += 1
                    continue
                # network empty: jump to the next arrival/probe cycle
                while pi < len(pending) and pending[pi] < t:
                    pi += 1
                if pi == len(pending):
                    net.cycle = t = c1
                    break
                nxt = pending[pi]
                if nxt > t:
                    net.cycle = t = nxt
                    continue
                nodes = by_cycle.get(t)
                if nodes is not None:
                    for i in nodes:
                        inject(i, t)
                    step(t)
                else:
                    net.cycle = t + 1     # probe-only cycle, still empty
                cb = probes.get(t)
                if cb is not None:
                    cb(t)
                t += 1
                pi += 1

    # ------------------------------------------------------------------
    # inspection view: arrays -> object graph
    # ------------------------------------------------------------------
    def materialize(self) -> None:
        """Rebuild the object graph (buffer deques, switching tables,
        port state, router flit counts) from the arrays.  Read-only on
        array state; the arrays stay authoritative."""
        if self.net.state_owner is not self:
            return
        if self._staged:
            self._fold()
        pkts = self._pkts
        qlen = self._qlen
        want = self._want
        hdrf = self._hdrf
        rflat = self._rflat
        for b in range(self._B):
            buf = self._bufs[b]
            q = buf.q
            q.clear()
            n = int(qlen[b])
            if n:
                side = self._side.get(b)
                ringcnt = n - (len(side) if side is not None else 0)
                base = self._rbase_py[b]
                maskb = self._rmask_py[b]
                rh = int(self._rhead[b])
                for i in range(ringcnt):
                    v = int(rflat[base + ((rh + i) & maskb)])
                    q.append((pkts[v >> FSHIFT], v & FIDMASK))
                if side is not None:
                    for v in side:
                        q.append((pkts[v >> FSHIFT], v & FIDMASK))
            w = int(want[b])
            if w >= 0 and not hdrf[b]:
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
        if self._staged:
            self._fold()
        qlen, front, want, hdrf, vcreq, dlv, owner, rr, fs = (
            a.tolist() for a in (self._qlen, self._front, self._want,
                                 self._hdrf, self._vcreq, self._dlv,
                                 self._owner, self._rr, self._fs))
        bufs = []
        for b in range(self._B):
            v = front[b]
            key = (flit_key(self._pkts[v >> FSHIFT], v & FIDMASK)
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
        re-adopt them as the array state."""
        staged = self._staged
        if staged:
            # injections staged after the materialise belong in the
            # object graph too before it is re-packed; mask the fault
            # state while replaying -- these flits were already counted
            # as injected when the adapter staged them
            net = self.net
            fs, net.fault_state = net.fault_state, None
            try:
                pending = list(staged)
                staged.clear()
                for buf, pkt, fidx in pending:
                    sink, buf.sink = buf.sink, None
                    try:
                        if fidx < 0:
                            buf.push_packet(pkt)
                        else:
                            buf.push(pkt, fidx)
                    finally:
                        buf.sink = sink
            finally:
                net.fault_state = fs
        self._adopt()

    # ------------------------------------------------------------------
    # fault events (repro.faults)
    # ------------------------------------------------------------------
    def apply_faults(self, fs, events) -> None:
        """Apply fault events to array-resident state: land the kill +
        purge on the materialised object graph, mirror every dead port
        into the credit rows (both VC slots point at the always-full
        anchor column, so neither cycle implementation can ever grant
        it a move), then re-adopt.  Re-adoption also re-routes every
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
