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
  lazily-built **inspection view**, built when first read (the engine
  reads the wiring table).  While the engine is attached
  (``net.state_owner is engine``), object state is stale;
  :meth:`ArrayBackend.materialize` rebuilds it on demand, and the
  network's ``state_snapshot`` / ``buffer_occupancy`` entry points do
  so automatically, which is what keeps the differential harness and
  every debug dump working unmodified.

State layout
------------
Flits are packed into one ``int64``: ``(aid << 20) | tail_bit | fid``
where ``aid`` indexes the packet columns (``_PCOLS``: growable arrays,
each at the width its field needs, 58 bytes a slot) -- what a cycle
reads (``_pdst``, ``_ptraf``, ``_psize``, ``_pvcl``: the dateline class,
owned here while attached and synced with ``Packet.vclass`` only at the
Python-route boundary and in ``materialize``; ``_phdr``: the row
holding the packet's routed header; ``_popx``: its collective op's
receipt slot, below, or -1; ``_pnext``, ``_psrc``, ``_pcont``) and what
deliveries read (``_pborn``, ``_pcid``: class, ``_ptxn``).  A packet
may be columns only: ``_pkts`` maps an aid to its ``Packet`` only once
:meth:`ArrayBackend._packet` built one for a message staged as a row (a
broadcast's with its op) for a Python route, a fault, ``on_tail`` or an
inspection -- a saturated run builds none.  A source queue's backlog
past its stock waits as records, not packets (the sim README's
Backlog): the packet table is sized by the packets moving, not by the
horizon or the backlog.  A full table at most half live (``repro_mark``)
frees the others' slots for reuse (:meth:`ArrayBackend._sweep`); nothing
moves.  Each buffer owns a power-of-two ring slice of one flat flit
array (a source queue's is a window of ``_SRC_WINDOW`` words); an
injected packet joins its source queue's **pending-packet FIFO**
(``_phead`` / ``_ptail``, linked through ``_pnext``; ``_pfid`` = next
flit of the head packet) and its flit words are generated as the ring
has room (``_qlen`` counts every flit, ``_ppend`` those still in packet
form).
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
takes what is injected, in push order: ``(buffer row, packet)`` from
the adapters (it is every ``FlitBuffer.sink``), ``(node, dst, size, cls,
created)`` rows from ``Network.send_unicast`` and, with ``dst = None``,
``Network.send_broadcast``, and ``(cycle, node, dst, size, cls)``
windows of columns from ``Network.send_unicasts`` and, with ``dst =
None``, ``send_broadcasts``.  A row's buffers are looked up
in the adapters' ``unicast_queue_table`` or ``broadcast_table``.
:meth:`_stage` turns them into arrival rows ``(cycle, buffer, aid,
rank)`` by one rule: an entry is due at ``max(created, next cycle to
run)``, and rows go by due cycle, then rank -- *regenerated* entries
(created before they are due), then (in the kernel's fold) the
continuations, then the closed-loop engine's barrier, then by class
(the requests the kernel fires among them) -- then push order: the
order the reference's FIFOs get them.  New rows that lead every
waiting one go into the consumed prefix (*late* when interned one by
one, O(1) a packet), the others merge in place (``repro_merge``).
A closed loop's sources live in the kernel (:meth:`bind_sources`),
the engine's one closed-loop transaction path: their requests are
interned ahead with their replies and fired by the kernel.  Events
carry their cycle: a tail that reached a PE (``EV_DELIVERY``), an op's
completion (``EV_COMPLETE``), a continuation sent (``EV_CONT``), a
request fired (``EV_FIRE``), a header only the router can route
(``EV_ROUTE``: no table row, a multicast on a row without it, anything
under a fault state).  A cycle that emitted a
ROUTE event, or a delivery that cannot wait (a tail of
``Adapter.reinjecting_tails`` -- relay segments; any tail when
``net.on_tail`` / a fault state is set), ends its batch, and so does
one with a tail or completion the closed-loop engine must act on
(``feedback``: a phase's end, :meth:`_advance` then returns for the
mix), and a source with no interned request left (``requests``: more
are interned, the cycle goes on); every other event replays after it
in emission order = (cycle, ascending port), the reference's
float-accumulation order.

Receipts (the sim README has the contract): while the kernel counts,
each open op (or broadcast row) has a slot of ``_rtbl`` and
``collector.delivery`` is the state struct's ``d``; :meth:`_sync` writes
them back.  :meth:`_replay` books a batch's unicast tails in bulk.

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

Every port multiplexes ``repro.noc.ports.VCS`` = 2 VCs.  Attaching
without a loaded kernel raises and names the reference backend.
"""

from __future__ import annotations

import ctypes
from collections import deque
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.noc.buffers import EMPTY
from repro.noc.network import Adapter, flit_key
from repro.noc.packet import (BROADCAST, RELAY, TRAFFIC_NAMES, UNICAST,
                              CollectiveOp, Packet)
from repro.sim.backend import ConservationError, Probes, SimBackend
from repro.sim.ckernel import State, load_cycle_kernel

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.buffers import FlitBuffer
    from repro.noc.ports import OutPort
    from repro.traffic.mix import TrafficMix

__all__ = ["ArrayBackend", "ConservationError"]

#: Packed-flit layout: ``(aid << FSHIFT) | (TAIL if last flit) | fid``.
FSHIFT = 20
TAIL = 1 << 19
FIDMASK = TAIL - 1

#: Largest port-fed ring slice (a port-fed buffer's capacity must fit).
_RING_CAP = 4096
#: Largest source-queue slice: a window on the queue's pending FIFO,
#: which keeps the rest of its flits in packet form.
_SRC_WINDOW = 16

#: Why a batch ended (``State.stop``; the names are the ``--profile``
#: report's ``stops`` keys) and the event kinds, as in _cycle_kernel.c.
STOPS = ("horizon", "python_route", "delivery", "events_full", "feedback",
         "requests", "records")
STOP_EVENTS, STOP_REQUESTS = STOPS.index("events_full"), STOPS.index("requests")
(EV_DELIVERY, EV_ROUTE, EV_DATELINE, EV_WINNER, EV_COMPLETE, EV_CONT,
 EV_FIRE) = range(7)
#: Most events one cycle can emit per port: a winner and a dateline
#: word (trace only), two deliveries and a completion, three routes.
EV_PER_PORT = 8
#: A receipt-table slot: created, expected, receipts, whether the closed
#: loop hears its completion, its generation (``RT_GEN``), then from
#: ``RT_ROW`` one arrival cycle per node.
RT_GEN, RT_ROW = 4, 5
#: A continuation word: ``(delay << CONT_SHIFT) | (reply aid + 1)``.
CONT_SHIFT = 40
CONT_AID = (1 << CONT_SHIFT) - 1
#: A source's heap key / FIRE word: ``(cycle or aid << SRC_BITS) | i``;
#: ``_sarm`` of a source not on the heap: not armed, armed past the block.
SRC_BITS = 20
S_IDLE, S_WAIT = -1, -2
#: A source's twister row: ``random.Random``'s 624 state words, then its
#: index (``getstate()[1]``).
MT_ROW = 625
#: The source-table columns (``_cycle_kernel.c``, Sources).
_SCOLS = "sout swin squota sarm shead srank sphase sheap".split()
#: An arrival row's rank among the rows due in its cycle: regenerated by
#: the last cycle's deliveries, (continuations: the kernel's due ring,)
#: the closed-loop engine's own injections (the phase barrier), then the
#: mix's classes in order (the kernel's firings among them), then
#: anything else.
RANK_REGEN, RANK_ENGINE, RANK_CLASS, RANK_OTHER = 0, 1, 2, (1 << 20) - 1
#: A staged row's sort key: ``(due << RANK_BITS) | rank``.
RANK_BITS = 20
#: Requests a closed-loop source is interned ahead of its firings in the
#: last block (doubled for a source that runs out: a ``requests`` stop).
_AHEAD = 16
#: Staged entries interned one by one (no numpy pass) up to this many.
_SCALAR_STAGE = 64
#: A batch's unicast tails are booked in bulk from this many on (a bulk
#: pass is ~10 us of numpy calls, a tail alone 1-2 us).
_BOOK_MIN = 16
#: A full packet table of at least this many slots looks at which are
#: live before it doubles, and sweeps instead where at most half are
#: (:meth:`ArrayBackend._make_room`).  The table starts at 1024 slots, or
#: this many if fewer: below it nothing is reused.
_COMPACT_MIN = 4096
#: ``State.stopkinds`` with every kind's bit set.
ALL_KINDS = (1 << len(TRAFFIC_NAMES)) - 1

#: The aid-indexed packet columns, name -> dtype, each as wide as its
#: field needs: aids (``_pnext``), nodes, flit counts, buffer rows and
#: class ids in ``int32`` (the limits below), the traffic kind and the
#: dateline class in ``int8``, ``int64`` where a word packs a generation
#: or a delay above bit 32 (``_popx``, ``_pcont``) and for cycles
#: (``_pborn``, ``_ptxn``: ``welford`` folds int64).  The kernel's
#: ``repro_state`` declares the same widths.
_PCOLS = {"_pdst": np.int32, "_ptraf": np.int8, "_psize": np.int32,
          "_pvcl": np.int8, "_phdr": np.int32, "_pnext": np.int32,
          "_popx": np.int64, "_psrc": np.int32, "_pcont": np.int64,
          "_pborn": np.int64, "_pcid": np.int32, "_ptxn": np.int64}
#: The arrival-row columns: the cycle in ``int64``, the buffer row, the
#: entry (an aid, or record ``r`` as ``-2 - r``) and the rank in ``int32``.
_ACOLS = {"_acyc": np.int64, "_abuf": np.int32, "_aaid": np.int32,
          "_arank": np.int32}
#: A backlog record's columns, 16 bytes (the sim README's Backlog): what
#: interning it reads, the kernel its flits (``_rsize``) and link
#: (``_rnext``: the pending-FIFO entry after it, aid or record).  A
#: unicast created past ``INT32_MAX`` or with a size or class id past
#: ``INT16_MAX`` is interned instead (:meth:`ArrayBackend._backlog`).
_RCOLS = {"_rborn": np.int32, "_rdst": np.int32, "_rcid": np.int16,
          "_rsize": np.int16, "_rnext": np.int32}
#: A source queue's stock, in flits: an arrival with its stock ahead of it
#: in its queue is staged as a record (:meth:`ArrayBackend._backlog`); a
#: queue whose packets ran out with records behind them doubles it (up to
#: ``_STOCK_MAX``) and interns records up to it.
_STOCK, _STOCK_MAX = 192, 4096

#: Packed-field capacities, checked once when a session is built.  A
#: delivery event is ``(aid << 16) | port`` (``_cycle_kernel.c``, read
#: back by ``_replay``), so the flat port count must fit 16 bits (a
#: route-table entry holds a port's slot in its router, 20 bits).  A
#: packet's last flit id must fit below ``TAIL``.  An ``int32`` column
#: holds nodes, buffer rows and class ids up to ``INT32_MAX``, and aids
#: (``_pnext``) below ``MAX_PACKET_SLOTS`` and records (``_rnext``) below
#: ``MAX_RECORDS``, which :meth:`_grow` checks.
MAX_PORTS = 1 << 16
MAX_PACKET_FLITS = TAIL
INT32_MAX = (1 << 31) - 1
MAX_PACKET_SLOTS = 1 << 31
MAX_RECORDS = 1 << 30
INT16_MAX = (1 << 15) - 1


_POW2 = 1 << np.arange(62)


def _pow2_at_least(x):
    """The least power of two >= ``x`` (>= 1), elementwise."""
    return np.left_shift(1, np.searchsorted(_POW2, x))


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


class FreeList:
    """The slots of a growable table: ``used`` handed out so far, of which
    ``free[:n]`` are free again and handed out first -- packet slots a
    sweep found dead (:meth:`ArrayBackend._sweep`), records interned."""

    def __init__(self):
        self.free = np.zeros(64, np.int32)
        self.n = self.used = 0

    def take(self, k: int) -> np.ndarray:
        """``k`` slots, the free ones first, then ``used`` on."""
        n, u = self.n, self.used
        reuse = min(k, n)
        self.n, self.used = n - reuse, u + k - reuse
        return np.concatenate((self.free[n - reuse:n],
                               np.arange(u, self.used)))

    def take1(self) -> int:
        """One slot, as :meth:`take`."""
        if self.n:
            self.n -= 1
            return int(self.free[self.n])
        self.used += 1
        return self.used - 1

    def put(self, slots) -> None:
        """Free ``slots``."""
        n, m = self.n, self.n + len(slots)
        if m > len(self.free):
            old, self.free = self.free, np.zeros(2 * m, np.int32)
            self.free[:n] = old[:n]
        self.free[n:m] = slots
        self.n = m


class ArrayBackend(SimBackend):
    """Array-resident simulation engine (backend name ``"array"``).

    Attaching adopts the network: a built graph's state is packed into
    the flat arrays once, every buffer's ``sink`` is pointed at the
    staging list, and ``net.state_owner`` is set so ``Network.step`` /
    ``total_flits`` / snapshot entry points delegate here.  Detaching
    (or any snapshot) materialises the object view back.
    """

    name = "array"
    inject_ahead = True

    def __init__(self, net):
        super().__init__(net)
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
        self._merge = lib.repro_merge
        self._mark = lib.repro_mark
        self._take = lib.repro_take
        self._link = lib.repro_link
        self._arm = lib.repro_arm
        self._build_static()
        self._adopt()

    # ------------------------------------------------------------------
    # static geometry (immutable while attached)
    # ------------------------------------------------------------------
    def _build_static(self) -> None:
        """Lay the static arrays out from the network's wiring table
        (``repro.noc.wiring``): columns in, columns out, no buffer or
        port object read."""
        net = self.net
        w = net.wiring
        B = len(w.cap)
        P = len(w.isdl)
        _check_limit("output ports (the delivery-event port field)", P,
                     MAX_PORTS)
        _check_limit("nodes (the int32 _pdst / _psrc columns)", net.n,
                     INT32_MAX)
        _check_limit("buffer rows (the int32 _phdr column)", B, INT32_MAX)
        self._B = B
        self._P = P
        self._SB = B             # ejection sink row (reset every cycle)
        self._XB = B + 1         # always-full anchor row
        B2 = B + 2
        self._B2 = B2
        self._PV = 2 * P

        # ports
        self._pnode = np.repeat(np.arange(net.n), w.nport)
        self._pnode_py = self._pnode.tolist()
        self._isdl = w.isdl
        self._nf_py = np.diff(w.fptr).tolist()
        down = np.full(self._PV + 1, self._XB, np.int64)
        down[:self._PV] = w.down.ravel()
        down[:self._PV][down[:self._PV] < 0] = self._SB
        self._down = down

        # flit rings: one flat array, a power-of-two slice per buffer.  A
        # port pushes straight into its downstream ring, so a port-fed
        # slice holds the buffer's capacity; a source queue (no port's
        # down) is a window of at most _SRC_WINDOW words on its pending
        # FIFO, which holds the rest as packets
        portfed = np.zeros(B2, bool)
        portfed[down] = True
        caps = np.concatenate((w.cap, [1, 1]))
        sizes = np.minimum(_pow2_at_least(caps),
                           np.where(portfed, _RING_CAP, _SRC_WINDOW))
        bases = np.concatenate(([0], np.cumsum(sizes)))
        self._rflat = np.zeros(int(bases[-1]), np.int64)
        self._rbase = bases[:-1]
        self._rmask = sizes - 1
        self._cap_py = caps.tolist()
        self._rbase_py = self._rbase.tolist()
        self._rmask_py = self._rmask.tolist()
        qcap = caps
        qcap[self._SB] = 1 << 60
        qcap[self._XB] = 0
        self._qcap = qcap
        _check_limit("a port-fed buffer's capacity (its ring slice)",
                     int(qcap[down[down < B]].max(initial=0)), _RING_CAP)
        # what a ready-set wake reaches (_cycle_kernel.c): port p's
        # feeder rows ``_fbuf[_fptr[p]:_fptr[p + 1]]``, and ``_upof[b]``,
        # the port*2+vc whose down is row b (-1: a source queue); a
        # row's place among a port's feeders is ``_jmat`` (in its router)
        self._fptr = w.fptr
        self._fbuf = w.fbuf
        self._jmat = w.switch.jpos
        self._upof = np.full(B, -1, np.int64)
        fed = np.flatnonzero(down[:self._PV] < B)
        self._upof[down[fed]] = fed

        # route tables: where the router declares routing a pure
        # function of (buffer, dst), header refresh is a table lookup
        # inside the cycle (_router_rows packs the entries).  A router
        # with ``relative_tables`` gives one row per buffer position,
        # probed at node 0 and read at the relative destination: node
        # v's k-th buffer reads row k at (dst - v) mod N.  Any other
        # (the mesh) gives one row per buffer; the routers asked are
        # unwired probes (``Wiring.router``).  Buffer b reads row
        # ``_rrow[b]`` shifted by ``_rsh[b]`` (v, or 0), and an entry's
        # slot is a port of its router, from ``_pbase[b]`` on.
        # ``_rtflag[b]`` is 2 where the row holds for every traffic
        # class, 1 for every class but multicast (a Quarc ingress), 0
        # for no row.  VC selection stays runtime (it reads the packet's
        # dateline class): ``_vcmode`` is 0/1 for the fixed
        # any-policy/dateline cases, 2 for class-dependent ports.
        pol_any = w.anyvc
        self._vcmode = np.where(pol_any, 0, np.where(w.isdl, 1, 2))
        self._pv2of = np.where(pol_any, 2 * np.arange(P) + 1, self._PV)
        nb = w.nbuf
        bfirst = np.arange(net.n) * nb          # each node's first row
        self._pbase = np.repeat(np.arange(net.n) * w.nport, nb)
        self._rtflag = np.zeros(B2, np.uint8)
        if w.cls.relative_tables:
            rows, flags = self._router_rows(w.router(0))
            last = w.router(net.n - 1)
            lrows, lflags = self._router_rows(last)
            if lflags != flags or not np.array_equal(
                    np.roll(lrows, -last.node, axis=1), rows):
                raise ValueError(
                    f"{type(last).__name__} declares relative route "
                    f"tables, but node {last.node}'s are not node 0's "
                    f"rolled by {last.node}")
            self._rtab = rows
            self._rsh = np.repeat(np.arange(net.n), nb)
            self._rrow = np.tile(np.arange(nb), net.n)
            self._rtflag[:B] = np.tile(flags, net.n)
        else:
            self._rtab = np.empty((B, net.n), np.int64)
            for v, b0 in enumerate(bfirst.tolist()):
                self._rtab[b0:b0 + nb], self._rtflag[b0:b0 + nb] = (
                    self._router_rows(w.router(v)))
            self._rsh = np.zeros(B, np.int64)
            self._rrow = np.arange(B)

        # ``_qtab``: the first buffer row of each node, and the position
        # in its router of the queue a unicast to relative destination
        # (dst - node) mod N enters (-1: ``send`` raises), probed at
        # node 0 and checked at the last node like the route tables
        a = net.adapters
        rel = self._queue_row(a[0])
        if not np.array_equal(self._queue_row(a[-1]), rel):
            raise ValueError(
                f"{type(a[-1]).__name__}'s unicast queue table at node "
                f"{a[-1].node} is not node 0's rolled by {a[-1].node}")
        self._qtab = np.array([bfirst, rel], np.int64)
        self._qfirst, self._qrel = self._qtab
        # ``_btab``: a broadcast's branches (``Adapter.broadcast_table``):
        # queue positions and ends relative to the source, like ``_qtab``
        tabs = [[(w.switch.groups[q], (d - ad.node) % net.n)
                 for q, d in ad.broadcast_table() or ()]
                for ad in a[:1] + a[-1:]]
        if tabs and tabs[0] != tabs[-1]:
            raise ValueError(f"{type(a[-1]).__name__}'s broadcast table "
                             f"is not node 0's rolled by {a[-1].node}")
        self._btab = tuple(zip(*tabs[0])) if tabs and tabs[0] else None

        # round-robin priority field: F a power of two >= max feeders
        # keeps ``(j - rr) & (F-1)`` order-isomorphic to the reference
        # scan from ``rr`` even with ``rr`` stored unwrapped (in [0, nf])
        nf = max(self._nf_py, default=1)
        self._Fm1 = max(8, int(_pow2_at_least(nf))) - 1

        # dynamic state: per buffer, per port(*2+vc); the packet columns
        # (aid-indexed, ``_PCOLS``), arrival rows and event buffer start
        # small and grow geometrically
        z = lambda n=B2: np.zeros(n, np.int64)      # noqa: E731
        for name in ("qlen front rhead want vcreq jof pvb pvb2 phead "
                     "ptail pfid ppend").split():
            setattr(self, "_" + name, z())
        self._rqn = np.zeros(B2, np.int32)
        for name in ("_dlv", "_hdrf", "_ne", "_fullb", "_rdry"):
            setattr(self, name, np.zeros(B2, bool))
        self._owner = z(self._PV + 1)
        self._rr = z(P)
        self._fs = z(P)
        #: aid -> the ``Packet`` of each aid that has one (a row has none
        #: until :meth:`_packet` builds it); the table's slots
        self._pkts: Dict[int, Packet] = {}
        self._pslots = FreeList()
        #: pid -> aid of each packet :meth:`materialize` put in a buffer
        self._aids: Dict[int, int] = {}
        #: class names by ``_pcid`` and back
        self._cname: List[Optional[str]] = [None]
        self._cid: Dict[Optional[str], int] = {None: 0}
        for name, dtype in _PCOLS.items():
            setattr(self, name, np.zeros(min(1024, _COMPACT_MIN), dtype))
        for name, dtype in _ACOLS.items():
            setattr(self, name, np.zeros(1024, dtype))
        # the backlog (sim README): the records' slots, the refills; the
        # unicast queues a record may wait in, by row (not a one-word
        # ring: it could run empty before a refill), each one's stock and
        # the flits it was given over the run
        for name, dtype in _RCOLS.items():
            setattr(self, name, np.zeros(64, dtype))
        self._rslots = FreeList()
        self._nrefill = 0
        qrows = (self._qfirst[:, None] + np.flatnonzero(
            np.bincount(self._qrel[self._qrel >= 0]))).ravel()
        self._qrows = qrows[self._rmask[qrows] > 0]
        self._qidx = np.full(B2, -1, np.int32)     # row -> index, or -1
        self._qidx[self._qrows] = np.arange(len(self._qrows))
        self._rstock = np.full(len(self._qrows), _STOCK)
        self._rgiven = np.zeros(len(self._qrows), np.int64)
        #: objects holding aids of their own (the shard worker's gids):
        #: ``held_aids()`` stay live (:meth:`_live`)
        self.aid_holders: List = []
        # continuations waiting for their cycle (the kernel's due ring: a
        # bucket per cycle mod its size, head / tail aid and the cycle)
        self._cring = np.full((16, 3), -1, np.int64)
        # the closed-loop sources the kernel fires (bind_sources): none
        for name in _SCOLS:
            setattr(self, "_" + name, z(1))
        self._srate = np.zeros(1)
        self._smt = np.zeros((1, MT_ROW), np.uint32)
        self._srcs: List = []
        #: rank of a staged entry's class (``RANK_CLASS + k``, the
        #: mix's order), set by :meth:`run_mix`
        self._rank: Dict[Optional[str], int] = {}
        evcap = max(256, 2 * EV_PER_PORT * P)
        self._ev = z(2 * evcap)
        #: what was injected since the last fold, in push order (packets,
        #: rows and windows of columns: module docstring)
        self._staged: List = []

        # ``rows``: where ``Network.send_unicast(s)`` /
        # ``send_broadcast(s)`` append
        self.rows = self._staged
        # --profile: packets staged (interned), rows / columns staged,
        # built anyway, entries late, table sweeps; tails by path
        # (unicasts: all, booked per batch)
        self._nstaged = self._nsweep = 0
        self._nrows = self._ncols = self._nbuilt = self._nlate = 0
        self._nuni = self._nbook = self._nrecv = 0
        self._acoll = [ad.collector for ad in a]
        # the traffic kinds whose tail ends its batch (relay segments)
        self._stopkinds = sum(1 << kind for kind in Adapter.reinjecting_tails)
        # receipts (module docstring): the collector they are taken for,
        # the table, the open ops' ``_popx`` words (generation << 32 |
        # slot), each slot's op and the free slots
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
                              N=net.n, evcap=evcap,
                              cmask=len(self._cring) - 1)
        for name in State.POINTERS:
            st.bind(name, getattr(self, "_" + name))
        self._stp = ctypes.addressof(st)
        if kc is not None:      # the accumulator moves into the kernel
            d = kc.delivery
            st.warmup, w = kc.warmup, st.d
            w.n, w.mean, w.m2 = d.n, d.mean, d._m2
            if d.n:
                w.min, w.max = d.min, d.max
        self._dn = st.d.n

    def _router_rows(self, router) -> Tuple[np.ndarray, List[int]]:
        """The route-table rows of ``router``'s buffers (creation order)
        and their ``_rtflag``.  The router answers, per ingress role,
        with numpy columns over every destination (slot in
        ``router.out_ports``, deliver, vclass_reset, for a Quarc ingress
        ``bclone``), computed arithmetically -- no ``route_head`` call;
        a row packs them as ``(jof << 24) | (slot << 4) | (bclone << 2)
        | (vclass_reset << 1) | deliver`` (zeros: no row), ``jof`` the
        buffer's place among the slot's feeders (``_jmat``)."""
        by_role = {}    # role -> (slot, entry without jof, flag) | None
        roles = self.net.wiring.switch.roles
        rows = np.zeros((len(roles), router.n), np.int64)
        flags = []
        for k, role in enumerate(roles):
            if role not in by_role:
                cols, flag = router.route_table(role), 2
                if cols is None:
                    cols, flag = router.unicast_route_table(role), 1
                if cols is not None:
                    slot, deliver, vreset, *bclone = cols
                    ent = (slot << 4) | (vreset.astype(np.int64) << 1)
                    ent |= deliver
                    if bclone:
                        ent |= bclone[0].astype(np.int64) << 2
                    cols = (slot, ent, flag)
                by_role[role] = cols
            if by_role[role] is None:
                flags.append(0)
                continue
            slot, ent, flag = by_role[role]
            np.bitwise_or(self._jmat[k][slot] << 24, ent, out=rows[k])
            flags.append(flag)
        return rows, flags

    def _feeder_pos(self, b: int, p: int) -> int:
        """Row ``b``'s place among port ``p``'s feeders, 0 where it is
        none of them (``jof``)."""
        w = self.net.wiring
        node, k = divmod(b, w.nbuf)
        if p // w.nport != node:
            return 0
        return int(self._jmat[k, p % w.nport])

    def _queue_row(self, ad) -> np.ndarray:
        """Adapter ``ad``'s unicast queue table as positions in its
        router, by relative destination (-1: ``send`` raises)."""
        queues, slot = ad.unicast_queue_table()
        pos = [self.net.wiring.switch.groups[q] for q in queues]
        return np.roll(np.array([*pos, -1], np.int64)[slot], -ad.node)

    # the object graph's buffers and ports in row order (reading builds it)
    @cached_property
    def _bufs(self) -> List["FlitBuffer"]:
        return self.net.iter_buffers()

    @cached_property
    def _ports(self) -> List["OutPort"]:
        return self.net.iter_ports()

    @property
    def broadcast_rows(self) -> bool:
        """Whether ``Network.send_broadcast`` may stage a row: there is a
        broadcast table and the kernel takes the receipts."""
        return (self._btab is not None and self._kcoll is not None
                and self._acoll[0] is self._kcoll)

    def _queue_rows(self, node, dst) -> np.ndarray:
        """The source-queue row of each unicast ``node -> dst`` (numpy
        columns, ``dst`` in range; -1 where ``send`` raises)."""
        first, rel = self._qtab
        k = rel[(dst - node) % len(rel)]
        return np.where(k < 0, -1, first[node] + k)

    def _grow(self, names, need: int) -> None:
        """Reallocate the columns ``names`` (each keeps its dtype and its
        entries) to a power of two of at least ``need`` entries
        (doubling), and re-point the state struct at them.  The packet
        table (``_PCOLS``) grows to at most ``MAX_PACKET_SLOTS``, the
        records (``_RCOLS``) to ``MAX_RECORDS``: their links are
        ``int32``."""
        first = getattr(self, next(iter(names)))
        size = max(int(_pow2_at_least(need)), 2 * len(first))
        if names is _PCOLS:
            _check_limit("packet slots (the int32 aid columns)", size,
                         MAX_PACKET_SLOTS)
        elif names is _RCOLS:
            _check_limit("backlog records (the int32 record links)", size,
                         MAX_RECORDS)
        for name in names:
            old = getattr(self, name)
            new = np.zeros(size, old.dtype)
            new[:len(old)] = old
            setattr(self, name, new)
            if name[1:] in State.POINTERS:  # not _pborn, _pcid, _ptxn
                self._st.bind(name[1:], new)

    def _make_room(self, k: int) -> None:
        """Every entry that interns (:meth:`_stage`,
        :meth:`_intern_requests`, the shard worker's replicas) calls this
        with its ``k`` new packets before it takes an aid: where they
        would not fit, a table of at least ``_COMPACT_MIN`` slots sweeps
        (:meth:`_sweep`), else the columns double in :meth:`_intern`.
        Never inside :meth:`_intern`: an aid taken is not live until
        placed."""
        held, slots = self._pslots.used - self._pslots.n, len(self._pdst)
        if held and slots >= _COMPACT_MIN and held + k > slots:
            self._sweep(held // 2)

    def _sweep(self, most: int) -> None:
        """If at most ``most`` slots are live (:meth:`_live`) and some
        taken ones are not, free every slot that is not: zeroed, out of
        ``_pkts``, onto the free list.  Nothing moves, so no reference
        changes."""
        fl = self._pslots
        live = self._live()
        n = np.count_nonzero(live)
        if n > most or n == fl.used - fl.n:
            return
        dead = np.flatnonzero(live == 0)
        for name in _PCOLS:
            getattr(self, name)[dead] = 0
        self._pkts = {a: p for a, p in self._pkts.items() if live[a]}
        fl.n = 0
        fl.put(dead)
        self._nsweep += 1

    def _live(self) -> np.ndarray:
        """A flag per used packet slot: whether anything still reads it --
        ``repro_mark``'s roots, every branch of an open broadcast row
        (:meth:`_open_op` reads them all) and what ``aid_holders`` hold.
        Raises :class:`ConservationError` unless the flits the mark walked
        are the flits in flight."""
        live = np.zeros(self._pslots.used, np.uint8)
        live[[a for e in self._slot_op if type(e) is tuple
              for a in e[0]]] = 1       # open broadcast rows' branches
        for holder in self.aid_holders:
            live[np.fromiter(holder.held_aids(), np.int64)] = 1
        flits = self._mark(self._stp, live.ctypes.data, len(live))
        if flits != self._st.inflight:
            raise ConservationError(
                f"the packet table's mark walked {flits} flits in rings "
                f"and pending FIFOs, but {self._st.inflight} are in flight")
        return live

    @property
    def _inflight(self) -> int:
        return self._st.inflight

    @_inflight.setter
    def _inflight(self, n: int) -> None:
        self._st.inflight = n

    # ------------------------------------------------------------------
    # adoption: object graph -> arrays
    # ------------------------------------------------------------------
    def _intern(self, pkts, cols=None, staged: bool = True) -> np.ndarray:
        """Append the packets ``pkts`` or, given ``cols`` (class names or
        their ids as a numpy column, created, receipt slot, dst, size,
        traffic, vclass), ``pkts`` rows, which have no object, to the
        packet columns; returns their aids, in that order.  A slot is
        reused only after its packet died and a sweep freed it: callers
        make room first (:meth:`_make_room`), here the columns only grow,
        doubling (:meth:`_grow`).  Backlog records were
        counted staged as records (``staged`` False)."""
        k = len(pkts) if cols is None else pkts
        aids = self._pslots.take(k)
        if self._pslots.used > len(self._pdst):
            self._grow(_PCOLS, self._pslots.used)
        if staged:
            self._nstaged += k
        if cols is None:
            cols = zip(*[(p.cls, p.created, self._slot(p.op), p.dst, p.size,
                          p.traffic, p.vclass) for p in pkts])
            self._pkts.update(zip(aids.tolist(), pkts))
        cls, born, opx, dst, size, traf, vcl = cols
        self._pcid[aids] = cls if type(cls) is np.ndarray else self._cids(cls)
        self._pborn[aids] = born
        self._popx[aids] = opx
        self._pdst[aids] = dst
        self._ptraf[aids] = traf
        self._psize[aids] = size
        self._pvcl[aids] = vcl
        self._phdr[aids] = -1
        return aids

    def _cids(self, names):
        """The ``_pcid`` of each class name (new names numbered), or the
        one they share."""
        cid, seen = self._cid, dict.fromkeys(names)
        for name in seen:
            if name not in cid:
                _check_limit("traffic classes (the int32 _pcid column)",
                             len(self._cname) + 1, INT32_MAX)
                cid[name] = len(self._cname)
                self._cname.append(name)
        if len(seen) == 1:
            return cid[next(iter(seen))]
        return list(map(cid.__getitem__, names))

    def _unicast_queues(self, node, dst) -> np.ndarray:
        """The source buffer of each unicast given as columns (the queue
        table); a destination ``send`` refuses raises what it would."""
        n = self.net.n
        bad = dst[(dst < 0) | (dst >= n)]
        if len(bad):
            raise ValueError(f"destination {bad[0]} out of range for N={n}")
        bufs = self._queue_rows(node, dst)
        if (bufs < 0).any():
            raise ValueError("local address has no quadrant")
        return bufs

    def _intern_unicasts(self, node, dst, size, cid, born, rec):
        """Intern unicasts given as columns (``cid``: class ids) as
        ``adapter.send`` would have, counting each generated, but those
        ``rec`` marks (:meth:`_backlog`) become records; returns each
        one's entry (its aid, or ``-2 - r`` for record ``r``).  They have
        no ``_pkts`` entry; ``_psrc`` holds the source node, for
        :meth:`_packet`."""
        self._generated(node, False)
        new = ~rec
        ent = np.empty(len(born), np.int64)
        ent[new] = aids = self._intern(int(new.sum()), (
            cid[new], born[new], -1, dst[new], size[new], UNICAST, 0))
        self._psrc[aids] = node[new]
        ent[rec] = -2 - self._records(born[rec], dst[rec], cid[rec],
                                      size[rec])
        return ent

    def _backlog(self, bufs, size, born, cid, now: int) -> np.ndarray:
        """Which of these unicasts (source buffers, sizes, created, class
        ids; staged at ``now``) wait as records: those with their queue's
        stock of flits (``_rstock``) ahead of them -- its flits now and
        the new ones before them in staging order (a queue's arrival
        order), less twice what it sends until they arrive at its rate so
        far (the flits it was given, ``_rgiven``, less those it holds; a
        flit a cycle before anything is sent) -- and whose fields fit a
        record's columns.  A record in another place than this foresees
        costs a refill, never a different run."""
        qi = self._qidx[bufs]
        ok = qi >= 0                # a queue a record may wait in
        held, stock = self._qlen[self._qrows], self._rstock
        given = np.bincount(qi[ok], size[ok], minlength=len(held))
        sent = np.maximum(self._rgiven - held, 0)
        self._rgiven += given.astype(np.int64)
        span = int(born.max(initial=now)) - now
        sure = held - (2 * sent * span // now if now else 2 * span) >= stock
        rec = ok & sure[qi]         # every arrival is behind its stock
        part = np.flatnonzero(ok & ~sure[qi] & (held + given >= stock)[qi])
        if len(part):               # ... or some are: count them in order
            part = part[np.argsort(qi[part], kind="stable")]
            q, sz = qi[part], size[part]
            ahead = np.cumsum(sz) - sz
            ahead -= np.maximum.accumulate(np.where(
                np.r_[True, q[1:] != q[:-1]], ahead, 0))
            dt = np.maximum(born[part] - now, 0)
            ahead += held[q] - 2 * (sent[q] * dt // now if now else dt)
            rec[part] = ahead >= stock[q]
        return rec & ((born <= INT32_MAX) & (size <= INT16_MAX)
                      & (cid <= INT16_MAX))

    def _records(self, born, dst, cid, size) -> np.ndarray:
        """Backlog records of these unicasts (the sim README's Backlog),
        in free slots first; their indices."""
        r = self._rslots.take(len(born))
        if self._rslots.used > len(self._rsize):
            self._grow(_RCOLS, self._rslots.used)
        self._rborn[r], self._rdst[r], self._rcid[r], self._rsize[r] = (
            born, dst, cid, size)
        self._nstaged += len(born)
        return r

    def _intern_records(self, r: np.ndarray, bufs: np.ndarray) -> np.ndarray:
        """Intern records ``r``, each waiting in source buffer ``bufs``,
        in that order, and free their slots; returns their aids."""
        n = len(r)
        self._make_room(n)
        aids = self._intern(n, (self._rcid[r], self._rborn[r], -1,
                                self._rdst[r], self._rsize[r], UNICAST, 0),
                            staged=False)
        self._psrc[aids] = bufs // self.net.wiring.nbuf
        self._rslots.put(r)
        return aids

    def _refill(self, want: np.ndarray, now: int) -> None:
        """Intern the records ``repro_take`` names for ``want`` (flits a
        queue row should hold in its ring and packets: int64 over the
        rows, overwritten with each row's count) and put them in their
        places in its pending FIFO (``repro_link``, which may expose a
        header at cycle ``now``: routed here)."""
        live = self._rslots.used - self._rslots.n
        out = np.empty(max(min(live, int(np.minimum(want, live).sum())), 1),
                       np.int32)
        n = self._take(self._stp, want.ctypes.data, out.ctypes.data)
        if not n:
            return
        q = np.flatnonzero(want)
        aids = self._intern_records(out[:n], np.repeat(q, want[q]))
        self._st.now = now
        events = self._call(lambda stp: self._link(stp, want.ctypes.data,
                                                   aids.ctypes.data))
        if len(events):
            self._replay(events)

    def _refill_dry(self, now: int) -> None:
        """The kernel's ``records`` stop: each queue whose packets ran out
        with records behind them doubles its stock (up to ``_STOCK_MAX``)
        and interns records up to it; again while a queue is still dry."""
        st, dry = self._st, self._rdry
        while st.ndry:
            q = np.flatnonzero(dry)
            dry[q] = False
            st.ndry = 0
            self._nrefill += 1
            qi = self._qidx[q]
            self._rstock[qi] = np.minimum(2 * self._rstock[qi], _STOCK_MAX)
            want = np.zeros(len(dry), np.int64)
            want[q] = self._rstock[qi]
            self._refill(want, now)

    def _intern_backlog(self) -> None:
        """Intern every record in a pending FIFO, for whatever reads the
        queues as packets (:meth:`materialize`, a fault event)."""
        while self._rqn.any():
            self._refill(np.where(self._rqn > 0, 1 << 62, 0), self.net.cycle)

    def _generated(self, node, collective: bool) -> None:
        """Count a message generated at each of ``node``."""
        acoll = self._acoll
        if acoll.count(acoll[0]) == len(acoll):     # one collector
            acoll[0].note_generated(collective, len(node))
        else:
            for v, c in enumerate(np.bincount(node).tolist()):
                if c:
                    acoll[v].note_generated(collective, c)

    def _intern_bcasts(self, node, dst, size, cid, born) -> np.ndarray:
        """Intern broadcasts given as columns (``dst`` unused) as the branch
        packets ``adapter.send_broadcast`` pushes (``_btab``), each counted
        generated, with one receipt slot; returns each branch's source
        buffer and aid, in push order."""
        pos, rel = self._btab
        nb, m, n = len(pos), len(node), self.net.n
        aids = self._intern(m * nb, (
            (None,), np.repeat(born, nb), -1,
            ((node[:, None] + rel) % n).ravel(), np.repeat(size, nb),
            BROADCAST, 0))
        self._psrc[aids] = np.repeat(node, nb)
        cname = self._cname
        xs = self._open_slots([(tuple(row), cname[c]) for row, c in zip(
            aids.reshape(m, nb).tolist(), cid.tolist())])
        tbl = self._rtbl
        tbl[xs, :RT_GEN] = 0
        tbl[xs, 0], tbl[xs, 1] = born, n - 1    # created, expected
        self._popx[aids] = np.repeat(tbl[xs, RT_GEN] << 32 | xs, nb)
        self._generated(node, True)
        return (self._qfirst[node][:, None] + pos).ravel(), aids

    def due(self, now: int) -> List[tuple]:
        """The continuations the kernel sends at the head of cycle
        ``now``: ``(home, dst, size, cls)`` each, in sending order."""
        out = []
        head, _, at = self._cring[now & self._st.cmask].tolist()
        while head >= 0 and at == now:
            out.append((int(self._psrc[head]), int(self._pdst[head]),
                        int(self._psize[head]),
                        self._cname[self._pcid[head]]))
            head = int(self._pnext[head])
        return out

    # ------------------------------------------------------------------
    # closed-loop sources (the kernel fires them: _cycle_kernel.c)
    # ------------------------------------------------------------------
    def bind_sources(self, mix: "TrafficMix") -> "ArrayBackend":
        """Take over firing ``mix``'s closed-loop sources (its first
        fill): their credit, quota and coin state move into the kernel's
        source table -- each source's ``rng`` state becomes its twister
        row (``_smt``, given back by :meth:`materialize`); each fill
        interns their requests ahead (:meth:`fill_sources`).  Returns the
        engine, the mix's ``kernel``."""
        eng, n = mix._cl_engine, self.net.n
        ks = sorted(eng.closed_k)
        srcs = [eng.sources[k][v] for k in ks for v in range(n)]
        _check_limit("closed-loop sources", len(srcs), (1 << SRC_BITS) - 1)
        self._srcs = srcs
        self._eng = eng
        self._rank = self._ranks(mix)
        #: per source: its class, its injector; injector -> source
        self._sk = np.repeat(ks, n)
        self._sinj = [v * len(mix.classes) + k for k in ks for v in range(n)]
        self._sof = {i: s for s, i in enumerate(self._sinj)}
        #: per source: its request's size and class id, its reply's size
        #: and delay (0: a stream message is the whole transaction)
        self._sreq, self._srep, self._sdelay = (
            np.repeat(col, n) for col in zip(*[
                (sz, *(rep or (0, 0))) for sz, rep in map(eng.request, ks)]))
        self._scid = np.repeat(
            [self._cids((mix.classes[k].name,)) for k in ks], n)
        phased = set(eng.phased)
        cols = {"sout": [s.outstanding for s in srcs],
                "swin": [s.window for s in srcs],
                "squota": [s.quota_left for s in srcs],
                "sarm": S_IDLE, "shead": -1,
                "srank": RANK_CLASS + self._sk,
                "sphase": [k in phased for k in ks for _ in range(n)],
                "sheap": 0}
        st = self._st
        for name in _SCOLS:
            col = np.zeros(len(srcs), np.int64)
            col[:] = cols[name]
            setattr(self, "_" + name, col)
            st.bind(name, col)
        self._srate = np.array([s.rate for s in srcs], np.float64)
        self._smt = np.zeros((len(srcs), MT_ROW), np.uint32)
        for row, src in zip(self._smt, srcs):
            row[:] = src.rng.getstate()[1]
        st.bind("srate", self._srate)
        st.bind("smt", self._smt)
        st.S, st.phleft = len(srcs), eng._phase_left
        st.nheap = 0
        #: per source: the last request interned, the requests not fired,
        #: how many it is kept ahead by, its firings by the last fill
        self._stail = np.full(len(srcs), -1)
        self._sleft, self._sahead, self._sfired = (
            np.zeros(len(srcs), np.int64) for _ in range(3))
        delay = int(self._sdelay.max())
        if delay > st.cmask:    # the due ring (empty) fits every reply
            rows = int(_pow2_at_least(delay + 1))
            ring = self._cring = np.full((rows, 3), -1, np.int64)
            st.bind("cring", ring)
            st.cmask = len(ring) - 1
        return self

    def fill_sources(self, stop: int) -> None:
        """A new calendar block, up to ``stop``: every source waiting for
        it may be armed again (the kernel draws its coins up to ``stop``)
        and each is kept ``_AHEAD`` requests ahead of what it fired in
        the last one."""
        self._sarm[self._sarm == S_WAIT] = S_IDLE
        self._st.blockend = stop
        fired = np.array([src.arrivals for src in self._srcs])
        self._sahead = _AHEAD + fired - self._sfired
        self._sfired = fired
        self._intern_requests()

    def _intern_requests(self, grow: bool = False) -> None:
        """Intern each firing source's next requests, up to ``_sahead``
        (with ``grow``, doubled first for each source that ran dry): dsts
        from its private stream, a reply interned with each request (its
        continuation: ``_pcont``), chained through ``_pnext`` from
        ``_shead``."""
        n = self.net.n
        if grow:
            self._sahead[self._shead < 0] *= 2
        todo = np.where(self._srate > 0.0, self._sahead - self._sleft, 0)
        s = np.flatnonzero(todo > 0)
        if not len(s):
            return
        c = todo[s]
        self._sleft[s] += c
        src = np.repeat(s, c)
        node = src % n
        m = len(src)
        dst = np.fromiter(chain.from_iterable(map(
            self._eng.destinations, (s % n).tolist(), self._sk[s].tolist(),
            c.tolist())), np.int64, m)
        if (self._queue_rows(node, dst) < 0).any() or (
                (dst < 0) | (dst >= n)).any():
            raise ValueError("a closed-loop request has no queue to its "
                             "destination")
        reply, cid = self._srep[src], self._scid[src]
        rq = np.flatnonzero(reply)          # the requests with a reply
        self._make_room(m + len(rq))
        aids = self._intern(m + len(rq), (
            np.concatenate((cid, cid[rq])), -1, -1,
            np.concatenate((dst, node[rq])),
            np.concatenate((self._sreq[src], reply[rq])), UNICAST, 0))
        req, rep = aids[:m], aids[m:]
        self._psrc[req] = node
        self._psrc[rep] = dst[rq]
        self._pcont[req] = -2 - src             # stream: its own credit
        self._pcont[rep] = -2 - src[rq]
        self._pcont[req[rq]] = self._sdelay[src[rq]] << CONT_SHIFT | (rep + 1)
        # each source's run of requests, chained behind what it has left
        end = np.cumsum(c)
        head, last = req[end - c], req[end - 1]
        self._pnext[req[:-1]] = req[1:]
        self._pnext[last] = -1
        dry = self._shead[s] < 0
        self._shead[s[dry]] = head[dry]
        self._pnext[self._stail[s[~dry]]] = head[~dry]
        self._stail[s] = last
        self._nrows += m + len(rq)

    def open_window(self, now: int, until: int, tap: bool) -> Dict:
        """The mix's window ``[now, until)``: the kernel may fire sources
        before ``until``; a firing a drain passed is dropped and its
        source armed again from ``now``, as is every idle one.  Under a
        ``tap``, the requests due at ``now`` as ``{injector index:
        on_inject arguments}``."""
        st = self._st
        st.fireto = until
        self._arm(self._stp, -1, now)
        if not tap:
            return {}
        keys = self._sheap[:st.nheap]
        due = (keys[keys >> SRC_BITS == now] & ((1 << SRC_BITS) - 1))
        if (self._shead[due] < 0).any():
            self._intern_requests(grow=True)
        out = {}
        for s in due.tolist():
            aid = int(self._shead[s])
            out[self._sinj[s]] = (int(self._psrc[aid]), now,
                                  self._cname[self._pcid[aid]],
                                  int(self._pdst[aid]),
                                  int(self._psize[aid]), False)
        return out

    def arm_source(self, i: int, at: int) -> None:
        """Arm the source of injector ``i`` from ``at``, with the quota
        its mirror holds (a phase restart set it)."""
        s = self._sof[i]
        self._squota[s] = self._srcs[s].quota_left
        self._arm(self._stp, s, at)

    def open_phase(self, left: int) -> None:
        """A new phase: ``left`` phased messages end it."""
        self._st.phleft = left

    def _packet(self, aid: int) -> Packet:
        """The packet ``aid``, built on first use if staged as a row (a
        broadcast branch with its op and the op's other branches)."""
        pkt = self._pkts.get(aid)
        if pkt is None and self._ptraf[aid] == BROADCAST:
            self._open_op(int(self._popx[aid]) & 0xFFFFFFFF)
            pkt = self._pkts[aid]
        elif pkt is None:
            pkt = self._pkts[aid] = Packet(
                int(self._psrc[aid]), int(self._pdst[aid]),
                int(self._psize[aid]), created=int(self._pborn[aid]))
            pkt.cls = self._cname[self._pcid[aid]]
            pkt.tag = self._tag(aid)
            self._nbuilt += 1
        return pkt

    def _tag(self, aid: int):
        """The tag of unicast ``aid`` staged as a row: ``None`` unless it
        is a kernel transaction, then the class (a stream message) or the
        class and the cycle the request fired (a reply: ``_ptxn``)."""
        c = int(self._pcont[aid])
        if c > -2:
            return None
        k = int(self._sk[-2 - c])
        return k if self._eng.request(k)[1] is None else (
            k, int(self._ptxn[aid]))

    def _open_op(self, x: int) -> None:
        """Receipt slot ``x``'s broadcast row becomes objects: its op,
        with the receipts so far, and its branch packets, as
        ``adapter.send_broadcast`` builds them."""
        aids, cls = self._slot_op[x]
        op = self._slot_op[x] = CollectiveOp(
            int(self._psrc[aids[0]]), int(self._pborn[aids[0]]),
            self.net.n - 1)
        op.cls = cls
        self._slot_of[op] = int(self._rtbl[x, RT_GEN]) << 32 | x
        self._fill(x, op)
        for a in aids:
            self._pkts[a] = Packet(op.src, int(self._pdst[a]),
                                   int(self._psize[a]), BROADCAST,
                                   op.created, op)
            self._nbuilt += 1

    # ------------------------------------------------------------------
    # receipts (module docstring)
    # ------------------------------------------------------------------
    def _slot(self, op) -> int:
        """``_popx`` of a packet of ``op``: its receipt slot, opened on
        the op's first packet, and the slot's generation; -1 for no op,
        a complete one, or while receipts are Python's."""
        if op is None or self._kcoll is None or op.completed_at is not None:
            return -1
        word = self._slot_of.get(op)
        if word is None:
            x, = self._open_slots((op,))
            tbl = self._rtbl
            tbl[x, :RT_GEN] = (op.created, op.expected, len(op.deliveries),
                               op.on_complete is not None)
            for node, t in op.deliveries.items():
                tbl[x, RT_ROW + node] = t
            word = self._slot_of[op] = int(tbl[x, RT_GEN]) << 32 | x
        return word

    def _open_slots(self, entries) -> List[int]:
        """Free receipt slots, their receipts cleared, for ``entries`` (ops,
        or broadcast rows' branch aids and class: ``_slot_op``)."""
        free, ops = self._free, self._slot_op
        k = min(len(entries), len(free))
        xs = free[len(free) - k:][::-1] + list(
            range(len(ops), len(ops) + len(entries) - k))
        del free[len(free) - k:]
        ops.extend([None] * (len(entries) - k))
        for x, e in zip(xs, entries):
            ops[x] = e
        while len(ops) > len(self._rtbl):
            tbl = self._rtbl = np.concatenate((self._rtbl,
                                               np.zeros_like(self._rtbl)))
            self._st.bind("rtbl", tbl)
        self._rtbl[xs, RT_ROW:] = -1
        return xs

    def _fill(self, x: int, op) -> None:
        """``op.deliveries`` from slot ``x`` (in node order)."""
        row = self._rtbl[x, RT_ROW:].tolist()
        op.deliveries = {v: t for v, t in enumerate(row) if t >= 0}

    def _complete(self, x: int, now: int) -> None:
        """``EV_COMPLETE``: slot ``x``'s op reached its last expected
        receiver at ``now``."""
        op = self._slot_op[x]
        if type(op) is tuple:       # a broadcast row nobody read
            self._completed(np.array([x]), np.array([now]))
            return
        self._slot_op[x] = None
        self._free.append(x)
        self._fill(x, op)
        op.completed_at = now
        del self._slot_of[op]
        self._rtbl[x, RT_GEN] += 1
        self._kcoll.on_collective_complete(op, now)

    def _completed(self, x: np.ndarray, now: np.ndarray) -> None:
        """``EV_COMPLETE`` of broadcast rows nobody read, slots ``x`` at
        cycles ``now`` (emission order), booked in one pass."""
        xs, ops = x.tolist(), self._slot_op
        aids, names = zip(*map(ops.__getitem__, xs))
        for i in xs:
            ops[i] = None
        self._free += xs
        self._rtbl[x, RT_GEN] += 1
        self._kcoll.on_collectives(
            self._pborn[[a[0] for a in aids]], np.zeros(len(xs), np.int64)
            + self._cids(names), self._cname, now)

    def _sync(self, ops: bool = False) -> None:
        """Write the kernel's receipts back: the per-receiver accumulator
        if it moved and, with ``ops``, every open op's ``deliveries``."""
        st, kc = self._st, self._kcoll
        w = st.d
        if kc is not None and w.n != self._dn:
            self._dn = w.n
            d = kc.delivery
            d.n, d.mean, d._m2, d.min, d.max = w.n, w.mean, w.m2, w.min, w.max
        for op, word in self._slot_of.items() if ops else ():
            self._fill(word & 0xFFFFFFFF, op)

    def _open_ops(self) -> None:
        """Every open broadcast row becomes objects (:meth:`_open_op`):
        Python reads their packets from here on."""
        for x, e in enumerate(self._slot_op):
            if type(e) is tuple:
                self._open_op(x)

    def _release(self) -> None:
        """Python takes every receipt from here on (a fault state, or a
        collector the engine did not adopt)."""
        self._open_ops()
        self._sync(ops=True)
        self._kcoll = None
        self._popx[:] = -1
        self._slot_of.clear()

    def _adopt(self) -> None:
        """(Re)build all dynamic array state from the object graph and
        take ownership of the network.  A packet the engine already holds
        (``_aids``, from :meth:`materialize`) keeps its aid, and with it
        what only the arrays know -- a kernel transaction's credit or
        reply (``_pcont``, ``_ptxn``, ``_psrc``); its ``vclass`` is read
        back from the object.  Only new packets are interned; an unbuilt
        graph (a fresh network: the arrays' zero state) is not read."""
        for arr in (self._qlen, self._front, self._rhead, self._vcreq,
                    self._jof, self._pfid, self._ppend, self._rr, self._fs,
                    self._rqn):
            arr[:] = 0
        for arr in (self._want, self._phead, self._ptail, self._phdr,
                    self._owner):
            arr[:] = -1
        self._pvb[:] = self._PV
        self._pvb2[:] = self._PV
        for arr in (self._dlv, self._hdrf, self._ne, self._fullb, self._rdry):
            arr[:] = False
        self._st.ndry = 0
        self._fullb[self._XB] = True
        self._owner[self._PV] = -2
        self._st.nofast = self.net.fault_state is not None
        self._st.rescan = 1
        self.net.state_owner = self
        if self.net.built is None:
            return
        ports, bufs = self._ports, self._bufs
        self._rr[:] = [port.rr for port in ports]
        self._fs[:] = [port.flits_sent for port in ports]
        self._owner[:self._PV] = [-1 if own is None else own.row
                                  for port in ports for own in port.owner]
        # the buffers holding flits or a switching-table entry
        live = [b for b, buf in enumerate(bufs)
                if buf.q or buf.cur_out is not None]
        resident = {}
        for b in live:
            for pkt, _ in bufs[b].q:
                resident.setdefault(pkt.pid, pkt)
        aid_of, new, pkts = {}, [], self._pkts
        for pid, pkt in resident.items():
            aid = self._aids.get(pid, -1)
            if aid >= 0 and pkts.get(aid) is pkt:
                aid_of[pid] = aid
                self._pvcl[aid] = pkt.vclass
                self._phdr[aid] = -1
            else:
                new.append(pkt)
        if new:
            aid_of.update(zip([p.pid for p in new],
                              self._intern(new).tolist()))
        headers: List[int] = []
        rflat = self._rflat
        inflight = 0
        for b in live:
            buf = bufs[b]
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
                p = buf.cur_out.row
                self._want[b] = p
                self._vcreq[b] = buf.cur_vc
                self._dlv[b] = buf.cur_deliver
                self._jof[b] = self._feeder_pos(b, p)
                self._pvb[b] = 2 * p + buf.cur_vc
            elif n:
                headers.append(b)
        self._st.inflight = inflight
        for b in headers:
            self._route(b)
        for buf in bufs:
            buf.sink = self._staged

    # ------------------------------------------------------------------
    # staging: what the adapters pushed -> arrival rows
    # ------------------------------------------------------------------
    def _stage(self, now: int) -> None:
        """Turn what was injected into arrival rows.  An entry is due at
        ``max(created, now)``, ``now`` being the next cycle to run, with
        a rank among that cycle's rows: *regenerated* (created before it
        is due: a relay segment made by a delivery at ``now - 1``) first,
        then the kernel's continuations, then by class (the mix's
        order); equals keep push order, the rows still waiting first.
        That is the order the reference's FIFOs get.  A few entries are
        interned one by one, O(1) each, more (or any row) in one numpy
        pass, after the queues holding records intern up to their stock,
        each unicast behind its queue's stock as a record; then
        :meth:`_put` places them."""
        staged = self._staged
        each = len(staged) <= _SCALAR_STAGE and all(len(e) == 2
                                                    for e in staged)
        self.net.flits_injected += self._staged_flits()
        if each:
            self._make_room(len(staged))
            key, abuf, aaid = self._intern_each(now)
            if len(key) > 1:
                order = sorted(range(len(key)), key=key.__getitem__)
                key, abuf, aaid = ([col[i] for i in order]
                                   for col in (key, abuf, aaid))
        else:
            if self._rqn.any():
                want = np.zeros(self._B2, np.int64)
                want[self._qrows] = self._rstock
                self._refill(want, now)
            key, abuf, aaid = self._intern_all(now)
        staged.clear()
        self._put(key, abuf, aaid)

    def _intern_each(self, now: int):
        """Intern the staged packets (relay hops, the adapters' object
        pushes) one by one (the columns of :meth:`_intern`, O(1) each);
        their sort key, buffer and aid, in push order."""
        ranks, pkts, cid = self._rank, self._pkts, self._cid
        key, abuf, aaid = [], [], []
        self._nstaged += len(self._staged)
        for row, pkt in self._staged:
            aid = self._pslots.take1()
            if aid >= len(self._pdst):
                self._grow(_PCOLS, aid + 1)
            pkts[aid] = pkt
            cls, born, op = pkt.cls, pkt.created, pkt.op
            self._pcid[aid] = cid[cls] if cls in cid else self._cids((cls,))
            self._pborn[aid] = born
            self._popx[aid] = self._slot(op)
            self._pdst[aid] = pkt.dst
            self._ptraf[aid] = pkt.traffic
            self._psize[aid] = pkt.size
            self._pvcl[aid] = pkt.vclass
            self._phdr[aid] = -1
            if op is not None:
                cls = op.cls
            key.append(now << RANK_BITS if born < now else
                       born << RANK_BITS | ranks.get(cls, RANK_OTHER))
            abuf.append(row)
            aaid.append(aid)
        return key, abuf, aaid

    def _intern_all(self, now: int):
        """Intern what is staged in numpy passes -- every unicast, row or
        window of columns, at once, every broadcast likewise, every
        packet; keys, buffers and aids as :meth:`_intern_each`, sorted."""
        staged, ranks, cid = self._staged, self._rank, self._cid
        nb = len(self._btab[0]) if self._btab else 0
        # per cast (1: a broadcast), column chunks: node, dst, size, class
        # id, created, rank, push order
        rows, chunks, pkts = ([], []), ([], []), []
        for i, e in enumerate(staged):
            if len(e) == 2:
                pkts.append(i)
            elif type(e[0]) is np.ndarray:      # a window of columns
                cyc, node, dst, size, cls = e
                k = len(cyc)
                self._ncols += k * (nb if dst is None else 1)
                if cls not in cid:
                    self._cids((cls,))
                chunks[dst is None].append((
                    node, dst if dst is not None else node, np.full(k, size),
                    np.full(k, cid[cls]), cyc,
                    np.full(k, ranks.get(cls, RANK_OTHER)), np.full(k, i)))
            else:
                rows[e[1] is None].append(i)
                self._nrows += nb if e[1] is None else 1
        for bcast, idx in enumerate(rows):
            if idx:
                node, dst, size, cls, born = zip(*map(staged.__getitem__, idx))
                chunks[bcast].append((
                    node, node if bcast else dst, size,
                    np.zeros(len(idx), np.int64) + self._cids(cls), born,
                    [ranks.get(c, RANK_OTHER) for c in cls], idx))
        uni, bc = (tuple(np.asarray(col[0] if len(col) == 1 else
                                    np.concatenate(col), np.int64)
                         for col in zip(*chunk)) if chunk else None
                   for chunk in chunks)
        new = len(pkts) + (len(bc[0]) * nb if bc else 0)
        if uni:     # which unicasts wait as records: the room the rest need
            node, dst, size, cl, born, rank, seq = uni
            bufs = self._unicast_queues(node, dst)
            rec = self._backlog(bufs, size, born, cl, now)
            new += len(born) - int(rec.sum())
        self._make_room(new)
        parts = []      # (created, rank, buffer, aid, push order)
        if uni:
            parts.append((born, rank, bufs, self._intern_unicasts(
                node, dst, size, cl, born, rec), seq))
        if bc:          # a row per branch
            node, dst, size, cl, born, rank, seq = bc
            parts.append((*(np.repeat(c, nb) for c in (born, rank)),
                          *self._intern_bcasts(node, dst, size, cl, born),
                          np.repeat(seq, nb)))
        if pkts:
            bufs, objs = zip(*map(staged.__getitem__, pkts))
            parts.append(([p.created for p in objs],
                          [ranks.get(p.cls if p.op is None else p.op.cls,
                                     RANK_OTHER) for p in objs],
                          bufs, self._intern(objs), pkts))
        born, rank, abuf, aaid, seq = (
            np.asarray(col[0]) if len(col) == 1 else np.concatenate(col)
            for col in zip(*parts))
        old = born < now
        key = np.where(old, now << RANK_BITS, born << RANK_BITS | rank)
        if len(chunks[0]) + len(chunks[1]) + bool(pkts) > 1 or old.any():
            order = np.lexsort((seq, key))
            key, abuf, aaid = key[order], abuf[order], aaid[order]
        return key, abuf, aaid

    def _put(self, key, abuf, aaid) -> None:
        """Place new arrival rows, sorted by key, among the waiting ones:
        in front of them, into the consumed prefix (the waiting rows
        shift right once if it has no room), where they all lead; else
        written behind them and merged in place (``repro_merge``).
        O(new rows + the waiting rows they pass).  Rows interned one by
        one and placed in front count *late*."""
        st = self._st
        pos, an, n = st.apos, st.an, len(key)
        w = an - pos
        front = not w or key[-1] < (int(self._acyc[pos]) << RANK_BITS
                                    | int(self._arank[pos]))
        if w and pos < n:       # no room in front: waiting -> [n, n + w)
            if 2 * n + w > len(self._acyc):
                self._grow(_ACOLS, 2 * n + w)
            for name in _ACOLS:
                col = getattr(self, name)
                col[n:n + w] = col[pos:an]
            pos, an = n, n + w
        at = (pos - n if w else 0) if front else an
        if at + n > len(self._acyc):
            self._grow(_ACOLS, at + n)
        if type(key) is list:
            acyc, arank = self._acyc, self._arank
            ab, aa = self._abuf, self._aaid
            for j, k, b, aid in zip(range(at, at + n), key, abuf, aaid):
                acyc[j] = k >> RANK_BITS
                arank[j] = k & RANK_OTHER
                ab[j] = b
                aa[j] = aid
        else:
            self._acyc[at:at + n] = key >> RANK_BITS
            self._arank[at:at + n] = key & RANK_OTHER
            self._abuf[at:at + n] = abuf
            self._aaid[at:at + n] = aaid
        if front and (w or type(key) is list):
            self._nlate += n        # one by one, in front of what waits
        if not w:
            st.apos, st.an = 0, n
        elif front:
            st.apos, st.an = pos - n, an
        else:
            st.apos, st.an = pos, an
            self._merge(self._stp, n)

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
                if st.ndry:
                    self._refill_dry(now)
                if st.apos == st.an or self._acyc[st.apos] > now:
                    break

    def _call(self, entry) -> np.ndarray:
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
        events = self._ev[:2 * st.nev].copy()
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
        self.net.objects("python_route")
        buf = self._bufs[b]
        pkt.vclass = int(self._pvcl[aid])
        port, deliver = buf.router.route(buf, pkt)
        self._pvcl[aid] = pkt.vclass
        p = port.row
        vc = int(self._vcmode[p])
        if vc == 2:
            vc = min(pkt.vclass, 1)
        self._phdr[aid] = b
        self._want[b] = p
        # a fault-stuck head may want a port this lane is not wired to
        # (jof 0: it then never matches that port's feeder scan, which
        # is exactly the reference backend's never-granted behaviour)
        self._jof[b] = self._feeder_pos(b, p)
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
        """A delivery event replayed alone: a unicast from its columns
        (then its tag's hook) where :meth:`_replay` cannot book the batch
        (:meth:`_book`); what the kernel left of a receipt it took (a
        relay to regenerate, ``on_tail``); any other collective tail
        through ``Network.deliver``."""
        net = self.net
        pkt = self._pkts.get(aid)   # None: a row nobody read
        if pkt is None and self._ptraf[aid] == BROADCAST:
            pkt = self._packet(aid)     # a broadcast row's branch
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
        born = int(self._pborn[aid])
        self._acoll[node].on_unicast_cols(born, self._cname[self._pcid[aid]],
                                          now)
        tag = self._tag(aid) if pkt is None else pkt.tag
        if tag is not None:
            src = int(self._psrc[aid]) if pkt is None else pkt.src
            net.on_tagged_tail(node, src, tag, born, now)
        if cb is not None:
            cb(node, pkt, now)

    def _book(self, now: np.ndarray, aid: np.ndarray) -> None:
        """Book a batch's unicast tails (columns, emission order) in bulk:
        the collector's statistics, each in one pass in that order, then
        the kernel's transactions' credits and completions."""
        self.net.deliveries += len(aid)
        self._nuni += len(aid)
        self._nbook += len(aid)
        self._kcoll.on_unicasts(self._pborn[aid], self._pcid[aid],
                                self._cname, now)
        cont = self._pcont[aid]
        txn = cont <= -2
        if txn.any():
            src = -2 - cont[txn]
            k = np.bincount(src)
            for s in np.flatnonzero(k).tolist():
                self._srcs[s].outstanding -= int(k[s])
            self._eng.on_completions(self._sk[src],
                                     self._ptxn[aid[txn]], now[txn])

    def _bookable(self, pairs: np.ndarray, kind: np.ndarray) -> tuple:
        """The events of a batch's unicast tails :meth:`_book` takes and of
        its broadcast rows' completions :meth:`_completed` takes: neither
        with receipts Python's, a fault state or ``net.on_tail``, or a
        class both a tail and a completion of the batch feed (one
        statistic, two orders); no tails if they are fewer than
        ``_BOOK_MIN``, no completions if one is an op's."""
        net = self.net
        if (self._kcoll is None or net.fault_state is not None
                or net.on_tail is not None):
            return [], []
        d = (kind == EV_DELIVERY).nonzero()[0]
        d = d[self._ptraf[pairs[d, 1] >> 16] == UNICAST]
        c = (kind == EV_COMPLETE).nonzero()[0]
        ops = [self._slot_op[x] for x in pairs[c, 1].tolist()]
        named = {op[1] if type(op) is tuple else op.cls for op in ops}
        named.discard(None)
        if named and not named.isdisjoint(self._cname[k] for k in set(
                self._pcid[pairs[d, 1] >> 16].tolist())):
            return [], []
        rows = all(type(op) is tuple for op in ops)
        return d if len(d) >= _BOOK_MIN else [], c if rows else []

    # ------------------------------------------------------------------
    # event replay: everything a batch of cycles owes the Python objects
    # ------------------------------------------------------------------
    def _replay(self, events) -> None:
        """Apply a batch's events (int64 pairs) in emission order =
        (cycle, ascending port), so float accumulation order is the
        reference's, in three passes.  The packets the kernel sent
        (``EV_CONT``, ``EV_FIRE``), all at once: booking stamps a packet
        and counts it generated, which no event reads but that packet's
        own later delivery.  The unicast tails, all at once
        (:meth:`_book`), each statistic in their order: no other event
        touches one; the completions of broadcast rows likewise
        (:meth:`_completed`).  Then the rest, one by one: op completions,
        other tails and, after its cycle's deliveries, each header only
        the router can route."""
        events = np.asarray(events, np.int64)
        kind = events[0::2] & 7
        alone = kind < EV_CONT
        pairs = events.reshape(-1, 2)
        whole = alone.all()
        if not whole:
            self._sent(pairs[~alone, 0] >> 3, pairs[~alone, 1],
                       kind[~alone] == EV_FIRE)
        if len(kind) >= _BOOK_MIN:
            d, c = self._bookable(pairs, kind)
            if len(d):
                self._book(pairs[d, 0] >> 3, pairs[d, 1] >> 16)
                alone[d] = whole = False
            if len(c):
                self._completed(pairs[c, 1], pairs[c, 0] >> 3)
                alone[c] = whole = False
        if not whole:
            events = pairs[alone].ravel()
        pnode = self._pnode_py
        it = iter(events.tolist())
        for key, word in zip(it, it):
            kind = key & 7
            if kind == EV_DELIVERY:
                self._deliver(pnode[word & 0xFFFF], word >> 16, key >> 3)
            elif kind == EV_COMPLETE:
                self._complete(word, key >> 3)
            elif kind == EV_ROUTE:
                self._route_one(word)

    def _sent(self, cyc: np.ndarray, word: np.ndarray,
              fire: np.ndarray) -> None:
        """The kernel sent these packets at these cycles: continuations
        (``EV_CONT``: the aid) and requests it fired (``EV_FIRE``: aid <<
        SRC_BITS | source).  What ``adapter.send`` / ``send_due`` and a
        source's ``fire`` book for them, and a request's reply tag
        ``(class, created)``."""
        aid = np.where(fire, word >> SRC_BITS, word)
        self._pborn[aid] = cyc
        self.net.flits_injected += int(self._psize[aid].sum())
        if fire.any():
            req, src = aid[fire], word[fire] & ((1 << SRC_BITS) - 1)
            c = self._pcont[req]
            self._ptxn[req] = cyc[fire]
            self._ptxn[(c[c > 0] & CONT_AID) - 1] = cyc[fire][c > 0]
            for s, k in zip(*(col.tolist() for col in
                              np.unique(src, return_counts=True))):
                self._srcs[s].fire(count=k)
                self._sleft[s] -= k
        self._generated(self._psrc[aid], False)
        cb = self.net.on_continue
        if cb is not None:
            k = np.bincount(self._pcid[aid])
            for c in np.flatnonzero(k).tolist():
                cb(self._cname[c], int(k[c]))

    # ------------------------------------------------------------------
    # SimBackend interface
    # ------------------------------------------------------------------
    def _advance(self, now: int, horizon: int) -> int:
        """Execute cycles ``[now, horizon)``: batches of the C kernel,
        each followed by the replay of its events.  The one place a
        cycle is executed from.  Returns the cycle it stopped before:
        ``horizon``, or earlier after a cycle whose tail or completion
        the closed-loop engine heard (a phase's end: the mix injects
        the barrier or restarts the phase next)."""
        net = self.net
        st = self._st
        fs = net.fault_state
        kc = self._kcoll
        if self._staged:
            self._stage(now)
        if kc is not None and (fs is not None or self._acoll[0] is not kc):
            self._release()     # (the shard worker swaps them all at once)
        st.nofast = fs is not None
        st.stopkinds = (self._stopkinds if fs is None and net.on_tail is None
                        else ALL_KINDS)
        if net.on_tail is not None:
            self._open_ops()    # it is handed each broadcast tail
        st.horizon = horizon
        st.ndl = 0      # no cycle may run: the shard worker reads this
        while now < horizon:
            st.now = now
            events = self._call(self._ck)
            now = st.now
            net.flits_moved += st.moved
            net.deliveries += st.counted
            net.flits_ejected += st.ejected
            if fs is not None:
                fs.ejected_flits += st.ejected
            if len(events):
                self._replay(events)
            if st.ndry:
                self._refill_dry(now)
            if st.stop == STOP_EVENTS:
                self._grow(("_ev",), 0)
                st.evcap = len(self._ev) // 2
            elif st.stop == STOP_REQUESTS:
                self._intern_requests(grow=True)
            if st.heard:
                break
            if self._staged and now < horizon:
                self._stage(now)    # regenerated by a delivery
        self._sync()
        net.cycle = now
        return now

    def step(self, now: Optional[int] = None) -> int:
        net = self.net
        if now is None or now < net.cycle:
            now = net.cycle
        before = net.flits_moved
        self._advance(now, now + 1)
        return net.flits_moved - before

    def _staged_sizes(self):
        """``(packets, flits a packet)`` of each entry staged and not
        interned yet."""
        nb = len(self._btab[0]) if self._btab else 0
        for e in self._staged:
            if len(e) == 2:
                yield 1, e[1].size
            elif type(e[0]) is np.ndarray:
                yield len(e[0]) * (nb if e[2] is None else 1), e[3]
            else:
                yield nb if e[1] is None else 1, e[2]

    def _staged_flits(self) -> int:
        """Flits of the entries staged and not interned yet."""
        return sum(k * size for k, size in self._staged_sizes())

    def total_flits(self) -> int:
        """Flits in the fabric, staged or waiting to fold included."""
        st = self._st
        n = st.inflight + self._staged_flits()
        if st.apos < st.an:
            ent = self._aaid[st.apos:st.an]
            rec = ent < 0
            n += (int(self._psize[ent[~rec]].sum())
                  + int(self._rsize[-2 - ent[rec]].sum()))
        return n

    def pending_flits(self) -> int:
        """Flits of the continuations in the due ring."""
        return self._st.contflits

    def _flit_balance(self) -> int:
        """:meth:`SimBackend._flit_balance`, an entry staged counted
        injected (:meth:`_stage` counts it when it interns it)."""
        return super()._flit_balance() + self._staged_flits()

    @staticmethod
    def _ranks(mix: "TrafficMix") -> Dict[Optional[str], int]:
        """The rank of each class's staged rows (``RANK_*``)."""
        ranks = {c.name: RANK_CLASS + k
                 for k, c in enumerate(mix.classes or ())}
        eng = mix._cl_engine
        if getattr(eng, "wl", None) is not None and eng.wl.barrier:
            ranks[eng.wl.barrier] = RANK_ENGINE
        return ranks

    def run_mix(self, mix: "TrafficMix", cycles: int,
                probes: Optional[Probes] = None) -> None:
        """The one run loop (:meth:`SimBackend.run_mix`, which checks the
        run's flit identity), then the receipts written back and the
        flits in flight checked: one packet-table mark (:meth:`_live`,
        O(rows + used slots + records)) raises :class:`ConservationError`
        unless the flits it walks are ``State.inflight``."""
        self._rank = self._ranks(mix)
        super().run_mix(mix, cycles, probes)
        self._sync(ops=True)
        self._live()

    # ------------------------------------------------------------------
    # inspection view: arrays -> object graph
    # ------------------------------------------------------------------
    def materialize(self) -> None:
        """Rebuild the object graph (buffer deques, switching tables,
        port state, router flit counts, ``Packet.vclass``, the
        closed-loop sources' ``rng`` state) from the arrays, the queues'
        backlog records interned first (:meth:`_intern_backlog`).  The
        arrays stay authoritative."""
        if self.net.state_owner is not self:
            return
        self.net.objects("materialize")
        self._flush()
        self._intern_backlog()
        self._sync(ops=True)
        for src, mt in zip(self._srcs, self._smt.tolist()):
            src.rng.setstate((src.rng.VERSION, tuple(mt), src.rng.gauss_next))
        packet, rflat = self._packet, self._rflat
        aids = self._aids = {}
        qlen, want, hdrf = (a.tolist() for a in (self._qlen, self._want,
                                                 self._hdrf))
        for b, buf in enumerate(self._bufs):
            n = qlen[b]
            if not n:
                buf.q = EMPTY
            else:       # a queue only where there are flits
                q = buf.q = deque()
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
                        aids[pkt.pid] = aid
                    q.append((pkt, v & FIDMASK))
                aid = int(self._phead[b])
                fid = int(self._pfid[b])
                while aid >= 0:     # the flits still in packet form
                    pkt = packet(aid)
                    aids[pkt.pid] = aid
                    q.extend((pkt, i) for i in range(fid, pkt.size))
                    aid = int(self._pnext[aid])
                    fid = 0
            w = want[b]
            if w >= 0 and not hdrf[b]:
                buf.cur_out = self._ports[w]
                buf.cur_vc = int(self._vcreq[b])
                buf.cur_deliver = bool(self._dlv[b])
                buf.cur_pkt = buf.q[0][0] if n else None
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
        self.net.objects("detach")
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
            down[2 * port.row] = self._XB
            down[2 * port.row + 1] = self._XB
        self.resync()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ArrayBackend net={self.net.name!r} "
                f"inflight={self._inflight}>")
