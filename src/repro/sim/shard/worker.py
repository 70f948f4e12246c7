"""Per-shard execution engine: a full array backend, spatially gated.

Each worker builds the *complete* network and array state (identical,
deterministic construction from the shared :class:`RunConfig`) but only
animates its own contiguous arc of it:

* the traffic mix is pruned to the shard's nodes (per-node RNG streams
  make the draw sequence independent of other nodes);
* route refreshes are filtered to owned buffer rows (non-owned rows
  lose their route-table flag, so their headers surface as ROUTE events
  the ``_route_one`` filter drops), so non-owned rows stay inert --
  the unmodified cycle then simply never moves remote flits;
* flits granted through a *cut* port land in a remote row, are
  harvested after the step into halo records (``repro.sim.shard
  .records``), and applied by the owning shard at the start of the next
  cycle -- which is exactly when the serial engine would first act on
  them (a flit pushed at cycle t arbitrates at t+1);
* downstream credit for cut links comes from *ghost credits*: the row
  owner publishes its end-of-cycle occupancy, the sender adds its own
  in-transit flit, reproducing the serial start-of-cycle ``fullb`` bit
  exactly;
* dateline VC-class upgrades of shipped packets are broadcast
  (``REC_VCLASS``) so every replica tracks the serial run's single
  shared ``Packet.vclass``;
* deliveries are *recorded*, not accounted: collector callbacks are
  captured as raw events and replayed by the merge in exact serial
  order (ascending cycle, then shard, then within-shard sequence --
  which equals ascending port order because shard port ranges are
  contiguous and ascending), so every float accumulates in the
  reference order and the merged summary is byte-identical.

The owner rule for cut-link arbitration: the *sender* owns the port
(and its round-robin/owner state) and arbitrates exactly as the serial
engine would -- remote credit is the only foreign input, supplied by
the ghost-credit exchange one cycle in arrears, which matches the
serial dependence (phase A reads start-of-cycle occupancy).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.noc.packet import CollectiveOp, Packet
from repro.sim.array_backend import FSHIFT
from repro.sim.shard.records import (GID_SHIFT, REC_PKT, REC_PUSH,
                                     REC_VCLASS, decode_pkt, encode_pkt)

__all__ = ["ShardWorker", "ShardRecorder"]


class ShardRecorder:
    """Collector stand-in: captures delivery events for merge replay.

    Swapped into every adapter (and the backend's ``_acoll`` fast path)
    so no worker-local float accumulation happens; the master replays
    the merged event stream into the real collector.  A collective tail
    is recorded raw, ``("c", now, node, op gid)``, every arrival of it:
    the replay applies the arrival rule against the *global* op replicas
    (cross-shard dedup, e.g. the antipodal duplicate delivery, only
    resolves globally; worker-local op state is never touched)."""

    def __init__(self, gid_for_op):
        self.gid_for_op = gid_for_op
        self.events: List[tuple] = []
        self.note_unicast = 0
        self.note_collective = 0
        self.relay_segments = 0

    # -- generation side -------------------------------------------------
    def note_generated(self, collective: bool, k: int = 1) -> None:
        if collective:
            self.note_collective += k
        else:
            self.note_unicast += k

    # -- delivery side ---------------------------------------------------
    def on_unicast(self, pkt, now: int) -> None:
        self.events.append(("u", now, pkt.created, pkt.cls))

    def on_unicast_cols(self, created: int, cls, now: int) -> None:
        self.events.append(("u", now, created, cls))

    def on_collective_tail(self, op, node: int, now: int) -> None:
        self.events.append(("c", now, node, self.gid_for_op(op)))

    def on_relay_segment(self) -> None:
        self.relay_segments += 1


class ShardWorker:
    """Drives one shard of a sharded run over its own session.

    ``session`` must be freshly built (cycle 0) with the array backend
    attached and no faults; ``plan`` is the shared
    :class:`~repro.sim.shard.partition.ShardPlan`; ``probes`` is the
    cycle->callback dict mirroring the serial run's (fired one wall
    cycle late, after the halo apply, which restores exact post-step
    serial state)."""

    def __init__(self, session, plan, w: int, transport,
                 probes: Dict[int, object]):
        self.session = session
        self.plan = plan
        self.w = w
        self.transport = transport
        self.probes = probes
        self.net = session.net
        self.mix = session.mix
        be = session.backend
        self.be = be
        self.cycles = session.config.spec.cycles
        self.n_lo, self.n_hi = plan.node_ranges[w]
        self.b_lo, self.b_hi = plan.buf_ranges[w]
        self.cut_out = plan.cut_out[w]
        self.recorder = ShardRecorder(self._gid_for_op)

        # gid machinery: per-worker packet/op serials, origin-stamped ids;
        # the engine keeps every gid'd aid live (held_aids)
        self._gid_of: Dict[int, int] = {}        # local aid -> gid
        self._gid2aid: Dict[int, int] = {}       # gid -> local aid
        self._pkt_serial = 0
        be.aid_holders.append(self)
        self._sent_gids = [set() for _ in range(plan.shards)]
        self._ops: Dict[int, CollectiveOp] = {}  # op gid -> replica
        self._op_gid: Dict[int, tuple] = {}      # id(op) -> (gid, op)
        self._op_serial = 0
        self._ops_shipped: Dict[int, tuple] = {}
        self._sent_rows: Set[int] = set()
        self._clsid = {None: 0}
        self._cls_of: List[Optional[str]] = [None]
        if self.mix.classes:
            for i, c in enumerate(self.mix.classes):
                self._clsid[c.name] = i + 1
                self._cls_of.append(c.name)
        self._my_pub_rows = [r for r in plan.pub_rows
                             if self.b_lo <= r < self.b_hi]
        #: debug seam (``tests/differential.py``): called as
        #: ``on_applied(worker, t)`` right after the halo apply, when
        #: the owned slice of state equals serial post-step(t - 1)
        self.on_applied = None

        self._prune_mix()
        self._swap_collectors()
        self._gate_backend()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _prune_mix(self) -> None:
        """Keep only this shard's injection tokens.  Every stream the
        injectors consume is per-node (``node{i}.*``), so dropping other
        nodes' tokens does not perturb owned nodes' draw sequences."""
        mix = self.mix
        keep = [i for i, (v, _) in enumerate(mix.tokens)
                if self.n_lo <= v < self.n_hi]
        mix.tokens = [mix.tokens[i] for i in keep]
        mix._injectors = [mix._injectors[i] for i in keep]

    def _swap_collectors(self) -> None:
        """Point every adapter (and the backend's ``_acoll`` fast paths)
        at the recorder.  The session's real collector stays pristine for
        the master's merge replay; the engine, seeing a collector it did
        not adopt, leaves every collective tail to ``receive_tail``."""
        if self.net.on_tail is not None:
            raise AssertionError(
                "sharded runs cannot compose with net.on_tail hooks")
        rec = self.recorder
        for ad in self.net.adapters:
            ad.collector = rec
        self.be._acoll = [rec] * len(self.net.adapters)

    def _gate_backend(self) -> None:
        be = self.be
        blo, bhi = self.b_lo, self.b_hi

        # refresh filter: non-owned rows are never routed, so remote
        # state stays inert and the full-size kernels skip it for free.
        # Without a table flag the cycle hands their headers to
        # _route_one, which drops them
        orig_route = be._route_one

        def route_one(b):
            if blo <= b < bhi:
                orig_route(b)

        be._route_one = route_one
        be._rtflag[:blo] = 0
        be._rtflag[bhi:] = 0

    # ------------------------------------------------------------------
    # gid helpers
    # ------------------------------------------------------------------
    def _gid_for_aid(self, aid: int) -> int:
        g = self._gid_of.get(aid)
        if g is None:
            g = (self.w << GID_SHIFT) | self._pkt_serial
            self._pkt_serial += 1
            self._gid_of[aid] = g
            self._gid2aid[g] = aid
        return g

    def held_aids(self):
        """The aids a gid names: a halo record may name any of them for
        as long as the run lasts, so the engine keeps them live."""
        return self._gid_of.keys()

    def _gid_for_op(self, op) -> int:
        hit = self._op_gid.get(id(op))
        if hit is not None:
            return hit[0]
        g = (self.w << GID_SHIFT) | self._op_serial
        self._op_serial += 1
        self._op_gid[id(op)] = (g, op)      # strong ref: id() stays valid
        self._ops[g] = op
        self._ops_shipped[g] = (op.src, op.created, op.expected,
                                op.kind, op.cls)
        return g

    # ------------------------------------------------------------------
    # per-cycle protocol
    # ------------------------------------------------------------------
    def do_cycle(self, t: int) -> None:
        msgs = self.transport.recv(self.w, t)
        self._apply(msgs)
        hook = self.on_applied
        if hook is not None:
            hook(self, t)
        cb = self.probes.get(t - 1)
        if cb is not None:
            # deferred one wall cycle: post-apply state == serial
            # post-step(t-1) state, and mix counters are untouched
            # until generate(t) below
            cb(t - 1)
        self._ghost_credits(t)
        self.mix.generate(t)
        be = self.be
        be._st.rescan = 1       # the halo and ghost credits wrote rows
        be.step(t)
        out = self._harvest()
        self.transport.send(
            self.w, t, out, self._my_pub_rows,
            [int(be._qlen[r]) for r in self._my_pub_rows])

    def finish(self) -> None:
        """Apply the last cycle's halo and fire its deferred probes."""
        cycles = self.cycles
        msgs = self.transport.recv(self.w, cycles)
        self._apply(msgs)
        cb = self.probes.get(cycles - 1)
        if cb is not None:
            cb(cycles - 1)
        if self.session.profiler is not None:
            self.session.profiler.finish()

    # ------------------------------------------------------------------
    # halo: harvest (sender side)
    # ------------------------------------------------------------------
    def _harvest(self) -> Dict[int, List[int]]:
        be = self.be
        qlen = be._qlen
        out: Dict[int, List[int]] = {}
        sent_rows = self._sent_rows
        for pv, row, dest in self.cut_out:
            ql = int(qlen[row])
            if not ql:
                continue
            if ql != 1:
                raise AssertionError(
                    f"cut row {row} holds {ql} flits after one cycle")
            word = int(be._rflat[be._rbase_py[row]
                                 + (int(be._rhead[row])
                                    & be._rmask_py[row])])
            aid = word >> FSHIFT
            gid = self._gid_for_aid(aid)
            lst = out.get(dest)
            if lst is None:
                lst = out[dest] = []
            if gid not in self._sent_gids[dest]:
                self._sent_gids[dest].add(gid)
                pkt = be._packet(aid)
                pkt.vclass = int(be._pvcl[aid])
                opgid = (self._gid_for_op(pkt.op)
                         if pkt.op is not None else 0)
                opcls = (self._clsid[pkt.op.cls]
                         if pkt.op is not None else 0)
                encode_pkt(lst, gid, pkt, opgid, self._clsid[pkt.cls],
                           opcls)
            lst.extend((REC_PUSH, row, gid, word & ((1 << FSHIFT) - 1)))
            # transient-row reset: the flit now exists only on the wire
            qlen[row] = 0
            be._ne[row] = False
            be._fullb[row] = False
            be._inflight -= 1
            sent_rows.add(row)
        # dateline upgrades of shipped packets -> broadcast
        ndl = be._st.ndl
        if ndl:
            seen: Set[int] = set()
            vgids: List[int] = []
            for word in be._outdl[:ndl].tolist():
                g = self._gid_of.get(word >> FSHIFT)
                if g is not None and g not in seen:
                    seen.add(g)
                    vgids.append(g)
            if vgids:
                for dest in range(self.plan.shards):
                    if dest == self.w:
                        continue
                    lst = out.get(dest)
                    if lst is None:
                        lst = out[dest] = []
                    for g in vgids:
                        lst.extend((REC_VCLASS, g))
        return out

    # ------------------------------------------------------------------
    # halo: apply (receiver side)
    # ------------------------------------------------------------------
    def _apply(self, msgs: List[Tuple[int, List[int]]]) -> None:
        if not msgs:
            return
        be = self.be
        qlen = be._qlen
        refresh: List[int] = []
        for _sender, words in msgs:
            i = 0
            nwords = len(words)
            while i < nwords:
                typ = int(words[i])
                if typ == REC_PUSH:
                    row = int(words[i + 1])
                    gid = int(words[i + 2])
                    word = ((self._gid2aid[gid] << FSHIFT)
                            | int(words[i + 3]))
                    i += 4
                    ql = int(qlen[row])
                    cap = be._cap_py[row]
                    if ql >= cap:
                        raise AssertionError(
                            f"halo push into full row {row}")
                    be._rflat[be._rbase_py[row]
                              + ((int(be._rhead[row]) + ql)
                                 & be._rmask_py[row])] = word
                    qlen[row] = ql + 1
                    be._ne[row] = True
                    be._fullb[row] = ql + 1 >= cap
                    be._inflight += 1
                    if ql == 0:
                        be._front[row] = word
                        if int(be._want[row]) < 0:
                            refresh.append(row)
                elif typ == REC_PKT:
                    i, f = decode_pkt(words, i)
                    self._make_replica(f)
                elif typ == REC_VCLASS:
                    gid = int(words[i + 1])
                    i += 2
                    aid = self._gid2aid.get(gid)
                    if aid is not None:
                        be._pvcl[aid] = 1
                        hb = int(be._phdr[aid])
                        if (hb >= 0 and be._hdrf[hb] and be._ne[hb]
                                and (int(be._front[hb]) >> FSHIFT)
                                == aid):
                            refresh.append(hb)
                else:
                    raise AssertionError(f"bad halo record type {typ}")
        # all candidates are owned rows; refreshing them here mirrors
        # the serial end-of-cycle refresh
        for row in sorted(set(refresh)):
            be._route(row)

    def _make_replica(self, f: Dict[str, object]) -> None:
        gid = f["gid"]
        if gid in self._gid2aid:            # pragma: no cover - defensive
            return
        op = None
        od = f["op"]
        if od is not None:
            og = od["gid"]
            op = self._ops.get(og)
            if op is None:
                op = CollectiveOp(od["src"], od["created"],
                                  od["expected"], od["kind"])
                op.cls = self._cls_of[od["clsid"]]
                self._ops[og] = op
                self._op_gid[id(op)] = (og, op)
        pkt = Packet(f["src"], f["dst"], f["size"], f["traffic"],
                     created=f["created"], op=op,
                     bitstring=f["bitstring"])
        pkt.vclass = f["vclass"]
        pkt.cls = self._cls_of[f["clsid"]]
        meta = f["meta"]
        if meta is not None:
            pkt.meta.update(meta)
        self.be._make_room(1)
        aid, = self.be._intern((pkt,)).tolist()
        self._gid_of[aid] = gid
        self._gid2aid[gid] = aid

    # ------------------------------------------------------------------
    # ghost credits (sender side, start of cycle)
    # ------------------------------------------------------------------
    def _ghost_credits(self, t: int) -> None:
        """Set ``fullb`` for every cut-out row to the serial
        start-of-cycle value: the owner's published end-of-(t-1)
        occupancy plus this shard's own in-transit flit."""
        pub = self.transport.pub_read(self.w, t)
        be = self.be
        fullb = be._fullb
        cap = be._cap_py
        sent = self._sent_rows
        for _pv, row, _dest in self.cut_out:
            occ = int(pub[row]) + (1 if row in sent else 0)
            fullb[row] = occ >= cap[row]
        sent.clear()

    # ------------------------------------------------------------------
    # results (shipped to the master merge)
    # ------------------------------------------------------------------
    def results(self) -> Dict[str, object]:
        be = self.be
        mix = self.mix
        net = self.net
        rec = self.recorder
        session = self.session
        return {
            "events": rec.events,
            "ops": self._ops_shipped,
            "note_generated": (rec.note_unicast, rec.note_collective),
            "relay_segments": rec.relay_segments,
            "mix_counters": (mix.generated_unicasts,
                             mix.generated_broadcasts,
                             dict(mix.class_generated)),
            "net_counters": (net.flits_moved, net.deliveries),
            "total_flits": be.total_flits(),
            "backlog_mid": session._backlog_mid,
            "probe_records": (session.probe_set.records
                              if session.probe_set is not None else None),
            "profile": (session.profiler.report()
                        if session.profiler is not None else None),
        }
