/* The array engine's cycle, compiled on demand by repro.sim.ckernel:
 * repro_run() executes cycles [now, horizon) over the array-resident
 * state until Python is needed, and returns the next cycle to execute.
 * This file is the only definition of the cycle; a host that cannot
 * build it runs the reference backend.  Python also calls three of its
 * steps alone: repro_fold() (an inspection folds what is due),
 * repro_refresh() (a header adopted or received from a halo) and
 * repro_wake() (a header Python routed).
 *
 * State.  One repro_state struct, assembled once per attach
 * (ArrayBackend._build_static) and mirrored field for field by
 * ckernel.State; repro_state_size() lets the loader refuse a drifted
 * layout.  Pointers are caller-owned numpy buffers: per-buffer and
 * per-port columns at fixed addresses, the per-packet columns, the
 * arrival rows, the receipt table and the event buffer re-pointed by
 * Python whenever it grows them (only ever between two calls).  bestpr
 * must arrive filled with BIG and pcand zeroed; every slot consumed is
 * re-armed.
 *
 * One cycle.
 *   fold     arrival rows (cycle, buffer, aid) due at `now` join their
 *            buffer's pending-packet FIFO (phead/ptail/pnext, pfid =
 *            next flit of the head packet); flit words
 *            (aid << 20) | tail | fid are generated while the ring
 *            slice has room, qlen counts every flit either way.
 *   idle     nothing in flight: the clock jumps to the next arrival
 *            row or the horizon.
 *   phase A  eligibility + round-robin pick against start-of-cycle
 *            state over the ready set (below), ascending buffer, strict
 *            '<' (lowest buffer wins a priority tie); a port with a
 *            candidate sets its bit of pcand.
 *   phase B  winners commit in ascending flat-port order, the set bits
 *            of pcand: pop (topping the ring up from the pending FIFO),
 *            switching tables, deliver-clone, then eject or dateline +
 *            push; a tail that reaches a PE is a receipt, an event or
 *            both (take_tail).
 *   refresh  dateline crossings upgrade the packet's vclass (and
 *            re-refresh its blocked, already-routed header), then every
 *            newly exposed header is routed from the packed table:
 *            row b, entry (jof << 24) | (port << 4) | (bclone << 2) |
 *            (vreset << 1) | deliver, gated by rtflag[b] (0 none,
 *            1 every class but multicast, 2 every class); bclone =
 *            clone to the PE if the packet is a BROADCAST.
 *
 * Ready set.  Phase A examines only the rows whose bit of rdy is set and
 * clears the bit of a row it finds empty or ineligible; a candidate
 * keeps it (a loser is still eligible next cycle).  A row outside the
 * set is therefore empty or blocked, and stays so until one of these
 * wakes it (setting a bit is always safe, missing one is a wrong run):
 *   - a pop from a full row d wakes the feeders of port upof[d] >> 1
 *     (fbuf[fptr[p] .. fptr[p + 1]): its downstream has room again;
 *   - an owner release at port*2+vc wakes the feeders of that port;
 *   - a push into an empty row, and a fold that fills an empty one,
 *     wake that row (its front changed);
 *   - a successful repro_refresh wakes its row: newly exposed headers,
 *     dateline re-refreshes and every header Python routes by table;
 *     a header the router routed in Python is woken by repro_wake.
 * Rescan contract: Python sets `rescan` wherever it writes per-buffer or
 * per-port columns itself beyond one routed row (adoption, the shard
 * worker's halo); the next repro_run rebuilds rdy from ne and clears
 * the flag.  The set lives across entries otherwise.
 *
 * Receipts.  popx = (generation << 32) | slot names a collective
 * packet's receipt-table slot (-1: Python takes it).  The tail is then
 * LatencyCollector.on_collective_tail: a node's first arrival records
 * the cycle, bumps the count, folds now - created into dn .. dm2 by
 * OnlineStats.add's operations (no FMA: -ffp-contract=off) if created
 * >= warmup; the expected-th emits COMPLETE.  A stale generation is a
 * duplicate tail of an op already complete: no receipt.
 *
 * Stop rule.  What needs Python objects becomes an event; the batch
 * ends at the end of the cycle that emitted
 *   - a ROUTE event: a header the table cannot answer (no row, a
 *     multicast on a row without it, anything under `nofast`).  The
 *     fold emits these too and then stops *before* phase A, `now`
 *     unchanged: Python routes the header and re-enters the same cycle;
 *   - a DELIVERY of a tail that cannot wait: its traffic kind's bit is
 *     set in `stopkinds` (the kinds whose delivery may push a packet
 *     back into the network; every kind under on_tail / faults).
 *     Other events ride along and are replayed after the batch in
 *     emission order = (cycle, port);
 * or before a cycle that could overflow the event buffer (a cycle emits
 * at most EV_PER_PORT events a port), or at the horizon.
 *
 * Events are int64 pairs: ev[2i] = (cycle << 3) | kind, ev[2i + 1] =
 *   EV_DELIVERY (aid << 16) | port     EV_ROUTE    buffer row
 *   EV_DATELINE flit word              EV_WINNER   buffer row
 *   EV_COMPLETE receipt-table slot (before the same tail's DELIVERY)
 * the DATELINE and WINNER only under `trace` (tests, divergence hunts).
 * outdl / ndl keep the dateline flit words of the last executed cycle
 * for the shard worker.
 */

#include <stdint.h>

#define FSHIFT 20
#define TAILBIT ((int64_t)1 << 19)
#define FIDMASK (TAILBIT - 1)
#define BIG ((int64_t)1 << 30)
#define MULTICAST 1
#define BROADCAST 2
#define EV_PER_PORT 8
#define FOLD_OVERFLOW (-1)
#define FOLD_FULL (-2)

enum { STOP_HORIZON, STOP_ROUTE, STOP_DELIVERY, STOP_EVENTS };
enum { EV_DELIVERY, EV_ROUTE, EV_DATELINE, EV_WINNER, EV_COMPLETE };
/* a receipt-table slot: these, then N arrival cycles (-1: none yet) */
enum { RT_CREATED, RT_EXPECTED, RT_COUNT, RT_GEN, RT_ROW };

typedef struct {
    /* geometry and the collector's warmup, fixed while attached */
    int64_t B, P, PV, SB, Fm1, rstride, N, warmup;
    /* control, written by Python before each entry */
    int64_t now, horizon, nofast, stopkinds, trace, rescan;
    /* run state */
    int64_t inflight, apos, an, nev, evcap;
    /* outputs of the last entry / last executed cycle */
    int64_t stop, moved, ejected, ndl, counted;
    /* cumulative work counters (the phase profiler's); scanned counts
     * the non-empty rows phase A examined from the ready set */
    int64_t calls, cycles, scanned, cands, flits, receipts, wakes, rescans;
    int64_t stops[4];
    int64_t dn, dmin, dmax;     /* the per-receiver delay accumulator */
    double dmean, dm2;
    /* per buffer */
    int64_t *qlen, *front, *rhead, *want, *vcreq, *jof, *pvb, *pvb2;
    int64_t *phead, *ptail, *pfid, *ppend;
    uint8_t *dlv, *hdrf, *ne, *fullb;
    const uint8_t *rtflag, *isdl;
    /* per port (owner/down per port*2+vc) */
    int64_t *owner, *rr, *fs;
    const int64_t *down, *rbase, *rmask, *qcap, *vcmode, *pv2of, *rtab;
    const int64_t *pnode;
    int64_t *rflat;
    /* the ready set: a bit per row and per port; each port's feeder
     * rows; upof[b], the port*2+vc whose down is b (-1: none) */
    uint64_t *rdy, *pcand;
    const int64_t *fptr, *fbuf, *upof;
    /* per-cycle scratch */
    int64_t *bestpr, *bestb, *bestvc, *outdl, *outrf;
    /* per packet (aid), growable */
    int64_t *pdst, *ptraf, *psize, *pvcl, *phdr, *pnext, *popx;
    /* arrival rows [apos, an), growable */
    int64_t *acyc, *abuf, *aaid;
    /* receipt table, RT_ROW + N int64 a slot, growable */
    int64_t *rtbl;
    /* event buffer, evcap pairs, growable */
    int64_t *ev;
} repro_state;

int64_t repro_state_size(void) { return (int64_t)sizeof(repro_state); }

#define BIT(i) ((uint64_t)1 << ((i) & 63))

/* Row b joins the ready set. */
static void wake(repro_state *s, int64_t b)
{
    s->rdy[b >> 6] |= BIT(b);
    s->wakes++;
}

void repro_wake(repro_state *s, int64_t b) { wake(s, b); }

/* Every feeder of port p joins the ready set: a VC of p was released or
 * a downstream row of p has room again. */
static void wake_port(repro_state *s, int64_t p)
{
    const int64_t *f = s->fbuf + s->fptr[p], *end = s->fbuf + s->fptr[p + 1];
    uint64_t *rdy = s->rdy;
    s->wakes += end - f;
    for (; f < end; f++)
        rdy[*f >> 6] |= BIT(*f);
}

static void emit(repro_state *s, int64_t kind, int64_t cyc, int64_t word)
{
    s->ev[2 * s->nev] = (cyc << 3) | kind;
    s->ev[2 * s->nev + 1] = word;
    s->nev++;
}

/* The tail of packet aid reached the PE of port p's node: the kernel's
 * receipt (see the header) if popx names a slot, and a DELIVERY event
 * unless it was and the kind is not in stopkinds.  Returns 1 if the
 * batch must end after this cycle. */
static int take_tail(repro_state *s, int64_t aid, int64_t p, int64_t now)
{
    int64_t x = s->popx[aid] & 0xFFFFFFFF;
    int stop = (int)((s->stopkinds >> s->ptraf[aid]) & 1);
    if (s->popx[aid] >= 0) {
        int64_t *slot = s->rtbl + x * (RT_ROW + s->N);
        int64_t *at = slot + RT_ROW + s->pnode[p];
        s->counted++;
        if (s->popx[aid] >> 32 == slot[RT_GEN] && *at < 0) {
            int64_t v = now - slot[RT_CREATED];
            double delta = (double)v - s->dmean;    /* OnlineStats.add */
            *at = now;
            if (slot[RT_CREATED] >= s->warmup) {
                s->dn++;
                s->dmean += delta / (double)s->dn;
                s->dm2 += delta * ((double)v - s->dmean);
                s->dmin = s->dn == 1 || v < s->dmin ? v : s->dmin;
                s->dmax = s->dn == 1 || v > s->dmax ? v : s->dmax;
            }
            if (++slot[RT_COUNT] == slot[RT_EXPECTED])
                emit(s, EV_COMPLETE, now, x);
        }
        if (!stop)
            return 0;
    }
    emit(s, EV_DELIVERY, now, (aid << 16) | p);
    return stop;
}

/* Generate flit words of b's pending packets while its ring has room. */
static void top_up(repro_state *s, int64_t b)
{
    int64_t mask = s->rmask[b], base = s->rbase[b];
    int64_t inring = s->qlen[b] - s->ppend[b];
    int64_t wr = s->rhead[b] + inring;
    int64_t aid = s->phead[b], fid = s->pfid[b];
    while (aid >= 0 && inring <= mask) {
        int64_t last = s->psize[aid] - 1;
        s->rflat[base + (wr & mask)] =
            (aid << FSHIFT) | (fid == last ? TAILBIT : 0) | fid;
        wr++;
        inring++;
        s->ppend[b]--;
        if (fid == last) {
            aid = s->pnext[aid];
            fid = 0;
        } else {
            fid++;
        }
    }
    s->phead[b] = aid;
    s->pfid[b] = fid;
    if (aid < 0)
        s->ptail[b] = -1;
}

/* Route the header at the front of b from the table; 1, and nothing
 * written, when only Python can answer. */
int64_t repro_refresh(repro_state *s, int64_t b)
{
    int64_t aid = s->front[b] >> FSHIFT;
    int64_t ent, p, vc;
    int flag = s->rtflag[b];
    if (s->nofast || !flag || (flag == 1 && s->ptraf[aid] == MULTICAST))
        return 1;
    ent = s->rtab[b * s->rstride + s->pdst[aid]];
    p = (ent >> 4) & 0xFFFFF;
    if (ent & 2)
        s->pvcl[aid] = 0;
    vc = s->vcmode[p];
    if (vc == 2)
        vc = s->pvcl[aid] < 2 ? s->pvcl[aid] : 1;
    s->phdr[aid] = b;
    s->want[b] = p;
    s->jof[b] = ent >> 24;
    s->vcreq[b] = vc;
    s->dlv[b] = (ent & 1) | ((ent >> 2) & (s->ptraf[aid] == BROADCAST));
    s->hdrf[b] = 1;
    s->pvb[b] = 2 * p + vc;
    s->pvb2[b] = s->pv2of[p];
    wake(s, b);
    return 0;
}

/* repro_refresh, or a ROUTE event (returns 1) for Python. */
static int refresh(repro_state *s, int64_t b, int64_t cyc)
{
    if (!repro_refresh(s, b))
        return 0;
    emit(s, EV_ROUTE, cyc, b);
    return 1;
}

/* fold: arrival rows due at `now` join their buffer's pending FIFO.
 * Returns the ROUTE events emitted, FOLD_FULL when the event buffer
 * filled first, or FOLD_OVERFLOW -- a flow-control bug -- with the row
 * whose buffer has no room left at apos for Python to name. */
static int64_t fold(repro_state *s, int64_t now)
{
    int64_t nroute = 0;
    while (s->apos < s->an && s->acyc[s->apos] <= now) {
        int64_t b = s->abuf[s->apos], aid = s->aaid[s->apos];
        int64_t size = s->psize[aid], ql0 = s->qlen[b];
        if (s->nev >= s->evcap)
            return FOLD_FULL;
        if (ql0 + size > s->qcap[b])
            return FOLD_OVERFLOW;
        s->apos++;
        s->pnext[aid] = -1;
        if (s->ptail[b] >= 0) {
            s->pnext[s->ptail[b]] = aid;
        } else {
            s->phead[b] = aid;
            s->pfid[b] = 0;
        }
        s->ptail[b] = aid;
        s->qlen[b] = ql0 + size;
        s->ppend[b] += size;
        s->inflight += size;
        s->ne[b] = 1;
        if (ql0 + size >= s->qcap[b])
            s->fullb[b] = 1;
        top_up(s, b);
        if (ql0 == 0) {
            s->front[b] = s->rflat[s->rbase[b] + (s->rhead[b] & s->rmask[b])];
            wake(s, b);
            if (s->want[b] < 0)
                nroute += refresh(s, b, now);
        }
    }
    return nroute;
}

int64_t repro_fold(repro_state *s) { return fold(s, s->now); }

/* The lowest set bit >= i of the nw-word bitmap set, or -1. */
static int64_t next_set(const uint64_t *set, int64_t nw, int64_t i)
{
    int64_t w = i >> 6;
    uint64_t bits;
    if (w >= nw)
        return -1;
    bits = set[w] & (~(uint64_t)0 << (i & 63));
    while (!bits) {
        if (++w == nw)
            return -1;
        bits = set[w];
    }
    return (w << 6) | __builtin_ctzll(bits);
}

int64_t repro_run(repro_state *s)
{
    const int64_t B = s->B, P = s->P, PV = s->PV, SB = s->SB;
    const int64_t Fm1 = s->Fm1, horizon = s->horizon;
    const int64_t nw = (B + 63) >> 6, npw = (P + 63) >> 6;
    int64_t *qlen = s->qlen, *front = s->front, *rhead = s->rhead;
    int64_t *want = s->want, *vcreq = s->vcreq, *jof = s->jof;
    int64_t *pvb = s->pvb, *pvb2 = s->pvb2, *owner = s->owner;
    int64_t *rr = s->rr, *rflat = s->rflat;
    int64_t *bestpr = s->bestpr, *bestb = s->bestb, *bestvc = s->bestvc;
    uint8_t *dlv = s->dlv, *hdrf = s->hdrf, *ne = s->ne, *fullb = s->fullb;
    uint64_t *rdy = s->rdy, *pcand = s->pcand;
    const int64_t *down = s->down, *rbase = s->rbase, *rmask = s->rmask;
    const int64_t *qcap = s->qcap, *upof = s->upof;
    int64_t now = s->now, stop = STOP_HORIZON;
    int64_t b, p, i;

    s->calls++;
    s->moved = 0;
    s->ejected = 0;
    s->counted = 0;
    if (s->rescan) {            /* Python wrote rows: every non-empty one */
        for (i = 0; i < nw; i++)
            rdy[i] = 0;
        for (b = 0; b < B; b++)
            if (ne[b])
                rdy[b >> 6] |= BIT(b);
        s->rescan = 0;
        s->rescans++;
    }
    while (now < horizon) {
        int64_t nroute = fold(s, now), nrf = 0, tailstop = 0;
        int64_t moved = 0, nscan = 0, ncand = 0;

        if (nroute == FOLD_OVERFLOW) {
            s->now = now;
            return -1;
        }
        if (nroute == FOLD_FULL) {
            stop = STOP_EVENTS;
            break;
        }
        if (nroute) {           /* Python routes, then re-enters `now` */
            stop = STOP_ROUTE;
            break;
        }
        if (!s->inflight) {     /* idle: jump to the next arrival */
            now = horizon;
            if (s->apos < s->an && s->acyc[s->apos] < horizon)
                now = s->acyc[s->apos];
            continue;
        }
        if (s->evcap - s->nev < EV_PER_PORT * P) {
            stop = STOP_EVENTS;
            break;
        }
        s->ndl = 0;

        /* phase A: eligibility + per-port round-robin pick over the
         * ready set, a word at a time; an empty or blocked row leaves */
        for (i = 0; i < nw; i++) {
            uint64_t bits = rdy[i], keep = bits;
            while (bits) {
                int64_t vc = -1, pr;
                b = (i << 6) | __builtin_ctzll(bits);
                bits &= bits - 1;
                p = want[b];
                if (ne[b]) {
                    nscan++;
                    if (hdrf[b]) {
                        int64_t pv = pvb[b], pv2 = pvb2[b];
                        if (owner[pv] == -1 && !fullb[down[pv]])
                            vc = vcreq[b];
                        else if (pv2 < PV && owner[pv2] == -1
                                 && !fullb[down[pv2]])
                            vc = 1;
                    } else if (p >= 0 && !fullb[down[pvb[b]]]) {
                        vc = vcreq[b];
                    }
                }
                if (vc < 0) {
                    keep &= ~BIT(b);
                    continue;
                }
                pr = (jof[b] - rr[p]) & Fm1;
                ncand++;
                pcand[p >> 6] |= BIT(p);
                if (pr < bestpr[p]) {
                    bestpr[p] = pr;
                    bestb[p] = b;
                    bestvc[p] = vc;
                }
            }
            rdy[i] = keep;
        }

        /* phase B: commit winners in ascending flat-port order */
        for (p = next_set(pcand, npw, 0); p >= 0;
                p = next_set(pcand, npw, p + 1)) {
            int64_t f, aid, pv, ql, rh, dst, vc;
            int tail, headf;
            pcand[p >> 6] &= ~BIT(p);   /* re-arm the scratch slots */
            bestpr[p] = BIG;
            b = bestb[p];
            vc = bestvc[p];
            f = front[b];
            aid = f >> FSHIFT;
            tail = (f & TAILBIT) != 0;
            headf = (f & FIDMASK) == 0;
            pv = 2 * p + vc;
            /* pop; a pending packet's next flit takes the freed slot */
            ql = qlen[b] - 1;
            qlen[b] = ql;
            rh = rhead[b] + 1;
            rhead[b] = rh;
            ne[b] = ql > 0;
            if (fullb[b] && upof[b] >= 0)
                wake_port(s, upof[b] >> 1);
            fullb[b] = 0;
            if (s->phead[b] >= 0)
                top_up(s, b);
            if (ql > 0)
                front[b] = rflat[rbase[b] + (rh & rmask[b])];
            /* switching tables */
            if (headf && !tail)
                owner[pv] = b;
            else if (tail && owner[pv] == b) {
                owner[pv] = -1;
                wake_port(s, p);
            }
            if (tail)
                want[b] = -1;
            hdrf[b] = 0;
            vcreq[b] = vc;
            pvb[b] = pv;
            s->fs[p] += 1;
            rr[p] = jof[b] + 1;
            moved++;
            if (s->trace)
                emit(s, EV_WINNER, now, b);
            /* deliver-clone, then eject or dateline+push (reference
             * order) */
            if (tail && dlv[b])
                tailstop |= take_tail(s, aid, p, now);
            dst = down[pv];
            if (dst == SB) {
                if (tail)
                    tailstop |= take_tail(s, aid, p, now);
                s->ejected++;
                s->inflight--;
            } else {
                int64_t dql;
                if (s->isdl[p]) {
                    s->outdl[s->ndl++] = f;
                    if (s->trace)
                        emit(s, EV_DATELINE, now, f);
                }
                dql = qlen[dst];
                rflat[rbase[dst] + ((rhead[dst] + dql) & rmask[dst])] = f;
                qlen[dst] = dql + 1;
                if (dql + 1 >= qcap[dst])
                    fullb[dst] = 1;
                if (dql == 0) {
                    ne[dst] = 1;
                    front[dst] = f;
                    wake(s, dst);
                    if (want[dst] < 0)
                        s->outrf[nrf++] = dst;
                }
            }
            if (tail && ql > 0)
                s->outrf[nrf++] = b;
        }

        /* refresh: dateline upgrades first, then the exposed headers */
        for (i = 0; i < s->ndl; i++) {
            int64_t aid = s->outdl[i] >> FSHIFT;
            int64_t hb = s->phdr[aid];
            s->pvcl[aid] = 1;
            if (hb >= 0 && hdrf[hb] && ne[hb]
                    && (front[hb] >> FSHIFT) == aid)
                nroute += refresh(s, hb, now);
        }
        for (i = 0; i < nrf; i++)
            nroute += refresh(s, s->outrf[i], now);

        s->moved += moved;
        s->flits += moved;
        s->scanned += nscan;
        s->cands += ncand;
        s->cycles++;
        now++;
        if (nroute) {
            stop = STOP_ROUTE;
            break;
        }
        if (tailstop) {
            stop = STOP_DELIVERY;
            break;
        }
    }
    s->now = now;
    s->stop = stop;
    s->stops[stop]++;
    s->receipts += s->counted;
    return now;
}
