/* The array engine's cycle, compiled on demand by repro.sim.ckernel:
 * repro_run() executes cycles [now, horizon) over the array-resident
 * state until Python is needed, and returns the next cycle to execute.
 * This file is the only definition of the cycle; a host that cannot
 * build it runs the reference backend.  Python also calls three of its
 * steps alone: repro_fold() (an inspection folds the rows due),
 * repro_refresh() (a header adopted or received from a halo) and
 * repro_wake() (a header Python routed); repro_welford() is the fold
 * of the collector's accumulators (welford_add).
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
 *   fold     arrival rows (cycle, buffer, aid, rank) due at `now`, the
 *            continuations due at `now` and the requests of the sources
 *            due to fire at `now` join their buffer's pending-packet FIFO
 *            (phead/ptail/pnext, pfid = next flit of the head packet)
 *            by rank: rows of rank 0 (regenerated by the last cycle's
 *            deliveries), the continuations, then the other rows and
 *            the fired requests, a request at its class's rank (rows
 *            first among equals); flit words (aid << 20) | tail | fid
 *            are generated while the ring slice has room, qlen counts
 *            every flit either way.
 *   idle     nothing in flight: the clock jumps to the next arrival
 *            row, continuation or firing, or the horizon.
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
 *            d = (pdst - rsh[b]) mod N, entry rtab[rrow[b]][d] =
 *            (jof << 24) | (slot << 4) | (bclone << 2) | (vreset << 1)
 *            | deliver, port = pbase[b] + slot, gated by rtflag[b]
 *            (0 none, 1 every class but multicast, 2 every class);
 *            bclone = clone to the PE if the packet is a BROADCAST.
 *            A vertex-symmetric network has one row per buffer
 *            position (rsh[b] = b's node), the mesh one per buffer
 *            (rsh[b] = 0).
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
 * the cycle, bumps the count, folds now - created into d (welford_add)
 * if created >= warmup; the expected-th emits COMPLETE.  A stale
 * generation is a duplicate tail of an op already complete: no receipt.
 *
 * Continuations.  The closed loop's transactions are the kernel's own:
 * pcont[aid] > 0 names the reply a request's tail sends back,
 * (delay << 40) | (reply aid + 1), interned with it (psrc = its home,
 * pdst = the requester).  The tail files the reply in the due ring
 * `cring` (a bucket per cycle mod cmask + 1: head, tail -- linked
 * through pnext -- and its cycle); the fold of that cycle sends it from
 * psrc's queue (qfirst / qrel, the unicast queue table) and emits CONT.
 * ncont / contflits count what waits.  pcont[aid] = -2 - i: the tail
 * completes a transaction of source i, a credit the kernel applies.
 *
 * Sources.  A closed-loop source i (S of them, class-major: i = class
 * position * N + node) keeps its window credit, phase quota and think
 * coins here: sout / swin, squota (-1 unphased), srate, and its rng's
 * twister state smt[i * MT_ROW ..] (getstate(): 624 words, the index),
 * given back by Python; a coin is random()'s genrand_res53.  Eligible
 * (sout < swin, squota != 0) and armed at cycle `at`, it draws a coin a
 * cycle up to `blockend` and fires at the first below srate (at once at
 * rate >= 1): sarm[i] = that cycle, filed in the heap sheap (keys (cycle
 * << SRC_BITS) | i: a cycle's firings come out class-major, node-minor),
 * or S_WAIT when none falls before blockend (Python arms it again at the
 * next block).  A firing takes the next of the requests Python interned
 * for it (shead, linked through pnext; its reply is the request's
 * continuation), joins it at fold time if the cycle is below `fireto` (a
 * drain fires nothing), emits FIRE and arms the source from the next
 * cycle; a credit, from the cycle after the tail.  sphase[i]: the tail is
 * one of the phase's `phleft` messages; the last ends the batch (FEEDBACK).
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
 *   - a tail or completion the closed loop hears (`heard` is set, the
 *     reason is FEEDBACK unless one above applies): the phase's last
 *     message (the barrier is due) or a completion with RT_HEARD (the
 *     barrier: the phase restarts).
 *     Other events ride along and are replayed after the batch in
 *     emission order = (cycle, port);
 * or before a cycle that could overflow the event buffer (a cycle emits
 * at most EV_PER_PORT events a port), or at the horizon.  A source due
 * to fire with no request left stops the fold (REQUESTS, `now`
 * unchanged): Python interns more and re-enters the same cycle.
 *
 * Events are int64 pairs: ev[2i] = (cycle << 3) | kind, ev[2i + 1] =
 *   EV_DELIVERY (aid << 16) | port     EV_ROUTE    buffer row
 *   EV_DATELINE flit word              EV_WINNER   buffer row
 *   EV_COMPLETE receipt-table slot (before the same tail's DELIVERY)
 *   EV_CONT     the aid of a continuation sent (at its fold)
 *   EV_FIRE     (request aid << SRC_BITS) | source (at its fold)
 * the DATELINE and WINNER only under `trace` (tests, divergence hunts).
 * outdl / ndl keep the dateline flit words of the last executed cycle
 * for the shard worker.
 *
 * repro_merge() merges rows Python staged behind the waiting ones into
 * their (cycle, rank) order, in place.  repro_mark() and repro_remap()
 * let Python reuse packet ids: the first marks every aid the state still
 * reads and counts the flits it walked, the second rewrites each of
 * those references after Python picked the aids' new places.
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
#define CONT_SHIFT 40
#define CONT_AID (((int64_t)1 << CONT_SHIFT) - 1)
#define FOLD_DRY (-3)
#define SRC_BITS 20
#define SRC_MASK (((int64_t)1 << SRC_BITS) - 1)
/* sarm[i] when not on the heap: not armed / armed past blockend */
#define S_IDLE (-1)
#define S_WAIT (-2)
/* a source's twister row: MT_N state words, then the index */
#define MT_N 624
#define MT_M 397
#define MT_ROW (MT_N + 1)
/* take_tail's verdict: the batch ends for Python / the loop hears it */
#define TAIL_STOP 1
#define TAIL_HEARD 2

enum { STOP_HORIZON, STOP_ROUTE, STOP_DELIVERY, STOP_EVENTS, STOP_FEEDBACK,
       STOP_REQUESTS };
enum { EV_DELIVERY, EV_ROUTE, EV_DATELINE, EV_WINNER, EV_COMPLETE, EV_CONT,
       EV_FIRE };
/* a receipt-table slot: these, then N arrival cycles (-1: none yet) */
enum { RT_CREATED, RT_EXPECTED, RT_COUNT, RT_HEARD, RT_GEN, RT_ROW };

/* An OnlineStats: count, min, max, mean, m2 (see welford_add). */
typedef struct {
    int64_t n, min, max;
    double mean, m2;
} welford;

typedef struct {
    /* geometry and the collector's warmup, fixed while attached */
    int64_t B, P, PV, SB, Fm1, rstride, N, warmup;
    /* control, written by Python before each entry */
    int64_t now, horizon, nofast, stopkinds, trace, rescan;
    /* run state */
    int64_t inflight, apos, an, nev, evcap, cmask, ncont, contflits;
    /* the sources: their count, the cycle firings stop at, where coin
     * draws stop, the heap's size, messages of the phase left */
    int64_t S, fireto, blockend, nheap, phleft;
    /* outputs of the last entry / last executed cycle */
    int64_t stop, moved, ejected, ndl, counted, heard;
    /* cumulative work counters (the phase profiler's); scanned counts
     * the non-empty rows phase A examined from the ready set, coins the
     * think coins the sources drew */
    int64_t calls, cycles, scanned, cands, flits, receipts, wakes, rescans;
    int64_t sent, fired, coins, stops[6];
    welford d;                  /* the per-receiver delay accumulator */
    /* per buffer */
    int64_t *qlen, *front, *rhead, *want, *vcreq, *jof, *pvb, *pvb2;
    int64_t *phead, *ptail, *pfid, *ppend;
    uint8_t *dlv, *hdrf, *ne, *fullb;
    const uint8_t *rtflag, *isdl;
    /* per port (owner/down per port*2+vc) */
    int64_t *owner, *rr, *fs;
    const int64_t *down, *rbase, *rmask, *qcap, *vcmode, *pv2of, *pnode;
    /* route table rows and, per buffer, its row, shift, first port */
    const int64_t *rtab, *rrow, *rsh, *pbase;
    int64_t *rflat;
    /* the ready set: a bit per row and per port; each port's feeder
     * rows; upof[b], the port*2+vc whose down is b (-1: none) */
    uint64_t *rdy, *pcand;
    const int64_t *fptr, *fbuf, *upof;
    /* per-cycle scratch */
    int64_t *bestpr, *bestb, *bestvc, *outdl, *outrf;
    /* per packet (aid), growable */
    int64_t *pdst, *ptraf, *psize, *pvcl, *phdr, *pnext, *popx, *psrc;
    int64_t *pcont;
    /* arrival rows [apos, an), growable */
    int64_t *acyc, *abuf, *aaid, *arank;
    /* the continuations' due ring, 3 int64 a bucket, and the unicast
     * queue table: each node's first row, the queue by relative dst */
    int64_t *cring;
    const int64_t *qfirst, *qrel;
    /* per source (see Sources) */
    int64_t *sout, *swin, *squota, *sarm, *shead, *srank, *sphase, *sheap;
    const double *srate;
    uint32_t *smt;
    /* receipt table, RT_ROW + N int64 a slot, growable */
    int64_t *rtbl;
    /* event buffer, evcap pairs, growable */
    int64_t *ev;
} repro_state;

int64_t repro_state_size(void) { return (int64_t)sizeof(repro_state); }

#define BIT(i) ((uint64_t)1 << ((i) & 63))

/* OnlineStats.add's operations on sample v, in its order (no FMA:
 * -ffp-contract=off): the receipts' delay and, by repro_welford, a
 * batch's unicast latencies and completion times round as in Python. */
static void welford_add(welford *w, int64_t v)
{
    double delta = (double)v - w->mean;
    w->n++;
    w->mean += delta / (double)w->n;
    w->m2 += delta * ((double)v - w->mean);
    w->min = w->n == 1 || v < w->min ? v : w->min;
    w->max = w->n == 1 || v > w->max ? v : w->max;
}

/* welford_add over x[0 .. n), in order. */
void repro_welford(welford *w, const int64_t *x, int64_t n)
{
    int64_t i;
    for (i = 0; i < n; i++)
        welford_add(w, x[i]);
}

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

/* File the reply a continuation names (pcont word c) in the due ring,
 * `delay` cycles after `now`. */
static void schedule(repro_state *s, int64_t c, int64_t now)
{
    int64_t r = (c & CONT_AID) - 1, due = now + (c >> CONT_SHIFT);
    int64_t *bk = s->cring + 3 * (due & s->cmask);
    s->pnext[r] = -1;
    if (bk[0] < 0) {
        bk[0] = r;
        bk[2] = due;
    } else {
        s->pnext[bk[1]] = r;
    }
    bk[1] = r;
    s->ncont++;
    s->contflits += s->psize[r];
}

/* Key k joins the sources' min-heap. */
static void heap_push(repro_state *s, int64_t k)
{
    int64_t *h = s->sheap, i = s->nheap++;
    while (i > 0 && h[(i - 1) / 2] > k) {
        h[i] = h[(i - 1) / 2];
        i = (i - 1) / 2;
    }
    h[i] = k;
}

/* The heap's least key leaves it. */
static void heap_pop(repro_state *s)
{
    int64_t *h = s->sheap, n = --s->nheap, k = h[n], i = 0, c;
    while ((c = 2 * i + 1) < n) {
        if (c + 1 < n && h[c + 1] < h[c])
            c++;
        if (k <= h[c])
            break;
        h[i] = h[c];
        i = c;
    }
    h[i] = k;
}

/* random.Random's next 32-bit word from twister state mt (genrand_uint32
 * of CPython's _randommodule.c): the 624 words, then the index. */
static uint32_t mt_word(uint32_t *mt)
{
    static const uint32_t mag[2] = {0, 0x9908b0dfU};
    uint32_t y;
    int k;
    if (mt[MT_N] >= MT_N) {
        for (k = 0; k < MT_N; k++) {
            y = (mt[k] & 0x80000000U) | (mt[k + 1 < MT_N ? k + 1 : 0]
                                         & 0x7fffffffU);
            mt[k] = mt[k + MT_M < MT_N ? k + MT_M : k + MT_M - MT_N]
                ^ (y >> 1) ^ mag[y & 1];
        }
        mt[MT_N] = 0;
    }
    y = mt[mt[MT_N]++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    return y ^ (y >> 18);
}

/* Source i's next think coin: its rng's random(). */
static double coin(repro_state *s, int64_t i)
{
    uint32_t *mt = s->smt + i * MT_ROW;
    uint32_t a = mt_word(mt) >> 5;
    uint32_t b = mt_word(mt) >> 6;
    s->coins++;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Arm source i from cycle `at` if it is eligible and not armed (see
 * Sources): a coin a cycle from `at` on, up to blockend. */
static void arm(repro_state *s, int64_t i, int64_t at)
{
    double r = s->srate[i];
    if (s->sarm[i] != S_IDLE || s->sout[i] >= s->swin[i] || !s->squota[i]
            || !(r > 0.0))
        return;
    if (r < 1.0)
        while (at < s->blockend && !(coin(s, i) < r))
            at++;
    if (at >= s->blockend) {
        s->sarm[i] = S_WAIT;
        return;
    }
    s->sarm[i] = at;
    heap_push(s, (at << SRC_BITS) | i);
}

/* Python's arming: source i from `at`, or with i < 0 every idle source,
 * after the firings the last window did not reach (a drain ran those
 * cycles) are dropped. */
void repro_arm(repro_state *s, int64_t i, int64_t at)
{
    if (i >= 0) {
        arm(s, i, at);
        return;
    }
    while (s->nheap && s->sheap[0] >> SRC_BITS < at) {
        s->sarm[s->sheap[0] & SRC_MASK] = S_IDLE;
        heap_pop(s);
    }
    for (i = 0; i < s->S; i++)
        arm(s, i, at);
}

/* The tail of packet aid reached the PE of port p's node: the kernel's
 * receipt (see the header) if popx names a slot, else the reply or
 * credit of a transaction pcont names, and a DELIVERY event unless it
 * was a receipt and the kind is not in stopkinds.  Returns TAIL_STOP if
 * the batch must end after this cycle, TAIL_HEARD if the closed loop
 * hears it. */
static int take_tail(repro_state *s, int64_t aid, int64_t p, int64_t now)
{
    int64_t x = s->popx[aid] & 0xFFFFFFFF;
    int stop = (int)((s->stopkinds >> s->ptraf[aid]) & 1);
    if (s->popx[aid] >= 0) {
        int64_t *slot = s->rtbl + x * (RT_ROW + s->N);
        int64_t *at = slot + RT_ROW + s->pnode[p];
        s->counted++;
        if (s->popx[aid] >> 32 == slot[RT_GEN] && *at < 0) {
            *at = now;
            if (slot[RT_CREATED] >= s->warmup)
                welford_add(&s->d, now - slot[RT_CREATED]);
            if (++slot[RT_COUNT] == slot[RT_EXPECTED]) {
                emit(s, EV_COMPLETE, now, x);
                if (slot[RT_HEARD])
                    stop |= TAIL_HEARD;
            }
        }
        if (!(stop & TAIL_STOP))
            return stop;
    } else if (s->pcont[aid] > 0) {
        schedule(s, s->pcont[aid], now);
    } else if (s->pcont[aid] < 0) {    /* a credit to its source */
        int64_t i = -2 - s->pcont[aid];
        s->sout[i]--;
        arm(s, i, now + 1);
        if (s->sphase[i] && s->phleft > 0 && !--s->phleft)
            stop |= TAIL_HEARD;
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
    int64_t d, ent, p, vc;
    int flag = s->rtflag[b];
    if (s->nofast || !flag || (flag == 1 && s->ptraf[aid] == MULTICAST))
        return 1;
    d = s->pdst[aid] - s->rsh[b];
    if (d < 0)
        d += s->N;
    ent = s->rtab[s->rrow[b] * s->rstride + d];
    p = s->pbase[b] + ((ent >> 4) & 0xFFFFF);
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

/* Packet aid joins b's pending FIFO at `now`; returns the ROUTE events
 * emitted (its header, if it is b's front and Python must route it). */
static int64_t join(repro_state *s, int64_t b, int64_t aid, int64_t now)
{
    int64_t size = s->psize[aid], ql0 = s->qlen[b];
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
            return refresh(s, b, now);
    }
    return 0;
}

/* The unicast queue of src toward dst (the queue table). */
static int64_t queue(const repro_state *s, int64_t src, int64_t dst)
{
    int64_t d = dst - src;
    return s->qfirst[src] + s->qrel[d < 0 ? d + s->N : d];
}

/* fold: what is due at `now` joins its buffer (the header has the
 * order), the continuations and firings only at the `head` of a cycle.
 * Returns the ROUTE events emitted, FOLD_FULL when the event buffer
 * filled first, FOLD_DRY when a source due to fire has no request left,
 * or FOLD_OVERFLOW -- a flow-control bug -- with the row whose buffer
 * has no room left at apos for Python to name. */
static int64_t fold(repro_state *s, int64_t now, int head)
{
    int64_t nroute = 0;
    int64_t *bk = head && s->ncont ? s->cring + 3 * (now & s->cmask) : 0;
    int fire = head && now < s->fireto;
    for (;;) {
        int64_t b, aid, rank = BIG, src = -1;
        if (s->apos < s->an && s->acyc[s->apos] <= now)
            rank = s->arank[s->apos];
        if (rank && bk && bk[0] >= 0 && bk[2] <= now)
            rank = -1;          /* continuations before fresh rows */
        if (fire && s->nheap && s->sheap[0] >> SRC_BITS <= now
                && s->srank[s->sheap[0] & SRC_MASK] < rank)
            src = s->sheap[0] & SRC_MASK;
        if (rank == BIG && src < 0)
            return nroute;
        if (s->nev >= s->evcap)
            return FOLD_FULL;
        if (src >= 0) {         /* the source's next request */
            aid = s->shead[src];
            if (aid < 0)
                return FOLD_DRY;
            heap_pop(s);
            s->shead[src] = s->pnext[aid];
            s->sarm[src] = S_IDLE;
            s->sout[src]++;
            if (s->squota[src] > 0)
                s->squota[src]--;
            b = queue(s, s->psrc[aid], s->pdst[aid]);
            s->fired++;
            emit(s, EV_FIRE, now, (aid << SRC_BITS) | src);
            nroute += join(s, b, aid, now);
            arm(s, src, now + 1);
            continue;
        }
        if (rank >= 0) {
            b = s->abuf[s->apos];
            aid = s->aaid[s->apos];
            if (s->qlen[b] + s->psize[aid] > s->qcap[b])
                return FOLD_OVERFLOW;
            s->apos++;
        } else {        /* from its home's queue toward the requester */
            aid = bk[0];
            b = queue(s, s->psrc[aid], s->pdst[aid]);
            bk[0] = s->pnext[aid];
            s->ncont--;
            s->contflits -= s->psize[aid];
            s->sent++;
            emit(s, EV_CONT, now, aid);
        }
        nroute += join(s, b, aid, now);
    }
}

/* An inspection's fold: the rows pushed so far, not the continuations
 * or firings, which the reference sends at the head of the cycle. */
int64_t repro_fold(repro_state *s) { return fold(s, s->now, 0); }

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
    s->heard = 0;
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
        int64_t nroute = fold(s, now, 1), nrf = 0, tailstop = 0;
        int64_t moved = 0, nscan = 0, ncand = 0;

        if (nroute == FOLD_OVERFLOW) {
            s->now = now;
            return -1;
        }
        if (nroute == FOLD_FULL || nroute == FOLD_DRY) {
            stop = nroute == FOLD_FULL ? STOP_EVENTS : STOP_REQUESTS;
            break;
        }
        if (nroute) {           /* Python routes, then re-enters `now` */
            stop = STOP_ROUTE;
            break;
        }
        if (!s->inflight) {     /* idle: jump to the next arrival */
            int64_t t = now;
            now = horizon;
            if (s->apos < s->an && s->acyc[s->apos] < horizon)
                now = s->acyc[s->apos];
            for (i = 1; s->ncont && i <= s->cmask + 1 && t + i < now; i++)
                if (s->cring[3 * ((t + i) & s->cmask)] >= 0)
                    now = t + i;
            if (s->nheap) {
                int64_t f = s->sheap[0] >> SRC_BITS;
                if (f > t && f < now && f < s->fireto)
                    now = f;
            }
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
        s->heard = (tailstop & TAIL_HEARD) != 0;
        if (nroute) {
            stop = STOP_ROUTE;
            break;
        }
        if (tailstop) {
            stop = tailstop & TAIL_STOP ? STOP_DELIVERY : STOP_FEEDBACK;
            break;
        }
    }
    s->now = now;
    s->stop = stop;
    s->stops[stop]++;
    s->receipts += s->counted;
    return now;
}

/* The n rows Python wrote at [an, an + n), in (cycle, rank) order,
 * merge into the waiting rows [apos, an) -- which go first among
 * equals, pushed first -- in place: the result is [apos - n, an).
 * Python leaves apos >= n.  O(n + the waiting rows ahead of the last
 * new one). */
void repro_merge(repro_state *s, int64_t n)
{
    int64_t *cyc = s->acyc, *buf = s->abuf, *aid = s->aaid, *rk = s->arank;
    int64_t o = s->apos - n, i = s->apos, j = s->an, end = s->an + n;
    while (j < end) {
        int64_t k = i < s->an && (cyc[i] < cyc[j]
                                  || (cyc[i] == cyc[j] && rk[i] <= rk[j]))
            ? i++ : j++;
        cyc[o] = cyc[k];
        buf[o] = buf[k];
        aid[o] = aid[k];
        rk[o] = rk[k];
        o++;
    }
    s->apos -= n;
}

/* Packet ids follow the packets alive (ArrayBackend._make_room).  An aid
 * is live while something will still read it: a word in a ring, a packet
 * in a pending FIFO, an arrival row [apos, an), a reply in the due ring,
 * a request a source has yet to fire (shead chains), the reply a live
 * request names in pcont and the last cycle's dateline words (outdl, the
 * shard worker's).  Python marks its own holders first (every branch of
 * an open broadcast row, the shard worker's gids). */
static void mark_chain(const repro_state *s, uint8_t *live, int64_t aid)
{
    for (; aid >= 0; aid = s->pnext[aid])
        live[aid] = 1;
}

/* Set live[a] for every live aid a < used; returns the flits walked (the
 * ring words, then each FIFO's packets from the head's next flit on),
 * which must equal `inflight`. */
int64_t repro_mark(repro_state *s, uint8_t *live, int64_t used)
{
    int64_t b, i, flits = 0;
    for (b = 0; b < s->B; b++) {
        int64_t inring = s->qlen[b] - s->ppend[b], fid = s->pfid[b], aid;
        for (i = 0; i < inring; i++)
            live[s->rflat[s->rbase[b] + ((s->rhead[b] + i) & s->rmask[b])]
                 >> FSHIFT] = 1;
        flits += inring;
        for (aid = s->phead[b]; aid >= 0; aid = s->pnext[aid], fid = 0) {
            live[aid] = 1;
            flits += s->psize[aid] - fid;
        }
    }
    for (i = s->apos; i < s->an; i++)
        live[s->aaid[i]] = 1;
    for (i = 0; i <= s->cmask; i++)
        mark_chain(s, live, s->cring[3 * i]);
    for (i = 0; i < s->S; i++)
        mark_chain(s, live, s->shead[i]);
    for (i = 0; i < s->ndl; i++)
        live[s->outdl[i] >> FSHIFT] = 1;
    for (i = 0; i < used; i++)
        if (live[i] && s->pcont[i] > 0)
            live[(s->pcont[i] & CONT_AID) - 1] = 1;
    return flits;
}

/* A flit word whose aid moves to map[aid]. */
static int64_t moved_word(const int64_t *map, int64_t w)
{
    return (map[w >> FSHIFT] << FSHIFT) | (w & (((int64_t)1 << FSHIFT) - 1));
}

/* Rewrite every aid the state holds, old a -> map[a] (-1: not live), in
 * place and before Python slides the per-packet columns down: the ring
 * words and fronts, the FIFO ends, each live packet's pnext and the
 * reply its pcont names, the arrival rows, the due ring's buckets, the
 * sources' next requests and the last cycle's dateline words. */
void repro_remap(repro_state *s, const int64_t *map, int64_t used)
{
    int64_t b, i;
    for (b = 0; b < s->B; b++) {
        int64_t inring = s->qlen[b] - s->ppend[b];
        for (i = 0; i < inring; i++) {
            int64_t *w = s->rflat + s->rbase[b]
                + ((s->rhead[b] + i) & s->rmask[b]);
            *w = moved_word(map, *w);
        }
        if (s->qlen[b])
            s->front[b] = moved_word(map, s->front[b]);
        if (s->phead[b] >= 0) {
            s->phead[b] = map[s->phead[b]];
            s->ptail[b] = map[s->ptail[b]];
        }
    }
    for (i = 0; i < used; i++) {
        if (map[i] < 0)
            continue;
        if (s->pnext[i] >= 0)
            s->pnext[i] = map[s->pnext[i]];
        if (s->pcont[i] > 0)
            s->pcont[i] = (s->pcont[i] & ~CONT_AID)
                | (map[(s->pcont[i] & CONT_AID) - 1] + 1);
    }
    for (i = s->apos; i < s->an; i++)
        s->aaid[i] = map[s->aaid[i]];
    for (i = 0; i <= s->cmask; i++) {
        int64_t *bk = s->cring + 3 * i;
        if (bk[0] >= 0) {
            bk[0] = map[bk[0]];
            bk[1] = map[bk[1]];
        }
    }
    for (i = 0; i < s->S; i++)
        if (s->shead[i] >= 0)
            s->shead[i] = map[s->shead[i]];
    for (i = 0; i < s->ndl; i++)
        s->outdl[i] = moved_word(map, s->outdl[i]);
}
