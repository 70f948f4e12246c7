"""Halo-exchange wire format: flat ``int64`` word streams.

Every cross-shard message is a sequence of records, each a run of
64-bit words, so one format serves both transports: the in-process
transport hands the Python list across directly, the shared-memory
transport copies it into a preallocated slab.  Records:

``REC_PUSH  [1, row, gid, flags]``
    One flit crossing a cut link into buffer ``row`` of the receiver.
    ``flags`` is the packed flit word below the aid field
    (``tail_bit | fid``); the receiver rebuilds the word with its local
    aid for ``gid``.

``REC_PKT   [2, gid, src, dst, size, traffic, created, vclass, clsid,
             nbs, bs..., opflag, (opgid, osrc, ocreated, oexpected,
             okind, oclsid)?, mkind, (pos, nchain, chain...)?]``
    Packet replica, sent once per (packet, receiver) before that
    receiver's first ``REC_PUSH`` of it.  The bitstring is shipped in
    32-bit chunks (a multicast bitmap can exceed 64 bits at large N);
    ``mkind`` encodes the relay scratch dict (0 none, 1 a relay chain and
    the packet's position in it).

``REC_VCLASS  [3, gid]``
    Dateline VC-class upgrade: broadcast to every other shard whenever
    a flit of an already-shipped packet crosses a dateline, so every
    replica's ``vclass`` (which routing reads) tracks the serial run's
    single shared object.  Receivers ignore unknown gids; the apply is
    idempotent.

``gid`` is ``(origin_shard << GID_SHIFT) | origin_serial`` -- globally
unique without coordination (a serial, not the local aid: the engine
reuses aids).  Collective ops get their own serial-numbered gid space
(same shift).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["REC_PUSH", "REC_PKT", "REC_VCLASS", "GID_SHIFT",
           "encode_pkt", "decode_pkt"]

REC_PUSH = 1
REC_PKT = 2
REC_VCLASS = 3

#: gid layout: origin shard in the top bits, the packet (or op) serial
#: below.  44 bits of serials is far beyond any reachable horizon.
GID_SHIFT = 44

_M32 = (1 << 32) - 1


def encode_pkt(out: List[int], gid: int, pkt, opgid: int, clsid: int,
               opclsid: int) -> None:
    """Append one ``REC_PKT`` record for ``pkt`` to ``out``."""
    out.extend((REC_PKT, gid, pkt.src, pkt.dst, pkt.size, pkt.traffic,
                pkt.created, pkt.vclass, clsid))
    bs = pkt.bitstring
    chunks = []
    while bs:
        chunks.append(bs & _M32)
        bs >>= 32
    out.append(len(chunks))
    out.extend(chunks)
    op = pkt.op
    if op is None:
        out.append(0)
    else:
        out.extend((1, opgid, op.src, op.created, op.expected, op.kind,
                    opclsid))
    meta = pkt.meta
    if "chain" in meta:
        chain = meta["chain"]
        out.extend((1, meta["pos"], len(chain)))
        out.extend(chain)
    elif meta:
        raise AssertionError(
            f"unshippable packet meta keys: {sorted(meta)}")
    else:
        out.append(0)


def decode_pkt(words, i: int) -> Tuple[int, Dict[str, object]]:
    """Decode one ``REC_PKT`` starting at ``words[i]`` (the type word).
    Returns ``(next_index, fields)``."""
    f: Dict[str, object] = {
        "gid": int(words[i + 1]), "src": int(words[i + 2]),
        "dst": int(words[i + 3]), "size": int(words[i + 4]),
        "traffic": int(words[i + 5]), "created": int(words[i + 6]),
        "vclass": int(words[i + 7]), "clsid": int(words[i + 8]),
    }
    i += 9
    nbs = int(words[i])
    i += 1
    bs = 0
    for k in range(nbs):
        bs |= int(words[i + k]) << (32 * k)
    i += nbs
    f["bitstring"] = bs
    if int(words[i]):
        f["op"] = {
            "gid": int(words[i + 1]), "src": int(words[i + 2]),
            "created": int(words[i + 3]), "expected": int(words[i + 4]),
            "kind": int(words[i + 5]), "clsid": int(words[i + 6]),
        }
        i += 7
    else:
        f["op"] = None
        i += 1
    mkind = int(words[i])
    i += 1
    if mkind:
        end = i + 2 + int(words[i + 1])
        f["meta"] = {"pos": int(words[i]),
                     "chain": tuple(int(w) for w in words[i + 2:end])}
        i = end
    else:
        f["meta"] = None
    return i, f
