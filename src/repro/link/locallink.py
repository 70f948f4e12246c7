"""Signal-level LocalLink model with channelised (2-VC) frames.

The paper's five-step channelised transfer (Sec. 2.7):

1. the destination asserts ``CH_STATUS_N[1:0]`` (active low) to advertise
   virtual channels that can accept at least one full frame;
2. the source responds by asserting ``SRC_RDY_N``;
3. the destination responds by asserting ``DST_RDY_N``;
4. the source asserts ``SOF_N``, drives the data bus, and drives the
   selected channel number on ``CH_TO_STORE``;
5. the source ends the transfer by asserting ``EOF_N``.

All control signals are active-low, as the ``_N`` suffix denotes.  A data
beat transfers on every cycle where both ready signals are low.  The
model is cycle-driven: each cycle the destination updates its status,
then the source drives, then the wire samples -- mirroring how the
paper's write controller consumes ``sof_in``/``eof_in`` and
``ch_to_store`` (Sec. 2.3.1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

__all__ = ["Frame", "LocalLinkWire", "LocalLinkSource",
           "LocalLinkDestination", "run_link"]

#: active-low logic levels
ASSERTED = 0
DEASSERTED = 1


@dataclass
class Frame:
    """One LocalLink frame: payload words + the VC it should ride."""

    words: List[int]
    channel: int = 0

    def __post_init__(self) -> None:
        if not self.words:
            raise ValueError("a frame needs at least one word")
        if self.channel not in (0, 1):
            raise ValueError("this 2-VC link has channels 0 and 1")


@dataclass
class LocalLinkWire:
    """The shared signal bundle between source and destination."""

    src_rdy_n: int = DEASSERTED
    dst_rdy_n: int = DEASSERTED
    sof_n: int = DEASSERTED
    eof_n: int = DEASSERTED
    data: int = 0
    ch_to_store: int = 0
    ch_status_n: List[int] = field(
        default_factory=lambda: [DEASSERTED, DEASSERTED])

    #: (cycle, signal, value) trace for protocol-conformance tests
    trace: List[Tuple[int, str, int]] = field(default_factory=list)

    def log(self, now: int, signal: str, value: int) -> None:
        self.trace.append((now, signal, value))


class LocalLinkDestination:
    """Receiving interface: per-VC frame buffers + status generation."""

    def __init__(self, wire: LocalLinkWire, capacity_frames: int = 2):
        if capacity_frames < 1:
            raise ValueError("destination needs >= 1 frame of buffering")
        self.wire = wire
        self.capacity = capacity_frames
        self.buffers: List[Deque[Frame]] = [deque(), deque()]
        self._partial: Optional[List[int]] = None
        self._partial_ch = 0
        self.frames_received = 0

    def update_status(self, now: int) -> None:
        """Step 1: advertise channels with room for a full frame."""
        for ch in (0, 1):
            status = (ASSERTED if len(self.buffers[ch]) < self.capacity
                      else DEASSERTED)
            if self.wire.ch_status_n[ch] != status:
                self.wire.ch_status_n[ch] = status
                self.wire.log(now, f"ch_status_n[{ch}]", status)
        # step 3: ready whenever any advertised channel has room
        rdy = (ASSERTED if (self.wire.src_rdy_n == ASSERTED
                            and any(s == ASSERTED
                                    for s in self.wire.ch_status_n))
               else DEASSERTED)
        if self.wire.dst_rdy_n != rdy:
            self.wire.dst_rdy_n = rdy
            self.wire.log(now, "dst_rdy_n", rdy)

    def sample(self, now: int) -> None:
        """Capture a data beat when both ready signals are asserted."""
        w = self.wire
        if w.src_rdy_n != ASSERTED or w.dst_rdy_n != ASSERTED:
            return
        if w.sof_n == ASSERTED:
            # refuse frames aimed at a channel that has no room: the
            # status bus said so, a compliant source would not drive this
            if len(self.buffers[w.ch_to_store]) >= self.capacity:
                return
            self._partial = []
            self._partial_ch = w.ch_to_store
        if self._partial is None:
            return                      # beats outside a frame are ignored
        self._partial.append(w.data)
        if w.eof_n == ASSERTED:
            frame = Frame(list(self._partial), self._partial_ch)
            self.buffers[self._partial_ch].append(frame)
            self.frames_received += 1
            self._partial = None

    def pop_frame(self, channel: int) -> Optional[Frame]:
        if self.buffers[channel]:
            return self.buffers[channel].popleft()
        return None


class LocalLinkSource:
    """Sending interface: walks the five-step handshake per frame."""

    def __init__(self, wire: LocalLinkWire):
        self.wire = wire
        self.queue: Deque[Frame] = deque()
        self._active: Optional[Frame] = None
        self._idx = 0
        self.frames_sent = 0

    def submit(self, frame: Frame) -> None:
        self.queue.append(frame)

    @property
    def idle(self) -> bool:
        return self._active is None and not self.queue

    def drive(self, now: int) -> None:
        """Steps 2/4/5: assert readiness and stream the active frame."""
        w = self.wire

        def go_quiet() -> None:
            if w.src_rdy_n != DEASSERTED:
                w.src_rdy_n = DEASSERTED
                w.log(now, "src_rdy_n", DEASSERTED)
            w.sof_n = w.eof_n = DEASSERTED

        if self._active is None:
            if not self.queue:
                go_quiet()
                return
            # step 1 gate: pick the first queued frame whose channel is
            # advertised ready.  Scanning past a blocked channel is what
            # the virtual channels are *for* -- a frame for the other VC
            # must not suffer head-of-line blocking.  While fully gated,
            # all source signals stay deasserted or the destination would
            # latch a stale beat.
            pick = next((i for i, f in enumerate(self.queue)
                         if w.ch_status_n[f.channel] == ASSERTED), None)
            if pick is None:
                go_quiet()
                return
            self._active = self.queue[pick]
            del self.queue[pick]
            self._idx = 0
        if w.src_rdy_n != ASSERTED:                 # step 2
            w.src_rdy_n = ASSERTED
            w.log(now, "src_rdy_n", ASSERTED)
        frame = self._active
        w.sof_n = ASSERTED if self._idx == 0 else DEASSERTED
        w.eof_n = (ASSERTED if self._idx == len(frame.words) - 1
                   else DEASSERTED)
        w.data = frame.words[self._idx]
        w.ch_to_store = frame.channel
        if self._idx == 0:
            w.log(now, "sof_n", ASSERTED)
        if w.eof_n == ASSERTED:
            w.log(now, "eof_n", ASSERTED)

    def advance(self, now: int) -> None:
        """After the destination sampled: move to the next beat."""
        w = self.wire
        if self._active is None:
            return
        if w.src_rdy_n == ASSERTED and w.dst_rdy_n == ASSERTED:
            self._idx += 1
            if self._idx >= len(self._active.words):
                self.frames_sent += 1
                self._active = None
                self._idx = 0


def run_link(frames: List[Frame], cycles: int = 1000,
             capacity_frames: int = 2,
             drain_channel_every: int = 0) -> Tuple[LocalLinkDestination,
                                                    LocalLinkWire]:
    """Convenience co-simulation: push ``frames`` through one link.

    ``drain_channel_every > 0`` pops one received frame every so many
    cycles (models a consumer), letting tests exercise the back-pressure
    path where ``CH_STATUS_N`` deasserts.
    """
    wire = LocalLinkWire()
    src = LocalLinkSource(wire)
    dst = LocalLinkDestination(wire, capacity_frames)
    for f in frames:
        src.submit(f)

    for now in range(cycles + 1):
        dst.update_status(now)
        src.drive(now)
        dst.update_status(now)          # dst_rdy_n reacts to src_rdy_n
        dst.sample(now)
        src.advance(now)
        if drain_channel_every and now and now % drain_channel_every == 0:
            for ch in (0, 1):
                dst.pop_frame(ch)
    return dst, wire
