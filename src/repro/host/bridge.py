"""The host-side root complex: PCIe <-> cores <-> host DRAM.

Responsibilities:

* turn a core's MMIO line load into a downstream read TLP and match
  the returning completion to the waiting miss (the hardware-managed
  queue pair of section III);
* serve device-initiated DMA (descriptor reads, response-data and
  completion-queue writes) against the host DRAM channel;
* forward posted MMIO writes (doorbells) to the device.
"""

from __future__ import annotations

from repro.cpu.uncore import MemoryTarget
from repro.device.fetcher import DmaReadRequest, DmaWriteRequest
from repro.errors import ProtocolError
from repro.host.addressmap import AddressMap
from repro.interconnect.dram import DramChannel
from repro.interconnect.packets import Tlp, TlpKind
from repro.interconnect.pcie import PcieLink
from repro.sim import Event, Simulator

__all__ = ["DramTarget", "DramWriteSink", "HostBridge", "MmioTarget", "PcieWriteSink"]


class HostBridge:
    """Root complex + memory controller front end."""

    def __init__(
        self,
        sim: Simulator,
        link: PcieLink,
        dram: DramChannel,
        address_map: AddressMap,
    ) -> None:
        self.sim = sim
        self.link = link
        self.dram = dram
        self.map = address_map
        self._pending_reads: dict[int, Event] = {}
        self.mmio_reads = 0
        self.dma_reads = 0
        self.dma_writes = 0
        link.upstream.set_receiver(self.on_tlp)

    # -- core-initiated traffic ---------------------------------------------------

    def mmio_read_line(self, line_addr: int) -> Event:
        """Issue a cacheable MMIO read of a device line; the returned
        event fires with the line bytes when the completion arrives."""
        self.map.bar_offset(line_addr)  # validates the address
        done = Event(self.sim)
        tlp = Tlp(
            TlpKind.MEM_READ,
            address=line_addr,
            payload_bytes=0,
            requester="host",
        )
        self._pending_reads[tlp.tag] = done
        self.link.downstream.send(tlp)
        self.mmio_reads += 1
        return done

    def post_mmio_write(self, addr: int, num_bytes: int) -> None:
        """Forward a posted, uncached MMIO write (doorbell)."""
        self.link.downstream.send(
            Tlp(
                TlpKind.MEM_WRITE,
                address=addr,
                payload_bytes=num_bytes,
                requester="host",
            )
        )

    # -- device-initiated traffic ---------------------------------------------------

    def on_tlp(self, tlp: Tlp) -> None:
        if tlp.kind is TlpKind.COMPLETION:
            # Only the host's own MMIO reads produce upstream
            # completions (descriptor-read completions go downstream).
            self._complete_mmio_read(tlp)
        elif tlp.kind is TlpKind.MEM_READ:
            self.dma_reads += 1
            self.sim.timeout(0, tlp).add_callback(self._serve_dma_read)
        elif tlp.kind is TlpKind.MEM_WRITE:
            self.dma_writes += 1
            self.sim.timeout(0, tlp).add_callback(self._serve_dma_write)
        else:
            raise ProtocolError(f"host bridge got unexpected TLP {tlp!r}")

    def _complete_mmio_read(self, tlp: Tlp) -> None:
        pending = self._pending_reads.pop(tlp.tag, None)
        if pending is None:
            raise ProtocolError(f"completion for unknown read tag {tlp.tag}")
        pending.succeed(tlp.data)

    # A DMA is served by two callbacks: one a zero-delay timeout after
    # the TLP arrives (the hop rule of docs/MODEL.md), and one on the
    # DRAM access, which carries the TLP as its value.

    def _serve_dma_read(self, event: Event) -> None:
        tlp = event._value
        if not isinstance(tlp.context, DmaReadRequest):
            raise ProtocolError("DMA read TLP lacks a DmaReadRequest context")
        self.dram.access(max(1, tlp.context.reply_bytes), tlp).add_callback(
            self._dma_read_done
        )

    def _dma_read_done(self, event: Event) -> None:
        if event._exception is not None:
            raise event._exception
        tlp = event._value
        context = tlp.context
        self.link.downstream.send(
            Tlp(
                TlpKind.COMPLETION,
                address=tlp.address,
                payload_bytes=context.reply_bytes,
                tag=tlp.tag,
                requester=tlp.requester,
                data=context.read_fn(),
            )
        )

    def _serve_dma_write(self, event: Event) -> None:
        tlp = event._value
        context = tlp.context
        if context is not None and not isinstance(context, DmaWriteRequest):
            raise ProtocolError("DMA write TLP has a non-DmaWriteRequest context")
        self.dram.access(max(1, tlp.payload_bytes), tlp).add_callback(
            self._dma_write_done
        )

    def _dma_write_done(self, event: Event) -> None:
        if event._exception is not None:
            raise event._exception
        context = event._value.context
        if context is not None and context.on_commit is not None:
            context.on_commit()


class PcieWriteSink:
    """Store-buffer sink for device writes: posted MemWr TLPs.

    The event returned fires immediately (the link's transmit queue
    provides the buffering); wire serialization and header overhead are
    charged by the link model.
    """

    def __init__(self, sim: Simulator, link: PcieLink) -> None:
        self.sim = sim
        self.link = link
        self.writes = 0

    def write_line(self, store) -> Event:
        self.writes += 1
        self.link.downstream.send(
            Tlp(
                TlpKind.MEM_WRITE,
                address=store.addr,
                payload_bytes=store.num_bytes,
                requester="host-store",
            )
        )
        done = Event(self.sim)
        done.succeed(None)
        return done


class DramWriteSink:
    """Store-buffer sink for host-DRAM writes (posted)."""

    def __init__(self, dram: DramChannel) -> None:
        self.dram = dram
        self.writes = 0

    def write_line(self, store) -> Event:
        self.writes += 1
        return self.dram.post_write(store.num_bytes)


class MmioTarget(MemoryTarget):
    """Adapter: the uncore's DEVICE-path target, backed by the bridge."""

    def __init__(self, bridge: HostBridge) -> None:
        self.bridge = bridge

    def read_line(self, line_addr: int) -> Event:
        return self.bridge.mmio_read_line(line_addr)


class DramTarget(MemoryTarget):
    """Adapter: the uncore's DRAM-path target.

    Shares the host DRAM channel with device DMA traffic, so heavy
    descriptor/response traffic and baseline loads contend, as on the
    real machine.
    """

    def __init__(self, dram: DramChannel, world, line_bytes: int = 64) -> None:
        self.dram = dram
        self.world = world
        self.line_bytes = line_bytes

    def read_line(self, line_addr: int) -> Event:
        data = self.world.read_line(line_addr)
        return self.dram.access(self.line_bytes, value=data)
