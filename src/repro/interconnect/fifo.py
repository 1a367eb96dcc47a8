"""A FIFO server run as a chain of event callbacks.

The PCIe transmitters and the DRAM data bus serve one item at a time,
oldest first.  Neither needs a process for it: an item reaches the
server one zero-delay timeout after it is submitted to an idle server,
or after the previous item's service ends (the hop rule of
docs/MODEL.md), which are exactly the steps at which a process pumping
a ``Store`` would resume.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim import Event, Simulator

__all__ = ["FifoServer"]


class FifoServer:
    """Base class: serve submitted items one at a time, in order.

    Subclasses say how long an item occupies the server
    (:meth:`_begin`, returning ticks) and what happens when its service
    ends (:meth:`_end`).
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: Items waiting for the server, oldest first.
        self._queue: Deque[Any] = deque()
        #: True from the moment an item heads for the server until the
        #: server goes idle with an empty queue.
        self._busy = False
        #: The item being served.
        self._serving: Any = None

    def _submit(self, item: Any) -> None:
        if self._busy:
            self._queue.append(item)
        else:
            self._busy = True
            self.sim.timeout(0, item).add_callback(self._serve)

    def _serve(self, event: Event) -> None:
        item = self._serving = event._value
        self.sim.timeout(self._begin(item)).add_callback(self._served)

    def _served(self, _event: Event) -> None:
        self._end(self._serving)
        if self._queue:
            self.sim.timeout(0, self._queue.popleft()).add_callback(self._serve)
        else:
            self._busy = False

    def _begin(self, item: Any) -> int:
        """Start serving ``item``; return its service time in ticks."""
        raise NotImplementedError

    def _end(self, item: Any) -> None:
        """``item``'s service has ended (the next one is not started yet)."""
        raise NotImplementedError

    @property
    def queued(self) -> int:
        """Items waiting behind the one being served."""
        return len(self._queue)
