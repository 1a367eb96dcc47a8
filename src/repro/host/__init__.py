"""Host-side integration: address map, root complex, system."""

from repro.host.addressmap import DEVICE_BASE, AddressMap
from repro.host.bridge import DramTarget, HostBridge, MmioTarget
from repro.host.system import System, WindowStats

__all__ = [
    "AddressMap",
    "DEVICE_BASE",
    "DramTarget",
    "HostBridge",
    "MmioTarget",
    "System",
    "WindowStats",
]
