"""repro: a reproduction of "Taming the Killer Microsecond" (MICRO 2018).

A cycle-approximate, queue-accurate simulator of microsecond-latency
storage access mechanisms: on-demand memory-mapped loads, software
prefetching with user-level context switching, and application-managed
software queues -- plus the FPGA device emulator, the PCIe link, and
the Xeon-like host the paper measured them on.

Quick start::

    from repro import (
        AccessMechanism, DeviceConfig, MicrobenchSpec, SystemConfig,
        install_microbench, System, us,
    )

    config = SystemConfig(
        mechanism=AccessMechanism.PREFETCH,
        threads_per_core=10,
        device=DeviceConfig(total_latency_us=1.0),
    )
    system = System(config)
    install_microbench(system, MicrobenchSpec(work_count=200), 10)
    stats = system.run_window(us(30), us(100))
    print(stats.work_ipc)
"""

from repro.config import (
    AccessMechanism,
    BackingStore,
    DeviceAttachment,
    CacheConfig,
    CpuConfig,
    DeviceConfig,
    HostDramConfig,
    KernelQueueConfig,
    OnboardDramConfig,
    PcieConfig,
    SwqConfig,
    SystemConfig,
    ThreadingConfig,
    UncoreConfig,
)
from repro.host.system import System, WindowStats
from repro.units import gigahertz, ns, us
from repro.workloads.bfs import BfsParams, install_bfs
from repro.workloads.bloom import BloomParams, install_bloom
from repro.workloads.memcached import MemcachedParams, install_memcached
from repro.workloads.microbench import MicrobenchSpec, install_microbench

__version__ = "1.0.0"

__all__ = [
    "AccessMechanism",
    "BackingStore",
    "BfsParams",
    "BloomParams",
    "CacheConfig",
    "CpuConfig",
    "DeviceAttachment",
    "DeviceConfig",
    "HostDramConfig",
    "KernelQueueConfig",
    "MemcachedParams",
    "MicrobenchSpec",
    "OnboardDramConfig",
    "PcieConfig",
    "SwqConfig",
    "System",
    "SystemConfig",
    "ThreadingConfig",
    "UncoreConfig",
    "WindowStats",
    "gigahertz",
    "install_bfs",
    "install_bloom",
    "install_memcached",
    "install_microbench",
    "ns",
    "us",
    "__version__",
]
