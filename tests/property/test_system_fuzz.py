"""Configuration-space fuzzing: any valid config must build and run.

Hypothesis draws system configurations across the supported space;
every one must assemble, execute a short workload, serve every access,
and satisfy its structural invariants.  This is the guard against
validation holes between components ("valid per-field, broken
together").
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    AccessMechanism,
    CpuConfig,
    DeviceAttachment,
    DeviceConfig,
    SwqConfig,
    SystemConfig,
    ThreadingConfig,
    UncoreConfig,
)
from repro.host.system import System
from repro.workloads.microbench import MicrobenchSpec, install_microbench

mechanisms = st.sampled_from(list(AccessMechanism))

cpu_configs = st.builds(
    CpuConfig,
    lfb_entries=st.integers(min_value=1, max_value=24),
    rob_entries=st.sampled_from([64, 128, 192, 384]),
    work_chunk_instructions=st.sampled_from([8, 16, 32]),
    smt_contexts=st.sampled_from([1, 2]),
    prefetch_drop_when_full=st.booleans(),
)

uncore_configs = st.builds(
    UncoreConfig,
    pcie_queue_entries=st.integers(min_value=2, max_value=64),
    dram_queue_entries=st.integers(min_value=8, max_value=96),
)

swq_configs = st.builds(
    SwqConfig,
    fetch_burst=st.integers(min_value=1, max_value=16),
    fetch_pipeline=st.integers(min_value=1, max_value=4),
    doorbell_flag=st.booleans(),
    burst_reads=st.booleans(),
    ring_entries=st.sampled_from([16, 64, 256]),
)

threading_configs = st.builds(
    ThreadingConfig,
    context_switch_ns=st.floats(min_value=5.0, max_value=200.0),
    overhead_ipc=st.floats(min_value=0.5, max_value=2.0),
)


@st.composite
def system_configs(draw):
    mechanism = draw(mechanisms)
    if mechanism in (AccessMechanism.SOFTWARE_QUEUE, AccessMechanism.KERNEL_QUEUE):
        attachment = DeviceAttachment.PCIE
    else:
        attachment = draw(st.sampled_from(list(DeviceAttachment)))
    return SystemConfig(
        mechanism=mechanism,
        cores=draw(st.integers(min_value=1, max_value=4)),
        threads_per_core=draw(st.integers(min_value=1, max_value=12)),
        cpu=draw(cpu_configs),
        uncore=draw(uncore_configs),
        swq=draw(swq_configs),
        threading=draw(threading_configs),
        device=DeviceConfig(
            total_latency_us=draw(st.sampled_from([1.0, 2.0, 4.0])),
            attachment=attachment,
        ),
    )


@given(config=system_configs())
@settings(max_examples=25, deadline=None)
def test_any_valid_config_builds_and_serves_accesses(config):
    system = System(config)
    spec = MicrobenchSpec(work_count=100, iterations=3)
    install_microbench(system, spec, config.threads_per_core)
    system.run_to_completion(limit_ticks=10**11)
    expected = (
        config.cores
        * config.cpu.smt_contexts
        * config.threads_per_core
        * spec.iterations
    )
    served = system._total_accesses()
    assert served == expected
    # Structural invariants.
    report = system.report()
    assert max(report["lfb_max_per_core"]) <= config.cpu.lfb_entries
    device_queue_cap = (
        config.uncore.dram_queue_entries
        if config.device.attachment is DeviceAttachment.MEMORY_BUS
        else config.uncore.pcie_queue_entries
    )
    assert report["uncore_pcie_max"] <= device_queue_cap
    for runtime in system.runtimes:
        assert runtime.finished == len(runtime.threads)


@given(config=system_configs())
@settings(max_examples=10, deadline=None)
def test_any_valid_config_is_deterministic(config):
    def fingerprint():
        system = System(config)
        install_microbench(
            system, MicrobenchSpec(work_count=100, iterations=2),
            config.threads_per_core,
        )
        ticks = system.run_to_completion(limit_ticks=10**11)
        return ticks, system._total_accesses()

    assert fingerprint() == fingerprint()
