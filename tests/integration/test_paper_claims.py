"""Integration tests asserting the paper's qualitative claims.

Each test runs a reduced version of an evaluation experiment and
checks the *shape* the paper reports -- who wins, where the plateaus
and crossovers sit.  The full-resolution sweeps live in benchmarks/.
"""

import pytest

from repro.config import (
    AccessMechanism,
    CpuConfig,
    DeviceConfig,
    SystemConfig,
    UncoreConfig,
)
from repro.harness.experiment import MeasureWindow, normalized_microbench
from repro.workloads.microbench import MicrobenchSpec

WINDOW = MeasureWindow(warmup_us=20.0, measure_us=60.0)
SPEC = MicrobenchSpec(work_count=200)


def norm(mechanism, threads, latency_us=1.0, cores=1, spec=SPEC, **overrides):
    config = SystemConfig(
        mechanism=mechanism,
        cores=cores,
        threads_per_core=threads,
        device=DeviceConfig(total_latency_us=latency_us),
        **overrides,
    )
    value, result = normalized_microbench(config, spec, WINDOW)
    return value, result


class TestFig2OnDemand:
    def test_on_demand_is_abysmal_at_realistic_work_counts(self):
        value, _ = norm(AccessMechanism.ON_DEMAND, threads=1)
        assert value < 0.2

    def test_large_work_partially_abates_the_loss(self):
        small, _ = norm(
            AccessMechanism.ON_DEMAND, 1, spec=MicrobenchSpec(work_count=100)
        )
        large, _ = norm(
            AccessMechanism.ON_DEMAND, 1, spec=MicrobenchSpec(work_count=5000)
        )
        assert large > 3 * small
        assert large < 0.8  # still well below DRAM


class TestFig3Prefetch:
    def test_performance_scales_with_threads_up_to_the_lfb_limit(self):
        one, _ = norm(AccessMechanism.PREFETCH, 1)
        five, _ = norm(AccessMechanism.PREFETCH, 5)
        ten, _ = norm(AccessMechanism.PREFETCH, 10)
        assert five > 4 * one
        assert ten > 9 * one

    def test_ten_threads_at_1us_reach_dram_parity(self):
        value, _ = norm(AccessMechanism.PREFETCH, 10)
        # "the microsecond-latency device marginally outperforms DRAM"
        assert 0.95 < value < 1.25

    def test_plateau_beyond_ten_threads(self):
        ten, _ = norm(AccessMechanism.PREFETCH, 10)
        sixteen, result = norm(AccessMechanism.PREFETCH, 16)
        assert sixteen == pytest.approx(ten, rel=0.1)
        assert max(result.report["lfb_max_per_core"]) == 10

    def test_longer_latencies_plateau_proportionally_lower(self):
        p1, _ = norm(AccessMechanism.PREFETCH, 16, latency_us=1.0)
        p2, _ = norm(AccessMechanism.PREFETCH, 16, latency_us=2.0)
        p4, _ = norm(AccessMechanism.PREFETCH, 16, latency_us=4.0)
        assert p1 > p2 > p4
        assert p2 == pytest.approx(p1 / 2, rel=0.15)
        assert p4 == pytest.approx(p1 / 4, rel=0.15)


class TestFig5MulticorePrefetch:
    def test_chip_level_queue_caps_aggregate_at_14(self):
        _value, result = norm(AccessMechanism.PREFETCH, 16, cores=8)
        assert result.report["uncore_pcie_max"] == 14

    def test_multicore_exceeds_single_core_cap(self):
        # The chip-level queue (14) exceeds one core's LFBs (10), so
        # multicore aggregates up to 14/10 of the single-core plateau.
        single, _ = norm(AccessMechanism.PREFETCH, 16, latency_us=4.0)
        multi, _ = norm(AccessMechanism.PREFETCH, 16, latency_us=4.0, cores=4)
        assert multi > 1.3 * single
        assert multi == pytest.approx(1.4 * single, rel=0.1)

    def test_more_cores_beyond_the_cap_do_not_help(self):
        four, _ = norm(AccessMechanism.PREFETCH, 16, cores=4)
        eight, _ = norm(AccessMechanism.PREFETCH, 16, cores=8)
        assert eight == pytest.approx(four, rel=0.1)


class TestFig6PrefetchMlp:
    def test_mlp_tops_out_at_proportionally_fewer_threads(self):
        # "the 2-read system tops out at 5 threads, the 4-read at 3".
        def curve(reads, threads):
            value, _ = norm(
                AccessMechanism.PREFETCH,
                threads,
                spec=MicrobenchSpec(work_count=200, reads_per_batch=reads),
            )
            return value

        two_at_5 = curve(2, 5)
        two_at_10 = curve(2, 10)
        assert two_at_10 == pytest.approx(two_at_5, rel=0.12)

        four_at_3 = curve(4, 3)
        four_at_8 = curve(4, 8)
        assert four_at_8 == pytest.approx(four_at_3, rel=0.15)

    def test_mlp_peaks_are_lower_relative_to_matched_baseline(self):
        one, _ = norm(AccessMechanism.PREFETCH, 16)
        four, _ = norm(
            AccessMechanism.PREFETCH,
            16,
            spec=MicrobenchSpec(work_count=200, reads_per_batch=4),
        )
        assert four < 0.5 * one


class TestFig7SwqVsPrefetch:
    def test_swq_keeps_gaining_past_the_lfb_limit_at_4us(self):
        ten, _ = norm(AccessMechanism.SOFTWARE_QUEUE, 10, latency_us=4.0)
        twenty_four, _ = norm(AccessMechanism.SOFTWARE_QUEUE, 24, latency_us=4.0)
        assert twenty_four > 1.8 * ten

    def test_swq_peak_is_about_half_the_baseline(self):
        peak = max(
            norm(AccessMechanism.SOFTWARE_QUEUE, threads)[0]
            for threads in (16, 24, 32)
        )
        assert 0.4 < peak < 0.6

    def test_prefetch_beats_swq_at_1us(self):
        prefetch, _ = norm(AccessMechanism.PREFETCH, 10)
        swq_peak = max(
            norm(AccessMechanism.SOFTWARE_QUEUE, threads)[0]
            for threads in (16, 32)
        )
        assert prefetch > 1.5 * swq_peak

    def test_swq_overtakes_prefetch_at_4us_with_many_threads(self):
        prefetch, _ = norm(AccessMechanism.PREFETCH, 32, latency_us=4.0)
        swq, _ = norm(AccessMechanism.SOFTWARE_QUEUE, 32, latency_us=4.0)
        assert swq > prefetch


class TestFig8MulticoreSwq:
    def test_swq_scales_linearly_to_four_cores(self):
        one, _ = norm(AccessMechanism.SOFTWARE_QUEUE, 24)
        four, _ = norm(AccessMechanism.SOFTWARE_QUEUE, 24, cores=4)
        assert four == pytest.approx(4 * one, rel=0.15)

    def test_eight_cores_hit_the_pcie_request_rate_wall(self):
        four, _ = norm(AccessMechanism.SOFTWARE_QUEUE, 24, cores=4)
        eight, result = norm(AccessMechanism.SOFTWARE_QUEUE, 24, cores=8)
        assert eight < 1.8 * four  # sublinear
        # The wall is wire bytes: upstream utilization is high.  The
        # link counts bytes from time zero, so divide by the whole run.
        up = result.report["pcie_up_wire_bytes"]
        run_s = (WINDOW.warmup_us + WINDOW.measure_us) * 1e-6
        assert up / run_s > 0.7 * 4e9  # >70% of the 4 GB/s direction


class TestFig9SwqMlp:
    def test_mlp_lowers_swq_peaks(self):
        def peak(reads):
            return max(
                norm(
                    AccessMechanism.SOFTWARE_QUEUE,
                    threads,
                    spec=MicrobenchSpec(work_count=200, reads_per_batch=reads),
                )[0]
                for threads in (16, 32)
            )

        one, two, four = peak(1), peak(2), peak(4)
        # Paper: ~50%, ~45%, ~35%.
        assert one > two > four
        assert four > 0.2


class TestImplications:
    def test_bigger_lfbs_restore_dram_parity_even_at_4us(self):
        """Section V-B: '20 x expected-device-latency-in-microseconds'."""
        stock, _ = norm(AccessMechanism.PREFETCH, 16, latency_us=4.0)
        sized, _ = norm(
            AccessMechanism.PREFETCH,
            88,
            latency_us=4.0,
            cpu=CpuConfig(lfb_entries=80),
            uncore=UncoreConfig(pcie_queue_entries=320),
        )
        assert stock < 0.35
        assert sized > 0.95

    def test_bigger_chip_queue_restores_multicore_scaling(self):
        stock, _ = norm(AccessMechanism.PREFETCH, 16, cores=4)
        sized, _ = norm(
            AccessMechanism.PREFETCH,
            16,
            cores=4,
            cpu=CpuConfig(lfb_entries=20),
            uncore=UncoreConfig(pcie_queue_entries=80),
        )
        assert sized > 2.5 * stock

    def test_kernel_queues_are_dominated(self):
        kernel, _ = norm(AccessMechanism.KERNEL_QUEUE, 16)
        swq, _ = norm(AccessMechanism.SOFTWARE_QUEUE, 16)
        assert kernel < 0.3 * swq
