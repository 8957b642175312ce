"""Tests for the memory substrate: channels, DRAM, controllers, systems."""

import pytest

from repro.core.config import CORONA_DEFAULT
from repro.memory.channel import (
    ElectricalMemoryChannel,
    MemoryChannel,
    OpticalMemoryChannel,
)
from repro.memory.controller import MemoryController
from repro.memory.dram import DramTimings, OcmModule, daisy_chain_delay
from repro.memory.ecm import ElectricallyConnectedMemory, ecm_interconnect_summary
from repro.memory.ocm import OpticallyConnectedMemory, ocm_interconnect_summary

#: The paper's DRAM: 20 ns access latency.
TIMINGS = DramTimings(access_latency_s=20e-9)


def _controller(channel):
    """A controller on ``channel`` in front of one module of the paper's DRAM."""
    return MemoryController(
        controller_id=0, channel=channel, module=OcmModule(module_id=0, timings=TIMINGS)
    )


class TestMemoryChannels:
    def test_ocm_channel_bandwidth_is_160_gbytes(self):
        channel = OpticalMemoryChannel(CORONA_DEFAULT, "ocm")
        assert channel.bandwidth_bytes_per_s == pytest.approx(160e9)

    def test_ecm_channel_bandwidth_is_15_gbytes(self):
        channel = ElectricalMemoryChannel("ecm")
        assert channel.bandwidth_bytes_per_s == pytest.approx(15e9)

    def test_ocm_power_per_gbps(self):
        channel = OpticalMemoryChannel(CORONA_DEFAULT, "ocm")
        assert channel.interconnect_power_w_per_gbps == pytest.approx(0.078e-3)

    def test_ecm_power_per_gbps(self):
        assert ElectricalMemoryChannel("ecm").interconnect_power_w_per_gbps == pytest.approx(
            2e-3
        )

    def test_half_duplex_shares_capacity(self):
        channel = OpticalMemoryChannel(CORONA_DEFAULT, "ocm")
        controller = _controller(channel)
        burst_end = 10e-9 + (8 + 16000) / channel.bandwidth_bytes_per_s
        controller.access(now=10e-9, size_bytes=16000, is_write=True, address=0)
        read = controller.access(now=0.0, size_bytes=64, is_write=False, address=64)
        # The read's command goes out ahead of the write burst, but its data
        # comes back over the same half-duplex channel, behind the burst.
        assert read.completion_time > burst_end

    def test_custom_channel_validation(self):
        with pytest.raises(ValueError):
            MemoryChannel(
                name="bad",
                width_bits=0,
                data_rate_bps=1e9,
                latency_s=0.0,
                interconnect_power_w_per_gbps=0.0,
            )


class TestDram:
    def test_bank_access_latency(self):
        module = OcmModule(module_id=0, timings=TIMINGS)
        assert module.access(0, 0.0) == pytest.approx(20e-9)

    def test_bank_back_to_back_accesses_respect_cycle_time(self):
        module = OcmModule(module_id=0, timings=TIMINGS)
        module.access(0, 0.0)
        second = module.access(0, 0.0)
        assert second == pytest.approx(40e-9)

    def test_die_interleaves_banks(self):
        module = OcmModule(module_id=0, timings=TIMINGS, num_dram_dies=1, banks_per_die=4)
        for line in range(4):
            module.access(line << 6, 0.0)
        # Line 4 maps back to line 0's bank, which is busy for its cycle.
        assert module.access(4 << 6, 0.0) == pytest.approx(40e-9)

    def test_die_parallel_banks_do_not_serialize(self):
        module = OcmModule(module_id=0, timings=TIMINGS, num_dram_dies=1, banks_per_die=4)
        ready_times = [module.access(line << 6, 0.0) for line in range(4)]
        assert all(t == pytest.approx(20e-9) for t in ready_times)

    def test_module_total_banks(self):
        module = OcmModule(module_id=0, timings=TIMINGS, num_dram_dies=4, banks_per_die=8)
        assert module.total_banks == 32

    def test_daisy_chain_delay_grows_linearly(self):
        assert daisy_chain_delay(0) == 0.0
        assert daisy_chain_delay(3) == pytest.approx(0.3e-9)

    def test_daisy_chain_rejects_negative(self):
        with pytest.raises(ValueError):
            daisy_chain_delay(-1)

    def test_timings_validation(self):
        with pytest.raises(ValueError):
            DramTimings(access_latency_s=0.0)


class TestMemoryController:
    def _controller(self, optical=True):
        return _controller(
            OpticalMemoryChannel(CORONA_DEFAULT, "ocm")
            if optical
            else ElectricalMemoryChannel("ecm")
        )

    def test_read_latency_near_20ns_when_idle(self):
        controller = self._controller()
        result = controller.access(now=0.0, size_bytes=64, is_write=False)
        assert 20e-9 <= result.completion_time <= 30e-9
        assert result.queueing_delay == 0.0

    def test_write_completes_without_return_transfer(self):
        controller = self._controller()
        read = controller.access(now=0.0, size_bytes=64, is_write=False, address=0)
        write = controller.access(now=1e-6, size_bytes=64, is_write=True, address=64)
        assert write.completion_time - 1e-6 <= read.completion_time

    def test_counts_reads_and_writes(self):
        controller = self._controller()
        controller.access(now=0.0, size_bytes=64, is_write=False)
        controller.access(now=0.0, size_bytes=64, is_write=True)
        assert controller.reads == 1
        assert controller.writes == 1
        assert controller.bytes_transferred == 128

    def test_ecm_channel_limits_throughput(self):
        controller = self._controller(optical=False)
        completions = [
            controller.access(now=0.0, size_bytes=64, is_write=False, address=i << 6)
            .completion_time
            for i in range(200)
        ]
        elapsed = max(completions)
        achieved = controller.bytes_transferred / elapsed
        # The 15 GB/s electrical channel caps sustained read bandwidth.
        assert achieved <= 15e9 * 1.05

    def test_ocm_sustains_much_higher_throughput_than_ecm(self):
        ocm = self._controller(optical=True)
        ecm = self._controller(optical=False)
        ocm_done = max(
            ocm.access(now=0.0, size_bytes=64, is_write=False, address=i << 6)
            .completion_time
            for i in range(200)
        )
        ecm_done = max(
            ecm.access(now=0.0, size_bytes=64, is_write=False, address=i << 6)
            .completion_time
            for i in range(200)
        )
        assert ecm_done > 3 * ocm_done

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            self._controller().access(now=0.0, size_bytes=0, is_write=False)


class TestMemorySystems:
    @staticmethod
    def _aggregate_bandwidth(system):
        return sum(c.channel.bandwidth_bytes_per_s for c in system.controllers.values())

    def test_ocm_aggregate_bandwidth(self):
        system = OpticallyConnectedMemory(CORONA_DEFAULT)
        assert self._aggregate_bandwidth(system) == pytest.approx(10.24e12)

    def test_ecm_aggregate_bandwidth(self):
        system = ElectricallyConnectedMemory(CORONA_DEFAULT)
        assert self._aggregate_bandwidth(system) == pytest.approx(0.96e12)

    def test_one_controller_per_cluster(self):
        system = OpticallyConnectedMemory(CORONA_DEFAULT.with_overrides({"num_clusters": 16}))
        assert len(system.controllers) == 16

    def test_unknown_controller_rejected(self):
        with pytest.raises(ValueError):
            OpticallyConnectedMemory(
                CORONA_DEFAULT.with_overrides({"num_clusters": 8})
            ).controller(9)

    def test_interconnect_power_comparison(self):
        # OCM ~6.4 W vs ECM tens of watts for the same controller count.
        ocm_power = 64 * OpticalMemoryChannel(CORONA_DEFAULT, "ocm").interconnect_power_w
        ecm_power = 64 * ElectricalMemoryChannel("ecm").interconnect_power_w
        assert ocm_power == pytest.approx(6.4, rel=0.05)
        assert ecm_power > ocm_power


class TestTable4Summaries:
    def test_ocm_summary_values(self):
        summary = ocm_interconnect_summary(CORONA_DEFAULT)
        assert summary["Memory controllers"] == 64
        assert summary["External connectivity"] == "256 fibers"
        assert summary["Memory bandwidth (TB/s)"] == pytest.approx(10.24)
        assert summary["Memory latency (ns)"] == 20.0

    def test_ecm_summary_values(self):
        summary = ecm_interconnect_summary(CORONA_DEFAULT)
        assert summary["External connectivity"] == "1536 pins"
        assert summary["Memory bandwidth (TB/s)"] == pytest.approx(0.96)

    def test_power_figures_match_paper_claims(self):
        ocm = ocm_interconnect_summary(CORONA_DEFAULT)
        ecm = ecm_interconnect_summary(CORONA_DEFAULT)
        assert ocm["Interconnect power (W)"] == pytest.approx(6.4, rel=0.05)
        assert ecm["Interconnect power (W)"] > ocm["Interconnect power (W)"]
