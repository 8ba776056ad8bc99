"""Tests for repro.dram.controller and the energy model."""

import pytest

from repro.dram import (Command, CommandType, EnergyModel,
                        EnergyParams, MemoryController, TimingParams,
                        count_commands)
from repro.errors import TimingError


def _row_trace(kind_act, kind_col, kind_pre, banks, reads=4, channel=0):
    trace = []
    for b in banks:
        trace.append(Command(kind_act, channel=channel, bank=b, row=1))
        for c in range(reads):
            trace.append(Command(kind_col, channel=channel, bank=b,
                                 row=1, col=c))
        trace.append(Command(kind_pre, channel=channel, bank=b))
    return trace


class TestMemoryController:
    def test_empty_trace(self):
        result = MemoryController().run([])
        assert result.total_cycles == 0
        assert result.command_total == 0

    def test_counts_and_totals(self):
        trace = _row_trace(CommandType.ACT, CommandType.RD,
                           CommandType.PRE, banks=range(4))
        result = MemoryController(enable_refresh=False).run(trace)
        assert result.command_total == len(trace)
        assert result.counts[CommandType.ACT] == 4
        assert result.counts[CommandType.RD] == 16
        assert result.row_commands == 8
        assert result.column_commands == 16

    def test_channels_run_in_parallel(self):
        one = _row_trace(CommandType.ACT, CommandType.RD,
                         CommandType.PRE, banks=range(8), channel=0)
        controller = MemoryController(enable_refresh=False)
        single = controller.run(one).total_cycles
        two = one + _row_trace(CommandType.ACT, CommandType.RD,
                               CommandType.PRE, banks=range(8), channel=1)
        both = MemoryController(enable_refresh=False).run(two)
        # Same work on a second channel costs (almost) no extra time.
        assert both.total_cycles == pytest.approx(single, abs=2)

    def test_all_bank_trace_faster_than_per_bank(self):
        ab = []
        ab.append(Command(CommandType.ACT_AB, row=1))
        for c in range(8):
            ab.append(Command(CommandType.RD_AB, row=1, col=c))
        ab.append(Command(CommandType.PRE_AB))
        pb = _row_trace(CommandType.ACT, CommandType.RD, CommandType.PRE,
                        banks=range(16), reads=8)
        ctrl = MemoryController(enable_refresh=False)
        t_ab = ctrl.run(ab).total_cycles
        t_pb = MemoryController(enable_refresh=False).run(pb).total_cycles
        assert t_pb > 4 * t_ab

    def test_rejects_out_of_range_channel(self):
        with pytest.raises(TimingError):
            MemoryController(num_channels=2).run(
                [Command(CommandType.ACT, channel=5, bank=0, row=0)])

    def test_seconds_conversion(self):
        trace = [Command(CommandType.ACT_AB, row=0)]
        result = MemoryController(enable_refresh=False).run(trace)
        assert result.seconds(TimingParams()) == pytest.approx(
            result.total_cycles * 1e-9)

    def test_tag_cycle_attribution(self):
        trace = [Command(CommandType.ACT_AB, row=0, tag="open"),
                 Command(CommandType.RD_AB, row=0, tag="stream"),
                 Command(CommandType.RD_AB, row=0, col=1, tag="stream")]
        result = MemoryController(enable_refresh=False).run(trace)
        assert set(result.tag_cycles) == {"open", "stream"}
        assert result.tag_cycles["stream"] > 0

    def test_count_commands_without_scheduling(self):
        trace = _row_trace(CommandType.ACT, CommandType.RD,
                           CommandType.PRE, banks=range(2))
        counts = count_commands(trace)
        assert counts[CommandType.ACT] == 2
        assert counts[CommandType.RD] == 8


class TestEnergyModel:
    def test_all_bank_charges_every_bank(self):
        model = EnergyModel()
        counts = {CommandType.ACT_AB: 1, CommandType.RD_AB: 2}
        report = model.command_energy(counts, banks_per_channel=16)
        p = EnergyParams()
        assert report.activation_pj == pytest.approx(16 * p.act_pre_pj)
        assert report.read_pj == pytest.approx(32 * p.read_internal_pj)

    def test_external_traffic_energy(self):
        model = EnergyModel()
        report = model.command_energy({}, host_column_traffic=10)
        assert report.external_pj == pytest.approx(
            10 * EnergyParams().external_io_pj)

    def test_background_scales_with_time(self):
        model = EnergyModel()
        r1 = model.add_background(model.command_energy({}), 1000)
        r2 = model.add_background(model.command_energy({}), 2000)
        assert r2.background_pj == pytest.approx(2 * r1.background_pj)

    def test_alu_energy_scales_by_precision(self):
        model = EnergyModel()
        r_int8 = model.add_alu(model.command_energy({}), 100, "int8")
        r_fp64 = model.add_alu(model.command_energy({}), 100, "fp64")
        assert r_fp64.alu_pj > 10 * r_int8.alu_pj

    def test_average_power(self):
        model = EnergyModel()
        report = model.add_background(model.command_energy({}), 10 ** 6)
        watts = report.average_power_watts(10 ** 6, TimingParams())
        # background power per channel over one channel of time
        expected = EnergyParams().background_mw_per_channel * 1e-3
        assert watts == pytest.approx(expected, rel=1e-6)

    def test_controller_energy_integration(self):
        trace = [Command(CommandType.ACT_AB, row=0),
                 Command(CommandType.RD_AB, row=0),
                 Command(CommandType.PRE_AB)]
        result = MemoryController(enable_refresh=False).run(
            trace, with_energy=True, alu_operations=50, precision="fp32")
        assert result.energy is not None
        assert result.energy.total_pj > 0
        assert result.energy.alu_pj > 0
