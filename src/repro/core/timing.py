"""Pricing synthesised traces under the DRAM timing and energy models.

This is the glue between execution records (what a kernel did), trace
synthesis (the command stream it implies on one channel) and the
:mod:`repro.dram` scheduler (how many cycles/joules that stream costs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..config import SystemConfig
from ..dram import (CommandType, EnergyReport, MemoryController,
                    TimingParams, TraceEntry, as_run)
from .. import obs
from .spmv import SpmvExecution
from .sptrsv import SpTrsvExecution
from .trace import TraceParams, dense_stream_trace, synthesise

#: Tags marking host-side (external interface) column traffic.
HOST_TAGS = frozenset({"stage_x", "merge_y", "read_b", "broadcast"})


@dataclass
class PerfReport:
    """Cycles, commands and energy of one kernel on one channel."""

    cycles: int
    seconds: float
    commands: int
    row_commands: int
    column_commands: int
    counts: Dict[CommandType, int]
    tag_cycles: Dict[str, int]
    energy: Optional[EnergyReport] = None

    @property
    def host_cycles(self) -> int:
        """Cycles attributed to external staging/merging traffic."""
        return sum(cycles for tag, cycles in self.tag_cycles.items()
                   if tag in HOST_TAGS)

    @property
    def kernel_cycles(self) -> int:
        return self.cycles - self.host_cycles


def price_trace(trace: List[TraceEntry], config: SystemConfig,
                timing: TimingParams = TimingParams(),
                with_energy: bool = False, alu_operations: int = 0,
                precision: str = "fp64",
                enable_refresh: bool = True,
                channels: Optional[int] = None,
                collector=None) -> PerfReport:
    """Schedule *trace* under the platform's full channel hierarchy.

    ``channels=None`` is the representative-channel model: the trace
    covers one channel and energy is scaled by the platform channel count.
    ``channels=C`` marks a channel-sharded trace whose commands already
    carry explicit channel ids — the scheduler clocks each channel
    independently (total cycles = max over channels) and command energy is
    already per-channel-exact, so only the cube count multiplies it.

    ``collector`` is handed to :meth:`MemoryController.run` so cycle
    attribution (:mod:`repro.obs.attrib`) can observe the one scheduling
    pass; pricing itself is unaffected.
    """
    host_columns = sum(count for cmd, count in map(as_run, trace)
                       if cmd.kind.is_column and cmd.tag in HOST_TAGS)
    controller = MemoryController(
        timing=timing, num_channels=config.memory.num_pseudo_channels,
        banks_per_channel=config.memory.banks_per_channel,
        enable_refresh=enable_refresh)
    with obs.span("price_trace", cat="dram", entries=len(trace)):
        result = controller.run(trace, with_energy=with_energy,
                                host_column_traffic=host_columns,
                                collector=collector)
    if with_energy and result.energy is not None:
        # Representative model: the trace covers one channel and every
        # channel of the cube runs the same schedule, so command and
        # background energy scale by the channel count. Sharded model:
        # the trace already spans all modelled channels, so only the cube
        # count multiplies. ALU work is charged once for the whole system
        # (it is already a global operation count).
        if channels is None:
            scale = config.memory.num_pseudo_channels * config.num_cubes
        else:
            scale = config.num_cubes
        e = result.energy
        e.activation_pj *= scale
        e.read_pj *= scale
        e.write_pj *= scale
        e.external_pj *= scale
        e.refresh_pj *= scale
        e.background_pj *= scale
        if alu_operations:
            from ..dram import EnergyModel
            EnergyModel(timing=timing).add_alu(e, alu_operations,
                                               precision)
        if obs.enabled():
            for name, pj in e.as_dict().items():
                if pj:
                    obs.add_counter(f"energy.{name}", pj)
            obs.add_counter("energy.total_pj", e.total_pj)
    return PerfReport(cycles=result.total_cycles,
                      seconds=result.seconds(timing),
                      commands=result.command_total,
                      row_commands=result.row_commands,
                      column_commands=result.column_commands,
                      counts=result.counts,
                      tag_cycles=result.tag_cycles,
                      energy=result.energy)


def time_spmv(execution: SpmvExecution, config: SystemConfig,
              mode: str = "ab", params: TraceParams = TraceParams(),
              with_energy: bool = False) -> PerfReport:
    """Price one SpMV in all-bank (``"ab"``) or per-bank (``"pb"``) mode.

    An :class:`~repro.core.spmm.SpmmExecution` prices the SpMM over its
    ``num_rhs`` right-hand sides; at ``num_rhs == 1`` the report is
    bitwise the SpMV one.
    """
    trace = synthesise(execution, config, params, mode=mode).trace
    return price_trace(trace, config, with_energy=with_energy,
                       alu_operations=execution.alu_operations,
                       precision=execution.precision,
                       channels=execution.num_channels)


def time_sptrsv(execution: SpTrsvExecution, config: SystemConfig,
                params: TraceParams = TraceParams(),
                with_energy: bool = False) -> PerfReport:
    """Price one triangular solve (leaf levels + recursive updates)."""
    trace = synthesise(execution, config, params).trace
    return price_trace(trace, config, with_energy=with_energy,
                       alu_operations=execution.alu_operations,
                       precision=execution.precision,
                       channels=execution.num_channels)


def time_dense_kernel(elements: int, reads_per_group: int,
                      writes_per_group: int, config: SystemConfig,
                      precision: str = "fp64", mode: str = "ab",
                      ops_per_element: int = 1,
                      with_energy: bool = False,
                      params: TraceParams = TraceParams()) -> PerfReport:
    """Price a dense streaming kernel over *elements* total elements.

    The vector is spread over all banks; the representative channel streams
    ``elements / (16 * cubes)`` per bank-group in AB mode, or drives each
    of its 16 banks separately in PB mode.
    """
    per_bank = -(-elements // config.total_units)
    trace = dense_stream_trace(per_bank, reads_per_group, writes_per_group,
                               precision, all_bank=(mode == "ab"),
                               params=params)
    return price_trace(trace, config, with_energy=with_energy,
                       alu_operations=ops_per_element * elements,
                       precision=precision)
