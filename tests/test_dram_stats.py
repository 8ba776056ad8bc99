"""Tests for the schedule statistics (row-buffer locality, bus use)."""

import numpy as np
import pytest

from repro.config import default_system
from repro.core import run_spmv, synthesise
from repro.dram import Command, CommandType, MemoryController
from repro.formats import generate

CFG = default_system()


def _run(trace):
    return MemoryController(enable_refresh=False).run(trace)


class TestScheduleStats:
    def test_streaming_has_high_locality(self):
        trace = [Command(CommandType.ACT_AB, row=0)]
        trace += [Command(CommandType.RD_AB, row=0, col=c % 64)
                  for c in range(32)]
        trace += [Command(CommandType.PRE_AB)]
        result = _run(trace)
        assert result.row_buffer_locality == pytest.approx(32.0)

    def test_thrashing_has_unit_locality(self):
        trace = []
        for i in range(8):
            trace.append(Command(CommandType.ACT, bank=0, row=i))
            trace.append(Command(CommandType.RD, bank=0, row=i))
            trace.append(Command(CommandType.PRE, bank=0))
        result = _run(trace)
        assert result.row_buffer_locality == pytest.approx(1.0)

    def test_activations_counts_both_kinds(self):
        trace = [Command(CommandType.ACT, bank=0, row=0),
                 Command(CommandType.PRE, bank=0),
                 Command(CommandType.ACT_AB, row=1),
                 Command(CommandType.PRE_AB)]
        assert _run(trace).activations == 2

    def test_bus_utilisation_bounds(self):
        trace = [Command(CommandType.ACT_AB, row=0)]
        trace += [Command(CommandType.RD_AB, row=0, col=c % 64)
                  for c in range(16)]
        result = _run(trace)
        assert 0.0 < result.bus_utilisation <= 1.0

    def test_empty_schedule(self):
        result = _run([])
        assert result.row_buffer_locality == 0.0
        assert result.bus_utilisation == 0.0

    def test_spmv_trace_locality_is_reasonable(self):
        matrix = generate("cant", scale=0.03)
        x = np.random.default_rng(0).random(matrix.shape[1])
        execution = run_spmv(matrix, x, CFG).execution
        result = _run(synthesise(execution, CFG).trace)
        # phased schedule: several beats per row visit, far from thrash
        assert result.row_buffer_locality > 4.0
