"""HBM2 DRAM timing, scheduling and energy substrate.

Command-granularity reimplementation of the DRAMsim3 behaviours pSyncPIM
relies on: JEDEC timing enforcement, single-bank vs all-bank command issue,
the one-row/one-column-command-per-cycle channel buses, refresh, and a
DRAMPower-style energy model.
"""

from .timing import HBM2_1GHZ, TimingParams
from .commands import (Command, CommandRun, CommandType, TraceEntry,
                       as_run, expand_trace)
from .bank import BankState
from .channel import (BANKS_PER_CHANNEL, BANKS_PER_GROUP,
                      GROUPS_PER_CHANNEL, ChannelScheduler)
from .controller import MemoryController, ScheduleResult, count_commands
from .power import EnergyModel, EnergyParams, EnergyReport

__all__ = [
    "HBM2_1GHZ", "TimingParams", "Command", "CommandRun", "CommandType",
    "TraceEntry", "as_run", "expand_trace",
    "BankState",
    "BANKS_PER_CHANNEL", "BANKS_PER_GROUP", "GROUPS_PER_CHANNEL",
    "ChannelScheduler", "MemoryController", "ScheduleResult",
    "count_commands", "EnergyModel", "EnergyParams", "EnergyReport",
]
