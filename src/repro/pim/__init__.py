"""Processing units, bank memory and the all-bank lock-step engines.

Two functional engines implement the same lock-step broadcast semantics:
the scalar :class:`AllBankEngine` (one Python :class:`ProcessingUnit` per
bank — the reference oracle) and the vectorized :class:`LaneEngine`
(whole-channel state as numpy lanes — bitwise identical, much faster).
:func:`make_engine` picks between them (``PSYNCPIM_ENGINE``).
"""

from typing import Optional

from ..config import ProcessingUnitConfig, resolve_engine
from .memory import (PADDING_INDEX, BankMemory, DenseRegion, TripleRegion,
                     padded_triples)
from .registers import DenseRegister, RegisterFile, SparseQueue
from .beat import Beat
from .unit import ProcessingUnit, UnitStats, uses_bank
from .engine import AllBankEngine, EngineStats, Mode
from .lane_engine import LaneEngine
from .lanes import DenseLanes, LaneMemory, LaneQueue, TripleLanes
from .verify import (BeatSlot, beat_signature, check_stream_length,
                     expected_beats)
from . import alu


def make_engine(num_banks: int,
                config: ProcessingUnitConfig = ProcessingUnitConfig(),
                precision: str = "fp64",
                check_lockstep: bool = True,
                engine: Optional[str] = None):
    """Build the selected functional engine (lane by default).

    *engine* overrides the ``PSYNCPIM_ENGINE`` environment variable;
    both engines expose the same driver-facing interface and produce
    bitwise-identical results.
    """
    name = resolve_engine(engine)
    cls = LaneEngine if name == "lane" else AllBankEngine
    return cls(num_banks, config=config, precision=precision,
               check_lockstep=check_lockstep)


__all__ = [
    "PADDING_INDEX", "BankMemory", "DenseRegion", "TripleRegion",
    "padded_triples", "DenseRegister", "RegisterFile", "SparseQueue",
    "Beat", "ProcessingUnit", "UnitStats", "uses_bank", "AllBankEngine",
    "EngineStats", "Mode", "LaneEngine", "DenseLanes",
    "LaneMemory", "LaneQueue", "TripleLanes", "make_engine", "alu",
    "BeatSlot", "beat_signature", "check_stream_length", "expected_beats",
]
