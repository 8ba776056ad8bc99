"""Processing-unit register state: SRF, DRFs and sparse vector queues.

Table VIII capacities apply: a 16 B scalar register, three 32 B dense vector
registers and three 192 B sparse vector queues, each queue split into 64 B
row/column/value sub-queues (paper §IV-B). Queue capacity in *elements* is
the binding sub-queue: 64 B of values bounds FP64 queues to 8 triples while
64 B of int16 indices bounds narrow-value queues to 32.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

import numpy as np

from ..config import ProcessingUnitConfig, element_size
from ..errors import ExecutionError

#: Index element width in the row/col sub-queues. Tile-local indices are
#: bounded by the 1 KB memory-row constraint (<= 1024), so 16 bits suffice.
INDEX_BYTES = 2


class DenseRegister:
    """One 32 B dense vector register, viewed as float64 lanes."""

    __slots__ = ("lanes", "data")

    def __init__(self, lanes: int) -> None:
        self.lanes = lanes
        self.data = np.zeros(lanes)

    def load(self, values: np.ndarray) -> None:
        """Fill the register; short inputs are zero-extended."""
        if values.size > self.lanes:
            raise ExecutionError(
                f"{values.size} lanes exceed register width {self.lanes}")
        self.data[:] = 0.0
        self.data[:values.size] = values


class SparseQueue:
    """One sparse vector queue: FIFO of (row, col, value) triples."""

    __slots__ = ("capacity", "_items")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ExecutionError("queue capacity must be positive")
        self.capacity = capacity
        self._items: Deque[Tuple[int, int, float]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def room(self) -> int:
        return self.capacity - len(self._items)

    def push(self, row: int, col: int, value: float) -> bool:
        """Predicated push: returns False (and drops) when full."""
        if self.room <= 0:
            return False
        self._items.append((int(row), int(col), float(value)))
        return True

    def pop(self) -> Tuple[int, int, float]:
        if not self._items:
            raise ExecutionError("pop from an empty sparse queue")
        return self._items.popleft()

    def peek(self) -> Tuple[int, int, float]:
        if not self._items:
            raise ExecutionError("peek at an empty sparse queue")
        return self._items[0]

    def pop_up_to(self, count: int) -> List[Tuple[int, int, float]]:
        """Pop at most *count* triples (possibly fewer, possibly none)."""
        out = []
        for _ in range(min(count, len(self._items))):
            out.append(self._items.popleft())
        return out

    def clear(self) -> None:
        self._items.clear()


class RegisterFile:
    """The complete architectural state of one processing unit's registers."""

    def __init__(self, config: ProcessingUnitConfig, precision: str) -> None:
        self.config = config
        self.precision = precision
        value_bytes = element_size(precision)
        #: SIMD lanes of the 32 B datapath for this precision.
        self.lanes = config.datapath_bytes // value_bytes
        #: Queue capacity: binding sub-queue of the three (values vs
        #: int16 indices), each 64 B.
        self.queue_capacity = min(config.subqueue_bytes // value_bytes,
                                  config.subqueue_bytes // INDEX_BYTES)
        #: Beat group size for queue loads: one 32 B beat of values, capped
        #: by queue capacity for the narrow formats.
        self.group_size = min(self.lanes, self.queue_capacity)
        self.scalar = 0.0
        self.dense = [DenseRegister(self.lanes)
                      for _ in range(config.num_dense_registers)]
        self.queues = [SparseQueue(self.queue_capacity)
                       for _ in range(config.num_sparse_queues)]

    def reset(self) -> None:
        """Clear all register and queue contents (new kernel launch)."""
        self.scalar = 0.0
        for reg in self.dense:
            reg.data[:] = 0.0
        for queue in self.queues:
            queue.clear()

    def queues_empty(self, mask: int) -> bool:
        """True when every SpVQ selected by *mask* is empty (CEXIT test)."""
        for i, queue in enumerate(self.queues):
            if mask & (1 << i) and not queue.is_empty:
                return False
        return True
