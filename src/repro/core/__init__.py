"""pSyncPIM core: partitioning, distribution, SpMV/SpMM/SpTRSV
execution, trace synthesis and timing."""

from .partition import (PartitionPlan, SubMatrix, partition, reassemble,
                        tile_capacity)
from .planner import Planner, make_planner
from .distribution import (Assignment, ChannelAssignment,
                           accumulation_traffic_bytes, distribute,
                           replication_traffic_bytes, shard_channels)
from .spmv import (SpmvExecution, SpmvResult, element_bytes, plan_spmv,
                   run_spmv)
from .spmm import (SpmmExecution, SpmmResult, as_spmm_execution, plan_spmm,
                   run_spmm)
from .strategies import (AutoStrategy, PartitionStrategy, TuneResult,
                         estimate_cycles, make_strategy, register_strategy,
                         strategy_names, tune_strategy)
from .sptrsv import (ILDUFactors, SpTrsvExecution, SpTrsvResult, ildu,
                     level_schedule, recursive_plan, reorder_by_levels,
                     run_sptrsv, solve_unit_triangular_reference)
from .trace import (TraceParams, dense_stream_trace, rhs_block_width,
                    spmv_channels_trace, sptrsv_channels_trace, synthesise)
from .timing import (PerfReport, price_trace, time_dense_kernel, time_spmv,
                     time_sptrsv)
from .runtime import PSyncPIM

__all__ = [
    "PartitionPlan", "SubMatrix", "partition", "reassemble",
    "tile_capacity", "Planner", "make_planner",
    "Assignment", "ChannelAssignment", "accumulation_traffic_bytes",
    "distribute", "replication_traffic_bytes", "shard_channels",
    "SpmvExecution", "SpmvResult", "element_bytes", "plan_spmv",
    "run_spmv", "SpmmExecution", "SpmmResult", "as_spmm_execution",
    "plan_spmm", "run_spmm", "AutoStrategy", "PartitionStrategy",
    "TuneResult", "estimate_cycles", "make_strategy", "register_strategy",
    "strategy_names", "tune_strategy", "ILDUFactors",
    "SpTrsvExecution", "SpTrsvResult", "ildu", "level_schedule",
    "recursive_plan", "reorder_by_levels", "run_sptrsv",
    "solve_unit_triangular_reference", "TraceParams",
    "dense_stream_trace", "rhs_block_width", "spmv_channels_trace",
    "sptrsv_channels_trace", "synthesise", "PerfReport", "price_trace",
    "time_dense_kernel", "time_spmv", "time_sptrsv",
]
