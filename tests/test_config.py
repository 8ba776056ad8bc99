"""Tests for repro.config — Tables VII and VIII constants and validation."""

import dataclasses

import pytest

from repro.config import (ALU_LANES, PRECISION_BYTES,
                          TABLE_VIII_THROUGHPUT_GOPS, HBM2Config,
                          ProcessingUnitConfig, SystemConfig, default_system,
                          element_size)
from repro.errors import ConfigError


class TestHBM2Config:
    def test_table_vii_defaults(self):
        mem = HBM2Config()
        assert mem.num_bankgroups == 4
        assert mem.banks_per_group == 4
        assert mem.num_rows == 16384
        assert mem.num_columns == 64
        assert mem.num_stacks == 8
        assert mem.num_pseudo_channels == 16
        assert mem.clock_hz == 1e9
        assert mem.external_bandwidth == 256e9
        assert mem.internal_bandwidth == 2e12
        assert mem.capacity_bytes == 4 << 30

    def test_row_is_1kb(self):
        assert HBM2Config().row_bytes == 1024

    def test_256_banks_per_cube(self):
        assert HBM2Config().total_banks == 256

    def test_16_banks_per_channel(self):
        assert HBM2Config().banks_per_channel == 16

    def test_capacity_consistency(self):
        mem = HBM2Config()
        mem.validate()
        assert mem.bank_bytes * mem.total_banks == mem.capacity_bytes

    def test_capacity_mismatch_rejected(self):
        mem = dataclasses.replace(HBM2Config(), capacity_bytes=1 << 30)
        with pytest.raises(ConfigError, match="capacity"):
            mem.validate()

    def test_internal_must_exceed_external(self):
        mem = dataclasses.replace(HBM2Config(), internal_bandwidth=100e9)
        with pytest.raises(ConfigError, match="internal bandwidth"):
            mem.validate()

    def test_nonpositive_field_rejected(self):
        mem = dataclasses.replace(HBM2Config(), num_rows=0)
        with pytest.raises(ConfigError):
            mem.validate()


class TestProcessingUnitConfig:
    def test_table_viii_defaults(self):
        pu = ProcessingUnitConfig()
        assert pu.datapath_bytes == 32
        assert pu.clock_hz == 250e6
        assert pu.instruction_slots == 32
        assert pu.scalar_register_bytes == 16
        assert pu.num_dense_registers == 3
        assert pu.dense_register_bytes == 32
        assert pu.num_sparse_queues == 3
        assert pu.sparse_queue_bytes == 192

    def test_control_register_is_128_bytes(self):
        assert ProcessingUnitConfig().control_register_bytes == 128

    def test_subqueue_is_64_bytes(self):
        assert ProcessingUnitConfig().subqueue_bytes == 64

    @pytest.mark.parametrize("precision,lanes", sorted(ALU_LANES.items()))
    def test_alu_lane_counts(self, precision, lanes):
        assert ProcessingUnitConfig().alu_lanes(precision) == lanes

    def test_throughput_scales_with_lanes(self):
        pu = ProcessingUnitConfig()
        assert pu.throughput_ops("int8") == 32 * 250e6
        assert pu.throughput_ops("fp64") == 4 * 250e6

    def test_unknown_precision_rejected(self):
        with pytest.raises(ConfigError, match="unknown precision"):
            ProcessingUnitConfig().alu_lanes("fp8")

    def test_validate_rejects_tiny_subqueue(self):
        pu = dataclasses.replace(ProcessingUnitConfig(),
                                 sparse_queue_bytes=48)
        with pytest.raises(ConfigError):
            pu.validate()


class TestSystemConfig:
    def test_default_system_validates(self):
        cfg = default_system()
        assert cfg.total_units == 256
        assert cfg.num_cubes == 1

    def test_three_cube_scaling(self):
        cfg = default_system(num_cubes=3)
        assert cfg.total_units == 768
        assert cfg.external_bandwidth == 3 * 256e9
        assert cfg.internal_bandwidth == 3 * 2e12

    def test_submatrix_limit_fits_row(self):
        cfg = default_system()
        assert cfg.submatrix_limit_bytes == 1024
        assert cfg.submatrix_limit_bytes <= cfg.memory.row_bytes

    def test_oversized_submatrix_limit_rejected(self):
        cfg = dataclasses.replace(SystemConfig(), submatrix_limit_bytes=4096)
        with pytest.raises(ConfigError, match="fit one memory row"):
            cfg.validate()

    def test_vector_capacity_per_precision(self):
        cfg = default_system()
        assert cfg.vector_capacity("fp64") == 128
        assert cfg.vector_capacity("int8") == 1024

    def test_peak_throughput_aggregates_units(self):
        cfg = default_system()
        assert cfg.peak_throughput("fp64") == 4 * 250e6 * 256

    def test_zero_cubes_rejected(self):
        cfg = dataclasses.replace(SystemConfig(), num_cubes=0)
        with pytest.raises(ConfigError, match="num_cubes"):
            cfg.validate()


class TestPrecisionTables:
    def test_every_precision_has_lanes(self):
        assert set(PRECISION_BYTES) == set(ALU_LANES)

    def test_element_sizes(self):
        assert element_size("int8") == 1
        assert element_size("fp16") == 2
        assert element_size("fp64") == 8

    def test_table_viii_throughputs_listed(self):
        assert TABLE_VIII_THROUGHPUT_GOPS["int8"] == 25.6
        assert TABLE_VIII_THROUGHPUT_GOPS["fp64"] == 3.2
        assert set(TABLE_VIII_THROUGHPUT_GOPS) == set(PRECISION_BYTES)

    def test_lane_width_matches_datapath(self):
        # lanes * element size == 32 B datapath for every precision
        pu = ProcessingUnitConfig()
        for prec, lanes in ALU_LANES.items():
            assert lanes * PRECISION_BYTES[prec] == pu.datapath_bytes
