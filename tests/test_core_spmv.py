"""Tests for repro.core.spmv — the end-to-end SpMV runtime."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_system
from repro.core import run_spmv
from repro.errors import ConfigError, ExecutionError, FormatError
from repro.formats import COOMatrix, generate
from repro.formats.generators import (power_law_graph, stencil_2d,
                                      uniform_random)

CFG = default_system()
RNG = np.random.default_rng(0)


class TestFastTier:
    @pytest.mark.parametrize("name,scale", [("facebook", 0.2),
                                            ("poisson3Da", 0.3),
                                            ("cant", 0.02)])
    def test_matches_reference(self, name, scale):
        m = generate(name, scale=scale)
        x = RNG.random(m.shape[1])
        result = run_spmv(m, x, CFG)
        np.testing.assert_allclose(result.y, m.matvec(x), rtol=1e-10)

    def test_rectangular(self):
        m = uniform_random(300, 700, density=0.01, seed=1)
        x = RNG.random(700)
        np.testing.assert_allclose(run_spmv(m, x, CFG).y, m.matvec(x))

    def test_uncompressed_same_answer(self):
        m = power_law_graph(800, 5, seed=2)
        x = RNG.random(800)
        a = run_spmv(m, x, CFG, compress=True)
        b = run_spmv(m, x, CFG, compress=False)
        np.testing.assert_allclose(a.y, b.y)
        assert a.execution.input_bytes < b.execution.input_bytes

    def test_policies_same_answer(self):
        m = power_law_graph(800, 5, seed=3)
        x = RNG.random(800)
        ys = [run_spmv(m, x, CFG, policy=p).y
              for p in ("paper", "naive", "balanced")]
        np.testing.assert_allclose(ys[0], ys[1])
        np.testing.assert_allclose(ys[0], ys[2])

    def test_y0_accumulation(self):
        m = uniform_random(100, 100, 0.05, seed=4)
        x = RNG.random(100)
        y0 = RNG.random(100)
        result = run_spmv(m, x, CFG, y0=y0)
        np.testing.assert_allclose(result.y, y0 + m.matvec(x))

    def test_sub_accumulate(self):
        m = uniform_random(100, 100, 0.05, seed=5)
        x = RNG.random(100)
        y0 = RNG.random(100)
        result = run_spmv(m, x, CFG, accumulate="sub", y0=y0)
        np.testing.assert_allclose(result.y, y0 - m.matvec(x))

    def test_min_plus_semiring(self):
        m = uniform_random(60, 60, 0.1, seed=6, values="uniform")
        x = RNG.random(60)
        y0 = np.full(60, np.inf)
        result = run_spmv(m, x, CFG, multiply="add", accumulate="min",
                          y0=y0)
        expect = y0.copy()
        np.minimum.at(expect, m.rows, m.vals + x[m.cols])
        np.testing.assert_allclose(result.y, expect)

    def test_second_min_semiring(self):
        m = uniform_random(60, 60, 0.1, seed=7, values="ones")
        labels = np.arange(60, dtype=float)
        result = run_spmv(m, labels, CFG, multiply="second",
                          accumulate="min", y0=np.full(60, np.inf))
        expect = np.full(60, np.inf)
        np.minimum.at(expect, m.rows, labels[m.cols])
        np.testing.assert_allclose(result.y, expect)

    def test_lor_land_semiring(self):
        m = uniform_random(80, 80, 0.08, seed=8, values="ones")
        f = (RNG.random(80) < 0.2).astype(float)
        result = run_spmv(m, f, CFG, multiply="land", accumulate="lor")
        expect = np.zeros(80)
        np.maximum.at(expect, m.rows, f[m.cols])
        np.testing.assert_allclose(result.y, expect)

    def test_bad_arguments(self):
        m = uniform_random(10, 10, 0.2, seed=9)
        with pytest.raises(ExecutionError):
            run_spmv(m, np.ones(5), CFG)
        with pytest.raises(ExecutionError):
            run_spmv(m, np.ones(10), CFG, fidelity="quantum")
        with pytest.raises(ExecutionError):
            run_spmv(m, np.ones(10), CFG, multiply="xor")


class TestFunctionalTier:
    def test_matches_fast(self):
        m = generate("facebook", scale=0.04)
        x = RNG.random(m.shape[1])
        fast = run_spmv(m, x, CFG, fidelity="fast")
        func = run_spmv(m, x, CFG, fidelity="functional", engine_banks=8)
        np.testing.assert_allclose(func.y, fast.y, rtol=1e-10)

    def test_functional_sub(self):
        m = uniform_random(90, 90, 0.04, seed=10)
        x = RNG.random(90)
        y0 = RNG.random(90)
        result = run_spmv(m, x, CFG, fidelity="functional", y0=y0,
                          accumulate="sub", engine_banks=4)
        np.testing.assert_allclose(result.y, y0 - m.matvec(x))

    def test_functional_stencil(self):
        m = stencil_2d(12)
        x = RNG.random(144)
        result = run_spmv(m, x, CFG, fidelity="functional", engine_banks=8)
        np.testing.assert_allclose(result.y, m.matvec(x))

    @given(st.integers(0, 30))
    @settings(max_examples=8, deadline=None)
    def test_property_functional_equals_reference(self, seed):
        m = uniform_random(70, 70, 0.05, seed=seed)
        x = np.random.default_rng(seed).random(70)
        result = run_spmv(m, x, CFG, fidelity="functional", engine_banks=4)
        np.testing.assert_allclose(result.y, m.matvec(x), rtol=1e-9,
                                   atol=1e-12)


class TestExecutionRecord:
    def test_record_consistency(self):
        m = generate("cant", scale=0.02)
        x = RNG.random(m.shape[1])
        ex = run_spmv(m, x, CFG).execution
        assert ex.total_elements == m.nnz
        assert ex.num_rounds == len(ex.round_batches)
        assert len(ex.round_x_lengths) == ex.num_rounds
        assert ex.lockstep_elements >= max(ex.round_batches)
        assert ex.imbalance >= 1.0
        assert 0 < ex.banks_used <= CFG.total_units
        assert ex.input_bytes > 0 and ex.output_bytes > 0
        assert ex.matrix_bytes == m.nnz * 12  # fp64: 8 B value + 4 B idx

    def test_three_cube_spread(self):
        m = generate("cant", scale=0.05)
        x = RNG.random(m.shape[1])
        ex1 = run_spmv(m, x, default_system(1)).execution
        ex3 = run_spmv(m, x, default_system(3)).execution
        assert ex3.num_banks == 3 * ex1.num_banks
        assert ex3.lockstep_elements < ex1.lockstep_elements


# ----------------------------------------------------------------------
# degenerate inputs: a correct result or a typed error, never anything else
# ----------------------------------------------------------------------
def _coo(shape, rows, cols, vals):
    return COOMatrix(shape, np.asarray(rows, dtype=np.int64),
                     np.asarray(cols, dtype=np.int64),
                     np.asarray(vals, dtype=np.float64))


_DEGENERATE = {
    "nnz0-5x5": lambda: _coo((5, 5), [], [], []),
    "0x0": lambda: _coo((0, 0), [], [], []),
    "1x7": lambda: _coo((1, 7), [0, 0, 0], [0, 3, 6], [1.0, 2.0, 3.0]),
    "7x1": lambda: _coo((7, 1), [0, 3, 6], [0, 0, 0], [1.0, 2.0, 3.0]),
    "nan-value": lambda: _coo((4, 4), [0, 1, 2, 3], [0, 1, 2, 0],
                              [1.0, np.nan, 2.0, 3.0]),
}

_ONE_ROW = _DEGENERATE["1x7"]


def _run(make, channels=None, fidelity="fast", x_len=None):
    matrix = make()
    n = matrix.shape[1] if x_len is None else x_len
    x = np.arange(1, n + 1, dtype=np.float64)
    y = run_spmv(matrix, x, CFG, fidelity=fidelity, channels=channels).y
    return y, matrix.matvec(x)


@pytest.mark.parametrize("make,kwargs,error", [
    *[pytest.param(make, {"channels": channels, "fidelity": fidelity},
                   None, id=f"{name}-{channels}ch-{fidelity}")
      for name, make in _DEGENERATE.items()
      for channels in (None, 16)
      for fidelity in ("fast", "functional")],
    *[pytest.param(_ONE_ROW, {"channels": channels}, ConfigError,
                   id=f"channels={channels}")
      for channels in (0, -1, 17)],
    pytest.param(lambda: _coo((3, 3), [5], [0], [1.0]), {}, FormatError,
                 id="row-index-out-of-range"),
    pytest.param(_ONE_ROW, {"x_len": 6}, ExecutionError,
                 id="wrong-x-length"),
])
def test_degenerate_input(make, kwargs, error):
    if error is not None:
        with pytest.raises(error):
            _run(make, **kwargs)
        return
    y, want = _run(make, **kwargs)
    assert y.shape == want.shape
    assert np.array_equal(y, want, equal_nan=True)
