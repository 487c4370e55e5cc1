"""Tests for the theory-bound formulas and fitting helpers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    diameter_bound_sparse,
    dra_step_budget,
    fit_power_law,
    klee_larman_diameter,
    partition_size_bounds,
    predicted_dhc1_rounds,
    predicted_dhc2_rounds,
    predicted_dra_steps,
    predicted_upcast_rounds,
)
from repro.analysis.bounds import dra_round_budget


class TestBudgets:
    def test_dra_step_budget_shape(self):
        assert dra_step_budget(100) == int(7 * 100 * math.log(100)) + 64
        assert dra_step_budget(0) == 64

    def test_diameter_bound_grows_slowly(self):
        assert diameter_bound_sparse(100) < diameter_bound_sparse(10_000)
        assert diameter_bound_sparse(10_000) < 80

    def test_round_budget_dominates_typical_runs(self):
        # Empirically DRA on n=100 uses ~3k rounds; the watchdog is far above.
        assert dra_round_budget(100) > 20_000

    def test_klee_larman(self):
        assert klee_larman_diameter(0.5) == 2
        assert klee_larman_diameter(1 / 3) == 3
        with pytest.raises(ValueError):
            klee_larman_diameter(0.0)

    def test_partition_bounds(self):
        lo, hi = partition_size_bounds(1000, 10)
        assert lo == 50.0 and hi == 150.0


class TestPredictions:
    def test_dra_steps_monotone(self):
        assert predicted_dra_steps(200) > predicted_dra_steps(100)

    def test_dhc_round_shapes(self):
        n = 4096
        assert predicted_dhc2_rounds(n, 0.5) == pytest.approx(predicted_dhc1_rounds(n))
        assert predicted_dhc2_rounds(n, 0.3) < predicted_dhc2_rounds(n, 0.7)

    def test_upcast_inverse_p(self):
        assert predicted_upcast_rounds(1000, 0.1) == pytest.approx(
            2 * predicted_upcast_rounds(1000, 0.2))


class TestPowerLawFit:
    def test_recovers_exact_law(self):
        xs = [10.0, 20.0, 40.0, 80.0]
        ys = [3.0 * x**0.5 for x in xs]
        a, b = fit_power_law(xs, ys)
        assert a == pytest.approx(3.0, rel=1e-9)
        assert b == pytest.approx(0.5, rel=1e-9)

    @given(
        a=st.floats(0.1, 10),
        b=st.floats(-2, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_random_laws(self, a, b):
        xs = [5.0, 11.0, 23.0, 47.0, 95.0]
        ys = [a * x**b for x in xs]
        fa, fb = fit_power_law(xs, ys)
        assert fb == pytest.approx(b, abs=1e-6)
        assert fa == pytest.approx(a, rel=1e-6)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0], [2.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, -2.0], [2.0, 3.0])
        with pytest.raises(ValueError, match="distinct"):
            fit_power_law([128.0, 128.0], [40.0, 41.0])

    def test_steep_fit_over_close_sizes_does_not_overflow(self):
        # Adjacent sizes with very different means make |b| huge; the
        # prefactor leaves float range but the exponent stays exact.
        expected = math.log(1e5 / 5759.7) / math.log(513 / 512)
        for ys, sign in (([5759.7, 1e5], 1.0), ([1e5, 5759.7], -1.0)):
            a, b = fit_power_law([512, 513], ys)
            assert b == pytest.approx(sign * expected, rel=1e-9)
            assert 0.0 <= a <= math.inf
