import numpy as np
import pytest

from remest import CapacityError, UsageError
from remest import dp, solver_a


class TestValueIterate:
    def test_worked_example_threshold(self, bd_09):
        assert dp.value_iterate(bd_09, 20.0).threshold == 5

    def test_interval_interior_point(self, bd_09):
        # lambda = 4.0 sits inside the k = 2 corner interval (1.0989, 4.1021]
        assert dp.value_iterate(bd_09, 4.0).threshold == 2

    def test_zero_price_transmits_everywhere_but_origin(self, bd_09):
        result = dp.value_iterate(bd_09, 0.0)
        assert result.threshold == 1

    def test_policy_is_symmetric_threshold(self, bd_09):
        result = dp.value_iterate(bd_09, 10.0)
        transmit = result.transmit
        assert np.array_equal(transmit, transmit[::-1])
        k = result.threshold
        pos = transmit[result.bound:]
        assert pos[k:].all() and not pos[:k].any()

    def test_value_even_and_monotone(self, bd_09):
        result = dp.value_iterate(bd_09, 10.0, tol=1e-10)
        V = result.values
        assert np.max(np.abs(V - V[::-1])) <= 1e-8
        assert np.all(np.diff(V[result.bound:]) >= -1e-8)

    def test_bound_too_small(self, bd_09):
        with pytest.raises(CapacityError):
            dp.value_iterate(bd_09, 20.0, bound=3)

    def test_average_cost_rejected(self, bd_avg):
        with pytest.raises(UsageError):
            dp.value_iterate(bd_avg, 5.0)

    def test_truncation_error_recorded(self, bd_09):
        result = dp.value_iterate(bd_09, 5.0)
        assert result.truncation_error_bound == 0.0  # exact pmf, no truncation


class TestPolicyEvaluateFixedPoint:
    def test_table_values(self, bd_09):
        d_fp, n_fp = dp.policy_evaluate_fixed_point(bd_09, 2)
        assert d_fp == pytest.approx(0.4576, abs=5e-4)
        assert n_fp == pytest.approx(0.1236, abs=5e-4)
        spec = solver_a.bd_spec(0.3, 0.95)
        d_fp, n_fp = dp.policy_evaluate_fixed_point(spec, 4)
        assert d_fp == pytest.approx(1.1218, abs=5e-4)
        assert n_fp == pytest.approx(0.0288, abs=5e-4)

    def test_always_transmit_analytic(self, bd_09):
        assert dp.policy_evaluate_fixed_point(bd_09, 0) == (0.0, 1.0)

    def test_average_cost_rejected(self, bd_avg):
        with pytest.raises(UsageError):
            dp.policy_evaluate_fixed_point(bd_avg, 2)
