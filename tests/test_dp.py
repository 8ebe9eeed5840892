import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from remest import CapacityError, DistortionFn, IntegerPmf, ModelSpecA, UsageError
from remest import dp, solver_a
from conftest import random_valid_pmf


def _random_spec(seed: int, a: int, beta: float,
                 distortion: DistortionFn = DistortionFn.absolute()) -> ModelSpecA:
    pmf = IntegerPmf(random_valid_pmf(np.random.default_rng(seed), 4))
    return ModelSpecA(a=a, pmf=pmf, distortion=distortion, beta=beta)


def _dense(succ: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The step operator as a dense matrix, P[i, succ[i, j]] += w[j]."""
    n = len(succ)
    P = np.zeros((n, n))
    np.add.at(P, (np.repeat(np.arange(n), len(w)), succ.ravel()), np.tile(w, n))
    return P


def _wide_chain_values(spec: ModelSpecA, k: int) -> np.ndarray:
    """(D, N) of the threshold-k policy by a linear solve on the wide chain.

    States -W..W with W = k + r + 3, each transmitting at |e| >= k, plus one
    exterior state that transmits; successors are built here, not by
    ``dp.step_operator``.
    """
    W = k + spec.pmf.radius + 3
    states = np.arange(-W, W + 1)
    transmit = np.append(np.abs(states) >= k, True)
    n = len(transmit)
    P = np.zeros((n, n))
    for i, e in enumerate(np.append(states, 0)):
        for off, mass in zip(spec.pmf.offsets, spec.pmf.values):
            nxt = off if transmit[i] else spec.a * e + off
            P[i, nxt + W if abs(nxt) <= W else n - 1] += mass
    dvals = np.append(spec.distortion(states), 0.0)
    c = (1.0 - spec.beta) * np.column_stack([np.where(transmit, 0.0, dvals), transmit])
    return np.linalg.solve(np.eye(n) - spec.beta * P, c)[W]


class TestStepOperator:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(-2, 3), st.integers(0, 12))
    @settings(max_examples=30, deadline=None)
    def test_rows_are_the_pmf_law(self, seed, a, bound):
        spec = _random_spec(seed, a, 0.9)
        succ = dp.step_operator(spec, bound)
        n = 2 * bound + 1
        w = spec.pmf.values
        assert succ.shape == (n + 1, len(w))
        assert succ.min() >= 0 and succ.max() <= n
        # dense matrix of the operator: every row carries the whole pmf mass
        P = _dense(succ, w)
        assert np.allclose(P.sum(axis=1), w.sum(), rtol=0.0, atol=1e-15)
        # silent rows follow a e + W, the transmit row (index n) restarts at W
        origin = np.append(a * np.arange(-bound, bound + 1), 0)
        nxt = origin[:, None] + spec.pmf.offsets
        inside = np.abs(nxt) <= bound
        assert np.array_equal(succ[inside], nxt[inside] + bound)
        assert np.all(succ[~inside] == n)


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([-3, -2, -1, 1, 2, 3]),
       st.sampled_from([0.9, 0.95, 0.99, 0.999]), st.floats(1.0, 40.0))
@settings(max_examples=25, deadline=None)
def test_value_iteration_matches_corner_lookup(seed, a, beta, lam):
    spec = _random_spec(seed, a, beta)
    k_solver, _ = solver_a.optimal_costly(spec, lam)
    # at a corner price both thresholds are optimal and the tie rules differ
    corners = solver_a.corner_lambdas(spec, k_solver)
    assume(all(abs(lam - lam_k) > 1e-6 * lam_k for _, lam_k in corners))
    assert dp.value_iterate(spec, lam).threshold == k_solver


@given(st.integers(0, 2 ** 32 - 1), st.integers(-3, 3), st.sampled_from([0.5, 0.9, 0.99]),
       st.floats(0.0, 200.0), st.sampled_from([DistortionFn.absolute(), DistortionFn.quadratic()]))
@settings(max_examples=25, deadline=None)
# an exact corner price: thresholds 3 and 4 are both optimal
@example(seed=0, a=0, beta=0.9, lam=3.0, distortion=DistortionFn.absolute())
def test_greedy_policy_is_the_threshold_far_beyond_the_window(seed, a, beta, lam, distortion):
    # the values extended to |e| <= 4 W with the transmit value, successors
    # built here: both actions' one-step costs pick the threshold rule
    # wherever they differ by more than the Bellman tolerance below
    spec = _random_spec(seed, a, beta, distortion)
    result = dp.value_iterate(spec, lam)
    W, k = len(result.values) // 2, result.threshold
    v_tx = result.values[0]
    wide = np.arange(-4 * W, 4 * W + 1)
    V = np.where(np.abs(wide) <= W, result.values[np.clip(wide + W, 0, 2 * W)], v_tx)

    def expected(nxt):
        inside = np.abs(nxt) <= 4 * W
        return np.where(inside, V[np.clip(nxt + 4 * W, 0, 8 * W)], v_tx) @ spec.pmf.values

    transmit_cost = (1.0 - beta) * lam + beta * expected(spec.pmf.offsets)
    silent_cost = ((1.0 - beta) * spec.distortion(wide)
                   + beta * expected(spec.a * wide[:, None] + spec.pmf.offsets))
    tol = 1e-9 * (1.0 + np.max(V))
    decided = np.abs(transmit_cost - silent_cost) > tol
    assert np.array_equal((transmit_cost < silent_cost)[decided], (np.abs(wide) >= k)[decided])
    # and the values are the fixed point of the one-step costs
    bellman = np.minimum(transmit_cost, silent_cost)
    assert np.max(np.abs(bellman - V)) <= tol


# a corner price, the next float on each side, and small relative offsets
_NEAR = [lambda x: x, lambda x: math.nextafter(x, 0.0), lambda x: math.nextafter(x, math.inf),
         lambda x: x * (1.0 + 1e-9), lambda x: x * (1.0 - 1e-9), lambda x: x * (1.0 + 1e-12)]


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([-3, -2, -1, 1, 2, 3]),
       st.sampled_from([0.9, 0.95, 0.99, 0.999]), st.integers(0, 2 ** 16),
       st.integers(0, len(_NEAR) - 1))
@settings(max_examples=40, deadline=None)
@example(seed=1489578132, a=-2, beta=0.99, pick=0, shift=0)
def test_corner_prices_return_an_optimal_threshold(seed, a, beta, pick, shift):
    # two thresholds are optimal at a corner price; the oracle returns one of
    # them and does not cycle between them
    spec = _random_spec(seed, a, beta)
    corners = [lam for _, lam in solver_a.corner_lambdas(spec, 60) if 1.0 <= lam <= 40.0]
    assume(corners)
    lam = _NEAR[shift](corners[pick % len(corners)])
    k = dp.value_iterate(spec, lam).threshold
    _, cost = solver_a.optimal_costly(spec, lam)
    perf = solver_a.performance(spec, k)
    assert abs(perf.distortion + lam * perf.transmission_rate - cost) <= 1e-9 * cost


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
        # the values equal the transmit value, held at the window's edge,
        # exactly where the threshold rule transmits
        result = dp.value_iterate(bd_09, 10.0)
        V = result.values
        transmit = V == V[0]
        assert np.array_equal(transmit, transmit[::-1])
        k = result.threshold
        pos = transmit[len(V) // 2:]
        assert pos[k:].all() and not pos[:k].any()

    def test_value_even_and_monotone(self, bd_09):
        result = dp.value_iterate(bd_09, 10.0)
        V = result.values
        assert np.max(np.abs(V - V[::-1])) <= 1e-8
        assert np.all(np.diff(V[len(V) // 2:]) >= -1e-8)

    def test_iteration_counts_pinned(self, bd_09):
        # pins the policy-iteration path: thresholds evaluated from k = 1
        counts = {lam: dp.value_iterate(bd_09, lam).iterations for lam in (4.0, 10.0, 20.0)}
        assert counts == {4.0: 2, 10.0: 4, 20.0: 4}

    def test_huge_dynamics_coefficient(self):
        # past the window every state but 0 escapes, so a = 10**21 runs as a = 10**6;
        # a * state used to overflow int64
        huge, far = (solver_a.bd_spec(0.3, 0.9, a) for a in (10**21, 10**6))
        for lam in (1.0, 20.0):
            got, want = dp.value_iterate(huge, lam), dp.value_iterate(far, lam)
            assert got.threshold == want.threshold and np.array_equal(got.values, want.values)
        assert dp.policy_evaluate_fixed_point(huge, 3) == dp.policy_evaluate_fixed_point(far, 3)

    def test_deep_discount_within_reach(self):
        # lambda / (1 - beta) = 10^5, yet the threshold chain has 14 states
        spec = solver_a.bd_spec(0.3, 0.999)
        assert dp.value_iterate(spec, 100.0).threshold == 7
        assert solver_a.optimal_costly(spec, 100.0)[0] == 7

    def test_state_cap_counts_states(self, bd_09, monkeypatch):
        # lambda = 20 has k* = 5, 10 states; the window is |e| <= 10 // 2 + r = 6
        monkeypatch.setattr(dp, "MAX_FIXED_POINT_STATES", 10)
        result = dp.value_iterate(bd_09, 20.0)
        assert result.threshold == 5 and len(result.values) == 13
        monkeypatch.setattr(dp, "MAX_FIXED_POINT_STATES", 8)
        with pytest.raises(CapacityError, match="price 20.0: .*past threshold 4, .*cap 8 states"):
            dp.value_iterate(bd_09, 20.0)

    def test_state_cap_raises_before_allocating(self, bd_09):
        # k* would be about 10^9; the thresholds double up to the cap, whose
        # 512-state matrices are the largest allocation
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(CapacityError, match="price 100000000.0: .*cap 512"):
                dp.value_iterate(bd_09, 1e8)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0 and peak < 10_000_000

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0])
    def test_invalid_price_rejected(self, bd_09, lam):
        with pytest.raises(UsageError, match="price must be nonnegative and finite"):
            dp.value_iterate(bd_09, lam)

    def test_average_cost_rejected(self, bd_avg):
        with pytest.raises(UsageError):
            dp.value_iterate(bd_avg, 5.0)


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

    @pytest.mark.parametrize("tol", [1e-3, 1e-10])
    @pytest.mark.parametrize("beta", [0.5, 0.95, 0.999])
    def test_within_tol_of_the_exact_fixed_point(self, beta, tol):
        # the squarings stop on the a-priori remainder; the reference solves
        # (I - beta P) X = c on the wide chain
        spec = _random_spec(11, 2, beta)
        exact = _wide_chain_values(spec, 4)
        got = dp.policy_evaluate_fixed_point(spec, 4, tol=tol)
        assert np.max(np.abs(got - exact)) <= tol / 2 + 1e-12

    @given(st.integers(0, 2 ** 32 - 1), st.integers(-3, 3),
           st.sampled_from([0.5, 0.9, 0.99, 0.999]), st.integers(1, 29),
           st.sampled_from([1e-4, 1e-10]))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_wide_chain(self, seed, a, beta, k, tol):
        # the 2 k-state chain against the wide one: the transmit rows and the
        # states beyond the silent set collapse into the one transmit state
        spec = _random_spec(seed, a, beta)
        exact = _wide_chain_values(spec, k)
        got = dp.policy_evaluate_fixed_point(spec, k, tol=tol)
        assert np.max(np.abs(got - exact)) <= tol / 2 + 1e-12

    def test_nonpositive_tol_rejected(self, bd_09):
        with pytest.raises(UsageError):
            dp.policy_evaluate_fixed_point(bd_09, 2, tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_nonfinite_tol_rejected(self, bd_09, tol):
        with pytest.raises(UsageError, match="tolerance must be positive and finite"):
            dp.policy_evaluate_fixed_point(bd_09, 2, tol=tol)

    @pytest.mark.parametrize("k", [2.5, math.inf, math.nan])
    def test_nonintegral_threshold_rejected(self, bd_09, k):
        with pytest.raises(UsageError, match="threshold must be a nonnegative integer"):
            dp.policy_evaluate_fixed_point(bd_09, k)

    def test_integral_float_threshold_accepted(self, bd_09):
        assert (dp.policy_evaluate_fixed_point(bd_09, 3.0)
                == dp.policy_evaluate_fixed_point(bd_09, 3))

    def test_cap_counts_states(self, bd_09, monkeypatch):
        # 2 k states, whatever the pmf radius
        spec = _random_spec(3, 2, 0.9)
        assert spec.pmf.radius == 4
        d_fp, n_fp = dp.policy_evaluate_fixed_point(spec, 256)
        p = solver_a.performance(spec, 256)
        assert abs(d_fp - p.distortion) <= 1e-9 and abs(n_fp - p.transmission_rate) <= 1e-10
        monkeypatch.setattr(dp, "MAX_FIXED_POINT_STATES", 20)
        d_fp, n_fp = dp.policy_evaluate_fixed_point(bd_09, 10)
        p = solver_a.performance(bd_09, 10)
        assert abs(d_fp - p.distortion) <= 1e-10 and abs(n_fp - p.transmission_rate) <= 1e-10
        with pytest.raises(CapacityError, match="threshold 11: 22 states.*cap 20"):
            dp.policy_evaluate_fixed_point(bd_09, 11)


def test_no_linear_solve(bd_09, monkeypatch):
    # the oracle stays independent of the renewal solver's linear systems
    def refuse(*args, **kwargs):
        raise AssertionError("the DP oracle made a linear solve")

    for name in ("solve", "inv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert dp.value_iterate(bd_09, 20.0).threshold == 5
    d_fp, n_fp = dp.policy_evaluate_fixed_point(bd_09, 2)
    assert d_fp == pytest.approx(0.4576, abs=5e-4)
    assert n_fp == pytest.approx(0.1236, abs=5e-4)
