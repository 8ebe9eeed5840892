import dataclasses
import math
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from remest import (
    CapacityError,
    DistortionFn,
    IntegerPmf,
    ModelSpecA,
    NumericsError,
    RemestError,
    SingularSystemError,
    UsageError,
)
from remest import dp, solver_a
from remest.model import MAX_SILENT_DIM, Diagnostics, collect
from conftest import random_valid_pmf


FP_TOL = 1e-10


def _oracle_close(solved: float, oracle: float) -> bool:
    """|solved - oracle| within the oracle's stated error FP_TOL / 2, plus the
    table's rounding."""
    return abs(solved - oracle) <= FP_TOL / 2 + 1e-12 * max(1.0, abs(solved))


def _per_k_reference(spec: ModelSpecA, k: int) -> tuple[float, float]:
    """(D, N) of threshold k from its own dense k x k build and solve: the
    per-threshold route that one table factorization replaces."""
    half = spec.pmf.radius + (abs(spec.a) + 1) * (k - 1)
    pmf = np.zeros(2 * half + 1)
    pmf[spec.pmf.offsets + half] = spec.pmf.values
    states = np.arange(k)
    origin = half - spec.a * states[:, None]
    T = pmf[origin + states]
    T[:, 1:] += pmf[origin - states[1:]]
    nxt = spec.a * states[:, None] + spec.pmf.offsets
    escape = np.where(np.abs(nxt) >= k, spec.pmf.values, 0.0).sum(axis=1)
    rhs = np.column_stack([spec.distortion(states), np.ones(k), spec.beta * escape])
    L, M, U = np.linalg.solve(np.eye(k) - spec.beta * T, rhs)[0]
    return L / M, U / M


class TestFoldedTransition:
    """The folded assembly ``folded_transition`` and the table's dimension cap."""

    def test_birth_death_k2(self, bd_avg):
        # folded transition over states (0, 1): p_{n - e} + p_{-n - e} for n > 0,
        # enumerated by hand
        expected = np.array([[0.4, 0.6],
                             [0.3, 0.4]])
        assert np.allclose(solver_a.folded_transition(bd_avg, 2), expected, atol=1e-15)

    def test_k1_single_state(self, bd_avg):
        T = solver_a.folded_transition(bd_avg, 1)
        assert T.shape == (1, 1)
        assert T[0, 0] == pytest.approx(0.4)

    def test_a2_row_shifts(self):
        # row for e=1 reads p_{n-2} + p_{-n-2} over n in (0, 1): (p_-2, p_-1 + p_-3)
        spec = solver_a.bd_spec(0.3, 1.0, a=2)
        assert np.allclose(solver_a.folded_transition(spec, 2)[1], [0.0, 0.3])

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([-2, -1, 0, 1, 2, 3]),
           st.integers(1, 9))
    @settings(max_examples=20, deadline=None)
    def test_matches_folded_loop(self, seed, a, k):
        # reference: the full-line transition entry by entry, folded column by column;
        # a folded entry sums at most two masses, and a + b = b + a exactly
        pmf = IntegerPmf(random_valid_pmf(np.random.default_rng(seed), 4))
        spec = ModelSpecA(a=a, pmf=pmf, distortion=DistortionFn.absolute(), beta=0.9)
        probs = dict(pmf.items)
        full = np.array([[probs.get(n - a * e, 0.0) for n in range(-(k - 1), k)]
                         for e in range(k)])
        folded = full[:, k - 1:].copy()
        folded[:, 1:] += full[:, :k - 1][:, ::-1]
        assert np.array_equal(solver_a.folded_transition(spec, k), folded)

    def test_substochastic_rows(self, bd_avg):
        T = solver_a.folded_transition(bd_avg, 5)
        assert np.all(T.sum(axis=1) <= 1.0 + 1e-15)
        assert np.all(T >= 0.0)

    def test_capacity_cap(self, bd_avg):
        with pytest.raises(CapacityError):
            solver_a.threshold_table(bd_avg, 20_000)
        with pytest.raises(CapacityError):
            solver_a.folded_transition(bd_avg, 20_000)

    def test_search_caps_count_folded_states(self, bd_avg, monkeypatch):
        # the cap bounds the table itself: K = cap is the largest one built
        monkeypatch.setattr(solver_a, "MAX_SILENT_DIM", 12)
        assert len(solver_a.threshold_table(bd_avg, 12).D) == 13
        with pytest.raises(CapacityError):
            solver_a.threshold_table(bd_avg, 13)
        with pytest.raises(CapacityError):
            solver_a.optimal_constrained(bd_avg, 1e-4)  # needs k near 77
        with pytest.raises(CapacityError):
            solver_a.optimal_costly(bd_avg, 1e4)  # needs k near 33

    def test_cap_raises_before_allocating(self, bd_avg, monkeypatch):
        # a 10^7 x 10^7 table would need 1.6 PB; the refusal allocates nothing
        monkeypatch.setattr(solver_a, "MAX_SILENT_DIM", 12)
        for route in (solver_a.threshold_table, solver_a.performance):
            tracemalloc.start()
            try:
                with pytest.raises(CapacityError):
                    route(bd_avg, 10 ** 7)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 100_000, route.__name__


class TestRenewalFunctionals:
    """The renewal functionals L(0), M(0) of every threshold in one table."""

    def test_average_cost_closed_values(self, bd_avg):
        # M(0) = k^2/(2p), L(0) = k(k^2-1)/(6p) on the birth-death chain
        table = solver_a.threshold_table(bd_avg, 3)
        for k, m0, l0 in [(2, 4 / 0.6, 2 * 3 / 1.8), (3, 9 / 0.6, 3 * 8 / 1.8)]:
            assert table.L[k] == pytest.approx(l0, abs=1e-10)
            assert table.M[k] == pytest.approx(m0, abs=1e-10)

    def test_k1_geometric_escape(self):
        # the 1x1 system gives M(0) = 1/(1 - beta p_0) and L(0) = 0 exactly
        for beta in (0.5, 0.9, 1.0):
            table = solver_a.threshold_table(solver_a.bd_spec(0.3, beta), 1)
            assert table.L[1] == 0.0
            assert table.M[1] == pytest.approx(1.0 / (1.0 - beta * 0.4), abs=1e-14)

    def test_absorbing_chain_raises(self):
        # a = 0 keeps the error inside the support, so k = 3 never escapes
        spec = solver_a.bd_spec(0.3, 1.0, a=0)
        with pytest.raises(SingularSystemError):
            solver_a.threshold_table(spec, 3)

    def test_monotone_in_k(self, bd_09):
        table = solver_a.threshold_table(bd_09, 8)
        assert np.all(np.diff(table.L[1:]) > 0.0)
        assert np.all(np.diff(table.M) > 0.0)

    def test_vector_invariants(self, bd_09):
        for K in (2, 4, 6):
            table = solver_a.threshold_table(bd_09, K)
            assert table.L.shape == table.M.shape == table.D.shape == (K + 1,)
            assert table.dD.shape == (K,)
            assert np.all(table.M[1:] >= 1.0 - 1e-12)
            assert np.all(table.L >= 0.0)

    @pytest.mark.parametrize("beta", [0.9, 1.0])
    def test_counting_leaves_table_unchanged(self, beta):
        spec = solver_a.bd_spec(0.3, beta, a=2)
        outside = solver_a.threshold_table(spec, 40)
        with collect() as record:
            inside = solver_a.threshold_table(spec, 40)
        assert record == Diagnostics(factorizations=1, largest_system=40,
                                     error_bound=record.error_bound)
        assert 0.0 < record.error_bound <= 1e-10
        for name in ("L", "M", "D", "N", "dD", "land_edge", "visit_edge"):
            assert getattr(inside, name).tobytes() == getattr(outside, name).tobytes(), name

    def test_one_landing_pass_per_table(self, bd_09):
        with mock.patch.object(solver_a, "_landings", wraps=solver_a._landings) as landings:
            solver_a.threshold_table(bd_09, 12)
        assert landings.call_count == 1

    def test_row_swap_raises(self, bd_09, monkeypatch):
        real = lapack.dgetrf

        def swapped(a, **kwargs):
            lu, piv, info = real(a, **kwargs)
            piv[[0, 1]] = 1
            return lu, piv, info

        monkeypatch.setattr(lapack, "dgetrf", swapped)
        with pytest.raises(NumericsError, match="swapped rows"):
            solver_a.threshold_table(bd_09, 4)


class TestErrorBound:
    """The table's relative error bound (max M_K ||r||_inf + 4 ulps |x(0)|) /
    max(1, |x(0)|) against the closed form M_K(0) = 1 / (N + 1 - beta)."""

    @pytest.mark.parametrize("p, beta, K", [
        (0.1, 0.5, 1), (0.3, 0.9, 3), (0.1, 0.99, 2), (0.3, 0.99, 20), (0.2, 1.0, 1),
        (0.05, 1.0, 100), (0.2, 1.0, 400), (0.05, 1.0, 1000), (0.3, 1.0, 1000),
    ])
    def test_bounds_the_closed_form_gap(self, p, beta, K):
        with collect() as record:
            table = solver_a.threshold_table(solver_a.bd_spec(p, beta), K)
        m0 = 1.0 / (solver_a.bd_closed_form(p, beta, K).transmission_rate + 1.0 - beta)
        # the closed form rounds too: up to 2.7 ulps past the bound at K <= 2
        slack = 8.0 * np.finfo(float).eps
        assert abs(table.M[K] - m0) / max(1.0, m0) <= record.error_bound + slack
        # at beta = 1 the bound grows like K^2 eps, and stays far below the tolerance
        assert 0.0 < record.error_bound <= 1e-8


class TestTableMatchesPerThresholdSolves:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(-2, 2),
           st.sampled_from([0.9, 0.95, 1.0]), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_reference(self, seed, radius, a, beta, quadratic):
        rng = np.random.default_rng(seed)
        raw = np.sort(rng.uniform(0.05, 1.0, size=radius + 1))[::-1]
        raw /= raw[0] + 2.0 * raw[1:].sum()
        pmf = IntegerPmf({n: raw[abs(n)] for n in range(-radius, radius + 1)})
        d = DistortionFn.quadratic() if quadratic else DistortionFn.absolute()
        spec = ModelSpecA(a=a, pmf=pmf, distortion=d, beta=beta)
        # at a = 0, beta = 1 only thresholds up to the radius can escape
        K = radius if a == 0 and beta == 1.0 else 40
        pivots = []
        real = lapack.dgetrf

        def recorded(a, **kwargs):
            lu, piv, info = real(a, **kwargs)
            pivots.append(piv.copy())
            return lu, piv, info

        with mock.patch.object(lapack, "dgetrf", recorded):
            table = solver_a.threshold_table(spec, K)
        assert len(pivots) == 1 and np.array_equal(pivots[0], np.arange(K))
        for k in range(1, K + 1):
            d_ref, n_ref = _per_k_reference(spec, k)
            assert abs(table.D[k] - d_ref) <= 1e-12 * d_ref
            assert abs(table.N[k] - n_ref) <= 1e-12 * n_ref

    def test_increments_match_differences(self, bd_09):
        table = solver_a.threshold_table(bd_09, 12)
        assert np.allclose(table.dD, np.diff(table.D), rtol=1e-12, atol=1e-15)


class TestEdgeMasses:
    """``land_edge`` and ``visit_edge`` against dense solves of the leading
    blocks, each threshold's own silent system."""

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([-1, 0, 1, 2]),
           st.sampled_from([0.5, 0.9, 1.0]), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_match_dense_blocks(self, seed, a, beta, K):
        pmf = IntegerPmf(random_valid_pmf(np.random.default_rng(seed), 4))
        spec = ModelSpecA(a, pmf, DistortionFn.quadratic(), beta)
        if a == 0 and beta == 1.0:
            K = min(K, pmf.radius)  # only thresholds up to the radius can escape
        table = solver_a.threshold_table(spec, K)
        T = solver_a.folded_transition(spec, K)

        def visits(k):
            # discounted visits per cycle of threshold k: x (I - beta T_k) = e_0
            return np.linalg.solve((np.eye(k) - beta * T[:k, :k]).T, np.eye(k)[0])

        land = [1.0] + [beta * visits(k) @ T[:k, k] for k in range(1, K)]
        visit = [visits(k + 1)[k] for k in range(K)]
        np.testing.assert_allclose(table.land_edge, land, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(table.visit_edge, visit, rtol=1e-12, atol=0.0)


class TestPerformance:
    def test_always_transmit(self, bd_avg):
        p = solver_a.performance(bd_avg, 0)
        assert (p.distortion, p.transmission_rate) == (0.0, 1.0)
        assert p.distortion + 3.0 * p.transmission_rate == 3.0

    def test_table_spot_values(self, bd_avg, bd_09):
        p = solver_a.performance(bd_avg, 2)
        assert p.distortion == pytest.approx(0.5, abs=5e-4)
        assert p.transmission_rate == pytest.approx(0.15, abs=5e-4)
        p = solver_a.performance(bd_09, 5)
        assert p.distortion == pytest.approx(1.1844, abs=5e-4)
        assert p.transmission_rate == pytest.approx(0.0111, abs=5e-4)

    def test_non_integer_threshold_rejected(self, bd_avg):
        with pytest.raises(UsageError):
            solver_a.performance(bd_avg, 1.5)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.sampled_from([0, 1, -1, 2, -2, 3, -3]),
           st.sampled_from([0.9, 0.95, 0.99, 1.0]), st.booleans(), st.integers(1, 150))
    # a = 0 at beta = 1 cannot escape past the radius; past the cap nothing is built
    @example(seed=0, radius=2, a=0, beta=1.0, quadratic=True, k=3)
    @example(seed=0, radius=1, a=1, beta=0.9, quadratic=False, k=MAX_SILENT_DIM + 1)
    @settings(max_examples=60, deadline=None)
    def test_matches_the_table(self, seed, radius, a, beta, quadratic, k):
        # performance reads threshold k off its own solve, the table off the
        # extension of the same factorization: equal up to rounding, with
        # the same diagnostics record and the same errors
        pmf = IntegerPmf(random_valid_pmf(np.random.default_rng(seed), radius))
        d = DistortionFn.quadratic() if quadratic else DistortionFn.absolute()
        spec = ModelSpecA(a, pmf, d, beta)
        if abs(a) >= 2 and k <= 150:
            k = 1 + k % 60

        def outcome(route):
            try:
                with collect() as record:
                    return route(), record
            except RemestError as err:
                return type(err), str(err)

        perf = outcome(lambda: solver_a.performance(spec, k))
        table = outcome(lambda: solver_a.threshold_table(spec, k))
        if isinstance(table[0], type):
            assert perf == table
            return
        (p, p_record), (t, t_record) = perf, table
        assert p_record == t_record
        assert abs(p.distortion - t.D[k]) <= 1e-13 * t.D[k]
        assert abs(p.transmission_rate - t.N[k]) <= 1e-13 * t.N[k]

    def test_one_solve_and_no_table(self, bd_09):
        calls = {}
        patches = [mock.patch.object(lapack, name, wraps=getattr(lapack, name))
                   for name in ("dgetrf", "dgetrs", "dtrtrs")]
        for route in (solver_a.performance, solver_a.threshold_table):
            with patches[0] as getrf, patches[1] as getrs, patches[2] as trtrs:
                route(bd_09, 33)
            calls[route.__name__] = (getrf.call_count, getrs.call_count, trtrs.call_count)
        assert calls == {"performance": (1, 1, 0), "threshold_table": (1, 1, 2)}


def _bd_lmu_exact(p: Fraction, beta: Fraction, k: int) -> tuple[Fraction, Fraction, Fraction]:
    """(L(0), M(0), U(0)) of the folded birth-death chain (a = +-1) with
    d(e) = |e|, in exact arithmetic: Thomas elimination of the tridiagonal
    system x = b + beta T x for b = d, 1 and the escape beta esc."""
    sub = [-beta * p] * k
    diag = [1 - beta * (1 - 2 * p)] * k
    sup = [-beta * (2 * p if i == 0 else p) for i in range(k)]  # 0 folds onto +-1
    rhs = [(Fraction(i), Fraction(1), beta * p * (i == k - 1)) for i in range(k)]
    c, d = [Fraction(0)] * k, [None] * k
    for i in range(k):
        den = diag[i] - (sub[i] * c[i - 1] if i else 0)
        c[i] = sup[i] / den
        d[i] = tuple((r - (sub[i] * d[i - 1][j] if i else 0)) / den
                     for j, r in enumerate(rhs[i]))
    x = d[k - 1]
    for i in reversed(range(k - 1)):
        x = tuple(d[i][j] - c[i] * x[j] for j in range(3))
    return x


def _bd_rate_exact(p: Fraction, beta: Fraction, k: int) -> Fraction:
    """N = U(0)/M(0) of the folded birth-death chain, in exact arithmetic."""
    _, m, u = _bd_lmu_exact(p, beta, k)
    return u / m


class TestRateWithoutCancellation:
    @pytest.mark.parametrize("k", [40, 100])
    def test_tiny_rate_matches_exact(self, k):
        # N(100) is about 9e-24, far below the rounding of 1/M(0) - (1 - beta)
        exact = _bd_rate_exact(Fraction(1, 5), Fraction(19, 20), k)
        n = solver_a.performance(solver_a.bd_spec(0.2, 0.95, a=-1), k).transmission_rate
        assert n > 0.0
        assert abs(n - float(exact)) <= 1e-9 * float(exact)

    def test_escape_vector_summed_directly(self):
        # the escape mass p of the folded birth-death chain sits on the edge
        # state, so U(0) = beta p Q[0, k-1] with Q the inverse silent matrix
        spec, k = solver_a.bd_spec(0.2, 0.95, a=-1), 6
        Q = np.linalg.inv(np.eye(k) - 0.95 * solver_a.folded_transition(spec, k))
        table = solver_a.threshold_table(spec, k)
        assert table.N[k] * table.M[k] == pytest.approx(0.95 * 0.2 * Q[0, k - 1], rel=1e-12)

    def test_corner_price_from_exact_increment(self):
        # the k = 51 corner of bd_spec(0.3, 0.9) has a distortion increment just
        # above _FLAT_D_TOL D(52), 1.45e-12 of it; differencing two D values
        # leaves about three digits
        p, beta = Fraction(3, 10), Fraction(9, 10)
        (l51, m51, u51), (l52, m52, u52) = (_bd_lmu_exact(p, beta, k) for k in (51, 52))
        exact = (l52 / m52 - l51 / m51) / (u51 / m51 - u52 / m52)
        corners = dict(solver_a.corner_lambdas(solver_a.bd_spec(0.3, 0.9), 51))
        assert corners[51] == pytest.approx(float(exact), rel=1e-9)
        assert corners[51] == pytest.approx(482.104428199716, rel=1e-9)


class TestCornerLambdas:
    def test_average_cost_values(self, bd_avg):
        corners = dict(solver_a.corner_lambdas(bd_avg, 5))
        assert corners[1] == pytest.approx(1.1111, abs=5e-4)
        assert corners[3] == pytest.approx(12.3810, abs=5e-4)
        assert corners[3] == pytest.approx(solver_a.bd_corner_lambda_avg(0.3, 3), abs=1e-10)

    def test_discounted_value(self, bd_09):
        corners = dict(solver_a.corner_lambdas(bd_09, 4))
        assert corners[2] == pytest.approx(4.1021, abs=5e-4)

    def test_flat_start_skipped(self, bd_avg):
        # distortion does not grow from k=0 to k=1, so k=0 is never a corner
        ks = [k for k, _ in solver_a.corner_lambdas(bd_avg, 6)]
        assert ks == [1, 2, 3, 4, 5, 6]

    def test_strictly_increasing(self, bd_09):
        lams = [lam for _, lam in solver_a.corner_lambdas(bd_09, 10)]
        assert all(b > a for a, b in zip(lams, lams[1:]))

    @given(st.floats(0.05, 0.32), st.sampled_from([0.5, 0.9, 0.95, 1.0]),
           st.sampled_from([-1, 1, 2]), st.floats(1e-100, 1e100))
    @settings(max_examples=25, deadline=None)
    def test_scaled_distortion_scales_the_corners(self, p, beta, a, s):
        # d -> s d is the same problem in other units: the thresholds stay and
        # D and the corner prices scale by s, in the flat tail of beta < 1 too
        base = solver_a.bd_spec(p, beta, a=a)
        scaled = ModelSpecA(a=a, pmf=base.pmf, beta=beta,
                            distortion=DistortionFn.custom(lambda e: s * np.abs(e)))
        want, got = (solver_a.corner_lambdas(spec, 60) for spec in (base, scaled))
        assert [k for k, _ in got] == [k for k, _ in want]
        assert [lam for _, lam in got] == pytest.approx([s * lam for _, lam in want], rel=1e-9)
        D, D_s = (solver_a.threshold_table(spec, 61).D for spec in (base, scaled))
        assert D_s == pytest.approx(s * D, rel=1e-12)
        # a price between two corners, where no rounding of s can tip a tie
        (_, lo), (kn, hi) = want[len(want) // 2 - 1:len(want) // 2 + 1]
        assert solver_a.optimal_costly(scaled, s * (lo + hi) / 2.0)[0] == kn

    def test_tiny_distortion_keeps_its_corners(self):
        # an absolute flat tolerance of 1e-12 dropped every corner at s = 1e-13,
        # and optimal_costly indexed the empty list
        scaled = ModelSpecA(a=1, pmf=IntegerPmf.birth_death(0.3), beta=1.0,
                            distortion=DistortionFn.custom(lambda e: 1e-13 * np.abs(e)))
        assert len(solver_a.corner_lambdas(scaled, 10)) == 10
        assert solver_a.optimal_costly(scaled, 5e-13)[0] == 3

    def test_no_corner_is_a_numerics_error(self, bd_avg):
        table = solver_a.threshold_table(bd_avg, 6)
        flat = dataclasses.replace(table, dD=np.zeros_like(table.dD))
        with pytest.raises(NumericsError, match="no threshold up to 6 raises the distortion"):
            solver_a.table_corners(flat)


class TestOptimalCostly:
    def test_worked_example(self, bd_09):
        k, cost = solver_a.optimal_costly(bd_09, 20.0)
        assert k == 5
        assert cost == pytest.approx(1.4064, abs=1.5e-3)

    def test_zero_price(self, bd_avg):
        k, cost = solver_a.optimal_costly(bd_avg, 0.0)
        assert k == 1
        assert cost == 0.0

    def test_right_endpoint_inclusive(self, bd_avg):
        corners = dict(solver_a.corner_lambdas(bd_avg, 4))
        k, _ = solver_a.optimal_costly(bd_avg, corners[2])
        assert k == 2

    def test_extends_past_initial_corners(self, bd_avg):
        k, _ = solver_a.optimal_costly(bd_avg, 2000.0)
        assert k > 10

    def test_monotone_in_price(self, bd_09):
        ks = [solver_a.optimal_costly(bd_09, lam)[0]
              for lam in (0.5, 2.0, 5.0, 12.0, 20.0, 35.0, 50.0)]
        assert all(b >= a for a, b in zip(ks, ks[1:]))

    def test_price_past_last_corner_raises(self):
        # at beta < 1 the distortion increments vanish from k = 53 on, so the
        # corner list ends near price 492 and a doubling adds no corner
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="last resolvable corner"):
            solver_a.optimal_costly(solver_a.bd_spec(0.3, 0.9), 500.0)
        assert time.perf_counter() - start < 5.0

    def test_zero_rate_threshold_owns_every_higher_price(self):
        # a = 0: threshold 2 exceeds the radius, so its rate is exactly 0 and
        # it costs C = D = beta E|W| = 0.54 at any price past the last corner
        # (price 1, threshold 1), where a doubling adds no corner
        spec = solver_a.bd_spec(0.3, 0.9, a=0)
        table = solver_a.threshold_table(spec, 9)
        assert table.N[2] == 0.0 and solver_a.corner_lambdas(spec, 8) == [(1, 1.0)]
        k, cost = solver_a.optimal_costly(spec, 5.0)
        assert k == 2 and cost == table.D[2] == pytest.approx(0.54, rel=1e-14)
        # every threshold k >= 2 ties; the oracle keeps the one it reached
        result = dp.value_iterate(spec, 5.0)
        assert result.threshold == 5
        assert _oracle_close(cost, result.values[len(result.values) // 2])

    def test_nan_price_rejected(self):
        with pytest.raises(UsageError):
            solver_a.optimal_costly(solver_a.bd_spec(0.3, 0.9), math.nan)


class TestOptimalConstrained:
    def test_worked_example(self, bd_09):
        policy, d = solver_a.optimal_constrained(bd_09, 0.1)
        assert policy.k_star == 2
        assert policy.theta_star == pytest.approx(0.6899, abs=5e-4)
        assert d == pytest.approx(0.5543, abs=5e-4)

    def test_exact_corner_is_pure(self, bd_avg):
        n2 = solver_a.performance(bd_avg, 2).transmission_rate
        policy, d = solver_a.optimal_constrained(bd_avg, n2)
        assert policy.k_star == 2
        assert policy.theta_star == pytest.approx(1.0, abs=1e-10)
        assert d == pytest.approx(0.5, abs=1e-10)

    def test_loose_budget_zero_distortion(self, bd_avg):
        # rate budgets at or above the k=1 rate cost nothing in distortion
        policy, d = solver_a.optimal_constrained(bd_avg, 0.7)
        assert policy.k_star == 0
        assert d == 0.0

    def test_rejects_a_budget_outside_zero_to_one(self, bd_09):
        for alpha in (0.0, 1.0, 1.5, math.nan):
            with pytest.raises(UsageError, match="rate budget"):
                solver_a.optimal_constrained(bd_09, alpha)

    def test_mixed_rate_matches_budget(self, bd_09):
        for alpha in (0.05, 0.1, 0.3):
            policy, _ = solver_a.optimal_constrained(bd_09, alpha)
            n_lo = solver_a.performance(bd_09, policy.k_star).transmission_rate
            n_hi = solver_a.performance(bd_09, policy.k_star + 1).transmission_rate
            mixed = policy.theta_star * n_lo + (1 - policy.theta_star) * n_hi
            assert mixed == pytest.approx(alpha, abs=1e-10)


class TestTradeoffCurve:
    def test_constrained_contains_table_points(self, bd_avg):
        curve = solver_a.tradeoff_curve(bd_avg, "constrained", 5)
        pts = {round(p.abscissa, 4): round(p.ordinate, 4) for p in curve.points}
        assert pts[0.15] == 0.5
        assert pts[0.0667] == 0.8889

    def test_costly_first_corner(self, bd_09):
        curve = solver_a.tradeoff_curve(bd_09, "costly", 5)
        first = curve.points[0]
        assert first.abscissa == pytest.approx(1.0989, abs=5e-4)
        # ordinate = D(1) + corner * N(1) = 0 + 1.0989 * 0.54
        assert first.ordinate == pytest.approx(0.5934, abs=5e-4)

    def test_constrained_kmax1(self, bd_09):
        curve = solver_a.tradeoff_curve(bd_09, "constrained", 1)
        assert len(curve.points) == 1
        assert curve.points[0].abscissa == pytest.approx(0.9 * 0.6, abs=1e-12)
        assert curve.points[0].ordinate == 0.0

    def test_constrained_stops_where_the_corners_stop(self, bd_09):
        # from k = 53 the distortion increments are below the flat tolerance,
        # 1e-12 relative: the last corner is k = 51, which passes to 52
        curve = solver_a.tradeoff_curve(bd_09, "constrained", 100)
        assert [p.threshold for p in curve.points] == list(range(52, 0, -1))
        assert solver_a.corner_lambdas(bd_09, 100)[-1][0] == 51

    def test_constrained_stops_at_zero_rate(self):
        # at a = 0 a threshold past the pmf radius never transmits: N = 0 from k = 2
        spec = solver_a.bd_spec(0.3, 0.9, a=0)
        points = solver_a.tradeoff_curve(spec, "constrained", 3).points
        assert [(p.threshold, p.abscissa) for p in points] == [(2, 0.0), (1, pytest.approx(0.54))]

    def test_unknown_kind_rejected(self, bd_09):
        with pytest.raises(UsageError, match="unknown curve kind"):
            solver_a.tradeoff_curve(bd_09, "average", 5)

    def test_shape_invariants(self, bd_avg, bd_09):
        for spec in (bd_avg, bd_09):
            for kind in ("costly", "constrained"):
                assert solver_a.tradeoff_curve(spec, kind, 8).check() == []

    def test_corner_continuity(self, bd_avg):
        # cost curves of adjacent optimal thresholds agree at the corner price
        D = {k: solver_a.performance(bd_avg, k).distortion for k in range(12)}
        N = {k: solver_a.performance(bd_avg, k).transmission_rate for k in range(12)}
        for kn, lam in solver_a.corner_lambdas(bd_avg, 10):
            left = D[kn] + lam * N[kn]
            right = D[kn + 1] + lam * N[kn + 1]
            assert abs(left - right) <= 1e-9


class TestBirthDeathClosedForms:
    def test_table_spot_values(self):
        cf = solver_a.bd_closed_form(0.3, 1.0, 4)
        assert cf.distortion == pytest.approx(1.25, abs=1e-12)
        assert cf.transmission_rate == pytest.approx(0.0375, abs=1e-12)
        cf = solver_a.bd_closed_form(0.3, 0.95, 2)
        assert cf.distortion == pytest.approx(0.4790, abs=5e-4)
        assert cf.transmission_rate == pytest.approx(0.1365, abs=5e-4)

    def test_k1_zero_distortion(self):
        for beta in (0.5, 0.9, 1.0):
            assert solver_a.bd_closed_form(0.3, beta, 1).distortion == pytest.approx(0.0, abs=1e-12)

    def test_domain_guard(self):
        with pytest.raises(UsageError):
            solver_a.bd_closed_form(0.4, 1.0, 2)

    def test_spec_domain_guard(self):
        # p >= 1/3 leaves p_0 = 1 - 2p below p: the law is not unimodal
        with pytest.raises(UsageError, match=r"\(0, 1/3\)"):
            solver_a.bd_spec(0.4, 0.9)

    def test_scaled_form_deep_thresholds(self):
        # the cosh/sinh form overflowed from k ~ 5000 and read N(1000) as
        # 1.39e-17 rounding noise
        assert solver_a.bd_closed_form(0.3, 0.9, 1000).transmission_rate == pytest.approx(
            8.2308414035e-262, rel=1e-10)
        deep = solver_a.bd_closed_form(0.3, 0.9, 10_000)
        assert deep.distortion == pytest.approx(solver_a.bd_closed_form(0.3, 0.9, 1000).distortion,
                                                rel=1e-15)

    def test_rate_matches_exact(self):
        # N(30) is 3.09e-9; the cancelling form kept only about 9 digits
        exact = _bd_rate_exact(Fraction(3, 10), Fraction(9, 10), 30)
        n = solver_a.bd_closed_form(0.3, 0.9, 30).transmission_rate
        assert n == pytest.approx(float(exact), rel=1e-13)

    @pytest.mark.parametrize("beta", [0.9, 0.95, 1.0])
    def test_table_agrees_to_k1000(self, beta):
        table = solver_a.threshold_table(solver_a.bd_spec(0.3, beta), 1000)
        for k in range(1, 1001):
            cf = solver_a.bd_closed_form(0.3, beta, k)
            assert table.D[k] == pytest.approx(cf.distortion, rel=1e-12, abs=1e-300)
            assert table.N[k] == pytest.approx(cf.transmission_rate, rel=1e-12, abs=1e-300)


class TestBdQEntry:
    def test_average_row_form(self):
        # row-0 entries reduce to (k - |j|)/(2p)
        assert solver_a.bd_q_entry(0.3, 1.0, 2, 0, 0) == pytest.approx(2.0 / 0.6, abs=1e-12)
        assert solver_a.bd_q_entry(0.3, 1.0, 3, 0, 2) == pytest.approx(1.0 / 0.6, abs=1e-12)

    def test_indices_outside_the_silent_set_rejected(self):
        for i, j in [(3, 0), (0, -3), (-4, 1)]:
            with pytest.raises(UsageError, match="silent set"):
                solver_a.bd_q_entry(0.3, 1.0, 3, i, j)

    def test_symmetry(self):
        for (i, j) in [(0, 1), (-2, 1), (2, -1)]:
            assert solver_a.bd_q_entry(0.25, 0.9, 3, i, j) == pytest.approx(
                solver_a.bd_q_entry(0.25, 0.9, 3, j, i), abs=1e-12)

    def test_matches_direct_inverse(self):
        # the folded state j collects the visits to j and to -j
        for p, beta, k in [(0.3, 1.0, 2), (0.3, 0.9, 3), (0.2, 0.95, 4), (0.1, 0.5, 5)]:
            spec = solver_a.bd_spec(p, beta)
            Q = np.linalg.inv(np.eye(k) - beta * solver_a.folded_transition(spec, k))
            for i in range(k):
                for j in range(k):
                    want = solver_a.bd_q_entry(p, beta, k, i, j)
                    if j > 0:
                        want += solver_a.bd_q_entry(p, beta, k, i, -j)
                    assert abs(Q[i, j] - want) <= 1e-9


class TestStructuralProperties:
    def test_rate_decreasing_distortion_nondecreasing(self, bd_09):
        prev_n, prev_d = 2.0, -1.0
        for k in range(1, 10):
            p = solver_a.performance(bd_09, k)
            assert p.transmission_rate < prev_n
            assert p.distortion >= prev_d
            prev_n, prev_d = p.transmission_rate, p.distortion

    def test_vanishing_discount(self):
        near = solver_a.bd_spec(0.3, 0.9999)
        for k in (1, 2, 3, 5):
            pn = solver_a.performance(near, k)
            pa = solver_a.bd_closed_form(0.3, 1.0, k)
            assert abs(pn.distortion - pa.distortion) <= 5e-3
            assert abs(pn.transmission_rate - pa.transmission_rate) <= 5e-3
            # the DP oracle reaches the near-average regime too
            d_fp, n_fp = dp.policy_evaluate_fixed_point(near, k, tol=FP_TOL)
            assert _oracle_close(pn.distortion, d_fp)
            assert _oracle_close(pn.transmission_rate, n_fp)

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, -1, -2]))
    @settings(max_examples=15, deadline=None)
    def test_sign_flip_symmetry(self, seed, a):
        rng = np.random.default_rng(seed)
        pmf = IntegerPmf(random_valid_pmf(rng))
        pos = ModelSpecA(a=abs(a), pmf=pmf, distortion=DistortionFn.absolute(), beta=0.9)
        neg = ModelSpecA(a=-abs(a), pmf=pmf, distortion=DistortionFn.absolute(), beta=0.9)
        for k in (1, 2, 3):
            pp = solver_a.performance(pos, k)
            pn = solver_a.performance(neg, k)
            assert pp.distortion == pytest.approx(pn.distortion, abs=1e-12)
            assert pp.transmission_rate == pytest.approx(pn.transmission_rate, abs=1e-12)

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([-2, -1, 1, 2, 3]),
           st.sampled_from([0.5, 0.9, 0.95, 0.99]), st.integers(1, 12), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_folded_solve_matches_fixed_point(self, seed, a, beta, k, quadratic):
        # the fixed-point oracle sums the policy's series on the full state line
        pmf = IntegerPmf(random_valid_pmf(np.random.default_rng(seed), 4))
        d = DistortionFn.quadratic() if quadratic else DistortionFn.absolute()
        spec = ModelSpecA(a=a, pmf=pmf, distortion=d, beta=beta)
        p = solver_a.performance(spec, k)
        d_fp, n_fp = dp.policy_evaluate_fixed_point(spec, k, tol=FP_TOL)
        assert _oracle_close(p.distortion, d_fp)
        assert _oracle_close(p.transmission_rate, n_fp)

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.5, 0.9, 1.0]))
    @settings(max_examples=20, deadline=None)
    def test_k1_rate_closed_form(self, seed, beta):
        rng = np.random.default_rng(seed)
        pmf = IntegerPmf(random_valid_pmf(rng))
        spec = ModelSpecA(a=1, pmf=pmf, distortion=DistortionFn.absolute(), beta=beta)
        n1 = solver_a.performance(spec, 1).transmission_rate
        assert abs(n1 - beta * (1.0 - dict(pmf.items).get(0, 0.0))) <= 1e-12
