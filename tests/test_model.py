import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from remest import (
    CurvePoint,
    DiscountFactor,
    DistortionFn,
    IntegerPmf,
    ModelSpecA,
    ModelSpecB,
    PerfPoint,
    RandomizedThresholdPolicy,
    SmoothPdf,
    TradeoffCurve,
    UsageError,
)
from remest import SingularSystemError, dp, model, solver_a
from remest.model import Diagnostics, collect, count, spec_digest
from remest.simulate import PolicySpec, SimConfig, simulate, steering_visit_probability
from conftest import random_valid_pmf


class TestDiscountFactor:
    def test_bounds(self):
        assert DiscountFactor(1.0).is_average
        assert not DiscountFactor(0.9).is_average
        for bad in (0.0, -0.1, 1.0001):
            with pytest.raises(UsageError):
                DiscountFactor(bad)


def _symmetric_pmf(half) -> dict[int, float]:
    """Offset -> mass map with p_n = p_-n = half[|n|]."""
    return {n: float(half[abs(n)]) for n in range(1 - len(half), len(half))}


def _laplace(w):
    return np.exp(-np.abs(w)) / 2.0


class TestIntegerPmf:
    def test_birth_death_valid(self):
        pmf = IntegerPmf({-1: 0.3, 0: 0.4, 1: 0.3})
        assert dict(pmf.items) == {-1: 0.3, 0: 0.4, 1: 0.3}

    def test_point_mass_flagged(self):
        for probs in ({0: 1.0}, {-1: 0.0, 0: 1.0, 1: 0.0}):
            with pytest.raises(UsageError, match="point mass"):
                IntegerPmf(probs)

    def test_asymmetry_flagged(self):
        # the solvers fold the silent set onto e >= 0, so this law gave
        # D = 0.830, N = 0.0791 at a = 1, beta = 0.9, k = 3 against simulated
        # 0.783 +- 0.004 and 0.0608 +- 0.0008
        with pytest.raises(UsageError, match="symmetry"):
            IntegerPmf({-1: 0.2, 0: 0.4, 1: 0.4})

    def test_renormalizes_small_deficit(self):
        pmf = IntegerPmf({-1: 0.3, 0: 0.4 - 5e-11, 1: 0.3})
        assert abs(sum(dict(pmf.items).values()) - 1.0) < 1e-15

    def test_large_deficit_rejected(self):
        with pytest.raises(UsageError):
            IntegerPmf({-1: 0.3, 1: 0.3})

    def test_negative_mass_rejected(self):
        with pytest.raises(UsageError):
            IntegerPmf({-1: 0.6, 0: -0.2, 1: 0.6})

    @pytest.mark.parametrize("probs", [
        {1.9: 0.25, -1.9: 0.25, 0: 0.5},  # int() made this a +-1 law
        {-1: math.nan, 0: 0.5, 1: math.nan},
        {-1: math.inf, 0: 0.5, 1: math.inf},
        {},
    ])
    def test_fractional_offset_and_nonfinite_mass_rejected(self, probs):
        with pytest.raises(UsageError):
            IntegerPmf(probs)

    def test_unimodality_gap_flagged(self):
        # a missing offset has mass 0, from n = 0 on, and so does a zero entry
        for probs in ({-3: 0.2, 0: 0.6, 3: 0.2}, {-1: 0.5, 1: 0.5},
                      {-2: 0.3, -1: 0.0, 0: 0.4, 1: 0.0, 2: 0.3}):
            with pytest.raises(UsageError, match="unimodality"):
                IntegerPmf(probs)

    def test_hashable(self):
        assert hash(IntegerPmf({0: 0.5, 1: 0.25, -1: 0.25}))

    def test_arrays_built_once_and_read_only(self):
        # every solver shares these arrays, so none may change the law
        probs = {-2: 0.1, -1: 0.2, 0: 0.4, 1: 0.2, 2: 0.1}
        pmf = IntegerPmf(probs)
        assert pmf.offsets is pmf.offsets and pmf.values is pmf.values
        assert pmf.offsets.tolist() == [n for n, _ in pmf.items]
        assert pmf.values.tolist() == [p for _, p in pmf.items]
        assert pmf.offsets.dtype == np.int64 and pmf.values.dtype == float
        for array in (pmf.offsets, pmf.values):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
            with pytest.raises(ValueError, match="read-only"):
                array += 1
        # equality and hashing still read the items alone
        twin = IntegerPmf(probs)
        assert pmf == twin and hash(pmf) == hash(twin) and twin.values is not pmf.values

    def test_zero_mass_offsets_dropped(self):
        # kept, the +-200 entries would make the radius 200 and widen every
        # silent system's landings
        core = {-1: 0.3, 0: 0.4, 1: 0.3}
        padded = IntegerPmf({**core, 200: 0.0, -200: 0.0})
        plain = IntegerPmf(core)
        assert padded.radius == 1 and padded.items == plain.items
        for k in (3, 60):
            got, want = (solver_a.performance(ModelSpecA(1, pmf, DistortionFn.quadratic(), 0.9), k)
                         for pmf in (padded, plain))
            assert got == want
        draws = [pmf.sampler(np.random.default_rng(7), 5000) for pmf in (padded, plain)]
        assert np.array_equal(*draws)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_valid_pmfs_pass(self, seed):
        rng = np.random.default_rng(seed)
        IntegerPmf(random_valid_pmf(rng))

    @given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_random_symmetric_unimodal_pmfs_build(self, raw):
        half = sorted(raw, reverse=True)
        pmf = IntegerPmf(_symmetric_pmf(np.array(half) / (half[0] + 2.0 * sum(half[1:]))))
        assert pmf.radius == len(half) - 1

    @given(st.integers(0, 2 ** 32 - 1), st.data())
    @settings(max_examples=50, deadline=None)
    def test_moved_mass_breaks_symmetry(self, seed, data):
        probs = random_valid_pmf(np.random.default_rng(seed), 5)
        n = data.draw(st.integers(1, max(probs)))
        probs[n] -= 1e-9
        probs[-n] += 1e-9
        with pytest.raises(UsageError, match="symmetry"):
            IntegerPmf(probs)

    @given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6), st.data())
    @settings(max_examples=50, deadline=None)
    def test_swapped_masses_break_unimodality(self, raw, data):
        half = sorted(raw, reverse=True)
        n = data.draw(st.integers(0, len(half) - 2))
        # the check forgives 1e-12 of rounding
        assume(half[n] - half[n + 1] > 1e-9)
        half[n], half[n + 1] = half[n + 1], half[n]
        with pytest.raises(UsageError, match="unimodality"):
            IntegerPmf(_symmetric_pmf(np.array(half) / (half[0] + 2.0 * sum(half[1:]))))


def _piecewise_linear(knots, heights):
    """Even density that falls linearly between the heights at the knots
    0 = w_0 < w_1 < ... and is 0 past the last knot, scaled to mass 1."""
    mass = np.sum(np.diff(knots) * (heights[1:] + heights[:-1]))
    return lambda w: np.interp(np.abs(w), knots, heights, right=0.0) / mass


class TestSmoothPdf:
    def test_gaussian_clean(self):
        for sigma in (1.0, 0.25):
            assert SmoothPdf.gaussian(sigma).sigma == sigma
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(UsageError, match="sigma"):
                SmoothPdf.gaussian(bad)
        with pytest.raises(UsageError, match="sigma"):
            SmoothPdf(kind="gaussian", sigma=-1.0)

    def test_gaussian_sampling_moments(self):
        rng = np.random.default_rng(7)
        w = SmoothPdf.gaussian(2.0).sampler(rng, 200_000)
        assert abs(w.mean()) < 0.02
        assert abs(w.std() - 2.0) < 0.02

    def test_tabulated_triangle(self):
        tri = SmoothPdf.tabulated(lambda w: np.clip(1.0 - np.abs(w), 0.0, None), 1.0)
        rng = np.random.default_rng(11)
        w = tri.sampler(rng, 100_000)
        assert abs(w.mean()) < 0.01
        assert abs(w.var() - 1.0 / 6.0) < 0.01

    @pytest.mark.parametrize("fn, halfwidth", [
        (lambda w: np.clip(1.0 - np.abs(w), 0.0, None), 2.0),
        (lambda w: (1.0 + np.cos(np.pi * np.clip(w, -1.0, 1.0))) / 2.0, 1.0),
        (lambda w: np.full(np.shape(w), 0.5), 1.0),
        (_laplace, 40.0),
    ], ids=["triangle", "cosine", "uniform", "laplace"])
    def test_model_class_densities_build(self, fn, halfwidth):
        # the Laplace tail past 40 holds 4e-18; Simpson on the table's grid
        # reads its mass as 1 + 8.1e-10, where the old 8193-point trapezoid
        # read 1.00000795
        assert SmoothPdf.tabulated(fn, halfwidth).support_halfwidth == halfwidth

    def test_gaussian_tail_is_erfc(self):
        x = np.array([[-30.0, -2.0, 0.0], [0.5, 12.0, 80.0]])
        want = [[0.5 * math.erfc(t / (2.0 * math.sqrt(2.0))) for t in row] for row in x]
        assert np.array_equal(SmoothPdf.gaussian(2.0).tail(x), want)

    def test_tabulated_tail_keeps_relative_accuracy(self):
        # Laplace on +-40: P(W > x) = (e^-|x| - e^-40) / 2 for x >= 0, and
        # its reflection 2 P(W > 0) - P(W > |x|) below 0
        lap = SmoothPdf.tabulated(_laplace, 40.0)
        x = np.array([0.0, 0.1, 1.0, 5.0, 20.0, 30.0, 39.5])
        want = 0.5 * (np.exp(-x) - math.exp(-40.0))
        assert np.all(np.abs(lap.tail(x) / want - 1.0) <= 1e-12)
        assert np.all(np.abs(lap.tail(-x) - (1.0 - math.exp(-40.0) - want)) <= 1e-13)
        assert lap.tail(np.array([40.0, 50.0])).tolist() == [0.0, 0.0]
        uniform = SmoothPdf.tabulated(lambda w: np.full(np.shape(w), 0.5), 1.0)
        x = np.linspace(-1.5, 1.5, 13)
        assert np.allclose(uniform.tail(x), np.clip((1.0 - x) / 2.0, 0.0, 1.0), atol=1e-15)

    def test_single_draws(self):
        rng = np.random.default_rng(3)
        tri = SmoothPdf.tabulated(lambda w: np.clip(1.0 - np.abs(w), 0.0, None), 1.0)
        assert -1.0 <= tri.sampler(rng) <= 1.0
        assert IntegerPmf.birth_death(0.3).sampler(rng) in (-1.0, 0.0, 1.0)

    @pytest.mark.parametrize("fn", [lambda w: np.zeros(np.shape(w)),
                                    lambda w: -np.ones(np.shape(w))], ids=["zero", "negative"])
    def test_massless_density_rejected(self, fn):
        # the density clips a negative fn to 0, so both have no mass to sample
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UsageError, match="integrates to 0,"):
                SmoothPdf.tabulated(fn, 1.0)

    def test_asymmetric_flagged(self):
        with pytest.raises(UsageError, match="symmetry"):
            SmoothPdf.tabulated(lambda w: np.exp(-np.abs(w - 0.2)) / 2.0, 10.0)
        with pytest.raises(UsageError, match="nonincreasing"):
            SmoothPdf.tabulated(lambda w: 1.5 * w * w, 1.0)
        with pytest.raises(UsageError, match="integrates to 2,"):
            SmoothPdf.tabulated(lambda w: 2.0 * _laplace(w), 40.0)
        for halfwidth in (0.0, -1.0, np.inf):
            with pytest.raises(UsageError, match="support half-width"):
                SmoothPdf(kind="tabulated", fn=_laplace, support_halfwidth=halfwidth)

    @given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5, unique=True),
           st.lists(st.floats(0.1, 1.0), min_size=5, max_size=5), st.floats(0.3, 3.0))
    # Simpson's sum reads 1 + 1.02e-5 here, the trapezoid sum 1 + 4.2e-6
    @example(raw=[1.0, 0.96875, 0.125, 0.0625],
             gaps=[0.109375, 0.125, 1.0, 0.9921875, 1.0], width=1.0)
    @settings(max_examples=30, deadline=None)
    def test_random_piecewise_linear_densities(self, raw, gaps, width):
        heights = np.array(sorted(raw, reverse=True) + [0.0])
        knots = np.concatenate(([0.0], np.cumsum(gaps[:len(heights) - 1])))
        knots *= width / knots[-1]
        fn = _piecewise_linear(knots, heights)
        SmoothPdf.tabulated(fn, 1.5 * width)
        with pytest.raises(UsageError):
            SmoothPdf.tabulated(lambda w: fn(w - 0.2), 1.5 * width + 0.2)


class TestDistortionFn:
    def test_builtin_kinds_clean(self):
        e = np.array([-2.0, 0.0, 3.0])
        assert DistortionFn.absolute()(e).tolist() == [2.0, 0.0, 3.0]
        assert DistortionFn.quadratic()(e).tolist() == [4.0, 0.0, 9.0]

    def test_custom_checked(self):
        DistortionFn.custom(lambda e: np.abs(e) ** 1.5)
        for fn, prop in ((lambda e: np.abs(e) + 1.0, r"d\(0\) = 0"),
                         (lambda e: np.maximum(np.abs(e) - 1.0, 0.0), r"d\(e\) > 0"),
                         (lambda e: e * np.abs(e) + 2.0 * e * e, "even"),
                         (lambda e: np.abs(np.sin(e)), "nondecreasing")):
            with pytest.raises(UsageError, match=prop):
                DistortionFn.custom(fn)
        with pytest.raises(UsageError, match=r"d\(0\) = 0"):
            DistortionFn(kind="custom", fn=lambda e: np.abs(e) + 1.0)


class TestPolicies:
    def test_randomized_range(self):
        RandomizedThresholdPolicy(2, 0.5)
        with pytest.raises(UsageError):
            RandomizedThresholdPolicy(2, 1.5)


@pytest.mark.parametrize("distortion", [-math.inf, math.nan, math.inf, -1.0])
def test_perf_point_refuses_a_distortion_outside_zero_to_infinity(distortion):
    with pytest.raises(UsageError):
        PerfPoint(distortion=distortion, transmission_rate=0.5)


@pytest.mark.parametrize("rate", [-1e-9, 1.0 + 1e-9, math.nan])
def test_perf_point_refuses_a_rate_outside_zero_to_one(rate):
    with pytest.raises(UsageError, match="transmission rate"):
        PerfPoint(distortion=0.5, transmission_rate=rate)


class TestDiagnostics:
    def test_count_outside_a_block_leaves_no_trace(self):
        with collect() as closed:
            count(factorizations=1)
        count(factorizations=5, largest_system=7, draws=3)
        assert closed == Diagnostics(factorizations=1)
        assert model._OPEN_RECORD.get() is None

    def test_nested_block_counts_only_into_its_own_record(self):
        with collect() as outer:
            count(factorizations=1, largest_system=4)
            with collect() as inner:
                count(search_steps=2, largest_system=9)
            count(draws=10, largest_system=2)
        assert outer == Diagnostics(factorizations=1, largest_system=4, draws=10)
        assert inner == Diagnostics(search_steps=2, largest_system=9)

    def test_block_closes_on_error(self):
        with pytest.raises(UsageError):
            with collect() as record:
                raise UsageError("inside")
        count(factorizations=1)
        assert record == Diagnostics()
        assert model._OPEN_RECORD.get() is None

    def test_error_bound_is_the_largest_reported(self):
        with collect() as record:
            count(factorizations=1)
            assert record.error_bound is None
            for bound in (3e-12, 5e-11, 1e-13):
                count(error_bound=bound)
        assert record == Diagnostics(factorizations=1, error_bound=5e-11)


class TestTradeoffCurve:
    def test_shape_violations_detected(self):
        increasing_convex = TradeoffCurve(
            kind="costly",
            points=(CurvePoint(0.0, 0.0, 1), CurvePoint(1.0, 0.5, 2),
                    CurvePoint(2.0, 2.0, 3)),
        )
        assert any("concave" in v for v in increasing_convex.check())
        decreasing_convex = TradeoffCurve(
            kind="constrained",
            points=(CurvePoint(0.1, 1.0, 3), CurvePoint(0.2, 0.5, 2),
                    CurvePoint(0.5, 0.1, 1)),
        )
        assert decreasing_convex.check() == []

    @pytest.mark.parametrize("kind, ys, verdict", [
        ("costly", (1.0, 0.5, 0.25), "costly curve must be nondecreasing"),
        ("constrained", (0.25, 0.5, 1.0), "constrained curve must be nonincreasing"),
        ("constrained", (1.0, 0.9, 0.0), "constrained curve must be convex"),
    ])
    def test_each_verdict_named(self, kind, ys, verdict):
        curve = TradeoffCurve(kind=kind, points=tuple(
            CurvePoint(x, y, k) for k, (x, y) in enumerate(zip((0.1, 0.2, 0.3), ys))))
        assert verdict in curve.check()

    def test_unordered_abscissas(self):
        bad = TradeoffCurve(
            kind="costly",
            points=(CurvePoint(1.0, 1.0, 1), CurvePoint(0.5, 2.0, 2)),
        )
        assert any("increasing" in v for v in bad.check())


def test_model_b_spec_valid(gm_unit):
    # a direct dataclass call passes the same checks as the factories
    direct = ModelSpecB(gm_unit.a, SmoothPdf(kind="gaussian", sigma=1.0),
                        DistortionFn(kind="quadratic"), gm_unit.beta)
    assert spec_digest(direct) == spec_digest(gm_unit)


def test_model_b_describe_tabulated():
    tri = SmoothPdf.tabulated(lambda w: np.clip(1.0 - np.abs(w), 0.0, None), 2.0)
    spec = ModelSpecB(a=0.5, pdf=tri, distortion=DistortionFn.quadratic(), beta=0.9)
    assert spec.describe() == {
        "model": "B", "a": 0.5, "pdf": {"kind": "tabulated", "support_halfwidth": 2.0},
        "distortion": "quadratic", "beta": 0.9,
    }


# every entry point that takes an integer threshold or size; each reads it
# through model.integer_at_least
_DISCOUNTED, _AVERAGE = solver_a.bd_spec(0.3, 0.9), solver_a.bd_spec(0.3, 1.0)
_INTEGER_ENTRY_POINTS = {
    "threshold_table": lambda k: solver_a.threshold_table(_DISCOUNTED, k),
    "performance": lambda k: solver_a.performance(_DISCOUNTED, k),
    "corner_lambdas": lambda k: solver_a.corner_lambdas(_DISCOUNTED, k),
    "tradeoff_curve": lambda k: solver_a.tradeoff_curve(_DISCOUNTED, "constrained", k),
    "bd_closed_form": lambda k: solver_a.bd_closed_form(0.3, 0.9, k),
    "policy_evaluate_fixed_point": lambda k: dp.policy_evaluate_fixed_point(_DISCOUNTED, k),
    "steering_visit_probability": lambda k: steering_visit_probability(_AVERAGE, k, 0.5),
    "simulate_policies": lambda k: simulate(
        _AVERAGE, PolicySpec.threshold(k), SimConfig(horizon=50, replications=2, burn_in=5)),
}


@pytest.mark.parametrize("entry", sorted(_INTEGER_ENTRY_POINTS))
# a non-number used to raise a raw TypeError from the comparison
@pytest.mark.parametrize("bad", [math.nan, -math.inf, -1, 2.5, None, "x", [3]])
def test_integer_entry_points_reject_non_integers(entry, bad):
    with pytest.raises(UsageError):
        _INTEGER_ENTRY_POINTS[entry](bad)


@pytest.mark.parametrize("entry", sorted(_INTEGER_ENTRY_POINTS))
def test_integer_entry_points_accept_integral_values(entry):
    call = _INTEGER_ENTRY_POINTS[entry]
    assert repr(call(3.0)) == repr(call(np.int64(3))) == repr(call(3))


def test_performance_refuses_an_infinite_threshold():
    # never transmitting is the limit of the threshold table's flat tail
    with pytest.raises(UsageError):
        solver_a.performance(_DISCOUNTED, math.inf)


class TestMMatrixCertificate:
    @pytest.mark.parametrize("seed", range(20))
    def test_rcond_matches_dense_inverse(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        T = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.5)
        # each row keeps a share of its mass below 1, some rows all of it
        T /= np.maximum(T.sum(axis=1, keepdims=True), 1e-300) / rng.uniform(0.5, 1.0, (n, 1))
        A = np.eye(n) - rng.uniform(0.5, 1.0) * T
        anorm = np.linalg.norm(A, np.inf)
        m = np.linalg.solve(A, np.ones(n))
        rcond, bound = model.m_matrix_certificate(anorm, m, "singular (rcond={rcond:.2e})")
        want = 1.0 / (anorm * np.linalg.norm(np.linalg.inv(A), np.inf))
        assert rcond == pytest.approx(want, rel=1e-12)
        r, v0 = rng.normal(size=(n, 3)), rng.normal(size=3)
        assert np.array_equal(bound(r, v0), m.max() * np.abs(r).max(axis=0)
                              + model.BOUND_ROUNDING * np.abs(v0))

    @pytest.mark.parametrize("anorm, m", [
        (1.0, [1.0, -0.5, 2.0]), (1.0, [1.0, 0.0, 2.0]), (1.0, [1.0, math.nan, 2.0]),
        (1.0, [1.0, math.inf, 2.0]), (1.0, [1.0, 1e14, 2.0]),
        (0.0, [0.0, 0.0]),  # A = 0: rcond 0 * inf is NaN
    ])
    def test_uncertified_column_raises(self, anorm, m):
        with pytest.raises(SingularSystemError, match=r"singular \(rcond="):
            model.m_matrix_certificate(anorm, np.array(m), "singular (rcond={rcond:.2e})")
