import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remest import (
    CurvePoint,
    DiscountFactor,
    DistortionFn,
    IntegerPmf,
    ModelSpecA,
    ModelSpecB,
    RandomizedThresholdPolicy,
    SmoothPdf,
    TradeoffCurve,
    UsageError,
    estimator_step,
    validate_spec,
)
from remest import model
from remest.model import Diagnostics, collect, count
from conftest import random_valid_pmf


class TestDiscountFactor:
    def test_bounds(self):
        assert DiscountFactor(1.0).is_average
        assert not DiscountFactor(0.9).is_average
        for bad in (0.0, -0.1, 1.0001):
            with pytest.raises(UsageError):
                DiscountFactor(bad)


class TestIntegerPmf:
    def test_birth_death_valid(self):
        spec = ModelSpecA(a=1, pmf=IntegerPmf({-1: 0.3, 0: 0.4, 1: 0.3}),
                          distortion=DistortionFn.absolute(), beta=0.9)
        assert validate_spec(spec) == []

    def test_point_mass_flagged(self):
        spec = ModelSpecA(a=1, pmf=IntegerPmf({0: 1.0}),
                          distortion=DistortionFn.absolute(), beta=0.9)
        assert any("p_0 < 1" in v for v in validate_spec(spec))

    def test_asymmetry_flagged(self):
        spec = ModelSpecA(a=1, pmf=IntegerPmf({-1: 0.2, 0: 0.4, 1: 0.4}),
                          distortion=DistortionFn.absolute(), beta=0.9)
        assert any("symmetry" in v for v in validate_spec(spec))

    def test_renormalizes_small_deficit(self):
        pmf = IntegerPmf({-1: 0.3, 0: 0.4 - 5e-11, 1: 0.3})
        assert abs(sum(pmf.probs.values()) - 1.0) < 1e-15
        assert pmf.truncation_deficit > 0.0

    def test_large_deficit_rejected(self):
        with pytest.raises(UsageError):
            IntegerPmf({-1: 0.3, 1: 0.3})

    def test_negative_mass_rejected(self):
        with pytest.raises(UsageError):
            IntegerPmf({-1: 0.6, 0: -0.2, 1: 0.6})

    def test_unimodality_gap_flagged(self):
        pmf = IntegerPmf({-3: 0.2, 0: 0.6, 3: 0.2})
        assert any("unimodal" in v for v in pmf.violations())

    def test_hashable(self):
        assert hash(IntegerPmf({0: 0.5, 1: 0.25, -1: 0.25}))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_valid_pmfs_pass(self, seed):
        rng = np.random.default_rng(seed)
        pmf = IntegerPmf(random_valid_pmf(rng))
        assert pmf.violations() == []


class TestSmoothPdf:
    def test_gaussian_clean(self):
        assert SmoothPdf.gaussian(1.0).violations() == []
        assert SmoothPdf.gaussian(0.25).violations() == []

    def test_gaussian_sampling_moments(self):
        rng = np.random.default_rng(7)
        w = SmoothPdf.gaussian(2.0).sampler(rng, 200_000)
        assert abs(w.mean()) < 0.02
        assert abs(w.std() - 2.0) < 0.02

    def test_tabulated_triangle(self):
        tri = SmoothPdf.tabulated(lambda w: np.clip(1.0 - np.abs(w), 0.0, None), 1.0)
        assert tri.violations() == []
        rng = np.random.default_rng(11)
        w = tri.sampler(rng, 100_000)
        assert abs(w.mean()) < 0.01
        assert abs(w.var() - 1.0 / 6.0) < 0.01

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
            with pytest.raises(UsageError, match="no mass"):
                SmoothPdf.tabulated(fn, 1.0)

    def test_asymmetric_flagged(self):
        skew = SmoothPdf.tabulated(lambda w: np.exp(-np.abs(w - 0.2)) / 2.0, 10.0)
        assert any("symmetry" in v for v in skew.violations())


class TestDistortionFn:
    def test_builtin_kinds_clean(self):
        assert DistortionFn.absolute().violations() == []
        assert DistortionFn.quadratic().violations() == []

    def test_custom_checked(self):
        ok = DistortionFn.custom(lambda e: np.abs(e) ** 1.5)
        assert ok.violations() == []
        shifted = DistortionFn.custom(lambda e: np.abs(e) + 1.0)
        assert any("d(0)" in v for v in shifted.violations())


class TestEstimatorStep:
    def test_transmission_overrides(self):
        assert estimator_step(2.0, 5.0, a=1.0) == 5.0

    def test_hold(self):
        assert estimator_step(2.0, None, a=1.0) == 2.0

    def test_linear_prediction(self):
        assert estimator_step(3.0, None, a=-2.0) == -6.0

    @given(st.floats(-1e6, 1e6), st.floats(-4, 4))
    @settings(max_examples=50)
    def test_silence_is_linear(self, prev, a):
        assert estimator_step(prev, None, a) == a * prev


class TestPolicies:
    def test_randomized_range(self):
        RandomizedThresholdPolicy(2, 0.5)
        with pytest.raises(UsageError):
            RandomizedThresholdPolicy(2, 1.5)


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

    def test_unordered_abscissas(self):
        bad = TradeoffCurve(
            kind="costly",
            points=(CurvePoint(1.0, 1.0, 1), CurvePoint(0.5, 2.0, 2)),
        )
        assert any("increasing" in v for v in bad.check())


def test_model_b_spec_valid(gm_unit):
    assert validate_spec(gm_unit) == []


def test_model_b_describe_tabulated():
    tri = SmoothPdf.tabulated(lambda w: np.clip(1.0 - np.abs(w), 0.0, None), 2.0)
    spec = ModelSpecB(a=0.5, pdf=tri, distortion=DistortionFn.quadratic(), beta=0.9)
    assert spec.describe() == {
        "model": "B", "a": 0.5, "pdf": {"kind": "tabulated", "support_halfwidth": 2.0},
        "distortion": "quadratic", "beta": 0.9,
    }
