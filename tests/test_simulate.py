import importlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from remest import DivergenceError, IntegerPmf, NumericsError, UsageError
from remest import solver_a, solver_b
from remest.simulate import (
    PolicySpec,
    SimConfig,
    SimResult,
    periodic_distortion,
    simulate,
    stationary_stopping_distortion,
    stationary_threshold_distribution,
    steering_policy_step,
    steering_visit_probability,
    time_sharing_schedule,
)

# the package re-exports the function under the module's name
simulate_module = importlib.import_module("remest.simulate")


class TestPolicySpec:
    def test_periodic_pattern_validation(self):
        with pytest.raises(UsageError):
            PolicySpec.periodic([0, 2, 0])
        assert PolicySpec.periodic_one_in(4).pattern == (1, 0, 0, 0)
        assert PolicySpec.periodic_all_but_one(4).pattern == (0, 1, 1, 1)

    def test_schedule_validation(self):
        with pytest.raises(UsageError):
            PolicySpec.time_sharing(2, [(0, 0)])
        assert PolicySpec.time_sharing(2, [(1, 0)]).schedule == ((1, 0),)

    def test_config_validation(self):
        with pytest.raises(UsageError):
            SimConfig(horizon=100, burn_in=100)


class TestThresholdPolicies:
    def test_always_transmit_exact(self, bd_avg):
        res = simulate(bd_avg, PolicySpec.threshold(0),
                       SimConfig(horizon=2000, replications=8, seed=0))
        assert res.d_hat == 0.0
        assert res.n_hat == 1.0

    def test_birth_death_matches_analytic(self, bd_avg):
        ana = solver_a.performance(bd_avg, 2)
        res = simulate(bd_avg, PolicySpec.threshold(2),
                       SimConfig(horizon=20_000, replications=60, seed=101))
        assert abs(res.d_hat - ana.distortion) <= 3.0 * res.d_se
        assert abs(res.n_hat - ana.transmission_rate) <= 3.0 * res.n_se

    def test_discounted_matches_analytic(self, bd_09):
        ana = solver_a.performance(bd_09, 2)
        res = simulate(bd_09, PolicySpec.threshold(2),
                       SimConfig(replications=4000, seed=7))
        assert abs(res.d_hat - ana.distortion) <= 3.0 * res.d_se
        assert abs(res.n_hat - ana.transmission_rate) <= 3.0 * res.n_se

    def test_gaussian_matches_analytic(self, gm_unit):
        ana = solver_b.performance_b(gm_unit, 1.0)
        res = simulate(gm_unit, PolicySpec.threshold(1.0),
                       SimConfig(horizon=20_000, replications=60, seed=11))
        assert abs(res.d_hat - ana.distortion) <= 3.0 * res.d_se
        assert abs(res.n_hat - ana.transmission_rate) <= 3.0 * res.n_se

    def test_fractional_threshold_rejected_on_integer_model(self, bd_avg):
        with pytest.raises(UsageError):
            simulate(bd_avg, PolicySpec.threshold(1.5),
                     SimConfig(horizon=100, replications=2, burn_in=10))

    def test_overflow_guard(self):
        spec = solver_a.bd_spec(0.3, 1.0, a=2)
        with pytest.raises(NumericsError):
            simulate(spec, PolicySpec.threshold(math.inf),
                     SimConfig(horizon=100, replications=2, burn_in=10))
        with pytest.raises(NumericsError):
            simulate(solver_a.bd_spec(0.3, 0.9, a=2), PolicySpec.threshold(math.inf),
                     SimConfig(horizon=100, replications=2, burn_in=10))

    def test_overflow_below_finite_threshold_raises(self):
        # the state outgrows float64 long before |e| reaches k
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericsError, match="not finite"):
                simulate(solver_a.bd_spec(0.2, 1.0, a=2), PolicySpec.threshold(1e200),
                         SimConfig(horizon=3000, replications=2, seed=1))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_distortion_overflow_raises_at_chunk(self):
        # e^2 overflows below k, so a chunk's quadratic distortion sum does
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericsError, match="sums are not finite after step"):
                simulate(solver_b.gauss_markov_spec(1.0, a=2.0), PolicySpec.threshold(1e200),
                         SimConfig(horizon=3000, replications=2, seed=1))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("policy", [PolicySpec.threshold(math.inf),
                                        PolicySpec.periodic([0, 0])],
                             ids=["k_inf", "silent_pattern"])
    def test_never_transmit_average_diverges(self, bd_avg, gm_unit, policy):
        # the renewal solver raises the same error for this cost
        for spec in (bd_avg, gm_unit, solver_a.bd_spec(0.3, 1.0, a=-1)):
            with pytest.raises(DivergenceError):
                simulate(spec, policy, SimConfig(horizon=100, replications=2, burn_in=10))

    def test_never_transmit_finite_cases_still_simulate(self, bd_09):
        cfg = SimConfig(horizon=100, replications=2, burn_in=10)
        res = simulate(bd_09, PolicySpec.threshold(math.inf), cfg)
        assert res.n_hat == 0.0 and res.d_hat > 0.0
        res = simulate(solver_a.bd_spec(0.3, 1.0, a=0), PolicySpec.threshold(math.inf), cfg)
        assert res.n_hat == 0.0 and res.d_hat > 0.0

    def test_memory_cap(self, bd_avg, monkeypatch):
        # iid coins double the per-step draws
        monkeypatch.setattr(simulate_module, "MAX_SIM_CELLS", 1000)
        cfg = SimConfig(horizon=100, replications=10, burn_in=10)
        simulate(bd_avg, PolicySpec.threshold(2), cfg)
        with pytest.raises(UsageError, match="cap"):
            simulate(bd_avg, PolicySpec.iid_random(0.5), cfg)
        with pytest.raises(UsageError, match="cap"):
            simulate(bd_avg, PolicySpec.threshold(2),
                     SimConfig(horizon=101, replications=10, burn_in=10))


class TestRandomizedMixture:
    def test_hits_budget_and_distortion(self, bd_09):
        policy, d_star = solver_a.optimal_constrained(bd_09, 0.1)
        res = simulate(bd_09,
                       PolicySpec.randomized_threshold(policy.k_star, policy.theta_star),
                       SimConfig(replications=3000, seed=23))
        assert abs(res.n_hat - 0.1) <= 3.0 * res.n_se
        assert abs(res.d_hat - d_star) <= 3.0 * res.d_se

    def test_degenerate_weights(self, bd_avg):
        ana = solver_a.performance(bd_avg, 3)
        res = simulate(bd_avg, PolicySpec.randomized_threshold(3, 1.0),
                       SimConfig(horizon=10_000, replications=30, seed=3))
        assert abs(res.n_hat - ana.transmission_rate) <= 3.0 * res.n_se


class TestStateBlindBaselines:
    def test_iid_random_distortion(self, gm_unit):
        res = simulate(gm_unit, PolicySpec.iid_random(0.5),
                       SimConfig(horizon=20_000, replications=60, seed=31))
        assert abs(res.d_hat - 1.0) <= 3.0 * res.d_se
        assert abs(res.n_hat - 0.5) <= 3.0 * res.n_se

    def test_periodic_formula_values(self):
        assert periodic_distortion(0.5, 1.0, "one_in_T") == pytest.approx(0.5)
        assert periodic_distortion(0.5, 1.0, "all_but_one") == pytest.approx(0.5)
        assert periodic_distortion(0.25, 2.0, "one_in_T") == pytest.approx(6.0)
        with pytest.raises(UsageError):
            periodic_distortion(0.3, 1.0, "one_in_T")

    def test_stopping_time_formula(self):
        # geometric stopping with success probability alpha
        alpha = 0.25
        tau_mean = 1.0 / alpha
        tau_m2 = 2.0 / alpha ** 2 - 1.0 / alpha
        assert stationary_stopping_distortion(tau_mean, tau_m2, 1.0) == pytest.approx(
            1.0 / alpha - 1.0)
        # deterministic period T
        assert stationary_stopping_distortion(4.0, 16.0, 1.0) == pytest.approx(1.5)
        # transmit every step
        assert stationary_stopping_distortion(1.0, 1.0, 3.0) == 0.0


class TestSteering:
    def test_scalar_step_theta_one_always_transmits(self):
        counters = (0.0, 0.0)
        for _ in range(5):
            u, counters = steering_policy_step(counters, e=2.0, k=2.0, theta=1.0)
            assert u == 1
        assert counters == (0.0, 5.0)

    def test_scalar_step_off_boundary(self):
        u, _ = steering_policy_step((0.0, 0.0), e=3.0, k=2.0, theta=0.2)
        assert u == 1
        u, _ = steering_policy_step((0.0, 0.0), e=1.0, k=2.0, theta=0.2)
        assert u == 0

    def test_vector_rule_matches_scalar_step(self):
        # |e| in {0, ..., 4} hits the boundary |e| = k on a fifth of the steps
        k, theta, n, T = 2.0, 0.37, 5, 400
        abs_e = np.random.default_rng(9).integers(0, 5, size=(T, n)).astype(float)
        rule = simulate_module._transmit_rule(PolicySpec.steering(k, theta), n, T, None)
        counters = [(0.0, 0.0)] * n
        for t in range(T):
            U = rule(t, abs_e[t])
            for i in range(n):
                u, counters[i] = steering_policy_step(counters[i], abs_e[t, i], k, theta)
                assert bool(U[i]) == bool(u), (t, i)
        assert sum(c[1] for c in counters) > 0 and sum(c[0] for c in counters) > 0

    def test_long_run_boundary_frequency(self):
        for theta in (0.31, 0.6899):
            counters = (0.0, 0.0)
            taken = 0
            visits = 100_000
            for _ in range(visits):
                u, counters = steering_policy_step(counters, e=2.0, k=2.0, theta=theta)
                taken += u
            assert abs(taken / visits - theta) <= 0.01

    def test_matches_mixture_performance(self, bd_avg):
        policy, d_star = solver_a.optimal_constrained(bd_avg, 0.1)
        theta_visit = steering_visit_probability(bd_avg, policy.k_star, policy.theta_star)
        res = simulate(bd_avg, PolicySpec.steering(policy.k_star, theta_visit),
                       SimConfig(horizon=50_000, replications=50, seed=43))
        assert abs(res.n_hat - 0.1) <= 3.0 * res.n_se
        assert abs(res.d_hat - d_star) <= 3.0 * res.d_se


class TestStationaryDistribution:
    def test_transmit_mass_equals_rate(self, bd_avg):
        for k in (1, 2, 3):
            states, pi = stationary_threshold_distribution(bd_avg, k)
            rate = float(pi[np.abs(states) >= k].sum())
            ana = solver_a.performance(bd_avg, k).transmission_rate
            assert rate == pytest.approx(ana, abs=1e-10)

    def test_visit_probability_birth_death(self, bd_avg):
        # occupation-measure weighting of theta* = 0.4 between k = 2 and 3:
        # boundary masses are 0.15 (under k=2) and 2/9 (under k=3)
        tv = steering_visit_probability(bd_avg, 2, 0.4)
        expect = 0.4 * 0.15 / (0.4 * 0.15 + 0.6 * (2.0 / 9.0))
        assert tv == pytest.approx(expect, abs=1e-10)

    def test_negative_mass_raises(self, bd_avg, monkeypatch):
        solve = np.linalg.lstsq

        def shifted(A, b, rcond=None):
            pi, *rest = solve(A, b, rcond=rcond)
            pi = pi.copy()
            pi[1] += pi[0] + 1e-9
            pi[0] = -1e-9
            return (pi, *rest)

        monkeypatch.setattr(np.linalg, "lstsq", shifted)
        with pytest.raises(NumericsError, match="negative mass"):
            stationary_threshold_distribution(bd_avg, 2)

    def test_visit_probability_degenerate(self, bd_avg):
        assert steering_visit_probability(bd_avg, 2, 0.0) == 0.0
        assert steering_visit_probability(bd_avg, 2, 1.0) == 1.0


class TestTimeSharing:
    def test_schedule_arithmetic(self):
        assert time_sharing_schedule(0.15, 0.15, 0.0667, 1.0) == [(1, 0)]
        assert time_sharing_schedule(0.1, 0.15, 0.6 / 9.0, 0.4, depth=1) == [(3, 2)]
        # theta * n_k / alpha = 0.69 * 0.15 / 0.1035 = 1 exactly
        assert time_sharing_schedule(0.1035, 0.15, 0.0667, 0.69) == [(1, 0)]

    def test_schedule_guards(self):
        with pytest.raises(UsageError):
            time_sharing_schedule(0.1, 0.05, 0.15, 0.5)

    def test_long_run_rate(self, bd_avg):
        # aggregate 1e6 steps; the emitted schedule must hold the rate at 0.1
        sched = time_sharing_schedule(0.1, 0.15, 0.6 / 9.0, 0.4)
        res = simulate(bd_avg, PolicySpec.time_sharing(2, sched),
                       SimConfig(horizon=100_000, replications=10, seed=47))
        assert abs(res.n_hat - 0.1) <= 0.005

    def test_matches_mixture_performance(self, bd_avg):
        policy, d_star = solver_a.optimal_constrained(bd_avg, 0.1)
        n_lo = solver_a.performance(bd_avg, policy.k_star).transmission_rate
        n_hi = solver_a.performance(bd_avg, policy.k_star + 1).transmission_rate
        sched = time_sharing_schedule(0.1, n_lo, n_hi, policy.theta_star)
        res = simulate(bd_avg, PolicySpec.time_sharing(policy.k_star, sched),
                       SimConfig(horizon=50_000, replications=50, seed=53))
        assert abs(res.n_hat - 0.1) <= 3.0 * res.n_se
        assert abs(res.d_hat - d_star) <= 3.0 * res.d_se

    def test_pure_schedule_reduces_to_threshold(self, bd_avg):
        ana = solver_a.performance(bd_avg, 2)
        res = simulate(bd_avg, PolicySpec.time_sharing(2, [(1, 0)]),
                       SimConfig(horizon=20_000, replications=30, seed=59))
        assert abs(res.n_hat - ana.transmission_rate) <= 3.0 * res.n_se

    def test_phase_longer_than_horizon(self, bd_avg):
        # a phase of more cycles than steps never ends within the run
        cfg = SimConfig(horizon=3000, replications=4, burn_in=100, seed=71)
        res = simulate(bd_avg, PolicySpec.time_sharing(2, [(10**12, 1)]), cfg)
        assert res == simulate(bd_avg, PolicySpec.threshold(2), cfg)


class TestDeterminism:
    def test_identical_runs(self, bd_avg):
        cfg = SimConfig(horizon=5000, replications=16, seed=61)
        a = simulate(bd_avg, PolicySpec.threshold(2), cfg)
        b = simulate(bd_avg, PolicySpec.threshold(2), cfg)
        assert a == b

    def test_seed_changes_output(self, bd_avg):
        a = simulate(bd_avg, PolicySpec.threshold(2),
                     SimConfig(horizon=4000, replications=8, seed=1))
        b = simulate(bd_avg, PolicySpec.threshold(2),
                     SimConfig(horizon=4000, replications=8, seed=2))
        assert a.d_hat != b.d_hat


# Recorded from the two-stream, time-major simulator (stream layout 2, chunks
# of CHUNK_CELLS = 2**18 draws) by running each case below once:
# (d_hat, n_hat, d_se, n_se, steps_per_replication) at 7 reps x 3000 steps,
# burn-in 200, seed 11.  The Model-A schedule has a zero-length phase.
GOLDEN_POLICIES = {
    "A": {
        "threshold": PolicySpec.threshold(2),
        "randomized_threshold": PolicySpec.randomized_threshold(2, 0.4),
        "periodic": PolicySpec.periodic((1, 0, 0)),
        "iid_random": PolicySpec.iid_random(0.3),
        "steering": PolicySpec.steering(2, 0.35),
        "time_sharing": PolicySpec.time_sharing(2, [(3, 2), (0, 1), (2, 0)]),
    },
    "B": {
        "threshold": PolicySpec.threshold(1.2),
        "randomized_threshold": PolicySpec.randomized_threshold(1, 0.6),
        "periodic": PolicySpec.periodic((0, 1, 1)),
        "iid_random": PolicySpec.iid_random(0.4),
        "steering": PolicySpec.steering(1.0, 0.5),
        "time_sharing": PolicySpec.time_sharing(1.0, [(1, 3), (2, 0)]),
    },
}
GOLDEN = {
    ("A", "threshold"): (0.5006632653061224, 0.15239795918367346, 0.00394356182348086, 0.002367368930228607, 3000),
    ("A", "randomized_threshold"): (0.6103571428571428, 0.1297959183673469, 0.07220853917128986, 0.015557711212635363, 3000),
    ("A", "periodic"): (0.4779591836734694, 0.33321428571428574, 0.0020820661146670554, 0.0, 3000),
    ("A", "iid_random"): (0.7334183673469388, 0.29494897959183675, 0.00603322169219958, 0.0026063722785233836, 3000),
    ("A", "steering"): (0.7261224489795918, 0.1060204081632653, 0.005247997310782752, 0.0011143025340735492, 3000),
    ("A", "time_sharing"): (0.7241326530612245, 0.10168367346938775, 0.0038456438752458447, 0.0030241519361081945, 3000),
    ("B", "threshold"): (0.2880702818486046, 0.2971515517377757, 0.030018521797470842, 0.014641727085132948, 449),
    ("B", "randomized_threshold"): (0.286625507200824, 0.315664237827181, 0.10398720974507501, 0.037449442693519144, 449),
    ("B", "periodic"): (0.35797936939423297, 0.6494303242105767, 0.054310286646739384, 4.5324665183683945e-17, 449),
    ("B", "iid_random"): (1.6564776643970942, 0.4100448023854509, 0.33034270237364405, 0.03155488663840608, 449),
    ("B", "steering"): (0.18424595359232646, 0.34770923726775543, 0.010667517318476014, 0.017211184367100098, 449),
    ("B", "time_sharing"): (0.6514225626999696, 0.2209370266199357, 0.05598153841332326, 0.018691059558131426, 449),
}


def golden_spec(model):
    return (solver_a.bd_spec(0.3, 1.0) if model == "A"
            else solver_b.gauss_markov_spec(1.0, beta=0.95))


@pytest.mark.parametrize("model, kind", sorted(GOLDEN))
def test_golden_results(model, kind):
    res = simulate(golden_spec(model), GOLDEN_POLICIES[model][kind],
                   SimConfig(horizon=3000, replications=7, burn_in=200, seed=11))
    d_hat, n_hat, d_se, n_se, steps = GOLDEN[(model, kind)]
    assert res == SimResult(d_hat=d_hat, n_hat=n_hat, d_se=d_se, n_se=n_se,
                            replications_used=7, stream_id="pcg64[11,2]:innov|policy,time-major",
                            steps_per_replication=steps)


class TestChunks:
    @pytest.mark.parametrize("model, kind", sorted(GOLDEN))
    def test_chunk_size_invariance(self, model, kind, monkeypatch):
        # 1-row chunks, 37-row chunks that straddle the burn-in, one chunk:
        # each stream is drawn in order, so only the summation order moves
        cfg = SimConfig(horizon=600, replications=5, burn_in=50, seed=13)
        runs = []
        for cells in (1, 37 * cfg.replications, 10**9):
            monkeypatch.setattr(simulate_module, "CHUNK_CELLS", cells)
            runs.append(simulate(golden_spec(model), GOLDEN_POLICIES[model][kind], cfg))
        one_chunk = runs[-1]
        for res in runs[:-1]:
            assert res.stream_id == one_chunk.stream_id
            assert res.steps_per_replication == one_chunk.steps_per_replication
            for field in ("d_hat", "n_hat", "d_se", "n_se"):
                assert getattr(res, field) == pytest.approx(getattr(one_chunk, field),
                                                            rel=1e-12), field

    def test_memory_bounded_by_chunk(self, bd_avg):
        # the whole 50 x 2e5 innovation matrix would take 80 MB
        cfg = SimConfig(horizon=200_000, replications=50, burn_in=1000, seed=5)
        tracemalloc.start()
        try:
            simulate(bd_avg, PolicySpec.threshold(2), cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * simulate_module.CHUNK_CELLS * 8


class TestPmfSampler:
    @staticmethod
    def assert_frequencies(draws, offsets, values):
        # each offset's share within 6 standard errors of its probability
        freq = np.array([np.mean(draws == o) for o in offsets])
        se = np.sqrt(values * (1.0 - values) / draws.size)
        assert np.all(np.abs(freq - values) <= 6.0 * se), (freq, values)
        assert np.isin(draws, offsets).all()

    def test_random_symmetric_pmf(self):
        half = np.sort(np.random.default_rng(17).random(5))[::-1]  # p_0 >= ... >= p_4
        pmf = IntegerPmf({n: half[abs(n)] for n in range(-4, 5)})
        draw = simulate_module._pmf_sampler(pmf.offsets, pmf.values)
        draws = draw(np.random.default_rng(3), (400, 500))
        assert draws.shape == (400, 500)
        self.assert_frequencies(draws, pmf.offsets, pmf.values)

    def test_mass_short_of_one_reaches_last_offset(self):
        offsets = np.array([-1, 0, 1])
        values = np.array([0.25, 0.5, 0.25 - 1e-16])
        assert np.cumsum(values)[-1] < 1.0
        draw = simulate_module._pmf_sampler(offsets, values)

        class LargestUniform:
            def random(self, shape):
                return np.full(shape, np.nextafter(1.0, 0.0))

        assert np.all(draw(LargestUniform(), (3, 2)) == 1.0)
        self.assert_frequencies(draw(np.random.default_rng(5), (1000, 200)), offsets, values)
