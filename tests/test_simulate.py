import hashlib
import importlib
import math
import re
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from remest import (
    DistortionFn,
    DivergenceError,
    IntegerPmf,
    ModelSpecA,
    ModelSpecB,
    NumericsError,
    UsageError,
)
from remest import cli, solver_a, solver_b
from remest.model import _SEARCH_BLOCK, Diagnostics, SmoothPdf, collect
from remest.simulate import (
    PolicySpec,
    SimConfig,
    SimResult,
    simulate,
    simulate_policies,
    steering_visit_probability,
    time_sharing_schedule,
)
from remest.reference import state_blind_distortion
from conftest import random_valid_pmf

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

    @pytest.mark.parametrize("field", [{"seed": 1.5}, {"replications": 2.5},
                                       {"horizon": 2000.5}, {"burn_in": 10.5},
                                       {"seed": "3"}, {"horizon": None}, {"replications": [2]}])
    def test_fractional_config_rejected(self, field):
        # each used to raise a raw TypeError, inside the run or on construction
        with pytest.raises(UsageError):
            SimConfig(**field)

    def test_integral_config_stored_as_int(self, bd_avg):
        config = SimConfig(horizon=200.0, replications=np.int64(2), seed=3.0, burn_in=10.0)
        assert all(type(v) is int for v in vars(config).values())
        assert simulate(bd_avg, PolicySpec.threshold(2), config) == simulate(
            bd_avg, PolicySpec.threshold(2), SimConfig(horizon=200, replications=2, seed=3,
                                                       burn_in=10))

    @pytest.mark.parametrize("build", [PolicySpec.periodic_one_in,
                                       PolicySpec.periodic_all_but_one])
    def test_fractional_period_rejected(self, build):
        with pytest.raises(UsageError):
            build(2.5)

    @pytest.mark.parametrize("pattern", [[1.7, 0.2], [1, 0.5], [1, math.nan], [math.inf, 0],
                                         [1, 10**400]])
    def test_fractional_pattern_rejected(self, pattern):
        # [1.7, 0.2] used to be truncated to (1, 0), and an int beyond the float range
        # raised a raw OverflowError
        with pytest.raises(UsageError, match="pattern entry must be an integer"):
            PolicySpec.periodic(pattern)

    @pytest.mark.parametrize("schedule", [[(2.5, 1.9)], [(2, 3), (1, 0.5)], [(math.nan, 1)],
                                          [(1, math.inf)], [(10**400, 1)]])
    def test_fractional_schedule_rejected(self, schedule):
        # [(2.5, 1.9)] used to be truncated to ((2, 1),)
        with pytest.raises(UsageError, match="schedule entry must be an integer"):
            PolicySpec.time_sharing(2, schedule)

    @pytest.mark.parametrize("fields, match", [
        ({"kind": "threshold"}, "needs k"),
        ({"kind": "steering", "k": 2.0}, "needs theta"),
        ({"kind": "iid_random"}, "needs alpha"),
        ({"kind": "periodic"}, "needs pattern"),
        ({"kind": "time_sharing", "k": 2.0}, "needs schedule"),
        ({"kind": "bogus", "k": 2.0, "schedule": ((1, 1),)}, "unknown policy kind 'bogus'"),
        ({"kind": "iid", "alpha": 0.3}, "unknown policy kind 'iid'"),
        ({"kind": "periodic", "pattern": (1, 0), "k": math.inf}, "does not take k"),
        ({"kind": "threshold", "k": 2.0, "theta": 0.3}, "does not take theta"),
    ], ids=["threshold-no-k", "steering-no-theta", "iid-no-alpha", "periodic-no-pattern",
            "timesharing-no-schedule", "unknown-kind", "cli-name", "periodic-stray-k",
            "threshold-stray-theta"])
    def test_incomplete_or_unknown_policy_refused(self, fields, match):
        # each used to be simulated: a NaN threshold row (a never-transmit
        # run with a finite estimate), a fall-through to time-sharing, a
        # TypeError inside the step loop, or a DivergenceError from a stray k
        with pytest.raises(UsageError, match=match):
            PolicySpec(**fields)

    def test_fields_table_names_every_kind_once(self):
        built = [PolicySpec.threshold(2), PolicySpec.randomized_threshold(2, 0.5),
                 PolicySpec.periodic([1, 0]), PolicySpec.iid_random(0.5),
                 PolicySpec.steering(2, 0.5), PolicySpec.time_sharing(2, [(1, 1)])]
        assert [p.kind for p in built] == list(PolicySpec.FIELDS)
        for p in built:
            given = [n for n in ("k", "theta", "pattern", "alpha", "schedule")
                     if getattr(p, n) is not None]
            assert tuple(given) == PolicySpec.FIELDS[p.kind]
        assert sorted(cli.POLICY_KINDS.values()) == sorted(PolicySpec.FIELDS)

    @pytest.mark.parametrize("build", [
        lambda: PolicySpec.time_sharing(2, [(1,)]),
        lambda: PolicySpec.time_sharing(2, [(1, 1), (1, 2, 3)]),
        lambda: PolicySpec.time_sharing(2, [3]),
        lambda: PolicySpec.time_sharing(2, [("1", 1)]),
        lambda: PolicySpec.periodic(["1", "0"]), lambda: PolicySpec.periodic([1, None]),
        lambda: PolicySpec.periodic(1), lambda: PolicySpec.threshold("x"),
        lambda: PolicySpec.iid_random([0.5]),
        lambda: PolicySpec.steering(2, 1.5), lambda: PolicySpec.randomized_threshold(2, -0.1),
        lambda: PolicySpec.iid_random(0.0), lambda: PolicySpec.iid_random(1.5),
    ], ids=["schedule-single", "schedule-triple", "schedule-int", "schedule-str",
            "pattern-str", "pattern-none", "pattern-int", "k-str", "alpha-list",
            "theta-above-one", "theta-negative", "alpha-zero", "alpha-above-one"])
    def test_malformed_policy_fields_rejected(self, build):
        # schedule entries must be pairs of numbers, patterns sequences of
        # numbers; theta lies in [0, 1] and alpha in (0, 1]
        with pytest.raises(UsageError):
            build()

    def test_integral_pattern_and_schedule_stored_as_int(self):
        periodic = PolicySpec.periodic([1.0, np.int64(0), 0])
        assert periodic == PolicySpec.periodic([1, 0, 0])
        assert all(type(u) is int for u in periodic.pattern)
        sharing = PolicySpec.time_sharing(2, [(np.int64(2), 3.0), (1, 0)])
        assert sharing == PolicySpec.time_sharing(2, [(2, 3), (1, 0)])
        assert all(type(n) is int for entry in sharing.schedule for n in entry)


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

    def test_never_transmit_discounted_vs_simulation(self, bd_09):
        # never transmitting is the limit of the threshold table's flat tail
        # (N(60) = 4.8e-17)
        p = solver_a.performance(bd_09, 60)
        res = simulate(bd_09, PolicySpec.threshold(math.inf),
                       SimConfig(replications=3000, seed=5))
        assert res.n_hat == 0.0
        assert abs(res.d_hat - p.distortion) <= 3.0 * res.d_se

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

    def test_one_replication_refused(self, capsys):
        # one replication used to report d_se = n_se = 0, a standard error it
        # cannot have; two give the spread of two estimates
        with pytest.raises(UsageError, match="at least 2, got 1: the standard errors"):
            SimConfig(horizon=2000, replications=1, burn_in=10, seed=3)
        argv = ["simulate", "--model", "B", "--policy", "threshold", "--k", "1",
                "--horizon", "50", "--burn-in", "5"]
        assert cli.main(argv + ["--reps", "1"]) == 1
        assert "replications must be at least 2" in capsys.readouterr().err
        res = simulate(solver_b.gauss_markov_spec(1.0), PolicySpec.threshold(1.0),
                       SimConfig(horizon=50, replications=2, burn_in=5))
        assert res.replications_used == 2 and res.d_se > 0.0 and res.n_se > 0.0


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
        one_in_4 = PolicySpec.periodic_one_in(4)
        assert state_blind_distortion(one_in_4, 1.0) == pytest.approx(1.5)
        assert state_blind_distortion(one_in_4, 2.0) == pytest.approx(6.0)
        assert state_blind_distortion(PolicySpec.periodic((0, 1)), 1.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    def test_irregular_pattern_matches_variance_recursion(self, sigma):
        # E e^2 over two periods: a send costs 0 and restarts the error at one
        # innovation, a silent step costs the variance and adds one innovation;
        # the first period holds a send, so the second is stationary
        pattern = (1, 0, 1, 1, 0)
        var, costs = 0.0, []
        for u in pattern * 2:
            costs.append(0.0 if u else var)
            var = sigma * sigma if u else var + sigma * sigma
        recursion = sum(costs[len(pattern):]) / len(pattern)
        got = state_blind_distortion(PolicySpec.periodic(pattern), sigma)
        assert got == pytest.approx(recursion, rel=1e-12)
        assert got == pytest.approx(0.4 * sigma * sigma, rel=1e-12)

    def test_periodic_formula_guards(self):
        # a pattern that never sends has no finite average; state-aware kinds
        # have no state-blind formula
        for policy in (PolicySpec.periodic((0, 0, 0)), PolicySpec.threshold(1.0),
                       PolicySpec.steering(1, 0.5)):
            with pytest.raises(UsageError):
                state_blind_distortion(policy, 1.0)

    @pytest.mark.parametrize("sigma", [-2.0, 0.0, math.nan, math.inf])
    def test_sigma_must_be_positive_and_finite(self, sigma):
        # -2.0 gave the distortion of sigma = 2, and NaN a NaN
        with pytest.raises(UsageError, match="sigma"):
            state_blind_distortion(PolicySpec.iid_random(0.5), sigma)

    def test_stopping_time_formula(self):
        # geometric stopping with success probability alpha: 1/alpha - 1
        assert state_blind_distortion(PolicySpec.iid_random(0.25), 1.0) == pytest.approx(3.0)
        # transmit every step
        assert state_blind_distortion(PolicySpec.periodic((1,)), 3.0) == 0.0


def steering_policy_step(counters, e, k, theta):
    """Scalar reference of the steering rule, one decision: at |e| = k the
    action whose target share is most under-served (judged after counting
    the candidate decision) is chosen, ties transmitting; elsewhere the
    threshold rule applies.  Counters (silent, sent) advance only at |e| = k."""
    a0, a1 = counters
    if abs(e) == k:
        tot = a0 + a1 + 1.0
        if theta - (a1 + 1.0) / tot >= (1.0 - theta) - (a0 + 1.0) / tot:
            return 1, (a0, a1 + 1.0)
        return 0, (a0 + 1.0, a1)
    return (1 if abs(e) > k else 0), (a0, a1)


def time_sharing_step(cursor, e, k, phases):
    """Scalar reference of the time-sharing rule, one step: the cursor (j,
    used) is in phase j, whose cycles run threshold k (j even) or k + 1 (j
    odd), after ``used`` of its ``phases[j]`` cycles; a transmission ends a
    cycle, and a phase ends after its last cycle."""
    j, used = cursor
    while used == phases[j]:
        j, used = (j + 1) % len(phases), 0
    u = 1 if abs(e) >= k + j % 2 else 0
    return u, (j, used + u)


def counted_rule(policy, n, T):
    """A steering or time-sharing rule over ``n`` replications run for ``T``
    steps as the block's step loop runs it, ``decide(abs_e) -> U``: the
    rule's table extended before each chunk of ``_chunk_rows(n, T)`` steps,
    the compare against the rule's thresholds, then the step's events added
    into the counts and the table taken into the thresholds, with no
    clipping, so a table that misses a count raises.  ``state["table"]`` is
    the table."""
    rule = simulate_module._transmit_rule(policy, T, None)
    m = simulate_module._chunk_rows(n, T)
    counts, thr = np.zeros(n, dtype=np.intp), np.empty(n)
    state = {"table": np.empty(0), "t": 0}

    def decide(abs_e):
        if state["t"] % m == 0:
            state["table"] = simulate_module._extend_table(rule, state["table"], counts, thr, m)
        state["t"] += 1
        U = abs_e >= thr
        np.add(counts, abs_e == policy.k if policy.kind == "steering" else U, counts)
        state["table"].take(counts, None, thr)
        return U

    return decide, state


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
        rule, _ = counted_rule(PolicySpec.steering(k, theta), n, T)
        counters = [(0.0, 0.0)] * n
        for t in range(T):
            U = rule(abs_e[t])
            for i in range(n):
                u, counters[i] = steering_policy_step(counters[i], abs_e[t, i], k, theta)
                assert bool(U[i]) == bool(u), (t, i)
        assert sum(c[1] for c in counters) > 0 and sum(c[0] for c in counters) > 0

    @pytest.mark.parametrize("theta", [0.0, 0.25, 0.35, 0.5, 0.6899, 1.0])
    def test_rule_matches_scalar_step_over_many_visits(self, theta, monkeypatch):
        # one replication at |e| = k on every step: 1e5 boundary visits,
        # read off a decision table extended every 997 visits
        monkeypatch.setattr(simulate_module, "CHUNK_CELLS", 997)
        k, T = 3.0, 100_000
        abs_e = np.full(1, k)
        rule, _ = counted_rule(PolicySpec.steering(k, theta), 1, T)
        got = np.array([rule(abs_e)[0] for t in range(T)])
        counters, want = (0.0, 0.0), np.empty(T, dtype=bool)
        for t in range(T):
            want[t], counters = steering_policy_step(counters, k, k, theta)
        assert np.array_equal(got, want)

    def test_decision_table_spans_visit_counts_plus_a_chunk(self, monkeypatch):
        # replications visit |e| = k at rates 0.3-0.5, so their visit counts
        # drift apart; the table holds at most the widest span of the counts
        # so far plus one chunk (8 visits), not the visits all have made
        monkeypatch.setattr(simulate_module, "CHUNK_CELLS", 5 * 8)
        k, theta, n, T = 2.0, 0.37, 5, 3000
        rng = np.random.default_rng(4)
        rates = np.array([0.3, 0.35, 0.4, 0.45, 0.5])
        rule, state = counted_rule(PolicySpec.steering(k, theta), n, T)
        counters = [(0.0, 0.0)] * n
        visits = np.zeros(n, dtype=np.int64)
        span = 0
        for t in range(T):
            abs_e = np.where(rng.random(n) < rates, k, rng.choice([0.0, 1.0, 3.0], n))
            U = rule(abs_e)
            for i in range(n):
                u, counters[i] = steering_policy_step(counters[i], abs_e[i], k, theta)
                assert bool(U[i]) == bool(u), (t, i)
            visits += abs_e == k
            span = max(span, int(visits.max() - visits.min()))
            assert len(state["table"]) <= span + 8 + 1, t
        assert len(state["table"]) < visits.min()

    def test_model_b_run_decides_only_the_visits_made(self, monkeypatch):
        # a continuous state almost never meets |e| = k, so the tables grow
        # with the visits made, not by a chunk of decisions (8193 here)
        asked = []

        def rule(policy, T, rng):
            decide = transmit_rule(policy, T, rng)
            return lambda m: asked.append(m) or decide(m)

        transmit_rule = simulate_module._transmit_rule
        monkeypatch.setattr(simulate_module, "_transmit_rule", rule)
        simulate(solver_b.gauss_markov_spec(1.0), PolicySpec.steering(2.0, 0.4),
                 SimConfig(horizon=15_000, replications=32, burn_in=1000))
        assert 0 < sum(asked) < 100, asked

    @pytest.mark.parametrize("k", [0.0, 1.0, 2.0])
    def test_model_b_tables_grown_on_demand_match_chunk_tables(self, k, monkeypatch):
        # innovations rounded to whole numbers meet |e| = k on many steps; the tables
        # grown on the step a count reaches their end give the bits of tables
        # extended a chunk ahead, as a block that is not Model B extends them
        monkeypatch.setattr(simulate_module, "CHUNK_CELLS", 6 * 37)
        spec = ModelSpecB(1.0, triangle_pdf(WholePdf), DistortionFn.quadratic(), 1.0)
        policies = [PolicySpec.steering(k, 0.37), PolicySpec.steering(k + 1.0, 0.8)]
        config = SimConfig(horizon=400, replications=3, burn_in=20, seed=5)
        grown = simulate_policies(spec, policies, config)
        monkeypatch.setattr(simulate_module, "ModelSpecB", type("NotModelB", (), {}))
        assert simulate_policies(spec, policies, config) == grown
        assert all(0.0 < r.n_hat < 1.0 for r in grown)

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


def _stationary_reference(spec, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(states, probabilities) of the error before each decision under the
    threshold-k policy at beta = 1, from the dense chain on the full line:
    the route the folded cycle visits of ``steering_visit_probability``
    replace."""
    r = spec.pmf.radius
    m = max(abs(spec.a) * max(k - 1, 0) + r, r)
    states = np.arange(-m, m + 1)
    P = np.zeros((len(states), len(states)))
    for i, e in enumerate(states):
        origin = spec.a * int(e) if abs(e) < k else 0
        for w, pw in spec.pmf.items:
            P[i, origin + w + m] += pw
    A = np.vstack([P.T - np.eye(len(states)), np.ones(len(states))])
    b = np.zeros(len(states) + 1)
    b[-1] = 1.0
    pi = np.linalg.lstsq(A, b, rcond=None)[0]
    return states, pi / pi.sum()


class TestStationaryDistribution:
    def test_transmit_mass_equals_rate(self, bd_avg):
        for k in (1, 2, 3):
            states, pi = _stationary_reference(bd_avg, k)
            rate = float(pi[np.abs(states) >= k].sum())
            ana = solver_a.performance(bd_avg, k).transmission_rate
            assert rate == pytest.approx(ana, abs=1e-10)

    def test_visit_probability_birth_death(self, bd_avg):
        # occupation-measure weighting of theta* = 0.4 between k = 2 and 3:
        # boundary masses are 0.15 (under k=2) and 2/9 (under k=3)
        tv = steering_visit_probability(bd_avg, 2, 0.4)
        expect = 0.4 * 0.15 / (0.4 * 0.15 + 0.6 * (2.0 / 9.0))
        assert tv == pytest.approx(expect, abs=1e-10)

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([-1, 0, 1, 2]), st.integers(0, 9),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_chain(self, seed, a, k, theta):
        pmf = IntegerPmf(random_valid_pmf(np.random.default_rng(seed), 4))
        spec = ModelSpecA(a, pmf, DistortionFn.quadratic(), 1.0)
        w = []
        for kk in (k, k + 1):
            states, pi = _stationary_reference(spec, kk)
            w.append(float(pi[np.abs(states) == k].sum()))
        den = theta * w[0] + (1.0 - theta) * w[1]
        if den <= 0.0:
            with pytest.raises(NumericsError):
                steering_visit_probability(spec, k, theta)
        else:
            got = steering_visit_probability(spec, k, theta)
            assert got == pytest.approx(theta * w[0] / den, rel=1e-12)

    def test_reset_source_at_radius(self):
        # a = 0: the silent set {0, 1} of threshold 2 has no exit, and the
        # boundary mass is P(|W| = 1) = 0.6 under either threshold
        spec = solver_a.bd_spec(0.3, 1.0, a=0)
        for kk in (1, 2):
            states, pi = _stationary_reference(spec, kk)
            assert pi[np.abs(states) == 1].sum() == pytest.approx(0.6, rel=1e-12)
        assert steering_visit_probability(spec, 1, 0.4) == pytest.approx(0.4, rel=1e-12)

    def test_deep_threshold(self):
        # the dense chain's value: it solves a 3999 x 3999 system
        got = steering_visit_probability(solver_a.bd_spec(0.3, 1.0, a=2), 1000, 0.4)
        assert got == pytest.approx(0.40001248390938643, abs=1e-10)

    def test_visit_probability_degenerate(self, bd_avg):
        assert steering_visit_probability(bd_avg, 2, 0.0) == 0.0
        assert steering_visit_probability(bd_avg, 2, 1.0) == 1.0
        with pytest.raises(UsageError):
            steering_visit_probability(bd_avg, 2.5, 0.4)
        # a pure mixture weight does not skip the checks of beta and k_star
        with pytest.raises(UsageError):
            steering_visit_probability(solver_a.bd_spec(0.3, 0.9), 2, 1.0)
        with pytest.raises(UsageError):
            steering_visit_probability(bd_avg, -3, 0.0)
        with pytest.raises(UsageError):
            steering_visit_probability(bd_avg, 2.5, 1.0)
        for theta in (-0.1, 1.5):
            with pytest.raises(UsageError, match="theta_star"):
                steering_visit_probability(bd_avg, 2, theta)


class TestTimeSharing:
    def test_schedule_arithmetic(self):
        assert time_sharing_schedule(0.15, 0.15, 0.0667, 1.0) == [(1, 0)]
        assert time_sharing_schedule(0.1, 0.15, 0.6 / 9.0, 0.4) == [(3, 2)]
        # theta * n_k / alpha = 0.69 * 0.15 / 0.1035 = 1 exactly
        assert time_sharing_schedule(0.1035, 0.15, 0.0667, 0.69) == [(1, 0)]

    def test_schedule_guards(self):
        with pytest.raises(UsageError):
            time_sharing_schedule(0.1, 0.05, 0.15, 0.5)
        with pytest.raises(UsageError):
            time_sharing_schedule(0.0, 0.5, 0.2, 0.4)
        with pytest.raises(UsageError, match="theta"):
            time_sharing_schedule(0.1, 0.15, 0.05, 1.5)
        # theta * n_k / alpha = 0.15 / 0.05 = 3: no cycle fraction reaches it
        with pytest.raises(UsageError, match="cycle fraction"):
            time_sharing_schedule(0.05, 0.15, 0.0667, 1.0)

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
        # a phase of more cycles than steps never ends within the run, even
        # one of more cycles than an int64 holds
        cfg = SimConfig(horizon=3000, replications=4, burn_in=100, seed=71)
        want = simulate(bd_avg, PolicySpec.threshold(2), cfg)
        for cycles in (10**12, 10**19):
            res = simulate(bd_avg, PolicySpec.time_sharing(2, [(cycles, 1)]), cfg)
            assert res == want, cycles

    @pytest.mark.parametrize("schedule", [
        [(3, 2), (0, 1), (2, 0), (1, 4)],
        [(0, 2), (1, 0), (5, 3)],
        [(2, 1), (10**19, 3)],
    ])
    def test_vector_rule_matches_scalar_walk(self, schedule, monkeypatch):
        # |e| in {0, ..., 4} transmits at k = 2 on 3/5 of the steps and at
        # k + 1 on 2/5, so the replications' cycle counts drift apart; the
        # cycle table is rebased and extended every 8 steps
        monkeypatch.setattr(simulate_module, "CHUNK_CELLS", 5 * 8)
        k, n, T = 2.0, 5, 3000
        abs_e = np.random.default_rng(11).integers(0, 5, size=(T, n)).astype(float)
        policy = PolicySpec.time_sharing(k, schedule)
        rule, state = counted_rule(policy, n, T)
        phases = [cycles for entry in schedule for cycles in entry]
        cursors = [(0, 0)] * n
        sent = np.zeros(n, dtype=np.int64)
        for t in range(T):
            U = rule(abs_e[t])
            for i in range(n):
                u, cursors[i] = time_sharing_step(cursors[i], abs_e[t, i], k, phases)
                assert bool(U[i]) == bool(u), (t, i)
            sent += U
        assert len(state["table"]) < sent.min()

    def test_memory_does_not_grow_with_schedule(self, bd_avg):
        # 40 entries of 1e5 + 1e5 cycles: a table of every cycle of the
        # schedule cut at the horizon would hold 8e6 floats (64 MB)
        policy = PolicySpec.time_sharing(2, [(10**5, 10**5)] * 40)
        cfg = SimConfig(horizon=10**5, replications=2, seed=3)
        tracemalloc.start()
        try:
            simulate(bd_avg, policy, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


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


def triangle_pdf(pdf_class=SmoothPdf, fn=lambda w: np.clip(1.0 - np.abs(w), 0.0, None)):
    return pdf_class.tabulated(fn, 1.0)


# Recorded from the serial-draw simulator (stream layout 2, chunks of
# CHUNK_CELLS = 2**18 draws) by running each case below once: discounted
# runs of 2e4 replications x 219 steps (beta = 0.9, seed 17), 17 chunks of 13
# steps, so every chunk but the first is drawn while another is stepped.
# The digest covers the per-replication (d, n) sums, whose last bits the
# means can hide.
GOLDEN_WIDE = {
    "A": (solver_a.bd_spec(0.3, 0.9), PolicySpec.randomized_threshold(2, 0.4),
          (0.6439024260205765, 0.07768535103290258, 0.0015057482049140739,
           0.00041776064570202834), "88fe568ec7f10dac"),
    "B": (solver_b.gauss_markov_spec(1.0, beta=0.9), PolicySpec.threshold(1.2),
          (0.2645037910212277, 0.25642886991869956, 0.0005442190808142052,
           0.0006039225526150951), "d59bdc3a0981e8ea"),
    "B-tabulated": (ModelSpecB(1.0, triangle_pdf(), DistortionFn.quadratic(), 0.9),
                    PolicySpec.threshold(0.8),
                    (0.12625431719950894, 0.12748941611170475, 0.0002484166888384115,
                     0.0004282482995977218), "29f79a3a8fadb7e7"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_WIDE))
def test_golden_wide_discounted(case, monkeypatch):
    spec, policy, (d_hat, n_hat, d_se, n_se), digest = GOLDEN_WIDE[case]
    sums = []
    estimate = simulate_module._estimate
    monkeypatch.setattr(simulate_module, "_estimate", lambda d, u, *args: (
        sums.append(hashlib.sha256(d.tobytes() + u.tobytes()).hexdigest()[:16])
        or estimate(d, u, *args)))
    res = simulate(spec, policy, SimConfig(replications=20_000, seed=17))
    assert res == SimResult(d_hat=d_hat, n_hat=n_hat, d_se=d_se, n_se=n_se,
                            replications_used=20_000,
                            stream_id="pcg64[17,2]:innov|policy,time-major",
                            steps_per_replication=219)
    assert sums == [digest]


# Recorded from the simulator that stepped whole chunks (stream layout 2) by
# running each case below once: (d_hat, n_hat, d_se, n_se) and the digest of
# the per-replication sums at 5 reps x 600 steps, burn-in 50, seed 13, in
# chunks of 23 steps (CHUNK_CELLS = 23 x the run's width), so a run crosses 26
# (Model A) or 19 (Model B, 449 steps) chunk boundaries and the burn-in ends
# inside the third chunk.  A block of the six kinds sums each row as its own
# run does, so it gives the same bits.
GOLDEN_CHUNKED = {
    ("A", "threshold"): ((0.5061818181818182, 0.14945454545454545, 0.005680181582477572, 0.005645154435003647), "6d026898bbf7bd34"),
    ("A", "randomized_threshold"): ((0.8272727272727274, 0.08909090909090908, 0.07911076030916536, 0.01801743875176363), "c8be1b30d1cc1a8b"),
    ("A", "periodic"): ((0.4836363636363636, 0.3327272727272727, 0.005947428085016772, 0.0), "d54cf22b2d28d867"),
    ("A", "iid_random"): ((0.6978181818181819, 0.29818181818181816, 0.02595864479647237, 0.014142135623730949), "2b7fe27078e4bde4"),
    ("A", "steering"): ((0.7327272727272727, 0.10836363636363636, 0.009824913517168223, 0.004865122967367146), "14ac0f76d66f0252"),
    ("A", "time_sharing"): ((0.7141818181818183, 0.10327272727272727, 0.019313849781657462, 0.007259078100973499), "a937a27066cac068"),
    ("B", "threshold"): ((0.28637631587959944, 0.22003093696381812, 0.020319116014592735, 0.007747304690917493), "52ad988d6263850c"),
    ("B", "randomized_threshold"): ((0.26110221465784644, 0.2885548130547476, 0.06575034370750431, 0.05009646571560421), "4b1902b1187a08af"),
    ("B", "periodic"): ((0.2913132984508147, 0.6494303242105762, 0.06495849275421395, 0.0), "486b781f33093e4b"),
    ("B", "iid_random"): ((0.7512080363867174, 0.40310397542645926, 0.13857016355229151, 0.02463304512853476), "46c41294d1311e43"),
    ("B", "steering"): ((0.20961828373424565, 0.3077194002414857, 0.022026930088808874, 0.03459034545165911), "1f07b8ff57380205"),
    ("B", "time_sharing"): ((0.638416174112538, 0.14264071600468844, 0.03460038188043161, 0.004581919307039012), "63ac1db6d914d104"),
}


@pytest.mark.parametrize("model", ["A", "B"])
@pytest.mark.parametrize("together", [False, True], ids=["alone", "block"])
def test_golden_chunked(model, together, monkeypatch):
    cfg = SimConfig(horizon=600, replications=5, burn_in=50, seed=13)
    kinds = list(GOLDEN_POLICIES[model])
    sums = []
    estimate = simulate_module._estimate
    monkeypatch.setattr(simulate_module, "_estimate", lambda d, u, *args: (
        sums.append(hashlib.sha256(d.tobytes() + u.tobytes()).hexdigest()[:16])
        or estimate(d, u, *args)))
    blocks = [kinds] if together else [[kind] for kind in kinds]
    results = []
    for block in blocks:
        monkeypatch.setattr(simulate_module, "CHUNK_CELLS", 23 * len(block) * cfg.replications)
        results += simulate_policies(golden_spec(model),
                                     [GOLDEN_POLICIES[model][kind] for kind in block], cfg)
    for kind, res, digest in zip(kinds, results, sums, strict=True):
        assert ((res.d_hat, res.n_hat, res.d_se, res.n_se), digest) == \
            GOLDEN_CHUNKED[(model, kind)], kind


class WholePdf(SmoothPdf):
    """A density whose draws, scaled by 3, are rounded to whole numbers, so
    that a state built from them meets a whole threshold exactly."""

    def sampler(self, rng, size=None, out=None):
        w = super().sampler(rng, size, out)
        return np.rint(np.multiply(w, 3.0, out=w), out=w)


class DrawFailed(Exception):
    """Raised by a test density's draw of its second chunk."""


class SecondChunkFails(SmoothPdf):
    """Tabulated density whose draws into the second chunk of ``CHUNK``
    cells it is asked for raise, however many calls a chunk is drawn in;
    the draws before and after it succeed.  ``raised`` keeps the failures,
    the first first.  One density serves one run."""

    CHUNK = 37 * 5
    drawn = 0
    raised = ()

    def sampler(self, rng, size=None, out=None):
        start = self.drawn
        self.drawn += out.size
        if self.CHUNK <= start < 2 * self.CHUNK:
            self.raised += (DrawFailed("second chunk"),)
            raise self.raised[-1]
        return super().sampler(rng, size, out)


class SlowSecondChunkFails(SecondChunkFails):
    """``SecondChunkFails`` whose every draw takes 20 ms; ``calls`` keeps the
    first cell of each draw it is asked for, in order."""

    calls = ()

    def sampler(self, rng, size=None, out=None):
        self.calls += (self.drawn,)
        time.sleep(0.02)
        return super().sampler(rng, size, out)


class TestDrawAhead:
    """The innovations are drawn one chunk ahead on a second thread: a
    failure on either thread reaches the caller unchanged and leaves no
    thread running."""

    def test_table_built_once_per_run(self, monkeypatch):
        monkeypatch.setattr(simulate_module, "CHUNK_CELLS", 37 * 5)
        calls = []
        pdf = triangle_pdf(fn=lambda w: calls.append(1) or np.clip(1.0 - np.abs(w), 0.0, None))
        simulate(ModelSpecB(1.0, pdf, DistortionFn.quadratic(), 1.0), PolicySpec.threshold(0.8),
                 SimConfig(horizon=600, replications=5, burn_in=50))
        assert len(calls) == 1

    def test_overflow_mid_run(self, monkeypatch, capsys):
        # 20-step chunks: the overflow near step 520 is found while the next
        # chunk is being drawn
        monkeypatch.setattr(simulate_module, "CHUNK_CELLS", 20 * 2)
        threads = threading.active_count()
        with pytest.raises(NumericsError, match=r"for policy 0 \(threshold\);") as caught:
            simulate(solver_b.gauss_markov_spec(1.0, a=2.0), PolicySpec.threshold(1e200),
                     SimConfig(horizon=3000, replications=2, seed=1))
        assert int(re.search(r"after step (\d+) of 3000 ", str(caught.value))[1]) < 3000
        assert threading.active_count() == threads
        code = cli.main(["simulate", "--model", "B", "--a", "2", "--policy", "threshold",
                         "--k", "1e200", "--reps", "2", "--horizon", "3000", "--seed", "1"])
        assert code == 2
        assert f"numerical failure: {caught.value}" in capsys.readouterr().err
        assert threading.active_count() == threads

    def test_concurrent_runs_under_fast_switching(self, monkeypatch):
        # three runs at once, on more threads than cores, with the interpreter
        # switching threads every microsecond: each run still gives exactly
        # what it gives alone, over 82 chunk handoffs
        monkeypatch.setattr(simulate_module, "CHUNK_CELLS", 37 * 7)
        cfg = SimConfig(horizon=3000, replications=7, burn_in=200, seed=11)
        cases = [(golden_spec(model), GOLDEN_POLICIES[model][kind]) for model, kind in
                 (("A", "iid_random"), ("B", "randomized_threshold"), ("B", "steering"))]
        alone = [simulate(spec, policy, cfg) for spec, policy in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(cases)) as pool:
                together = list(pool.map(lambda case: simulate(*case, cfg), cases, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert together == alone

    def test_failed_run_stops_drawing(self, monkeypatch):
        # the next chunk's slices are queued before the failing one is read;
        # the caller's exception cancels them, so after the first failed draw
        # at most the draw already under way runs, not a chunk and a half
        monkeypatch.setattr(simulate_module, "CHUNK_CELLS", SecondChunkFails.CHUNK)
        pdf = triangle_pdf(SlowSecondChunkFails)
        threads = threading.active_count()
        with pytest.raises(DrawFailed) as caught:
            simulate(ModelSpecB(1.0, pdf, DistortionFn.quadratic(), 1.0), PolicySpec.threshold(0.8),
                     SimConfig(horizon=600, replications=5, burn_in=50))
        assert caught.value is pdf.raised[0]
        first = next(i for i, cell in enumerate(pdf.calls) if cell >= SecondChunkFails.CHUNK)
        assert len(pdf.calls) - first - 1 <= 1, pdf.calls
        assert threading.active_count() == threads

    def test_draw_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(simulate_module, "CHUNK_CELLS", SecondChunkFails.CHUNK)
        pdf = triangle_pdf(SecondChunkFails)
        spec = ModelSpecB(1.0, pdf, DistortionFn.quadratic(), 1.0)
        threads = threading.active_count()
        with pytest.raises(DrawFailed) as caught:
            simulate(spec, PolicySpec.threshold(0.8),
                     SimConfig(horizon=600, replications=5, burn_in=50))
        assert caught.value is pdf.raised[0]
        assert threading.active_count() == threads
        pdf = triangle_pdf(SecondChunkFails)
        spec = ModelSpecB(1.0, pdf, DistortionFn.quadratic(), 1.0)
        monkeypatch.setattr(cli, "_spec_from_args", lambda args: spec)
        with pytest.raises(DrawFailed) as caught:
            cli.main(["simulate", "--model", "B", "--policy", "threshold", "--k", "0.8",
                      "--reps", "5", "--horizon", "600", "--burn-in", "50"])
        assert caught.value is pdf.raised[0]
        assert threading.active_count() == threads


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
        # in one chunk, the 50 x 3e4 run holds the innovations, |e| and transmit
        # flags of every step at once: 37.6 MB at peak
        cfg = SimConfig(horizon=30_000, replications=50, burn_in=1000, seed=5)
        tracemalloc.start()
        try:
            simulate(bd_avg, PolicySpec.threshold(2), cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * simulate_module.CHUNK_CELLS * 8


class TestBlock:
    """Several policies over one draw of the innovations and one step loop."""

    @pytest.mark.parametrize("model", ["A", "B"])
    def test_golden_results(self, model):
        # 6 policies x 7 replications x 3000 steps fit in one chunk
        kinds = sorted(GOLDEN_POLICIES[model])
        results = simulate_policies(golden_spec(model),
                                    [GOLDEN_POLICIES[model][kind] for kind in kinds],
                                    SimConfig(horizon=3000, replications=7, burn_in=200, seed=11))
        for kind, res in zip(kinds, results):
            assert (res.d_hat, res.n_hat, res.d_se, res.n_se,
                    res.steps_per_replication) == GOLDEN[(model, kind)], kind
            assert res.stream_id == "pcg64[11,2]:innov|policy,time-major"

    @pytest.mark.parametrize("model", ["A", "B"])
    def test_matches_separate_runs_across_chunks(self, model, monkeypatch):
        cfg = SimConfig(horizon=600, replications=5, burn_in=50, seed=13)
        policies = list(GOLDEN_POLICIES[model].values())
        # stateful and threshold kinds interleaved among the block's rows
        policies = policies[::2] + policies[1::2]
        separate = [simulate(golden_spec(model), policy, cfg) for policy in policies]
        width = len(policies) * cfg.replications
        for rows in (1, 37):
            monkeypatch.setattr(simulate_module, "CHUNK_CELLS", rows * width)
            block = simulate_policies(golden_spec(model), policies, cfg)
            for res, one in zip(block, separate):
                assert res.stream_id == one.stream_id
                assert res.steps_per_replication == one.steps_per_replication
                for field in ("d_hat", "n_hat", "d_se", "n_se"):
                    assert getattr(res, field) == pytest.approx(getattr(one, field),
                                                                rel=1e-12), (rows, field)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_blocks_match_separate_runs(self, data):
        # random kinds in random row order, so state-blind rows fall anywhere
        # among the rows the compare writes; chunks from one step to one chunk
        model = data.draw(st.sampled_from(["A", "B"]))
        beta = data.draw(st.sampled_from([1.0, 0.9]))
        spec = (solver_a.bd_spec(0.3, beta) if model == "A"
                else solver_b.gauss_markov_spec(1.0, beta=beta))
        # Model A takes integer thresholds; k = 2 puts |e| = k on many steps
        k = st.integers(0, 4) if model == "A" else st.floats(0.2, 2.5)
        unit = st.floats(0.0, 1.0)
        policies = data.draw(st.lists(st.one_of(
            st.builds(PolicySpec.threshold, k),
            st.builds(PolicySpec.randomized_threshold, k, unit),
            st.builds(PolicySpec.periodic, st.lists(st.integers(0, 1), min_size=1,
                                                    max_size=5).filter(any)),
            st.builds(PolicySpec.iid_random, st.floats(0.05, 1.0)),
            st.builds(PolicySpec.steering, k, unit),
            st.builds(PolicySpec.time_sharing, k, st.lists(
                st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any),
                min_size=1, max_size=3)),
        ), min_size=1, max_size=6))
        cfg = SimConfig(horizon=300, replications=data.draw(st.integers(2, 5)), burn_in=20,
                        seed=data.draw(st.integers(0, 2**32 - 1)))
        rows = data.draw(st.integers(1, 300))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate_module, "CHUNK_CELLS",
                          rows * len(policies) * cfg.replications)
            block = simulate_policies(spec, policies, cfg)
            for res, policy in zip(block, policies, strict=True):
                one = simulate(spec, policy, cfg)
                assert res.stream_id == one.stream_id
                assert res.steps_per_replication == one.steps_per_replication
                for field in ("d_hat", "n_hat", "d_se", "n_se"):
                    assert getattr(res, field) == pytest.approx(getattr(one, field),
                                                                rel=1e-12), (policy, field)

    def test_memory_bounded_by_chunk(self, bd_avg):
        # in one chunk, five policies of 50 replications hold the innovations,
        # |e| and transmit flags of all 5000 steps at once: 18.9 MB at peak; the
        # horizon is short, since tracing every allocation slows the step loop
        cfg = SimConfig(horizon=4000, replications=50, burn_in=1000, seed=5)
        policies = [PolicySpec.threshold(2), PolicySpec.threshold(3),
                    PolicySpec.randomized_threshold(2, 0.4), PolicySpec.periodic((1, 0, 0)),
                    PolicySpec.iid_random(0.3)]
        tracemalloc.start()
        try:
            simulate_policies(bd_avg, policies, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * simulate_module.CHUNK_CELLS * 8

    def test_caps_apply_per_policy(self, bd_avg, monkeypatch):
        # three policies of 1000 draws each run under a cap of 1000; iid coins
        # double one policy's draws, and that policy alone is refused
        monkeypatch.setattr(simulate_module, "MAX_SIM_CELLS", 1000)
        monkeypatch.setattr(simulate_module, "MAX_SIM_STEPS", 100)
        cfg = SimConfig(horizon=100, replications=10, burn_in=10)
        policies = [PolicySpec.threshold(2), PolicySpec.threshold(3), PolicySpec.periodic((1, 0))]
        assert len(simulate_policies(bd_avg, policies, cfg)) == 3
        with pytest.raises(UsageError, match="cap"):
            simulate_policies(bd_avg, policies + [PolicySpec.iid_random(0.5)], cfg)
        with pytest.raises(UsageError, match="cap"):
            simulate_policies(bd_avg, [PolicySpec.threshold(2)],
                              SimConfig(horizon=101, replications=2, burn_in=10))
        # a discounted run's steps come from beta alone, not from the horizon
        with pytest.raises(UsageError, match=r"^219 steps are above the cap of 1e\+02; "
                                             "lower the discount factor$"):
            simulate_policies(solver_a.bd_spec(0.3, 0.9), [PolicySpec.threshold(2)], cfg)

    def test_width_cap_applies_to_the_block(self, bd_avg, monkeypatch):
        # the cap counts policies x replications of the whole block, and a block
        # above it is refused before its state is allocated
        monkeypatch.setattr(simulate_module, "MAX_SIM_WIDTH", 20)
        cfg = SimConfig(horizon=100, replications=10, burn_in=10)
        assert len(simulate_policies(bd_avg, [PolicySpec.threshold(2)] * 2, cfg)) == 2
        monkeypatch.setattr(simulate_module, "_run_block", None)
        with pytest.raises(UsageError, match="3 x 10 policy replications are above the "
                                             "width cap of 20 cells"):
            simulate_policies(bd_avg, [PolicySpec.threshold(2)] * 3, cfg)

    def test_overflow_names_the_policy(self):
        # the state outgrows float64 below k = 1e200 but not below k = 1
        spec = solver_b.gauss_markov_spec(1.0, a=2.0)
        policies = [PolicySpec.threshold(1.0), PolicySpec.threshold(1e200)]
        with pytest.raises(NumericsError, match=r"not finite after step \d+ of 3000 "
                                                r"for policy 1 \(threshold\);"):
            simulate_policies(spec, policies, SimConfig(horizon=3000, replications=2, seed=1))

    def test_empty_block_rejected(self, bd_avg):
        with pytest.raises(UsageError):
            simulate_policies(bd_avg, [], SimConfig(horizon=100, replications=2, burn_in=10))

    def test_stats_count_loops_policies_and_draws(self, bd_avg):
        cfg = SimConfig(horizon=300, replications=4, burn_in=10)
        with collect() as record:
            simulate_policies(bd_avg, [PolicySpec.threshold(2), PolicySpec.iid_random(0.5)],
                              cfg)
            simulate_policies(bd_avg, [PolicySpec.threshold(3)], cfg)
        assert record == Diagnostics(step_loops=2, simulated_policies=3, draws=2 * 4 * 300)

    @pytest.mark.parametrize("model", ["A", "B"])
    def test_counting_leaves_results_unchanged(self, model):
        cfg = SimConfig(horizon=600, replications=5, burn_in=50, seed=13)
        policies = list(GOLDEN_POLICIES[model].values())
        outside = simulate_policies(golden_spec(model), policies, cfg)
        with collect():
            inside = simulate_policies(golden_spec(model), policies, cfg)
        assert inside == outside


def _log_gaussian_half(sigma, radius):
    """log10 of a discretized Gaussian's unnormalized masses at 0..radius."""
    return [-n * n / (2.0 * sigma * sigma) / math.log(10.0) for n in range(radius + 1)]


def _pmf_from_log_half(log_half):
    """The symmetric unimodal pmf with masses 10^h, sorted, at 0, +-1, ..."""
    half = 10.0 ** np.sort(log_half)[::-1]
    mass = {n: half[abs(n)] for n in range(1 - len(half), len(half))}
    total = sum(mass.values())
    return IntegerPmf({n: p / total for n, p in mass.items()})


class FixedUniforms:
    """A generator whose ``random`` returns the given uniforms, in order."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size=None, out=None):
        if out is None:
            return self.u.reshape(size).copy()
        out[...] = self.u.reshape(out.shape)
        return out


class TestPmfSampler:
    @staticmethod
    def located(pmf, u):
        """The offsets ``searchsorted`` locates for ``u`` in the law's CDF."""
        cdf = np.cumsum(pmf.values)
        cdf[-1] = 1.0
        return pmf.offsets[np.searchsorted(cdf, u, side="right")].astype(float)

    @staticmethod
    def hard_uniforms(pmf):
        """Every CDF value, its two neighbouring floats, every guide-table cell
        edge g/G and the largest uniform below 1, with a few random ones."""
        cdf = np.cumsum(pmf.values)
        G = pmf._guide[1]
        u = np.concatenate((cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
                            np.arange(G) / G, [np.nextafter(1.0, 0.0)],
                            np.random.default_rng(1).random(1000)))
        return u[(u >= 0.0) & (u < 1.0)]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-15.0, 0.0), min_size=2, max_size=151))
    @example(_log_gaussian_half(3.0, 20))
    @example(_log_gaussian_half(20.0, 130))
    def test_guide_table_is_searchsorted(self, log_half):
        # radius 1-150, tail masses down to 1e-15 of p_0, so several CDF values
        # can share a cell of the guide table
        pmf = _pmf_from_log_half(log_half)
        u = self.hard_uniforms(pmf)
        assert np.array_equal(pmf.sampler(FixedUniforms(u), u.size), self.located(pmf, u))

    @pytest.mark.parametrize("pmf, crowded", [
        # CDF values 1/4 and 3/4 are cell edges of its 16 cells
        (IntegerPmf.birth_death(0.25), False),
        (_pmf_from_log_half(_log_gaussian_half(3.0, 20)), True),
    ])
    def test_with_and_without_crowded_cells(self, pmf, crowded):
        _, G, _, _, cells = pmf._guide
        u = self.hard_uniforms(pmf)
        # the sigma = 3 Gaussian's tails crowd two CDF values into a cell, and
        # the uniforms in those cells are located by searchsorted
        assert (cells is not None) == crowded
        if crowded:
            assert cells[(u * G).astype(np.intp)].any()
        # an odd shape: one full block of _SEARCH_BLOCK and a partial last one
        u = np.resize(u, (3, _SEARCH_BLOCK // 2 + 1))
        assert np.array_equal(pmf.sampler(FixedUniforms(u), u.shape), self.located(pmf, u))

    def test_draw_allocates_three_blocks_at_most(self):
        pmf = _pmf_from_log_half(_log_gaussian_half(20.0, 130))
        out = np.empty(2**18)
        rng = np.random.default_rng(4)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            pmf.sampler(rng, out=out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 3 * _SEARCH_BLOCK * 8

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
        draws = pmf.sampler(np.random.default_rng(3), (400, 500))
        assert draws.shape == (400, 500)
        self.assert_frequencies(draws, pmf.offsets, pmf.values)

    def test_mass_short_of_one_reaches_last_offset(self):
        # these weights sum to 1, but the cumulative sum of the renormalized
        # weights ends 2.2e-16 below 1
        pmf = IntegerPmf({-2: 0.1, -1: 0.2, 0: 0.4, 1: 0.2, 2: 0.1})
        offsets, values = pmf.offsets, pmf.values
        assert np.cumsum(values)[-1] < 1.0
        draw = pmf.sampler

        class LargestUniform:
            def random(self, shape, out=None):
                return np.full(shape, np.nextafter(1.0, 0.0))

        assert np.all(draw(LargestUniform(), (3, 2)) == 2.0)
        self.assert_frequencies(draw(np.random.default_rng(5), (1000, 200)), offsets, values)
