"""Acceptance criteria, one test per criterion.

Each test prints a PASS line once its assertions hold (visible with -s).
Criteria 1, 3, 6(a), 7 and 8 run the matching ``remest.validation`` suite,
which holds their tolerances; the other tolerances are fixed here.
"""

import time

import numpy as np
import pytest

from remest import DistortionFn, IntegerPmf, ModelSpecA
from remest import solver_a, solver_b, validation
from remest.cli import main as cli_main
from remest.reference import (
    WORKED_CONSTRAINED_ALPHA,
    WORKED_CONSTRAINED_D,
    WORKED_CONSTRAINED_K,
    WORKED_CONSTRAINED_THETA,
    WORKED_COSTLY_COST,
    WORKED_COSTLY_K,
    WORKED_COSTLY_PRICE,
)
from remest.simulate import (
    PolicySpec,
    SimConfig,
    simulate,
    steering_visit_probability,
    time_sharing_schedule,
)
from conftest import random_valid_pmf


def _report(number: int, name: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.1f}s")


def _assert_all_passed(checks):
    failed = [f"{c.suite} {c.name}: {c.detail}" for c in checks if not c.passed]
    assert checks and not failed, "\n".join(failed)


def test_criterion_01_table_reproduction():
    started = time.perf_counter()
    checks = validation.suite_table()
    assert len(checks) == 99  # D, N and corner price for 3 x 11 cells
    _assert_all_passed(checks)
    _report(1, "table reproduction", started, 1.0)


def test_criterion_02_worked_examples(bd_09):
    started = time.perf_counter()
    k, cost = solver_a.optimal_costly(bd_09, WORKED_COSTLY_PRICE)
    assert k == WORKED_COSTLY_K
    perf = solver_a.performance(bd_09, k)
    # the printed 1.4064 is arithmetic on 4-decimal roundings of D and N;
    # reproduce that arithmetic, and bound the exact cost by the rounding
    # amplification 5e-4 + price * 5e-5
    display = round(perf.distortion, 4) + WORKED_COSTLY_PRICE * round(
        perf.transmission_rate, 4)
    assert abs(display - WORKED_COSTLY_COST) <= 5e-4
    assert abs(cost - WORKED_COSTLY_COST) <= 5e-4 + WORKED_COSTLY_PRICE * 5e-5

    policy, d_star = solver_a.optimal_constrained(bd_09, WORKED_CONSTRAINED_ALPHA)
    assert policy.k_star == WORKED_CONSTRAINED_K
    assert abs(policy.theta_star - WORKED_CONSTRAINED_THETA) <= 5e-4
    assert abs(d_star - WORKED_CONSTRAINED_D) <= 5e-4
    _report(2, "worked examples", started, 1.0)


def test_criterion_03_closed_form_cross_check():
    started = time.perf_counter()
    _assert_all_passed(validation.suite_closed_forms())
    _report(3, "closed-form cross-check", started, 1.0)


def test_criterion_04_k1_rate_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(20250817)
    for _ in range(5):
        pmf = IntegerPmf(random_valid_pmf(rng))
        for beta in (0.5, 0.9, 1.0):
            spec = ModelSpecA(a=1, pmf=pmf, distortion=DistortionFn.absolute(),
                              beta=beta)
            n1 = solver_a.performance(spec, 1).transmission_rate
            assert abs(n1 - beta * (1.0 - dict(pmf.items).get(0, 0.0))) <= 1e-12
    _report(4, "always-useful threshold rate", started, 5.0)


def test_criterion_05_corner_continuity_and_shape():
    started = time.perf_counter()
    for beta in (0.9, 0.95, 1.0):
        spec = solver_a.bd_spec(0.3, beta)
        D = {k: solver_a.performance(spec, k).distortion for k in range(12)}
        N = {k: solver_a.performance(spec, k).transmission_rate for k in range(12)}
        for kn, lam in solver_a.corner_lambdas(spec, 10):
            left = D[kn] + lam * N[kn]
            right = D[kn + 1] + lam * N[kn + 1]
            assert abs(left - right) <= 1e-9, (beta, kn)
        assert solver_a.tradeoff_curve(spec, "costly", 10).check() == []
        assert solver_a.tradeoff_curve(spec, "constrained", 10).check() == []
    _report(5, "corner continuity and curve shape", started, 5.0)


def test_criterion_06_gaussian_properties(gm_unit):
    started = time.perf_counter()
    # (a) scale identities at sigma in {0.5, 2}
    _assert_all_passed(validation.suite_scaling())
    # (b) monotone rate and pre-transmission functionals on a 12-point grid
    L_prev, M_prev, N_prev = -1.0, 0.0, 2.0
    for k in np.geomspace(0.25, 6.0, 12):
        L0, M0 = solver_b.renewal(gm_unit, float(k))[:2]
        assert L0 > L_prev and M0 > M_prev and 1.0 / M0 < N_prev
        L_prev, M_prev, N_prev = L0, M0, 1.0 / M0
    # (c) budget round-trips at epsilon = 1e-4
    for alpha in (0.2, 0.5, 0.9):
        k, _ = solver_b.algorithm2_constrained(gm_unit, alpha, epsilon=1e-4)
        n = solver_b.performance_b(gm_unit, k).transmission_rate
        assert abs(n - alpha) <= 1e-4
    _report(6, "gaussian scale and shape properties", started, 60.0)


def test_criterion_07_monte_carlo_validation():
    started = time.perf_counter()
    cfg = SimConfig(horizon=10_000, replications=2_000, seed=70707, burn_in=100)
    checks = validation.run_suite("renewal", "baselines", config=cfg)
    assert len(checks) == 13
    _assert_all_passed(checks)
    _report(7, "Monte-Carlo validation", started, 120.0)


def test_criterion_08_dp_oracle():
    started = time.perf_counter()
    _assert_all_passed(validation.suite_dp())
    _report(8, "dynamic-programming oracle", started, 30.0)


def test_criterion_09_deterministic_implementations(bd_avg):
    started = time.perf_counter()
    alpha = 0.1
    policy, d_star = solver_a.optimal_constrained(bd_avg, alpha)
    assert policy.k_star == 2
    assert policy.theta_star == pytest.approx(0.4, abs=1e-10)
    assert d_star == pytest.approx(0.4 * 0.5 + 0.6 * (8.0 / 9.0), abs=1e-10)
    cfg = SimConfig(horizon=100_000, replications=100, seed=90909)

    theta_visit = steering_visit_probability(bd_avg, policy.k_star, policy.theta_star)
    res = simulate(bd_avg, PolicySpec.steering(policy.k_star, theta_visit), cfg)
    assert abs(res.n_hat - alpha) <= 3.0 * res.n_se, "steering rate"
    assert abs(res.d_hat - d_star) <= 3.0 * res.d_se, "steering distortion"

    n_lo = solver_a.performance(bd_avg, policy.k_star).transmission_rate
    n_hi = solver_a.performance(bd_avg, policy.k_star + 1).transmission_rate
    sched = time_sharing_schedule(n_lo, n_hi, policy.theta_star)
    assert sched == [(3, 2)]
    res = simulate(bd_avg, PolicySpec.time_sharing(policy.k_star, sched), cfg)
    assert abs(res.n_hat - alpha) <= 3.0 * res.n_se, "time-sharing rate"
    assert abs(res.d_hat - d_star) <= 3.0 * res.d_se, "time-sharing distortion"
    _report(9, "deterministic implementations", started, 60.0)


def test_criterion_10_determinism(tmp_path):
    started = time.perf_counter()
    base = ["simulate", "--model", "A", "--p", "0.3", "--policy", "threshold",
            "--k", "2", "--reps", "16", "--horizon", "4000", "--burn-in", "500",
            "--seed", "77", "--format", "json"]
    outputs = []
    for tag, workers in (("serial", "1"), ("again", "1"), ("parallel", "4")):
        path = tmp_path / f"{tag}.json"
        assert cli_main(base + ["--workers", workers, "--out", str(path)]) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    _report(10, "byte-identical reruns", started, 30.0)
