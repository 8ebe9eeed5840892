import dataclasses
import os
import threading
from concurrent.futures.process import BrokenProcessPool
from unittest import mock

import numpy as np
import pytest
from scipy.linalg import lapack

from remest import dp, reference, solver_a, solver_b, validation
from remest.errors import NumericsError, UsageError
from remest.model import collect
from remest.simulate import SimConfig

SMALL = SimConfig(horizon=2_000, replications=20, seed=5, burn_in=100)


def _usable_cores(mp, cores):
    mp.setattr(os, "sched_getaffinity", lambda pid: set(cores))


def _counted_forks(mp):
    """The calls to ``os.fork``, made through a wrapper that counts them."""
    forks, real = [], os.fork
    mp.setattr(os, "fork", lambda: forks.append(1) or real())
    return forks


def _assert_nothing_left():
    """No child process, running or zombie, and no thread beside this one."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert threading.active_count() == 1


def _nudged(fn, field, amount):
    """``fn`` with ``amount(result)`` added to ``result.field``."""
    def nudged(*args, **kwargs):
        result = fn(*args, **kwargs)
        return dataclasses.replace(result, **{field: getattr(result, field) + amount(result)})
    return nudged


def _break_table(mp):
    mp.setattr(solver_a, "threshold_table", _nudged(
        solver_a.threshold_table, "D", lambda r: 2.0 * validation.TABLE_TOL))


# each reference route of the closed_forms suite: its result moved by 10 tolerances
# (relative for the corner prices), and a word of the checks that compare with it
_SHIFTED_ROUTES = {
    "bd_closed_form": (lambda r: dataclasses.replace(
        r, distortion=r.distortion + 10.0 * validation.CLOSED_FORM_TOL), "D,N"),
    "bd_q_entry": (lambda q: q + 10.0 * validation.CLOSED_FORM_TOL, "inverse entries"),
    "bd_corner_lambda_avg": (lambda lam: lam * (1.0 + 10.0 * validation.CLOSED_FORM_TOL),
                             "corner prices"),
    "gauss_reset_lm": (lambda lm: (lm[0] + 10.0 * validation.CLOSED_FORM_TOL, lm[1]),
                       "L(0),M(0)"),
}


def _shift_route(mp, route):
    shift, real = _SHIFTED_ROUTES[route][0], getattr(reference, route)
    mp.setattr(reference, route, lambda *args: shift(real(*args)))


def _break_closed_forms(mp):
    _shift_route(mp, "bd_closed_form")


def _break_scaling(mp):
    # the real Algorithms 1 and 2, with the scaled instances' thresholds
    # moved by a relative 10 tolerances
    for name in ("algorithm1_costly", "algorithm2_constrained"):
        real = getattr(solver_b, name)

        def nudged(spec, x, eps, real=real):
            k, value = real(spec, x, eps)
            if spec.pdf.sigma != 1.0:
                k *= 1.0 + 10.0 * validation.SCALE_TOL
            return k, value

        mp.setattr(solver_b, name, nudged)


def _break_simulation(mp):
    real = validation.simulate_policies

    def nudged(*args, **kwargs):
        return [dataclasses.replace(r, d_hat=r.d_hat + 10.0 * r.d_se)
                for r in real(*args, **kwargs)]

    mp.setattr(validation, "simulate_policies", nudged)


def _break_dp(mp):
    real = dp.policy_evaluate_fixed_point

    def nudged(spec, k, **kwargs):
        d, n = real(spec, k, **kwargs)
        return d + 10.0 * validation.DP_TOL, n

    mp.setattr(dp, "policy_evaluate_fixed_point", nudged)


_BREAKERS = {
    "tableI": _break_table,
    "closed_forms": _break_closed_forms,
    "scaling": _break_scaling,
    "renewal": _break_simulation,
    "dp": _break_dp,
    "baselines": _break_simulation,
}


@pytest.mark.parametrize("suite", list(validation.SUITES))
def test_suite_detects_shifted_route(suite, monkeypatch):
    _BREAKERS[suite](monkeypatch)
    checks = validation.run_suite(suite, config=SMALL)
    assert any(not c.passed for c in checks), [c.detail for c in checks]


@pytest.mark.parametrize("route", sorted(_SHIFTED_ROUTES))
def test_closed_forms_detect_each_shifted_route(route, monkeypatch):
    _shift_route(monkeypatch, route)
    word = _SHIFTED_ROUTES[route][1]
    checks = validation.run_suite("closed_forms")
    assert any(not c.passed for c in checks if word in c.name), [
        (c.name, c.detail) for c in checks if word in c.name]


def test_shifted_simulations_fail_both_suites_when_forked(monkeypatch):
    # the forked workers run the patched simulator they were copied with
    _break_simulation(monkeypatch)
    _usable_cores(monkeypatch, {0, 1})
    forks = _counted_forks(monkeypatch)
    checks = validation.run_suite("renewal", "baselines", config=SMALL)
    assert forks == [1, 1]
    _assert_nothing_left()
    for suite in ("renewal", "baselines"):
        assert any(not c.passed for c in checks if c.suite == suite), suite


def test_unknown_suite_rejected():
    # no name, an unknown one, or "all" beside another
    for names in [("nope",), (), ("all", "dp"), ("dp", "all")]:
        with pytest.raises(UsageError):
            validation.run_suite(*names)


def _window_means(k: int, config: SimConfig) -> tuple[float, float]:
    """The exact expected (D, N) a threshold-k run of the birth-death error chain
    (p = 0.3, a = beta = 1) averages over steps [burn_in, horizon): its law over
    the states -k..k, propagated from e = 0; silent, e moves by the innovation,
    and a transmission at |e| = k resets it to the innovation."""
    p, states = 0.3, np.arange(-k, k + 1)
    step = np.zeros((2 * k + 1, 2 * k + 1))
    for i, e in enumerate(states):
        base = k if abs(e) == k else i
        for w, mass in ((-1, p), (0, 1.0 - 2.0 * p), (1, p)):
            step[i, base + w] += mass
    law, visits = (states == 0).astype(float), np.zeros(2 * k + 1)
    for t in range(config.horizon):
        if t >= config.burn_in:
            visits += law
        law = law @ step
    visits /= config.horizon - config.burn_in
    sent = np.abs(states) == k
    return float(visits @ np.where(sent, 0.0, np.abs(states))), float(visits[sent].sum())


@pytest.mark.parametrize("k", [2, 3, 5])
def test_short_horizon_carries_no_transient_bias(k):
    # every run starts at e = 0, a renewal point, so after the burn-in the
    # window average is the stationary one to rounding (1e-13); from step 0
    # it would be off by 1e-3 at k = 5
    table = solver_a.threshold_table(solver_a.bd_spec(0.3, 1.0), 5)
    D, N = _window_means(k, validation.RENEWAL_CONFIG)
    assert abs(D - table.D[k]) <= 1e-9 and abs(N - table.N[k]) <= 1e-9, (D, N)


def test_suite_layouts_keep_the_sample():
    # each policy keeps the 100 x 49 000 post-burn-in cells of the long layout,
    # and the window holds whole periods of every periodic baseline
    periods = {len(policy.pattern) for _, policies, _ in validation._baselines().blocks
               for policy in policies if policy.kind == "periodic"}
    assert periods == {2, 4}
    for config in (validation.RENEWAL_CONFIG, validation.BASELINES_CONFIG):
        window = config.horizon - config.burn_in
        assert config.replications * window >= 100 * 49_000
        assert all(window % period == 0 for period in periods)


class TestSideBySide:
    """The Monte-Carlo blocks run side by side in a pool of forked workers,
    with the results, checks and counters of an inline run."""

    @pytest.mark.parametrize("name", ["renewal", "all"])
    def test_one_core_and_two_agree(self, name, monkeypatch):
        forks = _counted_forks(monkeypatch)
        runs = []
        for cores in ({0}, {0, 1}):
            _usable_cores(monkeypatch, cores)
            with collect() as record:
                checks = validation.run_suite(name, config=SMALL)
            runs.append((checks, record))
        # one worker per lane, and two lanes on two cores
        assert forks == [1, 1]
        _assert_nothing_left()
        assert runs[0] == runs[1]
        assert runs[0][1].step_loops == (2 if name == "renewal" else 3)

    def test_failure_raised_and_every_child_reaped(self, monkeypatch):
        _usable_cores(monkeypatch, {0, 1})
        forks = _counted_forks(monkeypatch)
        caller, real = os.getpid(), validation.simulate_policies

        def failing(*args):
            if os.getpid() != caller:
                raise NumericsError("injected failure in a worker")
            return real(*args)

        monkeypatch.setattr(validation, "simulate_policies", failing)
        with pytest.raises(NumericsError, match="injected failure in a worker"):
            validation.run_suite("renewal", config=SMALL)
        assert forks == [1, 1]
        _assert_nothing_left()

    def test_child_that_sends_nothing_raised_and_reaped(self, monkeypatch):
        # the worker leaves mid-block, so it sends no result
        _usable_cores(monkeypatch, {0, 1})
        caller, real = os.getpid(), validation.simulate_policies

        def dying(*args):
            if os.getpid() != caller:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(validation, "simulate_policies", dying)
        with pytest.raises(BrokenProcessPool):
            validation.run_suite("renewal", config=SMALL)
        _assert_nothing_left()

    def test_no_fork_while_another_thread_lives(self, monkeypatch):
        _usable_cores(monkeypatch, {0, 1})
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside a live thread"))
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            checks = validation.run_suite("renewal", config=SMALL)
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert len(checks) == 5 and all(c.passed for c in checks)


def _fd_checks_with_nudged_renewal(monkeypatch, field, tol, what):
    """The scaling suite's ``what`` checks with ``renewal``'s ``field`` moved by
    a relative 10 tolerances; ``performance_b``, which the finite differences
    read, keeps the real D and N."""
    real = solver_b.renewal
    monkeypatch.setattr(solver_b, "renewal", lambda spec, k, *args: (
        (at := real(spec, k, *args))._replace(**{field: getattr(at, field) * (1.0 + 10.0 * tol)})))
    return [c for c in validation.suite_scaling() if f"{what} vs finite differences" in c.name]


def test_price_map_check_detects_nudged_price(monkeypatch):
    checks = _fd_checks_with_nudged_renewal(monkeypatch, "price", validation.PRICE_FD_TOL,
                                            "price map")
    assert checks and not any(c.passed for c in checks), [c.detail for c in checks]


def test_rate_derivative_check_detects_nudged_slope(monkeypatch):
    checks = _fd_checks_with_nudged_renewal(monkeypatch, "dN", validation.RATE_FD_TOL,
                                            "rate derivative")
    assert len(checks) == 2 and not any(c.passed for c in checks), [c.detail for c in checks]


def test_table_suite_factors_once_per_beta():
    tables, factorizations = [], []
    real_table, real_lu = solver_a.threshold_table, lapack.dgetrf

    def table(*args, **kwargs):
        tables.append(args)
        return real_table(*args, **kwargs)

    def dgetrf(*args, **kwargs):
        factorizations.append(args[0].shape)
        return real_lu(*args, **kwargs)

    with mock.patch.object(solver_a, "threshold_table", table), \
            mock.patch.object(lapack, "dgetrf", dgetrf):
        checks = validation.suite_table()
    assert all(c.passed for c in checks)
    assert len(tables) == 3 and len(factorizations) == 3
