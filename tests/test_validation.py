import dataclasses
import os
import threading
from concurrent.futures.process import BrokenProcessPool
from unittest import mock

import pytest
from scipy.linalg import lapack

from remest import dp, solver_a, solver_b, validation
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


def _break_closed_forms(mp):
    mp.setattr(solver_a, "bd_closed_form", _nudged(
        solver_a.bd_closed_form, "distortion", lambda r: 10.0 * validation.CLOSED_FORM_TOL))


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


def test_price_map_check_detects_nudged_price(monkeypatch):
    real = solver_b.lambda_of_k
    monkeypatch.setattr(solver_b, "lambda_of_k", lambda spec, k, **kw: (
        real(spec, k, **kw) * (1.0 + 10.0 * validation.PRICE_FD_TOL)))
    checks = [c for c in validation.suite_scaling() if "finite differences" in c.name]
    assert checks and not any(c.passed for c in checks), [c.detail for c in checks]


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
