import dataclasses
from unittest import mock

import pytest
from scipy.linalg import lapack

from remest import dp, solver_a, solver_b, validation
from remest.simulate import SimConfig

SMALL = SimConfig(horizon=2_000, replications=20, seed=5, burn_in=100)


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
    run = validation.SUITES[suite]
    checks = run(SMALL) if suite in ("renewal", "baselines") else run()
    assert any(not c.passed for c in checks), [c.detail for c in checks]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        validation.run_suite("nope")


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
