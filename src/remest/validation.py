"""Cross-check suites: every solver against an independent route.

Each suite returns a list of named pass/fail checks; the independent
routes they check against live in ``reference``, and this module holds
only the suites.  They are the only implementation of these cross-checks
and ``run_suite`` the one way to run them: ``remest validate`` calls it and
exits nonzero on any failure, the acceptance tests call it and assert that
every check passed.
Tolerances are module constants, one value per check.  The Monte-Carlo
suites share one simulated block per spec: renewal runs its birth-death
and its Gaussian thresholds as two blocks, baselines its eight Gaussian
policies as one, so each spec's innovations are drawn once (common random
numbers across the policies compared).  A block runs on ``RENEWAL_CONFIG``
or ``BASELINES_CONFIG``, read when its suite is called, unless the caller
of ``run_suite`` hands in a ``config`` for a larger sample.

Both configs are laid out wide and short, 1000 replications x 5000 steps
after a burn-in of 100: a step 100 cells wide costs mostly the dispatch of
its NumPy calls, so the same cells in ten times fewer, wider steps take
about half the time of 100 x 50 000.  The layout rule: each policy keeps at least 100 x 49 000
post-burn-in cells, and ``horizon - burn_in`` is a multiple of every
periodic baseline's period (2 and 4), so the state-blind formula's
whole-period average holds exactly.  Every run starts at error 0, a renewal
point, so the short horizon carries no transient bias past the burn-in
(about 1e-13 in the birth-death D and N).

Each Monte-Carlo suite is split at its simulations (``_Simulated``): its
analytic side is computed first, in the calling process, and the blocks of
every suite ``run_suite`` was asked for then run side by side, one step
loop per usable core, each in a worker of a process pool forked for the
call (``_side_by_side``).  A worker runs only step loops and draws, never
LAPACK or BLAS, whose thread pools a fork does not copy, and a process with
a second Python thread runs every block inline.  A block draws from its own
seed, so the checks and the ``collect()`` counters are the same whatever
the core count.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import dp, reference, solver_a, solver_b
from .errors import UsageError
from .model import (DistortionFn, ModelSpecA, ModelSpecB, PerfPoint, SmoothPdf, collect,
                    count)
from .reference import BD_COSTLY_THRESHOLDS, BD_REFERENCE, BD_REFERENCE_P
from .simulate import PolicySpec, SimConfig, SimResult, simulate_policies

TABLE_TOL = 5e-4  # the published table's four-decimal rounding
CLOSED_FORM_TOL = 1e-9
SCALE_TOL = 2e-10  # relative to max(1, |expected|)
SCALE_EPS = 1e-6  # tolerance on the key Algorithms 1 and 2 search, lambda(k) or N(k)
PRICE_FD_TOL = 1e-6  # price map vs Richardson finite differences, relative
RATE_FD_TOL = 1e-6  # rate slope N'(k) vs Richardson finite differences, relative
DP_TOL = 1e-6
MC_SIGMAS = 3.0  # Monte-Carlo agreement, in standard errors

# the layout rule: replications x (horizon - burn_in) >= 4.9e6 cells per policy,
# and horizon - burn_in a multiple of the periodic baselines' periods, 2 and 4
RENEWAL_CONFIG = SimConfig(horizon=5_000, replications=1_000, seed=2024, burn_in=100)
BASELINES_CONFIG = SimConfig(horizon=5_000, replications=1_000, seed=4096, burn_in=100)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _check(suite: str, name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(suite=suite, name=name, passed=bool(passed), detail=detail)


def _scaled_close(got: float, want: float) -> bool:
    return abs(got - want) <= SCALE_TOL * max(1.0, abs(want))


def _sim_close(estimate: float, se: float, want: float) -> bool:
    return abs(estimate - want) <= MC_SIGMAS * se


def suite_table() -> list[CheckResult]:
    """Solver output vs the published table: 99 cells at the table's rounding."""
    out: list[CheckResult] = []
    for beta, rows in BD_REFERENCE.items():
        table = solver_a.threshold_table(solver_a.bd_spec(BD_REFERENCE_P, beta), 11)
        corners = dict(solver_a.table_corners(table))
        for k, d_ref, n_ref, lam_ref in rows:
            for name, got, want in (("D", table.D[k], d_ref), ("N", table.N[k], n_ref)):
                out.append(_check("tableI", f"beta={beta} k={k} {name}",
                                  abs(got - want) <= TABLE_TOL, f"{got:.6f} vs {want}"))
            lam = corners.get(k)  # the k = 0 row has none: the distortion does not increase
            out.append(_check(
                "tableI", f"beta={beta} k={k} corner",
                k not in corners if lam_ref is None
                else lam is not None and abs(lam - lam_ref) <= TABLE_TOL,
                "no corner price at k=0 (distortion does not increase)" if lam_ref is None
                else f"{lam} vs {lam_ref}",
            ))
    return out


def suite_closed_forms() -> list[CheckResult]:
    """Closed forms vs the solvers: birth-death (model A), Gaussian at a = 0 (model B)."""
    out: list[CheckResult] = []
    for p in (0.1, 0.2, 0.3):
        for beta in (0.9, 0.95, 1.0):
            spec = solver_a.bd_spec(p, beta)
            table = solver_a.threshold_table(spec, 10)
            worst = 0.0
            for k in range(1, 11):
                c = reference.bd_closed_form(p, beta, k)
                worst = max(worst, abs(table.D[k] - c.distortion),
                            abs(table.N[k] - c.transmission_rate))
            out.append(_check(
                "closed_forms", f"p={p} beta={beta} D,N",
                worst <= CLOSED_FORM_TOL, f"worst |err| = {worst:.2e}",
            ))
            k = 5
            # the folded state j collects the visits to j and to -j
            Q = np.linalg.inv(np.eye(k) - beta * solver_a.folded_transition(spec, k))
            worst_q = max(abs(Q[i, j] - reference.bd_q_entry(p, beta, k, i, j)
                              - (j > 0) * reference.bd_q_entry(p, beta, k, i, -j))
                          for i in range(k) for j in range(k))
            out.append(_check(
                "closed_forms", f"p={p} beta={beta} inverse entries",
                worst_q <= CLOSED_FORM_TOL, f"worst |err| = {worst_q:.2e}",
            ))
            if beta == 1.0:
                worst_c = max(abs(lam / reference.bd_corner_lambda_avg(p, kn) - 1.0)
                              for kn, lam in solver_a.table_corners(table))
                out.append(_check(
                    "closed_forms", f"p={p} beta={beta} corner prices k=1..9",
                    worst_c <= CLOSED_FORM_TOL, f"worst relative |err| = {worst_c:.2e}",
                ))
    for kind, sigma, beta in itertools.product(("quadratic", "absolute"), (0.5, 1.0, 2.0),
                                               (0.9, 1.0)):
        spec = ModelSpecB(a=0.0, pdf=SmoothPdf.gaussian(sigma),
                          distortion=getattr(DistortionFn, kind)(), beta=beta)
        worst = worst_price = 0.0
        for z in (0.6, 2.0):
            at = solver_b.renewal(spec, z * sigma)
            L0, M0 = reference.gauss_reset_lm(spec, z * sigma)
            worst = max(worst, abs(at.L0 - L0), abs(at.M0 - M0))
            # the kernel ignores e, so L = d + const and M = const: lambda(k) = d(k)
            worst_price = max(worst_price, abs(at.price - float(spec.distortion(z * sigma))))
        out.append(_check(
            "closed_forms", f"a=0 {kind} sigma={sigma} beta={beta} L(0),M(0)",
            worst <= CLOSED_FORM_TOL, f"worst |err| = {worst:.2e}",
        ))
        out.append(_check(
            "closed_forms", f"a=0 {kind} sigma={sigma} beta={beta} lambda(k) = d(k)",
            worst_price <= CLOSED_FORM_TOL, f"worst |err| = {worst_price:.2e}",
        ))
    return out


def price_fd_error(spec: ModelSpecB, k: float) -> tuple[float, float, float]:
    """``solver_b.renewal``'s price at k, and the relative gaps of its price
    and its rate slope N'(k) to their independent route: -dD/dk / dN/dk and
    dN/dk from central differences of performance_b with one Richardson
    level (error O(h^4))."""
    h = min(max(1e-3, 1e-2 * k), 0.5 * k)

    def dn(kk: float) -> np.ndarray:
        p = solver_b.performance_b(spec, kk)
        return np.array([p.distortion, p.transmission_rate])

    dD, dN = (4.0 * (dn(k + h / 2.0) - dn(k - h / 2.0)) / h
              - (dn(k + h) - dn(k - h)) / (2.0 * h)) / 3.0
    want = -dD / dN
    at = solver_b.renewal(spec, k)
    return at.price, float(abs(at.price - want) / abs(want)), float(abs(at.dN - dN) / abs(dN))


def suite_scaling() -> list[CheckResult]:
    """Gaussian-instance scale identities, plus the price map's monotonicity and
    its and the rate slope's agreement with finite differences on a probe grid."""
    out: list[CheckResult] = []
    base = solver_b.gauss_markov_spec(1.0)
    # the base spec's constrained searches do not depend on sigma
    base_constrained = {alpha: solver_b.algorithm2_constrained(base, alpha, SCALE_EPS)
                        for alpha in (0.2, 0.5)}
    for sigma in (0.5, 2.0):
        scaled = solver_b.gauss_markov_spec(sigma)
        s2 = sigma * sigma
        for alpha, (k1, d1) in base_constrained.items():
            ks, ds = solver_b.algorithm2_constrained(scaled, alpha, SCALE_EPS)
            out.append(_check(
                "scaling", f"sigma={sigma} alpha={alpha} threshold and distortion",
                _scaled_close(ks, sigma * k1) and _scaled_close(ds, s2 * d1),
                f"k: {ks:.12g} vs {sigma * k1:.12g}; D: {ds:.12g} vs {s2 * d1:.12g}",
            ))
        for lam in (0.5, 2.0):
            k1, c1 = solver_b.algorithm1_costly(base, lam / s2, SCALE_EPS)
            ks, cs = solver_b.algorithm1_costly(scaled, lam, s2 * SCALE_EPS)
            out.append(_check(
                "scaling", f"sigma={sigma} lambda={lam} threshold and optimal cost",
                _scaled_close(ks, sigma * k1) and _scaled_close(cs, s2 * c1),
                f"k: {ks:.12g} vs {sigma * k1:.12g}; C: {cs:.12g} vs {s2 * c1:.12g}",
            ))
    probes = (0.5, 1.0, 2.0, 4.0)
    abs_discounted = ModelSpecB(a=-0.7, pdf=SmoothPdf.gaussian(1.0),
                                distortion=DistortionFn.absolute(), beta=0.95)
    # (price, price gap, rate slope gap) per probe; the base prices also serve the
    # monotonicity check
    fd = {name: [price_fd_error(spec, k) for k in probes]
          for name, spec in (("unit gaussian", base), ("a=-0.7 beta=0.95 abs", abs_discounted))}
    lams = [price for price, _, _ in fd["unit gaussian"]]
    out.append(_check(
        "scaling", "price map increasing on probe grid",
        all(b > a for a, b in zip(lams, lams[1:])),
        " < ".join(f"{x:.4f}" for x in lams),
    ))
    for name, points in fd.items():
        for column, what, tol in ((1, "price map", PRICE_FD_TOL),
                                  (2, "rate derivative", RATE_FD_TOL)):
            worst = max(point[column] for point in points)
            out.append(_check(
                "scaling", f"{name} {what} vs finite differences on probe grid",
                worst <= tol, f"worst relative |err| = {worst:.2e}",
            ))
    return out


# --- Monte-Carlo blocks side by side ------------------------------------------

@dataclass(frozen=True)
class _Simulated:
    """A Monte-Carlo suite split at its simulations, its analytic side
    already computed: ``blocks`` holds the arguments ``(spec, policies,
    config)`` of its ``simulate_policies`` calls, and ``judge`` turns their
    results, in block order, into the suite's checks."""

    blocks: list[tuple[ModelSpecA | ModelSpecB, list[PolicySpec], SimConfig]]
    judge: Callable[[list[list[SimResult]]], list[CheckResult]]


def _lane_count(blocks: list) -> int:
    """Step loops to run at once: one per usable core, at most one per block;
    one (every block inline) where fork is unavailable or another Python
    thread is alive (a fork copies only the calling thread)."""
    if (len(blocks) < 2 or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1):
        return 1
    return min(len(blocks), len(os.sched_getaffinity(0)))


def _run_block(block: tuple) -> tuple[list[SimResult], dict]:
    """A pool worker's task: a block's results and the counters it made."""
    with collect() as record:
        results = simulate_policies(*block)
    return results, asdict(record)


def _side_by_side(blocks: list) -> list[list[SimResult]]:
    """``simulate_policies`` of each ``(spec, policies, config)`` block, in
    block order, with up to ``_lane_count`` step loops at once: the blocks
    go, largest (policies x replications x horizon) first, to a pool of
    forked workers, one per lane.  The workers' ``collect()`` counters are
    added to the caller's open record, a worker's exception is raised again
    here, and the pool joins every worker before this returns or raises."""
    lanes = _lane_count(blocks)
    if lanes == 1:
        return [simulate_policies(*block) for block in blocks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    cells = [len(policies) * config.replications * config.horizon
             for _, policies, config in blocks]
    with ProcessPoolExecutor(lanes, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = {i: pool.submit(_run_block, blocks[i])
                   for i in sorted(range(len(blocks)), key=lambda i: -cells[i])}
        outcomes = [futures[i].result() for i in range(len(blocks))]
    for _, record in outcomes:
        count(**record)
    return [results for results, _ in outcomes]


def _settle(parts: list, config: SimConfig | None = None) -> list[CheckResult]:
    """The checks of ``parts``, each a suite's checks or its ``_Simulated``
    split, in order; the blocks of every split run in one ``_side_by_side``,
    each on ``config`` when one is given, else on its own."""
    blocks = [(spec, policies, config or own) for part in parts
              if isinstance(part, _Simulated) for spec, policies, own in part.blocks]
    results = iter(_side_by_side(blocks))
    return [check for part in parts
            for check in (part.judge([next(results) for _ in part.blocks])
                          if isinstance(part, _Simulated) else part)]


def _renewal() -> _Simulated:
    """Simulated threshold performance vs the analytic route, split at the
    simulations: the analytic (D, N) of each threshold, then a block per spec."""
    bd = solver_a.bd_spec(0.3, 1.0)
    gm = solver_b.gauss_markov_spec(1.0)
    table = solver_a.threshold_table(bd, 5)  # k = 2, 3, 5 from one factorization
    analytic = [("birth-death", bd, {k: PerfPoint(float(table.D[k]), float(table.N[k]))
                                     for k in (2, 3, 5)}),
                ("gaussian", gm, {k: solver_b.performance_b(gm, k) for k in (1.0, 2.0)})]

    def judge(results: list[list[SimResult]]) -> list[CheckResult]:
        return [_check(
            "renewal", f"{label} k={k}",
            _sim_close(res.d_hat, res.d_se, ana.distortion)
            and _sim_close(res.n_hat, res.n_se, ana.transmission_rate),
            f"d={res.d_hat:.5f}±{res.d_se:.5f} vs {ana.distortion:.5f}; "
            f"n={res.n_hat:.5f}±{res.n_se:.5f} vs {ana.transmission_rate:.5f}",
        ) for (label, _, points), block in zip(analytic, results)
            for (k, ana), res in zip(points.items(), block)]

    return _Simulated([(spec, [PolicySpec.threshold(k) for k in points], RENEWAL_CONFIG)
                       for _, spec, points in analytic], judge)


def suite_dp() -> list[CheckResult]:
    """Value iteration and fixed-point evaluation vs the renewal solver and the table."""
    out: list[CheckResult] = []
    spec = solver_a.bd_spec(BD_REFERENCE_P, 0.9)
    for lam, k_table in BD_COSTLY_THRESHOLDS.items():
        result = dp.value_iterate(spec, lam)
        k_solver, _ = solver_a.optimal_costly(spec, lam)
        out.append(_check(
            "dp", f"lambda={lam} threshold agreement",
            result.threshold == k_solver == k_table,
            f"value iteration k={result.threshold}, corner lookup k={k_solver}, "
            f"table k={k_table}",
        ))
    for beta in (0.9, 0.95):
        spec = solver_a.bd_spec(BD_REFERENCE_P, beta)
        rows = {k: (d, n) for k, d, n, _ in BD_REFERENCE[beta]}
        table = solver_a.threshold_table(spec, 6)
        worst = worst_table = 0.0
        for k in range(1, 7):
            d_fp, n_fp = dp.policy_evaluate_fixed_point(spec, k, tol=1e-10)
            worst = max(worst, abs(d_fp - table.D[k]), abs(n_fp - table.N[k]))
            d_ref, n_ref = rows[k]
            worst_table = max(worst_table, abs(d_fp - d_ref), abs(n_fp - n_ref))
        out.append(_check(
            "dp", f"beta={beta} fixed-point evaluation",
            worst <= DP_TOL, f"worst |err| = {worst:.2e}",
        ))
        out.append(_check(
            "dp", f"beta={beta} fixed-point evaluation vs table",
            worst_table <= TABLE_TOL, f"worst |err| = {worst_table:.2e}",
        ))
    return out


def _baselines() -> _Simulated:
    """State-blind baseline formulas and the policy ordering by simulation,
    split at it: the optimal thresholds, then all eight policies in one block."""
    gm = solver_b.gauss_markov_spec(1.0)
    baselines = []
    for alpha in (0.25, 0.5):
        baselines.append((f"random transmissions alpha={alpha}", PolicySpec.iid_random(alpha)))
        baselines.append((f"periodic one-in-T alpha={alpha}",
                          PolicySpec.periodic_one_in(round(1.0 / alpha))))
    for alpha in (0.5, 0.75):
        baselines.append((f"periodic all-but-one alpha={alpha}",
                          PolicySpec.periodic_all_but_one(round(1.0 / (1.0 - alpha)))))
    order_alphas = (0.2, 0.5)
    optimal = [PolicySpec.threshold(solver_b.algorithm2_constrained(gm, alpha, 1e-6)[0])
               for alpha in order_alphas]

    def judge(blocks: list[list[SimResult]]) -> list[CheckResult]:
        [results] = blocks
        out: list[CheckResult] = []
        for (name, policy), res in zip(baselines, results):
            want = reference.state_blind_distortion(policy, 1.0)
            out.append(_check(
                "baselines", name, _sim_close(res.d_hat, res.d_se, want),
                f"d={res.d_hat:.5f}±{res.d_se:.5f} vs {want:.5f}",
            ))
        for alpha, res_th in zip(order_alphas, results[len(baselines):]):
            d_per, d_rand = (reference.state_blind_distortion(policy, 1.0) for policy in (
                PolicySpec.periodic_one_in(round(1.0 / alpha)), PolicySpec.iid_random(alpha)))
            out.append(_check(
                "baselines", f"ordering threshold < periodic < random at alpha={alpha}",
                res_th.d_hat + MC_SIGMAS * res_th.d_se < d_per < d_rand,
                f"{res_th.d_hat:.4f} < {d_per:.4f} < {d_rand:.4f}",
            ))
        return out

    return _Simulated([(gm, [p for _, p in baselines] + optimal, BASELINES_CONFIG)], judge)


# a Monte-Carlo suite's entry returns its ``_Simulated`` split, every other
# suite's its checks; ``run_suite`` settles both
SUITES = {
    "tableI": suite_table,
    "closed_forms": suite_closed_forms,
    "scaling": suite_scaling,
    "renewal": _renewal,
    "dp": suite_dp,
    "baselines": _baselines,
}


def run_suite(*names: str, config: SimConfig | None = None) -> list[CheckResult]:
    """Checks of the named suites in order, or of every suite for ``"all"``
    alone; their Monte-Carlo blocks run side by side, each on ``config``
    when one is given, else on its suite's own."""
    if names == ("all",):
        names = tuple(SUITES)
    if not names or not set(names) <= SUITES.keys():
        raise UsageError(f"bad suites {names!r}; name one or more of {sorted(SUITES)}, "
                         "or 'all' alone")
    return _settle([SUITES[name]() for name in names], config)
