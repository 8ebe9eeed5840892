"""Seeded request mixes and the checks that verify each answer.

A workload builds one *pass*: a fixed list of request types whose inputs
are drawn from ``numpy.random.default_rng([seed, pass_index, tag])``.  Each
request is one call into a public entry point of ``remest`` -- the CLI's
``main(argv)`` where the CLI can express it, a library function otherwise.
Each check compares the outputs of one or more requests against an
independent route (a closed form computed here, a scale identity, a second
solver, or an analytic value at a stated number of standard errors) and
returns ``(ok, detail)``.

Program functions are always looked up as module attributes at call time,
so the spans of ``trace.Tracer`` see them.  Reference values that need the
program (analytic Monte-Carlo targets, steering probabilities) are computed
while the pass is built, outside the timed and traced region.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from remest import cli, dp, model, solver_a, solver_b
from remest.simulate import steering_visit_probability

EPS = 1e-6              # outer-search accuracy of every continuous-model solve
SCALE_TOL = 2e-10       # Gaussian sigma-scale identities
CLOSED_FORM_TOL = 1e-9  # birth-death closed forms
DP_TOL = 1e-6           # fixed-point evaluation against the renewal solver
# Monte-Carlo agreement, in standard errors.  A run makes up to a few hundred
# such comparisons, so the per-comparison limit is set for a family-wise false
# alarm rate near 1e-6 (Bonferroni over 500 comparisons, normal tails).
MC_Z = 6.0


class RequestFailed(Exception):
    """A request exited nonzero or raised a typed error."""


@dataclass
class Request:
    key: str
    label: str
    call: Callable[[], object]


@dataclass
class Check:
    keys: tuple[str, ...]
    fn: Callable[..., tuple[bool, str]]


@dataclass
class Pass:
    requests: list[Request] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)  # filled by the runner, by key

    def add(self, key: str, label: str, call) -> None:
        self.requests.append(Request(key, label, call))

    def check(self, keys, fn) -> None:
        self.checks.append(Check(tuple(keys), fn))


def run_cli(argv: list[str]) -> dict:
    """One CLI request; returns the JSON record plus the raw output text."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv + ["--format", "json"])
    if rc != 0:
        raise RequestFailed(f"exit {rc}: {err.getvalue().strip()[:300]}")
    text = out.getvalue()
    record = json.loads(text)
    record["text"] = text
    return record


def _cli(argv):
    return lambda: run_cli([str(x) for x in argv])


def _close(x: float, want: float, tol: float, rel: bool = True) -> bool:
    scale = max(1.0, abs(want)) if rel else 1.0
    return abs(x - want) <= tol * scale


def _fmt(x) -> str:
    return repr(float(x))


# -- birth-death closed forms, written out independently of solver_a ------------


def bd_dn(p: float, beta: float, k: int) -> tuple[float, float]:
    """(D, N) of threshold k on the +-1 step law with absolute distortion."""
    if beta == 1.0:
        return (k * k - 1.0) / (3.0 * k), 2.0 * p / (k * k)
    m = math.acosh(1.0 + (1.0 - beta) / (2.0 * beta * p))
    s2 = math.sinh(k * m / 2.0) ** 2
    d = (math.sinh(k * m) - k * math.sinh(m)) / (2.0 * s2 * math.sinh(m))
    n = 2.0 * beta * p * math.sinh(m / 2.0) ** 2 * math.cosh(k * m) / s2 - (1.0 - beta)
    return d, n


def bd_corner_avg(p: float, k: int) -> float:
    return k * (k + 1.0) * (k * k + k + 1.0) / (6.0 * p * (2.0 * k + 1.0))


def _rows_match_bd(rows, p, tol=CLOSED_FORM_TOL):
    worst = 0.0
    for r in rows:
        if r["k"] < 1:
            continue
        d, n = bd_dn(p, r["beta"], r["k"])
        worst = max(worst, abs(r["D"] - d), abs(r["N"] - n))
    return worst <= tol, f"worst |err| {worst:.2e}"


def _deep_k(p: float, beta: float, k_hi: int) -> int:
    """Largest k <= k_hi whose discounted rate stays above 1e-12.

    Below that the renewal route's ``1/M0 - (1 - beta)`` cancels to noise
    (a recorded finding), so discounted tables stop there.
    """
    k = k_hi
    while k > 1 and bd_dn(p, beta, k + 1)[1] <= 1e-12:
        k -= 1
    return k


# -- continuous-solve -------------------------------------------------------------

COMBOS_B = [(a, beta) for a in (0.5, 1.0, 1.3) for beta in (0.9, 1.0)]


def continuous_solve(rng: np.random.Generator, index: int, known_failures: bool) -> Pass:
    """Model-B solves.  The seed draws the noise scales sigma (and the
    thresholds of the performance_b pairs); prices, budgets and (a, beta)
    follow the pass index.  By the Gaussian scale identity the work of a
    solve does not depend on sigma, so seeds change the numbers, not the
    amount of work."""
    ps = Pass()
    out = ps.outputs
    a, beta = COMBOS_B[index % len(COMBOS_B)]
    flags = ["--model", "B", "--a", a, "--beta", beta, "--epsilon", EPS]
    spec = lambda s: solver_b.gauss_markov_spec(s, a=a, beta=beta)  # noqa: E731

    # costly: price-map round trip and cost identity
    sigma = rng.uniform(0.5, 2.0)
    lam = sigma * sigma * (0.8, 1.0, 1.25)[index % 3]
    ps.add("costly", "cli solve B costly",
           _cli(["solve", "--problem", "costly", "--sigma", sigma, "--lambda", lam] + flags))
    ps.add("costly_lam", "lib lambda_of_k at k*",
           lambda s=sigma: solver_b.lambda_of_k(spec(s), out["costly"]["rows"][0]["k"]))
    ps.check(("costly", "costly_lam"), lambda rec, lk, lam=lam: (
        abs(lk - lam) <= EPS and _close(rec["rows"][0]["C"],
                                         rec["rows"][0]["D"] + lam * rec["rows"][0]["N"], 1e-12),
        f"lambda(k*) {_fmt(lk)} vs {_fmt(lam)}"))
    ps.add("costly_lam_unit", "lib lambda_of_k sigma=1",
           lambda s=sigma: solver_b.lambda_of_k(spec(1.0), out["costly"]["rows"][0]["k"] / s))
    ps.check(("costly_lam", "costly_lam_unit"), lambda lk, lu, s=sigma: (
        _close(lk, s * s * lu, SCALE_TOL), f"lambda {_fmt(lk)} vs {_fmt(s * s * lu)}"))

    # constrained: sigma-scale pair and N(k*) = alpha round trip
    sigma = rng.uniform(0.5, 2.0)
    alpha = (0.2, 0.3, 0.4)[index % 3]
    ps.add("constr", "cli solve B constrained",
           _cli(["solve", "--problem", "constrained", "--sigma", sigma, "--alpha", alpha] + flags))
    ps.add("constr_unit", "lib algorithm2 sigma=1",
           lambda al=alpha: solver_b.algorithm2_constrained(spec(1.0), al, EPS))
    ps.add("constr_rate", "lib performance_b at k*",
           lambda s=sigma: solver_b.performance_b(spec(s), out["constr"]["rows"][0]["k"]))

    def scale_pair(rec, unit, s=sigma):
        k, d = rec["rows"][0]["k"], rec["rows"][0]["D"]
        ok = _close(k, s * unit[0], SCALE_TOL) and _close(d, s * s * unit[1], SCALE_TOL)
        return ok, f"k {_fmt(k)} vs {_fmt(s * unit[0])}; D {_fmt(d)} vs {_fmt(s * s * unit[1])}"

    ps.check(("constr", "constr_unit"), scale_pair)
    ps.check(("constr_rate",), lambda perf, al=alpha: (
        abs(perf.transmission_rate - al) <= EPS, f"N(k*) {_fmt(perf.transmission_rate)}"))
    ps.add("constr_price", "lib lambda_of_k at k*",
           lambda s=sigma: solver_b.lambda_of_k(spec(s), out["constr"]["rows"][0]["k"]))
    ps.add("constr_price_unit", "lib lambda_of_k sigma=1",
           lambda: solver_b.lambda_of_k(spec(1.0), out["constr_unit"][0]))
    ps.check(("constr_price", "constr_price_unit"), lambda lk, lu, s=sigma: (
        _close(lk, s * s * lu, SCALE_TOL), f"lambda {_fmt(lk)} vs {_fmt(s * s * lu)}"))

    # sampled curve, each point round-tripped through performance_b
    sigma_c = rng.uniform(0.5, 2.0)
    alphas = (0.25, 0.45)
    ps.add("curve", "cli curve B constrained",
           _cli(["curve", "--kind", "constrained", "--sigma", sigma_c,
                 "--alphas", ",".join(_fmt(x) for x in alphas)] + flags))
    for i in range(2):
        ps.add(f"curve_rt{i}", "lib performance_b at curve k",
               lambda i=i: solver_b.performance_b(spec(sigma_c), out["curve"]["rows"][i]["k"]))
        ps.check(("curve", f"curve_rt{i}"), lambda rec, perf, i=i: (
            abs(perf.transmission_rate - rec["rows"][i]["alpha"]) <= EPS
            and _close(perf.distortion, rec["rows"][i]["D"], 1e-12),
            f"point {i}: N {_fmt(perf.transmission_rate)} vs {_fmt(rec['rows'][i]['alpha'])}"))

    # performance_b in sigma-scale pairs over all combos; thresholds stratified on [0.3, 3]
    pairs = 20
    for j in range(pairs):
        a_j, b_j = COMBOS_B[j % len(COMBOS_B)]
        s = rng.uniform(0.5, 2.0)
        k1 = 0.3 + 2.7 * (j + rng.uniform()) / pairs
        sp = lambda s_, a_=a_j, b_=b_j: solver_b.gauss_markov_spec(s_, a=a_, beta=b_)  # noqa: E731
        ps.add(f"pb{j}s", "lib performance_b",
               lambda sp=sp, s=s, k1=k1: solver_b.performance_b(sp(s), s * k1))
        ps.add(f"pb{j}u", "lib performance_b",
               lambda sp=sp, k1=k1: solver_b.performance_b(sp(1.0), k1))
        ps.check((f"pb{j}s", f"pb{j}u"), lambda ps_, pu, s=s: (
            _close(ps_.distortion, s * s * pu.distortion, SCALE_TOL)
            and _close(ps_.transmission_rate, pu.transmission_rate, SCALE_TOL),
            f"D {_fmt(ps_.distortion)} vs {_fmt(s * s * pu.distortion)}"))

    if known_failures:
        # documented CLI option that does not converge at the seed commit
        ps.add("abs", "cli solve B constrained abs-distortion",
               _cli(["solve", "--problem", "constrained", "--distortion", "abs",
                     "--sigma", rng.uniform(0.5, 2.0), "--alpha", alpha] + flags))
    return ps


# -- integer-exact ------------------------------------------------------------------


def random_pmf(rng: np.random.Generator, radius: int) -> model.IntegerPmf:
    """Symmetric unimodal pmf on -radius..radius with p_0 < 1."""
    w = np.sort(rng.uniform(0.05, 1.0, size=radius + 1))[::-1]
    w /= w[0] + 2.0 * w[1:].sum()
    probs = {0: float(w[0])}
    for n in range(1, radius + 1):
        probs[n] = probs[-n] = float(w[n])
    return model.IntegerPmf(probs)


def integer_exact(rng: np.random.Generator, index: int, known_failures: bool) -> Pass:
    """Model-A requests.  The seed draws step probabilities, signs of a and
    the pmf weights; sizes (k_max, threshold depths, pmf radii) are fixed
    or follow the request index, since the work grows with them."""
    ps = Pass()
    out = ps.outputs

    # reference-style table over three discount factors
    for i in range(2):
        p = rng.uniform(0.15, 0.32)
        k_max = _deep_k(p, 0.9, 20)
        ps.add(f"table{i}", "cli table",
               _cli(["table", "--p", p, "--betas", "0.9,0.95,1.0", "--k-max", k_max]))

        def table_ok(rec, p=p):
            ok, detail = _rows_match_bd(rec["rows"], p)
            worst = 0.0
            for r in rec["rows"]:
                if r["beta"] == 1.0 and r["k"] >= 1:
                    want = bd_corner_avg(p, r["k"])
                    worst = max(worst, abs(r["lambda"] - want) / want)
            return ok and worst <= CLOSED_FORM_TOL, f"{detail}; corner rel {worst:.2e}"

        ps.check((f"table{i}",), table_ok)

    # average-cost curves with k_max in the low hundreds, a = +-1
    for kind in ("costly", "constrained"):
        p = rng.uniform(0.05, 0.32)
        a = int(rng.choice([-1, 1]))
        ps.add(f"curve_{kind}", f"cli curve A {kind} beta=1",
               _cli(["curve", "--model", "A", "--kind", kind, "--p", p, "--beta", 1.0,
                     "--a", a, "--k-max", 120]))

        def curve_ok(rec, p=p, kind=kind):
            worst = 0.0
            for r in rec["rows"]:
                d, n = bd_dn(p, 1.0, r["k"])
                if kind == "costly":
                    lam = bd_corner_avg(p, r["k"])
                    worst = max(worst, abs(r["lambda"] - lam) / lam,
                                abs(r["C"] - (d + lam * n)) / (d + lam * n))
                else:
                    worst = max(worst, abs(r["alpha"] - n), abs(r["D"] - d))
            return worst <= CLOSED_FORM_TOL and len(rec["rows"]) == 120, f"worst {worst:.2e}"

        ps.check((f"curve_{kind}",), curve_ok)

    # discounted costly curve, k_max kept where N(k_max + 1) > 1e-12
    p = rng.uniform(0.1, 0.32)
    beta = (0.9, 0.95)[index % 2]
    a = int(rng.choice([-1, 1]))
    k_max = _deep_k(p, beta, 30)
    ps.add("curve_disc", "cli curve A costly discounted",
           _cli(["curve", "--model", "A", "--kind", "costly", "--p", p, "--beta", beta,
                 "--a", a, "--k-max", k_max]))

    def disc_ok(rec, p=p, beta=beta):
        worst = 0.0
        for r in rec["rows"]:
            k = r["k"]
            d0, n0 = bd_dn(p, beta, k)
            d1, n1 = bd_dn(p, beta, k + 1)
            lam = (d1 - d0) / (n0 - n1)
            # closed-form D, N carry ~1e-9 each; the price divides by the rate gap
            tol = CLOSED_FORM_TOL * (2.0 + 2.0 * lam) / (n0 - n1)
            cost = d0 + lam * n0
            if abs(r["lambda"] - lam) > tol or abs(r["C"] - cost) > tol * (1.0 + n0):
                worst = max(worst, abs(r["lambda"] - lam) / tol)
        return worst == 0.0, f"worst price error / tolerance {worst:.2e}"

    ps.check(("curve_disc",), disc_ok)

    # |a| = 2: dense path, checked against the DP oracle
    p = rng.uniform(0.1, 0.32)
    spec2 = lambda p=p: solver_a.bd_spec(p, 0.95, a=2)  # noqa: E731
    ps.add("curve_a2", "cli curve A costly a=2",
           _cli(["curve", "--model", "A", "--kind", "costly", "--p", p, "--beta", 0.95,
                 "--a", 2, "--k-max", 30]))
    for j, frac in enumerate(rng.uniform(0.0, 1.0, size=2)):
        row = lambda frac=frac: out["curve_a2"]["rows"][int(frac * len(out["curve_a2"]["rows"]))]  # noqa: E731
        ps.add(f"a2_fp{j}", "lib dp fixed point a=2",
               lambda row=row: dp.policy_evaluate_fixed_point(spec2(), row()["k"], tol=1e-10))
        ps.check(("curve_a2", f"a2_fp{j}"), lambda rec, fp, row=row: (
            _close(row()["C"], fp[0] + row()["lambda"] * fp[1], DP_TOL * (1.0 + row()["lambda"])),
            f"k={row()['k']}: C {_fmt(row()['C'])} vs DP {_fmt(fp[0] + row()['lambda'] * fp[1])}"))
    lam2 = rng.uniform(20.0, 200.0)
    ps.add("solve_a2", "cli solve A costly a=2",
           _cli(["solve", "--model", "A", "--problem", "costly", "--p", p, "--beta", 0.95,
                 "--a", 2, "--lambda", lam2]))
    ps.add("vi_a2", "lib dp value_iterate a=2", lambda: dp.value_iterate(spec2(), lam2))
    ps.check(("solve_a2", "vi_a2"), lambda rec, vi: (
        rec["rows"][0]["k"] == vi.threshold, f"k {rec['rows'][0]['k']} vs DP {vi.threshold}"))

    # deep thresholds: price doubling and the linear rate scan
    p = rng.uniform(0.05, 0.32)
    k_deep = 45
    lam = bd_corner_avg(p, k_deep) * rng.uniform(0.999, 1.0)
    ps.add("solve_costly", "cli solve A costly deep",
           _cli(["solve", "--model", "A", "--problem", "costly", "--p", p, "--beta", 1.0,
                 "--lambda", lam]))

    def costly_ok(rec, p=p, lam=lam):
        k = next(k for k in range(1, 10_000) if lam <= bd_corner_avg(p, k))
        d, n = bd_dn(p, 1.0, k)
        row = rec["rows"][0]
        return (row["k"] == k and _close(row["C"], d + lam * n, CLOSED_FORM_TOL),
                f"k {row['k']} vs {k}")

    ps.check(("solve_costly",), costly_ok)
    p = rng.uniform(0.05, 0.32)
    k_deep = 40
    n_hi, n_lo = bd_dn(p, 1.0, k_deep)[1], bd_dn(p, 1.0, k_deep + 1)[1]
    alpha = n_lo + rng.uniform(0.1, 0.9) * (n_hi - n_lo)
    ps.add("solve_constr", "cli solve A constrained deep",
           _cli(["solve", "--model", "A", "--problem", "constrained", "--p", p, "--beta", 1.0,
                 "--alpha", alpha]))

    def constr_ok(rec, p=p, k=k_deep, alpha=alpha):
        (d_hi, n_hi), (d_lo, n_lo) = bd_dn(p, 1.0, k), bd_dn(p, 1.0, k + 1)
        theta = (alpha - n_lo) / (n_hi - n_lo)
        d = theta * d_hi + (1.0 - theta) * d_lo
        row = rec["rows"][0]
        return (row["k"] == k and abs(row["theta"] - theta) <= 1e-6
                and abs(row["D"] - d) <= CLOSED_FORM_TOL * max(1.0, d),
                f"k {row['k']} vs {k}; D {_fmt(row['D'])} vs {_fmt(d)}")

    ps.check(("solve_constr",), constr_ok)

    # random symmetric unimodal pmfs through the library, checked by the DP oracle
    for j in range(20):
        pmf_spec = _random_spec_a(rng, j)
        k = 1 + j % 12
        ps.add(f"perf{j}", "lib solver_a.performance",
               lambda s=pmf_spec, k=k: solver_a.performance(s(), k))
        ps.add(f"fp{j}", "lib dp fixed point",
               lambda s=pmf_spec, k=k: dp.policy_evaluate_fixed_point(s(), k, tol=1e-10))
        ps.check((f"perf{j}", f"fp{j}"), lambda perf, fp: (
            abs(perf.distortion - fp[0]) <= DP_TOL and abs(perf.transmission_rate - fp[1]) <= DP_TOL,
            f"D {_fmt(perf.distortion)} vs {_fmt(fp[0])}"))
    for j in range(3):
        pmf_spec = _random_spec_a(rng, j)
        lam_j = rng.uniform(2.0, 40.0)
        ps.add(f"oc{j}", "lib solver_a.optimal_costly",
               lambda s=pmf_spec, lam=lam_j: solver_a.optimal_costly(s(), lam))
        ps.add(f"vi{j}", "lib dp value_iterate",
               lambda s=pmf_spec, lam=lam_j: dp.value_iterate(s(), lam))
        ps.check((f"oc{j}", f"vi{j}"), lambda oc, vi: (
            oc[0] == vi.threshold, f"k {oc[0]} vs DP {vi.threshold}"))

    for suite in ("tableI", "closed_forms", "dp"):
        ps.add(f"validate_{suite}", f"cli validate {suite}", _cli(["validate", "--suite", suite]))
        ps.check((f"validate_{suite}",), lambda rec: (
            all(r["passed"] for r in rec["rows"]), f"{len(rec['rows'])} checks"))
    return ps


def _random_spec_a(rng, j: int):
    """Random pmf weights and distortion; radius, a and beta cycle with j."""
    pmf = random_pmf(rng, 1 + j % 4)
    a = (-1, 1, 2)[j % 3]
    beta = (0.9, 0.95)[j % 2]
    quad = bool(rng.integers(2))
    return lambda: model.ModelSpecA(
        a=a, pmf=pmf,
        distortion=model.DistortionFn.quadratic() if quad else model.DistortionFn.absolute(),
        beta=beta)


# -- Monte-Carlo --------------------------------------------------------------------


def _mc_check(ps: Pass, key: str, d_want: float, n_want: float, n_exact: bool = False):
    """Estimate within MC_Z standard errors of the analytic value."""

    def z(est, want, se):
        if se > 0.0:
            return abs(est - want) / se
        return 0.0 if abs(est - want) <= 1e-12 * max(1.0, abs(want)) else math.inf

    def fn(rec):
        r = rec["rows"][0]
        zd = z(r["d_hat"], d_want, r["d_se"])
        zn = z(r["n_hat"], n_want, 0.0 if n_exact else r["n_se"])
        return (zd <= MC_Z and zn <= MC_Z,
                f"z_D {zd:.2f} (d {_fmt(r['d_hat'])} vs {_fmt(d_want)}); z_N {zn:.2f}")

    ps.check((key,), fn)


def _periodic_window(pattern, a, var_w, horizon, burn):
    """Exact mean quadratic distortion and rate of a periodic pattern over
    steps burn .. horizon - 1 (the pattern must transmit before the burn-in)."""
    period = len(pattern)
    d_sum = n_sum = 0.0
    var = 0.0  # error variance entering step t
    for t in range(horizon):
        send = pattern[t % period]
        if t >= burn:
            n_sum += send
            d_sum += 0.0 if send else var
        var = var_w if send else a * a * var + var_w
    steps = horizon - burn
    return d_sum / steps, n_sum / steps


def monte_carlo_long(rng: np.random.Generator, index: int, known_failures: bool) -> Pass:
    ps = Pass()
    horizon, burn, reps = 15_000, 1_000, 32
    common = ["--horizon", horizon, "--burn-in", burn, "--reps", reps, "--beta", 1.0]

    def sim(key, label, argv, d, n, n_exact=False):
        ps.add(key, label, _cli(["simulate", "--seed", int(rng.integers(2**31))] + argv + common))
        _mc_check(ps, key, d, n, n_exact)

    p = rng.uniform(0.15, 0.3)
    bd = solver_a.bd_spec(p, 1.0)
    A = ["--model", "A", "--p", p]
    k = int(rng.integers(2, 6))
    perf = solver_a.performance(bd, k)
    sim("a_threshold", "cli simulate A threshold", A + ["--policy", "threshold", "--k", k],
        perf.distortion, perf.transmission_rate)
    k = int(rng.integers(2, 5))
    theta = rng.uniform(0.2, 0.8)
    lo, hi = solver_a.performance(bd, k), solver_a.performance(bd, k + 1)
    sim("a_randomized", "cli simulate A randomized",
        A + ["--policy", "randomized", "--k", k, "--theta", theta],
        theta * lo.distortion + (1 - theta) * hi.distortion,
        theta * lo.transmission_rate + (1 - theta) * hi.transmission_rate)
    pattern = [1] + [int(x) for x in rng.integers(0, 2, size=int(rng.integers(2, 6)))]
    d, n = _periodic_window(pattern, 1.0, 2.0 * p, horizon, burn)
    sim("a_periodic", "cli simulate A periodic",
        A + ["--distortion", "quad", "--policy", "periodic",
             "--pattern", ",".join(map(str, pattern))], d, n, n_exact=True)
    alpha = rng.uniform(0.2, 0.6)
    sim("a_iid", "cli simulate A iid", A + ["--distortion", "quad", "--policy", "iid",
                                            "--alpha", alpha],
        (1 - alpha) * 2.0 * p / alpha, alpha)
    alpha = rng.uniform(0.08, 0.2)
    policy, d_star = solver_a.optimal_constrained(bd, alpha)
    theta_v = steering_visit_probability(bd, policy.k_star, policy.theta_star)
    sim("a_steering", "cli simulate A steering",
        A + ["--policy", "steering", "--k", policy.k_star, "--theta", theta_v], d_star, alpha)
    k = int(rng.integers(2, 4))
    sched = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
    lo, hi = solver_a.performance(bd, k), solver_a.performance(bd, k + 1)
    d, n = _time_sharing(lo, hi, sched)
    sim("a_timesharing", "cli simulate A time-sharing",
        A + ["--policy", "timesharing", "--k", k, "--schedule", f"{sched[0]}:{sched[1]}"], d, n)

    sigma = rng.uniform(0.5, 2.0)
    gm = solver_b.gauss_markov_spec(sigma)
    B = ["--model", "B", "--sigma", sigma]
    k = sigma * rng.uniform(0.5, 2.0)
    perf = solver_b.performance_b(gm, k)
    sim("b_threshold", "cli simulate B threshold", B + ["--policy", "threshold", "--k", k],
        perf.distortion, perf.transmission_rate)
    k = int(rng.integers(1, 3))
    theta = rng.uniform(0.2, 0.8)
    lo, hi = solver_b.performance_b(gm, k), solver_b.performance_b(gm, k + 1)
    sim("b_randomized", "cli simulate B randomized",
        B + ["--policy", "randomized", "--k", k, "--theta", theta],
        theta * lo.distortion + (1 - theta) * hi.distortion,
        theta * lo.transmission_rate + (1 - theta) * hi.transmission_rate)
    pattern = [1] + [int(x) for x in rng.integers(0, 2, size=int(rng.integers(2, 6)))]
    d, n = _periodic_window(pattern, 1.0, sigma * sigma, horizon, burn)
    sim("b_periodic", "cli simulate B periodic",
        B + ["--policy", "periodic", "--pattern", ",".join(map(str, pattern))], d, n, n_exact=True)
    alpha = rng.uniform(0.2, 0.6)
    sim("b_iid", "cli simulate B iid", B + ["--policy", "iid", "--alpha", alpha],
        (1 - alpha) * sigma * sigma / alpha, alpha)
    k = sigma * rng.uniform(0.5, 2.0)
    perf = solver_b.performance_b(gm, k)  # the boundary |e| = k has probability 0
    sim("b_steering", "cli simulate B steering",
        B + ["--policy", "steering", "--k", k, "--theta", rng.uniform(0.2, 0.8)],
        perf.distortion, perf.transmission_rate)
    k = sigma * rng.uniform(0.5, 1.5)
    sched = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
    lo, hi = solver_b.performance_b(gm, k), solver_b.performance_b(gm, k + 1)
    d, n = _time_sharing(lo, hi, sched)
    sim("b_timesharing", "cli simulate B time-sharing",
        B + ["--policy", "timesharing", "--k", k, "--schedule", f"{sched[0]}:{sched[1]}"], d, n)

    # --workers 1 vs --workers 2 rerun pair
    k = int(rng.integers(2, 6))
    seed = int(rng.integers(2**31))
    perf = solver_a.performance(bd, k)
    pair = ["simulate", "--model", "A", "--p", p, "--policy", "threshold", "--k", k,
            "--seed", seed] + common
    ps.add("workers1", "cli simulate A workers=1", _cli(pair + ["--workers", 1]))
    ps.add("workers2", "cli simulate A workers=2", _cli(pair + ["--workers", 2]))
    _mc_check(ps, "workers1", perf.distortion, perf.transmission_rate)
    ps.check(("workers1", "workers2"), lambda r1, r2: (
        r1["text"] == r2["text"], "byte-identical output across --workers"))

    ps.add("renewal", "cli validate renewal", _cli(["validate", "--suite", "renewal"]))
    ps.check(("renewal",), lambda rec: (
        all(r["passed"] for r in rec["rows"]), f"{len(rec['rows'])} checks"))
    return ps


def _time_sharing(lo, hi, sched):
    """Renewal-reward (D, N) of alternating a cycles at k and b cycles at k + 1."""
    a, b = sched
    m_lo, m_hi = 1.0 / lo.transmission_rate, 1.0 / hi.transmission_rate
    cycle = a * m_lo + b * m_hi
    d = (a * lo.distortion * m_lo + b * hi.distortion * m_hi) / cycle
    return d, (a + b) / cycle


def monte_carlo_wide(rng: np.random.Generator, index: int, known_failures: bool) -> Pass:
    ps = Pass()
    p = rng.uniform(0.15, 0.3)
    sigma = rng.uniform(0.5, 2.0)
    # Model A at one discount factor, so the median request falls inside one
    # group of equal cost; Model B covers both discount factors
    plan = [("A", kind, 0.9, 10_000) for kind in ("threshold", "randomized")] * 2
    plan += [("B", kind, beta, 10_000) for kind in ("threshold", "randomized")
             for beta in (0.9, 0.95)]
    plan += [("B", "threshold", 0.9, 50_000)] * 2
    for i, (mdl, kind, beta, reps) in enumerate(plan):
        if mdl == "A":
            spec = solver_a.bd_spec(p, beta)
            perf_of = lambda k, spec=spec: solver_a.performance(spec, k)  # noqa: E731
            argv = ["--model", "A", "--p", p]
            k = int(rng.integers(2, 5))  # k = 1 never leaves the origin: D = 0 exactly
        else:
            spec = solver_b.gauss_markov_spec(sigma, beta=beta)
            perf_of = lambda k, spec=spec: solver_b.performance_b(spec, k)  # noqa: E731
            argv = ["--model", "B", "--sigma", sigma]
            k = sigma * rng.uniform(0.5, 2.0) if kind == "threshold" else int(rng.integers(1, 3))
        argv += ["--beta", beta, "--reps", reps, "--seed", int(rng.integers(2**31))]
        if kind == "threshold":
            perf = perf_of(k)
            d, n = perf.distortion, perf.transmission_rate
            argv += ["--policy", "threshold", "--k", k]
        else:
            theta = rng.uniform(0.2, 0.8)
            lo, hi = perf_of(k), perf_of(k + 1)
            d = theta * lo.distortion + (1 - theta) * hi.distortion
            n = theta * lo.transmission_rate + (1 - theta) * hi.transmission_rate
            argv += ["--policy", "randomized", "--k", k, "--theta", theta]
        key = f"w{i}"
        ps.add(key, f"cli simulate {mdl} {kind} beta={beta} reps={reps}",
               _cli(["simulate"] + argv))
        _mc_check(ps, key, d, n)
    return ps


WORKLOADS = {
    "continuous-solve": (continuous_solve, 11),
    "integer-exact": (integer_exact, 12),
    "monte-carlo-long": (monte_carlo_long, 13),
    "monte-carlo-wide": (monte_carlo_wide, 14),
}


def build_pass(workload: str, seed: int, index: int, known_failures: bool = False) -> Pass:
    make, tag = WORKLOADS[workload]
    rng = np.random.default_rng([seed, index, tag])
    return make(rng, index, known_failures)
