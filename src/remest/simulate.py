"""Monte-Carlo simulation of the transmitter/channel/estimator loop.

The error process is simulated directly: a transmission resets it to a fresh
innovation, silence evolves it as ``E' = a E + W``.  This is step-for-step
identical to simulating the source and estimator and avoids state blow-up
for |a| > 1 between transmissions.

Every policy is one transmit rule ``rule(t, |e|) -> U``, and the time loop
is the same for all of them.  All replications advance together as one
vectorized block.  Replication r draws everything from the stream seeded by
``[seed, r]``: its innovations first, then its policy randomness (the
per-step coins of ``iid_random`` or the one mixture draw of
``randomized_threshold``), so a fixed seed gives bit-identical results.
The per-step draws are held in memory at once, so runs above
``MAX_SIM_CELLS`` float64 cells are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

import numpy as np

from .errors import DivergenceError, NumericsError, UsageError
from .model import ModelSpecA, ModelSpecB

# cap on the float64 cells of per-step draws (innovations, iid coins) held by
# one run: 800 MB
MAX_SIM_CELLS = 10**8

PolicyKind = Literal[
    "threshold",
    "randomized_threshold",
    "periodic",
    "iid_random",
    "steering",
    "time_sharing",
]


@dataclass(frozen=True)
class PolicySpec:
    """Transmission policy for the simulator.

    ``threshold``            transmit iff |e| >= k
    ``randomized_threshold`` strategy mixture: each replication runs k with
                             probability theta, else k + 1
    ``periodic``             transmit per a fixed 0/1 pattern, state-blind
    ``iid_random``           transmit w.p. alpha each step, state-blind
    ``steering``             threshold k with deterministic frequency
                             tracking toward split theta at |e| = k
    ``time_sharing``         alternate k and k + 1 over transmission-delimited
                             cycles per a schedule of (a_m, b_m) cycle counts
    """

    kind: PolicyKind
    k: float | None = None
    theta: float | None = None
    pattern: tuple[int, ...] | None = None
    alpha: float | None = None
    schedule: tuple[tuple[int, int], ...] | None = None

    @classmethod
    def threshold(cls, k: float) -> "PolicySpec":
        if not (k >= 0.0):
            raise UsageError(f"threshold must be nonnegative, got {k}")
        return cls(kind="threshold", k=float(k))

    @classmethod
    def randomized_threshold(cls, k: int, theta: float) -> "PolicySpec":
        if k < 0:
            raise UsageError(f"threshold must be nonnegative, got {k}")
        if not 0.0 <= theta <= 1.0:
            raise UsageError(f"theta must lie in [0, 1], got {theta}")
        return cls(kind="randomized_threshold", k=float(k), theta=float(theta))

    @classmethod
    def periodic(cls, pattern: Sequence[int]) -> "PolicySpec":
        pattern = tuple(int(u) for u in pattern)
        if not pattern or any(u not in (0, 1) for u in pattern):
            raise UsageError("pattern must be a nonempty sequence of 0/1 flags")
        return cls(kind="periodic", pattern=pattern)

    @classmethod
    def periodic_one_in(cls, period: int) -> "PolicySpec":
        """Transmit once, then stay silent for period - 1 steps."""
        if period < 1:
            raise UsageError(f"period must be >= 1, got {period}")
        return cls.periodic((1,) + (0,) * (period - 1))

    @classmethod
    def periodic_all_but_one(cls, period: int) -> "PolicySpec":
        """Stay silent one step, then transmit for period - 1 steps."""
        if period < 2:
            raise UsageError(f"period must be >= 2, got {period}")
        return cls.periodic((0,) + (1,) * (period - 1))

    @classmethod
    def iid_random(cls, alpha: float) -> "PolicySpec":
        if not 0.0 < alpha <= 1.0:
            raise UsageError(f"alpha must lie in (0, 1], got {alpha}")
        return cls(kind="iid_random", alpha=float(alpha))

    @classmethod
    def steering(cls, k: float, theta: float) -> "PolicySpec":
        if not 0.0 <= theta <= 1.0:
            raise UsageError(f"theta must lie in [0, 1], got {theta}")
        return cls(kind="steering", k=float(k), theta=float(theta))

    @classmethod
    def time_sharing(
        cls, k: float, schedule: Sequence[tuple[int, int]]
    ) -> "PolicySpec":
        sched = tuple((int(a), int(b)) for a, b in schedule)
        if not sched:
            raise UsageError("schedule must be nonempty")
        if any(a < 0 or b < 0 or a + b < 1 for a, b in sched):
            raise UsageError("schedule entries must be nonnegative with a + b >= 1")
        return cls(kind="time_sharing", k=float(k), schedule=sched)


@dataclass(frozen=True)
class SimConfig:
    """Replication count, seed and stopping rules.

    ``horizon`` and ``burn_in`` govern average-cost runs; discounted runs
    stop once the discount weight falls below ``discount_truncation_tol``.
    """

    horizon: int = 100_000
    replications: int = 200
    seed: int = 0
    burn_in: int = 1000
    discount_truncation_tol: float = 1e-10

    def __post_init__(self):
        if self.horizon < 1 or self.replications < 1:
            raise UsageError("horizon and replications must be >= 1")
        if self.burn_in < 0 or self.burn_in >= self.horizon:
            raise UsageError("burn-in must satisfy 0 <= burn_in < horizon")
        if not 0.0 < self.discount_truncation_tol < 1.0:
            raise UsageError("discount truncation tolerance must lie in (0, 1)")


@dataclass(frozen=True)
class SimResult:
    """Empirical distortion and transmission rate with standard errors."""

    d_hat: float
    n_hat: float
    d_se: float
    n_se: float
    replications_used: int
    stream_id: str
    steps_per_replication: int


def _transmit_rule(policy: PolicySpec, n: int, T: int, draws: np.ndarray):
    """Transmit decisions ``rule(t, abs_e) -> U`` of ``n`` replications run
    for ``T`` steps.

    ``draws`` is the policy randomness: per-step uniforms (n, T) for
    ``iid_random``, one uniform per replication for ``randomized_threshold``.
    Steering counters and the time-sharing cycle position live in the
    closure, so a rule serves one run.
    """
    kind = policy.kind
    k = policy.k
    if kind == "threshold":
        return lambda t, abs_e: abs_e >= k
    if kind == "randomized_threshold":
        k_rep = np.where(draws < policy.theta, k, k + 1.0)
        return lambda t, abs_e: abs_e >= k_rep
    if kind == "periodic":
        pattern = policy.pattern
        return lambda t, abs_e: np.full(n, bool(pattern[t % len(pattern)]))
    if kind == "iid_random":
        return lambda t, abs_e: draws[:, t] < policy.alpha
    if kind == "steering":
        theta = policy.theta
        counts = np.zeros((2, n))  # boundary visits kept silent / transmitted

        def steer(t, abs_e):
            # vector form of steering_policy_step
            boundary = abs_e == k
            tot = counts[0] + counts[1] + 1.0
            pick_tx = theta - (counts[1] + 1.0) / tot >= (1.0 - theta) - (counts[0] + 1.0) / tot
            counts[0] += boundary & ~pick_tx
            counts[1] += boundary & pick_tx
            return (abs_e > k) | (boundary & pick_tx)

        return steer
    # time_sharing: one threshold per transmission-delimited cycle, k for a_m
    # cycles then k + 1 for b_m cycles; each transmission ends a cycle.  At
    # most T cycles fit in T steps, so longer phases are cut there.
    cycle_k = np.repeat([k, k + 1.0] * len(policy.schedule),
                        np.minimum(np.ravel(policy.schedule), T))
    pos = np.zeros(n, dtype=np.int64)

    def share(t, abs_e):
        nonlocal pos
        U = abs_e >= cycle_k[pos]
        pos = (pos + U) % len(cycle_k)
        return U

    return share


def _run_block(spec, policy: PolicySpec, config: SimConfig, T: int, burn: int,
               weights: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Simulate all replications as one block; returns per-replication (d, n)."""
    n = config.replications
    a = spec.a
    distortion = spec.distortion
    model_a = isinstance(spec, ModelSpecA)
    if model_a:
        offsets = spec.pmf.offsets
        values = spec.pmf.values
    W = np.empty((n, T))
    # policy randomness, drawn after each replication's innovations
    draws = np.empty({"iid_random": (n, T), "randomized_threshold": (n,)}.get(policy.kind, 0))
    for r in range(n):
        rng = np.random.default_rng([config.seed, r])
        if model_a:
            W[r] = rng.choice(offsets, size=T, p=values)
        else:
            W[r] = spec.pdf.sampler(rng, T)
        if draws.size:
            draws[r] = rng.random(draws.shape[1:])
    rule = _transmit_rule(policy, n, T, draws)

    E = np.zeros(n)
    d_acc = np.zeros(n)
    u_acc = np.zeros(n)
    for t in range(T):
        U = rule(t, np.abs(E))
        if weights is not None:
            w = weights[t]
            d_acc += w * np.where(U, 0.0, distortion(E))
            u_acc += w * U
        elif t >= burn:
            d_acc += np.where(U, 0.0, distortion(E))
            u_acc += U
        E = np.where(U, W[:, t], a * E + W[:, t])

    if weights is not None:
        return d_acc, u_acc
    steps = T - burn
    return d_acc / steps, u_acc / steps


def simulate(spec: ModelSpecA | ModelSpecB, policy: PolicySpec,
             config: SimConfig) -> SimResult:
    """Estimate (D, N) of a policy by independent replications.

    Discounted runs return normalized discounted sums truncated where the
    discount weight drops below the configured tolerance; average-cost runs
    return time averages after the burn-in.  A never-transmit policy (k = inf
    or an all-zero pattern) raises ``DivergenceError`` in the average-cost
    regime with |a| >= 1, where its distortion is infinite.  Estimates that
    come out non-finite, as when the state of an unstable source overflows
    below a huge threshold, raise ``NumericsError``.
    """
    never = ((policy.k is not None and math.isinf(policy.k))
             or (policy.pattern is not None and not any(policy.pattern)))
    if never and spec.beta.is_average and abs(spec.a) >= 1:
        raise DivergenceError("never-transmit average distortion diverges for |a| >= 1")
    if never and abs(spec.a) >= 2:
        raise NumericsError("never-transmit simulation with |a| >= 2 overflows the state")
    if (isinstance(spec, ModelSpecA) and policy.k is not None
            and not math.isinf(policy.k) and policy.k != int(policy.k)):
        raise UsageError("integer-state thresholds must be integers")

    beta = spec.beta
    if beta.is_average:
        T, burn = config.horizon, config.burn_in
    else:
        T = max(1, math.ceil(math.log(config.discount_truncation_tol) / math.log(beta)))
        burn = 0
    R = config.replications
    cells = R * T * (2 if policy.kind == "iid_random" else 1)
    if cells > MAX_SIM_CELLS:
        raise UsageError(
            f"{R} replications x {T} steps need {cells:.3g} float64 cells of draws, "
            f"above the cap of {MAX_SIM_CELLS:.0e}; lower the replications or the horizon"
        )
    weights = None if beta.is_average else (1.0 - beta) * beta ** np.arange(T)

    d_rep, n_rep = _run_block(spec, policy, config, T, burn, weights)
    d_hat = float(np.mean(d_rep))
    n_hat = float(np.mean(n_rep))
    if R > 1:
        d_se = float(np.std(d_rep, ddof=1) / math.sqrt(R))
        n_se = float(np.std(n_rep, ddof=1) / math.sqrt(R))
    else:
        d_se = n_se = 0.0
    if not all(math.isfinite(x) for x in (d_hat, d_se, n_hat, n_se)):
        raise NumericsError(
            f"simulated estimates are not finite (d_hat={d_hat:.3g}, d_se={d_se:.3g}, "
            f"n_hat={n_hat:.3g}, n_se={n_se:.3g}); the simulated distortion overflowed"
        )
    return SimResult(
        d_hat=d_hat,
        n_hat=n_hat,
        d_se=d_se,
        n_se=n_se,
        replications_used=R,
        stream_id=f"pcg64[{config.seed},r]",
        steps_per_replication=T,
    )


# --- state-blind baselines ----------------------------------------------------


def periodic_distortion(alpha: float, sigma: float, family: str) -> float:
    """Average distortion of the two canonical periodic patterns
    (random-walk source, quadratic distortion).

    ``one_in_T``     transmit once every T = 1/alpha steps
    ``all_but_one``  silent one step in every T = 1/(1 - alpha) steps
    """
    if family == "one_in_T":
        T = 1.0 / alpha
        if abs(T - round(T)) > 1e-9:
            raise UsageError(f"one_in_T needs alpha = 1/T for integer T, got {alpha}")
        return sigma * sigma / 2.0 * (1.0 / alpha - 1.0)
    if family == "all_but_one":
        T = 1.0 / (1.0 - alpha)
        if abs(T - round(T)) > 1e-9:
            raise UsageError(
                f"all_but_one needs alpha = (T-1)/T for integer T, got {alpha}"
            )
        return sigma * sigma * (1.0 - alpha)
    raise UsageError(f"unknown periodic family {family!r}")


def stationary_stopping_distortion(
    tau_mean: float, tau_second_moment: float, sigma: float
) -> float:
    """Average distortion of any state-blind stationary policy whose
    inter-transmission time has the given first two moments
    (random-walk source, quadratic distortion)."""
    if tau_mean < 1.0:
        raise UsageError(f"mean stopping time must be >= 1, got {tau_mean}")
    if tau_second_moment < tau_mean * tau_mean:
        raise UsageError("second moment below the squared mean")
    return sigma * sigma / 2.0 * (tau_second_moment / tau_mean - 1.0)


# --- deterministic implementations of the randomized optimum -------------------


def steering_policy_step(
    counters: tuple[float, float], e: float, k: float, theta: float
) -> tuple[int, tuple[float, float]]:
    """One decision of the frequency-steering rule.

    At |e| = k the action whose target share is most under-served (judged
    after counting the candidate decision) is chosen, ties transmitting;
    elsewhere the threshold rule applies.  Counters advance only at |e| = k.
    """
    a0, a1 = counters
    if abs(e) == k:
        tot = a0 + a1 + 1.0
        if theta - (a1 + 1.0) / tot >= (1.0 - theta) - (a0 + 1.0) / tot:
            return 1, (a0, a1 + 1.0)
        return 0, (a0 + 1.0, a1)
    return (1 if abs(e) > k else 0), (a0, a1)


def time_sharing_schedule(
    alpha: float, n_k: float, n_k1: float, theta: float, depth: int = 3
) -> list[tuple[int, int]]:
    """Constant cycle-count schedule (a, b) whose cycle fraction a/(a+b) best
    approximates theta * n_k / alpha with denominator <= 10**depth."""
    if n_k <= n_k1:
        raise UsageError("n_k must exceed n_k1")
    if not 0.0 <= theta <= 1.0:
        raise UsageError(f"theta must lie in [0, 1], got {theta}")
    ratio = theta * n_k / alpha
    if not 0.0 <= ratio <= 1.0 + 1e-12:
        raise UsageError(f"cycle fraction {ratio} falls outside [0, 1]")
    frac = Fraction(min(ratio, 1.0)).limit_denominator(10 ** depth)
    a = frac.numerator
    b = frac.denominator - frac.numerator
    if a + b == 0:
        a, b = 0, 1
    return [(a, b)]


def stationary_threshold_distribution(
    spec: ModelSpecA, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stationary law of the error process under the threshold-k policy
    (average-cost regime).  Returns (states, probabilities)."""
    if not spec.beta.is_average:
        raise UsageError("stationary distributions require beta = 1")
    if k < 0:
        raise UsageError(f"threshold must be nonnegative, got {k}")
    r = spec.pmf.radius
    m = max(abs(spec.a) * max(k - 1, 0) + r, r)
    states = np.arange(-m, m + 1)
    dim = len(states)
    probs = spec.pmf.probs
    P = np.zeros((dim, dim))
    for i, e in enumerate(states):
        origin = spec.a * int(e) if abs(e) < k else 0
        for w, pw in probs.items():
            nxt = origin + w
            if abs(nxt) > m:
                raise NumericsError("stationary support bound violated")
            P[i, nxt + m] += pw
    A = np.vstack([P.T - np.eye(dim), np.ones(dim)])
    b = np.zeros(dim + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    if pi.min() < -1e-12:
        raise NumericsError(f"stationary distribution has negative mass {pi.min():.3g}")
    pi /= pi.sum()
    return states, pi


def steering_visit_probability(
    spec: ModelSpecA, k_star: int, theta_star: float
) -> float:
    """Per-visit transmit share at |e| = k_star that realizes the mixture of
    the k_star and k_star + 1 threshold policies with weight theta_star.

    The mixture weight applies to whole strategies; conditioning on being at
    the boundary reweights it by each strategy's stationary boundary mass.
    """
    if not 0.0 <= theta_star <= 1.0:
        raise UsageError(f"theta_star must lie in [0, 1], got {theta_star}")
    if theta_star in (0.0, 1.0):
        return theta_star
    states_lo, pi_lo = stationary_threshold_distribution(spec, k_star)
    states_hi, pi_hi = stationary_threshold_distribution(spec, k_star + 1)
    w_lo = float(np.sum(pi_lo[np.abs(states_lo) == k_star]))
    w_hi = float(np.sum(pi_hi[np.abs(states_hi) == k_star]))
    num = theta_star * w_lo
    den = num + (1.0 - theta_star) * w_hi
    if den <= 0.0:
        raise NumericsError("boundary state has zero stationary mass")
    return num / den
