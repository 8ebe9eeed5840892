"""Independent reference routes, each defined once and called by no solver:
the published table of the birth-death instance with p = 0.3, the
birth-death closed forms, the Gaussian a = 0 form and the state-blind
baselines' renewal-reward distortion.

Table rows are (k, D, N, corner price) rounded to four decimals, for k = 0..10
and each discount factor; the k = 0 corner price is undefined (dash).  One
cell is corrected: the average-cost distortion at k = 10 as printed is 3.0000,
but the instance's own closed form (k^2 - 1) / (3 k) gives 3.3000, and the
printed corner prices at k = 9 and 10 are consistent only with 3.3000 (e.g.
(3.3000 - 2.9630) / (0.0074 - 0.0060) = 239.47...).  The printed 3.0000 is a
transcription slip, so 3.3000 is stored here.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UsageError
from .model import (DiscountFactor, ModelSpecB, PerfPoint, birth_death_parameter,
                    integer_at_least, real_in)
from .simulate import PolicySpec

BD_REFERENCE_P = 0.3

#: beta -> list of (k, D, N, corner_price_or_None)
BD_REFERENCE: dict[float, list[tuple[int, float, float, float | None]]] = {
    0.9: [
        (0, 0.0, 1.0, None),
        (1, 0.0, 0.5400, 1.0989),
        (2, 0.4576, 0.1236, 4.1021),
        (3, 0.7695, 0.0475, 9.2839),
        (4, 1.0066, 0.0220, 16.2509),
        (5, 1.1844, 0.0111, 24.4478),
        (6, 1.3130, 0.0058, 33.4121),
        (7, 1.4029, 0.0031, 42.8289),
        (8, 1.4638, 0.0017, 52.5042),
        (9, 1.5040, 0.0009, 62.3245),
        (10, 1.5298, 0.0005, 72.2255),
    ],
    0.95: [
        (0, 0.0, 1.0, None),
        (1, 0.0, 0.5700, 1.1050),
        (2, 0.4790, 0.1365, 4.3657),
        (3, 0.8282, 0.0565, 10.6058),
        (4, 1.1218, 0.0288, 19.9550),
        (5, 1.3715, 0.0163, 32.0869),
        (6, 1.5811, 0.0098, 46.4727),
        (7, 1.7536, 0.0061, 62.5651),
        (8, 1.8927, 0.0039, 79.8921),
        (9, 2.0028, 0.0025, 98.0854),
        (10, 2.0884, 0.0016, 116.8739),
    ],
    1.0: [
        (0, 0.0, 1.0, None),
        (1, 0.0, 0.6000, 1.1111),
        (2, 0.5000, 0.1500, 4.6667),
        (3, 0.8889, 0.0667, 12.3810),
        (4, 1.2500, 0.0375, 25.9259),
        (5, 1.6000, 0.0240, 46.9697),
        (6, 1.9444, 0.0167, 77.1795),
        (7, 2.2857, 0.0122, 118.2222),
        (8, 2.6250, 0.0094, 171.7647),
        (9, 2.9630, 0.0074, 239.4737),
        (10, 3.3000, 0.0060, 323.0159),  # printed as 3.0000; see module docstring
    ],
}

#: lambda -> optimal threshold of the costly problem at beta = 0.9.  The
#: printed corner prices place each lambda inside one threshold's interval;
#: lambda = 40 lies strictly inside the k = 7 interval (33.4121, 42.8289].
BD_COSTLY_THRESHOLDS: dict[float, int] = {2.0: 2, 10.0: 4, 20.0: 5, 40.0: 7}

#: Worked-example targets for the p = 0.3, beta = 0.9 instance.
WORKED_COSTLY_PRICE = 20.0
WORKED_COSTLY_K = 5
WORKED_COSTLY_COST = 1.4064  # arithmetic on the 4-decimal table entries
WORKED_CONSTRAINED_ALPHA = 0.1
WORKED_CONSTRAINED_K = 2
WORKED_CONSTRAINED_THETA = 0.6899
WORKED_CONSTRAINED_D = 0.5543


# the birth-death silent system is tridiagonal, with a closed-form inverse:
# hyperbolic in k at beta < 1, polynomial at beta = 1
def _m_param(p: float, beta: float) -> float:
    return math.acosh(1.0 + (1.0 - beta) / (2.0 * beta * p))


def bd_closed_form(p: float, beta: float, k: int) -> PerfPoint:
    """Closed-form (D, N) of the threshold-k policy on the birth-death instance."""
    p, k = birth_death_parameter(p), integer_at_least(k, 1)
    beta = DiscountFactor(beta)
    if beta.is_average:
        D = (k * k - 1.0) / (3.0 * k)
        N = 2.0 * p / (k * k)
    else:
        # with q = exp(-k m):  N = (1 - beta) / (cosh km - 1) = 2 (1 - beta) q / (1 - q)^2,
        # D = (sinh km - k sinh m) / ((cosh km - 1) sinh m)
        #   = (1 - q^2 - k (q e^m - q e^-m)) / ((1 - q)^2 sinh m),
        # each 1 - e^-x taken as -expm1(-x): nothing overflows, N has no
        # cancelling difference, and D(1) = 0 exactly
        m = _m_param(p, beta)
        one_q = -math.expm1(-k * m)
        num = -math.expm1(-2.0 * k * m) + k * (
            math.expm1(-(k + 1) * m) - math.expm1(-(k - 1) * m))
        D = num / (one_q * one_q * math.sinh(m))
        N = 2.0 * (1.0 - beta) * math.exp(-k * m) / (one_q * one_q)
    return PerfPoint(distortion=D, transmission_rate=N)


def bd_corner_lambda_avg(p: float, k: int) -> float:
    """Average-cost corner price of the birth-death instance, in closed form."""
    p, k = birth_death_parameter(p), integer_at_least(k, 1)
    return k * (k + 1.0) * (k * k + k + 1.0) / (6.0 * p * (2.0 * k + 1.0))


def bd_q_entry(p: float, beta: float, k: int, i: int, j: int) -> float:
    """Entry (i, j) of the inverse silent-system matrix for the birth-death
    instance, via the closed-form inverse of the symmetric tridiagonal matrix."""
    p, k = birth_death_parameter(p), integer_at_least(k, 1)
    i, j = (integer_at_least(x, -math.inf, "index") for x in (i, j))
    if not (abs(i) < k and abs(j) < k):
        raise UsageError(f"indices must lie in the silent set of k={k}")
    beta = DiscountFactor(beta)
    if beta.is_average:
        return (k - max(i, j)) * (k + min(i, j)) / (2.0 * p * k)
    m = _m_param(p, beta)
    num = math.cosh((2.0 * k - abs(i - j)) * m) - math.cosh((i + j) * m)
    return num / (2.0 * beta * p * math.sinh(m) * math.sinh(2.0 * k * m))


def gauss_reset_lm(spec: ModelSpecB, k: float) -> tuple[float, float]:
    """L(0) and M(0) of threshold k at a = 0 for Gaussian innovations and
    quadratic or absolute distortion d.  The error resets to W every step, so
    M(0) = 1 / (1 - beta + beta P(|W| >= k)) and L(0) = beta E[d(W); |W| < k] M(0),
    with P(|W| >= k) = 2 P(W > k) from the law's own ``tail``: nothing cancels."""
    kind, sigma, beta = spec.distortion.kind, spec.pdf.sigma, spec.beta
    if spec.a != 0.0 or spec.pdf.kind != "gaussian" or kind == "custom":
        raise UsageError("the a = 0 form needs a = 0, Gaussian innovations and a quadratic "
                         "or absolute distortion")
    k = real_in(k, "(0, inf)", "threshold")
    escape = 2.0 * float(spec.pdf.tail(k))
    if kind == "quadratic":  # E[W^2; |W| < k] = sigma^2 P(|W| < k) - 2 sigma^2 k f(k)
        moment = sigma * sigma * (1.0 - escape - 2.0 * k * float(spec.pdf.density(k)))
    else:  # E[|W|; |W| < k] = 2 sigma^2 (f(0) - f(k))
        moment = -2.0 * sigma * math.expm1(-0.5 * (k / sigma) ** 2) / math.sqrt(2.0 * math.pi)
    M0 = 1.0 / (1.0 - beta + beta * escape)
    return beta * moment * M0, M0


def state_blind_distortion(policy: PolicySpec, sigma: float) -> float:
    """Average distortion sigma^2 E[tau (tau - 1)] / (2 E[tau]) of a
    state-blind policy whose inter-transmission time is tau (renewal reward;
    random-walk source a = 1, innovations of standard deviation sigma,
    quadratic distortion).

    ``iid_random``  tau is geometric: E[tau] = 1/alpha, E[tau^2] = (2 - alpha)/alpha^2
    ``periodic``    tau runs over the gaps between the sends of one period
    """
    sigma = real_in(sigma, "(0, inf)", "sigma")
    if policy.kind == "iid_random":
        alpha = policy.alpha
        tau_mean, tau_m2 = 1.0 / alpha, (2.0 - alpha) / alpha ** 2
    elif policy.kind == "periodic" and any(policy.pattern):
        sends = np.flatnonzero(policy.pattern)
        gaps = np.diff(sends, append=sends[0] + len(policy.pattern))
        tau_mean, tau_m2 = float(gaps.mean()), float(np.mean(gaps * gaps))
    else:
        raise UsageError("a state-blind distortion needs an iid_random policy or a "
                         f"periodic pattern that transmits, got {policy.kind}")
    return sigma * sigma / 2.0 * (tau_m2 / tau_mean - 1.0)
