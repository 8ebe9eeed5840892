"""Dynamic-programming verification oracle for the integer-state model.

A transmission resets the error to a fresh innovation, so the value of
transmitting, lam + beta E V(W), is the same at every error.  The threshold-k
policy therefore runs on one exact chain: its silent states -(k - 1)..k - 1
plus one transmit state whose row restarts at W, where every successor beyond
+-(k - 1) lands.  The chain's one-step law is a ``(2 k, m)`` array of
successor indices sharing the ``m`` pmf weights; it is scattered into a dense
matrix P, and sum_t beta^t P^t c for the two-column cost c (D and N) is summed
by repeated squaring, the number of squarings fixed in advance by the
remainder bound beta^(2^j) max|c| / (1 - beta).  That is the oracle's one
numerical kernel, and ``policy_evaluate_fixed_point`` reads one row of it.

``value_iterate`` solves the costly-communication problem by policy
iteration over thresholds on the same kernel: evaluate the threshold, take
the greedy policy of its values on the window |e| <= W, W = k_cap + r with
k_cap = ``MAX_FIXED_POINT_STATES`` // 2 and r the pmf radius, and move the
threshold until the greedy policy is the threshold rule itself.  Beyond W
every successor leaves the silent set of any k <= k_cap, so the silent cost
there is d(e) plus a constant: a greedy policy that transmits at +-W
transmits at every farther state, and the window certifies the threshold on
all of Z.  The oracle makes no linear solve; it is discounted-only, and
beta = 1 has no DP route yet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, NumericsError, UsageError
from .model import ModelSpecA, integer_at_least, real_in

# the oracle's values are within half of this of the exact fixed point
_TOL = 1e-10

#: Largest state count (2 k) that the oracle squares as one dense matrix, at
#: O(n^3) per squaring, so k <= 256 for any pmf; it is also the reach of
#: ``value_iterate``, which certifies thresholds up to 256.  On a 2-core Xeon
#: with one BLAS thread, 512 states (birth-death law) take 29-117 ms at
#: p = 0.3 for beta in [0.5, 0.9999], and up to 0.27 s at p = 0.01,
#: beta = 0.999 (0.31-0.42 s at 0.9999), where the products reach subnormal
#: entries; 1024 states take 0.4-0.7 s at p = 0.3 and 2.0-2.4 s at p = 0.01.
MAX_FIXED_POINT_STATES = 512


@dataclass(frozen=True)
class TruncatedDP:
    """Values of the optimal threshold on the window -W..W, W = len(values) // 2;
    its greedy policy is the threshold rule there and provably beyond."""

    values: np.ndarray
    threshold: int
    iterations: int


def step_operator(spec: ModelSpecA, bound: int) -> np.ndarray:
    """Successor indices of the one-step law over -bound..bound and the transmit state.

    Row i lists the successors of the silent state ``i - bound``, which sends
    e to a e + W; the last row, index ``2 bound + 1``, is the transmit state,
    which restarts at W.  Column j is the successor reached by the pmf item j,
    weighted by ``spec.pmf.values[j]``.  Successors beyond +-bound go to the
    transmit state.
    """
    origin = np.append(spec.clipped_a(bound + 1) * np.arange(-bound, bound + 1), 0)
    nxt = origin[:, None] + spec.pmf.offsets
    return np.where(np.abs(nxt) <= bound, nxt + bound, 2 * bound + 1)


def _discounted_sums(spec: ModelSpecA, k: int, tol: float) -> np.ndarray:
    """(D, N) columns of the threshold-k policy (k >= 1) from each of its 2 k
    states: the silent states -(k - 1)..k - 1, then the transmit state.

    With Q = beta P and S = c, each step S <- S + Q S, Q <- Q Q doubles the
    number of terms of sum_t beta^t P^t c that S holds; after j steps the rest
    is at most beta^(2^j) max|c| / (1 - beta), and the steps stop at the first
    j where that is <= tol / 2.
    """
    beta = spec.beta
    n = 2 * k
    succ = step_operator(spec, k - 1)
    cells = (n * np.arange(n)[:, None] + succ).ravel()
    Q = beta * np.bincount(cells, np.tile(spec.pmf.values, n), minlength=n * n).reshape(n, n)
    # the two columns are D and N: silent rows cost d(e), the transmit row one transmission
    S = np.zeros((n, 2))
    S[:-1, 0] = spec.distortion(np.arange(1 - k, k))
    S[-1, 1] = 1.0
    S *= 1.0 - beta
    scale = float(np.max(np.abs(S))) / (1.0 - beta)
    steps = 0
    while beta ** 2 ** steps * scale > tol / 2.0:
        steps += 1
    for j in range(steps):
        if j:
            Q = Q @ Q
        S += Q @ S
    return S


def value_iterate(spec: ModelSpecA, lam: float) -> TruncatedDP:
    """Solve the costly-communication dynamic program by policy iteration.

    From k = 1, evaluate the threshold-k policy to within 1e-10 / 2, take its
    greedy policy on the window, and stop when that is the threshold-k rule;
    otherwise move k to the greedy policy's nearest transmit state, at most
    2 k, or to 2 k when the window holds none.  An action changes only where
    the other gains more than the values' slack 1e-10 (1 + max V), so a tie
    keeps the threshold-k rule (Puterman 1994, sec. 6.4).
    """
    beta = spec.beta
    if beta.is_average:
        raise UsageError("policy iteration requires beta < 1")
    lam = real_in(lam, "[0, inf)", "transmission price")
    cap = MAX_FIXED_POINT_STATES // 2
    W = cap + spec.pmf.radius
    states = np.arange(-W, W + 1)
    silent_succ = spec.clipped_a(W + 1) * states[:, None] + spec.pmf.offsets
    d_cost = (1.0 - beta) * spec.distortion(states)
    w = spec.pmf.values
    k, tried = 1, []
    while True:
        tried.append(k)
        X = _discounted_sums(spec, k, _TOL / (1.0 + lam)) @ (1.0, lam)

        def V(e):
            """Values of the threshold-k policy at the errors e."""
            return X[np.where(np.abs(e) < k, e + k - 1, 2 * k - 1)]

        v_tx = (1.0 - beta) * lam + beta * float(V(spec.pmf.offsets) @ w)
        gain = d_cost + beta * (V(silent_succ) @ w) - v_tx
        slack = _TOL * (1.0 + float(np.max(X)))
        rule = np.abs(states) >= k
        transmit = np.where(np.abs(gain) <= slack, rule, gain > 0.0)
        if np.array_equal(transmit, rule):
            break
        k_next = int(np.min(np.abs(states[transmit]), initial=2 * k))
        if k_next > cap:
            if k == cap:
                raise CapacityError(f"price {lam}: policy iteration moves past threshold {cap}, "
                                    f"the reach of the cap {MAX_FIXED_POINT_STATES} states")
            k_next = cap
        if k_next in tried:
            raise NumericsError(f"policy iteration at price {lam} returned to threshold {k_next}")
        k = k_next

    values = V(states)
    if float(np.max(np.abs(values - values[::-1]))) > slack:
        raise NumericsError("values are not even in the state")
    if np.any(np.diff(values[W:]) < -slack):
        raise NumericsError("values are not monotone on e >= 0")
    return TruncatedDP(values=values, threshold=k, iterations=len(tried))


def policy_evaluate_fixed_point(spec: ModelSpecA, k: int,
                                tol: float = _TOL) -> tuple[float, float]:
    """(D, N) of the threshold-k policy by summing its discounted series.

    Independent of the renewal route: no pre-transmission functionals and no
    linear solves, only the policy's own one-step matrix on its 2 k states,
    summed to within tol / 2.
    """
    if spec.beta.is_average:
        raise UsageError("fixed-point evaluation requires beta < 1")
    k = integer_at_least(k)
    tol = real_in(tol, "(0, inf)", "tolerance")
    if k == 0:
        return 0.0, 1.0
    if 2 * k > MAX_FIXED_POINT_STATES:
        raise CapacityError(f"threshold {k}: {2 * k} states, past the cap {MAX_FIXED_POINT_STATES}")
    d, n = _discounted_sums(spec, k, tol)[k - 1]
    return float(d), float(n)
