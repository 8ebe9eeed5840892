"""Dynamic-programming verification oracle for the integer-state model.

A transmission resets the error to a fresh innovation, so the value of
transmitting, lam + beta E V(W), is the same at every error.  Both routes run
on one chain, exact once every state beyond +-B transmits: the silent states
-B..B plus one transmit state whose row restarts at W, where every successor
beyond +-B lands.  Its one-step law is a ``(2 B + 2, m)`` array of successor
indices sharing the ``m`` pmf weights.

Value iteration takes B = R + 1, R the smallest e with d(e) >= lam / (1 - beta),
beyond which transmitting is provably optimal, and applies the law as one
gather and one weighted sum per sweep.  The greedy policy of the converged
values must be a symmetric threshold rule; its threshold is compared against
the renewal-based solver.  The second, independent route evaluates the
threshold-k policy on B = k - 1, its silent set: it scatters the law into a
dense matrix P and sums sum_t beta^t P^t c for the two-column cost c (D and N)
by repeated squaring, the number of squarings fixed in advance by the
remainder bound beta^(2^j) max|c| / (1 - beta).  Neither route makes a linear
solve; both are discounted-only, and beta = 1 has no DP route yet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, NumericsError, UsageError
from .model import ModelSpecA

_MAX_VALUE_ITERATIONS = 1_000_000

# value iteration stops within this of the fixed point, in sup norm
_VI_TOL = 1e-9

#: Largest state count (2 k) that ``policy_evaluate_fixed_point`` squares as
#: one dense matrix, at O(n^3) per squaring, so k <= 256 for any pmf.  On a
#: 2-core Xeon with one BLAS thread, 512 states (birth-death law) take 29-117 ms
#: at p = 0.3 for beta in [0.5, 0.9999], and up to 0.27 s at p = 0.01,
#: beta = 0.999 (0.31-0.42 s at 0.9999), where the products reach subnormal
#: entries; 1024 states take 0.4-0.7 s at p = 0.3 and 2.0-2.4 s at p = 0.01.
MAX_FIXED_POINT_STATES = 512

#: Largest state count (2 R + 4) that ``value_iterate`` builds, checked while
#: the radius R is searched, before anything is allocated.  On a 2-core Xeon,
#: birth-death law, 2^17 states (R = 65534) take 0.08-0.14 s to find R and
#: 0.9-1.2 s to iterate at beta = 0.95 (513 sweeps), 4.9 s at 0.99 (2331),
#: at a 48 MB peak RSS of which the interpreter holds 33.
MAX_VALUE_ITERATION_STATES = 2**17


@dataclass(frozen=True)
class TruncatedDP:
    """Converged values and greedy policy on the silent states -bound..bound;
    bound = R + 1, one past the radius where transmitting is optimal."""

    bound: int
    values: np.ndarray
    transmit: np.ndarray
    threshold: int
    iterations: int


def _compactification_radius(spec: ModelSpecA, lam: float) -> int:
    """Smallest e with d(e) >= lam / (1 - beta); transmit is optimal beyond it."""
    target = lam / (1.0 - spec.beta)
    e = 0
    while float(spec.distortion(e)) < target:
        e += 1
        if 2 * e + 4 > MAX_VALUE_ITERATION_STATES:
            raise CapacityError(f"price {lam} puts the radius R at {e} or more, so "
                                f"{2 * e + 4}+ states, past the cap {MAX_VALUE_ITERATION_STATES}")
    return e


def step_operator(spec: ModelSpecA, bound: int) -> np.ndarray:
    """Successor indices of the one-step law over -bound..bound and the transmit state.

    Row i lists the successors of the silent state ``i - bound``, which sends
    e to a e + W; the last row, index ``2 bound + 1``, is the transmit state,
    which restarts at W.  Column j is the successor reached by the pmf item j,
    weighted by ``spec.pmf.values[j]``.  Successors beyond +-bound go to the
    transmit state.
    """
    origin = np.append(spec.a * np.arange(-bound, bound + 1), 0)
    nxt = origin[:, None] + spec.pmf.offsets
    return np.where(np.abs(nxt) <= bound, nxt + bound, 2 * bound + 1)


def value_iterate(spec: ModelSpecA, lam: float) -> TruncatedDP:
    """Solve the costly-communication dynamic program on the exact chain.

    Stops when successive values differ by at most 1e-9 (1 - beta) / (2 beta)
    in sup norm, then extracts the greedy policy with ties resolved to
    staying silent (the largest threshold consistent with optimality).
    """
    beta = spec.beta
    if beta.is_average:
        raise UsageError("value iteration requires beta < 1")
    if lam < 0.0:
        raise UsageError(f"price must be nonnegative, got {lam}")
    R = _compactification_radius(spec, lam)
    B = R + 1
    dvals = np.asarray(spec.distortion(np.arange(-B, B + 1)), dtype=float)
    succ = step_operator(spec, B)
    w = spec.pmf.values
    # V on -B..B, then the transmit state's value
    X = np.zeros(2 * B + 2)
    stop = _VI_TOL * (1.0 - beta) / (2.0 * beta)

    def sweep(X):
        # silent rows read the last sweep's transmit value, which every state
        # beyond R holds in the untruncated iteration, so each sweep is exact
        v_sil = (1.0 - beta) * dvals + beta * (X[succ[:-1]] @ w)
        X[-1] = (1.0 - beta) * lam + beta * float(X[succ[-1]] @ w)
        return X[-1], v_sil

    for iterations in range(1, _MAX_VALUE_ITERATIONS + 1):
        v_tx, v_sil = sweep(X)
        V_new = np.minimum(v_tx, v_sil)
        delta = float(np.max(np.abs(V_new - X[:-1])))
        X[:-1] = V_new
        if delta <= stop:
            break
    else:
        raise NumericsError(f"value iteration failed to converge in {_MAX_VALUE_ITERATIONS}")

    V = X[:-1].copy()
    v_tx, v_sil = sweep(X)
    transmit = v_tx < v_sil  # tie keeps the silent action
    if not transmit[0] or not transmit[-1]:
        raise NumericsError(
            f"greedy policy silent at |e| = {B}, beyond the radius R = {R} "
            "where transmitting is optimal")
    slack = 50.0 * _VI_TOL
    if float(np.max(np.abs(V - V[::-1]))) > slack:
        raise NumericsError("converged values are not even in the state")
    if np.any(np.diff(V[B:]) < -slack):
        raise NumericsError("converged values are not monotone on e >= 0")

    pos = transmit[B:]
    k = int(np.argmax(pos))
    if not (pos[k:].all() and not pos[:k].any()):
        raise NumericsError("greedy policy is not a threshold rule on e >= 0")
    if not np.array_equal(transmit, transmit[::-1]):
        raise NumericsError("greedy policy is not symmetric")

    return TruncatedDP(bound=B, values=V, transmit=transmit, threshold=k, iterations=iterations)


def policy_evaluate_fixed_point(spec: ModelSpecA, k: int,
                                tol: float = 1e-10) -> tuple[float, float]:
    """(D, N) of the threshold-k policy by summing its discounted series.

    Independent of the renewal route: no pre-transmission functionals and no
    linear solves, only the policy's own one-step matrix P on the silent
    states -(k - 1)..k - 1 and the transmit state, 2 k states.  With Q = beta P
    and S = c, each step S <- S + Q S, Q <- Q Q doubles the number of terms
    of sum_t beta^t P^t c that S holds; after j steps the rest is at most
    beta^(2^j) max|c| / (1 - beta), and the steps stop at the first j where
    that is <= tol / 2.
    """
    beta = spec.beta
    if beta.is_average:
        raise UsageError("fixed-point evaluation requires beta < 1")
    if k < 0:
        raise UsageError(f"threshold must be nonnegative, got {k}")
    if not tol > 0.0:
        raise UsageError(f"tolerance must be positive, got {tol}")
    if k == 0:
        return 0.0, 1.0
    n = 2 * k
    if n > MAX_FIXED_POINT_STATES:
        raise CapacityError(f"threshold {k}: {n} states, past the cap {MAX_FIXED_POINT_STATES}")
    succ = step_operator(spec, k - 1)
    w = spec.pmf.values
    cells = (n * np.arange(n)[:, None] + succ).ravel()
    Q = beta * np.bincount(cells, np.tile(w, n), minlength=n * n).reshape(n, n)
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
    return float(S[k - 1, 0]), float(S[k - 1, 1])
