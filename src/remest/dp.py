"""Dynamic-programming verification oracle for the integer-state model.

Value iteration runs on a truncated state space: once the one-step
distortion of staying silent exceeds the price of transmitting forever,
transmitting is provably optimal, so all states beyond that radius collapse
into one aggregated exterior state with a
forced transmit action.  The greedy policy of the converged values must be a
symmetric threshold rule; its threshold is compared against the renewal-based
solver.  A second, independent route evaluates a fixed threshold policy by
summing its own discounted series.

Both routes build one step operator per call: every state has exactly
``len(pmf)`` successors, so the one-step law on the states -bound..bound
plus the exterior is an ``(n + 1, m)`` array of successor indices sharing the
``m`` pmf weights.  Value iteration applies it as one gather and one weighted
sum per iteration.  The fixed-threshold route scatters it into a dense
matrix P and sums sum_t beta^t P^t c for the two-column cost c (D and N) by
repeated squaring; the number of squarings follows in advance from the
remainder bound beta^(2^j) max|c| / (1 - beta).  Neither route makes a
linear solve.

Both routes are discounted-only and beta = 1 has no DP route yet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, NumericsError, UsageError
from .model import ModelSpecA

_MAX_VALUE_ITERATIONS = 1_000_000

#: Largest state count (2 bound + 2) that ``policy_evaluate_fixed_point``
#: squares as one dense matrix, at O(n^3) per squaring.  On a 2-core Xeon with
#: one BLAS thread, 512 states (bound 255, birth-death law) take 29-117 ms at
#: p = 0.3 for beta in [0.5, 0.9999], and up to 0.27 s at p = 0.01,
#: beta = 0.999 (0.31-0.42 s at 0.9999), where the products reach subnormal
#: entries; 1024 states take 0.4-0.7 s at p = 0.3 and 2.0-2.4 s at p = 0.01.
MAX_FIXED_POINT_STATES = 512


@dataclass(frozen=True)
class TruncatedDP:
    """Converged values and greedy policy on states -bound..bound."""

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
        if e > 10_000_000:
            raise CapacityError("distortion grows too slowly to compactify")
    return e


def step_operator(spec: ModelSpecA, bound: int, reset: np.ndarray) -> np.ndarray:
    """Successor indices of the one-step law over -bound..bound and the exterior.

    Row i lists the successors of state ``i - bound`` (the last row is the
    exterior state, index ``2 bound + 1``), column j the one reached by the
    pmf item j, weighted by ``spec.pmf.values[j]``.  A silent row sends e to
    a e + W; a reset row (``reset`` true, and the exterior row) sends 0 to W.
    Successors beyond +-bound go to the exterior index.
    """
    states = np.arange(-bound, bound + 1)
    origin = np.append(np.where(reset, 0, spec.a * states), 0)
    nxt = origin[:, None] + spec.pmf.offsets
    return np.where(np.abs(nxt) <= bound, nxt + bound, 2 * bound + 1)


def default_bound(spec: ModelSpecA, lam: float) -> int:
    r = spec.pmf.radius
    return max(8, 4 * r, _compactification_radius(spec, lam) + r + 1)


def value_iterate(
    spec: ModelSpecA,
    lam: float,
    tol: float = 1e-9,
    bound: int | None = None,
) -> TruncatedDP:
    """Solve the costly-communication dynamic program on a truncated state space.

    Stops when successive values differ by at most tol (1 - beta) / (2 beta)
    in sup norm, then extracts the greedy policy with ties resolved to
    staying silent (the largest threshold consistent with optimality).
    """
    beta = spec.beta
    if beta.is_average:
        raise UsageError("value iteration requires beta < 1")
    if lam < 0.0:
        raise UsageError(f"price must be nonnegative, got {lam}")
    B = default_bound(spec, lam) if bound is None else int(bound)
    if B < spec.pmf.radius:
        raise UsageError("bound must cover the innovation support")
    states = np.arange(-B, B + 1)
    dvals = np.asarray(spec.distortion(states), dtype=float)
    # every state silent; the exterior row resets, so its row is E V(W)
    succ = step_operator(spec, B, np.zeros(len(states), dtype=bool))
    w = spec.pmf.values
    # V on -B..B, then the exterior value: the transmit value of the same V
    X = np.zeros(2 * B + 2)
    stop = tol * (1.0 - beta) / (2.0 * beta)
    i0 = B

    def sweep(X):
        X[-1] = (1.0 - beta) * lam + beta * float(X[succ[-1]] @ w)
        return X[-1], (1.0 - beta) * dvals + beta * (X[succ[:-1]] @ w)

    iterations = 0
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
        raise CapacityError(
            f"greedy policy silent at the truncation edge |e| = {B}; enlarge bound"
        )
    slack = 50.0 * tol
    if float(np.max(np.abs(V - V[::-1]))) > slack:
        raise NumericsError("converged values are not even in the state")
    if np.any(np.diff(V[i0:]) < -slack):
        raise NumericsError("converged values are not monotone on e >= 0")

    pos = transmit[i0:]
    k = int(np.argmax(pos))
    if not (pos[k:].all() and not pos[:k].any()):
        raise NumericsError("greedy policy is not a threshold rule on e >= 0")
    if not np.array_equal(transmit, transmit[::-1]):
        raise NumericsError("greedy policy is not symmetric")

    return TruncatedDP(bound=B, values=V, transmit=transmit, threshold=k, iterations=iterations)


def policy_evaluate_fixed_point(
    spec: ModelSpecA,
    k: int,
    bound: int | None = None,
    tol: float = 1e-10,
) -> tuple[float, float]:
    """(D, N) of the threshold-k policy by summing its discounted series.

    Independent of the renewal route: no pre-transmission functionals and no
    linear solves, only the policy's own one-step matrix P.  With Q = beta P
    and S = c, each step S <- S + Q S, Q <- Q Q doubles the number of terms
    of sum_t beta^t P^t c that S holds; after j steps the rest is at most
    beta^(2^j) max|c| / (1 - beta), and the steps stop at the first j where
    that is <= tol / 2.  Every state at or beyond the threshold shares one
    value, so the truncation at ``bound`` is exact once bound >= k - 1.
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
    B = k + spec.pmf.radius if bound is None else int(bound)
    if B < k - 1:
        raise UsageError("bound must cover the silent set")
    n = 2 * B + 2
    if n > MAX_FIXED_POINT_STATES:
        raise CapacityError(
            f"threshold {k} at bound {B} needs {n} states, past the cap {MAX_FIXED_POINT_STATES}")
    states = np.arange(-B, B + 1)
    transmit = np.append(np.abs(states) >= k, True)  # the exterior transmits too
    succ = step_operator(spec, B, transmit[:-1])
    w = spec.pmf.values
    cells = (n * np.arange(n)[:, None] + succ).ravel()
    Q = beta * np.bincount(cells, np.tile(w, n), minlength=n * n).reshape(n, n)
    dvals = np.append(np.asarray(spec.distortion(states), dtype=float), 0.0)
    # the two columns are D and N; each product serves both
    S = (1.0 - beta) * np.column_stack([np.where(transmit, 0.0, dvals), transmit])
    scale = float(np.max(np.abs(S))) / (1.0 - beta)
    steps = 0
    while beta ** 2 ** steps * scale > tol / 2.0:
        steps += 1
    for j in range(steps):
        if j:
            Q = Q @ Q
        S += Q @ S
    return float(S[B, 0]), float(S[B, 1])
