"""Exact solver for the integer-state model.

Performance of a threshold policy follows from two pre-transmission
functionals: the expected accumulated distortion L and the expected elapsed
time M before the error first leaves the silent set.  Both are even in the
error, so they solve one dense k x k system over the folded silent states
0..k-1, where the mass sent to -j joins the mass sent to j.  The same
factorization gives U, the expected discount beta^tau at the first escape
tau.  Distortion, transmission rate and total cost follow from the
regenerative structure:

    D = L(0) / M(0),   N = U(0) / M(0)  (= 1 / M(0) - (1 - beta)),
    C = D + lambda N.

N is computed from U, never by the cancelling difference, so a small rate
keeps its relative accuracy.

The optimal-policy maps for both the costly and the rate-constrained
problems are lookups along the enumerated corner points, and the
birth-death instance additionally admits closed forms used here as an
independent cross-check route.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import (
    CapacityError,
    DivergenceError,
    NumericsError,
    SingularSystemError,
    UsageError,
)
from .model import (
    MAX_SILENT_DIM,
    CurvePoint,
    DiscountFactor,
    DistortionFn,
    IntegerPmf,
    ModelSpecA,
    PerfPoint,
    RandomizedThresholdPolicy,
    TradeoffCurve,
)

#: Corners with distortion increments below this are skipped as duplicates.
_FLAT_D_TOL = 1e-12

#: Reciprocal condition number below which the silent system counts as singular.
_RCOND_FLOOR = 1e-13


@dataclass(frozen=True)
class SilentSystem:
    """Substochastic step law on the folded silent states 0..k-1: ``transition[i, j]``
    is the probability of a step from ``i`` to ``j`` or ``-j``; the rest,
    ``escape_vec[i]``, leaves the silent set."""

    states: np.ndarray
    transition: np.ndarray
    distortion_vec: np.ndarray
    escape_vec: np.ndarray


def build_silent_system(spec: ModelSpecA, k: int) -> SilentSystem:
    """Assemble the folded transition ``p(j - a i) + [j > 0] p(-j - a i)``,
    the distortion vector and the escape probabilities over the states 0..k-1."""
    if k < 1:
        raise UsageError(f"silent system needs k >= 1, got {k}")
    if k > MAX_SILENT_DIM:
        raise CapacityError(f"silent system dimension {k} exceeds cap {MAX_SILENT_DIM}")
    # dense pmf over every offset +-j - a i the matrix can ask for
    half = spec.pmf.radius + (abs(spec.a) + 1) * (k - 1)
    pmf = np.zeros(2 * half + 1)
    pmf[spec.pmf.offsets + half] = spec.pmf.values
    states = np.arange(k)
    origin = half - spec.a * states[:, None]
    transition = pmf[origin + states]
    transition[:, 1:] += pmf[origin - states[1:]]
    dvec = np.asarray(spec.distortion(states), dtype=float)
    # summed from the escaping pmf mass itself, not as 1 - row sum, so that a
    # tiny escape probability keeps its relative accuracy
    nxt = spec.a * states[:, None] + spec.pmf.offsets
    escape = np.where(np.abs(nxt) >= k, spec.pmf.values, 0.0).sum(axis=1)
    return SilentSystem(states=states, transition=transition, distortion_vec=dvec,
                        escape_vec=escape)


def solve_lm(
    system: SilentSystem, beta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(L, M, U) by folded state, from L = d + beta T L, M = 1 + beta T M and
    U = beta esc + beta T U (U is the expected discount at the first escape).

    One factorization back-solves all three with one step of iterative
    refinement; each refined residual must satisfy ||r|| <= 1e-10 (1 + ||x||).
    """
    beta = DiscountFactor(beta)
    dim = len(system.states)
    A = np.eye(dim) - beta * system.transition
    with warnings.catch_warnings():
        # the rcond guard below turns exact singularity into a typed error
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A)
    anorm = np.linalg.norm(A, 1)
    rcond, info = scipy.linalg.lapack.dgecon(lu, anorm, norm="1")
    if info != 0 or rcond < _RCOND_FLOOR:
        raise SingularSystemError(
            f"silent system singular at beta={float(beta)} (rcond={rcond:.2e}); "
            "the chain cannot escape the silent set"
        )
    b = np.column_stack([system.distortion_vec, np.ones(dim), beta * system.escape_vec])
    x = scipy.linalg.lu_solve((lu, piv), b)
    x += scipy.linalg.lu_solve((lu, piv), b - A @ x)
    resid = np.linalg.norm(b - A @ x, axis=0)
    if np.any(resid > 1e-10 * (1.0 + np.linalg.norm(x, axis=0))):
        raise NumericsError(f"linear solve residual {resid.max():.2e} too large")
    return x[:, 0], x[:, 1], x[:, 2]


@lru_cache(maxsize=2**14)
def _dn_at(spec: ModelSpecA, k: int) -> tuple[float, float]:
    """(D, N) for threshold k >= 1; cached per instance."""
    L, M, U = solve_lm(build_silent_system(spec, k), spec.beta)
    L0, M0 = float(L[0]), float(M[0])
    return L0 / M0, float(U[0]) / M0


def _never_transmit_distortion(spec: ModelSpecA) -> float:
    """Long-run distortion of the never-transmit policy."""
    beta = spec.beta
    pmf = spec.pmf
    d = spec.distortion
    mean_d_w = float(np.dot(pmf.values, d(pmf.offsets)))
    if beta.is_average:
        if abs(spec.a) >= 1:
            raise DivergenceError(
                "never-transmit average distortion diverges for |a| >= 1"
            )
        return mean_d_w
    if spec.a == 0:
        return beta * mean_d_w
    if abs(spec.a) >= 2:
        # error support doubles per step; the convolution below cannot be carried
        # to the discount horizon within the dimension cap
        raise CapacityError(
            "never-transmit distortion with |a| >= 2 needs unbounded state support"
        )
    horizon = int(math.ceil(math.log(1e-12) / math.log(beta)))
    r = pmf.radius
    half = horizon * r + 1
    support = np.arange(-half, half + 1)
    dist = np.zeros(len(support))
    dist[half] = 1.0  # error starts at 0
    # a = -1 evolves identically in law: the error law stays symmetric, so
    # negating the state before adding a symmetric step changes nothing
    kernel = np.zeros(2 * r + 1)
    for n, p in pmf.items:
        kernel[n + r] = p
    dvals = np.asarray(d(support), dtype=float)
    total = 0.0
    w = 1.0 - beta
    for _ in range(horizon):
        w *= beta
        dist = np.convolve(dist, kernel, mode="same")
        total += w * float(np.dot(dist, dvals))
    return total


def performance(spec: ModelSpecA, k: float, lam: float | None = None) -> PerfPoint:
    """Exact (D, N, C) of the threshold-k policy.

    ``k = 0`` always transmits, ``k = math.inf`` never does.
    """
    if k == 0:
        D, N = 0.0, 1.0
    elif math.isinf(k):
        N = 0.0
        D = _never_transmit_distortion(spec)
    else:
        if k != int(k) or k < 0:
            raise UsageError(f"integer-state thresholds must be integers, got {k}")
        D, N = _dn_at(spec, int(k))
    cost = None if lam is None else D + lam * N
    return PerfPoint(distortion=D, transmission_rate=N, cost=cost, lam=lam)


def _dn_table(spec: ModelSpecA, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of D and N for k = 0 .. k_max."""
    D = np.zeros(k_max + 1)
    N = np.zeros(k_max + 1)
    N[0] = 1.0
    for k in range(1, k_max + 1):
        D[k], N[k] = _dn_at(spec, k)
    return D, N


def corner_lambdas(spec: ModelSpecA, k_max: int) -> list[tuple[int, float]]:
    """Enumerate the corner prices: for each usable threshold k_n, the price
    at which optimality passes from k_n to the next usable threshold.

    Thresholds whose distortion does not strictly increase are skipped.
    """
    if k_max < 1:
        raise UsageError(f"k_max must be >= 1, got {k_max}")
    D, N = _dn_table(spec, k_max + 1)
    usable = [k for k in range(k_max + 1) if D[k + 1] > D[k] + _FLAT_D_TOL]
    out: list[tuple[int, float]] = []
    for kn, kn_next in zip(usable, usable[1:] + [None]):
        nxt = kn_next if kn_next is not None else kn + 1
        dn, dd = N[kn] - N[nxt], D[nxt] - D[kn]
        if dn <= 0.0:
            raise NumericsError(
                f"transmission rate failed to decrease between k={kn} and k={nxt}"
            )
        out.append((kn, float(dd / dn)))
    lams = [lam for _, lam in out]
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise NumericsError("corner prices are not strictly increasing")
    return out


def optimal_costly(spec: ModelSpecA, lam: float) -> tuple[int, float]:
    """Optimal threshold and cost when each transmission costs ``lam``.

    The corner list is extended by doubling until it covers ``lam``.  A
    doubling that adds no corner means the distortion has stopped increasing
    (beta < 1), so no larger price can be resolved.
    """
    if lam < 0.0:
        raise UsageError(f"transmission price must be nonnegative, got {lam}")
    k_max = 8
    corners = corner_lambdas(spec, k_max)
    while lam > corners[-1][1]:
        if 2 * k_max > MAX_SILENT_DIM:
            raise CapacityError(f"price {lam} needs thresholds beyond the dimension cap")
        k_max *= 2
        wider = corner_lambdas(spec, k_max)
        if len(wider) == len(corners):
            kn, lam_last = corners[-1]
            raise CapacityError(
                f"price {lam} lies above the last resolvable corner price {lam_last!r} "
                f"(threshold {kn}): no threshold up to {k_max} raises the distortion "
                f"by more than {_FLAT_D_TOL}"
            )
        corners = wider
    # corner prices increase, so the first corner covering lam owns its interval
    k_star = next(kn for kn, lam_k in corners if lam <= lam_k)
    p = performance(spec, k_star, lam)
    return k_star, p.cost


def optimal_constrained(
    spec: ModelSpecA, alpha: float
) -> tuple[RandomizedThresholdPolicy, float]:
    """Optimal mixture policy and distortion under rate budget ``alpha``.

    Picks the largest threshold whose rate still meets the budget and mixes
    it with the next one so the mixed rate equals ``alpha`` exactly.
    """
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"rate budget must lie in (0, 1), got {alpha}")
    k = 0
    N_prev = 1.0
    while True:
        k += 1
        _, N_k = _dn_at(spec, k)
        if N_k < alpha:
            break
        N_prev = N_k
        if k + 1 > MAX_SILENT_DIM:
            raise CapacityError("rate budget needs thresholds beyond the dimension cap")
    k_star = k - 1
    D_lo = 0.0 if k_star == 0 else _dn_at(spec, k_star)[0]
    D_hi, N_hi = _dn_at(spec, k)
    theta = (alpha - N_hi) / (N_prev - N_hi)
    mixed_rate = theta * N_prev + (1.0 - theta) * N_hi
    if abs(mixed_rate - alpha) > 1e-10:
        raise NumericsError(f"mixed rate {mixed_rate} missed budget {alpha}")
    d_star = theta * D_lo + (1.0 - theta) * D_hi
    return RandomizedThresholdPolicy(k_star=k_star, theta_star=theta), d_star


def tradeoff_curve(spec: ModelSpecA, kind: str, k_max: int) -> TradeoffCurve:
    """Corner points of the optimal trade-off curve up to threshold k_max."""
    if kind not in ("costly", "constrained"):
        raise UsageError(f"unknown curve kind {kind!r}")
    if k_max < 1:
        raise UsageError(f"k_max must be >= 1, got {k_max}")
    if kind == "costly":
        D, N = _dn_table(spec, k_max + 1)
        points = tuple(
            CurvePoint(abscissa=lam, ordinate=D[kn] + lam * N[kn], threshold=kn)
            for kn, lam in corner_lambdas(spec, k_max)
        )
        curve = TradeoffCurve(kind="costly", points=points, shape="piecewise_linear")
    else:
        D, N = _dn_table(spec, k_max)
        points = tuple(
            CurvePoint(abscissa=N[k], ordinate=D[k], threshold=k)
            for k in range(k_max, 0, -1)
        )
        curve = TradeoffCurve(kind="constrained", points=points, shape="piecewise_linear")
    bad = curve.check()
    if bad:
        raise NumericsError("; ".join(bad))
    return curve


# --- birth-death closed forms -------------------------------------------------
#
# For the nearest-neighbour step law with parameter p and absolute distortion,
# the silent system is tridiagonal and its inverse is known in closed form,
# giving hyperbolic expressions for the discounted case and polynomials in k
# for the average case.


def _m_param(p: float, beta: float) -> float:
    return math.acosh(1.0 + (1.0 - beta) / (2.0 * beta * p))


def _check_bd_args(p: float, k: int) -> None:
    if not 0.0 < p < 1.0 / 3.0:
        raise UsageError(f"birth-death closed forms need p in (0, 1/3), got {p}")
    if k < 1:
        raise UsageError(f"threshold must be >= 1, got {k}")


def bd_closed_form(p: float, beta: float, k: int) -> PerfPoint:
    """Closed-form (D, N) of the threshold-k policy on the birth-death instance."""
    _check_bd_args(p, k)
    beta = DiscountFactor(beta)
    if beta.is_average:
        D = (k * k - 1.0) / (3.0 * k)
        N = 2.0 * p / (k * k)
    else:
        m = _m_param(p, beta)
        skm2 = math.sinh(k * m / 2.0) ** 2
        D = (math.sinh(k * m) - k * math.sinh(m)) / (2.0 * skm2 * math.sinh(m))
        N = 2.0 * beta * p * math.sinh(m / 2.0) ** 2 * math.cosh(k * m) / skm2 - (
            1.0 - beta
        )
    return PerfPoint(distortion=D, transmission_rate=N, provenance="closed_form")


def bd_corner_lambda_avg(p: float, k: int) -> float:
    """Average-cost corner price of the birth-death instance, in closed form."""
    _check_bd_args(p, k)
    return k * (k + 1.0) * (k * k + k + 1.0) / (6.0 * p * (2.0 * k + 1.0))


def bd_q_entry(p: float, beta: float, k: int, i: int, j: int) -> float:
    """Entry (i, j) of the inverse silent-system matrix for the birth-death
    instance, via the closed-form inverse of the symmetric tridiagonal matrix."""
    _check_bd_args(p, k)
    if not (-(k - 1) <= i <= k - 1 and -(k - 1) <= j <= k - 1):
        raise UsageError(f"indices must lie in the silent set of k={k}")
    beta = DiscountFactor(beta)
    if beta.is_average:
        return (k - max(i, j)) * (k + min(i, j)) / (2.0 * p * k)
    m = _m_param(p, beta)
    num = math.cosh((2.0 * k - abs(i - j)) * m) - math.cosh((i + j) * m)
    return num / (2.0 * beta * p * math.sinh(m) * math.sinh(2.0 * k * m))


def bd_spec(p: float, beta: float, a: int = 1) -> ModelSpecA:
    """Birth-death instance with absolute distortion."""
    return ModelSpecA(
        a=a,
        pmf=IntegerPmf.birth_death(p),
        distortion=DistortionFn.absolute(),
        beta=beta,
    )
