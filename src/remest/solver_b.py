"""Continuous-state solver built on quadrature discretization.

The pre-transmission functionals of a real threshold k (the distortion L,
the time M until the next transmission and its discount U) solve
second-kind integral equations on (-k, k) with kernel density(n - a e).
All are even in e, so they are posed on (0, k) with the folded kernel
density(n - a e) + density(-n - a e) and solved together by the Nystrom
method on one Gauss-Legendre panel of order 17, 33, 65, ...  Each order
evaluates the kernel once and factors I - beta K W once with
``np.linalg.solve`` (no scipy, which keeps ``import remest`` light); the
ladder stops on the error bound sup M ||r|| of ``fredholm_solve``, which for
the Gaussian holds at order 17 while k is within a few sigma.  A solve keeps v
at the nodes and its Nystrom extension at 0 and k, the only points a caller reads.

Differentiating the folded equations in k gives d/dk v = v(k) phi for every
right-hand side that does not move with k, with phi the solution for the
right-hand side beta K(., k).  Each rung solves for phi as one more column:
its right-hand side is the kernel call's column at s = k, and it shares the
LU, the certificate and the bound of the others.  So lambda(k) = M(0) L(k) /
M(k) - L(0), from which phi(0) cancels, and the rate's slope N'(k) =
-M(k) phi(0) / M(0)^2 come with L(0), M(0), D and N from one solve,
``renewal``, which every caller reads once per threshold.  Algorithms 1 and
2 search the same map, for lambda(k) = lambda (costly) or the strictly
decreasing N(k) = alpha (constrained), with one clamped Newton-secant loop
in log k, one solve per step, and keep the accepted step's D and N, so no
solve follows a search.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    BracketError,
    ConvergenceError,
    NumericsError,
    SingularSystemError,
    UsageError,
)
from .model import (
    CostlyResult,
    DiscountFactor,
    DistortionFn,
    ModelSpecB,
    PerfPoint,
    SmoothPdf,
    count,
    m_matrix_certificate,
    real_in,
)

_DEFAULT_TOL = 1e-10
_START_ORDER = 17
# largest gap of a rung's n-node and fine-rule row masses that counts as resolved: over
# Gaussian k <= 64 sigma, singular rungs agreed to 5.5e-13, under-resolved ones missed by 2.5e-4+
_RESOLVED_GAP = 1e-8
_MAX_ORDER = 2049  # its (3n + 3) x (3n + 2) kernel block takes 302 MB
_KERNEL_BLOCK = 2**20  # entries per kernel call: one call per rung below order 341
_MAX_SEARCH_STEPS = 100
_LOG2 = math.log(2.0)  # the longest search step in log k


@functools.lru_cache(maxsize=8)
def _rung_points(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A rung's points on (0, 1), shared and read-only: its kernel rows (its
    nodes, the finer rule's 2n + 1 nodes, 0 and 1), its kernel columns (both
    rules' nodes, then 1 for the derivative column) and the columns' weights,
    0 for the derivative column, which is no quadrature node.  Filled on
    first use; the ladder's 8 orders, 17 to _MAX_ORDER = 2049, take about
    0.3 MB in all."""
    coarse, fine = (QuadratureGrid.gauss_legendre(1.0, n) for n in (order, 2 * order + 1))
    points = (np.concatenate((coarse.nodes, fine.nodes, (0.0, 1.0))),
              np.concatenate((coarse.nodes, fine.nodes, (1.0,))),
              np.concatenate((coarse.weights, fine.weights, (0.0,))))
    for arr in points:
        arr.flags.writeable = False
    return points


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre nodes and weights on (0, k)."""

    k: float
    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def gauss_legendre(cls, k: float, order: int) -> "QuadratureGrid":
        """``order`` nodes on one panel of (0, k)."""
        x, w = np.polynomial.legendre.leggauss(order)
        h = 0.5 * k
        return cls(k=float(k), nodes=h + h * x, weights=h * w)

    @property
    def order(self) -> int:
        return len(self.nodes)


Kernel = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FredholmSolution:
    """Discrete solution of v = rhs + beta * integral(kernel * v) on (0, k)
    for several right-hand sides on one grid: ``values`` is nodes x
    right-hand sides, the last column phi, the solution for beta K(., k)
    (d/dk v = v(k) phi), ``ends`` holds the Nystrom extension's rows v(0) and
    v(k), ``bound`` each column's bound on sup |v - v_n|, and ``rcond`` is
    the reciprocal infinity-norm condition number of I - beta K W."""

    grid: QuadratureGrid
    values: np.ndarray
    ends: np.ndarray
    bound: np.ndarray
    rcond: float


def fredholm_solve(
    kernel: Kernel,
    rhs: Sequence,
    k: float,
    beta: float,
    tolerance: float = _DEFAULT_TOL,
) -> FredholmSolution:
    """Solve v = rhs + beta * integral(kernel * v) on (0, k) for each entry
    of ``rhs``, and for beta K(., k), whose solution phi is the last column.

    Each entry is a callable or a constant, and the kernel must be
    nonnegative.  A rung of order n evaluates the kernel once, at the n
    nodes, the 2n + 1 nodes of a finer rule, 0 and k against both rules'
    nodes and s = k, whose column is phi's right-hand side, and solves
    A = I - beta K W once for every right-hand side and a column of ones,
    h = A^-1 1: ``model.m_matrix_certificate`` reads the rcond off h and
    raises ``SingularSystemError`` unless A is a nonsingular M-matrix.
    With ||(I - beta K)^-1||_inf = sup M, the residual r of the Nystrom
    extension at the fine nodes, 0 and k, against the fine rule, bounds
    each column's error by its max h ||r||_inf plus a few rounding units of
    |v(0)| (Atkinson, 1997, ch. 4).  The order doubles from 17
    until every bound is within ``tolerance`` (relative above |v(0)| = 1); a
    bound that does not fall, or a miss at _MAX_ORDER, raises
    ``ConvergenceError``.  A rung that fails the certificate climbs instead
    of raising while its n-node row masses miss the fine rule's by more than
    _RESOLVED_GAP: that rung is too coarse for its kernel, not singular.
    """
    k = real_in(k, "(0, inf)", "interval width k")
    tolerance = real_in(tolerance, "(0, inf]", "tolerance")
    if len(rhs) == 0:
        raise UsageError("at least one right-hand side is required")
    beta = DiscountFactor(beta)
    order = _START_ORDER
    last = math.inf
    while True:
        rows, cols, weights = _rung_points(order)
        rows, cols, weights = k * rows, k * cols, k * weights
        grid = QuadratureGrid(k=k, nodes=rows[:order], weights=weights[:order])
        KW = np.empty((len(rows), len(cols)))
        step = _KERNEL_BLOCK // len(cols)  # rows per kernel call
        # An extreme scale overflows the kernel or a right-hand side; the
        # check below reports that as a NumericsError, with no warning first
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for top in range(0, len(rows), step):
                KW[top:top + step] = kernel(rows[top:top + step, None], cols[None, :])
            # the right-hand sides, phi's, and the certificate's column of ones
            R = np.array([f(rows) if callable(f) else np.full(len(rows), float(f)) for f in rhs]
                         + [beta * KW[:, -1], np.ones(len(rows))]).T
            KW *= beta * weights
        if not (np.isfinite(KW).all() and np.isfinite(R).all()):
            raise NumericsError(
                f"Nystrom system at k={k}, order {order} has non-finite entries; "
                "the kernel or a right-hand side overflowed or returned NaN"
            )
        A = np.negative(KW[:order, :order])
        A.flat[::order + 1] += 1.0
        anorm = float(np.abs(A).sum(axis=1).max())
        try:
            X = np.linalg.solve(A, R[:order])
        except np.linalg.LinAlgError:
            X = np.zeros((order, R.shape[1]))  # an exact zero pivot: fails the check below
        count(factorizations=1, largest_system=order)
        try:
            rcond, column_bound = m_matrix_certificate(
                anorm, X[:, -1],
                "discretized silent-set system is singular (rcond={rcond:.2e}); "
                "escape mass vanishes")
        except SingularSystemError:
            gap = np.abs(KW[:order, :order].sum(1) - KW[:order, order:-1].sum(1)).max()
            if not (gap > _RESOLVED_GAP and 2 * order - 1 <= _MAX_ORDER):
                raise
            order = 2 * order - 1
            continue
        values = X[:, :-1]
        # the Nystrom extension at the fine nodes, 0 and k, and its residual
        # there: the n-node quadrature less the fine one
        quad = KW[order:, :order] @ values
        ext = R[order:, :-1] + quad
        resid = quad - KW[order:, order:-1] @ ext[:-2]
        v0 = np.abs(ext[-2])
        bound = column_bound(resid, ext[-2])
        worst = float((bound / np.maximum(1.0, v0)).max())
        if worst <= tolerance:
            count(error_bound=worst)
            return FredholmSolution(grid=grid, values=values, ends=ext[-2:], bound=bound,
                                    rcond=rcond)
        if worst >= last or 2 * order - 1 > _MAX_ORDER:
            raise ConvergenceError(
                f"integral equation error bound {worst:.2e} did not fall below "
                f"{tolerance} by order {order} (previous rung {last:.2e}, "
                f"rcond={rcond:.2e}, |v(0)|={float(v0.max()):.3e})"
            )
        last = worst
        order = 2 * order - 1


def _spec_kernel(spec: ModelSpecB) -> Kernel:
    """Folded kernel on (0, k): the mass sent to -n joins the mass sent to n,
    f(-n - a e) = f(n + a e) for the even density, both in one density call."""
    a, pdf = spec.a, spec.pdf
    return lambda e, n: pdf.density(np.array((n - (ae := a * e), n + ae))).sum(axis=0)


class Renewal(NamedTuple):
    """Everything read at a threshold k: L(0), M(0), D, N, lambda(k) and N'(k)."""

    L0: float
    M0: float
    D: float
    N: float
    price: float
    dN: float


def renewal(spec: ModelSpecB, k: float, tolerance: float = _DEFAULT_TOL) -> Renewal:
    """The numbers of threshold k, from one solve for L, M, U and phi.

    U(e) = beta P(|a e + W| >= k) + beta * int_0^k K(e, s) U(s) ds is the
    discounted probability of the next transmission, so 1 - U = (1 - beta) M
    and the rate N = 1/M(0) - (1 - beta) is U(0)/M(0), with no cancellation.
    The price that makes threshold k optimal for costly communication is
    -D'/N'.  L and M solve v = r + beta * int_0^k K(., s) v(s) ds, so
    d/dk v = beta K(., k) v(k) + beta * int_0^k K d/dk v: that is v(k) phi,
    with phi the solution for the right-hand side beta K(., k), the same for
    L and M.  With D = L(0)/M(0) and N = 1/M(0) - (1 - beta), phi(0) cancels
    from -D'/N' = M(0) L(k) / M(k) - L(0), and N' = -M(k) phi(0) / M(0)^2.
    """
    a, pdf, beta = spec.a, spec.pdf, spec.beta
    escape = lambda e: beta * pdf.tail(np.array((k - a * e, k + a * e))).sum(axis=0)  # noqa: E731
    sol = fredholm_solve(_spec_kernel(spec), [spec.distortion, 1.0, escape], k, beta, tolerance)
    (L0, M0, U0, phi0), (Lk, Mk, _, _) = sol.ends.tolist()
    N = U0 / M0
    if N < -1e-12:
        raise NumericsError(
            f"transmission rate {N:.3e} is negative at k={k} (M0={M0!r}); "
            "the discretized system is inaccurate"
        )
    price = M0 * Lk / Mk - L0
    if price < 0.0:
        raise NumericsError(
            f"price {price:.3e} is negative at k={k} (L(0)={L0!r}, L(k)={Lk!r}, "
            f"M(0)={M0!r}, M(k)={Mk!r}); the discretized system is inaccurate"
        )
    return Renewal(L0, M0, L0 / M0, N, price, -Mk * phi0 / (M0 * M0))


def performance_b(spec: ModelSpecB, k: float, tolerance: float = _DEFAULT_TOL) -> PerfPoint:
    """Exact-to-quadrature (D, N) of the real threshold-k policy."""
    at = renewal(spec, k, tolerance)
    return PerfPoint(distortion=at.D, transmission_rate=at.N)


def lambda_of_k(spec: ModelSpecB, k: float) -> float:
    """Price that makes threshold k optimal for costly communication."""
    return renewal(spec, k).price


def _search(
    key: Callable[[Renewal], float],
    target: float,
    epsilon: float,
    spec: ModelSpecB,
    what: str,
    sign: int = 1,
    slope: Callable[[Renewal], float] | None = None,
) -> tuple[float, Renewal]:
    """(k, r) with r = renewal(spec, k) and |key(r) - target| <= epsilon, for
    a positive target and a key(r) monotone in k: increasing for ``sign`` =
    1, decreasing for -1.

    One loop in x = log k, from a seed at the spec's noise scale, on g =
    sign log(key / target), which increases in x (a key <= 0 reads as g =
    -sign inf).  It takes a Newton step when ``slope`` gives dkey/dk, so
    dg/dx = sign k slope / key, and otherwise a secant step through its last
    two points.  A step is at most a factor of 2 in k, and a full one toward
    the target where the slope is unknown, not positive or infinite.  Once g
    has had both signs, a step that would leave the bracket they span
    bisects it in log k instead.  The cap of _MAX_SEARCH_STEPS solves raises
    ``BracketError`` if g never changed sign and ``ConvergenceError`` if it did.
    """
    epsilon = real_in(epsilon, "(0, inf)", "epsilon")
    lo, hi = -math.inf, math.inf  # log k where g < 0 and where g >= 0
    seed = spec.pdf.scale * max(1.0, abs(spec.a))
    x = math.log(seed)
    last = None  # (x, g) of the previous step
    for _ in range(_MAX_SEARCH_STEPS):
        k = math.exp(x)
        count(search_steps=1)
        at = renewal(spec, k)
        f = key(at)
        if abs(f - target) <= epsilon:
            return k, at
        g = sign * ((math.log(f) if f > 0.0 else -math.inf) - math.log(target))
        if g < 0.0:
            lo = x
        else:
            hi = x
        if slope is not None and f > 0.0:
            dgdx = sign * k * slope(at) / f
        elif last is not None and last[0] != x:
            dgdx = (g - last[1]) / (x - last[0])
        else:
            dgdx = math.nan
        last = x, g
        dx = -g / dgdx if g != 0.0 and 0.0 < dgdx < math.inf else (_LOG2 if g < 0.0 else -_LOG2)
        x_next = x + max(-_LOG2, min(_LOG2, dx))
        x = x_next if lo < x_next < hi else 0.5 * (lo + hi)
    if math.isinf(lo) or math.isinf(hi):
        raise BracketError(f"could not bracket target {target} from seed {seed}")
    raise ConvergenceError(f"{what} search exhausted {_MAX_SEARCH_STEPS} steps")


def algorithm1_costly(spec: ModelSpecB, lam: float, epsilon: float) -> CostlyResult:
    """Search the price map until |lambda(k) - lam| <= epsilon; return (k, cost)."""
    lam = real_in(lam, "(0, inf)", "price")
    k, at = _search(lambda r: r.price, lam, epsilon, spec, "price")
    return CostlyResult(k, at.D + lam * at.N, PerfPoint(distortion=at.D, transmission_rate=at.N))


def algorithm2_constrained(spec: ModelSpecB, alpha: float, epsilon: float) -> tuple[float, float]:
    """Search the rate map until |N(k) - alpha| <= epsilon; return (k, distortion)."""
    alpha = real_in(alpha, "(0, 1)", "rate budget")
    # N decreases in k; its slope comes with it
    k, at = _search(lambda r: r.N, alpha, epsilon, spec, "rate", sign=-1,
                    slope=lambda r: r.dN)
    return k, at.D


def gauss_markov_spec(sigma: float, a: float = 1.0, beta: float = 1.0) -> ModelSpecB:
    """Gaussian innovations with quadratic distortion."""
    return ModelSpecB(
        a=a,
        pdf=SmoothPdf.gaussian(sigma),
        distortion=DistortionFn.quadratic(),
        beta=beta,
    )
