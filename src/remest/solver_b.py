"""Continuous-state solver built on quadrature discretization.

The pre-transmission functionals of a real threshold k solve second-kind
integral equations on (-k, k) with kernel density(n - a e).  They are
discretized with Gauss-Legendre nodes and solved as dense linear systems;
node counts double until the value at the origin stabilizes (the kernel is
smooth, so convergence is spectral).  Off-node values come from the same
identity evaluated at the query point, which also yields an independent
residual estimate against a finer quadrature.

Optimal thresholds follow from the stationarity condition
lambda = -dD/dk / dN/dk (costly) or from inverting the strictly decreasing
rate map N(k) (constrained); both are located by bisection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import (
    BracketError,
    ConvergenceError,
    NumericsError,
    SingularSystemError,
    UsageError,
)
from .model import (
    CurvePoint,
    DiscountFactor,
    DistortionFn,
    ModelSpecB,
    PerfPoint,
    SmoothPdf,
    TradeoffCurve,
)

_DEFAULT_TOL = 1e-10
_START_ORDER = 65
_MAX_DOUBLINGS = 12
_MAX_ORDER = 16385
_MAX_BRACKET_EXPANSIONS = 60
_MAX_BISECTIONS = 200


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre nodes and weights scaled to (-k, k)."""

    halfwidth: float
    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def gauss_legendre(cls, k: float, order: int) -> "QuadratureGrid":
        x, w = np.polynomial.legendre.leggauss(order)
        return cls(halfwidth=float(k), nodes=k * x, weights=k * w)

    @property
    def order(self) -> int:
        return len(self.nodes)

    def check(self) -> list[str]:
        out = []
        k = self.halfwidth
        if abs(np.sum(self.weights) - 2 * k) > 1e-12 * max(1.0, 2 * k):
            out.append("weights must sum to the interval length")
        if np.max(np.abs(self.nodes + self.nodes[::-1])) > 1e-12 * max(1.0, k):
            out.append("nodes must be symmetric about 0")
        if np.any(np.diff(self.nodes) <= 0):
            out.append("nodes must be strictly increasing")
        if np.any(self.weights <= 0):
            out.append("weights must be positive")
        return out


Kernel = Callable[[np.ndarray, np.ndarray], np.ndarray]
Rhs = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FredholmSolution:
    """Discrete solution of v = rhs + beta * integral(kernel * v) on (-k, k)."""

    k: float
    beta: float
    grid: QuadratureGrid
    values: np.ndarray
    kernel: Kernel
    rhs: Rhs

    def evaluate(self, e) -> np.ndarray:
        """Value at arbitrary points inside (-k, k)."""
        e = np.atleast_1d(np.asarray(e, dtype=float))
        quad = (self.kernel(e[:, None], self.grid.nodes[None, :]) *
                self.grid.weights[None, :]) @ self.values
        return self.rhs(e) + self.beta * quad

    def at_zero(self) -> float:
        return float(self.evaluate(0.0)[0])

    def residual(self, e, refinement: int = 2) -> np.ndarray:
        """Defect of the integral equation at ``e``, measured against a finer grid."""
        e = np.atleast_1d(np.asarray(e, dtype=float))
        fine = QuadratureGrid.gauss_legendre(self.k, refinement * self.grid.order + 1)
        v_fine = self.evaluate(fine.nodes)
        quad = (self.kernel(e[:, None], fine.nodes[None, :]) *
                fine.weights[None, :]) @ v_fine
        return self.evaluate(e) - self.rhs(e) - self.beta * quad


def _as_rhs(rhs) -> Rhs:
    if callable(rhs):
        return lambda e: np.asarray(rhs(np.asarray(e, dtype=float)), dtype=float)
    val = float(rhs)
    return lambda e: np.full(np.shape(e), val, dtype=float)


def fredholm_solve(
    kernel: Kernel,
    rhs,
    k: float,
    beta: float,
    tolerance: float = _DEFAULT_TOL,
    start_order: int = _START_ORDER,
    max_doublings: int = _MAX_DOUBLINGS,
) -> FredholmSolution:
    """Solve the second-kind integral equation on (-k, k).

    Doubles the node count until successive values at 0 agree to
    ``tolerance`` (relative above magnitude 1), then verifies the off-node
    residual at 64 probe points against a refined quadrature.
    """
    if k <= 0.0:
        raise UsageError(f"interval half-width must be positive, got {k}")
    beta = DiscountFactor(beta)
    rhs_fn = _as_rhs(rhs)
    probes = np.linspace(-k, k, 66)[1:-1]
    order = start_order
    prev = None
    last_err = None
    for _ in range(max_doublings + 1):
        grid = QuadratureGrid.gauss_legendre(k, order)
        K = kernel(grid.nodes[:, None], grid.nodes[None, :]) * grid.weights[None, :]
        A = np.eye(order) - beta * K
        lu, piv = scipy.linalg.lu_factor(A)
        rcond, info = scipy.linalg.lapack.dgecon(lu, np.linalg.norm(A, 1), norm="1")
        if info != 0 or rcond < 1e-13:
            raise SingularSystemError(
                f"discretized silent-set system is singular (rcond={rcond:.2e}); "
                "escape mass vanishes"
            )
        values = scipy.linalg.lu_solve((lu, piv), rhs_fn(grid.nodes))
        sol = FredholmSolution(k=float(k), beta=float(beta), grid=grid,
                               values=values, kernel=kernel, rhs=rhs_fn)
        v0 = sol.at_zero()
        if prev is not None:
            last_err = abs(v0 - prev)
            if last_err <= tolerance * max(1.0, abs(v0)):
                resid = float(np.max(np.abs(sol.residual(probes))))
                if resid <= 100.0 * tolerance * max(1.0, abs(v0)):
                    return sol
        prev = v0
        order = 2 * order - 1
        if order > _MAX_ORDER:
            break
    raise ConvergenceError(
        f"integral equation did not stabilize below {tolerance} by order "
        f"{min(order, _MAX_ORDER)} (last change {last_err}); "
        "is the kernel smooth?"
    )


def _spec_kernel(spec: ModelSpecB) -> Kernel:
    a = spec.a
    pdf = spec.pdf
    return lambda e, n: pdf.density(n - a * e)


def performance_b(
    spec: ModelSpecB,
    k: float,
    lam: float | None = None,
    tolerance: float = _DEFAULT_TOL,
) -> PerfPoint:
    """Exact-to-quadrature (D, N, C) of the real threshold-k policy."""
    if k <= 0.0:
        raise UsageError(f"threshold must be positive, got {k}")
    L0, M0 = lm_at_zero(spec, k, tolerance)
    D = L0 / M0
    N = 1.0 / M0 - (1.0 - spec.beta)
    cost = None if lam is None else D + lam * N
    return PerfPoint(distortion=D, transmission_rate=max(N, 0.0), cost=cost, lam=lam)


def lm_at_zero(spec: ModelSpecB, k: float, tolerance: float = _DEFAULT_TOL) -> tuple[float, float]:
    """Pre-transmission distortion and time at the origin."""
    kern = _spec_kernel(spec)
    L0 = fredholm_solve(kern, spec.distortion, k, spec.beta, tolerance).at_zero()
    M0 = fredholm_solve(kern, 1.0, k, spec.beta, tolerance).at_zero()
    return L0, M0


def default_step(k: float) -> float:
    return min(max(1e-3, 1e-2 * k), 0.5 * k)


def dk_derivatives(
    spec: ModelSpecB,
    k: float,
    step: float | None = None,
    tolerance: float = _DEFAULT_TOL,
) -> tuple[float, float]:
    """d/dk of (D, N) by central differences with one Richardson level.

    The rate derivative must come out strictly negative; the distortion
    derivative is clipped at zero when it is below the difference noise.
    """
    h = default_step(k) if step is None else float(step)
    if h <= 0.0:
        raise UsageError(f"step must be positive, got {h}")
    if k - h <= 0.0:
        raise UsageError(f"k - step must stay positive (k={k}, step={h})")
    if h <= 100.0 * tolerance:
        raise NumericsError(
            f"step {h} is below the quadrature noise floor {100.0 * tolerance}"
        )

    def dn(kk: float) -> tuple[float, float]:
        p = performance_b(spec, kk, tolerance=tolerance)
        return p.distortion, p.transmission_rate

    Dp, Np = dn(k + h)
    Dm, Nm = dn(k - h)
    Dp2, Np2 = dn(k + h / 2.0)
    Dm2, Nm2 = dn(k - h / 2.0)
    dD = (4.0 * (Dp2 - Dm2) / h - (Dp - Dm) / (2.0 * h)) / 3.0
    dN = (4.0 * (Np2 - Nm2) / h - (Np - Nm) / (2.0 * h)) / 3.0
    noise = tolerance * max(1.0, abs(Dp), abs(Dm)) / h
    if dN >= 0.0:
        raise NumericsError(f"rate derivative {dN} is not negative; decrease step")
    if dD < -noise:
        raise NumericsError(f"distortion derivative {dD} below noise floor -{noise}")
    return max(dD, 0.0), dN


def lambda_of_k(
    spec: ModelSpecB,
    k: float,
    step: float | None = None,
    tolerance: float = _DEFAULT_TOL,
) -> float:
    """Price that makes the threshold-k policy optimal for costly communication."""
    dD, dN = dk_derivatives(spec, k, step=step, tolerance=tolerance)
    return -dD / dN


def _bracket(
    fn: Callable[[float], float],
    target: float,
    seed: float,
    increasing: bool,
) -> tuple[float, float]:
    """Find k_lo < k_hi with fn straddling target; fn monotone in the search sense."""
    lo = hi = seed
    f_seed = fn(seed)
    below = f_seed < target if increasing else f_seed > target
    for _ in range(_MAX_BRACKET_EXPANSIONS):
        if below:
            hi *= 2.0
            f = fn(hi)
            if (f >= target) if increasing else (f <= target):
                return hi / 2.0, hi
        else:
            lo /= 2.0
            f = fn(lo)
            if (f < target) if increasing else (f > target):
                return lo, 2.0 * lo
    raise BracketError(f"could not bracket target {target} from seed {seed}")


def algorithm1_costly(
    spec: ModelSpecB,
    lam: float,
    epsilon: float,
    tolerance: float = _DEFAULT_TOL,
) -> tuple[float, float]:
    """Bisect the price map until |lambda(k) - lam| <= epsilon; return (k, cost)."""
    if lam <= 0.0:
        raise UsageError(f"price must be positive, got {lam}")
    if epsilon <= 0.0:
        raise UsageError(f"epsilon must be positive, got {epsilon}")
    lam_of = lambda kk: lambda_of_k(spec, kk, tolerance=tolerance)
    seed = spec.pdf.scale * max(1.0, abs(spec.a))
    k_lo, k_hi = _bracket(lam_of, lam, seed, increasing=True)
    for _ in range(_MAX_BISECTIONS):
        k = 0.5 * (k_lo + k_hi)
        val = lam_of(k)
        if abs(val - lam) <= epsilon:
            p = performance_b(spec, k, lam=lam, tolerance=tolerance)
            return k, p.cost
        if val < lam:
            k_lo = k
        else:
            k_hi = k
    raise ConvergenceError(f"price bisection exhausted {_MAX_BISECTIONS} iterations")


def algorithm2_constrained(
    spec: ModelSpecB,
    alpha: float,
    epsilon: float,
    tolerance: float = _DEFAULT_TOL,
) -> tuple[float, float]:
    """Bisect the rate map until |N(k) - alpha| <= epsilon; return (k, distortion)."""
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"rate budget must lie in (0, 1), got {alpha}")
    if epsilon <= 0.0:
        raise UsageError(f"epsilon must be positive, got {epsilon}")
    rate = lambda kk: performance_b(spec, kk, tolerance=tolerance).transmission_rate
    seed = spec.pdf.scale * max(1.0, abs(spec.a))
    # N decreases in k, so search on -N to reuse the increasing bracket
    k_lo, k_hi = _bracket(lambda kk: -rate(kk), -alpha, seed, increasing=True)
    for _ in range(_MAX_BISECTIONS):
        k = 0.5 * (k_lo + k_hi)
        p = performance_b(spec, k, tolerance=tolerance)
        if abs(p.transmission_rate - alpha) <= epsilon:
            return k, p.distortion
        if p.transmission_rate > alpha:
            k_lo = k
        else:
            k_hi = k
    raise ConvergenceError(f"rate bisection exhausted {_MAX_BISECTIONS} iterations")


def gauss_markov_spec(sigma: float, a: float = 1.0, beta: float = 1.0) -> ModelSpecB:
    """Gaussian innovations with quadratic distortion."""
    return ModelSpecB(
        a=a,
        pdf=SmoothPdf.gaussian(sigma),
        distortion=DistortionFn.quadratic(),
        beta=beta,
    )


def gauss_markov_instance_tag(sigma: float, a: float = 1.0, beta: float = 1.0) -> dict:
    return {"family": "gauss_markov", "sigma": float(sigma), "a": float(a), "beta": float(beta)}


def gauss_markov_rescale(base: TradeoffCurve, sigma: float, kind: str) -> TradeoffCurve:
    """Map a unit-variance Gaussian trade-off curve to noise scale ``sigma``.

    Costly points (lam, c) map to (sigma^2 lam, sigma^2 c) with thresholds
    scaled by sigma; constrained points (alpha, d) map to (alpha, sigma^2 d)
    with thresholds scaled by sigma.
    """
    if sigma <= 0.0:
        raise UsageError(f"sigma must be positive, got {sigma}")
    inst = base.instance or {}
    if inst.get("family") != "gauss_markov" or inst.get("sigma") != 1.0:
        raise UsageError("base curve must come from the unit-variance Gaussian instance")
    if kind != base.kind:
        raise UsageError(f"kind {kind!r} does not match the base curve {base.kind!r}")
    s2 = sigma * sigma
    if kind == "costly":
        points = tuple(
            CurvePoint(abscissa=s2 * p.abscissa, ordinate=s2 * p.ordinate,
                       threshold=sigma * p.threshold)
            for p in base.points
        )
    else:
        points = tuple(
            CurvePoint(abscissa=p.abscissa, ordinate=s2 * p.ordinate,
                       threshold=sigma * p.threshold)
            for p in base.points
        )
    tag = dict(inst)
    tag["sigma"] = float(sigma)
    return TradeoffCurve(kind=base.kind, points=points, shape=base.shape, instance=tag)
