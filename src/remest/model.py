"""Domain types shared by the solvers and the simulator.

A problem instance couples a scalar autoregression ``X_{t+1} = a X_t + W_t``
with an innovation law, a per-step distortion, and a discount factor.  The
integer-state variant uses a symmetric unimodal pmf, the continuous-state
variant a symmetric unimodal pdf.  ``beta == 1`` selects the long-term
average criterion.

All types are immutable after construction; operations here are pure.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Literal, Mapping

import numpy as np

from .errors import UsageError

#: Largest allowed dimension for dense silent-set systems (2k-1 <= cap).
MAX_SILENT_DIM = 20001

#: Stored pmf mass below this deficit is renormalized away silently.
PMF_MASS_DEFICIT = 1e-10


class DiscountFactor(float):
    """Discount factor in (0, 1]; the value 1 selects the average-cost regime."""

    def __new__(cls, value: float) -> "DiscountFactor":
        value = float(value)
        if not 0.0 < value <= 1.0:
            raise UsageError(f"discount factor must lie in (0, 1], got {value}")
        return super().__new__(cls, value)

    @property
    def is_average(self) -> bool:
        return self == 1.0


@dataclass(frozen=True)
class IntegerPmf:
    """Finite symmetric innovation pmf over integer offsets.

    Offsets outside the stored map carry zero mass.  The constructor requires
    total stored mass >= 1 - 1e-10 and renormalizes; laws with countably
    infinite support must be truncated to that accuracy by the caller.
    Structural defects (asymmetry, non-unimodality, a point mass at 0) are
    reported by :func:`validate_spec` rather than raised here.
    """

    items: tuple[tuple[int, float], ...]
    truncation_deficit: float = 0.0

    def __init__(self, probs: Mapping[int, float]):
        cleaned = {int(n): float(p) for n, p in probs.items()}
        if not cleaned:
            raise UsageError("pmf must have at least one offset")
        if any(p < 0.0 for p in cleaned.values()):
            raise UsageError("pmf probabilities must be nonnegative")
        total = sum(cleaned.values())
        if total < 1.0 - PMF_MASS_DEFICIT:
            raise UsageError(
                f"stored pmf mass {total} is below 1 - {PMF_MASS_DEFICIT}; "
                "truncate the law with more support first"
            )
        items = tuple(sorted((n, p / total) for n, p in cleaned.items()))
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "truncation_deficit", max(0.0, 1.0 - total))

    @classmethod
    def birth_death(cls, p: float) -> "IntegerPmf":
        """Nearest-neighbour step law: +-1 with probability p each, else hold."""
        if not 0.0 < p < 0.5:
            raise UsageError(f"birth-death parameter must lie in (0, 1/2), got {p}")
        return cls({-1: p, 0: 1.0 - 2.0 * p, 1: p})

    @property
    def probs(self) -> dict[int, float]:
        return dict(self.items)

    @property
    def offsets(self) -> np.ndarray:
        return np.array([n for n, _ in self.items], dtype=np.int64)

    @property
    def values(self) -> np.ndarray:
        return np.array([p for _, p in self.items], dtype=float)

    @property
    def radius(self) -> int:
        return max(abs(n) for n, _ in self.items)

    @property
    def p0(self) -> float:
        return dict(self.items).get(0, 0.0)

    def violations(self) -> list[str]:
        probs = self.probs
        out: list[str] = []
        if abs(sum(probs.values()) - 1.0) > 1e-12:
            out.append("pmf mass must equal 1 within 1e-12")
        for n, p in probs.items():
            if p < 0.0:
                out.append(f"p_{n} >= 0 violated")
        for n in probs:
            if abs(probs.get(n, 0.0) - probs.get(-n, 0.0)) > 1e-12:
                out.append(f"symmetry p_n = p_-n violated at n={abs(n)}")
                break
        nonneg = sorted(n for n in probs if n >= 0)
        for lo, hi in zip(nonneg, nonneg[1:]):
            # mass at skipped offsets is zero, so any later positive mass is a bump
            if hi > lo + 1 and probs[hi] > 0.0:
                out.append(f"unimodality violated between n={lo} and n={hi}")
                break
            if probs[hi] > probs[lo] + 1e-12:
                out.append(f"unimodality p_n >= p_n+1 violated at n={lo}")
                break
        if probs.get(0, 0.0) >= 1.0 - 1e-15:
            out.append("p_0 < 1 required")
        return out


@dataclass(frozen=True, eq=False)
class SmoothPdf:
    """Symmetric unimodal innovation density on the reals.

    ``gaussian`` carries its own scale; ``tabulated`` densities must declare
    a support half-width so quadrature domains stay bounded.
    """

    kind: Literal["gaussian", "tabulated"]
    sigma: float | None = None
    fn: Callable[[np.ndarray], np.ndarray] | None = None
    support_halfwidth: float | None = None

    @classmethod
    def gaussian(cls, sigma: float) -> "SmoothPdf":
        if sigma <= 0.0:
            raise UsageError(f"sigma must be positive, got {sigma}")
        return cls(kind="gaussian", sigma=float(sigma))

    @classmethod
    def tabulated(
        cls,
        density: Callable[[np.ndarray], np.ndarray],
        support_halfwidth: float,
    ) -> "SmoothPdf":
        if support_halfwidth <= 0.0:
            raise UsageError("support half-width must be positive")
        return cls(kind="tabulated", fn=density, support_halfwidth=float(support_halfwidth))

    def density(self, w):
        w = np.asarray(w, dtype=float)
        if self.kind == "gaussian":
            s = self.sigma
            return np.exp(-(w * w) / (2.0 * s * s)) / (s * math.sqrt(2.0 * math.pi))
        out = np.where(
            np.abs(w) <= self.support_halfwidth,
            np.clip(self.fn(w), 0.0, None),
            0.0,
        )
        return out

    @property
    def scale(self) -> float:
        """Characteristic width used to seed search brackets."""
        if self.kind == "gaussian":
            return self.sigma
        return self.support_halfwidth / 3.0

    def sampler(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.normal(0.0, self.sigma, size)
        # inverse-CDF on a dense grid; adequate for smooth declared-support laws
        grid = np.linspace(-self.support_halfwidth, self.support_halfwidth, 4097)
        dens = self.density(grid)
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * np.diff(grid) / 2.0)])
        cdf /= cdf[-1]
        return np.interp(rng.random(size), cdf, grid)

    def violations(self, quad_tol: float = 1e-6) -> list[str]:
        out: list[str] = []
        half = 8.0 * self.sigma if self.kind == "gaussian" else self.support_halfwidth
        probes = np.linspace(0.0, half, 257)
        left = self.density(-probes)
        right = self.density(probes)
        if np.max(np.abs(left - right)) > 1e-9 * max(1.0, float(np.max(right))):
            out.append("density symmetry violated")
        if np.any(np.diff(right) > 1e-9 * max(1.0, float(right[0]))):
            out.append("density must be nonincreasing on the nonnegative half-line")
        if np.any(right < 0.0):
            out.append("density must be nonnegative")
        total = float(np.trapezoid(self.density(np.linspace(-half, half, 8193)),
                                   np.linspace(-half, half, 8193)))
        if abs(total - 1.0) > quad_tol:
            out.append(f"density integrates to {total:.8f}, not 1")
        return out


@dataclass(frozen=True, eq=False)
class DistortionFn:
    """Even, nonnegative per-step distortion with d(0) = 0."""

    kind: Literal["absolute", "quadratic", "custom"]
    fn: Callable[[np.ndarray], np.ndarray] | None = None

    @classmethod
    def absolute(cls) -> "DistortionFn":
        return cls(kind="absolute")

    @classmethod
    def quadratic(cls) -> "DistortionFn":
        return cls(kind="quadratic")

    @classmethod
    def custom(cls, fn: Callable[[np.ndarray], np.ndarray]) -> "DistortionFn":
        return cls(kind="custom", fn=fn)

    def __call__(self, e):
        e = np.asarray(e, dtype=float)
        if self.kind == "absolute":
            return np.abs(e)
        if self.kind == "quadratic":
            return e * e
        return np.asarray(self.fn(e), dtype=float)

    @property
    def smooth_at_zero(self) -> bool:
        """Whether d is smooth at the origin: |e| has a kink there, and a
        custom d is not known to be smooth."""
        return self.kind == "quadratic"

    def violations(self, probe_halfwidth: float = 8.0) -> list[str]:
        out: list[str] = []
        probes = np.linspace(0.0, probe_halfwidth, 129)
        vals = self(probes)
        if abs(float(self(0.0))) > 0.0:
            out.append("d(0) = 0 required")
        if np.any(vals[1:] <= 0.0):
            out.append("d(e) > 0 required for e != 0")
        if np.max(np.abs(self(-probes) - vals)) > 1e-12 * max(1.0, float(vals[-1])):
            out.append("d must be even")
        if np.any(np.diff(vals) < -1e-12 * max(1.0, float(vals[-1]))):
            out.append("d must be nondecreasing on the nonnegative half-line")
        return out


@dataclass(frozen=True)
class ModelSpecA:
    """Integer-state problem instance."""

    a: int
    pmf: IntegerPmf
    distortion: DistortionFn
    beta: DiscountFactor

    def __init__(self, a: int, pmf: IntegerPmf, distortion: DistortionFn, beta: float):
        if a != int(a):
            raise UsageError(f"dynamics coefficient must be an integer, got {a}")
        object.__setattr__(self, "a", int(a))
        object.__setattr__(self, "pmf", pmf)
        object.__setattr__(self, "distortion", distortion)
        object.__setattr__(self, "beta", DiscountFactor(beta))

    def describe(self) -> dict:
        return {
            "model": "A",
            "a": self.a,
            "pmf": {str(n): p for n, p in self.pmf.items},
            "distortion": self.distortion.kind,
            "beta": float(self.beta),
        }


@dataclass(frozen=True)
class ModelSpecB:
    """Continuous-state problem instance."""

    a: float
    pdf: SmoothPdf
    distortion: DistortionFn
    beta: DiscountFactor

    def __init__(self, a: float, pdf: SmoothPdf, distortion: DistortionFn, beta: float):
        object.__setattr__(self, "a", float(a))
        object.__setattr__(self, "pdf", pdf)
        object.__setattr__(self, "distortion", distortion)
        object.__setattr__(self, "beta", DiscountFactor(beta))

    def describe(self) -> dict:
        pdf = {"kind": self.pdf.kind}
        if self.pdf.kind == "gaussian":
            pdf["sigma"] = self.pdf.sigma
        else:
            pdf["support_halfwidth"] = self.pdf.support_halfwidth
        return {
            "model": "B",
            "a": self.a,
            "pdf": pdf,
            "distortion": self.distortion.kind,
            "beta": float(self.beta),
        }


def spec_digest(spec: ModelSpecA | ModelSpecB) -> str:
    """Stable hash of a problem instance, for output metadata."""
    payload = json.dumps(spec.describe(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def validate_spec(spec: ModelSpecA | ModelSpecB) -> list[str]:
    """Return every violated structural assumption; valid specs return []."""
    out: list[str] = []
    if isinstance(spec, ModelSpecA):
        out.extend(spec.pmf.violations())
    else:
        out.extend(spec.pdf.violations())
    out.extend(spec.distortion.violations())
    return out


def estimator_step(prev_estimate: float, received: float | None, a: float) -> float:
    """One step of the optimal estimator: adopt a received value, else predict."""
    if received is not None:
        return float(received)
    return a * prev_estimate


@dataclass(frozen=True)
class ThresholdPolicy:
    """Transmit exactly when |error| >= k.

    ``k = 0`` always transmits; ``k = math.inf`` never transmits.
    """

    k: float

    def __post_init__(self):
        if not (self.k >= 0.0):
            raise UsageError(f"threshold must be nonnegative, got {self.k}")


@dataclass(frozen=True)
class RandomizedThresholdPolicy:
    """Mixture of the two thresholds k_star and k_star + 1.

    ``theta_star`` is the mixture weight on the smaller threshold; the mixed
    transmission rate is theta_star * N(k_star) + (1 - theta_star) * N(k_star + 1).
    """

    k_star: int
    theta_star: float

    def __post_init__(self):
        if not 0.0 <= self.theta_star <= 1.0:
            raise UsageError(f"theta_star must lie in [0, 1], got {self.theta_star}")
        if self.k_star < 0:
            raise UsageError(f"k_star must be nonnegative, got {self.k_star}")


Provenance = Literal["analytic", "closed_form", "simulated"]


@dataclass(frozen=True)
class PerfPoint:
    """Performance triple (D, N, C) of one policy on one instance."""

    distortion: float
    transmission_rate: float
    cost: float | None = None
    lam: float | None = None
    provenance: Provenance = "analytic"

    def __post_init__(self):
        if self.distortion < 0.0 and not math.isinf(self.distortion):
            raise UsageError("distortion must be nonnegative")
        if not -1e-12 <= self.transmission_rate <= 1.0 + 1e-12:
            raise UsageError("transmission rate must lie in [0, 1]")


@dataclass(frozen=True)
class CurvePoint:
    abscissa: float
    ordinate: float
    threshold: float


@dataclass(frozen=True)
class TradeoffCurve:
    """Optimal trade-off curve: cost vs price, or distortion vs rate budget.

    Costly curves are nondecreasing and concave in the price; constrained
    curves are nonincreasing and convex in the rate budget.
    """

    kind: Literal["costly", "constrained"]
    points: tuple[CurvePoint, ...]
    shape: Literal["piecewise_linear", "sampled"]
    instance: Mapping[str, object] | None = None

    def check(self) -> list[str]:
        """Return violated curve invariants, judged on the stored points."""
        out: list[str] = []
        xs = np.array([p.abscissa for p in self.points])
        ys = np.array([p.ordinate for p in self.points])
        if len(xs) >= 2 and np.any(np.diff(xs) <= 0.0):
            out.append("abscissas must be strictly increasing")
            return out
        scale = max(1.0, float(np.max(np.abs(ys))) if len(ys) else 1.0)
        tol = 1e-9 * scale
        if len(xs) >= 2:
            slopes = np.diff(ys) / np.diff(xs)
            if self.kind == "costly":
                if np.any(np.diff(ys) < -tol):
                    out.append("costly curve must be nondecreasing")
                if np.any(np.diff(slopes) > tol):
                    out.append("costly curve must be concave")
            else:
                if np.any(np.diff(ys) > tol):
                    out.append("constrained curve must be nonincreasing")
                if np.any(np.diff(slopes) < -tol):
                    out.append("constrained curve must be convex")
        return out
