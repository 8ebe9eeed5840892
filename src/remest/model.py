"""Domain types shared by the solvers and the simulator.

A problem instance couples a scalar autoregression ``X_{t+1} = a X_t + W_t``
with an innovation law, a per-step distortion, and a discount factor.  The
integer-state variant uses a symmetric unimodal pmf, the continuous-state
variant a symmetric unimodal pdf.  ``beta == 1`` selects the long-term
average criterion.

All types are immutable after construction (an innovation law builds the
table its ``sampler`` reads then; a law or distortion that breaks the model's
assumptions raises ``UsageError`` then) and operations here are pure, except the
``Diagnostics`` work counters, which the solvers and the simulator add to
inside a ``collect()`` block and never read.  ``integer_at_least`` and
``real_in`` decide every integer and real argument of every module.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Literal, Mapping

import numpy as np

from .errors import SingularSystemError, UsageError

#: Largest K of the integer model's threshold table (one dense K x K system over
#: the folded states 0..K-1, for every threshold k <= K).  The table holds three
#: K x K float arrays at once, 24 K^2 bytes (the landing masses, the factors and
#: the right-hand sides): at K = 5760 it builds in 7.2-7.5 s at an 866-868 MB
#: peak RSS on a 2-core Xeon.
MAX_SILENT_DIM = 5760

#: Stored pmf mass below this deficit is renormalized away silently.
PMF_MASS_DEFICIT = 1e-10

#: How far a tabulated density's mass on its declared support may fall from 1
#: (the allowance for a truncated tail).  Its Simpson sum S on the table's grid
#: may be off by that plus its distance to the trapezoid sum T, up to 3x this:
#: a kink between grid nodes costs Simpson's rule more than the trapezoid rule.
PDF_MASS_TOL = 1e-5

#: Rounding allowance of every relative error bound, in units of |v(0)|: a
#: residual that rounds to 0 still leaves the solve's own rounding.
BOUND_ROUNDING = 4.0 * np.finfo(float).eps

#: Reciprocal condition number below which a silent-set system counts as singular.
RCOND_FLOOR = 1e-13

#: A custom distortion is checked for evenness and monotonicity on [-8, 8].
DISTORTION_PROBE_HALFWIDTH = 8.0

# Gauss-Legendre nodes of a tabulated density's tail integral
_TAIL_ORDER = 64

# uniforms a pmf draw locates (in 1.1 MB of buffers) or a density draw maps at a time,
# whatever the draw: a chunk of draws takes a few blocks, and each of their NumPy calls
# takes the interpreter lock back from a step loop running beside the draw
_SEARCH_BLOCK = 2**16

# characters of a refused value that a UsageError echoes, such as a 400-digit int
_ECHO_CHARS = 40


def _real(value) -> float:
    """``value`` as a float; NaN unless it is a real number within the float range."""
    try:
        return float(value) if isinstance(value, (int, float, numbers.Real)) else math.nan
    except OverflowError:  # an int beyond the float range
        return math.nan


def _echo(value) -> str:
    """``value`` as an error message echoes it: its text, cut to ``_ECHO_CHARS``."""
    text = str(value)
    return text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS] + "…"


def integer_at_least(value, least: float = 0, name: str = "threshold") -> int:
    """``value`` as an int; raises ``UsageError`` unless it is an integer
    >= ``least`` within the float range.  Integral floats and numpy integers
    pass; a string, None or an array does not."""
    x = _real(value)
    if not (x >= least and x.is_integer()):
        need = {0: "a nonnegative integer", -math.inf: "an integer"}.get(
            least, f"an integer >= {least}")
        raise UsageError(f"{name} must be {need}, got {_echo(value)}")
    return int(value)


@functools.cache
def _interval(text: str) -> tuple[float, float, bool, bool]:  # lo, hi, lo closed, hi closed
    lo, hi = (float(top) / float(bottom or 1) for top, _, bottom in
              (end.partition("/") for end in text[1:-1].split(", ")))
    return lo, hi, text[0] == "[", text[-1] == "]"


def real_in(value, interval: str, name: str) -> float:
    """``value`` as a float; raises ``UsageError`` unless it is a real number in
    ``interval``, such as "(0, 1]", "[0, inf)" or "(0, 1/3)" (a bracket closes its
    end).  Numpy scalars pass with their bits; a string, None, an array, NaN or an
    int beyond the float range does not."""
    lo, hi, lo_in, hi_in = _interval(interval)
    x = _real(value)
    if not ((lo < x or lo_in and x == lo) and (x < hi or hi_in and x == hi)):
        need = {"(0, inf)": "be positive and finite", "[0, inf)": "be nonnegative and finite",
                "[0, inf]": "be nonnegative", "(-inf, inf)": "be finite"}.get(
            interval, f"lie in {interval}")
        raise UsageError(f"{name} must {need}, got {_echo(value) if math.isnan(x) else x}")
    return x


def birth_death_parameter(p) -> float:
    """``p`` as a float; ``UsageError`` unless 0 < p < 1/3 (a unimodal birth-death law)."""
    return real_in(p, "(0, 1/3)", "birth-death parameter")


def m_matrix_certificate(anorm: float, m: np.ndarray, singular: str):
    """rcond and column error bounds of A = I - beta T, T >= 0, from ``anorm``
    = ||A||_inf and m = A^-1 1.  A Z-matrix with m > 0 is a nonsingular
    M-matrix, so ||A^-1||_inf = max m (Berman & Plemmons, Nonnegative
    Matrices in the Mathematical Sciences, ch. 6) and rcond = 1 / (||A||_inf
    max m) is exact.  Unless m is finite and positive and rcond >=
    ``RCOND_FLOOR``, it raises ``SingularSystemError(singular.format(rcond=...))``.
    The returned ``bound(r, v0)`` gives each column's max m ||r_j||_inf +
    ``BOUND_ROUNDING`` |v0_j| from the residual columns r and the values v0 at
    0; it is a separate call, so no arithmetic touches an uncertified solution."""
    # a NaN fails m > 0, and an infinite max gives rcond 0
    inverse_norm = float(m.max()) if (m > 0.0).all() else math.inf
    rcond = 1.0 / (anorm * inverse_norm)
    if not rcond >= RCOND_FLOOR:
        raise SingularSystemError(singular.format(rcond=rcond))
    return rcond, lambda r, v0: inverse_norm * np.abs(r).max(axis=0) + BOUND_ROUNDING * np.abs(v0)


class DiscountFactor(float):
    """Discount factor in (0, 1]; the value 1 selects the average-cost regime."""

    def __new__(cls, value: float) -> "DiscountFactor":
        return super().__new__(cls, real_in(value, "(0, 1]", "discount factor"))

    @property
    def is_average(self) -> bool:
        return self == 1.0


@dataclass(frozen=True)
class IntegerPmf:
    """Finite symmetric unimodal innovation pmf over integer offsets.

    Offsets outside the stored map carry zero mass, and offsets given zero
    mass are dropped after the checks.  The constructor requires
    total stored mass >= 1 - 1e-10 and renormalizes; laws with countably
    infinite support must be truncated to that accuracy by the caller.  It
    raises ``UsageError`` on a non-integer offset, a negative or non-finite
    mass, asymmetry, p_n < p_n+1 for some n >= 0 and a point mass at 0.
    ``offsets`` and ``values`` are ``items`` as read-only arrays, built once.
    """

    items: tuple[tuple[int, float], ...]
    offsets: np.ndarray = field(init=False, repr=False, compare=False)
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, probs: Mapping[int, float]):
        cleaned = {integer_at_least(n, -math.inf, "pmf offset"):
                   real_in(p, "[0, inf)", "pmf probability") for n, p in probs.items()}
        if not cleaned:
            raise UsageError("pmf must have at least one offset")
        total = sum(cleaned.values())
        if total < 1.0 - PMF_MASS_DEFICIT:
            raise UsageError(
                f"stored pmf mass {total} is below 1 - {PMF_MASS_DEFICIT}; "
                "truncate the law with more support first"
            )
        probs = {n: p / total for n, p in cleaned.items()}
        for n, p in probs.items():
            if abs(p - probs.get(-n, 0.0)) > 1e-12:
                raise UsageError(f"pmf symmetry p_n = p_-n fails at n={abs(n)}")
        for n, p in probs.items():
            # a missing offset has mass 0, so p_n > 0 needs p_n-1 >= p_n down to n = 0
            if n > 0 and p > probs.get(n - 1, 0.0) + 1e-12:
                raise UsageError(f"pmf unimodality p_n >= p_n+1 fails at n={n - 1}")
        if probs.get(0, 0.0) >= 1.0 - 1e-15:
            raise UsageError("pmf is a point mass at 0; p_0 < 1 required")
        # a zero-mass offset would widen the radius, and with it every solve
        items = tuple(sorted((n, p) for n, p in probs.items() if p > 0.0))
        object.__setattr__(self, "items", items)
        for name, column in (("offsets", np.array([n for n, _ in items], dtype=np.int64)),
                             ("values", np.array([p for _, p in items], dtype=float))):
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        cdf = np.cumsum(self.values)
        # rounding can leave the total a few ulps below 1; every uniform in [0, 1)
        # must still land on an offset
        cdf[-1] = 1.0
        object.__setattr__(self, "_points", self.offsets.astype(float))
        # guide table (Devroye, 1986, III.2.4): u lies in cell floor(u G), G a power of two;
        # start counts CDF values <= g/G, the next, cut, places u unless the cell is crowded
        G = 1 << (4 * len(cdf) - 1).bit_length()
        edges = np.arange(G + 1) / G
        start = np.searchsorted(cdf, edges[:-1], side="right")
        crowded = np.searchsorted(cdf, edges[1:], side="left") - start >= 2
        object.__setattr__(self, "_guide", (cdf, G, start, cdf[start],
                                            crowded if crowded.any() else None))

    @classmethod
    def birth_death(cls, p: float) -> "IntegerPmf":
        """Nearest-neighbour step law: +-1 with probability p each, else hold;
        p < 1/3 keeps it unimodal (p_0 = 1 - 2p > p)."""
        p = birth_death_parameter(p)
        return cls({-1: p, 0: 1.0 - 2.0 * p, 1: p})

    def sampler(self, rng: np.random.Generator, size: int | tuple[int, ...] | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
        """``size`` draws, or as many as fill the C-contiguous float64 array
        ``out``, written in place and returned.  Uniform u takes the offset
        at ``searchsorted(cdf, u, side="right")``: ``start + (cut <= u)`` of its
        guide-table cell, or that call itself in a cell crowded with CDF values."""
        cdf, G, start, cut, crowded = self._guide
        u = np.asarray(rng.random(size, out=out))
        flat = u.reshape(-1)
        # cut values, then indices, share one buffer; "clip" and copyto never buffer
        n = min(_SEARCH_BLOCK, flat.size)
        value, cells, below = np.empty(n), np.empty(n, np.intp), np.empty(n, bool)
        for block in np.split(flat, range(_SEARCH_BLOCK, flat.size, _SEARCH_BLOCK)):
            v, c, b = value[:block.size], cells[:block.size], below[:block.size]
            np.copyto(c, np.multiply(block, G, out=v), casting="unsafe")
            if crowded is not None:
                hard = np.flatnonzero(np.take(crowded, c, out=b, mode="clip"))
            np.less_equal(np.take(cut, c, out=v, mode="clip"), block, out=b)
            index = np.take(start, c, out=v.view(np.intp), mode="clip")
            np.copyto(c, b)
            index += c
            if crowded is not None:
                index[hard] = np.searchsorted(cdf, block[hard], side="right")
            np.take(self._points, index, out=block, mode="clip")
        return u

    @property
    def radius(self) -> int:
        return max(abs(n) for n, _ in self.items)


@dataclass(frozen=True, eq=False)
class SmoothPdf:
    """Symmetric unimodal innovation density on the reals.

    ``gaussian`` carries its own scale; ``tabulated`` densities must declare
    a support half-width so quadrature domains stay bounded.  A tabulated
    density is checked on the grid of its inverse-CDF table: it must be
    symmetric, nonincreasing on w >= 0 and of mass 1 within the allowance
    ``PDF_MASS_TOL`` states, or the constructor raises ``UsageError``.  NaN values
    pass, for the solvers to report as a ``NumericsError``.
    """

    kind: Literal["gaussian", "tabulated"]
    sigma: float | None = None
    fn: Callable[[np.ndarray], np.ndarray] | None = None
    support_halfwidth: float | None = None

    def __post_init__(self):
        attr, name = (("sigma", "sigma") if self.kind == "gaussian"
                      else ("support_halfwidth", "support half-width"))
        object.__setattr__(self, attr, real_in(getattr(self, attr), "(0, inf)", name))
        if self.kind == "gaussian":
            return
        # inverse-CDF on a dense grid; adequate for smooth declared-support laws.
        # Node 2048 is w = 0, and the grid is mirrored about it up to rounding.
        grid = np.linspace(-self.support_halfwidth, self.support_halfwidth, 4097)
        dens = self.density(grid)
        right = dens[2048:]
        if np.max(np.abs(dens[2048::-1] - right)) > 1e-9 * max(1.0, right[0]):
            raise UsageError("tabulated density symmetry f(-w) = f(w) fails")
        if np.any(np.diff(right) > 1e-9 * max(1.0, right[0])):
            raise UsageError("tabulated density must be nonincreasing on w >= 0")
        step = grid[1] - grid[0]
        mass = step / 3.0 * (dens[0] + dens[-1] + 4.0 * dens[1::2].sum()
                             + 2.0 * dens[2:-1:2].sum())
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * np.diff(grid) / 2.0)])
        if abs(mass - 1.0) > PDF_MASS_TOL + min(abs(mass - cdf[-1]), 3.0 * PDF_MASS_TOL):
            raise UsageError(f"tabulated density integrates to {mass:.8g}, not 1, "
                             "on its declared support")
        cdf /= cdf[-1]
        object.__setattr__(self, "_inverse_cdf", (cdf, grid))
        object.__setattr__(self, "_tail_rule", np.polynomial.legendre.leggauss(_TAIL_ORDER))

    @classmethod
    def gaussian(cls, sigma: float) -> "SmoothPdf":
        return cls(kind="gaussian", sigma=sigma)

    @classmethod
    def tabulated(
        cls,
        density: Callable[[np.ndarray], np.ndarray],
        support_halfwidth: float,
    ) -> "SmoothPdf":
        return cls(kind="tabulated", fn=density, support_halfwidth=support_halfwidth)

    def density(self, w):
        w = np.asarray(w, dtype=float)
        if self.kind == "gaussian":
            s = self.sigma
            z = np.asarray(w * w)  # four passes over one array
            z /= -2.0 * s * s  # the quotient -w^2 / (2 s^2), its inf or NaN at s^2 = 0 too
            np.exp(z, out=z)
            z /= s * math.sqrt(2.0 * math.pi)
            return z
        out = np.where(
            np.abs(w) <= self.support_halfwidth,
            np.clip(self.fn(w), 0.0, None),
            0.0,
        )
        return out

    def tail(self, x) -> np.ndarray:
        """P(W > x), elementwise.  The Gaussian's is erfc, one ``math.erfc``
        call per point; a tabulated density's integrates the density on
        [|x|, half-width] with one Gauss rule, so it keeps its relative
        accuracy far in the tail, and reflects it through 2 P(W > 0) for
        x < 0, so no rule straddles the mode."""
        x = np.asarray(x, dtype=float)
        if self.kind == "gaussian":
            z = x.ravel() / (self.sigma * math.sqrt(2.0))
            return 0.5 * np.fromiter(map(math.erfc, z.tolist()), float, z.size).reshape(x.shape)
        h = self.support_halfwidth
        nodes, weights = self._tail_rule
        lo = np.minimum(np.abs(x), h)[..., None]
        half = 0.5 * (h - lo)
        right = (half * weights * self.density(lo + half * (1.0 + nodes))).sum(axis=-1)
        mode = 0.5 * h * weights @ self.density(0.5 * h * (1.0 + nodes))
        return np.where(x >= 0.0, right, 2.0 * mode - right)

    @property
    def scale(self) -> float:
        """Characteristic width used to seed the threshold searches."""
        if self.kind == "gaussian":
            return self.sigma
        return self.support_halfwidth / 3.0

    def sampler(self, rng: np.random.Generator, size: int | tuple[int, ...] | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
        """``size`` draws from the density, or as many as fill the C-contiguous
        float64 array ``out``, written in place and returned, one block at a time."""
        if self.kind == "gaussian":
            w = rng.standard_normal(size, out=out)
            w *= self.sigma
            return w
        u = np.asarray(rng.random(size, out=out))
        for block in np.split(u.reshape(-1), range(_SEARCH_BLOCK, u.size, _SEARCH_BLOCK)):
            block[...] = np.interp(block, *self._inverse_cdf)
        return u


@dataclass(frozen=True, eq=False)
class DistortionFn:
    """Even per-step distortion with d(0) = 0, positive and nondecreasing in
    |e| elsewhere; a custom ``fn`` that fails this on [-8, 8] raises
    ``UsageError`` at construction."""

    kind: Literal["absolute", "quadratic", "custom"]
    fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind != "custom":
            return
        probes = np.linspace(0.0, DISTORTION_PROBE_HALFWIDTH, 129)
        vals = self(probes)
        tol = 1e-12 * max(1.0, float(vals[-1]))
        if vals[0] != 0.0:
            raise UsageError(f"distortion d(0) = 0 required, got {vals[0]}")
        if np.any(vals[1:] <= 0.0):
            raise UsageError("distortion d(e) > 0 required for e != 0")
        if np.max(np.abs(self(-probes) - vals)) > tol:
            raise UsageError("distortion must be even")
        if np.any(np.diff(vals) < -tol):
            raise UsageError("distortion must be nondecreasing on e >= 0")

    @classmethod
    def absolute(cls) -> "DistortionFn":
        return cls(kind="absolute")

    @classmethod
    def quadratic(cls) -> "DistortionFn":
        return cls(kind="quadratic")

    @classmethod
    def custom(cls, fn: Callable[[np.ndarray], np.ndarray]) -> "DistortionFn":
        return cls(kind="custom", fn=fn)

    def __call__(self, e, out: np.ndarray | None = None):
        """d(e).  The built-in kinds write it into ``out`` when one is given,
        which may be ``e`` itself; a custom ``fn`` always returns a new array."""
        e = np.asarray(e, dtype=float)
        if self.kind == "absolute":
            return np.absolute(e, out=out)
        if self.kind == "quadratic":
            return np.multiply(e, e, out=out)
        return np.array(self.fn(e), dtype=float)  # a new array, which callers may modify


@dataclass(frozen=True)
class ModelSpecA:
    """Integer-state problem instance."""

    a: int
    pmf: IntegerPmf
    distortion: DistortionFn
    beta: DiscountFactor

    def __init__(self, a: int, pmf: IntegerPmf, distortion: DistortionFn, beta: float):
        object.__setattr__(self, "a", integer_at_least(a, -math.inf, "dynamics coefficient"))
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

    def clipped_a(self, reach: int) -> int:
        """``a`` clipped to +-(reach + radius).  Where the clip changes a, every error
        e != 0 lands at |a e + w| >= ``reach`` under either value, so no landing below
        ``reach`` moves, and a e fits int64 however large a is."""
        cap = reach + self.pmf.radius
        return max(-cap, min(self.a, cap))


@dataclass(frozen=True)
class ModelSpecB:
    """Continuous-state problem instance."""

    a: float
    pdf: SmoothPdf
    distortion: DistortionFn
    beta: DiscountFactor

    def __init__(self, a: float, pdf: SmoothPdf, distortion: DistortionFn, beta: float):
        object.__setattr__(self, "a", real_in(a, "(-inf, inf)", "dynamics coefficient"))
        object.__setattr__(self, "pdf", pdf)
        object.__setattr__(self, "distortion", distortion)
        object.__setattr__(self, "beta", DiscountFactor(beta))

    def describe(self) -> dict:
        scale = "sigma" if self.pdf.kind == "gaussian" else "support_halfwidth"
        pdf = {"kind": self.pdf.kind, scale: getattr(self.pdf, scale)}
        return {
            "model": "B",
            "a": self.a,
            "pdf": pdf,
            "distortion": self.distortion.kind,
            "beta": float(self.beta),
        }


def spec_digest(spec: ModelSpecA | ModelSpecB) -> str:
    """Stable hash of a problem instance, for output metadata."""
    import hashlib  # read by this function alone; it adds 3-5 ms to every import

    payload = json.dumps(spec.describe(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class RandomizedThresholdPolicy:
    """Mixture of the two thresholds k_star and k_star + 1.

    ``theta_star`` is the mixture weight on the smaller threshold; the mixed
    transmission rate is theta_star * N(k_star) + (1 - theta_star) * N(k_star + 1).
    """

    k_star: int
    theta_star: float

    def __post_init__(self):
        object.__setattr__(self, "theta_star", real_in(self.theta_star, "[0, 1]", "theta_star"))
        integer_at_least(self.k_star, 0, "k_star")


@dataclass(frozen=True)
class PerfPoint:
    """Distortion D and transmission rate N of one policy on one instance."""

    distortion: float
    transmission_rate: float

    def __post_init__(self):
        if not 0.0 <= self.distortion < math.inf:
            raise UsageError(f"distortion must be nonnegative and finite, got {self.distortion}")
        if not -1e-12 <= self.transmission_rate <= 1.0 + 1e-12:
            raise UsageError("transmission rate must lie in [0, 1]")


class CostlyResult(tuple):
    """``(k, cost)`` of an optimal costly threshold; ``perf`` is (D, N) at
    k, read off the solve that found it."""

    perf: PerfPoint

    def __new__(cls, k: float, cost: float, perf: PerfPoint) -> "CostlyResult":
        self = super().__new__(cls, (k, cost))
        self.perf = perf
        return self


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

    def check(self) -> list[str]:
        """Return violated curve invariants, judged on the stored points."""
        xs = np.array([p.abscissa for p in self.points])
        ys = np.array([p.ordinate for p in self.points])
        if len(xs) < 2:
            return []
        if np.any(np.diff(xs) <= 0.0):
            return ["abscissas must be strictly increasing"]
        tol = 1e-9 * max(1.0, float(np.max(np.abs(ys))))
        # with the constrained curve mirrored, both must rise and be concave
        sign, rises, bends = ((1.0, "nondecreasing", "concave") if self.kind == "costly"
                              else (-1.0, "nonincreasing", "convex"))
        dy = sign * np.diff(ys)
        return [f"{self.kind} curve must be {shape}" for shape, bad in (
            (rises, np.any(dy < -tol)), (bends, np.any(np.diff(dy / np.diff(xs)) > tol))) if bad]


@dataclass
class Diagnostics:
    """Deterministic work counters of one command: factorizations (one per
    threshold table or Nystrom rung) and the largest order factored, the
    largest relative error bound of a Nystrom solve (None when the command
    made none), search steps (table doublings, thresholds a Model-B search
    evaluates), and the simulator's step loops, the policies run in them and
    the draws shared."""

    factorizations: int = 0
    largest_system: int = 0
    error_bound: float | None = None
    search_steps: int = 0
    step_loops: int = 0
    simulated_policies: int = 0
    draws: int = 0


_OPEN_RECORD: ContextVar[Diagnostics | None] = ContextVar("remest_diagnostics", default=None)


@contextmanager
def collect():
    """Open a fresh ``Diagnostics`` record for the work done inside the block;
    a nested block counts only into its own record."""
    record = Diagnostics()
    token = _OPEN_RECORD.set(record)
    try:
        yield record
    finally:
        _OPEN_RECORD.reset(token)


def count(largest_system: int = 0, error_bound: float | None = None,
          **increments: int) -> None:
    """Add ``increments`` to the open record and raise its largest system
    to ``largest_system`` and its error bound to ``error_bound``; outside a
    ``collect()`` block, do nothing."""
    record = _OPEN_RECORD.get()
    if record is not None:
        for name, n in increments.items():
            setattr(record, name, getattr(record, name) + n)
        record.largest_system = max(record.largest_system, largest_system)
        if error_bound is not None:
            record.error_bound = max(record.error_bound or 0.0, error_bound)
