"""Exact solver for the integer-state model.

Performance of a threshold policy follows from two pre-transmission
functionals: the expected accumulated distortion L and the expected elapsed
time M before the error first leaves the silent set.  Both are even in the
error, so they live on the folded silent states 0..k-1, where the mass sent
to -j joins the mass sent to j, and U, the expected discount beta^tau at the
first escape tau, solves the same system.  Distortion, transmission rate and
total cost follow from the regenerative structure:

    D = L(0) / M(0),   N = U(0) / M(0)  (= 1 / M(0) - (1 - beta)),
    C = D + lambda N.

The folded matrix A = I - beta T does not depend on k: the system of
threshold k is its leading k x k block.  A is row diagonally dominant (T is
substochastic), so elimination on A^T needs no row swaps and its growth
factor is at most 2 (Higham, Accuracy and Stability of Numerical Algorithms,
ch. 9).  The dominance is tight where no mass escapes (every row but the
edge at beta = 1), and rounding can then tip LAPACK's partial pivoting into
a swap; scaling column j of A by (1 - 1e-6)^j breaks those ties towards the
diagonal.  The leading blocks of one unpivoted factorization A = Lo Up are
the factorizations of every threshold's system, so one factorization for
all thresholds <= K gives, with z = Up^-T e_0,

    L_k(0) = sum_{i<k} z_i (Lo^-1 d)_i,    M_k(0) = sum_{i<k} z_i (Lo^-1 1)_i,
    U_k(0) = beta sum_{i<k} z_i (Lo^-1 R)[i, k],

with R[i, k] the mass from state i that lands at |.| >= k.  Every term is
nonnegative, so N keeps its relative accuracy however small it is, and the
distortion increment comes from one term of each sum,

    D(k+1) - D(k) = z_k ((Lo^-1 d)_k M_k(0) - (Lo^-1 1)_k L_k(0)) / (M_k(0) M_{k+1}(0)),

rather than from subtracting two nearly equal D values.

The optimal-policy maps for both the costly and the rate-constrained
problems are lookups along the enumerated corner points, and the
birth-death instance additionally admits closed forms used here as an
independent cross-check route.

``threshold_table`` makes one pass over the landings, the (state,
|a state + w|, p(w)) triples of the folded chain: one ``bincount`` of them
gives T and the escaping mass, hence the right-hand sides [d, 1, R], and the
residual check sums T x over the same triples.  It calls LAPACK's ``dgetrf``,
``dgetrs`` and ``dtrtrs`` directly, not through ``scipy.linalg.lu_factor``,
and imports ``scipy.linalg`` itself, not when the module is imported: that
import is about half of the command line's start-up time, and
continuous-model commands never need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityError,
    DivergenceError,
    NumericsError,
    UsageError,
)
from .model import (
    MAX_SILENT_DIM,
    CostlyResult,
    CurvePoint,
    DiscountFactor,
    DistortionFn,
    IntegerPmf,
    ModelSpecA,
    PerfPoint,
    RandomizedThresholdPolicy,
    TradeoffCurve,
    count,
    integer_at_least,
    m_matrix_certificate,
)

#: Corners whose increment D(k+1) - D(k) is at most this times D(k+1) are skipped as
#: duplicates: relative, as the scale of d is arbitrary, and local, whatever the table's K.
_FLAT_D_TOL = 1e-12

#: Cap on the multiply-adds of the never-transmit convolution, horizon x
#: support x (kernel + 1): birth-death at beta = 0.999 (6.1e9) takes 1.4-2.2 s
#: and radius 5 at beta = 0.996 (5.7e9) 1.8 s on a 2-core Xeon; the work grows
#: as the squared horizon, so beta = 0.9995 would take 4x as long.
NEVER_TRANSMIT_MAX_WORK = 6.5e9

#: Ratio of successive column weights of the factored matrix; 1 - 1e-6 is far
#: above the rounding (about K eps) that could tip a tied pivot choice.
_TIE_BREAK = 1.0 - 1e-6


@dataclass(frozen=True)
class ThresholdTable:
    """Renewal quantities of every threshold k = 0..K, indexed by k.

    ``L[k]``, ``M[k]`` are L(0), M(0) of threshold k (empty sums at k = 0);
    ``D[k]``, ``N[k]`` its distortion and rate (0 and 1 at k = 0, which
    always transmits); ``dD[k]`` = D(k+1) - D(k) for k < K.  With x_k the
    discounted visits per cycle of threshold k to the folded states, for
    1 <= k < K ``land_edge[k]`` = beta x_k T[:k, k] is the discounted
    probability that a cycle of threshold k ends by landing on |e| = k, and
    for 0 <= k < K ``visit_edge[k]`` = x_{k+1}[k] counts the discounted
    visits to |e| = k in a cycle of threshold k + 1 (``land_edge[0]`` = 1).
    """

    L: np.ndarray
    M: np.ndarray
    D: np.ndarray
    N: np.ndarray
    dD: np.ndarray
    land_edge: np.ndarray
    visit_edge: np.ndarray


def _landings(spec: ModelSpecA, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(state, cell, p(w)) for every folded state below ``dim`` and every
    offset w of the pmf, flattened state by state: the cell is the folded
    state |a state + w| the error lands on, or ``dim`` when it escapes."""
    if dim > MAX_SILENT_DIM:
        raise CapacityError(f"silent system dimension {dim} exceeds cap {MAX_SILENT_DIM}")
    pmf = spec.pmf
    states = np.arange(dim)
    cells = spec.a * states[:, None] + pmf.offsets
    np.abs(cells, out=cells)
    np.minimum(cells, dim, out=cells)
    return (states.repeat(pmf.offsets.size), cells.ravel(),
            pmf.values[None, :].repeat(dim, axis=0).ravel())


def _landing_masses(rows: np.ndarray, cells: np.ndarray, mass: np.ndarray,
                    dim: int) -> np.ndarray:
    """G[i, j] = the mass from state i that lands in cell j: ``G[:, :dim]`` is
    the folded transition T and ``G[:, dim]`` the escaping mass.  ``bincount``
    adds in input order, so each entry is the same sum as ``np.add.at``'s."""
    return np.bincount(rows * (dim + 1) + cells, mass,
                       minlength=dim * (dim + 1)).reshape(dim, dim + 1)


def folded_transition(spec: ModelSpecA, dim: int) -> np.ndarray:
    """Folded silent-set transition ``T[i, j] = p(j - a i) + [j > 0] p(-j - a i)``
    over the states 0..dim-1; row i is missing the mass that escapes."""
    dim = integer_at_least(dim, 1, "silent system dimension")
    return _landing_masses(*_landings(spec, dim), dim)[:, :dim].copy()


def threshold_table(spec: ModelSpecA, K: int) -> ThresholdTable:
    """(L, M, D, N, dD) and the edge masses of every threshold k <= K from
    one factorization.

    One pass over the landings assembles T, the right-hand sides [d, 1, R]
    and the residual's T x.  (A W)^T, with W a tie-breaking column scaling,
    is factored once by LAPACK's ``dgetrf``, called directly, and the K
    system is solved from the same factors.  Its M column, m = A^-1 1, goes
    to ``model.m_matrix_certificate``, which raises ``SingularSystemError``
    unless A is a nonsingular M-matrix (an exact zero pivot leaves m
    infinite or NaN); then a row swap, or a residual above 1e-10 (1 +
    ||x||), raises ``NumericsError``.  K not an integer >= 1 raises
    ``UsageError``, and K past ``MAX_SILENT_DIM`` ``CapacityError`` before
    anything is allocated.  The K system's relative error bound, the
    certificate's column bound over max(1, |x_j(0)|), the largest over its
    columns (L, M, U), goes to ``error_bound`` in the diagnostics record.
    """
    beta = spec.beta
    K = integer_at_least(K, 1, "silent system dimension")
    rows, cells, mass = _landings(spec, K)
    G = _landing_masses(rows, cells, mass, K)
    T = G[:, :K]
    ks = np.arange(K)
    d = spec.distortion(ks)
    # right-hand sides [d, 1, R]: column 2 + c holds the mass that lands
    # beyond c, summed from the tail (rows below c are never read)
    B = np.empty((K, K + 2), order="F")
    B[:, 0] = d
    B[:, 1] = 1.0
    B[:, 2:] = G[:, 1:]
    R = B[:, :1:-1]
    np.add.accumulate(R, axis=1, out=R)
    b = np.column_stack((d, np.ones(K), beta * G[:, K]))

    # A W with W = diag(w): at beta = 1 the dominance is tight, and a rounding
    # tie would let partial pivoting swap rows; w decreasing breaks every tie
    # towards the diagonal, and w_0 = 1 leaves z unchanged
    w = _TIE_BREAK ** ks
    # ||A||_inf, A unscaled: its off-diagonal entries are <= 0
    anorm = float((1.0 + beta * (T.sum(axis=1) - 2.0 * T.diagonal())).max())
    A = T * -beta
    A *= w
    A.flat[:: K + 1] += w
    # imported here, not at module top: scipy.linalg is half of the CLI's start-up
    from scipy.linalg import lapack

    # an exact zero pivot (info > 0) leaves m infinite or NaN, which the
    # certificate below turns into a typed error
    lu, piv, _ = lapack.dgetrf(A.T, overwrite_a=1)
    del A

    x = w[:, None] * lapack.dgetrs(lu, piv, b, trans=1)[0]
    _, column_bound = m_matrix_certificate(
        anorm, x[:, 1], f"silent system singular at beta={float(beta)} (rcond={{rcond:.2e}}); "
        "the chain cannot escape the silent set")
    if (piv != ks).any():
        raise NumericsError(f"elimination on the silent system swapped rows (K={K})")
    # b - A x, with A x = x - beta T x and T x summed over the landings; an
    # escaping landing reads the zero row K of x
    xk = np.zeros((K + 1, 3))
    xk[:K] = x
    Tx = np.bincount((3 * rows[:, None] + np.arange(3)).ravel(),
                     (mass[:, None] * xk[cells]).ravel(), minlength=3 * K)
    r = b - x + beta * Tx.reshape(K, 3)
    resid = np.sqrt(np.add.reduce(r * r, axis=0))
    if (resid > 1e-10 * (1.0 + np.sqrt(np.add.reduce(x * x, axis=0)))).any():
        raise NumericsError(f"linear solve residual {resid.max():.2e} too large")
    bound = column_bound(r, x[0]) / np.maximum(1.0, np.abs(x[0]))

    # A = Up^T Lo^T W^-1 for W A^T = Lo Up: z = Lo^-1 W e_0 = Lo^-1 e_0, and
    # B becomes Up^-T B
    e0 = np.zeros(K)
    e0[0] = 1.0
    z = lapack.dtrtrs(lu, e0, lower=1, unitdiag=1)[0]
    B = lapack.dtrtrs(lu, B, trans=1, overwrite_b=1)[0]
    # Up^-1 is triangular, so the last entry of x_{k+1} is z_k / u_kk
    visit_edge = z / lu.diagonal()
    del lu
    zg, zh = z * B[:, 0], z * B[:, 1]
    L, M, D, N = np.zeros((4, K + 1))
    np.add.accumulate(zg, out=L[1:])
    np.add.accumulate(zh, out=M[1:])
    Y = B[:, 2:]
    Y *= z[:, None]
    np.add.accumulate(Y, axis=0, out=Y)
    np.divide(L[1:], M[1:], out=D[1:])
    N[0] = 1.0
    np.multiply(Y.diagonal(), beta, out=N[1:])
    N[1:] /= M[1:]
    dD = np.empty(K)
    dD[0] = D[1]
    dD[1:] = (zg[1:] * M[1:K] - zh[1:] * L[1:K]) / (M[1:K] * M[2:])
    count(factorizations=1, largest_system=K, error_bound=float(bound.max()))
    # x_k^T = Up_k^-1 z[:k].  Row k of W A^T left of the diagonal is
    # -beta w_k T[:k, k]^T = Lo[k, :k] Up_k, and (Lo z)_k = 0, so
    # beta x_k T[:k, k] = -Lo[k, :k] z[:k] / w_k = z_k / w_k
    return ThresholdTable(L=L, M=M, D=D, N=N, dD=dD,
                          land_edge=z / w, visit_edge=visit_edge)


def _never_transmit_distortion(spec: ModelSpecA) -> float:
    """Long-run distortion of the never-transmit policy."""
    beta = spec.beta
    pmf = spec.pmf
    d = spec.distortion
    mean_d_w = float(np.dot(pmf.values, d(pmf.offsets)))
    if spec.a == 0:
        return beta * mean_d_w  # exact at beta = 1
    if beta.is_average:
        raise DivergenceError("never-transmit average distortion diverges for |a| >= 1")
    if abs(spec.a) >= 2:
        # error support doubles per step; the convolution below cannot be carried
        # to the discount horizon within the dimension cap
        raise CapacityError(
            "never-transmit distortion with |a| >= 2 needs unbounded state support"
        )
    horizon = int(math.ceil(math.log(1e-12) / math.log(beta)))
    r = pmf.radius
    half = horizon * r + 1
    work = horizon * (2 * half + 1) * (2 * r + 2)
    if work > NEVER_TRANSMIT_MAX_WORK:
        raise CapacityError(
            f"never-transmit distortion at beta={float(beta)} needs {work:.1e} "
            f"multiply-adds over {horizon} steps, above the cap {NEVER_TRANSMIT_MAX_WORK:.1e}"
        )
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


def performance(spec: ModelSpecA, k: float) -> PerfPoint:
    """Exact (D, N) of the threshold-k policy.

    ``k = 0`` always transmits, ``k = math.inf`` never does; any other k
    that is not a nonnegative integer raises ``UsageError``.
    """
    if k == math.inf:
        N = 0.0
        D = _never_transmit_distortion(spec)
    elif integer_at_least(k) == 0:
        D, N = 0.0, 1.0
    else:
        table = threshold_table(spec, k)
        D, N = float(table.D[-1]), float(table.N[-1])
    return PerfPoint(distortion=D, transmission_rate=N)


def table_corners(table: ThresholdTable) -> list[tuple[int, float]]:
    """Corner prices of a table of K thresholds: for each usable threshold
    k_n < K, the price at which optimality passes from k_n to the next usable
    threshold (k_n + 1 for the last one).

    Thresholds whose distortion increment does not exceed ``_FLAT_D_TOL``
    times D(k+1) are skipped; a table with none left raises ``NumericsError``.
    """
    D, N, dD = table.D, table.N, table.dD
    usable = [int(k) for k in np.flatnonzero(dD > _FLAT_D_TOL * D[1:])]
    if not usable:
        raise NumericsError(f"no threshold up to {len(dD)} raises the distortion by more "
                            f"than {_FLAT_D_TOL} relative")
    out: list[tuple[int, float]] = []
    for kn, kn_next in zip(usable, usable[1:] + [None]):
        nxt = kn_next if kn_next is not None else kn + 1
        dn, dd = N[kn] - N[nxt], math.fsum(dD[kn:nxt])
        if dn <= 0.0:
            raise NumericsError(
                f"transmission rate failed to decrease between k={kn} and k={nxt}"
            )
        out.append((kn, float(dd / dn)))
    lams = [lam for _, lam in out]
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise NumericsError("corner prices are not strictly increasing")
    return out


def corner_lambdas(spec: ModelSpecA, k_max: int) -> list[tuple[int, float]]:
    """Enumerate the corner prices of the thresholds 0..k_max (see
    :func:`table_corners`), from one table of k_max + 1 thresholds."""
    return table_corners(threshold_table(spec, integer_at_least(k_max, 1, "k_max") + 1))


def optimal_costly(spec: ModelSpecA, lam: float) -> CostlyResult:
    """Optimal threshold and cost when each transmission costs ``lam``.

    The table doubles, one factorization each, until its corners cover
    ``lam``.  The threshold the last corner passes to owns every price
    above it if its rate is exactly 0 (at a = 0 the error cannot leave a
    silent set wider than the innovation): it never transmits, so C = D
    whatever the price, and no later threshold costs less.  Otherwise a
    doubling that adds no corner means the distortion has stopped
    increasing (beta < 1), so no larger price can be resolved.
    """
    if not 0.0 <= lam < math.inf:
        raise UsageError(f"transmission price must be nonnegative and finite, got {lam}")
    k_max = 8
    table = threshold_table(spec, k_max + 1)
    corners = table_corners(table)
    while lam > corners[-1][1]:
        k_next = corners[-1][0] + 1
        if table.N[k_next] == 0.0:
            D = float(table.D[k_next])
            return CostlyResult(k_next, D, PerfPoint(distortion=D, transmission_rate=0.0))
        if k_max + 1 >= MAX_SILENT_DIM:
            raise CapacityError(f"price {lam} needs thresholds beyond the dimension cap")
        k_max = min(2 * k_max, MAX_SILENT_DIM - 1)
        count(search_steps=1)
        table = threshold_table(spec, k_max + 1)
        wider = table_corners(table)
        if len(wider) == len(corners):
            kn, lam_last = corners[-1]
            raise CapacityError(
                f"price {lam} lies above the last resolvable corner price {lam_last!r} "
                f"(threshold {kn}): no threshold up to {k_max} raises the distortion "
                f"by more than {_FLAT_D_TOL} relative"
            )
        corners = wider
    # corner prices increase, so the first corner covering lam owns its interval
    k_star = next(kn for kn, lam_k in corners if lam <= lam_k)
    D, N = float(table.D[k_star]), float(table.N[k_star])
    return CostlyResult(k_star, D + lam * N, PerfPoint(distortion=D, transmission_rate=N))


def optimal_constrained(spec: ModelSpecA, alpha: float) -> tuple[RandomizedThresholdPolicy, float]:
    """Optimal mixture policy and distortion under rate budget ``alpha``.

    The table doubles, one factorization each, until its last rate is below
    the budget.  The largest threshold whose rate still meets the budget is
    mixed with the next one so the mixed rate equals ``alpha`` exactly.
    """
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"rate budget must lie in (0, 1), got {alpha}")
    K = min(8, MAX_SILENT_DIM)
    table = threshold_table(spec, K)
    while not table.N[K] < alpha:
        if K >= MAX_SILENT_DIM:
            raise CapacityError("rate budget needs thresholds beyond the dimension cap")
        K = min(2 * K, MAX_SILENT_DIM)
        count(search_steps=1)
        table = threshold_table(spec, K)
    D, N = table.D, table.N
    if np.any(np.diff(N) > 0.0):
        raise NumericsError(f"transmission rate is not monotone in the threshold (K={K})")
    k = int(np.searchsorted(-N, -alpha, side="right"))  # first k with N[k] < alpha
    k_star = k - 1
    theta = (alpha - N[k]) / (N[k_star] - N[k])
    mixed_rate = theta * N[k_star] + (1.0 - theta) * N[k]
    if abs(mixed_rate - alpha) > 1e-10:
        raise NumericsError(f"mixed rate {mixed_rate} missed budget {alpha}")
    d_star = float(theta * D[k_star] + (1.0 - theta) * D[k])
    return RandomizedThresholdPolicy(k_star=k_star, theta_star=float(theta)), d_star


def tradeoff_curve(spec: ModelSpecA, kind: str, k_max: int) -> TradeoffCurve:
    """Corner points of the optimal trade-off curve up to threshold k_max,
    from one table of k_max + 1 thresholds: the costly curve at the corner
    prices, the constrained one at the thresholds the corners keep and the
    one the last corner passes to."""
    if kind not in ("costly", "constrained"):
        raise UsageError(f"unknown curve kind {kind!r}")
    k_max = integer_at_least(k_max, 1, "k_max")
    table = threshold_table(spec, k_max + 1)
    D, N = table.D, table.N
    corners = table_corners(table)
    if kind == "costly":
        points = tuple(CurvePoint(abscissa=lam, ordinate=float(D[kn] + lam * N[kn]), threshold=kn)
                       for kn, lam in corners)
    else:
        kept = [kn for kn, _ in corners] + [kn + 1 for kn, _ in corners[-1:]]
        points = tuple(CurvePoint(abscissa=float(N[k]), ordinate=float(D[k]), threshold=k)
                       for k in reversed(kept) if k <= k_max)
    curve = TradeoffCurve(kind=kind, points=points)
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


def _check_bd_args(p: float, k: int) -> int:
    if not 0.0 < p < 1.0 / 3.0:
        raise UsageError(f"birth-death closed forms need p in (0, 1/3), got {p}")
    return integer_at_least(k, 1)


def bd_closed_form(p: float, beta: float, k: int) -> PerfPoint:
    """Closed-form (D, N) of the threshold-k policy on the birth-death instance."""
    k = _check_bd_args(p, k)
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
    k = _check_bd_args(p, k)
    return k * (k + 1.0) * (k * k + k + 1.0) / (6.0 * p * (2.0 * k + 1.0))


def bd_q_entry(p: float, beta: float, k: int, i: int, j: int) -> float:
    """Entry (i, j) of the inverse silent-system matrix for the birth-death
    instance, via the closed-form inverse of the symmetric tridiagonal matrix."""
    k = _check_bd_args(p, k)
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
