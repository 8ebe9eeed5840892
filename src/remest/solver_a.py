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
problems are lookups along the enumerated corner points.

One threshold needs none of the table: row 0 of the solution x of its
own system, with right-hand sides [d, 1, beta r] (r the escaping mass), is
(L(0), M(0), U(0)), and x is the very solution that the M-matrix
certificate, the residual check and the reported error bound cover.  So
``performance`` reads D and N off that certified solve, and
``threshold_table`` runs the same solve for threshold K, then extends its
factorization to every k < K with the two triangular solves above.

The solve makes one pass over the landings, the (state, |a state + w|,
p(w)) triples of the folded chain: one ``bincount`` of them gives T and the
escaping mass, hence the right-hand sides, and the residual check sums T x
over the same triples.  It calls LAPACK's ``dgetrf`` and ``dgetrs``
directly, and the table's extension ``dtrtrs``, not through
``scipy.linalg.lu_factor``; the first factorization imports
``scipy.linalg`` itself, not when the module is imported: that import is
about half of the command line's start-up time, and continuous-model
commands never need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, NumericsError, UsageError
from .model import (
    MAX_SILENT_DIM,
    CostlyResult,
    CurvePoint,
    DistortionFn,
    IntegerPmf,
    ModelSpecA,
    PerfPoint,
    RandomizedThresholdPolicy,
    TradeoffCurve,
    count,
    integer_at_least,
    m_matrix_certificate,
    real_in,
)

#: Corners whose increment D(k+1) - D(k) is at most this times D(k+1) are skipped as
#: duplicates: relative, as the scale of d is arbitrary, and local, whatever the table's K.
_FLAT_D_TOL = 1e-12

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
    cells = spec.clipped_a(dim) * states[:, None] + pmf.offsets
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


def _lapack():
    """scipy's LAPACK wrappers, imported on first use, not at module top:
    scipy.linalg is about half of the command line's start-up time."""
    from scipy.linalg import lapack

    return lapack


def _solve_k_system(spec: ModelSpecA, K: int) -> tuple[int, np.ndarray, ...]:
    """The certified solve of threshold K's own system, x = A^-1 [d, 1, beta r]
    with r the escaping mass: row 0 of x is (L(0), M(0), U(0)) of threshold K.

    One pass over the landings assembles T, the right-hand sides and the
    residual's T x.  (A W)^T, with W a tie-breaking column scaling, is
    factored once by LAPACK's ``dgetrf``, called directly, and solved from
    the same factors by ``dgetrs``.  The M column, m = A^-1 1, goes to
    ``model.m_matrix_certificate``, which raises ``SingularSystemError``
    unless A is a nonsingular M-matrix (an exact zero pivot leaves m
    infinite or NaN); then a row swap, or a residual above 1e-10 (1 +
    ||x||), raises ``NumericsError``.  K not an integer >= 1 raises
    ``UsageError``, and K past ``MAX_SILENT_DIM`` ``CapacityError`` before
    anything is allocated.  The relative error bound, the certificate's
    column bound over max(1, |x_j(0)|), the largest over the columns
    (L, M, U), goes to ``error_bound`` in the diagnostics record.

    Returns the checked K, x, the right-hand sides b, the landing masses G
    (T and the escaping mass), the factors of W A^T and the weights w of W.
    """
    beta = spec.beta
    K = integer_at_least(K, 1, "silent system dimension")
    rows, cells, mass = _landings(spec, K)
    G = _landing_masses(rows, cells, mass, K)
    T = G[:, :K]
    ks = np.arange(K)
    b = np.column_stack((spec.distortion(ks), np.ones(K), beta * G[:, K]))

    # A W with W = diag(w): at beta = 1 the dominance is tight, and a rounding
    # tie would let partial pivoting swap rows; w decreasing breaks every tie
    # towards the diagonal, and w_0 = 1 leaves z unchanged
    w = _TIE_BREAK ** ks
    # ||A||_inf, A unscaled: its off-diagonal entries are <= 0
    anorm = float((1.0 + beta * (T.sum(axis=1) - 2.0 * T.diagonal())).max())
    A = T * -beta
    A *= w
    A.flat[:: K + 1] += w
    lapack = _lapack()
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
    count(factorizations=1, largest_system=K, error_bound=float(bound.max()))
    return K, x, b, G, lu, w


def threshold_table(spec: ModelSpecA, K: int) -> ThresholdTable:
    """(L, M, D, N, dD) and the edge masses of every threshold k <= K from
    one factorization.

    ``_solve_k_system`` factors and certifies threshold K's system, with
    every check and error it documents; the table extends that one
    factorization to every k < K with two triangular solves, of e_0 and of
    the right-hand sides [d, 1, R].  The diagnostics record is the K
    system's: one factorization, its size and its error bound.
    """
    beta = spec.beta
    K, _, b, G, lu, w = _solve_k_system(spec, K)
    # right-hand sides [d, 1, R]: column 2 + c holds the mass that lands
    # beyond c, summed from the tail (rows below c are never read)
    B = np.empty((K, K + 2), order="F")
    B[:, 0] = b[:, 0]
    B[:, 1] = 1.0
    B[:, 2:] = G[:, 1:]
    R = B[:, :1:-1]
    np.add.accumulate(R, axis=1, out=R)

    # A = Up^T Lo^T W^-1 for W A^T = Lo Up: z = Lo^-1 W e_0 = Lo^-1 e_0, and
    # B becomes Up^-T B
    lapack = _lapack()
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
    # U_k(0) = beta sum_{i<k} Y[i, k-1], a column sum over Y's upper triangle;
    # over a C-ordered Y the reduce adds one row at a time, in row order
    Y = np.multiply(B[:, 2:], z[:, None], order="C")
    np.add.reduce(Y, axis=0, where=~np.tri(K, k=-1, dtype=bool), initial=0.0, out=N[1:])
    np.divide(L[1:], M[1:], out=D[1:])
    N[0] = 1.0
    N[1:] *= beta
    N[1:] /= M[1:]
    dD = np.empty(K)
    dD[0] = D[1]
    dD[1:] = (zg[1:] * M[1:K] - zh[1:] * L[1:K]) / (M[1:K] * M[2:])
    # x_k^T = Up_k^-1 z[:k].  Row k of W A^T left of the diagonal is
    # -beta w_k T[:k, k]^T = Lo[k, :k] Up_k, and (Lo z)_k = 0, so
    # beta x_k T[:k, k] = -Lo[k, :k] z[:k] / w_k = z_k / w_k
    return ThresholdTable(L=L, M=M, D=D, N=N, dD=dD,
                          land_edge=z / w, visit_edge=visit_edge)


def performance(spec: ModelSpecA, k: int) -> PerfPoint:
    """Exact (D, N) of the threshold-k policy.

    For k >= 1, D = L(0)/M(0) and N = U(0)/M(0) come straight from the
    certified solve of threshold k's own system (``_solve_k_system``, with
    its checks, errors and diagnostics record); no table is built.
    ``k = 0`` always transmits; any other k that is not a nonnegative
    integer, ``math.inf`` included, raises ``UsageError``.  Never
    transmitting is the k -> inf limit, which at beta < 1 the flat tail of
    ``threshold_table`` gives.
    """
    if integer_at_least(k) == 0:
        return PerfPoint(distortion=0.0, transmission_rate=1.0)
    x = _solve_k_system(spec, k)[1]
    return PerfPoint(distortion=float(x[0, 0] / x[0, 1]),
                     transmission_rate=float(x[0, 2] / x[0, 1]))


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
    lam = real_in(lam, "[0, inf)", "transmission price")
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
    alpha = real_in(alpha, "(0, 1)", "rate budget")
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


def bd_spec(p: float, beta: float, a: int = 1) -> ModelSpecA:
    """Birth-death instance with absolute distortion."""
    return ModelSpecA(
        a=a,
        pmf=IntegerPmf.birth_death(p),
        distortion=DistortionFn.absolute(),
        beta=beta,
    )
