import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from remest import (BracketError, ConvergenceError, NumericsError, SingularSystemError,
                    UsageError)
from remest import solver_b
from remest.model import DistortionFn, ModelSpecB, SmoothPdf, collect
from remest.solver_b import QuadratureGrid
from remest.validation import MC_SIGMAS, PRICE_FD_TOL, RATE_FD_TOL, price_fd_error


def _abs_spec():
    return ModelSpecB(a=1.0, pdf=SmoothPdf.gaussian(1.0), distortion=DistortionFn.absolute(),
                      beta=1.0)


def _rhs_columns(sol, kernel, rhs, beta, e):
    """The right-hand sides at ``e``, one column each, the derivative
    column's beta kernel(e, k) last."""
    return np.column_stack([f(e) if callable(f) else np.full(np.shape(e), float(f)) for f in rhs]
                           + [beta * kernel(e, sol.grid.k)])


def _extension(sol, kernel, rhs, beta, e):
    """The Nystrom extension rhs(e) + beta sum_j w_j kernel(e, x_j) v(x_j) of a
    solution, one row per point of ``e`` and one column per right-hand side,
    the derivative column last."""
    e = np.atleast_1d(np.asarray(e, dtype=float))
    quad = (kernel(e[:, None], sol.grid.nodes[None, :]) * sol.grid.weights) @ sol.values
    return _rhs_columns(sol, kernel, rhs, beta, e) + beta * quad


def _residual(sol, kernel, rhs, beta, e):
    """Defect of the integral equations at ``e``, one column per right-hand
    side, against a rule of 2n + 1 nodes."""
    fine = QuadratureGrid.gauss_legendre(sol.grid.k, 2 * sol.grid.order + 1)
    v_fine = _extension(sol, kernel, rhs, beta, fine.nodes)
    quad = (kernel(e[:, None], fine.nodes[None, :]) * fine.weights) @ v_fine
    return (_extension(sol, kernel, rhs, beta, e)
            - _rhs_columns(sol, kernel, rhs, beta, e) - beta * quad)


class TestQuadratureGrid:
    def test_invariants(self):
        for k, order in [(1.0, 33), (1.0, 65), (3.5, 129), (0.01, 65)]:
            grid = QuadratureGrid.gauss_legendre(k, order)
            assert abs(np.sum(grid.weights) - k) <= 1e-12 * max(1.0, k)
            assert np.all(np.diff(grid.nodes) > 0.0)
            assert np.all(grid.weights > 0.0)
            assert grid.order == order
            assert 0.0 < grid.nodes[0] and grid.nodes[-1] < k

    def test_cached_unit_nodes_are_read_only(self):
        # a rung's points on (0, 1): rows, columns (the derivative column's 1
        # last) and weights (0 for that column)
        points = solver_b._rung_points(65)
        assert solver_b._rung_points(65)[0] is points[0]
        rows, cols, weights = points
        assert rows.shape == (65 + 131 + 2,) and cols.shape == weights.shape == (65 + 131 + 1,)
        assert (rows[-2:] == (0.0, 1.0)).all() and cols[-1] == 1.0 and weights[-1] == 0.0
        assert abs(weights[:65].sum() - 1.0) <= 1e-14 and abs(weights.sum() - 2.0) <= 1e-14
        for arr in points:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_weight_sum(self):
        grid = QuadratureGrid.gauss_legendre(2.5, 65)
        assert np.sum(grid.weights) == pytest.approx(2.5, abs=1e-12)


class TestFredholmSolve:
    def test_zero_kernel_returns_rhs(self):
        zero, rhs = lambda e, n: np.zeros(np.broadcast(e, n).shape), [lambda e: np.cos(e)]
        sol = solver_b.fredholm_solve(zero, rhs, 1.0, 0.9)
        probes = np.linspace(0.05, 0.95, 11)
        assert np.allclose(_extension(sol, zero, rhs, 0.9, probes)[:, 0], np.cos(probes),
                           atol=1e-14)

    def test_tiny_beta_near_identity(self, gm_unit):
        kern = lambda e, n: gm_unit.pdf.density(n - e)
        rhs = [lambda e: e * e]
        sol = solver_b.fredholm_solve(kern, rhs, 1.0, 1e-12)
        probes = np.linspace(0.05, 0.95, 11)
        got = _extension(sol, kern, rhs, 1e-12, probes)[:, 0]
        assert np.max(np.abs(got - probes ** 2)) <= 1e-10

    def test_needs_a_right_hand_side(self, gm_unit):
        with pytest.raises(UsageError, match="right-hand side"):
            solver_b.fredholm_solve(lambda e, n: gm_unit.pdf.density(n - e), [], 1.0, 1.0)

    def test_residual_small_off_nodes(self, gm_unit):
        kern = lambda e, n: gm_unit.pdf.density(n - e)
        sol = solver_b.fredholm_solve(kern, [1.0], 2.0, 1.0)
        probes = np.linspace(0.01, 1.99, 64)
        resid = _residual(sol, kern, [1.0], 1.0, probes)
        assert np.max(np.abs(resid)) <= 1e-8 * max(1.0, sol.ends[0, 0])

    def test_monte_carlo_oracle(self, gm_unit):
        # stopped random walk: accumulate e^2 and steps until |E| >= 1
        rng = np.random.default_rng(12345)
        episodes = 200_000
        tot_d = np.zeros(episodes)
        tot_t = np.zeros(episodes)
        E = np.zeros(episodes)
        alive = np.ones(episodes, dtype=bool)
        while alive.any():
            tot_d[alive] += E[alive] ** 2
            tot_t[alive] += 1.0
            E[alive] += rng.normal(0.0, 1.0, int(alive.sum()))
            alive &= np.abs(E) < 1.0
        L0_mc = tot_d.mean()
        L0_se = tot_d.std(ddof=1) / math.sqrt(episodes)
        M0_mc = tot_t.mean()
        M0_se = tot_t.std(ddof=1) / math.sqrt(episodes)

        L0, M0 = solver_b.renewal(gm_unit, 1.0)[:2]
        assert abs(L0 - L0_mc) <= 3.0 * L0_se
        assert abs(M0 - M0_mc) <= 3.0 * M0_se

    @pytest.mark.parametrize("distortion", [DistortionFn.quadratic(), DistortionFn.absolute()],
                             ids=["quadratic", "abs"])
    def test_joint_solve_matches_single_columns(self, distortion):
        spec = ModelSpecB(a=0.8, pdf=SmoothPdf.gaussian(1.0), distortion=distortion,
                          beta=0.95)
        kern = solver_b._spec_kernel(spec)
        k = 1.3
        both = solver_b.fredholm_solve(kern, [distortion, 1.0], k, spec.beta)
        L1 = solver_b.fredholm_solve(kern, [distortion], k, spec.beta)
        M1 = solver_b.fredholm_solve(kern, [1.0], k, spec.beta)
        tol = solver_b._DEFAULT_TOL
        # L, M and the derivative column phi, which every solve carries last
        assert both.values.shape == (both.grid.order, 3)
        # the origin, then off-node points on both sides of it
        e = np.concatenate([[0.0], np.linspace(-k, k, 27)[1:-1] + 0.013])
        got = _extension(both, kern, [distortion, 1.0], spec.beta, e)
        assert got.shape == (len(e), 3)
        for col, single, rhs, single_col in ((0, L1, distortion, 0), (1, M1, 1.0, 0),
                                             (2, L1, distortion, 1), (2, M1, 1.0, 1)):
            want = _extension(single, kern, [rhs], spec.beta, e)[:, single_col]
            assert np.all(np.abs(got[:, col] - want) <= tol * np.maximum(1.0, np.abs(want)))

    def test_stopping_order_is_max_over_columns(self, gm_unit):
        # the oscillating right-hand side needs more nodes than the constant one
        kern = lambda e, n: gm_unit.pdf.density(n - e)
        wavy = lambda e: np.cos(40.0 * e)
        flat = solver_b.fredholm_solve(kern, [1.0], 3.0, 1.0)
        osc = solver_b.fredholm_solve(kern, [wavy], 3.0, 1.0)
        assert flat.grid.order < osc.grid.order
        both = solver_b.fredholm_solve(kern, [1.0, wavy], 3.0, 1.0)
        assert both.grid.order == osc.grid.order
        assert both.ends[0, 1] == pytest.approx(osc.ends[0, 0], abs=1e-10)

    def test_kernel_with_jump_does_not_converge(self, monkeypatch):
        monkeypatch.setattr(solver_b, "_MAX_ORDER", 257)
        box = lambda e, n: 0.5 * (np.abs(n - e) < 0.5)
        with pytest.raises(ConvergenceError):
            solver_b.fredholm_solve(box, [1.0], 1.0, 1.0)

    def test_contraction_on_grid(self, gm_unit):
        kern = lambda e, n: gm_unit.pdf.density(n - e)
        for beta in (0.9, 1.0):
            sol = solver_b.fredholm_solve(kern, [1.0], 1.5, beta)
            K = kern(sol.grid.nodes[:, None], sol.grid.nodes[None, :])
            row_norm = float(np.max(np.sum(beta * K * sol.grid.weights[None, :], axis=1)))
            assert row_norm <= beta + 1e-9

    def test_node_doubling_contracts_error(self, gm_unit):
        # solve the folded equation on (0, 1) at fixed orders directly to
        # watch the Nystrom error collapse
        kern = solver_b._spec_kernel(gm_unit)
        vals = []
        for order in (5, 9, 17):
            grid = QuadratureGrid.gauss_legendre(1.0, order)
            K = kern(grid.nodes[:, None], grid.nodes[None, :]) * grid.weights[None, :]
            v = np.linalg.solve(np.eye(order) - K, np.ones(order))
            v0 = 1.0 + float(np.sum(grid.weights * kern(0.0, grid.nodes) * v))
            vals.append(v0)
        ref = solver_b.renewal(gm_unit, 1.0, tolerance=1e-12).M0
        errs = [abs(v - ref) for v in vals]
        assert errs[1] <= 0.1 * errs[0] or errs[1] < 1e-12
        assert errs[2] <= 0.1 * errs[1] or errs[2] < 1e-12

    @pytest.mark.parametrize("a, beta, k", [(0.8, 0.95, 1.3), (1.0, 1.0, 2.0)])
    def test_rcond_is_exact(self, a, beta, k):
        # the kernel is nonnegative, so ||A^-1||_inf is the largest entry of
        # A^-1 1: the rcond needs no estimate
        spec = solver_b.gauss_markov_spec(1.0, a=a, beta=beta)
        kern = solver_b._spec_kernel(spec)
        sol = solver_b.fredholm_solve(kern, [1.0], k, beta, tolerance=1e-6)
        assert sol.grid.order == 17
        nodes, weights = sol.grid.nodes, sol.grid.weights
        A = np.eye(17) - beta * kern(nodes[:, None], nodes[None, :]) * weights[None, :]
        want = 1.0 / (np.linalg.norm(A, np.inf) * np.linalg.norm(np.linalg.inv(A), np.inf))
        assert sol.rcond == pytest.approx(want, rel=1e-12)

    def test_no_escape_mass_is_singular(self):
        # every row of beta K W sums to 1, so A 1 = 0
        flat = lambda e, n: np.full(np.broadcast(e, n).shape, 0.5)
        # both rules give every row mass 1, so the first rung raises
        with collect() as record:
            with pytest.raises(SingularSystemError, match="rcond="):
                solver_b.fredholm_solve(flat, [1.0], 2.0, 1.0)
        assert record.factorizations == 1

    def test_convergence_error_reports_conditioning(self, monkeypatch):
        # at a = 0 the kernel is smooth but rank one, and I - K is nearly
        # singular: M(0) = 1 / P(|W| >= 5) = 1.7e6
        monkeypatch.setattr(solver_b, "_MAX_ORDER", 257)
        with pytest.raises(ConvergenceError) as info:
            solver_b.performance_b(solver_b.gauss_markov_spec(1.0, a=0.0), 5.0)
        msg = str(info.value)
        rcond = float(re.search(r"rcond=([^,]+),", msg).group(1))
        v0 = float(re.search(r"\|v\(0\)\|=([^)]+)\)", msg).group(1))
        assert 0.0 < rcond < 1e-6
        assert v0 == pytest.approx(1.0 / math.erfc(5.0 / math.sqrt(2.0)), rel=1e-2)


def _nystrom_at_zero(spec, k, order):
    """L(0), M(0) and phi(0) from the plain Nystrom solve at a fixed order."""
    kern = solver_b._spec_kernel(spec)
    grid = QuadratureGrid.gauss_legendre(k, order)
    A = np.eye(order) - spec.beta * kern(grid.nodes[:, None], grid.nodes[None, :]) * grid.weights
    phi_rhs = lambda e: spec.beta * kern(e, k)
    v = np.linalg.solve(A, np.column_stack([spec.distortion(grid.nodes), np.ones(order),
                                            phi_rhs(grid.nodes)]))
    return (np.array([0.0, 1.0, phi_rhs(0.0)])
            + spec.beta * (grid.weights * kern(0.0, grid.nodes)) @ v)


class TestErrorBound:
    @given(st.floats(-2.0, 2.0), st.floats(0.5, 1.0), st.floats(0.5, 2.0), st.floats(0.1, 4.5),
           st.sampled_from(["quadratic", "absolute"]))
    # at order 17 L(0) = 26.3 is off by 4.9e-13 and bound by 8.6e-13; max h = 26
    @example(1.0, 1.0, 0.5, 4.5, "quadratic")
    @settings(max_examples=40, deadline=None)
    def test_bound_covers_the_error_at_zero(self, a, beta, sigma, k_over_sigma, distortion):
        # the order-129 reference is trusted only up to its own distance from
        # order 257, which is rounding.  The ladder's own rung is checked, and
        # an order-17 rung, whose error is still above the rounding
        spec = ModelSpecB(a=a, pdf=SmoothPdf.gaussian(sigma),
                          distortion=getattr(DistortionFn, distortion)(), beta=beta)
        k = k_over_sigma * sigma
        kern, rhs = solver_b._spec_kernel(spec), [spec.distortion, 1.0]
        sol = solver_b.fredholm_solve(kern, rhs, k, beta)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_b, "_START_ORDER", 17)
            coarse = solver_b.fredholm_solve(kern, rhs, k, beta, tolerance=math.inf)
        ref, finer = _nystrom_at_zero(spec, k, 129), _nystrom_at_zero(spec, k, 257)
        for rung in (sol, coarse):
            assert np.all(np.abs(rung.ends[0] - ref) - np.abs(ref - finer) <= rung.bound)
        assert np.all(sol.bound <= solver_b._DEFAULT_TOL * np.maximum(1.0, np.abs(ref)))

    def test_ends_are_the_extension(self, gm_unit):
        k = 1.7
        kern, rhs = solver_b._spec_kernel(gm_unit), [gm_unit.distortion, 1.0]
        sol = solver_b.fredholm_solve(kern, rhs, k, 1.0)
        assert np.allclose(sol.ends, _extension(sol, kern, rhs, 1.0, [0.0, k]), rtol=1e-14,
                           atol=0.0)

    def test_command_reports_its_largest_bound(self, gm_unit):
        with collect() as record:
            solver_b.renewal(gm_unit, 1.0)
            solver_b.renewal(gm_unit, 3.0)
        assert record.factorizations == 2 and record.largest_system == 17
        assert 0.0 < record.error_bound <= solver_b._DEFAULT_TOL

    def test_stalled_bound_fails_fast(self):
        # at a = 0.5, beta = 1, k = 8 sigma, M(0) = 3e11: rounding keeps the
        # bound above 1e-10 relative, and it rises from order 33 to 65
        with collect() as record:
            with pytest.raises(ConvergenceError, match=r"error bound .* by order 65 .*rcond="):
                solver_b.renewal(solver_b.gauss_markov_spec(1.0, a=0.5, beta=1.0), 8.0)
        assert record.largest_system == 65


class TestLadder:
    def test_bound_climbs_past_the_first_rung(self):
        # at a = 2 order 17 is an M-matrix but misses the bound; order 33 meets it
        with collect() as record:
            solver_b.renewal(solver_b.gauss_markov_spec(1.0, a=2.0, beta=1.0), 4.0)
        assert record.factorizations == 2 and record.largest_system == 33

    def test_under_resolved_rung_climbs(self):
        # at k = 32 sigma the order-17 row masses exceed beta = 0.9 and miss the
        # 35-node rule's by 0.165: that rung is not an M-matrix, and it climbs
        spec = solver_b.gauss_markov_spec(1.0, a=1.0, beta=0.9)
        kern = solver_b._spec_kernel(spec)
        grid, fine = (QuadratureGrid.gauss_legendre(32.0, n) for n in (17, 35))
        masses = [0.9 * (kern(grid.nodes[:, None], g.nodes[None, :]) * g.weights).sum(1)
                  for g in (grid, fine)]
        assert masses[0].max() > 0.9
        assert np.abs(masses[0] - masses[1]).max() == pytest.approx(0.165, abs=1e-3)
        with collect() as record:
            at = solver_b.renewal(spec, 32.0)
        assert record.largest_system == 65
        assert at.N == pytest.approx(6.231602566132347e-08, rel=1e-12)

    def test_unresolved_kernel_is_a_convergence_error(self):
        # a = 1, k = 64 sigma: no rung below 129 is an M-matrix, and rounding
        # (M(0) = 2.9e6) stops the bound at order 257; no escape mass vanishes
        with collect() as record:
            with pytest.raises(ConvergenceError, match=r"bound 2\.83e-09 .* by order 257 "):
                solver_b.renewal(solver_b.gauss_markov_spec(1.0, a=1.0, beta=1.0), 64.0)
        assert record.largest_system == 257

    @given(st.floats(-2.0, 2.0), st.floats(0.5, 1.0), st.floats(0.1, 6.0),
           st.sampled_from(["quadratic", "absolute"]))
    @settings(max_examples=30, deadline=None)
    def test_first_rung_agrees_with_order_65(self, a, beta, k, distortion):
        spec = ModelSpecB(a=a, pdf=SmoothPdf.gaussian(1.0),
                          distortion=getattr(DistortionFn, distortion)(), beta=beta)
        try:
            got = _renewal_and_error(spec, k)
        except ConvergenceError:
            return  # the rounding floor of beta = 1 and k near 6 sigma
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_b, "_START_ORDER", 65)
            want = _renewal_and_error(spec, k, tolerance=math.inf)
        for (x, dx), (y, dy) in zip(got, want):
            assert abs(x - y) <= dx + dy + 1e-14 * abs(y)


def _renewal_and_error(spec, k, tolerance=solver_b._DEFAULT_TOL):
    """(D, error bound), (N, ...), (lambda(k), ...) and (N'(k), ...) of
    ``renewal``: the bounds on L, M, U and phi of the rung it read, carried
    through D = L(0)/M(0), N = U(0)/M(0), lambda = M(0) L(k)/M(k) - L(0) and
    N' = -M(k) phi(0)/M(0)^2 to first order."""
    solved, solve = [], solver_b.fredholm_solve

    def spy(*args):
        solved.append(solve(*args))
        return solved[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_b, "fredholm_solve", spy)
        at = solver_b.renewal(spec, k, tolerance)
    (L0, M0, _, phi0), (Lk, Mk, _, _) = solved[0].ends
    bL, bM, bU, bphi = solved[0].bound
    slope = Lk / Mk
    return ((at.D, (bL + at.D * bM) / M0), (at.N, (bU + at.N * bM) / M0),
            (at.price, bL + slope * bM + M0 / Mk * (bL + slope * bM)),
            (at.dN, (phi0 * bM + Mk * bphi + 2.0 * abs(at.dN) * M0 * bM) / (M0 * M0)))


class TestPerformanceB:
    def test_rate_limit_small_k(self, gm_unit):
        p = solver_b.performance_b(gm_unit, 1e-4)
        assert abs(p.transmission_rate - 1.0) <= 1e-3

    def test_rate_small_at_k10(self, gm_unit):
        p = solver_b.performance_b(gm_unit, 10.0)
        assert p.transmission_rate < 0.05

    def test_scale_identity_pointwise(self):
        for sigma, k in [(2.0, 2.0), (0.5, 1.5)]:
            scaled = solver_b.gauss_markov_spec(sigma)
            base = solver_b.gauss_markov_spec(1.0)
            ps = solver_b.performance_b(scaled, k)
            p1 = solver_b.performance_b(base, k / sigma)
            assert ps.distortion == pytest.approx(sigma ** 2 * p1.distortion, rel=1e-9)
            assert ps.transmission_rate == pytest.approx(p1.transmission_rate, rel=1e-9)

    @pytest.mark.parametrize("distortion", [DistortionFn.quadratic(), DistortionFn.absolute()],
                             ids=["quadratic", "abs"])
    @pytest.mark.parametrize("a", [-0.7, 0.5, 1.3])
    def test_matches_unfolded_reference(self, distortion, a):
        # reference: the unfolded equation on (-k, k) with kernel f(n - a e),
        # Gauss-Legendre on (-k, 0) and (0, k) at a fixed order, so the kink
        # of |e| sits on a panel edge
        spec = ModelSpecB(a=a, pdf=SmoothPdf.gaussian(1.0), distortion=distortion,
                          beta=0.95)
        k = 1.5
        x, w = np.polynomial.legendre.leggauss(65)
        nodes = np.concatenate([0.5 * k * (x - 1.0), 0.5 * k * (x + 1.0)])
        weights = np.concatenate([0.5 * k * w, 0.5 * k * w])
        K = spec.pdf.density(nodes[None, :] - a * nodes[:, None]) * weights[None, :]
        v = np.linalg.solve(np.eye(len(nodes)) - spec.beta * K,
                            np.column_stack([distortion(nodes), np.ones(len(nodes))]))
        ref = [0.0, 1.0] + spec.beta * (spec.pdf.density(nodes) * weights) @ v
        got = solver_b.renewal(spec, k)[:2]
        for g, r in zip(got, ref):
            assert abs(g - r) <= 1e-9 * max(1.0, abs(r))

    def test_sign_flip_symmetry(self):
        pos = solver_b.gauss_markov_spec(1.0, a=0.8)
        neg = solver_b.gauss_markov_spec(1.0, a=-0.8)
        pp = solver_b.performance_b(pos, 1.0)
        pn = solver_b.performance_b(neg, 1.0)
        assert pp.distortion == pytest.approx(pn.distortion, rel=1e-10)
        assert pp.transmission_rate == pytest.approx(pn.transmission_rate, rel=1e-10)

    def test_abs_distortion_matches_simulation(self):
        from remest.simulate import PolicySpec, SimConfig, simulate

        spec = _abs_spec()
        p = solver_b.performance_b(spec, 1.0)
        res = simulate(spec, PolicySpec.threshold(1.0),
                       SimConfig(horizon=20_000, replications=50, seed=31))
        assert abs(res.d_hat - p.distortion) <= MC_SIGMAS * res.d_se
        assert abs(res.n_hat - p.transmission_rate) <= MC_SIGMAS * res.n_se

    def test_rate_has_no_cancellation(self):
        # at a = 0 every step restarts the error: N = beta P(|W| >= k), which
        # 1/M(0) - (1 - beta) missed by 1.3e-6 relative at k = 6
        spec = solver_b.gauss_markov_spec(1.0, a=0.0, beta=0.9)
        want = 0.9 * math.erfc(6.0 / math.sqrt(2.0))
        assert solver_b.renewal(spec, 6.0).N == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_invalid_threshold(self, gm_unit):
        with pytest.raises(UsageError):
            solver_b.performance_b(gm_unit, 0.0)

    def test_non_finite_density_is_numerics_error(self):
        nan_pdf = SmoothPdf.tabulated(lambda w: np.full(np.shape(w), np.nan), 1.0)
        spec = ModelSpecB(a=1.0, pdf=nan_pdf, distortion=DistortionFn.quadratic(), beta=1.0)
        with pytest.raises(NumericsError, match=r"k=0\.5, order 17"):
            solver_b.performance_b(spec, 0.5)

    def test_tabulated_density_end_to_end(self):
        from remest.simulate import PolicySpec, SimConfig, simulate

        cosine = SmoothPdf.tabulated(
            lambda w: (1.0 + np.cos(np.pi * np.clip(w, -1.0, 1.0))) / 2.0, 1.0)
        spec = ModelSpecB(a=1.0, pdf=cosine, distortion=DistortionFn.quadratic(),
                          beta=1.0)
        # compact support puts a curvature ridge inside the domain, so the
        # quadrature converges algebraically; 1e-6 is plenty for a 3-sigma check
        p_half = solver_b.performance_b(spec, 0.5, tolerance=1e-6)
        p_one = solver_b.performance_b(spec, 1.0, tolerance=1e-6)
        assert p_one.transmission_rate < p_half.transmission_rate
        res = simulate(spec, PolicySpec.threshold(0.5),
                       SimConfig(horizon=20_000, replications=50, seed=77))
        assert abs(res.d_hat - p_half.distortion) <= 3.0 * res.d_se
        assert abs(res.n_hat - p_half.transmission_rate) <= 3.0 * res.n_se


class TestDerivatives:
    def test_quadratic_fit_consistency(self, gm_unit):
        # -dD/dN from the slopes of the parabolas through D and N at k - 2h, k, k + 2h
        k, h = 1.0, 0.02
        lo, hi = (solver_b.performance_b(gm_unit, kk) for kk in (k - 2 * h, k + 2 * h))
        fit_price = -(hi.distortion - lo.distortion) / (hi.transmission_rate
                                                        - lo.transmission_rate)
        assert solver_b.lambda_of_k(gm_unit, k) == pytest.approx(fit_price, rel=0.05)

    @pytest.mark.parametrize("k", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("distortion", ["quadratic", "absolute"])
    @pytest.mark.parametrize("beta", [0.9, 0.95, 1.0])
    @pytest.mark.parametrize("a", [-0.7, 0.0, 0.5, 1.0, 1.3])
    def test_price_map_matches_finite_differences(self, a, beta, distortion, k):
        spec = ModelSpecB(a=a, pdf=SmoothPdf.gaussian(1.0),
                          distortion=getattr(DistortionFn, distortion)(), beta=beta)
        # the same differences check the rate slope N'(k) of the derivative column
        _, price_gap, rate_gap = price_fd_error(spec, k)
        assert price_gap <= PRICE_FD_TOL and rate_gap <= RATE_FD_TOL


class TestLambdaOfK:
    def test_nonnegative_on_probes(self, gm_unit):
        for k in (0.5, 1.0, 2.0, 4.0):
            assert solver_b.lambda_of_k(gm_unit, k) >= 0.0

    def test_increasing_probe(self, gm_unit):
        assert solver_b.lambda_of_k(gm_unit, 2.0) > solver_b.lambda_of_k(gm_unit, 1.0)

    def test_scale_identity(self):
        lam_s = solver_b.lambda_of_k(solver_b.gauss_markov_spec(2.0), 2.0)
        lam_1 = solver_b.lambda_of_k(solver_b.gauss_markov_spec(1.0), 1.0)
        assert lam_s == pytest.approx(4.0 * lam_1, rel=1e-9)


class TestAlgorithm1:
    def test_round_trip(self, gm_unit):
        lam = solver_b.lambda_of_k(gm_unit, 1.0)
        k, _ = solver_b.algorithm1_costly(gm_unit, lam, epsilon=1e-5)
        assert abs(k - 1.0) <= 1e-3

    def test_local_optimality(self, gm_unit):
        lam = 1.0
        k, cost = solver_b.algorithm1_costly(gm_unit, lam, epsilon=1e-6)
        for dk in (-0.1, 0.1):
            p = solver_b.performance_b(gm_unit, k + dk)
            assert cost <= p.distortion + lam * p.transmission_rate + 1e-9

    def test_cost_scale_identity(self):
        k1, c1 = solver_b.algorithm1_costly(solver_b.gauss_markov_spec(1.0), 0.25, 1e-6)
        ks, cs = solver_b.algorithm1_costly(solver_b.gauss_markov_spec(2.0), 1.0, 4e-6)
        assert cs == pytest.approx(4.0 * c1, rel=1e-9)

    def test_rejects_bad_args(self, gm_unit):
        with pytest.raises(UsageError):
            solver_b.algorithm1_costly(gm_unit, -1.0, 1e-4)


class TestAlgorithm2:
    def test_rejects_bad_args(self, gm_unit):
        for alpha in (0.0, 1.0, -0.5, math.nan):
            with pytest.raises(UsageError):
                solver_b.algorithm2_constrained(gm_unit, alpha, 1e-4)

    def test_searches_on_a_tabulated_density(self):
        # the searches start from the tabulated law's scale, a third of its
        # support half-width, and they still meet their targets
        unit = SmoothPdf.tabulated(lambda w: np.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi),
                                   8.0)
        spec = ModelSpecB(a=1.0, pdf=unit, distortion=DistortionFn.quadratic(), beta=1.0)
        assert spec.pdf.scale == pytest.approx(8.0 / 3.0)
        eps = 1e-6
        k, _ = solver_b.algorithm2_constrained(spec, 0.3, eps)
        assert abs(solver_b.performance_b(spec, k).transmission_rate - 0.3) <= eps
        k_gauss, _ = solver_b.algorithm2_constrained(solver_b.gauss_markov_spec(1.0), 0.3, eps)
        assert k == pytest.approx(k_gauss, abs=1e-5)
        k, _ = solver_b.algorithm1_costly(spec, 1.0, eps)
        assert abs(solver_b.lambda_of_k(spec, k) - 1.0) <= eps

    @pytest.mark.parametrize("a, k_star", [(0.5, 4.4877), (0.9, 8.6013)])
    def test_tight_budget_stays_out_of_the_rounding_floor(self, a, k_star):
        # at alpha = 1e-4 doubling from k = 1 reached k = 8 (a = 0.5) and 16
        # (a = 0.9), where the ladder stalls on rounding; the Newton steps land
        # next to k* instead
        spec = solver_b.gauss_markov_spec(1.0, a=a)
        k, _ = solver_b.algorithm2_constrained(spec, 1e-4, 1e-6)
        assert k == pytest.approx(k_star, abs=1e-4)
        assert abs(solver_b.renewal(spec, k).N - 1e-4) <= 1e-6

    def test_loose_budget(self, gm_unit):
        k, d = solver_b.algorithm2_constrained(gm_unit, 0.999, epsilon=1e-4)
        assert k < 0.01
        assert d < 1e-4

    def test_threshold_scale_identity(self):
        eps = 1e-5
        k1, _ = solver_b.algorithm2_constrained(solver_b.gauss_markov_spec(1.0), 0.3, eps)
        ks, _ = solver_b.algorithm2_constrained(solver_b.gauss_markov_spec(2.0), 0.3, eps)
        assert abs(ks - 2.0 * k1) <= 2.0 * eps

    def test_abs_threshold_matches_quadratic(self, gm_unit):
        # N(k) does not depend on the distortion, so neither does k*
        eps = 1e-6
        k_quad, d_quad = solver_b.algorithm2_constrained(gm_unit, 0.3, eps)
        k_abs, d_abs = solver_b.algorithm2_constrained(_abs_spec(), 0.3, eps)
        assert abs(k_abs - k_quad) <= eps
        assert d_abs != d_quad

    def test_distortion_decreases_with_budget(self, gm_unit):
        _, d_tight = solver_b.algorithm2_constrained(gm_unit, 0.3, 1e-5)
        _, d_loose = solver_b.algorithm2_constrained(gm_unit, 0.5, 1e-5)
        assert d_tight >= d_loose


class TestSearch:
    # 4 and 5 solves; bisecting takes 20 and 21
    @pytest.mark.parametrize("algorithm, x", [
        (solver_b.algorithm2_constrained, 0.3),
        (solver_b.algorithm1_costly, 1.0),
    ], ids=["rate", "price"])
    def test_solves_per_search(self, gm_unit, solve_log, algorithm, x):
        k, _ = algorithm(gm_unit, x, 1e-6)
        assert len(solve_log) <= 6
        assert solve_log[-1] == k  # nothing is solved after the search

    def test_costly_result_carries_the_last_solve(self, gm_unit):
        lam = 1.0
        k, cost = result = solver_b.algorithm1_costly(gm_unit, lam, 1e-6)
        perf = solver_b.performance_b(gm_unit, k)
        assert result.perf.distortion == pytest.approx(perf.distortion, rel=1e-14)
        assert result.perf.transmission_rate == pytest.approx(perf.transmission_rate,
                                                              rel=1e-14)
        assert cost == result.perf.distortion + lam * result.perf.transmission_rate

    @given(st.floats(-1.3, 1.3), st.floats(0.9, 1.0), st.floats(0.05, 0.5),
           st.floats(0.3, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_searches_meet_epsilon_in_few_solves(self, a, beta, alpha, lam):
        # on the 189-case grid of a, beta, budgets and prices the worst search took 10 solves
        spec = solver_b.gauss_markov_spec(1.0, a=a, beta=beta)
        eps = 1e-6
        for algorithm, x, key in ((solver_b.algorithm2_constrained, alpha, "N"),
                                  (solver_b.algorithm1_costly, lam, "price")):
            solved = []
            real = solver_b.fredholm_solve
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solver_b, "fredholm_solve",
                           lambda kernel, rhs, k, *args: solved.append(k) or real(kernel, rhs, k,
                                                                                    *args))
                k, _ = algorithm(spec, x, eps)
            assert len(solved) <= 12
            assert solved[-1] == k  # nothing is solved after the accepted step
            assert abs(getattr(solver_b.renewal(spec, k), key) - x) <= eps

    # the maps below stand in for renewal, with key=float reading them
    def test_steep_map_reaches_epsilon(self, gm_unit, monkeypatch):
        # logistic of slope 250 at its centre, target in the lower tail: plain
        # false position keeps the upper end and needs about 1200 steps, and
        # the secant in log k, where the tail's log is near linear, takes 11
        steep = lambda k: 0.5 * (1.0 + math.tanh(500.0 * (k - 1.7)))
        calls = []
        monkeypatch.setattr(solver_b, "renewal", lambda spec, k: calls.append(k) or steep(k))
        k, at = solver_b._search(float, 1e-3, 1e-6, gm_unit, "steep")
        assert at == steep(k)
        assert abs(steep(k) - 1e-3) <= 1e-6
        assert len(calls) <= 15

    def test_jump_across_target_exhausts_the_cap(self, gm_unit, monkeypatch):
        calls = []

        def step(spec, k):
            calls.append(k)
            return float(k >= 1.7)

        monkeypatch.setattr(solver_b, "renewal", step)
        with pytest.raises(ConvergenceError, match="exhausted"):
            solver_b._search(float, 0.5, 1e-6, gm_unit, "step")
        # one cap for the whole search, and the bisection closes on the jump
        assert len(calls) == solver_b._MAX_SEARCH_STEPS
        assert calls[-1] == pytest.approx(1.7, rel=1e-12)

    @pytest.mark.parametrize("target", [2.5, 0.5], ids=["above", "below"])
    def test_unbracketable_target(self, gm_unit, monkeypatch, target):
        # 1 + tanh(k) stays inside (1, 2) for every k > 0
        calls = []
        monkeypatch.setattr(solver_b, "renewal",
                            lambda spec, k: calls.append(k) or 1.0 + math.tanh(k))
        with pytest.raises(BracketError):
            solver_b._search(float, target, 1e-6, gm_unit, "tanh")
        assert len(calls) == solver_b._MAX_SEARCH_STEPS
