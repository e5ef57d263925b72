"""Klein-Gordon bases: closed forms, numeric integration, Wronskian checks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rqtlab as rq
from rqtlab.cli import KG_FD_BOUND
from rqtlab.kg import (BASIS_CSV_POINTS, LINEAR_X_MIN, TURNING_MARGIN, _magnus6_matrix, _omega_sq,
                       _omega_sq_slope, _rk4_matrix, local_wavenumber)

# wavenumbers from sqrt((E-U0)^2 - m0^2 c^4) / (hbar c), frozen from the
# defining arithmetic
K_ELECTRON_2MEV = 9.799057e-3
K_PHOTON_12MEV = 6.081278e-3


def _reference_loop(s, x_min, x_max, step, method):
    """The scalar stepping loops kg_solve_numeric once ran, as a reference.

    Returns (phi1, phi2, dphi1, dphi2) on the same grid, one step at a time
    with the RK4 stages written out.
    """
    n = max(int(round((x_max - x_min) / step)), 1)
    xs = x_min + step * np.arange(n + 1)
    k0 = max(local_wavenumber(s, x_min), 1.0 / (x_max - x_min))
    w_nodes = np.asarray(_omega_sq(s, xs), dtype=float).tolist()
    w_mids = np.asarray(_omega_sq(s, xs[:-1] + 0.5 * step), dtype=float).tolist()
    out = np.empty((4, n + 1))
    a, b, c, d = 0.0, k0, 1.0, 0.0
    out[:, 0] = a, c, b, d
    h, h2, h6 = step, 0.5 * step, step / 6.0
    for i in range(n):
        w1, w2, w3 = w_nodes[i], w_mids[i], w_nodes[i + 1]
        if method == "euler":
            a, b, c, d = a + h * b, b + h * w1 * a, c + h * d, d + h * w1 * c
        else:
            a1, b1, c1, e1 = b, w1 * a, d, w1 * c
            a2, b2 = b + h2 * b1, w2 * (a + h2 * a1)
            c2, e2 = d + h2 * e1, w2 * (c + h2 * c1)
            a3, b3 = b + h2 * b2, w2 * (a + h2 * a2)
            c3, e3 = d + h2 * e2, w2 * (c + h2 * c2)
            a4, b4 = b + h * b3, w3 * (a + h * a3)
            c4, e4 = d + h * e3, w3 * (c + h * c3)
            a = a + h6 * (a1 + 2 * a2 + 2 * a3 + a4)
            b = b + h6 * (b1 + 2 * b2 + 2 * b3 + b4)
            c = c + h6 * (c1 + 2 * c2 + 2 * c3 + c4)
            d = d + h6 * (e1 + 2 * e2 + 2 * e3 + e4)
        out[:, i + 1] = a, c, b, d
    return out


def _reference_phi2(basis, x):
    """phi2 re-integrated on the ODE itself, as a reference for the roots.

    Runs sixteen RK4 sub-steps from the grid point at or left of each x,
    so the value carries no interpolation error, and at the 2e-2 fm default
    step the sub-steps' own error stays below the septic's.  Takes an
    array of positions.
    """
    xs, _, p2, _, d2 = basis._samples
    i = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 1)
    xi, phi, dphi = xs[i], p2[i], d2[i]
    h = (x - xi) / 16.0
    w = lambda xx: _omega_sq(basis.scenario, xx)
    for _ in range(16):
        e11, m12, m21, e22 = _rk4_matrix(w(xi), w(xi + 0.5 * h), w(xi + h), h)
        phi, dphi = phi + (e11 * phi + m12 * dphi), dphi + (m21 * phi + e22 * dphi)
        xi = xi + h
    return phi


def _reference_zeros(basis):
    """The zeros of _reference_phi2 in each sign-change cell, all at once.

    Bisection to narrow, then secant to polish; each root stops on its own
    (an exact zero, a stalled secant, or |phi2| <= 1e-13 max|phi2|).  The
    root polish numeric bases once ran, kept as the reference for the
    interpolant's roots.
    """
    xs, _, p2 = basis._samples[:3]
    f = lambda x: _reference_phi2(basis, x)
    f_tol = 1.0e-13 * float(np.max(np.abs(p2)))
    j = np.flatnonzero(p2[:-1] * p2[1:] < 0.0)
    lo, hi = xs[j], xs[j + 1]
    flo, fhi = f(lo), f(hi)
    root = np.where(flo == 0.0, lo, hi)
    live = lambda keep, *arrays: [a[keep] for a in arrays]
    act, lo, hi, flo, fhi = live((flo != 0.0) & (fhi != 0.0), np.arange(len(lo)), lo, hi, flo, fhi)
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        left = flo * fmid < 0
        lo, flo = np.where(left, lo, mid), np.where(left, flo, fmid)
        hi, fhi = np.where(left, mid, hi), np.where(left, fmid, fhi)
        root[act] = mid
        act, lo, hi, flo, fhi = live(fmid != 0.0, act, lo, hi, flo, fhi)
    root[act] = hi
    x0, x1, f0, f1 = lo, hi, flo, fhi
    for _ in range(12):
        act, lo, hi, x0, x1, f0, f1 = live(f1 != f0, act, lo, hi, x0, x1, f0, f1)
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        x2 = np.where((lo - 1e-9 <= x2) & (x2 <= hi + 1e-9), x2, 0.5 * (x0 + x1))
        x0, f0, x1, f1 = x1, f1, x2, f(x2)
        root[act] = x1
        act, lo, hi, x0, x1, f0, f1 = live(np.abs(f1) > f_tol, act, lo, hi, x0, x1, f0, f1)
    return np.sort(np.concatenate([xs[p2 == 0.0], root]))


def _scaled_electron(eps=0.01):
    """hbar-scaled scenario keeps 10-period windows desk sized."""
    return rq.Scenario(
        rq.Species.electron(), rq.Potential.constant(0.0), energy=2.0, hbar_scale=eps
    )


class TestClosedForm:
    def test_electron_wavenumber(self, electron_basis):
        assert electron_basis.wronskian == pytest.approx(K_ELECTRON_2MEV, rel=1e-6)

    def test_photon_wavenumber(self, photon_basis):
        assert photon_basis.wronskian == pytest.approx(K_PHOTON_12MEV, rel=1e-6)

    def test_origin_values(self, electron_basis):
        assert float(electron_basis.phi12(0.0)[0]) == 0.0
        assert float(electron_basis.phi12(0.0)[1]) == 1.0
        assert float(electron_basis.dphi12(0.0)[0]) == electron_basis.wronskian

    def test_forbidden_basis_hyperbolic(self, forbidden_electron):
        b = rq.kg_closed_constant(forbidden_electron)
        kappa = math.sqrt(0.510998950**2 - 0.3**2) / forbidden_electron.hbar_c
        assert b.wronskian == pytest.approx(kappa, rel=1e-12)
        assert float(b.phi12(0.0)[1]) == 1.0
        assert float(b.phi12(100.0)[1]) > 1.0  # cosh grows
        assert len(b.phi2_zeros()) == 0

    def test_turning_energy_degenerate(self):
        s = rq.Scenario(
            rq.Species.electron(),
            rq.Potential.constant(2.0 - 0.510998950),
            energy=2.0,
        )
        with pytest.raises(rq.DegenerateBasisError):
            rq.kg_closed_constant(s)

    def test_requires_constant_potential(self, linear_electron):
        with pytest.raises(ValueError):
            rq.kg_closed_constant(linear_electron)

    def test_drift_vanishes(self, electron_basis, photon_basis):
        assert rq.wronskian_drift(electron_basis) <= 1e-12
        assert rq.wronskian_drift(photon_basis) <= 1e-12


class TestNumericIntegration:
    def test_rk4_matches_closed_form(self):
        s = _scaled_electron()
        k = rq.kg_closed_constant(s).wronskian
        span = 10 * 2 * math.pi / k
        b = rq.kg_solve_numeric(s, 0.0, span, step=1e-3, method="rk4")
        xs = b.grid
        err1 = np.max(np.abs(b.phi12(xs)[0] - np.sin(k * xs)))
        err2 = np.max(np.abs(b.phi12(xs)[1] - np.cos(k * xs)))
        assert max(err1, err2) <= 1e-6

    def test_euler_first_order(self):
        s = _scaled_electron()
        k = rq.kg_closed_constant(s).wronskian
        span = 5 * 2 * math.pi / k

        def max_err(step):
            b = rq.kg_solve_numeric(s, 0.0, span, step=step, method="euler")
            xs = b.grid
            return float(np.max(np.abs(b.phi12(xs)[1] - np.cos(k * xs))))

        ratio = max_err(2e-3) / max_err(1e-3)
        assert ratio == pytest.approx(2.0, rel=0.15)

    def test_rk4_fourth_order(self):
        s = _scaled_electron()
        k = rq.kg_closed_constant(s).wronskian
        span = 5 * 2 * math.pi / k

        def max_err(step):
            b = rq.kg_solve_numeric(s, 0.0, span, step=step, method="rk4")
            xs = b.grid
            return float(np.max(np.abs(b.phi12(xs)[1] - np.cos(k * xs))))

        ratio = max_err(0.08) / max_err(0.04)
        assert ratio == pytest.approx(16.0, rel=0.15)

    def test_initial_conditions_and_wronskian(self, linear_basis):
        xs = linear_basis.grid
        assert float(linear_basis.phi12(xs[0])[0]) == 0.0
        assert float(linear_basis.phi12(xs[0])[1]) == 1.0
        assert linear_basis.wronskian > 0

    def test_wronskian_drift_linear_default_step(self, linear_electron):
        b = rq.kg_solve_numeric(linear_electron, -5.0, 5.0, step=1e-3, method="rk4")
        assert rq.wronskian_drift(b) <= 1e-5

    def test_euler_drifts_more_than_rk4(self, linear_electron):
        be = rq.kg_solve_numeric(linear_electron, -5.0, 5.0, step=1e-2, method="euler")
        br = rq.kg_solve_numeric(linear_electron, -5.0, 5.0, step=1e-2, method="rk4")
        assert rq.wronskian_drift(be) > rq.wronskian_drift(br)

    def test_fd_residual_within_bound(self, linear_basis):
        assert rq.kg_fd_residual(linear_basis) <= 1e-4

    def test_fd_residual_sees_a_fault_near_the_edge(self, electron_2mev):
        # a phi2 sample ten grid points from the end, off by 1e-6, is a fault
        # the residual must grade (0.98); a margin of hundreds of points would
        # leave only the sound interior (1.1e-8)
        b = rq.kg_solve_numeric(electron_2mev, 0.0, 20.0, method="magnus6")
        xs, p1, p2, d1, d2 = b._samples
        p2 = p2.copy()
        p2[-11] *= 1.0 + 1e-6
        bad = rq.KgBasis(electron_2mev, b.x_min, b.x_max, b.wronskian, (xs, p1, p2, d1, d2),
                         b.method, b.step)
        assert rq.kg_fd_residual(b) <= KG_FD_BOUND < rq.kg_fd_residual(bad)

    @pytest.mark.parametrize("method", ["rk4", "euler"])
    def test_matches_reference_loop(self, linear_electron, method):
        b = rq.kg_solve_numeric(linear_electron, -50.0, 8.0, step=1e-3, method=method)
        ref = _reference_loop(linear_electron, -50.0, 8.0, 1e-3, method)
        xs, p1, p2, d1, d2 = b._samples
        assert len(xs) == ref.shape[1] == 58001
        for got, want in zip((p1, p2, d1, d2), ref):
            assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))
        for n in (1, 2, 3, 5, 10, 71, 151):  # the stepping loop, and padded last blocks
            b = rq.kg_solve_numeric(linear_electron, -50.0, -50.0 + n * 1e-3, step=1e-3,
                                    method=method)
            ref = _reference_loop(linear_electron, -50.0, -50.0 + n * 1e-3, 1e-3, method)
            assert np.allclose(np.array(b._samples[1:]), ref, rtol=1e-13, atol=0.0)

    def test_overflow_reports_position(self):
        # deep forbidden region: exponential growth overruns float64
        s = rq.Scenario(rq.Species(rest_energy=1000.0), rq.Potential.constant(0.0),
                        energy=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(rq.IntegrationOverflowError) as err:
                rq.kg_solve_numeric(s, 0.0, 400.0, step=1e-2, method="rk4")
        assert err.value.x is not None

    def test_bad_method_rejected(self, linear_electron):
        with pytest.raises(ValueError):
            rq.kg_solve_numeric(linear_electron, 0.0, 1.0, step=1e-3, method="rk45")

    def test_bad_step_rejected(self, linear_electron):
        with pytest.raises(ValueError):
            rq.kg_solve_numeric(linear_electron, 0.0, 1.0, step=-1e-3)

    @pytest.mark.parametrize("x_min, x_max, step", [(0.0, 1.0, math.nan), (0.0, 1.0, math.inf),
                                                    (math.nan, 1.0, 1e-3), (0.0, math.inf, 1e-3)])
    def test_non_finite_step_or_window_rejected(self, linear_electron, x_min, x_max, step):
        with pytest.raises(ValueError, match="finite"):
            rq.kg_solve_numeric(linear_electron, x_min, x_max, step=step)

    @pytest.mark.parametrize("x_min, x_max, step", [(-1e308, 1e308, 2e-2), (0.0, 1.0, 1e-300),
                                                    (0.0, 1.0, 1e-7 / 1.5)])
    def test_step_count_beyond_bound_rejected(self, linear_electron, x_min, x_max, step):
        # refused from the ratio alone, before any grid is allocated
        with pytest.raises(ValueError, match="more than MAX_STEPS"):
            rq.kg_solve_numeric(linear_electron, x_min, x_max, step=step)


# the linear_basis fixture's window in conftest
LINEAR_WINDOW = st.floats(min_value=-400.0, max_value=8.0)


class TestHermiteInterpolant:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(xs=st.lists(LINEAR_WINDOW, min_size=1, max_size=40))
    def test_phi_equals_phi12_in_cells(self, linear_basis, electron_basis, xs):
        grid = linear_basis.grid
        x = np.array(xs)
        cell = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, len(grid) - 2)
        phi1, phi2 = linear_basis.phi12(x, cell)
        assert np.array_equal(linear_basis.phi12(x)[0], phi1)
        assert np.array_equal(linear_basis.phi12(x)[1], phi2)
        assert [linear_basis.phi12(v)[1] for v in xs] == phi2.tolist()
        # phi12 and dphi12 read both solutions at once: the septic in each
        # cell on a numeric basis, the evaluators on a closed form
        same = lambda got, want: all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
        assert same(linear_basis.phi12(x), (phi1, phi2))
        assert same(linear_basis.dphi12(x), linear_basis._hermite(x, cell, derivative=True))
        k = electron_basis.wronskian
        assert same(electron_basis.phi12(x), (np.sin(k * x), np.cos(k * x)))
        assert same(electron_basis.dphi12(x), (k * np.cos(k * x), -k * np.sin(k * x)))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(x_min=st.floats(min_value=-50.0, max_value=0.0),
           span=st.floats(min_value=1e-2, max_value=5.0),
           step=st.floats(min_value=1e-3, max_value=5e-2))
    def test_grid_points_return_the_samples(self, linear_electron, x_min, span, step):
        b = rq.kg_solve_numeric(linear_electron, x_min, x_min + span, step=step)
        xs, *samples = b._samples
        for read, want in zip((*b.phi12(xs), *b.dphi12(xs)), samples):
            assert np.array_equal(read, want)
        for read, want in zip((*b.phi12(b.x_max), *b.dphi12(b.x_max)), samples):
            assert read == want[-1]

    def test_pointwise_reads_own_the_window(self, linear_basis, electron_basis):
        # the ends read their samples; 1e-6 fm past either end is an error, not
        # an extrapolated septic, while reads in given cells are trusted
        xs, p1, p2, d1, d2 = linear_basis._samples
        for x, i in ((linear_basis.x_min, 0), (linear_basis.x_max, -1)):
            assert linear_basis.phi12(x) == (p1[i], p2[i])
            assert linear_basis.dphi12(x) == (d1[i], d2[i])
        for x in (linear_basis.x_min - 1e-6, linear_basis.x_max + 1e-6, -500.0, math.nan):
            for read in (linear_basis.phi12, linear_basis.dphi12):
                for arg in (x, np.array([-100.0, x])):
                    with pytest.raises(rq.DomainError, match="outside basis domain"):
                        read(arg)
        assert np.isfinite(linear_basis.phi12(xs[0] - 1e-3, 0)).all()
        # a closed form reads anywhere
        far = electron_basis.x_max + 1e4
        assert electron_basis.phi12(far)[1] == math.cos(electron_basis.wronskian * far)
        assert np.isfinite(electron_basis.dphi12(far)).all()

    def test_derivative_is_the_septic_slope(self, linear_electron):
        # against the septic solved from its eight end conditions in each cell
        b = rq.kg_solve_numeric(linear_electron, -60.0, -50.0, step=0.05)
        xs, p1, p2, d1, d2 = b._samples
        w, dw = _omega_sq(linear_electron, xs), _omega_sq_slope(linear_electron, xs)
        h = xs[1] - xs[0]
        # row k at t = 0 and t = 1: the k-th derivative of t^j, j = 0 .. 7
        powers = np.arange(8)
        ends = np.array([[math.factorial(k) * (j == k) for j in range(8)] for k in range(4)]
                        + [[math.perm(j, k) for j in range(8)] for k in range(4)], float)
        t = np.array([0.1, 0.37, 0.5, 0.81])
        for cell in (0, 77, len(xs) - 2):
            for i, (y, dy) in enumerate(((p1, d1), (p2, d2))):
                data = [[y[i], h * dy[i], h * h * w[i] * y[i],
                         h ** 3 * (dw[i] * y[i] + w[i] * dy[i])] for i in (cell, cell + 1)]
                coef = np.linalg.solve(ends, np.concatenate(data))
                x = xs[cell] + t * h
                value = np.polynomial.polynomial.polyval(t, coef)
                slope = np.polynomial.polynomial.polyval(t, coef[1:] * powers[1:]) / h
                scale = np.max(np.abs(y)) + np.max(np.abs(dy))
                assert np.max(np.abs(b.phi12(x)[i] - value)) <= 1e-13 * scale
                assert np.max(np.abs(b.dphi12(x)[i] - slope)) <= 1e-13 * scale

    def test_fixed_fractions_exact_on_constant_potential(self):
        # a Magnus basis is exact on a constant potential, and at k h = 2e-2
        # the septic's own error is below rounding: every whole cell's Gauss
        # points read sin and cos
        s = _scaled_electron()
        k = rq.kg_closed_constant(s).wronskian
        b = rq.kg_solve_numeric(s, 0.0, 10 * 2 * math.pi / k, method="magnus6")
        xs = b.grid
        t = 0.5 * (1.0 + np.polynomial.legendre.leggauss(4)[0])
        cell = np.arange(len(xs) - 1)
        phi1, phi2 = b.phi12_at_fractions(t, 0, len(cell))
        x = xs[:-1] + t[:, None] * np.diff(xs)
        assert phi1.shape == phi2.shape == (4, len(cell))
        assert np.max(np.abs(phi1 - np.sin(k * x))) <= 1e-13
        assert np.max(np.abs(phi2 - np.cos(k * x))) <= 1e-13
        # the same septic as the read at absolute positions
        for fixed, general in zip((phi1, phi2), b.phi12(x, cell)):
            assert np.max(np.abs(fixed - general)) <= 1e-13

    def test_fixed_fractions_match_absolute_reads_on_linear_basis(self, linear_electron):
        # figure 4's basis, at its first cells, across the time of flight's
        # first PANEL_CHUNK seam and at the last cells before x_max.  An
        # absolute Gauss point is rounded to its position's ulp, which moves
        # phi by up to |phi'| ulp(x) / 2 (1.4e-14 of the largest |phi| at
        # -400 fm), so each cell is read at the fractions its rounded points give
        b = rq.kg_solve_linear(linear_electron)
        xs, _, _, d1, d2 = b._samples
        seam = rq.trajectory.PANEL_CHUNK
        gauss = 0.5 * (1.0 + np.polynomial.legendre.leggauss(4)[0])
        cells = [0, 1, 2, seam - 2, seam - 1, seam, seam + 1, len(xs) - 3, len(xs) - 2]
        x = xs[cells] + gauss[:, None] * np.diff(xs)[cells]
        absolute = b.phi12(x, np.array(cells))
        scale = max(np.max(np.abs(phi)) for phi in absolute)
        for j, cell in enumerate(cells):
            t = (x[:, j] - xs[cell]) / (xs[cell + 1] - xs[cell])
            for fixed, general in zip(b.phi12_at_fractions(t, cell, 1), absolute):
                assert np.max(np.abs(fixed[:, 0] - general[:, j])) <= 1e-14 * scale
        # the jets carry the nominal step, the length the integrator stepped;
        # the stored positions round it, so the cell widths here differ from it
        jets = b._jets(np.array(cells))
        assert np.array_equal(jets[1], b.step * np.array([d1[cells], d2[cells]]))
        assert np.any(np.diff(xs)[cells] != b.step)

    def test_eighth_order_between_grid_points(self):
        # a Magnus basis is exact at the grid points of a constant potential,
        # so this is the interpolant's own error; at k = 19.6 /fm the two
        # steps leave it well above rounding
        s = _scaled_electron(0.0005)
        k = rq.kg_closed_constant(s).wronskian

        def max_err(step):
            b = rq.kg_solve_numeric(s, 0.0, 2 * math.pi / k, step=step, method="magnus6")
            x = b.grid[:-1] + 0.37 * step
            return float(np.max(np.abs(b.phi12(x)[1] - np.cos(k * x))))

        ratio = max_err(0.04) / max_err(0.02)
        assert ratio == pytest.approx(256.0, rel=0.15)


class TestLinearWindow:
    def test_default_window(self, linear_electron):
        basis = rq.kg_solve_linear(linear_electron)
        turning = rq.turning_points(linear_electron)[0]
        assert (basis.x_min, basis.method, basis.step) == (
            LINEAR_X_MIN, rq.kg.DEFAULT_METHOD, rq.kg.DEFAULT_STEP)
        assert abs(basis.x_max - (turning + TURNING_MARGIN)) <= 0.5 * basis.step
        ref = rq.kg_solve_numeric(linear_electron, LINEAR_X_MIN, turning + TURNING_MARGIN)
        assert all(np.array_equal(a, b) for a, b in zip(basis._samples, ref._samples, strict=True))

    def test_given_window_and_scheme(self, linear_electron):
        basis = rq.kg_solve_linear(linear_electron, -60.0, 1.0, step=5e-3, method="rk4")
        assert basis.x_min == -60.0 and abs(basis.x_max - 1.0) <= 0.5 * 5e-3
        ref = rq.kg_solve_numeric(linear_electron, -60.0, 1.0, step=5e-3, method="rk4")
        assert all(np.array_equal(a, b) for a, b in zip(basis._samples, ref._samples, strict=True))

    @pytest.mark.parametrize("x_max, end", [(5.005, 5.0), (5.015, 5.02)])
    def test_window_ends_on_the_grid(self, linear_electron, x_max, end):
        # an off-grid x_max ends the window at the grid end that the rounded
        # step count reaches, and a pass over the whole window is accepted
        basis = rq.kg_solve_linear(linear_electron, -60.0, x_max)
        assert basis.x_max == basis.grid[-1] == pytest.approx(end, abs=1e-12)
        traj = rq.trajectory_ode(linear_electron, basis, rq.MobiusParams(1.0, 0.0, -60.0),
                                 (basis.x_min, basis.x_max), 16)
        assert traj.positions[-1] == basis.x_max

    def test_needs_a_rising_linear_potential(self, electron_2mev):
        falling = rq.Scenario(rq.Species.electron(), rq.Potential.linear(-0.25), energy=2.0)
        for s in (falling, electron_2mev):
            with pytest.raises(ValueError, match="g > 0"):
                rq.kg_solve_linear(s)


class TestMagnus:
    def test_sixth_order_on_linear_window(self, linear_electron):
        # at the far end of figure 4's window k is about 7 /fm, so the
        # sixth-order error stands above rounding at these steps
        fine = rq.kg_solve_numeric(linear_electron, -5400.0, -4400.0, step=2.5e-3)

        def max_err(step):
            b = rq.kg_solve_numeric(linear_electron, -5400.0, -4400.0, step=step)
            stride = round(step / 2.5e-3)
            return max(float(np.max(np.abs(got - want[::stride])))
                       for got, want in zip(b._samples[1:], fine._samples[1:]))

        ratio = max_err(0.1) / max_err(0.05)
        assert ratio == pytest.approx(64.0, rel=0.15)

    def test_exact_on_constant_potential(self):
        s = _scaled_electron()
        k = rq.kg_closed_constant(s).wronskian
        b = rq.kg_solve_numeric(s, 0.0, 10 * 2 * math.pi / k, method="magnus6")
        xs, p1, p2, d1, d2 = b._samples
        assert len(xs) == 3207
        for got, want in ((p1, np.sin(k * xs)), (p2, np.cos(k * xs)),
                          (d1 / k, np.cos(k * xs)), (d2 / k, -np.sin(k * xs))):
            assert np.max(np.abs(got - want)) <= 1e-13

    def test_forbidden_window_drift_no_worse_than_rk4(self, forbidden_electron):
        # the 0-50 fm kg-solve window; RK4 drifts 8.7e-16 there at 1e-3 fm
        drift = {m: rq.wronskian_drift(rq.kg_solve_numeric(forbidden_electron, 0.0, 50.0,
                                                           step=1e-3, method=m))
                 for m in ("magnus6", "rk4")}
        assert drift["magnus6"] <= drift["rk4"]
        assert rq.wronskian_drift(rq.kg_solve_numeric(forbidden_electron, 0.0, 50.0)) <= 1.2e-15

    def test_step_matrix_at_full_precision(self):
        # the Taylor branch (|delta| <= 1e-2) and the closed forms beyond it,
        # against cosh - 1 and sinh(r) / r in 40 digits; on a constant w the
        # step has p = 0, q = h and r = h w, so delta = w at h = 1
        import mpmath as mp

        delta = np.array([1e-9, -1e-9, 3e-4, -4e-3, 9.99e-3, -1.01e-2, 1.9e-2, 0.5, -30.0])
        e11, m12, m21, e22 = _magnus6_matrix(delta, delta.copy(), delta.copy(), 1.0)
        assert np.array_equal(e11, e22) and np.array_equal(m21, m12 * delta)
        with mp.workdps(40):
            for d, cosh_m1, sinhc in zip(delta.tolist(), e11, m12):
                r = mp.sqrt(abs(mp.mpf(d)))
                want = (mp.cosh(r) - 1, mp.sinh(r) / r) if d > 0 else (mp.cos(r) - 1, mp.sin(r) / r)
                assert abs(cosh_m1 / want[0] - 1) <= 4e-16
                assert abs(sinhc / want[1] - 1) <= 4e-16

    @pytest.mark.parametrize("w2, h", [(2.4e-2, 0.02), (20.0, 0.02), (-20.0, 0.02),
                                       (30.0, 0.05), (-40.0, 0.02), (500.0, 0.02)])
    def test_step_matrix_against_commutator_series(self, w2, h):
        # the closed form of Omega against its commutator series, and M - I
        # against exp(Omega) - I, both in 40 digits; the cases put delta on
        # either side of the series bound, with either sign
        import mpmath as mp

        w1, w3 = w2 * 0.9 - 0.3, w2 * 1.2 + 0.1
        got = np.array(_magnus6_matrix(np.array([w1]), np.array([w2]), np.array([w3]), h))[:, 0]
        with mp.workdps(40):
            a1, a2, a3 = (mp.matrix([[0, 1], [mp.mpf(w), 0]]) for w in (w1, w2, w3))
            hh = mp.mpf(h)
            b1 = hh * a2
            b2 = mp.sqrt(15) * hh / 3 * (a3 - a1)
            b3 = 10 * hh / 3 * (a3 - 2 * a2 + a1)
            c = lambda x, y: x * y - y * x
            omega = (b1 + b3 / 12 - c(b1, b2) / 12 + c(b2, b3) / 240 + c(b1, c(b1, b3)) / 360
                     - c(b2, c(b1, b2)) / 240 + c(b1, c(b1, c(b1, b2))) / 720)
            delta = omega[0, 0] ** 2 + omega[0, 1] * omega[1, 0]
            m = mp.expm(omega) - mp.eye(2)
            want = [float(m[0, 0]), float(m[0, 1]), float(m[1, 0]), float(m[1, 1])]
        assert (abs(delta) > 1e-2) == (abs(w2) * h * h > 1e-2)
        scale = max(abs(v) for v in want)
        assert np.max(np.abs(got - want)) <= 4e-16 * scale


class TestPhi2Zeros:
    def test_closed_form_zeros_analytic(self, electron_basis):
        k = electron_basis.wronskian
        zs = electron_basis.phi2_zeros(0.0, 10 * math.pi / k)
        expected = (np.arange(10) + 0.5) * math.pi / k
        assert np.allclose(zs, expected, rtol=1e-12)

    def test_numeric_zeros_match_analytic(self):
        s = _scaled_electron()
        k = rq.kg_closed_constant(s).wronskian
        b = rq.kg_solve_numeric(s, 0.0, 8 * math.pi / k, step=1e-3, method="rk4")
        zs = b.phi2_zeros()
        expected = (np.arange(len(zs)) + 0.5) * math.pi / k
        assert len(zs) == 8
        assert np.max(np.abs(zs - expected) / expected) <= 1e-9

    def test_roots_hold_reference_tolerance(self, linear_basis):
        zs = linear_basis.phi2_zeros()
        scale = float(np.max(np.abs(linear_basis._samples[2])))
        assert len(zs) == 34
        assert np.max(np.abs(_reference_phi2(linear_basis, zs))) <= 1e-10 * scale

    def test_roots_match_reference_polish(self, linear_basis):
        zs = linear_basis.phi2_zeros()
        ref = _reference_zeros(linear_basis)
        assert len(ref) == len(zs)
        assert np.max(np.abs(zs - ref)) <= 1e-11


class TestBasisCsv:
    def test_header_and_columns(self, tmp_path, linear_basis):
        path = rq.write_basis_csv(linear_basis, tmp_path / "basis.csv")
        lines = path.read_text().splitlines()
        header = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert any("columns: x_fm, phi1, phi2, dphi1, dphi2" in h for h in header)
        assert any("energy_mev" in h for h in header)
        assert "# source = numeric:rk4:step=0.002" in header
        assert len(data[0].split(",")) == 5

    def test_rows_are_the_thinned_samples(self, tmp_path, linear_basis, linear_electron):
        small = rq.kg_solve_numeric(linear_electron, 0.0, 1.0, step=0.01)
        for basis, stride in ((linear_basis, len(linear_basis.grid) // BASIS_CSV_POINTS),
                              (small, 1)):
            assert (len(basis.grid) > BASIS_CSV_POINTS) == (stride > 1)
            cols = [c[::stride] for c in basis._samples]
            # the interpolant reads its samples at a grid point, bit for bit
            reads = (*basis.phi12(cols[0]), *basis.dphi12(cols[0]))
            assert all(np.array_equal(r, c) for r, c in zip(reads, cols[1:]))
            text = rq.write_basis_csv(basis, tmp_path / "basis.csv").read_text()
            data = [l for l in text.splitlines() if not l.startswith("#")]
            assert data == [",".join(f"{v:.12e}" for v in row) for row in zip(*cols)]

    def test_closed_form_refused(self, tmp_path, electron_basis):
        with pytest.raises(rq.DomainError):
            rq.write_basis_csv(electron_basis, tmp_path / "basis.csv")
