"""Klein-Gordon bases: closed forms, numeric integration, Wronskian checks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rqtlab as rq
from conftest import traced_peak
from rqtlab.cli import KG_FD_BOUND
from rqtlab.kg import (BASIS_CSV_POINTS, DEFAULT_STEP, LINEAR_X_MIN, STEP_CAP, TURNING_MARGIN,
                       _RUN_VALUES, _SERIES_MAX, _magnus6_matrix, _omega_sq, _omega_sq_slope,
                       _rk4_matrix, _septic_weights, linear_ranges, local_wavenumber)

# wavenumbers from sqrt((E-U0)^2 - m0^2 c^4) / (hbar c), frozen from the
# defining arithmetic
K_ELECTRON_2MEV = 9.799057e-3
K_PHOTON_12MEV = 6.081278e-3


def _reference_loop(s, xs, x_max, method):
    """The scalar stepping loops kg_solve_numeric once ran, as a reference.

    Returns (phi1, phi2, dphi1, dphi2) on the grid xs of a window asked to
    end at x_max, one step of xs[i + 1] - xs[i] at a time with the RK4
    stages written out.
    """
    n = len(xs) - 1
    k0 = max(local_wavenumber(s, xs[0]), 1.0 / (x_max - xs[0]))
    steps = np.diff(xs)
    w_nodes = np.asarray(_omega_sq(s, xs), dtype=float).tolist()
    w_mids = np.asarray(_omega_sq(s, xs[:-1] + 0.5 * steps), dtype=float).tolist()
    out = np.empty((4, n + 1))
    a, b, c, d = 0.0, k0, 1.0, 0.0
    out[:, 0] = a, c, b, d
    for i, h in enumerate(steps.tolist()):
        h2, h6 = 0.5 * h, h / 6.0
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
        full = rq.kg_solve_numeric(linear_electron, -50.0, 8.0, step=1e-3, method=method)
        ref = _reference_loop(linear_electron, full.grid, 8.0, method)
        xs, p1, p2, d1, d2 = full._samples
        assert len(xs) == ref.shape[1] == 33641
        for got, want in zip((p1, p2, d1, d2), ref):
            assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))
        # the stepping loop (n < 64), and padded last blocks: 151 steps make 51 blocks
        # of 3, shorter than the 16-position write batch; 5,000 make 295 blocks of 17,
        # longer than it, a multiple of neither the batch nor the 277-block row chunk;
        # 4,624 = 16 * 17^2 fills its 272 blocks exactly, so that y_n is the state
        # after the last block, in the final slot.  A window that ends on the n-th
        # point of the full grid takes the same n steps.
        for n in (1, 2, 3, 5, 10, 71, 151, 4624, 5000):
            end = float(full.grid[n])
            b = rq.kg_solve_numeric(linear_electron, -50.0, end, step=1e-3, method=method)
            ref = _reference_loop(linear_electron, b.grid, end, method)
            got = np.array(b._samples[1:])
            assert got.shape == ref.shape == (4, n + 1)
            assert np.allclose(got, ref, rtol=1e-13, atol=0.0)

    def test_magnus6_matches_sequential_product(self, linear_electron):
        # the blocked chain against y_{i+1} = (I + E_i) y_i taken one step at a time,
        # on the same _magnus6_matrix steps over each cell of the grid: the stepping
        # loop, padded and exact fills on windows that end on the n-th point of the
        # default linear window's grid, and that window's 11,831 steps from -400 fm
        # (439 blocks of 27, the last padded from position 5 on), whose step matrices
        # come in runs of 13 positions (13 + 13 + 1), so that the last run is short
        s = linear_electron
        full = rq.kg_solve_linear(s)
        assert len(full.grid) == 11832
        assert 27 % max(_RUN_VALUES // 439, 1) != 0
        for n in (10, 151, 4624, 5000, 11831):
            b = full if n == 11831 else rq.kg_solve_numeric(s, -400.0, float(full.grid[n]))
            xs = b.grid
            assert len(xs) == n + 1
            h = np.diff(xs)
            mid, off = xs[:-1] + 0.5 * h, math.sqrt(0.15) * h
            steps = _magnus6_matrix(_omega_sq(s, mid - off), _omega_sq(s, mid),
                                    _omega_sq(s, mid + off), h)
            y = (0.0, 1.0, b.wronskian, 0.0)
            ref = [y]
            for t11, t12, t21, t22 in zip(*(e.tolist() for e in steps)):
                y11, y12, y21, y22 = y
                y = (y11 + (t11 * y11 + t12 * y21), y12 + (t11 * y12 + t12 * y22),
                     y21 + (t21 * y11 + t22 * y21), y22 + (t21 * y12 + t22 * y22))
                ref.append(y)
            got, ref = np.array(b._samples[1:]), np.array(ref).T
            assert got.shape == ref.shape == (4, n + 1)
            for g, want in zip(got, ref):
                assert np.max(np.abs(g - want)) <= 1e-13 * np.max(np.abs(want))

    def test_build_peaks_near_the_basis_it_returns(self, linear_electron):
        # figure 4's window (156,831 steps): the grid and the four state arrays are the
        # build's only buffers of the step count, so its peak stays within 1.25 times
        # what it keeps
        b, peak, held = traced_peak(lambda: rq.kg_solve_linear(linear_electron, -5400.0))
        assert len(b.grid) == 156832
        assert held >= sum(a.nbytes for a in b._samples)
        assert peak <= 1.25 * held

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
        # against the septic solved from its eight end conditions in each cell, in
        # the cell's own width h
        b = rq.kg_solve_numeric(linear_electron, -60.0, -50.0, step=0.05)
        xs, p1, p2, d1, d2 = b._samples
        w, dw = _omega_sq(linear_electron, xs), _omega_sq_slope(linear_electron, xs)
        # row k at t = 0 and t = 1: the k-th derivative of t^j, j = 0 .. 7
        powers = np.arange(8)
        ends = np.array([[math.factorial(k) * (j == k) for j in range(8)] for k in range(4)]
                        + [[math.perm(j, k) for j in range(8)] for k in range(4)], float)
        t = np.array([0.1, 0.37, 0.5, 0.81])
        for cell in (0, 77, len(xs) - 2):
            h = xs[cell + 1] - xs[cell]
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
        # the jets at both ends of a cell carry its width, the step the integrator
        # took there; on the phase grid the widths differ from cell to cell
        width = np.diff(xs)[cells]
        for at in (np.array(cells), np.array(cells) + 1):
            assert np.array_equal(b._jets(at, width)[1], width * np.array([d1[at], d2[at]]))
        assert len(set(width.tolist())) > 2

    def test_fixed_fractions_keep_the_bits_of_a_read_per_cell_end(self, linear_electron):
        # figure 4's basis at its first cells, across the first PANEL_CHUNK seam, at
        # its last cells and over the walk's first two chunks: the read forms each
        # grid point's w and w' once for the cells on both sides of it, and keeps
        # the bits of the jets formed at each cell end apart, with V' from
        # Potential.derivative, and one product per end
        s = linear_electron
        b = rq.kg_solve_linear(s, -5400.0)
        xs, p1, p2, d1, d2 = b._samples
        t = 0.5 * (1.0 + np.polynomial.legendre.leggauss(4)[0])
        weights = np.array(_septic_weights(t))
        weights[[0, 4]] += 1.0 - t, t

        def jets(index, h):
            x = xs[index]
            hw = (h * h) * _omega_sq(s, x)
            slope = 2.0 * (s.energy - s.potential.value(x)) * s.potential.derivative(x) / s.hbar_c**2
            y, hdy = np.array([p1[index], p2[index]]), h * np.array([d1[index], d2[index]])
            return np.array([y, hdy, hw * y, h ** 3 * slope * y + hw * hdy])

        seam, last = rq.trajectory.PANEL_CHUNK, len(xs) - 1
        for first, count in ((0, 5), (seam - 3, 6), (last - 5, 5), (0, seam), (seam, seam)):
            width = xs[first + 1:first + count + 1] - xs[first:first + count]
            left, right = (w.T @ jets(slice(end, end + count), width).reshape(4, -1)
                           for w, end in ((weights[:4], first), (weights[4:], first + 1)))
            ref = (left + right).reshape(4, 2, count)
            work = np.full(24 * count + 1, np.nan)
            for read in (b.phi12_at_fractions(t, first, count),
                         b.phi12_at_fractions(t, first, count, work)):
                assert np.array_equal(read[0], ref[:, 0]) and np.array_equal(read[1], ref[:, 1])
            assert np.shares_memory(read[0], work[:8 * count])

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


class TestPhaseGrid:
    """Each step is step U / |E - V|, at most STEP_CAP step, U the window's largest |E - V|."""

    # E = 2 MeV: E - V changes sign at E / g, 8 fm for g = 0.25 MeV/fm
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(g=st.floats(min_value=0.05, max_value=2.0), sign=st.sampled_from([1.0, -1.0]),
           x_min=st.floats(min_value=-500.0, max_value=100.0),
           span=st.floats(min_value=0.5, max_value=500.0),
           step=st.floats(min_value=5e-3, max_value=5e-2))
    @example(g=0.25, sign=1.0, x_min=-40.0, span=70.0, step=DEFAULT_STEP)  # across E = V
    @example(g=0.25, sign=-1.0, x_min=-5.0, span=100.0, step=DEFAULT_STEP)  # U at x_max
    @example(g=0.25, sign=1.0, x_min=-5400.0, span=5407.956004, step=DEFAULT_STEP)  # figure 4
    def test_rule_on_linear_windows(self, g, sign, x_min, span, step):
        s = rq.Scenario(rq.Species.electron(), rq.Potential.linear(sign * g), energy=2.0)
        x_max = x_min + span
        xs = rq.kg._phase_grid(s, x_min, x_max, step)
        if span < 10.0:
            assert np.array_equal(rq.kg_solve_numeric(s, x_min, x_max, step).grid, xs)
        u = lambda x: np.abs(s.energy - s.potential.value(x))
        top = max(u(x_min), u(x_max))
        h = np.diff(xs)
        # each position is rounded on the window's scale, its start plus its offset,
        # which moves a cell's width by a few ulps of that scale
        rounding = 4.0 * np.spacing(max(abs(x_min), abs(x_max), span))
        assert xs[0] == x_min and np.all(h > 0.0)
        # |E - V| <= U, so no step is shorter than step, and none longer than the cap
        assert np.all(h >= step - rounding) and np.all(h <= STEP_CAP * step + rounding)
        # |E - V| at a cell's midpoint times its width: the cell's integral of |E - V|
        # where E - V keeps its sign, and below it where it does not
        mid = u(0.5 * (xs[:-1] + xs[1:]))
        assert np.all(mid * (h - rounding) <= top * step * (1.0 + 1e-12))
        local = lambda x: min(step * top / u(x), STEP_CAP * step) if u(x) else STEP_CAP * step
        assert abs(xs[-1] - x_max) <= 0.5 * max(local(xs[-1]), local(x_max)) + rounding

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(u0=st.sampled_from([0.0, 1.7, 2.0, -3.0]), x_min=st.floats(min_value=-500.0, max_value=500.0),
           span=st.floats(min_value=1e-3, max_value=200.0),
           step=st.floats(min_value=1e-3, max_value=5e-2))
    def test_constant_potential_grid_is_uniform(self, u0, x_min, span, step):
        # bit for bit the grid of a uniform step; u0 = 2 MeV puts E - V = 0 everywhere
        s = rq.Scenario(rq.Species.electron(), rq.Potential.constant(u0), energy=2.0)
        xs = rq.kg._phase_grid(s, x_min, x_min + span, step)
        n = max(int(round(span / step)), 1)
        assert np.array_equal(xs, x_min + step * np.arange(n + 1))
        if u0 == 0.0 and span < 5.0:
            assert np.array_equal(rq.kg_solve_numeric(s, x_min, x_min + span, step).grid, xs)

    def test_figure4_step_count(self, linear_electron):
        # 156,831 steps where a uniform 2e-2 fm grid took 270,398: 113,568 sized by
        # phase from -5400 fm, then 5e-2 fm steps from -2155.2 fm, where
        # |E - V| = U / STEP_CAP, to the window's end
        xs = rq.kg._phase_grid(linear_electron, -5400.0, 7.956004, DEFAULT_STEP)
        assert len(xs) == 156832
        h = np.diff(xs)
        cut = 8.0 - 0.4 * 5408.0
        assert h[0] == pytest.approx(DEFAULT_STEP, rel=1e-5)
        assert np.all(np.abs(h[xs[:-1] > cut + 0.1] / (STEP_CAP * DEFAULT_STEP) - 1.0) <= 1e-9)
        # the closed form x_i = E/g - d0 sqrt(1 - 2 i step / d0), d0 = 5408 fm
        i = np.arange(0, 113000, 997)
        closed = 8.0 - 5408.0 * np.sqrt(1.0 - 2.0 * i * DEFAULT_STEP / 5408.0)
        assert np.max(np.abs(xs[i] - closed)) <= 1e-9


class TestLinearWindow:
    def test_default_window(self, linear_electron):
        basis = rq.kg_solve_linear(linear_electron)
        turning = rq.turning_points(linear_electron)[0]
        assert (basis.x_min, basis.method, basis.step) == (
            LINEAR_X_MIN, rq.kg.DEFAULT_METHOD, rq.kg.DEFAULT_STEP)
        assert abs(basis.x_max - (turning + TURNING_MARGIN)) <= 0.5 * basis.step
        ref = rq.kg_solve_numeric(linear_electron, LINEAR_X_MIN, turning + TURNING_MARGIN)
        assert all(np.array_equal(a, b) for a, b in zip(basis._samples, ref._samples, strict=True))

    def test_ranges_of_the_default_window(self, linear_electron):
        # the flow ends on the turning point bit for bit; the scan 2 fm in and 4 fm short
        basis = rq.kg_solve_linear(linear_electron)
        turning = rq.turning_points(linear_electron)[0]
        assert basis.x_max > turning
        flow, scan = linear_ranges(linear_electron, basis)
        assert flow == (LINEAR_X_MIN, turning)
        assert scan == (LINEAR_X_MIN + 2.0, turning - 4.0)

    def test_ranges_of_a_window_ending_before_the_turning_point(self, linear_electron):
        basis = rq.kg_solve_linear(linear_electron, -60.0, 1.0, step=5e-3)
        flow, scan = linear_ranges(linear_electron, basis)
        assert flow == (-60.0, basis.x_max)
        assert scan == (-58.0, basis.x_max - 4.0)

    @pytest.mark.parametrize("energy", [1.2, 1.5, 2.0])
    def test_photon_flow_ends_short_of_e_over_g(self, energy):
        # a photon's time to reach E - V = 0 diverges, so its flow ends sqrt(hbar c / g),
        # about 28 fm, short of E / g, and its last step takes about as long as its first;
        # the scan keeps the massive particle's ends
        s = rq.Scenario(rq.Species.photon(), rq.Potential.linear(0.25), energy=energy)
        basis = rq.kg_solve_linear(s, -60.0)
        flow, scan = linear_ranges(s, basis)
        assert flow == (-60.0, energy / 0.25 - math.sqrt(s.hbar_c / 0.25))
        assert flow[1] == pytest.approx(energy / 0.25 - 28.09, abs=0.01)
        assert scan == (-58.0, energy / 0.25 - 4.0)
        traj = rq.trajectory_ode_family(s, basis, [rq.MobiusParams(1.0, 0.0, -60.0)], flow, 600)[0]
        dt = np.diff(traj.times)
        assert np.all(dt > 0) and dt[-1] <= 1.2 * dt[0]

    def test_given_window_and_scheme(self, linear_electron):
        basis = rq.kg_solve_linear(linear_electron, -60.0, 1.0, step=5e-3, method="rk4")
        assert basis.x_min == -60.0 and abs(basis.x_max - 1.0) <= 0.5 * 5e-3
        ref = rq.kg_solve_numeric(linear_electron, -60.0, 1.0, step=5e-3, method="rk4")
        assert all(np.array_equal(a, b) for a, b in zip(basis._samples, ref._samples, strict=True))

    @pytest.mark.parametrize("x_max, end", [(5.005, 5.0), (5.03, 5.05)])
    def test_window_ends_on_the_grid(self, linear_electron, x_max, end):
        # an off-grid x_max ends the window at the grid end that the rounded
        # step count reaches, here on the 5e-2 fm capped steps next to the
        # turning point, and a pass over the whole window is accepted
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
        # sixth-order error stands above rounding at these steps.  The window
        # lies where every step is sized by phase, so a grid at step / m holds
        # the grid at step as every m-th point, up to rounding; their common
        # points are compared
        fine = rq.kg_solve_numeric(linear_electron, -5400.0, -4400.0, step=2.5e-3)

        def max_err(step):
            b = rq.kg_solve_numeric(linear_electron, -5400.0, -4400.0, step=step)
            want = [f[::round(step / 2.5e-3)] for f in fine._samples]
            n = min(len(b.grid), len(want[0]))
            assert np.max(np.abs(b.grid[:n] - want[0][:n])) <= 1e-9
            return max(float(np.max(np.abs(got[:n] - w[:n])))
                       for got, w in zip(b._samples[1:], want[1:]))

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
        # the Taylor branch (|delta| <= 5e-2) and the closed forms beyond it,
        # against cosh - 1 and sinh(r) / r in 40 digits; on a constant w the
        # step has p = 0, q = h and r = h w, so delta = w at h = 1
        import mpmath as mp

        delta = np.array([1e-9, -1e-9, 3e-4, -4e-3, 9.99e-3, -1.01e-2, 1.9e-2, 4.99e-2, -4.99e-2,
                          5.01e-2, -5.01e-2, 0.5, -30.0])
        assert _SERIES_MAX == 5e-2
        e11, m12, m21, e22 = _magnus6_matrix(delta, delta.copy(), delta.copy(), 1.0)
        assert np.array_equal(e11, e22) and np.array_equal(m21, m12 * delta)
        with mp.workdps(40):
            for d, cosh_m1, sinhc in zip(delta.tolist(), e11, m12):
                r = mp.sqrt(abs(mp.mpf(d)))
                want = (mp.cosh(r) - 1, mp.sinh(r) / r) if d > 0 else (mp.cos(r) - 1, mp.sin(r) / r)
                assert abs(cosh_m1 / want[0] - 1) <= 4e-16
                assert abs(sinhc / want[1] - 1) <= 4e-16

    @pytest.mark.parametrize("w2, h", [(2.4e-2, 0.02), (20.0, 0.02), (-20.0, 0.02),
                                       (30.0, 0.05), (-40.0, 0.02), (500.0, 0.02),
                                       (-150.0, 0.02)])
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
        assert (abs(delta) > _SERIES_MAX) == (abs(w2) * h * h > _SERIES_MAX)
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

    @pytest.mark.parametrize("x_min, count", [(-5400.0, 5897), (None, 34)])
    def test_polish_on_phi2_alone_keeps_the_bits(self, linear_electron, x_min, count):
        # figure 4's window and the default one: three Newton steps that read
        # both solutions and keep phi2, as the polish once took them
        b = rq.kg_solve_linear(linear_electron, x_min)
        xs, _, p2 = b._samples[:3]
        j = np.flatnonzero(p2[:-1] * p2[1:] < 0.0)
        lo, hi = xs[j], xs[j + 1]
        x = lo + p2[j] / (p2[j] - p2[j + 1]) * (hi - lo)
        jets = b._jets(j, hi - lo), b._jets(j + 1, hi - lo)
        for _ in range(3):
            x = np.clip(x - b._hermite(x, j, jets=jets)[1] / b._hermite(x, j, True, jets)[1],
                        lo, hi)
        ref = np.sort(np.concatenate([xs[p2 == 0.0], x]))
        assert len(ref) == count
        assert np.array_equal(b.phi2_zeros(), ref)

    def test_sign_change_found_below_the_product_underflow(self, electron_2mev):
        # phi2 = 1e-170 (1 - x) crosses zero at x = 1, where the product of the
        # two samples, -1e-340, underflows to -0.0; the exact zero at x = 4 is
        # a root once, not also the root of the two cells it bounds
        xs = np.array([0.0, 2.0, 3.0, 4.0, 5.0])
        p2 = 1e-170 * np.array([1.0, -1.0, -2.0, 0.0, 1.0])
        d2 = np.array([-1e-170, -1e-170, 1e-170, 1e-170, 1e-170])
        assert p2[0] * p2[1] == 0.0
        b = rq.KgBasis(electron_2mev, 0.0, 5.0, 1.0, (xs, 1.0 + xs, p2, np.ones(5), d2))
        zs = b.phi2_zeros()
        assert len(zs) == 2
        assert zs[0] == pytest.approx(1.0, abs=1e-3)
        assert zs[1] == 4.0


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
