"""Reduced action: unwrapping across phi2 zeros, momentum, Hamilton-Jacobi residuals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import rqtlab as rq
from conftest import AB_GRID
from rqtlab.kg import LINEAR_X_MIN, SCAN_MARGINS, linear_ranges

HBAR = 6.582119569e-22


def quad_momentum_integral(basis, p, x_a, x_b, panels=16):
    """Independent oracle for the action increment: integrate S0' directly."""
    edges = np.linspace(x_a, x_b, panels + 1)
    return sum(
        quad(lambda x: rq.conjugate_momentum(basis, p, x), lo, hi,
             epsrel=1e-13, full_output=1)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    )


class TestMobiusParams:
    def test_zero_a_rejected(self):
        with pytest.raises(ValueError):
            rq.MobiusParams(0.0, 1.0)

    @pytest.mark.parametrize("a, b, x0", [(math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0),
                                          (1.0, math.nan, 0.0), (1.0, 0.0, -math.inf)])
    def test_non_finite_labels_rejected(self, a, b, x0):
        with pytest.raises(ValueError, match="finite"):
            rq.MobiusParams(a, b, x0)

    def test_negative_a_canonicalized(self):
        p = rq.MobiusParams(-2.0, 1.0)
        assert (p.a, p.b, p.direction) == (2.0, -1.0, -1)

    def test_dual_is_involution(self):
        p = rq.MobiusParams(4.0, 2.0, x0=0.0)
        q = rq.dual_params(rq.dual_params(p))
        assert (q.a, q.b) == (p.a, p.b)

    def test_dual_fixes_straight_line(self):
        p = rq.dual_params(rq.MobiusParams(1.0, 0.0))
        assert (p.a, p.b) == (1.0, 0.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(a=st.floats(min_value=0.05, max_value=20.0), b=st.floats(min_value=-5.0, max_value=5.0),
           sign=st.sampled_from([1.0, -1.0]))
    def test_dual_commutes_with_canonical_form(self, a, b, sign):
        # the signed labels (A, B) map to (1/A, -B/A), whichever form goes in
        A, B = sign * a, sign * b
        p = rq.MobiusParams(A, B)
        assert rq.dual_params(p) == rq.MobiusParams(1.0 / A, -B / A)
        q = rq.dual_params(rq.dual_params(p))
        assert q.direction == p.direction
        # abs: a subnormal b loses digits in b / a
        assert (q.a, q.b) == (pytest.approx(p.a, rel=1e-15), pytest.approx(p.b, rel=1e-15, abs=1e-300))


def comprehension_action(basis, p, xs):
    """reduced_action one position at a time, kept as its reference."""
    x = np.asarray(xs, dtype=float)
    zeros = basis.phi2_zeros(min(p.x0, float(x.min())), max(p.x0, float(x.max())))
    left = np.searchsorted(zeros, x, side="left")
    phi1, phi2 = basis.phi12(x)
    on_zero = (phi2 == 0.0) | (len(zeros) > 0 and zeros[np.minimum(left, len(zeros) - 1)] == x)
    n = left - np.searchsorted(zeros, p.x0, side="right")
    with np.errstate(divide="ignore"):
        r = p.a * phi1 / phi2 + p.b
    phase = [math.pi / 2.0 + k * math.pi if zero else math.atan(v) + k * math.pi
             for v, k, zero in zip(r.tolist(), n.tolist(), on_zero.tolist())]
    return p.direction * basis.scenario.hbar * np.array(phase)


def zeros_crossed(basis, p, x):
    """The signed count of phi2 zeros between x0 and x that S0 at x carries, off a zero."""
    theta = rq.reduced_action(basis, p, [x])[0] / (p.direction * basis.scenario.hbar)
    phi1, phi2 = basis.phi12(x)
    turns = (theta - math.atan(p.a * phi1 / phi2 + p.b)) / math.pi
    assert turns == pytest.approx(round(turns), abs=1e-9)
    return round(turns)


@pytest.fixture(scope="module")
def default_linear_basis(linear_electron):
    return rq.kg_solve_linear(linear_electron)


class TestReducedAction:
    def test_zero_at_origin(self, electron_basis):
        # no zero crossed at the anchor: S0 is atan's principal value there
        s0 = rq.reduced_action(electron_basis, rq.MobiusParams(1.0, 0.0), [0.0])
        assert s0.shape == (1,)
        assert s0.tolist() == [0.0]

    def test_quarter_period_limit(self, electron_basis):
        # phi2 -> 0 there; the limit is pi hbar / 2
        k = electron_basis.wronskian
        s0 = rq.reduced_action(electron_basis, rq.MobiusParams(1.0, 0.0), [math.pi / (2 * k)])
        assert s0[0] == pytest.approx(math.pi * HBAR / 2, rel=1e-12)

    def test_straight_line_action_linear_in_x(self, electron_basis):
        p = rq.MobiusParams(1.0, 0.0)
        k = electron_basis.wronskian
        xs = np.array([10.0, 500.0, 1500.0])  # spans several branches
        s0 = rq.reduced_action(electron_basis, p, xs)
        assert s0 == pytest.approx(HBAR * k * xs, rel=1e-12)

    @pytest.mark.parametrize("a,b", AB_GRID)
    def test_pi_hbar_jump_per_interval(self, electron_basis, a, b):
        p = rq.MobiusParams(a, b)
        zs = electron_basis.phi2_zeros(0.0, 1500.0)
        jumps = np.diff(rq.reduced_action(electron_basis, p, zs[:4]))
        assert jumps == pytest.approx(np.full(3, math.pi * HBAR), rel=1e-12)

    @pytest.mark.parametrize("a,b", [(0.5, -2.0), (4.0, 2.0)])
    def test_jump_against_quadrature_oracle(self, electron_basis, a, b):
        p = rq.MobiusParams(a, b)
        zs = electron_basis.phi2_zeros(0.0, 700.0)
        oracle = quad_momentum_integral(electron_basis, p, float(zs[0]), float(zs[1]))
        assert oracle == pytest.approx(math.pi * HBAR, rel=1e-10)

    def test_monotone_for_positive_a(self, electron_basis):
        p = rq.MobiusParams(4.0, 2.0)
        s0 = rq.reduced_action(electron_basis, p, np.linspace(-400.0, 400.0, 160))
        assert np.all(np.diff(s0) > 0)

    def test_descending_through_zero_continuous(self, electron_basis):
        # branch counting must also work for x < x0
        p = rq.MobiusParams(2.0, 1.0, x0=200.0)
        s0 = rq.reduced_action(electron_basis, p, np.linspace(-300.0, 200.0, 120))
        assert np.all(np.diff(s0) > 0)

    def test_branch_index_counts_zeros(self, electron_basis):
        k = electron_basis.wronskian
        p = rq.MobiusParams(1.0, 0.0)
        x = 2.2 * math.pi / k  # past zeros at pi/2k, 3pi/2k (scaled by 1/k)
        assert zeros_crossed(electron_basis, p, x) == 2
        assert zeros_crossed(electron_basis, rq.MobiusParams(1.0, 0.0, x0=x), 0.0) == -2

    @pytest.mark.parametrize("basis_name, members, xs", [
        # a mirrored member, and an anchor on a zero (an int: its index among the window's)
        ("electron_basis", [(1.0, 0.0, 0.0), (4.0, 2.0, -250.0), (-2.0, 1.0, 400.0),
                            (0.5, -1.0, 1)], np.linspace(-400.0, 400.0, 301)),
        ("default_linear_basis", [(1.0, 0.0, LINEAR_X_MIN), (-3.0, 0.7, -100.0),
                                  (0.5, -1.0, 5)],
         np.linspace(LINEAR_X_MIN + SCAN_MARGINS[0], 1.9, 600)),
    ])
    def test_bits_of_the_per_position_form(self, request, basis_name, members, xs):
        # positions on the phi2 zeros take the one-sided limit; every value keeps its bits
        basis = request.getfixturevalue(basis_name)
        zs = basis.phi2_zeros(float(xs[0]), float(xs[-1]))
        xs = np.sort(np.concatenate([xs, zs]))
        for a, b, x0 in members:
            p = rq.MobiusParams(a, b, float(zs[x0]) if isinstance(x0, int) else x0)
            got = rq.reduced_action(basis, p, xs)
            assert got.tobytes() == comprehension_action(basis, p, xs).tobytes()

    def test_numeric_basis_jump(self, linear_electron, linear_basis):
        zs = linear_basis.phi2_zeros()
        p = rq.MobiusParams(4.0, 2.0, x0=float(zs[0]) - 1.0)
        s_4, s_5 = rq.reduced_action(linear_basis, p, zs[4:6])
        assert s_5 - s_4 == pytest.approx(math.pi * HBAR, rel=1e-10)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(a=st.floats(min_value=0.05, max_value=20.0) | st.floats(min_value=-20.0, max_value=-0.05),
           b=st.floats(min_value=-5.0, max_value=5.0),
           x0=st.floats(min_value=-400.0, max_value=8.0))
    def test_numeric_basis_jump_every_interval(self, linear_basis, a, b, x0):
        # at a node the sign of phi2 is rounding noise; S0 must still climb pi hbar
        p = rq.MobiusParams(a, b, x0=x0)
        zs = linear_basis.phi2_zeros()
        s0 = rq.reduced_action(linear_basis, p, zs)
        assert np.allclose(np.diff(s0), p.direction * math.pi * HBAR, rtol=1e-10, atol=0.0)


class TestConjugateMomentum:
    def test_straight_line_equals_classical(self, electron_2mev, electron_basis):
        p = rq.MobiusParams(1.0, 0.0)
        s = electron_2mev  # U0 = 0: p = sqrt(E^2 - m0^2 c^4) / c
        p_cl = math.sqrt(s.energy**2 - s.rest_energy**2) / s.c
        for x in (0.0, 37.0, 911.0):
            assert rq.conjugate_momentum(electron_basis, p, x) == pytest.approx(
                p_cl, rel=1e-12
            )

    def test_expected_value(self, electron_basis):
        # sqrt(E^2 - m0^2 c^4) / c for the 2 MeV electron
        val = rq.conjugate_momentum(electron_basis, rq.MobiusParams(1.0, 0.0), 0.0)
        assert val == pytest.approx(6.449857e-24, rel=1e-6)

    @pytest.mark.parametrize("a,b", AB_GRID)
    def test_positive_and_nonzero(self, electron_basis, a, b):
        p = rq.MobiusParams(a, b)
        xs = np.linspace(-500.0, 500.0, 101)
        vals = rq.conjugate_momentum(electron_basis, p, xs)
        assert np.all(vals > 0)

    def test_sign_and_direction(self, electron_basis):
        flipped = rq.MobiusParams(-1.0, 0.0)  # canonicalized, direction -1
        assert rq.conjugate_momentum(electron_basis, flipped, 3.0) < 0

    def test_finite_difference_consistency(self, electron_basis):
        p = rq.MobiusParams(4.0, 2.0)
        h = 1e-4
        for x in (13.0, 57.0, 200.0):
            s_lo, s_hi = rq.reduced_action(electron_basis, p, [x - h, x + h])
            fd = (s_hi - s_lo) / (2 * h)
            assert fd == pytest.approx(
                rq.conjugate_momentum(electron_basis, p, x), rel=1e-6
            )


class TestRqshjeResidual:
    def test_straight_line_tier(self, electron_basis):
        p = rq.MobiusParams(1.0, 0.0)
        residual, _ = rq.rqshje_residual(electron_basis, p, [-311.0, 8.0, 702.0])
        assert np.all(residual <= 1e-6)

    def test_generic_member_default_step(self, electron_basis):
        p = rq.MobiusParams(4.0, 2.0)
        residual, _ = rq.rqshje_residual(electron_basis, p, np.linspace(-300.0, 300.0, 41))
        assert np.all(residual <= 1e-4)

    def test_linear_numeric_tier(self, linear_basis):
        p = rq.MobiusParams(4.0, 2.0)
        residual, _ = rq.rqshje_residual(linear_basis, p, np.linspace(-390.0, 0.0, 41))
        assert np.all(residual <= 1e-3)

    def test_photon_straight_tier(self, photon_basis):
        assert rq.rqshje_residual(photon_basis, rq.MobiusParams(1.0, 0.0), [77.0])[0][0] <= 1e-6

    def test_stencil_domain_error(self, linear_basis):
        with pytest.raises(rq.DomainError):
            rq.rqshje_residual(linear_basis, rq.MobiusParams(1.0, 0.0), [-399.9999])

    @pytest.mark.parametrize("ab, rel", [((0.25, 2.0), 1e-4), ((4.0, 2.0), 5e-3)])
    def test_linear_residual_does_not_follow_the_basis_step(self, linear_window_bases, ab, rel):
        # the residuals command's scan of the linear window, on bases 1e-2 and
        # 2e-2 fm apart: the default stencil follows the local wavenumber,
        # not the storage grid (rounded to grid multiples, (0.25, 2) moved
        # by 157 %); it reads 2.9e-3 there and 3.1e-7 at (4, 2)
        xs, bases = linear_window_bases
        p = rq.MobiusParams(*ab)
        fine, coarse = (float(np.max(rq.rqshje_residual(b, p, xs)[0])) for b in bases)
        assert abs(coarse / fine - 1.0) <= rel

    def test_default_stencil_is_one_array_call(self, electron_basis, linear_basis):
        # the array read gives each position the step a one-position read gives it
        xs = np.linspace(-390.0, 0.0, 9)
        for basis in (electron_basis, linear_basis):
            p = rq.MobiusParams(4.0, 2.0)
            together = rq.rqshje_residual(basis, p, xs)[0]
            assert together.tolist() == [rq.rqshje_residual(basis, p, [x])[0][0] for x in xs]


@pytest.fixture(scope="module")
def linear_window_bases(linear_electron):
    """The residuals command's scan positions, and default bases at 1e-2 and 2e-2 fm."""
    bases = [rq.kg_solve_linear(linear_electron, step=step) for step in (1e-2, 2e-2)]
    return np.linspace(*linear_ranges(linear_electron, bases[1])[1], 600), bases


class TestActionScan:
    def test_rows_shape(self, electron_basis):
        members = [rq.MobiusParams(1.0, 0.0), rq.MobiusParams(4.0, 2.0)]
        rows = rq.action_scan(electron_basis, members, [0.0, 10.0, 20.0])
        assert rows.shape == (6, 4)
        assert len(rows) == len(members) * 3
        assert rows[:, 0].tolist() == [0.0, 10.0, 20.0] * 2  # member-major

    @pytest.mark.parametrize("basis_name, members, xs", [
        # anchors in and around the window, so that the members' branch counts differ
        ("electron_basis", [(1.0, 0.0, 0.0), (4.0, 2.0, -250.0), (0.5, -1.0, 90.0),
                            (-2.0, 1.0, 400.0)], np.linspace(-160.0, 160.0, 401)),
        ("linear_basis", [(1.0, 0.0, LINEAR_X_MIN), (4.0, 2.0, LINEAR_X_MIN),
                          (0.5, -1.0, -20.0), (-3.0, 0.7, -100.0)],
         np.linspace(LINEAR_X_MIN + SCAN_MARGINS[0], 1.9, 600)),
    ])
    def test_family_rows_are_each_members_own(self, request, basis_name, members, xs):
        # one basis read serves the family: each member's rows are the bits of its own
        # reduced_action, S0' and RQSHJE residual
        basis = request.getfixturevalue(basis_name)
        family = [rq.MobiusParams(a, b, x0) for a, b, x0 in members]
        rows = rq.action_scan(basis, family, xs)
        assert rows.shape == (len(family) * len(xs), 4)
        for p, got in zip(family, np.split(rows, len(family))):
            s0 = rq.reduced_action(basis, p, xs)
            residual, ds0_dx = rq.rqshje_residual(basis, p, xs)
            own = np.column_stack((xs, s0, ds0_dx, residual))
            assert got.tobytes() == own.tobytes()
        crossed = [zeros_crossed(basis, p, float(xs[0])) for p in family]
        assert len(set(crossed)) > 1

    @pytest.mark.parametrize("basis_name", ["electron_basis", "default_linear_basis"])
    def test_one_basis_read_per_scan(self, request, monkeypatch, basis_name):
        # the stencils' centre row gives S0: the positions are not read a second time
        basis = request.getfixturevalue(basis_name)
        reads = []
        phi12 = type(basis).phi12
        monkeypatch.setattr(type(basis), "phi12", lambda *a, **k: reads.append(1) or phi12(*a, **k))
        xs = np.linspace(basis.x_min + 10.0, basis.x_min + 300.0, 50)
        rq.action_scan(basis, [rq.MobiusParams(1.0, 0.0), rq.MobiusParams(4.0, 2.0)], xs)
        assert len(reads) == 1
