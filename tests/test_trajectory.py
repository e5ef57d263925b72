"""Trajectory generation, node structure, and dynamical residuals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rqtlab as rq
from conftest import AB_GRID, flow_speed, traced_peak

HBAR = 6.582119569e-22
C = 2.99792458e23
ELECTRON_REST = 0.510998950


def _node_spacings(s):
    nd = rq.nodes_constant(s)
    return nd.dt_spacing, float(nd.dx_spacings[0])


class TestClosedAllowed:
    def test_straight_line_slope(self, electron_2mev):
        s = electron_2mev
        dt_n, _ = _node_spacings(s)
        traj = rq.trajectory_constant_allowed(s, rq.MobiusParams(1.0, 0.0), (0.0, 3 * dt_n), dt_n / 64)
        beta = math.sqrt(s.energy**2 - ELECTRON_REST**2) / s.energy
        line = beta * s.c * traj.times
        assert np.max(np.abs(traj.positions - line)) <= 1e-12 * np.max(np.abs(line))
        assert beta == pytest.approx(0.966809, rel=1e-6)

    def test_velocities_match_difference_quotient(self, electron_2mev):
        dt_n, _ = _node_spacings(electron_2mev)
        p = rq.MobiusParams(4.0, 2.0)
        traj = rq.trajectory_constant_allowed(electron_2mev, p, (0.0, dt_n), dt_n / 4096)
        v = rq.constant_allowed_velocity(electron_2mev, p, traj.times)
        mid_v = 0.5 * (v[1:] + v[:-1])
        quot = np.diff(traj.positions) / np.diff(traj.times)
        assert np.max(np.abs(quot / mid_v - 1.0)) <= 1e-4

    @pytest.mark.parametrize("a,b", AB_GRID)
    def test_node_concurrence(self, electron_2mev, a, b):
        dt_n, dx_n = _node_spacings(electron_2mev)
        p = rq.MobiusParams(a, b)
        for n in range(3):
            t_n = (n + 0.5) * dt_n
            x = float(rq.constant_allowed_position(electron_2mev, p, t_n))
            assert x == pytest.approx((n + 0.5) * dx_n, rel=1e-9)

    def test_time_translation_structure(self, electron_2mev):
        # interval n is interval 0 translated by (n dt_n, n dx_n)
        dt_n, dx_n = _node_spacings(electron_2mev)
        p = rq.MobiusParams(4.0, 2.0)
        ts = np.linspace(0.05 * dt_n, 0.95 * dt_n, 41)
        x0 = rq.constant_allowed_position(electron_2mev, p, ts)
        for n in (1, 2):
            xn = rq.constant_allowed_position(electron_2mev, p, ts + n * dt_n)
            assert np.max(np.abs(xn - x0 - n * dx_n)) <= 1e-9 * dx_n

    @pytest.mark.parametrize("a,b", [(0.5, -1.0), (1.0, 0.0), (4.0, 2.0)])
    def test_monotone_increasing(self, electron_2mev, a, b):
        dt_n, _ = _node_spacings(electron_2mev)
        traj = rq.trajectory_constant_allowed(
            electron_2mev, rq.MobiusParams(a, b), (0.0, 2 * dt_n), dt_n / 256
        )
        assert np.all(np.diff(traj.times) > 0)
        assert np.all(np.diff(traj.positions) > 0)

    def test_nodes_are_samples(self, electron_2mev):
        dt_n, _ = _node_spacings(electron_2mev)
        traj = rq.trajectory_constant_allowed(
            electron_2mev, rq.MobiusParams(4.0, 2.0), (0.0, 2.2 * dt_n), dt_n / 7
        )
        for n in range(2):
            assert np.any(np.isclose(traj.times, (n + 0.5) * dt_n, rtol=0, atol=1e-30))

    @pytest.mark.parametrize("scenario", ["electron_2mev", "photon_12mev"])
    def test_no_two_samples_nearly_repeat(self, request, scenario):
        # the CLI's grid, 600 steps over three node intervals: the node times fall on
        # grid times 100, 300 and 500 dt, up to an ulp, and each is kept in its place
        s = request.getfixturevalue(scenario)
        dt_n, _ = _node_spacings(s)
        dt = 3 * dt_n / 600
        traj = rq.trajectory_constant_allowed(s, rq.MobiusParams(4.0, 2.0), (0.0, 3 * dt_n), dt)
        assert np.all(np.diff(traj.times) > 1e-9 * dt)
        assert np.all(np.isin(rq.node_times_constant(s, 0.0, 3 * dt_n), traj.times))
        assert len(traj.times) == 601

    def test_anchor_for_zero_b(self, electron_2mev):
        dt_n, _ = _node_spacings(electron_2mev)
        traj = rq.trajectory_constant_allowed(
            electron_2mev, rq.MobiusParams(2.0, 0.0, x0=75.0), (0.0, dt_n), dt_n / 32
        )
        assert traj.positions[0] == pytest.approx(75.0, abs=1e-12)

    def test_mirror_direction(self, electron_2mev):
        dt_n, _ = _node_spacings(electron_2mev)
        p = rq.MobiusParams(-2.0, -1.0)  # canonicalizes to a=2, b=1, direction -1
        traj = rq.trajectory_constant_allowed(electron_2mev, p, (0.0, dt_n), dt_n / 64)
        assert traj.params.direction == -1
        assert np.all(np.diff(traj.positions) < 0)

    def test_turning_energy_rejected(self):
        s = rq.Scenario(
            rq.Species.electron(), rq.Potential.constant(2.0 - ELECTRON_REST), energy=2.0
        )
        with pytest.raises(rq.DegenerateBasisError):
            rq.trajectory_constant_allowed(s, rq.MobiusParams(1.0, 0.0), (0.0, 1e-21), 1e-23)


class TestPhoton:
    def test_straight_line_is_light_speed(self, photon_12mev):
        dt_n, _ = _node_spacings(photon_12mev)
        traj = rq.trajectory_photon(photon_12mev, rq.MobiusParams(1.0, 0.0), (0.0, 2 * dt_n), dt_n / 64)
        assert np.allclose(traj.positions, C * traj.times, rtol=1e-12, atol=1e-12)

    def test_node_spacing(self, photon_12mev):
        dt_n, dx_n = _node_spacings(photon_12mev)
        assert dx_n == pytest.approx(516.60, rel=1e-5)
        assert dt_n == pytest.approx(dx_n / C, rel=1e-12)

    def test_sign_of_e_minus_u0_irrelevant(self, photon_12mev):
        s_neg = rq.Scenario(
            rq.Species.photon(), rq.Potential.constant(2.4), energy=1.2
        )  # E - U0 = -1.2
        dt_n, _ = _node_spacings(photon_12mev)
        p = rq.MobiusParams(4.0, 2.0)
        t1 = rq.trajectory_photon(photon_12mev, p, (0.0, 2 * dt_n), dt_n / 128)
        t2 = rq.trajectory_photon(s_neg, p, (0.0, 2 * dt_n), dt_n / 128)
        assert np.array_equal(t1.positions, t2.positions)

    def test_zero_energy_difference_rejected(self):
        s = rq.Scenario(rq.Species.photon(), rq.Potential.constant(1.2), energy=1.2)
        with pytest.raises(rq.SingularEnergyError):
            rq.trajectory_photon(s, rq.MobiusParams(1.0, 0.0), (0.0, 1e-21), 1e-23)


class TestForbidden:
    def test_divergence_time_from_log_argument(self, forbidden_electron):
        # a tan(w t) + b = 0 at tan = -b/a = -1/2
        s = forbidden_electron
        p = rq.MobiusParams(4.0, 2.0)
        q2f = ELECTRON_REST**2 - 0.3**2
        omega_f = q2f / (s.hbar * 0.3)
        period = math.pi / omega_f
        t_star = math.atan(-0.5) / omega_f + period  # first positive root
        events = rq.divergence_times_forbidden(s, p, (0.0, 2 * period))
        neg = [e.t_star for e in events if e.direction == -1]
        assert min(abs(t - t_star) for t in neg) <= 1e-12 * period

    def test_sampled_blowup_brackets_analytic_time(self, forbidden_electron):
        s = forbidden_electron
        p = rq.MobiusParams(4.0, 2.0)
        q2f = ELECTRON_REST**2 - 0.3**2
        omega_f = q2f / (s.hbar * 0.3)
        period = math.pi / omega_f
        traj, events = rq.trajectory_constant_forbidden(
            s, p, (0.0, 2 * period), period / 5000, x_ceiling=1200.0
        )
        assert np.max(np.abs(traj.positions)) <= 1200.0
        for ev in events:
            if not (traj.times[0] < ev.t_star < traj.times[-1]):
                continue
            i = int(np.searchsorted(traj.times, ev.t_star))
            gap = traj.times[i] - traj.times[i - 1]
            # clipped samples leave a hole that straddles the blow-up
            assert gap > period / 5000 * 1.5

    def test_no_common_crossing_point(self, forbidden_electron):
        s = forbidden_electron
        q2f = ELECTRON_REST**2 - 0.3**2
        omega_f = q2f / (s.hbar * 0.3)
        period = math.pi / omega_f
        grid = np.linspace(0.0, 1.9 * period, 1000)
        fam = [
            rq.constant_forbidden_position(s, rq.MobiusParams(a, b), grid)
            for a, b in ((4.0, 2.0), (1.0, 0.0), (2.0, -1.0))
        ]
        min_gap = np.inf
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                d = np.abs(fam[i] - fam[j])
                d = d[np.isfinite(d)]
                min_gap = min(min_gap, float(np.min(d)))
        assert min_gap > 1e-3  # fm; far above any node tolerance

    def test_e_equals_u0_rejected(self):
        s = rq.Scenario(rq.Species.electron(), rq.Potential.constant(2.0), energy=2.0)
        with pytest.raises(rq.SingularEnergyError):
            rq.trajectory_constant_forbidden(s, rq.MobiusParams(4.0, 2.0), (0.0, 1e-20), 1e-23)

    @pytest.mark.parametrize("dt, ceiling, message", [
        (math.inf, 1e6, "dt must be"), (math.nan, 1e6, "dt must be"), (0.0, 1e6, "dt must be"),
        (1e-23, math.nan, "x_ceiling"), (1e-23, math.inf, "x_ceiling"), (1e-23, -5.0, "x_ceiling"),
        # refused from the sample count alone, before any grid is allocated
        (1e-320, 1e6, "more than MAX_SAMPLES"), (1e-40, 1e6, "more than MAX_SAMPLES"),
        (1e-27 / 1.5, 1e6, "more than MAX_SAMPLES"),
    ])
    def test_bad_spacing_or_ceiling_rejected(self, forbidden_electron, dt, ceiling, message):
        with pytest.raises(ValueError, match=message):
            rq.trajectory_constant_forbidden(forbidden_electron, rq.MobiusParams(4.0, 2.0),
                                             (0.0, 1e-20), dt, x_ceiling=ceiling)


class TestOdeTrajectory:
    def test_matches_closed_form_constant(self, electron_2mev, electron_basis):
        s = electron_2mev
        _, dx_n = _node_spacings(s)
        u = s.energy
        q2 = u * u - ELECTRON_REST**2
        k = math.sqrt(q2) / s.hbar_c
        omega = q2 / (s.hbar * u)
        x_lo = 10.0
        members = ((1.0, 0.0), (4.0, 2.0), (0.5, -1.0),
                   (0.25, -2.0), (0.25, 2.0), (4.0, -2.0))  # with (4, 2): corners of the family
        for a, b in members:
            p = rq.MobiusParams(a, b)
            ode = rq.trajectory_ode(s, electron_basis, p, (x_lo, x_lo + 3.2 * dx_n), 50)
            t_shift = math.atan(a * math.tan(k * x_lo) + b) / omega
            pd = rq.dual_params(p)
            ref = rq.constant_allowed_position(s, pd, ode.times + t_shift)
            ref0 = rq.constant_allowed_position(s, pd, t_shift)
            err = np.max(np.abs((ode.positions - x_lo) - (ref - ref0)))
            assert err <= 1e-6 * dx_n
            assert err <= 1e-13 * dx_n  # the exact closed-form time, to rounding

    @pytest.mark.parametrize("species, u0, energy", [("electron", 0.0, 2.0), ("photon", 0.0, 1.2),
                                                     ("electron", 1.7, 2.0), ("electron", 4.0, 2.0)])
    def test_closed_form_time_is_the_integral_of_momentum_over_kf(self, species, u0, energy):
        # t = (S0(x) - S0(x_lo)) / kf against adaptive quadrature of S0' / kf between
        # samples, over the closed form's default window: allowed, photon, forbidden
        # (U0 = 1.7 MeV) and Klein region (U0 = 4 MeV, E - U0 < -m0 c^2)
        from scipy.integrate import quad

        s = rq.Scenario(getattr(rq.Species, species)(), rq.Potential.constant(u0), energy=energy)
        basis = rq.kg_closed_constant(s)
        members = [rq.MobiusParams(a, b) for a, b in ((1.0, 0.0), (4.0, 2.0), (0.5, -1.0),
                                                      (-2.0, 1.0))]
        xs = np.linspace(basis.x_min, basis.x_max, 60)
        family = rq.trajectory_ode_family(s, basis, members, (basis.x_min, basis.x_max), 60)
        kf = rq.kinetic_factor(s, 0.0)
        assert (kf < 0.0) == (u0 > 0.0)
        for p, traj in zip(members, family):
            # the times take kf's sign: they fall from 0 on the forbidden (figure 2's)
            # and on the Klein-region closed form
            assert np.all(np.sign(np.diff(traj.times)) == np.sign(kf))
            dt_dx = lambda x: float(rq.conjugate_momentum(basis, p, x) / rq.kinetic_factor(s, x))
            steps = [quad(dt_dx, x0, x1, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                     for x0, x1 in zip(xs[:-1], xs[1:])]
            ref = p.direction * np.concatenate(([0.0], np.cumsum(steps)))
            assert traj.times[0] == 0.0
            # relative to the time of flight over the window
            assert np.max(np.abs(traj.times - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_velocity_field_positive(self, electron_2mev, electron_basis):
        _, dx_n = _node_spacings(electron_2mev)
        ode = rq.trajectory_ode(
            electron_2mev, electron_basis, rq.MobiusParams(4.0, 2.0), (0.0, 2 * dx_n), 40
        )
        assert np.all(flow_speed(electron_2mev, electron_basis, ode.params, ode.positions) > 0)
        assert np.all(np.diff(ode.times) > 0)

    def test_linear_monotone_and_truncated(self, linear_electron, linear_basis):
        traj = rq.trajectory_ode(
            linear_electron, linear_basis, rq.MobiusParams(1.0, 0.0, -350.0), (-350.0, 7.0), 80
        )
        assert traj.truncated_at == pytest.approx(5.956004, rel=1e-6)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.positions[-1] < 5.956004

    @pytest.mark.parametrize("chunk", [None, 7])
    def test_numeric_panels_match_one_array_quadrature(self, linear_electron, linear_basis,
                                                       monkeypatch, chunk):
        # chunk 7 puts panel seams everywhere
        if chunk is not None:
            monkeypatch.setattr(rq.trajectory, "PANEL_CHUNK", chunk)
        s, basis, p = linear_electron, linear_basis, rq.MobiusParams(4.0, 2.0)
        traj = rq.trajectory_ode(s, basis, p, (-300.0, -100.0), 201)
        xs, grid = traj.positions, basis.grid
        # the same panels, all at once, with the septic read at each absolute point
        # through flow_speed: every grid cell from the one holding xs[0], and each
        # sample's cell from its left edge to the sample.  A panel's time is hbar
        # dtheta / kf(mid) plus 4-point Gauss of 1/xdot (1 - kf / kf(mid))
        nodes, weights = np.polynomial.legendre.leggauss(4)

        def gauss(lo, hi):
            half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
            pts = mid[:, None] + half[:, None] * nodes
            kf_mid = rq.kinetic_factor(s, mid)
            rest = (1.0 - rq.kinetic_factor(s, pts) / kf_mid[:, None]) / flow_speed(s, basis, p, pts)
            (l1, l2), (r1, r2) = basis.phi12(lo), basis.phi12(hi)
            turn = np.arctan2(p.a * (r1 * l2 - l1 * r2),
                              l2 * r2 + (p.a * l1 + p.b * l2) * (p.a * r1 + p.b * r2))
            return s.hbar * turn / kf_mid + half * np.sum(weights * rest, axis=1)

        cell = np.searchsorted(grid, xs, "right") - 1
        edges = grid[cell[0]:cell[-1] + 1]
        whole = np.concatenate([[0.0], np.cumsum(gauss(edges[:-1], edges[1:]))])
        ref = whole[cell - cell[0]] + gauss(grid[cell], xs)
        ref -= ref[0]
        assert traj.times[0] == 0.0
        assert np.max(np.abs(traj.times[1:] / ref[1:] - 1.0)) <= 1e-14

    def test_sample_chunks_leave_the_times_unchanged(self, linear_electron, linear_basis,
                                                     monkeypatch):
        # the samples' partial cells are read PANEL_CHUNK at a time, like the whole
        # ones; off the grid, every sample's partial cell is a Gauss sum of its own
        s, basis, p = linear_electron, linear_basis, rq.MobiusParams(4.0, 2.0, -299.9993)
        x_range = (-299.9993, -100.0011)
        default = rq.trajectory_ode(s, basis, p, x_range, 201)
        assert not np.isin(default.positions, basis.grid).any()
        monkeypatch.setattr(rq.trajectory, "PANEL_CHUNK", 7)
        assert np.array_equal(rq.trajectory_ode(s, basis, p, x_range, 201).times, default.times)

    @staticmethod
    def _assert_family_matches_members(s, basis, members, x_range, n_samples, nodes=()):
        family = rq.trajectory_ode_family(s, basis, members, x_range, n_samples, nodes=nodes)
        assert [traj.params for traj in family] == members
        for p, traj in zip(members, family):
            one = rq.trajectory_ode_family(s, basis, [p], x_range, n_samples, nodes=nodes)[0]
            assert np.array_equal(traj.times, one.times)
            assert np.array_equal(traj.positions, one.positions)
            assert np.array_equal(traj.node_times, one.node_times)
            assert len(traj.node_times) == len(nodes)
            assert traj.truncated_at == one.truncated_at
            assert traj.params.direction == one.params.direction
        return family

    @pytest.mark.parametrize("chunk", [None, 7])
    def test_family_matches_members_numeric(self, linear_electron, linear_basis,
                                            monkeypatch, chunk):
        # the range ends past the turning point; at chunk 7 the 4,018 panels
        # put 7 of the 41 samples on a chunk seam
        if chunk is not None:
            monkeypatch.setattr(rq.trajectory, "PANEL_CHUNK", chunk)
        members = [rq.MobiusParams(a, b, -2.0) for a, b in ((1.0, 0.0), (4.0, 2.0), (0.5, -1.0))]
        family = self._assert_family_matches_members(
            linear_electron, linear_basis, members, (-2.0, 7.0), 41)
        assert family[0].truncated_at == pytest.approx(5.956004, rel=1e-6)

    def test_family_matches_members_off_grid_with_nodes(self, linear_electron, linear_basis,
                                                        monkeypatch):
        # no sample or node on a grid point: whole cells and split cells share
        # every chunk of 7 panels, and the nodes run past the sampled range
        monkeypatch.setattr(rq.trajectory, "PANEL_CHUNK", 7)
        grid = linear_basis.grid
        members = [rq.MobiusParams(a, b, -60.0) for a, b in ((1.0, 0.0), (4.0, 2.0), (0.5, -1.0))]
        nodes = np.array([-59.5003, -58.0013, -56.2007])
        family = self._assert_family_matches_members(
            linear_electron, linear_basis, members, (-59.9993, -57.0011), 33, nodes=nodes)
        assert not np.isin(np.concatenate([family[0].positions, nodes]), grid).any()

    def test_family_matches_members_closed_form(self, electron_2mev, electron_basis):
        _, dx_n = _node_spacings(electron_2mev)
        members = [rq.MobiusParams(a, b) for a, b in AB_GRID]
        self._assert_family_matches_members(
            electron_2mev, electron_basis, members, (10.0, 10.0 + 3.2 * dx_n), 50)

    def test_family_mirrored_and_repeated_members(self, electron_2mev, electron_basis):
        _, dx_n = _node_spacings(electron_2mev)
        p, mirrored = rq.MobiusParams(4.0, 2.0), rq.MobiusParams(-1.0, 0.5)
        family = self._assert_family_matches_members(
            electron_2mev, electron_basis, [p, mirrored, p], (0.0, dx_n), 30)
        assert family[1].params.direction == -1
        assert np.all(np.diff(family[1].positions) < 0)
        assert np.all(np.diff(family[1].times) > 0)
        assert np.array_equal(family[0].times, family[2].times)

    def test_mirrored_member_refused_on_linear_potential(self, linear_electron, linear_basis):
        # the reflection about the range start is a symmetry of a constant
        # potential only; on V = g x it would leave the basis
        members = [rq.MobiusParams(1.0, 0.0, -60.0), rq.MobiusParams(-2.0, 0.5, -60.0)]
        with pytest.raises(rq.DomainError, match="constant potential only"):
            rq.trajectory_ode_family(linear_electron, linear_basis, members, (-60.0, -50.0), 16)

    def test_family_needs_a_member(self, electron_2mev, electron_basis):
        with pytest.raises(ValueError):
            rq.trajectory_ode_family(electron_2mev, electron_basis, [], (0.0, 1.0), 30)

    @pytest.mark.parametrize("n_samples", [rq.trajectory.MAX_SAMPLES + 1, 10**15])
    def test_sample_count_beyond_bound_rejected(self, electron_2mev, electron_basis, n_samples):
        # refused before anything is allocated
        with pytest.raises(ValueError, match="more than MAX_SAMPLES"):
            rq.trajectory_ode_family(electron_2mev, electron_basis, [rq.MobiusParams(1.0, 0.0)],
                                     (0.0, 1.0), n_samples)

    def test_basis_coverage_required(self, electron_2mev, linear_basis):
        with pytest.raises(rq.DomainError):
            rq.trajectory_ode(
                electron_2mev.with_hbar_scale(1.0), linear_basis,
                rq.MobiusParams(1.0, 0.0), (-500.0, 0.0), 20,
            )

    def test_mirror_direction(self, electron_2mev, electron_basis):
        _, dx_n = _node_spacings(electron_2mev)
        traj = rq.trajectory_ode(
            electron_2mev, electron_basis, rq.MobiusParams(-1.0, 0.0), (0.0, dx_n), 30
        )
        assert np.all(np.diff(traj.positions) < 0)
        assert np.all(np.diff(traj.times) > 0)

    def test_figure4_family_adds_little_memory_over_its_basis(self, linear_electron):
        # figure 4's three members, 600 samples and 5,897 nodes: the panel loop's and
        # the samples' partial-cell reads each work on PANEL_CHUNK Gauss points at a time
        s = linear_electron
        basis = rq.kg_solve_linear(s, -5400.0)
        nodes = rq.nodes_numeric(basis)
        assert len(nodes) == 5897
        members = [rq.MobiusParams(a, b, basis.x_min) for a, b in ((1.0, 0.0), (4.0, 2.0),
                                                                   (0.5, -1.0))]
        x_range = (basis.x_min, min(basis.x_max, rq.turning_points(s)[0]))
        _, peak, _ = traced_peak(lambda: rq.trajectory_ode_family(s, basis, members, x_range,
                                                                  600, nodes=nodes))
        assert peak <= 3.5 * 2**20


class TestNodeTimes:
    def test_against_direct_quadrature(self, linear_electron, linear_basis):
        # adaptive quadrature of 1/xdot over each node interval, summed
        from scipy.integrate import quad

        s, basis, p = linear_electron, linear_basis, rq.MobiusParams(1.0, 0.0)
        nodes = basis.phi2_zeros()
        times = rq.trajectory_ode_family(s, basis, [p], (basis.x_min, basis.x_max), 16,
                                         nodes=nodes)[0].node_times
        edges = np.concatenate(([basis.x_min], nodes))
        inv = lambda x: 1.0 / float(flow_speed(s, basis, p, x))
        ref = np.cumsum([quad(inv, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                         for lo, hi in zip(edges[:-1], edges[1:])])
        assert len(times) == 34
        # in units of the local node interval's time
        assert np.max(np.abs(times - ref) / np.diff(np.concatenate(([0.0], ref)))) <= 1e-11

    def test_same_quadrature_as_trajectory(self, linear_electron, linear_basis):
        s, basis, p = linear_electron, linear_basis, rq.MobiusParams(1.0, 0.0)
        traj = rq.trajectory_ode(s, basis, p, (-300.0, -100.0), 57)
        at_samples = rq.trajectory_ode_family(s, basis, [p], (-300.0, -100.0), 57,
                                              nodes=traj.positions[1:])[0]
        assert np.array_equal(at_samples.node_times, traj.times[1:])
        assert np.array_equal(at_samples.times, traj.times)

    def test_nodes_before_turning_point(self, linear_electron, linear_basis):
        s, basis, p = linear_electron, linear_basis, [rq.MobiusParams(1.0, 0.0)]
        family = lambda nodes: rq.trajectory_ode_family(s, basis, p, (-300.0, 7.0), 16, nodes=nodes)
        assert len(family([])[0].node_times) == 0
        with pytest.raises(rq.DomainError):
            family([-100.0, 6.0])
        with pytest.raises(ValueError):
            family([-100.0, -200.0])
        with pytest.raises(ValueError):
            family([-300.0, -100.0])


class TestFamilyProperty:
    # samples span -60..-50 fm on the linear_basis grid; nodes may run on to -45 fm
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(ab=st.lists(st.tuples(st.floats(min_value=0.25, max_value=4.0),
                                 st.floats(min_value=-2.0, max_value=2.0)), min_size=1, max_size=4),
           nodes=st.lists(st.floats(min_value=-59.9, max_value=-45.0), max_size=6, unique=True),
           n_samples=st.integers(min_value=2, max_value=40))
    def test_family_matches_one_member_calls(self, linear_electron, linear_basis, ab, nodes,
                                             n_samples):
        # forward members only: a mirrored one is refused off a constant potential
        members = [rq.MobiusParams(a, b, -60.0) for a, b in ab]
        TestOdeTrajectory._assert_family_matches_members(
            linear_electron, linear_basis, members, (-60.0, -50.0), n_samples, nodes=sorted(nodes))



def _refined_times(s, basis, p, stops, sub):
    """t at the increasing stops: every grid cell from stops[0] split into sub equal
    4-point Gauss panels, with the stops as extra edges, read through flow_speed."""
    grid = basis.grid
    i0, i1 = np.searchsorted(grid, stops[0], "right") - 1, np.searchsorted(grid, stops[-1], "left")
    fine = (grid[i0:i1, None] + np.diff(grid[i0:i1 + 1])[:, None] * (np.arange(sub) / sub)).ravel()
    edges = np.unique(np.concatenate([fine, stops]))
    edges = edges[(edges >= stops[0]) & (edges <= stops[-1])]
    nodes, weights = np.polynomial.legendre.leggauss(4)
    half = 0.5 * np.diff(edges)
    pts = 0.5 * (edges[1:] + edges[:-1])[:, None] + half[:, None] * nodes
    panel = half * np.sum(weights / flow_speed(s, basis, p, pts), axis=1)
    return np.concatenate([[0.0], np.cumsum(panel)])[np.searchsorted(edges, stops)]


class TestPartialCells:
    """Samples and nodes are read as the part of their grid cell before them."""

    MEMBERS = ((1.0, 0.0), (4.0, 2.0), (0.5, -1.0))

    @pytest.fixture(scope="class")
    def short_basis(self, linear_electron):
        return rq.kg_solve_numeric(linear_electron, -60.0, -50.0)

    def _family(self, s, basis, x_range, n_samples, nodes=()):
        members = [rq.MobiusParams(a, b, x_range[0]) for a, b in self.MEMBERS]
        return TestOdeTrajectory._assert_family_matches_members(s, basis, members, x_range,
                                                                n_samples, nodes=nodes)

    def test_stops_on_grid_points_are_running_sums(self, linear_electron, short_basis):
        # both samples and every node on a grid point: no partial cell but the
        # empty one, so the times are sums of whole cells
        grid = short_basis.grid
        nodes = grid[3:400:4]
        family = self._family(linear_electron, short_basis, (grid[0], grid[400]), 2, nodes)
        for traj in family:
            stops = np.concatenate([traj.positions[:1], nodes, traj.positions[1:]])
            assert np.isin(stops, grid).all()
            times = np.concatenate([traj.times[:1], traj.node_times, traj.times[1:]])
            ref = _refined_times(linear_electron, short_basis, traj.params, stops, 1)
            assert times[0] == 0.0
            assert np.max(np.abs(times[1:] / ref[1:] - 1.0)) <= 1e-14
            assert traj.node_times[30] == rq.trajectory_ode_family(
                linear_electron, short_basis, [traj.params], (grid[0], grid[123]), 2)[0].times[1]

    def test_stop_at_x_max(self, linear_electron, short_basis):
        # the last sample and a node on the basis end close the walk
        x_max = short_basis.x_max
        family = self._family(linear_electron, short_basis, (-60.0, x_max), 17, [-55.0031, x_max])
        for traj in family:
            assert traj.positions[-1] == x_max
            assert traj.node_times[-1] == traj.times[-1]
            stops = np.concatenate([traj.positions[:-1], [-55.0031], [x_max]])
            ref = _refined_times(linear_electron, short_basis, traj.params, np.sort(stops), 8)
            assert traj.times[-1] == pytest.approx(ref[-1], rel=1e-12)

    def test_mid_cell_start_is_time_zero(self, linear_electron, short_basis):
        # neither end nor any sample on a grid point: t(lo) is exactly 0, and
        # the times are the integral from lo, not from lo's cell
        lo, hi = -59.99937, -57.00113
        family = self._family(linear_electron, short_basis, (lo, hi), 33, [-59.5003, -58.0013])
        for traj in family:
            assert not np.isin(traj.positions, short_basis.grid).any()
            assert traj.times[0] == 0.0
            ref = _refined_times(linear_electron, short_basis, traj.params, traj.positions, 8)
            assert np.max(np.abs(traj.times[1:] / ref[1:] - 1.0)) <= 1e-12

    def test_nodes_past_a_truncated_range(self, linear_electron, linear_basis):
        # the range is cut TURNING_GUARD short of the turning point; nodes
        # between its end and the turning point still get their times
        turning = rq.turning_points(linear_electron)[0]
        nodes = [turning - 0.5, turning - 0.6 * rq.trajectory.TURNING_GUARD]
        family = self._family(linear_electron, linear_basis, (-2.0, 7.0), 41, nodes)
        for traj in family:
            assert traj.truncated_at == turning
            assert traj.positions[-1] < nodes[-1]
            assert traj.node_times[-1] > traj.times[-1]
            stops = np.sort(np.concatenate([traj.positions, nodes]))
            ref = _refined_times(linear_electron, linear_basis, traj.params, stops, 8)
            assert traj.node_times[0] == pytest.approx(ref[np.searchsorted(stops, nodes[0])],
                                                       rel=1e-10)

    @pytest.fixture(scope="class")
    def figure4_basis(self, linear_electron):
        return rq.kg_solve_linear(linear_electron, -5400.0)

    @pytest.mark.parametrize("lo, hi, bounds", [
        # figure 4's cells are 5e-2 fm wide here, STEP_CAP times its step at
        # -5400 fm, at k h = 0.032 to 0.020 and 3.7e-3 to 4.9e-4.  Bounds are about
        # 3x the errors against cells split in 8; -50..0 fm holds no node
        (-500.0, -300.0, {(1.0, 0.0): (1.5e-14, 1.5e-14), (4.0, 2.0): (2e-13, 2.5e-14),
                          (0.5, -1.0): (1.7e-13, 2.7e-14)}),
        (-50.0, 0.0, {(1.0, 0.0): (1e-14, None), (4.0, 2.0): (1.5e-14, None),
                      (0.5, -1.0): (1.7e-14, None)}),
    ])
    def test_accuracy_on_low_k_windows(self, linear_electron, figure4_basis, lo, hi, bounds):
        basis = figure4_basis
        zeros = basis.phi2_zeros(lo, hi)
        assert np.all(np.diff(basis.grid)[(basis.grid[:-1] >= lo) & (basis.grid[:-1] < hi)]
                      >= 0.05 - 1e-12)
        family = self._family(linear_electron, basis, (lo, hi), 101, zeros)
        for traj in family:
            stops = np.unique(np.concatenate([traj.positions, zeros]))
            ref = _refined_times(linear_electron, basis, traj.params, stops, 8)
            sample_bound, node_bound = bounds[traj.params.a, traj.params.b]
            at_samples = ref[np.searchsorted(stops, traj.positions)][1:]
            assert np.max(np.abs(traj.times[1:] / at_samples - 1.0)) <= sample_bound
            if node_bound is None:
                assert len(zeros) == 0
            else:
                at_nodes = ref[np.searchsorted(stops, zeros)]
                assert np.max(np.abs(traj.node_times / at_nodes - 1.0)) <= node_bound

    @pytest.mark.parametrize("lo, hi, bounds", [
        # timed from a start inside figure 4's window, where k has fallen to 0.56 and
        # 0.41 of its value at -5400 fm but the phase grid's cells keep k h = 0.14
        # (-3000 fm) and 0.13 (-2200 fm).  Bounds are about 3x the errors against
        # cells split in 8.  On -3000..-500 fm the uniform 2e-2 fm grid read (1, 0)
        # to 7.2e-14 / 7.3e-14, (4, 2) to 8.7e-12 / 1.1e-10 and (0.5, -1) to
        # 4.7e-13 / 5.8e-12, and the 4-point sum alone on the phase grid (4, 2) to
        # 9.0e-9 / 1.8e-7; on -2200..-1700 fm, where it spent 2.4 times the phase
        # grid's points per radian, (4, 2) to 8.1e-13 / 1.6e-13 and (0.5, -1) to
        # 6.9e-14 / 7.9e-14
        (-3000.0, -500.0, {(1.0, 0.0): (7e-14, 7e-14), (4.0, 2.0): (1e-12, 9e-12),
                           (0.5, -1.0): (2e-13, 1e-12)}),
        (-2200.0, -1700.0, {(1.0, 0.0): (5e-14, 5e-14), (4.0, 2.0): (6.5e-12, 1.2e-11),
                            (0.5, -1.0): (2e-12, 4e-12)}),
    ])
    def test_accuracy_from_a_start_inside_figure4(self, linear_electron, figure4_basis,
                                                  lo, hi, bounds):
        basis = figure4_basis
        zeros = basis.phi2_zeros(lo, hi)
        family = self._family(linear_electron, basis, (lo, hi), 101, zeros)
        for traj in family:
            stops = np.unique(np.concatenate([traj.positions, zeros]))
            ref = _refined_times(linear_electron, basis, traj.params, stops, 8)
            sample_bound, node_bound = bounds[traj.params.a, traj.params.b]
            at_samples = ref[np.searchsorted(stops, traj.positions)][1:]
            assert np.max(np.abs(traj.times[1:] / at_samples - 1.0)) <= sample_bound
            at_nodes = ref[np.searchsorted(stops, zeros)]
            assert np.max(np.abs(traj.node_times / at_nodes - 1.0)) <= node_bound

    def test_constant_potential_times_are_the_closed_forms(self):
        # kf is constant, so every Gauss weight is exactly 0 and each cell's time is
        # its turn of theta over kf: the closed form's (S0(x) - S0(x0)) / kf, here at
        # k h = 0.10, where the 4-point sum alone read (4, 2) 4.6e-9 off
        s = rq.Scenario(rq.Species.electron(), rq.Potential.constant(0.0), energy=1000.0)
        members = [rq.MobiusParams(a, b) for a, b in self.MEMBERS]
        numeric = rq.trajectory_ode_family(s, rq.kg_solve_numeric(s, 0.0, 20.0), members,
                                           (0.0, 20.0), 101)
        closed = rq.trajectory_ode_family(s, rq.kg_closed_constant(s, 0.0, 20.0), members,
                                          (0.0, 20.0), 101)
        for got, want in zip(numeric, closed):
            assert np.max(np.abs(got.times[1:] / want.times[1:] - 1.0)) <= 5e-14

    def test_accuracy_on_a_high_k_window(self, linear_electron):
        # 4 Gauss points per 2e-2 fm cell, at k h = 0.14: 1/xdot of a = 1 is
        # smooth, that of a != 1 peaks once per node interval, and the Gauss
        # points see it only weighted by 1/kf's change across the cell (the 4-point
        # sum alone read (4, 2) to 1.5e-7 and (0.5, -1) to 4.5e-8 here).  Bounds are
        # about 3x the errors against cells split in 8 (which moves by at most
        # 1.3e-13 when split in 16).
        lo, hi = -5400.0, -5300.0
        basis = rq.kg_solve_numeric(linear_electron, lo, hi)
        zeros = basis.phi2_zeros()
        family = self._family(linear_electron, basis, (lo, hi), 101, zeros)
        bounds = {(1.0, 0.0): (2.5e-14, 2.5e-14), (4.0, 2.0): (2.6e-12, 2.5e-12),
                  (0.5, -1.0): (4.5e-13, 1.8e-12)}
        for traj in family:
            stops = np.unique(np.concatenate([traj.positions, zeros]))
            ref = _refined_times(linear_electron, basis, traj.params, stops, 8)
            at_samples = ref[np.searchsorted(stops, traj.positions)][1:]
            at_nodes = ref[np.searchsorted(stops, zeros)]
            sample_bound, node_bound = bounds[traj.params.a, traj.params.b]
            assert np.max(np.abs(traj.times[1:] / at_samples - 1.0)) <= sample_bound
            assert np.max(np.abs(traj.node_times / at_nodes - 1.0)) <= node_bound


class TestFirqnlResidual:
    def test_straight_line_tier(self, electron_2mev):
        dt_n, _ = _node_spacings(electron_2mev)
        assert rq.firqnl_residual(electron_2mev, rq.MobiusParams(1.0, 0.0), (0.0, 3 * dt_n),
                                  49) <= 1e-8

    def test_generic_member(self, electron_2mev):
        dt_n, _ = _node_spacings(electron_2mev)
        assert rq.firqnl_residual(electron_2mev, rq.MobiusParams(4.0, 2.0), (0.0, 3 * dt_n),
                                  6001) <= 1e-3

    def test_photon(self, photon_12mev):
        dt_n, _ = _node_spacings(photon_12mev)
        assert rq.firqnl_residual(photon_12mev, rq.MobiusParams(2.0, 1.0), (0.0, 3 * dt_n),
                                  6001) <= 1e-3

    @pytest.mark.parametrize("n", [600, 2000])
    def test_forbidden_window_between_divergences(self, forbidden_electron, n):
        # the forbidden closed form is finite strictly between two blow-up times
        s, p = forbidden_electron, rq.MobiusParams(4.0, 2.0)
        period = 2.0 * math.pi / abs(rq.constant_rates(s).omega)
        t_a, t_b = (e.t_star for e in rq.divergence_times_forbidden(s, p, (0.0, period))[:2])
        window = (t_a + 0.1 * (t_b - t_a), t_b - 0.1 * (t_b - t_a))
        assert rq.firqnl_residual(s, p, window, n) <= 1e-3

    def test_too_few_samples(self, electron_2mev):
        dt_n, _ = _node_spacings(electron_2mev)
        with pytest.raises(ValueError, match="at least 7 samples"):
            rq.firqnl_residual(electron_2mev, rq.MobiusParams(1.0, 0.0), (0.0, 0.4 * dt_n), 4)

    def test_formula_matches_symbolic_reduction(self):
        """The library's first-integral terms equal the Hamilton-Jacobi
        equation with the velocity-momentum relation substituted in.

        Works in position space: with w(x) the velocity field along the
        trajectory, xdd = w w' and xddd = w (w w'' + w'^2).  The terms are
        read from _firqnl_terms on a scenario whose fields are symbols.  V''
        is 0 on both potentials, and the library leaves its term out, so
        V'' is set to 0.  The difference of the two sides is then a fixed
        rational function of the independent atoms (E, m0^2 c^4, hbar, c,
        V, V', w, w', w''), so exact vanishing at random rational points
        certifies the identity.
        """
        import random
        from types import SimpleNamespace

        import sympy as sp

        from rqtlab.trajectory import _firqnl_terms

        x = sp.Symbol("x")
        E, m4, hbar, c = sp.symbols("E m4 hbar c", positive=True)
        V = sp.Function("V")
        w = sp.Function("w")

        u = E - V(x)
        Q = u**2 - m4
        P = Q / (u * w(x))  # dS0/dx via the velocity-momentum relation
        Pp = sp.diff(P, x)
        Ppp = sp.diff(P, x, 2)
        lhs = (
            c**2 * P**2
            - (hbar**2 * c**2 / 2) * (sp.Rational(3, 2) * (Pp / P) ** 2 - Ppp / P)
            + m4
            - u**2
        )

        xd = w(x)
        xdd = w(x) * sp.diff(w(x), x)
        xddd = w(x) * (w(x) * sp.diff(w(x), x, 2) + sp.diff(w(x), x) ** 2)
        potential = SimpleNamespace(value=lambda _: V(x), derivative=lambda _: sp.diff(V(x), x))
        s = SimpleNamespace(energy=E, rest_energy=sp.sqrt(m4), hbar=hbar, c=c, potential=potential)
        # the float coefficients 0.5, 0.75 and 1.5 are exact binary fractions
        terms = [sp.nsimplify(term, rational=True) for term in _firqnl_terms(s, x, xd, xdd, xddd)]
        diff = (sum(terms) - lhs * u**2 * w(x) ** 2 / c**2).subs(sp.Derivative(V(x), (x, 2)), 0)

        rng = random.Random(8)
        atoms = [
            sp.Derivative(V(x), x),
            sp.Derivative(w(x), (x, 2)),
            sp.Derivative(w(x), x),
            V(x),
            w(x),
            E,
            m4,
            hbar,
            c,
        ]
        checked = 0
        while checked < 3:
            vals = {a: sp.Rational(rng.randint(2, 80), rng.randint(1, 9)) for a in atoms}
            u_val = vals[E] - vals[V(x)]
            if u_val == 0 or u_val**2 == vals[m4]:
                continue  # E = V or a turning point: the terms' denominators vanish
            assert sp.simplify(diff.subs(vals)) == 0
            checked += 1


class TestVelocityMomentum:
    @pytest.mark.parametrize("a,b", AB_GRID)
    def test_closed_allowed_family(self, electron_2mev, a, b):
        dt_n, _ = _node_spacings(electron_2mev)
        assert rq.velocity_momentum_check(electron_2mev, rq.MobiusParams(a, b), (0.0, 2 * dt_n),
                                          201) <= 1e-6

    @pytest.mark.parametrize("a,b", [(-1.0, 0.5), (-4.0, 2.0), (-0.5, -1.0)])
    def test_closed_allowed_mirrored_members(self, electron_2mev, a, b):
        dt_n, _ = _node_spacings(electron_2mev)
        assert rq.velocity_momentum_check(electron_2mev, rq.MobiusParams(a, b), (0.0, 2 * dt_n),
                                          201) <= 1e-6

    def test_photon_energy_relation(self, photon_12mev, photon_basis):
        dt_n, _ = _node_spacings(photon_12mev)
        p = rq.MobiusParams(4.0, 2.0)
        assert rq.velocity_momentum_check(photon_12mev, p, (0.0, 2 * dt_n), 201) <= 1e-6
        # xdot dS0/dx equals E - U0 for the photon
        t = np.linspace(0.0, 2 * dt_n, 201)
        x = rq.constant_allowed_position(photon_12mev, p, t)
        xdot = rq.constant_allowed_velocity(photon_12mev, p, t)
        prod = xdot * rq.conjugate_momentum(photon_basis, rq.dual_params(p), x)
        assert np.allclose(prod, 1.2, rtol=1e-12)

    def test_forbidden_trajectory_refused(self, forbidden_electron):
        # the allowed-region closed form gives xdot; a forbidden region has none
        with pytest.raises(rq.DomainError):
            rq.velocity_momentum_check(forbidden_electron, rq.MobiusParams(4.0, 2.0),
                                       (0.0, 1e-21), 100)

    def test_product_vanishes_at_turning_point(self, linear_electron, linear_basis):
        p = rq.MobiusParams(1.0, 0.0, -350.0)
        far = flow_speed(linear_electron, linear_basis, p, -300.0) * rq.conjugate_momentum(
            linear_basis, p, -300.0
        )
        near = flow_speed(linear_electron, linear_basis, p, 5.95) * rq.conjugate_momentum(
            linear_basis, p, 5.95
        )
        assert abs(near) < 1e-3 * abs(far)
        assert near == pytest.approx(rq.kinetic_factor(linear_electron, 5.95), rel=1e-9)

    def test_shifted_closed_form_needs_explicit_labels(self, electron_2mev):
        dt_n, _ = _node_spacings(electron_2mev)
        with pytest.raises(ValueError, match="shifted closed form"):
            rq.velocity_momentum_check(electron_2mev, rq.MobiusParams(4.0, 2.0, x0=50.0),
                                       (0.0, dt_n), 51)


class TestTrajectoryCsv:
    def test_si_units_and_header(self, tmp_path, electron_2mev):
        dt_n, dx_n = _node_spacings(electron_2mev)
        traj = rq.trajectory_constant_allowed(
            electron_2mev, rq.MobiusParams(1.0, 0.0), (0.0, dt_n), dt_n / 20
        )
        path = rq.write_trajectory_csv(traj, tmp_path / "traj.csv")
        lines = path.read_text().splitlines()
        assert any("columns: t_s, x_m" in l for l in lines)
        data = [l for l in lines if not l.startswith("#")]
        t0, x0 = (float(v) for v in data[0].split(","))
        t1, x1 = (float(v) for v in data[-1].split(","))
        # slope in SI is beta * c with c in m/s
        beta = math.sqrt(2.0**2 - ELECTRON_REST**2) / 2.0
        assert (x1 - x0) / (t1 - t0) == pytest.approx(beta * 2.99792458e8, rel=1e-9)
