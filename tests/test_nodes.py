"""Node spacings, the half-wavelength law, and the classical-limit scan."""

import dataclasses
import math

import numpy as np
import pytest

import rqtlab as rq
from conftest import AB_GRID

HBAR = 6.582119569e-22
C = 2.99792458e23


class TestAnalyticNodes:
    def test_electron_spacings(self, electron_2mev):
        nd = rq.nodes_constant(electron_2mev)
        assert nd.dt_spacing == pytest.approx(1.10612e-21, rel=1e-5)
        assert nd.dx_spacings[0] == pytest.approx(320.60, rel=1e-5)
        assert rq.fm_to_m(nd.dx_spacings[0]) == pytest.approx(3.2060e-13, rel=1e-4)

    def test_first_node(self, electron_2mev):
        nd = rq.nodes_constant(electron_2mev)
        assert nd.node_times[0] == pytest.approx(5.5306e-22, rel=1e-4)
        assert nd.node_positions[0] == pytest.approx(160.30, rel=1e-4)

    def test_node_lists_increasing(self, electron_2mev):
        nd = rq.nodes_constant(electron_2mev, n_nodes=12)
        assert np.all(np.diff(nd.node_times) > 0)
        assert np.all(np.diff(nd.node_positions) > 0)
        assert np.ptp(nd.dx_spacings) <= 1e-12 * nd.dx_spacings[0]

    def test_photon_spacing(self, photon_12mev):
        nd = rq.nodes_constant(photon_12mev)
        assert nd.dx_spacings[0] == pytest.approx(516.60, rel=1e-5)
        assert nd.dt_spacing == pytest.approx(1.7232e-21, rel=1e-4)

    def test_hbar_scale_halves_spacings(self, electron_2mev):
        nd1 = rq.nodes_constant(electron_2mev)
        nd2 = rq.nodes_constant(electron_2mev.with_hbar_scale(0.5))
        assert nd1.dt_spacing / nd2.dt_spacing == 2.0
        assert nd1.dx_spacings[0] / nd2.dx_spacings[0] == 2.0

    @pytest.mark.parametrize("species", [rq.Species.electron(), rq.Species.photon()],
                             ids=["electron", "photon"])
    def test_spacings_are_the_constant_rates(self, species):
        # one source of the rates: pi / omega and pi / k, to the bit, over
        # both signs of E - U0 and several hbar scales
        checked = 0
        for energy in (0.8, 1.2, 2.0, 3.7):
            for u0 in (-1.3, 0.0, 0.5, 2.4, 5.0):
                for eps in (1.0, 0.5, 0.02):
                    s = rq.Scenario(species, rq.Potential.constant(u0), energy=energy,
                                    hbar_scale=eps)
                    if (energy - u0) ** 2 <= 1.01 * s.rest_energy**2:
                        continue
                    r = rq.constant_rates(s, rq.RegionClass.ALLOWED)
                    nd = rq.nodes_constant(s)
                    assert nd.dt_spacing == math.pi / r.omega
                    assert nd.dx_spacings[0] == math.pi / r.k
                    checked += 1
        assert checked >= 40

    def test_forbidden_region_rejected(self, forbidden_electron):
        with pytest.raises(rq.DomainError):
            rq.nodes_constant(forbidden_electron)

    def test_turning_energy_rejected(self):
        s = rq.Scenario(
            rq.Species.electron(), rq.Potential.constant(2.0 - 0.510998950), energy=2.0
        )
        with pytest.raises(rq.DegenerateBasisError):
            rq.nodes_constant(s)


class TestNumericNodes:
    def test_constant_potential_spacing_matches(self, electron_2mev):
        s = electron_2mev.with_hbar_scale(0.02)
        nd = rq.nodes_constant(s)
        b = rq.kg_solve_numeric(s, 0.0, 8 * nd.dx_spacings[0], step=1e-3, method="rk4")
        zs = rq.nodes_numeric(b)
        spac = np.diff(zs)
        assert np.max(np.abs(spac - nd.dx_spacings[0]) / nd.dx_spacings[0]) <= 1e-9

    def test_forbidden_region_empty(self, forbidden_electron):
        b = rq.kg_closed_constant(forbidden_electron, -500.0, 500.0)
        assert len(rq.nodes_numeric(b)) == 0

    def test_linear_spacing_grows_toward_turning_point(self, linear_electron, linear_basis):
        rows = rq.linear_node_summary(linear_electron, linear_basis)
        assert len(rows) >= 10
        dxs = [r["dx"] for r in rows]
        assert all(dxs[i] < dxs[i + 1] for i in range(len(dxs) - 1))
        assert rq.spacing_grows(rows)

    @pytest.mark.parametrize("dxs", [(2.0, 1.0), (1.0, 1.0), (1.0, 2.0, 3.0, 2.5)])
    def test_spacing_check_rejects_rows_that_do_not_grow(self, dxs):
        assert not rq.spacing_grows([{"dx": dx} for dx in dxs])

    def test_linear_local_momentum_within_5pct(self, linear_electron, linear_basis):
        rows = rq.linear_node_summary(linear_electron, linear_basis)
        worst = max(abs(r["p_node"] / r["p_classical_mid"] - 1.0) for r in rows)
        assert worst <= 0.05

    def test_step_density_precondition(self):
        s = rq.Scenario(
            rq.Species.electron(), rq.Potential.constant(0.0), energy=2.0, hbar_scale=0.01
        )
        # pi / (20 k) is about 0.16 fm here; a 0.25 fm grid is too coarse
        b = rq.kg_solve_numeric(s, 0.0, 40.0, step=0.25, method="rk4")
        with pytest.raises(rq.DomainError, match="too coarse"):
            rq.nodes_numeric(b)


class TestDeBroglie:
    def test_electron_ratio_unity(self, electron_2mev):
        nd = rq.nodes_constant(electron_2mev)
        assert abs(rq.de_broglie_check(nd) - 1.0) <= 1e-12
        assert nd.wavelength == pytest.approx(641.20, rel=1e-5)

    def test_photon_ratio_unity(self, photon_12mev):
        nd = rq.nodes_constant(photon_12mev)
        assert abs(rq.de_broglie_check(nd) - 1.0) <= 1e-12

    def test_ratio_invariant_under_hbar_scale(self, electron_2mev):
        for eps in (1.0, 0.5, 0.125):
            s = electron_2mev.with_hbar_scale(eps)
            assert rq.de_broglie_check(rq.nodes_constant(s)) == pytest.approx(1.0, abs=1e-13)

    def test_reads_the_report_ratio(self, electron_2mev, photon_12mev):
        for s in (electron_2mev, photon_12mev, electron_2mev.with_hbar_scale(0.5)):
            nd = rq.nodes_constant(s)
            assert rq.de_broglie_check(nd) == nd.ratio


class TestMeanMomentum:
    def test_equals_classical_on_constant(self, electron_2mev, electron_basis):
        zs = electron_basis.phi2_zeros(0.0, 700.0)
        val = rq.mean_momentum(electron_basis, rq.MobiusParams(1.0, 0.0), float(zs[0]), float(zs[1]))
        assert val == pytest.approx(rq.classical_momentum(electron_2mev), rel=1e-12)

    def test_family_invariant(self, electron_basis):
        zs = electron_basis.phi2_zeros(0.0, 700.0)
        vals = [
            rq.mean_momentum(electron_basis, rq.MobiusParams(a, b), float(zs[0]), float(zs[1]))
            for a, b in AB_GRID
        ]
        assert (max(vals) - min(vals)) / np.mean(vals) <= 1e-10

    def test_linear_interval_definition(self, linear_electron, linear_basis):
        zs = rq.nodes_numeric(linear_basis)
        p = rq.MobiusParams(2.0, -1.0, x0=float(zs[0]) - 1.0)
        val = rq.mean_momentum(linear_basis, p, float(zs[3]), float(zs[4]))
        assert val == pytest.approx(math.pi * HBAR / (zs[4] - zs[3]), rel=1e-10)

    def test_non_adjacent_rejected(self, electron_basis):
        zs = electron_basis.phi2_zeros(0.0, 1500.0)
        with pytest.raises(ValueError, match="adjacent"):
            rq.mean_momentum(electron_basis, rq.MobiusParams(1.0, 0.0), float(zs[0]), float(zs[2]))

    def test_non_node_endpoints_rejected(self, electron_basis):
        with pytest.raises(ValueError, match="zeros"):
            rq.mean_momentum(electron_basis, rq.MobiusParams(1.0, 0.0), 1.0, 2.0)


class TestClassicalLimit:
    def test_scan_properties(self, electron_2mev):
        rep = rq.classical_limit_scan(
            electron_2mev, rq.MobiusParams(4.0, 2.0), [1.0, 0.5, 0.25, 0.125]
        )
        assert np.all(rep.deviations > 0)
        assert np.all(np.diff(rep.deviations) < 0)  # decreasing with epsilon
        assert np.all(rep.deviations <= rep.bounds)
        assert 0.9 <= rep.exponent <= 1.1

    def test_scaling_holds_needs_every_rule(self, electron_2mev):
        rep = rq.classical_limit_scan(electron_2mev, rq.MobiusParams(4.0, 2.0), [1.0, 0.5, 0.25])
        assert rep.scaling_holds
        for broken in (dict(deviations=rep.deviations[::-1]), dict(bounds=0.5 * rep.deviations),
                       dict(exponent=1.2), dict(exponent=0.8)):
            assert not dataclasses.replace(rep, **broken).scaling_holds

    def test_bound_halves_with_epsilon(self, electron_2mev):
        rep = rq.classical_limit_scan(electron_2mev, rq.MobiusParams(4.0, 2.0), [1.0, 0.5])
        assert rep.bounds[1] == pytest.approx(rep.bounds[0] / 2.0, rel=1e-12)

    def test_deviation_scales_linearly(self, electron_2mev):
        rep = rq.classical_limit_scan(electron_2mev, rq.MobiusParams(2.0, 1.0), [1.0, 0.25])
        assert rep.deviations[1] == pytest.approx(rep.deviations[0] / 4.0, rel=1e-6)

    def test_deviation_is_the_maximum_over_the_intervals(self, electron_2mev):
        # the sampled maximum against one over 200,001 samples of the same
        # three node intervals: 2e-7 relative at 2,048 samples, 6e-3 low at 64
        p, eps = rq.MobiusParams(4.0, 2.0), [1.0, 0.5]
        rep = rq.classical_limit_scan(electron_2mev, p, eps)
        r = rq.constant_rates(electron_2mev)
        beta = math.sqrt(r.q2) / abs(r.u)
        for e, deviation in zip(rep.epsilons, rep.deviations):
            s = electron_2mev.with_hbar_scale(float(e))
            ts = np.linspace(0.0, 3 * math.pi / rq.constant_rates(s).omega, 200_001)
            xs = rq.constant_allowed_position(s, p, ts)
            dense = np.max(np.abs(xs - (p.x0 + beta * s.c * ts))) / math.sqrt(1.0 + beta**2)
            assert deviation == pytest.approx(dense, rel=1e-6)

    def test_epsilon_range_validated(self, electron_2mev):
        with pytest.raises(ValueError):
            rq.classical_limit_scan(electron_2mev, rq.MobiusParams(1.0, 0.0), [1.0, 2.0])

    def test_forbidden_scenario_rejected(self, forbidden_electron):
        with pytest.raises(ValueError):
            rq.classical_limit_scan(forbidden_electron, rq.MobiusParams(1.0, 0.0), [1.0])


class TestReports:
    def test_node_report_csv(self, tmp_path, electron_2mev):
        nd = rq.nodes_constant(electron_2mev)
        path = rq.write_node_report_csv(nd, tmp_path / "nodes.csv", electron_2mev)
        lines = path.read_text().splitlines()
        assert any("columns: n, t_n_s, x_n_m, dx_m, lambda_half_m, ratio" in l for l in lines)
        row = [l for l in lines if not l.startswith("#")][0].split(",")
        assert int(row[0]) == 0
        assert float(row[2]) == pytest.approx(1.6030e-13, rel=1e-4)  # metres
        assert float(row[5]) == pytest.approx(1.0, abs=1e-12)

    def test_classical_csv(self, tmp_path, electron_2mev):
        rep = rq.classical_limit_scan(electron_2mev, rq.MobiusParams(4.0, 2.0), [1.0, 0.5])
        path = rq.write_classical_csv(rep, tmp_path / "cl.csv", electron_2mev)
        lines = path.read_text().splitlines()
        assert any("columns: epsilon, deviation_m, bound_m" in l for l in lines)
        assert len([l for l in lines if not l.startswith("#")]) == 2
