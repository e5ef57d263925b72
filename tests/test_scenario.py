"""Units, constants, regions, and configuration parsing."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rqtlab as rq
from rqtlab.scenario import TURNING_TOL_FACTOR, write_csv

ELECTRON_REST = 0.510998950


class TestConstants:
    def test_defaults_consistent(self, electron_2mev):
        c = electron_2mev  # hbar_scale 1: the CODATA values
        assert c.hbar_c == pytest.approx(c.hbar * c.c, rel=1e-15)
        assert c.hbar_c == pytest.approx(197.3269804, rel=1e-9)
        assert c.hbar > 0 and c.c > 0 and c.hbar_c > 0

    def test_unit_round_trip(self):
        for x in (1.0, 320.6015, 5.4e3, 1.7e-4):
            assert rq.m_to_fm(rq.fm_to_m(x)) == pytest.approx(x, rel=1e-12)
            assert rq.fm_to_m(rq.m_to_fm(x * 1e-15)) == pytest.approx(x * 1e-15, rel=1e-12)


class TestSpecies:
    def test_electron_rest_energy(self):
        assert rq.Species.electron().rest_energy == ELECTRON_REST
        assert not rq.Species.electron().is_photon

    def test_photon_iff_zero_rest(self):
        assert rq.Species.photon().is_photon
        assert not rq.Species(rest_energy=1e-12).is_photon

    def test_negative_rest_rejected(self):
        with pytest.raises(ValueError):
            rq.Species(rest_energy=-0.1)


class TestScenario:
    def test_energy_positive(self):
        with pytest.raises(ValueError):
            rq.Scenario(rq.Species.electron(), rq.Potential.constant(0.0), energy=-1.0)

    def test_hbar_scale_range(self):
        with pytest.raises(ValueError):
            rq.Scenario(rq.Species.electron(), rq.Potential.constant(0.0), energy=2.0,
                        hbar_scale=1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            rq.Scenario(rq.Species.electron(), rq.Potential.constant(0.0), energy=bad)
        with pytest.raises(ValueError):
            rq.Potential.constant(bad)
        with pytest.raises(ValueError):
            rq.Potential.linear(bad)

    def test_potential_is_constant_or_linear(self):
        with pytest.raises(ValueError, match="not both"):
            rq.Potential(u0=1.0, g=0.25)
        assert rq.Potential.constant(0.0).kind == "constant"
        assert rq.Potential.linear(0.25).kind == "linear"
        assert rq.Potential(u0=1.0) == rq.Potential.constant(1.0)
        assert not rq.Potential(g=-0.5).is_constant

    def test_effective_hbar_scales(self, electron_2mev):
        s = electron_2mev.with_hbar_scale(0.5)
        assert s.hbar == pytest.approx(0.5 * electron_2mev.hbar, rel=1e-15)
        assert s.hbar_c == pytest.approx(0.5 * electron_2mev.hbar_c, rel=1e-15)
        assert s.c == electron_2mev.c  # c never scales


class TestRegionClassification:
    def test_free_electron_allowed(self, electron_2mev):
        assert rq.constant_rates(electron_2mev).region is rq.RegionClass.ALLOWED

    def test_free_photon_allowed(self, photon_12mev):
        assert rq.constant_rates(photon_12mev).region is rq.RegionClass.ALLOWED

    def test_linear_turning_point(self, linear_electron):
        # E - g x = m0 c^2  =>  x = (2 - 0.510999) / 0.25
        x_t = rq.turning_points(linear_electron)[0]
        assert x_t == (2.0 - ELECTRON_REST) / 0.25
        assert x_t == pytest.approx(5.956004, rel=1e-6)
        # allowed before the turning point, forbidden past it
        assert rq.kinetic_factor(linear_electron, x_t - 1.0) > 0.0
        assert rq.kinetic_factor(linear_electron, x_t + 1.0) < 0.0

    def test_forbidden_constant(self, forbidden_electron):
        assert rq.constant_rates(forbidden_electron).region is rq.RegionClass.FORBIDDEN


class TestKineticFactor:
    def test_electron_value(self, electron_2mev):
        assert rq.kinetic_factor(electron_2mev, 0.0) == pytest.approx(1.869440, rel=1e-6)

    def test_photon_reduces_to_e_minus_v(self, photon_12mev):
        assert rq.kinetic_factor(photon_12mev, 9.0) == 1.2

    def test_vanishes_at_turning_point(self, linear_electron):
        x_t = rq.turning_points(linear_electron)[0]
        kin = rq.kinetic_factor(linear_electron, x_t)
        # shared tolerance band: |u^2 - m^2| <= tol * E^2 implies this bound
        assert abs(kin) <= TURNING_TOL_FACTOR * linear_electron.energy**2 / ELECTRON_REST

    def test_singular_energy(self):
        s = rq.Scenario(rq.Species.electron(), rq.Potential.constant(2.0), energy=2.0)
        with pytest.raises(rq.SingularEnergyError):
            rq.kinetic_factor(s, 0.0)


class TestConstantRates:
    def test_allowed_and_photon(self, electron_2mev, photon_12mev):
        r = rq.constant_rates(electron_2mev, rq.RegionClass.ALLOWED)
        assert r.q2 == 2.0 * 2.0 - ELECTRON_REST**2
        assert r.omega == r.q2 / (electron_2mev.hbar * 2.0)
        ph = rq.constant_rates(photon_12mev)
        assert ph.region is rq.RegionClass.ALLOWED
        assert ph.omega == 1.2 / photon_12mev.hbar
        assert ph.k == 1.2 / photon_12mev.hbar_c

    def test_forbidden_sign_follows_e_minus_u0(self, forbidden_electron):
        r = rq.constant_rates(forbidden_electron, rq.RegionClass.FORBIDDEN)
        assert r.q2 < 0 and r.omega > 0
        below = rq.Scenario(rq.Species.electron(), rq.Potential.constant(2.3), energy=2.0)
        assert rq.constant_rates(below).omega < 0
        with pytest.raises(rq.DomainError):
            rq.constant_rates(forbidden_electron, rq.RegionClass.ALLOWED)

    def test_singular_and_turning_energies(self, linear_electron):
        with pytest.raises(rq.SingularEnergyError):
            rq.constant_rates(rq.Scenario(rq.Species.photon(), rq.Potential.constant(1.2), 1.2))
        with pytest.raises(rq.DegenerateBasisError):
            rq.constant_rates(
                rq.Scenario(rq.Species.electron(), rq.Potential.constant(2.0 - ELECTRON_REST), 2.0)
            )
        with pytest.raises(ValueError):
            rq.constant_rates(linear_electron)


class TestWriteCsv:
    def test_header_and_number_format(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["title", "columns: n, x"], [(3, 0.1), (4, -2.5e-13)])
        assert path.read_text() == (
            "# title\n# columns: n, x\n3,1.000000000000e-01\n4,-2.500000000000e-13\n"
        )

    def test_same_text_as_a_per_value_format(self, tmp_path):
        # the one row format against formatting each value on its own: ints
        # as they are, everything else (numpy scalars included) as %.12e
        rows = [(i, x, np.float64(x) * 0.5, np.int64(i), np.float64(-x))
                for i, x in enumerate([0.1, -0.0, 0.0, math.nan, math.inf, -math.inf,
                                       5e-324, 1.7976931348623157e308, -2.5e-13, 12345.678])]
        rows[3] = (-7, *rows[3][1:])
        rows[4] = (10**20, *rows[4][1:])
        path = write_csv(tmp_path / "t.csv", ["h"], rows)
        want = "# h\n" + "".join(
            ",".join(str(v) if isinstance(v, int) else f"{v:.12e}" for v in row) + "\n"
            for row in rows)
        assert path.read_text() == want
        assert "-0.000000000000e+00" in want and "nan" in want and "-inf" in want

    def test_no_rows(self, tmp_path):
        assert write_csv(tmp_path / "t.csv", ["h"], iter(())).read_text() == "# h\n"


class TestConfig:
    def test_round_trip(self, tmp_path):
        text = """
        # scenario for the photon runs
        species = photon
        energy_mev = 1.2
        potential = constant
        u0_mev = 0
        hbar_scale = 1
        """
        path = tmp_path / "scenario.cfg"
        path.write_text(text)
        s = rq.scenario_from_config(rq.load_config(path))
        assert s.species.is_photon
        assert s.energy == 1.2
        assert s.potential.is_constant

    def test_defaults(self):
        s = rq.scenario_from_config({})
        assert s.rest_energy == ELECTRON_REST
        assert s.energy == 2.0

    def test_linear_keys(self):
        s = rq.scenario_from_config(
            {"potential": "linear", "g_mev_per_fm": "0.25", "energy_mev": "2"}
        )
        assert s.potential.g == 0.25
        assert s.potential.value(4.0) == pytest.approx(1.0)
        assert s.potential.derivative(4.0) == 0.25
        assert s.potential.second_derivative(4.0) == 0.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            rq.scenario_from_config({"mass_mev": "1"})

    def test_bad_species_rejected(self):
        with pytest.raises(ValueError, match="species"):
            rq.scenario_from_config({"species": "muon"})

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            rq.parse_config_text("species photon")

    @pytest.mark.parametrize("text, match", [
        ("potential = linear\nu0_mev = 1.5\n", "linear potential does not read u0_mev"),
        ("potential = constant\ng_mev_per_fm = 5\n",
         "constant potential does not read g_mev_per_fm"),
        ("g_mev_per_fm = 0.25\n", "constant potential does not read g_mev_per_fm"),
        ("species = photon\n# again\nspecies = electron\n", "line 3: 'species' given twice"),
    ])
    def test_unread_or_repeated_key_rejected(self, text, match):
        with pytest.raises(ValueError, match=match):
            rq.scenario_from_config(rq.parse_config_text(text))


# scenarios across both species and both potential kinds, and positions in them
SPECIES = st.sampled_from([rq.Species.electron(), rq.Species.photon()])
POTENTIALS = st.one_of(
    st.floats(min_value=-20.0, max_value=20.0).map(rq.Potential.constant),
    st.floats(min_value=0.01, max_value=2.0).flatmap(
        lambda g: st.sampled_from([rq.Potential.linear(g), rq.Potential.linear(-g)])),
)
SCENARIOS = st.builds(rq.Scenario, species=SPECIES, potential=POTENTIALS,
                      energy=st.floats(min_value=0.01, max_value=20.0),
                      hbar_scale=st.floats(min_value=1e-3, max_value=1.0))


class TestRegionProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(s=SCENARIOS)
    def test_turning_points_are_classified_as_such(self, s):
        turns = rq.turning_points(s)
        assert turns == sorted(turns)
        assert len(turns) == (0 if s.potential.is_constant else 2)
        for x in turns:
            # inside the shared band |(E - V)^2 - m0^2 c^4| <= tol * E^2; a
            # photon's turning point is E = V, where kinetic_factor is singular
            u = s.energy - s.potential.value(x)
            if u != 0.0:
                assert abs(rq.kinetic_factor(s, x)) <= TURNING_TOL_FACTOR * s.energy**2 / abs(u)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(s=SCENARIOS, x=st.floats(min_value=-100.0, max_value=100.0))
    def test_region_kinetic_factor_and_momentum_agree(self, s, x):
        u = s.energy - s.potential.value(x)
        assume(u != 0.0)
        d = u * u - s.rest_energy**2
        kin = rq.kinetic_factor(s, x)
        if abs(d) <= TURNING_TOL_FACTOR * s.energy**2:
            assert abs(kin) <= TURNING_TOL_FACTOR * s.energy**2 / abs(u)
            return
        # kin = ((E - V)^2 - m0^2 c^4) / (E - V): the sign of E - V where allowed
        assert (kin * u > 0.0) == (d > 0.0)
        if d > 0.0:
            p = rq.classical_momentum(s, x)
            assert p > 0.0
            assert (s.c * p) ** 2 == pytest.approx(u * kin, rel=1e-12)
        else:
            assert not s.species.is_photon
            with pytest.raises(rq.SingularEnergyError):
                rq.classical_momentum(s, x)


class TestConfigProperties:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(s=SCENARIOS)
    def test_config_text_round_trip(self, s):
        pot = s.potential
        lines = [f"species = {'photon' if s.species.is_photon else 'electron'}",
                 f"energy_mev = {s.energy!r}",
                 f"potential = {pot.kind}",
                 f"u0_mev = {pot.u0!r}" if pot.is_constant else f"g_mev_per_fm = {pot.g!r}",
                 f"hbar_scale = {s.hbar_scale!r}  # trailing comment"]
        text = "\n# a scenario written back as text\n" + "\n".join(lines) + "\n"
        assert rq.scenario_from_config(rq.parse_config_text(text)) == s
