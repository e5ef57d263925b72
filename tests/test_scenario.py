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
            assert rq.m_to_fm(x * 1e-15) == pytest.approx(x, rel=1e-12)


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


def _lines(path):
    """The body lines of a written CSV."""
    return path.read_text().splitlines()[1:]


# values the writer's fast path must hand on, or must get right at its edges
PINNED_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e-99, math.nextafter(1e-99, 0.0), math.nextafter(1e-99, 1.0), -1e-99,
    9.9999999999995e98, math.nextafter(9.9999999999995e98, math.inf), 1e99,
    math.nextafter(1e99, 0.0), -1e99, 1e100, -1e-100, math.nan, math.inf, -math.inf,
    # exact ties at the 13th digit: Python rounds half to even on the exact value
    1.0000000000005, 1.0000000000015, 2.5e-13, 1234567890123.5, 1234567890124.5,
    # short decimals a 5 past the 13th digit, whose m rounds onto a half-integer or
    # within 1e-3 of one, on the wrong side of it
    2.5000000000005, 3.3333333333335e-7, 9.8765432101235e20, 4.4444444444445e-50,
    1.2345678901235e90, 7.4664771890995e-32, 7.5442392854865e-44, 7.7277280090305e33,
    *(k / 2.0**j for k in (1, 3, 5, 7, 1023, 4097) for j in (1, 13, 40, 41, 43, 52)),
    *(m * 10.0**p for p in (-90, -17, -1, 0, 1, 12, 13, 22, 23, 90)
      for m in (1.0, 9.9999999999995)),
    *(math.nextafter(10.0**p, d) for p in range(-99, 99, 7) for d in (0.0, math.inf)),
]
PINNED_INTS = [0, 1, -1, 9, 10, 9999, 10000, 99999999, 100000000, 10**11, 10**12 - 1,
               -(10**12 - 1), 10**12, -(10**12), 2**63 - 1, -(2**63)]


class TestWriteCsv:
    def test_header_and_number_format(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["title", "columns: n, x"],
                         [np.array([3, 4]), np.array([0.1, -2.5e-13])])
        assert path.read_text() == (
            "# title\n# columns: n, x\n3,1.000000000000e-01\n4,-2.500000000000e-13\n"
        )

    def test_same_text_as_a_per_value_format(self, tmp_path):
        # an integer-dtype column is %d, any other column (lists of floats,
        # float32, bool) is float64 %.12e; columns of one length, one line a row
        x = np.array(PINNED_FLOATS)
        n = np.resize(np.array(PINNED_INTS), len(x))
        with np.errstate(over="ignore"):
            x32 = x.astype(np.float32)
        cols = [n, x, list(-x), x32, x > 0, n.astype(np.uint64) % 10**13]
        path = write_csv(tmp_path / "t.csv", ["h"], cols)
        rows = zip(*(np.asarray(c).tolist() for c in cols))
        want = ["%d,%.12e,%.12e,%.12e,%.12e,%d" % row for row in rows]
        assert _lines(path) == want
        assert "-0.000000000000e+00" in want[1] and "nan" in want[17] and "-inf" in want[19]

    def test_no_rows(self, tmp_path):
        assert write_csv(tmp_path / "t.csv", ["h"], ()).read_text() == "# h\n"
        assert write_csv(tmp_path / "u.csv", ["h"], [np.array([]), []]).read_text() == "# h\n"

    def test_pinned_values_each_on_its_own(self, tmp_path):
        # the pinned floats and ints, each alone and negated: line for line
        # what Python's % writes
        for i, x in enumerate(PINNED_FLOATS):
            col = np.array([x, -x])
            assert _lines(write_csv(tmp_path / f"f{i}.csv", ["h"], [col])) == [
                "%.12e" % v for v in col.tolist()], x
        ints = np.array(PINNED_INTS, dtype=np.int64)
        assert _lines(write_csv(tmp_path / "i.csv", ["h"], [ints])) == [
            "%d" % v for v in PINNED_INTS]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(x=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                      min_size=1, max_size=40),
           n=st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), min_size=1,
                      max_size=40))
    def test_matches_python_percent(self, tmp_path_factory, x, n):
        n = (n * len(x))[:len(x)]
        path = write_csv(tmp_path_factory.mktemp("csv") / "p.csv", ["h"],
                         [np.array(x), np.array(n, dtype=np.int64)])
        assert _lines(path) == ["%.12e,%d" % row for row in zip(x, n)]

    def test_powers_of_ten_are_correctly_rounded(self):
        from rqtlab.scenario import _E, _POW10

        assert _POW10.tolist() == [float(f"1e{12 - e}") for e in _E.tolist()]

    def test_unequal_or_2d_columns_are_refused(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["h"], [np.zeros(3), np.zeros(4)])
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["h"], [np.zeros((3, 2))])


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
        u, q2 = rq.local_rates(s, x)
        assume(u != 0.0)
        assert u == s.energy - s.potential.value(x)
        kin = rq.kinetic_factor(s, x)
        if abs(q2) <= TURNING_TOL_FACTOR * s.energy**2:
            assert abs(kin) <= TURNING_TOL_FACTOR * s.energy**2 / abs(u)
            return
        # kin = ((E - V)^2 - m0^2 c^4) / (E - V): the sign of E - V where allowed
        assert (kin * u > 0.0) == (q2 > 0.0)
        if q2 > 0.0:
            # (c p)^2 of the classical momentum p = sqrt(q2) / c
            assert q2 == pytest.approx(u * kin, rel=1e-12)
        else:
            assert not s.species.is_photon


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
