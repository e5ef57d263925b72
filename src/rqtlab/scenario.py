"""Physical setup shared by every other module.

Internal unit system is MeV / fm / s; lengths are converted to metres only
at output boundaries.  An explicit ``hbar_scale`` factor on the scenario
rescales every occurrence of hbar, which is how classical-limit sweeps are
expressed as plain parameter scans.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import DegenerateBasisError, DomainError, SingularEnergyError

# CODATA 2018 recommended values, in MeV / fm / s.  hbar_c is derived as
# the exact product so that identities like p = hbar k = sqrt(...)/c hold
# to machine precision; the product equals the published 197.3269804 at
# its printed 10 digits.
HBAR_MEV_S = 6.582119569e-22
C_FM_PER_S = 2.99792458e23
HBAR_C_MEV_FM = HBAR_MEV_S * C_FM_PER_S

ELECTRON_REST_MEV = 0.510998950

METERS_PER_FM = 1.0e-15

# (E - V)^2 counts as the turning value (m0 c^2)^2 when they differ by at
# most this * E^2; constant_rates refuses a constant potential in the band.
TURNING_TOL_FACTOR = 1.0e-12


def m_to_fm(x_m: float) -> float:
    """Convert a length from metres to femtometres."""
    return x_m / METERS_PER_FM


class RegionClass(enum.Enum):
    ALLOWED = "allowed"
    FORBIDDEN = "forbidden"


@dataclass(frozen=True)
class Species:
    """Particle species, identified by its rest energy m0 c^2 in MeV."""

    rest_energy: float

    def __post_init__(self):
        if self.rest_energy < 0:
            raise ValueError("rest energy must be >= 0")

    @property
    def is_photon(self) -> bool:
        return self.rest_energy == 0.0

    @classmethod
    def electron(cls) -> "Species":
        return cls(rest_energy=ELECTRON_REST_MEV)

    @classmethod
    def photon(cls) -> "Species":
        return cls(rest_energy=0.0)


@dataclass(frozen=True)
class Potential:
    """Constant (V = U0, g = 0) or linear (V = g x, U0 = 0) external potential."""

    u0: float = 0.0  # MeV, constant case
    g: float = 0.0   # MeV / fm, linear case

    def __post_init__(self):
        if not (math.isfinite(self.u0) and math.isfinite(self.g)):
            raise ValueError("potential parameters must be finite")
        if self.u0 != 0.0 and self.g != 0.0:
            raise ValueError("a potential is constant (u0) or linear (g), not both")

    @classmethod
    def constant(cls, u0: float = 0.0) -> "Potential":
        return cls(u0=u0)

    @classmethod
    def linear(cls, g: float) -> "Potential":
        if g == 0.0:
            raise ValueError("linear potential needs a nonzero slope")
        return cls(g=g)

    @property
    def is_constant(self) -> bool:
        return self.g == 0.0

    @property
    def kind(self) -> str:
        return "constant" if self.is_constant else "linear"

    # V and V' of a float or array x: "+ 0.0 * x" gives a constant the shape of x
    def value(self, x):
        return self.u0 + 0.0 * x if self.is_constant else self.g * x

    def derivative(self, x):
        return (0.0 if self.is_constant else self.g) + 0.0 * x


@dataclass(frozen=True)
class Scenario:
    """Species + potential + total energy (rest energy included)."""

    species: Species
    potential: Potential
    energy: float                 # MeV, total
    hbar_scale: float = 1.0       # dimensionless epsilon in (0, 1]

    def __post_init__(self):
        if not (math.isfinite(self.energy) and self.energy > 0):
            raise ValueError("total energy must be positive and finite")
        if not (0.0 < self.hbar_scale <= 1.0):
            raise ValueError("hbar_scale must lie in (0, 1]")

    # Effective constants: every hbar in the formulation carries the scale
    # factor; c does not.
    @property
    def hbar(self) -> float:
        return HBAR_MEV_S * self.hbar_scale

    @property
    def hbar_c(self) -> float:
        return HBAR_C_MEV_FM * self.hbar_scale

    @property
    def c(self) -> float:
        return C_FM_PER_S

    @property
    def rest_energy(self) -> float:
        return self.species.rest_energy

    def with_hbar_scale(self, eps: float) -> "Scenario":
        return replace(self, hbar_scale=eps)


def turning_points(s: Scenario) -> list[float]:
    """(E -+ m0 c^2) / g, where E - V = +-m0 c^2, sorted; [] on a constant potential."""
    if s.potential.is_constant:
        return []
    g = s.potential.g
    return sorted([(s.energy - s.rest_energy) / g, (s.energy + s.rest_energy) / g])


def local_rates(s: Scenario, x):
    """u = E - V(x) and q2 = u^2 - m0^2 c^4 (MeV^2) at a float or an array x.

    q2 sets the wavenumber sqrt(|q2|) / (hbar c), the Klein-Gordon
    coefficient -q2 / (hbar c)^2 and the classical momentum sqrt(q2) / c;
    it is positive in an allowed region and negative in a forbidden one.
    """
    u = s.energy - s.potential.value(x)
    return u, u * u - s.rest_energy**2


def kinetic_factor(s: Scenario, x) -> float:
    """(E - V) - m0^2 c^4 / (E - V), the bracketed velocity factor.

    Vanishes at turning points; for a photon it reduces to E - V.
    """
    u = s.energy - s.potential.value(x)
    if np.any(u == 0.0):
        raise SingularEnergyError("E - V(x) = 0 inside evaluation range")
    return u - s.rest_energy**2 / u


@dataclass(frozen=True)
class ConstantRates:
    """Closed-form rates of a constant potential.

    u = E - U0 and q2 = u^2 - m0^2 c^4 (MeV^2); k is the wavenumber
    sqrt(|q2|) / (hbar c) in 1/fm (kappa in a forbidden region) and omega
    the time rate of the closed-form trajectories in 1/s.
    """

    u: float
    q2: float
    k: float
    omega: float
    region: RegionClass


def constant_rates(s: Scenario, region: RegionClass | None = None) -> ConstantRates:
    """u, q2, k, omega and the region of a constant-potential scenario.

    Raises SingularEnergyError at E = U0, DegenerateBasisError inside the
    turning-energy band, and DomainError when ``region`` is given and the
    scenario lies in the other one.  omega is q2 / (hbar |u|) for a massive
    particle in an allowed region, |u| / hbar for the photon (m0 = 0), and
    -q2 / (hbar u) in a forbidden region, where its sign follows E - U0.
    """
    if not s.potential.is_constant:
        raise ValueError("closed forms need a constant potential")
    u, q2 = local_rates(s, 0.0)
    if u == 0.0:
        raise SingularEnergyError("E = U0")
    if abs(q2) <= TURNING_TOL_FACTOR * s.energy**2:
        raise DegenerateBasisError("turning energy: (E - U0)^2 = m0^2 c^4, closed forms degenerate")
    found = RegionClass.ALLOWED if q2 > 0 else RegionClass.FORBIDDEN
    if region is not None and found is not region:
        raise DomainError(f"the scenario lies in the {found.value} region, not the {region.value} one")
    if found is RegionClass.FORBIDDEN:
        omega = -q2 / (s.hbar * u)
    elif s.species.is_photon:
        omega = abs(u) / s.hbar
    else:
        omega = q2 / (s.hbar * abs(u))
    return ConstantRates(u=u, q2=q2, k=math.sqrt(abs(q2)) / s.hbar_c, omega=omega, region=found)


# ---------------------------------------------------------------------------
# CSV output.

def scenario_header(s: Scenario) -> list[str]:
    """Header lines echoing every scenario field, for ``write_csv``."""
    return [
        f"species_rest_mev = {s.rest_energy!r}",
        f"energy_mev = {s.energy!r}",
        f"potential = {s.potential.kind}",
        f"u0_mev = {s.potential.u0!r}",
        f"g_mev_per_fm = {s.potential.g!r}",
        f"hbar_scale = {s.hbar_scale!r}",
    ]


# A column is written as rows of little-endian words, and the NUL bytes are dropped from
# the body: a float is [sep '-' d '.'] [dddd] x 3 ['e' sign d d], an int [sep 0 0 '-'] [dddd]
# x 3, with the sign NUL for a value >= 0 and an int's leading zeros NUL.  The tables are
# built in numpy as uint32 words, so a field takes its words without a cast.
_D = np.arange(100, dtype=np.uint32)
_ASCII2 = 0x3030 + _D // 10 + (_D % 10 << 8)  # "00" to "99"
_TRIM2 = _ASCII2 & np.where(_D >= 10, 0xFFFF, np.where(_D >= 1, 0xFF00, 0))  # leading zeros NUL
_ASCII4 = (_ASCII2[:, None] | _ASCII2 << 16).ravel().astype("<u4")  # "0000" to "9999"
_TRIM4 = np.where(_D[:, None] > 0, _TRIM2[:, None] | _ASCII2 << 16,
                  _TRIM2 << 16).ravel().astype("<u4")  # _ASCII4 with leading zeros NUL
_E = np.arange(-100, 100)
# ",d." at index d, ",-d." at 100 + d
_LEAD = (0x2E30002C + (_E % 100 << 16) + (_E >= 0) * 0x2D00).astype("<u4")
_EXP = (0x2B65 + (_E < 0) * 0x200 + (_ASCII2[abs(_E) % 100] << 16)).astype("<u4")  # "e+00"
# 10^(12 - e), correctly rounded: numpy parses each from its text "1e<12 - e>"
_POW10 = np.array(("1e%d " * len(_E) % tuple(12 - _E)).split(), dtype=float)


def _fallback(words, values, bad, spec):
    """Python's % of the values in the rows marked bad, one % for all, after their separators."""
    rows = bad.nonzero()[0]
    if len(rows):
        fit, todo = 4 * words.shape[1] - 1, tuple(values[rows].tolist())
        text = (f"%-{fit}{spec}" * len(rows) % todo).encode()
        if len(text) > fit * len(rows):  # a text longer than the field: six words hold any
            words, fit = np.pad(words, ((0, 0), (0, 6 - words.shape[1]))), 23
            text = (f"%-23{spec}" * len(rows) % todo).encode()
        text = np.frombuffer(text.replace(b" ", b"\0"), np.uint8)
        words.view(np.uint8)[rows, 1:] = text.reshape(len(rows), fit)
    return words


def _groups(n):
    """n // 10^12 and the three 4-digit groups below it, of int64s n < 10^14."""
    hi = n // 10**8
    lo = n - hi * 10**8
    top, mid = hi // 10**4, lo // 10**4
    return top, hi - top * 10**4, mid, lo - mid * 10**4


def _int_field(col):
    """%d of each value; by Python's % when |n| >= 10^12."""
    small = (col > -10**12) & (col < 10**12)
    n = np.abs(np.where(small, col, 0)).astype(np.int64)
    words = np.empty((len(n), 4), "<u4")
    words[:, 0] = np.where(col < 0, np.uint32(0x2D00002C), np.uint32(0x2C))
    _, g1, g2, g3 = _groups(n)
    words[:, 1] = _TRIM4[g1]
    words[:, 2] = np.where(n >= 10**8, _ASCII4[g2], _TRIM4[g2])
    words[:, 3] = np.where(n >= 10**4, _ASCII4[g3], _TRIM4[g3])
    words[n == 0, 3] = 0x30000000
    return _fallback(words, col, ~small, "d")


def _float_field(col):
    """%.12e of each value: its 13 digits are rint(|x| 10^(12 - e)), e = floor(log10 |x|).

    m = |x| 10^(12 - e) is within 3e-3 of exact after two roundings, so Python's % takes
    an m within 1e-2 of a half-integer or outside [1e12, 1e13 - 1), and |x| outside
    [1e-99, 1e99): zero, NaN and the infinities among them.
    """
    x = np.asarray(col, dtype=np.float64)
    a = np.abs(x)
    fine = (a >= 1e-99) & (a < 1e99)
    a = np.where(fine, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64) + 100
    m = a * _POW10[e]
    r = np.rint(m)
    ok = fine & (m >= 1e12) & (m < 1e13 - 1) & (np.abs(m - r) < 0.49)
    top, g1, g2, g3 = _groups(r.astype(np.int64))
    words = np.empty((len(x), 5), "<u4")
    words[:, 0] = _LEAD[top + 100 * (x < 0)]
    words[:, 1], words[:, 2], words[:, 3] = _ASCII4[g1], _ASCII4[g2], _ASCII4[g3]
    words[:, 4] = _EXP[e]
    return _fallback(words, x, ~ok, ".12e")


def write_csv(path: str | Path, header: Iterable[str], columns) -> Path:
    """Write '# ' header lines, then one line per row of the equal-length 1-D columns.

    An integer-dtype column is written %d, any other, as float64, %.12e (13 significant
    digits), so identical inputs give byte-identical files.  The parent directory is made
    if missing, and the header and body go out in one write.
    """
    cols = [np.asarray(c) for c in columns]
    if len({c.shape for c in cols}) > 1 or any(c.ndim != 1 for c in cols):
        raise ValueError("write_csv takes equal-length 1-D columns")
    ints = [c.dtype.kind in "iu" for c in cols]
    floats = [c for c, i in zip(cols, ints) if not i]
    if floats:  # one _float_field for all of them, read row after row
        fwords = _float_field(np.stack(floats, axis=1).ravel())
        floats = iter(fwords.reshape(len(cols[0]), len(floats), fwords.shape[1]).transpose(1, 0, 2))
    fields = [_int_field(c) if i else next(floats) for c, i in zip(cols, ints)]
    words = np.concatenate(fields, axis=1) if fields else np.empty((0, 1), "<u4")
    words.view(np.uint8)[:, 0] = 10  # a newline, not a comma, before the first column
    body = words.tobytes().translate(None, b"\0")
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    head = "".join(f"# {line}\n" for line in header).encode()
    p.write_bytes(b"".join((head, memoryview(body)[1:], body[:1])))
    return p


# ---------------------------------------------------------------------------
# Flat key = value configuration files.

CONFIG_KEYS = (
    "species",
    "energy_mev",
    "potential",
    "u0_mev",
    "g_mev_per_fm",
    "hbar_scale",
)


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks ignored, a repeated key refused."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ValueError(f"config line {lineno}: {key!r} given twice")
        out[key] = value
    return out


def load_config(path: str | Path) -> dict[str, str]:
    return parse_config_text(Path(path).read_text())


def scenario_from_config(cfg: Mapping[str, str]) -> Scenario:
    """Build a Scenario from a parsed configuration mapping."""
    unknown = set(cfg) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    species_name = cfg.get("species", "electron").lower()
    if species_name == "electron":
        species = Species.electron()
    elif species_name == "photon":
        species = Species.photon()
    else:
        raise ValueError(f"unknown species {species_name!r} (electron or photon)")

    pot_name = cfg.get("potential", "constant").lower()
    stray = {"constant": "g_mev_per_fm", "linear": "u0_mev"}.get(pot_name)
    if stray in cfg:
        raise ValueError(f"a {pot_name} potential does not read {stray}")
    if pot_name == "constant":
        potential = Potential.constant(u0=float(cfg.get("u0_mev", "0")))
    elif pot_name == "linear":
        potential = Potential.linear(g=float(cfg.get("g_mev_per_fm", "0.25")))
    else:
        raise ValueError(f"unknown potential {pot_name!r} (constant or linear)")

    return Scenario(
        species=species,
        potential=potential,
        energy=float(cfg.get("energy_mev", "2")),
        hbar_scale=float(cfg.get("hbar_scale", "1")),
    )
