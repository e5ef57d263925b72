"""Klein-Gordon basis solutions phi1, phi2 with derivatives and Wronskian.

The stationary equation in the internal units reads

    phi'' = [m0^2 c^4 - (E - V(x))^2] / (hbar c)^2 * phi,

so constant potentials have sin/cos (allowed, and photons in both sign
cases) or sinh/cosh (massive forbidden) bases in closed form, and general
potentials are integrated with a fixed-step scheme: the fourth-order
Magnus method by default (at DEFAULT_STEP), RK4 and Euler on request.
Each step of any scheme is one 2x2 matrix on (phi, phi'), shared by both
solutions; the grid is chained by a blocked prefix product of these
matrices.  Between grid points a numeric basis is read through one
quintic Hermite interpolant on the stored (phi, phi', phi'' = w phi),
which also gives phi' and the phi2 roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DegenerateBasisError, DomainError, IntegrationOverflowError
from .scenario import RegionClass, Scenario, constant_rates, scenario_header, write_csv

# Wronskian drift a numeric basis is allowed before it counts as broken
# (the kg-solve gate).
DRIFT_TOL_NUMERIC = 1.0e-5

# Integration schemes of kg_solve_numeric, and its default scheme and step
# (fm).  At 1e-2 fm the Magnus basis of figure 4 holds every node to 1e-10
# fm of the parabolic-cylinder oracle, and its time of flight to 1.2e-10
# node spacings; at 2e-2 fm the time of flight already reads 7.6e-9.
METHODS = ("magnus4", "rk4", "euler")
DEFAULT_METHOD = "magnus4"
DEFAULT_STEP = 1.0e-2


def _omega_sq(s: Scenario, x):
    """Coefficient w(x) in phi'' = w(x) phi (units 1/fm^2)."""
    u = s.energy - s.potential.value(x)
    return (s.rest_energy**2 - u * u) / s.hbar_c**2


def local_wavenumber(s: Scenario, x: float) -> float:
    """|k| (allowed) or |kappa| (forbidden) at x, in 1/fm."""
    return math.sqrt(abs(_omega_sq(s, x)))


@dataclass
class BasisSource:
    kind: str                  # "closed-form" or "numeric"
    method: str | None = None  # one of METHODS
    step: float | None = None  # fm

    def describe(self) -> str:
        if self.kind == "closed-form":
            return "closed-form"
        return f"numeric:{self.method}:step={self.step:g}"


class KgBasis:
    """Two independent solutions of the Klein-Gordon equation.

    Closed-form bases hold exact evaluators; numeric bases hold grid
    samples of phi and phi', read between grid points through the quintic
    Hermite interpolant on phi, phi' and phi'' = w phi (dense output,
    Hairer, Norsett & Wanner, Solving ODEs I, II.6).  phi is O(h^6) there
    and phi' is the quintic's derivative; at a grid point both are the
    samples.  Instances are immutable by convention and safe to share
    across threads.
    """

    def __init__(
        self,
        scenario: Scenario,
        x_min: float,
        x_max: float,
        wronskian: float,
        source: BasisSource,
        evaluators: tuple[Callable, Callable, Callable, Callable] | None = None,
        samples: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
        analytic_phi2_zeros: Callable[[float, float], np.ndarray] | None = None,
    ):
        if x_max <= x_min:
            raise ValueError("x_max must exceed x_min")
        self.scenario = scenario
        self.x_min = float(x_min)
        self.x_max = float(x_max)
        self.wronskian = float(wronskian)
        self.source = source
        self._evaluators = evaluators
        self._samples = samples
        # w at the grid points, for phi'' = w phi in the interpolant
        self._w = None if samples is None else _omega_sq(scenario, samples[0])
        self._analytic_zeros = analytic_phi2_zeros
        self._zeros_cache: np.ndarray | None = None
        if self.wronskian == 0.0:
            raise DegenerateBasisError("basis Wronskian vanishes")

    # -- evaluation -------------------------------------------------------

    @property
    def is_closed_form(self) -> bool:
        return self._evaluators is not None

    @property
    def grid(self) -> np.ndarray:
        if self._samples is None:
            raise DomainError("closed-form basis carries no sample grid")
        return self._samples[0]

    def _quintic(self, cell):
        """Per-cell terms (y0, y1, g0, g1, c0, c1) of the quintic, for phi1 then phi2.

        The quintic matches phi, phi' and phi'' = w phi at both cell ends.
        With t = (x - x_cell) / h and s = 1 - t it is the chord s y0 + t y1
        plus t s Q(t), a cubic departure with end values g0, -g1 and slopes
        g0 + a0/2, g1 - a1/2 (a = h^2 phi'' at the ends), written the same
        way: s y0 + t y1 + t s ((s g0 - t g1) + t s (s c0 - t c1)).
        """
        xs, p1, p2, d1, d2 = self._samples
        right = cell + 1
        h = xs[right] - xs[cell]
        hw0, hw1 = h * self._w[cell], h * self._w[right]
        out = []
        for y, dy in ((p1, d1), (p2, d2)):
            y0, y1 = y[cell], y[right]
            rise = y1 - y0
            g0, g1 = h * dy[cell] - rise, h * dy[right] - rise
            out.append((y0, y1, g0, g1, 2.0 * g0 + g1 + 0.5 * h * hw0 * y0,
                        g0 + 2.0 * g1 - 0.5 * h * hw1 * y1))
        return out

    def _hermite(self, x, cell, derivative: bool = False):
        """(phi1, phi2) at x, or their derivatives, inside the given grid cells.

        The quintic of _quintic: O(h^6) in phi, O(h^5) in phi', and exactly
        the samples at a grid point.  The per-cell terms broadcast against
        x, so a cell index per column serves several points per cell.
        """
        xs, p1, p2, d1, d2 = self._samples
        right, left_x = cell + 1, xs[cell]
        h = xs[right] - left_x
        t = (x - left_x) / h
        s = 1.0 - t
        ts = t * s
        if not derivative:
            return tuple(s * y0 + t * y1 + ts * ((s * g0 - t * g1) + ts * (s * c0 - t * c1))
                         for y0, y1, g0, g1, c0, c1 in self._quintic(cell))
        hw0, hw1 = h * self._w[cell], h * self._w[right]
        out = []
        for y, dy in ((p1, d1), (p2, d2)):
            y0, y1, dy0, dy1 = y[cell], y[right], dy[cell], dy[right]
            # the weights of dy0 and dy1 are 1 and 0 at t = 0, 0 and 1 at t = 1
            out.append(s * s * (1.0 + 2.0 * t - 15.0 * t * t) * dy0
                       + t * t * (1.0 + 2.0 * s - 15.0 * s * s) * dy1
                       + ts * (30.0 * ts * (y1 - y0) / h
                               + 0.5 * (s * (2.0 - 5.0 * t) * hw0 * y0
                                        + t * (3.0 * s - 2.0 * t) * hw1 * y1)))
        return tuple(out)

    def _read(self, x, derivative: bool = False):
        """_hermite on the grid cell holding each x; the last cell holds x_max."""
        xs = self._samples[0]
        cell = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
        return self._hermite(x, cell, derivative)

    def phi1(self, x):
        return self._evaluators[0](x) if self.is_closed_form else self._read(x)[0]

    def phi2(self, x):
        return self._evaluators[1](x) if self.is_closed_form else self._read(x)[1]

    def dphi1(self, x):
        return self._evaluators[2](x) if self.is_closed_form else self._read(x, True)[0]

    def dphi2(self, x):
        return self._evaluators[3](x) if self.is_closed_form else self._read(x, True)[1]

    def phi12_in_cells(self, x, cell):
        """(phi1, phi2) at x, given the index of the grid point at or left of x.

        The same quintic as phi1 / phi2, without the binary search; cell may
        have fewer dimensions than x and broadcast against it.
        """
        return self._hermite(x, cell)

    def phi12_at_fractions(self, t, cell):
        """(phi1, phi2) at the cell fractions t of each given grid cell.

        One row per fraction, one column per cell.  With t fixed the quintic
        is a fixed weighting of each cell's six terms (see _quintic), so the
        read is one (len(t) x 6) @ (6 x cells) product per basis solution,
        and no fraction is rounded back from an absolute position.
        """
        t = np.asarray(t, dtype=float)
        s = 1.0 - t
        ts = t * s
        weights = np.stack([s, t, ts * s, -ts * t, ts * ts * s, -ts * ts * t], axis=1)
        return tuple(weights @ np.array(self._quintic(cell)))

    # -- phi2 roots -------------------------------------------------------

    def phi2_zeros(self, lo: float | None = None, hi: float | None = None) -> np.ndarray:
        """All zeros of phi2 in [lo, hi] (defaults to the full domain)."""
        lo = self.x_min if lo is None else lo
        hi = self.x_max if hi is None else hi
        if self._analytic_zeros is not None:
            # closed forms extend beyond the nominal domain
            return np.asarray(self._analytic_zeros(lo, hi), dtype=float)
        if self._zeros_cache is None:
            self._zeros_cache = self._compute_zeros()
        z = self._zeros_cache
        return z[(z >= lo) & (z <= hi)]

    def _compute_zeros(self) -> np.ndarray:
        """The quintic's root in each cell where phi2 changes sign."""
        xs, _, p2 = self._samples[:3]
        j = np.flatnonzero(p2[:-1] * p2[1:] < 0.0)
        lo, hi = xs[j], xs[j + 1]
        x = lo + p2[j] / (p2[j] - p2[j + 1]) * (hi - lo)
        for _ in range(3):  # Newton: two steps reach rounding level on grids nodes_numeric takes
            step = self._hermite(x, j)[1] / self._hermite(x, j, derivative=True)[1]
            x = np.clip(x - step, lo, hi)
        return np.sort(np.concatenate([xs[p2 == 0.0], x]))


# ---------------------------------------------------------------------------
# Closed-form constant-potential bases.

def kg_closed_constant(
    s: Scenario, x_min: float | None = None, x_max: float | None = None
) -> KgBasis:
    """Exact basis for a constant potential.

    Allowed region (and photons for either sign of E - U0):
    phi1 = sin(kx), phi2 = cos(kx); massive forbidden region:
    phi1 = sinh(kx), phi2 = cosh(kx).  W = k in both cases.
    """
    r = constant_rates(s)
    k = r.k
    allowed = r.region is RegionClass.ALLOWED
    # (sin, cos) and phi2' = -k sin(kx) when allowed, else (sinh, cosh) and +k sinh(kx)
    sn, cs, dk = (np.sin, np.cos, -k) if allowed else (np.sinh, np.cosh, k)
    kx = lambda x: k * np.asarray(x, dtype=float)
    ev = (lambda x: sn(kx(x)), lambda x: cs(kx(x)),
          lambda x: k * cs(kx(x)), lambda x: dk * sn(kx(x)))

    def zeros(lo, hi):
        if not allowed:
            return np.array([])  # cosh has no real zeros
        # cos(kx) = 0 at x = (m + 1/2) pi / k
        m_lo = math.ceil(lo * k / math.pi - 0.5)
        m_hi = math.floor(hi * k / math.pi - 0.5)
        return (np.arange(m_lo, m_hi + 1) + 0.5) * math.pi / k

    if x_min is None or x_max is None:
        # trig: eight oscillations; hyperbolic: a few decay lengths (beyond
        # ~8/kappa the cosh^2 - sinh^2 cancellation eats the mantissa)
        half_span = 8.0 * math.pi / k if allowed else 6.0 / k
        x_min = -half_span if x_min is None else x_min
        x_max = half_span if x_max is None else x_max
    return KgBasis(
        scenario=s,
        x_min=x_min,
        x_max=x_max,
        wronskian=k,
        source=BasisSource(kind="closed-form"),
        evaluators=ev,
        analytic_phi2_zeros=zeros,
    )


# ---------------------------------------------------------------------------
# Fixed-step numeric integration.

def _rk4_matrix(w1, w2, w3, h):
    """One RK4 step of (phi, phi') under phi'' = w phi, as entries of M - I.

    RK4 is linear in the state, so a step is one 2x2 matrix M shared by both
    basis solutions; w1, w2, w3 are w at the step's start, midpoint and end.
    The entries (m11 - 1, m12, m21, m22 - 1) are returned so the O(h^2)
    parts keep their own precision rather than being rounded against 1.
    Every argument may be an array, giving the matrices of many steps.
    """
    hh = h * h
    e11 = hh / 6.0 * (w1 + 2.0 * w2 + hh / 4.0 * w1 * w2)
    m12 = h * (1.0 + hh / 6.0 * w2)
    m21 = h / 6.0 * (w1 + 4.0 * w2 + w3 + hh / 2.0 * w2 * (w1 + w3))
    e22 = hh / 6.0 * (2.0 * w2 + w3 + hh / 4.0 * w2 * w3)
    return e11, m12, m21, e22


# Gauss-Legendre nodes of a Magnus step, as fractions of it
_MAGNUS_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
# Taylor coefficients in delta of cosh(sqrt(delta)) - 1 (1/(2k)!, k >= 1) and
# of sinh(sqrt(delta)) / sqrt(delta) (1/(2k+1)!, k >= 0), highest first.  Up
# to |delta| = _SERIES_MAX the first omitted terms are below 1e-17 relative.
_COSH_M1 = [1.0 / math.factorial(2 * k) for k in range(5, 0, -1)]
_SINHC = [1.0 / math.factorial(2 * k + 1) for k in range(4, -1, -1)]
_SERIES_MAX = 1.0e-2


def _magnus4_matrix(w1, w2, h):
    """One fourth-order Magnus step under phi'' = w phi, as entries of M - I.

    With A = [[0, 1], [w, 0]] at the two Gauss points of the step (w1, w2),
    Omega = h/2 (A1 + A2) + (sqrt(3) h^2 / 12) [A2, A1]
          = [[c, h], [h (w1 + w2) / 2, -c]],  c = sqrt(3) h^2 (w1 - w2) / 12,
    and Omega^2 = delta I with delta = c^2 + h^2 (w1 + w2) / 2, so that
    M = exp(Omega) = cosh(sqrt(delta)) I + sinh(sqrt(delta)) / sqrt(delta) Omega
    exactly (cos / sin of sqrt(-delta) for delta < 0); Iserles, BIT 42 (2002)
    561, and Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151.  Both
    factors are entire in delta: a Taylor series gives them at small |delta|
    (all of figure 4 has |delta| < 5e-3), and cosh r - 1 = 2 sinh^2(r/2) and
    cos r - 1 = -2 sin^2(r/2) beyond, so M - I keeps its full precision.
    """
    c = math.sqrt(3.0) / 12.0 * h * h * (w1 - w2)
    hw = 0.5 * h * (w1 + w2)
    delta = c * c + h * hw
    cosh_m1, sinhc = np.zeros_like(delta), np.zeros_like(delta)
    for a in _COSH_M1:
        cosh_m1 = (cosh_m1 + a) * delta
    for a in _SINHC:
        sinhc = sinhc * delta + a
    big = np.abs(delta) > _SERIES_MAX
    if big.any():
        d = delta[big]
        r = np.sqrt(np.abs(d))
        grows = d > 0.0
        cosh_m1[big] = np.where(grows, 2.0 * np.sinh(0.5 * r) ** 2, -2.0 * np.sin(0.5 * r) ** 2)
        sinhc[big] = np.where(grows, np.sinh(r), np.sin(r)) / r
    sc = sinhc * c
    return cosh_m1 + sc, sinhc * h, sinhc * hw, cosh_m1 - sc


def _chain(step_matrices, n, y0):
    """States y_0 .. y_n of y_{i+1} = M_i y_i, y = [[phi1, phi2], [dphi1, dphi2]].

    ``step_matrices`` maps an array of step indices to fresh arrays of the
    entries of M - I (see _rk4_matrix and _magnus4_matrix).  A blocked
    prefix product: the n steps form about sqrt(n) blocks of about sqrt(n)
    steps, the last padded with identity steps.  One pass over the positions in a block forms the
    running products of all blocks at once, a short sequential pass carries
    the state across the block starts, and one array product applies the
    running products to the block starts: about sqrt(n) array operations
    instead of n scalar steps.  Products are held as P - I, as a stepping
    loop holds y + dy, so equal steps do not repeat one rounding of 1 + small;
    each state runs from its own block start, so block seams stay smooth.
    """
    size = max(1, math.isqrt(n))
    n_blocks = -(-n // size)
    first = size * np.arange(n_blocks)  # each block's first step
    run = [np.empty((size, n_blocks)) for _ in range(4)]
    q = [np.zeros(n_blocks) for _ in range(4)]
    for j in range(size):
        for e, v in zip(run, q):
            e[j] = v
        a, b, c, d = m = step_matrices(first + j)
        if first[-1] + j >= n:
            for e in m:
                e[-1] = 0.0
        q11, q12, q21, q22 = q
        # (I + E)(I + Q) - I = Q + (E + E Q)
        q = (q11 + (a + (a * q11 + b * q21)), q12 + (b + (a * q12 + b * q22)),
             q21 + (c + (c * q11 + d * q21)), q22 + (d + (c * q12 + d * q22)))
    starts = [y0]
    for t11, t12, t21, t22 in zip(*(e.tolist() for e in q)):
        y11, y12, y21, y22 = starts[-1]
        starts.append((y11 + (t11 * y11 + t12 * y21), y12 + (t11 * y12 + t12 * y22),
                       y21 + (t21 * y11 + t22 * y21), y22 + (t21 * y12 + t22 * y22)))
    f11, f12, f21, f22 = run
    y11, y12, y21, y22 = (np.array(e) for e in zip(*starts))
    out = []
    blocks = ((f11, y11, f12, y21), (f11, y12, f12, y22),
              (f21, y11, f22, y21), (f21, y12, f22, y22))
    for (fa, ya, fb, yb), y, last in zip(blocks, (y11, y12, y21, y22), starts[-1]):
        o = np.empty(n_blocks * size + 1)
        o[:-1].reshape(n_blocks, size)[:] = (y[:-1] + (fa * ya[:-1] + fb * yb[:-1])).T
        o[-1] = last
        out.append(o[:n + 1])
    return out


def kg_solve_numeric(
    s: Scenario,
    x_min: float,
    x_max: float,
    step: float = DEFAULT_STEP,
    method: str = DEFAULT_METHOD,
) -> KgBasis:
    """Integrate the Klein-Gordon equation on a fixed grid.

    ``method`` is one of METHODS: "magnus4" (the default; exact on a
    constant potential, fourth order otherwise, with w at the two Gauss
    points of each step), "rk4" (w at the start, middle and end) or
    "euler" (first order, w at the start).  The basis is read between grid
    points through the quintic Hermite interpolant (KgBasis).

    Initial conditions at x_min: phi1 = 0, phi1' = k0 and phi2 = 1,
    phi2' = 0, with k0 = max(local |k|, 1/(x_max - x_min)) so the two
    solutions stay comparable in magnitude and W = k0 is well scaled.
    Any independent pair is admissible; (a, b) reparameterizes the family.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if x_max <= x_min:
        raise ValueError("x_max must exceed x_min")
    method = method.lower()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r} ({', '.join(METHODS)})")

    n_steps = max(int(round((x_max - x_min) / step)), 1)
    xs = x_min + step * np.arange(n_steps + 1)

    k0 = max(local_wavenumber(s, x_min), 1.0 / (x_max - x_min))

    # Every step is one 2x2 matrix; _chain builds them a block position at a time.
    h = step

    def matrices(i):
        x = x_min + h * i
        if method == "magnus4":
            return _magnus4_matrix(*(_omega_sq(s, x + f * h) for f in _MAGNUS_NODES), h)
        w1 = _omega_sq(s, x)
        if method == "euler":
            return np.zeros(i.shape), np.full(i.shape, h), h * w1, np.zeros(i.shape)
        return _rk4_matrix(w1, _omega_sq(s, x + 0.5 * h), _omega_sq(s, x_min + h * (i + 1)), h)

    with np.errstate(over="ignore", invalid="ignore"):
        p1, p2, d1, d2 = _chain(matrices, n_steps, (0.0, 1.0, k0, 0.0))
    bad = ~(np.isfinite(p1) & np.isfinite(p2))
    if bad.any():
        x_bad = float(xs[np.argmax(bad)])
        raise IntegrationOverflowError(f"integration overflowed at x = {x_bad:.6g} fm", x=x_bad)

    return KgBasis(
        scenario=s,
        x_min=float(xs[0]),
        x_max=float(xs[-1]),
        wronskian=k0,
        source=BasisSource(kind="numeric", method=method, step=step),
        samples=(xs, p1, p2, d1, d2),
    )


# ---------------------------------------------------------------------------
# Quality metrics.

def wronskian_drift(basis: KgBasis, n_probe: int = 512) -> float:
    """max |W(x) - W(x_ref)| / |W(x_ref)| over the domain.

    For the Klein-Gordon equation (no first-derivative term) W is exactly
    constant, so any drift measures integration error.
    """
    if basis.is_closed_form:
        xs = np.linspace(basis.x_min, basis.x_max, n_probe)
        w = basis.dphi1(xs) * basis.phi2(xs) - basis.phi1(xs) * basis.dphi2(xs)
    else:
        xs, p1, p2, d1, d2 = basis._samples
        if len(xs) < 2:
            raise ValueError("need at least 2 sample points")
        w = d1 * p2 - p1 * d2
    w_ref = w[0]
    return float(np.max(np.abs(w - w_ref)) / abs(w_ref))


def kg_fd_residual(basis: KgBasis, edge_margin: int = 4) -> float:
    """Klein-Gordon residual of the sampled phi2 via 5-point differences.

    Returns max over interior grid points of |(hbar c)^2 phi'' -
    [m0^2 c^4 - (E-V)^2] phi|, normalized by the largest term magnitude
    over the window.  The normalization is global because both terms
    vanish together at a turning point, where a pointwise ratio would
    only compare difference noise against itself.
    """
    if basis.is_closed_form:
        xs = np.linspace(basis.x_min, basis.x_max, 4097)
        phi = np.asarray(basis.phi2(xs), dtype=float)
        h = xs[1] - xs[0]
    else:
        xs = basis._samples[0]
        phi = basis._samples[2]
        h = float(xs[1] - xs[0])
    if len(xs) < 2 * edge_margin + 5:
        raise ValueError("too few samples for the residual stencil")
    # 5-point second derivative, O(h^4)
    d2 = (-phi[4:] + 16 * phi[3:-1] - 30 * phi[2:-2] + 16 * phi[1:-3] - phi[:-4]) / (
        12.0 * h * h
    )
    xin = xs[2:-2]
    s = basis.scenario
    lhs = s.hbar_c**2 * d2
    rhs = (s.rest_energy**2 - (s.energy - s.potential.value(xin)) ** 2) * phi[2:-2]
    core = slice(edge_margin, -edge_margin if edge_margin else None)
    scale = float(np.max(np.maximum(np.abs(lhs[core]), np.abs(rhs[core]))))
    return float(np.max(np.abs(lhs[core] - rhs[core])) / scale)


def write_basis_csv(basis: KgBasis, path: str | Path, n_points: int = 1001) -> Path:
    """Dump sampled basis values; header comments carry the scenario."""
    if basis.is_closed_form:
        xs = np.linspace(basis.x_min, basis.x_max, n_points)
    else:
        xs = basis._samples[0]
        if len(xs) > n_points:
            stride = max(1, len(xs) // n_points)
            xs = xs[::stride]
    header = ["rqtlab klein-gordon basis", *scenario_header(basis.scenario),
              f"source = {basis.source.describe()}",
              f"wronskian_per_fm = {basis.wronskian!r}",
              "columns: x_fm, phi1, phi2, dphi1, dphi2"]
    cols = (basis.phi1(xs), basis.phi2(xs), basis.dphi1(xs), basis.dphi2(xs))
    return write_csv(path, header, zip(*(np.asarray(c, dtype=float).tolist() for c in (xs, *cols))))
