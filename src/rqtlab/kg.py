"""Klein-Gordon basis solutions phi1, phi2 with derivatives and Wronskian.

The stationary equation in the internal units reads

    phi'' = [m0^2 c^4 - (E - V(x))^2] / (hbar c)^2 * phi,

so constant potentials have sin/cos (allowed, and photons in both sign
cases) or sinh/cosh (massive forbidden) bases in closed form, and general
potentials are integrated with a fixed-step scheme: the sixth-order
Magnus method by default (at DEFAULT_STEP), RK4 and Euler on request.
Each step of any scheme is one 2x2 matrix on (phi, phi'), shared by both
solutions; the grid is chained by a blocked prefix product of these
matrices.  Between grid points a numeric basis is read through one
septic Hermite interpolant: a fixed linear map of the per-point jets
(phi, h phi', h^2 w phi, h^3 (w' phi + w phi')) at a cell's two ends,
which serves fraction, pointwise, slope and phi2 root reads alike.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import DegenerateBasisError, DomainError, IntegrationOverflowError
from .scenario import (RegionClass, Scenario, constant_rates, local_rates, scenario_header,
                       turning_points, write_csv)

# Wronskian drift a numeric basis is allowed before it counts as broken
# (the kg-solve gate).
DRIFT_TOL_NUMERIC = 1.0e-5

# The fixed sampling of the two quality metrics: wronskian_drift reads a
# closed form (exact W up to rounding) at DRIFT_PROBES points, and
# kg_fd_residual grades the interior, FD_EDGE_MARGIN stencil centres in.
DRIFT_PROBES = 512
FD_EDGE_MARGIN = 4

# Default linear-potential window: its left end, and how far the numeric
# basis runs past the turning point (both fm), so that the septic reader
# and the phi2 roots are defined right up to the turning point.
LINEAR_X_MIN = -400.0
TURNING_MARGIN = 2.0

# Integration schemes of kg_solve_numeric, and its default scheme and step
# (fm).  At 2e-2 fm the sixth-order Magnus basis of figure 4 holds every
# node to 3e-11 fm of the parabolic-cylinder oracle, and its time of
# flight to 5.4e-13 node spacings; a fourth-order Magnus step put the nodes
# 1.4e-9 fm off at this step.
METHODS = ("magnus6", "rk4", "euler")
DEFAULT_METHOD = "magnus6"
DEFAULT_STEP = 2.0e-2

# Most steps kg_solve_numeric takes: a basis of five such arrays, 0.4 GB, built at 1.1 times that.
MAX_STEPS = 10**7

# write_basis_csv thins a numeric grid longer than this to every
# len // BASIS_CSV_POINTS-th sample.
BASIS_CSV_POINTS = 1001


def _omega_sq(s: Scenario, x):
    """Coefficient w(x) = -q2 / (hbar c)^2 in phi'' = w(x) phi (units 1/fm^2).

    q2 / -(hbar c)^2 has the bits of -q2 / (hbar c)^2 and saves negating an array.
    """
    return local_rates(s, x)[1] / -s.hbar_c**2


def _omega_sq_slope(s: Scenario, x):
    """w'(x) = 2 (E - V) V' / (hbar c)^2, the slope of _omega_sq."""
    return 2.0 * (s.energy - s.potential.value(x)) * s.potential.derivative(x) / s.hbar_c**2


def local_wavenumber(s: Scenario, x):
    """|k| (allowed) or |kappa| (forbidden) at x, in 1/fm: a float, or an array for an array x."""
    k = np.sqrt(np.abs(_omega_sq(s, x)))
    return k if np.ndim(k) else float(k)


def _septic_weights(t, derivative: bool = False):
    """Weights of the end jets J0 (first four) and J1 (last four), less the chord, in a septic.

    At the cell fraction t, s = 1 - t, the septic matching phi .. phi''' at
    both ends is the chord s y0 + t y1 plus these weights times the jets
    (KgBasis._jets): the two-point Hermite basis (t^k / k!) s^4
    sum_{j <= 3 - k} C(3 + j, j) t^j, k = 0 .. 3, and its mirror at the right
    end, less s and t on the values (with ``derivative``: their t-slopes,
    less s and t on the slope jets).  Every weight vanishes exactly at t = 0
    and 1, so a grid point reads its sample, and the value weights +-(B0 - t)
    act on the small rise y1 - y0, so a read rounds as the chord does.
    """
    s = 1.0 - t
    t2, s2 = t * t, s * s
    t3, s3 = t * t2, s * s2
    if not derivative:
        t4, s4 = t2 * t2, s2 * s2
        rise = t4 * (1.0 + s * (4.0 + s * (10.0 + 20.0 * s))) - t
        return (-rise, t * s4 * (1.0 + t * (4.0 + 10.0 * t)), 0.5 * t2 * s4 * (1.0 + 4.0 * t),
                t3 * s4 / 6.0, rise, -s * t4 * (1.0 + s * (4.0 + 10.0 * s)),
                0.5 * s2 * t4 * (1.0 + 4.0 * s), -s3 * t4 / 6.0)
    rise = 140.0 * t3 * s3
    return (-rise, s3 * (1.0 + t * (3.0 + t * (6.0 - 70.0 * t))) - s,
            t * s3 * (1.0 + t * (3.0 - 14.0 * t)), t2 * s3 * (3.0 - 7.0 * t) / 6.0,
            rise, t3 * (1.0 + s * (3.0 + s * (6.0 - 70.0 * s))) - t,
            -s * t3 * (1.0 + s * (3.0 - 14.0 * s)), s2 * t3 * (3.0 - 7.0 * s) / 6.0)


class KgBasis:
    """Two independent solutions of the Klein-Gordon equation.

    Without samples, the closed form of a constant potential with
    wavenumber k = ``wronskian``: (sin kx, cos kx) in an allowed region and
    for photons, (sinh kx, cosh kx) in a massive forbidden one, by the
    scenario's region.  A numeric basis holds the grid samples that
    ``method`` took at the nominal ``step`` (both None on a closed form),
    read between grid points through the septic Hermite interpolant
    on the jets (phi, h phi', h^2 phi'', h^3 phi'''), phi'' = w phi and
    phi''' = w' phi + w phi' (dense output, Hairer, Norsett & Wanner,
    Solving ODEs I, II.6): the chord of the end samples plus fixed weights
    of the end jets (_septic_weights).  phi is O(h^8) there and phi' is the
    septic's derivative; at a grid point both are the samples.  Instances
    are immutable by convention and safe to share across threads.
    """

    def __init__(
        self,
        scenario: Scenario,
        x_min: float,
        x_max: float,
        wronskian: float,
        samples: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
        method: str | None = None,
        step: float | None = None,
    ):
        if x_max <= x_min:
            raise ValueError("x_max must exceed x_min")
        self.scenario = scenario
        self.x_min = float(x_min)
        self.x_max = float(x_max)
        self.wronskian = float(wronskian)
        self.method = method
        self.step = step
        self._samples = samples
        self._zeros_cache: np.ndarray | None = None
        if self.wronskian == 0.0:
            raise DegenerateBasisError("basis Wronskian vanishes")
        self._trig = samples is None and constant_rates(scenario).region is RegionClass.ALLOWED

    # -- evaluation -------------------------------------------------------

    @property
    def is_closed_form(self) -> bool:
        return self._samples is None

    @property
    def grid(self) -> np.ndarray:
        if self._samples is None:
            raise DomainError("closed-form basis carries no sample grid")
        return self._samples[0]

    def _jets(self, index):
        """Jets J = (phi, h phi', h^2 phi'', h^3 phi''') at the grid points index.

        One (4, 2, ...) array: jet component, then phi1 and phi2, with
        phi'' = w phi and phi''' = w' phi + w phi'.  h is the nominal step,
        not each cell's xs[i + 1] - xs[i]: the integrator stepped exactly h,
        the stored positions only round it, and one h gives a grid point one
        jet for the cells on both sides, so a run of cells reads one array.
        """
        xs, p1, p2, d1, d2 = self._samples
        h = self.step
        x = xs[index]
        hw, hhdw = (h * h) * _omega_sq(self.scenario, x), h ** 3 * _omega_sq_slope(self.scenario, x)
        y, hdy = np.array([p1[index], p2[index]]), h * np.array([d1[index], d2[index]])
        return np.array([y, hdy, hw * y, hhdw * y + hw * hdy])

    def _hermite(self, x, cell=None, derivative: bool = False, jets=None):
        """(phi1, phi2) at x, or their derivatives, inside the given grid cells.

        The chord of the stored end values (or slopes) plus _septic_weights
        at t = (x - x_cell) / (x_cell+1 - x_cell) times the end jets (over h
        for slopes): O(h^8) in phi, O(h^7) in phi', and exactly the samples
        at a grid point.  Without cell, each x is read in the cell holding
        it (the last cell holds x_max) and an x outside [x_min, x_max] raises
        DomainError; given cells, derived from the grid, are trusted.  cell
        may have fewer dimensions than x and broadcast against it.  ``jets``
        are (_jets(cell), _jets(cell + 1)) for a caller that reads the same
        cells again.
        """
        xs, p1, p2, d1, d2 = self._samples
        if cell is None:
            outside = np.extract(np.logical_not((self.x_min <= x) & (x <= self.x_max)), x)
            if outside.size:
                raise DomainError(f"x = {float(outside[0])} outside basis domain")
            cell = np.minimum(np.searchsorted(xs, x, side="right") - 1, len(xs) - 2)
        left_x = xs[cell]
        t = (x - left_x) / (xs[cell + 1] - left_x)
        weights = _septic_weights(t, derivative)
        j0, j1 = (self._jets(cell), self._jets(cell + 1)) if jets is None else jets
        out = []
        for i, ends in enumerate((d1, d2) if derivative else (p1, p2)):
            departure = sum(w * j for w, j in zip(weights, (*j0[:, i], *j1[:, i])))
            chord = (1.0 - t) * ends[cell] + t * ends[cell + 1]
            out.append(chord + (departure / self.step if derivative else departure))
        return tuple(out)

    def phi12(self, x, cell=None):
        """(phi1, phi2) at x, from one read of both solutions.

        A numeric basis reads as _hermite: in the given cells, or in its window only.
        """
        if not self.is_closed_form:
            return self._hermite(x, cell)
        kx = self.wronskian * np.asarray(x, dtype=float)
        return (np.sin(kx), np.cos(kx)) if self._trig else (np.sinh(kx), np.cosh(kx))

    def dphi12(self, x):
        """(phi1', phi2') at x, from one read of both solutions; a numeric basis only inside it."""
        if not self.is_closed_form:
            return self._hermite(x, derivative=True)
        k = self.wronskian
        kx = k * np.asarray(x, dtype=float)
        if self._trig:
            return k * np.cos(kx), -k * np.sin(kx)
        return k * np.cosh(kx), k * np.sinh(kx)

    def phi12_at_fractions(self, t, first: int, count: int):
        """(phi1, phi2) at the cell fractions t of the grid cells first .. first + count - 1.

        One row per fraction, one column per cell.  With t fixed the septic
        is fixed weights A, B of the jets J at a cell's two ends, so the run
        is read at once as A @ J[:, :-1] + B @ J[:, 1:] on its count + 1
        jets, with no gather; no fraction is rounded back from a position.
        """
        t = np.asarray(t, dtype=float)
        weights = np.array(_septic_weights(t))
        weights[[0, 4]] += 1.0 - t, t  # the chord
        flat = self._jets(slice(first, first + count + 1)).reshape(4, -1)
        # two products: one (8 x 4) over 2 x 16 k jets would start OpenBLAS threads
        left, right = ((w.T @ flat).reshape(len(t), 2, -1) for w in (weights[:4], weights[4:]))
        read = np.add(left[..., :-1], right[..., 1:], out=left[..., :-1])
        # each solution's rows stay contiguous for the callers' passes
        return read[:, 0], read[:, 1]

    # -- phi2 roots -------------------------------------------------------

    def phi2_zeros(self, lo: float | None = None, hi: float | None = None) -> np.ndarray:
        """All zeros of phi2 in [lo, hi] (defaults to the full domain).

        A closed form's, (m + 1/2) pi / k (cosh has none), run past its domain.
        """
        lo = self.x_min if lo is None else lo
        hi = self.x_max if hi is None else hi
        if self.is_closed_form:
            if not self._trig:
                return np.array([])
            k = self.wronskian
            m_lo = math.ceil(lo * k / math.pi - 0.5)
            m_hi = math.floor(hi * k / math.pi - 0.5)
            return (np.arange(m_lo, m_hi + 1) + 0.5) * math.pi / k
        if self._zeros_cache is None:
            self._zeros_cache = self._compute_zeros()
        z = self._zeros_cache
        return z[(z >= lo) & (z <= hi)]

    def _compute_zeros(self) -> np.ndarray:
        """The septic's root in each cell where phi2 changes sign."""
        xs, _, p2 = self._samples[:3]
        j = np.flatnonzero(p2[:-1] * p2[1:] < 0.0)
        lo, hi = xs[j], xs[j + 1]
        x = lo + p2[j] / (p2[j] - p2[j + 1]) * (hi - lo)
        jets = self._jets(j), self._jets(j + 1)
        for _ in range(3):  # Newton: two steps reach rounding level on grids nodes_numeric takes
            step = self._hermite(x, j, jets=jets)[1] / self._hermite(x, j, True, jets)[1]
            x = np.clip(x - step, lo, hi)
        return np.sort(np.concatenate([xs[p2 == 0.0], x]))


# ---------------------------------------------------------------------------
# Closed-form constant-potential bases.

def kg_closed_constant(
    s: Scenario, x_min: float | None = None, x_max: float | None = None
) -> KgBasis:
    """Exact basis for a constant potential: KgBasis(s, x_min, x_max, k), W = k.

    The default window is eight oscillations of the trig form, or a few
    decay lengths of the hyperbolic one: beyond ~8/kappa the
    cosh^2 - sinh^2 cancellation eats the mantissa.
    """
    r = constant_rates(s)
    if x_min is None or x_max is None:
        half_span = 8.0 * math.pi / r.k if r.region is RegionClass.ALLOWED else 6.0 / r.k
        x_min = -half_span if x_min is None else x_min
        x_max = half_span if x_max is None else x_max
    return KgBasis(s, x_min, x_max, r.k)


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


# Taylor coefficients in delta of cosh(sqrt(delta)) - 1 (1/(2k)!, k >= 1) and
# of sinh(sqrt(delta)) / sqrt(delta) (1/(2k+1)!, k >= 0), highest first.  Up
# to |delta| = _SERIES_MAX the first omitted terms are below 1e-17 relative.
_COSH_M1 = [1.0 / math.factorial(2 * k) for k in range(5, 0, -1)]
_SINHC = [1.0 / math.factorial(2 * k + 1) for k in range(4, -1, -1)]
_SERIES_MAX = 1.0e-2

# Positions of _chain's pass gathered before one transposed write into the
# states' rows, so that each write fills two cache lines of a row.  Figure 4's
# kg build took a median 54 ms at 16, 61 ms at 4, 57 ms at 64, and 68 ms with
# one strided column written per position (1), warm, one CPU.
_WRITE_BATCH = 16


def _magnus6_matrix(w1, w2, w3, h):
    """One sixth-order Magnus step under phi'' = w phi, as entries of M - I.

    A = [[0, 1], [w, 0]] is taken at the three Gauss points of the step,
    x + (1/2 - sqrt(15)/10) h, x + h/2 and x + (1/2 + sqrt(15)/10) h (w1,
    w2, w3).  With B1 = h A2, B2 = (sqrt(15) h / 3)(A3 - A1) and
    B3 = (10 h / 3)(A3 - 2 A2 + A1), the sixth-order
    Omega = B1 + B3/12 - [B1, B2]/12 + [B2, B3]/240 + [B1, [B1, B3]]/360
            - [B2, [B1, B2]]/240 + [B1, [B1, [B1, B2]]]/720
    (Blanes, Casas & Ros, BIT 40 (2000) 434; Blanes, Casas, Oteo & Ros,
    Phys. Rep. 470 (2009) 151) reduces, with beta = sqrt(15) h (w3 - w1) / 3
    and gamma = 10 h (w3 - 2 w2 + w1) / 3, to [[p, q], [r, -p]]:
        p = h beta (h^2 w2 / 180 - 1/12),   q = h - h^2 gamma / 180,
        r = h w2 + gamma / 12 + h^2 gamma w2 / 180 - h beta^2 / 120.
    Omega^2 = delta I with delta = p^2 + q r, so that
    M = exp(Omega) = cosh(sqrt(delta)) I + sinh(sqrt(delta)) / sqrt(delta) Omega
    exactly (cos / sin of sqrt(-delta) for delta < 0).  Both factors are
    entire in delta: a Taylor series gives them at small |delta|, and
    cosh r - 1 = 2 sinh^2(r/2) and cos r - 1 = -2 sin^2(r/2) beyond (figure
    4 reaches |delta| = 1.9e-2 at its start), so M - I keeps its full
    precision.  On a constant potential beta = gamma = 0 and the step is exact.
    """
    # scalar factors first, so that each array operation is one numpy call
    k = h * h / 180.0
    beta = math.sqrt(15.0) / 3.0 * h * (w3 - w1)
    gamma = 10.0 / 3.0 * h * ((w3 + w1) - 2.0 * w2)
    kw = k * w2
    p = h * beta * (kw - 1.0 / 12.0)
    q = h - k * gamma
    r = h * w2 + gamma * (kw + 1.0 / 12.0) - h / 120.0 * beta * beta
    delta = p * p + q * r
    cosh_m1, sinhc = 0.0, _SINHC[0]
    for a in _COSH_M1:
        cosh_m1 = (cosh_m1 + a) * delta
    for a in _SINHC[1:]:
        sinhc = sinhc * delta + a
    big = np.abs(delta) > _SERIES_MAX
    if big.any():
        d = delta[big]
        root = np.sqrt(np.abs(d))
        grows = d > 0.0
        cosh_m1[big] = np.where(grows, 2.0 * np.sinh(0.5 * root) ** 2,
                                -2.0 * np.sin(0.5 * root) ** 2)
        sinhc[big] = np.where(grows, np.sinh(root), np.sin(root)) / root
    sp = sinhc * p
    return cosh_m1 + sp, sinhc * q, sinhc * r, cosh_m1 - sp


def _chain(step_matrices, n, y0):
    """States y_0 .. y_n of y_{i+1} = M_i y_i, y = [[phi1, phi2], [dphi1, dphi2]].

    Returns one (4, n + 1) array, rows phi1, phi2, dphi1, dphi2.
    ``step_matrices`` maps an array of step indices to fresh arrays of the
    entries of M - I (see _rk4_matrix and _magnus6_matrix).  A blocked
    prefix product: the n steps form about 4 sqrt(n) blocks of about
    sqrt(n) / 4 steps, the last padded with identity steps.  One pass over
    the positions in a block forms the running products of all blocks at
    once and writes them, _WRITE_BATCH positions at a time, into the
    returned array, one row of positions per block.  The block starts are
    the states of the chain of block products (blocked the same way, down
    to a stepping loop of fewer than 64 steps), and the running products
    become the states in place, a chunk of blocks at a time, in temporaries
    that reuse the batch buffer: the returned array is the only buffer of
    the step count (8.7 MB beside a 1.1 MB batch at figure 4's 270 k
    steps).  The split keeps each of the pass's array operations thousands
    of steps long (about 2,000 at figure 4), where square blocks left them
    overhead-bound at about sqrt(n); carrying the starts through the same
    split keeps the states' O(1) roundings to a few dozen.  Products are
    held as P - I, as a stepping loop holds y + dy, so equal steps do not
    repeat one rounding of 1 + small; each state runs from its own block
    start, so block seams stay smooth.
    """
    size = math.isqrt(n // 16)
    if size < 2:
        states = [y0]
        for t11, t12, t21, t22 in zip(*(e.tolist() for e in step_matrices(np.arange(n)))):
            y11, y12, y21, y22 = states[-1]
            states.append((y11 + (t11 * y11 + t12 * y21), y12 + (t11 * y12 + t12 * y22),
                           y21 + (t21 * y11 + t22 * y21), y22 + (t21 * y12 + t22 * y22)))
        return np.array(list(zip(*states)))
    n_blocks = -(-n // size)
    first = size * np.arange(n_blocks)  # each block's first step
    states = np.empty((4, n_blocks * size + 1))
    rows = states[:, :-1].reshape(4, n_blocks, size)  # ends as rows[:, i, j] = y_{first[i] + j}
    batch = np.empty((4, _WRITE_BATCH, n_blocks))
    q = [np.zeros(n_blocks) for _ in range(4)]
    for j in range(size):
        k = j % _WRITE_BATCH
        for e, v in zip(batch, q):
            e[k] = v
        if k == _WRITE_BATCH - 1 or j == size - 1:
            rows[:, :, j - k:j + 1] = batch[:, :k + 1].transpose(0, 2, 1)
        a, b, c, d = m = step_matrices(first + j)
        if first[-1] + j >= n:
            for e in m:
                e[-1] = 0.0
        q11, q12, q21, q22 = q
        # (I + E)(I + Q) - I = Q + (E + E Q)
        q = (q11 + (a + (a * q11 + b * q21)), q12 + (b + (a * q12 + b * q22)),
             q21 + (c + (c * q11 + d * q21)), q22 + (d + (c * q12 + d * q22)))
    last_block = n_blocks - 1
    starts = _chain(lambda i: [e[np.minimum(i, last_block)] for e in q], n_blocks, y0)
    # y + (fa ya + fb yb), the sum commuted exactly so that y comes last: rows 0 and 1
    # read (f11, f12) with (ya, yb) = (y11, y21) and (y12, y22), rows 2 and 3 read (f21, f22)
    chunk = _WRITE_BATCH * n_blocks // size
    for r in range(0, n_blocks, chunk):
        blocks = slice(r, min(r + chunk, n_blocks))
        fy_a, fy_b = batch.reshape(2, -1)[:, :2 * size * (blocks.stop - r)].reshape(2, 2, -1, size)
        ya, yb = starts[:2, blocks, None], starts[2:, blocks, None]
        for e in (0, 2):
            np.multiply(rows[e, blocks], ya, out=fy_a)
            fy_a += np.multiply(rows[e + 1, blocks], yb, out=fy_b)
            fy_a += starts[e:e + 2, blocks, None]
            rows[e:e + 2, blocks] = fy_a
    states[:, -1] = starts[:, -1]
    return states[:, :n + 1]


def kg_solve_numeric(
    s: Scenario,
    x_min: float,
    x_max: float,
    step: float = DEFAULT_STEP,
    method: str = DEFAULT_METHOD,
) -> KgBasis:
    """Integrate the Klein-Gordon equation on a fixed grid.

    ``method`` is one of METHODS: "magnus6" (the default; exact on a
    constant potential, sixth order otherwise, with w at the three Gauss
    points of each step), "rk4" (w at the start, middle and end) or
    "euler" (first order, w at the start).  The basis is read between grid
    points through the septic Hermite interpolant (KgBasis).

    Initial conditions at x_min: phi1 = 0, phi1' = k0 and phi2 = 1,
    phi2' = 0, with k0 = max(local |k|, 1/(x_max - x_min)) so the two
    solutions stay comparable in magnitude and W = k0 is well scaled.
    Any independent pair is admissible; (a, b) reparameterizes the family.
    """
    if not (step > 0 and math.isfinite(step)):
        raise ValueError("step must be finite and positive")
    if not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise ValueError("x_min and x_max must be finite")
    if x_max <= x_min:
        raise ValueError("x_max must exceed x_min")
    method = method.lower()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r} ({', '.join(METHODS)})")

    span = (x_max - x_min) / step
    if not span <= MAX_STEPS:
        raise ValueError(f"{span:.3g} steps of {step:g} fm, more than MAX_STEPS = {MAX_STEPS:.0e}")
    n_steps = max(int(round(span)), 1)
    xs = x_min + step * np.arange(n_steps + 1)

    k0 = max(local_wavenumber(s, x_min), 1.0 / (x_max - x_min))

    # Every step is one 2x2 matrix; _chain builds them a block position at a time.
    h = step

    def matrices(i):
        if method == "magnus6":
            off = math.sqrt(0.15) * h  # the outer Gauss points sit sqrt(15)/10 h from the middle
            mid = (x_min + 0.5 * h) + h * i
            return _magnus6_matrix(_omega_sq(s, mid - off), _omega_sq(s, mid),
                                   _omega_sq(s, mid + off), h)
        x = x_min + h * i
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

    return KgBasis(s, float(xs[0]), float(xs[-1]), k0, (xs, p1, p2, d1, d2), method, step)


def kg_solve_linear(s: Scenario, x_min: float | None = None, x_max: float | None = None,
                    step: float = DEFAULT_STEP, method: str = DEFAULT_METHOD) -> KgBasis:
    """The numeric basis of the linear potential V = g x; its grid is the window.

    The grid runs from x_min, LINEAR_X_MIN by default, to within half a
    step of x_max, by default TURNING_MARGIN past the turning point
    (E - m0 c^2) / g (turning_points(s)[0]), where the allowed region ends
    and trajectories and scans stop.
    """
    if not s.potential.g > 0:
        raise ValueError("the linear-potential window needs g > 0 "
                         "(for g < 0 it would span the Klein region)")
    x_lo = LINEAR_X_MIN if x_min is None else x_min
    x_hi = turning_points(s)[0] + TURNING_MARGIN if x_max is None else x_max
    return kg_solve_numeric(s, x_lo, x_hi, step=step, method=method)


# ---------------------------------------------------------------------------
# Quality metrics.

def wronskian_drift(basis: KgBasis) -> float:
    """max |W(x) - W(x_ref)| / |W(x_ref)| over the domain.

    For the Klein-Gordon equation (no first-derivative term) W is exactly
    constant, so any drift measures integration error.  A numeric basis is
    read at its grid points, a closed form at DRIFT_PROBES points.
    """
    if basis.is_closed_form:
        xs = np.linspace(basis.x_min, basis.x_max, DRIFT_PROBES)
        (p1, p2), (d1, d2) = basis.phi12(xs), basis.dphi12(xs)
    else:
        xs, p1, p2, d1, d2 = basis._samples
    w = d1 * p2 - p1 * d2
    w_ref = w[0]
    return float(np.max(np.abs(w - w_ref)) / abs(w_ref))


def kg_fd_residual(basis: KgBasis) -> float:
    """Klein-Gordon residual of the sampled phi2 via 5-point differences.

    Returns max over interior grid points (FD_EDGE_MARGIN stencil centres
    in from each end) of |(hbar c)^2 phi'' - [m0^2 c^4 - (E-V)^2] phi|,
    normalized by the largest term magnitude over the window.  The
    normalization is global because both terms vanish together at a
    turning point, where a pointwise ratio would only compare difference
    noise against itself.  It grades an integration: a closed form, which
    has no grid, raises DomainError.
    """
    xs, phi = basis.grid, basis._samples[2]
    h = float(xs[1] - xs[0])
    if len(xs) < 2 * FD_EDGE_MARGIN + 5:
        raise ValueError("too few samples for the residual stencil")
    # 5-point second derivative, O(h^4)
    d2 = (-phi[4:] + 16 * phi[3:-1] - 30 * phi[2:-2] + 16 * phi[1:-3] - phi[:-4]) / (12.0 * h * h)
    xin = xs[2:-2]
    s = basis.scenario
    lhs = s.hbar_c**2 * d2
    rhs = -local_rates(s, xin)[1] * phi[2:-2]
    core = slice(FD_EDGE_MARGIN, -FD_EDGE_MARGIN)
    scale = float(np.max(np.maximum(np.abs(lhs[core]), np.abs(rhs[core]))))
    return float(np.max(np.abs(lhs[core] - rhs[core])) / scale)


def write_basis_csv(basis: KgBasis, path: str | Path) -> Path:
    """Dump a numeric basis's stored samples (a closed form's ``grid`` raises DomainError)."""
    stride = max(len(basis.grid) // BASIS_CSV_POINTS, 1)
    header = ["rqtlab klein-gordon basis", *scenario_header(basis.scenario),
              f"source = numeric:{basis.method}:step={basis.step:g}",
              f"wronskian_per_fm = {basis.wronskian!r}",
              "columns: x_fm, phi1, phi2, dphi1, dphi2"]
    return write_csv(path, header, zip(*(c[::stride].tolist() for c in basis._samples)))
