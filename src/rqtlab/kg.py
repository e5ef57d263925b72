"""Klein-Gordon basis solutions phi1, phi2 with derivatives and Wronskian.

The stationary equation in the internal units reads

    phi'' = [m0^2 c^4 - (E - V(x))^2] / (hbar c)^2 * phi,

so constant potentials have sin/cos (allowed, and photons in both sign
cases) or sinh/cosh (massive forbidden) bases in closed form, and general
potentials are integrated on a grid spaced by phase: the sixth-order
Magnus method by default, RK4 and Euler on request.  The grid takes the
given step (DEFAULT_STEP) where |E - V| is largest and longer steps, up to
STEP_CAP times it, where |E - V| is smaller, so that no step spans more
phase than that first one; on a constant potential it is uniform.  Each
step of any scheme is one 2x2 matrix on (phi, phi'), shared by both
solutions, over the cell between two stored positions; the grid is
chained by a blocked prefix product of these matrices.  Between grid
points a numeric basis is read through one septic Hermite interpolant: a
fixed linear map of the per-point jets (phi, h phi', h^2 w phi, h^3 (w'
phi + w phi')) at a cell's two ends, h the cell's width, which serves
fraction, pointwise, slope and phi2 root reads alike.
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

# wronskian_drift reads W this many samples at a time: the gate runs on figure 4's
# basis after its time of flight, and a basis-sized W raised that run's peak by 2 MiB.
DRIFT_CHUNK = 8192

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

# Largest grid step, in nominal steps: where |E - V| < U / STEP_CAP (U the
# window's largest |E - V|) the grid is uniform at STEP_CAP * step.  Figure
# 4's window (-5400 to 7.956 fm, step 2e-2 fm) takes 156,831 steps at 2.5 and
# keeps its 33 oracle nodes within 2.0e-11 fm (270,398 uniform steps: 3.0e-11
# fm); a cap of 5 took 140,608 steps and 7.3e-11 fm, 10 took 136,552 and
# 2.8e-10 fm, and 25 took 135,416 and 1.7e-9 fm.
STEP_CAP = 2.5

# Most steps kg_solve_numeric takes, counted on its phase grid before the grid
# is made: a basis of five such arrays, 0.4 GB, built at 1.1 times that.
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
    scenario's region.  A numeric basis holds the samples that ``method``
    took on its grid, whose ``step`` is the one where |E - V| is largest
    (both None on a closed form), read between grid points through the
    septic Hermite interpolant on the jets (phi, h phi', h^2 phi'', h^3
    phi'''), h each cell's width, phi'' = w phi and
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

    def _jets(self, index, h):
        """Jets J = (phi, h phi', h^2 phi'', h^3 phi''') at the grid points index.

        One (4, 2, ...) array: jet component, then phi1 and phi2, with
        phi'' = w phi and phi''' = w' phi + w phi'.  h, broadcast against
        index, is the width of the cell that reads them: a grid point's jets
        scale by the cell on its left for that cell's septic and by the one
        on its right for the next.
        """
        xs, p1, p2, d1, d2 = self._samples
        x = xs[index]
        hw, hhdw = (h * h) * _omega_sq(self.scenario, x), h ** 3 * _omega_sq_slope(self.scenario, x)
        y, hdy = np.array([p1[index], p2[index]]), h * np.array([d1[index], d2[index]])
        return np.array([y, hdy, hw * y, hhdw * y + hw * hdy])

    def _hermite(self, x, cell=None, derivative: bool = False, jets=None):
        """(phi1, phi2) at x, or their derivatives, inside the given grid cells.

        The chord of the stored end values (or slopes) plus _septic_weights
        at t = (x - x_cell) / (x_cell+1 - x_cell) times the end jets (over
        the cell's width for slopes): O(h^8) in phi, O(h^7) in phi', and
        exactly the samples at a grid point.  Without cell, each x is read
        in the cell holding it (the last cell holds x_max) and an x outside
        [x_min, x_max] raises DomainError; given cells, derived from the
        grid, are trusted.  cell may have fewer dimensions than x and
        broadcast against it.  ``jets`` are (_jets(cell, h), _jets(cell + 1,
        h)), h the cells' widths, for a caller that reads the same cells again.
        """
        xs, p1, p2, d1, d2 = self._samples
        if cell is None:
            outside = np.extract(np.logical_not((self.x_min <= x) & (x <= self.x_max)), x)
            if outside.size:
                raise DomainError(f"x = {float(outside[0])} outside basis domain")
            cell = np.minimum(np.searchsorted(xs, x, side="right") - 1, len(xs) - 2)
        left_x = xs[cell]
        width = xs[cell + 1] - left_x
        t = (x - left_x) / width
        weights = _septic_weights(t, derivative)
        j0, j1 = (self._jets(cell, width), self._jets(cell + 1, width)) if jets is None else jets
        out = []
        for i, ends in enumerate((d1, d2) if derivative else (p1, p2)):
            departure = sum(w * j for w, j in zip(weights, (*j0[:, i], *j1[:, i])))
            chord = (1.0 - t) * ends[cell] + t * ends[cell + 1]
            out.append(chord + (departure / width if derivative else departure))
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

    def samples_on_grid(self, index):
        """(phi1, phi2, phi1', phi2') stored at the grid points index."""
        return tuple(v[index] for v in self._samples[1:])

    def phi12_at_fractions(self, t, first: int, count: int):
        """(phi1, phi2) at the cell fractions t of the grid cells first .. first + count - 1.

        One row per fraction, one column per cell.  With t fixed the septic
        is fixed weights A, B of the jets J0, J1 at a cell's two ends, so the
        run is read at once as A @ J0 + B @ J1, each cell's jets scaled by
        its width, with no gather; no fraction is rounded back from a position.
        """
        t = np.asarray(t, dtype=float)
        weights = np.array(_septic_weights(t))
        weights[[0, 4]] += 1.0 - t, t  # the chord
        xs = self._samples[0]
        width = xs[first + 1:first + count + 1] - xs[first:first + count]
        # two products: one (8 x 4) over 2 x 16 k jets would start OpenBLAS threads
        left, right = (w.T @ self._jets(slice(end, end + count), width).reshape(4, -1)
                       for w, end in ((weights[:4], first), (weights[4:], first + 1)))
        read = np.add(left, right, out=left).reshape(len(t), 2, count)
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
        width = hi - lo
        x = lo + p2[j] / (p2[j] - p2[j + 1]) * width
        jets = self._jets(j, width), self._jets(j + 1, width)
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
# Numeric integration on the phase grid.

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
# Figure 4's steps sized by phase all sit at |delta| = 1.9e-2, inside the
# series; beyond it the closed forms took a _magnus6_matrix call of 1,585
# steps from 75 to 137 us (one CPU).
_COSH_M1 = [1.0 / math.factorial(2 * k) for k in range(6, 0, -1)]
_SINHC = [1.0 / math.factorial(2 * k + 1) for k in range(5, -1, -1)]
_SERIES_MAX = 5.0e-2

# Positions of _chain's pass gathered before one transposed write into the
# states' rows, so that each write fills two cache lines of a row.  Figure 4's
# kg build took a median 54 ms at 16, 61 ms at 4, 57 ms at 64, and 68 ms with
# one strided column written per position (1), warm, one CPU.
_WRITE_BATCH = 16

# Values per step-matrix entry array in _chain: one step_matrices call takes
# a run of max(_RUN_VALUES // n_blocks, 1) consecutive positions of every
# block, 3 at figure 4's 1,585 blocks and 13 at the default linear window's
# 439, which saves numpy calls where the blocks are few.  A cold build of the
# default window took a median 8.6 ms with single positions, 6.6 ms with a
# fixed run of 4 and 6.2 ms here; figure 4's, 26.7, 24.5 and 23.5 ms
# (forked processes, one CPU).  A call holds about a dozen arrays of the
# run, so the size is bounded twice.  By the build's peak: at 8,192 values
# (5 positions) figure 4's build peaked at 1.27 times the basis it returns,
# 1.22 here and 1.18 with single positions.  And by glibc's allocator: these
# 48 KiB arrays stay under its 128 KiB mmap threshold and are reused on the
# heap, while runs of 16 at figure 4 (198 KiB arrays) took its cold build
# from 2,352 to 5,466 minor faults and to 26.6 ms.  glibc raises that
# threshold after large frees, so the faults of one size depend on what the
# process freed before (see PANEL_CHUNK in trajectory).
_RUN_VALUES = 6144


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
    entire in delta: a Taylor series gives them up to |delta| = _SERIES_MAX
    (figure 4's steps sized by phase sit at 1.9e-2), and cosh r - 1 =
    2 sinh^2(r/2) and cos r - 1 = -2 sin^2(r/2) beyond, so M - I keeps its
    full precision.  On a constant potential beta = gamma = 0 and the step is exact.
    """
    # scalar factors first, so that each array operation is one numpy call
    k = h * h / 180.0
    beta = math.sqrt(15.0) / 3.0 * h * (w3 - w1)
    gamma = 10.0 / 3.0 * h * ((w3 + w1) - 2.0 * w2)
    kw = k * w2
    p = h * beta * (kw - 1.0 / 12.0)
    q = h - k * gamma
    del k  # _chain takes a run of positions per call: each array held adds to the build's peak
    r = h * w2 + gamma * (kw + 1.0 / 12.0) - h / 120.0 * beta * beta
    del beta, gamma, kw
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
    del delta
    p *= sinhc
    q *= sinhc
    r *= sinhc
    e11 = cosh_m1 + p
    cosh_m1 -= p
    return e11, q, r, cosh_m1


def _chain(step_matrices, n, y0):
    """States y_0 .. y_n of y_{i+1} = M_i y_i, y = [[phi1, phi2], [dphi1, dphi2]].

    Returns one (4, n + 1) array, rows phi1, phi2, dphi1, dphi2.
    ``step_matrices`` maps an array of step indices, 1-D or 2-D, to fresh
    arrays of that shape of the entries of M - I (see _rk4_matrix and
    _magnus6_matrix).  A blocked prefix product: the n steps form about
    4 sqrt(n) blocks of about sqrt(n) / 4 steps, the last padded with
    identity steps.  One pass over the positions in a block forms the
    running products of all blocks at once, from step matrices formed a run
    of positions per call (a (run, n_blocks) index array, _RUN_VALUES), and
    writes them, _WRITE_BATCH positions at a time, into the returned array,
    one row of positions per block.  The block starts are
    the states of the chain of block products (blocked the same way, down
    to a stepping loop of fewer than 64 steps), and the running products
    become the states in place, a chunk of blocks at a time, in temporaries
    that reuse the batch buffer: the returned array is the only buffer of
    the step count (5.0 MB beside a 0.8 MB batch at figure 4's 156,831
    steps).  The split keeps each of the pass's array operations thousands
    of steps long (about 1,600 at figure 4), where square blocks left them
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
    padded = n - first[-1]  # the last block's position from which its steps are padding
    run = max(_RUN_VALUES // n_blocks, 1)
    states = np.empty((4, n_blocks * size + 1))
    rows = states[:, :-1].reshape(4, n_blocks, size)  # ends as rows[:, i, j] = y_{first[i] + j}
    batch = np.empty((4, _WRITE_BATCH, n_blocks))
    q = [np.zeros(n_blocks) for _ in range(4)]
    for start in range(0, size, run):
        m = step_matrices(first + np.arange(start, min(start + run, size))[:, None])
        for e in m:
            e[max(padded - start, 0):, -1] = 0.0
        for j, (a, b, c, d) in enumerate(zip(*m), start):
            k = j % _WRITE_BATCH
            for e, v in zip(batch, q):
                e[k] = v
            if k == _WRITE_BATCH - 1 or j == size - 1:
                rows[:, :, j - k:j + 1] = batch[:, :k + 1].transpose(0, 2, 1)
            q11, q12, q21, q22 = q
            # (I + E)(I + Q) - I = Q + (E + E Q)
            q = (q11 + (a + (a * q11 + b * q21)), q12 + (b + (a * q12 + b * q22)),
                 q21 + (c + (c * q11 + d * q21)), q22 + (d + (c * q12 + d * q22)))
        del m, a, b, c, d  # free this run's matrices before the next run's are formed
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


def _phase_grid(s: Scenario, x_min: float, x_max: float, step: float) -> np.ndarray:
    """Grid positions x_0 = x_min < x_1 < ... < x_n, each step sized by its phase.

    A step at x is h(x) = min(step U / |E - V(x)|, STEP_CAP step), U the
    largest |E - V| in the window: no step spans more of the integral of
    |E - V| dx, the phase up to the mass term, than step U, the nominal step
    where |E - V| is largest.  Counting steps by G(x), the integral of 1 / h
    from x_min, the grid is x_i = G^-1(i) for i = 0 .. n, with n the nearest
    whole number to G(x_max) (at least 1), so it ends within half a local
    step of x_max.  E - V is linear in x, so 1 / h is linear between the cuts
    where |E - V| = U / STEP_CAP: on a piece from a, with y = (x - a) / step,
    the count is j = r y + slope y^2 / 2 (r and r + slope y the values of
    step / h at a and x), which inverts to y = 2 j / (r + sqrt(r^2 + 2 slope j)).
    A constant potential is one piece with r = 1 and slope 0, whose grid is
    x_min + step * arange(n + 1) bit for bit.  On the linear potential the
    band around E = V where the cap holds is uniform at STEP_CAP step, and
    figure 4's first piece is x_i = E/g - d_0 sqrt(1 - 2 i step / d_0), with
    d_0 = E/g - x_min.  A window of more than MAX_STEPS steps is refused from
    G(x_max) alone, before any array is allocated.
    """
    u = lambda x: s.energy - s.potential.value(x)
    u_max = max(abs(u(x_min)), abs(u(x_max)))
    rate = lambda x: max(abs(u(x)) / u_max, 1.0 / STEP_CAP) if u_max else 1.0  # step / h(x)
    g = s.potential.g
    cuts = [x_min, x_max]
    if g:
        centre, reach = s.energy / g, u_max / (STEP_CAP * abs(g))
        cuts[1:1] = [x for x in (centre - reach, centre + reach) if x_min < x < x_max]
    pieces, count = [], 0.0  # (start, count at the start, r, slope) of each piece
    for a, b in zip(cuts, cuts[1:]):
        y, r, r_end = (b - a) / step, rate(a), rate(b)
        pieces.append((a, count, r, (r_end - r) / y if y else 0.0))
        count += y * (0.5 * (r + r_end))
    if not count <= MAX_STEPS:
        raise ValueError(f"{count:.3g} steps, {step:g} fm where |E - V| is largest, "
                         f"more than MAX_STEPS = {MAX_STEPS:.0e}")
    n = max(int(round(count)), 1)
    xs = np.empty(n + 1)
    ends = [math.ceil(c) for _, c, _, _ in pieces[1:]] + [n + 1]
    for (a, c, r, slope), lo, hi in zip(pieces, [0, *ends], ends):
        j = np.arange(lo, hi, dtype=float)
        j -= c
        # r + sqrt(r^2 + 2 slope j); the floor keeps a last point past a short
        # window's end on the capped step
        root = np.multiply(j, 2.0 * slope)
        root += r * r
        np.sqrt(np.maximum(root, STEP_CAP**-2, out=root), out=root)
        root += r
        x = np.multiply(j, 2.0 * step, out=xs[lo:hi])
        x /= root
        x += a
    return xs


def kg_solve_numeric(
    s: Scenario,
    x_min: float,
    x_max: float,
    step: float = DEFAULT_STEP,
    method: str = DEFAULT_METHOD,
) -> KgBasis:
    """Integrate the Klein-Gordon equation on the window's phase grid (_phase_grid).

    Each step is the difference of two stored positions, so the integrator
    steps exactly the cells that the basis reports.  ``method`` is one of
    METHODS: "magnus6" (the default; exact on a constant potential, sixth
    order otherwise, with w at the three Gauss points of each step), "rk4"
    (w at the start, middle and end) or "euler" (first order, w at the
    start).  The basis is read between grid points through the septic
    Hermite interpolant (KgBasis).

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

    xs = _phase_grid(s, x_min, x_max, step)
    n_steps = len(xs) - 1
    k0 = max(local_wavenumber(s, x_min), 1.0 / (x_max - x_min))

    # Every step is one 2x2 matrix; _chain builds them a run of block positions at a time.
    def matrices(i):
        i = np.minimum(i, n_steps - 1)  # _chain's padding steps, which it sets to I
        x, x_next = xs[i], xs[1:][i]
        h = x_next - x
        if method == "magnus6":
            # each array held here adds a run of positions to the build's peak (_RUN_VALUES)
            del i, x_next
            mid = np.add(x, 0.5 * h, out=x)
            off = math.sqrt(0.15) * h  # the outer Gauss points sit sqrt(15)/10 h from the middle
            w = _omega_sq(s, mid - off), _omega_sq(s, mid), _omega_sq(s, mid + off)
            del x, mid, off
            return _magnus6_matrix(*w, h)
        w1 = _omega_sq(s, x)
        if method == "euler":
            return np.zeros(i.shape), h, h * w1, np.zeros(i.shape)
        return _rk4_matrix(w1, _omega_sq(s, x + 0.5 * h), _omega_sq(s, x_next), h)

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
    local step of x_max, by default TURNING_MARGIN past the turning point
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
    w_ref = d1[0] * p2[0] - p1[0] * d2[0]
    chunks = [slice(i, i + DRIFT_CHUNK) for i in range(0, len(xs), DRIFT_CHUNK)]
    return float(np.max([np.max(np.abs(d1[c] * p2[c] - p1[c] * d2[c] - w_ref)) for c in chunks])
                 / abs(w_ref))


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
    n = len(xs)
    if n < 2 * FD_EDGE_MARGIN + 5:
        raise ValueError("too few samples for the residual stencil")
    # 5-point second derivative on the local spacings, O(h^4): with the stencil at
    # offsets o_m from its centre, point k weighs 2 e2(o_m, m != k) / prod(o_k - o_m,
    # m != k), its Lagrange polynomial's second derivative (Fornberg, Math. Comp. 51
    # (1988) 699); on a uniform grid, (-1, 16, -30, 16, -1) / (12 h^2)
    xin = xs[2:-2]
    offsets = [xs[m:n - 4 + m] - xin for m in range(5)]
    d2 = 0.0
    for k, o in enumerate(offsets):
        a, b, c, d = (offsets[m] for m in range(5) if m != k)
        weight = 2.0 * ((a + b) * (c + d) + a * b + c * d) / ((o - a) * (o - b) * (o - c) * (o - d))
        d2 = d2 + weight * phi[k:n - 4 + k]
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
    return write_csv(path, header, [c[::stride] for c in basis._samples])
