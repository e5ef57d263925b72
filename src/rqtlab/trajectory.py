"""Trajectory generation and the dynamical residual checks.

Closed forms cover the constant potential (allowed and forbidden massive
regions) and the photon.  The time of flight is exact on a closed-form
basis and a Gauss quadrature over a sampled basis's grid cells.

Two labelings of the same trajectory family appear in the formulation:
the flow generated by the reduced action carries constants (a, b) from
a*phi1/phi2 + b, while the printed time-domain solutions carry the
integration constants of the inverted relation, arctan[a tan(w t) + b].
The closed-form generators below use the time-domain labels, the
quadrature path uses the action labels, and ``dual_params`` converts
(the map is its own inverse).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .action import MobiusParams, conjugate_momentum, dual_params, reduced_action
from .errors import DomainError
from .kg import KgBasis, kg_closed_constant
from .scenario import (
    METERS_PER_FM,
    RegionClass,
    Scenario,
    constant_rates,
    kinetic_factor,
    local_rates,
    scenario_header,
    turning_points,
    write_csv,
)


class TrajectoryKind(enum.Enum):
    CLOSED_ALLOWED = "closed-allowed"
    CLOSED_FORBIDDEN = "closed-forbidden"
    CLOSED_PHOTON = "closed-photon"
    ODE_GENERAL = "ode-general"


@dataclass
class Trajectory:
    """A sampled (t, x) path."""

    times: np.ndarray       # s; a time grid increases, a quadrature's run from 0 with kf's sign
    positions: np.ndarray   # fm
    params: MobiusParams
    scenario: Scenario
    kind: TrajectoryKind
    node_times: np.ndarray | None = None  # s, at the nodes given to the quadrature


@dataclass(frozen=True)
class DivergenceEvent:
    """Finite time at which a forbidden-region trajectory blows up."""

    t_star: float   # s
    direction: int  # +1 -> x -> +inf, -1 -> x -> -inf


# ---------------------------------------------------------------------------
# Closed forms.

def _arctan_family_position(t, omega, k, a, b, x0, direction):
    """x(t) = x0 +- [arctan(a tan(w t) + b) + n pi] / k, branch-stitched.

    n = round(w t / pi) keeps the arctan on the branch that makes x
    continuous and increasing; at the interval edges both neighboring
    branches give the same value, so the stitching is seamless.
    """
    t = np.asarray(t, dtype=float)
    n = np.round(omega * t / math.pi)
    theta = omega * t - n * math.pi
    y = a * np.tan(theta) + b
    val = np.arctan(y) + n * math.pi
    return x0 + direction * val / k


def _arctan_family_velocity(t, omega, k, a, b, direction):
    t = np.asarray(t, dtype=float)
    n = np.round(omega * t / math.pi)
    theta = omega * t - n * math.pi
    cos2 = np.cos(theta) ** 2
    y = a * np.tan(theta) + b
    return direction * (a * omega / k) / (cos2 * (1.0 + y * y))


def constant_allowed_position(s: Scenario, p: MobiusParams, t):
    """Closed-form x(t) in an allowed region.

    The photon is the m0 = 0 case; for it both signs of E - U0 give the
    same family.
    """
    r = constant_rates(s, RegionClass.ALLOWED)
    return _arctan_family_position(t, r.omega, r.k, p.a, p.b, p.x0, p.direction)


def constant_allowed_velocity(s: Scenario, p: MobiusParams, t):
    r = constant_rates(s, RegionClass.ALLOWED)
    return _arctan_family_velocity(t, r.omega, r.k, p.a, p.b, p.direction)


def constant_forbidden_position(s: Scenario, p: MobiusParams, t):
    """x(t) = x0 +- ln|a tan(w_f t) + b| / (2 kappa)."""
    r = constant_rates(s, RegionClass.FORBIDDEN)
    t = np.asarray(t, dtype=float)
    z = p.a * np.tan(r.omega * t) + p.b
    with np.errstate(divide="ignore"):
        return p.x0 + p.direction * np.log(np.abs(z)) / (2.0 * r.k)


def node_times_constant(s: Scenario, t_lo: float, t_hi: float) -> np.ndarray:
    """Family-crossing times (n + 1/2) pi / omega inside (t_lo, t_hi)."""
    omega = constant_rates(s, RegionClass.ALLOWED).omega
    n_lo = math.ceil(t_lo * omega / math.pi - 0.5 + 1e-12)
    n_hi = math.floor(t_hi * omega / math.pi - 0.5 - 1e-12)
    return (np.arange(n_lo, n_hi + 1) + 0.5) * math.pi / omega


# Most samples a trajectory takes (a closed form's from its dt): 80 MB per array.
MAX_SAMPLES = 10**7


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique of a 1-D float array, without the numpy.ma import it pulls in."""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


def _merged_time_grid(t_range, dt, extra_times) -> np.ndarray:
    """The times t0 + i dt over t_range, with extra_times merged in.

    A grid time within 1e-9 dt of an extra time is that time up to rounding
    (2.5 dt_n and 500 dt can differ by an ulp), so it gives way: the extra
    times stay samples, and no two samples nearly repeat.
    """
    t0, t1 = t_range
    if t1 <= t0:
        raise ValueError("t_range must be increasing")
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError("dt must be finite and positive")
    count = (t1 - t0) / dt
    if not count <= MAX_SAMPLES:
        raise ValueError(f"dt gives {count:.3g} samples, more than MAX_SAMPLES = {MAX_SAMPLES:.0e}")
    base = t0 + dt * np.arange(int(math.floor(count + 1e-9)) + 1)
    if base[-1] < t1 - 1e-12 * dt:
        base = np.append(base, t1)
    extra = np.sort(np.asarray(extra_times, dtype=float))
    # each grid time's nearest extra time below and at or above it
    fence = np.concatenate(([-np.inf], extra, [np.inf]))
    i = np.searchsorted(fence, base)
    base = base[np.minimum(base - fence[i - 1], fence[i] - base) > 1e-9 * dt]
    times = _sorted_unique(np.concatenate([base, extra]))
    return times[(times >= t0 - 1e-15) & (times <= t1 + 1e-15)]


# ---------------------------------------------------------------------------
# Generators.

def trajectory_constant_allowed(
    s: Scenario, p: MobiusParams, t_range: tuple[float, float], dt: float
) -> Trajectory:
    """Sampled closed-form trajectory (photon included); node times are sample points."""
    nodes = node_times_constant(s, *t_range)
    times = _merged_time_grid(t_range, dt, nodes)
    return Trajectory(
        times=times,
        positions=constant_allowed_position(s, p, times),
        params=p,
        scenario=s,
        kind=TrajectoryKind.CLOSED_PHOTON if s.species.is_photon else TrajectoryKind.CLOSED_ALLOWED,
    )


def trajectory_photon(
    s: Scenario, p: MobiusParams, t_range: tuple[float, float], dt: float
) -> Trajectory:
    """Photon trajectory under a constant potential.

    Valid for E - U0 of either sign: the basis is trigonometric in both
    cases, so the motion is identical in the two quantum situations.
    """
    if not s.species.is_photon:
        raise ValueError("species is massive; use the massive generators")
    return trajectory_constant_allowed(s, p, t_range, dt)


def divergence_times_forbidden(
    s: Scenario, p: MobiusParams, t_range: tuple[float, float]
) -> list[DivergenceEvent]:
    """Analytic blow-up times inside t_range.

    The log argument a tan(w_f t) + b vanishing sends x to -inf; the tan
    poles send it to +inf (signs flip with the direction).
    """
    omega_f = constant_rates(s, RegionClass.FORBIDDEN).omega
    t0, t1 = t_range
    period = math.pi / abs(omega_f)
    events: list[DivergenceEvent] = []
    # zeros of a tan + b, then the tan poles
    for first, direction in ((math.atan(-p.b / p.a) / omega_f, -p.direction),
                             (0.5 * math.pi / omega_f, +p.direction)):
        m_lo = math.ceil((t0 - first) / period - 1e-12)
        m_hi = math.floor((t1 - first) / period + 1e-12)
        for m in range(m_lo, m_hi + 1):
            events.append(DivergenceEvent(t_star=first + m * period, direction=direction))
    events.sort(key=lambda e: e.t_star)
    return events


def trajectory_constant_forbidden(
    s: Scenario,
    p: MobiusParams,
    t_range: tuple[float, float],
    dt: float,
    x_ceiling: float = 1.0e6,
) -> tuple[Trajectory, list[DivergenceEvent]]:
    """Forbidden-region massive trajectory plus its divergence events.

    Samples with |x| beyond the ceiling (or non-finite, at exact blow-up
    times) are dropped; the divergence times themselves are computed from
    the tan / log structure, never from samples.
    """
    if not (x_ceiling > 0 and math.isfinite(x_ceiling)):
        raise ValueError("x_ceiling must be finite and positive")
    times = _merged_time_grid(t_range, dt, [])
    pos = constant_forbidden_position(s, p, times)
    keep = np.isfinite(pos) & (np.abs(pos) <= x_ceiling)
    traj = Trajectory(
        times=times[keep],
        positions=pos[keep],
        params=p,
        scenario=s,
        kind=TrajectoryKind.CLOSED_FORBIDDEN,
    )
    return traj, divergence_times_forbidden(s, p, t_range)


# ---------------------------------------------------------------------------
# Quadrature trajectory for general potentials.

def refuse_mirrored(s: Scenario, members: list[MobiusParams]) -> None:
    """DomainError for a member with a < 0 off a constant potential."""
    if not s.potential.is_constant and any(p.direction < 0 for p in members):
        raise DomainError("a member with a < 0 is mirrored about the range start, "
                          "a symmetry of a constant potential only")


# 4-point Gauss-Legendre on [-1, 1]
_GL_NODES = np.array(
    [-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526]
)
_GL_WEIGHTS = np.array(
    [0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538]
)


# Gauss panels per array operation in the time of flight.  A walk allocates one
# workspace of 24 PANEL_CHUNK values (1.1 MiB) when it starts: a chunk's read of the
# basis fills its first 8 PANEL_CHUNK with the (phi1, phi2) rows and the next 16 with
# its second product and jets; once read, that space holds the Gauss points, the
# weights, phi2^2 and a member's terms.  So the walk allocates nothing of a chunk's
# size per chunk, and its page faults do not hang on glibc's mmap and trim thresholds:
# in forked processes figure 4's walk took 222 minor faults, the default linear
# window's 303 (224 and 1,321 with per-chunk arrays).  At 4,096 figure 4's walk took
# 3 ms more, at 8,192 no less, with 448 faults and 0.8 MiB more peak RSS.  Figure 4's
# family (600 samples, 5,897 nodes) traces a 2.68 MiB peak over its basis.
PANEL_CHUNK = 6144


def _cumulative_time_gauss(s: Scenario, basis: KgBasis, members: list[MobiusParams],
                           xs: np.ndarray) -> np.ndarray:
    """t(x) on a sampled basis at the increasing samples xs, one row per member.

    1/xdot = hbar theta' / kf, with theta = atan((a phi1 + b phi2) / phi2)
    the action's angle (S0 = hbar theta) and theta' = a W / (phi2^2 +
    (a phi1 + b phi2)^2).  Each panel's time is split at kf(mid), the
    value at the panel's middle: hbar (dtheta / kf(mid) plus the 4-point
    Gauss sum of theta' (1/kf - 1/kf(mid))).  dtheta, the turn of the
    vector (phi2, a phi1 + b phi2) between the panel's ends, is exact (the
    atan2 of their cross and dot products, so a panel must turn theta by
    less than pi), and the Gauss points see theta', which for a != 1 peaks
    once per node interval, only weighted by the change of 1/kf across the
    panel: on the linear potential about h / (2 |E/g - x|) of 1/kf, on a
    constant potential none, so that the time is exact there.  The turn
    follows the stored samples, so it is scaled by the basis's wronskian,
    which the Gauss points read theta' with, over the samples' own
    Wronskian at the panel's left end: their drift (2.6e-14 over figure 4)
    then does not enter the time.

    The whole panels, the basis's grid cells from the one holding xs[0],
    are walked once, PANEL_CHUNK at a time, each chunk's run of cells read
    at the fixed Gauss fractions and its ends at the grid samples.  The
    running sums carry from chunk to chunk: np.cumsum adds in order, so
    prepending the carry gives the bits of one cumsum over all panels.  A
    sample's time is the running sum up to its panel plus the time over
    the part of the panel before it (also PANEL_CHUNK Gauss points at a
    time), less the same for xs[0], so that t(xs[0]) is exactly 0.
    """
    work = np.empty(24 * PANEL_CHUNK)  # see PANEL_CHUNK

    def panel_times(left, right, read, l1, l2, dl1, dl2, out):
        # Gauss points: one row per node, one column per panel; l1 .. dl2 are phi1, phi2,
        # phi1', phi2' at the left ends.  kf, the weights and the ends' cross products serve
        # the whole family; per member only theta's bracket, the sums and the turn remain
        half, mid = 0.5 * (right - left), 0.5 * (right + left)
        phi1, phi2, r1, r2 = read(half, mid)  # at the Gauss points; r1, r2 at the right ends
        n = 4 * len(left)  # in the four spans of 4 PANEL_CHUNK the read leaves free
        pts, weights, phi2_sq, term = work[8 * PANEL_CHUNK:].reshape(4, -1)[:, :n].reshape(4, 4, -1)
        np.add(mid, np.multiply(half, _GL_NODES[:, None], out=pts), out=pts)
        at_mid = 1.0 / kinetic_factor(s, mid)
        for row, x in zip(weights, pts):  # kinetic_factor's temporaries stay one row long
            np.divide(1.0, kinetic_factor(s, x), out=row)
        weights -= at_mid
        weights *= np.multiply(half, s.hbar * _GL_WEIGHTS[:, None], out=term)
        at_mid *= (s.hbar * basis.wronskian) / (dl1 * l2 - l1 * dl2)
        np.multiply(phi2, phi2, out=phi2_sq)
        cross, dot = r1 * l2 - l1 * r2, l2 * r2
        for row, p in zip(out, members):
            np.multiply(p.a, phi1, out=term)  # weights / (phi2^2 + (a phi1 + b phi2)^2)
            term += np.multiply(p.b, phi2, out=pts)
            np.square(term, out=term)
            term += phi2_sq
            np.sum(np.divide(weights, term, out=term), axis=0, out=row)
            row *= p.a * basis.wronskian
            turn = np.arctan2(p.a * cross, dot + (p.a * l1 + p.b * l2) * (p.a * r1 + p.b * r2))
            row += at_mid * turn

    def stops_read(half, mid):
        # the Gauss points and the stops in one read, through one _jets pair per cell
        p1, p2 = basis.phi12(np.vstack([mid + half * _GL_NODES[:, None], xs[part]]), cells[part])
        return p1[:-1], p2[:-1], p1[-1], p2[-1]

    # the grid cells from the one holding xs[0] to the one ending at or past xs[-1]
    i0 = np.searchsorted(basis.grid, xs[0], "right") - 1
    edges = basis.grid[i0:np.searchsorted(basis.grid, xs[-1], "left") + 1]
    fractions = 0.5 * (1.0 + _GL_NODES)
    # each sample's panel, by its left edge (a sample on the last edge closes the walk),
    # and its Gauss sum over the part of that panel before it, PANEL_CHUNK Gauss points at a time
    at = np.searchsorted(edges, xs, "right") - 1
    cells = i0 + np.minimum(at, len(edges) - 2)
    times = np.empty((len(members), len(xs)))
    per_chunk = PANEL_CHUNK // len(_GL_NODES)
    for c in range(0, len(xs), per_chunk):
        part = slice(c, c + per_chunk)
        panel_times(edges[at[part]], xs[part], stops_read, *basis.samples_on_grid(i0 + at[part]),
                    times[:, part])
    # one row per member: column 0 carries the sums so far, 1 + i holds panel i
    sums = np.zeros((len(members), PANEL_CHUNK + 1))
    for first in range(0, len(edges) - 1, PANEL_CHUNK):
        e = edges[first:first + PANEL_CHUNK + 1]
        m = len(e) - 1
        ends = basis.samples_on_grid(slice(i0 + first, i0 + first + m + 1))
        grid_read = lambda half, mid: (*basis.phi12_at_fractions(fractions, i0 + first, m, work),
                                       ends[0][1:], ends[1][1:])
        panel_times(e[:-1], e[1:], grid_read, *(v[:-1] for v in ends), sums[:, 1:m + 1])
        cum = np.cumsum(sums[:, :m + 1], axis=1, out=sums[:, :m + 1])
        # plus the running sum, for samples whose panel starts at an edge this chunk closes
        i, k = np.searchsorted(at, (first, first + m), "right")
        times[:, i:k] += cum[:, at[i:k] - first]
        sums[:, 0] = cum[:, m]
    return times - times[:, :1]


def trajectory_ode_family(
    s: Scenario,
    basis: KgBasis,
    members: list[MobiusParams],
    x_range: tuple[float, float],
    n_samples: int,
    nodes=(),
) -> list[Trajectory]:
    """t(x) of each member, the integral of 1/xdot = S0'/kf from x_range[0], for a family.

    The parameters are the action-side labels; kf is the kinetic factor (E - V) -
    m0^2 c^4 / (E - V).  xdot is finite and of one sign between turning points, so
    t(x) is smooth and strictly monotone with kf's sign: the times fall from 0 where
    kf < 0 (a forbidden or Klein-region closed form).  On a closed-form basis kf is
    constant, so the time is exact: (S0(x) - S0(x_range[0])) / kf, from
    reduced_action.  A sampled basis takes _cumulative_time_gauss over its grid
    cells, each one smooth piece of the septic interpolant: each cell's exact change
    of S0 over kf at its middle, plus a Gauss sum for kf's change across it, with all
    members sharing the panels and what does not depend on (a, b).  The range
    is taken as given: one that passes a turning point, or that the basis does
    not cover, raises DomainError (kg.linear_ranges picks the linear window's).

    Each member's times have the same bits as a family of that member
    alone.  The positions in ``nodes`` are read as samples are, so each
    member's time at them (its ``node_times``) is not a read between
    samples.  They must increase from x_range[0] and lie inside the basis
    and before the first turning point past it; they may run past the
    range's end.
    """
    if not members:
        raise ValueError("need at least one family member")
    lo, hi = x_range
    if hi <= lo:
        raise ValueError("x_range must be increasing")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if n_samples > MAX_SAMPLES:
        raise ValueError(f"{n_samples} samples, more than MAX_SAMPLES = {MAX_SAMPLES:.0e}")
    refuse_mirrored(s, members)
    nodes = np.asarray(nodes, dtype=float)
    if np.any(np.diff(nodes, prepend=lo) <= 0.0):
        raise ValueError("nodes must increase from the start of x_range")
    turns = [x for x in turning_points(s) if x > lo]
    if not (basis.x_min <= lo and hi <= min([basis.x_max, *turns])):
        raise DomainError("x_range must lie inside the basis and not pass a turning point")
    if len(nodes) and (nodes[-1] > basis.x_max or (turns and nodes[-1] >= turns[0])):
        raise DomainError("nodes must lie inside the basis and before a turning point")

    xs = np.linspace(lo, hi, n_samples)
    stops = _sorted_unique(np.concatenate([xs, nodes]))
    if basis.is_closed_form:
        s0 = np.array([p.direction * reduced_action(basis, p, stops) for p in members])
        times = (s0 - s0[:, :1]) / kinetic_factor(s, 0.0)
    else:
        times = _cumulative_time_gauss(s, basis, members, stops)
    at_xs, at_nodes = np.searchsorted(stops, xs), np.searchsorted(stops, nodes)
    out = []
    for p, ts in zip(members, times):
        # a mirror trajectory (constant potential only) reflects the displacement, time forward
        pos = xs.copy() if p.direction > 0 else xs[0] - (xs - xs[0])
        out.append(Trajectory(
            times=ts[at_xs],
            positions=pos,
            params=p,
            scenario=s,
            kind=TrajectoryKind.ODE_GENERAL,
            node_times=ts[at_nodes],
        ))
    return out


def trajectory_ode(s: Scenario, basis: KgBasis, p: MobiusParams, x_range: tuple[float, float],
                   n_samples: int) -> Trajectory:
    """t(x) by quadrature of 1/xdot: the one-member case of trajectory_ode_family."""
    return trajectory_ode_family(s, basis, [p], x_range, n_samples)[0]


# ---------------------------------------------------------------------------
# Dynamical residuals.

def _firqnl_terms(s: Scenario, x, xd, xdd, xddd):
    """Terms of the trajectory-level first integral of the motion.

    Obtained by substituting the velocity-momentum relation into the
    stationary Hamilton-Jacobi equation and clearing denominators; the
    constant-potential and photon forms are the dV/dx = 0 reductions.  V''
    vanishes on both potentials, so its term is left out.
    """
    u, q = local_rates(s, x)
    m4 = s.rest_energy**2
    vp = s.potential.derivative(x)
    hb2 = s.hbar**2
    t1 = q * q
    t2 = -(xd * xd / s.c**2) * u * u * q
    t3 = 0.5 * hb2 * (1.5 * (xdd / xd) ** 2 - xddd / xd) * u * u
    t4 = -0.5 * hb2 * (xdd * vp) * u * (u * u + m4) / q
    t5 = -0.75 * hb2 * (xd * vp) ** 2 * ((u * u + m4) / q) ** 2
    t6 = -hb2 * (xd * vp) ** 2 * m4 / q
    return t1, t2, t3, t4, t5, t6


def _uniform_times(t_range: tuple[float, float], n: int) -> np.ndarray:
    t0, t1 = t_range
    if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
        raise ValueError("t_range must be finite and increasing")
    if n > MAX_SAMPLES:
        raise ValueError(f"{n} samples, more than MAX_SAMPLES = {MAX_SAMPLES:.0e}")
    return np.linspace(t0, t1, n)


def firqnl_residual(s: Scenario, p: MobiusParams, t_range: tuple[float, float], n: int) -> float:
    """Max normalized residual of the trajectory-level first integral on a closed form.

    x(t) is the closed form of the scenario's region (photon included),
    sampled at n uniform times over t_range.  xdot and xddot come from
    5-point stencils, the third derivative from a 7-point stencil.  In an
    allowed region the maximum keeps one node interval clear of the range
    ends, where the stencils are weakest.
    """
    if n < 7:
        raise ValueError("need at least 7 samples for the difference stencils")
    t = _uniform_times(t_range, n)
    r = constant_rates(s)
    allowed = r.region is RegionClass.ALLOWED
    x = (constant_allowed_position if allowed else constant_forbidden_position)(s, p, t)
    h = t[1] - t[0]
    xd = (-x[4:] + 8 * x[3:-1] - 8 * x[1:-3] + x[:-4]) / (12.0 * h)
    xdd = (-x[4:] + 16 * x[3:-1] - 30 * x[2:-2] + 16 * x[1:-3] - x[:-4]) / (12.0 * h * h)
    xddd = (x[:-6] - 8 * x[1:-5] + 13 * x[2:-4] - 13 * x[4:-2] + 8 * x[5:-1] - x[6:]) / (
        8.0 * h**3
    )
    # align stencils: xd/xdd valid on [2:-2], xddd on [3:-3]
    xd = xd[1:-1]
    xdd = xdd[1:-1]
    xin = x[3:-3]
    tin = t[3:-3]
    terms = _firqnl_terms(s, xin, xd, xdd, xddd)
    total = sum(terms)
    scale = np.max(np.abs(np.array(terms)), axis=0)
    res = np.abs(total) / scale

    keep = np.ones(len(tin), dtype=bool)
    if allowed:
        guard = math.pi / r.omega  # one node interval
        keep &= (tin >= t[0] + guard) & (tin <= t[-1] - guard)
        if not np.any(keep):
            keep[:] = True
    return float(np.max(res[keep]))


def velocity_momentum_check(s: Scenario, p: MobiusParams, t_range: tuple[float, float],
                            n: int) -> float:
    """Max relative error of xdot * dS0/dx = (E-V) - m0^2 c^4/(E-V) on an allowed closed form.

    x and xdot are the closed form's at n uniform times over t_range, and
    dS0/dx takes the time-domain labels converted to the action side
    (x0 = 0 anchors only).  A forbidden region has no allowed-region xdot:
    DomainError.
    """
    if p.x0 != 0.0:
        raise ValueError("cannot infer action labels for a shifted closed form")
    t = _uniform_times(t_range, n)
    x = constant_allowed_position(s, p, t)
    momentum = conjugate_momentum(kg_closed_constant(s), dual_params(p), x)
    lhs = constant_allowed_velocity(s, p, t) * momentum
    rhs = kinetic_factor(s, x)
    scale = np.maximum(np.abs(rhs), 1e-12 * s.energy)
    return float(np.max(np.abs(lhs - rhs) / scale))


# ---------------------------------------------------------------------------
# Output.

def write_trajectory_csv(traj: Trajectory, path: str | Path) -> Path:
    """One CSV per trajectory; SI columns (t in s, x in m)."""
    p = traj.params
    header = ["rqtlab trajectory", *scenario_header(traj.scenario),
              f"a = {p.a!r}", f"b = {p.b!r}", f"x0_fm = {p.x0!r}", f"kind = {traj.kind.value}",
              "columns: t_s, x_m"]
    return write_csv(path, header, (traj.times, traj.positions * METERS_PER_FM))
