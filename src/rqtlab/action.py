"""Reduced action S0, conjugate momentum, and the Hamilton-Jacobi residual.

S0 = hbar * arctan(a phi1/phi2 + b) is multivalued; crossing a zero of
phi2 advances the arctan branch, so the unwrapped action adds pi*hbar per
zero crossed (counted from the anchor x0).  With the orientation a > 0 and
W > 0 the unwrapped S0 is strictly increasing, which fixes every branch
choice below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kg import KgBasis, local_wavenumber
from .scenario import local_rates


@dataclass(frozen=True)
class MobiusParams:
    """Family labels (a, b) plus the anchor position x0.

    a < 0 inputs are stored as (-a, -b) with the direction flipped; the two
    describe the same curve traversed the other way.
    """

    a: float
    b: float
    x0: float = 0.0
    direction: int = +1

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.x0))):
            raise ValueError("family parameters a, b and x0 must be finite")
        if self.a == 0.0:
            raise ValueError("family parameter a must be nonzero")
        if self.direction not in (-1, 1):
            raise ValueError("direction must be +1 or -1")
        if self.a < 0.0:
            object.__setattr__(self, "a", -self.a)
            object.__setattr__(self, "b", -self.b)
            object.__setattr__(self, "direction", -self.direction)


def dual_params(p: MobiusParams) -> MobiusParams:
    """Swap between the two equivalent labelings of a family member.

    The reduced action (and the flow it generates) uses constants (a, b)
    in a*phi1/phi2 + b, while the printed time-domain solutions carry the
    integration constants of the inverted relation.  The two labelings of
    one and the same curve are related by (A, B) -> (1/A, -B/A) on the
    signed labels (A, B) = (d a, d b) of a member stored as (a, b, d), which
    is (a, b, d) -> (1/a, -d b/a, d): its own inverse, and the same member
    whether the signed labels or their canonical form go in.  Valid as
    stated for anchors at x0 = 0.
    """
    return MobiusParams(a=1.0 / p.a, b=-p.direction * p.b / p.a, x0=p.x0, direction=p.direction)


def reduced_action(basis: KgBasis, p: MobiusParams, xs):
    """Unwrapped S0 and branch index at each of the positions xs (a 1-D array).

    The branch index counts the zeros of phi2 crossed moving from x0 to x
    (signed), so it vanishes at x0.  On a zero of phi2, whether phi2 reads
    exactly 0 there or x is one of the basis's zeros, the one-sided limit
    (pi/2 + n pi) * hbar is returned: the sign of phi2 at a root is
    rounding noise, and would put atan on either branch.  A numeric basis
    raises DomainError for an x outside it, from its reader.
    """
    return _actions(basis, [p], np.asarray(xs, dtype=float))[0]


def _actions(basis: KgBasis, members, x: np.ndarray) -> list:
    """reduced_action of each member at the positions x, from one read of the basis.

    One phi2 zero lookup over x and every anchor and one phi12 read at x
    serve all members: a zero outside one member's span of x and x0 lies
    below or above all of it, and leaves that member's branch count as is.
    """
    x0s = [p.x0 for p in members]
    zeros = basis.phi2_zeros(min([*x0s, float(x.min())]), max([*x0s, float(x.max())]))
    left = np.searchsorted(zeros, x, side="left")
    phi1, phi2 = basis.phi12(x)
    # x is one of the sorted zeros where it finds its equal (np.isin would import numpy.ma)
    on_zero = (phi2 == 0.0) | (len(zeros) > 0 and zeros[np.minimum(left, len(zeros) - 1)] == x)
    on_zero = on_zero.tolist()
    out = []
    for p in members:
        n = left - np.searchsorted(zeros, p.x0, side="right")
        with np.errstate(divide="ignore"):
            r = p.a * phi1 / phi2 + p.b
        # math.atan: np.arctan rounds differently in about one value in 400
        phase = [math.pi / 2.0 + k * math.pi if zero else math.atan(v) + k * math.pi
                 for v, k, zero in zip(r.tolist(), n.tolist(), on_zero)]
        out.append((p.direction * basis.scenario.hbar * np.array(phase), n))
    return out


def conjugate_momentum(basis: KgBasis, p: MobiusParams, x):
    """hbar a W / (phi2^2 + (a phi1 + b phi2)^2), signed.

    The denominator is positive for any real a != 0 (phi1 and phi2 cannot
    vanish together since W != 0), so the momentum never vanishes.
    """
    return _momentum(basis, p, *basis.phi12(x))


def _momentum(basis: KgBasis, p: MobiusParams, phi1, phi2):
    """conjugate_momentum from one read (phi1, phi2) of the basis."""
    denom = phi2 * phi2 + (p.a * phi1 + p.b * phi2) ** 2
    return p.direction * basis.scenario.hbar * p.a * basis.wronskian / denom


def _fd_step(basis: KgBasis, x: np.ndarray) -> np.ndarray:
    """A thousandth of the local half-oscillation at each of the positions x.

    An absolute sub-fm step would make the third difference pure roundoff
    at desk momentum scales (ulp(S0') / h^2 noise), so the step follows
    the local wavenumber instead, capped at a hundredth of the span.  On a
    sampled basis it is not rounded to the storage grid: the stencil reads
    the interpolant, and a step that followed the grid made the residual
    follow the basis step too.
    """
    k = local_wavenumber(basis.scenario, x)
    span = basis.x_max - basis.x_min
    with np.errstate(divide="ignore"):
        h = np.where(k > 0, 1.0e-3 * math.pi / k, span / 1.0e3)
    return np.minimum(h, span / 100.0)


def rqshje_residual(basis: KgBasis, p: MobiusParams, xs):
    """Normalized residual of the stationary Hamilton-Jacobi equation, and S0'.

    Uses the m0-cleared form (multiply through by 2 m0 c^2), valid for
    massive particles and photons alike:

        c^2 S0'^2 - (hbar^2 c^2 / 2) [ (3/2)(S0''/S0')^2 - S0'''/S0' ]
            + m0^2 c^4 - (E - V)^2 = 0.

    S0' is analytic; S0'' and S0''' come from 5-point central differences
    of S0'.  The residual is |sum| / max(|term|).  Takes a 1-D array of
    positions and returns two arrays: the residual at each, and S0' there,
    the centre of its stencil.
    """
    return _residual(basis, p, *_stencil_reads(basis, np.asarray(xs, dtype=float)))


def _stencil_reads(basis: KgBasis, x: np.ndarray):
    """What the residual of every member at the positions x reads: (h, phi12, t3).

    The stencil steps h, one phi12 read at the 5-point stencils, and the
    term m0^2 c^4 - (E - V)^2; a stencil that leaves a numeric basis raises
    DomainError.
    """
    h = _fd_step(basis, x)
    if not basis.is_closed_form:
        exits = ~((basis.x_min + 2 * h <= x) & (x <= basis.x_max - 2 * h))
        if exits.any():
            raise DomainError(
                f"finite-difference stencil at x = {float(x[exits][0])} exits the domain")
    # 5-point central stencils on S0' give S0'' and S0'''
    stencil = np.array([x - 2 * h, x - h, x, x + h, x + 2 * h])
    return h, basis.phi12(stencil), -local_rates(basis.scenario, x)[1]


def _residual(basis: KgBasis, p: MobiusParams, h, phi12, t3):
    """rqshje_residual of one member from its _stencil_reads."""
    s = basis.scenario
    pm2, pm1, p0, pp1, pp2 = _momentum(basis, p, *phi12)
    s0pp = (-pp2 + 8 * pp1 - 8 * pm1 + pm2) / (12.0 * h)
    s0ppp = (-pp2 + 16 * pp1 - 30 * p0 + 16 * pm1 - pm2) / (12.0 * (h * h))
    cp, ratio = s.c * p0, s0pp / p0
    t1 = cp * cp
    t2 = -(s.hbar**2 * s.c**2 / 2.0) * (1.5 * (ratio * ratio) - s0ppp / p0)
    scale = np.maximum(np.maximum(np.abs(t1), np.abs(t2)), np.abs(t3))
    return np.abs(t1 + t2 + t3) / scale, p0


def action_scan(basis: KgBasis, members, xs) -> np.ndarray:
    """(x, s0, ds0_dx, residual) rows of each member over one sweep of positions.

    One (M N, 4) array for M members and N positions, stacked member-major:
    rows m N to (m + 1) N - 1 are member m's.  The family shares one read
    of the basis at the positions and one at their stencils; only the
    bracket, the branch count from each member's x0 and the residual
    arithmetic run per member, so each member's rows are the bits of its
    own reduced_action and rqshje_residual.
    """
    xs = np.asarray(xs, dtype=float)
    actions = _actions(basis, members, xs)
    reads = _stencil_reads(basis, xs)
    rows = np.empty((len(members), len(xs), 4))
    for out, p, (s0, _) in zip(rows, members, actions):
        residual, ds0_dx = _residual(basis, p, *reads)
        out[:, 0], out[:, 1], out[:, 2], out[:, 3] = xs, s0, ds0_dx, residual
    return rows.reshape(-1, 4)
