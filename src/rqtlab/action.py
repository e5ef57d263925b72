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


@dataclass(frozen=True)
class ActionSample:
    s0: float           # MeV s, unwrapped
    branch_index: int


def _unwrapped_action(basis: KgBasis, p: MobiusParams, x: np.ndarray):
    """Unwrapped S0 and branch index at each of the positions x (an array).

    The branch index counts the zeros of phi2 crossed moving from x0 to x
    (signed).  On a zero of phi2, whether phi2 reads exactly 0 there or x
    is one of the basis's zeros, the one-sided limit (pi/2 + n pi) * hbar
    is returned: the sign of phi2 at a root is rounding noise, and would
    put atan on either branch.  A numeric basis raises DomainError for an x
    outside it, from its reader.
    """
    zeros = basis.phi2_zeros(min(p.x0, float(x.min())), max(p.x0, float(x.max())))
    left = np.searchsorted(zeros, x, side="left")
    n = left - np.searchsorted(zeros, p.x0, side="right")
    phi1, phi2 = basis.phi12(x)
    # x is one of the sorted zeros where it finds its equal (np.isin would import numpy.ma)
    on_zero = (phi2 == 0.0) | (len(zeros) > 0 and zeros[np.minimum(left, len(zeros) - 1)] == x)
    with np.errstate(divide="ignore"):
        r = p.a * phi1 / phi2 + p.b
    # math.atan: np.arctan rounds differently in about one value in 400
    phase = [math.pi / 2.0 + k * math.pi if zero else math.atan(v) + k * math.pi
             for v, k, zero in zip(r.tolist(), n.tolist(), on_zero.tolist())]
    return p.direction * basis.scenario.hbar * np.array(phase), n


def reduced_action(basis: KgBasis, p: MobiusParams, x: float) -> ActionSample:
    """Unwrapped S0 at x, anchored so the branch index vanishes at x0.

    At a zero of phi2 the one-sided limit (pi/2 + n pi) * hbar is
    returned; every downstream quantity is finite there.
    """
    s0, n = _unwrapped_action(basis, p, np.array([x], dtype=float))
    return ActionSample(s0=float(s0[0]), branch_index=int(n[0]))


def conjugate_momentum(basis: KgBasis, p: MobiusParams, x):
    """hbar a W / (phi2^2 + (a phi1 + b phi2)^2), signed.

    The denominator is positive for any real a != 0 (phi1 and phi2 cannot
    vanish together since W != 0), so the momentum never vanishes.
    """
    phi1, phi2 = basis.phi12(x)
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


def _rqshje_with_momentum(basis: KgBasis, p: MobiusParams, x: np.ndarray):
    """(residual, S0') at the positions x (an array), as rqshje_residual.

    S0' at x is the centre of the stencil, so it comes with the residual.
    """
    h = _fd_step(basis, x)
    if not basis.is_closed_form:
        exits = ~((basis.x_min + 2 * h <= x) & (x <= basis.x_max - 2 * h))
        if exits.any():
            raise DomainError(
                f"finite-difference stencil at x = {float(x[exits][0])} exits the domain")
    s = basis.scenario
    # 5-point central stencils on S0' give S0'' and S0'''
    stencil = np.array([x - 2 * h, x - h, x, x + h, x + 2 * h])
    pm2, pm1, p0, pp1, pp2 = conjugate_momentum(basis, p, stencil)
    s0pp = (-pp2 + 8 * pp1 - 8 * pm1 + pm2) / (12.0 * h)
    s0ppp = (-pp2 + 16 * pp1 - 30 * p0 + 16 * pm1 - pm2) / (12.0 * (h * h))
    u = s.energy - s.potential.value(x)
    # squares as products: numpy squares arrays exactly but sends a float64
    # scalar's ** 2 to pow, so a scalar read could differ by an ulp
    cp, ratio = s.c * p0, s0pp / p0
    t1 = cp * cp
    t2 = -(s.hbar**2 * s.c**2 / 2.0) * (1.5 * (ratio * ratio) - s0ppp / p0)
    t3 = s.rest_energy**2 - u * u
    scale = np.maximum(np.maximum(np.abs(t1), np.abs(t2)), np.abs(t3))
    return np.abs(t1 + t2 + t3) / scale, p0


def rqshje_residual(basis: KgBasis, p: MobiusParams, x):
    """Normalized residual of the stationary Hamilton-Jacobi equation.

    Uses the m0-cleared form (multiply through by 2 m0 c^2), valid for
    massive particles and photons alike:

        c^2 S0'^2 - (hbar^2 c^2 / 2) [ (3/2)(S0''/S0')^2 - S0'''/S0' ]
            + m0^2 c^4 - (E - V)^2 = 0.

    S0' is analytic; S0'' and S0''' come from 5-point central differences
    of S0'.  The result is |sum| / max(|term|).  Takes a float or an array
    of positions, and returns the same.
    """
    r = _rqshje_with_momentum(basis, p, np.asarray(x, dtype=float))[0]
    return r if r.ndim else float(r)


def action_scan(basis: KgBasis, p: MobiusParams, xs) -> list[tuple[float, float, float, float]]:
    """(x, s0, ds0_dx, residual) rows for a sweep of positions.

    Each column is read as one array: S0 at the positions, then S0' and the
    residual from one call on all the stencils.
    """
    xs = np.asarray(xs, dtype=float)
    s0, _ = _unwrapped_action(basis, p, xs)
    residual, ds0_dx = _rqshje_with_momentum(basis, p, xs)
    return list(zip(xs.tolist(), s0.tolist(), ds0_dx.tolist(), residual.tolist()))
