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
from .kg import KgBasis


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
    one and the same curve are related by (a, b) -> (1/a, -b/a), which is
    its own inverse.  Valid as stated for anchors at x0 = 0.
    """
    return MobiusParams(a=1.0 / p.a, b=-p.b / p.a, x0=p.x0, direction=p.direction)


@dataclass(frozen=True)
class ActionSample:
    x: float            # fm
    s0: float           # MeV s, unwrapped
    ds0_dx: float       # MeV s / fm
    branch_index: int


def _signed_zero_count(basis: KgBasis, x0: float, x: float) -> int:
    """Zeros of phi2 crossed moving from x0 to x (signed)."""
    lo, hi = (x0, x) if x >= x0 else (x, x0)
    zeros = basis.phi2_zeros(lo, hi)
    if len(zeros) == 0:
        return 0
    n_below_x = int(np.searchsorted(zeros, x, side="left"))
    n_at_or_below_x0 = int(np.searchsorted(zeros, x0, side="right"))
    return n_below_x - n_at_or_below_x0


def reduced_action(basis: KgBasis, p: MobiusParams, x: float) -> ActionSample:
    """Unwrapped S0 at x, anchored so the branch index vanishes at x0.

    At an exact zero of phi2 the one-sided limit (pi/2 + n pi) * hbar is
    returned; every downstream quantity is finite there.
    """
    if not (basis.x_min <= x <= basis.x_max) and not basis.is_closed_form:
        raise DomainError(f"x = {x} outside basis domain")
    s = basis.scenario
    n = _signed_zero_count(basis, p.x0, x)
    phi2 = float(basis.phi2(x))
    if phi2 == 0.0:
        # exactly on a zero: the increasing branch passes through pi/2 here
        delta = 1e-9 * max(1.0, abs(x))
        n_strict = _signed_zero_count(basis, p.x0, x - delta)
        phase = math.pi / 2.0 + n_strict * math.pi
    else:
        r = p.a * float(basis.phi1(x)) / phi2 + p.b
        phase = math.atan(r) + n * math.pi
    return ActionSample(
        x=x,
        s0=p.direction * s.hbar * phase,
        ds0_dx=conjugate_momentum(basis, p, x),
        branch_index=n,
    )


def conjugate_momentum(basis: KgBasis, p: MobiusParams, x, sign: int = +1):
    """hbar a W / (phi2^2 + (a phi1 + b phi2)^2), signed.

    The denominator is positive for any real a != 0 (phi1 and phi2 cannot
    vanish together since W != 0), so the momentum never vanishes.
    """
    phi1 = basis.phi1(x)
    phi2 = basis.phi2(x)
    denom = phi2 * phi2 + (p.a * phi1 + p.b * phi2) ** 2
    return sign * p.direction * basis.scenario.hbar * p.a * basis.wronskian / denom


# 5-point central stencils on S0' give S0'' and S0'''.
def _stencil_values(basis, p, x, h):
    xs = np.array([x - 2 * h, x - h, x, x + h, x + 2 * h])
    return conjugate_momentum(basis, p, xs).tolist()


def _default_fd_step(basis: KgBasis, x: float) -> float:
    """A thousandth of the local half-oscillation, snapped to the grid.

    An absolute sub-fm step would make the third difference pure roundoff
    at desk momentum scales (ulp(S0') / h^2 noise), so the step follows
    the local wavenumber instead; for sampled bases it is rounded to a
    grid multiple so stencil points hit exact ODE samples.
    """
    from .kg import local_wavenumber

    k = local_wavenumber(basis.scenario, x)
    span = basis.x_max - basis.x_min
    h = 1.0e-3 * math.pi / k if k > 0 else span / 1.0e3
    h = min(h, span / 100.0)
    if not basis.is_closed_form:
        grid_step = basis.source.step or (span / 1000.0)
        h = max(1, round(h / grid_step)) * grid_step
    return h


def rqshje_residual(
    basis: KgBasis, p: MobiusParams, x: float, fd_step: float | None = None
) -> float:
    """Normalized residual of the stationary Hamilton-Jacobi equation.

    Uses the m0-cleared form (multiply through by 2 m0 c^2), valid for
    massive particles and photons alike:

        c^2 S0'^2 - (hbar^2 c^2 / 2) [ (3/2)(S0''/S0')^2 - S0'''/S0' ]
            + m0^2 c^4 - (E - V)^2 = 0.

    S0' is analytic; S0'' and S0''' come from 5-point central differences
    of S0'.  The result is |sum| / max(|term|).
    """
    if fd_step is None:
        fd_step = _default_fd_step(basis, x)
    if not basis.is_closed_form:
        if not (basis.x_min + 2 * fd_step <= x <= basis.x_max - 2 * fd_step):
            raise DomainError(f"finite-difference stencil at x = {x} exits the domain")
    s = basis.scenario
    pm2, pm1, p0, pp1, pp2 = _stencil_values(basis, p, x, fd_step)
    s0pp = (-pp2 + 8 * pp1 - 8 * pm1 + pm2) / (12.0 * fd_step)
    s0ppp = (-pp2 + 16 * pp1 - 30 * p0 + 16 * pm1 - pm2) / (12.0 * fd_step**2)
    u = s.energy - s.potential.value(x)
    t1 = (s.c * p0) ** 2
    t2 = -(s.hbar**2 * s.c**2 / 2.0) * (1.5 * (s0pp / p0) ** 2 - s0ppp / p0)
    t3 = s.rest_energy**2 - u * u
    scale = max(abs(t1), abs(t2), abs(t3))
    return abs(t1 + t2 + t3) / scale


def action_scan(
    basis: KgBasis, p: MobiusParams, xs, fd_step: float | None = None
) -> list[tuple[float, float, float, float]]:
    """(x, s0, ds0_dx, residual) rows for a sweep of positions."""
    rows = []
    for x in xs:
        smp = reduced_action(basis, p, float(x))
        rows.append((smp.x, smp.s0, smp.ds0_dx, rqshje_residual(basis, p, float(x), fd_step)))
    return rows
