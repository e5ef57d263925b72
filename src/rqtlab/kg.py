"""Klein-Gordon basis solutions phi1, phi2 with derivatives and Wronskian.

The stationary equation in the internal units reads

    phi'' = [m0^2 c^4 - (E - V(x))^2] / (hbar c)^2 * phi,

so constant potentials have sin/cos (allowed, and photons in both sign
cases) or sinh/cosh (massive forbidden) bases in closed form, and general
potentials are integrated with a fixed-step scheme (RK4 default, Euler as
a legacy parity mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DegenerateBasisError, DomainError, IntegrationOverflowError
from .scenario import RegionClass, Scenario, constant_rates, scenario_header, write_csv

# Wronskian drift a produced basis is allowed before it counts as broken.
DRIFT_TOL_CLOSED = 1.0e-8
DRIFT_TOL_NUMERIC = 1.0e-5

_ZERO_REFINE_REL = 1.0e-13  # |phi2| target relative to max|phi2|, root polish


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
    method: str | None = None  # "euler" / "rk4"
    step: float | None = None  # fm

    def describe(self) -> str:
        if self.kind == "closed-form":
            return "closed-form"
        return f"numeric:{self.method}:step={self.step:g}"


class KgBasis:
    """Two independent solutions of the Klein-Gordon equation.

    Closed-form bases hold exact evaluators; numeric bases hold grid
    samples with linear interpolation between grid points.  Instances are
    immutable by convention and safe to share across threads.
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

    def _interp(self, idx: int, x):
        xs = self._samples[0]
        return np.interp(x, xs, self._samples[idx])

    def phi1(self, x):
        return self._evaluators[0](x) if self.is_closed_form else self._interp(1, x)

    def phi2(self, x):
        return self._evaluators[1](x) if self.is_closed_form else self._interp(2, x)

    def dphi1(self, x):
        return self._evaluators[2](x) if self.is_closed_form else self._interp(3, x)

    def dphi2(self, x):
        return self._evaluators[3](x) if self.is_closed_form else self._interp(4, x)

    def _phi2_exact(self, x: float) -> float:
        """phi2 evaluated on the ODE itself, for root polishing.

        For numeric bases this re-integrates from the nearest grid point to
        the left of x, so refined roots do not inherit interpolation bias.
        """
        if self.is_closed_form:
            return float(self._evaluators[1](x))
        xs, p1, p2, d1, d2 = (
            self._samples[0],
            self._samples[1],
            self._samples[2],
            self._samples[3],
            self._samples[4],
        )
        i = int(np.searchsorted(xs, x, side="right") - 1)
        i = min(max(i, 0), len(xs) - 1)
        span = x - xs[i]
        if span == 0.0:
            return float(p2[i])
        state = (p1[i], d1[i], p2[i], d2[i])
        n_sub = 4
        h = span / n_sub
        xi = float(xs[i])
        w = lambda xx: _omega_sq(self.scenario, xx)
        for _ in range(n_sub):
            state = _rk4_step(state, xi, h, w)
            xi += h
        return state[2]

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
        xs = self._samples[0]
        p2 = self._samples[2]
        scale = float(np.max(np.abs(p2)))
        if scale == 0.0:
            return np.array([])
        sign_change = np.where(p2[:-1] * p2[1:] < 0.0)[0]
        exact_zero = np.where(p2 == 0.0)[0]
        roots = [float(xs[j]) for j in exact_zero]
        for j in sign_change:
            roots.append(
                _bisect_then_secant(
                    self._phi2_exact, float(xs[j]), float(xs[j + 1]),
                    f_tol=_ZERO_REFINE_REL * scale,
                )
            )
        return np.array(sorted(roots))


def _bisect_then_secant(f, lo: float, hi: float, f_tol: float, n_bisect: int = 12) -> float:
    """Refine a bracketed root: bisection to narrow, then secant to polish."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("root not bracketed")
    for _ in range(n_bisect):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    x0, x1, f0, f1 = lo, hi, flo, fhi
    for _ in range(12):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not (min(lo, hi) - 1e-9 <= x2 <= max(lo, hi) + 1e-9):
            x2 = 0.5 * (x0 + x1)
        f2 = f(x2)
        x0, f0, x1, f1 = x1, f1, x2, f2
        if abs(f1) <= f_tol:
            break
    return x1


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

def _rk4_step(state, x, h, w):
    p1, d1, p2, d2 = state
    w1 = w(x)
    w2 = w(x + 0.5 * h)
    w3 = w(x + h)
    # k1
    a1, b1 = d1, w1 * p1
    c1, e1 = d2, w1 * p2
    # k2
    a2 = d1 + 0.5 * h * b1
    b2 = w2 * (p1 + 0.5 * h * a1)
    c2 = d2 + 0.5 * h * e1
    e2 = w2 * (p2 + 0.5 * h * c1)
    # k3
    a3 = d1 + 0.5 * h * b2
    b3 = w2 * (p1 + 0.5 * h * a2)
    c3 = d2 + 0.5 * h * e2
    e3 = w2 * (p2 + 0.5 * h * c2)
    # k4
    a4 = d1 + h * b3
    b4 = w3 * (p1 + h * a3)
    c4 = d2 + h * e3
    e4 = w3 * (p2 + h * c3)
    return (
        p1 + h / 6.0 * (a1 + 2 * a2 + 2 * a3 + a4),
        d1 + h / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4),
        p2 + h / 6.0 * (c1 + 2 * c2 + 2 * c3 + c4),
        d2 + h / 6.0 * (e1 + 2 * e2 + 2 * e3 + e4),
    )


def kg_solve_numeric(
    s: Scenario,
    x_min: float,
    x_max: float,
    step: float = 1.0e-3,
    method: str = "rk4",
) -> KgBasis:
    """Integrate the Klein-Gordon equation on a fixed grid.

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
    if method not in ("euler", "rk4"):
        raise ValueError(f"unknown method {method!r} (euler or rk4)")

    n_steps = int(round((x_max - x_min) / step))
    n_steps = max(n_steps, 1)
    xs = x_min + step * np.arange(n_steps + 1)

    k0 = max(local_wavenumber(s, x_min), 1.0 / (x_max - x_min))

    # Precompute w on nodes and midpoints; the stepping loop then runs on
    # plain floats, which is what keeps desk-scale windows fast.
    w_nodes = np.asarray(_omega_sq(s, xs), dtype=float).tolist()
    w_mids = np.asarray(_omega_sq(s, xs[:-1] + 0.5 * step), dtype=float).tolist()

    p1 = np.empty(n_steps + 1)
    d1 = np.empty(n_steps + 1)
    p2 = np.empty(n_steps + 1)
    d2 = np.empty(n_steps + 1)
    a, b, c, d = 0.0, k0, 1.0, 0.0
    p1[0], d1[0], p2[0], d2[0] = a, b, c, d
    h = step

    if method == "euler":
        for i in range(n_steps):
            w = w_nodes[i]
            a, b, c, d = a + h * b, b + h * w * a, c + h * d, d + h * w * c
            p1[i + 1], d1[i + 1], p2[i + 1], d2[i + 1] = a, b, c, d
            if not (math.isfinite(a) and math.isfinite(c)):
                raise IntegrationOverflowError(
                    f"integration overflowed at x = {xs[i + 1]:.6g} fm", x=float(xs[i + 1])
                )
    else:
        h6 = h / 6.0
        h2 = 0.5 * h
        for i in range(n_steps):
            w1 = w_nodes[i]
            w2 = w_mids[i]
            w3 = w_nodes[i + 1]
            a1, b1, c1, e1 = b, w1 * a, d, w1 * c
            a2 = b + h2 * b1
            b2 = w2 * (a + h2 * a1)
            c2 = d + h2 * e1
            e2 = w2 * (c + h2 * c1)
            a3 = b + h2 * b2
            b3 = w2 * (a + h2 * a2)
            c3 = d + h2 * e2
            e3 = w2 * (c + h2 * c2)
            a4 = b + h * b3
            b4 = w3 * (a + h * a3)
            c4 = d + h * e3
            e4 = w3 * (c + h * c3)
            a = a + h6 * (a1 + 2 * a2 + 2 * a3 + a4)
            b = b + h6 * (b1 + 2 * b2 + 2 * b3 + b4)
            c = c + h6 * (c1 + 2 * c2 + 2 * c3 + c4)
            d = d + h6 * (e1 + 2 * e2 + 2 * e3 + e4)
            p1[i + 1], d1[i + 1], p2[i + 1], d2[i + 1] = a, b, c, d
            if not (math.isfinite(a) and math.isfinite(c)):
                raise IntegrationOverflowError(
                    f"integration overflowed at x = {xs[i + 1]:.6g} fm", x=float(xs[i + 1])
                )

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
    rows = ((x, float(basis.phi1(x)), float(basis.phi2(x)), float(basis.dphi1(x)),
             float(basis.dphi2(x))) for x in xs)
    return write_csv(path, header, rows)
