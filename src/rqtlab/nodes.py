"""Node location, spacings, the half-wavelength law, and the classical limit.

A node is a spacetime point every member of the (a, b) family passes
through; spatially the nodes sit at the zeros of phi2, which makes one
definition serve both the constant-potential closed forms and the numeric
linear-potential bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .action import MobiusParams, reduced_action
from .errors import DomainError
from .kg import KgBasis, local_wavenumber
from .scenario import (
    METERS_PER_FM,
    RegionClass,
    Scenario,
    constant_rates,
    local_rates,
    scenario_header,
    turning_points,
    write_csv,
)
from .trajectory import constant_allowed_position


@dataclass
class NodeReport:
    node_times: np.ndarray      # s
    node_positions: np.ndarray  # fm
    dt_spacing: float           # s
    dx_spacings: np.ndarray     # fm, per interval
    wavelength: float           # fm
    ratio: float                # dx / (lambda / 2)


@dataclass(frozen=True)
class NodeIntervals:
    """linear_node_summary's intervals between consecutive phi2 zeros, one array per column."""
    n: np.ndarray                # interval index
    x_lo: np.ndarray             # fm
    x_hi: np.ndarray             # fm
    dx: np.ndarray               # fm, x_hi - x_lo
    p_node: np.ndarray           # pi hbar / dx
    p_classical_mid: np.ndarray  # sqrt(q2) / c at the midpoint; NaN where q2 <= 0


@dataclass
class ClassicalLimitReport:
    epsilons: np.ndarray    # hbar scale factors, decreasing
    deviations: np.ndarray  # fm
    bounds: np.ndarray      # fm
    exponent: float         # fitted log-log slope
    params: MobiusParams    # the scanned member

    @property
    def scaling_holds(self) -> bool:
        """Deviations fall with eps and stay under their bounds; the exponent is 1 +- 0.1."""
        return (bool(np.all(np.diff(self.deviations) < 0))
                and bool(np.all(self.deviations <= self.bounds))
                and 0.9 <= self.exponent <= 1.1)


def nodes_constant(s: Scenario, n_nodes: int = 8, x0: float = 0.0) -> NodeReport:
    """Analytic nodes for a constant potential (massive allowed or photon).

    The spacings are pi / omega and pi / k of ``constant_rates``:
    t_n = (n + 1/2) pi hbar |E-U0| / ((E-U0)^2 - m0^2 c^4),
    dx_n = pi hbar c / sqrt((E-U0)^2 - m0^2 c^4); the photon values follow
    with m0 = 0.  lambda is h c / sqrt((E-U0)^2 - m0^2 c^4), de Broglie's
    h / p, so the ratio compares two routes to the spacing.
    """
    r = constant_rates(s, RegionClass.ALLOWED)
    dt, dx = math.pi / r.omega, math.pi / r.k
    ns = np.arange(n_nodes)
    lam = 2.0 * math.pi * s.hbar_c / math.sqrt(r.q2)
    return NodeReport(
        node_times=(ns + 0.5) * dt,
        node_positions=x0 + (ns + 0.5) * dx,
        dt_spacing=dt,
        dx_spacings=np.full(max(n_nodes - 1, 1), dx),
        wavelength=lam,
        ratio=dx / (lam / 2.0),
    )


def nodes_numeric(basis: KgBasis) -> np.ndarray:
    """Zeros of phi2 over the basis domain (a numeric basis: its interpolant's).

    Empty output is valid: a massive forbidden-region basis (cosh) has no
    zeros.  Numeric bases must be sampled at no coarser than a twentieth
    of the shortest local half-oscillation so each sample pair brackets at
    most one sign change.  No cell of the phase grid spans more phase than
    the basis's step does where |E - V| is largest, at an end of the
    window, so that step against the larger end wavenumber bounds them all.
    """
    if not basis.is_closed_form:
        s = basis.scenario
        xs = basis.grid
        k_max = max(local_wavenumber(s, float(xs[0])), local_wavenumber(s, float(xs[-1])))
        step = basis.step
        if k_max > 0 and step > math.pi / (20.0 * k_max):
            raise DomainError(
                f"basis step {step:g} fm too coarse for node bracketing; "
                f"need <= {math.pi / (20.0 * k_max):g} fm"
            )
    return basis.phi2_zeros()


def de_broglie_check(report: NodeReport) -> float:
    """Ratio of the node spacing to half the de Broglie wavelength: ``report.ratio``.

    lambda = h c / sqrt((E-U0)^2 - m0^2 c^4) with h = 2 pi hbar; the ratio
    is exactly 1 analytically, and hbar cancels so it is scale invariant.
    """
    return report.ratio


def mean_momentum(basis: KgBasis, p: MobiusParams, x_a: float, x_b: float) -> float:
    """(S0(x_b) - S0(x_a)) / (x_b - x_a) across one node interval.

    The unwrapped action climbs exactly pi hbar between consecutive phi2
    zeros for every (a, b), so the value is pi hbar / (x_b - x_a); on a
    constant potential that equals the classical momentum.
    """
    if x_b <= x_a:
        raise ValueError("x_a must precede x_b")
    span = x_b - x_a
    zeros = basis.phi2_zeros(x_a - 0.01 * span, x_b + 0.01 * span)
    tol = 1e-6 * span
    if not (np.any(np.abs(zeros - x_a) <= tol) and np.any(np.abs(zeros - x_b) <= tol)):
        raise ValueError("x_a and x_b must both be zeros of phi2")
    between = zeros[(zeros > x_a + tol) & (zeros < x_b - tol)]
    if len(between):
        raise ValueError("x_a and x_b are not adjacent nodes")
    s_a, s_b = reduced_action(basis, p, [x_a, x_b])
    return float(s_b - s_a) / span


# Node intervals, and samples over them, of each classical_limit_scan
# trajectory.  The deviation from the straight line repeats every node
# interval; about 680 samples per interval place its maximum.
CLASSICAL_LIMIT_INTERVALS = 3
CLASSICAL_LIMIT_SAMPLES = 2048


def classical_limit_scan(s: Scenario, p: MobiusParams, epsilons) -> ClassicalLimitReport:
    """Deviation from the (1, 0) straight line as hbar is scaled down.

    For each eps the (a, b) trajectory is sampled over
    CLASSICAL_LIMIT_INTERVALS node intervals and the largest orthogonal
    distance to the straight-line member is recorded (distances live in
    the (ct, x) plane so both axes are lengths).  The deviation obeys the bound
    c sqrt(2 - ((E-U0)^2 - m0^2 c^4)/(E-U0)^2) * dt_n(eps), and dt_n is
    linear in hbar, so the fitted log-log slope is 1.
    """
    eps_arr = np.sort(np.asarray(list(epsilons), dtype=float))[::-1]
    if not (np.all(eps_arr > 0) and np.all(eps_arr <= 1)):
        raise ValueError("epsilons must lie in (0, 1]")
    r = constant_rates(s, RegionClass.ALLOWED)
    if eps_arr[0] == eps_arr[-1]:
        raise ValueError("the scaling fit needs at least two distinct epsilons")
    beta = math.sqrt(r.q2) / abs(r.u)      # v/c of the straight-line member
    slope = beta * s.c                      # fm / s
    bound_factor = s.c * math.sqrt(2.0 - r.q2 / r.u**2)

    deviations = []
    bounds = []
    for eps in eps_arr:
        s_eps = s.with_hbar_scale(float(eps))
        dt_n = math.pi / constant_rates(s_eps).omega
        ts = np.linspace(0.0, CLASSICAL_LIMIT_INTERVALS * dt_n, CLASSICAL_LIMIT_SAMPLES)
        xs = np.asarray(constant_allowed_position(s_eps, p, ts), dtype=float)
        line = p.x0 + slope * ts
        deviations.append(float(np.max(np.abs(xs - line)) / math.sqrt(1.0 + beta**2)))
        bounds.append(bound_factor * dt_n)
    deviations = np.array(deviations)
    bounds = np.array(bounds)
    exponent = float(np.polyfit(np.log(eps_arr), np.log(deviations), 1)[0])
    return ClassicalLimitReport(
        epsilons=eps_arr, deviations=deviations, bounds=bounds, exponent=exponent, params=p
    )


def linear_node_summary(s: Scenario, basis: KgBasis) -> NodeIntervals:
    """The intervals between consecutive phi2 zeros of a non-constant potential's window.

    Each interval n carries its ends, its spacing dx, the node-defined
    momentum pi hbar / dx, and the classical momentum at its midpoint.
    Fewer than three zeros leave the spacing law nothing to compare, and a
    zero past the far turning point (E + m0 c^2) / g lies beyond the
    forbidden band, where no trajectory of the window reaches: DomainError.
    """
    zeros = nodes_numeric(basis)
    far = turning_points(s)[1]
    past = zeros[zeros > far]
    if len(past):
        at = ", ".join(f"{z:.4g}" for z in past.tolist())
        raise DomainError(f"the window {basis.x_min:g} to {basis.x_max:g} fm holds phi2 zeros "
                          f"at {at} fm, past the far turning point {far:.4g} fm; the node "
                          "checks cover the allowed region before it")
    if len(zeros) < 3:
        raise DomainError(f"the window {basis.x_min:g} to {basis.x_max:g} fm holds {len(zeros)} "
                          "phi2 zeros; the node-spacing checks need at least 3")
    x_lo, x_hi = zeros[:-1], zeros[1:]
    dx = x_hi - x_lo
    q2 = local_rates(s, 0.5 * (x_lo + x_hi))[1]
    return NodeIntervals(n=np.arange(len(dx)), x_lo=x_lo, x_hi=x_hi, dx=dx,
                         p_node=math.pi * s.hbar / dx,
                         p_classical_mid=np.sqrt(np.where(q2 > 0, q2, np.nan)) / s.c)


def spacing_grows(intervals: NodeIntervals) -> bool:
    """Whether each linear_node_summary interval is wider than the one before.

    The momentum falls toward the turning point, so the spacing pi hbar / p
    grows; fewer than two intervals pass vacuously.
    """
    return bool(np.all(intervals.dx[1:] > intervals.dx[:-1]))


# ---------------------------------------------------------------------------
# Output.

def write_node_report_csv(report: NodeReport, path, scenario: Scenario):
    header = ["rqtlab node report", *scenario_header(scenario),
              "dx_m column is the spacing to the next node (last row repeats)",
              "columns: n, t_n_s, x_n_m, dx_m, lambda_half_m, ratio"]
    n = np.arange(len(report.node_times))
    dx = report.dx_spacings[np.minimum(n, len(report.dx_spacings) - 1)]
    return write_csv(path, header, (n, report.node_times, report.node_positions * METERS_PER_FM,
                                    dx * METERS_PER_FM,
                                    np.full(len(n), report.wavelength / 2.0 * METERS_PER_FM),
                                    np.full(len(n), report.ratio)))


def write_classical_csv(report: ClassicalLimitReport, path, scenario: Scenario):
    header = ["rqtlab classical-limit scan", *scenario_header(scenario),
              f"a = {report.params.a!r}", f"b = {report.params.b!r}",
              f"fitted_exponent = {report.exponent:.12e}",
              "columns: epsilon, deviation_m, bound_m"]
    return write_csv(path, header, (report.epsilons, report.deviations * METERS_PER_FM,
                                    report.bounds * METERS_PER_FM))
