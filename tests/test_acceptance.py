"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Everything here runs at desk scale on one core.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

import rqtlab as rq
from conftest import AB_GRID

HBAR = 6.582119569e-22
C = 2.99792458e23
ELECTRON_REST = 0.510998950

EXPECTED_DT_N = 1.10612e-21   # s
EXPECTED_DX_N = 3.2060e-13    # m


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_node_law_identity(electron_2mev):
    """Delta t_n and Delta x_n recovered from family crossings to 1e-9."""
    s = electron_2mev
    nd = rq.nodes_constant(s)
    dt_n, dx_n = nd.dt_spacing, float(nd.dx_spacings[0])

    params = [rq.MobiusParams(a, b) for a, b in AB_GRID]
    grid = np.linspace(0.0, 3.4 * dt_n, 4001)

    # Common crossings are where the family spread collapses.  The spread
    # has a steep envelope kink there, so locate candidate dips on the grid
    # and refine on the smooth difference of the two envelope members,
    # which swap vertical order through a genuine common crossing.
    def positions(t):
        return np.array([float(rq.constant_allowed_position(s, p, t)) for p in params])

    spreads = np.array([float(np.ptp(positions(t))) for t in grid])
    candidates = [
        i
        for i in range(1, len(grid) - 1)
        if spreads[i] < spreads[i - 1] and spreads[i] < spreads[i + 1]
    ]
    common = []
    for i in candidates:
        before = positions(grid[i - 1])
        hi_m, lo_m = params[int(np.argmax(before))], params[int(np.argmin(before))]
        gap = lambda t: float(
            rq.constant_allowed_position(s, hi_m, t) - rq.constant_allowed_position(s, lo_m, t)
        )
        if gap(grid[i - 1]) * gap(grid[i + 1]) >= 0:
            continue  # dip without an order swap is not a common crossing
        t_star = brentq(gap, grid[i - 1], grid[i + 1], xtol=1e-16 * dt_n, rtol=1e-15)
        xs = positions(t_star)
        if float(np.ptp(xs)) <= 1e-9 * abs(float(np.mean(xs))):
            common.append(t_star)
    common = np.array(sorted(common))
    assert len(common) >= 3, "expected at least three family-common crossings"

    # detected crossing times and positions match the closed-form node law
    expected_times = (np.arange(len(common)) + 0.5) * dt_n
    assert np.max(np.abs(common - expected_times) / dt_n) <= 1e-9
    for t_c, n in zip(common, range(len(common))):
        xs = np.array([float(rq.constant_allowed_position(s, p, t_c)) for p in params])
        assert np.ptp(xs) <= 1e-9 * abs(np.mean(xs))
        assert np.mean(xs) == pytest.approx((n + 0.5) * dx_n, rel=1e-9)

    # spacings extracted from the detected crossings, against the expected values
    dt_meas = float(np.mean(np.diff(common)))
    x_at = [float(rq.constant_allowed_position(s, params[0], t)) for t in common]
    dx_meas = float(np.mean(np.diff(x_at)))
    assert dt_meas == pytest.approx(dt_n, rel=1e-9)
    assert dx_meas == pytest.approx(dx_n, rel=1e-9)
    assert dt_meas == pytest.approx(EXPECTED_DT_N, rel=1e-5)
    assert dx_meas * 1e-15 == pytest.approx(EXPECTED_DX_N, rel=1e-4)
    _report(1, f"node law: dt_n = {dt_meas:.6e} s, dx_n = {dx_meas * 1e-15:.6e} m "
               f"from {len(common)} common crossings over a 3x3 (a,b) grid")


def test_criterion_02_half_wavelength_law(electron_2mev, photon_12mev):
    """de Broglie ratio dx / (lambda/2) = 1 within 1e-12."""
    r_e = rq.de_broglie_check(rq.nodes_constant(electron_2mev))
    r_p = rq.de_broglie_check(rq.nodes_constant(photon_12mev))
    assert abs(r_e - 1.0) <= 1e-12
    assert abs(r_p - 1.0) <= 1e-12
    _report(2, f"half-wavelength law: ratios 1 {abs(r_e - 1):.1e} (electron), "
               f"{abs(r_p - 1):.1e} (photon)")


def test_criterion_03_classical_reductions(electron_2mev, photon_12mev):
    """(a, b) = (1, 0) gives straight lines at the classical speeds."""
    nd = rq.nodes_constant(electron_2mev)
    p = rq.MobiusParams(1.0, 0.0)
    traj = rq.trajectory_constant_allowed(electron_2mev, p, (0.0, 3 * nd.dt_spacing), nd.dt_spacing / 64)
    beta = math.sqrt(4.0 - ELECTRON_REST**2) / 2.0
    line = beta * C * traj.times
    mask = traj.times > 0
    assert np.max(np.abs(traj.positions[mask] / line[mask] - 1.0)) <= 1e-12
    assert beta == pytest.approx(0.966809, rel=1e-6)

    ndp = rq.nodes_constant(photon_12mev)
    trp = rq.trajectory_photon(photon_12mev, p, (0.0, 3 * ndp.dt_spacing), ndp.dt_spacing / 64)
    maskp = trp.times > 0
    assert np.max(np.abs(trp.positions[maskp] / (C * trp.times[maskp]) - 1.0)) <= 1e-12
    _report(3, f"classical reductions: massive slope {beta:.6f} c, photon slope c, "
               f"both straight to 1e-12")


def test_criterion_04_oracle_equivalence(electron_2mev):
    """Quadrature trajectory vs closed form; numeric vs closed Klein-Gordon."""
    s = electron_2mev
    nd = rq.nodes_constant(s)
    dx_n = float(nd.dx_spacings[0])
    u, q2 = 2.0, 4.0 - ELECTRON_REST**2
    k = math.sqrt(q2) / s.hbar_c
    omega = q2 / (s.hbar * u)
    worst = 0.0
    x_lo = 10.0
    # the time-of-flight quadrature runs on a sampled basis (a closed form's time is
    # exact); started at x = 0 its data are the closed form's sin kx, cos kx with W = k,
    # so (a, b) name the same curves
    basis = rq.kg_solve_numeric(s, 0.0, x_lo + 3.2 * dx_n + 1.0)
    for a, b in ((1.0, 0.0), (4.0, 2.0), (0.5, -1.0)):
        p = rq.MobiusParams(a, b)
        ode = rq.trajectory_ode(s, basis, p, (x_lo, x_lo + 3.2 * dx_n), 60)
        t_shift = math.atan(a * math.tan(k * x_lo) + b) / omega
        pd = rq.dual_params(p)
        ref = rq.constant_allowed_position(s, pd, ode.times + t_shift)
        ref0 = rq.constant_allowed_position(s, pd, t_shift)
        worst = max(worst, float(np.max(np.abs((ode.positions - x_lo) - (ref - ref0)))))
    assert worst <= 1e-6 * dx_n

    s_fast = s.with_hbar_scale(0.01)
    k_f = rq.kg_closed_constant(s_fast).wronskian
    span = 10 * 2 * math.pi / k_f
    bn = rq.kg_solve_numeric(s_fast, 0.0, span, step=1e-3, method="rk4")
    xs = bn.grid
    kg_err = max(
        float(np.max(np.abs(bn.phi12(xs)[0] - np.sin(k_f * xs)))),
        float(np.max(np.abs(bn.phi12(xs)[1] - np.cos(k_f * xs)))),
    )
    assert kg_err <= 1e-6

    span5 = 5 * 2 * math.pi / k_f

    def max_err(method, step):
        b = rq.kg_solve_numeric(s_fast, 0.0, span5, step=step, method=method)
        return float(np.max(np.abs(b.phi12(b.grid)[1] - np.cos(k_f * b.grid))))

    r_euler = max_err("euler", 2e-3) / max_err("euler", 1e-3)
    r_rk4 = max_err("rk4", 0.08) / max_err("rk4", 0.04)
    assert abs(r_euler - 2.0) <= 0.15 * 2.0
    assert abs(r_rk4 - 16.0) <= 0.15 * 16.0
    _report(4, f"oracle equivalence: trajectory {worst / dx_n:.2e} dx_n, "
               f"Klein-Gordon {kg_err:.2e}, Richardson ratios {r_euler:.2f} / {r_rk4:.2f}")


def test_criterion_05_action_quantum(electron_basis, linear_basis):
    """S0 steps by pi hbar between adjacent nodes for every (a, b)."""
    zs_c = electron_basis.phi2_zeros(0.0, 1500.0)
    zs_l = linear_basis.phi2_zeros()
    worst = 0.0
    for a, b in AB_GRID:
        p_c = rq.MobiusParams(a, b)
        jump_c = np.diff(rq.reduced_action(electron_basis, p_c, zs_c[:2]))[0]
        p_l = rq.MobiusParams(a, b, x0=float(zs_l[0]) - 1.0)
        jump_l = np.diff(rq.reduced_action(linear_basis, p_l, zs_l[4:6]))[0]
        worst = max(
            worst,
            abs(jump_c / (math.pi * HBAR) - 1.0),
            abs(jump_l / (math.pi * HBAR) - 1.0),
        )
    assert worst <= 1e-10
    _report(5, f"action quantum: S0 jumps of pi hbar to {worst:.1e} "
               f"(constant and linear potentials, 3x3 grid)")


def test_criterion_06_wronskian_constancy(
    electron_basis, photon_basis, forbidden_electron, linear_electron, linear_basis
):
    """Drift below 1e-8 (closed form) and 1e-5 (numeric, default step)."""
    d1 = rq.wronskian_drift(electron_basis)
    d2 = rq.wronskian_drift(photon_basis)
    d3 = rq.wronskian_drift(rq.kg_closed_constant(forbidden_electron))
    for d in (d1, d2, d3):
        assert d <= 1e-8
    b_lin = rq.kg_solve_numeric(linear_electron, -5.0, 5.0, step=1e-3, method="rk4")
    d4 = rq.wronskian_drift(b_lin)
    d5 = rq.wronskian_drift(linear_basis)
    assert d4 <= 1e-5 and d5 <= 1e-5
    _report(6, f"Wronskian constancy: closed <= {max(d1, d2, d3):.1e}, "
               f"numeric <= {max(d4, d5):.1e}")


def test_criterion_07_residual_suite(electron_2mev, photon_12mev, electron_basis, linear_basis):
    """Hamilton-Jacobi, first-integral, and velocity-momentum residuals."""
    s, sp_ = electron_2mev, photon_12mev
    nd, ndp = rq.nodes_constant(s), rq.nodes_constant(sp_)
    p10, p42 = rq.MobiusParams(1.0, 0.0), rq.MobiusParams(4.0, 2.0)

    # analytic-vanishing tier
    hj10 = float(np.max(rq.rqshje_residual(electron_basis, p10, [-311.0, 8.0, 702.0])[0]))
    t3 = (0.0, 3 * nd.dt_spacing)
    fq10 = rq.firqnl_residual(s, p10, t3, 49)
    vm10 = rq.velocity_momentum_check(s, p10, t3, 301)
    assert hj10 <= 1e-6 and fq10 <= 1e-6 and vm10 <= 1e-6

    # generic members at their recorded bounds
    hj42 = float(np.max(rq.rqshje_residual(electron_basis, p42, np.linspace(-300.0, 300.0, 31))[0]))
    fq42 = rq.firqnl_residual(s, p42, t3, 6001)
    vm42 = rq.velocity_momentum_check(s, p42, t3, 301)
    assert hj42 <= 1e-4 and fq42 <= 1e-3 and vm42 <= 1e-6

    p21, t3p = rq.MobiusParams(2.0, 1.0), (0.0, 3 * ndp.dt_spacing)
    fq_ph = rq.firqnl_residual(sp_, p21, t3p, 6001)
    vm_ph = rq.velocity_momentum_check(sp_, p21, t3p, 301)
    assert fq_ph <= 1e-3 and vm_ph <= 1e-6

    hj_lin = float(np.max(rq.rqshje_residual(linear_basis, p42, np.linspace(-390.0, 0.0, 31))[0]))
    assert hj_lin <= 1e-3
    _report(7, f"residual suite: straight tier <= {max(hj10, fq10, vm10):.1e}, "
               f"generic {hj42:.1e}/{fq42:.1e}/{vm42:.1e}, photon {fq_ph:.1e}, "
               f"linear {hj_lin:.1e}")


def test_criterion_08_forbidden_region(forbidden_electron, photon_12mev):
    """Analytic blow-up bracketing, no nodes, photon sign symmetry."""
    s = forbidden_electron
    p = rq.MobiusParams(4.0, 2.0)
    q2f = ELECTRON_REST**2 - 0.3**2
    omega_f = q2f / (s.hbar * 0.3)
    period = math.pi / omega_f
    dt = period / 5000
    traj, events = rq.trajectory_constant_forbidden(s, p, (0.0, 2 * period), dt, x_ceiling=1200.0)
    interior = [e for e in events if traj.times[0] < e.t_star < traj.times[-1]]
    assert len(interior) >= 3
    for ev in interior:
        i = int(np.searchsorted(traj.times, ev.t_star))
        assert traj.times[i] - traj.times[i - 1] > 1.5 * dt  # clipped hole straddles t*

    assert len(rq.nodes_numeric(rq.kg_closed_constant(s, -500.0, 500.0))) == 0

    s_neg = rq.Scenario(rq.Species.photon(), rq.Potential.constant(2.4), energy=1.2)
    ndp = rq.nodes_constant(photon_12mev)
    t_pos = rq.trajectory_photon(photon_12mev, p, (0.0, 2 * ndp.dt_spacing), ndp.dt_spacing / 128)
    t_neg = rq.trajectory_photon(s_neg, p, (0.0, 2 * ndp.dt_spacing), ndp.dt_spacing / 128)
    assert np.array_equal(t_pos.positions, t_neg.positions)
    _report(8, f"forbidden region: {len(interior)} divergences bracketed, "
               f"no massive nodes, photon families identical for +-|E-U0|")


def test_criterion_09_classical_limit(electron_2mev):
    """Deviations shrink with hbar, respect the bound, and scale linearly."""
    rep = rq.classical_limit_scan(
        electron_2mev, rq.MobiusParams(4.0, 2.0), [1.0, 0.5, 0.25, 0.125]
    )
    assert np.all(np.diff(rep.deviations) < 0)
    assert np.all(rep.deviations <= rep.bounds)
    assert 0.9 <= rep.exponent <= 1.1
    _report(9, f"classical limit: exponent {rep.exponent:.4f}, "
               f"deviations {rep.deviations[0]:.3g} -> {rep.deviations[-1]:.3g} fm under bounds")


def test_criterion_10_linear_potential_nodes(linear_electron, linear_basis):
    """Spacing grows toward the turning point; pi hbar / dx tracks p(x)."""
    intervals = rq.linear_node_summary(linear_electron, linear_basis)
    assert len(intervals.n) >= 10
    dxs = intervals.dx.tolist()
    assert all(dxs[i] < dxs[i + 1] for i in range(len(dxs) - 1))
    worst = float(np.max(np.abs(intervals.p_node / intervals.p_classical_mid - 1.0)))
    assert worst <= 0.05
    _report(10, f"linear potential: {len(intervals.n) + 1} nodes, spacing monotone, "
                f"local momentum within {worst * 100:.2f}% of classical")
