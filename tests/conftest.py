import tracemalloc

import pytest

import rqtlab as rq

# the family grid used throughout the checks
AB_GRID = [(a, b) for a in (0.5, 1.0, 4.0) for b in (-2.0, 0.0, 2.0)]


def flow_speed(s, basis, p, x):
    """dx/dt of the action flow at x, in fm/s (positive-x convention): the reference 1/xdot.

    [E - V - m0^2 c^4/(E - V)] [phi2^2 + (a phi1 + b phi2)^2] / (hbar a W).
    """
    (phi1, phi2), kf = basis.phi12(x), rq.kinetic_factor(s, x)
    return kf * (phi2 * phi2 + (p.a * phi1 + p.b * phi2) ** 2) / (s.hbar * p.a * basis.wronskian)


def traced_peak(call):
    """(call(), the traced bytes at its peak, and those it leaves), over the bytes traced before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = call()
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        if not tracing:
            tracemalloc.stop()
    return out, peak, held


@pytest.fixture(scope="session")
def electron_2mev():
    return rq.Scenario(
        species=rq.Species.electron(), potential=rq.Potential.constant(0.0), energy=2.0
    )


@pytest.fixture(scope="session")
def photon_12mev():
    return rq.Scenario(
        species=rq.Species.photon(), potential=rq.Potential.constant(0.0), energy=1.2
    )


@pytest.fixture(scope="session")
def forbidden_electron():
    # E - U0 = 0.3 MeV < m0 c^2
    return rq.Scenario(
        species=rq.Species.electron(), potential=rq.Potential.constant(1.7), energy=2.0
    )


@pytest.fixture(scope="session")
def linear_electron():
    return rq.Scenario(
        species=rq.Species.electron(), potential=rq.Potential.linear(0.25), energy=2.0
    )


@pytest.fixture(scope="session")
def electron_basis(electron_2mev):
    return rq.kg_closed_constant(electron_2mev, -3000.0, 3000.0)


@pytest.fixture(scope="session")
def photon_basis(photon_12mev):
    return rq.kg_closed_constant(photon_12mev, -3000.0, 3000.0)


@pytest.fixture(scope="session")
def linear_basis(linear_electron):
    # wide enough for ~34 node intervals; reused by several suites
    return rq.kg_solve_numeric(linear_electron, -400.0, 8.0, step=2e-3, method="rk4")
