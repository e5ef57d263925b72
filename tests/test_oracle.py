"""Figure 4 against the arbitrary-precision oracle for the linear potential.

``perfbench/oracle_refs.json`` holds mpmath parabolic-cylinder (Weber
function) references for the figure 4 window: the node count, 33 nodes of
phi2 spread along it and the time of flight of the (a, b) = (1, 0) member at
its first trajectory samples.  This file only reads them.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import rqtlab as rq
from test_kg import _reference_zeros

REFS = Path(__file__).resolve().parents[1] / "perfbench" / "oracle_refs.json"
N_SAMPLES = 600  # the CLI default, which the oracle's sample indices refer to


@pytest.fixture(scope="module")
def fig4():
    ref = json.loads(REFS.read_text())["fig4_linear"]
    s = rq.Scenario(rq.Species.electron(), rq.Potential.linear(0.25), energy=2.0)
    turning = (s.energy - s.rest_energy) / s.potential.g
    basis = rq.kg_solve_numeric(s, ref["x_min_fm"], turning + 2.0)  # the library defaults
    return s, basis, turning, ref


def test_figure4_nodes_against_oracle(fig4):
    _, basis, _, ref = fig4
    nodes = basis.phi2_zeros()
    assert len(nodes) == ref["node_count"] == 5897
    assert len(ref["nodes"]) == 33
    worst = max(abs(nodes[n] - x) for n, x in ref["nodes"])
    # 3.0e-11 fm with the default sixth-order Magnus step (the fourth-order
    # step at 1e-2 fm left 8.9e-11, RK4 at 1e-3 fm 1.5e-6)
    assert worst <= 1e-10


def test_figure4_nodes_against_reference_polish(fig4):
    # the roots of the septic interpolant against phi2 polished on the ODE itself
    _, basis, _, _ = fig4
    nodes = basis.phi2_zeros()
    ref = _reference_zeros(basis)
    assert len(ref) == len(nodes) == 5897
    assert np.max(np.abs(nodes - ref)) <= 1e-11


def test_figure4_third_newton_step_moves_no_root(fig4):
    # the roots take three Newton steps on the septic; on figure 4's phase grid,
    # whose cells reach 5e-2 fm, two already reach rounding level
    _, basis, _, _ = fig4
    xs, _, p2 = basis._samples[:3]
    j = np.flatnonzero(p2[:-1] * p2[1:] < 0.0)
    lo, hi = xs[j], xs[j + 1]
    x = lo + p2[j] / (p2[j] - p2[j + 1]) * (hi - lo)
    jets = basis._jets(j, hi - lo), basis._jets(j + 1, hi - lo)
    for _ in range(2):
        x = np.clip(x - basis._hermite(x, j, jets=jets)[1] / basis._hermite(x, j, True, jets)[1],
                    lo, hi)
    nodes = basis.phi2_zeros()
    assert len(x) == len(nodes) == 5897
    assert np.all(np.abs(nodes - np.sort(x)) <= 2 * np.spacing(np.abs(nodes)))


def test_figure4_time_of_flight_against_oracle(fig4):
    s, basis, turning, ref = fig4
    traj = rq.trajectory_ode(s, basis, rq.MobiusParams(1.0, 0.0), (ref["x_min_fm"], turning),
                             N_SAMPLES)
    assert len(ref["tof"]) == 3
    for point in ref["tof"]:
        i = point["sample"]
        assert traj.positions[i] == pytest.approx(point["x_fm"], rel=1e-12)
        # time error as a distance travelled, in local node spacings; the
        # default basis leaves 5.4e-13 at the third sample
        dev = abs(traj.times[i] - point["t_s"]) * point["speed_fm_per_s"] / point["dx_local_fm"]
        assert dev <= 5e-11
    assert np.all(np.diff(traj.times) > 0)
