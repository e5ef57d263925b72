"""Regenerate the oracle references that perfbench/run.py compares against.

Linear potential V = g x.  With z = (E - g x) / sqrt(g hbar c / 2) and
a = m0^2 c^4 / (2 g hbar c) the Klein-Gordon equation becomes Weber's
equation w'' + (z^2/4 - a) w = 0, solved by W(a, z) and W(a, -z)
(DLMF 12.14), which mpmath evaluates at any precision (``mpmath.pcfw``).
phi1 and phi2 are fitted to the integrator's documented initial conditions
at x_min (phi1 = 0, phi1' = k0; phi2 = 1, phi2' = 0).

* Nodes (zeros of phi2) come from the phase of the complex solution
  E(a, z) = k^-1/2 W(a, z) + i k^1/2 W(a, -z) = F e^{i theta} (DLMF
  12.14.17-12.14.21): phi2 is proportional to F cos(theta - delta), so node
  n sits where theta takes a known value, and the phase also gives the
  total node count in the window independently of any sampling.
* Times of flight of the (a, b) = (1, 0) member are integrals of 1/xdot,
  xdot = K(x) (phi1^2 + phi2^2) / (hbar k0), with Gauss-Legendre panels of
  half a local wavelength.

Constant potential: nodes sit at (n + 1/2) pi hbar c / sqrt((E - U0)^2 - m0^2).

Only public rqtlab names are used, for the physical constants.  Run from
the repository root (about 20 s on one core):

    python3 perfbench/oracle.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
import rqtlab as rq  # noqa: E402

REFS = Path(__file__).resolve().parent / "oracle_refs.json"
DPS = 30
GL_ORDER = 10
N_SAMPLES = 600   # trajectory samples over [x_min, turning point], the CLI default


class WeberBasis:
    """phi1, phi2 of V = g x, exact to DPS digits."""

    def __init__(self, s, x_min: float, x_max: float):
        self.E = mp.mpf(s.energy)
        self.g = mp.mpf(s.potential.g)
        self.m = mp.mpf(s.rest_energy)
        self.hc = mp.mpf(s.hbar_c)
        self.hbar = mp.mpf(s.hbar)
        self.a = self.m**2 / (2 * self.g * self.hc)
        self.sc = mp.sqrt(self.g * self.hc / 2)
        self.kw = mp.sqrt(1 + mp.exp(2 * mp.pi * self.a)) - mp.exp(mp.pi * self.a)
        self.theta_c = mp.arg(mp.gamma(mp.mpf(0.5) + 1j * self.a)) / 2 + mp.pi / 4
        self.x_min, self.x_max = mp.mpf(x_min), mp.mpf(x_max)
        self.k0 = max(self.k(self.x_min), 1 / (self.x_max - self.x_min))
        z0 = self.z(self.x_min)
        dzdx = -self.g / self.sc
        self.c1 = self._fit(z0, 0, self.k0 / dzdx)   # phi1 = 0, phi1' = k0
        self.c2 = self._fit(z0, 1, 0)                # phi2 = 1, phi2' = 0
        al, be = self.c2
        self.delta = mp.atan2(be / mp.sqrt(self.kw), al * mp.sqrt(self.kw))

    def z(self, x):
        return (self.E - self.g * x) / self.sc

    def x(self, z):
        return (self.E - self.sc * z) / self.g

    def k(self, x):
        u = self.E - self.g * x
        return mp.sqrt(u * u - self.m**2) / self.hc

    def _u(self, z):
        return mp.pcfw(self.a, z), mp.pcfw(self.a, -z)

    def _fit(self, z0, f, fp):
        """(alpha, beta) with alpha W(a,z) + beta W(a,-z) = f, d/dz = fp at z0."""
        u1, u2 = self._u(z0)
        d1 = mp.diff(lambda t: mp.pcfw(self.a, t), z0)
        d2 = -mp.diff(lambda t: mp.pcfw(self.a, t), -z0)
        wr = u1 * d2 - d1 * u2
        return (f * d2 - fp * u2) / wr, (u1 * fp - d1 * f) / wr

    def phis(self, x):
        u1, u2 = self._u(self.z(x))
        return self.c1[0] * u1 + self.c1[1] * u2, self.c2[0] * u1 + self.c2[1] * u2

    def theta(self, z):
        """Unwrapped phase of E(a, z); the asymptotic form picks the branch."""
        u1, u2 = self._u(z)
        th = mp.atan2(mp.sqrt(self.kw) * u2, u1 / mp.sqrt(self.kw))
        approx = z * z / 4 - self.a * mp.log(z) + self.theta_c
        th += 2 * mp.pi * mp.nint((approx - th) / (2 * mp.pi))
        if abs(approx - th) >= 1.0:
            raise RuntimeError(f"asymptotic phase too far off to pick a branch at z = {z}")
        return th, u1 * u1 / self.kw + self.kw * u2 * u2

    def node_targets(self):
        """Phase of node 0 (nearest x_min) and the number of nodes in the window."""
        ta, _ = self.theta(self.z(self.x_min))
        tb, _ = self.theta(self.z(self.x_max))
        j_max = int(mp.floor((ta - self.delta - mp.pi / 2) / mp.pi))
        j_min = int(mp.ceil((tb - self.delta - mp.pi / 2) / mp.pi))
        return self.delta + mp.pi / 2 + j_max * mp.pi, j_max - j_min + 1

    def node(self, theta0, n: int):
        """x of node n: Newton on theta(z) = target, theta' = 1/F^2."""
        target = theta0 - n * mp.pi
        if target > self.theta_c + 2:
            z = mp.sqrt(4 * (target - self.theta_c))   # leading asymptotic order
        else:
            # near the turning point theta is far from its asymptotic form:
            # bisect on the monotone phase first
            lo, hi = self.z(self.x_max), mp.mpf(4)
            for _ in range(30):
                z = (lo + hi) / 2
                lo, hi = (z, hi) if self.theta(z)[0] < target else (lo, z)
        for _ in range(60):
            th, f2 = self.theta(z)
            step = (th - target) * f2
            z -= step
            if abs(step) < mp.mpf(10) ** (-DPS + 5):
                break
        else:
            raise RuntimeError(f"node {n} did not converge")
        _, phi2 = self.phis(self.x(z))
        if abs(phi2) >= mp.mpf(10) ** (-DPS + 8):
            raise RuntimeError(f"node {n} is not a zero of phi2")
        return self.x(z)

    def inv_speed(self, x):
        """1/xdot of the (1, 0) member, s/fm."""
        p1, p2 = self.phis(x)
        u = self.E - self.g * x
        return self.hbar * self.k0 / ((u - self.m**2 / u) * (p1 * p1 + p2 * p2))

    def tof(self, x_targets, order: int = GL_ORDER):
        """t(x) - t(x_min) at increasing x_targets, plus xdot there."""
        gx, gw = np.polynomial.legendre.leggauss(order)
        gx, gw = [mp.mpf(float(v)) for v in gx], [mp.mpf(float(v)) for v in gw]
        t, x, out = mp.mpf(0), self.x_min, []
        for xt in x_targets:
            xt = mp.mpf(xt)
            while x < xt:
                hi = min(x + mp.pi / self.k(x), xt)
                mid, half = (x + hi) / 2, (hi - x) / 2
                t += half * mp.fsum(w * self.inv_speed(mid + half * q) for q, w in zip(gx, gw))
                x = hi
            out.append((t, 1 / self.inv_speed(xt)))
        return out


def linear_refs(s, x_min: float, node_picks: int | None, tof_samples: list[int]) -> dict:
    turning = (s.energy - s.rest_energy) / s.potential.g
    basis = WeberBasis(s, x_min, turning + 2.0)
    theta0, count = basis.node_targets()
    picks = range(count) if node_picks is None else sorted(
        {round(i * (count - 1) / (node_picks - 1)) for i in range(node_picks)})
    nodes = [[n, float(basis.node(theta0, n))] for n in picks]
    xs = np.linspace(x_min, turning, N_SAMPLES)
    x_t = [float(xs[i]) for i in tof_samples]
    tof = basis.tof(x_t)
    check = basis.tof(x_t[:1], order=GL_ORDER + 4)[0][0]
    rel = abs(check - tof[0][0]) / check
    if rel >= 1e-14:
        raise RuntimeError(f"Gauss-Legendre order {GL_ORDER} not converged ({rel})")
    return {
        "x_min_fm": x_min,
        "node_count": count,
        "nodes": nodes,
        "tof": [
            {"sample": i, "x_fm": x, "t_s": float(t), "speed_fm_per_s": float(v),
             "dx_local_fm": float(mp.pi / basis.k(mp.mpf(x)))}
            for i, x, (t, v) in zip(tof_samples, x_t, tof)
        ],
    }


def constant_nodes(s, n_nodes: int) -> list[float]:
    u = mp.mpf(s.energy) - mp.mpf(s.potential.u0)
    dx = mp.pi * mp.mpf(s.hbar_c) / mp.sqrt(u * u - mp.mpf(s.rest_energy) ** 2)
    return [float((n + mp.mpf(0.5)) * dx) for n in range(n_nodes)]


def main() -> int:
    mp.mp.dps = DPS
    lin = rq.Scenario(rq.Species.electron(), rq.Potential.linear(0.25), energy=2.0)
    refs = {
        "fig4_linear": linear_refs(lin, rq.m_to_fm(-5.4e-12), 33, [1, 2, 3]),
        "linear_gates": linear_refs(lin, -400.0, None, [1, 150, 300, 450, 560]),
        "constant_electron": constant_nodes(
            rq.Scenario(rq.Species.electron(), rq.Potential.constant(0.0), energy=2.0), 16),
        "constant_photon": constant_nodes(
            rq.Scenario(rq.Species.photon(), rq.Potential.constant(0.0), energy=1.2), 4),
    }
    REFS.write_text(json.dumps(refs, indent=1) + "\n")
    for name in ("fig4_linear", "linear_gates"):
        print(f"{name}: {refs[name]['node_count']} nodes, {len(refs[name]['nodes'])} kept")
    print(f"wrote {REFS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
