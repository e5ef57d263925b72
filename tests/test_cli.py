"""Command-line front end: file outputs, determinism, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rqtlab
from rqtlab.cli import main

C_M_PER_S = 2.99792458e8


def _write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_csv(path):
    rows = [
        [float(v) for v in line.split(",")]
        for line in path.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    return np.array(rows)


class TestFigureCommand:
    def test_figure1_outputs(self, tmp_path, capsys):
        assert main(["figure", "1", "--out", str(tmp_path / "f1"), "--samples", "200"]) == 0
        files = sorted(p.name for p in (tmp_path / "f1").glob("*.csv"))
        assert files == [
            "fig1_nodes.csv",
            "fig1_traj_a0p5_bm1.csv",
            "fig1_traj_a1_b0.csv",
            "fig1_traj_a4_b2.csv",
        ]

    def test_figure1_deterministic(self, tmp_path):
        main(["figure", "1", "--out", str(tmp_path / "a"), "--samples", "120"])
        main(["figure", "1", "--out", str(tmp_path / "b"), "--samples", "120"])
        for p in (tmp_path / "a").glob("*.csv"):
            assert p.read_bytes() == (tmp_path / "b" / p.name).read_bytes()

    def test_figure1_common_nodes_across_family(self, tmp_path):
        main(["figure", "1", "--out", str(tmp_path / "f"), "--samples", "96"])
        nodes = _read_csv(tmp_path / "f" / "fig1_nodes.csv")
        trajs = [
            _read_csv(tmp_path / "f" / f"fig1_traj_{tag}.csv")
            for tag in ("a1_b0", "a4_b2", "a0p5_bm1")
        ]
        t_node, x_node = nodes[0][1], nodes[0][2]
        for data in trajs:
            i = int(np.argmin(np.abs(data[:, 0] - t_node)))
            assert data[i, 0] == pytest.approx(t_node, rel=1e-12)  # node merged into grid
            assert data[i, 1] == pytest.approx(x_node, rel=1e-9)

    def test_figure2_prints_divergence_times(self, tmp_path, capsys):
        assert main(["figure", "2", "--out", str(tmp_path / "f2"), "--samples", "64"]) == 0
        out = capsys.readouterr().out
        assert "divergence times t*" in out
        assert "no nodes" in out

    def test_figure3_straight_member_moves_at_c(self, tmp_path):
        main(["figure", "3", "--out", str(tmp_path / "f3"), "--samples", "64"])
        data = _read_csv(tmp_path / "f3" / "fig3_traj_a1_b0.csv")
        mask = data[:, 0] > 0
        assert np.allclose(data[mask, 1] / data[mask, 0], C_M_PER_S, rtol=1e-9)

    def test_figure4_small_window(self, tmp_path, capsys):
        rc = main([
            "figure", "4", "--out", str(tmp_path / "f4"),
            "--x0", "-60", "--step", "2e-3", "--samples", "64",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "turning point" in out
        # the node times are the library's quadrature, written out
        s = rqtlab.Scenario(rqtlab.Species.electron(), rqtlab.Potential.linear(0.25), energy=2.0)
        turning = (s.energy - s.rest_energy) / s.potential.g
        basis = rqtlab.kg_solve_numeric(s, -60.0, turning + 2.0, step=2e-3)
        nodes = basis.phi2_zeros()
        rows = _read_csv(tmp_path / "f4" / "fig4_nodes.csv")
        assert np.allclose(rows[:, 2], nodes * 1e-15, rtol=1e-12, atol=0.0)
        ref = rqtlab.trajectory_ode_family(s, basis, [rqtlab.MobiusParams(1.0, 0.0, -60.0)],
                                           (-60.0, turning), 64, nodes=nodes)[0]
        assert np.allclose(rows[:, 1], ref.node_times, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("ab", [None, "4,2;0.5,-1"])
    def test_figure4_one_time_of_flight_pass(self, tmp_path, monkeypatch, ab):
        # the trajectories and the node times come from one quadrature pass,
        # whether or not --ab lists the (1, 0) member the node times follow
        calls = []
        gauss = rqtlab.trajectory._cumulative_time_gauss
        monkeypatch.setattr(rqtlab.trajectory, "_cumulative_time_gauss",
                            lambda *a: calls.append(len(a[2])) or gauss(*a))
        family = ["--ab", ab] if ab else []
        assert main(["figure", "4", "--out", str(tmp_path / "f4"), "--x0", "-60",
                     "--step", "2e-3", "--samples", "64", *family]) == 0
        assert calls == [3]

    def test_figure4_nodes_without_reference_member(self, tmp_path):
        # the node times come from the forward (1, 0) member's quadrature
        # whatever --ab lists: all of it, neither, or only its mirror (-1, 0)
        window = ["--x0", "-60", "--step", "2e-3", "--samples", "64"]
        assert main(["figure", "4", "--out", str(tmp_path / "all"), *window]) == 0
        assert main(["figure", "4", "--out", str(tmp_path / "two"), "--ab", "4,2;0.5,-1",
                     *window]) == 0
        assert main(["figure", "4", "--out", str(tmp_path / "mirror"), "--ab=-1,0", *window]) == 0
        two = tmp_path / "two"
        assert sorted(p.name for p in two.glob("*.csv")) == [
            "fig4_nodes.csv", "fig4_traj_a0p5_bm1.csv", "fig4_traj_a4_b2.csv",
        ]
        nodes = (tmp_path / "all" / "fig4_nodes.csv").read_bytes()
        assert (two / "fig4_nodes.csv").read_bytes() == nodes
        assert (tmp_path / "mirror" / "fig4_nodes.csv").read_bytes() == nodes
        assert (two / "fig4_traj_a4_b2.csv").read_bytes() == (
            tmp_path / "all" / "fig4_traj_a4_b2.csv").read_bytes()

    def test_species_mismatch_rejected(self, tmp_path):
        cfg = _write_cfg(tmp_path, "species = electron\nenergy_mev = 2\n")
        assert main(["figure", "3", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_low_sample_count_rejected(self, tmp_path):
        assert main(["figure", "1", "--out", str(tmp_path / "x"), "--samples", "4"]) == 2


class TestReportCommand:
    def test_electron_report_passes(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "3.206015187601e-13" in out  # dx_n in metres
        assert "ratio dx/(lambda/2) : 1.000000000000" in out
        assert "FAIL" not in out

    def test_photon_report(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "species = photon\nenergy_mev = 1.2\n")
        assert main(["report", "--config", cfg]) == 0
        assert "5.166008267650e-13" in capsys.readouterr().out

    def test_forbidden_reports_no_nodes(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "species = electron\nenergy_mev = 2\nu0_mev = 1.7\n")
        assert main(["report", "--config", cfg]) == 0
        assert "nodes: none" in capsys.readouterr().out

    def test_linear_report(self, tmp_path, capsys):
        cfg = _write_cfg(
            tmp_path, "species = electron\nenergy_mev = 2\npotential = linear\ng_mev_per_fm = 0.25\n"
        )
        assert main(["report", "--config", cfg, "--x-min", "-120", "--step", "2e-3"]) == 0
        out = capsys.readouterr().out
        assert "spacing growth toward turning point: True" in out

    def test_writes_node_csv_when_asked(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "rep")]) == 0
        assert (tmp_path / "rep" / "node_report.csv").exists()


class TestResidualsCommand:
    def test_constant_potential_all_pass(self, tmp_path, capsys):
        rc = main(["residuals", "--out", str(tmp_path / "r"), "--samples", "48"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 9  # three checks per family member
        assert "FAIL" not in out
        assert (tmp_path / "r" / "residuals_a1_b0.csv").exists()

    def test_mirrored_members(self, tmp_path, capsys):
        # (-1, 0.5) is (1, -0.5) run backwards: both pass, each with its own CSV
        rc = main(["residuals", "--out", str(tmp_path / "r"), "--samples", "48",
                   "--ab", "2,1;-1,0.5;1,-0.5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert sorted(p.name for p in (tmp_path / "r").glob("*.csv")) == [
            "residuals_a1_bm0p5.csv", "residuals_a2_b1.csv", "residuals_am1_b0p5.csv"]

    def test_linear_potential(self, tmp_path, capsys):
        cfg = _write_cfg(
            tmp_path, "species = electron\nenergy_mev = 2\npotential = linear\ng_mev_per_fm = 0.25\n"
        )
        rc = main([
            "residuals", "--config", cfg, "--out", str(tmp_path / "r"),
            "--samples", "24", "--x-min", "-60", "--step", "2e-3", "--ab", "1,0;4,2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kg_fd_residual" in out
        assert "FAIL" not in out

    def test_photon(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "species = photon\nenergy_mev = 1.2\n")
        rc = main([
            "residuals", "--config", cfg, "--out", str(tmp_path / "r"),
            "--samples", "32", "--ab", "1,0;2,1",
        ])
        assert rc == 0
        assert "FAIL" not in capsys.readouterr().out


class TestOtherCommands:
    def test_trajectory_files(self, tmp_path):
        assert main([
            "trajectory", "--out", str(tmp_path / "t"), "--samples", "48", "--ab", "1,0;4,2",
        ]) == 0
        assert (tmp_path / "t" / "traj_a1_b0.csv").exists()
        assert (tmp_path / "t" / "traj_a4_b2.csv").exists()

    def test_forbidden_trajectory_clips(self, tmp_path):
        cfg = _write_cfg(tmp_path, "species = electron\nenergy_mev = 2\nu0_mev = 1.7\n")
        assert main([
            "trajectory", "--config", cfg, "--out", str(tmp_path / "t"),
            "--samples", "256", "--ab", "4,2", "--ceiling", "1000",
        ]) == 0
        data = _read_csv(tmp_path / "t" / "traj_a4_b2.csv")
        assert np.max(np.abs(data[:, 1])) <= 1000 * 1e-15

    def test_nodes_constant(self, tmp_path):
        assert main(["nodes", "--out", str(tmp_path / "n")]) == 0
        data = _read_csv(tmp_path / "n" / "nodes.csv")
        assert data[0][2] == pytest.approx(1.6030e-13, rel=1e-4)

    def test_nodes_linear(self, tmp_path):
        cfg = _write_cfg(
            tmp_path, "species = electron\nenergy_mev = 2\npotential = linear\ng_mev_per_fm = 0.25\n"
        )
        assert main([
            "nodes", "--config", cfg, "--out", str(tmp_path / "n"),
            "--x-min", "-120", "--step", "2e-3",
        ]) == 0
        data = _read_csv(tmp_path / "n" / "nodes.csv")
        assert np.all(np.diff(data[:, 3]) > 0)  # spacings grow

    def test_nodes_linear_fails_when_spacing_does_not_grow(self, tmp_path, capsys, monkeypatch):
        cfg = _write_cfg(
            tmp_path, "species = electron\nenergy_mev = 2\npotential = linear\ng_mev_per_fm = 0.25\n"
        )
        summary = rqtlab.cli.linear_node_summary
        monkeypatch.setattr(rqtlab.cli, "linear_node_summary", lambda s, b: summary(s, b)[::-1])
        assert main([
            "nodes", "--config", cfg, "--out", str(tmp_path / "n"),
            "--x-min", "-120", "--step", "2e-3",
        ]) == 1
        out = capsys.readouterr().out
        assert "spacing grows" not in out
        assert "FAILED checks: node_spacing_monotone" in out

    def test_kg_solve(self, tmp_path, capsys):
        assert main([
            "kg-solve", "--out", str(tmp_path / "kg"),
            "--x-min", "0", "--x-max", "50", "--step", "1e-2",
        ]) == 0
        out = capsys.readouterr().out
        assert "wronskian" in out
        assert "check wronskian_drift: PASS" in out
        header = (tmp_path / "kg" / "kg_basis.csv").read_text().splitlines()[:12]
        assert any("columns: x_fm, phi1, phi2, dphi1, dphi2" in l for l in header)

    def test_kg_solve_euler_fails_drift_gate(self, tmp_path, capsys):
        # Euler at the default 2e-2 fm step drifts twenty times the tolerance
        assert main(["kg-solve", "--method", "euler", "--out", str(tmp_path / "kg")]) == 1
        out = capsys.readouterr().out
        assert "check wronskian_drift: FAIL (1.921e-04 <= 1e-05)" in out
        assert "FAILED checks: wronskian_drift" in out

    def test_kg_solve_euler_fine_step_passes(self, tmp_path, capsys):
        assert main(["kg-solve", "--method", "euler", "--step", "5e-4",
                     "--out", str(tmp_path / "kg")]) == 0
        out = capsys.readouterr().out
        assert "check wronskian_drift: PASS (4.801e-06 <= 1e-05)" in out
        assert "FAIL" not in out

    def test_classical_limit(self, tmp_path, capsys):
        assert main(["classical-limit", "--out", str(tmp_path / "cl"), "--ab", "4,2"]) == 0
        out = capsys.readouterr().out
        assert "fitted scaling exponent" in out
        assert "PASS" in out
        data = _read_csv(tmp_path / "cl" / "classical_limit.csv")
        assert data.shape == (4, 3)
        assert np.all(data[:, 1] <= data[:, 2])  # deviation under bound

    def test_hbar_scale_flag(self, tmp_path, capsys):
        assert main(["report", "--hbar-scale", "0.5"]) == 0
        out = capsys.readouterr().out
        # half of 3.206015187601e-13
        assert "1.603007593801e-13" in out


class TestRejectedInput:
    def test_nan_energy(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "energy_mev = nan\n")
        assert main(["report", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "forbidden" not in captured.out
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_negative_slope_window(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "potential = linear\ng_mev_per_fm = -0.25\n")
        assert main(["report", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert captured.err.startswith("error:") and "g > 0" in captured.err

    def test_integration_overflow(self, tmp_path, capfd):
        cfg = _write_cfg(tmp_path, "u0_mev = 1.7\n")
        rc = main(["kg-solve", "--config", cfg, "--hbar-scale", "1e-4", "--out", str(tmp_path / "kg")])
        assert rc == 2
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: integration overflowed")

    def test_one_distinct_epsilon(self, tmp_path, capfd):
        rc = main(["classical-limit", "--epsilons", "1,1", "--out", str(tmp_path / "cl")])
        assert rc == 2
        err = capfd.readouterr().err.splitlines()
        assert err == ["error: the scaling fit needs at least two distinct epsilons"]


def test_cli_import_leaves_out_scipy_integrate():
    src = str(Path(rqtlab.__file__).resolve().parents[1])
    code = "import sys, rqtlab.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"
