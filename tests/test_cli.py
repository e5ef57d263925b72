"""Command-line front end: file outputs, determinism, exit codes."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rqtlab
from rqtlab.cli import FIGURES, main
from rqtlab.scenario import scenario_header

C_M_PER_S = 2.99792458e8


LINEAR_CFG = "species = electron\nenergy_mev = 2\npotential = linear\ng_mev_per_fm = 0.25\n"


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

    def test_figure1_member_and_its_mirror_are_two_files(self, tmp_path):
        # (1, 0) and (-1, -0) have different tags, so neither repeats the other
        assert main(["figure", "1", "--out", str(tmp_path / "f"), "--samples", "32",
                     "--ab", "1,0;-1,-0"]) == 0
        assert sorted(p.name for p in (tmp_path / "f").glob("fig1_traj_*.csv")) == [
            "fig1_traj_a1_b0.csv", "fig1_traj_am1_bm0.csv"]

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

    def test_figure4_nodes_without_reference_member(self, tmp_path, capsys):
        # the node times come from the forward (1, 0) member's quadrature
        # whether --ab lists it or not; its mirror (-1, 0) is refused, since
        # the reflection is a symmetry of a constant potential only
        window = ["--x0", "-60", "--step", "2e-3", "--samples", "64"]
        assert main(["figure", "4", "--out", str(tmp_path / "all"), *window]) == 0
        assert main(["figure", "4", "--out", str(tmp_path / "two"), "--ab", "4,2;0.5,-1",
                     *window]) == 0
        capsys.readouterr()
        assert main(["figure", "4", "--out", str(tmp_path / "mirror"), "--ab=-1,0", *window]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not list((tmp_path / "mirror").glob("*.csv"))
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "a < 0" in err[0]
        two = tmp_path / "two"
        assert sorted(p.name for p in two.glob("*.csv")) == [
            "fig4_nodes.csv", "fig4_traj_a0p5_bm1.csv", "fig4_traj_a4_b2.csv",
        ]
        nodes = (tmp_path / "all" / "fig4_nodes.csv").read_bytes()
        assert (two / "fig4_nodes.csv").read_bytes() == nodes
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
        # the allowed-region report states closed forms and gates nothing
        assert not [line for line in out.splitlines() if line.startswith("check ")]

    def test_photon_report(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "species = photon\nenergy_mev = 1.2\n")
        assert main(["report", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "5.166008267650e-13" in out
        assert not [line for line in out.splitlines() if line.startswith("check ")]

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
        assert "check local_momentum_within_5pct: PASS" in out

    def test_window_past_the_far_turning_point_is_refused(self, tmp_path, capsys):
        # the window runs across the forbidden band (5.96 to 10.04 fm) and holds two
        # zeros beyond it: a one-line error, and no output directory
        cfg = _write_cfg(tmp_path, LINEAR_CFG)
        for command in ("report", "nodes"):
            assert main([command, "--config", cfg, "--x-min", "-40", "--x-max", "30",
                         "--hbar-scale", "0.05", "--out", str(tmp_path / "r")]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert "past the far turning point 10.04 fm" in captured.err
        assert not (tmp_path / "r").exists()

    def test_nan_momentum_fails_its_gate(self, tmp_path, capsys, monkeypatch):
        # an interval whose classical momentum is NaN must not come out as a PASS:
        # Python's max would skip it
        summary = rqtlab.cli.linear_node_summary

        def with_nan(s, basis):
            intervals = summary(s, basis)
            intervals.p_classical_mid[len(intervals.n) // 2] = np.nan
            return intervals

        monkeypatch.setattr(rqtlab.cli, "linear_node_summary", with_nan)
        assert main(["report", "--config", _write_cfg(tmp_path, LINEAR_CFG)]) == 1
        out = capsys.readouterr().out
        assert "check local_momentum_within_5pct: FAIL (nan <= 5e-02)\n" in out
        assert out.endswith("FAILED checks: local_momentum_within_5pct\n")

    @pytest.mark.parametrize("x_min, zeros", [(None, 34), ("-110", 3)])
    def test_linear_node_count_is_the_zero_count(self, tmp_path, capsys, x_min, zeros):
        # the default window prints what it always has; three zeros, two
        # spacings, is the smallest window the spacing law can check
        cfg = _write_cfg(tmp_path, LINEAR_CFG)
        window = [] if x_min is None else ["--x-min", x_min]
        assert main(["report", "--config", cfg, *window]) == 0
        assert f"numeric nodes       : {zeros}\n" in capsys.readouterr().out
        assert main(["nodes", "--config", cfg, *window, "--out", str(tmp_path / "n")]) == 0
        assert capsys.readouterr().out.endswith(
            f"{zeros} nodes; spacing grows toward the turning point\n")
        assert len(_read_csv(tmp_path / "n" / "nodes.csv")) == zeros - 1

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

    def test_linear_euler_basis_fails_every_check(self, tmp_path, capsys):
        # Euler at 0.05 fm is wrong by O(1) on this window, where the default
        # basis passes: a linear gate that cannot fail would print PASS here
        rc = main(["residuals", "--config", _write_cfg(tmp_path, LINEAR_CFG), "--method", "euler",
                   "--step", "0.05", "--x-min", "-60", "--samples", "32",
                   "--out", str(tmp_path / "r")])
        checks = [l for l in capsys.readouterr().out.splitlines() if l.startswith("check ")]
        assert rc == 1
        assert len(checks) == 4 and all(": FAIL (" in l for l in checks), checks

    def test_photon(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "species = photon\nenergy_mev = 1.2\n")
        rc = main([
            "residuals", "--config", cfg, "--out", str(tmp_path / "r"),
            "--samples", "32", "--ab", "1,0;2,1",
        ])
        assert rc == 0
        assert "FAIL" not in capsys.readouterr().out


    def test_nan_residual_mid_column_fails_its_gate(self, tmp_path, capsys, monkeypatch):
        # a NaN that is not in the first row: Python's max would skip it and print PASS
        scan = rqtlab.cli.action_scan

        def with_nan(basis, members, xs):
            rows = scan(basis, members, xs)
            rows[len(xs) // 2, 3] = np.nan  # member 0's middle row
            return rows

        monkeypatch.setattr(rqtlab.cli, "action_scan", with_nan)
        rc = main(["residuals", "--config", _write_cfg(tmp_path, LINEAR_CFG), "--samples", "24",
                   "--x-min", "-60", "--step", "2e-3", "--ab", "1,0", "--out", str(tmp_path / "r")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "check rqshje_a1_b0: FAIL (nan <= 1e-03)\n" in out
        assert np.isnan(_read_csv(tmp_path / "r" / "residuals_a1_b0.csv")[12, 3])


class TestWronskianDriftGate:
    """figure 4 and the linear report, nodes and trajectory gate their basis's drift."""

    def test_figure4_rk4_fails(self, tmp_path, capsys):
        # RK4 at the default step puts figure 4's nodes 0.63 fm off the oracle
        assert main(["figure", "4", "--method", "rk4", "--out", str(tmp_path / "f4")]) == 1
        out = capsys.readouterr().out
        assert "check wronskian_drift: FAIL (1.093e-02 <= 1e-05)\n" in out
        assert out.endswith("FAILED checks: wronskian_drift\n")

    @pytest.mark.parametrize("command", ["report", "nodes", "trajectory"])
    def test_linear_euler_basis_fails(self, tmp_path, capsys, command):
        rc = main([command, "--config", _write_cfg(tmp_path, LINEAR_CFG), "--method", "euler",
                   "--step", "2e-3", "--x-min", "-120", "--out", str(tmp_path / "e")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "check wronskian_drift: FAIL (3.189e-03 <= 1e-05)\n" in out
        assert out.endswith("FAILED checks: wronskian_drift\n")

    @pytest.mark.parametrize("command", [["figure", "4", "--x0", "-60"], ["report"], ["nodes"],
                                         ["trajectory", "--x-min", "-60"]])
    def test_default_basis_passes(self, tmp_path, capsys, command):
        cfg = [] if command[0] == "figure" else ["--config", _write_cfg(tmp_path, LINEAR_CFG)]
        assert main([*command, *cfg, "--out", str(tmp_path / "d")]) == 0
        drift = [l for l in capsys.readouterr().out.splitlines() if "wronskian_drift" in l]
        assert len(drift) == 1 and drift[0].startswith("check wronskian_drift: PASS (")


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
        reverse = lambda iv: rqtlab.NodeIntervals(*(c[::-1] for c in dataclasses.astuple(iv)))
        monkeypatch.setattr(rqtlab.cli, "linear_node_summary", lambda s, b: reverse(summary(s, b)))
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

    @pytest.mark.parametrize("ab, a, b", [(None, "4.0", "2.0"), ("0.5,-1", "0.5", "-1.0")])
    def test_classical_limit_echoes_its_member(self, tmp_path, ab, a, b):
        family = ["--ab", ab] if ab else []
        assert main(["classical-limit", *family, "--out", str(tmp_path / "cl")]) == 0
        header = (tmp_path / "cl" / "classical_limit.csv").read_text().splitlines()
        assert f"# a = {a}" in header and f"# b = {b}" in header

    def test_classical_limit_failure_is_named(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(rqtlab.ClassicalLimitReport, "scaling_holds",
                            property(lambda self: False))
        assert main(["classical-limit", "--out", str(tmp_path / "cl")]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[-2:] == ["check classical_limit_scaling: FAIL",
                            "FAILED checks: classical_limit_scaling"]

    def test_hbar_scale_flag(self, tmp_path, capsys):
        assert main(["report", "--hbar-scale", "0.5"]) == 0
        out = capsys.readouterr().out
        # half of 3.206015187601e-13
        assert "1.603007593801e-13" in out


@pytest.mark.parametrize("argv", [
    ["figure", "1"], ["figure", "2"], ["figure", "3"], ["figure", "4", "--x0", "-60"],
    ["report", "--hbar-scale", "0.5"], ["report", "--config", "LINEAR", "--x-min", "-200"],
    ["residuals", "--samples", "32"],
    ["residuals", "--config", "LINEAR", "--x-min", "-60", "--samples", "32"],
    ["trajectory", "--samples", "32"], ["nodes"],
    ["nodes", "--config", "LINEAR", "--x-min", "-200", "--hbar-scale", "0.5"],
    ["kg-solve"], ["classical-limit"],
], ids=" ".join)
def test_every_csv_echoes_the_scenario(tmp_path, argv):
    cfg = _write_cfg(tmp_path, LINEAR_CFG)
    if "LINEAR" in argv:
        s = rqtlab.scenario_from_config(rqtlab.parse_config_text(LINEAR_CFG))
    else:
        s = FIGURES[int(argv[1]) if argv[0] == "figure" else 1][0]
    if "--hbar-scale" in argv:
        s = s.with_hbar_scale(float(argv[argv.index("--hbar-scale") + 1]))
    argv = [cfg if a == "LINEAR" else a for a in argv]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 0
    paths = sorted((tmp_path / "o").glob("*.csv"))
    assert paths
    for path in paths:
        header = [l for l in path.read_text().splitlines() if l.startswith("#")]
        assert all(f"# {line}" in header for line in scenario_header(s)), path.name


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

    @pytest.mark.parametrize("argv", [
        ["report", "--ab", "1,0"], ["residuals", "--dt", "1e-23"], ["nodes", "--samples", "40"],
        ["kg-solve", "--samples", "100"], ["classical-limit", "--step", "1e-2"], ["figure", "5"],
    ])
    def test_flag_the_subcommand_does_not_read(self, tmp_path, capsys, argv):
        # each subcommand takes only the flags it reads; a malformed command
        # line is one error line and exit 2, like every other bad input
        assert main([*argv, "--out", str(tmp_path / "x")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("command", ["report", "nodes"])
    @pytest.mark.parametrize("x_min, zeros", [("0", 0), ("3", 0), ("-5", 0), ("-100", 2)])
    def test_linear_window_with_too_few_nodes(self, tmp_path, capsys, command, x_min, zeros):
        # fewer than three phi2 zeros leave no two spacings to compare: bad
        # input, not a vacuous pass
        cfg = _write_cfg(tmp_path, LINEAR_CFG)
        assert main([command, "--config", cfg, "--x-min", x_min, "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert f"holds {zeros} phi2 zeros" in err[0]
        assert not (tmp_path / "o" / "nodes.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["figure", "1", "--ab", "nan,0"], "must be finite"),
        (["figure", "1", "--x0", "inf"], "must be finite"),
        (["figure", "2", "--ceiling=nan"], "x_ceiling must be finite and positive"),
        (["figure", "2", "--ceiling=-5"], "x_ceiling must be finite and positive"),
        (["trajectory", "--dt", "inf"], "dt must be finite and positive"),
        (["trajectory", "--dt", "0"], "dt must be finite and positive"),
        (["kg-solve", "--step", "nan"], "step must be finite and positive"),
        (["kg-solve", "--x-max", "nan"], "must be finite"),
        (["nodes", "--config", "LINEAR", "--x-max", "nan"], "must be finite"),
        # the window starts past the turning point, or a mirrored member on
        # the linear potential: refused before the kg_fd_residual check prints
        (["residuals", "--config", "LINEAR", "--x-min", "4.5"], "x_range must be increasing"),
        (["residuals", "--config", "LINEAR", "--ab=-1,0.5"], "constant potential only"),
        # step or sample counts refused before anything is allocated
        (["kg-solve", "--x-min=-1e308", "--x-max", "1e308"], "more than MAX_STEPS"),
        (["kg-solve", "--step", "1e-300"], "more than MAX_STEPS"),
        (["trajectory", "--dt", "1e-300"], "more than MAX_SAMPLES"),
        (["figure", "1", "--dt", "1e-40"], "more than MAX_SAMPLES"),
        # the scan ends 4 fm short of the turning point, so from x-min 1 it would run backwards
        (["residuals", "--config", "LINEAR", "--x-min", "1"], "x_range must be increasing"),
    ])
    def test_bad_value_prints_only_the_error(self, tmp_path, capsys, argv, message):
        argv = [_write_cfg(tmp_path, LINEAR_CFG) if a == "LINEAR" else a for a in argv]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0], err
        assert not list(tmp_path.glob("o/*.csv"))

    @pytest.mark.parametrize("argv, message", [
        (["kg-solve", "--x-min=-1e308", "--x-max", "1e308"], "more than MAX_STEPS"),
        (["figure", "4", "--ab=-1,0"], "constant potential only"),
        # sample counts refused before anything is allocated
        (["trajectory", "--config", "LINEAR", "--samples", "1000000000000000"], "MAX_SAMPLES"),
        (["figure", "4", "--samples", "1000000000000000"], "MAX_SAMPLES"),
        (["residuals", "--samples", "1000000000000000"], "MAX_SAMPLES"),
        (["figure", "1", "--samples", "10000001"], "MAX_SAMPLES"),
        # a member's tag names its file, which a repeated member would write twice
        (["residuals", "--ab", "4,2;4,2"], "repeats the member a4_b2"),
        (["figure", "1", "--ab", "1,0;1,0"], "repeats the member a1_b0"),
        # the scan takes one member, and would drop the others without a word
        (["classical-limit", "--ab", "4,2;0.5,-1"], "scans one member; --ab lists 2"),
    ])
    def test_refused_input_leaves_no_out_directory(self, tmp_path, capsys, argv, message):
        # the --out directory is made by the first CSV written, so a refusal leaves none
        argv = [_write_cfg(tmp_path, LINEAR_CFG) if a == "LINEAR" else a for a in argv]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0], err
        assert not (tmp_path / "o").exists()

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "--help"])
        assert exc.value.code == 0
        assert "--ceiling" in capsys.readouterr().out

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


def test_cli_runs_leave_out_argparse(tmp_path):
    # building argparse parsers, and the gettext catalogue lookups they make,
    # cost more CPU than a constant-potential command computes
    src = str(Path(rqtlab.__file__).resolve().parents[1])
    runs = [["report", "--out", str(tmp_path)], ["figure", "1", "--out", str(tmp_path)]]
    code = (f"import sys, rqtlab.cli; print([rqtlab.cli.main(a) for a in {runs!r}], "
            "[m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.splitlines()[-1] == "[0, 0] []"


def test_linear_residuals_leave_out_numpy_ma(tmp_path):
    # np.isin goes through np.unique, which imports numpy.ma: 13 ms of a
    # fresh process
    src = str(Path(rqtlab.__file__).resolve().parents[1])
    cfg = _write_cfg(tmp_path, LINEAR_CFG)
    argv = ["residuals", "--config", cfg, "--samples", "16", "--out", str(tmp_path)]
    code = f"import sys, rqtlab.cli; print(rqtlab.cli.main({argv!r}), 'numpy.ma' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.splitlines()[-1] == "0 False"


def test_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: with every scipy import failing, the
    # figures, both residual gates and a closed form's first integral still run
    src = str(Path(rqtlab.__file__).resolve().parents[1])
    cfg = _write_cfg(tmp_path, LINEAR_CFG)
    runs = [["figure", "1", "--samples", "32"], ["figure", "2", "--samples", "32"],
            ["figure", "4", "--x0", "-60", "--samples", "32"], ["residuals", "--samples", "24"],
            ["residuals", "--config", cfg, "--x-min", "-60", "--samples", "24"]]
    code = f"""
import sys
sys.modules["scipy"] = None
import rqtlab as rq
from rqtlab.cli import main
print([main([*argv, "--out", {str(tmp_path / "o")!r}]) for argv in {runs!r}])
s = rq.Scenario(rq.Species.electron(), rq.Potential.constant(0.0), energy=2.0)
dt = rq.nodes_constant(s).dt_spacing
print(rq.firqnl_residual(s, rq.MobiusParams(4.0, 2.0), (0.0, 3 * dt), 6001) <= 1e-3)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.splitlines()[-2:] == ["[0, 0, 0, 0, 0]", "True"]
