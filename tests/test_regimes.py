"""Every regime runs with passing gates or is refused: eight configs by six subcommands."""

import pytest

from rqtlab.cli import main

CONFIGS = {
    "electron": "species = electron\nenergy_mev = 2\n",
    "photon": "species = photon\nenergy_mev = 1.2\n",
    "forbidden": "species = electron\nenergy_mev = 2\nu0_mev = 1.7\n",
    "klein": "species = electron\nenergy_mev = 2\nu0_mev = 4\n",
    "klein_photon": "species = photon\nenergy_mev = 2\nu0_mev = 4\n",
    "linear": "species = electron\nenergy_mev = 2\npotential = linear\ng_mev_per_fm = 0.25\n",
    "linear_photon": "species = photon\nenergy_mev = 2\npotential = linear\ng_mev_per_fm = 0.25\n",
    "linear_negative": "species = electron\nenergy_mev = 2\npotential = linear\ng_mev_per_fm = -0.25\n",
}
COMMANDS = ["report", "nodes", "residuals", "trajectory", "kg-solve", "classical-limit"]

# the cells whose subcommand reads no flag in that regime (the README's flag table):
# a forbidden report or node table reads none, and a refused regime refuses them all
NO_FLAGS = {("forbidden", "report"), ("forbidden", "nodes"), ("forbidden", "residuals"),
            ("forbidden", "classical-limit"), ("linear", "classical-limit"),
            ("linear_photon", "classical-limit"), ("linear_negative", "classical-limit")}
# exit 2 with one error line: the refused regimes, and every g < 0 window but kg-solve's,
# which takes any
REFUSED = {("forbidden", "residuals"), ("forbidden", "classical-limit"),
           ("linear", "classical-limit"), ("linear_photon", "classical-limit"),
           *(("linear_negative", c) for c in COMMANDS if c != "kg-solve")}
# exit 1 by a defect: in the Klein region the closed form's xdot and the action flow's run
# opposite ways, so velocity_momentum reads 2; strict, so the cells flip when one law lands
KLEIN_FLOW = pytest.mark.xfail(strict=True, reason="CHANGES.md FOUND on the Klein flow law")


def _cells():
    for config in CONFIGS:
        for command in COMMANDS:
            marks = [KLEIN_FLOW] if config.startswith("klein") and command == "residuals" else []
            yield pytest.param(config, command, marks=marks, id=f"{config}-{command}")


@pytest.mark.parametrize("config, command", _cells())
def test_cell_passes_or_is_refused(tmp_path, monkeypatch, capsys, config, command):
    monkeypatch.chdir(tmp_path)  # so a cell without --out cannot write to the default out/
    (tmp_path / "scenario.cfg").write_text(CONFIGS[config])
    argv = [command, "--config", "scenario.cfg"]
    if (config, command) not in NO_FLAGS:
        argv += ["--out", "o"]
    rc = main(argv)
    captured = capsys.readouterr()
    if (config, command) in REFUSED:
        assert rc == 2
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.cfg"]
    else:
        checks = [l for l in captured.out.splitlines() if l.startswith("check ")]
        assert all(": PASS" in l for l in checks), checks
        assert rc == 0 and captured.err == ""
