"""The flags each subcommand reads in each regime: every accepted flag does something.

A regime is the allowed or forbidden region of a constant potential, or the
linear potential.  A flag that a subcommand accepts but does not read in the
scenario's regime is one `error:` line and exit 2; every flag it does read
moves stdout or a CSV.  Both lists are written out here by hand, and a
completeness test checks that together they cover every flag the subcommand
accepts.
"""

import pytest

from rqtlab.cli import COMMANDS, COMMON, FLAGS, main, parse

CONFIGS = {
    "allowed": None,
    "forbidden": "species = electron\nenergy_mev = 2\nu0_mev = 1.7\n",
    "linear": "species = electron\nenergy_mev = 2\npotential = linear\ng_mev_per_fm = 0.25\n",
}
FIGURE = {"allowed": "1", "forbidden": "2", "linear": "4"}

# (subcommand, regime, flag, value): accepted by the parser, read in no
# scenario of that regime
NOT_READ = [
    ("figure", "allowed", "method", "rk4"),
    ("figure", "allowed", "step", "1e-2"),
    ("figure", "allowed", "ceiling", "300"),
    ("figure", "forbidden", "method", "rk4"),
    ("figure", "forbidden", "step", "1e-2"),
    ("figure", "linear", "dt", "1e-23"),
    ("figure", "linear", "ceiling", "300"),
    ("report", "allowed", "method", "rk4"),
    ("report", "allowed", "step", "1e-2"),
    ("report", "allowed", "x-min", "-60"),
    ("report", "allowed", "x-max", "5"),
    ("report", "forbidden", "method", "rk4"),
    ("report", "forbidden", "step", "1e-2"),
    ("report", "forbidden", "x-min", "-60"),
    ("report", "forbidden", "x-max", "5"),
    ("report", "forbidden", "out", "d"),
    ("nodes", "allowed", "method", "rk4"),
    ("nodes", "allowed", "step", "1e-2"),
    ("nodes", "allowed", "x-min", "-60"),
    ("nodes", "allowed", "x-max", "5"),
    ("nodes", "forbidden", "method", "rk4"),
    ("nodes", "forbidden", "step", "1e-2"),
    ("nodes", "forbidden", "x-min", "-60"),
    ("nodes", "forbidden", "x-max", "5"),
    ("nodes", "forbidden", "out", "d"),
    ("residuals", "allowed", "method", "rk4"),
    ("residuals", "allowed", "step", "1e-2"),
    ("residuals", "allowed", "x-min", "-60"),
    ("residuals", "allowed", "x-max", "5"),
    ("trajectory", "allowed", "method", "rk4"),
    ("trajectory", "allowed", "step", "1e-2"),
    ("trajectory", "allowed", "x-min", "-60"),
    ("trajectory", "allowed", "x-max", "5"),
    ("trajectory", "allowed", "ceiling", "300"),
    ("trajectory", "forbidden", "method", "rk4"),
    ("trajectory", "forbidden", "step", "1e-2"),
    ("trajectory", "forbidden", "x-min", "-60"),
    ("trajectory", "forbidden", "x-max", "5"),
    ("trajectory", "linear", "dt", "1e-23"),
    ("trajectory", "linear", "ceiling", "300"),
    ("trajectory", "linear", "x0", "-30"),
]

# Regimes whose scenarios the subcommand refuses: it reads none of its flags
# there (the bare command is a one-line error of its own).
REFUSED = [
    ("residuals", "forbidden", flag, value) for flag, value in
    (("out", "d"), ("samples", "32"), ("ab", "2,1"), ("method", "rk4"), ("step", "1e-2"),
     ("x-min", "-60"), ("x-max", "5"))
] + [
    ("classical-limit", regime, flag, value) for regime in ("forbidden", "linear")
    for flag, value in (("out", "d"), ("ab", "2,1"), ("epsilons", "1,0.5"))
]

# (subcommand, regime) -> the small run each read flag is compared against
BASES = {
    ("figure", "allowed"): ["--samples", "64"],
    ("figure", "forbidden"): ["--samples", "64"],
    ("figure", "linear"): ["--x0", "-60", "--samples", "32"],
    # report prints four digits: at the default magnus6 a step moves them
    # only far below that, so its base takes the first-order scheme
    ("report", "allowed"): [],
    ("report", "linear"): ["--x-min", "-200", "--method", "euler"],
    ("nodes", "allowed"): [],
    ("nodes", "linear"): ["--x-min", "-200"],
    ("residuals", "allowed"): ["--samples", "24"],
    ("residuals", "linear"): ["--x-min", "-60", "--samples", "24", "--ab", "1,0;4,2"],
    ("trajectory", "allowed"): ["--samples", "32", "--ab", "4,2"],
    ("trajectory", "forbidden"): ["--samples", "32", "--ab", "4,2"],
    ("trajectory", "linear"): ["--x-min", "-60", "--samples", "32", "--ab", "4,2"],
    ("kg-solve", "allowed"): ["--x-max", "20"],
    ("kg-solve", "forbidden"): ["--x-max", "20"],
    ("kg-solve", "linear"): ["--x-max", "20"],
    ("classical-limit", "allowed"): [],
}

# (subcommand, regime, flag, value): read, and moves stdout or a CSV; --out
# moves the CSVs into the directory it names
READ = [
    *((command, regime, "out", "o2") for command, regime in (
        ("figure", "allowed"), ("figure", "forbidden"), ("figure", "linear"),
        ("report", "allowed"), ("report", "linear"), ("residuals", "allowed"),
        ("residuals", "linear"), ("trajectory", "allowed"), ("trajectory", "forbidden"),
        ("trajectory", "linear"), ("nodes", "allowed"), ("nodes", "linear"),
        ("kg-solve", "allowed"), ("kg-solve", "forbidden"), ("kg-solve", "linear"),
        ("classical-limit", "allowed"))),
    ("figure", "allowed", "dt", "1e-22"),
    ("figure", "allowed", "samples", "80"),
    ("figure", "allowed", "ab", "2,1"),
    ("figure", "allowed", "x0", "5"),
    ("figure", "forbidden", "dt", "1e-22"),
    ("figure", "forbidden", "samples", "80"),
    ("figure", "forbidden", "ab", "2,1"),
    ("figure", "forbidden", "x0", "5"),
    ("figure", "forbidden", "ceiling", "300"),
    ("figure", "linear", "samples", "40"),
    ("figure", "linear", "ab", "4,2"),
    ("figure", "linear", "method", "rk4"),
    ("figure", "linear", "step", "1e-2"),
    ("figure", "linear", "x0", "-70"),
    ("report", "linear", "method", "rk4"),
    ("report", "linear", "step", "4e-2"),
    ("report", "linear", "x-min", "-150"),
    ("report", "linear", "x-max", "-50"),
    ("nodes", "linear", "method", "rk4"),
    ("nodes", "linear", "step", "0.2"),
    ("nodes", "linear", "x-min", "-150"),
    ("nodes", "linear", "x-max", "-50"),
    ("residuals", "allowed", "samples", "32"),
    ("residuals", "allowed", "ab", "2,1"),
    ("residuals", "linear", "samples", "32"),
    ("residuals", "linear", "ab", "2,1"),
    ("residuals", "linear", "method", "rk4"),
    ("residuals", "linear", "step", "1e-2"),
    ("residuals", "linear", "x-min", "-70"),
    ("residuals", "linear", "x-max", "5"),
    ("trajectory", "allowed", "dt", "1e-22"),
    ("trajectory", "allowed", "samples", "40"),
    ("trajectory", "allowed", "ab", "2,1"),
    ("trajectory", "allowed", "x0", "5"),
    ("trajectory", "forbidden", "dt", "1e-22"),
    ("trajectory", "forbidden", "samples", "40"),
    ("trajectory", "forbidden", "ab", "2,1"),
    ("trajectory", "forbidden", "x0", "5"),
    ("trajectory", "forbidden", "ceiling", "300"),
    ("trajectory", "linear", "samples", "40"),
    ("trajectory", "linear", "ab", "2,1"),
    ("trajectory", "linear", "method", "rk4"),
    ("trajectory", "linear", "step", "1e-2"),
    ("trajectory", "linear", "x-min", "-70"),
    ("trajectory", "linear", "x-max", "5"),
    *(("kg-solve", regime, flag, value) for regime in ("allowed", "forbidden", "linear")
      for flag, value in (("method", "rk4"), ("step", "1e-2"), ("x-min", "5"), ("x-max", "30"))),
    ("classical-limit", "allowed", "ab", "2,1"),
    ("classical-limit", "allowed", "epsilons", "1,0.5"),
]


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cfg")
    paths = {}
    for regime, text in CONFIGS.items():
        if text is not None:
            (root / f"{regime}.cfg").write_text(text)
            paths[regime] = str(root / f"{regime}.cfg")
    return paths


def _command(command, regime, configs):
    """The subcommand's argv in a scenario of the regime."""
    if command == "figure":
        return ["figure", FIGURE[regime]]
    return [command, *(["--config", configs[regime]] if regime in configs else [])]


def _with(argv, flag, value):
    """argv with --flag set to value, replacing a value it already gives."""
    argv = list(argv)
    if f"--{flag}" in argv:
        argv[argv.index(f"--{flag}") + 1] = value
        return argv
    return [*argv, f"--{flag}", value]


def _run(argv, out, capsys):
    """(exit code, stdout with the output directory masked, {csv name: bytes}) of argv --out out."""
    rc = main([*argv, "--out", str(out)])
    stdout = capsys.readouterr().out.replace(str(out), "OUT")
    return rc, stdout, {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


def _assert_one_error_line(capsys, flag=None):
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    if flag is not None:
        assert f"--{flag}" in err[0]
    return err[0]


def _accepted(command):
    """The flags the subcommand accepts: COMMON and those it reads in some regime."""
    return set(COMMON).union(*COMMANDS[command][2].values())


def test_lists_cover_every_accepted_flag():
    # per subcommand and regime, each flag the subcommand accepts besides
    # --config and --hbar-scale is read or rejected, and not both
    listed = {}
    for command, regime, flag, _ in NOT_READ + REFUSED + READ:
        key = (command, regime)
        assert flag not in listed.setdefault(key, set()), (key, flag)
        listed[key].add(flag)
    for command in COMMANDS:
        accepted = _accepted(command) - {"config", "hbar-scale"}
        assert accepted <= set(FLAGS), command
        for regime in CONFIGS:
            assert listed.get((command, regime), set()) == accepted, (command, regime)
    assert len(NOT_READ) == 41 and len(READ) + len(REFUSED) <= 88


def test_flag_outside_the_subcommand_is_one_line(tmp_path, monkeypatch, capsys):
    # a subcommand takes only the flags it reads in some regime: any other
    # flag of the table is refused by name before anything runs
    monkeypatch.chdir(tmp_path)
    value = {flag: v for _, _, flag, v in NOT_READ + REFUSED + READ}
    for command in COMMANDS:
        argv = ["figure", "1"] if command == "figure" else [command]
        for flag in sorted(set(FLAGS) - _accepted(command)):
            assert main([*argv, f"--{flag}", value[flag]]) == 2, (command, flag)
            assert f"{command} takes no flag --{flag}" in _assert_one_error_line(capsys, flag)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, expected", [
    # accepted: both value forms, values led by one '-', a --method choice
    (["figure", "2", "--samples", "32", "--x0=5"], {"figure_id": 2, "samples": 32, "x0": 5.0}),
    (["figure", "--samples=32", "3"], {"figure_id": 3, "samples": 32}),
    (["kg-solve", "--x-min", "-60", "--x-max=-50"], {"x-min": -60.0, "x-max": -50.0}),
    (["trajectory", "--ab", "-1,0;4,2", "--config=a=b.cfg"],
     {"ab": ((-1.0, 0.0), (4.0, 2.0)), "config": "a=b.cfg"}),
    (["kg-solve", "--method", "rk4"], {"method": "rk4"}),
    # refused: one error line naming the flag, or the subcommand's first argument
    (["figure", "1", "--samp", "32"], "figure takes no flag --samp"),
    (["report", "--out=d", "--x-m", "-60"], "report takes no flag --x-m"),
    (["figure", "1", "--samples"], "--samples needs a value"),
    (["figure", "1", "--samples", "--dt", "1e-23"], "--samples needs a value"),
    (["report", "--config", ""], "--config needs a value"),
    (["figure", "1", "--ab="], "--ab needs a value"),
    (["figure", "1", "--samples", "32", "--samples=64"], "--samples given twice"),
    (["figure", "1", "--samples", "3.5"], "bad --samples value '3.5'"),
    (["kg-solve", "--step", "fine"], "bad --step value 'fine'"),
    (["kg-solve", "--method", "rk5"], "bad --method value 'rk5'"),
    (["figure", "5"], "unexpected argument '5'"),
    (["figure", "-1"], "unexpected argument '-1'"),
    (["figure", "1", "2"], "unexpected argument '2'"),
    (["report", "1"], "unexpected argument '1'"),
    (["figure", "--samples", "32"], "figure needs its number"),
    ([], "no subcommand"),
    (["--samples", "32", "report"], "no subcommand"),
    # help, also after other flags, and before a malformed one
    (["figure", "1", "--samples", "32", "-h"], "help"),
    (["figure", "--bogus", "--help"], "help"),
    # --ab and --epsilons are parsed as lists of numbers; an empty chunk is skipped
    (["trajectory", "--ab", " 4, 2;0.5,-1;"], {"ab": ((4.0, 2.0), (0.5, -1.0))}),
    (["classical-limit", "--epsilons", "1,0.5"], {"epsilons": (1.0, 0.5)}),
    (["figure", "1", "--ab", "1,x"], "bad --ab value '1,x'"),
    (["figure", "1", "--ab", "1"], "bad --ab value '1'"),
    (["figure", "1", "--ab", "1,2,3"], "bad --ab value '1,2,3'"),
    (["figure", "1", "--ab", ";"], "bad --ab value ';'"),
    (["classical-limit", "--epsilons", "1,x"], "bad --epsilons value '1,x'"),
    (["classical-limit", "--epsilons", ","], "bad --epsilons value ','"),
])
def test_command_line_contract(tmp_path, monkeypatch, capsys, argv, expected):
    monkeypatch.chdir(tmp_path)
    if isinstance(expected, dict):
        assert parse(argv) == (argv[0], expected)
    elif expected == "help":
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "figure {1,2,3,4}" in out and "--method {magnus6,rk4,euler}" in out
        assert all(f"--{flag} " in out for flag in _accepted("figure"))
    else:
        assert main(argv) == 2
        assert expected in _assert_one_error_line(capsys)
    assert not list(tmp_path.iterdir())


def test_top_level_help_names_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command, (_, help_line, _) in COMMANDS.items():
        assert any(line.split() == [command, *help_line.split()] for line in out.splitlines()), command


@pytest.mark.parametrize("argv", [["nope"], ["nope", "--samples", "32"]])
def test_unknown_subcommand_is_one_line(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert "invalid choice: 'nope'" in _assert_one_error_line(capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, regime, flag, value", NOT_READ + REFUSED)
def test_flag_not_read_in_regime_is_rejected(tmp_path, capsys, configs, command, regime, flag,
                                             value):
    # --out names the directory the refusal must not make; given twice, the
    # flag would be refused as a repeat before the regime is known
    out = str(tmp_path / "o")
    argv = [*_command(command, regime, configs), f"--{flag}", out if flag == "out" else value]
    assert main(argv if flag == "out" else [*argv, "--out", out]) == 2
    line = _assert_one_error_line(capsys, flag)
    assert regime in line
    assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def base_runs():
    """_run of each BASES entry, made by the first test that needs it."""
    return {}


@pytest.mark.parametrize("command, regime, flag, value", READ)
def test_flag_read_in_regime_moves_the_output(tmp_path, capsys, configs, base_runs, command,
                                              regime, flag, value):
    base = [*_command(command, regime, configs), *BASES[command, regime]]
    if tuple(base) not in base_runs:
        base_runs[tuple(base)] = _run(base, tmp_path / "base", capsys)
    rc, stdout, csvs = base_runs[tuple(base)]
    assert rc in (0, 1) and stdout
    if flag == "out":
        # the same stdout, with its directory masked, and the same CSVs land there
        assert _run(base, tmp_path / value, capsys) == (rc, stdout, csvs) and csvs
        return
    changed = _run(_with(base, flag, value), tmp_path / "flag", capsys)
    assert changed[0] in (0, 1)
    assert changed[1:] != (stdout, csvs)


def test_linear_trajectory_anchor_is_its_first_position(tmp_path, configs):
    # the quadrature sets t = 0 at the window start; x0_fm says so
    for window in ([], ["--x-min", "-60"]):
        out = tmp_path / f"t{len(window)}"
        assert main(["trajectory", "--config", configs["linear"], "--samples", "16", "--ab",
                     "1,0;4,2", *window, "--out", str(out)]) == 0
        for path in out.glob("traj_*.csv"):
            lines = path.read_text().splitlines()
            x0 = float(next(l for l in lines if l.startswith("# x0_fm = ")).split("=")[1])
            first = next(l for l in lines if not l.startswith("#"))
            t, x = (float(v) for v in first.split(","))
            assert t == 0.0 and x == pytest.approx(x0 * 1e-15, rel=1e-12)
            assert x0 == (float(window[1]) if window else -400.0)


@pytest.mark.parametrize("command", ["report", "nodes", "residuals", "trajectory",
                                     "classical-limit"])
def test_turning_energy_is_one_line(tmp_path, capsys, command):
    cfg = tmp_path / "turning.cfg"
    cfg.write_text(f"species = electron\nenergy_mev = 2\nu0_mev = {2.0 - 0.510998950!r}\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "turning energy" in _assert_one_error_line(capsys)


def test_figure_needs_its_reference_regime(tmp_path, capsys, configs):
    # one comparison of the scenario's regime and photon flag with the figure's own
    electron = tmp_path / "electron.cfg"
    electron.write_text("species = electron\nenergy_mev = 2\n")
    for fig, cfg in (("1", configs["forbidden"]), ("2", electron), ("3", electron),
                     ("4", electron), ("1", configs["linear"])):
        assert main(["figure", fig, "--config", str(cfg), "--out", str(tmp_path / fig)]) == 2
        assert f"figure {fig} needs a" in _assert_one_error_line(capsys)
