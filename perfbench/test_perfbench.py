"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from spans import covered, importtime_split, self_times  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def test_seed_zero_is_the_cli_reference_family():
    sys.path.insert(0, str(ROOT / "src"))
    from rqtlab.cli import DEFAULT_AB

    assert run.family(0) == [tuple(m) for m in DEFAULT_AB]


@pytest.mark.parametrize("seed", [1, 2, 7, 42, 1234, 99991])
def test_seed_family_keeps_straight_member_first(seed):
    members = run.family(seed)
    assert members == run.family(seed)
    assert members[0] == (1.0, 0.0)
    assert len(members) == 3
    for a, b in members[1:]:
        assert a != 0.0 and run.A_RANGE[0] <= a <= run.A_RANGE[1]
        assert run.B_RANGE[0] <= b <= run.B_RANGE[1]
    assert len({f"{a:g},{b:g}" for a, b in members}) == 3


def test_ab_text_round_trips():
    members = run.family(5)
    parsed = [tuple(float(v) for v in chunk.split(",")) for chunk in run.ab_text(members).split(";")]
    assert parsed == members


def _span(i, parent, start, end, layer="kg", name="x"):
    return {"id": i, "parent": parent, "name": name, "layer": layer,
            "start": start, "end": end, "run": "0:test", "counts": {}}


def test_self_time_subtracts_union_of_direct_children():
    spans = [
        _span(0, None, 0.0, 10.0, layer="cli"),
        _span(1, 0, 1.0, 4.0),
        _span(2, 0, 3.0, 6.0, layer="nodes"),  # overlaps span 1: union is [1, 6]
        _span(3, 1, 2.0, 3.0),                 # grandchild: only its parent loses it
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(5.0)
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(3.0)
    assert st[3] == pytest.approx(1.0)
    assert covered(spans, {"kg", "nodes"}) == pytest.approx(5.0)
    assert covered(spans, {"cli"}) == pytest.approx(10.0)


def test_self_time_clips_children_to_parent():
    spans = [_span(0, None, 0.0, 2.0), _span(1, 0, 1.5, 3.0)]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_importtime_split_groups_self_time():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   _io",
        "import time:      2000 |       2500 |     numpy.core",
        "import time:       500 |       3000 |   numpy",
        "import time:      7000 |       7000 |       scipy.integrate",
        "import time:       300 |      10300 | rqtlab.cli",
    ])
    groups = importtime_split(text)
    assert groups["numpy"] == pytest.approx(2.5e-3)
    assert groups["scipy"] == pytest.approx(7e-3)
    assert groups["rqtlab"] == pytest.approx(3e-4)
    assert groups["other"] == pytest.approx(1e-4)


def test_failed_check_lines():
    out = "check a: PASS (1e-9 <= 1e-6)\ncheck b: FAIL (2e-3 <= 1e-6)\nFAILED checks: b\n"
    assert run.failed_check_lines(out) == ["check b: FAIL (2e-3 <= 1e-6)", "FAILED checks: b"]
    assert run.failed_check_lines("check a: PASS (0 <= 1)\n") == []


def _fake_checkout(root: Path, body: str) -> None:
    pkg = root / "src" / "rqtlab"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(f"def main(argv):\n{body}\n")


def test_failing_check_line_counts_as_failed(tmp_path, capsys):
    _fake_checkout(tmp_path, "    print('check fake: FAIL (1 <= 0)')\n    return 0")
    result = run.run("linear_gates", 0, 1, False, tmp_path)
    assert result["attempted"] >= 4 and result["attempted"] % 4 == 0
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert capsys.readouterr().err.count("check line: check fake: FAIL") == result["failed"]


def test_each_operation_starts_from_the_imported_state(tmp_path, capsys):
    # operations are forked from one imported process: none may see another's state
    _fake_checkout(tmp_path, "    global CALLS\n    CALLS = globals().get('CALLS', 0) + 1\n"
                   "    print(f'calls {CALLS} args {argv[0]}')\n    return 0")
    runner = run.Runner(tmp_path, tmp_path / "work", float("inf"))
    ops = [(name, "cli", [name]) for name in ("first", "second", "third")]
    head, results = runner.run_pass(ops, False, "0")
    assert head["rc"] == 0 and head["import_s"] > 0
    assert [stdout for _, stdout, _ in results] == [f"calls 1 args {n}\n" for n, _, _ in ops]
    for record, _, _ in results:
        assert record["rc"] == 0 and record["compute_s"] >= 0 and record["rss_mb"] > 0


@pytest.mark.parametrize("body, reason", [
    ("    raise SystemExit(2)", "exit code 2"),
    ("    import os\n    os._exit(9)", "exit code 9"),  # dies without writing its record
])
def test_nonzero_exit_counts_as_failed(tmp_path, capsys, body, reason):
    _fake_checkout(tmp_path, body)
    result = run.run("fig4_linear", 0, 1, False, tmp_path)
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert reason in capsys.readouterr().err


@pytest.mark.xfail(strict=True, reason="linear rqshje residual 1.6e-3 over the 1e-3 gate "
                   "for a small a and b near 2; a seed that draws such a member fails")
def test_linear_residual_gate_holds_for_small_a(tmp_path, capsys):
    sys.path.insert(0, str(ROOT / "src"))
    from rqtlab.cli import main

    cfg = tmp_path / "linear.cfg"
    cfg.write_text(run.LINEAR_CFG)
    rc = main(["residuals", "--config", str(cfg), "--ab", "1,0;0.3386,1.9945",
               "--out", str(tmp_path)])
    assert rc == 0, capsys.readouterr().out


def test_refuses_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "fig4_linear", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
