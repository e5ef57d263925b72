"""rqtlab benchmark: three CLI workloads, an oracle-checked accuracy gate and a traced run.

    python3 perfbench/run.py --workload fig4_linear --seed 0 --seconds 40 --trace 0

Run it from the root of an rqtlab checkout: it runs the package in ./src
(nothing is installed) and writes only under ./.bench_build/perfbench.

Each workload is one closed-loop client: every operation runs in a process
of its own, one at a time, and the next starts when the previous one has
ended.  A pass runs the workload's operations once: a fresh ``python``
process (perfbench/child.py) imports rqtlab.cli, then forks one process per
operation from that state, so a pass pays the import once and a run gets
more samples of each operation.  Passes repeat while the next one should
end within --seconds of the start, import-only probes included (at least
one pass).

--trace 0 prints the end-to-end metrics:
  cpu_s        CPU seconds of compute after import, per operation the
               median over passes, summed over the workload's operations,
               at the reference host speed (below)
  setup_s      CPU seconds of import rqtlab.cli, median over the run's
               pass processes and three import-only probes, times the
               workload's operation count: what running each operation
               as its own rqtlab process pays
  peak_rss_mb  largest ru_maxrss of any pass or operation process
  node_err_fm  largest |node - oracle node| over the checked nodes, at
               least 1e-9 fm (the printed digits)
  tof_err_dxn  largest time-of-flight deviation from the oracle, in node
               spacings, at least 1e-12
Both times are CPU time (user plus system) of the process, which leaves
out time it waited for a CPU but not a slower host.  The shared host's speed
drifts by tens of percent over minutes, so while a run lasts calibrate.py
times a fixed loop every half second on the one CPU all pass and operation
processes are pinned to, and cpu_s is scaled by CAL_REF_S over the run's
median loop time.
--trace 1 runs untraced and traced passes in pairs and prints per-layer
metrics from spans recorded around the public functions of each layer.

The last stdout line is a JSON object {correct, attempted, failed, metrics}.
An operation fails on a nonzero exit, a FAIL check line, an accuracy figure
over its bound, a node count other than the oracle's, or CSVs that differ
from an earlier pass or run with the same seed and the same sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import covered, importtime_split, self_times

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
REFS = HERE / "oracle_refs.json"
STATE = Path(".bench_build", "perfbench")  # under the checkout root

REFERENCE_AB = [(1.0, 0.0), (4.0, 2.0), (0.5, -1.0)]  # the CLI's DEFAULT_AB
LINEAR_CFG = "species = electron\nenergy_mev = 2\npotential = linear\ng_mev_per_fm = 0.25\n"
METERS_PER_FM = 1.0e-15

# accuracy gates: a figure over its bound fails the operation
NODE_ERR_BOUND_LINEAR = 1.5e-5   # fm, ten times the 1e-3 fm step's last-node error
NODE_ERR_BOUND_CONSTANT = 1.0e-6  # fm, closed forms printed to 13 digits
TOF_ERR_BOUND = 1.0e-6           # node spacings, acceptance criterion 4 (closed forms)
# Numeric bases are interpolated linearly between grid points, which biases
# the time of flight by O(step^2): 4.6e-4 node spacings at figure 4's start
# with the 1e-3 fm step, 1.8e-3 at 2e-3 fm.
TOF_ERR_BOUND_LINEAR = 1.0e-3
# Reported accuracy figures are clamped to their resolution, so that a change
# of summation order or quadrature below it does not read as a regression:
# node positions are printed to 13 digits (1e-9 fm below 10^4 fm), and the
# closed-form time of flight is compared in double precision.
NODE_ERR_FLOOR = 1.0e-9   # fm
TOF_ERR_FLOOR = 1.0e-12   # node spacings

# calibrate.py's loop time at the reference host speed: cpu_s is scaled by
# CAL_REF_S over the run's median loop time, so that it reads in CPU seconds
# of a host on which the loop takes CAL_REF_S.
CAL_REF_S = 0.009
IMPORT_PROBES = 4     # import-only pass processes before the first pass; the first is not counted
RUN_LIMIT_S = 170.0   # a run ends within this, whatever --seconds says

E2E_UNITS = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
             "node_err_fm": "fm", "tof_err_dxn": "dx_n"}
LAYER_UNITS = {
    "kg.solve_s": "s", "kg.steps": "count", "kg.steps_per_s": "1/s", "kg.sample_mb": "MiB",
    "kg.zeros_s": "s", "kg.roots": "count", "kg.roots_per_s": "1/s", "kg.fd_residual_s": "s",
    "trajectory.tof_s": "s", "trajectory.tof_members": "count",
    "trajectory.tof_samples_per_s": "1/s", "trajectory.gauss_points": "count",
    "trajectory.closed_s": "s", "trajectory.check_s": "s",
    "action.scan_s": "s", "action.scan_points": "count", "action.points_per_s": "1/s",
    "nodes.self_s": "s",
    "cli.csv_s": "s", "cli.csv_bytes": "B", "cli.self_s": "s",
    "setup.numpy_s": "s", "setup.scipy_s": "s", "setup.rqtlab_s": "s",
    "setup.other_s": "s", "host.calibration_s": "s", "trace.overhead_s": "s",
    "trace.covered_share": "ratio",
}


# Draw range of the seeded members.  For small a with b near 2 the
# linear-potential `residuals` gate misses its own 1e-3 bound (rqshje 1.6e-3
# at a = 0.3386, b = 1.9945; see test_perfbench.py): such seeds fail.
A_RANGE = (0.25, 4.0)
B_RANGE = (-2.0, 2.0)


def family(seed: int) -> list[tuple[float, float]]:
    """Family list for a seed: the reference list at 0, else (1,0) plus two draws."""
    if seed == 0:
        return list(REFERENCE_AB)
    rng = random.Random(seed)
    members = [(1.0, 0.0)]
    while len(members) < 3:
        member = (round(rng.uniform(*A_RANGE), 4), round(rng.uniform(*B_RANGE), 4))
        if all(f"{member[0]:g},{member[1]:g}" != f"{a:g},{b:g}" for a, b in members):
            members.append(member)
    return members


def ab_text(members) -> str:
    return ";".join(f"{a!r},{b!r}" for a, b in members)


def operations(workload: str, members, cfg: Path) -> list[tuple[str, str, list[str]]]:
    """(name, kind, argv) of one pass; "--out DIR" is appended per run."""
    ab = ["--ab", ab_text(members)]
    lin = ["--config", str(cfg)]
    if workload == "fig4_linear":
        return [("figure4", "cli", ["figure", "4", *ab])]
    if workload == "linear_gates":
        return [("report", "cli", ["report", *lin]), ("nodes", "cli", ["nodes", *lin]),
                ("residuals", "cli", ["residuals", *lin, *ab]),
                ("trajectory", "cli", ["trajectory", *lin, *ab])]
    if workload == "constant_closed":
        return [("figure1", "cli", ["figure", "1", *ab]), ("figure2", "cli", ["figure", "2", *ab]),
                ("figure3", "cli", ["figure", "3", *ab]), ("report", "cli", ["report"]),
                ("residuals", "cli", ["residuals", *ab]), ("nodes", "cli", ["nodes"]),
                ("classical-limit", "cli", ["classical-limit", "--ab", ab_text(members[1:2])]),
                ("tof", "tof", [ab_text(members)])]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("fig4_linear", "linear_gates", "constant_closed")


# ---------------------------------------------------------------------------
# output checks

def csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()
            if line and not line.startswith("#")]


def failed_check_lines(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines()
            if re.match(r"^check .*: FAIL\b", line) or line.startswith("FAILED checks")]


def node_error(nodes_fm: list[float], ref: dict, errors: list[str]) -> float | None:
    """Largest |node - oracle| over the oracle's nodes; a wrong count is an error."""
    if len(nodes_fm) != ref["node_count"]:
        errors.append(f"{len(nodes_fm)} nodes, oracle has {ref['node_count']}")
        return None
    return max(abs(nodes_fm[n] - x) for n, x in ref["nodes"])


def tof_error(path: Path, ref: dict, errors: list[str]) -> float | None:
    """(1,0) member's time of flight against the oracle, in local node spacings."""
    rows = csv_rows(path)
    worst = 0.0
    for point in ref["tof"]:
        t, x_m = (float(v) for v in rows[point["sample"]])
        if abs(x_m / METERS_PER_FM - point["x_fm"]) > 1e-9 * max(1.0, abs(point["x_fm"])):
            errors.append(f"{path.name} sample {point['sample']} is not at the oracle's x")
            return None
        dev = abs(t - point["t_s"]) * point["speed_fm_per_s"] / point["dx_local_fm"]
        worst = max(worst, dev)
    return worst


def check_outputs(workload: str, name: str, out: Path, stdout: str, record: dict,
                  refs: dict) -> tuple[dict, list[str]]:
    """Accuracy figures of one operation and the reasons it failed, if any."""
    errors: list[str] = []
    if record.get("rc") != 0:
        errors.append(f"exit code {record.get('rc')} {record.get('error', '')}".strip())
    errors += [f"check line: {line}" for line in failed_check_lines(stdout)]
    acc: dict[str, float | None] = {}
    linear = workload in ("fig4_linear", "linear_gates")
    bound = NODE_ERR_BOUND_LINEAR if linear else NODE_ERR_BOUND_CONSTANT
    tof_bound = TOF_ERR_BOUND_LINEAR if linear else TOF_ERR_BOUND
    try:
        if linear:
            ref = refs[workload]
            if name == "figure4":
                nodes = [float(r[2]) / METERS_PER_FM for r in csv_rows(out / "fig4_nodes.csv")]
                acc["node_err_fm"] = node_error(nodes, ref, errors)
                acc["tof_err_dxn"] = tof_error(out / "fig4_traj_a1_b0.csv", ref, errors)
            elif name == "nodes":
                rows = csv_rows(out / "nodes.csv")
                nodes = [float(r[1]) / METERS_PER_FM for r in rows] + [float(rows[-1][2]) / METERS_PER_FM]
                acc["node_err_fm"] = node_error(nodes, ref, errors)
            elif name == "trajectory":
                acc["tof_err_dxn"] = tof_error(out / "traj_a1_b0.csv", ref, errors)
            elif name == "report":
                m = re.search(r"^numeric nodes\s*:\s*(\d+)", stdout, re.M)
                if not m or int(m.group(1)) != ref["node_count"]:
                    errors.append(f"report node count {m and m.group(1)} != {ref['node_count']}")
        else:
            node_csvs = {"figure1": ("fig1_nodes.csv", "constant_electron"),
                         "figure3": ("fig3_nodes.csv", "constant_photon"),
                         "report": ("node_report.csv", "constant_electron"),
                         "nodes": ("nodes.csv", "constant_electron")}
            if name in node_csvs:
                fname, key = node_csvs[name]
                nodes = [float(r[2]) / METERS_PER_FM for r in csv_rows(out / fname)]
                if not nodes or len(nodes) > len(refs[key]):
                    errors.append(f"{fname}: {len(nodes)} nodes")
                else:
                    acc["node_err_fm"] = max(abs(x - r) for x, r in zip(nodes, refs[key]))
            elif name == "tof" and "tof_err_dxn" in record:
                acc["tof_err_dxn"] = record["tof_err_dxn"]
    except (OSError, ValueError, IndexError) as exc:
        errors.append(f"unreadable output: {type(exc).__name__}: {exc}")
    acc = {key: value for key, value in acc.items() if value is not None}
    if acc.get("node_err_fm", 0.0) > bound:
        errors.append(f"node error {acc['node_err_fm']:.3e} fm over {bound:.0e}")
    if acc.get("tof_err_dxn", 0.0) > tof_bound:
        errors.append(f"time-of-flight error {acc['tof_err_dxn']:.3e} dx_n over {tof_bound:.0e}")
    return acc, errors


def digest(root: Path, pattern: str = "*") -> str:
    """sha256 over the names and bytes of the files under root matching pattern."""
    h = hashlib.sha256()
    for path in sorted(root.rglob(pattern)):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class DigestStore:
    """CSV digests per sources and operation arguments, kept across runs."""

    def __init__(self, path: Path, key_prefix: str):
        self.path, self.prefix = path, key_prefix
        self.data = json.loads(path.read_text()) if path.exists() else {}

    def check(self, key: str, value: str) -> bool:
        """True unless an earlier run stored another digest under key."""
        return self.data.setdefault(f"{self.prefix}|{key}", value) == value

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=0))
        os.replace(tmp, self.path)


# ---------------------------------------------------------------------------
# processes

class Runner:
    def __init__(self, root: Path, work: Path, deadline: float):
        self.src = root / "src"
        self.root, self.work, self.deadline = root, work, deadline
        self.env = dict(os.environ, PYTHONPATH=str(self.src), OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.count = 0

    def spawn(self, argv: list[str], stdout, stderr) -> bool:
        """Run argv and every process it forks to completion; True if it timed out."""
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=self.root, env=self.env,
                                start_new_session=True)
        try:
            while proc.poll() is None:
                if time.monotonic() > self.deadline:
                    self.kill_group(proc)
                    return True
                time.sleep(0.02)
        except BaseException:  # interrupted: leave no process behind
            self.kill_group(proc)
            raise
        return False

    @staticmethod
    def kill_group(proc) -> None:
        """Kill proc's process group and wait until no member of it is left."""
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        for _ in range(1000):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)

    def run_pass(self, ops: list[tuple[str, str, list[str]]], trace: bool,
                 tag: str) -> tuple[dict, list[tuple[dict, str, Path]]]:
        """One pass process (see child.py): its import record, and per operation
        its record, its stdout and its output dir."""
        self.count += 1
        base = self.work / f"pass{self.count:04d}"
        base.mkdir(parents=True)
        plan = {"record": str(base / "pass.json"), "ops": []}
        outs = []
        for i, (name, kind, args) in enumerate(ops):
            out = base / f"op{i:02d}"
            out.mkdir(parents=True)
            outs.append(out)
            plan["ops"].append({
                "kind": kind, "args": [*args, "--out", str(out)] if kind == "cli" else args,
                "trace": trace, "run_id": f"{tag}:{name}",
                "record": str(out) + ".json", "stdout": str(out) + ".out", "stderr": str(out) + ".err"})
        plan_path = base / "plan.json"
        plan_path.write_text(json.dumps(plan))
        with open(self.work / "pass_stderr.txt", "w+") as se:
            timed_out = self.spawn([sys.executable, str(CHILD), str(self.src), str(plan_path)],
                                   subprocess.DEVNULL, se)
            se.seek(0)
            stderr = se.read()
        head = read_json(Path(plan["record"]))
        if head is None:
            head = {"rc": 1, "error": "timed out" if timed_out else stderr.strip()[-300:]}
        results = []
        for op, out in zip(plan["ops"], outs):
            record = read_json(Path(op["record"]))
            if record is None:
                record = {"rc": -9 if timed_out else head.get("rc") or 1, "compute_s": 0.0,
                          "compute_wall_s": 0.0,
                          "error": "timed out" if timed_out else head.get("error", "not run")}
            stdout_path = Path(op["stdout"])
            stdout = stdout_path.read_text(errors="replace") if stdout_path.exists() else ""
            results.append((record, stdout, out))
        return head, results

    def start_sampler(self):
        """Start calibrate.py; see stop_sampler."""
        return subprocess.Popen([sys.executable, str(HERE / "calibrate.py"),
                                 str(self.work / "calibration.txt")],
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                cwd=self.root, start_new_session=True)

    def stop_sampler(self, proc) -> list[float]:
        """Stop calibrate.py; its loop times."""
        self.kill_group(proc)
        path = self.work / "calibration.txt"
        text = path.read_text() if path.exists() else ""
        return [float(v) for v in text.splitlines(keepends=True) if v.endswith("\n")]

    def importtime(self) -> dict[str, float]:
        with open(self.work / "importtime.txt", "w+") as se:
            self.spawn([sys.executable, "-X", "importtime", "-c", "import rqtlab.cli"],
                       subprocess.DEVNULL, se)
            se.seek(0)
            return importtime_split(se.read())


def read_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


# ---------------------------------------------------------------------------
# one run

def layer_metrics(records: list[dict], csv_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    spans = [s for r in records for s in r.get("spans", [])]
    selfs = {}
    for r in records:
        st = self_times(r.get("spans", []))
        selfs.update({id(s): st[s["id"]] for s in r.get("spans", [])})

    def total(name, key=None):
        chosen = [s for s in spans if s["name"] == name]
        if key is None:
            return sum(s["end"] - s["start"] for s in chosen)
        return sum(s["counts"].get(key, 0) for s in chosen)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    m = {}
    m["kg.solve_s"] = total("kg.solve")
    m["kg.steps"] = total("kg.solve", "steps")
    m["kg.steps_per_s"] = rate(m["kg.steps"], m["kg.solve_s"])
    m["kg.sample_mb"] = max([s["counts"]["sample_mb"] for s in spans if s["name"] == "kg.solve"],
                            default=0.0)
    m["kg.zeros_s"] = total("kg.zeros")
    m["kg.roots"] = total("kg.zeros", "roots")
    m["kg.roots_per_s"] = rate(m["kg.roots"], m["kg.zeros_s"])
    m["kg.fd_residual_s"] = total("kg.fd_residual")
    m["trajectory.tof_s"] = total("trajectory.tof")
    m["trajectory.tof_members"] = sum(1 for s in spans if s["name"] == "trajectory.tof")
    m["trajectory.tof_samples_per_s"] = rate(total("trajectory.tof", "samples"), m["trajectory.tof_s"])
    m["trajectory.gauss_points"] = total("trajectory.tof", "gauss_points")
    m["trajectory.closed_s"] = total("trajectory.closed")
    m["trajectory.check_s"] = total("trajectory.check")
    m["action.scan_s"] = total("action.scan")
    m["action.scan_points"] = total("action.scan", "points")
    m["action.points_per_s"] = rate(m["action.scan_points"], m["action.scan_s"])
    m["nodes.self_s"] = sum(selfs[id(s)] for s in spans if s["layer"] == "nodes")
    m["cli.csv_s"] = sum(s["end"] - s["start"] for s in spans if s["layer"] == "csv")
    m["cli.csv_bytes"] = csv_bytes
    m["cli.self_s"] = sum(selfs[id(s)] for s in spans if s["name"] == "cli.main")
    core = sum(covered(r.get("spans", []), {"kg", "trajectory", "nodes"}) for r in records)
    m["trace.covered_share"] = rate(core, sum(r["compute_wall_s"] for r in records))
    return m


def run(workload: str, seed: int, seconds: int, trace: bool, root: Path) -> dict:
    started = time.monotonic()
    refs = json.loads(REFS.read_text())
    state = root / STATE
    work = state / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = state / "linear.cfg"  # a fixed path keeps operation arguments equal across runs
    cfg.write_text(LINEAR_CFG)
    runner = Runner(root, work, started + RUN_LIMIT_S)
    store = DigestStore(state / "csv_digests.json", digest(root / "src"))
    ops = operations(workload, family(seed), cfg)

    failures: list[str] = []
    attempted = 0
    imports: list[float] = []
    sampler = runner.start_sampler()
    try:
        for i in range(IMPORT_PROBES):
            head, _ = runner.run_pass([], False, f"probe{i}")
            if head.get("rc") != 0:
                raise RuntimeError(f"import rqtlab.cli failed: {head.get('error')}")
            if i:  # the first one warms caches and byte-code
                imports.append(head["import_s"])

        passes: list[dict] = []   # {"trace", "records", "acc", "csv_bytes", "rss_mb"}
        first_digest: dict[str, str] = {}
        while True:
            pass_start = time.monotonic()
            for traced in ((False, True) if trace else (False,)):
                records, acc, csv_bytes = [], {}, 0
                head, results = runner.run_pass(ops, traced, str(len(passes)))
                if not traced and "import_s" in head:
                    imports.append(head["import_s"])
                for (name, kind, args), (record, stdout, out) in zip(ops, results):
                    attempted += 1
                    figures, errors = check_outputs(workload, name, out, stdout, record, refs)
                    csvs = digest(out, "*.csv")
                    if first_digest.setdefault(name, csvs) != csvs:
                        errors.append("CSVs differ from this run's first pass")
                    elif not store.check(" ".join([kind, *args]), csvs):
                        errors.append("CSVs differ from an earlier run with the same seed")
                    csv_bytes += sum(p.stat().st_size for p in out.rglob("*.csv"))
                    for key, value in figures.items():
                        acc[key] = max(acc.get(key, 0.0), value)
                    if errors:
                        failures.append(f"pass {len(passes)} {name}: " + "; ".join(errors))
                    records.append(record)
                if results:
                    shutil.rmtree(results[0][2].parent, ignore_errors=True)
                rss = max([head.get("rss_mb", 0.0)] + [r.get("rss_mb", 0.0) for r in records])
                passes.append({"trace": traced, "records": records, "acc": acc,
                               "csv_bytes": csv_bytes, "rss_mb": rss})
            # another pass only if it should end inside the measuring window
            now = time.monotonic()
            if now + (now - pass_start) > min(started + seconds, started + RUN_LIMIT_S - 5):
                break
    finally:
        cals = runner.stop_sampler(sampler)
    store.save()
    if trace:
        setups = [runner.importtime() for _ in range(3)]
    shutil.rmtree(work, ignore_errors=True)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)

    if not cals:
        raise RuntimeError("calibrate.py took no sample")
    plain = [p for p in passes if not p["trace"]]
    if trace:
        cpus = [sum(r["compute_s"] for r in p["records"]) for p in plain]
        traced = [p for p in passes if p["trace"]]
        per_pass = [layer_metrics(p["records"], p["csv_bytes"]) for p in traced]
        metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
        for group in ("numpy", "scipy", "rqtlab", "other"):
            metrics[f"setup.{group}_s"] = statistics.median(s[group] for s in setups)
        metrics["host.calibration_s"] = statistics.median(cals)
        metrics["trace.overhead_s"] = statistics.median(
            sum(r["compute_s"] for r in t["records"]) - c for t, c in zip(traced, cpus))
        units = LAYER_UNITS
    else:
        metrics = {
            # per-operation medians, summed, at the reference host speed: one slow
            # pass of one command moves it little, a slower host not at all
            "cpu_s": sum(statistics.median(p["records"][i]["compute_s"] for p in plain)
                         for i in range(len(ops))) * CAL_REF_S / statistics.median(cals),
            "setup_s": len(ops) * statistics.median(imports),
            "peak_rss_mb": max(p["rss_mb"] for p in plain),
            "node_err_fm": max([NODE_ERR_FLOOR] + [p["acc"].get("node_err_fm", 0.0) for p in plain]),
            "tof_err_dxn": max([TOF_ERR_FLOOR] + [p["acc"].get("tof_err_dxn", 0.0) for p in plain]),
        }
        units = E2E_UNITS
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "rqtlab" / "cli.py").is_file():
        print("error: run from the root of an rqtlab checkout (no src/rqtlab here)", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(root / STATE / f"run-{os.getpid()}", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
