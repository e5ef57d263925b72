"""One benchmark pass: a fresh Python process that imports rqtlab, then runs
each of the pass's operations in a process of its own forked from it.

    python3 child.py SRC PLAN

PLAN is a JSON file: {"record": PATH, "ops": [OP, ...]}, each OP
{"kind", "args", "trace", "run_id", "record", "stdout", "stderr"}, where kind
is "cli" (args are one rqtlab CLI command) or "tof" (args are one family
list for the criterion-4 library call).  A plan without ops only imports.

The process pins itself to the CPU calibrate.py samples, times
``import rqtlab.cli`` (set-up) in CPU seconds and writes it to the plan's
record.  Then, one at a time, it forks a process per
operation and waits for it to end: every operation starts from the state a
fresh ``python -c "import rqtlab.cli"`` has, runs once, and exits, so the
import is paid once per pass instead of once per operation.  The forked
process times the operation (compute) in CPU seconds (``time.process_time``,
user plus system) and wall seconds, with its stdout and stderr in the OP's
files, and writes them to the OP's record; this process adds the exit status
and peak resident memory from ``os.wait4``.  With trace set, the public
functions of the kg, trajectory, action and nodes layers and the CSV writers
are wrapped in spans, both in their defining module and in every rqtlab
namespace that imported them; the spans go into the OP's record as well.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
import traceback
import weakref
from pathlib import Path

# (layer, span name, module, attribute)
LAYERS = [
    ("kg", "kg.solve", "kg", "kg_solve_numeric"),
    ("kg", "kg.closed", "kg", "kg_closed_constant"),
    ("kg", "kg.fd_residual", "kg", "kg_fd_residual"),
    ("kg", "kg.wronskian_drift", "kg", "wronskian_drift"),
    ("trajectory", "trajectory.tof", "trajectory", "trajectory_ode"),
    ("trajectory", "trajectory.closed", "trajectory", "trajectory_constant_allowed"),
    ("trajectory", "trajectory.closed", "trajectory", "trajectory_photon"),
    ("trajectory", "trajectory.closed", "trajectory", "trajectory_constant_forbidden"),
    ("trajectory", "trajectory.check", "trajectory", "firqnl_residual"),
    ("trajectory", "trajectory.check", "trajectory", "velocity_momentum_check"),
    ("action", "action.scan", "action", "action_scan"),
    ("nodes", "nodes.constant", "nodes", "nodes_constant"),
    ("nodes", "nodes.numeric", "nodes", "nodes_numeric"),
    ("nodes", "nodes.linear_summary", "nodes", "linear_node_summary"),
    ("nodes", "nodes.de_broglie", "nodes", "de_broglie_check"),
    ("nodes", "nodes.mean_momentum", "nodes", "mean_momentum"),
    ("nodes", "nodes.classical_limit", "nodes", "classical_limit_scan"),
    ("csv", "csv.trajectory", "trajectory", "write_trajectory_csv"),
    ("csv", "csv.node_report", "nodes", "write_node_report_csv"),
    ("csv", "csv.classical", "nodes", "write_classical_csv"),
    ("csv", "csv.basis", "kg", "write_basis_csv"),
]


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _count_solve(span, basis, args, kwargs):
    n = len(basis.grid)
    span["counts"].update(steps=n - 1, sample_mb=5 * 8 * n / 2**20)


def _count_tof(span, traj, args, kwargs):
    basis = _arg(args, kwargs, 1, "basis")
    n = len(traj.times)
    span["counts"]["samples"] = n
    if not basis.is_closed_form:
        # computed, not measured: 4 Gauss points per panel, one panel per grid
        # cell inside the sampled range plus one per sample
        import numpy as np

        lo = float(_arg(args, kwargs, 3, "x_range")[0])
        hi = lo + abs(float(traj.positions[-1]) - float(traj.positions[0]))
        grid = basis.grid
        inside = int(np.searchsorted(grid, hi, "left") - np.searchsorted(grid, lo, "right"))
        span["counts"]["gauss_points"] = 4 * (inside + n - 1)


def _count_closed(span, result, args, kwargs):
    traj = result[0] if isinstance(result, tuple) else result
    span["counts"]["samples"] = len(traj.times)


def _count_scan(span, rows, args, kwargs):
    span["counts"]["points"] = len(rows)


COUNTERS = {"kg.solve": _count_solve, "trajectory.tof": _count_tof,
            "trajectory.closed": _count_closed, "action.scan": _count_scan}


def install_spans(recorder) -> None:
    """Wrap every LAYERS function wherever rqtlab holds a reference to it."""
    import rqtlab
    from rqtlab import kg

    namespaces = [m for name, m in sys.modules.items()
                  if name == "rqtlab" or name.startswith("rqtlab.")]
    for layer, span_name, module, attr in LAYERS:
        original = getattr(getattr(rqtlab, module), attr)
        wrapped = recorder.wrap(span_name, layer, original, COUNTERS.get(span_name))
        for ns in namespaces:
            if getattr(ns, attr, None) is original:
                setattr(ns, attr, wrapped)

    # phi2_zeros: the first call on a numeric basis polishes every root
    polished = weakref.WeakSet()
    original_zeros = kg.KgBasis.phi2_zeros

    def phi2_zeros(self, lo=None, hi=None):
        first = not self.is_closed_form and self not in polished
        span = recorder.open("kg.zeros" if first else "kg.zeros_lookup", "kg")
        try:
            result = original_zeros(self, lo, hi)
        finally:
            recorder.close(span)
        if first:
            polished.add(self)
            span["counts"]["roots"] = len(original_zeros(self))
        return result

    kg.KgBasis.phi2_zeros = phi2_zeros


def tof_check(ab_text: str) -> dict:
    """Acceptance criterion 4 on the closed-form electron basis.

    Quadrature trajectory of each given member against the closed form over
    3.2 node spacings, at the acceptance test's 60 samples; the largest
    deviation is returned in units of the node spacing dx_n.
    """
    import numpy as np
    import rqtlab as rq

    s = rq.Scenario(rq.Species.electron(), rq.Potential.constant(0.0), energy=2.0)
    basis = rq.kg_closed_constant(s, -3000.0, 3000.0)
    dx_n = float(rq.nodes_constant(s).dx_spacings[0])
    u = s.energy - s.potential.u0
    q2 = u * u - s.rest_energy**2
    k, omega = math.sqrt(q2) / s.hbar_c, q2 / (s.hbar * u)
    x_lo = 10.0

    worst = 0.0
    for chunk in ab_text.split(";"):
        a, b = (float(v) for v in chunk.split(","))
        p = rq.MobiusParams(a, b)
        ode = rq.trajectory_ode(s, basis, p, (x_lo, x_lo + 3.2 * dx_n), 60)
        t_shift = math.atan(a * math.tan(k * x_lo) + b) / omega
        pd = rq.dual_params(p)
        ref = rq.constant_allowed_position(s, pd, ode.times + t_shift)
        ref0 = rq.constant_allowed_position(s, pd, t_shift)
        worst = max(worst, float(np.max(np.abs((ode.positions - x_lo) - (ref - ref0)))))
    return {"tof_err_dxn": worst / dx_n}


MADV_POPULATE_WRITE = 23  # Linux 5.14


def unshare_pages() -> None:
    """Copy now every resident private page still shared with the parent.

    A forked process shares its parent's writable pages until it writes to
    them, and Python writes to every object it touches (reference counts).
    Without this the operation's timing would include copying those pages,
    a cost a fresh process does not have.  Pages that are not resident are
    left alone, so nothing the parent never touched is allocated.
    """
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    page = os.sysconf("SC_PAGE_SIZE")
    with open("/proc/self/maps") as maps:
        regions = [line.split()[:2] for line in maps]
    for span, perms in regions:
        if perms[1] != "w" or perms[3] != "p":
            continue
        lo, hi = (int(v, 16) for v in span.split("-"))
        n = (hi - lo) // page
        vec = (ctypes.c_ubyte * n)()
        if libc.mincore(ctypes.c_void_p(lo), ctypes.c_size_t(hi - lo), vec) != 0:
            continue
        resident = bytes(vec)
        i = resident.find(1)
        while i >= 0:
            j = resident.find(0, i)
            j = n if j < 0 else j
            libc.madvise(ctypes.c_void_p(lo + i * page), ctypes.c_size_t((j - i) * page),
                         MADV_POPULATE_WRITE)
            i = resident.find(1, j)


def run_op(op: dict) -> None:
    """Body of a forked operation process: time one operation, write its record."""
    with open(op["stdout"], "w") as so, open(op["stderr"], "w") as se:
        os.dup2(so.fileno(), 1)
        os.dup2(se.fileno(), 2)
    unshare_pages()
    import rqtlab.cli

    record = {"rc": 0}
    recorder = None
    if op["trace"]:
        from spans import Recorder

        recorder = Recorder(op["run_id"])
        install_spans(recorder)

    c2, t2 = time.process_time(), time.perf_counter()
    root = recorder.open(f"{op['kind']}.main", "cli") if recorder else None
    try:
        if op["kind"] == "cli":
            record["rc"] = rqtlab.cli.main(op["args"])
        elif op["kind"] == "tof":
            record.update(tof_check(op["args"][0]))
    except SystemExit as exc:
        record["rc"] = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed operation, reported as such
        record["rc"] = 1
        record["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        if root is not None:
            recorder.close(root)
    record["compute_s"] = time.process_time() - c2
    record["compute_wall_s"] = time.perf_counter() - t2
    if recorder is not None:
        record["spans"] = recorder.spans
    sys.stdout.flush()
    sys.stderr.flush()
    Path(op["record"]).write_text(json.dumps(record))


def fork_op(op: dict) -> None:
    """Run one operation in a forked process; complete its record from wait4."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            run_op(op)
        except BaseException:
            traceback.print_exc()
            code = 70
        finally:
            os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    rc = os.waitstatus_to_exitcode(status)
    path = Path(op["record"])
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):  # died before writing it
        stderr = Path(op["stderr"]).read_text(errors="replace").strip()
        record = {"rc": rc, "compute_s": 0.0, "compute_wall_s": 0.0, "error": stderr[-300:]}
    if rc != 0 and record.get("rc") == 0:
        record["rc"] = rc
    record["rss_mb"] = usage.ru_maxrss / 1024.0
    path.write_text(json.dumps(record))


def main(argv: list[str]) -> int:
    src, plan = argv[0], json.loads(Path(argv[1]).read_text())
    # every pass and operation on the CPU calibrate.py samples
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    c0 = time.process_time()
    sys.path.insert(0, src)
    import rqtlab.cli

    record = {"import_s": time.process_time() - c0, "rc": 0,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    src_pkg = (Path(src) / "rqtlab").resolve()
    if Path(rqtlab.__file__).resolve().parent != src_pkg:
        record["rc"] = 3
        record["error"] = f"rqtlab imported from {rqtlab.__file__}, not {src_pkg}"
    Path(plan["record"]).write_text(json.dumps(record))
    if record["rc"]:
        return record["rc"]
    for op in plan["ops"]:
        fork_op(op)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
