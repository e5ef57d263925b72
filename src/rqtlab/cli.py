"""Command-line front end emitting deterministic CSV datasets.

Subcommands reproduce the four reference figures (constant-potential
electron family, forbidden-region electron, photon family, linear
potential) and print node / wavelength / residual reports.  Identical
configurations produce byte-identical CSV files; all emitted lengths are
metres and times seconds, with the full configuration echoed in header
comments.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .action import MobiusParams, action_scan
from .errors import IntegrationOverflowError
from .kg import (DEFAULT_METHOD, DEFAULT_STEP, DRIFT_TOL_NUMERIC, METHODS, kg_closed_constant,
                 kg_fd_residual, kg_solve_linear, kg_solve_numeric, wronskian_drift,
                 write_basis_csv)
from .nodes import (NodeIntervals, classical_limit_scan, linear_node_summary, nodes_constant,
                    nodes_numeric, spacing_grows, write_classical_csv, write_node_report_csv)
from .scenario import (METERS_PER_FM, Potential, RegionClass, Scenario, Species, constant_rates,
                       load_config, scenario_from_config, scenario_header, turning_points,
                       write_csv)
from .trajectory import (MAX_SAMPLES, firqnl_residual, refuse_mirrored,
                         trajectory_constant_allowed, trajectory_constant_forbidden,
                         trajectory_ode_family, velocity_momentum_check, write_trajectory_csv)

DEFAULT_AB = ((1.0, 0.0), (4.0, 2.0), (0.5, -1.0))

# Reference scenario and anchor x0 (fm) of each figure; figure 1's is every
# other subcommand's default.  Figure 2's caption leaves U0 open: 1.7 MeV
# puts E - U0 = 0.3 MeV below m0 c^2, in the forbidden region.
FIGURES = {
    1: (Scenario(Species.electron(), Potential.constant(0.0), energy=2.0), 0.0),
    2: (Scenario(Species.electron(), Potential.constant(1.7), energy=2.0), 0.0),
    3: (Scenario(Species.photon(), Potential.constant(0.0), energy=1.2), 0.0),
    4: (Scenario(Species.electron(), Potential.linear(0.25), energy=2.0),
        -5.4e-12 / METERS_PER_FM),
}

# The regimes that decide which flags a subcommand reads: the allowed or
# forbidden region of a constant potential, or the linear potential.
ALLOWED, FORBIDDEN, LINEAR = RegionClass.ALLOWED.value, RegionClass.FORBIDDEN.value, "linear"
WHERE = {ALLOWED: "in a classically allowed region", FORBIDDEN: "in a classically forbidden region",
         LINEAR: "on the linear potential"}

# Declared residual bounds per case; the (1, 0) member must hit the
# analytic-vanishing tier.
RQSHJE_BOUND_STRAIGHT = 1e-6
RQSHJE_BOUND_GENERIC = 1e-4
RQSHJE_BOUND_LINEAR = 1e-3
FIRQNL_BOUND_STRAIGHT = 1e-8
FIRQNL_BOUND_GENERIC = 1e-3
VELMOM_BOUND = 1e-6
KG_FD_BOUND = 1e-4


def _floats(text: str) -> tuple[float, ...]:
    """A comma-separated list of numbers."""
    return tuple(float(v) for v in text.split(","))


def _pairs(text: str) -> tuple[tuple[float, float], ...]:
    """The family list 'a,b;a,b;...' as (a, b) pairs; empty chunks are skipped."""
    pairs = tuple(_floats(chunk) for chunk in text.split(";") if chunk.strip())
    if not pairs or any(len(pair) != 2 for pair in pairs):
        raise ValueError("expected 'a,b;a,b;...'")
    return pairs


def _family(args, x0: float = 0.0, default=DEFAULT_AB) -> list[MobiusParams]:
    """The --ab family, or the default one, anchored at x0."""
    out = [MobiusParams(a, b, x0) for a, b in args.ab or default]
    # a member's tag names its file, so two members with one tag would write it twice
    tags = [_ab_tag(p) for p in out]
    twice = [tag for i, tag in enumerate(tags) if tag in tags[:i]]
    if twice:
        raise ValueError(f"--ab repeats the member {twice[0]}")
    return out


def _regime(s: Scenario) -> str:
    """LINEAR, or a constant potential's region; a turning energy or E = U0 raises."""
    return constant_rates(s).region.value if s.potential.is_constant else LINEAR


def _out_dir(args) -> Path:
    """The --out directory, made by the first CSV written there."""
    return Path(args.out or "out")


def _trajectories(s: Scenario, regime: str, args, anchor, checks: list, nodes=False):
    """[(p, trajectory, divergence events)] for each member, and the nodes or None.

    A constant potential takes the closed forms anchored at ``anchor`` over
    three node intervals (a forbidden region: two periods pi / |omega_f|),
    --dt apart or --samples across.  The linear potential takes one
    time-of-flight pass over the kg_solve_linear window from ``anchor`` (or
    its default) up to its end or the turning point, every member anchored
    at the window start, where the quadrature sets t = 0.  With ``nodes`` the phi2
    zeros are panel edges, returned as (positions, times, turning point)
    with the times of the (1, 0) member, which joins the pass if ab lacks it.
    The linear basis's Wronskian drift is gated into ``checks``.
    """
    if regime != LINEAR:
        if regime == FORBIDDEN:
            t_hi = 2.0 * math.pi / abs(constant_rates(s).omega)
            make = lambda p, dt: trajectory_constant_forbidden(s, p, (0.0, t_hi), dt, args.ceiling)
        else:
            t_hi = 3.0 * nodes_constant(s).dt_spacing
            make = lambda p, dt: (trajectory_constant_allowed(s, p, (0.0, t_hi), dt), [])
        dt = args.dt if args.dt is not None else t_hi / args.samples
        return [(p, *make(p, dt)) for p in _family(args, anchor)], None
    basis = kg_solve_linear(s, anchor, args.x_max, args.step, args.method)
    x_lo, turning = basis.x_min, turning_points(s)[0]
    ab = _family(args, x_lo)
    zeros = nodes_numeric(basis) if nodes else ()
    ref = next((i for i, p in enumerate(ab) if (p.a, p.b, p.direction) == (1.0, 0.0, 1)), len(ab))
    members = ab if ref < len(ab) or not nodes else [*ab, MobiusParams(1.0, 0.0, x_lo)]
    trajs = trajectory_ode_family(s, basis, members, (x_lo, min(basis.x_max, turning)),
                                  n_samples=args.samples, nodes=zeros)
    _gate_drift(basis, checks)
    found = (zeros, trajs[ref].node_times, turning) if nodes else None
    return [(p, traj, []) for p, traj in zip(ab, trajs)], found


def _ab_tag(p: MobiusParams) -> str:
    """File tag of a member by its signed labels, so (-1, 0.5) and (1, -0.5) differ."""
    num = lambda v: f"{v:g}".replace("-", "m").replace(".", "p")
    return f"a{num(p.direction * p.a)}_b{num(p.direction * p.b)}"


def _status(name: str, value: float, bound: float, checks: list) -> None:
    ok = value <= bound
    checks.append((name, ok))
    print(f"check {name}: {'PASS' if ok else 'FAIL'} ({value:.3e} <= {bound:.0e})")


def _gate_drift(basis, checks: list) -> None:
    """Gate a numeric basis's Wronskian drift at kg-solve's bound, DRIFT_TOL_NUMERIC."""
    _status("wronskian_drift", wronskian_drift(basis), DRIFT_TOL_NUMERIC, checks)


def _verdict(checks: list) -> int:
    failed = [name for name, ok in checks if not ok]
    if failed:
        print(f"FAILED checks: {', '.join(failed)}")
        return 1
    return 0


# ---------------------------------------------------------------------------
# subcommands

def cmd_figure(args, s: Scenario, regime: str) -> int:
    fig = args.figure_id
    ref, x0 = FIGURES[fig]
    x0 = x0 if args.x0 is None else args.x0
    out = _out_dir(args)
    if (regime, s.species.is_photon) != (_regime(ref), ref.species.is_photon):
        kind = "photon" if ref.species.is_photon else "massive"
        raise ValueError(f"figure {fig} needs a {kind} scenario {WHERE[_regime(ref)]}")
    checks: list[tuple[str, bool]] = []
    members, nodes = _trajectories(s, regime, args, x0, checks, nodes=fig == 4)
    written = []
    for p, traj, events in members:
        written.append(write_trajectory_csv(traj, out / f"fig{fig}_traj_{_ab_tag(p)}.csv"))
        if fig == 2:
            stars = ", ".join(f"{e.t_star:.12e}" for e in events)
            print(f"fig2 {_ab_tag(p)}: divergence times t* = {stars} s (no nodes)")
    if fig in (1, 3):
        nd = nodes_constant(s, n_nodes=4, x0=x0)
        written.append(write_node_report_csv(nd, out / f"fig{fig}_nodes.csv", s))
        print(f"figure {fig}: {len(members)} trajectories, dt_n = {nd.dt_spacing:.12e} s, "
              f"dx_n = {nd.dx_spacings[0] * METERS_PER_FM:.12e} m")
    elif fig == 4:
        zeros, t_at, turning = nodes
        header = ["rqtlab linear-potential nodes (times from the a=1, b=0 member)",
                  *scenario_header(s), "columns: n, t_n_s, x_n_m"]
        columns = (np.arange(len(zeros)), t_at, zeros * METERS_PER_FM)
        written.append(write_csv(out / "fig4_nodes.csv", header, columns))
        print(f"figure 4: turning point at {turning * METERS_PER_FM:.12e} m, {len(zeros)} nodes")
    for w in written:
        print(f"wrote {w}")
    return _verdict(checks)


def cmd_report(args, s: Scenario, regime: str) -> int:
    basis = None if regime != LINEAR else kg_solve_linear(s, args.x_min, args.x_max, args.step,
                                                          args.method)
    intervals = None if basis is None else linear_node_summary(s, basis)
    checks: list[tuple[str, bool]] = []
    print(f"species rest energy : {s.rest_energy} MeV")
    print(f"total energy        : {s.energy} MeV")
    print(f"potential           : {s.potential.kind} "
          f"(u0 = {s.potential.u0} MeV, g = {s.potential.g} MeV/fm)")
    print(f"hbar_scale          : {s.hbar_scale}")

    if intervals is not None:
        print(f"numeric nodes       : {len(intervals.n) + 1}")
        # np.max, not max: a NaN interval (one whose midpoint is forbidden) must fail the gate
        worst = float(np.max(np.abs(intervals.p_node / intervals.p_classical_mid - 1.0)))
        grow = spacing_grows(intervals)
        print(f"spacing growth toward turning point: {grow}")
        print(f"max |pi*hbar/dx / p_classical - 1| : {worst:.3e}")
        checks.append(("node_spacing_monotone", grow))
        _status("local_momentum_within_5pct", worst, 0.05, checks)
        _gate_drift(basis, checks)
        if args.out:
            print(f"wrote {_write_intervals(_out_dir(args) / 'node_report.csv', s, intervals)}")
    elif regime == FORBIDDEN:
        print("nodes: none (massive particle in a classically forbidden region)")
    else:
        nd = nodes_constant(s)
        print(f"dt_n                : {nd.dt_spacing:.12e} s")
        print(f"dx_n                : {nd.dx_spacings[0] * METERS_PER_FM:.12e} m")
        print(f"lambda              : {nd.wavelength * METERS_PER_FM:.12e} m")
        print(f"lambda/2            : {nd.wavelength / 2 * METERS_PER_FM:.12e} m")
        print(f"ratio dx/(lambda/2) : {nd.ratio:.12f}")
        if args.out:
            print(f"wrote {write_node_report_csv(nd, _out_dir(args) / 'node_report.csv', s)}")
    return _verdict(checks)


def cmd_residuals(args, s: Scenario, regime: str) -> int:
    out = _out_dir(args)
    checks: list[tuple[str, bool]] = []
    family = _family(args)
    if regime == FORBIDDEN:
        raise ValueError("residual scans cover allowed-region scenarios")
    if regime == ALLOWED:
        basis = kg_closed_constant(s)
        nd = nodes_constant(s)
        xs = np.linspace(-1.6 * nd.dx_spacings[0], 1.6 * nd.dx_spacings[0], args.samples)
        title = "rqtlab action residual scan"
        t_range = (0.0, 3 * nd.dt_spacing)
    else:
        basis = kg_solve_linear(s, args.x_min, args.x_max, args.step, args.method)
        # 2 fm in from the window start, 4 fm short of its end or the turning point
        x_lo, x_hi = basis.x_min + 2.0, min(basis.x_max, turning_points(s)[0]) - 4.0
        if x_hi <= x_lo:
            raise ValueError("x_range must be increasing")
        refuse_mirrored(s, family)
        _status("kg_fd_residual", kg_fd_residual(basis), KG_FD_BOUND, checks)
        xs = np.linspace(x_lo, x_hi, args.samples)
        title = "rqtlab action residual scan (linear potential)"

    scans = action_scan(basis, family, xs).reshape(len(family), len(xs), 4)
    for p, rows in zip(family, scans):
        tag = _ab_tag(p)
        header = [title, *scenario_header(s), f"a = {p.a!r}", f"b = {p.b!r}",
                  "columns: x_fm, s0_mev_s, ds0dx, residual"]
        print(f"wrote {write_csv(out / f'residuals_{tag}.csv', header, rows.T)}")
        # np.max, not max: a NaN residual anywhere in the column must fail the gate
        r_hj = float(np.max(rows[:, 3]))
        if regime == ALLOWED:
            straight = p.a == 1.0 and p.b == 0.0
            # 6,001 samples are dt_n / 2000 apart, with the node times among them; the
            # analytic-vanishing tier's derivatives are exactly zero, so it takes 49
            # (dt_n / 16) to keep the difference noise at bay
            r_fq = firqnl_residual(s, p, t_range, 49 if straight else 6001)
            _status(f"rqshje_{tag}", r_hj,
                    RQSHJE_BOUND_STRAIGHT if straight else RQSHJE_BOUND_GENERIC, checks)
            _status(f"firqnl_{tag}", r_fq,
                    FIRQNL_BOUND_STRAIGHT if straight else FIRQNL_BOUND_GENERIC, checks)
            _status(f"velocity_momentum_{tag}", velocity_momentum_check(s, p, t_range, 6001),
                    VELMOM_BOUND, checks)
        else:
            _status(f"rqshje_{tag}", r_hj, RQSHJE_BOUND_LINEAR, checks)
    return _verdict(checks)


def cmd_trajectory(args, s: Scenario, regime: str) -> int:
    out = _out_dir(args)
    anchor = args.x_min if regime == LINEAR else args.x0 or 0.0
    checks: list[tuple[str, bool]] = []
    for p, traj, _ in _trajectories(s, regime, args, anchor, checks)[0]:
        print(f"wrote {write_trajectory_csv(traj, out / f'traj_{_ab_tag(p)}.csv')}")
    return _verdict(checks)


def _write_intervals(path: Path, s: Scenario, iv: NodeIntervals) -> Path:
    """The node intervals of linear_node_summary as CSV, lengths in metres."""
    header = ["rqtlab numeric node intervals", *scenario_header(s),
              "columns: n, x_lo_m, x_hi_m, dx_m, p_node_mev_s_per_fm, p_classical_mid"]
    return write_csv(path, header, (iv.n, iv.x_lo * METERS_PER_FM, iv.x_hi * METERS_PER_FM,
                                    iv.dx * METERS_PER_FM, iv.p_node, iv.p_classical_mid))


def cmd_nodes(args, s: Scenario, regime: str) -> int:
    if regime == FORBIDDEN:
        print("nodes: none (massive particle in a classically forbidden region)")
        return 0
    out = _out_dir(args)
    if regime == ALLOWED:
        nd = nodes_constant(s, n_nodes=16)
        print(f"wrote {write_node_report_csv(nd, out / 'nodes.csv', s)}")
        print(f"dt_n = {nd.dt_spacing:.12e} s, dx_n = {nd.dx_spacings[0] * METERS_PER_FM:.12e} m")
        return 0
    basis = kg_solve_linear(s, args.x_min, args.x_max, args.step, args.method)
    intervals = linear_node_summary(s, basis)
    print(f"wrote {_write_intervals(out / 'nodes.csv', s, intervals)}")
    grow = spacing_grows(intervals)
    checks = [("node_spacing_monotone", grow)]
    _gate_drift(basis, checks)
    claim = "; spacing grows toward the turning point" if grow else ""
    print(f"{len(intervals.n) + 1} nodes{claim}")
    return _verdict(checks)


def cmd_kg_solve(args, s: Scenario, regime) -> int:
    out = _out_dir(args)
    x_lo = args.x_min if args.x_min is not None else 0.0
    x_hi = args.x_max if args.x_max is not None else 100.0
    basis = kg_solve_numeric(s, x_lo, x_hi, step=args.step, method=args.method)
    drift = wronskian_drift(basis)
    print(f"wrote {write_basis_csv(basis, out / 'kg_basis.csv')}")
    print(f"wronskian = {basis.wronskian:.12e} 1/fm, drift = {drift:.3e}")
    checks: list[tuple[str, bool]] = []
    _status("wronskian_drift", drift, DRIFT_TOL_NUMERIC, checks)
    return _verdict(checks)


def cmd_classical_limit(args, s: Scenario, regime: str) -> int:
    out = _out_dir(args)
    p, *more = _family(args, default=((4.0, 2.0),))
    if more:
        raise ValueError(f"classical-limit scans one member; --ab lists {len(more) + 1}")
    rep = classical_limit_scan(s, p, args.epsilons)
    print(f"wrote {write_classical_csv(rep, out / 'classical_limit.csv', s)}")
    print(f"fitted scaling exponent = {rep.exponent:.6f}")
    print(f"check classical_limit_scaling: {'PASS' if rep.scaling_holds else 'FAIL'}")
    return _verdict([("classical_limit_scaling", rep.scaling_holds)])


# ---------------------------------------------------------------------------
# command line

# Each flag: its default, filled in after the unread-flag check, type or choices, and help.
FLAGS = {
    "config": (None, str, "key = value scenario file"),
    "out": (None, str, "output directory"),
    "hbar-scale": (None, float, "multiplies every hbar, in (0, 1]"),
    "dt": (None, float, "sample spacing in s (closed forms)"),
    "samples": (600, int, "sample count (16 to 10^7, default 600)"),
    "ab": (None, _pairs, "family list 'a,b;a,b;...'"),
    "method": (DEFAULT_METHOD, METHODS, f"scheme (default {DEFAULT_METHOD})"),
    "step": (DEFAULT_STEP, float, f"step in fm where |E - V| peaks (default {DEFAULT_STEP:g})"),
    "x-min": (None, float, "left end of the numeric window in fm"),
    "x-max": (None, float, "right end of the numeric window in fm"),
    "x0": (None, float, "anchor position in fm"),
    "ceiling": (1.0e6, float, "|x| clip in fm (forbidden region)"),
    "epsilons": ((1.0, 0.5, 0.25, 0.125), _floats, "hbar scale factors"),
}

COMMON = ("config", "hbar-scale")
_WINDOW = ("out", "method", "step", "x-min", "x-max")
_CLOSED = ("out", "dt", "samples", "ab", "x0")
_NODE_REPORT = {ALLOWED: ("out",), FORBIDDEN: (), LINEAR: _WINDOW}

# Each subcommand: its function, help line, and the flags it reads besides
# COMMON in each regime, --out where it writes a file; a regime whose
# scenarios the subcommand refuses reads none.  kg-solve integrates any
# scenario: its one key is None.
COMMANDS = {
    "figure": (cmd_figure, "emit one of the four reference figures",
               {ALLOWED: _CLOSED, FORBIDDEN: (*_CLOSED, "ceiling"),
                LINEAR: ("out", "samples", "ab", "method", "step", "x0")}),
    "report": (cmd_report, "node spacings, wavelength, linear node checks", _NODE_REPORT),
    "residuals": (cmd_residuals, "governing-equation residual scans",
                  {ALLOWED: ("out", "samples", "ab"), FORBIDDEN: (),
                   LINEAR: ("samples", "ab", *_WINDOW)}),
    "trajectory": (cmd_trajectory, "trajectory CSVs for an (a,b) family",
                   {ALLOWED: _CLOSED, FORBIDDEN: (*_CLOSED, "ceiling"),
                    LINEAR: ("samples", "ab", *_WINDOW)}),
    "nodes": (cmd_nodes, "node report CSV", _NODE_REPORT),
    "kg-solve": (cmd_kg_solve, "numeric basis CSV dump", {None: _WINDOW}),
    "classical-limit": (cmd_classical_limit, "hbar-scale deviation scan",
                        {ALLOWED: ("out", "ab", "epsilons"), FORBIDDEN: (), LINEAR: ()}),
}


def _help(command: str | None, accepted=()) -> None:
    """Print rqtlab --help, a line per subcommand, or rqtlab <command> --help, its flags; exit 0."""
    if command is None:
        rows = [(name, line) for name, (_, line, _) in COMMANDS.items()]
    else:
        rows = [(f"--{f} {{{','.join(kind)}}}" if isinstance(kind, tuple) else f"--{f}", text)
                for f, (_, kind, text) in FLAGS.items() if f in accepted]
    figure = " {" + ",".join(map(str, FIGURES)) + "}" if command == "figure" else ""
    print("\n".join([f"usage: rqtlab {command or '<command>'}{figure} [--flag value ...]",
                     *(f"  {name:<30} {text}" for name, text in rows)]))
    raise SystemExit(0)


def parse(argv: list[str]) -> tuple[str, dict]:
    """The subcommand and {flag: value} of the flags argv gives, figure's number as figure_id.

    Flags are exact names, given once, as --flag value or --flag=value; a value is not
    empty and may begin with one '-'.  -h or --help prints the help and exits 0; a
    malformed command line raises ValueError.
    """
    command, *rest = argv or [""]
    if command in ("-h", "--help"):
        _help(None)
    if command not in COMMANDS:
        what = f"invalid choice: {command!r}" if command[:1] not in ("", "-") else "no subcommand"
        raise ValueError(f"{what}; the first argument is one of {', '.join(COMMANDS)}")
    accepted = set(COMMON).union(*COMMANDS[command][2].values())
    if "-h" in rest or "--help" in rest:
        _help(command, accepted)
    given, tokens = {}, iter(rest)
    for token in tokens:
        flag, eq, value = token[2:].partition("=")
        if not token.startswith("--"):
            if command != "figure" or "figure_id" in given or token not in map(str, FIGURES):
                raise ValueError(f"unexpected argument {token!r} (figure takes one: 1 to 4)")
            given["figure_id"] = int(token)
        elif flag not in accepted:
            raise ValueError(f"{command} takes no flag --{flag}")
        elif flag in given:
            raise ValueError(f"--{flag} given twice")
        elif not eq and (value := next(tokens, "--")).startswith("--") or not value:
            raise ValueError(f"--{flag} needs a value")
        else:
            kind = FLAGS[flag][1]
            try:  # a value outside the choices fails tuple.index
                given[flag] = kind[kind.index(value)] if isinstance(kind, tuple) else kind(value)
            except ValueError:
                raise ValueError(f"bad --{flag} value {value!r}") from None
    if command == "figure" and "figure_id" not in given:
        raise ValueError("figure needs its number, 1 to 4")
    return command, given


def main(argv=None) -> int:
    try:
        command, given = parse(sys.argv[1:] if argv is None else argv)
        args = SimpleNamespace(**{f.replace("-", "_"): d for f, (d, _, _) in FLAGS.items()})
        vars(args).update((f.replace("-", "_"), v) for f, v in given.items())
        if args.samples < 16:
            raise ValueError("sample counts below 16 are not meaningful here")
        if args.samples > MAX_SAMPLES:
            raise ValueError(f"{args.samples} samples, more than MAX_SAMPLES = {MAX_SAMPLES:.0e}")
        s = (scenario_from_config(load_config(args.config)) if args.config
             else FIGURES[given.get("figure_id", 1)][0])
        if args.hbar_scale is not None:
            s = s.with_hbar_scale(args.hbar_scale)
        func, _, reads = COMMANDS[command]
        regime = None if None in reads else _regime(s)
        unread = [f"--{f}" for f in FLAGS if f in given and f not in (*COMMON, *reads[regime])]
        if unread:
            raise ValueError(f"{command} does not read {', '.join(unread)} {WHERE[regime]}")
        return func(args, s, regime)
    except (ValueError, OSError, IntegrationOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
