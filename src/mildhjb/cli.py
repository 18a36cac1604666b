"""Batch command-line driver.

One mode per invocation (the subcommand), one config file per run, artifacts
written under the output directory: ``manifest.txt`` (an echo of the
effective config, itself a valid config file, plus version and timing
comments), field tables under ``fields/``, reports under ``reports/``, and
the policy tables at the top level.  All numeric output uses shortest
round-trip float formatting, so identical configs reproduce identical bytes.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time
from operator import add
from pathlib import Path

import numpy as np

from . import __version__, _fork
from ._lapack import lapack, version as scipy_version
from .config import MODES, RunConfig, parse_config
from .conjugate import ConjugateHamiltonian
from .degenerate import solve_degenerate
from .grid import Grid1D
from .montecarlo import (SEED_RANGE, SimConfig, compare_policies,
                         seed_in_range)
from .stepper import (energy_report, march, mild_solve, refine_until,
                      step_times)
from .twodim import solve_L
from .value import reconstruct_value, synthesize_feedback

__all__ = ["main", "run"]

# the 2-D runner reads the march step by step under this name, which
# perfbench/layers.py wraps
mild_solve_2d = march

# the fewest values of a field table split with a forked worker: at 1.6 us
# a value its half takes 13 ms, five times a fork and reap (2.7 ms, 40 MB)
_MIN_SPLIT = 2**14


def _fmt(value) -> str:
    return repr(float(value))


def _cell(v) -> str:
    return _fmt(v) if isinstance(v, float) else str(v)


def _write_csv(path: Path, comment: str, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            if hasattr(row, "read"):  # a file of finished rows
                fh.flush()
                shutil.copyfileobj(row, fh.buffer)
            else:  # a str row is already joined (it may hold several rows)
                fh.write((row if isinstance(row, str)
                          else ",".join(map(_cell, row))) + "\n")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _joined_rows(blocks):
    """Table rows ``lead + head + repr(v)``, joined into one string per block.

    ``blocks`` yields ``(lead, heads, values)``: ``lead`` starts every row of
    the block, ``heads`` holds the rest of each row's leading cells with
    their commas, and ``values`` the floats, one per row.  A table streams a
    block (a snapshot, a mesh row) at a time and is never held whole.
    """
    for lead, heads, values in blocks:
        cells = map(add, heads,
                    map(repr, np.asarray(values, dtype=float).tolist()))
        yield lead + ("\n" + lead).join(cells)


def _field_rows(times, xs, tables):
    """Rows ``t,x,value`` of each snapshot in ``tables``; from ``_MIN_SPLIT``
    values on, a worker (``_fork``) formats the second half into its file,
    which comes last."""
    heads = [f",{_fmt(x)}," for x in xs]
    first, second = (
        _joined_rows((_fmt(t), heads, table)
                     for t, table in zip(times[part], tables[part]))
        for part in (slice(len(tables) // 2), slice(len(tables) // 2, None)))

    def task(out):
        out.writelines(row.encode() + b"\n" for row in second)

    split = len(tables) * len(xs) >= _MIN_SPLIT and _fork.cores() > 1
    with _fork.forked(*[task] if split else []) as workers:
        yield from first
        yield from [workers[0].join()] if workers else second


def _mesh_rows(xs, table, inner=slice(None)):
    """Rows ``i,j,x,y,value`` of a 2-D field on the ``inner`` nodes of each
    axis."""
    labels = map(repr, np.asarray(xs, dtype=float).tolist())
    cells = list(enumerate(labels))[inner]
    return _joined_rows(("", [f"{i},{j},{x},{y}," for j, y in cells], row)
                        for (i, x), row in zip(cells, table[inner, inner]))


def _inner_slice(grid: Grid1D) -> slice:
    # reconstructed value tables are reported on the inner 80% of the mesh
    # (of each axis in 2-D)
    margin = int(round(0.1 * (grid.n - 1)))
    return slice(margin, grid.n - margin)


def _march(cfg: RunConfig):
    return mild_solve(cfg.problem.discretize(cfg.grid), cfg.eps, cfg=cfg.solver)


def _run_solve(cfg: RunConfig, out: Path, quiet: bool) -> None:
    sol = _march(cfg)
    grid = sol.grid
    _write_csv(out / "fields" / "y.csv",
               "transformed state snapshots; columns: time, state, value",
               ["t", "x", "y"],
               _field_rows(sol.times, grid.x, sol.snapshots))
    report = energy_report(sol)
    _write_csv(out / "reports" / "energy.csv",
               "per-step energy series; columns: time, potential, dissipation",
               ["t", "potential", "dissipation"],
               zip(sol.times, report.potential, report.dissipation))
    _write_text(out / "reports" / "summary.txt",
                f"steps = {len(sol.times) - 1}\n"
                f"partial_step = {_fmt(sol.partial_step)}\n"
                f"potential_max = {_fmt(report.potential_max)}\n"
                f"dissipation_total = {_fmt(report.dissipation_total)}\n"
                f"implied_constant = {_fmt(report.implied_constant)}\n")
    if not quiet:
        print(f"solved {len(sol.times) - 1} steps; artifacts in {out}")


def _run_value(cfg: RunConfig, out: Path, quiet: bool) -> None:
    vf = reconstruct_value(_march(cfg))
    inner = _inner_slice(vf.grid)
    xs = vf.grid.x[inner]
    _write_csv(out / "fields" / "value.csv",
               "value function on the inner 80% of the mesh; "
               "columns: time, state, value",
               ["t", "x", "phi"],
               _field_rows(vf.times, xs, vf.phi[:, inner]))
    _write_csv(out / "fields" / "value_slope.csv",
               "space derivative of the value on the inner 80%; "
               "columns: time, state, value",
               ["t", "x", "phi_x"],
               _field_rows(vf.times, xs, vf.phi_x[:, inner]))
    if not quiet:
        sup_phi, sup_slope = vf.sup_norms()
        print(f"value reconstructed; sup|phi| = {sup_phi:.6g}, "
              f"sup|phi_x| = {sup_slope:.6g}")


def _write_policy(policy, out: Path) -> None:
    grid = policy.grid
    _write_csv(out / "policy.csv",
               "feedback control table; columns: time, state, control",
               ["t", "x", "u"],
               _field_rows(policy.times, grid.x, policy.u))
    lines = [
        "# feedback control table",
        f"# horizon = {_fmt(policy.times[-1])}",
        f"# half_width = {_fmt(grid.half_width)}",
        f"# nodes = {grid.n}",
        f"# times = {len(policy.times)}",
        "# row format: t u_0 u_1 ... u_{n-1}",
    ]
    for t, row in zip(policy.times, policy.u):
        lines.append(" ".join([_fmt(t), *(_fmt(u) for u in row)]))
    _write_text(out / "policy.txt", "\n".join(lines) + "\n")


def _run_policy(cfg: RunConfig, out: Path, quiet: bool) -> None:
    policy = synthesize_feedback(_march(cfg))
    _write_policy(policy, out)
    if not quiet:
        print(f"policy table written; max control = {float(policy.u.max()):.6g}")


def _run_simulate(cfg: RunConfig, out: Path, quiet: bool) -> None:
    sol = _march(cfg)
    policy = synthesize_feedback(sol)
    _write_policy(policy, out)
    sim = SimConfig(n_paths=cfg.paths, dt=cfg.dt, seed=cfg.seed, x0=cfg.x0)
    vf = reconstruct_value(sol)
    pde_value = np.interp(sim.x0, vf.grid.x, vf.phi[0])
    del sol, vf  # the run's tables need not live through the Monte Carlo
    comparison = compare_policies(cfg.problem, policy, cfg.baselines, sim,
                                  keep_samples=cfg.dump_paths)
    if cfg.dump_paths:
        rows = []
        for r in comparison.rows():
            rows.extend((r.label, i, c) for i, c in enumerate(r.samples))
        _write_csv(out / "reports" / "path_costs.csv",
                   "per-path cost samples; columns: policy, path index, cost",
                   ["label", "path", "cost"], rows)
    _write_csv(out / "reports" / "mc_comparison.csv",
               "cost estimates under common random numbers; "
               "columns: label, mean, stderr, ci bounds, paths, excluded",
               ["label", "mean", "stderr", "ci_low", "ci_high",
                "n_paths", "n_excluded"],
               [(r.label, r.mean, r.stderr, r.ci_low, r.ci_high,
                 r.n_paths, r.n_excluded) for r in comparison.rows()])
    best = comparison.best_baseline
    _write_text(out / "reports" / "summary.txt",
                f"feedback_mean = {_fmt(comparison.feedback.mean)}\n"
                f"pde_value_at_x0 = {_fmt(pde_value)}\n"
                f"best_baseline = {best.label}\n"
                f"best_baseline_mean = {_fmt(best.mean)}\n"
                f"feedback_beats_baselines = {comparison.feedback_beats_baselines}\n"
                f"intervals_separated = {comparison.intervals_separated}\n")
    if not quiet:
        print(f"feedback {comparison.feedback.mean:.6g} "
              f"vs best baseline {best.mean:.6g} ({best.label})")


def _run_sweep_eps(cfg: RunConfig, out: Path, quiet: bool) -> None:
    result = refine_until(cfg.problem.discretize(cfg.grid), cfg.refine_tol,
                          cfg.eps, cfg=cfg.solver,
                          max_levels=cfg.refine_levels)
    rows = [(level, eps, gap) for level, (eps, gap) in
            enumerate(zip(result.eps_levels[1:], result.gaps), start=1)]
    _write_csv(out / "reports" / "eps_sweep.csv",
               "step-halving certificate; columns: level, step, "
               "sup-time L1 gap to previous level",
               ["level", "eps", "gap"], rows)
    sol = result.solution
    _write_csv(out / "fields" / "y_finest.csv",
               "finest-run snapshots; columns: time, state, value",
               ["t", "x", "y"],
               _field_rows(sol.times, sol.grid.x, sol.snapshots))
    _write_text(out / "reports" / "summary.txt",
                f"converged = {result.converged}\n"
                f"finest_eps = {_fmt(result.eps_levels[-1])}\n"
                f"last_gap = {_fmt(result.gaps[-1])}\n")
    if not quiet:
        print(f"gaps: {', '.join(f'{g:.3e}' for g in result.gaps)}")


def _run_sweep_degenerate(cfg: RunConfig, out: Path, quiet: bool) -> None:
    sweep = solve_degenerate(cfg.problem, cfg.grid, cfg.eps, cfg.ladder,
                             cfg.solver)
    rows = []
    for i, level in enumerate(sweep.levels):
        rep = sweep.bound_reports[i]
        gap = sweep.gaps[i - 1] if i > 0 else float("nan")
        rows.append((level, gap, float(np.max(rep.bounds)),
                     float(np.max(rep.y_inf)), str(rep.passed)))
    _write_csv(out / "reports" / "degenerate_sweep.csv",
               "regularization ladder; columns: weight, sup-time L1 gap to "
               "previous level, sup bound, sup |y|, bound check",
               ["eps_reg", "gap_prev", "bound", "max_abs_y", "passed"], rows)
    _write_text(out / "reports" / "summary.txt",
                f"gaps_monotone = {sweep.gaps_monotone}\n"
                f"bounds_passed = {all(r.passed for r in sweep.bound_reports)}\n")
    if not quiet:
        print(f"ladder gaps: {', '.join(f'{g:.3e}' for g in sweep.gaps)}")


def _run_solve_2d(cfg: RunConfig, out: Path, quiet: bool) -> None:
    # only the final state and one mass per step are kept, not every step
    grid = cfg.grid
    problem = cfg.problem.discretize(grid)
    final, masses = problem.initial, [grid.integral(problem.initial)]
    for res in mild_solve_2d(problem, cfg.eps, cfg=cfg.solver):
        final = res.y
        masses.append(grid.integral(final))

    _write_csv(out / "fields" / "y2d_initial.csv",
               "initial transformed state; columns: i, j, x, y, value",
               ["i", "j", "x", "y", "value"],
               _mesh_rows(grid.x, problem.initial))
    _write_csv(out / "fields" / "y2d_final.csv",
               "final transformed state; columns: i, j, x, y, value",
               ["i", "j", "x", "y", "value"], _mesh_rows(grid.x, final))
    phi = solve_L(problem.operands, final)
    _write_csv(out / "fields" / "value2d_final.csv",
               "reconstructed value at the initial time, inner 80% of the "
               "mesh; columns: i, j, x, y, value",
               ["i", "j", "x", "y", "value"],
               _mesh_rows(grid.x, phi, _inner_slice(grid)))
    _write_csv(out / "reports" / "mass.csv",
               "discrete integral per step; columns: time, mass",
               ["t", "mass"],
               zip(step_times(problem.horizon, cfg.eps), masses))
    if not quiet:
        drift = abs(masses[-1] - masses[0])
        print(f"2-D run complete; mass drift {drift:.3e}")


def _run_conjugate_table(cfg: RunConfig, out: Path, quiet: bool) -> None:
    conj = ConjugateHamiltonian.for_cost(cfg.cost, cfg.p_min, cfg.p_max,
                                         cfg.p_nodes)
    ps = np.linspace(cfg.p_min, cfg.p_max, cfg.p_nodes)
    rows = zip(ps, conj.value(ps), conj.derivative(ps), conj.potential(ps))
    _write_csv(out / "reports" / "conjugate_table.csv",
               "conjugate of the running cost; columns: argument, value, "
               "derivative, potential",
               ["p", "value", "derivative", "potential"], rows)
    if not quiet:
        print(f"conjugate table with {cfg.p_nodes} rows written")


_RUNNERS = {
    "solve": _run_solve,
    "value": _run_value,
    "policy": _run_policy,
    "simulate": _run_simulate,
    "sweep-eps": _run_sweep_eps,
    "sweep-degenerate": _run_sweep_degenerate,
    "solve-2d": _run_solve_2d,
    "conjugate-table": _run_conjugate_table,
}


def _write_manifest(cfg: RunConfig, out: Path, elapsed: float) -> None:
    text = (f"# mildhjb manifest\n"
            f"# version: {__version__}\n"
            f"# python: {sys.version.split()[0]}"
            f" numpy: {np.__version__} scipy: {scipy_version}\n"
            f"# lapack: {lapack}\n"
            f"# elapsed_seconds: {elapsed:.3f}\n"
            f"# the remainder is the effective config; rerun with\n"
            f"#   mildhjb {cfg.mode} --config manifest.txt\n"
            + cfg.echo())
    _write_text(out / "manifest.txt", text)


def run(mode: str, config_path: str, out_dir: str | None = None,
        seed: int | None = None, quiet: bool = False) -> int:
    """Execute one mode; returns the process exit code."""
    if seed is not None and not seed_in_range(seed):
        print(f"error: --seed: out of range ({SEED_RANGE}): {seed}",
              file=sys.stderr)
        return 2
    try:
        text = Path(config_path).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    cfg, errors = parse_config(text, mode_override=mode)
    if errors:
        print("error: config validation failed", file=sys.stderr)
        for err in errors:
            print(f"  {err}", file=sys.stderr)
        return 2
    if seed is not None:
        cfg.seed = seed
        cfg.raw.setdefault("output", {})["seed"] = str(seed)
    if out_dir is not None:
        cfg.out_dir = out_dir
    out = Path(cfg.out_dir)
    started = time.perf_counter()
    try:
        _RUNNERS[cfg.mode](cfg, out, quiet)
    except Exception as exc:  # solver/runtime failures get a structured block
        print(f"error: {cfg.mode} run failed", file=sys.stderr)
        print(f"  type: {type(exc).__name__}", file=sys.stderr)
        print(f"  detail: {exc}", file=sys.stderr)
        return 1
    _write_manifest(cfg, out, time.perf_counter() - started)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mildhjb",
        description="stochastic volatility-control solver and validator")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", required=True, help="run-config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    return run(args.mode, args.config, out_dir=args.out, seed=args.seed,
               quiet=args.quiet)


if __name__ == "__main__":
    raise SystemExit(main())
