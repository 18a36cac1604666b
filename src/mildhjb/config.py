"""Run-config parsing and full-file validation.

The config format is line-oriented: ``key = value`` assignments grouped
under ``[section]`` headers, ``#`` comments, blank lines ignored.  The
``mode`` key lives above the first section; an unknown section or key is
an error.  Validation is not fail-fast: every error in the file is
reported, each with its line number.  Coefficient values are expressions in
``x`` (and ``y`` for the planar block, ``u`` for the cost) that are
differentiated symbolically where the pipeline needs derivatives, so the
transformed data entering the solver is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional, Union

import numpy as np

from .conjugate import CostValidationError, RunningCost
from .expressions import (DifferentiationError, ExpressionError,
                          parse_expression)
from .grid import Grid1D, Grid2D
from .montecarlo import SEED_RANGE, seed_in_range
from .problem import ControlProblem
from .resolvent import ResolventConfig
from .stepper import step_lengths
from .twodim import PlanarProblem

__all__ = ["ConfigError", "RunConfig", "parse_config"]

MODES = ("solve", "value", "policy", "simulate", "sweep-eps",
         "sweep-degenerate", "solve-2d", "conjugate-table")

# named presets accepted wherever an expression is expected
PRESETS = {
    "zero": "0",
    "gauss": "exp(-x^2)",
    "tanh": "tanh(x)",
    "root2": "2^0.5",
}

# the keys each section takes, in any mode; the manifest echoes the
# sections in this order
SECTIONS = {
    "problem": ("T", "f", "sigma", "g", "g0"),
    "cost": ("kind", "alpha1", "alpha2", "h"),
    "grid": ("L", "n"),
    "solver": ("eps", "tol_res", "max_iter", "refine_tol", "refine_levels"),
    "sim": ("paths", "dt", "x0", "baselines", "dump_paths"),
    "degenerate": ("ladder",),
    "conjugate": ("p_min", "p_max", "nodes"),
    "2d": ("L", "n", "T", "a", "sigma0", "g", "g0"),
    "output": ("dir", "seed"),
}

DEFAULT_BASELINES = "0 0.25 0.5 0.75 1 1.25 1.5 1.75 2"
DEFAULT_LADDER = "1e-1 1e-2 1e-3 1e-4"


@dataclass(frozen=True)
class ConfigError:
    line: int
    field: str
    message: str

    def __str__(self):
        where = f"line {self.line}: " if self.line else ""
        return f"{where}{self.field}: {self.message}"


@dataclass
class RunConfig:
    """Validated run description; raw strings kept for the manifest echo.

    Every mode that marches starts from ``problem.discretize(grid)``, with a
    ``PlanarProblem`` in ``solve-2d``; a field the mode does not read is None.
    """

    mode: str
    raw: dict = dc_field(default_factory=dict)

    problem: Union[ControlProblem, PlanarProblem, None] = None
    cost: Optional[RunningCost] = None
    grid: Optional[Grid1D] = None

    # solver
    eps: Optional[float] = None
    solver: Optional[ResolventConfig] = None
    refine_tol: Optional[float] = None
    refine_levels: Optional[int] = None

    # simulation
    paths: Optional[int] = None
    dt: Optional[float] = None
    x0: Optional[float] = None
    baselines: Optional[tuple] = None
    dump_paths: Optional[bool] = None

    # sweeps
    ladder: Optional[tuple] = None

    # conjugate table
    p_min: Optional[float] = None
    p_max: Optional[float] = None
    p_nodes: Optional[int] = None

    # output
    out_dir: Optional[str] = None
    seed: Optional[int] = None

    def echo(self) -> str:
        """Canonical config text that re-parses to this run."""
        lines = [f"mode = {self.mode}"]
        for section in SECTIONS:
            items = self.raw.get(section)
            if not items:
                continue
            lines.append("")
            lines.append(f"[{section}]")
            for key, value in items.items():
                lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"


def _split_file(text: str):
    """Lexical pass: (top_level, sections, errors), all values raw strings."""
    top: dict[str, tuple[str, int]] = {}
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    errors: list[ConfigError] = []
    current: Optional[str] = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                errors.append(ConfigError(lineno, "section",
                                          f"malformed section header {line!r}"))
                continue
            current = line[1:-1].strip()
            if current not in SECTIONS:
                errors.append(ConfigError(
                    lineno, "section", f"unknown section [{current}]; "
                    f"expected one of {', '.join(SECTIONS)}"))
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            errors.append(ConfigError(lineno, "syntax",
                                      f"expected 'key = value', got {line!r}"))
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            errors.append(ConfigError(lineno, "syntax", "empty key"))
            continue
        # the keys of an unknown section fall under the section's own error
        known = ("mode",) if current is None else SECTIONS.get(current, (key,))
        if key not in known:
            field = key if current is None else f"[{current}] {key}"
            errors.append(ConfigError(lineno, field, "unknown key; expected "
                                      f"one of {', '.join(known)}"))
            continue
        target = top if current is None else sections[current]
        if key in target:
            errors.append(ConfigError(lineno, key, "duplicate key"))
            continue
        target[key] = (value, lineno)
    return top, sections, errors


def _finite(raw: str) -> Optional[float]:
    """float(raw) when it spells a finite number (not inf, nan or 1e999)."""
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _integer(raw: str) -> Optional[int]:
    try:
        return int(raw)
    except ValueError:
        return None


class _Validator:
    def __init__(self, sections, mode):
        self.sections = sections
        self.mode = mode
        self.errors: list[ConfigError] = []
        self.used: dict[str, dict[str, str]] = {}

    def error(self, line, field, message):
        self.errors.append(ConfigError(line, field, message))

    def get(self, section, key, required=False, default=None):
        entry = self.sections.get(section, {}).get(key)
        if entry is None:
            if required:
                self.error(0, f"[{section}] {key}",
                           f"required for mode {self.mode}")
            return default, 0
        self.used.setdefault(section, {})[key] = entry[0]
        return entry[0], entry[1]

    def number(self, section, key, required=False, default=None, check=None,
               describe="", parse=_finite, noun="a finite number"):
        raw, line = self.get(section, key, required)
        if raw is None:
            return default
        value = parse(raw)
        if value is None:
            self.error(line, f"[{section}] {key}", f"not {noun}: {raw!r}")
            return default
        if check is not None and not check(value):
            self.error(line, f"[{section}] {key}",
                       f"out of range ({describe}): {raw}")
            return default
        return value

    def integer(self, section, key, **kwargs):
        return self.number(section, key, parse=_integer, noun="an integer",
                           **kwargs)

    def expression(self, section, key, variables=("x",), required=False):
        raw, line = self.get(section, key, required)
        if raw is None:
            return None, 0
        raw = PRESETS.get(raw, raw)
        try:
            return parse_expression(raw, variables), line
        except ExpressionError as exc:
            self.error(line, f"[{section}] {key}", str(exc))
            return None, line

    def derived(self, expr, line, field, var=None, order=1):
        """Symbolic derivative chain; failures point at the source field."""
        if expr is None:
            return None
        try:
            out = expr
            for _ in range(order):
                out = out.derivative(var)
            return out
        except DifferentiationError as exc:
            self.error(line, field, str(exc))
            return None

    def numbers_list(self, section, key, default_raw, describe, check, rule):
        raw, line = self.get(section, key)
        if raw is None:
            raw = default_raw
        values = tuple(_finite(p) for p in raw.replace(",", " ").split())
        if None in values:
            self.error(line, f"[{section}] {key}",
                       f"entries must be finite numbers: {raw!r}")
            return ()
        if not all(map(check, values)):
            self.error(line, f"[{section}] {key}",
                       f"entries must be {rule}: {raw!r}")
            return ()
        if not values:
            self.error(line, f"[{section}] {key}", f"empty list ({describe})")
        return values

    def matrix(self, section, key):  # a required 2-row matrix
        raw, line = self.get(section, key, True)
        if raw is None:
            return None
        data = [[_finite(v) for v in row.replace(",", " ").split()]
                for row in raw.split(";")]
        if any(None in row for row in data):
            self.error(line, f"[{section}] {key}", f"matrix entries must be "
                       f"finite numbers: {raw!r}")
            return None
        widths = {len(r) for r in data}
        if len(data) != 2 or len(widths) != 1 or 0 in widths:
            self.error(line, f"[{section}] {key}",
                       "need 2 rows of equal length, ';'-separated")
            return None
        return np.array(data)


def parse_config(text: str, mode_override: Optional[str] = None
                 ) -> tuple[Optional[RunConfig], list[ConfigError]]:
    """Validate a config file; returns (config, []) or (None, errors)."""
    top, sections, errors = _split_file(text)
    mode_raw, mode_line = top.get("mode", (None, 0))
    mode = mode_override or mode_raw
    v = _Validator(sections, mode)
    v.errors.extend(errors)
    if mode is None:
        v.error(0, "mode", "missing (set in the file or pass a subcommand)")
    elif mode not in MODES:
        v.error(mode_line, "mode",
                f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")
        mode = None  # then only [output] is checked
    planar = mode == "solve-2d"
    needs_solver = mode not in (None, "conjugate-table")
    needs_problem = needs_solver and not planar  # the [problem] block

    cfg = RunConfig(mode)

    problem = {}  # ControlProblem or PlanarProblem fields, all but the cost
    if needs_problem:
        problem["horizon"] = v.number("problem", "T", required=True,
                                      check=lambda t: t > 0, describe="T > 0")
        f_expr, f_line = v.expression("problem", "f")
        sig_expr, sig_line = v.expression("problem", "sigma", required=True)
        g_expr, g_line = v.expression("problem", "g", required=True)
        g0_expr, g0_line = v.expression("problem", "g0", required=True)
        problem.update(
            f=f_expr, sigma=sig_expr, g=g_expr, g0=g0_expr,
            f_x=v.derived(f_expr, f_line, "[problem] f"),
            f_xx=v.derived(f_expr, f_line, "[problem] f", order=2),
            g_xx=v.derived(g_expr, g_line, "[problem] g", order=2),
            g0_xx=v.derived(g0_expr, g0_line, "[problem] g0", order=2))
        if mode == "sweep-degenerate":
            problem.update(
                sigma_x=v.derived(sig_expr, sig_line, "[problem] sigma"),
                sigma_xx=v.derived(sig_expr, sig_line, "[problem] sigma",
                                   order=2))

    if mode is not None:  # every mode reads the cost
        kind_raw, kind_line = v.get("cost", "kind", required=True)
        alpha1 = v.number("cost", "alpha1", required=True,
                          check=lambda a: a > 0, describe="alpha1 > 0")
        alpha2 = v.number("cost", "alpha2", default=0.0,
                          check=lambda a: a >= 0, describe="alpha2 >= 0")
        if kind_raw not in (None, "quadratic", "expression"):
            v.error(kind_line, "[cost] kind",
                    f"expected 'quadratic' or 'expression', got {kind_raw!r}")
        elif kind_raw == "expression":
            h_expr, _ = v.expression("cost", "h", variables=("u",),
                                     required=True)
            if h_expr is not None and alpha1 is not None:
                try:
                    cfg.cost = RunningCost.from_callable(h_expr, alpha1,
                                                         alpha2)
                except CostValidationError as exc:
                    v.error(kind_line, "[cost] h", str(exc))
        elif kind_raw == "quadratic":
            _, h_line = v.get("cost", "h")
            if h_line:
                v.error(h_line, "[cost] h", "a quadratic cost takes no h; "
                        "set kind = expression")
            elif alpha1 is not None:
                cfg.cost = RunningCost.quadratic(alpha1, alpha2)

    if needs_solver:
        section = "2d" if planar else "grid"
        L = v.number(section, "L", required=True, check=lambda L: L > 0,
                     describe="L > 0")
        n = v.integer(section, "n", required=True,
                      check=lambda n: n >= 5 and n % 2 == 1,
                      describe="odd n >= 5")
        cfg.eps = v.number("solver", "eps", required=True,
                           check=lambda e: e > 0, describe="eps > 0")
        tol_res = v.number("solver", "tol_res",
                           default=ResolventConfig.tol_res,
                           check=lambda t: t > 0, describe="tol > 0")
        max_iter = v.integer("solver", "max_iter",
                             default=ResolventConfig.max_iter,
                             check=lambda k: k > 0, describe="> 0")
        if mode == "sweep-eps":
            cfg.refine_tol = v.number("solver", "refine_tol", required=True,
                                      check=lambda t: t > 0,
                                      describe="tol > 0")
            cfg.refine_levels = v.integer("solver", "refine_levels", default=8,
                                          check=lambda k: k >= 1,
                                          describe=">= 1")

    if mode == "simulate":
        cfg.paths = v.integer("sim", "paths", required=True,
                              check=lambda p: p >= 2, describe=">= 2")
        horizon = problem["horizon"]  # None when [problem] T is invalid
        cfg.dt = v.number("sim", "dt", default=horizon and horizon / 1000.0,
                          check=lambda d: d > 0, describe="dt > 0")
        # the value is read at x0, so x0 must lie on the mesh [-L, L]
        cfg.x0 = v.number("sim", "x0", default=0.0,
                          check=lambda x: L is None or abs(x) <= L,
                          describe="|x0| <= L")
        cfg.baselines = v.numbers_list("sim", "baselines", DEFAULT_BASELINES,
                                       "constant control levels",
                                       lambda c: c >= 0, "nonnegative")
        dump_raw, dump_line = v.get("sim", "dump_paths", default="false")
        if dump_raw not in ("true", "false"):
            v.error(dump_line, "[sim] dump_paths",
                    f"expected 'true' or 'false', got {dump_raw!r}")
        else:
            cfg.dump_paths = dump_raw == "true"

    if mode == "sweep-degenerate":
        cfg.ladder = v.numbers_list("degenerate", "ladder", DEFAULT_LADDER,
                                    "regularization weights",
                                    lambda w: w > 0, "positive")
        if cfg.ladder and any(b >= a for a, b in zip(cfg.ladder,
                                                     cfg.ladder[1:])):
            v.error(v.get("degenerate", "ladder")[1], "[degenerate] ladder",
                    "must be strictly decreasing")

    if mode == "conjugate-table":
        # the potential vanishes at 0, so the table must reach 0
        cfg.p_min = v.number("conjugate", "p_min", default=-10.0,
                             check=lambda p: p <= 0, describe="p_min <= 0")
        cfg.p_max = v.number("conjugate", "p_max", default=10.0,
                             check=lambda p: p >= 0, describe="p_max >= 0")
        cfg.p_nodes = v.integer("conjugate", "nodes", default=401,
                                check=lambda k: k >= 2, describe=">= 2")
        if not cfg.p_min < cfg.p_max:
            v.error(v.get("conjugate", "p_min")[1], "[conjugate] p_min",
                    "need p_min < p_max")

    if planar:
        problem["horizon"] = v.number("2d", "T", required=True,
                                      check=lambda t: t > 0, describe="T > 0")
        problem["a"] = v.matrix("2d", "a")
        problem["sigma0"], _ = v.expression("2d", "sigma0",
                                            variables=("x", "y"),
                                            required=True)
        for key in ("g", "g0"):  # the data need only the second partials
            expr, line = v.expression("2d", key, variables=("x", "y"),
                                      required=True)
            field = f"[2d] {key}"
            dx, dy = (v.derived(expr, line, field, var=z) for z in "xy")
            problem[f"{key}_parts"] = (v.derived(dx, line, field, var="x"),
                                       v.derived(dx, line, field, var="y"),
                                       v.derived(dy, line, field, var="y"))

    # a horizon of at least eps holds a full step; below it the schedule
    # has at most one, so step_lengths is cheap to ask
    horizon = problem.get("horizon")
    if (None not in (cfg.eps, horizon) and horizon < cfg.eps
            and not step_lengths(horizon, cfg.eps)):
        v.error(v.get("solver", "eps")[1], "[solver] eps",
                f"takes no step in T = {horizon:g}, which is at most eps/100")

    cfg.out_dir = v.get("output", "dir", default="out")[0] or "out"
    cfg.seed = v.integer("output", "seed", default=0,
                         check=seed_in_range, describe=SEED_RANGE)

    cfg.raw = v.used
    cfg.raw.setdefault("output", {})["dir"] = cfg.out_dir
    cfg.raw["output"]["seed"] = str(cfg.seed)
    if v.errors:
        return None, sorted(v.errors, key=lambda e: (e.line, e.field))
    if needs_solver:
        cfg.problem = (PlanarProblem if planar else ControlProblem)(
            cost=cfg.cost, **problem)
        cfg.grid = (Grid2D if planar else Grid1D)(L, n)
        cfg.solver = ResolventConfig(tol_res, max_iter)
    return cfg, []
