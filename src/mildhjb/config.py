"""Run-config parsing and full-file validation.

The config format is line-oriented: ``key = value`` assignments grouped
under ``[section]`` headers, ``#`` comments, blank lines ignored.  The
``mode`` key lives above the first section.  Validation is not fail-fast:
every error in the file is reported, each with its line number.  Coefficient
values are expressions in ``x`` (and ``y`` for the planar block, ``u`` for
the cost) that are differentiated symbolically where the pipeline needs
derivatives, so the transformed data entering the solver is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .conjugate import CostValidationError, RunningCost
from .expressions import (DifferentiationError, Expression, ExpressionError,
                          parse_expression)
from .montecarlo import SEED_RANGE, seed_in_range
from .problem import ControlProblem
from .resolvent import ResolventConfig

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

    ``problem`` (the 1-D modes) and ``solver`` (every mode that marches)
    are the library objects the runners start from.
    """

    mode: str
    raw: dict = dc_field(default_factory=dict)

    problem: Optional[ControlProblem] = None
    cost: Optional[RunningCost] = None

    # grid ([grid] in 1-D, [2d] in 2-D) / solver
    L: float = 10.0
    n: int = 201
    eps: float = 1e-2
    solver: Optional[ResolventConfig] = None
    refine_tol: float = 1e-3
    refine_levels: int = 8

    # simulation
    paths: int = 10000
    dt: Optional[float] = None
    x0: float = 0.0
    baselines: tuple = ()
    dump_paths: bool = False

    # sweeps
    ladder: tuple = ()

    # conjugate table
    p_min: float = -10.0
    p_max: float = 10.0
    p_nodes: int = 401

    # planar block
    a_matrix: Optional[np.ndarray] = None
    sigma0_2d: Optional[Expression] = None
    g_2d_parts: Optional[tuple] = None
    g0_2d_parts: Optional[tuple] = None
    T2: float = 0.0

    # output
    out_dir: str = "out"
    seed: int = 0

    def echo(self) -> str:
        """Canonical config text that re-parses to this run."""
        lines = [f"mode = {self.mode}"]
        order = ("problem", "cost", "grid", "solver", "sim", "degenerate",
                 "conjugate", "2d", "output")
        for section in order:
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
    def __init__(self, sections):
        self.sections = sections
        self.errors: list[ConfigError] = []
        self.used: dict[str, dict[str, str]] = {}

    def error(self, line, field, message):
        self.errors.append(ConfigError(line, field, message))

    def get(self, section, key, required=False, default=None, mode=""):
        entry = self.sections.get(section, {}).get(key)
        if entry is None:
            if required:
                self.error(0, f"[{section}] {key}",
                           f"required for mode {mode}" if mode else "required")
            return default, 0
        self.used.setdefault(section, {})[key] = entry[0]
        return entry[0], entry[1]

    def number(self, section, key, required=False, default=None, mode="",
               check=None, describe="", parse=_finite,
               noun="a finite number"):
        raw, line = self.get(section, key, required, None, mode)
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

    def expression(self, section, key, variables=("x",), required=False,
                   mode=""):
        raw, line = self.get(section, key, required, None, mode)
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

    def numbers_list(self, section, key, default_raw, describe=""):
        raw, line = self.get(section, key)
        if raw is None:
            raw = default_raw
        values = tuple(_finite(p) for p in raw.replace(",", " ").split())
        if None in values:
            self.error(line, f"[{section}] {key}",
                       f"entries must be finite numbers: {raw!r}")
            return ()
        if not values:
            self.error(line, f"[{section}] {key}", f"empty list ({describe})")
        return values

    def matrix(self, section, key, rows, required=False, mode=""):
        raw, line = self.get(section, key, required, None, mode)
        if raw is None:
            return None
        data = [[_finite(v) for v in row.replace(",", " ").split()]
                for row in raw.split(";")]
        if any(None in row for row in data):
            self.error(line, f"[{section}] {key}", f"matrix entries must be "
                       f"finite numbers: {raw!r}")
            return None
        widths = {len(r) for r in data}
        if len(data) != rows or len(widths) != 1 or 0 in widths:
            self.error(line, f"[{section}] {key}",
                       f"need {rows} rows of equal length, ';'-separated")
            return None
        return np.array(data)


def parse_config(text: str, mode_override: Optional[str] = None
                 ) -> tuple[Optional[RunConfig], list[ConfigError]]:
    """Validate a config file; returns (config, []) or (None, errors)."""
    top, sections, errors = _split_file(text)
    v = _Validator(sections)
    v.errors.extend(errors)

    mode_raw = top.get("mode", (None, 0))
    mode = mode_override or mode_raw[0]
    if mode is None:
        v.error(0, "mode", "missing (set in the file or pass a subcommand)")
    elif mode not in MODES:
        v.error(mode_raw[1], "mode",
                f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")
    needs_problem = mode in ("solve", "value", "policy", "simulate",
                             "sweep-eps", "sweep-degenerate")
    needs_cost = needs_problem or mode in ("conjugate-table", "solve-2d")
    needs_solver = needs_problem or mode == "solve-2d"

    cfg = RunConfig(mode=mode or "")

    problem = {}  # ControlProblem fields, all but the cost
    if needs_problem:
        problem["horizon"] = v.number("problem", "T", required=True,
                                      mode=mode, check=lambda t: t > 0,
                                      describe="T > 0")
        f_expr, f_line = v.expression("problem", "f")
        sig_expr, sig_line = v.expression("problem", "sigma", required=True,
                                          mode=mode)
        g_expr, g_line = v.expression("problem", "g", required=True, mode=mode)
        g0_expr, g0_line = v.expression("problem", "g0", required=True,
                                        mode=mode)
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

    if needs_cost:
        kind_raw, kind_line = v.get("cost", "kind", required=True, mode=mode)
        alpha1 = v.number("cost", "alpha1", required=True, mode=mode,
                          check=lambda a: a > 0, describe="alpha1 > 0")
        alpha2 = v.number("cost", "alpha2", default=0.0,
                          check=lambda a: a >= 0, describe="alpha2 >= 0")
        if kind_raw not in (None, "quadratic", "expression"):
            v.error(kind_line, "[cost] kind",
                    f"expected 'quadratic' or 'expression', got {kind_raw!r}")
        elif kind_raw == "expression":
            h_expr, _ = v.expression("cost", "h", variables=("u",),
                                     required=True, mode=mode)
            if h_expr is not None and alpha1 is not None:
                try:
                    cfg.cost = RunningCost.from_callable(h_expr, alpha1,
                                                         alpha2)
                except CostValidationError as exc:
                    v.error(kind_line, "[cost] h", str(exc))
        elif kind_raw == "quadratic" and alpha1 is not None:
            cfg.cost = RunningCost.quadratic(alpha1, alpha2)

    if needs_problem:
        cfg.L = v.number("grid", "L", required=True, mode=mode,
                         check=lambda L: L > 0, describe="L > 0")
        cfg.n = v.integer("grid", "n", required=True, mode=mode,
                          check=lambda n: n >= 5 and n % 2 == 1,
                          describe="odd n >= 5")

    if needs_solver:
        cfg.eps = v.number("solver", "eps", required=True, mode=mode,
                           check=lambda e: e > 0, describe="eps > 0")
        tol_res = v.number("solver", "tol_res",
                           default=ResolventConfig.tol_res,
                           check=lambda t: t > 0, describe="tol > 0")
        max_iter = v.integer("solver", "max_iter",
                             default=ResolventConfig.max_iter,
                             check=lambda k: k > 0, describe="> 0")
        if mode == "sweep-eps":
            cfg.refine_tol = v.number("solver", "refine_tol", required=True,
                                      mode=mode, check=lambda t: t > 0,
                                      describe="tol > 0")
            cfg.refine_levels = v.integer("solver", "refine_levels", default=8,
                                          check=lambda k: k >= 1,
                                          describe=">= 1")

    if mode == "simulate":
        cfg.paths = v.integer("sim", "paths", required=True, mode=mode,
                              check=lambda p: p >= 2, describe=">= 2")
        horizon = problem["horizon"]  # None when [problem] T is invalid
        cfg.dt = v.number("sim", "dt", default=horizon and horizon / 1000.0,
                          check=lambda d: d > 0, describe="dt > 0")
        # the value is read at x0, so x0 must lie on the mesh [-L, L]
        cfg.x0 = v.number("sim", "x0", default=0.0,
                          check=lambda x: cfg.L is None or abs(x) <= cfg.L,
                          describe="|x0| <= L")
        cfg.baselines = v.numbers_list("sim", "baselines", DEFAULT_BASELINES,
                                       describe="constant control levels")
        dump_raw, dump_line = v.get("sim", "dump_paths", default="false")
        if dump_raw not in ("true", "false"):
            v.error(dump_line, "[sim] dump_paths",
                    f"expected 'true' or 'false', got {dump_raw!r}")
        else:
            cfg.dump_paths = dump_raw == "true"

    if mode == "sweep-degenerate":
        cfg.ladder = v.numbers_list("degenerate", "ladder", DEFAULT_LADDER,
                                    describe="regularization weights")
        if cfg.ladder and any(b >= a for a, b in zip(cfg.ladder,
                                                     cfg.ladder[1:])):
            v.error(0, "[degenerate] ladder", "must be strictly decreasing")

    if mode == "conjugate-table":
        cfg.p_min = v.number("conjugate", "p_min", default=-10.0)
        cfg.p_max = v.number("conjugate", "p_max", default=10.0)
        cfg.p_nodes = v.integer("conjugate", "nodes", default=401,
                                check=lambda k: k >= 2, describe=">= 2")
        if cfg.p_min is not None and cfg.p_max is not None \
                and not cfg.p_min < cfg.p_max:
            v.error(0, "[conjugate] p_min", "need p_min < p_max")

    if mode == "solve-2d":
        cfg.L = v.number("2d", "L", required=True, mode=mode,
                         check=lambda L: L > 0, describe="L > 0")
        cfg.n = v.integer("2d", "n", required=True, mode=mode,
                          check=lambda n: n >= 5 and n % 2 == 1,
                          describe="odd n >= 5")
        cfg.T2 = v.number("2d", "T", required=True, mode=mode,
                          check=lambda t: t > 0, describe="T > 0")
        cfg.a_matrix = v.matrix("2d", "a", rows=2, required=True, mode=mode)
        cfg.sigma0_2d, _ = v.expression("2d", "sigma0", variables=("x", "y"),
                                        required=True, mode=mode)
        g2, g2_line = v.expression("2d", "g", variables=("x", "y"),
                                   required=True, mode=mode)
        g02, g02_line = v.expression("2d", "g0", variables=("x", "y"),
                                     required=True, mode=mode)

        def second_partials(expr, line, field):
            dx = v.derived(expr, line, field, var="x")
            dy = v.derived(expr, line, field, var="y")
            if dx is None or dy is None:
                return None
            return (v.derived(dx, line, field, var="x"),
                    v.derived(dx, line, field, var="y"),
                    v.derived(dy, line, field, var="y"))

        if g2 is not None:
            cfg.g_2d_parts = second_partials(g2, g2_line, "[2d] g")
        if g02 is not None:
            cfg.g0_2d_parts = second_partials(g02, g02_line, "[2d] g0")

    cfg.out_dir = v.get("output", "dir", default="out")[0] or "out"
    cfg.seed = v.integer("output", "seed", default=0,
                         check=seed_in_range, describe=SEED_RANGE)

    cfg.raw = v.used
    if mode:
        cfg.raw.setdefault("output", {})["dir"] = cfg.out_dir
        cfg.raw["output"]["seed"] = str(cfg.seed)
    if v.errors:
        return None, sorted(v.errors, key=lambda e: (e.line, e.field))
    if needs_problem:
        cfg.problem = ControlProblem(cost=cfg.cost, **problem)
    if needs_solver:
        cfg.solver = ResolventConfig(tol_res, max_iter)
    return cfg, []
