"""Per-layer tracing from outside the program.

``install()`` replaces the module-level names through which one layer of
mildhjb calls the next with timing wrappers.  A name bound by
``from .x import f`` lives in the calling module, so each wrapper is set
where the caller looks the name up (``mildhjb.stepper.solve_resolvent``, not
``mildhjb.resolvent.solve_resolvent``).  The package re-exports the function
``conjugate`` under its module's name, so modules are fetched with
``importlib.import_module``.

Spans nest: a span's self time is its duration minus the time covered by
the spans it encloses.  Spans are aggregated per name as they close (calls,
total time, self time, and the per-call durations of the time step) rather
than stored one by one, so the traced run's memory stays flat across the
hundreds of thousands of expression evaluations a tabulation makes.

``metrics()`` turns the aggregates of one traced run into the per-layer
metrics named in BENCHMARK.json.
"""

import functools
import importlib
import inspect
import os
import statistics
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.durations = defaultdict(list)
        self._stack = []  # time covered by child spans of each open span

    def wrap(self, name, fn, count=None, keep=False):
        """Time every call of ``fn`` as span ``name``.

        ``count(counts, result, args, kwargs)`` records work counters from
        the call; ``keep`` stores each call's duration.
        """
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                covered = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - covered
                if keep:
                    self.durations[name].append(elapsed)
            if count is not None:
                count(self.counts, result, args, kwargs)
            return result

        return wrapper

    def summary(self):
        steps = sorted(self.durations.get("stepper.step", []))
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
            # median, and the step with exactly ten slower steps beyond it
            "step_ms": [1e3 * statistics.median(steps) if steps else 0.0,
                        1e3 * steps[-11] if len(steps) > 10 else 0.0,
                        len(steps)],
        }


def _count_resolvent(counts, result, args, kwargs):
    counts["resolvent.newton_iters"] += result.iterations
    counts["resolvent.fallbacks"] += bool(result.fallback)
    counts["resolvent.out_of_table"] += bool(result.out_of_table)


def _count_resolvent_2d(counts, result, args, kwargs):
    counts["twodim.newton_iters"] += result[2]


def _count_simulation(counts, result, args, kwargs):
    problem, cfg = args[0], args[2]
    steps = max(1, int(round(problem.horizon / cfg.dt)))
    counts["montecarlo.path_steps"] += cfg.n_paths * steps
    counts["montecarlo.excluded"] += result.n_excluded


def _count_written(counts, result, args, kwargs):
    counts["cli.bytes_written"] += os.path.getsize(args[0])


def install():
    """Wrap the layer boundaries of mildhjb; returns the recording Tracer."""
    mod = {name: importlib.import_module(f"mildhjb.{name}") for name in
           ("cli", "conjugate", "drift", "expressions", "montecarlo",
            "resolvent", "stepper", "twodim", "value")}
    tracer = Tracer()

    # (span, module, attribute, counter, keep durations)
    sites = [
        ("config.parse", "cli", "parse_config", None, False),
        ("stepper.refine", "cli", "refine_until", None, False),
        ("stepper.mild_solve", "cli", "mild_solve", None, False),
        ("stepper.mild_solve", "stepper", "mild_solve", None, False),
        ("stepper.step", "stepper", "step", None, True),
        ("stepper.gap", "stepper", "sup_time_gap", None, False),
        ("resolvent.solve", "stepper", "solve_resolvent", _count_resolvent,
         False),
        ("drift.apply_B", "resolvent", "apply_B", None, False),
        ("grid.green", "drift", "poisson_gradient", None, False),
        ("grid.green", "value", "poisson_gradient", None, False),
        ("grid.green", "value", "poisson_solve", None, False),
        ("value.reconstruct", "cli", "reconstruct_value", None, False),
        ("value.policy_eval", "value", "interpolate_policy", None, False),
        ("montecarlo.compare", "cli", "compare_policies", None, False),
        ("montecarlo.simulate", "montecarlo", "simulate_cost",
         _count_simulation, False),
        ("montecarlo.noise", "montecarlo", "_path_normals", None, False),
        ("twodim.mild_solve", "cli", "mild_solve_2d", None, False),
        ("twodim.resolvent", "twodim", "solve_resolvent_2d",
         _count_resolvent_2d, False),
        ("twodim.linear_solve", "twodim", "spsolve", None, False),
        ("twodim.solve_L", "cli", "solve_L", None, False),
        ("cli.write", "cli", "_write_csv", _count_written, False),
        ("cli.write", "cli", "_write_text", _count_written, False),
    ]
    for span, module, attr, count, keep in sites:
        target = mod[module]
        setattr(target, attr,
                tracer.wrap(span, getattr(target, attr), count, keep))

    # methods are wrapped on their class
    expression = mod["expressions"].Expression
    expression.__call__ = tracer.wrap("expressions.eval", expression.__call__)
    hamiltonian = mod["conjugate"].ConjugateHamiltonian
    tabulate = hamiltonian.tabulate.__func__
    signature = inspect.signature(tabulate)

    def count_nodes(counts, result, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        counts["conjugate.tabulate_nodes"] += int(bound.arguments["nodes"])

    hamiltonian.tabulate = classmethod(
        tracer.wrap("conjugate.tabulate", tabulate, count_nodes))
    return tracer


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def metrics(spans, parse_s):
    """Per-layer metrics of one traced run, as {name: (value, unit)}."""
    calls, total, counts = spans["calls"], spans["total"], spans["counts"]

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    def k(name):
        return counts.get(name, 0)

    step_p50, step_tail, _ = spans["step_ms"]
    path_steps = k("montecarlo.path_steps")
    return {
        "config.parse_s": (parse_s, "s"),
        "conjugate.tabulate_s": (t("conjugate.tabulate"), "s"),
        "conjugate.tabulate_nodes": (k("conjugate.tabulate_nodes"), "count"),
        "expressions.evals": (c("expressions.eval"), "count"),
        "expressions.eval_s": (t("expressions.eval"), "s"),
        "resolvent.solves": (c("resolvent.solve"), "count"),
        "resolvent.solve_s": (t("resolvent.solve"), "s"),
        "resolvent.newton_iters": (k("resolvent.newton_iters"), "count"),
        "resolvent.us_per_newton_iter": (
            _ratio(t("resolvent.solve"), k("resolvent.newton_iters"), 1e6),
            "us"),
        "resolvent.fallbacks": (k("resolvent.fallbacks"), "count"),
        "resolvent.out_of_table": (k("resolvent.out_of_table"), "count"),
        "drift.apply_B_calls": (c("drift.apply_B"), "count"),
        "drift.apply_B_s": (t("drift.apply_B"), "s"),
        "grid.green_solves": (c("grid.green"), "count"),
        "grid.green_s": (t("grid.green"), "s"),
        "stepper.steps": (c("stepper.step"), "count"),
        "stepper.levels": (c("stepper.mild_solve"), "count"),
        "stepper.step_ms.p50": (step_p50, "ms"),
        "stepper.step_ms.tail": (step_tail, "ms"),
        "stepper.self_s": (t("stepper.mild_solve") - t("resolvent.solve"),
                           "s"),
        "stepper.gap_s": (t("stepper.gap"), "s"),
        "value.reconstruct_s": (t("value.reconstruct"), "s"),
        "value.policy_evals": (c("value.policy_eval"), "count"),
        "value.policy_eval_s": (t("value.policy_eval"), "s"),
        "montecarlo.path_steps": (path_steps, "count"),
        "montecarlo.simulate_s": (t("montecarlo.simulate"), "s"),
        "montecarlo.noise_s": (t("montecarlo.noise"), "s"),
        "montecarlo.ns_per_path_step": (
            _ratio(t("montecarlo.simulate"), path_steps, 1e9), "ns"),
        "montecarlo.excluded": (k("montecarlo.excluded"), "count"),
        "twodim.steps": (c("twodim.resolvent"), "count"),
        "twodim.newton_iters": (k("twodim.newton_iters"), "count"),
        "twodim.resolvent_s": (t("twodim.resolvent"), "s"),
        "twodim.linear_solves": (c("twodim.linear_solve"), "count"),
        "twodim.linear_solve_s": (t("twodim.linear_solve"), "s"),
        "twodim.solve_L_s": (t("twodim.solve_L"), "s"),
        "cli.write_s": (t("cli.write"), "s"),
        "cli.bytes_written": (k("cli.bytes_written"), "B"),
    }


def layer_shares(spans, run_s):
    """Self time per layer (the span-name prefix) as a share of ``run_s``."""
    shares = defaultdict(float)
    for name, seconds in spans["self"].items():
        shares[name.split(".")[0]] += seconds / run_s
    return dict(shares)
