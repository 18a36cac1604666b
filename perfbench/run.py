"""Benchmark of the mildhjb command line, one mode per fresh process.

    python3 perfbench/run.py --workload refine --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

Run from the root of a checkout (the one holding ``src/mildhjb``).  The
benchmark is used the way the CLI is used: one client, runs one after
another, no concurrency, BLAS/OpenMP pools capped at the number of usable
cores.  Every sample is a new interpreter (``child.py``) that times
``import mildhjb.cli`` plus ``parse_config`` (set-up) and then one
``mildhjb.cli.run`` into an empty output directory, so nothing cached in
memory or on disk carries over between samples.  The workload seed reaches
the program only through ``run(..., seed=...)``.

Each invocation makes one discarded warm-up run, then samples until
``--seconds`` is used up (at least two, or one pair when tracing), then
extra set-up-only samples so that ``setup_s`` is a median of at least seven.  Every run's outputs are
checked (``_check_*``); a run that exits non-zero or fails a check counts as
failed.  With ``--trace 1`` untraced and traced samples alternate; the
traced ones wrap the layer boundaries from outside (``layers.py``) and give
the per-layer metrics, and the two medians give the tracing overhead.

Human-readable lines (the environment record, every metric with its unit
and sample count, layer shares) come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"

MIN_SAMPLES = 2
SETUP_SAMPLES = 7
DEADLINE_S = 165.0  # the whole invocation must end within 180 s


def config_values(path):
    """``key = value`` pairs of a workload config (keys are unique in ours)."""
    values = {}
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if "=" in line:
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _csv_rows(path):
    """Data rows of a CLI table (a comment line, a header, then rows)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    return [line.split(",") for line in lines[2:]]


def _tail_rows(path, count):
    """The last ``count`` rows of a large CLI table, read from its end."""
    with open(path, "rb") as fh:
        fh.seek(0, os.SEEK_END)
        size = fh.tell()
        fh.seek(max(0, size - 200 * (count + 1)))
        lines = fh.read().decode().splitlines()
    return [line.split(",") for line in lines[-count:]]


def _summary(path):
    return dict(line.split(" = ", 1)
                for line in Path(path).read_text().splitlines())


# Final-time fields compared to the stored references.  Each returns the
# field as a list of floats in a fixed order.

def _final_refine(out, cfg):
    rows = _tail_rows(out / "fields" / "y_finest.csv", int(cfg["n"]))
    times = {float(r[0]) for r in rows}
    if len(times) != 1 or abs(times.pop() - float(cfg["T"])) > 1e-9:
        raise ValueError("last rows of y_finest.csv are not one final slice")
    return [float(r[2]) for r in rows]


def _final_simulate(out, cfg):
    rows = _csv_rows(out / "policy.csv")[:int(cfg["n"])]
    if any(abs(float(r[0])) > 1e-9 for r in rows):
        raise ValueError("first rows of policy.csv are not the t = 0 slice")
    return [float(r[2]) for r in rows]


PLANAR_STRIDE = 7


def _final_planar(out, cfg):
    n = int(cfg["n"])
    rows = _csv_rows(out / "fields" / "y2d_final.csv")
    if len(rows) != n * n:
        raise ValueError(f"y2d_final.csv has {len(rows)} rows, not {n * n}")
    return [float(r[4]) for r in rows
            if int(r[0]) % PLANAR_STRIDE == 0
            and int(r[1]) % PLANAR_STRIDE == 0]


def _compare(name, field, rtol):
    """Failures of ``field`` against the stored reference, sup-norm."""
    ref = [float(v) for v in
           (REFERENCE / f"{name}.txt").read_text().split()]
    if len(ref) != len(field):
        return [f"final field has {len(field)} values, reference {len(ref)}"]
    scale = max(1.0, max(abs(v) for v in ref))
    worst = max(abs(a - b) for a, b in zip(field, ref))
    if not worst <= rtol * scale:
        return [f"final field differs from reference by {worst:.3e} "
                f"(allowed {rtol * scale:.3e})"]
    return []


# Output checks: properties any correct solver satisfies, plus the final
# field against a reference at a tolerance far above round-off.  Bytes are
# never compared, so a correct change to the numerics still passes.

def _check_refine(out, cfg):
    tol = float(cfg["refine_tol"])
    levels = int(cfg["refine_levels"])
    rows = _csv_rows(out / "reports" / "eps_sweep.csv")
    gaps = [float(r[2]) for r in rows]
    summary = _summary(out / "reports" / "summary.txt")
    converged = summary["converged"] == "True"
    fails = []
    if [int(r[0]) for r in rows] != list(range(1, len(rows) + 1)):
        fails.append("levels are not numbered 1..k")
    if not all(0.0 < g < float("inf") for g in gaps):
        fails.append(f"gaps are not finite and positive: {gaps}")
    if not gaps:
        return fails + ["no refinement level ran"]
    if converged != (gaps[-1] <= tol):
        fails.append(f"converged = {converged} but last gap {gaps[-1]!r} "
                     f"vs refine_tol {tol!r}")
    if any(g <= tol for g in gaps[:-1]) or \
            (not converged and len(gaps) != levels):
        fails.append("refinement did not stop at the first gap within tol")
    if float(summary["last_gap"]) != gaps[-1]:
        fails.append("summary last_gap disagrees with eps_sweep.csv")
    return fails + _compare("refine", _final_refine(out, cfg), 1e-6)


def _check_simulate(out, cfg):
    summary = _summary(out / "reports" / "summary.txt")
    rows = _csv_rows(out / "reports" / "mc_comparison.csv")
    fails = []
    if summary["feedback_beats_baselines"] != "True":
        fails.append("feedback does not beat the constant baselines")
    if len(rows) != 1 + len(cfg["baselines"].split()):
        fails.append(f"{len(rows)} policies reported")
    for r in rows:
        if int(r[6]) != 0 or int(r[5]) != int(cfg["paths"]):
            fails.append(f"{r[0]}: {r[6]} excluded of {cfg['paths']} paths")
        # a zero control sees no noise, so only its error may vanish
        stderr = float(r[2])
        if not stderr >= 0 or (r[0] == "feedback" and not stderr > 0):
            fails.append(f"{r[0]}: standard error {r[2]}")
    return fails + _compare("simulate", _final_simulate(out, cfg), 1e-4)


def _check_planar(out, cfg):
    n, half = int(cfg["n"]), float(cfg["L"])
    h = 2.0 * half / (n - 1)
    masses = [float(r[1]) for r in _csv_rows(out / "reports" / "mass.csv")]
    rows = _csv_rows(out / "fields" / "y2d_final.csv")
    size = h * h * sum(abs(float(r[4])) for r in rows)
    fails = []
    drift = abs(masses[-1] - masses[0])
    if not drift <= 1e-8 * max(1.0, size):
        fails.append(f"mass drift {drift:.3e} exceeds 1e-8 * ||y||_1")
    if len(masses) != round(float(cfg["T"]) / float(cfg["eps"])) + 1:
        fails.append(f"{len(masses) - 1} steps taken")
    return fails + _compare("planar", _final_planar(out, cfg), 1e-6)


WORKLOADS = {
    "refine": ("sweep-eps", _check_refine, _final_refine),
    "simulate": ("simulate", _check_simulate, _final_simulate),
    "planar": ("solve-2d", _check_planar, _final_planar),
}


def _thread_caps():
    cores = str(len(os.sched_getaffinity(0)))
    return {name: cores for name in
            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def child_env():
    env = dict(os.environ, **_thread_caps())
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def environment(seed, versions):
    """Record of the machine and software the numbers were taken on."""
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            **versions, "thread_caps": _thread_caps(), "seed": seed}


class Sampler:
    """Runs the samples of one workload and keeps their records."""

    def __init__(self, name, seed, deadline):
        self.name = name
        self.mode, self.check, _ = WORKLOADS[name]
        self.config = HERE / "configs" / f"{name}.cfg"
        self.cfg = config_values(self.config)
        self.seed = seed
        self.deadline = deadline
        self.out = OUT / name
        self.attempted = 0
        self.failures = []

    def sample(self, flag=""):
        """One child process; returns its record, or None if it crashed."""
        shutil.rmtree(self.out, ignore_errors=True)
        args = [sys.executable, str(HERE / "child.py"), self.mode,
                str(self.config), str(self.out), str(self.seed)]
        if flag:
            args.append(flag)
        setup_only = flag == "--setup-only"
        if not setup_only:
            self.attempted += 1
        try:
            proc = subprocess.run(
                args, env=child_env(), cwd=ROOT, capture_output=True,
                text=True,
                timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            return self._fail("timed out")
        try:
            record = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return self._fail(f"exit {proc.returncode}, no record; "
                              f"stderr: {proc.stderr.strip()[-500:]}")
        if proc.returncode != 0 or not record["config_ok"]:
            return self._fail(f"child exit {proc.returncode}")
        if setup_only:
            return record
        if record["rc"] != 0:
            shutil.rmtree(self.out, ignore_errors=True)
            return self._fail(f"cli.run exit {record['rc']}; "
                              f"stderr: {proc.stderr.strip()[-500:]}")
        try:
            problems = self.check(self.out, self.cfg)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        finally:
            shutil.rmtree(self.out, ignore_errors=True)
        if problems:
            # the run completed, so its timings stand; it still counts failed
            self._fail("; ".join(problems))
        return record

    def _fail(self, message):
        self.failures.append(message)
        print(f"{self.name}: run failed: {message}", file=sys.stderr)
        return None

    def time_left(self):
        return self.deadline - time.perf_counter()


def _spread(values):
    return (f"median of {len(values)}; min {min(values):.6g}, "
            f"max {max(values):.6g}")


def measure(name, seed, seconds, trace):
    """Metrics of one workload as {name: (value, unit, note)}."""
    sampler = Sampler(name, seed, time.perf_counter() + DEADLINE_S)
    warm_up = sampler.sample()  # discarded
    if warm_up is not None:
        print(f"{name} env " + json.dumps(environment(seed,
                                                      warm_up["versions"])))
    plain, traced = [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        rec = sampler.sample()
        if rec is not None:
            plain.append(rec)
        if trace:
            rec = sampler.sample("--trace")
            if rec is not None:
                traced.append(rec)
        rounds += 1
        elapsed = time.perf_counter() - start
        per_round = elapsed / rounds
        if sampler.time_left() < 2.0 * per_round:
            break
        if (rounds >= (1 if trace else MIN_SAMPLES)
                and elapsed + per_round > seconds):
            break
    if not plain or (trace and not traced):
        return sampler, None

    metrics = {}
    if not trace:
        setups = [r["setup_s"] for r in plain]
        while len(setups) < SETUP_SAMPLES and sampler.time_left() > 10.0:
            rec = sampler.sample("--setup-only")
            if rec is None:
                break
            setups.append(rec["setup_s"])
        for key, unit, values in (
                ("run_s", "s", [r["run_s"] for r in plain]),
                ("setup_s", "s", setups),
                ("peak_rss_mb", "MB", [r["peak_rss_mb"] for r in plain])):
            metrics[key] = (statistics.median(values), unit, _spread(values))
        return sampler, metrics

    import layers
    per_run = [layers.metrics(r["spans"], r["parse_s"]) for r in traced]
    note = f"median of {len(traced)} traced runs"
    for key, (_, unit) in per_run[0].items():
        # the lower median is an observed value, so counts stay whole
        metrics[key] = (statistics.median_low(m[key][0] for m in per_run),
                        unit, note)
    plain_s = statistics.median(r["run_s"] for r in plain)
    traced_s = statistics.median(r["run_s"] for r in traced)
    metrics["trace.overhead_frac"] = (
        traced_s / plain_s - 1.0, "ratio",
        f"traced {traced_s:.6g} s ({len(traced)}) vs untraced "
        f"{plain_s:.6g} s ({len(plain)})")
    shares = [layers.layer_shares(r["spans"], r["run_s"]) for r in traced]
    for layer in sorted({k for s in shares for k in s}):
        print(f"{name} share {layer} = "
              f"{statistics.median(s.get(layer, 0.0) for s in shares):.4f}")
    accounted = statistics.median(sum(s.values()) for s in shares)
    metrics["trace.accounted_frac"] = (
        accounted, "ratio", "traced self time over traced run_s")
    tail_n = traced[0]["spans"]["step_ms"][2]
    if tail_n > 10:
        print(f"{name} stepper.step_ms.tail is "
              f"p{100 * (tail_n - 10) / tail_n:.2f} of {tail_n} steps per run")
    return sampler, metrics


def _report(name, sampler, metrics):
    failed = len(sampler.failures)
    print(f"{name} fail_frac = {failed / max(1, sampler.attempted):.6g} ratio "
          f"({failed} of {sampler.attempted} runs)")
    for key, (value, unit, note) in (metrics or {}).items():
        print(f"{name} {key} = {value:.6g} {unit} ({note})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mildhjb" / "cli.py").is_file():
        print(f"error: no mildhjb sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: the seed must be nonnegative", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    result = {}
    try:
        for name in names:
            sampler, metrics = measure(name, args.seed, args.seconds,
                                       bool(args.trace))
            _report(name, sampler, metrics)
            attempted += sampler.attempted
            failed += len(sampler.failures)
            if metrics is None:
                print(f"error: {name}: no run completed", file=sys.stderr)
                return 1
            prefix = f"{name}." if args.workload == "all" else ""
            for key, (value, unit, _) in metrics.items():
                result[prefix + key] = {"value": value, "unit": unit}
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
