"""Alternated pairs of benchmark runs in two checkouts, for a no-regression
or gain check between a parent and a change.

Run as ``python tests/bench_pairs.py PARENT CHANGE --pairs N --seed S
--seconds T --out BENCH_<n>.json``; without a ``test_`` prefix it is not
part of the test suite.  Pair ``i`` (from 0) runs ``perfbench/run.py
--workload all --seed S+i --seconds T`` once in each checkout, one process
at a time, the parent first in even pairs and the change first in odd ones.
The last line of each run's output (its JSON result) goes into ``--out``
with the keys ``what``, ``host``, ``sides``, ``sittings``, ``summary`` and
``runs``; ``summary`` gives, for every metric of every workload, each
side's median, quartiles (inclusive), min and max, the pairs in which the
change read lower, and the change's median less the parent's.  The same
table is printed.  An ``--out`` that exists gains the new sitting, named
``all<S>``, beside the ones it holds, so one file keeps every run made.

Each end-to-end metric of ``BENCHMARK.json`` (read from the parent
checkout, never written) also gets a verdict against its ``bound``, in the
metric's own unit, so ``peak_rss_mb``'s 0.1 is read as 0.1 MB: ``worse``
when the change's median is worse than the parent's by more than the bound;
``unresolved`` when the parent's quartile spread q3 - q1 exceeds the bound
and not every run of the change is better than every run of the parent;
``no worse`` otherwise.  ``gain`` says whether a gain would count: the
change better in at least nine tenths of the pairs (ties count for
neither), and its median better by more than the parent's q3 - q1.  Both
are printed and recorded in ``summary``, and neither sets the exit status:
it is 1 if any run exits non-zero, prints no result, is not ``correct`` or
has a failed operation.

Give the two checkouts paths of equal length: a path is part of what each
run imports and writes.  Nothing under ``perfbench/`` is changed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

SIDES = ("pa", "ch")


def run_once(checkout: Path, seed: int, seconds: float) -> dict:
    """The JSON result of one ``perfbench/run.py --workload all`` run in
    ``checkout``, or ``{"correct": False, ...}`` with the reason."""
    command = [sys.executable, "perfbench/run.py", "--workload", "all",
               "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "error": done.stderr[-2000:]}
    if done.returncode != 0:
        result.update(correct=False, exit_status=done.returncode)
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "min": round(min(values), 4),
            "max": round(max(values), 4), "runs": len(values)}


def judge(pairs: list[tuple[float, float]], better: str,
          bound: float) -> dict:
    """The verdict and the gain test of one end-to-end metric, from its
    (parent, change) pairs; ``better`` is ``"lower"`` or ``"higher"``."""
    sign = 1.0 if better == "lower" else -1.0
    pa, ch = ([sign * v for v in values] for values in zip(*pairs))
    q1, median, q3 = statistics.quantiles(pa, n=4, method="inclusive")
    worse_by = statistics.median(ch) - median
    if worse_by > bound:
        verdict = "worse"
    elif q3 - q1 > bound and not max(ch) < min(pa):
        verdict = "unresolved"
    else:
        verdict = "no worse"
    won = sum(c < p for p, c in zip(pa, ch))
    return {"verdict": verdict, "bound": bound,
            "gain": 10 * won >= 9 * len(pairs) and -worse_by > q3 - q1}


def summarize(runs: list[dict], bounds: dict) -> dict:
    """Per metric: each side's spread, and how the change compares by
    pair and by median; an end-to-end metric of ``bounds`` (name to
    ``(better, bound)``) also gets ``judge``'s verdict."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = \
            run["result"].get("metrics", {})
    names = sorted({name for sides in by_pair.values()
                    for metrics in sides.values() for name in metrics},
                   key=lambda name: (name.split(".", 1)[0] != "refine",
                                     name))
    summary = {}
    for name in names:
        pairs = [(sides["pa"][name]["value"], sides["ch"][name]["value"])
                 for sides in by_pair.values()
                 if all(name in sides.get(side, {}) for side in SIDES)]
        if len(pairs) < 2:
            continue
        pa, ch = (spread(list(values)) for values in zip(*pairs))
        summary[name] = {
            "pa": pa, "ch": ch, "pairs": len(pairs),
            "ch_lower_in_pairs": sum(c < p for p, c in pairs),
            "median_delta": round(ch["median"] - pa["median"], 4)}
        metric = name.rsplit(".", 1)[-1]
        if metric in bounds:
            summary[name].update(judge(pairs, *bounds[metric]))
    return summary


def describe(checkout: Path) -> str:
    """The checkout's directory name and commit, the commit marked
    ``-dirty`` if its tree has changes."""
    done = subprocess.run(["git", "describe", "--always", "--dirty"],
                          cwd=checkout, capture_output=True, text=True)
    return f"{checkout.name}: {done.stdout.strip() or 'not a git checkout'}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    sitting = f"all{args.seed}"
    record = (json.loads(args.out.read_text()) if args.out.exists() else
              {"sittings": {}, "summary": {}, "runs": []})
    if sitting in record["sittings"]:
        raise SystemExit(f"{args.out} already holds sitting {sitting}")
    seeds = f"seeds {args.seed}-{args.seed + args.pairs - 1}"
    runs = []
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order, 1):
            result = run_once(checkouts[side], seed, args.seconds)
            runs.append({"pair": pair + 1, "seed": seed, "side": side,
                         "order_in_pair": position, "result": result,
                         "workload": "all", "sitting": sitting})
            print(f"pair {pair + 1} seed {seed} {side}: "
                  f"correct={result.get('correct')} "
                  f"failed={result.get('failed')}", flush=True)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    summary = summarize(runs, {m["name"]: (m["better"], m["bound"])
                               for m in spec["end_to_end"]})
    versions = ", ".join(f"{name} {metadata.version(name)}"
                         for name in ("numpy", "scipy"))
    record.update(
        what=("Last lines of every `python3 perfbench/run.py --workload all "
              "--seed S --seconds T` run, in alternated pairs of the parent "
              "(pa) and the change (ch), the parent first in odd pairs "
              "(order_in_pair 1 ran first); `sittings` gives each "
              "sitting's seeds and T."),
        host=(f"{len(os.sched_getaffinity(0))} usable cores; Python "
              f"{platform.python_version()}, {versions}"),
        sides={side: describe(path) for side, path in checkouts.items()})
    record["sittings"][sitting] = (
        f"{args.pairs} alternated pairs pa/ch, every workload, {seeds}, "
        f"--seconds {args.seconds:g}")
    record["summary"][sitting] = summary
    record["runs"] += runs
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{'metric':<24}{'pa median [q1, q3]':>28}"
          f"{'ch median [q1, q3]':>28}{'ch lower':>10}{'delta':>10}"
          f"  verdict (bound), gain")
    for name, row in summary.items():
        pa, ch = row["pa"], row["ch"]
        judged = (f"  {row['verdict']} ({row['bound']:g}), "
                  f"gain {'yes' if row['gain'] else 'no'}"
                  if "verdict" in row else "")
        print(f"{name:<24}"
              f"{pa['median']:>10.4f} [{pa['q1']:.4f}, {pa['q3']:.4f}]"
              f"{ch['median']:>10.4f} [{ch['q1']:.4f}, {ch['q3']:.4f}]"
              f"{row['ch_lower_in_pairs']:>6}/{row['pairs']:<3}"
              f"{row['median_delta']:>+10.4f}{judged}")
    bad = [f"pair {run['pair']} {run['side']}" for run in runs
           if not run["result"].get("correct") or run["result"].get("failed")]
    if bad:
        print("not correct or failed: " + ", ".join(bad), file=sys.stderr)
        raise SystemExit(1)


if __name__ == "__main__":
    main()
