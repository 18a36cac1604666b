"""Regenerate the stored final-time fields that the output checks compare to.

    python3 perfbench/make_reference.py

Run it from the root of a checkout, and only when a change to the numerics
is meant to move the final fields by more than the checks allow; say so in
the change's notes.  Each workload runs once, untraced, at seed 0.
"""

import shutil
import subprocess
import sys

import run


def main():
    run.REFERENCE.mkdir(exist_ok=True)
    for name, (mode, _, final) in run.WORKLOADS.items():
        config = run.HERE / "configs" / f"{name}.cfg"
        out = run.OUT / name
        shutil.rmtree(out, ignore_errors=True)
        subprocess.run([sys.executable, str(run.HERE / "child.py"), mode,
                        str(config), str(out), "0"],
                       env=run.child_env(), cwd=run.ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=600)
        field = final(out, run.config_values(config))
        (run.REFERENCE / f"{name}.txt").write_text(
            "".join(f"{v!r}\n" for v in field))
        print(f"{name}: {len(field)} values")
    shutil.rmtree(run.OUT, ignore_errors=True)


if __name__ == "__main__":
    main()
