"""SHA-256 of every artifact the benchmark configs and the pinned CLI runs
write, for diffing two checkouts.

Run as ``python tests/artifact_bytes.py [--seed S] [--fork-fails]`` (seed 1
by default); without a ``test_`` prefix it is not part of the test suite.
Each config in ``perfbench/configs``, and each run of ``PINNED_RUNS`` in
``test_cli.py``, runs through ``cli.run`` at that seed into a temporary
directory, and one ``sha256  run/relative/path`` line is printed per
artifact, the ``#`` lines of ``manifest.txt`` (versions and timing) left
out.  A benchmark run is named by its config's stem, a pinned run
``pinned/<name>``.  Two checkouts whose outputs ``diff`` equal wrote the
same bytes.

With ``--fork-fails``, ``mildhjb._fork.cores`` returns 2 and every
``os.fork`` raises ``BlockingIOError(EAGAIN)``, so each user of ``_fork``
takes the path where ``join`` does a failed worker's task itself, on any
host.  Its output must ``diff`` empty against a normal run of the same
checkout.
"""

import argparse
import errno
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mildhjb import _fork, cli  # noqa: E402


def output_hashes(out: Path) -> dict[str, str]:
    """SHA-256 of each file under ``out`` by its path relative to ``out``,
    of ``manifest.txt`` without its ``#`` lines."""
    hashes = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.txt":
            data = b"".join(line for line in data.splitlines(True)
                            if not line.startswith(b"#"))
        hashes[path.relative_to(out).as_posix()] = \
            hashlib.sha256(data).hexdigest()
    return hashes


def artifact_digests(name: str, mode, text: str, seed: int) -> list[str]:
    """``sha256  name/relative/path`` of each file that running the config
    ``text`` in ``mode`` (None: the config's own) writes."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        config.write_text(text)
        code = cli.run(mode, str(config), out_dir=str(out), seed=seed,
                       quiet=True)
        if code != 0:
            raise SystemExit(f"{name}: exit status {code}")
        return [f"{digest}  {name}/{path}"
                for path, digest in output_hashes(out).items()]


def runs():
    """``(name, mode, config text)`` of every benchmark config and pinned
    run."""
    from test_cli import PINNED_RUNS  # imports this module: not at the top

    for config in sorted((ROOT / "perfbench" / "configs").glob("*.cfg")):
        yield config.stem, None, config.read_text()
    for name, (mode, text) in PINNED_RUNS.items():
        yield f"pinned/{name}", mode, text


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--fork-fails", action="store_true",
                        help="make every fork raise EAGAIN on two cores")
    args = parser.parse_args()
    if args.fork_fails:
        def no_fork():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        _fork.cores = lambda: 2
        _fork.os.fork = no_fork
    for name, mode, text in runs():
        print("\n".join(artifact_digests(name, mode, text, args.seed)),
              flush=True)


if __name__ == "__main__":
    main()
