"""SHA-256 of every artifact the benchmark configs write, for diffing two
checkouts.

Run as ``python tests/artifact_bytes.py [--seed S]`` (seed 1 by default);
without a ``test_`` prefix it is not part of the test suite.  Each config in
``perfbench/configs`` runs through ``cli.run`` at that seed into a temporary
directory, and one ``sha256  relative/path`` line is printed per artifact,
the ``#`` lines of ``manifest.txt`` (versions and timing) left out.  Two
checkouts whose outputs ``diff`` equal wrote the same bytes.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mildhjb import cli  # noqa: E402


def artifact_digests(config: Path, seed: int) -> list[str]:
    """``sha256  name/relative/path`` of each file the config's run writes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / config.stem
        code = cli.run(None, str(config), out_dir=str(out), seed=seed,
                       quiet=True)
        if code != 0:
            raise SystemExit(f"{config.name}: exit status {code}")
        lines = []
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            data = path.read_bytes()
            if path.name == "manifest.txt":
                data = b"".join(line for line in data.splitlines(True)
                                if not line.startswith(b"#"))
            name = path.relative_to(out.parent).as_posix()
            lines.append(f"{hashlib.sha256(data).hexdigest()}  {name}")
        return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for config in sorted((ROOT / "perfbench" / "configs").glob("*.cfg")):
        print("\n".join(artifact_digests(config, args.seed)), flush=True)


if __name__ == "__main__":
    main()
