"""One benchmark sample in a fresh interpreter.

Times ``import mildhjb.cli`` plus ``parse_config`` of the workload config
(set-up), then one ``mildhjb.cli.run`` into an empty output directory, and
prints a single JSON line with the timings, the exit code, the library
versions and the peak resident memory of this process.  With ``--trace``
the layer boundaries are wrapped after set-up (see ``layers.py``) and the
per-span aggregates are added to the line.  With ``--setup-only`` the run is skipped.

    python3 perfbench/child.py MODE CONFIG OUT_DIR SEED [--trace|--setup-only]
"""

import time

_t0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv):
    mode, config, out_dir, seed = argv[:4]
    flag = argv[4] if len(argv) > 4 else ""
    import mildhjb.cli as cli
    t_import = time.perf_counter()
    from mildhjb.config import parse_config
    with open(config) as fh:
        cfg, errors = parse_config(fh.read(), mode_override=mode)
    t_setup = time.perf_counter()
    record = {"import_s": t_import - _t0, "parse_s": t_setup - t_import,
              "setup_s": t_setup - _t0, "config_ok": not errors}
    if flag != "--setup-only":
        tracer = None
        if flag == "--trace":
            import layers
            tracer = layers.install()
        t_run = time.perf_counter()
        record["rc"] = cli.run(mode, config, out_dir, seed=int(seed),
                               quiet=True)
        record["run_s"] = time.perf_counter() - t_run
        if tracer is not None:
            record["spans"] = tracer.summary()
    import numpy
    import scipy
    record["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    # ru_maxrss is in KiB on Linux
    record["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
