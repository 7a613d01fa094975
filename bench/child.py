"""One benchmark repetition in a fresh interpreter.

    python3 bench/child.py REQUEST.json

The request names the CLI arguments, the config file, whether to trace and
where to write the result. The child times `import conewave.cli` plus
`parse_config` (setup), then `conewave.cli.run(argv)` (wall and CPU), and
writes them with its peak memory to the result file. Just before and after
the scenario it times a fixed calibration mix, so that the parent can scale
the timings to the machine's speed of the moment. With tracing on, the
timing wrappers of `tracing.py` are installed between the two phases and
the spans are written at the end.
"""

import json
import resource
import sys
import time


def calibration_s():
    """Median time of three runs of a fixed mix of interpreter loops, numpy
    operations on arrays of the sizes the solver and the quadrature use and
    float formatting: the kind of work the workloads do, none of it from the
    program under test."""
    import numpy as np

    grid = np.linspace(0.0, 1.0, 8193)
    wave, out = np.cos(grid), np.empty_like(grid)
    nodes = grid[:2304].reshape(48, 48).copy()
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0.0
        for i in range(600):
            np.multiply(grid, wave, out=out)
            out += grid
            out[1:-1] -= wave[2:]
            total += float((np.exp(-nodes * nodes) * np.sin(nodes)).sum())
            for k in range(60):
                total += k * 0.5
            total += len(f"{out[i]:.17g}")
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def resident_file_kib():
    with open("/proc/self/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("RssFile:"):
                return int(line.split()[1])
    raise RuntimeError("no RssFile in /proc/self/status")


def main(request_path):
    with open(request_path, encoding="utf-8") as handle:
        req = json.load(handle)

    t0 = time.perf_counter()
    import conewave.cli as cli
    cli.parse_config(req["config"])
    setup_s = time.perf_counter() - t0

    tracer = None
    if req["trace"]:
        import tracing
        tracer = tracing.Tracer(run_id=req["run_id"])
        tracer.install()

    calibration_before = calibration_s()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    code = cli.run(req["argv"])
    wall_s = time.perf_counter() - w0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    calibration = (calibration_before + calibration_s()) / 2

    result = {
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        # Peak RSS less the file-backed pages resident at exit, in MiB: how
        # much of a shared library is resident can depend on what the page
        # cache holds rather than on the program. Both are in KiB on Linux.
        "peak_rss_mb": (ru1.ru_maxrss - resident_file_kib()) / 1024.0,
        "calibration_s": calibration,
    }
    if tracer is not None:
        result["missing"] = tracer.missing
        with open(req["spans"], "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle, separators=(",", ":"))
    with open(req["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
