"""Benchmark of conewave's CLI scenarios, one fresh interpreter per repetition.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root; it uses the package under `src/` as is.
`--seconds` defaults to `run_seconds` of BENCHMARK.json, the one place the
run length is set. Workloads are defined in `workloads.py`. Each repetition
runs `bench/child.py` in a new interpreter with `--threads 1`, a fresh output
directory under `.bench_tmp/` and single-threaded BLAS, one child at a time.
The first repetition warms the file and bytecode caches and its timings are
discarded; repetitions then continue until `--seconds` have passed (at
least MIN_REPS of them). Every repetition's outputs are checked
(`checks.py`) and must be byte-identical to the first one's.

With `--trace 0` the last line reports the end-to-end medians: setup_s,
wall_s and cpu_s, scaled to the machine's speed (CALIBRATION_REF_S), and
peak_rss_mb. With `--trace 1` untraced and traced repetitions alternate,
and the last line reports the per-layer medians of the traced ones
(`tracing.py`) and `trace.overhead_frac`. Both modes print each metric with
its unit, quartiles, sample count and tail percentile, the failed output
checks over the attempted ones (`fail_frac`), the unscaled timings and the
machine record, then the result as one JSON line.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

import checks
import stats
import tracing
import workloads
from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(BENCH_DIR, "child.py")
BENCHMARK_JSON = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
SCRATCH = ".bench_tmp"
MIN_REPS = 3
CHILD_TIMEOUT_S = 60

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MiB"))
TIMINGS = ("setup_s", "wall_s", "cpu_s")
# What child.calibration_s() takes on the reference machine of
# baseline.json at its usual speed. Timings are reported scaled by
# CALIBRATION_REF_S over the calibration time the child measures just before
# and after the scenario: on a shared machine whose speed drifts by tens of
# percent over minutes, the scaled figures hold still while the raw ones
# follow the machine.
CALIBRATION_REF_S = 0.03


class BenchError(RuntimeError):
    pass


def machine_record():
    """Where the numbers came from: cores, CPU, caches and versions."""
    record = {"nproc": len(os.sched_getaffinity(0)),
              "cpu_model": platform.processor() or platform.machine(),
              "caches": {}, "python": platform.python_version(),
              "numpy": np.__version__}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    record["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(index, key), encoding="utf-8") as handle:
                    fields[key] = handle.read().strip()
            if fields["type"] != "Instruction":
                record["caches"][f"L{fields['level']}"] = fields["size"]
    except OSError:
        pass
    return record


def output_digest(outdir):
    """(sha256 over every output file's path and bytes, total bytes)."""
    digest, total = hashlib.sha256(), 0
    for base, dirs, files in os.walk(outdir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as handle:
                data = handle.read()
            digest.update(os.path.relpath(path, outdir).encode() + b"\0")
            digest.update(data)
            total += len(data)
    return digest.hexdigest(), total


class Runner:
    """Runs repetitions of one workload at one seed, one child at a time."""

    def __init__(self, workload, seed, scratch):
        self.workload, self.seed, self.scratch = workload, seed, scratch
        self.count = 0
        # No inherited PYTHON* setting reaches the child. Bytecode is cached
        # under the run's own directory: the warm-up repetition compiles and
        # writes it, the measured ones load it, whatever the caller's
        # PYTHONDONTWRITEBYTECODE and whatever __pycache__ lies in src/.
        self.env = {k: v for k, v in os.environ.items()
                    if k != "CONEWAVE_THREADS" and not k.startswith("PYTHON")}
        self.env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
                        PYTHONPATH=os.path.join(os.getcwd(), "src"),
                        PYTHONPYCACHEPREFIX=os.path.join(scratch, "pycache"))

    def repetition(self, trace):
        self.count += 1
        repdir = os.path.join(self.scratch, f"rep{self.count}")
        os.mkdir(repdir)
        config = os.path.join(repdir, "run.cfg")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(workloads.config_text(self.workload, self.seed))
        outdir = os.path.join(repdir, "out")
        request = {"argv": workloads.cli_args(self.workload, config, outdir),
                   "config": config, "trace": bool(trace),
                   "run_id": self.count,
                   "result": os.path.join(repdir, "result.json"),
                   "spans": os.path.join(repdir, "spans.json")}
        request_path = os.path.join(repdir, "request.json")
        with open(request_path, "w", encoding="utf-8") as handle:
            json.dump(request, handle)
        try:
            proc = subprocess.run([sys.executable, CHILD, request_path],
                                  cwd=repdir, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"repetition {self.count} exceeded "
                             f"{CHILD_TIMEOUT_S} s") from exc
        if proc.returncode != 0 or not os.path.exists(request["result"]):
            raise BenchError(f"repetition {self.count} failed "
                             f"(exit {proc.returncode}):\n{proc.stderr[-3000:]}")
        with open(request["result"], encoding="utf-8") as handle:
            rep = json.load(handle)
        rep["raw"] = {name: rep[name] for name in TIMINGS}
        for name in TIMINGS:
            rep[name] *= CALIBRATION_REF_S / rep["calibration_s"]
        rep["checks"] = checks.output_checks(self.workload, self.seed,
                                             outdir, rep["exit_code"])
        rep["digest"], rep["output_bytes"] = output_digest(outdir)
        if trace:
            with open(request["spans"], encoding="utf-8") as handle:
                spans = json.load(handle)
            rep["layers"], mismatches = tracing.layer_metrics(spans)
            rep["layer_self_s"] = tracing.layer_self_times(spans)
            rep["layers"]["cli.output_bytes"] = float(rep["output_bytes"])
            rep["checks"].append(("trace counts reconcile", not mismatches,
                                  "; ".join(mismatches[:5])))
        shutil.rmtree(repdir)
        return rep


def measure(workload, seed, seconds, trace, scratch):
    runner = Runner(workload, seed, scratch)
    # warm-up for the file and bytecode caches; its timings are dropped
    warmup = runner.repetition(False)
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(runner.repetition(False))
        if trace:
            traced.append(runner.repetition(True))
        if len(plain) >= MIN_REPS and time.perf_counter() >= deadline:
            break
    for rep in plain + traced:
        rep["checks"].append(("outputs byte-identical across repetitions",
                              rep["digest"] == warmup["digest"],
                              "output digest differs from the warm-up's"))
    return warmup, plain, traced


def _fmt(value):
    return "-" if value is None else f"{value:.6g}"


def _line(name, unit, summary):
    tail = (f"p{summary['tail_p']:g} {_fmt(summary['tail'])}"
            if summary["tail_p"] is not None
            else f"no tail percentile (needs >= {2 * stats.MIN_BEYOND} samples)")
    return (f"  {name:34s} {_fmt(summary['median']):>12s} {unit:6s} "
            f"q1 {_fmt(summary['q1'])} q3 {_fmt(summary['q3'])} "
            f"n={summary['n']}  {tail}")


def report(workload, seed, trace, warmup, plain, traced):
    """Prints the human-readable report; returns the result object."""
    all_checks = [c for rep in [warmup] + plain + traced for c in rep["checks"]]
    failed = [c for c in all_checks if not c[1]]
    print(f"# machine {json.dumps(machine_record(), sort_keys=True)}")
    print(f"# workload {workload} seed {seed}: {len(plain)} untraced and "
          f"{len(traced)} traced repetitions after 1 warm-up repetition "
          f"(file and bytecode caches; its timings are discarded)")
    print(f"end-to-end (untraced, median over repetitions; timings scaled "
          f"to a calibration time of {CALIBRATION_REF_S} s):")
    metrics = {}
    for name, unit in END_TO_END:
        summary = stats.summarize([rep[name] for rep in plain])
        print(_line(name, unit, summary))
        if not trace:
            metrics[name] = {"value": summary["median"], "unit": unit}
    print(f"  {'fail_frac':34s} {len(failed) / len(all_checks):>12.6g} ratio  "
          f"{len(failed)} of {len(all_checks)} output checks failed")
    first_failure = {}
    for name, _, detail in failed:
        first_failure.setdefault(name, detail)
    for name, detail in first_failure.items():
        count = sum(c[0] == name for c in failed)
        print(f"  FAILED {name} ({count}x), first: {detail}")
    print("unscaled timings and the calibration time measured around them:")
    for name in TIMINGS:
        print(_line(name, "s", stats.summarize(
            [rep["raw"][name] for rep in plain])))
    print(_line("calibration_s", "s", stats.summarize(
        [rep["calibration_s"] for rep in plain])))
    if trace:
        # Unscaled walls: traced and untraced repetitions alternate, so the
        # machine's drift touches both alike, and whatever the tracer does
        # to the calibration mix stays out of the overhead.
        wall = stats.summarize(
            [rep["raw"]["wall_s"] for rep in plain])["median"]
        print("per-layer (traced, median over repetitions):")
        for name in traced[0]["layers"]:
            summary = stats.summarize([rep["layers"][name] for rep in traced])
            print(_line(name, tracing.unit(name), summary))
            metrics[name] = {"value": summary["median"],
                             "unit": tracing.unit(name)}
        overhead = stats.summarize(
            [(rep["raw"]["wall_s"] - wall) / wall for rep in traced])
        print(_line("trace.overhead_frac", "ratio", overhead))
        metrics["trace.overhead_frac"] = {"value": overhead["median"],
                                          "unit": "ratio"}
        print("self time by layer (traced, median over repetitions):")
        for layer in sorted(traced[0]["layer_self_s"]):
            summary = stats.summarize([rep["layer_self_s"].get(layer, 0.0)
                                       for rep in traced])
            print(_line(layer, "s", summary))
        missing = sorted({m for rep in traced for m in rep["missing"]})
        print(f"# wrapped names missing at this commit: {missing or 'none'}")
    return {"correct": not failed, "attempted": len(all_checks),
            "failed": len(failed), "metrics": metrics}


def run_seconds():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)["run_seconds"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=run_seconds())
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "conewave", "cli.py")):
        print("error: src/conewave not found; run from the repository root",
              file=sys.stderr)
        return 2
    os.makedirs(SCRATCH, exist_ok=True)
    scratch = os.path.abspath(
        tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        runs = measure(args.workload, args.seed, args.seconds, args.trace,
                       scratch)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass
    result = report(args.workload, args.seed, args.trace, *runs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
