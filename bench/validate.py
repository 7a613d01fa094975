"""Steadiness check and baseline record of the benchmark.

    python3 bench/validate.py [--baseline PATH] [--against PATH]

Run from the repository root. Runs `bench/run.py` once per seed (7, then
1, 2, ... 10 without 7 again) on each workload, one run at a time and
round-robin: every workload at one seed, then every workload at the next,
so a slow drift of the machine's speed spreads over all seeds instead of
looking like a seed effect. For each workload and end-to-end metric it
prints the spread of the per-run medians: the distance between the first
and third quartile (`statistics.quantiles(values, n=4)`) as a share of
their median, next to the metric's bound in BENCHMARK.json.

`--baseline PATH` also makes one traced run per workload at the default
seed and writes median, quartiles, n and the ten values of every metric,
with the machine record, to PATH. `--against PATH` compares this set's
medians with those of an earlier record: two sets of the same code should
agree within each metric's bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import stats
from run import machine_record
from workloads import DEFAULT_SEED, WORKLOADS

SEEDS = [DEFAULT_SEED] + [s for s in range(1, 11) if s != DEFAULT_SEED]


def run_once(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result


def summary(values):
    """stats.summarize plus the spread (q3 - q1) / median."""
    out = stats.summarize(values)
    out["spread"] = (out["q3"] - out["q1"]) / out["median"]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--baseline", default=None)
    ap.add_argument("--against", default=None)
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    earlier = None
    if args.against:
        with open(args.against, encoding="utf-8") as handle:
            earlier = json.load(handle)["workloads"]

    runs = {workload: [] for workload in WORKLOADS}
    for seed in SEEDS:
        for workload in WORKLOADS:
            result = run_once(workload, seed, 0)
            runs[workload].append(result)
            print(f"# seed {seed} {workload}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)

    record = {"machine": machine_record(),
              "run_seconds": bench["run_seconds"], "seeds": SEEDS,
              "order": "round-robin: all workloads at one seed, then the next",
              "workloads": {}}
    for workload, results in runs.items():
        entry = {"end_to_end": {}, "checks": {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results)}}
        print(f"{workload}: {entry['checks']['failed']} of "
              f"{entry['checks']['attempted']} output checks failed")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            s = dict(summary(values), values=values,
                     unit=results[0]["metrics"][name]["unit"])
            entry["end_to_end"][name] = s
            flag = "ok" if s["spread"] < bound / 3 else (
                "WITHIN BOUND" if s["spread"] <= bound else "TOO WIDE")
            line = (f"  {name:12s} median {s['median']:.6g} spread "
                    f"{s['spread']:.4f} bound {bound} ({flag})")
            if earlier is not None:
                before = earlier[workload]["end_to_end"][name]["median"]
                shift = s["median"] / before - 1.0
                verdict = "ok" if abs(shift) <= bound else "OUTSIDE BOUND"
                line += f"; vs earlier set {shift:+.4f} ({verdict})"
            print(line)
        record["workloads"][workload] = entry
    if args.baseline:
        for workload in WORKLOADS:
            traced = run_once(workload, DEFAULT_SEED, 1)
            record["workloads"][workload]["per_layer_seed7"] = {
                k: v["value"] for k, v in traced["metrics"].items()}
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")


if __name__ == "__main__":
    main()
