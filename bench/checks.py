"""Output checks of one repetition; their failures make up `fail_frac`.

Every seed gets the checks that do not depend on the seed's values. At the
default seed the outputs are also compared with `reference_seed7.json`,
taken from the seed commit: statuses, the pass/fail vector, counts and CSV
headers must match exactly, floats within a relative tolerance, because
reordering floating-point operations legitimately moves the last digits.
"""

from __future__ import annotations

import glob
import json
import math
import os

import numpy as np

from workloads import BLOWUP_J, DEFAULT_SEED, PROFILE_T_STAR

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference_seed7.json")

# |a - b| <= FLOAT_RTOL * max(|a|, |b|) + ROW_ATOL * row scale, where the row
# scale is the largest magnitude in the CSV row: an error estimate or slack
# that is a small difference of large terms is judged against those terms.
FLOAT_RTOL = 1e-8
ROW_ATOL = 1e-10
# t_b may sit this many time steps from the ODE blow-up profile's crossing
# of phi_max = 1e6 (the solver stops at the first grid time above it).
T_B_STEPS = 2
SNAPSHOTS = 23
# Every snapshot row j holds r_j = j * R / J, phi and phi_t at that node.
SNAPSHOT_R = np.arange(BLOWUP_J + 1) * (6.0 / BLOWUP_J)
SNAPSHOT_COLUMNS = ("r", "phi", "phi_t")
# The reference keeps, for each snapshot and column, the sums of |x| over
# blocks of SNAPSHOT_BLOCK rows, and rows 0, 1024, ..., J verbatim.
SNAPSHOT_BLOCK = 256
SNAPSHOT_SAMPLE_STRIDE = 1024
CARLEMAN_CASES = 200
T0 = -1.0

RUN_HEADER = "status,t_b,J,dt,max_phi"
CARLEMAN_HEADER = "case_id,a,p,n,lhs,rhs_bulk,rhs_boundary,slack,err_est,pass"
PROFILE_HEADER = "t,annulus_q,slab_q,mz_q,lhs_1_6,rhs_1_6,ratio,err_est"


def ode_threshold_crossing(p, level):
    """Time at which phi*(t) = C (-t)^(-2/(p-1)) reaches `level`; the same
    value as conewave's OdeSolution(p).threshold_crossing(level)."""
    amplitude = (2.0 * (p + 1.0) / (p - 1.0) ** 2) ** (1.0 / (p - 1.0))
    return -((amplitude / level) ** ((p - 1.0) / 2.0))


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _csv(outdir, name):
    lines = _read(os.path.join(outdir, name)).splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def _summary(outdir):
    lines = _read(os.path.join(outdir, "summary")).splitlines()
    return dict(line.split("=", 1) for line in lines)


def _flat(summary):
    """Summary as one CSV-like row: key, value, key, value, ..."""
    return [item for pair in summary.items() for item in pair]


def read_snapshots(outdir):
    """[(first two lines, body as a float array of whitespace-separated
    values, body row count)] of every snapshot file, in file-name order."""
    snapshots = []
    for path in sorted(glob.glob(os.path.join(outdir, "snap_*.dat"))):
        head0, head1, body = _read(path).split("\n", 2)
        values = np.array(body.split(), dtype=float)
        snapshots.append(([head0, head1], values, body.count("\n")))
    return snapshots


def snapshot_block_sums(snapshots):
    """One row per snapshot and column: index, column, then the sum of |x|
    over each block of SNAPSHOT_BLOCK rows."""
    rows = []
    for m, (_, values, _) in enumerate(snapshots):
        table = values.reshape(-1, len(SNAPSHOT_COLUMNS))
        starts = np.arange(0, len(table), SNAPSHOT_BLOCK)
        for name, column in zip(SNAPSHOT_COLUMNS, table.T):
            sums = np.add.reduceat(np.abs(column), starts)
            rows.append([str(m), name] + [repr(float(x)) for x in sums])
    return rows


def snapshot_samples(snapshots):
    """Rows 0, SNAPSHOT_SAMPLE_STRIDE, ... of every snapshot, each prefixed
    with the snapshot index and the row index."""
    rows = []
    for m, (_, values, _) in enumerate(snapshots):
        table = values.reshape(-1, len(SNAPSHOT_COLUMNS))
        for j in range(0, len(table), SNAPSHOT_SAMPLE_STRIDE):
            rows.append([str(m), str(j)] + [repr(float(x)) for x in table[j]])
    return rows


def _snapshot_body_ok(values, row_count):
    """None when a snapshot body is J + 1 rows of r_j, phi, phi_t, all
    finite; otherwise what is wrong."""
    width = len(SNAPSHOT_COLUMNS)
    if row_count != SNAPSHOT_R.size or values.size != width * row_count:
        return f"{row_count} rows, {values.size} values"
    if not np.isfinite(values).all():
        return "non-finite values"
    if not np.array_equal(values[::width], SNAPSHOT_R):
        return "r column is not the grid j * R / J"
    return None


def _is_exact_token(tok):
    try:
        int(tok)
        return True
    except ValueError:
        pass
    try:
        float(tok)
        return False
    except ValueError:
        return True


def compare_rows(got, want):
    """First mismatch between two lists of CSV rows, or None."""
    if len(got) != len(want):
        return f"{len(got)} rows, reference has {len(want)}"
    for i, (g_row, w_row) in enumerate(zip(got, want)):
        if len(g_row) != len(w_row):
            return f"row {i}: {len(g_row)} fields, reference has {len(w_row)}"
        scale = max((abs(float(t)) for t in w_row if not _is_exact_token(t)),
                    default=0.0)
        for g, w in zip(g_row, w_row):
            if _is_exact_token(w) or _is_exact_token(g):
                if g != w:
                    return f"row {i}: {g!r} != reference {w!r}"
                continue
            a, b = float(g), float(w)
            if math.isnan(a) and math.isnan(b):
                continue
            if not abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b)) + ROW_ATOL * scale:
                return f"row {i}: {g} differs from reference {w}"
    return None


def output_checks(workload, seed, outdir, exit_code, reference=None):
    """[(check name, passed, detail)] for one repetition's outputs; a missing
    or malformed output file fails the checks that read it."""
    checks = []

    def add(name, ok, detail):
        checks.append((name, bool(ok), "" if ok else str(detail)))

    add("exit code 0", exit_code == 0, f"exit code {exit_code}")
    if seed == DEFAULT_SEED and reference is None:
        reference = load_reference()[workload]
    try:
        _CHECKERS[workload](add, outdir,
                            reference if seed == DEFAULT_SEED else None)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        add("outputs readable", False, f"{type(exc).__name__}: {exc}")
    return checks


def _check_blowup(add, outdir, ref):
    header, rows = _csv(outdir, "run.csv")
    row = rows[0]
    summary = _summary(outdir)
    snapshots = read_snapshots(outdir)
    t_b, dt = float(row[1]), float(row[3])
    exact = ode_threshold_crossing(2.0, 1e6)
    add("run.csv header", header == RUN_HEADER, header)
    add("status blew_up", row[0] == "blew_up", row[0])
    add("finite_speed pass", summary.get("finite_speed") == "pass", summary)
    add("t_b near ODE crossing", abs(t_b - exact) <= T_B_STEPS * dt,
        f"t_b {t_b} is {abs(t_b - exact) / dt:.2f} dt from {exact}")
    add("snapshot count", len(snapshots) == SNAPSHOTS,
        f"{len(snapshots)} snapshots")
    bad = [(m, _snapshot_body_ok(values, count))
           for m, (_, values, count) in enumerate(snapshots)]
    bad = [(m, why) for m, why in bad if why is not None]
    add("snapshot bodies: J + 1 finite rows on the grid", not bad, bad[:3])
    if ref is None:
        return
    steps = round((t_b - T0) / dt)
    add("steps vs reference", steps == ref["steps"],
        f"{steps} steps, reference {ref['steps']}")
    _add_compare(add, "run.csv vs reference", [row], [ref["run"]])
    _add_compare(add, "summary vs reference", [_flat(summary)],
                 [ref["summary"]])
    _add_compare(add, "snapshot headers vs reference",
                 [h[0].split() + h[1].split() for h, _, _ in snapshots],
                 [h[0].split() + h[1].split() for h in ref["snapshots"]])
    for name, summarize, key in (
            ("snapshot block sums vs reference", snapshot_block_sums,
             "snapshot_block_sums"),
            ("snapshot sample rows vs reference", snapshot_samples,
             "snapshot_samples")):
        if bad:
            add(name, False, "snapshot bodies are malformed")
        else:
            _add_compare(add, name, summarize(snapshots), ref[key])


def _check_carleman(add, outdir, ref):
    header, rows = _csv(outdir, "carleman.csv")
    summary = _summary(outdir)
    failed = [row[0] for row in rows if row[-1] != "1"]
    add("carleman.csv header", header == CARLEMAN_HEADER, header)
    add("case count", len(rows) == CARLEMAN_CASES, f"{len(rows)} cases")
    add("all cases pass",
        not failed and summary.get("status") == "pass"
        and summary.get("failures") == "0",
        f"failed cases {failed[:10]}, summary {summary}")
    if ref is not None:
        _add_compare(add, "carleman.csv vs reference", rows, ref["rows"])


def _check_profile(add, outdir, ref):
    header, rows = _csv(outdir, "profile.csv")
    summary = _summary(outdir)
    ratios = [float(row[6]) for row in rows]
    add("profile.csv header", header == PROFILE_HEADER, header)
    _add_compare(add, "profile times", [row[:1] for row in rows],
                 [[repr(t)] for t in PROFILE_T_STAR])
    add("ratios finite and positive",
        ratios and all(math.isfinite(x) and x > 0 for x in ratios), ratios)
    add("summary completed", summary.get("status") == "completed", summary)
    if ref is not None:
        _add_compare(add, "profile.csv vs reference", rows, ref["rows"])


def _add_compare(add, name, got, want):
    mismatch = compare_rows(got, want)
    add(name, mismatch is None, mismatch)


_CHECKERS = {"blowup_j8192": _check_blowup, "carleman_200": _check_carleman,
             "profile_j4096": _check_profile}


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def reference_from_outputs(workload, outdir):
    """The reference record of one workload's seed-7 outputs."""
    if workload == "blowup_j8192":
        row = _csv(outdir, "run.csv")[1][0]
        snapshots = read_snapshots(outdir)
        return {"run": row,
                "steps": round((float(row[1]) - T0) / float(row[3])),
                "summary": _flat(_summary(outdir)),
                "snapshots": [head for head, _, _ in snapshots],
                "snapshot_block_sums": snapshot_block_sums(snapshots),
                "snapshot_samples": snapshot_samples(snapshots)}
    name = "carleman.csv" if workload == "carleman_200" else "profile.csv"
    return {"rows": _csv(outdir, name)[1]}


def write_reference():
    """Regenerates reference_seed7.json from the package under src/; run
    from the repository root at the commit whose outputs are the reference:

        python3 bench/checks.py
    """
    import shutil
    import sys
    import tempfile

    from workloads import WORKLOADS, cli_args, config_text

    sys.path.insert(0, "src")
    from conewave.cli import run

    os.makedirs(".bench_tmp", exist_ok=True)
    scratch = tempfile.mkdtemp(dir=".bench_tmp")
    try:
        reference = {}
        for name in WORKLOADS:
            config = os.path.join(scratch, f"{name}.cfg")
            with open(config, "w", encoding="utf-8") as handle:
                handle.write(config_text(name, DEFAULT_SEED))
            outdir = os.path.join(scratch, name)
            if run(cli_args(name, config, outdir)) != 0:
                raise SystemExit(f"{name} failed")
            reference[name] = reference_from_outputs(name, outdir)
    finally:
        shutil.rmtree(scratch)
        os.rmdir(".bench_tmp")
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    write_reference()
