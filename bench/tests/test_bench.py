"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest bench/tests -q      (from the repository root)
"""

import json
import os
import re
import shutil
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import (DEFAULT_SEED, WORKLOADS, cli_args,  # noqa: E402
                       config_text, truncated_ode_data)


def span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, 1, attrs]


# -- self time ---------------------------------------------------------------

def test_self_time_of_nested_spans():
    spans = [span("cli.run", 0, 100),
             span("solver.evolve", 10, 30, 0),
             span("energetics.profile", 40, 70, 0),
             span("quadrature.slice", 50, 60, 2)]
    assert tracing.self_times(spans) == [50, 20, 20, 10]
    assert tracing.layer_self_times(spans) == pytest.approx(
        {"cli": 50e-9, "solver": 20e-9, "energetics": 20e-9,
         "quadrature": 10e-9})


def test_self_time_counts_overlapping_children_once():
    spans = [span("cli.run", 0, 100),
             span("fields.discrete_eval", 10, 50, 0),
             span("fields.discrete_eval", 30, 60, 0),
             span("fields.discrete_eval", 90, 120, 0)]
    assert tracing.self_times(spans)[0] == 100 - 50 - 10


def test_layer_metrics_count_outermost_quadrature_only():
    spans = [span("cli.run", 0, 1000),
             span("quadrature.bulk", 100, 300, 0,
                  {"nodes": 40, "outer": 1, "integrand_points": 40}),
             span("quadrature.profile", 110, 290, 1, {"nodes": 40, "outer": 0}),
             span("quadrature.surface", 400, 500, 0,
                  {"nodes": 10, "outer": 1, "integrand_points": 10})]
    metrics, mismatches = tracing.layer_metrics(spans)
    assert mismatches == []
    assert metrics["quadrature.bulk_calls"] == 1
    assert metrics["quadrature.profile_calls"] == 0
    assert metrics["quadrature.surface_calls"] == 1
    assert metrics["quadrature.nodes"] == 50
    assert metrics["quadrature.ns_per_node"] == pytest.approx(300 / 50)
    assert metrics["quadrature.self_s"] == pytest.approx((20 + 180 + 100) * 1e-9)
    assert metrics["cli.self_s"] == pytest.approx(700 * 1e-9)


def test_layer_metrics_report_unreconciled_counts():
    spans = [span("quadrature.slice", 0, 10, -1,
                  {"nodes": 8, "outer": 1, "integrand_points": 6}),
             span("solver.evolve", 20, 30, -1,
                  {"steps": 5, "cells": 9, "cell_steps": 45,
                   "energy_samples": 5, "steps_from_t_b": 4})]
    _, mismatches = tracing.layer_metrics(spans)
    assert len(mismatches) == 2


# -- percentile rule ---------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_summary_reports_median_tail_and_n():
    values = list(range(1, 201))
    summary = stats.summarize(values)
    assert summary["n"] == 200
    assert summary["median"] == 100.5
    assert summary["tail_p"] == 95.0
    assert summary["tail"] == 190
    assert sum(v > summary["tail"] for v in values) == 10
    few = stats.summarize([3.0, 1.0, 2.0])
    assert (few["median"], few["n"], few["tail_p"]) == (2.0, 3, None)


# -- metric names ------------------------------------------------------------

def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_metric_names_and_units_match_benchmark_json():
    bench = _benchmark()
    layer, _ = tracing.layer_metrics([])
    names = list(layer) + ["cli.output_bytes", "trace.overhead_frac"]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [(n, tracing.unit(n)) for n in names]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    for metric in bench["per_layer"] + bench["end_to_end"] + bench["workloads"]:
        assert pattern.fullmatch(metric["name"]), metric["name"]


# -- output checks -----------------------------------------------------------

def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _profile_outputs(outdir, rows):
    _write(os.path.join(outdir, "profile.csv"),
           checks.PROFILE_HEADER + "\n"
           + "".join(",".join(row) + "\n" for row in rows))
    _write(os.path.join(outdir, "summary"), "status=completed\ntimes=16\n")


def _failures(workload, seed, outdir):
    return [c for c in checks.output_checks(workload, seed, outdir, 0)
            if not c[1]]


def test_reference_outputs_pass(tmp_path):
    rows = checks.load_reference()["profile_j4096"]["rows"]
    _profile_outputs(tmp_path, rows)
    assert _failures("profile_j4096", DEFAULT_SEED, tmp_path) == []
    assert _failures("profile_j4096", 123, tmp_path) == []


def test_corrupted_output_counts_as_failure(tmp_path):
    rows = [list(r) for r in checks.load_reference()["profile_j4096"]["rows"]]
    rows[3][2] = repr(float(rows[3][2]) * (1 + 1e-6))
    _profile_outputs(tmp_path, rows)
    failed = _failures("profile_j4096", DEFAULT_SEED, tmp_path)
    assert [c[0] for c in failed] == ["profile.csv vs reference"]

    rows[5][6] = "-1"   # a negative ratio fails at any seed
    _profile_outputs(tmp_path, rows)
    assert "ratios finite and positive" in \
        [c[0] for c in _failures("profile_j4096", 123, tmp_path)]


def test_last_digit_changes_are_tolerated():
    ref = checks.load_reference()["carleman_200"]["rows"]
    moved = [list(r) for r in ref]
    moved[0][8] = repr(float(moved[0][8]) * (1 + 1e-6))   # err_est, tiny
    moved[1][4] = repr(float(moved[1][4]) * (1 + 1e-12))
    assert checks.compare_rows(moved, ref) is None
    moved[2][-1] = "0"
    assert "row 2" in checks.compare_rows(moved, ref)


def test_missing_output_fails(tmp_path):
    failed = _failures("blowup_j8192", DEFAULT_SEED, tmp_path)
    assert [c[0] for c in failed] == ["outputs readable"]
    assert checks.output_checks("blowup_j8192", 5, tmp_path, 3)[0][1] is False


@pytest.fixture(scope="module")
def blowup_outputs(tmp_path_factory):
    """The blowup_j8192 outputs of the package under src/ at seed 7."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from conewave.cli import run as cli_run
    base = tmp_path_factory.mktemp("blowup")
    config = base / "run.cfg"
    _write(config, config_text("blowup_j8192", DEFAULT_SEED))
    assert cli_run(cli_args("blowup_j8192", str(config),
                            str(base / "out"))) == 0
    return base / "out"


def _edit_snapshot(outdir, index, edit):
    """Rewrites the body rows of snapshot `index` with edit(rows)."""
    path = os.path.join(outdir, f"snap_{index:04d}.dat")
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    rows = [line.split() for line in lines[2:]]
    _write(path, "\n".join(lines[:2] + [" ".join(r) for r in edit(rows)])
           + "\n")


def _swap_phi_columns(rows):
    return [[r, phit, phi] for r, phi, phit in rows]


def _scale_interior_phi(rows):
    rows[100][1] = repr(float(rows[100][1]) * (1 + 1e-4))
    return rows


def _drop_last_row(rows):
    return rows[:-1]


def _round_phi(rows):
    return [[r, f"{float(phi):.6g}", phit] for r, phi, phit in rows]


def test_blowup_snapshot_bodies_pass(blowup_outputs):
    assert _failures("blowup_j8192", DEFAULT_SEED, blowup_outputs) == []
    assert _failures("blowup_j8192", 123, blowup_outputs) == []


@pytest.mark.parametrize("edit, seed, expected", [
    (_scale_interior_phi, DEFAULT_SEED, ["snapshot block sums vs reference"]),
    (_swap_phi_columns, DEFAULT_SEED, ["snapshot block sums vs reference",
                                       "snapshot sample rows vs reference"]),
    (_round_phi, DEFAULT_SEED, ["snapshot block sums vs reference",
                                "snapshot sample rows vs reference"]),
    (_drop_last_row, 123,
     ["snapshot bodies: J + 1 finite rows on the grid"]),
])
def test_corrupted_snapshot_body_counts_as_failure(blowup_outputs, tmp_path,
                                                   edit, seed, expected):
    outdir = tmp_path / "out"
    shutil.copytree(blowup_outputs, outdir)
    _edit_snapshot(outdir, 10, edit)
    assert [c[0] for c in _failures("blowup_j8192", seed, outdir)] == expected


def test_ode_threshold_crossing_matches_package():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from conewave.exact_solutions import OdeSolution
    for p in (1.5, 2.0, 3.0):
        assert checks.ode_threshold_crossing(p, 1e6) == pytest.approx(
            OdeSolution(p).threshold_crossing(1e6), rel=1e-14)


# -- tracing of the real package ---------------------------------------------

def test_tracer_wraps_by_name_imports_and_reports_missing():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    from conewave import carleman, quadrature
    from conewave.fields import gaussian_pulse

    original = quadrature.integrate_bulk
    tracer = tracing.Tracer(run_id=3)
    extra = (("quadrature.gone", "conewave.quadrature", "no_such_name", None),)
    tracer.install(tracing.TARGETS + extra)
    try:
        assert carleman.integrate_bulk is quadrature.integrate_bulk
        assert carleman.integrate_bulk is not original
        params = carleman.CarlemanParams(a=0.25, p=2.0, n=3)
        region = carleman.box_region(-0.2, 0.2, 0.6, 1.4)
        field = gaussian_pulse(3, 0.5, 0.0, 0.3, 0.4)
        rep = carleman.verify_global(params, field, region,
                                     quadrature.QuadratureSpec(cells_t=8,
                                                               cells_r=8))
    finally:
        tracer.uninstall()
    assert quadrature.integrate_bulk is original
    assert carleman.integrate_bulk is original
    assert tracer.missing == ["conewave.quadrature.no_such_name"]
    metrics, mismatches = tracing.layer_metrics(tracer.spans)
    assert mismatches == []
    assert metrics["quadrature.bulk_calls"] == 2
    assert metrics["quadrature.profile_calls"] == 0
    assert metrics["quadrature.surface_calls"] == len(region.pieces)
    assert metrics["carleman.nontrivial_frac"] == float(rep.lhs_bulk > 0)
    assert metrics["fields.manufactured_eval_points"] > 0
    assert all(s[4] == 3 for s in tracer.spans)
    assert np.isfinite(rep.slack)


# -- workloads ---------------------------------------------------------------

def test_seed_rule():
    assert truncated_ode_data(DEFAULT_SEED) == (2.0, 0.25)
    M, w = truncated_ode_data(11)
    assert 1.75 <= M <= 2.25 and 0.2 <= w <= 0.3
    assert truncated_ode_data(11) == (M, w)
    assert truncated_ode_data(12) != (M, w)
    text = config_text("carleman_200", 42)
    assert "seed = 42" in text and "cases = 200" in text
