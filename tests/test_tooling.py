"""The test configuration itself: a failing test is reported as a failure
and the session goes on, whatever plugin reports it. And the benchmark's
command lines: each workload's argv and config still parse and validate,
and its seed-7 outputs pass the benchmark's own output checks."""

import importlib.util
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from conewave import cli
from conewave.fields import DiscreteField

ROOT = pathlib.Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def _load_bench(name, **imports):
    """bench/<name>.py, loaded by path and only read. The bench modules
    import each other by bare name (the benchmark runs with bench/ on the
    path): each name in `imports` is bound to its loaded module only while
    this one loads."""
    saved = {key: sys.modules.get(key) for key in imports}
    sys.modules.update(imports)
    try:
        spec = importlib.util.spec_from_file_location(
            f"bench_{name}", ROOT / "bench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        for key, value in saved.items():
            if value is None:
                del sys.modules[key]
            else:
                sys.modules[key] = value


WORKLOADS = _load_bench("workloads")
CHECKS = _load_bench("checks", workloads=WORKLOADS)
TRACING = _load_bench("tracing", stats=_load_bench("stats"))

# The tracer targets whose code is gone. The benchmark lists an absent
# target in `Tracer.missing` and runs on, so a deletion that strands a
# target shows up nowhere else; this set may only shrink.
STALE_TRACER_TARGETS = {
    "conewave.fields.DiscreteField.write_snapshots",
    "conewave.fields.DiscreteField.value",
    "conewave.fields.DiscreteField.value_t",
    "conewave.fields.DiscreteField.value_r",
    "conewave.fields.ManufacturedField.value",
    "conewave.fields.ManufacturedField.value_t",
    "conewave.fields.ManufacturedField.value_r",
    "conewave.fields.ManufacturedField.box_at",
    "conewave.fields.PotentialSpec.gradient",
    "conewave.quadrature.integrate_profile",
    "conewave.quadrature.integrate_slice",
    "conewave.quadrature.integrate_surface",
    "conewave.carleman.bulk_gamma",
    "conewave.carleman.clipped_exterior_region",
    "conewave.carleman.level_shell_region",
    "conewave.energetics.lp_slab_quantity",
}

PROPERTY_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails_from_5_on(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # before: under `error::DeprecationWarning` the hypothesis plugin's
    # report hook met `mypy_extensions.TypedDict is deprecated`; pytest
    # printed INTERNALERROR, never ran test_passes and exited 3
    (tmp_path / "test_property.py").write_text(PROPERTY_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
    assert "Falsifying example" in proc.stdout
    assert proc.returncode == 1


def test_no_benchmark_tracer_target_is_stranded():
    tracer = TRACING.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert set(tracer.missing) <= STALE_TRACER_TARGETS


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_a_benchmark_command_line_parses_and_validates(tmp_path, monkeypatch,
                                                       name):
    # the workload's scenario is stubbed: exit 0 shows that argparse took
    # its argv, `--threads 1` included, and that its config validated
    cfg = tmp_path / "workload.cfg"
    cfg.write_text(WORKLOADS.config_text(name, WORKLOADS.DEFAULT_SEED))
    argv = WORKLOADS.cli_args(name, str(cfg), str(tmp_path / "out"))
    seen = []

    def stub(run_cfg, outdir):
        seen.append(run_cfg)
        return 0, {"status": "stub"}, []

    monkeypatch.setitem(cli._SCENARIOS, argv[0], stub)
    assert cli.run(argv) == 0
    assert len(seen) == 1


def _files(out):
    return {str(path.relative_to(out)): path.read_bytes()
            for path in out.rglob("*") if path.is_file()}


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_a_benchmark_workload_passes_its_output_checks(tmp_path, name):
    # the benchmark's correctness gate at its default seed, the outputs
    # compared with bench/reference_seed7.json at its tolerances; then a
    # second run in this process, with cli.run's heap settings in effect,
    # writes the same bytes (the benchmark compares fresh processes only)
    seed = WORKLOADS.DEFAULT_SEED
    cfg = tmp_path / "workload.cfg"
    cfg.write_text(WORKLOADS.config_text(name, seed))
    out = tmp_path / "out"
    code = cli.run(WORKLOADS.cli_args(name, str(cfg), str(out)))
    checks = CHECKS.output_checks(name, seed, str(out), code)
    assert len(checks) > 1
    assert [(check, detail) for check, ok, detail in checks if not ok] == []
    again = tmp_path / "again"
    assert cli.run(WORKLOADS.cli_args(name, str(cfg), str(again))) == code
    first = _files(out)
    assert len(first) > 1
    assert _files(again) == first


def test_the_head_read_changes_no_byte_of_the_profile_run(tmp_path,
                                                          monkeypatch):
    # the benchmark's J = 4096 energy-profile run at its default seed: 480
    # mesh batches and 16 lateral-cone point batches take the head read;
    # with no head read every point reads per point, to the same bytes
    cfg = tmp_path / "workload.cfg"
    cfg.write_text(WORKLOADS.profile_config(WORKLOADS.DEFAULT_SEED))
    shapes = []
    inner = DiscreteField.jet

    def recording(self, t, r):
        out = inner(self, t, r)
        shapes.append((np.shape(t), np.shape(r), np.shape(out[0])))
        return out

    monkeypatch.setattr(DiscreteField, "jet", recording)
    head = tmp_path / "head"
    code = cli.run(WORKLOADS.cli_args("profile_j4096", str(cfg), str(head)))
    assert any(out == t != r for t, r, out in shapes)
    monkeypatch.setattr(DiscreteField, "_head_reach", None)
    shapes.clear()
    general = tmp_path / "general"
    assert cli.run(WORKLOADS.cli_args("profile_j4096", str(cfg),
                                      str(general))) == code == 0
    assert all(out == np.broadcast_shapes(t, r) for t, r, out in shapes)
    assert len(_files(head)) > 1
    assert _files(general) == _files(head)
