"""The test configuration itself: a failing test is reported as a failure
and the session goes on, whatever plugin reports it. And the benchmark's
command lines: each workload's argv and config still parse and validate,
and its seed-7 outputs pass the benchmark's own output checks."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

from conewave import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def _load_bench(name):
    """bench/<name>.py, loaded by path and only read."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_checks():
    """bench/checks.py, which imports `workloads` by its bare name (the
    benchmark runs with bench/ on the path): that name is bound to the
    loaded workloads only while checks.py loads."""
    saved = sys.modules.get("workloads")
    sys.modules["workloads"] = WORKLOADS
    try:
        return _load_bench("checks")
    finally:
        if saved is None:
            del sys.modules["workloads"]
        else:
            sys.modules["workloads"] = saved


WORKLOADS = _load_bench("workloads")
CHECKS = _load_checks()

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
