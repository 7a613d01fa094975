import ctypes
import dataclasses
import importlib
import math
import os
import pkgutil
import platform
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import conewave
from conewave import cli
from conewave.cli import ConfigError, parse_config, run
from conewave.fields import DiscreteField
from conewave.quadrature import NonFiniteSample, QuadratureSpec
from tests_helpers import one_at_a_time


def write_config(path, text):
    path.write_text(text)
    return str(path)


BASE = """
[problem]
n = 3
p = 2.0
potential = constant
c0 = 1.0

[grid]
R = 6.0
J = 256
cfl = 0.9
t0 = -1.0
t_end = -0.1
snapshot_times = -0.8 -0.5 -0.3

[data]
kind = gaussian
amplitude = 0.0
width = 0.5

[diagnostics]
sigma0 = 0.25
sigma1 = 0.5
sigma = 0.5
gamma = 1.2
eta = 2.0

[verify]
cases = 12
seed = 7

[output]
directory = out
"""


DECAY = """
[problem]
n = 3
p = 2.0

[grid]
R = 40.0
J = 384
cfl = 0.9
t0 = 1.0
t_end = 17.0
snapshot_times = {times}

[data]
kind = gaussian
amplitude = 0.02
width = 0.5

[diagnostics]
sigma = 0.5
horizons = 2 4 8 16

[verify]
strict = true

[output]
directory = out
""".format(times=" ".join(f"{t:g}" for t in np.linspace(1.0, 17.0, 33)))

# (section, key, text in BASE, replacement) for one NaN per kind of float key
NAN_VALUES = [
    ("diagnostics", "gamma", "gamma = 1.2", "gamma = nan"),
    ("diagnostics", "eta", "eta = 2.0", "eta = nan"),
    ("diagnostics", "t_star", "sigma0 = 0.25", "sigma0 = 0.25\nt_star = nan -0.5"),
    ("problem", "p", "p = 2.0", "p = NaN"),
    ("grid", "snapshot_times", "-0.8 -0.5 -0.3", "-0.8 nan -0.3"),
]


def _readme_config():
    """The README's blow-up config: the indented block after "A blow-up
    run:", read from README.md itself."""
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as handle:
        block = re.search(r"A blow-up run:\n\n((?: {4}.*\n|\n)+)",
                          handle.read()).group(1)
    return "".join(line[4:] + "\n" for line in block.splitlines())


README_CONFIG = _readme_config()


class TestConfigParsing:
    def test_parses_base(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "c.cfg", BASE))
        assert cfg.n == 3 and cfg.J == 256
        assert cfg.snapshot_times == (-0.8, -0.5, -0.3)

    def test_unknown_key_rejected(self, tmp_path):
        bad = BASE + "\n[grid]\n"
        bad = BASE.replace("J = 256", "J = 256\nbogus = 1")
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(write_config(tmp_path / "c.cfg", bad))

    def test_unknown_section_rejected(self, tmp_path):
        bad = BASE + "\n[mystery]\nkey = 1\n"
        with pytest.raises(ConfigError, match="mystery"):
            parse_config(write_config(tmp_path / "c.cfg", bad))

    def test_sigma_ordering_enforced(self, tmp_path):
        bad = BASE.replace("sigma0 = 0.25", "sigma0 = 0.7")
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path / "c.cfg", bad))
        assert str(err.value) == ("[diagnostics] sigma0, [diagnostics] sigma1: "
                                  "need 0 < sigma0 < sigma1 < 1")

    def test_causal_buffer_enforced(self, tmp_path, capsys):
        # the run's levels refuse a read their wall has reached, after the
        # run; before, parse_config refused R = 1 for every scenario, and
        # simulate, which reads no run cell, too
        cfg = write_config(tmp_path / "c.cfg", BASE.replace("R = 6.0", "R = 1.0"))
        parse_config(cfg)
        assert run(["rate-fit", "--config", cfg, "--out",
                    str(tmp_path / "r")]) == 2
        assert re.fullmatch(
            r"error: radius 0\.29\d* at time -0\.79\d* is past the levels' "
            r"wall limit \(r > 0\.289062\)\n",
            capsys.readouterr().err)
        assert run(["simulate", "--config", cfg, "--out",
                    str(tmp_path / "s")]) == 0

    @pytest.mark.parametrize("text,error", [
        ("[grid]\nJ = 64\nJ = 128\n",
         "option 'J' in section 'grid' already exists"),
        ("[grid]\nJ = 64\n[grid]\nR = 4.0\n",
         "section 'grid' already exists"),
        ("J = 64\n", "File contains no section headers"),
        ("[grid]\nJ 64 oops\n", "Source contains parsing errors"),
        (b"[grid]\nJ = 6\xff4\n", "can't decode byte 0xff"),
    ], ids=["duplicate-option", "duplicate-section", "no-section-header",
            "no-delimiter", "not-utf-8"])
    def test_a_file_configparser_rejects_exit_2(self, tmp_path, capsys, text,
                                                error):
        # before, exit 1 with configparser's or the codec's traceback
        path = tmp_path / "c.cfg"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        assert run(["simulate", "--config", str(path), "--out",
                    str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {str(path)!r}: "), err
        assert error in err
        assert "Traceback" not in err

    def test_snapshot_log_generator(self, tmp_path):
        text = BASE.replace("snapshot_times = -0.8 -0.5 -0.3",
                            "snapshot_log = 0.1 1.0 8")
        cfg = parse_config(write_config(tmp_path / "c.cfg", text))
        assert len(cfg.snapshot_times) >= 8
        assert all(t < 0 for t in cfg.snapshot_times)

    def test_snapshot_times_and_snapshot_log_together_exit_2(self, tmp_path,
                                                             capsys):
        # before: exit 0, snapshot_log's times silently replacing
        # snapshot_times' (levels at -1, -0.316 and -0.0994 only)
        text = BASE.replace("snapshot_times = -0.8 -0.5 -0.3",
                            "snapshot_times = -0.9 -0.5\n"
                            "snapshot_log = 0.1 1.0 2")
        cfg = write_config(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: [grid] set snapshot_times or snapshot_log, not both"]
        assert not out.exists()

    def test_snapshot_times_outside_the_run_rejected(self, tmp_path, capsys):
        # a run drops such times: simulate would exit 0 with one snapshot
        text = BASE.replace("t_end = -0.1", "t_end = 0.0").replace(
            "snapshot_times = -0.8 -0.5 -0.3", "snapshot_times = -1.5 -0.5 0.7")
        cfg = write_config(tmp_path / "c.cfg", text)
        with pytest.raises(ConfigError, match=r"snapshot time -1\.5 outside"):
            parse_config(cfg)
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert ("error: [grid] t0, [grid] t_end, [grid] snapshot_times: "
                "snapshot time -1.5 outside") in capsys.readouterr().err
        assert not (out / "run.csv").exists()
        late = write_config(tmp_path / "late.cfg",
                            text.replace("-1.5 -0.5 0.7", "-0.5 0.7"))
        with pytest.raises(ConfigError, match=r"snapshot time 0\.7 outside"):
            parse_config(late)

    def test_snapshot_times_on_the_ends_accepted(self, tmp_path):
        # snapshot_log endpoints land on t0 up to rounding; a relative
        # 1e-9 slack at either end is accepted
        text = BASE.replace("t_end = -0.1", "t_end = 0.0").replace(
            "snapshot_times = -0.8 -0.5 -0.3", "snapshot_log = 0.04 1.0 16")
        cfg = parse_config(write_config(tmp_path / "log.cfg", text))
        assert min(cfg.snapshot_times) == -1.0
        text = BASE.replace("-0.8 -0.5 -0.3", "-1.0000000005 -0.5 -0.0999999999")
        parse_config(write_config(tmp_path / "ends.cfg", text))

    def test_sweep_cells_check_snapshot_times(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "c.cfg", BASE))
        cfg.snapshot_times = (-0.5, 0.25)
        with pytest.raises(ConfigError, match="snapshot time 0.25"):
            cli._apply_cell(cfg, {"J": 128.0})

    @pytest.mark.parametrize("value,strict", [("true", True), ("TRUE", True),
                                              ("False", False), ("false", False)])
    def test_strict_accepts_true_and_false_in_any_case(self, tmp_path, value,
                                                       strict):
        text = BASE.replace("seed = 7", f"seed = 7\nstrict = {value}")
        assert parse_config(write_config(tmp_path / "c.cfg", text)).strict is strict

    @pytest.mark.parametrize("value", ["yes", "ture", "1", "on"])
    def test_strict_rejects_anything_else(self, tmp_path, capsys, value):
        text = BASE.replace("seed = 7", f"seed = 7\nstrict = {value}")
        cfg = write_config(tmp_path / "c.cfg", text)
        assert run(["simulate", "--config", cfg, "--out",
                    str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"strict must be true or false, got '{value}'" in err

    def test_missing_file_is_config_error(self, tmp_path):
        assert run(["simulate", "--config", str(tmp_path / "absent.cfg")]) == 2

    @pytest.mark.parametrize("section,key,old,new", NAN_VALUES)
    def test_nan_is_rejected_naming_the_key(self, tmp_path, section, key,
                                            old, new):
        # NaN fails every comparison, so no range check in _validate sees it
        text = BASE.replace(old, new)
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key} must not be nan"):
            parse_config(write_config(tmp_path / "c.cfg", text))

    def test_nan_in_a_sweep_grid_is_rejected(self, tmp_path):
        text = BASE + "\n[sweep]\nscenario = simulate\nJ = 64 nan\n"
        with pytest.raises(ConfigError, match=r"\[sweep\] J must not be nan"):
            parse_config(write_config(tmp_path / "c.cfg", text))

    def test_infinite_values_keep_their_meaning(self, tmp_path):
        text = BASE.replace("potential = constant", "potential = perturbed\n"
                            "pot_eps = 0.1\npot_alpha = inf")
        cfg = parse_config(write_config(tmp_path / "c.cfg", text))
        assert cfg.pot_alpha == math.inf

    @pytest.mark.parametrize("source", ["ode", "run"])
    @pytest.mark.parametrize("section,key,old,new", NAN_VALUES[:3])
    def test_nan_diagnostics_exit_2_before_the_quadrature(
            self, tmp_path, capsys, source, section, key, old, new):
        # before, exit 3 (non-finite integrand sample) on the ODE field and
        # an uncaught IndexError from DiscreteField's level search on a run
        t_star = "" if key == "t_star" else "\nt_star = -0.5 -0.25"
        text = BASE.replace("kind = gaussian\namplitude = 0.0\nwidth = 0.5",
                            "kind = truncated_ode\nM = 2.0\nw = 0.25")
        text = text.replace("sigma = 0.5",
                            f"sigma = 0.5\nfield_source = {source}{t_star}")
        text = text.replace("snapshot_times = -0.8 -0.5 -0.3",
                            "snapshot_log = 0.1 1.0 16")
        cfg = write_config(tmp_path / "c.cfg", text.replace(old, new))
        assert run(["verify-localized", "--config", cfg, "--out",
                    str(tmp_path / "out")]) == 2
        assert f"error: [{section}] {key} must not be nan" in capsys.readouterr().err

    @pytest.mark.parametrize("precision", ["-1", "0"])
    def test_precision_below_1_exit_2_before_any_scenario(self, tmp_path,
                                                          capsys, precision):
        text = BASE.replace("directory = out",
                            f"directory = out\nprecision = {precision}")
        cfg = write_config(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        assert run(["verify-carleman", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: [output] precision must be at least 1" in err
        assert not (out / "summary").exists()


def _no_solver_run(*args, **kwargs):
    raise AssertionError("the solver ran before validation")


class TestValidationBeforeAnyRun:
    """Bad values exit 2 naming the key, before the solver runs."""

    def test_strict_decay_needs_two_horizons(self, tmp_path, capsys,
                                             monkeypatch):
        # before: an uncaught IndexError (exit 1) after the whole run
        monkeypatch.setattr(cli, "evolve", _no_solver_run)
        text = DECAY.replace("horizons = 2 4 8 16", "horizons = 4")
        cfg = write_config(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        assert run(["decay", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: [verify] strict = true needs at least two " \
            "[diagnostics] horizons" in err
        assert not (out / "decay.csv").exists()
        assert parse_config(write_config(
            tmp_path / "d.cfg", text.replace("horizons = 4",
                                             "horizons = 4 8"))).strict
        assert not parse_config(write_config(
            tmp_path / "e.cfg", text.replace("strict = true",
                                             "strict = false"))).strict

    @pytest.mark.parametrize("t_star", ["-0.5", "-0.05 -0.5"])
    def test_pot_alpha_is_checked_at_every_t_star(self, tmp_path, capsys,
                                                  monkeypatch, t_star):
        # |eps| |t*| = 0.1 > alpha = 0.01 at t* = -0.5; before, exit 0
        monkeypatch.setattr(cli, "evolve", _no_solver_run)
        text = BASE.replace("potential = constant", "potential = perturbed\n"
                            "pot_eps = 0.2\npot_alpha = 0.01")
        text = text.replace("sigma0 = 0.25", "sigma0 = 0.25\n"
                            f"field_source = ode\nt_star = {t_star}")
        cfg = write_config(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        assert run(["energy-profile", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: [problem] pot_alpha too small for t_star = -0.5: " \
            "|grad V| t* = 0.1 exceeds alpha = 0.01" in err
        assert not (out / "profile.csv").exists()
        for alpha in ("0.1", "inf"):
            ok = text.replace("pot_alpha = 0.01", f"pot_alpha = {alpha}")
            parse_config(write_config(tmp_path / "ok.cfg", ok))

    @pytest.mark.parametrize("scenario,name", [("energy-profile", "profile.csv"),
                                               ("rate-fit", "rates.csv")])
    def test_pot_alpha_is_checked_at_the_fallback_snapshot_times(
            self, tmp_path, capsys, monkeypatch, scenario, name):
        # no t_star: the diagnostic times are the negative snapshot times,
        # and |eps| |t| = 0.16 > alpha = 0.01 at t = -0.8; before, exit 0
        monkeypatch.setattr(cli, "evolve", _no_solver_run)
        text = BASE.replace("potential = constant", "potential = perturbed\n"
                            "pot_eps = 0.2\npot_alpha = 0.01")
        text = text.replace("sigma0 = 0.25", "sigma0 = 0.25\nfield_source = run")
        cfg = write_config(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        assert run([scenario, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: [problem] pot_alpha too small for snapshot time = " \
            "-0.8: |grad V| t* = 0.16 exceeds alpha = 0.01" in err
        assert not (out / name).exists()

    def test_pot_alpha_names_a_snapshot_log_time_as_a_float(
            self, tmp_path, capsys, monkeypatch):
        # the snapshot_log times are numpy floats; before, the message read
        # `snapshot time = np.float64(-1.0)`
        monkeypatch.setattr(cli, "evolve", _no_solver_run)
        text = BASE.replace("potential = constant", "potential = perturbed\n"
                            "pot_eps = 0.2\npot_alpha = 0.01")
        text = text.replace("snapshot_times = -0.8 -0.5 -0.3",
                            "snapshot_log = 0.1 1.0 8")
        _run_exit_2(tmp_path, capsys, "energy-profile", text,
                    "[problem] pot_alpha too small for snapshot time = -1.0: "
                    "|grad V| t* = 0.2 exceeds alpha = 0.01")

    def test_snapshot_times_do_not_bind_simulate(self, tmp_path):
        # simulate has no diagnostic times: the same config still runs
        text = BASE.replace("potential = constant", "potential = perturbed\n"
                            "pot_eps = 0.2\npot_alpha = 0.01")
        cfg = write_config(tmp_path / "c.cfg", text.replace("J = 256", "J = 32"))
        assert run(["simulate", "--config", cfg, "--out",
                    str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("value", ["Ode", "RUN", "file", ""])
    def test_field_source_is_run_or_ode(self, tmp_path, capsys, monkeypatch,
                                        value):
        # before, `Ode` ran the solver and exited 0 with a profile.csv
        monkeypatch.setattr(cli, "evolve", _no_solver_run)
        text = BASE.replace("sigma0 = 0.25", "sigma0 = 0.25\n"
                            f"field_source = {value}\nt_star = -0.5")
        cfg = write_config(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        assert run(["energy-profile", "--config", cfg, "--out", str(out)]) == 2
        assert ("error: [diagnostics] field_source must be run or ode, got "
                f"{value!r}") in capsys.readouterr().err
        assert not (out / "profile.csv").exists()

    @pytest.mark.parametrize("problem,key", [
        ("potential = perturbed\npot_eps = 0.2", "potential"),
        ("potential = constant\nc0 = 2.0", "c0"),
    ], ids=["bump", "c0"])
    @pytest.mark.parametrize("scenario", ["energy-profile", "verify-localized",
                                          "rate-fit", "decay"])
    def test_ode_field_needs_the_unit_potential(self, tmp_path, capsys,
                                                scenario, problem, key):
        # the ODE profile solves the V = 1 equation; before, pot_eps = 0.2
        # gave the profile.csv of V = 1, byte for byte, and exit 0
        text = BASE.replace("potential = constant\nc0 = 1.0", problem)
        text = text.replace("sigma0 = 0.25", "sigma0 = 0.25\nfield_source = ode"
                            "\nt_star = -0.5 -0.4 -0.3")
        cfg = write_config(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        assert run([scenario, "--config", cfg, "--out", str(out)]) == 2
        assert f"error: [problem] {key} must be " in capsys.readouterr().err
        assert os.listdir(out) == []
        ok = write_config(tmp_path / "ok.cfg", BASE.replace(
            "sigma0 = 0.25", "sigma0 = 0.25\nfield_source = ode\n"
            "t_star = -0.5 -0.4 -0.3"))
        # decay reads the field on t >= 1, where the profile is not defined
        assert run([scenario, "--config", ok, "--out", str(tmp_path / "ok")
                    ]) == (2 if scenario == "decay" else 0)

    @pytest.mark.parametrize("scenario", ["energy-profile", "verify-localized",
                                          "rate-fit", "decay"])
    def test_ode_field_takes_a_zero_bump(self, tmp_path, capsys, scenario):
        # perturbed with pot_eps = 0 is V = 1; before, it exited 2 naming
        # [problem] potential
        diag = ("sigma0 = 0.25", "sigma0 = 0.25\nfield_source = ode\n"
                "t_star = -0.5 -0.4 -0.3")
        outcomes = []
        for name, problem in [("zero", "potential = perturbed\npot_eps = 0.0"),
                              ("constant", "potential = constant")]:
            text = BASE.replace("potential = constant", problem)
            cfg = write_config(tmp_path / f"{name}.cfg", text.replace(*diag))
            out = tmp_path / name
            code = run([scenario, "--config", cfg, "--out", str(out)])
            files = {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}
            outcomes.append((code, capsys.readouterr().err, files))
        assert outcomes[0] == outcomes[1]
        # decay reads the field on t >= 1, where the profile is not defined
        assert outcomes[0][0] == (2 if scenario == "decay" else 0)

    @pytest.mark.parametrize("scenario,text", [
        ("decay", DECAY.replace("sigma = 0.5", "sigma = 0.5\nfield_source = ode")),
        ("decay", DECAY.replace("p = 2.0", "p = 1.8").replace(
            "sigma = 0.5", "sigma = 0.5\nfield_source = ode")),
        ("verify-localized", BASE.replace(
            "sigma0 = 0.25", "sigma0 = 0.25\nfield_source = ode\n"
            "t_star = -0.5 0.25")),
    ], ids=["decay-p2", "decay-p1.8", "localized-positive-t_star"])
    def test_ode_field_is_not_read_at_positive_times(self, tmp_path, capsys,
                                                     scenario, text):
        # the blow-up profile C (-t)^(-k) lives on t < 0; before, decay wrote
        # C t^-2 with exit 0 at p = 2 and exited 3 on NaN samples at p = 1.8,
        # and verify-localized read the profile at t > 0 with exit 0
        cfg = write_config(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        assert run([scenario, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: [diagnostics] field_source = ode is the blow-up " \
            "profile on t < 0 only" in err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("cases", ["-3", "0"])
    def test_cases_below_1(self, tmp_path, capsys, cases):
        # before: no case ran, and the summary read status=pass, exit 0
        cfg = write_config(tmp_path / "c.cfg",
                           BASE.replace("cases = 12", f"cases = {cases}"))
        out = tmp_path / "out"
        assert run(["verify-carleman", "--config", cfg, "--out", str(out)]) == 2
        assert "error: [verify] cases must be at least 1" in \
            capsys.readouterr().err
        assert not (out / "summary").exists()

    def test_cells_below_4(self, tmp_path, capsys, monkeypatch):
        # before: rejected by QuadratureSpec after the whole solver run,
        # with a message that named no key
        monkeypatch.setattr(cli, "evolve", _no_solver_run)
        text = BASE.replace("sigma0 = 0.25", "sigma0 = 0.25\ncells = 2\n"
                            "field_source = run\nt_star = -0.5")
        cfg = write_config(tmp_path / "c.cfg", text)
        assert run(["energy-profile", "--config", cfg, "--out",
                    str(tmp_path / "out")]) == 2
        assert "error: [diagnostics] cells must be at least 4" in \
            capsys.readouterr().err


TYPED_ROWS = [row for row in cli._KEYS if row.kind in (int, float)]


ODE_DIAG = BASE.replace("sigma0 = 0.25", "sigma0 = 0.25\nfield_source = ode\n"
                        "t_star = -0.5 -0.25 -0.125")

# the blow-up data: phi* cut off past r = M
BLOWUP = BASE.replace("kind = gaussian\namplitude = 0.0\nwidth = 0.5",
                      "kind = truncated_ode\nM = 2.0\nw = 0.25")


def _run_exit_2(tmp_path, capsys, scenario, text, message):
    """Runs `scenario` on `text`; it must exit 2 with `message` on stderr."""
    cfg = write_config(tmp_path / "c.cfg", text)
    out = tmp_path / "out"
    assert run([scenario, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err, err


class TestConfigTable:
    """Every key is read, typed and range-checked from its row of
    cli._KEYS; a bad value exits 2 naming `[section] key`."""

    @pytest.mark.parametrize("row", TYPED_ROWS,
                             ids=[f"{r.section}-{r.key}" for r in TYPED_ROWS])
    def test_a_value_of_the_wrong_type_names_its_key(self, tmp_path, capsys,
                                                     row):
        # before: `invalid literal for int() with base 10: '2.5'`, no key
        value, kind = ("2.5", "an integer") if row.kind is int else \
            ("abc", "a float")
        text = f"[{row.section}]\n{row.key} = {value}\n"
        _run_exit_2(tmp_path, capsys, "simulate", text,
                    f"[{row.section}] {row.key} must be {kind}, "
                    f"got '{value}'")

    # before: simulate on the README config, rate-fit, verify-localized
    # and decay on configs that pass otherwise
    @pytest.mark.parametrize("section,key,value", [
        ("grid", "snapshot_log", "0 1.0 16"),      # a ZeroDivisionError
        ("grid", "snapshot_log", "-0.04 1.0 16"),  # `math domain error`
        ("grid", "snapshot_log", "1.0 0.04 16"),   # exit 0
        ("grid", "snapshot_log", "0.04 1.0 -5"),   # exit 0
        ("diagnostics", "window", "0.5"),          # an IndexError
        ("diagnostics", "window", "0.1 0.6 0.9"),  # 0.9 dropped, exit 0
        ("diagnostics", "ratio_band", "0.99"),     # every run failed, exit 3
        ("diagnostics", "horizons", "4 4 8"),      # `need 0 <= t_lo < t_hi`
        # `max() arg is an empty sequence` in decay, exit 1
        ("diagnostics", "horizons", ""),
        ("diagnostics", "a", "0.1 0.3"),           # ignored, exit 0
        ("grid", "R", "inf"),                      # exit 0 with dt=inf
        ("grid", "snapshot_log", "0.04 inf 16"),   # an OverflowError
        ("grid", "snapshot_log", "0.04 1.0 inf"),  # an OverflowError
        ("diagnostics", "t_star", "-inf"),         # exit 1 in energy-profile
        # with field_source = ode and no [data]: exit 1 in energy-profile,
        # exit 3 in rate-fit on a nan sample at (t=-inf, r=inf)
        ("grid", "snapshot_times", "-inf -0.5 -0.3"),
        ("data", "width", "1e300"),                # an OverflowError
        ("data", "width", "1e-200"),               # nan at r = 0, exit 3
        ("diagnostics", "a", "inf"),               # exit 3 in verify-carleman
        ("diagnostics", "eta", "inf"),             # exit 3, field_source=ode
        # two `RuntimeWarning: invalid value encountered in multiply`, then
        # `non-finite solver value at t=-0.983322, r=0`, exit 3
        ("data", "amplitude", "inf"),
        ("data", "amplitude", "-inf"),
        # exit 0 with finite_speed=skipped on the untruncated ODE data
        ("data", "M", "inf"),
        ("data", "w", "inf"),
        # with potential = perturbed and pot_eps = 0.1: exit 0 with the
        # bytes of potential = constant, the bump silently zero
        ("problem", "pot_center_t", "inf"),
        ("problem", "pot_center_r", "-inf"),
    ])
    def test_an_out_of_range_value_names_its_key(self, tmp_path, capsys,
                                                 section, key, value):
        _run_exit_2(tmp_path, capsys, "simulate",
                    f"[{section}]\n{key} = {value}\n",
                    f"[{section}] {key} must be ")

    # before: energy-profile exited 0 with the constant field 1 (p = inf
    # with n = 1 and the ODE field), or 3 on a non-finite solver value
    @pytest.mark.parametrize("key,text", [
        ("p", ODE_DIAG.replace("n = 3\np = 2.0", "n = 1\np = inf")),
        ("c0", BLOWUP.replace("c0 = 1.0", "c0 = inf")),
        ("pot_width", BLOWUP.replace(
            "potential = constant", "potential = perturbed\npot_width = inf")),
    ], ids=["p", "c0", "pot_width"])
    def test_an_infinite_problem_value_names_its_key(self, tmp_path, capsys,
                                                     key, text):
        _run_exit_2(tmp_path, capsys, "energy-profile", text,
                    f"[problem] {key} must be finite and greater than ")

    @pytest.mark.parametrize("scenario,grid", [
        ("simulate", "J = 256.7"),        # ran J = 256 in cell_J256.7
        ("simulate", "J = 256 256.4"),    # ran J = 256 twice
        ("convergence", "J = 128.5 256 512"),
    ])
    def test_an_int_sweep_key_takes_only_integers(self, tmp_path, capsys,
                                                  scenario, grid):
        text = BASE + f"\n[sweep]\nscenario = {scenario}\n{grid}\n"
        _run_exit_2(tmp_path, capsys, "sweep", text,
                    f"[sweep] J must be a list of integers, got "
                    f"'{grid[4:]}'")
        assert not (tmp_path / "out" / "sweep.csv").exists()

    @pytest.mark.parametrize("data,message", [
        ("kind = file", "[data] kind = file needs [data] path"),  # was exit 4
        ("kind = file\npath = absent.dat",
         "[data] path 'absent.dat': [Errno 2] No such file"),     # was exit 4
        ("kind = file\npath = c.cfg", "[data] path 'c.cfg': bad snapshot"),
    ])
    def test_file_data_is_checked_when_the_config_is_read(
            self, tmp_path, capsys, monkeypatch, data, message):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "evolve", _no_solver_run)
        text = BASE.replace("kind = gaussian\namplitude = 0.0\nwidth = 0.5",
                            data)
        _run_exit_2(tmp_path, capsys, "simulate", text, message)

    @pytest.mark.parametrize("level,message", [
        ("3 2\n0 0 0\n1 0 0", "line 2 must read `n p t`, got '3 2'"),
        ("3 2 -1\n0 0\n1 0", "rows must be `r phi phit`, at least two"),
        ("3 2 -1\n0 0 0\n1 0 0\n0.5 0 0", "radii must be strictly increasing"),
        ("3 2 -1\n0 nan 0\n1 0 0", "holds a non-finite value"),
        ("3 2 -1\n0.5 1e-3 0\n1 0 0", "radii must start at r = 0, got 0.5"),
        ("3 2 -1\n0 1e-3 0\n1 1e-3 0",
         "ends at r = 1.0, short of r = 6.0, on a row other than `r 0 0`"),
    ], ids=["n_p", "two_columns", "unsorted_r", "nan", "late_start",
            "short_end"])
    def test_a_snapshot_that_is_not_a_valid_level_exit_2(
            self, tmp_path, capsys, monkeypatch, level, message):
        # before: an IndexError (exit 1) for the first two, and exit 0 on
        # np.interp of unsorted radii or with max_phi=nan for the others;
        # exit 0 for the last two, np.interp holding the first value on
        # r < 0.5 or the last one (1e-3) out to R
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.dat").write_text(f"# n p t\n{level}\n")
        text = BASE.replace("kind = gaussian\namplitude = 0.0\nwidth = 0.5",
                            "kind = file\npath = s.dat")
        _run_exit_2(tmp_path, capsys, "simulate", text,
                    f"[data] path 's.dat': snapshot {message}")

    def test_a_snapshot_without_rows_is_one_error_line(self, tmp_path, capsys,
                                                       monkeypatch):
        # before: numpy's `UserWarning: loadtxt: input contained no data`
        # on stderr ahead of the error line
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.dat").write_text("# n p t\n3 2 -1\n")
        text = BASE.replace("kind = gaussian\namplitude = 0.0\nwidth = 0.5",
                            "kind = file\npath = s.dat")
        cfg = write_config(tmp_path / "c.cfg", text)
        assert run(["simulate", "--config", cfg, "--out", "out"]) == 2
        assert capsys.readouterr().err == (
            "error: [data] path 's.dat': snapshot rows must be `r phi phit`, "
            "at least two: got 0 rows of 3\n")

    @pytest.mark.parametrize("t0", ["0.5", "0.0"])
    def test_truncated_ode_data_at_t0_ge_0_exit_2(self, tmp_path, capsys,
                                                  monkeypatch, t0):
        # before: `ValueError: phi* is defined for t < 0` from the solver,
        # exit 1 with a traceback
        monkeypatch.setattr(cli, "evolve", _no_solver_run)
        text = BASE.replace("t0 = -1.0", f"t0 = {t0}").replace(
            "t_end = -0.1", "t_end = 1.0").replace(
            "snapshot_times = -0.8 -0.5 -0.3", "snapshot_times = 0.8").replace(
            "kind = gaussian\namplitude = 0.0\nwidth = 0.5",
            "kind = truncated_ode")
        _run_exit_2(tmp_path, capsys, "simulate", text,
                    "[data] kind = truncated_ode: phi* is defined for t < 0")

    def test_a_seed_below_0_names_its_key(self, tmp_path, capsys):
        # before: numpy's `expected non-negative integer`
        _run_exit_2(tmp_path, capsys, "verify-carleman",
                    BASE.replace("seed = 7", "seed = -1"),
                    "[verify] seed must be at least 0, got -1")

    def test_a_window_the_fit_cannot_take_is_a_config_error(self, tmp_path,
                                                            capsys):
        text = ODE_DIAG.replace("eta = 2.0", "eta = 2.0\nwindow = 0.01 0.02")
        _run_exit_2(tmp_path, capsys, "rate-fit", text,
                    "rate-fit: window selects fewer than 3 samples")

    def test_a_fit_through_repeated_times_is_a_config_error(self, tmp_path,
                                                            capsys):
        # before: exit 0 with slope=-2.6016 and a numpy RankWarning
        text = ODE_DIAG.replace("t_star = -0.5 -0.25 -0.125",
                                "t_star = -0.5 -0.5 -0.5")
        _run_exit_2(tmp_path, capsys, "rate-fit", text, "rate-fit: window "
                    "selects fewer than 3 samples at distinct |t|")

    def test_any_other_value_error_is_not_a_config_error(self, tmp_path,
                                                         monkeypatch):
        # a library invariant that a bug trips surfaces with its traceback
        # (exit 1 from the command line); before, it read as exit 2
        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr("conewave.energetics.energy_profile", broken)
        cfg = write_config(tmp_path / "c.cfg", ODE_DIAG)
        with pytest.raises(ValueError, match="could not be broadcast"):
            run(["energy-profile", "--config", cfg, "--out",
                 str(tmp_path / "o")])

    def test_the_readme_lists_every_key_of_the_table(self):
        readme = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "README.md")
        with open(readme, encoding="utf-8") as handle:
            listed = re.findall(r"^\| `\[(\w+)\] (\w+)` \|", handle.read(),
                                re.MULTILINE)
        assert sorted(listed) == sorted(cli._ROWS)
        assert len(listed) == 45

    @pytest.mark.parametrize("scenario", ["simulate", "energy-profile",
                                          "verify-localized", "rate-fit"])
    def test_the_readme_config_runs(self, tmp_path, scenario):
        # the README's own text; it once exited 2 on an inline comment
        cfg = write_config(tmp_path / "c.cfg", README_CONFIG)
        assert run([scenario, "--config", cfg, "--out",
                    str(tmp_path / "o")]) == 0

    def test_the_readme_synopsis_names_every_flag_of_the_parser(self,
                                                                capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        accepted = re.findall(r"--\w+", capsys.readouterr().out)
        readme = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "README.md")
        with open(readme, encoding="utf-8") as handle:
            synopsis = re.findall(r"^    conewave SUBCOMMAND (.*)$",
                                  handle.read(), re.MULTILINE)
        assert len(synopsis) == 1
        # argparse's own --help aside, each flag once in each
        assert sorted(re.findall(r"--\w+", synopsis[0])) == \
            sorted(set(accepted) - {"--help"})


OVERFLOW_AT_P = "the amplitude C of phi* overflows at p = 1.01"


NO_DATA = BASE.replace("[data]\nkind = gaussian\namplitude = 0.0\n"
                       "width = 0.5\n", "")
NO_SNAPSHOTS = BASE.replace("snapshot_times = -0.8 -0.5 -0.3\n", "")
T_STAR = ("sigma0 = 0.25", "sigma0 = 0.25\nt_star = {}")
TINY_T_STAR = ("[diagnostics] t_star, [diagnostics] gamma: the slab window "
               "|t_star|/gamma < |t| < gamma |t_star| rounds to one time at "
               "{}")


@pytest.mark.parametrize("scenario,text,message", [
    ("simulate", BASE.replace("eta = 2.0", "eta = 1.1"),
     "[diagnostics] gamma, [diagnostics] eta: need eta > gamma"),
    ("simulate", BASE.replace("t_end = -0.1", "t_end = -1.0"),
     "[grid] t0, [grid] t_end: need t0 < t_end"),
    ("simulate", NO_DATA, "simulate requires a [data] section"),
    ("energy-profile", NO_DATA.replace(T_STAR[0], T_STAR[1].format(-0.5)),
     "field_source=run requires a [data] section"),
    ("energy-profile",
     NO_SNAPSHOTS.replace(T_STAR[0], T_STAR[1].format(-0.5)),
     "run recorded no snapshots; set snapshot_times"),
    ("verify-localized", BASE, "verify-localized needs diagnostics.t_star"),
    ("energy-profile", BASE.replace(T_STAR[0], T_STAR[1].format(0.5)),
     "energy-profile and rate-fit need negative [diagnostics] t_star"),
    ("energy-profile", NO_SNAPSHOTS, "no diagnostic times available"),
    ("rate-fit", BASE.replace(T_STAR[0], T_STAR[1].format("-0.5 -0.4")),
     "rate fit needs at least 3 diagnostic times"),
    ("sweep", BASE, "sweep requires a [sweep] section with a scenario"),
    ("sweep", BASE + "\n[sweep]\nscenario = simulate\nM = 1 2\n",
     "sweeping M requires truncated_ode data"),
    ("sweep", BASE + "\n[sweep]\nscenario = convergence\nJ = 64 128\n",
     "convergence sweep requires truncated_ode data"),
    # before: exit 1, `need t_lo < t_hi` from the slab, whose window
    # |t*|/gamma < |t| < gamma |t*| rounds to one time
    ("verify-localized", ODE_DIAG.replace("-0.5 -0.25 -0.125", "-5e-324"),
     TINY_T_STAR.format("-5e-324")),
    ("energy-profile", ODE_DIAG.replace("-0.5 -0.25 -0.125", "-1e-323"),
     TINY_T_STAR.format("-1e-323")),
], ids=["eta-gamma", "t0-t_end", "simulate-no-data", "run-field-no-data",
        "no-snapshots-recorded", "localized-no-t_star", "positive-t_star",
        "no-diagnostic-times", "rate-fit-two-times", "no-sweep-section",
        "sweep-M-gaussian", "convergence-gaussian", "localized-tiny-t_star",
        "profile-tiny-t_star"])
def test_a_refusal_across_keys_or_sections_exits_2(tmp_path, capsys,
                                                    scenario, text, message):
    _run_exit_2(tmp_path, capsys, scenario, text, message)


@pytest.mark.parametrize("scenario", ["simulate", "rate-fit"])
@pytest.mark.parametrize("grid,message", [
    ("t0 = -1.0\nt_end = inf", "[grid] t_end must be finite, got inf"),
    ("t0 = -inf\nt_end = -0.1", "[grid] t0 must be finite, got -inf"),
    ("t0 = -1e308\nt_end = 1e308",
     "[grid] t0, [grid] t_end: t_end - t0 must be finite, got inf"),
], ids=["t_end-inf", "t0-inf", "span-overflows"])
def test_a_non_finite_run_span_exits_2(tmp_path, capsys, scenario, grid,
                                       message):
    # before: exit 1, an OverflowError from the solver's step count
    _run_exit_2(tmp_path, capsys, scenario,
                BASE.replace("t0 = -1.0\nt_end = -0.1", grid), message)


@pytest.mark.parametrize("log,shown", [
    ("0.1 1.0 1e300", "0.1 1.0 1e+300"),
    ("1e-300 1e300 1", "1e-300 1e+300 1.0"),
], ids=["count-past-the-limit", "infinite-count"])
def test_a_snapshot_log_past_any_array_size_exits_2(tmp_path, capsys, log,
                                                     shown):
    # before: exit 1, numpy's "Maximum allowed size exceeded" for a count
    # past its limit and an OverflowError for an infinite count; a count
    # numpy accepts would allocate it
    text = BASE.replace("snapshot_times = -0.8 -0.5 -0.3",
                        f"snapshot_log = {log}")
    _run_exit_2(tmp_path, capsys, "simulate", text,
                f"[grid] snapshot_log {shown} asks for too many times")


class TestAmplitudeOverflow:
    """A p whose blow-up amplitude overflows is a config error: exit 2
    naming it, before any run."""

    # before: OverflowError from OdeSolution.amplitude, exit 1 with a
    # traceback, in each scenario, in a convergence sweep, and with
    # field_source = ode and no [data]
    @pytest.mark.parametrize("scenario", ["simulate", "energy-profile",
                                          "verify-localized", "rate-fit"])
    def test_p_near_1_with_truncated_ode_data(self, tmp_path, capsys,
                                              monkeypatch, scenario):
        monkeypatch.setattr(cli, "evolve", _no_solver_run)
        _run_exit_2(tmp_path, capsys, scenario,
                    BLOWUP.replace("p = 2.0", "p = 1.01"),
                    f"[data] kind = truncated_ode: {OVERFLOW_AT_P}")

    def test_p_near_1_in_a_convergence_sweep(self, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.setattr(cli, "evolve", _no_solver_run)
        text = BLOWUP.replace("p = 2.0", "p = 1.01") + \
            "\n[sweep]\nscenario = convergence\nJ = 128 256\n"
        _run_exit_2(tmp_path, capsys, "sweep", text,
                    f"[data] kind = truncated_ode: {OVERFLOW_AT_P}")

    @pytest.mark.parametrize("scenario", ["energy-profile", "verify-localized",
                                          "rate-fit"])
    def test_p_near_1_with_the_ode_field(self, tmp_path, capsys, scenario):
        _run_exit_2(tmp_path, capsys, scenario,
                    "[problem]\np = 1.01\n\n[diagnostics]\n"
                    "field_source = ode\nt_star = -0.5 -0.25 -0.125\n",
                    f"[diagnostics] field_source = ode: {OVERFLOW_AT_P}")
        assert os.listdir(tmp_path / "out") == []

    def test_p_1_015_runs(self, tmp_path):
        text = BLOWUP.replace("p = 2.0", "p = 1.015")
        cfg = write_config(tmp_path / "c.cfg", text)
        assert run(["simulate", "--config", cfg, "--out",
                    str(tmp_path / "out")]) == 0

    def test_huge_p_meets_the_subconformal_check_first(self, tmp_path, capsys,
                                                       monkeypatch):
        # before: the data were evaluated first, and (p - 1)^2 overflowed
        monkeypatch.setattr(cli, "evolve", _no_solver_run)
        _run_exit_2(tmp_path, capsys, "simulate",
                    BLOWUP.replace("p = 2.0", "p = 1e300"),
                    "[problem] n, [problem] p: p outside the subconformal "
                    "range for this n")


class TestSimulate:
    def test_zero_data_completes(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", BASE)
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        summary = (out / "summary").read_text()
        assert "status=completed" in summary
        run_csv = (out / "run.csv").read_text().splitlines()
        assert run_csv[0] == "status,t_b,J,dt,max_phi"
        assert run_csv[1].startswith("completed,nan,256,")
        snaps = sorted(p for p in os.listdir(out) if p.startswith("snap"))
        assert len(snaps) == 3
        body = (out / snaps[0]).read_text().splitlines()
        assert body[0] == "# n p t"
        assert all(float(tok) == 0.0 for tok in body[2].split())

    def test_byte_identical_reruns(self, tmp_path):
        # every output file, the snapshots included, of a run whose data
        # reaches only part of the grid
        text = BASE.replace("kind = gaussian\namplitude = 0.0\nwidth = 0.5",
                            "kind = truncated_ode\nM = 1.0\nw = 0.25")
        text = text.replace("J = 256", "J = 512").replace(
            "snapshot_times = -0.8 -0.5 -0.3", "snapshot_log = 0.1 1.0 8")
        cfg = write_config(tmp_path / "c.cfg", text)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1]))
        snaps = [n for n in names if n.startswith("snap_")]
        assert len(snaps) == 9 and {"run.csv", "summary"} <= set(names)
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        first = (outs[0] / snaps[0]).read_text().splitlines()
        assert first[-1].endswith(" 0 0") and not first[2].endswith(" 0 0")

    def test_file_data_skips_the_finite_speed_check(self, tmp_path):
        # the support of file data is unknown, so the check cannot run;
        # before, the summary said finite_speed=pass
        start = BASE.replace("amplitude = 0.0", "amplitude = 0.01")
        first = tmp_path / "first"
        assert run(["simulate", "--config", write_config(
            tmp_path / "start.cfg", start), "--out", str(first)]) == 0
        snap = first / "snap_0000.dat"
        t0 = snap.read_text().splitlines()[1].split()[2]
        text = start.replace("t0 = -1.0", f"t0 = {t0}").replace(
            "snapshot_times = -0.8 -0.5 -0.3", "snapshot_times = -0.5 -0.3")
        text = text.replace("kind = gaussian", f"kind = file\npath = {snap}")
        cfg = write_config(tmp_path / "file.cfg", text)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert "finite_speed=skipped\n" in (outs[0] / "summary").read_text()
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1]))
        assert {"run.csv", "summary", "snap_0001.dat"} <= set(names)
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("text", [
        BLOWUP.replace("M = 2.0", "M = 5.9"),
        BASE.replace("snapshot_times = -0.8 -0.5 -0.3\n", ""),
    ], ids=["support-past-the-grid", "no-snapshots"])
    def test_finite_speed_is_skipped_when_no_cell_is_checked(self, tmp_path,
                                                             text):
        # the data's support grown at the stencil speed covers the grid at
        # every level (6.15 > R = 6), or no level is stored; before, the
        # summary said finite_speed=pass
        out = tmp_path / "out"
        assert run(["simulate", "--config", write_config(
            tmp_path / "c.cfg", text), "--out", str(out)]) == 0
        assert "finite_speed=skipped\n" in (out / "summary").read_text()

    @pytest.mark.parametrize("c0", ["1.0", "0.7"])
    def test_a_zero_bump_runs_as_the_constant_potential(self, tmp_path, c0):
        # perturbed with pot_eps = 0 is the constant potential c0: every
        # output file, the snapshots included, has its bytes
        files = []
        for name, kind in [("zero", "perturbed\npot_eps = 0.0\n"
                            "pot_center_r = 1.0\npot_width = 0.5"),
                           ("constant", "constant")]:
            text = BLOWUP.replace("potential = constant\nc0 = 1.0",
                                  f"potential = {kind}\nc0 = {c0}")
            out = tmp_path / name
            assert run(["simulate", "--config", write_config(
                tmp_path / f"{name}.cfg", text), "--out", str(out)]) == 0
            files.append({f: (out / f).read_bytes()
                          for f in sorted(os.listdir(out))})
        assert len(files[0]) == 5 and files[0] == files[1]

    def test_the_stored_levels_are_held_once(self, tmp_path):
        # the snapshots are written from the run's own levels; before, a
        # DiscreteField copy of every level doubled the peak
        text = BASE.replace("kind = gaussian\namplitude = 0.0\nwidth = 0.5",
                            "kind = truncated_ode\nM = 2.0\nw = 0.25")
        text = text.replace("J = 256", "J = 2048").replace(
            "t_end = -0.1", "t_end = 0.0").replace(
            "snapshot_times = -0.8 -0.5 -0.3", "snapshot_log = 0.04 1.0 64")
        cfg = write_config(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        levels = len([n for n in os.listdir(out) if n.startswith("snap_")])
        assert levels > 80
        assert peak < 1.5 * 16 * levels * (2048 + 1)

    def test_malformed_config_exit_2(self, tmp_path):
        bad = BASE.replace("gamma = 1.2", "gamma = 0.8")
        cfg = write_config(tmp_path / "c.cfg", bad)
        assert run(["simulate", "--config", cfg, "--out",
                    str(tmp_path / "o")]) == 2

    def test_non_finite_solver_value_exit_3(self, tmp_path, capsys):
        # a threshold out of reach lets the ODE core overflow past t = 0
        text = BASE.replace("kind = gaussian\namplitude = 0.0\nwidth = 0.5",
                            "kind = truncated_ode\nM = 2.0\nw = 0.25")
        text = text.replace("J = 256", "J = 1024")
        text = text.replace("t_end = -0.1", "t_end = 0.5\nphi_max = 1e300")
        cfg = write_config(tmp_path / "c.cfg", text)
        code = run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "error: non-finite solver value" in capsys.readouterr().err

    def test_non_finite_value_at_the_first_step_exit_3(self, tmp_path,
                                                          capsys):
        # the start step overflows; before, it skipped the finiteness test
        # and the run wrote status=blew_up, max_phi=inf with exit 0
        text = BASE.replace("amplitude = 0.0", "amplitude = 1e200")
        text = text.replace("t_end = -0.1", "t_end = -0.5\nphi_max = 1e300")
        text = text.replace("-0.8 -0.5 -0.3", "-0.8")
        cfg = write_config(tmp_path / "c.cfg", text)
        code = run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "error: non-finite solver value at t=-0.9" in \
            capsys.readouterr().err

    def test_non_finite_integrand_exit_3(self, tmp_path, capsys, monkeypatch):
        def bad_profile(*args, **kwargs):
            raise NonFiniteSample(-0.5, 0.25, float("nan"))

        monkeypatch.setattr("conewave.energetics.energy_profile",
                            bad_profile)
        text = BASE.replace("sigma0 = 0.25",
                            "sigma0 = 0.25\nfield_source = ode\nt_star = -0.5")
        cfg = write_config(tmp_path / "c.cfg", text)
        assert run(["energy-profile", "--config", cfg, "--out",
                    str(tmp_path / "o")]) == 3
        assert "error: non-finite integrand sample" in capsys.readouterr().err


OVERFLOW = """
[problem]
n = 3
p = 2.0

[grid]
R = 6.0
J = 1024
t0 = -1.0
t_end = 0.5
phi_max = 1e300

[data]
kind = truncated_ode
M = 2.0
w = 0.25
"""


@pytest.mark.parametrize("old,new", [("M = 2.0", "M = 1e308"),
                                     ("w = 0.25", "w = 1e-310")])
def test_a_ramp_past_the_float_range_runs_without_a_warning(tmp_path, old,
                                                            new):
    # before: two `RuntimeWarning: overflow encountered in divide` from the
    # ramp, errors under the suite's warning filter
    cfg = write_config(tmp_path / "c.cfg", BLOWUP.replace(old, new))
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("n", [400, 200])
def test_radial_weights_past_the_float_range_are_exit_2(tmp_path, capsys, n):
    # before: n = 400 printed five numpy RuntimeWarnings, then exited 3
    # blaming the solver; n = 200 exited 0 with a subnormal first cell volume
    text = BASE.replace("n = 3\np = 2.0", f"n = {n}\np = 1.005").replace(
        "R = 6.0\nJ = 256", "R = 30.0\nJ = 512").replace(
        "amplitude = 0.0", "amplitude = 1e-3")
    _run_exit_2(tmp_path, capsys, "simulate", text,
                "[problem] n, [grid] R, [grid] J: the half-node areas r^(n-1) "
                "or cell volumes")


@pytest.mark.parametrize("R,times,width", [
    ("1e300", "t0 = -1.0\nt_end = -0.1", "1e-150"),
    ("1e-299", "t0 = 0.0\nt_end = 1e-300", "1e-160")], ids=["huge", "tiny"])
def test_an_operator_scale_past_the_float_range_is_exit_2(tmp_path, capsys,
                                                          R, times, width):
    # before: R = 1e300 exited 1 with an OverflowError from the power
    # iteration's dead starting value 4 / dr^2 (after two numpy warnings
    # from the gaussian data), R = 1e-299 with a ZeroDivisionError
    text = BASE.replace("n = 3", "n = 1").replace(
        "R = 6.0\nJ = 256", f"R = {R}\nJ = 64").replace(
        "t0 = -1.0\nt_end = -0.1", times).replace(
        "snapshot_times = -0.8 -0.5 -0.3\n", "").replace(
        "amplitude = 0.0\nwidth = 0.5", f"amplitude = 1e-3\nwidth = {width}")
    cfg = write_config(tmp_path / "c.cfg", text)
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: [problem] n, [grid] R, [grid] J: the half-node areas r^(n-1) "
        "or cell volumes of the radial grid, or the square of its operator "
        "scale 1/dr^2, leave the normal float range"]


def test_a_step_count_past_the_float_range_is_exit_2(tmp_path, capsys):
    # before: exit 1, `OverflowError: cannot convert float infinity to
    # integer` from the solver's step count
    cfg = write_config(tmp_path / "c.cfg",
                       "[problem]\nn = 1\n\n[grid]\nR = 8e-70\nJ = 8\n"
                       "t0 = -1e300\nt_end = 0\n\n[data]\nkind = gaussian\n"
                       "width = 1e-70\n")
    out = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: [problem] n, [grid] R, [grid] J, [grid] cfl, [grid] t0, "
        "[grid] t_end: t_end - t0 = 1e+300 spans inf steps of dt, more than a "
        "float counts"]
    assert not out.exists()


@pytest.mark.parametrize("scenario,text,keys", [
    # dt is cfl min(dr, 2/sqrt(lam)), so the count reads the span and all
    # of n, R, J and cfl; before, the line named n, R and J only
    ("simulate", BASE.replace("n = 3", "n = 1").replace(
        "R = 6.0", "R = 8e-70").replace("t0 = -1.0", "t0 = -1e300").replace(
        "snapshot_times = -0.8 -0.5 -0.3\n", ""),
     ["[problem] n", "[grid] R", "[grid] J", "[grid] cfl", "[grid] t0",
      "[grid] t_end"]),
    ("simulate", BASE.replace("n = 3\np = 2.0", "n = 200\np = 1.005").replace(
        "R = 6.0\nJ = 256", "R = 30.0\nJ = 512"),
     ["[problem] n", "[grid] R", "[grid] J"]),
    ("simulate", BASE.replace("potential = constant\nc0 = 1.0",
                              "potential = perturbed\nc0 = 0.5\npot_eps = 1.0"),
     ["[problem] c0", "[problem] pot_eps", "[problem] pot_width"]),
    ("sweep", BASE + "\n[sweep]\nscenario = simulate\nJ = 4 64\n",
     ["[sweep] J"]),
], ids=["step-count", "float-range", "positivity", "sweep-cell"])
def test_a_refusal_names_every_key_its_check_read(tmp_path, capsys,
                                                  monkeypatch, scenario, text,
                                                  keys):
    monkeypatch.setattr(cli, "evolve", _no_solver_run)
    cfg = write_config(tmp_path / "c.cfg", text)
    out = tmp_path / "out"
    assert run([scenario, "--config", cfg, "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    named = re.match(r"error: ((?:\[\w+\] \w+(?:, |: | must be ))+)", line)
    assert named is not None, line
    assert re.findall(r"\[\w+\] \w+", named.group(1)) == keys, line
    assert not out.exists() or os.listdir(out) == []  # no cell has run


def test_a_key_a_library_object_reads_has_its_range_there_alone(tmp_path):
    # each key that SolverConfig, PotentialSpec or QuadratureSpec reads at
    # parse time is checked by that constructor alone, its row naming the
    # arguments it sets; a range in the table too would be a second copy
    cfg = parse_config(write_config(tmp_path / "c.cfg", BASE.replace(
        "potential = constant", "potential = perturbed\npot_eps = 0.1\n"
        "pot_center_t = -0.5\npot_center_r = 0.25\npot_width = 0.75").replace(
        "sigma0 = 0.25", "sigma0 = 0.25\ncells = 12")))
    objects = (cfg.solver, cfg.potential, cfg.quadrature)
    read = {f.name for obj in objects for f in dataclasses.fields(obj)}
    set_by = {}
    for row in cli._KEYS:
        for arg in row.args:
            name, _, index = arg.partition("[")
            [value] = [getattr(obj, name) for obj in objects
                       if name in {f.name for f in dataclasses.fields(obj)}]
            if index:
                value = value[int(index[:-1])]
            assert value == getattr(cfg, row.attr or row.key), arg
            set_by[name] = row.key
    assert read - set(set_by) == {"potential", "record_energy",
                                  "grading_exponent"}
    assert [row.key for row in cli._KEYS if row.args and row.ok] == []


BALL = """
[problem]
n = 3
p = 2.0

[grid]
R = 0.86
J = 440
t0 = -1.0
t_end = -0.5
snapshot_times = -1.0 -0.95 -0.9 -0.85 -0.8 -0.75 -0.7 -0.65 -0.6 -0.55 -0.5

[data]
kind = truncated_ode
M = 2.0
w = 0.25

[diagnostics]
sigma0 = 0.05
sigma1 = 0.1
sigma = 0.1
gamma = 1.2
eta = 1.5
t_star = -0.79 -0.7 -0.6

[output]
directory = out
"""


@pytest.mark.parametrize("t_star,refused", [
    ("-0.79 -0.7 -0.6", "radius 0.506730278256873 at time -0.79 is past the "
     "levels' wall limit (r > 0.504273)"),
    ("-0.92 -0.7 -0.6", "radius 0.7242829400797339 at time -0.92 is past the "
     "levels' wall limit (r > 0.715364)")],
    ids=["-0.79 -0.7 -0.6", "-0.92 -0.7 -0.6"])
def test_the_causal_buffer_covers_the_ball(tmp_path, capsys, t_star, refused):
    # rate-fit integrates over B(0, |t|) at each t*; a parse-time buffer that
    # covered only the cones let the first config exit 0 with slope 0.604
    # read from cells the wall had reached (0.0112 at R = 3, J = 1536), and
    # the second exit 1 with "radius outside the stored grid"
    cfg = write_config(tmp_path / "c.cfg",
                       BALL.replace("-0.79 -0.7 -0.6", t_star))
    assert run(["rate-fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {refused}"]


def test_a_wall_past_the_axis_is_named_so(tmp_path, capsys):
    # 599 steps of J = 256: a level of step k > J - 2 has the wall limit
    # (J - k - 2) dr < 0, which no radius passes; before, the refusal read
    # "is past the levels' wall limit (r > -0.133594)"
    text = (README_CONFIG.replace("R = 6.0", "R = 0.6")
            .replace("J = 2048", "J = 256")
            .replace("t_star = -0.5 -0.25 -0.125", "t_star = -0.5"))
    cfg = write_config(tmp_path / "c.cfg", text)
    assert run(["energy-profile", "--config", cfg,
                "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: radius 0.12555032517032602 at time -0.5 is past the levels' "
        "wall, which has reached the axis by that time"]


def test_overflow_prints_only_the_error_line(tmp_path):
    # the ODE core overflows past t = 0 before reaching the threshold; the
    # solver's finiteness test reports it, with no numpy warning before it
    src = os.path.dirname(os.path.dirname(os.path.abspath(conewave.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    cfg = write_config(tmp_path / "c.cfg", OVERFLOW)
    proc = subprocess.run(
        [sys.executable, "-m", "conewave.cli", "simulate", "--config", cfg,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: non-finite solver value at t=")


def test_a_non_finite_integrand_prints_only_the_error_line(tmp_path):
    # the ODE profile overflows at t* = -1e-320; quadrature reports it, and
    # before, four numpy RuntimeWarnings came first
    src = os.path.dirname(os.path.dirname(os.path.abspath(conewave.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    cfg = write_config(tmp_path / "c.cfg", ODE_DIAG.replace(
        "t_star = -0.5 -0.25 -0.125", "t_star = -1e-320"))
    proc = subprocess.run(
        [sys.executable, "-m", "conewave.cli", "energy-profile", "--config",
         cfg, "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: non-finite integrand sample inf at ")


@pytest.mark.parametrize("scenario", ["energy-profile", "verify-localized"])
def test_a_weight_past_the_float_range_prints_only_the_error_line(tmp_path,
                                                                  scenario):
    # at t* = -1e300 the measure r^(n-1) overflows to inf where the ODE
    # profile underflows to 0; before, inf * 0 gave a nan total: a numpy
    # RuntimeWarning, then a ValueError `error estimate must be >= 0, got
    # nan`, exit 1
    src = os.path.dirname(os.path.dirname(os.path.abspath(conewave.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    cfg = write_config(tmp_path / "c.cfg", ODE_DIAG.replace(
        "t_star = -0.5 -0.25 -0.125", "t_star = -1e300"))
    proc = subprocess.run(
        [sys.executable, "-m", "conewave.cli", scenario, "--config", cfg,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: non-finite quadrature weight inf at ")


def test_simulate_loads_only_what_it_runs(tmp_path):
    # the package root re-exports nothing, the Carleman verifier, the
    # energetics layer and the region geometry load only where a scenario
    # runs them, and no run loads a thread pool
    src = os.path.dirname(os.path.dirname(os.path.abspath(conewave.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    cfg = write_config(tmp_path / "c.cfg", BASE.replace("J = 256", "J = 32"))
    code = ("import sys\nimport conewave.cli as cli\n"
            "cli.parse_config(sys.argv[1])\nprint(*sorted(sys.modules))\n"
            "assert cli.run(['simulate', '--config', sys.argv[1]]) == 0\n"
            "print(*sorted(sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code, cfg], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    parsed, simulated = (set(line.split()) for line in proc.stdout.splitlines())
    assert "conewave.solver" in parsed and "conewave.fields" in parsed
    unused = {"conewave.carleman", "conewave.energetics", "conewave.geometry",
              "concurrent.futures"}
    assert parsed & unused == simulated & unused == set()


def test_module_entry_point_runs(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(conewave.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "conewave.cli", "simulate", "--config",
         str(tmp_path / "absent.cfg")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 2
    assert "error:" in proc.stderr


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="measures glibc's heap trimming")
def test_a_second_run_faults_few_pages_in(tmp_path):
    # glibc gave the free top of its heap back to the kernel after each
    # quadrature block, and the next block faulted the pages back in: about
    # 7,000 minor faults on this second run. A fresh interpreter, because a run
    # earlier in this process has set the thresholds already.
    src = os.path.dirname(os.path.dirname(os.path.abspath(conewave.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    cfg = write_config(tmp_path / "c.cfg", "[verify]\ncases = 40\nseed = 7\n")
    code = ("import resource, sys\nimport conewave.cli as cli\n"
            "argv = ['verify-carleman', '--config', sys.argv[1], '--out', 'o']\n"
            "assert cli.run(argv) == 0\n"
            "faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "assert cli.run(argv) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)\n")
    proc = subprocess.run([sys.executable, "-c", code, cfg], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 500


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_no_c_library, lambda name: object()],
                         ids=["no-library", "no-mallopt"])
def test_a_c_library_without_mallopt_changes_no_output(tmp_path, monkeypatch,
                                                       cdll):
    cfg = write_config(tmp_path / "c.cfg", BASE.replace("cases = 12",
                                                        "cases = 2"))
    assert run(["verify-carleman", "--config", cfg, "--out",
                str(tmp_path / "a")]) == 0
    calls = []
    monkeypatch.setattr(ctypes, "CDLL",
                        lambda name: calls.append(name) or cdll(name))
    assert run(["verify-carleman", "--config", cfg, "--out",
                str(tmp_path / "b")]) == 0
    assert calls == [None]
    for name in ("carleman.csv", "summary"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


class TestVerifyCarleman:
    def test_small_suite_passes(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", BASE)
        out = tmp_path / "out"
        assert run(["verify-carleman", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "carleman.csv").read_text().strip().splitlines()
        assert rows[0] == "case_id,a,p,n,lhs,rhs_bulk,rhs_boundary,slack,err_est,pass"
        assert len(rows) == 13
        assert all(r.endswith(",1") for r in rows[1:])
        assert "status=pass" in (out / "summary").read_text()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", BASE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["verify-carleman", "--config", cfg, "--out", str(out1)]) == 0
        assert run(["verify-carleman", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "carleman.csv").read_bytes() == (out2 / "carleman.csv").read_bytes()

    def test_bytes_match_the_piece_by_piece_path(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "c.cfg", BASE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["verify-carleman", "--config", cfg, "--out", str(out1)]) == 0
        one_at_a_time(monkeypatch)
        assert run(["verify-carleman", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("carleman.csv", "summary"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_changes_cases(self, tmp_path):
        cfg1 = write_config(tmp_path / "c1.cfg",
                            BASE.replace("seed = 7", "seed = 1"))
        cfg2 = write_config(tmp_path / "c2.cfg",
                            BASE.replace("seed = 7", "seed = 2"))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["verify-carleman", "--config", cfg1, "--out",
                    str(out1)]) == 0
        assert run(["verify-carleman", "--config", cfg2, "--out",
                    str(out2)]) == 0
        assert (out1 / "carleman.csv").read_text() != (out2 / "carleman.csv").read_text()

    def test_threads_above_1_exit_2(self, tmp_path, capsys):
        # every run is serial; before, --threads 2 started a pool
        cfg = write_config(tmp_path / "c.cfg", BASE)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(["verify-carleman", "--config", cfg, "--out", str(out),
                 "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads: invalid choice: 2" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_option_is_a_usage_error(self, tmp_path, capsys):
        # the seed is [verify] seed alone; before, --seed 3 replaced it
        cfg = write_config(tmp_path / "c.cfg", BASE)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(["verify-carleman", "--config", cfg, "--out", str(out),
                 "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not out.exists()

    def test_the_environment_does_not_change_a_run(self, tmp_path,
                                                   monkeypatch):
        # before, CONEWAVE_THREADS = abc was exit 2
        cfg = write_config(tmp_path / "c.cfg", BASE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["verify-carleman", "--config", cfg, "--out", str(out1)]) == 0
        monkeypatch.setenv("CONEWAVE_THREADS", "abc")
        assert run(["verify-carleman", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("carleman.csv", "summary"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_summary_counts_the_inverted_frustums_that_became_boxes(
            self, tmp_path, monkeypatch):
        # before, a drawn inverted frustum that its builder rejected became a
        # box, and no output said so
        from conewave import carleman

        build, rejected = carleman.inverted_frustum_region, []

        def counted(*args, **kwargs):
            try:
                return build(*args, **kwargs)
            except ValueError:
                rejected.append(args)
                raise

        monkeypatch.setattr(carleman, "inverted_frustum_region", counted)
        text = BASE.replace("cases = 12", "cases = 6").replace("seed = 7",
                                                               "seed = 11")
        direct = write_config(tmp_path / "direct.cfg", text)
        out = tmp_path / "direct"
        assert run(["verify-carleman", "--config", direct, "--out",
                    str(out)]) == 0
        assert rejected == []
        assert (out / "summary").read_text() == (
            "status=pass\ncases=6\nfailures=0\nseed=11\ninverted_fallbacks=0\n")
        # a forced a draws one number fewer per case, so case 4 falls back
        swept = write_config(tmp_path / "sweep.cfg", text + (
            "\n[sweep]\nscenario = verify-carleman\na = 0.05 0.45\n"))
        out = tmp_path / "sweep"
        assert run(["sweep", "--config", swept, "--out", str(out)]) == 0
        assert len(rejected) == 2
        for cell in ("cell_a0.05", "cell_a0.45"):
            assert (out / cell / "summary").read_text().endswith(
                "seed=11\ninverted_fallbacks=1\n")

    def test_one_a_sets_every_case_and_two_exit_2(self, tmp_path, capsys):
        text = BASE.replace("cases = 12", "cases = 4")
        one = write_config(tmp_path / "one.cfg", text.replace(
            "eta = 2.0", "eta = 2.0\na = 0.2"))
        out = tmp_path / "one"
        assert run(["verify-carleman", "--config", one, "--out", str(out)]) == 0
        rows = (out / "carleman.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["0.20000000000000001"] * 4
        # before, two values were ignored: each case drew its own a, exit 0
        two = write_config(tmp_path / "two.cfg", text.replace(
            "eta = 2.0", "eta = 2.0\na = 0.1 0.3"))
        out = tmp_path / "two"
        assert run(["verify-carleman", "--config", two, "--out", str(out)]) == 2
        assert ("error: [diagnostics] a must be empty or one finite positive "
                "value, got (0.1, 0.3)") in capsys.readouterr().err
        assert not (out / "carleman.csv").exists()


class TestDiagnosticsSubcommands:
    def test_verify_localized_on_ode_field(self, tmp_path):
        text = BASE + "\n[diagnostics]\n"
        text = BASE.replace(
            "sigma0 = 0.25",
            "sigma0 = 0.25\nfield_source = ode\nt_star = -0.5 -0.25 -0.125")
        cfg = write_config(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        assert run(["verify-localized", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "localized.csv").read_text().strip().splitlines()
        assert rows[0] == "t_star,kind,lhs,rhs,ratio"
        assert len(rows) == 4

    def test_assertion_failure_exits_3(self, tmp_path):
        # a ratio band no discrete run can satisfy turns the check red
        text = BASE.replace("kind = gaussian\namplitude = 0.0\nwidth = 0.5",
                            "kind = truncated_ode\nM = 2.0\nw = 0.25")
        text = text.replace("snapshot_times = -0.8 -0.5 -0.3",
                            "snapshot_log = 0.1 1.0 16")
        text = text.replace("sigma0 = 0.25",
                            "sigma0 = 0.25\nt_star = -0.5 -0.25\n"
                            "ratio_band = 1.0")
        cfg = write_config(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        assert run(["verify-localized", "--config", cfg, "--out", str(out)]) == 3
        assert "status=fail" in (out / "summary").read_text()

    def test_vacuous_field_passes(self, tmp_path):
        # zero data: lhs = rhs = 0 everywhere is a pass by vacuity
        text = BASE.replace("snapshot_times = -0.8 -0.5 -0.3",
                            "snapshot_log = 0.2 1.0 8")
        text = text.replace("sigma0 = 0.25", "sigma0 = 0.25\nt_star = -0.5")
        cfg = write_config(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        assert run(["verify-localized", "--config", cfg, "--out", str(out)]) == 0
        assert "vacuous" in (out / "summary").read_text()

    def test_energy_profile_and_rate_fit(self, tmp_path):
        text = BASE.replace(
            "sigma0 = 0.25",
            "sigma0 = 0.25\nfield_source = ode\nt_star = -0.5 -0.25 -0.125 -0.0625")
        cfg = write_config(tmp_path / "c.cfg", text)
        out = tmp_path / "p"
        assert run(["energy-profile", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "profile.csv").read_text().strip().splitlines()
        assert rows[0].startswith("t,annulus_q,slab_q,mz_q")
        assert len(rows) == 5
        out2 = tmp_path / "r"
        assert run(["rate-fit", "--config", cfg, "--out", str(out2)]) == 0
        text_rates = (out2 / "rates.csv").read_text()
        assert text_rates.startswith("quantity,slope")
        # phi* rates are exactly flat
        slope = float(text_rates.strip().splitlines()[1].split(",")[1])
        assert abs(slope) < 1e-6

    def test_rate_fit_without_t_star_reads_the_stored_times(self, tmp_path,
                                                             monkeypatch):
        # before: the requested end time -0.5, which the run stores on the
        # grid level at -0.49966, was read instead, and rate-fit exited 2
        # with "time -0.5 outside the stored range [-0.4996641575968831, ...]"
        from conewave import energetics

        text = BASE.replace("kind = gaussian\namplitude = 0.0\nwidth = 0.5",
                            "kind = truncated_ode\nM = 2.0\nw = 0.25")
        text = text.replace("J = 256", "J = 1024").replace(
            "t_end = -0.1", "t_end = 0.0").replace(
            "snapshot_times = -0.8 -0.5 -0.3", "snapshot_log = 0.1 0.5 16")
        cfg = write_config(tmp_path / "c.cfg", text)
        run_cfg = parse_config(cfg)
        stored = [t for t in cli.evolve(run_cfg.solver,
                                        run_cfg.data).levels.times.tolist()
                  if t < 0]
        seen = []
        inner = energetics.weighted_ball_quantity

        def recorded(field, times, *args):
            seen.append(list(times))
            return inner(field, times, *args)

        monkeypatch.setattr(energetics, "weighted_ball_quantity", recorded)
        out = tmp_path / "out"
        assert run(["rate-fit", "--config", cfg, "--out", str(out)]) == 0
        assert seen == [stored] and len(stored) == 12
        assert min(stored) == -0.4996641575968831
        slope = float((out / "rates.csv").read_text().splitlines()[1]
                      .split(",")[1])
        assert abs(slope) < 1e-3

    def test_energy_profile_without_t_star_keeps_the_covered_times(
            self, tmp_path):
        # before: every negative stored time was taken, and the window of the
        # earliest reached past the first level: exit 2 with "time
        # -0.5995969891162597 outside the stored range [-0.4996641575968831,
        # -0.09939548367438955]"
        text = README_CONFIG.replace("J = 2048", "J = 1024").replace(
            "snapshot_log = 0.04 1.0 16", "snapshot_log = 0.1 0.5 16")
        text = text.replace("t_star = -0.5 -0.25 -0.125\n", "")
        covered = "-0.24115730568860594 -0.20780158286173156"
        outs = []
        for name, body in (("fallback", text), ("t_star", text.replace(
                "eta = 2.0", f"eta = 2.0\nt_star = {covered}"))):
            cfg = write_config(tmp_path / f"{name}.cfg", body)
            outs.append(tmp_path / name)
            assert run(["energy-profile", "--config", cfg, "--out",
                        str(outs[-1])]) == 0
        rows = (outs[0] / "profile.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == covered.split()
        assert rows[1].startswith(f"{covered.split()[0]},82.449")
        for name in ("profile.csv", "summary"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_energy_profile_without_a_covered_time_names_t_star(self, tmp_path,
                                                                capsys):
        # BASE stores -0.8, -0.5 and -0.3: eta = 2 reaches past them all
        text = BASE.replace("kind = gaussian\namplitude = 0.0\nwidth = 0.5",
                            "kind = truncated_ode\nM = 2.0\nw = 0.25")
        _run_exit_2(tmp_path, capsys, "energy-profile", text,
                    "no stored time t < 0 has its window [eta t, t/eta] "
                    "inside the stored levels; set [diagnostics] t_star")

    def test_energy_profile_on_a_run_reruns_byte_identical(self, tmp_path):
        text = BASE.replace("kind = gaussian\namplitude = 0.0\nwidth = 0.5",
                            "kind = truncated_ode\nM = 2.0\nw = 0.25")
        text = text.replace("sigma0 = 0.25",
                            "sigma0 = 0.25\nfield_source = run\n"
                            "t_star = -0.45 -0.35 -0.25")
        text = text.replace("snapshot_times = -0.8 -0.5 -0.3",
                            "snapshot_log = 0.1 1.0 12")
        cfg = write_config(tmp_path / "c.cfg", text)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert run(["energy-profile", "--config", cfg, "--out", str(out)]) == 0
        rows = (outs[0] / "profile.csv").read_text().strip().splitlines()
        assert len(rows) == 4
        assert all(float(v) > 0.0 for row in rows[1:] for v in row.split(",")[1:])
        for name in ("profile.csv", "summary"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_energy_profile_bytes_match_the_slice_by_slice_path(
            self, tmp_path, monkeypatch):
        text = BASE.replace("kind = gaussian\namplitude = 0.0\nwidth = 0.5",
                            "kind = truncated_ode\nM = 2.0\nw = 0.25")
        text = text.replace("sigma0 = 0.25",
                            "sigma0 = 0.25\nfield_source = run\n"
                            "t_star = -0.45 -0.35 -0.25")
        text = text.replace("snapshot_times = -0.8 -0.5 -0.3",
                            "snapshot_log = 0.1 1.0 12")
        cfg = write_config(tmp_path / "c.cfg", text)
        batched, alone = tmp_path / "batched", tmp_path / "alone"
        for out in (batched, alone):
            if out == alone:
                one_at_a_time(monkeypatch)
            for scenario in ("energy-profile", "verify-localized",
                             "rate-fit"):
                assert run([scenario, "--config", cfg, "--out",
                            str(out / scenario)]) == 0
        for name in ("energy-profile/profile.csv", "energy-profile/summary",
                     "verify-localized/localized.csv",
                     "verify-localized/summary", "rate-fit/rates.csv",
                     "rate-fit/summary"):
            assert (batched / name).read_bytes() == (alone / name).read_bytes()

    def test_window_outside_the_snapshots_names_time_and_range(self, tmp_path,
                                                               capsys):
        # t* = -0.08 with eta = 2 needs the field up to t*/eta = -0.04, but at
        # J = 2048 the last snapshot sits on the grid level nearest -0.04,
        # which is earlier (about -0.04102)
        text = BASE.replace("kind = gaussian\namplitude = 0.0\nwidth = 0.5",
                            "kind = truncated_ode\nM = 2.0\nw = 0.25")
        text = text.replace("J = 256", "J = 2048")
        text = text.replace("t_end = -0.1", "t_end = 0.0")
        text = text.replace("snapshot_times = -0.8 -0.5 -0.3",
                            "snapshot_log = 0.04 1.0 16")
        text = text.replace("sigma0 = 0.25",
                            "sigma0 = 0.25\nfield_source = run\nt_star = -0.08")
        cfg = write_config(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        assert run(["energy-profile", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.search(r"time -0\.04 outside the stored range "
                         r"\[-1\.0, -0\.041\d*\]", err), err

    def test_the_run_field_is_not_patched(self, tmp_path):
        # the field checks its own time window, and `run` maps its
        # LevelRangeError to exit 2; before, require_times was overwritten
        # on the instance to raise a ConfigError
        cfg = parse_config(write_config(tmp_path / "c.cfg", BASE))
        field = cli._diagnostic_field(cfg)
        assert isinstance(field, DiscreteField)
        assert "require_times" not in vars(field)

    def test_decay_subcommand(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", DECAY)
        out = tmp_path / "out"
        assert run(["decay", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "decay.csv").read_text().strip().splitlines()
        assert rows[0] == "T,D,L"
        assert len(rows) == 5


class TestSweep:
    def test_sweep_simulate_over_J(self, tmp_path):
        text = BASE + "\n[sweep]\nscenario = simulate\nJ = 64 128\n"
        cfg = write_config(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert rows[0] == "J,exit_code"
        assert len(rows) == 3

    def test_sweep_verify_over_a(self, tmp_path):
        text = BASE.replace("cases = 12", "cases = 4") \
            + "\n[sweep]\nscenario = verify-carleman\na = 0.05 0.25 0.45\n"
        cfg = write_config(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 4
        assert all(r.endswith(",0") for r in rows[1:])

    def test_sweeping_p_rebuilds_the_initial_data(self, tmp_path):
        data = ("kind = gaussian\namplitude = 0.0\nwidth = 0.5",
                "kind = truncated_ode\nM = 2.0\nw = 0.25")
        text = BASE.replace(*data).replace("t_end = -0.1", "t_end = 0.0")
        text = text.replace("snapshot_times = -0.8 -0.5 -0.3\n", "")
        direct = write_config(tmp_path / "direct.cfg",
                              text.replace("p = 2.0", "p = 1.5"))
        assert run(["simulate", "--config", direct, "--out",
                    str(tmp_path / "direct")]) == 0
        swept = write_config(tmp_path / "sweep.cfg",
                             text + "\n[sweep]\nscenario = simulate\np = 1.5 2.0\n")
        assert run(["sweep", "--config", swept, "--out",
                    str(tmp_path / "sweep")]) == 0

        def t_b_and_max_phi(path):
            header, row = path.read_text().strip().splitlines()
            values = dict(zip(header.split(","), row.split(",")))
            return values["t_b"], values["max_phi"]

        cell = t_b_and_max_phi(tmp_path / "sweep" / "cell_p1.5" / "run.csv")
        assert cell == t_b_and_max_phi(tmp_path / "direct" / "run.csv")
        assert cell[0] != "nan"

    def test_sweep_cells_are_validated(self, tmp_path, capsys):
        text = BASE + "\n[sweep]\nscenario = simulate\np = 2.0 3.5\n"
        cfg = write_config(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        assert run(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert ("error: [problem] n, [sweep] p: p outside the subconformal "
                "range for this n\n" == capsys.readouterr().err)
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("grid,first,second,name", [
        ("p = 2.0000001 2.0000002", "p=2.0000001", "p=2.0000002", "cell_p2"),
        ("J = 128 128", "J=128.0", "J=128.0", "cell_J128"),
    ])
    def test_cells_sharing_a_directory_exit_2(self, tmp_path, capsys, grid,
                                              first, second, name):
        text = BASE + f"\n[sweep]\nscenario = simulate\n{grid}\n"
        cfg = write_config(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        assert run(["sweep", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"sweep cells {first} and {second} share the directory {name}" in err
        assert not (out / name).exists()
        assert not (out / "sweep.csv").exists()

    def test_the_sweep_section_comes_from_the_one_parse(self, tmp_path,
                                                       monkeypatch):
        text = BASE + "\n[sweep]\nscenario = simulate\nJ = 64 128\n"
        path = tmp_path / "c.cfg"
        cfg = parse_config(write_config(path, text))
        assert cfg.sweep_scenario == "simulate"
        assert cfg.sweep == {"J": (64.0, 128.0)}
        path.unlink()  # a second read of the file would find no [sweep]
        monkeypatch.setattr(cli, "parse_config", lambda _: cfg)
        out = tmp_path / "out"
        assert run(["sweep", "--config", str(path), "--out", str(out)]) == 0
        assert len((out / "sweep.csv").read_text().strip().splitlines()) == 3

    def test_threads_do_not_change_bytes(self, tmp_path):
        # the cells run one after another: a rerun with --threads 1, the
        # one value the flag takes, writes the same tree byte for byte
        text = BASE.replace("kind = gaussian\namplitude = 0.0\nwidth = 0.5",
                            "kind = truncated_ode\nM = 2.0\nw = 0.25")
        text = text.replace("t_end = -0.1", "t_end = 0.0")
        text += "\n[sweep]\nscenario = simulate\nJ = 64 128\np = 1.5 2.0\n"
        cfg = write_config(tmp_path / "c.cfg", text)
        trees = []
        for flag in ([], ["--threads", "1"]):
            out = tmp_path / f"run{len(trees)}"
            assert run(["sweep", "--config", cfg, "--out", str(out)] + flag) == 0
            trees.append({str(path.relative_to(out)): path.read_bytes()
                          for path in out.rglob("*") if path.is_file()})
        assert len(trees[0]) == 1 + 1 + 4 * 5  # sweep.csv, summary, 4 cells
        assert trees[0] == trees[1]

    # before: exit 0, with cells that differ in name only
    @pytest.mark.parametrize("scenario,grid,message", [
        ("verify-carleman", "p = 1.5 2.0", "[sweep] p is not read by "
         "verify-carleman"),
        ("simulate", "J = 64 128\na = 0.1 0.2", "[sweep] a is not read by "
         "simulate"),
        ("convergence", "J = 256 512\nM = 1.0 2.0", "[sweep] M is not read by "
         "convergence"),
        ("simulate", "gamma = 1.2 1.5", "unknown key 'gamma' in [sweep]"),
    ], ids=["verify-carleman-p", "simulate-a", "convergence-M", "simulate-gamma"])
    def test_a_key_the_scenario_does_not_read_exit_2(self, tmp_path, capsys,
                                                     scenario, grid, message):
        text = BASE + f"\n[sweep]\nscenario = {scenario}\n{grid}\n"
        _run_exit_2(tmp_path, capsys, "sweep", text, message)
        assert list((tmp_path / "out").glob("*")) == []  # no cell ran

    @pytest.mark.parametrize("grid,repeated", [
        ("128 128", 128), ("128 128 256", 128), ("256 128 256", 256)])
    def test_a_repeated_convergence_level_exit_2(self, tmp_path, capsys, grid,
                                                 repeated):
        # before, `128 128` exited 3 with a numpy RankWarning and
        # `128 128 256` wrote levels=3 over two rows
        text = BASE.replace("kind = gaussian\namplitude = 0.0\nwidth = 0.5",
                            "kind = truncated_ode\nM = 2.0\nw = 0.25")
        text = text.replace("t_end = -0.1", "t_end = 0.0")
        text += f"\n[sweep]\nscenario = convergence\nJ = {grid}\n"
        _run_exit_2(tmp_path, capsys, "sweep", text,
                    f"[sweep] J lists {repeated} more than once")
        assert list((tmp_path / "out").glob("*")) == []

    def test_empty_grid_exit_2(self, tmp_path):
        text = BASE + "\n[sweep]\nscenario = simulate\n"
        cfg = write_config(tmp_path / "c.cfg", text)
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_a_convergence_core_past_the_wall_limit_exit_2(self, tmp_path,
                                                          capsys):
        # the core r < M/2 = 1 at t_ref = -0.2, where the wall of R = 2 has
        # reached r = 0.86; before, this passed with fitted_order=1.9939
        text = BASE.replace("kind = gaussian\namplitude = 0.0\nwidth = 0.5",
                            "kind = truncated_ode\nM = 2.0\nw = 0.25")
        text = text.replace("t_end = -0.1", "t_end = 0.0").replace(
            "R = 6.0", "R = 2.0")
        text = text.replace("sigma0 = 0.25", "sigma0 = 0.25\nt_star = -0.2")
        text += "\n[sweep]\nscenario = convergence\nJ = 256 512\n"
        _run_exit_2(tmp_path, capsys, "sweep", text,
                    "convergence sweep at t_ref = -0.2: radius 1.0 at time "
                    "-0.1994626521550129 is past the levels' wall limit "
                    "(r > 0.859375)")

    def test_a_convergence_reference_time_outside_the_run_exit_2(
            self, tmp_path, capsys, monkeypatch):
        # before: the solver's refusal named `snapshot_times`, which the
        # config never set, and not [diagnostics] t_star
        monkeypatch.setattr(cli, "convergence_study", _no_solver_run)
        text = BASE.replace("kind = gaussian\namplitude = 0.0\nwidth = 0.5",
                            "kind = truncated_ode\nM = 2.0\nw = 0.25")
        text = text.replace("t_end = -0.1", "t_end = -0.5")
        text = text.replace("snapshot_times = -0.8 -0.5 -0.3\n", "")
        text = text.replace("sigma0 = 0.25", "sigma0 = 0.25\nt_star = -0.2")
        text += "\n[sweep]\nscenario = convergence\nJ = 64 128\n"
        _run_exit_2(tmp_path, capsys, "sweep", text,
                    "[diagnostics] t_star, [grid] t0, [grid] t_end: "
                    "convergence sweep reference time -0.2 outside "
                    "[t0, t_end] = [-1.0, -0.5]\n")
        assert list((tmp_path / "out").glob("*")) == []

    def test_convergence_sweep_fits_second_order(self, tmp_path):
        text = BASE.replace("kind = gaussian\namplitude = 0.0\nwidth = 0.5",
                            "kind = truncated_ode\nM = 2.0\nw = 0.25")
        text = text.replace("t_end = -0.1", "t_end = 0.0")
        text = text.replace("sigma0 = 0.25", "sigma0 = 0.25\nt_star = -0.2")
        text += "\n[sweep]\nscenario = convergence\nJ = 256 512 1024\n"
        cfg = write_config(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0
        summary = (out / "summary").read_text()
        order = float([ln for ln in summary.splitlines()
                       if ln.startswith("fitted_order=")][0].split("=")[1])
        assert abs(order - 2.0) <= 0.3
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert rows[0] == "J,error"
        assert len(rows) == 4


class TestCsvWriter:
    """cli._write_csv formats every output file: floats at the given
    significant digits, every other value with str()."""

    ROW = (3, "annulus", 0.1, np.float64(2.0) / 3.0, math.inf, math.nan)

    @pytest.mark.parametrize("digits,line", [
        (17, "3,annulus,0.10000000000000001,0.66666666666666663,inf,nan"),
        (6, "3,annulus,0.1,0.666667,inf,nan"),
    ])
    def test_floats_at_digits_and_the_rest_with_str(self, tmp_path, digits,
                                                    line):
        cli._write_csv(str(tmp_path), "x.csv", "i,s,f,g,inf,nan", [self.ROW],
                       digits)
        assert (tmp_path / "x.csv").read_text() == f"i,s,f,g,inf,nan\n{line}\n"

    def test_17_digits_round_trip(self, tmp_path):
        values = np.random.default_rng(5).standard_normal(200) * 10.0 ** (
            np.arange(200) % 40 - 20)
        cli._write_csv(str(tmp_path), "x.csv", "a,b", values.reshape(100, 2),
                       17)
        lines = (tmp_path / "x.csv").read_text().splitlines()
        back = [float(tok) for line in lines[1:] for tok in line.split(",")]
        assert [v.hex() for v in back] == [float(v).hex() for v in values]


HEADERS = {
    "run.csv": "status,t_b,J,dt,max_phi",
    "carleman.csv": "case_id,a,p,n,lhs,rhs_bulk,rhs_boundary,slack,err_est,pass",
    "localized.csv": "t_star,kind,lhs,rhs,ratio",
    "profile.csv": "t,annulus_q,slab_q,mz_q,lhs_1_6,rhs_1_6,ratio,err_est",
    "rates.csv": "quantity,slope,residual,window_lo,window_hi,inf,sup,"
                 "last_decade_max",
    "decay.csv": "T,D,L",
    "sweep.csv": "J,exit_code",
}


# (subcommand, a config it runs with exit 0, the CSV it writes)
EVERY_SCENARIO = [("simulate", BASE, "run.csv"),
                  ("verify-carleman", BASE, "carleman.csv"),
                  ("verify-localized", ODE_DIAG, "localized.csv"),
                  ("energy-profile", ODE_DIAG, "profile.csv"),
                  ("rate-fit", ODE_DIAG, "rates.csv"),
                  ("decay", DECAY, "decay.csv"),
                  ("sweep", BASE + "\n[sweep]\nscenario = simulate\n"
                   "J = 64 128\n", "sweep.csv")]


# the scenarios that integrate: all but simulate and sweep
QUADRATURE_RUNS = [run[:2] for run in EVERY_SCENARIO
                   if run[0] not in ("simulate", "sweep")]


@pytest.mark.parametrize("scenario,text", QUADRATURE_RUNS,
                         ids=[run[0] for run in QUADRATURE_RUNS])
def test_the_cells_key_reaches_every_quadrature_call(tmp_path, monkeypatch,
                                                     scenario, text):
    # a caller that dropped its QuadratureSpec would integrate at the
    # default 48 cells, which a run at the default cannot tell apart
    calls = []

    def spy(name, entry):
        def call(*args, **kwargs):
            [q] = [a for a in (*args, *kwargs.values())
                   if isinstance(a, QuadratureSpec)]
            calls.append((name, q.cells))
            return entry(*args, **kwargs)
        return call

    for info in pkgutil.iter_modules(conewave.__path__):
        module = importlib.import_module(f"conewave.{info.name}")
        for name in ("integrate_bulk", "integrate_slices",
                     "integrate_surfaces"):
            if hasattr(module, name) and info.name != "quadrature":
                monkeypatch.setattr(module, name,
                                    spy(name, getattr(module, name)))
    text = text.replace("[diagnostics]\n", "[diagnostics]\ncells = 5\n")
    cfg = write_config(tmp_path / "c.cfg", text)
    assert run([scenario, "--config", cfg, "--out",
                str(tmp_path / "out")]) == 0
    assert calls
    assert {cells for _, cells in calls} == {5}, calls


# (subcommand, config, the file that cannot be written, the file written
# before it or None): each CSV is written first and `summary` last, in one
# place, and simulate writes its snapshots before both
BLOCKED_WRITES = [(scenario, text, "summary", name)
                  for scenario, text, name in EVERY_SCENARIO] + [
                      ("simulate", BASE, "snap_0000.dat", None)]


@pytest.mark.parametrize(
    "scenario,text,blocked,before", BLOCKED_WRITES,
    ids=[run[0] for run in EVERY_SCENARIO] + ["simulate-snapshot"])
def test_a_summary_that_cannot_be_written_is_exit_4(tmp_path, capsys,
                                                    scenario, text, blocked,
                                                    before):
    # every file that cannot be written gives the same error line; before,
    # a snapshot printed the bare OSError
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    cfg = write_config(tmp_path / "c.cfg", text)
    assert run([scenario, "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"io error: cannot write {out / blocked}: "), err
    assert before is None or (out / before).is_file()


def _every_output(tmp_path, precision):
    """{file name: text} of each CSV kind the CLI writes, at `precision`."""
    outdir = tmp_path / f"p{precision}"
    texts = {}
    for scenario, text, name in EVERY_SCENARIO:
        text = text.replace("directory = out",
                            f"directory = out\nprecision = {precision}")
        cfg = write_config(tmp_path / f"{scenario}.cfg", text)
        out = outdir / scenario
        assert run([scenario, "--config", cfg, "--out", str(out)]) == 0
        texts[name] = (out / name).read_text()
    texts["cell run.csv"] = (outdir / "sweep" / "cell_J64" / "run.csv").read_text()
    return texts


def test_precision_sets_the_digits_of_every_file_but_run_and_sweep(tmp_path):
    full, short = _every_output(tmp_path, 17), _every_output(tmp_path, 6)
    for name in ("run.csv", "sweep.csv", "cell run.csv"):
        assert short[name] == full[name]
    for name in ("carleman.csv", "localized.csv", "profile.csv", "rates.csv",
                 "decay.csv"):
        assert short[name] != full[name]
        rows17 = [line.split(",") for line in full[name].splitlines()]
        rows6 = [line.split(",") for line in short[name].splitlines()]
        assert ",".join(rows6[0]) == HEADERS[name]
        assert len(rows6) == len(rows17) > 1
        for row6, row17 in zip(rows6[1:], rows17[1:]):
            assert len(row6) == len(row17) == len(rows6[0])
            for tok6, tok17 in zip(row6, row17):
                if not re.fullmatch(r"[-+0-9.e]+|nan|inf", tok17):
                    assert tok6 == tok17           # kind, quantity
                    continue
                assert len(re.sub(r"e.*|[-.]", "", tok6).lstrip("0")) <= 6
                assert float(tok6) == pytest.approx(float(tok17), rel=1e-5)
    for name in ("run.csv", "sweep.csv"):
        assert full[name].splitlines()[0] == HEADERS[name]
    # the int columns of carleman.csv keep their digits at any precision
    rows = [line.split(",") for line in short["carleman.csv"].splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(12))
    assert all(row[3] in ("1", "2", "3") and row[9] in ("0", "1")
               for row in rows)
    assert [(r[0], r[3], r[9]) for r in rows] == [
        (r[0], r[3], r[9]) for r in (line.split(",") for line in
                                     full["carleman.csv"].splitlines()[1:])]
