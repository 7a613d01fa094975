import os
import subprocess
import sys

import numpy as np
import pytest

import conewave
from conewave import cli
from conewave.cli import ConfigError, parse_config, run
from conewave.quadrature import NonFiniteSample


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
        with pytest.raises(ConfigError, match="sigma0 < sigma1"):
            parse_config(write_config(tmp_path / "c.cfg", bad))

    def test_causal_buffer_enforced(self, tmp_path):
        bad = BASE.replace("R = 6.0", "R = 1.0")
        with pytest.raises(ConfigError, match="causal buffer"):
            parse_config(write_config(tmp_path / "c.cfg", bad))

    def test_snapshot_log_generator(self, tmp_path):
        text = BASE.replace("snapshot_times = -0.8 -0.5 -0.3",
                            "snapshot_log = 0.1 1.0 8")
        cfg = parse_config(write_config(tmp_path / "c.cfg", text))
        assert len(cfg.snapshot_times) >= 8
        assert all(t < 0 for t in cfg.snapshot_times)

    def test_missing_file_is_config_error(self, tmp_path):
        assert run(["simulate", "--config", str(tmp_path / "absent.cfg")]) == 2


class TestSimulate:
    def test_zero_data_completes(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", BASE)
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        summary = (out / "summary").read_text()
        assert "status=completed" in summary
        run_csv = (out / "run.csv").read_text().splitlines()
        assert run_csv[0] == "status,t_b,J,dt,max_phi"
        snaps = sorted(p for p in os.listdir(out) if p.startswith("snap"))
        assert len(snaps) == 3
        body = (out / snaps[0]).read_text().splitlines()
        assert body[0] == "# n p t"
        assert all(float(tok) == 0.0 for tok in body[2].split())

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

    def test_non_finite_integrand_exit_3(self, tmp_path, capsys, monkeypatch):
        def bad_profile(*args, **kwargs):
            raise NonFiniteSample(-0.5, 0.25, float("nan"))

        monkeypatch.setattr(cli.energetics, "energy_profile", bad_profile)
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


def test_module_entry_point_runs(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(conewave.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "conewave.cli", "simulate", "--config",
         str(tmp_path / "absent.cfg")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 2
    assert "error:" in proc.stderr


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

    def test_seed_changes_cases(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", BASE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["verify-carleman", "--config", cfg, "--out", str(out1),
                    "--seed", "1"]) == 0
        assert run(["verify-carleman", "--config", cfg, "--out", str(out2),
                    "--seed", "2"]) == 0
        assert (out1 / "carleman.csv").read_text() != (out2 / "carleman.csv").read_text()

    def test_threads_do_not_change_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", BASE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["verify-carleman", "--config", cfg, "--out", str(out1),
                    "--threads", "1"]) == 0
        assert run(["verify-carleman", "--config", cfg, "--out", str(out2),
                    "--threads", "4"]) == 0
        assert (out1 / "carleman.csv").read_bytes() == (out2 / "carleman.csv").read_bytes()

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONEWAVE_THREADS", "3")
        cfg = write_config(tmp_path / "c.cfg", BASE)
        out = tmp_path / "env"
        assert run(["verify-carleman", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "carleman.csv").exists()


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

    def test_decay_subcommand(self, tmp_path):
        text = """
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
        cfg = write_config(tmp_path / "c.cfg", text)
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
        assert ("error: p outside the subconformal range for this n"
                in capsys.readouterr().err)
        assert not (out / "sweep.csv").exists()

    def test_empty_grid_exit_2(self, tmp_path):
        text = BASE + "\n[sweep]\nscenario = simulate\n"
        cfg = write_config(tmp_path / "c.cfg", text)
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

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
