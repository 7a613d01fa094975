"""Command-line orchestration: sectioned key=value configs in, CSV reports
and a key=value summary out, with deterministic seeding.

Exit codes: 0 success, 2 config/validation error, 3 scientific assertion
failure or a non-finite solver value or integrand sample, 4 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import carleman, energetics
from .exact_solutions import InitialDataSpec
from .fields import (ManufacturedField, PotentialSpec, ode_field,
                     polynomial_gaussian, traveling_bump)
from .geometry import ShiftedWeight
from .quadrature import NonFiniteSample, QuadratureSpec
from .solver import SolverConfig, evolve, finite_speed_check, run_summary_csv

__all__ = ["RunConfig", "main", "run"]

SUBCOMMANDS = ("simulate", "verify-carleman", "verify-localized",
               "energy-profile", "rate-fit", "decay", "sweep")

_SCHEMA = {
    "problem": {"n", "p", "potential", "c0", "pot_eps", "pot_center_t",
                "pot_center_r", "pot_width", "pot_alpha"},
    "grid": {"R", "J", "cfl", "t0", "t_end", "phi_max", "snapshot_times",
             "snapshot_log"},
    "data": {"kind", "M", "w", "amplitude", "width", "path"},
    "diagnostics": {"sigma0", "sigma1", "sigma", "gamma", "eta", "t_star",
                    "a", "horizons", "window", "field_source", "cells",
                    "ratio_band"},
    "verify": {"cases", "seed", "strict"},
    "sweep": {"scenario", "J", "p", "M", "gamma", "a"},
    "output": {"directory", "precision"},
}


class ConfigError(ValueError):
    pass


def _floats(text):
    return tuple(float(tok) for tok in text.replace(",", " ").split())


@dataclass
class RunConfig:
    """Validated view of a config file; cross-field constraints of the owning
    modules are checked here before any scenario executes."""

    n: int = 3
    p: float = 2.0
    potential: PotentialSpec = field(default_factory=PotentialSpec.constant)
    R: float = 4.0
    J: int = 1024
    cfl: float = 0.9
    t0: float = -1.0
    t_end: float = 0.0
    phi_max: float = 1e6
    snapshot_times: tuple = ()
    data: InitialDataSpec | None = None
    sigma0: float = 0.25
    sigma1: float = 0.5
    sigma: float = 0.5
    gamma: float = 1.2
    eta: float = 2.0
    t_star: tuple = ()
    a_values: tuple = (0.05, 0.25, 0.45)
    horizons: tuple = (4.0, 8.0, 16.0, 32.0)
    window: tuple = ()
    field_source: str = "run"
    cells: int = 48
    ratio_band: float = 1.5
    cases: int = 200
    seed: int = 7
    strict: bool = False
    directory: str = "out"
    precision: int = 17

    @property
    def quadrature(self) -> QuadratureSpec:
        return QuadratureSpec(cells_t=self.cells, cells_r=self.cells)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(n=self.n, p=self.p, potential=self.potential,
                            R=self.R, J=self.J, cfl=self.cfl, t0=self.t0,
                            t_end=self.t_end, phi_max=self.phi_max,
                            snapshot_times=self.snapshot_times)


def parse_config(path) -> RunConfig:
    parser = configparser.ConfigParser()
    parser.optionxform = str
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")

    cfg = RunConfig()

    def get(section, key, cast, default):
        if parser.has_option(section, key):
            return cast(parser.get(section, key))
        return default

    cfg.n = get("problem", "n", int, cfg.n)
    cfg.p = get("problem", "p", float, cfg.p)
    kind = get("problem", "potential", str, "constant")
    c0 = get("problem", "c0", float, 1.0)
    if kind == "constant":
        cfg.potential = PotentialSpec.constant(c0)
    elif kind == "perturbed":
        cfg.potential = PotentialSpec.perturbed(
            c0,
            get("problem", "pot_eps", float, 0.0),
            (get("problem", "pot_center_t", float, 0.0),
             get("problem", "pot_center_r", float, 0.0)),
            get("problem", "pot_width", float, 1.0),
            get("problem", "pot_alpha", float, math.inf),
        )
    else:
        raise ConfigError(f"unknown potential kind {kind!r}")

    cfg.R = get("grid", "R", float, cfg.R)
    cfg.J = get("grid", "J", int, cfg.J)
    cfg.cfl = get("grid", "cfl", float, cfg.cfl)
    cfg.t0 = get("grid", "t0", float, cfg.t0)
    cfg.t_end = get("grid", "t_end", float, cfg.t_end)
    cfg.phi_max = get("grid", "phi_max", float, cfg.phi_max)
    snaps = get("grid", "snapshot_times", _floats, ())
    log_spec = get("grid", "snapshot_log", _floats, ())
    if log_spec:
        if len(log_spec) != 3:
            raise ConfigError("snapshot_log needs: |t|_min |t|_max per_decade")
        lo, hi, per = log_spec
        count = max(2, int(round(per * math.log10(hi / lo))) + 1)
        mags = np.geomspace(lo, hi, count)
        sign = -1.0 if cfg.t0 < 0 else 1.0
        snaps = tuple(sorted(sign * mags))
    cfg.snapshot_times = tuple(snaps)

    if parser.has_section("data"):
        dkind = get("data", "kind", str, "gaussian")
        if dkind == "truncated_ode":
            cfg.data = InitialDataSpec.truncated_ode(
                get("data", "M", float, 2.0),
                get("data", "w", float, 0.25),
                p=cfg.p)
        elif dkind == "gaussian":
            cfg.data = InitialDataSpec.gaussian(
                get("data", "amplitude", float, 1e-3),
                get("data", "width", float, 0.5))
        elif dkind == "file":
            cfg.data = InitialDataSpec.from_file(get("data", "path", str, ""))
        else:
            raise ConfigError(f"unknown data kind {dkind!r}")

    cfg.sigma0 = get("diagnostics", "sigma0", float, cfg.sigma0)
    cfg.sigma1 = get("diagnostics", "sigma1", float, cfg.sigma1)
    cfg.sigma = get("diagnostics", "sigma", float, cfg.sigma)
    cfg.gamma = get("diagnostics", "gamma", float, cfg.gamma)
    cfg.eta = get("diagnostics", "eta", float, cfg.eta)
    cfg.t_star = get("diagnostics", "t_star", _floats, cfg.t_star)
    cfg.a_values = get("diagnostics", "a", _floats, cfg.a_values)
    cfg.horizons = get("diagnostics", "horizons", _floats, cfg.horizons)
    cfg.window = get("diagnostics", "window", _floats, cfg.window)
    cfg.field_source = get("diagnostics", "field_source", str, cfg.field_source)
    cfg.cells = get("diagnostics", "cells", int, cfg.cells)
    cfg.ratio_band = get("diagnostics", "ratio_band", float, cfg.ratio_band)
    cfg.cases = get("verify", "cases", int, cfg.cases)
    cfg.seed = get("verify", "seed", int, cfg.seed)
    cfg.strict = get("verify", "strict", lambda s: s.lower() == "true", cfg.strict)
    cfg.directory = get("output", "directory", str, cfg.directory)
    cfg.precision = get("output", "precision", int, cfg.precision)

    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    if not 0.0 < cfg.sigma0 < cfg.sigma1 < 1.0:
        raise ConfigError("need 0 < sigma0 < sigma1 < 1")
    if not 0.0 < cfg.sigma < 1.0:
        raise ConfigError("need 0 < sigma < 1")
    if cfg.gamma <= 1.0:
        raise ConfigError("need gamma > 1")
    if cfg.eta <= cfg.gamma:
        raise ConfigError("need eta > gamma")
    if cfg.p <= 1.0:
        raise ConfigError("need p > 1")
    if cfg.n >= 2 and cfg.p >= 1.0 + 4.0 / (cfg.n - 1.0):
        raise ConfigError("p outside the subconformal range for this n")
    if not 0.0 < cfg.cfl <= 1.0:
        raise ConfigError("CFL factor must lie in (0, 1]")
    if any(x <= 0 for x in cfg.a_values):
        raise ConfigError("weight exponents a must be positive")
    # causal buffer: outer boundary must not influence any diagnostic
    # region; the Dirichlet wall's influence travels at the stencil speed
    # dr/dt, bounded by the radial operator norm (about 2n/dr^2 at the
    # axis for n >= 3).
    tmax = max(abs(cfg.t0), abs(cfg.t_end))
    r_diag = max(cfg.sigma1, cfg.sigma) * tmax
    if cfg.t_star:
        r_diag = max(r_diag, max(cfg.sigma1, cfg.sigma) * cfg.eta
                     * max(abs(t) for t in cfg.t_star))
    if cfg.data is not None:
        solver_cfg = cfg.solver_config()
        if not solver_cfg.causal_buffer_ok(r_diag):
            needed = r_diag + (cfg.t_end - cfg.t0) * solver_cfg.stencil_speed_bound()
            raise ConfigError(
                f"domain radius {cfg.R} too small for the causal buffer "
                f"(needs >= {needed:g})")


# --------------------------------------------------------------------------
# Scenario implementations
# --------------------------------------------------------------------------

def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _summary(outdir, **kv):
    lines = [f"{k}={v}" for k, v in kv.items()]
    _write(os.path.join(outdir, "summary"), "\n".join(lines) + "\n")


def _scenario_simulate(cfg: RunConfig, outdir):
    if cfg.data is None:
        raise ConfigError("simulate requires a [data] section")
    result = evolve(cfg.solver_config(), cfg.data)
    _write(os.path.join(outdir, "run.csv"), run_summary_csv(result))
    if result.snapshots:
        result.field().write_snapshots(outdir, cfg.p)
    ok = result.status in ("completed", "blew_up")
    if cfg.data.kind != "file":
        speed_ok, witness = finite_speed_check(result, cfg.data.support_radius)
    else:
        speed_ok, witness = True, None
    _summary(outdir, status=result.status,
             t_b=result.t_blowup if result.t_blowup is not None else "nan",
             J=cfg.J, dt=f"{result.dt:.17g}", max_phi=f"{result.max_phi:.17g}",
             finite_speed="pass" if speed_ok else f"fail at {witness}")
    if not ok or not speed_ok:
        return 3
    return 0


def _random_case(rng, forced_a=None):
    """One randomized admissible verification instance (theorem-backed)."""
    n = int(rng.integers(1, 4))
    p_hi = 2.8 if n >= 3 else 3.0
    p = float(rng.uniform(1.2, p_hi))
    a = forced_a if forced_a is not None else float(rng.uniform(0.05, 0.45))
    shift_t = float(rng.uniform(-0.3, 0.3)) if rng.random() < 0.3 else 0.0
    shift = ShiftedWeight(shift_t)
    half_height = float(rng.uniform(0.1, 0.4))
    tc = shift_t + float(rng.uniform(-0.2, 0.2))
    t0, t1 = tc - half_height, tc + half_height
    reach = max(abs(t0 - shift_t), abs(t1 - shift_t))
    r0 = reach + float(rng.uniform(0.15, 0.8))
    r1 = r0 + float(rng.uniform(0.4, 1.2))
    family = rng.random()
    if family < 0.5:
        region = carleman.box_region(t0, t1, r0, r1, shift=shift)
    elif family < 0.75:
        slope = float(rng.uniform(0.3, 0.9))
        apex = t0 - r1 / slope  # cone side starts at r1 > r0, stays outside
        region = carleman.frustum_region(t0, t1, r0, slope, apex, shift=shift)
    else:
        slope = float(rng.uniform(0.3, 0.9))
        apex = t0 - r0 / slope
        try:
            region = carleman.inverted_frustum_region(t0, t1, r1, slope, apex,
                                                      shift=shift)
        except ValueError:
            region = carleman.box_region(t0, t1, r0, r1, shift=shift)
    if rng.random() < 0.7:
        V = PotentialSpec.constant(float(rng.uniform(0.5, 2.0)))
    else:
        V = PotentialSpec(kind="perturbed", c0=float(rng.uniform(0.8, 1.5)),
                          eps=float(rng.uniform(-0.2, 0.2)),
                          center=(tc, 0.5 * (r0 + r1)),
                          width=float(rng.uniform(0.5, 1.5)))
    amp = float(np.exp(rng.uniform(np.log(1e-2), np.log(3.0))))
    fc_t = float(rng.uniform(t0, t1))
    fc_r = float(rng.uniform(r0, r1))
    wt = float(rng.uniform(0.1, 0.5))
    wr = float(rng.uniform(0.1, 0.5))
    pick = rng.random()
    if pick < 0.4:
        fieldobj = _offcenter_gaussian(n, amp, fc_t, fc_r, wt, wr)
    elif pick < 0.75:
        fieldobj = polynomial_gaussian(n, amp, fc_t, wt, max(fc_r, wr),
                                       c1=float(rng.uniform(-1, 1)),
                                       c2=float(rng.uniform(-1, 1)))
    else:
        speed = float(rng.uniform(-0.8, 0.8))
        fieldobj = traveling_bump(n, amp, speed, fc_r - speed * fc_t, wr)
    params = carleman.CarlemanParams(a=a, p=p, n=n, potential=V, shift=shift)
    return params, fieldobj, region


def _offcenter_gaussian(n, A, tc, rc, wt, wr) -> ManufacturedField:
    """Gaussian bump centered off the axis; fine on regions with r > 0."""

    def jet(t, r):
        g = A * np.exp(-(t - tc) ** 2 / (2 * wt ** 2)
                       - (r - rc) ** 2 / (2 * wr ** 2))
        phi_r = -(r - rc) / wr ** 2 * g
        phitt = ((t - tc) ** 2 / wt ** 4 - 1.0 / wt ** 2) * g
        phirr = ((r - rc) ** 2 / wr ** 4 - 1.0 / wr ** 2) * g
        return (g, -(t - tc) / wt ** 2 * g, phi_r,
                -phitt + phirr + (n - 1) / r * phi_r)

    return ManufacturedField(n, jet, label=f"offgauss(A={A:.3g})")


def _scenario_verify_carleman(cfg: RunConfig, outdir, threads=1):
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    forced_a = cfg.a_values[0] if len(cfg.a_values) == 1 else None
    cases = [_random_case(rng, forced_a) for _ in range(cfg.cases)]
    q = cfg.quadrature

    def job(item):
        params, fieldobj, region = item
        return carleman.verify_global(params, fieldobj, region, q)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(job, cases))
    else:
        reports = [job(c) for c in cases]

    rows = [carleman.report_csv_header()]
    failures = 0
    for idx, ((params, _, _), rep) in enumerate(zip(cases, reports)):
        rows.append(carleman.report_csv_row(idx, params, rep, cfg.precision))
        failures += 0 if rep.passed else 1
    _write(os.path.join(outdir, "carleman.csv"), "\n".join(rows) + "\n")
    _summary(outdir, status="pass" if failures == 0 else "fail",
             cases=cfg.cases, failures=failures, seed=cfg.seed)
    return 0 if failures == 0 else 3


def _diagnostic_field(cfg: RunConfig):
    if cfg.field_source == "ode":
        return ode_field(cfg.p, cfg.n)
    if cfg.data is None:
        raise ConfigError("field_source=run requires a [data] section")
    result = evolve(cfg.solver_config(), cfg.data)
    if not result.snapshots:
        raise ConfigError("run recorded no snapshots; set snapshot_times")
    return result.field()


def _scenario_verify_localized(cfg: RunConfig, outdir):
    if not cfg.t_star:
        raise ConfigError("verify-localized needs diagnostics.t_star")
    fieldobj = _diagnostic_field(cfg)
    q = cfg.quadrature
    rows = ["t_star,kind,lhs,rhs,ratio"]
    checks = []
    for ts in cfg.t_star:
        chk = energetics.localized_estimate_check(
            fieldobj, "annulus", (cfg.sigma0, cfg.sigma1), cfg.gamma,
            cfg.eta, ts, cfg.p, cfg.n, q)
        d = cfg.precision
        rows.append(f"{ts:.{d}g},annulus,{chk.lhs:.{d}g},{chk.rhs:.{d}g},"
                    f"{chk.ratio:.{d}g}")
        checks.append(chk)
    _write(os.path.join(outdir, "localized.csv"), "\n".join(rows) + "\n")
    ratios = [c.ratio for c in checks if c.lhs != 0.0]  # vacuous cases pass
    if not ratios:
        _summary(outdir, status="pass", note="all cases vacuous",
                 band=cfg.ratio_band)
        return 0
    finite = all(math.isfinite(x) and x > 0 for x in ratios)
    stable = finite and max(ratios) / min(ratios) <= cfg.ratio_band
    _summary(outdir, status="pass" if (finite and stable) else "fail",
             ratio_min=min(ratios), ratio_max=max(ratios),
             band=cfg.ratio_band)
    return 0 if (finite and stable) else 3


def _scenario_energy_profile(cfg: RunConfig, outdir):
    fieldobj = _diagnostic_field(cfg)
    times = cfg.t_star if cfg.t_star else tuple(
        t for t in cfg.snapshot_times if t < 0)
    if not times:
        raise ConfigError("no diagnostic times available")
    report = energetics.energy_profile(fieldobj, cfg.sigma0, cfg.sigma1,
                                       cfg.gamma, cfg.eta, times, cfg.p,
                                       cfg.n, cfg.quadrature)
    _write(os.path.join(outdir, "profile.csv"),
           energetics.profile_csv(report, cfg.precision))
    _summary(outdir, status="completed", times=len(times))
    return 0


def _scenario_rate_fit(cfg: RunConfig, outdir):
    fieldobj = _diagnostic_field(cfg)
    times = cfg.t_star if cfg.t_star else tuple(
        t for t in cfg.snapshot_times if t < 0)
    if len(times) < 3:
        raise ConfigError("rate fit needs at least 3 diagnostic times")
    vals = [energetics.weighted_ball_quantity(fieldobj, t, cfg.p, cfg.n,
                                        cfg.quadrature)[0] for t in times]
    window = cfg.window if cfg.window else None
    report = energetics.rate_fit(times, vals, window)
    d = cfg.precision
    rows = ["quantity,slope,residual,window_lo,window_hi,inf,sup,last_decade_max"]
    rows.append(f"mz_ball,{report.slope:.{d}g},{report.residual:.{d}g},"
                f"{report.window[0]:.{d}g},{report.window[1]:.{d}g},"
                f"{report.infimum:.{d}g},{report.supremum:.{d}g},"
                f"{report.last_decade_max:.{d}g}")
    _write(os.path.join(outdir, "rates.csv"), "\n".join(rows) + "\n")
    _summary(outdir, status="completed", slope=report.slope,
             infimum=report.infimum, supremum=report.supremum)
    return 0


def _scenario_decay(cfg: RunConfig, outdir):
    fieldobj = _diagnostic_field(cfg)
    report = energetics.decay_partials(fieldobj, cfg.sigma, cfg.horizons,
                                       cfg.p, cfg.n, cfg.quadrature)
    _write(os.path.join(outdir, "decay.csv"),
           energetics.decay_csv(report, cfg.precision))
    status = "completed"
    code = 0
    if cfg.strict:
        # tail masses after the first horizon must decrease strictly
        tails = report.bulk_segments[1:]
        cauchy_ok = all(b < a for a, b in zip(tails, tails[1:])) and tails[-1] > 0
        if not cauchy_ok:
            status, code = "fail", 3
    _summary(outdir, status=status,
             D_final=report.bulk[-1], L_final=report.lateral[-1])
    return code


def _scenario_sweep(cfg: RunConfig, outdir, parser, threads):
    if not parser.has_section("sweep"):
        raise ConfigError("sweep requires a [sweep] section")
    scenario = parser.get("sweep", "scenario", fallback="")
    if scenario not in ("simulate", "verify-carleman", "convergence"):
        raise ConfigError(
            "sweep scenario must be simulate, verify-carleman, or convergence")
    grid = {}
    for key in parser["sweep"]:
        if key == "scenario":
            continue
        grid[key] = _floats(parser.get("sweep", key))
    if not grid or any(len(v) == 0 for v in grid.values()):
        raise ConfigError("sweep grid is empty")

    if scenario == "convergence":
        return _sweep_convergence(cfg, outdir, grid)

    keys = sorted(grid)
    cells = [()]
    for k in keys:
        cells = [prev + ((k, v),) for prev in cells for v in grid[k]]
    # every cell is validated before any of them runs
    subs = {cell: _apply_cell(cfg, dict(cell)) for cell in cells}

    def job(cell):
        sub = subs[cell]
        subdir = os.path.join(outdir, "cell_" + "_".join(
            f"{k}{v:g}" for k, v in cell))
        os.makedirs(subdir, exist_ok=True)
        if scenario == "simulate":
            code = _scenario_simulate(sub, subdir)
        else:
            code = _scenario_verify_carleman(sub, subdir)
        return cell, code

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(job, cells))
    else:
        results = [job(c) for c in cells]

    rows = [",".join(keys) + ",exit_code"]
    worst = 0
    for cell, code in results:
        values = dict(cell)
        rows.append(",".join(f"{values[k]:.17g}" for k in keys) + f",{code}")
        worst = max(worst, code)
    _write(os.path.join(outdir, "sweep.csv"), "\n".join(rows) + "\n")
    _summary(outdir, status="pass" if worst == 0 else "fail",
             cells=len(cells))
    return worst


def _sweep_convergence(cfg: RunConfig, outdir, grid):
    """Resolution sweep with the homogeneous ODE core as the reference;
    aggregates a fitted order across the grid levels."""
    from .exact_solutions import OdeSolution
    from .solver import convergence_study

    if list(grid) != ["J"]:
        raise ConfigError("convergence sweep accepts only a J grid")
    levels = tuple(int(v) for v in grid["J"])
    if cfg.data is None or cfg.data.kind != "truncated_ode":
        raise ConfigError("convergence sweep requires truncated_ode data")
    sol = OdeSolution(cfg.p)
    t_ref = cfg.t_star[0] if cfg.t_star else 0.5 * (cfg.t0 + cfg.t_end)
    order, errors = convergence_study(
        cfg.solver_config(), cfg.data, levels,
        reference=lambda t, r: float(sol.value(t)) + 0.0 * r,
        t_ref=t_ref, core_radius=0.5 * cfg.data.cutoff)
    rows = ["J,error"]
    for J in sorted(errors):
        rows.append(f"{J},{errors[J]:.17g}")
    _write(os.path.join(outdir, "sweep.csv"), "\n".join(rows) + "\n")
    ok = abs(order - 2.0) <= 0.3
    _summary(outdir, status="pass" if ok else "fail",
             fitted_order=f"{order:.17g}", levels=len(levels))
    return 0 if ok else 3


def _apply_cell(cfg: RunConfig, cell: dict) -> RunConfig:
    import copy

    sub = copy.copy(cfg)
    for key, value in cell.items():
        if key == "J":
            sub.J = int(value)
        elif key == "p":
            sub.p = float(value)
        elif key == "gamma":
            sub.gamma = float(value)
        elif key == "a":
            sub.a_values = (float(value),)
        elif key == "M":
            if sub.data is None or sub.data.kind != "truncated_ode":
                raise ConfigError("sweeping M requires truncated_ode data")
            sub.data = InitialDataSpec.truncated_ode(float(value),
                                                     sub.data.ramp_width,
                                                     p=sub.p)
        else:
            raise ConfigError(f"unsupported sweep key {key!r}")
    if "p" in cell and sub.data is not None and sub.data.kind == "truncated_ode":
        # the truncated ODE profile is phi*(t0) for this cell's p
        sub.data = InitialDataSpec.truncated_ode(sub.data.cutoff,
                                                 sub.data.ramp_width, p=sub.p)
    _validate(sub)
    return sub


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def run(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="conewave")
    ap.add_argument("subcommand", choices=SUBCOMMANDS)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--threads", type=int, default=None)
    args = ap.parse_args(argv)

    threads = args.threads
    if threads is None:
        threads = int(os.environ.get("CONEWAVE_THREADS", "1"))

    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        outdir = args.out if args.out is not None else cfg.directory
        os.makedirs(outdir, exist_ok=True)

        if args.subcommand == "simulate":
            return _scenario_simulate(cfg, outdir)
        if args.subcommand == "verify-carleman":
            return _scenario_verify_carleman(cfg, outdir, threads)
        if args.subcommand == "verify-localized":
            return _scenario_verify_localized(cfg, outdir)
        if args.subcommand == "energy-profile":
            return _scenario_energy_profile(cfg, outdir)
        if args.subcommand == "rate-fit":
            return _scenario_rate_fit(cfg, outdir)
        if args.subcommand == "decay":
            return _scenario_decay(cfg, outdir)
        if args.subcommand == "sweep":
            parser = configparser.ConfigParser()
            parser.optionxform = str
            parser.read(args.config)
            return _scenario_sweep(cfg, outdir, parser, threads)
        raise ConfigError(f"unknown subcommand {args.subcommand}")
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, NonFiniteSample) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except IOError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
