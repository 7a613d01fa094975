"""Command-line orchestration: sectioned key=value configs in, CSV reports
and a key=value summary out, with deterministic seeding.

Exit codes: 0 success, 1 an unexpected error (a library invariant or a
bug; Python prints the traceback), 2 config/validation error
(`ConfigError`, `LevelRangeError`), 3 scientific assertion failure or a
non-finite solver value or integrand sample, 4 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import copy
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from .exact_solutions import InitialDataSpec, OdeSolution, ode_field
from .fields import (LevelRangeError, ManufacturedField, PotentialSpec,
                     gaussian_rows, polynomial_gaussian, traveling_bump,
                     write_snapshots)
from .quadrature import NonFiniteSample, QuadratureSpec
from .solver import (SolverConfig, convergence_study, evolve,
                     finite_speed_check)

__all__ = ["RunConfig", "main", "run"]


class ConfigError(ValueError):
    """A config (or CLI) value the program cannot run with: exit 2."""


class _Key(NamedTuple):
    """One config key: `[section] key` is read by `kind` into the RunConfig
    attribute `attr` (`key` when empty), which holds `default` unless the
    file sets the key. `ok` tests the key's own range, which `need`
    describes. A [sweep] grid of the key runs only the scenarios in `sweep`."""

    section: str
    key: str
    kind: object  # int, float, str, _floats or _boolean
    default: object
    ok: object = None
    need: str = ""
    sweep: tuple = ()  # the scenarios that read the key
    attr: str = ""


def _floats(text):
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _boolean(text):
    return {"true": True, "false": False}[text.lower()]  # either, any case


def _above(low):
    return (lambda v: v > low), f"greater than {low}"


def _at_least(low):
    return (lambda v: v >= low), f"at least {low}"


def _one_of(*words):
    return (lambda v: v in words), " or ".join(words)


_KEYS = (
    _Key("problem", "n", int, 3, *_at_least(1)),
    _Key("problem", "p", float, 2.0, *_above(1), sweep=("simulate",)),
    _Key("problem", "potential", str, "constant",
         *_one_of("constant", "perturbed"), attr="pot_kind"),
    _Key("problem", "c0", float, 1.0, *_above(0)),
    _Key("problem", "pot_eps", float, 0.0),
    _Key("problem", "pot_center_t", float, 0.0),
    _Key("problem", "pot_center_r", float, 0.0),
    _Key("problem", "pot_width", float, 1.0, *_above(0)),
    _Key("problem", "pot_alpha", float, math.inf),
    _Key("grid", "R", float, 4.0, lambda v: 0 < v < math.inf,
         "finite and greater than 0"),
    _Key("grid", "J", int, 1024, *_at_least(8),
         sweep=("simulate", "convergence")),
    _Key("grid", "cfl", float, 0.9, lambda v: 0 < v <= 1, "in (0, 1]"),
    _Key("grid", "t0", float, -1.0),
    _Key("grid", "t_end", float, 0.0),
    _Key("grid", "phi_max", float, 1e6, *_above(0)),
    _Key("grid", "snapshot_times", _floats, ()),
    # log-spaced snapshot times on t0's side: |t|_min |t|_max per_decade
    _Key("grid", "snapshot_log", _floats, (),
         lambda v: not v or len(v) == 3 and 0 < v[0] < v[1] < math.inf
         and 0 < v[2] < math.inf,
         "empty or three finite values lo hi per with 0 < lo < hi and per > 0"),
    _Key("data", "kind", str, "gaussian",
         *_one_of("truncated_ode", "gaussian", "file"), attr="data_kind"),
    _Key("data", "M", float, 2.0, *_above(0), sweep=("simulate",)),
    _Key("data", "w", float, 0.25, *_above(0)),
    _Key("data", "amplitude", float, 1e-3),
    _Key("data", "width", float, 0.5, lambda v: 0 < v and 0 < v * v < math.inf,
         "greater than 0 with a finite nonzero square"),
    _Key("data", "path", str, ""),
    _Key("diagnostics", "sigma0", float, 0.25),
    _Key("diagnostics", "sigma1", float, 0.5),
    _Key("diagnostics", "sigma", float, 0.5, lambda v: 0 < v < 1, "in (0, 1)"),
    _Key("diagnostics", "gamma", float, 1.2, *_above(1)),
    _Key("diagnostics", "eta", float, 2.0, math.isfinite, "finite"),
    _Key("diagnostics", "t_star", _floats, (),
         lambda v: all(t != 0 and math.isfinite(t) for t in v),
         "each finite and nonzero"),
    # empty: each verify-carleman case draws its own a
    _Key("diagnostics", "a", _floats, (),
         lambda v: len(v) <= 1 and all(0 < a < math.inf for a in v),
         "empty or one finite positive value", sweep=("verify-carleman",)),
    _Key("diagnostics", "horizons", _floats, (4.0, 8.0, 16.0, 32.0),
         lambda v: all(h > 1 for h in v) and len(set(v)) == len(v),
         "distinct and greater than 1"),
    _Key("diagnostics", "window", _floats, (),
         lambda v: not v or len(v) == 2 and 0 < v[0] < v[1],
         "empty or two values lo hi with 0 < lo < hi"),
    _Key("diagnostics", "field_source", str, "run", *_one_of("run", "ode")),
    _Key("diagnostics", "cells", int, 48, *_at_least(4)),
    # below 1 every non-vacuous verify-localized run would fail
    _Key("diagnostics", "ratio_band", float, 1.5, *_at_least(1)),
    _Key("verify", "cases", int, 200, *_at_least(1)),
    _Key("verify", "seed", int, 7, *_at_least(0)),
    _Key("verify", "strict", _boolean, False),
    _Key("sweep", "scenario", str, None,
         *_one_of("simulate", "verify-carleman", "convergence"),
         attr="sweep_scenario"),
    _Key("output", "directory", str, "out"),
    _Key("output", "precision", int, 17, *_at_least(1)),
)
# (section, key) -> row; a [sweep] grid key maps to the row it sweeps
_ROWS = {(row.section, row.key): row for row in _KEYS}
_ROWS.update({("sweep", row.key): row for row in _KEYS if row.sweep})
_KIND_NAMES = {int: "an integer", float: "a float",
               _floats: "a list of floats", _boolean: "true or false"}


def _read(kind, text, label):
    """`text` as a value of `kind`, with no NaN in it."""
    try:
        value = kind(text)
    except (KeyError, ValueError):
        raise ConfigError(f"{label} must be {_KIND_NAMES[kind]}, "
                          f"got {text!r}") from None
    if any(v != v for v in (value if kind is _floats else (value,))):
        raise ConfigError(f"{label} must not be nan")
    return value


def _check_range(row, value, label):
    if row.ok is not None and not row.ok(value):
        raise ConfigError(f"{label} must be {row.need}, got {value!r}")


def _config_call(prefix, call, *args):
    """call(*args) where a ValueError or OSError is the config's fault: it
    is raised again as a ConfigError, `prefix` before its message."""
    try:
        return call(*args)
    except (OSError, ValueError) as exc:
        raise ConfigError(prefix + str(exc)) from None


class RunConfig:
    """A config's values: one attribute per row of `_KEYS` (the row's
    default unless the file sets the key), what `_build` makes of them, and
    `sweep`, the [sweep] grids by key. `data` and `sweep` are None without
    their section."""

    def __init__(self):
        for row in _KEYS:
            setattr(self, row.attr or row.key, row.default)
        self.potential = self.data = self.sweep = None

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
    try:
        found = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path!r}: {exc}") from None
    if not found:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    cfg = RunConfig()
    for section in parser.sections():
        if section not in {row.section for row in _KEYS}:
            raise ConfigError(f"unknown section [{section}]")
        if section == "sweep":
            cfg.sweep = {}
        for key, text in parser[section].items():
            row = _ROWS.get((section, key))
            if row is None:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            label = f"[{section}] {key}"
            if row.section != section:  # a sweep grid: floats, for file names
                grid = _read(_floats, text, label)
                if row.kind is int and not all(v.is_integer() for v in grid):
                    raise ConfigError(f"{label} must be a list of integers, "
                                      f"got {text!r}")
                cfg.sweep[key] = grid
                continue
            value = _read(row.kind, text, label)
            _check_range(row, value, label)
            setattr(cfg, row.attr or row.key, value)
    _build(cfg, parser.has_section("data"))
    _validate(cfg)
    return cfg


def _build(cfg: RunConfig, data: bool):
    """Makes `potential`, `data` (if `data`) and the `snapshot_log` times
    from the flat values, at parse time and again in each sweep cell."""
    cfg.potential = _config_call(  # the bump must keep V positive
        "[problem] c0, pot_eps, pot_width: ", PotentialSpec, cfg.pot_kind,
        cfg.c0, cfg.pot_eps, (cfg.pot_center_t, cfg.pot_center_r),
        cfg.pot_width)
    # before the data are evaluated: phi* overflows for some such p
    if cfg.n >= 2 and cfg.p >= 1.0 + 4.0 / (cfg.n - 1.0):
        raise ConfigError("p outside the subconformal range for this n")
    cfg.data = None if not data else InitialDataSpec(
        cfg.data_kind, cfg.p, cfg.M, cfg.w, cfg.amplitude, cfg.width, cfg.path)
    if data:
        if cfg.data_kind == "file" and not cfg.path:
            raise ConfigError("[data] kind = file needs [data] path")
        # evaluated out to the grid's last radius: a snapshot is read and
        # checked against t0 and R, and phi* needs t0 < 0
        _config_call(f"[data] path {cfg.path!r}: " if cfg.data_kind == "file"
                     else f"[data] kind = {cfg.data_kind}: ",
                     cfg.data.evaluate, cfg.t0, cfg.J * (cfg.R / cfg.J))
    if cfg.snapshot_log:
        lo, hi, per = cfg.snapshot_log
        count = max(2, int(round(per * math.log10(hi / lo))) + 1)
        mags = np.geomspace(lo, hi, count)
        sign = -1.0 if cfg.t0 < 0 else 1.0
        cfg.snapshot_times = tuple(sorted(sign * mags))


def _validate(cfg: RunConfig):
    """The checks that span keys; each key's own range is in `_KEYS`."""
    if not 0.0 < cfg.sigma0 < cfg.sigma1 < 1.0:
        raise ConfigError("need 0 < sigma0 < sigma1 < 1")
    if cfg.eta <= cfg.gamma:
        raise ConfigError("need eta > gamma")
    if cfg.t_end <= cfg.t0:
        raise ConfigError("need t0 < t_end")
    if cfg.strict and len(cfg.horizons) < 2:
        raise ConfigError("[verify] strict = true needs at least two "
                          "[diagnostics] horizons")
    _require_small_potential(cfg, cfg.t_star, "t_star")
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
        # a snapshot time outside the run would be dropped; snapshot_log
        # puts its endpoints on t0 or t_end up to rounding
        tol = 1e-9 * max(1.0, abs(cfg.t0), abs(cfg.t_end))
        outside = [t for t in cfg.snapshot_times
                   if not cfg.t0 - tol <= t <= cfg.t_end + tol]
        if outside:
            raise ConfigError(
                f"snapshot time {float(outside[0])!r} outside [t0, t_end] = "
                f"[{cfg.t0!r}, {cfg.t_end!r}]")
        needed = cfg.solver_config().causal_radius(r_diag)
        if cfg.R < needed:
            raise ConfigError(
                f"domain radius {cfg.R} too small for the causal buffer "
                f"(needs >= {needed:g})")


def _require_small_potential(cfg: RunConfig, times, name):
    """The smallness condition |grad V| |t| <= pot_alpha of a perturbed
    potential (sup |grad V| = |pot_eps|) at each diagnostic time; `name`
    says where the times came from."""
    for ts in times if cfg.pot_kind == "perturbed" else ():
        grad_t = abs(cfg.pot_eps) * abs(ts)
        if grad_t > cfg.pot_alpha + 1e-15:
            raise ConfigError(
                f"[problem] pot_alpha too small for {name} = {float(ts)!r}: "
                f"|grad V| t* = {grad_t:g} exceeds alpha = {cfg.pot_alpha:g}")


# --------------------------------------------------------------------------
# Scenario implementations: each returns its outcome, (exit code, summary
# key -> value, CSV tables), and `_emit` writes it
# --------------------------------------------------------------------------

def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _write_csv(outdir, name, header, rows, digits):
    """The header line, then one line per row: floats at `digits`
    significant digits, every other value as str()."""
    lines = [header] + [",".join(f"{v:.{digits}g}" if isinstance(v, float)
                                 else str(v) for v in row) for row in rows]
    _write(os.path.join(outdir, name), "\n".join(lines) + "\n")


def _emit(outdir, code, summary, tables):
    """Writes a scenario's outcome into `outdir`: each (name, header, rows,
    digits) table as a CSV, then `summary` (key -> value) as the last file.
    Returns the exit code `code`."""
    for table in tables:
        _write_csv(outdir, *table)
    _write(os.path.join(outdir, "summary"),
           "".join(f"{k}={v}\n" for k, v in summary.items()))
    return code


def _scenario_simulate(cfg: RunConfig, outdir):
    if cfg.data is None:
        raise ConfigError("simulate requires a [data] section")
    result = evolve(cfg.solver_config(), cfg.data)
    if result.snapshots:
        write_snapshots(outdir, cfg.n, cfg.p, result.r, result.snapshots)
    ok, witness = None, None  # file data has no known support
    if cfg.data.kind != "file":
        ok, witness = finite_speed_check(result, cfg.data.support_radius)
    speed = {None: "skipped", True: "pass"}.get(ok, f"fail at {witness}")
    t_b = result.t_blowup if result.t_blowup is not None else math.nan
    summary = dict(status=result.status, t_b=t_b, J=cfg.J,
                   dt=f"{result.dt:.17g}", max_phi=f"{result.max_phi:.17g}",
                   finite_speed=speed)
    return 3 if ok is False else 0, summary, [
        ("run.csv", "status,t_b,J,dt,max_phi",
         [(result.status, t_b, cfg.J, result.dt, result.max_phi)], 17)]


def _random_case(rng, forced_a=None):
    """One randomized admissible verification instance (theorem-backed)."""
    from . import carleman
    from .geometry import ShiftedWeight

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
    rows = gaussian_rows(A, tc, wt)
    kr = 1.0 / wr ** 2
    hr, kr2 = -0.5 * kr, kr * kr

    def jet(t, r):
        et, ct, bt = rows(t)
        x = r - rc
        x2 = x * x
        g = np.exp(x2 * hr)
        g *= et
        x *= -kr
        x *= g                      # phi_r
        x2 *= kr2
        x2 += bt - kr
        x2 *= g
        x2 += (n - 1) / r * x
        return g, ct * g, x, x2

    return ManufacturedField(n, jet)


def _scenario_verify_carleman(cfg: RunConfig, outdir):
    from . import carleman

    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    forced_a = cfg.a[0] if cfg.a else None
    cases = [_random_case(rng, forced_a) for _ in range(cfg.cases)]
    q = cfg.quadrature
    reports = [carleman.verify_global(*case, q) for case in cases]
    rows = [(idx, params.a, params.p, params.n, rep.lhs_bulk, rep.rhs_bulk,
             rep.rhs_boundary, rep.slack, sum(rep.error_estimates.values()),
             int(rep.passed))
            for idx, ((params, _, _), rep) in enumerate(zip(cases, reports))]
    failures = sum(not rep.passed for rep in reports)
    summary = dict(status="pass" if failures == 0 else "fail",
                   cases=cfg.cases, failures=failures, seed=cfg.seed)
    return 0 if failures == 0 else 3, summary, [
        ("carleman.csv",
         "case_id,a,p,n,lhs,rhs_bulk,rhs_boundary,slack,err_est,pass", rows,
         cfg.precision)]


def _diagnostic_field(cfg: RunConfig, t_late=-math.inf):
    """The field a diagnostic reads, at times up to `t_late`."""
    if cfg.field_source == "ode":
        # the ODE profile solves the equation with V = 1 only, on t < 0
        if cfg.potential.kind != "constant":
            raise ConfigError("[problem] potential must be constant with "
                              "field_source = ode")
        if cfg.potential.c0 != 1.0:
            raise ConfigError("[problem] c0 must be 1 with field_source = "
                              f"ode, got {cfg.potential.c0!r}")
        if t_late > 0:
            raise ConfigError("[diagnostics] field_source = ode is the blow-up "
                              "profile on t < 0 only, read here at t = "
                              f"{t_late!r}")
        return _config_call("[diagnostics] field_source = ode: ",
                            ode_field, cfg.p, cfg.n)
    if cfg.data is None:
        raise ConfigError("field_source=run requires a [data] section")
    result = evolve(cfg.solver_config(), cfg.data)
    if not result.snapshots:
        raise ConfigError("run recorded no snapshots; set snapshot_times")
    return result.field()


def _scenario_verify_localized(cfg: RunConfig, outdir):
    if not cfg.t_star:
        raise ConfigError("verify-localized needs diagnostics.t_star")
    from . import energetics

    # a positive t_star's windows lie at t > 0
    fieldobj = _diagnostic_field(cfg, max(cfg.t_star))
    checks = [energetics.localized_estimate_check(
        fieldobj, "annulus", (cfg.sigma0, cfg.sigma1), cfg.gamma, cfg.eta, ts,
        cfg.p, cfg.n, cfg.quadrature) for ts in cfg.t_star]
    tables = [("localized.csv", "t_star,kind,lhs,rhs,ratio",
               [(c.t_star, c.kind, c.lhs, c.rhs, c.ratio) for c in checks],
               cfg.precision)]
    ratios = [c.ratio for c in checks if c.lhs != 0.0]  # vacuous cases pass
    if not ratios:
        return 0, dict(status="pass", note="all cases vacuous",
                       band=cfg.ratio_band), tables
    finite = all(math.isfinite(x) and x > 0 for x in ratios)
    stable = finite and max(ratios) / min(ratios) <= cfg.ratio_band
    return 0 if stable else 3, dict(
        status="pass" if stable else "fail", ratio_min=min(ratios),
        ratio_max=max(ratios), band=cfg.ratio_band), tables


def _diagnostic_times(cfg: RunConfig):
    """The times of energy-profile and rate-fit: `t_star`, or else the
    negative snapshot times, checked against pot_alpha as `t_star` is."""
    if cfg.t_star:
        if max(cfg.t_star) > 0:
            raise ConfigError("energy-profile and rate-fit need negative "
                              "[diagnostics] t_star")
        return cfg.t_star
    times = tuple(t for t in cfg.snapshot_times if t < 0)
    _require_small_potential(cfg, times, "snapshot time")
    return times


def _scenario_energy_profile(cfg: RunConfig, outdir):
    times = _diagnostic_times(cfg)
    if not times:
        raise ConfigError("no diagnostic times available")
    from . import energetics

    fieldobj = _diagnostic_field(cfg)
    rows = energetics.energy_profile(fieldobj, cfg.sigma0, cfg.sigma1,
                                     cfg.gamma, cfg.eta, times, cfg.p, cfg.n,
                                     cfg.quadrature)
    return 0, dict(status="completed", times=len(times)), [
        ("profile.csv", "t,annulus_q,slab_q,mz_q,lhs_1_6,rhs_1_6,ratio,err_est",
         rows, cfg.precision)]


def _scenario_rate_fit(cfg: RunConfig, outdir):
    times = _diagnostic_times(cfg)
    if len(times) < 3:
        raise ConfigError("rate fit needs at least 3 diagnostic times")
    from . import energetics

    fieldobj = _diagnostic_field(cfg)
    vals = [energetics.weighted_ball_quantity(fieldobj, t, cfg.p, cfg.n,
                                        cfg.quadrature)[0] for t in times]
    report = _config_call("rate-fit: ", energetics.rate_fit, times, vals,
                          cfg.window or None)
    return 0, dict(status="completed", slope=report.slope,
                   infimum=report.infimum, supremum=report.supremum), [
        ("rates.csv", "quantity,slope,residual,window_lo,window_hi,inf,sup,"
         "last_decade_max",
         [("mz_ball", report.slope, report.residual, *report.window,
           report.infimum, report.supremum, report.last_decade_max)],
         cfg.precision)]


def _scenario_decay(cfg: RunConfig, outdir):
    from . import energetics

    # the decay integrals run over t in [1, max horizon]
    fieldobj = _diagnostic_field(cfg, max(cfg.horizons))
    report = energetics.decay_partials(fieldobj, cfg.sigma, cfg.horizons,
                                       cfg.p, cfg.n, cfg.quadrature)
    code = 0
    if cfg.strict:
        # tail masses after the first horizon must decrease strictly
        tails = report.bulk_segments[1:]
        cauchy_ok = all(b < a for a, b in zip(tails, tails[1:])) and tails[-1] > 0
        code = 0 if cauchy_ok else 3
    return code, dict(status="fail" if code else "completed",
                      D_final=report.bulk[-1], L_final=report.lateral[-1]), [
        ("decay.csv", "T,D,L", zip(report.horizons, report.bulk,
                                   report.lateral), cfg.precision)]


def _scenario_sweep(cfg: RunConfig, outdir):
    if cfg.sweep is None or cfg.sweep_scenario is None:
        raise ConfigError("sweep requires a [sweep] section with a scenario")
    grid = cfg.sweep
    if not grid or any(len(v) == 0 for v in grid.values()):
        raise ConfigError("sweep grid is empty")
    for key in grid:
        if cfg.sweep_scenario not in _ROWS["sweep", key].sweep:
            raise ConfigError(f"[sweep] {key} is not read by "
                              f"{cfg.sweep_scenario}")
    if "M" in grid and (cfg.data is None or cfg.data.kind != "truncated_ode"):
        raise ConfigError("sweeping M requires truncated_ode data")

    if cfg.sweep_scenario == "convergence":
        return _sweep_convergence(cfg, grid)

    keys = sorted(grid)
    cells = [()]
    for k in keys:
        cells = [prev + ((k, v),) for prev in cells for v in grid[k]]
    # every cell is validated, and given its own directory, before any runs
    subs = [_apply_cell(cfg, dict(cell)) for cell in cells]
    names = {}
    for cell in cells:
        name = "cell_" + "_".join(f"{k}{v:g}" for k, v in cell)
        if name in names:
            raise ConfigError(f"sweep cells {_cell_text(names[name])} and "
                              f"{_cell_text(cell)} share the directory {name}")
        names[name] = cell
    codes = []
    for name, sub in zip(names, subs):
        subdir = os.path.join(outdir, name)
        os.makedirs(subdir, exist_ok=True)
        codes.append(_emit(subdir, *_SCENARIOS[cfg.sweep_scenario](sub, subdir)))
    worst = max(codes)
    return worst, dict(status="pass" if worst == 0 else "fail",
                       cells=len(cells)), [
        ("sweep.csv", ",".join(keys) + ",exit_code",
         [tuple(v for _, v in cell) + (code,)
          for cell, code in zip(cells, codes)], 17)]


def _cell_text(cell):
    return " ".join(f"{k}={v!r}" for k, v in cell)


def _sweep_convergence(cfg: RunConfig, grid):
    """Resolution sweep with the homogeneous ODE core as the reference;
    aggregates a fitted order across the grid levels."""
    if cfg.data is None or cfg.data.kind != "truncated_ode":
        raise ConfigError("convergence sweep requires truncated_ode data")
    for J in grid["J"]:  # each level is checked as a cell would be
        _apply_cell(cfg, {"J": J})
    levels = tuple(int(v) for v in grid["J"])
    for i, J in enumerate(levels):
        if J in levels[:i]:
            raise ConfigError(f"[sweep] J lists {J} more than once")
    sol = OdeSolution(cfg.p)
    t_ref = cfg.t_star[0] if cfg.t_star else 0.5 * (cfg.t0 + cfg.t_end)
    # one level, or a run that stops before t_ref, is the config's fault
    order, errors = _config_call(
        f"convergence sweep at t_ref = {t_ref!r}: ", convergence_study,
        cfg.solver_config(), cfg.data, levels,
        lambda t, r: float(sol.value(t)) + 0.0 * r, t_ref,
        0.5 * cfg.data.cutoff)
    ok = abs(order - 2.0) <= 0.3
    return 0 if ok else 3, dict(status="pass" if ok else "fail",
                                fitted_order=f"{order:.17g}",
                                levels=len(levels)), [
        ("sweep.csv", "J,error", sorted(errors.items()), 17)]


def _apply_cell(cfg: RunConfig, cell: dict) -> RunConfig:
    """A copy of `cfg` with each swept key set to the cell's value, checked
    and rebuilt as a parsed config is. Grid values are floats; an int key
    takes the integer (the parse checked that it is one), a list key the
    one-value list."""
    sub = copy.copy(cfg)
    for key, value in cell.items():
        row = _ROWS["sweep", key]
        value = (int(value) if row.kind is int else
                 (value,) if row.kind is _floats else value)
        _check_range(row, value, f"[sweep] {key}")
        setattr(sub, row.attr or row.key, value)
    _build(sub, sub.data is not None)
    _validate(sub)
    return sub


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

_SCENARIOS = {"simulate": _scenario_simulate,
              "verify-carleman": _scenario_verify_carleman,
              "verify-localized": _scenario_verify_localized,
              "energy-profile": _scenario_energy_profile,
              "rate-fit": _scenario_rate_fit, "decay": _scenario_decay,
              "sweep": _scenario_sweep}


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="conewave")
    ap.add_argument("subcommand", choices=_SCENARIOS)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", default=None)
    ap.add_argument("--seed", type=int, default=None)
    # every run is serial; the flag stays for callers that pass --threads 1
    ap.add_argument("--threads", type=int, choices=[1])
    args = ap.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            _check_range(_ROWS["verify", "seed"], args.seed, "--seed")
            cfg.seed = args.seed
        outdir = args.out if args.out is not None else cfg.directory
        os.makedirs(outdir, exist_ok=True)
        return _emit(outdir, *_SCENARIOS[args.subcommand](cfg, outdir))
    except (ConfigError, LevelRangeError) as exc:
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
