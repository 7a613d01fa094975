"""Acceptance gate: every shipped criterion at its stated tolerance, one
printed pass/fail line per criterion."""

import math
import time

import numpy as np
import pytest

from conewave.carleman import CarlemanParams, verify_global, verify_shifted
from conewave.cli import _random_case, run
from conewave.energetics import (
    annulus_quantity,
    decay_partials,
    localized_estimate_check,
    weighted_ball_quantity,
    rate_fit,
    slab_quantity,
)
from conewave.exact_solutions import (
    InitialDataSpec,
    OdeSolution,
    annulus_scaling_constant,
    ball_quantity_ode,
    ode_field,
    slab_scaling_constant,
)
from conewave.fields import gaussian_pulse, polynomial_gaussian
from conewave.geometry import (
    ExteriorRegionSpec,
    ShiftedWeight,
    covering_check,
)
from conewave.quadrature import QuadratureSpec
from conewave.solver import SolverConfig, blowup_estimate, convergence_study, evolve

Q = QuadratureSpec()


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def truncated_run_field():
    times = tuple(sorted(-np.geomspace(0.04, 1.0, 65)))
    cfg = SolverConfig(n=3, p=2.0, J=2048, R=4.0, t0=-1.0, t_end=0.0,
                       snapshot_times=times, record_energy=False)
    res = evolve(cfg, InitialDataSpec.truncated_ode(2.0, 0.25))
    return res.levels


@pytest.fixture(scope="module")
def decay_run_field():
    cfg = SolverConfig(n=3, p=2.0, J=1024, R=72.0, t0=1.0, t_end=33.0,
                       snapshot_times=tuple(np.linspace(1.0, 33.0, 129)),
                       record_energy=False)
    res = evolve(cfg, InitialDataSpec.gaussian(0.02, 0.5))
    assert res.status == "completed"
    return res.levels


def test_criterion_1_weight_identity():
    # g(grad f, grad f) = f on the radial pair that the Carleman suite runs:
    # the weight from the ray of velocity v, centred at c = v t*, is
    # value_radial at r = |x - c|, and the identity reads -f_t^2 + f_r^2 = f
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10_000):
        ts = rng.uniform(-3.0, 3.0)
        v = rng.uniform(-0.9, 0.9, size=2)
        if np.linalg.norm(v) >= 0.95:
            v *= 0.9 / np.linalg.norm(v)
        t, x = rng.uniform(-5, 5), rng.uniform(-5, 5, size=3)
        rho = math.dist(x, (*(v * ts), 0.0))
        w = ShiftedWeight(ts)
        f = w.value_radial(t, rho)
        ft, fr = w.grad_radial(t, rho)
        scale = max(abs(f), 1e-300)
        worst = max(worst, abs(-ft * ft + fr * fr - f) / scale)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    report(1, ok, f"max rel err {worst:.2e} over 1e4 points in {elapsed:.2f}s")


def test_criterion_2_global_carleman_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(np.random.PCG64(7))
    failures = 0
    worst_slack = math.inf
    for idx in range(200):
        (params, fieldobj, region), _ = _random_case(rng)
        rep = verify_global(params, fieldobj, region, Q)
        worst_slack = min(worst_slack, rep.slack + rep.tolerance)
        if not rep.passed:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 300.0
    report(2, ok, f"200 randomized instances, {failures} failures, "
                  f"min(slack+tol) {worst_slack:.2e}, {elapsed:.1f}s")


def test_criterion_3_shifted_estimate():
    rng = np.random.default_rng(11)
    a, p, n = 0.25, 2.0, 3
    worst_spread = 0.0
    flux_ok = True
    for case in range(20):
        amp = float(np.exp(rng.uniform(np.log(0.05), np.log(2.0))))
        tc_rel = float(rng.uniform(0.85, 1.15))
        wt_rel = float(rng.uniform(0.2, 0.4))
        wr_rel = float(rng.uniform(0.15, 0.35))
        poly = case % 2 == 1
        ratios = []
        for lam in (1.0, 2.0, 4.0):
            ext = ExteriorRegionSpec(0.5, lam)
            params = CarlemanParams(a=a, p=p, n=n, shift=ext.weight)
            scale_amp = amp * lam ** (-2.0 / (p - 1.0))
            if poly:
                # polynomial coefficients carry inverse length scales
                fld = polynomial_gaussian(n, scale_amp, tc_rel * lam,
                                          wt_rel * lam, wr_rel * lam,
                                          c1=0.3 / lam, c2=-0.2 / lam ** 2)
            else:
                fld = gaussian_pulse(n, scale_amp, tc_rel * lam,
                                     wt_rel * lam, wr_rel * lam)
            rep = verify_shifted(params, fld, ext)
            ratios.append(rep.ratio)
            if lam == 1.0:
                mags = [abs(v) for v in rep.flux_trail]
                flux_ok = flux_ok and mags[0] > mags[1] > mags[2]
        spread = max(ratios) / min(ratios)
        worst_spread = max(worst_spread, spread)
    ok = worst_spread <= 2.0 and flux_ok
    report(3, ok, f"20 fields, worst K spread under t* in {{1,2,4}}: "
                  f"{worst_spread:.3f}, flux trails decreasing: {flux_ok}")


def test_criterion_4_ode_scaling_laws():
    field = ode_field(2.0, 3)
    cg, cp = annulus_scaling_constant(2.0, 3, 0.25, 0.5)
    sg, sp = slab_scaling_constant(2.0, 3, 0.25, 1.2)
    assert cg == pytest.approx(65.97, abs=0.01)
    assert cp == pytest.approx(16.49, abs=0.01)
    worst = 0.0
    # three decades of t
    for t in (-1.0, -0.1, -0.01):
        [(val, _)] = annulus_quantity(field, 0.25, 0.5, [t], 2.0, 3, Q)
        worst = max(worst, abs(val - (cg + cp)) / (cg + cp))
    for ts in (-0.9, -0.09, -0.009):
        (val, _), _ = slab_quantity(field, 0.25, 1.2, ts, 2.0, 3, Q)
        worst = max(worst, abs(val - (sg + sp)) / (sg + sp))
    ok = worst < 1e-2
    report(4, ok, f"annulus {cg + cp:.4f} (grad {cg:.2f}, phi^2 {cp:.2f}), "
                  f"slab {sg + sp:.4f}; worst rel dev {worst:.2e}")


def test_criterion_5_solver_convergence():
    start = time.perf_counter()
    cfg = SolverConfig(n=3, p=2.0, R=4.0, t0=-1.0, t_end=0.0,
                       record_energy=False)
    data = InitialDataSpec.truncated_ode(2.0, 0.25)
    sol = OdeSolution(2.0)
    order, errors = convergence_study(
        cfg, data, (512, 1024, 2048),
        reference=lambda t, r: float(sol.value(t)) + 0.0 * r,
        t_ref=-0.2, core_radius=0.5)
    runs = {}
    for J in (512, 1024, 2048):
        c = SolverConfig(n=3, p=2.0, J=J, R=4.0, t0=-1.0, t_end=0.5,
                         record_energy=False)
        runs[J] = evolve(c, data)
    t_cross = sol.threshold_crossing(1e6)
    t_bs = [runs[J].t_blowup for J in (512, 1024, 2048)]
    gaps = [abs(tb - t_cross) for tb in t_bs]
    rich = blowup_estimate(runs[1024], runs[2048])
    elapsed = time.perf_counter() - start
    ok = (abs(order - 2.0) <= 0.3
          and all(abs(tb) <= 0.05 for tb in t_bs)
          and gaps[0] > gaps[1] > gaps[2]
          and abs(t_cross) < 0.0025
          and abs(rich - t_cross) <= runs[1024].dt
          and elapsed < 600.0)
    report(5, ok, f"order {order:.3f}, t_b {['%.5f' % tb for tb in t_bs]} "
                  f"-> crossing {t_cross:.5f} (gaps {['%.1e' % g for g in gaps]}), "
                  f"richardson {rich:.5f}, {elapsed:.1f}s")


def test_criterion_6_mz_rate(truncated_run_field):
    times = [t for t in truncated_run_field.times if -0.5 <= t <= -0.05]
    vals = [v for v, _ in weighted_ball_quantity(truncated_run_field, times,
                                                 2.0, 3, Q)]
    rep = rate_fit(times, vals)
    target = ball_quantity_ode(2.0, 3)
    ok = (abs(rep.slope) <= 0.1
          and rep.infimum > 0.0
          and target / 3.0 <= rep.infimum <= target * 3.0)
    report(6, ok, f"slope {rep.slope:.4f}, observed inf {rep.infimum:.3f} "
                  f"vs closed form {target:.3f}")


def test_criterion_7_localized_ratio(truncated_run_field):
    def spread(field):
        ratios = []
        for ts in (-0.5, -0.25, -0.125):
            chk = localized_estimate_check(field, 0.25, 0.5, 1.2, 2.0, ts,
                                           2.0, 3, Q)
            if not (math.isfinite(chk.ratio) and chk.ratio > 0):
                return math.inf, ratios
            ratios.append(chk.ratio)
        return max(ratios) / min(ratios), ratios

    s_ode, r_ode = spread(ode_field(2.0, 3))
    s_run, r_run = spread(truncated_run_field)
    # +-20% variation allowance around the mid value: max/min <= 1.2/0.8
    ok = s_ode <= 1.5 and s_run <= 1.5
    report(7, ok, f"ratio spread: phi* {s_ode:.3f} (values "
                  f"{['%.3f' % v for v in r_ode]}), run {s_run:.3f}")


def test_criterion_8_decay_diagnostic(decay_run_field):
    rep = decay_partials(decay_run_field, 0.5, (4.0, 8.0, 16.0, 32.0),
                         2.0, 3, Q)
    seg = dict(zip(rep.horizons, rep.bulk_segments))
    lat = dict(zip(rep.horizons, rep.lateral))
    inc = (seg[8.0], seg[16.0], seg[32.0])  # D(2T) - D(T) for T = 4, 8, 16
    lateral_growth = (lat[16.0] - lat[8.0]) / lat[8.0]
    ok = inc[0] > inc[1] > inc[2] > 0.0 and lateral_growth < 0.10
    report(8, ok, f"D increments {['%.2e' % v for v in inc]} strictly "
                  f"decreasing, L(8->16) growth {lateral_growth:.2e}")


# No benchmark workload reaches the localized check or the decay partials,
# so their bits on criterion 7's and criterion 8's runs are pinned in hex.
LOCALIZED_BITS = {
    -0.5: ("0x1.5292d3b14b628p+4", "0x1.54ab98b031074p+12",
           "0x1.0195dbcf77b8dp+8"),
    -0.25: ("0x1.5283cdf82c5f9p+6", "0x1.53a7ca8a64c8cp+14",
            "0x1.00dcd032018bap+8"),
    -0.125: ("0x1.527daf31e7d13p+8", "0x1.5314e678c6b08p+16",
             "0x1.00725d41f215bp+8"),
}
DECAY_BITS = {
    "bulk": ["0x1.0568a2fc85ae2p-21", "0x1.057317756a1d3p-21",
             "0x1.057317756ae81p-21", "0x1.057317756b0e6p-21"],
    "lateral": ["0x1.4f9b145ea505bp-9", "0x1.60c48d8c116c6p-9",
                "0x1.60c48d926fe6ep-9", "0x1.60c48d92dbfb9p-9"],
    "bulk_segments": ["0x1.0568a2fc85ae2p-21", "0x1.4e8f1c8de1dafp-34",
                      "0x1.95c912d3e76b2p-62", "0x1.326579f5eaa76p-64"],
}


def test_localized_and_decay_bits_are_pinned(truncated_run_field,
                                             decay_run_field):
    for ts, want in LOCALIZED_BITS.items():
        chk = localized_estimate_check(truncated_run_field, 0.25, 0.5, 1.2,
                                       2.0, ts, 2.0, 3, Q)
        assert (chk.lhs.hex(), chk.rhs.hex(), chk.ratio.hex()) == want
    rep = decay_partials(decay_run_field, 0.5, (4.0, 8.0, 16.0, 32.0),
                         2.0, 3, Q)
    for part, want in DECAY_BITS.items():
        assert [v.hex() for v in getattr(rep, part)] == want


def test_criterion_9_reproducibility(tmp_path):
    config_text = """
[problem]
n = 3
p = 2.0

[grid]
R = 6.0
J = 128
cfl = 0.9
t0 = -1.0
t_end = -0.2
snapshot_times = -0.5

[data]
kind = truncated_ode
M = 2.0
w = 0.25

[verify]
cases = 25
seed = 99

[output]
directory = out
"""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config_text)
    pairs = []
    for tag in ("x", "y"):
        out = tmp_path / f"carleman_{tag}"
        assert run(["verify-carleman", "--config", str(cfg),
                    "--out", str(out)]) == 0
        pairs.append((out / "carleman.csv").read_bytes())
    carleman_same = pairs[0] == pairs[1]
    sim = []
    for tag in ("x", "y"):
        out = tmp_path / f"sim_{tag}"
        assert run(["simulate", "--config", str(cfg),
                    "--out", str(out)]) == 0
        sim.append((out / "run.csv").read_bytes()
                   + (out / "snap_0000.dat").read_bytes())
    sim_same = sim[0] == sim[1]
    ok = carleman_same and sim_same
    report(9, ok, f"verify-carleman bytes identical: {carleman_same}, "
                  f"simulate bytes identical: {sim_same}")


def test_criterion_10_two_ray_covering():
    # the covering lemma: two exterior regions, from rays inside the cone,
    # cover a thin enough slab around t* = 1, and their cone-boundary
    # pieces sit in the lateral slab of eta exactly when eta > eta*
    sigma, v = 0.5, 0.25
    rays = ((), (v, 0.0))
    tight = covering_check(sigma, 1.0 + 1e-6, 1.0, *rays, n=3)
    wide = covering_check(sigma, 10.0, 1.0, *rays, n=3)
    t, x = wide.witness or (None, None)
    r = None if x is None else math.dist(x, [0.0] * 3)
    # a genuine witness: in the slab and the cone, outside both regions
    genuine = (t is not None and 0.1 < t < 10.0 and 0.0 < r < sigma * t
               and all(abs(t - 1.0) >= np.linalg.norm(np.asarray(x) - c)
                       for c in (np.zeros(3), np.array([v, 0.0, 0.0]))))
    v = 0.2
    rays = ((), (v, 0.0))
    eta_star = max((1 + v) / (1 - sigma), (1 + sigma) / (1 - v))
    above = covering_check(sigma, 1.1, 1.0, *rays, n=3,
                           eta=eta_star * 1.05)
    below = covering_check(sigma, 1.1, 1.0, *rays, n=3,
                           eta=eta_star * 0.9)
    ok = (bool(tight) and not wide.covered and genuine
          and above.boundary_ok and not below.boundary_ok)
    witness = f"(t={t:.3f}, r={r:.3f})" if t is not None else "none"
    report(10, ok, f"gamma 1+1e-6 covered: {bool(tight)}, gamma 10 witness "
                   f"{witness} genuine: {genuine}, boundary in the eta slab "
                   f"at 1.05 eta* = {1.05 * eta_star:.4f}: "
                   f"{above.boundary_ok}, at 0.9 eta*: {below.boundary_ok}")
