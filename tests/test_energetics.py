import math

import numpy as np
import pytest

from conewave.energetics import (
    annulus_quantity,
    decay_partials,
    energy_profile,
    localized_estimate_check,
    weighted_ball_quantity,
    profile_csv,
    rate_fit,
    slab_quantity,
)
from conewave.exact_solutions import (
    InitialDataSpec,
    annulus_scaling_constant,
    ball_quantity_ode,
    slab_scaling_constant,
)
from conewave.fields import zero_field, ode_field
from conewave.quadrature import QuadratureSpec
from conewave.solver import SolverConfig, evolve

Q = QuadratureSpec()


@pytest.fixture(scope="module")
def truncated_run_field():
    # snapshots dense enough for slab and sup-over-annulus diagnostics
    times = tuple(-np.geomspace(0.04, 1.0, 49))
    cfg = SolverConfig(n=3, p=2.0, J=1024, R=4.0, t0=-1.0, t_end=0.0,
                       snapshot_times=tuple(sorted(times)),
                       record_energy=False)
    res = evolve(cfg, InitialDataSpec.truncated_ode(2.0, 0.25))
    return res.field()


class TestAnnulusQuantity:
    def test_ode_matches_scaling_constants(self):
        field = ode_field(2.0, 3)
        cg, cp = annulus_scaling_constant(2.0, 3, 0.25, 0.5)
        for t in (-1.0, -0.1, -0.01):
            val, err = annulus_quantity(field, 0.25, 0.5, t, 2.0, 3, Q)
            assert val == pytest.approx(cg + cp, rel=1e-10 + err)

    def test_zero_field(self):
        val, _ = annulus_quantity(zero_field(3), 0.25, 0.5, -1.0, 2.0, 3, Q)
        assert val == 0.0

    def test_field_supported_inside_inner_cone(self):
        # compactly supported inside r < sigma0 |t|: annulus integral is 0
        from tests_helpers import compact_bump_field

        fld = compact_bump_field(3, 0.01, 0.2, -1.2, -0.8)
        val, _ = annulus_quantity(fld, 0.25, 0.5, -1.0, 2.0, 3, Q)
        assert val == 0.0


class TestSlabQuantity:
    def test_ode_matches_scaling_constants(self):
        field = ode_field(2.0, 3)
        cg, cp = slab_scaling_constant(2.0, 3, 0.25, 1.5)
        for ts in (-0.8, -0.3):
            val, err = slab_quantity(field, 0.25, 1.5, ts, 2.0, 3, Q)
            assert val == pytest.approx(cg + cp, rel=1e-8 + err)

    def test_zero_field(self):
        val, _ = slab_quantity(zero_field(3), 0.25, 1.5, -0.5, 2.0, 3, Q)
        assert val == 0.0

    def test_thin_slab_linearity(self):
        # doubling gamma - 1 roughly doubles the slab quantity for phi*
        field = ode_field(2.0, 3)
        v1, _ = slab_quantity(field, 0.25, 1.05, -0.5, 2.0, 3, Q)
        v2, _ = slab_quantity(field, 0.25, 1.10, -0.5, 2.0, 3, Q)
        assert v2 == pytest.approx(2.0 * v1, rel=0.1)


class TestWeightedBallQuantity:
    def test_ode_frozen_constant(self):
        field = ode_field(2.0, 3)
        expected = ball_quantity_ode(2.0, 3)
        for t in (-0.5, -0.1, -0.02):
            val, err = weighted_ball_quantity(field, t, 2.0, 3, Q)
            assert val == pytest.approx(expected, rel=1e-8 + err)

    def test_zero_field(self):
        val, _ = weighted_ball_quantity(zero_field(3), -0.5, 2.0, 3, Q)
        assert val == 0.0

    def test_truncated_run_within_factor_three(self, truncated_run_field):
        expected = ball_quantity_ode(2.0, 3)
        for t in (-0.5, -0.2, -0.05):
            val, _ = weighted_ball_quantity(truncated_run_field, t, 2.0, 3, Q)
            assert expected / 3.0 <= val <= expected * 3.0

    def test_requires_negative_time(self):
        with pytest.raises(ValueError):
            weighted_ball_quantity(ode_field(2.0, 3), 0.5, 2.0, 3, Q)


class TestLocalizedEstimate:
    def test_zero_field_vacuity(self):
        chk = localized_estimate_check(zero_field(3), "annulus", (0.25, 0.5),
                                       1.2, 2.0, -0.5, 2.0, 3, Q)
        assert chk.lhs == 0.0 and chk.rhs == 0.0
        assert math.isinf(chk.ratio)

    def test_ode_ratio_self_similar(self):
        # finite ratio, stable within +-20% across a self-similar t* sweep
        field = ode_field(2.0, 3)
        ratios = []
        for ts in (-0.5, -0.25, -0.125):
            chk = localized_estimate_check(field, "annulus", (0.25, 0.5),
                                           1.2, 2.0, ts, 2.0, 3, Q)
            assert math.isfinite(chk.ratio) and chk.ratio > 0.0
            ratios.append(chk.ratio)
        assert max(ratios) <= 1.2 * min(ratios)

    def test_timecone_kind_runs(self):
        field = ode_field(2.0, 3)
        chk = localized_estimate_check(field, "timecone", 0.25, 1.2, 2.0,
                                       -0.5, 2.0, 3, Q)
        assert math.isfinite(chk.ratio) and chk.ratio > 0.0
        assert chk.lhs > 0.0

    def test_run_ratio_positive_lower_bound(self, truncated_run_field):
        # theorem-backed: the ratio stays bounded below across the approach
        ratios = []
        for ts in (-0.5, -0.25, -0.125):
            chk = localized_estimate_check(truncated_run_field, "annulus",
                                           (0.25, 0.5), 1.2, 2.0, ts, 2.0, 3, Q)
            ratios.append(chk.ratio)
        assert min(ratios) > 0.0
        assert max(ratios) <= 1.5 * min(ratios)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            localized_estimate_check(zero_field(3), "nope", 0.25, 1.2, 2.0,
                                     -0.5, 2.0, 3, Q)


class TestDecayPartials:
    def test_zero_field(self):
        rep = decay_partials(zero_field(3), 0.5, (2.0, 4.0), 2.0, 3, Q)
        assert all(v == 0.0 for v in rep.bulk)
        assert all(v == 0.0 for v in rep.lateral)

    def test_small_data_cauchy_tail(self):
        cfg = SolverConfig(n=3, p=2.0, J=768, R=40.0, t0=1.0, t_end=17.0,
                           snapshot_times=tuple(np.linspace(1.0, 17.0, 65)),
                           record_energy=False)
        res = evolve(cfg, InitialDataSpec.gaussian(0.02, 0.5))
        field = res.field()
        rep = decay_partials(field, 0.5, (2.0, 4.0, 8.0, 16.0), 2.0, 3, Q)
        seg = dict(zip(rep.horizons, rep.bulk_segments))
        # tail masses strictly decrease: the pulse leaves the cone interior
        # by t = 2 * support radius and only wake plus nonlinear tails remain
        assert seg[4.0] > seg[8.0] > seg[16.0] > 0.0
        # cumulative D is nondecreasing by construction
        assert all(b2 >= b1 for b1, b2 in zip(rep.bulk, rep.bulk[1:]))
        # lateral cumulative stays essentially flat once the pulse leaves
        l = dict(zip(rep.horizons, rep.lateral))
        assert l[16.0] - l[8.0] <= 0.1 * l[8.0]
        # Hoelder-controlled term finite and increasing in T
        assert rep.holder[-1] >= rep.holder[0] >= 0.0


class TestRateFit:
    def test_pure_power_law(self):
        t = -np.geomspace(0.01, 1.0, 12)
        y = 5.0 * np.abs(t) ** (-3.0)
        rep = rate_fit(t, y)
        assert rep.slope == pytest.approx(-3.0, abs=1e-12)
        assert rep.residual == pytest.approx(0.0, abs=1e-12)

    def test_constant(self):
        t = -np.geomspace(0.01, 1.0, 8)
        rep = rate_fit(t, np.full(8, 2.5))
        assert rep.slope == pytest.approx(0.0, abs=1e-12)
        assert rep.infimum == rep.supremum == 2.5

    def test_window_and_observables(self):
        t = -np.geomspace(0.001, 1.0, 31)
        y = np.abs(t) ** 0.5
        rep = rate_fit(t, y, window=(0.01, 1.0))
        assert rep.window == (0.01, 1.0)
        assert rep.slope == pytest.approx(0.5, abs=1e-10)
        assert rep.last_decade_max == pytest.approx(math.sqrt(0.1), rel=1e-6)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            rate_fit([-1, -2], [1, 2])
        with pytest.raises(ValueError):
            rate_fit([-1, -2, -3], [1.0, -2.0, 3.0])

    def test_flat_rate_on_truncated_run(self, truncated_run_field):
        times = [t for t in truncated_run_field.times if -0.5 <= t <= -0.05]
        vals = [weighted_ball_quantity(truncated_run_field, t, 2.0, 3, Q)[0]
                for t in times]
        rep = rate_fit(times, vals)
        assert rep.slope == pytest.approx(0.0, abs=0.1)
        assert rep.infimum > 0.0


class TestProfilesAndCsv:
    def test_energy_profile_and_csv(self):
        field = ode_field(2.0, 3)
        report = energy_profile(field, 0.25, 0.5, 1.2, 2.0,
                                (-0.4, -0.2), 2.0, 3, Q)
        text = profile_csv(report)
        lines = text.strip().splitlines()
        assert lines[0] == "t,annulus_q,slab_q,mz_q,lhs_1_6,rhs_1_6,ratio,err_est"
        assert len(lines) == 3
        # every float printed with 17 significant digits round-trips
        for tok in lines[1].split(","):
            assert float(tok) == float(f"{float(tok):.17g}")

    def test_family_bound_single_constant(self):
        # across truncation radii, slab quantity <= K * annulus window
        # quantity with one K for all members (homogeneous core makes all
        # members agree with phi*), stable within factor 3 under refinement
        K_members = []
        for M in (1.0, 2.0, 4.0):
            for J in (384, 768):
                cfg = SolverConfig(n=3, p=2.0, J=J, R=4.0 + M, t0=-1.0,
                                   t_end=0.0, record_energy=False,
                                   snapshot_times=tuple(-np.geomspace(0.1, 1.0, 25)))
                res = evolve(cfg, InitialDataSpec.truncated_ode(M, 0.25))
                field = res.field()
                ts = -0.3
                sv, _ = slab_quantity(field, 0.25, 1.2, ts, 2.0, 3, Q)
                window = [t for t in field.times
                          if abs(ts) / 2 <= -t <= min(1.0, 2 * abs(ts))]
                ann = max(annulus_quantity(field, 0.25, 0.5, t, 2.0, 3, Q)[0]
                          for t in window)
                K_members.append(sv / ann)
        assert max(K_members) <= 3.0 * min(K_members)

    def test_no_inner_concentration_diagnostic(self, truncated_run_field):
        # inner-mass hypothesis holds on the shipped blow-up scenario, and
        # the annulus quantity then stays bounded below over the same window
        from conewave.quadrature import integrate_slice

        field = truncated_run_field
        window = [t for t in field.times if -0.5 <= t <= -0.05]
        k2 = 4.0 / (2.0 - 1.0)
        inner_vals, annulus_vals = [], []
        for t in window:
            at = -t

            def integrand(tt, rr):
                v, v_t, v_r = field.jet(tt, rr)
                return v_t ** 2 + v_r ** 2 + v ** 2 / (at * at)

            res = integrate_slice(t, 0.0, 0.25 * at, integrand, Q, 3)
            inner_vals.append(at ** (2.0 - 3 + k2) * res.value)
            annulus_vals.append(annulus_quantity(field, 0.25, 0.5, t,
                                                 2.0, 3, Q)[0])
        assert min(inner_vals) > 0.0
        assert min(annulus_vals) > 0.0
