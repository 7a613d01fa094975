import math

import numpy as np
import pytest

from conewave import energetics
from conewave.energetics import (
    annulus_quantity,
    decay_partials,
    energy_profile,
    lateral_quantity,
    localized_estimate_check,
    lp_slab_quantity,
    weighted_ball_quantity,
    rate_fit,
    slab_quantity,
)
from conewave.exact_solutions import (
    InitialDataSpec,
    annulus_scaling_constant,
    ball_quantity_ode,
    ode_field,
    slab_scaling_constant,
)
from conewave.fields import DiscreteField, LevelRangeError, gaussian_pulse
from conewave.quadrature import QuadratureSpec
from conewave.solver import SolverConfig, evolve
from tests_helpers import annulus_sup_by_slice, one_at_a_time, zero_field

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

    def test_reversed_sigmas_raise(self):
        # sigma0 > sigma1 gave a silent (0.0, 0.0); the ordered call is 82.47
        with pytest.raises(ValueError, match=r"r_hi = 0\.125 < r_lo = 0\.25"):
            annulus_quantity(ode_field(2.0), 0.5, 0.25, -0.5, 2.0, 3)
        val, _ = annulus_quantity(ode_field(2.0), 0.25, 0.5, -0.5, 2.0, 3)
        assert val == pytest.approx(82.47, rel=1e-3)
        zero = annulus_quantity(ode_field(2.0), 0.25, 0.25, -0.5, 2.0, 3)
        assert zero == (0.0, 0.0)


class TestSlabQuantity:
    def test_ode_matches_scaling_constants(self):
        field = ode_field(2.0, 3)
        cg, cp = slab_scaling_constant(2.0, 3, 0.25, 1.5)
        for ts in (-0.8, -0.3):
            (val, err), _ = slab_quantity(field, 0.25, 1.5, ts, 2.0, 3, Q)
            assert val == pytest.approx(cg + cp, rel=1e-8 + err)

    def test_zero_field(self):
        assert slab_quantity(zero_field(3), 0.25, 1.5, -0.5, 2.0, 3, Q) == \
            ((0.0, 0.0), (0.0, 0.0))

    def test_thin_slab_linearity(self):
        # doubling gamma - 1 roughly doubles the slab quantity for phi*
        field = ode_field(2.0, 3)
        (v1, _), _ = slab_quantity(field, 0.25, 1.05, -0.5, 2.0, 3, Q)
        (v2, _), _ = slab_quantity(field, 0.25, 1.10, -0.5, 2.0, 3, Q)
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

    @pytest.mark.parametrize("t_star", [-0.5, 0.7])
    def test_timecone_rhs_is_the_lateral_quantity(self, t_star):
        # |t*| times the lateral integral over {r = sigma |t|, |t| in
        # (|t*|/eta, eta |t*|)}, the field read at the reflected time for
        # t* < 0: the bits of that construction written out
        from conewave.geometry import ConePiece
        from conewave.quadrature import integrate_surfaces

        field = gaussian_pulse(3, 1.3, 0.2, 0.6, 0.4)
        ats, sgn = abs(t_star), math.copysign(1.0, t_star)
        chk = localized_estimate_check(field, "timecone", 0.25, 1.2, 2.0,
                                       t_star, 2.0, 3, Q)
        [res] = integrate_surfaces(
            (ConePiece(0.25, ats / 2.0, ats * 2.0),),
            energetics._energy_density(field, ats, 2.0, sgn), Q, 3)
        assert chk.rhs > 0.0
        assert chk.rhs.hex() == (ats * res.value).hex()
        assert chk.rhs == ats * lateral_quantity(field, 0.25, 2.0, t_star,
                                                 2.0, 3, Q)[0]

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


class TestTimeCoverage:
    """Diagnostics on stored levels check their whole time window first,
    with the slack rule of the field's own interpolation."""

    @staticmethod
    def _field(times):
        r = np.linspace(0.0, 2.0, 33)
        phi = np.ones((len(times), r.size))
        return DiscreteField(np.asarray(times, dtype=float), r, phi, 0.0 * phi)

    def test_eta_windows_name_the_time_and_the_range(self):
        # t* = -0.08, eta = 2: both sides reach t*/eta = -0.04, past the
        # last level; the slab (gamma = 1.2) alone is covered
        fld = self._field(np.linspace(-1.0, -0.05, 20))
        calls = (
            lambda: lateral_quantity(fld, 0.25, 2.0, -0.08, 2.0, 3, Q),
            lambda: localized_estimate_check(fld, "timecone", 0.25, 1.2, 2.0,
                                             -0.08, 2.0, 3, Q),
            lambda: localized_estimate_check(fld, "annulus", (0.25, 0.5), 1.2,
                                             2.0, -0.08, 2.0, 3, Q),
        )
        for call in calls:
            with pytest.raises(ValueError, match=r"^time -0\.04 outside the "
                               r"stored range \[-1\.0, -0\.05\]$"):
                call()

    def test_one_slack_rule(self):
        # the slack is 1e-9 max(1, largest |level|), for the window check and
        # for the interpolation alike
        fld = self._field(np.linspace(1.0, 33.0, 9))
        inside, outside = 33.0 + 2e-8, 33.0 + 5e-8
        fld.require_times(inside)
        fld.value(inside, 0.5)
        for check in (lambda: fld.require_times(outside),
                      lambda: fld.value(outside, 0.5)):
            with pytest.raises(LevelRangeError,
                               match=f"time {outside!r} outside"):
                check()
        zero_field(3).require_times(outside)  # a closed form covers it


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

    def test_lateral_pieces_are_one_family(self, monkeypatch):
        # one integrate_surfaces call for every horizon, with the bits of
        # one piece integrated at a time
        cfg = SolverConfig(n=3, p=2.0, J=256, R=16.0, t0=1.0, t_end=8.5,
                           snapshot_times=tuple(np.linspace(1.0, 8.5, 31)),
                           record_energy=False)
        field = evolve(cfg, InitialDataSpec.gaussian(0.02, 0.5)).field()
        horizons = (2.0, 4.0, 8.0)
        calls = []
        inner = energetics.integrate_surfaces

        def counting(pieces, *args):
            calls.append(len(pieces))
            return inner(pieces, *args)

        monkeypatch.setattr(energetics, "integrate_surfaces", counting)
        got = decay_partials(field, 0.5, horizons, 2.0, 3, Q)
        assert calls == [len(horizons)]
        one_at_a_time(monkeypatch)
        want = decay_partials(field, 0.5, horizons, 2.0, 3, Q)
        assert all(v > 0.0 for v in got.lateral + got.bulk_segments)
        for part in ("bulk", "lateral", "bulk_segments"):
            assert _bits(getattr(got, part)) == _bits(getattr(want, part))


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
                (sv, _), _ = slab_quantity(field, 0.25, 1.2, ts, 2.0, 3, Q)
                window = [t for t in field.times
                          if abs(ts) / 2 <= -t <= min(1.0, 2 * abs(ts))]
                ann = max(annulus_quantity(field, 0.25, 0.5, t, 2.0, 3, Q)[0]
                          for t in window)
                K_members.append(sv / ann)
        assert max(K_members) <= 3.0 * min(K_members)

    def test_no_inner_concentration_diagnostic(self, truncated_run_field):
        # inner-mass hypothesis holds on the shipped blow-up scenario, and
        # the annulus quantity then stays bounded below over the same window
        from conewave.quadrature import integrate_slices

        field = truncated_run_field
        window = [t for t in field.times if -0.5 <= t <= -0.05]
        k2 = 4.0 / (2.0 - 1.0)
        inner_vals, annulus_vals = [], []
        for t in window:
            at = -t

            def integrand(tt, rr):
                v, v_t, v_r = field.jet(tt, rr)
                return v_t ** 2 + v_r ** 2 + v ** 2 / (at * at)

            [res] = integrate_slices([t], 0.0, 0.25 * at, integrand, Q, 3)
            inner_vals.append(at ** (2.0 - 3 + k2) * res.value)
            annulus_vals.append(annulus_quantity(field, 0.25, 0.5, t,
                                                 2.0, 3, Q)[0])
        assert min(inner_vals) > 0.0
        assert min(annulus_vals) > 0.0


class TestEnergyProfileOneSlabPass:
    """energy_profile integrates each slab once, through slab_quantity, for
    both the weighted energy and the localized check's left side; the mass
    has the bits of lp_slab_quantity's power-only pass."""

    def test_one_bulk_integral_per_time(self, monkeypatch, truncated_run_field):
        field = truncated_run_field
        times = (-0.4, -0.2, -0.1)
        calls = []
        inner = energetics.integrate_bulk

        def counting(*args, **kwargs):
            calls.append(args[0])
            return inner(*args, **kwargs)

        monkeypatch.setattr(energetics, "integrate_bulk", counting)
        rows = energy_profile(field, 0.25, 0.5, 1.2, 2.0, times, 2.0, 3, Q)
        assert len(calls) == len(times)
        monkeypatch.setattr(energetics, "integrate_bulk", inner)

        for t, row in zip(times, rows):
            (sv, se), (mass, _) = slab_quantity(field, 0.25, 1.2, t, 2.0, 3, Q)
            lv, _ = lp_slab_quantity(field, 0.25, 1.2, t, 2.0, 3, Q)
            chk = localized_estimate_check(field, "annulus", (0.25, 0.5), 1.2,
                                           2.0, t, 2.0, 3, Q)
            av, ae = annulus_quantity(field, 0.25, 0.5, t, 2.0, 3, Q)
            mv, me = weighted_ball_quantity(field, t, 2.0, 3, Q)
            _, le = lateral_quantity(field, 0.25, 2.0, t, 2.0, 3, Q)
            assert lv > 0.0
            assert row[0] == t
            assert row[1].hex() == av.hex()
            assert row[2].hex() == sv.hex()
            assert row[3].hex() == mv.hex()
            assert row[4].hex() == mass.hex() == lv.hex() == chk.lhs.hex()
            assert row[5].hex() == chk.rhs.hex()
            assert row[6].hex() == chk.ratio.hex()
            assert row[7].hex() == (ae + se + me + le).hex()


def _bits(values):
    return [float(v).hex() for v in values]


class TestAnnulusSupOneCall:
    """The annulus sup integrates its 17 levels as one family of slices,
    with the bits of one slice integration per level."""

    @pytest.mark.parametrize("t_star", [-0.3, -0.12])
    def test_discrete_field(self, truncated_run_field, t_star):
        got = energetics._annulus_sup(truncated_run_field, 0.25, 0.5, 2.0,
                                      t_star, 2.0, 3, Q)
        want = annulus_sup_by_slice(truncated_run_field, 0.25, 0.5, 2.0,
                                    t_star, 2.0, 3, Q)
        assert got.hex() == want.hex()
        assert got > 0.0

    # the sup levels of the reference: its default, or for t* = -0.4 with
    # eta = 2 the 17 equispaced levels of [0.2, 0.8] written out
    @pytest.mark.parametrize("t_star,sup_times", [
        (-0.5, None), (0.7, None), (-0.4, np.linspace(0.2, 0.8, 17))])
    def test_closed_form_fields(self, t_star, sup_times):
        fields = [gaussian_pulse(3, 0.8, 0.2, 0.5, 0.3), zero_field(3)]
        if t_star < 0:
            fields.append(ode_field(2.0, 3))
        for field in fields:
            got = energetics._annulus_sup(field, 0.25, 0.5, 2.0, t_star, 2.0,
                                          3, Q)
            want = annulus_sup_by_slice(field, 0.25, 0.5, 2.0, t_star, 2.0, 3,
                                        Q, sup_times)
            assert got.hex() == want.hex()

    def test_one_jet_per_level(self, monkeypatch, truncated_run_field):
        shapes = []
        inner = DiscreteField.jet

        def counting(self, t, r):
            shapes.append(np.shape(r))
            return inner(self, t, r)

        monkeypatch.setattr(DiscreteField, "jet", counting)
        energetics._annulus_sup(truncated_run_field, 0.25, 0.5, 2.0, -0.3,
                                2.0, 3, Q)
        assert shapes == [(17, 2 * Q.cells_r), (17, 4 * Q.cells_r)]

    def test_energy_profile_matches_the_one_at_a_time_path(
            self, monkeypatch, truncated_run_field):
        times = (-0.4, -0.2, -0.1)
        got = energy_profile(truncated_run_field, 0.25, 0.5, 1.2, 2.0, times,
                             2.0, 3, Q)
        one_at_a_time(monkeypatch)
        want = energy_profile(truncated_run_field, 0.25, 0.5, 1.2, 2.0, times,
                              2.0, 3, Q)
        assert [_bits(row) for row in got] == [_bits(row) for row in want]
