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
from conewave.fields import DiscreteField, LevelRangeError, gaussian_pulse
from conewave import quadrature
from conewave.quadrature import QuadratureSpec, integrate_slices, sphere_area
from conewave.solver import SolverConfig, evolve
from tests_helpers import (annulus_sup_by_slice, one_at_a_time,
                           truncated_run_levels, zero_field)

Q = QuadratureSpec()


@pytest.fixture(scope="module")
def truncated_run_field():
    return truncated_run_levels()


class TestAnnulusQuantity:
    def test_ode_matches_scaling_constants(self):
        field = ode_field(2.0, 3)
        cg, cp = annulus_scaling_constant(2.0, 3, 0.25, 0.5)
        for t in (-1.0, -0.1, -0.01):
            [(val, err)] = annulus_quantity(field, 0.25, 0.5, [t], 2.0, 3, Q)
            assert val == pytest.approx(cg + cp, rel=1e-10 + err)

    def test_zero_field(self):
        [(val, _)] = annulus_quantity(zero_field(), 0.25, 0.5, [-1.0], 2.0,
                                      3, Q)
        assert val == 0.0

    def test_field_supported_inside_inner_cone(self):
        # compactly supported inside r < sigma0 |t|: annulus integral is 0
        from tests_helpers import compact_bump_field

        fld = compact_bump_field(3, 0.01, 0.2, -1.2, -0.8)
        [(val, _)] = annulus_quantity(fld, 0.25, 0.5, [-1.0], 2.0, 3, Q)
        assert val == 0.0

    def test_reversed_sigmas_raise(self):
        # sigma0 > sigma1 gave a silent (0.0, 0.0); the ordered call is 82.47
        with pytest.raises(ValueError, match=r"r_hi = 0\.125 < r_lo = 0\.25"):
            annulus_quantity(ode_field(2.0), 0.5, 0.25, [-0.5], 2.0, 3)
        [(val, _)] = annulus_quantity(ode_field(2.0), 0.25, 0.5, [-0.5], 2.0,
                                      3)
        assert val == pytest.approx(82.47, rel=1e-3)
        zero = annulus_quantity(ode_field(2.0), 0.25, 0.25, [-0.5], 2.0, 3)
        assert zero == [(0.0, 0.0)]


class TestSlabQuantity:
    def test_ode_matches_scaling_constants(self):
        field = ode_field(2.0, 3)
        cg, cp = slab_scaling_constant(2.0, 3, 0.25, 1.5)
        for ts in (-0.8, -0.3):
            (val, err), _ = slab_quantity(field, 0.25, 1.5, ts, 2.0, 3, Q)
            assert val == pytest.approx(cg + cp, rel=1e-8 + err)

    def test_zero_field(self):
        assert slab_quantity(zero_field(), 0.25, 1.5, -0.5, 2.0, 3, Q) == \
            ((0.0, 0.0), (0.0, 0.0))

    def test_thin_slab_linearity(self):
        # doubling gamma - 1 roughly doubles the slab quantity for phi*
        field = ode_field(2.0, 3)
        (v1, _), _ = slab_quantity(field, 0.25, 1.05, -0.5, 2.0, 3, Q)
        (v2, _), _ = slab_quantity(field, 0.25, 1.10, -0.5, 2.0, 3, Q)
        assert v2 == pytest.approx(2.0 * v1, rel=0.1)

    @staticmethod
    def _mass_error(p, n, slab):
        """|L - mass| and the mass's error estimate at t* = -0.5, sigma =
        0.25, gamma = 1.2, with L in closed form: on phi* = C (-t)^(-k) the
        slab mass is C^{p+1} |S^{n-1}| sigma^n / n times the integral of
        u^m, m = n - k(p+1), over u in [|t*|/gamma, gamma |t*|]."""
        sol = OdeSolution(p)
        m = n - sol.k * (p + 1.0)
        lo, hi = 0.5 / 1.2, 0.5 * 1.2
        exact = (sol.amplitude ** (p + 1.0) * sphere_area(n) * 0.25 ** n / n
                 * (hi ** (m + 1.0) - lo ** (m + 1.0)) / (m + 1.0))
        mass, err = slab(ode_field(p, n), 0.25, 1.2, -0.5, p, n, Q)[1]
        return abs(mass - exact), err

    @pytest.mark.parametrize("p,n", [(2.0, 3), (1.5, 3), (2.5, 3), (3.0, 2)])
    def test_ode_mass_matches_its_closed_form(self, p, n):
        gap, err = self._mass_error(p, n, slab_quantity)
        assert gap <= err

    @pytest.mark.parametrize("p,n", [(2.0, 3), (1.5, 3), (2.5, 3), (3.0, 2)])
    def test_the_closed_form_catches_a_mass_at_the_wrong_power(self, p, n):
        # the mutant integrates |phi|^{p+1.01}: 1.1-9.4 % off on these cases
        def mutant(field, sigma, gamma, t_star, p, n, q):
            return slab_quantity(field, sigma, gamma, t_star, p + 0.01, n, q)

        gap, err = self._mass_error(p, n, mutant)
        assert gap > err


class TestWeightedBallQuantity:
    def test_ode_frozen_constant(self):
        field = ode_field(2.0, 3)
        expected = ball_quantity_ode(2.0, 3)
        for t in (-0.5, -0.1, -0.02):
            [(val, err)] = weighted_ball_quantity(field, [t], 2.0, 3, Q)
            assert val == pytest.approx(expected, rel=1e-8 + err)

    def test_zero_field(self):
        [(val, _)] = weighted_ball_quantity(zero_field(), [-0.5], 2.0, 3, Q)
        assert val == 0.0

    def test_truncated_run_within_factor_three(self, truncated_run_field):
        expected = ball_quantity_ode(2.0, 3)
        for t in (-0.5, -0.2, -0.05):
            [(val, _)] = weighted_ball_quantity(truncated_run_field, [t], 2.0,
                                                3, Q)
            assert expected / 3.0 <= val <= expected * 3.0

    def test_requires_negative_time(self):
        with pytest.raises(ValueError):
            weighted_ball_quantity(ode_field(2.0, 3), [0.5], 2.0, 3, Q)


class TestLateralQuantity:
    @pytest.mark.parametrize("t_star", [-0.5, 0.7])
    def test_the_cone_piece_integral_written_out(self, t_star):
        # the integral over {r = sigma |t|, |t| in (|t*|/eta, eta |t*|)},
        # the field read at the reflected time for t* < 0: the bits of that
        # construction written out
        from conewave.geometry import ConePiece
        from conewave.quadrature import integrate_surfaces

        field = gaussian_pulse(3, 1.3, 0.2, 0.6, 0.4)
        ats, sgn = abs(t_star), math.copysign(1.0, t_star)
        [res] = integrate_surfaces(
            (ConePiece(0.25, ats / 2.0, ats * 2.0),),
            energetics._energy_density(field, ats, 2.0, sgn), Q, 3)
        got = lateral_quantity(field, 0.25, 2.0, t_star, 2.0, 3, Q)[0]
        assert got > 0.0
        assert got.hex() == res.value.hex()


    def test_a_nan_eta_is_refused(self):
        # before: the cone piece was built on NaN times
        with pytest.raises(ValueError, match="eta must exceed 1"):
            lateral_quantity(zero_field(), 0.25, math.nan, -0.5, 2.0, 3, Q)


class TestLocalizedEstimate:
    def test_zero_field_vacuity(self):
        chk = localized_estimate_check(zero_field(), 0.25, 0.5, 1.2, 2.0,
                                       -0.5, 2.0, 3, Q)
        assert chk.lhs == 0.0 and chk.rhs == 0.0
        assert math.isinf(chk.ratio)

    def test_ode_ratio_self_similar(self):
        # finite ratio, stable within +-20% across a self-similar t* sweep
        field = ode_field(2.0, 3)
        ratios = []
        for ts in (-0.5, -0.25, -0.125):
            chk = localized_estimate_check(field, 0.25, 0.5, 1.2, 2.0, ts,
                                           2.0, 3, Q)
            assert math.isfinite(chk.ratio) and chk.ratio > 0.0
            ratios.append(chk.ratio)
        assert max(ratios) <= 1.2 * min(ratios)

    @pytest.mark.parametrize("eta", [0.5, 1.0, math.nan])
    def test_the_eta_window_is_checked(self, eta):
        # before: eta = 0.5 gave rhs = 5409.8, a sup over levels from 1.0
        # down to 0.25, and NaN was refused by the slice bounds instead
        with pytest.raises(ValueError, match=r"^eta must exceed 1$"):
            localized_estimate_check(ode_field(2.0, 3), 0.25, 0.5, 1.2, eta,
                                     -0.5, 2.0, 3, Q)

    def test_run_ratio_positive_lower_bound(self, truncated_run_field):
        # theorem-backed: the ratio stays bounded below across the approach
        ratios = []
        for ts in (-0.5, -0.25, -0.125):
            chk = localized_estimate_check(truncated_run_field, 0.25, 0.5,
                                           1.2, 2.0, ts, 2.0, 3, Q)
            ratios.append(chk.ratio)
        assert min(ratios) > 0.0
        assert max(ratios) <= 1.5 * min(ratios)


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
            lambda: localized_estimate_check(fld, 0.25, 0.5, 1.2, 2.0, -0.08,
                                             2.0, 3, Q),
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
        fld.jet(inside, 0.5)
        for check in (lambda: fld.require_times(outside),
                      lambda: fld.jet(outside, 0.5)):
            with pytest.raises(LevelRangeError,
                               match=f"time {outside!r} outside"):
                check()
        zero_field().require_times(outside)  # a closed form covers it


class TestDecayPartials:
    def test_zero_field(self):
        rep = decay_partials(zero_field(), 0.5, (2.0, 4.0), 2.0, 3, Q)
        assert all(v == 0.0 for v in rep.bulk)
        assert all(v == 0.0 for v in rep.lateral)

    def test_small_data_cauchy_tail(self):
        cfg = SolverConfig(n=3, p=2.0, J=768, R=40.0, t0=1.0, t_end=17.0,
                           snapshot_times=tuple(np.linspace(1.0, 17.0, 65)),
                           record_energy=False)
        res = evolve(cfg, InitialDataSpec.gaussian(0.02, 0.5))
        field = res.levels
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
        field = evolve(cfg, InitialDataSpec.gaussian(0.02, 0.5)).levels
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

    def test_window_selects_the_same_samples_at_every_scale(self):
        # the window's slack scales with its ends: at |t| ~ 1e-14 an absolute
        # 1e-12 took in all four samples, not the three inside (2, 4)
        reps = [rate_fit([-1.0 * s, -2.0 * s, -3.0 * s, -4.0 * s],
                         [1.0, 2.0, 4.0, 8.0], (2.0 * s, 4.0 * s))
                for s in (1e-14, 1.0, 1e14)]
        for rep in reps:
            assert (rep.infimum, rep.supremum) == (2.0, 8.0)
            assert rep.slope == pytest.approx(reps[1].slope, abs=1e-12)
        inside = np.polyfit(np.log([2.0, 3.0, 4.0]), np.log([2.0, 4.0, 8.0]), 1)
        assert reps[1].slope == pytest.approx(inside[0], abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            rate_fit([-1, -2], [1, 2])
        with pytest.raises(ValueError):
            rate_fit([-1, -2, -3], [1.0, -2.0, 3.0])

    def test_flat_rate_on_truncated_run(self, truncated_run_field):
        times = [t for t in truncated_run_field.times if -0.5 <= t <= -0.05]
        vals = [v for v, _ in weighted_ball_quantity(truncated_run_field,
                                                     times, 2.0, 3, Q)]
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
                field = res.levels
                ts = -0.3
                (sv, _), _ = slab_quantity(field, 0.25, 1.2, ts, 2.0, 3, Q)
                window = [t for t in field.times
                          if abs(ts) / 2 <= -t <= min(1.0, 2 * abs(ts))]
                ann = max(v for v, _ in annulus_quantity(field, 0.25, 0.5,
                                                          window, 2.0, 3, Q))
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
            annulus_vals.append(annulus_quantity(field, 0.25, 0.5, [t],
                                                 2.0, 3, Q)[0][0])
        assert min(inner_vals) > 0.0
        assert min(annulus_vals) > 0.0


class TestEnergyProfileOneSlabPass:
    """energy_profile integrates each slab once, through slab_quantity, for
    both the weighted energy and the localized check's left side."""

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
            chk = localized_estimate_check(field, 0.25, 0.5, 1.2, 2.0, t,
                                           2.0, 3, Q)
            [(av, ae)] = annulus_quantity(field, 0.25, 0.5, [t], 2.0, 3, Q)
            [(mv, me)] = weighted_ball_quantity(field, [t], 2.0, 3, Q)
            _, le = lateral_quantity(field, 0.25, 2.0, t, 2.0, 3, Q)
            assert mass > 0.0
            assert row[0] == t
            assert row[1].hex() == av.hex()
            assert row[2].hex() == sv.hex()
            assert row[3].hex() == mv.hex()
            assert row[4].hex() == mass.hex() == chk.lhs.hex()
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
        fields = [gaussian_pulse(3, 0.8, 0.2, 0.5, 0.3), zero_field()]
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
        assert shapes == [(17, 2 * Q.cells), (17, 4 * Q.cells)]

    def test_energy_profile_matches_the_one_at_a_time_path(
            self, monkeypatch, truncated_run_field):
        times = (-0.4, -0.2, -0.1)
        got = energy_profile(truncated_run_field, 0.25, 0.5, 1.2, 2.0, times,
                             2.0, 3, Q)
        one_at_a_time(monkeypatch)
        want = energy_profile(truncated_run_field, 0.25, 0.5, 1.2, 2.0, times,
                              2.0, 3, Q)
        assert [_bits(row) for row in got] == [_bits(row) for row in want]


def _recording_jet(monkeypatch):
    """Records (t shape, r shape, output shapes) of each DiscreteField.jet."""
    calls = []
    inner = DiscreteField.jet

    def recording(self, t, r):
        out = inner(self, t, r)
        calls.append((np.shape(t), np.shape(r), {np.shape(v) for v in out}))
        return out

    monkeypatch.setattr(DiscreteField, "jet", recording)
    return calls


class TestHeadRead:
    """Inside a run's ODE core (each level's head) DiscreteField reads one
    value per mesh row, with the bits of reading each point."""

    def test_the_slab_integrand_gets_one_value_per_row(
            self, monkeypatch, truncated_run_field):
        calls = _recording_jet(monkeypatch)
        slab_quantity(truncated_run_field, 0.25, 1.2, -0.5, 2.0, 3, Q)
        assert calls
        for t_shape, r_shape, out_shapes in calls:
            assert t_shape == (r_shape[0], 1)
            assert out_shapes == {t_shape}

    def test_energy_profile_keeps_the_per_point_bits(
            self, monkeypatch, truncated_run_field):
        fld, times = truncated_run_field, (-0.5, -0.2, -0.1)
        calls = _recording_jet(monkeypatch)
        got = energy_profile(fld, 0.25, 0.5, 1.2, 2.0, times, 2.0, 3, Q)
        assert any(out == {t} != {r} for t, r, out in calls)
        monkeypatch.setattr(DiscreteField, "head", property(
            lambda self: np.zeros(self.times.size, dtype=np.intp)))
        calls.clear()
        # a new field: the fixture's has cached what it read of its head
        general = DiscreteField(fld.times, fld.r, fld.phi, fld.phi_t,
                                fld.r_limit)
        want = energy_profile(general, 0.25, 0.5, 1.2, 2.0, times, 2.0, 3, Q)
        assert all(out == {np.broadcast_shapes(t, r)} for t, r, out in calls)
        assert [_bits(row) for row in got] == [_bits(row) for row in want]


# --------------------------------------------------------------------------
# Families: the annuli and the balls of a profile's times are one family of
# slices each, with the bits of each time alone
# --------------------------------------------------------------------------

FAMILY_TIMES = (-0.5, -0.3, -0.2, -0.1, -0.05)
QUAD96 = QuadratureSpec(96)  # the benchmark's profile


def _pair_bits(pairs):
    return [_bits(pair) for pair in pairs]


def _profile_time_by_time(field, sigma0, sigma1, gamma, eta, times, p, n, q):
    """A profile's quantities one time at a time, in row order: the pass
    whose first refusal `energy_profile` must raise."""
    for t in times:
        annulus_quantity(field, sigma0, sigma1, [t], p, n, q)
        slab_quantity(field, sigma0, gamma, t, p, n, q)
        weighted_ball_quantity(field, [t], p, n, q)
        lateral_quantity(field, sigma0, eta, t, p, n, q)
        energetics._annulus_sup(field, sigma0, sigma1, eta, t, p, n, q)


class TestFamilies:
    @pytest.fixture(params=["run", "ode", "gaussian"])
    def field(self, request, truncated_run_field):
        return {"run": lambda: truncated_run_field,
                "ode": lambda: ode_field(2.0, 3),
                "gaussian": lambda: gaussian_pulse(3, 0.8, -0.2, 0.5, 0.3),
                }[request.param]()

    @pytest.mark.parametrize("sigma1", [0.5, 0.25], ids=["annulus", "empty"])
    @pytest.mark.parametrize("block", [None, 500])
    def test_annulus_family_has_the_bits_of_each_time(self, monkeypatch,
                                                      field, sigma1, block):
        alone = [annulus_quantity(field, 0.25, sigma1, [t], 2.0, 3, Q)[0]
                 for t in FAMILY_TIMES]
        # the construction of one time written out: its scale |t| a float
        expo = 2.0 - 3 + 4.0 / (2.0 - 1.0)
        written = []
        for t in FAMILY_TIMES:
            at = abs(t)
            [res] = integrate_slices([t], 0.25 * at, sigma1 * at,
                                     energetics._energy_density(field, at),
                                     Q, 3)
            written.append((at ** expo * res.value,
                            at ** expo * res.error_estimate))
        if block is not None:
            monkeypatch.setattr(quadrature, "BLOCK_NODES", block)
        got = annulus_quantity(field, 0.25, sigma1, FAMILY_TIMES, 2.0, 3, Q)
        assert _pair_bits(got) == _pair_bits(alone) == _pair_bits(written)
        if sigma1 == 0.25:
            assert got == [(0.0, 0.0)] * len(FAMILY_TIMES)
        else:
            assert all(value > 0.0 for value, _ in got)

    @pytest.mark.parametrize("block", [None, 500])
    def test_ball_family_has_the_bits_of_each_time(self, monkeypatch, field,
                                                   block):
        alone = [weighted_ball_quantity(field, [t], 2.0, 3, Q)[0]
                 for t in FAMILY_TIMES]
        if block is not None:
            monkeypatch.setattr(quadrature, "BLOCK_NODES", block)
        got = weighted_ball_quantity(field, FAMILY_TIMES, 2.0, 3, Q)
        assert _pair_bits(got) == _pair_bits(alone)
        assert all(value > 0.0 for value, _ in got)

    def test_one_slice_family_per_level(self, monkeypatch,
                                        truncated_run_field):
        shapes = []
        inner = DiscreteField.jet

        def recording(self, t, r):
            shapes.append(np.shape(r))
            return inner(self, t, r)

        monkeypatch.setattr(DiscreteField, "jet", recording)
        annulus_quantity(truncated_run_field, 0.25, 0.5, FAMILY_TIMES, 2.0, 3,
                         Q)
        weighted_ball_quantity(truncated_run_field, FAMILY_TIMES, 2.0, 3, Q)
        k = len(FAMILY_TIMES)
        assert shapes == [(k, 2 * Q.cells), (k, 4 * Q.cells)] * 2

    # each case names the refusal a time-by-time pass meets first, and a
    # later time that a family would meet first were the windows not checked
    # up front
    @pytest.mark.parametrize("name,times,gamma,eta", [
        ("run", (-0.3, -0.05, -1.5), 1.2, 2.0),  # -0.05's eta window
        ("ode", (-0.3, 0.2, 0.0), 1.2, 2.0),     # 0.2's ball, not 0.0's annulus
        ("ode", (-0.3, -0.2), 1.2, math.nan),    # eta
        ("run", (-0.3, -0.2, 0.0), 1.0, 2.0),    # gamma, not 0.0's annulus
    ], ids=["eta-window", "ball-sign", "eta-nan", "gamma"])
    def test_a_refused_time_raises_what_a_time_by_time_pass_does(
            self, truncated_run_field, name, times, gamma, eta):
        field = truncated_run_field if name == "run" else ode_field(2.0, 3)
        args = (field, 0.25, 0.5, gamma, eta, times, 2.0, 3, Q)
        with pytest.raises(ValueError) as want:
            _profile_time_by_time(*args)
        with pytest.raises(ValueError) as got:
            energy_profile(*args)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_a_refused_ball_time_raises_what_a_time_by_time_pass_does(
            self, truncated_run_field):
        times = (-0.3, 0.2, -1.5)
        with pytest.raises(ValueError, match="ball quantity requires t < 0"):
            for t in times:
                weighted_ball_quantity(truncated_run_field, [t], 2.0, 3, Q)
        with pytest.raises(ValueError, match="ball quantity requires t < 0"):
            weighted_ball_quantity(truncated_run_field, times, 2.0, 3, Q)


class TestProfileTraffic:
    """The reads of a small profile on a blow-up run, pinned: a change that
    loses the head read's one value per row (row-valued blocks double) or
    the annulus and ball families moves these counts."""

    TIMES = (-0.4, -0.3, -0.2, -0.1)

    @staticmethod
    def _counting(monkeypatch):
        calls = {"jet": [], "sums": 0}
        jet, sums = DiscreteField.jet, quadrature._weighted_sums

        def counting_jet(self, t, r):
            out = jet(self, t, r)
            calls["jet"].append((np.shape(r), {np.shape(v) for v in out}))
            return out

        def counting_sums(*args, **kwargs):
            calls["sums"] += 1
            return sums(*args, **kwargs)

        monkeypatch.setattr(DiscreteField, "jet", counting_jet)
        monkeypatch.setattr(quadrature, "_weighted_sums", counting_sums)
        return calls

    def test_a_blow_up_run(self, monkeypatch, truncated_run_field):
        calls = self._counting(monkeypatch)
        energy_profile(truncated_run_field, 0.25, 0.5, 1.2, 2.0, self.TIMES,
                       2.0, 3, QUAD96)
        # per level: one annulus and one ball family; per time, the slab and
        # the annulus sup (4 * 2 * 2); 68 reads, 4 of them lateral pieces
        assert calls["sums"] == 2 + 2 + 16
        assert len(calls["jet"]) == 68

    def test_a_gaussian_run_never_grows_a_block(self, monkeypatch):
        cfg = SolverConfig(n=3, p=2.0, J=1024, R=4.0, t0=-1.0, t_end=0.0,
                           snapshot_times=tuple(-np.geomspace(1.0, 0.04, 49)),
                           record_energy=False)
        field = evolve(cfg, InitialDataSpec.gaussian(1.0, 0.3)).levels
        calls = self._counting(monkeypatch)
        energy_profile(field, 0.25, 0.5, 1.2, 2.0, self.TIMES, 2.0, 3, QUAD96)
        assert calls["sums"] == 20
        for shape, outs in calls["jet"]:
            assert outs == {shape}  # no head: every read is full-shape
            assert math.prod(shape) <= quadrature.BLOCK_NODES
