import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conewave import carleman
from conewave.carleman import (
    CarlemanParams,
    box_region,
    bulk_gamma,
    clipped_exterior_region,
    flux_covector,
    frustum_region,
    inverted_frustum_region,
    level_shell_region,
    report_csv_header,
    report_csv_row,
    verify_global,
    verify_shifted,
)
from conewave.cli import _offcenter_gaussian
from conewave.fields import (
    ManufacturedField,
    PotentialSpec,
    constant_field,
    gaussian_pulse,
    signed_power,
    zero_field,
)
from conewave.geometry import (
    AdmissibleRegionSpec,
    ConePiece,
    ExteriorRegionSpec,
    NullConePiece,
    ShiftedWeight,
    UNSHIFTED,
)
from conewave.quadrature import QuadratureSpec
from tests_helpers import closures_jet


def _offcenter_closures(n, A, tc, rc, wt, wr):
    def phi(t, r):
        return A * np.exp(-(t - tc) ** 2 / (2 * wt ** 2)
                          - (r - rc) ** 2 / (2 * wr ** 2))

    def phi_t(t, r):
        return -(t - tc) / wt ** 2 * phi(t, r)

    def phi_r(t, r):
        return -(r - rc) / wr ** 2 * phi(t, r)

    def box(t, r):
        phitt = ((t - tc) ** 2 / wt ** 4 - 1.0 / wt ** 2) * phi(t, r)
        phirr = ((r - rc) ** 2 / wr ** 4 - 1.0 / wr ** 2) * phi(t, r)
        return -phitt + phirr + (n - 1) / r * phi_r(t, r)

    return phi, phi_t, phi_r, box


def offcenter_gaussian(n, A, tc, rc, wt, wr):
    return ManufacturedField(
        n, closures_jet(*_offcenter_closures(n, A, tc, rc, wt, wr)),
        label="offgauss")


class TestBulkGamma:
    def test_constant_potential_value(self):
        params = CarlemanParams(a=0.25, p=2.0, n=3)
        assert bulk_gamma(params, 0.3, 1.0) == pytest.approx(0.25)

    def test_vanishes_at_range_boundary(self):
        n, a = 3, 0.25
        p = 1.0 + 4.0 / (n - 1 + 4 * a)
        params = CarlemanParams(a=a, p=p, n=n)
        assert bulk_gamma(params, 0.1, 1.5) == pytest.approx(0.0, abs=1e-14)

    def test_perturbed_matches_constant_where_gradient_vanishes(self):
        # the bump gradient vanishes at its center
        V = PotentialSpec(kind="perturbed", c0=1.0, eps=0.2,
                          center=(0.3, 1.0), width=0.5)
        params_pert = CarlemanParams(a=0.25, p=2.0, n=3, potential=V)
        params_const = CarlemanParams(a=0.25, p=2.0, n=3)
        assert bulk_gamma(params_pert, 0.3, 1.0) == pytest.approx(
            bulk_gamma(params_const, 0.3, 1.0))

    def test_positive_on_subconformal_range_with_small_a(self):
        # V = 1 and p - 1 < 4/(n-1+4a) force a positive bulk factor at
        # every node of a sample grid
        for n in (1, 2, 3):
            for a in (0.05, 0.2):
                p = 1.0 + 0.9 * 4.0 / (n - 1 + 4 * a)
                params = CarlemanParams(a=a, p=p, n=n)
                tt, rr = np.meshgrid(np.linspace(-1, 1, 11),
                                     np.linspace(0.1, 3, 11))
                assert np.all(bulk_gamma(params, tt, rr) > 0.0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            CarlemanParams(a=0.0, p=2.0, n=3)
        with pytest.raises(ValueError):
            CarlemanParams(a=0.25, p=0.5, n=3)
        ok = CarlemanParams(a=0.25, p=2.0, n=3)
        assert ok.shifted_range_ok
        bad = CarlemanParams(a=0.45, p=2.5, n=3)
        assert not bad.shifted_range_ok


class TestFluxCovector:
    def test_zero_field(self):
        params = CarlemanParams(a=0.25, p=2.0, n=3)
        Pt, Pr = flux_covector(params, zero_field(3), 0.3, np.array([1.0, 1.5]))
        assert np.all(Pt == 0.0) and np.all(Pr == 0.0)

    def test_constant_field_closed_form(self):
        a, p, n, c = 0.3, 2.0, 2, 1.4
        params = CarlemanParams(a=a, p=p, n=n)
        t, r = 0.2, 1.5
        f = 0.25 * (r * r - t * t)
        ft, fr = -0.5 * t, 0.5 * r
        c1 = (n - 1) / 4.0 + a
        expect_t = f ** (2 * a) * ft * c ** (p + 1) / (p + 1) \
            + a * c1 * f ** (2 * a - 1) * ft * c * c
        expect_r = f ** (2 * a) * fr * c ** (p + 1) / (p + 1) \
            + a * c1 * f ** (2 * a - 1) * fr * c * c
        Pt, Pr = flux_covector(params, constant_field(c, n), t, r)
        assert Pt == pytest.approx(expect_t, rel=1e-13)
        assert Pr == pytest.approx(expect_r, rel=1e-13)

    def test_linear_time_field_at_spec_point(self):
        # phi = t, unshifted, at (t=0, r=2), n=1, a=1/2, p=2, V=1:
        # grad f . grad phi = 0 there, grad phi . grad phi = -1,
        # phi = 0 kills the zeroth-order and power terms, leaving
        # P = f^{2a} (0 * dphi - 1/2 grad f * (-1)) = (0, 1/2) for f = 1
        field = ManufacturedField(
            1,
            closures_jet(
                lambda t, r: t + 0.0 * r,
                lambda t, r: np.ones(np.broadcast(t, r).shape),
                lambda t, r: np.zeros(np.broadcast(t, r).shape),
                lambda t, r: np.zeros(np.broadcast(t, r).shape)),
        )
        params = CarlemanParams(a=0.5, p=2.0, n=1)
        Pt, Pr = flux_covector(params, field, 0.0, 2.0)
        assert Pt == pytest.approx(0.0, abs=1e-15)
        assert Pr == pytest.approx(0.5, rel=1e-14)

    def test_rejects_nonpositive_weight(self):
        params = CarlemanParams(a=0.25, p=2.0, n=1)
        with pytest.raises(ValueError):
            flux_covector(params, constant_field(1.0, 1), 2.0, 1.0)


class TestRegionLibrary:
    def test_box_requires_exterior(self):
        with pytest.raises(ValueError):
            box_region(-0.5, 0.5, 0.3, 1.0)  # r0 < |t| corners

    def test_null_piece_rejected(self):
        with pytest.raises(ValueError):
            AdmissibleRegionSpec(bulk=None, pieces=(NullConePiece(UNSHIFTED),))

    def test_frustum_geometry_guard(self):
        with pytest.raises(ValueError):
            frustum_region(0.0, 0.5, 2.0, 0.5, -1.0)  # cone under the cylinder

    def test_five_families_construct(self):
        regions = [
            box_region(-0.3, 0.3, 0.8, 1.6),
            frustum_region(0.1, 0.6, 0.9, 0.5, -3.0),
            inverted_frustum_region(0.1, 0.6, 2.5, 0.5, -2.0),
            clipped_exterior_region(0.5, 1.0, 1e-3, 0.8, 1.6),
            level_shell_region(ShiftedWeight(1.0), 0.01, 0.05, 0.8, 1.2),
        ]
        for region in regions:
            assert len(region.pieces) == 4


class TestVerifyGlobal:
    def test_zero_field_everything_vanishes(self):
        params = CarlemanParams(a=0.25, p=2.0, n=1)
        rep = verify_global(params, zero_field(1), box_region(-0.4, 0.4, 1.0, 2.0))
        assert rep.lhs_bulk == 0.0 and rep.rhs_bulk == 0.0
        assert rep.rhs_boundary == 0.0 and rep.passed

    def test_constant_field_box(self):
        params = CarlemanParams(a=0.25, p=2.0, n=1)
        region = box_region(-0.4, 0.4, 1.0, 2.0)
        rep = verify_global(params, constant_field(1.0, 1), region)
        assert rep.passed and rep.slack > 0.0
        # independent high-resolution reproduction of every term
        fine = verify_global(params, constant_field(1.0, 1), region,
                             QuadratureSpec(cells_t=192, cells_r=192))
        assert rep.lhs_bulk == pytest.approx(fine.lhs_bulk, rel=1e-4)
        assert rep.rhs_bulk == pytest.approx(fine.rhs_bulk, rel=1e-4)
        assert rep.rhs_boundary == pytest.approx(fine.rhs_boundary, rel=1e-4)

    def test_divergence_theorem_consistency(self):
        # finite-difference divergence of the current integrated over the
        # box must reproduce the oriented boundary integral: a sharp check
        # on orientation and measure conventions
        params = CarlemanParams(a=0.25, p=2.0, n=3)
        field = offcenter_gaussian(3, 1.2, 0.1, 1.5, 0.35, 0.3)
        region = box_region(-0.4, 0.4, 1.0, 2.0)
        rep = verify_global(params, field, region,
                            QuadratureSpec(cells_t=96, cells_r=96))
        h = 1e-5
        n = 3

        def div(t, r):
            Pt1, _ = flux_covector(params, field, t + h, r)
            Pt0, _ = flux_covector(params, field, t - h, r)
            _, Pr1 = flux_covector(params, field, t, r + h)
            _, Pr0 = flux_covector(params, field, t, r - h)
            radial = ((r + h) ** (n - 1) * Pr1 - (r - h) ** (n - 1) * Pr0) \
                / (2 * h) / r ** (n - 1)
            return -(Pt1 - Pt0) / (2 * h) + radial

        from conewave.quadrature import integrate_bulk
        from conewave.geometry import BoxSpec

        vol = integrate_bulk(BoxSpec(-0.4, 0.4, 1.0, 2.0), div,
                             QuadratureSpec(cells_t=96, cells_r=96), 3)
        assert vol.value == pytest.approx(rep.rhs_boundary, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_instances_pass(self, seed):
        from conewave.cli import _random_case

        rng = np.random.default_rng(seed)
        for _ in range(8):
            params, field, region = _random_case(rng)
            rep = verify_global(params, field, region)
            assert rep.passed, (params, field.label, rep.slack, rep.tolerance)

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(0.02, 0.6),
        p=st.floats(1.0, 3.5),
        n=st.integers(1, 4),
        logamp=st.floats(-8.0, 2.0),
        tc=st.floats(-0.3, 0.3),
        rc=st.floats(1.0, 2.0),
        wt=st.floats(0.05, 0.6),
        wr=st.floats(0.05, 0.6),
        height=st.floats(0.05, 0.45),
    )
    def test_inequality_holds_on_explored_corners(self, a, p, n, logamp, tc,
                                                  rc, wt, wr, height):
        # theorem-backed: any C^2 field on an admissible box satisfies the
        # estimate; violations beyond tolerance indicate sign or measure bugs
        params = CarlemanParams(a=a, p=p, n=n)
        field = offcenter_gaussian(n, math.exp(logamp), tc, rc, wt, wr)
        region = box_region(tc - height, tc + height, 0.5 + height + abs(tc),
                            2.6)
        rep = verify_global(params, field, region)
        assert rep.passed, (a, p, n, logamp, rep.slack, rep.tolerance)

    def test_all_region_families_pass(self):
        params = CarlemanParams(a=0.3, p=2.0, n=2)
        field = offcenter_gaussian(2, 0.9, 0.3, 1.2, 0.3, 0.3)
        shift = ShiftedWeight(1.0)
        sparams = CarlemanParams(a=0.3, p=2.0, n=2, shift=shift)
        sfield = offcenter_gaussian(2, 0.9, 1.0, 0.8, 0.2, 0.2)
        cases = [
            (params, field, box_region(-0.3, 0.3, 0.8, 1.6)),
            (params, field, frustum_region(0.1, 0.6, 0.9, 0.5, -3.0)),
            (params, field, inverted_frustum_region(0.1, 0.6, 2.5, 0.5, -2.0)),
            (sparams, sfield, clipped_exterior_region(0.5, 1.0, 1e-3, 0.8, 1.6)),
            (sparams, sfield, level_shell_region(shift, 0.01, 0.05, 0.8, 1.2)),
        ]
        for prm, fld, region in cases:
            rep = verify_global(prm, fld, region)
            assert rep.passed, (type(region.bulk).__name__, rep.slack)

    def test_time_translation_invariance(self):
        # translating region, field, and weight shift together is an exact
        # symmetry of every formula
        tau = 0.37
        a, p, n = 0.2, 2.0, 3
        base_field = offcenter_gaussian(n, 1.1, 0.0, 1.4, 0.3, 0.25)
        shifted_field = offcenter_gaussian(n, 1.1, tau, 1.4, 0.3, 0.25)
        rep0 = verify_global(CarlemanParams(a=a, p=p, n=n), base_field,
                             box_region(-0.4, 0.4, 1.0, 2.0))
        shift = ShiftedWeight(tau)
        rep1 = verify_global(
            CarlemanParams(a=a, p=p, n=n, shift=shift), shifted_field,
            box_region(-0.4 + tau, 0.4 + tau, 1.0, 2.0, shift=shift))
        assert rep1.lhs_bulk == pytest.approx(rep0.lhs_bulk, rel=1e-10)
        assert rep1.rhs_bulk == pytest.approx(rep0.rhs_bulk, rel=1e-10)
        assert rep1.rhs_boundary == pytest.approx(rep0.rhs_boundary, rel=1e-10)

    def test_scaling_exponents_agree(self):
        # under (t, x) -> (lam t, lam x), phi -> lam^{-2/(p-1)} phi both
        # sides must scale by one common power; fit both exponents and
        # compare, without asserting the value a priori
        a, p, n = 0.25, 2.0, 3
        lams = (1.0, 2.0, 4.0)
        lhs_vals, rhs_vals = [], []
        for lam in lams:
            amp = lam ** (-2.0 / (p - 1.0))
            field = offcenter_gaussian(n, 1.3 * amp, 0.1 * lam, 1.5 * lam,
                                       0.35 * lam, 0.3 * lam)
            region = box_region(-0.4 * lam, 0.4 * lam, 1.0 * lam, 2.0 * lam)
            rep = verify_global(CarlemanParams(a=a, p=p, n=n), field, region)
            lhs_vals.append(rep.lhs_bulk)
            rhs_vals.append(rep.rhs_bulk + rep.rhs_boundary)
        logl = np.log(lams)
        slope_lhs = np.polyfit(logl, np.log(lhs_vals), 1)[0]
        slope_rhs = np.polyfit(logl, np.log(rhs_vals), 1)[0]
        assert slope_lhs == pytest.approx(slope_rhs, abs=1e-2)

    def test_csv_row_format(self):
        params = CarlemanParams(a=0.25, p=2.0, n=1)
        rep = verify_global(params, constant_field(1.0, 1),
                            box_region(-0.4, 0.4, 1.0, 2.0))
        header = report_csv_header()
        row = report_csv_row(3, params, rep)
        assert header.count(",") == row.count(",")
        assert row.startswith("3,0.25,2,1,")
        assert row.endswith(",1")


def _reference_bulk_gamma(params, t, r):
    ft, fr = params.weight_grad(t, r)
    V = params.potential.value(t, r)
    Vt, Vr = params.potential.gradient(t, r)
    m = params.n - 1.0 + 4.0 * params.a
    const = -(m / 4.0) * (params.p - 1.0 - 4.0 / m)
    return (-ft * Vt + fr * Vr) / V + const


class TestVerifyGlobalOnePass:
    """Both bulk sides from one mesh pass give the bits of two separate
    single-integrand passes, each evaluating the field per component."""

    SHIFT = ShiftedWeight(0.05)
    REGIONS = {
        "box": lambda s: box_region(-0.2, 0.25, 0.6, 1.5, shift=s),
        "frustum": lambda s: frustum_region(-0.2, 0.25, 0.6, 0.5, -3.2, shift=s),
        "inverted": lambda s: inverted_frustum_region(-0.2, 0.25, 1.5, 0.5,
                                                      -1.4, shift=s),
    }
    POTENTIALS = {
        "constant": PotentialSpec.constant(1.3),
        "perturbed": PotentialSpec(kind="perturbed", c0=1.1, eps=0.15,
                                   center=(0.0, 1.0), width=0.8),
    }

    @pytest.mark.parametrize("potential", sorted(POTENTIALS))
    @pytest.mark.parametrize("family", sorted(REGIONS))
    def test_matches_two_pass_reference(self, family, potential):
        region = self.REGIONS[family](self.SHIFT)
        params = CarlemanParams(a=0.3, p=2.2, n=3,
                                potential=self.POTENTIALS[potential],
                                shift=self.SHIFT)
        a, p = params.a, params.p
        phi, _, _, box = _offcenter_closures(3, 0.8, 0.0, 1.0, 0.3, 0.35)

        def lhs_integrand(t, r):
            f = params.weight_value(t, r)
            V = params.potential.value(t, r)
            return (f ** (2 * a) * V * _reference_bulk_gamma(params, t, r)
                    * np.abs(phi(t, r)) ** (p + 1.0)) / (p + 1.0)

        def rhs_integrand(t, r):
            f = params.weight_value(t, r)
            box_v = box(t, r) + params.potential.value(t, r) * signed_power(
                phi(t, r), p)
            return f ** (2 * a + 1.0) * box_v ** 2 / (8.0 * a)

        q = QuadratureSpec()
        rep = verify_global(params, _offcenter_gaussian(3, 0.8, 0.0, 1.0, 0.3,
                                                        0.35), region, q)
        lhs = carleman._bulk_integrate_region(region, lhs_integrand, q, 3)
        rhs = carleman._bulk_integrate_region(region, rhs_integrand, q, 3)
        assert rep.lhs_bulk > 0.0 and rep.rhs_bulk > 0.0
        assert rep.lhs_bulk.hex() == lhs.value.hex()
        assert rep.rhs_bulk.hex() == rhs.value.hex()
        assert rep.error_estimates["lhs"].hex() == lhs.error_estimate.hex()
        assert rep.error_estimates["rhs_bulk"].hex() == rhs.error_estimate.hex()


class TestFrustumWeightCheck:
    def test_cylinder_endpoint_on_the_zero_set_is_rejected(self):
        # inner cylinder r0 = 0.5 meets |t - t*| = r0 exactly at t1 = 0.5
        with pytest.raises(ValueError):
            frustum_region(0.1, 0.5, 0.5, 0.5, -3.9)
        frustum_region(0.1, 0.4375, 0.5, 0.5, -3.9)

    def test_cone_endpoint_on_the_zero_set_is_rejected(self):
        # inner cone r = (t + 0.2)/2 equals t at t0 = 0.2, r = (t + 0.4)/2
        # equals t at t1 = 0.4
        with pytest.raises(ValueError):
            inverted_frustum_region(0.2, 0.4, 1.5, 0.5, -0.2)
        with pytest.raises(ValueError):
            inverted_frustum_region(0.2, 0.4, 1.5, 0.5, -0.4)
        inverted_frustum_region(0.2, 0.4, 1.5, 0.5, -0.5)

    def test_decisions_match_a_dense_scan(self):
        rng = np.random.default_rng(3)
        outcomes = set()
        for _ in range(400):
            ts = rng.uniform(-0.3, 0.3)
            t0 = ts + rng.uniform(-0.4, 0.2)
            t1 = t0 + rng.uniform(0.05, 0.6)
            slope = rng.uniform(0.3, 0.9)
            reach = max(abs(t0 - ts), abs(t1 - ts))
            if rng.random() < 0.5:
                r0 = reach * rng.uniform(0.9, 1.1)
                cone = ConePiece(slope, t0, t1, t_apex=t0 - 3.0 / slope)
                bulk = carleman._FrustumBulk(t0, t1, cone, r0, True)
            else:
                start = abs(t0 - ts) * rng.uniform(0.8, 1.3) + 1e-3
                cone = ConePiece(slope, t0, t1, t_apex=t0 - start / slope,
                                 outward_sign=-1)
                bulk = carleman._FrustumBulk(t0, t1, cone, 5.0, False)
            tt = np.linspace(t0, t1, 4097)
            rin = np.asarray(bulk.r_inner(tt))
            scan_ok = not np.any(rin ** 2 - (tt - ts) ** 2 <= 0.0)
            try:
                carleman._require_positive_weight_frustum(bulk, ShiftedWeight(ts))
                exact_ok = True
            except ValueError:
                exact_ok = False
            assert exact_ok == scan_ok
            outcomes.add(exact_ok)
        assert outcomes == {True, False}


class TestVerifyShifted:
    def test_zero_field(self):
        ext = ExteriorRegionSpec(0.5, 1.0)
        params = CarlemanParams(a=0.25, p=2.0, n=3, shift=ext.weight)
        rep = verify_shifted(params, zero_field(3), ext)
        assert rep.lhs == 0.0
        assert all(v == 0.0 for v in rep.terms.values())
        assert all(v == 0.0 for v in rep.flux_trail)

    def test_ratio_stable_under_self_similar_rescaling(self):
        # the estimate is scale invariant: rescaling t*, the domain, and the
        # field by the equation scaling reproduces the same observed ratio
        a, p, n = 0.25, 2.0, 3
        ratios = []
        for lam in (1.0, 2.0, 4.0):
            ext = ExteriorRegionSpec(0.5, lam)
            params = CarlemanParams(a=a, p=p, n=n, shift=ext.weight)
            amp = lam ** (-2.0 / (p - 1.0))
            field = gaussian_pulse(n, amp, lam, 0.3 * lam, 0.25 * lam)
            rep = verify_shifted(params, field, ext)
            ratios.append(rep.ratio)
        assert max(ratios) <= 2.0 * min(ratios)
        assert ratios[1] == pytest.approx(ratios[0], rel=1e-6)

    def test_flux_trail_decreases(self):
        ext = ExteriorRegionSpec(0.5, 1.0)
        params = CarlemanParams(a=0.25, p=2.0, n=3, shift=ext.weight)
        rep = verify_shifted(params, gaussian_pulse(3, 1.0, 1.0, 0.3, 0.25), ext)
        mags = [abs(v) for v in rep.flux_trail]
        assert mags[0] > mags[1] > mags[2]
        assert mags[2] < 0.5 * mags[0]

    def test_requires_matching_shift_and_range(self):
        ext = ExteriorRegionSpec(0.5, 1.0)
        with pytest.raises(ValueError):
            verify_shifted(CarlemanParams(a=0.25, p=2.0, n=3), zero_field(3), ext)
        bad = CarlemanParams(a=0.45, p=2.5, n=3, shift=ext.weight)
        with pytest.raises(ValueError):
            verify_shifted(bad, zero_field(3), ext)

    def test_perturbed_potential_with_admissible_smallness(self):
        # |grad V| t* small: the bulk factor stays positive on the region
        # and the report is finite
        ext = ExteriorRegionSpec(0.5, 1.0)
        V = PotentialSpec.perturbed(1.0, 0.05, (1.0, 0.2), 0.5, alpha=0.1,
                                    t_star=1.0)
        params = CarlemanParams(a=0.25, p=2.0, n=3, potential=V,
                                shift=ext.weight)
        lo, hi = ext.time_window()
        tt = np.linspace(lo + 1e-3, hi - 1e-3, 21)
        for t in tt:
            rr = np.linspace(float(ext.inner_radius(t)) + 1e-3,
                             0.5 * t - 1e-3, 11)
            if rr[0] >= rr[-1]:
                continue
            assert np.all(bulk_gamma(params, t, rr) > 0.0)
        rep = verify_shifted(params, gaussian_pulse(3, 1.0, 1.0, 0.3, 0.25), ext)
        assert np.isfinite(rep.ratio) and rep.ratio > 0.0
