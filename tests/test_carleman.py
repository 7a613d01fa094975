import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conewave import carleman
from conewave.carleman import (
    CarlemanParams,
    box_region,
    flux_covector,
    frustum_region,
    inverted_frustum_region,
    verify_global,
    verify_shifted,
)
from conewave.cli import _offcenter_gaussian
from conewave.fields import (
    ManufacturedField,
    PotentialSpec,
    gaussian_pulse,
)
from conewave.geometry import (
    ConePiece,
    CylinderPiece,
    ExteriorRegionSpec,
    ShiftedWeight,
    UNSHIFTED,
)
from conewave.geometry import lateral_boundary
from conewave.quadrature import (QuadratureSpec, integrate_bulk,
                                 integrate_surfaces)
from tests_helpers import (box_bulk, closures_jet, constant_field,
                           offcenter_closures, zero_field)


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
        n, closures_jet(*_offcenter_closures(n, A, tc, rc, wt, wr)))


def bulk_gamma(params, t, r):
    return carleman._potential_and_gamma(params, t, r)[1]


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
        # a null cone piece has no unit normal, so no admissible region
        # can carry one: slope 1 does not build
        with pytest.raises(ValueError):
            ConePiece(1.0, 0.5, 1.5)

    def test_frustum_geometry_guard(self):
        with pytest.raises(ValueError):
            frustum_region(0.0, 0.5, 2.0, 0.5, -1.0)  # cone under the cylinder

    def test_three_families_construct(self):
        regions = [
            box_region(-0.3, 0.3, 0.8, 1.6),
            frustum_region(0.1, 0.6, 0.9, 0.5, -3.0),
            inverted_frustum_region(0.1, 0.6, 2.5, 0.5, -2.0),
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
        vol = integrate_bulk(box_bulk(-0.4, 0.4, 1.0, 2.0), div,
                             QuadratureSpec(cells_t=96, cells_r=96), 3)
        assert vol.value == pytest.approx(rep.rhs_boundary, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_instances_pass(self, seed):
        from conewave.cli import _random_case

        rng = np.random.default_rng(seed)
        for _ in range(8):
            params, field, region = _random_case(rng)
            rep = verify_global(params, field, region)
            assert rep.passed, (params, field, rep.slack, rep.tolerance)

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
        cases = [
            (params, field, box_region(-0.3, 0.3, 0.8, 1.6)),
            (params, field, frustum_region(0.1, 0.6, 0.9, 0.5, -3.0)),
            (params, field, inverted_frustum_region(0.1, 0.6, 2.5, 0.5, -2.0)),
        ]
        for prm, fld, region in cases:
            rep = verify_global(prm, fld, region)
            assert rep.passed, (type(region).__name__, rep.slack)

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


def _reference_bulk_gamma(params, t, r):
    ft, fr = params.shift.grad_radial(t, r)
    V = params.potential.value(t, r)
    Vt, Vr = params.potential.jet(t, r)[1:]
    m = params.n - 1.0 + 4.0 * params.a
    const = -(m / 4.0) * (params.p - 1.0 - 4.0 / m)
    return (-ft * Vt + fr * Vr) / V + const


def _power_sides(phi, box, V, p):
    """(|phi|^{p+1}, box_V phi) of the integrand's arithmetic: |phi|^p
    times |phi|, and box + V copysign(|phi|^p, phi)."""
    return (np.abs(phi) ** p * np.abs(phi),
            box + V * np.copysign(np.abs(phi) ** p, phi))


class TestVerifyGlobalOnePass:
    """Both bulk sides from one mesh pass give the bits of two separate
    single-integrand passes, each evaluating the field per component: the
    lhs f^{2a} V Gamma |phi|^{p+1} / (p+1), the rhs f^{2a} f (box_V phi)^2
    / (8a), with f^{2a} and |phi|^p as the only powers."""

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
        phi, _, _, box = offcenter_closures(3, 0.8, 0.0, 1.0, 0.3, 0.35)

        def lhs_integrand(t, r):
            f = params.shift.value_radial(t, r)
            V = params.potential.value(t, r)
            power = _power_sides(phi(t, r), box(t, r), V, p)[0]
            return (f ** (2 * a) * V * _reference_bulk_gamma(params, t, r)
                    * power / (p + 1.0))

        def rhs_integrand(t, r):
            f = params.shift.value_radial(t, r)
            box_v = _power_sides(phi(t, r), box(t, r),
                                 params.potential.value(t, r), p)[1]
            return f ** (2 * a) * f * box_v ** 2 / (8.0 * a)

        q = QuadratureSpec()
        rep = verify_global(params, _offcenter_gaussian(3, 0.8, 0.0, 1.0, 0.3,
                                                        0.35), region, q)
        lhs = integrate_bulk(region, lhs_integrand, q, 3)
        rhs = integrate_bulk(region, rhs_integrand, q, 3)
        assert rep.lhs_bulk > 0.0 and rep.rhs_bulk > 0.0
        assert rep.lhs_bulk.hex() == lhs.value.hex()
        assert rep.rhs_bulk.hex() == rhs.value.hex()
        assert rep.error_estimates["lhs"].hex() == lhs.error_estimate.hex()
        assert rep.error_estimates["rhs_bulk"].hex() == rhs.error_estimate.hex()


def _separate_potential(pot, t, r):
    """(V, d_t V, d_r V) with V and its gradient as two evaluations, each
    with its own bump: the expressions PotentialSpec.value and .gradient
    had before they read one jet."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if pot.kind == "constant":
        shape = np.broadcast(t, r).shape
        return np.full(shape, pot.c0), np.zeros(shape), np.zeros(shape)
    tc, rc = pot.center
    rho2 = (t - tc) ** 2 + (r - rc) ** 2
    b = pot.width * math.sqrt(math.e) * np.exp(-rho2 / (2.0 * pot.width ** 2))
    V = pot.c0 + pot.eps * b
    rho2 = (t - tc) ** 2 + (r - rc) ** 2
    b = pot.width * math.sqrt(math.e) * np.exp(-rho2 / (2.0 * pot.width ** 2))
    scale = -pot.eps * b / pot.width ** 2
    return V, scale * (t - tc), scale * (r - rc)


def _perturbed_suite_cases(count, seed=7):
    """The first `count` perturbed-potential cases of the verify-carleman
    suite at `seed`."""
    from conewave.cli import _random_case

    rng = np.random.default_rng(np.random.PCG64(seed))
    cases = []
    while len(cases) < count:
        case = _random_case(rng)
        if case[0].potential.kind == "perturbed":
            cases.append(case)
    return cases


class TestPotentialEvaluatedOnce:
    """verify_global reads V and its gradient from one potential jet per
    block; the bits are those of separate value and gradient evaluations."""

    def test_jet_matches_separate_expressions(self):
        tn = np.linspace(-0.6, 0.4, 23)[:, None]
        R = np.linspace(0.0, 2.0, 31)[None, :] * np.ones((23, 1))
        for pot in (PotentialSpec.constant(1.3),
                    PotentialSpec(kind="perturbed", c0=1.1, eps=0.15,
                                  center=(0.0, 1.0), width=0.8),
                    PotentialSpec(kind="perturbed", c0=0.9, eps=-0.2,
                                  center=(-0.2, 0.6), width=0.5)):
            want = _separate_potential(pot, tn, R)
            for got, ref in zip(pot.jet(tn, R), want):
                assert got.tobytes() == ref.tobytes()
            assert pot.value(tn, R).tobytes() == want[0].tobytes()

    def test_suite_cases_match_separate_evaluations(self):
        q = QuadratureSpec()
        for params, fieldobj, region in _perturbed_suite_cases(4):
            a, p = params.a, params.p
            m = params.n - 1.0 + 4.0 * params.a
            const = -(m / 4.0) * (params.p - 1.0 - 4.0 / m)

            def lhs_integrand(t, r):
                f = params.shift.value_radial(t, r)
                ft, fr = params.shift.grad_radial(t, r)
                V, Vt, Vr = _separate_potential(params.potential, t, r)
                gamma = (-ft * Vt + fr * Vr) / V + const
                ph, _, _, box = fieldobj.jet(t, r)
                return (f ** (2 * a) * V * gamma
                        * _power_sides(ph, box, V, p)[0] / (p + 1.0))

            def rhs_integrand(t, r):
                f = params.shift.value_radial(t, r)
                V = _separate_potential(params.potential, t, r)[0]
                ph, _, _, box = fieldobj.jet(t, r)
                return (f ** (2 * a) * f * _power_sides(ph, box, V, p)[1] ** 2
                        / (8.0 * a))

            rep = verify_global(params, fieldobj, region, q)
            lhs = integrate_bulk(region, lhs_integrand, q, params.n)
            rhs = integrate_bulk(region, rhs_integrand, q, params.n)
            assert rep.lhs_bulk.hex() == lhs.value.hex()
            assert rep.rhs_bulk.hex() == rhs.value.hex()
            assert rep.error_estimates["lhs"].hex() == lhs.error_estimate.hex()
            assert rep.error_estimates["rhs_bulk"].hex() == \
                rhs.error_estimate.hex()

    def test_one_potential_jet_per_integrand_call(self, monkeypatch):
        counts = {"integrand": 0, "jet": 0}
        state = {"bulk": False}
        inner_bulk = carleman.integrate_bulk
        inner_jet = PotentialSpec.jet

        def bulk_pass(region, integrand, q, n):
            def counted(t, r):
                counts["integrand"] += 1
                return integrand(t, r)

            state["bulk"] = True
            try:
                return inner_bulk(region, counted, q, n)
            finally:
                state["bulk"] = False

        def jet(self, t, r):
            counts["jet"] += state["bulk"]
            return inner_jet(self, t, r)

        monkeypatch.setattr(carleman, "integrate_bulk", bulk_pass)
        monkeypatch.setattr(PotentialSpec, "jet", jet)
        params, fieldobj, region = _perturbed_suite_cases(1)[0]
        verify_global(params, fieldobj, region, QuadratureSpec())
        assert counts["integrand"] > 0
        assert counts["jet"] == counts["integrand"]


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
                sides = (CylinderPiece(r0, t0, t1), cone)
            else:
                start = abs(t0 - ts) * rng.uniform(0.8, 1.3) + 1e-3
                cone = ConePiece(slope, t0, t1, t_apex=t0 - start / slope)
                sides = (cone, CylinderPiece(5.0, t0, t1))
            tt = np.linspace(t0, t1, 4097)
            rin = np.asarray(sides[0].radius(tt))
            scan_ok = not np.any(rin ** 2 - (tt - ts) ** 2 <= 0.0)
            try:
                carleman._sided_region(*sides, ShiftedWeight(ts))
                exact_ok = True
            except ValueError:
                exact_ok = False
            assert exact_ok == scan_ok
            outcomes.add(exact_ok)
        assert outcomes == {True, False}


def _rejects(builder, *args):
    try:
        builder(*args)
    except ValueError:
        return True
    return False


def _sided_rejects(t0, t1, inner, outer, ts):
    """An empty window, a slice end where 0 <= inner < outer fails, or f <= 0
    (weight centre ts) on the inner side at an end."""
    if not t0 < t1:
        return True
    for t in (t0, t1):
        lo, hi = inner(t), outer(t)
        if not 0.0 <= lo < hi:
            return True
        if lo ** 2 - (t - ts) ** 2 <= 0.0:
            return True
    return False


def _cylinder(r0):
    return lambda t: r0


def _cone(slope, t_apex):
    return lambda t: slope * (t - t_apex)


def _box_rejects(t0, t1, r0, r1, shift):
    return _sided_rejects(t0, t1, _cylinder(r0), _cylinder(r1), shift.t_star)


def _frustum_rejects(t0, t1, r0, slope, t_apex, shift):
    return (not 0.0 < slope < 1.0
            or _sided_rejects(t0, t1, _cylinder(r0), _cone(slope, t_apex),
                              shift.t_star))


def _inverted_rejects(t0, t1, r1, slope, t_apex, shift):
    return (not 0.0 < slope < 1.0
            or _sided_rejects(t0, t1, _cone(slope, t_apex), _cylinder(r1),
                              shift.t_star))


def _random_family_inputs(rng):
    """The window, radii and slope the way cli._random_case draws them; half
    the time the inner radius is moved next to the zero set of f."""
    shift_t = float(rng.uniform(-0.3, 0.3)) if rng.random() < 0.3 else 0.0
    half_height = float(rng.uniform(0.1, 0.4))
    tc = shift_t + float(rng.uniform(-0.2, 0.2))
    t0, t1 = tc - half_height, tc + half_height
    reach = max(abs(t0 - shift_t), abs(t1 - shift_t))
    r0 = reach + float(rng.uniform(0.15, 0.8))
    r1 = r0 + float(rng.uniform(0.4, 1.2))
    if rng.random() < 0.5:
        r0 = reach * float(rng.uniform(0.8, 1.2))
    slope = float(rng.uniform(0.3, 0.9))
    return ShiftedWeight(shift_t), t0, t1, r0, r1, slope


def _builder_cases(rng):
    shift, t0, t1, r0, r1, slope = _random_family_inputs(rng)
    reach = float(rng.uniform(0.5, 1.5))
    return [
        ("box", (t0, t1, r0, r1, shift)),
        ("frustum", (t0, t1, r0, slope, t0 - r1 / slope, shift)),
        ("frustum", (t0, t1, r0, slope, t0 - reach * r0 / slope, shift)),
        ("inverted", (t0, t1, r1, slope, t0 - r0 / slope, shift)),
    ]


_BUILDERS = {
    "box": (box_region, _box_rejects),
    "frustum": (frustum_region, _frustum_rejects),
    "inverted": (inverted_frustum_region, _inverted_rejects),
}

_EDGE_CASES = [
    ("box", (-0.5, 0.5, 1.0, 2.0, UNSHIFTED), False),
    ("box", (0.0, 1.0, 1.0, 2.0, UNSHIFTED), True),      # f = 0 at t1
    ("box", (0.3, 0.3, 1.0, 2.0, UNSHIFTED), True),      # empty window
    ("box", (0.5, 0.1, 1.0, 2.0, UNSHIFTED), True),      # reversed window
    ("box", (-0.5, 0.5, 0.0, 2.0, UNSHIFTED), True),     # inner side on the axis
    ("box", (-0.5, 0.5, 1.0, 1.0, UNSHIFTED), True),     # zero width
    ("frustum", (0.1, 0.5, 0.5, 0.5, -3.9, UNSHIFTED), True),
    ("frustum", (0.1, 0.4375, 0.5, 0.5, -3.9, UNSHIFTED), False),
    ("frustum", (0.0, 0.5, 1.0, 0.5, -2.0, UNSHIFTED), True),  # cone = r0 at t0
    ("frustum", (0.0, 0.5, 1.0, 1.0, -2.0, UNSHIFTED), True),  # null cone
    ("inverted", (0.2, 0.4, 1.5, 0.5, -0.2, UNSHIFTED), True),
    ("inverted", (0.2, 0.4, 1.5, 0.5, -0.4, UNSHIFTED), True),
    ("inverted", (0.2, 0.4, 1.5, 0.5, -0.5, UNSHIFTED), False),
    ("inverted", (0.0, 1.0, 1.5, 0.5, -2.0, UNSHIFTED), True),  # cone = r1 at t1
    ("inverted", (0.0, 1.0, 1.5, 0.5, 0.5, UNSHIFTED), True),   # cone below the axis
]


class TestBuilderRejectSet:
    """Each region builder raises exactly when the closed-form predicate
    says so (cli._random_case falls back to a box on an inverted frustum's
    ValueError, so the case mix depends on this set)."""

    @pytest.mark.parametrize("name,args,rejected", _EDGE_CASES)
    def test_edge_cases(self, name, args, rejected):
        builder, predicate = _BUILDERS[name]
        assert predicate(*args) == rejected
        assert _rejects(builder, *args) == rejected

    def test_random_draws(self):
        rng = np.random.default_rng(11)
        outcomes = {name: set() for name in _BUILDERS}
        for _ in range(300):
            for name, args in _builder_cases(rng):
                builder, predicate = _BUILDERS[name]
                rejected = predicate(*args)
                assert _rejects(builder, *args) == rejected, (name, args)
                outcomes[name].add(rejected)
        assert all(seen == {True, False} for seen in outcomes.values())


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
        V = PotentialSpec("perturbed", 1.0, 0.05, (1.0, 0.2), 0.5)
        assert abs(V.eps) * ext.t_star <= 0.1
        params = CarlemanParams(a=0.25, p=2.0, n=3, potential=V,
                                shift=ext.weight)
        lo, hi = ext.time_window()
        tt = np.linspace(lo + 1e-3, hi - 1e-3, 21)
        for t in tt:
            rr = np.linspace(float(ext.r_inner(t)) + 1e-3,
                             0.5 * t - 1e-3, 11)
            if rr[0] >= rr[-1]:
                continue
            assert np.all(bulk_gamma(params, t, rr) > 0.0)
        rep = verify_shifted(params, gaussian_pulse(3, 1.0, 1.0, 0.3, 0.25), ext)
        assert np.isfinite(rep.ratio) and rep.ratio > 0.0


def _four_separate_terms(params, fieldobj, exterior, q):
    """The lateral terms of verify_shifted from four one-piece
    integrate_surfaces calls, one integrand (and one field evaluation)
    each."""
    a, p = params.a, params.p
    piece = lateral_boundary(exterior)
    integrands = (
        lambda t, r, f: fieldobj.jet(t, r)[1] ** 2 + fieldobj.jet(t, r)[2] ** 2,
        lambda t, r, f: np.abs(fieldobj.value(t, r)) ** (p + 1.0),
        lambda t, r, f: fieldobj.value(t, r) ** 2,
        lambda t, r, f: f ** (-1.0 + 2.0 * a) * fieldobj.value(t, r) ** 2,
    )
    return [integrate_surfaces((piece,), g, q, params.n)[0]
            for g in integrands]


class TestVerifyShiftedOneJet:
    @pytest.mark.parametrize("sigma,ts,a,poly", [
        (0.5, 1.0, 0.25, False), (0.3, 2.0, 0.2, True), (0.661277, 1.5, 0.3,
                                                         False)])
    def test_report_matches_four_separate_calls(self, monkeypatch, sigma, ts,
                                                a, poly):
        from conewave.fields import polynomial_gaussian

        ext = ExteriorRegionSpec(sigma, ts)
        params = CarlemanParams(a=a, p=2.0, n=3, shift=ext.weight)
        fieldobj = (polynomial_gaussian(3, 0.7, ts, 0.3, 0.4, c1=0.3, c2=-0.2)
                    if poly else gaussian_pulse(3, 1.0, ts, 0.3, 0.25))
        jets = []
        inner = fieldobj.evaluate

        def counting(t, r):
            jets.append(np.shape(r))
            return inner(t, r)

        object.__setattr__(fieldobj, "evaluate", counting)
        q = QuadratureSpec()
        rep = verify_shifted(params, fieldobj, ext, q)
        surface_calls = [shape for shape in jets if len(shape) == 1]
        t1, t2, t3, t4 = _four_separate_terms(params, fieldobj, ext, q)
        # one jet over the lateral piece's nodes, one over the probe's
        assert len(surface_calls) == 2
        assert surface_calls[0] == (t1.nodes_used,)
        want = {"t1_gradient": ts ** (1.0 + 4.0 * a) * t1.value,
                "t2_power": ts ** (1.0 + 4.0 * a) * t2.value,
                "t3_zeroth": ts ** (-1.0 + 4.0 * a) * t3.value,
                "t4_singular": ts * t4.value}
        assert {k: v.hex() for k, v in rep.terms.items()} == \
            {k: v.hex() for k, v in want.items()}
        for key, res in zip(("t1", "t2", "t3", "t4"), (t1, t2, t3, t4)):
            assert rep.error_estimates[key].hex() == res.error_estimate.hex()
        rhs = sum(want.values())
        assert rep.ratio.hex() == (rep.lhs / rhs).hex()
        assert all(v != 0.0 for v in want.values())
