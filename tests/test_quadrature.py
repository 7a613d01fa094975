import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from conewave.exact_solutions import smoothstep
from conewave.fields import ManufacturedField
from conewave.geometry import (
    AnnulusSpec,
    BoxSpec,
    ConeSegmentSpec,
    CylinderPiece,
    ExteriorRegionSpec,
    SlabSpec,
    TimeSlicePiece,
    lateral_boundary,
)
from conewave import quadrature
from conewave.quadrature import (
    NonFiniteSample,
    QuadratureSpec,
    integrate_bulk,
    integrate_slice,
    integrate_surface,
    vanishing_flux_probe,
)
from tests_helpers import closures_jet

ONE = lambda t, r: np.ones_like(r)

# frozen reference for int f^{1/2} over {1<r<2, |t|<0.4}, n=1, computed from
# a 2000^2-cell Gauss-2 tensor rule (stable to 13 digits across refinements)
F_HALF_BOX_REFERENCE = 1.185013601379671


def substitution_oracle(a):
    """int_{-pi/4}^{pi/4} (cos 2 theta)^(-1+2a) via u = pi/4 - theta and a
    power substitution that regularizes the endpoint."""
    inner = scipy_quad(
        lambda v: (math.sin(2.0 * v ** (1 / (2 * a)))) ** (-1 + 2 * a)
        * v ** (1 / (2 * a) - 1) / (2 * a),
        0.0, 0.1 ** (2 * a), limit=200)[0]
    outer = scipy_quad(lambda u: math.sin(2.0 * u) ** (-1 + 2 * a),
                       0.1, math.pi / 4, limit=200)[0]
    return 2.0 * (inner + outer)


class TestSpecValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            QuadratureSpec(base_order=3)
        with pytest.raises(ValueError):
            QuadratureSpec(cells_t=2)
        with pytest.raises(ValueError):
            QuadratureSpec(grading_exponent=0.5)
        with pytest.raises(ValueError):
            QuadratureSpec(refinement_levels=0)


class TestBulk:
    def test_annulus_volume_closed_form(self):
        res = integrate_bulk(AnnulusSpec(0.25, 0.5, -1.0), ONE,
                             QuadratureSpec(), 3)
        exact = 4 * math.pi / 3 * (0.5 ** 3 - 0.25 ** 3)
        assert res.value == pytest.approx(exact, rel=1e-12)
        assert res.error_estimate <= 1e-10

    def test_annulus_volume_monte_carlo_oracle(self):
        rng = np.random.default_rng(12345)
        pts = rng.uniform(-0.5, 0.5, size=(10_000_000, 3))
        rad = np.linalg.norm(pts, axis=1)
        mc = float(np.mean((rad > 0.25) & (rad < 0.5)))
        res = integrate_bulk(AnnulusSpec(0.25, 0.5, -1.0), ONE,
                             QuadratureSpec(), 3)
        assert res.value == pytest.approx(mc, rel=2e-3)

    def test_zero_integrand(self):
        for region in (AnnulusSpec(0.25, 0.5, -1.0),
                       BoxSpec(-0.4, 0.4, 1.0, 2.0),
                       SlabSpec(0.5, 1.5, -1.0),
                       ConeSegmentSpec(0.5, 1.0, 4.0)):
            res = integrate_bulk(region, lambda t, r: np.zeros_like(r),
                                 QuadratureSpec(), 3)
            assert res.value == 0.0

    def test_singular_power_box_matches_reference(self):
        # integrand f^{2a}, a = 1/4, bounded but with unbounded derivatives
        # nowhere in this box; plain smooth case at heart
        res = integrate_bulk(
            BoxSpec(-0.4, 0.4, 1.0, 2.0),
            lambda t, r: (0.25 * (r * r - t * t)) ** 0.5,
            QuadratureSpec(), 1)
        assert abs(res.value - F_HALF_BOX_REFERENCE) <= max(res.error_estimate, 1e-12)

    def test_slab_volume(self):
        # slab gamma=2, t*=-1, n=1: int_{-2}^{-1/2} 2 sigma |t| dt = 2 sigma (4-1/4)/2
        res = integrate_bulk(SlabSpec(0.5, 2.0, -1.0), ONE, QuadratureSpec(), 1)
        assert res.value == pytest.approx(2 * 0.5 * (4 - 0.25) / 2, rel=1e-12)
        # and the reflected slab at t* = +1 has the same volume
        res_pos = integrate_bulk(SlabSpec(0.5, 2.0, 1.0), ONE, QuadratureSpec(), 1)
        assert res_pos.value == pytest.approx(res.value, rel=1e-12)

    def test_exterior_region_eps_window(self):
        ext = ExteriorRegionSpec(0.5, 1.0, eps=0.01)
        lo, hi = ext.time_window()
        full = ExteriorRegionSpec(0.5, 1.0)
        lo0, hi0 = full.time_window()
        assert lo0 < lo < hi < hi0    # positive eps shrinks the window
        with pytest.raises(ValueError):
            ExteriorRegionSpec(0.5, 1.0, eps=10.0).time_window()

    def test_exterior_region_weighted_volume(self):
        # int over D of f^{2a}: compare against a dense reference computed
        # with scipy per time strip
        ext = ExteriorRegionSpec(0.5, 1.0)
        a = 0.25
        res = integrate_bulk(
            ext, lambda t, r: (0.25 * (r * r - (t - 1.0) ** 2)) ** (2 * a),
            QuadratureSpec(cells_t=64, cells_r=64), 3)
        lo, hi = ext.time_window()

        def strip(t):
            rmin = abs(t - 1.0)
            rmax = 0.5 * t
            val = scipy_quad(
                lambda r: 4 * math.pi * r * r
                * (0.25 * (r * r - (t - 1.0) ** 2)) ** (2 * a),
                rmin, rmax, limit=200)[0]
            return val

        ref = scipy_quad(strip, lo, hi, limit=200)[0]
        assert res.value == pytest.approx(ref, rel=1e-5)

    def test_nonfinite_integrand_reports_location(self):
        def bad(t, r):
            out = np.ones_like(r)
            out[r > 1.5] = np.inf
            return out

        with pytest.raises(NonFiniteSample) as err:
            integrate_bulk(BoxSpec(0.0, 1.0, 1.0, 2.0), bad, QuadratureSpec(), 1)
        t_bad, r_bad = err.value.location
        assert r_bad > 1.5


class TestBlockedEvaluation:
    """The slice and bulk loops evaluate integrands on blocks of whole mesh
    rows; the results must be the bits of a single whole-mesh call."""

    @staticmethod
    def _pair(calls):
        def integrand(t, r):
            calls.append(np.shape(r))
            return (np.exp(-(t - 0.3) ** 2 - r) * np.cos(3.0 * r),
                    t * r ** 2 + 0.5)
        return integrand

    @pytest.mark.parametrize("q,block", [
        (QuadratureSpec(), None),                    # 96 rows of 96: 85 + 11
        (QuadratureSpec(cells_t=12, cells_r=10), 220),  # 24 rows: 11 + 11 + 2
    ])
    def test_blocked_matches_one_block(self, monkeypatch, q, block):
        region = ConeSegmentSpec(0.5, 1.0, 2.0)
        if block is not None:
            monkeypatch.setattr(quadrature, "BLOCK_NODES", block)
        calls = []
        blocked = integrate_bulk(region, self._pair(calls), q, 3)
        cols = {shape[1] for shape in calls}
        assert len(calls) > q.refinement_levels + 1      # several blocks
        assert cols == {2 * q.cells_r, 4 * q.cells_r}    # whole rows only
        monkeypatch.setattr(quadrature, "BLOCK_NODES", 10 ** 9)
        whole = integrate_bulk(region, self._pair([]), q, 3)
        for k, (got, want) in enumerate(zip(blocked, whole)):
            assert got == want
            single = integrate_bulk(region, lambda t, r: self._pair([])(t, r)[k],
                                    q, 3)
            assert got == single

    def test_slice_several_integrands(self):
        pair = self._pair([])
        both = integrate_slice(-0.4, 0.1, 0.9, pair, QuadratureSpec(), 3)
        for k in range(2):
            assert both[k] == integrate_slice(
                -0.4, 0.1, 0.9, lambda t, r: pair(t, r)[k], QuadratureSpec(), 3)

    def test_nonfinite_location_does_not_depend_on_blocks(self, monkeypatch):
        def bad(t, r):
            out = np.ones_like(r)
            out[(r > 1.5) & (t > 0.6)] = np.nan
            return out

        locations = []
        for block in (300, 10 ** 9):
            monkeypatch.setattr(quadrature, "BLOCK_NODES", block)
            with pytest.raises(NonFiniteSample) as err:
                integrate_bulk(BoxSpec(0.0, 1.0, 1.0, 2.0), bad,
                               QuadratureSpec(), 1)
            locations.append(err.value.location)
        assert locations[0] == locations[1]
        assert locations[0][0] > 0.6 and locations[0][1] > 1.5

class TestSurface:
    def test_lateral_slab_measure_n1(self):
        from conewave.geometry import LateralSlabSpec

        piece = LateralSlabSpec(0.5, 2.0, 1.0).piece()
        res = integrate_surface(piece, ONE, QuadratureSpec(), 1)
        assert res.value == pytest.approx(2 * math.sqrt(0.75) * 1.5, rel=1e-12)

    def test_angle_parameter_bounded_at_quadrature_nodes(self):
        # every node the singular-piece integrator generates on the lateral
        # boundary satisfies |theta| <= pi/4 (+ roundoff)
        ext = ExteriorRegionSpec(0.5, 1.0)
        piece = lateral_boundary(ext)
        worst = []

        def recorder(t, r, f):
            theta = np.arctan2(t - 1.0, r)
            worst.append(np.max(np.abs(theta)))
            return np.zeros_like(r)

        integrate_surface(piece, recorder,
                          QuadratureSpec(cells_t=64, grading_exponent=6.0), 3)
        assert max(worst) <= math.pi / 4 + 1e-12

    def test_ball_slice_volume(self):
        piece = TimeSlicePiece(-1.0, 0.0, 0.5, 1)
        res = integrate_surface(piece, ONE, QuadratureSpec(), 3)
        assert res.value == pytest.approx(4 * math.pi / 3 * 0.125, rel=1e-12)

    def test_cylinder_measure(self):
        piece = CylinderPiece(1.5, 0.0, 2.0, 1)
        res = integrate_surface(piece, ONE, QuadratureSpec(), 3)
        assert res.value == pytest.approx(4 * math.pi * 1.5 ** 2 * 2.0, rel=1e-12)

    @pytest.mark.parametrize("a,cells,grading", [
        (0.05, 512, 30.0),
        (0.25, 256, 6.0),
        (0.45, 128, 3.0),
    ])
    def test_singular_angular_weight(self, a, cells, grading):
        # (cos 2 theta)^{-1+2a} over the lateral boundary of the exterior
        # region, n = 1; cos 2 theta = 4 f / (r^2 + (t-t*)^2) in terms of the
        # weight value supplied by the piece
        ext = ExteriorRegionSpec(0.5, 1.0)
        piece = lateral_boundary(ext)
        ts = 1.0

        def integrand(t, r, f):
            cos2t = 4.0 * f / (r * r + (t - ts) ** 2)
            return cos2t ** (-1.0 + 2.0 * a)

        res = integrate_surface(piece, integrand,
                                QuadratureSpec(cells_t=cells,
                                               grading_exponent=grading), 1)
        # oracle works in the angle variable; convert the cone-measure
        # integral: on r = sigma t, theta parametrizes the piece with
        # dt = r_shift sec^2(theta) dtheta / (1 - sigma tan(theta))... the
        # direct comparison integral is the same pulled back, so compute the
        # oracle in t with scipy instead, in the distance variable.
        sigma = 0.5

        def in_t(u, from_hi):
            # u = distance to the flagged end
            tm = ts / (1 + sigma)
            tp = ts / (1 - sigma)
            t = (tp - u) if from_hi else (tm + u)
            f = 0.25 * (1 - sigma ** 2) * u * ((t - tm) if from_hi else (tp - t))
            r = sigma * t
            cos2t = 4.0 * f / (r * r + (t - ts) ** 2)
            dens = 2.0 * math.sqrt(1 - sigma ** 2)
            return dens * cos2t ** (-1.0 + 2.0 * a)

        tm = ts / (1 + sigma)
        tp = ts / (1 - sigma)
        mid = 0.5 * (tm + tp)
        # substitution u = v^{1/(2a)} regularizes the endpoint factor u^{-1+2a}
        def half(from_hi, length):
            return scipy_quad(
                lambda v: in_t(v ** (1 / (2 * a)), from_hi)
                * v ** (1 / (2 * a) - 1) / (2 * a),
                0.0, length ** (2 * a), limit=400)[0]

        oracle = half(False, mid - tm) + half(True, tp - mid)
        assert res.value == pytest.approx(oracle, rel=1e-4)

    def test_pure_angular_weight_against_substitution_oracle(self):
        # same weights on a synthetic piece arranged so the measure factor
        # cancels, checking the tabulated 1-D integrals directly
        for a, cells, grading in ((0.05, 512, 30.0), (0.25, 256, 6.0),
                                  (0.45, 128, 3.0)):
            ext = ExteriorRegionSpec(0.5, 1.0)
            piece = lateral_boundary(ext)
            ts = 1.0
            sigma = 0.5

            def integrand(t, r, f):
                cos2t = 4.0 * f / (r * r + (t - ts) ** 2)
                # jacobian on the cone: tan th = (t-ts)/(sigma t), so
                # d theta / dt = sigma t* / (r^2 + (t-ts)^2)
                dth_dt = sigma * ts / (r * r + (t - ts) ** 2)
                dens = 2.0 * math.sqrt(1 - sigma ** 2)
                return cos2t ** (-1.0 + 2.0 * a) * dth_dt / dens

            res = integrate_surface(piece, integrand,
                                    QuadratureSpec(cells_t=cells,
                                                   grading_exponent=grading), 1)
            oracle = substitution_oracle(a)
            assert res.value == pytest.approx(oracle, rel=1e-4), a


class TestConvergence:
    def test_self_convergence_and_error_bound(self):
        # error_estimate at level L must bound the observed jump to L+1
        # within factor 4, and jumps must shrink
        integrands = [
            lambda t, r: np.exp(t) * np.cos(r),
            lambda t, r: (0.25 * (r * r - t * t)) ** 0.5,
            lambda t, r: 1.0 / (1.0 + r * r + t * t),
        ]
        box = BoxSpec(-0.4, 0.4, 1.0, 2.0)
        for fn in integrands:
            values = []
            errors = []
            for factor in (1, 2, 4):
                q = QuadratureSpec(cells_t=8 * factor, cells_r=8 * factor,
                                   base_order=2)
                res = integrate_bulk(box, fn, q, 1)
                values.append(res.value)
                errors.append(res.error_estimate)
            jump1 = abs(values[1] - values[0])
            jump2 = abs(values[2] - values[1])
            assert jump2 <= jump1 + 1e-15
            assert jump1 <= 4.0 * errors[0] + 1e-15
            assert jump2 <= 4.0 * errors[1] + 1e-15

    def test_refinement_levels_sharpen_the_value(self):
        box = BoxSpec(0.0, 1.0, 1.0, 2.0)
        fn = lambda t, r: np.sin(3 * t) * np.exp(-r)
        exact = integrate_bulk(box, fn,
                               QuadratureSpec(cells_t=256, cells_r=256), 1).value
        one = integrate_bulk(box, fn,
                             QuadratureSpec(cells_t=6, cells_r=6,
                                            base_order=2), 1)
        three = integrate_bulk(box, fn,
                               QuadratureSpec(cells_t=6, cells_r=6,
                                              base_order=2,
                                              refinement_levels=3), 1)
        assert three.nodes_used > one.nodes_used
        assert abs(three.value - exact) < abs(one.value - exact)
        assert three.error_estimate < one.error_estimate

    @pytest.mark.parametrize("order", [2, 4])
    def test_order_on_smooth_box(self, order):
        box = BoxSpec(0.0, 1.0, 1.0, 2.0)
        fn = lambda t, r: np.sin(3 * t) * np.exp(-r)
        exact = integrate_bulk(box, fn,
                               QuadratureSpec(cells_t=256, cells_r=256,
                                              base_order=4), 1).value
        hs, errs = [], []
        for cells in (4, 8, 16, 32):
            q = QuadratureSpec(cells_t=cells, cells_r=cells, base_order=order)
            val = integrate_bulk(box, fn, q, 1).value
            hs.append(1.0 / cells)
            errs.append(abs(val - exact) + 1e-300)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(order, abs=0.3)


def _compact_bump_field(n, r_lo, r_hi, t_lo, t_hi, amplitude=1.0):
    """C^2 bump supported in [t_lo, t_hi] x [r_lo, r_hi]."""
    rw = (r_hi - r_lo) / 2.0
    tw = (t_hi - t_lo) / 2.0

    def S(s):
        return smoothstep(s)

    def Sp(s):
        s = np.clip(s, 0.0, 1.0)
        return 30 * s ** 4 - 60 * s ** 3 + 30 * s ** 2

    def bump(u):
        return S(u) * S(2.0 - u)

    def dbump(u):
        return Sp(u) * S(2.0 - u) - S(u) * Sp(2.0 - u)

    ur = lambda r: (r - r_lo) / rw
    ut = lambda t: (t - t_lo) / tw

    def phi(t, r):
        return amplitude * bump(ut(t)) * bump(ur(r))

    def phi_t(t, r):
        return amplitude * dbump(ut(t)) * bump(ur(r)) / tw

    def phi_r(t, r):
        return amplitude * bump(ut(t)) * dbump(ur(r)) / rw

    def box(t, r):
        h = 1e-5
        return ((phi_r(t, r + h) - phi_r(t, r - h)) / (2 * h)
                - (phi_t(t + h, r) - phi_t(t - h, r)) / (2 * h)
                + (n - 1) / r * phi_r(t, r))

    return ManufacturedField(n, closures_jet(phi, phi_t, phi_r, box),
                             label="compact")


class TestFluxProbe:
    def test_zero_field(self):
        from conewave.fields import zero_field

        ext = ExteriorRegionSpec(0.5, 1.0)
        vals = vanishing_flux_probe(ext, zero_field(3), 0.25,
                                    [1e-2, 1e-3, 1e-4], p=2.0, n=3)
        assert vals == [0.0, 0.0, 0.0]

    def test_constant_field_decays(self):
        from conewave.fields import constant_field

        ext = ExteriorRegionSpec(0.5, 1.0)
        vals = vanishing_flux_probe(ext, constant_field(1.0, 3), 0.25,
                                    [1e-2, 1e-3, 1e-4], p=2.0, n=3)
        mags = [abs(v) for v in vals]
        assert mags[0] > mags[1] > mags[2]
        # leading term ~ eps^{2a} * sqrt(eps) measure vs eps^{-1/2} integrand:
        # net eps^{ 2a } decay modulo the slowly varying rest
        assert mags[2] < 0.5 * mags[0]

    def test_bump_away_from_null_cone_gives_exact_zero(self):
        # support strictly inside the cone and away from the whole shifted
        # null cone r = |t - t*|: small-eps level sets never meet it
        ext = ExteriorRegionSpec(0.8, 1.0)
        fld = _compact_bump_field(3, 0.55, 0.75, 0.9, 1.1)
        vals = vanishing_flux_probe(ext, fld, 0.25, [1e-4, 1e-5], p=2.0, n=3)
        # within the bump's t-window the eps = 1e-4 level sits at
        # r <= sqrt(0.01 + 4e-4) < 0.11 << 0.55
        assert vals[0] == 0.0
        assert vals[1] == 0.0

    def test_rejects_increasing_sequence(self):
        from conewave.fields import zero_field

        ext = ExteriorRegionSpec(0.5, 1.0)
        with pytest.raises(ValueError):
            vanishing_flux_probe(ext, zero_field(3), 0.25, [1e-4, 1e-3])
