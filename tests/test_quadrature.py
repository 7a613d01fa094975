import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from conewave.exact_solutions import smoothstep
from conewave.fields import (ArgumentError, LevelRangeError,
                             ManufacturedField, PotentialSpec)
from conewave.carleman import (CarlemanParams, frustum_region,
                               vanishing_flux_probe)
from conewave.geometry import (
    ConePiece,
    ConeSegmentSpec,
    CylinderPiece,
    ExteriorRegionSpec,
    TimeSlicePiece,
)
from conewave import quadrature
from conewave.quadrature import (
    NonFiniteSample,
    QuadratureResult,
    QuadratureSpec,
    integrate_bulk,
    integrate_slices,
    integrate_surfaces,
)
from tests_helpers import (box_bulk, closures_jet, constant_field,
                           slice_by_slice, truncated_run_levels,
                           written_region, zero_field)

ONE = lambda t, r: np.ones_like(r)
QUAD96 = QuadratureSpec(96)  # the benchmark's profile


@pytest.fixture(scope="module")
def run_field():
    return truncated_run_levels()

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
            QuadratureSpec(grading_exponent=0.5)

    @pytest.mark.parametrize("cells", [2, 3, math.nan])
    def test_cells_below_four_or_nan_are_refused_by_name(self, cells):
        with pytest.raises(ArgumentError, match=rf"^cells must be at least "
                                                rf"4, got {cells!r}$"):
            QuadratureSpec(cells)

    @pytest.mark.parametrize("axis", ["t", "r"])
    def test_one_count_for_both_directions(self, axis):
        # one cell count for t and r: no keyword sets either alone
        assert [f.name for f in dataclasses.fields(QuadratureSpec)] == [
            "cells", "grading_exponent"]
        with pytest.raises(TypeError):
            QuadratureSpec(**{f"cells_{axis}": 8})

    def test_a_nan_grading_is_refused_by_name(self):
        # before: accepted, nan < 1 being false
        with pytest.raises(ArgumentError, match=r"^grading_exponent must be "
                                                r"at least 1, got nan$"):
            QuadratureSpec(grading_exponent=math.nan)


class TestBulk:
    def test_annulus_volume_closed_form(self):
        # the annulus {0.25 |t| < r < 0.5 |t|} at t = -1 is a fixed-time slice
        [res] = integrate_slices([-1.0], 0.25, 0.5, ONE, QuadratureSpec(), 3)
        exact = 4 * math.pi / 3 * (0.5 ** 3 - 0.25 ** 3)
        assert res.value == pytest.approx(exact, rel=1e-12)
        assert res.error_estimate <= 1e-10

    def test_annulus_volume_monte_carlo_oracle(self):
        rng = np.random.default_rng(12345)
        pts = rng.uniform(-0.5, 0.5, size=(10_000_000, 3))
        rad = np.linalg.norm(pts, axis=1)
        mc = float(np.mean((rad > 0.25) & (rad < 0.5)))
        [res] = integrate_slices([-1.0], 0.25, 0.5, ONE, QuadratureSpec(), 3)
        assert res.value == pytest.approx(mc, rel=2e-3)

    def test_zero_integrand(self):
        zero = lambda t, r: np.zeros_like(r)
        assert integrate_slices([-1.0], 0.25, 0.5, zero, QuadratureSpec(),
                                3)[0].value == 0.0
        for region in (box_bulk(-0.4, 0.4, 1.0, 2.0),
                       ConeSegmentSpec(0.5, -1.5, -1.0 / 1.5),
                       ConeSegmentSpec(0.5, 1.0, 4.0)):
            res = integrate_bulk(region, zero, QuadratureSpec(), 3)
            assert res.value == 0.0

    def test_singular_power_box_matches_reference(self):
        # integrand f^{2a}, a = 1/4, bounded but with unbounded derivatives
        # nowhere in this box; plain smooth case at heart
        res = integrate_bulk(
            box_bulk(-0.4, 0.4, 1.0, 2.0),
            lambda t, r: (0.25 * (r * r - t * t)) ** 0.5,
            QuadratureSpec(), 1)
        assert abs(res.value - F_HALF_BOX_REFERENCE) <= max(res.error_estimate, 1e-12)

    def test_slab_volume(self):
        # slab gamma=2, t*=-1, n=1: int_{-2}^{-1/2} 2 sigma |t| dt = 2 sigma (4-1/4)/2
        res = integrate_bulk(ConeSegmentSpec(0.5, -2.0, -0.5), ONE,
                             QuadratureSpec(), 1)
        assert res.value == pytest.approx(2 * 0.5 * (4 - 0.25) / 2, rel=1e-12)
        # and the reflected slab at t* = +1 has the same volume
        res_pos = integrate_bulk(ConeSegmentSpec(0.5, 0.5, 2.0), ONE,
                                 QuadratureSpec(), 1)
        assert res_pos.value == pytest.approx(res.value, rel=1e-12)

    def test_exterior_region_eps_window(self):
        ext = ExteriorRegionSpec(0.5, 1.0)
        level = ext.level_set(0.01)
        lo0, hi0 = ext.time_window()
        assert lo0 < level.t_lo < level.t_hi < hi0  # eps > 0 shrinks it
        with pytest.raises(ValueError, match="eps too large"):
            ext.level_set(10.0)

    def test_exterior_region_weighted_volume(self):
        # int over D of f^{2a}: compare against a dense reference computed
        # with scipy per time strip
        ext = ExteriorRegionSpec(0.5, 1.0)
        a = 0.25
        res = integrate_bulk(
            ext, lambda t, r: (0.25 * (r * r - (t - 1.0) ** 2)) ** (2 * a),
            QuadratureSpec(64), 3)
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
            integrate_bulk(box_bulk(0.0, 1.0, 1.0, 2.0), bad, QuadratureSpec(), 1)
        t_bad, r_bad = err.value.location
        assert r_bad > 1.5

    def test_nonfinite_sample_message_has_plain_floats(self):
        # before, numpy 2's scalar reprs: `np.float64(nan) at
        # (t=np.float64(-0.5), ...`
        def bad(t, r):
            return np.where(r > 0.5, np.nan, 1.0) + 0.0 * t

        with pytest.raises(NonFiniteSample) as err:
            integrate_slices([-0.5], 0.0, 1.0, bad, QuadratureSpec(), 3)
        message = str(err.value)
        assert message.startswith("non-finite integrand sample nan at "
                                  "(t=-0.5, r=")
        assert "np." not in message


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
        (QuadratureSpec(), None),      # 96 rows of 96: 85 + 11
        (QuadratureSpec(12), 220),     # 24 rows of 24: 9 + 9 + 6
    ])
    def test_blocked_matches_one_block(self, monkeypatch, q, block):
        region = ConeSegmentSpec(0.5, 1.0, 2.0)
        if block is not None:
            monkeypatch.setattr(quadrature, "BLOCK_NODES", block)
        calls = []
        blocked = integrate_bulk(region, self._pair(calls), q, 3)
        cols = {shape[1] for shape in calls}
        assert len(calls) > 2                            # several blocks
        assert cols == {2 * q.cells, 4 * q.cells}        # whole rows only
        monkeypatch.setattr(quadrature, "BLOCK_NODES", 10 ** 9)
        whole = integrate_bulk(region, self._pair([]), q, 3)
        for k, (got, want) in enumerate(zip(blocked, whole)):
            assert got == want
            single = integrate_bulk(region, lambda t, r: self._pair([])(t, r)[k],
                                    q, 3)
            assert got == single

    def test_slice_several_integrands(self):
        pair = self._pair([])
        [both] = integrate_slices([-0.4], 0.1, 0.9, pair, QuadratureSpec(), 3)
        for k in range(2):
            assert [both[k]] == integrate_slices(
                [-0.4], 0.1, 0.9, lambda t, r: pair(t, r)[k], QuadratureSpec(),
                3)

    def test_nonfinite_location_does_not_depend_on_blocks(self, monkeypatch):
        def bad(t, r):
            out = np.ones_like(r)
            out[(r > 1.5) & (t > 0.6)] = np.nan
            return out

        for region in (box_bulk(0.0, 1.0, 1.0, 2.0),
                       # r_outer from 1.5 to 1.95: each row its own span
                       frustum_region(0.0, 0.9, 1.0, 0.5, -3.0)):
            locations = []
            for block in (300, 10 ** 9):
                monkeypatch.setattr(quadrature, "BLOCK_NODES", block)
                with pytest.raises(NonFiniteSample) as err:
                    integrate_bulk(region, bad, QuadratureSpec(), 1)
                locations.append(err.value.location)
            assert locations[0] == locations[1]
            assert locations[0][0] > 0.6 and locations[0][1] > 1.5

    def test_a_nan_in_the_second_output_names_its_first_node(self):
        # the first output is finite everywhere; the error names the first
        # bad node of the second in row order on the coarse mesh
        def pair(t, r):
            second = t * r
            second[(r > 1.5) & (t > 0.6)] = np.nan
            return np.ones_like(r), second

        q = QuadratureSpec()
        with pytest.raises(NonFiniteSample) as err:
            integrate_bulk(box_bulk(0.0, 1.0, 1.0, 2.0), pair, q, 1)
        tn = quadrature._interval_nodes(0.0, 1.0, q.cells)[0]
        rn = quadrature._interval_nodes(1.0, 2.0, q.cells)[0]
        assert err.value.location == (float(tn[tn > 0.6][0]),
                                      float(rn[rn > 1.5][0]))

    def test_the_outputs_are_tested_in_order(self, monkeypatch):
        # the first output's NaN sits in a later block than the second's;
        # the error still names the first output's sample
        def pair(t, r):
            first, second = np.ones_like(r), t * r
            first[(r > 1.5) & (t > 0.9)] = np.nan
            second[(r > 1.5) & (t > 0.3)] = np.nan
            return first, second

        monkeypatch.setattr(quadrature, "BLOCK_NODES", 300)
        with pytest.raises(NonFiniteSample) as err:
            integrate_bulk(box_bulk(0.0, 1.0, 1.0, 2.0), pair,
                           QuadratureSpec(), 1)
        assert err.value.location[0] > 0.9

    def test_an_overflowing_weighted_sum_is_inf(self):
        # every value is finite, every meas * value overflows: the sums are
        # inf, with no error and no warning (warnings are errors here)
        big = np.finfo(float).max
        T, lo = np.array([[0.0], [0.5]]), np.ones((2, 1))
        span = np.full((2, 1), 2.0)
        rule = quadrature._unit_rule(8)

        def pair(t, r):
            return np.full(r.shape, big), np.full(r.shape, -big)

        total = quadrature._weighted_sums(pair, T, lo, span, rule, 3)
        rows = quadrature._weighted_sums(pair, T, lo, span, rule, 3, axis=1)
        assert total == (math.inf, -math.inf)
        assert [list(v) for v in rows] == [[math.inf] * 2, [-math.inf] * 2]

    def test_a_weight_past_the_float_range_is_named(self):
        # n = 3 near r = 1e300: every r^2 overflows to inf and the integrand
        # is 0, so each product is nan. Before: a ValueError `error
        # estimate must be >= 0, got nan`
        with pytest.raises(NonFiniteSample,
                           match="non-finite quadrature weight inf") as err:
            integrate_slices([0.5], 1e300, 2e300, lambda t, r: 0.0 * r,
                             QuadratureSpec(), 3)
        rel = quadrature._unit_rule(QuadratureSpec().cells)[0]
        assert err.value.location == (0.5, 1e300 + 1e300 * rel[0])

    def test_a_surface_weight_past_the_float_range_is_named(self):
        # a cone piece at r near 1e300: r^(n-1) overflows in its node set.
        # Before: an `overflow encountered in power` warning, then
        # inf * 0 = nan and the ValueError on its error estimate
        with pytest.raises(NonFiniteSample,
                           match="non-finite quadrature weight inf") as err:
            integrate_surfaces([ConePiece(0.5, 2e300, 4e300)],
                               lambda t, r: 0.0 * r, QuadratureSpec(), 3)
        t = 2e300 + 2e300 * quadrature._unit_rule(QuadratureSpec().cells)[0][0]
        assert err.value.location == (t, 0.5 * t)

    def test_an_integral_whose_two_levels_overflow_estimates_inf(self):
        # before: inf - inf gave error_estimate=nan, after a RuntimeWarning
        # (an error here)
        [res] = integrate_slices(
            [0.0], 1.0, 3.0, lambda t, r: np.full(r.shape, np.finfo(float).max),
            QuadratureSpec(), 3)
        assert res.value == math.inf and res.error_estimate == math.inf

    @pytest.mark.parametrize("estimate", [-1.0, math.nan])
    def test_a_result_refuses_a_negative_or_nan_estimate(self, estimate):
        with pytest.raises(ValueError, match="error estimate must be >= 0"):
            QuadratureResult(1.0, estimate, 8)

    def test_no_full_mesh_buffer(self):
        # cells = 192: the fine level is 768 x 768 nodes, and one float64
        # array of that mesh is 4.72 MB
        q = QuadratureSpec(192)
        integrand = self._pair([])
        tracemalloc.start()
        try:
            integrate_bulk(ConeSegmentSpec(0.5, 1.0, 2.0), integrand, q, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 768 * 768 * 8

class TestUnitRuleCache:
    """The unit node rules are built once per (cells, grading, flags) and
    shared: read-only, the bits of a rule built fresh, and of the rule's
    order on any grading (exact for polynomials of degree below it)."""

    @pytest.mark.parametrize("cells,order,grade,lo,hi", [
        (48, 4, 3.0, False, False), (96, 4, 3.0, True, False),
        (96, 4, 3.0, False, True), (97, 4, 2.5, True, True),
        (9, 4, 3.0, False, False), (18, 4, 1.5, True, True),
    ])
    def test_read_only_and_fresh_bits(self, cells, order, grade, lo, hi):
        rule = quadrature._unit_rule(cells, grade, lo, hi)
        fresh = quadrature._cell_nodes(
            quadrature._breakpoints(cells, grade, lo, hi))
        for got, want in zip(rule, fresh):
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 0.5
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert quadrature._unit_rule(cells, grade, lo, hi) is rule
        nodes, weights = rule  # exact below its order on any grading
        for degree in range(order):
            assert np.sum(weights * nodes ** degree) == pytest.approx(
                1.0 / (degree + 1), rel=1e-13)
        # callers get their own arrays, scaled from the shared rule
        nodes, weights = quadrature._interval_nodes(-1.0, 2.0, cells, grade,
                                                    lo, hi)
        assert nodes.flags.writeable and weights.flags.writeable
        assert nodes.tobytes() == (-1.0 + 3.0 * fresh[0]).tobytes()
        assert weights.tobytes() == (3.0 * fresh[1]).tobytes()


class TestSurface:
    def test_lateral_slab_measure_n1(self):
        piece = ConePiece(0.5, 0.5, 2.0)
        [res] = integrate_surfaces((piece,), ONE, QuadratureSpec(), 1)
        assert res.value == pytest.approx(2 * math.sqrt(0.75) * 1.5, rel=1e-12)

    def test_angle_parameter_bounded_at_quadrature_nodes(self):
        # every node the singular-piece integrator generates on the lateral
        # boundary satisfies |theta| <= pi/4 (+ roundoff)
        ext = ExteriorRegionSpec(0.5, 1.0)
        piece = ext.lateral
        worst = []

        def recorder(t, r, f):
            theta = np.arctan2(t - 1.0, r)
            worst.append(np.max(np.abs(theta)))
            return np.zeros_like(r)

        integrate_surfaces((piece,), recorder,
                           QuadratureSpec(64, grading_exponent=6.0), 3)
        assert max(worst) <= math.pi / 4 + 1e-12

    def test_ball_slice_volume(self):
        piece = TimeSlicePiece(-1.0, 0.0, 0.5)
        [res] = integrate_surfaces((piece,), ONE, QuadratureSpec(), 3)
        assert res.value == pytest.approx(4 * math.pi / 3 * 0.125, rel=1e-12)

    def test_cylinder_measure(self):
        piece = CylinderPiece(1.5, 0.0, 2.0)
        [res] = integrate_surfaces((piece,), ONE, QuadratureSpec(), 3)
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
        piece = ext.lateral
        ts = 1.0

        def integrand(t, r, f):
            cos2t = 4.0 * f / (r * r + (t - ts) ** 2)
            return cos2t ** (-1.0 + 2.0 * a)

        [res] = integrate_surfaces((piece,), integrand,
                                   QuadratureSpec(cells, grading_exponent=grading), 1)
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
            piece = ext.lateral
            ts = 1.0
            sigma = 0.5

            def integrand(t, r, f):
                cos2t = 4.0 * f / (r * r + (t - ts) ** 2)
                # jacobian on the cone: tan th = (t-ts)/(sigma t), so
                # d theta / dt = sigma t* / (r^2 + (t-ts)^2)
                dth_dt = sigma * ts / (r * r + (t - ts) ** 2)
                dens = 2.0 * math.sqrt(1 - sigma ** 2)
                return cos2t ** (-1.0 + 2.0 * a) * dth_dt / dens

            spec = QuadratureSpec(cells, grading_exponent=grading)
            [res] = integrate_surfaces((piece,), integrand, spec, 1)
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
        box = box_bulk(-0.4, 0.4, 1.0, 2.0)
        for fn in integrands:
            values = []
            errors = []
            for factor in (1, 2, 4):
                q = QuadratureSpec(8 * factor)
                res = integrate_bulk(box, fn, q, 1)
                values.append(res.value)
                errors.append(res.error_estimate)
            jump1 = abs(values[1] - values[0])
            jump2 = abs(values[2] - values[1])
            assert jump2 <= jump1 + 1e-15
            assert jump1 <= 4.0 * errors[0] + 1e-15
            assert jump2 <= 4.0 * errors[1] + 1e-15

    @pytest.mark.parametrize("order", [4])  # of the two-point Gauss rule
    def test_order_on_smooth_box(self, order):
        box = box_bulk(0.0, 1.0, 1.0, 2.0)
        fn = lambda t, r: np.sin(3 * t) * np.exp(-r)
        exact = integrate_bulk(box, fn,
                               QuadratureSpec(256), 1).value
        hs, errs = [], []
        for cells in (4, 8, 16, 32):
            q = QuadratureSpec(cells)
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

    return ManufacturedField(closures_jet(phi, phi_t, phi_r, box))


# The probe's Carleman parameters: a = 1/4, p = 2, n = 3, V = 1; the
# weight is the exterior region's.
PROBE_PARAMS = CarlemanParams(a=0.25, p=2.0, n=3, potential=PotentialSpec(1.0))


class TestFluxProbe:
    def test_zero_field(self):
        ext = ExteriorRegionSpec(0.5, 1.0)
        vals = vanishing_flux_probe(PROBE_PARAMS, zero_field(), ext,
                                    [1e-2, 1e-3, 1e-4])
        assert vals == [0.0, 0.0, 0.0]

    def test_constant_field_decays(self):
        ext = ExteriorRegionSpec(0.5, 1.0)
        vals = vanishing_flux_probe(PROBE_PARAMS, constant_field(1.0), ext,
                                    [1e-2, 1e-3, 1e-4])
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
        vals = vanishing_flux_probe(PROBE_PARAMS, fld, ext, [1e-4, 1e-5])
        # within the bump's t-window the eps = 1e-4 level sits at
        # r <= sqrt(0.01 + 4e-4) < 0.11 << 0.55
        assert vals[0] == 0.0
        assert vals[1] == 0.0

    def test_rejects_increasing_sequence(self):
        ext = ExteriorRegionSpec(0.5, 1.0)
        with pytest.raises(ValueError, match="decreasing"):
            vanishing_flux_probe(PROBE_PARAMS, zero_field(), ext,
                                 [1e-4, 1e-3])


def _reference_level_loop(t_window, r_inner, r_outer, integrand, q, n,
                          singular_r=(False, False), singular_t=(False, False)):
    """integrate_bulk with every node given its own t: the time column
    broadcast over the mesh, the measure WW * om * RR^(n-1) kept whole, one
    integrand call per level and sum(meas * vals), summed along each row
    and then over the row sums. Returns the results as
    integrate_bulk does, or the location of the first non-finite sample."""
    from conewave.quadrature import sphere_area

    om = sphere_area(n)
    values, nodes = [], 0
    for cells in (q.cells, 2 * q.cells):
        tn, tws = quadrature._interval_nodes(
            t_window[0], t_window[1], cells,
            q.grading_exponent, singular_t[0], singular_t[1])
        rlo = np.asarray(r_inner(tn), dtype=float)
        rhi = np.asarray(r_outer(tn), dtype=float)
        rel, rw_rel = quadrature._cell_nodes(
            quadrature._breakpoints(cells, q.grading_exponent,
                                    singular_r[0], singular_r[1]))
        span = (rhi - rlo)[:, None]
        RR = rlo[:, None] + span * rel[None, :]
        WW = tws[:, None] * span * rw_rel[None, :]
        TT = np.broadcast_to(tn[:, None], RR.shape)
        meas = WW * om * RR ** (n - 1)
        out = integrand(TT, RR)
        outs = out if isinstance(out, tuple) else (out,)
        sums = []
        for vals in outs:
            bad = ~np.isfinite(vals)
            if np.any(bad):
                idx = np.unravel_index(np.argmax(bad), bad.shape)
                return TT[idx], RR[idx]
            sums.append(float(np.sum(np.sum(meas * vals, axis=1))))
        values.append(tuple(sums) if isinstance(out, tuple) else sums[0])
        nodes += RR.size
    if isinstance(values[-1], tuple):
        return tuple(quadrature.QuadratureResult(v, abs(v - w), nodes)
                     for v, w in zip(values[-1], values[-2]))
    return quadrature.QuadratureResult(values[-1], abs(values[-1] - values[-2]),
                                       nodes)


def _same_result_bits(got, want):
    for g, w in zip(got if isinstance(got, tuple) else (got,),
                    want if isinstance(want, tuple) else (want,)):
        assert g.value.hex() == w.value.hex()
        assert g.error_estimate.hex() == w.error_estimate.hex()
        assert g.nodes_used == w.nodes_used


class TestRowColumnTime:
    """integrate_bulk passes t as a (rows, 1) column; its sums must be
    the bits of a loop that hands every node its own t."""

    @staticmethod
    def _discrete_field():
        from conewave.fields import DiscreteField

        rng = np.random.default_rng(3)
        r = np.linspace(0.0, 2.5, 129)
        times = np.linspace(-1.0, 0.2, 13)
        return DiscreteField(times, r, rng.standard_normal((13, r.size)),
                             rng.standard_normal((13, r.size)))

    def _integrands(self):
        from conewave.cli import _offcenter_gaussian
        from conewave.exact_solutions import ode_field
        from conewave.fields import PotentialSpec
        from conewave.geometry import ShiftedWeight

        gauss = _offcenter_gaussian(3, 0.8, -0.1, 1.0, 0.3, 0.35)
        disc = self._discrete_field()
        pot = PotentialSpec(c0=1.1, eps=0.15, center=(0.0, 1.0), width=0.8)
        weight = ShiftedWeight(0.4)
        ode = ode_field(2.5)

        def manufactured(t, r):
            ph, ph_t, ph_r, box = gauss.jet(t, r)
            return (ph_t ** 2 + ph_r ** 2 + np.abs(ph) ** 3.2,
                    weight.value_radial(t, r) ** 2 * pot.value(t, r) * box)

        def discrete(t, r):
            v, v_t, v_r = disc.jet(t, r)
            return v_t ** 2 + v_r ** 2 + v * v / (0.3 * 0.3)

        def ode_power(t, r):
            return np.abs(ode.jet(t - 1.5, r)[0]) ** 3.0 / (t - 1.5) ** 2

        return {"manufactured": manufactured, "discrete": discrete,
                "ode": ode_power}

    @pytest.mark.parametrize("q", [QuadratureSpec(), QuadratureSpec(11)])
    @pytest.mark.parametrize("name", ["manufactured", "discrete", "ode"])
    def test_profile_sums_match_per_node_times(self, name, q):
        integrand = self._integrands()[name]
        cases = [
            ((-0.9, 0.1), lambda t: np.zeros_like(t), lambda t: 0.8 * np.abs(t)
             + 0.1, {}),
            ((-0.5, 0.15), lambda t: 0.2 + 0.1 * t, lambda t: 2.0 + 0.0 * t,
             dict(singular_r=(True, False), singular_t=(True, True))),
        ]
        for window, r_in, r_out, flags in cases:
            got = integrate_bulk(written_region(window, r_in, r_out, **flags),
                                 integrand, q, 3)
            want = _reference_level_loop(window, r_in, r_out, integrand, q, 3,
                                         **flags)
            _same_result_bits(got, want)

    @pytest.mark.parametrize("name", ["manufactured", "discrete", "ode"])
    def test_slice_sums_match_per_node_times(self, name):
        from conewave.quadrature import sphere_area

        integrand = self._integrands()[name]
        q = QuadratureSpec(8)
        # many levels: a scalar level would round t-only powers differently
        # from the array path for only a few percent of the times
        for t in np.linspace(-0.95, 0.15, 45):
            values = []
            for cells in (q.cells, 2 * q.cells):
                rn, rw = quadrature._interval_nodes(0.1, 1.9, cells)
                out = integrand(np.full_like(rn, t), rn)
                outs = out if isinstance(out, tuple) else (out,)
                values.append([float(np.sum(rw * sphere_area(3) * rn ** 2 * v))
                               for v in outs])
            [got] = integrate_slices([t], 0.1, 1.9, integrand, q, 3)
            for g, fine, coarse in zip(
                    got if isinstance(got, tuple) else (got,),
                    values[1], values[0]):
                assert g.value.hex() == fine.hex()
                assert g.error_estimate.hex() == abs(fine - coarse).hex()

    def test_integrand_sees_a_time_column(self):
        shapes = []

        def integrand(t, r):
            shapes.append((np.shape(t), np.shape(r)))
            return np.ones_like(r)

        integrate_bulk(written_region((0.0, 1.0), lambda t: 0.0 * t,
                                      lambda t: 1.0 + t), integrand,
                       QuadratureSpec(), 3)
        assert all(ts == (rs[0], 1) for ts, rs in shapes)
        q = QuadratureSpec()
        shapes.clear()
        integrate_slices([0.5], 0.0, 1.0, integrand, q, 3)
        assert shapes == [((1, 1), (1, 2 * q.cells)),
                          ((1, 1), (1, 4 * q.cells))]
        shapes.clear()
        quadrature.integrate_slices(np.linspace(0.1, 0.9, 17), 0.0, 1.0,
                                    integrand, q, 3)
        assert shapes == [((17, 1), (17, 2 * q.cells)),
                          ((17, 1), (17, 4 * q.cells))]

    def test_nonfinite_location_with_a_time_column(self):
        def bad(t, r):
            return np.where((r > 1.2) & (t > 0.55), np.nan, 1.0 + 0.0 * r)

        shape = ((0.0, 1.0), lambda t: 0.5 + 0.0 * t, lambda t: 2.0 - 0.5 * t)
        with pytest.raises(NonFiniteSample) as err:
            integrate_bulk(written_region(*shape), bad, QuadratureSpec(), 3)
        want = _reference_level_loop(*shape, bad, QuadratureSpec(), 3)
        assert err.value.location == want
        assert want[0] > 0.55 and want[1] > 1.2
        assert all(np.shape(x) == () for x in err.value.location)


# --------------------------------------------------------------------------
# Families of slices: one mesh per level, the bits of one slice at a time
# --------------------------------------------------------------------------

def _single(t, r):
    return np.exp(-(t - 0.3) ** 2 - r) * np.cos(3.0 * r) + t * r


def _pair(t, r):
    return (np.exp(-(t - 0.3) ** 2 - r) * np.cos(3.0 * r),
            np.abs(t) ** 1.7 * r ** 2 + 0.5)


def _row_pair(t, r):
    """Two t-only outputs: one value per mesh row."""
    return np.exp(-(t - 0.3) ** 2), np.abs(t) ** 1.7 + 0.5


TIMES17 = np.linspace(-0.9, 0.7, 17)


class TestSliceFamily:
    @pytest.mark.parametrize("q", [QuadratureSpec(12),
                                   QuadratureSpec(9)])
    @pytest.mark.parametrize("integrand", [_single, _pair])
    @pytest.mark.parametrize("k", [1, 17])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_the_slice_by_slice_loop(self, q, integrand, k, n):
        times = TIMES17[:k]
        r_lo = 0.05 + 0.3 * np.abs(times)
        r_hi = r_lo + 0.4 + 0.5 * (times + 1.0)
        got = integrate_slices(times, r_lo, r_hi, integrand, q, n)
        assert len(got) == k
        for res, t, lo, hi in zip(got, times, r_lo, r_hi):
            want = slice_by_slice(t, lo, hi, integrand, q, n)
            assert isinstance(res, tuple) == isinstance(want, tuple)
            _same_result_bits(res, want)

    def test_one_call_per_level(self):
        shapes = []

        def integrand(t, r):
            shapes.append((t.shape, r.shape))
            return _pair(t, r)

        q = QuadratureSpec()
        integrate_slices(TIMES17, 0.1, 0.9, integrand, q, 3)
        assert shapes == [((17, 1), (17, 2 * q.cells)),
                          ((17, 1), (17, 4 * q.cells))]

    @pytest.mark.parametrize("integrand", [_pair, _row_pair])
    def test_row_blocks_keep_the_bits(self, monkeypatch, integrand):
        q = QuadratureSpec()
        whole = integrate_slices(TIMES17, 0.1, 0.9, integrand, q, 3)
        blocks = []

        def counting(t, r):
            out = integrand(t, r)
            blocks.append((r.shape, all(np.size(v) <= len(r) for v in out)))
            return out

        monkeypatch.setattr(quadrature, "BLOCK_NODES", 500)
        blocked = integrate_slices(TIMES17, 0.1, 0.9, counting, q, 3)
        assert len(blocks) > 2
        # a block may take twice the rows only after a row-valued one
        after_row_valued = [False] + [row for _, row in blocks[:-1]]
        assert all(rows * cols <= (1000 if grown else 500)
                   for ((rows, cols), _), grown in zip(blocks,
                                                       after_row_valued))
        assert any(rows * cols > 500 for (rows, cols), _ in blocks) == (
            integrand is _row_pair)
        for got, want in zip(blocked, whole):
            _same_result_bits(got, want)

    @staticmethod
    def _last_nodes(q):
        """The last radial node of each level on (0.1, 0.9)."""
        return [quadrature._interval_nodes(0.1, 0.9, f * q.cells)[0][-1]
                for f in (1, 2)]

    @pytest.mark.parametrize("output", [None, 0, 1])
    def test_nonfinite_location_follows_the_slice_order(self, output):
        # slice 1 is bad only at the finer level's last node, slice 3 at
        # every level: a batched first level meets slice 3 first, the
        # slice-by-slice loop slice 1
        q = QuadratureSpec()
        times = np.linspace(0.1, 0.5, 5)
        c1, c2 = self._last_nodes(q)

        def bad(t, r):
            edge = np.full(np.shape(t), np.inf)
            edge[t == times[1]] = 0.5 * (c1 + c2)
            edge[t == times[3]] = 0.5
            vals = np.where(r > edge, np.nan, 1.0 + 0.0 * r)
            if output is None:
                return vals
            ok = 1.0 + 0.0 * r
            return (vals, ok) if output == 0 else (ok, vals)

        with pytest.raises(NonFiniteSample) as got:
            integrate_slices(times, 0.1, 0.9, bad, q, 3)
        with pytest.raises(NonFiniteSample) as want:
            for t in times:
                slice_by_slice(t, 0.1, 0.9, bad, q, 3)
        assert got.value.location == want.value.location == (times[1], c2)
        with pytest.raises(NonFiniteSample) as one:
            integrate_slices([times[3]], 0.1, 0.9, bad, q, 3)
        assert one.value.location[0] == times[3]
        assert one.value.location[1] > 0.5

    def test_zero_width_shell_is_an_exact_zero(self):
        rows = []

        def integrand(t, r):
            rows.append(len(r))
            return np.full(np.shape(r), np.nan)  # never sampled on the shells

        zero = QuadratureResult(0.0, 0.0, 0)
        got = integrate_slices([0.2, 0.6], [0.5, 0.7], [0.5, 0.7], integrand,
                               Q_DEFAULT, 3)
        assert got == [zero, zero] and rows == []
        assert math.copysign(1.0, got[0].value) == 1.0
        assert integrate_slices([0.2], 0.5, 0.5, integrand, Q_DEFAULT,
                                3) == [zero]
        mixed = integrate_slices([0.2, 0.4, 0.6], [0.5, 0.3, 0.7],
                                 [0.5, 0.9, 0.7], _single, Q_DEFAULT, 3)
        assert mixed[0] == mixed[2] == zero
        _same_result_bits(mixed[1], slice_by_slice(0.4, 0.3, 0.9, _single,
                                                   Q_DEFAULT, 3))

    def test_a_refused_read_follows_the_slice_order(self):
        # as for a non-finite sample: a field that refuses a point (a read
        # past a run's wall) is met first where a slice-by-slice pass meets
        # it, slice 1's finer level, not slice 3's coarse one
        q = QuadratureSpec()
        times = np.linspace(0.1, 0.5, 5)
        c1, c2 = self._last_nodes(q)

        def refusing(t, r):
            edge = np.full(np.shape(t), np.inf)
            edge[t == times[1]] = 0.5 * (c1 + c2)
            edge[t == times[3]] = 0.5
            past = r > edge
            if past.any():
                first = np.unravel_index(np.argmax(past), past.shape)
                raise LevelRangeError(
                    f"time {float(np.broadcast_to(t, past.shape)[first])!r}")
            return 1.0 + 0.0 * r

        with pytest.raises(LevelRangeError) as got:
            integrate_slices(times, 0.1, 0.9, refusing, q, 3)
        assert str(got.value) == f"time {float(times[1])!r}"

    @pytest.mark.parametrize("r_lo,r_hi,name", [
        ([0.1, math.nan], 0.9, "r_lo"), (0.1, [0.9, math.nan], "r_hi")])
    def test_a_nan_bound_is_refused_by_name(self, r_lo, r_hi, name):
        # before: NaN is neither reversed nor live, so the slice was an
        # exact zero, QuadratureResult(0.0, 0.0, 0)
        with pytest.raises(ValueError, match=f"^slice bound {name} is not a "
                           r"number at t = 0\.4$"):
            integrate_slices([0.2, 0.4], r_lo, r_hi, ONE, Q_DEFAULT, 3)
        with pytest.raises(ValueError, match="r_lo is not a number"):
            integrate_slices([0.5], math.nan, 1.0, ONE, Q_DEFAULT, 3)

    def test_reversed_shell_names_both_bounds(self):
        with pytest.raises(ValueError, match=r"r_hi = 0\.25 < r_lo = 0\.5"):
            integrate_slices([0.2], 0.5, 0.25, ONE, Q_DEFAULT, 3)
        with pytest.raises(ValueError, match=r"r_hi = 0\.1 < r_lo = 0\.3"):
            integrate_slices([0.2, 0.4], [0.1, 0.3], [0.9, 0.1], ONE,
                             Q_DEFAULT, 3)


Q_DEFAULT = QuadratureSpec()


# --------------------------------------------------------------------------
# Row-valued blocks grow: twice the rows after a block whose every output
# holds one value per row, with the bits of the blocks at their base size
# --------------------------------------------------------------------------

def _full_shape(monkeypatch):
    """Growth off: every integrand output is handed on broadcast to the
    block's full shape, the same values, so no block is row-valued."""
    inner = quadrature._weighted_sums

    def full_shape(integrand, T, *args, **kwargs):
        def broadcast(t, r):
            out = integrand(t, r)
            if isinstance(out, tuple):
                return tuple(np.broadcast_to(v, r.shape) for v in out)
            return np.broadcast_to(out, r.shape)

        return inner(broadcast, T, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_weighted_sums", full_shape)


class TestGrowingBlocks:
    # the coarse level of a 192-cell tensor mesh: 384 rows of 384 nodes,
    # BLOCK_NODES // 384 = 21 rows a block
    T384 = quadrature._interval_nodes(0.0, 1.0, 192)[0][:, None]
    RULE = quadrature._unit_rule(192)

    def _rows_per_block(self, integrand):
        rows = []

        def recording(t, r):
            rows.append(len(r))
            return integrand(t, r)

        lo, span = np.full((384, 1), 0.5), np.full((384, 1), 1.5)
        quadrature._weighted_sums(recording, self.T384, lo, span, self.RULE,
                                  3)
        return rows

    def test_the_block_layout(self):
        assert self._rows_per_block(lambda t, r: t * t) == [21] + [42] * 8 + [27]
        assert self._rows_per_block(lambda t, r: t * r) == [21] * 18 + [6]
        # row-valued on blocks that end before t = 0.1 (the first), full-
        # shape after: the size goes back to 21 after a full-shape block
        split = lambda t, r: t * t if t[-1, 0] < 0.1 else t * r
        assert self._rows_per_block(split) == [21, 42] + [21] * 15 + [6]

    @staticmethod
    def _hex(results):
        return [[v.hex() for v in (res.value, res.error_estimate)]
                for res in results]

    @staticmethod
    def _row_valued_early(t, r):
        """exp(-t^2) for t < 0.6, times r after: a block of early rows gets
        one value per row, any other block the full shape, with the same
        bits on the early rows (as DiscreteField's head read)."""
        vals = np.exp(-t * t)
        return vals if t[-1, 0] < 0.6 else np.where(t < 0.6, vals, vals * r)

    @pytest.mark.parametrize("integrand", [
        lambda t, r: np.exp(-t * t),
        _row_valued_early,
        lambda t, r: (np.exp(-t * t), t * r),
    ], ids=["t-only", "row-valued-then-full", "one-output-full"])
    def test_growth_keeps_the_bits(self, monkeypatch, integrand):
        q = QuadratureSpec(96)
        region = box_bulk(0.0, 1.0, 0.5, 2.0)
        grown = integrate_bulk(region, integrand, q, 3)
        _full_shape(monkeypatch)
        base = integrate_bulk(region, integrand, q, 3)
        results = lambda res: res if isinstance(res, tuple) else (res,)
        assert self._hex(results(grown)) == self._hex(results(base))

    def test_the_head_read_slab_keeps_the_bits(self, monkeypatch,
                                              run_field):
        from conewave.fields import DiscreteField
        from conewave.energetics import slab_quantity

        rows = []
        inner = DiscreteField.jet

        def recording(self, t, r):
            rows.append(r.shape)
            return inner(self, t, r)

        monkeypatch.setattr(DiscreteField, "jet", recording)
        grown = slab_quantity(run_field, 0.25, 1.2, -0.5, 2.0, 3, QUAD96)
        assert max(a * b for a, b in rows) > quadrature.BLOCK_NODES
        _full_shape(monkeypatch)
        base = slab_quantity(run_field, 0.25, 1.2, -0.5, 2.0, 3, QUAD96)
        assert [[v.hex() for v in pair] for pair in grown] == \
            [[v.hex() for v in pair] for pair in base]

    def test_a_nan_in_a_grown_block_is_named_as_without_growth(
            self, monkeypatch):
        # row-valued on the first block (its last t is 0.0532), full-shape
        # with one NaN in the second (grown) block, at row 30 and node 100
        def bad(t, r):
            if t[-1, 0] < 0.055:
                return t * t
            out = t * r
            out[(t[:, 0] == self.T384[30, 0]), 100] = np.nan
            return out

        def location():
            lo, span = np.full((384, 1), 0.5), np.full((384, 1), 1.5)
            with pytest.raises(NonFiniteSample) as err:
                quadrature._weighted_sums(bad, self.T384, lo, span,
                                          self.RULE, 3)
            return err.value.location

        assert self._rows_per_block(lambda t, r: t * t if t[-1, 0] < 0.055
                                    else t * r)[:2] == [21, 42]
        grown = location()
        _full_shape(monkeypatch)
        assert grown == location() == (
            self.T384[30, 0], 0.5 + 1.5 * self.RULE[0][100])
