import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conewave.geometry import (
    ConePiece,
    ConeSegmentSpec,
    CylinderPiece,
    ExteriorRegionSpec,
    LevelSetPiece,
    MinkowskiPoint,
    RaySpec,
    ShiftedWeight,
    TimeSlicePiece,
    UNSHIFTED,
    covering_check,
    eval_weight,
    eval_weight_gradient,
    lateral_boundary,
    minkowski_norm_sq,
)
from conewave.energetics import _slab
from conewave.quadrature import sphere_area
from tests_helpers import box_bulk, zero_field


class TestWeight:
    def test_unshifted_values(self):
        assert eval_weight(UNSHIFTED, MinkowskiPoint(0.0, (2.0,))) == 1.0
        assert eval_weight(UNSHIFTED, MinkowskiPoint(1.0, (1.0,))) == 0.0

    def test_shifted_value(self):
        w = ShiftedWeight(t_star=1.0)
        assert eval_weight(w, MinkowskiPoint(1.0, (2.0, 0.0, 0.0))) == 1.0

    def test_gradient_components(self):
        g = eval_weight_gradient(UNSHIFTED, MinkowskiPoint(1.0, (2.0, 0.0)))
        assert g == pytest.approx([0.5, 1.0, 0.0])
        assert minkowski_norm_sq(g) == pytest.approx(0.75)

    def test_gradient_zero_at_origin(self):
        g = eval_weight_gradient(UNSHIFTED, MinkowskiPoint(0.0, (0.0,)))
        assert np.all(g == 0.0)

    def test_gradient_shifted(self):
        w = ShiftedWeight(t_star=2.0)
        P = MinkowskiPoint(2.0, (1.0, 0.0, 0.0))
        g = eval_weight_gradient(w, P)
        assert g == pytest.approx([0.0, 0.5, 0.0, 0.0])
        assert minkowski_norm_sq(g) == pytest.approx(eval_weight(w, P))

    @settings(max_examples=200, deadline=None)
    @given(
        t=st.floats(-5, 5),
        x1=st.floats(-5, 5),
        x2=st.floats(-5, 5),
        ts=st.floats(-3, 3),
        v=st.floats(-0.9, 0.9),
    )
    def test_gradient_norm_identity(self, t, x1, x2, ts, v):
        # g(grad f, grad f) = f everywhere, shifted or not
        w = ShiftedWeight(t_star=ts, ray=RaySpec((v, 0.0)))
        P = MinkowskiPoint(t, (x1, x2))
        f = eval_weight(w, P)
        norm = minkowski_norm_sq(eval_weight_gradient(w, P))
        assert norm == pytest.approx(f, rel=1e-12, abs=1e-12)

    def test_sign_on_exterior(self):
        w = ShiftedWeight(t_star=0.5)
        inside = MinkowskiPoint(0.5, (1.0,))     # r > |t - t*|
        on_cone = MinkowskiPoint(1.5, (1.0,))
        assert eval_weight(w, inside) > 0.0
        assert eval_weight(w, on_cone) == 0.0


def inside(region, t, r):
    """Open-set membership from the region protocol's window and radii."""
    lo, hi = region.time_window()
    tt = np.asarray(t, dtype=float)
    return lo < t < hi and region.r_inner(tt) < r < region.r_outer(tt)


class TestContains:
    def test_cone(self):
        cone = ConeSegmentSpec(0.5, 0.0, 2.0)
        assert inside(cone, 1.0, 0.3)
        assert not inside(cone, 1.0, 0.5)
        assert not inside(cone, 1.0, 0.0)

    def test_slab_negative_time(self):
        slab = _slab(zero_field(3), 0.5, 1.2, -0.1)
        assert inside(slab, -0.1, 0.04)
        assert not inside(slab, -0.1, 0.06)

    def test_box_and_exterior(self):
        assert inside(box_bulk(-0.5, 0.5, 1.0, 2.0), 0.0, 1.5)
        ext = ExteriorRegionSpec(0.5, 1.0)
        assert inside(ext, 1.0, 0.3)
        assert not inside(ext, 1.0, 0.0)  # axis excluded

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ConeSegmentSpec(1.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            ConeSegmentSpec(0.5, -1.0, 1.0)  # the window straddles t = 0
        with pytest.raises(ValueError, match="gamma must exceed 1"):
            _slab(zero_field(3), 0.5, 0.9, 1.0)
        with pytest.raises(ValueError, match="center time must be nonzero"):
            _slab(zero_field(3), 0.5, 1.2, 0.0)


class TestAngle:
    def test_bounded_on_lateral_boundary(self):
        # tan(theta) = (t - t*)/r: |theta| <= pi/4 on the cone part of the
        # exterior-region boundary
        ext = ExteriorRegionSpec(0.5, 1.0)
        piece = lateral_boundary(ext)
        for t in np.linspace(piece.t_lo + 1e-9, piece.t_hi - 1e-9, 200):
            theta = math.atan2(t - ext.t_star, float(piece.radius(t)))
            assert abs(theta) <= math.pi / 4 + 1e-12


def components(piece, t, r, f=None):
    """(N^t, N^r) of a piece's oriented normal: its contraction with the
    covectors dt and dr."""
    return (piece.dot_normal(1.0, 0.0, t, r, f),
            piece.dot_normal(0.0, 1.0, t, r, f))


class TestNormals:
    def test_time_slice(self):
        bottom = TimeSlicePiece(0.0, 1.0, 2.0, inward_sign=+1)
        assert bottom.normal == (1.0, 0.0)
        assert components(bottom, 0.0, 1.5) == (1.0, 0.0)
        top = TimeSlicePiece(1.0, 1.0, 2.0, inward_sign=-1)
        assert top.normal == (-1.0, 0.0)

    def test_cone_normal_formula(self):
        piece = ConePiece(0.5, 1.0, 2.0)
        N = piece.normal
        assert N == pytest.approx(np.array([0.5, 1.0]) / math.sqrt(0.75))
        assert minkowski_norm_sq(N) == pytest.approx(1.0)

    def test_normals_are_unit(self):
        pieces = [
            TimeSlicePiece(0.2, 0.5, 1.0, 1),
            CylinderPiece(1.0, 0.0, 1.0, -1),
            ConePiece(0.7, 1.0, 2.0),
        ]
        expected = [-1.0, 1.0, 1.0]
        for piece, sq in zip(pieces, expected):
            assert minkowski_norm_sq(piece.normal) == pytest.approx(sq)

    def test_level_set_normal_against_finite_differences(self):
        # oracle: numerically normalize the finite-difference gradient of f
        # restricted to the level set, oriented toward decreasing f
        w = ShiftedWeight(t_star=1.0)
        eps = 0.04
        piece = LevelSetPiece(w, eps, 0.5, 1.5)
        t = 1.0
        r = 2.0 * math.sqrt(eps)
        N = components(piece, t, r, w.value_radial(t, r))
        h = 1e-6
        df_dt = (w.value_radial(t + h, r) - w.value_radial(t - h, r)) / (2 * h)
        df_dr = (w.value_radial(t, r + h) - w.value_radial(t, r - h)) / (2 * h)
        # raise the index: contravariant gradient = (-df_dt, df_dr)
        grad = np.array([-df_dt, df_dr])
        grad /= math.sqrt(abs(minkowski_norm_sq(grad)))
        assert N == pytest.approx(-grad, rel=1e-5)
        # at t = t* this is the minus-radial direction with unit norm
        assert N == pytest.approx([0.0, -1.0], abs=1e-9)

    def test_null_piece_rejected(self):
        with pytest.raises(ValueError):
            ConePiece(1.0, 0.5, 1.5)  # slope 1 is null


class PointMesh:
    """Node rules with unit weights at the given nodes, so that a piece's
    measure at the nodes is its induced density."""

    def __init__(self, nodes):
        self.nodes = np.asarray(nodes, dtype=float)

    def radial(self, a, b):
        return self.nodes, np.ones_like(self.nodes)

    def temporal(self, a, b, graded=False):
        return self.nodes, np.ones_like(self.nodes)


def density(piece, nodes, n):
    (_, _, meas, _), = piece.node_sets(PointMesh(nodes), n)
    return meas


class TestMeasureDensity:
    def test_slice_n3(self):
        piece = TimeSlicePiece(0.0, 0.5, 2.0, 1)
        assert density(piece, [1.0], 3)[0] == pytest.approx(4 * math.pi)

    def test_cone_n3(self):
        piece = ConePiece(0.5, 1.0, 3.0)
        val = density(piece, [2.0], 3)[0]
        assert val == pytest.approx(4 * math.pi * math.sqrt(0.75), rel=1e-12)
        assert val == pytest.approx(10.8828, rel=1e-4)

    def test_cone_density_against_triangulated_patch(self):
        # oracle: Lorentzian area of a cone patch from a refined simplicial
        # parametrization, sqrt(|det G|) per parameter cell (n = 2 cone in
        # R^{2+1}: parameters (t, angle))
        sigma, t0, t1 = 0.5, 2.0, 2.1
        piece = ConePiece(sigma, t0, t1)
        nt = 400
        ts = np.linspace(t0, t1, nt + 1)
        total = 0.0
        for i in range(nt):
            tm = 0.5 * (ts[i] + ts[i + 1])
            rm = sigma * tm
            # embedding (t, r cos a, r sin a): G_tt = -1 + sigma^2,
            # G_aa = r^2, G_ta = 0
            detG = abs((-1 + sigma ** 2) * rm ** 2)
            total += math.sqrt(detG) * (ts[i + 1] - ts[i]) * (2 * np.pi)
        mids = 0.5 * (ts[:-1] + ts[1:])
        quad = float(np.sum(density(piece, mids, 2) * np.diff(ts)))
        assert quad == pytest.approx(total, rel=1e-10)

    def test_n1_counts_two_points(self):
        piece = TimeSlicePiece(0.0, 0.5, 2.0, 1)
        assert density(piece, [1.3], 1)[0] == pytest.approx(2.0)

    def test_level_set_density_against_triangulation(self):
        # hyperbola piece r(t) = sqrt((t-t*)^2 + 4 eps) in n = 1: induced
        # length element is sqrt(|r'(t)^2 - 1|) dt per branch, two branches
        w = ShiftedWeight(1.0)
        eps = 0.01
        piece = LevelSetPiece(w, eps, 0.8, 1.2)
        ts = np.linspace(0.8, 1.2, 2000)
        rs = np.sqrt((ts - 1.0) ** 2 + 4 * eps)
        seg = 0.0
        for i in range(len(ts) - 1):
            dt = ts[i + 1] - ts[i]
            dr = rs[i + 1] - rs[i]
            seg += math.sqrt(abs(dt * dt - dr * dr))
        seg *= 2.0  # two points +-r
        mids = 0.5 * (ts[:-1] + ts[1:])
        quad = float(np.sum(density(piece, mids, 1) * np.diff(ts)))
        assert quad == pytest.approx(seg, rel=1e-6)


class TestNormalWeightDerivative:
    def test_positive_and_constant_for_axis(self):
        # on r = sigma t the cone normal gives
        # N(f) = sigma t* / (2 sqrt(1 - sigma^2)) exactly for the axis ray
        ext = ExteriorRegionSpec(0.5, 2.0)
        piece = lateral_boundary(ext)
        want = 0.5 / (2 * math.sqrt(0.75))
        for t in np.linspace(piece.t_lo + 1e-6, piece.t_hi - 1e-6, 50):
            r = float(piece.radius(t))
            ft, fr = ext.weight.grad_radial(t, r)
            Nf = piece.dot_normal(ft, fr, t, r)
            assert Nf > 0.0
            assert Nf / ext.t_star == pytest.approx(want, rel=1e-12)


class TestCovering:
    def test_two_rays_tiny_gamma(self):
        res = covering_check(0.5, 1.0 + 1e-6, 1.0, RaySpec(()),
                             RaySpec((0.25, 0.0)), sample_count=500, n=3)
        assert res.covered and bool(res)

    def test_large_gamma_fails_with_witness(self):
        res = covering_check(0.5, 10.0, 1.0, RaySpec(()), RaySpec((0.25, 0.0)),
                             sample_count=500, n=3)
        assert not res.covered
        assert res.witness is not None
        # witness must be a genuine counterexample: in the slab, not in either region
        P = res.witness
        assert 0.0 < P.r < 0.5 * P.t

    def test_single_ray_always_fails(self):
        for gamma in (1.0 + 1e-6, 1.5, 4.0):
            res = covering_check(0.5, gamma, 1.0, RaySpec(()), RaySpec(()),
                                 sample_count=200, n=3)
            assert not res.covered

    def test_boundary_containment_with_eta(self):
        # axis ray boundary spans t in (t*/(1+sigma), t*/(1-sigma))
        res = covering_check(0.5, 1.1, 1.0, RaySpec(()), RaySpec((0.2, 0.0)),
                             sample_count=300, n=3, eta=4.0)
        assert res.boundary_ok
        res2 = covering_check(0.5, 1.1, 1.0, RaySpec(()), RaySpec((0.2, 0.0)),
                              sample_count=300, n=3, eta=1.4)
        assert not res2.boundary_ok  # eta too small to contain the boundary

    def test_eta_threshold_matches_closed_form(self):
        # boundary pieces sit in t*(1-|v|)/(1+sigma) < t < t*(1+|v|)/(1-sigma),
        # so the sampled check must flip right around
        # eta* = max((1+|v|)/(1-sigma), (1+sigma)/(1-|v|))
        sigma, v = 0.5, 0.2
        eta_star = max((1 + v) / (1 - sigma), (1 + sigma) / (1 - v))
        above = covering_check(sigma, 1.1, 1.0, RaySpec(()), RaySpec((v, 0.0)),
                               sample_count=200, n=3, eta=eta_star * 1.05)
        below = covering_check(sigma, 1.1, 1.0, RaySpec(()), RaySpec((v, 0.0)),
                               sample_count=200, n=3, eta=eta_star * 0.9)
        assert above.boundary_ok
        assert not below.boundary_ok

    def test_eta_threshold_for_a_fast_ray(self):
        # the piece of v = 0.8 reaches t = 18 t* > 0.95 eta* t*; before, the
        # sampled extent stopped at 1.5 t*/(1 - sigma) = 15 t* and passed it
        sigma, v = 0.9, 0.8
        eta_star = max((1 + v) / (1 - sigma), (1 + sigma) / (1 - v))
        assert eta_star == pytest.approx(18.0)
        for factor, ok in ((0.95, False), (1.05, True)):
            res = covering_check(sigma, 1.1, 1.0, RaySpec(()),
                                 RaySpec((v, 0.0)), sample_count=200, n=3,
                                 eta=eta_star * factor)
            assert res.boundary_ok is ok


class TestSlabWeightLowerBound:
    def test_max_shifted_weight_positive_on_slab(self):
        # every slab point carries max_i f_{t*,ray_i} >= c > 0, and the bound
        # rescales by t*^2
        sigma, gamma = 0.5, 1.1
        rays = (RaySpec(()), RaySpec((0.25, 0.0)))
        rng = np.random.default_rng(5)

        def min_fbar(t_star):
            worst = math.inf
            centers = [np.array([0.0, 0.0, 0.0]),
                       np.array([0.25 * t_star, 0.0, 0.0])]
            for _ in range(4000):
                t = rng.uniform(t_star / gamma, t_star * gamma)
                u = rng.standard_normal(3)
                u /= np.linalg.norm(u)
                x = u * rng.uniform(0, 1) ** (1 / 3) * sigma * t
                fbar = -math.inf
                for c in centers:
                    d = x - c
                    f = 0.25 * (float(d @ d) - (t - t_star) ** 2)
                    if f > 0:
                        fbar = max(fbar, f)
                worst = min(worst, fbar)
            return worst

        c1 = min_fbar(1.0)
        assert c1 > 0.0
        c2 = min_fbar(2.0)
        assert c2 > 0.0
        assert c2 == pytest.approx(4.0 * c1, rel=0.35)  # ~ t*^2 scaling

    def test_exact_rescaling_identity(self):
        w1 = ShiftedWeight(1.0, RaySpec((0.2, 0.0)))
        w2 = ShiftedWeight(2.0, RaySpec((0.2, 0.0)))
        P1 = MinkowskiPoint(1.1, (0.3, 0.1))
        P2 = MinkowskiPoint(2.2, (0.6, 0.2))
        assert eval_weight(w2, P2) == pytest.approx(4.0 * eval_weight(w1, P1), rel=1e-12)


def test_sphere_area_values():
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2 * math.pi)
    assert sphere_area(3) == pytest.approx(4 * math.pi)
