import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conewave.carleman import (box_region, frustum_region,
                               inverted_frustum_region)
from conewave.geometry import (
    ConePiece,
    ConeSegmentSpec,
    CylinderPiece,
    ExteriorRegionSpec,
    LevelSetPiece,
    ShiftedWeight,
    TimeSlicePiece,
    UNSHIFTED,
    covering_check,
)
from conewave.energetics import _slab
from conewave.quadrature import _Mesh, sphere_area
from tests_helpers import box_bulk, zero_field


def radius_from_ray(x, v, t_star):
    """|x - c| about the centre c = v t* of the weight from the ray of
    velocity v."""
    c = np.zeros(len(x))
    c[:len(v)] = np.asarray(v) * t_star
    return math.dist(x, c)


class TestWeight:
    def test_unshifted_values(self):
        assert UNSHIFTED.value_radial(0.0, 2.0) == 1.0
        assert UNSHIFTED.value_radial(1.0, 1.0) == 0.0

    def test_shifted_value(self):
        assert ShiftedWeight(t_star=1.0).value_radial(1.0, 2.0) == 1.0

    def test_gradient_components(self):
        # covariant components: d_t f = -(t - t*)/2, d_r f = r/2
        ft, fr = UNSHIFTED.grad_radial(1.0, 2.0)
        assert (ft, fr) == (-0.5, 1.0)
        assert -ft ** 2 + fr ** 2 == 0.75

    def test_gradient_zero_at_origin(self):
        assert UNSHIFTED.grad_radial(0.0, 0.0) == (0.0, 0.0)

    def test_gradient_shifted(self):
        w = ShiftedWeight(t_star=2.0)
        assert w.grad_radial(2.0, 1.0) == (0.0, 0.5)
        ft, fr = w.grad_radial(3.0, 1.0)
        assert (ft, fr) == (-0.5, 0.5)
        assert -ft ** 2 + fr ** 2 == w.value_radial(3.0, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        t=st.floats(-5, 5),
        x1=st.floats(-5, 5),
        x2=st.floats(-5, 5),
        ts=st.floats(-3, 3),
        v=st.floats(-0.9, 0.9),
    )
    def test_gradient_norm_identity(self, t, x1, x2, ts, v):
        # g(grad f, grad f) = f everywhere, shifted or not, about a ray's
        # centre
        w = ShiftedWeight(t_star=ts)
        rho = radius_from_ray((x1, x2), (v, 0.0), ts)
        ft, fr = w.grad_radial(t, rho)
        assert -ft ** 2 + fr ** 2 == pytest.approx(w.value_radial(t, rho),
                                                   rel=1e-12, abs=1e-12)

    def test_sign_on_exterior(self):
        w = ShiftedWeight(t_star=0.5)
        assert w.value_radial(0.5, 1.0) > 0.0      # r > |t - t*|
        assert w.value_radial(1.5, 1.0) == 0.0     # on the cone


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
        slab = _slab(zero_field(), 0.5, 1.2, -0.1)
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
            _slab(zero_field(), 0.5, 0.9, 1.0)
        with pytest.raises(ValueError, match="center time must be nonzero"):
            _slab(zero_field(), 0.5, 1.2, 0.0)
        with pytest.raises(ValueError, match="requires t\\* > 0"):
            ExteriorRegionSpec(0.5, math.nan)

    @pytest.mark.parametrize("build,match", [
        (lambda: ConePiece(0.5, math.nan, 1.0), "degenerate cone piece"),
        (lambda: ConePiece(0.5, 0.5, math.nan), "degenerate cone piece"),
        (lambda: LevelSetPiece(ShiftedWeight(1.0), math.nan, 0.1, 0.2),
         "level value must be positive"),
        (lambda: LevelSetPiece(ShiftedWeight(1.0), 0.1, 0.1, math.nan),
         "degenerate level piece"),
        (lambda: ExteriorRegionSpec(0.5, 1.0).level_set(math.nan),
         "eps too large"),
        (lambda: _slab(zero_field(), 0.5, math.nan, 1.0),
         "gamma must exceed 1"),
    ], ids=["cone-t_lo", "cone-t_hi", "level-eps", "level-t_hi",
            "level-set-eps", "slab-gamma"])
    def test_nan_is_refused(self, build, match):
        # each check fails on NaN; before, `x <= bound` let NaN through and
        # the piece or slab was built on NaN times or radii
        with pytest.raises(ValueError, match=match):
            build()


class TestExteriorBoundary:
    @settings(max_examples=300, deadline=None)
    @given(sigma=st.floats(0.01, 0.99), ts=st.floats(1e-3, 1e3))
    def test_window_is_the_lateral_piece(self, sigma, ts):
        ext = ExteriorRegionSpec(sigma, ts)
        lo, hi = ext.time_window()
        assert (lo.hex(), hi.hex()) == (ext.lateral.t_lo.hex(),
                                        ext.lateral.t_hi.hex())
        # the ends are the weight's roots on the cone, t*/(1 -+ sigma)
        assert (lo, hi) == (ts / (1.0 + sigma), ts / (1.0 - sigma))

    @pytest.mark.parametrize("sigma,ts,eps,lo,hi", [
        (0.5, 1.0, 1e-2, "0x1.6a77b5c72d6c5p-1", "0x1.f56ecfc713f48p+0"),
        (0.5, 1.0, 1e-4, "0x1.5589c72294cb1p-1", "0x1.ffe5c71960453p+0"),
        (0.3, 1.7, 1e-3, "0x1.4fc6d51f9e6c7p+0", "0x1.365a794e6eadap+1"),
        (0.7, 3.0, 0.05, "0x1.d006c8990a537p+0", "0x1.3e779f65572e1p+3"),
    ])
    def test_level_set_window_bits(self, sigma, ts, eps, lo, hi):
        # the window of the former bulk region {f > eps}, pinned in hex
        level = ExteriorRegionSpec(sigma, ts).level_set(eps)
        assert (level.t_lo.hex(), level.t_hi.hex()) == (lo, hi)
        assert level.eps == eps and level.weight == ShiftedWeight(ts)


class TestAngle:
    def test_bounded_on_the_lateral_piece(self):
        # tan(theta) = (t - t*)/r: |theta| <= pi/4 on the cone part of the
        # exterior-region boundary
        ext = ExteriorRegionSpec(0.5, 1.0)
        piece = ext.lateral
        for t in np.linspace(piece.t_lo + 1e-9, piece.t_hi - 1e-9, 200):
            theta = math.atan2(t - ext.t_star, float(piece.radius(t)))
            assert abs(theta) <= math.pi / 4 + 1e-12


def components(piece, t, r, f=None):
    """(N^t, N^r) of a piece's normal: its contraction with the covectors
    dt and dr."""
    return (piece.dot_normal(1.0, 0.0, t, r, f),
            piece.dot_normal(0.0, 1.0, t, r, f))


def every_kind_of_piece():
    """Pieces of every kind: plain ones, an exterior region's cone side and
    level sets, and the four pieces of each sided region family."""
    ext = ExteriorRegionSpec(0.5, 1.0)
    pieces = [TimeSlicePiece(-0.4, 0.0, 2.0), CylinderPiece(1.0, -1.0, 1.0),
              ConePiece(0.7, 1.0, 2.0), ConePiece(0.3, 0.2, 0.9, t_apex=-1.5),
              ext.lateral, ext.level_set(1e-2), ext.level_set(1e-4)]
    for region in (box_region(-0.3, 0.4, 0.9, 1.7),
                   frustum_region(0.1, 0.6, 0.9, 0.5, -3.0),
                   inverted_frustum_region(0.1, 0.6, 2.5, 0.5, -2.0)):
        pieces.extend(region.pieces)
    return pieces


class TestNormals:
    def test_time_slice(self):
        piece = TimeSlicePiece(0.0, 1.0, 2.0)
        assert piece.normal == (1.0, 0.0)
        assert components(piece, 0.0, 1.5) == (1.0, 0.0)

    def test_one_convention_for_every_piece(self):
        # a slice's normal is +dt, a timelike piece's points away from the
        # axis; the regions a piece bounds orient it themselves
        kinds = set()
        for piece in every_kind_of_piece():
            for t, r, _, f in piece.node_sets(_Mesh(48, 3.0), 3):
                Nt, Nr = (np.broadcast_to(c, t.shape)
                          for c in components(piece, t, r, f))
                if isinstance(piece, TimeSlicePiece):
                    assert np.all(Nt == 1.0) and np.all(Nr == 0.0)
                    kinds.add("spacelike")
                else:
                    assert np.all(Nr > 0.0)
                    np.testing.assert_allclose(Nr * Nr - Nt * Nt, 1.0,
                                               rtol=1e-9)
                    kinds.add(type(piece).__name__)
        assert kinds == {"spacelike", "CylinderPiece", "ConePiece",
                         "_EdgeGradedCone", "LevelSetPiece"}

    def test_cone_normal_formula(self):
        piece = ConePiece(0.5, 1.0, 2.0)
        N = piece.normal
        assert N == pytest.approx(np.array([0.5, 1.0]) / math.sqrt(0.75))
        assert -N[0] ** 2 + N[1] ** 2 == pytest.approx(1.0)

    def test_normals_are_unit(self):
        pieces = [
            TimeSlicePiece(0.2, 0.5, 1.0),
            CylinderPiece(1.0, 0.0, 1.0),
            ConePiece(0.7, 1.0, 2.0),
        ]
        expected = [-1.0, 1.0, 1.0]
        for piece, sq in zip(pieces, expected):
            Nt, Nr = piece.normal
            assert -Nt ** 2 + Nr ** 2 == pytest.approx(sq)

    def test_level_set_normal_against_finite_differences(self):
        # oracle: numerically normalize the finite-difference gradient of f
        # restricted to the level set, oriented toward increasing f
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
        grad /= math.sqrt(abs(-grad[0] ** 2 + grad[1] ** 2))
        assert N == pytest.approx(grad, rel=1e-5)
        # at t = t* this is the radial direction with unit norm
        assert N == pytest.approx([0.0, 1.0], abs=1e-9)

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
        piece = TimeSlicePiece(0.0, 0.5, 2.0)
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
        piece = TimeSlicePiece(0.0, 0.5, 2.0)
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
        piece = ext.lateral
        want = 0.5 / (2 * math.sqrt(0.75))
        for t in np.linspace(piece.t_lo + 1e-6, piece.t_hi - 1e-6, 50):
            r = float(piece.radius(t))
            ft, fr = ext.weight.grad_radial(t, r)
            Nf = piece.dot_normal(ft, fr, t, r)
            assert Nf > 0.0
            assert Nf / ext.t_star == pytest.approx(want, rel=1e-12)


class TestCovering:
    def test_two_rays_tiny_gamma(self):
        res = covering_check(0.5, 1.0 + 1e-6, 1.0, (), (0.25, 0.0), n=3)
        assert res.covered and bool(res)

    def test_large_gamma_fails_with_witness(self):
        res = covering_check(0.5, 10.0, 1.0, (), (0.25, 0.0), n=3)
        assert not res.covered
        assert res.witness is not None
        # witness must be a genuine counterexample: in the slab, not in either region
        t, x = res.witness
        assert len(x) == 3
        assert 0.0 < math.dist(x, [0.0] * 3) < 0.5 * t

    def test_single_ray_always_fails(self):
        for gamma in (1.0 + 1e-6, 1.5, 4.0):
            res = covering_check(0.5, gamma, 1.0, (), (), n=3)
            assert not res.covered

    @pytest.mark.parametrize("sigma,gamma,t_star,match", [
        (0.5, 10.0, math.nan, r"t\* > 0"),
        (0.5, math.nan, 1.0, "gamma"),
        (math.nan, 10.0, 1.0, r"aperture must lie in \(0, 1\)"),
    ], ids=["t_star", "gamma", "sigma"])
    def test_nan_is_refused(self, sigma, gamma, t_star, match):
        # each check fails on NaN; else a NaN t* or gamma reads a wide slab
        # as covered, and a NaN sigma returns a witness
        with pytest.raises(ValueError, match=match):
            covering_check(sigma, gamma, t_star, (), (0.25, 0.0))

    def test_a_nan_eta_is_refused(self):
        # before: boundary_ok = False, as if a piece left the lateral slab
        with pytest.raises(ValueError, match="eta must exceed 1"):
            covering_check(0.5, 1.5, 1.0, (), (0.1,), eta=math.nan)

    def test_nan_ray_is_refused(self):
        # a NaN velocity would make covering_check read a wide slab as covered
        with pytest.raises(ValueError, match="rays must lie inside the cone"):
            covering_check(0.5, 1.5, 1.0, (), (math.nan, 0.0))

    @pytest.mark.parametrize("sigma", [1.0, 5.0])
    def test_an_aperture_outside_0_1_is_refused(self, sigma):
        # before: sigma = 5 read as covered, and with eta a boundary_ok came
        # from a negative 1 - sigma; NaN is test_nan_is_refused[sigma]
        with pytest.raises(ValueError,
                           match=r"^cone aperture must lie in \(0, 1\)$"):
            covering_check(sigma, 1.2, 1.0, (0.5,), (), eta=2.0)

    def test_boundary_containment_with_eta(self):
        # axis ray boundary spans t in (t*/(1+sigma), t*/(1-sigma))
        res = covering_check(0.5, 1.1, 1.0, (), (0.2, 0.0),
                             n=3, eta=4.0)
        assert res.boundary_ok
        res2 = covering_check(0.5, 1.1, 1.0, (), (0.2, 0.0),
                              n=3, eta=1.4)
        assert not res2.boundary_ok  # eta too small to contain the boundary

    def test_eta_threshold_matches_closed_form(self):
        # boundary pieces sit in t*(1-|v|)/(1+sigma) < t < t*(1+|v|)/(1-sigma),
        # so the sampled check must flip right around
        # eta* = max((1+|v|)/(1-sigma), (1+sigma)/(1-|v|))
        sigma, v = 0.5, 0.2
        eta_star = max((1 + v) / (1 - sigma), (1 + sigma) / (1 - v))
        above = covering_check(sigma, 1.1, 1.0, (), (v, 0.0),
                               n=3, eta=eta_star * 1.05)
        below = covering_check(sigma, 1.1, 1.0, (), (v, 0.0),
                               n=3, eta=eta_star * 0.9)
        assert above.boundary_ok
        assert not below.boundary_ok

    def test_eta_threshold_for_a_fast_ray(self):
        # the piece of v = 0.8 reaches t = 18 t* > 0.95 eta* t*; before, the
        # sampled extent stopped at 1.5 t*/(1 - sigma) = 15 t* and passed it
        sigma, v = 0.9, 0.8
        eta_star = max((1 + v) / (1 - sigma), (1 + sigma) / (1 - v))
        assert eta_star == pytest.approx(18.0)
        for factor, ok in ((0.95, False), (1.05, True)):
            res = covering_check(sigma, 1.1, 1.0, (), (v, 0.0), n=3,
                                 eta=eta_star * factor)
            assert res.boundary_ok is ok

    @staticmethod
    def _assert_genuine_witness(res, sigma, gamma, t_star, rays):
        """The witness lies in the slab and the cone, outside both regions."""
        assert not res.covered and res.witness is not None
        t, x = res.witness
        assert t_star / gamma < t < t_star * gamma
        assert 0.0 < math.dist(x, [0.0] * len(x)) < sigma * t
        for v in rays:
            rho = radius_from_ray(x, v, t_star)
            assert ShiftedWeight(t_star).value_radial(t, rho) <= 0.0

    def test_threshold_is_half_the_centre_distance(self):
        # gamma* = 1 + |v0 - v1|/2 = 1.125; the sampler called 1.126 and
        # 1.13 covered
        rays = ((), (0.25, 0.0))
        assert covering_check(0.5, 1.124, 1.0, *rays).covered
        for gamma in (1.126, 1.13):
            res = covering_check(0.5, gamma, 1.0, *rays)
            self._assert_genuine_witness(res, 0.5, gamma, 1.0, rays)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 3),
        sigma=st.floats(0.05, 0.95),
        u0=st.lists(st.floats(-1, 1), min_size=3, max_size=3),
        u1=st.lists(st.floats(-1, 1), min_size=3, max_size=3),
        frac=st.floats(0.0, 0.99),
        pair=st.sampled_from(["free", "equal", "opposite"]),
        gamma=st.floats(1.0, 3.0, exclude_min=True, exclude_max=True),
        t_star=st.floats(0.01, 100.0),
    )
    def test_decision_is_the_closed_form(self, n, sigma, u0, u1, frac, pair,
                                         gamma, t_star):
        scale = frac * sigma / math.sqrt(n)  # so that |v_i| < sigma
        v0 = scale * np.asarray(u0[:n])
        v1 = {"free": scale * np.asarray(u1[:n]), "equal": v0,
              "opposite": -v0}[pair]
        rays = (tuple(v0), tuple(v1))
        res = covering_check(sigma, gamma, t_star, *rays, n=n)
        c0, c1 = v0 * t_star, v1 * t_star
        half = 0.5 * float(np.linalg.norm(c0 - c1))
        assert res.covered == (t_star * (gamma - 1.0) <= half)
        if not res.covered:
            # a witness in doubles needs a margin above the rounding of t*
            if t_star * (gamma - 1.0) - half > 1e-12 * t_star:
                self._assert_genuine_witness(res, sigma, gamma, t_star, rays)
            return
        rng = np.random.default_rng(0)
        t = rng.uniform(t_star / gamma, t_star * gamma, 2000)
        u = rng.standard_normal((2000, n))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        x = u * (sigma * t * rng.uniform(0, 1, 2000) ** (1.0 / n))[:, None]
        f = [0.25 * (np.sum((x - c) ** 2, axis=1) - (t - t_star) ** 2)
             for c in (c0, c1)]
        assert np.all(np.maximum(*f) > 0.0)


class TestSlabWeightLowerBound:
    def test_max_shifted_weight_positive_on_slab(self):
        # every slab point carries max_i f_{t*,ray_i} >= c > 0, and the bound
        # rescales by t*^2
        sigma, gamma = 0.5, 1.1
        rays = ((), (0.25, 0.0))
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
        v = (0.2, 0.0)
        f1 = ShiftedWeight(1.0).value_radial(
            1.1, radius_from_ray((0.3, 0.1), v, 1.0))
        f2 = ShiftedWeight(2.0).value_radial(
            2.2, radius_from_ray((0.6, 0.2), v, 2.0))
        assert f2 == pytest.approx(4.0 * f1, rel=1e-12)


def test_sphere_area_values():
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2 * math.pi)
    assert sphere_area(3) == pytest.approx(4 * math.pi)
