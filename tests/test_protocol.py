"""The region and piece protocols pinned bit for bit to the formulas they
replaced: every bulk family against integrate_bulk on a region object with
its window, radii and singular flags written out, every piece kind against
its node rule, measure product and normal written out, and the
boundary fluxes of verify_global and the inner-flux probe against the
per-piece normal formulas."""

import math

import numpy as np
import pytest

from conewave import carleman, quadrature
from conewave.carleman import (
    CarlemanParams,
    box_region,
    flux_covector,
    frustum_region,
    inverted_frustum_region,
    vanishing_flux_probe,
    verify_global,
)
from conewave.cli import _offcenter_gaussian
from conewave.energetics import _slab
from conewave.fields import PotentialSpec, gaussian_pulse
from conewave.geometry import (
    ConePiece,
    ConeSegmentSpec,
    CylinderPiece,
    ExteriorRegionSpec,
    LevelSetPiece,
    ShiftedWeight,
    TimeSlicePiece,
    _EdgeGradedCone,
)
from conewave.quadrature import (
    QuadratureSpec,
    sphere_area,
    integrate_bulk,
    integrate_slices,
    integrate_surfaces,
)
from tests_helpers import (piece_by_piece_fluxes, set_by_set_surface,
                           written_region, zero_field)

Q = QuadratureSpec(11)  # odd: a mesh graded at both ends splits 5 + 6
# the divergence identity's orientation of a sided region's (bottom, top,
# inner side, outer side) against the pieces' own normals (+dt on a slice,
# away from the axis on a side): inward on slices, outward on sides
ORIENTATION = (1.0, -1.0, -1.0, 1.0)


def same_bits(got, want):
    assert got.value.hex() == want.value.hex()
    assert got.error_estimate.hex() == want.error_estimate.hex()
    assert got.nodes_used == want.nodes_used


def exterior_window(sigma, ts, eps):
    disc = sigma * sigma * ts * ts - 4.0 * eps * (1.0 - sigma * sigma)
    root = math.sqrt(disc)
    return ((ts - root) / (1.0 - sigma * sigma),
            (ts + root) / (1.0 - sigma * sigma))


# (region, window, r_inner, r_outer, singular_r, singular_t)
BULK_CASES = {
    "box": (box_region(-0.3, 0.4, 0.9, 1.7), (-0.3, 0.4),
            lambda t: np.full_like(t, 0.9), lambda t: np.full_like(t, 1.7),
            (False, False), (False, False)),
    "slab_past": (_slab(zero_field(), 0.5, 1.3, -0.6), (-0.6 * 1.3, -0.6 / 1.3),
                  np.zeros_like, lambda t: 0.5 * np.abs(t),
                  (False, False), (False, False)),
    "slab_future": (_slab(zero_field(), 0.5, 1.3, 0.6), (0.6 / 1.3, 0.6 * 1.3),
                    np.zeros_like, lambda t: 0.5 * np.abs(t),
                    (False, False), (False, False)),
    "cone_segment": (ConeSegmentSpec(0.4, 0.5, 2.0), (0.5, 2.0),
                     np.zeros_like, lambda t: 0.4 * t,
                     (False, False), (False, False)),
    "exterior": (ExteriorRegionSpec(0.5, 1.0), (1.0 / 1.5, 1.0 / 0.5),
                 lambda t: np.abs(t - 1.0), lambda t: 0.5 * t,
                 (True, False), (True, True)),
    "frustum": (frustum_region(0.1, 0.6, 0.9, 0.5, -3.0), (0.1, 0.6),
                lambda t: np.full_like(t, 0.9), lambda t: 0.5 * (t + 3.0),
                (False, False), (False, False)),
    "inverted_frustum": (inverted_frustum_region(0.1, 0.6, 2.5, 0.5, -2.0),
                         (0.1, 0.6), lambda t: 0.5 * (t + 2.0),
                         lambda t: np.full_like(t, 2.5),
                         (False, False), (False, False)),
}


def bulk_integrand(t, r):
    return np.exp(-0.3 * t) * np.cos(2.0 * r) + r * r * t + 1.5


class TestRegionProtocol:
    @pytest.mark.parametrize("name", sorted(BULK_CASES))
    def test_bulk_is_one_profile_call(self, name):
        region, window, r_in, r_out, sing_r, sing_t = BULK_CASES[name]
        assert region.singular_r == sing_r
        assert region.singular_t == sing_t
        got = integrate_bulk(region, bulk_integrand, Q, 3)
        want = integrate_bulk(written_region(window, r_in, r_out, sing_r,
                                             sing_t), bulk_integrand, Q, 3)
        same_bits(got, want)
        # the pin has the power to see a wrong flag
        for flags in [((not sing_r[0], sing_r[1]), sing_t),
                      (sing_r, (not sing_t[0], sing_t[1]))]:
            other = integrate_bulk(written_region(window, r_in, r_out, *flags),
                                   bulk_integrand, Q, 3)
            assert other.value != got.value


# --------------------------------------------------------------------------
# Pieces: the per-type branches of integrate_surfaces, written out
# --------------------------------------------------------------------------

def reference_surface(piece, integrand, q, n):
    om = sphere_area(n)
    grade = q.grading_exponent

    if isinstance(piece, TimeSlicePiece):
        return integrate_slices([piece.level], piece.r_lo, piece.r_hi,
                                integrand, q, n)[0]

    def level(cells):
        if isinstance(piece, CylinderPiece):
            tn, tw = quadrature._interval_nodes(piece.t_lo, piece.t_hi, cells)
            dens = om * piece.r0 ** (n - 1)
            vals = integrand(tn, np.full_like(tn, piece.r0))
            return float(np.sum(tw * dens * vals)), tn.size
        if isinstance(piece, LevelSetPiece):
            tn, tw = quadrature._interval_nodes(piece.t_lo, piece.t_hi, cells,
                                                grade, True, True)
            ts, eps = piece.weight.t_star, piece.eps
            rr = np.sqrt((tn - ts) ** 2 + 4.0 * eps)
            dens = om * 2.0 * math.sqrt(eps) * rr ** (n - 2)
            vals = integrand(tn, rr, np.full_like(tn, eps))
            return float(np.sum(tw * dens * vals)), tn.size
        s = piece.slope
        if isinstance(piece, _EdgeGradedCone):
            # an exterior region's cone side: its ends are the weight's
            # roots t*/(1 + s), t*/(1 - s)
            t_minus, t_plus = piece.t_lo, piece.t_hi
            tm = 0.5 * (piece.t_lo + piece.t_hi)
            total, count = 0.0, 0
            for from_hi, length in ((False, tm - piece.t_lo),
                                    (True, piece.t_hi - tm)):
                d, w = quadrature._edge_distances(length, cells, grade)
                if from_hi:
                    t = piece.t_hi - d
                    other = t - t_minus
                else:
                    t = piece.t_lo + d
                    other = t_plus - t
                f = 0.25 * (1.0 - s * s) * d * other
                r = s * t
                dens = om * math.sqrt(1.0 - s * s) * r ** (n - 1)
                total += float(np.sum(w * dens * integrand(t, r, f)))
                count += d.size
            return total, count
        tn, tw = quadrature._interval_nodes(piece.t_lo, piece.t_hi, cells)
        rr = s * (tn - piece.t_apex)
        dens = om * math.sqrt(1.0 - s ** 2) * rr ** (n - 1)
        return float(np.sum(tw * dens * integrand(tn, rr))), tn.size

    return quadrature._refine(level, q)


WEIGHT = ShiftedWeight(1.0)
# several pieces of each kind: a change in the order of a measure product
# moves the last bit of only some sums, and slope ** 2 differs from
# slope * slope only for some slopes (0.661277 and 0.758952 among them)
PIECE_CASES = {
    "slice": [TimeSlicePiece(0.3, lo, hi)
              for lo in (0.0, 0.35, 0.8) for hi in (1.1, 1.7, 2.9)],
    "cylinder": [CylinderPiece(radius, lo, hi)
                 for radius in (0.7, 1.3, 2.2) for lo, hi in ((-0.2, 0.7),
                                                             (0.4, 1.9))],
    "cone": [ConePiece(slope, lo, hi, t_apex=apex)
             for slope in (0.3, 0.661277, 0.85) for lo, hi, apex in
             ((0.2, 0.9, -1.5), (0.5, 2.0, 0.0))],
    "lateral_slab": [ConePiece(sigma, ts / eta, ts * eta)
                     for sigma in (0.25, 0.5) for eta in (1.5, 2.0)
                     for ts in (0.5, 1.3)],
    # singular_cone covers sigma 0.3 and 0.5 at t* = 1
    "weighted_cone": [ExteriorRegionSpec(0.758952, 1.0).lateral],
    "singular_cone": [ExteriorRegionSpec(sigma, ts).lateral
                      for sigma in (0.3, 0.5, 0.661277) for ts in (1.0, 2.5)],
    "level_set": [LevelSetPiece(WEIGHT, eps, lo, hi)
                  for eps in (0.003, 0.01, 0.05)
                  for lo, hi in ((0.8, 1.2), (0.95, 1.1))],
}


def plain_integrand(t, r):
    return np.exp(-t) * np.cos(r) + 0.3 * r


def weighted_integrand(t, r, f):
    return f ** 0.4 * np.cos(r) + t


class TestPieceProtocol:
    @pytest.mark.parametrize("name", sorted(PIECE_CASES))
    @pytest.mark.parametrize("q", [Q, QuadratureSpec(7, grading_exponent=4.0)])
    def test_surface_matches_the_formulas_it_replaced(self, name, q):
        for piece in PIECE_CASES[name]:
            weighted = isinstance(piece, (LevelSetPiece, _EdgeGradedCone))
            integrand = weighted_integrand if weighted else plain_integrand
            [got] = integrate_surfaces((piece,), integrand, q, 3)
            assert got.value != 0.0
            same_bits(got, reference_surface(piece, integrand, q, 3))


def reference_flux(params, fieldobj, weight, piece):
    """P . N under `weight` with the normal formulas of each piece type:
    constant normals as arrays, the level set's normal per node."""
    if isinstance(piece, LevelSetPiece):
        ts = weight.t_star

        def level_flux(t, r, f):
            Pt, Pr = flux_covector(params, fieldobj, t, r, weight, fval=f)
            scale = 1 / np.sqrt(f)
            return Pt * scale * 0.5 * (t - ts) + Pr * scale * 0.5 * r

        return level_flux
    if isinstance(piece, TimeSlicePiece):
        normal = np.array([1.0, 0.0])
    elif isinstance(piece, CylinderPiece):
        normal = np.array([0.0, 1.0])
    else:
        s = piece.slope
        scale = 1 / math.sqrt(1.0 - s * s)
        normal = np.array([scale * s, scale])

    def flux(t, r, f=None):
        Pt, Pr = flux_covector(params, fieldobj, t, r, weight, fval=f)
        return Pt * normal[0] + Pr * normal[1]

    return flux


class TestBoundaryFlux:
    @pytest.mark.parametrize("family", ["box", "frustum", "inverted"])
    def test_verify_global_pieces_match_the_normal_formulas(self, family):
        params = CarlemanParams(
            a=0.3, p=2.2, n=3,
            potential=PotentialSpec(c0=1.1, eps=0.15, center=(0.0, 1.0),
                                    width=0.8))
        fieldobj = _offcenter_gaussian(3, 0.8, 0.3, 1.2, 0.3, 0.35)
        region = {"box": box_region(0.1, 0.6, 0.9, 1.7),
                  "frustum": frustum_region(0.1, 0.6, 0.9, 0.5, -3.0),
                  "inverted": inverted_frustum_region(0.1, 0.6, 2.5, 0.5,
                                                      -2.0)}[family]
        rep = verify_global(params, fieldobj, region, Q)
        fluxes = carleman._piece_fluxes(params, fieldobj, region.pieces,
                                        region.weight, Q)
        wants = []
        for got, piece in zip(fluxes, region.pieces):
            [want] = integrate_surfaces(
                (piece,), reference_flux(params, fieldobj, region.weight,
                                         piece), Q, params.n)
            assert got.value != 0.0
            assert got.value.hex() == want.value.hex()
            wants.append(want.value)
        assert rep.rhs_boundary.hex() == \
            float(sum(s * w for s, w in zip(ORIENTATION, wants))).hex()

    def test_inner_flux_probe_matches_the_level_set_formula(self):
        ext = ExteriorRegionSpec(0.5, 1.0)
        fieldobj = gaussian_pulse(3, 1.0, 1.0, 0.3, 0.25)
        eps_seq = [1e-2, 1e-3]
        params = CarlemanParams(a=0.25, p=2.0, n=3,
                                potential=PotentialSpec(1.0))
        want = []
        for eps in eps_seq:
            lo, hi = exterior_window(0.5, 1.0, eps)
            piece = LevelSetPiece(ext.weight, eps, lo, hi)
            [res] = integrate_surfaces(
                (piece,), reference_flux(params, fieldobj, ext.weight, piece),
                Q, 3)
            want.append(-res.value)  # out of {f > eps}: toward the axis
        got = vanishing_flux_probe(params, fieldobj, ext, eps_seq, Q)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert all(v != 0.0 for v in got)


# --------------------------------------------------------------------------
# Families of pieces: one integrand call per group of node sets
# --------------------------------------------------------------------------

ALL_PIECES = [piece for name in sorted(PIECE_CASES)
              for piece in PIECE_CASES[name]]


def mixed_integrand(t, r, f=None):
    return plain_integrand(t, r) if f is None else weighted_integrand(t, r, f)


class TestSurfaceFamily:
    @pytest.mark.parametrize("q", [Q, QuadratureSpec(7, grading_exponent=4.0)])
    def test_every_piece_has_the_bits_of_its_own_pass(self, q):
        calls = []

        def counting(t, r, *f):
            calls.append(len(f))
            assert t.shape == r.shape
            return mixed_integrand(t, r, *f)

        got = integrate_surfaces(ALL_PIECES, counting, q, 3)
        assert sorted(calls) == [0, 1]
        for res, piece in zip(got, ALL_PIECES):
            want = set_by_set_surface(piece, mixed_integrand, q, 3)
            same_bits(res, want)
            same_bits(integrate_surfaces((piece,), mixed_integrand, q, 3)[0],
                      want)

    def test_tuple_outputs(self):
        def pair(t, r, f=None):
            return mixed_integrand(t, r, f), np.cos(t) * r

        got = integrate_surfaces(ALL_PIECES, pair, Q, 2)
        for res, piece in zip(got, ALL_PIECES):
            assert len(res) == 2
            for k in range(2):
                same_bits(res[k], set_by_set_surface(
                    piece, lambda *a: pair(*a)[k], Q, 2))

    def test_nonfinite_location_follows_the_piece_order(self):
        # a weighted piece (second group) comes before a bad plain one
        level = PIECE_CASES["level_set"][0]
        cylinder = PIECE_CASES["cylinder"][0]
        pieces = [PIECE_CASES["slice"][0], level, cylinder]

        def bad(t, r, f=None):
            vals = mixed_integrand(t, r, f)
            if f is not None:
                return np.where(t > 1.0, np.nan, vals)
            return np.where(r == cylinder.r0, np.inf, vals)

        with pytest.raises(quadrature.NonFiniteSample) as got:
            integrate_surfaces(pieces, bad, Q, 3)
        with pytest.raises(quadrature.NonFiniteSample) as want:
            for piece in pieces:
                set_by_set_surface(piece, bad, Q, 3)
        assert got.value.location == want.value.location
        assert got.value.location[0] > 1.0

    def test_no_pieces(self):
        assert integrate_surfaces((), mixed_integrand, Q, 3) == []


class TestBoundaryFluxFamily:
    @pytest.mark.parametrize("family", ["box", "frustum", "inverted"])
    def test_one_covector_call_per_group(self, monkeypatch, family):
        shift = ShiftedWeight(1.0)
        params = CarlemanParams(a=0.3, p=2.0, n=2)
        fieldobj = _offcenter_gaussian(2, 0.9, 1.0, 0.8, 0.2, 0.2)
        region = {"box": box_region(0.1, 0.6, 1.2, 1.7, shift),
                  "frustum": frustum_region(0.1, 0.6, 1.2, 0.5, -3.0, shift),
                  "inverted": inverted_frustum_region(0.1, 0.6, 2.5, 0.5,
                                                      -2.0, shift)}[family]
        rep = verify_global(params, fieldobj, region, Q)
        want = piece_by_piece_fluxes(params, fieldobj, region.pieces, shift, Q)
        got = carleman._piece_fluxes(params, fieldobj, region.pieces, shift, Q)
        assert [r.value.hex() for r in got] == [w.value.hex() for w in want]
        assert rep.rhs_boundary.hex() == \
            float(sum(s * w.value for s, w in zip(ORIENTATION, want))).hex()
        assert [rep.error_estimates[f"piece{i}"].hex()
                for i in range(len(want))] == \
            [w.error_estimate.hex() for w in want]
        calls = []
        inner = carleman.flux_covector

        def counting(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(carleman, "flux_covector", counting)
        verify_global(params, fieldobj, region, Q)
        # a region's four pieces carry no weight: one group of node sets
        assert len(calls) == 1
