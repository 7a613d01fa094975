"""Weighted-inequality machinery: the multiplier current, its bulk factor,
and quadrature verification of the global and shifted estimates.

The global estimate bounds, for any C^2 field phi on an admissible region
inside the exterior of the (possibly shifted) null cone,

  (p+1)^{-1} int f^{2a} V Gamma_V |phi|^{p+1}
      <= (8a)^{-1} int f^{2a} f |box_V phi|^2 + int_boundary P . N,

with equality structure coming from a divergence identity; verification
therefore has slack bounded below only by quadrature error, which is what
the report's tolerance encodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .fields import ManufacturedField, PotentialSpec
from .geometry import (
    BulkRegion,
    ConePiece,
    CylinderPiece,
    ExteriorRegionSpec,
    ShiftedWeight,
    TimeSlicePiece,
    UNSHIFTED,
)
from .quadrature import QuadratureSpec, integrate_bulk, integrate_surfaces

__all__ = [
    "CarlemanParams",
    "CarlemanReport",
    "ShiftedReport",
    "flux_covector",
    "box_region",
    "frustum_region",
    "inverted_frustum_region",
    "verify_global",
    "verify_shifted",
    "vanishing_flux_probe",
]

RELATIVE_SLACK_TOLERANCE = 1e-6


@dataclass(frozen=True)
class CarlemanParams:
    """Weight exponent, nonlinearity and potential; regions own the weight.

    `shifted_range_ok` is the admissibility condition for the shifted
    estimate; the positivity of the bulk factor requires
    p - 1 < 4/(n - 1 + 4a) (a printed statement carries "p <" there, which
    contradicts the bulk factor's own display; the implementation keeps the
    form that makes Gamma_V positive).
    """

    a: float
    p: float
    n: int
    potential: PotentialSpec = field(default_factory=PotentialSpec)

    def __post_init__(self):
        if not self.a > 0.0:
            raise ValueError("weight exponent a must be positive")
        if not self.p >= 1.0:
            raise ValueError("nonlinearity exponent must satisfy p >= 1")
        if not self.n >= 1:
            raise ValueError("spatial dimension must be >= 1")

    @property
    def shifted_range_ok(self) -> bool:
        return self.p - 1.0 < 4.0 / (self.n - 1.0 + 4.0 * self.a)


def _potential_and_gamma(params: CarlemanParams, weight, t, r):
    """(V, Gamma_V) at (t, r) from one evaluation of the potential's jet,

      Gamma_V = grad f . grad(log V) - (n-1+4a)/4 (p - 1 - 4/(n-1+4a)),

    the contraction with the raised gradient of f (the t-derivative term
    enters with a flipped sign); a constant potential gives the scalars
    (c0, Gamma_V)."""
    m = params.n - 1.0 + 4.0 * params.a
    const = -(m / 4.0) * (params.p - 1.0 - 4.0 / m)
    if params.potential.is_constant:
        return params.potential.c0, const + 0.0
    ft, fr = weight.grad_radial(t, r)
    V, Vt, Vr = params.potential.jet(t, r)
    return V, (-ft * Vt + fr * Vr) / V + const


def flux_covector(params: CarlemanParams, fieldobj, t, r, weight, fval=None):
    """Covariant components (P_t, P_r) of the multiplier current

    P_b = f^{2a} (grad f . grad phi d_b phi - 1/2 d_b f grad phi . grad phi)
        + (p+1)^{-1} f^{2a} d_b f V |phi|^{p+1}
        + ((n-1)/4 + a) f^{2a} phi d_b phi
        + a ((n-1)/4 + a) f^{2a-1} d_b f phi^2.

    `weight` gives f and its gradient; `fval` lets surface pieces supply f
    computed in a cancellation-free form near its zero set.
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    f = (weight.value_radial(t, r) if fval is None
         else np.asarray(fval, dtype=float))
    if np.any(f <= 0.0):
        raise ValueError("flux vector requires f > 0")
    ft, fr = weight.grad_radial(t, r)
    ph, pt, pr = fieldobj.jet(t, r)[:3]
    V = params.potential.value(t, r)
    a, p, n = params.a, params.p, params.n

    grad_f_dot_phi = -ft * pt + fr * pr   # raised-index contraction
    grad_phi_sq = -pt * pt + pr * pr
    w = f ** (2.0 * a)
    c1 = (n - 1.0) / 4.0 + a
    common_t = w * (grad_f_dot_phi * pt - 0.5 * ft * grad_phi_sq)
    common_r = w * (grad_f_dot_phi * pr - 0.5 * fr * grad_phi_sq)
    nl = w * V * np.abs(ph) ** (p + 1.0) / (p + 1.0)
    zero_order = a * c1 * w / f * ph * ph
    Pt = common_t + ft * nl + c1 * w * ph * pt + ft * zero_order
    Pr = common_r + fr * nl + c1 * w * ph * pr + fr * zero_order
    return Pt, Pr


# --------------------------------------------------------------------------
# Admissible region library (three parametric families with closed-form
# pieces; arbitrary user geometry is out of scope)
# --------------------------------------------------------------------------

# The sign per piece, (bottom, top, inner side, outer side), that turns its
# own normal (+dt, or away from the axis) into the divergence identity's
# orientation: inward on the slices, outward on the sides.
SIDED_ORIENTATION = (1.0, -1.0, -1.0, 1.0)


@dataclass(frozen=True)
class _SidedBulk(BulkRegion):
    """The region bounded by `pieces`, (bottom slice, top slice, inner side,
    outer side): {t0 < t < t1, inner(t) < r < outer(t)}, with t0 and t1 the
    slices' levels and the radial edges the sides' own radius(t)."""

    pieces: tuple
    weight: ShiftedWeight

    def time_window(self):
        return self.pieces[0].level, self.pieces[1].level

    def r_inner(self, t):
        return self.pieces[2].radius(t)

    def r_outer(self, t):
        return self.pieces[3].radius(t)


def _sided_region(inner, outer, shift: ShiftedWeight) -> _SidedBulk:
    """The region between two timelike sides (cylinders or tilted cones)
    over the inner side's window, with its four pieces in the order of
    SIDED_ORIENTATION. The slices reject ends where 0 <= inner < outer
    fails, and the region, whose weight is `shift`, is rejected unless that
    weight is positive on its inner side."""
    t0, t1 = inner.t_lo, inner.t_hi
    pieces = tuple(TimeSlicePiece(t, float(inner.radius(t)),
                                  float(outer.radius(t)))
                   for t in (t0, t1)) + (inner, outer)
    # Along the inner side r_inner(t)^2 - (t - t*)^2 is a constant minus a
    # square (cylinder) or a quadratic with leading coefficient
    # slope^2 - 1 < 0 (cone): concave either way, so its minimum over
    # [t0, t1] sits at an endpoint.
    for t in (t0, t1):
        if float(inner.radius(t)) ** 2 - (t - shift.t_star) ** 2 <= 0.0:
            raise ValueError("region closure leaves the exterior region {f > 0}")
    return _SidedBulk(pieces, shift)


def box_region(t0, t1, r0, r1, shift: ShiftedWeight = UNSHIFTED) -> _SidedBulk:
    """Rectangle in (t, r): cylinder sides r = r0 and r = r1."""
    return _sided_region(CylinderPiece(r0, t0, t1), CylinderPiece(r1, t0, t1),
                         shift)


def frustum_region(t0, t1, r0, slope, t_apex,
                   shift: ShiftedWeight = UNSHIFTED) -> _SidedBulk:
    """Inner cylinder r = r0, outer tilted timelike cone r = slope (t - t_apex)."""
    return _sided_region(CylinderPiece(r0, t0, t1),
                         ConePiece(slope, t0, t1, t_apex=t_apex), shift)


def inverted_frustum_region(t0, t1, r1, slope, t_apex,
                            shift: ShiftedWeight = UNSHIFTED) -> _SidedBulk:
    """Inner tilted timelike cone, outer cylinder r = r1."""
    return _sided_region(ConePiece(slope, t0, t1, t_apex=t_apex),
                         CylinderPiece(r1, t0, t1), shift)


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

@dataclass
class CarlemanReport:
    lhs_bulk: float
    rhs_bulk: float
    rhs_boundary: float
    error_estimates: dict
    passed: bool
    slack: float
    tolerance: float


def verify_global(params: CarlemanParams, fieldobj: ManufacturedField,
                  region: _SidedBulk,
                  q: QuadratureSpec = QuadratureSpec()) -> CarlemanReport:
    """Evaluate both sides of the global estimate on an admissible region.

    Slack = rhs_total - lhs must be >= -(1e-6 scale + quadrature errors);
    anything beyond that indicates a sign or measure bug rather than a
    numerical artifact, because the underlying identity is exact.
    """
    a, p, n = params.a, params.p, params.n

    def integrand(t, r):
        """Both bulk sides without their constants 1/(p+1) and 1/(8a),
        which scale the results: from one field jet per node and two
        powers, f^{2a} and |phi|^p, which give f^{2a+1}, |phi|^{p+1} and
        the signed power."""
        f = region.weight.value_radial(t, r)
        ph, _, _, box = fieldobj.jet(t, r)
        V, gamma = _potential_and_gamma(params, region.weight, t, r)
        f2a = f ** (2 * a)
        mag = np.abs(ph)
        powp = mag ** p
        mag *= powp                                 # |phi|^{p+1}
        lhs = f2a * (V * gamma)
        lhs *= mag
        np.copysign(powp, ph, out=powp)
        powp *= V
        powp += box                                 # box_V phi
        np.square(powp, out=powp)
        f *= f2a                                    # f^{2a+1}
        f *= powp
        return lhs, f

    lhs, rhs = (replace(res, value=res.value / c,
                        error_estimate=res.error_estimate / c)
                for res, c in zip(integrate_bulk(region, integrand, q, n),
                                  (p + 1.0, 8.0 * a)))

    fluxes = _piece_fluxes(params, fieldobj, region.pieces, region.weight, q)
    errors = {"lhs": lhs.error_estimate, "rhs_bulk": rhs.error_estimate}
    errors.update((f"piece{idx}", res.error_estimate)
                  for idx, res in enumerate(fluxes))

    rhs_boundary = float(sum(sign * res.value for sign, res
                             in zip(SIDED_ORIENTATION, fluxes)))
    slack = rhs.value + rhs_boundary - lhs.value
    scale = abs(lhs.value) + abs(rhs.value + rhs_boundary)
    tol = RELATIVE_SLACK_TOLERANCE * scale + sum(errors.values())
    return CarlemanReport(
        lhs_bulk=lhs.value,
        rhs_bulk=rhs.value,
        rhs_boundary=rhs_boundary,
        error_estimates=errors,
        passed=bool(slack >= -tol),
        slack=slack,
        tolerance=tol,
    )


def _piece_fluxes(params, fieldobj, pieces, weight, q):
    """Boundary integrals of P . N, one per piece, along each piece's own
    normal: P under `weight` from one flux_covector call per group of node
    sets (a weight value, where a piece carries one, comes in as f)."""
    return integrate_surfaces(
        pieces, lambda t, r, f=None: flux_covector(params, fieldobj, t, r,
                                                   weight, f),
        q, params.n,
        contract=lambda piece, P, t, r, f: piece.dot_normal(*P, t, r, f))


@dataclass
class ShiftedReport:
    lhs: float
    terms: dict                 # t1_gradient, t2_power, t3_zeroth, t4_singular
    ratio: float                # lhs / sum of the terms, the observed constant
    flux_trail: tuple           # inner fluxes over the eps sequence
    error_estimates: dict


def verify_shifted(params: CarlemanParams, fieldobj: ManufacturedField,
                   exterior: ExteriorRegionSpec,
                   q: QuadratureSpec = QuadratureSpec()) -> ShiftedReport:
    """Evaluate the shifted estimate on the exterior region:

    int_D f^{2a} |phi|^{p+1}  <=  K [ t*^{1+4a} int_G |grad phi|^2
        + t*^{1+4a} int_G |phi|^{p+1} + t*^{-1+4a} int_G phi^2
        + t* int_G f^{-1+2a} phi^2 ],

    reporting the observed K = lhs/rhs together with the inner-flux trail
    at eps = 1e-2, 1e-3, 1e-4 that certifies the vanishing-boundary limit.

    For radial fields the strengthened boundary gradient (d_t phi)^2 +
    (d_r phi)^2 coincides with the full |grad phi|^2.
    """
    if not params.shifted_range_ok:
        raise ValueError("(a, p, n) outside the shifted admissible range")
    a, p, n = params.a, params.p, params.n
    ts, weight = exterior.t_star, exterior.weight

    def lhs_integrand(t, r):
        return (weight.value_radial(t, r) ** (2 * a)
                * np.abs(fieldobj.jet(t, r)[0]) ** (p + 1.0))

    lhs = integrate_bulk(exterior, lhs_integrand, q, n)

    def lateral(t, r, f):
        """The four boundary terms from one field jet per node."""
        ph, phi_t, phi_r = fieldobj.jet(t, r)[:3]
        zeroth = ph ** 2
        return (phi_t ** 2 + phi_r ** 2, np.abs(ph) ** (p + 1.0), zeroth,
                f ** (-1.0 + 2.0 * a) * zeroth)

    [(t1, t2, t3, t4)] = integrate_surfaces((exterior.lateral,), lateral, q, n)

    terms = {
        "t1_gradient": ts ** (1.0 + 4.0 * a) * t1.value,
        "t2_power": ts ** (1.0 + 4.0 * a) * t2.value,
        "t3_zeroth": ts ** (-1.0 + 4.0 * a) * t3.value,
        "t4_singular": ts * t4.value,
    }
    errors = {"lhs": lhs.error_estimate}
    errors.update((f"t{idx}", res.error_estimate)
                  for idx, res in enumerate((t1, t2, t3, t4), 1))
    rhs_total = sum(terms.values())
    ratio = lhs.value / rhs_total if rhs_total > 0 else math.inf if lhs.value > 0 else 0.0

    trail = vanishing_flux_probe(params, fieldobj, exterior,
                                 (1e-2, 1e-3, 1e-4), q)
    return ShiftedReport(lhs=lhs.value, terms=terms, ratio=ratio,
                         flux_trail=tuple(trail), error_estimates=errors)


def vanishing_flux_probe(params: CarlemanParams, field, exterior,
                         eps_sequence, q: QuadratureSpec = QuadratureSpec()):
    """Flux of the Carleman current out of {f > eps} through each level set
    {f = eps}, against its normal: the region lies beyond it from the axis.

    Returns one value per eps; for C^2 fields the sequence tends to 0 as the
    level approaches the null boundary, which callers assert.
    """
    if sorted(eps_sequence, reverse=True) != list(eps_sequence):
        raise ValueError("eps sequence must be decreasing")
    pieces = [exterior.level_set(eps) for eps in eps_sequence]
    return [-res.value for res in _piece_fluxes(params, field, pieces,
                                                exterior.weight, q)]
