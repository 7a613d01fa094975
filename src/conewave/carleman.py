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
from dataclasses import dataclass, field

import numpy as np

from .fields import ManufacturedField, PotentialSpec, signed_power
from .geometry import (
    AdmissibleRegionSpec,
    BoxSpec,
    ConePiece,
    CylinderPiece,
    ExteriorRegionSpec,
    LevelSetPiece,
    ShiftedWeight,
    TimeSlicePiece,
    UNSHIFTED,
    lateral_boundary,
    oriented_normal,
)
from .quadrature import (
    QuadratureSpec,
    QuadratureResult,
    integrate_bulk,
    integrate_profile,
    integrate_surface,
    vanishing_flux_probe,
)

__all__ = [
    "CarlemanParams",
    "CarlemanReport",
    "ShiftedReport",
    "bulk_gamma",
    "flux_covector",
    "box_region",
    "frustum_region",
    "inverted_frustum_region",
    "clipped_exterior_region",
    "level_shell_region",
    "verify_global",
    "verify_shifted",
    "report_csv_header",
    "report_csv_row",
]

RELATIVE_SLACK_TOLERANCE = 1e-6


@dataclass(frozen=True)
class CarlemanParams:
    """Weight exponent, nonlinearity, potential, and weight shift.

    `shifted_range_ok` is the admissibility condition for the shifted
    estimate; the positivity of the bulk factor requires
    p - 1 < 4/(n - 1 + 4a) (a printed statement carries "p <" there, which
    contradicts the bulk factor's own display; the implementation keeps the
    form that makes Gamma_V positive).
    """

    a: float
    p: float
    n: int
    potential: PotentialSpec = field(default_factory=PotentialSpec.constant)
    shift: ShiftedWeight = UNSHIFTED

    def __post_init__(self):
        if self.a <= 0.0:
            raise ValueError("weight exponent a must be positive")
        if self.p < 1.0:
            raise ValueError("nonlinearity exponent must satisfy p >= 1")
        if self.n < 1:
            raise ValueError("spatial dimension must be >= 1")

    @property
    def shifted_range_ok(self) -> bool:
        return self.p - 1.0 < 4.0 / (self.n - 1.0 + 4.0 * self.a)

    def weight_value(self, t, r):
        return self.shift.value_radial(t, r)

    def weight_grad(self, t, r):
        return self.shift.grad_radial(t, r)


def bulk_gamma(params: CarlemanParams, t, r):
    """Gamma_V = grad f . grad(log V) - (n-1+4a)/4 (p - 1 - 4/(n-1+4a)).

    The contraction uses the raised gradient of f, so the t-derivative term
    enters with a flipped sign. For a constant potential it is exactly +0,
    and Gamma_V is the scalar constant.
    """
    m = params.n - 1.0 + 4.0 * params.a
    const = -(m / 4.0) * (params.p - 1.0 - 4.0 / m)
    if params.potential.kind == "constant":
        return const + 0.0
    ft, fr = params.weight_grad(t, r)
    V = params.potential.value(t, r)
    Vt, Vr = params.potential.gradient(t, r)
    return (-ft * Vt + fr * Vr) / V + const


def _potential_value(params: CarlemanParams, t, r):
    """V at (t, r); a constant potential stays the scalar c0."""
    if params.potential.kind == "constant":
        return params.potential.c0
    return params.potential.value(t, r)


def flux_covector(params: CarlemanParams, fieldobj, t, r, fval=None):
    """Covariant components (P_t, P_r) of the multiplier current

    P_b = f^{2a} (grad f . grad phi d_b phi - 1/2 d_b f grad phi . grad phi)
        + (p+1)^{-1} f^{2a} d_b f V |phi|^{p+1}
        + ((n-1)/4 + a) f^{2a} phi d_b phi
        + a ((n-1)/4 + a) f^{2a-1} d_b f phi^2.

    `fval` lets surface pieces supply the weight computed in a
    cancellation-free form near its zero set.
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    f = params.weight_value(t, r) if fval is None else np.asarray(fval, dtype=float)
    if np.any(f <= 0.0):
        raise ValueError("flux vector requires f > 0")
    ft, fr = params.weight_grad(t, r)
    ph, pt, pr = fieldobj.jet(t, r)[:3]
    V = _potential_value(params, t, r)
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
# Admissible region library (five parametric families with closed-form
# pieces; arbitrary user geometry is out of scope)
# --------------------------------------------------------------------------

def box_region(t0, t1, r0, r1, shift: ShiftedWeight = UNSHIFTED) -> AdmissibleRegionSpec:
    """Rectangle in (t, r) with two spacelike and two timelike pieces."""
    bulk = BoxSpec(t0, t1, r0, r1)
    _require_positive_weight_box(bulk, shift)
    pieces = (
        TimeSlicePiece(t0, r0, r1, inward_sign=+1),
        TimeSlicePiece(t1, r0, r1, inward_sign=-1),
        CylinderPiece(r0, t0, t1, outward_sign=-1),
        CylinderPiece(r1, t0, t1, outward_sign=+1),
    )
    return AdmissibleRegionSpec(bulk=bulk, pieces=pieces)


@dataclass(frozen=True)
class _FrustumBulk:
    """{t0 < t < t1, inner(t) < r < outer(t)} with one tilted-cone side."""

    t0: float
    t1: float
    cone: ConePiece
    radius: float
    cone_is_outer: bool

    def r_inner(self, t):
        if self.cone_is_outer:
            return np.full_like(np.asarray(t, dtype=float), self.radius)
        return self.cone.radius(t)

    def r_outer(self, t):
        if self.cone_is_outer:
            return self.cone.radius(t)
        return np.full_like(np.asarray(t, dtype=float), self.radius)


def frustum_region(t0, t1, r0, slope, t_apex,
                   shift: ShiftedWeight = UNSHIFTED) -> AdmissibleRegionSpec:
    """Inner cylinder r = r0, outer tilted timelike cone r = slope (t - t_apex)."""
    cone = ConePiece(slope, t0, t1, t_apex=t_apex, outward_sign=+1)
    lo = float(cone.radius(t0))
    hi = float(cone.radius(t1))
    if min(lo, hi) <= r0:
        raise ValueError("cone side must stay outside the inner cylinder")
    bulk = _FrustumBulk(t0, t1, cone, r0, cone_is_outer=True)
    pieces = (
        TimeSlicePiece(t0, r0, lo, inward_sign=+1),
        TimeSlicePiece(t1, r0, hi, inward_sign=-1),
        CylinderPiece(r0, t0, t1, outward_sign=-1),
        cone,
    )
    region = AdmissibleRegionSpec(bulk=bulk, pieces=pieces)
    _require_positive_weight_frustum(bulk, shift)
    return region


def inverted_frustum_region(t0, t1, r1, slope, t_apex,
                            shift: ShiftedWeight = UNSHIFTED) -> AdmissibleRegionSpec:
    """Inner tilted timelike cone, outer cylinder r = r1."""
    cone = ConePiece(slope, t0, t1, t_apex=t_apex, outward_sign=-1)
    lo = float(cone.radius(t0))
    hi = float(cone.radius(t1))
    if max(lo, hi) >= r1:
        raise ValueError("cone side must stay inside the outer cylinder")
    if min(lo, hi) < 0:
        raise ValueError("cone side crosses the axis inside the window")
    bulk = _FrustumBulk(t0, t1, cone, r1, cone_is_outer=False)
    pieces = (
        TimeSlicePiece(t0, lo, r1, inward_sign=+1),
        TimeSlicePiece(t1, hi, r1, inward_sign=-1),
        cone,
        CylinderPiece(r1, t0, t1, outward_sign=+1),
    )
    region = AdmissibleRegionSpec(bulk=bulk, pieces=pieces)
    _require_positive_weight_frustum(bulk, shift)
    return region


def clipped_exterior_region(sigma, t_star, eps, t0, t1) -> AdmissibleRegionSpec:
    """Shifted exterior region {f > eps} in the cone, clipped by two planes."""
    ext = ExteriorRegionSpec(sigma, t_star, eps=eps)
    lo, hi = ext.time_window()
    t0 = max(t0, lo)
    t1 = min(t1, hi)
    if t0 >= t1:
        raise ValueError("clip window misses the region")
    w = ext.weight
    pieces = (
        TimeSlicePiece(t0, float(ext.inner_radius(t0)), sigma * t0, inward_sign=+1),
        TimeSlicePiece(t1, float(ext.inner_radius(t1)), sigma * t1, inward_sign=-1),
        LevelSetPiece(w, eps, t0, t1, outward_sign=-1),
        ConePiece(sigma, t0, t1, outward_sign=+1, weight=w),
    )
    bulk = _ClippedExteriorBulk(ext, t0, t1)
    return AdmissibleRegionSpec(bulk=bulk, pieces=pieces)


@dataclass(frozen=True)
class _ClippedExteriorBulk:
    ext: ExteriorRegionSpec
    t0: float
    t1: float

    def r_inner(self, t):
        return self.ext.inner_radius(t)

    def r_outer(self, t):
        return self.ext.sigma * np.asarray(t, dtype=float)


def level_shell_region(shift: ShiftedWeight, eps0, eps1, t0, t1) -> AdmissibleRegionSpec:
    """{eps0 < f < eps1} between two planes (axis-ray shift)."""
    if not 0.0 < eps0 < eps1:
        raise ValueError("need 0 < eps0 < eps1")
    pieces = (
        TimeSlicePiece(t0, _level_radius(shift, eps0, t0),
                       _level_radius(shift, eps1, t0), inward_sign=+1),
        TimeSlicePiece(t1, _level_radius(shift, eps0, t1),
                       _level_radius(shift, eps1, t1), inward_sign=-1),
        LevelSetPiece(shift, eps0, t0, t1, outward_sign=-1),
        LevelSetPiece(shift, eps1, t0, t1, outward_sign=+1),
    )
    bulk = _LevelShellBulk(shift, eps0, eps1, t0, t1)
    return AdmissibleRegionSpec(bulk=bulk, pieces=pieces)


def _level_radius(shift, eps, t):
    return float(np.sqrt((t - shift.t_star) ** 2 + 4.0 * eps))


@dataclass(frozen=True)
class _LevelShellBulk:
    shift: ShiftedWeight
    eps0: float
    eps1: float
    t0: float
    t1: float

    def r_inner(self, t):
        t = np.asarray(t, dtype=float)
        return np.sqrt((t - self.shift.t_star) ** 2 + 4.0 * self.eps0)

    def r_outer(self, t):
        t = np.asarray(t, dtype=float)
        return np.sqrt((t - self.shift.t_star) ** 2 + 4.0 * self.eps1)


def _require_positive_weight_box(bulk: BoxSpec, shift: ShiftedWeight):
    corners_t = (bulk.t0, bulk.t1)
    ts = shift.t_star
    worst = min(bulk.r0 ** 2 - (t - ts) ** 2 for t in corners_t)
    if worst <= 0.0:
        raise ValueError("box closure leaves the exterior region {f > 0}")


def _require_positive_weight_frustum(bulk: _FrustumBulk, shift: ShiftedWeight):
    # Along the inner side r_inner(t)^2 - (t - t*)^2 is a constant minus a
    # square (cylinder) or a quadratic with leading coefficient
    # slope^2 - 1 < 0 (cone): concave either way, so its minimum over
    # [t0, t1] sits at an endpoint.
    ts = shift.t_star
    for t in (bulk.t0, bulk.t1):
        if float(bulk.r_inner(t)) ** 2 - (t - ts) ** 2 <= 0.0:
            raise ValueError("frustum closure leaves the exterior region {f > 0}")


def _bulk_integrate_region(region: AdmissibleRegionSpec, integrand,
                           q: QuadratureSpec, n: int) -> QuadratureResult:
    bulk = region.bulk
    if isinstance(bulk, BoxSpec):
        return integrate_bulk(bulk, integrand, q, n)
    if isinstance(bulk, (_FrustumBulk, _ClippedExteriorBulk, _LevelShellBulk)):
        singular_r = (False, False)
        if isinstance(bulk, _ClippedExteriorBulk) and bulk.ext.eps == 0.0:
            singular_r = (True, False)
        return integrate_profile((bulk.t0, bulk.t1), bulk.r_inner,
                                 bulk.r_outer, integrand, q, n,
                                 singular_r=singular_r)
    raise TypeError(f"unsupported bulk kind {type(bulk).__name__}")


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

@dataclass
class CarlemanReport:
    lhs_bulk: float
    rhs_bulk: float
    rhs_boundary: float
    boundary_per_piece: tuple
    error_estimates: dict
    passed: bool
    slack: float
    tolerance: float

    @property
    def rhs_total(self) -> float:
        return self.rhs_bulk + self.rhs_boundary


def report_csv_header():
    return "case_id,a,p,n,lhs,rhs_bulk,rhs_boundary,slack,err_est,pass"


def report_csv_row(case_id, params: CarlemanParams, rep: CarlemanReport,
                   digits: int = 17):
    err = sum(rep.error_estimates.values())
    vals = [rep.lhs_bulk, rep.rhs_bulk, rep.rhs_boundary, rep.slack, err]
    nums = ",".join(f"{v:.{digits}g}" for v in vals)
    return (f"{case_id},{params.a:.{digits}g},{params.p:.{digits}g},{params.n},"
            f"{nums},{int(rep.passed)}")


def verify_global(params: CarlemanParams, fieldobj: ManufacturedField,
                  region: AdmissibleRegionSpec,
                  q: QuadratureSpec | None = None) -> CarlemanReport:
    """Evaluate both sides of the global estimate on an admissible region.

    Slack = rhs_total - lhs must be >= -(1e-6 scale + quadrature errors);
    anything beyond that indicates a sign or measure bug rather than a
    numerical artifact, because the underlying identity is exact.
    """
    if q is None:
        q = QuadratureSpec()
    a, p, n = params.a, params.p, params.n

    def integrand(t, r):
        """Both bulk sides, from one field jet per node."""
        f = params.weight_value(t, r)
        ph, _, _, box = fieldobj.jet(t, r)
        V = _potential_value(params, t, r)
        lhs = (f ** (2 * a) * V * bulk_gamma(params, t, r)
               * np.abs(ph) ** (p + 1.0)) / (p + 1.0)
        rhs = f ** (2 * a + 1.0) * (box + V * signed_power(ph, p)) ** 2 / (8.0 * a)
        return lhs, rhs

    lhs, rhs = _bulk_integrate_region(region, integrand, q, n)

    per_piece = []
    errors = {"lhs": lhs.error_estimate, "rhs_bulk": rhs.error_estimate}
    for idx, piece in enumerate(region.pieces):
        flux = _piece_flux(params, fieldobj, piece)
        res = integrate_surface(piece, flux, q, n)
        per_piece.append(res.value)
        errors[f"piece{idx}"] = res.error_estimate

    rhs_boundary = float(sum(per_piece))
    slack = rhs.value + rhs_boundary - lhs.value
    scale = abs(lhs.value) + abs(rhs.value + rhs_boundary)
    tol = RELATIVE_SLACK_TOLERANCE * scale + sum(errors.values())
    return CarlemanReport(
        lhs_bulk=lhs.value,
        rhs_bulk=rhs.value,
        rhs_boundary=rhs_boundary,
        boundary_per_piece=tuple(per_piece),
        error_estimates=errors,
        passed=bool(slack >= -tol),
        slack=slack,
        tolerance=tol,
    )


def _piece_flux(params, fieldobj, piece):
    """Oriented boundary integrand P . N for one piece.

    Level sets carry a position-dependent normal -sign f^{-1/2} grad f;
    the other pieces have constant normals, evaluated at an interior probe
    point. Pieces carrying a weight are integrated through the
    (t, r, f)-signature contract of integrate_surface.
    """
    if isinstance(piece, LevelSetPiece):
        ts = params.shift.t_star
        sign = piece.outward_sign

        def flux(t, r, f):
            Pt, Pr = flux_covector(params, fieldobj, t, r, fval=f)
            scale = sign / np.sqrt(f)
            return Pt * scale * 0.5 * (t - ts) + Pr * scale * 0.5 * r

        return flux

    probe = _probe_point(piece)
    normal = oriented_normal(piece, probe)
    if getattr(piece, "weight", None) is not None:
        def flux(t, r, f):
            Pt, Pr = flux_covector(params, fieldobj, t, r, fval=f)
            return Pt * normal[0] + Pr * normal[1]
    else:
        def flux(t, r):
            Pt, Pr = flux_covector(params, fieldobj, t, r)
            return Pt * normal[0] + Pr * normal[1]
    return flux


def _probe_point(piece):
    if isinstance(piece, TimeSlicePiece):
        return piece.level, (0.5 * (piece.r_lo + piece.r_hi),)
    if isinstance(piece, CylinderPiece):
        return 0.5 * (piece.t_lo + piece.t_hi), (piece.radius,)
    if isinstance(piece, ConePiece):
        tm = 0.5 * (piece.t_lo + piece.t_hi)
        return tm, (float(piece.radius(tm)),)
    raise TypeError(type(piece).__name__)


@dataclass
class ShiftedReport:
    lhs: float
    terms: dict                 # t1_gradient, t2_power, t3_zeroth, t4_singular
    ratio: float                # lhs / rhs_total, the observed constant
    flux_trail: tuple           # inner fluxes over the eps sequence
    error_estimates: dict

    @property
    def rhs_total(self) -> float:
        return sum(self.terms.values())


def verify_shifted(params: CarlemanParams, fieldobj: ManufacturedField,
                   exterior: ExteriorRegionSpec,
                   q: QuadratureSpec | None = None,
                   eps_floor: float = 1e-4) -> ShiftedReport:
    """Evaluate the shifted estimate on the exterior region (axis ray):

    int_D f^{2a} |phi|^{p+1}  <=  K [ t*^{1+4a} int_G |grad phi|^2
        + t*^{1+4a} int_G |phi|^{p+1} + t*^{-1+4a} int_G phi^2
        + t* int_G f^{-1+2a} phi^2 ],

    reporting the observed K = lhs/rhs together with the inner-flux trail
    that certifies the vanishing-boundary limit.

    For radial fields the strengthened boundary gradient (d_t phi)^2 +
    (d_r phi)^2 coincides with the full |grad phi|^2.
    """
    if q is None:
        q = QuadratureSpec()
    exterior.weight.require_axis()
    if params.shift != exterior.weight:
        raise ValueError("params.shift must match the exterior region")
    if not params.shifted_range_ok:
        raise ValueError("(a, p, n) outside the shifted admissible range")
    a, p, n = params.a, params.p, params.n
    ts = exterior.t_star

    def lhs_integrand(t, r):
        return (params.weight_value(t, r) ** (2 * a)
                * np.abs(fieldobj.value(t, r)) ** (p + 1.0))

    lhs = integrate_bulk(exterior, lhs_integrand, q, n)

    piece = lateral_boundary(exterior)

    def grad_sq(t, r, f):
        _, phi_t, phi_r = fieldobj.jet(t, r)[:3]
        return phi_t ** 2 + phi_r ** 2

    def power(t, r, f):
        return np.abs(fieldobj.value(t, r)) ** (p + 1.0)

    def zeroth(t, r, f):
        return fieldobj.value(t, r) ** 2

    def singular(t, r, f):
        return f ** (-1.0 + 2.0 * a) * fieldobj.value(t, r) ** 2

    t1 = integrate_surface(piece, grad_sq, q, n)
    t2 = integrate_surface(piece, power, q, n)
    t3 = integrate_surface(piece, zeroth, q, n)
    t4 = integrate_surface(piece, singular, q, n)

    terms = {
        "t1_gradient": ts ** (1.0 + 4.0 * a) * t1.value,
        "t2_power": ts ** (1.0 + 4.0 * a) * t2.value,
        "t3_zeroth": ts ** (-1.0 + 4.0 * a) * t3.value,
        "t4_singular": ts * t4.value,
    }
    errors = {
        "lhs": lhs.error_estimate,
        "t1": t1.error_estimate,
        "t2": t2.error_estimate,
        "t3": t3.error_estimate,
        "t4": t4.error_estimate,
    }
    rhs_total = sum(terms.values())
    ratio = lhs.value / rhs_total if rhs_total > 0 else math.inf if lhs.value > 0 else 0.0

    eps_seq = []
    e = 1e-2
    while e >= eps_floor * (1.0 - 1e-12):
        eps_seq.append(e)
        e *= 0.1
    trail = vanishing_flux_probe(exterior, fieldobj, a, eps_seq, p=p,
                                 potential=params.potential, q=q, n=n)
    return ShiftedReport(lhs=lhs.value, terms=terms, ratio=ratio,
                         flux_trail=tuple(trail), error_estimates=errors)
