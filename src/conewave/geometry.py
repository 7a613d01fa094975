"""Exact Minkowski geometry in radial coordinates.

Conventions used throughout the package:

* metric signature (-, +, ..., +), wave operator  box = -d_tt + Lap;
* a spacetime covector is stored as radial components (w_t, w_r), a vector
  likewise; indices are raised with g^{tt} = -1, g^{rr} = +1;
* "unit" normal means |g(N, N)| = 1 (timelike normals square to -1);
* all regions are open sets;
* the weight is f = (r^2 - (t - t*)^2)/4 about the axis; a ray
  zeta(t) = (t, t v) only moves its centre, to c = v t* (criterion 1 and
  `covering_check`, which takes each ray as its velocity tuple v, checks
  |v| < sigma < 1 and returns a witness point as a (t, x) pair).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import sphere_area

__all__ = [
    "ShiftedWeight",
    "ConeSegmentSpec",
    "ExteriorRegionSpec",
    "TimeSlicePiece",
    "CylinderPiece",
    "ConePiece",
    "LevelSetPiece",
    "covering_check",
    "CoveringResult",
]


@dataclass(frozen=True)
class ShiftedWeight:
    """The Lorentz square distance from (t*, 0) on the axis,

    f_{t*}(t, r) = 1/4 [ r^2 - (t - t*)^2 ];

    the unshifted weight is the case t* = 0. The weight from a ray
    zeta(t) = (t, t v) is the same function of r = |x - v t*|.
    """

    t_star: float = 0.0

    def value_radial(self, t, r):
        t = np.asarray(t, dtype=float)
        r = np.asarray(r, dtype=float)
        return 0.25 * (r * r - (t - self.t_star) ** 2)

    def grad_radial(self, t, r):
        """Covariant components (d_t f, d_r f)."""
        t = np.asarray(t, dtype=float)
        r = np.asarray(r, dtype=float)
        return -0.5 * (t - self.t_star), 0.5 * r


UNSHIFTED = ShiftedWeight()


# --------------------------------------------------------------------------
# Bulk regions
# --------------------------------------------------------------------------

class BulkRegion:
    """The region protocol: a bulk region is {t_lo < t < t_hi,
    r_inner(t) < r < r_outer(t)} with (t_lo, t_hi) = time_window().

    `singular_r` flags the (inner, outer) radial edges and `singular_t` the
    (lower, upper) time ends toward which quadrature grades its mesh. The
    defaults: no flagged edge, and an inner edge on the axis."""

    singular_r = (False, False)
    singular_t = (False, False)

    def r_inner(self, t):
        return np.zeros_like(t)


@dataclass(frozen=True)
class ConeSegmentSpec(BulkRegion):
    """The future or past cone interior over a time window on one side of
    t = 0, {t_lo < t < t_hi, 0 < r < sigma |t|}; a slab around |t*| is the
    window (|t*|/gamma, gamma |t*|) on t*'s side."""

    sigma: float
    t_lo: float
    t_hi: float

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise ValueError("cone aperture must lie in (0, 1)")
        if not self.t_lo < self.t_hi or self.t_lo < 0.0 < self.t_hi:
            raise ValueError("need t_lo < t_hi on one side of t = 0")

    def time_window(self):
        return self.t_lo, self.t_hi

    def r_outer(self, t):
        return self.sigma * np.abs(t)


@dataclass(frozen=True)
class ExteriorRegionSpec(BulkRegion):
    """Intersection of the cone with the exterior of the double null cone
    from (t*, 0) on the axis: {|t - t*| < r} n {0 < r < sigma t}, over
    t*/(1 + sigma) < t < t*/(1 - sigma).

    The weight vanishes on the inner edge, so quadrature grades in r toward
    it, and in t toward the corners where the r-interval degenerates. The
    region carries its boundary: the cone piece `lateral`, and the level
    sets {f = eps} that cut it from inside (`level_set`)."""

    sigma: float
    t_star: float

    singular_r = (True, False)
    singular_t = (True, True)

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise ValueError("cone aperture must lie in (0, 1)")
        if not self.t_star > 0.0:
            raise ValueError("exterior region requires t* > 0")

    @property
    def weight(self) -> ShiftedWeight:
        return ShiftedWeight(self.t_star)

    def time_window(self):
        return (self.t_star / (1.0 + self.sigma),
                self.t_star / (1.0 - self.sigma))

    def r_inner(self, t):
        return np.abs(np.asarray(t, dtype=float) - self.t_star)

    def r_outer(self, t):
        return self.sigma * np.asarray(t, dtype=float)

    @property
    def lateral(self) -> ConePiece:
        """The cone part of the boundary, from the time window's ends, where
        the weight vanishes: its nodes grade toward both ends and carry the
        weight value (see `_EdgeGradedCone`)."""
        return _EdgeGradedCone(self.sigma, *self.time_window())

    def level_set(self, eps) -> LevelSetPiece:
        """The level set {f = eps} inside the cone, over the t-range where
        its radius sqrt((t - t*)^2 + 4 eps) stays below sigma t."""
        sig, ts = self.sigma, self.t_star
        disc = sig * sig * ts * ts - 4.0 * eps * (1.0 - sig * sig)
        if not disc > 0.0:
            raise ValueError("eps too large: region is empty")
        root = math.sqrt(disc)
        return LevelSetPiece(self.weight, eps, (ts - root) / (1.0 - sig * sig),
                             (ts + root) / (1.0 - sig * sig))


# --------------------------------------------------------------------------
# Boundary pieces
# --------------------------------------------------------------------------

class SurfacePiece:
    """The piece protocol.

    `node_sets(mesh, n)` gives the piece's quadrature nodes as a sequence
    of (t, r, measure, f) sets of arrays of one length, built from the node
    rules of one refinement level (`mesh`, see quadrature): `measure` is the
    node weight times the induced density, and `f` the weight value in
    product form on the pieces that carry a weight (an exterior region's
    cone side, level sets of f), None on the others.
    `dot_normal(Pt, Pr, t, r, f)` contracts a covector with the unit normal:
    +dt on a time slice, away from the axis (N^r > 0) on a timelike piece,
    and a region orients it by a sign of its own; a constant normal is also
    `normal` = (N^t, N^r). The timelike pieces give their `radius(t)`;
    cylinders and unweighted cones are the sides of the Carleman regions
    (see carleman._sided_region)."""

    def dot_normal(self, Pt, Pr, t, r, f=None):
        Nt, Nr = self.normal
        return Pt * Nt + Pr * Nr


@dataclass(frozen=True)
class TimeSlicePiece(SurfacePiece):
    """Spacelike plane {t = level, r_lo < r < r_hi}, with normal +dt."""

    level: float
    r_lo: float
    r_hi: float
    normal = (1.0, 0.0)

    def __post_init__(self):
        if not math.isfinite(self.level):
            raise ValueError(f"slice level must be finite, got {self.level!r}")
        if not 0.0 <= self.r_lo < self.r_hi:
            raise ValueError(f"degenerate slice at t = {self.level!r}: need "
                             f"0 <= {self.r_lo!r} < {self.r_hi!r}")

    def node_sets(self, mesh, n):
        """The radial nodes, with t the level at each of them."""
        r, w = mesh.radial(self.r_lo, self.r_hi)
        return ((np.full(r.shape, float(self.level)), r,
                 w * sphere_area(n) * r ** (n - 1), None),)


@dataclass(frozen=True)
class CylinderPiece(SurfacePiece):
    """Timelike cylinder {r = r0, t_lo < t < t_hi}, with normal +dr."""

    r0: float
    t_lo: float
    t_hi: float
    normal = (0.0, 1.0)

    def __post_init__(self):
        if not (self.r0 > 0.0 and self.t_lo < self.t_hi):
            raise ValueError("degenerate cylinder")

    def radius(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.r0)

    def node_sets(self, mesh, n):
        t, w = mesh.temporal(self.t_lo, self.t_hi)
        return ((t, self.radius(t),
                 w * (sphere_area(n) * self.r0 ** (n - 1)), None),)


@dataclass(frozen=True)
class ConePiece(SurfacePiece):
    """Timelike cone piece {r = slope (t - t_apex), t_lo < t < t_hi}, slope in (0,1),
    with normal N = (1 - s^2)^{-1/2} (s d_t + d_r).
    Its nodes carry no weight value; the cone side of an exterior region,
    which does, is that region's `lateral`."""

    slope: float
    t_lo: float
    t_hi: float
    t_apex: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.slope < 1.0:
            raise ValueError("cone piece slope must lie in (0, 1): null or "
                             "spacelike cones are not timelike pieces")
        if not self.t_lo < self.t_hi:
            raise ValueError("degenerate cone piece")
        if not math.isfinite(self.t_apex):
            raise ValueError("cone piece apex time must be finite")

    def radius(self, t):
        return self.slope * (np.asarray(t, dtype=float) - self.t_apex)

    @property
    def normal(self):
        scale = 1 / math.sqrt(1.0 - self.slope * self.slope)
        return scale * self.slope, scale

    def node_sets(self, mesh, n):
        """One set over the piece."""
        t, w = mesh.temporal(self.t_lo, self.t_hi)
        r = self.radius(t)
        dens = sphere_area(n) * math.sqrt(1.0 - self.slope ** 2) * r ** (n - 1)
        return ((t, r, w * dens, None),)


class _EdgeGradedCone(ConePiece):
    """A cone piece from the origin whose ends t_lo, t_hi are the roots
    t*/(1 + s), t*/(1 - s) of the weight on it,
    f = (1-s^2)(t_hi - t)(t - t_lo)/4: an exterior region's `lateral`.

    Its nodes come one set per half, in the distance to that half's end,
    with f in product form: the edge factor is the distance itself, exact
    down to subnormal scales, where the naive difference of squares
    cancels catastrophically."""

    def node_sets(self, mesh, n):
        tm = 0.5 * (self.t_lo + self.t_hi)
        return [self._edge_half(mesh, n, False, tm - self.t_lo),
                self._edge_half(mesh, n, True, self.t_hi - tm)]

    def _edge_half(self, mesh, n, from_hi, length):
        """Nodes of the half of the piece at one end."""
        s = self.slope
        d, w = mesh.from_edge(length)
        if from_hi:
            t = self.t_hi - d
            other = t - self.t_lo
        else:
            t = self.t_lo + d
            other = self.t_hi - t
        r = self.radius(t)
        dens = sphere_area(n) * math.sqrt(1.0 - s * s) * r ** (n - 1)
        return t, r, w * dens, 0.25 * (1.0 - s * s) * d * other


@dataclass(frozen=True)
class LevelSetPiece(SurfacePiece):
    """Timelike level set {f_{t*} = eps} inside the cone, with normal
    N = f^{-1/2} grad f."""

    weight: ShiftedWeight
    eps: float
    t_lo: float
    t_hi: float

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError("level value must be positive")
        if not self.t_lo < self.t_hi:
            raise ValueError("degenerate level piece")

    def radius(self, t):
        t = np.asarray(t, dtype=float)
        return np.sqrt((t - self.weight.t_star) ** 2 + 4.0 * self.eps)

    def dot_normal(self, Pt, Pr, t, r, f):
        scale = 1 / np.sqrt(f)
        return (Pt * scale * 0.5 * (t - self.weight.t_star)
                + Pr * scale * 0.5 * r)

    def node_sets(self, mesh, n):
        """Nodes graded toward both ends, with the density
        area(S^{n-1}) 2 sqrt(eps) r^{n-2}."""
        t, w = mesh.temporal(self.t_lo, self.t_hi, graded=True)
        r = self.radius(t)
        dens = sphere_area(n) * 2.0 * math.sqrt(self.eps) * r ** (n - 2)
        return ((t, r, w * dens, np.full_like(t, self.eps)),)


# --------------------------------------------------------------------------
# Two-ray covering lemma
# --------------------------------------------------------------------------

@dataclass
class CoveringResult:
    """`witness` is a slab point (t, x) outside both exterior regions, x a
    tuple of n floats, or None when the regions cover the slab."""

    covered: bool
    witness: tuple | None = None
    boundary_ok: bool | None = None

    def __bool__(self):
        return self.covered and self.boundary_ok is not False


def covering_check(sigma, gamma, t_star, v0, v1, n=3,
                   eta=None) -> CoveringResult:
    """Decide whether the exterior regions {f_{t*,zeta_i} > 0} of the two
    rays zeta_i(t) = (t, t v_i) cover the slab t*/gamma < t < gamma t*,
    0 < r < sigma t. Each velocity v_i is a tuple of at most n components,
    with |v_i| < sigma < 1, so the rays are timelike and inside the cone.

    With centres c_i = v_i t*, covered iff t*(gamma - 1) <= |c0 - c1|/2.
    Necessary: a slab point outside both regions has |x - c_i| <= |t - t*|,
    so |c0 - c1| <= 2|t - t*| < 2 t*(gamma - 1). Sufficient: given the
    margin m = t*(gamma - 1) - |c0 - c1|/2 > 0, the midpoint of the centres
    (moved off the origin by less than m/2) at t = t* + |c0 - c1|/2 + m/2 is
    outside both regions, and inside the cone since |v_i| < sigma; it is
    returned as the witness (t, x) (in doubles, once m exceeds the rounding
    of t*).

    When `eta` is given, also checks that both cone-boundary pieces sit
    inside the lateral slab of that eta: the piece of a ray of speed |v|
    spans t*(1-|v|)/(1+sigma) < t < t*(1+|v|)/(1-sigma).
    """
    if not t_star > 0:
        raise ValueError("covering check requires t* > 0")
    if not 0.0 < sigma < 1.0:
        raise ValueError("cone aperture must lie in (0, 1)")
    speeds = [math.sqrt(sum(c * c for c in v)) for v in (v0, v1)]
    if not all(speed < sigma for speed in speeds):  # NaN fails too
        raise ValueError("rays must lie inside the cone")
    if math.isnan(gamma):
        raise ValueError("gamma must be a number")
    c0, c1 = np.zeros((2, n))
    for c, v in ((c0, v0), (c1, v1)):
        c[:len(v)] = np.asarray(v) * t_star
    half = 0.5 * float(np.linalg.norm(c0 - c1))
    margin = t_star * (gamma - 1.0) - half
    witness = None
    if margin > 0.0:
        x = 0.5 * (c0 + c1)
        if not np.dot(x, x) > 0.0:  # the origin, or too near it to square
            x[0] += 0.25 * min(margin, sigma * t_star)
        witness = (t_star + half + 0.5 * margin, tuple(x.tolist()))
    result = CoveringResult(covered=witness is None, witness=witness)
    if eta is not None:
        if not eta > 1.0:
            raise ValueError("eta must exceed 1")
        result.boundary_ok = all(
            t_star / eta <= t_star * (1.0 - speed) / (1.0 + sigma)
            and t_star * (1.0 + speed) / (1.0 - sigma) <= t_star * eta
            for speed in speeds)
    return result
