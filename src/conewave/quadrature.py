"""Deterministic composite quadrature over radial bulk regions and
hypersurface pieces, with graded meshes toward flagged singular edges.

Bulk integrands are plain vectorized callables f(t, r); one returning a tuple
of arrays has each of them integrated on the same mesh and gives a tuple of
results. Bulk integrands, and integrands on a fixed-time slice (also the
TimeSlicePiece surfaces), get r in full but t unbroadcast: a (rows, 1)
column, one time per mesh row, or on a slice a one-element array holding
the level. t always broadcasts with r, but an integrand must not assume
t.shape == r.shape; its t-only subexpressions then cost one evaluation per
row, not per node.
Surface integrands on pieces that carry a weight (cone pieces of
shifted exterior regions, level sets) are called as f(t, r, w) where w is the
weight value computed in product form; near the weight's zero set this is the
only representation with any relative accuracy, so singular integrands must
use it rather than recomputing r^2 - (t - t*)^2 themselves.

Error control is a one-level Richardson difference (cells doubled), never
adaptive subdivision, so repeated runs are bit identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    AnnulusSpec,
    BoxSpec,
    ConePiece,
    ConeSegmentSpec,
    CylinderPiece,
    ExteriorRegionSpec,
    LevelSetPiece,
    SlabSpec,
    TimeSlicePiece,
    sphere_area,
)

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "integrate_bulk",
    "integrate_slice",
    "integrate_profile",
    "integrate_surface",
    "vanishing_flux_probe",
]

_GAUSS2 = 0.5 / math.sqrt(3.0)
BLOCK_NODES = 8192  # nodes per integrand call in the slice and bulk loops


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite-rule parameters.

    base_order 2 is the midpoint rule, 4 the two-point Gauss rule per cell.
    grading_exponent controls how fast cell edges accumulate toward flagged
    singular boundaries (breakpoints at relative distance (j/K)^q).
    """

    base_order: int = 4
    cells_t: int = 48
    cells_r: int = 48
    grading_exponent: float = 3.0
    refinement_levels: int = 1

    def __post_init__(self):
        if self.base_order not in (2, 4):
            raise ValueError("base_order must be 2 (midpoint) or 4 (Gauss-2)")
        if self.cells_t < 4 or self.cells_r < 4:
            raise ValueError("need at least 4 cells per direction")
        if self.grading_exponent < 1.0:
            raise ValueError("grading_exponent must be >= 1")
        if self.refinement_levels < 1:
            raise ValueError("refinement_levels must be >= 1")


@dataclass
class QuadratureResult:
    value: float
    error_estimate: float
    nodes_used: int

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error estimate must be >= 0")


class NonFiniteSample(ArithmeticError):
    """Raised when an integrand evaluates to a non-finite value."""

    def __init__(self, t, r, value):
        super().__init__(f"non-finite integrand sample {value!r} at "
                         f"(t={t!r}, r={r!r})")
        self.location = (t, r)


def _check_finite(vals, T, R):
    bad = ~np.isfinite(vals)
    if np.any(bad):
        idx = np.unravel_index(np.argmax(bad), np.shape(bad))
        T = np.broadcast_to(T, np.shape(R))
        raise NonFiniteSample(T[idx], np.asarray(R)[idx],
                              np.asarray(vals)[idx])


def _breakpoints(cells, q, lo, hi):
    """Relative breakpoints on [0,1], graded toward flagged ends."""
    if lo and hi:
        m = cells // 2
        left = 0.5 * (np.arange(m + 1) / m) ** q
        right = 1.0 - 0.5 * (np.arange(cells - m, -1, -1) / (cells - m)) ** q
        return np.concatenate([left, right[1:]])
    u = np.arange(cells + 1) / cells
    if lo:
        return u ** q
    if hi:
        return 1.0 - u[::-1] ** q
    return u


def _cell_nodes(bp, order):
    """Nodes and weights for composite rule on breakpoints bp (ascending)."""
    h = np.diff(bp)
    mid = 0.5 * (bp[:-1] + bp[1:])
    if order == 2:
        return mid, h
    off = h * _GAUSS2
    nodes = np.empty(2 * h.size)
    weights = np.empty(2 * h.size)
    nodes[0::2] = mid - off
    nodes[1::2] = mid + off
    weights[0::2] = 0.5 * h
    weights[1::2] = 0.5 * h
    return nodes, weights


def _edge_distances(length, cells, q, order):
    """Nodes as distances from a singular edge, d in (0, length].

    Breakpoints d_j = length (j/K)^q keep sub-eps distances exactly
    representable, which absolute coordinates cannot.
    """
    bp = length * (np.arange(cells + 1) / cells) ** q
    return _cell_nodes(bp, order)


def _interval_nodes(a, b, cells, order, q=1.0, singular_lo=False, singular_hi=False):
    rel, w = _cell_nodes(_breakpoints(cells, q, singular_lo, singular_hi), order)
    return a + (b - a) * rel, (b - a) * w


def _refine(level, q: QuadratureSpec):
    """Evaluate `level(factor)` on 1, 2, ..., 2^refinement_levels times the
    base resolution; the value is the finest, the error estimate the jump
    from the previous level. A level returning a tuple of totals (one per
    integrand output) gives a tuple of results."""
    values, nodes = [], 0
    for exponent in range(q.refinement_levels + 1):
        val, cnt = level(2 ** exponent)
        values.append(val)
        nodes += cnt
    if isinstance(values[-1], tuple):
        return tuple(QuadratureResult(v, abs(v - w), nodes)
                     for v, w in zip(values[-1], values[-2]))
    return QuadratureResult(values[-1], abs(values[-1] - values[-2]), nodes)


def _weighted_sums(integrand, T, R, meas):
    """sum(meas * vals) for the integrand's values on the nodes (T, R).

    On a 2-D mesh T is a (rows, 1) column, one time per row of R; on a 1-D
    slice it is the one-element array of the level. The integrand is called
    on blocks of whole rows of about BLOCK_NODES nodes, so its temporaries
    stay small; the values go into full-size buffers that are checked and
    summed whole, each multiplied by `meas` in place. An integrand returning
    a tuple of arrays gives a tuple of sums, one per array."""
    step = max(1, BLOCK_NODES // (R[0].size if R.ndim > 1 else 1))
    bufs = None
    for lo in range(0, len(R), step):
        out = integrand(T[lo:lo + step] if R.ndim > 1 else T,
                        R[lo:lo + step])
        several = isinstance(out, tuple)
        outs = out if several else (out,)
        if bufs is None:
            bufs = [np.empty(R.shape) for _ in outs]
        for buf, vals in zip(bufs, outs):
            buf[lo:lo + step] = vals
    sums = []
    for vals in bufs:
        _check_finite(vals, T, R)
        sums.append(float(np.sum(np.multiply(meas, vals, out=vals))))
    return tuple(sums) if several else sums[0]


# --------------------------------------------------------------------------
# Bulk integration
# --------------------------------------------------------------------------

def integrate_slice(t, r_lo, r_hi, integrand, q: QuadratureSpec, n: int,
                    singular_lo=False, singular_hi=False) -> QuadratureResult:
    """Spatial integral at fixed time over the radial shell (r_lo, r_hi)."""
    if r_hi <= r_lo:
        return QuadratureResult(0.0, 0.0, 0)
    om = sphere_area(n)
    # an array, not a scalar: numpy's scalar power differs from its array
    # power in the last bit for a few percent of inputs
    level_t = np.array([t], dtype=float)

    def level(factor):
        rn, rw = _interval_nodes(r_lo, r_hi, factor * q.cells_r, q.base_order,
                                 q.grading_exponent, singular_lo, singular_hi)
        meas = rw * om * rn ** (n - 1)
        return _weighted_sums(integrand, level_t, rn, meas), rn.size

    return _refine(level, q)


def integrate_profile(t_window, r_inner, r_outer, integrand,
                      q: QuadratureSpec, n: int,
                      singular_r=(False, False),
                      singular_t=(False, False)) -> QuadratureResult:
    """Tensor composite quadrature over {t_lo < t < t_hi, r_inner(t) < r <
    r_outer(t)} with the radial spacetime measure; `singular_r`/`singular_t`
    flag edges toward which the mesh grades."""
    om = sphere_area(n)
    order = q.base_order
    grade = q.grading_exponent

    def level(factor):
        tn, tws = _interval_nodes(t_window[0], t_window[1],
                                  factor * q.cells_t, order, grade,
                                  singular_t[0], singular_t[1])
        rlo = np.asarray(r_inner(tn), dtype=float)
        rhi = np.asarray(r_outer(tn), dtype=float)
        rel, rw_rel = _cell_nodes(_breakpoints(factor * q.cells_r, grade,
                                               singular_r[0], singular_r[1]),
                                  order)
        span = (rhi - rlo)[:, None]
        RR = rlo[:, None] + span * rel[None, :]
        meas = tws[:, None] * span * rw_rel[None, :]
        meas *= om
        meas *= RR ** (n - 1)
        return _weighted_sums(integrand, tn[:, None], RR, meas), RR.size

    return _refine(level, q)


def integrate_bulk(region, integrand, q: QuadratureSpec, n: int) -> QuadratureResult:
    """Spacetime integral of integrand(t, r) over a bulk region, with the
    radial measure area(S^{n-1}) r^{n-1} dr dt.

    Annuli are fixed-time sets and reduce to a spatial slice integral.
    """
    if isinstance(region, AnnulusSpec):
        at = abs(region.t)
        return integrate_slice(region.t, region.sigma0 * at, region.sigma1 * at,
                               integrand, q, n)
    if isinstance(region, BoxSpec):
        return integrate_profile(
            (region.t0, region.t1),
            lambda t: np.full_like(t, region.r0),
            lambda t: np.full_like(t, region.r1),
            integrand, q, n)
    if isinstance(region, SlabSpec):
        lo, hi = region.time_window()
        return integrate_profile(
            (lo, hi),
            lambda t: np.zeros_like(t),
            lambda t: region.sigma * np.abs(t),
            integrand, q, n)
    if isinstance(region, ConeSegmentSpec):
        return integrate_profile(
            (region.t_lo, region.t_hi),
            lambda t: np.zeros_like(t),
            lambda t: region.sigma * t,
            integrand, q, n)
    if isinstance(region, ExteriorRegionSpec):
        lo, hi = region.time_window()
        # inner edge sits on {f = eps}: the weight vanishes there when
        # eps = 0, so grade in r toward it and in t toward the corners
        # where the r-interval degenerates.
        return integrate_profile(
            (lo, hi),
            region.inner_radius,
            lambda t: region.sigma * t,
            integrand, q, n,
            singular_r=(region.eps == 0.0, False),
            singular_t=(True, True))
    raise TypeError(f"unsupported bulk region {type(region).__name__}")


# --------------------------------------------------------------------------
# Surface integration
# --------------------------------------------------------------------------

def _cone_singular_half(piece: ConePiece, integrand, cells, order, grade, n,
                        from_hi, length):
    """Half of a cone piece integrated in the edge-distance coordinate.

    Valid only when the flagged end coincides with a root of the weight on
    the cone, f = (1-s^2)(t_+ - t)(t - t_-)/4; the edge factor is then the
    distance itself, exact down to subnormal scales.
    """
    om = sphere_area(n)
    ts = piece.weight.t_star
    s = piece.slope
    t_minus = ts / (1.0 + s)
    t_plus = ts / (1.0 - s)
    edge = piece.t_hi if from_hi else piece.t_lo
    root = t_plus if from_hi else t_minus
    if abs(edge - root) > 1e-12 * max(1.0, abs(root)):
        raise ValueError("singular cone edge does not sit on the weight's zero set")
    d, w = _edge_distances(length, cells, grade, order)
    if from_hi:
        t = piece.t_hi - d
        other = t - t_minus
    else:
        t = piece.t_lo + d
        other = t_plus - t
    f = 0.25 * (1.0 - s * s) * d * other
    r = piece.radius(t)
    dens = om * math.sqrt(1.0 - s * s) * r ** (n - 1)
    vals = np.asarray(integrand(t, r, f), dtype=float)
    _check_finite(vals, t, r)
    return float(np.sum(w * dens * vals)), d.size


def integrate_surface(piece, integrand, q: QuadratureSpec, n: int) -> QuadratureResult:
    """Induced-measure integral over one hypersurface piece.

    Pieces with a weight attached (see ConePiece/LevelSetPiece) call
    integrand(t, r, f); plain pieces call integrand(t, r).
    """
    om = sphere_area(n)
    order, grade = q.base_order, q.grading_exponent

    if isinstance(piece, TimeSlicePiece):
        return integrate_slice(piece.level, piece.r_lo, piece.r_hi,
                               integrand, q, n)

    if isinstance(piece, CylinderPiece):
        dens = om * piece.radius ** (n - 1)

        def level(factor):
            tn, tw = _interval_nodes(piece.t_lo, piece.t_hi,
                                     factor * q.cells_t, order)
            rr = np.full_like(tn, piece.radius)
            vals = np.asarray(integrand(tn, rr), dtype=float)
            _check_finite(vals, tn, rr)
            return float(np.sum(tw * dens * vals)), tn.size

        return _refine(level, q)

    if isinstance(piece, ConePiece):
        if piece.weight is not None and (piece.singular_lo or piece.singular_hi):
            tm = 0.5 * (piece.t_lo + piece.t_hi)

            def level(factor):
                cells = factor * q.cells_t
                total, cnt = 0.0, 0
                if piece.singular_lo:
                    v, c = _cone_singular_half(piece, integrand, cells, order,
                                               grade, n, False, tm - piece.t_lo)
                    total += v
                    cnt += c
                if piece.singular_hi:
                    v, c = _cone_singular_half(piece, integrand, cells, order,
                                               grade, n, True, piece.t_hi - tm)
                    total += v
                    cnt += c
                return total, cnt

            return _refine(level, q)

        def level(factor):
            tn, tw = _interval_nodes(piece.t_lo, piece.t_hi,
                                     factor * q.cells_t, order)
            rr = piece.radius(tn)
            dens = om * math.sqrt(1.0 - piece.slope ** 2) * rr ** (n - 1)
            if piece.weight is not None:
                vals = integrand(tn, rr, piece.weight_on_piece(tn))
            else:
                vals = integrand(tn, rr)
            vals = np.asarray(vals, dtype=float)
            _check_finite(vals, tn, rr)
            return float(np.sum(tw * dens * vals)), tn.size

        return _refine(level, q)

    if isinstance(piece, LevelSetPiece):
        eps = piece.eps

        def level(factor):
            tn, tw = _interval_nodes(piece.t_lo, piece.t_hi,
                                     factor * q.cells_t, order,
                                     grade, True, True)
            rr = piece.radius(tn)
            dens = om * 2.0 * math.sqrt(eps) * rr ** (n - 2)
            vals = np.asarray(integrand(tn, rr, np.full_like(tn, eps)),
                              dtype=float)
            _check_finite(vals, tn, rr)
            return float(np.sum(tw * dens * vals)), tn.size

        return _refine(level, q)

    raise TypeError(f"unsupported surface piece {type(piece).__name__}")


# --------------------------------------------------------------------------
# Inner flux limit probe
# --------------------------------------------------------------------------

def vanishing_flux_probe(exterior: ExteriorRegionSpec, field, a, eps_sequence,
                         p=2.0, potential=None, q: QuadratureSpec | None = None,
                         n: int | None = None):
    """Flux of the Carleman current through the level sets {f = eps}.

    Returns one value per eps; for C^2 fields the sequence tends to 0 as the
    level approaches the null boundary, which callers assert.
    """
    from .carleman import CarlemanParams, flux_covector  # carleman builds on this module
    from .fields import PotentialSpec

    if q is None:
        q = QuadratureSpec()
    if n is None:
        n = getattr(field, "dim", 3)
    if potential is None:
        potential = PotentialSpec.constant(1.0)
    if sorted(eps_sequence, reverse=True) != list(eps_sequence):
        raise ValueError("eps sequence must be decreasing")
    params = CarlemanParams(a=a, p=p, n=n, potential=potential,
                            shift=exterior.weight)
    fluxes = []
    for eps in eps_sequence:
        sub = ExteriorRegionSpec(exterior.sigma, exterior.t_star,
                                 exterior.ray, eps=eps)
        t_lo, t_hi = sub.time_window()
        piece = LevelSetPiece(exterior.weight, eps, t_lo, t_hi, outward_sign=-1)
        ts = exterior.t_star

        def flux_dot_normal(t, r, f):
            Pt, Pr = flux_covector(params, field, t, r, fval=f)
            scale = -1.0 / np.sqrt(f)
            return Pt * scale * 0.5 * (t - ts) + Pr * scale * 0.5 * r

        fluxes.append(integrate_surface(piece, flux_dot_normal, q, n).value)
    return fluxes
