"""Deterministic composite quadrature over radial bulk regions and
hypersurface pieces, with graded meshes toward flagged singular edges.

Regions and pieces follow one protocol each (see geometry). A bulk region
gives its time window, its inner and outer radius as functions of t and
the edges to grade toward; `integrate_bulk` is one `integrate_profile`
call on those. A boundary piece gives, for each refinement level, its
nodes as (t, r, measure, f) sets built from the level's node rules
(`_Mesh`), and `integrate_surface` sums measure * integrand over them.

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

from .geometry import sphere_area

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "integrate_bulk",
    "integrate_slice",
    "integrate_profile",
    "integrate_surface",
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


@dataclass(frozen=True)
class _Mesh:
    """Node rules of one refinement level, for a piece's `node_sets`:
    composite nodes and weights on an interval with `factor` times the
    spec's radial or time cells (`temporal` graded toward both ends on
    request), and distances from a singular edge."""

    q: QuadratureSpec
    factor: int

    def radial(self, a, b):
        return _interval_nodes(a, b, self.factor * self.q.cells_r,
                               self.q.base_order)

    def temporal(self, a, b, graded=False):
        return _interval_nodes(a, b, self.factor * self.q.cells_t,
                               self.q.base_order, self.q.grading_exponent,
                               graded, graded)

    def from_edge(self, length):
        return _edge_distances(length, self.factor * self.q.cells_t,
                               self.q.grading_exponent, self.q.base_order)


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

def integrate_slice(t, r_lo, r_hi, integrand, q: QuadratureSpec,
                    n: int) -> QuadratureResult:
    """Spatial integral at fixed time over the radial shell (r_lo, r_hi)."""
    if r_hi <= r_lo:
        return QuadratureResult(0.0, 0.0, 0)
    om = sphere_area(n)
    # an array, not a scalar: numpy's scalar power differs from its array
    # power in the last bit for a few percent of inputs
    level_t = np.array([t], dtype=float)

    def level(factor):
        rn, rw = _interval_nodes(r_lo, r_hi, factor * q.cells_r, q.base_order)
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
    """Spacetime integral of integrand(t, r) over a bulk region (see
    geometry.BulkRegion), with the radial measure area(S^{n-1}) r^{n-1} dr dt."""
    return integrate_profile(region.time_window(), region.r_inner,
                             region.r_outer, integrand, q, n,
                             singular_r=region.singular_r,
                             singular_t=region.singular_t)


# --------------------------------------------------------------------------
# Surface integration
# --------------------------------------------------------------------------

def integrate_surface(piece, integrand, q: QuadratureSpec, n: int) -> QuadratureResult:
    """Induced-measure integral over one hypersurface piece (see
    geometry.SurfacePiece).

    Node sets that carry a weight value f call integrand(t, r, f); the
    others call integrand(t, r).
    """

    def level(factor):
        total, count = -0.0, 0  # -0.0 + x is x, a zero's sign included
        for t, r, meas, f in piece.node_sets(_Mesh(q, factor), n):
            vals = integrand(t, r) if f is None else integrand(t, r, f)
            vals = np.asarray(vals, dtype=float)
            _check_finite(vals, t, r)
            total += float(np.sum(meas * vals))
            count += r.size
        return total, count

    return _refine(level, q)
