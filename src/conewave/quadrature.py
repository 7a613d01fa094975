"""Deterministic composite quadrature over radial bulk regions and
hypersurface pieces, with graded meshes toward flagged singular edges.

Regions and pieces follow one protocol each (see geometry). A bulk region
gives its time window, its inner and outer radius as functions of t and
the edges to grade toward, which `integrate_bulk` meshes. A boundary piece
gives, for each refinement level, its nodes as (t, r, measure, f) sets
built from the level's node rules (`_Mesh`), and `integrate_surfaces` sums
measure * integrand over a family of pieces. A lone piece, or a lone
fixed-time slice of `integrate_slices`, is a one-element family.

Integrands are vectorized callables f(t, r); one returning a tuple of
arrays has each of them integrated on the same nodes and gives a tuple of
results. On a mesh (bulk, and `integrate_slices`' family of fixed-time
slices, one mesh row per slice) t comes unbroadcast as a (rows, 1) column,
so t-only subexpressions cost one evaluation per row, not per node.
Surface node sets are evaluated per group, all pieces and levels at once,
with t as long as r; the sets that carry a weight (cone pieces of shifted
exterior regions, level sets) call f(t, r, w) with w the weight computed
in product form: near its zero set the only form with any relative
accuracy, so singular integrands must use it rather than recomputing
r^2 - (t - t*)^2 themselves.

Error control is a one-level Richardson difference (cells doubled), never
adaptive subdivision, so repeated runs are bit identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "sphere_area",
    "ball_volume",
    "QuadratureSpec",
    "QuadratureResult",
    "integrate_bulk",
    "integrate_slices",
    "integrate_surfaces",
]

_GAUSS2 = 0.5 / math.sqrt(3.0)
BLOCK_NODES = 8192  # nodes per integrand call in the slice and bulk loops


def sphere_area(n: int) -> float:
    """Area of the unit (n-1)-sphere; for n = 1 this is 2 (two points)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n."""
    return sphere_area(n) / n


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite two-point Gauss rule parameters: cells per direction at
    the coarse level (the fine level doubles them), and how fast cell edges
    accumulate toward flagged singular boundaries (breakpoints at relative
    distance (j/K)^q, q = grading_exponent).
    """

    cells_t: int = 48
    cells_r: int = 48
    grading_exponent: float = 3.0

    def __post_init__(self):
        if self.cells_t < 4 or self.cells_r < 4:
            raise ValueError("need at least 4 cells per direction")
        if self.grading_exponent < 1.0:
            raise ValueError("grading_exponent must be >= 1")


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
        t, r, value = float(t), float(r), float(value)
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
    return vals


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


def _cell_nodes(bp):
    """Nodes and weights for the composite Gauss-2 rule on breakpoints bp."""
    h = np.diff(bp)
    mid = 0.5 * (bp[:-1] + bp[1:])
    off = h * _GAUSS2
    nodes = np.empty(2 * h.size)
    weights = np.empty(2 * h.size)
    nodes[0::2] = mid - off
    nodes[1::2] = mid + off
    weights[0::2] = 0.5 * h
    weights[1::2] = 0.5 * h
    return nodes, weights


def _edge_distances(length, cells, q):
    """Nodes as distances from a singular edge, d in (0, length].

    Breakpoints d_j = length (j/K)^q keep sub-eps distances exactly
    representable, which absolute coordinates cannot.
    """
    bp = length * (np.arange(cells + 1) / cells) ** q
    return _cell_nodes(bp)


@lru_cache(maxsize=256)
def _unit_rule(cells, q=1.0, singular_lo=False, singular_hi=False):
    """Composite nodes and weights on [0, 1] (`_breakpoints`, then
    `_cell_nodes`), built once per (cells, grading, flags) and shared
    read-only by every caller."""
    rule = _cell_nodes(_breakpoints(cells, q, singular_lo, singular_hi))
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _interval_nodes(a, b, cells, q=1.0, singular_lo=False, singular_hi=False):
    rel, w = _unit_rule(cells, q, singular_lo, singular_hi)
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
        return _interval_nodes(a, b, self.factor * self.q.cells_r)

    def temporal(self, a, b, graded=False):
        return _interval_nodes(a, b, self.factor * self.q.cells_t,
                               self.q.grading_exponent, graded, graded)

    def from_edge(self, length):
        return _edge_distances(length, self.factor * self.q.cells_t,
                               self.q.grading_exponent)


def _refine(level):
    """Evaluate `level(factor)` at 1 and 2 times the base resolution; the
    value is the fine one, the error estimate the jump from the coarse one.
    A level returning a tuple of totals (one per integrand output, or one
    per slice) gives a tuple of results."""
    (coarse, n_coarse), (fine, n_fine) = level(1), level(2)
    nodes = n_coarse + n_fine

    def result(fine, coarse):
        if isinstance(fine, tuple):
            return tuple(map(result, fine, coarse))
        return QuadratureResult(float(fine), float(abs(fine - coarse)), nodes)

    return result(fine, coarse)


def _weighted_sums(integrand, T, mesh, cols, axis=None):
    """sum(meas * vals) for the integrand's values on a mesh of len(T) rows
    of `cols` nodes, over the whole mesh, or per row with `axis=1`.

    T is a (rows, 1) column, one time per row; `mesh(rows)` gives the radii
    R and the measure of a slice of rows. The mesh and the integrand are
    evaluated on blocks of whole rows of about BLOCK_NODES nodes, so their
    temporaries stay small, and meas * vals goes into one full-size buffer
    per output that is summed once: the sums have the bits of a whole-mesh
    pass whatever the block size. Non-finite values are reported as a
    whole-mesh pass meets them: every block evaluated, then the outputs in
    order, each in row order. An integrand returning a tuple of arrays gives
    a tuple of sums, one per array."""
    step = max(1, BLOCK_NODES // cols)
    bufs = bad = None
    # non-finite values are reported below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(0, len(T), step):
            rows = slice(lo, lo + step)
            R, meas = mesh(rows)
            out = integrand(T[rows], R)
            several = isinstance(out, tuple)
            outs = out if several else (out,)
            if bufs is None:
                bufs = [np.empty((len(T), cols)) for _ in outs]
                bad = [None] * len(outs)
            for k, (buf, vals) in enumerate(zip(bufs, outs)):
                np.multiply(meas, vals, out=buf[rows])
                if bad[k] is None and not np.isfinite(vals).all():
                    bad[k] = (np.broadcast_to(vals, R.shape), T[rows], R)
    for args in bad:
        if args is not None:
            _check_finite(*args)
    sums = [np.sum(buf, axis=axis) for buf in bufs]
    return tuple(sums) if several else sums[0]


# --------------------------------------------------------------------------
# Bulk integration
# --------------------------------------------------------------------------

def integrate_slices(times, r_lo, r_hi, integrand, q: QuadratureSpec,
                     n: int):
    """Spatial integrals over the radial shells (r_lo[i], r_hi[i]) at the
    fixed times[i], one per slice with the bits of that slice alone: each
    level is one (slices, nodes) mesh, t a (slices, 1) array even for one
    slice (numpy's scalar power can differ in the last bit). A zero-width
    shell gives an exact zero, a reversed one an error; on a non-finite
    sample the slices rerun one by one, so the error names the sample a
    slice-by-slice pass meets first."""
    T = np.asarray(times, dtype=float).reshape(-1, 1)
    lo, hi = (np.broadcast_to(np.asarray(b, dtype=float), len(T))
              for b in (r_lo, r_hi))
    if np.any(hi < lo):
        i = np.argmax(hi < lo)
        raise ValueError(f"slice bounds reversed: r_hi = {float(hi[i])!r} "
                         f"< r_lo = {float(lo[i])!r}")
    live = np.flatnonzero(hi > lo)
    base, span, om = lo[live, None], (hi - lo)[live, None], sphere_area(n)

    def level(factor):
        rel, w = _Mesh(q, factor).radial(0.0, 1.0)

        def mesh(rows):
            R = base[rows] + span[rows] * rel
            return R, span[rows] * w * om * R ** (n - 1)

        sums = _weighted_sums(integrand, T[live], mesh, rel.size, axis=1)
        return tuple(zip(*sums) if isinstance(sums, tuple) else sums), rel.size

    try:
        results = iter(_refine(level) if live.size else ())
    except NonFiniteSample:
        for i in live if live.size > 1 else ():
            integrate_slices(T[i], lo[i], hi[i], integrand, q, n)
        raise
    return [next(results) if b > a else QuadratureResult(0.0, 0.0, 0)
            for a, b in zip(lo, hi)]


def integrate_bulk(region, integrand, q: QuadratureSpec, n: int) -> QuadratureResult:
    """Spacetime integral of integrand(t, r) over a bulk region (see
    geometry.BulkRegion), with the radial measure area(S^{n-1}) r^{n-1} dr dt:
    a tensor composite rule over {t_lo < t < t_hi, r_inner(t) < r <
    r_outer(t)}, graded toward the region's `singular_r`/`singular_t` edges."""
    om = sphere_area(n)
    grade = q.grading_exponent
    t_lo, t_hi = region.time_window()

    def level(factor):
        tn, tws = _interval_nodes(t_lo, t_hi, factor * q.cells_t, grade,
                                  *region.singular_t)
        rlo = np.asarray(region.r_inner(tn), dtype=float)[:, None]
        rhi = np.asarray(region.r_outer(tn), dtype=float)[:, None]
        rel, rw_rel = _unit_rule(factor * q.cells_r, grade, *region.singular_r)
        span = rhi - rlo
        wspan = tws[:, None] * span

        def mesh(rows):
            R = rlo[rows] + span[rows] * rel
            meas = wspan[rows] * rw_rel
            meas *= om
            meas *= R ** (n - 1)
            return R, meas

        return (_weighted_sums(integrand, tn[:, None], mesh, rel.size),
                tn.size * rel.size)

    return _refine(level)


# --------------------------------------------------------------------------
# Surface integration
# --------------------------------------------------------------------------

def integrate_surfaces(pieces, integrand, q: QuadratureSpec, n: int,
                       contract=None):
    """Induced-measure integrals over hypersurface pieces (see
    geometry.SurfacePiece), one result per piece, from one integrand call
    per group of node sets of all pieces and levels: those carrying a
    weight f as integrand(t, r, f), the others as integrand(t, r).
    `contract(piece, values, t, r, f)`, if given, turns a set's share into
    its integrand values (P . N, say). Each set is checked and summed alone
    and a piece adds its sets in order from -0.0 (a one-set sum keeps its
    sign bit), so the bits are those of a piece integrated set by set."""
    sets = [(j, factor, *s) for j, piece in enumerate(pieces)
            for factor in (1, 2)
            for s in piece.node_sets(_Mesh(q, factor), n)]
    shares, totals, several = [None] * len(sets), {}, False
    for weighted in (False, True):
        group = [i for i, s in enumerate(sets) if (s[5] is None) != weighted]
        if group:
            # non-finite values are reported by _check_finite below
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                out = integrand(*(np.concatenate([sets[i][k] for i in group])
                                  for k in (2, 3, 5)[:2 + weighted]))
            ends = np.cumsum([0] + [sets[i][3].size for i in group])
            for i, lo, hi in zip(group, ends, ends[1:]):
                shares[i] = (tuple(v[lo:hi] for v in out)
                             if isinstance(out, tuple) else out[lo:hi])
    for (j, factor, t, r, meas, f), vals in zip(sets, shares):
        if contract is not None:
            vals = contract(pieces[j], vals, t, r, f)
        several = isinstance(vals, tuple)
        parts = [float(np.sum(meas * _check_finite(np.asarray(v, float), t, r)))
                 for v in (vals if several else (vals,))]
        sums, count = totals.get((j, factor), ([-0.0] * len(parts), 0))
        totals[j, factor] = [a + b for a, b in zip(sums, parts)], count + r.size
    results = [_refine(lambda factor, j=j: (tuple(totals[j, factor][0]),
                                            totals[j, factor][1]))
               for j in range(len(pieces))]
    return results if several else [res[0] for res in results]

