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

A mesh is evaluated on blocks of whole rows of about BLOCK_NODES nodes,
twice as many rows after a block whose every output held one value per
row (a t-only integrand, or DiscreteField's read of a run's ODE core).
Each block is reduced to per-row sums of measure * integrand while it is
in cache and released before the next integrand call, so no full-mesh
buffer is kept and full-shape arrays span at most 2 BLOCK_NODES nodes. A
row's sum is numpy's pairwise sum along the row, a slice's result is its
row's sum, and a bulk total is the pairwise sum of the row sums, so no sum
depends on the blocks. A non-finite sample makes its row's sum
non-finite; only then is the mesh evaluated again on the same blocks and
tested, and the error names the first non-finite sample of the first
output that has one, in row order.
Surface node sets are summed one set at a time.

A refinement level is its cell count, one count for t and r alike: the
spec's `cells`, then twice that. Error control is the jump between the two
levels, never adaptive subdivision, so repeated runs are bit identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import LevelRangeError, _require

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
# non-finite values are reported by the finiteness tests, not as warnings
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")


def sphere_area(n: int) -> float:
    """Area of the unit (n-1)-sphere; for n = 1 this is 2 (two points)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n."""
    return sphere_area(n) / n


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite two-point Gauss rule parameters: `cells`, the coarse
    level's cell count in t and in r (the fine level doubles it), and how
    fast cell edges accumulate toward flagged singular boundaries
    (breakpoints at relative distance (j/K)^q, q = grading_exponent), which
    an edge weight like (1 - y^2)^{a-1} at small a needs well above 3."""

    cells: int = 48
    grading_exponent: float = 3.0

    def __post_init__(self):
        _require(self.cells >= 4, "cells", self.cells, "at least 4")
        _require(self.grading_exponent >= 1.0, "grading_exponent",
                 self.grading_exponent, "at least 1")


@dataclass
class QuadratureResult:
    value: float
    error_estimate: float
    nodes_used: int

    def __post_init__(self):
        if not self.error_estimate >= 0:  # NaN too
            raise ValueError(f"error estimate must be >= 0, got "
                             f"{self.error_estimate!r}")


class NonFiniteSample(ArithmeticError):
    """Raised when an integrand evaluates to a non-finite value, or when a
    total is not finite and a quadrature weight is not (`what`)."""

    def __init__(self, t, r, value, what="integrand sample"):
        t, r, value = float(t), float(r), float(value)
        super().__init__(f"non-finite {what} {value!r} at "
                         f"(t={t!r}, r={r!r})")
        self.location = (t, r)


def _check_finite(vals, T, R, what="integrand sample"):
    bad = ~np.isfinite(vals)
    if np.any(bad):
        idx = np.unravel_index(np.argmax(bad), np.shape(bad))
        T = np.broadcast_to(T, np.shape(R))
        raise NonFiniteSample(T[idx], np.asarray(R)[idx],
                              np.asarray(vals)[idx], what)
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
    composite nodes and weights on an interval with the level's `cells`
    (`temporal` graded toward both ends on request), and distances from a
    singular edge."""

    cells: int
    grading: float

    def radial(self, a, b):
        return _interval_nodes(a, b, self.cells)

    def temporal(self, a, b, graded=False):
        return _interval_nodes(a, b, self.cells, self.grading, graded, graded)

    def from_edge(self, length):
        return _edge_distances(length, self.cells, self.grading)


def _refine(level, q):
    """Evaluate `level(cells)` at q.cells and at twice that; the value is
    the fine one, the error estimate the jump from the coarse one, inf when
    both are infinite. A level returning a tuple of totals (one per
    integrand output, or one per slice) gives a tuple of results."""
    (coarse, n_coarse), (fine, n_fine) = level(q.cells), level(2 * q.cells)
    nodes = n_coarse + n_fine

    def result(fine, coarse):
        if isinstance(fine, tuple):
            return tuple(map(result, fine, coarse))
        with np.errstate(invalid="ignore"):  # inf - inf
            jump = abs(fine - coarse)
        return QuadratureResult(float(fine), math.inf if np.isinf(fine)
                                and np.isinf(coarse) else float(jump), nodes)

    return result(fine, coarse)


def _weighted_sums(integrand, T, lo, span, rule, n, wspan=None, axis=None):
    """sum(meas * vals) for the integrand's values on a radial-row mesh,
    over the whole mesh, or per row with `axis=1`.

    Row i sits at the time T[i] (T a (rows, 1) column) and carries the unit
    rule (rel, w) mapped onto (lo[i], lo[i] + span[i]), with the measure
    wspan[i] w area(S^{n-1}) R^{n-1} (`wspan` defaults to `span`; a bulk
    region folds its time weights into it). The mesh and the integrand are
    evaluated on blocks of whole rows, each reduced to its rows' sums while
    it is in cache: a row's sum is numpy's pairwise sum of meas * vals
    along the row, and a whole-mesh total is the pairwise sum of the row
    sums. So the sums do not depend on the blocks, and no full-mesh buffer
    is kept. A block has BLOCK_NODES // (nodes per row) rows, twice that
    after a block whose every output had at most one value per row (size
    <= its rows). Its arrays are released before the next integrand call,
    so full-shape arrays span at most 2 BLOCK_NODES nodes, reached only
    when a block that follows a row-valued one comes back full-shape.

    A non-finite value makes its row's sum non-finite. Only then are the
    recorded blocks evaluated again and tested, and the error names the
    sample a whole-mesh pass meets first: the outputs in order, each in row
    order; with every sample finite, it names the first node whose weight
    is not (inf * 0 is nan). Finite values and weights whose weighted sum
    overflows give inf, with no error and no warning. An integrand
    returning a tuple of arrays gives a tuple of sums, one per array."""
    rel, w = rule
    wspan = span if wspan is None else wspan
    om = sphere_area(n)
    step = max(1, BLOCK_NODES // rel.size)
    blocks, start, size = [], 0, step

    def evaluate(rows):
        R = lo[rows] + span[rows] * rel
        out = integrand(T[rows], R)
        return R, out, out if isinstance(out, tuple) else (out,)

    def measure(rows, R):
        meas = wspan[rows] * w
        meas *= om
        # the bits of meas *= R ** (n - 1), without a pass for R ** 0
        # or a copy for R ** 1
        if n == 2:
            meas *= R
        elif n > 2:
            meas *= R ** (n - 1)
        return meas

    with np.errstate(**_QUIET):
        row_sums = None
        while start < len(T):
            rows = slice(start, start + size)
            blocks.append(rows)
            start += size
            R, out, outs = evaluate(rows)
            meas = measure(rows, R)
            if row_sums is None:
                row_sums = np.empty((len(outs), len(T)))
                several = isinstance(out, tuple)
            for sums, vals in zip(row_sums, outs):
                np.sum(np.multiply(meas, vals), axis=1, out=sums[rows])
            row_valued = all(np.size(v) <= len(R) for v in outs)
            size = 2 * step if row_valued else step
            del R, out, outs, meas, vals  # before the next integrand call
        if not np.isfinite(row_sums).all():
            for k in range(len(row_sums)):
                for rows in blocks:
                    R, _, outs = evaluate(rows)
                    _check_finite(np.broadcast_to(outs[k], R.shape), T[rows],
                                  R)
                    del R, outs
            for rows in blocks:
                R = lo[rows] + span[rows] * rel
                _check_finite(measure(rows, R), T[rows], R, "quadrature weight")
        sums = row_sums if axis == 1 else np.sum(row_sums, axis=1)
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
    shell gives an exact zero, a reversed one or a NaN bound an error; on a
    non-finite sample, or a point the integrand's field refuses
    (LevelRangeError), the slices rerun one by one, so the error names the
    point a slice-by-slice pass meets first."""
    T = np.asarray(times, dtype=float).reshape(-1, 1)
    lo, hi = (np.broadcast_to(np.asarray(b, dtype=float), len(T))
              for b in (r_lo, r_hi))
    ordered = lo <= hi  # NaN is neither
    if not ordered.all():
        i = np.argmin(ordered)
        a, b = float(lo[i]), float(hi[i])
        for name, bound in (("r_lo", a), ("r_hi", b)):
            if math.isnan(bound):
                raise ValueError(f"slice bound {name} is not a number at "
                                 f"t = {float(T[i, 0])!r}")
        raise ValueError(f"slice bounds reversed: r_hi = {b!r} < r_lo = {a!r}")
    live = np.flatnonzero(hi > lo)
    base, span = lo[live, None], (hi - lo)[live, None]

    def level(cells):
        rule = _unit_rule(cells)
        sums = _weighted_sums(integrand, T[live], base, span, rule, n, axis=1)
        return (tuple(zip(*sums) if isinstance(sums, tuple) else sums),
                rule[0].size)

    try:
        results = iter(_refine(level, q) if live.size else ())
    except (NonFiniteSample, LevelRangeError):
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
    grade = q.grading_exponent
    t_lo, t_hi = region.time_window()

    def level(cells):
        tn, tws = _interval_nodes(t_lo, t_hi, cells, grade, *region.singular_t)
        rlo = np.asarray(region.r_inner(tn), dtype=float)[:, None]
        rhi = np.asarray(region.r_outer(tn), dtype=float)[:, None]
        rule = _unit_rule(cells, grade, *region.singular_r)
        span = rhi - rlo
        with np.errstate(**_QUIET):  # an inf weight is named on a nan total
            wspan = tws[:, None] * span
        return (_weighted_sums(integrand, tn[:, None], rlo, span, rule, n,
                               wspan=wspan), tn.size * rule[0].size)

    return _refine(level, q)


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
    with np.errstate(**_QUIET):  # an inf weight is named on a nan total
        sets = [(j, cells, *s) for j, piece in enumerate(pieces)
                for cells in (q.cells, 2 * q.cells)
                for s in piece.node_sets(_Mesh(cells, q.grading_exponent), n)]
    shares, totals, several = [None] * len(sets), {}, False
    for weighted in (False, True):
        group = [i for i, s in enumerate(sets) if (s[5] is None) != weighted]
        if group:
            with np.errstate(**_QUIET):
                out = integrand(*(np.concatenate([sets[i][k] for i in group])
                                  for k in (2, 3, 5)[:2 + weighted]))
            ends = np.cumsum([0] + [sets[i][3].size for i in group])
            for i, lo, hi in zip(group, ends, ends[1:]):
                shares[i] = (tuple(v[lo:hi] for v in out)
                             if isinstance(out, tuple) else out[lo:hi])
    for (j, cells, t, r, meas, f), vals in zip(sets, shares):
        if contract is not None:
            vals = contract(pieces[j], vals, t, r, f)
        several = isinstance(vals, tuple)
        with np.errstate(**_QUIET):
            parts = [float(np.sum(meas * _check_finite(np.asarray(v, float),
                                                       t, r)))
                     for v in (vals if several else (vals,))]
        if not all(map(math.isfinite, parts)):
            _check_finite(meas, t, r, "quadrature weight")
        sums, count = totals.get((j, cells), ([-0.0] * len(parts), 0))
        totals[j, cells] = [a + b for a, b in zip(sums, parts)], count + r.size
    results = [_refine(lambda cells, j=j: (tuple(totals[j, cells][0]),
                                           totals[j, cells][1]), q)
               for j in range(len(pieces))]
    return results if several else [res[0] for res in results]

