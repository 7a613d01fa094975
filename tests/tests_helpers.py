"""Shared test fixtures: constant and compactly supported C^2 fields."""

import pathlib
from types import SimpleNamespace

import numpy as np

from conewave.exact_solutions import smoothstep
from conewave.fields import DiscreteField, ManufacturedField, write_snapshots


def zero_field():
    def jet(t, r):
        shape = np.broadcast(t, r).shape
        return tuple(np.zeros(shape) for _ in range(4))

    return ManufacturedField(jet)


def constant_field(c):
    def jet(t, r):
        shape = np.broadcast(t, r).shape
        return (np.full(shape, float(c)), np.zeros(shape), np.zeros(shape),
                np.zeros(shape))

    return ManufacturedField(jet)


def box_bulk(t0, t1, r0, r1):
    """The rectangle {t0 < t < t1, r0 < r < r1} from its four pieces,
    without box_region's check that f > 0 on it."""
    from conewave.carleman import _SidedBulk
    from conewave.geometry import UNSHIFTED, CylinderPiece, TimeSlicePiece

    return _SidedBulk((TimeSlicePiece(t0, r0, r1), TimeSlicePiece(t1, r0, r1),
                       CylinderPiece(r0, t0, t1), CylinderPiece(r1, t0, t1)),
                      UNSHIFTED)


def written_region(window, r_inner, r_outer, singular_r=(False, False),
                   singular_t=(False, False)):
    """A bulk region written out (see geometry.BulkRegion): its time window,
    its radii as functions of t and the edges its mesh grades toward."""
    return SimpleNamespace(time_window=lambda: window, r_inner=r_inner,
                           r_outer=r_outer, singular_r=singular_r,
                           singular_t=singular_t)


def write_level(directory, n, p, t, r, phi, phit):
    """One level (t, phi, phit) written through write_snapshots into
    `directory`; returns the file's path."""
    level = DiscreteField([t], r, np.asarray(phi)[None], np.asarray(phit)[None])
    return pathlib.Path(write_snapshots(str(directory), n, p, level)[0])


def closures_jet(phi, phi_t, phi_r, box):
    """A field jet assembled from four per-component closures."""

    def jet(t, r):
        return phi(t, r), phi_t(t, r), phi_r(t, r), box(t, r)

    return jet


# --------------------------------------------------------------------------
# The manufactured jets' arithmetic, one closure per component: each
# recomputes what it needs, in the operation order of the fused jet, so the
# fused jet must reproduce its bits
# --------------------------------------------------------------------------

def _gaussian_t(A, tc, wt):
    """(t factor, phi_t / phi, -phi_tt / phi) of a separable gaussian."""
    kt = 1.0 / wt ** 2

    def factor(t):
        return A * np.exp(0.5 * (-kt * (t - tc)) * (t - tc))

    def ct(t):
        return -kt * (t - tc)

    def bt(t):
        return kt - ct(t) * ct(t)

    return factor, ct, bt


def gaussian_closures(n, A, tc, wt, wr):
    factor, ct, bt = _gaussian_t(A, tc, wt)
    kr = 1.0 / wr ** 2

    def phi(t, r):
        return np.exp(r * r * (-0.5 * kr)) * factor(t)

    def phi_t(t, r):
        return ct(t) * phi(t, r)

    def phi_r(t, r):
        return r * -kr * phi(t, r)

    def box(t, r):
        # g (-phi_tt/phi + r^2/wr^4 - 1/wr^2 - (n-1)/wr^2)
        return (r * r * (kr * kr) + (bt(t) - n * kr)) * phi(t, r)

    return phi, phi_t, phi_r, box


def polynomial_closures(n, A, tc, wt, wr, c1, c2):
    g, g_t, g_r, g_box = gaussian_closures(n, A, tc, wt, wr)

    def q(t):
        return 1.0 + c1 * (t - tc) + c2 * ((t - tc) * (t - tc))

    def dq(t):
        return c1 + 2.0 * c2 * (t - tc)

    def phi(t, r):
        return q(t) * g(t, r)

    def phi_t(t, r):
        return q(t) * g_t(t, r) + dq(t) * g(t, r)

    def phi_r(t, r):
        return q(t) * g_r(t, r)

    def box(t, r):
        return (q(t) * g_box(t, r) - 2.0 * c2 * g(t, r)
                - 2.0 * dq(t) * g_t(t, r))

    return phi, phi_t, phi_r, box


def travel_closures(n, A, v, d, w):
    k = 1.0 / (w * w)

    def s(t, r):
        return r - (v * t + d)

    def phi(t, r):
        return np.exp(s(t, r) * s(t, r) * (-0.5 * k)) * A

    def phi_r(t, r):
        return s(t, r) * -k * phi(t, r)

    def phi_t(t, r):
        return -v * phi_r(t, r)

    def box(t, r):
        sec = (s(t, r) * s(t, r) * (k * k) - k) * phi(t, r)
        return sec * (1.0 - v * v) + (n - 1) / r * phi_r(t, r)

    return phi, phi_t, phi_r, box


def offcenter_closures(n, A, tc, rc, wt, wr):
    factor, ct, bt = _gaussian_t(A, tc, wt)
    kr = 1.0 / wr ** 2

    def phi(t, r):
        return np.exp((r - rc) * (r - rc) * (-0.5 * kr)) * factor(t)

    def phi_t(t, r):
        return ct(t) * phi(t, r)

    def phi_r(t, r):
        return (r - rc) * -kr * phi(t, r)

    def box(t, r):
        x2 = (r - rc) * (r - rc)
        return ((x2 * (kr * kr) + (bt(t) - kr)) * phi(t, r)
                + (n - 1) / r * phi_r(t, r))

    return phi, phi_t, phi_r, box


def _smoothstep_prime(s):
    s = np.clip(s, 0.0, 1.0)
    return 30 * s ** 4 - 60 * s ** 3 + 30 * s ** 2


def compact_bump_field(n, r_lo, r_hi, t_lo, t_hi, amplitude=1.0):
    """C^2 bump supported in [t_lo, t_hi] x [r_lo, r_hi], zero elsewhere."""
    rw = (r_hi - r_lo) / 2.0
    tw = (t_hi - t_lo) / 2.0

    def bump(u):
        return smoothstep(u) * smoothstep(2.0 - u)

    def dbump(u):
        return (_smoothstep_prime(u) * smoothstep(2.0 - u)
                - smoothstep(u) * _smoothstep_prime(2.0 - u))

    ur = lambda r: (np.asarray(r, dtype=float) - r_lo) / rw
    ut = lambda t: (np.asarray(t, dtype=float) - t_lo) / tw

    def phi(t, r):
        return amplitude * bump(ut(t)) * bump(ur(r))

    def phi_t(t, r):
        return amplitude * dbump(ut(t)) * bump(ur(r)) / tw

    def phi_r(t, r):
        return amplitude * bump(ut(t)) * dbump(ur(r)) / rw

    def box(t, r):
        h = 1e-5
        return ((phi_r(t, r + h) - phi_r(t, r - h)) / (2 * h)
                - (phi_t(t + h, r) - phi_t(t - h, r)) / (2 * h)
                + (n - 1) / np.maximum(r, 1e-30) * phi_r(t, r))

    return ManufacturedField(closures_jet(phi, phi_t, phi_r, box))


def truncated_run_levels():
    """The levels of a blow-up run (truncated ODE data, M = 2, w = 0.25,
    J = 1024), with snapshots dense enough for the slab and the annulus
    sup: the run field of the energetics and quadrature tests."""
    from conewave.exact_solutions import InitialDataSpec
    from conewave.solver import SolverConfig, evolve

    times = tuple(-np.geomspace(0.04, 1.0, 49))
    cfg = SolverConfig(n=3, p=2.0, J=1024, R=4.0, t0=-1.0, t_end=0.0,
                       snapshot_times=tuple(sorted(times)),
                       record_energy=False)
    return evolve(cfg, InitialDataSpec.truncated_ode(2.0, 0.25)).levels


# --------------------------------------------------------------------------
# One-at-a-time quadrature: the slice and surface loops that the batched
# integrate_slices and integrate_surfaces must reproduce bit for bit
# --------------------------------------------------------------------------

def slice_by_slice(t, r_lo, r_hi, integrand, q, n):
    """One fixed-time slice on its own: t a one-element array, r the level's
    nodes, each output checked and summed as measure * values."""
    from conewave import quadrature
    from conewave.quadrature import sphere_area

    level_t = np.array([t], dtype=float)

    def level(cells):
        rn, rw = quadrature._interval_nodes(r_lo, r_hi, cells)
        meas = rw * sphere_area(n) * rn ** (n - 1)
        out = integrand(level_t, rn)
        sums = []
        for vals in (out if isinstance(out, tuple) else (out,)):
            vals = np.array(np.broadcast_to(vals, rn.shape), dtype=float)
            quadrature._check_finite(vals, level_t, rn)
            sums.append(float(np.sum(meas * vals)))
        return (tuple(sums) if isinstance(out, tuple) else sums[0]), rn.size

    return quadrature._refine(level, q)


def set_by_set_surface(piece, integrand, q, n):
    """One piece on its own, one integrand call per node set and level."""
    from conewave import quadrature

    def level(cells):
        total, count = -0.0, 0
        mesh = quadrature._Mesh(cells, q.grading_exponent)
        for t, r, meas, f in piece.node_sets(mesh, n):
            vals = integrand(t, r) if f is None else integrand(t, r, f)
            vals = np.asarray(vals, dtype=float)
            quadrature._check_finite(vals, t, r)
            total += float(np.sum(meas * vals))
            count += r.size
        return total, count

    return quadrature._refine(level, q)


def piece_by_piece_fluxes(params, fieldobj, pieces, weight, q):
    """P . N through each piece from its own flux_covector calls."""
    from conewave.carleman import flux_covector

    def flux_of(piece):
        def flux(t, r, f=None):
            Pt, Pr = flux_covector(params, fieldobj, t, r, weight, fval=f)
            return piece.dot_normal(Pt, Pr, t, r, f)
        return flux

    return [set_by_set_surface(piece, flux_of(piece), q, params.n)
            for piece in pieces]


def annulus_sup_by_slice(field, sigma0, sigma1, eta, t_star, p, n, q,
                         sup_levels=None):
    """The annulus sup as one slice integration per level, over
    `sup_levels` (by default 17 equispaced levels, as the library's)."""
    from conewave.energetics import _energy_density

    ats = abs(t_star)
    sgn = 1.0 if t_star > 0 else -1.0
    if sup_levels is None:
        sup_levels = np.linspace(ats / eta, ats * eta, 17)
    integrand = _energy_density(field, ats, p)
    return ats * max(slice_by_slice(sgn * tau, sigma0 * tau, sigma1 * tau,
                                    integrand, q, n).value
                     for tau in np.asarray(sup_levels, dtype=float))


def slices_one_by_one(times, r_lo, r_hi, integrand, q, n):
    """A family of slices as one `slice_by_slice` pass per slice."""
    bounds = np.broadcast_arrays(np.asarray(times, dtype=float), r_lo, r_hi)
    return [slice_by_slice(t, lo, hi, integrand, q, n)
            for t, lo, hi in zip(*bounds)]


def surfaces_one_by_one(pieces, integrand, q, n):
    """A family of pieces as one `set_by_set_surface` pass per piece."""
    return [set_by_set_surface(piece, integrand, q, n) for piece in pieces]


def one_at_a_time(monkeypatch):
    """Route energetics and carleman through the one-at-a-time loops."""
    from conewave import carleman, energetics

    monkeypatch.setattr(energetics, "integrate_slices", slices_one_by_one)
    monkeypatch.setattr(energetics, "integrate_surfaces", surfaces_one_by_one)
    monkeypatch.setattr(carleman, "_piece_fluxes", piece_by_piece_fluxes)
