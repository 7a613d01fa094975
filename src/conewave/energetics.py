"""Weighted functionals over cones, annuli, and slabs, evaluated on solver
output or closed-form fields, plus power-law rate fitting.

Runs are finite, so "limsup as t -> 0" style quantities are operationalized
as extrema over the last sampled decade of |t|; reports carry the sampling
window so the proxy is explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .geometry import ConePiece, ConeSegmentSpec
from .quadrature import (
    QuadratureSpec,
    integrate_bulk,
    integrate_slices,
    integrate_surfaces,
)

__all__ = [
    "RateReport",
    "LocalizedCheck",
    "DecayReport",
    "annulus_quantity",
    "slab_quantity",
    "lateral_quantity",
    "weighted_ball_quantity",
    "localized_estimate_check",
    "decay_partials",
    "rate_fit",
    "energy_profile",
    "scaled_window",
]


def scaled_window(t_star, factor):
    """The times t with |t*|/factor <= |t| <= factor |t*| on t*'s side of
    t = 0, as (lo, hi): the slab's window for factor gamma, and for factor
    eta the window the lateral piece and the annulus sup read at t*."""
    a, b = abs(t_star) / factor, abs(t_star) * factor
    return (a, b) if t_star > 0 else (-b, -a)


def _density(v, v_t, v_r, scale, p=None):
    """|grad phi|^2 [+ |phi|^{p+1}] + scale^{-2} phi^2 from jet values; the
    power term only when `p` is given."""
    total = v_t ** 2 + v_r ** 2
    if p is not None:
        total = total + np.abs(v) ** (p + 1.0)
    return total + v * v / (scale * scale)


def _energy_density(field, scale, p=None, sgn=1.0):
    """Integrand `_density` from one jet per node. `sgn = -1` evaluates the
    field at the reflected time -t."""

    def integrand(tt, rr):
        return _density(*field.jet(tt if sgn == 1.0 else sgn * tt, rr)[:3],
                        scale, p)

    return integrand


def _annulus_time(field, t):
    if not abs(t) > 0:  # NaN too
        raise ValueError("annulus quantity undefined at t = 0")
    field.require_times(t)


def annulus_quantity(field, sigma0, sigma1, times, p, n,
                     q: QuadratureSpec = QuadratureSpec()):
    """|t|^{2-n+4/(p-1)} int_{A(t)} (|grad phi|^2 + |t|^{-2} phi^2) at each
    t of the sequence `times`, integrated as one family of slices
    (integrate_slices), each with the bits of its time alone; a lone time
    is a one-element family. Every time is checked before any is
    integrated.

    Returns a list of (value, quadrature error estimate with the same
    weight), one per time.
    """
    for t in times:
        _annulus_time(field, t)
    at = np.abs(np.asarray(times, dtype=float))
    expo = 2.0 - n + 4.0 / (p - 1.0)

    def integrand(tt, rr):  # each row at its own time's scale |t|
        return _density(*field.jet(tt, rr)[:3], np.abs(tt))

    slices = integrate_slices(times, sigma0 * at, sigma1 * at, integrand, q,
                              n)
    return [(a ** expo * res.value, a ** expo * res.error_estimate)
            for a, res in zip(at.tolist(), slices)]


def _slab(field, sigma, gamma, t_star):
    """The slab {|t*|/gamma < |t| < gamma |t*|} on t*'s side of t = 0,
    inside the cone of aperture sigma, which `field` must cover."""
    if not gamma > 1.0:
        raise ValueError("slab thickness parameter gamma must exceed 1")
    if not abs(t_star) > 0.0:  # NaN too
        raise ValueError("slab center time must be nonzero")
    slab = ConeSegmentSpec(sigma, *scaled_window(t_star, gamma))
    field.require_times(slab.time_window())
    return slab


def slab_quantity(field, sigma, gamma, t_star, p, n,
                  q: QuadratureSpec = QuadratureSpec()):
    """((S, S_err), (L, L_err)) from one jet per node: the weighted energy S =
    |t*|^{1-n+4/(p-1)} int_slab (|grad phi|^2 + |t*|^{-2} phi^2) and the
    mass L = int_slab |phi|^{p+1}, each with its error estimate."""
    ats = abs(t_star)

    def integrand(tt, rr):
        v, v_t, v_r = field.jet(tt, rr)[:3]
        return _density(v, v_t, v_r, ats), np.abs(v) ** (p + 1.0)

    energy, mass = integrate_bulk(_slab(field, sigma, gamma, t_star),
                                  integrand, q, n)
    weight = ats ** (1.0 - n + 4.0 / (p - 1.0))
    return ((weight * energy.value, weight * energy.error_estimate),
            (mass.value, mass.error_estimate))


def _lateral_window(field, eta, t_star):
    if not eta > 1.0:
        raise ValueError("eta must exceed 1")
    if math.isnan(t_star):
        raise ValueError("lateral center time must be a number")
    if t_star == 0.0:
        raise ValueError("lateral center time must be nonzero")
    field.require_times(scaled_window(t_star, eta))


def lateral_quantity(field, sigma, eta, t_star, p, n,
                     q: QuadratureSpec = QuadratureSpec()):
    """int over the cone-boundary slab of |grad phi|^2 + |phi|^{p+1}
    + t*^{-2} phi^2 (time-reflected for t* < 0)."""
    _lateral_window(field, eta, t_star)
    ats = abs(t_star)
    sgn = 1.0 if t_star > 0 else -1.0
    [res] = integrate_surfaces((ConePiece(sigma, ats / eta, ats * eta),),
                               _energy_density(field, ats, p, sgn), q, n)
    return res.value, res.error_estimate


def _ball_time(field, t):
    if not t < 0:
        raise ValueError("ball quantity requires t < 0")
    field.require_times(t)


def weighted_ball_quantity(field, times, p, n,
                           q: QuadratureSpec = QuadratureSpec()):
    """Three-term weighted ball quantity over B(0, -t) at each t < 0 of the
    sequence `times`:

    (-t)^{2/(p-1)-n/2} ||phi||_{L2} + (-t)^{2/(p-1)+1-n/2} (||d_t phi|| + ||d_r phi||),

    the balls integrated as one family of slices like `annulus_quantity`'s
    annuli. Returns a list of (value, summed error estimate), one per time.
    """
    for t in times:
        _ball_time(field, t)
    at = -np.asarray(times, dtype=float)
    k2 = 2.0 / (p - 1.0)

    def squares(tt, rr):
        return tuple(v ** 2 for v in field.jet(tt, rr)[:3])

    def weighted(a, res):
        n0, n1, n2 = (math.sqrt(max(r.value, 0.0)) for r in res)
        return (a ** (k2 - 0.5 * n) * n0 + a ** (k2 + 1.0 - 0.5 * n) * (n1 + n2),
                sum(r.error_estimate for r in res))

    slices = integrate_slices(times, 0.0, at, squares, q, n)
    return [weighted(a, res) for a, res in zip(at.tolist(), slices)]


@dataclass
class LocalizedCheck:
    lhs: float
    rhs: float
    t_star: float

    @property
    def ratio(self) -> float:  # inf when lhs = 0 (pass by vacuity)
        return math.inf if self.lhs == 0 else self.rhs / self.lhs


def _annulus_sup(field, sigma0, sigma1, eta, t_star, p, n, q):
    """Right side of the annulus form of the localized estimate:
    |t*| sup_tau int_{A(tau)} [|grad phi|^2 + |phi|^{p+1} + t*^{-2} phi^2],
    tau over 17 equispaced levels in [|t*|/eta, eta |t*|], with the
    time-reflected levels for t* < 0, integrated as one family of slices
    (integrate_slices)."""
    ats = abs(t_star)
    sgn = 1.0 if t_star > 0 else -1.0
    _lateral_window(field, eta, t_star)
    levels = np.linspace(ats / eta, ats * eta, 17)
    slices = integrate_slices(sgn * levels, sigma0 * levels, sigma1 * levels,
                              _energy_density(field, ats, p), q, n)
    return ats * max(res.value for res in slices)


def localized_estimate_check(field, sigma0, sigma1, gamma, eta, t_star, p, n,
                             q: QuadratureSpec = QuadratureSpec()
                             ) -> LocalizedCheck:
    """Both sides of the localized estimate and their ratio: the slab mass
    int_slab |phi|^{p+1} (`slab_quantity`, aperture sigma0) against
    |t*| sup_tau int_{A(tau)} [|grad phi|^2 + |phi|^{p+1} + t*^{-2} phi^2],
    tau in [|t*|/eta, eta |t*|], the sup discretized over 17 equispaced
    levels. Negative t* runs the time-reflected construction.
    """
    lhs = slab_quantity(field, sigma0, gamma, t_star, p, n, q)[1][0]
    rhs = _annulus_sup(field, sigma0, sigma1, eta, t_star, p, n, q)
    return LocalizedCheck(lhs, rhs, t_star)


@dataclass
class DecayReport:
    horizons: tuple
    bulk: tuple          # D(T) = int_{cone, 1<t<T} t^{-1} |phi|^{p+1}
    lateral: tuple       # L(T) = int_{boundary, 1<t<T} (|grad phi|^2 + |phi|^{p+1})
    bulk_segments: tuple = ()   # per-interval masses D(T_k) - D(T_{k-1}),
    # exact tail increments even when cumulative sums round them away


def decay_partials(field, sigma, horizons, p, n,
                   q: QuadratureSpec = QuadratureSpec()) -> DecayReport:
    """Truncated decay integrals; requires a forward run covering [1, max T].

    Each D(T) is accumulated from disjoint time segments [T_{k-1}, T_k], so
    increments D(T_{k}) - D(T_{k-1}) are genuine tail masses (nonnegative
    by construction) rather than differences of independently meshed
    integrals, which would drown tails below the mesh error.
    """
    horizons = tuple(sorted(horizons))
    field.require_times((1.0, horizons[-1]))

    def bulk_integrand(tt, rr):
        return np.abs(field.jet(tt, rr)[0]) ** (p + 1.0) / tt

    def lat_integrand(tt, rr):
        v, v_t, v_r = field.jet(tt, rr)[:3]
        return v_t ** 2 + v_r ** 2 + np.abs(v) ** (p + 1.0)

    spans = list(zip((1.0,) + horizons, horizons))
    segments = tuple(integrate_bulk(ConeSegmentSpec(sigma, *span),
                                    bulk_integrand, q, n).value
                     for span in spans)
    sides = integrate_surfaces([ConePiece(sigma, *span)
                                for span in spans], lat_integrand, q, n)
    # running sums added one segment at a time from 0.0, in horizon order
    bulk, lateral = (tuple(accumulate(parts, initial=0.0))[1:] for parts in
                     (segments, [res.value for res in sides]))
    return DecayReport(horizons, bulk, lateral, segments)


@dataclass
class RateReport:
    slope: float
    residual: float
    window: tuple
    infimum: float        # observed inf of the fitted quantity on the window
    supremum: float       # observed sup (the K_sigma proxy)
    last_decade_max: float  # limsup proxy: max over the last decade of |t|


def rate_fit(times, values, window=None) -> RateReport:
    """Least-squares slope of log y against log |t| over the window, whose
    ends take in the samples within a relative 1e-12 of them."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size != values.size:
        raise ValueError("times and values must have equal length")
    if times.size < 3:
        raise ValueError("need at least 3 samples")
    if not np.all(values > 0):  # NaN too
        raise ValueError("rate fit requires positive samples")
    at = np.abs(times)
    if window is None:
        window = (at.min(), at.max())
    keep = (at >= window[0] * (1 - 1e-12)) & (at <= window[1] * (1 + 1e-12))
    at, values = at[keep], values[keep]
    if np.unique(at).size < 3:
        raise ValueError("window selects fewer than 3 samples at distinct |t|")
    x = np.log(at)
    y = np.log(values)
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - slope * x - intercept) ** 2)))
    decade = at <= at.min() * 10.0
    return RateReport(
        slope=float(slope),
        residual=resid,
        window=(float(window[0]), float(window[1])),
        infimum=float(values.min()),
        supremum=float(values.max()),
        last_decade_max=float(values[decade].max()),
    )


def energy_profile(field, sigma0, sigma1, gamma, eta, times, p, n,
                   q: QuadratureSpec = QuadratureSpec()) -> list:
    """Per-time blow-up-side diagnostics (times < 0), one row per time:
    (t, annulus, slab, ball, localized lhs, localized rhs, their ratio, the
    summed error estimates of the annulus, slab, ball and lateral pieces).
    The annuli of all times are one family of slices, and so are the balls;
    every time's windows are checked first, in the order of a time-by-time
    pass, so a refused time raises what that pass would."""
    for t in times:
        _annulus_time(field, t)
        _slab(field, sigma0, gamma, t)
        _ball_time(field, t)
        _lateral_window(field, eta, t)
    annuli = annulus_quantity(field, sigma0, sigma1, times, p, n, q)
    balls = weighted_ball_quantity(field, times, p, n, q)
    rows = []
    for t, (av, ae), (mv, me) in zip(times, annuli, balls):
        (sv, se), (mass, _) = slab_quantity(field, sigma0, gamma, t, p, n, q)
        le = lateral_quantity(field, sigma0, eta, t, p, n, q)[1]
        rhs = _annulus_sup(field, sigma0, sigma1, eta, t, p, n, q)
        chk = LocalizedCheck(mass, rhs, t)
        rows.append((t, av, sv, mv, chk.lhs, chk.rhs, chk.ratio,
                     ae + se + me + le))
    return rows
