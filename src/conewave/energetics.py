"""Weighted functionals over cones, annuli, and slabs, evaluated on solver
output or closed-form fields, plus power-law rate fitting.

Runs are finite, so "limsup as t -> 0" style quantities are operationalized
as extrema over the last sampled decade of |t|; reports carry the sampling
window so the proxy is explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ConePiece, ConeSegmentSpec, LateralSlabSpec, SlabSpec
from .quadrature import (
    QuadratureSpec,
    integrate_bulk,
    integrate_slice,
    integrate_surface,
)

__all__ = [
    "EnergyReport",
    "RateReport",
    "LocalizedCheck",
    "DecayReport",
    "annulus_quantity",
    "slab_quantity",
    "lp_slab_quantity",
    "lateral_quantity",
    "weighted_ball_quantity",
    "localized_estimate_check",
    "decay_partials",
    "rate_fit",
    "energy_profile",
    "profile_csv",
    "decay_csv",
]


def _require_time_coverage(field, *times):
    stored = getattr(field, "times", None)
    if stored is None:
        return
    lo, hi = stored[0], stored[-1]
    for t in times:
        if not lo - 1e-9 <= t <= hi + 1e-9:
            raise ValueError(f"time {t} outside the sampled range [{lo}, {hi}]")


def _energy_density(field, scale, p=None, sgn=1.0):
    """Integrand |grad phi|^2 [+ |phi|^{p+1}] + scale^{-2} phi^2 from one jet
    per node; the power term only when `p` is given. `sgn = -1` evaluates the
    field at the reflected time -t."""

    def integrand(tt, rr):
        v, v_t, v_r = field.jet(tt if sgn == 1.0 else sgn * tt, rr)[:3]
        total = v_t ** 2 + v_r ** 2
        if p is not None:
            total = total + np.abs(v) ** (p + 1.0)
        return total + v * v / (scale * scale)

    return integrand


def annulus_quantity(field, sigma0, sigma1, t, p, n,
                     q: QuadratureSpec | None = None):
    """|t|^{2-n+4/(p-1)} int_{A(t)} (|grad phi|^2 + |t|^{-2} phi^2).

    Returns (value, quadrature error estimate with the same weight).
    """
    if q is None:
        q = QuadratureSpec()
    if t == 0:
        raise ValueError("annulus quantity undefined at t = 0")
    _require_time_coverage(field, t)
    at = abs(t)
    expo = 2.0 - n + 4.0 / (p - 1.0)

    res = integrate_slice(t, sigma0 * at, sigma1 * at,
                          _energy_density(field, at), q, n)
    return at ** expo * res.value, at ** expo * res.error_estimate


def slab_quantity(field, sigma, gamma, t_star, p, n,
                  q: QuadratureSpec | None = None):
    """|t*|^{1-n+4/(p-1)} int_slab (|grad phi|^2 + |t*|^{-2} phi^2)."""
    if q is None:
        q = QuadratureSpec()
    slab = SlabSpec(sigma, gamma, t_star)
    lo, hi = slab.time_window()
    _require_time_coverage(field, lo, hi)
    ats = abs(t_star)
    expo = 1.0 - n + 4.0 / (p - 1.0)

    res = integrate_bulk(slab, _energy_density(field, ats), q, n)
    return ats ** expo * res.value, ats ** expo * res.error_estimate


def lp_slab_quantity(field, sigma, gamma, t_star, p, n,
                     q: QuadratureSpec | None = None):
    """int_slab |phi|^{p+1} (no time weight)."""
    if q is None:
        q = QuadratureSpec()
    slab = SlabSpec(sigma, gamma, t_star)
    lo, hi = slab.time_window()
    _require_time_coverage(field, lo, hi)

    def integrand(tt, rr):
        return np.abs(field.value(tt, rr)) ** (p + 1.0)

    res = integrate_bulk(slab, integrand, q, n)
    return res.value, res.error_estimate


def lateral_quantity(field, sigma, eta, t_star, p, n,
                     q: QuadratureSpec | None = None):
    """int over the cone-boundary slab of |grad phi|^2 + |phi|^{p+1}
    + t*^{-2} phi^2 (time-reflected for t* < 0)."""
    if q is None:
        q = QuadratureSpec()
    ats = abs(t_star)
    sgn = 1.0 if t_star > 0 else -1.0
    piece = LateralSlabSpec(sigma, eta, ats).piece()
    res = integrate_surface(piece, _energy_density(field, ats, p, sgn), q, n)
    return res.value, res.error_estimate


def weighted_ball_quantity(field, t, p, n, q: QuadratureSpec | None = None):
    """Three-term weighted ball quantity over B(0, -t), t < 0:

    (-t)^{2/(p-1)-n/2} ||phi||_{L2} + (-t)^{2/(p-1)+1-n/2} (||d_t phi|| + ||d_r phi||).
    """
    if q is None:
        q = QuadratureSpec()
    if t >= 0:
        raise ValueError("ball quantity requires t < 0")
    _require_time_coverage(field, t)
    at = -t
    k2 = 2.0 / (p - 1.0)

    def squares(tt, rr):
        return tuple(v ** 2 for v in field.jet(tt, rr)[:3])

    res = integrate_slice(t, 0.0, at, squares, q, n)
    n0, n1, n2 = (math.sqrt(max(r.value, 0.0)) for r in res)
    val = at ** (k2 - 0.5 * n) * n0 + at ** (k2 + 1.0 - 0.5 * n) * (n1 + n2)
    return val, sum(r.error_estimate for r in res)


@dataclass
class LocalizedCheck:
    lhs: float
    rhs: float
    ratio: float       # rhs / lhs; inf when lhs = 0 (pass by vacuity)
    kind: str
    t_star: float
    sup_time: float | None = None


def localized_estimate_check(field, kind, sigma_or_pair, gamma, eta, t_star,
                             p, n, q: QuadratureSpec | None = None,
                             sup_times=None) -> LocalizedCheck:
    """Both sides of the localized estimates and their ratio.

    kind "timecone": int_slab |phi|^{p+1} against
        |t*| int_lateral [|grad phi|^2 + |phi|^{p+1} + t*^{-2} phi^2];
    kind "annulus": the same left side against
        |t*| sup_tau int_{A(tau)} [...], tau in [|t*|/eta, eta |t*|],
    the sup discretized over `sup_times` (default 17 equispaced levels).
    Negative t* runs the time-reflected construction.
    """
    if q is None:
        q = QuadratureSpec()
    if kind not in ("timecone", "annulus"):
        raise ValueError("kind must be timecone or annulus")
    ats = abs(t_star)
    sgn = 1.0 if t_star > 0 else -1.0

    if kind == "timecone":
        sigma0 = float(sigma_or_pair)
    else:
        sigma0, sigma1 = sigma_or_pair

    lhs, _ = lp_slab_quantity(field, sigma0, gamma, t_star, p, n, q)
    best_t = None

    if kind == "timecone":
        # lateral integral over {r = sigma |t|, |t| in (t*/eta, eta t*)};
        # the reflected cone has the same induced measure, so parametrize by
        # |t| and evaluate the field at sgn * |t|.
        piece = LateralSlabSpec(sigma0, eta, ats).piece()
        res = integrate_surface(piece, _energy_density(field, ats, p, sgn),
                                q, n)
        rhs = ats * res.value
    else:
        if sup_times is None:
            sup_times = np.linspace(ats / eta, ats * eta, 17)
        best = -math.inf
        integrand = _energy_density(field, ats, p)
        for tau in np.asarray(sup_times, dtype=float):
            tau_signed = sgn * tau
            res = integrate_slice(tau_signed, sigma0 * tau, sigma1 * tau,
                                  integrand, q, n)
            if res.value > best:
                best, best_t = res.value, tau_signed
        rhs = ats * best

    ratio = math.inf if lhs == 0 else rhs / lhs
    return LocalizedCheck(lhs=lhs, rhs=rhs, ratio=ratio, kind=kind,
                          t_star=t_star, sup_time=best_t)


@dataclass
class DecayReport:
    horizons: tuple
    bulk: tuple          # D(T) = int_{cone, 1<t<T} t^{-1} |phi|^{p+1}
    lateral: tuple       # L(T) = int_{boundary, 1<t<T} (|grad phi|^2 + |phi|^{p+1})
    holder: tuple        # int_{boundary, 1<t<T} t^{-2} phi^2
    bulk_segments: tuple = ()   # per-interval masses D(T_k) - D(T_{k-1}),
    # exact tail increments even when cumulative sums round them away


def decay_partials(field, sigma, horizons, p, n,
                   q: QuadratureSpec | None = None) -> DecayReport:
    """Truncated decay integrals; requires a forward run covering [1, max T].

    Each D(T) is accumulated from disjoint time segments [T_{k-1}, T_k], so
    increments D(T_{k}) - D(T_{k-1}) are genuine tail masses (nonnegative
    by construction) rather than differences of independently meshed
    integrals, which would drown tails below the mesh error.
    """
    if q is None:
        q = QuadratureSpec()
    horizons = tuple(sorted(horizons))
    _require_time_coverage(field, 1.0, horizons[-1])

    def bulk_integrand(tt, rr):
        return np.abs(field.value(tt, rr)) ** (p + 1.0) / tt

    def lat_integrand(tt, rr):
        v, v_t, v_r = field.jet(tt, rr)[:3]
        return v_t ** 2 + v_r ** 2 + np.abs(v) ** (p + 1.0)

    def holder_integrand(tt, rr):
        return field.value(tt, rr) ** 2 / (tt * tt)

    bulk, lateral, holder, segments = [], [], [], []
    acc_b = acc_l = acc_h = 0.0
    t_prev = 1.0
    for T in horizons:
        seg = ConeSegmentSpec(sigma, t_prev, T)
        piece = ConePiece(sigma, t_prev, T, outward_sign=1)
        mass = integrate_bulk(seg, bulk_integrand, q, n).value
        acc_b += mass
        acc_l += integrate_surface(piece, lat_integrand, q, n).value
        acc_h += integrate_surface(piece, holder_integrand, q, n).value
        bulk.append(acc_b)
        lateral.append(acc_l)
        holder.append(acc_h)
        segments.append(mass)
        t_prev = T
    return DecayReport(horizons, tuple(bulk), tuple(lateral), tuple(holder),
                       tuple(segments))


@dataclass
class RateReport:
    slope: float
    residual: float
    window: tuple
    infimum: float        # observed inf of the fitted quantity on the window
    supremum: float       # observed sup (the K_sigma proxy)
    last_decade_max: float  # limsup proxy: max over the last decade of |t|


def rate_fit(times, values, window=None) -> RateReport:
    """Least-squares slope of log y against log |t| over the window."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size != values.size:
        raise ValueError("times and values must have equal length")
    if times.size < 3:
        raise ValueError("need at least 3 samples")
    if np.any(values <= 0):
        raise ValueError("rate fit requires positive samples")
    if window is None:
        window = (np.abs(times).min(), np.abs(times).max())
    mask = (np.abs(times) >= window[0] - 1e-12) & (np.abs(times) <= window[1] + 1e-12)
    if mask.sum() < 3:
        raise ValueError("window selects fewer than 3 samples")
    x = np.log(np.abs(times[mask]))
    y = np.log(values[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - slope * x - intercept) ** 2)))
    at = np.abs(times[mask])
    decade = at <= at.min() * 10.0
    return RateReport(
        slope=float(slope),
        residual=resid,
        window=(float(window[0]), float(window[1])),
        infimum=float(values[mask].min()),
        supremum=float(values[mask].max()),
        last_decade_max=float(values[mask][decade].max()),
    )


@dataclass
class EnergyReport:
    times: tuple
    annulus: tuple
    slab: tuple
    ball: tuple
    lhs_annulus_est: tuple   # int_slab |phi|^{p+1}
    rhs_annulus_est: tuple
    ratios: tuple
    lateral: tuple
    errors: tuple


def energy_profile(field, sigma0, sigma1, gamma, eta, times, p, n,
                   q: QuadratureSpec | None = None) -> EnergyReport:
    """Per-time blow-up-side diagnostics (times < 0)."""
    if q is None:
        q = QuadratureSpec()
    ann, slab, ball, lhs_l, rhs_l, ratios, lat, errs = [], [], [], [], [], [], [], []
    for t in times:
        av, ae = annulus_quantity(field, sigma0, sigma1, t, p, n, q)
        sv, se = slab_quantity(field, sigma0, gamma, t, p, n, q)
        mv, me = weighted_ball_quantity(field, t, p, n, q)
        lv, le = lateral_quantity(field, sigma0, eta, t, p, n, q)
        chk = localized_estimate_check(field, "annulus", (sigma0, sigma1),
                                       gamma, eta, t, p, n, q)
        ann.append(av)
        slab.append(sv)
        ball.append(mv)
        lhs_l.append(chk.lhs)
        rhs_l.append(chk.rhs)
        ratios.append(chk.ratio)
        lat.append(lv)
        errs.append(ae + se + me + le)
    return EnergyReport(tuple(times), tuple(ann), tuple(slab), tuple(ball),
                        tuple(lhs_l), tuple(rhs_l), tuple(ratios),
                        tuple(lat), tuple(errs))


def profile_csv(report: EnergyReport, digits: int = 17) -> str:
    lines = ["t,annulus_q,slab_q,mz_q,lhs_1_6,rhs_1_6,ratio,err_est"]
    for i, t in enumerate(report.times):
        row = (t, report.annulus[i], report.slab[i], report.ball[i],
               report.lhs_annulus_est[i], report.rhs_annulus_est[i],
               report.ratios[i], report.errors[i])
        lines.append(",".join(f"{v:.{digits}g}" for v in row))
    return "\n".join(lines) + "\n"


def decay_csv(report: DecayReport, digits: int = 17) -> str:
    lines = ["T,D,L"]
    for T, d, l in zip(report.horizons, report.bulk, report.lateral):
        lines.append(f"{T:.{digits}g},{d:.{digits}g},{l:.{digits}g}")
    return "\n".join(lines) + "\n"
