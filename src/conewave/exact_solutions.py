"""The homogeneous blow-up solution (and its field), initial data families,
and the closed-form scaling constants it produces on annuli and slabs.

The amplitude constant satisfies C^{p-1} = 2(p+1)/(p-1)^2, forced by direct
substitution into d_tt phi = |phi|^{p-1} phi (a printed source gives the
denominator without the square; the regression test pins the correct one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import ball_volume
from .fields import ManufacturedField, _require, read_snapshot

__all__ = [
    "OdeSolution",
    "ode_field",
    "InitialDataSpec",
    "smoothstep",
    "annulus_scaling_constant",
    "slab_scaling_constant",
    "ball_quantity_ode",
]


@dataclass(frozen=True)
class OdeSolution:
    """phi*(t) = C (-t)^{-k}, k = 2/(p-1), blowing up at t = 0."""

    p: float

    def __post_init__(self):
        if not 1.0 < self.p < math.inf:
            raise ValueError("exponent must be finite and satisfy p > 1")
        try:
            self.amplitude
        except OverflowError:
            raise ValueError(f"the amplitude C of phi* overflows at "
                             f"p = {self.p!r}") from None

    @property
    def k(self) -> float:
        return 2.0 / (self.p - 1.0)

    @property
    def amplitude(self) -> float:
        return (2.0 * (self.p + 1.0) / (self.p - 1.0) ** 2) ** (1.0 / (self.p - 1.0))

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if not np.all(t < 0):
            raise ValueError("phi* is defined for t < 0")
        return self.amplitude * (-t) ** (-self.k)

    def dvalue(self, t):
        t = np.asarray(t, dtype=float)
        if not np.all(t < 0):
            raise ValueError("phi* is defined for t < 0")
        return self.amplitude * self.k * (-t) ** (-self.k - 1.0)

    def threshold_crossing(self, level: float) -> float:
        """Time t < 0 at which phi* reaches the given level."""
        if not level > 0:
            raise ValueError("level must be positive")
        return -((self.amplitude / level) ** (1.0 / self.k))


def ode_field(p):
    """The homogeneous blow-up solution, on {t < 0} in any dimension."""
    sol = OdeSolution(p)
    C, k = sol.amplitude, sol.k

    def jet(t, r):
        zero = 0.0 * r
        # box phi* = -d_tt phi* = -|phi*|^{p-1} phi* by the defining equation
        return (C * (-t) ** (-k) + zero,
                C * k * (-t) ** (-k - 1) + zero,
                np.zeros(np.broadcast(t, r).shape),
                -C * k * (k + 1) * (-t) ** (-k - 2) + zero)

    return ManufacturedField(jet)


def smoothstep(s):
    """Quintic Hermite step: 0 below 0, 1 above 1, C^2 monotone in between."""
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    return s ** 3 * (10.0 - 15.0 * s + 6.0 * s * s)


@dataclass(frozen=True)
class InitialDataSpec:
    """Initial data (phi, d_t phi) at a start time t0: `profile(t0, r)`
    returns the pair on an array r, and `support_radius` is the radius
    past which the data vanish (None if it is not known). The families:

    truncated_ode: phi*(t0) for r <= M, ramped C^2 to zero on [M, M+w].
    gaussian: amplitude A, width s, cut hard to zero on [5s, 6s] so the data
    is compactly supported (the tail beyond 5s is below 4e-6 of A).
    file: snapshot file in the shared text format, starting at r = 0; it
    extends by zero past its last row, which must then read `r 0 0`.
    """

    profile: Callable
    support_radius: float | None = None

    def evaluate(self, t0, r):
        return self.profile(t0, np.asarray(r, dtype=float))

    @classmethod
    def truncated_ode(cls, M, w, p=2.0):
        if not (0 < M < math.inf and 0 < w < math.inf):
            raise ValueError("truncation needs finite M > 0 and w > 0")

        def profile(t0, r):
            # a quotient that overflows is the +-inf that smoothstep clips
            with np.errstate(over="ignore"):
                ramp = 1.0 - smoothstep((r - M) / w)
            sol = OdeSolution(p)
            return float(sol.value(t0)) * ramp, float(sol.dvalue(t0)) * ramp

        return cls(profile, M + w)

    @classmethod
    def gaussian(cls, amplitude, width):
        _require(math.isfinite(amplitude), "amplitude", amplitude, "finite")
        _require(0 < width and 0 < width * width < math.inf, "width", width,
                 "greater than 0 with a finite nonzero square")

        def profile(t0, r):
            # an overflowing r * r gives exp(-inf) = 0, and smoothstep clips
            # an overflowing quotient
            with np.errstate(over="ignore"):
                ramp = 1.0 - smoothstep((r - 5.0 * width) / width)
                phi = amplitude * np.exp(-r * r / (2.0 * width ** 2)) * ramp
            return phi, np.zeros_like(r)

        return cls(profile, 6.0 * width)

    @classmethod
    def file(cls, path):
        def profile(t0, r):
            n, p, t, rfile, phi, phit = read_snapshot(path)
            if abs(t - t0) > 1e-9 * max(1.0, abs(t0)):
                raise ValueError(f"snapshot time {t} does not match start "
                                 f"time {t0}")
            if np.max(r) > rfile[-1] and (phi[-1] != 0.0 or phit[-1] != 0.0):
                raise ValueError(f"snapshot ends at r = {float(rfile[-1])!r}, "
                                 f"short of r = {float(np.max(r))!r}, on a "
                                 f"row other than `r 0 0`")
            return np.interp(r, rfile, phi), np.interp(r, rfile, phit)

        return cls(profile)


def _window_integral(m, gamma):
    """int_{|t*|/g}^{|t*| g} u^m du / |t*|^{m+1} = (g^m - g^-m)/m, log at m=0."""
    if not gamma > 1.0:
        raise ValueError("gamma must exceed 1")
    if m == 0:
        return 2.0 * math.log(gamma)
    return (gamma ** m - gamma ** (-m)) / m


def annulus_scaling_constant(p, n, sigma0, sigma1):
    """(C_grad, C_phi) making the weighted annulus integrals of phi*
    t-independent:

    (-t)^{-n+2+4/(p-1)} int_A [(d_t phi*)^2 + (d_r phi*)^2] = C_grad,
    (-t)^{-n+4/(p-1)}   int_A |phi*|^2 = C_phi,

    with C_grad = C^2 k^2 V_n (sigma1^n - sigma0^n) and
    C_phi = C^2 V_n (sigma1^n - sigma0^n).
    """
    if not 0.0 <= sigma0 <= sigma1 < 1.0:
        raise ValueError("need 0 <= sigma0 <= sigma1 < 1")
    sol = OdeSolution(p)
    shell = ball_volume(n) * (sigma1 ** n - sigma0 ** n)
    C2 = sol.amplitude ** 2
    return C2 * sol.k ** 2 * shell, C2 * shell


def slab_scaling_constant(p, n, sigma0, gamma):
    """(C_grad, C_phi) for the slab versions, exponents -n+1+4/(p-1) and
    -n-1+4/(p-1); obtained by integrating the annulus constants in t."""
    if not 0.0 < sigma0 < 1.0:
        raise ValueError("need 0 < sigma0 < 1")
    sol = OdeSolution(p)
    k = sol.k
    cone = ball_volume(n) * sigma0 ** n
    C2 = sol.amplitude ** 2
    if gamma == 1.0:
        return 0.0, 0.0
    c_grad = C2 * k * k * cone * _window_integral(n - 2 * k - 1, gamma)
    c_phi = C2 * cone * _window_integral(n - 2 * k + 1, gamma)
    return c_grad, c_phi


def ball_quantity_ode(p, n):
    """Three-term weighted ball quantity for phi*, the same at every t < 0:
    C (1 + k) sqrt(V_n). The spatial gradient term contributes zero."""
    sol = OdeSolution(p)
    return sol.amplitude * (1.0 + sol.k) * math.sqrt(ball_volume(n))
