"""Shared test fixtures: compactly supported C^2 fields."""

import numpy as np

from conewave.exact_solutions import smoothstep
from conewave.fields import ManufacturedField


def closures_jet(phi, phi_t, phi_r, box):
    """A field jet assembled from four per-component closures."""

    def jet(t, r):
        return phi(t, r), phi_t(t, r), phi_r(t, r), box(t, r)

    return jet


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

    return ManufacturedField(n, closures_jet(phi, phi_t, phi_r, box),
                             label="compact")
