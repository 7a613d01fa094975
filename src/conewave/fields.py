"""Field representations and the radial differential operators.

Two field kinds share one evaluation surface: `jet(t, r)` returns phi, phi_t
and phi_r (and, for closed-form manufactured fields, the wave operator) from
one evaluation per batch of points, and `value(t, r)` returns phi alone.
Discrete radial space-time histories are produced by the solver or read from
snapshot files.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "PotentialSpec",
    "ManufacturedField",
    "DiscreteField",
    "zero_field",
    "constant_field",
    "ode_field",
    "gaussian_pulse",
    "polynomial_gaussian",
    "traveling_bump",
    "gradient_norm_sq",
    "box_operator",
    "nonlinear_residual",
    "signed_power",
    "write_snapshot",
    "read_snapshot",
]


def signed_power(phi, p):
    """|phi|^{p-1} phi for possibly non-integer p, continuous at 0 for p > 1."""
    phi = np.asarray(phi, dtype=float)
    return np.sign(phi) * np.abs(phi) ** p


# --------------------------------------------------------------------------
# Potential
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialSpec:
    """Bounded positive potential, constant or constant plus a smooth bump.

    The bump profile is the unit-gradient gaussian
    b(t, r) = width sqrt(e) exp(-rho^2 / (2 width^2)), rho = dist to center,
    so sup|grad V| = |eps| exactly and the slab smallness condition reduces
    to |eps| t* <= alpha.
    """

    kind: str = "constant"
    c0: float = 1.0
    eps: float = 0.0
    center: tuple = (0.0, 0.0)  # (t, r)
    width: float = 1.0
    alpha: float = math.inf

    def __post_init__(self):
        if self.kind not in ("constant", "perturbed"):
            raise ValueError("potential kind must be constant or perturbed")
        if self.c0 <= 0.0:
            raise ValueError("base level must be positive")
        if self.kind == "perturbed":
            if self.width <= 0.0:
                raise ValueError("bump width must be positive")
            if self.c0 - abs(self.eps) * self.bump_amplitude() <= 0.0:
                raise ValueError("perturbation destroys positivity of V")

    @classmethod
    def constant(cls, c0=1.0):
        return cls(kind="constant", c0=c0)

    @classmethod
    def perturbed(cls, c0, eps, center, width, alpha, t_star=None):
        spec = cls(kind="perturbed", c0=c0, eps=eps, center=center,
                   width=width, alpha=alpha)
        if t_star is not None and abs(eps) * abs(t_star) > alpha + 1e-15:
            raise ValueError(
                f"|grad V| t* = {abs(eps) * abs(t_star):g} exceeds alpha = {alpha:g}")
        return spec

    def bump_amplitude(self) -> float:
        return self.width * math.sqrt(math.e)

    @property
    def bound(self) -> float:
        """C with C^{-1} <= V <= C."""
        amp = abs(self.eps) * self.bump_amplitude() if self.kind == "perturbed" else 0.0
        return max(self.c0 + amp, 1.0 / (self.c0 - amp), 1.0)

    def value(self, t, r):
        t = np.asarray(t, dtype=float)
        r = np.asarray(r, dtype=float)
        if self.kind == "constant":
            return np.full(np.broadcast(t, r).shape, self.c0)
        tc, rc = self.center
        rho2 = (t - tc) ** 2 + (r - rc) ** 2
        b = self.width * math.sqrt(math.e) * np.exp(-rho2 / (2.0 * self.width ** 2))
        return self.c0 + self.eps * b

    def gradient(self, t, r):
        """(d_t V, d_r V)."""
        t = np.asarray(t, dtype=float)
        r = np.asarray(r, dtype=float)
        if self.kind == "constant":
            z = np.zeros(np.broadcast(t, r).shape)
            return z, z.copy()
        tc, rc = self.center
        rho2 = (t - tc) ** 2 + (r - rc) ** 2
        b = self.width * math.sqrt(math.e) * np.exp(-rho2 / (2.0 * self.width ** 2))
        scale = -self.eps * b / self.width ** 2
        return scale * (t - tc), scale * (r - rc)

    def max_gradient_times(self, t_star: float) -> float:
        return (abs(self.eps) if self.kind == "perturbed" else 0.0) * abs(t_star)


# --------------------------------------------------------------------------
# Manufactured fields
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ManufacturedField:
    """Closed-form radial field with analytic first derivatives and wave
    operator box = -d_tt + d_rr + (n-1)/r d_r (regularized at r = 0).

    `evaluate(t, r)` returns the jet (phi, phi_t, phi_r, box) from one
    evaluation of the field's profile."""

    dim: int
    evaluate: Callable
    label: str = ""

    def jet(self, t, r):
        return self.evaluate(np.asarray(t, dtype=float),
                             np.asarray(r, dtype=float))

    def value(self, t, r):
        return self.jet(t, r)[0]


def zero_field(n=3):
    def jet(t, r):
        shape = np.broadcast(t, r).shape
        return tuple(np.zeros(shape) for _ in range(4))

    return ManufacturedField(n, jet, label="zero")


def constant_field(c, n=3):
    def jet(t, r):
        shape = np.broadcast(t, r).shape
        return (np.full(shape, float(c)), np.zeros(shape), np.zeros(shape),
                np.zeros(shape))

    return ManufacturedField(n, jet, label=f"constant({c})")


def ode_field(p, n=3):
    """The homogeneous blow-up solution as a field on {t < 0}."""
    from .exact_solutions import OdeSolution

    sol = OdeSolution(p)
    C, k = sol.amplitude, sol.k

    def jet(t, r):
        zero = 0.0 * r
        # box phi* = -d_tt phi* = -|phi*|^{p-1} phi* by the defining equation
        return (C * (-t) ** (-k) + zero,
                C * k * (-t) ** (-k - 1) + zero,
                np.zeros(np.broadcast(t, r).shape),
                -C * k * (k + 1) * (-t) ** (-k - 2) + zero)

    return ManufacturedField(n, jet, label=f"ode(p={p})")


def gaussian_pulse(n=3, amplitude=1.0, t_center=0.0, t_width=1.0, r_width=1.0):
    """Even-in-r separable gaussian, C^infty including the axis."""
    A, tc, wt, wr = float(amplitude), float(t_center), float(t_width), float(r_width)

    def jet(t, r):
        g = A * np.exp(-(t - tc) ** 2 / (2 * wt ** 2) - r * r / (2 * wr ** 2))
        # (n-1)/r d_r phi = -(n-1)/wr^2 phi exactly; no axis singularity
        phitt = ((t - tc) ** 2 / wt ** 4 - 1.0 / wt ** 2) * g
        phirr = (r * r / wr ** 4 - 1.0 / wr ** 2) * g
        return (g, -(t - tc) / wt ** 2 * g, -r / wr ** 2 * g,
                -phitt + phirr - (n - 1) / wr ** 2 * g)

    return ManufacturedField(n, jet, label=f"gauss(A={A},tc={tc})")


def polynomial_gaussian(n=3, amplitude=1.0, t_center=0.0, t_width=1.0,
                        r_width=1.0, c1=0.0, c2=0.0):
    """Separable gaussian-polynomial product, quadratic factor in t."""
    A, tc, wt, wr = float(amplitude), float(t_center), float(t_width), float(r_width)
    base = gaussian_pulse(n, A, tc, wt, wr)

    def jet(t, r):
        g, gt, gr, gbox = base.evaluate(t, r)
        q = 1.0 + c1 * (t - tc) + c2 * (t - tc) ** 2
        dq = c1 + 2.0 * c2 * (t - tc)
        gtt = ((t - tc) ** 2 / wt ** 4 - 1.0 / wt ** 2) * g
        phitt = 2.0 * c2 * g + 2.0 * dq * gt + q * gtt
        spatial = q * (gbox + gtt)  # base spatial part
        return q * g, dq * g + q * gt, q * gr, -phitt + spatial

    return ManufacturedField(n, jet, label=f"polygauss(A={A})")


def traveling_bump(n=3, amplitude=1.0, speed=0.5, offset=2.0, width=0.3):
    """Radially traveling gaussian bump; not even in r, keep it off the axis."""
    A, v, d, w = float(amplitude), float(speed), float(offset), float(width)

    def jet(t, r):
        s = r - v * t - d
        g = A * np.exp(-s ** 2 / (2 * w * w))
        phi_r = -s / (w * w) * g
        sec = (s * s / w ** 4 - 1.0 / (w * w)) * g
        return (g, v * s / (w * w) * g, phi_r,
                -(v * v) * sec + sec + (n - 1) / r * phi_r)

    return ManufacturedField(n, jet, label=f"travel(v={v})")


# --------------------------------------------------------------------------
# Discrete fields and the snapshot format
# --------------------------------------------------------------------------

SNAPSHOT_HEADER = "# n p t"
SNAPSHOT_ROW = "%.17g %.17g %.17g\n"
SNAPSHOT_BLOCK_ROWS = 1024


def write_snapshot(path, n, p, t, r, phi, phit):
    """Text snapshot: header `# n p t`, rows `r phi phit`, 17 sig digits.

    Rows are formatted a block at a time, so the text held in memory stays
    bounded whatever the grid size."""
    rows = np.column_stack((r, phi, phit))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{SNAPSHOT_HEADER}\n")
        handle.write(f"{n:d} {p:.17g} {t:.17g}\n")
        for start in range(0, len(rows), SNAPSHOT_BLOCK_ROWS):
            block = rows[start:start + SNAPSHOT_BLOCK_ROWS]
            handle.write(SNAPSHOT_ROW * len(block)
                         % tuple(block.ravel().tolist()))


def read_snapshot(path):
    """Returns (n, p, t, r, phi, phit)."""
    if isinstance(path, (str, bytes)):
        handle = open(path, "r", encoding="utf-8")
        close = True
    else:
        handle, close = path, False
    try:
        header = handle.readline().strip()
        if header != SNAPSHOT_HEADER:
            raise ValueError(f"bad snapshot header {header!r}")
        first = handle.readline().split()
        n, p, t = int(first[0]), float(first[1]), float(first[2])
        data = np.loadtxt(io.StringIO(handle.read()), ndmin=2)
    finally:
        if close:
            handle.close()
    return n, p, t, data[:, 0].copy(), data[:, 1].copy(), data[:, 2].copy()


@dataclass
class DiscreteField:
    """Radial space-time history: uniform grid r_j = j dr, levels t_m with
    stored (phi, d_t phi); even extension across r = 0."""

    times: np.ndarray          # (M,)
    r: np.ndarray              # (J+1,)
    phi: np.ndarray            # (M, J+1)
    phi_t: np.ndarray          # (M, J+1)
    dim: int

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.r = np.asarray(self.r, dtype=float)
        self.phi = np.ascontiguousarray(self.phi, dtype=float)
        self.phi_t = np.ascontiguousarray(self.phi_t, dtype=float)
        if self.phi.shape != (self.times.size, self.r.size):
            raise ValueError("phi shape does not match (times, r)")
        dr = np.diff(self.r)
        if self.r[0] != 0.0 or dr.size and not np.allclose(dr, dr[0], rtol=1e-12):
            raise ValueError("radial grid must be uniform starting at r = 0")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("time levels must be strictly increasing")

    @property
    def dr(self) -> float:
        return float(self.r[1] - self.r[0])

    @classmethod
    def from_levels(cls, levels, r, dim):
        """levels: iterable of (t, phi_array, phit_array)."""
        levels = sorted(levels, key=lambda row: row[0])
        times = np.array([row[0] for row in levels])
        phi = np.vstack([row[1] for row in levels])
        phit = np.vstack([row[2] for row in levels])
        return cls(times, np.asarray(r, dtype=float), phi, phit, dim)

    @classmethod
    def from_snapshot_files(cls, paths):
        rows = []
        meta = None
        for path in paths:
            n, p, t, r, phi, phit = read_snapshot(path)
            if meta is None:
                meta = (n, r)
            rows.append((t, phi, phit))
        return cls.from_levels(rows, meta[1], meta[0])

    # -- derivative arrays ---------------------------------------------------

    def phi_r_level(self, m):
        """Centered radial derivative of level m, even at the axis,
        one-sided at the outer end."""
        u = self.phi[m]
        dr = self.dr
        out = np.empty_like(u)
        out[0] = 0.0
        out[1:-1] = (u[2:] - u[:-2]) / (2.0 * dr)
        out[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * dr)
        return out

    # -- interpolating evaluation surface -------------------------------------
    # Bilinear in (t, r) over the stored levels, vectorized over arbitrary
    # broadcastable (t, r) arrays. Accuracy O(dt^2 + dr^2), matching the
    # solver order.

    def nearest_level(self, t) -> int:
        return int(np.argmin(np.abs(self.times - t)))

    def _locate(self, t, r):
        """Bilinear stencil of a batch of points: flat table indices of the
        four corners and the weights (1 - fr, fr, 1 - th, th)."""
        t = np.asarray(t, dtype=float)
        r = np.abs(np.asarray(r, dtype=float))  # even extension
        t, r = np.broadcast_arrays(t, r)
        tol = 1e-9 * max(1.0, float(np.abs(self.times).max()))
        if np.any(t < self.times[0] - tol) or np.any(t > self.times[-1] + tol):
            raise ValueError("time outside the stored range")
        if np.any(r > self.r[-1] + 1e-9 * self.r[-1]):
            raise ValueError("radius outside the stored grid")
        if self.times.size == 1:
            m = np.zeros(t.shape, dtype=int)
            th = np.zeros(t.shape)
        else:
            m = np.clip(np.searchsorted(self.times, t, side="right") - 1,
                        0, self.times.size - 2)
            th = np.clip((t - self.times[m])
                         / (self.times[m + 1] - self.times[m]), 0.0, 1.0)
        x = np.clip(r / self.dr, 0.0, self.r.size - 1 - 1e-12)
        j = np.minimum(x.astype(int), self.r.size - 2)
        fr = x - j
        lo = m * self.r.size + j
        hi = np.minimum(m + 1, self.times.size - 1) * self.r.size + j
        return lo, lo + 1, hi, hi + 1, 1.0 - fr, fr, 1.0 - th, th

    @staticmethod
    def _interp(table, stencil):
        lo0, lo1, hi0, hi1, cfr, fr, cth, th = stencil
        flat = table.ravel()
        lo = flat[lo0] * cfr + flat[lo1] * fr
        hi = flat[hi0] * cfr + flat[hi1] * fr
        out = lo * cth + hi * th
        return out if out.shape else float(out)

    def _phi_r_table(self):
        if getattr(self, "_phi_r_cache", None) is None:
            self._phi_r_cache = np.vstack([self.phi_r_level(m)
                                           for m in range(self.times.size)])
        return self._phi_r_cache

    def value(self, t, r):
        return self._interp(self.phi, self._locate(t, r))

    def jet(self, t, r):
        """(phi, phi_t, phi_r) from one stencil per batch of points."""
        stencil = self._locate(t, r)
        return tuple(self._interp(table, stencil) for table in
                     (self.phi, self.phi_t, self._phi_r_table()))

    def write_snapshots(self, directory, p, prefix="snap"):
        import os

        paths = []
        for m, t in enumerate(self.times):
            path = os.path.join(directory, f"{prefix}_{m:04d}.dat")
            write_snapshot(path, self.dim, p, t, self.r, self.phi[m],
                           self.phi_t[m])
            paths.append(path)
        return paths


# --------------------------------------------------------------------------
# Differential operators
# --------------------------------------------------------------------------

def gradient_norm_sq(field, t, r):
    """(d_t phi)^2 + (d_r phi)^2 (the full spatial gradient for radial fields)."""
    _, phi_t, phi_r = field.jet(t, r)[:3]
    return phi_t ** 2 + phi_r ** 2


def _discrete_box(field: DiscreteField, m, j):
    """Centered stencil wave operator at stored level m, node j."""
    if not 1 <= m <= field.times.size - 2:
        raise IndexError("time level without centered stencil support")
    dts = np.diff(field.times[m - 1: m + 2])
    if abs(dts[0] - dts[1]) > 1e-9 * dts[0]:
        raise ValueError("non-uniform time levels around the requested point")
    dt = dts[0]
    dr = field.dr
    u = field.phi
    J = field.r.size - 1
    phitt = (u[m + 1, j] - 2.0 * u[m, j] + u[m - 1, j]) / dt ** 2
    n = field.dim
    if j == 0:
        # even parity: -d_tt + n d_rr with ghost u[-1] = u[1]
        phirr = 2.0 * (u[m, 1] - u[m, 0]) / dr ** 2
        return -phitt + n * phirr
    if j >= J:
        raise IndexError("outer boundary point without stencil support")
    phirr = (u[m, j + 1] - 2.0 * u[m, j] + u[m, j - 1]) / dr ** 2
    phir = (u[m, j + 1] - u[m, j - 1]) / (2.0 * dr)
    return -phitt + phirr + (n - 1) / field.r[j] * phir


def box_operator(field, t, r):
    """Radial wave operator -d_tt + d_rr + (n-1)/r d_r; the regularized form
    -d_tt + n d_rr on the axis."""
    if isinstance(field, ManufacturedField):
        return field.jet(t, r)[3]
    if isinstance(field, DiscreteField):
        m = field.nearest_level(float(t))
        if abs(field.times[m] - float(t)) > 1e-9 * max(1.0, abs(float(t))):
            raise ValueError("discrete box requires a stored time level")
        j = int(round(float(r) / field.dr))
        if abs(field.r[j] - float(r)) > 1e-9 * max(field.dr, 1.0):
            raise ValueError("discrete box requires a grid radius")
        return _discrete_box(field, m, j)
    raise TypeError(f"unsupported field type {type(field).__name__}")


def nonlinear_residual(field, potential: PotentialSpec, p, t, r):
    """box phi + V |phi|^{p-1} phi; zero for exact solutions."""
    return (box_operator(field, t, r)
            + potential.value(t, r) * signed_power(field.value(t, r), p))
