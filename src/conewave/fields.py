"""Field representations and the snapshot file format.

Two field kinds share one protocol: `jet(t, r)` returns phi, phi_t and
phi_r (and, for closed-form manufactured fields, the wave operator) from
one evaluation per batch of points, `value(t, r)` returns phi alone, and
`require_times(t)` raises `LevelRangeError` unless the field covers every
time in `t`. Discrete radial space-time histories are produced by the
solver; snapshot files feed back into it as initial data.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "PotentialSpec",
    "ManufacturedField",
    "DiscreteField",
    "LevelRangeError",
    "gaussian_rows",
    "gaussian_pulse",
    "polynomial_gaussian",
    "traveling_bump",
    "signed_power",
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
    to |eps| t* <= alpha (checked by the CLI's `pot_alpha`).
    """

    kind: str = "constant"
    c0: float = 1.0
    eps: float = 0.0
    center: tuple = (0.0, 0.0)  # (t, r)
    width: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "perturbed"):
            raise ValueError("potential kind must be constant or perturbed")
        if self.c0 <= 0.0:
            raise ValueError("base level must be positive")
        if self.kind == "perturbed":
            if self.width <= 0.0:
                raise ValueError("bump width must be positive")
            amplitude = self.width * math.sqrt(math.e)  # the bump's maximum
            if self.c0 - abs(self.eps) * amplitude <= 0.0:
                raise ValueError("perturbation destroys positivity of V")

    @classmethod
    def constant(cls, c0=1.0):
        return cls(kind="constant", c0=c0)

    def _bump(self, t, r):
        """(b, t - tc, r - rc) of the perturbed potential."""
        tc, rc = self.center
        dt = np.asarray(t, dtype=float) - tc
        dr = np.asarray(r, dtype=float) - rc
        rho2 = dt ** 2 + dr ** 2
        b = self.width * math.sqrt(math.e) * np.exp(-rho2 / (2.0 * self.width ** 2))
        return b, dt, dr

    def jet(self, t, r):
        """(V, d_t V, d_r V) from one evaluation of the bump."""
        if self.kind == "constant":
            V = self.value(t, r)
            return V, np.zeros(V.shape), np.zeros(V.shape)
        b, dt, dr = self._bump(t, r)
        scale = -self.eps * b / self.width ** 2
        return self.c0 + self.eps * b, scale * dt, scale * dr

    def value(self, t, r):
        """V alone: the solver calls this every step and needs no gradient."""
        if self.kind == "constant":
            return np.full(np.broadcast(np.asarray(t), np.asarray(r)).shape,
                           self.c0)
        return self.c0 + self.eps * self._bump(t, r)[0]


# --------------------------------------------------------------------------
# Manufactured fields
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ManufacturedField:
    """Closed-form radial field with analytic first derivatives and wave
    operator box = -d_tt + d_rr + (n-1)/r d_r (regularized at r = 0).

    `evaluate(t, r)` returns the jet (phi, phi_t, phi_r, box) from one
    evaluation of the field's profile, each array of the broadcast shape
    of (t, r); r comes broadcast to that shape, so the profile may work in
    place on arrays derived from it."""

    dim: int
    evaluate: Callable

    def require_times(self, t):
        """A closed form covers every time."""

    def jet(self, t, r):
        t = np.asarray(t, dtype=float)
        r = np.asarray(r, dtype=float)
        shape = np.broadcast(t, r).shape
        return self.evaluate(t, r if r.shape == shape
                             else np.broadcast_to(r, shape))

    def value(self, t, r):
        return self.jet(t, r)[0]


def gaussian_rows(amplitude, t_center, t_width):
    """The t-only factors of a gaussian A exp(-(t - tc)^2 / (2 wt^2)) g_r(r):
    rows(t) gives that t factor, phi_t / phi and -phi_tt / phi, one
    evaluation per mesh row when t is a (rows, 1) column."""
    kt = 1.0 / t_width ** 2

    def rows(t):
        dt = t - t_center
        ct = -kt * dt
        return amplitude * np.exp(0.5 * ct * dt), ct, kt - ct * ct

    return rows


def gaussian_pulse(n=3, amplitude=1.0, t_center=0.0, t_width=1.0, r_width=1.0):
    """Even-in-r separable gaussian, C^infty including the axis."""
    A, tc, wt, wr = float(amplitude), float(t_center), float(t_width), float(r_width)
    rows = gaussian_rows(A, tc, wt)
    kr = 1.0 / wr ** 2
    hr, kr2 = -0.5 * kr, kr * kr

    def jet(t, r):
        et, ct, bt = rows(t)
        x2 = r * r
        g = np.exp(x2 * hr)
        g *= et
        phi_r = r * -kr
        phi_r *= g
        # (n-1)/r d_r phi = -(n-1)/wr^2 phi exactly: folded into the row
        # constant, so the axis is regular
        x2 *= kr2
        x2 += bt - n * kr
        x2 *= g
        return g, ct * g, phi_r, x2

    return ManufacturedField(n, jet)


def polynomial_gaussian(n=3, amplitude=1.0, t_center=0.0, t_width=1.0,
                        r_width=1.0, c1=0.0, c2=0.0):
    """Separable gaussian-polynomial product, quadratic factor in t."""
    A, tc, wt, wr = float(amplitude), float(t_center), float(t_width), float(r_width)
    base = gaussian_pulse(n, A, tc, wt, wr)

    def jet(t, r):
        g, gt, phi_r, box = base.evaluate(t, r)
        dt = t - tc
        q = 1.0 + c1 * dt + c2 * (dt * dt)
        dq = c1 + 2.0 * c2 * dt
        # box(q g) = q box g - q'' g - 2 q' g_t
        box *= q
        box -= (2.0 * c2) * g
        box -= (2.0 * dq) * gt
        phi_r *= q
        gt *= q
        gt += dq * g
        g *= q
        return g, gt, phi_r, box

    return ManufacturedField(n, jet)


def traveling_bump(n=3, amplitude=1.0, speed=0.5, offset=2.0, width=0.3):
    """Radially traveling gaussian bump; not even in r, keep it off the axis."""
    A, v, d, w = float(amplitude), float(speed), float(offset), float(width)
    k = 1.0 / (w * w)
    h, k2, sv = -0.5 * k, k * k, 1.0 - v * v

    def jet(t, r):
        x = r - (v * t + d)
        x2 = x * x
        g = np.exp(x2 * h)
        g *= A
        x *= -k
        x *= g                      # phi_r
        x2 *= k2
        x2 -= k
        x2 *= g                     # phi_rr, and phi_tt = v^2 phi_rr
        x2 *= sv
        x2 += (n - 1) / r * x
        return g, -v * x, x, x2

    return ManufacturedField(n, jet)


# --------------------------------------------------------------------------
# Discrete fields and the snapshot format
# --------------------------------------------------------------------------

SNAPSHOT_HEADER = "# n p t"
SNAPSHOT_ROW = "%s %.17g %.17g\n"  # r comes preformatted
SNAPSHOT_BLOCK_ROWS = 1024


def _live_end(a, b):
    """One past the last index where the float64 arrays a or b are not +0.0
    bit for bit (-0.0 and NaN count as live); 0 if there is none."""
    live = np.flatnonzero(a.view(np.uint64) | b.view(np.uint64))
    return int(live[-1]) + 1 if live.size else 0


def _grid_text(r):
    """The `r` column of a snapshot, one string per row."""
    return ["%.17g" % x for x in np.asarray(r, dtype=float).tolist()]


def _write_level(path, n, p, t, r_text, phi, phit):
    """One snapshot file with the `r` column given as `_grid_text(r)`.

    Rows before the level's live edge are formatted a block at a time, so
    the text held in memory stays bounded whatever the grid size; the rows
    from the edge on, where phi and phit are +0.0, are `r 0 0`."""
    if not len(r_text) == len(phi) == len(phit):
        raise ValueError("r, phi and phit differ in length")
    edge = _live_end(phi, phit)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{SNAPSHOT_HEADER}\n")
        handle.write(f"{n:d} {p:.17g} {t:.17g}\n")
        for start in range(0, edge, SNAPSHOT_BLOCK_ROWS):
            stop = min(start + SNAPSHOT_BLOCK_ROWS, edge)
            values = [None] * (3 * (stop - start))
            values[0::3] = r_text[start:stop]
            values[1::3] = phi[start:stop].tolist()
            values[2::3] = phit[start:stop].tolist()
            handle.write(SNAPSHOT_ROW * (stop - start) % tuple(values))
        handle.write(" 0 0\n".join(r_text[edge:] + [""]))


def write_snapshots(directory, n, p, r, levels):
    """One text snapshot `snap_{m:04d}.dat` per level (t, phi, phit) of
    `levels`, from the level's own arrays: header `# n p t`, rows `r phi
    phit` at 17 significant digits, the `r` column formatted once for all.
    Rows past the last one where phi or phit is not +0.0 read `r 0 0`,
    written without formatting a value, so a level the data has not reached
    in full (the solver's causal window) costs little past its live edge.
    Returns the paths; an OSError names the file it could not write."""
    r_text = _grid_text(r)
    paths = []
    for m, (t, phi, phit) in enumerate(levels):
        path = os.path.join(directory, f"snap_{m:04d}.dat")
        try:
            _write_level(path, n, p, t, r_text, np.asarray(phi, dtype=float),
                         np.asarray(phit, dtype=float))
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc}") from exc
        paths.append(path)
    return paths


def read_snapshot(path):
    """Returns (n, p, t, r, phi, phit) of a valid level: the header, the
    line `n p t`, then at least two rows `r phi phit` of finite numbers
    with r strictly increasing from 0; anything else is a ValueError."""
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip()
        if header != SNAPSHOT_HEADER:
            raise ValueError(f"bad snapshot header {header!r}")
        first = handle.readline().split()
        if len(first) != 3:
            raise ValueError(f"snapshot line 2 must read `n p t`, got "
                             f"{' '.join(first)!r}")
        n, p, t = int(first[0]), float(first[1]), float(first[2])
        rows = [line for line in handle if line.partition("#")[0].strip()]
    # loadtxt warns on a body without rows
    data = np.loadtxt(rows, ndmin=2) if rows else np.empty((0, 3))
    if data.shape[0] < 2 or data.shape[1] != 3:
        raise ValueError(f"snapshot rows must be `r phi phit`, at least two: "
                         f"got {data.shape[0]} rows of {data.shape[1]}")
    if not (math.isfinite(p) and math.isfinite(t) and np.isfinite(data).all()):
        raise ValueError("snapshot holds a non-finite value")
    if data[0, 0] != 0.0:
        raise ValueError(f"snapshot radii must start at r = 0, got "
                         f"{float(data[0, 0])!r}")
    if np.any(np.diff(data[:, 0]) <= 0.0):
        raise ValueError("snapshot radii must be strictly increasing")
    return n, p, t, data[:, 0].copy(), data[:, 1].copy(), data[:, 2].copy()


class LevelRangeError(ValueError):
    """A time outside the levels a DiscreteField stores."""


@dataclass
class DiscreteField:
    """Radial space-time history: uniform grid r_j = j dr, levels t_m with
    stored (phi, d_t phi); even extension across r = 0."""

    times: np.ndarray          # (M,)
    r: np.ndarray              # (J+1,)
    phi: np.ndarray            # (M, J+1)
    phi_t: np.ndarray          # (M, J+1)

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
    def from_levels(cls, levels, r):
        """levels: iterable of (t, phi_array, phit_array)."""
        levels = sorted(levels, key=lambda row: row[0])
        times = np.array([row[0] for row in levels])
        phi = np.vstack([row[1] for row in levels])
        phit = np.vstack([row[2] for row in levels])
        return cls(times, np.asarray(r, dtype=float), phi, phit)

    @cached_property
    def phi_r(self) -> np.ndarray:
        """Centered radial derivative of every level, even at the axis,
        one-sided at the outer end; built on first use."""
        u, h = self.phi, 2.0 * self.dr
        out = np.empty_like(u)
        out[:, 0] = 0.0
        inner = out[:, 1:-1]
        np.subtract(u[:, 2:], u[:, :-2], out=inner)
        np.divide(inner, h, out=inner)
        out[:, -1] = (3.0 * u[:, -1] - 4.0 * u[:, -2] + u[:, -3]) / h
        return out

    # -- interpolating evaluation surface -------------------------------------
    # Bilinear in (t, r) over the stored levels, vectorized over arbitrary
    # broadcastable (t, r) arrays. Accuracy O(dt^2 + dr^2), matching the
    # solver order.

    def require_times(self, t):
        """Raises LevelRangeError naming the first time in `t` outside the
        stored levels, beyond a slack of 1e-9 times max(1, largest |level|)."""
        t = np.asarray(t, dtype=float)
        lo, hi = float(self.times[0]), float(self.times[-1])
        tol = 1e-9 * max(1.0, float(np.abs(self.times).max()))
        outside = ~((lo - tol <= t) & (t <= hi + tol))  # NaN is outside
        if np.any(outside):
            raise LevelRangeError(f"time {float(t[outside][0])!r} outside the "
                                  f"stored range [{lo!r}, {hi!r}]")

    def _locate(self, t, r):
        """Bilinear stencil of a batch of points: flat table indices of the
        lower-left corners, the row step to the level above (r.size, 0 with
        a single level) and the weights (1 - fr, fr, 1 - th, th).

        t and r need only broadcast: the time work (level, th, row offsets)
        runs on t's own shape, so a (rows, 1) column of times costs one
        search per row, and only the radial work runs per point."""
        t = np.asarray(t, dtype=float)
        r = np.abs(np.asarray(r, dtype=float))  # even extension
        self.require_times(t)
        if np.any(r > self.r[-1] + 1e-9 * self.r[-1]):
            raise ValueError("radius outside the stored grid")
        if self.times.size == 1:
            m = np.zeros(t.shape, dtype=int)
            th, step = np.zeros(t.shape), 0
        else:
            m = np.clip(np.searchsorted(self.times, t, side="right") - 1,
                        0, self.times.size - 2)
            th = np.clip((t - self.times[m])
                         / (self.times[m + 1] - self.times[m]), 0.0, 1.0)
            step = self.r.size
        x = np.clip(r / self.dr, 0.0, self.r.size - 1 - 1e-12)
        j = np.minimum(x.astype(int), self.r.size - 2)
        fr = x - j
        return m * self.r.size + j, step, 1.0 - fr, fr, 1.0 - th, th

    @staticmethod
    def _interp(table, stencil):
        """The four corners through shifted views of the flat table, the
        weights applied in place."""
        idx, step, cfr, fr, cth, th = stencil
        flat = table.ravel()
        lo, hi = flat.take(idx), flat[step:].take(idx)
        lo *= cfr
        lo += flat[1:].take(idx) * fr
        hi *= cfr
        hi += flat[step + 1:].take(idx) * fr
        lo *= cth
        hi *= th
        lo += hi
        return lo if lo.shape else float(lo)

    def value(self, t, r):
        return self._interp(self.phi, self._locate(t, r))

    def jet(self, t, r):
        """(phi, phi_t, phi_r) from one stencil per batch of points."""
        stencil = self._locate(t, r)
        return tuple(self._interp(table, stencil) for table in
                     (self.phi, self.phi_t, self.phi_r))

