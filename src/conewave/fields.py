"""Field representations and the snapshot file format.

Two field kinds share one protocol of two methods: `jet(t, r)` returns
phi, phi_t and phi_r (and, for closed-form manufactured fields, the wave
operator) from one evaluation per batch of points, and `require_times(t)`
raises `LevelRangeError` unless the field covers every time in `t`.
Discrete radial space-time histories, read out to each level's wall limit,
are produced by the solver; snapshot files feed back into it as initial data.
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
    "ArgumentError",
    "gaussian_rows",
    "gaussian_pulse",
    "polynomial_gaussian",
    "traveling_bump",
    "signed_power",
    "read_snapshot",
]


class ArgumentError(ValueError):
    """A value a constructor refuses: `names`, the arguments its failed check
    read, then `detail` (`x must be <range>, got <value>`; `x, y: <why>`)."""

    def __init__(self, names, detail):
        self.names = names
        self.detail = (" " if len(names) == 1 else ": ") + detail
        super().__init__(", ".join(names) + self.detail)


def _require(ok, name, value, need):
    """Raises ArgumentError naming `name` unless `ok`, which NaN fails."""
    if not ok:
        raise ArgumentError((name,), f"must be {need}, got {value!r}")


def signed_power(phi, p):
    """|phi|^{p-1} phi for possibly non-integer p, continuous at 0 for p > 1."""
    phi = np.asarray(phi, dtype=float)
    return np.sign(phi) * np.abs(phi) ** p


# --------------------------------------------------------------------------
# Potential
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialSpec:
    """Bounded positive potential V = c0 + eps b: constant (`is_constant`)
    exactly when eps = 0, the bump then unread but checked.

    The bump profile is the unit-gradient gaussian
    b(t, r) = width sqrt(e) exp(-rho^2 / (2 width^2)), rho = dist to center,
    so sup|grad V| = |eps| exactly and the slab smallness condition reduces
    to |eps| t* <= alpha (checked by the CLI's `pot_alpha`).
    """

    c0: float = 1.0
    eps: float = 0.0
    center: tuple = (0.0, 0.0)  # (t, r)
    width: float = 1.0

    def __post_init__(self):
        positive = "finite and greater than 0"
        _require(0.0 < self.c0 < math.inf, "c0", self.c0, positive)
        for i, x in enumerate(self.center):
            _require(math.isfinite(x), f"center[{i}]", x, "finite")
        _require(0.0 < self.width < math.inf, "width", self.width, positive)
        amplitude = self.width * math.sqrt(math.e)  # the bump's maximum
        if not (self.is_constant or self.c0 - abs(self.eps) * amplitude > 0.0):
            raise ArgumentError(("c0", "eps", "width"),
                                "perturbation destroys positivity of V")

    @property
    def is_constant(self) -> bool:
        return self.eps == 0.0

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
        if self.is_constant:
            V = self.value(t, r)
            return V, np.zeros(V.shape), np.zeros(V.shape)
        b, dt, dr = self._bump(t, r)
        scale = -self.eps * b / self.width ** 2
        return self.c0 + self.eps * b, scale * dt, scale * dr

    def value(self, t, r):
        """V alone: the solver calls this every step and needs no gradient."""
        if self.is_constant:
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

    evaluate: Callable

    def require_times(self, t):
        """A closed form covers every time."""

    def jet(self, t, r):
        t = np.asarray(t, dtype=float)
        r = np.asarray(r, dtype=float)
        shape = np.broadcast(t, r).shape
        return self.evaluate(t, r if r.shape == shape
                             else np.broadcast_to(r, shape))


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

    return ManufacturedField(jet)


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

    return ManufacturedField(jet)


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

    return ManufacturedField(jet)


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


def _head_end(a, b):
    """Length of the leading run of cells where the float64 arrays a and b
    both equal their cell 0 bit for bit (-0.0 differs from +0.0), along
    the last axis: one length per row of (levels, cells) tables."""
    ua, ub = a.view(np.uint64), b.view(np.uint64)
    differ = (ua != ua[..., :1]) | (ub != ub[..., :1])
    # the cell past the end differs, so a run of every cell ends there
    end = np.ones(differ.shape[:-1] + (1,), dtype=bool)
    return np.concatenate([differ, end], axis=-1).argmax(axis=-1)


def _write_level(path, n, p, t, r_text, phi, phit, head):
    """One snapshot file with the `r` column given preformatted, one string
    per row.

    The level's `head` leading rows (`DiscreteField.head`: phi and phit
    equal their cell-0 values bit for bit, a blow-up run's ODE core) share
    one formatted ` phi phit` ending. The rows from there to the level's
    live edge are formatted a block at a time, so the formatted values held
    in memory stay bounded whatever the grid size; the rows from the edge
    on, where phi and phit are +0.0, are `r 0 0`."""
    edge = _live_end(phi, phit)
    head = min(head, edge)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{SNAPSHOT_HEADER}\n")
        handle.write(f"{n:d} {p:.17g} {t:.17g}\n")
        if head:
            row = " %.17g %.17g\n" % (phi[0].item(), phit[0].item())
            handle.write(row.join(r_text[:head] + [""]))
        for start in range(head, edge, SNAPSHOT_BLOCK_ROWS):
            stop = min(start + SNAPSHOT_BLOCK_ROWS, edge)
            values = [None] * (3 * (stop - start))
            values[0::3] = r_text[start:stop]
            values[1::3] = phi[start:stop].tolist()
            values[2::3] = phit[start:stop].tolist()
            handle.write(SNAPSHOT_ROW * (stop - start) % tuple(values))
        handle.write(" 0 0\n".join(r_text[edge:] + [""]))


def write_snapshots(directory, n, p, levels):
    """One text snapshot `snap_{m:04d}.dat` per level of the DiscreteField
    `levels`, from its own rows: header `# n p t`, rows `r phi phit` at 17
    significant digits, the `r` column formatted once for all.
    Rows past the last one where phi or phit is not +0.0 read `r 0 0`,
    written without formatting a value, so a level the data has not reached
    in full (the solver's causal window) costs little past its live edge;
    the leading rows that repeat the r = 0 values bit for bit (the ODE core
    of a blow-up run) format those values once. Returns the paths; an
    OSError names the file it could not write."""
    r_text = ["%.17g" % x for x in levels.r.tolist()]
    paths = []
    for m, (t, phi, phit) in enumerate(zip(levels.times.tolist(), levels.phi,
                                           levels.phi_t)):
        path = os.path.join(directory, f"snap_{m:04d}.dat")
        try:
            _write_level(path, n, p, t, r_text, phi, phit, levels.head[m])
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
    """A time outside a DiscreteField's levels or a radius past their limit."""


@dataclass
class DiscreteField:
    """Radial space-time history: uniform grid r_j = j dr, levels t_m with
    stored (phi, d_t phi); even extension across r = 0. A solver run
    returns its recorded levels as one, its own tables, with the wall limit
    of each level (`r_limit`, see `evolve`; the grid's end by default)."""

    times: np.ndarray          # (M,)
    r: np.ndarray              # (J+1,)
    phi: np.ndarray            # (M, J+1)
    phi_t: np.ndarray          # (M, J+1)
    r_limit: np.ndarray | None = None  # (M,)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.r = np.asarray(self.r, dtype=float)
        self.phi = np.ascontiguousarray(self.phi, dtype=float)
        self.phi_t = np.ascontiguousarray(self.phi_t, dtype=float)
        self.r_limit = np.asarray(self.r_limit if self.r_limit is not None
                                  else np.full(self.times.size, self.r[-1]))
        if not self.phi.shape == self.phi_t.shape == (self.times.size,
                                                       self.r.size):
            raise ValueError("phi or phi_t shape does not match (times, r)")
        if (self.r_limit.shape != (self.times.size,)
                or np.isnan(self.r_limit).any()):
            raise ValueError(f"r_limit must hold one limit per level and no "
                             f"NaN, got {self.r_limit.tolist()!r}")
        # relative only, so the check is the same at every scale; each r_j
        # of the solver's np.arange(J + 1) * dr rounds within R eps / 2, so
        # its spacings agree to within J eps (1.03e-9 at J = 6e6)
        dr = np.diff(self.r)
        rtol = max(1e-9, 2.0 * dr.size * np.finfo(float).eps)
        if self.r[0] != 0.0 or dr.size and not np.allclose(dr, dr[0], rtol=rtol,
                                                           atol=0.0):
            raise ValueError("radial grid must be uniform starting at r = 0")
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("time levels must be strictly increasing")

    @property
    def dr(self) -> float:
        return float(self.r[1] - self.r[0])

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

    @cached_property
    def head(self) -> np.ndarray:
        """Per level, the length of the leading run of cells where phi and
        phi_t equal cell 0 bit for bit (`_head_end`): a blow-up run's ODE
        core; built on first use. The snapshot writer formats its values
        once, and `jet` reads a row inside it at cell 0."""
        return _head_end(self.phi, self.phi_t)

    @cached_property
    def _head_reach(self) -> np.ndarray | None:
        """Per pair of levels m, m + 1 that a row combines (level 0 alone
        in a one-level field), head - 2 of the shorter head, or 0 where
        either level's cell 0 is not finite: an integer at most J - 1, so a
        row whose |r| / dr stays below it has its cells j = floor(|r| / dr)
        below it too and reads only cells j + 1 <= head - 2 of both, where
        phi_r is +0.0 and phi and phi_t equal cell 0. None if no row can,
        so that data with no head pay no test."""
        finite = np.isfinite(self.phi[:, 0]) & np.isfinite(self.phi_t[:, 0])
        reach = np.where(finite, self.head - 2, 0)
        if reach.size > 1:
            reach = np.minimum(reach[:-1], reach[1:])
        return reach if reach.max() > 0 else None

    # -- interpolating evaluation surface -------------------------------------
    # Linear in t, then linear in r, over the stored levels, vectorized over
    # broadcastable (t, r) arrays. Accuracy O(dt^2 + dr^2), matching the
    # solver order.

    def require_times(self, t):
        """Raises LevelRangeError naming the first time in `t` outside the
        stored levels, beyond a slack of 1e-9 times max(1, largest |level|)."""
        t = np.asarray(t, dtype=float)
        lo, hi = float(self.times[0]), float(self.times[-1])
        tol = 1e-9 * max(1.0, -lo, hi)  # the times increase
        outside = ~((lo - tol <= t) & (t <= hi + tol))  # NaN is outside
        if np.any(outside):
            raise LevelRangeError(f"time {float(t[outside][0])!r} outside the "
                                  f"stored range [{lo!r}, {hi!r}]")

    def require_radii(self, t, r):
        """Raises LevelRangeError naming the first point (t, r) whose radius
        is NaN or past the limit of the levels it reads (from t_m on, level
        m + 1's), beyond a slack of 1e-9 R; levels are looked up only past
        the least limit."""
        slack = 1e-9 * self.r[-1]
        if np.all(r <= self.r_limit.min() + slack):  # NaN is past
            return
        level = np.searchsorted(self.times, t, "right").clip(1)
        limit = self.r_limit[np.minimum(level, self.times.size - 1)]
        past = ~(r <= limit + slack)
        if np.any(past):
            t, r, limit = (float(a[past][0])
                           for a in np.broadcast_arrays(t, r, limit))
            where = ("is not a number" if math.isnan(r) else
                     "is past the levels' wall, which has reached the axis "
                     "by that time" if limit < 0 else
                     f"is past the levels' wall limit (r > {limit:g})")
            raise LevelRangeError(f"radius {r!r} at time {t!r} {where}")

    def jet(self, t, r):
        """(phi, phi_t, phi_r) at broadcastable (t, r). Each element of t
        (a row) combines its levels once, G = (1 - th) P[m] + th P[m + 1],
        over a window of cells that holds its points' cells; each point then
        reads G_j + fr (G_{j+1} - G_j). A (rows, 1) column and the same t in
        full give the same bits. The windows share one width, their starts
        clamped inside the table; past 2 cells per point, each point is its
        own row.

        A batch that gives r in full, with t of the same rank (a mesh's
        (rows, 1) column against (rows, m), points, a scalar), whose every
        row's largest |r| / dr is below its levels' `_head_reach` reads only
        cells equal to cell 0, so G_j = G_{j+1} = G_0: it reads one value
        per row, G_0 + (G_0 - G_0), the general formula's bits, returned
        t-shaped (a column on a mesh, the full shape on points). A change to
        how a row combines its levels must change this head read with it."""
        t, r = np.asarray(t, dtype=float), np.asarray(r, dtype=float)
        shape = np.broadcast_shapes(t.shape, r.shape)
        whole = t.ndim == r.ndim and r.shape == shape
        nd = max(len(shape), 1)  # a scalar batch runs as one point
        t, x = (a.reshape((1,) * (nd - a.ndim) + a.shape)
                for a in (t, np.abs(r)))  # x = |r|: the even extension
        self.require_times(t)
        self.require_radii(t, x)
        size = self.r.size
        if self.times.size == 1:
            m, th, step = np.zeros(t.shape, np.intp), np.zeros(t.shape), 0
        else:
            m = np.searchsorted(self.times, t, side="right") - 1
            np.minimum(np.maximum(m, 0, out=m), self.times.size - 2, out=m)
            th = (t - self.times[m]) / (self.times[m + 1] - self.times[m])
            np.minimum(np.maximum(th, 0.0, out=th), 1.0, out=th)
            step = size
        # the axes along which one element of t holds many points
        axes = tuple(a for a in range(nd) if t.shape[a] == 1 < x.shape[a])
        reach = self._head_reach if whole else None
        if reach is not None and (x.max(axis=axes, keepdims=True) / self.dr
                                  < reach[m]).all():
            idx, window = None, (m * size)[..., None]
        else:
            np.minimum(np.divide(x, self.dr, out=x), size - 1 - 1e-12, out=x)
            j = x.astype(np.intp)
            np.minimum(j, size - 2, out=j)
            fr = np.subtract(x, j, out=x)
            lo = j.min(axis=axes, keepdims=True)
            width = int((j.max(axis=axes, keepdims=True) - lo).max()) + 2
            full = np.broadcast_shapes(t.shape, j.shape)
            if t.size * width > 2 * math.prod(full):
                # one row per point reads faster, in less memory, than
                # windows this wide (crossover 2-4 cells per point, 2-core
                # Xeon)
                m, th, lo = (np.broadcast_to(a, full) for a in (m, th, j))
                width = 2
            start = np.minimum(lo, size - width)
            # flat index of each point's cell in the (m.size, width) tables
            idx = j + (np.arange(m.size).reshape(m.shape) * width - start)
            window = (m * size + start)[..., None] + np.arange(width)
        cth, th = (1.0 - th)[..., None], th[..., None]
        out = []
        for table in (self.phi, self.phi_t, self.phi_r):
            flat = table.ravel()
            rows = (flat.take(window) * cth
                    + flat[step:].take(window) * th).ravel()
            if idx is None:
                value = (rows + (rows - rows)).reshape(t.shape)
            else:
                value = np.subtract(rows[1:], rows[:-1]).take(idx)
                value *= fr
                value += rows.take(idx)
            out.append(value if shape else float(value[0]))
        return tuple(out)
