"""Explicit radial evolution of d_tt phi = Lap phi + V |phi|^{p-1} phi with
blow-up detection, snapshot recording, and convergence studies.

The radial Laplacian is discretized in conservative flux form

  (Lap_h u)_j = [ s_{j+1/2} (u_{j+1}-u_j)/dr - s_{j-1/2} (u_j-u_{j-1})/dr ] / V_j,

s = r^{n-1} at half nodes and V_j the exact cell volume of r^{n-1} dr; it is
second order, self-adjoint in the cell-volume inner product (so the
staggered leapfrog energy of the linear part is conserved to round-off),
and at the axis reduces to the parity-regularized 2n (u_1 - u_0)/dr^2.

The time step is c * min(dr, 2/sqrt(lam_max)) where lam_max is the measured
operator norm of -Lap_h: the nominal dt = c dr is unstable for n >= 2
because the axis row pushes lam_max above 4/dr^2 (2n/dr^2 at the axis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .exact_solutions import InitialDataSpec
from .fields import (ArgumentError, DiscreteField, PotentialSpec, _head_end,
                     _live_end, _require, signed_power)
from .quadrature import sphere_area

__all__ = [
    "SolverConfig",
    "RunResult",
    "evolve",
    "convergence_study",
    "finite_speed_check",
    "blowup_estimate",
]


@dataclass(frozen=True)
class SolverConfig:
    """A run's problem, grid and recording; `potential` None is a linear
    run (no nonlinear term, for reference problems)."""

    n: int = 3
    p: float = 2.0
    potential: PotentialSpec | None = field(default_factory=PotentialSpec)
    R: float = 4.0
    J: int = 1024
    cfl: float = 0.9
    t0: float = -1.0
    t_end: float = 0.0
    phi_max: float = 1e6
    snapshot_times: tuple = ()
    record_energy: bool = False  # per-step energy trace, on request only

    def __post_init__(self):
        for ok, name, need in (
                (self.n >= 1, "n", "at least 1"),
                (1.0 < self.p < math.inf, "p", "finite and greater than 1"),
                (0.0 < self.R < math.inf, "R", "finite and greater than 0"),
                (self.J >= 8, "J", "at least 8"),
                (0.0 < self.cfl <= 1.0, "cfl", "in (0, 1]"),
                (math.isfinite(self.t0), "t0", "finite"),
                (math.isfinite(self.t_end), "t_end", "finite"),
                (self.phi_max > 0.0, "phi_max", "greater than 0"),
                (all(map(math.isfinite, self.snapshot_times)), "snapshot_times",
                 "each finite")):
            _require(ok, name, getattr(self, name), need)
        if not self.t0 < self.t_end:
            raise ArgumentError(("t0", "t_end"), "need t0 < t_end")
        if not math.isfinite(self.t_end - self.t0):
            raise ArgumentError(("t0", "t_end"),
                                "t_end - t0 must be finite, got inf")
        for t in self.snapshot_times:
            if not self.in_span(t):
                raise ArgumentError(("t0", "t_end", "snapshot_times"), (
                    f"snapshot time {float(t)!r} outside [t0, t_end] = "
                    f"[{self.t0!r}, {self.t_end!r}]"))
        # the steps divide by the cell volumes and scale by the areas, and
        # the power iteration squares lam, which lies between 1/dr^2 and
        # max(4.9, 2.2 n)/dr^2
        with np.errstate(all="ignore"):
            lam = np.array([1.0, max(4.9, 2.2 * self.n)]) / np.float64(self.dr) ** 2
            weights = np.concatenate(_radial_operator(self.n, self.J, self.dr)
                                     + (lam * lam,))
            # at lam's upper bound the run's dt = cfl min(dr, 2/sqrt(lam)) is
            # least, so the run takes at most `steps` steps
            steps = (self.t_end - self.t0) / (
                self.cfl * np.minimum(self.dr, 2.0 / np.sqrt(lam[1])))
        if not np.all((np.finfo(float).tiny <= weights) & (weights < math.inf)):
            raise ArgumentError(("n", "R", "J"), (
                "the half-node areas r^(n-1) or cell volumes of the radial "
                "grid, or the square of its operator scale 1/dr^2, leave the "
                "normal float range"))
        if not math.isfinite(steps):
            raise ArgumentError(("n", "R", "J", "cfl", "t0", "t_end"), (
                f"t_end - t0 = {self.t_end - self.t0!r} spans {steps} steps "
                f"of dt, more than a float counts"))

    @property
    def dr(self) -> float:
        return self.R / self.J

    def in_span(self, t) -> bool:
        """Whether t is in [t0, t_end] up to 1e-9 relative, for rounded ends."""
        tol = 1e-9 * max(1.0, abs(self.t0), abs(self.t_end))
        return self.t0 - tol <= t <= self.t_end + tol


def _radial_operator(n, J, dr):
    """Conservative radial Laplacian pieces: half-node areas and cell volumes."""
    rh = (np.arange(J + 1) + 0.5) * dr
    s = rh ** (n - 1)
    edges = np.concatenate(([0.0], rh))
    vol = (edges[1:] ** n - edges[:-1] ** n) / n
    return s, vol


def _laplacian(u, s, vol, dr, out, flux):
    """Writes Lap_h u into `out` (zero at the Dirichlet end), using `flux`
    (J entries) as scratch; the operations and their order are those of
    the plain flux-difference formula, so the result is bit-for-bit the
    same as evaluating it with temporaries."""
    np.subtract(u[1:], u[:-1], out=flux)
    np.multiply(s[:-1], flux, out=flux)
    np.divide(flux, dr, out=flux)
    out[0] = flux[0] / vol[0]
    np.subtract(flux[1:], flux[:-1], out=out[1:-1])
    np.divide(out[1:-1], vol[1:-1], out=out[1:-1])
    out[-1] = 0.0
    return out


def _nonlinear_term(V, p, t, r, u, absu, work):
    """V |u|^{p-1} u, given absu = |u|. For p = 2 it is (u + 0) |u|, written
    into `work`: that rounds like sign(u) |u|**2 bit for bit, the + 0 mapping
    u = -0.0 to +0.0 as sign() does."""
    if p == 2.0:
        term = np.multiply(np.add(u, 0.0, out=work), absu, out=work)
    else:
        term = signed_power(u, p)
    if not V.is_constant:
        return V.value(t, r) * term
    if V.c0 != 1.0:
        np.multiply(term, V.c0, out=term)
    return term


def _operator_norm(s, vol, dr, J):
    """Deterministic power iteration for lam_max of -Lap_h (Dirichlet end)."""
    v = np.cos(np.pi * np.arange(J + 1))
    v[J] = 0.0
    v /= np.linalg.norm(v)
    w = np.empty_like(v)
    flux = np.empty(J)
    for _ in range(200):
        np.negative(_laplacian(v, s, vol, dr, w, flux), out=w)
        w[J] = 0.0
        lam = float(np.linalg.norm(w))
        np.divide(w, lam, out=v)
    return lam * 1.005  # small safety margin on top of the estimate


@dataclass
class RunResult:
    status: str                      # completed | blew_up
    t_blowup: float | None
    levels: DiscreteField | None     # recorded levels at their grid times
    config: SolverConfig
    dt: float
    max_phi: float
    energy_times: np.ndarray
    energy: np.ndarray
    steps: int


def evolve(config: SolverConfig, data: InitialDataSpec) -> RunResult:
    """Leapfrog evolution; halts with status blew_up at the first step whose
    max |phi| exceeds the threshold. Outer boundary is homogeneous Dirichlet
    at R. The levels at the grid times nearest the requested ones are
    recorded by step, each into its own row of the returned field's tables
    (`levels`, None if there is none): step k at t0 + k dt (t0 at k = 0),
    with d_t phi centered, the data's at k = 0 and one-sided at the end of
    a completed run; a level past the threshold is not recorded. The level
    of step k has the wall limit (J - k - 2) dr (`r_limit`): the wall at J
    reaches one cell a step, so cells J - k on, and phi_t (steps k +- 1)
    and phi_r from J - k - 1 on, may differ from a run with a farther wall;
    a read at r takes cells floor(r/dr) and floor(r/dr) + 1.

    The steps run on a causal window [0, e): every cell at index >= e is
    exactly +0.0 (bits; -0.0 is live) in the two newest levels. A step's
    stencil reads one cell to each side, so it maps +0.0 neighbourhoods to
    +0.0 and moves e by one cell, to at most J + 1; the cells past e are
    those the full-grid step would have left at +0.0, so every level is
    bit-for-bit the full-grid one. The start step is the loop's first, with
    phi0 as the newest level and phi_t0 in place of the oldest. The energy
    trace (whose pairwise sums group terms by array length) and the recorded
    rows run on the full arrays.

    With a constant potential, or none, the steps also skip the head
    [0, c): the leading cells that equal cell 0 bit for bit in the two
    newest levels, the ODE core of truncated-ODE data. The Laplacian of
    equal neighbours is exactly +0.0 (x - x is +0.0 for finite x, and so
    is the axis row's 2n (u_1 - u_0)/dr^2), so every cell whose stencil
    lies in the head takes the same next value: the head shrinks by at
    most one cell per step, and a step computes [lo, e) with lo <= c - 2
    and copies cell lo into [0, lo). An r-dependent potential breaks the
    homogeneity, so there c is 0."""
    n, J, dr = config.n, config.J, config.dr
    s, vol = _radial_operator(n, J, dr)
    lam = _operator_norm(s, vol, dr, J)
    dt = config.cfl * min(dr, 2.0 / math.sqrt(lam))
    r = np.arange(J + 1) * dr

    phi0, phit0 = data.evaluate(config.t0, r)
    phi0 = np.asarray(phi0, dtype=float).copy()
    phit0 = np.asarray(phit0, dtype=float).copy()
    phi0[J] = 0.0

    V = config.potential

    # the last level is the last grid time <= t_end; the config holds each
    # snapshot time in [t0, t_end] up to a slack, which takes the end level
    total_steps = int(math.floor((config.t_end - config.t0) / dt + 1e-9))
    targets = {min(max(int(round((t - config.t0) / dt)), 0), total_steps)
               for t in config.snapshot_times}

    # one row per target, an upper bound: a blow-up can stop the run first
    steps = []  # the step of each recorded row
    phi = np.empty((len(targets), J + 1))
    phi_t = np.empty((len(targets), J + 1))
    energy_t, energy_v = [], []

    if 0 in targets:
        steps.append(0)
        phi[0] = phi0
        phi_t[0] = phit0

    def record(k, u, later, earlier, span):
        """Level u of step k into the next row, with d_t phi the
        difference quotient (later - earlier) / span."""
        row = len(steps)
        steps.append(k)
        phi[row] = u
        np.subtract(later, earlier, out=phi_t[row])
        np.divide(phi_t[row], span, out=phi_t[row])

    def record_energy(u1, u0, tm):
        du = (u1 - u0) / dt
        kin = float(np.dot(vol, du * du))
        grad = float(np.sum(s[:-1] * (u1[1:] - u1[:-1]) * (u0[1:] - u0[:-1])) / dr)
        if V is None:
            pot = 0.0
        else:
            Vm = V.value(tm, r)
            pot = float(np.dot(vol, Vm * (np.abs(u1) ** (config.p + 1)
                                          + np.abs(u0) ** (config.p + 1))))
            pot /= (config.p + 1.0)
        energy_t.append(tm)
        energy_v.append(sphere_area(n) * (kin + grad - pot))

    # step buffers: the force Lap_h u + V |u|^{p-1} u, the flux and
    # nonlinear-term scratch, |phi| of the newest level (`mag`, which the
    # next step's nonlinear term reads), and three levels; `prev` and `nxt`
    # start at +0.0 because the steps write only the causal window
    force = np.empty(J + 1)
    flux = np.empty(J)
    work = np.empty(J + 1)
    mag = np.empty(J + 1)
    prev, cur, nxt = np.zeros(J + 1), phi0, np.zeros(J + 1)

    m = 0
    t = config.t0
    max_phi = float(np.abs(phi0, out=mag).max())
    status = "completed"
    t_blowup = None
    e = _live_end(phi0, phit0)  # the causal window's end
    c = _head_end(phi0, phit0) if V is None or V.is_constant else 0  # head end

    # overflow is reported by the finiteness test below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        while m < total_steps:
            # a step moves the window end by one cell; the Laplacian of the
            # last cell inside the window reads cur[e]. Cells [lo, e) are
            # computed, lo's stencil inside the head; the Laplacian slice
            # starts a cell earlier for lo's left flux, and that cell's
            # axis-formula value is discarded
            e = min(J + 1, e + 1)
            k = min(e + 1, J + 1)
            lo = max(0, min(c - 2, e - 1))
            a = max(0, lo - 1)
            _laplacian(cur[a:k], s[a:k], vol[a:k], dr, force[a:k],
                       flux[a:k - 1])
            f = force[lo:e]
            if V is not None:
                np.add(f, _nonlinear_term(V, config.p, t, r[lo:e], cur[lo:e],
                                          mag[lo:e], work[lo:e]), out=f)
            x = nxt[lo:e]
            if m == 0:
                # second-order start: (phi0 + dt phit0) + dt^2/2 force
                np.multiply(phit0[lo:e], dt, out=x)
                np.add(cur[lo:e], x, out=x)
                np.multiply(f, 0.5 * dt * dt, out=f)
            else:
                # (2 cur - prev) + dt^2 force, in the order of the plain
                # expression
                np.multiply(cur[lo:e], 2.0, out=x)
                np.subtract(x, prev[lo:e], out=x)
                np.multiply(f, dt * dt, out=f)
            np.add(x, f, out=x)
            nxt[J] = 0.0
            # the max of |nxt| is non-finite iff some entry is; past the
            # window |nxt| and mag are +0.0, and the head repeats cell lo
            peak = float(np.abs(x, out=mag[lo:e]).max())
            # filled before the test, which names the first non-finite cell
            nxt[:lo] = nxt[lo]
            mag[:lo] = mag[lo]
            c -= 1
            if not math.isfinite(peak):
                bad = int(np.argmax(~np.isfinite(nxt)))
                raise FloatingPointError(
                    f"non-finite solver value at t={t + dt:.6g}, r={r[bad]:.6g} "
                    f"before the blow-up threshold was reached")
            if m in targets and m > 0:
                record(m, cur, nxt, prev, 2.0 * dt)
            prev, cur, nxt = cur, nxt, prev
            m += 1
            t = config.t0 + m * dt
            max_phi = max(max_phi, peak)
            if config.record_energy:
                # t0 + dt/2 at m = 1, where (t0 + dt) - dt/2 may round apart
                record_energy(cur, prev, t - 0.5 * dt if m > 1
                              else config.t0 + 0.5 * dt)
            if peak > config.phi_max:
                status, t_blowup = "blew_up", t
                break

    if status == "completed" and m in targets and m > 0:
        # one-sided time derivative at the final level
        record(m, cur, cur, prev, dt)

    # rows past the recorded ones stay unread; level 0 keeps t0's own bits
    # (-0.0 + 0.0 would be +0.0)
    count = len(steps)
    levels = (DiscreteField([config.t0 + k * dt if k else config.t0
                             for k in steps], r, phi[:count], phi_t[:count],
                            [(J - k - 2) * dr for k in steps])
              if count else None)
    return RunResult(status, t_blowup, levels, config, dt, max_phi,
                     np.asarray(energy_t), np.asarray(energy_v), m)


def blowup_estimate(coarse: RunResult, fine: RunResult) -> float:
    """Richardson extrapolation of the first-crossing times across two grids:
    fine must be coarse's run at twice its J, nothing else changed."""
    if fine.config != replace(coarse.config, J=2 * coarse.config.J):
        raise ValueError("the fine run must be the coarse run at twice its J")
    if coarse.t_blowup is None or fine.t_blowup is None:
        raise ValueError("both runs must have blown up")
    return 2.0 * fine.t_blowup - coarse.t_blowup


def finite_speed_check(result: RunResult, support_radius: float | None):
    """(ok, witness): ok is True iff every recorded level vanishes (to
    1e-12) outside the expanded support r <= R0 + (t - t0) (dr/dt) + 2 dr,
    None if no level has a cell outside it or the support radius R0 is
    None (unknown); a failure names (t, r, phi).

    The propagation coefficient is the stencil speed dr/dt, which makes the
    bound exact: untouched cells stay identically +0.0, the invariant of
    `evolve`'s causal window, which moves one cell per step. The scheme runs
    with dt < dr whenever the radial operator norm demands it, and then the
    unit-speed cone is provably leaky at the 1e-5 level for data that is
    only C^2 at its support edge, so a unit coefficient would reject
    correct runs.
    """
    cfg, levels = result.config, result.levels
    if levels is None or support_radius is None:
        return None, None
    r, speed = levels.r, cfg.dr / result.dt
    checked = False
    for t, phi in zip(levels.times.tolist(), levels.phi):
        bound = support_radius + (t - cfg.t0) * speed + 2.0 * cfg.dr
        outside = np.abs(phi[r > bound])
        if outside.size and outside.max() > 1e-12:
            j = int(np.argmax(np.abs(phi) * (r > bound)))
            return False, (t, float(r[j]), float(phi[j]))
        checked = checked or outside.size > 0
    return checked or None, None


def convergence_study(config: SolverConfig, data: InitialDataSpec, levels,
                      reference, t_ref: float, core_radius: float):
    """Fitted convergence order of the weighted core L2 error against
    `reference`, a callable (t, r) -> exact phi, at the grid time nearest
    t_ref on each level."""
    if len(levels) < 2:
        raise ValueError("need at least two resolution levels")
    if len(set(levels)) < len(levels):
        raise ValueError("resolution levels must be distinct")
    levels = sorted(levels)
    errors = []
    for J in levels:
        run = evolve(replace(config, J=J, snapshot_times=(t_ref,),
                             record_energy=False), data)
        if run.levels is None:
            raise ValueError(f"run at J={J} recorded no snapshot near t_ref")
        t, r, phi = run.levels.times.item(0), run.levels.r, run.levels.phi[0]
        run.levels.require_radii(t, core_radius)
        mask = r < core_radius
        diff = phi[mask] - reference(t, r[mask])
        w = r[mask] ** (config.n - 1) * run.config.dr
        errors.append(math.sqrt(float(np.sum(diff * diff * w))))
    if min(errors) == 0.0:
        # exact reproduction (e.g. zero data): no rate to fit
        return math.nan, dict(zip(levels, errors))
    logs = np.log(np.asarray([config.R / J for J in levels]))
    loge = np.log(np.asarray(errors))
    slope = float(np.polyfit(logs, loge, 1)[0])
    return slope, dict(zip(levels, errors))
