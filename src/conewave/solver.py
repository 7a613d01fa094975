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
from .fields import DiscreteField, PotentialSpec, _live_end, signed_power
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
    n: int = 3
    p: float = 2.0
    potential: PotentialSpec = field(default_factory=PotentialSpec.constant)
    R: float = 4.0
    J: int = 1024
    cfl: float = 0.9
    t0: float = -1.0
    t_end: float = 0.0
    phi_max: float = 1e6
    snapshot_times: tuple = ()
    linear: bool = False      # drop the nonlinear term (reference problems)
    record_energy: bool = False  # per-step energy trace, on request only

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("spatial dimension must be >= 1")
        if self.J < 8:
            raise ValueError("need at least 8 radial cells")
        if self.R <= 0:
            raise ValueError("domain radius must be positive")
        if self.t_end <= self.t0:
            raise ValueError("t_end must exceed t0")
        if self.phi_max <= 0:
            raise ValueError("blow-up threshold must be positive")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must be in (0, 1]")

    @property
    def dr(self) -> float:
        return self.R / self.J

    def stencil_speed_bound(self) -> float:
        """Upper bound on dr/dt before the operator norm is measured,
        from lam dr^2 <= max(4.9, 2.2 n)."""
        return max(1.0, math.sqrt(max(4.9, 2.2 * self.n)) / 2.0) / self.cfl

    def causal_radius(self, r_diag_max: float) -> float:
        """Least R whose Dirichlet wall, its influence moving at the stencil
        speed dr/dt, cannot reach the diagnostics out to r_diag_max."""
        return r_diag_max + (self.t_end - self.t0) * self.stencil_speed_bound()


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
    if V.kind != "constant":
        return V.value(t, r) * term
    if V.c0 != 1.0:
        np.multiply(term, V.c0, out=term)
    return term


def _operator_norm(s, vol, dr, J):
    """Deterministic power iteration for lam_max of -Lap_h (Dirichlet end)."""
    v = np.cos(np.pi * np.arange(J + 1))
    v[J] = 0.0
    v /= np.linalg.norm(v)
    lam = 4.0 / dr ** 2
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
    snapshots: list                  # [(t, phi, phi_t)], actual grid times
    config: SolverConfig
    dt: float
    max_phi: float
    energy_times: np.ndarray
    energy: np.ndarray
    steps: int

    @property
    def r(self) -> np.ndarray:
        """The radial grid of every level."""
        return np.arange(self.config.J + 1) * self.config.dr

    def field(self) -> DiscreteField:
        if not self.snapshots:
            raise ValueError("run recorded no snapshots")
        return DiscreteField.from_levels(self.snapshots, self.r)


def evolve(config: SolverConfig, data: InitialDataSpec) -> RunResult:
    """Leapfrog evolution; halts with status blew_up at the first step whose
    max |phi| exceeds the threshold. Outer boundary is homogeneous Dirichlet
    behind the causal buffer. Snapshots are recorded at the grid times
    nearest the requested ones, with centered d_t phi.

    The steps run on a causal window [0, e): every cell at index >= e is
    exactly +0.0 (bits; -0.0 is live) in the two newest levels. A step's
    stencil reads one cell to each side, so it maps +0.0 neighbourhoods to
    +0.0 and moves e by one cell, to at most J + 1; the cells past e are
    those the full-grid step would have left at +0.0, so every level is
    bit-for-bit the full-grid one. The start step is the loop's first, with
    phi0 as the newest level and phi_t0 in place of the oldest. The energy
    trace (whose pairwise sums group terms by array length) and the snapshot
    copies run on the full arrays."""
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

    # the last level is the last grid time <= t_end
    total_steps = int(math.floor((config.t_end - config.t0) / dt + 1e-9))
    targets = {}
    for t_req in config.snapshot_times:
        m = int(round((t_req - config.t0) / dt))
        if t_req <= config.t_end:
            m = min(m, total_steps)
        if 0 <= m <= total_steps:
            targets.setdefault(m, t_req)

    snapshots = []
    energy_t, energy_v = [], []

    if 0 in targets:
        snapshots.append((config.t0, phi0.copy(), phit0.copy()))

    def record_energy(u1, u0, tm):
        du = (u1 - u0) / dt
        kin = float(np.dot(vol, du * du))
        grad = float(np.sum(s[:-1] * (u1[1:] - u1[:-1]) * (u0[1:] - u0[:-1])) / dr)
        if config.linear:
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
    pending = None  # snapshot waiting for the next level's centered phi_t
    e = _live_end(phi0, phit0)  # the causal window's end

    # overflow is reported by the finiteness test below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        while m < total_steps:
            # a step moves the window end by one cell; the Laplacian of the
            # last cell inside the window reads cur[e]
            e = min(J + 1, e + 1)
            k = min(e + 1, J + 1)
            _laplacian(cur[:k], s[:k], vol[:k], dr, force[:k], flux[:k - 1])
            f = force[:e]
            if not config.linear:
                np.add(f, _nonlinear_term(V, config.p, t, r[:e], cur[:e],
                                          mag[:e], work[:e]), out=f)
            x = nxt[:e]
            if m == 0:
                # second-order start: (phi0 + dt phit0) + dt^2/2 force
                np.multiply(phit0[:e], dt, out=x)
                np.add(cur[:e], x, out=x)
                np.multiply(f, 0.5 * dt * dt, out=f)
            else:
                # (2 cur - prev) + dt^2 force, in the order of the plain
                # expression
                np.multiply(cur[:e], 2.0, out=x)
                np.subtract(x, prev[:e], out=x)
                np.multiply(f, dt * dt, out=f)
            np.add(x, f, out=x)
            nxt[J] = 0.0
            # the max of |nxt| is non-finite iff some entry is; past the
            # window |nxt| and mag are +0.0
            peak = float(np.abs(x, out=mag[:e]).max())
            if not math.isfinite(peak):
                bad = int(np.argmax(~np.isfinite(nxt)))
                raise FloatingPointError(
                    f"non-finite solver value at t={t + dt:.6g}, r={r[bad]:.6g} "
                    f"before the blow-up threshold was reached")
            if pending is not None:
                snapshots.append((pending[1], cur.copy(),
                                  (nxt - prev) / (2.0 * dt)))
                pending = None
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
            if m in targets:
                pending = (m, t)

    if pending is not None:
        # one-sided time derivative at the final recorded level
        snapshots.append((pending[1], cur.copy(), (cur - prev) / dt))

    return RunResult(status, t_blowup, snapshots, config, dt, max_phi,
                     np.asarray(energy_t), np.asarray(energy_v), m)


def blowup_estimate(coarse: RunResult, fine: RunResult) -> float:
    """Richardson extrapolation of the first-crossing times across two grids
    (fine must have twice the resolution of coarse)."""
    if coarse.t_blowup is None or fine.t_blowup is None:
        raise ValueError("both runs must have blown up")
    return 2.0 * fine.t_blowup - coarse.t_blowup


def finite_speed_check(result: RunResult, support_radius: float):
    """(ok, witness): ok is True iff every recorded level vanishes (to
    1e-12) outside the expanded support r <= R0 + (t - t0) (dr/dt) + 2 dr,
    None if no level has a cell outside it; a failure names (t, r, phi).

    The propagation coefficient is the stencil speed dr/dt, which makes the
    bound exact: untouched cells stay identically +0.0, the invariant of
    `evolve`'s causal window, which moves one cell per step. The scheme runs
    with dt < dr whenever the radial operator norm demands it, and then the
    unit-speed cone is provably leaky at the 1e-5 level for data that is
    only C^2 at its support edge, so a unit coefficient would reject
    correct runs.
    """
    cfg, r = result.config, result.r
    speed = cfg.dr / result.dt
    checked = False
    for (t, phi, _) in result.snapshots:
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
        if not run.snapshots:
            raise ValueError(f"run at J={J} recorded no snapshot near t_ref")
        t, phi, _ = run.snapshots[0]
        r = run.r
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
