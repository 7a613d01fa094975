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
from dataclasses import dataclass, field

import numpy as np

from .exact_solutions import InitialDataSpec
from .fields import DiscreteField, PotentialSpec, signed_power
from .geometry import sphere_area

__all__ = [
    "SolverConfig",
    "RunResult",
    "evolve",
    "convergence_study",
    "finite_speed_check",
    "blowup_estimate",
    "run_summary_csv",
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

    @property
    def dr(self) -> float:
        return self.R / self.J

    def stencil_speed_bound(self) -> float:
        """Upper bound on dr/dt before the operator norm is measured,
        from lam dr^2 <= max(4.9, 2.2 n)."""
        return max(1.0, math.sqrt(max(4.9, 2.2 * self.n)) / 2.0) / self.cfl

    def causal_buffer_ok(self, r_diag_max: float) -> bool:
        """Outer boundary causally disconnected from the diagnostics: the
        Dirichlet wall's influence travels at the stencil speed dr/dt."""
        return self.R >= r_diag_max + (self.t_end - self.t0) * self.stencil_speed_bound()


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


def _operator_norm(s, vol, dr, J, iters=200):
    """Deterministic power iteration for lam_max of -Lap_h (Dirichlet end)."""
    v = np.cos(np.pi * np.arange(J + 1))
    v[J] = 0.0
    v /= np.linalg.norm(v)
    lam = 4.0 / dr ** 2
    w = np.empty_like(v)
    flux = np.empty(J)
    for _ in range(iters):
        np.negative(_laplacian(v, s, vol, dr, w, flux), out=w)
        w[J] = 0.0
        lam = float(np.linalg.norm(w))
        np.divide(w, lam, out=v)
    return lam * 1.005  # small safety margin on top of the estimate


@dataclass
class RunResult:
    status: str                      # completed | blew_up | cfl_violation
    t_blowup: float | None
    snapshots: list                  # [(t, phi, phi_t)], actual grid times
    blow_surface: np.ndarray         # first crossing time per radius, +inf if none
    config: SolverConfig
    dt: float
    max_phi: float
    energy_times: np.ndarray
    energy: np.ndarray
    steps: int

    def field(self) -> DiscreteField:
        if not self.snapshots:
            raise ValueError("run recorded no snapshots")
        r = np.arange(self.config.J + 1) * self.config.dr
        return DiscreteField.from_levels(self.snapshots, r, self.config.n)


def run_summary_csv(result: RunResult) -> str:
    header = "status,t_b,J,dt,max_phi"
    tb = result.t_blowup if result.t_blowup is not None else math.nan
    row = (f"{result.status},{tb:.17g},{result.config.J},"
           f"{result.dt:.17g},{result.max_phi:.17g}")
    return header + "\n" + row + "\n"


def evolve(config: SolverConfig, data: InitialDataSpec) -> RunResult:
    """Leapfrog evolution; halts with status blew_up at the first step whose
    max |phi| exceeds the threshold. Outer boundary is homogeneous Dirichlet
    behind the causal buffer. Snapshots are recorded at the grid times
    nearest the requested ones, with centered d_t phi."""
    if config.cfl > 1.0 or config.cfl <= 0.0:
        return RunResult("cfl_violation", None, [], np.array([]), config,
                         0.0, math.nan, np.array([]), np.array([]), 0)
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
    blow_time = np.full(J + 1, math.inf)
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
    # next step's nonlinear term reads), and three levels
    force = np.empty(J + 1)
    flux = np.empty(J)
    work = np.empty(J + 1)
    mag = np.empty(J + 1)
    prev, cur, nxt = phi0, np.empty(J + 1), np.empty(J + 1)

    m = 0
    t = config.t0
    max_phi = float(np.abs(phi0, out=mag).max())
    status = "completed"
    t_blowup = None
    pending = None  # snapshot waiting for the next level's centered phi_t

    # overflow is reported by the finiteness test below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if total_steps > 0:
            # second-order start
            _laplacian(phi0, s, vol, dr, force, flux)
            if not config.linear:
                np.add(force, _nonlinear_term(V, config.p, t, r, phi0, mag, work),
                       out=force)
            np.multiply(phit0, dt, out=cur)
            np.add(phi0, cur, out=cur)
            np.multiply(force, 0.5 * dt * dt, out=force)
            np.add(cur, force, out=cur)
            cur[J] = 0.0
            m = 1
            t = config.t0 + dt
            peak = float(np.abs(cur, out=mag).max())
            max_phi = max(max_phi, peak)

            if config.record_energy:
                record_energy(cur, prev, config.t0 + 0.5 * dt)

            if peak > config.phi_max:
                blow_time[mag > config.phi_max] = t
                status, t_blowup = "blew_up", t
            elif m in targets:
                pending = (m, t)

        while status == "completed" and m < total_steps:
            _laplacian(cur, s, vol, dr, force, flux)
            if not config.linear:
                np.add(force, _nonlinear_term(V, config.p, t, r, cur, mag, work),
                       out=force)
            # (2 cur - prev) + dt^2 force, in the order of the plain expression
            np.multiply(cur, 2.0, out=nxt)
            np.subtract(nxt, prev, out=nxt)
            np.multiply(force, dt * dt, out=force)
            np.add(nxt, force, out=nxt)
            nxt[J] = 0.0
            # the max of |nxt| is non-finite iff some entry is
            peak = float(np.abs(nxt, out=mag).max())
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
                record_energy(cur, prev, t - 0.5 * dt)
            if peak > config.phi_max:
                # the run stops at its first crossing, so only this level crosses
                blow_time[mag > config.phi_max] = t
                status, t_blowup = "blew_up", t
                break
            if m in targets:
                pending = (m, t)

    if pending is not None:
        # one-sided time derivative at the final recorded level
        snapshots.append((pending[1], cur.copy(), (cur - prev) / dt))

    return RunResult(status, t_blowup, snapshots, blow_time, config, dt,
                     max_phi, np.asarray(energy_t), np.asarray(energy_v), m)


def blowup_estimate(coarse: RunResult, fine: RunResult) -> float:
    """Richardson extrapolation of the first-crossing times across two grids
    (fine must have twice the resolution of coarse)."""
    if coarse.t_blowup is None or fine.t_blowup is None:
        raise ValueError("both runs must have blown up")
    return 2.0 * fine.t_blowup - coarse.t_blowup


def finite_speed_check(result: RunResult, support_radius: float,
                       tol: float = 1e-12):
    """True iff every recorded level vanishes (to tol) outside the expanded
    support r <= R0 + (t - t0) (dr/dt) + 2 dr.

    The propagation coefficient is the stencil speed dr/dt, which makes the
    bound exact (untouched cells stay identically zero): the scheme runs
    with dt < dr whenever the radial operator norm demands it, and then the
    unit-speed cone is provably leaky at the 1e-5 level for data that is
    only C^2 at its support edge, so a unit coefficient would reject
    correct runs.
    """
    cfg = result.config
    r = np.arange(cfg.J + 1) * cfg.dr
    speed = cfg.dr / result.dt
    for (t, phi, _) in result.snapshots:
        bound = support_radius + (t - cfg.t0) * speed + 2.0 * cfg.dr
        outside = np.abs(phi[r > bound])
        if outside.size and outside.max() > tol:
            j = int(np.argmax(np.abs(phi) * (r > bound)))
            return False, (t, float(r[j]), float(phi[j]))
    return True, None


def convergence_study(config: SolverConfig, data: InitialDataSpec, levels,
                      reference, t_ref: float, core_radius: float):
    """Fitted convergence order of the weighted core L2 error at the grid
    time nearest t_ref on each level.

    `reference` is a callable (t, r) -> exact phi, or the string
    "self", which compares each level against the finest one.
    """
    if len(levels) < 2:
        raise ValueError("need at least two resolution levels")
    levels = sorted(levels)
    errors = []
    drs = []
    runs = {}
    for J in levels:
        cfg = SolverConfig(
            n=config.n, p=config.p, potential=config.potential, R=config.R,
            J=J, cfl=config.cfl, t0=config.t0, t_end=config.t_end,
            phi_max=config.phi_max, snapshot_times=(t_ref,),
            linear=config.linear)
        runs[J] = evolve(cfg, data)
        if not runs[J].snapshots:
            raise ValueError(f"run at J={J} recorded no snapshot near t_ref")

    def core_error(J, ref_fn):
        t, phi, _ = runs[J].snapshots[0]
        dr = config.R / J
        r = np.arange(J + 1) * dr
        mask = r < core_radius
        diff = phi[mask] - ref_fn(t, r[mask])
        w = r[mask] ** (config.n - 1) * dr
        return math.sqrt(float(np.sum(diff * diff * w)))

    if reference == "self":
        fine = runs[levels[-1]]
        tf, phif, _ = fine.snapshots[0]
        rf = np.arange(levels[-1] + 1) * (config.R / levels[-1])

        def ref_fn(t, r):
            return np.interp(r, rf, phif)

        fit_levels = levels[:-1]
    else:
        ref_fn = reference
        fit_levels = levels

    for J in fit_levels:
        errors.append(core_error(J, ref_fn))
        drs.append(config.R / J)
    if min(errors) == 0.0:
        # exact reproduction (e.g. zero data): no rate to fit
        return math.nan, dict(zip(fit_levels, errors))
    logs = np.log(np.asarray(drs))
    loge = np.log(np.asarray(errors))
    slope = float(np.polyfit(logs, loge, 1)[0])
    return slope, dict(zip(fit_levels, errors))
