import math

import numpy as np
import pytest

from conewave.exact_solutions import InitialDataSpec, OdeSolution, smoothstep
from conewave.fields import PotentialSpec, signed_power
from conewave.quadrature import sphere_area
from conewave.solver import (
    RunResult,
    SolverConfig,
    _nonlinear_term,
    _radial_operator,
    blowup_estimate,
    convergence_study,
    evolve,
    finite_speed_check,
)
from tests_helpers import write_level


def zero_data():
    return InitialDataSpec.gaussian(0.0, 0.5)


def _plain_laplacian(u, s, vol, dr):
    flux = s[:-1] * (u[1:] - u[:-1]) / dr
    out = np.zeros_like(u)
    out[0] = flux[0] / vol[0]
    out[1:-1] = (flux[1:] - flux[:-1]) / vol[1:-1]
    return out


def reference_evolve(cfg, data):
    """The leapfrog written with plain allocating expressions, keeping every
    level: what the buffered kernel of `evolve` must reproduce bit for bit.
    Returns (snapshots, max_phi, t_blowup, dt, energy)."""
    n, J, dr = cfg.n, cfg.J, cfg.dr
    s, vol = _radial_operator(n, J, dr)
    v = np.cos(np.pi * np.arange(J + 1))
    v[J] = 0.0
    v /= np.linalg.norm(v)
    for _ in range(200):
        w = -_plain_laplacian(v, s, vol, dr)
        w[J] = 0.0
        lam = float(np.linalg.norm(w))
        v = w / lam
    dt = cfg.cfl * min(dr, 2.0 / math.sqrt(lam * 1.005))
    r = np.arange(J + 1) * dr
    phi0, phit0 = data.evaluate(cfg.t0, r)
    phi0 = np.asarray(phi0, dtype=float).copy()
    phit0 = np.asarray(phit0, dtype=float)
    phi0[J] = 0.0
    V = cfg.potential

    def force(t, u):
        out = _plain_laplacian(u, s, vol, dr)
        if not cfg.linear:
            out = out + V.value(t, r) * signed_power(u, cfg.p)
        return out

    def energy(u1, u0, tm):
        du = (u1 - u0) / dt
        kin = float(np.dot(vol, du * du))
        grad = float(np.sum(s[:-1] * (u1[1:] - u1[:-1]) * (u0[1:] - u0[:-1])) / dr)
        pot = 0.0
        if not cfg.linear:
            pot = float(np.dot(vol, V.value(tm, r) * (np.abs(u1) ** (cfg.p + 1)
                                                      + np.abs(u0) ** (cfg.p + 1))))
            pot /= (cfg.p + 1.0)
        return sphere_area(n) * (kin + grad - pot)

    total = int(math.floor((cfg.t_end - cfg.t0) / dt + 1e-9))
    first = phi0 + dt * phit0 + 0.5 * dt * dt * force(cfg.t0, phi0)
    first[J] = 0.0
    levels, times = [phi0, first], [cfg.t0, cfg.t0 + dt]
    trace = [energy(first, phi0, cfg.t0 + 0.5 * dt)]
    while np.abs(levels[-1]).max() <= cfg.phi_max and len(levels) <= total:
        m = len(levels) - 1
        nxt = 2.0 * levels[m] - levels[m - 1] + dt * dt * force(times[m], levels[m])
        nxt[J] = 0.0
        levels.append(nxt)
        times.append(cfg.t0 + (m + 1) * dt)
        trace.append(energy(nxt, levels[m], times[-1] - 0.5 * dt))
    last = len(levels) - 1
    blown = np.abs(levels[last]).max() > cfg.phi_max

    wanted = set()
    for t_req in cfg.snapshot_times:
        m = int(round((t_req - cfg.t0) / dt))
        if t_req <= cfg.t_end:
            m = min(m, total)
        wanted.add(m)
    snapshots = []
    for m in sorted(wanted):
        if m == 0:
            snapshots.append((cfg.t0, phi0, phit0))
        elif 0 < m < last:
            snapshots.append((times[m], levels[m],
                              (levels[m + 1] - levels[m - 1]) / (2.0 * dt)))
        elif m == last and not blown:
            snapshots.append((times[m], levels[m],
                              (levels[m] - levels[m - 1]) / dt))
    max_phi = max(float(np.abs(u).max()) for u in levels)
    t_blowup = times[last] if blown else None
    return snapshots, max_phi, t_blowup, dt, np.asarray(trace)


KERNEL_CASES = {
    "p2_unit_constant": (
        SolverConfig(n=3, p=2.0, J=400, R=6.0, t0=-1.0, t_end=0.5,
                     snapshot_times=(-1.0, -0.6, -0.2, -0.03)),
        InitialDataSpec.truncated_ode(2.0, 0.25)),
    "p2_scaled_constant": (
        SolverConfig(n=3, p=2.0, J=400, R=6.0, t0=-1.0, t_end=-0.1,
                     potential=PotentialSpec.constant(0.7),
                     snapshot_times=(-0.7, -0.3, -0.1)),
        InitialDataSpec.truncated_ode(2.0, 0.25)),
    "p2_blowup_at_first_step": (
        SolverConfig(n=3, p=2.0, J=400, R=6.0, t0=-1.0, t_end=0.5,
                     phi_max=5.0, snapshot_times=(-1.0, -0.5)),
        InitialDataSpec.truncated_ode(2.0, 0.25)),
    "p2.5_perturbed": (
        SolverConfig(n=3, p=2.5, J=400, R=6.0, t0=-1.0, t_end=0.5,
                     potential=PotentialSpec("perturbed", 1.0, 0.2,
                                             (-0.5, 0.3), 0.5),
                     snapshot_times=(-0.8, -0.4)),
        InitialDataSpec.truncated_ode(2.0, 0.25, p=2.5)),
    "linear": (
        SolverConfig(n=1, p=2.0, J=250, R=15.0, t0=0.0, t_end=4.0,
                     linear=True, snapshot_times=(1.0, 2.5, 4.0)),
        InitialDataSpec.gaussian(1e-3, 0.5)),
    "energy_trace": (
        SolverConfig(n=3, p=2.0, J=256, R=24.0, t0=1.0, t_end=5.0,
                     record_energy=True, snapshot_times=(2.0, 5.0)),
        InitialDataSpec.gaussian(1e-3, 0.5)),
    # the trace's pairwise sums run on the full arrays, the steps on the
    # causal window of the compact data, up to the blow-up
    "energy_trace_blowup": (
        SolverConfig(n=3, p=2.0, J=300, R=6.0, t0=-1.0, t_end=0.5,
                     record_energy=True, snapshot_times=(-0.9, -0.2)),
        InitialDataSpec.truncated_ode(2.0, 0.25)),
}


def assert_same_bits(got, want):
    # array_equal takes -0.0 == +0.0; the written snapshots do not
    assert np.array_equal(got, want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_buffered_kernel_matches_plain_leapfrog_bitwise(name):
    assert_matches_reference(*KERNEL_CASES[name])


def assert_matches_reference(cfg, data):
    """evolve(cfg, data) equals reference_evolve bit for bit; returns the run."""
    res = evolve(cfg, data)
    snapshots, max_phi, t_blowup, dt, trace = reference_evolve(cfg, data)
    assert res.dt == dt
    assert res.max_phi == max_phi
    assert res.t_blowup == t_blowup
    assert len(res.snapshots) == len(snapshots) >= 1
    for got, want in zip(res.snapshots, snapshots):
        assert got[0] == want[0]
        assert_same_bits(got[1], want[1])
        assert_same_bits(got[2], want[2])
    if cfg.record_energy:
        assert_same_bits(res.energy, trace)
        assert len(res.energy_times) == len(trace)
    else:
        assert res.energy.size == 0
    return res


def test_causal_window_that_saturates_matches_plain_leapfrog_bitwise():
    # compact data whose front reaches the Dirichlet end long before t_end:
    # the window grows to the whole grid inside the one step loop
    cfg = SolverConfig(n=3, p=2.0, J=96, R=3.0, t0=0.0, t_end=3.0,
                       snapshot_times=(0.0, 0.2, 1.0, 3.0))
    data = InitialDataSpec.gaussian(1e-3, 0.2)
    assert data.support_radius < 0.5 * cfg.R
    res = assert_matches_reference(cfg, data)
    assert res.status == "completed" and res.steps > cfg.J
    first, last = res.snapshots[0][1], res.snapshots[-1][1]
    assert not first[cfg.J // 2:].any()
    assert last[cfg.J - 1] != 0.0  # live next to the Dirichlet end


def test_negative_zero_tail_of_start_data_matches_plain_leapfrog_bitwise(tmp_path):
    # -0.0 is live: a start level read from a snapshot file whose tail
    # prints as -0 must step like the full grid, with no stale -0.0 left in
    # the cells of a window that took it for +0.0
    J, R = 128, 6.0
    r = np.arange(J + 1) * (R / J)
    phi = 1e-3 * (1.0 - smoothstep(r - 1.0))
    phi[r >= 2.0] = -0.0
    path = write_level(tmp_path, 3, 2.0, -1.0, r, phi, np.zeros_like(r))
    assert "\n6 -0 0\n" in path.read_text()
    data = InitialDataSpec("file", path=str(path))
    probe = SolverConfig(n=3, p=2.0, J=J, R=R, t0=-1.0, t_end=-0.5)
    dt = evolve(probe, data).dt
    # the first levels: a window that missed the -0.0 cells would leave
    # them stale there
    cfg = SolverConfig(n=3, p=2.0, J=J, R=R, t0=-1.0, t_end=-0.5,
                       snapshot_times=tuple(-1.0 + m * dt for m in range(6)))
    res = assert_matches_reference(cfg, data)
    assert len(res.snapshots) == 6
    assert np.signbit(res.snapshots[0][1][J - 1])
    assert not np.signbit(res.snapshots[2][1][J - 1])


@pytest.mark.parametrize("p, potential", [
    (2.0, PotentialSpec.constant()),
    (2.0, PotentialSpec.constant(0.7)),
    (2.5, PotentialSpec.constant(0.7)),
    (2.0, PotentialSpec("perturbed", 1.0, 0.2, (-0.5, 0.3), 0.5)),
])
def test_nonlinear_term_matches_signed_power_bitwise(p, potential):
    # signed zeros, subnormals, squares that underflow or overflow
    u = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-170, -1e-170, 1e-150,
                  -1e-150, 0.3, -0.3, 7.5, -7.5, 1e155, -1e155])
    r = np.linspace(0.0, 1.0, u.size)
    with np.errstate(over="ignore", under="ignore"):
        want = potential.value(-0.4, r) * signed_power(u, p)
        got = _nonlinear_term(potential, p, -0.4, r, u, np.abs(u),
                              np.empty_like(u))
    assert_same_bits(got, want)


def test_energy_trace_is_opt_in():
    assert SolverConfig().record_energy is False


@pytest.mark.parametrize("J", [300, 512, 1024, 2048])
def test_last_level_not_past_t_end(J):
    # with a threshold out of reach the run ends at t_end, not a step past
    # it, and a snapshot requested at t_end is kept
    cfg = SolverConfig(n=3, p=2.0, J=J, R=4.0, t0=-1.0, t_end=0.0,
                       phi_max=1e300, snapshot_times=(0.0,))
    res = evolve(cfg, InitialDataSpec.truncated_ode(2.0, 0.25))
    assert res.status == "completed"
    t_last = cfg.t0 + res.steps * res.dt
    assert t_last <= cfg.t_end + 1e-12
    assert t_last + res.dt > cfg.t_end
    assert [t for t, _, _ in res.snapshots] == [t_last]


def test_interval_shorter_than_one_step_takes_no_step():
    cfg = SolverConfig(n=3, J=64, R=4.0, t0=0.0, t_end=1e-3,
                       snapshot_times=(0.0, 1e-3))
    res = evolve(cfg, InitialDataSpec.gaussian(1e-3, 0.5))
    assert res.dt > cfg.t_end - cfg.t0
    assert res.status == "completed" and res.steps == 0
    assert [t for t, _, _ in res.snapshots] == [0.0]


class TestEvolveBasics:
    def test_zero_data_completes_with_zero_field(self):
        cfg = SolverConfig(n=3, J=64, R=4.0, t0=0.0, t_end=0.5,
                           snapshot_times=(0.0, 0.25, 0.5))
        res = evolve(cfg, zero_data())
        assert res.status == "completed"
        for (_, phi, phit) in res.snapshots:
            assert np.all(phi == 0.0) and np.all(phit == 0.0)

    def test_cfl_violation_status(self):
        # a cfl outside (0, 1] is rejected with the config, as the other
        # fields are; no run reaches the solver with it
        for cfl in (1.5, 0.0, -0.5):
            with pytest.raises(ValueError, match="cfl"):
                SolverConfig(n=1, J=64, R=4.0, t0=0.0, t_end=0.5, cfl=cfl)

    def test_snapshots_at_nearest_grid_times(self):
        cfg = SolverConfig(n=1, J=64, R=4.0, t0=0.0, t_end=1.0,
                           snapshot_times=(0.333, 0.666))
        res = evolve(cfg, zero_data())
        assert len(res.snapshots) == 2
        for (t, _, _), req in zip(res.snapshots, (0.333, 0.666)):
            assert abs(t - req) <= 0.5 * res.dt + 1e-12

    def test_blowup_truncated_ode(self):
        cfg = SolverConfig(n=3, p=2.0, J=512, R=4.0, t0=-1.0, t_end=0.5)
        res = evolve(cfg, InitialDataSpec.truncated_ode(2.0, 0.25))
        assert res.status == "blew_up"
        assert abs(res.t_blowup) <= 0.05
        # the run stops at the step of the first crossing
        assert res.max_phi > cfg.phi_max
        assert res.t_blowup == cfg.t0 + res.steps * res.dt

    def test_snapshot_files_feed_back_as_initial_data(self, tmp_path):
        # write run snapshots, reload as a field, and restart from one level
        cfg = SolverConfig(n=3, p=2.0, J=256, R=8.0, t0=-1.0, t_end=-0.4,
                           snapshot_times=(-0.8, -0.6), record_energy=False)
        res = evolve(cfg, InitialDataSpec.truncated_ode(2.0, 0.25))
        from conewave.fields import DiscreteField, read_snapshot, write_snapshots

        paths = write_snapshots(str(tmp_path), cfg.n, cfg.p, res.r,
                                res.snapshots)

        rows = [read_snapshot(path) for path in paths]  # (n, p, t, r, phi, phit)
        reloaded = DiscreteField.from_levels(
            [(t, phi, phit) for _, _, t, _, phi, phit in rows], rows[0][3])
        np.testing.assert_array_equal(reloaded.phi, res.field().phi)
        restart = InitialDataSpec("file", path=paths[0])
        cfg2 = SolverConfig(n=3, p=2.0, J=256, R=8.0, t0=res.snapshots[0][0],
                            t_end=-0.4, snapshot_times=(-0.6,),
                            record_energy=False)
        res2 = evolve(cfg2, restart)
        assert res2.status == "completed"
        # restarted core agrees with the original run to discretization error
        t2, phi2, _ = res2.snapshots[0]
        t1, phi1, _ = res.snapshots[1]
        assert abs(phi2[0] - phi1[0]) <= 5e-3 * abs(phi1[0])


@pytest.fixture(scope="module")
def decay_result():
    cfg = SolverConfig(n=3, p=2.0, J=512, R=24.0, t0=1.0, t_end=9.0,
                       snapshot_times=tuple(np.linspace(1.0, 9.0, 17)),
                       record_energy=True)
    return evolve(cfg, InitialDataSpec.gaussian(1e-3, 0.5))


@pytest.fixture(scope="module")
def blowup_runs():
    out = {}
    for J in (512, 1024, 2048):
        cfg = SolverConfig(n=3, p=2.0, J=J, R=4.0, t0=-1.0, t_end=0.5,
                           record_energy=False)
        out[J] = evolve(cfg, InitialDataSpec.truncated_ode(2.0, 0.25))
    return out


class TestDecayRun:
    def test_completes_and_amplitude_decays(self, decay_result):
        assert decay_result.status == "completed"
        first = np.abs(decay_result.snapshots[0][1]).max()
        last = np.abs(decay_result.snapshots[-1][1]).max()
        assert last < 0.5 * first

    def test_discrete_energy_nonincreasing_per_step(self, decay_result):
        E = decay_result.energy
        rel_increase = np.diff(E) / np.abs(E[:-1])
        assert rel_increase.max() <= 1e-6

    def test_finite_speed(self, decay_result):
        ok, witness = finite_speed_check(decay_result, 3.0)
        assert ok, witness


class TestFiniteSpeed:
    def test_zero_data_true(self):
        cfg = SolverConfig(n=1, J=128, R=8.0, t0=0.0, t_end=2.0,
                           snapshot_times=(1.0, 2.0))
        res = evolve(cfg, zero_data())
        ok, _ = finite_speed_check(res, 0.0)
        assert ok

    def test_gaussian_true_on_blowup_side(self):
        cfg = SolverConfig(n=3, J=512, R=8.0, t0=-1.0, t_end=-0.2,
                           snapshot_times=(-0.6, -0.3))
        data = InitialDataSpec.truncated_ode(2.0, 0.25)
        res = evolve(cfg, data)
        ok, witness = finite_speed_check(res, data.support_radius)
        assert ok, witness

    def test_injected_noise_detected(self):
        cfg = SolverConfig(n=1, J=128, R=8.0, t0=0.0, t_end=1.0,
                           snapshot_times=(0.5,))
        res = evolve(cfg, zero_data())
        t, phi, phit = res.snapshots[0]
        phi = phi.copy()
        phi[-3] = 1e-6  # far-field contamination
        tampered = RunResult(res.status, res.t_blowup, [(t, phi, phit)],
                             res.config, res.dt, res.max_phi,
                             res.energy_times, res.energy, res.steps)
        ok, witness = finite_speed_check(tampered, 0.5)
        assert not ok
        assert witness is not None and abs(witness[2]) == 1e-6


class TestCoreTracking:
    def test_core_follows_ode_within_one_percent(self):
        # homogeneous core: phi(t, 0) tracks C(-t)^{-k} within 1% until the
        # value reaches 1e3
        cfg = SolverConfig(n=3, p=2.0, J=4096, R=4.0, t0=-1.0, t_end=0.2,
                           phi_max=1e3, record_energy=False)
        res = evolve(cfg, InitialDataSpec.truncated_ode(2.0, 0.25))
        assert res.status == "blew_up"
        # replay the run's core against the solution using recorded t_b
        sol = OdeSolution(2.0)
        # sample a few interior checkpoints by rerunning with snapshots
        cfg2 = SolverConfig(n=3, p=2.0, J=4096, R=4.0, t0=-1.0, t_end=0.2,
                            phi_max=1e3, record_energy=False,
                            snapshot_times=(-0.5, -0.2, -0.1))
        res2 = evolve(cfg2, InitialDataSpec.truncated_ode(2.0, 0.25))
        for (t, phi, _) in res2.snapshots:
            exact = float(sol.value(t))
            assert abs(phi[0] - exact) <= 0.01 * exact


class TestBlowupRefinement:
    def test_crossing_gap_shrinks_monotonically(self, blowup_runs):
        t_exact = OdeSolution(2.0).threshold_crossing(1e6)
        gaps = [abs(blowup_runs[J].t_blowup - t_exact)
                for J in (512, 1024, 2048)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_richardson_estimate_hits_ode_crossing(self, blowup_runs):
        # the raw crossing carries O(dt) quantization jitter (the field
        # grows by orders of magnitude per step at the threshold), so the
        # extrapolant is asserted within one coarse step of the ODE crossing
        # and strictly better than the raw coarse estimate
        t_exact = OdeSolution(2.0).threshold_crossing(1e6)
        for coarse, fine in ((512, 1024), (1024, 2048)):
            est = blowup_estimate(blowup_runs[coarse], blowup_runs[fine])
            assert abs(est - t_exact) <= blowup_runs[coarse].dt
            assert abs(est - t_exact) < abs(blowup_runs[coarse].t_blowup - t_exact)


class TestConvergence:
    def test_ode_reference_second_order(self):
        cfg = SolverConfig(n=3, p=2.0, R=4.0, t0=-1.0, t_end=0.0,
                           record_energy=False)
        data = InitialDataSpec.truncated_ode(2.0, 0.25)
        sol = OdeSolution(2.0)
        order, errors = convergence_study(
            cfg, data, (256, 512, 1024),
            reference=lambda t, r: float(sol.value(t)) + 0.0 * r,
            t_ref=-0.2, core_radius=0.5)
        assert order == pytest.approx(2.0, abs=0.3)
        vals = list(errors.values())
        assert vals[0] > vals[1] > vals[2]

    def test_dalembert_linear_second_order(self):
        # linear wave in n = 1 with d'Alembert reference
        # phi(t, r) = (g(r - t) + g(r + t))/2 for even g, zero velocity
        s = 0.5

        def g(u):
            u = np.abs(np.asarray(u, dtype=float))
            ramp = 1.0 - smoothstep((u - 5 * s) / s)
            return 1e-3 * np.exp(-u * u / (2 * s * s)) * ramp

        cfg = SolverConfig(n=1, p=2.0, R=16.0, t0=0.0, t_end=4.0,
                           linear=True, record_energy=False)
        data = InitialDataSpec.gaussian(1e-3, s)
        order, _ = convergence_study(
            cfg, data, (256, 512, 1024),
            reference=lambda t, r: 0.5 * (g(r - t) + g(r + t)),
            t_ref=3.0, core_radius=8.0)
        assert order == pytest.approx(2.0, abs=0.3)

    def test_zero_data_zero_error(self):
        cfg = SolverConfig(n=3, p=2.0, R=4.0, t0=0.0, t_end=0.5,
                           record_energy=False)
        _, errors = convergence_study(
            cfg, zero_data(), (64, 128, 256),
            reference=lambda t, r: 0.0 * r, t_ref=0.25, core_radius=1.0)
        assert all(v == 0.0 for v in errors.values())

    def test_needs_two_levels(self):
        cfg = SolverConfig(n=1, J=64, R=4.0, t0=0.0, t_end=0.5)
        with pytest.raises(ValueError):
            convergence_study(cfg, zero_data(), (64,),
                              lambda t, r: 0.0 * r, 0.2, 1.0)

    def test_repeated_levels_are_rejected(self):
        # before, (64, 64) fitted a slope through two equal abscissae and
        # (64, 64, 128) counted the 64 run twice
        cfg = SolverConfig(n=1, J=64, R=4.0, t0=0.0, t_end=0.5)
        for levels in ((64, 64), (64, 64, 128)):
            with pytest.raises(ValueError, match="must be distinct"):
                convergence_study(cfg, zero_data(), levels,
                                  lambda t, r: 0.0 * r, 0.2, 1.0)


class TestStability:
    def test_step_respects_operator_norm(self):
        # for n = 3 the stable step is measurably below dr
        cfg = SolverConfig(n=3, J=256, R=1.0, t0=0.0, t_end=0.05, cfl=1.0)
        res = evolve(cfg, zero_data())
        assert res.dt < cfg.dr
        assert res.dt == pytest.approx(0.79 * cfg.dr, rel=0.02)

    def test_n1_step_is_nearly_dr(self):
        cfg = SolverConfig(n=1, J=256, R=1.0, t0=0.0, t_end=0.05, cfl=1.0)
        res = evolve(cfg, zero_data())
        assert res.dt == pytest.approx(cfg.dr, rel=5e-3)

    def test_noisy_data_stays_bounded(self):
        # random C^0 noise must not excite instability at the default CFL
        class NoiseData(InitialDataSpec):
            def __init__(self):
                object.__setattr__(self, "kind", "gaussian")
                object.__setattr__(self, "p", 2.0)
                object.__setattr__(self, "cutoff", 2.0)
                object.__setattr__(self, "ramp_width", 0.25)
                object.__setattr__(self, "amplitude", 1e-8)
                object.__setattr__(self, "width", 0.5)
                object.__setattr__(self, "path", "")

            def evaluate(self, t0, r):
                rng = np.random.default_rng(0)
                phi = 1e-8 * rng.standard_normal(r.size)
                phi[-1] = 0.0
                return phi, np.zeros_like(r)

        cfg = SolverConfig(n=3, J=256, R=1.0, t0=0.0, t_end=2.0, cfl=0.9,
                           record_energy=False)
        res = evolve(cfg, NoiseData())
        assert res.status == "completed"
        # noise gradient energy sloshes into displacement (growth ~ 1/dr
        # relative to the 1e-8 amplitude); instability at this step count
        # would overflow instead (c = 0.85 diverges within ~25 steps)
        assert res.max_phi < 1e-4
