import dataclasses
import math
import re

import numpy as np
import pytest

from conewave import solver
from conewave.exact_solutions import InitialDataSpec, OdeSolution, smoothstep
from conewave.fields import (ArgumentError, DiscreteField, LevelRangeError,
                             PotentialSpec, _head_end, signed_power)
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
        if V is not None:
            out = out + V.value(t, r) * signed_power(u, cfg.p)
        return out

    def energy(u1, u0, tm):
        du = (u1 - u0) / dt
        kin = float(np.dot(vol, du * du))
        grad = float(np.sum(s[:-1] * (u1[1:] - u1[:-1]) * (u0[1:] - u0[:-1])) / dr)
        pot = 0.0
        if V is not None:
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
                     potential=PotentialSpec(0.7),
                     snapshot_times=(-0.7, -0.3, -0.1)),
        InitialDataSpec.truncated_ode(2.0, 0.25)),
    "p2_blowup_at_first_step": (
        SolverConfig(n=3, p=2.0, J=400, R=6.0, t0=-1.0, t_end=0.5,
                     phi_max=5.0, snapshot_times=(-1.0, -0.5)),
        InitialDataSpec.truncated_ode(2.0, 0.25)),
    "p2.5_perturbed": (
        SolverConfig(n=3, p=2.5, J=400, R=6.0, t0=-1.0, t_end=0.5,
                     potential=PotentialSpec(1.0, 0.2, (-0.5, 0.3), 0.5),
                     snapshot_times=(-0.8, -0.4)),
        InitialDataSpec.truncated_ode(2.0, 0.25, p=2.5)),
    "linear": (
        SolverConfig(n=1, p=2.0, J=250, R=15.0, t0=0.0, t_end=4.0,
                     potential=None, snapshot_times=(1.0, 2.5, 4.0)),
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
    # the head: leading cells that equal cell 0 bit for bit, which the
    # steps of a constant-potential run skip
    "head_shrinks_to_0": (
        SolverConfig(n=3, p=2.0, J=128, R=6.0, t0=-1.0, t_end=-0.2,
                     snapshot_times=(-0.9, -0.6, -0.2)),
        InitialDataSpec.truncated_ode(0.5, 0.25)),
    "head_n1": (
        SolverConfig(n=1, p=2.0, J=400, R=6.0, t0=-1.0, t_end=0.5,
                     snapshot_times=(-0.8, -0.4, -0.05)),
        InitialDataSpec.truncated_ode(2.0, 0.25)),
    "head_n2": (
        SolverConfig(n=2, p=2.0, J=400, R=6.0, t0=-1.0, t_end=0.5,
                     snapshot_times=(-0.8, -0.4, -0.05)),
        InitialDataSpec.truncated_ode(2.0, 0.25)),
    "head_p2.5_c0.7": (
        SolverConfig(n=3, p=2.5, J=400, R=6.0, t0=-1.0, t_end=0.5,
                     potential=PotentialSpec(0.7),
                     snapshot_times=(-0.8, -0.4, -0.05)),
        InitialDataSpec.truncated_ode(2.0, 0.25, p=2.5)),
    "head_energy_trace_n2": (
        SolverConfig(n=2, p=2.0, J=256, R=6.0, t0=-1.0, t_end=-0.3,
                     record_energy=True, snapshot_times=(-0.9, -0.3)),
        InitialDataSpec.truncated_ode(1.0, 0.25)),
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
    levels = res.levels
    assert levels.times.tolist() == [t for t, _, _ in snapshots]
    shape = (len(snapshots), cfg.J + 1)
    assert levels.phi.shape == levels.phi_t.shape == shape
    for m, (_, phi, phit) in enumerate(snapshots):
        assert_same_bits(levels.phi[m], phi)
        assert_same_bits(levels.phi_t[m], phit)
    if cfg.record_energy:
        assert_same_bits(res.energy, trace)
        assert len(res.energy_times) == len(trace)
    else:
        assert res.energy.size == 0
    return res


def test_a_run_that_blows_up_first_holds_only_its_recorded_rows():
    # the tables have a row for each of the four requested times; the
    # blow-up stops the run before the last two, whose rows are never
    # written and must not be part of the field
    cfg = SolverConfig(n=3, p=2.0, J=256, R=6.0, t0=-1.0, t_end=0.5,
                       snapshot_times=(-0.5, -0.1, 0.1, 0.3))
    res = assert_matches_reference(cfg,
                                   InitialDataSpec.truncated_ode(2.0, 0.25))
    assert res.status == "blew_up" and res.t_blowup < 0.1
    assert res.levels.phi.shape == res.levels.phi_t.shape == (2, cfg.J + 1)


def test_causal_window_that_saturates_matches_plain_leapfrog_bitwise():
    # compact data whose front reaches the Dirichlet end long before t_end:
    # the window grows to the whole grid inside the one step loop
    cfg = SolverConfig(n=3, p=2.0, J=96, R=3.0, t0=0.0, t_end=3.0,
                       snapshot_times=(0.0, 0.2, 1.0, 3.0))
    data = InitialDataSpec.gaussian(1e-3, 0.2)
    assert data.support_radius < 0.5 * cfg.R
    res = assert_matches_reference(cfg, data)
    assert res.status == "completed" and res.steps > cfg.J
    first, last = res.levels.phi[0], res.levels.phi[-1]
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
    data = InitialDataSpec.file(str(path))
    probe = SolverConfig(n=3, p=2.0, J=J, R=R, t0=-1.0, t_end=-0.5)
    dt = evolve(probe, data).dt
    # the first levels: a window that missed the -0.0 cells would leave
    # them stale there
    cfg = SolverConfig(n=3, p=2.0, J=J, R=R, t0=-1.0, t_end=-0.5,
                       snapshot_times=tuple(-1.0 + m * dt for m in range(6)))
    res = assert_matches_reference(cfg, data)
    assert res.levels.times.size == 6
    assert np.signbit(res.levels.phi[0, J - 1])
    assert not np.signbit(res.levels.phi[2, J - 1])


def test_file_data_from_a_blow_up_level_matches_plain_leapfrog_bitwise(
        tmp_path):
    # a restart from a written blow-up level: the ODE core survives the
    # `%.17g` round trip bit for bit, so the restarted run has a head too
    cfg = SolverConfig(n=3, p=2.0, J=256, R=6.0, t0=-1.0, t_end=-0.5,
                       snapshot_times=(-0.5,))
    run = evolve(cfg, InitialDataSpec.truncated_ode(2.0, 0.25))
    t, r = run.levels.times.item(0), run.levels.r
    data = InitialDataSpec.file(str(write_level(
        tmp_path, 3, 2.0, t, r, run.levels.phi[0], run.levels.phi_t[0])))
    assert _head_end(*data.evaluate(t, r)) > 2
    restart = SolverConfig(n=3, p=2.0, J=256, R=6.0, t0=t, t_end=0.5,
                           snapshot_times=(t, -0.3, -0.1, -0.02))
    assert assert_matches_reference(restart, data).status == "blew_up"


@pytest.mark.parametrize("phi,phit", [(0.0, 1e-3), (1e-3, 0.0),
                                      (2e-3, -1e-3)])
def test_constant_data_out_to_the_wall_matches_plain_leapfrog_bitwise(
        tmp_path, phi, phit):
    # data constant out to r = R: the window spans the grid from the first
    # step, and the head reaches the Dirichlet cell (it holds all J + 1
    # cells when phi = 0, the wall setting phi0[J] = 0.0 as the data does)
    J, R = 64, 2.0
    r = np.arange(J + 1) * (R / J)
    data = InitialDataSpec.file(str(write_level(
        tmp_path, 3, 2.0, 0.0, r, np.full_like(r, phi), np.full_like(r, phit))))
    cfg = SolverConfig(n=3, p=2.0, J=J, R=R, t0=0.0, t_end=2.0,
                       snapshot_times=(0.0, 0.05, 0.5, 1.0, 2.0))
    res = assert_matches_reference(cfg, data)
    assert res.status == "completed" and res.steps > J + 1


def _slice_starts(monkeypatch, cfg, data):
    """The run, and the first cell of each step's Laplacian slice."""
    starts = []
    laplacian = solver._laplacian

    def recording(u, s, vol, dr, out, flux):
        # the index of vol[0] in the array of all cell volumes
        whole = vol if vol.base is None else vol.base
        starts.append((vol.__array_interface__["data"][0]
                       - whole.__array_interface__["data"][0]) // vol.itemsize)
        return laplacian(u, s, vol, dr, out, flux)

    monkeypatch.setattr(solver, "_laplacian", recording)
    res = evolve(cfg, data)
    # the power iteration's calls come first, one call per step after them
    return res, starts[len(starts) - res.steps:]


@pytest.mark.parametrize("name", ["p2_unit_constant", "head_shrinks_to_0",
                                  "head_n1", "head_energy_trace_n2"])
def test_the_steps_skip_the_head(monkeypatch, name):
    # the bitwise cases pass whether or not the head is skipped; this pins
    # the skip itself: step m computes from cell c - 2 - m, its Laplacian
    # slice from one cell earlier
    cfg, data = KERNEL_CASES[name]
    res, starts = _slice_starts(monkeypatch, cfg, data)
    c = _head_end(*data.evaluate(cfg.t0, np.arange(cfg.J + 1) * cfg.dr))
    assert c > 3 and starts[0] > 0
    assert starts == [max(0, c - 3 - m) for m in range(res.steps)]


@pytest.mark.parametrize("name", ["p2.5_perturbed", "linear", "energy_trace"])
def test_the_steps_start_at_the_axis_without_a_head(monkeypatch, name):
    # an r-dependent potential, or data that varies from cell 0 on
    cfg, data = KERNEL_CASES[name]
    res, starts = _slice_starts(monkeypatch, cfg, data)
    assert res.steps > 0 and starts == [0] * res.steps


def test_an_overflow_in_the_head_names_the_axis():
    # the skipped cells are filled before the finiteness test, so the first
    # non-finite cell is r = 0, as on the full grid
    cfg = SolverConfig(n=3, p=2.0, J=256, R=6.0, t0=-1.0, t_end=0.5,
                       phi_max=1e300)
    with pytest.raises(FloatingPointError, match=r"at t=0\.\d+, r=0 before"):
        evolve(cfg, InitialDataSpec.truncated_ode(2.0, 0.25))


@pytest.mark.parametrize("p, potential", [
    (2.0, PotentialSpec()),
    (2.0, PotentialSpec(0.7)),
    (2.5, PotentialSpec(0.7)),
    (2.0, PotentialSpec(1.0, 0.2, (-0.5, 0.3), 0.5)),
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
    assert res.levels.times.tolist() == [t_last]


def test_interval_shorter_than_one_step_takes_no_step():
    cfg = SolverConfig(n=3, J=64, R=4.0, t0=0.0, t_end=1e-3,
                       snapshot_times=(0.0, 1e-3))
    res = evolve(cfg, InitialDataSpec.gaussian(1e-3, 0.5))
    assert res.dt > cfg.t_end - cfg.t0
    assert res.status == "completed" and res.steps == 0
    assert res.levels.times.tolist() == [0.0]


class TestEvolveBasics:
    def test_zero_data_completes_with_zero_field(self):
        cfg = SolverConfig(n=3, J=64, R=4.0, t0=0.0, t_end=0.5,
                           snapshot_times=(0.0, 0.25, 0.5))
        res = evolve(cfg, zero_data())
        assert res.status == "completed"
        assert res.levels.times.size == 3
        assert np.all(res.levels.phi == 0.0) and np.all(res.levels.phi_t == 0.0)

    @pytest.mark.parametrize("field,value", [
        ("phi_max", math.nan), ("p", math.nan), ("p", math.inf),
        ("snapshot_times", (math.nan,)), ("snapshot_times", (-0.5, math.inf)),
        ("J", math.nan)])
    def test_a_nan_or_inf_field_is_refused_by_name(self, field, value):
        # before: each constructed; phi_max = nan never stops a blow-up, and
        # a nan snapshot time was dropped
        with pytest.raises(ArgumentError, match=f"^{field} must be .*, got "):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("R,J,t_end,t,level", [
        (4.0, 17, 1.0, 1.0 + 5e-10, 4),   # the nearest step is past the last
        (1e-6, 1024, 1e-7, -9e-10, 0)])    # dt < the slack: step -1
    def test_a_snapshot_time_in_the_slack_takes_the_end_level(
            self, R, J, t_end, t, level):
        # the config accepts a time up to 1e-9 max(1, |t0|, |t_end|) past
        # either end; before, the run recorded no level for it
        res = evolve(SolverConfig(n=1, J=J, R=R, t0=0.0, t_end=t_end,
                                  snapshot_times=(t,)), zero_data())
        assert res.levels.times.tolist() == [level * res.dt]

    def test_cfl_violation_status(self):
        # a cfl outside (0, 1] is rejected with the config, as the other
        # fields are; no run reaches the solver with it
        for cfl in (1.5, 0.0, -0.5):
            with pytest.raises(ValueError, match="cfl"):
                SolverConfig(n=1, J=64, R=4.0, t0=0.0, t_end=0.5, cfl=cfl)

    @pytest.mark.parametrize("t0,t_end,message", [
        (-1.0, math.inf, "t_end must be finite, got inf"),
        (-math.inf, 0.0, "t0 must be finite, got -inf"),
        (-1e308, 1e308, "t0, t_end: t_end - t0 must be finite, got inf")],
        ids=["-1.0-inf", "-inf-0.0", "-1e+308-1e+308"])
    def test_a_non_finite_run_span_is_refused(self, t0, t_end, message):
        # before: evolve raised OverflowError from its step count
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SolverConfig(n=1, J=64, R=4.0, t0=t0, t_end=t_end)

    @pytest.mark.parametrize("R,t0,cfl", [(8e-70, -1e300, 0.9),
                                          (4.0, -1.0, 5e-324)])
    def test_a_non_finite_step_count_is_refused(self, R, t0, cfl):
        # before: evolve raised OverflowError from its step count, or
        # ZeroDivisionError where dt underflowed to 0
        with pytest.raises(ValueError, match="spans inf steps of dt"):
            SolverConfig(n=1, J=8, R=R, t0=t0, t_end=0.0, cfl=cfl)
        # a finite count, however large, is not refused
        SolverConfig(n=1, J=8, R=R, t0=-1e200, t_end=0.0)

    @pytest.mark.parametrize("R", [1e300, 1e140, 1e79, 1e-78, 1e-140,
                                   1e-299])
    def test_an_operator_scale_past_the_float_range_is_refused(self, R):
        # before: R = 1e300 raised OverflowError from the power iteration's
        # dead start 4 / dr^2 and R = 1e-299 ZeroDivisionError; between,
        # the norm's squares left the float range, lam became nan and dt
        # silently fell back to dr
        with pytest.raises(ValueError, match="square of its operator scale"):
            SolverConfig(n=1, J=64, R=R, t0=0.0, t_end=1.0)

    @pytest.mark.parametrize("R", [1e-74, 1e76])
    def test_an_operator_scale_inside_the_float_range_runs(self, R):
        cfg = SolverConfig(n=1, J=64, R=R, t0=0.0, t_end=R / 16)
        res = evolve(cfg, zero_data())
        assert res.status == "completed" and 0.0 < res.dt < cfg.dr

    def test_snapshots_at_nearest_grid_times(self):
        cfg = SolverConfig(n=1, J=64, R=4.0, t0=0.0, t_end=1.0,
                           snapshot_times=(0.333, 0.666))
        res = evolve(cfg, zero_data())
        assert res.levels.times.size == 2
        for t, req in zip(res.levels.times, (0.333, 0.666)):
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
        from conewave.fields import read_snapshot, write_snapshots

        paths = write_snapshots(str(tmp_path), cfg.n, cfg.p, res.levels)

        rows = [read_snapshot(path) for path in paths]  # (n, p, t, r, phi, phit)
        reloaded = DiscreteField([t for _, _, t, _, _, _ in rows], rows[0][3],
                                 [phi for _, _, _, _, phi, _ in rows],
                                 [phit for _, _, _, _, _, phit in rows])
        np.testing.assert_array_equal(reloaded.times, res.levels.times)
        np.testing.assert_array_equal(reloaded.phi, res.levels.phi)
        restart = InitialDataSpec.file(paths[0])
        cfg2 = SolverConfig(n=3, p=2.0, J=256, R=8.0,
                            t0=res.levels.times.item(0), t_end=-0.4,
                            snapshot_times=(-0.6,), record_energy=False)
        res2 = evolve(cfg2, restart)
        assert res2.status == "completed"
        # restarted core agrees with the original run to discretization error
        phi2, phi1 = res2.levels.phi[0, 0], res.levels.phi[1, 0]
        assert abs(phi2 - phi1) <= 5e-3 * abs(phi1)


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
        first = np.abs(decay_result.levels.phi[0]).max()
        last = np.abs(decay_result.levels.phi[-1]).max()
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
        levels = res.levels
        phi = levels.phi.copy()
        phi[0, -3] = 1e-6  # far-field contamination
        tampered = RunResult(res.status, res.t_blowup,
                             DiscreteField(levels.times, levels.r, phi,
                                           levels.phi_t),
                             res.config, res.dt, res.max_phi,
                             res.energy_times, res.energy, res.steps)
        ok, witness = finite_speed_check(tampered, 0.5)
        assert not ok
        assert witness is not None and abs(witness[2]) == 1e-6
        # Python floats: a numpy scalar would print as np.float64(...) in
        # the summary's `fail at` witness
        assert [type(x) for x in witness] == [float] * 3
        # an unknown support (file data) skips the check
        assert finite_speed_check(tampered, None) == (None, None)


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
        for t, phi in zip(res2.levels.times, res2.levels.phi):
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


    @pytest.mark.parametrize("coarse,fine", [(2048, 1024), (512, 2048),
                                             (1024, 1024)])
    def test_refuses_a_pair_that_is_not_coarse_and_twice_as_fine(
            self, blowup_runs, coarse, fine):
        # before: (2048, 1024) returned +0.002062 against the crossing's
        # -0.002449, a blow-up after the singularity
        with pytest.raises(ValueError, match="twice its J"):
            blowup_estimate(blowup_runs[coarse], blowup_runs[fine])

    def test_refuses_runs_of_different_problems(self, blowup_runs):
        other = dataclasses.replace(
            blowup_runs[1024],
            config=dataclasses.replace(blowup_runs[1024].config, cfl=0.8))
        with pytest.raises(ValueError, match="twice its J"):
            blowup_estimate(blowup_runs[512], other)


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
                           potential=None, record_energy=False)
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

    def test_a_core_radius_past_the_wall_limit_is_refused(self):
        # at t_ref = -0.2 the wall of R = 2 has reached r = 0.86 from the
        # outside; before, the core r < 1 was read and the fit passed
        cfg = SolverConfig(n=3, p=2.0, R=2.0, t0=-1.0, t_end=0.0)
        sol = OdeSolution(2.0)
        with pytest.raises(LevelRangeError, match=r"radius 1\.0 at time "
                           r"-0\.199\d* is past the levels' wall limit "
                           r"\(r > 0\.859375\)"):
            convergence_study(cfg, InitialDataSpec.truncated_ode(2.0, 0.25),
                              (256, 512),
                              lambda t, r: float(sol.value(t)) + 0.0 * r,
                              t_ref=-0.2, core_radius=1.0)


# --------------------------------------------------------------------------
# The wall limit of each recorded level
# --------------------------------------------------------------------------

def test_each_level_carries_the_limit_of_its_step():
    cfg = SolverConfig(n=3, p=2.0, J=128, R=6.0, t0=-1.0, t_end=-0.2,
                       snapshot_times=(-1.0, -0.6, -0.2))
    res = evolve(cfg, InitialDataSpec.truncated_ode(2.0, 0.25))
    steps = [round((t - cfg.t0) / res.dt) for t in res.levels.times]
    assert steps[0] == 0 and steps[-1] == res.steps
    assert res.levels.r_limit.tolist() == [(cfg.J - k - 2) * cfg.dr
                                           for k in steps]


def test_level_times_and_limits_follow_the_step():
    # level 0 keeps the bits of t0 = -0.0, which -0.0 + 0 * dt would turn
    # into +0.0; every later level has t0 + k dt and (J - k - 2) dr
    cfg = SolverConfig(n=3, p=2.0, J=64, R=4.0, t0=-0.0, t_end=1.0,
                       snapshot_times=(0.0, 0.3, 1.0))
    res = evolve(cfg, InitialDataSpec.gaussian(1e-3, 0.5))
    steps = [0, round(0.3 / res.dt), res.steps]
    times = res.levels.times.tolist()
    assert times[0].hex() == "-0x0.0p+0"
    assert times[1:] == [-0.0 + k * res.dt for k in steps[1:]]
    assert res.levels.r_limit.tolist() == [(cfg.J - k - 2) * cfg.dr
                                           for k in steps]


def test_the_recorder_at_the_threshold_and_at_the_end():
    # a level past the threshold is not recorded, and the level before it
    # has the centered phi_t; a run that ends on a requested step records
    # that step with the one-sided phi_t
    data = InitialDataSpec.truncated_ode(2.0, 0.25)
    cfg = SolverConfig(n=3, p=2.0, J=128, R=6.0, t0=-1.0, t_end=0.5)
    probe = evolve(cfg, data)
    k, dt = probe.steps, probe.dt
    wanted = (cfg.t0 + (k - 1) * dt, cfg.t0 + k * dt)
    blown = assert_matches_reference(
        dataclasses.replace(cfg, snapshot_times=wanted), data)
    assert blown.status == "blew_up" and blown.steps == k
    assert blown.levels.times.tolist() == [wanted[0]]
    ends = assert_matches_reference(dataclasses.replace(
        cfg, t_end=wanted[1], phi_max=1e300, snapshot_times=wanted), data)
    assert ends.status == "completed" and ends.steps == k
    assert ends.levels.times.tolist() == list(wanted)
    assert_same_bits(ends.levels.phi_t[0], blown.levels.phi_t[0])
    assert_same_bits(ends.levels.phi_t[1],
                     (ends.levels.phi[1] - ends.levels.phi[0]) / dt)


@pytest.mark.parametrize("data", [InitialDataSpec.truncated_ode(2.0, 0.25),
                                  InitialDataSpec.gaussian(1.0, 0.5)],
                         ids=["truncated_ode", "gaussian"])
def test_reads_inside_the_wall_limit_match_a_farther_wall(monkeypatch, data):
    # the limit rests on this identity: (R, J) = (2, 1024) and (4, 2048)
    # share dr, and with the operator norm pinned they share dt, so every
    # cell a read at or inside a level's limit touches (floor(r/dr) and the
    # next) is the same in both runs, and so is every such read
    lam = solver._operator_norm(*solver._radial_operator(3, 2048, 2.0 ** -9),
                                2.0 ** -9, 2048)
    monkeypatch.setattr(solver, "_operator_norm", lambda *args: lam)
    near, far = (evolve(SolverConfig(n=3, p=2.0, R=R, J=J, t0=-1.0,
                                     t_end=-0.2,
                                     snapshot_times=(-0.9, -0.6, -0.3, -0.2)),
                        data).levels for R, J in ((2.0, 1024), (4.0, 2048)))
    assert near.times.tolist() == far.times.tolist()
    assert near.dr == far.dr
    walled = False
    for m, limit in enumerate(near.r_limit.tolist()):
        end = round(limit / near.dr) + 2
        for name in ("phi", "phi_t", "phi_r"):
            assert_same_bits(getattr(near, name)[m, :end],
                             getattr(far, name)[m, :end])
            walled |= not np.array_equal(getattr(near, name)[m],
                                         getattr(far, name)[m, :1025])
    assert walled  # the near wall does change the cells past the limits
    # on the levels and between them: a point from level m's time on reads
    # level m + 1 too (with weight 0 at t_m) and takes its limit
    t = np.concatenate((near.times, 0.5 * (near.times[1:] + near.times[:-1])))
    limits = near.r_limit[[1, 2, 3, 3, 1, 2, 3]]
    r = np.linspace(0.0, 1.0, 257) * limits[:, None]
    for got, want in zip(near.jet(t[:, None], r), far.jet(t[:, None], r)):
        assert_same_bits(got, want)
    with pytest.raises(LevelRangeError, match="past the levels' wall limit"):
        near.jet(t[-1], limits[-1] + 1e-6)


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
        def noise(t0, r):
            rng = np.random.default_rng(0)
            phi = 1e-8 * rng.standard_normal(r.size)
            phi[-1] = 0.0
            return phi, np.zeros_like(r)

        cfg = SolverConfig(n=3, J=256, R=1.0, t0=0.0, t_end=2.0, cfl=0.9,
                           record_energy=False)
        res = evolve(cfg, InitialDataSpec(noise))
        assert res.status == "completed"
        # noise gradient energy sloshes into displacement (growth ~ 1/dr
        # relative to the 1e-8 amplitude); instability at this step count
        # would overflow instead (c = 0.85 diverges within ~25 steps)
        assert res.max_phi < 1e-4
