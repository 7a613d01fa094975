import math
import os

import numpy as np
import pytest

from conewave.fields import (
    DiscreteField,
    LevelRangeError,
    ManufacturedField,
    PotentialSpec,
    gaussian_pulse,
    polynomial_gaussian,
    read_snapshot,
    signed_power,
    traveling_bump,
    write_snapshots,
)
from conewave.cli import (ConfigError, RunConfig, _offcenter_gaussian,
                          _require_small_potential)
from conewave.exact_solutions import OdeSolution, ode_field
from tests_helpers import (
    closures_jet,
    constant_field,
    gaussian_closures,
    offcenter_closures,
    polynomial_closures,
    travel_closures,
    write_level,
    zero_field,
)


def linear_field(n=1):
    return ManufacturedField(
        n,
        closures_jet(
            lambda t, r: t + r,
            lambda t, r: np.ones(np.broadcast(t, r).shape),
            lambda t, r: np.ones(np.broadcast(t, r).shape),
            lambda t, r: (n - 1) / r * np.ones(np.broadcast(t, r).shape)),
    )


class TestPotential:
    def test_constant(self):
        V = PotentialSpec.constant(2.0)
        assert V.value(0.3, 1.2) == 2.0
        assert V.jet(0.3, 1.2)[1:] == (0.0, 0.0)

    def test_perturbed_unit_gradient_profile(self):
        V = PotentialSpec(kind="perturbed", c0=1.0, eps=0.3,
                          center=(0.0, 1.0), width=0.5)
        tt = np.linspace(-2, 2, 101)
        rr = np.linspace(0, 3, 101)
        T, R = np.meshgrid(tt, rr)
        Vt, Vr = V.jet(T, R)[1:]
        assert np.max(np.hypot(Vt, Vr)) <= abs(V.eps) + 1e-12
        # the bump peaks at width sqrt(e): |V - c0| <= |eps| width sqrt(e)
        amp = abs(V.eps) * V.width * math.sqrt(math.e)
        assert np.all(np.abs(V.value(T, R) - V.c0) <= amp + 1e-12)

    def test_slab_smallness_enforced(self):
        # sup|grad V| t* = |eps| t*: the CLI checks it against pot_alpha
        cfg = RunConfig()
        cfg.pot_kind, cfg.pot_eps, cfg.pot_alpha = "perturbed", 0.5, 0.1
        with pytest.raises(ConfigError, match=r"\|grad V\| t\* = 0.5 exceeds"):
            _require_small_potential(cfg, (1.0,), "t_star")
        cfg.pot_eps = 0.05
        _require_small_potential(cfg, (1.0, -2.0), "t_star")

    def test_positivity_guard(self):
        with pytest.raises(ValueError):
            PotentialSpec(kind="perturbed", c0=0.5, eps=1.0,
                          center=(0.0, 0.0), width=1.0)


def residual(field, potential, p, t, r):
    """box phi + V |phi|^{p-1} phi from one jet; zero for exact solutions."""
    ph, _, _, box = field.jet(t, r)
    return box + potential.value(t, r) * signed_power(ph, p)


class TestGradientNormSq:
    """The jet's first derivatives, whose squares sum to |grad phi|^2."""

    def test_constant_is_zero(self):
        _, phi_t, phi_r, _ = constant_field(3.0, 3).jet(0.5, 1.0)
        assert phi_t ** 2 + phi_r ** 2 == 0.0

    def test_ode_field_p2(self):
        # d_t phi* = 12 (-t)^{-3} at t = -1 gives 144
        _, phi_t, phi_r, _ = ode_field(2.0, 3).jet(-1.0, 0.7)
        assert phi_t ** 2 + phi_r ** 2 == pytest.approx(144.0)

    def test_linear_field(self):
        _, phi_t, phi_r, _ = linear_field().jet(0.2, 1.5)
        assert phi_t ** 2 + phi_r ** 2 == pytest.approx(2.0)


class TestBoxOperator:
    """The wave operator as the fourth jet component."""

    def test_t_squared(self):
        f = ManufacturedField(
            3,
            closures_jet(
                lambda t, r: t * t + 0.0 * r,
                lambda t, r: 2.0 * t + 0.0 * r,
                lambda t, r: np.zeros(np.broadcast(t, r).shape),
                lambda t, r: -2.0 + 0.0 * (t + r)),
        )
        assert f.jet(0.3, 1.0)[3] == pytest.approx(-2.0)

    def test_ode_solution_closed_form(self):
        # box phi* = -|phi*| phi* for p = 2: at t = -1 that is -36
        assert ode_field(2.0, 3).jet(-1.0, 0.3)[3] == pytest.approx(-36.0)

    def test_r_squared_discrete(self):
        # box r^2 = 2n for the radial Laplacian; exercised through the
        # solver's discrete stencil including the regularized axis
        from conewave.solver import _laplacian, _radial_operator

        n, J = 3, 128
        dr = 2.0 / J
        u = (np.arange(J + 1) * dr) ** 2
        s_half, vol = _radial_operator(n, J, dr)
        lap = _laplacian(u, s_half, vol, dr, np.empty(J + 1), np.empty(J))
        assert lap[:-1] == pytest.approx(2.0 * n, rel=1e-9)


class TestNonlinearResidual:
    def test_zero_field(self):
        V = PotentialSpec.constant(1.0)
        assert residual(zero_field(3), V, 2.0, 0.5, 1.0) == 0.0

    def test_constant_field(self):
        V = PotentialSpec.constant(1.0)
        c = 1.7
        val = residual(constant_field(c, 3), V, 2.0, 0.5, 1.0)
        assert val == pytest.approx(c ** 2)

    def test_ode_solution_exact_zero(self):
        V = PotentialSpec.constant(1.0)
        for p in (1.5, 2.0, 3.0):
            val = residual(ode_field(p, 3), V, p, -0.7, 0.2)
            assert val == pytest.approx(0.0, abs=1e-10)


class TestManufacturedDerivatives:
    @pytest.mark.parametrize("field,t0,r0", [
        (gaussian_pulse(3, 1.2, 0.3, 0.7, 0.5), 0.25, 0.9),
        (polynomial_gaussian(3, 0.8, -0.2, 0.6, 0.7, c1=0.4, c2=-0.3), 0.25,
         0.9),
        (traveling_bump(3, 1.0, 0.4, 1.5, 0.3), 0.25, 0.9),
        (ode_field(2.0, 3), -0.5, 0.8),
    ], ids=["gauss", "polygauss", "travel", "ode"])
    def test_derivatives_match_finite_differences(self, field, t0, r0):
        hs = np.array([1e-2, 1e-3, 1e-4])
        for k, axis in ((1, "t"), (2, "r")):
            errs = []
            for h in hs:
                if axis == "t":
                    fd = (field.value(t0 + h, r0) - field.value(t0 - h, r0)) / (2 * h)
                else:
                    fd = (field.value(t0, r0 + h) - field.value(t0, r0 - h)) / (2 * h)
                errs.append(abs(fd - field.jet(t0, r0)[k]) + 1e-300)
            if max(errs) < 1e-13:
                continue  # exactly-linear direction: nothing to fit
            slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
            assert slope == pytest.approx(2.0, abs=0.3)

    @pytest.mark.parametrize("field", [
        gaussian_pulse(3, 1.2, 0.3, 0.7, 0.5),
        polynomial_gaussian(2, 0.8, -0.2, 0.6, 0.7, c1=0.4, c2=-0.3),
        traveling_bump(3, 1.0, 0.4, 1.5, 0.3),
    ], ids=["gauss", "polygauss", "travel"])
    def test_box_matches_stencil(self, field):
        t0, r0 = 0.25, 0.9
        h = 1e-4
        n = field.dim
        phitt = (field.value(t0 + h, r0) - 2 * field.value(t0, r0)
                 + field.value(t0 - h, r0)) / h ** 2
        phirr = (field.value(t0, r0 + h) - 2 * field.value(t0, r0)
                 + field.value(t0, r0 - h)) / h ** 2
        phir = (field.value(t0, r0 + h) - field.value(t0, r0 - h)) / (2 * h)
        stencil = -phitt + phirr + (n - 1) / r0 * phir
        assert field.jet(t0, r0)[3] == pytest.approx(stencil, rel=1e-5, abs=1e-6)

    def test_gaussian_box_regular_at_axis(self):
        field = gaussian_pulse(3, 1.0, 0.0, 1.0, 0.5)
        val = field.jet(0.0, 0.0)[3]
        # -d_tt + n d_rr at the axis for the even gaussian
        expected = (1.0 / 1.0 ** 2) - 3 * (1.0 / 0.5 ** 2)
        assert val == pytest.approx(expected * field.value(0.0, 0.0))


class TestSignedPower:
    def test_odd_extension(self):
        assert signed_power(-2.0, 1.5) == pytest.approx(-(2.0 ** 1.5))
        assert signed_power(0.0, 1.5) == 0.0

    def test_matches_plain_power_for_positive(self):
        assert signed_power(1.7, 2.0) == pytest.approx(1.7 ** 2)


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        r = np.linspace(0, 2, 33)
        phi = np.sin(r) * 1e-5
        phit = np.cos(r) * math.pi
        path = write_level(tmp_path, 3, 2.0, -0.625, r, phi, phit)
        n, p, t, r2, phi2, phit2 = read_snapshot(str(path))
        assert (n, p, t) == (3, 2.0, -0.625)
        np.testing.assert_array_equal(r2, r)
        np.testing.assert_array_equal(phi2, phi)
        np.testing.assert_array_equal(phit2, phit)

    def test_header_rejected(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("nonsense\n1 2 3\n")
        with pytest.raises(ValueError):
            read_snapshot(str(path))

    def test_field_from_snapshot_files(self, tmp_path):
        r = np.linspace(0, 1, 17)
        levels = []
        for t in (0.0, 0.1):
            path = write_level(tmp_path, 2, 2.0, t, r, r * t, r * 0)
            n, _, t_read, r_read, phi, phit = read_snapshot(str(path))
            levels.append((t_read, phi, phit))
        fld = DiscreteField.from_levels(levels, r_read)
        assert n == 2
        assert fld.value(0.05, 0.5) == pytest.approx(0.025)


def format_every_row(path, n, p, t, r, phi, phit):
    """Every row through `%.17g`, a block of rows at a time: the bytes the
    snapshot writer must reproduce."""
    rows = np.column_stack((r, phi, phit))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# n p t\n")
        handle.write(f"{n:d} {p:.17g} {t:.17g}\n")
        for start in range(0, len(rows), 1024):
            block = rows[start:start + 1024]
            handle.write("%.17g %.17g %.17g\n" * len(block)
                         % tuple(block.ravel().tolist()))


def writer_level(size, live=(), dr=6.0 / 8192):
    """(r, phi, phit) on a uniform grid, +0.0 except the {index: (phi,
    phit)} entries of `live`."""
    phi, phit = np.zeros(size), np.zeros(size)
    for j, (a, b) in dict(live).items():
        phi[j], phit[j] = a, b
    return np.arange(size) * dr, phi, phit


WRITER_LEVELS = {
    "all_zero": writer_level(40),
    "zero_phi_live_phit_in_tail": writer_level(
        40, {3: (0.25, -1.5), 31: (0.0, 2.0 / 3.0)}),
    "interior_zeros_before_edge": writer_level(
        40, {0: (1.0, 0.0), 4: (0.0, 0.0), 9: (-3.5e-7, 1e300), 20: (0.1, 0.0)}),
    "negative_zero_in_tail": writer_level(
        40, {2: (math.pi, 1.0), 25: (-0.0, 0.0), 33: (0.0, -0.0)}),
    "negative_zero_last_row": writer_level(40, {39: (-0.0, -0.0)}),
    "subnormals": writer_level(
        40, {5: (5e-324, -5e-324), 17: (2.2e-310, 0.0), 38: (0.0, -1e-320)}),
    "non_finite": writer_level(
        12, {1: (math.inf, math.nan), 7: (-math.inf, 1.0)}),
    "one_row_zero": writer_level(1),
    "one_row_live": writer_level(1, {0: (-0.0, 0.5)}),
    "two_rows_zero": writer_level(2),
    "two_rows_live_tail": writer_level(2, {1: (1e-17, 0.0)}),
    "longer_than_a_block": writer_level(
        2 * 1024 + 37, {0: (2.0, 1.0), 1023: (1.0, 0.0), 1500: (0.0, -4.0)}),
    "edge_on_a_block_boundary": writer_level(
        3 * 1024, {7: (1.0, 1.0), 2047: (-2.5, 0.0)}),
    "dense": (np.linspace(0.0, 3.0, 301), np.sin(np.linspace(0.0, 9.0, 301)),
              np.cos(np.linspace(0.0, 9.0, 301))),
}


class TestSnapshotWriterLiveEdge:
    """Rows past a level's live edge are written without formatting their
    values; the bytes must be those of formatting every row."""

    @pytest.mark.parametrize("name", sorted(WRITER_LEVELS))
    def test_same_bytes_as_formatting_every_row(self, tmp_path, name):
        r, phi, phit = WRITER_LEVELS[name]
        got = write_level(tmp_path, 3, 2.0, -0.375, r, phi, phit)
        format_every_row(tmp_path / "want.dat", 3, 2.0, -0.375, r, phi, phit)
        assert got.read_bytes() == (tmp_path / "want.dat").read_bytes()

    def test_negative_zero_prints_as_minus_zero(self, tmp_path):
        r, phi, phit = WRITER_LEVELS["negative_zero_last_row"]
        path = write_level(tmp_path, 3, 2.0, 0.0, r, phi, phit)
        assert path.read_text().endswith(" -0 -0\n")
        assert np.signbit(read_snapshot(str(path))[4][-1])

    @pytest.mark.parametrize("size", [1, 2, 40, 2 * 1024 + 37])
    def test_write_snapshots_equals_write_snapshot_per_level(self, tmp_path,
                                                             size):
        levels = [WRITER_LEVELS[name] for name in sorted(WRITER_LEVELS)
                  if WRITER_LEVELS[name][0].size == size]
        r = levels[0][0]
        times = np.arange(len(levels)) * 0.125 - 1.0
        stored = [(t, phi, phit) for t, (_, phi, phit) in zip(times, levels)]
        paths = write_snapshots(str(tmp_path), 2, 1.5, r, stored)
        assert [os.path.basename(path) for path in paths] == [
            f"snap_{m:04d}.dat" for m in range(len(levels))]
        for m, (t, phi, phit) in enumerate(stored):
            (tmp_path / f"one_{m}").mkdir()
            one = write_level(tmp_path / f"one_{m}", 2, 1.5, t, r, phi, phit)
            want = tmp_path / f"want_{m}.dat"
            format_every_row(want, 2, 1.5, t, r, phi, phit)
            with open(paths[m], "rb") as handle:
                got = handle.read()
            assert got == one.read_bytes() == want.read_bytes()

    def test_lengths_must_agree(self, tmp_path):
        r, phi, phit = WRITER_LEVELS["all_zero"]
        with pytest.raises(ValueError):
            write_level(tmp_path, 3, 2.0, 0.0, r[:-1], phi, phit)


class TestDiscreteFieldEvaluation:
    def test_reproduces_bilinear_functions(self):
        r = np.linspace(0, 2, 41)
        times = np.array([0.0, 0.5, 1.0])
        phi = np.vstack([3.0 * t + 2.0 * r for t in times])
        phit = np.vstack([np.full_like(r, 3.0) for _ in times])
        fld = DiscreteField(times, r, phi, phit)
        assert fld.value(0.25, 0.33) == pytest.approx(3 * 0.25 + 2 * 0.33)
        assert fld.jet(0.7, 1.0)[1] == pytest.approx(3.0)
        assert fld.jet(0.7, 1.3)[2] == pytest.approx(2.0)

    def test_even_extension(self):
        r = np.linspace(0, 1, 11)
        fld = DiscreteField(np.array([0.0]), r, (r * r)[None, :],
                            np.zeros((1, 11)))
        assert fld.value(0.0, -0.5) == fld.value(0.0, 0.5)

    def test_out_of_range_raises(self):
        r = np.linspace(0, 1, 11)
        fld = DiscreteField(np.array([0.0, 1.0]), r, np.zeros((2, 11)),
                            np.zeros((2, 11)))
        with pytest.raises(ValueError):
            fld.value(2.0, 0.5)
        with pytest.raises(ValueError):
            fld.value(0.5, 1.5)

    def test_nan_time_is_outside_the_stored_range(self):
        # NaN fails every comparison, so it must not pass as "not below lo
        # and not above hi"; cast to a level index it reads out of bounds
        r = np.linspace(0, 1, 11)
        fld = DiscreteField(np.array([0.0, 1.0]), r, np.zeros((2, 11)),
                            np.zeros((2, 11)))
        with pytest.raises(LevelRangeError, match=r"time nan outside the stored "
                                             r"range \[0\.0, 1\.0\]"):
            fld.require_times([0.5, np.nan])
        with pytest.raises(ValueError, match="time nan outside"):
            fld.value(np.array([[np.nan], [0.5]]), np.array([0.2, 0.4]))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            DiscreteField(np.array([0.0]), np.array([0.5, 1.0]),
                          np.zeros((1, 2)), np.zeros((1, 2)))


# --------------------------------------------------------------------------
# Bit identity of the jets with per-component closures evaluated one by one
# (tests_helpers), and the closed forms the jets had before their shared
# subexpressions were built once: the same functions to rounding
# --------------------------------------------------------------------------

def _legacy_gaussian_closures(n, A, tc, wt, wr):
    def phi(t, r):
        return A * np.exp(-(t - tc) ** 2 / (2 * wt ** 2) - r * r / (2 * wr ** 2))

    def phi_t(t, r):
        return -(t - tc) / wt ** 2 * phi(t, r)

    def phi_r(t, r):
        return -r / wr ** 2 * phi(t, r)

    def box(t, r):
        phitt = ((t - tc) ** 2 / wt ** 4 - 1.0 / wt ** 2) * phi(t, r)
        phirr = (r * r / wr ** 4 - 1.0 / wr ** 2) * phi(t, r)
        return -phitt + phirr - (n - 1) / wr ** 2 * phi(t, r)

    return phi, phi_t, phi_r, box


def _legacy_polynomial_closures(n, A, tc, wt, wr, c1, c2):
    b_phi, b_phi_t, b_phi_r, b_box = _legacy_gaussian_closures(n, A, tc, wt, wr)

    def q(t):
        return 1.0 + c1 * (t - tc) + c2 * (t - tc) ** 2

    def dq(t):
        return c1 + 2.0 * c2 * (t - tc)

    def phi(t, r):
        return q(t) * b_phi(t, r)

    def phi_t(t, r):
        return dq(t) * b_phi(t, r) + q(t) * b_phi_t(t, r)

    def phi_r(t, r):
        return q(t) * b_phi_r(t, r)

    def box(t, r):
        g = b_phi(t, r)
        gt = b_phi_t(t, r)
        gtt = ((t - tc) ** 2 / wt ** 4 - 1.0 / wt ** 2) * g
        phitt = 2.0 * c2 * g + 2.0 * dq(t) * gt + q(t) * gtt
        return -phitt + q(t) * (b_box(t, r) + gtt)

    return phi, phi_t, phi_r, box


def _legacy_travel_closures(n, A, v, d, w):
    def arg(t, r):
        return r - v * t - d

    def phi(t, r):
        return A * np.exp(-arg(t, r) ** 2 / (2 * w * w))

    def phi_t(t, r):
        return v * arg(t, r) / (w * w) * phi(t, r)

    def phi_r(t, r):
        return -arg(t, r) / (w * w) * phi(t, r)

    def box(t, r):
        s = arg(t, r)
        sec = (s * s / w ** 4 - 1.0 / (w * w)) * phi(t, r)
        return -(v * v) * sec + sec + (n - 1) / r * phi_r(t, r)

    return phi, phi_t, phi_r, box


def _legacy_offcenter_closures(n, A, tc, rc, wt, wr):
    def phi(t, r):
        return A * np.exp(-(t - tc) ** 2 / (2 * wt ** 2)
                          - (r - rc) ** 2 / (2 * wr ** 2))

    def phi_t(t, r):
        return -(t - tc) / wt ** 2 * phi(t, r)

    def phi_r(t, r):
        return -(r - rc) / wr ** 2 * phi(t, r)

    def box(t, r):
        phitt = ((t - tc) ** 2 / wt ** 4 - 1.0 / wt ** 2) * phi(t, r)
        phirr = ((r - rc) ** 2 / wr ** 4 - 1.0 / wr ** 2) * phi(t, r)
        return -phitt + phirr + (n - 1) / r * phi_r(t, r)

    return phi, phi_t, phi_r, box


def _ode_closures(p):
    sol = OdeSolution(p)
    C, k = sol.amplitude, sol.k
    return (lambda t, r: C * (-t) ** (-k) + 0.0 * np.asarray(r, dtype=float),
            lambda t, r: C * k * (-t) ** (-k - 1) + 0.0 * np.asarray(r, dtype=float),
            lambda t, r: np.zeros(np.broadcast(t, r).shape),
            lambda t, r: -C * k * (k + 1) * (-t) ** (-k - 2)
            + 0.0 * np.asarray(r, dtype=float))


def _constant_closures(c):
    return (lambda t, r: np.full(np.broadcast(t, r).shape, float(c)),) + tuple(
        lambda t, r: np.zeros(np.broadcast(t, r).shape) for _ in range(3))


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # signed zeros too


def _quadrature_like_points(t_lo, t_hi, r_lo, r_hi):
    """A broadcast time column against a radial mesh, as the bulk loop
    passes them, plus a scalar point."""
    tn = np.linspace(t_lo, t_hi, 37)
    R = np.linspace(r_lo, r_hi, 41)[None, :] * np.ones((37, 1))
    T = np.broadcast_to(tn[:, None], R.shape)
    return [(T, R), (float(tn[5]), float(R[0, 7]))]


MANUFACTURED = [
    ("gauss", gaussian_pulse(3, 1.2, 0.3, 0.7, 0.5),
     gaussian_closures(3, 1.2, 0.3, 0.7, 0.5),
     _legacy_gaussian_closures(3, 1.2, 0.3, 0.7, 0.5), (-0.4, 0.9, 0.0, 2.0)),
    ("polygauss", polynomial_gaussian(2, 0.8, -0.2, 0.6, 0.7, c1=0.4, c2=-0.3),
     polynomial_closures(2, 0.8, -0.2, 0.6, 0.7, 0.4, -0.3),
     _legacy_polynomial_closures(2, 0.8, -0.2, 0.6, 0.7, 0.4, -0.3),
     (-0.5, 0.5, 0.0, 1.5)),
    ("travel", traveling_bump(3, 1.0, 0.4, 1.5, 0.3),
     travel_closures(3, 1.0, 0.4, 1.5, 0.3),
     _legacy_travel_closures(3, 1.0, 0.4, 1.5, 0.3), (-0.3, 0.6, 0.5, 2.5)),
    ("offgauss", _offcenter_gaussian(2, 0.7, 0.1, 1.3, 0.25, 0.3),
     offcenter_closures(2, 0.7, 0.1, 1.3, 0.25, 0.3),
     _legacy_offcenter_closures(2, 0.7, 0.1, 1.3, 0.25, 0.3),
     (-0.2, 0.4, 0.6, 2.0)),
]


class TestJetBitIdentity:
    CASES = [case[:3] + case[4:] for case in MANUFACTURED] + [
        ("ode", ode_field(2.5, 3), _ode_closures(2.5), (-1.0, -0.05, 0.0, 1.0)),
        ("zero", zero_field(3), _constant_closures(0.0), (-1.0, 1.0, 0.0, 1.0)),
        ("constant", constant_field(1.7, 3), _constant_closures(1.7),
         (-1.0, 1.0, 0.0, 1.0)),
    ]

    @pytest.mark.parametrize("field,closures,box_",
                             [c[1:] for c in CASES], ids=[c[0] for c in CASES])
    def test_jet_matches_closures(self, field, closures, box_):
        for t, r in _quadrature_like_points(*box_):
            jet = field.jet(t, r)
            ta, ra = np.asarray(t, dtype=float), np.asarray(r, dtype=float)
            for got, closure in zip(jet, closures):
                assert_same_bits(got, closure(ta, ra))
            assert_same_bits(field.value(t, r), closures[0](ta, ra))


# Largest change of a jet component from its legacy closed form, relative
# to that component's largest magnitude on the sample: a few ulps of
# rounding, far below any change of the function
LEGACY_RTOL = 1e-14


class TestJetAgainstLegacyClosedForms:
    @pytest.mark.parametrize("field,legacy,box_",
                             [(c[1], c[3], c[4]) for c in MANUFACTURED],
                             ids=[c[0] for c in MANUFACTURED])
    def test_same_function_to_rounding(self, field, legacy, box_):
        for t, r in _quadrature_like_points(*box_):
            ta, ra = np.asarray(t, dtype=float), np.asarray(r, dtype=float)
            for got, closure in zip(field.jet(t, r), legacy):
                want = closure(ta, ra)
                scale = np.max(np.abs(want))
                assert scale > 0.0
                assert np.max(np.abs(got - want)) <= LEGACY_RTOL * scale


def _fd_jet_errors(field, t, r, h):
    """Largest error of phi_t, phi_r and box against centred differences
    of the field's own phi with step h, each relative to the largest
    magnitude of the differenced value on the sample."""
    phi = field.value
    n = field.dim
    p0 = phi(t, r)
    pt = (phi(t + h, r) - phi(t - h, r)) / (2.0 * h)
    pr = (phi(t, r + h) - phi(t, r - h)) / (2.0 * h)
    ptt = (phi(t + h, r) - 2.0 * p0 + phi(t - h, r)) / (h * h)
    prr = (phi(t, r + h) - 2.0 * p0 + phi(t, r - h)) / (h * h)
    box = -ptt + prr + (n - 1) / r * pr
    _, jt, jr, jbox = field.jet(t, r)
    return [float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
            for got, want in ((jt, pt), (jr, pr), (jbox, box))]


# Centred differences at h = 1e-3 carry a truncation error of about
# h^2 / (6 w^2) relative, w >= 0.25 the narrowest width of the cases
FD_STEP, FD_RTOL = 1e-3, 1e-4


def _fd_points(t_lo, t_hi, r_lo, r_hi):
    """A mesh of the case's box kept off the axis, where (n-1)/r is finite."""
    tn = np.linspace(t_lo, t_hi, 23)[:, None]
    R = np.linspace(max(r_lo, 0.1), r_hi, 29)[None, :] * np.ones((23, 1))
    return tn, R


class TestJetFiniteDifferences:
    @pytest.mark.parametrize("field,box_",
                             [(c[1], c[4]) for c in MANUFACTURED],
                             ids=[c[0] for c in MANUFACTURED])
    def test_derivatives_and_box_of_own_phi(self, field, box_):
        errors = _fd_jet_errors(field, *_fd_points(*box_), FD_STEP)
        assert max(errors) < FD_RTOL, errors

    def test_catches_a_box_without_its_first_order_term(self):
        # seeded mutation: the travelling bump's box loses (n-1)/r phi_r
        good = traveling_bump(3, 1.0, 0.4, 1.5, 0.3)

        def mutated(t, r):
            phi, phi_t, phi_r, box = good.evaluate(t, r)
            return phi, phi_t, phi_r, box - (good.dim - 1) / r * phi_r

        bad = ManufacturedField(good.dim, mutated)
        t, r = _fd_points(-0.3, 0.6, 0.5, 2.5)
        errors = _fd_jet_errors(bad, t, r, FD_STEP)
        assert errors[:2] == _fd_jet_errors(good, t, r, FD_STEP)[:2]
        assert errors[2] > 100 * FD_RTOL


def _reference_eval(fld, table, t, r):
    """Bilinear interpolation of one table, written out per table."""
    t = np.asarray(t, dtype=float)
    r = np.abs(np.asarray(r, dtype=float))
    t, r = np.broadcast_arrays(t, r)
    if fld.times.size == 1:
        m = np.zeros(t.shape, dtype=int)
        th = np.zeros(t.shape)
    else:
        m = np.clip(np.searchsorted(fld.times, t, side="right") - 1,
                    0, fld.times.size - 2)
        th = np.clip((t - fld.times[m])
                     / (fld.times[m + 1] - fld.times[m]), 0.0, 1.0)
    x = np.clip(r / fld.dr, 0.0, fld.r.size - 1 - 1e-12)
    j = np.minimum(x.astype(int), fld.r.size - 2)
    fr = x - j
    m2 = np.minimum(m + 1, fld.times.size - 1)
    lo = table[m, j] * (1.0 - fr) + table[m, j + 1] * fr
    hi = table[m2, j] * (1.0 - fr) + table[m2, j + 1] * fr
    out = lo * (1.0 - th) + hi * th
    return out if out.shape else float(out)


def _reference_phi_r(fld):
    """The radial derivative table written out point by point: 0 on the
    axis, centered differences inside, the one-sided second-order
    difference at the outer end."""
    h = 2.0 * fld.dr
    rows = []
    for u in fld.phi.tolist():
        rows.append([0.0] + [(u[j + 1] - u[j - 1]) / h
                             for j in range(1, len(u) - 1)]
                    + [(3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / h])
    return np.array(rows)


class TestDiscreteJetBitIdentity:
    @staticmethod
    def _field(levels):
        rng = np.random.default_rng(5)
        r = np.linspace(0.0, 2.0, 65)
        times = np.sort(rng.uniform(-1.0, 0.0, levels)) if levels > 1 \
            else np.array([-0.5])
        phi = rng.standard_normal((levels, r.size))
        phit = rng.standard_normal((levels, r.size))
        return DiscreteField(times, r, phi, phit)

    @staticmethod
    def _points(fld):
        rng = np.random.default_rng(11)
        tn = np.concatenate([rng.uniform(fld.times[0], fld.times[-1], 30),
                             fld.times, [fld.times[-1]]])
        R = np.concatenate([rng.uniform(-2.0, 2.0, 40),
                            fld.r[[0, 1, 31, -2, -1]]])[None, :] \
            * np.ones((tn.size, 1))
        T = np.broadcast_to(tn[:, None], R.shape)
        return [(T, R), (float(fld.times[-1]), 2.0), (float(tn[0]), 0.3)]

    @pytest.mark.parametrize("levels", [1, 2, 9])
    def test_jet_and_value_match_per_table_interpolation(self, levels):
        fld = self._field(levels)
        tables = (fld.phi, fld.phi_t, _reference_phi_r(fld))
        for t, r in self._points(fld):
            for got, table in zip(fld.jet(t, r), tables):
                assert_same_bits(got, _reference_eval(fld, table, t, r))
            assert_same_bits(fld.value(t, r), _reference_eval(fld, fld.phi, t, r))


# --------------------------------------------------------------------------
# Column contract: quadrature passes t as a (rows, 1) column (a one-element
# array on a slice); every evaluation must give the bits of the same times
# broadcast in full.
# --------------------------------------------------------------------------

def _column_and_full(t_lo, t_hi, r_lo, r_hi):
    """(t as passed, the same t broadcast in full, r): a time column against
    a radial mesh, and a slice's one-element level against one row."""
    tn = np.linspace(t_lo, t_hi, 37)
    R = np.linspace(r_lo, r_hi, 41)[None, :] * np.ones((37, 1))
    col = tn[:, None]
    return [(col, np.broadcast_to(col, R.shape), R),
            (tn[5:6], np.full(R.shape[1], tn[5]), R[0])]


def _same_broadcast_bits(got, want):
    """Same bits once `got` is broadcast to the shape of `want`; a t-only
    output may keep the column shape."""
    assert_same_bits(np.broadcast_to(got, np.shape(want)), want)


class TestColumnContract:
    @pytest.mark.parametrize("field,box_",
                             [(c[1], c[3]) for c in TestJetBitIdentity.CASES],
                             ids=[c[0] for c in TestJetBitIdentity.CASES])
    def test_manufactured_jets(self, field, box_):
        for col, full, R in _column_and_full(*box_):
            for got, want in zip(field.jet(col, R), field.jet(full, R)):
                assert_same_bits(got, want)
            assert_same_bits(field.value(col, R), field.value(full, R))

    def test_weight(self):
        from conewave.geometry import ShiftedWeight

        for weight in (ShiftedWeight(), ShiftedWeight(0.35)):
            for col, full, R in _column_and_full(-0.8, 0.3, 0.5, 2.0):
                _same_broadcast_bits(weight.value_radial(col, R),
                                     weight.value_radial(full, R))
                for got, want in zip(weight.grad_radial(col, R),
                                     weight.grad_radial(full, R)):
                    _same_broadcast_bits(got, want)

    @pytest.mark.parametrize("potential", [
        PotentialSpec.constant(1.3),
        PotentialSpec(kind="perturbed", c0=1.1, eps=0.15, center=(0.0, 1.0),
                      width=0.8),
        PotentialSpec(kind="perturbed", c0=2.0, eps=-0.4, center=(-0.3, 0.2),
                      width=0.45),
    ], ids=["constant", "perturbed", "perturbed-neg"])
    def test_potential(self, potential):
        for col, full, R in _column_and_full(-0.6, 0.4, 0.0, 1.8):
            for got, want in zip(potential.jet(col, R), potential.jet(full, R)):
                assert_same_bits(got, want)
            assert_same_bits(potential.value(col, R), potential.value(full, R))

    @pytest.mark.parametrize("levels", [1, 2, 9])
    def test_discrete_jet_and_value(self, levels):
        fld = TestDiscreteJetBitIdentity._field(levels)
        rng = np.random.default_rng(23)
        tn = np.concatenate([rng.uniform(fld.times[0], fld.times[-1], 20),
                             fld.times, [fld.times[-1]]])  # every level, the last
        R = np.concatenate([rng.uniform(-2.0, 2.0, 30),  # negative r too
                            fld.r[[0, 1, 31, -2, -1]], -fld.r[[1, -1]]])
        R = R[None, :] * np.ones((tn.size, 1))
        col = tn[:, None]
        for t, full, r in ((col, np.broadcast_to(col, R.shape), R),
                           (tn[-1:], np.full(R.shape[1], tn[-1]), R[0])):
            for got, want in zip(fld.jet(t, r), fld.jet(full, r)):
                assert_same_bits(got, want)
            assert_same_bits(fld.value(t, r), fld.value(full, r))

    def test_discrete_out_of_range_time_raises_the_same_error(self):
        fld = TestDiscreteJetBitIdentity._field(9)
        R = np.linspace(0.0, 2.0, 7)[None, :] * np.ones((3, 1))
        for bad_t in (fld.times[0] - 0.1, fld.times[-1] + 0.1):
            col = np.array([[fld.times[1]], [bad_t], [fld.times[2]]])
            messages = []
            for t in (col, np.broadcast_to(col, R.shape)):
                with pytest.raises(ValueError) as err:
                    fld.jet(t, R)
                messages.append(str(err.value))
            want = (f"time {float(bad_t)!r} outside the stored range "
                    f"[{float(fld.times[0])!r}, {float(fld.times[-1])!r}]")
            assert messages[0] == messages[1] == want
