import math
import os
import tracemalloc

import numpy as np
import pytest

from conewave.fields import (
    ArgumentError,
    DiscreteField,
    LevelRangeError,
    ManufacturedField,
    PotentialSpec,
    _head_end,
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
        closures_jet(
            lambda t, r: t + r,
            lambda t, r: np.ones(np.broadcast(t, r).shape),
            lambda t, r: np.ones(np.broadcast(t, r).shape),
            lambda t, r: (n - 1) / r * np.ones(np.broadcast(t, r).shape)),
    )


class TestPotential:
    def test_constant(self):
        V = PotentialSpec(2.0)
        assert V.value(0.3, 1.2) == 2.0
        assert V.jet(0.3, 1.2)[1:] == (0.0, 0.0)

    def test_constant_exactly_when_eps_is_zero(self):
        for eps in (0.0, -0.0):
            V = PotentialSpec(2.0, eps, (0.3, 1.0), 0.5)
            assert V.is_constant
            assert V.jet(0.3, 1.0) == PotentialSpec(2.0).jet(0.3, 1.0)
        assert not PotentialSpec(2.0, 1e-300, (0.3, 1.0), 0.5).is_constant

    def test_perturbed_unit_gradient_profile(self):
        V = PotentialSpec(c0=1.0, eps=0.3, center=(0.0, 1.0), width=0.5)
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
            PotentialSpec(c0=0.5, eps=1.0, center=(0.0, 0.0), width=1.0)

    @pytest.mark.parametrize("c0,width", [(math.inf, 1.0), (1.0, math.inf)])
    def test_rejects_a_non_finite_level_or_width(self, c0, width):
        # before: c0 = inf gave V = inf, and width = inf a nan bump
        with pytest.raises(ValueError, match="finite"):
            PotentialSpec(c0=c0, eps=0.1, width=width)

    @pytest.mark.parametrize("args,names", [
        ((1.0, math.nan), ("c0", "eps", "width")),
        ((1.0, 0.1, (math.inf, 0.0)), ("center[0]",)),
        ((1.0, 0.0, (0.0, -math.inf)), ("center[1]",)),
        ((1.0, 0.0, (0.0, 0.0), math.nan), ("width",)),
    ], ids=["nan-eps", "inf-center-t", "constant-inf-center-r", "nan-width"])
    def test_a_nan_or_inf_argument_is_refused_by_name(self, args, names):
        # before: each constructed, eps = nan giving V = nan and a non-finite
        # center the bump silently zero
        with pytest.raises(ArgumentError) as err:
            PotentialSpec(*args)
        assert err.value.names == names


def residual(field, potential, p, t, r):
    """box phi + V |phi|^{p-1} phi from one jet; zero for exact solutions."""
    ph, _, _, box = field.jet(t, r)
    return box + potential.value(t, r) * signed_power(ph, p)


class TestGradientNormSq:
    """The jet's first derivatives, whose squares sum to |grad phi|^2."""

    def test_constant_is_zero(self):
        _, phi_t, phi_r, _ = constant_field(3.0).jet(0.5, 1.0)
        assert phi_t ** 2 + phi_r ** 2 == 0.0

    def test_ode_field_p2(self):
        # d_t phi* = 12 (-t)^{-3} at t = -1 gives 144
        _, phi_t, phi_r, _ = ode_field(2.0).jet(-1.0, 0.7)
        assert phi_t ** 2 + phi_r ** 2 == pytest.approx(144.0)

    def test_linear_field(self):
        _, phi_t, phi_r, _ = linear_field().jet(0.2, 1.5)
        assert phi_t ** 2 + phi_r ** 2 == pytest.approx(2.0)


class TestBoxOperator:
    """The wave operator as the fourth jet component."""

    def test_t_squared(self):
        f = ManufacturedField(
            closures_jet(
                lambda t, r: t * t + 0.0 * r,
                lambda t, r: 2.0 * t + 0.0 * r,
                lambda t, r: np.zeros(np.broadcast(t, r).shape),
                lambda t, r: -2.0 + 0.0 * (t + r)),
        )
        assert f.jet(0.3, 1.0)[3] == pytest.approx(-2.0)

    def test_ode_solution_closed_form(self):
        # box phi* = -|phi*| phi* for p = 2: at t = -1 that is -36
        assert ode_field(2.0).jet(-1.0, 0.3)[3] == pytest.approx(-36.0)

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
        V = PotentialSpec(1.0)
        assert residual(zero_field(), V, 2.0, 0.5, 1.0) == 0.0

    def test_constant_field(self):
        V = PotentialSpec(1.0)
        c = 1.7
        val = residual(constant_field(c), V, 2.0, 0.5, 1.0)
        assert val == pytest.approx(c ** 2)

    def test_ode_solution_exact_zero(self):
        V = PotentialSpec(1.0)
        for p in (1.5, 2.0, 3.0):
            val = residual(ode_field(p), V, p, -0.7, 0.2)
            assert val == pytest.approx(0.0, abs=1e-10)


class TestManufacturedDerivatives:
    @pytest.mark.parametrize("field,t0,r0", [
        (gaussian_pulse(3, 1.2, 0.3, 0.7, 0.5), 0.25, 0.9),
        (polynomial_gaussian(3, 0.8, -0.2, 0.6, 0.7, c1=0.4, c2=-0.3), 0.25,
         0.9),
        (traveling_bump(3, 1.0, 0.4, 1.5, 0.3), 0.25, 0.9),
        (ode_field(2.0), -0.5, 0.8),
    ], ids=["gauss", "polygauss", "travel", "ode"])
    def test_derivatives_match_finite_differences(self, field, t0, r0):
        def phi(t, r):
            return field.jet(t, r)[0]

        hs = np.array([1e-2, 1e-3, 1e-4])
        for k, axis in ((1, "t"), (2, "r")):
            errs = []
            for h in hs:
                if axis == "t":
                    fd = (phi(t0 + h, r0) - phi(t0 - h, r0)) / (2 * h)
                else:
                    fd = (phi(t0, r0 + h) - phi(t0, r0 - h)) / (2 * h)
                errs.append(abs(fd - field.jet(t0, r0)[k]) + 1e-300)
            if max(errs) < 1e-13:
                continue  # exactly-linear direction: nothing to fit
            slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
            assert slope == pytest.approx(2.0, abs=0.3)

    @pytest.mark.parametrize("field,n", [
        (gaussian_pulse(3, 1.2, 0.3, 0.7, 0.5), 3),
        (polynomial_gaussian(2, 0.8, -0.2, 0.6, 0.7, c1=0.4, c2=-0.3), 2),
        (traveling_bump(3, 1.0, 0.4, 1.5, 0.3), 3),
    ], ids=["gauss", "polygauss", "travel"])
    def test_box_matches_stencil(self, field, n):
        t0, r0 = 0.25, 0.9
        h = 1e-4

        def phi(t, r):
            return field.jet(t, r)[0]

        phitt = (phi(t0 + h, r0) - 2 * phi(t0, r0) + phi(t0 - h, r0)) / h ** 2
        phirr = (phi(t0, r0 + h) - 2 * phi(t0, r0) + phi(t0, r0 - h)) / h ** 2
        phir = (phi(t0, r0 + h) - phi(t0, r0 - h)) / (2 * h)
        stencil = -phitt + phirr + (n - 1) / r0 * phir
        assert field.jet(t0, r0)[3] == pytest.approx(stencil, rel=1e-5, abs=1e-6)

    def test_gaussian_box_regular_at_axis(self):
        field = gaussian_pulse(3, 1.0, 0.0, 1.0, 0.5)
        val = field.jet(0.0, 0.0)[3]
        # -d_tt + n d_rr at the axis for the even gaussian
        expected = (1.0 / 1.0 ** 2) - 3 * (1.0 / 0.5 ** 2)
        assert val == pytest.approx(expected * field.jet(0.0, 0.0)[0])


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
        times, phi, phit = zip(*levels)
        fld = DiscreteField(times, r_read, phi, phit)
        assert n == 2
        assert fld.jet(0.05, 0.5)[0] == pytest.approx(0.025)


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


def headed_level(size, head, values, live=()):
    """writer_level(size, live) with its first `head` rows set to the
    (phi, phit) pair `values`: a head the writer formats once."""
    r, phi, phit = writer_level(size, live)
    phi[:head], phit[:head] = values
    return r, phi, phit


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
    # heads: leading rows equal to row 0 bit for bit
    "head_positive": headed_level(
        40, 11, (6.0, 12.0), {11: (6.0, 11.5), 12: (5.0, 12.0), 20: (1.0, 0.0)}),
    "head_negative_zero_next_to_positive_zero": headed_level(
        40, 6, (-0.0, 0.0), {6: (0.0, 0.0), 9: (0.0, -0.0), 15: (0.25, 0.0)}),
    "head_to_the_live_edge": headed_level(40, 17, (-1e-300, math.pi)),
    "head_of_every_row": headed_level(40, 40, (2.0 / 3.0, -0.0)),
    "head_longer_than_a_block": headed_level(
        3 * 1024, 1500, (1e200, 7.0), {2500: (1.0, 1.0)}),
    "no_head": headed_level(40, 0, (0.0, 0.0), {0: (1.0, 2.0), 1: (1.0, 2.5),
                                                 2: (1.0, 2.0)}),
}


@pytest.mark.parametrize("phi,phit,head", [
    ([], [], 0),
    ([1.0], [2.0], 1),
    ([1.0, 1.0, 1.0], [2.0, 2.0, 2.0], 3),
    ([1.0, 1.0, 1.0], [2.0, 2.0, 3.0], 2),
    ([0.0, -0.0, 0.0], [0.0, 0.0, 0.0], 1),        # -0.0 is not +0.0
    ([-0.0, -0.0, 0.0], [5.0, 5.0, 5.0], 2),
    ([math.nan, math.nan, 1.0], [0.0, 0.0, 0.0], 2),  # same nan bits
    ([1.0, 1.0 + 2 ** -52, 1.0], [0.0, 0.0, 0.0], 1),
])
def test_head_end_compares_bits(phi, phit, head):
    assert _head_end(np.array(phi, dtype=float),
                     np.array(phit, dtype=float)) == head


class TestSnapshotWriterLiveEdge:
    """Rows past a level's live edge are written without formatting their
    values, and a head's rows share one formatting of theirs; the bytes
    must be those of formatting every row."""

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
        stored = DiscreteField(times, r, [phi for _, phi, _ in levels],
                               [phit for _, _, phit in levels])
        paths = write_snapshots(str(tmp_path), 2, 1.5, stored)
        assert [os.path.basename(path) for path in paths] == [
            f"snap_{m:04d}.dat" for m in range(len(levels))]
        for m, (t, phi, phit) in enumerate(zip(times, stored.phi,
                                               stored.phi_t)):
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
        with pytest.raises(ValueError):
            write_level(tmp_path, 3, 2.0, 0.0, r, phi, phit[:-1])


class TestDiscreteFieldEvaluation:
    def test_reproduces_bilinear_functions(self):
        r = np.linspace(0, 2, 41)
        times = np.array([0.0, 0.5, 1.0])
        phi = np.vstack([3.0 * t + 2.0 * r for t in times])
        phit = np.vstack([np.full_like(r, 3.0) for _ in times])
        fld = DiscreteField(times, r, phi, phit)
        assert fld.jet(0.25, 0.33)[0] == pytest.approx(3 * 0.25 + 2 * 0.33)
        assert fld.jet(0.7, 1.0)[1] == pytest.approx(3.0)
        assert fld.jet(0.7, 1.3)[2] == pytest.approx(2.0)

    def test_even_extension(self):
        r = np.linspace(0, 1, 11)
        fld = DiscreteField(np.array([0.0]), r, (r * r)[None, :],
                            np.zeros((1, 11)))
        assert fld.jet(0.0, -0.5)[0] == fld.jet(0.0, 0.5)[0]

    def test_out_of_range_raises(self):
        r = np.linspace(0, 1, 11)
        fld = DiscreteField(np.array([0.0, 1.0]), r, np.zeros((2, 11)),
                            np.zeros((2, 11)))
        with pytest.raises(ValueError):
            fld.jet(2.0, 0.5)
        with pytest.raises(ValueError):
            fld.jet(0.5, 1.5)

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
            fld.jet(np.array([[np.nan], [0.5]]), np.array([0.2, 0.4]))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            DiscreteField(np.array([0.0]), np.array([0.5, 1.0]),
                          np.zeros((1, 2)), np.zeros((1, 2)))

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
    def test_a_non_uniform_grid_is_refused_at_every_scale(self, scale):
        # before: numpy's default atol = 1e-8 let r = [0, 1, 5, 6] * 1e-9
        # through, with dr read as 1e-9
        r = np.array([0.0, 1.0, 5.0, 6.0]) * scale
        with pytest.raises(ValueError, match="radial grid must be uniform"):
            DiscreteField(np.array([0.0]), r, np.zeros((1, 4)),
                          np.zeros((1, 4)))

    # the spacings of np.arange(J + 1) * (R / J) agree to within J eps:
    # 1.03e-9 at J = 6e6, which a fixed rtol = 1e-9 refused
    @pytest.mark.parametrize("R,J", [(72.0, 100000), (0.37, 12345),
                                     (4.0, 262144), (1e-6, 4096),
                                     (1e6, 8), (72.0, 6_000_000)])
    def test_solver_grids_pass(self, R, J):
        r = np.arange(J + 1) * (R / J)
        fld = DiscreteField(np.array([0.0]), r, np.zeros((1, J + 1)),
                            np.zeros((1, J + 1)))
        assert fld.dr == r[1]

    @staticmethod
    def _walled():
        """Levels at t = 0, 1, 2 on r in [0, 1], with the wall limits that
        a solver run would leave at steps 2, 4 and 6 of dr = 0.1."""
        return DiscreteField(np.array([0.0, 1.0, 2.0]), np.linspace(0, 1, 11),
                             np.ones((3, 11)), np.zeros((3, 11)),
                             r_limit=[0.8, 0.6, 0.4])

    def test_a_point_at_its_level_limit_reads(self):
        fld = self._walled()
        assert fld.jet(2.0, 0.4)[0] == 1.0
        assert fld.jet(0.0, 0.6)[0] == 1.0  # level 1 is also read, th = 0
        assert fld.jet(np.array([[0.5], [1.5]]), np.array([0.1, 0.4]))[0].shape \
            == (2, 2)

    def test_a_point_past_its_level_limit_names_t_r_and_the_limit(self):
        # before: a grid-end test only, a plain ValueError (exit 1)
        fld = self._walled()
        with pytest.raises(LevelRangeError, match=r"^radius 0\.41 at time 2\.0 "
                           r"is past the levels' wall limit "
                           r"\(r > 0\.4\)$"):
            fld.jet(2.0, 0.41)
        with pytest.raises(LevelRangeError, match=r"radius 0\.41 at time 1\.5"):
            fld.jet(np.array([[0.5], [1.5]]), np.array([0.1, 0.41]))
        with pytest.raises(LevelRangeError, match=r"radius 0\.61 at time 0\.0"):
            fld.jet(0.0, -0.61)  # the even extension reads |r|

    def test_a_negative_limit_says_the_wall_reached_the_axis(self):
        # a level of solver step k > J - 2 stores (J - k - 2) dr < 0; before,
        # the refusal named that negative limit, "(r > -0.1)"
        fld = DiscreteField(np.array([0.0, 1.0, 2.0]), np.linspace(0, 1, 11),
                            np.ones((3, 11)), np.zeros((3, 11)),
                            r_limit=[0.1, 0.0, -0.1])
        assert fld.jet(0.5, 0.0)[0] == 1.0
        with pytest.raises(LevelRangeError, match=r"^radius 0\.0 at time 1\.5 "
                           r"is past the levels' wall, which has reached the "
                           r"axis by that time$"):
            fld.jet(1.5, 0.0)
        with pytest.raises(LevelRangeError, match=r"\(r > 0\)$"):
            fld.jet(0.5, 0.01)

    def test_a_point_between_two_levels_takes_the_later_limit(self):
        fld = self._walled()
        assert fld.jet(0.5, 0.6)[0] == 1.0
        with pytest.raises(LevelRangeError, match=r"time 0\.5 .*\(r > 0\.6\)"):
            fld.jet(0.5, 0.7)  # level 0 alone would allow 0.8
        with pytest.raises(LevelRangeError, match=r"time 1\.5 .*\(r > 0\.4\)"):
            fld.jet(1.5, 0.5)

    def test_a_field_built_directly_reads_to_its_grid_end(self):
        r = np.linspace(0, 1, 11)
        for times in ([0.0], [0.0, 1.0]):
            fld = DiscreteField(np.array(times), r, np.ones((len(times), 11)),
                                np.zeros((len(times), 11)))
            assert fld.r_limit.tolist() == [1.0] * len(times)
            assert fld.jet(times[-1], 1.0 + 1e-10)[0] == 1.0  # the slack
            with pytest.raises(LevelRangeError, match=r"\(r > 1\)"):
                fld.jet(times[-1], 1.0 + 1e-8)

    def test_a_nan_radius_is_refused_naming_the_point(self):
        # before: NaN passed `r > limit`, then its cast to a cell index read
        # out of bounds (an IndexError, exit 1)
        fld = self._walled()
        with pytest.raises(LevelRangeError, match=r"^radius nan at time 0\.5 "
                                                  r"is not a number$"):
            fld.jet(0.5, np.nan)
        with pytest.raises(LevelRangeError, match=r"radius nan at time 1\.5"):
            fld.jet(np.array([[0.5], [1.5]]), np.array([[0.1, 0.2],
                                                        [0.3, -np.nan]]))

    @pytest.mark.parametrize("limit", [[np.nan, np.nan], [1.0, np.nan], [1.0],
                                       [[1.0, 1.0]], 1.0])
    def test_a_limit_must_be_one_per_level_and_not_nan(self, limit):
        # before: a NaN limit turned the wall check off, and a limit of the
        # wrong shape was an IndexError at the first read
        with pytest.raises(ValueError, match="r_limit must hold one limit per "
                                             "level and no NaN"):
            DiscreteField(np.array([0.0, 1.0]), np.linspace(0, 2, 21),
                          np.zeros((2, 21)), np.zeros((2, 21)), r_limit=limit)

    @pytest.mark.parametrize("shape", [(1, 11), (2, 10), (2,)])
    def test_phi_t_must_have_the_shape_of_phi(self, shape):
        # before: only phi's shape was checked; evaluating phi_t then gave
        # an IndexError or the values of shifted rows
        with pytest.raises(ValueError, match="phi_t shape does not match"):
            DiscreteField(np.array([0.0, 1.0]), np.linspace(0, 1, 11),
                          np.zeros((2, 11)), np.zeros(shape))


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


# (id, field, closures, legacy closures, box t_lo t_hi r_lo r_hi, n)
MANUFACTURED = [
    ("gauss", gaussian_pulse(3, 1.2, 0.3, 0.7, 0.5),
     gaussian_closures(3, 1.2, 0.3, 0.7, 0.5),
     _legacy_gaussian_closures(3, 1.2, 0.3, 0.7, 0.5), (-0.4, 0.9, 0.0, 2.0),
     3),
    ("polygauss", polynomial_gaussian(2, 0.8, -0.2, 0.6, 0.7, c1=0.4, c2=-0.3),
     polynomial_closures(2, 0.8, -0.2, 0.6, 0.7, 0.4, -0.3),
     _legacy_polynomial_closures(2, 0.8, -0.2, 0.6, 0.7, 0.4, -0.3),
     (-0.5, 0.5, 0.0, 1.5), 2),
    ("travel", traveling_bump(3, 1.0, 0.4, 1.5, 0.3),
     travel_closures(3, 1.0, 0.4, 1.5, 0.3),
     _legacy_travel_closures(3, 1.0, 0.4, 1.5, 0.3), (-0.3, 0.6, 0.5, 2.5),
     3),
    ("offgauss", _offcenter_gaussian(2, 0.7, 0.1, 1.3, 0.25, 0.3),
     offcenter_closures(2, 0.7, 0.1, 1.3, 0.25, 0.3),
     _legacy_offcenter_closures(2, 0.7, 0.1, 1.3, 0.25, 0.3),
     (-0.2, 0.4, 0.6, 2.0), 2),
]


class TestJetBitIdentity:
    CASES = [case[:3] + case[4:5] for case in MANUFACTURED] + [
        ("ode", ode_field(2.5), _ode_closures(2.5), (-1.0, -0.05, 0.0, 1.0)),
        ("zero", zero_field(), _constant_closures(0.0), (-1.0, 1.0, 0.0, 1.0)),
        ("constant", constant_field(1.7), _constant_closures(1.7),
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


def _fd_jet_errors(field, n, t, r, h):
    """Largest error of phi_t, phi_r and box (in dimension n) against
    centred differences of the field's own phi with step h, each relative
    to the largest magnitude of the differenced value on the sample."""
    def phi(t, r):
        return field.jet(t, r)[0]

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
    @pytest.mark.parametrize("field,n,box_",
                             [(c[1], c[5], c[4]) for c in MANUFACTURED],
                             ids=[c[0] for c in MANUFACTURED])
    def test_derivatives_and_box_of_own_phi(self, field, n, box_):
        errors = _fd_jet_errors(field, n, *_fd_points(*box_), FD_STEP)
        assert max(errors) < FD_RTOL, errors

    def test_catches_a_box_without_its_first_order_term(self):
        # seeded mutation: the travelling bump's box loses (n-1)/r phi_r
        n = 3
        good = traveling_bump(n, 1.0, 0.4, 1.5, 0.3)

        def mutated(t, r):
            phi, phi_t, phi_r, box = good.evaluate(t, r)
            return phi, phi_t, phi_r, box - (n - 1) / r * phi_r

        bad = ManufacturedField(mutated)
        t, r = _fd_points(-0.3, 0.6, 0.5, 2.5)
        errors = _fd_jet_errors(bad, n, t, r, FD_STEP)
        assert errors[:2] == _fd_jet_errors(good, n, t, r, FD_STEP)[:2]
        assert errors[2] > 100 * FD_RTOL


def _reference_eval(fld, table, t, r):
    """Linear in t, then linear in r, written out per point: the levels'
    combination G_k = P[m, k] (1 - th) + P[m + 1, k] th at the point's two
    cells k = j, j + 1, then G_j + fr (G_{j+1} - G_j)."""
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
    g0 = table[m, j] * (1.0 - th) + table[m2, j] * th
    g1 = table[m, j + 1] * (1.0 - th) + table[m2, j + 1] * th
    out = g0 + fr * (g1 - g0)
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

    @pytest.mark.parametrize("levels", [1, 2, 9])
    @pytest.mark.parametrize("points", [64, 2])
    def test_rows_at_the_axis_and_in_the_last_cell_read_inside_the_table(
            self, levels, points):
        # a batch shares one window width, so the row in the last cell needs
        # its window start clamped; unclamped, its window on the top level
        # runs past the table's end (an IndexError). Two points per row make
        # the windows too wide for the batch, which then reads one row per
        # point, with the same bits
        fld = self._field(levels)
        t = np.array([[fld.times[-1]], [fld.times[0]], [fld.times[-1]]])
        r = np.array([np.linspace(fld.r[-2], 2.0, points),
                      np.linspace(0.0, 1.5, points),
                      np.linspace(-fld.dr / 2, 0.0, points)])
        tables = (fld.phi, fld.phi_t, _reference_phi_r(fld))
        for got, table in zip(fld.jet(t, r), tables):
            assert_same_bits(got, _reference_eval(fld, table, t, r))

    @pytest.mark.parametrize("levels", [1, 2, 9])
    def test_a_per_point_time_matches_per_table_interpolation(self, levels):
        # a surface batch: every point has its own (t, r)
        fld = self._field(levels)
        rng = np.random.default_rng(17)
        t = rng.uniform(fld.times[0], fld.times[-1], (6, 5))
        r = rng.uniform(-2.0, 2.0, (6, 5))
        r[0, :2] = 0.0, 2.0
        tables = (fld.phi, fld.phi_t, _reference_phi_r(fld))
        for got, table in zip(fld.jet(t, r), tables):
            assert got.shape == (6, 5)
            assert_same_bits(got, _reference_eval(fld, table, t, r))


class TestDiscreteJetHeadRead:
    """A batch that gives r in full, with t of the same rank, whose rows
    read only cells j + 1 <= head - 2 of both their levels, each with finite
    cell-0 values, reads one value per row; every other batch reads per
    point. Either way each table gives the bits of `_reference_eval` once
    broadcast in full, and point batches and scalars keep the full shape."""

    # heads of the levels, 2 (no cell inside) to 65 (the whole level)
    HEADS = (40, 12, 65, 3, 25, 2, 65, 33, 7)

    @classmethod
    def _field(cls, levels, cell0, radius=2.0):
        """Random levels on [0, radius] whose first HEADS[k] cells of phi and
        phi_t repeat cell 0 (phi's run a little longer on some levels): -0.0
        on levels 0 and 1, or inf in phi, or nan in phi_t on the middle
        level."""
        rng = np.random.default_rng(29)
        r = np.linspace(0.0, radius, 65)
        times = np.sort(rng.uniform(-1.0, 0.0, levels)) if levels > 1 \
            else np.array([-0.5])
        phi = rng.standard_normal((levels, r.size))
        phit = rng.standard_normal((levels, r.size))
        for k, head in enumerate(cls.HEADS[:levels]):
            phi[k, :head + k % 3] = phi[k, 0]
            phit[k, :head] = phit[k, 0]
        mid = cls.HEADS[levels // 2]
        if cell0 == "-0.0":
            for k in range(min(levels, 2)):
                phi[k, :cls.HEADS[k]] = phit[k, :cls.HEADS[k]] = -0.0
        elif cell0 == "inf":
            phi[levels // 2, :mid] = math.inf
        elif cell0 == "nan":
            phit[levels // 2, :mid] = math.nan
        fld = DiscreteField(times, r, phi, phit)
        assert fld.head.tolist() == list(cls.HEADS[:levels])
        return fld

    @staticmethod
    def _rows(fld, pair, kind, rng):
        """(t, r) rows of the level pair m, m + 1 (m = 0 alone for one
        level), each reading inside the pair's heads (none if no cell is
        inside), straddling their end or past it. Only the last pair holds
        its later level's time: from t_{m+1} on a row reads m + 1, m + 2."""
        times = fld.times[list(pair)]
        last = pair[1] == fld.times.size - 1
        tn = np.concatenate([rng.uniform(*times, 3), times[:1 + last]])
        # a row reads inside when its x = |r|/dr < head - 2 on both levels
        edge = int(min(fld.head[list(pair)])) - 2
        if kind == "inside" and edge < 1:
            return []
        dr = fld.dr
        if kind == "inside":
            ends = [0.0, fld.r[edge - 1], -fld.r[edge - 1]]
            lo, hi = -(edge - 0.5) * dr, (edge - 0.5) * dr
        elif kind == "straddle":
            ends = [0.0, fld.r[edge] + 0.5 * dr]
            lo, hi = 0.0, (edge + 1.5) * dr
        else:
            ends = [fld.r[-1]]
            lo, hi = min((edge + 1) * dr, 2.0), 2.0
        return [(t, np.concatenate([ends, rng.uniform(lo, hi, 9)])[:9])
                for t in tn]

    @pytest.mark.parametrize("cell0", ["plain", "-0.0", "inf", "nan"])
    @pytest.mark.parametrize("levels", [1, 2, 9])
    def test_each_table_gives_the_per_point_bits(self, levels, cell0):
        fld = self._field(levels, cell0)
        rng = np.random.default_rng(31)
        pairs = [(0, 0)] if levels == 1 else [(m, m + 1)
                                              for m in range(levels - 1)]
        finite = np.isfinite(fld.phi[:, 0]) & np.isfinite(fld.phi_t[:, 0])
        batches = []
        for pair in pairs:
            inside = self._rows(fld, pair, "inside", rng)
            head_read = bool(inside) and finite[list(pair)].all()
            straddle = inside + self._rows(fld, pair, "straddle", rng)
            batches += [(inside, head_read), (straddle, False),
                        (self._rows(fld, pair, "past", rng), False)]
        # the inside rows of every pair of finite levels, in one batch
        batches.append(([row for pair in pairs if finite[list(pair)].all()
                         for row in self._rows(fld, pair, "inside", rng)],
                        True))
        tables = (fld.phi, fld.phi_t, _reference_phi_r(fld))
        read = 0
        for rows, head_read in batches:
            if not rows:
                continue
            t = np.array([[row[0]] for row in rows])
            r = np.array([row[1] for row in rows])
            with np.errstate(invalid="ignore"):  # inf - inf
                jet = fld.jet(t, r)
                wants = [_reference_eval(fld, table, t, r) for table in tables]
            for got, want in zip(jet, wants):
                assert got.shape == (t.shape if head_read else r.shape)
                # NaN compares unequal, so compare the bits alone
                assert got.dtype == want.dtype
                assert (np.broadcast_to(got, r.shape).tobytes()
                        == want.tobytes())
            read += head_read
            # the same points as a point batch, and the first row's as
            # scalars
            points = [(np.broadcast_to(t, r.shape).ravel(), r.ravel())]
            points += [(float(t[0, 0]), float(x)) for x in r[0]]
            for tp, rp in points:
                with np.errstate(invalid="ignore"):
                    jet = fld.jet(tp, rp)
                    wants = [_reference_eval(fld, table, tp, rp)
                             for table in tables]
                for got, want in zip(jet, wants):
                    assert type(got) is type(want)
                    assert np.shape(got) == np.shape(rp)
                    assert (np.asarray(got).tobytes()
                            == np.asarray(want).tobytes())
        if cell0 in ("plain", "-0.0"):
            assert read

    @pytest.mark.parametrize("radius", [2.0, 1.9])
    @pytest.mark.parametrize("levels", [1, 2, 9])
    def test_a_row_reads_the_head_exactly_while_its_cells_are_inside(
            self, levels, radius):
        # rows whose largest |r| is reach * dr or the float below it: the
        # head read takes a row exactly when its per-point cells
        # j = floor(|r| / dr) all stay below the reach of its levels
        fld = self._field(levels, "plain", radius)
        reach, dr = fld._head_reach, fld.dr
        rng = np.random.default_rng(37)
        tables = (fld.phi, fld.phi_t, _reference_phi_r(fld))
        outcomes = set()
        for m, k in enumerate(reach.tolist()):
            if k < 1:
                continue
            # two times that read levels m, m + 1 (the one level's time)
            t = (fld.times[[0, 0]] if levels == 1 else
                 fld.times[m] + np.array([0.25, 0.75]) * np.diff(fld.times)[m])
            for top in (k * dr, np.nextafter(k * dr, 0.0)):
                r = rng.uniform(-top, top, (2, 9))
                r[0, 0], r[1, 4] = top, -top
                jet = fld.jet(t[:, None], r)
                head_read = (np.abs(r) / dr).astype(int).max() < k
                outcomes.add(bool(head_read))
                for got, table in zip(jet, tables):
                    want = _reference_eval(fld, table, t[:, None], r)
                    assert got.shape == ((2, 1) if head_read else r.shape)
                    assert (np.broadcast_to(got, r.shape).tobytes()
                            == want.tobytes())
        if radius == 2.0:  # dr = 1/32: k dr / dr is k, the float below is not
            assert outcomes == {False, True}

    def test_a_head_read_builds_no_per_point_cell_array(self):
        # 8 rows of 200,000 points inside the head: what remains per point
        # is the |r| copy (8 bytes) and require_radii's mask (1 byte); before,
        # the cell indices taken for each row's greatest cell made it 16
        J, head = 4096, 3000
        r = np.linspace(0.0, 6.0, J + 1)
        rng = np.random.default_rng(41)
        phi, phit = rng.standard_normal((2, 2, J + 1))
        phi[:, :head], phit[:, :head] = 1.5, -0.25
        fld = DiscreteField(np.array([-1.0, -0.5]), r, phi, phit)
        t = np.linspace(-1.0, -0.5, 8)[:, None]
        x = rng.uniform(-1.0, 1.0, (8, 200_000)) * (head - 3) * fld.dr
        fld.jet(t, x[:, :2])  # builds phi_r, head and the reach
        tracemalloc.start()
        try:
            out = fld.jet(t, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert {a.shape for a in out} == {(8, 1)}
        assert peak / x.size < 12.0


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
        PotentialSpec(1.3),
        PotentialSpec(c0=1.1, eps=0.15, center=(0.0, 1.0), width=0.8),
        PotentialSpec(c0=2.0, eps=-0.4, center=(-0.3, 0.2), width=0.45),
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
